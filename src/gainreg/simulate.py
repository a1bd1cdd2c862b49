"""Synthetic data: the bimodal toy model, heavy-tailed location families,
and outlier contamination.

Each noise family records its moment ceiling (the largest power with a
finite absolute moment) so benchmarks can match schedule parameters to tail
weight.  All draws run through the Philox streams in :mod:`gainreg.rng`,
with a fixed draw order per generator, so datasets are bit-reproducible for
a given seed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional, Sequence

import numpy as np

from .errors import InvalidInputError, InvalidParameterError, UnsupportedOperationError
from .quadrature import QuadratureConfig, integrate
from .rng import generator

GAUSSIAN_MIXTURE = "gaussian_mixture"
STUDENT_T = "student_t"
SYMMETRIC_PARETO = "symmetric_pareto"
CONTAMINATED = "contaminated"
DENSITY_NORM_TOL = 1e-8


@dataclass(frozen=True)
class NoiseSpec:
    """One noise family with sampling, density, and moment metadata."""

    family: str
    mixture: Optional[tuple[tuple[float, float, float], ...]] = None  # (w, mu, s)
    df: Optional[float] = None
    tail_index: Optional[float] = None
    rate: Optional[float] = None
    outlier_values: Optional[tuple[float, ...]] = None
    base: Optional["NoiseSpec"] = None

    def __post_init__(self) -> None:
        if self.family == GAUSSIAN_MIXTURE:
            if not self.mixture:
                raise InvalidParameterError("gaussian mixture needs components")
            weights = [w for w, _, _ in self.mixture]
            if not (all(w > 0 for w in weights) and abs(sum(weights) - 1.0) <= 1e-12):
                raise InvalidParameterError("mixture weights must be positive and sum to 1")
            if not all(math.isfinite(mu) for _, mu, _ in self.mixture):
                raise InvalidParameterError("mixture component means must be finite")
            # Zero scale means a point mass; sampling works, density does not.
            if not all(0.0 <= s < math.inf for _, _, s in self.mixture):
                raise InvalidParameterError(
                    "mixture component scales must be finite and non-negative"
                )
        elif self.family == STUDENT_T:
            if self.df is None or not (1.0 < self.df < math.inf):
                raise InvalidParameterError("student_t needs finite degrees of freedom > 1")
        elif self.family == SYMMETRIC_PARETO:
            if self.tail_index is None or not (1.0 < self.tail_index < math.inf):
                raise InvalidParameterError("symmetric_pareto needs a finite tail index > 1")
        elif self.family == CONTAMINATED:
            if self.base is None:
                raise InvalidParameterError("contaminated noise needs a base spec")
            if self.rate is None or not (0.0 <= self.rate < 1.0):
                raise InvalidParameterError("contamination rate must lie in [0, 1)")
            if not self.outlier_values:
                raise InvalidParameterError("contaminated noise needs outlier values")
            if not all(math.isfinite(v) for v in self.outlier_values):
                raise InvalidParameterError("outlier values must be finite")
        else:
            raise InvalidParameterError(f"unknown noise family {self.family!r}")

    @property
    def moment_bound(self) -> float:
        """Largest power with a finite absolute moment: the df or tail index, else inf."""
        if self.family == STUDENT_T:
            return self.df
        if self.family == SYMMETRIC_PARETO:
            return self.tail_index
        if self.family == CONTAMINATED:
            return self.base.moment_bound
        return math.inf

    # --- factories -----------------------------------------------------
    @staticmethod
    def gaussian_mixture(components: Sequence[tuple[float, float, float]]) -> "NoiseSpec":
        return NoiseSpec(
            family=GAUSSIAN_MIXTURE,
            mixture=tuple((float(w), float(m), float(s)) for w, m, s in components),
        )

    @staticmethod
    def gaussian(mean: float = 0.0, std: float = 1.0) -> "NoiseSpec":
        return NoiseSpec.gaussian_mixture([(1.0, mean, std)])

    @staticmethod
    def student_t(df: float) -> "NoiseSpec":
        return NoiseSpec(family=STUDENT_T, df=float(df))

    @staticmethod
    def symmetric_pareto(tail_index: float) -> "NoiseSpec":
        return NoiseSpec(family=SYMMETRIC_PARETO, tail_index=float(tail_index))

    @staticmethod
    def contaminated(
        base: "NoiseSpec", rate: float, outlier_values: Sequence[float]
    ) -> "NoiseSpec":
        return NoiseSpec(
            family=CONTAMINATED,
            base=base,
            rate=float(rate),
            outlier_values=tuple(float(v) for v in outlier_values),
        )

    # --- sampling and density ------------------------------------------
    def sample(self, rng: np.random.Generator, n: int) -> np.ndarray:
        if self.family == GAUSSIAN_MIXTURE:
            weights = np.array([w for w, _, _ in self.mixture])
            mus = np.array([m for _, m, _ in self.mixture])
            sds = np.array([s for _, _, s in self.mixture])
            idx = np.searchsorted(np.cumsum(weights), rng.random(n), side="right")
            idx = np.minimum(idx, len(weights) - 1)
            return mus[idx] + sds[idx] * rng.standard_normal(n)
        if self.family == STUDENT_T:
            return rng.standard_t(self.df, size=n)
        if self.family == SYMMETRIC_PARETO:
            signs = np.where(rng.random(n) < 0.5, -1.0, 1.0)
            return signs * (1.0 + rng.pareto(self.tail_index, size=n))
        base = self.base.sample(rng, n)
        mask = rng.random(n) < self.rate
        choice = rng.integers(0, len(self.outlier_values), size=n)
        outliers = np.asarray(self.outlier_values, dtype=float)[choice]
        return np.where(mask, outliers, base)

    def density(self, t) -> np.ndarray:
        t = np.asarray(t, dtype=float)
        if self.family == GAUSSIAN_MIXTURE:
            if any(s == 0 for _, _, s in self.mixture):
                raise UnsupportedOperationError("point-mass mixture components have no density")
            out = np.zeros_like(t)
            for w, mu, s in self.mixture:
                out += w * np.exp(-0.5 * ((t - mu) / s) ** 2) / (s * math.sqrt(2 * math.pi))
            return out
        if self.family == STUDENT_T:
            nu = self.df
            norm = math.gamma((nu + 1) / 2) / (math.sqrt(nu * math.pi) * math.gamma(nu / 2))
            return norm * (1.0 + t**2 / nu) ** (-(nu + 1) / 2)
        if self.family == SYMMETRIC_PARETO:
            a = self.tail_index
            with np.errstate(divide="ignore"):
                tail = 0.5 * a * np.abs(t) ** (-(a + 1.0))
            return np.where(np.abs(t) >= 1.0, tail, 0.0)
        raise UnsupportedOperationError(
            "contaminated noise with point outliers has no density"
        )

    def scale_hint(self) -> float:
        if self.family == GAUSSIAN_MIXTURE:
            second = sum(w * (mu**2 + s**2) for w, mu, s in self.mixture)
            return math.sqrt(second)
        if self.family == STUDENT_T:
            return math.sqrt(self.df / (self.df - 2)) if self.df > 2 else 1.5
        if self.family == SYMMETRIC_PARETO:
            return 2.0
        return self.base.scale_hint()

    def density_breakpoints(self) -> tuple[float, ...]:
        if self.family == SYMMETRIC_PARETO:
            return (-1.0, 1.0)
        return ()

    def describe(self) -> dict:
        bound = "inf" if math.isinf(self.moment_bound) else self.moment_bound
        out: dict = {"family": self.family, "moment_bound": bound}
        if self.mixture is not None:
            out["mixture"] = [list(c) for c in self.mixture]
        if self.df is not None:
            out["df"] = self.df
        if self.tail_index is not None:
            out["tail_index"] = self.tail_index
        if self.rate is not None:
            out["rate"] = self.rate
        if self.outlier_values is not None:
            out["outlier_values"] = list(self.outlier_values)
        if self.base is not None:
            out["base"] = self.base.describe()
        return out


@dataclass(frozen=True)
class Dataset:
    """Paired observations with generation provenance."""

    inputs: np.ndarray  # (n, d)
    outputs: np.ndarray  # (n,)
    seed: Optional[int] = None
    noise: Optional[NoiseSpec] = None
    truth: Optional[str] = None

    def __post_init__(self) -> None:
        inputs = np.asarray(self.inputs, dtype=float)
        if inputs.ndim == 1:  # n scalar inputs, not one n-dimensional point
            inputs = inputs[:, None]
        inputs = np.atleast_2d(inputs)
        outputs = np.asarray(self.outputs, dtype=float).ravel()
        if len(inputs) != len(outputs):
            raise InvalidInputError(
                f"{len(inputs)} inputs for {len(outputs)} outputs"
            )
        object.__setattr__(self, "inputs", inputs)
        object.__setattr__(self, "outputs", outputs)

    @property
    def n(self) -> int:
        return len(self.outputs)


def toy_noise_spec() -> NoiseSpec:
    """Bimodal toy noise: equal-weight normals at -1 (wide) and +1 (narrow)."""
    return NoiseSpec.gaussian_mixture([(0.5, -1.0, 2.5), (0.5, 1.0, 0.5)])


def toy_references(x) -> tuple[float | np.ndarray, float | np.ndarray]:
    """Conditional mean and (approximate) conditional mode of the toy model."""
    arr = np.asarray(x, dtype=float)
    if np.any(arr < 0.0) or np.any(arr > 1.0):
        raise InvalidInputError("toy inputs live on [0, 1]")
    mean = 2.0 * np.sin(math.pi * arr)
    mode = mean + 1.0 + 2.0 * arr
    if arr.ndim == 0:
        return float(mean), float(mode)
    return mean, mode


def gen_toy(n: int, seed: int) -> Dataset:
    """Heteroscedastic bimodal benchmark: y = 2 sin(pi x) + (1 + 2x) eps."""
    if n < 1:
        raise InvalidParameterError("n must be positive")
    rng = generator(seed, "toy")
    x = rng.random(n)
    eps = toy_noise_spec().sample(rng, n)
    y = 2.0 * np.sin(math.pi * x) + (1.0 + 2.0 * x) * eps
    return Dataset(inputs=x[:, None], outputs=y, seed=seed, noise=toy_noise_spec(), truth="toy")


def truth_function(truth) -> tuple[Callable[[np.ndarray], np.ndarray], str]:
    """Resolve a truth identifier into a vectorized function of (n, d) inputs.

    Accepts ("sine",), ("constant", c), ("linear", a, b) or the string forms
    "sine", "constant:c", "linear:a:b".
    """
    if isinstance(truth, str):
        parts = truth.split(":")
        try:
            truth = (parts[0], *[float(p) for p in parts[1:]])
        except ValueError:
            raise InvalidParameterError(f"truth {truth!r}: parameters must be numbers") from None
    if not all(math.isfinite(float(p)) for p in truth[1:]):
        raise InvalidParameterError(f"truth {truth!r}: parameters must be finite")
    kind = truth[0]
    if kind == "sine":
        return (lambda x: 2.0 * np.sin(math.pi * x[:, 0])), "sine"
    if kind == "constant":
        c = float(truth[1]) if len(truth) > 1 else 0.0
        return (lambda x: np.full(len(x), c)), f"constant:{c:g}"
    if kind == "linear":
        a = float(truth[1]) if len(truth) > 1 else 1.0
        b = float(truth[2]) if len(truth) > 2 else 0.0
        return (lambda x: a * x[:, 0] + b), f"linear:{a:g}:{b:g}"
    raise InvalidParameterError(f"unknown truth {truth!r}")


def gen_location(n: int, truth, noise: NoiseSpec, seed: int, input_dim: int = 1) -> Dataset:
    """Additive location model y = f*(x) + eps on uniform inputs."""
    if n < 1:
        raise InvalidParameterError("n must be positive")
    if input_dim < 1:
        raise InvalidParameterError(f"input_dim must be positive, got {input_dim}")
    fn, label = truth_function(truth)
    rng = generator(seed, "location", label, input_dim)
    x = rng.random((n, input_dim))
    eps = noise.sample(rng, n)
    return Dataset(inputs=x, outputs=fn(x) + eps, seed=seed, noise=noise, truth=label)


@dataclass(frozen=True)
class LocationProblem:
    """Constant-offset regression slice: y = f*(x) + eps with f - f* = delta.

    The offset makes the squared population distance exactly delta^2, which
    isolates calibration behavior from estimation error.  ``noise_scale``
    and ``noise_breakpoints`` steer quadrature windows and panel edges.
    """

    noise_density: Callable[[np.ndarray], np.ndarray]
    offset: float
    M: float
    noise_scale: float = 1.0
    noise_breakpoints: tuple[float, ...] = ()

    def __post_init__(self) -> None:
        if self.M <= 0:
            raise InvalidParameterError(f"M must be positive, got {self.M}")
        if abs(self.offset) > self.M:
            raise InvalidParameterError(
                f"offset {self.offset} exceeds the sup bound M = {self.M}"
            )
        if self.noise_scale <= 0:
            raise InvalidParameterError("noise_scale must be positive")
        total = _density_mass(self.noise_density, self.noise_scale, self.noise_breakpoints)
        if abs(total - 1.0) > DENSITY_NORM_TOL:
            raise InvalidParameterError(
                f"noise density integrates to {total!r}, not 1 (tol {DENSITY_NORM_TOL})"
            )


def _density_mass(
    density: Callable[[np.ndarray], np.ndarray],
    scale: float,
    breakpoints: Sequence[float],
) -> float:
    # Geometric windows handle power-law tails: one panel family per decade.
    edges = [scale * 10.0**k for k in range(0, 7)]
    bps = sorted({*breakpoints, *(e for e in edges), *(-e for e in edges)})
    cfg = QuadratureConfig(half_width=20.0, nodes=8192)
    w = edges[-1]
    return integrate(density, -w, w, cfg, breakpoints=bps)


def location_problem(
    noise: NoiseSpec, offset: float, M: float
) -> LocationProblem:
    """Constant-offset calibration problem backed by a noise family density."""
    return LocationProblem(
        noise_density=noise.density,
        offset=offset,
        M=M,
        noise_scale=noise.scale_hint(),
        noise_breakpoints=noise.density_breakpoints(),
    )


def mixture_mode(spec: NoiseSpec, lo: float = -10.0, hi: float = 10.0) -> float:
    """Global density maximizer of a mixture family, by grid + refinement."""
    grid = np.linspace(lo, hi, 200_001)
    dens = spec.density(grid)
    i = int(np.argmax(dens))
    a, b = grid[max(i - 1, 0)], grid[min(i + 1, len(grid) - 1)]
    for _ in range(80):  # bisection on the derivative via golden-ratio probes
        m1 = a + (b - a) * 0.382
        m2 = a + (b - a) * 0.618
        if spec.density(np.array([m1]))[0] < spec.density(np.array([m2]))[0]:
            a = m1
        else:
            b = m2
    return float(0.5 * (a + b))
