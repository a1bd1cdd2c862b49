"""Gain functions, their bounded-loss duals, and half-quadratic weights.

A gain ``p_sigma(t) = phi(t / sigma)`` scores how well a prediction fits one
observation: non-negative, integrable, peaked at a zero residual.  Each entry
of the catalog carries its generating function ``phi``, the representing
function ``psi`` (``p_sigma(t) = psi(t^2 / sigma^2)``) when one exists, local
expansion metadata, calibration constants, and the scaling that turns the
gain into its classical bounded nonconvex loss (Tukey biweight, truncated
square, Geman-McClure, exponential squared, ...).

The uniform (box) gain is the one catalog entry normalized by an extra
``1/sigma`` so its losses reproduce the 0/1 box loss; it is flagged with
``sigma_normalized`` and excluded from the scale-equivariance contract.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from functools import lru_cache
from typing import Callable, Optional, Sequence

import numpy as np

from .errors import (
    InvalidInputError,
    InvalidParameterError,
    UnsupportedOperationError,
)

ArrayFn = Callable[[np.ndarray], np.ndarray]

# Grid size for the supremum searches that back non-tabulated constants.
_CONSTANT_GRID = 100_000
# Declared constants from searches carry this multiplicative slack so that a
# later, finer estimate cannot legitimately exceed them.
_DECLARED_SLACK = 1.01


@dataclass(frozen=True)
class GainConstants:
    """Calibration constants of a type-2 gain.

    ``L1`` bounds the slope of ``psi(t^2)`` in ``t``, ``L2`` the slope of
    ``psi'`` on [0, 1), ``c0 = -psi'(0)``, and ``L3 = max(L2 + c0, L1 / 2)``
    is the Lipschitz constant of ``psi`` itself.
    """

    L1: float
    L2: float
    L3: float
    c0: float


@dataclass(frozen=True)
class GainSpec:
    """One gain function with its derivatives and classification metadata.

    ``fourier(sigma, xi)`` is the closed-form transform int p_sigma(t) cos(xi t) dt
    where one is known.  A gain without ``generating_deriv`` is a piecewise-constant box.
    """

    name: str
    generating_fn: ArrayFn
    generating_deriv: Optional[ArrayFn]
    representing_fn: Optional[ArrayFn]
    representing_deriv: Optional[ArrayFn]
    type_alpha: Optional[tuple[float, float]]
    type_exact: bool
    calibration: str  # 'none' | 'strong' | 'exact'
    constants: Optional[GainConstants]
    support_radius: float  # in units of sigma; inf for unbounded support
    loss_scale: float
    loss_sigma_exponent: int  # exponent a in loss = scale * sigma^a * drop
    peak_value: float  # phi(0)
    formula: str
    loss_name: str
    loss_formula: str
    sigma_normalized: bool = False
    fourier: Optional[Callable[[float, np.ndarray], np.ndarray]] = None

    def __post_init__(self) -> None:
        if self.calibration not in ("none", "strong", "exact"):
            raise InvalidParameterError(f"unknown calibration {self.calibration!r}")
        if self.calibration != "none" and self.representing_fn is None:
            raise InvalidParameterError(
                f"{self.name}: calibrated gains need a representing function"
            )


def lipschitz_L3(L1: float, L2: float, c0: float) -> float:
    """Lipschitz constant of the representing function: max(L2 + c0, L1 / 2)."""
    for label, v in (("L1", L1), ("L2", L2), ("c0", c0)):
        if not math.isfinite(v) or v < 0:
            raise InvalidParameterError(f"{label} must be finite and non-negative, got {v}")
    if c0 <= 0:
        raise InvalidParameterError(f"c0 must be positive, got {c0}")
    return max(L2 + c0, L1 / 2.0)


def _constants(L1: float, L2: float, c0: float) -> GainConstants:
    return GainConstants(L1=L1, L2=L2, L3=lipschitz_L3(L1, L2, c0), c0=c0)


def _check_sigma(sigma: float) -> float:
    if not (isinstance(sigma, (int, float, np.floating)) and math.isfinite(float(sigma))):
        raise InvalidParameterError(f"sigma must be a finite number, got {sigma!r}")
    if sigma <= 0:
        raise InvalidParameterError(f"sigma must be positive, got {sigma}")
    return float(sigma)


def _as_points(t, label: str = "t") -> tuple[np.ndarray, bool]:
    arr = np.asarray(t, dtype=float)
    if not np.all(np.isfinite(arr)):
        raise InvalidInputError(f"{label} must be finite")
    return arr, arr.ndim == 0


def eval_gain(spec: GainSpec, sigma: float, t) -> float | np.ndarray:
    """Evaluate ``p_sigma(t)``; exactly zero outside the support."""
    sigma = _check_sigma(sigma)
    arr, scalar = _as_points(t)
    vals = spec.generating_fn(arr / sigma)
    if spec.sigma_normalized:
        vals = vals / sigma
    return float(vals) if scalar else vals


def eval_gain_derivative(spec: GainSpec, sigma: float, t) -> float | np.ndarray:
    """Evaluate ``d/dt p_sigma(t)``, taking right one-sided values at kinks."""
    sigma = _check_sigma(sigma)
    if spec.generating_deriv is None:
        raise UnsupportedOperationError(
            f"{spec.name}: derivative is zero almost everywhere and not useful"
        )
    arr, scalar = _as_points(t)
    vals = spec.generating_deriv(arr / sigma) / sigma
    if spec.sigma_normalized:
        vals = vals / sigma
    return float(vals) if scalar else vals


def loss_from_gain(spec: GainSpec, sigma: float, t) -> float | np.ndarray:
    """Bounded loss dual of the gain: ``scale * sigma^a * (p_sigma(0) - p_sigma(t))``."""
    sigma = _check_sigma(sigma)
    arr, scalar = _as_points(t)
    peak = spec.peak_value / sigma if spec.sigma_normalized else spec.peak_value
    drop = peak - eval_gain(spec, sigma, arr)
    vals = spec.loss_scale * sigma**spec.loss_sigma_exponent * drop
    return float(vals) if scalar else vals


def irls_weight(spec: GainSpec, sigma: float, r) -> float | np.ndarray:
    """Half-quadratic weight ``w(r) = -psi'(r^2 / sigma^2)``; zero beyond support."""
    if spec.calibration == "none" or spec.representing_deriv is None:
        raise UnsupportedOperationError(
            f"{spec.name}: half-quadratic weights need a calibrated representing function"
        )
    sigma = _check_sigma(sigma)
    arr, scalar = _as_points(r, "r")
    u = (arr / sigma) ** 2
    vals = -spec.representing_deriv(u)
    if math.isfinite(spec.support_radius):
        vals = np.where(u < spec.support_radius**2, vals, 0.0)
    vals = np.maximum(vals, 0.0)
    return float(vals) if scalar else vals


def _grid_sup(fn: ArrayFn, lo: float, hi: float, n: int = _CONSTANT_GRID) -> float:
    grid = np.linspace(lo, hi, n)
    vals = np.abs(fn(grid))
    vals = vals[np.isfinite(vals)]
    return float(vals.max())


def _searched_constants(
    generating_deriv: ArrayFn,
    representing_deriv: ArrayFn,
    c0: float,
    support_radius: float,
    search_halfwidth: float = 10.0,
) -> GainConstants:
    """Supremum-search constants for gains the reference table does not list.

    L1 comes from the generating derivative (``|d/dt psi(t^2)| = |phi'(t)|``),
    L2 from differencing the analytic ``psi'`` on [0, 1).  Both carry a 1%
    declared slack so finer verification grids stay below them.
    """
    hi = support_radius if math.isfinite(support_radius) else search_halfwidth
    L1 = _grid_sup(generating_deriv, 0.0, hi) * _DECLARED_SLACK
    # psi' only needs a Lipschitz bound on [0, 1); keep the stencil strictly
    # inside so a psi' jump at the support edge cannot leak in.
    h = 1e-6
    u = np.linspace(h, 1.0 - 2.0 * h, _CONSTANT_GRID)
    second = (representing_deriv(u + h) - representing_deriv(u - h)) / (2.0 * h)
    L2 = float(np.abs(second[np.isfinite(second)]).max()) * _DECLARED_SLACK
    return _constants(L1, L2, c0)


def _signp(s: np.ndarray) -> np.ndarray:
    # Right one-sided convention: sign(0) := +1.
    return np.where(s >= 0.0, 1.0, -1.0)


def generalized_tukey(m: int, n: int) -> GainSpec:
    """Gain ``(1 - |s|^m)^n`` on [-1, 1]; (2,3) is the triweight, (2,1) the
    Epanechnikov generating function."""
    if not (isinstance(m, (int, np.integer)) and isinstance(n, (int, np.integer))):
        raise InvalidParameterError("power indices m, n must be integers")
    if m < 1 or n < 1:
        raise InvalidParameterError(f"power indices must satisfy m >= 1, n >= 1, got ({m}, {n})")
    m, n = int(m), int(n)

    def phi(s: np.ndarray) -> np.ndarray:
        a = np.abs(s)
        return np.where(a <= 1.0, (1.0 - np.minimum(a, 1.0) ** m) ** n, 0.0)

    def dphi(s: np.ndarray) -> np.ndarray:
        a = np.abs(s)
        inside = (s >= -1.0) & (s < 1.0)
        core = -n * m * a ** (m - 1) * (1.0 - np.minimum(a, 1.0) ** m) ** (n - 1)
        return np.where(inside, core * _signp(s), 0.0)

    if m == 2:
        def psi(u: np.ndarray) -> np.ndarray:
            return np.where(u <= 1.0, (1.0 - np.minimum(u, 1.0)) ** n, 0.0)

        def dpsi(u: np.ndarray) -> np.ndarray:
            return np.where(u < 1.0, -n * (1.0 - np.minimum(u, 1.0)) ** (n - 1), 0.0)

        calibration = "exact" if n == 1 else "strong"
        constants = _searched_constants(dphi, dpsi, float(n), 1.0)
    else:
        psi = dpsi = None
        calibration = "none"
        constants = None

    return GainSpec(
        name=f"generalized_tukey_{m}_{n}",
        generating_fn=phi,
        generating_deriv=dphi,
        representing_fn=psi,
        representing_deriv=dpsi,
        type_alpha=(float(m), float(n)),
        type_exact=(n == 1),
        calibration=calibration,
        constants=constants,
        support_radius=1.0,
        loss_scale=1.0,
        loss_sigma_exponent=0,
        peak_value=1.0,
        formula=f"(1 - |t/s|^{m})^{n} for |t| <= s, else 0",
        loss_name=f"generalized Tukey loss (m={m}, n={n})",
        loss_formula=f"1 - (1 - |t/s|^{m})^{n} for |t| <= s, else 1",
    )


def _triweight() -> GainSpec:
    def phi(s):
        s2 = np.minimum(s * s, 1.0)
        return np.where(np.abs(s) <= 1.0, (1.0 - s2) ** 3, 0.0)

    def dphi(s):
        inside = (s >= -1.0) & (s < 1.0)
        return np.where(inside, -6.0 * s * (1.0 - np.minimum(s * s, 1.0)) ** 2, 0.0)

    def psi(u):
        return np.where(u <= 1.0, (1.0 - np.minimum(u, 1.0)) ** 3, 0.0)

    def dpsi(u):
        return np.where(u < 1.0, -3.0 * (1.0 - np.minimum(u, 1.0)) ** 2, 0.0)

    return GainSpec(
        name="triweight",
        generating_fn=phi,
        generating_deriv=dphi,
        representing_fn=psi,
        representing_deriv=dpsi,
        type_alpha=(2.0, 3.0),
        type_exact=False,
        calibration="strong",
        constants=_constants(96.0 / (5.0 * math.sqrt(5.0)), 6.0, 3.0),
        support_radius=1.0,
        loss_scale=1.0 / 6.0,
        loss_sigma_exponent=2,
        peak_value=1.0,
        formula="(1 - t^2/s^2)^3 for |t| <= s, else 0",
        loss_name="Tukey biweight loss",
        loss_formula="(s^2/6) * (1 - (1 - t^2/s^2)^3) for |t| <= s, else s^2/6",
    )


def _epanechnikov() -> GainSpec:
    def phi(s):
        return np.where(np.abs(s) <= 1.0, 1.0 - np.minimum(s * s, 1.0), 0.0)

    def dphi(s):
        return np.where((s >= -1.0) & (s < 1.0), -2.0 * s, 0.0)

    def psi(u):
        return np.where(u <= 1.0, 1.0 - np.minimum(u, 1.0), 0.0)

    def dpsi(u):
        return np.where(u < 1.0, -1.0, 0.0)

    return GainSpec(
        name="epanechnikov",
        generating_fn=phi,
        generating_deriv=dphi,
        representing_fn=psi,
        representing_deriv=dpsi,
        type_alpha=(2.0, 1.0),
        type_exact=True,
        calibration="exact",
        constants=_constants(2.0, 0.0, 1.0),
        support_radius=1.0,
        loss_scale=1.0,
        loss_sigma_exponent=2,
        peak_value=1.0,
        formula="1 - t^2/s^2 for |t| <= s, else 0",
        loss_name="truncated square loss",
        loss_formula="min(t^2, s^2)",
    )


def _cauchy() -> GainSpec:
    def phi(s):
        return 1.0 / (1.0 + s * s)

    def dphi(s):
        return -2.0 * s / (1.0 + s * s) ** 2

    def psi(u):
        return 1.0 / (1.0 + u)

    def dpsi(u):
        return -1.0 / (1.0 + u) ** 2

    return GainSpec(
        name="cauchy",
        generating_fn=phi,
        generating_deriv=dphi,
        representing_fn=psi,
        representing_deriv=dpsi,
        type_alpha=(2.0, 1.0),
        type_exact=False,
        calibration="strong",
        constants=_constants(3.0 * math.sqrt(3.0) / 8.0, 2.0, 1.0),
        support_radius=math.inf,
        loss_scale=1.0,
        loss_sigma_exponent=0,
        peak_value=1.0,
        formula="s^2 / (s^2 + t^2)",
        loss_name="Geman-McClure loss",
        loss_formula="t^2 / (s^2 + t^2)",
        fourier=lambda sigma, xi: math.pi * sigma * np.exp(-sigma * np.abs(xi)),
    )


def _gaussian() -> GainSpec:
    # Half-exponent convention: psi(u) = exp(-u/2), matching the tabulated
    # constants L1 = e^{-1/2}, L2 = 1/4.  The exp(-t^2/sigma^2) variant is
    # available as a one-component mixture_gain.
    def phi(s):
        return np.exp(-0.5 * s * s)

    def dphi(s):
        return -s * np.exp(-0.5 * s * s)

    def psi(u):
        return np.exp(-0.5 * u)

    def dpsi(u):
        return -0.5 * np.exp(-0.5 * u)

    return GainSpec(
        name="gaussian",
        generating_fn=phi,
        generating_deriv=dphi,
        representing_fn=psi,
        representing_deriv=dpsi,
        type_alpha=(2.0, 0.5),
        type_exact=False,
        calibration="strong",
        constants=_constants(math.exp(-0.5), 0.25, 0.5),
        support_radius=math.inf,
        loss_scale=1.0,
        loss_sigma_exponent=2,
        peak_value=1.0,
        formula="exp(-t^2 / (2 s^2))",
        loss_name="exponential squared loss",
        loss_formula="s^2 * (1 - exp(-t^2 / (2 s^2)))",
        fourier=lambda sigma, xi: (
            sigma * math.sqrt(2.0 * math.pi) * np.exp(-0.5 * (sigma * xi) ** 2)
        ),
    )


def _laplace() -> GainSpec:
    def phi(s):
        return np.exp(-np.abs(s))

    def dphi(s):
        # Right one-sided derivative at the kink t = 0.
        return np.where(s >= 0.0, -np.exp(-s), np.exp(s))

    return GainSpec(
        name="laplace",
        generating_fn=phi,
        generating_deriv=dphi,
        representing_fn=None,
        representing_deriv=None,
        type_alpha=(1.0, 1.0),
        type_exact=False,
        calibration="none",
        constants=None,
        support_radius=math.inf,
        loss_scale=1.0,
        loss_sigma_exponent=0,
        peak_value=1.0,
        formula="exp(-|t| / s)",
        loss_name="exponential absolute loss",
        loss_formula="1 - exp(-|t| / s)",
        fourier=lambda sigma, xi: 2.0 * sigma / (1.0 + (sigma * xi) ** 2),
    )


def _cosine() -> GainSpec:
    half_pi = math.pi / 2.0

    def phi(s):
        return np.where(np.abs(s) <= 1.0, np.cos(half_pi * np.clip(s, -1.0, 1.0)), 0.0)

    def dphi(s):
        inside = (s >= -1.0) & (s < 1.0)
        return np.where(inside, -half_pi * np.sin(half_pi * np.clip(s, -1.0, 1.0)), 0.0)

    def psi(u):
        return np.where(u <= 1.0, np.cos(half_pi * np.sqrt(np.minimum(u, 1.0))), 0.0)

    def dpsi(u):
        u = np.asarray(u, dtype=float)
        root = np.sqrt(np.clip(u, 0.0, 1.0))
        core = -(half_pi / 2.0) * np.sin(half_pi * root) / np.maximum(root, 1e-300)
        # -psi'(0) = pi^2 / 8 as the removable-singularity limit.
        core = np.where(root < 1e-8, -math.pi**2 / 8.0, core)
        return np.where(u < 1.0, core, 0.0)

    return GainSpec(
        name="cosine",
        generating_fn=phi,
        generating_deriv=dphi,
        representing_fn=psi,
        representing_deriv=dpsi,
        type_alpha=(2.0, math.pi**2 / 8.0),
        type_exact=False,
        calibration="strong",
        constants=_constants(math.pi, math.pi**4 / 192.0, math.pi**2 / 8.0),
        support_radius=1.0,
        loss_scale=1.0,
        loss_sigma_exponent=2,
        peak_value=1.0,
        formula="cos(pi t / (2 s)) for |t| <= s, else 0",
        loss_name="Andrews loss",
        loss_formula="s^2 * (1 - cos(pi t / (2 s))) for |t| <= s, else s^2",
    )


def _uniform() -> GainSpec:
    def phi(s):
        return np.where(np.abs(s) <= 1.0, 0.5, 0.0)

    return GainSpec(
        name="uniform",
        generating_fn=phi,
        generating_deriv=None,
        representing_fn=None,
        representing_deriv=None,
        type_alpha=(0.0, 0.0),
        type_exact=True,
        calibration="none",
        constants=None,
        support_radius=1.0,
        loss_scale=2.0,
        loss_sigma_exponent=1,
        peak_value=0.5,
        formula="1 / (2 s) for |t| <= s, else 0",
        loss_name="box loss",
        loss_formula="0 for |t| <= s, else 1",
        sigma_normalized=True,
    )


def _rename(spec: GainSpec, name: str, loss_name: str, loss_formula: str) -> GainSpec:
    return replace(spec, name=name, loss_name=loss_name, loss_formula=loss_formula)


@lru_cache(maxsize=1)
def _base_specs() -> tuple[GainSpec, ...]:
    return (
        _triweight(),
        _epanechnikov(),
        _cauchy(),
        _gaussian(),
        _laplace(),
        _cosine(),
        _uniform(),
        _rename(
            generalized_tukey(3, 3),
            "tricube",
            "tricube loss",
            "1 - (1 - |t/s|^3)^3 for |t| <= s, else 1",
        ),
        _rename(
            generalized_tukey(2, 2),
            "quartic",
            "quartic loss",
            "1 - (1 - t^2/s^2)^2 for |t| <= s, else 1",
        ),
        _rename(
            replace(generalized_tukey(1, 1), loss_sigma_exponent=1),
            "triangular",
            "truncated absolute deviation loss",
            "|t| for |t| <= s, else s",
        ),
    )


def catalog(tukey_powers: Sequence[tuple[int, int]] = ()) -> dict[str, GainSpec]:
    """All built-in gains by name, plus optional generalized-Tukey entries.

    ``tukey_powers`` entries ``(m, n)`` append ``generalized_tukey_m_n`` specs;
    ``m < 1`` or ``n < 1`` raises an invalid-parameter error.  Specs are
    immutable and shared across calls; the returned mapping is fresh.
    """
    specs = list(_base_specs())
    for m, n in tukey_powers:
        specs.append(generalized_tukey(m, n))
    return {s.name: s for s in specs}


def mixture_gain(components: Sequence[tuple[float, float]]) -> GainSpec:
    """Convex combination of squared-exponential bumps ``sum_j w_j exp(-t^2/s_j^2)``.

    The result is parameterized so that evaluating at sigma = 1 gives the
    mixture directly; a single component (1, s1) is the plain exp(-t^2/s1^2)
    bump at scale s1.
    """
    comps = [(float(w), float(s)) for w, s in components]
    if not comps:
        raise InvalidParameterError("mixture needs at least one component")
    if any(w <= 0 for w, _ in comps):
        raise InvalidParameterError("mixture weights must be strictly positive")
    if any(s <= 0 for _, s in comps):
        raise InvalidParameterError("mixture component scales must be positive")
    total = sum(w for w, _ in comps)
    if abs(total - 1.0) > 1e-12:
        raise InvalidParameterError(f"mixture weights must sum to 1, got {total}")

    w = np.array([c[0] for c in comps])
    inv_s2 = np.array([1.0 / c[1] ** 2 for c in comps])

    def phi(s):
        s = np.asarray(s, dtype=float)
        return np.exp(-np.multiply.outer(s * s, inv_s2)) @ w

    def dphi(s):
        s = np.asarray(s, dtype=float)
        e = np.exp(-np.multiply.outer(s * s, inv_s2))
        return -2.0 * s * (e @ (w * inv_s2))

    def psi(u):
        u = np.asarray(u, dtype=float)
        return np.exp(-np.multiply.outer(u, inv_s2)) @ w

    def dpsi(u):
        u = np.asarray(u, dtype=float)
        return -(np.exp(-np.multiply.outer(u, inv_s2)) @ (w * inv_s2))

    def fourier(sigma, xi):
        out = np.zeros_like(xi, dtype=float)
        for wj, sj in comps:
            out += wj * sj * sigma * math.sqrt(math.pi) * np.exp(-0.25 * (sj * sigma * xi) ** 2)
        return out

    c0 = float(np.sum(w * inv_s2))
    widest = max(c[1] for c in comps)
    label = ", ".join(f"({wi:g}, {1.0 / math.sqrt(si):g})" for wi, si in zip(w, inv_s2))
    return GainSpec(
        name=f"mixture[{label}]",
        generating_fn=phi,
        generating_deriv=dphi,
        representing_fn=psi,
        representing_deriv=dpsi,
        type_alpha=(2.0, c0),
        type_exact=False,
        calibration="strong",
        constants=_searched_constants(dphi, dpsi, c0, math.inf, search_halfwidth=8.0 * widest),
        support_radius=math.inf,
        loss_scale=1.0,
        loss_sigma_exponent=0,
        peak_value=1.0,
        formula="sum_j w_j exp(-t^2 / s_j^2) (evaluate at sigma = 1)",
        loss_name="mixture loss",
        loss_formula="1 - sum_j w_j exp(-t^2 / s_j^2)",
        fourier=fourier,
    )
