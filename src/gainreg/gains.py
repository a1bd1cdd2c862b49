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
# s -> (phi(s), half-quadratic weights) and s -> (phi(s), a function finishing phi'(s)).
WeightKernel = Callable[[np.ndarray], tuple[np.ndarray, np.ndarray]]
SlopeKernel = Callable[[np.ndarray], tuple[np.ndarray, Callable[[], np.ndarray]]]

# Grid size for the supremum searches that back non-tabulated constants.
_CONSTANT_GRID = 100_000
# Grid points per block of a supremum sweep: a stencil's temporaries (128 KiB each)
# stay in cache, and no call allocates whole-grid arrays that must be page-faulted in.
_SUP_BLOCK = 2**14
# Declared constants from searches carry this multiplicative slack so that a
# later, finer estimate cannot legitimately exceed them; certification allows
# an estimate the same headroom over any declared constant.
DECLARED_HEADROOM = 1.01
# Scales and scaled points stay where every catalog gain's arithmetic is finite:
# sigma^2 and 1 / sigma, and (t / sigma)^4 in the Cauchy derivative.
_SIGMA_RANGE = (1e-100, 1e100)
_SCALED_MAX = 1e50


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
    Its peak is ``eval_gain(spec, sigma, 0.0)``.

    The fused kernels make the fit stages' one pass over the scaled residuals s.
    ``weight_kernel(s)`` returns phi(s) and the half-quadratic weights, bit-equal to
    ``generating_fn(s)`` and ``-psi'(s**2)`` clamped to 0 beyond the support (what
    ``irls_weight`` gives).  ``slope_kernel(s)`` returns phi(s) and a function of no
    arguments that finishes phi'(s), bit-equal to ``generating_deriv(s)``, so a line
    search finishes the accepted candidate's slope only.  A kernel is called only where
    the functions it fuses exist, and a spec without one gets it assembled from those
    functions by ``gain_weigher`` or ``gain_sloper``.  ``replace`` carries a kernel over,
    so a spec whose phi, phi' or psi' is replaced should drop the kernels that fuse it.
    """

    name: str
    generating_fn: ArrayFn
    generating_deriv: Optional[ArrayFn]
    representing_fn: Optional[ArrayFn]
    representing_deriv: Optional[ArrayFn]
    type_alpha: Optional[tuple[float, float]]
    type_exact: bool
    constants: Optional[GainConstants]
    support_radius: float  # in units of sigma; inf for unbounded support
    loss_scale: float
    loss_sigma_exponent: int  # exponent a in loss = scale * sigma^a * drop
    formula: str
    loss_name: str
    loss_formula: str
    sigma_normalized: bool = False
    fourier: Optional[Callable[[float, np.ndarray], np.ndarray]] = None
    weight_kernel: Optional[WeightKernel] = None
    slope_kernel: Optional[SlopeKernel] = None

    def __post_init__(self) -> None:
        if self.representing_fn is not None and (
            self.representing_deriv is None or self.constants is None
        ):
            raise InvalidParameterError(
                f"{self.name}: a representing function needs its derivative and constants"
            )

    @property
    def calibration(self) -> str:
        """'none' without a representing function, else 'exact' or 'strong' by ``type_exact``."""
        if self.representing_fn is None:
            return "none"
        return "exact" if self.type_exact else "strong"


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
    lo, hi = _SIGMA_RANGE
    if not (lo <= sigma <= hi):
        raise InvalidParameterError(f"sigma must lie in [{lo:g}, {hi:g}], got {sigma}")
    return float(sigma)


def _as_points(t, sigma: float, label: str = "t") -> tuple[np.ndarray, bool]:
    arr = np.asarray(t, dtype=float)
    # The comparison also fails on nan and inf.
    if arr.size and not np.abs(arr).max() <= _SCALED_MAX * sigma:
        raise InvalidInputError(f"{label} must be finite, within {_SCALED_MAX:g} sigma of 0")
    return arr, arr.ndim == 0


def eval_gain(spec: GainSpec, sigma: float, t) -> float | np.ndarray:
    """Evaluate ``p_sigma(t)``; exactly zero outside the support."""
    sigma = _check_sigma(sigma)
    arr, scalar = _as_points(t, sigma)
    vals = spec.generating_fn(arr / sigma)
    if spec.sigma_normalized:
        vals = vals / sigma
    return float(vals) if scalar else vals


def eval_gain_derivative(spec: GainSpec, sigma: float, t) -> float | np.ndarray:
    """Evaluate ``d/dt p_sigma(t)``, taking right one-sided values at kinks."""
    sigma = _check_sigma(sigma)
    _check_differentiable(spec)
    arr, scalar = _as_points(t, sigma)
    vals = spec.generating_deriv(arr / sigma) / sigma
    if spec.sigma_normalized:
        vals = vals / sigma
    return float(vals) if scalar else vals


def loss_from_gain(spec: GainSpec, sigma: float, t) -> float | np.ndarray:
    """Bounded loss dual of the gain: ``scale * sigma^a * (p_sigma(0) - p_sigma(t))``."""
    drop = eval_gain(spec, sigma, 0.0) - eval_gain(spec, sigma, t)  # these check sigma and t
    return spec.loss_scale * float(sigma) ** spec.loss_sigma_exponent * drop


def irls_weight(spec: GainSpec, sigma: float, r) -> float | np.ndarray:
    """Half-quadratic weight ``w(r) = -psi'(r^2 / sigma^2)``; zero beyond support."""
    _check_weighted(spec)
    sigma = _check_sigma(sigma)
    arr, scalar = _as_points(r, sigma, "r")
    vals = _weights(spec, (arr / sigma) ** 2)
    return float(vals) if scalar else vals


def gain_weigher(
    spec: GainSpec, sigma: float
) -> Callable[[np.ndarray], tuple[float, np.ndarray]]:
    """The mean gain and half-quadratic weights of a residual vector, in one pass.

    The spec and sigma are checked here, once, and each call of the returned function
    checks only its residual range and runs ``spec.weight_kernel`` once.
    ``gain_weigher(spec, sigma)(r)`` is bit-equal to ``float(np.mean(eval_gain(spec,
    sigma, r)))`` and ``irls_weight(spec, sigma, r)``, with their errors; an out-of-range
    residual is named as ``eval_gain`` names it.
    """
    _check_weighted(spec)
    sigma = _check_sigma(sigma)
    kernel = spec.weight_kernel or (lambda s: (spec.generating_fn(s), _weights(spec, s**2)))

    def weigh(r) -> tuple[float, np.ndarray]:
        arr, _ = _as_points(r, sigma)
        raw, weights = kernel(arr / sigma)
        return _mean(spec, sigma, raw), weights

    return weigh


def gain_sloper(
    spec: GainSpec, sigma: float
) -> Callable[[np.ndarray], tuple[float, Callable[[], np.ndarray]]]:
    """The mean gain of a residual vector and a function that finishes its slopes, in one pass.

    The spec and sigma are checked here, once, and each call of the returned function
    checks only its residual range and runs ``spec.slope_kernel`` once.
    ``gain, slope = gain_sloper(spec, sigma)(r)`` gives ``gain`` bit-equal to
    ``float(np.mean(eval_gain(spec, sigma, r)))`` and ``slope()`` bit-equal to
    ``eval_gain_derivative(spec, sigma, r)``, with their errors.
    """
    sigma = _check_sigma(sigma)
    _check_differentiable(spec)
    kernel = spec.slope_kernel or (
        lambda s: (spec.generating_fn(s), lambda: spec.generating_deriv(s))
    )

    def evaluate(r) -> tuple[float, Callable[[], np.ndarray]]:
        arr, _ = _as_points(r, sigma)
        raw, finish = kernel(arr / sigma)

        def slope() -> np.ndarray:
            vals = finish() / sigma
            return vals / sigma if spec.sigma_normalized else vals

        return _mean(spec, sigma, raw), slope

    return evaluate


def _mean(spec: GainSpec, sigma: float, raw: np.ndarray) -> float:
    """The mean of p_sigma from phi's values: ``sum / size``, bit-equal to ``np.mean``."""
    vals = raw / sigma if spec.sigma_normalized else raw
    return float(vals.sum() / vals.size)


def _check_differentiable(spec: GainSpec) -> None:
    if spec.generating_deriv is None:
        raise UnsupportedOperationError(
            f"{spec.name}: derivative is zero almost everywhere and not useful"
        )


def _check_weighted(spec: GainSpec) -> None:
    if spec.representing_deriv is None:
        raise UnsupportedOperationError(
            f"{spec.name}: half-quadratic weights need a calibrated representing function"
        )


def _weights(spec: GainSpec, u: np.ndarray) -> np.ndarray:
    vals = -spec.representing_deriv(u)
    if math.isfinite(spec.support_radius):
        vals = np.where(u < spec.support_radius**2, vals, 0.0)
    return np.maximum(vals, 0.0)


def grid_sup(stencil: ArrayFn, grid: np.ndarray) -> float:
    """The largest finite ``|stencil(x)|`` over ``grid``, swept in blocks of ``_SUP_BLOCK`` points.

    Each block is a slice of ``grid``, so the stencil sees the grid's own points, and a
    maximum is exact, so the result is bit-equal to one whole-grid sweep.  Non-finite
    values are skipped; when no value is finite this raises ``ValueError``, as the
    maximum of an empty array does.
    """
    sup = -math.inf
    for i in range(0, grid.size, _SUP_BLOCK):
        vals = np.abs(stencil(grid[i : i + _SUP_BLOCK]))
        sup = max(sup, float(np.max(vals, where=np.isfinite(vals), initial=-math.inf)))
    if sup < 0.0:
        raise ValueError("no finite value on the grid")
    return sup


def _searched_constants(
    generating_deriv: ArrayFn,
    representing_deriv: ArrayFn,
    c0: float,
    hi: float,
) -> GainConstants:
    """Supremum-search constants for gains the reference table does not list.

    L1 comes from the generating derivative (``|d/dt psi(t^2)| = |phi'(t)|``) on
    [0, hi], L2 from differencing the analytic ``psi'`` on [0, 1).  Both carry a 1%
    declared slack so finer verification grids stay below them.
    """
    L1 = grid_sup(generating_deriv, np.linspace(0.0, hi, _CONSTANT_GRID)) * DECLARED_HEADROOM
    # psi' only needs a Lipschitz bound on [0, 1); keep the stencil strictly
    # inside so a psi' jump at the support edge cannot leak in.
    h = 1e-6

    def second(u: np.ndarray) -> np.ndarray:
        return (representing_deriv(u + h) - representing_deriv(u - h)) / (2.0 * h)

    L2 = grid_sup(second, np.linspace(h, 1.0 - 2.0 * h, _CONSTANT_GRID)) * DECLARED_HEADROOM
    return _constants(L1, L2, c0)


def _phi_from_psi(psi: ArrayFn) -> ArrayFn:
    """The generating function phi(s) = psi(s * s).  phi' stays written out: 2 s psi'(s^2)
    rounds differently, and at s = -1 the right-sided convention differs from psi'(1)."""
    return lambda s: psi(s * s)


def _signp(s: np.ndarray) -> np.ndarray:
    # Right one-sided convention: sign(0) := +1.
    return np.where(s >= 0.0, 1.0, -1.0)


def generalized_tukey(m: int, n: int) -> GainSpec:
    """Gain ``(1 - |s|^m)^n`` on [-1, 1]; (2,3) is the triweight, (2,1) the
    Epanechnikov generating function."""
    return _tukey(m, n, None)


def _tukey(m: int, n: int, tabulated: Optional[GainConstants]) -> GainSpec:
    # Tabulated constants of an m = 2 member spare it the supremum search.
    if not (isinstance(m, (int, np.integer)) and isinstance(n, (int, np.integer))):
        raise InvalidParameterError("power indices m, n must be integers")
    if m < 1 or n < 1:
        raise InvalidParameterError(f"power indices must satisfy m >= 1, n >= 1, got ({m}, {n})")
    m, n = int(m), int(n)

    def slope(s: np.ndarray, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        inside = (s >= -1.0) & (s < 1.0)
        return np.where(inside, -n * m * a ** (m - 1) * b ** (n - 1) * _signp(s), 0.0)

    def dphi(s: np.ndarray) -> np.ndarray:
        a = np.abs(s)
        return slope(s, a, 1.0 - np.minimum(a, 1.0) ** m)

    def slope_kernel(s: np.ndarray) -> tuple[np.ndarray, Callable[[], np.ndarray]]:
        # b is 0 from the support edge on, and so is b ** n (n >= 1): phi needs no mask.
        # For m = 2, min(|s|, 1) ** 2 rounds as min(s * s, 1), so b ** n is psi(s * s).
        a = np.abs(s)
        b = 1.0 - np.minimum(a, 1.0) ** m
        return b**n, lambda: slope(s, a, b)

    if m == 2:
        def psi(u: np.ndarray) -> np.ndarray:
            return np.where(u <= 1.0, (1.0 - np.minimum(u, 1.0)) ** n, 0.0)

        def dpsi(u: np.ndarray) -> np.ndarray:
            return np.where(u < 1.0, -n * (1.0 - np.minimum(u, 1.0)) ** (n - 1), 0.0)

        def weight_kernel(s: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
            # c is 0 from the support edge on, so c ** n and, for n >= 2, n c^(n-1) need
            # no mask; -(-n x) is n x, never negative, so the clamp changes nothing.
            c = 1.0 - np.minimum(s * s, 1.0)
            return c**n, n * c ** (n - 1) if n > 1 else np.where(c > 0.0, 1.0, 0.0)

        phi = _phi_from_psi(psi)
        constants = tabulated or _searched_constants(dphi, dpsi, float(n), 1.0)
    else:
        def phi(s: np.ndarray) -> np.ndarray:
            a = np.abs(s)
            return np.where(a <= 1.0, (1.0 - np.minimum(a, 1.0) ** m) ** n, 0.0)

        psi = dpsi = constants = weight_kernel = None

    return GainSpec(
        name=f"generalized_tukey_{m}_{n}",
        generating_fn=phi,
        generating_deriv=dphi,
        representing_fn=psi,
        representing_deriv=dpsi,
        type_alpha=(float(m), float(n)),
        type_exact=(n == 1),
        constants=constants,
        support_radius=1.0,
        loss_scale=1.0,
        loss_sigma_exponent=0,
        formula=f"(1 - |t/s|^{m})^{n} for |t| <= s, else 0",
        loss_name=f"generalized Tukey loss (m={m}, n={n})",
        loss_formula=f"1 - (1 - |t/s|^{m})^{n} for |t| <= s, else 1",
        weight_kernel=weight_kernel,
        slope_kernel=slope_kernel,
    )


def _cauchy() -> GainSpec:
    def dphi(s):
        return -2.0 * s / (1.0 + s * s) ** 2

    def psi(u):
        return 1.0 / (1.0 + u)

    def dpsi(u):
        return -1.0 / (1.0 + u) ** 2

    def weight_kernel(s):
        d = 1.0 + s * s
        return 1.0 / d, 1.0 / d**2  # -(-1 / d^2) is positive: the clamp changes nothing

    return GainSpec(
        name="cauchy",
        generating_fn=_phi_from_psi(psi),
        generating_deriv=dphi,
        representing_fn=psi,
        representing_deriv=dpsi,
        type_alpha=(2.0, 1.0),
        type_exact=False,
        constants=_constants(3.0 * math.sqrt(3.0) / 8.0, 2.0, 1.0),
        support_radius=math.inf,
        loss_scale=1.0,
        loss_sigma_exponent=0,
        formula="s^2 / (s^2 + t^2)",
        loss_name="Geman-McClure loss",
        loss_formula="t^2 / (s^2 + t^2)",
        fourier=lambda sigma, xi: math.pi * sigma * np.exp(-sigma * np.abs(xi)),
        weight_kernel=weight_kernel,
    )


def _gaussian() -> GainSpec:
    # Half-exponent convention: psi(u) = exp(-u/2), matching the tabulated
    # constants L1 = e^{-1/2}, L2 = 1/4.  The exp(-t^2/sigma^2) variant is
    # available as a one-component mixture_gain.
    def dphi(s):
        return -s * np.exp(-0.5 * s * s)

    def psi(u):
        return np.exp(-0.5 * u)

    def dpsi(u):
        return -0.5 * np.exp(-0.5 * u)

    def weight_kernel(s):
        # -psi'(u) = psi(u) / 2: one exp, not two; exp / 2 is never negative.
        vals = psi(s * s)
        return vals, 0.5 * vals

    return GainSpec(
        name="gaussian",
        generating_fn=_phi_from_psi(psi),
        generating_deriv=dphi,
        representing_fn=psi,
        representing_deriv=dpsi,
        type_alpha=(2.0, 0.5),
        type_exact=False,
        constants=_constants(math.exp(-0.5), 0.25, 0.5),
        support_radius=math.inf,
        loss_scale=1.0,
        loss_sigma_exponent=2,
        formula="exp(-t^2 / (2 s^2))",
        loss_name="exponential squared loss",
        loss_formula="s^2 * (1 - exp(-t^2 / (2 s^2)))",
        fourier=lambda sigma, xi: (
            sigma * math.sqrt(2.0 * math.pi) * np.exp(-0.5 * (sigma * xi) ** 2)
        ),
        weight_kernel=weight_kernel,
    )


def _laplace() -> GainSpec:
    def phi(s):
        return np.exp(-np.abs(s))

    def slope(s, e):
        # Right one-sided derivative at the kink t = 0; exp(-|s|) cannot overflow.
        return np.where(s >= 0.0, -e, e)

    def dphi(s):
        return slope(s, phi(s))

    def slope_kernel(s):
        e = phi(s)
        return e, lambda: slope(s, e)

    return GainSpec(
        name="laplace",
        generating_fn=phi,
        generating_deriv=dphi,
        representing_fn=None,
        representing_deriv=None,
        type_alpha=(1.0, 1.0),
        type_exact=False,
        constants=None,
        support_radius=math.inf,
        loss_scale=1.0,
        loss_sigma_exponent=0,
        formula="exp(-|t| / s)",
        loss_name="exponential absolute loss",
        loss_formula="1 - exp(-|t| / s)",
        fourier=lambda sigma, xi: 2.0 * sigma / (1.0 + (sigma * xi) ** 2),
        slope_kernel=slope_kernel,
    )


def _cosine() -> GainSpec:
    half_pi = math.pi / 2.0

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

    def weight_kernel(s):
        # u = s * s is never -0, so clipping it to [0, 1] is min(u, 1); the weight is
        # -psi'(u) with the sign taken inside, and it is positive below 1.
        u = s * s
        root = np.sqrt(np.minimum(u, 1.0))
        turn = half_pi * root
        core = (half_pi / 2.0) * np.sin(turn) / np.maximum(root, 1e-300)
        core = np.where(root < 1e-8, math.pi**2 / 8.0, core)
        return np.where(u <= 1.0, np.cos(turn), 0.0), np.where(u < 1.0, core, 0.0)

    return GainSpec(
        name="cosine",
        generating_fn=_phi_from_psi(psi),
        generating_deriv=dphi,
        representing_fn=psi,
        representing_deriv=dpsi,
        type_alpha=(2.0, math.pi**2 / 8.0),
        type_exact=False,
        constants=_constants(math.pi, math.pi**4 / 192.0, math.pi**2 / 8.0),
        support_radius=1.0,
        loss_scale=1.0,
        loss_sigma_exponent=2,
        formula="cos(pi t / (2 s)) for |t| <= s, else 0",
        loss_name="Andrews loss",
        loss_formula="s^2 * (1 - cos(pi t / (2 s))) for |t| <= s, else s^2",
        weight_kernel=weight_kernel,
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
        constants=None,
        support_radius=1.0,
        loss_scale=2.0,
        loss_sigma_exponent=1,
        formula="1 / (2 s) for |t| <= s, else 0",
        loss_name="box loss",
        loss_formula="0 for |t| <= s, else 1",
        sigma_normalized=True,
    )


def _rename(spec: GainSpec, name: str, loss_name: str, loss_formula: str, **changes) -> GainSpec:
    return replace(spec, name=name, loss_name=loss_name, loss_formula=loss_formula, **changes)


@lru_cache(maxsize=1)
def _base_specs() -> tuple[GainSpec, ...]:
    return (
        _rename(
            _tukey(2, 3, _constants(96.0 / (5.0 * math.sqrt(5.0)), 6.0, 3.0)),
            "triweight",
            "Tukey biweight loss",
            "(s^2/6) * (1 - (1 - t^2/s^2)^3) for |t| <= s, else s^2/6",
            loss_scale=1.0 / 6.0,
            loss_sigma_exponent=2,
            formula="(1 - t^2/s^2)^3 for |t| <= s, else 0",
        ),
        _rename(
            _tukey(2, 1, _constants(2.0, 0.0, 1.0)),
            "epanechnikov",
            "truncated square loss",
            "min(t^2, s^2)",
            loss_sigma_exponent=2,
            formula="1 - t^2/s^2 for |t| <= s, else 0",
        ),
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
            generalized_tukey(1, 1),
            "triangular",
            "truncated absolute deviation loss",
            "|t| for |t| <= s, else s",
            loss_sigma_exponent=1,
        ),
    )


def catalog() -> dict[str, GainSpec]:
    """All built-in gains by name.

    Specs are immutable and shared across calls; the returned mapping is fresh.
    """
    return {s.name: s for s in _base_specs()}


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
        generating_fn=_phi_from_psi(psi),
        generating_deriv=dphi,
        representing_fn=psi,
        representing_deriv=dpsi,
        type_alpha=(2.0, c0),
        type_exact=False,
        constants=_searched_constants(dphi, dpsi, c0, 8.0 * widest),
        support_radius=math.inf,
        loss_scale=1.0,
        loss_sigma_exponent=0,
        formula="sum_j w_j exp(-t^2 / s_j^2) (evaluate at sigma = 1)",
        loss_name="mixture loss",
        loss_formula="1 - sum_j w_j exp(-t^2 / s_j^2)",
        fourier=fourier,
    )
