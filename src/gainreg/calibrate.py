"""Numerical certification of the gain-function theory.

Every check here is quadrature- or grid-based and independent of the solver
path: axioms (integrability, unimodality), local expansion order, Lipschitz
constants, population gains for constant-offset location problems, the
scaled calibration gap and its decay in sigma, the integrated squared
density distance, and the two-sided quadratic sandwich for correctly
specified noise (with its Fourier lower constant).

Declared constants are treated as upper bounds: an estimate may fall below a
declared value but must not exceed it by more than 1%.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Optional, Sequence

import numpy as np

from .errors import (
    CertificationFailureError,
    InvalidParameterError,
    UnsupportedOperationError,
)
from .gains import GainSpec, eval_gain
from .quadrature import QuadratureConfig, integrate, integrate_checked, nodes_weights

DENSITY_NORM_TOL = 1e-8
DECLARED_HEADROOM = 1.01  # estimates must stay within declared * this factor


@dataclass(frozen=True)
class CertReport:
    """Outcome of one certification check for one gain."""

    gain: str
    axiom_pass: bool
    estimated: dict[str, float] = field(default_factory=dict)
    declared: dict[str, float] = field(default_factory=dict)
    max_violation: float = 0.0
    notes: tuple[str, ...] = ()


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


def check_gain_axioms(spec: GainSpec, quad: QuadratureConfig) -> CertReport:
    """Verify finite positive mass and one-sided monotonicity of the gain."""
    radius = spec.support_radius
    notes: list[str] = []
    ok = True

    def phi(s: np.ndarray) -> np.ndarray:
        vals = np.asarray(spec.generating_fn(s), dtype=float)
        if not np.all(np.isfinite(vals)):
            raise CertificationFailureError(
                f"{spec.name}: generating function returned non-finite values"
            )
        return vals

    if math.isfinite(radius):
        integral = integrate(phi, -radius, radius, quad, breakpoints=[0.0])
    else:
        # Nested geometric windows: the mass is finite iff the window
        # increments shrink geometrically (ratio < 1); a constant or growing
        # increment means a divergent tail.  The reported value adds the
        # geometric tail estimate of the last increment.
        hw = quad.half_width
        bps = [0.0, 1.0, -1.0, 10.0, -10.0]
        values = []
        for k in range(7):
            w = hw * 2.0**k
            values.append(integrate(phi, -w, w, quad, breakpoints=bps))
            bps += [w, -w]
        increments = np.diff(values)
        integral = values[-1]
        tiny = 1e-9 * max(1.0, abs(integral))
        if increments[-1] <= tiny:
            pass  # tail already exhausted at this width
        else:
            ratios = increments[1:] / np.maximum(increments[:-1], 1e-300)
            if np.all(ratios[-3:] < 0.9):
                r = float(ratios[-1])
                integral += increments[-1] * r / (1.0 - r)
                notes.append("tail mass extrapolated from geometric window increments")
            else:
                notes.append("window increments do not shrink (mass may be infinite)")
                ok = False
    if not (integral > 0.0 and math.isfinite(integral)):
        notes.append(f"integral {integral} is not finite and positive")
        ok = False

    lim = max(5.0, radius if math.isfinite(radius) else 5.0)
    grid = np.linspace(-lim, lim, 10_001)
    vals = phi(grid)
    if np.any(vals < 0.0):
        notes.append("negative values found")
        ok = False
    left = vals[grid <= 0.0]
    right = vals[grid >= 0.0]
    up_violation = float(max(np.max(-np.diff(left), initial=0.0), 0.0)) + 0.0
    down_violation = float(max(np.max(np.diff(right), initial=0.0), 0.0)) + 0.0
    violation = max(up_violation, down_violation)
    if violation > 1e-12:
        notes.append("monotonicity violated on grid")
        ok = False

    return CertReport(
        gain=spec.name,
        axiom_pass=ok,
        estimated={"integral": float(integral)},
        max_violation=violation,
        notes=tuple(notes),
    )


def estimate_lipschitz(spec: GainSpec, grid_points: int = 200_001) -> tuple[float, float]:
    """Finite-difference suprema: slope of psi(t^2) in t, curvature of psi on [0,1)."""
    if spec.representing_fn is None:
        raise UnsupportedOperationError(f"{spec.name} has no representing function")
    psi = spec.representing_fn

    h = 1e-6
    radius = spec.support_radius

    def l1_on(width: float) -> float:
        t = np.linspace(h, width - h, grid_points)
        slopes = (psi((t + h) ** 2) - psi((t - h) ** 2)) / (2.0 * h)
        slopes = slopes[np.isfinite(slopes)]
        return float(np.abs(slopes).max())

    if math.isfinite(radius):
        l1 = l1_on(radius)
    else:
        width = 8.0
        l1 = l1_on(width)
        for _ in range(4):
            wider = l1_on(2.0 * width)
            if wider <= l1 * (1.0 + 1e-9):
                break
            l1, width = wider, 2.0 * width

    h2 = 1e-4
    u = np.linspace(h2, 1.0 - h2, grid_points // 2)
    second = (psi(u + h2) - 2.0 * psi(u) + psi(u - h2)) / (h2 * h2)
    second = second[np.isfinite(second)]
    l2 = float(np.abs(second).max())
    return l1, l2


def check_type_alpha(spec: GainSpec) -> tuple[float, float, bool]:
    """Check the local expansion p(t) ~ p(0) - c (|t|/sigma)^alpha on a dyadic grid.

    The remainder ratio |R|/s^alpha is evaluated at s = 2^-k, k = 3..20.  In
    double precision the subtraction p(s) - p(0) carries an absolute error of
    a few ulps, so the ratio has a floating-point floor that grows like
    eps / s^alpha; ratios below that floor are noise, not signal.  The check
    therefore requires the ratio to sink below 1e-3 somewhere on the grid and
    to decrease (with 50% slack) wherever it is above its noise floor.
    """
    if spec.type_alpha is None:
        raise UnsupportedOperationError(f"{spec.name} declares no expansion order")
    alpha, c = spec.type_alpha
    phi = spec.generating_fn
    peak = float(phi(np.zeros(1))[0])

    s = 2.0 ** -np.arange(3, 21, dtype=float)
    remainder = np.asarray(phi(s), dtype=float) - peak + c * s**alpha
    ratios = np.abs(remainder) / s**alpha
    noise_floor = 16.0 * np.finfo(float).eps * max(peak, 1.0) / s**alpha
    ok = bool(np.min(ratios) < 1e-3)
    ok = ok and bool(
        np.all(ratios[1:] <= np.maximum(ratios[:-1] * 1.5 + 1e-12, noise_floor[1:]))
    )
    if spec.type_exact:
        dense = np.linspace(0.0, 1.0, 20_001)
        exact_rem = np.abs(np.asarray(phi(dense), dtype=float) - peak + c * dense**alpha)
        ok = ok and bool(exact_rem.max() < 1e-12)
    return alpha, c, ok


def _gap_windows(
    spec: GainSpec, sigma: float, delta: float, prob_scale: float, hw: float
) -> tuple[float, float, list[float]]:
    radius = spec.support_radius
    if math.isfinite(radius):
        lo = min(-radius * sigma, delta - radius * sigma)
        hi = max(radius * sigma, delta + radius * sigma)
        bps = [-radius * sigma, radius * sigma, delta - radius * sigma, delta + radius * sigma]
    else:
        w = hw * max(sigma, prob_scale) + abs(delta)
        lo, hi = -w, w
        bps = []
    bps += [0.0, delta]
    for k in (1.0, 10.0):
        bps += [k * prob_scale, -k * prob_scale]
    return lo, hi, bps


def population_gain(
    spec: GainSpec, sigma: float, prob: LocationProblem, quad: QuadratureConfig
) -> float:
    """Expected gain of the offset model: integral of p_sigma(e - delta) rho(e)."""
    delta = prob.offset
    lo, hi, bps = _gap_windows(spec, sigma, delta, prob.noise_scale, quad.half_width)

    def integrand(e: np.ndarray) -> np.ndarray:
        return eval_gain(spec, sigma, e - delta) * prob.noise_density(e)

    return integrate_checked(
        integrand, lo, hi, quad, breakpoints=[*bps, *prob.noise_breakpoints]
    )


def calibration_gap(
    spec: GainSpec, sigma: float, prob: LocationProblem, quad: QuadratureConfig
) -> float:
    """Scaled excess-gain mismatch: sigma^2 [G(0) - G(delta)] - c0 delta^2.

    The theory predicts |gap| <= c_eps * sigma^(-theta) with theta the
    effective moment order, so the gap must vanish as sigma grows.
    """
    if spec.calibration not in ("strong", "exact") or spec.constants is None:
        raise UnsupportedOperationError(
            f"{spec.name}: calibration gap needs a mean-calibrated gain"
        )
    threshold = max(2.0 * prob.M, 1.0)
    if sigma < threshold:
        raise InvalidParameterError(
            f"sigma = {sigma} is below the calibration threshold max(2M, 1) = {threshold}"
        )
    delta = prob.offset
    c0 = spec.constants.c0
    lo, hi, bps = _gap_windows(spec, sigma, delta, prob.noise_scale, quad.half_width)

    def integrand(e: np.ndarray) -> np.ndarray:
        diff = eval_gain(spec, sigma, e) - eval_gain(spec, sigma, e - delta)
        return sigma**2 * diff * prob.noise_density(e)

    scaled = integrate_checked(
        integrand, lo, hi, quad, breakpoints=[*bps, *prob.noise_breakpoints]
    )
    return scaled - c0 * delta**2


def gap_log_slope(
    spec: GainSpec,
    prob: LocationProblem,
    sigmas: Sequence[float],
    quad: QuadratureConfig,
) -> tuple[float, list[float]]:
    """Least-squares slope of log |gap| against log sigma."""
    gaps = [calibration_gap(spec, s, prob, quad) for s in sigmas]
    xs = np.log(np.asarray(sigmas, dtype=float))
    ys = np.log(np.abs(np.asarray(gaps, dtype=float)))
    slope = float(np.polyfit(xs, ys, 1)[0])
    return slope, gaps


def mde_distance(prob: LocationProblem, quad: QuadratureConfig) -> float:
    """Integrated squared density distance between shifted and true noise laws."""
    delta = prob.offset
    w = quad.half_width * prob.noise_scale + abs(delta)
    bps = [0.0, delta, -delta]
    for k in (1.0, 10.0):
        bps += [k * prob.noise_scale, -k * prob.noise_scale]
    bps += list(prob.noise_breakpoints)
    bps += [b - delta for b in prob.noise_breakpoints]

    def integrand(t: np.ndarray) -> np.ndarray:
        return (prob.noise_density(t + delta) - prob.noise_density(t)) ** 2

    value = integrate_checked(integrand, -w, w, quad, breakpoints=bps)
    return math.sqrt(max(value, 0.0))


def gain_mass(spec: GainSpec, sigma: float, quad: QuadratureConfig) -> float:
    """Total mass of the gain: its closed-form Fourier transform at xi = 0, if any.

    Otherwise quadrature, exact over a compact support; a slowly decaying
    tail such as Cauchy's would leave a percent-level truncation bias in the
    norming constant, which is why the heavy-tailed entries carry closed forms.
    """
    if spec.fourier is not None:
        return float(spec.fourier(sigma, np.zeros(())))

    def p(t: np.ndarray) -> np.ndarray:
        return eval_gain(spec, sigma, t)

    radius = spec.support_radius
    t_max = radius * sigma if math.isfinite(radius) else quad.half_width * sigma
    return integrate_checked(p, -t_max, t_max, quad, breakpoints=[0.0])


def fourier_transform(
    spec: GainSpec, sigma: float, xi: np.ndarray, truncation_mult: float = 20.0
) -> np.ndarray:
    """Real Fourier transform ``int p_sigma(t) cos(xi t) dt`` of the even gain.

    The spec's closed form when it has one; otherwise direct cosine quadrature
    over the exact support of a compact gain, or over ``truncation_mult * sigma``
    with 2^14 nodes for an unbounded one.
    """
    xi = np.asarray(xi, dtype=float)
    if spec.fourier is not None:
        return spec.fourier(sigma, xi)

    radius = spec.support_radius
    t_max = radius * sigma if math.isfinite(radius) else truncation_mult * sigma
    t, w = nodes_weights(-t_max, t_max, 2**14, [0.0])
    pw = eval_gain(spec, sigma, t) * w
    chunk = 256
    flat = xi.ravel()
    res = np.empty(flat.shape, dtype=float)
    for i in range(0, flat.size, chunk):
        res[i : i + chunk] = np.cos(np.outer(flat[i : i + chunk], t)) @ pw
    return res.reshape(xi.shape)


@dataclass(frozen=True)
class SandwichRow:
    delta: float
    gap: float
    lower: float
    upper: Optional[float]
    ok: bool


@dataclass(frozen=True)
class SandwichReport:
    gain: str
    sigma: float
    M: float
    norming_constant: float
    lower_constant: float
    upper_constant: Optional[float]
    rows: tuple[SandwichRow, ...]
    passed: bool

    @property
    def violations(self) -> tuple[float, ...]:
        return tuple(r.delta for r in self.rows if not r.ok)


def sandwich_check(
    spec: GainSpec,
    sigma: float,
    M: float,
    delta_grid: Sequence[float],
    quad: QuadratureConfig,
) -> SandwichReport:
    """Two-sided quadratic bounds on the excess gain under correct noise.

    The noise density is the normalized gain itself.  The lower constant is
    the Fourier integral (c/pi^3) * int_{|xi| <= pi/2M} xi^2 |phat(xi)|^2,
    the upper constant 2 p_sigma(0) L1 / sigma (calibrated gains only).
    """
    if M <= 0:
        raise InvalidParameterError("M must be positive")
    if any(abs(d) > 2.0 * M for d in delta_grid):
        raise InvalidParameterError("sandwich offsets must satisfy |delta| <= 2M")
    radius = spec.support_radius
    t_max = radius * sigma if math.isfinite(radius) else quad.half_width * sigma

    def p(t: np.ndarray) -> np.ndarray:
        return eval_gain(spec, sigma, t)

    c_norm = 1.0 / gain_mass(spec, sigma, quad)

    xi_max = math.pi / (2.0 * M)
    xi, w = np.polynomial.legendre.leggauss(256)
    xi = xi * xi_max
    w = w * xi_max
    phat = fourier_transform(spec, sigma, xi)
    lower_c = (c_norm / math.pi**3) * float((xi**2 * phat**2) @ w)

    upper_c: Optional[float] = None
    if spec.constants is not None:
        peak = spec.peak_value / sigma if spec.sigma_normalized else spec.peak_value
        upper_c = 2.0 * peak * spec.constants.L1 / sigma

    rows = []
    passed = True
    for delta in delta_grid:
        lo_w = min(-t_max, delta - t_max)
        hi_w = max(t_max, delta + t_max)

        def integrand(e: np.ndarray, d: float = delta) -> np.ndarray:
            return (p(e) - p(e - d)) * p(e)

        gap = c_norm * integrate_checked(
            integrand,
            lo_w,
            hi_w,
            quad,
            breakpoints=[0.0, delta, -t_max, t_max, delta - t_max, delta + t_max],
        )
        lower = lower_c * delta**2
        upper = None if upper_c is None else upper_c * delta**2
        slack = 1e-9 * max(1.0, delta**2)
        ok = gap >= lower - slack
        if upper is not None:
            ok = ok and gap <= upper + slack
        if delta != 0.0:
            ok = ok and gap > 0.0
        else:
            ok = ok and abs(gap) <= 1e-9
        passed = passed and ok
        rows.append(SandwichRow(delta=float(delta), gap=gap, lower=lower, upper=upper, ok=ok))

    return SandwichReport(
        gain=spec.name,
        sigma=sigma,
        M=M,
        norming_constant=c_norm,
        lower_constant=lower_c,
        upper_constant=upper_c,
        rows=tuple(rows),
        passed=passed,
    )


def certify_gain(spec: GainSpec, quad: QuadratureConfig) -> list[dict]:
    """Rows for the certification CSV: one per applicable check."""
    rows: list[dict] = []

    axioms = check_gain_axioms(spec, quad)
    rows.append(
        {
            "gain": spec.name,
            "check": "axioms",
            "passed": axioms.axiom_pass,
            "estimated": axioms.estimated.get("integral", float("nan")),
            "declared": "",
            "max_violation": axioms.max_violation,
            "note": "; ".join(axioms.notes),
        }
    )

    if spec.type_alpha is not None:
        alpha, c, ok = check_type_alpha(spec)
        rows.append(
            {
                "gain": spec.name,
                "check": "type_alpha",
                "passed": ok,
                "estimated": alpha,
                "declared": alpha,
                "max_violation": 0.0 if ok else 1.0,
                "note": f"c={c:g}",
            }
        )

    if spec.representing_fn is not None and spec.constants is not None:
        l1_est, l2_est = estimate_lipschitz(spec)
        decl = spec.constants
        viol = max(
            l1_est / decl.L1 - 1.0 if decl.L1 > 0 else 0.0,
            (l2_est / decl.L2 - 1.0) if decl.L2 > 0 else (l2_est - decl.L2),
            0.0,
        )
        ok = (l1_est <= decl.L1 * DECLARED_HEADROOM) and (
            l2_est <= decl.L2 * DECLARED_HEADROOM + 1e-6
        )
        rows.append(
            {
                "gain": spec.name,
                "check": "lipschitz",
                "passed": ok,
                "estimated": f"L1={l1_est:.6g} L2={l2_est:.6g}",
                "declared": f"L1={decl.L1:.6g} L2={decl.L2:.6g}",
                "max_violation": viol,
                "note": "declared constants are upper bounds",
            }
        )
    return rows
