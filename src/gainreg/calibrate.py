"""Numerical certification of the gain-function theory.

Every check here is quadrature- or grid-based and independent of the solver
path: axioms (shape on a grid, then the mass), local expansion order,
Lipschitz constants, population gains for constant-offset location problems,
the scaled calibration gap and its decay in sigma, the integrated squared
density distance, and the two-sided quadratic sandwich for correctly
specified noise (with its Fourier lower constant).  A gain's mass is computed
one way, ``gain_mass``, for the axioms check and the sandwich's norming
constant alike.

Declared constants are treated as upper bounds: an estimate may fall below a
declared value but must not exceed it by more than 1%.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np

from .errors import (
    CertificationFailureError,
    InvalidInputError,
    InvalidParameterError,
    PrecisionFailureError,
    UnsupportedOperationError,
)
from .gains import DECLARED_HEADROOM, GainSpec, eval_gain
from .quadrature import CONVERGENCE_TOL, QuadratureConfig, gauss_legendre_rule, integrate
from .simulate import LocationProblem

# Grid points of the finite-difference supremum searches behind the Lipschitz estimates.
_LIPSCHITZ_GRID = 200_001
# Cosine quadrature of an unbounded gain without a closed form runs over this many sigmas.
_FOURIER_HALF_WIDTH = 40.0
# Rows of cosines per block of a quadrature transform: at most 2 MiB, at the 2^14-node
# rule, to stay in a core's L2 cache.  Under OpenBLAS, blocks of 4 to 128 rows give
# each row the bits of one whole-grid product; blocks of 2 rows do not.
_FOURIER_BLOCK = 16
# Absolute part of a gap's tolerance (a calibration gap's per unit of its integral): a gap
# at rounding level settles there, far below the sandwich's 1e-9 slack.
_GAP_FLOOR = 1e-12


@dataclass(frozen=True)
class CertReport:
    """Outcome of one certification check for one gain."""

    gain: str
    axiom_pass: bool
    estimated: dict[str, float] = field(default_factory=dict)
    max_violation: float = 0.0
    notes: tuple[str, ...] = ()


def check_gain_axioms(spec: GainSpec) -> CertReport:
    """Verify the gain's shape on a grid (nonnegative, one-sided monotone), then its mass.

    The mass is ``gain_mass(spec, 1.0)``, checked by node doubling; a mass that cannot
    be certified (``PrecisionFailureError``) or is not finite and positive fails the
    check.  A gain that fails a shape check reports no mass (NaN).
    """
    radius = spec.support_radius
    notes: list[str] = []

    lim = max(5.0, radius if math.isfinite(radius) else 5.0)
    grid = np.linspace(-lim, lim, 10_001)
    vals = np.asarray(spec.generating_fn(grid), dtype=float)
    if not np.all(np.isfinite(vals)):
        raise CertificationFailureError(
            f"{spec.name}: generating function returned non-finite values"
        )
    if np.any(vals < 0.0):
        notes.append("negative values found")
    left = vals[grid <= 0.0]
    right = vals[grid >= 0.0]
    up_violation = float(max(np.max(-np.diff(left), initial=0.0), 0.0)) + 0.0
    down_violation = float(max(np.max(np.diff(right), initial=0.0), 0.0)) + 0.0
    violation = max(up_violation, down_violation)
    if violation > 1e-12:
        notes.append("monotonicity violated on grid")

    integral = math.nan
    if not notes:
        try:
            integral = gain_mass(spec, 1.0)
        except PrecisionFailureError as exc:
            notes.append(f"mass not certified: {exc}")
        else:
            if not (integral > 0.0 and math.isfinite(integral)):
                notes.append(f"mass {integral} is not finite and positive")

    return CertReport(
        gain=spec.name,
        axiom_pass=not notes,
        estimated={"integral": integral},
        max_violation=violation,
        notes=tuple(notes),
    )


def estimate_lipschitz(spec: GainSpec) -> tuple[float, float]:
    """Finite-difference suprema: slope of psi(t^2) in t, curvature of psi on [0,1)."""
    if spec.representing_fn is None:
        raise UnsupportedOperationError(f"{spec.name} has no representing function")
    psi = spec.representing_fn

    h = 1e-6
    radius = spec.support_radius

    def l1_on(width: float) -> float:
        t = np.linspace(h, width - h, _LIPSCHITZ_GRID)
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
    u = np.linspace(h2, 1.0 - h2, _LIPSCHITZ_GRID // 2)
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

    return integrate(integrand, lo, hi, _unit_tol, [*bps, *prob.noise_breakpoints])


def calibration_gap(
    spec: GainSpec, sigma: float, prob: LocationProblem, quad: QuadratureConfig
) -> float:
    """Scaled excess-gain mismatch: sigma^2 [G(0) - G(delta)] - c0 delta^2.

    The theory predicts |gap| <= c_eps * sigma^(-theta) with theta the
    effective moment order, so the gap must vanish as sigma grows.  The
    quadrature checks the gap itself, after the cancellation, to
    max(1e-6 |gap|, 1e-12 max(1, |sigma^2 [G(0) - G(delta)]|)).
    """
    if spec.calibration == "none":
        raise UnsupportedOperationError(
            f"{spec.name}: calibration gap needs a mean-calibrated gain"
        )
    threshold = max(2.0 * prob.M, 1.0)
    if sigma < threshold:
        raise InvalidParameterError(
            f"sigma = {sigma} is below the calibration threshold max(2M, 1) = {threshold}"
        )
    delta = prob.offset
    c0d2 = spec.constants.c0 * delta**2
    lo, hi, bps = _gap_windows(spec, sigma, delta, prob.noise_scale, quad.half_width)

    def integrand(e: np.ndarray) -> np.ndarray:
        diff = eval_gain(spec, sigma, e) - eval_gain(spec, sigma, e - delta)
        return sigma**2 * diff * prob.noise_density(e)

    def tol(scaled: float) -> float:
        return max(CONVERGENCE_TOL * abs(scaled - c0d2), _GAP_FLOOR * max(1.0, abs(scaled)))

    scaled = integrate(integrand, lo, hi, tol, [*bps, *prob.noise_breakpoints])
    return scaled - c0d2


def gap_log_slope(
    spec: GainSpec,
    prob: LocationProblem,
    sigmas: Sequence[float],
    quad: QuadratureConfig,
) -> tuple[float, list[float]]:
    """Least-squares slope of log |gap| against log sigma, and the gaps as computed.

    Each |gap| is floored at its absolute tolerance (see ``calibration_gap``) before
    the log: below it a gap is rounding noise, and a gap of exactly 0 has no log.
    """
    gaps = [calibration_gap(spec, s, prob, quad) for s in sigmas]
    c0d2 = spec.constants.c0 * prob.offset**2
    xs = np.log(np.asarray(sigmas, dtype=float))
    ys = np.log([max(abs(g), _GAP_FLOOR * max(1.0, abs(g + c0d2))) for g in gaps])
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

    value = integrate(integrand, -w, w, _unit_tol, bps)
    return math.sqrt(max(value, 0.0))


def _unit_tol(value: float) -> float:
    """Tolerance of a population gain or squared density distance: 1e-6 max(1, |value|)."""
    return CONVERGENCE_TOL * max(1.0, abs(value))


def gain_mass(spec: GainSpec, sigma: float) -> float:
    """Total mass of the gain: its Fourier transform at xi = 0 (``fourier_transform``)."""
    return float(fourier_transform(spec, sigma, 0.0))


def _window(spec: GainSpec, sigma: float) -> float:
    """Half-width of a quadrature over the gain: its support, or ``_FOURIER_HALF_WIDTH`` sigmas.

    Node doubling cannot see what lies beyond the window, so a gain that is still
    above ``CONVERGENCE_TOL`` of its peak at the window's edge raises
    ``PrecisionFailureError`` rather than return a truncated integral; a tail such as
    Cauchy's would bias the norming constant by percents, so such gains carry closed forms.
    """
    if math.isfinite(spec.support_radius):
        return spec.support_radius * sigma
    t_max = _FOURIER_HALF_WIDTH * sigma
    edge, peak = eval_gain(spec, sigma, t_max), eval_gain(spec, sigma, 0.0)
    if edge > CONVERGENCE_TOL * peak:
        raise PrecisionFailureError(
            f"{spec.name} is still {edge:.3g} against a peak of {peak:.3g} at "
            f"{_FOURIER_HALF_WIDTH:g} sigma, where its integral is cut off; give the spec "
            "its closed-form transform"
        )
    return t_max


def fourier_transform(spec: GainSpec, sigma: float, xi: np.ndarray) -> np.ndarray:
    """Real Fourier transform ``int p_sigma(t) cos(xi t) dt`` of the even gain.

    The spec's closed form when it has one; otherwise direct cosine quadrature
    over the exact support of a compact gain, or over ``40 * sigma`` for an
    unbounded one whose tail is negligible there (see ``_window``).  The
    quadrature is ``integrate``'s, checked to ``CONVERGENCE_TOL`` of the largest
    ``|value|``.  The transform is even, so each pass runs once per distinct
    ``|xi|``, block by block through one buffer.
    """
    xi = np.asarray(xi, dtype=float)
    if not np.all(np.isfinite(xi)):
        raise InvalidInputError("xi must be finite")
    if spec.fourier is not None:
        return spec.fourier(sigma, xi)

    t_max = _window(spec, sigma)
    mags, back = np.unique(np.abs(xi.ravel()), return_inverse=True)

    def cosine_sum(t: np.ndarray, w: np.ndarray) -> np.ndarray:
        pw = eval_gain(spec, sigma, t) * w
        res = np.empty(mags.shape, dtype=float)
        buf = np.empty((min(_FOURIER_BLOCK, mags.size), t.size))
        for i in range(0, mags.size, _FOURIER_BLOCK):
            block = buf[: mags.size - i]
            np.multiply.outer(mags[i : i + _FOURIER_BLOCK], t, out=block)
            np.cos(block, out=block)
            res[i : i + _FOURIER_BLOCK] = block @ pw
        return res

    def tol(value: np.ndarray) -> float:
        return CONVERGENCE_TOL * np.max(np.abs(value), initial=0.0)

    fine = integrate(cosine_sum, -t_max, t_max, tol, [0.0], summed=True)
    return fine[back].reshape(xi.shape)


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
    if not (math.isfinite(M) and M > 0):
        raise InvalidParameterError(f"M must be finite and positive, got {M}")
    if not math.isfinite(sigma):
        raise InvalidParameterError(f"sigma must be finite, got {sigma}")
    if not all(math.isfinite(d) for d in delta_grid):
        raise InvalidParameterError("sandwich offsets must be finite")
    if any(abs(d) > 2.0 * M for d in delta_grid):
        raise InvalidParameterError("sandwich offsets must satisfy |delta| <= 2M")
    radius = spec.support_radius
    t_max = radius * sigma if math.isfinite(radius) else quad.half_width * sigma

    def p(t: np.ndarray) -> np.ndarray:
        return eval_gain(spec, sigma, t)

    c_norm = 1.0 / gain_mass(spec, sigma)

    xi_max = math.pi / (2.0 * M)
    xi, w = gauss_legendre_rule(256)
    xi = xi * xi_max
    w = w * xi_max
    phat = fourier_transform(spec, sigma, xi)
    lower_c = (c_norm / math.pi**3) * float((xi**2 * phat**2) @ w)

    upper_c: Optional[float] = None
    if spec.constants is not None:
        upper_c = 2.0 * p(0.0) * spec.constants.L1 / sigma

    def gap_tol(value: float) -> float:
        # max(1e-6 |gap|, _GAP_FLOOR) for the gap, c_norm times the integral ``value``.
        return max(CONVERGENCE_TOL * abs(value), _GAP_FLOOR / c_norm)

    rows = []
    passed = True
    for delta in delta_grid:
        lo_w = min(-t_max, delta - t_max)
        hi_w = max(t_max, delta + t_max)

        def integrand(e: np.ndarray, d: float = delta) -> np.ndarray:
            pe = p(e)
            return (pe - p(e - d)) * pe

        bps = [0.0, delta, -t_max, t_max, delta - t_max, delta + t_max]
        gap = c_norm * integrate(integrand, lo_w, hi_w, gap_tol, bps)
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


def _row(
    gain: str, check: str, passed: bool, estimated, declared, max_violation: float, note: str
) -> dict:
    """One certification CSV row; its keys are in column order."""
    return {"gain": gain, "check": check, "passed": passed, "estimated": estimated,
            "declared": declared, "max_violation": max_violation, "note": note}


def certify_gain(spec: GainSpec, quad: QuadratureConfig) -> list[dict]:
    """Rows for the certification CSV: one per applicable check.

    The axioms row's mass is ``gain_mass``, a transform that needs no truncation
    window, so no check here reads ``quad``; it stays for callers that pass it,
    such as perfbench's certify workload.  Every integral a row reports is
    checked by ``integrate``'s node doubling at its own tolerance.
    """
    axioms = check_gain_axioms(spec)
    rows = [
        _row(spec.name, "axioms", axioms.axiom_pass,
             axioms.estimated.get("integral", float("nan")), "", axioms.max_violation,
             "; ".join(axioms.notes))
    ]

    if spec.type_alpha is not None:
        alpha, c, ok = check_type_alpha(spec)
        rows.append(_row(spec.name, "type_alpha", ok, alpha, alpha, 0.0 if ok else 1.0,
                         f"c={c:g}"))

    if spec.representing_fn is not None:
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
        rows.append(_row(spec.name, "lipschitz", ok, f"L1={l1_est:.6g} L2={l2_est:.6g}",
                         f"L1={decl.L1:.6g} L2={decl.L2:.6g}", viol,
                         "declared constants are upper bounds"))
    return rows


def sandwich_row(report: SandwichReport) -> dict:
    """The certification CSV row of a sandwich check."""
    return _row(
        report.gain,
        "sandwich",
        report.passed,
        f"C={report.lower_constant:.6g}",
        "" if report.upper_constant is None else f"C'={report.upper_constant:.6g}",
        0.0 if report.passed else max(abs(d) for d in report.violations),
        f"two-sided quadratic bounds at sigma={report.sigma:g}, M={report.M:g}",
    )
