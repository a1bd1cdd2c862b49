"""Empirical-gain maximization over finite hypothesis spaces.

The default solver is half-quadratic reweighting: the representing function
of a calibrated gain is convex and decreasing, so each weighted ridge
least-squares step maximizes a quadratic minorant tangent at the current
iterate and the empirical gain never decreases (with zero ridge).  A
gradient ascent covers differentiable gains without usable weights: each
step starts from the two-point step of Barzilai and Borwein and is halved
until the gain does not fall, so that gain never decreases either.  A
seeded random-plus-coordinate search handles the piecewise constant box
gain, whose objective counts consensus.

The objective is nonconcave, so fits run from an ordinary-least-squares
anchor plus seeded perturbations and keep the best restart.  An optional
scale-annealing ladder (fit at a chain of decreasing sigmas, warm-starting
each stage) makes very small target scales reachable; each stage is itself
monotone in its own objective.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Callable, Optional, Sequence

import numpy as np

from .errors import (
    DegenerateIterateError,
    InvalidInputError,
    InvalidParameterError,
    SingularSystemError,
    UnsupportedOperationError,
)
from .features import (
    FeatureMap,
    HypothesisModel,
    default_sup_bound,
    design_matrix,
    predict_batch,
)
from .gains import GainSpec, eval_gain, eval_gain_derivative, gain_weigher
from .rng import generator
from .simulate import Dataset

IRLS = "irls"
GRADIENT = "gradient"
GRID_CONSENSUS = "grid_consensus"
METHODS = (IRLS, GRADIENT, GRID_CONSENSUS)

# Backtracking line search of the gradient method: first step, shrink factor, halvings.
_STEP_INIT = 1.0
_STEP_SHRINK = 0.5
_MAX_STEP_HALVINGS = 40
# Box-gain consensus search: random candidates, then coordinate sweeps per leader.
_CONSENSUS_SAMPLES = 4000
_CONSENSUS_SWEEPS = 3
# Residuals of the candidates counted at a time (about 512 kB), through one reused buffer.
_CONSENSUS_CELLS = 1 << 16


@dataclass(frozen=True)
class SolverConfig:
    method: str = IRLS
    max_iters: int = 200
    tol: float = 1e-9
    ridge: Optional[float] = None  # None: 1e-8 tr(X'WX)/p guard; 0 disables
    restarts: int = 1
    seed: int = 0
    anneal: tuple[float, ...] = ()  # descending sigma stages before the target

    def __post_init__(self) -> None:
        if self.method not in METHODS:
            raise InvalidParameterError(f"unknown method {self.method!r}")
        if self.max_iters < 1:
            raise InvalidParameterError("max_iters must be positive")
        if not (0.0 < self.tol < math.inf):
            raise InvalidParameterError(f"tol must be finite and positive, got {self.tol}")
        if self.ridge is not None and not (0.0 <= self.ridge < math.inf):
            raise InvalidParameterError(f"ridge must be finite and non-negative, got {self.ridge}")
        if self.restarts < 1:
            raise InvalidParameterError("restarts must be positive")
        if not all(0.0 < s < math.inf for s in self.anneal):
            raise InvalidParameterError(
                f"anneal stages must be finite and positive, got {list(self.anneal)}"
            )


@dataclass(frozen=True)
class FitReport:
    model: HypothesisModel
    empirical_gain: float
    sigma: float
    iterations: int
    gain_trace: tuple[float, ...]
    restart_gains: tuple[float, ...]
    converged: bool
    method: str
    rank: int  # dimension of the basis the fit ran in: p unless directions were dropped


def empirical_gain(
    model: HypothesisModel, data: Dataset, spec: GainSpec, sigma: float
) -> float:
    """Mean gain of the residuals: (1/n) sum p_sigma(y_i - f(x_i))."""
    if data.n == 0:
        raise InvalidInputError("empirical gain needs at least one observation")
    return _mean_gain(spec, sigma, data.outputs - predict_batch(model, data.inputs))


def gain_gradient(
    model: HypothesisModel, data: Dataset, spec: GainSpec, sigma: float
) -> np.ndarray:
    """Gradient of the empirical gain in the coefficients."""
    X = design_matrix(model.feature_map, data.inputs)
    return _gradient(X, data.outputs - X @ model.coefficients, spec, sigma)


def _mean_gain(spec: GainSpec, sigma: float, residuals: np.ndarray) -> float:
    return float(np.mean(eval_gain(spec, sigma, residuals)))


def _gradient(X: np.ndarray, residuals: np.ndarray, spec: GainSpec, sigma: float) -> np.ndarray:
    return -(X.T @ eval_gain_derivative(spec, sigma, residuals)) / len(residuals)


def _weighted_solve(
    X: np.ndarray,
    y: np.ndarray,
    w: np.ndarray,
    ridge: Optional[float],
    features: int,
    out: Optional[np.ndarray] = None,
) -> np.ndarray:
    """Weighted ridge normal equations; the auto ridge divides by ``features``, the
    feature count of the original map, so a fit in a reduced basis keeps its ridge.
    ``out``, shaped and laid out as X, takes the product X w."""
    p = X.shape[1]
    Xw = np.multiply(X, w[:, None], out=out)
    A = X.T @ Xw
    lam = 1e-8 * A.trace() / features if ridge is None else float(ridge)
    A.ravel()[:: p + 1] += lam  # A is a fresh C-contiguous product, so ravel() is a view
    b = Xw.T @ y
    try:
        coeffs = np.linalg.solve(A, b)
    except np.linalg.LinAlgError as exc:
        if lam == 0.0:
            raise SingularSystemError(
                "weighted normal equations are singular; set a positive ridge"
            ) from exc
        raise
    if not np.isfinite(coeffs).all():
        raise SingularSystemError("weighted solve produced non-finite coefficients")
    return coeffs


def _ols(X: np.ndarray, y: np.ndarray, ridge: Optional[float], features: int) -> np.ndarray:
    # Outputs near the double range overflow the normal equations; the solve's
    # finiteness check refuses the result, with no NumPy warning beside it.
    with np.errstate(over="ignore", invalid="ignore"):
        return _weighted_solve(X, y, np.ones(len(y)), ridge, features)


def _rank_basis(X: np.ndarray) -> Optional[np.ndarray]:
    """Orthonormal basis (p, r) of X's row space above the matrix-rank tolerance.

    Singular values at or below s_max * max(n, p) * eps (``np.linalg.matrix_rank``'s
    default) are rounding noise: on kernel dictionaries their directions carry
    eigenvalues of X'X some 13 orders of magnitude below the auto ridge, so
    dropping them moves no fit.  None when nothing is dropped.  A bitwise symmetric
    X, such as a kernel dictionary centred on its own inputs, is factored by
    ``eigh`` at about half an SVD's cost: its singular values are its |eigenvalues|,
    so the same cut keeps the same directions.
    """
    p, eps = X.shape[1], np.finfo(float).eps
    if X.shape[0] == p and np.array_equal(X, X.T):
        lam, vecs = np.linalg.eigh(X)
        mags = np.abs(lam)
        keep = mags > mags.max() * p * eps
        r = int(np.count_nonzero(keep))
        # Largest first, as the SVD orders them; the column pick copies in Fortran
        # layout, as the SVD branch does.
        return vecs[:, np.flatnonzero(keep)[::-1]] if 0 < r < p else None
    _, s, vt = np.linalg.svd(X, full_matrices=False)
    r = int(np.sum(s > s[0] * max(X.shape) * eps))
    # Copy the r rows before transposing: the basis keeps the view's Fortran layout
    # (so products with it round as before) without holding all of vt.
    return vt[:r].copy().T if 0 < r < p else None


def _irls_stage(
    X: np.ndarray,
    y: np.ndarray,
    coeffs: np.ndarray,
    spec: GainSpec,
    sigma: float,
    cfg: SolverConfig,
    trace: list[float],
    features: int,
) -> tuple[np.ndarray, int, bool]:
    """Reweighted least squares at a fixed scale; returns (coeffs, iters, converged).

    The spec and sigma are checked once; each residual vector gets one checked
    pass for its mean gain and the weights of the next solve, and every solve
    forms X w in one buffer.  Every gain goes onto ``trace``, so its last entry is
    the gain of the returned coefficients.
    """
    weigh = gain_weigher(spec, sigma)
    xw = np.empty_like(X)
    gain, w = weigh(y - X @ coeffs)
    trace.append(gain)
    converged = False
    iters = 0
    for _ in range(cfg.max_iters):
        iters += 1
        top = w.max()
        if not (top > 0.0):
            raise DegenerateIterateError(
                f"all half-quadratic weights vanished at sigma = {sigma}; "
                "increase sigma or anneal from a larger scale"
            )
        if cfg.ridge is None:
            # Auto ridge adapts to the normalized system, so rescaling the
            # weights guards against underflow without changing the problem.
            w /= top
        coeffs = _weighted_solve(X, y, w, cfg.ridge, features, xw)
        new_gain, w = weigh(y - X @ coeffs)
        trace.append(new_gain)
        if abs(new_gain - gain) <= cfg.tol * max(1.0, abs(gain)):
            gain = new_gain
            converged = True
            break
        gain = new_gain
    return coeffs, iters, converged


def _gradient_stage(
    X: np.ndarray,
    y: np.ndarray,
    coeffs: np.ndarray,
    spec: GainSpec,
    sigma: float,
    cfg: SolverConfig,
    trace: list[float],
    features: int,
) -> tuple[np.ndarray, int, bool]:
    """Backtracking ascent from two-point steps; accepted steps never decrease the gain.

    The first step is ``_STEP_INIT``.  Each later one starts from the Barzilai-Borwein
    step s's / (-s'dg), with s the last coefficient move and dg the gradient's change,
    or from twice the last accepted step where s'dg >= 0; it is capped at 1e9
    ``_STEP_INIT`` and halved until the gain does not fall.  The accepted candidate's
    residuals give the next gradient.  The starting gain and each accepted step's gain
    go onto ``trace``, so its last entry is the gain of the returned coefficients.
    ``features`` matches the reweighting stage's signature; a gradient step has no ridge.
    A start with no residual inside a compact support has a zero gradient, so it raises
    ``DegenerateIterateError``, as a reweighting stage does when its weights vanish.
    """
    residuals = y - X @ coeffs
    gain = _mean_gain(spec, sigma, residuals)
    if gain == 0.0 and math.isfinite(spec.support_radius):
        raise DegenerateIterateError(
            f"no residual inside the gain's support at sigma = {sigma}; "
            "increase sigma or anneal from a larger scale"
        )
    trace.append(gain)
    step = _STEP_INIT
    move = last_grad = None
    converged = False
    iters = 0
    for _ in range(cfg.max_iters):
        iters += 1
        grad = _gradient(X, residuals, spec, sigma)
        norm = float(np.linalg.norm(grad))
        if norm == 0.0:
            converged = True
            break
        if move is not None:
            curvature = -float(move @ (grad - last_grad))
            step = float(move @ move) / curvature if curvature > 0.0 else step / _STEP_SHRINK
            step = min(step, 1e9 * _STEP_INIT)  # keeps the step finite
        accepted = False
        for _ in range(_MAX_STEP_HALVINGS):
            candidate = coeffs + step * grad
            cand_residuals = y - X @ candidate
            cand_gain = _mean_gain(spec, sigma, cand_residuals)
            if cand_gain >= gain:
                accepted = True
                break
            step *= _STEP_SHRINK
        if not accepted:
            converged = True
            break
        improvement = cand_gain - gain
        move, last_grad = candidate - coeffs, grad
        coeffs, gain, residuals = candidate, cand_gain, cand_residuals
        trace.append(gain)
        if improvement <= cfg.tol * max(1.0, abs(gain)):
            converged = True
            break
    return coeffs, iters, converged


def _stable_at(values: np.ndarray, ordered: np.ndarray, i: int) -> float:
    """``ordered[i]``, where ``ordered`` is ``values`` sorted, with the bits a stable sort
    puts there: of the values that tie, only +-0.0 differ in sign (NaN payloads aside),
    and a stable sort keeps them in data order."""
    if ordered[i] != 0:
        return ordered[i]
    k = i - int(np.searchsorted(ordered, 0.0, "left"))
    return values[np.flatnonzero(values == 0)[k]]


def _consensus_coordinate_sweep(
    X: np.ndarray, y: np.ndarray, coeffs: np.ndarray, radius: float
) -> tuple[np.ndarray, int]:
    """One sweep of exact 1-d updates, each coordinate chosen by interval stabbing, and
    the count of residuals within ``radius`` at the coefficients it returns.

    Residual i stays within the radius while coordinate j lies in [opens[i], closes[i]].
    With each sorted, into ``lows`` and ``highs``, the count just after the i-th opening
    is i + 1 minus the intervals closed before it, ``searchsorted(highs, lows[i],
    "left")``, as openings come first at a tie.  The first opening of most overlap is
    followed by a closing (an opening would raise the count), and the candidate is their
    midpoint, each endpoint with the bits a stable sort gives it.  A move is kept when it
    counts at least as many residuals as the current coefficients, and only then are the
    residuals recomputed.
    """
    coeffs = coeffs.copy()
    # Outputs near the double range overflow here; the caller's gain check rejects them.
    with np.errstate(over="ignore", invalid="ignore"):
        residuals = y - X @ coeffs
        count = int(np.count_nonzero(np.abs(residuals) <= radius))
        for j in range(X.shape[1]):
            col = X[:, j]
            rest = residuals + col * coeffs[j]
            active = np.abs(col) > 1e-12
            if active.all():
                base = 0
            elif active.any():
                base = int(np.count_nonzero(np.abs(rest[~active]) <= radius))
                col, rest = col[active], rest[active]
            else:
                continue
            lo = (rest - radius) / col
            hi = (rest + radius) / col
            opens, closes = np.minimum(lo, hi), np.maximum(lo, hi)
            lows, highs = np.sort(opens), np.sort(closes)
            closed = np.searchsorted(highs, lows, "left")
            running = np.arange(1, lows.size + 1) - closed
            best = int(np.argmax(running))
            if running[best] + base >= count:
                shut = _stable_at(closes, highs, int(closed[best]))
                coeffs[j] = 0.5 * (_stable_at(opens, lows, best) + shut)
                residuals = y - X @ coeffs
                count = int(np.count_nonzero(np.abs(residuals) <= radius))
    return coeffs, count


def _grid_consensus(
    X: np.ndarray,
    y: np.ndarray,
    spec: GainSpec,
    sigma: float,
    cfg: SolverConfig,
    warm: Optional[np.ndarray] = None,
) -> np.ndarray:
    """Seeded box search plus coordinate refinement for a box gain: the coefficients
    with the most residuals inside the box's support, ``spec.support_radius`` sigma.
    The search centres on ``warm`` when given, else on the least-squares fit."""
    if not math.isfinite(spec.support_radius):
        raise InvalidParameterError(
            f"{spec.name}: the consensus search counts residuals inside the box's support, "
            f"which must be bounded, got support_radius = {spec.support_radius}"
        )
    radius = spec.support_radius * sigma
    anchor = warm
    if anchor is None:
        try:
            anchor = _ols(X, y, cfg.ridge, X.shape[1])
        except SingularSystemError:
            anchor = np.zeros(X.shape[1])
    rng = generator(cfg.seed, "consensus")
    width = 3.0 * (np.abs(anchor) + 1.0)
    samples = rng.uniform(-1.0, 1.0, size=(_CONSENSUS_SAMPLES, X.shape[1]))
    samples = anchor[None, :] + samples * width[None, :]
    samples[0] = anchor
    counts = np.empty(_CONSENSUS_SAMPLES, dtype=np.intp)
    rows = max(2, _CONSENSUS_CELLS // y.size)
    buf = np.empty((min(rows + 1, _CONSENSUS_SAMPLES), y.size))
    inside = np.empty(buf.shape, dtype=bool)
    start = 0
    while start < _CONSENSUS_SAMPLES:
        # A lone last row joins the block before it: NumPy sends a one-row matmul to
        # gemv, whose bits differ from gemm's.
        stop = _CONSENSUS_SAMPLES if _CONSENSUS_SAMPLES - start <= rows + 1 else start + rows
        block, mask = buf[: stop - start], inside[: stop - start]
        with np.errstate(over="ignore", invalid="ignore"):  # residuals past the double range
            np.matmul(samples[start:stop], X.T, out=block)
            np.subtract(y, block, out=block)
        np.abs(block, out=block)
        np.less_equal(block, radius, out=mask)
        counts[start:stop] = mask.sum(axis=1, dtype=np.int32)  # n < 2^31: exact
        start = stop
    # Refine several leading candidates; a single basin can trap the sweep.
    top = np.argsort(-counts)[:8]
    lead = 0 if warm is not None else int(top[0])  # ties go to the warm start
    best, best_count = samples[lead], int(counts[lead])
    for idx in top:
        cand = samples[int(idx)]
        for _ in range(_CONSENSUS_SWEEPS):
            cand, count = _consensus_coordinate_sweep(X, y, cand, radius)
        if count > best_count:
            best, best_count = cand, count
    return best


def _methods(spec: GainSpec) -> tuple[str, ...]:
    """The methods that can fit the gain, its default first."""
    if spec.generating_deriv is None:
        return (GRID_CONSENSUS,)
    if spec.calibration != "none":
        return (IRLS, GRADIENT)
    return (GRADIENT,)


def halving_ladder(top: float, sigma: float, stages: Sequence[float] = ()) -> tuple[float, ...]:
    """The rungs top, top/2, ... above ``sigma``, merged with ``stages``, in descending order."""
    if not sigma > 0:  # the halving chain would never end
        raise InvalidParameterError(f"sigma must be positive, got {sigma}")
    rungs = set(stages)
    while top > sigma:
        rungs.add(top)
        top *= 0.5
    return tuple(sorted(rungs, reverse=True))


def default_config(spec: GainSpec, **overrides) -> SolverConfig:
    """A config with the gain's default method."""
    return SolverConfig(method=_methods(spec)[0], **overrides)


def fit_egm(data: Dataset, spec: GainSpec, sigma: float, fmap: FeatureMap,
            cfg: Optional[SolverConfig] = None, M: Optional[float] = None, clip: bool = False,
            init_coefficients: Optional[np.ndarray] = None) -> FitReport:
    """Maximize the empirical gain of the data over the feature map's span: ``fit_scales``
    at the one scale ``sigma``."""
    return fit_scales(data, spec, (sigma,), fmap, cfg, M, clip, init_coefficients)[0]


def fit_scales(
    data: Dataset,
    spec: GainSpec,
    sigmas: Sequence[float],
    fmap: FeatureMap,
    cfg: Optional[SolverConfig] = None,
    M: Optional[float] = None,
    clip: bool = False,
    init_coefficients: Optional[np.ndarray] = None,
) -> list[FitReport]:
    """Maximize the empirical gain of the data over the feature map's span at each scale.

    One report per scale, in order, each bit for bit the fit at its scale alone.  At a
    scale each restart runs the anneal stages above it, then the scale, warm-starting
    each stage; a stage another scale ran from the same start down the same ladder is
    not run again.  A restart's gain is the last entry of its final stage's trace.  If
    every restart degenerates at a scale, they all run again down a ladder from 8 sigma
    (8, 4 and 2 sigma merged with the anneal stages).  If that pass degenerates too and
    the gain's support is bounded, they run once more down a halving ladder from the
    first 2^k sigma (k >= 4) whose support holds every anchor residual; only the last
    pass degenerating raises.  ``init_coefficients`` replaces the ordinary-least-squares
    anchor (warm start), or centres the box gain's search; perturbed restarts still
    scatter around it.  The box gain's search reads only ``cfg.seed`` and the anchor's
    ``cfg.ridge``: ``restarts``, ``anneal``, ``max_iters`` and ``tol`` have no effect on
    it, its ``iterations`` is the sweep count, 3, and its ``converged`` is always True.
    """
    if any(sigma <= 0 for sigma in sigmas):
        raise InvalidParameterError("sigma must be positive")
    if data.n == 0:
        raise InvalidInputError("cannot fit an empty dataset")
    if cfg is None:
        cfg = default_config(spec)
    methods = _methods(spec)
    if cfg.method not in methods:
        raise UnsupportedOperationError(
            f"{spec.name}: {cfg.method} cannot fit this gain; {' or '.join(methods)} can"
        )

    if not (np.all(np.isfinite(data.inputs)) and np.all(np.isfinite(data.outputs))):
        raise InvalidInputError("inputs and outputs must be finite")

    X = design_matrix(fmap, data.inputs)
    y = data.outputs
    p = X.shape[1]
    ridge_off = cfg.ridge == 0.0
    if data.n < p and ridge_off:
        raise InvalidParameterError(
            f"n = {data.n} observations cannot identify {p} features without ridge"
        )
    bound = default_sup_bound(y) if M is None else float(M)

    warm = None
    if init_coefficients is not None:
        warm = np.array(init_coefficients, dtype=float).ravel()  # a copy: fits may return it
        if warm.shape[0] != p:
            raise InvalidParameterError(f"{warm.shape[0]} warm-start coefficients for {p} features")
        if not np.all(np.isfinite(warm)):
            raise InvalidParameterError("warm-start coefficients must be finite")

    if cfg.method == GRID_CONSENSUS:
        rank = p

        def fit_at(sigma: float) -> tuple:
            coeffs = _grid_consensus(X, y, spec, sigma, cfg, warm)
            gain = _mean_gain(spec, sigma, y - X @ coeffs)
            return gain, coeffs, [gain], [gain], _CONSENSUS_SWEEPS, True
    else:
        stage_fn = _irls_stage if cfg.method == IRLS else _gradient_stage
        # Without a ridge a rank-deficient system must stay singular, so the
        # full basis is kept; with one, the fit runs in Z = X V and maps back.
        basis = None if ridge_off else _rank_basis(X)
        Z = X if basis is None else X @ basis
        rank = Z.shape[1]
        if warm is not None:
            full = warm
            anchor = warm if basis is None else basis.T @ warm
        else:
            anchor = _ols(Z, y, cfg.ridge, p)
            full = anchor if basis is None else basis @ anchor
        with np.errstate(over="ignore"):  # a norm past the double range is inf
            anchor_norm = float(np.linalg.norm(full))
        starts = [anchor]
        scale = 0.5 * (anchor_norm if anchor_norm > 0 else 1.0)
        for r in range(1, cfg.restarts):
            # Drawn in the p feature dimensions, so the streams match at any rank.
            noise = generator(cfg.seed, "restart", r).standard_normal(p)
            step = scale * noise / max(np.linalg.norm(noise), 1e-300)
            starts.append(anchor + (step if basis is None else basis.T @ step))
        # (start index, ladder down to and including a stage) -> that stage's outcome
        done: dict[tuple, tuple] = {}

        def run_restarts(stages: Sequence[float], sigma: float) -> tuple[tuple, list[float]]:
            """The best restart down the stages to sigma, and each restart's gain.  A restart that
            degenerates (a wild one can leave every residual outside the support) scores
            -inf; the last such error is raised if every restart degenerates."""
            best, gains = None, []
            for i, coeffs in enumerate(starts):
                key, iters = (i,), 0
                try:
                    for stage_sigma in (*stages, sigma):
                        key += (stage_sigma,)
                        if key not in done:
                            trace: list[float] = []
                            done[key] = (*stage_fn(Z, y, coeffs, spec, stage_sigma, cfg, trace, p),
                                         trace)
                        coeffs, it, converged, trace = done[key]
                        iters += it
                except DegenerateIterateError as exc:
                    degenerate = exc
                    gains.append(-math.inf)
                    continue
                gains.append(trace[-1])
                if best is None or trace[-1] > best[0]:
                    best = (trace[-1], coeffs, trace, iters, converged)
            if best is None:
                raise degenerate
            return best, gains

        def fit_at(sigma: float) -> tuple:
            stages = [s for s in sorted(cfg.anneal, reverse=True) if s > sigma]
            try:
                best, restart_gains = run_restarts(stages, sigma)
            except DegenerateIterateError:
                # Anneal down from a coarser scale, where the gain's loss nears least squares.
                try:
                    best, restart_gains = run_restarts(halving_ladder(8.0 * sigma, sigma, stages),
                                                       sigma)
                except DegenerateIterateError:
                    # Coarser still: the first 2^k sigma (k >= 4) whose support holds every
                    # anchor residual, so the anchor's first stage has a gradient and weights.
                    with np.errstate(over="ignore", invalid="ignore"):
                        far = float(np.max(np.abs(y - Z @ anchor)))
                    top = 16.0 * sigma
                    while not far < spec.support_radius * top and top < math.inf:
                        top *= 2.0
                    if not (math.isfinite(spec.support_radius) and top < math.inf):
                        raise
                    best, restart_gains = run_restarts(halving_ladder(top, sigma, stages), sigma)
            gain, coeffs, trace, iters, converged = best
            # A copy in the full basis: another scale's report may hold the same stage's result.
            return (gain, coeffs.copy() if basis is None else basis @ coeffs, trace,
                    restart_gains, iters, converged)

    reports = []
    for sigma in sigmas:
        gain, coeffs, trace, restart_gains, iters, converged = fit_at(sigma)
        model = HypothesisModel(feature_map=fmap, coefficients=coeffs, M=bound, clip=clip)
        reports.append(FitReport(model, gain, sigma, iters, tuple(trace), tuple(restart_gains),
                                 converged, cfg.method, rank))
    return reports


def schedule_exponent(variant: str, epsilon: float, q: float) -> float:
    """Piecewise scale exponent matched to moment order and capacity."""
    if not (0.0 < epsilon < math.inf and 0.0 < q < math.inf):
        raise InvalidParameterError(
            f"epsilon and q must be finite and positive, got epsilon = {epsilon}, q = {q}"
        )
    e, qq = float(epsilon), float(q)
    if variant == "theta1":
        if e <= 1.0:
            return 1.0 / ((qq + 1.0) * (e + 1.0))
        if e < 2.0:
            return (1.0 + e) / ((1.0 + e) * (e + qq + qq * e) + 2.0 * e)
        if e < 3.0:
            return (1.0 + e) / ((2.0 + 3.0 * qq) * (1.0 + e) + e)
        return 1.0 / (3.0 * (qq + 1.0))
    if variant == "theta2":
        if e <= 1.0:
            return 1.0 / ((qq + 1.0) * (e + 1.0))
        return (1.0 + e) / ((qq + e + qq * e) * (1.0 + e) + 2.0 * e)
    raise InvalidParameterError(f"unknown schedule variant {variant!r}")


def sigma_schedule(variant: str, epsilon: float, q: float, n: int) -> float:
    """Sample-size-driven scale sigma = n^theta(epsilon, q)."""
    if n < 1:
        raise InvalidParameterError("n must be positive")
    return float(n) ** schedule_exponent(variant, epsilon, q)


def _subset(data: Dataset, idx: np.ndarray) -> Dataset:
    return replace(data, inputs=data.inputs[idx], outputs=data.outputs[idx])


def best_candidate(candidates: Sequence[float], scores: Sequence[float]) -> float:
    """The candidate with the best score; ties go to the larger candidate."""
    return max(zip(scores, candidates))[1]


def kfold_select(
    data: Dataset,
    spec: GainSpec,
    candidates: Sequence,
    fit: Callable[[Dataset, object], Sequence[FitReport]],
    folds: int,
    seed: int,
    stream: str,
    mapper: Callable = map,
) -> list[list[float]]:
    """K-fold mean held-out gains: one row per candidate, one column per report scale.

    ``fit(train, candidate)`` fits a training split and returns one report per
    scale; each held-out split is scored at its report's own scale, and each
    cell is the mean of its scores over the folds.  Folds deal a
    ``stream``-keyed shuffle round-robin.  ``mapper``, with the builtin
    ``map``'s contract, runs ``fit`` over the (train split, candidate) pairs.
    """
    if folds < 2:
        raise InvalidParameterError("cross-validation needs at least 2 folds")
    if folds > data.n:
        raise InvalidParameterError(
            f"{folds} folds for {data.n} observations: every fold needs one to hold out"
        )
    order = generator(seed, stream).permutation(data.n)
    trains, helds = [], []
    for k in range(folds):
        train = np.ones(data.n, dtype=bool)
        train[order[k::folds]] = False
        trains.append(_subset(data, np.flatnonzero(train)))
        helds.append(_subset(data, order[k::folds]))
    reports = mapper(fit, trains * len(candidates), [c for c in candidates for _ in trains])
    scores = [[empirical_gain(r.model, held, spec, r.sigma) for r in split]
              for split, held in zip(reports, helds * len(candidates))]
    return [[float(np.mean(column)) for column in zip(*scores[i * folds:(i + 1) * folds])]
            for i in range(len(candidates))]


def cross_validate_sigma(
    data: Dataset,
    spec: GainSpec,
    sigma_grid: Sequence[float],
    fmap: FeatureMap,
    cfg: SolverConfig,
    folds: int = 5,
    seed: int = 0,
) -> tuple[float, list[tuple[float, float]]]:
    """The scale ``best_candidate`` picks by mean held-out gain, and the (sigma, gain)
    table.  The grid is ``kfold_select``'s one candidate: one ``fit_scales`` call per
    fold fits its training split at every scale."""
    grid = [float(s) for s in sigma_grid]
    if any(s <= 0 for s in grid):
        raise InvalidParameterError("sigma grid must be positive")
    if not grid:
        raise InvalidParameterError("cross-validation needs a non-empty candidate grid")

    def fit(train: Dataset, scales: list[float]) -> list[FitReport]:
        return fit_scales(train, spec, scales, fmap, cfg)

    (row,) = kfold_select(data, spec, [grid], fit, folds, seed, "cv-shuffle")
    return best_candidate(grid, row), list(zip(grid, row))
