"""Empirical-gain maximization over finite hypothesis spaces.

The default solver is half-quadratic reweighting: the representing function
of a calibrated gain is convex and decreasing, so each weighted ridge
least-squares step maximizes a quadratic minorant tangent at the current
iterate and the empirical gain never decreases (with zero ridge).  A
backtracking gradient ascent covers differentiable gains without usable
weights, and a seeded random-plus-coordinate search handles the piecewise
constant box gain, whose objective counts consensus.

The objective is nonconcave, so fits run from an ordinary-least-squares
anchor plus seeded perturbations and keep the best restart.  An optional
scale-annealing ladder (fit at a chain of decreasing sigmas, warm-starting
each stage) makes very small target scales reachable; each stage is itself
monotone in its own objective.
"""

from __future__ import annotations

import hashlib
import math
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Callable, Iterator, Optional, Sequence

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
from .gains import GainSpec, eval_gain, eval_gain_derivative, gain_and_weights
from .rng import generator
from .simulate import Dataset

IRLS = "irls"
GRADIENT = "gradient"
GRID_CONSENSUS = "grid_consensus"

# Backtracking line search of the gradient method: first step, shrink factor, halvings.
_STEP_INIT = 1.0
_STEP_SHRINK = 0.5
_MAX_STEP_HALVINGS = 40
# Box-gain consensus search: random candidates, then coordinate sweeps per leader.
_CONSENSUS_SAMPLES = 4000
_CONSENSUS_SWEEPS = 3
# Rank bases by design-matrix digest inside a shared_rank_bases() block; None outside one.
_shared_bases: Optional[dict[tuple, Optional[np.ndarray]]] = None


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
        if self.method not in (IRLS, GRADIENT, GRID_CONSENSUS):
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
    return _gradient(X, data.outputs, model.coefficients, spec, sigma)


def _mean_gain(spec: GainSpec, sigma: float, residuals: np.ndarray) -> float:
    return float(np.mean(eval_gain(spec, sigma, residuals)))


def _gradient(
    X: np.ndarray, y: np.ndarray, coeffs: np.ndarray, spec: GainSpec, sigma: float
) -> np.ndarray:
    return -(X.T @ eval_gain_derivative(spec, sigma, y - X @ coeffs)) / len(y)


def _weighted_solve(
    X: np.ndarray, y: np.ndarray, w: np.ndarray, ridge: Optional[float], features: int
) -> np.ndarray:
    """Weighted ridge normal equations; the auto ridge divides by ``features``, the
    feature count of the original map, so a fit in a reduced basis keeps its ridge."""
    p = X.shape[1]
    Xw = X * w[:, None]
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
    return _weighted_solve(X, y, np.ones(len(y)), ridge, features)


def _rank_basis(X: np.ndarray) -> Optional[np.ndarray]:
    """Orthonormal basis (p, r) of X's row space above the matrix-rank tolerance.

    Singular values at or below s_max * max(n, p) * eps (``np.linalg.matrix_rank``'s
    default) are rounding noise: on kernel dictionaries their directions carry
    eigenvalues of X'X some 13 orders of magnitude below the auto ridge, so
    dropping them moves no fit.  None when nothing is dropped.  Inside a
    ``shared_rank_bases()`` block a matrix seen before reuses its basis.
    """
    cache = _shared_bases  # read once: another thread's block may end meanwhile
    if cache is None:
        return _svd_basis(X)
    key = (X.shape, hashlib.blake2b(np.ascontiguousarray(X)).digest())
    if key not in cache:
        cache[key] = _svd_basis(X)
    return cache[key]


def _svd_basis(X: np.ndarray) -> Optional[np.ndarray]:
    _, s, vt = np.linalg.svd(X, full_matrices=False)
    r = int(np.sum(s > s[0] * max(X.shape) * np.finfo(float).eps))
    # Copy the r rows before transposing: the basis keeps the view's Fortran layout
    # (so products with it round as before) without holding all of vt.
    return vt[:r].copy().T if 0 < r < X.shape[1] else None


@contextmanager
def shared_rank_bases() -> Iterator[None]:
    """Fits inside the block share the rank basis of each design matrix they repeat.

    Bases are keyed by the matrix's shape and blake2b digest and dropped when the
    outermost block exits, on an exception too, so no state outlives it.  A block
    opened inside another one uses and keeps the enclosing block's bases.
    """
    global _shared_bases
    if _shared_bases is not None:
        yield
        return
    _shared_bases = {}
    try:
        yield
    finally:
        _shared_bases = None


def _irls_stage(
    X: np.ndarray,
    y: np.ndarray,
    coeffs: np.ndarray,
    spec: GainSpec,
    sigma: float,
    cfg: SolverConfig,
    record: Optional[list[float]],
    features: int,
) -> tuple[np.ndarray, int, bool]:
    """Reweighted least squares at a fixed scale; returns (coeffs, iters, converged).

    Each residual vector gets one checked pass for its mean gain and the weights
    of the next solve.
    """
    gain, w = gain_and_weights(spec, sigma, y - X @ coeffs)
    if record is not None:
        record.append(gain)
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
            w = w / top
        coeffs = _weighted_solve(X, y, w, cfg.ridge, features)
        new_gain, w = gain_and_weights(spec, sigma, y - X @ coeffs)
        if record is not None:
            record.append(new_gain)
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
    record: Optional[list[float]],
    features: int,
) -> tuple[np.ndarray, int, bool]:
    """Backtracking ascent; accepted steps never decrease the gain.

    ``features`` matches the reweighting stage's signature; a gradient step has no ridge.
    """
    gain = _mean_gain(spec, sigma, y - X @ coeffs)
    if record is not None:
        record.append(gain)
    step = _STEP_INIT
    converged = False
    iters = 0
    for _ in range(cfg.max_iters):
        iters += 1
        grad = _gradient(X, y, coeffs, spec, sigma)
        norm = float(np.linalg.norm(grad))
        if norm == 0.0:
            converged = True
            break
        accepted = False
        for _ in range(_MAX_STEP_HALVINGS):
            candidate = coeffs + step * grad
            cand_gain = _mean_gain(spec, sigma, y - X @ candidate)
            if cand_gain >= gain:
                accepted = True
                break
            step *= _STEP_SHRINK
        if not accepted:
            converged = True
            break
        improvement = cand_gain - gain
        coeffs, gain = candidate, cand_gain
        if record is not None:
            record.append(gain)
        # Allow growth after success, capped so the step stays finite.
        step = min(step / _STEP_SHRINK, 1e9 * _STEP_INIT)
        if improvement <= cfg.tol * max(1.0, abs(gain)):
            converged = True
            break
    return coeffs, iters, converged


def _consensus_count(X: np.ndarray, y: np.ndarray, coeffs: np.ndarray, sigma: float) -> int:
    return int(np.sum(np.abs(y - X @ coeffs) <= sigma))


def _consensus_coordinate_sweep(
    X: np.ndarray, y: np.ndarray, coeffs: np.ndarray, sigma: float
) -> np.ndarray:
    """Exact 1-d updates: choose each coordinate by interval stabbing."""
    coeffs = coeffs.copy()
    for j in range(X.shape[1]):
        col = X[:, j]
        rest = y - X @ coeffs + col * coeffs[j]
        active = np.abs(col) > 1e-12
        if not np.any(active):
            continue
        lo = (rest[active] - sigma) / col[active]
        hi = (rest[active] + sigma) / col[active]
        lows = np.minimum(lo, hi)
        highs = np.maximum(lo, hi)
        events = np.concatenate([np.stack([lows, np.ones_like(lows)], axis=1),
                                 np.stack([highs, -np.ones_like(highs)], axis=1)])
        order = np.lexsort((-events[:, 1], events[:, 0]))
        events = events[order]
        running = np.cumsum(events[:, 1])
        best = int(np.argmax(running))
        if best + 1 < len(events):
            candidate = 0.5 * (events[best, 0] + events[best + 1, 0])
        else:
            candidate = events[best, 0]
        base = np.sum(np.abs(rest[~active]) <= sigma)
        if running[best] + base >= _consensus_count(X, y, coeffs, sigma):
            coeffs[j] = candidate
    return coeffs


def _grid_consensus(
    X: np.ndarray,
    y: np.ndarray,
    spec: GainSpec,
    sigma: float,
    cfg: SolverConfig,
) -> tuple[np.ndarray, int]:
    """Seeded box search plus coordinate refinement for the box gain."""
    try:
        anchor = _ols(X, y, cfg.ridge, X.shape[1])
    except SingularSystemError:
        anchor = np.zeros(X.shape[1])
    rng = generator(cfg.seed, "consensus")
    width = 3.0 * (np.abs(anchor) + 1.0)
    samples = rng.uniform(-1.0, 1.0, size=(_CONSENSUS_SAMPLES, X.shape[1]))
    samples = anchor[None, :] + samples * width[None, :]
    samples[0] = anchor
    inside = np.abs(y[None, :] - samples @ X.T) <= sigma
    counts = inside.sum(axis=1)
    # Refine several leading candidates; a single basin can trap the sweep.
    top = np.argsort(-counts)[:8]
    best, best_count = samples[int(top[0])], int(counts[int(top[0])])
    for idx in top:
        cand = samples[int(idx)]
        for _ in range(_CONSENSUS_SWEEPS):
            cand = _consensus_coordinate_sweep(X, y, cand, sigma)
        count = _consensus_count(X, y, cand, sigma)
        if count > best_count:
            best, best_count = cand, count
    return best, best_count


def _validate_method(spec: GainSpec, method: str) -> None:
    box = spec.generating_deriv is None  # piecewise constant: fit by counting consensus
    if box != (method == GRID_CONSENSUS):
        raise UnsupportedOperationError(
            f"{spec.name}: grid_consensus fits box gains (no derivative), and only them"
        )
    if method == IRLS and spec.calibration == "none":
        raise UnsupportedOperationError(
            f"{spec.name}: reweighting needs a calibrated (type-2) gain; "
            "use the gradient method"
        )


def default_config(spec: GainSpec, **overrides) -> SolverConfig:
    """Method selection by gain class: consensus for a box, else IRLS, else gradient."""
    if spec.generating_deriv is None:
        method = GRID_CONSENSUS
    elif spec.calibration != "none":
        method = IRLS
    else:
        method = GRADIENT
    return SolverConfig(method=method, **overrides)


def fit_egm(
    data: Dataset,
    spec: GainSpec,
    sigma: float,
    fmap: FeatureMap,
    cfg: Optional[SolverConfig] = None,
    M: Optional[float] = None,
    clip: bool = False,
    init_coefficients: Optional[np.ndarray] = None,
) -> FitReport:
    """Maximize the empirical gain of the data over the feature map's span.

    ``init_coefficients`` replaces the ordinary-least-squares anchor (warm
    start); perturbed restarts still scatter around it.
    """
    if sigma <= 0:
        raise InvalidParameterError("sigma must be positive")
    if data.n == 0:
        raise InvalidInputError("cannot fit an empty dataset")
    if cfg is None:
        cfg = default_config(spec)
    _validate_method(spec, cfg.method)

    if not (np.all(np.isfinite(data.inputs)) and np.all(np.isfinite(data.outputs))):
        raise InvalidInputError("inputs and outputs must be finite")

    X = design_matrix(fmap, data.inputs)
    if not np.all(np.isfinite(X)):
        raise InvalidInputError("the feature map gives non-finite features")
    y = data.outputs
    p = X.shape[1]
    ridge_off = cfg.ridge == 0.0
    if data.n < p and ridge_off:
        raise InvalidParameterError(
            f"n = {data.n} observations cannot identify {p} features without ridge"
        )
    bound = default_sup_bound(y) if M is None else float(M)

    stages = [s for s in sorted(cfg.anneal, reverse=True) if s > sigma]

    if cfg.method == GRID_CONSENSUS:
        coeffs, count = _grid_consensus(X, y, spec, sigma, cfg)
        model = HypothesisModel(feature_map=fmap, coefficients=coeffs, M=bound, clip=clip)
        gain = count / (data.n * 2.0 * sigma)
        return FitReport(
            model=model,
            empirical_gain=gain,
            sigma=sigma,
            iterations=_CONSENSUS_SWEEPS,
            gain_trace=(gain,),
            restart_gains=(gain,),
            converged=True,
            method=cfg.method,
            rank=p,
        )

    stage_fn = _irls_stage if cfg.method == IRLS else _gradient_stage
    # Without a ridge a rank-deficient system must stay singular, so the
    # full basis is kept; with one, the fit runs in Z = X V and maps back.
    basis = None if ridge_off else _rank_basis(X)
    Z = X if basis is None else X @ basis
    if init_coefficients is not None:
        anchor = np.asarray(init_coefficients, dtype=float).ravel()
        if anchor.shape[0] != p:
            raise InvalidParameterError(
                f"{anchor.shape[0]} warm-start coefficients for {p} features"
            )
        anchor_norm = float(np.linalg.norm(anchor))
        if basis is not None:
            anchor = basis.T @ anchor
    else:
        anchor = _ols(Z, y, cfg.ridge, p)
        anchor_norm = float(np.linalg.norm(anchor if basis is None else basis @ anchor))

    best: Optional[tuple[float, np.ndarray, list[float], int, bool]] = None
    restart_gains: list[float] = []
    degenerate: Optional[DegenerateIterateError] = None
    for r in range(cfg.restarts):
        if r == 0:
            coeffs = anchor.copy()
        else:
            # Drawn in the p feature dimensions, so the streams match at any rank.
            noise = generator(cfg.seed, "restart", r).standard_normal(p)
            scale = 0.5 * (anchor_norm if anchor_norm > 0 else 1.0)
            step = scale * noise / max(np.linalg.norm(noise), 1e-300)
            coeffs = anchor + (step if basis is None else basis.T @ step)
        try:
            iters = 0
            for stage_sigma in stages:
                coeffs, it, _ = stage_fn(Z, y, coeffs, spec, stage_sigma, cfg, None, p)
                iters += it
            trace: list[float] = []
            coeffs, it, converged = stage_fn(Z, y, coeffs, spec, sigma, cfg, trace, p)
            iters += it
        except DegenerateIterateError as exc:
            # A wild restart can leave every residual outside the support;
            # skip it unless every restart degenerates.
            degenerate = exc
            restart_gains.append(-math.inf)
            continue
        gain = _mean_gain(spec, sigma, y - Z @ coeffs)
        restart_gains.append(gain)
        if best is None or gain > best[0]:
            best = (gain, coeffs, trace, iters, converged)

    if best is None:
        raise degenerate if degenerate is not None else DegenerateIterateError(
            "no restart produced a usable iterate"
        )
    gain, coeffs, trace, iters, converged = best
    if basis is not None:
        coeffs = basis @ coeffs
    model = HypothesisModel(feature_map=fmap, coefficients=coeffs, M=bound, clip=clip)
    return FitReport(
        model=model,
        empirical_gain=gain,
        sigma=sigma,
        iterations=iters,
        gain_trace=tuple(trace),
        restart_gains=tuple(restart_gains),
        converged=converged,
        method=cfg.method,
        rank=Z.shape[1],
    )


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
    return Dataset(
        inputs=data.inputs[idx],
        outputs=data.outputs[idx],
        seed=data.seed,
        noise=data.noise,
        truth=data.truth,
    )


def kfold_select(
    data: Dataset,
    spec: GainSpec,
    candidates: Sequence[float],
    fit: Callable[[Dataset, float], Sequence[FitReport]],
    folds: int,
    seed: int,
    stream: str,
    mapper: Callable = map,
) -> list[tuple[float, list[tuple[float, float]]]]:
    """K-fold choice among candidates by mean held-out gain; ties go to the larger one.

    ``fit(train, candidate)`` fits a training split and returns one report per
    scale; each scale's held-out split is scored at its report's own scale, and
    each scale gets its own (best candidate, table).  Folds deal a
    ``stream``-keyed shuffle round-robin.  ``mapper(task, indices)`` runs the
    (candidate, fold) tasks and gives their scores in task order.
    """
    if folds < 2:
        raise InvalidParameterError("cross-validation needs at least 2 folds")
    if folds > data.n:
        raise InvalidParameterError(
            f"{folds} folds for {data.n} observations: every fold needs one to hold out"
        )
    if not candidates:
        raise InvalidParameterError("cross-validation needs a non-empty candidate grid")
    order = generator(seed, stream).permutation(data.n)
    parts = [order[k::folds] for k in range(folds)]

    def score(task: int) -> list[float]:
        candidate, held = candidates[task // folds], parts[task % folds]
        reports = fit(_subset(data, np.setdiff1d(np.arange(data.n), held)), candidate)
        return [empirical_gain(r.model, _subset(data, held), spec, r.sigma) for r in reports]

    scores = list(mapper(score, range(len(candidates) * folds)))
    by_candidate = [scores[i * folds:(i + 1) * folds] for i in range(len(candidates))]
    choices = []
    for scale in range(len(scores[0])):
        table = [(candidate, float(np.mean([fold[scale] for fold in rows])))
                 for candidate, rows in zip(candidates, by_candidate)]
        best = max(table, key=lambda row: (row[1], row[0]))  # best score, then larger candidate
        choices.append((best[0], table))
    return choices


def cross_validate_sigma(
    data: Dataset,
    spec: GainSpec,
    sigma_grid: Sequence[float],
    fmap: FeatureMap,
    cfg: SolverConfig,
    folds: int = 5,
    seed: int = 0,
) -> tuple[float, list[tuple[float, float]]]:
    """Pick the scale with the best mean held-out gain; ties go to larger sigma."""
    grid = [float(s) for s in sigma_grid]
    if any(s <= 0 for s in grid):
        raise InvalidParameterError("sigma grid must be positive")

    def fit(train: Dataset, sigma: float) -> list[FitReport]:
        return [fit_egm(train, spec, sigma, fmap, cfg)]

    return kfold_select(data, spec, grid, fit, folds, seed, "cv-shuffle")[0]
