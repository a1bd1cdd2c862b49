"""The two batch experiments: toy-curve reproduction and rate trends.

The toy benchmark fits the squared-exponential gain on the bimodal
heteroscedastic model at several scales; a large scale tracks the
conditional mean, a small one the conditional mode ridge.  Small target
scales are reached by annealing the reweighted solver down a halving ladder
of scales.  The rate benchmark drives the scale with the sample-size
schedule and compares the robust fit against plain least squares under
contamination.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import InvalidParameterError
from .features import kernel_map, linear_map, subsample_centers
from .gains import GainSpec, catalog
from .rng import derive_key, generator
from .simulate import Dataset, NoiseSpec, gen_location, gen_toy, toy_references, truth_function
from .solver import (
    FitReport,
    SolverConfig,
    fit_egm,
    kfold_select,
    predict_batch,
    schedule_exponent,
    sigma_schedule,
)

TOY_BANDWIDTH_GRID = (0.05, 0.1, 0.2, 0.5, 1.0)
ANNEAL_START = 8.0
MC_POINTS = 10_000


def anneal_ladder(sigma: float, start: float = ANNEAL_START) -> tuple[float, ...]:
    """Halving chain of scales from ``start`` down to (but above) ``sigma``."""
    if not sigma > 0:  # the halving chain would never end
        raise InvalidParameterError(f"sigma must be positive, got {sigma}")
    stages = []
    s = start
    while s > sigma:
        stages.append(s)
        s *= 0.5
    return tuple(stages)


def toy_solver_config(sigma: float, seed: int, restarts: int = 1) -> SolverConfig:
    return SolverConfig(
        method="irls",
        max_iters=60,
        tol=1e-8,
        ridge=None,
        restarts=restarts,
        seed=seed,
        anneal=anneal_ladder(sigma),
    )


def cross_validate_bandwidth(
    train: Dataset,
    spec: GainSpec,
    sigma: float,
    bandwidth_grid: Sequence[float],
    seed: int,
    folds: int = 5,
    center_cap: int = 500,
) -> tuple[float, list[tuple[float, float]]]:
    """Mean held-out gain per kernel bandwidth; ties go to the larger one."""
    cfg = toy_solver_config(sigma, seed)

    def fit(sub: Dataset, bw: float) -> FitReport:
        fmap = kernel_map(subsample_centers(sub.inputs, center_cap, seed), bw)
        return fit_egm(sub, spec, sigma, fmap, cfg)

    grid = [float(bw) for bw in bandwidth_grid]
    return kfold_select(train, spec, grid, fit, folds, seed, "bw-shuffle")


@dataclass(frozen=True)
class ToyFitResult:
    sigma: float
    bandwidth: float
    rmse_mean_ref: float
    rmse_mode_ref: float
    train_gain: float
    curve_x: np.ndarray
    curve_y: np.ndarray


def toy_fit_at_scale(
    train: Dataset,
    test: Dataset,
    sigma: float,
    seed: int,
    bandwidth_grid: Sequence[float] = TOY_BANDWIDTH_GRID,
    folds: int = 5,
    restarts: int = 3,
    center_cap: int = 500,
) -> ToyFitResult:
    spec = catalog()["gaussian"]
    bw, _ = cross_validate_bandwidth(train, spec, sigma, bandwidth_grid, seed, folds, center_cap)
    fmap = kernel_map(subsample_centers(train.inputs, center_cap, seed), bw)
    report = fit_egm(train, spec, sigma, fmap, toy_solver_config(sigma, seed, restarts))
    predictions = predict_batch(report.model, test.inputs)
    mean_ref, mode_ref = toy_references(test.inputs[:, 0])
    curve_x = np.linspace(0.0, 1.0, 101)
    curve_y = predict_batch(report.model, curve_x[:, None])
    return ToyFitResult(
        sigma=float(sigma),
        bandwidth=float(bw),
        rmse_mean_ref=float(np.sqrt(np.mean((predictions - mean_ref) ** 2))),
        rmse_mode_ref=float(np.sqrt(np.mean((predictions - mode_ref) ** 2))),
        train_gain=report.empirical_gain,
        curve_x=curve_x,
        curve_y=np.asarray(curve_y),
    )


def bench_toy(
    n_train: int,
    n_test: int,
    sigmas: Sequence[float],
    seed: int,
    bandwidth_grid: Sequence[float] = TOY_BANDWIDTH_GRID,
    folds: int = 5,
    restarts: int = 3,
) -> list[ToyFitResult]:
    train = gen_toy(n_train, seed)
    test = gen_toy(n_test, seed + 1)
    return [
        toy_fit_at_scale(train, test, sigma, seed, bandwidth_grid, folds, restarts)
        for sigma in sorted(float(s) for s in sigmas)
    ]


@dataclass(frozen=True)
class RateCell:
    n: int
    sigma: float
    theta_exponent: float
    egm_errors: tuple[float, ...]
    ols_errors: tuple[float, ...]

    @property
    def egm_median(self) -> float:
        return float(np.median(self.egm_errors))

    @property
    def ols_median(self) -> float:
        return float(np.median(self.ols_errors))


def _mc_sq_error(model_values: np.ndarray, truth_values: np.ndarray) -> float:
    return float(np.mean((model_values - truth_values) ** 2))


def bench_rates(
    gain_name: str,
    noise: NoiseSpec,
    epsilon: float,
    q: float,
    schedule: str,
    n_list: Sequence[int],
    reps: int,
    seed: int,
    truth=("constant", 1.0),
    restarts: int = 3,
) -> tuple[list[RateCell], float]:
    """Median squared population error per sample size, and its log-log slope."""
    ns = [int(n) for n in n_list]
    if len(ns) > 1 and any(b <= a for a, b in zip(ns, ns[1:])):
        raise InvalidParameterError("n_list must be strictly increasing")
    if reps < 1:
        raise InvalidParameterError(f"reps must be positive, got {reps}")
    spec = catalog()[gain_name]
    truth_fn, truth_label = truth_function(truth)
    cells: list[RateCell] = []
    for n in ns:
        sigma = sigma_schedule(schedule, epsilon, q, n)
        egm_errors, ols_errors = [], []
        for rep in range(reps):
            data = gen_location(n, truth, noise, derive_cell_seed(seed, n, rep))
            fmap = linear_map(data.inputs.shape[1])
            cfg = SolverConfig(method="irls", max_iters=100, tol=1e-9, restarts=restarts,
                               seed=derive_cell_seed(seed, n, rep))
            report = fit_egm(data, spec, sigma, fmap, cfg)
            x_mc = generator(seed, "rates-mc", n, rep).random((MC_POINTS, 1))
            truth_vals = truth_fn(x_mc)
            egm_errors.append(
                _mc_sq_error(predict_batch(report.model, x_mc), truth_vals)
            )
            ols = np.linalg.lstsq(
                np.hstack([data.inputs, np.ones((data.n, 1))]), data.outputs, rcond=None
            )[0]
            ols_vals = np.hstack([x_mc, np.ones((MC_POINTS, 1))]) @ ols
            ols_errors.append(_mc_sq_error(ols_vals, truth_vals))
        cells.append(
            RateCell(
                n=n,
                sigma=sigma,
                theta_exponent=schedule_exponent(schedule, epsilon, q),
                egm_errors=tuple(egm_errors),
                ols_errors=tuple(ols_errors),
            )
        )
    xs = np.log([c.n for c in cells])
    ys = np.log([max(c.egm_median, 1e-300) for c in cells])
    slope = float(np.polyfit(xs, ys, 1)[0]) if len(cells) > 1 else 0.0
    return cells, slope


def derive_cell_seed(seed: int, n: int, rep: int) -> int:
    # Stable per-cell seed so cells are independent of execution order.
    return derive_key(seed, "rates-cell", n, rep) % (2**63)
