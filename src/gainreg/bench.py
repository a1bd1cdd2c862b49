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

import os
import threading
from contextlib import contextmanager
from dataclasses import dataclass, replace
from functools import partial
from typing import Callable, Iterator, Sequence

import numpy as np

from .errors import GainRegError, InvalidParameterError
from .features import DEFAULT_CENTER_CAP, design_matrix, kernel_map, linear_map, subsample_centers
from .gains import catalog
from .rng import derive_key, generator
from .simulate import Dataset, NoiseSpec, gen_location, gen_toy, toy_references, truth_function
from .solver import (
    FitReport,
    best_candidate,
    default_config,
    fit_egm,
    fit_scales,
    halving_ladder,
    kfold_select,
    predict_batch,
    schedule_exponent,
    sigma_schedule,
)

TOY_BANDWIDTH_GRID = (0.05, 0.1, 0.2, 0.5, 1.0)
ANNEAL_START = 8.0
MC_POINTS = 10_000


def _toy_fit(
    data: Dataset, bandwidth: float, sigmas: Sequence[float], seed: int, restarts: int
) -> list[FitReport]:
    """The toy's fits, one per scale: the gaussian gain on one kernel dictionary, each
    annealed down to its scale.  Every halving chain is a prefix of the smallest scale's."""
    spec = catalog()["gaussian"]
    fmap = kernel_map(subsample_centers(data.inputs, DEFAULT_CENTER_CAP, seed), bandwidth)
    cfg = default_config(spec, max_iters=60, tol=1e-8, restarts=restarts, seed=seed,
                         anneal=halving_ladder(ANNEAL_START, min(sigmas)))
    return fit_scales(data, spec, sigmas, fmap, cfg)


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
    bandwidth: float,
    seed: int,
    restarts: int = 3,
) -> ToyFitResult:
    """The final fit at one scale and its cross-validated bandwidth, scored on the test set."""
    report = _toy_fit(train, bandwidth, (sigma,), seed, restarts)[0]
    predictions = predict_batch(report.model, test.inputs)
    mean_ref, mode_ref = toy_references(test.inputs[:, 0])
    curve_x = np.linspace(0.0, 1.0, 101)
    curve_y = predict_batch(report.model, curve_x[:, None])
    return ToyFitResult(
        sigma=float(sigma),
        bandwidth=float(bandwidth),
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
    folds: int = 5,
    restarts: int = 3,
) -> list[ToyFitResult]:
    """Toy fits at each distinct scale, ascending, at the bandwidth its cross-validation picks.

    Every scale's bandwidth cross-validation splits the same training set the
    same way, so one task fits a (bandwidth, fold) split at every scale in one
    ``fit_scales`` call, and each scale's bandwidth is ``best_candidate`` of its
    column of the held-out table.  The split tasks, then one final fit per
    (scale, bandwidth) task, run through ``_worker_map``, sized by the split tasks.
    """
    train = gen_toy(n_train, seed)
    test = gen_toy(n_test, seed + 1)
    spec = catalog()["gaussian"]
    scales = sorted({float(s) for s in sigmas})
    if not scales:
        raise InvalidParameterError("the toy benchmark needs at least one scale")
    with _worker_map(len(TOY_BANDWIDTH_GRID) * folds) as mapper:
        table = kfold_select(train, spec, TOY_BANDWIDTH_GRID,
                             partial(_toy_fit, sigmas=scales, seed=seed, restarts=1), folds,
                             seed, "bw-shuffle", mapper)
        bandwidths = [best_candidate(TOY_BANDWIDTH_GRID, column) for column in zip(*table)]
        final = partial(_final_fit, train, test, seed=seed, restarts=restarts)
        return mapper(final, scales, bandwidths)


# Mapped, as ``_toy_fit`` is: module-level, so it pickles by name, and looks up
# toy_fit_at_scale when called, so a wrapper put in its place (a tracer's) runs.
def _final_fit(train: Dataset, test: Dataset, sigma: float, bandwidth: float,
               seed: int, restarts: int) -> ToyFitResult:
    return toy_fit_at_scale(train, test, sigma, bandwidth, seed, restarts)


def _fork_executor(tasks: int):
    """A fork-context executor, one worker per CPU this process may run on and at
    most ``tasks``, its workers already forked.

    None with one worker; when OpenBLAS was not told to run one thread (each
    worker would run its own BLAS threads: unpinned, a 2-CPU host ran the toy
    acceptance test 5x slower in two workers than in one process); without
    ``os.sched_getaffinity`` (macOS, whose system libraries are not fork-safe;
    every platform with it has ``fork``); while other threads run (a fork copies
    the locks they hold); or when a fork fails.
    """
    blas_threads = os.environ.get("OPENBLAS_NUM_THREADS", os.environ.get("OMP_NUM_THREADS"))
    if (
        blas_threads != "1"
        or not hasattr(os, "sched_getaffinity")
        or threading.active_count() > 1
    ):
        return None
    workers = min(len(os.sched_getaffinity(0)), tasks)
    if workers < 2:
        return None
    # Imported here, so neither importing gainreg nor an in-process call pays for them.
    import multiprocessing
    from concurrent.futures import ProcessPoolExecutor

    before = set(multiprocessing.active_children())
    executor = ProcessPoolExecutor(workers, multiprocessing.get_context("fork"))
    try:
        executor.submit(int)  # the first submit forks every worker
    except OSError:
        executor.shutdown(wait=False)
        for worker in set(multiprocessing.active_children()) - before:
            worker.kill()  # forked before the fork that failed, and waiting for work
            worker.join()
        return None
    return executor


@contextmanager
def _worker_map(tasks: int) -> Iterator[Callable]:
    """A ``map(fn, *iterables)`` over forked worker processes for the length of the block.

    The workers fork when the block opens, at most ``tasks`` of them.  Each call's
    ``fn`` and tasks are pickled to them and the results pickled back, so ``fn``
    must pickle: a module-level function, or a ``functools.partial`` of one.
    Results come back in task order, the same for any worker count; without an
    executor every call is the builtin ``map`` here.  An error in a task is
    raised here with its type and message, a worker that dies (say, killed for
    memory) is a ``GainRegError``, and the workers end with the block, once the
    tasks they are running finish.
    """
    executor = _fork_executor(tasks)

    def mapper(fn: Callable, *iterables) -> list:
        if executor is None:
            return list(map(fn, *iterables))
        from concurrent.futures.process import BrokenProcessPool

        try:
            return list(executor.map(fn, *iterables))
        except BrokenProcessPool:
            raise GainRegError("a worker process ended mid-task") from None

    try:
        yield mapper
    finally:
        if executor is not None:
            executor.shutdown(wait=True, cancel_futures=True)


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
    if len(ns) < 2:
        raise InvalidParameterError("a log-log slope needs at least two sample sizes")
    if any(b <= a for a, b in zip(ns, ns[1:])):
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
            cfg = default_config(spec, max_iters=100, tol=1e-9, restarts=restarts,
                                 seed=derive_cell_seed(seed, n, rep))
            report = fit_egm(data, spec, sigma, fmap, cfg)
            x_mc = generator(seed, "rates-mc", n, rep).random((MC_POINTS, 1))
            truth_vals = truth_fn(x_mc)
            egm_errors.append(
                _mc_sq_error(predict_batch(report.model, x_mc), truth_vals)
            )
            ols = np.linalg.lstsq(design_matrix(fmap, data.inputs), data.outputs, rcond=None)[0]
            ols_model = replace(report.model, coefficients=ols, clip=False)
            ols_errors.append(_mc_sq_error(predict_batch(ols_model, x_mc), truth_vals))
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
    slope = float(np.polyfit(xs, ys, 1)[0])
    return cells, slope


def derive_cell_seed(seed: int, n: int, rep: int) -> int:
    # Stable per-cell seed so cells are independent of execution order.
    return derive_key(seed, "rates-cell", n, rep) % (2**63)
