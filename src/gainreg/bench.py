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
from dataclasses import dataclass
from functools import partial
from typing import Callable, Iterator, Sequence

import numpy as np

from .errors import GainRegError, InvalidParameterError
from .features import DEFAULT_CENTER_CAP, kernel_map, linear_map, subsample_centers
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
    shared_rank_bases,
    sigma_schedule,
)

TOY_BANDWIDTH_GRID = (0.05, 0.1, 0.2, 0.5, 1.0)
ANNEAL_START = 8.0
MC_POINTS = 10_000


def anneal_ladder(sigma: float) -> tuple[float, ...]:
    """Halving chain of scales from ``ANNEAL_START`` down to (but above) ``sigma``."""
    if not sigma > 0:  # the halving chain would never end
        raise InvalidParameterError(f"sigma must be positive, got {sigma}")
    stages = []
    s = ANNEAL_START
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


def _split_fits(
    sub: Dataset,
    bw: float,
    *,
    spec: GainSpec,
    seed: int,
    scales: Sequence[tuple[float, SolverConfig]],
) -> list[FitReport]:
    """One training split's kernel fit at every (scale, config)."""
    fmap = kernel_map(subsample_centers(sub.inputs, DEFAULT_CENTER_CAP, seed), bw)
    return [fit_egm(sub, spec, sigma, fmap, cfg) for sigma, cfg in scales]


def cross_validate_bandwidth(
    train: Dataset,
    spec: GainSpec,
    sigma: float,
    bandwidth_grid: Sequence[float],
    seed: int,
    folds: int = 5,
) -> tuple[float, list[tuple[float, float]]]:
    """Mean held-out gain per kernel bandwidth; ties go to the larger one."""
    scales = [(sigma, toy_solver_config(sigma, seed))]
    fit = partial(_split_fits, spec=spec, seed=seed, scales=scales)
    grid = [float(bw) for bw in bandwidth_grid]
    return kfold_select(train, spec, grid, fit, folds, seed, "bw-shuffle")[0]


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
    fmap = kernel_map(subsample_centers(train.inputs, DEFAULT_CENTER_CAP, seed), bandwidth)
    report = fit_egm(
        train, catalog()["gaussian"], sigma, fmap, toy_solver_config(sigma, seed, restarts)
    )
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
    """Toy fits at each scale, each at the bandwidth its cross-validation picks.

    Every scale's bandwidth cross-validation splits the same training set the
    same way, so one task fits a (bandwidth, fold) split at every scale.  The
    split tasks, then the per-scale final fits, run through ``_worker_map``
    inside one ``shared_rank_bases()`` block: in this process it spans every
    fit, and each forked worker inherits it empty, so the scales share a split's
    rank basis and, where they pick the same bandwidth, the final fits theirs.
    """
    train = gen_toy(n_train, seed)
    test = gen_toy(n_test, seed + 1)
    spec = catalog()["gaussian"]
    scales = [(s, toy_solver_config(s, seed)) for s in sorted(float(s) for s in sigmas)]
    if not scales:
        return []
    grid = list(TOY_BANDWIDTH_GRID)
    split = partial(_split_fits, spec=spec, seed=seed, scales=scales)

    def final(task: int) -> ToyFitResult:
        scale, bw = divmod(task, len(grid))
        return toy_fit_at_scale(train, test, scales[scale][0], grid[bw], seed, restarts)

    with shared_rank_bases(), _worker_map(final) as mapper:
        choices = kfold_select(train, spec, grid, split, folds, seed, "bw-shuffle", mapper)
        return mapper(final, [i * len(grid) + grid.index(bw) for i, (bw, _) in enumerate(choices)])


# The task functions of a pool's workers, set in each worker by the pool's
# initializer; they reach it through the fork, so only (function, task) indices
# and results cross the pipe.
_worker_tasks: tuple[Callable[[int], object], ...] = ()


def _inherit_tasks(functions: tuple[Callable[[int], object], ...]) -> None:
    global _worker_tasks
    _worker_tasks = functions


def _run_task(job: tuple[int, int]) -> object:
    which, task = job
    return _worker_tasks[which](task)


def _fork_executor(functions: tuple[Callable[[int], object], ...], tasks: int):
    """A fork-context executor whose workers run ``functions``, one per CPU this
    process may run on and at most ``tasks``, its workers already forked.

    None with one worker; when OpenBLAS was not told to run one thread (each
    worker would run its own BLAS threads: unpinned, a 2-CPU host ran the toy
    acceptance test 5x slower in two workers than in one process); without
    ``fork`` or ``os.sched_getaffinity`` (macOS, whose system libraries are not
    fork-safe); while other threads run (a fork copies the locks they hold); or
    when a fork fails.
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

    if "fork" not in multiprocessing.get_all_start_methods():
        return None
    before = set(multiprocessing.active_children())
    executor = ProcessPoolExecutor(
        workers, multiprocessing.get_context("fork"),
        initializer=_inherit_tasks, initargs=(functions,),
    )
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
def _worker_map(*later: Callable[[int], object]) -> Iterator[Callable]:
    """A ``map(fn, tasks)`` over forked worker processes for the length of the block.

    The workers fork at the first call and inherit that call's ``fn`` and the
    ``later`` functions with the data their closures hold; any other function
    runs in this process.  Results come back in task order, the same for any
    worker count; without an executor every call is the builtin ``map`` here.
    An error in a task is raised here with its type and message, a worker that
    dies (say, killed for memory) is a ``GainRegError``, and the workers end
    with the block, once the tasks they are running finish.
    """
    executor = None
    functions: tuple[Callable[[int], object], ...] = ()

    def mapper(fn: Callable[[int], object], tasks) -> list:
        nonlocal executor, functions
        tasks = list(tasks)
        if not functions:
            functions = (fn, *later)
            executor = _fork_executor(functions, len(tasks))
        if executor is None or fn not in functions:
            return list(map(fn, tasks))
        from concurrent.futures.process import BrokenProcessPool

        jobs = [(functions.index(fn), task) for task in tasks]
        try:
            return list(executor.map(_run_task, jobs))
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
