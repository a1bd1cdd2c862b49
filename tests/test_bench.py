"""Benchmark plumbing: schedules drive scales, errors shrink with data."""

import multiprocessing
import os
import subprocess
import sys
import threading
from pathlib import Path

import numpy as np
import pytest

import gainreg as gr
from gainreg import bench, solver
from gainreg.bench import anneal_ladder, bench_rates, bench_toy


def test_anneal_ladder():
    assert anneal_ladder(10.0) == ()
    assert anneal_ladder(0.6) == (8.0, 4.0, 2.0, 1.0)
    ladder = anneal_ladder(0.05)
    assert ladder[0] == 8.0 and all(a > b for a, b in zip(ladder, ladder[1:]))
    assert ladder[-1] > 0.05
    for sigma in (0.0, -1.0):  # a halving chain never reaches them
        with pytest.raises(gr.InvalidParameterError):
            anneal_ladder(sigma)


def test_rates_need_a_repetition():
    # Zero repetitions used to report NaN medians from empty slices.
    with pytest.raises(gr.InvalidParameterError):
        bench_rates("triweight", gr.NoiseSpec.gaussian(0.0, 1.0), 1.0, 1.0, "theta1",
                    [50], reps=0, seed=0)


def test_rates_light_tail_consistency():
    # Clean location model, seeded: the scheduled fit's error shrinks with n.
    noise = gr.NoiseSpec.gaussian(0.0, 1.0)
    cells, slope = bench_rates(
        "triweight", noise, 2.0, 1.0, "theta1", [50, 200, 800], reps=5, seed=0
    )
    medians = [c.egm_median for c in cells]
    assert all(b < a for a, b in zip(medians, medians[1:]))
    assert slope < 0


@pytest.mark.parametrize("name", ["triweight", "cauchy", "gaussian", "cosine", "quartic"])
def test_rates_negative_slope_for_strong_gains(name):
    noise = gr.NoiseSpec.contaminated(gr.NoiseSpec.gaussian(0.0, 1.0), 0.1, (-50.0, 50.0))
    cells, slope = bench_rates(name, noise, 1.0, 1.0, "theta1", [50, 400], reps=5, seed=2)
    assert slope < 0
    assert cells[0].sigma == gr.sigma_schedule("theta1", 1.0, 1.0, 50)


@pytest.mark.parametrize("name", ["laplace", "tricube", "triangular", "uniform"])
def test_rates_fit_every_gain_by_its_default_method(name):
    # These gains have no reweighting; the rates benchmark used to force IRLS on them.
    cells, slope = bench_rates(name, gr.NoiseSpec.gaussian(0.0, 1.0), 1.0, 1.0, "theta1",
                               [20, 40], reps=1, seed=0)
    assert [c.n for c in cells] == [20, 40]
    assert all(np.isfinite(c.egm_median) for c in cells) and np.isfinite(slope)


def test_rates_requires_increasing_sizes():
    noise = gr.NoiseSpec.gaussian(0.0, 1.0)
    with pytest.raises(gr.InvalidParameterError):
        bench_rates("triweight", noise, 1.0, 1.0, "theta1", [200, 100], reps=2, seed=0)


@pytest.mark.parametrize("sizes", [[50], []], ids=["one-size", "no-size"])
def test_rates_need_two_sizes_for_a_slope(sizes):
    # One size used to report a slope of 0.0 that was never measured.
    with pytest.raises(gr.InvalidParameterError, match="at least two sample sizes"):
        bench_rates("triweight", gr.NoiseSpec.gaussian(0.0, 1.0), 1.0, 1.0, "theta1",
                    sizes, reps=2, seed=0)


def test_toy_needs_a_scale():
    with pytest.raises(gr.InvalidParameterError, match="at least one scale"):
        bench_toy(20, 20, [], seed=0)


def test_bandwidth_cv_prefers_sensible_scale():
    train = gr.gen_toy(150, seed=5)
    spec = gr.catalog()["gaussian"]

    def fit(sub, bw):
        return bench._toy_fit(sub, bw, (10.0,), 5, 1)

    bandwidths = [0.05, 0.2, 1.0]
    held_out = solver.kfold_select(train, spec, bandwidths, fit, 3, 5, "bw-shuffle")
    assert [len(row) for row in held_out] == [1, 1, 1]  # one column: the one scale
    (column,) = zip(*held_out)
    best, table = solver.best_candidate(bandwidths, column), list(zip(bandwidths, column))
    assert best in (0.05, 0.2, 1.0)
    assert len(table) == 3
    # Wider kernels should beat near-interpolation for the smooth mean fit.
    scores = dict(table)
    assert max(scores[0.2], scores[1.0]) >= scores[0.05]


def test_bench_toy_output_shapes():
    results = bench_toy(60, 60, [0.5, 4.0], seed=1, folds=3, restarts=1)
    assert [r.sigma for r in results] == [0.5, 4.0]
    for r in results:
        assert r.curve_x.shape == (101,) and r.curve_y.shape == (101,)
        assert r.bandwidth in (0.05, 0.1, 0.2, 0.5, 1.0)
        assert r.train_gain > 0.0


def _rows(results):
    return [(r.sigma, r.bandwidth, r.rmse_mean_ref, r.rmse_mode_ref, r.train_gain,
             r.curve_x.tobytes(), r.curve_y.tobytes()) for r in results]


def test_bench_toy_runs_a_repeated_scale_once():
    once = bench_toy(40, 30, [10.0], seed=4, folds=3, restarts=1)
    assert _rows(bench_toy(40, 30, [10, 10.0], seed=4, folds=3, restarts=1)) == _rows(once)


def test_bench_toy_scales_share_rank_bases_without_moving_a_bit(monkeypatch):
    # Process-shared, since the fits may run in forked workers.  A rank basis comes
    # from eigh for a symmetric dictionary and from an SVD otherwise; count both.
    factored = multiprocessing.Value("i", 0)
    for name in ("svd", "eigh"):
        def counted(*a, _factor=getattr(np.linalg, name), **k):
            with factored.get_lock():
                factored.value += 1
            return _factor(*a, **k)

        monkeypatch.setattr(np.linalg, name, counted)
    args = dict(n_train=40, n_test=30, seed=3, folds=3, restarts=2)
    alone = bench_toy(sigmas=[0.05], **args) + bench_toy(sigmas=[10.0], **args)
    separate = factored.value
    factored.value = 0
    together = bench_toy(sigmas=[10.0, 0.05], **args)
    assert _rows(together) == _rows(alone)
    # The second scale repeats the first one's 15 (fold, bandwidth) matrices.
    assert factored.value <= separate - 15


def test_bench_toy_rows_at_many_scales_are_each_scale_alone():
    # One fit_scales call per split runs the four scales' shared ladder stages once.
    args = dict(n_train=40, n_test=30, seed=2, folds=2, restarts=1)
    sigmas = [0.05, 0.5, 2.0, 10.0]
    alone = [row for s in sigmas for row in _rows(bench_toy(sigmas=[s], **args))]
    assert _rows(bench_toy(sigmas=sigmas, **args)) == alone


def _cpus(monkeypatch, cpus):
    """Let ``bench_toy`` see ``cpus`` CPUs, with OpenBLAS told to run one thread."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: cpus)
    monkeypatch.setenv("OPENBLAS_NUM_THREADS", "1")


def test_bench_toy_bytes_repeat_across_fresh_interpreters(tmp_path):
    src = str(Path(gr.__file__).resolve().parent.parent)
    path = os.environ.get("PYTHONPATH")
    env = dict(os.environ, PYTHONPATH=src if not path else src + os.pathsep + path)
    outputs = []
    for tag in ("a", "b"):
        out = tmp_path / f"toy_{tag}.csv"
        subprocess.run(
            [sys.executable, "-m", "gainreg.cli", "bench", "toy", "--n-train", "50",
             "--n-test", "40", "--sigmas", "0.05,10", "--seed", "2", "--folds", "3",
             "--restarts", "2", "--out", str(out)],
            check=True, env=env, timeout=300,
        )
        meta = Path(str(out) + ".meta.json")
        outputs.append((out.read_bytes(), meta.read_bytes()))
    assert outputs[0] == outputs[1]


TOY = dict(n_train=40, n_test=30, sigmas=[0.05, 10.0], seed=4, folds=3, restarts=2)


def _count_forks(monkeypatch, fail_at=None):
    """Count the worker forks; the fork numbered ``fail_at`` raises OSError."""
    ctx = multiprocessing.get_context("fork")
    forks = []

    class CountedProcess(ctx.Process):
        def start(self):
            forks.append(self)
            if len(forks) == fail_at:
                raise OSError("no processes left")
            super().start()

    monkeypatch.setattr(ctx, "Process", CountedProcess)
    return forks


def test_in_process_runs_give_the_rows_of_the_pool(monkeypatch):
    forks = _count_forks(monkeypatch)
    _cpus(monkeypatch, {0, 1})
    pooled = _rows(bench_toy(**TOY))
    assert len(forks) == 2 and multiprocessing.active_children() == []
    # A fork would copy the locks another thread holds, so none happens while one runs.
    release = threading.Event()
    other = threading.Thread(target=release.wait)
    other.start()
    try:
        assert _rows(bench_toy(**TOY)) == pooled
    finally:
        release.set()
        other.join(timeout=60)
    assert not other.is_alive()
    _cpus(monkeypatch, {0})
    assert _rows(bench_toy(**TOY)) == pooled
    # Workers each running a multi-threaded BLAS would oversubscribe the CPUs.
    _cpus(monkeypatch, {0, 1})
    monkeypatch.setenv("OPENBLAS_NUM_THREADS", "2")
    assert _rows(bench_toy(**TOY)) == pooled
    assert len(forks) == 2


@pytest.mark.parametrize("cpus, workers", [({0, 1}, 2), ({0}, 0)], ids=["pooled", "in-process"])
def test_bench_toy_rows_are_pinned_for_unsorted_repeated_scales(monkeypatch, cpus, workers):
    # Each final fit's task is its own (scale, bandwidth).  The values were pinned when
    # tasks were still indices into the grid, to 1e-12 relative, since other BLAS builds
    # may round differently.
    forks = _count_forks(monkeypatch)
    _cpus(monkeypatch, cpus)
    rows = _rows(bench_toy(40, 30, [10.0, 0.5, 10.0], seed=4, folds=3, restarts=2))
    assert len(forks) == workers
    pinned = [(0.5, 1.0, 2.2390165555808896, 0.2916277085661897, 0.39633320908883135),
              (10.0, 0.5, 1.7488697887724773, 2.9795121070769035, 0.9246451948852485)]
    assert [row[:2] for row in rows] == [row[:2] for row in pinned]
    assert [row[2:5] for row in rows] == [pytest.approx(row[2:], rel=1e-12) for row in pinned]


def test_a_pool_that_cannot_start_falls_back_in_process(monkeypatch):
    _cpus(monkeypatch, {0, 1})
    pooled = bench_toy(**TOY)
    # The first worker forks, the second cannot; the first one is ended.
    forks = _count_forks(monkeypatch, fail_at=2)
    assert _rows(bench_toy(**TOY)) == _rows(pooled)
    assert len(forks) == 2 and multiprocessing.active_children() == []


def test_a_worker_that_dies_is_an_error_not_a_wait(monkeypatch):
    # A worker killed mid-task (say, for memory) loses its task; the call ends
    # with an error instead of waiting for it.
    _cpus(monkeypatch, {0, 1})
    parent = os.getpid()
    fit_scales = bench.fit_scales

    def dying_fit(*args, **kwargs):
        if os.getpid() != parent:
            os._exit(9)
        return fit_scales(*args, **kwargs)

    monkeypatch.setattr(bench, "fit_scales", dying_fit)
    with pytest.raises(gr.GainRegError, match="worker process ended"):
        bench_toy(**TOY)
    assert multiprocessing.active_children() == []


def _square(x):
    return x * x


def _negate(x):
    return -x


def _add(a, b):
    return a + b


@pytest.mark.parametrize("cpus, workers", [({0, 1}, 2), ({0}, 0)], ids=["pooled", "in-process"])
def test_one_worker_map_block_maps_two_module_level_functions(monkeypatch, cpus, workers):
    # Each call pickles its own function to the workers, so a block need not name
    # its functions up front, and a call may take several iterables, as map does.
    forks = _count_forks(monkeypatch)
    _cpus(monkeypatch, cpus)
    with bench._worker_map(5) as mapper:
        assert mapper(_square, range(5)) == [0, 1, 4, 9, 16]
        assert mapper(_negate, [1.5, 2]) == [-1.5, -2]
        assert mapper(_add, [1, 2, 3], (10, 20, 30)) == [11, 22, 33]
    assert len(forks) == workers and multiprocessing.active_children() == []


def test_a_wrapped_toy_fit_runs_in_the_workers(monkeypatch):
    # A tracer puts a local wrapper, which does not pickle, in place of
    # toy_fit_at_scale; the final fits look it up when they run, so it runs there.
    forks = _count_forks(monkeypatch)
    _cpus(monkeypatch, {0, 1})
    plain = _rows(bench_toy(**TOY))
    toy_fit_at_scale = bench.toy_fit_at_scale
    calls = multiprocessing.Value("i", 0)

    def traced(*args, **kwargs):
        with calls.get_lock():
            calls.value += 1
        return toy_fit_at_scale(*args, **kwargs)

    monkeypatch.setattr(bench, "toy_fit_at_scale", traced)
    assert _rows(bench_toy(**TOY)) == plain
    assert calls.value == len(TOY["sigmas"]) and len(forks) == 4
