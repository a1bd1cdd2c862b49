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
from gainreg.bench import anneal_ladder, bench_rates, bench_toy, cross_validate_bandwidth


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


def test_rates_requires_increasing_sizes():
    noise = gr.NoiseSpec.gaussian(0.0, 1.0)
    with pytest.raises(gr.InvalidParameterError):
        bench_rates("triweight", noise, 1.0, 1.0, "theta1", [200, 100], reps=2, seed=0)


def test_bandwidth_cv_prefers_sensible_scale():
    train = gr.gen_toy(150, seed=5)
    spec = gr.catalog()["gaussian"]
    best, table = cross_validate_bandwidth(train, spec, 10.0, (0.05, 0.2, 1.0), seed=5, folds=3)
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


def test_bench_toy_scales_share_rank_bases_without_moving_a_bit(monkeypatch):
    # Process-shared, since the fits may run in forked workers.
    svds = multiprocessing.Value("i", 0)
    svd = np.linalg.svd

    def counted_svd(*a, **k):
        with svds.get_lock():
            svds.value += 1
        return svd(*a, **k)

    monkeypatch.setattr(np.linalg, "svd", counted_svd)
    args = dict(n_train=40, n_test=30, seed=3, folds=3, restarts=2)
    alone = bench_toy(sigmas=[0.05], **args) + bench_toy(sigmas=[10.0], **args)
    separate = svds.value
    svds.value = 0
    together = bench_toy(sigmas=[10.0, 0.05], **args)
    assert _rows(together) == _rows(alone)
    # The second scale repeats the first one's 15 (fold, bandwidth) matrices.
    assert svds.value <= separate - 15
    assert solver._shared_bases is None


def _cpus(monkeypatch, cpus):
    """Let ``bench_toy`` see ``cpus`` CPUs, with OpenBLAS told to run one thread."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: cpus)
    monkeypatch.setenv("OPENBLAS_NUM_THREADS", "1")


def test_rank_basis_cache_ends_with_the_call_that_raised(monkeypatch):
    # Process-shared, since with two CPUs the fits run in forked workers: the
    # number of fits seen and the cache size after the last one.
    seen = multiprocessing.Value("i", 0)
    seen_last = multiprocessing.Value("i", -1)
    fit_egm = bench.fit_egm

    def failing_fit(*args, **kwargs):
        report = fit_egm(*args, **kwargs)
        with seen.get_lock():
            seen.value += 1
            seen_last.value = len(solver._shared_bases)
            count = seen.value
        if count == 4:
            raise gr.DegenerateIterateError("stop here")
        return report

    monkeypatch.setattr(bench, "fit_egm", failing_fit)
    # One CPU raises in this process, two in a worker; the block is this process's.
    for cpus in ({0}, {0, 1}):
        _cpus(monkeypatch, cpus)
        seen.value, seen_last.value = 0, -1
        with pytest.raises(gr.DegenerateIterateError, match="stop here"):
            bench_toy(40, 30, [0.05, 10.0], seed=3, folds=3, restarts=1)
        assert seen_last.value > 0 and solver._shared_bases is None
    # Outside a bench_toy call nothing is cached, so a plain fit hashes nothing.
    data = gr.gen_toy(40, 3)
    fmap = gr.kernel_map(data.inputs, 0.5)
    fit_egm(data, gr.catalog()["gaussian"], 1.0, fmap)
    assert solver._shared_bases is None


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


def test_a_pool_that_cannot_start_falls_back_in_process(monkeypatch):
    _cpus(monkeypatch, {0, 1})
    pooled = bench_toy(**TOY)
    # The first worker forks, the second cannot; the first one is ended.
    forks = _count_forks(monkeypatch, fail_at=2)
    assert _rows(bench_toy(**TOY)) == _rows(pooled)
    assert len(forks) == 2 and multiprocessing.active_children() == []


def test_an_in_process_call_keeps_an_enclosing_cache(monkeypatch):
    _cpus(monkeypatch, {0})
    with solver.shared_rank_bases():
        outer = solver._shared_bases
        bench_toy(**TOY)
        # The 15 (fold, bandwidth) splits and the final fits' matrices stay cached.
        assert solver._shared_bases is outer and len(outer) >= 15
    assert solver._shared_bases is None


def test_a_worker_that_dies_is_an_error_not_a_wait(monkeypatch):
    # A worker killed mid-task (say, for memory) loses its task; the call ends
    # with an error instead of waiting for it.
    _cpus(monkeypatch, {0, 1})
    parent = os.getpid()
    fit_egm = bench.fit_egm

    def dying_fit(*args, **kwargs):
        if os.getpid() != parent:
            os._exit(9)
        return fit_egm(*args, **kwargs)

    monkeypatch.setattr(bench, "fit_egm", dying_fit)
    with pytest.raises(gr.GainRegError, match="worker process ended"):
        bench_toy(**TOY)
    assert multiprocessing.active_children() == []
