"""Benchmark plumbing: schedules drive scales, errors shrink with data."""

import pytest

import gainreg as gr
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
