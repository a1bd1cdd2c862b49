"""Fitting behavior: exact recoveries, ascent guarantees, schedules, CV."""

import hashlib
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import gainreg as gr
from gainreg import bench, solver
from gainreg.cli import main
from gainreg.errors import (
    DegenerateIterateError,
    InvalidInputError,
    InvalidParameterError,
    SingularSystemError,
    UnsupportedOperationError,
)
from gainreg.rng import generator

TYPE2 = ["triweight", "epanechnikov", "cauchy", "gaussian", "cosine", "quartic"]


def linear_data(n=60, slope=1.5, intercept=-0.5, noise=0.1, seed=0):
    rng = np.random.default_rng(seed)
    x = rng.random(n)
    y = slope * x + intercept + noise * rng.standard_normal(n)
    return gr.Dataset(inputs=x[:, None], outputs=y)


def test_empirical_gain_perfect_fit(cat):
    data = linear_data(noise=0.0, seed=1)
    model = gr.HypothesisModel(
        feature_map=gr.linear_map(1), coefficients=np.array([1.5, -0.5]), M=5.0
    )
    assert gr.empirical_gain(model, data, cat["triweight"], 1.0) == pytest.approx(1.0)


def test_empirical_gain_uniform_consensus(cat):
    data = linear_data(noise=0.05, seed=2)
    model = gr.HypothesisModel(
        feature_map=gr.linear_map(1), coefficients=np.array([1.5, -0.5]), M=5.0
    )
    # All residuals inside [-sigma, sigma]: value is 1/(2 sigma) = 1.
    assert gr.empirical_gain(model, data, cat["uniform"], 0.5) == pytest.approx(1.0)
    # In general the value is the consensus fraction over 2 sigma.
    sigma = 0.03
    resid = data.outputs - (1.5 * data.inputs[:, 0] - 0.5)
    frac = np.mean(np.abs(resid) <= sigma)
    assert gr.empirical_gain(model, data, cat["uniform"], sigma) == pytest.approx(
        frac / (2 * sigma)
    )


def test_empirical_gain_empty_dataset(cat):
    data = gr.Dataset(inputs=np.zeros((0, 1)), outputs=np.zeros(0))
    model = gr.HypothesisModel(feature_map=gr.linear_map(1), coefficients=np.zeros(2), M=1.0)
    with pytest.raises(InvalidInputError):
        gr.empirical_gain(model, data, cat["gaussian"], 1.0)


def test_fit_recovers_noiseless_line(cat):
    data = linear_data(n=50, slope=2.0, intercept=1.0, noise=0.0, seed=3)
    cfg = gr.SolverConfig(method="irls", ridge=0.0, restarts=1)
    report = gr.fit_egm(data, cat["gaussian"], 10.0, gr.linear_map(1), cfg)
    assert np.allclose(report.model.coefficients, [2.0, 1.0], atol=1e-6)
    assert report.converged


def test_fit_single_observation_intercept(cat):
    data = gr.Dataset(inputs=np.array([[0.0]]), outputs=np.array([3.0]))
    report = gr.fit_egm(data, cat["gaussian"], 5.0, gr.linear_map(1), gr.SolverConfig())
    assert gr.predict(report.model, np.array([0.0])) == pytest.approx(3.0, abs=1e-6)


@pytest.mark.parametrize("name", TYPE2)
def test_irls_trace_monotone_without_ridge(cat, name):
    for trial in range(4):
        data = linear_data(seed=10 + trial)
        resid_scale = float(np.abs(data.outputs - np.mean(data.outputs)).max())
        sigma = 1.3 * resid_scale + 0.5
        cfg = gr.SolverConfig(method="irls", ridge=0.0, restarts=2, seed=trial)
        report = gr.fit_egm(data, cat[name], sigma, gr.linear_map(1), cfg)
        trace = np.asarray(report.gain_trace)
        assert np.all(np.diff(trace) >= -1e-10 * np.maximum(1.0, np.abs(trace[:-1])))


def test_best_of_restarts_dominance(cat):
    data = linear_data(seed=21)
    cfg = gr.SolverConfig(method="irls", restarts=5, seed=7)
    report = gr.fit_egm(data, cat["cauchy"], 2.0, gr.linear_map(1), cfg)
    assert report.empirical_gain == max(report.restart_gains)
    assert all(report.empirical_gain >= g for g in report.restart_gains)


@pytest.mark.parametrize("name, method", [("cauchy", "irls"), ("laplace", "gradient")])
def test_restart_gain_is_its_final_stage_trace_end(cat, name, method):
    # Bit for bit: a restart's gain is the last entry of its final stage's trace,
    # and that is the empirical gain of the fitted model.
    data = linear_data(seed=22, noise=0.5)
    cfg = gr.SolverConfig(method=method, restarts=3, seed=3, anneal=(4.0, 2.0, 1.0))
    report = gr.fit_egm(data, cat[name], 0.5, gr.linear_map(1), cfg)
    assert report.empirical_gain == report.gain_trace[-1] == max(report.restart_gains)
    assert report.empirical_gain == gr.empirical_gain(report.model, data, cat[name], 0.5)


def test_gradient_method_never_decreases(cat):
    data = linear_data(seed=30)
    cfg = gr.SolverConfig(method="gradient", max_iters=150, tol=1e-10, restarts=1)
    report = gr.fit_egm(data, cat["laplace"], 2.0, gr.linear_map(1), cfg)
    trace = np.asarray(report.gain_trace)
    assert np.all(np.diff(trace) >= -1e-14)
    # Should land close to the best residual location.
    assert report.empirical_gain > 0.8


def _counting_gain_calls(monkeypatch):
    """Record the residual arrays of each gain evaluation the solver's gradient stages
    make, and of each slope they finish."""
    seen = {"gain": [], "derivative": []}
    real = solver.gain_sloper

    def sloper(spec, sigma):
        evaluate = real(spec, sigma)

        def counted(residuals):
            seen["gain"].append(residuals)
            gain, slope = evaluate(residuals)

            def counted_slope():
                seen["derivative"].append(residuals)
                return slope()

            return gain, counted_slope

        return counted

    monkeypatch.setattr(solver, "gain_sloper", sloper)
    return seen


def test_gradient_stage_evaluates_each_candidate_once(cat, monkeypatch):
    # One gain evaluation per candidate, one slope per iteration, and each
    # gradient reads the residuals of the candidate just accepted.
    data = linear_data(seed=30)
    X = gr.design_matrix(gr.linear_map(1), data.inputs)
    cfg = gr.SolverConfig(method="gradient", max_iters=150, tol=1e-10)
    seen = _counting_gain_calls(monkeypatch)
    coeffs, iters, _, trace = solver._gradient_stage(
        X, data.outputs, np.zeros(2), cat["laplace"], 2.0, cfg
    )
    assert len(seen["derivative"]) == iters > 5
    assert len(trace) == iters + 1  # stopped by the tolerance, after an accepted step
    residuals = seen["gain"]
    for i, a in enumerate(residuals):
        assert not any(np.array_equal(a, b) for b in residuals[i + 1:])
    assert all(any(r is a for a in residuals) for r in seen["derivative"])
    assert np.array_equal(residuals[-1], data.outputs - X @ coeffs)


def test_gradient_fit_stays_under_its_evaluation_budget(cat, monkeypatch):
    # The problem of test_gradient_method_never_decreases.  Two-point steps take 58
    # gain evaluations; doubling after every success and halving back took 71.
    seen = _counting_gain_calls(monkeypatch)
    data = linear_data(seed=30)
    cfg = gr.SolverConfig(method="gradient", max_iters=150, tol=1e-10, restarts=1)
    report = gr.fit_egm(data, cat["laplace"], 2.0, gr.linear_map(1), cfg)
    assert report.converged and report.empirical_gain > 0.96
    assert len(seen["gain"]) <= 60


@pytest.mark.parametrize("name", ["laplace", "tricube", "triangular"])
def test_gradient_traces_are_monotone_on_every_anneal_stage(cat, monkeypatch, name):
    traces = []
    real = solver._gradient_stage

    def stage(X, y, coeffs, spec, sigma, cfg):
        record = real(X, y, coeffs, spec, sigma, cfg)
        traces.append(record.trace)
        return record

    monkeypatch.setattr(solver, "_gradient_stage", stage)
    data = _outlier_data(lambda x: 1.5 * x - 0.5, seed=7)
    cfg = gr.SolverConfig(method="gradient", restarts=3, seed=2, anneal=(8.0, 4.0, 2.0))
    report = gr.fit_egm(data, cat[name], 1.0, gr.linear_map(1), cfg)
    assert len(traces) == 3 * 4  # three restarts of four stages
    for trace in traces:
        assert len(trace) > 1 and np.all(np.diff(trace) >= 0.0)
    assert report.gain_trace in [tuple(t) for t in traces[3::4]]


@pytest.mark.parametrize("name", ["laplace", "triangular", "tricube"])
def test_gradient_fits_step_back_from_residuals_past_the_gain_range(cat, name):
    # With x near 1e30 the first trial step puts residuals past 1e50 sigma; such a
    # candidate is a failed try and the step halves, where the search used to raise.
    data = linear_data(n=50, seed=0)
    huge = replace(data, inputs=1e30 * data.inputs)
    report = gr.fit_egm(huge, cat[name], 1.0, gr.linear_map(1))
    assert report.method == "gradient"
    assert report.empirical_gain >= report.gain_trace[0] > 0.5  # the anchor's gain
    # Residuals past the range at the stage's start still raise.
    X = gr.design_matrix(gr.linear_map(1), huge.inputs)
    with pytest.raises(InvalidInputError, match="1e\\+50 sigma"):
        solver._gradient_stage(X, huge.outputs, np.array([1e30, 0.0]), cat[name], 1.0,
                               gr.SolverConfig(method="gradient"))


def _digest(*arrays) -> str:
    h = hashlib.sha256()
    for a in arrays:
        h.update(np.asarray(a, dtype=float).tobytes())
    return h.hexdigest()[:24]


def _contaminated_linear(n, seed):
    noise = gr.NoiseSpec.contaminated(gr.NoiseSpec.gaussian(0.0, 1.0), 0.1, (-50.0, 50.0))
    return gr.gen_location(n, "linear:2:1", noise, seed)


@pytest.mark.parametrize("name,method,pinned", [
    ("triweight", None, "c9e62a75527d5a4c98ca49e2"),
    ("epanechnikov", None, "b0eed00b2e149b528977d341"),
    ("cauchy", None, "0cfc14742776a1e1ee66d62b"),
    ("gaussian", None, "6f9057ae329dc33c38a90b3a"),
    ("laplace", None, "e9e56ea6107dba114a382241"),
    ("cosine", None, "10986c1b0058bf7c890a002a"),
    ("uniform", None, "3a99a5f92bca21179c806069"),
    ("tricube", None, "add2d918806aa218a8e850d6"),
    ("quartic", None, "5cdddc1426b6fa333f59a361"),
    ("triangular", None, "4dc5fc083294356a4cf9942b"),
    ("triweight", "gradient", "0b6c77d18daceaf5a1c3d1ca"),
    ("epanechnikov", "gradient", "ef961526c4dda0f4ec4c50e2"),
    ("cauchy", "gradient", "45936fc0eae00a5dab0809b7"),
    ("gaussian", "gradient", "7905f6267d72942f42f4a25d"),
    ("cosine", "gradient", "bb519a78899b0f6026993cba"),
    ("quartic", "gradient", "3ae5706c2a4af59591c4af2f"),
])
def test_catalog_fits_keep_their_bytes(cat, name, method, pinned):
    # The coefficients, gain trace, restart gains and iteration count of every catalog
    # gain's fit, by its default method and by gradient ascent, on one contaminated
    # set, taken when each stage evaluated phi and its weights or slopes in separate
    # calls (the box gain's after its leaders took a stable sort).
    spec = cat[name]
    cfg = gr.default_config(spec, restarts=3, anneal=(8.0, 4.0))
    report = gr.fit_egm(_contaminated_linear(800, 5), spec, 1.0, gr.linear_map(1),
                        cfg if method is None else replace(cfg, method=method))
    assert _digest(report.model.coefficients, report.gain_trace, report.restart_gains,
                   [report.iterations]) == pinned


def test_catalog_cv_table_keeps_its_bytes(cat):
    spec = cat["triweight"]
    cfg = gr.default_config(spec, restarts=3, anneal=(8.0, 4.0))
    best, table = gr.cross_validate_sigma(_contaminated_linear(800, 5), spec,
                                          [0.5, 1.0, 2.0, 4.0], gr.linear_map(1), cfg)
    assert _digest([best], table) == "826edc0cad7cb410bea217cd"


@pytest.mark.parametrize("name", [n for n in TYPE2 + ["laplace", "tricube", "triangular"]])
def test_gradient_matches_finite_differences(cat, name):
    spec = cat[name]
    fmap = gr.linear_map(1)
    rng = np.random.default_rng(hash(name) % 2**32)
    checked = 0
    attempts = 0
    while checked < 10 and attempts < 40:
        attempts += 1
        x = rng.random(30)
        y = rng.standard_normal(30)
        data = gr.Dataset(inputs=x[:, None], outputs=y)
        coeffs = rng.standard_normal(2)
        sigma = 2.0
        resid = y - (x * coeffs[0] + coeffs[1])
        u = np.abs(resid) / sigma
        if np.any(np.abs(u - 1.0) < 1e-3) or np.any(u < 1e-3):
            continue  # keep probes away from kinks
        model = gr.HypothesisModel(feature_map=fmap, coefficients=coeffs, M=50.0)
        analytic = gr.gain_gradient(model, data, spec, sigma)
        fd = np.zeros(2)
        for j in range(2):
            h = 1e-6 * max(1.0, abs(coeffs[j]))
            up, dn = coeffs.copy(), coeffs.copy()
            up[j] += h
            dn[j] -= h
            m_up = gr.HypothesisModel(feature_map=fmap, coefficients=up, M=50.0)
            m_dn = gr.HypothesisModel(feature_map=fmap, coefficients=dn, M=50.0)
            fd[j] = (
                gr.empirical_gain(m_up, data, spec, sigma)
                - gr.empirical_gain(m_dn, data, spec, sigma)
            ) / (2.0 * h)
        rel = np.linalg.norm(fd - analytic) / max(np.linalg.norm(analytic), 1e-10)
        assert rel < 1e-5, (name, rel)
        checked += 1
    assert checked == 10


def test_residual_location_equivariance(cat):
    data = linear_data(seed=40)
    shifted = gr.Dataset(inputs=data.inputs, outputs=data.outputs + 5.0)
    irls_cfg = gr.SolverConfig(method="irls", ridge=0.0, restarts=1)
    grad_cfg = gr.SolverConfig(method="gradient", ridge=0.0, restarts=1, max_iters=120)
    cases = [("gaussian", irls_cfg), ("cauchy", irls_cfg), ("triweight", irls_cfg),
             ("laplace", grad_cfg), ("tricube", grad_cfg)]
    for name, cfg in cases:
        base = gr.fit_egm(data, cat[name], 3.0, gr.linear_map(1), cfg)
        moved = gr.fit_egm(shifted, cat[name], 3.0, gr.linear_map(1), cfg)
        assert moved.model.coefficients[1] - base.model.coefficients[1] == pytest.approx(
            5.0, abs=1e-7
        ), name
        assert moved.empirical_gain == pytest.approx(base.empirical_gain, abs=1e-8), name


def test_sigma_scale_equivariance(cat):
    data = linear_data(seed=41)
    t = 3.7
    scaled = gr.Dataset(inputs=data.inputs, outputs=t * data.outputs)
    cfg = gr.SolverConfig(method="irls", ridge=0.0, restarts=1)
    for name in ("gaussian", "triweight"):
        base = gr.fit_egm(data, cat[name], 2.0, gr.linear_map(1), cfg)
        big = gr.fit_egm(scaled, cat[name], 2.0 * t, gr.linear_map(1), cfg)
        pred_base = gr.predict_batch(base.model, data.inputs)
        pred_big = gr.predict_batch(big.model, data.inputs)
        assert np.allclose(pred_big, t * pred_base, atol=1e-8 * t)
        assert big.empirical_gain == pytest.approx(base.empirical_gain, abs=1e-8)


def test_uniform_requires_grid_consensus(cat):
    data = linear_data(seed=50)
    with pytest.raises(UnsupportedOperationError):
        gr.fit_egm(data, cat["uniform"], 0.5, gr.linear_map(1),
                   gr.SolverConfig(method="irls"))
    with pytest.raises(UnsupportedOperationError):
        gr.fit_egm(data, cat["laplace"], 0.5, gr.linear_map(1),
                   gr.SolverConfig(method="irls"))
    with pytest.raises(UnsupportedOperationError):
        gr.fit_egm(data, cat["gaussian"], 0.5, gr.linear_map(1),
                   gr.SolverConfig(method="grid_consensus"))


def test_method_dispatch_follows_capabilities_not_names(cat):
    # A renamed spec keeps its solver: the method follows what the gain can do.
    data = linear_data(seed=51)
    box, both, ascent = ("grid_consensus",), ("irls", "gradient"), ("gradient",)
    table = [(cat[name], both) for name in TYPE2]
    table += [(cat["uniform"], box)]
    table += [(cat[name], ascent) for name in ("laplace", "tricube", "triangular")]
    table += [(replace(cat["gaussian"], name="uniform"), both),
              (replace(cat["uniform"], name="box"), box),
              (replace(cat["laplace"], name="gaussian"), ascent),
              # A calibrated gain without its representing function cannot be reweighted.
              (replace(cat["cauchy"], representing_fn=None, representing_deriv=None), ascent)]
    assert set(cat) == {spec.name for spec, _ in table[: len(cat)]}
    for spec, methods in table:
        assert solver._methods(spec) == methods, spec.name
        cfg = gr.default_config(spec, seed=1)
        assert cfg.method == methods[0], spec.name
        assert gr.fit_egm(data, spec, 0.5, gr.linear_map(1)).method == methods[0]
        for method in ("irls", "gradient", "grid_consensus"):
            cfg = gr.SolverConfig(method=method, seed=1)
            if method in methods:
                assert gr.fit_egm(data, spec, 0.5, gr.linear_map(1), cfg).method == method
                continue
            with pytest.raises(UnsupportedOperationError, match=" or ".join(methods) + " can"):
                gr.fit_egm(data, spec, 0.5, gr.linear_map(1), cfg)


def test_cross_validation_routines_share_one_kfold_core(cat, monkeypatch):
    # Both public routines go through the one k-fold routine with their own stream.
    data = linear_data(n=40, seed=52)
    cfg = gr.SolverConfig(method="irls")
    calls = []
    real = solver.kfold_select

    def spy(*args):
        calls.append(args[6])  # the stream; bench_toy also passes a mapper
        return real(*args)

    monkeypatch.setattr(solver, "kfold_select", spy)
    monkeypatch.setattr(bench, "kfold_select", spy)
    gr.cross_validate_sigma(data, cat["gaussian"], [1.0, 2.0], gr.linear_map(1), cfg, 3)
    bench.bench_toy(40, 20, [4.0], seed=0, folds=3, restarts=1)
    assert calls == ["cv-shuffle", "bw-shuffle"]
    for folds in (0, 1):
        with pytest.raises(InvalidParameterError, match="at least 2 folds"):
            bench.bench_toy(20, 20, [4.0], 0, folds)
    with pytest.raises(InvalidParameterError, match="non-empty"):
        gr.cross_validate_sigma(data, cat["gaussian"], [], gr.linear_map(1), cfg, 3)


def test_cross_validate_sigma_fits_each_fold_once_at_every_scale(cat, monkeypatch):
    data = linear_data(n=40, seed=53)
    cfg = gr.SolverConfig(method="irls", restarts=2, anneal=(8.0, 4.0))
    calls = []
    real = solver.fit_scales

    def spy(train, spec, sigmas, *args):
        calls.append(list(sigmas))
        return real(train, spec, sigmas, *args)

    def refused(*args, **kwargs):
        raise AssertionError("cross_validate_sigma fitted one scale at a time")

    monkeypatch.setattr(solver, "fit_scales", spy)
    monkeypatch.setattr(solver, "fit_egm", refused)
    grid = [0.5, 1.0, 2.0, 1.0]
    gr.cross_validate_sigma(data, cat["gaussian"], grid, gr.linear_map(1), cfg, 4, seed=2)
    assert calls == [grid] * 4


def test_best_candidate_takes_the_best_score_then_the_larger_candidate():
    assert solver.best_candidate([0.5, 1.0, 2.0], [0.3, 0.9, 0.1]) == 1.0
    assert solver.best_candidate([0.5, 2.0, 1.0], [0.9, 0.9, 0.9]) == 2.0
    assert solver.best_candidate([3.0, 3.0], [0.2, 0.2]) == 3.0


def test_grid_consensus_recovers_majority_line(cat):
    rng = np.random.default_rng(60)
    n = 120
    x = rng.random(n)
    y = 2.0 * x + 1.0 + 0.02 * rng.standard_normal(n)
    outliers = rng.random(n) < 0.35
    y[outliers] = rng.uniform(-10.0, 10.0, size=outliers.sum())
    data = gr.Dataset(inputs=x[:, None], outputs=y)
    cfg = gr.SolverConfig(method="grid_consensus", seed=4)
    report = gr.fit_egm(data, cat["uniform"], 0.1, gr.linear_map(1), cfg)
    assert np.allclose(report.model.coefficients, [2.0, 1.0], atol=0.15)
    # Gain equals consensus fraction over 2 sigma and covers most inliers.
    frac = report.empirical_gain * 2 * 0.1
    assert frac >= 0.55
    # The rest of the report: 78 of 120 residuals within sigma, three sweeps, full rank.
    assert report.empirical_gain == 78 / (120 * 2 * 0.1)
    assert report.gain_trace == report.restart_gains == (report.empirical_gain,)
    assert (report.iterations, report.converged, report.rank) == (3, True, 2)
    assert (report.sigma, report.method) == (0.1, "grid_consensus")
    assert report.model.M == gr.default_sup_bound(y) and not report.model.clip


def test_grid_consensus_centres_on_zero_when_the_anchor_is_singular(cat, monkeypatch):
    # Every input at 0.5 and no ridge: the least-squares anchor is singular, so the
    # search centres on zero and still finds the 14 agreeing outputs.
    data = gr.Dataset(inputs=np.full((20, 1), 0.5), outputs=[5.0] * 14 + [-20.0] * 6)
    ols, raised = solver._ols, []

    def spy(*args):
        try:
            return ols(*args)
        except gr.SingularSystemError as exc:
            raised.append(exc)
            raise

    monkeypatch.setattr(solver, "_ols", spy)
    cfg = gr.SolverConfig(method="grid_consensus", ridge=0.0)
    report = gr.fit_egm(data, cat["uniform"], 0.5, gr.linear_map(1), cfg)
    assert len(raised) == 1
    assert report.model.coefficients.tolist() == [10.0, 0.0]
    assert report.empirical_gain == 14 / (20 * 2 * 0.5)


def _consensus_problem(n, seed):
    rng = np.random.default_rng(seed)
    X = np.column_stack([np.ones(n), rng.random(n)])
    y = X @ [1.0, 2.0] + 0.02 * rng.standard_normal(n)
    y[: n // 3] = rng.uniform(-10.0, 10.0, n // 3)
    return X, y


def test_grid_consensus_leads_with_the_largest_counts_then_the_lowest_index(cat, monkeypatch):
    # At n = 50 the 4000 candidates share at most 51 counts, so ties cross the cut of 8.
    seen = []
    real = solver._leaders

    def leaders(counts, k):
        top = real(counts, k)
        seen.append((counts.copy(), top))
        return top

    monkeypatch.setattr(solver, "_leaders", leaders)
    X, y = _consensus_problem(50, 64)
    solver._grid_consensus(X, y, cat["uniform"], 0.1, gr.SolverConfig(method="grid_consensus"))
    ((counts, top),) = seen
    reference = sorted(range(counts.size), key=lambda i: (-counts[i], i))
    assert top.tolist() == reference[:8]
    assert counts[reference[7]] == counts[reference[8]]  # a tie the cut splits


def test_grid_consensus_block_size_moves_no_bit(cat, monkeypatch):
    # At n = 500 the default budget counts 131 candidates a block and 70 in the last;
    # the patched one, 8 a block.
    X, y = _consensus_problem(500, 61)
    cfg = gr.SolverConfig(method="grid_consensus", seed=4)
    coeffs = solver._grid_consensus(X, y, cat["uniform"], 0.1, cfg)
    monkeypatch.setattr(solver, "_CONSENSUS_CELLS", solver._CONSENSUS_SAMPLES)
    assert coeffs.tobytes() == solver._grid_consensus(X, y, cat["uniform"], 0.1, cfg).tobytes()
    assert np.allclose(coeffs, [1.0, 2.0], atol=0.2)


def test_grid_consensus_never_counts_a_one_row_block(cat, monkeypatch):
    # At n = 2114 the default budget gives blocks of 31 rows, and 4000 = 129 * 31 + 1.
    # NumPy sends a one-row matmul to gemv, whose bits differ from gemm's, so the lone
    # row joins the block before it.
    X, y = _consensus_problem(2114, 64)
    cfg = gr.SolverConfig(method="grid_consensus", seed=4)
    rows, matmul = [], np.matmul

    def spy(a, b, **kw):
        rows.append(a.shape[0])
        return matmul(a, b, **kw)

    monkeypatch.setattr(np, "matmul", spy)
    coeffs = solver._grid_consensus(X, y, cat["uniform"], 0.1, cfg)
    assert rows == [31] * 128 + [32]
    monkeypatch.setattr(solver, "_CONSENSUS_CELLS", solver._CONSENSUS_SAMPLES * 2114)
    assert coeffs.tobytes() == solver._grid_consensus(X, y, cat["uniform"], 0.1, cfg).tobytes()
    assert rows[-1] == solver._CONSENSUS_SAMPLES


@pytest.mark.parametrize("n, pinned", [
    (50, "90a0693921a9f03ffa9ff6d18325ff3f"),
    (500, "74a6f340f4bdef3f4541639d7a270040"),
    (2114, "985cd82311b4ee3fb15677b30f070040"),
    (3200, "c6b15ef862a5ed3f2a27388049f90040"),
])
def test_grid_consensus_keeps_the_lexsort_search_bytes(cat, n, pinned):
    # The coefficients the search gave when its sweeps lexsorted 2n stacked events and
    # it counted candidates 256 rows at a time.
    X, y = _consensus_problem(n, 63)
    cfg = gr.SolverConfig(method="grid_consensus", seed=4)
    assert solver._grid_consensus(X, y, cat["uniform"], 0.1, cfg).tobytes().hex() == pinned


def test_grid_consensus_counts_in_blocks_not_one_matrix(cat):
    # All 4000 candidates' residuals at n = 3200 are a 102 MB matrix; one block is 0.5 MB.
    X, y = _consensus_problem(3200, 62)
    cfg = gr.SolverConfig(method="grid_consensus", seed=4)
    tracemalloc.start()
    try:
        solver._grid_consensus(X, y, cat["uniform"], 0.1, cfg)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2e6


def _lexsort_consensus_count(X, y, coeffs, radius):
    with np.errstate(over="ignore", invalid="ignore"):  # residuals past the double range
        return int(np.sum(np.abs(y - X @ coeffs) <= radius))


def _lexsort_coordinate_sweep(X, y, coeffs, radius):
    """Exact 1-d updates: choose each coordinate by interval stabbing."""
    coeffs = coeffs.copy()
    for j in range(X.shape[1]):
        col = X[:, j]
        active = np.abs(col) > 1e-12
        if not np.any(active):
            continue
        # Outputs near the double range overflow here; the caller's gain check rejects them.
        with np.errstate(over="ignore", invalid="ignore"):
            rest = y - X @ coeffs + col * coeffs[j]
            lo = (rest[active] - radius) / col[active]
            hi = (rest[active] + radius) / col[active]
            lows = np.minimum(lo, hi)
            highs = np.maximum(lo, hi)
            events = np.concatenate([np.stack([lows, np.ones_like(lows)], axis=1),
                                     np.stack([highs, -np.ones_like(highs)], axis=1)])
            order = np.lexsort((-events[:, 1], events[:, 0]))
            events = events[order]
            running = np.cumsum(events[:, 1])
            best = int(np.argmax(running))
            # The first event opens an interval and the last closes one at a count of 0,
            # so the best is never the last event.
            candidate = 0.5 * (events[best, 0] + events[best + 1, 0])
            base = np.sum(np.abs(rest[~active]) <= radius)
        if running[best] + base >= _lexsort_consensus_count(X, y, coeffs, radius):
            coeffs[j] = candidate
    return coeffs


def _sweep_case(family, rng):
    n, p = int(rng.integers(1, 40)), int(rng.integers(1, 4))
    if family == "integers":  # tied endpoints, and zeros of either sign
        X = rng.integers(-3, 4, (n, p)).astype(float)
        y = rng.integers(-5, 6, n).astype(float)
        start = rng.integers(-2, 3, p) * rng.choice([1.0, -1.0], p)
        return X, y, start, float(rng.choice([0.5, 1.0]))
    X = rng.standard_normal((n, p))
    y = X @ rng.standard_normal(p) + 0.01 * rng.standard_normal(n)
    start = rng.standard_normal(p)
    if family == "null columns":
        X[:, rng.integers(p)] = 0.0 if rng.random() < 0.5 else 1e-12 * rng.uniform(-1, 1, n)
        return X, y, start, 0.5
    if family == "overflow":  # residuals past the double range: inf and NaN
        return X, 1e300 * y, 1e300 * start * (rng.random() < 0.5), float(rng.choice([1e-3, 1.0]))
    return X, y, start, 1e-3


def _nan_canonical(a):
    return np.where(np.isnan(a), np.nan, a).tobytes()


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("family", ["integers", "null columns", "overflow", "narrow"])
def test_consensus_sweep_matches_the_lexsort_sweep(family):
    # The sorted-endpoint sweep gives the lexsort sweep's bits (NaN payloads aside: a
    # NaN candidate counts nothing, so it never leaves the search), three sweeps deep.
    rng = np.random.default_rng(["integers", "null columns", "overflow", "narrow"].index(family))
    for _ in range(500):
        X, y, ref, radius = _sweep_case(family, rng)
        new = ref
        for _ in range(solver._CONSENSUS_SWEEPS):
            ref = _lexsort_coordinate_sweep(X, y, ref, radius)
            new, count = solver._consensus_coordinate_sweep(X, y, new, radius)
            assert _nan_canonical(new) == _nan_canonical(ref)
            assert count == _lexsort_consensus_count(X, y, new, radius)


def _box2(cat, support_radius=2.0):
    return replace(cat["uniform"], name="box2", support_radius=support_radius,
                   generating_fn=lambda s: np.where(np.abs(s) <= 2.0, 0.25, 0.0))


def test_grid_consensus_fits_the_box_its_spec_gives(cat):
    # A box twice the catalog's width: the search counts residuals within 2 sigma,
    # and the reported gain is the spec's own, not the catalog box's count / (2 n sigma).
    data = gr.gen_location(200, ("linear", 2, 1), gr.NoiseSpec.gaussian(0, 1), seed=0)
    report = gr.fit_egm(data, _box2(cat), 1.0, gr.linear_map(1))
    assert report.empirical_gain == gr.empirical_gain(report.model, data, _box2(cat), 1.0)
    residuals = data.outputs - gr.predict_batch(report.model, data.inputs)
    # Counting within sigma, as for the catalog box, found 194 residuals within 2 sigma.
    assert np.count_nonzero(np.abs(residuals) <= 2.0) >= 194
    unbounded = _box2(cat, support_radius=np.inf)
    with pytest.raises(InvalidParameterError, match="support_radius = inf"):
        gr.fit_egm(data, unbounded, 1.0, gr.linear_map(1))


def test_degenerate_weights_error_names_sigma(cat):
    data = linear_data(n=30, noise=1.0, seed=70)
    cfg = gr.SolverConfig(method="irls", restarts=1)
    # The gaussian's support is unbounded, so no pass starts where every residual is inside.
    with pytest.raises(DegenerateIterateError, match="sigma = 0.0008"):
        gr.fit_egm(data, cat["gaussian"], 1e-4, gr.linear_map(1), cfg)
    # The triweight's is bounded: the last pass anneals down from above the widest residual.
    assert gr.fit_egm(data, cat["triweight"], 1e-4, gr.linear_map(1), cfg).empirical_gain > 0.0


def _seed_24_round_5():
    """The n = 50 data set, scale and restart seed of round 5 of the linear_catalog
    benchmark at run seed 24, where the least-squares anchor leaves every residual
    outside a compact support at sigma = 50^(1/4)."""
    noise = gr.NoiseSpec.contaminated(gr.NoiseSpec.gaussian(0.0, 1.0), 0.1, (-50.0, 50.0))
    seed = int(np.random.default_rng([24, 5, 50]).integers(0, 2**31))
    data = gr.gen_location(50, "linear:2:1", noise, seed=seed)
    restart_seed = int(np.random.default_rng([24, 5, 50, 1]).integers(0, 2**31))
    return data, gr.sigma_schedule("theta1", 1, 1, 50), restart_seed


@pytest.mark.parametrize("name", ["triweight", "epanechnikov", "cosine", "quartic",
                                  "tricube", "triangular"])
def test_degenerate_fits_anneal_from_a_coarser_scale(cat, name):
    # The reweighted fits raised DegenerateIterateError in all 3 restarts, and the gradient
    # fits (tricube, triangular) returned the least-squares anchor at gain 0.
    data, sigma, seed = _seed_24_round_5()
    cfg = gr.default_config(cat[name], restarts=3, seed=seed)
    report = gr.fit_egm(data, cat[name], sigma, gr.linear_map(1), cfg)
    assert report.empirical_gain > 0.0
    slope, intercept = report.model.coefficients  # the truth is 2 and 1
    assert 1.5 < slope < 3.5 and 0.3 < intercept < 1.5


def test_fit_scales_retries_a_degenerate_scale_from_8_sigma_on_its_own(monkeypatch, cat):
    # Every restart degenerates at sigma, not at 10 sigma; only sigma anneals from 8 sigma.
    data, sigma, seed = _seed_24_round_5()
    spec, fmap = cat["triweight"], gr.linear_map(1)
    cfg = gr.default_config(spec, restarts=3, seed=seed)
    alone = [gr.fit_egm(data, spec, s, fmap, cfg) for s in (sigma, 10.0 * sigma)]
    stages = _counted_stages(monkeypatch)
    reports = solver.fit_scales(data, spec, (sigma, 10.0 * sigma), fmap, cfg)
    assert [_summary(r) for r in reports] == [_summary(r) for r in alone]
    assert stages == [sigma] * 3 + [8.0 * sigma, 4.0 * sigma, 2.0 * sigma, sigma] * 3 \
        + [10.0 * sigma] * 3


def test_a_scale_whose_8_sigma_retry_degenerates_anneals_from_above_the_widest_residual(
    monkeypatch, cat
):
    # The tricube's support is |r| < sigma.  At sigma = 1/16 and at 8 sigma the first stage
    # has no residual inside it, so both passes degenerate; the least-squares anchor's
    # widest residual, 17.3, lies inside 512 sigma = 32 and not inside 256 sigma.
    noise = gr.NoiseSpec.contaminated(gr.NoiseSpec.gaussian(0.0, 1.0), 0.1, (-20.0, 20.0))
    data = gr.gen_location(40, "linear:2:1", noise, seed=47)
    spec, sigma = cat["tricube"], 1.0 / 16.0
    cfg = gr.default_config(spec, max_iters=30, restarts=1, seed=47)
    stages = _counted_stages(monkeypatch)
    report = gr.fit_egm(data, spec, sigma, gr.linear_map(1), cfg)
    assert report.empirical_gain > 0.0 and report.sigma == sigma
    assert stages == [sigma, 8.0 * sigma] + [2.0**k * sigma for k in range(9, -1, -1)]


def test_a_gradient_stage_outside_a_compact_support_is_degenerate(cat):
    data = linear_data(n=30, seed=71)
    X = np.column_stack([data.inputs[:, 0], np.ones(data.n)])
    cfg = gr.SolverConfig(method="gradient")
    for name in ("tricube", "triangular"):
        with pytest.raises(DegenerateIterateError, match="no residual inside"):
            solver._gradient_stage(X, data.outputs, np.array([0.0, 100.0]), cat[name], 1.0,
                                   cfg)


def test_the_box_gain_honours_a_warm_start(cat):
    noise = gr.NoiseSpec.contaminated(gr.NoiseSpec.gaussian(0.0, 1.0), 0.1, (-50.0, 50.0))
    data = gr.gen_location(200, "linear:2:1", noise, seed=3)
    spec, sigma, fmap = cat["uniform"], gr.sigma_schedule("theta1", 1, 1, 200), gr.linear_map(1)
    base = gr.fit_egm(data, spec, sigma, fmap)
    # The search centres on the warm start, which has 14 residuals within sigma, and
    # reaches 180, the count of the fit from least squares, on another of the tied lines.
    far = gr.fit_egm(data, spec, sigma, fmap, init_coefficients=[100.0, -50.0])
    assert far.model.coefficients == pytest.approx([3.33414, 0.47326], abs=1e-5)
    assert far.empirical_gain == pytest.approx(180 / (200 * 2 * sigma), rel=1e-12)
    assert base.empirical_gain == far.empirical_gain
    # Ties go to the warm start, so a fit from its own optimum returns it bit for bit.
    own = gr.fit_egm(data, spec, sigma, fmap, init_coefficients=base.model.coefficients)
    assert own.model.coefficients.tobytes() == base.model.coefficients.tobytes()
    with pytest.raises(InvalidParameterError, match="3 warm-start coefficients for 2"):
        gr.fit_egm(data, spec, sigma, fmap, init_coefficients=[1.0, 2.0, 3.0])


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("bad", [np.inf, np.nan], ids=["inf", "nan"])
@pytest.mark.parametrize("name", ["gaussian", "tricube", "uniform"])
def test_a_non_finite_warm_start_is_refused_by_name(cat, name, bad):
    # It used to reach the gain as a residual range error that did not name the warm
    # start, and the box gain's search warned on inf + finite first.
    data = gr.gen_location(40, "linear:2:1", gr.NoiseSpec.gaussian(0.0, 1.0), seed=0)
    with pytest.raises(InvalidParameterError, match="warm-start coefficients must be finite"):
        gr.fit_egm(data, cat[name], 1.0, gr.linear_map(1), init_coefficients=[bad, 0.0])


def test_singular_system_without_ridge(cat):
    # Constant input makes [x, 1] rank one.
    data = gr.Dataset(inputs=np.full((20, 1), 0.5), outputs=np.ones(20))
    cfg = gr.SolverConfig(method="irls", ridge=0.0)
    with pytest.raises(SingularSystemError):
        gr.fit_egm(data, cat["gaussian"], 2.0, gr.linear_map(1), cfg)


def test_underdetermined_needs_ridge(cat):
    data = gr.Dataset(inputs=np.array([[0.1]]), outputs=np.array([1.0]))
    with pytest.raises(InvalidParameterError):
        gr.fit_egm(data, cat["gaussian"], 1.0, gr.linear_map(1),
                   gr.SolverConfig(ridge=0.0))


def test_annealed_fit_reaches_small_scale(cat):
    rng = np.random.default_rng(80)
    x = rng.random(150)
    y = 0.5 * x + 0.02 * rng.standard_normal(150)
    data = gr.Dataset(inputs=x[:, None], outputs=y)
    cfg = gr.SolverConfig(method="irls", restarts=1, anneal=(4.0, 2.0, 1.0, 0.5, 0.25))
    report = gr.fit_egm(data, cat["gaussian"], 0.05, gr.linear_map(1), cfg)
    assert report.empirical_gain > 0.5
    assert np.allclose(report.model.coefficients, [0.5, 0.0], atol=0.05)


def test_schedule_examples():
    assert gr.sigma_schedule("theta1", 1.0, 1.0, 256) == pytest.approx(4.0, rel=1e-12)
    assert gr.schedule_exponent("theta1", 4.0, 1.0) == pytest.approx(1.0 / 6.0, rel=1e-15)
    assert gr.schedule_exponent("theta2", 3.0, 1.0) == pytest.approx(2.0 / 17.0, rel=1e-15)


def test_schedule_branch_continuity_at_one():
    for q in (0.3, 0.7, 1.0, 2.5):
        below = gr.schedule_exponent("theta1", 1.0, q)
        above = gr.schedule_exponent("theta1", 1.0 + 1e-12, q)
        assert abs(below - above) < 1e-12
        below2 = gr.schedule_exponent("theta2", 1.0, q)
        above2 = gr.schedule_exponent("theta2", 1.0 + 1e-12, q)
        assert abs(below2 - above2) < 1e-12


def test_schedule_branches_cover_all_epsilons():
    # One value per branch of the four-piece schedule.
    assert gr.schedule_exponent("theta1", 0.5, 1.0) == pytest.approx(1.0 / 3.0)
    assert gr.schedule_exponent("theta1", 1.5, 1.0) == pytest.approx(
        2.5 / (2.5 * (1.5 + 1.0 + 1.5) + 3.0)
    )
    assert gr.schedule_exponent("theta1", 2.5, 1.0) == pytest.approx(3.5 / (5.0 * 3.5 + 2.5))
    assert gr.schedule_exponent("theta1", 10.0, 2.0) == pytest.approx(1.0 / 9.0)
    assert gr.schedule_exponent("theta2", 0.5, 2.0) == pytest.approx(1.0 / 4.5)
    assert gr.schedule_exponent("theta2", 2.0, 1.0) == pytest.approx(3.0 / (5.0 * 3.0 + 4.0))


def test_schedule_validation():
    with pytest.raises(InvalidParameterError):
        gr.sigma_schedule("theta1", -1.0, 1.0, 10)
    with pytest.raises(InvalidParameterError):
        gr.sigma_schedule("theta1", 1.0, 0.0, 10)
    with pytest.raises(InvalidParameterError):
        gr.sigma_schedule("theta1", 1.0, 1.0, 0)
    with pytest.raises(InvalidParameterError):
        gr.sigma_schedule("theta3", 1.0, 1.0, 10)


def test_cross_validation_contract(cat):
    data = linear_data(n=80, seed=90)
    fmap = gr.linear_map(1)
    cfg = gr.SolverConfig(method="irls", restarts=1)
    best, table = gr.cross_validate_sigma(data, cat["gaussian"], [1.0], fmap, cfg, 4, seed=1)
    assert best == 1.0 and len(table) == 1
    # Duplicated entries: same value either way, resolved consistently.
    best_dup, _ = gr.cross_validate_sigma(
        data, cat["gaussian"], [2.0, 2.0], fmap, cfg, 4, seed=1
    )
    assert best_dup == 2.0
    b1, t1 = gr.cross_validate_sigma(data, cat["gaussian"], [0.5, 1, 2, 4], fmap, cfg, 4, seed=9)
    b2, t2 = gr.cross_validate_sigma(data, cat["gaussian"], [0.5, 1, 2, 4], fmap, cfg, 4, seed=9)
    assert b1 == b2 and t1 == t2
    with pytest.raises(InvalidParameterError):
        gr.cross_validate_sigma(data, cat["gaussian"], [1.0], fmap, cfg, 1, seed=0)
    with pytest.raises(InvalidParameterError):
        gr.cross_validate_sigma(data, cat["gaussian"], [], fmap, cfg, 3, seed=0)


@settings(max_examples=40)
@given(n=st.integers(2, 300), folds=st.integers(2, 12), seed=st.integers(0, 2**16))
def test_kfold_training_splits_are_the_sorted_complements(n, folds, seed):
    folds = min(folds, n)
    data = gr.Dataset(inputs=np.arange(n, dtype=float)[:, None], outputs=np.zeros(n))
    splits = []

    def fit(train, _):
        splits.append(train.inputs[:, 0].astype(int))
        return []

    solver.kfold_select(data, None, [1.0], fit, folds, seed, "cv-shuffle")
    order = generator(seed, "cv-shuffle").permutation(n)
    assert len(splits) == folds
    for k, train in enumerate(splits):
        assert np.array_equal(train, np.setdiff1d(np.arange(n), order[k::folds]))


def test_cross_validate_sigma_table_is_pinned(cat):
    # Values from the release that built training splits with np.setdiff1d, on
    # OpenBLAS 0.3.31; the reconstruction below repeats that computation exactly.
    data = linear_data(n=83, seed=90)
    fmap, spec, grid = gr.linear_map(1), cat["gaussian"], [0.25, 0.5, 1.0, 2.0]
    cfg = gr.SolverConfig(method="irls", restarts=2, seed=4)
    best, table = gr.cross_validate_sigma(data, spec, grid, fmap, cfg, 5, seed=9)
    pinned = [0.9278073469259356, 0.9804937879294229, 0.9950225164843717, 0.9987491506011732]
    assert best == 2.0 and [s for s, _ in table] == grid
    assert [score for _, score in table] == pytest.approx(pinned, rel=1e-12, abs=0.0)
    order = generator(9, "cv-shuffle").permutation(data.n)
    expected = []
    for sigma in grid:
        scores = []
        for k in range(5):
            held = order[k::5]
            train = solver._subset(data, np.setdiff1d(np.arange(data.n), held))
            report = gr.fit_egm(train, spec, sigma, fmap, cfg)
            scores.append(gr.empirical_gain(report.model, solver._subset(data, held), spec, sigma))
        expected.append((sigma, float(np.mean(scores))))
    assert table == expected


def test_cross_validation_small_folds_without_ridge_are_singular(cat):
    rng = np.random.default_rng(3)
    data = gr.Dataset(inputs=rng.random((6, 3)), outputs=rng.standard_normal(6))
    cfg = gr.SolverConfig(method="irls", ridge=0.0)
    with pytest.raises((SingularSystemError, InvalidParameterError)):
        # Train folds hold 3 points for 4 features.
        gr.cross_validate_sigma(data, cat["gaussian"], [1.0], gr.linear_map(3), cfg, 2, seed=0)


def test_fit_report_fields(cat):
    data = linear_data(seed=95)
    cfg = gr.SolverConfig(method="irls", restarts=3, seed=5)
    report = gr.fit_egm(data, cat["gaussian"], 2.0, gr.linear_map(1), cfg, M=4.0, clip=True)
    assert report.sigma == 2.0
    assert report.method == "irls"
    assert report.model.M == 4.0
    assert report.model.clip is True
    assert len(report.restart_gains) == 3
    assert report.iterations >= 1


def test_fit_rejects_non_finite_data(cat):
    x = np.linspace(0.0, 1.0, 20)
    for bad_x, bad_y in ((np.nan, 0.0), (np.inf, 0.0), (0.0, np.nan), (0.0, -np.inf)):
        inputs, outputs = x.copy(), np.sin(x)
        inputs[3] += bad_x
        outputs[7] += bad_y
        data = gr.Dataset(inputs=inputs[:, None], outputs=outputs)
        with pytest.raises(InvalidInputError, match="finite"):
            gr.fit_egm(data, cat["gaussian"], 1.0, gr.linear_map(1))


def test_fit_rejects_non_finite_features():
    # A saved kernel model can carry a nan center; the map refuses it, so no fit sees its
    # features (finite inputs, centers and bandwidth give finite ones).
    with pytest.raises(InvalidInputError, match="centers must be finite"):
        gr.kernel_map(np.array([[0.0], [np.nan], [1.0]]), 0.5)


def test_full_rank_fit_reports_full_rank(cat):
    data = linear_data(seed=96)
    for cfg in (gr.SolverConfig(method="irls"), gr.SolverConfig(method="gradient")):
        report = gr.fit_egm(data, cat["cauchy"], 2.0, gr.linear_map(1), cfg)
        assert report.rank == 2


def kernel_data(n=160, seed=0):
    rng = np.random.default_rng(seed)
    x = rng.random(n)
    y = np.sin(2.0 * np.pi * x) + 0.3 * rng.standard_normal(n)
    return gr.Dataset(inputs=x[:, None], outputs=y)


def test_rank_basis_matches_full_basis_solves(cat):
    # A wide kernel dictionary is numerically low-rank; the fit runs in its
    # rank basis and must reproduce the full-basis ridge solves.
    data = kernel_data()
    fmap = gr.kernel_map(data.inputs, 1.0)
    X = gr.design_matrix(fmap, data.inputs)
    y = data.outputs
    p = X.shape[1]
    spec, sigma = cat["gaussian"], 0.5

    def rel(a, b):
        return np.linalg.norm(a - b) / np.linalg.norm(b)

    anchor = solver._weighted_solve(X, y, np.ones(data.n), None, p)
    w = np.asarray(gr.irls_weight(spec, sigma, y - X @ anchor))
    one_step = solver._weighted_solve(X, y, w / w.max(), None, p)

    basis = solver._rank_basis(X)
    assert basis is not None and basis.shape[1] < p
    anchor_in_basis = basis @ solver._ols(X @ basis, y, None, p)
    assert rel(X @ anchor_in_basis, X @ anchor) <= 1e-8

    cfg = gr.SolverConfig(method="irls", max_iters=1)
    report = gr.fit_egm(data, spec, sigma, fmap, cfg)
    assert report.rank == basis.shape[1]
    assert rel(X @ report.model.coefficients, X @ one_step) <= 1e-8


def _counted_factorizations(monkeypatch) -> list:
    """Record (name, matrix) for every SVD and eigh from here on."""
    seen = []
    for name in ("svd", "eigh"):
        def counted(A, *args, _name=name, _factor=getattr(np.linalg, name), **kwargs):
            seen.append((_name, A))
            return _factor(A, *args, **kwargs)

        monkeypatch.setattr(np.linalg, name, counted)
    return seen


def _counted_stages(monkeypatch) -> list:
    """Record the scale of every reweighting and gradient stage from here on."""
    seen = []
    for name in ("_irls_stage", "_gradient_stage"):
        def counted(X, y, coeffs, spec, sigma, *args, _stage=getattr(solver, name), **kwargs):
            seen.append(sigma)
            return _stage(X, y, coeffs, spec, sigma, *args, **kwargs)

        monkeypatch.setattr(solver, name, counted)
    return seen


def _summary(report):
    return (report.model.coefficients.tobytes(), report.empirical_gain, report.sigma,
            report.gain_trace, report.restart_gains, report.iterations, report.converged,
            report.method, report.rank)


@pytest.mark.parametrize("method", ["irls", "gradient"])
def test_fit_scales_factors_once_and_runs_each_shared_stage_once(monkeypatch, cat, method):
    # The ladders halve down from 8, so the smaller scales' ladders hold the larger ones':
    # 9 + 1 + 1 distinct stages per restart, where the five fits alone run 3+9+5+1+6.
    data = kernel_data()
    fmap = gr.kernel_map(data.inputs, 1.0)
    sigmas = [2.0, 0.05, 0.5, 10.0, 0.3]
    cfg = gr.SolverConfig(method=method, max_iters=20, restarts=2,
                          anneal=tuple(8.0 * 0.5**k for k in range(8)))
    alone = [gr.fit_egm(data, cat["gaussian"], sigma, fmap, cfg) for sigma in sigmas]
    factored = _counted_factorizations(monkeypatch)
    stages = _counted_stages(monkeypatch)
    reports = solver.fit_scales(data, cat["gaussian"], sigmas, fmap, cfg)
    assert len(factored) == 1 and reports[0].rank < fmap.feature_count
    assert len(stages) == 2 * 11
    assert [_summary(r) for r in reports] == [_summary(r) for r in alone]
    stages.clear()
    for sigma in sigmas:
        gr.fit_egm(data, cat["gaussian"], sigma, fmap, cfg)
    assert len(stages) == 2 * 24


@pytest.mark.parametrize("bandwidth", [0.05, 0.2, 1.0])
def test_symmetric_dictionary_eigh_basis_spans_the_svd_basis(monkeypatch, bandwidth):
    # A kernel dictionary centred on its own inputs is symmetric: its singular values
    # are its |eigenvalues|, so eigh keeps as many directions as the SVD, in the same
    # layout.  The last kept directions sit 12 to 13 orders below the top one, where
    # the two factorizations pick different rounding noise (their projectors differ by
    # as much as 3e-3 entrywise), so the projectors are compared on X, as a fit sees them.
    data = kernel_data()
    X = gr.design_matrix(gr.kernel_map(data.inputs, bandwidth), data.inputs)
    assert np.array_equal(X, X.T)
    _, s, vt = np.linalg.svd(X)
    r = int(np.sum(s > s[0] * max(X.shape) * np.finfo(float).eps))
    factored = _counted_factorizations(monkeypatch)
    basis = solver._rank_basis(X)
    assert [name for name, _ in factored] == ["eigh"]
    assert basis is not None and basis.shape == (X.shape[1], r) and r < X.shape[1]
    assert basis.flags.f_contiguous
    projected = X @ basis @ basis.T
    assert np.max(np.abs(projected - X @ vt[:r].T @ vt[:r])) <= 1e-10
    assert np.max(np.abs(projected - X)) <= 1e-10


def test_nearly_symmetric_and_non_square_matrices_take_the_svd(monkeypatch):
    data = kernel_data()
    X = gr.design_matrix(gr.kernel_map(data.inputs, 0.2), data.inputs)
    off = X.copy()
    off[7, 3] = np.nextafter(off[7, 3], np.inf)  # one ulp from symmetric
    factored = _counted_factorizations(monkeypatch)
    for A in (X, off, X[:, :40]):
        solver._rank_basis(A)
    assert [name for name, _ in factored] == ["eigh", "svd", "svd"]
    assert factored[1][1] is off
    # One ulp moves no direction across the cut.
    assert solver._rank_basis(off).shape == solver._rank_basis(X).shape


def test_kernel_fit_save_load_warm_start(tmp_path, capsys, cat):
    # The saved coefficients lie in the rank basis, so a warm start from them
    # begins exactly at the saved model and stays at its optimum.
    path = tmp_path / "toy.csv"
    first, second = tmp_path / "m1.json", tmp_path / "m2.json"
    assert main(["simulate", "--model", "toy", "--n", "80", "--seed", "4",
                 "--out", str(path)]) == 0
    fit = ["fit", "--data", str(path), "--gain", "gaussian", "--sigma", "1"]
    assert main(fit + ["--features", "kernel", "--bandwidth", "0.5",
                       "--save", str(first)]) == 0
    cold = capsys.readouterr().out.splitlines()
    rank = int(cold[-1].split()[1].split("/")[0])
    assert cold[-1] == f"rank {rank}/80" and rank < 80
    assert main(fit + ["--load", str(first), "--save", str(second)]) == 0
    warm = capsys.readouterr().out.splitlines()
    assert warm[2] == "iterations 1" and warm[-1] == cold[-1]
    assert float(warm[1].split()[1]) >= float(cold[1].split()[1])

    m1 = gr.model_from_json(first.read_text())
    m2 = gr.model_from_json(second.read_text())
    assert m2.feature_map.bandwidth == 0.5
    assert np.array_equal(m2.feature_map.centers, m1.feature_map.centers)
    data = gr.simulate.gen_toy(80, 4)
    assert np.allclose(gr.predict_batch(m2, data.inputs), gr.predict_batch(m1, data.inputs),
                       atol=1e-5)
    report = gr.fit_egm(data, cat["gaussian"], 1.0, m1.feature_map,
                        gr.SolverConfig(max_iters=1), init_coefficients=m1.coefficients)
    assert report.gain_trace[0] == pytest.approx(
        gr.empirical_gain(m1, data, cat["gaussian"], 1.0), rel=1e-12
    )


def _outlier_data(curve, seed):
    rng = np.random.default_rng(seed)
    x = rng.random(80)
    y = curve(x) + 0.2 * rng.standard_normal(80)
    y[:8] += 6.0  # a cluster of outliers the bounded gain discounts
    return gr.Dataset(inputs=x[:, None], outputs=y)


@pytest.mark.parametrize("map_kind", ["linear", "kernel"])
@pytest.mark.parametrize("name", ["gaussian", "cauchy", "triweight"])
def test_irls_and_gradient_reach_the_same_stationary_point(cat, map_kind, name):
    # Two solvers, one objective: from the same least-squares anchor both must stop
    # where the gain's gradient vanishes, at the same gain.
    if map_kind == "linear":
        data = _outlier_data(lambda x: 1.5 * x - 0.5, seed=3)
        fmap = gr.linear_map(1)
    else:
        data = _outlier_data(lambda x: np.sin(2.0 * np.pi * x), seed=4)
        fmap = gr.kernel_map(np.linspace(0.0, 1.0, 4)[:, None], 0.15)
    spec, sigma, tol = cat[name], 1.0, 1e-6
    reports = [
        gr.fit_egm(data, spec, sigma, fmap,
                   gr.SolverConfig(method=method, ridge=0.0, max_iters=2000, tol=1e-15))
        for method in ("irls", "gradient")
    ]
    for report in reports:
        assert report.converged and report.rank == fmap.feature_count
        assert np.linalg.norm(gr.gain_gradient(report.model, data, spec, sigma)) <= tol
    irls, gradient = reports
    assert abs(irls.empirical_gain - gradient.empirical_gain) <= 1e-8
    assert np.allclose(irls.model.coefficients, gradient.model.coefficients, atol=1e-5)
