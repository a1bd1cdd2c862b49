"""Fitting behavior: exact recoveries, ascent guarantees, schedules, CV."""

from dataclasses import replace

import numpy as np
import pytest

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


def test_gradient_method_never_decreases(cat):
    data = linear_data(seed=30)
    cfg = gr.SolverConfig(method="gradient", max_iters=150, tol=1e-10, restarts=1)
    report = gr.fit_egm(data, cat["laplace"], 2.0, gr.linear_map(1), cfg)
    trace = np.asarray(report.gain_trace)
    assert np.all(np.diff(trace) >= -1e-14)
    # Should land close to the best residual location.
    assert report.empirical_gain > 0.8


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
    for spec, method in ((replace(cat["gaussian"], name="uniform"), "irls"),
                         (replace(cat["uniform"], name="box"), "grid_consensus"),
                         (replace(cat["laplace"], name="gaussian"), "gradient")):
        cfg = gr.default_config(spec, seed=1)
        assert cfg.method == method, spec.name
        assert gr.fit_egm(data, spec, 0.5, gr.linear_map(1), cfg).method == method
        assert gr.fit_egm(data, spec, 0.5, gr.linear_map(1)).method == method
    with pytest.raises(UnsupportedOperationError):
        gr.fit_egm(data, replace(cat["uniform"], name="box"), 0.5, gr.linear_map(1),
                   gr.SolverConfig(method="gradient"))


def test_cross_validation_routines_share_one_kfold_core(cat, monkeypatch):
    # Both public routines go through the one k-fold routine with their own stream.
    data = linear_data(n=40, seed=52)
    cfg = gr.SolverConfig(method="irls")
    calls = []
    real = solver.kfold_select

    def spy(*args):
        calls.append(args[-1])
        return real(*args)

    monkeypatch.setattr(solver, "kfold_select", spy)
    monkeypatch.setattr(bench, "kfold_select", spy)
    gr.cross_validate_sigma(data, cat["gaussian"], [1.0, 2.0], gr.linear_map(1), cfg, 3)
    bench.cross_validate_bandwidth(data, cat["gaussian"], 4.0, (0.5, 1.0), seed=0, folds=3)
    assert calls == ["cv-shuffle", "bw-shuffle"]
    for folds in (0, 1):
        with pytest.raises(InvalidParameterError, match="at least 2 folds"):
            bench.cross_validate_bandwidth(data, cat["gaussian"], 4.0, (0.5,), 0, folds)
    with pytest.raises(InvalidParameterError, match="non-empty"):
        bench.cross_validate_bandwidth(data, cat["gaussian"], 4.0, (), 0, 3)


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


def test_degenerate_weights_error_names_sigma(cat):
    data = linear_data(n=30, noise=1.0, seed=70)
    cfg = gr.SolverConfig(method="irls", restarts=1)
    with pytest.raises(DegenerateIterateError, match="sigma"):
        gr.fit_egm(data, cat["triweight"], 1e-4, gr.linear_map(1), cfg)


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


def test_fit_rejects_non_finite_features(cat):
    # A saved kernel model can carry a nan center; the SVD would fail on its features.
    data = gr.Dataset(inputs=np.linspace(0.0, 1.0, 20)[:, None], outputs=np.zeros(20))
    fmap = gr.kernel_map(np.array([[0.0], [np.nan], [1.0]]), 0.5)
    with pytest.raises(InvalidInputError, match="non-finite features"):
        gr.fit_egm(data, cat["gaussian"], 1.0, fmap)


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


def test_rank_basis_survives_a_block_ending_in_another_thread(monkeypatch):
    # Another thread leaving its block while this one computes a basis sets the
    # global to None between the lookup and the store; the basis still comes back.
    X = gr.design_matrix(gr.kernel_map(kernel_data().inputs, 1.0), kernel_data().inputs)
    svd_basis = solver._svd_basis

    def block_ends_meanwhile(X):
        basis = svd_basis(X)
        solver._shared_bases = None
        return basis

    monkeypatch.setattr(solver, "_svd_basis", block_ends_meanwhile)
    with solver.shared_rank_bases():
        basis = solver._rank_basis(X)
    assert basis is not None and np.array_equal(basis, svd_basis(X))
    assert solver._shared_bases is None


def test_a_nested_block_keeps_the_enclosing_bases():
    X = gr.design_matrix(gr.kernel_map(kernel_data().inputs, 1.0), kernel_data().inputs)
    with solver.shared_rank_bases():
        outer = solver._shared_bases
        with solver.shared_rank_bases():
            assert solver._shared_bases is outer
            basis = solver._rank_basis(X)
        assert solver._shared_bases is outer and len(outer) == 1
        assert solver._rank_basis(X) is basis
    assert solver._shared_bases is None


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
