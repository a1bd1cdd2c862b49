"""Certification checks against independent closed-form and quadrature oracles.

Frozen constants were computed with mpmath at 30 digits before the
implementation existed; the formulas appear next to each value.
"""

import math
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

import gainreg as gr
from gainreg import calibrate
from gainreg.calibrate import DECLARED_HEADROOM, gain_mass
from gainreg.errors import (
    InvalidInputError,
    InvalidParameterError,
    PrecisionFailureError,
    UnsupportedOperationError,
)
from gainreg.gains import GainSpec
from gainreg.quadrature import HALF_WIDTH_RANGE, gauss_legendre_rule, nodes_weights

TABLE_GAINS = ["triweight", "epanechnikov", "cauchy", "gaussian", "cosine"]

# (c/pi^3) * int_{|xi|<=pi/2} xi^2 phat(xi)^2 dxi at sigma = 1, M = 1.
FROZEN_LOWER_CONSTANT = {
    "triweight": 0.0647100701356,
    "epanechnikov": 0.0827407263602,
    "cauchy": 0.030790160879,
    "gaussian": 0.0589899732602,
    "cosine": 0.0802778002541,
}

# 1 / integral of the generating function.
FROZEN_NORMING = {
    "triweight": 35.0 / 32.0,
    "epanechnikov": 0.75,
    "cauchy": 1.0 / math.pi,
    "gaussian": 1.0 / math.sqrt(2.0 * math.pi),
    "cosine": math.pi / 4.0,
}


def constant_probe() -> GainSpec:
    return GainSpec(
        name="constant_probe",
        generating_fn=lambda s: np.ones_like(np.asarray(s, dtype=float)),
        generating_deriv=None,
        representing_fn=None,
        representing_deriv=None,
        type_alpha=None,
        type_exact=False,
        constants=None,
        support_radius=math.inf,
        loss_scale=1.0,
        loss_sigma_exponent=0,
        formula="1",
        loss_name="none",
        loss_formula="0",
    )


def test_quadrature_config_invariants():
    # The node count is integrate's own doubling, not a setting.
    with pytest.raises(TypeError, match="nodes"):
        gr.QuadratureConfig(nodes=4096)
    with pytest.raises(InvalidParameterError):
        gr.QuadratureConfig(half_width=5.0)


def test_axioms_triweight_mass(cat):
    report = gr.check_gain_axioms(cat["triweight"])
    assert report.axiom_pass
    # Oracle: int_{-1}^{1} (1 - t^2)^3 dt = 32/35 by symbolic integration.
    assert report.estimated["integral"] == pytest.approx(32.0 / 35.0, rel=1e-12)


def test_axioms_gaussian_mass(cat):
    report = gr.check_gain_axioms(cat["gaussian"])
    assert report.axiom_pass
    assert report.estimated["integral"] == pytest.approx(math.sqrt(2 * math.pi), rel=1e-10)


def test_axioms_all_catalog(cat):
    for spec in cat.values():
        assert gr.check_gain_axioms(spec).axiom_pass, spec.name


def test_axioms_reject_non_integrable_probe():
    report = gr.check_gain_axioms(constant_probe())
    assert not report.axiom_pass
    assert any("mass" in note for note in report.notes)


def test_axioms_raise_on_non_finite_generating_values():
    from gainreg.errors import CertificationFailureError

    def spiky(s):
        s = np.asarray(s, dtype=float)
        with np.errstate(divide="ignore"):
            return np.where(np.abs(s) < 0.5, np.inf, 0.0)

    bad = replace(constant_probe(), name="diverging_probe", generating_fn=spiky)
    with pytest.raises(CertificationFailureError):
        gr.check_gain_axioms(bad)


def _dip(s):
    # -0.1 on 0.8 < |s| < 1, inside the support: negative there, and rising back to 0
    # at the support's edge.
    s = np.abs(s)
    return -0.1 * ((s > 0.8) & (s < 1.0))


def _bump(s):
    # +0.2 within 0.05 of |s| = 0.6: positive, but rising away from the peak.
    return 0.2 * (np.abs(np.abs(s) - 0.6) < 0.05)


@pytest.mark.parametrize("offset, notes", [
    (_dip, ("negative values found", "monotonicity violated on grid")),
    (_bump, ("monotonicity violated on grid",)),
], ids=["dip", "bump"])
def test_axioms_reject_a_negative_or_rising_triweight(cat, offset, notes):
    # No catalog gain reaches these branches; certify takes only catalog gains.
    phi = cat["triweight"].generating_fn
    bad = replace(cat["triweight"], name="altered", generating_fn=lambda s: phi(s) + offset(s))
    report = gr.check_gain_axioms(bad)
    assert not report.axiom_pass and report.notes == notes
    assert report.max_violation > 0.09


def test_axioms_mass_is_gain_mass_bit_for_bit(cat):
    # One mass per gain, over the certify workload's gains: the catalog, 16 generalized
    # Tukeys and 3 mixtures.  A window integral of the axioms check's own differed from
    # gain_mass on 14 of these 29.
    specs = list(cat.values())
    specs += [gr.generalized_tukey(m, n) for m in range(1, 5) for n in (1, 2, 3, 5)]
    specs += [gr.mixture_gain(c) for c in (((0.5, 1.0), (0.5, 2.0)),
                                           ((0.3, 0.5), (0.7, 1.5)),
                                           ((0.2, 1.0), (0.3, 2.0), (0.5, 3.0)))]
    for spec in specs:
        report = gr.check_gain_axioms(spec)
        assert report.axiom_pass, spec.name
        assert report.estimated["integral"] == gain_mass(spec, 1.0), spec.name


def _staircase(s):
    # A triweight-supported step: 1 on |s| < 0.3 and 0.5 on 0.3 <= |s| <= 1, mass 1.3.
    s = np.abs(np.asarray(s, dtype=float))
    return np.where(s < 0.3, 1.0, np.where(s <= 1.0, 0.5, 0.0))


def test_axioms_fail_on_a_mass_that_cannot_be_certified(cat):
    # The staircase's jumps at |s| = 0.3 are not panel edges, so node doubling has not
    # settled by 2^14 nodes; Cauchy without its closed form is cut off at its 40-sigma
    # window.  Neither mass can be certified, so neither gain passes.
    stairs = replace(cat["triweight"], name="staircase", generating_fn=_staircase,
                     fourier=None)
    for spec in (stairs, replace(cat["cauchy"], fourier=None)):
        report = gr.check_gain_axioms(spec)
        assert not report.axiom_pass, spec.name
        assert any("mass" in note for note in report.notes), report.notes


def test_estimate_lipschitz_tight_table_entries(cat):
    # These three table constants are the true suprema of |d/dt psi(t^2)|.
    l1, l2 = gr.estimate_lipschitz(cat["epanechnikov"])
    assert l1 == pytest.approx(2.0, rel=1e-2)
    assert abs(l2) < 1e-6
    l1, _ = gr.estimate_lipschitz(cat["cauchy"])
    assert l1 == pytest.approx(3.0 * math.sqrt(3.0) / 8.0, rel=1e-2)
    l1, l2 = gr.estimate_lipschitz(cat["gaussian"])
    assert l1 == pytest.approx(math.exp(-0.5), rel=1e-2)
    assert l2 == pytest.approx(0.25, rel=1e-2)


def test_estimate_lipschitz_true_suprema_for_loose_entries(cat):
    # The declared triweight/cosine L1 are loose upper bounds; the measured
    # suprema are 96/(25 sqrt 5) and pi/2 (symbolic differentiation oracle).
    l1, l2 = gr.estimate_lipschitz(cat["triweight"])
    assert l1 == pytest.approx(96.0 / (25.0 * math.sqrt(5.0)), rel=1e-3)
    assert l2 == pytest.approx(6.0, rel=1e-2)
    l1, l2 = gr.estimate_lipschitz(cat["cosine"])
    assert l1 == pytest.approx(math.pi / 2.0, rel=1e-3)
    assert l2 == pytest.approx(math.pi**4 / 192.0, rel=1e-2)


def test_estimates_never_exceed_declared(cat):
    for name in TABLE_GAINS + ["quartic"]:
        spec = cat[name]
        l1, l2 = gr.estimate_lipschitz(spec)
        assert l1 <= spec.constants.L1 * DECLARED_HEADROOM, name
        assert l2 <= spec.constants.L2 * DECLARED_HEADROOM + 1e-6, name


def test_estimate_lipschitz_requires_representing(cat):
    with pytest.raises(UnsupportedOperationError):
        gr.estimate_lipschitz(cat["laplace"])


def test_type_alpha_examples(cat):
    assert gr.check_type_alpha(cat["epanechnikov"]) == (2.0, 1.0, True)
    assert gr.check_type_alpha(cat["laplace"]) == (1.0, 1.0, True)
    assert gr.check_type_alpha(cat["uniform"]) == (0.0, 0.0, True)


def test_type_alpha_all_catalog(cat):
    for spec in cat.values():
        alpha, c, ok = gr.check_type_alpha(spec)
        assert ok, spec.name
        assert (alpha, c) == spec.type_alpha


def test_type_alpha_exact_remainder_is_zero(cat):
    spec = cat["epanechnikov"]
    s = np.linspace(0.0, 1.0, 2001)
    remainder = gr.eval_gain(spec, 1.0, s) - 1.0 + 1.0 * s**2
    assert np.max(np.abs(remainder)) < 1e-12


def test_type_alpha_detects_wrong_declarations(cat):
    wrong_order = replace(cat["laplace"], type_alpha=(2.0, 1.0))
    assert gr.check_type_alpha(wrong_order)[2] is False
    wrong_c = replace(cat["gaussian"], type_alpha=(2.0, 0.9))
    assert gr.check_type_alpha(wrong_c)[2] is False
    with pytest.raises(UnsupportedOperationError):
        gr.check_type_alpha(replace(cat["gaussian"], type_alpha=None))


def test_population_gain_gaussian_oracle(cat, quad):
    # Convolution oracle: G(delta) = exp(-delta^2 / (2 (sigma^2+1))) * sigma / sqrt(sigma^2+1).
    noise = gr.NoiseSpec.gaussian(0.0, 1.0)
    g0 = gr.population_gain(cat["gaussian"], 1.0, gr.location_problem(noise, 0.0, 1.0), quad)
    assert g0 == pytest.approx(1.0 / math.sqrt(2.0), rel=1e-10)
    g1 = gr.population_gain(cat["gaussian"], 1.0, gr.location_problem(noise, 1.0, 1.0), quad)
    assert g1 == pytest.approx(math.exp(-0.25) / math.sqrt(2.0), rel=1e-10)
    assert g0 > g1  # zero offset maximizes for symmetric unimodal noise


def test_population_gain_compact_gains_oracle(cat, quad):
    # Frozen mpmath values: int p_sigma(e - delta) N(0,1)(e) de over the support.
    noise = gr.NoiseSpec.gaussian(0.0, 1.0)
    epan = gr.population_gain(cat["epanechnikov"], 2.0, gr.location_problem(noise, 0.5, 1.0), quad)
    assert epan == pytest.approx(0.72482251419246, rel=1e-10)
    tri = gr.population_gain(cat["triweight"], 3.0, gr.location_problem(noise, 1.0, 1.0), quad)
    assert tri == pytest.approx(0.60225624175072, rel=1e-10)


def test_fourier_transform_mixture_analytic_matches_oracle():
    # Frozen mpmath quadrature of sum_j w_j exp(-t^2/s_j^2) cos(xi t).
    mix = gr.mixture_gain([(0.3, 0.7), (0.7, 2.5)])
    got = gr.fourier_transform(mix, 1.0, np.array([0.0, 0.8]))
    assert got[0] == pytest.approx(3.4740095477748, rel=1e-12)
    assert got[1] == pytest.approx(1.485234564028, rel=1e-12)


def test_gauss_legendre_basic_accuracy():
    from gainreg.quadrature import integrate

    want = float(np.exp(2) - np.exp(-1))
    x, w = nodes_weights(-1.0, 2.0, 128, ())
    assert float(np.exp(x) @ w) == pytest.approx(want, rel=1e-13)
    # A smooth integrand settles at the first doubling, 256 then 512 nodes.
    sizes = []

    def exp(t):
        sizes.append(t.size)
        return np.exp(t)

    got = integrate(exp, -1.0, 2.0, lambda v: 1e-6 * abs(v))
    assert type(got) is float and got == pytest.approx(want, rel=1e-13)
    assert sizes == [256, 512]


def test_population_gain_even_in_offset(cat, quad):
    noise = gr.NoiseSpec.student_t(2.5)
    for name in ("epanechnikov", "gaussian"):
        plus = gr.population_gain(cat[name], 2.0, gr.location_problem(noise, 0.7, 1.0), quad)
        minus = gr.population_gain(cat[name], 2.0, gr.location_problem(noise, -0.7, 1.0), quad)
        assert abs(plus - minus) < 1e-8


def test_location_problem_invariants():
    noise = gr.NoiseSpec.gaussian(0.0, 1.0)
    with pytest.raises(InvalidParameterError):
        gr.location_problem(noise, 2.0, 1.0)  # offset beyond M
    with pytest.raises(InvalidParameterError):
        gr.LocationProblem(noise_density=lambda t: 0.5 * noise.density(t), offset=0.0, M=1.0)


def test_calibration_gap_zero_offset(cat, quad):
    noise = gr.NoiseSpec.gaussian(0.0, 1.0)
    gap = gr.calibration_gap(cat["gaussian"], 8.0, gr.location_problem(noise, 0.0, 1.0), quad)
    assert abs(gap) < 1e-12


def test_calibration_gap_oracle_sigma10(cat, quad):
    # Closed form: sigma^3/sqrt(sigma^2+1) (1 - exp(-1/(2(sigma^2+1)))) - 1/2.
    noise = gr.NoiseSpec.gaussian(0.0, 1.0)
    gap = gr.calibration_gap(cat["gaussian"], 10.0, gr.location_problem(noise, 1.0, 1.0), quad)
    oracle = 1000.0 / math.sqrt(101.0) * (1.0 - math.exp(-1.0 / 202.0)) - 0.5
    assert gap == pytest.approx(oracle, abs=1e-9)
    assert abs(gap) < 0.01


def test_calibration_gap_threshold_error(cat, quad):
    noise = gr.NoiseSpec.gaussian(0.0, 1.0)
    prob = gr.location_problem(noise, 1.0, 1.5)
    with pytest.raises(InvalidParameterError, match="max\\(2M, 1\\) = 3"):
        gr.calibration_gap(cat["gaussian"], 2.0, prob, quad)
    with pytest.raises(UnsupportedOperationError):
        gr.calibration_gap(cat["laplace"], 8.0, prob, quad)


def test_gap_decay_gaussian_normal(cat, quad):
    noise = gr.NoiseSpec.gaussian(0.0, 1.0)
    prob = gr.location_problem(noise, 1.0, 1.0)
    slope, gaps = gr.gap_log_slope(cat["gaussian"], prob, [4, 8, 16, 32, 64], quad)
    assert -2.3 < slope < -1.7
    assert all(g < 0 for g in gaps)


def test_gap_scaled_by_sigma_sq_bounded_for_strong_gains(cat, quad):
    # Light-tailed noise: sigma^2 * |gap| stays bounded along sigma in [4, 64],
    # stabilizing toward a per-gain constant.
    noise = gr.NoiseSpec.gaussian(0.0, 1.0)
    prob = gr.location_problem(noise, 1.0, 1.0)
    for name in ["triweight", "cauchy", "gaussian", "cosine", "quartic"]:
        gaps = [gr.calibration_gap(cat[name], s, prob, quad) for s in [4, 8, 16, 32, 64]]
        scaled = [abs(g) * s**2 for g, s in zip(gaps, [4, 8, 16, 32, 64])]
        assert max(scaled) <= 2.0 * scaled[-1], name
        assert abs(scaled[-1] - scaled[-2]) < 0.05 * scaled[-1], name


def test_gap_log_slope_floors_each_gap_at_its_tolerance(cat, quad, monkeypatch):
    # A gap of exactly 0 once took log 0: NaN and a RuntimeWarning, which pytest turns
    # into an error.  |gap| is floored at 1e-12 max(1, |sigma^2 [G(0) - G(delta)]|).
    spec, sigmas = cat["gaussian"], [4.0, 8.0, 16.0, 32.0, 64.0]
    prob = gr.location_problem(gr.NoiseSpec.gaussian(0.0, 1.0), 1.0, 1.0)
    real = calibrate.calibration_gap
    monkeypatch.setattr(calibrate, "calibration_gap",
                        lambda sp, s, p, q: 0.0 if s == 32.0 else real(sp, s, p, q))
    slope, gaps = gr.gap_log_slope(spec, prob, sigmas, quad)
    assert gaps[3] == 0.0 and all(g < 0 for g in gaps[:3] + gaps[4:])
    floors = [1e-12 * max(1.0, abs(g + spec.constants.c0)) for g in gaps]
    ys = np.log(np.maximum(np.abs(gaps), floors))
    assert slope == float(np.polyfit(np.log(sigmas), ys, 1)[0])
    assert math.isfinite(slope) and slope < 0


def test_gap_decay_epanechnikov_student_t(cat, quad):
    # Measured decay is one power faster than the moment-order bound because
    # symmetric noise cancels the first-order tail term; frozen mpmath oracle.
    noise = gr.NoiseSpec.student_t(2.5)
    prob = gr.location_problem(noise, 1.0, 1.0)
    slope, gaps = gr.gap_log_slope(cat["epanechnikov"], prob, [4, 8, 16, 32, 64], quad)
    assert slope == pytest.approx(-2.446051875, abs=5e-3)
    oracle_gaps = [-0.1330241918, -0.02667527173, -0.004866227784,
                   -0.0008670077023, -0.000153567265]
    for got, want in zip(gaps, oracle_gaps):
        assert got == pytest.approx(want, rel=1e-6)
    # The moment-order upper bound itself is certified: |gap| * sigma^1.4 -> bounded.
    scaled = [abs(g) * s**1.4 for g, s in zip(gaps, [4, 8, 16, 32, 64])]
    assert max(scaled) == scaled[0]  # decreasing, hence bounded


def test_mde_examples(quad):
    noise = gr.NoiseSpec.gaussian(0.0, 1.0)
    assert gr.mde_distance(gr.location_problem(noise, 0.0, 1.0), quad) == pytest.approx(0.0, abs=1e-9)
    # Oracle: sqrt((1/sqrt(pi)) (1 - exp(-delta^2/4))).
    d1 = gr.mde_distance(gr.location_problem(noise, 1.0, 1.0), quad)
    assert d1 == pytest.approx(0.3532680202, abs=1e-8)
    d2 = gr.mde_distance(gr.location_problem(noise, 2.0, 2.0), quad)
    assert d2 == pytest.approx(0.5971899487, abs=1e-8)
    assert d2 > d1 > 0.0


def _fixed_rule(nodes):
    """``integrate`` replaced by one pass of a fixed rule, with the same arguments."""

    def integrate(fn, a, b, tol, breakpoints=(), summed=False):
        x, w = nodes_weights(a, b, nodes, breakpoints)
        return fn(x, w) if summed else float(fn(x) @ w)

    return integrate


def test_quadrature_convergence_under_doubling(cat, quad, monkeypatch):
    noise = gr.NoiseSpec.student_t(2.5)
    prob = gr.location_problem(noise, 1.0, 1.0)
    for name in ("gaussian", "epanechnikov"):
        got = gr.calibration_gap(cat[name], 8.0, prob, quad)
        with monkeypatch.context() as patch:
            fixed = []
            for nodes in (2048, 4096):
                patch.setattr(calibrate, "integrate", _fixed_rule(nodes))
                fixed.append(gr.calibration_gap(cat[name], 8.0, prob, quad))
        assert abs(fixed[0] - fixed[1]) < 1e-6
        assert abs(got - fixed[1]) < 1e-6


def test_integrate_raises_when_no_pass_settles():
    from gainreg.quadrature import integrate

    # Oscillations far finer than a panel of the 2^14-node rule.
    with pytest.raises(PrecisionFailureError, match="did not converge.*16384 nodes"):
        integrate(lambda t: np.cos(3000.0 * t**2), 0.0, 10.0, lambda v: 1e-6 * max(1.0, abs(v)))


REFERENCE_NOISES = [gr.NoiseSpec.gaussian(0.0, 1.0), gr.NoiseSpec.student_t(2.5),
                    gr.NoiseSpec.student_t(5.0)]
REFERENCE_GAINS = ["triweight", "epanechnikov", "cauchy", "gaussian", "cosine",
                   gr.generalized_tukey(2, 5), gr.mixture_gain([(0.3, 0.5), (0.7, 1.5)])]


def _reference(monkeypatch, module, compute):
    """``compute()`` with every ``integrate`` of ``module`` one pass of the 2^16-node rule."""
    with monkeypatch.context() as patch:
        patch.setattr(module, "integrate", _fixed_rule(2**16))
        return compute()


@pytest.mark.parametrize("spec", REFERENCE_GAINS,
                         ids=[s if isinstance(s, str) else s.name for s in REFERENCE_GAINS])
def test_reported_quantities_agree_with_the_2_16_node_rule(cat, quad, monkeypatch, spec):
    # Each quantity to the tolerance stated for it, in the units it is reported in.
    spec = cat[spec] if isinstance(spec, str) else spec
    c0 = spec.constants.c0
    for noise in REFERENCE_NOISES:
        prob = gr.location_problem(noise, 1.0, 1.0)
        for sigma in (4.0, 16.0, 64.0):
            got = gr.calibration_gap(spec, sigma, prob, quad)
            want = _reference(monkeypatch, calibrate,
                              lambda: gr.calibration_gap(spec, sigma, prob, quad))
            assert type(got) is float
            assert abs(got - want) <= max(1e-6 * abs(want), 1e-12 * max(1.0, abs(want + c0)))
        for sigma in (0.5, 2.0):
            got = gr.population_gain(spec, sigma, prob, quad)
            want = _reference(monkeypatch, calibrate,
                              lambda: gr.population_gain(spec, sigma, prob, quad))
            assert type(got) is float and abs(got - want) <= 1e-6 * max(1.0, abs(want))

    deltas = (-1.0, -0.5, -0.1, 0.1, 0.5, 1.0)
    got = gr.sandwich_check(spec, 1.0, 1.0, deltas, quad)
    want = _reference(monkeypatch, calibrate,
                      lambda: gr.sandwich_check(spec, 1.0, 1.0, deltas, quad))
    assert [r.ok for r in got.rows] == [r.ok for r in want.rows]
    for g, w in zip(got.rows, want.rows):
        assert type(g.gap) is float and abs(g.gap - w.gap) <= max(1e-6 * abs(w.gap), 1e-12)

    mass = gain_mass(spec, 1.3)
    assert type(mass) is float
    assert abs(mass - _reference(monkeypatch, calibrate, lambda: gain_mass(spec, 1.3))) <= (
        1e-6 * mass
    )
    xi = np.linspace(-3.0, 3.0, 13)
    got = gr.fourier_transform(spec, 1.3, xi)
    want = _reference(monkeypatch, calibrate, lambda: gr.fourier_transform(spec, 1.3, xi))
    assert np.max(np.abs(got - want)) <= 1e-6 * np.max(np.abs(want))


@pytest.mark.parametrize("noise", [*REFERENCE_NOISES, gr.NoiseSpec.symmetric_pareto(2.5),
                                   gr.NoiseSpec.gaussian_mixture([(0.5, -1.0, 2.5),
                                                                  (0.5, 1.0, 0.5)])])
def test_density_mass_and_mde_agree_with_the_2_16_node_rule(quad, monkeypatch, noise):
    from gainreg import simulate

    args = (noise.density, noise.scale_hint(), noise.density_breakpoints())
    got = simulate._density_mass(*args)
    want = _reference(monkeypatch, simulate, lambda: simulate._density_mass(*args))
    # Checked to a hundredth of the 1e-8 the mass is then held to.
    assert type(got) is float and abs(got - want) <= 1e-10
    for delta in (0.5, 1.0):
        prob = gr.location_problem(noise, delta, 1.0)
        got = gr.mde_distance(prob, quad)
        want = _reference(monkeypatch, calibrate, lambda: gr.mde_distance(prob, quad))
        assert type(got) is float and abs(got**2 - want**2) <= 1e-6 * max(1.0, want**2)


def test_fourier_transform_epanechnikov_closed_form(cat):
    # Oracle: int_{-1}^{1} (1 - t^2) cos(xi t) dt = 4 (sin xi - xi cos xi) / xi^3.
    xi = np.linspace(0.1, 3.0, 25)
    got = gr.fourier_transform(cat["epanechnikov"], 1.0, xi)
    want = 4.0 * (np.sin(xi) - xi * np.cos(xi)) / xi**3
    assert np.max(np.abs(got - want)) < 1e-10


def test_fourier_transform_analytic_families(cat):
    xi = np.linspace(-2.0, 2.0, 21)
    assert np.allclose(
        gr.fourier_transform(cat["gaussian"], 2.0, xi),
        2.0 * math.sqrt(2 * math.pi) * np.exp(-0.5 * (2.0 * xi) ** 2),
    )
    assert np.allclose(
        gr.fourier_transform(cat["cauchy"], 1.5, xi), math.pi * 1.5 * np.exp(-1.5 * np.abs(xi))
    )
    assert np.allclose(
        gr.fourier_transform(cat["laplace"], 1.0, xi), 2.0 / (1.0 + xi**2)
    )


def _one_matrix_transform(spec, sigma, xi):
    # The 2^14-node cosine quadrature as one matrix over the whole xi grid and one product.
    radius = spec.support_radius
    t_max = (radius if math.isfinite(radius) else 20.0) * sigma
    t, w = nodes_weights(-t_max, t_max, 2**14, [0.0])
    return np.cos(np.outer(xi, t)) @ (gr.eval_gain(spec, sigma, t) * w)


# The sandwich's grid at M = 1: each |xi| twice, once with each sign.
SANDWICH_XI = gauss_legendre_rule(256)[0] * (math.pi / 2.0)


@pytest.mark.parametrize(
    "spec",
    ["triweight", "cosine", gr.generalized_tukey(3, 2)],
    ids=["triweight", "cosine", "tukey_3_2"],
)
def test_fourier_transform_matches_one_cosine_matrix_bit_for_bit(cat, spec, monkeypatch):
    spec = cat[spec] if isinstance(spec, str) else spec
    assert spec.fourier is None and math.isfinite(spec.support_radius)
    got = gr.fourier_transform(spec, 1.0, SANDWICH_XI)
    # One block as large as the grid: each pass is one cosine matrix and one product.
    monkeypatch.setattr(calibrate, "_FOURIER_BLOCK", SANDWICH_XI.size)
    assert np.array_equal(got, gr.fourier_transform(spec, 1.0, SANDWICH_XI))


QUADRATURE_PATH_GAINS = [
    *(name for name, spec in gr.catalog().items() if spec.fourier is None),
    gr.generalized_tukey(3, 2),
    gr.generalized_tukey(1, 5),
    gr.generalized_tukey(4, 3),
    replace(gr.catalog()["gaussian"], name="gaussian_quadrature", fourier=None),
]


@pytest.mark.parametrize("sigma", [1.0, 2.5])
@pytest.mark.parametrize(
    "spec", QUADRATURE_PATH_GAINS,
    ids=[s if isinstance(s, str) else s.name for s in QUADRATURE_PATH_GAINS],
)
def test_fourier_transform_agrees_with_the_full_2_14_node_rule(cat, spec, sigma):
    # The doubling stops long before 2^14 nodes and must still agree with that rule.
    spec = cat[spec] if isinstance(spec, str) else spec
    want = _one_matrix_transform(spec, sigma, SANDWICH_XI)
    got = gr.fourier_transform(spec, sigma, SANDWICH_XI)
    assert np.max(np.abs(got - want)) <= 1e-14 * np.max(np.abs(want))


def test_fourier_transform_that_does_not_settle_by_2_14_nodes_raises(cat):
    # A jump at 0.3 sigma falls inside a panel of every rule, so no doubling converges.
    def step(s):
        a = np.abs(s)
        return np.where(a <= 0.3, 1.0, np.where(a <= 1.0, 0.5, 0.0))

    spec = replace(cat["uniform"], name="step", generating_fn=step)
    with pytest.raises(PrecisionFailureError, match="did not converge.*16384 nodes"):
        gr.fourier_transform(spec, 1.0, SANDWICH_XI)


def test_fourier_transform_is_even_and_keeps_the_shape(cat):
    spec = cat["triweight"]
    xi = np.array([[0.3, -0.3, 1.7], [1.7, 0.0, -2.2]])
    got = gr.fourier_transform(spec, 1.0, xi)
    assert got.shape == (2, 3)
    assert got[0, 0] == got[0, 1] and got[0, 2] == got[1, 0]
    assert np.array_equal(gr.fourier_transform(spec, 1.0, -xi), got)
    dup = gr.fourier_transform(spec, 1.0, [2.2, 0.3, 2.2, -2.2, 2.2])
    assert dup[0] == dup[2] == dup[3] == dup[4] != dup[1]
    assert gr.fourier_transform(spec, 1.0, np.empty((0, 4))).shape == (0, 4)


@pytest.mark.parametrize("name", ["triweight", "gaussian"])
@pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan])
def test_fourier_transform_rejects_non_finite_xi(cat, name, bad):
    with pytest.raises(InvalidInputError, match="xi must be finite"):
        gr.fourier_transform(cat[name], 1.0, np.array([0.5, bad]))


def _nodes_weights_per_segment(a, b, nodes, breakpoints):
    # The former construction, one linspace per segment, as the bit-for-bit reference.
    cuts = sorted({float(p) for p in breakpoints if a < p < b})
    edges = [a, *cuts, b]
    segs = [(lo, hi) for lo, hi in zip(edges[:-1], edges[1:]) if hi > lo]
    per_seg = max(nodes // max(len(segs), 1), 16)
    xr, wr = gauss_legendre_rule(16)
    xs, ws = [], []
    for lo, hi in segs:
        edges = np.linspace(lo, hi, max(per_seg // 16, 1) + 1)
        half = 0.5 * (edges[1:] - edges[:-1])
        mid = 0.5 * (edges[1:] + edges[:-1])
        xs.append((mid[:, None] + half[:, None] * xr[None, :]).ravel())
        ws.append((half[:, None] * wr[None, :]).ravel())
    return np.concatenate(xs), np.concatenate(ws)


def test_nodes_weights_match_one_linspace_per_segment_bit_for_bit():
    cases = [
        (-1.0, 1.0, 64, []),
        (0.0, 3.0, 2**15, []),
        (-2.0, 5.0, 1000, [-7.0, 9.0]),  # outside
        (-2.0, 5.0, 4096, [-2.0, 5.0, 0.0]),  # on the ends
        (-2.0, 5.0, 4096, [1.5, 1.5, 0.25, 1.5, 0.25]),  # duplicates
        (10.0, 10.5, 64, [10.1, 10.2, 10.3, 10.4, 10.45]),  # more segments than panels
    ]
    rng = np.random.default_rng(7)
    for _ in range(1000):
        a = float(rng.uniform(-100.0, 100.0))
        b = a + float(rng.uniform(1e-6, 200.0))
        bps = rng.uniform(a - 10.0, b + 10.0, rng.integers(0, 8)).tolist()
        bps += [a, b] * int(rng.integers(0, 2)) + bps[: rng.integers(0, 3)]
        cases.append((a, b, int(2 ** rng.uniform(6.0, 15.0)), bps))
    for a, b, nodes, bps in cases:
        want = _nodes_weights_per_segment(a, b, nodes, bps)
        got = nodes_weights(a, b, nodes, bps)
        assert all(map(np.array_equal, got, want)), (a, b, nodes, bps)


def test_cached_gauss_legendre_rule_is_read_only():
    x, w = gauss_legendre_rule(16)
    for arr in (x, w):
        with pytest.raises(ValueError, match="read-only"):
            arr[0] = 0.0
    assert all(map(np.array_equal, gauss_legendre_rule(16), np.polynomial.legendre.leggauss(16)))


def test_sandwich_lower_constant_in_blocks_not_one_matrix(cat, quad):
    # One 256 x 2^14 cosine matrix is 32 MiB; the blocked transform needs 2 MiB.
    gr.sandwich_check(cat["triweight"], 1.0, 1.0, (0.5,), quad)
    tracemalloc.start()
    try:
        gr.sandwich_check(cat["triweight"], 1.0, 1.0, (0.5,), quad)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8e6


def test_lipschitz_sweeps_in_blocks_not_whole_grids():
    # Whole-grid sweeps held 13.9 MB of temporaries for this mixture.
    spec = gr.mixture_gain(((0.2, 1.0), (0.3, 2.0), (0.5, 3.0)))
    tracemalloc.start()
    try:
        gr.estimate_lipschitz(spec)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 6e6


def test_gain_mass_values(cat):
    assert gain_mass(cat["cauchy"], 1.0) == pytest.approx(math.pi, rel=1e-14)
    assert gain_mass(cat["uniform"], 2.0) == pytest.approx(1.0, rel=1e-12)
    assert gain_mass(cat["cosine"], 1.0) == pytest.approx(4.0 / math.pi, rel=1e-12)


def test_closed_forms_follow_the_spec_not_its_name(cat):
    # A triweight renamed "gaussian" keeps its own mass 32/35 and its own transform.
    fake = replace(cat["triweight"], name="gaussian")
    assert gain_mass(fake, 1.0) == pytest.approx(32.0 / 35.0, rel=1e-12)
    xi = np.array([0.0, 1.0])
    assert np.array_equal(gr.fourier_transform(fake, 1.0, xi),
                          gr.fourier_transform(cat["triweight"], 1.0, xi))
    # A mixture's mass is its closed-form transform at zero: sqrt(pi) sum_j w_j s_j.
    mix = gr.mixture_gain([(0.3, 0.7), (0.7, 2.5)])
    want = math.sqrt(math.pi) * (0.3 * 0.7 + 0.7 * 2.5)
    assert gain_mass(mix, 1.0) == pytest.approx(want, rel=1e-14)


def test_a_truncated_tail_raises_rather_than_bias_the_constants(cat, quad):
    # Without its closed form, Cauchy is still 1/1601 of its peak at the 40-sigma edge of
    # the cosine quadrature; at a 20-sigma edge, 1/401 of it, the transform came out 3.2%
    # low and the sandwich's lower constant 1.6% high, with no error.
    spec = replace(cat["cauchy"], fourier=None)
    for compute in (lambda: gain_mass(spec, 1.0),
                    lambda: gr.fourier_transform(spec, 1.0, SANDWICH_XI),
                    lambda: gr.sandwich_check(spec, 1.0, 1.0, (0.5,), quad)):
        with pytest.raises(PrecisionFailureError, match="cauchy is still .* at 40 sigma"):
            compute()


@pytest.mark.parametrize("name", ["gaussian", "laplace"])
def test_light_tails_without_closed_forms_still_certify(cat, quad, name):
    # Their tails are below 1e-6 of the peak at the window's edge, so the quadrature
    # path runs as before and lands on the closed forms' constants.
    deltas = (-0.5, 0.25, 1.0)
    report = gr.sandwich_check(replace(cat[name], fourier=None), 1.0, 1.0, deltas, quad)
    closed = gr.sandwich_check(cat[name], 1.0, 1.0, deltas, quad)
    assert report.passed
    assert report.lower_constant == pytest.approx(closed.lower_constant, rel=1e-9)
    assert report.norming_constant == pytest.approx(closed.norming_constant, rel=1e-12)


@pytest.mark.parametrize("name", TABLE_GAINS)
def test_sandwich_table_gains(cat, quad, name):
    report = gr.sandwich_check(
        cat[name], 1.0, 1.0, (-1.0, -0.5, -0.25, -0.1, 0.0, 0.1, 0.25, 0.5, 1.0), quad
    )
    assert report.passed, report.violations
    assert report.lower_constant == pytest.approx(FROZEN_LOWER_CONSTANT[name], rel=1e-6)
    assert report.norming_constant == pytest.approx(FROZEN_NORMING[name], rel=1e-10)
    for row in report.rows:
        if row.delta == 0.0:
            assert row.gap == pytest.approx(0.0, abs=1e-9)
            assert row.lower == 0.0 and row.upper == 0.0
        else:
            assert row.lower <= row.gap <= row.upper
            assert row.gap > 0.0


def test_sandwich_gaussian_upper_constant_exact(cat, quad):
    report = gr.sandwich_check(cat["gaussian"], 1.0, 1.0, (0.5,), quad)
    assert report.upper_constant == 2.0 * math.exp(-0.5)


def test_sandwich_lower_bound_only_for_uncalibrated(cat, quad):
    report = gr.sandwich_check(cat["laplace"], 1.0, 1.0, (-0.5, 0.5), quad)
    assert report.passed and report.upper_constant is None
    report = gr.sandwich_check(cat["uniform"], 1.0, 1.0, (-0.5, 0.5), quad)
    assert report.passed and report.lower_constant > 0.0


def test_sandwich_rejects_offsets_beyond_two_m(cat, quad):
    with pytest.raises(InvalidParameterError):
        gr.sandwich_check(cat["gaussian"], 1.0, 1.0, (2.5,), quad)


@pytest.mark.parametrize(
    "sigma, M, deltas",
    [
        (1.0, math.inf, (0.5,)),
        (1.0, math.nan, (0.5,)),
        (1.0, -math.inf, (0.5,)),
        (math.inf, 1.0, (0.5,)),
        (math.nan, 1.0, (0.5,)),
        (1.0, 1.0, (0.5, math.nan)),
        (1.0, 1.0, (math.inf,)),
    ],
)
@pytest.mark.parametrize("name", ["triweight", "gaussian"])
def test_sandwich_rejects_non_finite_arguments(cat, quad, name, sigma, M, deltas):
    with pytest.raises(InvalidParameterError, match="finite"):
        gr.sandwich_check(cat[name], sigma, M, deltas, quad)


def test_certify_gain_rows(cat, quad):
    rows = gr.calibrate.certify_gain(cat["triweight"], quad)
    checks = {r["check"] for r in rows}
    assert checks == {"axioms", "type_alpha", "lipschitz"}
    assert all(r["passed"] for r in rows)
    rows = gr.calibrate.certify_gain(cat["laplace"], quad)
    assert {r["check"] for r in rows} == {"axioms", "type_alpha"}


def test_quadrature_half_width_stays_where_gains_are_evaluated():
    # Integrands are evaluated at up to half_width scale units, and only up to the cap
    # do their integrals settle or raise: past it, two passes of the doubling rule can
    # agree on a wrong value (see the next test).
    lo, hi = HALF_WIDTH_RANGE
    assert (lo, hi) == (10.0, 250.0)
    assert gr.QuadratureConfig(half_width=hi).half_width == hi
    for half_width in (math.nextafter(hi, math.inf), 300.0, 1e50, math.inf, math.nan):
        with pytest.raises(InvalidParameterError, match=r"half_width must lie in \[10, 250\]"):
            gr.QuadratureConfig(half_width=half_width)


@pytest.mark.parametrize("name", ["cauchy", "gaussian", "laplace"])
def test_quantities_at_the_half_width_cap_settle_or_raise(cat, monkeypatch, name):
    # Only an unbounded gain's windows scale with half_width.  At the cap each quantity
    # agrees with the 2^16-node rule to its tolerance or raises; none is silently off.
    spec, quad = cat[name], gr.QuadratureConfig(half_width=HALF_WIDTH_RANGE[1])

    def settles(compute, close):
        try:
            got = compute()
        except PrecisionFailureError:
            return
        assert close(got, _reference(monkeypatch, calibrate, compute))

    def unit_close(got, want):
        return abs(got - want) <= 1e-6 * max(1.0, abs(want))

    for noise in REFERENCE_NOISES:
        prob = gr.location_problem(noise, 1.0, 1.0)
        for sigma in (1.0, 4.0, 16.0, 64.0):
            settles(lambda: gr.population_gain(spec, sigma, prob, quad), unit_close)
        if spec.calibration != "none":
            c0 = spec.constants.c0

            def gaps_close(got, want):
                return all(abs(g - w) <= max(1e-6 * abs(w), 1e-12 * max(1.0, abs(w + c0)))
                           for g, w in zip(got, want))

            settles(lambda: gr.gap_log_slope(spec, prob, (4.0, 8.0, 16.0, 32.0, 64.0),
                                             quad)[1], gaps_close)
    assert gr.sandwich_check(spec, 1.0, 1.0, (-1.0, -0.5, -0.1, 0.1, 0.5, 1.0), quad).passed
