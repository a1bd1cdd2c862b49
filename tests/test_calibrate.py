"""Certification checks against independent closed-form and quadrature oracles.

Frozen constants were computed with mpmath at 30 digits before the
implementation existed; the formulas appear next to each value.
"""

import math
from dataclasses import replace

import numpy as np
import pytest

import gainreg as gr
from gainreg.calibrate import DECLARED_HEADROOM, gain_mass
from gainreg.errors import (
    InvalidParameterError,
    PrecisionFailureError,
    UnsupportedOperationError,
)
from gainreg.gains import GainSpec

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
    with pytest.raises(InvalidParameterError):
        gr.QuadratureConfig(nodes=32)
    with pytest.raises(InvalidParameterError):
        gr.QuadratureConfig(half_width=5.0)


def test_axioms_triweight_mass(cat, quad):
    report = gr.check_gain_axioms(cat["triweight"], quad)
    assert report.axiom_pass
    # Oracle: int_{-1}^{1} (1 - t^2)^3 dt = 32/35 by symbolic integration.
    assert report.estimated["integral"] == pytest.approx(32.0 / 35.0, rel=1e-12)


def test_axioms_gaussian_mass(cat, quad):
    report = gr.check_gain_axioms(cat["gaussian"], quad)
    assert report.axiom_pass
    assert report.estimated["integral"] == pytest.approx(math.sqrt(2 * math.pi), rel=1e-10)


def test_axioms_all_catalog(cat, quad):
    for spec in cat.values():
        assert gr.check_gain_axioms(spec, quad).axiom_pass, spec.name


def test_axioms_reject_non_integrable_probe(quad):
    report = gr.check_gain_axioms(constant_probe(), quad)
    assert not report.axiom_pass
    assert any("mass" in note for note in report.notes)


def test_axioms_raise_on_non_finite_generating_values(quad):
    from gainreg.errors import CertificationFailureError

    def spiky(s):
        s = np.asarray(s, dtype=float)
        with np.errstate(divide="ignore"):
            return np.where(np.abs(s) < 0.5, np.inf, 0.0)

    bad = replace(constant_probe(), name="diverging_probe", generating_fn=spiky)
    with pytest.raises(CertificationFailureError):
        gr.check_gain_axioms(bad, quad)


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

    cfg_gl = gr.QuadratureConfig(nodes=128)
    assert integrate(lambda t: np.exp(t), -1.0, 2.0, cfg_gl) == pytest.approx(
        float(np.exp(2) - np.exp(-1)), rel=1e-13
    )


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


def test_quadrature_convergence_under_doubling(cat):
    noise = gr.NoiseSpec.student_t(2.5)
    prob = gr.location_problem(noise, 1.0, 1.0)
    coarse = gr.QuadratureConfig(nodes=2048)
    fine = gr.QuadratureConfig(nodes=4096)
    for name in ("gaussian", "epanechnikov"):
        a = gr.calibration_gap(cat[name], 8.0, prob, coarse)
        b = gr.calibration_gap(cat[name], 8.0, prob, fine)
        assert abs(a - b) < 1e-6


def test_integrate_checked_raises_on_rough_integrand():
    from gainreg.quadrature import integrate_checked

    cfg = gr.QuadratureConfig(nodes=64)
    with pytest.raises(PrecisionFailureError):
        integrate_checked(lambda t: np.cos(3000.0 * t**2), 0.0, 10.0, cfg)


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


def test_gain_mass_values(cat, quad):
    assert gain_mass(cat["cauchy"], 1.0, quad) == pytest.approx(math.pi, rel=1e-14)
    assert gain_mass(cat["uniform"], 2.0, quad) == pytest.approx(1.0, rel=1e-12)
    assert gain_mass(cat["cosine"], 1.0, quad) == pytest.approx(4.0 / math.pi, rel=1e-12)


def test_closed_forms_follow_the_spec_not_its_name(cat, quad):
    # A triweight renamed "gaussian" keeps its own mass 32/35 and its own transform.
    fake = replace(cat["triweight"], name="gaussian")
    assert gain_mass(fake, 1.0, quad) == pytest.approx(32.0 / 35.0, rel=1e-12)
    xi = np.array([0.0, 1.0])
    assert np.array_equal(gr.fourier_transform(fake, 1.0, xi),
                          gr.fourier_transform(cat["triweight"], 1.0, xi))
    # A mixture's mass is its closed-form transform at zero: sqrt(pi) sum_j w_j s_j.
    mix = gr.mixture_gain([(0.3, 0.7), (0.7, 2.5)])
    want = math.sqrt(math.pi) * (0.3 * 0.7 + 0.7 * 2.5)
    assert gain_mass(mix, 1.0, quad) == pytest.approx(want, rel=1e-14)


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


def test_certify_gain_rows(cat, quad):
    rows = gr.calibrate.certify_gain(cat["triweight"], quad)
    checks = {r["check"] for r in rows}
    assert checks == {"axioms", "type_alpha", "lipschitz"}
    assert all(r["passed"] for r in rows)
    rows = gr.calibrate.certify_gain(cat["laplace"], quad)
    assert {r["check"] for r in rows} == {"axioms", "type_alpha"}


def test_quadrature_half_width_stays_where_gains_are_evaluated():
    # Integrands are evaluated at up to half_width scale units, and gains only
    # within 1e50 of 0; beyond that their squares overflow.
    assert gr.QuadratureConfig(half_width=1e50).half_width == 1e50
    for half_width in (1e51, 1e300, math.inf, math.nan):
        with pytest.raises(InvalidParameterError, match="half_width"):
            gr.QuadratureConfig(half_width=half_width)
