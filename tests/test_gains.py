"""Catalog values, loss duals, weights, and structural gain properties."""

import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import gainreg as gr
from gainreg import gains
from gainreg.errors import (
    InvalidInputError,
    InvalidParameterError,
    UnsupportedOperationError,
)

TYPE2 = ["triweight", "epanechnikov", "cauchy", "gaussian", "cosine", "quartic"]
ALL_GAINS = [
    "triweight",
    "epanechnikov",
    "cauchy",
    "gaussian",
    "laplace",
    "cosine",
    "uniform",
    "tricube",
    "quartic",
    "triangular",
]


def test_catalog_names(cat):
    assert list(cat) == ALL_GAINS


def test_tabulated_constants(cat):
    # Tabulated reference constants.
    k = cat["triweight"].constants
    assert k.L1 == pytest.approx(96.0 / (5.0 * math.sqrt(5.0)), rel=1e-15)
    assert (k.L2, k.c0, k.L3) == (6.0, 3.0, 9.0)
    k = cat["epanechnikov"].constants
    assert (k.L1, k.L2, k.c0, k.L3) == (2.0, 0.0, 1.0, 1.0)
    k = cat["cauchy"].constants
    assert k.L1 == pytest.approx(3.0 * math.sqrt(3.0) / 8.0, rel=1e-15)
    assert (k.L2, k.c0, k.L3) == (2.0, 1.0, 3.0)
    k = cat["gaussian"].constants
    assert k.L1 == pytest.approx(math.exp(-0.5), rel=1e-15)
    assert (k.L2, k.c0) == (0.25, 0.5)
    assert k.L3 == 0.75
    k = cat["cosine"].constants
    assert k.L1 == pytest.approx(math.pi, rel=1e-15)
    assert k.L2 == pytest.approx(math.pi**4 / 192.0, rel=1e-15)
    assert k.c0 == pytest.approx(math.pi**2 / 8.0, rel=1e-15)


def test_calibration_labels(cat):
    assert cat["epanechnikov"].calibration == "exact"
    for name in ["triweight", "cauchy", "gaussian", "cosine", "quartic"]:
        assert cat[name].calibration == "strong"
    for name in ["laplace", "uniform", "tricube", "triangular"]:
        assert cat[name].calibration == "none"
        assert cat[name].constants is None


def test_c0_is_negated_representing_slope_at_zero(cat):
    for name in TYPE2:
        spec = cat[name]
        assert float(spec.representing_deriv(np.zeros(1))[0]) == pytest.approx(
            -spec.constants.c0, rel=1e-12
        )


def test_eval_gain_examples(cat):
    assert gr.eval_gain(cat["triweight"], 1.0, 0.0) == 1.0
    assert gr.eval_gain(cat["epanechnikov"], 2.0, 1.0) == pytest.approx(0.75, abs=1e-15)
    assert gr.eval_gain(cat["uniform"], 0.5, 0.7) == 0.0
    assert gr.eval_gain(cat["gaussian"], 1.0, 1.0) == pytest.approx(math.exp(-0.5), rel=1e-15)


def test_eval_gain_validation(cat):
    with pytest.raises(InvalidParameterError):
        gr.eval_gain(cat["gaussian"], 0.0, 1.0)
    with pytest.raises(InvalidParameterError):
        gr.eval_gain(cat["gaussian"], -2.0, 1.0)
    with pytest.raises(InvalidInputError):
        gr.eval_gain(cat["gaussian"], 1.0, math.nan)
    with pytest.raises(InvalidInputError):
        gr.eval_gain(cat["gaussian"], 1.0, math.inf)


def test_derivative_examples(cat):
    assert gr.eval_gain_derivative(cat["gaussian"], 1.0, 0.0) == 0.0
    assert gr.eval_gain_derivative(cat["epanechnikov"], 1.0, 0.5) == pytest.approx(-1.0)
    assert gr.eval_gain_derivative(cat["laplace"], 1.0, -0.5) == pytest.approx(
        math.exp(-0.5), rel=1e-15
    )
    with pytest.raises(UnsupportedOperationError):
        gr.eval_gain_derivative(cat["uniform"], 1.0, 0.3)


def test_derivative_right_convention_at_kinks(cat):
    # At the upper support edge the right-hand piece is the zero plateau.
    assert gr.eval_gain_derivative(cat["epanechnikov"], 1.0, 1.0) == 0.0
    assert gr.eval_gain_derivative(cat["epanechnikov"], 1.0, -1.0) == pytest.approx(2.0)
    assert gr.eval_gain_derivative(cat["laplace"], 1.0, 0.0) == pytest.approx(-1.0)
    assert gr.eval_gain_derivative(cat["triangular"], 1.0, 0.0) == pytest.approx(-1.0)


@pytest.mark.parametrize("name", [n for n in ALL_GAINS if n != "uniform"])
def test_derivative_matches_finite_differences(cat, name):
    spec = cat[name]
    rng = np.random.default_rng(42)
    sigma = 1.7
    t = rng.uniform(-2.5 * sigma, 2.5 * sigma, size=400)
    # Stay away from kinks: the support edge and (for odd powers) zero.
    t = t[np.abs(np.abs(t) / sigma - 1.0) > 1e-3]
    t = t[np.abs(t) > 1e-3 * sigma]
    h = 1e-6
    fd = (gr.eval_gain(spec, sigma, t + h) - gr.eval_gain(spec, sigma, t - h)) / (2 * h)
    an = gr.eval_gain_derivative(spec, sigma, t)
    scale = np.maximum(np.abs(an), 1e-6)
    assert np.max(np.abs(fd - an) / scale) < 1e-4


def test_loss_examples(cat):
    assert gr.loss_from_gain(cat["triweight"], 1.0, 2.0) == pytest.approx(1.0 / 6.0, rel=1e-15)
    assert gr.loss_from_gain(cat["epanechnikov"], 2.0, 1.0) == pytest.approx(1.0, rel=1e-15)
    assert gr.loss_from_gain(cat["cauchy"], 1.0, 1.0) == pytest.approx(0.5, rel=1e-15)
    assert gr.loss_from_gain(cat["gaussian"], 3.0, 0.0) == 0.0


def classical_loss(name, sigma, t):
    """Hand-coded classical robust-loss formulas, independent of the gain path."""
    t = np.asarray(t, dtype=float)
    a = np.abs(t)
    if name == "triweight":  # Tukey biweight
        inner = (sigma**2 / 6.0) * (1.0 - (1.0 - t**2 / sigma**2) ** 3)
        return np.where(a <= sigma, inner, sigma**2 / 6.0)
    if name == "epanechnikov":  # truncated square
        return np.minimum(t**2, sigma**2)
    if name == "cauchy":  # Geman-McClure
        return t**2 / (sigma**2 + t**2)
    if name == "gaussian":  # exponential squared
        return sigma**2 * (1.0 - np.exp(-(t**2) / (2.0 * sigma**2)))
    if name == "laplace":  # exponential absolute
        return 1.0 - np.exp(-a / sigma)
    if name == "cosine":  # Andrews
        inner = sigma**2 * (1.0 - np.cos(math.pi * t / (2.0 * sigma)))
        return np.where(a <= sigma, inner, sigma**2)
    if name == "uniform":  # box
        return np.where(a <= sigma, 0.0, 1.0)
    if name == "tricube":
        return np.where(a <= sigma, 1.0 - (1.0 - np.minimum(a, sigma) ** 3 / sigma**3) ** 3, 1.0)
    if name == "quartic":
        return np.where(a <= sigma, 1.0 - (1.0 - t**2 / sigma**2) ** 2, 1.0)
    if name == "triangular":  # truncated absolute deviation
        return np.minimum(a, sigma)
    raise KeyError(name)


@pytest.mark.parametrize("name", ALL_GAINS)
@pytest.mark.parametrize("sigma", [0.5, 1.0, 3.0])
def test_loss_gain_duality(cat, name, sigma):
    spec = cat[name]
    t = np.linspace(-4.0 * sigma, 4.0 * sigma, 10_000)
    dual = gr.loss_from_gain(spec, sigma, t)
    assert np.max(np.abs(dual - classical_loss(name, sigma, t))) < 1e-12
    plateau = np.max(classical_loss(name, sigma, np.array([10.0 * sigma])))
    assert np.all(dual >= -1e-15) and np.all(dual <= plateau + 1e-12)
    assert gr.loss_from_gain(spec, sigma, 0.0) == 0.0


def test_lipschitz_l3_examples():
    assert gr.lipschitz_L3(2.0, 0.0, 1.0) == 1.0
    assert gr.lipschitz_L3(96.0 / (5.0 * math.sqrt(5.0)), 6.0, 3.0) == 9.0
    assert gr.lipschitz_L3(math.exp(-0.5), 0.25, 0.5) == 0.75
    with pytest.raises(InvalidParameterError):
        gr.lipschitz_L3(-1.0, 0.0, 1.0)
    with pytest.raises(InvalidParameterError):
        gr.lipschitz_L3(1.0, 0.0, 0.0)


@given(
    L1=st.floats(0.0, 50.0),
    L2=st.floats(0.0, 50.0),
    c0=st.floats(1e-6, 50.0),
)
def test_lipschitz_l3_is_the_max(L1, L2, c0):
    assert gr.lipschitz_L3(L1, L2, c0) == max(L2 + c0, L1 / 2.0)


def test_irls_weight_examples(cat):
    assert gr.irls_weight(cat["gaussian"], 1.0, 0.0) == pytest.approx(0.5, rel=1e-15)
    assert gr.irls_weight(cat["triweight"], 1.0, 1.0) == 0.0
    assert gr.irls_weight(cat["cauchy"], 1.0, 1.0) == pytest.approx(0.25, rel=1e-15)
    for name in ["laplace", "uniform", "tricube", "triangular"]:
        with pytest.raises(UnsupportedOperationError):
            gr.irls_weight(cat[name], 1.0, 0.5)
        with pytest.raises(UnsupportedOperationError):
            gr.gain_weigher(cat[name], 1.0)(np.array([0.5]))


@pytest.mark.parametrize("name", TYPE2)
def test_irls_weight_chain_rule_and_bounds(cat, name):
    spec = cat[name]
    sigma = 1.3
    r = np.linspace(0.05, 0.95 * sigma * min(spec.support_radius, 3.0), 200)
    w = gr.irls_weight(spec, sigma, r)
    lhs = w * 2.0 * r / sigma**2
    rhs = -gr.eval_gain_derivative(spec, sigma, r)
    assert np.max(np.abs(lhs - rhs)) < 1e-8
    k = spec.constants
    assert np.all(w >= 0.0)
    assert np.all(w <= k.L2 * 1.0 + k.c0 + 1e-9)
    assert gr.irls_weight(spec, sigma, 0.0) == pytest.approx(k.c0, rel=1e-12)


def test_mixture_examples():
    assert gr.eval_gain(gr.mixture_gain([(1.0, 2.0)]), 1.0, 0.0) == 1.0
    two = gr.mixture_gain([(0.5, 1.0), (0.5, 2.0)])
    assert gr.eval_gain(two, 1.0, 0.0) == pytest.approx(1.0, rel=1e-15)
    with pytest.raises(InvalidParameterError):
        gr.mixture_gain([(0.7, 1.0), (0.7, 2.0)])
    with pytest.raises(InvalidParameterError):
        gr.mixture_gain([])
    with pytest.raises(InvalidParameterError):
        gr.mixture_gain([(1.0, -1.0)])


def test_mixture_single_component_is_plain_bump():
    mix = gr.mixture_gain([(1.0, 2.0)])
    t = np.linspace(-6, 6, 501)
    assert np.max(np.abs(gr.eval_gain(mix, 1.0, t) - np.exp(-(t**2) / 4.0))) < 1e-15
    assert mix.calibration == "strong"
    assert mix.constants.c0 == pytest.approx(0.25, rel=1e-12)


def test_mixture_weights_and_derivative_consistency():
    mix = gr.mixture_gain([(0.3, 0.7), (0.7, 2.5)])
    r = np.linspace(0.05, 4.0, 150)
    lhs = gr.irls_weight(mix, 1.0, r) * 2.0 * r
    rhs = -gr.eval_gain_derivative(mix, 1.0, r)
    assert np.max(np.abs(lhs - rhs)) < 1e-8


@pytest.mark.parametrize("name", ALL_GAINS)
@pytest.mark.parametrize("sigma", [0.5, 1.0, 3.0])
def test_unimodal_nonnegative_grid(cat, name, sigma):
    spec = cat[name]
    t = np.linspace(-5.0 * sigma, 5.0 * sigma, 10_000)
    vals = gr.eval_gain(spec, sigma, t)
    assert np.all(vals >= 0.0)
    left = vals[t <= 0]
    right = vals[t >= 0]
    assert np.all(np.diff(left) >= -1e-12)
    assert np.all(np.diff(right) <= 1e-12)
    assert vals.max() <= gr.eval_gain(spec, sigma, 0.0) + 1e-15


@pytest.mark.parametrize("name", TYPE2)
def test_representing_function_agrees_with_generating(cat, name):
    spec = cat[name]
    for sigma in (0.5, 1.0, 3.0):
        t = np.linspace(-5.0 * sigma, 5.0 * sigma, 10_000)
        phi_vals = gr.eval_gain(spec, sigma, t)
        psi_vals = spec.representing_fn((t / sigma) ** 2)
        assert np.max(np.abs(phi_vals - psi_vals)) < 1e-12


@given(
    sigma=st.floats(0.05, 20.0),
    t=st.floats(-30.0, 30.0),
    name=st.sampled_from([n for n in ALL_GAINS if n != "uniform"]),
)
def test_scale_equivariance(cat, sigma, t, name):
    spec = cat[name]
    assert gr.eval_gain(spec, sigma, t) == pytest.approx(
        gr.eval_gain(spec, 1.0, t / sigma), rel=1e-12, abs=1e-300
    )


@given(sigma=st.floats(0.05, 20.0), t=st.floats(-30.0, 30.0))
def test_uniform_scale_rule(cat, sigma, t):
    expected = (1.0 / (2.0 * sigma)) if abs(t) <= sigma else 0.0
    assert gr.eval_gain(cat["uniform"], sigma, t) == pytest.approx(expected, rel=1e-12)


def test_generalized_tukey_reductions(cat):
    t = np.linspace(-2.0, 2.0, 4001)
    g23 = gr.generalized_tukey(2, 3)
    g21 = gr.generalized_tukey(2, 1)
    assert np.array_equal(gr.eval_gain(g23, 1.0, t), gr.eval_gain(cat["triweight"], 1.0, t))
    assert np.array_equal(gr.eval_gain(g21, 1.0, t), gr.eval_gain(cat["epanechnikov"], 1.0, t))


def test_generalized_tukey_metadata():
    with pytest.raises(InvalidParameterError):
        gr.generalized_tukey(0, 3)
    with pytest.raises(InvalidParameterError):
        gr.generalized_tukey(2, 0)
    spec = gr.generalized_tukey(3, 2)
    assert spec.calibration == "none"
    assert spec.type_alpha == (3.0, 2.0)
    assert spec.representing_fn is None
    even = gr.generalized_tukey(2, 5)
    assert even.calibration == "strong"
    assert even.constants.c0 == 5.0
    assert gr.generalized_tukey(2, 1).calibration == "exact"


def test_generalized_tukey_searched_constants_are_sane(cat):
    # The n = 1 representing slope is constant on [0, 1); the slope jump at
    # the support edge must not contaminate the Lipschitz search.
    flat = gr.generalized_tukey(2, 1)
    assert flat.constants.L2 <= 1e-6
    assert flat.constants.L1 == pytest.approx(2.0, rel=0.02)
    # n = 3 duplicates the hand-tabulated triweight values up to search slack.
    searched = gr.generalized_tukey(2, 3).constants
    assert searched.L2 == pytest.approx(6.0, rel=0.02)
    assert searched.c0 == 3.0
    assert searched.L1 == pytest.approx(96.0 / (25.0 * math.sqrt(5.0)), rel=0.02)


def test_l3_consistency_across_catalog(cat):
    for spec in cat.values():
        if spec.constants is not None:
            k = spec.constants
            assert k.L3 == pytest.approx(max(k.L2 + k.c0, k.L1 / 2.0), rel=1e-15)


def test_a_representing_function_needs_its_derivative_and_constants(cat):
    for field in ("representing_deriv", "constants"):
        with pytest.raises(InvalidParameterError, match="derivative and constants"):
            replace(cat["cauchy"], **{field: None})
    # Without a representing function the gain is uncalibrated, whatever its type.
    assert replace(cat["epanechnikov"], representing_fn=None).calibration == "none"


@pytest.mark.parametrize("sigma,t", [(1e300, 0.0), (1e-200, 1.0), (1.0, 1e300)])
def test_scales_and_points_outside_the_float_range_are_rejected(cat, sigma, t):
    # Beyond these ranges sigma^2, 1 / sigma or (t / sigma)^4 overflow a double.
    for spec in cat.values():
        with pytest.raises((InvalidParameterError, InvalidInputError)):
            gr.loss_from_gain(spec, sigma, t)


def _weighted_specs(cat):
    """Every gain with half-quadratic weights: the calibrated catalog entries, four
    members of the Tukey m = 2 family and two mixtures."""
    return (
        [spec for spec in cat.values() if spec.calibration != "none"]
        + [gr.generalized_tukey(2, n) for n in (1, 2, 3, 5)]
        + [gr.mixture_gain([(0.6, 1.0), (0.4, 2.0)]),
           gr.mixture_gain([(0.3, 0.7), (0.7, 2.5)])]
    )


def test_every_generating_function_is_its_representing_function_of_the_square(cat):
    # Normal and +-1.2-uniform draws; 0, the support edge 1 and its neighbours; subnormals;
    # magnitudes up to 1e154, whose square is still finite.  Both signs of each.
    rng = np.random.default_rng(0)
    edges = [0.0, 1.0, np.nextafter(1.0, 2.0), np.nextafter(1.0, 0.0), 5e-324, 1e-310, 2.2e-308]
    s = np.concatenate([rng.standard_normal(200_000), rng.uniform(-1.2, 1.2, 200_000),
                        np.logspace(-320, 154, 10_000), edges])
    s = np.concatenate([s, -s])
    for spec in _weighted_specs(cat):
        with np.errstate(over="ignore"):  # a mixture's s^2 / s_j^2 passes the double range
            phi, psi = spec.generating_fn(s), spec.representing_fn(s * s)
        assert phi.tobytes() == psi.tobytes(), spec.name


@pytest.mark.parametrize("sigma", [1.3, 2, 1e-3, 1e4])
def test_gain_and_weights_is_bit_equal_to_the_two_calls(cat, sigma):
    # Zeros of both signs, the support edge, tiny and large residuals.
    r = sigma * np.array([0.0, -0.0, 1.0, -1.0, 1e-320, -1e-300, 1e-8, 0.37, -0.99,
                          1.0 - 1e-16, 2.5, -40.0, 1e40, -1e50])
    specs = _weighted_specs(cat)
    assert len(specs) == 12
    for spec in specs:
        for sample in (r, r[:1], r[2:7]):
            gain, w = gr.gain_weigher(spec, sigma)(sample)
            assert type(gain) is float
            assert gain == float(np.mean(gr.eval_gain(spec, sigma, sample))), spec.name
            expected = gr.irls_weight(spec, sigma, sample)
            assert w.dtype == expected.dtype and w.shape == expected.shape
            assert w.tobytes() == expected.tobytes(), spec.name


@pytest.mark.parametrize("sigma,r,error", [
    (0.0, [0.5], InvalidParameterError),
    (-1.0, [0.5], InvalidParameterError),
    (math.nan, [0.5], InvalidParameterError),
    (1e101, [0.5], InvalidParameterError),
    ("1", [0.5], InvalidParameterError),
    (1.0, [0.5, math.nan], InvalidInputError),
    (1.0, [math.inf, 0.5], InvalidInputError),
    (1.0, [-math.inf], InvalidInputError),
    (2.0, [0.0, 2.0001e50], InvalidInputError),
], ids=["zero", "negative", "nan-sigma", "huge-sigma", "string", "nan", "inf", "-inf",
        "beyond-1e50-sigma"])
def test_gain_and_weights_raise_as_the_two_calls(cat, sigma, r, error):
    spec = cat["cauchy"]
    messages = []

    def weigh(spec, sigma, r):
        return gr.gain_weigher(spec, sigma)(r)

    for fn in (gr.eval_gain, gr.irls_weight, weigh):
        with pytest.raises(error) as info:
            fn(spec, sigma, np.array(r))
        messages.append(str(info.value))
    # The fused pass names a bad residual as eval_gain does, which the fit loop saw first.
    assert messages[2] == messages[0]
    if error is InvalidParameterError:
        assert messages[1] == messages[0]


@pytest.mark.parametrize("sigma", [1.3, 2, 1e-3, 1e4])
def test_gain_and_slope_is_bit_equal_to_the_two_calls(cat, sigma):
    r = sigma * np.array([0.0, -0.0, 1.0, -1.0, 1e-320, -1e-300, 1e-8, 0.37, -0.99,
                          1.0 - 1e-16, 2.5, -40.0, 1e40, -1e50])
    specs = [spec for spec in cat.values() if spec.generating_deriv is not None]
    specs += [gr.generalized_tukey(4, 5), gr.mixture_gain([(0.6, 1.0), (0.4, 2.0)])]
    for spec in specs:
        for sample in (r, r[:1], r[2:7]):
            gain, slope = gr.gain_sloper(spec, sigma)(sample)
            assert type(gain) is float
            assert gain == float(np.mean(gr.eval_gain(spec, sigma, sample))), spec.name
            assert _bits(slope()) == _bits(gr.eval_gain_derivative(spec, sigma, sample)), spec.name


@pytest.mark.parametrize("sigma,r,error", [
    (0.0, [0.5], InvalidParameterError),
    (1e101, [0.5], InvalidParameterError),
    (1.0, [0.5, math.nan], InvalidInputError),
    (2.0, [0.0, 2.0001e50], InvalidInputError),
], ids=["zero", "huge-sigma", "nan", "beyond-1e50-sigma"])
def test_gain_and_slope_raise_as_the_two_calls(cat, sigma, r, error):
    messages = []

    def evaluate(spec, sigma, r):
        return gr.gain_sloper(spec, sigma)(r)

    for fn in (gr.eval_gain, gr.eval_gain_derivative, evaluate):
        with pytest.raises(error) as info:
            fn(cat["laplace"], sigma, np.array(r))
        messages.append(str(info.value))
    assert messages[2] == messages[1] == messages[0]
    # A box has no slope to finish, whatever its scale.
    with pytest.raises(UnsupportedOperationError, match="derivative"):
        gr.gain_sloper(cat["uniform"], 1.0)


def _bits(a: np.ndarray) -> tuple:
    return a.dtype, a.shape, a.tobytes()


def _kernel_inputs():
    """Contiguous vectors of lengths 1-17, 31, 64 and 257 from start offsets 0-3, and
    the whole pool, so that SIMD loops also run their tails and unaligned heads.  The
    pool opens with +-0, +-1 and their neighbours, the cosine weight's 1e-8 switch and
    its neighbour, subnormals and +-1e50, then normal and +-1.2-uniform draws."""
    edges = np.array([0.0, 1.0, np.nextafter(1.0, 0.0), np.nextafter(1.0, 2.0),
                      np.nextafter(0.0, 1.0), 1e-310, 2.2e-308, 1e-8, np.nextafter(1e-8, 0.0),
                      0.5, 1e50])
    rng = np.random.default_rng(0)
    pool = np.concatenate([edges, -edges, rng.standard_normal(200), rng.uniform(-1.2, 1.2, 200)])
    for length in (*range(1, 18), 31, 64, 257):
        for start in range(4):
            yield pool[start:start + length]
    yield pool


def test_every_fused_kernel_is_bit_equal_to_the_plain_functions(cat):
    # The catalog's hand-fused kernels, then every kernel the fit stages call, through
    # the evaluators at sigma = 1, where r / sigma is r: assembled ones (the mixture's,
    # the Cauchy slope) included.
    assert [name for name, spec in cat.items() if spec.weight_kernel] == TYPE2
    assert [name for name, spec in cat.items() if spec.slope_kernel] == [
        "triweight", "epanechnikov", "laplace", "tricube", "quartic", "triangular"]
    specs = (list(cat.values())
             + [gr.generalized_tukey(m, n) for m in (1, 2, 3, 4) for n in (1, 2, 3, 5)]
             + [gr.mixture_gain([(0.6, 1.0), (0.4, 2.0)])])
    for spec in specs:
        for s in _kernel_inputs():
            phi = _bits(spec.generating_fn(s))
            gain = float(np.mean(gr.eval_gain(spec, 1.0, s)))
            if spec.weight_kernel is not None:
                raw, w = spec.weight_kernel(s)
                assert (_bits(raw), _bits(w)) == (phi, _bits(gains._weights(spec, s**2))), spec.name
                # The reweighting loop rescales the weights in place.
                assert w.flags.writeable and not np.shares_memory(w, raw)
            if spec.representing_deriv is not None:
                mean, w = gr.gain_weigher(spec, 1.0)(s)
                assert (mean, _bits(w)) == (gain, _bits(gr.irls_weight(spec, 1.0, s))), spec.name
            if spec.slope_kernel is not None:
                raw, finish = spec.slope_kernel(s)
                assert (_bits(raw), _bits(finish())) == (phi, _bits(spec.generating_deriv(s)))
            if spec.generating_deriv is not None:
                mean, slope = gr.gain_sloper(spec, 1.0)(s)
                expected = gr.eval_gain_derivative(spec, 1.0, s)
                assert (mean, _bits(slope())) == (gain, _bits(expected)), spec.name


def test_weight_per_gain_is_what_the_representing_derivative_gives(cat):
    # The gaussian's fused weights are its gain values halved: -psi'(u) = psi(u) / 2.
    u = np.linspace(0.0, 50.0, 1001)
    spec = cat["gaussian"]
    assert np.array_equal(-spec.representing_deriv(u), 0.5 * spec.representing_fn(u))
    s = np.sqrt(u)
    gain, weights = spec.weight_kernel(s)
    assert weights.tobytes() == (0.5 * gain).tobytes()


def test_a_spec_without_a_fused_kernel_takes_the_plain_functions(cat):
    base = cat["gaussian"]
    calls = []

    def counted(u):
        calls.append(u)
        return base.representing_deriv(u)

    r = np.array([0.0, -0.0, 0.3, -1.7, 4.0, 1e3])
    plain = replace(base, weight_kernel=None, representing_deriv=counted)
    gain, w = gr.gain_weigher(plain, 1.3)(r)
    assert len(calls) == 1
    assert w.tobytes() == gr.irls_weight(base, 1.3, r).tobytes()
    calls.clear()
    # The hand-fused kernel scales the gain values, bit for bit the same; replace keeps it.
    fused_gain, fused = gr.gain_weigher(replace(base, representing_deriv=counted), 1.3)(r)
    assert calls == []
    assert (fused_gain, fused.tobytes()) == (gain, w.tobytes())
    # So too for the slope: without a kernel, phi and phi' run on the same scaled points.
    laplace, slopes = cat["laplace"], []

    def counted_slope(s):
        slopes.append(s)
        return laplace.generating_deriv(s)

    plain = replace(laplace, slope_kernel=None, generating_deriv=counted_slope)
    gain, slope = gr.gain_sloper(plain, 1.3)(r)
    assert slopes == []  # finished only when asked for
    assert slope().tobytes() == gr.eval_gain_derivative(laplace, 1.3, r).tobytes()
    assert len(slopes) == 1
