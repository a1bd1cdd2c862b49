"""Feature maps, models, prediction, and serialization."""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import gainreg as gr
from gainreg.errors import InvalidInputError, InvalidParameterError


def test_linear_predict_example():
    model = gr.HypothesisModel(
        feature_map=gr.linear_map(1), coefficients=np.array([2.0, 0.5]), M=10.0
    )
    assert gr.predict(model, np.array([0.5])) == pytest.approx(1.5)


def test_kernel_predict_at_own_center():
    fmap = gr.kernel_map(np.array([[0.3, -1.0]]), bandwidth=0.7)
    model = gr.HypothesisModel(feature_map=fmap, coefficients=np.array([1.0]), M=5.0)
    assert gr.predict(model, np.array([0.3, -1.0])) == pytest.approx(1.0)


def test_clip_truncates():
    model = gr.HypothesisModel(
        feature_map=gr.linear_map(1), coefficients=np.array([0.0, 1.7]), M=1.0, clip=True
    )
    assert gr.predict(model, np.array([0.0])) == 1.0
    model_neg = gr.HypothesisModel(
        feature_map=gr.linear_map(1), coefficients=np.array([0.0, -1.7]), M=1.0, clip=True
    )
    assert gr.predict(model_neg, np.array([0.0])) == -1.0


def test_dimension_mismatch_raises():
    model = gr.HypothesisModel(
        feature_map=gr.linear_map(2), coefficients=np.zeros(3), M=1.0
    )
    with pytest.raises(InvalidInputError):
        gr.predict(model, np.array([1.0]))
    with pytest.raises(InvalidInputError):
        gr.design_matrix(gr.linear_map(2), np.array([[1.0]]))


def test_design_matrix_linear_row():
    X = gr.design_matrix(gr.linear_map(1), np.array([[3.0]]))
    assert np.array_equal(X, np.array([[3.0, 1.0]]))


def test_design_matrix_empty_inputs():
    X = gr.design_matrix(gr.linear_map(2), np.zeros((0, 2)))
    assert X.shape == (0, 3)


def test_kernel_design_symmetric_unit_diagonal():
    pts = np.array([[0.0], [1.0]])
    fmap = gr.kernel_map(pts, bandwidth=0.5)
    K = gr.design_matrix(fmap, pts)
    assert K.shape == (2, 2)
    assert np.allclose(np.diag(K), 1.0)
    assert np.allclose(K, K.T)


@pytest.mark.parametrize("n", [5, 60, 200])
def test_kernel_design_positive_semidefinite(n):
    rng = np.random.default_rng(n)
    pts = rng.random((n, 2))
    K = gr.design_matrix(gr.kernel_map(pts, bandwidth=0.4), pts)
    eigs = np.linalg.eigvalsh(0.5 * (K + K.T))
    assert eigs.min() >= -1e-8


@given(
    a=st.floats(-3.0, 3.0),
    b=st.floats(-3.0, 3.0),
    x=st.floats(-2.0, 2.0),
)
def test_predict_linear_in_coefficients(a, b, x):
    fmap = gr.linear_map(1)
    c1 = np.array([1.0, -0.5])
    c2 = np.array([-2.0, 0.25])
    combo = gr.HypothesisModel(feature_map=fmap, coefficients=a * c1 + b * c2, M=100.0)
    m1 = gr.HypothesisModel(feature_map=fmap, coefficients=c1, M=100.0)
    m2 = gr.HypothesisModel(feature_map=fmap, coefficients=c2, M=100.0)
    point = np.array([x])
    lhs = gr.predict(combo, point)
    rhs = a * gr.predict(m1, point) + b * gr.predict(m2, point)
    assert lhs == pytest.approx(rhs, abs=1e-12)


@given(scale=st.floats(-50.0, 50.0), x=st.floats(-2.0, 2.0))
def test_clipping_bounds_hold(scale, x):
    model = gr.HypothesisModel(
        feature_map=gr.linear_map(1), coefficients=np.array([scale, 0.3]), M=1.5, clip=True
    )
    assert abs(gr.predict(model, np.array([x]))) <= 1.5


def test_feature_map_validation():
    with pytest.raises(InvalidParameterError):
        gr.kernel_map(np.zeros((0, 1)), bandwidth=0.5)
    with pytest.raises(InvalidParameterError):
        gr.kernel_map(np.array([[0.0]]), bandwidth=0.0)
    with pytest.raises(InvalidParameterError):
        gr.HypothesisModel(feature_map=gr.linear_map(1), coefficients=np.zeros(5), M=1.0)


def test_subsample_centers_cap_and_determinism():
    rng = np.random.default_rng(0)
    pts = rng.random((700, 1))
    sub1 = gr.subsample_centers(pts, cap=500, seed=3)
    sub2 = gr.subsample_centers(pts, cap=500, seed=3)
    assert sub1.shape == (500, 1)
    assert np.array_equal(sub1, sub2)
    small = gr.subsample_centers(pts[:10], cap=500, seed=3)
    assert np.array_equal(small, pts[:10])


def test_default_sup_bound():
    assert gr.default_sup_bound(np.array([1.0, -5.0, 2.0])) == pytest.approx(6.0)
    assert gr.default_sup_bound(np.zeros(3)) == 1.0


def test_model_round_trip_bit_exact():
    rng = np.random.default_rng(11)
    centers = rng.standard_normal((7, 2))
    coeffs = rng.standard_normal(7) * np.array([1e-13, 1.0, 1e13, -1.0, 3.7, -0.1, 2.0])
    model = gr.HypothesisModel(
        feature_map=gr.kernel_map(centers, bandwidth=0.123456789123456789),
        coefficients=coeffs,
        M=2.5,
        clip=True,
    )
    text = gr.model_to_json(model)
    back = gr.model_from_json(text)
    assert np.array_equal(back.coefficients, model.coefficients)
    assert np.array_equal(back.feature_map.centers, centers)
    assert back.feature_map.bandwidth == model.feature_map.bandwidth
    assert back.M == model.M and back.clip == model.clip
    assert gr.model_to_json(back) == text


def test_linear_model_round_trip():
    model = gr.HypothesisModel(
        feature_map=gr.linear_map(3), coefficients=np.array([0.1, -0.2, 0.3, 7.0]), M=9.0
    )
    back = gr.model_from_json(gr.model_to_json(model))
    assert np.array_equal(back.coefficients, model.coefficients)
    assert back.feature_map.kind == "linear_with_intercept"


@pytest.mark.parametrize("bandwidth", [float("nan"), float("inf"), 1e-200, 1e200])
def test_kernel_bandwidth_needs_a_finite_nonzero_square(bandwidth):
    with pytest.raises(InvalidParameterError, match="bandwidth"):
        gr.kernel_map(np.array([[0.0], [1.0]]), bandwidth)


def test_tiny_bandwidth_gives_an_identity_dictionary():
    # The far points' exponents overflow to inf; exp(-inf) = 0 needs no warning.
    fmap = gr.kernel_map(np.array([[0.0], [1.0], [2.0]]), 1e-160)
    assert np.array_equal(gr.design_matrix(fmap, fmap.centers), np.eye(3))


def test_kernel_features_of_coordinates_whose_squares_overflow():
    # |x|^2 overflows beyond about 1.3e154; the kernel is still defined there.
    big = 1.3407807929942597e154
    fmap = gr.kernel_map(np.array([[big], [0.5]]), 0.5)
    X = gr.design_matrix(fmap, np.array([[0.5], [1e200], [big]]))
    assert np.array_equal(X, [[0.0, 1.0], [0.0, 0.0], [1.0, 0.0]])
    # Ordinary coordinates take the same direct differences, bit for bit.
    x = np.linspace(0.0, 1.0, 7)[:, None]
    c = x[::2]
    assert np.array_equal(gr.design_matrix(gr.kernel_map(c, 0.3), x), _direct_kernel(x, c, 0.3))


def _direct_kernel(x, c, bandwidth):
    """The textbook kernel: exp(-|x - c|^2 / (2 h^2)) from direct differences."""
    sq = np.sum((x[:, None, :] - c[None, :, :]) ** 2, axis=2)
    return np.exp(-sq / (2.0 * bandwidth**2))


@pytest.mark.parametrize("offset,bandwidth", [(0.0, 1.0), (1e4, 0.01), (1e8, 1.0)])
def test_kernel_features_are_exact_far_from_the_origin(offset, bandwidth):
    # Expanding |x - c|^2 as |x|^2 - 2 x.c + |c|^2 cancels here: at 1e8 it was off by 0.75.
    rng = np.random.default_rng(5)
    c = offset + bandwidth * rng.normal(size=(9, 2))
    x = offset + bandwidth * rng.normal(size=(13, 2))
    K = gr.design_matrix(gr.kernel_map(c, bandwidth), x)
    assert np.array_equal(K, _direct_kernel(x, c, bandwidth))
    assert 0.0 < K.min() and K.max() < 1.0


def test_kernel_dictionary_at_its_centers_is_exactly_symmetric():
    pts = np.random.default_rng(6).normal(size=(40, 3))
    K = gr.design_matrix(gr.kernel_map(pts, 0.8), pts)
    assert np.array_equal(K, K.T)
    assert np.array_equal(np.diag(K), np.ones(40))


def test_kernel_features_build_no_n_by_k_by_d_temporary():
    # n x k x d doubles would be 200 * 150 * 100 * 8 B = 24 MB; one n x k array is 240 kB.
    rng = np.random.default_rng(7)
    fmap = gr.kernel_map(rng.normal(size=(150, 100)), 10.0)
    x = rng.normal(size=(200, 100))
    tracemalloc.start()
    try:
        gr.design_matrix(fmap, x)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4 * 200 * 150 * 8
