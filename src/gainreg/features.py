"""Finite-dimensional hypothesis spaces with sup-norm control.

Two feature families: raw inputs plus an intercept, and a squared-exponential
kernel dictionary anchored at training points (a representer-style stand-in
for an RKHS ball that keeps the optimization finite-dimensional).  Models are
immutable; clipping truncates predictions to [-M, M] at evaluation time.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import InvalidInputError, InvalidParameterError
from .rng import generator

LINEAR = "linear_with_intercept"
KERNEL = "kernel_dictionary"

DEFAULT_CENTER_CAP = 500


@dataclass(frozen=True)
class FeatureMap:
    kind: str
    input_dim: int
    centers: Optional[np.ndarray] = None  # (k, input_dim), kernel kind only
    bandwidth: Optional[float] = None

    def __post_init__(self) -> None:
        if self.kind not in (LINEAR, KERNEL):
            raise InvalidParameterError(f"unknown feature map kind {self.kind!r}")
        if self.input_dim < 1:
            raise InvalidParameterError("input_dim must be positive")
        if self.kind == KERNEL:
            if self.centers is None or len(self.centers) == 0:
                raise InvalidParameterError("kernel maps need at least one center")
            # The kernel divides by the squared bandwidth, which must neither vanish nor overflow.
            if self.bandwidth is None or not (0.0 < self.bandwidth * self.bandwidth < math.inf):
                raise InvalidParameterError(
                    f"kernel maps need a positive bandwidth with a finite, nonzero square, "
                    f"got {self.bandwidth}"
                )
            centers = np.atleast_2d(np.asarray(self.centers, dtype=float))
            if centers.shape[1] != self.input_dim:
                raise InvalidParameterError(
                    f"centers have dimension {centers.shape[1]}, expected {self.input_dim}"
                )
            object.__setattr__(self, "centers", centers)

    @property
    def feature_count(self) -> int:
        if self.kind == LINEAR:
            return self.input_dim + 1
        return len(self.centers)


@dataclass(frozen=True)
class HypothesisModel:
    feature_map: FeatureMap
    coefficients: np.ndarray
    M: float
    clip: bool = False

    def __post_init__(self) -> None:
        coeffs = np.asarray(self.coefficients, dtype=float).ravel()
        if coeffs.shape[0] != self.feature_map.feature_count:
            raise InvalidParameterError(
                f"{coeffs.shape[0]} coefficients for {self.feature_map.feature_count} features"
            )
        if not (self.M > 0):
            raise InvalidParameterError(f"M must be positive, got {self.M}")
        object.__setattr__(self, "coefficients", coeffs)


def linear_map(input_dim: int = 1) -> FeatureMap:
    return FeatureMap(kind=LINEAR, input_dim=input_dim)


def kernel_map(centers: np.ndarray, bandwidth: float) -> FeatureMap:
    centers = np.atleast_2d(np.asarray(centers, dtype=float))
    return FeatureMap(kind=KERNEL, input_dim=centers.shape[1], centers=centers, bandwidth=bandwidth)


def subsample_centers(
    inputs: np.ndarray, cap: int = DEFAULT_CENTER_CAP, seed: int = 0
) -> np.ndarray:
    """All training inputs as centers, uniformly subsampled above ``cap``."""
    if cap < 1:
        raise InvalidParameterError(f"the center cap must be positive, got {cap}")
    inputs = np.asarray(inputs, dtype=float)
    if inputs.ndim == 1:
        inputs = inputs[:, None]
    inputs = np.atleast_2d(inputs)
    if len(inputs) <= cap:
        return inputs
    idx = generator(seed, "centers").choice(len(inputs), size=cap, replace=False)
    return inputs[np.sort(idx)]


def default_sup_bound(outputs: np.ndarray) -> float:
    """Fallback sup bound: 1.2x the largest observed |y|."""
    peak = float(np.max(np.abs(outputs))) if len(outputs) else 1.0
    return 1.2 * peak if peak > 0 else 1.0


def _check_inputs(fmap: FeatureMap, x: np.ndarray) -> tuple[np.ndarray, bool]:
    arr = np.asarray(x, dtype=float)
    single = arr.ndim == 1
    arr = np.atleast_2d(arr)
    if arr.shape[1] != fmap.input_dim:
        raise InvalidInputError(
            f"input has dimension {arr.shape[1]}, feature map expects {fmap.input_dim}"
        )
    return arr, single


def design_matrix(fmap: FeatureMap, inputs: np.ndarray) -> np.ndarray:
    """Feature matrix with one row per input point."""
    inputs = np.asarray(inputs, dtype=float)
    if inputs.size == 0:
        return np.zeros((0, fmap.feature_count))
    arr, _ = _check_inputs(fmap, inputs)
    if fmap.kind == LINEAR:
        return np.hstack([arr, np.ones((len(arr), 1))])
    # Under a tiny bandwidth far points' exponents overflow to inf, and exp(-inf) = 0 is
    # exact.  Squares beyond about 1e154 overflow too, and inf - inf is NaN: then the
    # distances are taken as direct differences, where an overflow is an inf distance.
    with np.errstate(over="ignore", invalid="ignore"):
        sq = (
            np.sum(arr**2, axis=1)[:, None]
            - 2.0 * arr @ fmap.centers.T
            + np.sum(fmap.centers**2, axis=1)[None, :]
        )
        if not np.isfinite(sq).all():
            sq = np.sum((arr[:, None, :] - fmap.centers[None, :, :]) ** 2, axis=2)
        return np.exp(-np.maximum(sq, 0.0) / (2.0 * fmap.bandwidth**2))


def predict_batch(model: HypothesisModel, inputs: np.ndarray) -> np.ndarray:
    """Model outputs for a batch of inputs, one row per point."""
    values = design_matrix(model.feature_map, inputs) @ model.coefficients
    if model.clip:
        values = np.clip(values, -model.M, model.M)
    return values


def predict(model: HypothesisModel, x: np.ndarray) -> float | np.ndarray:
    """Model output at one point (1-d input) or a batch (2-d input)."""
    arr, single = _check_inputs(model.feature_map, np.asarray(x, dtype=float))
    values = predict_batch(model, arr)
    return float(values[0]) if single else values


def model_to_json(model: HypothesisModel) -> str:
    """Serialize a model; float repr round-trips IEEE doubles bit-exactly."""
    fmap = model.feature_map
    payload = {
        "kind": fmap.kind,
        "input_dim": fmap.input_dim,
        "centers": None if fmap.centers is None else fmap.centers.tolist(),
        "bandwidth": fmap.bandwidth,
        "coefficients": model.coefficients.tolist(),
        "M": model.M,
        "clip": model.clip,
    }
    return json.dumps(payload, indent=2, sort_keys=True)


def model_from_json(text: str) -> HypothesisModel:
    """Parse a saved model; a malformed or incomplete file is invalid input."""
    try:
        payload = json.loads(text)
        if payload["kind"] == KERNEL:
            fmap = kernel_map(np.asarray(payload["centers"], dtype=float), payload["bandwidth"])
        else:
            fmap = linear_map(payload["input_dim"])
        return HypothesisModel(
            feature_map=fmap,
            coefficients=np.asarray(payload["coefficients"], dtype=float),
            M=payload["M"],
            clip=payload["clip"],
        )
    except KeyError as exc:
        raise InvalidInputError(f"saved model has no {exc} field") from None
    except (TypeError, ValueError) as exc:
        raise InvalidInputError(f"not a saved model ({exc})") from None
