"""One-dimensional quadrature used by the certification suite.

The rule is composite Gauss-Legendre; ``breakpoints`` let callers
align panel edges with kinks (support boundaries, density jumps) so the
integrand stays smooth inside each panel.  ``integrate_checked`` repeats the
computation with doubled node count and raises when the two disagree, which
is the convergence diagnostic every reported quantity relies on.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Callable, Iterable

import numpy as np

from .errors import InvalidParameterError, PrecisionFailureError

_GL_ORDER = 16
CONVERGENCE_TOL = 1e-6


@dataclass(frozen=True)
class QuadratureConfig:
    """Truncation half-width (in scale units) and node budget."""

    half_width: float = 40.0
    nodes: int = 4096

    def __post_init__(self) -> None:
        if self.nodes < 64:
            raise InvalidParameterError(f"nodes must be >= 64, got {self.nodes}")
        # At least 10 to cover unbounded integrands; at most the 1e50 scale units
        # within which gains are evaluated, where their arithmetic stays finite.
        if not (10.0 <= self.half_width <= 1e50):
            raise InvalidParameterError(
                "half_width must be finite, >= 10 to cover unbounded integrands and "
                f"<= 1e50, got {self.half_width}"
            )


@lru_cache(maxsize=None)
def _gl_reference(order: int) -> tuple[np.ndarray, np.ndarray]:
    x, w = np.polynomial.legendre.leggauss(order)
    return x, w


def _segments(a: float, b: float, breakpoints: Iterable[float]) -> list[tuple[float, float]]:
    cuts = sorted({float(p) for p in breakpoints if a < p < b})
    edges = [a, *cuts, b]
    return [(lo, hi) for lo, hi in zip(edges[:-1], edges[1:]) if hi > lo]


def nodes_weights(
    a: float, b: float, nodes: int, breakpoints: Iterable[float]
) -> tuple[np.ndarray, np.ndarray]:
    """Composite Gauss-Legendre nodes and weights on [a, b], panels split at breakpoints."""
    segs = _segments(a, b, breakpoints)
    per_seg = max(nodes // max(len(segs), 1), _GL_ORDER)
    xr, wr = _gl_reference(_GL_ORDER)
    xs, ws = [], []
    for lo, hi in segs:
        panels = max(per_seg // _GL_ORDER, 1)
        edges = np.linspace(lo, hi, panels + 1)
        half = 0.5 * (edges[1:] - edges[:-1])
        mid = 0.5 * (edges[1:] + edges[:-1])
        xs.append((mid[:, None] + half[:, None] * xr[None, :]).ravel())
        ws.append((half[:, None] * wr[None, :]).ravel())
    return np.concatenate(xs), np.concatenate(ws)


def integrate(
    fn: Callable[[np.ndarray], np.ndarray],
    a: float,
    b: float,
    cfg: QuadratureConfig,
    breakpoints: Iterable[float] = (),
) -> float:
    """Integrate a vectorized function over [a, b] with composite Gauss-Legendre."""
    if not b > a:
        raise InvalidParameterError(f"empty integration interval [{a}, {b}]")
    x, w = nodes_weights(a, b, cfg.nodes, breakpoints)
    vals = np.asarray(fn(x), dtype=float)
    if not np.all(np.isfinite(vals)):
        raise PrecisionFailureError("integrand returned non-finite values")
    return float(vals @ w)


def integrate_checked(
    fn: Callable[[np.ndarray], np.ndarray],
    a: float,
    b: float,
    cfg: QuadratureConfig,
    breakpoints: Iterable[float] = (),
) -> float:
    """Integrate, then re-integrate with doubled nodes; raise if they disagree."""
    coarse = integrate(fn, a, b, cfg, breakpoints)
    fine_cfg = QuadratureConfig(cfg.half_width, 2 * cfg.nodes)
    fine = integrate(fn, a, b, fine_cfg, breakpoints)
    if abs(fine - coarse) > CONVERGENCE_TOL * max(1.0, abs(fine)):
        raise PrecisionFailureError(
            f"quadrature did not converge: {coarse!r} vs {fine!r} after node doubling"
        )
    return fine
