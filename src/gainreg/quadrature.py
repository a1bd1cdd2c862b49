"""One-dimensional quadrature, checked at the scale of the quantity it reports.

The rule is composite Gauss-Legendre; ``breakpoints`` let callers align panel
edges with kinks (support boundaries, density jumps) so the integrand stays
smooth inside each panel.  ``integrate`` is the only quadrature path: it starts
from a 256-node rule and doubles it until two successive passes agree within a
tolerance the caller states for the value it reports, and raises
``PrecisionFailureError`` when the 2^14-node pass has still not settled.  That
convergence check is the diagnostic every reported quantity relies on.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Callable, Iterable

import numpy as np

from .errors import InvalidParameterError, PrecisionFailureError

_GL_ORDER = 16
_NODES = tuple(2**k for k in range(8, 15))  # the doubling rule's passes, 256 to 2^14 nodes
CONVERGENCE_TOL = 1e-6
# A window of at least 10 scale units covers an unbounded integrand.  In a wider one
# the panels past 10 noise scales grow too coarse for the density's tail, and two passes
# can agree on a wrong value.  Up to 250, every catalog gain's sandwich, population gains
# and gap slopes at sigma <= 64 under Gaussian, t(2.5) and t(5) noise settle to their
# tolerance or raise; at 300 a Laplace population gain at sigma = 64 under t(5) noise is
# 4e-5 off, about 40 times its tolerance.
HALF_WIDTH_RANGE = (10.0, 250.0)


@dataclass(frozen=True)
class QuadratureConfig:
    """Truncation half-width, in scale units, of integrals over unbounded windows."""

    half_width: float = 40.0

    def __post_init__(self) -> None:
        lo, hi = HALF_WIDTH_RANGE
        if not (lo <= self.half_width <= hi):
            raise InvalidParameterError(
                f"half_width must lie in [{lo:g}, {hi:g}], got {self.half_width}"
            )


@lru_cache(maxsize=None)
def gauss_legendre_rule(order: int) -> tuple[np.ndarray, np.ndarray]:
    """Gauss-Legendre nodes and weights on [-1, 1], computed once per order."""
    x, w = np.polynomial.legendre.leggauss(order)
    # Shared by every later caller: read-only, so no caller can corrupt them.
    x.flags.writeable = False
    w.flags.writeable = False
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
    panels = max(per_seg // _GL_ORDER, 1)
    xr, wr = gauss_legendre_rule(_GL_ORDER)
    # Every segment has the same panel count, so one linspace over the segment ends
    # builds all their panel edges with the bits of one linspace per segment, unless
    # some segment's panel width underflows to zero.
    lo, hi = np.array(segs).T
    edges = np.linspace(lo, hi, panels + 1, axis=1)
    half = 0.5 * (edges[:, 1:] - edges[:, :-1])
    mid = 0.5 * (edges[:, 1:] + edges[:, :-1])
    return (mid[..., None] + half[..., None] * xr).ravel(), (half[..., None] * wr).ravel()


def integrate(
    fn: Callable, a: float, b: float, tol: Callable, breakpoints: Iterable[float] = (), summed=False
):
    """Integrate ``fn`` over [a, b], doubling the rule until two passes agree.

    Each pass is the weighted sum of ``fn``'s values at the nodes; with ``summed``,
    ``fn(nodes, weights)`` returns that sum itself, which lets a vector-valued
    integral be evaluated block by block.  The passes run from 256 to 2^14 nodes
    and stop at the first whose drift from the one before is at most ``tol(value)``,
    the bound the caller states for that pass's value; the drift of a vector is its
    largest entry's.  That pass is returned, a Python float for a scalar integral.
    """
    if not b > a:
        raise InvalidParameterError(f"empty integration interval [{a}, {b}]")
    bps, coarse = tuple(breakpoints), None
    for nodes in _NODES:
        x, w = nodes_weights(a, b, nodes, bps)
        fine = fn(x, w) if summed else float(np.asarray(fn(x), dtype=float) @ w)
        if not np.all(np.isfinite(fine)):
            raise PrecisionFailureError("integrand returned non-finite values")
        if coarse is not None:
            drift = float(np.max(np.abs(fine - coarse), initial=0.0))
            if drift <= tol(fine):
                return fine
        coarse = fine
    raise PrecisionFailureError(
        f"quadrature did not converge: passes {drift:.3g} apart at {nodes} nodes"
    )
