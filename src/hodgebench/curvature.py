"""Hypersurface curvature quantities: p-curvatures and p-convexity.

Sign convention throughout: principal curvatures are taken with respect to
the inner unit normal of the enclosed domain, so a round sphere of radius r
has all curvatures equal to +1/r.
"""

from __future__ import annotations

import itertools

import numpy as np

__all__ = [
    "p_curvature_list",
    "lowest_p_curvature_global",
    "is_p_convex",
]


def p_curvature_list(principal, p: int) -> np.ndarray:
    """All p-fold sums of principal curvatures, sorted ascending.

    The first entry is the lowest p-curvature of the point.
    """
    eta = np.asarray(principal, dtype=float).reshape(-1)
    n = eta.size
    if not 1 <= p <= n:
        raise ValueError(f"p={p} out of range 1..{n}")
    sums = [sum(c) for c in itertools.combinations(eta, p)]
    return np.sort(np.asarray(sums))


def lowest_p_curvature_global(per_point, p: int) -> float:
    """Infimum over sample points of the lowest p-curvature.

    ``per_point`` is an (M, n) array of principal curvatures, one row per
    point, or an iterable of principal-curvature arrays.  On a mesh this is
    the minimum over vertices, a sampling approximation of the true infimum.
    """
    eta = np.asarray(per_point, dtype=float)
    if len(eta) == 0:
        raise ValueError("empty collection of sample points")
    eta = np.sort(eta.reshape(len(eta), -1), axis=1)
    if not 1 <= p <= eta.shape[1]:
        raise ValueError(f"p={p} out of range 1..{eta.shape[1]}")
    return float(eta[:, :p].sum(axis=1).min())


def is_p_convex(per_point, p: int, strict: bool = False) -> bool:
    """True when every p-curvature over the sample is nonnegative (positive)."""
    sigma = lowest_p_curvature_global(per_point, p)
    return sigma > 0.0 if strict else sigma >= 0.0
