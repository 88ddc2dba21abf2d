"""Hypersurface curvature quantities: p-curvatures, convexity, shape norms.

Sign convention throughout: principal curvatures are taken with respect to
the inner unit normal of the enclosed domain, so a round sphere of radius r
has all curvatures equal to +1/r.
"""

from __future__ import annotations

import csv
import itertools
from dataclasses import dataclass, field
from math import comb

import numpy as np

__all__ = [
    "ShapeData",
    "CurvatureTerm",
    "p_curvature_list",
    "lowest_p_curvature",
    "lowest_p_curvature_global",
    "is_p_convex",
    "sum_largest_squared_curvatures",
    "gallot_meyer_bound",
    "bourguignon_w",
    "write_vertex_curvature_csv",
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


def lowest_p_curvature(principal, p: int) -> float:
    """Smallest p-fold sum at one point: sum of the p smallest curvatures."""
    eta = np.sort(np.asarray(principal, dtype=float).reshape(-1))
    if not 1 <= p <= eta.size:
        raise ValueError(f"p={p} out of range 1..{eta.size}")
    return float(eta[:p].sum())


def lowest_p_curvature_global(per_point, p: int) -> float:
    """Infimum over sample points of the lowest p-curvature.

    ``per_point`` is an (M, n) array of principal curvatures, one row per
    point, or an iterable of ShapeData or principal-curvature arrays.  On a
    mesh this is the minimum over vertices, a sampling approximation of the
    true infimum.
    """
    if not isinstance(per_point, np.ndarray):
        per_point = [item.principal if isinstance(item, ShapeData) else item for item in per_point]
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


def sum_largest_squared_curvatures(principal, p: int) -> float:
    """Sum of the p largest squared principal curvatures.

    Equals the full squared Frobenius norm of the shape operator at p = n.
    """
    eta = np.asarray(principal, dtype=float).reshape(-1)
    if not 1 <= p <= eta.size:
        raise ValueError(f"p={p} out of range 1..{eta.size}")
    sq = np.sort(eta**2)
    return float(sq[-p:].sum())


def gallot_meyer_bound(gamma: float, ambient_dim: int, p: int) -> float:
    """Gallot-Meyer lower bound p(m-p)*gamma for the degree-p curvature term
    of an m-dimensional manifold whose curvature operator is >= gamma."""
    n = ambient_dim - 1
    if not 1 <= p <= n:
        raise ValueError(f"p={p} out of range 1..{n}")
    return float(p * (ambient_dim - p) * gamma)


def bourguignon_w(scalar_curvature: float, m: int) -> float:
    """Bourguignon's middle-degree curvature term on locally conformally flat
    2m-manifolds: m*R / (2(2m-1)) acting as a scalar on m-forms."""
    if m < 1:
        raise ValueError("half-dimension m must be >= 1")
    return float(m * scalar_curvature / (2.0 * (2 * m - 1)))


@dataclass(frozen=True)
class ShapeData:
    """Shape-operator data at one surface point.

    Attributes
    ----------
    principal : np.ndarray
        Principal curvatures, sorted ascending (1/length units).
    shape_matrix : np.ndarray
        Symmetric n x n shape operator in an orthonormal tangent frame.
    mean : float
        Mean curvature H = trace / n.
    sigma : np.ndarray
        Lowest p-curvatures for p = 1..n (partial sums of ``principal``).
    """

    principal: np.ndarray
    shape_matrix: np.ndarray
    mean: float = field(default=None)
    sigma: np.ndarray = field(default=None)

    def __post_init__(self):
        eta = np.sort(np.asarray(self.principal, dtype=float).reshape(-1))
        mat = np.asarray(self.shape_matrix, dtype=float)
        mat = (mat + mat.T) / 2.0  # symmetrize numerically-asymmetric input
        if mat.shape != (eta.size, eta.size):
            raise ValueError("shape_matrix does not match principal curvatures")
        scale = max(1.0, float(np.abs(eta).max(initial=0.0)))
        if np.abs(np.linalg.eigvalsh(mat) - eta).max() > 1e-8 * scale:
            raise ValueError("principal curvatures are not the spectrum of shape_matrix")
        object.__setattr__(self, "principal", eta)
        object.__setattr__(self, "shape_matrix", mat)
        object.__setattr__(self, "mean", float(eta.mean()))
        object.__setattr__(self, "sigma", np.cumsum(eta))

    @classmethod
    def from_matrix(cls, shape_matrix) -> "ShapeData":
        mat = np.asarray(shape_matrix, dtype=float)
        mat = (mat + mat.T) / 2.0
        return cls(principal=np.linalg.eigvalsh(mat), shape_matrix=mat)

    @classmethod
    def from_principal(cls, principal) -> "ShapeData":
        eta = np.sort(np.asarray(principal, dtype=float).reshape(-1))
        return cls(principal=eta, shape_matrix=np.diag(eta))

    @property
    def dim(self) -> int:
        return self.principal.size


class CurvatureTerm:
    """Closed enumeration of supported ambient curvature terms.

    Only the cases with a scalar action (or scalar lower bound) on p-forms
    are representable: constant curvature, a curvature-operator lower bound,
    and the locally-conformally-flat middle degree.
    """

    KINDS = ("constant_curvature", "gallot_meyer_lower_bound", "lcf_middle_degree")

    def __init__(self, kind: str, value: float):
        if kind not in self.KINDS:
            raise ValueError(f"unsupported curvature term kind: {kind!r}")
        self.kind = kind
        self.value = float(value)

    @classmethod
    def constant(cls, kappa: float) -> "CurvatureTerm":
        return cls("constant_curvature", kappa)

    @classmethod
    def operator_bound(cls, gamma: float) -> "CurvatureTerm":
        return cls("gallot_meyer_lower_bound", gamma)

    @classmethod
    def conformally_flat(cls, scalar_curvature: float) -> "CurvatureTerm":
        return cls("lcf_middle_degree", scalar_curvature)

    def scalar(self, p: int, ambient_dim: int) -> float:
        """Scalar acting on p-forms (exact for constant curvature and the LCF
        middle degree, a lower bound for the operator-bound kind)."""
        if self.kind in ("constant_curvature", "gallot_meyer_lower_bound"):
            return gallot_meyer_bound(self.value, ambient_dim, p)
        # lcf_middle_degree: only defined at p = ambient_dim / 2
        if ambient_dim % 2 != 0 or p != ambient_dim // 2:
            raise ValueError(
                "locally-conformally-flat term only acts in the middle degree"
            )
        return bourguignon_w(self.value, ambient_dim // 2)

    def __repr__(self):
        return f"CurvatureTerm({self.kind}, {self.value})"


def write_vertex_curvature_csv(path, shapes) -> None:
    """Write one row per vertex: principal curvatures, H, lowest p-curvatures."""
    shapes = list(shapes)
    if not shapes:
        raise ValueError("no shape data to export")
    n = shapes[0].dim
    header = (
        ["vertex"]
        + [f"eta{i + 1}" for i in range(n)]
        + ["H"]
        + [f"sigma{p + 1}" for p in range(n)]
    )
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for i, sd in enumerate(shapes):
            writer.writerow(
                [i]
                + [f"{v:.16g}" for v in sd.principal]
                + [f"{sd.mean:.16g}"]
                + [f"{v:.16g}" for v in sd.sigma]
            )
