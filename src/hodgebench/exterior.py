"""Exact exterior algebra on finite-dimensional oriented inner-product spaces.

A p-form is stored as a coefficient vector over the strictly increasing
multi-indices of Lambda^p, listed in lexicographic order.  The basis is
assumed orthonormal, so inner products and norms are plain Euclidean
operations on the coefficient vectors; curved-space metrics enter only
through the frames chosen per point by callers.

Orientation convention: the Hodge star satisfies e_I ^ (star e_I) = vol,
where vol = e_1 ^ ... ^ e_n.
"""

from __future__ import annotations

import itertools
import json
from dataclasses import dataclass
from functools import lru_cache
from math import comb

import numpy as np

__all__ = [
    "AlternatingForm",
    "InducedEndomorphism",
    "SplitForm",
    "multi_indices",
    "multi_index_rank",
    "multi_index_unrank",
    "wedge",
    "hodge_star",
    "interior_product",
    "induced_endomorphism",
    "split_at_boundary",
    "duality_identity_residual",
    "tangent_frame",
    "tangential_part",
    "normal_part",
    "star_matrix",
    "wedge_basis_stack",
    "interior_basis_stack",
    "induced_generator_stack",
]


# ---------------------------------------------------------------------------
# multi-index bookkeeping


@lru_cache(maxsize=None)
def multi_indices(dim: int, degree: int) -> tuple:
    """All strictly increasing multi-indices of the given length, lex order."""
    if not 0 <= degree <= dim:
        raise ValueError(f"degree {degree} out of range for dim {dim}")
    return tuple(itertools.combinations(range(dim), degree))


def multi_index_rank(dim: int, index: tuple) -> int:
    """Lexicographic rank of a strictly increasing multi-index.

    Combinatorial number system; O(dim) without enumerating the basis.
    """
    p = len(index)
    rank = 0
    prev = -1
    for j, i in enumerate(index):
        for v in range(prev + 1, i):
            rank += comb(dim - 1 - v, p - 1 - j)
        prev = i
    return rank


def multi_index_unrank(dim: int, degree: int, rank: int) -> tuple:
    """Inverse of :func:`multi_index_rank`."""
    out = []
    prev = -1
    r = rank
    for j in range(degree):
        v = prev + 1
        while True:
            block = comb(dim - 1 - v, degree - 1 - j)
            if r < block:
                break
            r -= block
            v += 1
        out.append(v)
        prev = v
    return tuple(out)


@lru_cache(maxsize=None)
def _rank_table(dim: int, degree: int) -> dict:
    return {idx: r for r, idx in enumerate(multi_indices(dim, degree))}


def _merge_sign(left: tuple, right: tuple) -> int:
    # parity of the shuffle sorting (left, right); both inputs increasing
    inversions = sum(1 for a in left for b in right if a > b)
    return -1 if inversions & 1 else 1


# ---------------------------------------------------------------------------
# forms


class AlternatingForm:
    """A real alternating p-form over an orthonormal n-dimensional space.

    Parameters
    ----------
    dim : int
        Ambient dimension n (positive).
    degree : int
        Form degree p with 0 <= p <= n.
    coeffs : array_like
        C(n, p) coefficients over increasing multi-indices in lex order.
    """

    __slots__ = ("dim", "degree", "coeffs")

    def __init__(self, dim: int, degree: int, coeffs):
        if dim < 1:
            raise ValueError("dim must be positive")
        if not 0 <= degree <= dim:
            raise ValueError(f"degree {degree} out of range for dim {dim}")
        c = np.asarray(coeffs, dtype=float).reshape(-1)
        if c.size != comb(dim, degree):
            raise ValueError(
                f"expected {comb(dim, degree)} coefficients for "
                f"Lambda^{degree}(R^{dim}), got {c.size}"
            )
        c = c.copy()
        c.flags.writeable = False  # values are immutable after construction
        object.__setattr__(self, "dim", dim)
        object.__setattr__(self, "degree", degree)
        object.__setattr__(self, "coeffs", c)

    def __setattr__(self, name, value):
        raise AttributeError("AlternatingForm is immutable")

    # constructors -----------------------------------------------------
    @classmethod
    def zero(cls, dim: int, degree: int) -> "AlternatingForm":
        return cls(dim, degree, np.zeros(comb(dim, degree)))

    @classmethod
    def basis(cls, dim: int, index: tuple) -> "AlternatingForm":
        """Basis form e_I for the increasing multi-index ``index``."""
        index = tuple(index)
        if list(index) != sorted(set(index)):
            raise ValueError("basis multi-index must be strictly increasing")
        c = np.zeros(comb(dim, len(index)))
        c[multi_index_rank(dim, index)] = 1.0
        return cls(dim, len(index), c)

    @classmethod
    def volume(cls, dim: int) -> "AlternatingForm":
        return cls.basis(dim, tuple(range(dim)))

    @classmethod
    def covector(cls, v) -> "AlternatingForm":
        """The 1-form dual to the vector v (orthonormal basis)."""
        v = np.asarray(v, dtype=float)
        return cls(v.size, 1, v)

    # algebra ------------------------------------------------------------
    def __add__(self, other):
        self._check_same_space(other)
        return AlternatingForm(self.dim, self.degree, self.coeffs + other.coeffs)

    def __sub__(self, other):
        self._check_same_space(other)
        return AlternatingForm(self.dim, self.degree, self.coeffs - other.coeffs)

    def __neg__(self):
        return AlternatingForm(self.dim, self.degree, -self.coeffs)

    def __mul__(self, scalar):
        return AlternatingForm(self.dim, self.degree, self.coeffs * float(scalar))

    __rmul__ = __mul__

    def inner(self, other) -> float:
        self._check_same_space(other)
        return float(self.coeffs @ other.coeffs)

    def norm(self) -> float:
        return float(np.linalg.norm(self.coeffs))

    def wedge(self, other) -> "AlternatingForm":
        return wedge(self, other)

    def star(self) -> "AlternatingForm":
        return hodge_star(self)

    def interior(self, v) -> "AlternatingForm":
        return interior_product(v, self)

    def split(self, normal) -> "SplitForm":
        return split_at_boundary(self, normal)

    def _check_same_space(self, other):
        if self.dim != other.dim or self.degree != other.degree:
            raise ValueError("forms live in different spaces")

    # serialization --------------------------------------------------------
    def to_json(self) -> str:
        return json.dumps(
            {"dim": self.dim, "degree": self.degree, "coeffs": self.coeffs.tolist()}
        )

    @classmethod
    def from_json(cls, payload) -> "AlternatingForm":
        data = json.loads(payload) if isinstance(payload, str) else payload
        return cls(data["dim"], data["degree"], data["coeffs"])

    def __repr__(self):
        return f"AlternatingForm(dim={self.dim}, degree={self.degree}, coeffs={self.coeffs})"


@dataclass(frozen=True)
class SplitForm:
    """Tangential/normal decomposition of a form at a boundary point.

    ``tangential`` is the restriction to the orthogonal complement of the
    unit normal, expressed over the returned orthonormal tangent frame;
    ``normal`` is the interior product with the normal in the same frame.
    """

    tangential: AlternatingForm
    normal: AlternatingForm
    frame: np.ndarray  # (dim, dim-1), columns orthonormal, perpendicular to normal_vector
    normal_vector: np.ndarray

    def reconstruct(self) -> AlternatingForm:
        """Reassemble the ambient form (exact inverse of the split)."""
        m = self.frame.shape[0]
        p = self.normal.degree + 1
        q_mat = np.column_stack([self.frame, self.normal_vector])
        rotated = np.zeros(comb(m, p))
        if self.tangential.degree == p:
            for idx, c in zip(multi_indices(m - 1, p), self.tangential.coeffs):
                rotated[multi_index_rank(m, idx)] = c
        sign = -1.0 if (p - 1) & 1 else 1.0
        for idx, c in zip(multi_indices(m - 1, p - 1), self.normal.coeffs):
            rotated[multi_index_rank(m, idx + (m - 1,))] = sign * c
        k_mat = _compound_matrix(q_mat, p)
        return AlternatingForm(m, p, k_mat @ rotated)


# ---------------------------------------------------------------------------
# core operations


def wedge(a: AlternatingForm, b: AlternatingForm) -> AlternatingForm:
    """Exterior product a ^ b."""
    if a.dim != b.dim:
        raise ValueError(f"dimension mismatch: {a.dim} vs {b.dim}")
    degree = a.degree + b.degree
    if degree > a.dim:
        raise ValueError(f"degree overflow: {a.degree}+{b.degree} > {a.dim}")
    out = np.zeros(comb(a.dim, degree))
    ranks = _rank_table(a.dim, degree)
    idx_a = multi_indices(a.dim, a.degree)
    idx_b = multi_indices(a.dim, b.degree)
    for ia, ca in zip(idx_a, a.coeffs):
        if ca == 0.0:
            continue
        set_a = set(ia)
        for ib, cb in zip(idx_b, b.coeffs):
            if cb == 0.0 or set_a & set(ib):
                continue
            merged = tuple(sorted(ia + ib))
            out[ranks[merged]] += _merge_sign(ia, ib) * ca * cb
    return AlternatingForm(a.dim, degree, out)


def hodge_star(a: AlternatingForm) -> AlternatingForm:
    """Hodge star, mapping degree p to dim - p; an isometry."""
    return AlternatingForm(
        a.dim, a.dim - a.degree, star_matrix(a.dim, a.degree) @ a.coeffs
    )


@lru_cache(maxsize=None)
def star_matrix(dim: int, degree: int) -> np.ndarray:
    """Matrix of the Hodge star from Lambda^degree to Lambda^(dim-degree)."""
    rows = _rank_table(dim, dim - degree)
    mat = np.zeros((comb(dim, dim - degree), comb(dim, degree)))
    full = set(range(dim))
    for col, idx in enumerate(multi_indices(dim, degree)):
        compl = tuple(sorted(full - set(idx)))
        mat[rows[compl], col] = _merge_sign(idx, compl)
    mat.flags.writeable = False
    return mat


def interior_product(v, a: AlternatingForm) -> AlternatingForm:
    """Interior multiplication i_v a; degree drops by one."""
    v = np.asarray(v, dtype=float).reshape(-1)
    if v.size != a.dim:
        raise ValueError(f"vector lives in R^{v.size}, form in R^{a.dim}")
    if a.degree == 0:
        raise ValueError("interior product of a 0-form is undefined")
    stack = interior_basis_stack(a.dim, a.degree)
    return AlternatingForm(
        a.dim, a.degree - 1, np.einsum("kDc,c,k->D", stack, a.coeffs, v)
    )


def induced_endomorphism(base, degree: int, sym_tol: float = 1e-10):
    """Canonical derivation extension of a symmetric map to Lambda^degree.

    The operator acts on a p-form by substituting ``base`` into each slot
    in turn; its eigenvalues are all p-fold sums of eigenvalues of ``base``.
    Built by explicit action on basis multi-indices, not by
    eigen-decomposition, so it is exact for non-diagonal input.
    """
    base = np.asarray(base, dtype=float)
    if base.ndim != 2 or base.shape[0] != base.shape[1]:
        raise ValueError("base must be a square matrix")
    scale = max(1.0, float(np.abs(base).max()))
    if np.abs(base - base.T).max() > sym_tol * scale:
        raise ValueError("base matrix must be symmetric")
    n = base.shape[0]
    if not 0 <= degree <= n:
        raise ValueError(f"degree {degree} out of range for dim {n}")
    matrix = _derivation_matrix(base, degree)
    return InducedEndomorphism(base=base, degree=degree, matrix=matrix)


@dataclass(frozen=True)
class InducedEndomorphism:
    """Derivation extension of a symmetric map to Lambda^degree."""

    base: np.ndarray
    degree: int
    matrix: np.ndarray

    def apply(self, form: AlternatingForm) -> AlternatingForm:
        if form.degree != self.degree or form.dim != self.base.shape[0]:
            raise ValueError("form does not match the extension's space")
        return AlternatingForm(form.dim, form.degree, self.matrix @ form.coeffs)

    def eigenvalues(self) -> np.ndarray:
        return np.linalg.eigvalsh(self.matrix)


def _derivation_matrix(base: np.ndarray, degree: int) -> np.ndarray:
    n = base.shape[0]
    idxs = multi_indices(n, degree)
    ranks = _rank_table(n, degree)
    size = len(idxs)
    mat = np.zeros((size, size))
    for col, index in enumerate(idxs):
        for j, i in enumerate(index):
            others = index[:j] + index[j + 1 :]
            other_set = set(others)
            for k in range(n):
                coeff = base[i, k]
                if coeff == 0.0:
                    continue
                if k == i:
                    mat[col, col] += coeff
                    continue
                if k in other_set:
                    continue
                lo, hi = (i, k) if i < k else (k, i)
                gap = sum(1 for o in others if lo < o < hi)
                sign = -1.0 if gap & 1 else 1.0
                mat[ranks[tuple(sorted(others + (k,)))], col] += sign * coeff
    return mat


def tangent_frame(normal) -> np.ndarray:
    """Deterministic orthonormal basis of the orthogonal complement of a unit vector.

    Columns of the result, together with ``normal`` as the last vector, form
    an orthonormal basis of the ambient space (Householder completion).  A
    stack of normals of shape (..., m) gives a stack of (m, m - 1) frames.
    """
    n = np.asarray(normal, dtype=float)
    m = n.shape[-1]
    u = n.copy()
    u[..., -1] += np.where(n[..., -1] >= 0, 1.0, -1.0)
    uu = u[..., None, :] @ u[..., :, None]
    h = np.eye(m) - 2.0 * (u[..., :, None] * u[..., None, :]) / uu
    return h[..., : m - 1]


def split_at_boundary(a: AlternatingForm, normal, tol: float = 1e-12) -> SplitForm:
    """Split a form into tangential and normal parts against a unit normal.

    Returns the restriction to the normal's orthogonal complement and the
    interior product with the normal, both expressed over the orthonormal
    tangent frame of :func:`tangent_frame`.  Satisfies
    ||tangential||^2 + ||normal||^2 = ||a||^2.
    """
    n_vec = np.asarray(normal, dtype=float).reshape(-1)
    if n_vec.size != a.dim:
        raise ValueError("normal dimension does not match form dimension")
    if abs(np.linalg.norm(n_vec) - 1.0) > tol:
        raise ValueError("normal must be a unit vector")
    if a.degree == 0:
        raise ValueError("cannot split a 0-form (normal part would have degree -1)")
    m = a.dim
    p = a.degree
    frame = tangent_frame(n_vec)
    q_mat = np.column_stack([frame, n_vec])
    rotated = _compound_matrix(q_mat, p).T @ a.coeffs
    if p <= m - 1:
        tang = np.zeros(comb(m - 1, p))
        for r, idx in enumerate(multi_indices(m - 1, p)):
            tang[r] = rotated[multi_index_rank(m, idx)]
        tang_form = AlternatingForm(m - 1, p, tang)
    else:
        # a top-degree ambient form restricts to zero on the tangent space;
        # stored as the zero top-form there
        tang_form = AlternatingForm.zero(m - 1, m - 1)
    sign = -1.0 if (p - 1) & 1 else 1.0
    norm_coeffs = np.zeros(comb(m - 1, p - 1))
    for r, idx in enumerate(multi_indices(m - 1, p - 1)):
        norm_coeffs[r] = sign * rotated[multi_index_rank(m, idx + (m - 1,))]
    return SplitForm(
        tangential=tang_form,
        normal=AlternatingForm(m - 1, p - 1, norm_coeffs),
        frame=frame,
        normal_vector=n_vec.copy(),
    )


def _compound_matrix(q: np.ndarray, degree: int) -> np.ndarray:
    """p-th compound: K[J, I] = det(q[J, I]) over increasing multi-indices."""
    m = q.shape[0]
    idxs = multi_indices(m, degree)
    size = len(idxs)
    k_mat = np.empty((size, size))
    if degree == 0:
        return np.ones((1, 1))
    for jr, rows in enumerate(idxs):
        sub = q[list(rows), :]
        for ir, cols in enumerate(idxs):
            k_mat[jr, ir] = np.linalg.det(sub[:, list(cols)])
    return k_mat


def tangential_part(a: AlternatingForm, normal) -> AlternatingForm:
    """Ambient representative of the restriction J*: a - n^* ^ (i_n a)."""
    if a.degree == 0:
        return a
    n_vec = np.asarray(normal, dtype=float)
    return a - wedge(AlternatingForm.covector(n_vec), interior_product(n_vec, a))


def normal_part(a: AlternatingForm, normal) -> AlternatingForm:
    """Ambient representative of the normal component i_n a (tangential itself)."""
    return interior_product(np.asarray(normal, dtype=float), a)


def duality_identity_residual(shape_matrix, degree: int) -> float:
    """Operator-norm residual of star.S^[p] + S^[n-p].star - trace(S).star.

    A self-test: the identity holds for every symmetric matrix, so the
    residual is numerical noise (<= 1e-10 for sane inputs).
    """
    s = np.asarray(shape_matrix, dtype=float)
    n = s.shape[0]
    if not 0 <= degree <= n:
        raise ValueError(f"degree {degree} out of range for dim {n}")
    star = star_matrix(n, degree)
    s_p = induced_endomorphism(s, degree).matrix
    s_np = induced_endomorphism(s, n - degree).matrix
    residual = star @ s_p + s_np @ star - float(np.trace(s)) * star
    return float(np.linalg.norm(residual, 2))


# ---------------------------------------------------------------------------
# structure stacks for vectorized evaluation over many points


@lru_cache(maxsize=None)
def wedge_basis_stack(dim: int, degree: int) -> np.ndarray:
    """Stack of matrices of e_k ^ (-): shape (dim, C(dim,p+1), C(dim,p))."""
    if degree + 1 > dim:
        raise ValueError("degree overflow")
    rows = _rank_table(dim, degree + 1)
    out = np.zeros((dim, comb(dim, degree + 1), comb(dim, degree)))
    for col, idx in enumerate(multi_indices(dim, degree)):
        idx_set = set(idx)
        for k in range(dim):
            if k in idx_set:
                continue
            sign = -1.0 if sum(1 for b in idx if b < k) & 1 else 1.0
            out[k, rows[tuple(sorted(idx + (k,)))], col] = sign
    out.flags.writeable = False
    return out


@lru_cache(maxsize=None)
def interior_basis_stack(dim: int, degree: int) -> np.ndarray:
    """Stack of matrices of i_{e_k}: shape (dim, C(dim,p-1), C(dim,p))."""
    if degree < 1:
        raise ValueError("interior product needs degree >= 1")
    rows = _rank_table(dim, degree - 1)
    out = np.zeros((dim, comb(dim, degree - 1), comb(dim, degree)))
    for col, idx in enumerate(multi_indices(dim, degree)):
        for slot, k in enumerate(idx):
            sign = -1.0 if slot & 1 else 1.0
            out[k, rows[idx[:slot] + idx[slot + 1 :]], col] = sign
    out.flags.writeable = False
    return out


@lru_cache(maxsize=None)
def induced_generator_stack(dim: int, degree: int) -> np.ndarray:
    """Tensor G with S^[p] = einsum('IJab,ab->IJ', G, S) for any base S."""
    size = comb(dim, degree)
    out = np.zeros((size, size, dim, dim))
    for a in range(dim):
        for b in range(dim):
            unit = np.zeros((dim, dim))
            unit[a, b] = 1.0
            out[:, :, a, b] = _derivation_matrix(unit, degree)
    out.flags.writeable = False
    return out
