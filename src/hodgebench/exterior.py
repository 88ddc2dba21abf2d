"""Exact exterior algebra on finite-dimensional oriented inner-product spaces.

A p-form is stored as a coefficient vector over the strictly increasing
multi-indices of Lambda^p, listed in lexicographic order.  The basis is
assumed orthonormal, so inner products and norms are plain Euclidean
operations on the coefficient vectors; curved-space metrics enter only
through the frames chosen per point by callers.

Orientation convention: the Hodge star satisfies e_I ^ (star e_I) = vol,
where vol = e_1 ^ ... ^ e_n.

Every operation is a contraction with cached structure stacks, enumerated
from their nonzeros: the wedge tensor and the scatter table of the induced
operators; the ``_batch_*`` functions apply the same stacks to coefficient
arrays of many points at once.
"""

from __future__ import annotations

import itertools
from bisect import bisect
from dataclasses import dataclass
from functools import lru_cache
from math import comb

import numpy as np

__all__ = [
    "AlternatingForm",
    "InducedEndomorphism",
    "SplitForm",
    "multi_indices",
    "wedge",
    "hodge_star",
    "interior_product",
    "induced_endomorphism",
    "split_at_boundary",
    "duality_identity_residual",
    "tangent_frame",
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
        if not np.isfinite(c).all():
            raise ValueError("coefficients must be finite")
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
        rank = _rank_table(dim, len(index)).get(index)
        if rank is None:
            raise ValueError(f"basis multi-index must be strictly increasing in range({dim})")
        c = np.zeros(comb(dim, len(index)))
        c[rank] = 1.0
        return cls(dim, len(index), c)

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

    def _check_same_space(self, other):
        if self.dim != other.dim or self.degree != other.degree:
            raise ValueError("forms live in different spaces")

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


# ---------------------------------------------------------------------------
# core operations: contractions with the structure stacks below


def wedge(a: AlternatingForm, b: AlternatingForm) -> AlternatingForm:
    """Exterior product a ^ b."""
    if a.dim != b.dim:
        raise ValueError(f"dimension mismatch: {a.dim} vs {b.dim}")
    degree = a.degree + b.degree
    if degree > a.dim:
        raise ValueError(f"degree overflow: {a.degree}+{b.degree} > {a.dim}")
    tensor = _wedge_tensor(a.dim, a.degree, b.degree)
    return AlternatingForm(a.dim, degree, np.einsum("KIJ,I,J->K", tensor, a.coeffs, b.coeffs))


def hodge_star(a: AlternatingForm) -> AlternatingForm:
    """Hodge star, mapping degree p to dim - p; an isometry."""
    return AlternatingForm(
        a.dim, a.dim - a.degree, star_matrix(a.dim, a.degree) @ a.coeffs
    )


def interior_product(v, a: AlternatingForm) -> AlternatingForm:
    """Interior multiplication i_v a; degree drops by one."""
    v = _vector_in(a, v)
    if a.degree == 0:
        raise ValueError("interior product of a 0-form is undefined")
    return AlternatingForm(
        a.dim, a.degree - 1, _batch_interior(a.coeffs[None], v[None], a.degree)[0]
    )


def induced_endomorphism(base, degree: int):
    """Canonical derivation extension of a symmetric map to Lambda^degree.

    The operator acts on a p-form by substituting ``base`` into each slot
    in turn; its eigenvalues are all p-fold sums of eigenvalues of ``base``.
    The matrix is sum_(a,b) base[a, b] e_b ^ i_(e_a), scattered from the
    nonzeros of :func:`induced_generator_stack` rather than found by
    eigen-decomposition, so it is exact for non-diagonal input.  ``base``
    must be symmetric to 1e-10 of max(1, max |base|).
    """
    base = _symmetric_base(base)
    n = base.shape[0]
    if not 0 <= degree <= n:
        raise ValueError(f"degree {degree} out of range for dim {n}")
    return InducedEndomorphism(base=base, degree=degree, matrix=_induced_matrix(base, degree))


def _symmetric_base(base) -> np.ndarray:
    """``base`` as a float array, checked square, finite and symmetric."""
    base = np.asarray(base, dtype=float)
    if base.ndim != 2 or base.shape[0] != base.shape[1]:
        raise ValueError("base must be a square matrix")
    if not np.isfinite(base).all():
        raise ValueError("base matrix must be finite")
    scale = max(1.0, float(np.abs(base).max()))
    if np.abs(base - base.T).max() > 1e-10 * scale:
        raise ValueError("base matrix must be symmetric")
    return base


def _induced_matrix(base, degree: int) -> np.ndarray:
    """The matrix of :func:`induced_endomorphism` of a checked ``base``."""
    size = comb(base.shape[0], degree)
    matrix = np.zeros(size * size)
    if degree > 0:
        flat, ab, sign, diagonal = _induced_scatter(base.shape[0], degree)
        # the diagonal is the ascending sum of base[i, i] over the
        # multi-index (at top degree, the trace).  Adding +0.0 makes a zero
        # entry +0.0, never -0.0.
        matrix[flat] = sign * base.flat[ab] + 0.0
        matrix[:: size + 1] = np.cumsum(base.diagonal()[diagonal], axis=1)[:, -1] + 0.0
    return matrix.reshape(size, size)


@dataclass(frozen=True)
class InducedEndomorphism:
    """Derivation extension of a symmetric map to Lambda^degree."""

    base: np.ndarray
    degree: int
    matrix: np.ndarray

    def eigenvalues(self) -> np.ndarray:
        return np.linalg.eigvalsh(self.matrix)


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
    n_vec = _vector_in(a, normal, "normal")
    if not abs(np.linalg.norm(n_vec) - 1.0) <= tol:  # also rejects NaN and inf
        raise ValueError("normal must be a finite unit vector")
    if a.degree == 0:
        raise ValueError("cannot split a 0-form (normal part would have degree -1)")
    m = a.dim
    p = a.degree
    frame = tangent_frame(n_vec)
    q_mat = np.column_stack([frame, n_vec])
    rotated = _compound(q_mat, p).T @ a.coeffs  # coefficients in the (frame, normal) basis
    if p <= m - 1:
        tang_form = AlternatingForm(m - 1, p, rotated[_face_ranks(m, p)])
    else:
        # a top-degree ambient form restricts to zero on the tangent space;
        # stored as the zero top-form there
        tang_form = AlternatingForm.zero(m - 1, m - 1)
    norm_coeffs = (interior_basis_stack(m, p)[m - 1] @ rotated)[_face_ranks(m, p - 1)]
    return SplitForm(
        tangential=tang_form,
        normal=AlternatingForm(m - 1, p - 1, norm_coeffs),
        frame=frame,
        normal_vector=n_vec.copy(),
    )


def duality_identity_residual(shape_matrix, degree: int) -> float:
    """Frobenius-norm residual of star.S^[p] + S^[n-p].star - trace(S).star,
    an upper bound of its operator norm that needs no SVD.

    A self-test: the identity holds for every symmetric matrix, so the
    residual is numerical noise (<= 1e-10 for sane inputs).
    """
    s = np.asarray(shape_matrix, dtype=float)
    n = s.shape[0]
    if not 0 <= degree <= n:
        raise ValueError(f"degree {degree} out of range for dim {n}")
    star = star_matrix(n, degree)
    s = _symmetric_base(s)
    s_p = _induced_matrix(s, degree)
    s_np = _induced_matrix(s, n - degree)
    residual = star @ s_p + s_np @ star - float(np.trace(s)) * star
    return float(np.linalg.norm(residual))


def _vector_in(a: AlternatingForm, v, what: str = "vector") -> np.ndarray:
    v = np.asarray(v, dtype=float).reshape(-1)
    if v.size != a.dim:
        raise ValueError(f"{what} lives in R^{v.size}, form in R^{a.dim}")
    return v


# ---------------------------------------------------------------------------
# structure stacks, built on first use and cached


@lru_cache(maxsize=None)
def _wedge_tensor(dim: int, p: int, q: int) -> np.ndarray:
    """T with a ^ b = einsum('KIJ,I,J->K', T, a, b) for a p-form a and a q-form b.

    Built by enumeration: each (p+q)-index K splits into I and J = K - I in
    C(p+q, p) ways, and e_I ^ e_J = sign(I, J) e_K.  The star matrix and the
    wedge and interior stacks below are slices and transposes of it.
    """
    if p + q > dim:
        raise ValueError("degree overflow")
    left, right = _rank_table(dim, p), _rank_table(dim, q)
    out = np.zeros((comb(dim, p + q), comb(dim, p), comb(dim, q)))
    for k, index in enumerate(multi_indices(dim, p + q)):
        for ia in itertools.combinations(index, p):
            ib = tuple(i for i in index if i not in ia)
            out[k, left[ia], right[ib]] = _merge_sign(ia, ib)
    out.flags.writeable = False
    return out


@lru_cache(maxsize=None)
def star_matrix(dim: int, degree: int) -> np.ndarray:
    """Matrix of the Hodge star from Lambda^degree to Lambda^(dim-degree)."""
    # e_I ^ star(e_I) = vol fixes star(e_I) = sign(I, I^c) e_(I^c)
    out = np.ascontiguousarray(_wedge_tensor(dim, degree, dim - degree)[0].T)
    out.flags.writeable = False
    return out


@lru_cache(maxsize=None)
def wedge_basis_stack(dim: int, degree: int) -> np.ndarray:
    """Stack of matrices of e_k ^ (-): shape (dim, C(dim,p+1), C(dim,p))."""
    out = np.ascontiguousarray(_wedge_tensor(dim, 1, degree).transpose(1, 0, 2))
    out.flags.writeable = False
    return out


@lru_cache(maxsize=None)
def interior_basis_stack(dim: int, degree: int) -> np.ndarray:
    """Stack of matrices of i_{e_k}: shape (dim, C(dim,p-1), C(dim,p))."""
    if degree < 1:
        raise ValueError("interior product needs degree >= 1")
    # i_(e_k) is the adjoint of e_k ^ (-) in an orthonormal basis
    out = np.ascontiguousarray(wedge_basis_stack(dim, degree - 1).transpose(0, 2, 1))
    out.flags.writeable = False
    return out


@lru_cache(maxsize=None)
def induced_generator_stack(dim: int, degree: int) -> np.ndarray:
    """Tensor G with S^[p] = einsum('IJab,ab->IJ', G, S) for any base S.

    G[:, :, a, b] = (e_b ^ -) o i_(e_a), the derivation of the unit map
    e_a -> e_b, scattered from :func:`_induced_scatter`.
    """
    size = comb(dim, degree)
    out = np.zeros(size * size * dim * dim)
    if degree > 0:
        flat, ab, sign, diagonal = _induced_scatter(dim, degree)
        out[flat * dim * dim + ab] = sign
        ranks = np.arange(size)[:, None]
        out[ranks * (size + 1) * dim * dim + diagonal * (dim + 1)] = 1.0
    out = out.reshape(size, size, dim, dim)
    out.flags.writeable = False
    return out


@lru_cache(maxsize=None)
def _induced_scatter(dim: int, degree: int) -> tuple:
    """The nonzeros of S^[p] = sum_(a,b) S[a, b] (e_b ^ -) o i_(e_a) as a scatter table.

    Returns (flat, ab, sign, diagonal): entry ``flat`` of the flattened
    S^[p] is sign * S.flat[ab], one term per off-diagonal entry, and row I
    of ``diagonal`` lists the multi-index I, whose S[i, i] sum to the
    diagonal entry [I, I].  An off-diagonal term replaces a = J[s] of the
    column index J by some b outside J: i_(e_a) gives (-1)^s, and e_b ^ -
    gives (-1)^t with t the count of J - a below b.
    """
    size = comb(dim, degree)
    ranks = _rank_table(dim, degree)
    flat, ab, sign = [], [], []
    for col, index in enumerate(multi_indices(dim, degree)):
        for s, a in enumerate(index):
            rest = index[:s] + index[s + 1 :]
            for b in range(dim):
                if b in index:
                    continue
                t = bisect(rest, b)
                flat.append(ranks[rest[:t] + (b,) + rest[t:]] * size + col)
                ab.append(a * dim + b)
                sign.append(-1.0 if (s + t) & 1 else 1.0)
    diagonal = np.array(multi_indices(dim, degree), dtype=np.intp).reshape(size, degree)
    table = (np.array(flat, dtype=np.intp), np.array(ab, dtype=np.intp), np.array(sign), diagonal)
    for arr in table:
        arr.flags.writeable = False
    return table


@lru_cache(maxsize=None)
def _derivative_matrix(dim: int, degree: int, which: str) -> np.ndarray:
    """K with (d or delta of the form)[m] = jac[m].reshape(-1) @ K, one column per output.

    Row c * dim + k holds the stack entries that pair coefficient c with
    direction k.  A single output column is padded with a zero column: the
    matrix product then sums each row in the same sequence as the per-point
    contraction, which a matrix-vector product does not.
    """
    if which == "d":
        stack = wedge_basis_stack(dim, degree)
    else:
        stack = -interior_basis_stack(dim, degree)
    out = stack.transpose(2, 0, 1).reshape(comb(dim, degree) * dim, -1)
    if out.shape[1] == 1:
        out = np.column_stack([out, np.zeros(out.shape[0])])
    out = np.ascontiguousarray(out)
    out.flags.writeable = False
    return out


@lru_cache(maxsize=None)
def _face_ranks(dim: int, degree: int) -> np.ndarray:
    """Ranks of the degree-p multi-indices that avoid the last axis, in lex order."""
    return np.array(
        [r for r, idx in enumerate(multi_indices(dim, degree)) if dim - 1 not in idx], dtype=int
    )


def _compound(q: np.ndarray, degree: int) -> np.ndarray:
    """p-th compound of q: column I holds the wedge of the columns q[:, i], i in I.

    Entry [J, I] equals det(q[J, I]) over increasing multi-indices.
    """
    m = q.shape[0]
    out = np.ones((1, 1))
    for r in range(degree):
        # column I of degree r + 1 is q[:, I[0]] ^ (column I[1:] of degree r)
        idxs = multi_indices(m, r + 1)
        head = [idx[0] for idx in idxs]
        tail = [_rank_table(m, r)[idx[1:]] for idx in idxs]
        out = np.einsum("kKL,kI,LI->KI", wedge_basis_stack(m, r), q[:, head], out[:, tail])
    return out


# ---------------------------------------------------------------------------
# batched operations over M points: coefficient arrays of shape (M, C(dim, p))


def _batch_interior(coeffs, normals, degree):
    stack = interior_basis_stack(normals.shape[1], degree)
    return np.einsum("kDc,mc,mk->mD", stack, coeffs, normals)


def _batch_wedge_vec(coeffs, normals, degree):
    stack = wedge_basis_stack(normals.shape[1], degree)
    return np.einsum("kDc,mc,mk->mD", stack, coeffs, normals)


def _batch_tangential(coeffs, normals, degree):
    if degree == 0:
        return coeffs
    v = _batch_interior(coeffs, normals, degree)
    return coeffs - _batch_wedge_vec(v, normals, degree - 1)


def _batch_shape(coeffs, shape_world, degree):
    stack = induced_generator_stack(shape_world.shape[1], degree)
    return np.einsum("IJab,mab,mJ->mI", stack, shape_world, coeffs)


def _batch_d(jac, degree, dim):
    if degree == dim:
        return np.zeros((jac.shape[0], 1))
    return _batch_derivative(jac, degree, dim, "d")


def _batch_delta(jac, degree, dim):
    return _batch_derivative(jac, degree, dim, "delta")


def _batch_derivative(jac, degree, dim, which):
    k = _derivative_matrix(dim, degree, which)
    n_out = comb(dim, degree + 1 if which == "d" else degree - 1)
    return (jac.reshape(jac.shape[0], k.shape[0]) @ k)[:, :n_out]
