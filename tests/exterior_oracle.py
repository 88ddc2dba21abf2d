"""Reference loop implementations of the exterior-algebra operations.

These are the original per-form Python loops (the coefficient-by-coefficient
wedge, the slot-substitution derivation matrix, the C(m,p)^2-determinant
compound matrix), the per-point boundary identity checks that walked
``AlternatingForm`` objects one sample point at a time, and the batched d and
delta as einsum contractions.  ``hodgebench`` replaced them with contractions
of cached structure stacks, matrix products and array code over all points;
they are kept only as a test oracle.

The dense structure tensors are the stacks as they were first built: the
wedge tensor by a loop over all index pairs, the induced generator stack as
a (C, C, n, n) einsum of the wedge and interior stacks, and the induced
matrices scattered from its ``np.nonzero`` entries.  The library now
enumerates only the nonzeros; its stacks, induced matrices and duality
residuals must match these bit for bit.

``EllipsoidSurface`` is an exact boundary that is not umbilic, for the
boundary identity checks: on a round sphere S = I/r, and a wrong formula
for the shape operator that agrees with the right one at S = c I passes.
"""

from __future__ import annotations

from functools import lru_cache
from math import comb

import numpy as np

from hodgebench.exterior import (
    AlternatingForm,
    _symmetric_base,
    interior_basis_stack,
    multi_indices,
    tangent_frame,
    wedge_basis_stack,
)
from hodgebench.fields import FormField
from hodgebench.meshes import ellipsoid_shape_world
from hodgebench.reilly import SphereSurface, sphere_sample_points

# ---------------------------------------------------------------------------
# dense structure tensors


def dense_wedge_tensor(dim, p, q):
    ranks = {idx: r for r, idx in enumerate(multi_indices(dim, p + q))}
    out = np.zeros((comb(dim, p + q), comb(dim, p), comb(dim, q)))
    for i, ia in enumerate(multi_indices(dim, p)):
        for j, ib in enumerate(multi_indices(dim, q)):
            if not set(ia) & set(ib):
                out[ranks[tuple(sorted(ia + ib))], i, j] = _merge_sign(ia, ib)
    return out


def dense_star_matrix(dim, degree):
    return np.ascontiguousarray(dense_wedge_tensor(dim, degree, dim - degree)[0].T)


def dense_wedge_basis_stack(dim, degree):
    return np.ascontiguousarray(dense_wedge_tensor(dim, 1, degree).transpose(1, 0, 2))


def dense_interior_basis_stack(dim, degree):
    return np.ascontiguousarray(dense_wedge_basis_stack(dim, degree - 1).transpose(0, 2, 1))


@lru_cache(maxsize=None)
def dense_generator_stack(dim, degree):
    if degree == 0:
        return np.zeros((1, 1, dim, dim))
    return np.ascontiguousarray(
        np.einsum(
            "bIK,aKJ->IJab",
            dense_wedge_basis_stack(dim, degree - 1),
            dense_interior_basis_stack(dim, degree),
        )
    )


def dense_induced_matrix(base, degree):
    n = base.shape[0]
    matrix = np.zeros((comb(n, degree), comb(n, degree)))
    if degree > 0:
        stack = dense_generator_stack(n, degree)
        rows, cols, a, b = np.nonzero(stack)
        sign = stack[rows, cols, a, b]
        off = a != b
        # np.nonzero runs in C order: the diagonal terms of row I come in ascending i
        diagonal = a[~off].reshape(-1, degree)
        matrix[rows[off], cols[off]] += sign[off] * base[a[off], b[off]]
        i = np.arange(len(matrix))
        matrix[i, i] += np.cumsum(base.diagonal()[diagonal], axis=1)[:, -1]
    return matrix


def dense_duality_identity_residual(shape_matrix, degree):
    s = _symmetric_base(shape_matrix)
    n = s.shape[0]
    star = dense_star_matrix(n, degree)
    residual = (
        star @ dense_induced_matrix(s, degree)
        + dense_induced_matrix(s, n - degree) @ star
        - float(np.trace(s)) * star
    )
    return float(np.linalg.norm(residual))


# ---------------------------------------------------------------------------
# per-form algebra


def _merge_sign(left, right):
    inversions = sum(1 for a in left for b in right if a > b)
    return -1 if inversions & 1 else 1


def wedge(a: AlternatingForm, b: AlternatingForm) -> AlternatingForm:
    degree = a.degree + b.degree
    out = np.zeros(comb(a.dim, degree))
    ranks = {idx: r for r, idx in enumerate(multi_indices(a.dim, degree))}
    for ia, ca in zip(multi_indices(a.dim, a.degree), a.coeffs):
        if ca == 0.0:
            continue
        set_a = set(ia)
        for ib, cb in zip(multi_indices(a.dim, b.degree), b.coeffs):
            if cb == 0.0 or set_a & set(ib):
                continue
            out[ranks[tuple(sorted(ia + ib))]] += _merge_sign(ia, ib) * ca * cb
    return AlternatingForm(a.dim, degree, out)


def interior_product(v, a: AlternatingForm) -> AlternatingForm:
    v = np.asarray(v, dtype=float).reshape(-1)
    stack = interior_basis_stack(a.dim, a.degree)
    return AlternatingForm(a.dim, a.degree - 1, np.einsum("kDc,c,k->D", stack, a.coeffs, v))


def tangential_part(a: AlternatingForm, normal) -> AlternatingForm:
    if a.degree == 0:
        return a
    n_vec = np.asarray(normal, dtype=float)
    return a - wedge(AlternatingForm.covector(n_vec), interior_product(n_vec, a))


def derivation_matrix(base: np.ndarray, degree: int) -> np.ndarray:
    n = base.shape[0]
    idxs = multi_indices(n, degree)
    ranks = {idx: r for r, idx in enumerate(idxs)}
    mat = np.zeros((len(idxs), len(idxs)))
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


def generator_stack(dim: int, degree: int) -> np.ndarray:
    size = comb(dim, degree)
    out = np.zeros((size, size, dim, dim))
    for a in range(dim):
        for b in range(dim):
            unit = np.zeros((dim, dim))
            unit[a, b] = 1.0
            out[:, :, a, b] = derivation_matrix(unit, degree)
    return out


def compound_matrix(q: np.ndarray, degree: int) -> np.ndarray:
    """p-th compound: K[J, I] = det(q[J, I]) over increasing multi-indices."""
    if degree == 0:
        return np.ones((1, 1))
    idxs = multi_indices(q.shape[0], degree)
    k_mat = np.empty((len(idxs), len(idxs)))
    for jr, rows in enumerate(idxs):
        sub = q[list(rows), :]
        for ir, cols in enumerate(idxs):
            k_mat[jr, ir] = np.linalg.det(sub[:, list(cols)])
    return k_mat


def split_at_boundary(a: AlternatingForm, normal):
    """(tangential coefficients, normal coefficients) over tangent_frame(normal)."""
    n_vec = np.asarray(normal, dtype=float).reshape(-1)
    m, p = a.dim, a.degree
    q_mat = np.column_stack([tangent_frame(n_vec), n_vec])
    rotated = compound_matrix(q_mat, p).T @ a.coeffs
    ranks = {idx: r for r, idx in enumerate(multi_indices(m, p))}
    if p <= m - 1:
        tang = np.array([rotated[ranks[idx]] for idx in multi_indices(m - 1, p)])
    else:
        tang = np.zeros(1)
    sign = -1.0 if (p - 1) & 1 else 1.0
    norm = np.array(
        [sign * rotated[ranks[idx + (m - 1,)]] for idx in multi_indices(m - 1, p - 1)]
    )
    return tang, norm


def reconstruct(tang, norm, normal, degree: int) -> np.ndarray:
    n_vec = np.asarray(normal, dtype=float).reshape(-1)
    m, p = n_vec.size, degree
    rotated = np.zeros(comb(m, p))
    ranks = {idx: r for r, idx in enumerate(multi_indices(m, p))}
    if p <= m - 1:
        for idx, c in zip(multi_indices(m - 1, p), tang):
            rotated[ranks[idx]] = c
    sign = -1.0 if (p - 1) & 1 else 1.0
    for idx, c in zip(multi_indices(m - 1, p - 1), norm):
        rotated[ranks[idx + (m - 1,)]] = sign * c
    q_mat = np.column_stack([tangent_frame(n_vec), n_vec])
    return compound_matrix(q_mat, p) @ rotated


# ---------------------------------------------------------------------------
# per-point boundary identity checks


def _normal_at(surface, q):
    return surface.normals(q[None])[0]


def _shape_world_at(surface, q):
    return surface.shape_world(q[None])[0]


def _point_value(form: FormField, q):
    val = AlternatingForm(form.dim, form.degree, form.value(q[None])[0])
    jac = form.jacobian(q[None])[0]
    return val, jac


def _surface_covariant_derivative(form, surface, q, x, method="fd", h=1e-4):
    n_vec = _normal_at(surface, q)
    p = form.degree
    if method == "analytic":
        s_world = _shape_world_at(surface, q)
        val, jac = _point_value(form, q)
        grad_x = AlternatingForm(form.dim, p, jac @ x)
        dn = -(s_world @ x)
        v = interior_product(n_vec, val)
        dxv = interior_product(dn, val) + interior_product(n_vec, grad_x)
        dxt = grad_x - wedge(AlternatingForm.covector(dn), v) - wedge(
            AlternatingForm.covector(n_vec), dxv
        )
        return tangential_part(dxt, n_vec), tangential_part(dxv, n_vec)

    def split_at(y):
        ny = _normal_at(surface, y)
        w = AlternatingForm(form.dim, p, form.value(y[None])[0])
        return tangential_part(w, ny), interior_product(ny, w)

    qp = surface.project((q + h * x)[None])[0]
    qm = surface.project((q - h * x)[None])[0]
    tp, vp = split_at(qp)
    tm, vm = split_at(qm)
    dxt = (tp - tm) * (1.0 / (2 * h))
    dxv = (vp - vm) * (1.0 / (2 * h))
    return tangential_part(dxt, n_vec), tangential_part(dxv, n_vec)


def check_derivative_formulas(form, surface, points, h=1e-4, seed=11):
    rng = np.random.default_rng(seed)
    res1 = res2 = 0.0
    for q in np.atleast_2d(points):
        n_vec = _normal_at(surface, q)
        s_world = _shape_world_at(surface, q)
        x = rng.standard_normal(form.dim)
        x -= (x @ n_vec) * n_vec
        x /= np.linalg.norm(x)
        lhs1, lhs2 = _surface_covariant_derivative(form, surface, q, x, method="fd", h=h)
        val, jac = _point_value(form, q)
        grad_x = AlternatingForm(form.dim, form.degree, jac @ x)
        v = interior_product(n_vec, val)
        t = tangential_part(val, n_vec)
        sx = s_world @ x
        rhs1 = tangential_part(grad_x, n_vec) + wedge(AlternatingForm.covector(sx), v)
        rhs2 = interior_product(n_vec, grad_x) - interior_product(sx, t)
        res1 = max(res1, (lhs1 - rhs1).norm())
        res2 = max(res2, (lhs2 - rhs2).norm())
    return res1, res2


def _surface_d_delta(form, surface, q, method, h):
    frame = tangent_frame(_normal_at(surface, q))
    p = form.degree
    delta_t = AlternatingForm.zero(form.dim, p - 1)
    d_v = AlternatingForm.zero(form.dim, p)
    for i in range(frame.shape[1]):
        ti = frame[:, i]
        dt, dv = _surface_covariant_derivative(form, surface, q, ti, method=method, h=h)
        delta_t = delta_t - interior_product(ti, dt)
        d_v = d_v + wedge(AlternatingForm.covector(ti), dv)
    return delta_t, d_v


def batch_d(jac, degree, dim):
    """d of a p-form at M points from its (M, C(dim, p), dim) Jacobian, as
    the per-point contraction with the wedge stack."""
    if degree == dim:
        return np.zeros((jac.shape[0], 1))
    return np.einsum("kDc,mck->mD", wedge_basis_stack(dim, degree), jac)


def batch_delta(jac, degree, dim):
    """delta of a p-form at M points, as the per-point contraction with the interior stack."""
    return -np.einsum("kDc,mck->mD", interior_basis_stack(dim, degree), jac)


def check_commutation(form, surface, points, h=1e-4, method="fd"):
    p = form.degree
    res1 = res2 = 0.0
    for q in np.atleast_2d(points):
        n_vec = _normal_at(surface, q)
        s_world = _shape_world_at(surface, q)
        lhs_delta, lhs_d = _surface_d_delta(form, surface, q, method, h)
        val, jac = _point_value(form, q)
        v = interior_product(n_vec, val)
        t = tangential_part(val, n_vec)
        n_mean = float(np.trace(s_world))
        delta_w = AlternatingForm(form.dim, p - 1, batch_delta(jac[None], p, form.dim)[0])
        grad_n = AlternatingForm(form.dim, p, jac @ n_vec)
        shape_v = AlternatingForm(form.dim, p - 1, derivation_matrix(s_world, p - 1) @ v.coeffs)
        rhs1 = tangential_part(delta_w, n_vec) + interior_product(n_vec, grad_n) + shape_v - n_mean * v
        if p == form.dim:
            i_n_dw = AlternatingForm.zero(form.dim, p)
        else:
            d_w = AlternatingForm(form.dim, p + 1, batch_d(jac[None], p, form.dim)[0])
            i_n_dw = interior_product(n_vec, d_w)
        shape_t = AlternatingForm(form.dim, p, derivation_matrix(s_world, p) @ t.coeffs)
        rhs2 = -1.0 * i_n_dw + tangential_part(grad_n, n_vec) - shape_t
        res1 = max(res1, (lhs_delta - rhs1).norm())
        res2 = max(res2, (lhs_d - rhs2).norm())
    return res1, res2


def restriction_identity_residuals(xi, radius=1.0, points=None, count=16, seed=5):
    m, p = xi.dim, xi.degree
    surface = SphereSurface(radius=radius, dim=m)
    if points is None:
        points = sphere_sample_points(count, dim=m, radius=radius, seed=seed)
    form = FormField.constant(xi.coeffs, p, dim=m, name="parallel")
    h_mean = 1.0 / radius
    n = m - 1
    res1 = res2 = 0.0
    for q in np.atleast_2d(points):
        n_vec = _normal_at(surface, q)
        lhs_delta, lhs_d = _surface_d_delta(form, surface, q, "analytic", 0.0)
        want_delta = -(n - p + 1) * h_mean * interior_product(n_vec, xi)
        want_d = -p * h_mean * tangential_part(xi, n_vec)
        res1 = max(res1, (lhs_delta - want_delta).norm())
        res2 = max(res2, (lhs_d - want_d).norm())
    return res1, res2


# ---------------------------------------------------------------------------
# an exact boundary that is not umbilic


class EllipsoidSurface:
    """The ellipsoid F(x) = sum (x_i/a_i)^2 = 1 as ``SphereSurface`` gives a
    sphere: inner normals -grad F/|grad F|, shape operators and the radial
    projection onto it, at any point."""

    def __init__(self, axes):
        self.axes = np.asarray(axes, dtype=float)

    def normals(self, points):
        grad = np.atleast_2d(points) / self.axes**2  # grad F / 2
        return -grad / np.linalg.norm(grad, axis=1)[:, None]

    def shape_world(self, points):
        return ellipsoid_shape_world(points, self.axes)

    def project(self, points):
        q = np.atleast_2d(points)
        return q / np.sqrt(((q / self.axes) ** 2).sum(axis=1))[:, None]
