"""Term-by-term evaluation of integrated Bochner (Reilly-type) identities.

On a flat solid mesh with boundary, the energy of a p-form field splits as

    int |d w|^2 + |delta w|^2  =  int |grad w|^2 + <W w, w>
                                  + 2 int_bnd <i_N w, delta^S (J* w)>
                                  + int_bnd B(w, w)

with N the inner unit normal, J* the tangential restriction, delta^S the
surface codifferential and B a shape-operator boundary term with two
equivalent expressions.  Every term is integrated separately and the
residual of the identity is reported.  The curvature term <W w, w> of the
ambient domain vanishes on a flat solid, so the ledger records it as 0.

The surface codifferential in the cross term is evaluated through the
commutation identity by one function, :func:`_commutation_delta`; the
ledger integrates it and :func:`check_commutation` tests that same
function against surface finite differences.  For 1-forms a DEC-based
second path is available as a diagnostic.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dataclass_field
from functools import reduce

import numpy as np

from .exterior import (
    AlternatingForm,
    _batch_d,
    _batch_delta,
    _batch_interior,
    _batch_shape,
    _batch_tangential,
    _batch_wedge_vec,
    star_matrix,
    tangent_frame,
)
from .fields import FormField, ScalarField
from .meshes import MeshComplex, MeshError, SphereSurface, boundary_surface, discrete_shape, generate_ball

__all__ = [
    "ReillyLedger",
    "SphereSurface",
    "evaluate_reilly",
    "evaluate_classical_reilly",
    "evaluate_ledger",
    "check_commutation",
    "check_derivative_formulas",
    "check_stokes",
    "restriction_identity_residuals",
    "sphere_sample_points",
    "run_reilly_levels",
]

_TET4_A = 0.5854101966249685
_TET4_B = 0.1381966011250105

# Tets per block of the interior quadrature.  A block's per-point arrays
# (points, field values, Jacobians and their d/delta) take about 1 MB each,
# so the ledgers' interior memory scales with the block, not with the mesh.
# Measured on ball(4): 4096 was the fastest of 2048..32768 and keeps the
# interior below the boundary quadrature's own peak.
TET_BLOCK = 4096


# ---------------------------------------------------------------------------
# quadrature


def _tet_blocks(mesh: MeshComplex, order: int):
    """The tet quadrature as (points, weights), TET_BLOCK tets at a time, in cell order."""
    if order <= 1:
        bary = np.full((1, 4), 0.25)
    else:
        bary = np.full((4, 4), _TET4_B)
        np.fill_diagonal(bary, _TET4_A)
    for start in range(0, mesh.n_cells, TET_BLOCK):
        cells = mesh.cells[start : start + TET_BLOCK]
        # summed from zero corner by corner, in corner order, which fixes each
        # point's rounding; a BLAS product (fused multiply-adds) rounds differently
        corners = [np.take(mesh.vertices, cells[:, k], axis=0) for k in range(4)]
        pts = np.empty((len(cells), bary.shape[0], 3))
        for q, weights in enumerate(bary):
            acc = np.zeros((len(cells), 3))
            for weight, corner in zip(weights, corners):
                acc += weight * corner
            pts[:, q] = acc
        vols = mesh.tet_determinants[start : start + TET_BLOCK] / 6.0
        yield pts.reshape(-1, 3), np.repeat(vols / bary.shape[0], bary.shape[0])


def _quadrature_sum(weights, values) -> float:
    """sum_m weights[m] * values[m] by numpy's pairwise reduction, not by a
    BLAS dot product: OpenBLAS splits a long dot product over its threads,
    so the last bits of ``weights @ values`` depend on the thread count."""
    return float(np.add.reduce(weights * values))


def _interior_integrals(mesh: MeshComplex, order: int, integrands) -> list:
    """The quadrature sums of the per-point arrays returned by
    ``integrands(pts)``, taken block by block and added in block order."""
    blocks = (
        np.array([_quadrature_sum(wts, g) for g in integrands(pts)]) for pts, wts in _tet_blocks(mesh, order)
    )
    return [float(total) for total in reduce(np.add, blocks)]


def _row_sums(a) -> np.ndarray:
    """Each row's sum over the trailing axes of a C-ordered array, bit for bit
    ``a.sum(axis=(1, ...))``, one vectorised add per column.

    numpy's reduction runs a short loop per row; it adds a row of fewer
    than 8 entries left to right from 0.0, and a longer one as 0.0 plus
    its ``pairwise_sum``.  The order is kept, so the roundings are too.
    """
    cols = a.reshape(len(a), -1)
    if cols.shape[1] >= 8:
        total = _pairwise_sums(cols)
        total += 0.0  # as 0.0 + total: turns -0.0 into 0.0, as numpy's does
        return total
    total = np.zeros(len(cols))
    for k in range(cols.shape[1]):
        total += cols[:, k]
    return total


def _pairwise_sums(cols) -> np.ndarray:
    """numpy's ``pairwise_sum`` of each row of 8 to 128 entries (its block;
    numpy splits a longer row in two first): eight interleaved partial sums,
    combined pairwise, then the tail."""
    n = cols.shape[1]
    r = [cols[:, j] for j in range(8)]
    for i in range(8, n - n % 8, 8):
        r = [r[j] + cols[:, i + j] for j in range(8)]
    total = ((r[0] + r[1]) + (r[2] + r[3])) + ((r[4] + r[5]) + (r[6] + r[7]))
    for i in range(n - n % 8, n):
        total += cols[:, i]
    return total


def _tri_quadrature(vertices, faces, order: int):
    v = vertices[faces]  # (F, 3, 3)
    areas = np.linalg.norm(np.cross(v[:, 1] - v[:, 0], v[:, 2] - v[:, 0]), axis=1) / 2.0
    if order <= 1:
        bary = np.full((1, 3), 1.0 / 3.0)
    else:
        bary = np.full((3, 3), 1.0 / 6.0)
        np.fill_diagonal(bary, 2.0 / 3.0)
    pts = np.einsum("qk,fkc->fqc", bary, v).reshape(-1, 3)
    w = np.repeat(areas / bary.shape[0], bary.shape[0])
    face_ids = np.repeat(np.arange(len(faces)), bary.shape[0])
    bary_all = np.tile(bary, (len(faces), 1))
    return pts, w, face_ids, bary_all


def _ledger_setup(mesh, order, shape_source):
    """Setup shared by the ledgers and the Stokes check.

    Returns (surface, bpts, bw, normals, shape_world): the mesh's
    :func:`boundary_surface` for the 'analytic' source ('auto' is 'analytic'
    exactly where there is one), None for the 'discrete' source, and the
    boundary quadrature with its surface data.  Analytic nodes are projected
    onto the exact boundary; discrete ones stay on the flat faces, which
    interpolate the fitted shape of the boundary mesh barycentrically.  The
    interior quadrature is taken in blocks by :func:`_interior_integrals`.
    """
    if mesh.kind != "solid":
        raise MeshError("bad_kind", "requires a solid mesh")
    if shape_source not in ("auto", "analytic", "discrete"):
        raise ValueError(f"unknown shape source {shape_source!r}")
    surface = None if shape_source == "discrete" else boundary_surface(mesh)
    if shape_source == "analytic" and surface is None:
        raise ValueError("analytic shape data only available for generated balls")
    bpts, bw, fids, bary = _tri_quadrature(mesh.vertices, mesh.boundary_faces, order)
    if surface is not None:
        bpts = surface.project(bpts)
        return surface, bpts, bw, surface.normals(bpts), surface.shape_world(bpts)
    boundary, _ = mesh.boundary_mesh()
    shape = discrete_shape(boundary)
    faces = boundary.cells[fids]  # (M, 3) boundary vertex ids
    n = np.einsum("mq,mqi->mi", bary, shape.normals[faces])
    n /= np.linalg.norm(n, axis=1)[:, None]
    s = np.einsum("mq,mqij->mij", bary, shape.shape_world[faces])
    proj = np.eye(3)[None] - np.einsum("mi,mj->mij", n, n)
    s = np.einsum("mij,mjk,mkl->mil", proj, s, proj)
    return None, bpts, bw, n, (s + s.transpose(0, 2, 1)) / 2.0


def _surface_meta(surface) -> dict:
    exact = surface is not None
    return {"nodes": "projected" if exact else "flat", "shape_source": "analytic" if exact else "discrete"}


# ---------------------------------------------------------------------------
# ledgers


@dataclass
class ReillyLedger:
    """Individually integrated terms of an energy identity plus its residual.

    ``terms`` maps term names to values; ``rhs_terms`` lists the names that
    balance against ``lhs`` in the residual.  Diagnostic columns (the
    alternative boundary expression, the DEC path) are carried alongside.
    """

    kind: str  # 'p-form' or 'classical'
    degree: int
    lhs: float
    terms: dict
    rhs_terms: tuple
    residual: float
    relative_residual: float
    meta: dict = dataclass_field(default_factory=dict)

    def to_dict(self) -> dict:
        return {
            "kind": self.kind,
            "degree": self.degree,
            "lhs": self.lhs,
            "terms": {k: float(v) for k, v in self.terms.items()},
            "rhs_terms": list(self.rhs_terms),
            "residual": self.residual,
            "relative_residual": self.relative_residual,
            "meta": self.meta,
        }


def _residual(lhs, rhs_values):
    """(residual, relative residual) of lhs = sum(rhs_values); the relative
    residual is taken over the largest |side|."""
    residual = lhs - sum(rhs_values)
    scale = max([abs(lhs)] + [abs(value) for value in rhs_values] + [1e-300])
    return float(residual), float(abs(residual) / scale)


def _finish_ledger(kind, degree, lhs, terms, rhs_names, meta):
    residual, relative = _residual(lhs, [terms[name] for name in rhs_names])
    return ReillyLedger(
        kind=kind,
        degree=degree,
        lhs=lhs,
        terms=terms,
        rhs_terms=tuple(rhs_names),
        residual=residual,
        relative_residual=relative,
        meta=meta,
    )


def _commutation_delta(val, jac, normals, shape, p):
    """(delta^S(J*w), i_N w, J*w, S^[p-1](i_N w), nH) per point, delta^S(J*w)
    by the commutation identity J*(delta w) + i_N grad_N w + S^[p-1](i_N w)
    - nH i_N w, nH the trace of S."""
    v = _batch_interior(val, normals, p)  # degree p-1
    t = val - _batch_wedge_vec(v, normals, p - 1)
    t_delta = _batch_tangential(_batch_delta(jac, p, normals.shape[1]), normals, p - 1)
    i_n_grad_n = _batch_interior(np.einsum("mck,mk->mc", jac, normals), normals, p)
    s_v = _batch_shape(v, shape, p - 1)
    n_mean = np.einsum("mii->m", shape)
    return t_delta + i_n_grad_n + s_v - n_mean[:, None] * v, v, t, s_v, n_mean


def evaluate_reilly(
    mesh: MeshComplex,
    form: FormField,
    order: int = 2,
    shape_source: str = "auto",
    include_dec: bool = False,
) -> ReillyLedger:
    """Integrate every term of the p-form energy identity on a solid mesh.

    ``shape_source`` picks where boundary normals/shape operators come from:
    'analytic' (generated balls, boundary integrands evaluated at nodes
    projected onto the sphere), 'discrete' (quadric-fitted boundary shape)
    or 'auto' (analytic exactly for generated balls).  ``include_dec`` adds
    a DEC evaluation of the cross term of a 1-form as a diagnostic column.
    """
    p = form.degree
    if not 1 <= p <= 3:
        raise ValueError("form degree must be 1, 2 or 3")
    if include_dec and p != 1:
        raise ValueError(f"the DEC cross term is evaluated for 1-forms only, got degree {p}")
    surface, epts, bw, normals, shape_world = _ledger_setup(mesh, order, shape_source)

    def interior(pts):
        jac = form.jacobian(pts)
        return (
            _row_sums(form.value(pts) ** 2),
            _row_sums(_batch_d(jac, p, 3) ** 2) + _row_sums(_batch_delta(jac, p, 3) ** 2),
            _row_sums(jac**2),
        )

    form_l2, lhs, dirichlet = _interior_integrals(mesh, order, interior)

    # boundary terms
    cb = form.value(epts)
    delta_sigma_j, v_part, t_part, s_v, n_mean = _commutation_delta(
        cb, form.jacobian(epts), normals, shape_world, p
    )
    cross = 2.0 * _quadrature_sum(bw, _row_sums(v_part * delta_sigma_j))

    s_t_t = _row_sums(_batch_shape(t_part, shape_world, p) * t_part)
    b_two = s_t_t + n_mean * _row_sums(v_part**2) - _row_sums(s_v * v_part)
    star_c = cb @ star_matrix(3, p).T
    t_star = _batch_tangential(star_c, normals, 3 - p)
    b_one = s_t_t + _row_sums(_batch_shape(t_star, shape_world, 3 - p) * t_star)
    boundary = _quadrature_sum(bw, b_two)
    boundary_star = _quadrature_sum(bw, b_one)
    gap = float(np.abs(b_one - b_two).max()) if len(b_one) else 0.0

    terms = {
        "dirichlet_energy": dirichlet,
        "curvature_energy": 0.0,  # <W w, w> vanishes on a flat solid
        "normal_cross_term": cross,
        "boundary_shape_term": boundary,
        "boundary_shape_term_star_form": boundary_star,
        "boundary_forms_max_gap": gap,
        "form_l2_norm_sq": form_l2,
    }
    if include_dec:
        terms["dec_cross_term"] = _dec_cross_term(mesh, form, surface)

    meta = {
        "field": form.name,
        "degree": p,
        "order": order,
        **_surface_meta(surface),
        "mesh": mesh.report(),
    }
    return _finish_ledger(
        "p-form",
        p,
        lhs,
        terms,
        ("dirichlet_energy", "curvature_energy", "normal_cross_term", "boundary_shape_term"),
        meta,
    )


def evaluate_classical_reilly(
    mesh: MeshComplex,
    f: ScalarField,
    order: int = 2,
    shape_source: str = "auto",
) -> ReillyLedger:
    """Integrate the classical (function) form of the identity.

    The ledger holds int (Lap f)^2 on the left and the Hessian energy, the
    Ricci term (zero on flat solids) and the three boundary integrals
    2 f_N Lap^S f, <S grad^S f, grad^S f>, nH f_N^2 on the right.
    ``shape_source`` is as for :func:`evaluate_reilly`.
    """
    surface, epts, bw, normals, shape_world = _ledger_setup(mesh, order, shape_source)

    def interior(pts):
        hess = f.hessian(pts)
        lap = -np.einsum("mii->m", hess)  # positive-spectrum convention
        return lap**2, _row_sums(hess**2)

    lhs, hessian_energy = _interior_integrals(mesh, order, interior)

    gb = f.gradient(epts)
    hb = f.hessian(epts)
    f_n = np.einsum("mk,mk->m", gb, normals)
    lap_b = -np.einsum("mii->m", hb)
    hess_nn = np.einsum("mi,mij,mj->m", normals, hb, normals)
    n_mean = np.einsum("mii->m", shape_world)
    # surface Laplacian via the commutation identity for df
    lap_sigma = lap_b + hess_nn - n_mean * f_n
    boundary_normal_lap = 2.0 * _quadrature_sum(bw, f_n * lap_sigma)
    boundary_shape_grad = _quadrature_sum(bw, np.einsum("mi,mij,mj->m", gb, shape_world, gb))
    boundary_mean_sq = _quadrature_sum(bw, n_mean * f_n**2)

    terms = {
        "hessian_energy": hessian_energy,
        "ricci_term": 0.0,  # Ric(grad f, grad f) vanishes on a flat solid
        "boundary_normal_laplacian": boundary_normal_lap,
        "boundary_shape_gradient": boundary_shape_grad,
        "boundary_mean_normal_sq": boundary_mean_sq,
    }
    meta = {
        "field": f.name,
        "order": order,
        **_surface_meta(surface),
        "mesh": mesh.report(),
    }
    return _finish_ledger(
        "classical",
        0,
        lhs,
        terms,
        tuple(terms.keys()),
        meta,
    )


def evaluate_ledger(mesh: MeshComplex, field, order: int = 2) -> ReillyLedger:
    """The classical ledger of a scalar field, the p-form ledger of a form field."""
    if isinstance(field, ScalarField):
        return evaluate_classical_reilly(mesh, field, order=order)
    return evaluate_reilly(mesh, field, order=order)


def run_reilly_levels(levels, field, order: int = 2):
    """:func:`evaluate_ledger` on generated balls, one refinement level at a time."""
    ledgers = []
    for level in levels:
        ledger = evaluate_ledger(generate_ball(level), field, order)
        ledger.meta["level"] = level
        ledgers.append(ledger)
    return ledgers


# ---------------------------------------------------------------------------
# DEC diagnostic path for the cross term


def _dec_cross_term(mesh: MeshComplex, form: FormField, surface):
    """2 int_bnd <i_N w, delta^S (J* w)> of a 1-form w, with delta^S the DEC
    codifferential of the edge cochain of J* w; normals from the exact
    boundary ``surface`` or, when it is None, the boundary mesh's fitted shape."""
    from .spectrum import assemble_dec

    surf, _ = mesh.boundary_mesh()
    # cochains live on the intrinsic Delaunay complex; flipped edges are
    # sampled on the chords of their vertices
    ops = assemble_dec(surf)
    edges = ops.edges
    mids = (surf.vertices[edges[:, 0]] + surf.vertices[edges[:, 1]]) / 2.0
    if surface is not None:
        normals_v, n_mid = surface.normals(surf.vertices), surface.normals(mids)
    else:
        normals_v = discrete_shape(surf).normals
        n_mid = normals_v[edges[:, 0]] + normals_v[edges[:, 1]]
        n_mid /= np.linalg.norm(n_mid, axis=1)[:, None]
    edge_vec = surf.vertices[edges[:, 1]] - surf.vertices[edges[:, 0]]

    cm = form.value(mids)
    v_mid = _batch_interior(cm, n_mid, 1)
    t_mid = cm - _batch_wedge_vec(v_mid, n_mid, 0)
    cv = form.value(surf.vertices)
    v_vert = _batch_interior(cv, normals_v, 1)[:, 0]
    a = np.einsum("ek,ek->e", t_mid, edge_vec)
    delta_a = ops.codifferential_1(a)
    return 2.0 * float((ops.star0 * v_vert * delta_a).sum())


# ---------------------------------------------------------------------------
# pointwise boundary identity checks, batched over the sample points


def sphere_sample_points(count: int, dim: int = 3, radius: float = 1.0, seed: int = 3):
    """Deterministic spread of points on the sphere (seeded Gaussian rays)."""
    rng = np.random.default_rng(seed)
    q = rng.standard_normal((count, dim))
    return radius * q / np.linalg.norm(q, axis=1)[:, None]


def _tangent_derivatives(form, surface, pts, normals, shape, val, jac, x, method, h):
    """Surface covariant derivatives of J*w and of i_N w along tangents x.

    One tangent per point (rows of ``pts``, with the surface normals and
    shape operators there and the field's values and Jacobians).  'fd'
    differentiates the split fields along the projected curve through each
    point (independent of any commutation identity); 'analytic' uses the
    shape operator and the ambient field derivative.  Returns ambient
    coefficients of tangential forms of degree p and p - 1.
    """
    p = form.degree
    if method == "analytic":
        grad_x = np.einsum("mck,mk->mc", jac, x)
        dn = -np.einsum("mij,mj->mi", shape, x)
        v = _batch_interior(val, normals, p)
        dxv = _batch_interior(val, dn, p) + _batch_interior(grad_x, normals, p)
        dxt = grad_x - _batch_wedge_vec(v, dn, p - 1) - _batch_wedge_vec(dxv, normals, p - 1)
    else:
        def split_at(y):
            ny = surface.normals(y)
            w = form.value(y)
            return _batch_tangential(w, ny, p), _batch_interior(w, ny, p)

        tp, vp = split_at(surface.project(pts + h * x))
        tm, vm = split_at(surface.project(pts - h * x))
        dxt = (tp - tm) * (1.0 / (2 * h))
        dxv = (vp - vm) * (1.0 / (2 * h))
    return _batch_tangential(dxt, normals, p), _batch_tangential(dxv, normals, p - 1)


def _surface_d_delta(form, surface, pts, normals, shape, val, jac, method, h):
    """(delta^S of J*w, d^S of i_N w) per point, as ambient tangential coefficients."""
    frame = tangent_frame(normals)
    delta_t = d_v = 0.0
    for i in range(frame.shape[-1]):
        ti = frame[:, :, i]
        dt, dv = _tangent_derivatives(form, surface, pts, normals, shape, val, jac, ti, method, h)
        delta_t = delta_t - _batch_interior(dt, ti, form.degree)
        d_v = d_v + _batch_wedge_vec(dv, ti, form.degree - 1)
    return delta_t, d_v


def _pointwise(form, surface, points):
    """(points, normals, shape operators, field values, field Jacobians) at the
    sample points; the surface must evaluate normals, shapes and projections
    at any point."""
    needed = ("normals", "shape_world", "project")
    missing = [name for name in needed if not callable(getattr(surface, name, None))]
    if missing:
        raise ValueError(
            f"the surface checks need normals, shape_world and project (as on "
            f"SphereSurface); {type(surface).__name__} has no {', '.join(missing)}"
        )
    pts = np.atleast_2d(points)
    return pts, surface.normals(pts), surface.shape_world(pts), form.value(pts), form.jacobian(pts)


def _max_norm(diff) -> float:
    # np.max propagates NaN; 0.0 for zero points
    return float(np.max(np.linalg.norm(diff, axis=1), initial=0.0))


def check_derivative_formulas(
    form: FormField,
    surface,
    points,
    h: float = 1e-4,
    seed: int = 11,
):
    """Residuals of the two tangential/normal derivative identities.

    For each sample point and a random tangent direction X, the surface
    covariant derivatives of J*w and i_N w (surface finite differences) are
    compared against  J*(grad_X w) + (S X)^* ^ i_N w  and  i_N grad_X w - i_{S X} J* w,
    the analytic path of :func:`_tangent_derivatives`.  Returns the max residual
    of each identity.
    """
    data = _pointwise(form, surface, points)
    pts, normals = data[:2]
    x = np.random.default_rng(seed).standard_normal((len(pts), form.dim))
    x -= np.einsum("mi,mi->m", x, normals)[:, None] * normals
    x /= np.linalg.norm(x, axis=1)[:, None]
    fd = _tangent_derivatives(form, surface, *data, x, "fd", h)
    analytic = _tangent_derivatives(form, surface, *data, x, "analytic", h)
    return tuple(_max_norm(lhs - rhs) for lhs, rhs in zip(fd, analytic))


def check_commutation(
    form: FormField,
    surface,
    points,
    h: float = 1e-4,
    method: str = "fd",
):
    """Residuals of the two commutation identities relating surface and
    ambient derivatives at the boundary.

    delta^S(J*w) is tested against J*(delta w) + i_N grad_N w
    + S^[p-1](i_N w) - nH i_N w, and d^S(i_N w) against
    -i_N dw + J*(grad_N w) - S^[p](J*w).  The left sides come from surface
    finite differences (method='fd', the independent oracle) or from the
    analytic shape-operator path.
    """
    if method not in ("fd", "analytic"):
        raise ValueError("method must be 'fd' or 'analytic'")
    _, normals, shape, val, jac = data = _pointwise(form, surface, points)
    p, dim = form.degree, form.dim
    lhs_delta, lhs_d = _surface_d_delta(form, surface, *data, method, h)
    rhs1, _, t, _, _ = _commutation_delta(val, jac, normals, shape, p)
    grad_n = np.einsum("mck,mk->mc", jac, normals)
    i_n_dw = 0.0 if p == dim else _batch_interior(_batch_d(jac, p, dim), normals, p + 1)
    rhs2 = -i_n_dw + _batch_tangential(grad_n, normals, p) - _batch_shape(t, shape, p)
    return _max_norm(lhs_delta - rhs1), _max_norm(lhs_d - rhs2)


def restriction_identity_residuals(
    xi: AlternatingForm, radius: float = 1.0, points=None, count: int = 16, seed: int = 5
):
    """Residuals of the two restriction identities of a parallel form on a
    round sphere:  delta^S(J*xi) = -(n-p+1) H i_N xi  and
    d^S(i_N xi) = -p H J*xi  with H = 1/radius (inner normal).

    Evaluated analytically; the residual is numerical noise for any constant
    form.  Returns the max residual pair over the sample points.
    """
    m = xi.dim
    p = xi.degree
    if p < 1:
        raise ValueError("restriction identities need degree >= 1")
    surface = SphereSurface(radius=radius, dim=m)
    if points is None:
        points = sphere_sample_points(count, dim=m, radius=radius, seed=seed)
    form = FormField.constant(xi.coeffs, p, dim=m, name="parallel")
    _, normals, _, val, _ = data = _pointwise(form, surface, points)
    lhs_delta, lhs_d = _surface_d_delta(form, surface, *data, "analytic", 0.0)
    h_mean = 1.0 / radius
    n = m - 1
    want_delta = -(n - p + 1) * h_mean * _batch_interior(val, normals, p)
    want_d = -p * h_mean * _batch_tangential(val, normals, p)
    return _max_norm(lhs_delta - want_delta), _max_norm(lhs_d - want_d)


# ---------------------------------------------------------------------------
# integrated adjointness (Stokes) check


def check_stokes(
    mesh: MeshComplex,
    omega: FormField,
    phi: FormField,
    order: int = 2,
    shape_source: str = "auto",
):
    """Residual of  int <d w, phi> = int <w, delta phi> - int_bnd <J*w, i_N phi>.

    Returns (residual, relative_residual).
    """
    if phi.degree != omega.degree + 1:
        raise ValueError("phi must have degree one higher than omega")
    p = phi.degree
    _, epts, bw, normals, _ = _ledger_setup(mesh, order, shape_source)

    def interior(pts):
        d_omega = _batch_d(omega.jacobian(pts), omega.degree, 3)
        delta_phi = _batch_delta(phi.jacobian(pts), p, 3)
        return _row_sums(d_omega * phi.value(pts)), _row_sums(omega.value(pts) * delta_phi)

    lhs, vol_term = _interior_integrals(mesh, order, interior)

    ob = omega.value(epts)
    t_omega = _batch_tangential(ob, normals, omega.degree)
    i_n_phi = _batch_interior(phi.value(epts), normals, p)
    bnd = _quadrature_sum(bw, _row_sums(t_omega * i_n_phi))
    return _residual(lhs, [vol_term, -bnd])
