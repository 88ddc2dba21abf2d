"""Discrete exterior calculus Hodge Laplacian on triangle surfaces.

Cochains live on the vertices, edges and faces of the surface's intrinsic
Delaunay triangulation (IDT), with signed incidence matrices as the exterior
derivative and diagonal (circumcentric, cotangent-weighted) Hodge stars,
which the IDT makes nonnegative.  The degree-0 Laplacian is the classical
cotan Laplacian of the IDT (Bobenko & Springborn, DCG 2007).  The degree-2
Laplacian comes from the same operators, with the two faces of a zero dual
edge merged into one dual vertex.  Since d1 d0 = 0 holds exactly, the
nonzero 1-form spectrum is the union of the nonzero 0-form spectrum (the
exact family) and the nonzero 2-form spectrum (the coexact family), and
degree 1 is solved as that union.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import comb, hypot, isfinite, sqrt

import numpy as np
from scipy import sparse
from scipy.linalg import LinAlgError, eigh
from scipy.sparse.linalg import ArpackError, ArpackNoConvergence, LinearOperator, eigsh, splu

from .meshes import MeshComplex, MeshError, _components, _require_kind

__all__ = [
    "DecOperators",
    "SpectrumReport",
    "SolverError",
    "assemble_dec",
    "spectrum",
    "sphere_hodge_oracle",
]

# An edge is flipped while its cotan weight is below -FLIP_TOL times the
# median weight magnitude of the input.  The diagonals of quads whose
# four vertices lie on one circle (torus grid cells) have weights of about
# +-1e-16 of that scale, which no flip improves; the tolerance leaves them
# where they are.
FLIP_TOL = 1e-12
# Relative to the pencil scale: eigenvalues below ZERO_TOL are harmonic, and
# an eigenpair residual above it fails the solve, as it could move an
# eigenvalue across that line.  Residuals of valid Lanczos pairs are about
# 1e-15, but reach 3.1e-10 where k cuts a degenerate cluster of a small mesh
# (icosphere(1), degree 0, k=3) and 2.3e-9 on rotated, relabelled copies.
# Relative to the median weight magnitude, a cotan weight at or below
# ZERO_TOL is a zero dual edge, which the degree-2 pencil merges across.
ZERO_TOL = 1e-8


def check_tolerance(value, name: str = "tolerance") -> None:
    """Raise ValueError unless ``value`` is a finite positive number (a bool is not)."""
    try:
        ok = not isinstance(value, bool) and isfinite(value) and value > 0
    except (TypeError, OverflowError):  # not a number, or an int beyond float
        ok = False
    if not ok:
        raise ValueError(f"{name} must be a finite positive number, got {value!r}")


class SolverError(Exception):
    """Eigensolve failed or its result failed a self-check; carries residuals."""

    def __init__(self, message, residuals=None):
        super().__init__(message)
        self.residuals = residuals


@dataclass
class DecOperators:
    """Signed incidence matrices and diagonal Hodge stars of a surface mesh,
    built on its intrinsic Delaunay triangulation (IDT).

    ``edges`` and ``faces`` are the IDT's own tables: the rows of ``d0`` and
    ``d1``.  They equal ``mesh.edges`` and ``mesh.cells`` unless an edge was
    flipped; a flipped edge keeps its row but joins the two opposite
    vertices of its quad, so a vertex pair may repeat.
    """

    d0: sparse.csr_matrix  # (E, V)
    d1: sparse.csr_matrix  # (F, E)
    star0: np.ndarray  # (V,) dual areas
    star1: np.ndarray  # (E,) dual/primal length ratios
    star2: np.ndarray  # (F,) inverse face areas
    edges: np.ndarray  # (E, 2) vertex pairs, i <= j
    faces: np.ndarray  # (F, 3) counter-clockwise vertex triples

    def laplacian_matrices(self, degree: int):
        """Stiffness/mass pair (A, B) of the degree-0 or degree-2 Hodge
        Laplacian; degree 1 is their union (see ``spectrum``).

        The generalized problem A x = lambda B x is symmetric with B
        diagonal.  For degree 0, B is the Hodge star star0.  For degree 2,
        the faces joined by zero dual edges (weights at or below ZERO_TOL
        times the median weight magnitude) share a dual vertex and become
        one unknown, with B the inverse of its summed area.  Without zero
        dual edges B is star2 and A is built exactly as
        ``star2 d1 star1^-1 d1^T star2``.
        """
        if degree == 0:
            return (self.d0.T @ sparse.diags(self.star1) @ self.d0).tocsr(), self.star0
        if degree != 2:
            raise ValueError("laplacian_matrices builds degrees 0 and 2")
        zero = self.star1 <= ZERO_TOL * np.median(np.abs(self.star1))
        if not zero.any():
            s2 = sparse.diags(self.star2)
            a = s2 @ self.d1 @ sparse.diags(1.0 / self.star1) @ self.d1.T @ s2
            return a.tocsr(), self.star2
        pairs = abs(self.d1[:, zero]).tocsc().indices.reshape(-1, 2)  # the faces of each zero edge
        nf = len(self.star2)
        n_groups, group = _components(nf, *pairs.T)
        p = sparse.csr_matrix((np.ones(nf), (np.arange(nf), group)), shape=(nf, n_groups))
        mass = 1.0 / (p.T @ (1.0 / self.star2))
        g = self.d1[:, ~zero].T @ p
        s = sparse.diags(mass)
        a = s @ g.T @ sparse.diags(1.0 / self.star1[~zero]) @ g @ s
        return a.tocsr(), mass

    def codifferential_1(self, x: np.ndarray) -> np.ndarray:
        """Codifferential of an edge cochain (vertex cochain result)."""
        return (self.d0.T @ (self.star1 * x)) / self.star0


def _cotan_weights(face_edges, cots, ne) -> np.ndarray:
    """Half the sum of the cotangents opposite each edge."""
    w = np.zeros(ne)
    for corner in range(3):
        np.add.at(w, face_edges[:, (corner + 1) % 3], 0.5 * cots[:, corner])
    return w


def _flip_to_delaunay(edges, f, face_edges, signs, cots, lengths_sq, areas, start, tol):
    """Flip edges with cotan weight below -tol, starting from the edges
    ``start``, until none is left.

    Works in place on the edge and face tables (side k of face t runs from
    corner k to corner k + 1 and is edge ``face_edges[t, k]``; ``cots`` and
    ``lengths_sq`` are per corner, the latter of the opposite side).  A
    flipped edge keeps its id and joins the two opposite vertices; its
    length comes from the quad laid flat in the plane, and the two new
    faces get cotangents and areas from their side lengths alone.  This is
    the edge-flip algorithm of Bobenko & Springborn (DCG 2007), which ends
    in the intrinsic Delaunay triangulation.
    """
    # halves[e]: the slots 3*face + side of edge e
    per_edge = np.bincount(face_edges.reshape(-1), minlength=len(edges))
    slots = np.argsort(face_edges.reshape(-1), kind="stable").tolist()
    ends = np.cumsum(per_edge).tolist()
    halves = [slots[i:j] for i, j in zip([0] + ends[:-1], ends)]
    length = np.sqrt(lengths_sq)  # per corner, of the opposite side
    elen = np.zeros(len(edges))
    for corner in range(3):
        elen[face_edges[:, (corner + 1) % 3]] = length[:, corner]
    ev, fv, fe, fs = edges.tolist(), f.tolist(), face_edges.tolist(), signs.tolist()
    ct, lsq, ar, el = cots.tolist(), lengths_sq.tolist(), areas.tolist(), elen.tolist()

    def weight(e):
        return 0.5 * sum(ct[h // 3][(h % 3 + 2) % 3] for h in halves[e])

    stack = start[::-1]
    queued = set(stack)
    while stack:
        e = stack.pop()
        queued.discard(e)
        if weight(e) >= -tol:
            continue
        h1, h2 = halves[e]
        t1, k1, t2, k2 = h1 // 3, h1 % 3, h2 // 3, h2 % 3
        if t1 == t2:
            continue  # both sides in one face: no quad to flip
        a, b, c = fv[t1][k1], fv[t1][(k1 + 1) % 3], fv[t1][(k1 + 2) % 3]
        d = fv[t2][(k2 + 2) % 3]
        e_bc, e_ca = fe[t1][(k1 + 1) % 3], fe[t1][(k1 + 2) % 3]
        e_ad, e_db = fe[t2][(k2 + 1) % 3], fe[t2][(k2 + 2) % 3]
        s_bc, s_ca = fs[t1][(k1 + 1) % 3], fs[t1][(k1 + 2) % 3]
        s_ad, s_db = fs[t2][(k2 + 1) % 3], fs[t2][(k2 + 2) % 3]
        # the quad a-d-b-c laid flat with a at the origin and b on the +x axis;
        # c above (face t1) and d below (face t2)
        ab = el[e]
        xc = (ab * ab + el[e_ca] ** 2 - el[e_bc] ** 2) / (2.0 * ab)
        xd = (ab * ab + el[e_ad] ** 2 - el[e_db] ** 2) / (2.0 * ab)
        yc, yd = 2.0 * ar[t1] / ab, 2.0 * ar[t2] / ab
        el[e] = hypot(xc - xd, yc + yd)
        # new faces (c, a, d) and (d, b, c); side 2 of each is the new edge
        s_cd = 1.0 if c <= d else -1.0
        ev[e] = [min(c, d), max(c, d)]
        fv[t1], fe[t1], fs[t1] = [c, a, d], [e_ca, e_ad, e], [s_ca, s_ad, -s_cd]
        fv[t2], fe[t2], fs[t2] = [d, b, c], [e_db, e_bc, e], [s_db, s_bc, s_cd]
        # the four outer sides move to their slots in the new faces
        for x, old, new in (
            (e_ca, 3 * t1 + (k1 + 2) % 3, 3 * t1),
            (e_ad, 3 * t2 + (k2 + 1) % 3, 3 * t1 + 1),
            (e_db, 3 * t2 + (k2 + 2) % 3, 3 * t2),
            (e_bc, 3 * t1 + (k1 + 1) % 3, 3 * t2 + 1),
        ):
            halves[x][halves[x].index(old)] = new
        halves[e] = [3 * t1 + 2, 3 * t2 + 2]
        for t in (t1, t2):
            sides = [el[x] for x in fe[t]]
            ar[t] = _heron(*sides)
            if not ar[t] > 0:  # vertices that nearly meet, as on a spindle torus read from a file
                raise MeshError("degenerate_face", f"flipping edge {e} leaves face {t} with no area")
            for corner in range(3):
                opp, adj1, adj2 = sides[(corner + 1) % 3], sides[(corner + 2) % 3], sides[corner]
                lsq[t][corner] = opp * opp
                ct[t][corner] = (adj1 * adj1 + adj2 * adj2 - opp * opp) / (4.0 * ar[t])
        for x in (e_bc, e_ca, e_ad, e_db):
            if x not in queued:
                queued.add(x)
                stack.append(x)
    edges[:], f[:], face_edges[:], signs[:] = ev, fv, fe, fs
    cots[:], lengths_sq[:], areas[:] = ct, lsq, ar


def _heron(a, b, c):
    """Triangle area from side lengths (Kahan's rounding-stable form)."""
    a, b, c = sorted((a, b, c), reverse=True)
    return 0.25 * sqrt(max((a + (b + c)) * (c - (a - b)) * (c + (a - b)) * (a + (b - c)), 0.0))


def assemble_dec(mesh: MeshComplex) -> DecOperators:
    """Assemble incidence matrices and Hodge stars on the intrinsic Delaunay
    triangulation (IDT) of the surface.

    Every edge whose cotan weight is below -FLIP_TOL times the median
    weight magnitude is flipped until none is left; the IDT's cotan weights
    are then >= 0 and its circumcentric dual areas positive (Bobenko &
    Springborn, DCG 2007).  Faces that no flip touches keep the 3-D
    cotangent expression, so a Delaunay mesh gets exactly the operators of
    its own triangulation.
    """
    _require_kind(mesh, "surface", "DEC assembly")
    v = mesh.vertices
    f = mesh.cells.copy()
    edges = mesh.edges.copy()
    nv, ne, nf = mesh.n_vertices, mesh.n_edges, mesh.n_cells

    # face edges ab, bc, ca; column k is opposite corner (k + 2) % 3
    heads = f[:, [1, 2, 0]]
    face_edges = mesh.edge_ids(f, heads)
    signs = np.where(f < heads, 1.0, -1.0)

    # cotangents of the three corner angles of every face
    cots = np.empty((nf, 3))
    for corner in range(3):
        p0 = v[f[:, corner]]
        e1 = v[f[:, (corner + 1) % 3]] - p0
        e2 = v[f[:, (corner + 2) % 3]] - p0
        cross = np.linalg.norm(np.cross(e1, e2), axis=1)
        cots[:, corner] = np.einsum("ij,ij->i", e1, e2) / cross

    # squared length of the side opposite each corner
    lengths_sq = np.empty((nf, 3))
    for corner in range(3):
        lengths_sq[:, corner] = (
            np.linalg.norm(v[f[:, (corner + 1) % 3]] - v[f[:, (corner + 2) % 3]], axis=1)
            ** 2
        )
    _, face_areas = mesh.face_normals_areas()

    star1 = _cotan_weights(face_edges, cots, ne)
    tol = FLIP_TOL * float(np.median(np.abs(star1)))
    start = np.flatnonzero(star1 < -tol)
    if start.size:
        _flip_to_delaunay(edges, f, face_edges, signs, cots, lengths_sq, face_areas, start.tolist(), tol)
        star1 = _cotan_weights(face_edges, cots, ne)

    rows = np.repeat(np.arange(ne), 2)
    d0 = sparse.csr_matrix((np.tile([-1.0, 1.0], ne), (rows, edges.reshape(-1))), shape=(ne, nv))
    d1 = sparse.csr_matrix(
        (signs.reshape(-1), (np.repeat(np.arange(nf), 3), face_edges.reshape(-1))),
        shape=(nf, ne),
    )

    # circumcentric dual areas: per corner (|e_opp_j|^2 cot_j + |e_opp_k|^2 cot_k)/8
    star0 = np.zeros(nv)
    for corner in range(3):
        j = (corner + 1) % 3
        k = (corner + 2) % 3
        contrib = (lengths_sq[:, j] * cots[:, j] + lengths_sq[:, k] * cots[:, k]) / 8.0
        np.add.at(star0, f[:, corner], contrib)

    return DecOperators(
        d0=d0,
        d1=d1,
        star0=star0,
        star1=star1,
        star2=1.0 / face_areas,
        edges=edges,
        faces=f,
    )


# ---------------------------------------------------------------------------
# reports


@dataclass
class SpectrumReport:
    """Sorted Hodge-Laplacian eigenvalues with family tags and clusters."""

    degree: int
    eigenvalues: np.ndarray
    families: list  # 'harmonic' | 'exact' | 'coexact' per eigenvalue
    clusters: list  # (value, multiplicity) with the clustering tolerance
    cluster_ids: np.ndarray
    mesh_meta: dict
    zero_tol: float
    cluster_tol: float
    method: str

    def first_positive(self, family: str | None = None) -> float:
        for lam, fam in zip(self.eigenvalues, self.families):
            if fam == "harmonic":
                continue
            if family is None or fam == family:
                return float(lam)
        raise ValueError(f"no positive eigenvalue of family {family!r} in report")

    def count(self, family: str) -> int:
        return sum(1 for f in self.families if f == family)

    def to_dict(self) -> dict:
        return {
            "degree": self.degree,
            "eigenvalues": self.eigenvalues.tolist(),
            "families": list(self.families),
            "clusters": [[float(v), int(m)] for v, m in self.clusters],
            "cluster_ids": self.cluster_ids.tolist(),
            "mesh": self.mesh_meta,
            "zero_tol": self.zero_tol,
            "cluster_tol": self.cluster_tol,
            "method": self.method,
        }


def _cluster(eigenvalues: np.ndarray, tol: float, scale: float):
    ids = np.zeros(len(eigenvalues), dtype=int)
    clusters = []
    if len(eigenvalues) == 0:
        return clusters, ids
    start = 0
    for i in range(1, len(eigenvalues) + 1):
        if i == len(eigenvalues) or (
            eigenvalues[i] - eigenvalues[i - 1]
            > tol * max(abs(eigenvalues[i - 1]), scale)
        ):
            block = eigenvalues[start:i]
            clusters.append((float(block.mean()), len(block)))
            ids[start:i] = len(clusters) - 1
            start = i
    return clusters, ids


def _pencil_scale(a, b_diag) -> float:
    # robust Rayleigh scale of the pencil
    return float(np.median(a.diagonal() / b_diag))


def _factor(a, b_diag, shift: float):
    """SuperLU factor of A - shift*B in a symmetric minimum-degree order,
    pivoting on the diagonal: P^T L D L^T P when it completes.  Raises
    RuntimeError on a zero pivot."""
    c = (a - shift * sparse.diags(b_diag)).tocsc()
    return splu(c, "MMD_AT_PLUS_A", diag_pivot_thresh=0.0, options={"SymmetricMode": True})


def _lanczos(a, b_diag, k: int, sigma: float, seed: int = 7, locked=None):
    """k eigenpairs of (A, diag(b)) nearest above sigma, sorted: shift-invert
    Lanczos from a seeded start vector on one ``_factor`` of A - sigma*B,
    in the B-orthogonal complement of ``locked`` (B-orthonormal columns).
    With sigma below the spectrum, A - sigma*B is positive definite, so its
    diagonal pivots are safe."""
    n = a.shape[0]
    try:
        lu = _factor(a, b_diag, sigma)
    except RuntimeError as exc:
        raise SolverError(f"factorization of A - sigma*B failed: {exc}") from exc
    solve = lu.solve
    if locked is not None:
        b_locked = b_diag[:, None] * locked

        def solve(x):
            y = lu.solve(x - b_locked @ (locked.T @ x))
            return y - locked @ (b_locked.T @ y)

    v0 = np.random.default_rng(seed).standard_normal(n)
    op = LinearOperator((n, n), matvec=solve, dtype=float)
    # B as a plain product: a sparse matrix costs ~40 us per ARPACK call in dispatch
    b_op = LinearOperator((n, n), matvec=lambda x: b_diag * x.reshape(-1), dtype=float)
    try:
        w, vecs = eigsh(a, k=k, M=b_op, sigma=sigma, which="LM", v0=v0, OPinv=op)
    except ArpackNoConvergence as exc:
        got = np.asarray(exc.eigenvalues)
        raise SolverError(
            f"Lanczos converged only {got.size}/{k} eigenvalues",
            residuals={"converged": got.tolist()},
        ) from exc
    except ArpackError as exc:  # e.g. -9, a start vector that the operator maps to zero
        raise SolverError(f"Lanczos failed: {exc}") from exc
    order = np.argsort(w)
    return w[order], vecs[:, order]


def _count_below(a, b_diag, tau: float):
    """Pencil eigenvalues below tau by Sylvester's law of inertia: negative
    pivots of the ``_factor`` of A - tau*B, if SuperLU kept them to the
    diagonal (else None)."""
    try:
        lu = _factor(a, b_diag, tau)
    except RuntimeError:  # a zero pivot
        return None
    diagonal = np.array_equal(lu.perm_r, lu.perm_c)
    return int(np.count_nonzero(lu.U.diagonal() < 0)) if diagonal else None


def _fill_missed(a, b_diag, k, sigma, scale, w, vecs):
    """Lanczos can skip copies of a degenerate eigenvalue for larger values
    (rotated, relabelled icosphere(1), degree 0, k=13: four of five 5.488,
    and 9.283).  While the inertia count below tau = w[-1] - ZERO_TOL*scale
    exceeds the values found below tau, those are locked and the rest
    sought again from a new start vector.  A pass finding nothing new below
    tau ends it: the count is in doubt (1e-9*scale below a cluster it has
    counted too many).  After k passes that each found some, SolverError."""
    for attempt in range(1, k + 1):
        tau = w[-1] - ZERO_TOL * scale
        keep = w < tau
        below = _count_below(a, b_diag, tau)
        if below is None or below <= keep.sum():
            return w, vecs
        locked = vecs[:, keep]  # eigsh's eigenvectors are B-orthonormal
        more, more_vecs = _lanczos(a, b_diag, k - locked.shape[1], sigma, 7 + attempt, locked)
        if not more[0] < tau:
            return w, vecs
        order = np.argsort(np.concatenate([w[keep], more]), kind="stable")
        w, vecs = np.concatenate([w[keep], more])[order], np.hstack([locked, more_vecs])[:, order]
    raise SolverError(
        f"Lanczos missed eigenvalues below {tau:.6g}: {below} by inertia, {keep.sum()} found",
        residuals={"inertia": below, "found": int(keep.sum())},
    )


def _solve_pencil(a: sparse.csr_matrix, b_diag: np.ndarray, k: int, scale: float):
    """k smallest eigenvalues of the symmetric pencil (A, diag(b)) and the
    solve method, 'dense' or 'shift-invert'.

    The pencil is solved at unit scale, as (A, diag(b) * unit) with unit a
    power of four within a factor of four of ``scale``, and its eigenvalues
    are multiplied back by unit.  A power of four keeps every rounding (the
    square root of the B-norm too), so the values are those of the unscaled
    solve.  That solve fails far below unit scale (icospheres from radius
    1e-10 down), in the residual check or in ARPACK, whose shift-invert
    Ritz values 1/(lambda - sigma) grow as 1/scale.

    A full spectrum (k >= n) is solved densely, anything less by
    shift-invert Lanczos (``_lanczos``) with sigma = -1e-4*scale just below
    the spectrum, completed by ``_fill_missed``, on the pencil renumbered in
    reverse Cuthill-McKee order.  The dense Cholesky reduction needs a
    positive mass; any other ends in SolverError.  Every eigenpair must
    satisfy ||A x - lambda b*x|| <= ZERO_TOL * scale * ||b*x||, else
    SolverError.
    """
    unit = 4.0 ** (np.frexp(scale)[1] // 2)
    b_diag, scale = b_diag * unit, scale / unit
    n = a.shape[0]
    if k >= n:
        try:
            w, vecs = eigh(a.toarray(), np.diag(b_diag))
        except LinAlgError as exc:
            raise SolverError(f"dense eigensolve failed: {exc}") from exc
        method = "dense"
    else:
        # a bandwidth-reducing pre-order: minimum degree alone fills badly
        # on some input numberings (the generator's own, for icospheres)
        from scipy.sparse.csgraph import reverse_cuthill_mckee

        perm = reverse_cuthill_mckee(a, symmetric_mode=True)
        a, b_diag = a[perm][:, perm], b_diag[perm]
        sigma = -1e-4 * scale
        w, vecs = _lanczos(a, b_diag, k, sigma)
        w, vecs = _fill_missed(a, b_diag, k, sigma, scale, w, vecs)
        method = "shift-invert"
    bx = b_diag[:, None] * vecs
    r = float(
        np.max(np.linalg.norm(a @ vecs - w * bx, axis=0) / (scale * np.linalg.norm(bx, axis=0)))
    )
    if not r <= ZERO_TOL:
        raise SolverError(
            f"{method} eigenpairs have relative residual {r:.3g} > {ZERO_TOL:g}",
            residuals={"max_rel_residual": r},
        )
    return w * unit, method


def _check_harmonic(degree: int, w: np.ndarray, harmonic: int, betti: int, ztol: float):
    """The harmonic count must equal b_p (capped at the values solved for)
    and no eigenvalue may lie below -ztol; else SolverError."""
    if harmonic != min(betti, len(w)) or w[0] < -ztol:
        raise SolverError(
            f"degree-{degree} spectrum has {harmonic} harmonic eigenvalues "
            f"(lowest {w[0]:.6g}, zero tolerance {ztol:.3g}) but b{degree} = {betti}"
        )


def _pencil_values(ops: DecOperators, degree: int, k: int, betti: int):
    """k smallest eigenvalues of the degree-0 or degree-2 pencil (all of
    them if k exceeds its size), family tags, pencil scale and solve method;
    checked by ``_check_harmonic``."""
    a, b = ops.laplacian_matrices(degree)
    scale = _pencil_scale(a, b)
    w, method = _solve_pencil(a, b, k, scale)
    ztol = ZERO_TOL * scale
    nonzero = "coexact" if degree == 0 else "exact"
    families = ["harmonic" if lam < ztol else nonzero for lam in w]
    _check_harmonic(degree, w, families.count("harmonic"), betti, ztol)
    return w, families, scale, method


def _one_form_values(ops: DecOperators, k: int, betti: tuple):
    """k smallest 1-form eigenvalues as the exact Hodge split: b1 zeros, then
    the nonzero 0-form values (exact) and 2-form values (coexact), merged."""
    if (ops.d1 @ ops.d0).count_nonzero():
        raise SolverError("d1 d0 != 0: the operators are not a cochain complex")
    nonzero = max(k - betti[1], 1)
    w0, f0, scale0, m0 = _pencil_values(ops, 0, nonzero + betti[0], betti[0])
    w2, f2, scale2, m2 = _pencil_values(ops, 2, nonzero + betti[2], betti[2])
    h0, h2 = f0.count("harmonic"), f2.count("harmonic")
    values = np.concatenate([w0[h0:], w2[h2:]])
    order = np.argsort(values, kind="stable")
    tags = np.repeat(["exact", "coexact"], [len(w0) - h0, len(w2) - h2])[order].tolist()
    (ne, nv), nf = ops.d0.shape, ops.d1.shape[0]
    # dim ker = E - rank d0 - rank d1, each rank read off a sub-solve
    harmonic = ne - (nv - h0) - (nf - h2)
    w = np.concatenate([np.zeros(max(harmonic, 0)), values[order]])
    scale = max(scale0, scale2)
    _check_harmonic(1, w, harmonic, betti[1], ZERO_TOL * scale)
    method = m0 if m0 == m2 else f"{m0}+{m2}"
    return w[:k], (["harmonic"] * harmonic + tags)[:k], scale, method


def spectrum(
    mesh: MeshComplex,
    degree: int,
    k: int = 10,
    dec: DecOperators | None = None,
    cluster_tol: float = 1e-3,
) -> SpectrumReport:
    """k smallest eigenvalues of the degree-p Hodge Laplacian, tagged by family.

    Numerical zeros (below ``zero_tol``, ZERO_TOL times the pencil scale)
    are harmonic.  Nonzero eigenvalues are coexact for functions (their
    differentials are the exact 1-eigenforms) and exact for 2-forms.  The
    harmonic count must equal the Betti number b_p of the surface (capped
    at k) and no eigenvalue may lie below -zero_tol; otherwise the solve is
    not trusted and SolverError is raised.  A ``cluster_tol`` that is not a
    finite positive number is refused with ValueError before any solve.

    Degree 1 builds no pencil of its own.  After checking that d1 d0 is
    exactly zero, it solves the degree-0 and degree-2 pencils for
    max(k - b1, 1) + b_p eigenpairs each (capped at the pencil size), each
    with its own checks.  It returns min(b1, k) harmonic values, reported
    as 0.0, then the smallest of the union of their nonzero values, tagged
    exact (from degree 0) or coexact (from degree 2).  Its harmonic count
    E - (V - h0) - (F - h2), from the sub-solves' counts h0 and h2, is
    checked against b1.  ``zero_tol`` is the larger of the two sub-solves'
    tolerances; ``method`` is their shared method, or both joined by '+'
    (degree 0 first) when they differ.  A full 1-form spectrum (k >= E)
    holds E - m finite values, m being the number of faces the degree-2
    pencil merges away (the number of zero dual edges when these close no
    loop); the direct 1-form pencil's other m values are infinite.
    """
    if k < 1:
        raise ValueError("need k >= 1")
    if degree not in (0, 1, 2):
        raise ValueError("degree must be 0, 1 or 2")
    check_tolerance(cluster_tol, "cluster_tol")
    ops = dec or assemble_dec(mesh)
    betti = mesh.betti_numbers()
    if degree == 1:
        w, families, scale, method = _one_form_values(ops, k, betti)
    else:
        w, families, scale, method = _pencil_values(ops, degree, k, betti[degree])
    clusters, ids = _cluster(w, cluster_tol, 1e-6 * scale)
    return SpectrumReport(
        degree=degree,
        eigenvalues=w,
        families=families,
        clusters=clusters,
        cluster_ids=ids,
        mesh_meta=mesh.report(),
        zero_tol=ZERO_TOL * scale,
        cluster_tol=cluster_tol,
        method=method,
    )


def sphere_hodge_oracle(n: int, p: int):
    """First exact p-form eigenvalue of the unit n-sphere and its multiplicity.

    Returns (p * (n - p + 1), C(n + 1, p)).
    """
    if not 1 <= p <= n:
        raise ValueError(f"p={p} out of range 1..{n}")
    return float(p * (n - p + 1)), comb(n + 1, p)
