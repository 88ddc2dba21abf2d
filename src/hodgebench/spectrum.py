"""Discrete exterior calculus Hodge Laplacian on triangle surfaces.

Cochains live on vertices/edges/faces with signed incidence matrices as the
exterior derivative and diagonal (circumcentric, cotangent-weighted) Hodge
stars.  The degree-0 Laplacian is the classical cotan Laplacian; degree-1
and degree-2 Laplacians come from the same operators, and the nonzero
1-form spectrum splits into the exact family (shared with functions) and
the coexact family (shared with 2-forms).
"""

from __future__ import annotations

import csv
import json
from dataclasses import dataclass, field
from math import comb

import numpy as np
from scipy import sparse
from scipy.linalg import LinAlgError, eigh
from scipy.sparse.linalg import ArpackNoConvergence, LinearOperator, eigsh, splu

from .meshes import MeshComplex, MeshError

__all__ = [
    "DecOperators",
    "SpectrumReport",
    "SolverError",
    "assemble_dec",
    "spectrum",
    "sphere_hodge_oracle",
]

CLAMP_FLOOR = 1e-10  # nonpositive Hodge weights are clamped to this (times the local scale)
# Relative to the pencil scale: eigenvalues below ZERO_TOL are harmonic, and
# an eigenpair residual above it fails the solve, as it could move an
# eigenvalue across that line.  Residuals of valid Lanczos pairs are about
# 1e-15, but reach 3.1e-10 where k cuts a degenerate cluster of a small mesh
# (icosphere(1), degree 0, k=3) and 2.3e-9 on rotated, relabelled copies.
ZERO_TOL = 1e-8


class SolverError(Exception):
    """Eigensolve failed or its result failed a self-check; carries residuals."""

    def __init__(self, message, residuals=None):
        super().__init__(message)
        self.residuals = residuals


@dataclass
class DecOperators:
    """Signed incidence matrices and diagonal Hodge stars of a surface mesh."""

    d0: sparse.csr_matrix  # (E, V)
    d1: sparse.csr_matrix  # (F, E)
    star0: np.ndarray  # (V,) dual areas
    star1: np.ndarray  # (E,) dual/primal length ratios
    star2: np.ndarray  # (F,) inverse face areas
    mesh: MeshComplex
    clamped_star0: list = field(default_factory=list)
    clamped_star1: list = field(default_factory=list)

    def laplacian_matrices(self, degree: int):
        """Stiffness/mass pair (A, B) of the degree-p Hodge Laplacian.

        The generalized problem A x = lambda B x is symmetric with B the
        diagonal Hodge star of the degree.
        """
        s0 = sparse.diags(self.star0)
        s1 = sparse.diags(self.star1)
        s2 = sparse.diags(self.star2)
        if degree == 0:
            return (self.d0.T @ s1 @ self.d0).tocsr(), self.star0
        if degree == 1:
            inv0 = sparse.diags(1.0 / self.star0)
            a = s1 @ self.d0 @ inv0 @ self.d0.T @ s1 + self.d1.T @ s2 @ self.d1
            return a.tocsr(), self.star1
        if degree == 2:
            inv1 = sparse.diags(1.0 / self.star1)
            a = s2 @ self.d1 @ inv1 @ self.d1.T @ s2
            return a.tocsr(), self.star2
        raise ValueError("degree must be 0, 1 or 2")

    def codifferential_1(self, x: np.ndarray) -> np.ndarray:
        """Codifferential of an edge cochain (vertex cochain result)."""
        return (self.d0.T @ (self.star1 * x)) / self.star0

    def codifferential_2(self, x: np.ndarray) -> np.ndarray:
        """Codifferential of a face cochain (edge cochain result)."""
        return (self.d1.T @ (self.star2 * x)) / self.star1


def assemble_dec(mesh: MeshComplex, strict: bool = False) -> DecOperators:
    """Assemble incidence matrices and circumcentric Hodge stars.

    Negative cotan weights (non-Delaunay edges) and negative circumcentric
    dual areas (obtuse triangles) are clamped to a small positive floor of
    the local scale; with ``strict=True`` they raise instead, naming the
    offending simplex.
    """
    if mesh.kind != "surface":
        raise MeshError("bad_kind", "DEC assembly requires a surface mesh")
    v = mesh.vertices
    f = mesh.cells
    edges = mesh.edges
    nv, ne, nf = mesh.n_vertices, mesh.n_edges, mesh.n_cells

    rows = np.repeat(np.arange(ne), 2)
    cols = edges.reshape(-1)
    vals = np.tile([-1.0, 1.0], ne)
    d0 = sparse.csr_matrix((vals, (rows, cols)), shape=(ne, nv))

    # face edges ab, bc, ca; column k is opposite corner (k + 2) % 3
    heads = f[:, [1, 2, 0]]
    face_edges = mesh.edge_ids(f, heads)
    signs = np.where(f < heads, 1.0, -1.0)
    d1 = sparse.csr_matrix(
        (signs.reshape(-1), (np.repeat(np.arange(nf), 3), face_edges.reshape(-1))),
        shape=(nf, ne),
    )

    # cotangents of the three corner angles of every face
    cots = np.empty((nf, 3))
    for corner in range(3):
        p0 = v[f[:, corner]]
        e1 = v[f[:, (corner + 1) % 3]] - p0
        e2 = v[f[:, (corner + 2) % 3]] - p0
        cross = np.linalg.norm(np.cross(e1, e2), axis=1)
        cots[:, corner] = np.einsum("ij,ij->i", e1, e2) / cross

    _, face_areas = mesh.face_normals_areas()

    star1 = np.zeros(ne)
    for corner in range(3):
        np.add.at(star1, face_edges[:, (corner + 1) % 3], 0.5 * cots[:, corner])

    # circumcentric dual areas: per corner (|e_opp_j|^2 cot_j + |e_opp_k|^2 cot_k)/8
    lengths_sq = np.empty((nf, 3))
    for corner in range(3):
        lengths_sq[:, corner] = (
            np.linalg.norm(v[f[:, (corner + 1) % 3]] - v[f[:, (corner + 2) % 3]], axis=1)
            ** 2
        )
    star0 = np.zeros(nv)
    for corner in range(3):
        j = (corner + 1) % 3
        k = (corner + 2) % 3
        contrib = (lengths_sq[:, j] * cots[:, j] + lengths_sq[:, k] * cots[:, k]) / 8.0
        np.add.at(star0, f[:, corner], contrib)

    star2 = 1.0 / face_areas

    clamped0, clamped1 = [], []
    bary = np.zeros(nv)
    for corner in range(3):
        np.add.at(bary, f[:, corner], face_areas / 3.0)
    bad0 = np.flatnonzero(star0 <= 0)
    if bad0.size:
        if strict:
            raise MeshError(
                "nonpositive_weight", f"dual area of vertex {bad0[0]} is nonpositive"
            )
        star0 = star0.copy()
        star0[bad0] = CLAMP_FLOOR * bary[bad0]
        clamped0 = bad0.tolist()
    bad1 = np.flatnonzero(star1 <= 0)
    if bad1.size:
        if strict:
            e = tuple(edges[bad1[0]].tolist())
            raise MeshError(
                "nonpositive_weight", f"cotan weight of edge {e} is nonpositive"
            )
        star1 = star1.copy()
        star1[bad1] = CLAMP_FLOOR
        clamped1 = bad1.tolist()

    return DecOperators(
        d0=d0,
        d1=d1,
        star0=star0,
        star1=star1,
        star2=star2,
        mesh=mesh,
        clamped_star0=clamped0,
        clamped_star1=clamped1,
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

    def first_eigenvalue(self) -> float:
        """First positive eigenvalue: min over the exact/coexact families."""
        return self.first_positive(None)

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

    def to_json(self, path=None, extra=None) -> str:
        payload = self.to_dict()
        if extra:
            payload.update(extra)
        text = json.dumps(payload, indent=2)
        if path is not None:
            with open(path, "w") as fh:
                fh.write(text)
        return text

    def to_csv(self, path) -> None:
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["value", "family", "cluster"])
            for lam, fam, cid in zip(self.eigenvalues, self.families, self.cluster_ids):
                writer.writerow([f"{lam:.16g}", fam, int(cid)])


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
    # robust Rayleigh scale; the median ignores clamped near-zero weights
    return float(np.median(a.diagonal() / b_diag))


def _solve_pencil(a: sparse.csr_matrix, b_diag: np.ndarray, k: int, clamped: bool, scale: float):
    """k smallest eigenpairs of the symmetric pencil (A, diag(b)).

    A full spectrum (k >= n) is solved densely, anything less by
    shift-invert Lanczos from a fixed start vector, with A - sigma*B
    factorized once by SuperLU and sigma = -1e-4*scale just below the
    spectrum.  Clamped Hodge weights make diag(b) badly conditioned, which
    breaks the dense Cholesky reduction, so full spectra of clamped meshes
    are refused; on the shift-invert path A - sigma*B stays SPD for
    sigma < 0.  Every eigenpair must satisfy
    ||A x - lambda b*x|| <= ZERO_TOL * scale * ||b*x||, else SolverError.
    """
    n = a.shape[0]
    if k >= n:
        if clamped:
            raise SolverError(
                "full spectra of meshes with clamped Hodge weights are not "
                "computable reliably; request k < number of unknowns"
            )
        try:
            w, vecs = eigh(a.toarray(), np.diag(b_diag))
        except LinAlgError as exc:
            raise SolverError(f"dense eigensolve failed: {exc}") from exc
        method = "dense"
    else:
        sigma = -1e-4 * scale
        m = sparse.diags(b_diag)
        try:
            lu = splu((a - sigma * m).tocsc(), options={"SymmetricMode": True})
        except RuntimeError as exc:
            raise SolverError(f"factorization of A - sigma*B failed: {exc}") from exc
        v0 = np.random.default_rng(7).standard_normal(n)
        try:
            w, vecs = eigsh(
                a,
                k=k,
                M=m,
                sigma=sigma,
                which="LM",
                v0=v0,
                OPinv=LinearOperator((n, n), matvec=lu.solve, dtype=float),
            )
        except ArpackNoConvergence as exc:
            got = np.asarray(exc.eigenvalues)
            raise SolverError(
                f"Lanczos converged only {got.size}/{k} eigenvalues",
                residuals={"converged": got.tolist()},
            ) from exc
        order = np.argsort(w)
        w, vecs, method = w[order], vecs[:, order], "shift-invert"
    bx = b_diag[:, None] * vecs
    r = float(
        np.max(np.linalg.norm(a @ vecs - w * bx, axis=0) / (scale * np.linalg.norm(bx, axis=0)))
    )
    if not r <= ZERO_TOL:
        raise SolverError(
            f"{method} eigenpairs have relative residual {r:.3g} > {ZERO_TOL:g}",
            residuals={"max_rel_residual": r},
        )
    return w, vecs, method


def _one_form_family(ops: DecOperators, x: np.ndarray) -> str:
    """'exact' if the codifferential of x outweighs its differential."""
    dx = ops.d1 @ x
    d_norm = float(np.sqrt((ops.star2 * dx * dx).sum()))
    cx = ops.codifferential_1(x)
    c_norm = float(np.sqrt((ops.star0 * cx * cx).sum()))
    return "exact" if d_norm <= c_norm else "coexact"


def spectrum(
    mesh: MeshComplex,
    degree: int,
    k: int = 10,
    dec: DecOperators | None = None,
    cluster_tol: float = 1e-3,
    strict: bool = False,
) -> SpectrumReport:
    """k smallest eigenvalues of the degree-p Hodge Laplacian, tagged by family.

    Numerical zeros are harmonic.  Nonzero eigenvalues are coexact for
    functions (their differentials are the exact 1-eigenforms) and exact for
    2-forms; a 1-form eigenvector is classified by comparing the norms of
    its discrete differential and codifferential.  The harmonic count must
    equal the Betti number b_p of the surface (capped at k) and no
    eigenvalue may lie below -zero_tol; otherwise the solve is not trusted
    and SolverError is raised.
    """
    if k < 1:
        raise ValueError("need k >= 1")
    ops = dec or assemble_dec(mesh, strict=strict)
    a, b = ops.laplacian_matrices(degree)
    clamped = bool(ops.clamped_star0 or ops.clamped_star1)
    scale = _pencil_scale(a, b)
    w, vecs, method = _solve_pencil(a, b, k, clamped, scale)
    ztol = ZERO_TOL * scale
    nonzero = ("coexact", None, "exact")[degree]
    families = [
        "harmonic" if lam < ztol else nonzero or _one_form_family(ops, vecs[:, i])
        for i, lam in enumerate(w)
    ]
    betti = mesh.betti_numbers()[degree]
    harmonic = families.count("harmonic")
    if harmonic != min(betti, len(w)) or w[0] < -ztol:
        raise SolverError(
            f"degree-{degree} spectrum has {harmonic} harmonic eigenvalues "
            f"(lowest {w[0]:.6g}, zero tolerance {ztol:.3g}) but b{degree} = {betti}"
        )
    clusters, ids = _cluster(w, cluster_tol, 1e-6 * scale)
    return SpectrumReport(
        degree=degree,
        eigenvalues=w,
        families=families,
        clusters=clusters,
        cluster_ids=ids,
        mesh_meta=mesh.report(),
        zero_tol=ztol,
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
