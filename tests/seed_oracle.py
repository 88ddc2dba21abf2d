"""Reference loop implementations of the mesh topology layer.

These are the original per-simplex Python loops (dict edge lookup, row-wise
``np.unique``, per-prism splitting, per-vertex ``lstsq`` quadric fits) that
``hodgebench.meshes`` and ``hodgebench.spectrum.assemble_dec`` replaced with
array code on int64 keys.  They are kept only as a test oracle: the
equivalence tests require the array code to reproduce them bit for bit
(topology, generators, DEC tables) or to rounding (quadric fits).

``one_form_spectrum`` is the direct degree-1 pencil that ``spectrum`` replaced
with the exact Hodge split (the union of the degree-0 and degree-2 spectra).

``idt_assemble_dec`` and ``flip_to_delaunay`` are DEC assembly and the
intrinsic Delaunay flips as they were when they kept a squared length per face
corner beside the length per edge; the library keeps only the per-edge
lengths, and must give the same operators bit for bit.

``tet_determinants`` and ``tet_quadrature`` are the tet-volume expression that
four call sites once evaluated separately, and the per-tet contraction that
placed the tet quadrature points; volumes, weights and points must still
match them bit for bit.  ``tri_quadrature``, ``interpolated_shape`` and
``edge_midpoints`` are the triangle rule with its tiled per-node weights, the
two einsums that interpolated fitted normals and shape operators at its
nodes, and the midpoint formulas of the DEC cross term; the ledgers now build
all of these with one barycentric kernel, which must reproduce them bit for
bit.  ``stacked_ball_tets`` is the ball's tet table as one
``(L-1, F, 3, 4)`` stack of shells copied out by ``np.vstack``, before the
generator wrote each shell in place.

``find`` and ``extract_boundary_by_search`` are the key lookups of tet
validation as they were: one binary search per key in query order, and a
second search of every face key among the singletons of the sorted keys.
The library searches the keys in sorted order and takes the singletons from
one argsort; it must find the same positions, faces and keys bit for bit.

``load_mesh`` is the mesh-file reader that converted every block with one
``np.array`` over its Python tokens; the library reads blocks with numpy's C
reader instead, and must give the same arrays bit for bit, or the same
``MeshError`` code, message and line.  ``save_off`` and ``save_tet`` are the
writers that formatted each row with an f-string; the library writes its
blocks with ``np.savetxt`` and must give the same bytes.
"""

from __future__ import annotations

from math import hypot
from pathlib import Path

import numpy as np
from scipy import sparse
from scipy.linalg import cholesky, eigh, solve_triangular

from hodgebench.exterior import tangent_frame
from hodgebench.meshes import MeshComplex, MeshError
from hodgebench.spectrum import FLIP_TOL, DecOperators, _cotan_weights, _heron

# ---------------------------------------------------------------------------
# topology tables


def edges(cells) -> np.ndarray:
    cells = np.asarray(cells, dtype=np.int64)
    if cells.shape[1] == 3:
        raw = np.vstack([cells[:, [0, 1]], cells[:, [1, 2]], cells[:, [2, 0]]])
    else:
        pairs = [[0, 1], [0, 2], [0, 3], [1, 2], [1, 3], [2, 3]]
        raw = np.vstack([cells[:, p] for p in pairs])
    raw = np.sort(raw, axis=1)
    return np.unique(raw, axis=0)


def edge_index(edge_table) -> dict:
    return {tuple(e): i for i, e in enumerate(edge_table)}


def assemble_dec(vertices, faces):
    """(d0, d1, star0, star1, star2) before clamping, built with a dict."""
    v = np.asarray(vertices, dtype=float)
    f = np.asarray(faces, dtype=np.int64)
    edge_table = edges(f)
    eidx = edge_index(edge_table)
    nv, ne, nf = v.shape[0], edge_table.shape[0], f.shape[0]

    rows = np.repeat(np.arange(ne), 2)
    cols = edge_table.reshape(-1)
    vals = np.tile([-1.0, 1.0], ne)
    d0 = sparse.csr_matrix((vals, (rows, cols)), shape=(ne, nv))

    r1, c1, v1 = [], [], []
    for fi, (a, b, c) in enumerate(f):
        for u, w in ((a, b), (b, c), (c, a)):
            e = eidx[(min(u, w), max(u, w))]
            r1.append(fi)
            c1.append(e)
            v1.append(1.0 if u < w else -1.0)
    d1 = sparse.csr_matrix((v1, (r1, c1)), shape=(nf, ne))

    cots = np.empty((nf, 3))
    for corner in range(3):
        p0 = v[f[:, corner]]
        e1 = v[f[:, (corner + 1) % 3]] - p0
        e2 = v[f[:, (corner + 2) % 3]] - p0
        cross = np.linalg.norm(np.cross(e1, e2), axis=1)
        cots[:, corner] = np.einsum("ij,ij->i", e1, e2) / cross

    star1 = np.zeros(ne)
    for corner in range(3):
        u = f[:, (corner + 1) % 3]
        w = f[:, (corner + 2) % 3]
        eids = np.array([eidx[(min(a, b), max(a, b))] for a, b in zip(u, w)])
        np.add.at(star1, eids, 0.5 * cots[:, corner])

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

    e1 = v[f[:, 1]] - v[f[:, 0]]
    e2 = v[f[:, 2]] - v[f[:, 0]]
    star2 = 1.0 / (np.linalg.norm(np.cross(e1, e2), axis=1) / 2.0)
    return d0, d1, star0, star1, star2


def flip_to_delaunay(edges, f, face_edges, signs, cots, lengths_sq, areas, start, tol):
    """The flips with ``lengths_sq`` per corner, of the opposite side, and a
    per-edge length table scattered from it."""
    per_edge = np.bincount(face_edges.reshape(-1), minlength=len(edges))
    slots = np.argsort(face_edges.reshape(-1), kind="stable").tolist()
    ends = np.cumsum(per_edge).tolist()
    halves = [slots[i:j] for i, j in zip([0] + ends[:-1], ends)]
    length = np.sqrt(lengths_sq)
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
            continue
        a, b, c = fv[t1][k1], fv[t1][(k1 + 1) % 3], fv[t1][(k1 + 2) % 3]
        d = fv[t2][(k2 + 2) % 3]
        e_bc, e_ca = fe[t1][(k1 + 1) % 3], fe[t1][(k1 + 2) % 3]
        e_ad, e_db = fe[t2][(k2 + 1) % 3], fe[t2][(k2 + 2) % 3]
        s_bc, s_ca = fs[t1][(k1 + 1) % 3], fs[t1][(k1 + 2) % 3]
        s_ad, s_db = fs[t2][(k2 + 1) % 3], fs[t2][(k2 + 2) % 3]
        ab = el[e]
        xc = (ab * ab + el[e_ca] ** 2 - el[e_bc] ** 2) / (2.0 * ab)
        xd = (ab * ab + el[e_ad] ** 2 - el[e_db] ** 2) / (2.0 * ab)
        yc, yd = 2.0 * ar[t1] / ab, 2.0 * ar[t2] / ab
        el[e] = hypot(xc - xd, yc + yd)
        s_cd = 1.0 if c <= d else -1.0
        ev[e] = [min(c, d), max(c, d)]
        fv[t1], fe[t1], fs[t1] = [c, a, d], [e_ca, e_ad, e], [s_ca, s_ad, -s_cd]
        fv[t2], fe[t2], fs[t2] = [d, b, c], [e_db, e_bc, e], [s_db, s_bc, s_cd]
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
            if not ar[t] > 0:
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


def idt_assemble_dec(mesh) -> DecOperators:
    """DEC operators on the intrinsic Delaunay triangulation, with a squared
    side length per face corner."""
    v = mesh.vertices
    f = mesh.cells.copy()
    edges = mesh.edges.copy()
    nv, ne, nf = mesh.n_vertices, mesh.n_edges, mesh.n_cells
    heads = f[:, [1, 2, 0]]
    face_edges = mesh.edge_ids(f, heads)
    signs = np.where(f < heads, 1.0, -1.0)
    cots = np.empty((nf, 3))
    for corner in range(3):
        p0 = v[f[:, corner]]
        e1 = v[f[:, (corner + 1) % 3]] - p0
        e2 = v[f[:, (corner + 2) % 3]] - p0
        cross = np.linalg.norm(np.cross(e1, e2), axis=1)
        cots[:, corner] = np.einsum("ij,ij->i", e1, e2) / cross
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
        flip_to_delaunay(edges, f, face_edges, signs, cots, lengths_sq, face_areas, start.tolist(), tol)
        star1 = _cotan_weights(face_edges, cots, ne)
    rows = np.repeat(np.arange(ne), 2)
    d0 = sparse.csr_matrix((np.tile([-1.0, 1.0], ne), (rows, edges.reshape(-1))), shape=(ne, nv))
    d1 = sparse.csr_matrix(
        (signs.reshape(-1), (np.repeat(np.arange(nf), 3), face_edges.reshape(-1))),
        shape=(nf, ne),
    )
    star0 = np.zeros(nv)
    for corner in range(3):
        j = (corner + 1) % 3
        k = (corner + 2) % 3
        contrib = (lengths_sq[:, j] * cots[:, j] + lengths_sq[:, k] * cots[:, k]) / 8.0
        np.add.at(star0, f[:, corner], contrib)
    return DecOperators(d0=d0, d1=d1, star0=star0, star1=star1, star2=1.0 / face_areas, edges=edges, faces=f)


def one_form_spectrum(dec, k):
    """(k smallest finite eigenvalues, scale) of the direct degree-1 pencil
    (star1 d0 star0^-1 d0^T star1 + d1^T star2 d1, star1) on E unknowns.

    Dense shift-invert: with A - sigma*B = L L^T for sigma = -1e-4*scale
    just below the spectrum, each eigenvalue nu of L^-1 B L^-T gives
    lambda = sigma + 1/nu.  A zero dual edge has zero mass, nu = 0 and an
    infinite lambda, so the k largest nu are the k smallest finite values.
    The scale is the median Rayleigh quotient over the positive masses.
    """
    s1 = sparse.diags(dec.star1)
    a = s1 @ dec.d0 @ sparse.diags(1.0 / dec.star0) @ dec.d0.T @ s1
    a = (a + dec.d1.T @ sparse.diags(dec.star2) @ dec.d1).toarray()
    pos = dec.star1 > 0
    scale = float(np.median(np.diag(a)[pos] / dec.star1[pos]))
    sigma = -1e-4 * scale
    low = cholesky(a - sigma * np.diag(dec.star1), lower=True)
    c = solve_triangular(low, solve_triangular(low, np.diag(dec.star1), lower=True).T, lower=True)
    nu = eigh((c + c.T) / 2.0, eigvals_only=True)[::-1][:k]
    return sigma + 1.0 / nu, scale


# ---------------------------------------------------------------------------
# validation (topological checks only; the geometric checks are newer, and
# edge keys are printed as plain ints, as the array code prints them)


def validate_surface(faces) -> None:
    directed = {}
    for f_idx, (a, b, c) in enumerate(faces):
        for u, v in ((a, b), (b, c), (c, a)):
            key = (int(min(u, v)), int(max(u, v)))
            directed.setdefault(key, []).append((u, v, f_idx))
    for key, uses in directed.items():
        if len(uses) > 2:
            raise MeshError("non_manifold_edge", f"edge {key} borders {len(uses)} faces")
        if len(uses) == 1:
            raise MeshError("not_closed", f"edge {key} borders a single face")
        (u1, v1, f1), (u2, v2, f2) = uses
        if (u1, v1) == (u2, v2):
            raise MeshError(
                "inconsistent_orientation",
                f"faces {f1} and {f2} traverse edge {key} the same way",
            )


def extract_boundary(tets) -> np.ndarray:
    t = np.asarray(tets, dtype=np.int64)
    faces = np.vstack([t[:, [1, 2, 3]], t[:, [0, 3, 2]], t[:, [0, 1, 3]], t[:, [0, 2, 1]]])
    keys = np.sort(faces, axis=1)
    _, inverse, counts = np.unique(keys, axis=0, return_inverse=True, return_counts=True)
    return faces[counts.reshape(-1)[inverse.reshape(-1)] == 1]


def find(sorted_keys, keys):
    pos = np.searchsorted(sorted_keys, keys)
    return pos, np.r_[sorted_keys, -1][pos] == keys


def extract_boundary_by_search(tets, edge_keys, n_vertices):
    """(faces, keys) of the boundary, face slot-major then tet order."""
    slots = np.array([[1, 2, 3], [0, 3, 2], [0, 1, 3], [0, 2, 1]])
    keys = []
    for slot in slots:
        a, b, c = tets[:, slot].T
        lo = np.minimum(np.minimum(a, b), c)
        hi = np.maximum(np.maximum(a, b), c)
        mid = a + b + c - lo - hi
        ids, found = find(edge_keys, lo * n_vertices + mid)
        keys.append(np.where(found, ids * n_vertices + hi, -1))
    keys = np.concatenate(keys)
    k = np.sort(keys)
    shared = k[1:] == k[:-1]
    _, once = find(k[~(np.r_[shared, False] | np.r_[False, shared])], keys)
    which = np.flatnonzero(once)
    return tets[(which % len(tets))[:, None], slots[which // len(tets)]], keys[once]


def validate_solid(vertices, tets, boundary_faces) -> None:
    v = vertices
    t = tets
    d = np.einsum(
        "ij,ij->i",
        v[t[:, 1]] - v[t[:, 0]],
        np.cross(v[t[:, 2]] - v[t[:, 0]], v[t[:, 3]] - v[t[:, 0]]),
    )
    bad = np.flatnonzero(d <= 0)
    if bad.size:
        raise MeshError(
            "inconsistent_orientation",
            f"{bad.size} tets non-positively oriented (first: {bad[:5].tolist()})",
        )
    extracted = extract_boundary(t)
    if sorted(map(tuple, np.sort(extracted, axis=1))) != sorted(
        map(tuple, np.sort(boundary_faces, axis=1))
    ):
        raise MeshError("bad_boundary", "stored boundary faces do not match tet boundary")
    validate_surface(boundary_faces)


# ---------------------------------------------------------------------------
# generators


def subdivide(verts, faces):
    verts = list(map(np.asarray, verts))
    midpoint = {}

    def mid(i, j):
        key = (min(i, j), max(i, j))
        if key not in midpoint:
            midpoint[key] = len(verts)
            verts.append((verts[i] + verts[j]) / 2.0)
        return midpoint[key]

    new_faces = []
    for a, b, c in faces:
        ab, bc, ca = mid(a, b), mid(b, c), mid(c, a)
        new_faces.extend([[a, ab, ca], [ab, b, bc], [ca, bc, c], [ab, bc, ca]])
    return np.asarray(verts), np.asarray(new_faces, dtype=np.int64)


def icosphere(subdivisions, radius=1.0):
    from hodgebench.meshes import _icosahedron

    verts, faces = _icosahedron()
    for _ in range(subdivisions):
        verts, faces = subdivide(verts, faces)
    verts = verts * (radius / np.linalg.norm(verts, axis=1))[:, None]
    return verts, faces


def split_prism(bottom, top):
    v = list(bottom) + list(top)
    if min(v[3:]) < min(v[:3]):
        v = [v[3], v[5], v[4], v[0], v[2], v[1]]
    r = int(np.argmin(v[:3]))
    v = [v[r], v[(r + 1) % 3], v[(r + 2) % 3], v[3 + r], v[3 + (r + 1) % 3], v[3 + (r + 2) % 3]]
    if min(v[1], v[5]) < min(v[2], v[4]):
        return [(v[0], v[1], v[2], v[5]), (v[0], v[1], v[5], v[4]), (v[0], v[4], v[5], v[3])]
    return [(v[0], v[1], v[2], v[4]), (v[0], v[4], v[2], v[5]), (v[0], v[4], v[5], v[3])]


def ball(subdivisions, layers=None):
    """(vertices, tets, boundary_faces) of the layered unit ball."""
    sphere_v, sphere_f = icosphere(subdivisions, 1.0)
    nv = sphere_v.shape[0]
    if layers is None:
        layers = max(1, 2**subdivisions)
    radii = np.arange(1, layers + 1) / layers
    verts = np.vstack([np.zeros((1, 3))] + [sphere_v * r for r in radii])

    def layer_idx(k):
        return 1 + (k - 1) * nv

    tets = []
    base = layer_idx(1)
    for a, b, c in sphere_f:
        tets.append((0, base + a, base + b, base + c))
    for k in range(1, layers):
        lo, hi = layer_idx(k), layer_idx(k + 1)
        for a, b, c in sphere_f:
            tets.extend(split_prism((lo + a, lo + b, lo + c), (hi + a, hi + b, hi + c)))
    tets = np.asarray(tets, dtype=np.int64)
    d = np.einsum(
        "ij,ij->i",
        verts[tets[:, 1]] - verts[tets[:, 0]],
        np.cross(verts[tets[:, 2]] - verts[tets[:, 0]], verts[tets[:, 3]] - verts[tets[:, 0]]),
    )
    flip = d < 0
    tets[flip] = tets[flip][:, [0, 2, 1, 3]]
    return verts, tets, sphere_f + layer_idx(layers)


def stacked_ball_tets(subdivisions, layers=None):
    """The tets of ``generate_ball``: the cone, then every shell's split prisms
    built as one stack and copied behind it."""
    from hodgebench.meshes import _PRISM_TETS, _icosphere

    if layers is None:
        layers = max(1, 2**subdivisions)
    sphere, cells = _icosphere(subdivisions)
    nv = len(sphere)
    cone = np.column_stack([np.zeros(len(cells), dtype=np.int64), 1 + cells])
    rows = np.arange(len(cells))[:, None]
    rot = cells[rows, (np.argmin(cells, axis=1)[:, None] + np.arange(3)) % 3]
    local = _PRISM_TETS[np.where(rot[:, 1] < rot[:, 2], 0, 1)]
    prism = rot[rows[:, :, None], local % 3] + nv * (local >= 3)
    bottoms = 1 + nv * np.arange(layers - 1)
    return np.vstack([cone, (prism + bottoms[:, None, None, None]).reshape(-1, 4)])


def torus(nu=24, nv=12, big_radius=2.0, small_radius=0.7):
    us = 2 * np.pi * np.arange(nu) / nu
    vs = 2 * np.pi * np.arange(nv) / nv
    verts = np.empty((nu * nv, 3))
    for i, u in enumerate(us):
        for j, v in enumerate(vs):
            r = big_radius + small_radius * np.cos(v)
            verts[i * nv + j] = (r * np.cos(u), r * np.sin(u), small_radius * np.sin(v))
    faces = []
    for i in range(nu):
        for j in range(nv):
            a = i * nv + j
            b = ((i + 1) % nu) * nv + j
            c = ((i + 1) % nu) * nv + (j + 1) % nv
            d = i * nv + (j + 1) % nv
            faces.append([a, b, c])
            faces.append([a, c, d])
    return verts, np.asarray(faces, dtype=np.int64)


# ---------------------------------------------------------------------------
# quadric fits


def vertex_rings(faces, n_vertices, depth=2, min_size=8):
    neighbors = [set() for _ in range(n_vertices)]
    for a, b, c in faces:
        neighbors[a].update((b, c))
        neighbors[b].update((a, c))
        neighbors[c].update((a, b))
    rings = []
    for v in range(n_vertices):
        ring = set(neighbors[v])
        level = 1
        while level < depth or (len(ring) < min_size and level < depth + 3):
            ring |= {w for u in list(ring) for w in neighbors[u]}
            level += 1
        ring.discard(v)
        rings.append(sorted(ring))
    return rings


def quadric_shapes(vertices, normals, rings):
    """(frames, shape, shape_world, principal) by per-vertex ``lstsq``."""
    v = vertices
    nv = v.shape[0]
    frames = np.empty((nv, 3, 2))
    shapes = np.empty((nv, 2, 2))
    shape_world = np.empty((nv, 3, 3))
    principal = np.empty((nv, 2))
    for i in range(nv):
        ring = rings[i]
        if len(ring) < 5:
            raise MeshError("degenerate_ring", f"vertex {i} has too few neighbours")
        frame = tangent_frame(normals[i])
        rel = v[ring] - v[i]
        uv = rel @ frame
        h = rel @ normals[i]
        cols = np.column_stack(
            [uv[:, 0] ** 2, uv[:, 0] * uv[:, 1], uv[:, 1] ** 2, uv, np.ones(len(ring))]
        )
        sol, _, rank, _ = np.linalg.lstsq(cols, h, rcond=None)
        if rank < 6:
            raise MeshError("degenerate_ring", f"rank-deficient fit at vertex {i}")
        a, b, c, d, e, _ = sol
        hess = np.array([[2 * a, b], [b, 2 * c]])
        grad = np.array([d, e])
        first = np.eye(2) + np.outer(grad, grad)
        second = hess / np.sqrt(1.0 + grad @ grad)
        evals, evecs = np.linalg.eigh(first)
        inv_sqrt = evecs @ np.diag(evals**-0.5) @ evecs.T
        s = inv_sqrt @ second @ inv_sqrt
        s = (s + s.T) / 2.0
        frames[i] = frame
        shapes[i] = s
        shape_world[i] = frame @ s @ frame.T
        principal[i] = np.linalg.eigvalsh(s)
    return frames, shapes, shape_world, principal


# ---------------------------------------------------------------------------
# tet volumes and quadrature


def tet_determinants(vertices, tets) -> np.ndarray:
    """Six times each tet's signed volume, the expression the generator, the
    validator, ``volume()`` and the tet quadrature each evaluated on their own."""
    v = vertices
    t = tets
    return np.einsum(
        "ij,ij->i",
        v[t[:, 1]] - v[t[:, 0]],
        np.cross(v[t[:, 2]] - v[t[:, 0]], v[t[:, 3]] - v[t[:, 0]]),
    )


def tet_quadrature(vertices, tets, bary):
    """Points and weights of a tet rule with barycentric rows ``bary``, as one
    per-tet contraction."""
    v = vertices[tets]
    vols = np.einsum("ij,ij->i", v[:, 1] - v[:, 0], np.cross(v[:, 2] - v[:, 0], v[:, 3] - v[:, 0])) / 6.0
    pts = np.einsum("qk,tkc->tqc", bary, v).reshape(-1, 3)
    return pts, np.repeat(vols / bary.shape[0], bary.shape[0])


def tri_quadrature(vertices, faces, order):
    """(points, weights, face ids, barycentric rows) of the triangle rule of
    ``order``, one row per node, the points as one per-face contraction."""
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


def interpolated_shape(normals, shape_world, faces, face_ids, bary_all):
    """Vertex normals (unnormalised) and shape operators interpolated at the
    nodes of :func:`tri_quadrature`, gathered through its per-node rows."""
    nodes = faces[face_ids]  # (M, 3) vertex ids
    n = np.einsum("mq,mqi->mi", bary_all, normals[nodes])
    return n, np.einsum("mq,mqij->mij", bary_all, shape_world[nodes])


def edge_midpoints(vertices, normals, edges):
    """Edge midpoints and the normalised sums of the end normals."""
    mids = (vertices[edges[:, 0]] + vertices[edges[:, 1]]) / 2.0
    n_mid = normals[edges[:, 0]] + normals[edges[:, 1]]
    n_mid /= np.linalg.norm(n_mid, axis=1)[:, None]
    return mids, n_mid


# ---------------------------------------------------------------------------
# mesh-file reader

_COUNTED = {
    "off": ("OFF", (("vertex", 3, float), ("face", 4, np.int64))),
    "tet": ("tetmesh", (("vertex", 3, float), ("tet", 4, np.int64), ("boundary", 3, np.int64))),
}


def load_mesh(path) -> MeshComplex:
    path = Path(path)
    fmt = path.suffix.lstrip(".").lower()
    text = path.read_text()
    if fmt == "obj":
        return _parse_obj(_content_lines(text))
    if fmt in _COUNTED:
        return _parse_counted(fmt, _content_lines(text))
    raise MeshError("bad_format", f"unknown mesh format {fmt!r}")


def _content_lines(text):
    out = []
    for i, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if line:
            out.append((i, line))
    return out


def _read_rows(rows, width, dtype, what) -> np.ndarray:
    try:
        flat = [token for _, text in rows for token in text.split()[:width]]
        return np.array(flat, dtype=dtype).reshape(len(rows), width)
    except (ValueError, OverflowError):
        for k, (line, text) in enumerate(rows):
            try:
                np.array(text.split()[:width], dtype=dtype).reshape(width)
            except (ValueError, OverflowError):
                raise MeshError("parse", f"bad {what} line {k}", line) from None
        raise


def _parse_counted(fmt, lines) -> MeshComplex:
    header, blocks = _COUNTED[fmt]
    if not lines:
        raise MeshError("parse", f"empty {fmt} file", 1)
    line, text = lines[0]
    if header not in (text, text.upper()):
        raise MeshError("parse", f"expected {header!r} header, got {text!r}", line)
    if len(lines) < 2:
        raise MeshError("parse", "no count line", line)
    line = lines[1][0]
    counts = _read_rows([lines[1]], 3, np.int64, "count")[0, : len(blocks)].tolist()
    if min(counts) < 0 or sum(counts) > len(lines) - 2:
        raise MeshError(
            "parse",
            f"counts {counts} are negative or exceed the {len(lines) - 2} lines that follow",
            line,
        )
    arrays, at = [], 2
    for (what, width, dtype), count in zip(blocks, counts):
        arrays.append(_read_rows(lines[at : at + count], width, dtype, what))
        at += count
    if fmt == "tet":
        verts, tets, bnd = arrays
        return MeshComplex(verts, tets, boundary_faces=bnd, metadata={"source": "tet"})
    verts, faces = arrays
    bad = np.flatnonzero(faces[:, 0] != 3)
    if bad.size:
        raise MeshError("bad_format", "only triangular faces supported", lines[2 + counts[0] + bad[0]][0])
    return MeshComplex(verts, faces[:, 1:].copy(), metadata={"source": "off"})


def _parse_obj(lines) -> MeshComplex:
    verts, faces, read = [], [], []
    for line, text in lines:
        tokens = text.split()
        if tokens[0] == "v":
            verts.append((line, text[1:]))
        elif tokens[0] == "f":
            if len(tokens) != 4:
                raise MeshError("bad_format", "only triangular faces supported", line)
            faces.append((line, " ".join(ref.split("/")[0] for ref in tokens[1:])))
            read.append(len(verts))
    vertices = _read_rows(verts, 3, float, "vertex")
    idx = _read_rows(faces, 3, np.int64, "face")
    zero = np.flatnonzero((idx == 0).any(axis=1))
    if zero.size:
        raise MeshError("parse", "face index 0 (OBJ indices start at 1)", faces[zero[0]][0])
    if not verts or not faces:
        raise MeshError("parse", "no geometry found in OBJ", 1)
    cells = np.where(idx > 0, idx - 1, np.array(read)[:, None] + idx)
    return MeshComplex(vertices, cells, metadata={"source": "obj"})


def save_off(mesh, path) -> None:
    with open(path, "w") as fh:
        fh.write("OFF\n")
        fh.write(f"{mesh.n_vertices} {mesh.n_cells} 0\n")
        for v in mesh.vertices:
            fh.write(f"{v[0]:.17g} {v[1]:.17g} {v[2]:.17g}\n")
        for f in mesh.cells:
            fh.write(f"3 {f[0]} {f[1]} {f[2]}\n")


def save_tet(mesh, path) -> None:
    with open(path, "w") as fh:
        fh.write("tetmesh\n")
        fh.write(f"{mesh.n_vertices} {mesh.n_cells} {mesh.boundary_faces.shape[0]}\n")
        for v in mesh.vertices:
            fh.write(f"{v[0]:.17g} {v[1]:.17g} {v[2]:.17g}\n")
        for t in mesh.cells:
            fh.write(f"{t[0]} {t[1]} {t[2]} {t[3]}\n")
        for f in mesh.boundary_faces:
            fh.write(f"{f[0]} {f[1]} {f[2]}\n")
