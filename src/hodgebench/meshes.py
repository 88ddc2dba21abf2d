"""Simplicial geometry substrate: triangle surfaces and tetrahedral solids.

Orientation conventions
-----------------------
Surface triangles are stored counter-clockwise as seen from OUTSIDE the
enclosed region, so the right-hand-rule face normal points outward.  All
curvature computations use the INNER normal (minus the outward one), which
makes the principal curvatures of a sphere positive.

Solid meshes store positively oriented tetrahedra; their boundary triangles
follow the same outward counter-clockwise convention.

Tetrahedral ASCII format (``.tet``)::

    tetmesh
    <n_vertices> <n_tets> <n_boundary_faces>
    x y z                  (one line per vertex)
    a b c d                (one line per tet, 0-based indices)
    i j k                  (one line per boundary face, outward CCW)

Lines starting with ``#`` are comments.

Integer keys
------------
Topology tables are built by array code on int64 keys, with no loop or
``dict`` per simplex.  With V vertices, the undirected edge {i, j}, i < j,
has key ``i*V + j`` (below V**2 <= 2**62 for any V < 2**31).
``MeshComplex.edges`` decodes the sorted distinct keys, so edges come out
sorted lexicographically by (i, j): the order of the rows of ``d0``, the
columns of ``d1`` and every edge cochain.  ``MeshComplex.edge_ids`` maps
vertex pairs to edge ids by a search of the sorted keys, and refuses a pair
that is not an edge.  A triangle with sorted vertices a < b < c has key
``edge_id(a, b)*V + c``, below E*V for E edges.  Validation counts these
keys, and icosphere subdivision numbers each edge midpoint by the edge's
first use in face order.

Validation
----------
``load_mesh`` runs the full ``validate()`` on every file.  Generated meshes
are valid by construction (``tests/test_generators.py`` proves it over the
parameter ranges), so generators check only what their parameters can break.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from numbers import Integral
from pathlib import Path

import numpy as np
from scipy import sparse

__all__ = [
    "MeshComplex",
    "MeshError",
    "DiscreteShape",
    "generate_icosphere",
    "generate_ellipsoid",
    "generate_ball",
    "generate_torus",
    "load_mesh",
    "discrete_shape",
    "SphereSurface",
    "boundary_surface",
    "ellipsoid_shape_world",
    "ellipsoid_principal_curvatures",
]


class MeshError(Exception):
    """Mesh validation or parse failure with a machine-readable code."""

    def __init__(self, code: str, message: str, line: int | None = None):
        self.code = code
        self.line = line
        where = f" (line {line})" if line is not None else ""
        super().__init__(f"[{code}]{where} {message}")


_TRIANGLE_EDGES = ((0, 1), (1, 2), (2, 0))
_TET_EDGES = ((0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3))
# outward faces of tet (v0,v1,v2,v3): opposite each vertex, CCW outside
_TET_FACES = np.array([[1, 2, 3], [0, 3, 2], [0, 1, 3], [0, 2, 1]])


def _pair_keys(u, w, n):
    """int64 key ``min*n + max`` of each undirected vertex pair {u, w}."""
    return np.minimum(u, w) * n + np.maximum(u, w)


# Tets per block of the determinants.  Each (block, 3) work array takes
# 0.4 MB, so the transient is bounded by the block, not by the mesh.  The
# work arrays are allocated once and the corners are gathered into them in
# place: arrays allocated afresh in every block were handed back to the OS and
# faulted in again on every block.  Measured on ball(4) (235,520 tets) against
# 65,536: the determinants take 11 ms, not 18, generate_ball(4) peaks 7 MiB
# lower, and the ledgers that follow run no slower.
DET_BLOCK = 16384


def _tet_determinants(vertices, tets) -> np.ndarray:
    """Six times the signed volume of each tet: (v1 - v0) . ((v2 - v0) x (v3 - v0)),
    DET_BLOCK tets at a time.  The cross product takes the steps of ``np.cross``,
    c_i = a_j*b_k - a_k*b_j for cyclic (i, j, k), so its values are bit-identical."""
    out = np.empty(len(tets))
    size = min(len(tets), DET_BLOCK)
    corners = np.empty((4, size, 3))  # v0..v3, then v0 and the edges from it
    cross, prod = np.empty((size, 3)), np.empty(size)
    for start in range(0, len(tets), DET_BLOCK):
        t = tets[start : start + DET_BLOCK]
        p, c, s = corners[:, : len(t)], cross[: len(t)], prod[: len(t)]
        for corner in range(4):
            np.take(vertices, t[:, corner], axis=0, out=p[corner])
        p[1:] -= p[0]
        a, b = p[2], p[3]
        for i, j, k in ((0, 1, 2), (1, 2, 0), (2, 0, 1)):
            np.multiply(a[:, j], b[:, k], out=c[:, i])
            np.multiply(a[:, k], b[:, j], out=s)
            c[:, i] -= s
        np.einsum("ij,ij->i", p[1], c, out=out[start : start + len(t)])
    return out


def _find(sorted_keys, keys):
    """Position of each key in a sorted key array, and whether it is there.

    The keys are searched in ascending order and their positions scattered
    back: numpy's binary search then starts each search from the last one's
    bounds, where an unsorted query misses the cache on every probe.
    """
    order = np.argsort(keys)
    pos = np.empty(keys.shape, dtype=np.intp)
    pos[order] = np.searchsorted(sorted_keys, keys[order])
    del order
    return pos, np.r_[sorted_keys, -1][pos] == keys


def _require_kind(mesh, kind, what) -> None:
    """Refuse ``mesh`` unless it is a ``kind`` ('surface' or 'solid') mesh."""
    if mesh.kind != kind:
        raise MeshError("bad_kind", f"{what} requires a {kind} mesh")


def _check_count(value, name, least) -> None:
    """Refuse a generator count that is not an int (a bool is not) or is below ``least``."""
    if isinstance(value, bool) or not isinstance(value, Integral) or value < least:
        raise ValueError(f"{name} must be >= {least} and an integer, got {value!r}")


def _components(n, rows, cols):
    """(count, labels) of the connected components of the undirected graph
    on n nodes with the edges {rows[k], cols[k]}."""
    from scipy.sparse.csgraph import connected_components

    graph = sparse.csr_matrix((np.ones(rows.size), (rows, cols)), shape=(n, n))
    return connected_components(graph, directed=False)


class MeshComplex:
    """A closed triangulated surface or a tetrahedral solid with boundary.

    Parameters
    ----------
    vertices : (V, 3) float array
    cells : (F, 3) int array of triangles, or (T, 4) int array of tets
    boundary_faces : (B, 3) int array, optional
        Outward-CCW boundary triangles of a solid; extracted from the tets
        when omitted.
    metadata : dict, optional
        Generator provenance (kind, radius, ...), echoed into reports.
    validate : bool
        Run the manifoldness/orientation validators on construction; a
        surface must be closed, every edge bordering exactly two triangles.
        A mesh without cells is refused either way.
    """

    def __init__(
        self,
        vertices,
        cells,
        boundary_faces=None,
        metadata=None,
        validate=True,
    ):
        self.vertices = np.asarray(vertices, dtype=float).reshape(-1, 3)
        self.cells = np.asarray(cells, dtype=np.int64)
        if self.cells.ndim != 2 or self.cells.shape[1] not in (3, 4):
            raise MeshError("bad_format", "cells must be (F,3) triangles or (T,4) tets")
        if not self.cells.size:
            raise MeshError("bad_format", "mesh has no cells")
        self.kind = "surface" if self.cells.shape[1] == 3 else "solid"
        self.metadata = dict(metadata or {})
        self._edges = None
        self._edge_keys = None
        self._n_edges = None
        self._betti = None
        self._tet_dets = None
        self._boundary = None
        self._shape = None
        if self.kind == "solid":
            if boundary_faces is None:
                boundary_faces, _ = self._extract_boundary(self._sorted_edge_keys())
            self.boundary_faces = np.asarray(boundary_faces, dtype=np.int64)
        else:
            self.boundary_faces = None
        if validate:
            self.validate()

    # ------------------------------------------------------------------
    # derived tables

    @property
    def n_vertices(self):
        return self.vertices.shape[0]

    @property
    def n_cells(self):
        return self.cells.shape[0]

    @property
    def edges(self) -> np.ndarray:
        """Undirected edges as (i, j) pairs, i < j, sorted lexicographically."""
        if self._edges is None:
            self._edge_keys = self._sorted_edge_keys()
            self._edges = np.column_stack(np.divmod(self._edge_keys, self.n_vertices))
        return self._edges

    @property
    def tet_determinants(self) -> np.ndarray:
        """Six times the signed volume of each tet (solids only), computed once."""
        if self._tet_dets is None:
            _require_kind(self, "solid", "tet_determinants")
            self._tet_dets = _tet_determinants(self.vertices, self.cells)
            self._tet_dets.flags.writeable = False
        return self._tet_dets

    def _sorted_edge_keys(self) -> np.ndarray:
        c = self.cells
        pairs = _TRIANGLE_EDGES if self.kind == "surface" else _TET_EDGES
        keys = np.concatenate([_pair_keys(c[:, i], c[:, j], self.n_vertices) for i, j in pairs])
        keys.sort()
        return keys[np.r_[True, keys[1:] != keys[:-1]]]

    def edge_ids(self, u, w) -> np.ndarray:
        """Ids of the edges {u[k], w[k]}; a pair that is not an edge of the
        mesh raises MeshError."""
        self.edges  # builds the sorted keys
        keys = _pair_keys(u, w, self.n_vertices)
        ids, found = _find(self._edge_keys, keys.reshape(-1))
        if not found.all():
            pair = divmod(int(keys.flat[np.argmin(found)]), self.n_vertices)
            raise MeshError("not_an_edge", f"vertices {pair} are not joined by an edge")
        return ids.reshape(keys.shape)

    @property
    def n_edges(self) -> int:
        if self._n_edges is None:  # a validated or generated solid counted them without the table
            self._n_edges = self.edges.shape[0]
        return self._n_edges

    def euler_characteristic(self) -> int:
        _require_kind(self, "surface", "the Euler characteristic")
        return self.n_vertices - self.n_edges + self.n_cells

    def betti_numbers(self) -> tuple:
        """(b0, b1, b2) of a closed orientable surface: b2 = b0, and b1
        follows from the Euler characteristic b0 - b1 + b2; computed once."""
        if self._betti is None:
            b0, _ = _components(self.n_vertices, *self.edges.T)
            self._betti = int(b0), int(2 * b0 - self.euler_characteristic()), int(b0)
        return self._betti

    # ------------------------------------------------------------------
    # measures

    def face_normals_areas(self, faces=None):
        f = self.cells if faces is None else faces
        v = self.vertices
        cross = np.cross(v[f[:, 1]] - v[f[:, 0]], v[f[:, 2]] - v[f[:, 0]])
        norms = np.linalg.norm(cross, axis=1)
        return cross / norms[:, None], norms / 2.0

    def area(self) -> float:
        faces = self.cells if self.kind == "surface" else self.boundary_faces
        _, areas = self.face_normals_areas(faces)
        return float(areas.sum())

    def volume(self) -> float:
        """Signed volume: of the solid, or enclosed by a closed surface."""
        if self.kind == "solid":
            return float(self.tet_determinants.sum() / 6.0)
        v = self.vertices
        f = self.cells
        d = np.einsum("ij,ij->i", v[f[:, 0]], np.cross(v[f[:, 1]], v[f[:, 2]]))
        return float(d.sum() / 6.0)

    # ------------------------------------------------------------------
    # validation

    def validate(self) -> None:
        self._check_finite_vertices()
        if self.cells.min() < 0 or self.cells.max() >= self.n_vertices:
            raise MeshError("bad_index", "cell index out of range")
        referenced = np.zeros(self.n_vertices, dtype=bool)
        referenced[self.cells.reshape(-1)] = True
        if self.kind == "solid" and self.boundary_faces is not None:
            bf = self.boundary_faces
            if ((bf < 0) | (bf >= self.n_vertices)).any():
                raise MeshError("bad_index", "boundary face index out of range")
            referenced[bf.reshape(-1)] = True
        if not referenced.all():
            missing = np.flatnonzero(~referenced)
            raise MeshError(
                "unreferenced_vertices",
                f"{missing.size} vertices unused (first: {missing[:5].tolist()})",
            )
        if self.kind == "surface":
            self._validate_surface(self.cells)
        else:
            self._validate_solid()

    def _validate_surface(self, faces) -> None:
        # half-edge k runs u[k] -> w[k] in face k // 3; a stable sort groups
        # the uses of each edge in face order, as a walk over the faces meets them
        u = faces.reshape(-1)
        w = faces[:, [1, 2, 0]].reshape(-1)
        keys = _pair_keys(u, w, self.n_vertices)
        order = np.argsort(keys, kind="stable")
        sorted_keys = keys[order]
        start = np.flatnonzero(np.r_[True, sorted_keys[1:] != sorted_keys[:-1]])
        count = np.diff(np.r_[start, keys.size])
        first = order[start]
        second = order[np.minimum(start + 1, keys.size - 1)]
        bad = (count != 2) | (u[first] == u[second])
        if bad.any():
            # report the offending edge whose first use comes earliest
            g = np.flatnonzero(bad)[np.argmin(first[bad])]
            h1, h2 = int(first[g]), int(second[g])
            key = (int(min(u[h1], w[h1])), int(max(u[h1], w[h1])))
            if count[g] > 2:
                raise MeshError("non_manifold_edge", f"edge {key} borders {count[g]} faces")
            if count[g] == 1:
                raise MeshError("not_closed", f"edge {key} borders a single face")
            raise MeshError(
                "inconsistent_orientation",
                f"faces {h1 // 3} and {h2 // 3} traverse edge {key} the same way",
            )
        self._validate_vertex_fans(faces, first, second)
        self._check_face_areas(faces)

    # The geometric checks, shared by ``validate`` and the generators: they
    # are all that a generator's parameters can break.

    def _check_finite_vertices(self) -> None:
        bad = np.flatnonzero(~np.isfinite(self.vertices).all(axis=1))
        if bad.size:
            raise MeshError(
                "non_finite_vertices",
                f"{bad.size} vertices have NaN or infinite coordinates (first: {bad[:5].tolist()})",
            )

    def _check_tet_orientation(self) -> None:
        bad = np.flatnonzero(self.tet_determinants <= 0)
        if bad.size:
            raise MeshError(
                "inconsistent_orientation",
                f"{bad.size} tets non-positively oriented (first: {bad[:5].tolist()})",
            )

    def _check_face_areas(self, faces) -> None:
        # an area overflows (ellipsoid:1,1,1e300), is NaN where the cross
        # product overflows (inf - inf on ellipsoid:1e200,1e200,1e200), and
        # underflows to 0 once the cross product's components fall below
        # about 1e-154; the normals then divide by it
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            _, areas = self.face_normals_areas(faces)
        flat = np.flatnonzero(~((areas > 0) & (areas < np.inf)))
        if flat.size:
            raise MeshError(
                "degenerate_face",
                f"{flat.size} faces have zero or infinite area (first: {flat[:5].tolist()})",
            )

    def _validate_vertex_fans(self, faces, h1, h2) -> None:
        """The faces at each vertex must form one fan; two fans that share
        only the vertex pinch the surface.

        Corner k is the use of vertex ``faces.flat[k]`` in face k // 3, where
        half-edge k starts.  The half-edges h1 (a -> b) and h2 (b -> a) of an
        edge join the corners of a in its two faces, and those of b.
        Every component of the corner graph then belongs to one vertex, and a
        vertex must own exactly one.
        """
        end1 = h1 - h1 % 3 + (h1 + 1) % 3  # the corner where half-edge h1 ends
        end2 = h2 - h2 % 3 + (h2 + 1) % 3
        n_fans, labels = _components(faces.size, np.r_[h1, end1], np.r_[end2, h2])
        owner = np.empty(n_fans, dtype=np.int64)
        owner[labels] = faces.reshape(-1)
        fans = np.bincount(owner, minlength=self.n_vertices)
        pinched = np.flatnonzero(fans > 1)
        if pinched.size:
            v = int(pinched[0])
            raise MeshError(
                "non_manifold_vertex",
                f"the faces at vertex {v} form {fans[v]} fans that share only the vertex",
            )

    def _validate_solid(self) -> None:
        self._check_tet_orientation()
        # The key table is rebuilt, not cached: under glibc malloc, arrays
        # that outlive validation land among its temporaries and keep that
        # heap resident (about 14 MB more peak RSS for ball(4) ledgers).
        edge_keys = self._sorted_edge_keys()
        self._n_edges = edge_keys.size
        _, extracted = self._extract_boundary(edge_keys)
        stored = self._face_keys(self.boundary_faces, edge_keys)
        if not np.array_equal(np.sort(extracted), np.sort(stored)):
            raise MeshError(
                "bad_boundary", "stored boundary faces do not match tet boundary"
            )
        self._validate_surface(self.boundary_faces)

    def _face_keys(self, faces, edge_keys) -> np.ndarray:
        """Key of each triangle as a vertex set; -1 where its two smallest
        vertices are not an edge (``edge_keys``: sorted edge keys)."""
        a, b, c = faces.T
        lo = np.minimum(np.minimum(a, b), c)
        hi = np.maximum(np.maximum(a, b), c)
        ids, found = _find(edge_keys, _pair_keys(lo, a + b + c - lo - hi, self.n_vertices))
        return np.where(found, ids * self.n_vertices + hi, -1)

    def _extract_boundary(self, edge_keys):
        """Boundary triangles of the tets (outward CCW) and their keys."""
        t = self.cells
        keys = np.concatenate([self._face_keys(t[:, f], edge_keys) for f in _TET_FACES])
        # a boundary face's key occurs once.  The argsort groups equal keys;
        # it need not be stable, as the singletons go back to their slots
        order = np.argsort(keys)
        k = keys[order]
        shared = k[1:] == k[:-1]
        del k
        once = np.zeros(keys.size, dtype=bool)
        once[order[~(np.r_[shared, False] | np.r_[False, shared])]] = True
        del order, shared
        which = np.flatnonzero(once)  # face slot-major, then tet order
        faces = t[(which % len(t))[:, None], _TET_FACES[which // len(t)]]
        return faces, keys[once]

    def boundary_mesh(self):
        """Boundary as a standalone surface mesh plus the vertex index map,
        computed once; its vertex, face and map arrays are read-only."""
        _require_kind(self, "solid", "boundary_mesh")
        if self._boundary is None:
            used = np.unique(self.boundary_faces.reshape(-1))
            remap = -np.ones(self.n_vertices, dtype=np.int64)
            remap[used] = np.arange(used.size)
            # validation already checked these faces as a closed surface, and
            # ``used`` holds exactly the finite vertices they reference
            surf = MeshComplex(
                self.vertices[used],
                remap[self.boundary_faces],
                metadata={**self.metadata, "boundary_of": self.metadata.get("generator")},
                validate=False,
            )
            for array in (surf.vertices, surf.cells, used):
                array.flags.writeable = False
            self._boundary = surf, used
        return self._boundary

    # ------------------------------------------------------------------
    # reports

    def report(self) -> dict:
        stats = {
            "kind": self.kind,
            "n_vertices": self.n_vertices,
            "n_cells": self.n_cells,
            "n_edges": self.n_edges,
            "metadata": self.metadata,
        }
        if self.kind == "surface":
            stats["area"] = self.area()
            stats["euler_characteristic"] = self.euler_characteristic()
            b0, b1, _ = self.betti_numbers()  # one adjacency pass for both
            stats["components"] = b0
            stats["first_betti_number"] = b1
        else:
            stats["volume"] = self.volume()
            stats["boundary_faces"] = int(self.boundary_faces.shape[0])
            stats["boundary_area"] = self.area()
        return stats

    def save_off(self, path) -> None:
        _require_kind(self, "surface", "OFF export")
        with open(path, "w") as fh:
            fh.write(f"OFF\n{self.n_vertices} {self.n_cells} 0\n")
            np.savetxt(fh, self.vertices, fmt="%.17g")
            np.savetxt(fh, self.cells, fmt="3 %d %d %d")


# ---------------------------------------------------------------------------
# generators


def _icosahedron():
    phi = (1.0 + np.sqrt(5.0)) / 2.0
    verts = np.array(
        [
            [-1, phi, 0], [1, phi, 0], [-1, -phi, 0], [1, -phi, 0],
            [0, -1, phi], [0, 1, phi], [0, -1, -phi], [0, 1, -phi],
            [phi, 0, -1], [phi, 0, 1], [-phi, 0, -1], [-phi, 0, 1],
        ],
        dtype=float,
    )
    verts /= np.linalg.norm(verts[0])
    faces = np.array(
        [
            [0, 11, 5], [0, 5, 1], [0, 1, 7], [0, 7, 10], [0, 10, 11],
            [1, 5, 9], [5, 11, 4], [11, 10, 2], [10, 7, 6], [7, 1, 8],
            [3, 9, 4], [3, 4, 2], [3, 2, 6], [3, 6, 8], [3, 8, 9],
            [4, 9, 5], [2, 4, 11], [6, 2, 10], [8, 6, 7], [9, 8, 1],
        ],
        dtype=np.int64,
    )
    return verts, faces


def _subdivide(verts, faces):
    """Split every triangle in four; each edge midpoint is numbered by the
    edge's first use in face order."""
    nv = verts.shape[0]
    keys = _pair_keys(faces, faces[:, [1, 2, 0]], nv).reshape(-1)  # ab, bc, ca
    uniq, first, inverse = np.unique(keys, return_index=True, return_inverse=True)
    by_use = np.argsort(first)
    rank = np.empty_like(by_use)
    rank[by_use] = np.arange(by_use.size)
    lo, hi = np.divmod(uniq[by_use], nv)
    ab, bc, ca = (nv + rank[inverse]).reshape(-1, 3).T
    a, b, c = faces.T
    new_faces = np.stack([a, ab, ca, ab, b, bc, ca, bc, c, ab, bc, ca], axis=1)
    return np.vstack([verts, (verts[lo] + verts[hi]) / 2.0]), new_faces.reshape(-1, 3)


def _icosphere(subdivisions: int, radius: float = 1.0):
    """Vertices and faces of the subdivided icosahedron projected to radius."""
    _check_count(subdivisions, "subdivisions", 0)
    verts, faces = _icosahedron()
    for _ in range(subdivisions):
        verts, faces = _subdivide(verts, faces)
    with np.errstate(invalid="ignore"):  # an infinite radius gives NaN vertices (0 * inf)
        return verts * (radius / np.linalg.norm(verts, axis=1))[:, None], faces


def _generated_surface(verts, faces, metadata) -> MeshComplex:
    """A generator's closed surface.  Its topology is valid by construction,
    so only the geometry its parameters can break is checked."""
    mesh = MeshComplex(verts, faces, metadata=metadata, validate=False)
    mesh._check_finite_vertices()
    mesh._check_face_areas(mesh.cells)
    return mesh


def generate_icosphere(subdivisions: int, radius: float = 1.0) -> MeshComplex:
    """Closed genus-0 sphere mesh: subdivided icosahedron projected to radius.

    Vertex count is 10 * 4**subdivisions + 2.
    """
    if radius <= 0:
        raise ValueError("radius must be positive")
    return _generated_surface(
        *_icosphere(subdivisions, radius),
        metadata={"generator": "icosphere", "subdivisions": subdivisions, "radius": radius},
    )


def generate_ellipsoid(a: float, b: float, c: float, subdivisions: int = 3) -> MeshComplex:
    """Icosphere scaled by the semi-axes (a, b, c)."""
    if min(a, b, c) <= 0:
        raise ValueError("semi-axes must be positive")
    verts, faces = _icosphere(subdivisions)
    with np.errstate(invalid="ignore"):  # an infinite axis gives NaN vertices (0 * inf)
        verts = verts * np.array([a, b, c])
    return _generated_surface(
        verts,
        faces,
        metadata={
            "generator": "ellipsoid",
            "subdivisions": subdivisions,
            "semi_axes": [a, b, c],
        },
    )


# Tets of the prism (b0, b1, b2, t0, t1, t2), indexed 0..5, with b0 its
# smallest id and t_i above b_i, for either diagonal choice on the quads.
_PRISM_TETS = np.array(
    [
        [[0, 1, 2, 5], [0, 1, 5, 4], [0, 4, 5, 3]],  # min(b1, t2) < min(b2, t1)
        [[0, 1, 2, 4], [0, 4, 2, 5], [0, 4, 5, 3]],
    ]
)


def generate_ball(subdivisions: int, layers: int | None = None) -> MeshComplex:
    """Tetrahedralized unit ball whose boundary is icosphere(subdivisions).

    Scaled copies of the boundary sphere at radii k/L form radial layers;
    the innermost layer cones to the center and consecutive layers are
    joined by prisms split into tets.  The tets tile the polyhedral ball
    exactly, so the total volume equals the polyhedron volume.
    """
    sphere, cells = _icosphere(subdivisions)
    if layers is None:
        layers = max(1, 2**subdivisions)
    _check_count(layers, "layers", 1)
    nv = len(sphere)
    radii = np.arange(1, layers + 1) / layers
    verts = np.vstack([np.zeros((1, 3)), (sphere * radii[:, None, None]).reshape(-1, 3)])
    # layer k (1-based) holds sphere vertex a at global id 1 + (k - 1)*nv + a
    cone = np.column_stack([np.zeros(len(cells), dtype=np.int64), 1 + cells])
    # Split the prism over each face so that prisms sharing a quad agree on
    # its diagonal: rotate the face to start at its smallest vertex, then
    # pick the diagonal from global ids.  Top ids exceed bottom ids by nv,
    # so min(b1, t2) < min(b2, t1) reduces to b1 < b2 in every layer.
    rows = np.arange(len(cells))[:, None]
    rot = cells[rows, (np.argmin(cells, axis=1)[:, None] + np.arange(3)) % 3]
    local = _PRISM_TETS[np.where(rot[:, 1] < rot[:, 2], 0, 1)]  # (F, 3, 4) in 0..5
    prism = rot[rows[:, :, None], local % 3] + nv * (local >= 3)
    bottoms = 1 + nv * np.arange(layers - 1)
    # the cone, then shell by shell, written in place
    tets = np.empty((len(cells) * (3 * layers - 2), 4), dtype=np.int64)
    tets[: len(cells)] = cone
    np.add(prism, bottoms[:, None, None, None], out=tets[len(cells) :].reshape(layers - 1, *prism.shape))
    ball = MeshComplex(
        verts,
        tets,
        boundary_faces=cells + 1 + (layers - 1) * nv,
        metadata={
            "generator": "ball",
            "subdivisions": subdivisions,
            "radius": 1.0,
            "layers": layers,
        },
        validate=False,
    )
    # the cone and the split table orient every tet positively; this
    # computes the determinants the ledgers read, once
    ball._check_tet_orientation()
    # edges: V radial ones into each of the L spheres, E on each sphere,
    # and one quad diagonal per sphere edge in each of the L - 1 shells
    ball._n_edges = layers * nv + (2 * layers - 1) * (3 * len(cells) // 2)
    return ball


def generate_torus(nu: int = 24, nv: int = 12, big_radius: float = 2.0, small_radius: float = 0.7) -> MeshComplex:
    """Triangulated torus of revolution, genus 1, outward orientation."""
    _check_count(nu, "nu", 3)
    _check_count(nv, "nv", 3)
    # a spindle or horn torus (r >= R) is not an embedded surface
    if not 0 < small_radius < big_radius < np.inf:
        raise ValueError(f"torus radii must be finite with 0 < r < R, got R={big_radius}, r={small_radius}")
    us = 2 * np.pi * np.arange(nu) / nu
    vs = 2 * np.pi * np.arange(nv) / nv
    r = big_radius + small_radius * np.cos(vs)
    x, y, z = np.broadcast_arrays(
        r * np.cos(us)[:, None], r * np.sin(us)[:, None], small_radius * np.sin(vs)
    )
    verts = np.stack([x, y, z], axis=-1).reshape(-1, 3)  # vertex (i, j) at i*nv + j
    i, j = np.meshgrid(np.arange(nu), np.arange(nv), indexing="ij")
    i1, j1 = (i + 1) % nu, (j + 1) % nv
    a, b, c, d = i * nv + j, i1 * nv + j, i1 * nv + j1, i * nv + j1
    faces = np.stack([a, b, c, a, c, d], axis=-1).reshape(-1, 3)
    return _generated_surface(
        verts,
        faces,
        metadata={
            "generator": "torus",
            "nu": nu,
            "nv": nv,
            "big_radius": big_radius,
            "small_radius": small_radius,
        },
    )


# ---------------------------------------------------------------------------
# file IO


# Counted formats: a header line, a line of three counts, then one block of
# fixed-width rows per count.  Per format: the header and each block's
# (name, width, dtype); OFF's third count (edges) has no block.  An OFF face
# row is its corner count, which must be 3, then the vertex ids.
_COUNTED = {
    "off": ("OFF", (("vertex", 3, float), ("face", 4, np.int64))),
    "tet": ("tetmesh", (("vertex", 3, float), ("tet", 4, np.int64), ("boundary", 3, np.int64))),
}


def load_mesh(path) -> MeshComplex:
    """Load an OFF/OBJ triangle surface or an ASCII tet mesh.

    The format is the file extension ('.off', '.obj' or '.tet', any case).
    Raises MeshError with a line number on parse failures and with a
    distinct code on validation failures.
    """
    path = Path(path)
    fmt = path.suffix.lstrip(".").lower()
    text = path.read_text()
    if fmt == "obj":
        parts = _parse_obj(*_content_lines(text))
    elif fmt in _COUNTED:
        parts = _parse_counted(fmt, *_content_lines(text))
    else:
        raise MeshError("bad_format", f"unknown mesh format {fmt!r}")
    del text  # the text and its lines go before the arrays are validated
    return MeshComplex(*parts)


def _content_lines(text):
    """(numbers, texts) of the lines left once comments are stripped.

    ``numbers`` is a range when no line is dropped, so a large file's line
    numbers take no memory.
    """
    lines = text.splitlines()
    if "#" in text:
        lines = [line.split("#", 1)[0] for line in lines]
    lines = [line.strip() for line in lines]
    texts = list(filter(None, lines))
    if len(texts) == len(lines):
        return range(1, len(lines) + 1), texts
    return [i for i, line in enumerate(lines, start=1) if line], texts


def _read_rows(numbers, texts, width, dtype, what) -> np.ndarray:
    """The first ``width`` tokens of every text as one (rows, width) array.

    numpy's C reader converts the block.  It refuses some tokens that Python
    reads (``1_000``, Unicode digits), and it skips blank texts (an OBJ
    ``v`` with no coordinates), so it is trusted only when it returns one row
    per text.  Otherwise the rows are converted one by one as Python reads
    their tokens, and the first row that fails is named by its line number.
    """
    if not texts:
        return np.empty((0, width), dtype=dtype)
    try:
        with warnings.catch_warnings():
            # all texts blank: numpy warns of no data; the count below refuses it
            warnings.simplefilter("ignore", UserWarning)
            rows = np.loadtxt(texts, dtype, usecols=range(width), ndmin=2, comments=None)
        if len(rows) == len(texts):
            return rows
    except ValueError:
        pass
    rows = []
    for k, (line, text) in enumerate(zip(numbers, texts)):
        try:
            # the reshape fails unless the row has ``width`` tokens
            rows.append(np.array(text.split()[:width], dtype=dtype).reshape(width))
        except (ValueError, OverflowError):
            raise MeshError("parse", f"bad {what} line {k}", line) from None
    return np.stack(rows)


def _parse_counted(fmt, numbers, texts) -> tuple:
    """(vertices, cells, boundary faces or None, metadata) of a counted format."""
    header, blocks = _COUNTED[fmt]
    if not texts:
        raise MeshError("parse", f"empty {fmt} file", 1)
    # OFF's header (upper case) is matched in any case, tet's exactly
    if header not in (texts[0], texts[0].upper()):
        raise MeshError("parse", f"expected {header!r} header, got {texts[0]!r}", numbers[0])
    if len(texts) < 2:
        raise MeshError("parse", "no count line", numbers[0])
    counts = _read_rows(numbers[1:2], texts[1:2], 3, np.int64, "count")[0, : len(blocks)].tolist()
    # refuse counts the lines left cannot hold before anything is allocated
    if min(counts) < 0 or sum(counts) > len(texts) - 2:
        raise MeshError(
            "parse",
            f"counts {counts} are negative or exceed the {len(texts) - 2} lines that follow",
            numbers[1],
        )
    arrays, at = [], 2
    for (what, width, dtype), count in zip(blocks, counts):
        arrays.append(_read_rows(numbers[at : at + count], texts[at : at + count], width, dtype, what))
        at += count
    if fmt == "tet":
        verts, tets, bnd = arrays
        return verts, tets, bnd, {"source": "tet"}
    verts, faces = arrays
    bad = np.flatnonzero(faces[:, 0] != 3)
    if bad.size:
        raise MeshError("bad_format", "only triangular faces supported", numbers[2 + counts[0] + bad[0]])
    return verts, faces[:, 1:].copy(), None, {"source": "off"}


def _parse_obj(numbers, texts) -> tuple:
    vert_lines, vert_texts, face_lines, face_texts = [], [], [], []
    read = []  # vertices read before each face
    for line, text in zip(numbers, texts):
        tokens = text.split()
        if tokens[0] == "v":
            vert_lines.append(line)
            vert_texts.append(text[1:])
        elif tokens[0] == "f":
            if len(tokens) != 4:
                raise MeshError("bad_format", "only triangular faces supported", line)
            # "f 1/uv/nrm 2 3" -> geometry index before the first slash
            face_lines.append(line)
            face_texts.append(" ".join(ref.split("/")[0] for ref in tokens[1:]))
            read.append(len(vert_lines))
        # all other directives (vt, vn, usemtl, ...) are ignored
    vertices = _read_rows(vert_lines, vert_texts, 3, float, "vertex")
    idx = _read_rows(face_lines, face_texts, 3, np.int64, "face")
    zero = np.flatnonzero((idx == 0).any(axis=1))
    if zero.size:
        raise MeshError("parse", "face index 0 (OBJ indices start at 1)", face_lines[zero[0]])
    if not vert_lines or not face_lines:
        raise MeshError("parse", "no geometry found in OBJ", 1)
    # a negative index counts back from the last vertex read before the face
    cells = np.where(idx > 0, idx - 1, np.array(read)[:, None] + idx)
    return vertices, cells, None, {"source": "obj"}


def save_tet(mesh: MeshComplex, path) -> None:
    _require_kind(mesh, "solid", "tet export")
    with open(path, "w") as fh:
        fh.write(f"tetmesh\n{mesh.n_vertices} {mesh.n_cells} {mesh.boundary_faces.shape[0]}\n")
        np.savetxt(fh, mesh.vertices, fmt="%.17g")
        np.savetxt(fh, mesh.cells, fmt="%d")
        np.savetxt(fh, mesh.boundary_faces, fmt="%d")


# ---------------------------------------------------------------------------
# discrete shape operator


@dataclass
class DiscreteShape:
    """Per-vertex shape data of a triangulated surface.

    ``normals`` are inner unit normals; ``shape`` holds symmetric 2x2 shape
    operators in the per-vertex tangent frames; ``shape_world`` the same
    operators as ambient 3x3 maps annihilating the normal.
    """

    normals: np.ndarray  # (V, 3)
    frames: np.ndarray  # (V, 3, 2)
    shape: np.ndarray  # (V, 2, 2)
    shape_world: np.ndarray  # (V, 3, 3)
    principal: np.ndarray  # (V, 2) ascending
    mean: np.ndarray  # (V,)
    areas: np.ndarray  # (V,) barycentric vertex areas


def _vertex_rings(mesh: MeshComplex, depth: int = 2, min_size: int = 8):
    """k-ring neighbourhoods as a CSR pattern: row v lists ring(v) minus v,
    sorted.  Rings grow one level per product with (I + adjacency); they
    grow deeper where the mesh is too sparse (patch corners) to determine a
    quadric fit, counting v itself once it is reached."""
    e, n = mesh.edges, mesh.n_vertices
    rows, cols = np.r_[e[:, 0], e[:, 1]], np.r_[e[:, 1], e[:, 0]]
    adj = sparse.csr_matrix((np.ones(rows.size), (rows, cols)), shape=(n, n))
    step = adj + sparse.identity(n, format="csr")
    ring = adj
    for level in range(1, depth + 3):
        size = np.diff(ring.indptr)
        grow = (level < depth) | (size < min_size)
        if not grow.any():
            break
        grown = sparse.diags(grow.astype(float)) @ ring @ step
        ring = grown + sparse.diags((~grow).astype(float)) @ ring
    ring = (ring - sparse.diags(ring.diagonal())).tocsr()
    ring.eliminate_zeros()
    ring.sort_indices()
    return ring


def _vertex_normals(mesh: MeshComplex) -> np.ndarray:
    """Angle-weighted average of outward face normals, flipped to inner."""
    v = mesh.vertices
    f = mesh.cells
    fn, _ = mesh.face_normals_areas()
    acc = np.zeros((mesh.n_vertices, 3))
    for corner in range(3):
        p0 = v[f[:, corner]]
        e1 = v[f[:, (corner + 1) % 3]] - p0
        e2 = v[f[:, (corner + 2) % 3]] - p0
        cosang = np.einsum("ij,ij->i", e1, e2) / (
            np.linalg.norm(e1, axis=1) * np.linalg.norm(e2, axis=1)
        )
        ang = np.arccos(np.clip(cosang, -1.0, 1.0))
        np.add.at(acc, f[:, corner], ang[:, None] * fn)
    norms = np.linalg.norm(acc, axis=1)
    if (norms < 1e-300).any():
        raise MeshError("degenerate_ring", "vanishing vertex normal")
    return -(acc / norms[:, None])


def discrete_shape(mesh: MeshComplex) -> DiscreteShape:
    """Per-vertex shape operator by osculating-quadric least squares.

    Heights over the tangent plane (along the inner normal) of the
    two-ring neighbours are fit with a full quadratic; the shape
    operator is the symmetric first-fundamental-form correction
    I^{-1/2} II I^{-1/2} of the fitted Hessian, so a unit sphere yields
    principal curvatures +1.  Fitted once per mesh; the arrays of the
    result are read-only.
    """
    _require_kind(mesh, "surface", "the discrete shape fit")
    if mesh._shape is None:
        shape = _fit_quadrics(mesh)
        for array in vars(shape).values():
            array.flags.writeable = False
        mesh._shape = shape
    return mesh._shape


def _fit_quadrics(mesh: MeshComplex) -> DiscreteShape:
    from .exterior import tangent_frame

    v = mesh.vertices
    nv = mesh.n_vertices
    normals = _vertex_normals(mesh)
    frames = tangent_frame(normals)
    rings = _vertex_rings(mesh)
    size = np.diff(rings.indptr)

    # Fit the full quadratic h(u,w) = a u^2 + b u w + c w^2 + d u + e w + g
    # with one batched QR solve per ring size.  Grouping rings by size, not
    # zero-padding them, keeps memory at the number of ring entries when a
    # few vertices have huge rings.  The rank test is lstsq's: singular
    # values of R above eps * max(ring size, 6) times the largest.  Rings
    # of fewer than 6 vertices cannot reach rank 6.  Each ring is fit in
    # units of the power of two at its extent, so the fit is scale-free: a
    # mesh scaled by 2^j gives curvatures scaled by 2^-j, bit for bit.
    sol = np.zeros((nv, 6))
    rank = np.minimum(size, 6)
    for m in np.unique(size[size >= 6]):
        sel = np.flatnonzero(size == m)
        ring = rings.indices[rings.indptr[sel][:, None] + np.arange(m)]
        rel = v[ring] - v[sel][:, None, :]
        uv = rel @ frames[sel]
        h = np.einsum("kmi,ki->km", rel, normals[sel])
        exponent = np.frexp(np.abs(uv).max(axis=(1, 2)))[1]
        unit = np.ldexp(1.0, exponent)[:, None]
        u, w, h = uv[..., 0] / unit, uv[..., 1] / unit, h / unit
        cols = np.stack([u**2, u * w, w**2, u, w, np.ones_like(u)], axis=-1)
        q, r = np.linalg.qr(cols)
        sv = np.linalg.svd(r, compute_uv=False)
        rank[sel] = (sv > np.finfo(float).eps * m * sv[:, :1]).sum(axis=1)
        ok = rank[sel] == 6
        qh = np.einsum("kmi,km->ki", q[ok], h[ok])
        # back to mesh units: (a, b, c) scale by 1/unit, g by unit
        back = np.ldexp(1.0, exponent[ok, None] * np.array([-1, -1, -1, 0, 0, 1]))
        sol[sel[ok]] = np.linalg.solve(r[ok], qh[..., None])[..., 0] * back
    bad = np.flatnonzero((size < 5) | (rank < 6))
    if bad.size:
        i = int(bad[0])
        if size[i] < 5:
            raise MeshError("degenerate_ring", f"vertex {i} has too few neighbours")
        raise MeshError("degenerate_ring", f"rank-deficient fit at vertex {i}")

    a, b, c, d, e = sol[:, :5].T
    hess = np.stack([2 * a, b, b, 2 * c], axis=-1).reshape(-1, 2, 2)
    grad = np.stack([d, e], axis=-1)
    first = np.eye(2) + grad[:, :, None] * grad[:, None, :]
    second = hess / np.sqrt(1.0 + np.einsum("ki,ki->k", grad, grad))[:, None, None]
    evals, evecs = np.linalg.eigh(first)
    inv_sqrt = (evecs * evals[:, None, :] ** -0.5) @ evecs.transpose(0, 2, 1)
    shapes = inv_sqrt @ second @ inv_sqrt
    shapes = (shapes + shapes.transpose(0, 2, 1)) / 2.0
    shape_world = frames @ shapes @ frames.transpose(0, 2, 1)
    principal = np.linalg.eigvalsh(shapes)

    _, face_areas = mesh.face_normals_areas()
    areas = np.zeros(nv)
    np.add.at(areas, mesh.cells[:, 0], face_areas / 3.0)
    np.add.at(areas, mesh.cells[:, 1], face_areas / 3.0)
    np.add.at(areas, mesh.cells[:, 2], face_areas / 3.0)

    return DiscreteShape(
        normals=normals,
        frames=frames,
        shape=shapes,
        shape_world=shape_world,
        principal=principal,
        mean=principal.mean(axis=1),
        areas=areas,
    )


# ---------------------------------------------------------------------------
# analytic boundaries


class SphereSurface:
    """Round sphere with the inner-normal convention (curvatures +1/r)."""

    def __init__(self, radius: float = 1.0, center=None, dim: int = 3):
        if not 0 < radius < np.inf:
            raise ValueError(f"radius must be finite and positive, got {radius}")
        self.radius = float(radius)
        self.dim = dim
        self.center = np.zeros(dim) if center is None else np.asarray(center, float)

    def _unit(self, points) -> np.ndarray:
        # in units of the radius, so the norm squares numbers near 1 at any radius
        q = (np.atleast_2d(points) - self.center) / self.radius
        return q / np.linalg.norm(q, axis=1)[:, None]

    def normals(self, points) -> np.ndarray:
        return -self._unit(points)

    def shape_world(self, points) -> np.ndarray:
        return _tangent_projector(self.normals(points)) / self.radius

    def project(self, points) -> np.ndarray:
        return self.center + self.radius * self._unit(points)


def boundary_surface(mesh: MeshComplex) -> SphereSurface | None:
    """The exact boundary of a generated ball, None for any other mesh."""
    if mesh.kind == "solid" and mesh.metadata.get("generator") == "ball":
        return SphereSurface(mesh.metadata["radius"])
    return None


def ellipsoid_shape_world(points, semi_axes) -> np.ndarray:
    """Ambient 3x3 shape operators of an ellipsoid at on-surface points.

    Level-set formula P (Hess F / |grad F|) P with the inner-normal sign
    convention, so convex ellipsoids give positive curvatures.
    """
    q = np.atleast_2d(np.asarray(points, dtype=float))
    a, b, c = semi_axes
    weights = np.array([1.0 / a**2, 1.0 / b**2, 1.0 / c**2])
    grad = 2.0 * q * weights
    gnorm = np.linalg.norm(grad, axis=1)
    nu = grad / gnorm[:, None]  # outward
    hess = np.diag(2.0 * weights)[None] / gnorm[:, None, None]
    return _project(_tangent_projector(nu), hess)


def _tangent_projector(n) -> np.ndarray:
    """I - n n^T per point, for (M, dim) unit normals."""
    return np.eye(n.shape[1]) - n[:, :, None] * n[:, None]


def _project(proj, s) -> np.ndarray:
    """proj @ s @ proj per point, for (M, 3, 3) stacks: the terms (proj_ij * s_jk) * proj_kl
    added from zero in (j, k) order, as ``np.einsum("mij,mjk,mkl->mil")`` adds them, but
    component-major, (3, 3, M), so every product and sum loops over the points."""
    proj = np.ascontiguousarray(proj.transpose(1, 2, 0))
    s = np.ascontiguousarray(s.transpose(1, 2, 0))
    out = np.zeros(proj.shape)
    for j in range(3):
        for k in range(3):
            out += (proj[:, j, None] * s[j, k]) * proj[None, k]
    return np.ascontiguousarray(out.transpose(2, 0, 1))


def ellipsoid_principal_curvatures(points, semi_axes) -> np.ndarray:
    """Closed-form principal curvatures (ascending) at on-surface points."""
    s = ellipsoid_shape_world(points, semi_axes)
    evals = np.linalg.eigvalsh(s)
    # one eigenvalue is exactly zero (the normal direction); drop the one
    # with smallest magnitude
    keep = np.array([[1, 2], [0, 2], [0, 1]])[np.argmin(np.abs(evals), axis=1)]
    return np.sort(np.take_along_axis(evals, keep, axis=1), axis=1)
