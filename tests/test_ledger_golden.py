"""Ledger terms, volumes and quadrature nodes pinned to their recorded values.

``data/golden_ledgers.json`` holds every ledger term, the residual and the
mesh volume for ``reilly --field x2dx1 --levels 1,2``, ``reilly --field
linear-x1 --levels 1,2``, the discrete-shape x2dx1 ledger on ball(1), the
order-1 x2dx1 ledgers on ball(1), the x2dx1 ledgers with the DEC cross term
on ball(2) (both shape sources), the discrete radial-sq classical ledger
on ball(1), and the discrete x2dx1 ledgers at order 1 and with the DEC cross
term on a cube cut into tets, whose boundary is flat.  The quadrature sums take no BLAS dot product, so the values hold
at any BLAS thread count.  Rewrites of the quadrature and the batched
d/delta must reproduce them exactly, not to a tolerance; so must the one
barycentric kernel that places every node, interpolated normal and shape
operator, and edge midpoint, against the expressions in ``seed_oracle``.
"""

import itertools
import json
from pathlib import Path

import numpy as np
import pytest

import seed_oracle as oracle
from hodgebench.fields import named_form_field, named_scalar_field
from hodgebench.meshes import MeshComplex, discrete_shape, generate_ball, load_mesh, save_tet
from hodgebench.reilly import (
    _TET4_A,
    _TET4_B,
    _barycentric,
    _boundary_blocks,
    _rule,
    _tet_blocks,
    evaluate_classical_reilly,
    evaluate_reilly,
)
from test_topology_equivalence import _relabelled

GOLDEN = json.loads((Path(__file__).parent / "data" / "golden_ledgers.json").read_text())


def _cube(n):
    """[-1/2, 1/2]^3 cut into n^3 cubes, and each cube into the six tets around
    its diagonal: a solid whose boundary is six flat squares."""
    ticks = np.arange(n + 1) / n - 0.5
    vertices = np.array(list(itertools.product(ticks, repeat=3)))
    steps = np.array([(n + 1) ** 2, n + 1, 1])
    origins = np.array(list(itertools.product(range(n), repeat=3))) @ steps
    paths = [np.cumsum([0] + [steps[a] for a in axes]) for axes in itertools.permutations(range(3))]
    tets = (origins[:, None, None] + np.array(paths)[None]).reshape(-1, 4)
    flip = oracle.tet_determinants(vertices, tets) < 0
    tets[flip] = tets[flip][:, [0, 2, 1, 3]]
    return MeshComplex(vertices, tets)


# key -> (ball level or mesh factory, field, keyword arguments of the ledger)
CASES = {
    "reilly --field x2dx1 level 1": (1, "x2dx1", {}),
    "reilly --field x2dx1 level 2": (2, "x2dx1", {}),
    "reilly --field linear-x1 level 1": (1, "linear-x1", {}),
    "reilly --field linear-x1 level 2": (2, "linear-x1", {}),
    "evaluate_reilly ball(1) x2dx1 discrete": (1, "x2dx1", {"shape_source": "discrete"}),
    "evaluate_reilly ball(1) x2dx1 order 1": (1, "x2dx1", {"order": 1}),
    "evaluate_reilly ball(1) x2dx1 order 1 discrete": (1, "x2dx1", {"order": 1, "shape_source": "discrete"}),
    "evaluate_reilly ball(2) x2dx1 include_dec": (2, "x2dx1", {"include_dec": True}),
    "evaluate_reilly ball(2) x2dx1 include_dec discrete": (
        2, "x2dx1", {"include_dec": True, "shape_source": "discrete"}
    ),
    "evaluate_classical_reilly ball(1) radial-sq discrete": (1, "radial-sq", {"shape_source": "discrete"}),
    "evaluate_reilly cube(3) x2dx1 order 1 discrete": (
        lambda: _cube(3), "x2dx1", {"order": 1, "shape_source": "discrete"}
    ),
    "evaluate_reilly cube(3) x2dx1 include_dec discrete": (
        lambda: _cube(3), "x2dx1", {"include_dec": True, "shape_source": "discrete"}
    ),
}
SCALAR_FIELDS = ("linear-x1", "radial-sq")


def _ledger(key):
    make, name, kwargs = CASES[key]
    mesh = generate_ball(make) if isinstance(make, int) else make()
    if name in SCALAR_FIELDS:
        return mesh, evaluate_classical_reilly(mesh, named_scalar_field(name), **kwargs)
    return mesh, evaluate_reilly(mesh, named_form_field(name), **kwargs)


def test_every_golden_ledger_has_a_case():
    assert sorted(GOLDEN) == sorted(CASES)


@pytest.mark.parametrize("key", sorted(GOLDEN))
def test_ledger_terms_equal_recorded_values(key):
    want = GOLDEN[key]
    mesh, ledger = _ledger(key)
    assert {k: v for k, v in ledger.terms.items() if v is not None} == want["terms"]
    assert ledger.lhs == want["lhs"]
    assert ledger.residual == want["residual"]
    assert ledger.relative_residual == want["relative_residual"]
    assert mesh.volume() == want["volume"]


SOLIDS = [(f"ball{s}", lambda s=s: generate_ball(s)) for s in range(4)] + [
    ("ball2-relabelled", lambda: _relabelled(generate_ball(2), 11)),
]


@pytest.mark.parametrize("name,make", SOLIDS, ids=[name for name, _ in SOLIDS])
def test_volume_and_quadrature_match_determinant_expression(name, make):
    mesh = make()
    dets = oracle.tet_determinants(mesh.vertices, mesh.cells)
    assert np.array_equal(mesh.tet_determinants, dets)
    assert mesh.volume() == float(dets.sum() / 6.0)
    rule4 = np.full((4, 4), _TET4_B)
    np.fill_diagonal(rule4, _TET4_A)
    for order, bary in ((1, np.full((1, 4), 0.25)), (2, rule4)):
        blocks = list(_tet_blocks(mesh, order))
        pts = np.concatenate([pts for pts, _ in blocks])
        wts = np.concatenate([wts for _, wts in blocks])
        want_pts, want_wts = oracle.tet_quadrature(mesh.vertices, mesh.cells, bary)
        assert np.array_equal(wts, want_wts)
        assert np.array_equal(wts, np.repeat(dets / 6.0 / len(bary), len(bary)))
        assert pts.tobytes() == want_pts.tobytes()


# ball(0)'s boundary, the icosahedron, has too few vertices for a quadric fit
FITTED = SOLIDS[1:]


@pytest.mark.parametrize("name,make", FITTED, ids=[name for name, _ in FITTED])
def test_triangle_nodes_and_fitted_shape_match_their_einsums(name, make):
    mesh = make()
    boundary, _ = mesh.boundary_mesh()
    shape = discrete_shape(boundary)
    for order in (1, 2):
        want_pts, want_wts, face_ids, bary_all = oracle.tri_quadrature(mesh.vertices, mesh.boundary_faces, order)
        blocks = list(_boundary_blocks(mesh, order, None))
        wts = np.concatenate([block[0] for block in blocks])
        pts = np.concatenate([block[1] for block in blocks])
        assert pts.tobytes() == want_pts.tobytes()
        assert wts.tobytes() == want_wts.tobytes()
        bary = _rule(3, order)
        want_n, want_s = oracle.interpolated_shape(shape.normals, shape.shape_world, boundary.cells, face_ids, bary_all)
        assert _barycentric(shape.normals, boundary.cells, bary).tobytes() == want_n.tobytes()
        assert _barycentric(shape.shape_world, boundary.cells, bary).tobytes() == want_s.tobytes()


@pytest.mark.parametrize("name,make", FITTED, ids=[name for name, _ in FITTED])
def test_edge_midpoints_match_the_midpoint_formulas(name, make):
    boundary, _ = make().boundary_mesh()
    normals = discrete_shape(boundary).normals
    edges = boundary.edges
    want_mids, want_n = oracle.edge_midpoints(boundary.vertices, normals, edges)
    half = np.full((1, 2), 0.5)
    n_mid = _barycentric(normals, edges, half)
    n_mid /= np.linalg.norm(n_mid, axis=1)[:, None]
    assert _barycentric(boundary.vertices, edges, half).tobytes() == want_mids.tobytes()
    assert n_mid.tobytes() == want_n.tobytes()


def test_kernel_keeps_negative_zeros_that_einsum_made_positive(tmp_path):
    """On a flat face the fitted normals have -0.0 components.  A node whose
    every product is -0.0 stays -0.0 in the kernel, which starts from the first
    product; np.einsum starts from +0.0.  Nothing else differs, and the ledgers
    on this mesh keep their recorded bits (the cube rows of the golden file)."""
    save_tet(_cube(3), tmp_path / "cube.tet")
    mesh = load_mesh(tmp_path / "cube.tet")
    boundary, _ = mesh.boundary_mesh()
    shape = discrete_shape(boundary)
    for order in (1, 2):
        _, _, face_ids, bary_all = oracle.tri_quadrature(mesh.vertices, mesh.boundary_faces, order)
        want_n, want_s = oracle.interpolated_shape(shape.normals, shape.shape_world, boundary.cells, face_ids, bary_all)
        bary = _rule(3, order)
        assert _barycentric(shape.shape_world, boundary.cells, bary).tobytes() == want_s.tobytes()
        n = _barycentric(shape.normals, boundary.cells, bary)
        assert np.array_equal(n, want_n)
        moved = np.signbit(n) != np.signbit(want_n)
        assert moved.any()
        assert (n[moved] == 0).all() and np.signbit(n[moved]).all()
