"""The array topology layer against the seed loop implementations.

Topology tables, generators and DEC operators must match the loops bit for
bit; quadric fits must match the per-vertex ``lstsq`` to rounding.
"""

import numpy as np
import pytest

import seed_oracle as oracle
from hodgebench.cli import main
from hodgebench.meshes import (
    MeshComplex,
    MeshError,
    _vertex_rings,
    _vertex_normals,
    discrete_shape,
    generate_ball,
    generate_icosphere,
    generate_torus,
)
from hodgebench.spectrum import assemble_dec


def _rotation(rng):
    q, r = np.linalg.qr(rng.standard_normal((3, 3)))
    q = q * np.sign(np.diag(r))
    if np.linalg.det(q) < 0:
        q[:, 0] *= -1.0
    return q


def _relabelled(mesh, seed):
    """The mesh rotated and with its vertices relabelled, seeded."""
    rng = np.random.default_rng(seed)
    perm = rng.permutation(mesh.n_vertices)
    new_id = np.empty_like(perm)
    new_id[perm] = np.arange(perm.size)
    bnd = None if mesh.boundary_faces is None else new_id[mesh.boundary_faces]
    return MeshComplex((mesh.vertices @ _rotation(rng).T)[perm], new_id[mesh.cells], boundary_faces=bnd)


SURFACES = [(f"ico{s}", lambda s=s: generate_icosphere(s)) for s in range(4)] + [
    ("torus", lambda: generate_torus(16, 8)),
    ("ico3-relabelled", lambda: _relabelled(generate_icosphere(3), 3)),
]
SOLIDS = [(f"ball{s}", lambda s=s: generate_ball(s)) for s in range(4)] + [
    ("ball2-relabelled", lambda: _relabelled(generate_ball(2), 7)),
]


def _same_sparse(a, b):
    a, b = a.tocsr(), b.tocsr()
    assert a.shape == b.shape
    assert np.array_equal(a.indptr, b.indptr)
    assert np.array_equal(a.indices, b.indices)
    assert np.array_equal(a.data, b.data)


# ---------------------------------------------------------------------------
# tables and DEC operators


@pytest.mark.parametrize("name,make", SURFACES + SOLIDS, ids=[n for n, _ in SURFACES + SOLIDS])
def test_edges_match_oracle(name, make):
    mesh = make()
    want = oracle.edges(mesh.cells)
    assert mesh.n_edges == len(want)
    if mesh.kind == "solid":
        # validation counted the edges; no edge table stays on the solid
        assert mesh._edge_keys is None
    assert mesh.edges.dtype == want.dtype
    assert np.array_equal(mesh.edges, want)
    ids = mesh.edge_ids(want[:, 1], want[:, 0])
    assert np.array_equal(ids, np.arange(len(want)))


@pytest.mark.parametrize("name,make", SURFACES, ids=[n for n, _ in SURFACES])
def test_dec_operators_match_oracle(name, make):
    mesh = make()
    ops = assemble_dec(mesh)
    d0, d1, star0, star1, star2 = oracle.assemble_dec(mesh.vertices, mesh.cells)
    _same_sparse(ops.d0, d0)
    _same_sparse(ops.d1, d1)
    assert np.array_equal(ops.star0, star0)
    assert np.array_equal(ops.star1, star1)
    assert np.array_equal(ops.star2, star2)


# ---------------------------------------------------------------------------
# generators


@pytest.mark.parametrize("s", [0, 1, 2, 3])
def test_icosphere_matches_oracle(s):
    mesh = generate_icosphere(s, 1.5)
    verts, faces = oracle.icosphere(s, 1.5)
    assert np.array_equal(mesh.vertices, verts)
    assert np.array_equal(mesh.cells, faces)


@pytest.mark.parametrize("s", [0, 1, 2, 3])
def test_ball_matches_oracle(s):
    mesh = generate_ball(s)
    verts, tets, boundary = oracle.ball(s)
    assert np.array_equal(mesh.vertices, verts)
    assert np.array_equal(mesh.cells, tets)
    assert np.array_equal(mesh.boundary_faces, boundary)


def test_ball_with_explicit_layers_matches_oracle():
    for layers in (1, 3):
        mesh = generate_ball(1, layers)
        verts, tets, boundary = oracle.ball(1, layers)
        assert np.array_equal(mesh.cells, tets)
        assert np.array_equal(mesh.boundary_faces, boundary)


@pytest.mark.parametrize("nu,nv", [(3, 3), (16, 8), (48, 24)])
def test_torus_matches_oracle(nu, nv):
    mesh = generate_torus(nu, nv, 2.0, 0.7)
    verts, faces = oracle.torus(nu, nv, 2.0, 0.7)
    assert np.array_equal(mesh.cells, faces)
    assert np.array_equal(mesh.vertices, verts)


def test_extracted_boundary_matches_oracle():
    ball = _relabelled(generate_ball(2), 11)
    auto = MeshComplex(ball.vertices, ball.cells)
    assert np.array_equal(auto.boundary_faces, oracle.extract_boundary(ball.cells))


# ---------------------------------------------------------------------------
# quadric fits


def _flat_patch(k=7):
    xs, ys = np.meshgrid(np.arange(k), np.arange(k))
    verts = np.stack([xs.ravel(), ys.ravel(), 0.1 * np.sin(xs.ravel() + ys.ravel())], axis=1) * 0.3
    faces = []
    for i in range(k - 1):
        for j in range(k - 1):
            a = i * k + j
            faces.append([a, a + 1, a + k])
            faces.append([a + 1, a + k + 1, a + k])
    return MeshComplex(verts, np.asarray(faces), validate=False)  # open: the quadric fit does not read closedness


@pytest.mark.parametrize("depth", [1, 2, 3])
def test_rings_match_oracle(depth):
    for mesh in (generate_icosphere(2), _flat_patch(), _relabelled(generate_icosphere(1), 5)):
        rings = _vertex_rings(mesh, depth)
        want = oracle.vertex_rings(mesh.cells, mesh.n_vertices, depth)
        got = [rings.indices[rings.indptr[v] : rings.indptr[v + 1]].tolist() for v in range(mesh.n_vertices)]
        assert got == want


@pytest.mark.parametrize(
    "make",
    [lambda: generate_icosphere(3), lambda: _relabelled(generate_icosphere(2, 1.7), 9), _flat_patch],
)
def test_quadric_fit_matches_lstsq(make):
    mesh = make()
    shape = discrete_shape(mesh)
    rings = oracle.vertex_rings(mesh.cells, mesh.n_vertices)
    frames, shapes, world, principal = oracle.quadric_shapes(mesh.vertices, _vertex_normals(mesh), rings)
    scale = np.abs(principal).max()
    assert np.allclose(shape.frames, frames, rtol=0, atol=1e-15)
    assert np.abs(shape.shape - shapes).max() <= 1e-12 * scale
    assert np.abs(shape.shape_world - world).max() <= 1e-12 * scale
    assert np.abs(shape.principal - principal).max() <= 1e-12 * scale


def test_too_few_neighbours_named_like_oracle():
    # a lone tetrahedron: every 1..5-ring has 3 vertices
    verts = np.array([[0, 0, 0], [1, 0, 0], [0, 1, 0], [0, 0, 1]], dtype=float)
    faces = np.array([[0, 2, 1], [0, 1, 3], [1, 2, 3], [0, 3, 2]])
    mesh = MeshComplex(verts, faces)
    with pytest.raises(MeshError) as err:
        discrete_shape(mesh)
    assert err.value.code == "degenerate_ring"
    assert "vertex 0 has too few neighbours" in str(err.value)


# ---------------------------------------------------------------------------
# validation: codes and messages


def _verdict(fn, *args, **kwargs):
    try:
        fn(*args, **kwargs)
    except MeshError as exc:
        return str(exc)
    return None


def _corrupted_faces():
    base = generate_icosphere(1).cells
    flipped = base.copy()
    flipped[[3, 17]] = flipped[[3, 17]][:, ::-1]
    duplicated = np.vstack([base, base[[40]], base[[2]]])
    rotated_dup = np.vstack([base[:30], base[[5]][:, [1, 2, 0]], base[30:]])
    reversed_dup = np.vstack([base, base[[9]][:, ::-1]])
    return {
        "flipped": flipped,
        "duplicated": duplicated,
        "rotated_duplicate": rotated_dup,
        "reversed_duplicate": reversed_dup,
        "open": np.delete(base, [0, 50], axis=0),
    }


@pytest.mark.parametrize("case", list(_corrupted_faces()))
def test_surface_messages_match_oracle(case):
    faces = _corrupted_faces()[case]
    mesh = generate_icosphere(1)
    got = _verdict(MeshComplex, mesh.vertices, faces)
    want = _verdict(oracle.validate_surface, faces)
    assert got == want
    if got is not None:
        assert "np.int64" not in got


def test_flipped_face_message_names_first_edge():
    mesh = generate_icosphere(0)
    faces = mesh.cells.copy()
    faces[4] = faces[4][::-1]
    with pytest.raises(MeshError) as err:
        MeshComplex(mesh.vertices, faces)
    assert str(err.value) == "[inconsistent_orientation] faces 0 and 4 traverse edge (0, 11) the same way"


def test_bad_boundary_detected():
    ball = generate_ball(1)
    for bnd in (ball.boundary_faces[:-1], np.vstack([ball.boundary_faces[:-1], ball.cells[:1, :3]])):
        with pytest.raises(MeshError) as err:
            MeshComplex(ball.vertices, ball.cells, boundary_faces=bnd)
        assert err.value.code == "bad_boundary"
        assert _verdict(oracle.validate_solid, ball.vertices, ball.cells, bnd) == str(err.value)


def test_flipped_tet_detected():
    ball = generate_ball(1)
    tets = ball.cells.copy()
    tets[7] = tets[7][[1, 0, 2, 3]]
    with pytest.raises(MeshError) as err:
        MeshComplex(ball.vertices, tets, boundary_faces=ball.boundary_faces)
    assert err.value.code == "inconsistent_orientation"
    assert "first: [7]" in str(err.value)


def test_flipped_solid_boundary_face_detected():
    ball = generate_ball(1)
    bnd = ball.boundary_faces.copy()
    bnd[5] = bnd[5][::-1]
    with pytest.raises(MeshError) as err:
        MeshComplex(ball.vertices, ball.cells, boundary_faces=bnd)
    assert err.value.code == "inconsistent_orientation"
    assert _verdict(oracle.validate_solid, ball.vertices, ball.cells, bnd) == str(err.value)


# ---------------------------------------------------------------------------
# degenerate input


def _collapsed_icosphere():
    mesh = generate_icosphere(2)
    a, b = mesh.edges[0]
    verts = mesh.vertices.copy()
    verts[b] = verts[a]
    return verts, mesh.cells


def _write_off(path, verts, faces):
    lines = ["OFF", f"{len(verts)} {len(faces)} 0"]
    lines += [f"{x:.17g} {y:.17g} {z:.17g}" for x, y, z in verts]
    lines += [f"3 {a} {b} {c}" for a, b, c in faces]
    path.write_text("\n".join(lines) + "\n")


def test_collapsed_vertex_is_degenerate_face():
    verts, faces = _collapsed_icosphere()
    with pytest.raises(MeshError) as err:
        MeshComplex(verts, faces)
    assert err.value.code == "degenerate_face"


def test_nan_vertex_is_non_finite():
    mesh = generate_icosphere(1)
    verts = mesh.vertices.copy()
    verts[3, 1] = np.nan
    with pytest.raises(MeshError) as err:
        MeshComplex(verts, mesh.cells)
    assert err.value.code == "non_finite_vertices"
    assert "first: [3]" in str(err.value)


def test_degenerate_solid_boundary_face():
    # a zero-area boundary face flattens its tet, which the tet check names first
    ball = generate_ball(1)
    verts = ball.vertices.copy()
    a, _, c = ball.boundary_faces[0]
    verts[c] = verts[a]
    with pytest.raises(MeshError) as err:
        MeshComplex(verts, ball.cells, boundary_faces=ball.boundary_faces)
    assert err.value.code == "inconsistent_orientation"
    surf, used = ball.boundary_mesh()
    with pytest.raises(MeshError) as err:
        MeshComplex(verts[used], surf.cells)
    assert err.value.code == "degenerate_face"


@pytest.mark.parametrize("kind", ["collapsed", "nan", "open"])
def test_cli_degenerate_mesh_exit_2(tmp_path, capsys, kind):
    if kind == "collapsed":
        verts, faces = _collapsed_icosphere()
        code = "degenerate_face"
    elif kind == "open":
        mesh = generate_icosphere(2)
        verts, faces = mesh.vertices, mesh.cells[1:]
        code = "not_closed"
    else:
        mesh = generate_icosphere(2)
        verts, faces = mesh.vertices.copy(), mesh.cells
        verts[10, 0] = np.nan
        code = "non_finite_vertices"
    path = tmp_path / "degen.off"
    _write_off(path, verts, faces)
    with np.errstate(all="raise"):
        rc = main(["spectrum", "--mesh", str(path), "--out", str(tmp_path / "out")])
    assert rc == 2
    assert f"[{code}]" in capsys.readouterr().err


def test_flat_bipyramid_flips_to_parallel_edges():
    # the angles opposite each equatorial edge are obtuse; all three edges
    # flip to diagonals between the two apexes, one vertex pair three times
    t = 2 * np.pi * np.arange(3) / 3
    verts = np.vstack([np.column_stack([np.cos(t), np.sin(t), np.zeros(3)]), [[0, 0, 0.1], [0, 0, -0.1]]])
    faces = [(0, 1, 3), (1, 2, 3), (2, 0, 3), (1, 0, 4), (2, 1, 4), (0, 2, 4)]
    mesh = MeshComplex(verts, faces)
    ops = assemble_dec(mesh)
    assert (ops.edges == [3, 4]).all(axis=1).sum() == 3
    assert (ops.d1 @ ops.d0).count_nonzero() == 0
    assert (ops.star1 >= 0).all() and (ops.star0 > 0).all()
    assert abs(ops.star0.sum() - mesh.area()) < 1e-12 * mesh.area()
    assert abs((1.0 / ops.star2).sum() - mesh.area()) < 1e-12 * mesh.area()
