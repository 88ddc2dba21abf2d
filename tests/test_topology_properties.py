"""Property tests of the integer-keyed topology layer."""

from functools import lru_cache

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import seed_oracle as oracle
from hodgebench.meshes import (
    MeshComplex,
    MeshError,
    _find,
    generate_ball,
    generate_ellipsoid,
    generate_icosphere,
    generate_torus,
)
from hodgebench.spectrum import FLIP_TOL, ZERO_TOL, assemble_dec, spectrum
from test_meshes import disjoint_union, glue_at_vertex
from test_topology_equivalence import _rotation

_ico0 = generate_icosphere(0)
SURFACES = {
    "ico1": generate_icosphere(1),
    "ico2": generate_icosphere(2),
    "torus": generate_torus(9, 5),
    "ellipsoid-1-1-2": generate_ellipsoid(1.0, 1.0, 2.0, 2),  # 52 edges flipped
    "two-spheres": disjoint_union(_ico0, MeshComplex(_ico0.vertices + 3.0, _ico0.cells)),
}
BALL = generate_ball(1)

seeds = st.integers(0, 2**32 - 1)


def _relabel(mesh, rng):
    """New vertex ids for the mesh's vertices: (vertices, id map)."""
    perm = rng.permutation(mesh.n_vertices)
    new_id = np.empty_like(perm)
    new_id[perm] = np.arange(perm.size)
    return mesh.vertices[perm], new_id


def _rotate_rows(cells, shifts, width):
    cols = (np.arange(width)[None, :] + shifts[:, None]) % width
    return cells[np.arange(len(cells))[:, None], cols]


@given(name=st.sampled_from(sorted(SURFACES)), seed=seeds)
@settings(max_examples=30, deadline=None)
def test_surface_invariants_under_relabelling_and_rotation(name, seed):
    mesh = SURFACES[name]
    rng = np.random.default_rng(seed)
    verts, new_id = _relabel(mesh, rng)
    cells = _rotate_rows(new_id[mesh.cells], rng.integers(0, 3, mesh.n_cells), 3)
    other = MeshComplex(verts, cells)
    assert other.n_edges == mesh.n_edges
    assert other.euler_characteristic() == mesh.euler_characteristic()
    assert other.betti_numbers() == mesh.betti_numbers()
    assert np.array_equal(other.edges, oracle.edges(cells))
    ops = assemble_dec(other)
    assert (ops.d1 @ ops.d0).count_nonzero() == 0


@given(names=st.tuples(*[st.sampled_from(sorted(SURFACES))] * 2), data=st.data(), seed=seeds)
@settings(max_examples=40, deadline=None)
def test_gluing_two_valid_surfaces_at_a_vertex_is_non_manifold_vertex(names, data, seed):
    rng = np.random.default_rng(seed)
    parts = []
    for name in names:
        mesh = SURFACES[name]
        verts, new_id = _relabel(mesh, rng)
        cells = _rotate_rows(new_id[mesh.cells], rng.integers(0, 3, mesh.n_cells), 3)
        parts.append(MeshComplex(verts @ _rotation(rng).T, cells))  # valid: no error
    a, b = parts
    i = data.draw(st.integers(0, a.n_vertices - 1))
    j = data.draw(st.integers(0, b.n_vertices - 1))
    verts, faces = glue_at_vertex(a, i, b, j)
    with pytest.raises(MeshError) as err:
        MeshComplex(verts, faces)
    assert err.value.code == "non_manifold_vertex"
    assert f"at vertex {i} form 2 fans" in str(err.value)


@lru_cache(maxsize=None)
def _base_spectrum(name, degree, k=6):
    return spectrum(SURFACES[name], degree, k)


@given(name=st.sampled_from(sorted(SURFACES)), degree=st.sampled_from([0, 1, 2]), seed=seeds)
@settings(max_examples=30, deadline=None)
def test_spectrum_invariant_under_relabelling_and_rotation(name, degree, seed):
    mesh = SURFACES[name]
    rng = np.random.default_rng(seed)
    verts, new_id = _relabel(mesh, rng)
    cells = _rotate_rows(new_id[mesh.cells], rng.integers(0, 3, mesh.n_cells), 3)
    got = spectrum(MeshComplex(verts, cells), degree, k=6)
    want = _base_spectrum(name, degree)
    # relative to the spectrum's scale: harmonic zeros have none of their own
    scale = np.abs(want.eigenvalues).max()
    assert np.allclose(got.eigenvalues, want.eigenvalues, rtol=0, atol=1e-10 * scale)
    assert got.count("harmonic") == want.count("harmonic")


@given(
    name=st.sampled_from(["ico2", "ellipsoid-1-1-2"]),
    degree=st.sampled_from([0, 1, 2]),
    k=st.integers(1, 40),
    seed=seeds,
)
@settings(max_examples=40, deadline=None)
def test_matrix_order_never_reaches_the_spectrum(name, degree, k, seed):
    # a rotated copy numbered anew gives the pencils in another order and
    # with other rounding; the shift-invert solve must not see either
    mesh = SURFACES[name]
    rng = np.random.default_rng(seed)
    verts, new_id = _relabel(mesh, rng)
    cells = _rotate_rows(new_id[mesh.cells], rng.integers(0, 3, mesh.n_cells), 3)
    got = spectrum(MeshComplex(verts @ _rotation(rng).T, cells), degree, k)
    want = _base_spectrum(name, degree, k)
    scale = want.zero_tol / ZERO_TOL
    assert np.abs(got.eigenvalues - want.eigenvalues).max() <= 1e-12 * scale
    assert got.families == want.families and got.method == want.method
    assert [m for _, m in got.clusters] == [m for _, m in want.clusters]
    assert np.array_equal(got.cluster_ids, want.cluster_ids)


@given(
    axes=st.tuples(st.floats(1.0, 2.0), st.floats(1.0, 2.0)),
    subdivisions=st.sampled_from([2, 3]),
    seed=seeds,
)
@settings(max_examples=20, deadline=None)
def test_intrinsic_delaunay_weights_on_ellipsoids(axes, subdivisions, seed):
    # rotated, relabelled ellipsoids up to 1:1:2, most with negative cotan
    # weights before the flips
    mesh = generate_ellipsoid(1.0, *axes, subdivisions)
    rng = np.random.default_rng(seed)
    verts, new_id = _relabel(mesh, rng)
    cells = _rotate_rows(new_id[mesh.cells], rng.integers(0, 3, mesh.n_cells), 3)
    other = MeshComplex(verts @ _rotation(rng).T, cells)
    raw = oracle.assemble_dec(other.vertices, other.cells)[3]
    ops = assemble_dec(other)
    assert ops.star1.min() >= -FLIP_TOL * np.median(np.abs(raw))
    assert (ops.star0 > 0).all()
    assert (ops.d1 @ ops.d0).count_nonzero() == 0
    area = other.area()
    assert abs(ops.star0.sum() - area) < 1e-12 * area
    assert abs((1.0 / ops.star2).sum() - area) < 1e-12 * area


@given(seed=seeds)
@settings(max_examples=15, deadline=None)
def test_solid_invariants_under_relabelling(seed):
    rng = np.random.default_rng(seed)
    verts, new_id = _relabel(BALL, rng)
    # cycling the last three vertices of a tet is an even permutation: it
    # keeps the orientation
    tets = new_id[BALL.cells]
    tets[:, 1:] = _rotate_rows(tets[:, 1:], rng.integers(0, 3, BALL.n_cells), 3)
    bnd = _rotate_rows(new_id[BALL.boundary_faces], rng.integers(0, 3, len(BALL.boundary_faces)), 3)
    other = MeshComplex(verts, tets, boundary_faces=bnd)
    assert other.n_edges == BALL.n_edges
    assert np.array_equal(other.edges, oracle.edges(tets))
    auto = MeshComplex(verts, tets)
    assert np.array_equal(np.sort(np.sort(auto.boundary_faces, axis=1), axis=0),
                          np.sort(np.sort(bnd, axis=1), axis=0))


@given(level=st.sampled_from((1, 2)), seed=seeds)
@settings(max_examples=20, deadline=None)
def test_key_lookups_equal_plain_searchsorted_on_relabelled_tets(level, seed):
    ball = generate_ball(level)
    rng = np.random.default_rng(seed)
    verts, new_id = _relabel(ball, rng)
    tets = new_id[ball.cells][rng.permutation(ball.n_cells)]
    tets[:, 1:] = _rotate_rows(tets[:, 1:], rng.integers(0, 3, ball.n_cells), 3)
    mesh = MeshComplex(verts, tets)
    edge_keys = mesh._sorted_edge_keys()
    faces, keys = mesh._extract_boundary(edge_keys)
    want_faces, want_keys = oracle.extract_boundary_by_search(tets, edge_keys, mesh.n_vertices)
    assert np.array_equal(faces, want_faces) and np.array_equal(keys, want_keys)
    assert np.array_equal(mesh.boundary_faces, want_faces)
    # present, repeated and absent keys, -1 and keys past both ends
    queries = np.concatenate(
        [edge_keys, edge_keys[:5], rng.integers(-1, edge_keys[-1] + 3, 200), [-1, 0, 2**40]]
    )
    queries = queries[rng.permutation(queries.size)]
    for got, want in zip(_find(edge_keys, queries), oracle.find(edge_keys, queries)):
        assert np.array_equal(got, want)
    for got, want in zip(_find(edge_keys, queries[:0]), oracle.find(edge_keys, queries[:0])):
        assert got.shape == want.shape == (0,)


def _verdict(fn, *args, **kwargs):
    try:
        fn(*args, **kwargs)
    except MeshError as exc:
        return str(exc)
    return None


@given(data=st.data())
@settings(max_examples=60, deadline=None)
def test_validator_verdict_matches_oracle(data):
    mesh = SURFACES[data.draw(st.sampled_from(["ico1", "torus"]))]
    faces = mesh.cells.copy()
    n = len(faces)
    flips = data.draw(st.lists(st.integers(0, n - 1), max_size=4))
    faces[flips] = faces[flips][:, ::-1]
    for _ in range(data.draw(st.integers(0, 3))):
        src = data.draw(st.integers(0, n - 1))
        dup = np.roll(faces[src], data.draw(st.integers(0, 2)))
        if data.draw(st.booleans()):
            dup = dup[::-1]
        at = data.draw(st.integers(0, len(faces)))
        faces = np.insert(faces, at, dup, axis=0)
    got = _verdict(MeshComplex, mesh.vertices, faces)
    want = _verdict(oracle.validate_surface, faces)
    assert got == want
