"""Ball generation in memory bounded by the mesh.

The determinants run in blocks of ``meshes.DET_BLOCK`` tets and the ball's
shells are written in place.  With a small odd block every solid here crosses
many block boundaries; tets and determinants must still match the one-shot
expressions bit for bit."""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import seed_oracle as oracle
from hodgebench import meshes
from hodgebench.meshes import generate_ball
from test_topology_equivalence import _relabelled

ODD_BLOCK = 7


def _check_determinants(mesh):
    want = oracle.tet_determinants(mesh.vertices, mesh.cells)
    assert mesh.tet_determinants.tobytes() == want.tobytes()


@pytest.mark.parametrize("relabel", [False, True], ids=["ball2", "ball2-relabelled"])
def test_determinants_across_block_boundaries(monkeypatch, relabel):
    monkeypatch.setattr(meshes, "DET_BLOCK", ODD_BLOCK)
    mesh = generate_ball(2)
    if relabel:
        mesh = _relabelled(mesh, 13)
    assert mesh.n_cells % ODD_BLOCK and mesh.n_cells > 100 * ODD_BLOCK
    _check_determinants(mesh)


@given(subdivisions=st.integers(0, 2), layers=st.integers(1, 9))
@settings(max_examples=15, deadline=None)
def test_generated_determinants_across_block_boundaries(subdivisions, layers):
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(meshes, "DET_BLOCK", ODD_BLOCK)
        _check_determinants(generate_ball(subdivisions, layers))


@pytest.mark.parametrize("subdivisions", range(5))
@given(layers=st.integers(1, 9))
@settings(max_examples=3, deadline=None)
def test_ball_tets_match_the_stacked_shells(subdivisions, layers):
    for n in (None, layers):
        ball = generate_ball(subdivisions, n)
        assert np.array_equal(ball.cells, oracle.stacked_ball_tets(subdivisions, n))


def test_ball_generation_memory_is_bounded_by_the_ball():
    tracemalloc.start()
    try:
        ball = generate_ball(4)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    kept = sum(a.nbytes for a in (ball.vertices, ball.cells, ball.boundary_faces, ball.tet_determinants))
    assert ball.n_cells > meshes.DET_BLOCK
    assert peak <= 1.5 * kept, (peak, kept)
