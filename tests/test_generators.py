"""The generators skip the full validation on every run: their meshes are
valid by construction.  These property tests run that validation over the
generators' parameter ranges instead, and check the two tables a generated
ball fills without it: its edge count and its tet determinants."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hodgebench.meshes import (
    MeshComplex,
    _tet_determinants,
    generate_ball,
    generate_ellipsoid,
    generate_icosphere,
    generate_torus,
)

lengths = st.floats(1e-3, 1e3)


def _validated_surface(mesh):
    """A fresh copy of a generated surface, fully validated on construction."""
    return MeshComplex(mesh.vertices, mesh.cells)


def _check_ball(ball):
    layers = ball.metadata["layers"]
    other = MeshComplex(ball.vertices, ball.cells, boundary_faces=ball.boundary_faces)
    # the closed form the generator set against the validator's count and
    # against the edge table
    assert ball.n_edges == other.n_edges == len(ball.edges)
    sphere = generate_icosphere(ball.metadata["subdivisions"])
    assert ball.n_edges == layers * sphere.n_vertices + (2 * layers - 1) * sphere.n_edges
    # cached at generation, bit-equal to a fresh computation
    assert ball._tet_dets is not None
    assert np.array_equal(ball.tet_determinants, _tet_determinants(ball.vertices, ball.cells))
    assert np.array_equal(ball.tet_determinants, other.tet_determinants)


@pytest.mark.parametrize("subdivisions", range(6))
@given(radius=lengths)
@settings(max_examples=3, deadline=None)
def test_icosphere_is_valid(subdivisions, radius):
    mesh = _validated_surface(generate_icosphere(subdivisions, radius))
    assert mesh.n_edges == 30 * 4**subdivisions
    assert mesh.betti_numbers() == (1, 0, 1)


@given(axes=st.tuples(lengths, lengths, lengths), subdivisions=st.integers(0, 3))
@settings(max_examples=25, deadline=None)
def test_ellipsoid_is_valid(axes, subdivisions):
    mesh = _validated_surface(generate_ellipsoid(*axes, subdivisions))
    assert mesh.n_edges == 30 * 4**subdivisions


@given(
    nu=st.integers(3, 40),
    nv=st.integers(3, 40),
    small_radius=st.floats(1e-2, 10.0),
    gap=st.floats(1e-2, 10.0),
)
@settings(max_examples=40, deadline=None)
def test_torus_is_valid(nu, nv, small_radius, gap):
    mesh = _validated_surface(generate_torus(nu, nv, small_radius + gap, small_radius))
    assert mesh.n_edges == 3 * nu * nv
    assert mesh.betti_numbers() == (1, 2, 1)


@pytest.mark.parametrize("subdivisions", range(5))
def test_ball_is_valid(subdivisions):
    _check_ball(generate_ball(subdivisions))


@given(subdivisions=st.integers(0, 2), layers=st.integers(1, 9))
@settings(max_examples=15, deadline=None)
def test_ball_with_layers_is_valid(subdivisions, layers):
    _check_ball(generate_ball(subdivisions, layers))


# a count that is not an integer; a torus with nu = 24.5 had an edge that
# borders three faces, and generated meshes are not validated
NON_INTEGER_COUNTS = {
    "icosphere-2.5": (lambda: generate_icosphere(2.5), "subdivisions"),
    "ellipsoid-2.0": (lambda: generate_ellipsoid(1.0, 1.0, 1.2, 2.0), "subdivisions"),
    "ball-1.5": (lambda: generate_ball(1.5), "subdivisions"),
    "ball-layers-2.5": (lambda: generate_ball(1, 2.5), "layers"),
    "ball-layers-true": (lambda: generate_ball(1, True), "layers"),
    "torus-nu-24.5": (lambda: generate_torus(24.5, 12), "nu"),
    "torus-nv-12.5": (lambda: generate_torus(24, 12.5), "nv"),
    "torus-nv-12.0": (lambda: generate_torus(24, 12.0), "nv"),
}


@pytest.mark.parametrize("case", NON_INTEGER_COUNTS)
def test_generators_refuse_non_integer_counts(case):
    make, name = NON_INTEGER_COUNTS[case]
    with pytest.raises(ValueError, match=f"{name} must be >= [0-9] and an integer"):
        make()


def test_generators_take_numpy_integer_counts():
    mesh = generate_torus(np.int64(8), np.int32(6))
    assert mesh.n_vertices == 48
    assert generate_ball(np.int64(1), np.int64(2)).metadata["layers"] == 2
