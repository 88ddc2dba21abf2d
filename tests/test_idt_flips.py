"""The intrinsic Delaunay flips keep one length per edge.

``assemble_dec`` computes each edge's length once and the flips update it in
place; ``seed_oracle.idt_assemble_dec`` kept a squared length per face corner
beside it.  Every DEC operator must match the oracle byte for byte, on meshes
that flip many edges and on meshes that flip none.  No benchmark mesh flips an
edge, so this is what pins the flip path.  The bits agree while every squared
length is a normal number (edges of at least 2^-511): a norm does not depend
on the sign of the vector, and a correctly rounded sqrt(fl(x*x)) is x."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

import seed_oracle as oracle
from hodgebench.meshes import MeshComplex, generate_ellipsoid, generate_icosphere, generate_torus
from hodgebench.spectrum import assemble_dec
from test_topology_equivalence import _relabelled


def _jittered(mesh, seed, scale):
    rng = np.random.default_rng(seed)
    return MeshComplex(mesh.vertices + scale * rng.standard_normal(mesh.vertices.shape), mesh.cells)


MESHES = {
    "ellipsoid-1-1-2-4": lambda: generate_ellipsoid(1.0, 1.0, 2.0, 4),
    "ico3-jittered-relabelled": lambda: _relabelled(_jittered(generate_icosphere(3), 1, 0.03), 5),
    "torus-48-24": lambda: generate_torus(48, 24),
    "torus-7-30-thick": lambda: generate_torus(7, 30, 2.0, 1.9),
}


def _flips(mesh, ops):
    return int((ops.edges != mesh.edges).any(axis=1).sum())


def _check_same_operators(mesh):
    ops, want = assemble_dec(mesh), oracle.idt_assemble_dec(mesh)
    for name in ("star0", "star1", "star2", "edges", "faces"):
        got, ref = getattr(ops, name), getattr(want, name)
        assert got.dtype == ref.dtype and got.tobytes() == ref.tobytes(), name
    for name in ("d0", "d1"):
        got, ref = getattr(ops, name).tocsr(), getattr(want, name).tocsr()
        for part in ("indptr", "indices", "data"):
            assert getattr(got, part).tobytes() == getattr(ref, part).tobytes(), (name, part)
    return _flips(mesh, ops)


def test_dec_operators_match_the_per_corner_lengths():
    flips = {name: _check_same_operators(make()) for name, make in MESHES.items()}
    assert flips["ellipsoid-1-1-2-4"] > 0 and flips["ico3-jittered-relabelled"] > 0, flips


@given(seed=st.integers(0, 2**32 - 1), scale=st.sampled_from([0.02, 0.05, 0.08]))
@settings(max_examples=10, deadline=None)
def test_jittered_spheres_match_the_per_corner_lengths(seed, scale):
    _check_same_operators(_relabelled(_jittered(generate_icosphere(2), seed, scale), seed))
