"""The exact Hodge split: degree-1 spectra as the union of the degree-0 and
merged degree-2 spectra, checked against the direct degree-1 pencil."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import seed_oracle as oracle
from hodgebench.meshes import MeshComplex, generate_ellipsoid, generate_icosphere, generate_torus
from hodgebench.spectrum import ZERO_TOL, SolverError, assemble_dec, spectrum
from test_topology_equivalence import _rotation
from test_topology_properties import _relabel, _rotate_rows

SURFACES = {
    "ico1": generate_icosphere(1),
    "ico2": generate_icosphere(2),
    "ellipsoid-1-1-2": generate_ellipsoid(1.0, 1.0, 2.0, 2),  # 52 edges flipped
    "torus-8-6": generate_torus(8, 6),
    "torus-24-12": generate_torus(24, 12),
}


def _moved(mesh, rng):
    """The mesh rotated, with vertices relabelled and face rows cycled."""
    verts, new_id = _relabel(mesh, rng)
    cells = _rotate_rows(new_id[mesh.cells], rng.integers(0, 3, mesh.n_cells), 3)
    return MeshComplex(verts @ _rotation(rng).T, cells)


def _assert_matches_direct_pencil(mesh, k):
    dec = assemble_dec(mesh)
    rep = spectrum(mesh, 1, k, dec=dec)
    want, scale = oracle.one_form_spectrum(dec, len(rep.eigenvalues))
    assert np.abs(rep.eigenvalues - want).max() <= 1e-12 * scale
    assert rep.count("harmonic") == int((want < ZERO_TOL * scale).sum())
    return rep


@given(name=st.sampled_from(sorted(SURFACES)), k=st.integers(1, 40), seed=st.integers(0, 2**32 - 1))
@settings(max_examples=40, deadline=None)
def test_union_matches_direct_pencil(name, k, seed):
    _assert_matches_direct_pencil(_moved(SURFACES[name], np.random.default_rng(seed)), k)


def test_full_spectrum_with_zero_weights_drops_infinite_values():
    # 48 of the 144 edges of torus 8,6 have zero dual length: the direct
    # pencil gives them infinite eigenvalues, the union E - 48 finite ones
    torus = generate_torus(8, 6)
    rep = _assert_matches_direct_pencil(torus, torus.n_edges)
    assert len(rep.eigenvalues) == torus.n_edges - 48
    assert rep.method == "dense"
    assert rep.count("exact") == torus.n_vertices - 1
    assert rep.count("coexact") == torus.n_cells // 2 - 1


def test_merged_two_forms_approach_functions_under_refinement():
    # star duality: the 2-form and 0-form spectra share their limit
    gaps = []
    for nu, nv in ((24, 12), (48, 24), (96, 48)):
        torus = generate_torus(nu, nv)
        dec = assemble_dec(torus)
        two = spectrum(torus, 2, 3, dec=dec)
        assert two.count("harmonic") == 1
        gaps.append(abs(two.first_positive() - spectrum(torus, 0, 3, dec=dec).first_positive()))
    assert gaps[0] > gaps[1] > gaps[2]
    assert gaps[2] < 2e-4


def _sign_flipped(mesh):
    dec = assemble_dec(mesh)
    dec.d1 = dec.d1.copy()
    dec.d1.data[0] = -dec.d1.data[0]
    return dec


def test_broken_cochain_complex_is_refused():
    mesh = generate_icosphere(2)
    dec = _sign_flipped(mesh)
    assert (dec.d1 @ dec.d0).count_nonzero()
    with pytest.raises(SolverError, match="d1 d0 != 0"):
        spectrum(mesh, 1, 6, dec=dec)
    # the 2-form pencil of the broken complex loses its harmonic form
    with pytest.raises(SolverError, match="0 harmonic eigenvalues .* but b2 = 1"):
        spectrum(mesh, 2, 6, dec=dec)


def test_derived_harmonic_count_checked_against_b1(monkeypatch):
    # sub-solves pass with b0 = b2 = 1, but E - (V - 1) - (F - 1) = 0 != 1
    mesh = generate_icosphere(2)
    monkeypatch.setattr(mesh, "betti_numbers", lambda: (1, 1, 1))
    with pytest.raises(SolverError, match="degree-1 spectrum has 0 harmonic eigenvalues .* but b1 = 1"):
        spectrum(mesh, 1, 6)


def test_one_form_method_and_zero_tol_come_from_the_sub_solves():
    # icosphere(1): V = 42, F = 80, E = 120, b = (1, 0, 1)
    mesh = generate_icosphere(1)
    dec = assemble_dec(mesh)
    for k, method in ((40, "shift-invert"), (42, "dense+shift-invert"), (mesh.n_edges, "dense")):
        rep = spectrum(mesh, 1, k, dec=dec)
        assert rep.method == method
        subs = [spectrum(mesh, p, k + 1, dec=dec) for p in (0, 2)]
        assert rep.zero_tol == max(s.zero_tol for s in subs)
        assert rep.eigenvalues[0] > 0 and rep.count("harmonic") == 0
    torus = generate_torus(24, 12)
    rep = spectrum(torus, 1, 6)
    assert rep.eigenvalues[:2].tolist() == [0.0, 0.0]
    assert rep.families[:2] == ["harmonic", "harmonic"]
