import importlib
import json
from math import comb

import numpy as np
import pytest
from scipy import sparse
from scipy.linalg import eigh

import seed_oracle as oracle
from hodgebench.meshes import (
    MeshComplex,
    generate_ellipsoid,
    generate_icosphere,
    generate_torus,
)
from hodgebench.spectrum import (
    FLIP_TOL,
    ZERO_TOL,
    SolverError,
    assemble_dec,
    spectrum,
    sphere_hodge_oracle,
)
from test_meshes import disjoint_union


def shifted_copy(mesh, offset):
    return MeshComplex(mesh.vertices + np.asarray(offset), mesh.cells)


# ---------------------------------------------------------------------------
# DEC assembly


def test_incidence_shapes_icosahedron():
    dec = assemble_dec(generate_icosphere(0, 1.0))
    assert dec.d0.shape == (30, 12)
    assert dec.d1.shape == (20, 30)


def test_chain_complex_exact():
    for mesh in (generate_icosphere(1, 1.0), generate_torus(10, 6)):
        dec = assemble_dec(mesh)
        assert abs((dec.d1 @ dec.d0).toarray()).max() == 0.0


def test_dual_area_partition():
    mesh = generate_icosphere(2, 1.3)
    dec = assemble_dec(mesh)
    assert abs(dec.star0.sum() - mesh.area()) < 1e-10


def test_star_positive_on_sphere():
    dec = assemble_dec(generate_icosphere(3, 1.0))
    assert (dec.star0 > 0).all()
    assert (dec.star1 > 0).all()


def test_torus_cocircular_diagonals_stay_unflipped():
    # every grid quad of the torus is cocircular: its diagonal's weight is
    # zero to rounding, which the flip tolerance leaves alone
    torus = generate_torus(24, 12)
    dec = assemble_dec(torus)
    raw = oracle.assemble_dec(torus.vertices, torus.cells)[3]
    assert np.array_equal(dec.edges, torus.edges)
    assert np.array_equal(dec.faces, torus.cells)
    assert np.array_equal(dec.star1, raw)
    scale = np.median(np.abs(raw))
    assert dec.star1.min() >= -FLIP_TOL * scale
    assert (np.abs(dec.star1) <= FLIP_TOL * scale).sum() == torus.n_cells // 2
    # the 2-form pencil merges the two faces of each such diagonal and
    # solves on the 288 merged faces
    a, b = dec.laplacian_matrices(2)
    assert a.shape == (torus.n_cells // 2,) * 2
    # the generator lists the two triangles of each grid quad in a row
    assert np.allclose(1.0 / b, 1.0 / dec.star2[0::2] + 1.0 / dec.star2[1::2])
    rep = spectrum(torus, 2, 8, dec=dec)
    assert rep.families == ["harmonic"] + ["exact"] * 7
    want = [0.25745, 0.25745, 0.93611, 0.93611, 1.87652, 1.87652, 2.06926]
    assert np.allclose(rep.eigenvalues[1:], want, rtol=0, atol=1e-5)
    assert [m for _, m in rep.clusters] == [1, 2, 2, 2, 1]


def test_degree_one_torus_without_zero_division():
    # the torus's zero weights are merged across, never divided by
    torus = generate_torus(48, 24)
    assert (assemble_dec(torus).star1 == 0).any()
    with np.errstate(divide="raise", invalid="raise"):
        rep = spectrum(torus, 1, 10)
    assert rep.count("harmonic") == 2


def _signed_cotan_reference(mesh, count):
    """Lowest eigenvalues of the mesh's own cotan Laplacian with its raw,
    signed weights: the linear-element stiffness over the circumcentric
    dual areas."""
    d0, _, star0, star1, _ = oracle.assemble_dec(mesh.vertices, mesh.cells)
    assert (star0 > 0).all()
    stiff = (d0.T @ sparse.diags(star1) @ d0).toarray()
    return eigh(stiff, np.diag(star0), eigvals_only=True, subset_by_index=[0, count - 1])


def test_prolate_ellipsoid_matches_signed_cotan_laplacian():
    # ellipsoid 1:1:2 has 228 negative cotan weights; on its intrinsic
    # Delaunay triangulation the spectrum agrees with the signed cotan
    # Laplacian (clamping those weights once gave lambda_1 = 0.8129)
    mesh = generate_ellipsoid(1.0, 1.0, 2.0, 3)
    assert (oracle.assemble_dec(mesh.vertices, mesh.cells)[3] < 0).sum() == 228
    ref = _signed_cotan_reference(mesh, 4)
    assert abs(ref[1] - 0.7291) < 1e-4
    dec = assemble_dec(mesh)
    reps = [spectrum(mesh, degree, 10, dec=dec) for degree in (0, 1, 2)]
    lam1 = reps[0].first_positive()
    assert abs(lam1 - ref[1]) / ref[1] < 1e-3
    # the rotational pair comes out as one cluster of two
    assert reps[0].clusters[2][1] == 2
    assert np.allclose(reps[0].eigenvalues[2:4], ref[2:4], rtol=1e-3)
    # exact Hodge split: every nonzero 1-form value is a 0- or 2-form value
    others = np.concatenate([r.eigenvalues[r.eigenvalues > r.zero_tol] for r in (reps[0], reps[2])])
    for lam in reps[1].eigenvalues:
        assert np.abs(others - lam).min() <= 1e-8 * lam


# ---------------------------------------------------------------------------
# function spectrum


def test_sphere_lambda1_cluster():
    rep = spectrum(generate_icosphere(3, 1.0), 0, 8)
    lam1 = rep.first_positive()
    assert abs(lam1 - 2.0) / 2.0 < 0.02
    cluster = rep.clusters[1]
    assert cluster[1] == 3
    assert (rep.eigenvalues >= -1e-10).all()


def test_sphere_radius_scaling_law():
    rep = spectrum(generate_icosphere(3, 2.0), 0, 4)
    assert abs(rep.first_positive() - 0.5) / 0.5 < 0.02


# radii 2^j over 240 binary decades; at the unscaled pencil ARPACK's Ritz
# values 1/(lambda - sigma) grew with 1/scale, and from about radius 1e-10
# down the solve drifted past the residual check or failed outright
RADIUS_EXPONENTS = sorted({*range(-120, 121, 7), -3, 1, 3})


@pytest.mark.parametrize("degree", [0, 1, 2])
def test_spectrum_scales_exactly_with_the_radius(degree):
    # scaling a sphere by 2^j scales its pencils by powers of four, which
    # the unit-scale solve undoes without rounding
    unit = spectrum(generate_icosphere(2, 1.0), degree, 10)
    for j in RADIUS_EXPONENTS:
        rep = spectrum(generate_icosphere(2, 2.0**j), degree, 10)
        assert np.array_equal(rep.eigenvalues, unit.eigenvalues * 4.0**-j), j
        assert rep.families == unit.families, j


def test_disjoint_spheres_zero_multiplicity():
    a = generate_icosphere(2, 1.0)
    both = disjoint_union(a, shifted_copy(a, [5.0, 0.0, 0.0]))
    rep = spectrum(both, 0, 4)
    assert rep.families[:2] == ["harmonic", "harmonic"]
    assert rep.count("harmonic") == 2


def test_zero_eigenvalue_present():
    rep = spectrum(generate_icosphere(1, 1.0), 0, 3)
    assert rep.eigenvalues[0] < rep.zero_tol


# ---------------------------------------------------------------------------
# one- and two-form spectra


def test_one_form_families_on_sphere():
    mesh = generate_icosphere(3, 1.0)
    dec = assemble_dec(mesh)
    rep0 = spectrum(mesh, 0, 6, dec=dec)
    rep1 = spectrum(mesh, 1, 8, dec=dec)
    rep2 = spectrum(mesh, 2, 5, dec=dec)

    # exact family duplicates the nonzero function spectrum
    lam0 = rep0.first_positive()
    lam1_exact = rep1.first_positive("exact")
    assert abs(lam0 - lam1_exact) / lam0 < 1e-8

    # coexact family duplicates the exact 2-form family (Hodge duality)
    lam1_coexact = rep1.first_positive("coexact")
    lam2_exact = rep2.first_positive("exact")
    assert abs(lam1_coexact - lam2_exact) / lam2_exact < 1e-8

    # closed sphere: no harmonic 1-forms, one harmonic 2-form
    assert rep1.count("harmonic") == 0
    assert rep2.families[0] == "harmonic"

    # S^2 self-dual case: both families converge to the same value 2
    assert abs(lam1_exact - 2.0) < 0.05
    assert abs(lam1_coexact - 2.0) < 0.05


def test_torus_harmonic_count():
    rep = spectrum(generate_torus(24, 12), 1, 6)
    assert rep.count("harmonic") == 2
    assert rep.families[:2] == ["harmonic", "harmonic"]
    assert (rep.eigenvalues >= -1e-10).all()


def test_full_spectrum_family_counts():
    # full eigenproblem on small clamp-free closed surfaces: family counts
    # add up to the edge count, with b1 harmonics
    for mesh, b1 in ((generate_icosphere(0, 1.0), 0), (generate_icosphere(1, 1.0), 0)):
        ne = mesh.n_edges
        rep = spectrum(mesh, 1, ne)
        assert len(rep.eigenvalues) == ne
        assert rep.count("harmonic") == b1
        assert rep.count("exact") + rep.count("coexact") == ne - b1
        # exact eigenvalues biject with nonzero function eigenvalues
        nv = mesh.n_vertices
        rep0 = spectrum(mesh, 0, nv)
        nonzero0 = [l for l, f in zip(rep0.eigenvalues, rep0.families) if f != "harmonic"]
        exact1 = [l for l, f in zip(rep.eigenvalues, rep.families) if f == "exact"]
        assert len(nonzero0) == len(exact1)
        assert np.allclose(sorted(nonzero0), sorted(exact1), rtol=1e-8, atol=1e-8)


def test_full_spectrum_matches_shift_invert():
    # k = n is the dense full spectrum, k = n - 1 goes through shift-invert
    mesh = generate_icosphere(0, 1.0)
    for degree, n in ((0, mesh.n_vertices), (2, mesh.n_cells)):
        full = spectrum(mesh, degree, n)
        part = spectrum(mesh, degree, n - 1)
        assert (full.method, part.method) == ("dense", "shift-invert")
        scale = np.abs(full.eigenvalues).max()
        assert np.allclose(part.eigenvalues, full.eigenvalues[:-1], rtol=0, atol=1e-12 * scale)
        assert part.count("harmonic") == full.count("harmonic")


@pytest.mark.parametrize(
    "level, degree, k, multiplicities",
    [(5, 2, 10, [1, 3, 5, 1]), (5, 0, 16, [1, 3, 5, 7]), (4, 1, 16, [3, 3, 5, 5])],
)
def test_shift_invert_finds_full_multiplicities(level, degree, k, multiplicities):
    # a far shift once lost one of the five copies of lambda ~ 6 on
    # icosphere(5) 2-forms, depending on the BLAS thread count
    rep = spectrum(generate_icosphere(level, 1.0), degree, k)
    assert [m for _, m in rep.clusters] == multiplicities


def test_singular_factorization_is_solver_error():
    # all-zero cotan weights: A = 0, so the shift is 0 and A - sigma*B is singular
    mesh = generate_icosphere(1, 1.0)
    dec = assemble_dec(mesh)
    dec.star1 = np.zeros_like(dec.star1)
    with pytest.raises(SolverError, match="Factor is exactly singular"):
        spectrum(mesh, 0, 4, dec=dec)


def test_dense_linalg_error_is_solver_error():
    mesh = generate_icosphere(1, 1.0)
    dec = assemble_dec(mesh)
    dec.star0 = dec.star0.copy()
    dec.star0[0] = -1.0
    with pytest.raises(SolverError, match="not positive definite"):
        spectrum(mesh, 0, mesh.n_vertices, dec=dec)


@pytest.mark.parametrize("solver, k", [("eigsh", 6), ("eigh", 42)])
def test_inaccurate_eigenpairs_rejected(monkeypatch, solver, k):
    # perturbed eigenvectors stand in for a solver that returns bad pairs
    module = importlib.import_module("hodgebench.spectrum")
    real = getattr(module, solver)

    def noisy(*args, **kwargs):
        w, vecs = real(*args, **kwargs)
        return w, vecs + 1e-6 * np.random.default_rng(0).standard_normal(vecs.shape)

    monkeypatch.setattr(module, solver, noisy)
    mesh = generate_icosphere(1, 1.0)
    assert mesh.n_vertices == 42
    with pytest.raises(SolverError, match="relative residual") as err:
        spectrum(mesh, 0, k)
    assert err.value.residuals["max_rel_residual"] > ZERO_TOL


def _dense_values(mesh, degree):
    a, b = assemble_dec(mesh).laplacian_matrices(degree)
    return eigh(a.toarray(), np.diag(b), eigvals_only=True), float(np.median(a.diagonal() / b))


@pytest.mark.parametrize("degree", [0, 2])
def test_inertia_count_matches_dense_counts(degree):
    module = importlib.import_module("hodgebench.spectrum")
    mesh = generate_icosphere(2, 1.0)
    a, b = assemble_dec(mesh).laplacian_matrices(degree)
    want, scale = _dense_values(mesh, degree)
    # just below each of the 20 smallest values, degenerate clusters included
    for tau in want[1:21] - ZERO_TOL * scale:
        assert module._count_below(a, b, tau) == int((want < tau).sum())


@pytest.mark.parametrize("degree, max_per_row", [(0, 70), (2, 45)])
def test_pencil_factors_share_one_sparse_symmetric_order(monkeypatch, degree, max_per_row):
    # the Lanczos and inertia-count factors of icosphere(4) pencils, in the
    # generator's own numbering: COLAMD filled 87 (degree 0) and 64
    # (degree 2) entries per row, minimum degree alone 64 and 33
    module = importlib.import_module("hodgebench.spectrum")
    real, factors = module.splu, []

    def recorded(c, *args, **kwargs):
        lu = real(c, *args, **kwargs)
        factors.append(((lu.L.nnz + lu.U.nnz) / c.shape[0], np.array_equal(lu.perm_r, lu.perm_c)))
        return lu

    monkeypatch.setattr(module, "splu", recorded)
    spectrum(generate_icosphere(4), degree, 10)
    assert len(factors) >= 2
    for per_row, diagonal in factors:
        assert per_row <= max_per_row and diagonal


def _lanczos_missing(module, monkeypatch, drop):
    """eigsh that, on its first call, returns the k+1 smallest pairs less
    the pair at index ``drop``: a Lanczos run that skipped one copy of a
    degenerate eigenvalue and returned the next value instead."""
    real, calls = module.eigsh, []

    def missing(a, k, **kwargs):
        calls.append(k)
        if len(calls) > 1:
            return real(a, k, **kwargs)
        w, vecs = real(a, k + 1, **kwargs)
        order = np.delete(np.argsort(w), drop)
        return w[order], vecs[:, order]

    monkeypatch.setattr(module, "eigsh", missing)
    return calls


@pytest.mark.parametrize("drop, passes", [(0, 2), (2, 2), (8, 2), (9, 1)])
def test_missed_eigenpair_is_found_again(monkeypatch, drop, passes):
    # icosphere(2), degree 0: 0, 2.0 x3, 5.86 x5, 11.13 x3, 11.49 x4;
    # dropping index 9 brings in index 10, an equal value
    module = importlib.import_module("hodgebench.spectrum")
    mesh = generate_icosphere(2, 1.0)
    want, scale = _dense_values(mesh, 0)
    assert np.ptp(want[9:12]) < 1e-12 * scale and want[8] < want[9] - 1.0
    calls = _lanczos_missing(module, monkeypatch, drop)
    rep = spectrum(mesh, 0, 10)
    assert len(calls) == passes and rep.method == "shift-invert"
    assert np.abs(rep.eigenvalues - want[:10]).max() <= 1e-12 * scale


def test_moved_icosphere_missed_copy_is_found_again():
    # unpatched Lanczos returned four of the five copies of 5.488 here,
    # and 9.283 in place of the fifth
    from test_hodge_split import SURFACES, _moved

    mesh = _moved(SURFACES["ico1"], np.random.default_rng(6387))
    want, scale = _dense_values(mesh, 0)
    rep = spectrum(mesh, 0, 13)
    assert np.abs(rep.eigenvalues - want[:13]).max() <= 1e-12 * scale
    assert [c[1] for c in rep.clusters] == [1, 3, 5, 3, 1]


def test_count_no_pass_confirms_leaves_the_values(monkeypatch):
    # an inertia count that a deflated Lanczos pass cannot confirm is
    # doubted, and the first pass's values stand
    module = importlib.import_module("hodgebench.spectrum")
    mesh = generate_icosphere(2, 1.0)
    plain = spectrum(mesh, 0, 10).eigenvalues
    calls = []
    real = module._lanczos

    def counted(*args, **kwargs):
        calls.append(kwargs)
        return real(*args, **kwargs)

    monkeypatch.setattr(module, "_count_below", lambda a, b, tau: a.shape[0])
    monkeypatch.setattr(module, "_lanczos", counted)
    assert spectrum(mesh, 0, 10).eigenvalues.tolist() == plain.tolist()
    assert len(calls) == 2


def _sliver_icosphere(eps):
    """icosphere(2) with vertex a of face 0 moved to eps from the midpoint
    of the opposite edge bc, on the side where a was: face 0 a sliver."""
    mesh = generate_icosphere(2, 1.0)
    verts = mesh.vertices.copy()
    a, b, c = mesh.cells[0]
    mid = (verts[b] + verts[c]) / 2.0
    away = verts[a] - mid
    verts[a] = mid + eps * away / np.linalg.norm(away)
    return MeshComplex(verts, mesh.cells)


def test_sliver_face_spectra_reach_their_limit():
    # the IDT flips absorb the sliver: as eps -> 0 the five smallest values
    # of each degree settle (they move 3.5e-8 relative from 1e-6 to 1e-14)
    first = None
    for eps in (1e-6, 1e-10, 1e-14):
        mesh = _sliver_icosphere(eps)
        reports = [spectrum(mesh, degree, 5) for degree in (0, 1, 2)]
        assert [rep.count("harmonic") for rep in reports] == [1, 0, 1]
        first = first or reports
        for rep, ref in zip(reports, first):
            assert rep.families == ref.families
            nonzero = np.array(ref.families) != "harmonic"
            w, w_ref = rep.eigenvalues[nonzero], ref.eigenvalues[nonzero]
            assert (np.abs(w - w_ref) <= 1e-6 * w_ref).all()


def _cut_dec(mesh):
    """DEC operators with the weights of the edges crossing z = 0.05 zeroed:
    the cotan Laplacian then sees two components where the sphere has one."""
    dec = assemble_dec(mesh)
    above = mesh.vertices[:, 2] > 0.05
    dec.star1 = np.where(above[dec.edges[:, 0]] != above[dec.edges[:, 1]], 0.0, dec.star1)
    return dec


def test_wrong_harmonic_count_raises():
    mesh = generate_icosphere(2, 1.0)
    with pytest.raises(SolverError, match="2 harmonic eigenvalues .* but b0 = 1"):
        spectrum(mesh, 0, 6, dec=_cut_dec(mesh))


def test_degree_out_of_range():
    with pytest.raises(ValueError):
        spectrum(generate_icosphere(1, 1.0), 3, 4)


def test_lambda_1p_is_min_over_families():
    rep = spectrum(generate_icosphere(2, 1.0), 1, 8)
    lam = rep.first_positive()
    assert lam == min(rep.first_positive("exact"), rep.first_positive("coexact"))


# ---------------------------------------------------------------------------
# sphere oracle


def test_sphere_oracle_values():
    assert sphere_hodge_oracle(2, 1) == (2.0, 3)
    assert sphere_hodge_oracle(3, 2) == (4.0, 6)
    for p in range(1, 6):
        lam, mult = sphere_hodge_oracle(2 * p - 1, p)
        assert lam == p * p
        assert mult == comb(2 * p, p)


def test_sphere_oracle_duality_symmetry():
    for n in range(1, 11):
        for p in range(1, n + 1):
            lam, mult = sphere_hodge_oracle(n, p)
            lam_dual, mult_dual = sphere_hodge_oracle(n, n - p + 1)
            assert lam == lam_dual
            assert mult == mult_dual


def test_sphere_oracle_range_errors():
    with pytest.raises(ValueError):
        sphere_hodge_oracle(3, 0)
    with pytest.raises(ValueError):
        sphere_hodge_oracle(3, 4)


# ---------------------------------------------------------------------------
# reports


def test_report_serialization():
    rep = spectrum(generate_icosphere(1, 1.0), 0, 5)
    data = json.loads(json.dumps(rep.to_dict()))
    assert data == rep.to_dict()
    assert data["degree"] == 0
    assert data["eigenvalues"] == rep.eigenvalues.tolist()
    assert len(data["families"]) == len(data["cluster_ids"]) == 5


def test_solver_error_on_bad_k():
    with pytest.raises(ValueError):
        spectrum(generate_icosphere(1, 1.0), 0, 0)


@pytest.mark.parametrize("tol", [np.nan, np.inf, 0.0, -1.0, True, None],
                         ids=["nan", "inf", "zero", "negative", "bool", "none"])
def test_spectrum_refuses_a_bad_cluster_tol(tol):
    # a NaN or infinite tolerance put all ten eigenvalues of icosphere(2) in
    # one cluster, where the default gives four
    with pytest.raises(ValueError, match="cluster_tol must be a finite positive number"):
        spectrum(generate_icosphere(2), 0, 10, cluster_tol=tol)
