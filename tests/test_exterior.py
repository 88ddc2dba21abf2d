import itertools

import numpy as np
import pytest

import exterior_oracle as oracle
from hodgebench.exterior import (
    AlternatingForm,
    _batch_tangential,
    duality_identity_residual,
    hodge_star,
    induced_endomorphism,
    interior_basis_stack,
    interior_product,
    multi_indices,
    split_at_boundary,
    star_matrix,
    tangent_frame,
    wedge,
    wedge_basis_stack,
)

rng = np.random.default_rng(20240817)


def basis(dim, *index):
    return AlternatingForm.basis(dim, tuple(index))


def random_form(dim, degree):
    from math import comb

    return AlternatingForm(dim, degree, rng.standard_normal(comb(dim, degree)))


def random_symmetric(n):
    a = rng.standard_normal((n, n))
    return (a + a.T) / 2


# ---------------------------------------------------------------------------
# wedge


def test_wedge_basis_case():
    out = wedge(basis(3, 0), basis(3, 1))
    assert np.allclose(out.coeffs, basis(3, 0, 1).coeffs)


def test_wedge_antisymmetry():
    out = wedge(basis(3, 0), basis(3, 0))
    assert np.allclose(out.coeffs, 0.0)


def test_wedge_bilinearity_example():
    a = basis(3, 0) + basis(3, 1)
    out = wedge(a, basis(3, 1))
    assert np.allclose(out.coeffs, basis(3, 0, 1).coeffs)


def test_wedge_graded_anticommutativity():
    for n, p, q in [(4, 1, 2), (5, 2, 2), (5, 1, 3), (6, 2, 3)]:
        a, b = random_form(n, p), random_form(n, q)
        ab = wedge(a, b)
        ba = wedge(b, a)
        sign = (-1.0) ** (p * q)
        assert np.allclose(ab.coeffs, sign * ba.coeffs, atol=1e-13)


def test_wedge_associative():
    a, b, c = random_form(5, 1), random_form(5, 2), random_form(5, 1)
    left = wedge(wedge(a, b), c)
    right = wedge(a, wedge(b, c))
    assert np.allclose(left.coeffs, right.coeffs, atol=1e-12)


def test_wedge_errors():
    with pytest.raises(ValueError):
        wedge(random_form(3, 1), random_form(4, 1))
    with pytest.raises(ValueError):
        wedge(random_form(3, 2), random_form(3, 2))


# ---------------------------------------------------------------------------
# hodge star


def test_star_orientation_convention():
    out = hodge_star(basis(3, 0))
    assert np.allclose(out.coeffs, basis(3, 1, 2).coeffs)
    # e_I ^ star e_I = volume form, for every basis form
    for n in range(2, 6):
        for p in range(n + 1):
            for idx in multi_indices(n, p):
                e = AlternatingForm.basis(n, idx)
                vol = wedge(e, hodge_star(e))
                assert np.allclose(vol.coeffs, basis(n, *range(n)).coeffs)


def test_basis_refuses_bad_multi_index():
    for dim, index in ((3, (1, 0)), (3, (0, 0)), (3, (0, 3)), (3, (-1, 0)), (2, (0, 1, 2))):
        with pytest.raises(ValueError):
            AlternatingForm.basis(dim, index)


def test_star_involution_sign():
    e1 = basis(2, 0)
    assert np.allclose(hodge_star(hodge_star(e1)).coeffs, -e1.coeffs)
    for n in range(2, 7):
        for p in range(n + 1):
            a = random_form(n, p)
            twice = hodge_star(hodge_star(a))
            sign = (-1.0) ** (p * (n - p))
            assert np.allclose(twice.coeffs, sign * a.coeffs)


def test_star_isometry():
    for _ in range(20):
        a = random_form(5, 2)
        assert abs(hodge_star(a).norm() - a.norm()) < 1e-12


# ---------------------------------------------------------------------------
# interior product


def test_interior_basis_contraction():
    e12 = basis(3, 0, 1)
    assert np.allclose(interior_product([1, 0, 0], e12).coeffs, basis(3, 1).coeffs)
    assert np.allclose(interior_product([0, 1, 0], e12).coeffs, -basis(3, 0).coeffs)


def test_interior_nilpotent():
    for _ in range(20):
        v = rng.standard_normal(3)
        a = basis(3, 0, 1, 2)
        out = interior_product(v, interior_product(v, a))
        assert np.allclose(out.coeffs, 0.0, atol=1e-14)


def test_interior_adjoint_to_wedge():
    # <i_v a, b> = <a, v^* ^ b>
    for n, p in [(4, 2), (5, 3), (6, 2)]:
        v = rng.standard_normal(n)
        a, b = random_form(n, p), random_form(n, p - 1)
        lhs = interior_product(v, a).inner(b)
        rhs = a.inner(wedge(AlternatingForm.covector(v), b))
        assert abs(lhs - rhs) < 1e-11


def test_interior_degree_zero_rejected():
    with pytest.raises(ValueError):
        interior_product([1, 0, 0], AlternatingForm(3, 0, [1.0]))


# ---------------------------------------------------------------------------
# induced endomorphism


def test_induced_diagonal_eigen_sums():
    ext = induced_endomorphism(np.diag([1.0, 2.0, 3.0]), 2)
    assert np.allclose(ext.matrix, np.diag([3.0, 4.0, 5.0]))


def test_induced_top_degree_is_trace():
    ext = induced_endomorphism(np.diag([1.0, 2.0, 3.0]), 3)
    assert np.allclose(ext.matrix, [[6.0]])
    off = np.array([[0.0, 1.0], [1.0, 0.0]])
    assert np.allclose(induced_endomorphism(off, 2).matrix, [[0.0]])


def test_induced_degree_zero_is_zero():
    ext = induced_endomorphism(random_symmetric(4), 0)
    assert ext.matrix.shape == (1, 1)
    assert ext.matrix[0, 0] == 0.0


def test_induced_rejects_nonsymmetric():
    with pytest.raises(ValueError):
        induced_endomorphism(np.array([[0.0, 1.0], [0.0, 0.0]]), 1)


def test_induced_rejects_non_finite_base():
    # NaN and inf pass the symmetry test (NaN > tol is False)
    for bad in (np.nan, np.inf):
        base = np.diag([1.0, bad, 2.0])
        with pytest.raises(ValueError, match="finite"):
            induced_endomorphism(base, 2)


def test_induced_spectrum_is_subset_sums():
    for n in range(2, 7):
        s = random_symmetric(n)
        eta = np.linalg.eigvalsh(s)
        for p in range(1, n + 1):
            got = np.sort(induced_endomorphism(s, p).eigenvalues())
            want = np.sort([sum(c) for c in itertools.combinations(eta, p)])
            assert np.allclose(got, want, atol=1e-10)


def test_induced_symmetry_preserved():
    for n in (3, 5):
        s = random_symmetric(n)
        for p in range(n + 1):
            m = induced_endomorphism(s, p).matrix
            assert np.allclose(m, m.T, atol=1e-12)


def test_induced_quadratic_form_lower_bound():
    # <S^[p] w, w> >= (smallest p-fold eigen-sum) * |w|^2
    for _ in range(25):
        n = int(rng.integers(2, 6))
        p = int(rng.integers(1, n + 1))
        s = random_symmetric(n)
        eta = np.sort(np.linalg.eigvalsh(s))
        sigma_p = eta[:p].sum()
        w = random_form(n, p)
        val = w.coeffs @ induced_endomorphism(s, p).matrix @ w.coeffs
        assert val >= sigma_p * w.norm() ** 2 - 1e-10


# ---------------------------------------------------------------------------
# boundary split


def test_split_normal_aligned_basis():
    sp = split_at_boundary(basis(3, 0), [1.0, 0.0, 0.0])
    assert np.allclose(sp.tangential.coeffs, 0.0)
    assert np.allclose(sp.normal.coeffs, [1.0])


def test_split_tangential_case():
    sp = split_at_boundary(basis(3, 0, 1), [0.0, 0.0, 1.0])
    # normal = e3 keeps the identity frame, so coefficients are literal
    assert np.allclose(sp.tangential.coeffs, basis(2, 0, 1).coeffs)
    assert np.allclose(sp.normal.coeffs, 0.0)


def test_split_norm_identity_random_frames():
    for _ in range(40):
        n = int(rng.integers(2, 7))
        p = int(rng.integers(1, n + 1))
        a = random_form(n, p)
        v = rng.standard_normal(n)
        v /= np.linalg.norm(v)
        sp = split_at_boundary(a, v)
        total = sp.tangential.norm() ** 2 + sp.normal.norm() ** 2
        assert abs(total - a.norm() ** 2) < 1e-12


def test_split_reconstruct_roundtrip():
    for _ in range(20):
        n = int(rng.integers(2, 6))
        p = int(rng.integers(1, n + 1))
        a = random_form(n, p)
        v = rng.standard_normal(n)
        v /= np.linalg.norm(v)
        sp = split_at_boundary(a, v)
        back = oracle.reconstruct(sp.tangential.coeffs, sp.normal.coeffs, v, p)
        assert np.allclose(back, a.coeffs, atol=1e-11)


def test_split_rejects_non_unit_normal():
    with pytest.raises(ValueError):
        split_at_boundary(basis(3, 0), [1.0, 1.0, 0.0])


def test_split_rejects_non_finite_normal():
    for bad in ([np.nan, 0.0, 1.0], [np.inf, 0.0, 0.0]):
        with pytest.raises(ValueError):
            split_at_boundary(basis(3, 0), bad)


def test_tangent_frame_orthonormal():
    for _ in range(20):
        n = int(rng.integers(2, 8))
        v = rng.standard_normal(n)
        v /= np.linalg.norm(v)
        f = tangent_frame(v)
        assert np.allclose(f.T @ f, np.eye(n - 1), atol=1e-13)
        assert np.allclose(f.T @ v, 0.0, atol=1e-13)


def test_tangential_part_is_tangential():
    for _ in range(20):
        a = random_form(4, 2)
        v = rng.standard_normal(4)
        v /= np.linalg.norm(v)
        t = AlternatingForm(4, 2, _batch_tangential(a.coeffs[None], v[None], 2)[0])
        assert np.allclose(interior_product(v, t).coeffs, 0.0, atol=1e-12)


# ---------------------------------------------------------------------------
# duality identity


def test_duality_identity_isotropic():
    assert duality_identity_residual(np.eye(2), 1) < 1e-14


def test_duality_identity_diag_explicit():
    assert duality_identity_residual(np.diag([1.0, 2.0, 3.0]), 1) <= 1e-12


def test_duality_identity_random_all_degrees():
    for n in range(2, 9):
        s = random_symmetric(n)
        for p in range(n + 1):
            assert duality_identity_residual(s, p) <= 1e-10


def test_duality_identity_rejects_non_finite():
    s = random_symmetric(3)
    s[0, 1] = s[1, 0] = np.inf
    # not numpy's LinAlgError (a ValueError subclass) from the SVD
    with pytest.raises(ValueError, match="finite"):
        duality_identity_residual(s, 1)


@pytest.mark.parametrize("base", [1.0, [1.0, 2.0], np.zeros((2, 3)), np.zeros((2, 2, 2))])
def test_duality_identity_rejects_malformed_bases(base):
    # the base is checked before its size is read: 1.0 once raised IndexError
    with pytest.raises(ValueError, match="square matrix"):
        duality_identity_residual(base, 0)
    with pytest.raises(ValueError, match="square matrix"):
        induced_endomorphism(base, 0)


# ---------------------------------------------------------------------------
# structure stacks agree with the scalar operations


def test_stacks_match_scalar_ops():
    n = 4
    for p in range(0, n):
        w_stack = wedge_basis_stack(n, p)
        for k in range(n):
            for r, idx in enumerate(multi_indices(n, p)):
                e = AlternatingForm.basis(n, idx)
                want = wedge(AlternatingForm.basis(n, (k,)), e)
                assert np.allclose(w_stack[k, :, r], want.coeffs)
    for p in range(1, n + 1):
        i_stack = interior_basis_stack(n, p)
        for k in range(n):
            unit = np.zeros(n)
            unit[k] = 1.0
            for r, idx in enumerate(multi_indices(n, p)):
                want = interior_product(unit, AlternatingForm.basis(n, idx))
                assert np.allclose(i_stack[k, :, r], want.coeffs)


def test_star_matrix_matches_scalar():
    for n in (2, 3, 5):
        for p in range(n + 1):
            m = star_matrix(n, p)
            for r, idx in enumerate(multi_indices(n, p)):
                want = hodge_star(AlternatingForm.basis(n, idx))
                assert np.allclose(m[:, r], want.coeffs)


# ---------------------------------------------------------------------------
# invariants


def test_form_immutable():
    a = random_form(3, 1)
    with pytest.raises(ValueError):
        a.coeffs[0] = 5.0
    with pytest.raises(AttributeError):
        a.degree = 2


def test_form_rejects_non_finite_coefficients():
    for bad in (np.nan, np.inf, -np.inf):
        with pytest.raises(ValueError):
            AlternatingForm(3, 1, [1.0, bad, 0.0])


def test_scalar_and_top_forms_have_one_coefficient():
    assert AlternatingForm.zero(5, 0).coeffs.size == 1
    assert AlternatingForm.zero(5, 5).coeffs.size == 1
