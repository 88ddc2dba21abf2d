"""Property tests of the exterior-algebra core."""

from math import comb

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

import exterior_oracle as oracle
from hodgebench.exterior import (
    AlternatingForm,
    _batch_d,
    _batch_delta,
    hodge_star,
    induced_endomorphism,
    interior_product,
    split_at_boundary,
    wedge,
)

seeds = st.integers(0, 2**32 - 1)
dims = st.integers(1, 7)


def _form(rng, n, p):
    return AlternatingForm(n, p, rng.standard_normal(comb(n, p)))


def _degrees(rng, n, lo=0):
    """Two degrees p, q >= lo with p + q <= n (requires 2 * lo <= n)."""
    p = int(rng.integers(lo, n - lo + 1))
    return p, int(rng.integers(lo, n - p + 1))


@given(n=dims, seed=seeds)
@settings(max_examples=60, deadline=None)
def test_wedge_graded_commutativity(n, seed):
    rng = np.random.default_rng(seed)
    p, q = _degrees(rng, n)
    a, b = _form(rng, n, p), _form(rng, n, q)
    sign = -1.0 if (p * q) & 1 else 1.0
    assert np.allclose(wedge(a, b).coeffs, sign * wedge(b, a).coeffs, rtol=0, atol=1e-12)


@given(n=dims, seed=seeds)
@settings(max_examples=60, deadline=None)
def test_star_star_sign(n, seed):
    rng = np.random.default_rng(seed)
    p = int(rng.integers(0, n + 1))
    a = _form(rng, n, p)
    sign = -1.0 if (p * (n - p)) & 1 else 1.0
    assert np.array_equal(hodge_star(hodge_star(a)).coeffs, sign * a.coeffs)


@given(n=st.integers(2, 7), seed=seeds)
@settings(max_examples=60, deadline=None)
def test_interior_product_is_antiderivation(n, seed):
    # i_v (a ^ b) = (i_v a) ^ b + (-1)^p a ^ (i_v b)
    rng = np.random.default_rng(seed)
    p, q = _degrees(rng, n, lo=1)
    a, b = _form(rng, n, p), _form(rng, n, q)
    v = rng.standard_normal(n)
    lhs = interior_product(v, wedge(a, b)).coeffs
    sign = -1.0 if p & 1 else 1.0
    rhs = wedge(interior_product(v, a), b).coeffs + sign * wedge(a, interior_product(v, b)).coeffs
    assert np.allclose(lhs, rhs, rtol=0, atol=1e-11)


@given(n=st.integers(2, 7), seed=seeds)
@settings(max_examples=60, deadline=None)
def test_split_reconstruct_round_trip(n, seed):
    rng = np.random.default_rng(seed)
    p = int(rng.integers(1, n + 1))
    a = _form(rng, n, p)
    normal = rng.standard_normal(n)
    normal /= np.linalg.norm(normal)
    sp = split_at_boundary(a, normal)
    back = oracle.reconstruct(sp.tangential.coeffs, sp.normal.coeffs, normal, p)
    assert np.allclose(back, a.coeffs, rtol=0, atol=1e-12)
    total = sp.tangential.norm() ** 2 + sp.normal.norm() ** 2
    assert abs(total - a.norm() ** 2) <= 1e-12 * max(1.0, a.norm() ** 2)


@given(
    dim=st.integers(1, 6),
    degree_pick=st.integers(0, 6),
    m=st.sampled_from([0, 1, 7, 500]),
    exponent=st.integers(-8, 8),
    seed=seeds,
)
@settings(max_examples=200, deadline=None)
def test_batched_d_delta_match_contraction(dim, degree_pick, m, exponent, seed):
    # the matrix-product forms against the per-point einsum contractions; in
    # dim <= 3, where the ledgers use them, the two are bit-identical
    degree = degree_pick % (dim + 1)
    rng = np.random.default_rng(seed)
    jac = rng.standard_normal((m, comb(dim, degree), dim)) * 10.0**exponent
    tol = 1e-15 * (np.abs(jac).max() if m else 0.0)
    pairs = [(_batch_d, oracle.batch_d)]
    if degree >= 1:
        pairs.append((_batch_delta, oracle.batch_delta))
    for got_fn, want_fn in pairs:
        got, want = got_fn(jac, degree, dim), want_fn(jac, degree, dim)
        assert got.shape == want.shape
        if dim <= 3:
            assert np.array_equal(got, want)
        else:
            assert np.abs(got - want).max(initial=0.0) <= tol


def test_induced_matrices_keep_positive_zeros():
    # zero base entries of either sign leave +0.0 entries, as in the slot loop
    for n in range(2, 6):
        base = np.diag(np.arange(n, dtype=float))
        base[0, 1] = base[1, 0] = base[n - 1, n - 1] = -0.0
        for p in range(n + 1):
            got = induced_endomorphism(base, p).matrix
            assert got.tobytes() == oracle.derivation_matrix(base, p).tobytes(), (n, p)
