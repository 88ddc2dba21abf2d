"""The structure-stack exterior core against the loop implementations.

Induced operators and generator stacks must match the slot-substitution
loops bit for bit; wedge, split and the tangential part must match the
loops and the determinant compound to 1e-14, and the loop reconstruction
must invert the split; the batched boundary identity checks
must match the per-point checks to 1e-12.
"""

from math import comb

import numpy as np
import pytest

import exterior_oracle as oracle
from hodgebench.exterior import (
    AlternatingForm,
    _batch_tangential,
    induced_endomorphism,
    induced_generator_stack,
    split_at_boundary,
    wedge,
)
from hodgebench.fields import FormField, named_form_field, named_scalar_field
from hodgebench.reilly import (
    SphereSurface,
    check_commutation,
    check_derivative_formulas,
    restriction_identity_residuals,
    sphere_sample_points,
)


def _acceptance_sweep():
    """The 200 symmetric matrices of acceptance criterion 1 (n cycles 2..8)."""
    rng = np.random.default_rng(101)
    for trial in range(200):
        n = 2 + trial % 7
        a = rng.standard_normal((n, n))
        yield (a + a.T) / 2


def test_induced_matrices_bit_identical_on_acceptance_sweep():
    for s in _acceptance_sweep():
        for p in range(len(s) + 1):
            got = induced_endomorphism(s, p).matrix
            assert np.array_equal(got, oracle.derivation_matrix(s, p)), (len(s), p)


@pytest.mark.parametrize("dim", range(1, 7))
def test_generator_stacks_bit_identical(dim):
    for p in range(dim + 1):
        got = induced_generator_stack(dim, p)
        assert got.flags.c_contiguous
        assert np.array_equal(got, oracle.generator_stack(dim, p)), p


def _random_form(rng, n, p):
    return AlternatingForm(n, p, rng.standard_normal(comb(n, p)))


def _unit(rng, n):
    v = rng.standard_normal(n)
    return v / np.linalg.norm(v)


def test_wedge_matches_loop():
    rng = np.random.default_rng(7)
    for n in range(1, 8):
        for p in range(n + 1):
            for q in range(n - p + 1):
                a, b = _random_form(rng, n, p), _random_form(rng, n, q)
                got = wedge(a, b).coeffs
                assert np.abs(got - oracle.wedge(a, b).coeffs).max() <= 1e-14


def test_split_and_reconstruct_match_determinant_compound():
    rng = np.random.default_rng(8)
    for n in range(2, 8):
        for p in range(1, n + 1):
            a, v = _random_form(rng, n, p), _unit(rng, n)
            sp = split_at_boundary(a, v)
            tang, norm = oracle.split_at_boundary(a, v)
            assert np.abs(sp.tangential.coeffs - tang).max() <= 1e-14
            assert np.abs(sp.normal.coeffs - norm).max() <= 1e-14
            back = oracle.reconstruct(sp.tangential.coeffs, sp.normal.coeffs, v, p)
            assert np.abs(back - a.coeffs).max() <= 1e-14


def test_tangential_part_matches_loop():
    rng = np.random.default_rng(9)
    for n in range(2, 7):
        for p in range(n + 1):
            a, v = _random_form(rng, n, p), _unit(rng, n)
            got = _batch_tangential(a.coeffs[None], v[None], p)[0]
            assert np.abs(got - oracle.tangential_part(a, v).coeffs).max() <= 1e-14


SPHERE = SphereSurface(1.0)
POINTS = sphere_sample_points(24, seed=17)
FIELDS = ["parallel-dx1", "parallel-dx12", "x2dx1", "x1-vol"]


def _close(got, want, tol=1e-12):
    return all(abs(g - w) <= tol for g, w in zip(got, want))


@pytest.mark.parametrize("name", FIELDS)
@pytest.mark.parametrize("method", ["fd", "analytic"])
def test_batched_commutation_matches_per_point(name, method):
    form = named_form_field(name)
    got = check_commutation(form, SPHERE, POINTS, method=method)
    want = oracle.check_commutation(form, SPHERE, POINTS, method=method)
    assert _close(got, want), (got, want)


def test_batched_commutation_matches_per_point_fd_field():
    f = named_scalar_field("radial-sq")
    df = FormField(1, f.gradient, f.hessian, name="d(radial-sq)")
    sphere = SphereSurface(2.0, center=[0.1, -0.2, 0.3])
    pts = sphere.project(POINTS)
    got = check_commutation(df, sphere, pts, h=1e-4)
    want = oracle.check_commutation(df, sphere, pts, h=1e-4)
    assert _close(got, want), (got, want)


@pytest.mark.parametrize("name", FIELDS)
def test_batched_derivative_formulas_match_per_point(name):
    form = named_form_field(name)
    got = check_derivative_formulas(form, SPHERE, POINTS, seed=23)
    want = oracle.check_derivative_formulas(form, SPHERE, POINTS, seed=23)
    assert _close(got, want), (got, want)


def test_batched_restriction_matches_per_point():
    cases = [
        (AlternatingForm(3, 1, [0.3, -1.2, 0.5]), 1.0),
        (AlternatingForm(3, 2, [1.0, 0.0, -2.0]), 10.0),
        (AlternatingForm(3, 3, [1.5]), 1.0),
        (AlternatingForm(5, 2, np.arange(10, dtype=float) - 4.5), 2.0),
    ]
    for xi, radius in cases:
        got = restriction_identity_residuals(xi, radius=radius)
        want = oracle.restriction_identity_residuals(xi, radius=radius)
        assert _close(got, want), (xi, got, want)


def test_zero_points_give_zero_residuals():
    empty = np.empty((0, 3))
    form = named_form_field("x2dx1")
    assert check_commutation(form, SPHERE, empty) == (0.0, 0.0)
    assert check_derivative_formulas(form, SPHERE, empty) == (0.0, 0.0)
    assert restriction_identity_residuals(AlternatingForm(3, 1, [1.0, 0, 0]), points=empty) == (0.0, 0.0)

