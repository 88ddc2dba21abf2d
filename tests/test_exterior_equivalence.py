"""The structure-stack exterior core against the loop implementations.

Induced operators and generator stacks must match the slot-substitution
loops bit for bit; wedge, split and the tangential part must match the
loops and the determinant compound to 1e-14, and the loop reconstruction
must invert the split; the batched boundary identity checks
must match the per-point checks to 1e-12.  The stacks, induced matrices and
duality residuals built from enumerated nonzeros must match the dense
structure tensors they replaced byte for byte.  The batched boundary
kernels (interior product, wedge with a vector, the derivation S^[p]) sum
per-output term tables, and the shape projection shared by the discrete
ledgers and ``ellipsoid_shape_world`` sums its terms one by one; both must
match the einsum contractions they replaced byte for byte, at every
dimension, degree and point count.
"""

from math import comb

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import exterior_oracle as oracle
from hodgebench.exterior import (
    AlternatingForm,
    _batch_interior,
    _batch_shape,
    _batch_tangential,
    _batch_wedge_vec,
    _contraction_terms,
    _induced_matrix,
    duality_identity_residual,
    induced_endomorphism,
    induced_generator_stack,
    interior_basis_stack,
    split_at_boundary,
    star_matrix,
    wedge,
    wedge_basis_stack,
)
from hodgebench.fields import FormField, named_form_field, named_scalar_field
from hodgebench.meshes import ellipsoid_shape_world
from hodgebench.reilly import (
    SphereSurface,
    _project,
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


@pytest.mark.parametrize("dim", range(1, 9))
def test_structure_stacks_match_the_dense_construction(dim):
    for p in range(dim + 1):
        pairs = [
            (star_matrix(dim, p), oracle.dense_star_matrix(dim, p)),
            (induced_generator_stack(dim, p), oracle.dense_generator_stack(dim, p)),
        ]
        if p < dim:
            pairs.append((wedge_basis_stack(dim, p), oracle.dense_wedge_basis_stack(dim, p)))
        if p > 0:
            pairs.append((interior_basis_stack(dim, p), oracle.dense_interior_basis_stack(dim, p)))
        for got, want in pairs:
            assert got.shape == want.shape and got.flags.c_contiguous, p
            assert got.tobytes() == want.tobytes(), p


def _signed_zero_bases(rng, n, count):
    """Symmetric bases with zeroed entries of either sign, a mirrored pair
    possibly of opposite signs; the first is all -0.0."""
    yield np.full((n, n), -0.0)
    for _ in range(count - 1):
        a = rng.standard_normal((n, n))
        base = (a + a.T) / 2
        zero = rng.random((n, n)) < 0.4
        zero |= zero.T
        base[zero] = np.where(rng.random(int(zero.sum())) < 0.5, -0.0, 0.0)
        yield base


@pytest.mark.parametrize("dim", range(1, 9))
def test_induced_matrices_and_duality_match_the_dense_construction(dim):
    rng = np.random.default_rng(300 + dim)
    for base in _signed_zero_bases(rng, dim, 25):
        for p in range(dim + 1):
            want = oracle.dense_induced_matrix(base, p).tobytes()
            assert _induced_matrix(base, p).tobytes() == want, p
            assert induced_endomorphism(base, p).matrix.tobytes() == want, p
            got = np.float64(duality_identity_residual(base, p))
            assert got.tobytes() == np.float64(oracle.dense_duality_identity_residual(base, p)).tobytes(), p


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
    got = check_derivative_formulas(df, sphere, pts, h=1e-4)
    want = oracle.check_derivative_formulas(df, sphere, pts, h=1e-4)
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



# ---------------------------------------------------------------------------
# batched boundary kernels against their einsum contractions

POINT_COUNTS = (0, 1, 7, 64, 240, 3840)


def _values(rng, shape, zeros, exponent, strided):
    """Normal values scaled by 10**exponent, a share of them +-0.0; with
    ``strided``, a view into a wider array, as a sliced kernel output is."""
    out = rng.standard_normal(shape) * 10.0**exponent
    zero = rng.random(shape) < zeros
    out[zero] = np.where(rng.random(int(zero.sum())) < 0.5, -0.0, 0.0)
    if strided:
        wide = np.zeros(shape[:-1] + (shape[-1] + 1,))
        wide[..., : shape[-1]] = out
        out = wide[..., : shape[-1]]
    return out


kernel_cases = dict(
    dim=st.integers(2, 6),
    count=st.sampled_from(POINT_COUNTS),
    data=st.data(),
    seed=st.integers(0, 2**32 - 1),
    zeros=st.sampled_from((0.0, 0.3, 1.0)),
    exponent=st.integers(-30, 30),
)


@given(strided=st.booleans(), **kernel_cases)
@settings(max_examples=60, deadline=None)
def test_interior_and_wedge_tables_equal_einsum(dim, count, data, seed, zeros, exponent, strided):
    rng = np.random.default_rng(seed)
    normals = _values(rng, (count, dim), zeros, 0, strided)
    p = data.draw(st.integers(1, dim), label="interior degree")
    coeffs = _values(rng, (count, comb(dim, p)), zeros, exponent, strided)
    got = _batch_interior(coeffs, normals, p)
    assert got.tobytes() == oracle.batch_interior(coeffs, normals, p).tobytes()
    p = data.draw(st.integers(0, dim - 1), label="wedge degree")
    coeffs = _values(rng, (count, comb(dim, p)), zeros, exponent, strided)
    got = _batch_wedge_vec(coeffs, normals, p)
    assert got.tobytes() == oracle.batch_wedge_vec(coeffs, normals, p).tobytes()


@given(**kernel_cases)
@settings(max_examples=60, deadline=None)
def test_shape_table_equals_einsum(dim, count, data, seed, zeros, exponent):
    # the ledgers pass C-ordered, symmetric shape stacks
    rng = np.random.default_rng(seed)
    p = data.draw(st.integers(0, dim), label="degree")
    a = _values(rng, (count, dim, dim), zeros, exponent, False)
    shape = a + a.transpose(0, 2, 1)
    coeffs = _values(rng, (count, comb(dim, p)), zeros, 0, data.draw(st.booleans(), label="strided"))
    got = _batch_shape(coeffs, shape, p)
    assert got.tobytes() == oracle.batch_shape(coeffs, shape, p).tobytes()


@pytest.mark.parametrize("dim", range(2, 7))
def test_every_degree_of_every_table_equals_einsum(dim):
    rng = np.random.default_rng(dim)
    for count in POINT_COUNTS:
        normals = _values(rng, (count, dim), 0.2, 0, False)
        a = _values(rng, (count, dim, dim), 0.2, 0, False)
        shape = a + a.transpose(0, 2, 1)
        for p in range(dim + 1):
            coeffs = _values(rng, (count, comb(dim, p)), 0.2, 0, False)
            pairs = [(_batch_shape(coeffs, shape, p), oracle.batch_shape(coeffs, shape, p))]
            if p > 0:
                pairs.append((_batch_interior(coeffs, normals, p), oracle.batch_interior(coeffs, normals, p)))
            if p < dim:
                pairs.append((_batch_wedge_vec(coeffs, normals, p), oracle.batch_wedge_vec(coeffs, normals, p)))
            for got, want in pairs:
                assert got.shape == want.shape and got.tobytes() == want.tobytes(), (count, p)


def test_term_tables_are_cached_and_read_only():
    for kind, degree in (("interior", 2), ("wedge", 1), ("shape", 2)):
        table = _contraction_terms(kind, 4, degree)
        assert table is _contraction_terms(kind, 4, degree)
        assert not any(arr.flags.writeable for arr in table)


@given(
    count=st.sampled_from(POINT_COUNTS),
    seed=st.integers(0, 2**32 - 1),
    zeros=st.sampled_from((0.0, 0.3)),
    exponent=st.integers(-30, 30),
)
@settings(max_examples=40, deadline=None)
def test_shape_projection_equals_einsum(count, seed, zeros, exponent):
    rng = np.random.default_rng(seed)
    n = _values(rng, (count, 3), zeros, 0, False)
    n /= np.where(n.any(axis=1), np.linalg.norm(n, axis=1), 1.0)[:, None]
    proj = np.eye(3)[None] - np.einsum("mi,mj->mij", n, n)
    s = _values(rng, (count, 3, 3), zeros, exponent, False)
    assert _project(proj, s).tobytes() == oracle.project(proj, s).tobytes()


@pytest.mark.parametrize("count", [0, 1, 3840])
@pytest.mark.parametrize("axes", [(1.0, 1.2, 1.5), (1.0, 1.0, 1.0), (0.9, 1.3, 1.1), (2.0, 0.5, 1e-3)])
def test_ellipsoid_shape_world_equals_einsum(axes, count):
    points = oracle.EllipsoidSurface(axes).project(sphere_sample_points(count, seed=count + 1))
    weights = 1.0 / np.asarray(axes) ** 2
    grad = 2.0 * points * weights
    gnorm = np.linalg.norm(grad, axis=1)
    nu = grad / gnorm[:, None]
    proj = np.eye(3)[None] - np.einsum("mi,mj->mij", nu, nu)
    hess = np.diag(2.0 * weights)[None] / gnorm[:, None, None]
    assert ellipsoid_shape_world(points, axes).tobytes() == oracle.project(proj, hess).tobytes()
