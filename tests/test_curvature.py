import numpy as np
import pytest

from hodgebench.bounds import GeometryCase
from hodgebench.curvature import is_p_convex, lowest_p_curvature_global, p_curvature_list
from hodgebench.exterior import induced_endomorphism
from hodgebench.meshes import MeshComplex, discrete_shape, generate_ellipsoid

rng = np.random.default_rng(20240818)


def random_symmetric(n):
    a = rng.standard_normal((n, n))
    return (a + a.T) / 2


def test_p_curvature_enumeration():
    assert np.allclose(p_curvature_list([-1, 0, 2], 2), [-1, 1, 2])
    assert lowest_p_curvature_global([[-1, 0, 2]], 2) == -1


def test_unit_sphere_p_curvatures():
    for n in range(1, 7):
        eta = np.ones(n)
        for p in range(1, n + 1):
            assert lowest_p_curvature_global([eta], p) == p


def test_radius_scaling():
    r = 2.5
    eta = np.ones(4) / r
    for p in range(1, 5):
        assert np.isclose(lowest_p_curvature_global([eta], p), p / r)


def test_p_curvatures_match_induced_spectrum():
    for n in (2, 3, 5):
        s = random_symmetric(n)
        eta = np.linalg.eigvalsh(s)
        for p in range(1, n + 1):
            got = p_curvature_list(eta, p)
            want = np.sort(induced_endomorphism(s, p).eigenvalues())
            assert np.allclose(got, want, atol=1e-10)


def test_monotonicity_sigma_over_p():
    for _ in range(50):
        n = int(rng.integers(2, 8))
        eta = rng.standard_normal(n)
        sig = [lowest_p_curvature_global([eta], p) for p in range(1, n + 1)]
        for p in range(1, n + 1):
            for q in range(p, n + 1):
                assert sig[p - 1] / p <= sig[q - 1] / q + 1e-12


def test_global_minimum():
    assert lowest_p_curvature_global([np.array([1.0, 1.0]), np.array([0.3, 0.2])], 2) == 0.5
    assert lowest_p_curvature_global([np.ones(2)], 1) == 1.0
    # an (M, n) array of principal curvatures, rows unsorted
    assert lowest_p_curvature_global(np.array([[1.0, 1.0], [0.3, 0.2]]), 2) == 0.5
    assert lowest_p_curvature_global(np.array([[1.0, 1.0], [0.3, 0.2]]), 1) == 0.2
    with pytest.raises(ValueError):
        lowest_p_curvature_global([], 1)
    with pytest.raises(ValueError):
        lowest_p_curvature_global(np.ones((4, 2)), 3)


def test_p_convexity():
    pts = [np.array([-1.0, 2.0])]
    assert not is_p_convex(pts, 1)
    assert is_p_convex(pts, 2)
    minimal = [np.array([-1.0, 1.0])]
    assert is_p_convex(minimal, 2)
    assert not is_p_convex(minimal, 2, strict=True)


def test_p_convex_implies_q_convex():
    for _ in range(30):
        n = int(rng.integers(2, 7))
        eta = rng.standard_normal(n)
        pts = [eta]
        for p in range(1, n):
            if is_p_convex(pts, p):
                for q in range(p + 1, n + 1):
                    assert is_p_convex(pts, q)


def top_p_squared(eta, p):
    """Sum of the p largest squared principal curvatures, |S|_p^2."""
    return np.sort(np.asarray(eta) ** 2)[-p:].sum()


def test_sum_largest_squared():
    # the bounds' area average of |S|_p^2 over an ellipsoid mesh
    case = GeometryCase.ellipsoid(1.0, 1.1, 1.3, subdivisions=2)
    shape = discrete_shape(case.mesh)
    for p in (1, 2):
        want = sum(a * top_p_squared(eta, p) for a, eta in zip(shape.areas, shape.principal))
        assert np.isclose(case.mean_shape_norm_sq(p), want / shape.areas.sum(), rtol=1e-13)
    # at p = n the partial sum is the full squared norm
    assert np.isclose(case.mean_shape_norm_sq(2), case.mean_shape_norm_sq(), rtol=1e-13)
    for n in (1, 3, 5):
        sphere = GeometryCase.sphere(n, 2.0)
        for p in range(1, n + 1):
            assert sphere.mean_shape_norm_sq(p) == p / 4.0


def test_shape_norm_monotone_in_p():
    case = GeometryCase.sphere(6, 1.5)
    vals = [case.mean_shape_norm_sq(p) for p in range(1, 7)]
    assert all(a <= b for a, b in zip(vals, vals[1:]))
    mesh_case = GeometryCase.ellipsoid(0.9, 1.0, 1.2, subdivisions=2)
    assert mesh_case.mean_shape_norm_sq(1) <= mesh_case.mean_shape_norm_sq(2)


def test_cauchy_schwarz_operator_bounds():
    # |S^[p] phi|^2 <= p |S|_p^2 |phi|^2, and the trace-free variant
    from math import comb

    for _ in range(100):
        n = int(rng.integers(2, 7))
        p = int(rng.integers(1, n + 1))
        s = random_symmetric(n)
        eta = np.linalg.eigvalsh(s)
        phi = rng.standard_normal(comb(n, p))
        ext = induced_endomorphism(s, p).matrix
        lhs = float(((ext @ phi) ** 2).sum())
        bound = p * top_p_squared(eta, p) * float((phi**2).sum())
        assert lhs <= bound + 1e-10 * max(1.0, bound)

        s0 = s - np.trace(s) / n * np.eye(n)
        eta0 = np.linalg.eigvalsh(s0)
        ext0 = induced_endomorphism(s0, p).matrix
        lhs0 = float(((ext0 @ phi) ** 2).sum())
        if p < n:
            bound0 = p * (n - p) / n * float((eta0**2).sum()) * float((phi**2).sum())
            assert lhs0 <= bound0 + 1e-10 * max(1.0, bound0)


@pytest.mark.parametrize("j", range(-120, 121, 7))
def test_quadric_fit_scales_exactly(j):
    # each ring is fit in units of a power of two, so an ellipsoid scaled by
    # 2^j has its curvatures scaled by 2^-j without rounding
    mesh = generate_ellipsoid(1.0, 1.1, 1.2, 2)
    scaled = MeshComplex(np.ldexp(mesh.vertices, j), mesh.cells)
    want = np.ldexp(discrete_shape(mesh).principal, -j)
    assert discrete_shape(scaled).principal.tobytes() == want.tobytes()
