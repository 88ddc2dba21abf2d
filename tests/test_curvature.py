import itertools

import numpy as np
import pytest

from hodgebench.curvature import (
    CurvatureTerm,
    ShapeData,
    bourguignon_w,
    gallot_meyer_bound,
    is_p_convex,
    lowest_p_curvature,
    lowest_p_curvature_global,
    p_curvature_list,
    sum_largest_squared_curvatures,
    write_vertex_curvature_csv,
)
from hodgebench.exterior import induced_endomorphism

rng = np.random.default_rng(20240818)


def random_symmetric(n):
    a = rng.standard_normal((n, n))
    return (a + a.T) / 2


def test_p_curvature_enumeration():
    assert np.allclose(p_curvature_list([-1, 0, 2], 2), [-1, 1, 2])
    assert lowest_p_curvature([-1, 0, 2], 2) == -1


def test_unit_sphere_p_curvatures():
    for n in range(1, 7):
        eta = np.ones(n)
        for p in range(1, n + 1):
            assert lowest_p_curvature(eta, p) == p


def test_radius_scaling():
    r = 2.5
    eta = np.ones(4) / r
    for p in range(1, 5):
        assert np.isclose(lowest_p_curvature(eta, p), p / r)


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
        sig = [lowest_p_curvature(eta, p) for p in range(1, n + 1)]
        for p in range(1, n + 1):
            for q in range(p, n + 1):
                assert sig[p - 1] / p <= sig[q - 1] / q + 1e-12


def test_global_minimum():
    a = ShapeData.from_principal([1.0, 1.0])
    b = ShapeData.from_principal([0.2, 0.3])
    assert lowest_p_curvature_global([a, b], 2) == 0.5
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


def test_sum_largest_squared():
    assert sum_largest_squared_curvatures([3.0, -1.0, 2.0], 2) == 13.0
    for p in range(1, 5):
        eta = np.ones(2 * p - 1)  # unit odd sphere
        assert sum_largest_squared_curvatures(eta, p) == p
    eta = rng.standard_normal(5)
    assert np.isclose(sum_largest_squared_curvatures(eta, 5), (eta**2).sum())


def test_shape_norm_monotone_in_p():
    eta = rng.standard_normal(6)
    vals = [sum_largest_squared_curvatures(eta, p) for p in range(1, 7)]
    assert all(a <= b + 1e-14 for a, b in zip(vals, vals[1:]))


def test_gallot_meyer_values():
    assert gallot_meyer_bound(0.0, 5, 2) == 0.0
    assert gallot_meyer_bound(1.0, 4, 2) == 4.0
    term = CurvatureTerm.constant(1.0)
    assert term.scalar(2, 4) == gallot_meyer_bound(1.0, 4, 2)


def test_bourguignon_values():
    assert bourguignon_w(0.0, 3) == 0.0
    assert bourguignon_w(2.0, 1) == 1.0
    # round 4-sphere: scalar curvature 12, middle degree 2 matches the
    # constant-curvature value p(m-p)kappa = 4
    assert np.isclose(bourguignon_w(12.0, 2), gallot_meyer_bound(1.0, 4, 2))


def test_curvature_term_kinds():
    with pytest.raises(ValueError):
        CurvatureTerm("weird", 1.0)
    lcf = CurvatureTerm.conformally_flat(12.0)
    assert np.isclose(lcf.scalar(2, 4), 4.0)
    with pytest.raises(ValueError):
        lcf.scalar(1, 4)  # only the middle degree


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
        bound = p * sum_largest_squared_curvatures(eta, p) * float((phi**2).sum())
        assert lhs <= bound + 1e-10 * max(1.0, bound)

        s0 = s - np.trace(s) / n * np.eye(n)
        eta0 = np.linalg.eigvalsh(s0)
        ext0 = induced_endomorphism(s0, p).matrix
        lhs0 = float(((ext0 @ phi) ** 2).sum())
        if p < n:
            bound0 = p * (n - p) / n * float((eta0**2).sum()) * float((phi**2).sum())
            assert lhs0 <= bound0 + 1e-10 * max(1.0, bound0)


def test_shape_data_fields():
    s = random_symmetric(3)
    sd = ShapeData.from_matrix(s)
    assert np.allclose(sd.sigma, np.cumsum(sd.principal))
    assert np.isclose(sd.mean, np.trace(s) / 3)
    assert np.isclose(sd.sigma[-1], 3 * sd.mean)
    assert np.allclose(np.linalg.eigvalsh(sd.shape_matrix), sd.principal)


def test_shape_data_rejects_mismatch():
    with pytest.raises(ValueError):
        ShapeData(principal=[5.0, 7.0], shape_matrix=np.eye(2))


def test_csv_export(tmp_path):
    shapes = [ShapeData.from_principal([0.5, 1.5]), ShapeData.from_principal([1.0, 1.0])]
    path = tmp_path / "curv.csv"
    write_vertex_curvature_csv(path, shapes)
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "vertex,eta1,eta2,H,sigma1,sigma2"
    assert len(lines) == 3
    assert lines[1].startswith("0,0.5,1.5,1,0.5,2")
