import json

import numpy as np
import pytest

from hodgebench.bounds import (
    MeshCase,
    SphereCase,
    _verdict,
    equality_case_diagnostics,
    main_lower_bound,
    special_killing_relation,
    upper_bound_degree_one,
    upper_bound_degree_p,
    verdict_table,
    xia_bound,
)
from hodgebench.exterior import AlternatingForm
from hodgebench.meshes import MeshComplex, generate_ball, generate_ellipsoid, generate_torus
from hodgebench.reilly import restriction_identity_residuals
from hodgebench.spectrum import sphere_hodge_oracle


# ---------------------------------------------------------------------------
# analytic sphere equalities


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
@pytest.mark.parametrize("radius", [1.0, 2.0, 0.5])
def test_sphere_lower_bound_equality(n, radius):
    case = SphereCase(n, radius)
    for p in range(1, (n + 1) // 2 + 1):
        verdict = main_lower_bound(case, p)
        assert verdict.satisfied
        assert verdict.tightness <= 1e-12


@pytest.mark.parametrize("radius", [1.0, 3.0])
def test_sphere_xia_equality(radius):
    for n in (1, 2, 3, 4):
        verdict = xia_bound(SphereCase(n, radius))
        assert verdict.satisfied
        assert verdict.tightness <= 1e-12
        assert np.isclose(verdict.rhs, n / radius**2)


def test_circle_upper_bound_equality():
    verdict = upper_bound_degree_one(SphereCase(1, 1.0))
    assert verdict.satisfied
    assert verdict.tightness <= 1e-12
    assert verdict.lhs == 1.0 and verdict.rhs == 1.0


def test_sphere_upper_bound_degree_one_satisfied():
    verdict = upper_bound_degree_one(SphereCase(2, 1.0))
    assert verdict.satisfied
    assert verdict.lhs == 2.0 and verdict.rhs == 4.0


def test_upper_bound_degree_p_sharp_at_middle():
    # odd spheres at the middle degree: p^2 <= p * p with equality
    for p in (2, 3, 4):
        n = 2 * p - 1
        verdict = upper_bound_degree_p(SphereCase(n, 1.0), p)
        assert verdict.satisfied
        assert verdict.tightness <= 1e-12
        assert np.isclose(verdict.lhs, p * p)


def test_upper_bound_degree_p_alpha():
    verdict = upper_bound_degree_p(SphereCase(4, 1.0), 2)
    assert verdict.geometry["alpha"] == 3  # max(2, 4-2+1)
    assert verdict.satisfied


def test_upper_bound_degree_p_range_error():
    with pytest.raises(ValueError):
        upper_bound_degree_p(SphereCase(4, 1.0), 1)


def test_convex_lower_bound_dominates_isotropic():
    # for sigma_p >= p*c the product bound dominates p(n-p+1)c^2
    case = SphereCase(4, 2.0)
    c = case.sigma(1)
    for p in range(1, 3):
        verdict = main_lower_bound(case, p)
        assert verdict.rhs >= p * (4 - p + 1) * c * c - 1e-12


# ---------------------------------------------------------------------------
# special Killing relation


def test_special_killing_values():
    value, verdict = special_killing_relation(1.0, 1, 2)
    assert value == 2.0
    assert verdict.satisfied and verdict.tightness <= 1e-12

    # threshold case: degree p, number 1 gives the sphere eigenvalue
    for n in (3, 4, 5):
        for p in range(1, n):
            value, verdict = special_killing_relation(1.0, p - 1, n)
            lam, _ = sphere_hodge_oracle(n, p)
            assert np.isclose(value, lam)
            assert verdict.satisfied

    value, verdict = special_killing_relation(0.0, 1, 3)
    assert value == 0.0
    assert verdict.satisfied


def test_special_killing_scaling():
    # c scales like 1/radius^2
    for c in (0.25, 4.0):
        value, verdict = special_killing_relation(c, 1, 3)
        assert np.isclose(value, c * 2 * 2)
        assert verdict.satisfied


def test_special_killing_rejects_negative_number():
    with pytest.raises(ValueError):
        special_killing_relation(-1.0, 1, 3)


@pytest.mark.parametrize("c", [np.nan, np.inf, 1e308])
def test_special_killing_refuses_nonfinite_values(c):
    # NaN and inf gave a 'violated' verdict with NaN slack; at 1e308 the
    # eigenvalue c(p+1)(n-p) overflowed to inf and did the same
    with pytest.raises(ValueError, match="special Killing"):
        special_killing_relation(c, 1, 2)


@pytest.mark.parametrize(
    "c,n", [(10**400, 2), (1.0, 10**400), (10**400, 10**400)], ids=["int-c", "int-n", "int-c-and-n"]
)
def test_special_killing_refuses_ints_beyond_float(c, n):
    # an int c or n that no float holds raised OverflowError from the
    # int-to-float conversion
    with pytest.raises(ValueError, match="special Killing eigenvalue"):
        special_killing_relation(c, 1, n)


TOLERANCE_BOUNDS = {
    "lower": lambda tol: main_lower_bound(SphereCase(2), 1, tol),
    "lower-inapplicable": lambda tol: main_lower_bound(SphereCase(2), 2, tol),
    "xia": lambda tol: xia_bound(SphereCase(2), tol),
    "upper-1": lambda tol: upper_bound_degree_one(SphereCase(2), tol),
    "upper-p": lambda tol: upper_bound_degree_p(SphereCase(3), 2, tol),
    "killing": lambda tol: special_killing_relation(1.0, 1, 2, tol)[1],
}


@pytest.mark.parametrize(
    "tol", [np.nan, np.inf, -1.0, 0.0, True, "0.1", 10**400],
    ids=["nan", "inf", "negative", "zero", "bool", "string", "int-beyond-float"],
)
@pytest.mark.parametrize("bound", sorted(TOLERANCE_BOUNDS))
def test_verdicts_refuse_what_the_cli_refuses_as_tolerance(bound, tol):
    # a NaN tolerance once gave a 'violated' verdict that reported it
    with pytest.raises(ValueError, match="tolerance must be a finite positive number"):
        TOLERANCE_BOUNDS[bound](tol)


MESH_BOUNDS = {
    "lower": lambda case, tol: main_lower_bound(case, 1, tol),
    "xia": xia_bound,
    "upper-1": upper_bound_degree_one,
    "upper-p": lambda case, tol: upper_bound_degree_p(case, 2, tol),
}


@pytest.mark.parametrize("bound", sorted(MESH_BOUNDS))
def test_mesh_bounds_refuse_the_tolerance_before_any_side(bound):
    # a bad tolerance is refused before a quadric fit or an eigensolve runs
    case = MeshCase(generate_torus(8, 6))

    def side(*args):
        raise AssertionError("a side was computed")

    case.sigma = case.lambda1_exact = case.mean_shape_norm_sq = case.h1_trivial = side
    with pytest.raises(ValueError, match="tolerance must be a finite positive number"):
        MESH_BOUNDS[bound](case, np.nan)


# ---------------------------------------------------------------------------
# parallel restriction identities on round spheres


def test_parallel_restriction_on_spheres():
    xi = AlternatingForm(3, 2, [1.0, -2.0, 0.5])
    for radius in (1.0, 2.0):
        res1, res2 = restriction_identity_residuals(xi, radius=radius)
        assert res1 <= 1e-8
        assert res2 <= 1e-8


# ---------------------------------------------------------------------------
# mesh-backed cases


@pytest.fixture(scope="module")
def ellipsoid_case():
    return MeshCase.ellipsoid(1.0, 1.0, 1.2, 3)


def test_ellipsoid_verdicts_satisfied(ellipsoid_case):
    lower = main_lower_bound(ellipsoid_case, 1)
    assert lower.satisfied
    assert lower.slack > 0
    x = xia_bound(ellipsoid_case)
    assert x.satisfied and x.slack > 0
    upper = upper_bound_degree_one(ellipsoid_case)
    assert upper.satisfied and upper.slack > 0


def test_ellipsoid_applicability_flags(ellipsoid_case):
    assert ellipsoid_case.sigma(1) > 0
    assert ellipsoid_case.h1_trivial()


def test_lower_bound_inapplicable_when_not_convex():
    torus_case = MeshCase(generate_torus(16, 8))
    verdict = main_lower_bound(torus_case, 1)
    assert verdict.status == "inapplicable"
    assert not verdict.applicable


def test_upper_bound_gate_on_torus():
    torus_case = MeshCase(generate_torus(16, 8))
    verdict = upper_bound_degree_one(torus_case)
    assert verdict.status == "inapplicable"
    assert "H^1" in verdict.note


def test_duality_consistent_rhs():
    case = SphereCase(4, 1.3)
    n = 4
    for p in (1, 2):
        a = main_lower_bound(case, p)
        # the dual-degree formulation multiplies the same two numbers
        assert np.isclose(a.rhs, case.sigma(n - p + 1) * case.sigma(p))


def test_out_of_range_p_is_inapplicable():
    case = SphereCase(3, 1.0)
    verdict = main_lower_bound(case, 3)  # p > (n+1)/2
    assert verdict.status == "inapplicable"


# ---------------------------------------------------------------------------
# equality-case diagnostics


def test_ball_diagnostics_analytic():
    report = equality_case_diagnostics(2, p=1, radius=1.0)
    assert report.satisfied
    ratio = dict((c[0], c) for c in report.checks)["area_over_volume"]
    assert np.isclose(ratio[1], 3.0)

    report_r = equality_case_diagnostics(3, p=2, radius=2.0)
    assert report_r.satisfied


def test_ball_diagnostics_analytic_p_range():
    for p in (0, 4, 5):
        with pytest.raises(ValueError, match=f"p={p} out of range 1..3"):
            equality_case_diagnostics(3, p=p)


@pytest.mark.parametrize("radius", [0.0, -1.0, float("nan")])
def test_ball_diagnostics_refuse_bad_radii(radius):
    # the analytic ball is a SphereCase, which validates its radius;
    # 0.0 once divided by zero and -1.0 reported a satisfied ball
    with pytest.raises(ValueError, match="radius must be finite and positive"):
        equality_case_diagnostics(2, radius=radius)


@pytest.mark.parametrize("radius", [0.0, -1.0, float("nan"), float("inf"), 5e-324])
def test_ball_diagnostics_refuse_bad_radii_on_a_mesh_without_exact_boundary(radius):
    # a solid mesh that is not a generated ball reads the radius argument;
    # 0.0 once divided by zero, -1.0 and NaN failed every check, and 5e-324
    # made 3/r infinite, which passed every check
    ball = generate_ball(2)
    mesh = MeshComplex(ball.vertices, ball.cells, boundary_faces=ball.boundary_faces)
    with pytest.raises(ValueError, match="radius must be finite and positive"):
        equality_case_diagnostics(mesh, radius=radius)


def test_ball_diagnostics_mesh():
    report = equality_case_diagnostics(generate_ball(3), p=1)
    assert report.satisfied
    got = dict((c[0], c) for c in report.checks)["area_over_volume"][1]
    assert abs(got - 3.0) / 3.0 < 0.02


# ---------------------------------------------------------------------------
# verdict plumbing


def test_verdict_semantics():
    verdict = xia_bound(SphereCase(2, 1.0))
    assert verdict.satisfied == (verdict.slack >= -verdict.tolerance * max(abs(verdict.lhs), abs(verdict.rhs)))
    d = verdict.to_dict()
    assert d["name"] == "xia_bound"
    assert d["status"] == "satisfied"


def test_verdict_measures_tiny_sides_against_themselves():
    # sides below 1e-300: a radius of 1e152 puts both sides near 2e-304
    case = SphereCase(2, 1e152)
    upper = upper_bound_degree_one(case)
    assert (upper.lhs, upper.rhs, upper.status, upper.tightness) == (2e-304, 4e-304, "satisfied", 0.5)
    for verdict in (main_lower_bound(case, 1), xia_bound(case)):
        assert verdict.satisfied and 1e-17 < verdict.tightness <= 1e-15
    # a violation by a whole side is a violation at any scale
    planted = _verdict("planted", "lhs >= rhs", 1e-6, "tiny", (1e-310, 2e-310, 1))
    assert planted.status == "violated" and planted.tightness == 0.5
    zero = _verdict("zero", "lhs == rhs", 1e-6, "tiny", (0.0, 0.0, 0))
    assert zero.status == "satisfied" and zero.tightness == 0.0


def test_verdict_table_and_json():
    verdicts = [
        xia_bound(SphereCase(2, 1.0)),
        upper_bound_degree_one(SphereCase(2, 1.0)),
    ]
    table = verdict_table(verdicts)
    assert "xia_bound" in table and "satisfied" in table
    data = [json.loads(json.dumps(v.to_dict())) for v in verdicts]
    assert data == [v.to_dict() for v in verdicts]
    assert list(data[0]) == [
        "name", "status", "lhs", "rhs", "formula", "slack", "tightness", "tolerance", "geometry", "note",
    ]
    assert [d["name"] for d in data] == ["xia_bound", "parallel_upper_bound_degree_one"]


@pytest.fixture(scope="module")
def unit_ellipsoid_verdicts():
    case = MeshCase(generate_ellipsoid(1.0, 1.1, 1.2, 2))
    return main_lower_bound(case, 1), xia_bound(case)


@pytest.mark.parametrize("j", range(-120, 121, 20))
def test_mesh_verdicts_do_not_depend_on_units(unit_ellipsoid_verdicts, j):
    # the pencil solve and the quadric fit are both exact under scaling by
    # 2^j: the sides scale by 4^-j and the tightness keeps its bits
    mesh = generate_ellipsoid(1.0, 1.1, 1.2, 2)
    case = MeshCase(MeshComplex(np.ldexp(mesh.vertices, j), mesh.cells))
    for got, want in zip((main_lower_bound(case, 1), xia_bound(case)), unit_ellipsoid_verdicts):
        assert got.status == want.status == "satisfied"
        assert (got.lhs, got.rhs) == (np.ldexp(want.lhs, -2 * j), np.ldexp(want.rhs, -2 * j))
        assert np.float64(got.tightness).tobytes() == np.float64(want.tightness).tobytes()


@pytest.mark.parametrize("j", (-120, -40, 40, 120))
def test_ball_diagnostics_do_not_depend_on_units(j):
    ball = generate_ball(2)
    scaled = MeshComplex(np.ldexp(ball.vertices, j), ball.cells, boundary_faces=ball.boundary_faces)
    want = equality_case_diagnostics(ball, p=1)
    got = equality_case_diagnostics(scaled, p=1, radius=2.0**j)
    assert got.satisfied == want.satisfied
    for (name, g, w, ok), (_, g0, w0, ok0) in zip(got.checks, want.checks):
        assert (g, w, ok) == (np.ldexp(g0, -j), np.ldexp(w0, -j), ok0), name
