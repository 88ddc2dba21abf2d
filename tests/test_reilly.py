import json
import tracemalloc

import numpy as np
import pytest

from hodgebench.exterior import AlternatingForm
from hodgebench.fields import FormField, ScalarField, named_form_field, named_scalar_field
from hodgebench.meshes import MeshComplex, generate_ball
import hodgebench.reilly as reilly
from hodgebench.reilly import (
    SphereSurface,
    check_commutation,
    check_derivative_formulas,
    check_stokes,
    evaluate_classical_reilly,
    evaluate_reilly,
    restriction_identity_residuals,
    run_reilly_levels,
    sphere_sample_points,
)
from test_topology_equivalence import _relabelled

BALL2 = generate_ball(2)
BALL3 = generate_ball(3)
VOL = 4 * np.pi / 3
AREA = 4 * np.pi


def residual_decreases(values, floor=1e-10):
    return all(cur <= max(prev, floor) for prev, cur in zip(values, values[1:]))


# ---------------------------------------------------------------------------
# classical identity


def test_constant_field_all_zero():
    ledger = evaluate_classical_reilly(BALL2, named_scalar_field("constant"))
    assert ledger.lhs == 0.0
    assert all(abs(v) < 1e-14 for k, v in ledger.terms.items())


def test_linear_x1_boundary_cancellation():
    ledgers = run_reilly_levels([1, 2, 3], named_scalar_field("linear-x1"))
    rel = [l.relative_residual for l in ledgers]
    assert abs(ledgers[-1].residual) <= 0.05 * AREA
    assert residual_decreases(rel)
    # interior terms vanish for a linear function
    assert ledgers[-1].terms["hessian_energy"] == 0.0
    assert ledgers[-1].lhs == 0.0


def test_radial_sq_closed_forms():
    ledger = evaluate_classical_reilly(BALL3, named_scalar_field("radial-sq"))
    vol = BALL3.volume()
    area = BALL3.area()
    assert abs(ledger.lhs - 9 * vol) < 1e-10  # (lap f)^2 = 9 exactly
    assert abs(ledger.terms["hessian_energy"] - 3 * vol) < 1e-10
    assert abs(ledger.terms["boundary_mean_normal_sq"] - 2 * area) < 0.05 * 2 * area
    assert abs(ledger.terms["boundary_normal_laplacian"]) < 0.05 * area
    assert abs(ledger.terms["boundary_shape_gradient"]) < 0.05 * area
    assert ledger.relative_residual < 0.05
    # against the smooth values
    assert abs(ledger.lhs - 12 * np.pi) < 0.05 * 12 * np.pi


def test_classical_residual_decreases_for_cubic():
    # icosahedral symmetry integrates degree <= 5 boundary integrands
    # exactly; x1^3 (degree-6 combinations) shows the genuine quadrature
    # error, which must shrink strictly under refinement
    f = ScalarField(
        lambda p: p[:, 0] ** 3,
        lambda p: np.stack([3 * p[:, 0] ** 2, np.zeros(len(p)), np.zeros(len(p))], axis=1),
        lambda p: np.einsum("m,ij->mij", 6 * p[:, 0], np.diag([1.0, 0.0, 0.0])),
        name="x1cubed",
    )
    ledgers = run_reilly_levels([1, 2, 3], f)
    rel = [l.relative_residual for l in ledgers]
    assert rel[0] > 1e-5  # a real error, not a symmetry zero
    assert rel[1] < rel[0] and rel[2] < rel[1]
    assert rel[-1] < 0.05


def test_discrete_shape_source():
    ledger = evaluate_classical_reilly(BALL3, named_scalar_field("radial-sq"), shape_source="discrete")
    assert ledger.relative_residual < 0.05
    assert ledger.meta["shape_source"] == "discrete"


# ---------------------------------------------------------------------------
# p-form identity


def test_x2dx1_ledger_balances():
    ledger = evaluate_reilly(BALL3, named_form_field("x2dx1"))
    vol = BALL3.volume()
    assert abs(ledger.lhs - vol) < 1e-10  # |dw|^2 = 1, dw = -dx1^dx2
    assert abs(ledger.terms["dirichlet_energy"] - vol) < 1e-10
    assert ledger.relative_residual < 0.05
    # boundary terms against smooth closed forms
    assert abs(ledger.terms["boundary_shape_term"] - 8 * np.pi / 5) < 0.05 * 8 * np.pi / 5
    assert abs(ledger.terms["normal_cross_term"] + 8 * np.pi / 5) < 0.05 * 8 * np.pi / 5


def test_x2dx1_residual_decreases():
    ledgers = run_reilly_levels([1, 2, 3], named_form_field("x2dx1"))
    rel = [l.relative_residual for l in ledgers]
    assert residual_decreases(rel)


@pytest.mark.parametrize("name", ["parallel-dx1", "parallel-dx12"])
def test_parallel_forms_reduce_to_boundary_identity(name):
    ledger = evaluate_reilly(BALL3, named_form_field(name))
    vol = BALL3.volume()
    # interior terms vanish
    assert ledger.lhs <= 1e-3 * vol
    assert ledger.terms["dirichlet_energy"] <= 1e-3 * vol
    assert ledger.terms["curvature_energy"] == 0.0
    # cross and boundary terms cancel
    cross = ledger.terms["normal_cross_term"]
    bnd = ledger.terms["boundary_shape_term"]
    assert abs(cross + bnd) < 0.05 * max(abs(cross), abs(bnd))


def test_boundary_forms_agree_pointwise():
    for name in ("x2dx1", "parallel-dx1", "parallel-dx12", "x1-vol"):
        ledger = evaluate_reilly(BALL2, named_form_field(name))
        assert ledger.terms["boundary_forms_max_gap"] < 1e-8


def test_top_degree_field_balances():
    ledger = evaluate_reilly(BALL3, named_form_field("x1-vol"))
    vol = BALL3.volume()
    # d of a top form vanishes; delta carries the whole left side
    assert abs(ledger.lhs - vol) < 1e-10
    assert abs(ledger.terms["normal_cross_term"]) < 1e-12
    assert abs(ledger.terms["boundary_shape_term"]) < 1e-12
    assert ledger.relative_residual < 1e-10


def test_pform_discrete_shape_source():
    ledger = evaluate_reilly(BALL3, named_form_field("x2dx1"), shape_source="discrete")
    assert ledger.relative_residual < 0.05


@pytest.mark.parametrize("shape_source", ["analytic", "discrete"])
def test_dec_cross_term_diagnostic(shape_source):
    ledger = evaluate_reilly(BALL3, named_form_field("x2dx1"), shape_source=shape_source, include_dec=True)
    quadrature = ledger.terms["normal_cross_term"]
    dec = ledger.terms["dec_cross_term"]
    assert abs(dec - quadrature) < 0.05 * abs(quadrature)


@pytest.mark.parametrize("name", ["parallel-dx12", "x1-vol"])
def test_dec_cross_term_refuses_higher_degrees(name):
    with pytest.raises(ValueError, match="1-forms only"):
        evaluate_reilly(BALL2, named_form_field(name), include_dec=True)


def test_ledger_json():
    ledger = evaluate_reilly(BALL2, named_form_field("x2dx1"))
    data = json.loads(json.dumps(ledger.to_dict()))
    assert data == ledger.to_dict()
    assert data["kind"] == "p-form"
    assert "boundary_shape_term" in data["terms"]
    assert data["terms"] == ledger.terms


# ---------------------------------------------------------------------------
# pointwise identities


SPHERE = SphereSurface(1.0)
POINTS = sphere_sample_points(10)


def _differential(f):
    """The 1-form df of a scalar field: its gradient, with the Hessian as Jacobian."""
    return FormField(1, f.gradient, f.hessian, name=f"d({f.name})")


@pytest.mark.parametrize("name", ["parallel-dx1", "parallel-dx12", "x2dx1", "x1-vol"])
def test_commutation_identities_fd(name):
    res1, res2 = check_commutation(named_form_field(name), SPHERE, POINTS, h=1e-4)
    assert res1 < 1e-6
    assert res2 < 1e-6


def test_commutation_identities_analytic():
    for name in ("parallel-dx1", "x2dx1"):
        res1, res2 = check_commutation(
            named_form_field(name), SPHERE, POINTS, method="analytic"
        )
        assert res1 < 1e-12
        assert res2 < 1e-12


def test_commutation_for_differential_field():
    # w = df for f = |x|^2/2: identities reduce to statements about d(f_N)
    df = _differential(named_scalar_field("radial-sq"))
    res1, res2 = check_commutation(df, SPHERE, POINTS, h=1e-4)
    assert res1 < 1e-4
    assert res2 < 1e-4


def test_commutation_zero_field():
    res1, res2 = check_commutation(FormField.zero(1), SPHERE, POINTS, h=1e-4)
    assert res1 == 0.0
    assert res2 == 0.0


@pytest.mark.parametrize("name", ["parallel-dx1", "parallel-dx12", "x2dx1"])
def test_derivative_formulas_fd(name):
    res1, res2 = check_derivative_formulas(named_form_field(name), SPHERE, POINTS, h=1e-4)
    assert res1 < 1e-6
    assert res2 < 1e-6


def test_derivative_formulas_df_and_zero():
    df = _differential(named_scalar_field("radial-sq"))
    res1, res2 = check_derivative_formulas(df, SPHERE, POINTS, h=1e-4)
    assert res1 < 1e-4 and res2 < 1e-4
    z1, z2 = check_derivative_formulas(FormField.zero(2), SPHERE, POINTS, h=1e-4)
    assert z1 == 0.0 and z2 == 0.0


def test_nan_residuals_are_reported_as_nan():
    # a point at the sphere's centre has no normal: the residuals are NaN, not 0
    centre = [[0.0, 0.0, 0.0]]
    form = named_form_field("x2dx1")
    with np.errstate(invalid="ignore", divide="ignore"):
        results = [
            check_commutation(form, SPHERE, centre, method="analytic"),
            check_commutation(form, SPHERE, np.vstack([POINTS, centre])),
            check_derivative_formulas(form, SPHERE, centre),
            restriction_identity_residuals(AlternatingForm(3, 1, [1.0, 0.0, 0.0]), points=centre),
        ]
    for pair in results:
        assert all(np.isnan(r) for r in pair), pair


def test_commutation_method_validated_before_points():
    with pytest.raises(ValueError):
        check_commutation(named_form_field("x2dx1"), SPHERE, np.empty((0, 3)), method="bogus")


def test_surface_checks_reject_a_surface_mesh():
    # a boundary mesh holds vertices and faces, not normals, shape
    # operators and projections at any point
    surface, _ = generate_ball(1).boundary_mesh()
    form = named_form_field("x2dx1")
    for check in (check_commutation, check_derivative_formulas):
        with pytest.raises(ValueError, match="normals, shape_world and project"):
            check(form, surface, POINTS)


def test_restriction_identities_unit_sphere():
    for degree in (1, 2):
        from math import comb

        for slot in range(comb(3, degree)):
            coeffs = np.zeros(comb(3, degree))
            coeffs[slot] = 1.0
            res1, res2 = restriction_identity_residuals(AlternatingForm(3, degree, coeffs))
            assert res1 <= 1e-8
            assert res2 <= 1e-8


def test_restriction_identities_scale_to_zero():
    # both sides shrink like 1/radius: residuals stay at numerical noise
    xi = AlternatingForm(3, 1, [0.3, -1.2, 0.5])
    for radius in (1.0, 10.0, 1e3):
        res1, res2 = restriction_identity_residuals(xi, radius=radius)
        assert res1 < 1e-10 and res2 < 1e-10


def test_restriction_identities_higher_dim():
    xi = AlternatingForm(5, 2, np.arange(10, dtype=float) - 4.5)
    res1, res2 = restriction_identity_residuals(xi, radius=2.0)
    assert res1 < 1e-10 and res2 < 1e-10


# ---------------------------------------------------------------------------
# integrated adjointness


def test_stokes_scalar_pair():
    omega = FormField(
        0,
        lambda p: p[:, 0:1],
        lambda p: np.tile(np.array([[[1.0, 0.0, 0.0]]]), (len(p), 1, 1)),
        name="x1",
    )
    residual, relative = check_stokes(BALL3, omega, named_form_field("parallel-dx1"))
    assert relative < 0.03


def _x2sq_dx12():
    def phi_val(p):
        out = np.zeros((len(p), 3))
        out[:, 0] = p[:, 1] ** 2
        return out

    def phi_jac(p):
        out = np.zeros((len(p), 3, 3))
        out[:, 0, 1] = 2 * p[:, 1]
        return out

    return FormField(2, phi_val, phi_jac, name="x2sq-dx12")


def test_stokes_polynomial_pair():
    # <d(x2 dx1), x2^2 dx1^dx2> integrates to -4 pi / 15: nonzero balance
    residual, relative = check_stokes(BALL3, named_form_field("x2dx1"), _x2sq_dx12())
    assert relative < 0.03


def test_stokes_structural_zero():
    zero = FormField.zero(2)
    residual, relative = check_stokes(BALL2, named_form_field("x2dx1"), zero)
    assert residual == 0.0


# ---------------------------------------------------------------------------
# interior quadrature in tet blocks


def _interior_results(mesh):
    """Both ledgers and check_stokes on one mesh: {name: (value, scale)}, the
    scale being the identity's own (the largest |lhs| or |rhs term|)."""
    out = {}
    for ledger in (
        evaluate_reilly(mesh, named_form_field("x2dx1")),
        evaluate_classical_reilly(mesh, named_scalar_field("radial-sq")),
    ):
        scale = max([abs(ledger.lhs)] + [abs(ledger.terms[name]) for name in ledger.rhs_terms])
        values = {**ledger.terms, "lhs": ledger.lhs, "residual": ledger.residual}
        for name, value in values.items():
            # a term is compared with itself, the residual with the identity's scale
            out[ledger.kind, name] = (value, scale if name == "residual" else abs(value))
    residual, relative = check_stokes(mesh, named_form_field("x2dx1"), _x2sq_dx12())
    out["stokes", "residual"] = (residual, abs(residual) / relative)
    out["stokes", "relative_residual"] = (relative, 1.0)
    return out


BLOCK_MESHES = [("ball2", lambda: BALL2), ("ball2-relabelled", lambda: _relabelled(BALL2, 13))]


@pytest.mark.parametrize("name,make", BLOCK_MESHES, ids=[name for name, _ in BLOCK_MESHES])
def test_block_sums_match_one_block(monkeypatch, name, make):
    mesh = make()
    assert mesh.n_cells == 3200
    monkeypatch.setattr(reilly, "TET_BLOCK", mesh.n_cells)
    want = _interior_results(mesh)
    assert want["p-form", "dirichlet_energy"][0] > 0 and want["stokes", "residual"][0] != 0
    # 7 and 1000 leave a short last block, 640 divides the mesh into five
    for block in (7, 1000, 640):
        monkeypatch.setattr(reilly, "TET_BLOCK", block)
        got = _interior_results(mesh)
        for key, (value, scale) in want.items():
            assert abs(got[key][0] - value) <= 1e-14 * scale, (block, key, got[key][0], value)


def test_interior_memory_does_not_grow_with_the_mesh():
    mesh = generate_ball(4)
    mesh.report()  # mesh tables cached before measuring
    form, scalar = named_form_field("x2dx1"), named_scalar_field("linear-x1")
    for run in (
        lambda: evaluate_reilly(mesh, form),
        lambda: evaluate_classical_reilly(mesh, scalar),
        lambda: check_stokes(mesh, form, _x2sq_dx12()),
    ):
        tracemalloc.start()
        try:
            run()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 32 * 2**20, peak


@pytest.mark.parametrize("j", (-120, -40, 40, 120))
def test_discrete_ledger_does_not_depend_on_units(j):
    # every term of a ball scaled by 2^j scales by a power of two, and the
    # quadric fit with it, so the relative residual keeps its bits
    ball = generate_ball(1)
    scaled = MeshComplex(np.ldexp(ball.vertices, j), ball.cells, boundary_faces=ball.boundary_faces)
    form = named_form_field("x2dx1")
    want = evaluate_reilly(ball, form, shape_source="discrete").relative_residual
    got = evaluate_reilly(scaled, form, shape_source="discrete").relative_residual
    assert np.float64(got).tobytes() == np.float64(want).tobytes()
