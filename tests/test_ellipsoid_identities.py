"""The boundary identities on a boundary that is not umbilic.

On a round sphere the shape operator is S = P/r (P the tangent projector),
and any formula that agrees with the right one at S = c P passes every
sphere check.  Here the commutation and derivative identities are checked
on the ellipsoid with semi-axes AXES, and the Reilly ledgers on the solid
ellipsoids diag(AXES) * ball(s), whose boundary shape comes from the fit.

The mutation row (DeMillo, Lipton & Sayward, "Hints on test data
selection", IEEE Computer 11(4), 1978) plants the adjugate S' = tr(S) P - S
in place of S in the commutation identity's S^[p-1](i_N w).  S' = S
wherever S = c P, so no sphere check kills it; these checks must.
"""

import numpy as np
import pytest

import hodgebench.reilly as reilly
from exterior_oracle import EllipsoidSurface
from hodgebench.exterior import _batch_shape
from hodgebench.fields import FORM_FIELD_NAMES, named_form_field
from hodgebench.meshes import MeshComplex, SphereSurface, generate_ball
from hodgebench.reilly import check_commutation, check_derivative_formulas, evaluate_reilly, sphere_sample_points

AXES = (1.0, 1.2, 1.5)
ELLIPSOID = EllipsoidSurface(AXES)
POINTS = ELLIPSOID.project(sphere_sample_points(64))
LEVELS = (1, 2, 3)
# fields whose ledgers have interior and boundary terms of order one, so that
# their relative residuals measure the discretization
CONVERGING = ("x2dx1", "parallel-dx1", "parallel-dx12")

FD_TOL = 1e-6  # central differences at h = 1e-4 read at most 2.0e-8
ANALYTIC_TOL = 1e-12  # read at most 6.7e-16
GAP_TOL = 1e-14  # the two boundary forms differ by rounding: at most 1.3e-15
MIN_ORDER = 1.8  # observed orders 1.86-2.69


def _solid_ellipsoid(s):
    ball = generate_ball(s)
    return MeshComplex(ball.vertices * AXES, ball.cells, boundary_faces=ball.boundary_faces)


SOLIDS = {s: _solid_ellipsoid(s) for s in LEVELS}


def _ledgers(name):
    return [evaluate_reilly(SOLIDS[s], named_form_field(name)) for s in LEVELS]


def _observed_orders(ledgers):
    """log2 of the ratio of consecutive relative residuals: the mesh size halves per level."""
    res = [ledger.relative_residual for ledger in ledgers]
    return [float(np.log2(coarse / fine)) for coarse, fine in zip(res, res[1:])]


def _max_gap(ledgers):
    return max(ledger.terms["boundary_forms_max_gap"] for ledger in ledgers)


# ---------------------------------------------------------------------------
# pointwise identities on the ellipsoid


@pytest.mark.parametrize("name", FORM_FIELD_NAMES)
def test_commutation_on_ellipsoid(name):
    form = named_form_field(name)
    assert max(check_commutation(form, ELLIPSOID, POINTS, h=1e-4)) < FD_TOL
    assert max(check_commutation(form, ELLIPSOID, POINTS, method="analytic")) < ANALYTIC_TOL


@pytest.mark.parametrize("name", FORM_FIELD_NAMES)
def test_derivative_formulas_on_ellipsoid(name):
    assert max(check_derivative_formulas(named_form_field(name), ELLIPSOID, POINTS, h=1e-4)) < FD_TOL


# ---------------------------------------------------------------------------
# ledgers on solid ellipsoids


@pytest.mark.parametrize("name", FORM_FIELD_NAMES)
def test_boundary_forms_agree_on_solid_ellipsoids(name):
    assert _max_gap(_ledgers(name)) < GAP_TOL


@pytest.mark.parametrize("name", CONVERGING)
def test_ledger_residuals_converge_on_solid_ellipsoids(name):
    assert min(_observed_orders(_ledgers(name))) >= MIN_ORDER


# ---------------------------------------------------------------------------
# mutation row


def _adjugate_mutant(original):
    def mutant(val, jac, normals, shape, p):
        delta, v, t, s_v, n_mean = original(val, jac, normals, shape, p)
        tangent = np.eye(3) - np.einsum("mi,mj->mij", normals, normals)
        s_v_mutant = _batch_shape(v, n_mean[:, None, None] * tangent - shape, p - 1)
        return delta - s_v + s_v_mutant, v, t, s_v_mutant, n_mean

    return mutant


def test_ellipsoid_checks_kill_the_adjugate_mutant(monkeypatch):
    monkeypatch.setattr(reilly, "_commutation_delta", _adjugate_mutant(reilly._commutation_delta))
    form = named_form_field("parallel-dx12")
    # the sphere checks pass it
    sphere_points = sphere_sample_points(64)
    assert max(check_commutation(form, SphereSurface(1.0), sphere_points, method="analytic")) < ANALYTIC_TOL
    # each of the ellipsoid checks fails on it: the commutation residuals read
    # 0.63, the ledgers' gaps 0.68-0.95, their relative residuals 0.17-0.19
    assert max(check_commutation(form, ELLIPSOID, POINTS, method="analytic")) > 0.1
    assert max(check_commutation(form, ELLIPSOID, POINTS, h=1e-4)) > 0.1
    ledgers = _ledgers("parallel-dx12")
    assert _max_gap(ledgers) > 0.1
    assert min(ledger.relative_residual for ledger in ledgers) > 0.1
    assert min(_observed_orders(ledgers)) < MIN_ORDER
