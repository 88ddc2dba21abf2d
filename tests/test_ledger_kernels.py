"""The ledger kernels against the expressions they replace, bit for bit.

``reilly._row_sums`` adds each row's entries column by column in the order
numpy's reduction adds them, so every interior and boundary integrand of the
ledgers equals its ``.sum(axis=...)`` form exactly.  A solid mesh computes
its boundary surface once, and a surface its discrete shape once; both are
read-only.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from hodgebench import meshes, reilly
from hodgebench.fields import FormField, ScalarField, named_form_field
from hodgebench.meshes import discrete_shape, generate_ball
from hodgebench.reilly import _row_sums, check_stokes, evaluate_classical_reilly, evaluate_reilly
from test_topology_equivalence import _relabelled


def _same_bits(got, want):
    """Equal bit for bit, NaN for NaN.  IEEE 754 fixes no sign for a NaN
    result, and numpy's own add loops keep either operand's NaN depending on
    the array length, so only the NaN positions are compared."""
    nan = np.isnan(want)
    return np.array_equal(np.isnan(got), nan) and got[~nan].tobytes() == want[~nan].tobytes()


ENTRIES = st.one_of(
    st.floats(allow_nan=True, allow_infinity=True),
    st.sampled_from([0.0, -0.0, np.inf, -np.inf, np.nan, 5e-324, 1e308, -1e308]),
)


@settings(max_examples=300, deadline=None)
@given(
    hnp.arrays(np.float64, st.tuples(st.integers(1, 30), st.integers(1, 11)), elements=ENTRIES)
)
def test_row_sums_equal_numpy_reduction(rows):
    with np.errstate(all="ignore"):
        assert _same_bits(_row_sums(rows), rows.sum(axis=1))


@settings(max_examples=100, deadline=None)
@given(hnp.arrays(np.float64, st.tuples(st.integers(1, 30), st.just(3), st.just(3)), elements=ENTRIES))
def test_row_sums_of_matrices_equal_numpy_reduction(stack):
    with np.errstate(all="ignore"):
        assert _same_bits(_row_sums(stack), stack.sum(axis=(1, 2)))


@pytest.mark.parametrize("width", [0, 16, 24, 128])
def test_row_sums_of_long_and_empty_rows(width):
    rows = np.random.default_rng(width).standard_normal((200, width)) * 1e3
    assert _row_sums(rows).tobytes() == rows.sum(axis=1).tobytes()


# ---------------------------------------------------------------------------
# every row sum of the ledgers against the expression it replaced


def _random_form(rng, degree):
    """A random quadratic polynomial form: coefficient I is a + b.x + x.Q x."""
    count = {1: 3, 2: 3, 3: 1}[degree]
    a = rng.standard_normal(count)
    b = rng.standard_normal((count, 3))
    q = rng.standard_normal((count, 3, 3))
    q = q + q.transpose(0, 2, 1)

    def value(pts):
        return a + pts @ b.T + np.einsum("mi,Iij,mj->mI", pts, q, pts)

    def jacobian(pts):
        return b[None] + 2.0 * np.einsum("Iij,mj->mIi", q, pts)

    return FormField(degree, value, jacobian, name=f"random-{degree}")


def _random_scalar(rng):
    """f = b.x + x.Q x + (d.x)^3, a cubic with a varying Hessian."""
    b, d = rng.standard_normal(3), rng.standard_normal(3)
    q = rng.standard_normal((3, 3))
    q = q + q.T

    def value(pts):
        return pts @ b + np.einsum("mi,ij,mj->m", pts, q, pts) + (pts @ d) ** 3

    def gradient(pts):
        return b + 2.0 * pts @ q + 3.0 * (pts @ d)[:, None] ** 2 * d

    def hessian(pts):
        return 2.0 * q + 6.0 * (pts @ d)[:, None, None] * np.outer(d, d)

    return ScalarField(value, gradient, hessian, name="random-cubic")


@pytest.fixture
def checked_row_sums(monkeypatch):
    """Every ``_row_sums`` call of a ledger, checked against ``.sum(axis=...)``
    on the same array; yields the row shapes seen."""
    row_sums, shapes = reilly._row_sums, []

    def checked(a):
        got = row_sums(a)
        assert got.tobytes() == a.sum(axis=tuple(range(1, a.ndim))).tobytes()
        shapes.append(a.shape[1:])
        return got

    monkeypatch.setattr(reilly, "_row_sums", checked)
    return shapes


MESHES = {"ball1": lambda: generate_ball(1), "ball1-relabelled": lambda: _relabelled(generate_ball(1), 5)}


@pytest.mark.parametrize("mesh_name", sorted(MESHES))
@pytest.mark.parametrize("degree", [1, 2, 3])
def test_form_ledger_row_sums_equal_old_expression(checked_row_sums, mesh_name, degree):
    form = _random_form(np.random.default_rng(degree), degree)
    evaluate_reilly(MESHES[mesh_name](), form, order=2)
    # interior value, d, delta and Jacobian (coefficient x direction rows);
    # boundary cross term and four shape terms
    assert (form.n_coeffs, 3) in checked_row_sums
    assert len(checked_row_sums) >= 4 + 5


@pytest.mark.parametrize("mesh_name", sorted(MESHES))
def test_classical_ledger_and_stokes_row_sums_equal_old_expression(checked_row_sums, mesh_name):
    mesh = MESHES[mesh_name]()
    rng = np.random.default_rng(7)
    evaluate_classical_reilly(mesh, _random_scalar(rng), order=2)
    assert checked_row_sums == [(3, 3)] * len(checked_row_sums)
    check_stokes(mesh, _random_form(rng, 1), _random_form(rng, 2))
    assert (3,) in checked_row_sums


# ---------------------------------------------------------------------------
# one boundary surface and one quadric fit per mesh


def test_discrete_ledgers_on_one_ball_fit_the_quadric_once(monkeypatch):
    fits = []
    fit = meshes._fit_quadrics
    monkeypatch.setattr(meshes, "_fit_quadrics", lambda mesh: fits.append(mesh) or fit(mesh))
    ball = generate_ball(1)
    for name in ("x2dx1", "parallel-dx1", "parallel-dx12", "x1-vol"):
        evaluate_reilly(ball, named_form_field(name), shape_source="discrete")
    check_stokes(ball, named_form_field("x2dx1"), named_form_field("parallel-dx12"), shape_source="discrete")
    surface, _ = ball.boundary_mesh()
    assert fits == [surface]
    assert ball.boundary_mesh()[0] is surface


def test_cached_shape_and_boundary_arrays_are_read_only():
    surface, used = generate_ball(1).boundary_mesh()
    shape = discrete_shape(surface)
    assert discrete_shape(surface) is shape
    for array in (surface.vertices, surface.cells, used, *vars(shape).values()):
        with pytest.raises(ValueError, match="read-only"):
            array[0] = 0
