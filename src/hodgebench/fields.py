"""Sampled fields: p-form and scalar fields over points of a Euclidean solid.

Evaluators are vectorized over point batches.  Every field states its
first derivatives (and a scalar field its Hessian) as analytic callbacks,
so the identity checks measure no differentiation error.
"""

from __future__ import annotations

from math import comb

import numpy as np

__all__ = [
    "FormField",
    "ScalarField",
    "named_form_field",
    "named_scalar_field",
    "FORM_FIELD_NAMES",
    "SCALAR_FIELD_NAMES",
]


class FormField:
    """A degree-p differential form on R^3 (or R^dim), sampled pointwise.

    Parameters
    ----------
    degree : int
    value : callable
        (M, dim) points -> (M, C(dim, degree)) coefficients over increasing
        multi-indices in lex order.
    jacobian : callable
        (M, dim) points -> (M, C, dim) with entry [m, c, k] the derivative
        of coefficient c in direction k.
    """

    def __init__(self, degree: int, value, jacobian, dim: int = 3, name: str = ""):
        if not 0 <= degree <= dim:
            raise ValueError(f"degree {degree} out of range for dim {dim}")
        self.degree = degree
        self.dim = dim
        self.name = name or f"form-p{degree}"
        self._value = value
        self._jacobian = jacobian

    @property
    def n_coeffs(self) -> int:
        return comb(self.dim, self.degree)

    def value(self, points) -> np.ndarray:
        pts = np.atleast_2d(np.asarray(points, dtype=float))
        out = np.asarray(self._value(pts), dtype=float).reshape(len(pts), self.n_coeffs)
        return out

    def jacobian(self, points) -> np.ndarray:
        pts = np.atleast_2d(np.asarray(points, dtype=float))
        out = np.asarray(self._jacobian(pts), dtype=float)
        return out.reshape(len(pts), self.n_coeffs, self.dim)

    @classmethod
    def constant(cls, coeffs, degree: int, dim: int = 3, name: str = "") -> "FormField":
        c = np.asarray(coeffs, dtype=float).reshape(-1)
        if c.size != comb(dim, degree):
            raise ValueError("coefficient count does not match the degree")

        def value(pts):
            return np.broadcast_to(c, (len(pts), c.size)).copy()

        def jacobian(pts):
            return np.zeros((len(pts), c.size, dim))

        return cls(degree, value, jacobian, dim=dim, name=name or "parallel")

    @classmethod
    def zero(cls, degree: int, dim: int = 3) -> "FormField":
        return cls.constant(np.zeros(comb(dim, degree)), degree, dim, name="zero")


class ScalarField:
    """A scalar function on R^3 with its analytic gradient and Hessian."""

    def __init__(self, value, gradient, hessian, dim: int = 3, name: str = ""):
        self.dim = dim
        self.name = name or "scalar"
        self._value = value
        self._gradient = gradient
        self._hessian = hessian

    def value(self, points) -> np.ndarray:
        pts = np.atleast_2d(np.asarray(points, dtype=float))
        return np.asarray(self._value(pts), dtype=float).reshape(len(pts))

    def gradient(self, points) -> np.ndarray:
        pts = np.atleast_2d(np.asarray(points, dtype=float))
        return np.asarray(self._gradient(pts), dtype=float).reshape(len(pts), self.dim)

    def hessian(self, points) -> np.ndarray:
        pts = np.atleast_2d(np.asarray(points, dtype=float))
        return np.asarray(self._hessian(pts), dtype=float).reshape(len(pts), self.dim, self.dim)


# ---------------------------------------------------------------------------
# named fields used by the demos, the CLI and the test suites


def _linear_coeff_form(component: int, coeff_slot: int, degree: int, name: str) -> FormField:
    """Form whose single nonzero coefficient (slot) equals x_component."""

    def value(pts):
        out = np.zeros((len(pts), comb(3, degree)))
        out[:, coeff_slot] = pts[:, component]
        return out

    def jacobian(pts):
        out = np.zeros((len(pts), comb(3, degree), 3))
        out[:, coeff_slot, component] = 1.0
        return out

    return FormField(degree, value, jacobian, name=name)


def _form_registry():
    reg = {
        "parallel-dx1": lambda: FormField.constant([1.0, 0.0, 0.0], 1, name="parallel-dx1"),
        "parallel-dx2": lambda: FormField.constant([0.0, 1.0, 0.0], 1, name="parallel-dx2"),
        "parallel-dx12": lambda: FormField.constant([1.0, 0.0, 0.0], 2, name="parallel-dx12"),
        "parallel-vol": lambda: FormField.constant([1.0], 3, name="parallel-vol"),
        # x2 dx1: d(.) = -dx1^dx2, delta(.) = 0
        "x2dx1": lambda: _linear_coeff_form(1, 0, 1, "x2dx1"),
        # x1 dx1^dx2^dx3: delta(.) is a 2-form, d(.) = 0
        "x1-vol": lambda: _linear_coeff_form(0, 0, 3, "x1-vol"),
        "zero-1": lambda: FormField.zero(1),
        "zero-2": lambda: FormField.zero(2),
    }
    return reg


def _scalar_registry():
    return {
        "linear-x1": lambda: ScalarField(
            lambda p: p[:, 0],
            lambda p: np.tile([1.0, 0.0, 0.0], (len(p), 1)),
            lambda p: np.zeros((len(p), 3, 3)),
            name="linear-x1",
        ),
        "radial-sq": lambda: ScalarField(
            lambda p: 0.5 * (p**2).sum(axis=1),
            lambda p: p.copy(),
            lambda p: np.tile(np.eye(3), (len(p), 1, 1)),
            name="radial-sq",
        ),
        "constant": lambda: ScalarField(
            lambda p: np.ones(len(p)),
            lambda p: np.zeros((len(p), 3)),
            lambda p: np.zeros((len(p), 3, 3)),
            name="constant",
        ),
        "zero": lambda: ScalarField(
            lambda p: np.zeros(len(p)),
            lambda p: np.zeros((len(p), 3)),
            lambda p: np.zeros((len(p), 3, 3)),
            name="zero",
        ),
    }


FORM_FIELD_NAMES = tuple(sorted(_form_registry()))
SCALAR_FIELD_NAMES = tuple(sorted(_scalar_registry()))


def named_form_field(name: str) -> FormField:
    reg = _form_registry()
    if name not in reg:
        raise KeyError(f"unknown form field {name!r}; have {sorted(reg)}")
    return reg[name]()


def named_scalar_field(name: str) -> ScalarField:
    reg = _scalar_registry()
    if name not in reg:
        raise KeyError(f"unknown scalar field {name!r}; have {sorted(reg)}")
    return reg[name]()
