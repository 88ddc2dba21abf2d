"""Eigenvalue inequality and equality-case reports on concrete geometries.

Every check produces a BoundVerdict with the two sides of the inequality,
an explicit satisfied/violated/inapplicable status, the signed slack
(oriented so that >= 0 means satisfied) and a tightness measure.  A
``SphereCase`` uses closed-form curvatures and spectra; a ``MeshCase`` uses
the quadric-fitted shape operator and the DEC spectrum.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass

import numpy as np

from .curvature import lowest_p_curvature_global
from .meshes import MeshComplex, _check_count, _require_kind, boundary_surface, discrete_shape, generate_ellipsoid
from .spectrum import check_tolerance, spectrum, sphere_hodge_oracle

__all__ = [
    "BoundVerdict",
    "SphereCase",
    "MeshCase",
    "main_lower_bound",
    "xia_bound",
    "upper_bound_degree_one",
    "upper_bound_degree_p",
    "special_killing_relation",
    "equality_case_diagnostics",
    "EqualityDiagnostics",
    "verdict_table",
]

ANALYTIC_TOL = 1e-12
MESH_TOL = 3e-2
SPECTRUM_K = 8  # function eigenvalues solved for a mesh case


@dataclass
class BoundVerdict:
    """Outcome of one inequality check on one geometry."""

    name: str
    status: str  # 'satisfied' | 'violated' | 'inapplicable'
    lhs: float
    rhs: float
    formula: str
    slack: float  # oriented: >= 0 means the bound holds
    tightness: float  # |slack| / max(|lhs|, |rhs|)
    tolerance: float
    geometry: dict
    note: str = ""

    @property
    def satisfied(self) -> bool:
        return self.status == "satisfied"

    @property
    def applicable(self) -> bool:
        return self.status != "inapplicable"

    def to_dict(self) -> dict:
        return asdict(self)


def _tolerance(tol, default):
    """``tol``, or ``default`` for None; a NaN, infinite or non-positive
    tolerance is refused, before any side is computed: it would decide nothing."""
    tol = default if tol is None else tol
    check_tolerance(tol)
    return tol


def _verdict(name, formula, tol, geometry, sides=None, note=""):
    """The verdict on ``sides`` = (lhs, rhs, orient): orient=+1 means lhs >= rhs
    must hold, -1 lhs <= rhs, 0 lhs == rhs.  Without sides the bound does not
    apply: the verdict is 'inapplicable', with NaN sides, slack and tightness."""
    lhs = rhs = slack = tightness = float("nan")
    status = "inapplicable"
    if sides is not None:
        lhs, rhs, orient = sides
        slack = orient * (lhs - rhs) if orient else -abs(lhs - rhs)
        # each side is measured against itself, however small; two zero sides
        # are tight
        scale = max(abs(lhs), abs(rhs))
        status = "satisfied" if slack >= -tol * scale else "violated"
        tightness = abs(slack) / scale if scale else 0.0
    return BoundVerdict(
        name=name,
        status=status,
        lhs=float(lhs),
        rhs=float(rhs),
        formula=formula,
        slack=float(slack),
        tightness=float(tightness),
        tolerance=tol,
        geometry=geometry,
        note=note,
    )


# ---------------------------------------------------------------------------
# geometry cases: each knows its curvatures, spectrum and default tolerance.
# Every interior is flat Euclidean, so the curvature term of the lower bound
# never turns it inapplicable.


class SphereCase:
    """The round n-sphere of the given radius: closed-form curvatures and spectra."""

    tol = ANALYTIC_TOL

    def __init__(self, n: int, radius: float = 1.0):
        _check_count(n, "sphere dimension", 1)
        n = int(n)  # a numpy integer too, so that reports serialize
        # the eigenvalues divide by radius**2, which must not overflow or vanish
        square = float(radius) * float(radius)
        if not (radius > 0 and 0 < square < np.inf):
            raise ValueError(f"sphere radius must be finite and positive, as must its square, got {radius}")
        # the largest side a verdict reports is n**2 / radius**2, which n/radius
        # <= 1e154 keeps finite; comparing the int n with a float is exact, so
        # a huge n is refused without the int-to-float conversion that overflows
        if not n <= 1e154 * radius:
            raise ValueError(f"sphere n/radius must be at most 1e154 for finite sides, got n={n}, radius={radius}")
        self.boundary_dim = n
        self.radius = radius
        self.label = f"sphere(n={n}, r={radius:g})"

    def describe(self) -> dict:
        return {"label": self.label, "kind": "analytic-sphere", "n": self.boundary_dim, "radius": self.radius}

    def sigma(self, p: int) -> float:
        """Lowest p-curvature: every principal curvature is 1/radius."""
        if not 1 <= p <= self.boundary_dim:
            raise ValueError(f"p={p} out of range 1..{self.boundary_dim}")
        return p / self.radius

    def lambda1_exact(self, p: int) -> float:
        """First eigenvalue on exact p-forms."""
        lam, _ = sphere_hodge_oracle(self.boundary_dim, p)
        return lam / self.radius**2

    def h1_trivial(self) -> bool:
        # n=1 is kept applicable: the circle attains the degree-one upper
        # bound with equality and serves as its sharpness case
        return True

    def mean_shape_norm_sq(self, p: int) -> float:
        """Top-p partial sum |S|_p^2 of the squared principal curvatures."""
        return p / self.radius**2


class MeshCase:
    """A closed surface mesh: quadric-fitted curvatures and the DEC function
    spectrum, computed when first asked for."""

    tol = MESH_TOL
    boundary_dim = 2

    def __init__(self, mesh: MeshComplex, label: str = ""):
        _require_kind(mesh, "surface", "MeshCase")
        self.mesh = mesh
        self.label = label or mesh.metadata.get("generator", "mesh")
        self._lambda1 = None

    @classmethod
    def ellipsoid(cls, a, b, c, subdivisions: int = 3) -> "MeshCase":
        mesh = generate_ellipsoid(a, b, c, subdivisions)
        return cls(mesh, label=f"ellipsoid({a:g},{b:g},{c:g}; s={subdivisions})")

    def describe(self) -> dict:
        mesh = {"n_vertices": self.mesh.n_vertices, "metadata": self.mesh.metadata}
        return {"label": self.label, "kind": "mesh-surface", "n": 2, "mesh": mesh}

    def sigma(self, p: int) -> float:
        """Lowest p-curvature over the vertices."""
        if not 1 <= p <= 2:
            raise ValueError(f"p={p} out of range 1..2")
        return lowest_p_curvature_global(discrete_shape(self.mesh).principal, p)

    def lambda1_exact(self, p: int) -> float:
        """First positive function eigenvalue, the exact 1-form one (p = 1 only)."""
        if p != 1:
            raise ValueError("mesh-backed spectra only provide the degree-1 value")
        if self._lambda1 is None:
            self._lambda1 = spectrum(self.mesh, 0, SPECTRUM_K).first_positive()
        return self._lambda1

    def h1_trivial(self) -> bool:
        return self.mesh.betti_numbers()[1] == 0

    def mean_shape_norm_sq(self, p: int) -> float:
        """Area-averaged top-p partial sum |S|_p^2 of the squared principal curvatures."""
        sh = discrete_shape(self.mesh)
        vals = np.sort(sh.principal**2, axis=1)[:, -p:].sum(axis=1)
        return float((sh.areas * vals).sum() / sh.areas.sum())


# ---------------------------------------------------------------------------
# inequality checks; a tolerance of None is the case's own


def main_lower_bound(case: SphereCase | MeshCase, p: int, tol: float | None = None) -> BoundVerdict:
    """Lower bound of the first exact p-form eigenvalue by the product of the
    extreme p- and (n-p+1)-curvatures, for p-convex boundaries of flat (or
    nonnegatively curved) domains."""
    n = case.boundary_dim
    name, formula = "p_form_lower_bound", "lambda'_1,p >= sigma_p * sigma_(n-p+1)"
    tol = _tolerance(tol, case.tol)
    geometry = case.describe() | {"p": p}
    if not 1 <= p <= (n + 1) / 2:
        return _verdict(name, formula, tol, geometry, note=f"requires 1 <= p <= (n+1)/2, got p={p}")
    sigma_p = case.sigma(p)
    if sigma_p <= 0:
        note = f"boundary is not strictly p-convex (sigma_p={sigma_p:g})"
        return _verdict(name, formula, tol, geometry, note=note)
    lhs = case.lambda1_exact(p)
    rhs = sigma_p * case.sigma(n - p + 1)
    return _verdict(name, formula, tol, geometry, (lhs, rhs, +1))


def xia_bound(case: SphereCase | MeshCase, tol: float | None = None) -> BoundVerdict:
    """Function-Laplacian lower bound n*c^2 for convex boundaries with all
    principal curvatures >= c > 0."""
    n = case.boundary_dim
    name, formula = "xia_bound", "lambda_1 >= n * c^2"
    tol = _tolerance(tol, case.tol)
    geometry = case.describe()
    c = case.sigma(1)
    if c <= 0:
        return _verdict(name, formula, tol, geometry, note=f"boundary not convex (min curvature {c:g})")
    lhs = case.lambda1_exact(1)
    rhs = n * c * c
    return _verdict(name, formula, tol, geometry, (lhs, rhs, +1))


def upper_bound_degree_one(case: SphereCase | MeshCase, tol: float | None = None) -> BoundVerdict:
    """Upper bound of the function eigenvalue by the averaged squared shape
    norm, for boundaries with trivial first cohomology in a flat ambient."""
    n = case.boundary_dim
    name, formula = "parallel_upper_bound_degree_one", "lambda_1 <= n * avg|S|^2"
    tol = _tolerance(tol, case.tol)
    geometry = case.describe()
    if not case.h1_trivial():
        note = "nontrivial H^1: harmonic 1-forms absorb the parallel restrictions"
        return _verdict(name, formula, tol, geometry, note=note)
    lhs = case.lambda1_exact(1)
    rhs = n * case.mean_shape_norm_sq(n)
    return _verdict(name, formula, tol, geometry, (lhs, rhs, -1))


def upper_bound_degree_p(case: SphereCase | MeshCase, p: int, tol: float | None = None) -> BoundVerdict:
    """Upper bound of the exact p-form eigenvalue by alpha(p) times the
    averaged top-alpha(p) squared curvature sum, alpha(p) = max(p, n-p+1).

    Mid-degree bound for hypersurfaces with vanishing cohomology in degrees
    p and n-p+1; sharp at p = (n+1)/2 (attained by odd-dimensional unit
    spheres).  Analytic cases only: surface meshes have no degree in range.
    """
    n = case.boundary_dim
    alpha = max(p, n - p + 1)
    formula = "lambda'_1,p <= alpha(p) * avg|S|^2_alpha(p)"
    tol = _tolerance(tol, case.tol)
    geometry = case.describe() | {"p": p, "alpha": alpha}
    if not 2 <= p <= n - 1:
        raise ValueError(f"p={p} out of range 2..{n - 1}")
    lhs = case.lambda1_exact(p)
    rhs = alpha * case.mean_shape_norm_sq(alpha)
    return _verdict("parallel_upper_bound_degree_p", formula, tol, geometry, (lhs, rhs, -1))


def special_killing_relation(c: float, p: int, n: int, tol: float | None = None):
    """Eigenvalue c(p+1)(n-p) of the coclosed eigenform built from a special
    Killing p-form with number c, plus the verdict that it matches the
    exact (p+1)-form eigenvalue of the round sphere of curvature c.

    Returns (eigenvalue, BoundVerdict).
    """
    tol = _tolerance(tol, ANALYTIC_TOL)
    if not 0 <= c < np.inf:
        raise ValueError(f"special Killing number c must be finite and >= 0, got {c}")
    if not 1 <= p + 1 <= n:
        raise ValueError(f"degree p+1={p + 1} out of range 1..{n}")
    try:
        value = c * (p + 1) * (n - p)
        lam_unit, _ = sphere_hodge_oracle(n, p + 1)
        sphere_value = lam_unit * c  # radius 1/sqrt(c); zero for c = 0
        overflows = not max(value, sphere_value) < np.inf
    except OverflowError:  # an int c or n that no float holds
        overflows = True
    if overflows:
        raise ValueError(f"special Killing eigenvalue c(p+1)(n-p) overflows for c={c}, p={p}, n={n}")
    geometry = {"label": f"special-killing(c={c:g}, p={p}, n={n})", "n": n, "p": p, "c": c}
    formula = "lambda''_1,p = lambda'_1,p+1 = c(p+1)(n-p)"
    return value, _verdict("special_killing_eigenvalue", formula, tol, geometry, (value, sphere_value, 0))


# ---------------------------------------------------------------------------
# equality-case diagnostics


@dataclass
class EqualityDiagnostics:
    """Volume-ratio relations that characterize the round ball."""

    geometry: dict
    checks: list  # (name, got, want, ok)
    tolerance: float
    satisfied: bool

    def to_dict(self):
        return {
            "geometry": self.geometry,
            "checks": [
                {"name": n, "got": g, "want": w, "ok": bool(o)}
                for n, g, w, o in self.checks
            ],
            "tolerance": self.tolerance,
            "satisfied": self.satisfied,
        }


def equality_case_diagnostics(ball, p: int = 1, radius: float = 1.0) -> EqualityDiagnostics:
    """Check vol(boundary)/vol(domain) = sigma_p + sigma_(n-p+1) = (n+1)/r
    and H = ratio/(n+1), on an analytic ball or a solid ball mesh; a mesh's
    r is that of its :func:`boundary_surface`, else ``radius``."""
    checks = []
    if isinstance(ball, MeshComplex):
        _require_kind(ball, "solid", "equality_case_diagnostics")
        tol = 2e-2
        surface = boundary_surface(ball)
        r = radius if surface is None else surface.radius
        # the checks compare with 3/r; NaN or inf there fails or passes every one
        if not (0 < r < np.inf and 3.0 / r < np.inf):
            raise ValueError(f"radius must be finite and positive, as must 3/radius, got {radius}")
        ratio = ball.area() / ball.volume()
        case = MeshCase(ball.boundary_mesh()[0])
        h_mean = float(discrete_shape(case.mesh).mean.mean())
        geometry = {"label": "mesh-ball", "metadata": ball.metadata, "p": p}
    else:
        tol = ANALYTIC_TOL
        case = SphereCase(ball, radius)
        r = radius
        ratio = (case.boundary_dim + 1) / r
        h_mean = 1.0 / r
        geometry = {"label": f"ball(n+1={case.boundary_dim + 1}, r={r:g})", "p": p}
    n = case.boundary_dim
    sigma_sum = case.sigma(p) + case.sigma(n - p + 1)
    expected = (n + 1) / r

    def rel_ok(got, want, factor=1.0):
        # curvature-backed checks inherit the quadric-fit bias: looser factor
        return abs(got - want) <= factor * tol * max(abs(want), 1e-300)

    checks.append(("area_over_volume", float(ratio), float(expected), rel_ok(ratio, expected)))
    checks.append(
        ("sigma_p_plus_sigma_dual", float(sigma_sum), float(expected), rel_ok(sigma_sum, expected, 2.5))
    )
    checks.append(
        (
            "mean_curvature_vs_ratio",
            float(h_mean),
            float(ratio / (n + 1)),
            rel_ok(h_mean, ratio / (n + 1), 2.5),
        )
    )
    return EqualityDiagnostics(
        geometry=geometry,
        checks=checks,
        tolerance=tol,
        satisfied=all(ok for *_, ok in checks),
    )


# ---------------------------------------------------------------------------
# reporting


def verdict_table(verdicts) -> str:
    """Human-readable grid of verdicts."""
    rows = [("check", "geometry", "status", "lhs", "rhs", "tightness")]
    for v in verdicts:
        rows.append(
            (
                v.name,
                v.geometry.get("label", "?"),
                v.status,
                "-" if np.isnan(v.lhs) else f"{v.lhs:.6g}",
                "-" if np.isnan(v.rhs) else f"{v.rhs:.6g}",
                "-" if np.isnan(v.tightness) else f"{v.tightness:.2e}",
            )
        )
    widths = [max(len(r[i]) for r in rows) for i in range(len(rows[0]))]
    lines = []
    for r in rows:
        lines.append("  ".join(str(x).ljust(w) for x, w in zip(r, widths)))
    return "\n".join(lines)
