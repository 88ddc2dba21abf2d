"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v --capture=tee-sys`` (or ``-s``)
to stream the verdict lines.
"""

import itertools
import time
from contextlib import contextmanager
from math import comb

import numpy as np
import pytest

from hodgebench.bounds import (
    MeshCase,
    SphereCase,
    equality_case_diagnostics,
    main_lower_bound,
    special_killing_relation,
    upper_bound_degree_one,
    upper_bound_degree_p,
    xia_bound,
)
from hodgebench.exterior import AlternatingForm, duality_identity_residual, induced_endomorphism
from hodgebench.fields import named_form_field, named_scalar_field
from hodgebench.meshes import (
    discrete_shape,
    generate_ball,
    generate_ellipsoid,
    generate_icosphere,
    generate_torus,
)
from hodgebench.reilly import (
    evaluate_classical_reilly,
    evaluate_reilly,
    restriction_identity_residuals,
    run_reilly_levels,
)
from hodgebench.spectrum import (
    assemble_dec,
    spectrum,
    sphere_hodge_oracle,
)

RESIDUAL_FLOOR = 1e-10


@contextmanager
def verdict(number, description):
    try:
        yield
    except Exception:
        print(f"ACCEPTANCE {number}: FAIL - {description}")
        raise
    print(f"ACCEPTANCE {number}: PASS - {description}")


def decreasing_with_floor(values, floor=RESIDUAL_FLOOR):
    return all(cur <= max(prev, floor) for prev, cur in zip(values, values[1:]))


def test_criterion_1_induced_operator_oracle():
    with verdict(1, "induced operator spectra match brute-force p-subset sums"):
        rng = np.random.default_rng(101)
        start = time.monotonic()
        for trial in range(200):
            n = 2 + trial % 7  # cycles n through 2..8
            a = rng.standard_normal((n, n))
            s = (a + a.T) / 2
            eta = np.linalg.eigvalsh(s)
            for p in range(1, n + 1):
                got = np.sort(induced_endomorphism(s, p).eigenvalues())
                want = np.sort([sum(c) for c in itertools.combinations(eta, p)])
                assert np.abs(got - want).max() <= 1e-10
            # top degree is exactly multiplication by the trace
            top = induced_endomorphism(s, n).matrix
            trace = 0.0
            for i in range(n):
                trace += s[i, i]
            assert top.shape == (1, 1)
            assert top[0, 0] == trace
        elapsed = time.monotonic() - start
        assert elapsed < 10.0, f"took {elapsed:.1f}s"


def test_criterion_2_duality_identity():
    with verdict(2, "star-conjugation duality identity residual <= 1e-10"):
        rng = np.random.default_rng(102)
        for trial in range(200):
            n = 2 + trial % 7
            a = rng.standard_normal((n, n))
            s = (a + a.T) / 2
            for p in range(n + 1):
                assert duality_identity_residual(s, p) <= 1e-10


def test_criterion_3_sphere_spectrum():
    with verdict(3, "icosphere(4) spectrum, both assembly paths, sphere oracle"):
        start = time.monotonic()
        mesh = generate_icosphere(4, 1.0)
        assert mesh.n_vertices == 2562
        dec = assemble_dec(mesh)
        rep0 = spectrum(mesh, 0, 6, dec=dec)
        lam1 = rep0.first_positive()
        assert abs(lam1 - 2.0) / 2.0 <= 0.02
        cluster = next(c for c in rep0.clusters if abs(c[0] - lam1) < 0.1)
        assert cluster[1] == 3
        rep1 = spectrum(mesh, 1, 8, dec=dec)
        lam1_exact = rep1.first_positive("exact")
        assert abs(lam1_exact - lam1) / lam1 <= 1e-8
        for n in range(1, 11):
            for p in range(1, n + 1):
                lam, mult = sphere_hodge_oracle(n, p)
                assert lam == p * (n - p + 1)
                assert mult == comb(n + 1, p)
        elapsed = time.monotonic() - start
        assert elapsed < 60.0, f"took {elapsed:.1f}s"


def test_criterion_4_classical_identity():
    with verdict(4, "function-case ledger on the unit ball"):
        ledgers = run_reilly_levels([1, 2, 3], named_scalar_field("linear-x1"))
        assert abs(ledgers[-1].residual) <= 0.05 * 4 * np.pi
        rel = [l.relative_residual for l in ledgers]
        assert decreasing_with_floor(rel)

        ball = generate_ball(3)
        vol, area = ball.volume(), ball.area()
        ledger = evaluate_classical_reilly(ball, named_scalar_field("radial-sq"))
        # closed forms: lap f = 3, hessian identity, f_N = -1 on the boundary
        assert abs(ledger.lhs - 9 * vol) <= 0.05 * 9 * vol
        assert abs(ledger.terms["hessian_energy"] - 3 * vol) <= 0.05 * 3 * vol
        assert abs(ledger.terms["boundary_mean_normal_sq"] - 2 * area) <= 0.05 * 2 * area
        assert abs(ledger.terms["boundary_normal_laplacian"]) <= 0.05 * area
        assert abs(ledger.terms["boundary_shape_gradient"]) <= 0.05 * area
        assert ledger.relative_residual <= 0.05


def test_criterion_5_pform_identity():
    with verdict(5, "p-form ledger balances; parallel forms reduce to the boundary"):
        ball = generate_ball(3)
        vol = ball.volume()
        ledger = evaluate_reilly(ball, named_form_field("x2dx1"))
        assert ledger.relative_residual <= 0.05
        for name in ("parallel-dx1", "parallel-dx12"):
            led = evaluate_reilly(ball, named_form_field(name))
            assert led.lhs <= 1e-3 * vol
            assert led.terms["dirichlet_energy"] <= 1e-3 * vol
            assert led.terms["curvature_energy"] <= 1e-3 * vol
            cross = led.terms["normal_cross_term"]
            bnd = led.terms["boundary_shape_term"]
            assert abs(cross + bnd) <= 0.05 * max(abs(cross), abs(bnd))


def test_criterion_6_restriction_identities():
    with verdict(6, "parallel restriction identities on the unit 2-sphere"):
        for degree in (1, 2):
            for slot in range(comb(3, degree)):
                coeffs = np.zeros(comb(3, degree))
                coeffs[slot] = 1.0
                res1, res2 = restriction_identity_residuals(
                    AlternatingForm(3, degree, coeffs)
                )
                assert res1 <= 1e-8
                assert res2 <= 1e-8


def test_criterion_7_bounds_suite():
    with verdict(7, "equalities on spheres; convex ellipsoid meshes satisfied"):
        all_verdicts = []
        for n in (1, 2, 3, 4, 5):
            for radius in (1.0, 2.0):
                case = SphereCase(n, radius)
                for p in range(1, (n + 1) // 2 + 1):
                    v = main_lower_bound(case, p)
                    assert v.satisfied and v.tightness <= 1e-12
                    all_verdicts.append(v)
                v = xia_bound(case)
                assert v.satisfied and v.tightness <= 1e-12
                all_verdicts.append(v)
                all_verdicts.append(upper_bound_degree_one(case))
            _, v = special_killing_relation(1.0, max(0, (n - 1) // 2), n)
            assert v.satisfied and v.tightness <= 1e-12
            all_verdicts.append(v)
        for p in (2, 3):  # odd spheres at the sharp middle degree
            v = upper_bound_degree_p(SphereCase(2 * p - 1, 1.0), p)
            assert v.satisfied and v.tightness <= 1e-12
            all_verdicts.append(v)

        axes = [
            (1.0, 1.0, 1.1),
            (1.0, 1.1, 1.2),
            (0.9, 1.0, 1.1),
            (1.0, 1.0, 1.3),
            (1.0, 1.2, 1.3),
        ]
        for abc in axes:
            case = MeshCase.ellipsoid(*abc, subdivisions=3)
            for v in (
                main_lower_bound(case, 1, tol=0.03),
                xia_bound(case, tol=0.03),
                upper_bound_degree_one(case, tol=0.03),
            ):
                assert v.applicable
                assert v.satisfied
                all_verdicts.append(v)

        assert not any(v.applicable and not v.satisfied for v in all_verdicts)

        # quantitative shadow of the equality case: ball volume ratios
        assert equality_case_diagnostics(2, p=1, radius=1.0).satisfied
        mesh_report = equality_case_diagnostics(generate_ball(3), p=1)
        ratio = dict((c[0], c) for c in mesh_report.checks)["area_over_volume"]
        assert abs(ratio[1] - 3.0) / 3.0 <= 0.02


def test_criterion_8_property_suite():
    with verdict(8, "operator norm bounds and p-curvature monotonicity"):
        rng = np.random.default_rng(108)
        for trial in range(1000):
            n = 2 + trial % 6
            p = 1 + trial % n
            a = rng.standard_normal((n, n))
            s = (a + a.T) / 2
            eta = np.linalg.eigvalsh(s)
            phi = rng.standard_normal(comb(n, p))
            ext = induced_endomorphism(s, p).matrix
            lhs = float(((ext @ phi) ** 2).sum())
            top_p_sq = np.sort(eta**2)[-p:].sum()  # the p largest squared curvatures
            bound = p * top_p_sq * float((phi**2).sum())
            assert lhs <= bound + 1e-10 * max(1.0, bound)
            if p < n:
                s0 = s - np.trace(s) / n * np.eye(n)
                eta0 = np.linalg.eigvalsh(s0)
                ext0 = induced_endomorphism(s0, p).matrix
                lhs0 = float(((ext0 @ phi) ** 2).sum())
                bound0 = (
                    p * (n - p) / n * float((eta0**2).sum()) * float((phi**2).sum())
                )
                assert lhs0 <= bound0 + 1e-10 * max(1.0, bound0)

        meshes = [
            generate_icosphere(3, 1.0),
            generate_ellipsoid(1.0, 1.0, 1.2, 2),
            generate_ellipsoid(0.9, 1.0, 1.1, 2),
            generate_torus(16, 8),
        ]
        ball_boundary, _ = generate_ball(2).boundary_mesh()
        meshes.append(ball_boundary)
        for mesh in meshes:
            shape = discrete_shape(mesh)
            eta = shape.principal  # (V, 2) ascending
            sigma1 = eta[:, 0]
            sigma2 = eta.sum(axis=1)
            assert (sigma1 / 1.0 <= sigma2 / 2.0 + 1e-12).all()
