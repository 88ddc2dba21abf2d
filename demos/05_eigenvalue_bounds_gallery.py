"""
Eigenvalue bounds across geometries
===================================

Verdict grid for the eigenvalue inequalities: exact equalities on round
spheres (every radius), strict satisfaction on convex ellipsoid meshes, the
topology gate on a torus, and the ball volume-ratio diagnostics of the
equality case.
"""

import numpy as np

from hodgebench import (
    AlternatingForm,
    MeshCase,
    SphereCase,
    equality_case_diagnostics,
    generate_ball,
    generate_torus,
    main_lower_bound,
    special_killing_relation,
    upper_bound_degree_one,
    upper_bound_degree_p,
    xia_bound,
)
from hodgebench.bounds import verdict_table
from hodgebench.reilly import restriction_identity_residuals

verdicts = []

# spheres: every bound is attained exactly
for n, radius in [(2, 1.0), (2, 2.0), (3, 1.0), (5, 1.0)]:
    case = SphereCase(n, radius)
    for p in range(1, (n + 1) // 2 + 1):
        verdicts.append(main_lower_bound(case, p))
    verdicts.append(xia_bound(case))
    verdicts.append(upper_bound_degree_one(case))
for p in (2, 3):  # sharp middle degree on odd spheres
    verdicts.append(upper_bound_degree_p(SphereCase(2 * p - 1, 1.0), p))

# convex ellipsoid meshes: satisfied with strictly positive slack
for abc in [(1.0, 1.0, 1.2), (1.0, 1.1, 1.2)]:
    case = MeshCase.ellipsoid(*abc, subdivisions=3)
    verdicts.append(main_lower_bound(case, 1))
    verdicts.append(xia_bound(case))
    verdicts.append(upper_bound_degree_one(case))

# torus: nontrivial H^1 gates the parallel-form upper bound
verdicts.append(upper_bound_degree_one(MeshCase(generate_torus(16, 8))))

print(verdict_table(verdicts))

# the coclosed eigenform built from a special Killing form matches the
# sphere spectrum for every number c
print("\nspecial Killing eigenvalues c(p+1)(n-p):")
for c, p, n in [(1.0, 1, 2), (1.0, 2, 5), (0.25, 1, 3)]:
    value, verdict = special_killing_relation(c, p, n)
    print(f"  c={c:g}, p={p}, n={n}: {value:g}  [{verdict.status}]")

# parallel restriction identities on round spheres, analytic residuals
xi = AlternatingForm(3, 2, [1.0, 0.0, 0.0])
res = restriction_identity_residuals(xi, radius=1.0)
print(f"\nrestriction identities on S^2 for dx1^dx2: residuals {res[0]:.2e}, {res[1]:.2e}")

# equality case: the volume ratio of a ball determines the curvature sums
print("\nball equality diagnostics:")
for report in (equality_case_diagnostics(2, p=1, radius=1.0),
               equality_case_diagnostics(generate_ball(3), p=1)):
    label = report.geometry["label"]
    print(f"  {label}: satisfied={report.satisfied}")
    for name, got, want, ok in report.checks:
        print(f"    {name}: {got:.5f} vs {want:.5f} ({'ok' if ok else 'FAIL'})")
