"""
Hypersurface curvature: p-curvatures and discrete shape operators
=================================================================

p-curvature lists and convexity predicates on analytic data, then the
quadric-fitted shape operator of generated meshes checked against the
closed-form ellipsoid curvatures.
"""

import numpy as np

from hodgebench import (
    discrete_shape,
    generate_ellipsoid,
    generate_icosphere,
    is_p_convex,
    lowest_p_curvature_global,
    p_curvature_list,
)
from hodgebench.meshes import ellipsoid_principal_curvatures

# all 2-fold sums of principal curvatures (-1, 0, 2)
print("2-curvatures of (-1, 0, 2):", p_curvature_list([-1.0, 0.0, 2.0], 2))
print("1-convex?", is_p_convex([np.array([-1.0, 0.0, 2.0])], 1))
print("3-convex?", is_p_convex([np.array([-1.0, 0.0, 2.0])], 3))

# unit sphere meshes: curvature estimates converge to 1 with refinement
print("\nicosphere curvature accuracy (two-ring quadric fit):")
for s in (2, 3, 4):
    shape = discrete_shape(generate_icosphere(s, 1.0))
    err = np.abs(shape.principal - 1.0).max()
    print(f"  subdivision {s}: vertices {shape.principal.shape[0]:6d}   max |eta - 1| = {err:.4f}")

# ellipsoid: fitted curvatures vs. the level-set closed form
abc = (1.0, 1.0, 2.0)
mesh = generate_ellipsoid(*abc, subdivisions=3)
shape = discrete_shape(mesh)
oracle = ellipsoid_principal_curvatures(mesh.vertices, abc)
err = np.abs(shape.principal - oracle)
print(f"\nellipsoid {abc}: fitted vs closed-form curvatures")
print(f"  max error {err.max():.4f}, median {np.median(err):.4f}")

# global lowest p-curvatures of the ellipsoid (minimum over vertices)
for p in (1, 2):
    print(f"  sigma_{p} over the mesh: {lowest_p_curvature_global(shape.principal, p):.4f}")
print("  closed-form minimum curvature (equator): "
      f"{ellipsoid_principal_curvatures(np.array([[1.0, 0.0, 0.0]]), abc)[0][0]:.4f}")
