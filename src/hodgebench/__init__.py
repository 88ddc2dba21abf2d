"""hodgebench: a spectral-geometry workbench for differential forms.

Exterior algebra, hypersurface curvature, discrete Hodge Laplacians on
triangle meshes, boundary integral identities on solid meshes, and
eigenvalue bound reports on spheres, balls, ellipsoids and user meshes.
"""

__version__ = "0.1.0"

from .exterior import (
    AlternatingForm,
    InducedEndomorphism,
    SplitForm,
    duality_identity_residual,
    hodge_star,
    induced_endomorphism,
    interior_product,
    split_at_boundary,
    wedge,
)
from .curvature import is_p_convex, lowest_p_curvature_global, p_curvature_list
from .meshes import (
    DiscreteShape,
    MeshComplex,
    MeshError,
    discrete_shape,
    generate_ball,
    generate_ellipsoid,
    generate_icosphere,
    generate_torus,
    load_mesh,
)
from .spectrum import (
    DecOperators,
    SolverError,
    SpectrumReport,
    assemble_dec,
    spectrum,
    sphere_hodge_oracle,
)
from .fields import FormField, ScalarField, named_form_field, named_scalar_field
from .reilly import (
    ReillyLedger,
    SphereSurface,
    check_commutation,
    check_derivative_formulas,
    check_stokes,
    evaluate_classical_reilly,
    evaluate_reilly,
)
from .bounds import (
    BoundVerdict,
    MeshCase,
    SphereCase,
    equality_case_diagnostics,
    main_lower_bound,
    special_killing_relation,
    upper_bound_degree_one,
    upper_bound_degree_p,
    xia_bound,
)
