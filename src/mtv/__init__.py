"""Numerical engine for holomorphic symplectic varieties glued from
Slodowy slices, their moment-map axioms, and the transverse Hilbert scheme
correspondence for GL(k, C) / SL(k, C)."""
import os

# One BLAS thread unless the user set one, before numpy loads: at most 15 x 15
# matrices, extra threads only oversubscribe a busy host.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

from .errors import (
    ConditioningError,
    DegenerateSchemeError,
    DimensionMismatchError,
    GluingError,
    LevelSetError,
    MtvError,
    RegularityError,
    SignatureError,
    SingularMatrixError,
    ValidationError,
)
from .lie import (
    AElement,
    InvariantPolynomial,
    inv_poly_eval,
    is_regular,
    pairing,
    polarized_gradient,
)
from .slodowy import (
    PrincipalTriple,
    SlicePoint,
    is_in_slice,
    principal_triple,
    slice_embed,
    slice_point,
    slice_representative,
)
from .wspace import (
    INCOMING,
    OUTGOING,
    WPoint,
    WTangent,
    a_action,
    a_moment,
    opposite_slice_conjugator,
    phi_E,
    phi_E_inverse,
    theta,
    theta_twisted,
    w_moment,
    w_symplectic,
)
from .uspace import (
    UClass,
    UTangent,
    W00Point,
    axiom_d_residual,
    g_action,
    glue,
    perm_action,
    sl_membership,
    u11_from_tstar,
    u11_to_tstar,
    u_build,
    u_equivalent,
    u_equivalence_residual,
    u_moment,
    u_symplectic,
    phi_e_class,
    w00_from_glue,
)
from .hilbert import (
    FTangent,
    JetScheme,
    LocalPiece,
    f_moment,
    f_presymplectic,
    g_matrix,
    hilb_to_u,
    jet_normalize,
    jordan_of,
    locally_nondegenerate,
    nondegenerate,
    orbit_invariant,
    u_to_hilb,
)
from .verify import Report, SuiteConfig, run_suite

__version__ = "0.1.0"
