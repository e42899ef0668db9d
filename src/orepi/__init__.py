"""orepi: exact symbolic checks for PBW presentations of quantum-type
algebras, their straightening identities, central elements, and
polynomial-identity criteria."""

from .center import (
    CentralSet,
    OrderResult,
    PiVerdict,
    QPlaneWitness,
    central_candidates,
    downup_center_generators,
    fixed_polynomials,
    gwa_auto_order,
    is_central,
    spanning_check,
)
from .fields import Coeff, FieldCtx, coeff_to_str, parse_coeff
from .identities import (
    LEMMA_IDS,
    check_paper_identity,
    gauss_binomial,
    oracle_rhs,
    pq_number,
    q_factorial,
    q_number,
)
from .matrep import (
    MatAlgebra,
    multilinear_identity_search,
    quantum_plane_rep,
    standard_poly_eval,
)
from .pidecide import pi_decide, verify_witness
from .presentations import (
    FAMILIES,
    FamilySpec,
    Presentation,
    RewriteRule,
    build_family,
    spec_bh,
    spec_biquad3,
    spec_bqf,
    spec_downup,
    spec_hpq,
    spec_hq,
    spec_m2,
    spec_quantum_plane,
    spec_three_cyclic,
    spec_uqb2,
    spec_weyl,
    validate_orientation,
)
from .rewrite import (
    ConfluenceReport,
    NCPoly,
    multiply,
    normal_form,
    overlap_check,
    q_commutator,
)

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
