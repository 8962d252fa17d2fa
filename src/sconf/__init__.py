"""Exact symbolic toolkit for the untwisted N=2 superconformal algebras and
their rank-2 Cartan-free modules.

The package constructs the Ramond, Neveu-Schwarz, and topological N=2
algebras together with the centerless N=1 pair, the rank-2 module on two
polynomial planes, its complete submodule lattice, the simple quotients with
their isomorphisms and composition series, and the N=1 restrictions -- and it
machine-verifies every defining relation, action formula, and intertwining
identity by exhaustive bounded sweeps with exact arithmetic.
"""

from .errors import (
    AlgebraMismatch,
    MixedParity,
    NotAUnit,
    ParamMismatch,
    ParseError,
    SconfError,
    UnsplitPolynomial,
)
from .scalars import QuadExt, Scalar, SQRT2
from .algebras import (
    ALGEBRAS,
    AlgebraElement,
    BasisSymbol,
    GeneratorMap,
    STANDARD_MAPS,
    apply_map,
    basis_symbols,
    bracket,
    check_antisymmetry,
    check_homomorphism,
    check_super_jacobi,
    check_twist_composition,
    compose,
    embed_ns1_in_r1,
    embed_r1_in_r2,
    maps_agree,
    spectral_flow,
    topological_to_ramond,
    topological_twist,
)
from .freemod import (
    EVEN,
    ODD,
    ModuleElement,
    act,
    act_basis,
    check_central_triviality,
    check_module_compatibility,
    check_odd_square_zero,
    check_shift_identities,
    check_uh_freeness,
    monomials,
)
from .submodules import (
    SubmoduleSpec,
    UniPoly,
    check_closure,
    check_containment,
    check_lattice_order,
    contains,
)
from .quotients import (
    CompositionSeries,
    QuotientElement,
    QuotientParams,
    check_phi_intertwines,
    check_projection_intertwines,
    check_quotient_compatibility,
    check_xi_intertwines,
    composition_series,
    find_roots,
    iso_phi,
    iso_xi,
    project,
    quotient_act,
    quotient_act_basis,
)
from .n1 import (
    RestrictedAction,
    check_n1_relations,
    check_rank1_freeness,
    check_simplicity_witness,
    restricted_act,
)
from .parsing import (
    parse_algebra_element,
    parse_module_element,
    parse_quadext,
    parse_quotient_element,
    parse_scalar,
    parse_submodule_spec,
    parse_unipoly,
)
from .reports import VerificationReport, Violation

__version__ = "0.1.0"
