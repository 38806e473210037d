"""folcone: exact invariants of polynomial singular foliations.

Parse polynomial generator fields, compute pointwise kernels, strong kernels
and isotropy Lie algebras, sample Nash-blow-up and cone fibers as exact
Grassmannian limits along arcs, realize operator words as differential
operators with symbols and ellipticity verdicts, and verify cone invariance
under fiberwise-linear Hamiltonian flows.
"""

__version__ = "0.1.0"

from .algebra import (
    generic_rank,
    kernel_basis,
    kernel_basis_over_curve,
    lie_bracket,
    rank,
    solve_linear,
)
from .expr import (
    OperatorWord,
    ParseError,
    Polynomial,
    PolyVectorField,
    parse_operator,
    parse_polynomial,
    parse_vector_field,
)
from .foliation import (
    FoliationPresentation,
    IsotropyAlgebra,
    MissingStructureFunctions,
    Structure,
    anchor_matrix,
    is_regular,
    isotropy_algebra,
    jacobi_flag,
    leaf_dimension_at,
    solve_structure_functions,
    strong_kernel_at,
)
from .grassmann import (
    Curve,
    CurveNotGeneric,
    Subspace,
    ZeroPluckerLimit,
    annihilator,
    limit_along_curve_detailed,
    make_subspace,
    point_distance,
    subspace_distance,
)
from .hncone import (
    HNFiberSample,
    NashFiberSample,
    cone_checks,
    curve_family,
    hn_fiber,
    limit_subalgebra_check,
    nash_fiber,
    sandwich_check,
)
from .poisson import (
    HamiltonianField,
    NonFiniteState,
    check_scenario,
    cotangent_lift_check,
    covector_flow,
    flow_rk4,
    hamiltonian_field,
    hn_invariance_test,
    poisson_bracket,
)
from .presets import Preset, PresetError, load_preset
from .symbols import (
    DiffOperator,
    OddDegreeWarning,
    UEAElement,
    classical_principal_symbol,
    ellipticity_check,
    pullback_consistency,
    pullback_defect,
    realize,
    symbol_on_fiber,
    symbol_top,
    uea_product,
)
