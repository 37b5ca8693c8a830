"""loopreg: one-loop integral regularization by mass-parameter
differentiation, with QED self-energy and quartic-scalar applications and an
independent cutoff-quadrature oracle."""

from .feynpar import PolyLogIntegrand, integrate_poly_log
from .kernel import (
    ConstantEntry,
    RegularizedValue,
    ScalarLoopIntegral,
    StillDivergentError,
    Term,
    differentiate_in_masssq,
    differentiation_count,
    evaluate_convergent,
    integrate_back,
    regularize,
    superficial_degree,
)
from .oracle import (
    CutoffProbe,
    DivergenceSignature,
    InsufficientGridError,
    QuadratureError,
    QuadratureSpec,
    asymptote_constant,
    divergence_signature,
    radial_integral,
    wick_rotated_radial,
)
from .phi4 import (
    HiggsReference,
    LandauPoleError,
    ResummationState,
    SSBPotential,
    critical_scale,
    geometric_partial_sum,
    lambda_invariant_ratio,
    lambda_renormalized,
    resum_chain,
    resum_first_order,
    ssb_vacuum,
    symmetry_status,
)
from .qed import (
    MassShift,
    lamb_shift_estimate,
    on_shell_mass_shift,
    pipeline_coefficients,
    solve_mu1,
    solve_mu1_by_root,
)

__version__ = "0.1.0"
