"""Numerical laboratory for continuous-variable IQP circuits with GKP encoding
and finite-resolution homodyne detection."""

from .errors import (
    GridMismatchError,
    NumericalError,
    RepresentationError,
    ValidationError,
    ZeroMassBinError,
)
from .quadgrid import (
    GridSupportWarning,
    ModeState,
    QuadratureGrid,
    Rep,
    TwoModeState,
    as_rep,
    fidelity_pure,
    inner_product,
    make_grid,
    norm,
    normalized,
    self_dual_grid,
    to_momentum,
    to_position,
    transform_mode,
)
from .states import (
    GkpParams,
    gkp_minus,
    gkp_one,
    gkp_plus,
    gkp_zero,
    min_admissible_n_max,
    squeezed_momentum,
)
from .gates import (
    apply_cz,
    apply_fourier,
    apply_phase_function,
    apply_phase_function2,
    apply_t,
    apply_z,
    displace_p,
    displace_q,
    tensor,
)
from .homodyne import (
    ConditionalEnsemble,
    DetectorParams,
    ReadoutResult,
    TailMassWarning,
    bin_probabilities,
    ensemble_fidelity,
    gkp_readout,
    project_bin,
    sample_outcome,
    sample_outcomes,
)
from .gadgets import (
    GadgetReport,
    QubitState,
    ShiftNoise,
    apply_shift_noise,
    centered_mod_sqrt_pi,
    dv_hadamard_gadget,
    dv_hadamard_trials,
    dv_iqp_circuit,
    error_corrected_fourier,
    fourier_gadget,
    fourier_gadget_target,
    gkp_error_correct,
    outcome_distribution,
    qubit_state,
)
from .analysis import (
    ComposedPostselection,
    ScalingReport,
    check_multiplicative,
    composed_postselection,
    conditional_factor,
    delta_sq_from_db,
    fault_tolerant_fourier_error,
    min_squeezing_db,
    pe_bound,
    pe_budget_check,
    solve_ft_error,
    squeezing_db,
)

__version__ = "0.1.0"
