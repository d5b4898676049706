"""Coined quantum walks on integer lattices with exact full-state revivals.

The library builds cyclic and partial-cycle phase coins whose matrix
order equals the coin dimension (or the cycle length), pairs them with
zero-sum integer shift tables, evolves sparse coin-walker states, and
verifies the flat roots-of-unity momentum spectrum that guarantees the
revivals. A dense truncated-lattice oracle and closed-form matrix powers
provide independent cross-checks of the sparse engine.
"""

from .coins import (
    CoinKind,
    CoinMatrix,
    build_custom_coin,
    build_cyclic_coin,
    build_general_coin_1d,
    build_partial_cycle_coin,
    complete_phases,
    cyclic_power_closed_form,
    phase_sum_residual,
    random_cyclic_phases,
    wrap_phase,
)
from .config import (
    CoinSpec,
    InitialEntry,
    WalkConfig,
    build_instance,
    config_to_dict,
    load_config,
    parse_config,
    parse_phase,
    serialize_config,
)
from .engine import (
    RevivalMode,
    RevivalReport,
    WalkInstance,
    detect_revival,
    evolve,
    probability_distribution,
    stationary_component_check,
    step,
    trajectory,
)
from .errors import (
    ConfigError,
    ConstraintError,
    CoordinateOverflowError,
    DimensionMismatchError,
    NonUnitaryError,
    NormalizationError,
    OracleTooLargeError,
    OrderMismatchError,
    PhaseSumError,
    WindowTooSmallError,
    ZeroSumError,
)
from .golden import TableComparison, golden_config, reproduce_table
from .linalg import is_unitary, matrix_order
from .momentum import (
    MomentumPropagator,
    SpectrumReport,
    characteristic_eigenvalues,
    dense_oracle_evolve,
    evaluate_propagator,
    propagator_order,
    roots_of_unity,
    spectrum_distance,
    spectrum_sweep,
    wrap_momentum,
)
from .records import probability_csv, run_spectrum, run_walk
from .shifts import (
    ShiftTable,
    apply_shift,
    build_shift_table,
    conventional_two_state_shifts,
    usual_shift_choice,
)
from .states import WalkState, inner_product, l2_distance
from .tolerances import TOL_MAT, TOL_NORM, TOL_PHASE, TOL_REVIVAL, Tolerances

__version__ = "0.1.0"

__all__ = [
    "CoinKind",
    "CoinMatrix",
    "CoinSpec",
    "ConfigError",
    "ConstraintError",
    "CoordinateOverflowError",
    "DimensionMismatchError",
    "InitialEntry",
    "MomentumPropagator",
    "NonUnitaryError",
    "NormalizationError",
    "OracleTooLargeError",
    "OrderMismatchError",
    "PhaseSumError",
    "RevivalMode",
    "RevivalReport",
    "ShiftTable",
    "SpectrumReport",
    "TOL_MAT",
    "TOL_NORM",
    "TOL_PHASE",
    "TOL_REVIVAL",
    "TableComparison",
    "Tolerances",
    "WalkConfig",
    "WalkInstance",
    "WalkState",
    "WindowTooSmallError",
    "ZeroSumError",
    "apply_shift",
    "build_custom_coin",
    "build_cyclic_coin",
    "build_general_coin_1d",
    "build_instance",
    "build_partial_cycle_coin",
    "build_shift_table",
    "characteristic_eigenvalues",
    "complete_phases",
    "config_to_dict",
    "conventional_two_state_shifts",
    "cyclic_power_closed_form",
    "dense_oracle_evolve",
    "detect_revival",
    "evaluate_propagator",
    "evolve",
    "golden_config",
    "inner_product",
    "is_unitary",
    "l2_distance",
    "load_config",
    "matrix_order",
    "parse_config",
    "parse_phase",
    "phase_sum_residual",
    "probability_csv",
    "probability_distribution",
    "propagator_order",
    "random_cyclic_phases",
    "reproduce_table",
    "roots_of_unity",
    "run_spectrum",
    "run_walk",
    "serialize_config",
    "spectrum_distance",
    "spectrum_sweep",
    "stationary_component_check",
    "step",
    "trajectory",
    "usual_shift_choice",
    "wrap_momentum",
    "wrap_phase",
]
