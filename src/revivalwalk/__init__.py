"""Coined quantum walks on integer lattices with exact full-state revivals.

The library builds cyclic and partial-cycle phase coins whose matrix
order equals the coin dimension (or the cycle length), pairs them with
zero-sum integer shift tables, evolves sparse coin-walker states, and
verifies the flat roots-of-unity momentum spectrum that guarantees the
revivals. A dense truncated-lattice oracle provides an independent
cross-check of the sparse engine.

The top level exports what the README, the demos, the CLI and the
benchmark use, every error type, and the coin builders; everything else
is imported from its module (e.g. ``revivalwalk.tolerances.TOL_MAT``).
"""

from .coins import (CoinKind, build_custom_coin, build_cyclic_coin, build_general_coin_1d,
                    build_partial_cycle_coin, random_cyclic_phases)
from .config import (CoinSpec, InitialEntry, WalkConfig, build_instance, load_config,
                     parse_config, serialize_config)
from .engine import (RevivalMode, WalkInstance, detect_revival, evolve, probability_distribution,
                     step, trajectory)
from .errors import (ConfigError, ConstraintError, CoordinateOverflowError,
                     DimensionMismatchError, NonUnitaryError, NormalizationError,
                     OracleTooLargeError, OrderMismatchError, PhaseSumError,
                     WindowTooSmallError, ZeroSumError)
from .golden import golden_config, reproduce_table
from .linalg import matrix_order
from .momentum import (MomentumPropagator, characteristic_eigenvalues, dense_oracle_evolve,
                       evaluate_propagator, propagator_order, spectrum_distance, spectrum_sweep)
from .records import probability_csv, run_spectrum, run_walk
from .shifts import apply_shift, build_shift_table, conventional_two_state_shifts
from .states import WalkState, inner_product, l2_distance
from .tolerances import Tolerances

__version__ = "0.1.0"
