"""Finite-time boundary stabilization for coupled linear hyperbolic systems.

Synthesis of the boundary feedback that drives n-by-n heterodirectional
transport systems to zero at the optimal time, built from a cascade-shaped
integral transform with a closed-form kernel, plus simulators and
certification checks for the target dynamics.
"""

from .kernels import (
    CascadeMatrix,
    CFLError,
    FredholmKernel,
    build_kernel,
    build_z_source,
    eval_kernel,
    gamma_source,
    kernel_oracle_solve,
    kernel_residual,
)
from .scenario import Scenario, ScenarioError, load_scenario
from .simulator import (
    ClosedLoopSpec,
    Trajectory,
    commutation_check,
    simulate,
    vanish_time,
)
from .system_model import (
    Grid,
    HyperbolicSystem,
    PhiRangeError,
    Profile,
    StateVector,
    naive_time,
    optimal_time,
    transit_time,
    validate_system,
)
from .transforms import (
    FeedbackLaw,
    IntegralOperator,
    InverseKernel,
    apply_fredholm,
    inverse_kernel,
    invert_fredholm,
)

__version__ = "0.1.0"
