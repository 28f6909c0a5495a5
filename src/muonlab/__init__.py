"""Non-Euclidean subgradient methods with momentum, the sharp-operator
compression construction, error-feedback variants that restore convergence,
and adversarial experiments showing why the plain methods fail on nonsmooth
convex problems.

Importing the package loads the library modules ``linalg``, ``norms``,
``optim`` and ``counterexample``.  The experiment harness and the command
line are imported by name, as ``muonlab.harness`` and ``muonlab.cli``.
"""

from .linalg import NumericalError, polar_exact, polar_newton_schulz
from .norms import (
    L1,
    L2,
    CompressorConstants,
    Linf,
    Lp,
    NuclearNorm,
    OperatorNorm,
    ParamPoint,
    ProductNormSpec,
    compress,
    compressor_constants,
    dual_norm,
    lmo_min,
    primal_norm,
)
from .optim import (
    AdaptiveNuclear,
    Constant,
    FunctionOracle,
    InvSqrtT,
    InvT,
    NoisyOracle,
    OptimizerState,
    Table,
    Trace,
    efm_bound,
    efm_bound_column,
    efm_bound_schedule,
    run,
    step_efmuon,
    step_efmuonmax,
    step_muon,
    step_muonmax,
    step_regmuon,
    step_signgd,
    step_signmomentum,
    step_specgd,
)
from .counterexample import (
    Cex1Init,
    KinkyFunction,
    cex1_build,
    cex1_predicted_sequence,
    compute_R,
    compute_R_sequence,
    lipschitz_bound,
)

__all__ = [name for name in dir() if not name.startswith("_")]
