"""Non-Euclidean subgradient methods with momentum, the sharp-operator
compression construction, error-feedback variants that restore convergence,
and adversarial experiments showing why the plain methods fail on nonsmooth
convex problems.
"""

from .linalg import (
    NumericalError,
    SvdFactors,
    norm,
    polar_exact,
    polar_newton_schulz,
    reduced_svd,
)
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
    run_batch,
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
    Cex2Guard,
    KinkyFunction,
    cex1_build,
    cex1_predicted_iterate,
    cex1_predicted_sequence,
    cex2_guard_check,
    compute_R,
    compute_R_sequence,
    lipschitz_bound,
)
from .harness import (
    PRESETS,
    SUITES,
    CheckResult,
    ConfigError,
    run_experiment,
    write_csv,
)

__all__ = [name for name in dir() if not name.startswith("_")]
