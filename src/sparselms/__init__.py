"""Sparsity-aware LMS adaptive filters and support-recovery tooling."""

from .filters import (
    Algorithm,
    FilterConfig,
    FilterState,
    complex_hard_lms_step,
    complex_lms_step,
    run_stream,
    step,
)
from .harness import (
    ExperimentConfig,
    LearningCurve,
    SpectrumReport,
    diagnose_run,
    emit_outputs,
    ident_diagnostics,
    read_curves_csv,
    run_ident_experiment,
    run_spectrum_experiment,
)
from .recovery import (
    RecoveryCertificate,
    batch_iht,
    ser_lower_bound,
    sza_bias_residual,
    theorem1_condition,
    theorem2_condition,
)
from .signals import (
    IdentScenario,
    MeasurementStream,
    SpectrumScenario,
    esr,
    esr_db,
    gen_ident_stream,
    gen_spectrum_stream,
    step_size_from_stream,
)
from .thresholding import hard_threshold, penalty_mask, support

__version__ = "0.1.0"
