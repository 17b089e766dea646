"""Lack-of-fit diagnosis for ODE models via estimated time-varying forcing.

Workflow: smooth the data with penalized splines, estimate model
parameters by gradient matching, estimate a forcing g(t) that absorbs
the remaining misfit, then test whether g looks like state dependence
(case 2) or delayed feedback (case 3) rather than noise.
"""

__version__ = "0.1.0"

from .errors import (
    ArgumentError,
    BlowupError,
    ConfigError,
    ConvergenceError,
    DegenerateDesignError,
    OdelofError,
    PipelineError,
    RankError,
    TestAbortedError,
)
from .systems import (
    DynamicalSystem,
    ForcingSpec,
    TimeSeries,
    Trajectory,
    builtin_names,
    builtin_system,
    integrate,
    observe,
    rate_values,
    scale_rate,
    simulate_sde,
    with_forcing,
)
from .seriesio import read_timeseries_csv, write_series_csv
from .splines import (
    BasisGrid,
    BSplineBasis,
    SmoothingOperator,
    SplineFunction,
    make_basis,
)
from .smoothers import AdditiveSmootherDesign, SmootherSettings
from .estimate import (
    ForcingEstimate,
    ForcingOperator,
    GradientMatchFit,
    QuadratureState,
    gradient_match,
    quad_grid,
    quadrature_state,
)
from .pipeline import PipelineFit, PipelineRunner, PipelineSettings
from .diagnose import (
    DiagnosticReport,
    FStatResult,
    TestConfig,
    case2_test,
    case3_test,
    default_block_len,
    f_stat_case2,
    f_stat_case3,
    report_json,
    residual_bootstrap_resample,
)
from .config import ExperimentConfig, config_from_dict, load_config
from .power import (
    CellSummary,
    diagnose_series,
    power_table_csv,
    run_diagnose,
    run_power_study,
    run_simulate,
    simulate_series,
)
from .plots import export_diagnostic_plots

__all__ = [
    "__version__",
    "ArgumentError",
    "BlowupError",
    "ConfigError",
    "ConvergenceError",
    "DegenerateDesignError",
    "OdelofError",
    "PipelineError",
    "RankError",
    "TestAbortedError",
    "DynamicalSystem",
    "ForcingSpec",
    "TimeSeries",
    "Trajectory",
    "builtin_names",
    "builtin_system",
    "integrate",
    "observe",
    "rate_values",
    "scale_rate",
    "simulate_sde",
    "with_forcing",
    "read_timeseries_csv",
    "write_series_csv",
    "BasisGrid",
    "BSplineBasis",
    "SmoothingOperator",
    "SplineFunction",
    "make_basis",
    "AdditiveSmootherDesign",
    "SmootherSettings",
    "ForcingEstimate",
    "ForcingOperator",
    "GradientMatchFit",
    "QuadratureState",
    "gradient_match",
    "quad_grid",
    "quadrature_state",
    "PipelineFit",
    "PipelineRunner",
    "PipelineSettings",
    "DiagnosticReport",
    "FStatResult",
    "TestConfig",
    "case2_test",
    "case3_test",
    "default_block_len",
    "f_stat_case2",
    "f_stat_case3",
    "report_json",
    "residual_bootstrap_resample",
    "ExperimentConfig",
    "config_from_dict",
    "load_config",
    "CellSummary",
    "diagnose_series",
    "power_table_csv",
    "run_diagnose",
    "run_power_study",
    "run_simulate",
    "simulate_series",
    "export_diagnostic_plots",
]
