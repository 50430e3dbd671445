"""Finite-time frequency estimation for multi-sinusoidal signals.

Estimates the n unknown frequencies of a measured sum of sinusoids using
only delayed samples of the measurement: a delay-line regression whose
parameters are signed symmetric functions of cos(omega_i * h), decoupled
into scalar regressions by adjugate mixing of a delay-extended system,
estimated per-parameter by a gradient law, re-estimated in closed form at a
chosen finite time, and mapped back to frequencies through polynomial roots
and arccos.
"""

__version__ = "0.1.0"

from .config import (OutputConfig, RecoverySettings, RunConfig,
                     ScenarioConfig, config_warnings, format_config,
                     load_config, parse_config, validate_config, with_seed)
from .delay_line import TappedDelayLine
from .errors import ConfigError, EstimateNotPhysical, NumericFault
from .estimator import (EstimatorSettings, EstimatorState,
                        finite_time_estimate, reset_estimator, step_gradient)
from .harness import RunResult, estimate_from_file, run_scenario
from .mixing import (DremConfig, ExtendedRegression, MixedSample,
                     RegressorExtender, adjugate, mix)
from .pipeline import Pipeline, StepResult
from .recovery import (FrequencyEstimate, find_roots, recover_frequencies,
                       roots_to_frequencies, theta_to_polynomial)
from .regression import (DelayTable, ModelConfig, RegressionSample, binomial,
                         compute_phi, compute_psi, delay_table,
                         sample_regression, true_theta)
from .scenarios import BUILTIN_NAMES, builtin_scenario, with_reset_times
from .signals import (HarmonicDisturbance, HarmonicSpec, SampledTrace,
                      ScheduleStep, SignalSpec, UniformDisturbance,
                      generate_trace, sample_signal)

__all__ = [
    "__version__",
    "BUILTIN_NAMES", "ConfigError", "DelayTable", "DremConfig", "EstimateNotPhysical",
    "EstimatorSettings", "EstimatorState",
    "ExtendedRegression", "FrequencyEstimate", "HarmonicDisturbance",
    "HarmonicSpec", "MixedSample", "ModelConfig", "NumericFault",
    "OutputConfig", "Pipeline", "RecoverySettings", "RegressionSample",
    "RegressorExtender", "RunConfig", "RunResult", "SampledTrace",
    "ScenarioConfig", "ScheduleStep", "SignalSpec", "StepResult",
    "TappedDelayLine", "UniformDisturbance",
    "adjugate", "binomial", "builtin_scenario", "compute_phi", "compute_psi",
    "config_warnings", "delay_table", "estimate_from_file", "find_roots",
    "finite_time_estimate", "format_config", "generate_trace", "load_config",
    "mix", "parse_config",
    "recover_frequencies", "reset_estimator", "roots_to_frequencies",
    "run_scenario", "sample_regression", "sample_signal", "step_gradient",
    "theta_to_polynomial", "true_theta", "validate_config", "with_reset_times",
    "with_seed",
]
