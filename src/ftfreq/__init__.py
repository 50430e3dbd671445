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

from .config import (BUILTIN_NAMES, OutputConfig, RunConfig, ScenarioConfig,
                     builtin_scenario, config_warnings, format_config,
                     load_config, parse_config, validate_config, with_seed)
from .errors import ConfigError, EstimateNotPhysical, NumericFault
from .estimator import (EstimatorSettings, EstimatorState,
                        finite_time_estimate, reset_estimator)
from .harness import RunResult, estimate_from_file, run_scenario
from .mixing import DremConfig, mix
from .pipeline import Pipeline, StepResult
from .recovery import (FrequencyEstimate, find_roots, recover_frequencies,
                       roots_to_frequencies, theta_to_polynomial)
from .regression import (DelayTable, ModelConfig, delay_table, regression_at,
                         true_theta)
from .signals import (HarmonicSpec, ScheduleStep, SignalSpec,
                      UniformDisturbance)

__all__ = [
    "__version__",
    "BUILTIN_NAMES", "ConfigError", "DelayTable", "DremConfig", "EstimateNotPhysical",
    "EstimatorSettings", "EstimatorState", "FrequencyEstimate", "HarmonicSpec",
    "ModelConfig", "NumericFault", "OutputConfig", "Pipeline",
    "RunConfig", "RunResult",
    "ScenarioConfig", "ScheduleStep", "SignalSpec", "StepResult",
    "UniformDisturbance",
    "builtin_scenario", "config_warnings", "delay_table",
    "estimate_from_file", "find_roots", "finite_time_estimate", "format_config",
    "load_config", "mix", "parse_config",
    "recover_frequencies", "regression_at", "reset_estimator", "roots_to_frequencies",
    "run_scenario",
    "theta_to_polynomial", "true_theta", "validate_config", "with_seed",
]
