"""Scenario execution: drive the pipeline, write CSV trajectories and metadata.

A run produces three files: the sampled measurement trace (time, y), the
per-sample trajectory records, and a key-value metadata file embedding the
full config echo so the run is reproducible from its own outputs.
"""

from __future__ import annotations

import math
import os
import platform
from dataclasses import dataclass

import numpy as np

from . import __version__
from .config import (ScenarioConfig, config_warnings, ensure_valid,
                     format_config)
from .errors import ConfigError, NumericFault
from .estimator import EstimatorConfig
from .pipeline import Pipeline, StepResult
from .regression import true_theta
from .signals import UniformDisturbance, sample_signal

_GRID_TOL = 1e-9

SIGN_CONVENTION = ("psi = [Z^2+1]^n y; theta_k = (-1)^(k+1) e_k(cos(omega_i h)); "
                   "recovery polynomial x^n - theta_1 x^(n-1) - ... - theta_n")


@dataclass
class RunResult:
    """Records plus run metadata; extracted is False when excitation never
    reached the floor and the finite-time columns stayed empty."""

    config: ScenarioConfig
    records: list[StepResult]
    metadata: dict[str, str]
    extracted: bool
    trace_path: str | None = None
    estimate_path: str | None = None
    metadata_path: str | None = None

    @property
    def final(self) -> StepResult:
        return self.records[-1]


def _estimator_config(cfg: ScenarioConfig) -> EstimatorConfig:
    theta0 = true_theta(cfg.estimator.omega0, cfg.model.h)
    return EstimatorConfig(
        gamma=cfg.estimator.gamma, t_ft=cfg.estimator.t_ft,
        theta0=theta0, w_floor=cfg.estimator.w_floor)


def build_pipeline(cfg: ScenarioConfig) -> Pipeline:
    return Pipeline(
        model=cfg.model, drem=cfg.drem, estimator=_estimator_config(cfg),
        sample_period=cfg.run.sample_period, imag_tol=cfg.recovery.imag_tol)


def _drive(cfg: ScenarioConfig, samples, times) -> tuple[list[StepResult], Pipeline]:
    pipeline = build_pipeline(cfg)
    resets = list(cfg.run.reset_times)
    records: list[StepResult] = []
    next_reset = resets.pop(0) if resets else None
    for k, (t, y) in enumerate(zip(times, samples)):
        if next_reset is not None and t >= next_reset - _GRID_TOL:
            pipeline.reset()
            next_reset = resets.pop(0) if resets else None
        try:
            records.append(pipeline.step(t, y))
        except NumericFault as exc:
            raise NumericFault(f"sample {k} (t = {t:.6g}): {exc}") from exc
    return records, pipeline


def _metadata(cfg: ScenarioConfig, pipeline: Pipeline, source: str) -> dict[str, str]:
    meta = {
        "generator": f"ftfreq {__version__}",
        "versions": f"python {platform.python_version()}, numpy {np.__version__}",
        "source": source,
        "convention": SIGN_CONVENTION,
        "rng.algorithm": "splitmix64 counter hash",
    }
    if cfg.signal is not None and isinstance(cfg.signal.disturbance, UniformDisturbance):
        meta["rng.seed"] = str(cfg.signal.disturbance.seed)
    else:
        meta["rng.seed"] = "none"
    meta["pipeline.warmup_time"] = repr(pipeline.warmup_time)
    meta["pipeline.max_decay_step"] = repr(pipeline.max_decay_step)
    state = pipeline.state
    meta["estimator.excitation_integral"] = repr(state.excitation)
    meta["estimator.extraction_time"] = (
        repr(state.extraction_time) if state.extraction_time is not None else "none")
    for i, note in enumerate(config_warnings(cfg), start=1):
        meta[f"warning.{i}"] = note
    return meta


def run_scenario(cfg: ScenarioConfig, out_dir: str | None = None) -> RunResult:
    """Simulate the configured signal and estimate its frequencies.

    Validates the config (raising ConfigError with every violation), drives
    the pipeline over the uniform grid, applies scheduled resets, and writes
    the trace/estimate CSVs and the metadata file when out_dir is given.
    """
    ensure_valid(cfg)
    if cfg.signal is None:
        raise ConfigError(["run_scenario requires a signal section; "
                           "use estimate_from_file for recorded data"])
    period = cfg.run.sample_period
    count = math.floor(cfg.run.duration / period + _GRID_TOL) + 1
    times = [k * period for k in range(count)]
    samples = [sample_signal(cfg.signal, t) for t in times]
    records, pipeline = _drive(cfg, samples, times)
    meta = _metadata(cfg, pipeline, source="simulation")
    result = RunResult(config=cfg, records=records, metadata=meta,
                       extracted=pipeline.extracted)
    if out_dir is not None:
        _write_outputs(result, out_dir, times, samples)
    return result


def estimate_from_file(trace_path: str, cfg: ScenarioConfig,
                       out_dir: str | None = None) -> RunResult:
    """Run the identical pipeline over a recorded (time, y) CSV trace.

    The file must be on the uniform grid implied by run.sample_period; the
    first off-grid row is reported. The config's signal section, if any, is
    ignored.
    """
    ensure_valid(cfg)
    times, samples = _read_trace(trace_path, cfg.run.sample_period)
    records, pipeline = _drive(cfg, samples, times)
    meta = _metadata(cfg, pipeline, source=f"trace file {os.path.basename(trace_path)}")
    result = RunResult(config=cfg, records=records, metadata=meta,
                       extracted=pipeline.extracted)
    if out_dir is not None:
        _write_outputs(result, out_dir, times, samples, write_trace=False)
        result.trace_path = trace_path
    return result


def _read_trace(path: str, sample_period: float) -> tuple[list[float], list[float]]:
    times: list[float] = []
    samples: list[float] = []
    with open(path, "r", encoding="utf-8", newline="") as fh:
        header = fh.readline().strip()
        if header.split(",")[:2] != ["time", "y"]:
            raise ConfigError([f"{path}: expected header 'time,y', got {header!r}"])
        start = None
        for row, line in enumerate(fh, start=2):
            line = line.strip()
            if not line:
                continue
            parts = line.split(",")
            try:
                t, y = float(parts[0]), float(parts[1])
            except (ValueError, IndexError):
                raise ConfigError([f"{path}: row {row}: malformed line {line!r}"]) from None
            if start is None:
                start = t
            expected = start + len(times) * sample_period
            if abs(t - expected) > _GRID_TOL * max(1.0, abs(expected) / sample_period):
                raise ConfigError([
                    f"{path}: row {row}: time {t!r} off the uniform grid "
                    f"(expected {expected!r} at sample_period {sample_period})"])
            times.append(expected)
            samples.append(y)
    if not times:
        raise ConfigError([f"{path}: no samples"])
    return times, samples


# ---------------------------------------------------------------------------
# output files

def _fmt(value: float) -> str:
    return repr(value)


def _estimate_header(n: int) -> str:
    cols = ["time", "y", "delta"]
    cols += [f"theta_hat_{i}" for i in range(1, n + 1)]
    cols += [f"theta_ft_{i}" for i in range(1, n + 1)]
    cols += [f"omega_grad_{i}" for i in range(1, n + 1)]
    cols += [f"omega_ft_{i}" for i in range(1, n + 1)]
    return ",".join(cols)


def _record_row(rec: StepResult, n: int) -> str:
    empty = [""] * n
    parts = [_fmt(rec.time), _fmt(rec.y), _fmt(rec.delta)]
    parts += [_fmt(v) for v in rec.theta_hat]
    parts += [_fmt(v) for v in rec.theta_ft] if rec.theta_ft is not None else empty
    parts += [_fmt(v) for v in rec.omega_grad]
    parts += [_fmt(v) for v in rec.omega_ft] if rec.omega_ft is not None else empty
    return ",".join(parts)


def write_trace_csv(path: str, times, samples) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write("time,y\n")
        for t, y in zip(times, samples):
            fh.write(f"{_fmt(t)},{_fmt(y)}\n")


def write_estimates_csv(path: str, records, n: int) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(_estimate_header(n) + "\n")
        for rec in records:
            fh.write(_record_row(rec, n) + "\n")


def write_metadata(path: str, result: RunResult) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for key, value in result.metadata.items():
            fh.write(f"{key} = {value}\n")
        fh.write("\n# config echo\n")
        fh.write(format_config(result.config))


def _write_outputs(result: RunResult, out_dir: str, times, samples,
                   write_trace: bool = True) -> None:
    os.makedirs(out_dir, exist_ok=True)
    out = result.config.output
    n = result.config.model.n
    if write_trace:
        result.trace_path = os.path.join(out_dir, out.trace_path)
        write_trace_csv(result.trace_path, times, samples)
    result.estimate_path = os.path.join(out_dir, out.estimate_path)
    write_estimates_csv(result.estimate_path, result.records, n)
    result.metadata_path = os.path.join(out_dir, out.metadata_path)
    write_metadata(result.metadata_path, result)
