"""Scenario execution: run the engine over a trace, write CSVs and metadata.

run_scenario simulates the configured signal and estimate_from_file reads a
recorded one; both hand the whole trace to the whole-trace engine
(engine.run_trace), with each scheduled reset mapped to the sample it
applies at. A run produces three files: the sampled measurement trace
(time, y), the per-sample estimates, written column by column in bounded row
chunks, and a key-value metadata file embedding the full config echo so the
run is reproducible from its own outputs. build_pipeline makes the streaming
Pipeline for callers that feed one sample at a time.
"""

from __future__ import annotations

import os
import platform
from bisect import bisect_left
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from . import __version__
from .config import (ScenarioConfig, config_warnings, ensure_valid,
                     format_config)
from .engine import Trajectory, run_trace
from .errors import ConfigError
from .pipeline import Pipeline, StepResult, warmup_time
from .signals import GRID_TOL, sample_signal, sample_times

_CHUNK_ROWS = 4096  # CSV rows formatted per write: bounds the strings held at once

SIGN_CONVENTION = ("psi = [Z^2+1]^n y; theta_k = (-1)^(k+1) e_k(cos(omega_i h)); "
                   "recovery polynomial x^n - theta_1 x^(n-1) - ... - theta_n")


@dataclass
class RunResult:
    """Per-sample outputs plus run metadata; extracted is False when
    excitation never reached the floor and the finite-time columns stayed
    empty."""

    config: ScenarioConfig
    trajectory: Trajectory
    metadata: dict[str, str]
    extracted: bool
    trace_path: str | None = None
    estimate_path: str | None = None
    metadata_path: str | None = None

    @cached_property
    def records(self) -> list[StepResult]:
        """One StepResult per sample, built on first access."""
        return self.trajectory.records()

    @property
    def final(self) -> StepResult:
        return self.trajectory.records(len(self.trajectory) - 1)[0]


def build_pipeline(cfg: ScenarioConfig) -> Pipeline:
    return Pipeline(
        model=cfg.model, drem=cfg.drem, estimator=cfg.estimator,
        sample_period=cfg.run.sample_period, imag_tol=cfg.recovery.imag_tol)


def _segment_starts(times: list[float], reset_times) -> list[int]:
    """0 and the sample at which each reset applies: the first at or after its
    time (within the grid slack), at most one reset per sample."""
    starts, lo = [0], 0
    for reset in reset_times:
        k = bisect_left(times, reset - GRID_TOL, lo)
        if k == len(times):
            break
        if k:  # a reset before the first sample changes nothing
            starts.append(k)
        lo = k + 1
    return starts


def _run(cfg: ScenarioConfig, source: str, times, samples) -> RunResult:
    trajectory = run_trace(
        cfg.model, cfg.drem, cfg.estimator, cfg.run.sample_period,
        cfg.recovery.imag_tol, times, samples,
        _segment_starts(times, cfg.run.reset_times))
    return RunResult(config=cfg, trajectory=trajectory,
                     metadata=_metadata(cfg, trajectory, source),
                     extracted=trajectory.state.theta_ft is not None)


def _metadata(cfg: ScenarioConfig, trajectory: Trajectory, source: str) -> dict[str, str]:
    meta = {
        "generator": f"ftfreq {__version__}",
        "versions": f"python {platform.python_version()}, numpy {np.__version__}",
        "source": source,
        "convention": SIGN_CONVENTION,
        "rng.algorithm": "splitmix64 counter hash",
    }
    seed = cfg.signal.seed if cfg.signal is not None else None
    meta["rng.seed"] = "none" if seed is None else str(seed)
    state = trajectory.state
    meta["pipeline.warmup_time"] = repr(warmup_time(cfg.model, cfg.drem))
    meta["pipeline.max_decay_step"] = repr(state.max_decay_step)
    meta["estimator.excitation_integral"] = repr(state.excitation)
    meta["estimator.extraction_time"] = (
        repr(state.extraction_time) if state.extraction_time is not None else "none")
    for i, note in enumerate(config_warnings(cfg), start=1):
        meta[f"warning.{i}"] = note
    return meta


def run_scenario(cfg: ScenarioConfig, out_dir: str | None = None) -> RunResult:
    """Simulate the configured signal and estimate its frequencies.

    Validates the config (raising ConfigError with every violation), runs
    the engine over the uniform grid with the scheduled resets, and writes
    the trace/estimate CSVs and the metadata file when out_dir is given.
    """
    ensure_valid(cfg)
    if cfg.signal is None:
        raise ConfigError(["run_scenario requires a signal section; "
                           "use estimate_from_file for recorded data"])
    times = sample_times(cfg.run.sample_period, cfg.run.duration)
    samples = [sample_signal(cfg.signal, t) for t in times]
    result = _run(cfg, "simulation", times, samples)
    if out_dir is not None:
        _write_outputs(result, out_dir)
    return result


def estimate_from_file(trace_path: str, cfg: ScenarioConfig,
                       out_dir: str | None = None) -> RunResult:
    """Run the identical estimation over a recorded (time, y) CSV trace.

    The file must be on the uniform grid implied by run.sample_period; the
    first off-grid row is reported. The config's signal section, if any, is
    ignored.
    """
    ensure_valid(cfg)
    times, samples = _read_trace(trace_path, cfg.run.sample_period)
    result = _run(cfg, f"trace file {os.path.basename(trace_path)}", times, samples)
    if out_dir is not None:
        _write_outputs(result, out_dir, write_trace=False)
        result.trace_path = trace_path
    return result


def _read_trace(path: str, sample_period: float) -> tuple[list[float], list[float]]:
    times: list[float] = []
    samples: list[float] = []
    try:
        fh = open(path, "r", encoding="utf-8", newline="")
    except OSError as exc:
        raise ConfigError([f"{path}: cannot read trace file: {exc.strerror or exc}"]) from exc
    with fh:
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
            if abs(t - expected) > GRID_TOL * max(1.0, abs(expected) / sample_period):
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

def _reprs(values) -> list[str]:
    return list(map(repr, values))


def _write_rows(fh, columns) -> None:
    """Write equal-length columns of formatted fields as CSV rows."""
    fh.write("\n".join(map(",".join, zip(*columns))))
    fh.write("\n")


def _estimate_header(n: int) -> str:
    cols = ["time", "y", "delta"]
    cols += [f"theta_hat_{i}" for i in range(1, n + 1)]
    cols += [f"theta_ft_{i}" for i in range(1, n + 1)]
    cols += [f"omega_grad_{i}" for i in range(1, n + 1)]
    cols += [f"omega_ft_{i}" for i in range(1, n + 1)]
    return ",".join(cols)


def _finite_time_columns(trajectory: Trajectory, a: int, b: int, n: int):
    """theta_ft and omega_ft columns of rows a..b-1, empty where not held."""
    theta = [[""] * (b - a) for _ in range(n)]
    omega = [[""] * (b - a) for _ in range(n)]
    for lo, hi, theta_ft, omega_ft in trajectory.held_in(a, b):
        for column, value in zip(theta + omega, theta_ft + omega_ft):
            column[lo:hi] = [repr(value)] * (hi - lo)
    return theta, omega


def write_trace_csv(path: str, times, samples) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write("time,y\n")
        for a in range(0, len(times), _CHUNK_ROWS):
            _write_rows(fh, (_reprs(times[a:a + _CHUNK_ROWS]),
                             _reprs(samples[a:a + _CHUNK_ROWS])))


def write_estimates_csv(path: str, trajectory: Trajectory) -> None:
    n = trajectory.theta_hat.shape[1]
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(_estimate_header(n) + "\n")
        for a in range(0, len(trajectory), _CHUNK_ROWS):
            b = min(a + _CHUNK_ROWS, len(trajectory))
            theta_ft, omega_ft = _finite_time_columns(trajectory, a, b, n)
            columns = [_reprs(trajectory.times[a:b]), _reprs(trajectory.samples[a:b]),
                       _reprs(trajectory.delta[a:b].tolist())]
            columns += map(_reprs, trajectory.theta_hat[a:b].T.tolist())
            columns += theta_ft
            columns += map(_reprs, trajectory.omega_grad[a:b].T.tolist())
            columns += omega_ft
            _write_rows(fh, columns)


def write_metadata(path: str, result: RunResult) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for key, value in result.metadata.items():
            fh.write(f"{key} = {value}\n")
        fh.write("\n# config echo\n")
        fh.write(format_config(result.config))


def _write_outputs(result: RunResult, out_dir: str, write_trace: bool = True) -> None:
    """Write the run's files into out_dir; an unusable path is a ConfigError."""
    out = result.config.output
    trajectory = result.trajectory
    try:
        os.makedirs(out_dir, exist_ok=True)
        if write_trace:
            result.trace_path = os.path.join(out_dir, out.trace_path)
            write_trace_csv(result.trace_path, trajectory.times, trajectory.samples)
        result.estimate_path = os.path.join(out_dir, out.estimate_path)
        write_estimates_csv(result.estimate_path, trajectory)
        result.metadata_path = os.path.join(out_dir, out.metadata_path)
        write_metadata(result.metadata_path, result)
    except OSError as exc:
        path = exc.filename or out_dir
        raise ConfigError([f"{path}: cannot write output: {exc.strerror or exc}"]) from exc
