"""Scenario execution: run a Pipeline over a trace, write CSVs and metadata.

run_scenario simulates the configured signal and estimate_from_file reads a
recorded one; both hand the whole trace, its times and samples as two
float64 arrays, to Pipeline.run's routine, with each scheduled reset mapped
to the sample it applies at. The arrays are the one format of a trace from
sampler or reader to writer. The reader parses a recorded trace with
numpy's C reader in bounded blocks and checks the grid with array
operations; a row loop, whose values are the same, reads the file instead
where a block does not parse or fails a check, and names the first bad row.
The writer takes each chunk's reprs from the arrays, one repr per run of
bit-equal values. The metadata reads the run's Epoch records, the one
record of each extraction: the last epoch's extraction time and omega_ft
diagnostics as the estimator.* keys, each epoch's start and extraction
time, and warnings of a reset after the last sample and of an epoch that
ends before its clock reaches t_ft. A run produces three files: the
sampled measurement trace (time, y), the per-sample estimates, written
column by column in bounded row chunks, and a key-value metadata file
embedding the full config echo so the run is reproducible from its own
outputs. build_pipeline makes the Pipeline of a config, for callers that
run or step() it; a harness run builds one for itself alone and runs the
trace with it as the session, so each run builds one delay table and one
estimator state.
"""

from __future__ import annotations

import contextlib
import math
import os
import platform
from array import array
from bisect import bisect_left
from dataclasses import dataclass
from functools import cached_property
from itertools import islice

import numpy as np

from . import __version__
from .config import (ScenarioConfig, config_warnings, ensure_valid,
                     format_config, recording_violations)
from .errors import ConfigError
from .pipeline import Pipeline, StepResult, Trajectory, warmup_time
from .signals import GRID_TOL, sample_times, signal_values

# CSV rows formatted per write: bounds the strings held at once. At 4096 rows
# the lockstep trace and estimates write raised the builtins benchmark's peak
# RSS by about 10 MB (allocator fragmentation); 512 rows do not.
_CHUNK_ROWS = 512
# trace lines parsed per loadtxt call: bounds the lines and fields held at
# once, as _CHUNK_ROWS does for the writer
_READ_LINES = 4096

SIGN_CONVENTION = ("psi = [Z^2+1]^n y; theta_k = (-1)^(k+1) e_k(cos(omega_i h)); "
                   "recovery polynomial x^n - theta_1 x^(n-1) - ... - theta_n")


@dataclass
class RunResult:
    """Per-sample outputs plus run metadata."""

    config: ScenarioConfig
    trajectory: Trajectory
    metadata: dict[str, str]
    trace_path: str | None = None
    estimate_path: str | None = None
    metadata_path: str | None = None

    @cached_property
    def records(self) -> list[StepResult]:
        """One StepResult per sample, built on first access."""
        return self.trajectory.records()

    @property
    def extracted(self) -> bool:
        """False when the last epoch ended without a finite-time estimate,
        because it was shorter than t_ft or its excitation never reached the
        floor, and its rows' finite-time columns stayed empty."""
        return self.trajectory.epochs[-1].fired is not None

    @property
    def final(self) -> StepResult:
        return self.trajectory.records(len(self.trajectory) - 1)[0]


def build_pipeline(cfg: ScenarioConfig) -> Pipeline:
    return Pipeline(
        model=cfg.model, drem=cfg.drem, estimator=cfg.estimator,
        sample_period=cfg.run.sample_period)


def _reset_rows(times: np.ndarray, reset_times) -> list[int | None]:
    """The sample at which each reset applies: the first at or after its time
    (within the grid slack), at most one reset per sample; None for a reset
    after the last sample. A reset at sample 0 changes nothing."""
    rows, lo = [], 0
    for reset in reset_times:
        k = bisect_left(times, reset - GRID_TOL, lo)
        rows.append(k if k < len(times) else None)
        lo = k + 1
    return rows


def _run(cfg: ScenarioConfig, source: str, times, samples) -> RunResult:
    reset_rows = _reset_rows(times, cfg.run.reset_times)
    trajectory = build_pipeline(cfg)._run_fresh(times, samples,
                                                [0, *(k for k in reset_rows if k)])
    return RunResult(config=cfg, trajectory=trajectory,
                     metadata=_metadata(cfg, trajectory, reset_rows, source))


def _metadata(cfg: ScenarioConfig, trajectory: Trajectory, reset_rows,
              source: str) -> dict[str, str]:
    seed = cfg.signal.seed if cfg.signal is not None else None
    state, times = trajectory.state, trajectory.times
    *earlier, last = trajectory.epochs
    meta = {
        "generator": f"ftfreq {__version__}",
        "versions": f"python {platform.python_version()}, numpy {np.__version__}",
        "source": source,
        "convention": SIGN_CONVENTION,
        "rng.algorithm": "splitmix64 counter hash",
        "rng.seed": "none" if seed is None else str(seed),
        "pipeline.warmup_time": repr(warmup_time(cfg.model, cfg.drem)),
        "pipeline.max_decay_step": repr(state.max_decay_step),
        "estimator.excitation_integral": repr(state.excitation),
        # the last epoch's extraction: its time, and omega_ft's recovery, the
        # largest root imaginary part it dropped and whether it clamped a
        # root into [-1, 1]
        "estimator.extraction_time": (
            "none" if last.fired is None else repr(float(times[last.fired]))),
        "estimator.root_residual": "none" if last.fired is None else repr(last.root_residual),
        "estimator.clamped": "none" if last.fired is None else repr(last.clamped),
    }
    t_ft, resets = cfg.estimator.t_ft, cfg.run.reset_times
    # every epoch's start and extraction follow, so an earlier extraction is
    # not lost
    for k, epoch in enumerate(trajectory.epochs, start=1):
        meta[f"epoch.{k}.start"] = repr(float(times[epoch.first]))
        meta[f"epoch.{k}.extraction_time"] = (
            "none" if epoch.fired is None else repr(float(times[epoch.fired])))
    # the run's own notes, read from its times and epochs
    notes = config_warnings(cfg)
    notes += [f"run.reset_times entry {reset} is after the last sample, at t = {times[-1]:g}: "
              "it is not applied" for reset, k in zip(resets, reset_rows) if k is None]
    notes += [f"the epoch from t = {times[epoch.first]:g} to {times[epoch.stop]:g} is shorter "
              f"than estimator.t_ft = {t_ft}: it cannot extract"
              for epoch in earlier if epoch.due is None]
    if last.due is None:
        span = f"{times[-1] - times[last.first]:.6g} s"
        cause = (f"run.reset_times entry {dict(zip(reset_rows, resets))[last.first]} "
                 f"leaves a last epoch of {span}" if last.first else f"the trace spans only {span}")
        notes.append(f"{cause}, shorter than estimator.t_ft = {t_ft}: it cannot extract, "
                     "so the run ends without omega_ft")
    for i, note in enumerate(notes, start=1):
        meta[f"warning.{i}"] = note
    return meta


def run_scenario(cfg: ScenarioConfig, out_dir: str | None = None) -> RunResult:
    """Simulate the configured signal and estimate its frequencies.

    Validates the config (raising ConfigError with every violation), runs
    Pipeline.run over the uniform grid with the scheduled resets, and writes
    the trace/estimate CSVs and the metadata file when out_dir is given.
    """
    ensure_valid(cfg)
    if cfg.signal is None:
        raise ConfigError(["run_scenario requires a signal section; "
                           "use estimate_from_file for recorded data"])
    times = sample_times(cfg.run.sample_period, cfg.run.duration)
    samples = signal_values(cfg.signal, times)
    result = _run(cfg, "simulation", times, samples)
    if out_dir is not None:
        _write_outputs(result, out_dir)
    return result


def estimate_from_file(trace_path: str, cfg: ScenarioConfig,
                       out_dir: str | None = None) -> RunResult:
    """Run the identical estimation over a recorded (time, y) CSV trace.

    The file must be on the uniform grid implied by run.sample_period; the
    first off-grid row is reported. The config's signal section, if any, is
    ignored, and so is run.duration: the trace's own times set the run's
    length, so the config need only pass recording_violations. An out_dir
    whose estimates or metadata file is the trace file itself is a
    ConfigError, raised before anything is read or written.
    """
    violations = recording_violations(cfg)
    if out_dir is not None:
        for key in ("estimate_path", "metadata_path"):
            name = getattr(cfg.output, key)
            target = os.path.join(out_dir, name)
            if _same_file(target, trace_path):
                violations.append(f"{target}: output.{key} = {name!r} names the input file "
                                  f"{trace_path}, which the run would overwrite")
    if violations:
        raise ConfigError(violations)
    times, samples = _read_trace(trace_path, cfg.run.sample_period)
    result = _run(cfg, f"trace file {os.path.basename(trace_path)}", times, samples)
    if out_dir is not None:
        _write_outputs(result, out_dir, write_trace=False)
        result.trace_path = trace_path
    return result


def _same_file(a: str, b: str) -> bool:
    """Whether paths a and b name one file: os.path.samefile where both
    exist, else their normalized paths are equal."""
    try:
        return os.path.samefile(a, b)
    except OSError:
        return os.path.normpath(a) == os.path.normpath(b)


def _read_trace(path: str, sample_period: float) -> tuple[np.ndarray, np.ndarray]:
    """The trace file's times and samples as float64 arrays, its header and
    every row checked: a row's time must lie on the uniform grid from the
    first, and the times returned are that grid.

    numpy's C reader parses the body in blocks of _READ_LINES lines. Its
    float conversion is float()'s, so the arrays are the row loop's. The
    row loop reads the file instead where the blocks are not a clean trace:
    it names the first bad row, and it reads what numpy refuses but float()
    accepts (whitespace-only lines, 1_5)."""
    try:
        with open(path, "r", encoding="utf-8-sig", newline="") as fh:
            _check_header(path, fh)
            read = _read_blocks(fh, sample_period)
    except (OSError, ValueError):
        # a decode error is a ValueError, and so is the header's
        # ConfigError, which the row loop raises again
        read = None
    return read if read is not None else _read_rows(path, sample_period)


def _check_header(path: str, fh) -> None:
    header = fh.readline().strip()
    if header.split(",")[:2] != ["time", "y"]:
        raise ConfigError([f"{path}: expected header 'time,y', got {header!r}"])


def _read_blocks(fh, sample_period: float) -> tuple[np.ndarray, np.ndarray] | None:
    """The body's grid and samples, parsed _READ_LINES lines at a time, or
    None for an empty body, a non-finite time or an off-grid row."""
    samples, start, k = [], None, 0
    while lines := list(islice(fh, _READ_LINES)):
        if not any(map(str.strip, lines)):  # all blank: loadtxt would warn
            continue
        block = np.loadtxt(lines, delimiter=",", comments=None, usecols=(0, 1), ndmin=2)
        times = block[:, 0]
        if not np.isfinite(times).all():
            return None
        if start is None:
            start = float(times[0])
        expected = start + np.arange(k, k + len(times)) * sample_period
        if (abs(times - expected) > GRID_TOL * np.maximum(sample_period, abs(expected))).any():
            return None
        samples.append(block[:, 1])
        k += len(times)
    if not k:
        return None
    return start + np.arange(k) * sample_period, np.concatenate(samples)


def _read_rows(path: str, sample_period: float) -> tuple[np.ndarray, np.ndarray]:
    """_read_trace row by row: the first bad row raises a ConfigError
    naming it."""
    samples = array("d")
    try:
        fh = open(path, "r", encoding="utf-8-sig", newline="")
    except OSError as exc:
        raise ConfigError([f"{path}: cannot read trace file: {exc.strerror or exc}"]) from exc
    try:
        with fh:
            _check_header(path, fh)
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
                if not math.isfinite(t):
                    raise ConfigError([f"{path}: row {row}: non-finite time {t!r}"])
                if start is None:
                    start = t
                expected = start + len(samples) * sample_period
                # slack relative to the time, so a missing sample stays an
                # error until t reaches sample_period / GRID_TOL
                if abs(t - expected) > GRID_TOL * max(sample_period, abs(expected)):
                    raise ConfigError([
                        f"{path}: row {row}: time {t!r} off the uniform grid "
                        f"(expected {expected!r} at sample_period {sample_period})"])
                samples.append(y)
    except UnicodeDecodeError as exc:  # decoded chunk by chunk: the row loop raises it too
        raise ConfigError([f"{path}: cannot read trace file: not UTF-8 ({exc.reason})"]) from exc
    if not samples:
        raise ConfigError([f"{path}: no samples"])
    return start + np.arange(len(samples)) * sample_period, np.frombuffer(samples)


# ---------------------------------------------------------------------------
# output files

def _reprs(values: np.ndarray) -> list[str]:
    """Each value's repr. A run of bit-equal values (a cold row's zeros, a
    theta_hat that holds still) shares the repr of its first: the bits, so
    -0.0 and 0.0 differ. Where fewer than an eighth of the values repeat
    their predecessor, the plain map is the faster."""
    bits = values.view(np.int64)
    first = np.concatenate(([True], bits[1:] != bits[:-1]))
    if np.count_nonzero(first) * 8 > len(values) * 7:
        return list(map(repr, values.tolist()))
    texts = np.array(list(map(repr, values[first].tolist())), dtype=object)
    return texts[np.cumsum(first) - 1].tolist()


def _write_rows(fh, columns) -> None:
    """Write equal-length columns of formatted fields as CSV rows."""
    fh.write("\n".join(map(",".join, zip(*columns))))
    fh.write("\n")


def _estimate_header(n: int) -> str:
    return ",".join(["time", "y", "delta"] + [
        f"{column}_{i}" for column in ("theta_hat", "theta_ft", "omega_grad", "omega_ft")
        for i in range(1, n + 1)])


def _finite_time_columns(trajectory: Trajectory, a: int, b: int, n: int):
    """theta_ft and omega_ft columns of rows a..b-1, empty before an epoch fires."""
    theta = [[""] * (b - a) for _ in range(n)]
    omega = [[""] * (b - a) for _ in range(n)]
    for lo, hi, theta_ft, omega_ft in trajectory.held_in(a, b):
        for column, value in zip(theta + omega, theta_ft + omega_ft):
            column[lo:hi] = [repr(value)] * (hi - lo)
    return theta, omega


def _write_csvs(trajectory: Trajectory, estimate_path: str, trace_path: str | None) -> None:
    """Write the estimates and, given trace_path, the trace in lockstep,
    chunk by chunk, so each chunk's time and y strings serve both files."""
    n = trajectory.theta_hat.shape[1]
    with contextlib.ExitStack() as files:
        trace = None
        if trace_path is not None:
            trace = files.enter_context(open(trace_path, "w", encoding="utf-8", newline=""))
            trace.write("time,y\n")
        estimates = files.enter_context(open(estimate_path, "w", encoding="utf-8", newline=""))
        estimates.write(_estimate_header(n) + "\n")
        for a in range(0, len(trajectory), _CHUNK_ROWS):
            b = min(a + _CHUNK_ROWS, len(trajectory))
            columns = [_reprs(trajectory.times[a:b]), _reprs(trajectory.samples[a:b])]
            if trace is not None:
                _write_rows(trace, columns)
            theta_ft, omega_ft = _finite_time_columns(trajectory, a, b, n)
            columns.append(_reprs(trajectory.delta[a:b]))
            columns += map(_reprs, trajectory.theta_hat[a:b].T)
            columns += theta_ft
            columns += map(_reprs, trajectory.omega_grad[a:b].T)
            columns += omega_ft
            _write_rows(estimates, columns)


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
        result.estimate_path = os.path.join(out_dir, out.estimate_path)
        _write_csvs(trajectory, result.estimate_path, result.trace_path)
        result.metadata_path = os.path.join(out_dir, out.metadata_path)
        write_metadata(result.metadata_path, result)
    except OSError as exc:
        path = exc.filename or out_dir
        raise ConfigError([f"{path}: cannot write output: {exc.strerror or exc}"]) from exc
