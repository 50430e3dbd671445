"""Scenario configuration: dataclasses, flat key-value parsing, validation.

Config files are plain text with one dotted key per line (# starts a
comment, blank lines ignored), for example::

    model.n = 2
    model.h = 0.1
    signal.harmonic.1.frequency = 2.0
    estimator.gamma = 0.005 0.005

Vectors are space-separated. The same format is echoed into run metadata so
a completed run documents exactly what produced it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

from .errors import ConfigError
from .mixing import DremConfig
from .regression import ModelConfig, steps_per_delay
from .signals import (HarmonicDisturbance, HarmonicSpec, ScheduleStep,
                      SignalSpec, UniformDisturbance)


@dataclass(frozen=True)
class EstimatorSettings:
    """User-facing estimator tuning; theta0 is derived from omega0 later."""

    gamma: tuple[float, ...]
    omega0: tuple[float, ...]
    t_ft: float
    w_floor: float = 1e-6

    def __post_init__(self):
        bad = []
        if not self.gamma or any(not (math.isfinite(g) and g > 0) for g in self.gamma):
            bad.append(f"estimator.gamma entries must be positive, got {self.gamma}")
        if not self.omega0 or any(not (math.isfinite(w) and w > 0) for w in self.omega0):
            bad.append(f"estimator.omega0 entries must be positive, got {self.omega0}")
        if len(set(self.omega0)) != len(self.omega0):
            bad.append(f"estimator.omega0 entries must be distinct, got {self.omega0}")
        if not (math.isfinite(self.t_ft) and self.t_ft > 0):
            bad.append(f"estimator.t_ft must be positive, got {self.t_ft}")
        if not 0.0 < self.w_floor < 1.0:
            bad.append(f"estimator.w_floor must lie in (0, 1), got {self.w_floor}")
        if bad:
            raise ConfigError(bad)


@dataclass(frozen=True)
class RecoverySettings:
    imag_tol: float = 1e-3

    def __post_init__(self):
        if not (math.isfinite(self.imag_tol) and self.imag_tol > 0):
            raise ConfigError(f"recovery.imag_tol must be positive, got {self.imag_tol}")


@dataclass(frozen=True)
class RunConfig:
    sample_period: float
    duration: float
    reset_times: tuple[float, ...] = ()

    def __post_init__(self):
        bad = []
        if not (math.isfinite(self.sample_period) and self.sample_period > 0):
            bad.append(f"run.sample_period must be positive, got {self.sample_period}")
        if not (math.isfinite(self.duration) and self.duration > 0):
            bad.append(f"run.duration must be positive, got {self.duration}")
        times = self.reset_times
        if any(not (math.isfinite(t) and t > 0) for t in times):
            bad.append(f"run.reset_times must be positive, got {times}")
        if any(b <= a for a, b in zip(times, times[1:])):
            bad.append(f"run.reset_times must be strictly increasing, got {times}")
        if bad:
            raise ConfigError(bad)


@dataclass(frozen=True)
class OutputConfig:
    trace_path: str = "trace.csv"
    estimate_path: str = "estimates.csv"
    metadata_path: str = "metadata.txt"


@dataclass(frozen=True)
class ScenarioConfig:
    """Everything one run needs; signal is absent when estimating from a file."""

    model: ModelConfig
    drem: DremConfig
    estimator: EstimatorSettings
    run: RunConfig
    signal: SignalSpec | None = None
    recovery: RecoverySettings = field(default_factory=RecoverySettings)
    output: OutputConfig = field(default_factory=OutputConfig)
    name: str = "custom"


def validate_config(cfg: ScenarioConfig) -> list[str]:
    """All rule violations in the config, each naming field, constraint, value."""
    bad = []
    n = cfg.model.n
    try:
        steps_per_delay(cfg.model.h, cfg.run.sample_period, "model.h")
    except ConfigError as exc:
        bad.extend(exc.violations)
    try:
        steps_per_delay(cfg.drem.d, cfg.run.sample_period, "drem.d")
    except ConfigError as exc:
        bad.extend(exc.violations)
    bad.extend(cfg.model.check_h_bound())

    latency = n * (cfg.model.h + cfg.drem.d)
    if cfg.estimator.t_ft <= latency:
        bad.append(
            f"estimator.t_ft = {cfg.estimator.t_ft} must exceed "
            f"n*(h + d) = {latency:.6g}")
    if cfg.run.duration <= cfg.estimator.t_ft:
        bad.append(
            f"run.duration = {cfg.run.duration} must exceed "
            f"estimator.t_ft = {cfg.estimator.t_ft}")

    if len(cfg.estimator.gamma) != n:
        bad.append(
            f"estimator.gamma has {len(cfg.estimator.gamma)} entries, model.n = {n}")
    if len(cfg.estimator.omega0) != n:
        bad.append(
            f"estimator.omega0 has {len(cfg.estimator.omega0)} entries, model.n = {n}")
    lo, hi = cfg.model.omega_min, cfg.model.omega_max
    for w in cfg.estimator.omega0:
        if not lo <= w <= hi:
            bad.append(
                f"estimator.omega0 entry {w} outside band [{lo}, {hi}]")
    if cfg.signal is not None:
        sets = [("signal", cfg.signal.harmonics)]
        sets.extend((f"signal.schedule t={s.switch_time}", s.harmonics)
                    for s in cfg.signal.schedule)
        for label, harmonics in sets:
            for harm in harmonics:
                if not lo <= harm.frequency <= hi:
                    bad.append(
                        f"{label}: harmonic frequency {harm.frequency} outside "
                        f"band [{lo}, {hi}]")
    for t in cfg.run.reset_times:
        if t >= cfg.run.duration:
            bad.append(f"run.reset_times entry {t} not before duration {cfg.run.duration}")
    return bad


def config_warnings(cfg: ScenarioConfig) -> list[str]:
    """Non-fatal notes recorded into run metadata."""
    notes = list(cfg.model.warnings())
    if cfg.signal is not None:
        for label, harmonics in [("signal", cfg.signal.harmonics)] + [
                (f"schedule t={s.switch_time}", s.harmonics) for s in cfg.signal.schedule]:
            if len(harmonics) != cfg.model.n:
                notes.append(
                    f"{label} has {len(harmonics)} harmonics for model.n = {cfg.model.n}; "
                    "excitation will be deficient" if len(harmonics) < cfg.model.n
                    else f"{label} has {len(harmonics)} harmonics for model.n = {cfg.model.n}")
    return notes


def ensure_valid(cfg: ScenarioConfig) -> ScenarioConfig:
    violations = validate_config(cfg)
    if violations:
        raise ConfigError(violations)
    return cfg


def with_seed(cfg: ScenarioConfig, seed: int) -> tuple[ScenarioConfig, bool]:
    """Copy of cfg with the uniform-noise seed replaced; False if not seeded."""
    if cfg.signal is None or not isinstance(cfg.signal.disturbance, UniformDisturbance):
        return cfg, False
    disturbance = replace(cfg.signal.disturbance, seed=seed)
    return replace(cfg, signal=replace(cfg.signal, disturbance=disturbance)), True


# ---------------------------------------------------------------------------
# parsing

def _parse_lines(text: str, source: str) -> dict[str, str]:
    table: dict[str, str] = {}
    errors = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            errors.append(f"{source}:{lineno}: expected 'key = value', got {raw!r}")
            continue
        key, _, value = line.partition("=")
        key = key.strip()
        if not key:
            errors.append(f"{source}:{lineno}: empty key")
            continue
        if key in table:
            errors.append(f"{source}:{lineno}: duplicate key {key!r}")
            continue
        table[key] = value.strip()
    if errors:
        raise ConfigError(errors)
    return table


class _Reader:
    """Pulls typed values out of the key table, collecting complaints."""

    def __init__(self, table: dict[str, str], source: str):
        self.table = dict(table)
        self.source = source
        self.errors: list[str] = []

    def _take(self, key: str, required: bool):
        if key in self.table:
            return self.table.pop(key)
        if required:
            self.errors.append(f"{self.source}: missing required key {key!r}")
        return None

    def text(self, key: str, default: str | None = None) -> str | None:
        raw = self._take(key, required=default is None)
        return default if raw is None else raw

    def number(self, key: str, default: float | None = None, required: bool = True) -> float | None:
        raw = self._take(key, required=required and default is None)
        if raw is None:
            return default
        try:
            return float(raw)
        except ValueError:
            self.errors.append(f"{self.source}: key {key!r}: expected a number, got {raw!r}")
            return default

    def integer(self, key: str, default: int | None = None, required: bool = True) -> int | None:
        raw = self._take(key, required=required and default is None)
        if raw is None:
            return default
        try:
            return int(raw)
        except ValueError:
            self.errors.append(f"{self.source}: key {key!r}: expected an integer, got {raw!r}")
            return default

    def numbers(self, key: str, default: tuple[float, ...] | None = None) -> tuple[float, ...]:
        raw = self._take(key, required=default is None)
        if raw is None:
            return default if default is not None else ()
        if not raw:
            return ()
        try:
            return tuple(float(part) for part in raw.split())
        except ValueError:
            self.errors.append(f"{self.source}: key {key!r}: expected numbers, got {raw!r}")
            return ()

    def group_indices(self, prefix: str) -> list[int]:
        found = set()
        for key in self.table:
            if key.startswith(prefix + "."):
                tail = key[len(prefix) + 1:].split(".", 1)[0]
                try:
                    found.add(int(tail))
                except ValueError:
                    self.errors.append(
                        f"{self.source}: key {key!r}: index after {prefix!r} must be an integer")
        return sorted(found)

    def finish(self):
        for key in sorted(self.table):
            self.errors.append(f"{self.source}: unknown key {key!r}")
        if self.errors:
            raise ConfigError(self.errors)


def _read_harmonics(r: _Reader, prefix: str) -> tuple[HarmonicSpec, ...]:
    harmonics = []
    for idx in r.group_indices(prefix):
        base = f"{prefix}.{idx}"
        amplitude = r.number(f"{base}.amplitude")
        frequency = r.number(f"{base}.frequency")
        phase = r.number(f"{base}.phase", default=0.0)
        if amplitude is None or frequency is None:
            continue
        try:
            harmonics.append(HarmonicSpec(amplitude, frequency, phase))
        except ConfigError as exc:
            r.errors.extend(f"{base}: {v}" for v in exc.violations)
    return tuple(harmonics)


def _read_signal(r: _Reader) -> SignalSpec | None:
    has_signal = any(key == "signal" or key.startswith("signal.") for key in r.table)
    if not has_signal:
        return None
    harmonics = _read_harmonics(r, "signal.harmonic")
    kind = r.text("signal.disturbance.kind", default="none")
    disturbance = None
    if kind == "harmonic":
        amplitude = r.number("signal.disturbance.amplitude")
        frequency = r.number("signal.disturbance.frequency")
        phase = r.number("signal.disturbance.phase", default=0.0)
        if amplitude is not None and frequency is not None:
            disturbance = HarmonicDisturbance(amplitude, frequency, phase)
    elif kind == "uniform":
        half_range = r.number("signal.disturbance.half_range")
        period = r.number("signal.disturbance.sample_period")
        seed = r.integer("signal.disturbance.seed")
        if None not in (half_range, period, seed):
            try:
                disturbance = UniformDisturbance(half_range, period, seed)
            except ConfigError as exc:
                r.errors.extend(exc.violations)
    elif kind != "none":
        r.errors.append(
            f"{r.source}: signal.disturbance.kind must be none, harmonic or uniform, got {kind!r}")
    schedule = []
    for idx in r.group_indices("signal.schedule"):
        base = f"signal.schedule.{idx}"
        time = r.number(f"{base}.time")
        replacement = _read_harmonics(r, f"{base}.harmonic")
        if time is not None and replacement:
            schedule.append(ScheduleStep(time, replacement))
    if not harmonics:
        r.errors.append(f"{r.source}: signal present but has no harmonics")
        return None
    try:
        return SignalSpec(harmonics, disturbance, tuple(schedule))
    except ConfigError as exc:
        r.errors.extend(exc.violations)
        return None


def parse_config(text: str, source: str = "<config>") -> ScenarioConfig:
    """Parse config text; raises ConfigError listing every problem found."""
    r = _Reader(_parse_lines(text, source), source)
    name = r.text("scenario.name", default="custom")
    signal = _read_signal(r)

    def build(cls, kwargs):
        if any(v is None for v in kwargs.values()):
            return None  # missing keys already recorded
        try:
            return cls(**kwargs)
        except ConfigError as exc:
            r.errors.extend(exc.violations)
            return None

    model = build(ModelConfig, dict(
        n=r.integer("model.n"),
        h=r.number("model.h"),
        omega_min=r.number("model.omega_min"),
        omega_max=r.number("model.omega_max"),
        h_rule=r.text("model.h_rule", default="quarter-period"),
    ))
    drem = build(DremConfig, dict(
        d=r.number("drem.d"), epsilon=r.number("drem.epsilon")))
    estimator = build(EstimatorSettings, dict(
        gamma=r.numbers("estimator.gamma"),
        omega0=r.numbers("estimator.omega0"),
        t_ft=r.number("estimator.t_ft"),
        w_floor=r.number("estimator.w_floor", default=1e-6),
    ))
    recovery = build(RecoverySettings, dict(
        imag_tol=r.number("recovery.imag_tol", default=1e-3)))
    run = build(RunConfig, dict(
        sample_period=r.number("run.sample_period", default=0.001),
        duration=r.number("run.duration"),
        reset_times=r.numbers("run.reset_times", default=()),
    ))
    output = OutputConfig(
        trace_path=r.text("output.trace_path", default="trace.csv"),
        estimate_path=r.text("output.estimate_path", default="estimates.csv"),
        metadata_path=r.text("output.metadata_path", default="metadata.txt"),
    )
    r.finish()
    if None in (model, drem, estimator, recovery, run):
        raise ConfigError([f"{source}: configuration incomplete"])
    return ScenarioConfig(model=model, drem=drem, estimator=estimator, run=run,
                          signal=signal, recovery=recovery, output=output, name=name)


def load_config(path) -> ScenarioConfig:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise ConfigError(f"{path}: cannot read config file: {exc.strerror or exc}") from exc
    return parse_config(text, source=str(path))


# ---------------------------------------------------------------------------
# formatting

def _fmt(value) -> str:
    if isinstance(value, float):
        return repr(value)
    return str(value)


def _fmt_vector(values) -> str:
    return " ".join(repr(float(v)) for v in values)


def format_config(cfg: ScenarioConfig) -> str:
    """Canonical flat key-value rendering; parse_config inverts it exactly."""
    lines = [f"scenario.name = {cfg.name}"]
    if cfg.signal is not None:
        for i, h in enumerate(cfg.signal.harmonics, start=1):
            lines.append(f"signal.harmonic.{i}.amplitude = {_fmt(h.amplitude)}")
            lines.append(f"signal.harmonic.{i}.frequency = {_fmt(h.frequency)}")
            lines.append(f"signal.harmonic.{i}.phase = {_fmt(h.phase)}")
        d = cfg.signal.disturbance
        if d is None:
            lines.append("signal.disturbance.kind = none")
        elif isinstance(d, HarmonicDisturbance):
            lines.append("signal.disturbance.kind = harmonic")
            lines.append(f"signal.disturbance.amplitude = {_fmt(d.amplitude)}")
            lines.append(f"signal.disturbance.frequency = {_fmt(d.frequency)}")
            lines.append(f"signal.disturbance.phase = {_fmt(d.phase)}")
        else:
            lines.append("signal.disturbance.kind = uniform")
            lines.append(f"signal.disturbance.half_range = {_fmt(d.half_range)}")
            lines.append(f"signal.disturbance.sample_period = {_fmt(d.sample_period)}")
            lines.append(f"signal.disturbance.seed = {d.seed}")
        for j, step in enumerate(cfg.signal.schedule, start=1):
            lines.append(f"signal.schedule.{j}.time = {_fmt(step.switch_time)}")
            for i, h in enumerate(step.harmonics, start=1):
                lines.append(f"signal.schedule.{j}.harmonic.{i}.amplitude = {_fmt(h.amplitude)}")
                lines.append(f"signal.schedule.{j}.harmonic.{i}.frequency = {_fmt(h.frequency)}")
                lines.append(f"signal.schedule.{j}.harmonic.{i}.phase = {_fmt(h.phase)}")
    lines.append(f"model.n = {cfg.model.n}")
    lines.append(f"model.h = {_fmt(cfg.model.h)}")
    lines.append(f"model.omega_min = {_fmt(cfg.model.omega_min)}")
    lines.append(f"model.omega_max = {_fmt(cfg.model.omega_max)}")
    lines.append(f"model.h_rule = {cfg.model.h_rule}")
    lines.append(f"drem.d = {_fmt(cfg.drem.d)}")
    lines.append(f"drem.epsilon = {_fmt(cfg.drem.epsilon)}")
    lines.append(f"estimator.gamma = {_fmt_vector(cfg.estimator.gamma)}")
    lines.append(f"estimator.omega0 = {_fmt_vector(cfg.estimator.omega0)}")
    lines.append(f"estimator.t_ft = {_fmt(cfg.estimator.t_ft)}")
    lines.append(f"estimator.w_floor = {_fmt(cfg.estimator.w_floor)}")
    lines.append(f"recovery.imag_tol = {_fmt(cfg.recovery.imag_tol)}")
    lines.append(f"run.sample_period = {_fmt(cfg.run.sample_period)}")
    lines.append(f"run.duration = {_fmt(cfg.run.duration)}")
    if cfg.run.reset_times:
        lines.append(f"run.reset_times = {_fmt_vector(cfg.run.reset_times)}")
    lines.append(f"output.trace_path = {cfg.output.trace_path}")
    lines.append(f"output.estimate_path = {cfg.output.estimate_path}")
    lines.append(f"output.metadata_path = {cfg.output.metadata_path}")
    return "\n".join(lines) + "\n"
