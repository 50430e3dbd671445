"""Scenario configuration: dataclasses, flat key-value parsing, validation,
built-in scenarios.

Config files are plain text with one dotted key per line (# starts a
comment, blank lines ignored), for example::

    model.n = 2
    model.h = 0.1
    signal.harmonic.1.frequency = 2.0
    estimator.gamma = 0.005 0.005

Vectors are space-separated. The same format is echoed into run metadata so
a completed run documents exactly what produced it.

The built-in scenarios are such files, shipped in the package's scenarios/
directory with their tuning rationale as comments: builtin_scenario(name)
parses scenarios/<name>.cfg, and BUILTIN_NAMES lists the file stems.

The stage dataclasses are the schema: the keys of a section are
<section>.<field> for each field of its dataclass (ModelConfig for model,
DremConfig for drem, EstimatorSettings for estimator, and so on), each
parsed by its annotation (int, float, str or tuple[float, ...]) and
defaulted by its default. Parsing, formatting and the unknown-key check all
read the fields, so a new field needs no edit here.
"""

from __future__ import annotations

import math
import os
from dataclasses import MISSING, dataclass, field, fields, replace
from importlib import resources

from .errors import ConfigError
from .estimator import EstimatorSettings, length_violations
from .mixing import DremConfig
from .pipeline import warmup_time
from .regression import ModelConfig, steps_per_delay
from .signals import HarmonicSpec, ScheduleStep, SignalSpec, UniformDisturbance


@dataclass(frozen=True)
class RunConfig:
    # keyword-only so it can keep its default and its place first in the echo
    sample_period: float = field(default=0.001, kw_only=True)
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
    output: OutputConfig = field(default_factory=OutputConfig)
    name: str = "custom"


def validate_config(cfg: ScenarioConfig) -> list[str]:
    """All rule violations in the config, each naming field, constraint, value.

    These are recording_violations and then the rules of a simulation, which
    writes the trace and reads run.duration: output.trace_path must differ
    from the other two output files, run.duration must exceed t_ft, and
    every reset must come before it.
    """
    bad = recording_violations(cfg)
    bad += _clashes(cfg.output, "trace_path", ("estimate_path", "metadata_path"))
    if cfg.run.duration <= cfg.estimator.t_ft:
        bad.append(
            f"run.duration = {cfg.run.duration} must exceed "
            f"estimator.t_ft = {cfg.estimator.t_ft}")
    for t in cfg.run.reset_times:
        if t >= cfg.run.duration:
            bad.append(f"run.reset_times entry {t} not before duration {cfg.run.duration}")
    return bad


def recording_violations(cfg: ScenarioConfig) -> list[str]:
    """The rule violations of a run over any trace, recorded or simulated:
    every rule but those of a simulation (validate_config)."""
    bad = _clashes(cfg.output, "metadata_path", ("estimate_path",))
    for delay, label in ((cfg.model.h, "model.h"), (cfg.drem.d, "drem.d")):
        try:
            steps_per_delay(delay, cfg.run.sample_period, label)
        except ConfigError as exc:
            bad.extend(exc.violations)
    bad.extend(cfg.model.check_h_bound())

    latency = warmup_time(cfg.model, cfg.drem)
    if cfg.estimator.t_ft <= latency:
        bad.append(
            f"estimator.t_ft = {cfg.estimator.t_ft} must exceed "
            f"the warm-up 2nh + nd = {latency:.6g}")

    bad.extend(length_violations(cfg.estimator, cfg.model))
    lo, hi = cfg.model.omega_min, cfg.model.omega_max
    for w in cfg.estimator.omega0:
        if not lo <= w <= hi:
            bad.append(f"estimator.omega0 entry {w} outside band [{lo}, {hi}]")
    if cfg.signal is not None:
        for label, harmonics in [("signal", cfg.signal.harmonics)] + [
                (f"signal.schedule t={s.switch_time}", s.harmonics) for s in cfg.signal.schedule]:
            for harm in harmonics:
                if not lo <= harm.frequency <= hi:
                    bad.append(f"{label}: harmonic frequency {harm.frequency} outside "
                               f"band [{lo}, {hi}]")
    return bad


def _clashes(output: OutputConfig, name: str, others) -> list[str]:
    """A complaint for each output file in others that output.<name> names
    too (the names compared after normpath): one would overwrite the other."""
    path = getattr(output, name)
    return [f"output.{name} = {path!r} names the same file as output.{other} = "
            f"{getattr(output, other)!r}" for other in others
            if os.path.normpath(path) == os.path.normpath(getattr(output, other))]


def config_warnings(cfg: ScenarioConfig) -> list[str]:
    """Non-fatal notes recorded into run metadata."""
    notes = list(cfg.model.warnings())
    if cfg.signal is not None:
        for label, harmonics in [("signal", cfg.signal.harmonics)] + [
                (f"schedule t={s.switch_time}", s.harmonics) for s in cfg.signal.schedule]:
            deficient = "; excitation will be deficient" if len(harmonics) < cfg.model.n else ""
            if len(harmonics) != cfg.model.n:
                notes.append(f"{label} has {len(harmonics)} harmonics "
                             f"for model.n = {cfg.model.n}{deficient}")
    return notes


def ensure_valid(cfg: ScenarioConfig) -> ScenarioConfig:
    violations = validate_config(cfg)
    if violations:
        raise ConfigError(violations)
    return cfg


def with_seed(cfg: ScenarioConfig, seed: int) -> tuple[ScenarioConfig, bool]:
    """Copy of cfg with the uniform-noise seed replaced; False if not seeded."""
    if cfg.signal is None or cfg.signal.seed is None:
        return cfg, False
    disturbance = replace(cfg.signal.disturbance, seed=seed)
    return replace(cfg, signal=replace(cfg.signal, disturbance=disturbance)), True


# ---------------------------------------------------------------------------
# parsing and formatting, driven by the fields of the stage dataclasses

# The sections after the signal, in echo order: key prefix and dataclass.
_SECTIONS = (("model", ModelConfig), ("drem", DremConfig),
             ("estimator", EstimatorSettings), ("run", RunConfig),
             ("output", OutputConfig))

_DISTURBANCES = {"harmonic": HarmonicSpec, "uniform": UniformDisturbance}


def _floats(raw: str) -> tuple[float, ...]:
    return tuple(float(part) for part in raw.split())


# Field annotation (as written) -> (parser, what a bad value was expected to be).
_PARSERS = {
    "int": (int, "an integer"),
    "float": (float, "a number"),
    "str": (str, "text"),
    "tuple[float, ...]": (_floats, "numbers"),
}


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
    """Takes typed values out of the key table, collecting complaints."""

    def __init__(self, table: dict[str, str], source: str):
        self.table = dict(table)
        self.source = source
        self.errors: list[str] = []

    def value(self, key: str, kind: str, default=MISSING):
        """The value of key parsed as annotation kind; default if absent.

        Returns MISSING, with the complaint recorded, for a required key that
        is absent or a value that does not parse.
        """
        if key not in self.table:
            if default is MISSING:
                self.errors.append(f"{self.source}: missing required key {key!r}")
            return default
        raw = self.table.pop(key)
        parse, expected = _PARSERS[kind]
        try:
            return parse(raw)
        except ValueError:
            self.errors.append(f"{self.source}: key {key!r}: expected {expected}, got {raw!r}")
            return MISSING

    def build(self, prefix: str, cls):
        """cls from the keys prefix.<field>; None once a complaint is recorded."""
        kwargs = {f.name: self.value(f"{prefix}.{f.name}", f.type, f.default)
                  for f in fields(cls)}
        if any(v is MISSING for v in kwargs.values()):
            return None
        try:
            return cls(**kwargs)
        except ConfigError as exc:  # each complaint names its key group
            self.errors.extend(v if v.startswith(prefix) else f"{prefix}: {v}"
                               for v in exc.violations)
            return None

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

    def harmonics(self, prefix: str) -> tuple[HarmonicSpec, ...]:
        built = (self.build(f"{prefix}.{i}", HarmonicSpec) for i in self.group_indices(prefix))
        return tuple(h for h in built if h is not None)

    def finish(self):
        for key in sorted(self.table):
            self.errors.append(f"{self.source}: unknown key {key!r}")
        if self.errors:
            raise ConfigError(self.errors)


def _read_signal(r: _Reader) -> SignalSpec | None:
    if not any(key == "signal" or key.startswith("signal.") for key in r.table):
        return None
    harmonics = r.harmonics("signal.harmonic")
    kind = r.value("signal.disturbance.kind", "str", "none")
    disturbance = None
    if kind in _DISTURBANCES:
        disturbance = r.build("signal.disturbance", _DISTURBANCES[kind])
    elif kind != "none":
        r.errors.append(
            f"{r.source}: signal.disturbance.kind must be none, harmonic or uniform, got {kind!r}")
    schedule = []
    for j in r.group_indices("signal.schedule"):
        time = r.value(f"signal.schedule.{j}.time", "float")
        replacement = r.harmonics(f"signal.schedule.{j}.harmonic")
        if not replacement:
            r.errors.append(f"{r.source}: signal.schedule.{j} has no harmonics")
        elif time is not MISSING:
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
    name = r.value("scenario.name", "str", "custom")
    signal = _read_signal(r)
    sections = {prefix: r.build(prefix, cls) for prefix, cls in _SECTIONS}
    r.finish()
    if any(section is None for section in sections.values()):
        raise ConfigError([f"{source}: configuration incomplete"])
    return ScenarioConfig(signal=signal, name=name, **sections)


def load_config(path) -> ScenarioConfig:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise ConfigError(f"{path}: cannot read config file: {exc.strerror or exc}") from exc
    return parse_config(text, source=str(path))


_BUILTIN_DIR = resources.files(__package__) / "scenarios"

BUILTIN_NAMES = tuple(sorted(
    entry.name.removesuffix(".cfg") for entry in _BUILTIN_DIR.iterdir()
    if entry.name.endswith(".cfg")))


def builtin_scenario(name: str) -> ScenarioConfig:
    """The built-in scenario name, parsed from the package's scenarios/<name>.cfg."""
    if name not in BUILTIN_NAMES:
        raise ConfigError(
            [f"unknown scenario {name!r}; available: {', '.join(BUILTIN_NAMES)}"])
    return load_config(_BUILTIN_DIR / f"{name}.cfg")


def _fmt(value) -> str:
    if isinstance(value, tuple):
        return " ".join(repr(float(v)) for v in value)
    if isinstance(value, float):
        return repr(value)
    return str(value)


def _keys(prefix: str, obj) -> list[str]:
    """One line per field of obj; an empty vector writes no key."""
    return [f"{prefix}.{f.name} = {_fmt(value)}"
            for f in fields(obj) if (value := getattr(obj, f.name)) != ()]


def _harmonic_keys(prefix: str, harmonics) -> list[str]:
    return [line for i, h in enumerate(harmonics, start=1) for line in _keys(f"{prefix}.{i}", h)]


def format_config(cfg: ScenarioConfig) -> str:
    """Canonical flat key-value rendering; parse_config inverts it exactly."""
    lines = [f"scenario.name = {cfg.name}"]
    if cfg.signal is not None:
        lines += _harmonic_keys("signal.harmonic", cfg.signal.harmonics)
        d = cfg.signal.disturbance
        kind = next((k for k, cls in _DISTURBANCES.items() if isinstance(d, cls)), "none")
        lines.append(f"signal.disturbance.kind = {kind}")
        if d is not None:
            lines += _keys("signal.disturbance", d)
        for j, step in enumerate(cfg.signal.schedule, start=1):
            lines.append(f"signal.schedule.{j}.time = {_fmt(step.switch_time)}")
            lines += _harmonic_keys(f"signal.schedule.{j}.harmonic", step.harmonics)
    for prefix, _ in _SECTIONS:
        lines += _keys(prefix, getattr(cfg, prefix))
    return "\n".join(lines) + "\n"
