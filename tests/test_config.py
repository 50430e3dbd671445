"""Unit tests for config parsing, formatting, and validation."""

import re
from dataclasses import replace
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ftfreq.config import (BUILTIN_NAMES, EstimatorSettings, OutputConfig,
                           RunConfig, ScenarioConfig, builtin_scenario,
                           config_warnings, format_config, parse_config,
                           validate_config, with_seed)
from ftfreq.errors import ConfigError
from ftfreq.mixing import DremConfig
from ftfreq.regression import H_RULE_HALF, H_RULE_QUARTER, ModelConfig
from ftfreq.signals import (HarmonicSpec, ScheduleStep, SignalSpec,
                            UniformDisturbance)

README = Path(__file__).resolve().parent.parent / "README.md"

MINIMAL = """
# two-tone demo
signal.harmonic.1.amplitude = 1.0
signal.harmonic.1.frequency = 2.0
signal.harmonic.1.phase = 0.0
signal.harmonic.2.amplitude = 1.0
signal.harmonic.2.frequency = 3.0
signal.harmonic.2.phase = 1.5707963267948966
signal.disturbance.kind = none
model.n = 2
model.h = 0.1
model.omega_min = 0.5
model.omega_max = 5.5
drem.d = 0.13
drem.epsilon = 100.0
estimator.gamma = 0.005 0.005
estimator.omega0 = 2.0 5.0
estimator.t_ft = 5.0
run.duration = 8.0
"""


class TestParsing:
    def test_minimal_config_parses(self):
        cfg = parse_config(MINIMAL)
        assert cfg.model.n == 2
        assert cfg.model.h == 0.1
        assert cfg.signal is not None
        assert len(cfg.signal.harmonics) == 2
        assert cfg.estimator.gamma == (0.005, 0.005)
        assert cfg.run.sample_period == 0.001  # default
        assert cfg.output.trace_path == "trace.csv"
        assert validate_config(cfg) == []

    def test_unknown_key_rejected_with_name(self):
        with pytest.raises(ConfigError) as info:
            parse_config(MINIMAL + "\nmodel.hh = 3\n")
        assert any("model.hh" in v for v in info.value.violations)
        # the root tolerance is estimator.imag_tol; the old key has no alias
        with pytest.raises(ConfigError) as info:
            parse_config(MINIMAL + "\nrecovery.imag_tol = 0.001\n")
        assert any("unknown key 'recovery.imag_tol'" in v for v in info.value.violations)

    def test_malformed_line_reports_line_number(self):
        with pytest.raises(ConfigError) as info:
            parse_config("model.n\n")
        assert any(":1:" in v for v in info.value.violations)

    def test_bad_number_reported(self):
        with pytest.raises(ConfigError) as info:
            parse_config(MINIMAL.replace("model.h = 0.1", "model.h = fast"))
        assert any("model.h" in v for v in info.value.violations)

    def test_multiple_errors_collected_at_once(self):
        text = MINIMAL.replace("model.h = 0.1", "model.h = fast")
        text = text.replace("drem.epsilon = 100.0", "drem.epsilon = -1.0")
        with pytest.raises(ConfigError) as info:
            parse_config(text)
        assert len(info.value.violations) >= 2
        # a missing required key and every run-section rejection, together
        text = MINIMAL.replace("model.n = 2\n", "").replace(
            "run.duration = 8.0",
            "run.sample_period = 0.0\nrun.duration = -8.0\nrun.reset_times = 2.0 1.0 -1.0")
        with pytest.raises(ConfigError) as info:
            parse_config(text)
        found = "\n".join(info.value.violations)
        for message in ("missing required key 'model.n'",
                        "run.sample_period must be positive, got 0.0",
                        "run.duration must be positive, got -8.0",
                        "run.reset_times must be positive",
                        "run.reset_times must be strictly increasing"):
            assert message in found

    def test_duplicate_key_rejected(self):
        with pytest.raises(ConfigError):
            parse_config(MINIMAL + "\nmodel.n = 3\n")

    def test_signal_section_optional(self):
        text = "\n".join(line for line in MINIMAL.splitlines()
                         if not line.startswith("signal."))
        cfg = parse_config(text)
        assert cfg.signal is None
        assert validate_config(cfg) == []

    def test_schedule_step_without_harmonics_rejected(self):
        text = format_config(builtin_scenario("noiseless-2h")) + "\nsignal.schedule.1.time = 3.0\n"
        with pytest.raises(ConfigError) as info:
            parse_config(text)
        assert any("signal.schedule.1" in v for v in info.value.violations)
        # and a signal section with no harmonics at all
        text = "\n".join(line for line in MINIMAL.splitlines()
                         if not line.startswith("signal.harmonic"))
        with pytest.raises(ConfigError) as info:
            parse_config(text)
        assert any("signal present but has no harmonics" in v for v in info.value.violations)

    def test_round_trip_through_format(self):
        for name in BUILTIN_NAMES:
            cfg = builtin_scenario(name)
            assert parse_config(format_config(cfg)) == cfg

    def test_round_trip_with_schedule_and_resets(self):
        cfg = builtin_scenario("step-change")
        cfg = replace(cfg, run=replace(cfg.run, reset_times=(30.0,)))
        assert parse_config(format_config(cfg)) == cfg

    def test_harmonic_disturbance_is_a_harmonic(self):
        text = MINIMAL.replace("signal.disturbance.kind = none", "\n".join((
            "signal.disturbance.kind = harmonic",
            "signal.disturbance.amplitude = 0.25",
            "signal.disturbance.frequency = 15.0")))
        assert parse_config(text).signal.disturbance == HarmonicSpec(0.25, 15.0)
        bad = text.replace("amplitude = 0.25", "amplitude = -0.25")
        bad = bad.replace("frequency = 15.0", "frequency = 0.0")
        with pytest.raises(ConfigError) as info:
            parse_config(bad)
        assert any(v.startswith("signal.disturbance: harmonic amplitude must be positive")
                   for v in info.value.violations)
        assert any(v.startswith("signal.disturbance: harmonic frequency must be positive")
                   for v in info.value.violations)

    def test_uniform_disturbance_round_trip(self):
        cfg = builtin_scenario("uniform-noise")
        parsed = parse_config(format_config(cfg))
        assert isinstance(parsed.signal.disturbance, UniformDisturbance)
        assert parsed.signal.disturbance.seed == cfg.signal.disturbance.seed


class TestValidation:
    def base(self, **overrides):
        cfg = parse_config(MINIMAL)
        return cfg if not overrides else cfg.__class__(
            **{**cfg.__dict__, **overrides})

    def test_h_bound_accept_and_reject(self):
        ok = ModelConfig(n=2, h=0.1, omega_min=0.5, omega_max=10.0)
        cfg = self.base(model=ok)
        assert all("model.h" not in v or "multiple" in v for v in validate_config(cfg))
        bad = ModelConfig(n=2, h=0.2, omega_min=0.5, omega_max=10.0)
        cfg = self.base(model=bad)
        assert any("pi/(2*omega_max)" in v for v in validate_config(cfg))

    def test_grid_alignment_checked(self):
        cfg = self.base(drem=DremConfig(d=0.1305, epsilon=100.0))
        assert any("drem.d" in v for v in validate_config(cfg))
        ok = self.base(drem=DremConfig(d=0.13, epsilon=100.0))
        assert validate_config(ok) == []

    def test_t_ft_lower_bound_named(self):
        cfg = self.base(estimator=EstimatorSettings(
            gamma=(0.005, 0.005), omega0=(2.0, 5.0), t_ft=0.1))
        violations = validate_config(cfg)
        assert any("0.66" in v for v in violations)

    def test_duration_must_exceed_t_ft(self):
        cfg = self.base(run=RunConfig(sample_period=0.001, duration=4.0))
        assert any("duration" in v for v in validate_config(cfg))

    def test_out_of_band_signal_frequency(self):
        cfg = parse_config(MINIMAL.replace(
            "signal.harmonic.2.frequency = 3.0",
            "signal.harmonic.2.frequency = 9.0"))
        assert any("outside band" in v for v in validate_config(cfg))

    def test_out_of_band_initial_guess(self):
        cfg = self.base(estimator=EstimatorSettings(
            gamma=(0.005, 0.005), omega0=(2.0, 9.0), t_ft=5.0))
        assert any("omega0" in v for v in validate_config(cfg))

    def test_reset_times_inside_duration(self):
        cfg = self.base()
        cfg = replace(cfg, run=replace(cfg.run, reset_times=(9.0,)))
        assert any("reset_times" in v for v in validate_config(cfg))

    def test_violations_are_collected_together(self):
        cfg = self.base(
            model=ModelConfig(n=2, h=0.2, omega_min=0.5, omega_max=10.0),
            drem=DremConfig(d=0.1305, epsilon=100.0),
            estimator=EstimatorSettings(gamma=(0.005, 0.005),
                                        omega0=(2.0, 5.0), t_ft=0.1))
        assert len(validate_config(cfg)) >= 3

    def test_mismatched_harmonic_count_warns_not_fails(self):
        text = "\n".join(line for line in MINIMAL.splitlines()
                         if not line.startswith("signal.harmonic.2"))
        cfg = parse_config(text)
        assert validate_config(cfg) == []
        assert any("excitation will be deficient" in w for w in config_warnings(cfg))


class TestBuiltinScenarios:
    def test_all_builtins_validate(self):
        for name in BUILTIN_NAMES:
            cfg = builtin_scenario(name)
            assert validate_config(cfg) == [], name

    def test_published_tunings_noiseless(self):
        cfg = builtin_scenario("noiseless-2h")
        assert cfg.model.h == 0.1
        assert cfg.drem.d == 0.13
        assert cfg.drem.epsilon == 100.0
        assert cfg.estimator.gamma == (0.005, 0.005)
        assert cfg.estimator.omega0 == (2.0, 5.0)
        freqs = sorted(h.frequency for h in cfg.signal.harmonics)
        assert freqs == [2.0, 3.0]

    def test_step_change_switches_at_30s(self):
        cfg = builtin_scenario("step-change")
        assert cfg.signal.schedule[0].switch_time == 30.0
        before = sorted(h.frequency for h in cfg.signal.harmonics)
        after = sorted(h.frequency for h in cfg.signal.schedule[0].harmonics)
        assert before == [1.8, 3.2]
        assert after == [2.0, 3.0]

    def test_unknown_name_rejected(self):
        with pytest.raises(ConfigError) as info:
            builtin_scenario("chirp")
        (message,) = info.value.violations
        assert "'chirp'" in message
        assert all(name in message for name in BUILTIN_NAMES)

    def test_with_seed_override(self):
        cfg = builtin_scenario("uniform-noise")
        replaced, applied = with_seed(cfg, 99)
        assert applied
        assert replaced.signal.disturbance.seed == 99
        clean = builtin_scenario("noiseless-2h")
        same, applied = with_seed(clean, 99)
        assert not applied
        assert same == clean


# ---------------------------------------------------------------------------
# the schema: parse inverts format, and README lists exactly the keys

positive = st.floats(min_value=1e-3, max_value=1e3)
names = st.text(alphabet="abcdefghijklmnopqrstuvwxyz0123456789._-", min_size=1, max_size=12)


@st.composite
def harmonic_sets(draw, n):
    freqs = draw(st.lists(positive, min_size=1, max_size=n, unique=True))
    return tuple(HarmonicSpec(draw(positive), w, draw(st.floats(-7.0, 7.0)))
                 for w in freqs)


@st.composite
def configs(draw):
    """Valid configs: n = 1..8, each disturbance kind, 0-2 schedule steps,
    0-3 reset times, drawn output names."""
    n = draw(st.integers(1, 8))
    lo = draw(positive)
    disturbance = draw(st.one_of(
        st.none(),
        st.builds(HarmonicSpec, positive, positive, st.floats(-7.0, 7.0)),
        st.builds(UniformDisturbance, positive, positive, st.integers(0, 2**64))))
    switches = sorted(draw(st.lists(positive, max_size=2, unique=True)))
    schedule = tuple(ScheduleStep(t, draw(harmonic_sets(n))) for t in switches)
    signal = draw(st.one_of(
        st.none(), st.just(SignalSpec(draw(harmonic_sets(n)), disturbance, schedule))))
    return ScenarioConfig(
        name=draw(names),
        signal=signal,
        model=ModelConfig(n=n, h=draw(positive), omega_min=lo, omega_max=lo + draw(positive),
                          h_rule=draw(st.sampled_from((H_RULE_QUARTER, H_RULE_HALF)))),
        drem=DremConfig(d=draw(positive), epsilon=draw(positive)),
        estimator=EstimatorSettings(
            gamma=tuple(draw(st.lists(positive, min_size=n, max_size=n))),
            omega0=tuple(draw(st.lists(positive, min_size=n, max_size=n, unique=True))),
            t_ft=draw(positive), w_floor=draw(st.floats(1e-9, 0.5)),
            imag_tol=draw(positive)),
        run=RunConfig(sample_period=draw(positive), duration=draw(positive),
                      reset_times=tuple(sorted(draw(st.lists(positive, max_size=3,
                                                             unique=True))))),
        output=OutputConfig(trace_path=draw(names), estimate_path=draw(names),
                            metadata_path=draw(names)),
    )


@settings(max_examples=200, deadline=None)
@given(configs())
def test_format_then_parse_is_identity(cfg):
    assert parse_config(format_config(cfg)) == cfg


def emitted_keys():
    """Every key format_config writes for configs covering each key group,
    with harmonic indices written <i> and schedule indices <j>."""
    cfgs = [builtin_scenario(name) for name in BUILTIN_NAMES]
    step = builtin_scenario("step-change")
    cfgs.append(replace(step, run=replace(step.run, reset_times=(30.0,))))
    keys = set()
    for cfg in cfgs:
        for line in format_config(cfg).splitlines():
            key = line.partition(" = ")[0]
            key = re.sub(r"^signal\.schedule\.\d+", "signal.schedule.<j>", key)
            keys.add(re.sub(r"harmonic\.\d+", "harmonic.<i>", key))
    return keys


def readme_keys():
    """The first word of each unindented line of README's key block."""
    text = README.read_text(encoding="utf-8")
    block = text.split("All keys,", 1)[1].split("```", 2)[1]
    return {line.split()[0] for line in block.splitlines()
            if line and not line[0].isspace()}


def test_readme_lists_exactly_the_emitted_keys():
    assert readme_keys() == emitted_keys()
