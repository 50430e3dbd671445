"""Integration tests for scenario execution, CSV output, and file estimation."""

import math
import sys
from dataclasses import replace
from pathlib import Path

import pytest

from conftest import write_trace_csv
from ftfreq.config import (BUILTIN_NAMES, EstimatorSettings, RunConfig,
                           ScenarioConfig, builtin_scenario, format_config,
                           load_config, parse_config)
from ftfreq.errors import ConfigError
from ftfreq.harness import estimate_from_file, run_scenario
from ftfreq.mixing import DremConfig
from ftfreq.regression import ModelConfig
from ftfreq.signals import (HarmonicSpec, ScheduleStep, SignalSpec,
                            generate_trace, sample_times)

ROOT = Path(__file__).resolve().parent.parent
COS_PHASE = math.pi / 2


def quick_noiseless(duration=8.0):
    cfg = builtin_scenario("noiseless-2h")
    return replace(cfg, run=replace(cfg.run, duration=duration))


def mini_step_change(reset=False):
    """Scaled-down frequency switch: change at 8 s, 20 s horizon."""
    initial = (HarmonicSpec(1.0, 1.8, 0.0), HarmonicSpec(1.0, 3.2, COS_PHASE))
    final = (HarmonicSpec(1.0, 2.0, 0.0), HarmonicSpec(1.0, 3.0, COS_PHASE))
    cfg = ScenarioConfig(
        name="mini-step",
        signal=SignalSpec(harmonics=initial, schedule=(ScheduleStep(8.0, final),)),
        model=ModelConfig(n=2, h=0.7, omega_min=0.3, omega_max=4.2,
                          h_rule="half-period"),
        drem=DremConfig(d=0.4, epsilon=0.5),
        estimator=EstimatorSettings(gamma=(1.0, 1.0), omega0=(2.0, 4.0), t_ft=5.0),
        run=RunConfig(sample_period=0.001, duration=20.0,
                      reset_times=(8.0,) if reset else ()),
    )
    return cfg


class TestRunScenario:
    def test_noiseless_quick_run_extracts_true_frequencies(self):
        result = run_scenario(quick_noiseless())
        assert result.extracted
        assert result.final.omega_ft == pytest.approx((2.0, 3.0), abs=1e-6)
        assert result.final.omega_grad == pytest.approx((2.0, 3.0), abs=1e-6)

    def test_extraction_happens_at_t_ft(self):
        result = run_scenario(quick_noiseless())
        first = next(r for r in result.records if r.omega_ft is not None)
        assert first.time == pytest.approx(5.0, abs=1e-9)

    def test_ft_held_constant_after_extraction(self):
        result = run_scenario(quick_noiseless())
        extracted = [r.omega_ft for r in result.records if r.omega_ft is not None]
        assert all(v == extracted[0] for v in extracted)

    def test_invalid_config_rejected_with_all_violations(self):
        cfg = quick_noiseless()
        cfg = replace(cfg, model=ModelConfig(n=2, h=0.2, omega_min=0.5,
                                             omega_max=10.0))
        with pytest.raises(ConfigError):
            run_scenario(cfg)

    def test_a_config_without_a_signal_is_rejected(self):
        cfg = replace(quick_noiseless(), signal=None)
        with pytest.raises(ConfigError, match="run_scenario requires a signal section"):
            run_scenario(cfg)

    def test_under_excited_model_never_extracts(self):
        # a single true harmonic cannot excite a two-harmonic model: the
        # stacked regressor stays singular and extraction never fires
        cfg = quick_noiseless()
        cfg = replace(cfg, signal=SignalSpec(harmonics=(HarmonicSpec(1.0, 2.0, 0.0),)))
        result = run_scenario(cfg)
        assert not result.extracted
        assert all(r.omega_ft is None for r in result.records)
        assert all(r.theta_ft is None for r in result.records)

    def test_grad_error_envelope_nonincreasing(self):
        result = run_scenario(quick_noiseless())
        warm = 2 * 2 * 0.1 + 2 * 0.13
        # floor at 1e-8: below that the "error" is root-finder noise
        errors = [max(1e-8, abs(r.omega_grad[0] - 2.0), abs(r.omega_grad[1] - 3.0))
                  for r in result.records if r.time >= warm]
        window = 1000  # trailing 1 s
        peaks = [max(errors[i:i + window])
                 for i in range(0, len(errors) - window, window)]
        assert all(b <= a for a, b in zip(peaks, peaks[1:]))
        assert peaks[0] > peaks[-1]  # it actually decayed

    def test_reproducible_bitwise(self, tmp_path):
        cfg = builtin_scenario("uniform-noise")
        cfg = replace(cfg, run=replace(cfg.run, duration=12.0),
                      estimator=replace(cfg.estimator, t_ft=11.0))
        a = run_scenario(cfg, out_dir=str(tmp_path / "a"))
        b = run_scenario(cfg, out_dir=str(tmp_path / "b"))
        for name in ("trace.csv", "estimates.csv"):
            with open(tmp_path / "a" / name, "rb") as fa, \
                 open(tmp_path / "b" / name, "rb") as fb:
                assert fa.read() == fb.read(), name


class TestStepChange:
    def test_without_reset_ft_goes_stale(self):
        result = run_scenario(mini_step_change(reset=False))
        final = result.final
        # gradient re-converges to the post-switch pair
        assert final.omega_grad == pytest.approx((2.0, 3.0), abs=1e-3)
        # held finite-time output still reports the pre-switch pair
        assert final.omega_ft == pytest.approx((1.8, 3.2), abs=1e-3)

    def test_with_reset_ft_recovers(self):
        result = run_scenario(mini_step_change(reset=True))
        final = result.final
        assert final.omega_ft == pytest.approx((2.0, 3.0), abs=1e-4)
        # re-extraction fires t_ft seconds into the new epoch
        times = [r.time for r in result.records
                 if r.omega_ft is not None and r.time > 8.0]
        assert times[0] == pytest.approx(13.0, abs=1e-6)


class TestOutputs:
    def test_csv_layout_and_sentinels(self, tmp_path):
        result = run_scenario(quick_noiseless(), out_dir=str(tmp_path))
        with open(result.estimate_path) as fh:
            header = fh.readline().strip().split(",")
            first = fh.readline().strip().split(",")
        assert header == ["time", "y", "delta", "theta_hat_1", "theta_hat_2",
                          "theta_ft_1", "theta_ft_2", "omega_grad_1",
                          "omega_grad_2", "omega_ft_1", "omega_ft_2"]
        # before extraction the finite-time fields are empty
        assert first[5] == "" and first[6] == ""
        assert first[9] == "" and first[10] == ""
        assert float(first[0]) == 0.0

    def test_metadata_records_seed_convention_and_config(self, tmp_path):
        cfg = builtin_scenario("uniform-noise")
        cfg = replace(cfg, run=replace(cfg.run, duration=12.0),
                      estimator=replace(cfg.estimator, t_ft=11.0))
        result = run_scenario(cfg, out_dir=str(tmp_path))
        with open(result.metadata_path) as fh:
            text = fh.read()
        assert "rng.seed = " in text
        assert "splitmix64" in text
        assert "convention = psi" in text
        assert "pipeline.max_decay_step" in text
        # omega_ft's recovery diagnostics and extraction time, as the last
        # epoch's record holds them
        last = result.trajectory.epochs[-1]
        assert f"estimator.root_residual = {last.root_residual!r}\n" in text
        assert f"estimator.clamped = {last.clamped!r}\n" in text
        assert isinstance(last.root_residual, float) and isinstance(last.clamped, bool)
        assert f"estimator.extraction_time = {float(result.trajectory.times[last.fired])!r}\n" \
            in text
        # the config echo parses back to the original config
        echo = text.split("# config echo\n", 1)[1]
        assert parse_config(echo) == cfg

    def test_trace_file_matches_generate_trace(self, tmp_path):
        cfg = quick_noiseless(duration=6.0)
        result = run_scenario(cfg, out_dir=str(tmp_path))
        trace = generate_trace(cfg.signal, cfg.run.sample_period, 6.0)
        with open(result.trace_path) as fh:
            fh.readline()
            values = [float(line.split(",")[1]) for line in fh]
        assert values == list(trace.values)


    def test_trace_and_estimates_in_lockstep(self, tmp_path):
        # the two CSVs are written chunk by chunk from the same strings; a
        # trace named like the estimates is rejected before either is written
        cfg = quick_noiseless(duration=6.0)
        result = run_scenario(cfg, out_dir=str(tmp_path / "apart"))
        trace = (tmp_path / "apart" / "trace.csv").read_text().splitlines()
        estimates = (tmp_path / "apart" / "estimates.csv").read_text().splitlines()
        assert len(trace) == len(estimates) == len(result.trajectory) + 1
        assert [row.split(",")[:2] for row in estimates[1:]] == \
            [row.split(",") for row in trace[1:]]
        same = replace(cfg, output=replace(cfg.output, trace_path="run.csv",
                                           estimate_path="./run.csv"))
        with pytest.raises(ConfigError, match="output.trace_path = 'run.csv' names the same"):
            run_scenario(same, out_dir=str(tmp_path / "same"))
        assert not (tmp_path / "same").exists()

class TestEstimateFromFile:
    def test_round_trip_identical_records(self, tmp_path):
        cfg = quick_noiseless(duration=6.5)
        cfg = replace(cfg, estimator=replace(cfg.estimator, t_ft=5.0))
        sim = run_scenario(cfg, out_dir=str(tmp_path / "sim"))
        replay = estimate_from_file(sim.trace_path, cfg,
                                    out_dir=str(tmp_path / "replay"))
        assert replay.records == sim.records
        with open(sim.estimate_path, "rb") as fa, \
             open(replay.estimate_path, "rb") as fb:
            assert fa.read() == fb.read()

    def test_gap_in_grid_rejected_with_row(self, tmp_path):
        # (sample period, times, index of the bad time): a dropped sample,
        # early and late enough that a slack growing with the sample count
        # would swallow the gap; and a non-finite first time, which no grid
        # holds, rejected at its own row
        cases = []
        for period, rows, gap in ((0.001, 100, 50), (1e-5, 15100, 15000)):
            times = [k * period for k in range(rows)]
            del times[gap]
            cases.append((period, times, gap))
        for bad in (math.nan, math.inf):
            cases.append((0.001, [bad] + [k * 0.001 for k in range(1, 100)], 0))
        for period, times, index in cases:
            cfg = quick_noiseless()
            cfg = replace(cfg, run=replace(cfg.run, sample_period=period))
            path = tmp_path / "gap.csv"
            write_trace_csv(str(path), times, [0.0] * len(times))
            with pytest.raises(ConfigError) as info:
                estimate_from_file(str(path), cfg)
            assert any(f"row {index + 2}:" in v for v in info.value.violations), \
                (period, times[index])

    def test_header_required(self, tmp_path):
        # a wrong header, a header with no rows, and a row that does not parse
        cfg = quick_noiseless()
        path = tmp_path / "bad.csv"
        for text, message in (("t,value\n0.0,0.0\n", "expected header 'time,y'"),
                              ("time,y\n", "no samples"),
                              ("time,y\n0.0,0.0\n0.001\n", "row 3: malformed line '0.001'")):
            path.write_text(text)
            with pytest.raises(ConfigError) as info:
                estimate_from_file(str(path), cfg)
            assert any(message in v for v in info.value.violations), text

    def test_blank_lines_are_skipped(self, tmp_path):
        cfg = quick_noiseless(duration=1.0)
        path = tmp_path / "trace.csv"
        times = sample_times(0.001, 1.0)
        write_trace_csv(str(path), times, generate_trace(cfg.signal, 0.001, 1.0).values)
        plain = estimate_from_file(str(path), cfg).records
        lines = path.read_text().splitlines(keepends=True)
        path.write_text("".join([*lines[:3], "\n", "  \n", *lines[3:], "\n"]))
        assert estimate_from_file(str(path), cfg).records == plain

    def test_external_two_tone_recovered(self, tmp_path):
        # externally synthesized file, slightly different tones
        spec = SignalSpec(harmonics=(HarmonicSpec(1.0, 2.4, 0.3),
                                     HarmonicSpec(0.8, 3.6, 1.2)))
        trace = generate_trace(spec, 0.001, 8.0)
        path = tmp_path / "ext.csv"
        write_trace_csv(str(path), [k * 0.001 for k in range(len(trace.values))],
                        trace.values)
        cfg = quick_noiseless()
        result = estimate_from_file(str(path), cfg)
        assert result.extracted
        assert result.final.omega_ft == pytest.approx((2.4, 3.6), abs=1e-2)

    def test_non_finite_sample_faults_with_index(self, tmp_path):
        from ftfreq.errors import NumericFault
        cfg = quick_noiseless()
        path = tmp_path / "nan.csv"
        times = [k * 0.001 for k in range(100)]
        values = [0.5] * 100
        values[42] = float("nan")
        write_trace_csv(str(path), times, values)
        with pytest.raises(NumericFault) as info:
            estimate_from_file(str(path), cfg)
        assert "sample 42" in str(info.value)


class TestBuiltinScenarioFiles:
    def test_root_files_are_the_builtins(self):
        paths = sorted((ROOT / "scenarios").glob("*.cfg"))
        assert tuple(path.stem for path in paths) == BUILTIN_NAMES
        for path in paths:
            assert load_config(path) == builtin_scenario(path.stem), path.stem

    def test_files_are_in_canonical_form(self):
        # comments aside, each file is format_config of itself, so a
        # built-in's metadata echo is its own file and no stale key survives
        for path in sorted((ROOT / "src" / "ftfreq" / "scenarios").glob("*.cfg")):
            lines = [line for line in path.read_text(encoding="utf-8").splitlines()
                     if line.strip() and not line.lstrip().startswith("#")]
            assert lines == format_config(load_config(path)).splitlines(), path.stem

    @pytest.mark.skipif(sys.version_info < (3, 11), reason="tomllib is new in 3.11")
    def test_package_data_ships_every_builtin(self):
        import tomllib
        with open(ROOT / "pyproject.toml", "rb") as fh:
            package_data = tomllib.load(fh)["tool"]["setuptools"]["package-data"]
        package = ROOT / "src" / "ftfreq"
        shipped = {path for pattern in package_data["ftfreq"] for path in package.glob(pattern)}
        assert {package / "scenarios" / f"{name}.cfg" for name in BUILTIN_NAMES} <= shipped

    def test_harmonic_noise_scenario_runs_and_extracts(self):
        cfg = builtin_scenario("harmonic-noise")
        cfg = replace(cfg, run=replace(cfg.run, duration=15.0))
        result = run_scenario(cfg)
        assert result.extracted
        assert result.final.omega_ft == pytest.approx((2.0, 3.0), abs=0.1)
