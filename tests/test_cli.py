"""CLI behavior: subcommands, outputs, exit codes."""

import codecs
import hashlib
import os
import subprocess
import sys
from dataclasses import replace

import pytest

import ftfreq
from conftest import write_trace_csv
from ftfreq.cli import (EXIT_CONFIG, EXIT_NOT_EXCITED, EXIT_NUMERIC, EXIT_OK,
                        main)
from ftfreq.config import (BUILTIN_NAMES, OutputConfig, builtin_scenario,
                           format_config)
from ftfreq.signals import (HarmonicSpec, SignalSpec, generate_trace,
                            sample_times)


def write_quick_config(path, duration=8.0, **signal_override):
    cfg = builtin_scenario("noiseless-2h")
    cfg = replace(cfg, run=replace(cfg.run, duration=duration), **signal_override)
    path.write_text(format_config(cfg))
    return cfg


class TestSimulate:
    def test_success_writes_outputs(self, tmp_path, capsys):
        cfg_path = tmp_path / "scenario.cfg"
        write_quick_config(cfg_path)
        code = main(["simulate", "--config", str(cfg_path),
                     "--out", str(tmp_path / "out")])
        assert code == EXIT_OK
        out = capsys.readouterr().out
        assert "omega_ft:" in out
        assert (tmp_path / "out" / "trace.csv").exists()
        assert (tmp_path / "out" / "estimates.csv").exists()
        assert (tmp_path / "out" / "metadata.txt").exists()

    def test_invalid_config_exits_2(self, tmp_path, capsys):
        cfg_path = tmp_path / "scenario.cfg"
        cfg = write_quick_config(cfg_path)
        # h = 0.2 against omega_max = 10 violates the quarter-period bound
        broken = format_config(cfg).replace("model.h = 0.1", "model.h = 0.2")
        broken = broken.replace("model.omega_max = 5.5", "model.omega_max = 10.0")
        cfg_path.write_text(broken)
        code = main(["simulate", "--config", str(cfg_path),
                     "--out", str(tmp_path / "out")])
        assert code == EXIT_CONFIG
        assert "config error" in capsys.readouterr().err

    def test_noise_slot_beyond_int64_exits_2(self, tmp_path, capsys):
        # a valid noise period so small that t / sample_period leaves the
        # int64 range from the second sample on
        cfg_path = tmp_path / "scenario.cfg"
        text = format_config(builtin_scenario("uniform-noise"))
        cfg_path.write_text(text.replace("signal.disturbance.sample_period = 0.001",
                                         "signal.disturbance.sample_period = 1e-300"))
        code = main(["simulate", "--config", str(cfg_path),
                     "--out", str(tmp_path / "out")])
        assert code == EXIT_CONFIG
        assert ("noise sample_period 1e-300 puts the noise slot of t = 0.001 outside "
                "the int64 range") in capsys.readouterr().err

    def test_insufficient_excitation_exits_4(self, tmp_path, capsys):
        cfg_path = tmp_path / "scenario.cfg"
        single = SignalSpec(harmonics=(HarmonicSpec(1.0, 2.0, 0.0),))
        write_quick_config(cfg_path, signal=single)
        code = main(["simulate", "--config", str(cfg_path),
                     "--out", str(tmp_path / "out")])
        assert code == EXIT_NOT_EXCITED
        assert "omega_ft: not extracted (insufficient excitation)" in capsys.readouterr().out

    def test_short_last_epoch_names_its_cause(self, tmp_path, capsys):
        # the first epoch extracts at 5 s; the reset at 6 s leaves 2 s, too
        # short to reach t_ft = 5 s, though the excitation is ample
        cfg_path = tmp_path / "scenario.cfg"
        cfg = builtin_scenario("noiseless-2h")
        cfg_path.write_text(format_config(
            replace(cfg, run=replace(cfg.run, duration=8.0, reset_times=(6.0,)))))
        code = main(["simulate", "--config", str(cfg_path),
                     "--out", str(tmp_path / "out")])
        assert code == EXIT_NOT_EXCITED
        out = capsys.readouterr().out
        assert "omega_ft: not extracted (last epoch, from t = 6, is shorter than t_ft = 5)" in out
        meta = (tmp_path / "out" / "metadata.txt").read_text()
        assert "warning.1 = run.reset_times entry 6.0 leaves a last epoch of 2 s" in meta

    def test_unparseable_file_exits_2(self, tmp_path):
        cfg_path = tmp_path / "scenario.cfg"
        cfg_path.write_text("model.n two\n")
        assert main(["simulate", "--config", str(cfg_path)]) == EXIT_CONFIG

    def test_config_not_utf8_exits_2(self, tmp_path, capsys):
        cfg_path = tmp_path / "scenario.cfg"
        cfg_path.write_bytes(b"\xff\xfe" + format_config(builtin_scenario("noiseless-2h")).encode())
        code = main(["simulate", "--config", str(cfg_path), "--out", str(tmp_path / "out")])
        assert code == EXIT_CONFIG
        assert capsys.readouterr().err == (
            f"config error: {cfg_path}: cannot read config file: not UTF-8 (invalid start byte)\n")
        assert not (tmp_path / "out").exists()

    def test_config_with_byte_order_mark_exits_0(self, tmp_path):
        # a UTF-8 byte-order mark is no part of the text: the run is the
        # one without it
        plain, marked = tmp_path / "plain.cfg", tmp_path / "marked.cfg"
        write_quick_config(plain)
        marked.write_bytes(codecs.BOM_UTF8 + plain.read_bytes())
        for cfg_path in (plain, marked):
            assert main(["simulate", "--config", str(cfg_path),
                         "--out", str(tmp_path / cfg_path.stem)]) == EXIT_OK
        assert (tmp_path / "marked" / "estimates.csv").read_bytes() == \
            (tmp_path / "plain" / "estimates.csv").read_bytes()

    def test_missing_config_exits_2(self, tmp_path, capsys):
        missing = tmp_path / "missing.cfg"
        code = main(["simulate", "--config", str(missing), "--out", str(tmp_path / "out")])
        assert code == EXIT_CONFIG
        assert f"config error: {missing}: cannot read" in capsys.readouterr().err

    def test_unusable_out_dir_exits_2(self, tmp_path, capsys):
        cfg_path = tmp_path / "scenario.cfg"
        write_quick_config(cfg_path, duration=6.0)
        blocker = tmp_path / "a-file"
        blocker.write_text("")
        out = blocker / "sub"
        code = main(["simulate", "--config", str(cfg_path), "--out", str(out)])
        assert code == EXIT_CONFIG
        assert f"config error: {out}: cannot write output" in capsys.readouterr().err

    def test_overflowing_excitation_exits_3(self, tmp_path, capsys):
        # delta^2 * dt overflows at the first warm sample and theta_hat
        # turns NaN: a numeric fault naming that sample, not a traceback
        cfg_path = tmp_path / "scenario.cfg"
        cfg = builtin_scenario("noiseless-2h")
        tones = tuple(replace(tone, amplitude=1e100) for tone in cfg.signal.harmonics)
        write_quick_config(cfg_path, duration=6.0,
                           signal=replace(cfg.signal, harmonics=tones))
        code = main(["simulate", "--config", str(cfg_path),
                     "--out", str(tmp_path / "out")])
        assert code == EXIT_NUMERIC
        assert "numeric fault: sample 660 " in capsys.readouterr().err


    @pytest.mark.parametrize("output, clash", [
        ({"metadata_path": "estimates.csv"}, "output.metadata_path = 'estimates.csv'"),
        ({"trace_path": "./estimates.csv"}, "output.trace_path = './estimates.csv'"),
        ({"trace_path": "a/../metadata.txt"}, "output.trace_path = 'a/../metadata.txt'"),
    ], ids=["metadata-estimates", "trace-estimates", "trace-metadata"])
    def test_colliding_output_names_exit_2(self, tmp_path, capsys, output, clash):
        # one file would overwrite another: rejected before anything is written
        cfg_path = tmp_path / "scenario.cfg"
        write_quick_config(cfg_path, duration=6.0, output=OutputConfig(**output))
        code = main(["simulate", "--config", str(cfg_path), "--out", str(tmp_path / "out")])
        assert code == EXIT_CONFIG
        assert f"config error: {clash} names the same file as" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()


class TestEstimate:
    def test_colliding_output_names(self, tmp_path, capsys):
        # estimate writes no trace, so only metadata_path may not name the
        # estimates file
        cfg_path = tmp_path / "scenario.cfg"
        write_quick_config(cfg_path, duration=6.0)
        assert main(["simulate", "--config", str(cfg_path),
                     "--out", str(tmp_path / "sim")]) == EXIT_OK
        trace = str(tmp_path / "sim" / "trace.csv")
        write_quick_config(cfg_path, duration=6.0,
                           output=OutputConfig(metadata_path="./estimates.csv"))
        code = main(["estimate", "--config", str(cfg_path), "--input", trace,
                     "--out", str(tmp_path / "clash")])
        assert code == EXIT_CONFIG
        assert "output.metadata_path = './estimates.csv' names the same file as " \
            "output.estimate_path = 'estimates.csv'" in capsys.readouterr().err
        assert not (tmp_path / "clash").exists()
        write_quick_config(cfg_path, duration=6.0,
                           output=OutputConfig(trace_path="estimates.csv"))
        assert main(["estimate", "--config", str(cfg_path), "--input", trace,
                     "--out", str(tmp_path / "replay")]) == EXIT_OK
        assert (tmp_path / "replay" / "estimates.csv").read_bytes() == \
            (tmp_path / "sim" / "estimates.csv").read_bytes()

    @pytest.mark.parametrize("name, key", [("estimates.csv", "estimate_path"),
                                           ("metadata.txt", "metadata_path")])
    def test_an_output_that_is_the_input_exits_2(self, tmp_path, capsys, name, key):
        # estimates.csv starts "time,y", so it reads as a trace: estimate
        # on it into its own directory would overwrite its input. Rejected
        # before anything is written, as the same file under another spelling
        cfg_path = tmp_path / "scenario.cfg"
        write_quick_config(cfg_path, duration=6.0)
        out = tmp_path / "sim"
        assert main(["simulate", "--config", str(cfg_path), "--out", str(out)]) == EXIT_OK
        before = {path.name: path.read_bytes() for path in out.iterdir()}
        for target in (out / name, tmp_path / "sim" / ".." / "sim" / name):
            capsys.readouterr()
            code = main(["estimate", "--config", str(cfg_path), "--input", str(target),
                         "--out", str(out)])
            assert code == EXIT_CONFIG
            assert capsys.readouterr().err == (
                f"config error: {os.path.join(str(out), name)}: output.{key} = {name!r} "
                f"names the input file {target}, which the run would overwrite\n")
            assert {path.name: path.read_bytes() for path in out.iterdir()} == before

    def test_estimate_replays_simulated_trace(self, tmp_path, capsys):
        cfg_path = tmp_path / "scenario.cfg"
        write_quick_config(cfg_path)
        assert main(["simulate", "--config", str(cfg_path),
                     "--out", str(tmp_path / "sim")]) == EXIT_OK
        code = main(["estimate", "--config", str(cfg_path),
                     "--input", str(tmp_path / "sim" / "trace.csv"),
                     "--out", str(tmp_path / "replay")])
        assert code == EXIT_OK
        sim = (tmp_path / "sim" / "estimates.csv").read_bytes()
        replay = (tmp_path / "replay" / "estimates.csv").read_bytes()
        assert sim == replay

    def test_gap_rejected_exits_2(self, tmp_path, capsys):
        cfg_path = tmp_path / "scenario.cfg"
        write_quick_config(cfg_path)
        trace = tmp_path / "gap.csv"
        rows = ["time,y"] + [f"{k * 0.001!r},0.0" for k in range(100) if k != 50]
        trace.write_text("\n".join(rows) + "\n")
        code = main(["estimate", "--config", str(cfg_path),
                     "--input", str(trace), "--out", str(tmp_path / "out")])
        assert code == EXIT_CONFIG
        assert "row" in capsys.readouterr().err

    def test_numeric_fault_exits_3(self, tmp_path, capsys):
        cfg_path = tmp_path / "scenario.cfg"
        write_quick_config(cfg_path)
        trace = tmp_path / "nan.csv"
        rows = ["time,y"] + [
            f"{k * 0.001!r},{'nan' if k == 42 else '0.5'}" for k in range(100)]
        trace.write_text("\n".join(rows) + "\n")
        code = main(["estimate", "--config", str(cfg_path),
                     "--input", str(trace), "--out", str(tmp_path / "out")])
        assert code == EXIT_NUMERIC
        assert "numeric fault" in capsys.readouterr().err

    def test_overflowing_sample_exits_3(self, tmp_path, capsys):
        # finite, but phi = 2 y(t - h) + ... overflows: a fault of the data,
        # raised once the first stacked row (h + d = 230 samples later) holds
        # it. One h earlier the stack's psi row holds the spike; on a 0.25
        # trace every adjugate entry is 1, so the mixed sum stays finite and
        # eps^2 = 1e-200 keeps it so
        cfg_path = tmp_path / "scenario.cfg"
        cfg = builtin_scenario("noiseless-2h")
        write_quick_config(cfg_path, drem=replace(cfg.drem, epsilon=1e-100))
        trace = tmp_path / "huge.csv"
        rows = ["time,y"] + [
            f"{k * 0.001!r},{'1e308' if k == 3000 else '0.25'}" for k in range(3300)]
        trace.write_text("\n".join(rows) + "\n")
        code = main(["estimate", "--config", str(cfg_path),
                     "--input", str(trace), "--out", str(tmp_path / "out")])
        assert code == EXIT_NUMERIC
        err = capsys.readouterr().err
        assert "numeric fault: sample 3230" in err and "non-finite stacked regressor" in err

    @pytest.mark.parametrize("at", [2, 9000], ids=["in-the-header", "past-8-KiB"])
    def test_trace_not_utf8_exits_2(self, tmp_path, capsys, at):
        # the text layer decodes 8 KiB at a time: a bad byte in the header
        # raises as the header is read, one past the first chunk in the row loop
        cfg_path = tmp_path / "scenario.cfg"
        write_quick_config(cfg_path)
        trace = tmp_path / "latin1.csv"
        text = "time,y\n" + "".join(f"{k * 0.001!r},0.5\n" for k in range(2000))
        trace.write_bytes(text[:at].encode() + b"\xff" + text[at:].encode())
        code = main(["estimate", "--config", str(cfg_path),
                     "--input", str(trace), "--out", str(tmp_path / "out")])
        assert code == EXIT_CONFIG
        assert capsys.readouterr().err == (
            f"config error: {trace}: cannot read trace file: not UTF-8 (invalid start byte)\n")
        assert not (tmp_path / "out").exists()

    def test_trace_with_byte_order_mark_exits_0(self, tmp_path):
        # a UTF-8 byte-order mark before the header is no part of it: the
        # estimates are those of the trace without it
        cfg_path = tmp_path / "scenario.cfg"
        write_quick_config(cfg_path)
        assert main(["simulate", "--config", str(cfg_path),
                     "--out", str(tmp_path / "sim")]) == EXIT_OK
        plain, marked = tmp_path / "sim" / "trace.csv", tmp_path / "marked.csv"
        marked.write_bytes(codecs.BOM_UTF8 + plain.read_bytes())
        for trace, out in ((plain, "plain"), (marked, "marked")):
            assert main(["estimate", "--config", str(cfg_path), "--input", str(trace),
                         "--out", str(tmp_path / out)]) == EXIT_OK
        assert (tmp_path / "marked" / "estimates.csv").read_bytes() == \
            (tmp_path / "plain" / "estimates.csv").read_bytes()

    def test_missing_input_exits_2(self, tmp_path, capsys):
        cfg_path = tmp_path / "scenario.cfg"
        write_quick_config(cfg_path)
        missing = tmp_path / "missing.csv"
        code = main(["estimate", "--config", str(cfg_path), "--input", str(missing),
                     "--out", str(tmp_path / "out")])
        assert code == EXIT_CONFIG
        assert f"config error: {missing}: cannot read" in capsys.readouterr().err


class TestScenarioCommand:
    def test_unknown_name_rejected_by_parser(self):
        with pytest.raises(SystemExit):
            main(["scenario", "chirp"])

    def test_builtin_runs_end_to_end(self, tmp_path, capsys):
        code = main(["scenario", "noiseless-2h", "--out", str(tmp_path / "out")])
        assert code == EXIT_OK
        out = capsys.readouterr().out
        assert "omega_ft: 2.000000 3.000000" in out
        assert (tmp_path / "out" / "metadata.txt").exists()

    def test_seed_note_for_unseeded_scenario(self, tmp_path, capsys):
        cfg_path = tmp_path / "scenario.cfg"
        write_quick_config(cfg_path)
        code = main(["simulate", "--config", str(cfg_path),
                     "--seed", "7", "--out", str(tmp_path / "out")])
        assert code == EXIT_OK
        assert "--seed ignored" in capsys.readouterr().err

    def test_seed_recorded_for_uniform_noise(self, tmp_path):
        cfg = builtin_scenario("uniform-noise")
        cfg = replace(cfg, run=replace(cfg.run, duration=12.0),
                      estimator=replace(cfg.estimator, t_ft=11.0))
        cfg_path = tmp_path / "noise.cfg"
        cfg_path.write_text(format_config(cfg))
        code = main(["simulate", "--config", str(cfg_path),
                     "--seed", "424242", "--out", str(tmp_path / "out")])
        assert code == EXIT_OK
        meta = (tmp_path / "out" / "metadata.txt").read_text()
        assert "rng.seed = 424242" in meta


def warnings_in(meta):
    return [line.partition(" = ")[2] for line in meta.splitlines()
            if line.startswith("warning.")]


class TestEpochCauses:
    """Exit 4's cause and the metadata warnings are read from the epochs the
    run itself ran, so a trace longer or shorter than run.duration is judged
    on its own times. noiseless-2h has no warnings of its own."""

    def write_config(self, tmp_path, **run_fields):
        cfg = builtin_scenario("noiseless-2h")
        cfg_path = tmp_path / "scenario.cfg"
        cfg_path.write_text(format_config(replace(cfg, run=replace(cfg.run, **run_fields))))
        return cfg_path

    def estimate(self, tmp_path, trace_seconds, **run_fields):
        """estimate of a noiseless-2h trace of trace_seconds under the
        scenario with run_fields replaced; (exit code, stdout, metadata)."""
        cfg = builtin_scenario("noiseless-2h")
        period = cfg.run.sample_period
        trace = tmp_path / "trace.csv"
        write_trace_csv(str(trace), sample_times(period, trace_seconds),
                        generate_trace(cfg.signal, period, trace_seconds).values)
        code = main(["estimate", "--config", str(self.write_config(tmp_path, **run_fields)),
                     "--input", str(trace), "--out", str(tmp_path / "out")])
        return code, (tmp_path / "out" / "metadata.txt").read_text()

    def simulate(self, tmp_path, **run_fields):
        code = main(["simulate", "--config", str(self.write_config(tmp_path, **run_fields)),
                     "--out", str(tmp_path / "out")])
        return code, (tmp_path / "out" / "metadata.txt").read_text()

    def test_trace_shorter_than_duration(self, tmp_path, capsys):
        # run.duration = 60 would leave the last epoch 22 s, but the 40 s
        # trace leaves it 2 s: that, not the ample excitation, is the cause
        code, meta = self.estimate(tmp_path, 40.0, duration=60.0, reset_times=(38.0,))
        assert code == EXIT_NOT_EXCITED
        out = capsys.readouterr().out
        assert "omega_ft: not extracted (last epoch, from t = 38, is shorter than t_ft = 5)" in out
        assert warnings_in(meta) == [
            "run.reset_times entry 38.0 leaves a last epoch of 2 s, shorter than "
            "estimator.t_ft = 5.0: it cannot extract, so the run ends without omega_ft"]

    def test_trace_shorter_than_t_ft(self, tmp_path, capsys):
        # without resets the one epoch is the whole 3 s trace
        code, meta = self.estimate(tmp_path, 3.0)
        assert code == EXIT_NOT_EXCITED
        out = capsys.readouterr().out
        assert "omega_ft: not extracted (last epoch, from t = 0, is shorter than t_ft = 5)" in out
        assert warnings_in(meta) == [
            "the trace spans only 3 s, shorter than estimator.t_ft = 5.0: it cannot extract, "
            "so the run ends without omega_ft"]

    def test_trace_longer_than_duration(self, tmp_path, capsys):
        # run.duration = 40 would leave the last epoch 2 s, but the 60 s
        # trace leaves it 22 s, and it extracts 5 s after the reset
        code, meta = self.estimate(tmp_path, 60.0, reset_times=(38.0,))
        assert code == EXIT_OK
        assert "omega_ft: 2.000000 3.000000" in capsys.readouterr().out
        assert "estimator.extraction_time = 43.0" in meta
        assert warnings_in(meta) == []

    def test_reset_after_the_last_sample(self, tmp_path, capsys):
        # the grid ends at 10.0, before the reset at 10.0003: the one epoch
        # runs the whole trace and extracts
        code, meta = self.simulate(tmp_path, duration=10.0005, reset_times=(10.0003,))
        assert code == EXIT_OK
        assert "omega_ft: 2.000000 3.000000" in capsys.readouterr().out
        assert warnings_in(meta) == [
            "run.reset_times entry 10.0003 is after the last sample, at t = 10: "
            "it is not applied"]

    def test_reset_beyond_the_trace(self, tmp_path):
        code, meta = self.estimate(tmp_path, 40.0, duration=60.0, reset_times=(50.0,))
        assert code == EXIT_OK
        assert warnings_in(meta) == [
            "run.reset_times entry 50.0 is after the last sample, at t = 40: it is not applied"]

    @pytest.mark.parametrize("run_fields, extraction, message", [
        ({"reset_times": (50.0,)}, "55.0",
         "run.reset_times entry 50.0 not before duration 40.0"),
        ({"duration": 4.0}, "5.0", "run.duration = 4.0 must exceed estimator.t_ft = 5.0"),
    ], ids=["reset-after-duration", "duration-below-t_ft"])
    def test_duration_rules_bind_simulate_only(self, tmp_path, capsys, run_fields,
                                               extraction, message):
        # run.duration defines a simulated trace but not a recorded one: its
        # two rules make the config invalid for simulate, while estimate of a
        # 60 s trace under it extracts
        code, meta = self.estimate(tmp_path, 60.0, **run_fields)
        assert code == EXIT_OK
        assert "omega_ft: 2.000000 3.000000" in capsys.readouterr().out
        assert f"estimator.extraction_time = {extraction}" in meta
        assert warnings_in(meta) == []
        code = main(["simulate", "--config", str(self.write_config(tmp_path, **run_fields)),
                     "--out", str(tmp_path / "simulated")])
        assert code == EXIT_CONFIG
        assert capsys.readouterr().err == f"config error: {message}\n"

    def test_an_earlier_extraction_is_recorded_when_the_last_epoch_fails(self, tmp_path, capsys):
        # the first epoch extracts at t = 5 and its rows carry omega_ft; the
        # reset at 38 s leaves a last epoch of 2 s, so the run exits 4 and
        # the estimator.* keys, the last epoch's, say none
        code, meta = self.simulate(tmp_path, reset_times=(38.0,))
        assert code == EXIT_NOT_EXCITED
        assert "omega_ft: not extracted (last epoch, from t = 38" in capsys.readouterr().out
        assert "estimator.extraction_time = none" in meta
        epochs = [line for line in meta.splitlines() if line.startswith("epoch.")]
        assert epochs == ["epoch.1.start = 0.0", "epoch.1.extraction_time = 5.0",
                          "epoch.2.start = 38.0", "epoch.2.extraction_time = none"]
        rows = (tmp_path / "out" / "estimates.csv").read_text().splitlines()
        header = rows[0].split(",")
        at_five = dict(zip(header, rows[1 + 5000].split(",")))
        assert float(at_five["time"]) == 5.0
        assert abs(float(at_five["omega_ft_1"]) - 2.0) < 1e-6

    def test_epoch_between_resets(self, tmp_path, capsys):
        # the epoch from 10 to 12 s ends before t_ft; the last one extracts
        code, meta = self.simulate(tmp_path, reset_times=(10.0, 12.0))
        assert code == EXIT_OK
        assert "omega_ft: 2.000000 3.000000" in capsys.readouterr().out
        assert "estimator.extraction_time = 17.0" in meta
        assert "epoch.2.extraction_time = none" in meta
        assert warnings_in(meta) == [
            "the epoch from t = 10 to 12 is shorter than estimator.t_ft = 5.0: it cannot extract"]


# sha256 of each built-in's trace.csv and estimates.csv (Python 3.11, numpy
# 2.4, x86-64). A change that alters these numbers says so and why, and
# records the new digests; metadata.txt has its own digests below
BUILTIN_DIGESTS = {
    "harmonic-noise": (
        "d7dcd8a8b516a938544f557e5a788e135449870d40f3512614d7c2b1039373c0",
        "9cc39adab022b1e99f949e9d983f4ca916c4efdde535060706328d73f0fbb7c7"),
    "noiseless-2h": (
        "8d32f9b6095eb633234f9c6fa28f6236a7039e28961cc043159de126f838cab8",
        "b9850fd5cc6d39c0fefddeee18b7dcd9517e28060ffe44d8d9569729a1725214"),
    "step-change": (
        "71b027b3649299ca7ecfd2850e5315bcba97fce3645d7fe67724ade3f88bfc0b",
        "4574e5f06cc325d5b64f395186784fc939dc3c9ae9afc3656978b64173e0e30a"),
    "uniform-noise": (
        "ecbe4a0545fa0dbdc249f2213a3029c341b157839fdf61e90e1f240464b4542e",
        "46ddb4bea748ca9584e3263246c877581dbf4d898b0f2c3b8e26cb78df0f406c"),
}


@pytest.mark.parametrize("name", BUILTIN_NAMES)
def test_builtin_outputs_are_byte_identical(tmp_path, capsys, name):
    assert main(["scenario", name, "--out", str(tmp_path)]) == EXIT_OK
    digests = tuple(hashlib.sha256((tmp_path / file).read_bytes()).hexdigest()
                    for file in ("trace.csv", "estimates.csv"))
    assert digests == BUILTIN_DIGESTS[name]


# sha256 of each built-in's metadata.txt without its versions line, which
# names the interpreter's and numpy's versions
METADATA_DIGESTS = {
    "harmonic-noise": "9641d7a58274efc9282d9a446ce0492fe792517e446ae7242d0868262a2f4253",
    "noiseless-2h": "e7f2b2f50c45b3cabc4e11dc1fe1f2f93ee276578733ada2386ee802090d93d5",
    "step-change": "6ac99e86f6cc2856e9955ec03f1b7680462b64dc243917415135e4c607d75477",
    "uniform-noise": "ddca550053373eefa25e4c106e0ebbe1ed055e0b0748cd0a0c03a08c082571d3",
}


@pytest.mark.parametrize("name", BUILTIN_NAMES)
def test_builtin_metadata_is_byte_identical(tmp_path, capsys, name):
    assert main(["scenario", name, "--out", str(tmp_path)]) == EXIT_OK
    lines = (tmp_path / "metadata.txt").read_bytes().splitlines(keepends=True)
    assert sum(line.startswith(b"versions = ") for line in lines) == 1
    kept = b"".join(line for line in lines if not line.startswith(b"versions = "))
    assert hashlib.sha256(kept).hexdigest() == METADATA_DIGESTS[name]


def test_python_m_ftfreq_runs_the_cli(tmp_path):
    src = os.path.dirname(os.path.dirname(ftfreq.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, (src, os.environ.get("PYTHONPATH")))))
    cfg_path = tmp_path / "scenario.cfg"
    write_quick_config(cfg_path, duration=6.0)

    def run(*args):
        return subprocess.run([sys.executable, "-m", "ftfreq", *args], env=env,
                              capture_output=True, text=True, timeout=120)

    done = run("simulate", "--config", str(cfg_path), "--out", str(tmp_path / "out"))
    assert done.returncode == EXIT_OK, done.stderr
    assert "omega_ft: 2.000000 3.000000" in done.stdout
    done = run("simulate", "--config", str(tmp_path / "missing.cfg"))
    assert done.returncode == EXIT_CONFIG
