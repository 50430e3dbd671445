"""CLI behavior: subcommands, outputs, exit codes."""

import os
import subprocess
import sys
from dataclasses import replace

import pytest

import ftfreq

from ftfreq.cli import (EXIT_CONFIG, EXIT_NOT_EXCITED, EXIT_NUMERIC, EXIT_OK,
                        main)
from ftfreq.config import format_config
from ftfreq.scenarios import builtin_scenario
from ftfreq.signals import HarmonicSpec, SignalSpec


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

    def test_insufficient_excitation_exits_4(self, tmp_path, capsys):
        cfg_path = tmp_path / "scenario.cfg"
        single = SignalSpec(harmonics=(HarmonicSpec(1.0, 2.0, 0.0),))
        write_quick_config(cfg_path, signal=single)
        code = main(["simulate", "--config", str(cfg_path),
                     "--out", str(tmp_path / "out")])
        assert code == EXIT_NOT_EXCITED
        assert "not extracted" in capsys.readouterr().out

    def test_unparseable_file_exits_2(self, tmp_path):
        cfg_path = tmp_path / "scenario.cfg"
        cfg_path.write_text("model.n two\n")
        assert main(["simulate", "--config", str(cfg_path)]) == EXIT_CONFIG

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


class TestEstimate:
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
        # finite, but phi = 2 y(t - h) + ... overflows: a fault of the data
        cfg_path = tmp_path / "scenario.cfg"
        write_quick_config(cfg_path)
        trace = tmp_path / "huge.csv"
        rows = ["time,y"] + [
            f"{k * 0.001!r},{'1e308' if k == 10 else '0.5'}" for k in range(300)]
        trace.write_text("\n".join(rows) + "\n")
        code = main(["estimate", "--config", str(cfg_path),
                     "--input", str(trace), "--out", str(tmp_path / "out")])
        assert code == EXIT_NUMERIC
        err = capsys.readouterr().err
        assert "numeric fault: sample 240" in err and "non-finite stacked regressor" in err

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
