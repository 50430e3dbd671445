"""The benchmark's three workloads: builtins, stream and n-sweep.

Each workload is built once (its set-up) and then runs whole passes; a pass
is a fixed list of ops. Ops run one at a time in this process (closed loop,
one client), each starting only after the previous one returned. Only the
library call is timed; output checks run after the clock stops. Every op runs
inside exactly one ``scope.op(label, n)`` block, which the runner uses for
tracing or for timing its reference loop between ops.
"""

from __future__ import annotations

import contextlib
import io
import math
import random
import re
import time
from array import array
from dataclasses import dataclass
from pathlib import Path

from ftfreq import cli, harness
from ftfreq.config import (EstimatorSettings, RunConfig, ScenarioConfig,
                           load_config)
from ftfreq.errors import NumericFault
from ftfreq.mixing import DremConfig
from ftfreq.regression import ModelConfig
from ftfreq.signals import HarmonicSpec, SignalSpec, generate_trace

# One tuning rule for the synthetic signals of stream and n-sweep: n clean
# tones at the midpoints of n equal slices of BAND, extraction one second
# after the warm-up 2nh + nd, quarter-period h.
BAND = (1.0, 4.0)
H = 0.3
EPSILON = 10.0
GAMMA = 1.0
GRID_TOL = 1e-9  # the library's own sample-grid slack


@dataclass
class Op:
    label: str
    n: int
    samples: int
    seconds: float
    ok: bool
    broken: bool = False  # the output breaks the run's own contract
    note: str = ""


def _tones(n, seed):
    """Fixed frequencies; amplitudes and phases drawn from the seed."""
    rng = random.Random(seed)
    lo, hi = BAND
    freqs = [lo + (i + 0.5) * (hi - lo) / n for i in range(n)]
    harmonics = tuple(HarmonicSpec(rng.uniform(0.5, 1.5), w, rng.uniform(0.0, 2 * math.pi))
                      for w in freqs)
    return freqs, harmonics


def synthetic_config(n, seed, d, sample_period, tail):
    """Clean n-tone scenario under the shared tuning rule; duration t_ft + tail."""
    lo, hi = BAND
    freqs, harmonics = _tones(n, seed)
    t_ft = round(2 * n * H + n * d + 1.0, 9)
    cfg = ScenarioConfig(
        name=f"n{n}",
        signal=SignalSpec(harmonics),
        model=ModelConfig(n=n, h=H, omega_min=lo, omega_max=hi),
        drem=DremConfig(d=d, epsilon=EPSILON),
        estimator=EstimatorSettings(
            gamma=(GAMMA,) * n, t_ft=t_ft,
            omega0=tuple(lo + (i + 0.25) * (hi - lo) / n for i in range(n))),
        run=RunConfig(sample_period=sample_period, duration=round(t_ft + tail, 9)),
    )
    return cfg, freqs


def grid_samples(cfg):
    return math.floor(cfg.run.duration / cfg.run.sample_period + GRID_TOL) + 1


def _max_error(estimate, truth):
    if estimate is None or len(estimate) != len(truth):
        return math.inf
    return max(abs(a - b) for a, b in zip(estimate, truth))


# ---------------------------------------------------------------------------

class Builtins:
    """The four checked-in scenarios through the CLI, then a trace replay.

    One op is one CLI call: ``simulate`` for each scenarios/*.cfg (the seed
    replaces the uniform-noise seed), then ``estimate`` on the uniform-noise
    trace.csv. Tolerances are the repo's acceptance criteria 4, 6 and 7.
    """

    name = "builtins"
    REPLAYED = "uniform-noise"
    # scenario -> (omega_ft tolerance vs the initial tones, final omega_grad
    # tolerance vs the last scheduled tones or None)
    TOLERANCES = {
        "noiseless-2h": (1e-2, None),
        "harmonic-noise": (0.2, None),
        "uniform-noise": (0.2, None),
        "step-change": (1e-2, 5e-2),
    }

    def __init__(self, root, seed, work):
        self.seed = seed
        self.work = Path(work)
        self.scenarios = []
        for path in sorted(Path(root, "scenarios").glob("*.cfg")):
            cfg = load_config(path)
            last = cfg.signal.schedule[-1].harmonics if cfg.signal.schedule else cfg.signal.harmonics
            self.scenarios.append((path.stem, str(path), cfg, grid_samples(cfg),
                                   [h.frequency for h in cfg.signal.harmonics],
                                   [h.frequency for h in last]))
        names = [s[0] for s in self.scenarios]
        if sorted(names) != sorted(self.TOLERANCES):
            raise RuntimeError(f"expected scenarios {sorted(self.TOLERANCES)}, found {names}")

    def _call(self, argv):
        """(exit code or the exception raised, seconds in cli.main)."""
        with contextlib.redirect_stdout(io.StringIO()):
            start = time.perf_counter()
            try:
                code = cli.main(argv)
            except Exception as exc:  # counted as a failed op; the pass goes on
                code = f"{type(exc).__name__}: {exc}"
            return code, time.perf_counter() - start

    def run_pass(self, scope):
        ops = []
        replayed = None  # the simulated estimates the replay must reproduce
        for stem, path, cfg, samples, first, last in self.scenarios:
            out = self.work / stem
            argv = ["simulate", "--config", path, "--out", str(out)]
            if stem == self.REPLAYED:
                argv += ["--seed", str(self.seed)]
            with scope.op(stem, cfg.model.n):
                code, seconds = self._call(argv)
            ft_tol, grad_tol = self.TOLERANCES[stem]
            op = Op(stem, cfg.model.n, samples, seconds, ok=False)
            if code != 0:
                op.note = f"exit code {code!r}"
            else:
                data = (out / cfg.output.estimate_path).read_bytes()
                if stem == self.REPLAYED:
                    replayed = data
                self._check(op, data, cfg, first, ft_tol, last, grad_tol)
            op.broken = not op.ok
            ops.append(op)

        stem, path, cfg, samples = next(s[:4] for s in self.scenarios if s[0] == self.REPLAYED)
        out = self.work / "replay"
        trace = self.work / stem / cfg.output.trace_path
        with scope.op("replay", cfg.model.n):
            code, seconds = self._call(
                ["estimate", "--config", path, "--input", str(trace), "--out", str(out)])
        op = Op("replay", cfg.model.n, samples, seconds, ok=False)
        if code != 0:
            op.note = f"exit code {code!r}"
        elif (out / cfg.output.estimate_path).read_bytes() != replayed:
            op.note = "replayed estimates differ from the simulated ones"
        else:
            op.ok = True
        op.broken = not op.ok
        ops.append(op)
        return ops

    @staticmethod
    def _check(op, data, cfg, first, ft_tol, last, grad_tol):
        lines = data.rstrip(b"\n").split(b"\n")
        header = lines[0].decode().split(",")
        final = lines[-1].decode().split(",")
        if len(lines) - 1 != op.samples:
            op.note = f"{len(lines) - 1} estimate rows for {op.samples} samples"
            return

        def column(prefix):
            values = [final[header.index(f"{prefix}_{i}")] for i in range(1, cfg.model.n + 1)]
            return None if "" in values else [float(v) for v in values]

        ft_err = _max_error(column("omega_ft"), first)
        if not ft_err <= ft_tol:
            op.note = f"omega_ft error {ft_err:.3g} > {ft_tol}"
            return
        if grad_tol is not None:
            grad_err = _max_error(column("omega_grad"), last)
            if not grad_err <= grad_tol:
                op.note = f"final omega_grad error {grad_err:.3g} > {grad_tol}"
                return
        op.ok = True


# ---------------------------------------------------------------------------

class Stream:
    """One Pipeline fed a clean n = 3 trace one Pipeline.step call at a time.

    The trace is made in set-up. Pipeline.reset() starts every epoch, so
    extraction fires again in each; one op is one epoch and passes when its
    omega_ft is within 1e-6 of the true frequencies. Every step call is timed.
    """

    name = "stream"
    N = 3
    D = 0.37
    SAMPLE_PERIOD = 0.001
    EPOCHS = 4  # per pass; the trace holds exactly this many epochs
    TOLERANCE = 1e-6

    def __init__(self, root, seed, work):
        cfg, self.freqs = synthetic_config(self.N, seed, self.D, self.SAMPLE_PERIOD, tail=0.5)
        size = grid_samples(cfg)
        values = generate_trace(cfg.signal, self.SAMPLE_PERIOD,
                                (self.EPOCHS * size - 1) * self.SAMPLE_PERIOD).values
        self.epochs = [values[e * size:(e + 1) * size] for e in range(self.EPOCHS)]
        if len(self.epochs[-1]) != size:
            raise RuntimeError("stream trace is shorter than its epochs")
        self.pipeline = harness.build_pipeline(cfg)
        self.latencies = array("q")  # ns per Pipeline.step call
        self.k = 0  # global sample index: time keeps running across epochs

    def run_pass(self, scope):
        ops = []
        clock = time.perf_counter_ns
        lat = self.latencies
        period = self.SAMPLE_PERIOD
        for e, values in enumerate(self.epochs):
            k = self.k
            op = Op(f"epoch{e}", self.N, 0, 0.0, ok=False, broken=True)
            with scope.op(op.label, self.N):
                start = time.perf_counter()
                try:
                    self.pipeline.reset()
                    step = self.pipeline.step
                    for y in values:
                        t0 = clock()
                        result = step(k * period, y)
                        lat.append(clock() - t0)
                        k += 1
                except Exception as exc:  # counted as a failed op; the pass goes on
                    op.note = f"{type(exc).__name__}: {exc}"
                op.seconds = time.perf_counter() - start
            op.samples = k - self.k
            self.k = k
            if not op.note:
                err = _max_error(result.omega_ft, self.freqs)
                op.ok = err <= self.TOLERANCE
                op.broken = not op.ok
                if not op.ok:
                    op.note = f"omega_ft error {err:.3g} > {self.TOLERANCE}"
            ops.append(op)
        return ops


# ---------------------------------------------------------------------------

class NSweep:
    """Clean n-tone configs for n = 1..8 through run_scenario, no output files.

    One op is one n-config; it passes when omega_ft is within 0.2 rad/s
    (criterion 6's band, about half the tightest tone spacing) of the true
    frequencies. Rounding error grows about tenfold per order: over seeds
    1..100 the worst n <= 6 error is below 1e-4 and the worst n = 7 error is
    3e-2, so n = 1..7 pass with margin and any miss, fault or missing
    extraction there breaks the run's contract. n = 8 is where extraction
    stops holding: on seeds 1, 2, 3, 7, 9 and 16 of 1..20 it raises the
    library's NumericFault at t_ft, and on the others it extracts with errors
    of 3e-3 to 0.11. That outcome is the measurement, counted in error_rate
    when it misses; only a malformed result or another exception at n = 8
    breaks the contract.
    """

    name = "n-sweep"
    D = 0.4
    SAMPLE_PERIOD = 0.1
    TOLERANCE = 0.2
    MEASURED_ORDER = 8  # the order whose miss is counted in error_rate, not a broken run
    _FAULT_AT = re.compile(r"sample (\d+)")

    def __init__(self, root, seed, work):
        self.configs = [synthetic_config(n, seed, self.D, self.SAMPLE_PERIOD, tail=1.0)
                        for n in range(1, 9)]

    def run_pass(self, scope):
        ops = []
        for cfg, freqs in self.configs:
            n = cfg.model.n
            samples = grid_samples(cfg)
            op = Op(f"n{n}", n, samples, 0.0, ok=False)
            with scope.op(op.label, n):
                start = time.perf_counter()
                try:
                    result = harness.run_scenario(cfg)
                except Exception as exc:  # counted as a failed op; the pass goes on
                    result = None
                    op.note = f"{type(exc).__name__}: {exc}"
                    # the library's documented fault, which names the sample it hit
                    op.broken = not (isinstance(exc, NumericFault) and n == self.MEASURED_ORDER)
                    fault = self._FAULT_AT.search(str(exc))
                    if fault:
                        op.samples = int(fault.group(1)) + 1
                op.seconds = time.perf_counter() - start
            if result is not None:
                err = _max_error(result.final.omega_ft, freqs)
                if len(result.records) != samples:
                    op.note = f"{len(result.records)} records for {samples} samples"
                elif not result.extracted:
                    op.note = "omega_ft not extracted"
                elif not err <= self.TOLERANCE:
                    op.note = f"omega_ft error {err:.3g} > {self.TOLERANCE}"
                else:
                    op.ok = True
                op.broken = not op.ok and (n != self.MEASURED_ORDER
                                           or len(result.records) != samples)
            ops.append(op)
        return ops


WORKLOADS = {w.name: w for w in (Builtins, Stream, NSweep)}
