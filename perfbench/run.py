"""ftfreq benchmark: one workload per process, one thread, closed loop.

    python3 perfbench/run.py --workload {builtins,stream,n-sweep} --seed N \\
        --seconds S --trace {0,1} [--out FILE]

Run from the repository root; the library is imported from ./src. The run
sets up its workload, then repeats whole passes until S seconds have gone
by, checks every op's output and prints a report followed by one JSON line:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

"failed" counts ops that break the run's contract (so "correct" is false
whenever it is not 0). error_rate counts every op that missed its check,
including n-sweep's n = 8 outcome, which is measured rather than required.

--trace 0 gives the end-to-end metrics, with tracing off. setup_s is the
median of seven set-ups (this process and six fresh probes), each scaled by
the time of a fixed set of reference imports in the same process. The gated
time is ref_iters_per_sample: each op's wall time over the time of a fixed
reference loop (small-object Python and small numpy linear algebra) run just
before, during and after it, in loop iterations per sample, which cancels the
host's drifting speed; plain wall time per sample (us_per_sample) is reported
beside it. --trace 1 runs one traced pass
between two spells of untraced passes (S/4 seconds each, the base of
tracing.overhead) and gives the per-layer metrics; its spans are written to
perfbench/.work/spans-<workload>.npz. --out also writes the full record:
environment, every reported metric and every op.
"""

import importlib
import time

# Reference imports: stdlib modules that neither ftfreq, numpy nor this
# benchmark loads, timed first in every process. Set-up is mostly imports,
# and on a shared host import work drifts by 20-30 % between runs, tracking
# this reference far more closely than a pure-Python loop; setup_s is scaled
# by it.
REF_MODULES = ("email.mime.text", "http.client", "mailbox", "pydoc", "sqlite3",
               "tarfile", "unittest", "xml.dom.minidom")
_ref_start = time.perf_counter()
for _name in REF_MODULES:
    importlib.import_module(_name)
REF_IMPORT = time.perf_counter() - _ref_start
REF_IMPORT_S = 0.08  # setup_s is set-up time on a host where the reference takes this

_STARTED = time.perf_counter()  # set-up is timed from here, before any other import

import os  # noqa: E402

# One BLAS/OpenMP thread: np.linalg backs mixing and recovery. Set before
# numpy loads; the set-up probes inherit it.
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import signal  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = HERE / ".work"

# Gated end-to-end metrics: every workload reports each of them.
END_TO_END = (("setup_s", "s"), ("ref_iters_per_sample", "iter"), ("peak_rss_mb", "MB"))
# Fresh set-up probes taken before and again after the timed passes, so the
# reported median of all set-ups (this process's too) spans the whole run.
# Each set-up is (seconds, reference-import seconds) of one process.
SETUP_PROBES = 3
WORKLOAD_NAMES = ("builtins", "stream", "n-sweep")
REF_ITERATIONS = 500
REF_INTERVAL = 0.25  # seconds between the reference loops run inside an op
REF_ROWS = [[float(i + j) for j in range(6)] for i in range(6)]
REF_MATRIX = np.arange(36.0).reshape(6, 6) + 7 * np.eye(6)


class _RefPoint:
    __slots__ = ("a", "b")

    def __init__(self, a, b):
        self.a = a
        self.b = b


def _ref_term(p, x):
    return p.a * math.exp(-x) + p.b


def reference_loop():
    """Seconds this machine takes, right now, for a fixed reference loop.

    The speed of a shared host drifts by 10-20 % over tens of seconds, and
    ftfreq slows with it. Timing this loop before, during and after every op
    lets ref_iters_per_sample cancel that drift. Each iteration does the two kinds
    of work ftfreq does per sample: small-object Python (instances, tuples,
    float math) and small numpy linear algebra. Over the same ten runs this
    mix left a spread of 0.04 (builtins) and 0.07 (n-sweep) where a plain
    integer loop left 0.10 and 0.09.
    """
    start = time.perf_counter()
    acc = 0.0
    for i in range(REF_ITERATIONS):
        for k in range(6):
            p = _RefPoint(i + k, 1.0)
            t = tuple(_ref_term(p, row[0]) for row in REF_ROWS)
            acc += sum(t) + len([x for x in t if x > 2.0])
        acc += float(np.linalg.det(REF_MATRIX)) + float(np.linalg.inv(REF_MATRIX)[0, 0])
    return time.perf_counter() - start


def reference_point():
    """Median of three reference-loop timings, to damp the jitter of one."""
    return statistics.median(reference_loop() for _ in range(3))


class Yardstick:
    """Untraced op scope: times the reference loop before and inside every op.

    Inside an op a SIGALRM interval timer runs one reference loop every
    REF_INTERVAL seconds, between two bytecodes of whatever the library is
    doing. An n = 8 op of n-sweep lasts about 10 s; loops at its two ends
    alone missed the host's drift while it ran, and ref_iters_per_sample
    spread 0.20 over five seeds. The seconds spent in these loops are taken
    off the op by run_passes.
    """

    def __init__(self):
        self.before = []  # reference_point() just before each op
        self.inside = []  # per op: (loop seconds, handler seconds) of each tick

    @contextlib.contextmanager
    def op(self, label, n):
        self.before.append(reference_point())
        ticks = []

        def tick(signum, frame):
            start = time.perf_counter()
            loop = reference_loop()
            ticks.append((loop, time.perf_counter() - start))

        previous = signal.signal(signal.SIGALRM, tick)
        signal.setitimer(signal.ITIMER_REAL, REF_INTERVAL, REF_INTERVAL)
        try:
            yield
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)
            self.inside.append(ticks)


def _parser():
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--out", help="also write the full record as JSON here")
    p.add_argument("--setup-probe", action="store_true",
                   help="set up the workload, print its seconds and the reference-import seconds, and exit")
    return p


def _setup_probe(args):
    """(seconds, reference-import seconds) of a fresh process's set-up."""
    done = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
         "--seed", str(args.seed), "--seconds", "0", "--setup-probe"],
        cwd=ROOT, capture_output=True, text=True, timeout=120, check=True)
    return tuple(float(x) for x in done.stdout.split()[-2:])


def environment(seed):
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    commit = "unknown (not a git checkout)"
    if (ROOT / ".git").exists():
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True, timeout=30)
        commit = done.stdout.strip() or commit
    return {
        "python": platform.python_version(), "numpy": np.__version__, "cpu": cpu,
        "nproc": os.cpu_count(), "threads": {v: os.environ[v] for v in THREAD_VARS},
        "seed": seed, "commit": commit,
    }


def run_passes(workload, seconds):
    """Untraced whole passes until `seconds` have gone by (at least one).

    Each pass is (its ops, for each op the mean reference-loop seconds
    timed just before, inside and just after it). Each op's seconds exclude
    the reference loops run inside it.
    """
    passes = []
    start = time.perf_counter()
    while True:
        yardstick = Yardstick()
        ops = workload.run_pass(yardstick)
        if len(yardstick.inside) != len(ops):
            raise RuntimeError(f"{workload.name}: {len(ops)} ops in {len(yardstick.inside)} op scopes")
        ends = yardstick.before + [reference_point()]
        refs = []
        for op, before, after, ticks in zip(ops, ends, ends[1:], yardstick.inside):
            op.seconds -= sum(spent for _, spent in ticks)
            refs.append(statistics.mean([before, after] + [loop for loop, _ in ticks]))
        passes.append((ops, refs))
        if time.perf_counter() - start >= seconds:
            return passes


def us_per_sample(ops):
    samples = sum(op.samples for op in ops)
    return 1e6 * sum(op.seconds for op in ops) / samples if samples else 0.0


def median_us_per_sample(passes, n=None):
    """Median over passes of the pass's (or its order-n ops') wall time per sample."""
    return statistics.median(
        us_per_sample([op for op in ops if n is None or op.n == n]) for ops, _ in passes)


def ref_iters_per_sample(passes):
    """Median over passes of the cost per sample in reference-loop iterations."""
    return statistics.median(
        REF_ITERATIONS * sum(op.seconds / ref for op, ref in zip(ops, refs))
        / sum(op.samples for op in ops) for ops, refs in passes)


def report_metrics(workload, passes, setups):
    """Every applicable end-to-end metric, name -> (value, unit)."""
    ops = [op for p, _ in passes for op in p]
    out = {
        "setup_s": (REF_IMPORT_S * statistics.median(raw / ref for raw, ref in setups), "s"),
        "setup_raw_s": (statistics.median(raw for raw, _ in setups), "s"),
        "ref_import_ms": (1e3 * statistics.median(ref for _, ref in setups), "ms"),
        "ref_iters_per_sample": (ref_iters_per_sample(passes), "iter"),
        "us_per_sample": (median_us_per_sample(passes), "us"),
        "ref_loop_ms": (1e3 * statistics.median(r for _, refs in passes for r in refs), "ms"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        "error_rate": (sum(not op.ok for op in ops) / len(ops), "ratio"),
    }
    if workload.name == "stream":
        lat = np.frombuffer(workload.latencies, dtype=np.int64)
        p50, p99 = np.percentile(lat, [50, 99]) / 1e3
        out["step_p50_us"] = (float(p50), "us")
        out["step_p99_us"] = (float(p99), "us")
        out["step_samples"] = (len(lat), "count")
    if workload.name == "n-sweep":
        for n in range(1, 9):
            out[f"us_per_sample.n{n}"] = (median_us_per_sample(passes, n), "us")
    return out


def main(argv=None):
    args = _parser().parse_args(argv)
    if not (SRC / "ftfreq" / "__init__.py").is_file():
        print(f"perfbench: no ftfreq sources at {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import ftfreq
    if Path(ftfreq.__file__).resolve().parent != SRC / "ftfreq":
        print(f"perfbench: imported ftfreq from {ftfreq.__file__}, not {SRC}", file=sys.stderr)
        return 2
    from tracer import Tracer, layer_metrics, per_layer_names
    from workloads import WORKLOADS

    work = WORK / f"{args.workload}-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    try:
        workload = WORKLOADS[args.workload](ROOT, args.seed, work)
        setup = time.perf_counter() - _STARTED
        if args.setup_probe:
            print(repr(setup), repr(REF_IMPORT))
            return 0
        setups = [(setup, REF_IMPORT)]
        if not args.trace:
            setups += [_setup_probe(args) for _ in range(SETUP_PROBES)]
            passes = run_passes(workload, args.seconds)
            setups += [_setup_probe(args) for _ in range(SETUP_PROBES)]
            ops = [op for p, _ in passes for op in p]
            shown = report_metrics(workload, passes, setups)
            metrics = {name: shown[name] for name, _ in END_TO_END}
        else:
            # untraced passes on both sides, so a drift in machine speed
            # does not read as tracing overhead
            base = run_passes(workload, args.seconds / 4)
            tracer = Tracer().install()
            try:
                traced = workload.run_pass(tracer)
            finally:
                tracer.uninstall()
            base += run_passes(workload, args.seconds / 4)
            ops = [op for p, _ in base for op in p] + traced
            samples = {None: sum(op.samples for op in traced)}
            for op in traced:
                samples[op.n] = samples.get(op.n, 0) + op.samples
            values = layer_metrics(tracer, samples, median_us_per_sample(base),
                                   us_per_sample(traced))
            metrics = {name: (values[name], unit) for name, unit in per_layer_names()}
            shown = metrics
            tracer.write(WORK / f"spans-{args.workload}.npz")
    finally:
        shutil.rmtree(work, ignore_errors=True)

    env = environment(args.seed)
    # `failed` counts the ops that break the run's contract. An n = 8 miss on
    # n-sweep is the measurement, not a broken op: it is counted in
    # error_rate and listed below, and it varies with the seed.
    broken = [op for op in ops if op.broken]
    result = {
        "correct": not broken,
        "attempted": len(ops),
        "failed": len(broken),
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(f"# workload {args.workload}, trace {args.trace}, {len(ops)} ops")
    for key, value in env.items():
        print(f"# {key}: {value}")
    for op in ops:
        if not op.ok:
            print(f"# {'failed' if op.broken else 'missed (counted in error_rate)'} op "
                  f"{op.label}: {op.note}")
    if args.trace and tracer.bypassed:
        print(f"# not wrapped (gone from the library): {', '.join(tracer.bypassed)}")
    for name, (value, unit) in shown.items():
        print(f"{name} = {value:.6g} {unit}")
    if args.out:
        record = {
            "workload": args.workload, "seconds": args.seconds, "trace": args.trace,
            "environment": env, "setup_samples_s": setups,
            "report": {name: {"value": v, "unit": u} for name, (v, u) in shown.items()},
            "ops": [vars(op) for op in ops], "result": result,
        }
        Path(args.out).write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
