"""Quick self-test of the benchmark itself.

    python3 perfbench/selftest.py

Runs every workload at minimum size (one pass), untraced and traced, the way
run.py is invoked for a measurement, and checks:
  * the last stdout line is the result object with exactly its four keys;
  * every metric BENCHMARK.json names is emitted with its unit, and nothing else;
  * layers a workload bypasses report 0: on stream signal generation, CSV
    I/O and config loading; on builtins (all n = 2) the adjugate;
  * a wrapped function that is gone from the library is skipped and its
    layer reports 0 calls instead of failing.
"""

import json
import math
import subprocess
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = HERE / ".work"
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def expect(condition, detail):
    if not condition:
        raise SystemExit(f"selftest FAILED: {detail}")


def run(workload, trace):
    cmd = SPEC["command"] + ["--workload", workload, "--seed", "1",
                             "--seconds", "0", "--trace", str(trace)]
    cmd[0] = sys.executable if cmd[0] == "python3" else cmd[0]
    return subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)


def check_result(workload, trace):
    done = run(workload, trace)
    expect(done.returncode == 0, f"{workload} trace {trace}: exit {done.returncode}\n{done.stderr}")
    result = json.loads(done.stdout.strip().splitlines()[-1])
    expect(set(result) == {"correct", "attempted", "failed", "metrics"}, result.keys())
    expect(isinstance(result["attempted"], int) and result["attempted"] >= 1, result)
    expect(isinstance(result["failed"], int) and 0 <= result["failed"] <= result["attempted"], result)
    wanted = {m["name"]: m["unit"] for m in SPEC["per_layer" if trace else "end_to_end"]}
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    expect(got == wanted, f"{workload} trace {trace}: metric names or units differ")
    for name, m in result["metrics"].items():
        expect(isinstance(m["value"], (int, float)) and math.isfinite(m["value"]), (name, m))
        if not trace:
            expect(m["value"] > 0, (workload, name, m))
    print(f"ok  {workload:9s} trace {trace}: {len(got)} metrics, correct {result['correct']}, "
          f"{result['failed']}/{result['attempted']} ops failed")
    return {name: m["value"] for name, m in result["metrics"].items()}


def check_missing_function_is_skipped():
    sys.path[:0] = [str(ROOT / "src"), str(HERE)]
    import ftfreq.cli
    import ftfreq.harness
    from tracer import Tracer, layer_metrics
    from workloads import Stream

    gone = {(ftfreq.harness, "_read_trace"), (ftfreq.cli, "load_config")}
    saved = [(module, name, getattr(module, name)) for module, name in gone]
    with tempfile.TemporaryDirectory(dir=WORK) as work:
        workload = Stream(ROOT, 1, work)
        for module, name in gone:
            delattr(module, name)
        tracer = Tracer()
        try:
            tracer.install()
            ops = workload.run_pass(tracer)
        finally:
            tracer.uninstall()
            for module, name, fn in saved:
                setattr(module, name, fn)
    expect(sorted(tracer.bypassed) == ["ftfreq.cli.load_config", "ftfreq.harness._read_trace"],
           tracer.bypassed)
    samples = {None: sum(op.samples for op in ops), 3: sum(op.samples for op in ops)}
    metrics = layer_metrics(tracer, samples, 1.0, 1.0)
    expect(metrics["harness.read_us_per_sample"] == 0 and metrics["config.load_ms"] == 0,
           "a skipped function reported time")
    expect(metrics["mixing.calls"] == samples[None], "mixing was not traced once per sample")
    print("ok  a wrapped function that is gone reports 0 calls")


def main():
    WORK.mkdir(exist_ok=True)
    for workload in (w["name"] for w in SPEC["workloads"]):
        check_result(workload, 0)
        layers = check_result(workload, 1)
        if workload == "stream":
            for name in ("signals.us_per_sample", "harness.write_us_per_sample",
                         "harness.bytes_written", "harness.read_us_per_sample", "config.load_ms"):
                expect(layers[name] == 0, (workload, name, layers[name]))
        if workload == "builtins":
            expect(layers["mixing.adjugate_calls"] == 0, layers["mixing.adjugate_calls"])
            expect(layers["harness.bytes_written"] > 0 and layers["config.load_ms"] > 0,
                   "builtins wrote no CSV or loaded no config")
        if workload == "n-sweep":
            expect(layers["mixing.adjugate_calls"] > 0, "n-sweep made no adjugate calls")
    check_missing_function_is_skipped()
    print("selftest passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
