"""Run the benchmark over several seeds and record a BENCH_*.json baseline.

    python3 perfbench/baseline.py --label seed

writes perfbench/BENCH_<label>.json. Each workload of BENCHMARK.json runs
RUNS times untraced (seeds 1..RUNS) and TRACED times traced (seeds
1..TRACED), one process at a time, with BENCHMARK.json's run_seconds. For
every metric the file keeps all values, the median, the quartiles and the
spread (interquartile range / median). The table printed at the end compares
each gated metric's spread with a third of its bound.
"""

import argparse
import json
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = HERE / ".work"
RUNS = 10
TRACED = 3
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

from tracer import PER_LAYER  # noqa: E402


def summary(values, unit):
    values = [float(v) for v in values]
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
    median = statistics.median(values)
    return {"unit": unit, "median": median, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / median if median else 0.0, "values": values}


def run_once(workload, seed, seconds, trace, scratch):
    out = Path(scratch) / f"{workload}-{seed}-{trace}.json"
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace),
           "--out", str(out)]
    subprocess.run(cmd, cwd=ROOT, check=True, timeout=900, stdout=subprocess.DEVNULL)
    return json.loads(out.read_text(encoding="utf-8"))


def collect(records):
    metrics = {}
    for rec in records:
        for name, m in rec["report"].items():
            metrics.setdefault(name, (m["unit"], []))[1].append(m["value"])
    return {name: summary(values, unit) for name, (unit, values) in metrics.items()}


def main(argv=None):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--label", required=True)
    args = p.parse_args(argv)
    seconds = spec["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}

    doc = {"label": args.label, "run_seconds": seconds,
           "per_layer_moves": {name: moves for name, _, moves in PER_LAYER},
           "workloads": {}}
    rows = []
    WORK.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=WORK) as scratch:
        for workload in (w["name"] for w in spec["workloads"]):
            seeds = list(range(1, RUNS + 1))
            plain = [run_once(workload, s, seconds, 0, scratch) for s in seeds]
            traced = [run_once(workload, s, seconds, 1, scratch) for s in seeds[:TRACED]]
            doc.setdefault("environment", plain[0]["environment"])
            missed_ops = {}  # every op that missed its check, broken or not
            for rec in plain:
                for op in rec["ops"]:
                    if not op["ok"]:
                        missed_ops.setdefault(op["label"], []).append(op["note"])
            end_to_end = collect(plain)
            doc["workloads"][workload] = {
                "seeds": seeds,
                "correct": [r["result"]["correct"] for r in plain],
                "attempted": [r["result"]["attempted"] for r in plain],
                "failed": [r["result"]["failed"] for r in plain],
                "missed_ops": {label: {"count": len(notes), "first_note": notes[0]}
                               for label, notes in missed_ops.items()},
                "end_to_end": end_to_end,
                "per_layer": collect(traced) if traced else {},
            }
            for name, bound in bounds.items():
                s = end_to_end[name]
                rows.append((workload, name, s["median"], s["unit"], s["spread"], bound))

    out = HERE / f"BENCH_{args.label}.json"
    out.write_text(json.dumps(doc, indent=1) + "\n", encoding="utf-8")
    print(f"wrote {out}")
    for workload, name, median, unit, spread, bound in rows:
        flag = "ok" if spread < bound / 3 else "WIDE"
        print(f"{workload:9s} {name:20s} median {median:12.6g} {unit:4s} "
              f"spread {spread:6.3f}  bound/3 {bound / 3:.3f}  {flag}")


if __name__ == "__main__":
    sys.exit(main())
