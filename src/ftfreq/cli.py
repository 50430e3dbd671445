"""Command-line interface.

    ftfreq simulate --config scenario.cfg [--out DIR] [--seed N]
    ftfreq estimate --config scenario.cfg --input trace.csv [--out DIR]
    ftfreq scenario NAME [--out DIR] [--seed N]

Exit codes: 0 success, 2 invalid configuration or input file, 3 numeric
fault during estimation, 4 run completed without a finite-time estimate in
its last epoch: that epoch was shorter than t_ft (the message names its
start), or its excitation never reached the extraction floor. The cause is
judged on the epoch the run itself ended in, so for estimate on the trace's
own times, not on run.duration. Exit 4 and the metadata's estimator.* keys
both refer to the last epoch only: an earlier epoch that extracted is
recorded in metadata.txt as epoch.<k>.start and epoch.<k>.extraction_time
(k = 1 for the first epoch), one pair per epoch.

run.duration defines the trace only for simulate and scenario, so only they
exit 2 when it does not exceed estimator.t_ft or a run.reset_times entry is
not before it. estimate does not read it: a reset beyond the trace is a
metadata warning, and an epoch shorter than t_ft exits 4 as above.
"""

from __future__ import annotations

import argparse
import sys

from .config import BUILTIN_NAMES, builtin_scenario, load_config, with_seed
from .errors import ConfigError, NumericFault
from .harness import RunResult, estimate_from_file, run_scenario

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NUMERIC = 3
EXIT_NOT_EXCITED = 4


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ftfreq",
        description="Finite-time frequency estimation for multi-sinusoidal signals.")
    sub = parser.add_subparsers(dest="command", required=True)

    sim = sub.add_parser("simulate", help="simulate a configured scenario")
    sim.add_argument("--config", required=True, help="scenario config file")
    est = sub.add_parser("estimate", help="estimate frequencies from a recorded trace")
    est.add_argument("--config", required=True, help="config file (signal section ignored)")
    est.add_argument("--input", required=True, help="input CSV with columns time,y")
    scen = sub.add_parser("scenario", help="run a built-in scenario")
    scen.add_argument("name", choices=BUILTIN_NAMES)
    for command in (sim, est, scen):
        command.add_argument("--out", default="out", help="output directory")
    for command in (sim, scen):
        command.add_argument("--seed", type=int, default=None,
                             help="override the uniform-noise seed")
    return parser


def _apply_seed(cfg, seed):
    if seed is None:
        return cfg
    cfg, applied = with_seed(cfg, seed)
    if not applied:
        print("note: --seed ignored (scenario has no seeded disturbance)",
              file=sys.stderr)
    return cfg


def _report(result: RunResult) -> int:
    final = result.final
    print(f"samples: {len(result.trajectory)}")
    for label, path in (("estimates", result.estimate_path), ("trace", result.trace_path),
                        ("metadata", result.metadata_path)):
        if path:
            print(f"{label}: {path}")
    grad = " ".join(f"{w:.6f}" for w in final.omega_grad)
    print(f"omega_grad(final): {grad}")
    if final.omega_ft is not None:
        ft = " ".join(f"{w:.6f}" for w in final.omega_ft)
        print(f"omega_ft: {ft}")
        return EXIT_OK
    last = result.trajectory.epochs[-1]
    cause = ("insufficient excitation" if last.due is not None else
             f"last epoch, from t = {result.trajectory.times[last.first]:g}, "
             f"is shorter than t_ft = {result.config.estimator.t_ft:g}")
    print(f"omega_ft: not extracted ({cause})")
    return EXIT_NOT_EXCITED


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        if args.command == "simulate":
            cfg = _apply_seed(load_config(args.config), args.seed)
            result = run_scenario(cfg, out_dir=args.out)
        elif args.command == "estimate":
            cfg = load_config(args.config)
            result = estimate_from_file(args.input, cfg, out_dir=args.out)
        else:
            cfg = _apply_seed(builtin_scenario(args.name), args.seed)
            result = run_scenario(cfg, out_dir=args.out)
    except ConfigError as exc:
        for violation in exc.violations:
            print(f"config error: {violation}", file=sys.stderr)
        return EXIT_CONFIG
    except NumericFault as exc:
        print(f"numeric fault: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    return _report(result)


if __name__ == "__main__":
    sys.exit(main())
