"""Layered benchmark for surveykit: draw -> estimate/calibrate -> variance,
checked by exact enumeration and Monte Carlo.

    python3 perfbench/run.py --workload {mc_sweep,exact_enum,cli_session,all}
                             [--seed N] [--seconds S] [--trace 0|1]

Run from anywhere; it benchmarks the `src/surveykit` next to this directory.
Each workload is a closed loop with one client and no extra threads:

    mc_sweep     criterion-9 sweep through simulate.design_consistency_mc
    cli_session  draw / calibrate / variance / simulate, each a fresh process
    exact_enum   enumerate_design, joint_pips and exact_expectation

With --trace 0 it prints the end-to-end metrics: setup_s, work_per_s (the
median of the per-unit rates; what one unit of work is depends on the
workload and is printed with it), peak_rss_mb and success_rate.  Times are
in reference seconds, rescaled by a fixed reference loop timed before each
operation so that the shared host's changes of speed cancel (see
harness.py); the wall-clock figures are printed beside them.  With
--trace 1 it runs every unit twice, plain and with each layer's public
functions wrapped, and prints the per-layer metrics and the tracing
overhead; the spans go to
`.bench_work/spans-<workload>.jsonl`.  The report lines come first; the
last line is one JSON object {correct, attempted, failed, metrics}.
`correct` is false when an output failed a correctness gate; `failed`
also counts operations that raised.
"""

import argparse
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")
WORKLOADS = ("mc_sweep", "cli_session", "exact_enum")


def load_surveykit():
    """Import surveykit from this checkout's src/, or fail."""
    init = os.path.join(SRC, "surveykit", "__init__.py")
    if not os.path.isfile(init):
        raise SystemExit(f"error: no surveykit sources at {SRC}")
    sys.path.insert(0, SRC)
    import surveykit

    if os.path.realpath(surveykit.__file__) != os.path.realpath(init):
        raise SystemExit(f"error: imported surveykit from {surveykit.__file__}, "
                         f"not from {SRC}")


def make(name):
    if name == "mc_sweep":
        from mc_sweep import McSweep
        return McSweep()
    if name == "cli_session":
        from cli_session import CliSession
        return CliSession()
    from exact_enum import ExactEnum
    return ExactEnum()


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    if args.workload == "all":
        # one process per workload, so peak memory is each workload's own
        code = 0
        for name in WORKLOADS:
            rc = subprocess.run(
                [sys.executable, os.path.abspath(__file__), "--workload", name,
                 "--seed", str(args.seed), "--seconds", str(args.seconds),
                 "--trace", str(args.trace)]).returncode
            code = code or rc
        return code
    load_surveykit()
    import harness

    workload = make(args.workload)
    result, lines = harness.run(workload, args.seed, args.seconds, bool(args.trace))
    harness.print_result(workload, args.seed, result, lines)
    return 0


if __name__ == "__main__":
    sys.exit(main())
