"""Run one surveykit CLI command with the layer tracer installed.

    python perfbench/cli_traced.py SPANS_OUT -- <surveykit CLI arguments>

`src` must be on PYTHONPATH.  The parent puts its `time.perf_counter()`
reading at spawn into PERFBENCH_T0; the monotonic clock is shared by the
processes of one machine, so `startup` is the time from spawning the
interpreter until `cli.main` runs.  The spans and the start-up time are
written to SPANS_OUT as JSON; the command's exit code is passed through.
"""

import json
import os
import sys
import time

from tracer import Tracer

from surveykit import cli


def main():
    out, sep, argv = sys.argv[1], sys.argv[2], sys.argv[3:]
    if sep != "--":
        raise SystemExit("usage: cli_traced.py SPANS_OUT -- ARGS...")
    tracer = Tracer()
    with tracer.installed():
        startup = time.perf_counter() - float(os.environ["PERFBENCH_T0"])
        code = cli.main(argv)
    with open(out, "w", encoding="utf-8") as handle:
        json.dump({"startup": startup, "spans": tracer.spans}, handle)
    return code


if __name__ == "__main__":
    sys.exit(main())
