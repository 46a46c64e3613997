"""Measurement loop shared by the workloads.

A workload object provides:

    name, unit          workload name and what one unit of work is called
    in_process          True when the work runs in this interpreter; peak
                        memory is then read for this process, else for its
                        children
    setup(seed)         build the inputs; returns the state the units use
    run_unit(state, k, tracer=None) -> Unit
                        do unit k (a closed loop: one client, no threads);
                        the same (state, k) always does the same work, and
                        every timed operation runs through `Unit.timed`
    cleanup(state)      optional: remove what set-up wrote

The benchmark runs on a few cores of a shared host, where the same
operation runs up to twice as slowly from one second to the next and for
a minute or more at a time.  So every timed operation (and every set-up)
runs between two runs of a fixed reference loop that does not touch
surveykit (an operation that waits on a child process also runs the loop
while it waits), and its time is rescaled to a host on which that loop
takes REF_NOMINAL_S:

    reference seconds = wall seconds * REF_NOMINAL_S / mean reference loop wall

A change to the program moves its reference seconds as it moves its wall
time; a slow phase of the host moves both the operation and the loop, and
cancels.  `work_per_s` is the median over units of the work done per
reference second, and `setup_s` the median of SETUP_REPEATS set-ups in
reference seconds, spread evenly over the run.  The plain wall-clock
figures are printed beside them.

Traced runs run each unit twice, once plain and once traced, so the
difference is the tracing overhead on identical work; the per-layer
figures come from the spans of the first KEEP_TRACED traced units.
"""

import itertools
import json
import os
import platform
import resource
import statistics
import time
from dataclasses import dataclass, field

import numpy as np

from layers import layer_metrics
from tracer import Summary, Tracer

SETUP_REPEATS = 7
KEEP_TRACED = 3   # traced units whose spans are kept (a sweep makes ~50k)
WORK_DIR = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                        ".bench_work")

# the reference loop: Python iteration, fancy indexing and small numpy
# reductions, like the library's own inner loops, with no allocation the
# garbage collector tracks.  REF_NOMINAL_S is about its median wall time on
# the 2-core VM (Python 3.11, numpy 2) the bounds were set on.
_REF_X = np.arange(14.0)
_REF_IDX = [np.array(c) for c in itertools.combinations(range(14), 4)]
REF_PASSES = 2
REF_NOMINAL_S = 0.005


def reference_s():
    """Wall time of the reference loop, seconds."""
    t0 = time.perf_counter()
    acc = 0.0
    for _ in range(REF_PASSES):
        for idx in _REF_IDX:
            acc += float(_REF_X[idx].sum())
    return time.perf_counter() - t0


@dataclass
class Unit:
    work: float = 0        # numerator of work_per_s: replicates, points or
                           # commands of the operations that passed
    work_wall: float = 0.0 # wall time of the timed operations, seconds
    work_time: float = 0.0 # the same in reference seconds
    attempted: int = 0
    failed: int = 0        # operations that raised or gave a wrong answer
    wrong: int = 0         # of those, wrong answers (a correctness gate failed)
    wall: float = 0.0      # wall time of the whole unit
    extra: dict = field(default_factory=dict)   # named timings for the report
    notes: list = field(default_factory=list)   # one line per failed operation
    startup: list = field(default_factory=list) # CLI start-up times, traced runs

    ref: float = None      # reference loop time after the last operation
    refs: list = field(default_factory=list)    # those of the current one

    def timed(self, call):
        """Run one timed operation, `call()`, between two runs of the
        reference loop (the one after an operation serves as the one before
        the next); returns its result or the exception it raised."""
        self.refs = [reference_s() if self.ref is None else self.ref]
        t0 = time.perf_counter()
        try:
            out = call()
        except Exception as exc:  # a failed operation, recorded by the caller
            out = exc
        wall = time.perf_counter() - t0
        self.ref = reference_s()
        self.refs.append(self.ref)
        self.work_wall += wall
        self.work_time += wall * REF_NOMINAL_S / statistics.fmean(self.refs)
        return out

    def sample_reference(self):
        """Run the reference loop once more during the current operation,
        for one that spends seconds waiting on a child process."""
        self.refs.append(reference_s())

    def record(self, what, outcome):
        """Count one operation.  `outcome` is None when it succeeded, the
        exception it raised, or the text of the correctness gate it failed."""
        self.attempted += 1
        if outcome is None:
            return True
        self.failed += 1
        if isinstance(outcome, Exception):
            outcome = f"{type(outcome).__name__}: {outcome}"
        else:
            self.wrong += 1
        self.notes.append(f"{what}: {outcome}")
        return False


def environment(seed):
    import numpy as np
    import surveykit as sk

    try:
        import numba
        numba_status = numba.__version__
    except ImportError as exc:
        numba_status = f"unavailable: {exc}"
    return {
        "backend": sk.ACTIVE_BACKEND,
        "numba": numba_status,
        "numpy": np.__version__,
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "seed": seed,
    }


def peak_rss_mb(workload):
    who = resource.RUSAGE_SELF if workload.in_process else resource.RUSAGE_CHILDREN
    return resource.getrusage(who).ru_maxrss / 1024.0  # ru_maxrss is in KiB


def _cleanup(workload, state):
    getattr(workload, "cleanup", lambda state: None)(state)


def run(workload, seed, seconds, trace):
    """Run one workload; returns (json_result, report_lines)."""
    if trace:
        return _run_traced(workload, seed, seconds)
    setups, setup_walls, units, measured = [], [], [], 0.0

    def set_up():
        before = reference_s()
        t0 = time.perf_counter()
        state = workload.setup(seed)
        wall = time.perf_counter() - t0
        setups.append(wall * REF_NOMINAL_S * 2 / (before + reference_s()))
        setup_walls.append(wall)
        return state

    state = set_up()
    try:
        while not units or measured < seconds:
            if measured >= len(setups) * seconds / SETUP_REPEATS:
                state = set_up()
            t0 = time.perf_counter()
            units.append(workload.run_unit(state, len(units)))
            measured += time.perf_counter() - t0
        while len(setups) < SETUP_REPEATS:
            state = set_up()
    finally:
        _cleanup(workload, state)
    rates = [u.work / u.work_time for u in units]
    wall_rates = [u.work / u.work_wall for u in units]
    attempted = sum(u.attempted for u in units)
    failed = sum(u.failed for u in units)
    metrics = {
        "setup_s": (statistics.median(setups), "s"),
        "work_per_s": (statistics.median(rates), "1/s"),
        "peak_rss_mb": (peak_rss_mb(workload), "MB"),
        "success_rate": (1.0 - failed / attempted, "share"),
    }
    lines = [f"{'setup_s':34s} {metrics['setup_s'][0]:14.6g} s      "
             f"median of {len(setups)} set-ups, reference seconds",
             f"{'setup_s.wall':34s} {statistics.median(setup_walls):14.6g} s      "
             f"median of {len(setups)} set-ups, wall seconds",
             f"{'work_per_s':34s} {metrics['work_per_s'][0]:14.6g} 1/s    "
             f"median of {len(units)} {workload.unit}s, per reference second "
             f"({workload.work_name})",
             f"{'work_per_s.wall':34s} {statistics.median(wall_rates):14.6g} 1/s    "
             f"median of {len(units)} {workload.unit}s, per wall second",
             f"{'peak_rss_mb':34s} {metrics['peak_rss_mb'][0]:14.6g} MB",
             f"{'success_rate':34s} {metrics['success_rate'][0]:14.6g} share  "
             f"{attempted - failed} of {attempted} operations",
             f"{'error_rate':34s} {failed / attempted:14.6g} share  "
             f"{failed} of {attempted} operations failed"]
    for name, (values, unit) in _extras(units).items():
        lines.append(f"{name:34s} {statistics.median(values):14.6g} "
                     f"{unit:6s} median of {len(values)}")
    return _result(units, metrics), lines + _notes(units)


def _run_traced(workload, seed, seconds):
    state = workload.setup(seed)
    tracer = Tracer()
    plain, traced = [], []

    def pair(k):
        plain.append(workload.run_unit(state, k))
        start = len(tracer.spans)
        if workload.in_process:
            with tracer.installed():
                unit = workload.run_unit(state, k, tracer)
        else:
            unit = workload.run_unit(state, k, tracer)
        if k >= KEEP_TRACED:  # later units only add to the overhead figure
            del tracer.spans[start:]
        traced.append(unit)
        return unit

    try:
        _loop(seconds, pair)
    finally:
        _cleanup(workload, state)
    summary = Summary(tracer.spans)
    kept = traced[:KEEP_TRACED]
    metrics = layer_metrics(summary, len(kept), [t for u in kept for t in u.startup])
    overhead = [t.wall - p.wall for p, t in zip(plain, traced)]
    metrics["trace.overhead_s"] = (statistics.median(overhead), "s")
    metrics["trace.overhead_share"] = (
        sum(overhead) / sum(p.wall for p in plain), "share")
    metrics["trace.spans"] = (len(tracer.spans) / len(kept), "count")
    os.makedirs(WORK_DIR, exist_ok=True)
    path = os.path.join(WORK_DIR, f"spans-{workload.name}.jsonl")
    tracer.dump(path, {"workload": workload.name, "units": len(kept),
                       "env": environment(seed)})
    lines = [f"{name:56s} {value:14.6g} {unit}"
             for name, (value, unit) in metrics.items()]
    lines.append(f"spans: {len(tracer.spans)} written to {os.path.relpath(path)}")
    return _result(plain + traced, metrics), lines + _notes(plain + traced)


def _loop(seconds, do_unit):
    out = []
    start = time.perf_counter()
    k = 0
    while not out or time.perf_counter() - start < seconds:
        out.append(do_unit(k))
        k += 1
    return out


def _extras(units):
    merged = {}
    for u in units:
        for name, (value, unit) in u.extra.items():
            merged.setdefault(name, ([], unit))[0].append(value)
    return merged


def _notes(units):
    notes = [n for u in units for n in u.notes]
    return [f"failed: {n}" for n in notes[:20]] + (
        [f"... and {len(notes) - 20} more"] if len(notes) > 20 else [])


def _result(units, metrics):
    return {
        "correct": all(u.wrong == 0 for u in units),
        "attempted": sum(u.attempted for u in units),
        "failed": sum(u.failed for u in units),
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }


def print_result(workload, seed, result, lines):
    print(f"# {workload.name}: {workload.why}")
    print("# env " + json.dumps(environment(seed), sort_keys=True))
    for line in lines:
        print("  " + line)
    print(json.dumps(result))
