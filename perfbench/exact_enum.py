"""Workload `exact_enum`: exact enumeration of small designs.

One unit (a round) runs `enumerate_design`, `joint_pips` and
`exact_expectation` of the HT total over seven designs on frames of 13 to
20 units; every round does the same work on the same frame data.  Frames
follow the criterion-9 recipe (mos U(1,4) rounded to 3 places, y N(8,3))
drawn from the seed, and each round builds its Frame objects afresh,
outside the timed part, so nothing cached on a frame carries over.  Kernels
do no work here, so this is the no-change control for kernel work; the time
goes to enumeration, to the `Sample` built for every support set and to
`ht_total`.  Frames that break a design's documented preconditions (a unit
at or above certainty) are invalid inputs and are drawn again.

SystematicPPS is left out: `enumerate_design(SystematicPPS(n), frame)`
raises IndexError on about one valid frame in seven of this recipe (a
rounding sliver in `_enumerate_systematic_pps`), and a workload whose
operations fail by chance cannot be compared between runs.  The test
`test_systematic_pps_enumeration_defect` in this directory reproduces it.
"""

import math
import time

import numpy as np

import surveykit as sk
from surveykit import simulate

from harness import Unit

TOL = 1e-9


def draw_data(gen, N, n=1, **labels):
    """Frame data of the recipe, drawn again while a size-n pi-ps design
    would put a unit at or above certainty."""
    while True:
        mos = np.round(gen.uniform(1.0, 4.0, N), 3)
        if n * mos.max() < mos.sum():
            break
    y = np.round(gen.normal(8, 3, N), 3)
    return dict(ids=tuple(f"u{i}" for i in range(N)), mos=mos, y=y, **labels)


def fixed_cases(seed):
    """The (label, design, frame data) of the seven designs a round runs."""
    gen = np.random.default_rng([seed, 77])
    halves = {"stratum": tuple("a" if i < 8 else "b" for i in range(16))}
    pairs = {"cluster": tuple(f"c{i // 2}" for i in range(20))}
    d_poisson = draw_data(gen, 13, 5)
    return [
        ("srs", sk.SRS(5), draw_data(gen, 16)),
        ("poisson", sk.Poisson(tuple(sk.compute_pips(d_poisson["mos"], 5))),
         d_poisson),
        ("rejective_poisson", sk.RejectivePoisson(4), draw_data(gen, 16, 4)),
        ("stratified", sk.Stratified((("a", sk.SRS(3)), ("b", sk.SRS(3)))),
         draw_data(gen, 16, **halves)),
        ("one_stage_cluster", sk.OneStageCluster(sk.SRS(5)),
         draw_data(gen, 20, **pairs)),
        ("brewer2", sk.Brewer2(), draw_data(gen, 20, 2)),
        ("durbin2", sk.Durbin2(), draw_data(gen, 20, 2)),
    ]


def ht_value(sample):
    return sk.ht_total(sample, sample.y_values()).value


def evaluate(design, frame):
    """One operation, the part that is timed."""
    return (sk.enumerate_design(design, frame), sk.joint_pips(design, frame),
            simulate.exact_expectation(design, frame, ht_value))


def check(frame, dist, pips, exact):
    """The identities an exact enumeration must meet; a failure text or None."""
    psum = math.fsum(p for _, p in dist)
    size = math.fsum(p * len(ids) for ids, p in dist)
    pisum = math.fsum(pips.first_order)
    total = math.fsum(frame.y)
    if not abs(psum - 1.0) <= TOL:
        return f"probabilities sum to {psum!r}"
    if not abs(pisum - size) <= TOL * max(1.0, size):
        return f"sum of pi {pisum!r} vs expected size {size!r}"
    if not abs(exact["mean"] - total) <= TOL * max(1.0, float(np.abs(frame.y).sum())):
        return f"exact HT mean {exact['mean']!r} vs total {total!r}"
    return None


class ExactEnum:
    name = "exact_enum"
    unit = "round"
    work_name = "support sets enumerated and evaluated per second, of the operations that passed"
    why = "exact enumeration: core.enumerate_design, Sample per support set, ht_total; no kernel work"
    in_process = True

    def setup(self, seed):
        state = {"cases": fixed_cases(seed)}
        self.run_unit(state, -1)  # warm-up
        return state

    def run_unit(self, state, k, tracer=None):
        cases = [(label, design, sk.Frame(**data))
                 for label, design, data in state["cases"]]
        unit = Unit()
        t0 = time.perf_counter()
        results = [unit.timed(lambda: evaluate(design, frame))
                   for _, design, frame in cases]
        unit.wall = time.perf_counter() - t0
        for (label, _, frame), res in zip(cases, results):
            if unit.record(f"round {k} {label}", res if isinstance(res, Exception)
                           else check(frame, *res)):
                unit.work += len(res[0])
        unit.extra["enum_points_per_s"] = (unit.work / unit.work_time, "1/s")
        return unit
