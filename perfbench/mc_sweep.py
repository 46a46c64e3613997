"""Workload `mc_sweep`: the criterion-9 design-consistency sweep.

One unit runs the 19 designs of `test_criterion_9`, one after another,
through `simulate.design_consistency_mc` at R replicates each, and then the
single-draw kernel cases of `benchmarks/bench_backends.py` (N=1000, n=50),
so that every kernel keeps a per-layer timing.  `work_per_s` is the sweep's
replicates per second, counting only the replicates of designs that passed
their gate; the kernel cases feed only the per-layer metrics.

The frame follows the criterion-9 recipe (N=12, mos U(1,4) rounded to 3
places, y N(8,3)) drawn from the seed.  A frame that breaks Chao's
documented precondition (a stream unit above certainty) is an invalid input
and is drawn again.
"""

import math
import time

import numpy as np

import surveykit as sk
from surveykit import kernels, simulate
from surveykit.design import RngStream

from harness import Unit
from layers import DESIGN_LABELS
from tracer import maybe_span

R = 1000
KERNEL_DRAWS = 5

# Criterion 9 uses a 3-sigma band for one fixed seed.  A run here makes about
# 250 checks per sweep, some 10^4 in a 30 s run, on seeds chosen at run time,
# so 3 sigma would fail a correct program in every run; at 6 sigma (2e-9 per
# check) a correct run fails by chance about twice in 10^5 runs.  The 5e-4
# floor is criterion 9's.
Z_BAND = 6.0
FLOOR = 5e-4


def chao_valid(mos, n):
    running = np.cumsum(mos)
    return bool(np.all(n * mos[n:] / running[n:] <= 1 + 1e-12))


def criterion9_designs(seed):
    """The 19 (label, design, frame) triples of test_criterion_9."""
    gen = np.random.default_rng([seed, 9])
    N = 12
    while True:
        mos = np.round(gen.uniform(1.0, 4.0, N), 3)
        y = np.round(gen.normal(8, 3, N), 3)
        if chao_valid(mos, 3):
            break
    strata = tuple("a" if i < 6 else "b" for i in range(N))
    clusters = tuple(f"c{i // 3}" for i in range(N))
    frame = sk.Frame(ids=tuple(map(str, range(N))), mos=mos, y=y)
    sframe = sk.Frame(ids=frame.ids, mos=mos, stratum=strata, y=y)
    cframe = sk.Frame(ids=frame.ids, mos=mos, cluster=clusters, y=y)
    aframe = sk.Frame(ids=frame.ids, mos=mos, aux=mos[:, None], y=y,
                      stratum=strata)
    work = tuple(sk.compute_pips(mos, 3) * 0.9)
    designs = (
        sk.SRS(4, "draw_by_draw"), sk.SRS(4, "selection_rejection"),
        sk.SRS(4, "reservoir"), sk.SRS(4, "random_sort"), sk.SRSWR(5),
        sk.Bernoulli(0.35), sk.Poisson(tuple(sk.compute_pips(mos, 4))),
        sk.Systematic(4), sk.SystematicPPS(3), sk.PPSWR(4, "cumulative"),
        sk.PPSWR(4, "lahiri"), sk.Brewer2(), sk.Durbin2(), sk.Chao(3),
        sk.RejectivePoisson(3, work),
        sk.Stratified((("a", sk.SRS(2)), ("b", sk.SRS(3)))),
        sk.OneStageCluster(sk.SRS(2)), sk.TwoStage(sk.SRS(2), sk.SRS(2)),
        sk.TwoPhase(sk.SRS(6), sk.StratifyOnAux(rate=0.5)),
    )
    frames = (frame,) * 15 + (sframe, cframe, cframe, aframe)
    return list(zip(DESIGN_LABELS, designs, frames))


def appearance_target(design, frame):
    """Analytic probability that each unit appears in a replicate, or None
    when it is design-random (two-phase)."""
    if isinstance(design, (sk.SRSWR, sk.PPSWR)):
        p = sk.first_order_pips(design, frame).first_order
        return 1 - (1 - p) ** design.n
    if isinstance(design, sk.TwoPhase):
        return None
    return sk.first_order_pips(design, frame).first_order


def gate(hits, vals, target, total, replicates):
    """Criterion-9 check of one design run; returns a failure text or None."""
    if target is not None:
        freq = hits / replicates
        band = Z_BAND * np.sqrt(np.maximum(target * (1 - target), 1e-12)
                                / replicates)
        if np.any(np.abs(freq - target) > np.maximum(band, FLOOR)):
            return f"inclusion off by {np.max(np.abs(freq - target)):.3g}"
    mean = float(np.mean(vals))
    se = float(np.std(vals, ddof=1)) / math.sqrt(replicates)
    if not abs(mean - total) <= Z_BAND * se:
        return f"HT mean {mean:.4f} vs total {total:.4f}"
    return None


def kernel_cases(seed):
    """The bench_backends.py kernel cases: name -> (call, check)."""
    N, n = 1000, 50
    g = np.random.default_rng([seed, 1000])
    x = np.abs(g.normal(2.0, 0.5, N)) + 0.1
    pips = sk.compute_pips(x, n) * 0.9
    cum = np.cumsum(x)
    small_p = np.array([0.1, 0.2, 0.3, 0.4])

    def fixed(size, M=N):
        return lambda idx: (idx.shape == (size,) and len(set(idx.tolist())) == size
                            and 0 <= idx.min() and idx.max() < M)

    def in_range(size):
        return lambda idx: idx.shape == (size,) and 0 <= idx.min() and idx.max() < N

    calls = {
        "srs_draw_by_draw": (lambda r: kernels.srs_draw_by_draw(n, N, r), fixed(n)),
        "srs_selection_rejection": (
            lambda r: kernels.srs_selection_rejection(n, N, r), fixed(n)),
        "srs_reservoir": (lambda r: kernels.srs_reservoir(n, N, r), fixed(n)),
        "srs_random_sort": (lambda r: kernels.srs_random_sort(n, N, r), fixed(n)),
        "srswr_draws": (lambda r: kernels.srswr_draws(n, N, r), in_range(n)),
        "poisson_select": (lambda r: kernels.poisson_select(pips, r),
                           lambda m: m.shape == (N,) and m.dtype == np.bool_),
        "systematic_pps_select": (
            lambda r: kernels.systematic_pps_select(x, n, r), in_range(n)),
        "ppswr_cumulative": (lambda r: kernels.ppswr_cumulative(cum, n, r),
                             in_range(n)),
        "brewer2_select": (lambda r: kernels.brewer2_select(small_p, r),
                           fixed(2, small_p.size)),
        "chao_select": (lambda r: kernels.chao_select(x, n, r), fixed(n)),
        "rejective_poisson_select": (
            lambda r: kernels.rejective_poisson_select(pips, n, 10_000, r),
            fixed(n)),
    }
    return calls


class McSweep:
    name = "mc_sweep"
    unit = "sweep"
    work_name = "MC replicates of the designs that passed, per second of the 19-design sweep"
    why = "criterion-9 sweep: batched kernels.mc_* drivers plus the select() loop of two_stage/two_phase"
    in_process = True

    def setup(self, seed):
        cases = []
        for label, design, frame in criterion9_designs(seed):
            cases.append((label, design, frame, appearance_target(design, frame),
                          float(frame.y.sum())))
        kcases = kernel_cases(seed)
        state = {"seed": seed, "cases": cases, "kernels": kcases}
        self.run_unit(state, -1)  # warm-up: one sweep on streams no unit uses
        return state

    def run_unit(self, state, k, tracer=None):
        seed = state["seed"]
        unit = Unit()
        results = []
        t0 = time.perf_counter()
        for j, (label, design, frame, _, _) in enumerate(state["cases"]):
            rng = RngStream(seed, 1_000_000 + 100 * (k + 1) + j).generator()

            def sweep_one():
                with maybe_span(tracer, "bench.design." + label):
                    return simulate.design_consistency_mc(design, frame, R, rng)

            results.append(unit.timed(sweep_one))
        t1 = time.perf_counter()
        kernel_out = {}
        for j, (name, (call, _)) in enumerate(state["kernels"].items()):
            rng = RngStream(seed, 2_000_000 + 100 * (k + 1) + j).generator()
            try:
                with maybe_span(tracer, "bench.kernel." + name):
                    kernel_out[name] = [call(rng) for _ in range(KERNEL_DRAWS)]
            except Exception as exc:
                kernel_out[name] = exc
        t2 = time.perf_counter()
        unit.wall = t2 - t0
        for (label, _, _, target, total), res in zip(state["cases"], results):
            if unit.record(f"sweep {k} {label}", res if isinstance(res, Exception)
                           else gate(res[0], res[1], target, total, R)):
                unit.work += R
        unit.extra["mc_replicates_per_s"] = (unit.work / unit.work_time, "1/s")
        unit.extra["kernel_cases_s"] = (t2 - t1, "s")
        for name, (_, check) in state["kernels"].items():
            out = kernel_out[name]
            unit.record(f"sweep {k} kernel {name}", out if isinstance(out, Exception)
                        else None if all(map(check, out)) else "malformed sample")
        return unit
