"""`monte_carlo` draws a leaf design's replicates in batches through
`kernels._mc_rows`, each replicate on its own substream: a fixed-count
kernel's batched form takes row r of each block of uniforms from
replicate r's substream, on both backends, and any other kernel (Lahiri
PPSWR, the rejective reference) runs itself on that substream.  Stratified,
one-stage cluster and two-stage designs compose their children's rows
with the same per-replicate source; a two-phase design draws its phase-1
rows on those substreams, then its rule's batched form reads each
replicate's cells from its substream (a plain callable rule is called on
each).  Replicate
values, mean and var must equal the `select` loop's bit for bit, and
every Sample the estimator sees must be the one `select` draws from that
replicate's substream."""

import functools
import math
import time

import numpy as np
import pytest

import surveykit as sk
from surveykit import designs, kernels
from surveykit.design import Design, Phase2Rule, RngStream, _Leaf
from test_simulate import NESTED_CASES, NESTED_FRAME

N = 40
MOS = np.array([3, 1, 2, 4, 1, 1, 2, 3, 2, 2] * 4, dtype=float)

# every leaf design of Design.registry, with each SRS and PPSWR method
LEAVES = {
    **{f"srs-{m}": sk.SRS(4, m) for m in
       ("draw_by_draw", "selection_rejection", "reservoir", "random_sort")},
    "srswr": sk.SRSWR(4),
    "bernoulli": sk.Bernoulli(0.1),  # draws the empty sample now and then
    "poisson": sk.Poisson(tuple(np.clip(sk.compute_pips(MOS, 4), 0.05, 1.0))),
    "systematic": sk.Systematic(4),
    "systematic_pps": sk.SystematicPPS(4),
    "ppswr-cumulative": sk.PPSWR(4),
    "ppswr-lahiri": sk.PPSWR(4, "lahiri"),
    "brewer2": sk.Brewer2(),
    "durbin2": sk.Durbin2(),
    "chao": sk.Chao(2),
    "rejective_poisson": sk.RejectivePoisson(4),
}

FIELDS = ("idx", "pi", "multiplicity", "weights", "conditional_pi")


def halve(phase1_sample, frame, rng):
    """A user's phase-2 rule, a plain function without `mc_cond`: each
    phase-1 unit with probability 1/2.  It returns (local, cond) only."""
    local = np.flatnonzero(rng.random(phase1_sample.idx.size) < 0.5)
    return local, np.full(local.size, 0.5)


# nested designs on NESTED_FRAME, whose units carry strata and clusters
NESTED = {
    **NESTED_CASES,
    "stratified": sk.Stratified({"a": sk.Chao(2), "b": sk.SRS(2, "reservoir")}),
    "stratified-bernoulli": sk.Stratified({"a": sk.Bernoulli(0.3), "b": sk.Systematic(2)}),
    "stratified-two_phase": sk.Stratified({
        "a": sk.TwoPhase(sk.SRS(4), sk.StratifyOnAux(rate=0.5)),
        "b": sk.TwoPhase(sk.SRS(4), sk.PoissonOnAux(2))}),
    "one_stage_cluster": sk.OneStageCluster(sk.SRS(2)),
    "one_stage_cluster-pps": sk.OneStageCluster(sk.SystematicPPS(2)),
    "one_stage_cluster-bernoulli": sk.OneStageCluster(sk.Bernoulli(0.4)),
    "two_stage-nested_ssu": sk.TwoStage(sk.Brewer2(), sk.SRS(2), per_cluster={
        "c0": sk.OneStageCluster(sk.SRS(1)), "c3": sk.RejectivePoisson(2)}),
    "two_phase-callable": sk.TwoPhase(sk.Stratified({"a": sk.SRS(3), "b": sk.Poisson(
        tuple(np.linspace(0.3, 0.8, 6)))}), halve),
    "stratified-two_phase-callable": sk.Stratified({
        "a": sk.TwoPhase(sk.SRS(4), halve), "b": sk.SRS(2)}),
}


@pytest.fixture
def frame():
    y = np.round(np.random.default_rng(8).normal(8.0, 3.0, N), 3)
    return sk.Frame(ids=tuple(f"u{i}" for i in range(N)), mos=MOS, y=y)


def ht_total_stat(sample):
    return sk.ht_total(sample, sample.y_values()).value


def select_loop(design, frame, R, seed):
    return [sk.select(design, frame, RngStream(seed).substream(r)) for r in range(R)]


def loop_result(design, frame, estimator, R, seed, monkeypatch):
    """monte_carlo with the design's Samples drawn by the select loop."""
    def loop(self, frame, R, base):
        return (sk.select(self, frame, base.substream(r)) for r in range(R))

    with monkeypatch.context() as m:
        m.setattr(type(design), "mc_samples", loop)
        return sk.monte_carlo(design, frame, estimator, R, seed)


def assert_same_result(a, b):
    assert a["replicates"].tobytes() == b["replicates"].tobytes()
    assert (a["mean"], a["var"], a["se_of_mean"]) == (b["mean"], b["var"], b["se_of_mean"])


def test_every_leaf_design_is_covered():
    keys = {key for key, cls in Design.registry.items() if issubclass(cls, _Leaf)}
    assert {d.key for d in LEAVES.values()} == keys


# R = 1030 spans two chunks of a nested design's per-replicate Generators
@pytest.mark.parametrize("scalar", [False, True], ids=["batched", "scalar"])
@pytest.mark.parametrize("label, R", [(label, R) for label in LEAVES for R in (2, 7, 1000)]
                         + [(label, R) for label in NESTED for R in (2, 30)]
                         + [("stratified", 1030), ("two_stage-per_cluster", 1030),
                            ("two_phase-rate", 1030)])
def test_batched_replicates_are_the_select_loop(label, R, scalar, frame, monkeypatch):
    # chunks of a few replicates, so that every batched form splits its run
    monkeypatch.setattr(kernels, "_CHUNK_CELLS", 64)
    if scalar:  # every kernel on the per-replicate fallback, which Lahiri's kernel
        # takes on these substreams and the rejective reference always, as its loop
        monkeypatch.setattr(kernels, "_BATCHED", {})
        monkeypatch.setattr(kernels, "_REWOUND", {})
        for name, loop in kernels._LOOPS.items():
            monkeypatch.setattr(kernels, name, loop)
    design, frame = (LEAVES[label], frame) if label in LEAVES else (NESTED[label], NESTED_FRAME)
    seen = []

    def statistic(sample):
        seen.append(sample)
        return ht_total_stat(sample)

    batched = sk.monte_carlo(design, frame, statistic, R, seed=13)
    assert_same_result(batched, loop_result(design, frame, ht_total_stat, R, 13, monkeypatch))
    assert len(seen) == R
    for s, ref in zip(seen, select_loop(design, frame, R, 13)):
        for name in FIELDS:
            a, b = getattr(s, name), getattr(ref, name)
            assert (a is None) == (b is None), name
            if a is not None:
                assert a.dtype == b.dtype and a.tobytes() == b.tobytes(), name
        assert (s.design_tag, s.flags, s.with_replacement, s.psu_labels) == \
            (ref.design_tag, ref.flags, ref.with_replacement, ref.psu_labels)
        assert (s.n, s.n_distinct, s.ids) == (ref.n, ref.n_distinct, ref.ids)
        # the frame's own labels, or a two-phase rule's strata
        for labels in (s.psu_labels, s.phase1_labels):
            assert {type(x) for x in labels or ()} <= {str}
        if s.design_tag in ("one_stage_cluster", "two_stage"):
            assert s.psu_labels is not None


@pytest.mark.parametrize("cells", [1, 7, None], ids=["cells1", "cells7", "default"])
@pytest.mark.parametrize("label", ["srswr", "ppswr-cumulative", "ppswr-lahiri"])
def test_with_replacement_rows_are_the_samples_select_draws(label, cells, frame, monkeypatch):
    # `Sample._of_rows` with a table of draw counts, gathered one row, a few
    # rows or the whole batch at a time
    if cells is not None:
        monkeypatch.setattr(kernels, "_CHUNK_CELLS", cells)
    design = LEAVES[label]
    samples = list(design.mc_samples(frame, 40, RngStream(5)))
    refs = select_loop(design, frame, 40, 5)
    assert len(samples) == len(refs)
    assert any(s.n_distinct < s.n for s in refs)  # some unit drawn twice
    for s, ref in zip(samples, refs):
        for name in FIELDS:
            a, b = getattr(s, name), getattr(ref, name)
            assert (a is None) == (b is None), name
            if a is not None:
                assert a.dtype == b.dtype and a.tobytes() == b.tobytes(), name
        assert (s.design_tag, s.flags, s.with_replacement, s.n) == \
            (ref.design_tag, ref.flags, ref.with_replacement, ref.n)
        assert not s.pi.flags.writeable and not s.multiplicity.flags.writeable


@pytest.mark.parametrize("label", LEAVES)
def test_batched_leaf_designs_never_call_select(label, frame, monkeypatch):
    def refused(*args):
        raise AssertionError("select called")

    monkeypatch.setattr(designs, "select", refused)
    sk.monte_carlo(LEAVES[label], frame, ht_total_stat, 50, seed=2)


def test_designs_without_a_batch_never_call_select(monkeypatch):
    # a stratified design composes its strata's rows; a two-phase design
    # batches its phase-1 rows and its rule's batched form
    frame = sk.Frame(ids=tuple(f"u{i}" for i in range(12)), mos=MOS[:12],
                     stratum=tuple("aaaaaabbbbbb"), aux=MOS[:12, None], y=np.arange(12.0))
    select = designs.select
    for design in [sk.Stratified({"a": sk.SRS(2), "b": sk.Chao(2)}),
                   sk.TwoPhase(sk.SRS(6), sk.PoissonOnAux(3))]:
        values = [ht_total_stat(s) for s in select_loop(design, frame, 30, 4)]
        calls = []
        with monkeypatch.context() as m:
            m.setattr(designs, "select", lambda *a: calls.append(1) or select(*a))
            batched = sk.monte_carlo(design, frame, ht_total_stat, 30, seed=4)
        assert not calls
        assert batched["replicates"].tolist() == values


@pytest.mark.parametrize("label", [label for label, design in NESTED_CASES.items()
                                   if isinstance(getattr(design, "phase2", None),
                                                 Phase2Rule)])
def test_two_phase_batches_never_call_a_declarative_rule(label, monkeypatch):
    # the rule's batched form runs once a batch, not its call once a replicate
    def refused(*args):
        raise AssertionError("a declarative rule was called once a replicate")

    design = NESTED_CASES[label]
    for cls in (Phase2Rule, type(design.phase2)):
        monkeypatch.setattr(cls, "__call__", refused)
    out = sk.monte_carlo(design, NESTED_FRAME, ht_total_stat, 30, seed=3)
    assert out["replicates"].shape == (30,)


@pytest.mark.parametrize("label", NESTED)
def test_nested_select_composes_rows_without_select(label, monkeypatch):
    def refused(*args):
        raise AssertionError("designs.select called")

    design = NESTED[label]
    rng = np.random.default_rng(7)
    monkeypatch.setattr(designs, "select", refused)
    for _ in range(5):
        design.draw(NESTED_FRAME, rng)
    sk.monte_carlo(design, NESTED_FRAME, ht_total_stat, 20, seed=2)


def test_one_replicate_leaf_batch_is_one_kernel_call(frame, monkeypatch):
    # a lone replicate on a shared Generator runs the scalar kernel once, on
    # the uniforms select draws, and leaves the stream where select does
    calls = []
    kernel = kernels.srs_selection_rejection

    @functools.wraps(kernel)
    def traced(*args):
        calls.append(1)
        return kernel(*args)

    monkeypatch.setattr(kernels, "srs_selection_rejection", traced)
    design = sk.SRS(4)
    rng_rows, rng_sel = np.random.default_rng(3), np.random.default_rng(3)
    idx, pi = design.mc_rows(frame, 1, rng_rows)
    assert len(calls) == 1
    sample = sk.select(design, frame, rng_sel)
    assert idx[0].tolist() == sample.idx.tolist() and pi[0].tobytes() == sample.pi.tobytes()
    assert rng_rows.random() == rng_sel.random()


def test_a_wrapped_kernel_keeps_the_batch(frame, monkeypatch):
    # a tracer installs functools.wraps wrappers over the public kernels
    calls = []
    kernel = kernels.srs_selection_rejection

    @functools.wraps(kernel)
    def traced(*args):
        calls.append(1)
        return kernel(*args)

    monkeypatch.setattr(kernels, "srs_selection_rejection", traced)
    design = sk.SRS(4)
    batched = sk.monte_carlo(design, frame, ht_total_stat, 200, seed=6)
    looped = loop_result(design, frame, ht_total_stat, 200, 6, monkeypatch)
    assert_same_result(batched, looped)
    assert len(calls) == 200  # the select loop's; the batch calls no kernel


def test_a_wrapper_over_a_wrapping_key_finds_that_key():
    # numba's Dispatcher wraps its Python function (functools.update_wrapper),
    # so the batch tables are keyed by wrappers; a tracer's wrapper over one
    # must unwrap to that key, not on to the Python loop behind it
    def loop():
        pass

    @functools.wraps(loop)
    def dispatcher():
        pass

    @functools.wraps(dispatcher)
    def traced():
        pass

    form = object()
    table = {dispatcher: form}
    assert kernels._entry(table, traced) is form
    assert kernels._entry(table, dispatcher) is form
    assert kernels._entry(table, loop) is None


def test_mean_and_var_are_the_replicate_loops_sums(frame):
    # compensated sums of the replicate values and of (v - mean) ** 2, as a
    # loop over numpy floats adds them: ** 2 is libm's pow there, which
    # rounds some squares differently from d * d (glibc's does on this d)
    d = 1.6121007653006214
    for R, values in [(2, [-d, d]), (2000, None)]:
        source = iter(values or ())
        statistic = (lambda s: next(source)) if values else ht_total_stat
        res = sk.monte_carlo(sk.PPSWR(4), frame, statistic, R, seed=9)
        values = res["replicates"]
        mean = math.fsum(values) / R
        var = math.fsum((v - mean) ** 2 for v in values) / (R - 1)
        assert values.dtype == np.float64 and values.shape == (R,)
        assert (res["mean"], res["var"]) == (mean, var)
        assert res["se_of_mean"] == math.sqrt(var / R)


def test_srs_monte_carlo_time_budget():
    # R = 1000 replicates of SRS(50) from N = 1000, as CLI simulate runs
    # them; about 0.15 s batched on a 2-core VM, where the select loop took
    # about 0.4 s
    gen = np.random.default_rng(4)
    frame = sk.Frame(ids=tuple(map(str, range(1000))), y=gen.normal(8.0, 3.0, 1000))
    start = time.perf_counter()
    out = sk.monte_carlo(sk.SRS(50), frame, ht_total_stat, 1000, seed=1)
    assert time.perf_counter() - start < 2.0
    assert out["replicates"].size == 1000


def test_nested_monte_carlo_time_budget():
    # R = 1000 replicates of two SRS(25) strata from N = 1000: about 0.05 s
    # composed from the strata's rows on a 2-core VM, where the select loop
    # took about 0.2 s
    gen = np.random.default_rng(4)
    frame = sk.Frame(ids=tuple(map(str, range(1000))), stratum=("a", "b") * 500,
                     y=gen.normal(8.0, 3.0, 1000))
    design = sk.Stratified({"a": sk.SRS(25), "b": sk.SRS(25)})
    start = time.perf_counter()
    out = sk.monte_carlo(design, frame, ht_total_stat, 1000, seed=1)
    assert time.perf_counter() - start < 1.0
    assert out["replicates"].size == 1000
