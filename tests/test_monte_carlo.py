"""`monte_carlo` draws a leaf design's replicates in batches through
`kernels._mc_rows`, each replicate on its own substream: a fixed-count
kernel's batched form takes row r of each block of uniforms from
replicate r's substream, and any other kernel (Lahiri PPSWR, and every
kernel on the numba backend) runs itself on that substream.  Replicate
values, mean and var must equal the `select` loop's bit for bit, and every
Sample the estimator sees must be the one `select` draws from that
replicate's substream.  Nested designs keep the loop."""

import functools
import time

import numpy as np
import pytest

import surveykit as sk
from surveykit import designs, kernels
from surveykit.design import Design, RngStream, _Leaf

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

FIELDS = ("idx", "pi", "multiplicity", "weights")


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
    with monkeypatch.context() as m:
        m.setattr(type(design), "mc_samples", Design.mc_samples)
        return sk.monte_carlo(design, frame, estimator, R, seed)


def assert_same_result(a, b):
    assert a["replicates"].tobytes() == b["replicates"].tobytes()
    assert (a["mean"], a["var"], a["se_of_mean"]) == (b["mean"], b["var"], b["se_of_mean"])


def test_every_leaf_design_is_covered():
    keys = {key for key, cls in Design.registry.items() if issubclass(cls, _Leaf)}
    assert {d.key for d in LEAVES.values()} == keys


@pytest.mark.parametrize("scalar", [False, True], ids=["batched", "scalar"])
@pytest.mark.parametrize("R", [2, 7, 1000])
@pytest.mark.parametrize("label", LEAVES)
def test_batched_replicates_are_the_select_loop(label, R, scalar, frame, monkeypatch):
    # chunks of a few replicates, so that every batched form splits its run
    monkeypatch.setattr(kernels, "_CHUNK_CELLS", 64)
    if scalar:  # the path numba takes: every kernel runs itself on each substream
        monkeypatch.setattr(kernels, "_BATCHED", {})
        monkeypatch.setattr(kernels, "_REWOUND", {})
    design = LEAVES[label]
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
            assert a.dtype == b.dtype and a.tobytes() == b.tobytes(), name
        assert (s.design_tag, s.flags, s.with_replacement) == \
            (ref.design_tag, ref.flags, ref.with_replacement)
        assert (s.n, s.n_distinct, s.ids) == (ref.n, ref.n_distinct, ref.ids)


@pytest.mark.parametrize("label", LEAVES)
def test_batched_leaf_designs_never_call_select(label, frame, monkeypatch):
    def refused(*args):
        raise AssertionError("select called")

    monkeypatch.setattr(designs, "select", refused)
    sk.monte_carlo(LEAVES[label], frame, ht_total_stat, 50, seed=2)


def test_designs_without_a_batch_run_the_select_loop(monkeypatch):
    design = sk.Stratified({"a": sk.SRS(2), "b": sk.Chao(2)})
    frame = sk.Frame(ids=tuple(f"u{i}" for i in range(12)), mos=MOS[:12],
                     stratum=tuple("aaaaaabbbbbb"), y=np.arange(12.0))
    calls = []
    select = designs.select
    monkeypatch.setattr(designs, "select", lambda *a: calls.append(1) or select(*a))
    batched = sk.monte_carlo(design, frame, ht_total_stat, 30, seed=4)
    assert len(calls) >= 30
    values = [ht_total_stat(s) for s in select_loop(design, frame, 30, 4)]
    assert batched["replicates"].tolist() == values


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
    assert len(calls) == (200 if sk.ACTIVE_BACKEND == "numba" else 0) + 200


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
