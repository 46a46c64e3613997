"""Exact enumeration from index tables against the per-set reference loops.

The reference builds each support the way the tuple-based code did: an
itertools loop of id tuples, the product of `_poisson_prob` per subset and a
dict merge in `_sorted_support`; `first_order`, `joint` and
`exact_expectation` loop over its sets.  The table-based code must give the
same sets, in the same order, and the same floats bit for bit."""

import gc
import itertools
import math
import time
import tracemalloc
import weakref

import numpy as np
import pytest

import surveykit as sk
from surveykit import core, simulate
from surveykit.core import NonProbabilityDesignError, SupportTooLargeError
from surveykit.design import Design
from surveykit.frame import Frame
from surveykit.simulate import sample_from_ids


# ---------------------------------------------------------------------------
# The reference: one Python loop per support set.

def _sorted_support(entries):
    merged = {}
    for ids, p in entries:
        key = tuple(sorted(ids))
        merged[key] = merged.get(key, 0.0) + p
    return tuple(sorted(merged.items(), key=lambda kv: kv[0]))


def _poisson_prob(combo, pi):
    inside = set(combo)
    p = 1.0
    for i in range(len(pi)):
        p *= pi[i] if i in inside else 1 - pi[i]
    return p


def _two_draws(design, p):
    if isinstance(design, sk.Brewer2):
        theta = p * (1 - p) / (1 - 2 * p)
        return theta / theta.sum(), lambda i, j: p[j] / (1 - p[i])
    N = p.size
    cond_raw = lambda i, j: p[j] * (1 / (1 - 2 * p[i]) + 1 / (1 - 2 * p[j]))
    norms = np.array([math.fsum(cond_raw(i, j) for j in range(N) if j != i)
                      for i in range(N)])
    return p.copy(), lambda i, j: cond_raw(i, j) / norms[i]


def reference_support(design, frame):
    N, ids = frame.n_units, frame.ids
    if isinstance(design, sk.SRS):
        prob = 1.0 / math.comb(N, design.n)
        entries = [(tuple(ids[i] for i in combo), prob)
                   for combo in itertools.combinations(range(N), design.n)]
    elif isinstance(design, (sk.Bernoulli, sk.Poisson)):
        pi = sk.first_order_pips(design, frame).first_order
        entries = [(tuple(ids[i] for i in combo), _poisson_prob(combo, pi))
                   for r in range(N + 1) for combo in itertools.combinations(range(N), r)]
        entries = [e for e in entries if e[1] > 0]
    elif isinstance(design, sk.Systematic):
        G = N // design.n
        entries = [(tuple(ids[r + k * G] for k in range((N - 1 - r) // G + 1)), 1.0 / G)
                   for r in range(G)]
    elif isinstance(design, sk.SystematicPPS):
        x = frame.mos
        a = x.sum() / design.n
        bounds = np.concatenate([[0.0], np.cumsum(x)])
        cuts = sorted({round(float(b % a), 15) for b in bounds} | {0.0, float(a)})
        pieces = [(lo, hi) for lo, hi in zip(cuts[:-1], cuts[1:]) if hi - lo > 1e-15]
        mids = np.array([[0.5 * (lo + hi)] for lo, hi in pieces])
        entries = [(tuple(ids[i] for i in chosen), (hi - lo) / a) for (lo, hi), chosen
                   in zip(pieces, sk.kernels._systematic_pps_walk(x, a, design.n, mids))]
    elif isinstance(design, (sk.Brewer2, sk.Durbin2)):
        p = frame.mos / frame.mos.sum()
        theta, cond = _two_draws(design, p)
        entries = [((ids[i], ids[j]), theta[i] * cond(i, j) + theta[j] * cond(j, i))
                   for i in range(N) for j in range(i + 1, N)]
    elif isinstance(design, sk.RejectivePoisson):
        work = design._working(frame)
        entries = [(tuple(ids[i] for i in combo), _poisson_prob(combo, work))
                   for combo in itertools.combinations(range(N), design.n)]
        total = math.fsum(p for _, p in entries)
        entries = [(s, p / total) for s, p in entries]
    elif isinstance(design, sk.Stratified):
        parts = [reference_support(design.child(label), frame.restrict(idx))
                 for label, idx in frame.strata()]
        entries = [(tuple(itertools.chain.from_iterable(s for s, _ in combo)),
                    math.prod(p for _, p in combo))
                   for combo in itertools.product(*parts)]
    elif isinstance(design, sk.OneStageCluster):
        cdist = reference_support(design.psu, sk.design._cluster_frame(frame))
        members = dict(frame.clusters())
        entries = [(tuple(itertools.chain.from_iterable(
                        (ids[i] for i in members[c]) for c in labels)), p)
                   for labels, p in cdist]
    else:
        raise AssertionError(f"no reference for {design!r}")
    return _sorted_support(entries)


def reference_first_order(support, frame):
    pi = np.zeros(frame.n_units)
    for ids, p in support:
        for u in ids:
            pi[frame.index_of(u)] += p
    return pi


def reference_joint(support, frame):
    n = frame.n_units
    pij = np.zeros((n, n))
    for ids, p in support:
        pos = [frame.index_of(u) for u in ids]
        for a in pos:
            for b in pos:
                pij[a, b] += p
    return pij


def reference_expectation(support, design, frame, statistic):
    pips = sk.first_order_pips(design, frame)
    mean_terms, sq_terms = [], []
    for ids, p in support:
        value = float(statistic(sample_from_ids(frame, ids, pips)))
        mean_terms.append(p * value)
        sq_terms.append(p * value * value)
    mean = math.fsum(mean_terms)
    return mean, math.fsum(sq_terms) - mean * mean


# ---------------------------------------------------------------------------
# Frames whose id order as strings differs from their index order.

def make_frame(N, style, seed):
    gen = np.random.default_rng([N, seed])
    ids = tuple(f"u{i}" for i in range(N)) if style == "u" else \
        tuple(str(N - 1 - i) for i in range(N))
    return Frame(ids=ids, mos=np.round(gen.uniform(1.0, 4.0, N), 3),
                 y=np.round(gen.normal(8, 3, N), 3),
                 stratum=tuple("a" if i < 6 else "b" for i in range(N)),
                 cluster=tuple(f"c{i // 3 if i < 9 else 3 + (i - 9) // 2}" for i in range(N)))


def designs_for(frame):
    pi = sk.compute_pips(frame.mos, 4)
    pi[0] = 1.0  # a certainty unit: the sets without it drop out
    return {
        "srs": sk.SRS(3),
        "bernoulli": sk.Bernoulli(0.3),
        "poisson": sk.Poisson(tuple(pi)),
        "systematic": sk.Systematic(3),
        "systematic_pps": sk.SystematicPPS(3),
        "brewer2": sk.Brewer2(),
        "durbin2": sk.Durbin2(),
        "rejective_poisson": sk.RejectivePoisson(3),
        "stratified": sk.Stratified((("a", sk.SRS(2)), ("b", sk.Bernoulli(0.4)))),
        "stratified_systematic": sk.Stratified((("a", sk.Systematic(2)),
                                                ("b", sk.SystematicPPS(1)))),
        "one_stage_cluster": sk.OneStageCluster(sk.SRS(2)),
        "one_stage_cluster_bernoulli": sk.OneStageCluster(sk.Bernoulli(0.5)),
    }


FRAMES = [(11, "u", 0), (11, "desc", 1), (13, "desc", 0), (13, "u", 1), (16, "u", 0),
          (16, "desc", 1)]
# the reference loops over 2^N subsets take seconds at N=16
CASES = [(f, label) for f in FRAMES for label in designs_for(make_frame(*f))
         if f[0] < 16 or label not in ("bernoulli", "poisson")]


def ht_value(sample):
    return sk.ht_total(sample, sample.y_values()).value


def enumerate_or_skip(design, frame):
    try:
        return sk.enumerate_design(design, frame)
    except IndexError:
        # the SystematicPPS rounding sliver of perfbench's strict xfail; the
        # reference steps past the last unit on the same frames
        with pytest.raises(IndexError):
            reference_support(design, frame)
        pytest.skip("SystematicPPS rounding sliver")


def bits(a):
    return np.asarray(a, dtype=float).tobytes()


@pytest.mark.parametrize("case, label", CASES, ids=[f"{label}-{c}" for c, label in CASES])
def test_enumeration_matches_the_reference_loops(case, label):
    frame = make_frame(*case)
    design = designs_for(frame)[label]
    dist = enumerate_or_skip(design, frame)
    ref = reference_support(design, frame)
    assert dist.support == ref
    assert [bits(p) for _, p in dist] == [bits(p) for _, p in ref]
    assert all(type(s) is tuple and all(type(u) is str for u in s) for s, _ in dist)
    assert bits(dist.first_order()) == bits(reference_first_order(ref, frame))
    assert bits(dist.joint()) == bits(reference_joint(ref, frame))
    if type(design).joint is Design.joint:  # the joint matrix of the enumeration
        jp = sk.joint_pips(design, frame)
        assert bits(jp.joint) == bits(reference_joint(ref, frame))
    exact = simulate.exact_expectation(design, frame, ht_value)
    mean, var = reference_expectation(ref, design, frame, ht_value)
    assert (bits(exact["mean"]), bits(exact["variance"])) == (bits(mean), bits(var))
    assert exact["support_size"] == len(ref)


def test_a_set_drawn_from_two_pieces_is_one_row_of_the_stratum_law():
    # on this frame stratum b's SystematicPPS(3) draws one set from two
    # pieces of the start interval, one of them a rounding sliver; its
    # probability is added up before it multiplies stratum a's, as the
    # reference adds it
    frame = make_frame(16, "u", 0)
    design = sk.Stratified((("a", sk.SRS(2)), ("b", sk.SystematicPPS(3))))
    dist = sk.enumerate_design(design, frame)
    ref = reference_support(design, frame)
    assert dist.support == ref
    assert [bits(p) for _, p in dist] == [bits(p) for _, p in ref]
    exact = simulate.exact_expectation(design, frame, ht_value)
    mean, var = reference_expectation(ref, design, frame, ht_value)
    assert (bits(exact["mean"]), bits(exact["variance"])) == (bits(mean), bits(var))


@pytest.mark.parametrize("cells", [1, 7, None], ids=["cells1", "cells7", "default"])
@pytest.mark.parametrize("label", list(designs_for(make_frame(13, "desc", 0))))
def test_statistic_sees_the_samples_sample_from_ids_builds(label, cells, monkeypatch):
    # Samples come in blocks of gathered rows: one row, a few rows, or the
    # whole table; ragged rows (Bernoulli, Poisson, Systematic) and full ones
    if cells is not None:
        monkeypatch.setattr(sk.kernels, "_CHUNK_CELLS", cells)
    frame = make_frame(13, "desc", 0)
    design = designs_for(frame)[label]
    seen, at_call = [], []

    def keep(s):
        seen.append(s)
        at_call.append([getattr(s, name).tobytes() for name in SAMPLE_ARRAYS])
        return ht_value(s)

    exact = simulate.exact_expectation(design, frame, keep)
    pips = sk.first_order_pips(design, frame)
    drawn = sk.select(design, frame, sk.RngStream(0))
    ref = reference_support(design, frame)
    assert len(seen) == len(ref)
    mean, var = reference_expectation(ref, design, frame, ht_value)
    assert (bits(exact["mean"]), bits(exact["variance"])) == (bits(mean), bits(var))
    for s, then, (ids, _) in zip(seen, at_call, ref):
        expect = sample_from_ids(frame, ids, pips)
        assert s.ids == expect.ids and s.n == expect.n
        # each kept Sample still holds its own values once later blocks exist
        assert [getattr(s, name).tobytes() for name in SAMPLE_ARRAYS] == then
        for name in SAMPLE_ARRAYS:
            got, want = getattr(s, name), getattr(expect, name)
            assert got.dtype == want.dtype and got.tobytes() == want.tobytes(), name
        # the fields a draw of the design gives its Samples
        for name in ("conditional_pi", "design_tag", "with_replacement", "phase1",
                     "phase1_labels", "flags"):
            assert getattr(s, name) == getattr(drawn, name)
        labels = None if drawn.psu_labels is None else tuple(frame.cluster[i] for i in s.idx)
        assert s.psu_labels == labels
        assert not s.pi.flags.writeable and not s.weights.flags.writeable
        assert s.y_values().flags.writeable  # a fresh array, not a view
        assert s.y_values().tobytes() == frame.y[expect.idx].tobytes()


SAMPLE_ARRAYS = ("idx", "pi", "weights", "multiplicity")


@pytest.mark.parametrize("cluster", ["abbbcccaadcd", "aaabbbcccddd"],
                         ids=["interleaved", "contiguous"])
def test_a_cluster_variance_read_from_the_labels_is_exact(cluster):
    # M^2 (1 - m/M) s_t^2 / m, its cluster totals t summed by psu_labels,
    # is the unbiased variance estimator of the HT total under SRS of m of
    # M clusters: its exact mean is the HT total's exact variance
    gen = np.random.default_rng(5)
    frame = Frame(ids=tuple(f"u{i}" for i in range(12)), cluster=tuple(cluster),
                  y=np.round(gen.normal(8, 3, 12), 3))
    M, m = 4, 2
    design = sk.OneStageCluster(sk.SRS(m))

    def cluster_variance(sample):
        totals = {}
        for label, y in zip(sample.psu_labels, sample.y_values().tolist()):
            totals[label] = totals.get(label, 0.0) + y
        assert len(totals) == m
        return M * M * (1 - m / M) * np.var(list(totals.values()), ddof=1) / m

    variance = simulate.exact_expectation(design, frame, ht_value)["variance"]
    mean = simulate.exact_expectation(design, frame, cluster_variance)["mean"]
    assert mean == pytest.approx(variance, rel=1e-12, abs=0)


def test_distribution_built_from_tuples():
    frame = make_frame(11, "desc", 1)
    gen = np.random.default_rng(4)
    sets = [tuple(gen.permutation(frame.ids)[:gen.integers(0, 5)]) for _ in range(30)]
    weights = gen.uniform(size=len(sets))
    support = tuple(zip(sets, (weights / math.fsum(weights)).tolist()))
    dist = sk.DesignDistribution(support, frame)
    assert dist.support == support  # kept as given, unsorted sets and all
    assert bits(dist.first_order()) == bits(reference_first_order(support, frame))
    assert bits(dist.joint()) == bits(reference_joint(support, frame))


def test_repeated_sets_add_up_in_table_order():
    # SystematicPPS can draw one set from several pieces of its interval;
    # with three or more entries the order of the additions shows in the
    # last bit
    frame = make_frame(11, "desc", 0)
    gen = np.random.default_rng(8)
    N = frame.n_units
    sets = [tuple(gen.choice(N, gen.integers(0, 4), replace=False)) for _ in range(6)]
    picks = gen.integers(0, len(sets), 60)
    rows = np.full((picks.size, 3), N)
    for row, k in zip(rows, picks):
        row[:len(sets[k])] = gen.permutation(sets[k])
        gen.shuffle(row)  # pads anywhere in the row
    prob = gen.uniform(size=picks.size)
    prob /= math.fsum(prob)
    dist = sk.DesignDistribution._from_table(rows, prob, frame)
    ref = _sorted_support([(tuple(frame.ids[i] for i in row if i < N), p)
                           for row, p in zip(rows, prob)])
    assert dist.support == ref
    assert [bits(p) for _, p in dist] == [bits(p) for _, p in ref]
    assert bits(dist.first_order()) == bits(reference_first_order(ref, frame))
    assert bits(dist.joint()) == bits(reference_joint(ref, frame))


def test_joint_adds_up_in_support_order_across_chunks(monkeypatch):
    frame = make_frame(11, "u", 1)
    dist = sk.enumerate_design(sk.Bernoulli(0.3), frame)
    monkeypatch.setattr(core, "_JOINT_CHUNK", 300)  # two rows of width 11 at a time
    assert bits(dist.joint()) == bits(reference_joint(dist.support, frame))


def test_table_distribution_acts_as_one_built_from_its_tuples():
    frame = make_frame(11, "desc", 0)
    dist = sk.enumerate_design(sk.Systematic(3), frame)
    assert len(dist) == 3 and "support" not in vars(dist)  # written when first read
    same = sk.DesignDistribution(dist.support, frame)
    assert dist.support is dist.support
    assert dist == same and hash(dist) == hash(same) and repr(dist) == repr(same)
    assert list(dist) == list(same.support) and len(same) == 3


def test_probability_of_looks_sets_up_by_their_sorted_ids():
    frame = make_frame(11, "desc", 0)
    dist = sk.enumerate_design(sk.SRS(2), frame)
    for ids, p in dist:
        assert dist.probability_of(ids[::-1]) == p
    assert dist.probability_of(("0", "1", "2")) == 0.0
    assert dist.probability_of(()) == 0.0
    # numbers name the units as their strings do
    assert dist.probability_of((10, 9)) == dist.probability_of(("9", "10")) > 0
    # a set listed twice answers with its first probability, as a scan would
    frame3 = Frame(ids=("1", "2", "3"))
    twice = sk.DesignDistribution(((("1", "2"), 0.25), (("1", "3"), 0.5),
                                   (("1", "2"), 0.25)), frame3)
    assert twice.probability_of(("2", "1")) == 0.25


# ---------------------------------------------------------------------------
# Guards.

@pytest.mark.parametrize("label", list(designs_for(make_frame(11, "u", 0))))
def test_exact_expectation_enumerates_once_without_id_lookups(label, monkeypatch):
    frame = make_frame(11, "u", 0)
    design = designs_for(frame)[label]
    calls = {"enumerate": 0, "index_of": 0}
    real_enumerate, real_index_of = simulate.enumerate_design, Frame.index_of
    made = []

    def counted_enumerate(*args, **kwargs):
        calls["enumerate"] += 1
        made.append(real_enumerate(*args, **kwargs))
        return made[-1]

    def counted_index_of(self, unit_id):
        calls["index_of"] += 1
        return real_index_of(self, unit_id)

    monkeypatch.setattr(simulate, "enumerate_design", counted_enumerate)
    monkeypatch.setattr(Frame, "index_of", counted_index_of)
    try:
        simulate.exact_expectation(design, frame, ht_value)
    except IndexError:
        pytest.skip("SystematicPPS rounding sliver")
    assert calls == {"enumerate": 1, "index_of": 0}
    assert "support" not in vars(made[0])  # the id tuples were never written


@pytest.mark.parametrize("design, N", [(sk.Poisson((0.5,) * 40), 40), (sk.SRS(50), 1000)],
                         ids=["poisson-40", "srs-50-of-1000"])
def test_cap_is_checked_before_any_table(design, N):
    frame = Frame(ids=tuple(map(str, range(N))), y=np.arange(float(N)))
    tracemalloc.start()
    try:
        with pytest.raises(SupportTooLargeError):
            sk.enumerate_design(design, frame)
        with pytest.raises(SupportTooLargeError):
            simulate.exact_expectation(design, frame, ht_value)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20  # a table of the support would take far more


class _ScaledPi(sk.SRS):
    """SRS reporting its inclusion probabilities times a factor."""

    key = None  # not a document variant
    factor = 1.0

    def first_order(self, frame):
        pips = super().first_order(frame)
        return core.InclusionProbs(pips.first_order * self.factor)


@pytest.mark.parametrize("factor", [10.0, 0.0, -1.0])
def test_pi_outside_the_unit_interval_is_refused(factor, monkeypatch):
    frame = make_frame(11, "desc", 0)
    monkeypatch.setattr(_ScaledPi, "factor", factor)
    design = _ScaledPi(2)
    ref = reference_support(sk.SRS(2), frame)
    with pytest.raises(NonProbabilityDesignError) as expected:
        reference_expectation(ref, design, frame, ht_value)
    with pytest.raises(NonProbabilityDesignError) as raised:
        simulate.exact_expectation(design, frame, ht_value)
    assert str(raised.value) == str(expected.value)


def test_exact_expectation_hands_the_support_over_block_by_block(monkeypatch):
    frame = make_frame(13, "u", 1)
    design = sk.Poisson(tuple(sk.compute_pips(frame.mos, 5)))
    rows = sk.enumerate_design(design, frame)._table()[0]
    assert rows.size > sk.kernels._CHUNK_CELLS  # 8192 sets of 13 cells
    blocks = []
    real = core.Sample._of_rows.__func__

    def spy(cls, frame, rows, pi, *args, **kwargs):
        blocks.append((rows, pi))
        return real(cls, frame, rows, pi, *args, **kwargs)

    monkeypatch.setattr(core.Sample, "_of_rows", classmethod(spy))
    simulate.exact_expectation(design, frame, ht_value)
    step = max(1, sk.kernels._CHUNK_CELLS // rows.shape[1])
    assert len(blocks) > 1 and all(len(block) <= step for block, _ in blocks)
    assert np.concatenate([block for block, _ in blocks]).tobytes() == rows.tobytes()
    gathered = np.append(sk.first_order_pips(design, frame).first_order, 1.0)
    assert all(pi.tobytes() == gathered[block].tobytes() for block, pi in blocks)


class _LastUnitOutside(sk.SRS):
    """SRS reporting an inclusion probability of 0 for its frame's last unit."""

    key = None  # not a document variant

    def first_order(self, frame):
        pi = super().first_order(frame).first_order.copy()
        pi[-1] = 0.0
        return core.InclusionProbs(pi)


def test_a_bad_pi_is_refused_before_the_statistic_sees_a_set(monkeypatch):
    monkeypatch.setattr(sk.kernels, "_CHUNK_CELLS", 1)  # a block per set
    frame = Frame(ids=("a", "b", "c", "d"), y=np.arange(4.0))
    design = _LastUnitOutside(2)
    rows = sk.enumerate_design(design, frame)._table()[0]
    assert 3 not in rows[0] and 3 in rows  # "d" first appears after the first set
    with pytest.raises(NonProbabilityDesignError) as expected:
        sk.Sample(frame, [0, 3], [0.5, 0.0])
    seen = []
    with pytest.raises(NonProbabilityDesignError) as raised:
        simulate.exact_expectation(design, frame, lambda s: seen.append(s) or 0.0)
    assert seen == []
    assert str(raised.value) == str(expected.value)


# ---------------------------------------------------------------------------
# The support table a frame keeps.

def exact_enum_designs(frame):
    """The enumerable designs of perfbench's exact_enum round, and the
    cluster design, on a make_frame frame."""
    return {
        "srs": sk.SRS(4),
        "poisson": sk.Poisson(tuple(sk.compute_pips(frame.mos, 4))),
        "rejective_poisson": sk.RejectivePoisson(4),
        "stratified": sk.Stratified((("a", sk.SRS(3)), ("b", sk.SRS(2)))),
        "one_stage_cluster": sk.OneStageCluster(sk.SRS(2)),
        "brewer2": sk.Brewer2(),
        "durbin2": sk.Durbin2(),
    }


def count_support_calls(monkeypatch, design_type):
    calls = []
    real = design_type.support

    def counted(self, frame, cap):
        calls.append(self)
        return real(self, frame, cap)

    monkeypatch.setattr(design_type, "support", counted)
    return calls


@pytest.mark.parametrize("label", list(exact_enum_designs(make_frame(13, "u", 0))))
def test_one_enumeration_serves_enumerate_joint_and_expectation(label, monkeypatch):
    frame = make_frame(13, "u", 0)
    design = exact_enum_designs(frame)[label]
    calls = count_support_calls(monkeypatch, type(design))
    dist = sk.enumerate_design(design, frame)
    joint = sk.joint_pips(design, frame)
    exact = simulate.exact_expectation(design, frame, ht_value)
    again = sk.enumerate_design(design, frame)
    assert len(calls) == 1
    assert again is not dist and again._rows is dist._rows and again._prob is dist._prob
    assert not dist._prob.flags.writeable and not dist._rows.flags.writeable
    # what a frame that never saw the design gives, bit for bit
    cold = make_frame(13, "u", 0)
    assert again.support == sk.enumerate_design(design, cold).support
    assert bits(joint.joint) == bits(sk.joint_pips(design, make_frame(13, "u", 0)).joint)
    assert exact == simulate.exact_expectation(design, make_frame(13, "u", 0), ht_value)


def test_a_smaller_cap_on_a_kept_table_raises():
    frame = make_frame(11, "u", 0)
    assert len(sk.enumerate_design(sk.SRS(3), frame)) == 165
    with pytest.raises(SupportTooLargeError):
        sk.enumerate_design(sk.SRS(3), frame, cap=164)
    with pytest.raises(SupportTooLargeError):
        simulate.exact_expectation(sk.SRS(3), frame, ht_value, cap=164)
    assert len(sk.enumerate_design(sk.SRS(3), frame, cap=165)) == 165


def test_the_cap_bounds_the_set_count_of_every_design():
    # Brewer2 counts no sets before it builds them; the built table is held
    # to the cap all the same, so a warm frame answers as a cold one
    cold, warm = make_frame(11, "u", 0), make_frame(11, "u", 0)
    assert len(sk.enumerate_design(sk.Brewer2(), warm)) == 55
    for frame in (cold, warm):
        with pytest.raises(SupportTooLargeError):
            sk.enumerate_design(sk.Brewer2(), frame, cap=54)


def test_a_second_design_evicts_the_first(monkeypatch):
    frame = make_frame(11, "u", 0)
    calls = count_support_calls(monkeypatch, sk.SRS)
    first, second = sk.SRS(3), sk.SRS(2)
    sk.enumerate_design(first, frame)
    sk.enumerate_design(second, frame)
    assert frame._cache["support"][0] == second
    assert sum(1 for key in frame._cache if key == "support") == 1
    sk.enumerate_design(second, frame)
    sk.enumerate_design(first, frame)
    assert calls == [first, second, first]
    # an equal design, not only the same object, finds the table
    sk.enumerate_design(sk.SRS(3), frame)
    assert len(calls) == 3


def test_the_kept_table_leaves_no_reference_cycle_to_the_frame():
    gc.disable()
    try:
        for label in exact_enum_designs(make_frame(13, "u", 0)):
            frame = make_frame(13, "u", 0)
            design = exact_enum_designs(frame)[label]
            dist = sk.enumerate_design(design, frame)
            sk.joint_pips(design, frame)
            simulate.exact_expectation(design, frame, ht_value)
            ref = weakref.ref(frame)
            del frame, dist
            assert ref() is None, label
    finally:
        gc.enable()


def test_exact_expectation_budget():
    # 2^13 sets; about 0.05 s on a 2-core VM, so only a pathological
    # regression of the per-set path crosses the budget
    frame = make_frame(13, "u", 1)
    design = sk.Poisson(tuple(sk.compute_pips(frame.mos, 5)))
    t0 = time.perf_counter()
    exact = simulate.exact_expectation(design, frame, ht_value)
    elapsed = time.perf_counter() - t0
    assert exact["support_size"] == 8192
    assert elapsed < 1.0


def test_units_of_pi_one_add_no_candidate_sets():
    # 35 of 40 units are certain: 2^5 sets, where 2^40 would pass any cap
    design = sk.Poisson((1.0,) * 35 + (0.5,) * 5)
    frame = Frame(ids=tuple(map(str, range(40))), y=np.arange(40.0))
    for _ in range(2):  # a cold frame, then a warm one
        with pytest.raises(SupportTooLargeError):
            sk.enumerate_design(design, frame, cap=31)
        dist = sk.enumerate_design(design, frame, cap=32)
        assert len(dist) == 32
    assert all(len(ids) >= 35 for ids, _ in dist)
    assert simulate.exact_expectation(design, frame, ht_value)["mean"] == \
        pytest.approx(frame.y.sum(), rel=1e-12)
