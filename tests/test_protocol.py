"""Every design class honours the whole design protocol on one small frame.

A design class added to surveykit.design without a case here, or without
one of the protocol methods, fails these tests."""

import collections
import itertools
import math
import re
from pathlib import Path

import numpy as np
import pytest

import surveykit as sk
from surveykit import kernels, simulate
from surveykit.core import NonEnumerableError
from surveykit.design import Design, DesignError, _Leaf
from surveykit.simulate import design_consistency_mc

N = 8
R = 20

FRAME = sk.Frame(
    ids=tuple(f"u{i}" for i in range(N)),
    mos=np.array([2.0, 3.0, 2.5, 1.5, 3.0, 2.0, 3.5, 4.0]),
    stratum=tuple("aaaabbbb"),
    cluster=("c0", "c0", "c1", "c1", "c2", "c2", "c3", "c3"),
    aux=np.arange(1.0, N + 1)[:, None],
    y=2 * np.arange(1.0, N + 1),
)

# design class -> (an instance, whether its support can be enumerated)
CASES = {
    sk.SRS: (sk.SRS(3), True),
    sk.SRSWR: (sk.SRSWR(3), False),
    sk.Bernoulli: (sk.Bernoulli(0.4), True),
    sk.Poisson: (sk.Poisson(tuple(np.linspace(0.2, 0.9, N))), True),
    sk.Systematic: (sk.Systematic(3), True),
    sk.SystematicPPS: (sk.SystematicPPS(3), True),
    sk.PPSWR: (sk.PPSWR(3, "lahiri"), False),
    sk.Brewer2: (sk.Brewer2(), True),
    sk.Durbin2: (sk.Durbin2(), True),
    sk.Chao: (sk.Chao(3), False),
    sk.RejectivePoisson: (sk.RejectivePoisson(3), True),
    sk.Stratified: (sk.Stratified({"a": sk.SRS(2), "b": sk.Poisson((0.5,) * 4)}), True),
    sk.OneStageCluster: (sk.OneStageCluster(sk.SRS(2)), True),
    sk.TwoStage: (sk.TwoStage(sk.SystematicPPS(2), sk.SRS(1)), False),
    sk.TwoPhase: (sk.TwoPhase(sk.SRS(6), sk.StratifyOnAux(rate=0.5)), False),
}

DESIGN_CLASSES = sorted(Design.registry.values(), key=lambda cls: cls.key)


def test_every_design_class_has_a_case():
    assert set(CASES) == set(DESIGN_CLASSES)


@pytest.mark.parametrize("cls", DESIGN_CLASSES, ids=lambda cls: cls.key)
def test_design_honours_the_protocol(cls):
    design, enumerable = CASES[cls]
    sample = sk.select(design, FRAME, sk.RngStream(5))
    assert isinstance(sample, sk.Sample)
    if enumerable:
        pi = sk.first_order_pips(design, FRAME).first_order
        dist = sk.enumerate_design(design, FRAME)
        np.testing.assert_allclose(dist.first_order(), pi, rtol=0, atol=1e-12)
        np.testing.assert_allclose(np.diag(sk.joint_pips(design, FRAME).joint), pi,
                                   rtol=0, atol=1e-12)
    else:
        with pytest.raises(NonEnumerableError):
            sk.enumerate_design(design, FRAME)
    hits, values = design_consistency_mc(design, FRAME, R, np.random.default_rng(7))
    assert hits.shape == (N,) and values.shape == (R,)
    # one Monte Carlo replicate is exactly one select on the same stream
    for seed in range(5):
        sample = sk.select(design, FRAME, np.random.default_rng(seed))
        hits, values = design_consistency_mc(design, FRAME, 1, np.random.default_rng(seed))
        np.testing.assert_array_equal(np.flatnonzero(hits), sample.idx)
        assert set(hits[sample.idx]) == {1.0}
        total = sk.ht_total(sample, FRAME.y[sample.idx]).value
        assert values[0] == pytest.approx(total, rel=1e-12, abs=0)


def test_non_designs_are_rejected_by_every_entry_point():
    for entry in (sk.first_order_pips, sk.joint_pips, sk.enumerate_design):
        with pytest.raises(NonEnumerableError):
            entry("srs", FRAME)
    with pytest.raises(DesignError):
        sk.select("srs", FRAME, 1)
    with pytest.raises(DesignError):
        design_consistency_mc("srs", FRAME, R, np.random.default_rng(7))


# Every leaf design class, with each method or optional field that changes
# its checks, against frames that break each precondition a leaf checks.
# first_order_pips must refuse exactly what select refuses.
LEAF_CASES = {
    sk.SRS: [sk.SRS(2, method) for method in
             ("draw_by_draw", "selection_rejection", "reservoir", "random_sort")],
    sk.SRSWR: [sk.SRSWR(2)],
    sk.Bernoulli: [sk.Bernoulli(0.4)],
    sk.Poisson: [sk.Poisson(tuple(np.linspace(0.2, 0.9, 6)))],
    sk.Systematic: [sk.Systematic(2)],
    sk.SystematicPPS: [sk.SystematicPPS(2)],
    sk.PPSWR: [sk.PPSWR(2), sk.PPSWR(2, "lahiri"), sk.PPSWR(2, "lahiri", bound=2.0)],
    sk.Brewer2: [sk.Brewer2()],
    sk.Durbin2: [sk.Durbin2()],
    sk.Chao: [sk.Chao(2)],
    sk.RejectivePoisson: [sk.RejectivePoisson(2),
                          sk.RejectivePoisson(2, (0.3, 0.4, 0.2, 0.5, 0.3, 0.3))],
}

LEAF_FRAMES = {
    "valid": [1.0, 1.5, 1.2, 0.8, 1.1, 1.4],
    "one_zero_size": [1.0, 0.0, 1.2, 0.8, 1.1, 1.4],
    "all_sizes_zero": [0.0] * 6,
    "above_certainty": [1.0, 1.0, 1.0, 1.0, 1.0, 20.0],  # n x / sum(x) = 1.6 for n = 2
    "n_above_N": [1.0],
    "lahiri_bound_at_largest": [1.0, 1.5, 1.2, 0.8, 1.1, 2.0],
}


def test_every_leaf_class_has_leaf_cases():
    assert set(LEAF_CASES) == {cls for cls in DESIGN_CLASSES if issubclass(cls, _Leaf)}


def raised(call):
    """(value, None) of call(), or (None, the type it raised)."""
    try:
        return call(), None
    except Exception as exc:  # noqa: BLE001 - the type is the result
        return None, type(exc)


@pytest.mark.parametrize("mos", LEAF_FRAMES.values(), ids=LEAF_FRAMES.keys())
@pytest.mark.parametrize("design", [d for ds in LEAF_CASES.values() for d in ds],
                         ids=repr)
def test_first_order_refuses_what_select_refuses(design, mos):
    N = len(mos)
    frame = sk.Frame(ids=tuple(f"u{i}" for i in range(N)), mos=np.array(mos))
    pips, refused = raised(lambda: sk.first_order_pips(design, frame))
    sample, drew_none = raised(lambda: sk.select(design, frame, np.random.default_rng(3)))
    assert refused is drew_none
    if mos is LEAF_FRAMES["valid"]:
        assert refused is None
    if refused is None:
        assert pips.kind == ("draw_prob" if design.with_replacement else "inclusion")
        assert np.all(np.isfinite(pips.first_order))
        assert sample.pi.tobytes() == pips.first_order[sample.idx].tobytes()


def substreams(seed, R):
    base = sk.RngStream(seed)
    return [base.substream(r) for r in range(R)]


@pytest.mark.parametrize("cls", DESIGN_CLASSES, ids=lambda cls: cls.key)
def test_a_generator_per_replicate_draws_the_select_loop(cls):
    # the per-replicate source of monte_carlo: replicate r's Sample, its
    # mc_rows row and its Generator afterwards are what one select gives
    design, _ = CASES[cls]
    loop = substreams(5, R)
    refs = [sk.select(design, FRAME, rng) for rng in loop]
    rngs = substreams(5, R)
    samples = list(design.samples(FRAME, R, rngs))
    assert len(samples) == R
    for s, ref in zip(samples, refs):
        for name in ("idx", "pi", "multiplicity", "conditional_pi"):
            a, b = getattr(s, name), getattr(ref, name)
            assert (a is None) == (b is None), name
            assert a is None or a.tobytes() == b.tobytes(), name
    assert [g.random() for g in rngs] == [g.random() for g in loop]
    idx, pi = design.mc_rows(FRAME, R, substreams(5, R))
    assert idx.shape == pi.shape and len(idx) == R
    for row, row_pi, ref in zip(idx, pi, refs):
        kept = row < N
        assert sorted(zip(row[kept].tolist(), row_pi[kept].tolist())) == \
            sorted(zip(ref.idx.tolist(), ref.pi.tolist()))
        assert np.all(row_pi[~kept] == 1.0)


ENUMERABLE = [cls for cls in DESIGN_CLASSES if CASES[cls][1]]


@pytest.mark.parametrize("cls", ENUMERABLE, ids=lambda cls: cls.key)
def test_exact_samples_are_the_samples_a_draw_builds(cls):
    # every Sample drawn by samples (on a shared Generator and on one per
    # replicate) and by select, against the Sample exact_expectation hands
    # its statistic for the same set; unit by unit, since a one-stage
    # cluster draw lists its units cluster by cluster
    design, _ = CASES[cls]
    exact = {}

    def keep(s):
        exact[tuple(s.idx.tolist())] = s
        return 0.0

    simulate.exact_expectation(design, FRAME, keep)
    drawn = [*design.samples(FRAME, R, np.random.default_rng(11)),
             *design.samples(FRAME, R, substreams(11, R)),
             *(sk.select(design, FRAME, rng) for rng in substreams(12, R))]
    for s in drawn:
        order = np.argsort(s.idx, kind="stable")
        e = exact[tuple(s.idx[order].tolist())]
        for name in ("idx", "pi", "weights", "multiplicity", "conditional_pi"):
            a, b = getattr(s, name), getattr(e, name)
            assert (a is None) == (b is None), name
            assert a is None or (a[order].dtype == b.dtype
                                 and a[order].tobytes() == b.tobytes()), name
        for name in ("design_tag", "flags", "with_replacement", "phase1", "phase1_labels"):
            assert getattr(s, name) == getattr(e, name), name
        assert (s.psu_labels is None) == (e.psu_labels is None)
        assert s.psu_labels is None or tuple(s.psu_labels[i] for i in order) == e.psu_labels


def test_readme_lists_the_enumerable_designs():
    text = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    listed = re.search(r"returns a `DesignDistribution` for\s+(.*?)\.", text, re.S).group(1)
    names = re.split(r",\s+|\s+and\s+", " ".join(listed.split()))
    assert set(names) == {cls.__name__ for cls in ENUMERABLE}


@pytest.mark.parametrize("cls", DESIGN_CLASSES, ids=lambda cls: cls.key)
def test_a_source_of_another_form_is_refused_before_a_draw(cls):
    # a function of r (RngStream.substream builds a new Generator on every
    # call, so a nested design asking twice would replay its uniforms), an
    # RngStream, a seed, a sequence of the wrong length or holding another
    # object
    design, _ = CASES[cls]
    base, rngs = sk.RngStream(5), substreams(5, R)
    before = [g.bit_generator.state for g in rngs]
    refused = [(base.substream, TypeError), (rngs.__getitem__, TypeError), (base, TypeError),
               (7, TypeError), ([*rngs[:-1], 7], TypeError), (rngs[:-1], ValueError),
               (rngs + rngs[:1], ValueError)]
    for source, error in refused:
        message = "cannot draw" if error is ValueError else "one numpy Generator"
        with pytest.raises(error, match=message):
            list(design.samples(FRAME, R, source))
        with pytest.raises(error, match=message):
            design.mc_rows(FRAME, R, source)
    assert [g.bit_generator.state for g in rngs] == before


def test_strata_draw_on_their_own_stretch_of_each_replicate_generator():
    # with a function source, stratum b asked RngStream.substream(r) for a
    # fresh Generator and drew on stratum a's uniforms, the same positions 4
    # units on: [2, 3, 6, 7] in four replicates of five
    design = sk.Stratified({"a": sk.SRS(2), "b": sk.SRS(2)})
    with pytest.raises(TypeError, match="not <bound method RngStream.substream"):
        list(design.samples(FRAME, 5, sk.RngStream(1).substream))
    drawn = [s.idx.tolist() for s in design.samples(FRAME, 5, substreams(1, 5))]
    assert drawn == [sk.select(design, FRAME, rng).idx.tolist() for rng in substreams(1, 5)]
    assert any(idx[2:] != [i + 4 for i in idx[:2]] for idx in drawn)


def exact_law(design):
    """{((unit, draws), ...): probability}, the law of the design's Samples
    on FRAME: its enumerated support, or for a with-replacement design the
    multinomial law of its n independent draws."""
    if getattr(design, "with_replacement", False):
        p = sk.first_order_pips(design, FRAME).first_order
        law = {}
        for draws in itertools.combinations_with_replacement(range(N), design.n):
            counts = collections.Counter(draws)
            ways = math.factorial(design.n) / math.prod(map(math.factorial, counts.values()))
            law[tuple(counts.items())] = ways * math.prod(p[u] ** c for u, c in counts.items())
        return law
    rows, prob = sk.enumerate_design(design, FRAME)._table()
    return {tuple((u, 1) for u in row[row < N].tolist()): q
            for row, q in zip(rows, prob.tolist())}


def assert_drawn_from(drawn, law):
    """The keys in drawn against the probabilities of law: a key outside
    the support fails at once, then a chi-square test, cells expected
    fewer than 5 times pooled, at the upper 1e-6 point fixed before any
    draw."""
    from scipy import stats

    counts = collections.Counter(drawn)
    outside = set(counts) - set(law)
    assert not outside, f"{sorted(outside)[:3]} are outside the support"
    expected = len(drawn) * np.array(list(law.values()))
    observed = np.array([counts[key] for key in law], dtype=float)
    small = expected < 5
    if small.any():
        expected = np.append(expected[~small], expected[small].sum())
        observed = np.append(observed[~small], observed[small].sum())
    chi2 = (((observed - expected) ** 2) / expected).sum()
    assert chi2 < stats.chi2.ppf(1 - 1e-6, expected.size - 1)


# design classes whose law on FRAME is not written down yet (ROADMAP items 6, 7)
LAWLESS = {sk.Chao, sk.TwoStage, sk.TwoPhase}


@pytest.mark.parametrize("cls", [cls for cls in DESIGN_CLASSES if cls not in LAWLESS],
                         ids=lambda cls: cls.key)
def test_batches_draw_the_law_of_the_design(cls):
    # the sets of a shared-Generator mc_rows batch and of mc_samples, each
    # replicate on its own substream, against the exact law
    design, _ = CASES[cls]
    law = exact_law(design)
    units = collections.defaultdict(float)  # mc_rows holds no draw counts
    for key, q in law.items():
        units[tuple(u for u, _ in key)] += q
    idx, _ = design.mc_rows(FRAME, 20_000, np.random.default_rng(11))
    assert_drawn_from([tuple(row[row < N].tolist()) for row in idx], units)
    samples = design.mc_samples(FRAME, 4000, sk.RngStream(11))
    assert_drawn_from([tuple(zip(s.idx.tolist(), s.multiplicity.tolist())) for s in samples],
                      law)


def test_rejective_reference_draws_the_law_of_rejective_poisson():
    # kernels.rejective_poisson_select, Poisson sampling tried until it takes
    # n units, and RejectivePoisson's one-pass draw against the enumerated
    # law of the 56 sets
    work = np.array([0.2, 0.5, 0.3, 0.45, 0.25, 0.4, 0.35, 0.55])
    design = sk.RejectivePoisson(3, tuple(work))
    law = exact_law(design)
    assert len(law) == 56 and min(law.values()) * 20_000 >= 5
    rng = np.random.default_rng(2024)
    reference = [kernels.rejective_poisson_select(work, 3, 10_000, rng) for _ in range(20_000)]
    one_pass, _ = design.mc_rows(FRAME, 20_000, np.random.default_rng(2025))
    for drawn in (reference, one_pass):
        assert_drawn_from([tuple((i, 1) for i in sorted(idx.tolist())) for idx in drawn], law)


def test_every_design_draws_through_rows():
    # one Monte Carlo method a design: `_rows`, from which Design writes
    # mc_rows and samples
    assert not hasattr(Design, "_rows")
    for cls in DESIGN_CLASSES:
        assert cls.samples is Design.samples and cls.mc_rows is Design.mc_rows, cls
        assert hasattr(cls, "_rows"), cls


@pytest.mark.parametrize("cls", DESIGN_CLASSES, ids=lambda cls: cls.key)
def test_samples_hold_the_rows_of_mc_rows(cls):
    # on shared Generators of equal seed, a batch's Samples are its rows:
    # the same units with the same pi, in row order, and the same stream
    design, _ = CASES[cls]
    rng_samples, rng_rows = np.random.default_rng(6), np.random.default_rng(6)
    samples = list(design.samples(FRAME, R, rng_samples))
    idx, pi = design.mc_rows(FRAME, R, rng_rows)
    assert [list(zip(s.idx.tolist(), s.pi.tolist())) for s in samples] == [
        [(i, p) for i, p in zip(row.tolist(), prow.tolist()) if i < N]
        for row, prow in zip(idx, pi)]
    assert rng_samples.random() == rng_rows.random()


@pytest.mark.parametrize("cls", DESIGN_CLASSES, ids=lambda cls: cls.key)
def test_a_replicate_count_that_is_not_a_count_is_refused_before_a_draw(cls):
    design, _ = CASES[cls]
    rng = np.random.default_rng(3)
    for R in (-3, True, 2.0, "3", None):
        for call in (lambda: list(design.samples(FRAME, R, rng)),
                     lambda: design.mc_rows(FRAME, R, rng),
                     lambda: list(design.mc_samples(FRAME, R, sk.RngStream(3)))):
            with pytest.raises(ValueError, match="R must be an integer of at least 0, got"):
                call()
    assert rng.random() == np.random.default_rng(3).random()  # nothing drawn
    assert list(design.samples(FRAME, 0, rng)) == list(design.samples(FRAME, 0, [])) == []
    assert [t.shape[0] for t in design.mc_rows(FRAME, 0, rng)] == [0, 0]


def cached_arrays(frame, path="frame"):
    """(path, array) for every array a frame keeps in its cache, through
    tuples and lists and into the caches of the frames it keeps
    (restricted frames, the cluster frame)."""
    stack = [(f"{path}[{key!r}]", value) for key, value in frame._cache.items()]
    while stack:
        where, value = stack.pop()
        if isinstance(value, np.ndarray):
            yield where, value
        elif isinstance(value, (tuple, list)):
            stack.extend((f"{where}[{k}]", v) for k, v in enumerate(value))
        elif isinstance(value, sk.Frame):
            yield from cached_arrays(value, where)


@pytest.mark.parametrize("cls", DESIGN_CLASSES, ids=lambda cls: cls.key)
def test_every_array_a_frame_keeps_is_read_only(cls):
    # every caller of frame.strata(), a sub-frame or a design's memo gets
    # the same arrays: a write into one would change every later draw
    design, enumerable = CASES[cls]
    frame = sk.Frame(ids=FRAME.ids, mos=FRAME.mos, stratum=FRAME.stratum,
                     cluster=FRAME.cluster, aux=FRAME.aux, y=FRAME.y)
    sk.select(design, frame, np.random.default_rng(1))
    list(design.samples(frame, R, np.random.default_rng(2)))
    design_consistency_mc(design, frame, R, np.random.default_rng(3))
    try:
        sk.first_order_pips(design, frame)
    except NonEnumerableError:  # a two-phase design has no closed form
        assert cls is sk.TwoPhase
    if enumerable:
        sk.enumerate_design(design, frame)
    arrays = list(cached_arrays(frame))
    assert [where for where, a in arrays if a.flags.writeable] == []
    if isinstance(design, (sk.Stratified, sk.OneStageCluster, sk.TwoStage)):
        assert arrays  # the index sets at least
