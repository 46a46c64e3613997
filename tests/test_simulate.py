import math
import time

import numpy as np
import pytest

import surveykit as sk
from surveykit.design import Phase2Rule
from surveykit.frame import FrameError
from surveykit.simulate import design_consistency_mc

from conftest import example_design_distribution


def ht_total_stat(sample):
    return sk.ht_total(sample, sample.y_values()).value


def mean_stat(sample):
    return float(np.mean(sample.y_values()))


class TestExactExpectation:
    def test_farm_srs_mean(self, farm_frame):
        out = sk.exact_expectation(sk.SRS(2), farm_frame, mean_stat)
        assert out["mean"] == pytest.approx(6.0, abs=1e-12)
        assert out["variance"] == pytest.approx(58 / 6, abs=1e-9)

    def test_farm_alternative_design(self, farm_frame):
        # certainty unit 4 plus one of the rest: the unbiased mean estimator
        # weights the three interchangeable farms by 3/4
        dist = example_design_distribution(farm_frame, {
            ("1", "4"): 1 / 3, ("2", "4"): 1 / 3, ("3", "4"): 1 / 3,
        })
        y = farm_frame.y
        vals, ps = [], []
        for ids, p in dist:
            others = [u for u in ids if u != "4"]
            k = farm_frame.index_of(others[0])
            vals.append((3 * y[k] + y[3]) / 4)
            ps.append(p)
        mean = math.fsum(p * v for p, v in zip(ps, vals))
        var = math.fsum(p * (v - mean) ** 2 for p, v in zip(ps, vals))
        assert mean == pytest.approx(6.0, abs=1e-12)
        assert var == pytest.approx(1.5, abs=1e-12)

    def test_business_pps_total(self, business_frame):
        # one PPS draw: exact mean 300, variance 14,248
        p = business_frame.mos / business_frame.mos.sum()
        vals = business_frame.y / p
        mean = float(p @ vals)
        var = float(p @ (vals - mean) ** 2)
        assert mean == pytest.approx(300.0)
        assert var == pytest.approx(14248.0)

    def test_equal_probability_total(self, business_frame):
        out = sk.exact_expectation(sk.SRS(1), business_frame, ht_total_stat)
        assert out["mean"] == pytest.approx(300.0, abs=1e-9)
        assert out["variance"] == pytest.approx(154488.0, abs=1e-6)

    def test_unbiased_estimator_recovers_parameter(self, farm_frame):
        for design in (sk.SRS(2), sk.SRS(3), sk.Bernoulli(0.5),
                       sk.Systematic(2)):
            out = sk.exact_expectation(design, farm_frame, ht_total_stat)
            assert out["mean"] == pytest.approx(24.0, abs=1e-10), design


class TestMonteCarlo:
    def test_deterministic_given_seed(self, farm_frame):
        a = sk.monte_carlo(sk.SRS(2), farm_frame, ht_total_stat, 200, seed=5)
        b = sk.monte_carlo(sk.SRS(2), farm_frame, ht_total_stat, 200, seed=5)
        assert a["mean"] == b["mean"]
        assert np.array_equal(a["replicates"], b["replicates"])

    def test_replicate_floor(self, farm_frame):
        with pytest.raises(ValueError):
            sk.monte_carlo(sk.SRS(2), farm_frame, ht_total_stat, 1, seed=5)

    def test_mean_within_four_se_of_exact(self, farm_frame):
        out = sk.monte_carlo(sk.SRS(2), farm_frame, ht_total_stat, 4000, seed=7)
        exact = sk.exact_expectation(sk.SRS(2), farm_frame, ht_total_stat)
        assert abs(out["mean"] - exact["mean"]) < 4 * out["se_of_mean"]

    def test_school_children_size_bias_demonstration(self):
        # families reached through their children: a child-level mean says
        # 35% own a home while the family-level truth is 43%
        sizes = np.repeat([4, 3, 2, 1], [5000, 10000, 15000, 20000])
        own_rate = np.repeat([0.1, 0.3, 0.4, 0.6], [5000, 10000, 15000, 20000])
        family_truth = own_rate.mean()
        child_mean = float(np.sum(sizes * own_rate) / np.sum(sizes))
        assert family_truth == pytest.approx(0.43)
        assert child_mean == pytest.approx(0.35)

    def test_cluster_deff_matches_icc_formula(self):
        # equal-size clusters with a shared random effect: the MC variance
        # ratio of cluster sampling to SRS tracks 1 + (M-1) rho
        rng = np.random.default_rng(11)
        NI, M = 30, 5
        a = rng.normal(0, 1.0, NI)
        y = (a[:, None] + rng.normal(0, 1.0, (NI, M))).ravel()
        ids = tuple(map(str, range(NI * M)))
        clusters = tuple(f"c{k // M}" for k in range(NI * M))
        frame = sk.Frame(ids=ids, cluster=clusters, y=y)
        groups = [y[i * M:(i + 1) * M] for i in range(NI)]
        rho = sk.anova(groups).icc
        nI = 6
        out_cl = sk.monte_carlo(sk.OneStageCluster(sk.SRS(nI)), frame,
                                mean_stat, 4000, seed=13)
        out_srs = sk.monte_carlo(sk.SRS(nI * M), frame, mean_stat, 4000,
                                 seed=17)
        deff = out_cl["var"] / out_srs["var"]
        assert deff == pytest.approx(1 + (M - 1) * rho, rel=0.10)

    def test_merge_order_independent(self, farm_frame):
        out = sk.monte_carlo(sk.SRS(2), farm_frame, ht_total_stat, 500, seed=19)
        reps = out["replicates"]
        shuffled = reps[np.random.default_rng(1).permutation(500)]
        assert math.fsum(shuffled) / 500 == pytest.approx(out["mean"], abs=1e-12)


class TestDesignConsistencyMC:
    @pytest.fixture
    def frame(self):
        return sk.Frame(ids=tuple("abcdefgh"), cluster=tuple("aabbccdd"),
                        y=np.arange(1.0, 9.0))

    def test_oversized_srs_raises(self, frame):
        with pytest.raises(ValueError, match="cannot draw 9"):
            design_consistency_mc(sk.SRS(9), frame, 10, np.random.default_rng(1))

    def test_lahiri_bound_below_the_largest_size_raises(self):
        # the batch must refuse what select refuses
        frame = sk.Frame(ids=tuple("abcd"), mos=np.array([1.0, 2.0, 3.0, 4.0]),
                         y=np.ones(4))
        design = sk.PPSWR(2, "lahiri", bound=2.0)
        with pytest.raises(ValueError, match="Lahiri bound") as drawn:
            sk.select(design, frame, np.random.default_rng(1))
        with pytest.raises(ValueError, match="Lahiri bound") as batched:
            design_consistency_mc(design, frame, 20000, np.random.default_rng(1))
        assert str(batched.value) == str(drawn.value)

    def test_chao_certainty_units_raise(self):
        frame = sk.Frame(ids=tuple("abcd"), mos=np.array([1.0, 1.0, 1.0, 9.0]),
                         y=np.ones(4))
        with pytest.raises(ValueError, match="certainty"):
            design_consistency_mc(sk.Chao(2), frame, 10, np.random.default_rng(1))

    def test_rng_stream_is_one_stream_for_the_whole_loop(self, frame):
        # nested designs draw replicate by replicate; every replicate must
        # continue the stream, not restart it
        _, values = design_consistency_mc(sk.TwoStage(sk.SRS(2), sk.SRS(1)), frame,
                                          50, sk.RngStream(3))
        assert len(set(values)) > 1


# ---------------------------------------------------------------------------
# Batched two-stage and two-phase Monte Carlo: the nested designs compose
# their children's batches (`Design.mc_rows`), keeping the design's law but
# not the select loop's draws, except for a one-replicate batch.

NESTED_N = 12
NESTED_MOS = np.round(np.random.default_rng(11).uniform(1.0, 4.0, NESTED_N), 3)
NESTED_FRAME = sk.Frame(
    ids=tuple(map(str, range(NESTED_N))), mos=NESTED_MOS,
    stratum=tuple("a" if i < 6 else "b" for i in range(NESTED_N)),
    cluster=tuple(f"c{i // 3}" for i in range(NESTED_N)),
    aux=NESTED_MOS[:, None], y=np.round(np.random.default_rng(12).normal(8, 3, NESTED_N), 3))


def poisson_rule(phase1_sample, frame, rng):
    """A plain callable phase-2 rule, with no batched form: the Poisson
    rule of expected size 3, called as a function."""
    return sk.PoissonOnAux(3)(phase1_sample, frame, rng)


NESTED_CASES = {
    "two_stage-per_cluster": sk.TwoStage(
        sk.SRS(2), sk.SRS(2), per_cluster={"c1": sk.Bernoulli(0.5), "c3": sk.Systematic(1)}),
    "two_stage-bernoulli_psu": sk.TwoStage(sk.Bernoulli(0.4), sk.SRS(1, "reservoir")),
    "two_stage-stratified_ssu": sk.TwoStage(
        sk.SRS(3), sk.Stratified({"a": sk.SRS(1), "b": sk.SRS(1)})),
    "two_phase-keep_all": sk.TwoPhase(sk.SRS(6, "draw_by_draw"), sk.KeepAll()),
    "two_phase-rate": sk.TwoPhase(sk.SRS(6), sk.StratifyOnAux(rate=0.5)),
    "two_phase-rates": sk.TwoPhase(sk.Bernoulli(0.5),
                                   sk.StratifyOnAux(rates={"a": 0.5, "b": 0.3})),
    # eleven cut points give labels "0".."11", which sort as strings
    "two_phase-numeric": sk.TwoPhase(sk.Poisson(tuple(np.linspace(0.2, 0.9, NESTED_N))),
                                     sk.StratifyOnAux(column=0, rate=0.4, boundaries=(
                                         1.5, 2.0, 2.5, 3.0, 3.2, 3.4, 3.6, 3.7, 3.8,
                                         3.9, 3.95))),
    "two_phase-numeric-rates": sk.TwoPhase(sk.SRS(8), sk.StratifyOnAux(
        column=0, rates={"0": 0.5, "1": 0.7, "2": 1.0}, boundaries=(2.0, 3.0))),
    # nested phase-1 designs compose their own children's rows
    "two_phase-stratified": sk.TwoPhase(sk.Stratified(
        {"a": sk.SRS(3, "draw_by_draw"), "b": sk.Bernoulli(0.5)}), sk.KeepAll()),
    "two_phase-stratified-rejective": sk.TwoPhase(sk.Stratified(
        {"a": sk.RejectivePoisson(2), "b": sk.Chao(3)}), sk.StratifyOnAux(rate=0.5)),
    "two_phase-cluster": sk.TwoPhase(sk.OneStageCluster(sk.SRS(2)), sk.KeepAll()),
    "two_phase-cluster-bernoulli": sk.TwoPhase(sk.OneStageCluster(sk.Bernoulli(0.4)),
                                               sk.StratifyOnAux(rate=0.5)),
    "two_phase-two_stage": sk.TwoPhase(sk.TwoStage(sk.SRS(2), sk.SRS(2)),
                                       sk.StratifyOnAux(rate=0.5)),
    # phase 1 often holds at most r units
    "two_phase-poisson-small": sk.TwoPhase(sk.Bernoulli(0.3), sk.PoissonOnAux(3)),
    # a plain callable rule, called once a replicate
    "two_phase-callable": sk.TwoPhase(sk.SRS(6), poisson_rule),
}


def select_loop(design, frame, R, rng):
    """The replicate loop, one `sk.select` per replicate: the hits, and each
    Sample's y/pi added over its units in ascending order from 0.0."""
    y = frame.y_column()
    hits, values = np.zeros(frame.n_units), np.zeros(R)
    for r in range(R):
        sample = sk.select(design, frame, rng)
        hits[sample.idx] += 1
        total = 0.0
        for i, pi in sorted(zip(sample.idx.tolist(), sample.pi.tolist())):
            total += y[i] / pi
        values[r] = total
    return hits, values


class TestNestedBatches:
    @pytest.mark.parametrize("bit_generator", [np.random.PCG64, np.random.Philox],
                             ids=lambda g: g.__name__)
    @pytest.mark.parametrize("design", NESTED_CASES.values(), ids=NESTED_CASES)
    def test_one_replicate_is_one_select(self, design, bit_generator):
        # the children batch on Philox as on PCG64: no kernel here needs a rewind
        y = NESTED_FRAME.y
        for seed in range(10):
            rng_mc, rng_sel = (np.random.Generator(bit_generator(seed)) for _ in range(2))
            sample = sk.select(design, NESTED_FRAME, rng_sel)
            hits, values = design_consistency_mc(design, NESTED_FRAME, 1, rng_mc)
            np.testing.assert_array_equal(np.flatnonzero(hits), sample.idx)
            assert values[0] == pytest.approx(sk.ht_total(sample, y[sample.idx]).value,
                                              rel=1e-12, abs=1e-12)
            assert rng_mc.random() == rng_sel.random()

    @pytest.mark.parametrize("design", NESTED_CASES.values(), ids=NESTED_CASES)
    def test_scalar_rows_path_gives_the_same_batch(self, design, monkeypatch):
        # the per-replicate fallback (Lahiri's and the rejective kernel's path)
        # with every kernel on it as its scalar loop draws what the batched
        # forms draw, so the nested batch cannot tell the paths apart
        from surveykit import kernels

        runs = []
        for scalar in (False, True):
            if scalar:
                monkeypatch.setattr(kernels, "_BATCHED", {})
                monkeypatch.setattr(kernels, "_REWOUND", {})
                for name, loop in kernels._LOOPS.items():
                    monkeypatch.setattr(kernels, name, loop)
            rng = sk.RngStream(4).generator()
            hits, values = design_consistency_mc(design, NESTED_FRAME, 300, rng)
            runs.append((hits.tobytes(), values.tobytes(), rng.random()))
        assert runs[0] == runs[1]

    @pytest.mark.parametrize("design", NESTED_CASES.values(), ids=NESTED_CASES)
    def test_batches_never_call_select(self, design, monkeypatch):
        from surveykit import designs

        def refuse(*args):
            raise AssertionError("the batch fell back to the select loop")

        monkeypatch.setattr(designs, "select", refuse)
        hits, values = design_consistency_mc(design, NESTED_FRAME, 50,
                                             np.random.default_rng(2))
        assert hits.shape == (NESTED_N,) and values.shape == (50,)

    def test_two_stage_frequencies_and_mean(self):
        design = NESTED_CASES["two_stage-per_cluster"]
        R = 100_000
        hits, values = design_consistency_mc(design, NESTED_FRAME, R, sk.RngStream(31))
        target = sk.first_order_pips(design, NESTED_FRAME).first_order
        band = 6 * np.sqrt(target * (1 - target) / R)
        assert np.all(np.abs(hits / R - target) <= band)
        se = values.std(ddof=1) / math.sqrt(R)
        assert abs(values.mean() - NESTED_FRAME.y.sum()) <= 6 * se

    @pytest.mark.parametrize("case", ["two_phase-rate", "two_phase-numeric-rates",
                                      "two_phase-poisson-small"])
    def test_two_phase_matches_the_select_loop(self, case):
        design = NESTED_CASES[case]
        R, R_loop = 100_000, 20_000
        hits, values = design_consistency_mc(design, NESTED_FRAME, R, sk.RngStream(32))
        loop_hits, loop_values = select_loop(design, NESTED_FRAME, R_loop,
                                             sk.RngStream(33).generator())
        p = (hits + loop_hits) / (R + R_loop)
        band = 6 * np.sqrt(p * (1 - p) * (1 / R + 1 / R_loop))
        assert np.all(np.abs(hits / R - loop_hits / R_loop) <= band)
        se = math.sqrt(values.var(ddof=1) / R + loop_values.var(ddof=1) / R_loop)
        assert abs(values.mean() - loop_values.mean()) <= 6 * se
        assert abs(values.mean() - NESTED_FRAME.y.sum()) <= 6 * values.std(ddof=1) / math.sqrt(R)

    def test_rule_without_batched_form_keeps_the_select_loop(self):
        design = NESTED_CASES["two_phase-callable"]
        batch = design_consistency_mc(design, NESTED_FRAME, 40, np.random.default_rng(5))
        loop = select_loop(design, NESTED_FRAME, 40, np.random.default_rng(5))
        assert batch[0].tobytes() == loop[0].tobytes()
        assert batch[1].tobytes() == loop[1].tobytes()


EMPTY_FRAME = sk.Frame(ids=tuple(f"u{i}" for i in range(9)),
                       cluster=tuple(f"c{i // 3}" for i in range(9)),
                       stratum=tuple("aaabbbccc"), aux=np.arange(9.0)[:, None],
                       y=np.arange(1.0, 10.0))


EMPTY_CASES = {
    "one_stage_cluster": sk.OneStageCluster(sk.Bernoulli(0.05)),
    "two_stage": sk.TwoStage(sk.Bernoulli(0.05), sk.SRS(2)),
    "two_phase-stratify": sk.TwoPhase(sk.Bernoulli(0.05), sk.StratifyOnAux(rate=0.5)),
    "two_phase-stratify-numeric": sk.TwoPhase(sk.Bernoulli(0.05), sk.StratifyOnAux(
        column=0, rate=0.5, boundaries=(4.0,))),
    "two_phase-keep_all": sk.TwoPhase(sk.Bernoulli(0.05), sk.KeepAll()),
    "two_phase-cluster": sk.TwoPhase(sk.OneStageCluster(sk.Bernoulli(0.05)), sk.KeepAll()),
    "two_phase-two_stage": sk.TwoPhase(sk.TwoStage(sk.Bernoulli(0.05), sk.SRS(2)),
                                       sk.KeepAll()),
}


@pytest.mark.parametrize("design", EMPTY_CASES.values(), ids=EMPTY_CASES)
@pytest.mark.parametrize("scalar", [False, True], ids=["batched", "scalar_rows"])
def test_random_size_designs_that_draw_nothing(design, scalar, monkeypatch):
    if scalar:  # on the per-replicate fallback, every kernel its loop, a chunk of
        # empty draws has no columns
        from surveykit import kernels

        monkeypatch.setattr(kernels, "_BATCHED", {})
        monkeypatch.setattr(kernels, "_REWOUND", {})
        for name, loop in kernels._LOOPS.items():
            monkeypatch.setattr(kernels, name, loop)
    # on this stream Bernoulli(0.05) draws no cluster and no phase-1 unit
    sample = sk.select(design, EMPTY_FRAME, np.random.default_rng(1))
    assert sample.idx.size == 0 and sample.pi.size == 0
    assert sk.ht_total(sample, EMPTY_FRAME.y[sample.idx]).value == 0.0
    hits, values = design_consistency_mc(design, EMPTY_FRAME, 1, np.random.default_rng(1))
    assert not hits.any() and values.tolist() == [0.0]
    # most replicates of a larger batch are empty and count as 0
    hits, values = design_consistency_mc(design, EMPTY_FRAME, 400, np.random.default_rng(1))
    assert (values == 0).sum() > 200 and hits.sum() > 0


def test_cluster_rows_are_as_wide_as_the_members_drawn():
    # one 500-unit cluster among 500 singletons: a row holds the members of
    # the clusters it drew, not every drawn cluster padded to the largest
    N = 1000
    frame = sk.Frame(ids=tuple(map(str, range(N))),
                     cluster=("big",) * 500 + tuple(f"s{i}" for i in range(500)),
                     y=np.arange(1.0, N + 1))
    design = sk.OneStageCluster(sk.SRS(10))
    idx, pi = design.mc_rows(frame, 200, np.random.default_rng(3))
    drawn = np.count_nonzero(idx < N, axis=1)
    assert idx.shape == (200, drawn.max()) and drawn.max() > 10
    assert np.all(pi[idx == N] == 1.0)
    for seed in range(5):
        rng_rows, rng_sel = np.random.default_rng(seed), np.random.default_rng(seed)
        idx, pi = design.mc_rows(frame, 1, rng_rows)
        sample = sk.select(design, frame, rng_sel)
        assert idx.tolist() == [sample.idx.tolist()]
        assert pi.tobytes() == sample.pi.tobytes()
        assert rng_rows.random() == rng_sel.random()


def test_stratum_without_a_rate_is_named():
    design = sk.TwoPhase(sk.SRS(6), sk.StratifyOnAux(rates={"a": 0.5, "c": 0.5}))
    with pytest.raises(FrameError, match="stratum 'b' has no rate") as drawn:
        sk.select(design, EMPTY_FRAME, np.random.default_rng(1))
    with pytest.raises(FrameError, match="stratum 'b' has no rate") as batched:
        design_consistency_mc(design, EMPTY_FRAME, 50, np.random.default_rng(1))
    assert str(batched.value) == str(drawn.value)
    assert "stratify" in str(drawn.value) and "'a': 0.5" in str(drawn.value)


# ---------------------------------------------------------------------------
# The stratify rule's batch runs every (stratum, n_h, replicate) group in one
# selection-rejection walk.  It must draw what one batch per (stratum, n_h)
# pair drew, bit for bit: the reference below.

def per_group_mc_cond(rule, idx, frame, rng):
    """StratifyOnAux.mc_cond as one selection-rejection batch per (stratum,
    n_h) pair: strata in sorted label order, n_h ascending, replicates in
    row order."""
    from surveykit import kernels

    labels = rule._labels(frame, np.arange(frame.n_units))
    names = sorted(set(labels))
    code = {name: h for h, name in enumerate(names)}
    cell = np.array([code[lab] for lab in labels] + [-1])[idx]  # -1: a pad
    cond = np.zeros(idx.shape)
    for h, name in enumerate(names):
        inside = cell == h
        n_h = inside.sum(axis=1)
        for n in np.unique(n_h[n_h > 0]).tolist():
            reps = np.nonzero(n_h == n)[0]
            r = rule._subsample_size(name, n)
            chosen = kernels._stack(list(kernels._mc_rows(
                kernels.srs_selection_rejection, (r, n), n, reps.size, rng)), n)
            cols = np.nonzero(inside[reps])[1].reshape(reps.size, n)
            cond[reps[:, None], np.take_along_axis(cols, chosen, axis=1)] = r / n
    return cond


# units u6..u8 (stratum c) have working probability 0, so RejectivePoisson
# never draws them and the rates need no entry for c; the zeros are explicit,
# since default working probabilities refuse a zero-size unit
UNREACHED_FRAME = sk.Frame(ids=tuple(f"u{i}" for i in range(9)),
                           stratum=tuple("aaabbbccc"),
                           mos=np.array([1.0, 2.0, 3.0, 1.5, 2.5, 3.5, 0.0, 0.0, 0.0]),
                           y=np.arange(1.0, 10.0))
STRATIFY_CASES = {
    **{name: (design, NESTED_FRAME) for name, design in NESTED_CASES.items()
       if isinstance(getattr(design, "phase2", None), sk.StratifyOnAux)},
    "two_phase-rates-unreached": (sk.TwoPhase(
        sk.RejectivePoisson(3, working_pi=tuple(sk.compute_pips(UNREACHED_FRAME.mos, 3))),
        sk.StratifyOnAux(rates={"a": 0.5, "b": 0.7})), UNREACHED_FRAME),
}
BIT_GENERATORS = [np.random.PCG64, np.random.Philox, np.random.MT19937]


def batch_and_reference(monkeypatch, design, frame, R, bit_generator):
    """(hits bytes, values bytes, next double) of the design's batch, and of
    the same batch with the per-group reference rule."""
    runs = []
    for cond in (sk.StratifyOnAux.mc_cond, per_group_mc_cond):
        monkeypatch.setattr(sk.StratifyOnAux, "mc_cond", cond)
        rng = np.random.Generator(bit_generator(R))
        hits, values = design_consistency_mc(design, frame, R, rng)
        runs.append((hits.tobytes(), values.tobytes(), rng.random()))
    return runs


class TestStratifyWalk:
    @pytest.mark.parametrize("bit_generator", BIT_GENERATORS, ids=lambda g: g.__name__)
    @pytest.mark.parametrize("R", [1, 7, 300])
    @pytest.mark.parametrize("case", STRATIFY_CASES.values(), ids=STRATIFY_CASES)
    def test_one_walk_matches_the_per_group_batches(self, monkeypatch, case, R,
                                                    bit_generator):
        batch, reference = batch_and_reference(monkeypatch, *case, R, bit_generator)
        assert batch == reference

    @pytest.mark.parametrize("cells", [1, 5, 16, 40])
    @pytest.mark.parametrize("case", STRATIFY_CASES.values(), ids=STRATIFY_CASES)
    def test_walk_spanning_several_chunks(self, monkeypatch, case, cells):
        from surveykit import kernels

        monkeypatch.setattr(kernels, "_CHUNK_CELLS", cells)
        batch, reference = batch_and_reference(monkeypatch, *case, 203, np.random.PCG64)
        assert batch == reference

    @pytest.mark.parametrize("bit_generator", BIT_GENERATORS, ids=lambda g: g.__name__)
    def test_pads_anywhere_in_the_rows(self, bit_generator):
        # phase-1 rows of every size, their pads (index N) between the units
        rule = NESTED_CASES["two_phase-rates"].phase2
        gen = np.random.default_rng(8)
        idx = np.full((400, 9), NESTED_N)
        for row, size in zip(idx, gen.integers(0, 10, 400)):
            row[gen.permutation(9)[:size]] = np.sort(gen.permutation(NESTED_N)[:size])
        rng_a, rng_b = (np.random.Generator(bit_generator(3)) for _ in range(2))
        cond = rule.mc_cond(idx, NESTED_FRAME, rng_a)
        assert cond.tobytes() == per_group_mc_cond(rule, idx, NESTED_FRAME, rng_b).tobytes()
        assert rng_a.random() == rng_b.random()
        assert np.all(cond[idx == NESTED_N] == 0)

    def test_empty_phase_1_rows_draw_nothing(self):
        rule = NESTED_CASES["two_phase-rate"].phase2
        rng = np.random.default_rng(4)
        for width in (0, 3):
            idx = np.full((5, width), NESTED_N)
            assert not rule.mc_cond(idx, NESTED_FRAME, rng).any()
        assert rng.random() == np.random.default_rng(4).random()

    def test_rates_need_no_entry_for_a_stratum_no_replicate_draws(self):
        design, frame = STRATIFY_CASES["two_phase-rates-unreached"]
        sample = sk.select(design, frame, np.random.default_rng(1))
        assert set(frame.stratum[i] for i in sample.idx) <= {"a", "b"}
        hits, values = design_consistency_mc(design, frame, 500, np.random.default_rng(1))
        assert hits[:6].all() and not hits[6:].any() and values.shape == (500,)

    def test_time_budget(self):
        # criterion 9's two-phase design at R = 20000: about 25 ms on a 2-core
        # VM (about 25 ms with one batch per (stratum, n_h) pair as well)
        design = sk.TwoPhase(sk.SRS(6), sk.StratifyOnAux(rate=0.5))
        start = time.perf_counter()
        hits, values = design_consistency_mc(design, NESTED_FRAME, 20_000,
                                             np.random.default_rng(5))
        assert time.perf_counter() - start < 1.0
        assert hits.all() and values.shape == (20_000,) and np.isfinite(values).all()


# A declarative rule is its batched form, and a call is its batch of one.
# The references below draw each rule the way it was first written, one
# replicate at a time: the stratify rule one selection-rejection draw per
# phase-2 stratum, the Poisson rule one Poisson draw over the phase-1 units.

def keep_all_reference(rule, phase1_sample, frame, rng):
    n1 = phase1_sample.idx.size
    return np.arange(n1, dtype=np.int64), np.ones(n1), None, None


def stratify_reference(rule, phase1_sample, frame, rng):
    from surveykit import kernels

    labels = rule._labels(frame, phase1_sample.idx)
    groups = {}
    for pos, lab in enumerate(labels):
        groups.setdefault(lab, []).append(pos)
    # the empty arrays stand in when the phase-1 sample is empty
    locals_, conds, out_labels = [np.empty(0, dtype=np.int64)], [np.empty(0)], []
    for lab in sorted(groups):
        pos = np.asarray(groups[lab], dtype=np.int64)
        r_h = rule._subsample_size(lab, pos.size)
        chosen = kernels.srs_selection_rejection(r_h, pos.size, rng)
        locals_.append(pos[chosen])
        conds.append(np.full(chosen.size, r_h / pos.size))
        out_labels.extend([lab] * chosen.size)
    local, cond = np.concatenate(locals_), np.concatenate(conds)
    order = np.argsort(local, kind="stable")
    return (local[order], cond[order], tuple([out_labels[i] for i in order.tolist()]),
            tuple(labels))


def poisson_reference(rule, phase1_sample, frame, rng):
    from surveykit import kernels

    x = frame.aux[phase1_sample.idx, rule.column]
    if np.any(x <= 0):
        raise ValueError("Poisson phase-2 rule needs positive observed values")
    p2 = np.minimum(sk.compute_pips(x, min(rule.r, x.size)), 1.0)
    local = kernels._poisson_indices(p2, rng)
    return local, p2[local], None, None


RULE_REFERENCES = {sk.KeepAll: keep_all_reference, sk.StratifyOnAux: stratify_reference,
                   sk.PoissonOnAux: poisson_reference}
RULE_CASES = {
    **{name: (design, NESTED_FRAME) for name, design in NESTED_CASES.items()
       if isinstance(getattr(design, "phase2", None), Phase2Rule)},
    **STRATIFY_CASES,
}


def assert_same_rule_output(got, want):
    for a, b in zip(got[:2], want[:2]):
        assert a.dtype == b.dtype and a.tobytes() == b.tobytes()
    assert got[2:] == want[2:]


@pytest.mark.parametrize("bit_generator", BIT_GENERATORS, ids=lambda g: g.__name__)
@pytest.mark.parametrize("case", RULE_CASES.values(), ids=RULE_CASES)
def test_batched_form_of_one_phase_1_sample_is_the_rule(case, bit_generator):
    design, frame = case
    rule = design.phase2
    reference = RULE_REFERENCES[type(rule)]
    for seed in range(20):
        s1 = sk.select(design.phase1, frame, np.random.default_rng(seed))
        rng_rule, rng_ref = (np.random.Generator(bit_generator(seed + 50)) for _ in range(2))
        assert_same_rule_output(rule(s1, frame, rng_rule), reference(rule, s1, frame, rng_ref))
        assert rng_rule.random() == rng_ref.random()


@pytest.mark.parametrize("bit_generator", BIT_GENERATORS, ids=lambda g: g.__name__)
@pytest.mark.parametrize("case", RULE_CASES.values(), ids=RULE_CASES)
def test_batched_form_on_one_generator_per_row_is_the_rule_row_by_row(case, bit_generator):
    # row r's cells read source[r] as the rule reads its own Generator;
    # the phase-1 units keep their order, the pads sit anywhere among them
    design, frame = case
    rule = design.phase2
    reference = RULE_REFERENCES[type(rule)]
    N, R = frame.n_units, 40
    phase1 = [sk.select(design.phase1, frame, np.random.default_rng(r)) for r in range(R)]
    width = max(s.idx.size for s in phase1) + 2
    gen = np.random.default_rng(9)
    idx = np.full((R, width), N)
    slots = []
    for row, s1 in zip(idx, phase1):
        slots.append(np.sort(gen.permutation(width)[:s1.idx.size]))
        row[slots[-1]] = s1.idx
    source = [np.random.Generator(bit_generator(100 + r)) for r in range(R)]
    cond = rule.mc_cond(idx, frame, source)
    assert np.all(cond[idx == N] == 0)
    for r, s1 in enumerate(phase1):
        rng_ref = np.random.Generator(bit_generator(100 + r))
        local, c = reference(rule, s1, frame, rng_ref)[:2]
        want = np.zeros(width)
        want[slots[r][local]] = c
        assert cond[r].tobytes() == want.tobytes()
        assert source[r].random() == rng_ref.random()


@pytest.mark.parametrize("build", [lambda: sk.TwoStage("srs", sk.SRS(1)),
                                   lambda: sk.TwoStage(sk.SRS(1), sk.SRS(1),
                                                       per_cluster={"c0": "srs"}),
                                   lambda: sk.TwoPhase("srs", sk.KeepAll()),
                                   lambda: sk.Stratified({"a": sk.SRS(1), "b": "srs"})],
                         ids=["two_stage", "two_stage-per_cluster", "two_phase", "stratified"])
def test_child_that_is_not_a_design_is_refused_by_the_batch(build):
    # refused when the design is built, before it can reach select or a batch
    from surveykit.design import DesignError

    with pytest.raises(DesignError, match="cannot select from str"):
        build()


def test_two_stage_without_cluster_labels_is_a_frame_error():
    frame = sk.Frame(ids=tuple("abcd"), y=np.ones(4))
    design = sk.TwoStage(sk.SRS(1), sk.SRS(1))
    for entry in (lambda: sk.select(design, frame, 1),
                  lambda: design_consistency_mc(design, frame, 10, 1),
                  lambda: sk.first_order_pips(design, frame)):
        with pytest.raises(FrameError, match="no cluster labels"):
            entry()


@pytest.mark.parametrize("rows", [
    {"two_phase-stratified": sk.Stratified({"a": sk.SRS(2), "b": sk.Bernoulli(0.5)})},
    {"two_phase-cluster": sk.OneStageCluster(sk.Poisson(tuple(np.linspace(0.2, 0.8, 4))))},
    {"two_stage": sk.TwoStage(sk.Bernoulli(0.6), sk.SRS(2), per_cluster={
        "c1": sk.Bernoulli(0.5), "c2": sk.Stratified({"a": sk.SRS(1), "b": sk.SRS(1)})})},
    {"two_phase": sk.TwoPhase(sk.TwoStage(sk.SRS(3), sk.SRS(2)), sk.StratifyOnAux(rate=0.5))},
], ids=lambda d: next(iter(d)))
def test_nested_rows_of_one_replicate_are_one_select(rows):
    design = next(iter(rows.values()))
    for seed in range(10):
        rng_rows, rng_sel = np.random.default_rng(seed), np.random.default_rng(seed)
        idx, pi = design.mc_rows(NESTED_FRAME, 1, rng_rows)
        sample = sk.select(design, NESTED_FRAME, rng_sel)
        kept = idx[0] < NESTED_N
        assert idx[0, kept].tolist() == sample.idx.tolist()
        assert pi[0, kept].tobytes() == sample.pi.tobytes() and np.all(pi[0, ~kept] == 1.0)
        assert rng_rows.random() == rng_sel.random()


AUX_FRAME = sk.Frame(ids=tuple("abcdef"), mos=np.arange(1.0, 7.0),
                     aux=np.arange(1.0, 7.0)[:, None], y=np.arange(6.0))
NO_AUX_FRAME = sk.Frame(ids=tuple("abcdef"), mos=np.arange(1.0, 7.0), y=np.arange(6.0))


@pytest.mark.parametrize("frame", [AUX_FRAME, NO_AUX_FRAME], ids=["one_aux", "no_aux"])
@pytest.mark.parametrize("rule", [sk.StratifyOnAux(column=3, rate=0.5, boundaries=(5.0,)),
                                  sk.PoissonOnAux(2, column=4)], ids=["stratify", "poisson"])
def test_phase2_rule_past_the_aux_columns_is_a_frame_error(rule, frame):
    design = sk.TwoPhase(sk.SRS(4), rule)
    with pytest.raises(FrameError, match=r"aux column \d, but the frame has [01] aux"):
        sk.select(design, frame, np.random.default_rng(1))
    with pytest.raises(FrameError, match=r"aux column \d, but the frame has [01] aux"):
        design_consistency_mc(design, frame, 20, np.random.default_rng(1))


@pytest.mark.parametrize("design", [sk.SRS(3), NESTED_CASES["two_stage-per_cluster"],
                                    sk.TwoPhase(sk.SRS(6), sk.PoissonOnAux(3))],
                         ids=["leaf", "nested", "select_loop"])
def test_replicate_count_must_be_an_integer(design):
    for R in (-1, 2.0, True, "3", None):
        rng = np.random.default_rng(3)
        with pytest.raises(ValueError, match=r"R must be an integer of at least 0, got"):
            design_consistency_mc(design, NESTED_FRAME, R, rng)
        assert rng.random() == np.random.default_rng(3).random()  # nothing drawn
    for R in (1, -1, 3.0, False):
        with pytest.raises(ValueError, match=r"R must be an integer of at least 2, got"):
            sk.monte_carlo(design, NESTED_FRAME, ht_total_stat, R, seed=3)
    hits, values = design_consistency_mc(design, NESTED_FRAME, 0, np.random.default_rng(3))
    assert not hits.any() and values.shape == (0,)
    hits, values = design_consistency_mc(design, NESTED_FRAME, np.int64(3), 3)
    assert values.shape == (3,)
    assert len(sk.monte_carlo(design, NESTED_FRAME, ht_total_stat, np.int32(2), 3)["replicates"]) == 2
