import itertools
import math
from collections import Counter

import numpy as np
import pytest

import surveykit as sk
from surveykit.core import NonProbabilityDesignError, _entry_probs
from surveykit.design import DesignError, RngStream
from surveykit.frame import FrameError
from surveykit.simulate import design_consistency_mc

R_SMALL = 20_000


def empirical_first_order(design, frame, R, seed=11):
    counts = np.zeros(frame.n_units)
    base = RngStream(seed)
    for r in range(R):
        s = sk.select(design, frame, base.substream(r))
        counts[np.unique(s.idx)] += 1
    return counts / R


def mc_band(p, R, k=3):
    return k * math.sqrt(max(p * (1 - p), 1e-12) / R)


class TestDeterminism:
    @pytest.mark.parametrize("design", [
        sk.SRS(2, "draw_by_draw"), sk.SRS(2, "selection_rejection"),
        sk.SRS(2, "reservoir"), sk.SRS(2, "random_sort"), sk.SRSWR(3),
        sk.Bernoulli(0.5), sk.Systematic(2), sk.SystematicPPS(2),
        sk.PPSWR(3, "cumulative"), sk.PPSWR(3, "lahiri"), sk.Brewer2(),
        sk.Durbin2(), sk.Chao(2), sk.RejectivePoisson(2, (0.2, 0.4, 0.6, 0.8)),
    ])
    def test_same_seed_same_sample(self, design, mos_frame):
        a = sk.select(design, mos_frame, RngStream(99, 5))
        b = sk.select(design, mos_frame, RngStream(99, 5))
        assert np.array_equal(a.idx, b.idx)
        assert np.array_equal(a.multiplicity, b.multiplicity)

    def test_distinct_streams_differ(self, mos_frame):
        draws = {tuple(sk.select(sk.SRS(2), mos_frame, RngStream(7, s)).idx)
                 for s in range(40)}
        assert len(draws) > 1


@pytest.mark.parametrize("make", [
    sk.SRS, sk.SRSWR, sk.Systematic, sk.SystematicPPS, sk.PPSWR, sk.Chao,
    sk.RejectivePoisson,
], ids=lambda make: make.__name__)
@pytest.mark.parametrize("n", [0, -1])
def test_fixed_size_below_one_rejected_at_construction(make, n):
    with pytest.raises(DesignError, match="n >= 1"):
        make(n)


@pytest.mark.parametrize("design, mos", [
    (sk.PPSWR(2, "cumulative"), (1, 0, 3, 4)), (sk.PPSWR(2, "lahiri"), (1, 0, 3, 4)),
    (sk.Brewer2(), (1, 0, 3, 4, 2.5)), (sk.Durbin2(), (1, 0, 3, 4, 2.5)),
], ids=["ppswr-cumulative", "ppswr-lahiri", "brewer2", "durbin2"])
def test_zero_size_unit_rejected_by_every_entry_point(design, mos):
    # select and the Monte Carlo batch refuse what first_order_pips refuses,
    # so no weight y / p with p = 0 is ever built
    frame = sk.Frame(ids=tuple("abcde"[:len(mos)]), mos=np.array(mos, dtype=float))
    for entry in (lambda: sk.first_order_pips(design, frame),
                  lambda: sk.select(design, frame, RngStream(2)),
                  lambda: design_consistency_mc(design, frame, 10, RngStream(2))):
        with pytest.raises(NonProbabilityDesignError, match="unit 'b'"):
            entry()


def test_rejective_default_working_probabilities_refuse_a_zero_size_unit(tmp_path, capsys):
    # compute_pips would give unit b working probability 0: never drawn, it
    # would bias the HT total (a Monte Carlo mean of 18.9 against 21)
    from surveykit.cli import main

    mos = (1.0, 0.0, 1.2, 0.8, 1.1, 1.4)
    frame = sk.Frame(ids=tuple("abcdef"), mos=np.array(mos), y=np.arange(1.0, 7.0))
    design = sk.RejectivePoisson(3)
    for entry in (lambda: sk.first_order_pips(design, frame),
                  lambda: sk.select(design, frame, RngStream(2)),
                  lambda: design_consistency_mc(design, frame, 10, RngStream(2)),
                  lambda: sk.monte_carlo(design, frame, lambda s: 0.0, 10, seed=2),
                  lambda: sk.enumerate_design(design, frame)):
        with pytest.raises(NonProbabilityDesignError, match="unit 'b'"):
            entry()
    path = tmp_path / "frame.csv"
    path.write_text("id,mos,y\n" + "".join(f"{u},{x},{i}\n" for i, (u, x) in
                                           enumerate(zip("abcdef", mos), 1)), encoding="utf-8")
    code = main(["draw", "--frame", str(path), "--design", "rejective", "--n", "3",
                 "--seed", "1"])
    assert code == 4 and "unit 'b'" in capsys.readouterr().err


@pytest.mark.parametrize("design", [sk.Brewer2(), sk.Durbin2()], ids=["brewer2", "durbin2"])
def test_n2_sizes_summing_to_zero_rejected_by_every_entry_point(design):
    # p = mos / sum(mos) would be NaN, which passes the p < 1/2 and
    # zero-unit tests
    frame = sk.Frame(ids=tuple("abcd"), mos=np.zeros(4))
    for entry in (lambda: sk.first_order_pips(design, frame),
                  lambda: sk.select(design, frame, RngStream(2)),
                  lambda: design_consistency_mc(design, frame, 10, RngStream(2))):
        with pytest.raises(ValueError, match="measure of size sums to zero"):
            entry()


class TestSRS:
    def test_census_returns_frame_order(self, farm_frame):
        for method in ("draw_by_draw", "selection_rejection", "reservoir",
                       "random_sort"):
            s = sk.select_srs(farm_frame, 4, method, RngStream(3))
            assert s.ids == farm_frame.ids
            assert np.all(s.pi == 1.0)

    def test_size_errors(self, farm_frame):
        with pytest.raises(ValueError):
            sk.select_srs(farm_frame, 5, rng=RngStream(0))
        with pytest.raises(ValueError):
            sk.select_srs(farm_frame, 0, rng=RngStream(0))

    @pytest.mark.parametrize("method", ["draw_by_draw", "selection_rejection",
                                        "reservoir", "random_sort"])
    def test_empirical_inclusion_and_set_frequencies(self, method, farm_frame):
        base = RngStream(17)
        sets = Counter()
        for r in range(R_SMALL):
            s = sk.select_srs(farm_frame, 2, method, base.substream(r))
            sets[s.ids] += 1
        # set frequencies uniform at 1/6
        band = mc_band(1 / 6, R_SMALL)
        for combo in itertools.combinations(farm_frame.ids, 2):
            assert abs(sets[combo] / R_SMALL - 1 / 6) < band
        # inclusion frequencies at n/N = 1/2
        incl = np.zeros(4)
        for ids, cnt in sets.items():
            for u in ids:
                incl[farm_frame.index_of(u)] += cnt
        band = mc_band(0.5, R_SMALL)
        assert np.all(np.abs(incl / R_SMALL - 0.5) < band)

    def test_reservoir_stream_prefix_property(self):
        # stopping early still yields an SRS of the prefix
        base = RngStream(23)
        hits = Counter()
        for r in range(R_SMALL):
            rng = base.substream(r)
            got = sk.reservoir_stream(iter(range(10)), 3, rng)
            hits.update(got)
        band = mc_band(0.3, R_SMALL)
        for v in range(10):
            assert abs(hits[v] / R_SMALL - 0.3) < band


class TestSRSWR:
    def test_single_unit_frame(self):
        frame = sk.Frame(ids=("only",))
        s = sk.select_srswr(frame, 5, RngStream(1))
        assert s.n == 5 and s.ids == ("only",)

    def test_appearance_probability(self, farm_frame):
        # P(unit appears at least once) = 1 - (1 - 1/N)^n
        base = RngStream(29)
        hits = np.zeros(4)
        n = 2
        for r in range(R_SMALL):
            s = sk.select_srswr(farm_frame, n, base.substream(r))
            hits[s.idx] += 1
        target = 1 - (1 - 1 / 4) ** n
        band = mc_band(target, R_SMALL)
        assert np.all(np.abs(hits / R_SMALL - target) < band)

    def test_mean_of_draws_unbiased(self, farm_frame):
        base = RngStream(31)
        acc = 0.0
        for r in range(R_SMALL):
            s = sk.select_srswr(farm_frame, 2, base.substream(r))
            acc += np.sum(s.multiplicity * s.y_values()) / s.n
        se = math.sqrt(np.var(farm_frame.y) / 2 / R_SMALL)
        assert abs(acc / R_SMALL - 6.0) < 4 * se


class TestPoissonBernoulli:
    def test_pi_one_census(self, farm_frame):
        s = sk.select_bernoulli(farm_frame, 1.0, RngStream(5))
        assert s.ids == farm_frame.ids

    def test_bad_pi(self, farm_frame):
        with pytest.raises(ValueError):
            sk.select_bernoulli(farm_frame, 0.0, RngStream(5))
        with pytest.raises(ValueError):
            sk.select_poisson(farm_frame, np.array([0.5, 0.5, 1.2, 0.5]), RngStream(5))

    def test_bernoulli_realized_size_binomial(self):
        frame = sk.Frame(ids=tuple(str(i) for i in range(600)))
        base = RngStream(37)
        R = 2000
        sizes = [sk.select_bernoulli(frame, 1 / 6, base.substream(r)).n
                 for r in range(R)]
        se = math.sqrt(600 * (1 / 6) * (5 / 6) / R)
        assert abs(np.mean(sizes) - 100) < 3 * se

    def test_poisson_empirical_pi(self):
        frame = sk.Frame(ids=("a", "b", "c"))
        pi = np.array([0.2, 0.4, 0.8])
        freq = empirical_first_order(sk.Poisson(tuple(pi)), frame, R_SMALL)
        for j in range(3):
            assert abs(freq[j] - pi[j]) < mc_band(pi[j], R_SMALL)


class TestSystematic:
    def test_known_start_pattern(self):
        # N=20000, interval 100: the sample walks r, r+100, ...
        frame = sk.Frame(ids=tuple(str(i) for i in range(1, 20001)))
        s = sk.select_systematic(frame, 200, RngStream(2))
        idx = s.idx
        assert np.all(np.diff(idx) == 100)
        assert idx.size == 200

    def test_interval_one_census(self, farm_frame):
        s = sk.select_systematic(farm_frame, 3, RngStream(4))
        # G = floor(4/3) = 1: census
        assert s.ids == farm_frame.ids

    def test_enumerated_sizes_and_expected_n(self):
        # N=10, n=3: G=3, sizes are 4,3,3 and E(size) = N/G
        frame = sk.Frame(ids=tuple(str(i) for i in range(10)))
        dist = sk.enumerate_design(sk.Systematic(3), frame)
        sizes = sorted(len(ids) for ids, _ in dist)
        assert sizes == [3, 3, 4]
        expected = sum(len(ids) * p for ids, p in dist)
        assert expected == pytest.approx(10 / 3)


class _FixedUniform:
    """A stand-in Generator whose every random() is u."""

    def __init__(self, u):
        self.u = u

    def random(self):
        return self.u


@pytest.mark.parametrize("n", [2, 3, 4])
def test_systematic_pps_support_matches_the_kernel_walk(n):
    # every piece of (0, a] between two cuts of the support draws one set;
    # the scalar kernel started at the piece's midpoint must take that set,
    # so the kernel's mass per set adds up to the support's probabilities
    checked = 0
    for seed in range(10):
        mos = np.round(np.random.default_rng(seed).uniform(1.0, 4.0, 12), 3)
        frame = sk.Frame(ids=tuple(f"u{i}" for i in range(12)), mos=mos)
        try:
            support = dict(sk.enumerate_design(sk.SystematicPPS(n), frame))
        except IndexError:
            continue  # the rounding sliver of perfbench's strict xfail
        a = mos.sum() / n
        bounds = np.concatenate([[0.0], np.cumsum(mos)])
        cuts = sorted({float(b % a) for b in bounds} | {0.0, float(a)})
        mass = Counter()
        for lo, hi in zip(cuts[:-1], cuts[1:]):
            if hi - lo > 1e-9:
                mid = 0.5 * (lo + hi)
                idx = sk.kernels._systematic_pps_select_loop(mos, n, _FixedUniform(1 - mid / a))
                mass[tuple(sorted(frame.ids[i] for i in idx))] += (hi - lo) / a
        assert set(mass) == set(support)
        for key, p in support.items():
            assert mass[key] == pytest.approx(p, abs=1e-9 * len(cuts))
        checked += 1
    assert checked >= 5


class TestPPSWR:
    def test_single_positive_mos(self):
        frame = sk.Frame(ids=("a", "b"), mos=np.array([0.0, 3.0]))
        s = sk.select_pps_wr(frame, frame.mos, 3, "cumulative", RngStream(8))
        assert s.ids == ("b",) and s.n == 3

    def test_business_draw_probabilities(self, business_frame):
        base = RngStream(41)
        hits = np.zeros(4)
        for r in range(R_SMALL):
            s = sk.select_pps_wr(business_frame, business_frame.mos, 1,
                                 "cumulative", base.substream(r))
            hits[s.idx] += 1
        target = np.array([1, 2, 3, 10]) / 16
        for j in range(4):
            assert abs(hits[j] / R_SMALL - target[j]) < mc_band(target[j], R_SMALL)

    def test_lahiri_matches_cumulative(self, business_frame):
        base = RngStream(43)
        hits = np.zeros(4)
        for r in range(R_SMALL):
            s = sk.select_pps_wr(business_frame, business_frame.mos, 1,
                                 "lahiri", base.substream(r), bound=1001.0)
            hits[s.idx] += 1
        target = np.array([1, 2, 3, 10]) / 16
        for j in range(4):
            assert abs(hits[j] / R_SMALL - target[j]) < mc_band(target[j], R_SMALL)

    def test_lahiri_bound_check(self, business_frame):
        with pytest.raises(ValueError):
            sk.select_pps_wr(business_frame, business_frame.mos, 1, "lahiri",
                             RngStream(1), bound=1000.0)


class TestPips:
    def test_brewer_empirical_marginals_and_joint(self, mos_frame):
        base = RngStream(47)
        pair_counts = Counter()
        for r in range(R_SMALL):
            s = sk.select(sk.Brewer2(), mos_frame, base.substream(r))
            pair_counts[s.ids] += 1
        jp = sk.joint_pips(sk.Brewer2(), mos_frame)
        for (i, j) in itertools.combinations(range(4), 2):
            key = (mos_frame.ids[i], mos_frame.ids[j])
            target = jp.joint[i, j]
            assert abs(pair_counts[key] / R_SMALL - target) < mc_band(target, R_SMALL)

    def test_p_above_half_rejected(self):
        frame = sk.Frame(ids=("a", "b", "c"), mos=np.array([6.0, 1.0, 1.0]))
        with pytest.raises(ValueError, match="1/2"):
            sk.select(sk.Brewer2(), frame, RngStream(1))

    def test_systematic_pips_support_frequencies(self, mos_frame):
        base = RngStream(53)
        sets = Counter()
        for r in range(R_SMALL):
            s = sk.select(sk.SystematicPPS(2), mos_frame, base.substream(r))
            sets[s.ids] += 1
        expect = {("1", "3"): 0.2, ("2", "4"): 0.4, ("3", "4"): 0.4}
        assert set(sets) == set(expect)
        for ids, p in expect.items():
            assert abs(sets[ids] / R_SMALL - p) < mc_band(p, R_SMALL)

    def test_chao_reduces_to_reservoir_marginals(self):
        frame = sk.Frame(ids=tuple(str(i) for i in range(8)))
        freq = empirical_first_order(sk.Chao(2), frame, R_SMALL, seed=59)
        band = mc_band(0.25, R_SMALL)
        assert np.all(np.abs(freq - 2 / 8) < band)

    def test_chao_invariant_by_decision_tree(self):
        # oracle: exhaust the (keep | replace j) decision tree to get exact
        # P(j in A_k) after every arrival, and check n x_j / sum_{i<=k} x_i
        x = np.array([3.0, 1.0, 2.0, 4.0, 1.5, 2.5, 1.0, 3.0])
        n = 2
        for k in range(n + 1, 9):
            probs = np.zeros(k)

            def walk(pos, members, weight):
                if weight <= 0:
                    return
                if pos == k:
                    for m in members:
                        probs[m] += weight
                    return
                total = x[:pos + 1].sum()
                p_take = n * x[pos] / total
                for slot in range(n):
                    nxt = list(members)
                    nxt[slot] = pos
                    walk(pos + 1, nxt, weight * p_take / n)
                walk(pos + 1, members, weight * (1 - p_take))

            walk(n, [0, 1], 1.0)
            total_k = x[:k].sum()
            for j in range(n, k):
                assert probs[j] == pytest.approx(n * x[j] / total_k, abs=1e-12)

    def test_chao_certainty_stream_rejected(self):
        frame = sk.Frame(ids=("a", "b", "c"), mos=np.array([1.0, 1.0, 50.0]))
        for _ in range(2):  # every draw on the frame raises
            with pytest.raises(ValueError, match="certainty"):
                sk.select(sk.Chao(2), frame, RngStream(3))

    def test_chao_checks_a_frame_once(self, monkeypatch):
        mos = np.round(np.random.default_rng(4).uniform(1.0, 4.0, 1000), 3)
        mos[:20] = 4.0  # keeps every later unit below certainty
        data = dict(ids=tuple(map(str, range(1000))), mos=mos)
        frame = sk.Frame(**data)
        calls = []
        real = sk.Chao.first_order
        monkeypatch.setattr(sk.Chao, "first_order",
                            lambda self, f: calls.append(f) or real(self, f))
        rng = np.random.default_rng(8)
        warm = [sk.select(sk.Chao(20), frame, rng) for _ in range(50)]
        assert len(calls) == 1
        rng = np.random.default_rng(8)
        for s in warm:  # each draw as on a frame seen for the first time
            cold = sk.select(sk.Chao(20), sk.Frame(**data), rng)
            assert s.idx.tobytes() == cold.idx.tobytes()
            assert s.pi.tobytes() == cold.pi.tobytes()
        assert len(calls) == 51
        assert sk.first_order_pips(sk.Chao(20), frame).first_order.flags.writeable

    def test_chao_more_units_than_frame_rejected(self, mos_frame):
        for entry in (lambda: sk.select(sk.Chao(5), mos_frame, RngStream(3)),
                      lambda: design_consistency_mc(sk.Chao(5), mos_frame, 10,
                                                    RngStream(3))):
            with pytest.raises(ValueError, match="cannot draw 5 distinct units from 4"):
                entry()

    def test_chao_stream_matches_array_kernel(self):
        frame = sk.Frame(ids=tuple("abcdefgh"),
                         mos=np.array([3.0, 1.0, 2.0, 4.0, 1.5, 2.5, 1.0, 3.0]))
        for seed in range(25):
            s = sk.select(sk.Chao(2), frame, RngStream(seed))
            streamed = sk.chao_stream(zip(frame.ids, frame.mos), 2,
                                      RngStream(seed))
            assert sorted(streamed) == list(s.ids)

    def test_chao_stream_stop_anytime(self):
        # stopping after k arrivals leaves a valid unequal-probability
        # sample of the prefix: check marginals at k = 5
        x = np.array([1.0, 2.0, 1.5, 3.0, 2.5])
        base = RngStream(61)
        hits = np.zeros(5)
        R = 20_000
        for r in range(R):
            got = sk.chao_stream(zip(range(5), x), 2, base.substream(r))
            for item in got:
                hits[item] += 1
        total = x.sum()
        expect = 2 * x / total
        expect[:2] = x[:2].sum() / total
        band = 3 * np.sqrt(expect * (1 - expect) / R)
        assert np.all(np.abs(hits / R - expect) < band)

    def test_rejective_marginal_flagged_and_correct(self, mos_frame):
        work = (0.2, 0.4, 0.6, 0.8)
        s = sk.select(sk.RejectivePoisson(2, work), mos_frame, RngStream(61))
        assert "pi_is_conditional_marginal" in s.flags
        freq = empirical_first_order(sk.RejectivePoisson(2, work), mos_frame,
                                     R_SMALL, seed=67)
        exact = sk.conditional_poisson_pips(np.array(work), 2)
        for j in range(4):
            assert abs(freq[j] - exact[j]) < mc_band(exact[j], R_SMALL)


class TestConditionalPoisson:
    """RejectivePoisson's one-pass sequential draw (Chen, Dempster & Liu
    1994) against the law it draws from: Poisson sampling conditioned on
    size n, enumerated set by set."""

    @staticmethod
    def walk_probability(q, n, units):
        """P(the sequential draw takes exactly `units`): with r units left
        to take, unit k enters with probability q[k, r]."""
        p, need = 1.0, n
        for k in range(q.shape[0]):
            if k in units:
                p *= q[k, need]
                need -= 1
            else:
                p *= 1.0 - q[k, need]
        return p

    @pytest.mark.parametrize("N", range(2, 10))
    def test_set_probabilities_match_the_rejective_support(self, N):
        frame = sk.Frame(ids=tuple(map(str, range(N))))
        gen = np.random.default_rng(N)
        for n in range(1, N + 1):
            work = gen.uniform(0.02, 0.98, N)
            design = sk.RejectivePoisson(n, tuple(work))
            q = _entry_probs(np.array(design.working_pi), n)
            for ids, prob in sk.enumerate_design(design, frame).support:
                units = {int(i) for i in ids}
                assert abs(self.walk_probability(q, n, units) - prob) <= 1e-15

    @pytest.mark.parametrize("n, work", [
        (1, np.linspace(0.05, 0.3, 10)),
        (9, np.linspace(0.6, 0.95, 10)),
        (3, np.array([1e-9, 1e-9, 0.5, 1e-12, 0.7, 0.9, 1e-9, 0.4, 1e-6, 0.3])),
        (4, np.array([1 - 1e-9, 0.2, 1 - 1e-12, 0.1, 0.3, 1 - 1e-6, 0.2, 0.1, 0.05, 0.4])),
    ], ids=["n1", "n_N-1", "near0", "near1"])
    def test_every_draw_takes_n_units(self, n, work):
        N = work.size
        frame = sk.Frame(ids=tuple(map(str, range(N))), y=np.arange(1.0, N + 1))
        design = sk.RejectivePoisson(n, tuple(work))
        rng = np.random.default_rng(n)
        for _ in range(300):
            idx = sk.select(design, frame, rng).idx
            assert idx.size == n and np.all(np.diff(idx) > 0)
        idx, _ = design.mc_rows(frame, 2000, rng)
        assert idx.shape == (2000, n) and np.all(idx < N)
        assert np.all(np.diff(idx, axis=1) > 0)
        hits, _ = design_consistency_mc(design, frame, 2000, rng)
        assert hits.sum() == 2000 * n

    def test_more_units_than_the_frame_is_a_frame_error(self, mos_frame):
        design = sk.RejectivePoisson(5, (0.5, 0.5, 0.5, 0.5))
        for entry in (lambda: sk.select(design, mos_frame, RngStream(3)),
                      lambda: sk.first_order_pips(design, mos_frame)):
            with pytest.raises(FrameError, match="cannot draw 5 distinct units from 4"):
                entry()

    @pytest.mark.parametrize("bad", [float("nan"), -0.5], ids=["nan", "negative"])
    def test_working_probabilities_outside_the_unit_interval_rejected(self, bad):
        frame = sk.Frame(ids=tuple("abcde"), y=np.arange(1.0, 6.0))
        design = sk.RejectivePoisson(2, (bad, 0.5, 0.5, 0.5, 0.5))
        for entry in (lambda: sk.first_order_pips(design, frame),
                      lambda: sk.select(design, frame, RngStream(3)),
                      lambda: design_consistency_mc(design, frame, 10, RngStream(3))):
            with pytest.raises(ValueError, match=r"working probabilities in \[0, 1\)"):
                entry()
        # a zero working probability is allowed: that unit is never drawn
        zero = sk.RejectivePoisson(2, (0.0, 0.5, 0.5, 0.5, 0.5))
        assert sk.first_order_pips(zero, frame).first_order[0] == 0.0
        assert 0 not in sk.select(zero, frame, RngStream(3)).idx

    def test_default_working_probs_are_computed_once(self, monkeypatch):
        from surveykit import design as dz

        mos = np.round(np.random.default_rng(4).uniform(1.0, 4.0, 12), 3)
        frame = sk.Frame(ids=tuple(map(str, range(12))), mos=mos)
        explicit = sk.RejectivePoisson(3, tuple(sk.compute_pips(mos, 3)))
        rng = np.random.default_rng(8)
        expect = [sk.select(explicit, frame, rng).idx.tolist() for _ in range(50)]
        calls = []

        def counted(*args):
            calls.append(args)
            return sk.compute_pips(*args)

        monkeypatch.setattr(dz, "compute_pips", counted)
        design, rng = sk.RejectivePoisson(3), np.random.default_rng(8)
        assert [sk.select(design, frame, rng).idx.tolist() for _ in range(50)] == expect
        sk.first_order_pips(design, frame)
        assert len(calls) == 1

    def test_marginals_and_entry_table_are_built_once_a_frame(self, monkeypatch):
        from surveykit import core
        from surveykit import design as dz

        calls = Counter()

        def counted(name, real):
            return lambda *args: calls.update([name]) or real(*args)

        monkeypatch.setattr(dz, "conditional_poisson_pips",
                            counted("marginals", dz.conditional_poisson_pips))
        monkeypatch.setattr(core, "_entry_probs", counted("entry", core._entry_probs))
        frame = sk.Frame(ids=tuple(map(str, range(12))), mos=np.arange(1.0, 13.0),
                         y=np.arange(12.0))
        design, rng = sk.RejectivePoisson(3), np.random.default_rng(5)
        for _ in range(50):
            sk.select(design, frame, rng)
        sk.first_order_pips(design, frame)
        design_consistency_mc(design, frame, 100, rng)
        assert calls == {"marginals": 1, "entry": 1}
        # first_order alone builds no entry table
        calls.clear()
        sk.first_order_pips(design, sk.Frame(ids=frame.ids, mos=frame.mos))
        assert calls == {"marginals": 1}

    def test_memoized_marginals_are_freed_with_their_frame(self):
        import gc
        import weakref

        frame = sk.Frame(ids=tuple(map(str, range(12))), mos=np.arange(1.0, 13.0))
        pi = weakref.ref(sk.first_order_pips(sk.RejectivePoisson(3), frame).first_order)
        assert pi() is not None  # the frame holds it
        del frame
        gc.collect()
        assert pi() is None


class TestStratified:
    @pytest.fixture
    def stratified_frame(self):
        return sk.Frame(ids=tuple("abcd"), stratum=("s1", "s1", "s2", "s2"))

    def test_single_stratum_equals_child(self, farm_frame):
        frame = sk.Frame(ids=farm_frame.ids, mos=farm_frame.mos,
                         stratum=("s",) * 4, y=farm_frame.y)
        a = sk.select_stratified(frame, {"s": sk.SRS(2)}, RngStream(5, 1))
        assert a.n == 2 and np.all(a.pi == 0.5)

    def test_product_support(self, stratified_frame):
        dist = sk.enumerate_design(
            sk.Stratified((("s1", sk.SRS(1)), ("s2", sk.SRS(1)))),
            stratified_frame)
        assert len(dist) == 4
        assert all(p == pytest.approx(0.25) for _, p in dist)

    def test_proportional_is_self_weighting(self):
        frame = sk.Frame(ids=tuple(str(i) for i in range(12)),
                         stratum=tuple("aaabbbcccddd"))
        designs = {s: sk.SRS(1) for s in "abcd"}
        s = sk.select_stratified(frame, designs, RngStream(71))
        assert np.allclose(s.weights, 12 / 4)

    def test_missing_stratum_design(self, stratified_frame):
        with pytest.raises(Exception, match="no design"):
            sk.select_stratified(stratified_frame, {"s1": sk.SRS(1)}, RngStream(1))

    def test_oversized_child(self, stratified_frame):
        with pytest.raises(ValueError):
            sk.select_stratified(stratified_frame,
                                 {"s1": sk.SRS(3), "s2": sk.SRS(1)}, RngStream(1))


WR_NESTINGS = {
    "stratified": lambda wr: sk.Stratified({"a": sk.SRS(1), "b": wr}),
    "one_stage_cluster": lambda wr: sk.OneStageCluster(wr),
    "two_stage-psu": lambda wr: sk.TwoStage(wr, sk.SRS(1)),
    "two_stage-ssu": lambda wr: sk.TwoStage(sk.SRS(1), wr),
    "two_stage-per_cluster": lambda wr: sk.TwoStage(sk.SRS(1), sk.SRS(1),
                                                    per_cluster={"c1": wr}),
    "two_phase": lambda wr: sk.TwoPhase(wr, sk.KeepAll()),
    "stratified-cluster": lambda wr: sk.Stratified({"a": sk.OneStageCluster(wr)}),
}


@pytest.mark.parametrize("wr", [sk.SRSWR(2), sk.PPSWR(2)], ids=["srswr", "ppswr"])
@pytest.mark.parametrize("make", WR_NESTINGS.values(), ids=WR_NESTINGS)
def test_nested_designs_refuse_with_replacement_children(make, wr):
    # a nested Sample has one weight per unit, not each child's HH factor
    with pytest.raises(DesignError, match="with-replacement"):
        make(wr)


class TestClusterAndTwoStage:
    @pytest.fixture
    def clustered_frame(self):
        ids = tuple(f"u{i}" for i in range(9))
        clusters = ("c1",) * 3 + ("c2",) * 3 + ("c3",) * 3
        y = np.arange(9, dtype=float)
        return sk.Frame(ids=ids, cluster=clusters, y=y)

    def test_full_enumeration_equals_one_stage(self, clustered_frame):
        two = sk.select_two_stage(clustered_frame, sk.SRS(2), sk.SRS(3),
                                  RngStream(73))
        one = sk.select_one_stage_cluster(clustered_frame, sk.SRS(2),
                                          RngStream(73))
        assert two.n == 6 and one.n == 6
        assert np.allclose(two.weights, 3 / 2)

    def test_pps_srs_self_weighting(self):
        ids = tuple(f"u{i}" for i in range(10))
        clusters = ("c1",) * 2 + ("c2",) * 3 + ("c3",) * 5
        frame = sk.Frame(ids=ids, cluster=clusters)
        s = sk.select_two_stage(frame, sk.SystematicPPS(2), sk.SRS(2),
                                RngStream(79))
        # pi_ik = (n_I M_i / N)(m / M_i) = n_I m / N -> weights N/(n_I m)
        assert np.allclose(s.weights, 10 / (2 * 2))

    def test_ssu_size_exceeds_cluster(self, clustered_frame):
        with pytest.raises(ValueError):
            sk.select_two_stage(clustered_frame, sk.SRS(2), sk.SRS(4),
                                RngStream(83))

    def test_missing_cluster_labels(self, farm_frame):
        with pytest.raises(ValueError):
            sk.select_two_stage(farm_frame, sk.SRS(1), sk.SRS(1), RngStream(1))


class TestTwoPhase:
    @pytest.fixture
    def aux_frame(self):
        rng = np.random.default_rng(5)
        N = 40
        x = rng.uniform(1, 3, N)
        y = 2 * x + rng.normal(0, 0.2, N)
        return sk.Frame(ids=tuple(str(i) for i in range(N)),
                        aux=x[:, None], y=y)

    def test_keep_all_collapses_to_phase1(self, aux_frame):
        s = sk.select_two_phase(aux_frame, sk.SRS(10), sk.KeepAll(),
                                RngStream(89))
        assert s.n == 10
        assert np.allclose(s.pi, s.phase1.pi)
        assert np.allclose(s.conditional_pi, 1.0)

    def test_stratify_rule_expected_sizes(self):
        frame = sk.Frame(ids=tuple(str(i) for i in range(30)),
                         stratum=("a",) * 15 + ("b",) * 15)
        base = RngStream(97)
        counts = Counter()
        R = 4000
        for r in range(R):
            s = sk.select_two_phase(
                frame, sk.SRS(10),
                sk.StratifyOnAux(column="stratum", rate=0.5),
                base.substream(r))
            counts["n2"] += s.n
        # nu = 1/2 of a phase-1 sample of 10 gives about 5 on average
        assert abs(counts["n2"] / R - 5) < 0.5

    def test_rule_outside_phase1_rejected(self, aux_frame):
        def bad_rule(s1, frame, rng):
            return (np.array([s1.idx.size + 3]), np.array([0.5]), None, None)

        with pytest.raises(ValueError, match="outside"):
            sk.select_two_phase(aux_frame, sk.SRS(5), bad_rule, RngStream(3))

    @pytest.mark.parametrize("local, cond", [
        ([-1, 0, 0], [0.5] * 3), ([0, 4], [0.5] * 2), ([1, 2, 1], [0.5] * 3),
        ([0.0, 1.0], [0.5] * 2), ([0, 1], [0.5, 0.0]), ([0, 1], [1.5, 0.5]),
        ([0, 1], [0.5, np.nan]), ([0, 1], [0.5]),
    ], ids=["negative", "past_the_end", "repeated", "float", "zero", "above_one", "nan",
            "short"])
    def test_rule_output_is_checked(self, aux_frame, local, cond):
        # each refusal names the rule; a repeated position would count a
        # unit twice, a negative one a unit from the end of phase 1
        def odd_rule(s1, frame, rng):
            return np.asarray(local), np.asarray(cond)

        design = sk.TwoPhase(sk.SRS(4), odd_rule)
        named = r"odd_rule.* must select distinct integer positions, none outside \[0, 4\)"
        with pytest.raises(ValueError, match=named):
            sk.select(design, aux_frame, RngStream(3))
        with pytest.raises(ValueError, match=named):
            design_consistency_mc(design, aux_frame, 5, np.random.default_rng(3))
        with pytest.raises(ValueError, match=named):
            sk.monte_carlo(design, aux_frame, lambda s: s.n, 5, seed=3)

    def test_poisson_phase2_dee_unbiased(self, aux_frame):
        base = RngStream(101)
        total = float(np.sum(aux_frame.y))
        R = 4000
        acc = np.empty(R)
        for r in range(R):
            s = sk.select_two_phase(aux_frame, sk.SRS(20),
                                    sk.PoissonOnAux(r=8, column=0),
                                    base.substream(r))
            acc[r] = float(np.sum(s.weights * s.y_values()))
        se = acc.std(ddof=1) / math.sqrt(R)
        assert abs(acc.mean() - total) < 4 * se
