import math

import numpy as np
import pytest

import surveykit as sk
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

    def test_exhausted_rejective_tries_raise(self, frame):
        # with one try per replicate most replicates fail; none may be
        # counted as an empty sample
        with pytest.raises(RuntimeError, match="1 tries"):
            design_consistency_mc(sk.RejectivePoisson(3, max_tries=1), frame, 200,
                                  np.random.default_rng(1))

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
