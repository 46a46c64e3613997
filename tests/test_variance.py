import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import surveykit as sk
from surveykit import kernels
from surveykit.design import RngStream
from surveykit.variance import (
    NotMeasurableError,
    post_stratified_conditional_variance,
    smallest_hadamard_order,
    srs_within_cluster_vhat,
)

from conftest import sample_from_distribution


def srs_sample(frame, ids):
    n = len(ids)
    idx = np.asarray(sorted(frame.index_of(u) for u in ids), dtype=np.int64)
    return sk.Sample(frame, idx, np.full(n, n / frame.n_units))


def dist_inclusion(dist, frame):
    return sk.InclusionProbs(dist.first_order(), dist.joint())


class TestHTVariance:
    def test_three_unit_design_values(self, three_unit_design):
        frame, dist = three_unit_design
        joint = dist_inclusion(dist, frame)
        got = {}
        for ids, p in dist:
            s = sample_from_distribution(frame, dist, ids)
            got[ids] = sk.ht_variance_est(s, s.y_values(), joint, form="HT").value
        assert got[("1", "2")] == pytest.approx(206.0, abs=1e-9)
        assert got[("1", "3")] == pytest.approx(200.0, abs=1e-9)
        assert got[("2", "3")] == pytest.approx(-90.0, abs=1e-9)
        assert got[("1", "2", "3")] == pytest.approx(-394.0, abs=1e-9)
        mean = math.fsum(p * got[ids] for ids, p in dist)
        assert mean == pytest.approx(85.0, abs=1e-9)

    def test_negative_estimate_flagged_not_clamped(self, three_unit_design):
        frame, dist = three_unit_design
        joint = dist_inclusion(dist, frame)
        s = sample_from_distribution(frame, dist, ("2", "3"))
        est = sk.ht_variance_est(s, s.y_values(), joint, form="HT")
        assert est.value < 0
        assert "negative_variance_estimate" in est.flags

    def test_constant_ratio_syg_zero(self, mos_frame):
        joint = sk.joint_pips(sk.Brewer2(), mos_frame)
        s = sk.select(sk.Brewer2(), mos_frame, RngStream(3))
        y = 5.0 * joint.first_order[s.idx]  # y proportional to pi
        est = sk.ht_variance_est(s, y, joint, form="SYG")
        assert est.value == pytest.approx(0.0, abs=1e-12)

    def test_srs_forms_reduce_to_closed_formula(self, farm_frame):
        joint = sk.joint_pips(sk.SRS(2), farm_frame)
        for ids in itertools.combinations(farm_frame.ids, 2):
            s = srs_sample(farm_frame, ids)
            y = s.y_values()
            closed = 16 / 2 * (1 - 2 / 4) * np.var(y, ddof=1)
            for form in ("HT", "SYG"):
                est = sk.ht_variance_est(s, y, joint, form=form)
                assert est.value == pytest.approx(closed, abs=1e-10), (ids, form)

    def test_zero_joint_pair_raises(self, farm_frame):
        joint = sk.joint_pips(sk.Systematic(2), farm_frame)
        s = srs_sample(farm_frame, ("1", "2"))  # never co-sampled systematically
        with pytest.raises(NotMeasurableError):
            sk.ht_variance_est(s, s.y_values(), joint)

    def test_unbiased_by_enumeration_on_measurable_designs(self, farm_frame, mos_frame):
        cases = [
            (sk.SRS(2), farm_frame),
            (sk.Brewer2(), mos_frame),
            (sk.Durbin2(), mos_frame),
            (sk.RejectivePoisson(2, (0.2, 0.4, 0.6, 0.8)), mos_frame),
        ]
        rng = np.random.default_rng(61)
        for design, frame in cases:
            y = rng.normal(3, 2, frame.n_units)
            dist = sk.enumerate_design(design, frame)
            joint = sk.joint_pips(design, frame)
            # exact design variance of the HT total
            vals, probs = [], []
            for ids, p in dist:
                idx = np.asarray(sorted(frame.index_of(u) for u in ids))
                s = sk.Sample(frame, idx, joint.first_order[idx])
                vals.append(float(np.sum(s.weights * y[idx])))
                probs.append(p)
            vals, probs = np.array(vals), np.array(probs)
            mean = float(probs @ vals)
            true_var = float(probs @ (vals - mean) ** 2)
            acc = 0.0
            for ids, p in dist:
                idx = np.asarray(sorted(frame.index_of(u) for u in ids))
                s = sk.Sample(frame, idx, joint.first_order[idx])
                acc += p * sk.ht_variance_est(s, y[idx], joint, form="HT").value
            assert acc == pytest.approx(true_var, abs=1e-9), design

    def test_syg_nonnegative_when_joint_below_product(self, mos_frame):
        joint = sk.joint_pips(sk.Durbin2(), mos_frame)
        off = ~np.eye(4, dtype=bool)
        assert np.all(joint.joint[off] < np.outer(joint.first_order,
                                                  joint.first_order)[off])
        rng = np.random.default_rng(67)
        base = RngStream(71)
        for r in range(50):
            s = sk.select(sk.Durbin2(), mos_frame, base.substream(r))
            y = rng.normal(size=2)
            assert sk.ht_variance_est(s, y, joint, form="SYG").value >= -1e-12


class TestSimplified:
    def test_constant_weighted_value_zero(self, farm_frame):
        s = srs_sample(farm_frame, ("1", "2"))
        y = s.pi * 7.0  # w*y constant
        assert sk.simplified_variance(s, y).value == pytest.approx(0.0)

    def test_srs_relative_bias_by_enumeration(self, farm_frame):
        # E(V0) - V = n/(N-n) * V under SRS
        n, N = 2, 4
        dist = sk.enumerate_design(sk.SRS(n), farm_frame)
        pips = sk.first_order_pips(sk.SRS(n), farm_frame)
        vals, v0s, probs = [], [], []
        for ids, p in dist:
            idx = np.asarray(sorted(farm_frame.index_of(u) for u in ids))
            s = sk.Sample(farm_frame, idx, pips.first_order[idx])
            y = s.y_values()
            vals.append(float(np.sum(s.weights * y)))
            v0s.append(sk.simplified_variance(s, y).value)
            probs.append(p)
        vals, v0s, probs = map(np.array, (vals, v0s, probs))
        mean = probs @ vals
        true_var = probs @ (vals - mean) ** 2
        bias = probs @ v0s - true_var
        assert bias / true_var == pytest.approx(n / (N - n), abs=1e-10)

    def test_stratified_form_needs_two_per_stratum(self, farm_frame):
        s = srs_sample(farm_frame, ("1", "2", "3"))
        with pytest.raises(ValueError, match="single"):
            sk.simplified_variance(s, s.y_values(), strata=["a", "a", "b"])


class TestHHVariance:
    def test_identical_draws_zero(self, business_frame):
        s = sk.Sample(business_frame, np.array([3]), np.array([10 / 16]),
                      multiplicity=np.array([2]), with_replacement=True)
        assert sk.hh_variance(s, s.y_values()).value == pytest.approx(0.0)

    def test_single_draw_rejected(self, business_frame):
        s = sk.Sample(business_frame, np.array([0]), np.array([1 / 16]),
                      multiplicity=np.array([1]), with_replacement=True)
        with pytest.raises(ValueError):
            sk.hh_variance(s, s.y_values())

    def test_unbiased_by_pair_enumeration(self, business_frame):
        # oracle: enumerate the 16 ordered two-draw outcomes; V-hat of the
        # n=2 HH total must average to var(z)/2, the true design variance
        p = business_frame.mos / business_frame.mos.sum()
        z = business_frame.y / p
        var_z = float(p @ (z - 300.0) ** 2)
        assert var_z == pytest.approx(2 * 14248.0 / 2)  # sigma_z^2 = 14248
        acc = 0.0
        for i in range(4):
            for j in range(4):
                draws = np.array([i, j])
                idx, mult = np.unique(draws, return_counts=True)
                s = sk.Sample(business_frame, idx, p[idx], multiplicity=mult,
                              with_replacement=True)
                acc += p[i] * p[j] * sk.hh_variance(s, s.y_values()).value
        assert acc == pytest.approx(var_z / 2, abs=1e-9)


class TestLinearized:
    def test_exact_ratio_zero(self, farm_frame):
        joint = sk.joint_pips(sk.SRS(2), farm_frame)
        s = srs_sample(farm_frame, ("1", "3"))
        x = farm_frame.mos[s.idx]
        est = sk.linearized_variance(s, "ratio", joint=joint, y=2.5 * x, x=x)
        assert est.value == pytest.approx(0.0, abs=1e-12)

    def test_post_strat_conditional_matches_direct_formula(self):
        rng = np.random.default_rng(73)
        N, n = 40, 12
        y = rng.normal(10, 3, N)
        groups = np.array(["a"] * 20 + ["b"] * 20)
        frame = sk.Frame(ids=tuple(map(str, range(N))), y=y)
        s = sk.select_srs(frame, n, rng=RngStream(79))
        labels = groups[s.idx]
        est = post_stratified_conditional_variance(
            s, s.y_values(), labels, {"a": 20, "b": 20}, N)
        direct = 0.0
        for g, Ng in (("a", 20), ("b", 20)):
            yy = s.y_values()[labels == g]
            direct += Ng ** 2 / yy.size * (yy.size - 1) / yy.size * np.var(yy, ddof=1)
        direct *= (1 - n / N) * n / (n - 1)
        assert est.value == pytest.approx(direct)

    def test_ratio_ci_coverage_by_mc(self):
        rng0 = np.random.default_rng(83)
        N, n = 120, 30
        x = rng0.uniform(4, 10, N)
        y = 3 * x + rng0.normal(0, 2, N)
        frame = sk.Frame(ids=tuple(map(str, range(N))), mos=x, y=y)
        truth = y.sum()
        joint = sk.joint_pips(sk.SRS(n), frame)
        base = RngStream(89)
        R = 1500
        cover = 0
        for r in range(R):
            s = sk.select_srs(frame, n, rng=base.substream(r))
            yy, xx = s.y_values(), x[s.idx]
            est = sk.ratio_estimator(s, yy, xx, x.sum())
            v = sk.linearized_variance(s, "ratio", joint=joint, y=yy, x=xx,
                                       x_total=x.sum())
            half = 1.96 * math.sqrt(max(v.value, 0.0))
            cover += abs(est.value - truth) <= half
        assert 0.92 <= cover / R <= 0.98


class TestLinearizedKinds:
    """Each residual transform under SRS(n) of N, where the HT-scale
    variance of a centred residual is N^2 (1 - f) s^2 / n."""

    N, n = 20, 6

    @pytest.fixture
    def srs(self):
        y = np.random.default_rng(29).normal(10.0, 3.0, self.N)
        frame = sk.Frame(ids=tuple(map(str, range(self.N))), y=y)
        s = sk.select_srs(frame, self.n, rng=RngStream(31))
        joint = sk.joint_pips(sk.SRS(self.n), frame)
        return s, joint, s.y_values(), float(np.var(s.y_values(), ddof=1))

    def mean_scale(self, s2):
        return (1 - self.n / self.N) * s2 / self.n

    def test_hajek(self, srs):
        s, joint, y, s2 = srs
        est = sk.linearized_variance(s, "hajek", joint=joint, y=y)
        assert est.value == pytest.approx(self.mean_scale(s2), rel=1e-12)

    def test_domain_of_everyone(self, srs):
        s, joint, y, s2 = srs
        est = sk.linearized_variance(s, "domain", joint=joint, y=y, domain=np.ones(self.n))
        assert est.value == pytest.approx(self.mean_scale(s2), rel=1e-12)

    @pytest.mark.parametrize("kind", ["regression", "greg_g", "post_stratified"])
    def test_total_scale(self, srs, kind):
        s, joint, y, s2 = srs
        extra = {
            "regression": dict(x=np.ones(self.n), beta=np.array([y.mean()])),
            "greg_g": dict(g_weights=np.ones(self.n)),
            "post_stratified": dict(groups=["g"] * self.n),
        }[kind]
        est = sk.linearized_variance(s, kind, joint=joint, y=y, **extra)
        assert est.value == pytest.approx(self.N ** 2 * self.mean_scale(s2), rel=1e-12)

    def test_hajek_without_joint_is_with_replacement(self, srs):
        s, _, y, s2 = srs
        est = sk.linearized_variance(s, "hajek", y=y)
        assert est.value == pytest.approx(s2 / self.n, rel=1e-12)


class TestRandomGroups:
    def test_identical_replicates_zero(self):
        assert sk.random_group_variance([5.0] * 6).value == 0.0

    def test_two_groups_half_squared_diff(self):
        est = sk.random_group_variance([3.0, 7.0])
        assert est.value == pytest.approx((3.0 - 7.0) ** 2 / 4)

    def test_srs_split_bias_by_enumeration(self):
        # partition an SRS of 4 from N=6 into G=2 groups of 2: the random
        # group estimator overstates V(ybar) by exactly S^2/N
        rng = np.random.default_rng(97)
        y = rng.normal(0, 2, 6)
        frame = sk.Frame(ids=tuple(map(str, range(6))), y=y)
        N, n, G, b = 6, 4, 2, 2
        S2 = float(np.var(y, ddof=1))
        acc = 0.0
        weight = 0.0
        for combo in itertools.combinations(range(6), n):
            # all equally likely splits of the ordered sample into 2 pairs
            for split in itertools.combinations(range(n), b):
                rest = tuple(k for k in range(n) if k not in split)
                g1 = [y[combo[k]] for k in split]
                g2 = [y[combo[k]] for k in rest]
                est = sk.random_group_variance([np.mean(g1), np.mean(g2)])
                acc += est.value
                weight += 1
        mean_vhat = acc / weight
        true_var = (1 / n - 1 / N) * S2
        assert mean_vhat - true_var == pytest.approx(S2 / N, abs=1e-12)


class TestJackknife:
    @given(st.lists(st.floats(-100, 100), min_size=2, max_size=15))
    @settings(max_examples=60, deadline=None)
    def test_mean_identity_s2_over_n(self, values):
        y = np.array(values, dtype=float)
        n = y.size

        def mean_est(w):
            return float(np.sum(w * y) / np.sum(w))

        est = sk.jackknife_variance(np.full(n, 1.0 / n), mean_est)
        assert est.value == pytest.approx(np.var(y, ddof=1) / n, abs=1e-9)

    def test_linear_estimator_equals_simplified(self):
        rng = np.random.default_rng(101)
        y = rng.normal(5, 2, 9)
        w = rng.uniform(1, 3, 9)
        strata = np.array(["a"] * 4 + ["b"] * 5)

        def total(wts):
            return float(np.sum(wts * y))

        jk = sk.jackknife_variance(w, total, structure="stratified_psu",
                                   strata=strata)
        frame = sk.Frame(ids=tuple(map(str, range(9))), y=y)
        s = sk.Sample(frame, np.arange(9), np.clip(1 / w, None, 1.0))
        simp = sk.simplified_variance(s, y=None, weighted_totals=w * y,
                                      strata=strata)
        assert jk.value == pytest.approx(simp.value, abs=1e-10)

    def test_ratio_close_to_linearized(self):
        rng0 = np.random.default_rng(103)
        N, n = 800, 200
        x = rng0.uniform(2, 6, N)
        y = 4 * x + rng0.normal(0, 1, N)
        frame = sk.Frame(ids=tuple(map(str, range(N))), mos=x, y=y)
        s = sk.select_srs(frame, n, rng=RngStream(107))
        yy, xx = s.y_values(), x[s.idx]

        def ratio_est(w):
            return float(np.sum(w * yy) / np.sum(w * xx) * x.sum())

        # the default jackknife skips the finite-population correction and
        # is conservative by the factor 1/(1-f); apply the optional fpc to
        # compare against the corrected linearization estimate
        jk = sk.jackknife_variance(s.weights, ratio_est, fpc=1 - n / N)
        jk_plain = sk.jackknife_variance(s.weights, ratio_est)
        joint = sk.joint_pips(sk.SRS(n), frame)
        lin = sk.linearized_variance(s, "ratio", joint=joint, y=yy, x=xx,
                                     x_total=x.sum())
        assert jk.value == pytest.approx(lin.value, rel=0.05)
        assert jk_plain.value >= lin.value

    def test_singleton_stratum_rejected(self):
        with pytest.raises(ValueError, match="single"):
            sk.jackknife_variance(np.ones(3), lambda w: float(np.sum(w)),
                                  structure="stratified_psu",
                                  strata=np.array(["a", "a", "b"]))

    @pytest.mark.parametrize("structure, labels", [
        ("stratified_psu", {"strata": [0, 0, 1, 1]}),
        ("stratified_psu", {}),
        ("grouped", {"groups": [0, 1, 2, 3, 4, 5]}),
        ("grouped", {}),
    ])
    def test_labels_must_match_the_weights(self, structure, labels):
        with pytest.raises(ValueError, match="one label per weight"):
            sk.jackknife_variance(np.ones(5), lambda w: float(np.sum(w)),
                                  structure=structure, **labels)

    def test_grouped_jackknife(self):
        rng = np.random.default_rng(109)
        y = rng.normal(size=12)

        def mean_est(w):
            return float(np.sum(w * y) / np.sum(w))

        est = sk.jackknife_variance(np.full(12, 1 / 12), mean_est,
                                    structure="grouped",
                                    groups=np.repeat(np.arange(4), 3))
        # delete-a-group jackknife on a mean: G replicates of group means
        reps = [np.delete(y.reshape(4, 3), g, axis=0).mean() for g in range(4)]
        expected = 3 / 4 * np.sum((np.array(reps) - np.mean(reps)) ** 2)
        assert est.value == pytest.approx(expected, abs=1e-12)


class TestBRR:
    def test_order4_matrix_exact_identity(self):
        W = np.array([0.2, 0.5, 0.3])
        y1 = np.array([4.0, 9.0, 1.0])
        y2 = np.array([6.0, 5.0, 3.0])
        had = sk.make_hadamard(4)
        est = sk.brr_variance(W, y1, y2, hadamard=had)
        closed = float(np.sum(W ** 2 * (y1 - y2) ** 2 / 4))
        assert abs(est.value - closed) < 1e-12

    def test_full_half_sample_average_same_value(self):
        W = np.array([0.4, 0.6])
        y1 = np.array([2.0, 8.0])
        y2 = np.array([5.0, 7.0])
        theta = float(np.sum(W * (y1 + y2) / 2))
        acc = 0.0
        for pattern in itertools.product([0, 1], repeat=2):
            rep = float(np.sum(W * np.where(np.array(pattern) > 0, y1, y2)))
            acc += (rep - theta) ** 2
        full = acc / 4
        closed = float(np.sum(W ** 2 * (y1 - y2) ** 2 / 4))
        assert full == pytest.approx(closed, abs=1e-12)

    def test_callback_matches_a_hand_loop_over_half_samples(self):
        W = np.array([0.2, 0.5, 0.3])
        y1, y2 = np.array([4.0, 9.0, 1.0]), np.array([6.0, 5.0, 3.0])
        x1, x2 = np.array([2.0, 3.0, 1.5]), np.array([2.5, 2.0, 1.0])
        y, x = np.concatenate([y1, y2]), np.concatenate([x1, x2])

        def ratio(wts):
            return float(np.sum(wts * y) / np.sum(wts * x))

        M = sk.make_hadamard(4)
        est = sk.brr_variance(W, y1, y2, hadamard=M, estimator_fn=ratio)
        full = float(np.sum(W * (y1 + y2)) / np.sum(W * (x1 + x2)))
        acc = 0.0
        for g in range(4):
            num = den = 0.0
            for h in range(3):
                keep_first = M[g, h + 1] > 0  # columns 1..H, one per stratum
                num += W[h] * (y1[h] if keep_first else y2[h])
                den += W[h] * (x1[h] if keep_first else x2[h])
            acc += (num / den - full) ** 2
        assert est.value == pytest.approx(acc / 4, rel=1e-12)

    @pytest.mark.parametrize("y1, y2", [([1.0, 2.0, 3.0], [4.0]), ([1.0], [2.0])])
    def test_one_value_per_stratum(self, y1, y2):
        with pytest.raises(ValueError, match="per stratum"):
            sk.brr_variance(np.array([0.5, 0.5]), np.array(y1), np.array(y2))

    def test_constant_y_zero(self):
        est = sk.brr_variance(np.array([0.5, 0.5]), np.array([3.0, 3.0]),
                              np.array([3.0, 3.0]))
        assert est.value == pytest.approx(0.0)

    def test_hadamard_orders(self):
        for G in (1, 2, 4, 8, 16):
            M = sk.make_hadamard(G)
            assert np.allclose(M.T @ M, G * np.eye(G))
        with pytest.raises(ValueError, match="achievable"):
            sk.make_hadamard(12)
        assert smallest_hadamard_order(3) == 4
        assert smallest_hadamard_order(4) == 8

    def test_balance_condition_of_used_columns(self):
        M = sk.make_hadamard(4)
        eps = M[:, 1:4]
        assert np.allclose(eps.T @ eps, 4 * np.eye(3))


class TestTwoStageVariance:
    @pytest.fixture
    def small_two_stage(self):
        # 4 clusters of 3 with SRS(2) clusters, SRS(2) within
        rng = np.random.default_rng(113)
        y = rng.normal(10, 4, 12)
        ids = tuple(map(str, range(12)))
        clusters = tuple(f"c{k // 3}" for k in range(12))
        return sk.Frame(ids=ids, cluster=clusters, y=y)

    def test_full_enumeration_second_term_zero(self, small_two_stage):
        frame = small_two_stage
        s = sk.select_two_stage(frame, sk.SRS(2), sk.SRS(3), RngStream(127))
        labels = np.asarray(s.psu_labels)
        yhat, vhat, pi_I = [], [], []
        for lab in dict.fromkeys(labels):
            mask = labels == lab
            cluster_pi = s.pi[mask] / s.conditional_pi[mask]
            yhat.append(float(np.sum(s.y_values()[mask] / s.conditional_pi[mask])))
            vhat.append(srs_within_cluster_vhat(s.y_values()[mask], 3))
            pi_I.append(cluster_pi[0])
        assert all(v == 0 for v in vhat)
        joint = sk.joint_pips(sk.SRS(2),
                              sk.Frame(ids=("c0", "c1", "c2", "c3")))
        pi_arr = np.asarray(pi_I)
        est = sk.two_stage_variance(
            pi_arr, joint.joint[:2, :2], np.asarray(yhat), np.asarray(vhat))
        one_stage = sk.two_stage_variance(
            pi_arr, joint.joint[:2, :2], np.asarray(yhat), np.zeros(2))
        assert est.value == pytest.approx(one_stage.value)

    def test_unbiased_and_first_term_bias_by_mc(self, small_two_stage):
        # with deletion of the second term the estimator understates the
        # variance by sum V_i; checked against the closed SRS/SRS form
        frame = small_two_stage
        y = frame.y
        NI, nI, M, m = 4, 2, 3, 2
        Y_i = y.reshape(4, 3).sum(axis=1)
        S_I2 = float(np.var(Y_i, ddof=1))
        S_i2 = np.var(y.reshape(4, 3), axis=1, ddof=1)
        V_psu = NI ** 2 / nI * (1 - nI / NI) * S_I2
        V_ssu = (NI / nI) * float(np.sum(M ** 2 / m * (1 - m / M) * S_i2))
        base = RngStream(131)
        R = 4000
        vhats = np.empty(R)
        totals = np.empty(R)
        for r in range(R):
            s = sk.select_two_stage(frame, sk.SRS(nI), sk.SRS(m),
                                    base.substream(r))
            labels = np.asarray(s.psu_labels)
            yh, vh = [], []
            for lab in dict.fromkeys(labels):
                mask = labels == lab
                yh.append(float(np.sum(s.y_values()[mask] / s.conditional_pi[mask])))
                vh.append(srs_within_cluster_vhat(s.y_values()[mask], M))
            joint_psu = np.full((2, 2), nI * (nI - 1) / (NI * (NI - 1)))
            np.fill_diagonal(joint_psu, nI / NI)
            est = sk.two_stage_variance(np.full(2, nI / NI), joint_psu,
                                        np.asarray(yh), np.asarray(vh))
            vhats[r] = est.value
            totals[r] = float(np.sum(s.weights * s.y_values()))
        true_var = V_psu + V_ssu
        mc_se = vhats.std(ddof=1) / math.sqrt(R)
        assert abs(vhats.mean() - true_var) < 4 * mc_se
        assert abs(np.var(totals, ddof=1) - true_var) < 0.05 * true_var + 4 * mc_se


class TestTwoPhaseVariance:
    def test_census_phase2_collapses(self, farm_frame):
        s = sk.select_two_phase(farm_frame, sk.SRS(3), sk.KeepAll(),
                                RngStream(137))
        labels = ("g",) * 3
        s.psu_labels = labels
        s.phase1_labels = labels
        est = sk.two_phase_variance(s, s.y_values(), mode="stratified")
        # single stratum: reduces to s^2/n of phase 1 means
        y = s.y_values()
        expected = np.var(y, ddof=1) / 3
        assert est.value == pytest.approx(expected, rel=0.5)

    def test_stratified_mode_tracks_mc_variance(self):
        # the formula ignores the phase-1 finite-population correction, so
        # keep the sampling fraction small
        rng0 = np.random.default_rng(139)
        N = 600
        strata = tuple("a" if v < 0.4 else "b" for v in rng0.uniform(size=N))
        y = np.where(np.array(strata) == "a", 2.0, 8.0) + rng0.normal(0, 1, N)
        frame = sk.Frame(ids=tuple(map(str, range(N))), stratum=strata, y=y)
        base = RngStream(149)
        R = 3000
        est_vals = np.empty(R)
        vhat_vals = np.empty(R)
        for r in range(R):
            s = sk.select_two_phase(frame, sk.SRS(30),
                                    sk.StratifyOnAux(rate=0.5),
                                    base.substream(r))
            yy = s.y_values()
            est_vals[r] = sk.two_phase_estimator(s, yy, "stratified").value
            vhat_vals[r] = sk.two_phase_variance(s, yy, mode="stratified").value
        assert vhat_vals.mean() == pytest.approx(np.var(est_vals, ddof=1),
                                                 rel=0.12)

    def test_regression_reverse_agrees_with_mc(self):
        # keep the auxiliary bounded away from zero so the conditional
        # phase-2 probabilities cannot collapse and blow up the weights;
        # the linearization drops O(1/r) terms, so r must not be tiny
        rng0 = np.random.default_rng(151)
        N = 500
        x = rng0.uniform(1, 5, N)
        y = 2 + 1.5 * x + rng0.normal(0, 0.6, N)
        frame = sk.Frame(ids=tuple(map(str, range(N))), aux=x[:, None], y=y)
        frame_aug = sk.Frame(ids=frame.ids,
                             aux=np.column_stack([np.ones(N), x]), y=y)
        n1 = 100
        base = RngStream(157)
        R = 2500
        vals = np.empty(R)
        vhats = np.empty(R)
        for r in range(R):
            s = sk.select_two_phase(frame, sk.SRS(n1),
                                    sk.PoissonOnAux(r=40, column=0),
                                    base.substream(r))
            xs = np.column_stack([np.ones(s.n), x[s.idx]])
            x1 = np.column_stack([np.ones(n1), x[s.phase1.idx]])
            est, beta = sk.two_phase_estimator(s, s.y_values(), "regression",
                                               x=xs, x_phase1=x1)
            vals[r] = est.value
            s.phase1.frame = frame_aug
            vhats[r] = sk.two_phase_variance(
                s, s.y_values(), mode="regression_reverse", x=xs, beta=beta,
                N=N, poisson_phase2=True).value
        mc_var = np.var(vals, ddof=1)
        assert vhats.mean() == pytest.approx(mc_var, rel=0.10)

    def test_replication_variant_agrees_with_linearized(self):
        # SRS in both phases keeps the projection form exact, so replicate
        # weights can be pushed through Xhat_1' beta_2 directly
        rng0 = np.random.default_rng(163)
        N = 400
        x = rng0.uniform(1, 5, N)
        y = 1 + 2.0 * x + rng0.normal(0, 0.7, N)
        frame = sk.Frame(ids=tuple(map(str, range(N))), aux=x[:, None], y=y)
        frame_aug = sk.Frame(ids=frame.ids,
                             aux=np.column_stack([np.ones(N), x]), y=y)
        n1, r2 = 80, 30

        def srs_rule(s1, fr, rng):
            chosen = kernels.srs_selection_rejection(
                r2, s1.idx.size, rng)
            return chosen, np.full(r2, r2 / s1.idx.size), None, None

        base = RngStream(167)
        R = 400
        jk_vals = np.empty(R)
        lin_vals = np.empty(R)
        for rep in range(R):
            s = sk.select_two_phase(frame, sk.SRS(n1), srs_rule,
                                    base.substream(rep))
            xs = np.column_stack([np.ones(s.n), x[s.idx]])
            x1 = np.column_stack([np.ones(n1), x[s.phase1.idx]])
            _, beta = sk.two_phase_estimator(
                s, s.y_values(), "regression", x=xs, x_phase1=x1,
                c=1 / s.conditional_pi)
            in2 = np.isin(s.phase1.idx, s.idx)
            yy = s.y_values()

            def projection(w1):
                w2 = w1[in2]
                gram = (xs * w2[:, None]).T @ xs
                b = np.linalg.solve(gram, (xs * w2[:, None]).T @ yy)
                return float((x1.T @ w1) @ b)

            jk_vals[rep] = sk.jackknife_variance(
                s.phase1.weights, projection).value
            s.phase1.frame = frame_aug
            lin_vals[rep] = sk.two_phase_variance(
                s, yy, mode="regression_reverse", x=xs, beta=beta).value
        assert jk_vals.mean() == pytest.approx(lin_vals.mean(), rel=0.10)
