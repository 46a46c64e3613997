import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import surveykit as sk
from surveykit import kernels
from surveykit.design import RngStream

from conftest import example_design_distribution, sample_from_distribution


def srs_sample(frame, ids):
    n = len(ids)
    idx = np.asarray(sorted(frame.index_of(u) for u in ids), dtype=np.int64)
    return sk.Sample(frame, idx, np.full(n, n / frame.n_units))


class TestHT:
    def test_paper_example_values(self):
        frame = sk.Frame(ids=("1", "2", "3"))
        dist = example_design_distribution(frame, {
            ("1", "2"): 0.5, ("1", "3"): 0.25, ("2", "3"): 0.25,
        })
        y = np.array([2.0, 5.0, 7.0])
        s = sample_from_distribution(frame, dist, ("1", "2"))
        est = sk.ht_total(s, y[s.idx])
        assert est.value == pytest.approx(2 / 0.75 + 5 / 0.75)

    def test_unbiased_over_three_unit_design(self, three_unit_design):
        frame, dist = three_unit_design
        values = {}
        for ids, p in dist:
            s = sample_from_distribution(frame, dist, ids)
            values[ids] = sk.ht_total(s, s.y_values()).value
        assert sorted(round(v) for v in values.values()) == [50, 50, 60, 80]
        mean = math.fsum(p * values[ids] for ids, p in dist)
        assert mean == pytest.approx(55.0, abs=1e-10)

    def test_census_exact(self, farm_frame):
        s = srs_sample(farm_frame, farm_frame.ids)
        assert sk.ht_total(s, s.y_values()).value == pytest.approx(24.0)

    def test_missing_pi_rejected(self, farm_frame):
        with pytest.raises(Exception):
            sk.Sample(farm_frame, np.array([0, 1]), np.array([0.5, 0.0]))


class TestHajek:
    def test_equal_pi_sample_mean(self, farm_frame):
        s = srs_sample(farm_frame, ("1", "3"))
        assert sk.hajek_mean(s, s.y_values()).value == pytest.approx(3.0)

    def test_location_invariance(self, farm_frame):
        s = srs_sample(farm_frame, ("2", "4"))
        y = s.y_values()
        base = sk.hajek_mean(s, y).value
        assert sk.hajek_mean(s, y + 11.5).value == pytest.approx(base + 11.5)

    def test_constant_y_exact_under_unequal_pi(self):
        frame = sk.Frame(ids=("a", "b", "c"))
        s = sk.Sample(frame, np.array([0, 2]), np.array([0.3, 0.9]))
        assert sk.hajek_mean(s, np.array([4.0, 4.0])).value == pytest.approx(4.0)

    def test_nonempty_value_is_the_ratio_to_the_bit(self):
        frame = sk.Frame(ids=("a", "b", "c", "d"))
        s = sk.Sample(frame, np.array([0, 1, 3]), np.array([0.3, 0.7, 0.45]))
        y = np.array([2.5, -1.25, 7.0])
        w = 1 / np.array([0.3, 0.7, 0.45])
        assert sk.hajek_mean(s, y).value == float(np.sum(w * y) / np.sum(w))

    def test_empty_sample_raises(self):
        s = sk.Sample(sk.Frame(ids=("a", "b")), np.array([], dtype=np.int64), np.array([]))
        with pytest.raises(ValueError, match="empty sample"):
            sk.hajek_mean(s, np.array([]))

    # Bernoulli and Poisson supports hold the empty set; under the suite's
    # filter a 0 / 0 RuntimeWarning would fail these before any ValueError
    def test_exact_expectation_over_a_support_with_the_empty_set(self):
        frame = sk.Frame(ids=tuple("abcdef"), y=np.arange(1.0, 7.0))
        with pytest.raises(ValueError, match="empty sample"):
            sk.exact_expectation(sk.Poisson((0.5,) * 6), frame,
                                 lambda s: sk.hajek_mean(s, s.y_values()).value)

    def test_monte_carlo_that_draws_an_empty_sample(self):
        frame = sk.Frame(ids=tuple("abcdef"), y=np.arange(1.0, 7.0))
        with pytest.raises(ValueError, match="empty sample"):
            sk.monte_carlo(sk.Bernoulli(0.1), frame,
                           lambda s: sk.hajek_mean(s, s.y_values()).value, 50, seed=3)


class TestHH:
    def test_single_draw_company_d(self, business_frame):
        s = sk.select_pps_wr(business_frame, business_frame.mos, 1,
                             "cumulative", RngStream(1))
        # force the draw to be D for the arithmetic check
        s = sk.Sample(business_frame, np.array([3]), np.array([10 / 16]),
                      multiplicity=np.array([1]), with_replacement=True)
        assert sk.hh_total(s, s.y_values()).value == pytest.approx(245 * 16 / 10)

    def test_repeat_draws_of_one_unit(self, business_frame):
        s = sk.Sample(business_frame, np.array([1]), np.array([2 / 16]),
                      multiplicity=np.array([3]), with_replacement=True)
        assert sk.hh_total(s, s.y_values()).value == pytest.approx(20 * 8)

    def test_enumeration_mean_300(self, business_frame):
        p = business_frame.mos / business_frame.mos.sum()
        total = math.fsum(
            p[i] * business_frame.y[i] / p[i] for i in range(4)
        ) / 4 * 4  # E(z) = sum y
        values = [business_frame.y[i] / p[i] for i in range(4)]
        assert math.fsum(pi * v for pi, v in zip(p, values)) == pytest.approx(300.0)


class TestRatio:
    def test_exact_proportionality_zero_residual(self, farm_frame):
        s = srs_sample(farm_frame, ("1", "4"))
        x = farm_frame.mos[s.idx]
        y = 3.0 * x
        est = sk.ratio_estimator(s, y, x, farm_frame.mos.sum())
        assert est.value == pytest.approx(3.0 * farm_frame.mos.sum())

    def test_adjustment_factor_one(self, farm_frame):
        s = srs_sample(farm_frame, ("2", "3"))
        x = farm_frame.mos[s.idx]
        xhat = float(np.sum(s.weights * x))
        est = sk.ratio_estimator(s, s.y_values(), x, xhat)
        assert est.value == pytest.approx(sk.ht_total(s, s.y_values()).value)

    def test_efficiency_condition_by_mc(self):
        # corr(x, y) > CV(x)/(2 CV(y)) makes the ratio estimator beat HT
        rng = np.random.default_rng(7)
        N = 60
        x = rng.uniform(5, 15, N)
        y = 2 * x + rng.normal(0, 1.0, N)
        frame = sk.Frame(ids=tuple(map(str, range(N))), mos=x, y=y)
        cv_x = x.std() / x.mean()
        cv_y = y.std() / y.mean()
        corr = np.corrcoef(x, y)[0, 1]
        assert 0.5 * cv_x / cv_y < corr
        base = RngStream(3)
        ht_vals, ratio_vals = [], []
        for r in range(3000):
            s = sk.select_srs(frame, 10, rng=base.substream(r))
            ht_vals.append(sk.ht_total(s, s.y_values()).value)
            ratio_vals.append(
                sk.ratio_estimator(s, s.y_values(), x[s.idx], x.sum()).value)
        assert np.var(ratio_vals) < np.var(ht_vals)


class TestDomain:
    def test_full_domain_is_hajek(self, farm_frame):
        s = srs_sample(farm_frame, ("1", "2", "3"))
        y = s.y_values()
        assert sk.domain_mean(s, y, np.ones(3)).value == pytest.approx(
            sk.hajek_mean(s, y).value)

    def test_empty_domain_errors(self, farm_frame):
        s = srs_sample(farm_frame, ("1", "2"))
        with pytest.raises(ValueError, match="eligible"):
            sk.domain_mean(s, s.y_values(), np.zeros(2))


class TestQuantiles:
    def test_q1_max(self, farm_frame):
        s = srs_sample(farm_frame, farm_frame.ids)
        assert sk.quantile(s, s.y_values(), 1.0).value == 15.0

    def test_equal_weights_type1(self, farm_frame):
        s = srs_sample(farm_frame, farm_frame.ids)
        y = s.y_values()
        assert sk.quantile(s, y, 0.5).value == 3.0  # first y with F >= 1/2
        assert sk.quantile(s, y, 0.51).value == 5.0

    def test_empty_sample_raises(self):
        s = sk.Sample(sk.Frame(ids=("a", "b")), np.array([], dtype=np.int64), np.array([]))
        with pytest.raises(ValueError, match="empty sample"):
            sk.quantile(s, np.array([]), 0.5)

    @given(st.lists(st.floats(-50, 50), min_size=2, max_size=12, unique=True))
    @settings(max_examples=60, deadline=None)
    def test_ecdf_monotone_step_to_one(self, values):
        frame = sk.Frame(ids=tuple(map(str, range(len(values)))),
                         y=np.array(values))
        s = srs_sample(frame, frame.ids)
        F = sk.ecdf(s, s.y_values())
        pts = sorted(values)
        levels = [F(t) for t in pts]
        assert all(b >= a for a, b in zip(levels, levels[1:]))
        assert levels[-1] == pytest.approx(1.0)


class TestEstimatingEquation:
    def test_mean_score(self, farm_frame):
        s = srs_sample(farm_frame, ("1", "2", "4"))
        est = sk.estimating_equation_solve(s, lambda t, y: y - t)
        assert est.value == pytest.approx(sk.hajek_mean(s, s.y_values()).value,
                                          abs=1e-8)

    def test_quantile_score_matches_quantile_op(self, farm_frame):
        s = srs_sample(farm_frame, farm_frame.ids)
        q = 0.5
        est = sk.estimating_equation_solve(
            s, lambda t, y: (y < t).astype(float) - q, theta0=5.0)
        # the root of sum w (1{y<t} - q) lies in (3, 5]; the quantile op
        # returns the observed value 3 at the left end of that interval
        assert 3.0 <= est.value <= 5.0

    def test_logistic_location_matches_newton_oracle(self):
        rng = np.random.default_rng(5)
        N = 40
        y = rng.logistic(2.0, 1.0, N)
        frame = sk.Frame(ids=tuple(map(str, range(N))), y=y)
        s = srs_sample(frame, frame.ids)

        def score(theta, yy):
            return 1 / (1 + np.exp(-(yy - theta))) - 0.5

        est = sk.estimating_equation_solve(s, score, theta0=0.0)
        # independent oracle: dense grid root of the same weighted score
        grid = np.linspace(-5, 8, 20001)
        vals = np.array([np.sum(score(t, y)) for t in grid])
        root = grid[np.argmin(np.abs(vals))]
        assert est.value == pytest.approx(root, abs=1e-3)


class TestGREG:
    def test_intercept_only_gives_n_times_hajek(self, farm_frame):
        s = srs_sample(farm_frame, ("1", "2", "3"))
        y = s.y_values()
        est, fit, w = sk.regression_greg(s, y, np.ones((3, 1)), [4.0])
        assert est.value == pytest.approx(4.0 * sk.hajek_mean(s, y).value)

    def test_exact_linear_y_zero_residuals(self, farm_frame):
        s = srs_sample(farm_frame, ("2", "3", "4"))
        x = farm_frame.mos[s.idx][:, None]
        y = 1.5 * x[:, 0]
        est, fit, w = sk.regression_greg(s, y, x, [farm_frame.mos.sum()])
        assert np.allclose(fit.residuals, 0.0, atol=1e-12)
        assert est.value == pytest.approx(1.5 * farm_frame.mos.sum())

    def test_calibration_property(self, farm_frame):
        rng = np.random.default_rng(11)
        s = srs_sample(farm_frame, ("1", "2", "4"))
        x = np.column_stack([np.ones(3), farm_frame.mos[s.idx]])
        y = rng.normal(size=3)
        totals = [4.0, farm_frame.mos.sum()]
        est, fit, w = sk.regression_greg(s, y, x, totals)
        assert np.max(np.abs(w @ x - totals)) < 1e-9
        assert fit.calibration_residual < 1e-9

    def test_normal_equations_under_srs(self, farm_frame):
        rng = np.random.default_rng(13)
        s = srs_sample(farm_frame, ("1", "3", "4"))
        x = np.column_stack([np.ones(3), farm_frame.mos[s.idx]])
        y = rng.normal(size=3)
        est, fit, w = sk.regression_greg(s, y, x, [4.0, 36.0])
        d = s.weights
        resid_eq = (d * fit.residuals / fit.c) @ x
        assert np.max(np.abs(resid_eq)) < 1e-9

    def test_ibc_detection(self, farm_frame):
        s = srs_sample(farm_frame, ("1", "2", "3"))
        x = np.column_stack([np.ones(3), farm_frame.mos[s.idx]])
        y = np.array([1.0, 2.0, 3.0])
        # under SRS and c = 1, c/pi is constant, inside the span of x
        _, fit, _ = sk.regression_greg(s, y, x, [4.0, 36.0])
        assert fit.ibc_holds
        # a no-intercept model with c = 1 breaks the condition
        _, fit2, _ = sk.regression_greg(s, y, x[:, 1:], [36.0])
        assert not fit2.ibc_holds

    def test_variance_shrinks_with_r2_by_mc(self):
        rng = np.random.default_rng(17)
        N = 50
        x = rng.uniform(0, 10, N)
        y = 3 + 2 * x + rng.normal(0, 0.8, N)
        frame = sk.Frame(ids=tuple(map(str, range(N))), aux=x[:, None], y=y)
        r2 = np.corrcoef(x, y)[0, 1] ** 2
        base = RngStream(19)
        plain, greg = [], []
        for r in range(2500):
            s = sk.select_srs(frame, 10, rng=base.substream(r))
            yy = s.y_values()
            plain.append(N * np.mean(yy))
            xs = np.column_stack([np.ones(10), x[s.idx]])
            est, _, _ = sk.regression_greg(s, yy, xs, [N, x.sum()])
            greg.append(est.value)
        ratio = np.var(greg) / np.var(plain)
        assert ratio == pytest.approx(1 - r2, abs=0.08)


class TestPostStratify:
    def test_single_group_ratio_to_N(self, farm_frame):
        s = srs_sample(farm_frame, ("1", "4"))
        y = s.y_values()
        est, w = sk.post_stratify(s, y, ["g"] * 2, {"g": 4})
        nhat = float(np.sum(s.weights))
        assert est.value == pytest.approx(4 * float(np.sum(s.weights * y)) / nhat)

    def test_groups_equal_design_strata(self):
        frame = sk.Frame(ids=tuple("abcdef"), stratum=("s1",) * 3 + ("s2",) * 3,
                         y=np.arange(6, dtype=float))
        s = sk.select_stratified(frame, {"s1": sk.SRS(2), "s2": sk.SRS(2)},
                                 RngStream(23))
        labels = s.stratum_labels()
        est, _ = sk.post_stratify(s, s.y_values(), labels, {"s1": 3, "s2": 3})
        strat_ht = sk.ht_total(s, s.y_values()).value
        assert est.value == pytest.approx(strat_ht)

    def test_empty_group_errors(self, farm_frame):
        s = srs_sample(farm_frame, ("1", "2"))
        with pytest.raises(ValueError, match="no sampled units"):
            sk.post_stratify(s, s.y_values(), ["g1", "g1"], {"g1": 2, "g2": 2})


class TestRake:
    def idx_weights(self):
        return np.array([1.0, 1.0, 1.0, 1.0])

    def test_targets_already_met(self):
        w = self.idx_weights()
        rows = np.array(["a", "a", "b", "b"])
        cols = np.array(["x", "y", "x", "y"])
        out = sk.rake(w, rows, cols, {"a": 2, "b": 2}, {"x": 2, "y": 2})
        assert np.allclose(out, w)

    def test_2x2_matches_ipf_oracle(self):
        # closed-form IPF limit for a 2x2 table preserves the odds ratio
        w = np.array([3.0, 1.0, 2.0, 2.0])  # cells (a,x),(a,y),(b,x),(b,y)
        rows = np.array(["a", "a", "b", "b"])
        cols = np.array(["x", "y", "x", "y"])
        row_t = {"a": 5.0, "b": 5.0}
        col_t = {"x": 4.0, "y": 6.0}
        out = sk.rake(w, rows, cols, row_t, col_t, tol=1e-12)
        # oracle: solve for the cell (a,x) mass t from the odds-preserving
        # quadratic (t/(ra-t)) * ((cb-ra+t)/(cx-t)) = odds of the seed
        odds = (w[0] * w[3]) / (w[1] * w[2])
        from scipy.optimize import brentq  # noqa: F401

        def f(t):
            return (t * (col_t["y"] - row_t["a"] + t)) / (
                (row_t["a"] - t) * (col_t["x"] - t)) - odds

        lo, hi = 1e-9, min(row_t["a"], col_t["x"]) - 1e-9
        import scipy.optimize as so

        t = so.brentq(f, lo, hi, xtol=1e-13)
        expected = np.array([t, row_t["a"] - t, col_t["x"] - t,
                             col_t["y"] - (row_t["a"] - t)])
        assert np.max(np.abs(out - expected)) < 1e-9

    def test_one_dimensional_single_pass(self):
        w = np.array([1.0, 2.0, 3.0])
        rows = np.array(["g", "g", "h"])
        out = sk.rake(w, rows, None, {"g": 6.0, "h": 6.0}, None)
        assert out == pytest.approx([2.0, 4.0, 6.0])

    def test_zero_margin_errors(self):
        w = np.array([1.0, 1.0])
        with pytest.raises(ValueError):
            sk.rake(w, np.array(["a", "a"]), None, {"a": 2.0, "b": 1.0}, None)

    @given(st.integers(2, 5), st.integers(2, 5))
    @settings(max_examples=20, deadline=None)
    def test_margins_met_at_tol(self, I, J):
        rng = np.random.default_rng(I * 31 + J)
        w = rng.uniform(0.5, 2.0, I * J)
        rows = np.repeat(np.arange(I), J)
        cols = np.tile(np.arange(J), I)
        rt = {i: float(rng.uniform(2, 6)) for i in range(I)}
        scale = sum(rt.values())
        ct_raw = rng.uniform(1, 3, J)
        ct = {j: float(v * scale / ct_raw.sum()) for j, v in enumerate(ct_raw)}
        out = sk.rake(w, rows, cols, rt, ct, tol=1e-10)
        for i, t in rt.items():
            assert abs(np.sum(out[rows == i]) - t) < 1e-8
        for j, t in ct.items():
            assert abs(np.sum(out[cols == j]) - t) < 1e-8


class TestDifference:
    def test_perfect_proxy_zero_variance(self, farm_frame):
        s = srs_sample(farm_frame, ("1", "3"))
        est = sk.difference_estimator(s, s.y_values(), farm_frame.y)
        assert est.value == pytest.approx(24.0)

    def test_zero_proxy_is_ht(self, farm_frame):
        s = srs_sample(farm_frame, ("2", "4"))
        est = sk.difference_estimator(s, s.y_values(), np.zeros(4))
        assert est.value == pytest.approx(sk.ht_total(s, s.y_values()).value)

    def test_unbiased_by_enumeration_any_proxy(self, farm_frame):
        rng = np.random.default_rng(29)
        proxy = rng.normal(0, 5, 4)
        dist = sk.enumerate_design(sk.SRS(2), farm_frame)
        pips = sk.first_order_pips(sk.SRS(2), farm_frame)
        acc = 0.0
        for ids, p in dist:
            idx = np.asarray([farm_frame.index_of(u) for u in ids])
            s = sk.Sample(farm_frame, idx, pips.first_order[idx])
            acc += p * sk.difference_estimator(s, s.y_values(), proxy).value
        assert acc == pytest.approx(24.0, abs=1e-10)


class TestTwoPhaseEstimators:
    def test_keep_all_is_phase1_ht(self, farm_frame):
        s = sk.select_two_phase(farm_frame, sk.SRS(3), sk.KeepAll(),
                                RngStream(31))
        dee = sk.two_phase_estimator(s, s.y_values(), "dee")
        ht1 = sk.ht_total(s.phase1, s.phase1.y_values())
        assert dee.value == pytest.approx(ht1.value)

    def test_dee_unbiased_on_stratify_rule(self):
        rng0 = np.random.default_rng(37)
        N = 30
        strata = tuple("a" if v < 0.5 else "b" for v in rng0.uniform(size=N))
        y = rng0.normal(5, 2, N)
        frame = sk.Frame(ids=tuple(map(str, range(N))), stratum=strata, y=y)
        base = RngStream(41)
        R = 4000
        acc = np.empty(R)
        for r in range(R):
            s = sk.select_two_phase(frame, sk.SRS(12),
                                    sk.StratifyOnAux(rate=0.5),
                                    base.substream(r))
            acc[r] = sk.two_phase_estimator(s, s.y_values(), "dee").value
        se = acc.std(ddof=1) / math.sqrt(R)
        assert abs(acc.mean() - y.sum()) < 4 * se

    def test_regression_variance_decomposition(self):
        # SRS/SRS two-phase: Var matches (1/n - 1/N) B'SxxB + (1/r - 1/N) See
        rng0 = np.random.default_rng(43)
        N = 400
        x = rng0.uniform(0, 4, N)
        y = 1.0 + 2.0 * x + rng0.normal(0, 0.5, N)
        frame = sk.Frame(ids=tuple(map(str, range(N))), aux=x[:, None], y=y)
        X = np.column_stack([np.ones(N), x])
        B = np.linalg.lstsq(X, y, rcond=None)[0]
        e = y - X @ B
        Sxx = np.cov(X.T, ddof=1)
        See = float(np.var(e, ddof=1))
        n, r = 80, 20
        theory = (1 / n - 1 / N) * float(B @ Sxx @ B) + (1 / r - 1 / N) * See

        def rule(s1, fr, rng):
            chosen = kernels.srs_selection_rejection(r, s1.idx.size, rng)
            return chosen, np.full(r, r / s1.idx.size), None, None

        base = RngStream(47)
        R = 3000
        vals = np.empty(R)
        for rep in range(R):
            s = sk.select_two_phase(frame, sk.SRS(n), rule, base.substream(rep))
            xs = np.column_stack([np.ones(s.n), x[s.idx]])
            x1 = np.column_stack([np.ones(s.phase1.n), x[s.phase1.idx]])
            est, _ = sk.two_phase_estimator(s, s.y_values(), "regression",
                                            x=xs, x_phase1=x1)
            vals[rep] = est.value / N
        mc_var = np.var(vals, ddof=1)
        assert mc_var == pytest.approx(theory, rel=0.15)


class TestNonNested:
    def test_degenerate_weighting(self):
        xc, W, _ = sk.nonnested_combine([10.0], [14.0], [[1e-12]], [[4.0]])
        assert xc[0] == pytest.approx(10.0, abs=1e-9)

    def test_equal_variance_average(self):
        xc, W, _ = sk.nonnested_combine([10.0], [14.0], [[2.0]], [[2.0]])
        assert xc[0] == pytest.approx(12.0)

    def test_variance_formula_by_mc(self):
        rng0 = np.random.default_rng(53)
        N = 200
        x = rng0.uniform(1, 5, N)
        y = 3 * x + rng0.normal(0, 1, N)
        frame = sk.Frame(ids=tuple(map(str, range(N))), aux=x[:, None], y=y)
        n1, n2 = 80, 25
        base = RngStream(59)
        R = 3000
        vals = np.empty(R)
        for rep in range(R):
            s1 = sk.select_srs(frame, n1, rng=base.substream(2 * rep))
            s2 = sk.select_srs(frame, n2, rng=base.substream(2 * rep + 1))
            xh1 = float(np.sum(s1.weights * x[s1.idx]))
            xh2 = float(np.sum(s2.weights * x[s2.idx]))
            v1 = N ** 2 * (1 / n1 - 1 / N) * np.var(x[s1.idx], ddof=1)
            v2 = N ** 2 * (1 / n2 - 1 / N) * np.var(x[s2.idx], ddof=1)
            xc, _, _ = sk.nonnested_combine([xh1], [xh2], [[v1]], [[v2]])
            est, _ = sk.nonnested_regression(s2, y[s2.idx], x[s2.idx][:, None], xc)
            vals[rep] = est.value
        assert abs(vals.mean() - y.sum()) < 4 * vals.std(ddof=1) / math.sqrt(R)
        # combining the large x-sample must beat the plain HT from sample 2
        ht_only = np.empty(R)
        for rep in range(R):
            s2 = sk.select_srs(frame, n2, rng=base.substream(2 * rep + 1))
            ht_only[rep] = float(np.sum(s2.weights * y[s2.idx]))
        assert np.var(vals) < np.var(ht_only)


class TestPiRescalingInvariance:
    def test_ratio_form_estimators_ignore_constant_pi_scale(self, farm_frame):
        # Hajek, domain, ratio and GREG cancel a constant rescaling of the
        # inclusion probabilities in their ratio positions
        idx = np.array([0, 1, 3])
        pi = np.array([0.4, 0.5, 0.8])
        y = farm_frame.y[idx]
        x = farm_frame.mos[idx]
        for scale in (0.5, 1.0, 1.25):
            s = sk.Sample(farm_frame, idx, np.clip(pi * scale, None, 1.0))
            base = sk.Sample(farm_frame, idx, pi)
            assert sk.hajek_mean(s, y).value == pytest.approx(
                sk.hajek_mean(base, y).value, rel=1e-12)
            assert sk.domain_mean(s, y, np.array([1.0, 0.0, 1.0])).value == \
                pytest.approx(sk.domain_mean(base, y,
                                             np.array([1.0, 0.0, 1.0])).value,
                              rel=1e-12)
            r_s = sk.ratio_estimator(s, y, x, 36.0).value
            r_b = sk.ratio_estimator(base, y, x, 36.0).value
            assert r_s == pytest.approx(r_b, rel=1e-12)


class TestComposite:
    def test_equal_variance_half(self):
        e1 = sk.Estimate(10.0, 4.0)
        e2 = sk.Estimate(14.0, 4.0)
        est, alpha = sk.composite(e1, e2, cov=0.0)
        assert alpha == pytest.approx(0.5)
        assert est.value == pytest.approx(12.0)
        assert est.variance == pytest.approx(2.0)

    def test_repeated_survey_alpha_formula(self):
        # alpha* = (n n_u - n_u^2 rho^2)/(n^2 - n_u^2 rho^2) with cov = 0
        n, n_u, rho, S2 = 100, 40, 0.6, 2.0
        n_m = n - n_u
        v_u = S2 / n_u
        v_m = (1 - rho ** 2) * S2 / n_m + rho ** 2 * S2 / n
        est, alpha = sk.composite(sk.Estimate(0.0, v_u), sk.Estimate(0.0, v_m),
                                  cov=0.0)
        expected = (n * n_u - n_u ** 2 * rho ** 2) / (n ** 2 - n_u ** 2 * rho ** 2)
        assert alpha == pytest.approx(expected, abs=1e-12)

    def test_rho_zero_alpha_is_fraction(self):
        n, n_u = 50, 20
        v_u = 1 / n_u
        v_m = 1 / (n - n_u)
        _, alpha = sk.composite(sk.Estimate(0, v_u), sk.Estimate(0, v_m), 0.0)
        assert alpha == pytest.approx(n_u / n)


def test_with_replacement_weights_are_hansen_hurwitz():
    # weights m / (n p): the difference estimator with zero proxies is the
    # HH total, and both average to the true total 24
    frame = sk.Frame(ids=tuple("abcd"), mos=np.array([1.0, 2.0, 3.0, 4.0]),
                     y=np.array([3.0, 5.0, 7.0, 9.0]))
    base = RngStream(13)
    for design in (sk.PPSWR(3), sk.SRSWR(3)):
        totals = []
        for r in range(200):
            s = sk.select(design, frame, base.substream(r))
            y = s.y_values()
            assert np.allclose(s.weights, s.multiplicity / (3 * s.pi))
            ht = sk.ht_total(s, y).value
            assert sk.difference_estimator(s, y, np.zeros(4)).value == pytest.approx(ht)
            totals.append(ht)
        se = np.std(totals, ddof=1) / math.sqrt(len(totals))
        assert abs(np.mean(totals) - 24.0) < 4 * se
