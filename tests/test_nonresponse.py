import math

import numpy as np
import pytest

import surveykit as sk
from surveykit.nonresponse import propensities
from surveykit.variance import NotMeasurableError


def mar_population(seed=3, N=800, phi=(-0.3, 0.8)):
    rng = np.random.default_rng(seed)
    x1 = rng.uniform(-1, 2, N)
    x = np.column_stack([np.ones(N), x1])
    p = 1 / (1 + np.exp(-(x @ np.array(phi))))
    y = 2 + 1.5 * x1 + rng.normal(0, 0.5, N)
    delta = rng.uniform(size=N) < p
    return sk.ResponseData(delta, x, y), p, np.array(phi), y


class TestPropensityFit:
    def test_intercept_only_weighted_rate(self):
        rng = np.random.default_rng(5)
        delta = rng.uniform(size=200) < 0.7
        w = rng.uniform(1, 3, 200)
        data = sk.ResponseData(delta, np.ones((200, 1)),
                               np.zeros(200), w)
        phi = sk.fit_propensity(data)
        p = 1 / (1 + math.exp(-phi[0]))
        assert p == pytest.approx(float(np.sum(w * delta) / np.sum(w)), abs=1e-9)

    def test_score_calibration_identity(self):
        data, _, _, _ = mar_population()
        phi = sk.fit_propensity(data)
        p = propensities(data, phi)
        # at the optimum the weighted score sum w (delta/p - 1) h vanishes,
        # with h = p x for the logistic link
        score = (data.x * (p * data.w)[:, None]).T @ (data.delta / p - 1)
        assert np.max(np.abs(score)) < 1e-6

    def test_recovers_truth_within_mc_band(self):
        errs = []
        for seed in range(8):
            data, _, truth, _ = mar_population(seed=seed, N=1500)
            phi = sk.fit_propensity(data)
            errs.append(phi - truth)
        errs = np.asarray(errs)
        se = errs.std(axis=0, ddof=1) / math.sqrt(len(errs))
        assert np.all(np.abs(errs.mean(axis=0)) < 3 * se + 0.05)

    def test_separation_detected(self):
        x = np.linspace(-2, 2, 50)
        delta = x > 0
        data = sk.ResponseData(delta, np.column_stack([np.ones(50), x]),
                               np.zeros(50))
        with pytest.raises(RuntimeError, match="separat"):
            sk.fit_propensity(data)

    def test_rank_deficient_rejected(self):
        x = np.column_stack([np.ones(20), np.ones(20)])
        data = sk.ResponseData(np.ones(20, dtype=bool), x, np.zeros(20))
        with pytest.raises(ValueError, match="rank"):
            sk.fit_propensity(data)


class TestPSEstimator:
    def test_full_response_is_ht(self):
        rng = np.random.default_rng(7)
        y = rng.normal(size=30)
        w = rng.uniform(1, 4, 30)
        data = sk.ResponseData(np.ones(30, dtype=bool), np.ones((30, 1)), y, w)
        est = sk.ps_estimator(data, np.ones(30))
        assert est.value == pytest.approx(float(np.sum(w * y)))

    def test_weighting_classes_reduce_to_group_form(self):
        rng = np.random.default_rng(9)
        N = 400
        group = rng.integers(0, 3, N)
        x = np.zeros((N, 3))
        x[np.arange(N), group] = 1.0
        p_true = np.array([0.4, 0.6, 0.8])[group]
        delta = rng.uniform(size=N) < p_true
        y = rng.normal(5, 2, N)
        w = rng.uniform(1, 2, N)
        data = sk.ResponseData(delta, x, y, w)
        phi = sk.fit_propensity(data)
        p = propensities(data, phi)
        est = sk.ps_estimator(data, p)
        # oracle: sum_g Nhat_g * respondent weighted mean
        expected = 0.0
        for g in range(3):
            sel = group == g
            resp = sel & delta
            nhat = float(np.sum(w[sel]))
            ybar = float(np.sum(w[resp] * y[resp]) / np.sum(w[resp]))
            expected += nhat * ybar
        assert est.value == pytest.approx(expected, rel=1e-9)

    def test_mc_unbiased_under_correct_model(self):
        totals, estimates = [], []
        for seed in range(60):
            data, p_true, _, y = mar_population(seed=seed, N=600)
            phi = sk.fit_propensity(data)
            est = sk.ps_estimator(data, propensities(data, phi))
            estimates.append(est.value)
            totals.append(float(np.sum(y)))
        diff = np.asarray(estimates) - np.asarray(totals)
        se = diff.std(ddof=1) / math.sqrt(diff.size)
        assert abs(diff.mean()) < 3 * se


class TestNWARegression:
    def test_full_response_calibrates_to_design_totals(self):
        rng = np.random.default_rng(11)
        n = 50
        x = np.column_stack([np.ones(n), rng.uniform(0, 3, n)])
        d = rng.uniform(1, 3, n)
        data = sk.ResponseData(np.ones(n, dtype=bool), x, rng.normal(size=n), d)
        w = sk.nwa_regression_weights(data)
        assert np.allclose(x.T @ w, x.T @ d, atol=1e-9)

    def test_group_indicators_give_weighting_class_estimator(self):
        rng = np.random.default_rng(13)
        N = 300
        group = rng.integers(0, 2, N)
        x = np.zeros((N, 2))
        x[np.arange(N), group] = 1.0
        delta = rng.uniform(size=N) < 0.6
        y = rng.normal(size=N)
        d = rng.uniform(1, 2, N)
        data = sk.ResponseData(delta, x, y, d)
        w = sk.nwa_regression_weights(data)
        est = float(np.sum(w * np.where(delta, y, 0.0)))
        expected = 0.0
        for g in range(2):
            sel = group == g
            resp = sel & delta
            expected += np.sum(d[sel]) * np.sum(d[resp] * y[resp]) / np.sum(d[resp])
        assert est == pytest.approx(expected, rel=1e-9)

    def test_calibration_identity(self):
        data, _, _, _ = mar_population(seed=21)
        w = sk.nwa_regression_weights(data)
        r = data.delta
        assert np.max(np.abs(data.x[r].T @ w[r] - data.x.T @ data.w)) < 1e-9


class TestPSVariance:
    def test_full_response_no_second_component(self):
        rng = np.random.default_rng(17)
        y = rng.normal(size=40)
        data = sk.ResponseData(np.ones(40, dtype=bool), np.ones((40, 1)), y)
        _, v1, v2 = sk.ps_variance(data, np.ones(40))
        assert v2 == pytest.approx(0.0)
        assert v1 > 0

    def test_v2_term_by_hand(self):
        rng = np.random.default_rng(19)
        n = 25
        x = np.column_stack([np.ones(n)])
        p = np.full(n, 0.5)
        delta = rng.uniform(size=n) < p
        y = rng.normal(size=n)
        data = sk.ResponseData(delta, x, y)
        _, _, v2 = sk.ps_variance(data, p)
        h = x * p[:, None]
        scale = ((1 - p) / p ** 2)[delta]
        gram = (h[delta] * scale[:, None]).T @ h[delta]
        bstar = np.linalg.solve(gram, (h[delta] * scale[:, None]).T @ y[delta])
        fitted = (h @ bstar)[delta]
        expected = float(np.sum((1 - p[delta]) / p[delta] ** 2
                                * (y[delta] - fitted) ** 2))
        assert v2 == pytest.approx(expected, rel=1e-9)

    @staticmethod
    def _srs_joint_case(n=6, N=20, seed=31):
        rng = np.random.default_rng(seed)
        x = np.column_stack([np.ones(n), rng.uniform(-1, 1, n)])
        delta = np.array([True, True, False, True, True, False])
        data = sk.ResponseData(delta, x, rng.normal(3, 1, n), np.full(n, N / n))
        pi = np.full(n, n / N)
        joint = np.full((n, n), n * (n - 1) / (N * (N - 1)))
        np.fill_diagonal(joint, pi)
        return data, rng.uniform(0.4, 0.9, n), pi, joint

    def test_joint_branch_is_the_ht_form_of_eta(self):
        data, p, pi, joint = self._srs_joint_case()
        _, v1, v2 = sk.ps_variance(data, p, joint=joint, pi=pi)
        _, _, v2_wr = sk.ps_variance(data, p)
        r, y = data.delta, data.y
        h = data.x * p[:, None]
        scale = (data.w * (1 - p) / p ** 2)[r]
        bstar = np.linalg.solve((h[r] * scale[:, None]).T @ h[r],
                                (h[r] * scale[:, None]).T @ y[r])
        eta = h @ bstar + np.where(r, (y - h @ bstar) / p, 0.0)
        expected = sum(
            (joint[i, j] - pi[i] * pi[j]) / joint[i, j] * eta[i] / pi[i] * eta[j] / pi[j]
            for i in range(eta.size) for j in range(eta.size))
        assert v1 == pytest.approx(expected, rel=1e-9)
        assert v2 == v2_wr  # the response component ignores the design

    def test_zero_joint_pair_not_measurable(self):
        data, p, pi, joint = self._srs_joint_case()
        joint[0, 1] = joint[1, 0] = 0.0
        with pytest.raises(NotMeasurableError):
            sk.ps_variance(data, p, joint=joint, pi=pi)

    def test_mc_coverage(self):
        # draw a real first-phase SRS so the design component is genuine;
        # the with-replacement V1 formula is mildly conservative at f = 0.1
        rng0 = np.random.default_rng(42)
        N, n = 3000, 300
        x1 = rng0.uniform(-1, 2, N)
        x = np.column_stack([np.ones(N), x1])
        p_true = 1 / (1 + np.exp(-(x @ np.array([-0.3, 0.8]))))
        y = 2 + 1.5 * x1 + rng0.normal(0, 0.5, N)
        total = float(y.sum())
        cover = 0
        reps = 250
        for seed in range(reps):
            rng = np.random.default_rng(1000 + seed)
            idx = np.sort(rng.choice(N, n, replace=False))
            delta = rng.uniform(size=n) < p_true[idx]
            data = sk.ResponseData(delta, x[idx], y[idx],
                                   np.full(n, N / n))
            phi = sk.fit_propensity(data)
            p = propensities(data, phi)
            est = sk.ps_estimator(data, p)
            v, _, _ = sk.ps_variance(data, p)
            half = 1.96 * math.sqrt(v.value)
            cover += abs(est.value - total) <= half
        assert 0.92 <= cover / reps <= 0.99


class TestGECNonresponse:
    def test_targets_met_returns_inverse_propensity(self):
        data, _, _, _ = mar_population(seed=23, N=300)
        w, res = sk.gec_nonresponse(data, "exponential_tilting")
        r = data.delta
        assert res.residual < 1e-9
        phi = sk.fit_propensity(data)
        p = propensities(data, phi)
        spec = sk.get_entropy("exponential_tilting")
        z = np.column_stack([data.x, spec.g(1 / p)])
        lhs = z[r].T @ w[r]
        rhs = z.T @ data.w
        assert np.max(np.abs(lhs - rhs)) < 1e-8

    def test_chi_square_entropy_reduces_to_regression_nwa(self):
        # squared entropy with the debiasing column reproduces the
        # regression weights whenever 1/p lies in the span of (x, g(1/p))
        data, _, _, _ = mar_population(seed=29, N=250)
        w_gec, _ = sk.gec_nonresponse(data, "squared")
        phi = sk.fit_propensity(data)
        p = propensities(data, phi)
        r = data.delta
        z = np.column_stack([data.x, 1 / p])  # squared loss: g(1/p) = 1/p
        aug = sk.ResponseData(data.delta, z, data.y, data.w)
        w_reg = sk.nwa_regression_weights(aug)
        assert np.max(np.abs(w_gec[r] - w_reg[r])) < 1e-6

    def test_mc_unbiased(self):
        diffs = []
        for seed in range(40):
            data, _, _, y = mar_population(seed=seed, N=400)
            w, _ = sk.gec_nonresponse(data, "empirical_likelihood")
            diffs.append(float(np.sum(w * np.where(data.delta, data.y, 0.0)))
                         - y.sum())
        diffs = np.asarray(diffs)
        se = diffs.std(ddof=1) / math.sqrt(diffs.size)
        assert abs(diffs.mean()) < 3.5 * se
