import numpy as np
import pytest

import surveykit as sk
from surveykit.calibration import (
    InfeasibleCalibrationError,
    get_entropy,
    normalized,
)

NU_GRIDS = {
    "squared": np.linspace(-3, 3, 100),
    "kullback_leibler": np.linspace(-2, 2, 100),
    "shifted_kl": np.linspace(-2, 2, 100),
    "empirical_likelihood": np.linspace(-5, -0.1, 100),
    "exponential_tilting": np.linspace(-2, 2, 100),
    "cross_entropy": np.linspace(-4, -0.05, 100),
    "hellinger": np.linspace(-5, -0.2, 100),
    "pseudo_huber": np.linspace(-0.95, 0.95, 100),
    "inverse": np.linspace(-4, -0.1, 100),
    "renyi(2)": np.linspace(0.1, 4, 100),
    "renyi(-0.5)": np.linspace(-4, -0.1, 100),
}


def toy_problem(entropy, family="divergence", debias=False, seed=3, n=200,
                p=5):
    rng = np.random.default_rng(seed)
    d = rng.uniform(1.5, 6.0, n)
    z = np.column_stack([np.ones(n), rng.uniform(0, 2, (n, p - 1))])
    true = z.T @ (d * rng.uniform(0.9, 1.1, n))
    return sk.CalibrationProblem(d, z, true, entropy=entropy, family=family,
                                 debias=debias)


class TestConjugates:
    @pytest.mark.parametrize("name", sorted(NU_GRIDS))
    def test_identities_to_1e10(self, name):
        report = sk.conjugate_check(name, NU_GRIDS[name])
        assert report["passed"], report

    def test_squared_table_row(self):
        spec = get_entropy("squared")
        nu = np.linspace(-2, 2, 9)
        assert np.allclose(spec.rho(nu), nu ** 2 / 2)
        assert np.allclose(spec.rho1(nu), nu)

    def test_shifted_kl_table_row(self):
        spec = get_entropy("shifted_kl")
        nu = np.linspace(-2, 2, 9)
        assert np.allclose(spec.rho(nu), nu + np.exp(nu))
        assert np.allclose(spec.rho1(nu), 1 + np.exp(nu))

    def test_empirical_likelihood_table_row(self):
        # rho follows the printed table; the printed derivative drops the
        # sign, and conjugacy forces rho'(nu) = -1/nu
        spec = get_entropy("empirical_likelihood")
        nu = np.linspace(-4, -0.5, 9)
        assert np.allclose(spec.rho(nu), -1 - np.log(-nu))
        assert np.allclose(spec.rho1(nu), -1 / nu)
        w = np.linspace(0.5, 4, 9)
        assert np.allclose(spec.rho1(spec.g(w)), w)

    def test_ch9_g_columns(self):
        # g(1/pi) values used as debiasing covariates
        pi = np.linspace(0.1, 0.9, 9)
        assert np.allclose(get_entropy("squared").g(1 / pi), 1 / pi)
        assert np.allclose(get_entropy("empirical_likelihood").g(1 / pi), -pi)
        assert np.allclose(get_entropy("exponential_tilting").g(1 / pi),
                           -np.log(pi))
        assert np.allclose(get_entropy("cross_entropy").g(1 / pi),
                           np.log(1 - pi))
        assert np.allclose(get_entropy("hellinger").g(1 / pi),
                           -2 * np.sqrt(pi))
        assert np.allclose(get_entropy("inverse").g(1 / pi), -pi ** 2 / 2)
        assert np.allclose(get_entropy("renyi(2)").g(1 / pi), (1 / pi) ** 2 / 2)

    def test_normalized_entropy_is_bregman(self):
        for name in ("kullback_leibler", "empirical_likelihood", "hellinger"):
            spec = normalized(get_entropy(name))
            assert spec.g(1.0) == pytest.approx(0.0, abs=1e-14)
            assert spec.G(1.0) == pytest.approx(0.0, abs=1e-14)
            w = np.linspace(0.4, 3, 50)
            assert np.all(spec.G(w) >= -1e-12)


class TestChiSquare:
    def test_targets_met_weights_unchanged(self):
        d = np.array([2.0, 3.0, 4.0])
        z = np.column_stack([np.ones(3), np.array([1.0, 2.0, 5.0])])
        res = sk.solve_chi_square(sk.CalibrationProblem(d, z, z.T @ d))
        assert np.allclose(res.weights, d)
        assert np.allclose(res.lagrange, 0.0)

    def test_single_size_constraint_closed_form(self):
        d = np.array([1.0, 2.0, 3.0])
        c = np.array([1.0, 2.0, 4.0])
        N = 9.5
        res = sk.solve_chi_square(
            sk.CalibrationProblem(d, np.ones((3, 1)), [N], scale=c))
        expected = d + (N - d.sum()) / np.sum(1 / c) * (1 / c)
        assert np.allclose(res.weights, expected)

    def test_bitwise_equal_to_greg_weights(self):
        rng = np.random.default_rng(7)
        n = 30
        frame = sk.Frame(ids=tuple(map(str, range(100))),
                         y=rng.normal(size=100))
        idx = np.sort(rng.choice(100, n, replace=False))
        s = sk.Sample(frame, idx, np.full(n, n / 100))
        x = np.column_stack([np.ones(n), rng.uniform(1, 3, n)])
        totals = np.array([100.0, 210.0])
        c = rng.uniform(0.5, 2.0, n)
        _, _, w_greg = sk.regression_greg(s, s.y_values(), x, totals, c)
        res = sk.solve_chi_square(
            sk.CalibrationProblem(s.weights, x, totals, scale=c))
        assert np.array_equal(w_greg, res.weights)  # bit-for-bit

    def test_singular_gram(self):
        d = np.ones(4)
        z = np.column_stack([np.ones(4), np.ones(4)])
        with pytest.raises(np.linalg.LinAlgError):
            sk.solve_chi_square(sk.CalibrationProblem(d, z, [4.0, 4.0]))


class TestEntropySolver:
    def test_kl_single_constraint_is_ratio_adjustment(self):
        d = np.array([2.0, 3.0, 5.0, 10.0])
        prob = sk.CalibrationProblem(d, np.ones((4, 1)), [30.0],
                                     entropy="kullback_leibler")
        res = sk.solve_entropy(prob)
        assert np.allclose(res.weights, d * 30.0 / d.sum(), atol=1e-9)

    @pytest.mark.parametrize("entropy", [
        "squared", "kullback_leibler", "empirical_likelihood",
        "exponential_tilting", "hellinger", "pseudo_huber", "inverse",
        "renyi(2)",
    ])
    def test_divergence_family_residuals_below_tol(self, entropy):
        prob = toy_problem(entropy)
        res = sk.solve_entropy(prob)
        z, T = prob.constraints, prob.targets
        assert float(np.max(np.abs(z.T @ res.weights - T))) < 1e-9

    @pytest.mark.parametrize("entropy", ["shifted_kl", "cross_entropy"])
    def test_weight_above_one_entropies_refuse_divergence_family(self, entropy):
        # these live on (1, inf): a weight ratio of 1 sits outside their
        # domain, so only the design-weight-free family applies
        with pytest.raises(ValueError, match="design-weight-free"):
            sk.solve_entropy(toy_problem(entropy))

    @pytest.mark.parametrize("entropy", [
        "kullback_leibler", "empirical_likelihood", "exponential_tilting",
        "cross_entropy", "hellinger", "inverse", "renyi(2)",
    ])
    def test_entropy_family_with_debias(self, entropy):
        prob = toy_problem(entropy, family="entropy", debias=True)
        res = sk.solve_entropy(prob)
        spec = get_entropy(entropy)
        d, v = prob.base_weights, prob.scale
        gcol = spec.g(d) * v
        z = np.column_stack([prob.constraints, gcol])
        T = np.concatenate([prob.targets, [float(np.sum(d * gcol))]])
        assert float(np.max(np.abs(z.T @ res.weights - T))) < 1e-9

    def test_targets_met_exact_base_weights_every_entropy(self):
        rng = np.random.default_rng(11)
        d = rng.uniform(1, 4, 50)
        z = np.column_stack([np.ones(50), rng.uniform(0, 1, 50)])
        for entropy in ("squared", "kullback_leibler", "empirical_likelihood",
                        "hellinger", "inverse", "renyi(2)"):
            prob = sk.CalibrationProblem(d, z, z.T @ d, entropy=entropy)
            res = sk.solve_entropy(prob)
            assert np.max(np.abs(res.weights - d)) < 1e-9, entropy
            prob2 = sk.CalibrationProblem(d, z, z.T @ d, entropy=entropy,
                                          family="entropy", debias=True)
            res2 = sk.solve_entropy(prob2)
            assert np.max(np.abs(res2.weights - d)) < 1e-9, entropy

    def test_el_weights_stay_positive(self):
        prob = toy_problem("empirical_likelihood", seed=13)
        res = sk.solve_entropy(prob)
        assert np.all(res.weights > 0)

    def test_objective_never_increases_across_newton_steps(self):
        # track the primal divergence objective along the accepted iterates
        # by re-running with increasing iteration caps
        prob = toy_problem("kullback_leibler", seed=17)
        spec = normalized(get_entropy("kullback_leibler"))
        d, v = prob.base_weights, prob.scale

        def primal(w):
            return float(np.sum(d * spec.G(w / d) * v))

        full = sk.solve_entropy(prob)
        values = []
        for cap in range(1, full.iterations + 1):
            try:
                res = sk.solve_entropy(prob, max_iter=cap)
            except InfeasibleCalibrationError:
                continue
            values.append(primal(res.weights))
        if len(values) >= 2:
            assert all(b <= a + 1e-9 for a, b in zip(values, values[1:]))

    def test_overflowing_trial_steps_raise_no_warning(self):
        # the line search's first trials overflow exp and are rejected; the
        # suite turns a RuntimeWarning into an error
        x = np.array([4.0, 6.0, 6.0, 20.0])
        prob = sk.CalibrationProblem(x, x[:, None], [1e6], entropy="kullback_leibler")
        res = sk.solve_entropy(prob)
        assert res.weights @ x == pytest.approx(1e6, rel=1e-12)

    def test_infeasible_targets_detected(self):
        d = np.ones(5)
        z = np.ones((5, 1))
        # EL weights must stay positive: a negative total is unreachable
        prob = sk.CalibrationProblem(d, z, [-3.0],
                                     entropy="empirical_likelihood")
        with pytest.raises(InfeasibleCalibrationError):
            sk.solve_entropy(prob)

    def test_immediate_convergence_reports_zero_iterations(self):
        d = np.array([1.0, 2.0])
        prob = sk.CalibrationProblem(d, np.ones((2, 1)), [3.0],
                                     entropy="exponential_tilting")
        res = sk.solve_entropy(prob)
        assert res.iterations == 0


class TestDebiasIdentity:
    def test_gec_implies_zero_weighted_residual(self):
        # with the debiasing column in play the implied regression fit has
        # d-weighted residual sum zero (internal bias calibration)
        rng = np.random.default_rng(19)
        n = 120
        pi = rng.uniform(0.2, 0.8, n)
        d = 1 / pi
        x = np.column_stack([np.ones(n), rng.uniform(0, 2, n)])
        y = x @ np.array([1.0, 3.0]) + rng.normal(0, 0.4, n)
        spec = get_entropy("exponential_tilting")
        gcol = spec.g(d)
        z = np.column_stack([x, gcol])
        targets = z.T @ d * rng.uniform(0.98, 1.02, 3)
        prob = sk.CalibrationProblem(d, z, targets,
                                     entropy="exponential_tilting",
                                     family="entropy")
        res = sk.solve_entropy(prob)
        # the dual solution makes the weights an exact function of z'lambda;
        # the implied generalized-regression residual of y on z under the
        # solver's internal metric reproduces the calibration estimator
        gram = (z * (spec.rho2(z @ res.lagrange))[:, None]).T @ z
        gamma = np.linalg.solve(
            gram, (z * (spec.rho2(z @ res.lagrange))[:, None]).T @ y)
        lhs = float(res.weights @ y)
        rhs = float(targets @ gamma + res.weights @ (y - z @ gamma))
        assert lhs == pytest.approx(rhs, rel=1e-12)
