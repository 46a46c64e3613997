import itertools
import math

import numpy as np
import pytest

import surveykit as sk
from surveykit.allocation import homogeneous_second_phase_rate


class TestProportional:
    def test_huntington_hill_toy(self):
        prob = sk.AllocationProblem([100000, 50000, 40000, 20000], n=8)
        out = sk.proportional_allocation(prob)
        assert out.n_h == (4, 2, 1, 1)

    def test_equal_sizes_symmetric(self):
        prob = sk.AllocationProblem([30, 30, 30], n=6)
        assert sk.proportional_allocation(prob).n_h == (2, 2, 2)

    def test_n_below_H(self):
        with pytest.raises(ValueError):
            sk.proportional_allocation(sk.AllocationProblem([5, 5, 5], n=2))

    @pytest.mark.parametrize("size", [math.inf, math.nan, 0, 2.5])
    def test_stratum_size_must_be_a_whole_number_of_at_least_1(self, size):
        # inf raised OverflowError, and 2.5 was taken as 2
        with pytest.raises(ValueError, match=r"^stratum 1 has N_h "):
            sk.AllocationProblem([5, size, 5], n=4)

    @pytest.mark.parametrize("field, value, message", [
        ("S_h", -1.0, "stratum standard deviations"),
        ("S_h", math.nan, "stratum standard deviations"),
        ("S_h", math.inf, "stratum standard deviations"), ("c_h", 0.0, "unit costs"),
        ("c_h", -2.0, "unit costs"), ("c_h", math.nan, "unit costs"),
        ("c_h", math.inf, "unit costs")])
    def test_sd_and_cost_must_be_finite(self, field, value, message):
        # NaN passed both the v < 0 and the v <= 0 test
        with pytest.raises(ValueError, match=f"^{message} must be finite"):
            sk.AllocationProblem([5, 6, 7], n=4, **{field: [1.0, value, 1.0]})

    def test_minimizes_representation_distance(self):
        # brute force over integer compositions of n with n_h >= 1
        N_h = (9, 5, 3)
        n = 7

        def Q(alloc):
            N = sum(N_h)
            return sum(a * (Nh / a - N / n) ** 2 for Nh, a in zip(N_h, alloc)) / n

        best = min(
            (c for c in itertools.product(range(1, n + 1), repeat=3) if sum(c) == n),
            key=Q,
        )
        got = sk.proportional_allocation(sk.AllocationProblem(list(N_h), n=n))
        assert Q(got.n_h) == pytest.approx(Q(best), abs=1e-12)


class TestOptimal:
    def test_capped_worked_example(self):
        prob = sk.AllocationProblem([100, 110, 120], [50, 10, 5], n=140)
        out = sk.optimal_allocation(prob)
        assert out.raw_n_h == (104, 23, 13)
        assert out.n_h == (100, 26, 14)
        assert out.capped == (0,)

    def test_equal_s_and_cost_reduces_to_proportional(self):
        prob = sk.AllocationProblem([100, 50, 40, 20], [3, 3, 3, 3], n=21)
        opt = sk.optimal_allocation(prob)
        prop = sk.proportional_allocation(sk.AllocationProblem([100, 50, 40, 20], n=21))
        assert opt.n_h == prop.n_h

    def test_zero_variance_stratum_keeps_minimum(self):
        prob = sk.AllocationProblem([50, 50], [1.0, 0.0], n=10)
        out = sk.optimal_allocation(prob)
        assert out.n_h == (9, 1)

    def test_all_zero_variance_rejected(self):
        with pytest.raises(ValueError):
            sk.optimal_allocation(sk.AllocationProblem([5, 5], [0, 0], n=4))

    def test_neyman_never_beats_proportional_backwards(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            H = rng.integers(2, 5)
            N_h = rng.integers(50, 200, H).tolist()
            S_h = rng.uniform(0.5, 20, H).tolist()
            n = int(rng.integers(H + 5, 40))
            prob = sk.AllocationProblem(N_h, S_h, n=n)
            v_opt = sk.optimal_allocation(prob).variance
            v_prop = sk.proportional_allocation(prob).variance
            assert v_opt <= v_prop * (1 + 5e-2) + 1e-9  # integerization slack

    def test_integerization_preserves_total(self):
        rng = np.random.default_rng(1)
        for _ in range(25):
            H = int(rng.integers(2, 6))
            prob = sk.AllocationProblem(
                rng.integers(20, 300, H).tolist(),
                rng.uniform(0, 10, H).tolist() if rng.random() > 0.1 else [1.0] * H,
                n=int(rng.integers(H, 50)),
            )
            try:
                out = sk.optimal_allocation(prob)
            except ValueError:
                continue
            assert out.n == prob.n
            assert all(1 <= a <= Nh for a, Nh in zip(out.n_h, prob.N_h))


class TestPower:
    def test_alpha_near_one_matches_proportional(self):
        prob = sk.AllocationProblem([100, 300], n=8)
        out = sk.power_allocation(prob, 0.999999)
        assert out.n_h == (2, 6)

    def test_square_root_ratio(self):
        prob = sk.AllocationProblem([100, 400], n=9)
        out = sk.power_allocation(prob, 0.5)
        assert out.n_h == (3, 6)  # sqrt ratio 1:2

    def test_alpha_out_of_range(self):
        with pytest.raises(ValueError):
            sk.power_allocation(sk.AllocationProblem([10, 10], n=4), 1.5)


class TestClusterSubsample:
    def test_equal_costs_half_icc(self):
        # c1 = c2 and rho = 1/2 make the large-M optimum exactly one element
        assert sk.subsample_size_from_icc(1.0, 1.0, 0.5) == pytest.approx(1.0)

    def test_plug_in(self):
        assert sk.subsample_size_from_icc(10.0, 1.0, 0.1) == pytest.approx(math.sqrt(90))

    def test_symbolic_identity(self):
        c1, c2, s2b, s2w, M = 4.0, 1.5, 3.0, 1.2, 40
        m, flags = sk.cluster_subsample_size(c1, c2, s2b, s2w, M)
        assert not flags
        assert m ** 2 * (s2b - s2w / M) == pytest.approx((c1 / c2) * s2w)

    def test_one_stage_flagged(self):
        m, flags = sk.cluster_subsample_size(1.0, 1.0, 0.01, 1.0, 20)
        assert m == 20 and "one_stage_optimal" in flags


class TestTwoPhaseRates:
    def test_homogeneous_example(self):
        assert homogeneous_second_phase_rate(1, 10, 2.0) == pytest.approx(
            math.sqrt(0.1), abs=1e-12)

    def test_phi_to_infinity(self):
        assert homogeneous_second_phase_rate(1, 1, 1e12) < 1e-5

    def test_stationarity_of_product(self):
        # grid perturbation: V*(C) cannot drop by more than 1e-9 relative
        c1, W = 1.0, np.array([0.4, 0.35, 0.25])
        c2 = np.array([8.0, 12.0, 10.0])
        S2h = np.array([1.0, 2.5, 0.8])
        S2 = 4.0
        out = sk.two_phase_strat_rates(c1, c2, W, S2h, S2)
        nu0 = out["nu_h"]

        def vc(nu):
            V = (S2 - float(W @ S2h)) + float(np.sum(W * S2h / nu))
            C = c1 + float(np.sum(c2 * W * nu))
            return V * C

        base = vc(nu0)
        for h in range(3):
            for eps in (-0.05, 0.05):
                nu = nu0.copy()
                nu[h] *= 1 + eps
                assert vc(nu) >= base * (1 - 1e-9)

    def test_regression_cost_example(self):
        out = sk.two_phase_reg_rate(1.0, 10.0, s_ee=0.36, bsb=0.64, budget=1000.0)
        assert out["nu"] == pytest.approx(0.23717, abs=1e-4)
        assert out["n"] == 300
        assert out["r"] == 70
        assert out["V"] == pytest.approx(7.28e-3, abs=2e-5)

    def test_equal_variance_direct_cost(self):
        # matching the optimal design's variance with a y-only survey needs
        # r = 1/V* units at cost c2 each, about 1374 budget units
        out = sk.two_phase_reg_rate(1.0, 10.0, s_ee=0.36, bsb=0.64, budget=1000.0)
        direct_budget = 10.0 / out["V"]
        assert direct_budget == pytest.approx(1374, abs=1.0)

    def test_no_regression_gain_flag(self):
        out = sk.two_phase_reg_rate(1.0, 10.0, s_ee=1.0, bsb=0.0, budget=1000.0)
        assert "all_budget_to_y" in out["flags"]
        assert out["nu"] == 1.0 and out["n"] == out["r"]

    def test_product_criterion_stationary(self):
        # perturbing the optimal rate by 5% in either direction cannot
        # reduce V * (C - c0) below the optimum (within 1e-9 relative)
        c1, c2, s_ee, bsb = 1.0, 10.0, 0.36, 0.64
        out = sk.two_phase_reg_rate(c1, c2, s_ee, bsb, budget=1000.0)
        nu0 = out["nu_exact"]

        def vc(nu):
            return (c1 + c2 * nu) * (bsb + s_ee / nu)

        base = vc(nu0)
        for eps in (-0.05, 0.05):
            assert vc(nu0 * (1 + eps)) >= base * (1 - 1e-9)


class TestRepeatedSurveys:
    def test_rho_zero_half_split(self):
        out = sk.repeated_survey_fractions(0.0)
        assert out["unmatched"] == pytest.approx(0.5)
        assert out["variance_factor"] == pytest.approx(1.0)

    def test_rho_one_bounds(self):
        out = sk.repeated_survey_fractions(1.0)
        assert out["unmatched"] == pytest.approx(1.0)
        assert out["variance_factor"] == pytest.approx(0.5)

    def test_rho_point_six(self):
        assert sk.repeated_survey_fractions(0.6)["variance_factor"] == pytest.approx(0.9)


class TestCallback:
    def test_expensive_callback_goes_to_zero(self):
        nu, _ = sk.callback_rate(1.0, 1.0, 0.5, 1e9, 1.0, 0.5, 1.0)
        assert nu < 1e-3

    def test_cap_with_flag(self):
        # c0 + c1 W1 = c2 and S2^2 = S^2, W2 = 1/2 gives nu* = sqrt(2) -> cap
        nu, flags = sk.callback_rate(0.5, 1.0, 0.5, 1.0, 1.0, 0.5, 1.0)
        assert nu == 1.0 and "rate_capped_at_one" in flags

    def test_matches_two_phase_specialization(self):
        # same algebra as the stratified two-phase rate with two strata
        c0, c1, W1, c2, S2, W2, S22 = 0.2, 1.0, 0.7, 5.0, 2.0, 0.3, 1.5
        nu, _ = sk.callback_rate(c0, c1, W1, c2, S2, W2, S22)
        expected = math.sqrt((c0 + c1 * W1) / c2 * S22 / (S2 - W2 * S22))
        assert nu == pytest.approx(expected)


class TestBoundaries:
    def test_bimodal_cut_separates_modes(self):
        rng = np.random.default_rng(3)
        values = np.concatenate([rng.normal(0, 0.4, 400), rng.normal(10, 0.4, 400)])
        low_max = values[values < 5].max()
        high_min = values[values > 5].min()
        for method in ("dalenius_hodges", "sequential", "kmeans"):
            (b,) = sk.stratum_boundaries(values, 2, method=method, rng=7)
            assert low_max <= b < high_min, method

    def test_dh_uniform_near_equal_width(self):
        rng = np.random.default_rng(11)
        values = rng.uniform(0, 1, 4000)
        bounds = sk.stratum_boundaries(values, 4, method="dalenius_hodges")
        assert np.allclose(bounds, [0.25, 0.5, 0.75], atol=0.05)

    def test_sequential_weakly_decreases_and_beats_grid_floor(self):
        rng = np.random.default_rng(13)
        values = np.sort(rng.lognormal(0, 1, 28))

        def NS(bounds):
            total, cuts = 0.0, [-np.inf, *bounds, np.inf]
            for lo, hi in zip(cuts[:-1], cuts[1:]):
                g = values[(values > lo) & (values <= hi)]
                if g.size >= 2:
                    total += g.size * g.std(ddof=1)
            return total

        got = sk.stratum_boundaries(values, 2, method="sequential")
        start = NS([np.linspace(values[0], values[-1], 3)[1]])
        assert NS(got) <= start + 1e-12
        # exhaustive single-boundary grid: sequential must be near the best
        best = min(NS([b]) for b in values[1:-1])
        assert NS(got) <= best * 1.25

    def test_too_many_strata(self):
        with pytest.raises(ValueError):
            sk.stratum_boundaries([1.0, 1.0, 2.0], 3, method="kmeans")
