import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import surveykit as sk
from surveykit.allocation import homogeneous_second_phase_rate

SKEWED = [100, 1, 1]  # one large stratum and two of one unit


def seat_one_by_one(weight, N_h, c_h=None, money=None):
    """The seating rule unit by unit: n_h = 1, then each further unit to the
    stratum with the largest weight / sqrt(n_h (n_h + 1)) (ties to the larger
    N_h, then the lower index) among those below N_h whose cost fits; `money`
    None seats units up to sum N_h."""
    H = len(weight)
    c_h = [1.0] * H if c_h is None else c_h
    n_h, money = [1] * H, sum(N_h) if money is None else money
    while True:
        left = money - math.fsum(c * a for c, a in zip(c_h, n_h))
        fits = [h for h in range(H) if n_h[h] < N_h[h] and c_h[h] <= left]
        if not fits:
            return tuple(n_h)
        h = max(fits, key=lambda j: (weight[j] / math.sqrt(n_h[j] * (n_h[j] + 1)), N_h[j], -j))
        n_h[h] += 1


problems = st.integers(2, 5).flatmap(lambda H: st.tuples(
    st.lists(st.integers(1, 300), min_size=H, max_size=H),
    st.lists(st.floats(0, 10), min_size=H, max_size=H),
    st.lists(st.floats(0.5, 5), min_size=H, max_size=H),
    st.floats(0, 1), st.floats(0.05, 0.95)))

METHODS = {
    "proportional": sk.proportional_allocation,
    "neyman": sk.optimal_allocation,
    "power": lambda prob: sk.power_allocation(prob, 0.5),
}


class TestProblem:
    @pytest.mark.parametrize("n", [103, 2, 0, 2.5, math.nan, math.inf])
    def test_n_outside_the_strata_and_their_units(self, n):
        # proportional gave (101, 1, 1) with variance -99 at n = 103, Neyman
        # divided by zero, and power gave (0, 1, 1) at n = 2
        with pytest.raises(ValueError, match=r"^n must be a whole number between the 3 "
                                             r"strata and their 102 units, got "):
            sk.AllocationProblem(SKEWED, n=n)

    @pytest.mark.parametrize("n", [3, 102, 50.0, np.int64(7)])
    def test_n_at_and_inside_the_range(self, n):
        prob = sk.AllocationProblem(SKEWED, n=n)
        assert prob.n == n and type(prob.n) is int

    @pytest.mark.parametrize("budget, fixed_cost", [
        (5.9, 0.0), (7.0, 1.5), (math.inf, 0.0), (math.nan, 0.0), (10.0, math.nan)])
    def test_budget_must_pay_for_one_unit_per_stratum(self, budget, fixed_cost):
        with pytest.raises(ValueError, match=r"^budget - fixed_cost must be finite and pay "
                                             r"for one unit per stratum \(6.0\)"):
            sk.AllocationProblem([5, 5, 5], c_h=[1, 2, 3], budget=budget, fixed_cost=fixed_cost)

    def test_budget_for_exactly_one_unit_per_stratum(self):
        prob = sk.AllocationProblem([5, 5, 5], [1, 2, 3], [1, 2, 3], budget=7.5, fixed_cost=1.5)
        assert sk.optimal_allocation(prob).n_h == (1, 1, 1)

    @pytest.mark.parametrize("method", ["proportional", "power"])
    def test_fixed_size_methods_need_n(self, method):
        # a TypeError on the missing n before
        with pytest.raises(ValueError, match=f"^{method} allocation needs the sample size n"):
            METHODS[method](sk.AllocationProblem([5, 5], budget=10.0))


class TestSeating:
    @given(problems, st.data())
    @settings(max_examples=150, deadline=None)
    def test_every_method_fills_n_within_1_to_N_h(self, problem, data):
        N_h, S_h, _, _, _ = problem
        n = data.draw(st.integers(len(N_h), sum(N_h)))
        prob = sk.AllocationProblem(N_h, S_h, n=n)
        for name, method in METHODS.items():
            if name == "neyman" and not any(S_h):
                continue
            out = method(prob)
            assert out.n == n, name
            assert all(1 <= a <= N for a, N in zip(out.n_h, N_h)), name
            assert out.variance >= 0, name
            assert sum(out.raw_n_h) == n, name
            assert out.capped == tuple(h for h, (r, N) in enumerate(zip(out.raw_n_h, N_h))
                                       if r > N), name

    @given(problems, st.data())
    @settings(max_examples=100, deadline=None)
    def test_seating_is_the_unit_by_unit_rule(self, problem, data):
        # the seating starts past the units every threshold gives; the
        # result must be the one-by-one greedy's, for n and for a budget
        N_h, S_h, c_h, spend, alpha = problem
        n = data.draw(st.integers(len(N_h), sum(N_h)))
        prob = sk.AllocationProblem(N_h, S_h, n=n)
        assert sk.proportional_allocation(prob).n_h == seat_one_by_one(N_h, N_h, money=n)
        assert sk.power_allocation(prob, alpha).n_h == seat_one_by_one(
            [N ** alpha for N in N_h], N_h, money=n)
        if any(S_h):
            budget = math.fsum(c_h) + spend * sum(c * N for c, N in zip(c_h, N_h))
            prob = sk.AllocationProblem(N_h, S_h, c_h, budget=budget)
            weight = [N * S / math.sqrt(c) for N, S, c in zip(N_h, S_h, c_h)]
            assert sk.optimal_allocation(prob).n_h == seat_one_by_one(weight, N_h, c_h, budget)

    @pytest.mark.parametrize("N_h", [(4, 3), (2, 5, 3), (6, 1, 6), (9, 4, 2)])
    def test_neyman_is_the_whole_number_minimum(self, N_h):
        # Wright (2012): Huntington-Hill seating on N_h S_h is the exact
        # integer Neyman allocation within [1, N_h]
        rng = np.random.default_rng(sum(N_h))
        for _ in range(10):
            S_h = rng.uniform(0, 10, len(N_h)).tolist()
            for n in range(len(N_h), min(15, sum(N_h)) + 1):
                best = min(sk.allocation._stratified_total_variance(N_h, S_h, a)
                           for a in itertools.product(*(range(1, N + 1) for N in N_h))
                           if sum(a) == n)
                got = sk.optimal_allocation(sk.AllocationProblem(N_h, S_h, n=n))
                assert got.variance == pytest.approx(best, rel=1e-12, abs=1e-9)

    @given(problems)
    @settings(max_examples=100, deadline=None)
    def test_budget_allocation_spends_within_the_budget(self, problem):
        N_h, S_h, c_h, spend, _ = problem
        if not any(S_h):
            return
        budget = math.fsum(c_h) + spend * sum(c * N for c, N in zip(c_h, N_h))
        out = sk.optimal_allocation(sk.AllocationProblem(N_h, S_h, c_h, budget=budget))
        left = budget - math.fsum(c * a for c, a in zip(c_h, out.n_h))
        assert left >= -1e-12 * budget  # up to the rounding of the cost sum
        # no stratum below its cap could take one more unit
        assert all(a == N or c > left for a, N, c in zip(out.n_h, N_h, c_h))

    def test_budget_example_no_longer_overspends(self):
        # gave (58, 9, 4), which costs 102 against a budget of 100
        prob = sk.AllocationProblem([100, 110, 120], [50, 10, 5], [1, 2, 4],
                                    budget=100.0, fixed_cost=10.0)
        out = sk.optimal_allocation(prob)
        assert 10 + sum(c * a for c, a in zip([1, 2, 4], out.n_h)) <= 100
        assert out.n_h == (60, 9, 3)

    def test_large_problem_seats_in_one_step(self):
        # the greedy starts near the threshold, so a huge budget needs no
        # unit-by-unit loop over billions of units
        prob = sk.AllocationProblem([100, 110, 120], [50, 10, 5], budget=1e12)
        out = sk.optimal_allocation(prob)
        assert out.n_h == (100, 110, 120) and out.capped == (0, 1, 2)
        assert sum(out.raw_n_h) == 10 ** 12


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

    def test_skewed_table_fits(self):
        # raised "sample size cannot give every free stratum one unit"
        out = sk.optimal_allocation(sk.AllocationProblem(SKEWED, [10, 0.001, 0.001], n=101))
        assert out.n_h == (99, 1, 1) and out.capped == ()

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
            assert v_opt <= v_prop * (1 + 1e-12)  # the whole-number minimum

    def test_integerization_preserves_total(self):
        rng = np.random.default_rng(1)
        for _ in range(25):
            H = int(rng.integers(2, 6))
            prob = sk.AllocationProblem(
                rng.integers(20, 300, H).tolist(),
                rng.uniform(0, 10, H).tolist() if rng.random() > 0.1 else [1.0] * H,
                n=int(rng.integers(H, 50)),
            )
            out = sk.optimal_allocation(prob)
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

    def test_skewed_table_fits(self):
        # raised "allocation does not fit under the stratum caps"
        out = sk.power_allocation(sk.AllocationProblem(SKEWED, n=100), 0.5)
        assert out.n_h == (98, 1, 1) and out.capped == (1, 2)

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
