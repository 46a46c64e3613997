"""Sample-size allocation and stratum-boundary search."""

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "AllocationProblem", "Allocation", "proportional_allocation",
    "optimal_allocation", "power_allocation", "cluster_subsample_size",
    "subsample_size_from_icc", "two_phase_strat_rates", "two_phase_reg_rate",
    "repeated_survey_fractions", "callback_rate", "stratum_boundaries",
]


@dataclass(frozen=True)
class AllocationProblem:
    N_h: tuple
    S_h: tuple = None
    c_h: tuple = None
    n: int = None
    budget: float = None
    fixed_cost: float = 0.0
    target: str = "total"  # or "mean_difference"

    def __post_init__(self):
        whole = _whole_sizes(self.N_h)
        if not whole.all():
            h = int(np.argmin(whole))
            raise ValueError(f"stratum {h} has N_h {float(self.N_h[h])!r}; every stratum needs "
                             "a whole number of units, at least 1")
        N_h = tuple(int(v) for v in self.N_h)
        object.__setattr__(self, "N_h", N_h)
        H = len(N_h)
        S_h = tuple(float(v) for v in (self.S_h if self.S_h is not None else [1.0] * H))
        if not all(0 <= v < math.inf for v in S_h):  # NaN fails too
            raise ValueError("stratum standard deviations must be finite and nonnegative")
        object.__setattr__(self, "S_h", S_h)
        c_h = tuple(float(v) for v in (self.c_h if self.c_h is not None else [1.0] * H))
        if not all(0 < v < math.inf for v in c_h):
            raise ValueError("unit costs must be finite and positive")
        object.__setattr__(self, "c_h", c_h)
        if (self.n is None) == (self.budget is None):
            raise ValueError("set exactly one of n and budget")


def _whole_sizes(N_h):
    """Which of the stratum sizes N_h are whole numbers of at least 1 (NaN
    and the infinities are not)."""
    N_h = np.asarray(N_h, dtype=float)
    return np.isfinite(N_h) & (N_h >= 1) & (N_h == np.floor(N_h))


@dataclass(frozen=True)
class Allocation:
    n_h: tuple
    variance: float
    capped: tuple = ()
    raw_n_h: tuple = None  # integerized allocation before caps were applied
    flags: tuple = ()

    @property
    def n(self):
        return sum(self.n_h)


def _stratified_total_variance(N_h, S_h, n_h):
    v = 0.0
    for N, S, n in zip(N_h, S_h, n_h):
        if n > 0:
            v += N ** 2 / n * (1 - n / N) * S ** 2
    return v


def _largest_remainder(shares, n, caps):
    """Integerize nonnegative shares to sum n, each >= 1 and <= cap."""
    H = len(shares)
    shares = np.asarray(shares, dtype=float)
    base = np.maximum(np.floor(shares).astype(int), 1)
    base = np.minimum(base, caps)
    rem = n - base.sum()
    order = np.argsort(-(shares - np.floor(shares)))
    k = 0
    while rem > 0:
        h = order[k % H]
        if base[h] < caps[h]:
            base[h] += 1
            rem -= 1
        k += 1
        if k > 10 * H and rem > 0:
            raise ValueError("allocation does not fit under the stratum caps")
    while rem < 0:
        h = int(np.argmax(base - np.maximum(1, shares)))
        if base[h] <= 1:
            h = int(np.argmax(base))
        base[h] -= 1
        rem += 1
    return tuple(int(v) for v in base)


def proportional_allocation(problem, n=None):
    """Integer proportional allocation by the Huntington-Hill priority rule:
    after seeding one unit per stratum, seats go greedily to the largest
    priority value N_h / sqrt(s(s+1))."""
    N_h = problem.N_h if isinstance(problem, AllocationProblem) else tuple(problem)
    if n is None:
        n = problem.n
    H = len(N_h)
    if n < H:
        raise ValueError(f"need n >= {H} to give every stratum one unit")
    n_h = [1] * H
    heap = [(h, N_h[h] / math.sqrt(n_h[h] * (n_h[h] + 1))) for h in range(H)]
    for _ in range(n - H):
        h = max(range(H), key=lambda j: (heap[j][1], N_h[j]))
        n_h[h] += 1
        heap[h] = (h, N_h[h] / math.sqrt(n_h[h] * (n_h[h] + 1)))
    S_h = problem.S_h if isinstance(problem, AllocationProblem) else (1.0,) * H
    return Allocation(tuple(n_h), _stratified_total_variance(N_h, S_h, n_h))


def optimal_allocation(problem):
    """Neyman/optimal allocation n_h proportional to sqrt(Q_h / c_h), with
    Q_h = N_h^2 S_h^2 for total estimation and S_h^2 when stratum means are
    being compared.  Strata whose share exceeds N_h are fixed at N_h and the
    remainder re-solved, as many times as needed.  Integerization is by
    largest remainder, with every stratum kept at one unit or more."""
    N_h = np.asarray(problem.N_h, dtype=float)
    S_h = np.asarray(problem.S_h, dtype=float)
    c_h = np.asarray(problem.c_h, dtype=float)
    if np.all(S_h == 0):
        raise ValueError("every stratum has zero variance; nothing to optimize")
    H = len(N_h)
    Q_h = (N_h ** 2) * (S_h ** 2) if problem.target == "total" else S_h ** 2
    weight = np.sqrt(Q_h / c_h)
    capped = np.zeros(H, dtype=bool)
    raw_n_h = None
    while True:
        free = ~capped
        shares = np.zeros(H)
        if problem.n is not None:
            n_free = problem.n - int(N_h[capped].sum())
            if n_free < int(free.sum()):
                raise ValueError("sample size cannot give every free stratum one unit")
            total_w = weight[free].sum()
            if total_w == 0:
                shares[free] = n_free / int(free.sum())
            else:
                shares[free] = n_free * weight[free] / total_w
        else:
            budget = problem.budget - problem.fixed_cost - float(
                (c_h[capped] * N_h[capped]).sum()
            )
            if budget <= 0:
                raise ValueError("budget exhausted by certainty strata")
            denom = float(np.sum(np.sqrt(Q_h[free] * c_h[free])))
            shares[free] = budget * weight[free] / denom
        if raw_n_h is None:
            raw_total = problem.n if problem.n is not None else int(round(shares.sum()))
            raw_n_h = _largest_remainder(shares, raw_total, np.full(H, 10 ** 12, dtype=int))
        over = free & (shares > N_h)
        if not over.any():
            break
        capped |= over
    n_h = np.zeros(H, dtype=int)
    n_h[capped] = N_h[capped].astype(int)
    free = ~capped
    if free.any():
        if problem.n is not None:
            n_free = problem.n - int(N_h[capped].sum())
        else:
            n_free = int(round(shares[free].sum()))
        ints = _largest_remainder(shares[free], n_free, N_h[free].astype(int))
        n_h[free] = ints
    variance = _stratified_total_variance(problem.N_h, problem.S_h, n_h)
    return Allocation(tuple(int(v) for v in n_h), variance,
                      capped=tuple(np.nonzero(capped)[0].tolist()),
                      raw_n_h=tuple(int(v) for v in raw_n_h))


def power_allocation(problem, alpha, n=None):
    """Compromise allocation n_h proportional to N_h^alpha, 0 < alpha < 1,
    integerized by largest remainder."""
    if not 0 < alpha < 1:
        raise ValueError("power allocation needs alpha in (0, 1)")
    N_h = np.asarray(problem.N_h, dtype=float)
    if n is None:
        n = problem.n
    shares = n * (N_h ** alpha) / (N_h ** alpha).sum()
    n_h = _largest_remainder(shares, n, N_h.astype(int))
    return Allocation(n_h, _stratified_total_variance(problem.N_h, problem.S_h, n_h))


def cluster_subsample_size(c1, c2, s2_between, s2_within, M):
    """Optimal within-cluster subsample size under cost c1 per cluster and
    c2 per element: m* = sqrt(c1/c2 * S_w^2 / (S_b^2 - S_w^2 / M)).  When the
    between-cluster variance cannot cover the within term, one-stage
    sampling is optimal and M is returned with a flag."""
    if s2_between <= s2_within / M:
        return float(M), ("one_stage_optimal",)
    m = math.sqrt((c1 / c2) * s2_within / (s2_between - s2_within / M))
    return m, ()


def subsample_size_from_icc(c1, c2, rho):
    """Large-M form of the optimal subsample size, driven by the
    intracluster correlation: m* ~= sqrt(c1/c2 * (1/rho - 1))."""
    if not 0 < rho <= 1:
        raise ValueError("intracluster correlation must be in (0, 1]")
    return math.sqrt((c1 / c2) * (1 / rho - 1))


def two_phase_strat_rates(c1, c2h, W_h, S2_h, S2, budget=None):
    """Optimal second-phase rates for two-phase stratified sampling:
    nu_h* = sqrt(c1/c2h * S_h^2 / (S^2 - sum W_h S_h^2)); with a budget the
    phase-1 size follows from C = n (c1 + sum c2h W_h nu_h)."""
    W = np.asarray(W_h, dtype=float)
    S2_h = np.asarray(S2_h, dtype=float)
    c2 = np.broadcast_to(np.asarray(c2h, dtype=float), W.shape)
    between = S2 - float((W * S2_h).sum())
    flags = ()
    if between <= 0:
        return {"nu_h": np.ones_like(W), "flags": ("no_stratification_gain",)}
    nu = np.sqrt((c1 / c2) * S2_h / between)
    capped = nu > 1
    if capped.any():
        nu = np.minimum(nu, 1.0)
        flags = ("rate_capped_at_one",)
    out = {"nu_h": nu, "r_over_n": W * nu, "flags": flags}
    if budget is not None:
        n = budget / (c1 + float((c2 * W * nu).sum()))
        out["n"] = n
        out["r_h"] = n * W * nu
    return out


def homogeneous_second_phase_rate(c1, c2, phi):
    """r/n = sqrt(c1/c2 * 1/(phi - 1)) when every stratum shares the same
    within variance; phi = S^2 / S_w^2 is the stratification payoff."""
    if phi <= 1:
        raise ValueError("phi must exceed 1 for two-phase stratification to pay")
    return math.sqrt((c1 / c2) / (phi - 1))


def two_phase_reg_rate(c1, c2, s_ee, bsb, budget, fixed_cost=0.0):
    """Optimal phase-2 fraction for two-phase regression estimation:
    nu* = sqrt(c1/c2 * S_ee / B'S_xx B); sizes then follow from the budget.
    Integer convention: round r to the nearest integer and give the rest of
    the budget to the phase-1 size.  When the regression explains nothing
    (B'S_xx B <= 0) the whole budget goes to observing y directly."""
    if budget - fixed_cost <= 0:
        raise ValueError("budget does not cover the fixed cost")
    avail = budget - fixed_cost
    if bsb <= 0:
        r = avail / (c1 + c2)
        return {"nu": 1.0, "n": r, "r": r, "V": s_ee / r,
                "flags": ("all_budget_to_y",)}
    nu = math.sqrt((c1 / c2) * (s_ee / bsb))
    flags = ()
    if nu >= 1:
        nu = 1.0
        flags = ("rate_capped_at_one",)
    n_raw = avail / (c1 + c2 * nu)
    r = round(nu * n_raw)
    if r < 1:
        r = 1
    n = (avail - c2 * r) / c1
    if budget - fixed_cost < c1 + c2:
        raise ValueError("budget cannot pay for a single two-phase observation")
    V = bsb / n + s_ee / r
    return {"nu": nu, "n": n, "r": r, "V": V, "flags": flags,
            "nu_exact": nu, "n_raw": n_raw}


def repeated_survey_fractions(rho):
    """Optimal matched/unmatched split for a two-occasion repeated survey
    and the variance multiplier (1 + sqrt(1 - rho^2)) / 2 on S^2/n."""
    if not -1 <= rho <= 1:
        raise ValueError("correlation must lie in [-1, 1]")
    root = math.sqrt(1 - rho ** 2)
    unmatched = 1 / (1 + root)
    return {"unmatched": unmatched, "matched": 1 - unmatched,
            "variance_factor": (1 + root) / 2}


def callback_rate(c0, c1, W1, c2, S2, W2, S2_2):
    """Optimal follow-up fraction among nonrespondents:
    nu* = sqrt((c0 + c1 W1)/c2 * S_2^2 / (S^2 - W_2 S_2^2)), capped at 1."""
    denom = S2 - W2 * S2_2
    if denom <= 0:
        return 1.0, ("callback_gains_nothing",)
    nu = math.sqrt((c0 + c1 * W1) / c2 * S2_2 / denom)
    if nu > 1:
        return 1.0, ("rate_capped_at_one",)
    return nu, ()


# ---------------------------------------------------------------------------
# Stratum boundaries

def _stratum_stats(values, boundaries):
    cuts = [-math.inf, *boundaries, math.inf]
    groups = []
    v = np.asarray(values, dtype=float)
    for lo, hi in zip(cuts[:-1], cuts[1:]):
        groups.append(v[(v > lo) & (v <= hi)])
    return groups


def _sum_NS(groups):
    total = 0.0
    for g in groups:
        if g.size >= 2:
            total += g.size * g.std(ddof=1)
    return total


def stratum_boundaries(values, H, method="dalenius_hodges", L=None, rng=None,
                       restarts=10):
    """H-1 interior boundaries on a numeric stratification variable.

    dalenius_hodges   equal slices on the cumulative sqrt-frequency scale
                      over L equal-width bins (default L = max(50, 10H))
    sequential        start equal-spaced; repeatedly pull in the right edge
                      of the stratum with the largest N_h S_h while the
                      total sum N_h S_h does not increase
    kmeans            one-dimensional Lloyd iterations (proportional-
                      allocation optimum), best of `restarts` random starts
    """
    v = np.sort(np.asarray(values, dtype=float))
    if H < 2:
        raise ValueError("need at least two strata")
    if np.unique(v).size < H:
        raise ValueError("more strata requested than distinct values")
    if method == "dalenius_hodges":
        if L is None:
            L = max(50, 10 * H)
        if L <= 2 * H:
            raise ValueError("Dalenius-Hodges needs L > 2H bins")
        counts, edges = np.histogram(v, bins=L)
        cum = np.cumsum(np.sqrt(counts))
        total = cum[-1]
        bounds = []
        for h in range(1, H):
            target = total * h / H
            j = int(np.searchsorted(cum, target))
            bounds.append(edges[min(j + 1, L)])
        return tuple(float(b) for b in bounds)
    if method == "sequential":
        lo, hi = v[0], v[-1]
        bounds = list(np.linspace(lo, hi, H + 1)[1:-1])
        best = _sum_NS(_stratum_stats(v, bounds))
        while True:
            groups = _stratum_stats(v, bounds)
            scores = [g.size * (g.std(ddof=1) if g.size >= 2 else 0.0) for g in groups]
            g = int(np.argmax(scores))
            cand = None
            if g < H - 1:
                below = v[v < bounds[g]]
                if below.size:
                    cand = list(bounds)
                    cand[g] = float(below[-1])
            else:
                inside = v[v > bounds[g - 1]]
                if inside.size > 1:
                    cand = list(bounds)
                    cand[g - 1] = float(inside[0])
            if cand is None or cand == bounds:
                break
            score = _sum_NS(_stratum_stats(v, cand))
            if score > best + 1e-12:
                break
            best, bounds = score, cand
        return tuple(bounds)
    if method == "kmeans":
        rng = np.random.default_rng(rng)
        best_centers, best_obj = None, math.inf
        for _ in range(restarts):
            centers = np.sort(rng.choice(np.unique(v), size=H, replace=False))
            for _ in range(200):
                edges = (centers[:-1] + centers[1:]) / 2
                labels = np.searchsorted(edges, v)
                new = np.array([
                    v[labels == h].mean() if np.any(labels == h) else centers[h]
                    for h in range(H)
                ])
                if np.allclose(new, centers):
                    break
                centers = np.sort(new)
            edges = (centers[:-1] + centers[1:]) / 2
            labels = np.searchsorted(edges, v)
            obj = sum(((v[labels == h] - v[labels == h].mean()) ** 2).sum()
                      for h in range(H) if np.any(labels == h))
            if obj < best_obj:
                best_obj, best_centers = obj, centers
        edges = (best_centers[:-1] + best_centers[1:]) / 2
        return tuple(float(e) for e in edges)
    raise ValueError(f"unknown boundary method {method!r}")
