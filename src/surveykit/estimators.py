"""Design-based point estimators for totals, means, ratios, domains,
distribution functions, and the regression/composite family."""

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "Estimate", "RegressionFit", "ht_total", "ht_mean", "hajek_mean",
    "hh_total", "ratio_estimator", "domain_mean", "ecdf", "quantile",
    "estimating_equation_solve", "regression_greg", "post_stratify", "rake",
    "difference_estimator", "two_phase_estimator", "nonnested_combine",
    "nonnested_regression", "composite",
]

Z95 = 1.96


@dataclass(slots=True, init=False)
class Estimate:
    """A point estimate, its variance estimate when there is one, and
    flags; a negative variance is flagged "negative_variance_estimate"."""

    value: float
    variance: float = None
    method: str = ""
    n_effective: float = None
    flags: tuple = ()

    # written out rather than generated with a __post_init__: an estimator
    # builds one Estimate per call, and per support set in exact_expectation
    def __init__(self, value, variance=None, method="", n_effective=None, flags=()):
        if variance is not None and variance < 0 and "negative_variance_estimate" not in flags:
            flags = flags + ("negative_variance_estimate",)
        self.value = value
        self.variance = variance
        self.method = method
        self.n_effective = n_effective
        self.flags = flags

    @property
    def se(self):
        if self.variance is None:
            return None
        if self.variance < 0:
            return math.nan
        return math.sqrt(self.variance)

    @property
    def ci95(self):
        se = self.se
        if se is None or math.isnan(se):
            return None
        return (self.value - Z95 * se, self.value + Z95 * se)


@dataclass
class RegressionFit:
    coefficients: np.ndarray
    residuals: np.ndarray
    g_weights: np.ndarray
    c: np.ndarray
    calibration_residual: float
    ibc_holds: bool
    flags: tuple = ()


def ht_total(sample, y):
    """Horvitz-Thompson total: sum of y_i / pi_i over the sample.  For
    with-replacement draws the weights make this the Hansen-Hurwitz form
    (1/n) sum y/p."""
    if not isinstance(y, np.ndarray):
        y = np.asarray(y, dtype=float)
    # by position: a keyword would cost the call a dict
    return Estimate(float(sample.weights.dot(y)), None, "hansen_hurwitz"
                    if sample.with_replacement else "horvitz_thompson")


def ht_mean(sample, y, N):
    t = ht_total(sample, y)
    return Estimate(t.value / N, method=t.method + ":mean")


def hajek_mean(sample, y):
    """Ratio of the HT total to the HT size estimate; location invariant.
    An empty sample has no mean: it raises ValueError."""
    y = np.asarray(y, dtype=float)
    w = sample.weights
    if not w.size:
        raise ValueError("the Hajek mean of an empty sample is undefined (0 / 0)")
    return Estimate(float(np.sum(w * y) / np.sum(w)), method="hajek")


def hh_total(sample_wr, y):
    if not sample_wr.with_replacement:
        raise ValueError("Hansen-Hurwitz needs a with-replacement sample")
    return ht_total(sample_wr, y)


def ratio_estimator(sample, y, x, x_total):
    """X * (HT total of y) / (HT total of x); relative bias is bounded by
    CV of the HT x-total, which is recorded for diagnostics."""
    y = np.asarray(y, dtype=float)
    x = np.asarray(x, dtype=float)
    w = sample.weights
    xhat = float(np.sum(w * x))
    if xhat == 0:
        raise ZeroDivisionError("HT estimate of the auxiliary total is zero")
    value = x_total * float(np.sum(w * y)) / xhat
    return Estimate(value, method="ratio")


def domain_mean(sample, y, domain):
    """Mean of y over a domain: ratio of two HT totals restricted by the
    indicator."""
    y = np.asarray(y, dtype=float)
    d = np.asarray(domain, dtype=float)
    w = sample.weights
    size = float(np.sum(w * d))
    if size <= 0:
        raise ValueError("no eligible units in the realized domain")
    return Estimate(float(np.sum(w * d * y)) / size, method="domain_mean")


def ecdf(sample, y):
    """Weighted step function F(t) = sum w 1{y<=t} / sum w."""
    y = np.asarray(y, dtype=float)
    w = sample.weights
    order = np.argsort(y, kind="stable")
    ys = y[order]
    cum = np.cumsum(w[order]) / np.sum(w)

    def F(t):
        j = np.searchsorted(ys, t, side="right")
        return 0.0 if j == 0 else float(cum[j - 1])

    F.support = ys
    F.cum = cum
    return F


def quantile(sample, y, q):
    """Left-continuous inf definition: smallest observed y with F(y) >= q.
    An empty sample has no quantile: it raises ValueError."""
    if not 0 < q <= 1:
        raise ValueError("quantile level must be in (0, 1]")
    F = ecdf(sample, y)
    if not F.support.size:
        raise ValueError("the quantile of an empty sample is undefined")
    j = int(np.searchsorted(F.cum, q - 1e-12, side="left"))
    j = min(j, F.support.size - 1)
    return Estimate(float(F.support[j]), method="quantile")


def estimating_equation_solve(sample, score, theta0=0.0, tol=1e-10,
                              max_iter=200):
    """Root of the weighted estimating equation sum w U(theta; y_i) = 0 by
    safeguarded bisection on an automatically expanded bracket."""
    w = sample.weights
    y = sample.y_values() if sample.frame.y is not None else None

    def g(theta):
        return float(np.sum(w * score(theta, y)))

    lo = hi = float(theta0)
    glo = ghi = g(lo)
    step = 1.0
    for _ in range(200):
        if glo == 0:
            return Estimate(lo, method="estimating_equation")
        lo2, hi2 = lo - step, hi + step
        glo2, ghi2 = g(lo2), g(hi2)
        if glo2 == 0:
            return Estimate(lo2, method="estimating_equation")
        if glo2 * ghi2 <= 0 or glo2 * glo <= 0 or ghi2 * ghi <= 0:
            if glo2 * ghi2 <= 0:
                lo, hi, glo, ghi = lo2, hi2, glo2, ghi2
            elif glo2 * glo <= 0:
                lo, hi, glo, ghi = lo2, lo, glo2, glo
            else:
                lo, hi, glo, ghi = hi, hi2, ghi, ghi2
            break
        lo, hi, glo, ghi = lo2, hi2, glo2, ghi2
        step *= 2
    else:
        raise RuntimeError("could not bracket the estimating-equation root")
    for _ in range(max_iter):
        mid = 0.5 * (lo + hi)
        gm = g(mid)
        if abs(gm) == 0 or hi - lo < tol:
            return Estimate(mid, method="estimating_equation")
        if glo * gm <= 0:
            hi, ghi = mid, gm
        else:
            lo, glo = mid, gm
    return Estimate(0.5 * (lo + hi), method="estimating_equation")


def _solve_gram(gram, rhs, flags):
    cond = np.linalg.cond(gram)
    if cond > 1e12 or not np.isfinite(cond):
        flags.append("ill_conditioned_gram")
        beta = np.linalg.pinv(gram, rcond=1e-10) @ rhs
    else:
        beta = np.linalg.solve(gram, rhs)
    return beta


def regression_greg(sample, y, x, x_totals, c=None):
    """Debiased GREG total: HT total plus (X - X_HT)' beta_c, where beta_c
    solves the working normal equations with variance scale c (c absorbs any
    design weighting, e.g. c = pi * v).  Also returns the implied calibrated
    weights, g-weights, and whether the internal bias calibration condition
    (c/pi in the span of x) holds, in which case the projection form equals
    the debiased form."""
    y = np.asarray(y, dtype=float)
    x = np.atleast_2d(np.asarray(x, dtype=float))
    if x.shape[0] != y.size:
        x = x.T
    n, p = x.shape
    c = np.ones(n) if c is None else np.asarray(c, dtype=float)
    d = sample.weights
    x_totals = np.atleast_1d(np.asarray(x_totals, dtype=float))
    flags = []
    gram = (x / c[:, None]).T @ x
    beta = _solve_gram(gram, (x / c[:, None]).T @ y, flags)
    resid = y - x @ beta
    xhat = x.T @ d
    adj = _solve_gram(gram, x_totals - xhat, flags)
    weights = d + (x / c[:, None]) @ adj
    g_weights = weights / d
    value = float(np.sum(d * y) + (x_totals - xhat) @ beta)
    target = c / sample.pi
    coef = _solve_gram(gram, (x / c[:, None]).T @ target, [])
    ibc = bool(np.allclose(x @ coef, target, rtol=1e-8, atol=1e-10))
    fit = RegressionFit(
        coefficients=beta,
        residuals=resid,
        g_weights=g_weights,
        c=c,
        calibration_residual=float(np.max(np.abs(weights @ x - x_totals))),
        ibc_holds=ibc,
        flags=tuple(flags),
    )
    est = Estimate(value, method="greg", flags=tuple(flags))
    return est, fit, weights


def post_stratify(sample, y, groups, N_g):
    """Post-stratified total sum_g N_g * Yhat_g / Nhat_g; the returned
    weights are d_i N_g / Nhat_g.  A group with N_g > 0 but no realized
    units is an error (collapsing is the caller's concern)."""
    y = np.asarray(y, dtype=float)
    labels = np.asarray(groups)
    d = sample.weights
    N_g = dict(N_g)
    total = 0.0
    weights = np.empty(y.size)
    for g, N in N_g.items():
        mask = labels == g
        if not mask.any():
            if N > 0:
                raise ValueError(f"post-stratum {g!r} has no sampled units")
            continue
        Nhat = float(np.sum(d[mask]))
        total += N * float(np.sum(d[mask] * y[mask])) / Nhat
        weights[mask] = d[mask] * N / Nhat
    return Estimate(total, method="post_stratified"), weights


def rake(weights_d, row_groups, col_groups, row_totals, col_totals,
         tol=1e-8, max_iter=500):
    """Iterative proportional fitting on the design weights: alternate row
    and column ratio adjustments until both margin residual sup-norms drop
    below tol."""
    w = np.asarray(weights_d, dtype=float).copy()
    rows = np.asarray(row_groups)
    row_targets = dict(row_totals)
    if any(v <= 0 for v in row_targets.values()):
        raise ValueError("margin targets must be positive")
    cols = np.asarray(col_groups) if col_groups is not None else None
    col_targets = dict(col_totals) if col_totals is not None else {}
    if any(v <= 0 for v in col_targets.values()):
        raise ValueError("margin targets must be positive")

    def adjust(labels, targets):
        for g, target in targets.items():
            mask = labels == g
            cur = float(np.sum(w[mask]))
            if cur <= 0:
                raise ValueError(f"margin {g!r} has zero realized weight")
            w[mask] *= target / cur

    def residual():
        r = 0.0
        for g, target in row_targets.items():
            r = max(r, abs(float(np.sum(w[rows == g])) - target))
        for g, target in col_targets.items():
            r = max(r, abs(float(np.sum(w[cols == g])) - target))
        return r

    for _ in range(max_iter):
        if residual() < tol:
            return w
        adjust(rows, row_targets)
        if cols is not None:
            adjust(cols, col_targets)
    res = residual()
    if res < tol:
        return w
    raise RuntimeError(f"raking failed to converge: residual {res:.3e} after {max_iter} rounds")


def difference_estimator(sample, y, y0_population):
    """sum of the proxies plus the HT total of the proxy errors; unbiased
    for any proxy vector."""
    y = np.asarray(y, dtype=float)
    y0 = np.asarray(y0_population, dtype=float)
    w = sample.weights
    value = float(np.sum(y0)) + float(np.sum(w * (y - y0[sample.idx])))
    return Estimate(value, method="difference")


def _phase2_strata(sample2p, y):
    """(n1, est, parts) of a two-phase sample whose phase-2 rule
    stratifies: n1 the phase-1 size, parts per phase-2 stratum in label
    order (w_h, ybar_h, y_h), with w_h = n_h / n1 the stratum's phase-1
    share and y_h and ybar_h its phase-2 y and their mean, and est the sum
    of w_h * ybar_h."""
    if sample2p.psu_labels is None or sample2p.phase1_labels is None:
        raise ValueError("stratified mode needs a stratifying phase-2 rule")
    labels = np.asarray(sample2p.psu_labels)
    s1_labels = np.asarray(sample2p.phase1_labels)
    n1 = sample2p.phase1.idx.size
    est, parts = 0.0, []
    for lab in sorted(set(labels.tolist())):
        y_h = y[labels == lab]
        w_h, ybar = int(np.sum(s1_labels == lab)) / n1, float(np.mean(y_h))
        est += w_h * ybar
        parts.append((w_h, ybar, y_h))
    return n1, est, parts


def two_phase_estimator(sample2p, y, mode="dee", x=None, x_phase1=None,
                        c=None):
    """Estimators for two-phase samples.

    dee          double expansion: sum y / (pi1 * pi2|1)
    stratified   sum over phase-2 strata of w_h * ybar_h2 (mean scale)
    regression   phase-1 prediction total plus double-expansion residual
                 correction; reduces to the projection form when x spans
                 c / pi2|1
    """
    if sample2p.phase1 is None:
        raise ValueError("sample carries no phase-1 lineage")
    y = np.asarray(y, dtype=float)
    s1 = sample2p.phase1
    w_star = sample2p.weights
    if mode == "dee":
        return Estimate(float(np.sum(w_star * y)), method="double_expansion")
    if mode == "stratified":
        return Estimate(_phase2_strata(sample2p, y)[1], method="two_phase_stratified")
    if mode == "regression":
        if x is None or x_phase1 is None:
            raise ValueError("regression mode needs phase-2 x and phase-1 x")
        x = np.atleast_2d(np.asarray(x, dtype=float))
        if x.shape[0] != y.size:
            x = x.T
        x1 = np.atleast_2d(np.asarray(x_phase1, dtype=float))
        if x1.shape[0] != s1.idx.size:
            x1 = x1.T
        c = np.ones(y.size) if c is None else np.asarray(c, dtype=float)
        w1_on_2 = sample2p.multiplicity / (sample2p.pi / sample2p.conditional_pi)
        flags = []
        gram = (w1_on_2[:, None] * x / c[:, None]).T @ x
        beta = _solve_gram(gram, (w1_on_2 * y / c) @ x, flags)
        w1 = s1.weights
        proj = float(np.sum(w1 * (x1 @ beta)))
        corr = float(np.sum(w_star * (y - x @ beta)))
        target = c / sample2p.conditional_pi
        coef = _solve_gram(gram, (w1_on_2[:, None] * x / c[:, None]).T @ target, [])
        projection_form = bool(np.allclose(x @ coef, target, rtol=1e-8, atol=1e-10))
        est = Estimate(proj + corr, method="two_phase_regression",
                       flags=("projection_form",) if projection_form else ())
        return est, beta
    raise ValueError(f"unknown two-phase mode {mode!r}")


def nonnested_combine(xhat1, xhat2, V1, V2):
    """GLS combination of two independent estimates of the same totals:
    X_c = W xhat1 + (I - W) xhat2 with W = V2 (V1 + V2)^{-1}."""
    xhat1 = np.atleast_1d(np.asarray(xhat1, dtype=float))
    xhat2 = np.atleast_1d(np.asarray(xhat2, dtype=float))
    V1 = np.atleast_2d(np.asarray(V1, dtype=float))
    V2 = np.atleast_2d(np.asarray(V2, dtype=float))
    W = V2 @ np.linalg.inv(V1 + V2)
    xc = W @ xhat1 + (np.eye(W.shape[0]) - W) @ xhat2
    Vc = W @ V1  # W V1 = V2 (V1+V2)^{-1} V1, the GLS variance
    return xc, W, Vc


def nonnested_regression(sample2, y, x, x_combined, q=None):
    """Regression estimator under non-nested two-phase sampling:
    Y2_HT + (X_c - X2_HT)' beta_q."""
    y = np.asarray(y, dtype=float)
    x = np.atleast_2d(np.asarray(x, dtype=float))
    if x.shape[0] != y.size:
        x = x.T
    q = np.ones(y.size) if q is None else np.asarray(q, dtype=float)
    d2 = sample2.weights
    flags = []
    gram = (x / q[:, None]).T @ x
    beta = _solve_gram(gram, (x / q[:, None]).T @ y, flags)
    yhat2 = float(np.sum(d2 * y))
    xhat2 = x.T @ d2
    value = yhat2 + float((np.atleast_1d(x_combined) - xhat2) @ beta)
    return Estimate(value, method="nonnested_regression", flags=tuple(flags)), beta


def composite(e1, e2, cov=0.0, alpha=None):
    """Weighted average alpha * e1 + (1 - alpha) * e2; when alpha is not
    given, the variance-minimizing alpha* = (V2 - cov) / (V1 + V2 - 2 cov)
    is used, together with the minimized variance."""
    V1, V2 = e1.variance, e2.variance
    if alpha is None:
        if V1 is None or V2 is None:
            raise ValueError("optimal composite weighting needs both variances")
        denom = V1 + V2 - 2 * cov
        if denom <= 0:
            raise ValueError("degenerate variance structure")
        alpha = (V2 - cov) / denom
        variance = (V1 * V2 - cov ** 2) / denom
    else:
        variance = None
        if V1 is not None and V2 is not None:
            variance = alpha ** 2 * V1 + (1 - alpha) ** 2 * V2 + 2 * alpha * (1 - alpha) * cov
    value = alpha * e1.value + (1 - alpha) * e2.value
    return Estimate(value, variance, method="composite"), alpha
