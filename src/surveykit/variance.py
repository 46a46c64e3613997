"""Variance estimation: exact Horvitz-Thompson forms, the simplified
(PPS-style) estimator, linearization, and the replication family."""

import numpy as np

from .estimators import Estimate

__all__ = [
    "ht_variance_est", "simplified_variance", "hh_variance",
    "linearized_variance", "random_group_variance", "jackknife_variance",
    "make_hadamard", "brr_variance", "two_stage_variance",
    "two_phase_variance", "NotMeasurableError",
]


class NotMeasurableError(ValueError):
    pass


def _pair_coefficients(pi, pij):
    """The Horvitz-Thompson pair coefficients (pi_ij - pi_i pi_j) / pi_ij
    over the realized units; NotMeasurableError when a pair has pi_ij <= 0."""
    pij = np.asarray(pij, dtype=float)
    if np.any(pij <= 0):
        raise NotMeasurableError("a realized pair has zero joint inclusion probability")
    return (pij - np.outer(pi, pi)) / pij


def ht_variance_est(sample, y, joint, form="SYG"):
    """Unbiased variance estimators for the HT total.

    HT form:   sum_{i,j in A} (pi_ij - pi_i pi_j)/pi_ij * (y_i/pi_i)(y_j/pi_j)
    SYG form:  -1/2 sum_{i,j in A} (pi_ij - pi_i pi_j)/pi_ij
                    * (y_i/pi_i - y_j/pi_j)^2   (fixed-size designs)

    The HT form may come back negative; it is flagged, never clamped."""
    idx = sample.idx
    pi = joint.first_order[idx]
    coef = _pair_coefficients(pi, joint.joint[np.ix_(idx, idx)])
    t = np.asarray(y, dtype=float) / pi
    if form == "HT":
        value = float(t @ coef @ t)
        return Estimate(value, variance=None, method="ht_variance",
                        flags=("negative_variance_estimate",) if value < 0 else ())
    if form == "SYG":
        diff = t[:, None] - t[None, :]
        value = -0.5 * float(np.sum(coef * diff ** 2))
        return Estimate(value, method="syg_variance")
    raise ValueError(f"unknown variance form {form!r}")


def simplified_variance(sample, y=None, weighted_totals=None, strata=None):
    """With-replacement style variance estimator applied to an arbitrary
    design:  V0 = n/(n-1) sum (w_i y_i - Yhat/n)^2, or its stratified
    multistage form when stratum labels are given.  Conservative for
    without-replacement designs (relative bias n/(N-n) under SRS)."""
    if weighted_totals is None:
        y = np.asarray(y, dtype=float)
        weighted_totals = sample.weights * y
    wt = np.asarray(weighted_totals, dtype=float)
    if strata is None:
        n = wt.size
        if n < 2:
            raise ValueError("the simplified estimator needs at least two units")
        total = wt.sum()
        return Estimate(float(n / (n - 1) * np.sum((wt - total / n) ** 2)),
                        method="simplified_variance")
    labels = np.asarray(strata)
    value = 0.0
    for h in sorted(set(labels.tolist())):
        part = wt[labels == h]
        if part.size < 2:
            raise ValueError(f"stratum {h!r} holds a single PSU")
        value += part.size / (part.size - 1) * float(
            np.sum((part - part.mean()) ** 2)
        )
    return Estimate(value, method="simplified_variance")


def hh_variance(sample_wr, y):
    """Unbiased variance of the Hansen-Hurwitz total:
    (1/n) (1/(n-1)) sum_k (z_k - zbar)^2 with z_k = y_{a_k} / p_{a_k}."""
    if not sample_wr.with_replacement:
        raise ValueError("Hansen-Hurwitz variance needs a with-replacement sample")
    y = np.asarray(y, dtype=float)
    z = np.repeat(y / sample_wr.pi, sample_wr.multiplicity)
    n = z.size
    if n < 2:
        raise ValueError("variance estimation needs at least two draws")
    return Estimate(float(np.sum((z - z.mean()) ** 2) / (n * (n - 1))),
                    method="hh_variance")


def linearized_variance(sample, kind, joint=None, y=None, x=None,
                        x_total=None, beta=None, g_weights=None,
                        domain=None, groups=None, N_g=None, strata=None):
    """Taylor-linearization variance: build the residual transform for the
    requested estimator and push it through the HT/SYG machinery (or the
    simplified estimator when joint probabilities are unavailable).

    kind in {"ratio", "regression", "greg_g", "domain", "hajek",
    "post_stratified"}; the result is on the scale of the corresponding
    point estimator (total scale except domain/hajek, which are means)."""
    w = sample.weights
    scale = 1.0
    if kind == "ratio":
        y = np.asarray(y, dtype=float)
        x = np.asarray(x, dtype=float)
        r = float(np.sum(w * y) / np.sum(w * x))
        resid = y - r * x
        if x_total is not None:
            scale = (x_total / float(np.sum(w * x))) ** 2
    elif kind == "regression":
        resid = np.asarray(y, dtype=float) - np.atleast_2d(x).reshape(len(w), -1) @ beta
    elif kind == "greg_g":
        resid = np.asarray(g_weights, dtype=float) * np.asarray(y, dtype=float)
    elif kind == "hajek":
        y = np.asarray(y, dtype=float)
        mean = float(np.sum(w * y) / np.sum(w))
        resid = (y - mean)
        scale = (1.0 / float(np.sum(w))) ** 2
    elif kind == "domain":
        y = np.asarray(y, dtype=float)
        dlt = np.asarray(domain, dtype=float)
        Nd = float(np.sum(w * dlt))
        mean = float(np.sum(w * dlt * y)) / Nd
        resid = dlt * (y - mean)
        scale = (1.0 / Nd) ** 2
    elif kind == "post_stratified":
        y = np.asarray(y, dtype=float)
        labels = np.asarray(groups)
        resid = np.empty(y.size)
        for g in set(labels.tolist()):
            mask = labels == g
            resid[mask] = y[mask] - np.sum(w[mask] * y[mask]) / np.sum(w[mask])
    else:
        raise ValueError(f"unknown residual transform {kind!r}")
    if joint is not None and joint.measurable:
        base = ht_variance_est(sample, resid, joint, form="SYG")
    else:
        base = simplified_variance(sample, resid, strata=strata)
    return Estimate(scale * base.value, method=f"linearized:{kind}")


def post_stratified_conditional_variance(sample, y, groups, N_g, N):
    """Conditional variance of the post-stratified total under SRS:
    (1 - n/N) n/(n-1) sum_g N_g^2/n_g * (n_g - 1)/n_g * s_g^2."""
    y = np.asarray(y, dtype=float)
    labels = np.asarray(groups)
    n = y.size
    value = 0.0
    for g, Ng in dict(N_g).items():
        mask = labels == g
        n_g = int(mask.sum())
        if n_g < 2:
            raise ValueError(f"post-stratum {g!r} has fewer than two units")
        s2 = float(np.var(y[mask], ddof=1))
        value += Ng ** 2 / n_g * (n_g - 1) / n_g * s2
    value *= (1 - n / N) * n / (n - 1)
    return Estimate(value, method="post_stratified_conditional")


def random_group_variance(estimates):
    """(1/G)(1/(G-1)) sum (theta_k - theta_bar)^2 for G replicate point
    estimates."""
    th = np.asarray(estimates, dtype=float)
    G = th.size
    if G < 2:
        raise ValueError("need at least two random groups")
    return Estimate(float(np.sum((th - th.mean()) ** 2) / (G * (G - 1))),
                    method="random_group")


def jackknife_variance(weights, estimator_fn, structure="iid", strata=None,
                       groups=None, fpc=None):
    """Delete-one jackknife.  `estimator_fn(weights)` must re-evaluate the
    point estimator under replicate weights.

    iid              w^(k) zeroes unit k and rescales the rest by n/(n-1)
    stratified_psu   deletion runs within strata: (n_h/(n_h-1)) w on the
                     survivors of the same stratum
    grouped          units are first coalesced into the given groups

    No finite-population correction is applied unless `fpc` (a factor per
    stratum or scalar) is supplied; the uncorrected estimator is
    conservative."""
    w = np.asarray(weights, dtype=float)
    n = w.size
    if structure == "iid":
        strata_labels = np.zeros(n, dtype=int)
        unit_labels = np.arange(n)
    elif structure == "stratified_psu":
        strata_labels = np.asarray(strata)
        unit_labels = np.arange(n)
    elif structure == "grouped":
        # whole groups are the deletion units
        strata_labels = np.zeros(n, dtype=int)
        unit_labels = np.asarray(groups)
    else:
        raise ValueError(f"unknown jackknife structure {structure!r}")
    if strata_labels.shape != (n,) or unit_labels.shape != (n,):
        raise ValueError("jackknife strata and groups need one label per weight")
    value = 0.0
    for h in sorted(set(strata_labels.tolist())):
        rows = np.flatnonzero(strata_labels == h)
        _, unit_of, sizes = np.unique(unit_labels[rows], return_inverse=True,
                                      return_counts=True)
        n_h = sizes.size
        if n_h < 2:
            raise ValueError(f"stratum {h!r} holds a single deletion unit")
        # the positions of each deletion unit, in sorted unit order
        deleted = np.split(rows[np.argsort(unit_of, kind="stable")],
                           np.cumsum(sizes)[:-1])
        base = w.copy()
        base[rows] *= n_h / (n_h - 1)
        reps = np.empty(n_h)
        for j in range(n_h):
            wk = base.copy()
            wk[deleted[j]] = 0.0
            reps[j] = estimator_fn(wk)
        contrib = (n_h - 1) / n_h * float(np.sum((reps - reps.mean()) ** 2))
        if fpc is not None:
            factor = fpc if np.isscalar(fpc) else dict(fpc)[h]
            contrib *= factor
        value += contrib
    return Estimate(value, method="jackknife")


_HADAMARD4 = np.array([
    [1, 1, 1, 1],
    [1, -1, 1, -1],
    [1, -1, -1, 1],
    [1, 1, -1, -1],
], dtype=float)


def make_hadamard(G):
    """Hadamard matrix of order G: the explicit order-4 matrix plus
    Sylvester doubling; orders 1 and 2 included.  Other multiples of four
    have no construction here."""
    if G == 1:
        return np.ones((1, 1))
    if G == 2:
        return np.array([[1.0, 1.0], [1.0, -1.0]])
    if G == 4:
        return _HADAMARD4.copy()
    if G % 4 == 0 and (G & (G - 1)) == 0:  # larger powers of two
        half = make_hadamard(G // 2)
        return np.block([[half, half], [half, -half]])
    raise ValueError(
        f"no Hadamard construction for order {G}; achievable orders are "
        "1, 2 and powers of two"
    )


def smallest_hadamard_order(H):
    G = 1
    while G <= H:
        G *= 2
    return G


def brr_variance(W_h, y1, y2, hadamard=None, estimator_fn=None):
    """Balanced repeated replication on a two-PSUs-per-stratum design.

    Half-sample g keeps PSU 1 of stratum h when eps_h^(g) = +1, doubling its
    weight; eps columns come from columns 2..H+1 of the Hadamard matrix so
    the balance condition sum_g eps_h eps_h' = 0 holds.
    `estimator_fn(weights)` gets the 2H weights of PSU 1 in every stratum,
    then PSU 2 in every stratum; by default it is the linear estimator
    sum W_h ybar_h on concatenate([y1, y2]), whose result equals
    sum W_h^2 (y_h1 - y_h2)^2 / 4 exactly."""
    W = np.asarray(W_h, dtype=float)
    y1 = np.asarray(y1, dtype=float)
    y2 = np.asarray(y2, dtype=float)
    H = W.size
    if y1.shape != (H,) or y2.shape != (H,):
        raise ValueError("brr_variance needs one y1 and one y2 value per stratum")
    if hadamard is None:
        hadamard = make_hadamard(smallest_hadamard_order(H))
    M = np.asarray(hadamard, dtype=float)
    G = M.shape[0]
    if not np.allclose(M.T @ M, G * np.eye(G)):
        raise ValueError("not a Hadamard matrix")
    if G <= H:
        raise ValueError(f"order-{G} matrix cannot balance {H} strata")
    eps = M[:, 1:H + 1]  # one column per stratum, skipping the constant one
    if estimator_fn is None:
        y = np.concatenate([y1, y2])

        def estimator_fn(wts):
            return float(np.sum(wts * y))
    theta_full = estimator_fn(np.concatenate([W / 2, W / 2]))
    reps = np.empty(G)
    for g in range(G):
        w1 = np.where(eps[g] > 0, W, 0.0)
        w2 = np.where(eps[g] > 0, 0.0, W)
        reps[g] = estimator_fn(np.concatenate([w1, w2]))
    value = float(np.mean((reps - theta_full) ** 2))
    return Estimate(value, method="brr")


def two_stage_variance(psu_pi, psu_joint, yhat_i, vhat_i):
    """Unbiased two-stage variance: the PSU-level HT variance estimator
    applied to the estimated cluster totals, plus the HT total of the
    conditionally unbiased within-cluster variance estimates."""
    pi = np.asarray(psu_pi, dtype=float)
    t = np.asarray(yhat_i, dtype=float) / pi
    first = float(t @ _pair_coefficients(pi, psu_joint) @ t)
    second = float(np.sum(np.asarray(vhat_i, dtype=float) / pi))
    return Estimate(first + second, method="two_stage",
                    flags=("negative_variance_estimate",) if first + second < 0 else ())


def srs_within_cluster_vhat(y_cluster, M_i):
    """Conditionally unbiased variance of Yhat_i = M_i * ybar_i under SRS of
    m_i elements inside a cluster of M_i."""
    y = np.asarray(y_cluster, dtype=float)
    m = y.size
    if m == M_i:
        return 0.0
    if m < 2:
        raise ValueError("within-cluster variance needs at least two elements")
    return M_i ** 2 / m * (1 - m / M_i) * float(np.var(y, ddof=1))


def two_phase_variance(sample2p, y, mode="stratified", x=None, beta=None,
                       N=None, joint1=None, poisson_phase2=False):
    """Variance estimation for two-phase samples.

    stratified          (1/n) sum w_h (ybar_h2 - est)^2
                        + sum w_h^2 s_h2^2 / r_h   (mean scale)
    regression_reverse  linearized influence eta_i = x'beta +
                        (delta/pi_2)(y - x'beta) pushed through the phase-1
                        variance estimator; under Poisson phase 2 the
                        downward bias is corrected by adding
                        sum w_1 (delta/pi_2)(1/pi_2 - 1) ehat^2
    """
    s1 = sample2p.phase1
    if s1 is None:
        raise ValueError("sample carries no phase-1 lineage")
    y = np.asarray(y, dtype=float)
    if mode == "stratified":
        labels = np.asarray(sample2p.psu_labels)
        s1_labels = np.asarray(sample2p.phase1_labels)
        n1 = s1.idx.size
        est = 0.0
        parts = []
        for lab in sorted(set(labels.tolist())):
            mask = labels == lab
            w_h = float(np.sum(s1_labels == lab)) / n1
            ybar = float(np.mean(y[mask]))
            r_h = int(mask.sum())
            s2 = float(np.var(y[mask], ddof=1)) if r_h > 1 else 0.0
            est += w_h * ybar
            parts.append((w_h, ybar, r_h, s2))
        value = 0.0
        for w_h, ybar, r_h, s2 in parts:
            value += w_h * (ybar - est) ** 2 / n1 + w_h ** 2 * s2 / r_h
        return Estimate(value, method="two_phase_stratified")
    if mode == "regression_reverse":
        x2 = np.atleast_2d(np.asarray(x, dtype=float))
        if x2.shape[0] != y.size:
            x2 = x2.T
        resid = y - x2 @ beta
        # influence values for every phase-1 unit
        x1 = s1.frame.aux[s1.idx] if s1.frame.aux is not None else None
        if x1 is None:
            raise ValueError("regression variance needs auxiliary values on the frame")
        eta = x1 @ beta
        local = {int(i): k for k, i in enumerate(sample2p.idx)}
        for pos, i in enumerate(s1.idx):
            if int(i) in local:
                k = local[int(i)]
                eta[pos] += resid[k] / sample2p.conditional_pi[k]
        base = simplified_variance(None, weighted_totals=s1.weights * eta).value
        if N is not None:
            base *= (1 - eta.size / N)  # phase-1 SRS finite-population correction
        if poisson_phase2:
            cond = sample2p.conditional_pi
            w1_on_2 = sample2p.weights * cond  # w_1 restricted to A_2
            base += float(np.sum(
                w1_on_2 / cond * (1 / cond - 1) * resid ** 2
            ))
        return Estimate(base, method="two_phase_regression_reverse")
    raise ValueError(f"unknown two-phase variance mode {mode!r}")
