"""Hot selection kernels.

Each kernel draws one sample given dense arrays and a numpy Generator.  They
are compiled with numba when the numba backend is active and run as plain
Python otherwise; both paths consume the Generator identically (randomness
enters only through ``rng.random()``), so the selected indices are
bit-for-bit reproducible across backends.
"""

import numpy as np

from ._backend import jit

__all__ = [
    "srs_draw_by_draw", "srs_selection_rejection", "srs_reservoir",
    "srs_random_sort", "srswr_draws", "poisson_select", "systematic_select",
    "systematic_pps_select", "ppswr_cumulative", "ppswr_lahiri",
    "brewer2_select", "durbin2_select", "chao_select",
    "rejective_poisson_select",
]


@jit
def _unit_index(u, m):
    # map a uniform in [0,1) to {0..m-1}
    j = int(u * m)
    if j >= m:
        j = m - 1
    return j


@jit
def srs_draw_by_draw(n, N, rng):
    pool = np.arange(N, dtype=np.int64)
    out = np.empty(n, dtype=np.int64)
    m = N
    for k in range(n):
        j = _unit_index(rng.random(), m)
        out[k] = pool[j]
        pool[j] = pool[m - 1]
        m -= 1
    return np.sort(out)


@jit
def srs_selection_rejection(n, N, rng):
    out = np.empty(n, dtype=np.int64)
    chosen = 0
    for k in range(N):
        if rng.random() * (N - k) < n - chosen:
            out[chosen] = k
            chosen += 1
            if chosen == n:
                break
    return out


@jit
def srs_reservoir(n, N, rng):
    res = np.arange(n, dtype=np.int64)
    for k in range(n, N):
        j = _unit_index(rng.random(), k + 1)
        if j < n:
            res[j] = k
    return np.sort(res)


@jit
def srs_random_sort(n, N, rng):
    keys = np.empty(N)
    for i in range(N):
        keys[i] = rng.random()
    order = np.argsort(-keys)  # descending-key convention
    return np.sort(order[:n])


@jit
def srswr_draws(n, N, rng):
    out = np.empty(n, dtype=np.int64)
    for k in range(n):
        out[k] = _unit_index(rng.random(), N)
    return out


@jit
def poisson_select(pi, rng):
    N = pi.shape[0]
    mask = np.zeros(N, dtype=np.bool_)
    for i in range(N):
        if rng.random() < pi[i]:
            mask[i] = True
    return mask


@jit
def systematic_select(N, G, rng):
    r = _unit_index(rng.random(), G)
    count = (N - 1 - r) // G + 1
    out = np.empty(count, dtype=np.int64)
    for k in range(count):
        out[k] = r + k * G
    return out


@jit
def systematic_pps_select(x, n, rng):
    N = x.shape[0]
    total = 0.0
    for i in range(N):
        total += x[i]
    a = total / n
    start = (1.0 - rng.random()) * a  # uniform on (0, a]
    out = np.empty(n, dtype=np.int64)
    j = 0
    upper = x[0]
    for k in range(n):
        pos = start + k * a
        while pos > upper:
            j += 1
            upper += x[j]
        out[k] = j
    return out


@jit
def ppswr_cumulative(cum, n, rng):
    total = cum[cum.shape[0] - 1]
    out = np.empty(n, dtype=np.int64)
    for k in range(n):
        u = rng.random() * total
        out[k] = np.searchsorted(cum, u, side="right")
    return out


@jit
def ppswr_lahiri(x, bound, n, rng):
    N = x.shape[0]
    out = np.empty(n, dtype=np.int64)
    for k in range(n):
        while True:
            j = _unit_index(rng.random(), N)
            if rng.random() <= x[j] / bound:
                out[k] = j
                break
    return out


@jit
def _draw_categorical(weights, skip, rng):
    # one draw proportional to weights, ignoring index `skip` (-1 for none)
    total = 0.0
    for i in range(weights.shape[0]):
        if i != skip:
            total += weights[i]
    u = rng.random() * total
    acc = 0.0
    last = -1
    for i in range(weights.shape[0]):
        if i == skip:
            continue
        acc += weights[i]
        last = i
        if u < acc:
            return i
    return last


@jit
def brewer2_select(p, rng):
    N = p.shape[0]
    theta = np.empty(N)
    for i in range(N):
        theta[i] = p[i] * (1.0 - p[i]) / (1.0 - 2.0 * p[i])
    first = _draw_categorical(theta, -1, rng)
    second = _draw_categorical(p, first, rng)  # theta_{j|i} = p_j / (1 - p_i)
    out = np.empty(2, dtype=np.int64)
    if first < second:
        out[0], out[1] = first, second
    else:
        out[0], out[1] = second, first
    return out


@jit
def durbin2_select(p, rng):
    N = p.shape[0]
    first = _draw_categorical(p, -1, rng)
    cond = np.empty(N)
    for j in range(N):
        cond[j] = p[j] * (1.0 / (1.0 - 2.0 * p[first]) + 1.0 / (1.0 - 2.0 * p[j]))
    second = _draw_categorical(cond, first, rng)
    out = np.empty(2, dtype=np.int64)
    if first < second:
        out[0], out[1] = first, second
    else:
        out[0], out[1] = second, first
    return out


@jit
def chao_select(x, n, rng):
    N = x.shape[0]
    res = np.arange(n, dtype=np.int64)
    total = 0.0
    for i in range(n):
        total += x[i]
    for k in range(n, N):
        total += x[k]
        if rng.random() < n * x[k] / total:
            j = _unit_index(rng.random(), n)
            res[j] = k
    return np.sort(res)


@jit
def rejective_poisson_select(pi, n, max_tries, rng):
    N = pi.shape[0]
    out = np.empty(n, dtype=np.int64)
    for _ in range(max_tries):
        count = 0
        overfull = False
        for i in range(N):
            if rng.random() < pi[i]:
                if count == n:
                    overfull = True
                    break
                out[count] = i
                count += 1
        if count == n and not overfull:
            return out
    return np.empty(0, dtype=np.int64)


# ---------------------------------------------------------------------------
# Batched Monte Carlo loops.  One call runs R replicates of a leaf design
# and returns per-unit appearance counts and the replicate values of
# sum(wvec) over each sample (with wvec = y/pi the HT total, with
# wvec = y/(n p) the Hansen-Hurwitz form).  They exist because replicate
# loops are the package's hot path: compiled, the whole loop stays out of
# Python, where a round trip through `select` per replicate would swamp
# the kernels.

@jit
def mc_draws(select, args, with_replacement, R, wvec, rng):
    """R replicates of `select(*args, rng)`, the kernel a design draws with.
    With replacement, a unit drawn twice in a replicate appears once in
    `hits` but adds its weight per draw."""
    N = wvec.shape[0]
    hits = np.zeros(N)
    vals = np.empty(R)
    seen = np.zeros(N, dtype=np.int64)
    for r in range(R):
        total = 0.0
        idx = select(*args, rng)
        if with_replacement:
            for k in idx:
                total += wvec[k]
                if seen[k] != r + 1:
                    seen[k] = r + 1
                    hits[k] += 1.0
        else:
            for k in idx:
                hits[k] += 1.0
                total += wvec[k]
        vals[r] = total
    return hits, vals


@jit
def mc_poisson(pi, R, wvec, rng):
    N = pi.shape[0]
    hits = np.zeros(N)
    vals = np.empty(R)
    for r in range(R):
        total = 0.0
        for i in range(N):
            if rng.random() < pi[i]:
                hits[i] += 1.0
                total += wvec[i]
        vals[r] = total
    return hits, vals
