"""Hot selection kernels.

Each kernel draws one sample given dense arrays and a numpy Generator.
Every design kernel but Lahiri's takes a fixed number of uniforms per draw:
selection-rejection one per frame unit, Chao one per stream unit (an
entering unit's slot is read from the uniform that admitted it),
conditional Poisson one per unit.

Each public kernel but Lahiri's, which is one, has a scalar loop,
`_LOOPS[name]`, that calls ``rng.random()`` once per uniform.  With numba
active the loops are compiled and every public name is its loop.  On
numpy a fixed-count kernel reads its k uniforms as one `rng.random(k)`
block and computes the draw vectorized: the row code of its batched form
(*Batched Monte Carlo* below) at one replicate, a survivor filter for the
two one-pass walks, a loop over the block for draw-by-draw, running totals
for Brewer's and Durbin's methods.  A block holds exactly the doubles of k
scalar calls on every bit generator, so the indices, their dtype and
order, and the Generator's state afterwards are bit-identical to the loop
and the same on both backends; the rejective kernel reads each try as a
block the same way.  The loops stay as the tests' reference.
"""

import inspect
import itertools
import math
from collections.abc import Sequence

import numpy as np

from ._backend import ACTIVE_BACKEND, jit

__all__ = [
    "srs_draw_by_draw", "srs_selection_rejection", "srs_reservoir",
    "srs_random_sort", "srswr_draws", "poisson_select", "systematic_select",
    "systematic_pps_select", "ppswr_cumulative", "ppswr_lahiri",
    "brewer2_select", "durbin2_select", "chao_select",
    "rejective_poisson_select", "conditional_poisson_select",
]


# ---------------------------------------------------------------------------
# Scalar loops: one `rng.random()` call per uniform.

@jit
def _unit_index(u, m):
    # map a uniform in [0,1) to {0..m-1}
    j = int(u * m)
    if j >= m:
        j = m - 1
    return j


@jit
def _srs_draw_by_draw_loop(n, N, rng):
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
def _srs_selection_rejection_loop(n, N, rng):
    out = np.empty(n, dtype=np.int64)
    chosen = 0
    for k in range(N):
        # once n units are chosen the test is u * (N - k) < 0, never true
        if rng.random() * (N - k) < n - chosen:
            out[chosen] = k
            chosen += 1
    return out


@jit
def _srs_reservoir_loop(n, N, rng):
    res = np.arange(n, dtype=np.int64)
    for k in range(n, N):
        j = _unit_index(rng.random(), k + 1)
        if j < n:
            res[j] = k
    return np.sort(res)


@jit
def _srs_random_sort_loop(n, N, rng):
    keys = np.empty(N)
    for i in range(N):
        keys[i] = rng.random()
    order = np.argsort(-keys)  # descending-key convention
    return np.sort(order[:n])


@jit
def _srswr_draws_loop(n, N, rng):
    out = np.empty(n, dtype=np.int64)
    for k in range(n):
        out[k] = _unit_index(rng.random(), N)
    return out


@jit
def _poisson_select_loop(pi, rng):
    N = pi.shape[0]
    mask = np.zeros(N, dtype=np.bool_)
    for i in range(N):
        if rng.random() < pi[i]:
            mask[i] = True
    return mask


@jit
def _systematic_select_loop(N, G, rng):
    r = _unit_index(rng.random(), G)
    count = (N - 1 - r) // G + 1
    out = np.empty(count, dtype=np.int64)
    for k in range(count):
        out[k] = r + k * G
    return out


@jit
def _systematic_pps_select_loop(x, n, rng):
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
def _ppswr_cumulative_loop(cum, n, rng):
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
def _brewer2_select_loop(p, rng):
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
def _durbin2_select_loop(p, rng):
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
def _chao_select_loop(x, n, rng):
    res = np.arange(n, dtype=np.int64)
    prob = n * x[n:] / np.cumsum(x)[n:]  # n x_k over the running total
    for k in range(n, x.shape[0]):
        p = prob[k - n]
        u = rng.random()
        if u < p:  # then u / p is uniform on [0, 1): it picks the slot
            res[_unit_index(u / p, n)] = k
    return np.sort(res)


# Poisson tries until one takes exactly n units.  No design draws with it:
# RejectivePoisson draws the same law in one pass (conditional_poisson_select),
# and this loop is its reference.
@jit
def _rejective_poisson_loop(pi, n, max_tries, rng):
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


@jit
def _conditional_poisson_select_loop(q, n, rng):
    # one pass of N uniforms: with m units taken, unit k enters with
    # probability q[k, n - m] (core._entry_probs); q[k, 0] = 0 and the
    # forced tail has q = 1.0, so exactly n units are taken
    N = q.shape[0]
    out = np.empty(n, dtype=np.int64)
    m = 0
    for k in range(N):
        if rng.random() < q[k, n - m]:
            out[m] = k
            m += 1
    return out


@jit
def _poisson_indices(pi, rng):
    # the units poisson_select includes, as the frame indices a design draws
    return np.nonzero(poisson_select(pi, rng))[0]


# ---------------------------------------------------------------------------
# The public kernels on numpy, each bit for bit its loop (module
# docstring); with numba active every name is rebound to its loop
# (`_LOOPS`, below).

def _one_row(form, args, rng):
    """One draw by a batched form: its row at R = 1, the k uniforms it
    asks for one `rng.random((1, k))` block."""
    return next(form(*args, 1, lambda *shape: rng.random(shape)))[0]


def srs_draw_by_draw(n, N, rng):
    pool = np.arange(N, dtype=np.int64)
    out = np.empty(n, dtype=np.int64)
    for k, u in enumerate(rng.random(n).tolist()):
        j = _unit_index(u, N - k)
        out[k] = pool[j]
        pool[j] = pool[N - k - 1]
    return np.sort(out)


def srs_selection_rejection(n, N, rng):
    # the loop takes unit k only if u_k (N - k) < n - chosen, so never
    # where u_k (N - k) >= n: the walk visits the other units alone
    out = np.empty(n, dtype=np.int64)
    v = rng.random(N)
    v *= np.arange(N, 0, -1)
    keep = (v < n).nonzero()[0]
    chosen = 0
    for k, vk in zip(keep.tolist(), v[keep].tolist()):
        if vk < n - chosen:
            out[chosen] = k
            chosen += 1
    return out


def srs_reservoir(n, N, rng):
    return _one_row(_srs_reservoir_rows, (n, N), rng)


def srs_random_sort(n, N, rng):
    return _one_row(_srs_random_sort_rows, (n, N), rng)


def srswr_draws(n, N, rng):
    return _one_row(_srswr_draws_rows, (n, N), rng)


def poisson_select(pi, rng):
    return rng.random(pi.shape[0]) < pi


def systematic_select(N, G, rng):
    # one row needs no pads: about 3 numpy calls where the row code takes 9
    r = _unit_index(rng.random(1)[0], G)
    return r + G * np.arange((N - 1 - r) // G + 1)


def systematic_pps_select(x, n, rng):
    return _one_row(_systematic_pps_select_rows, (x, n), rng)


def ppswr_cumulative(cum, n, rng):
    return _one_row(_ppswr_cumulative_rows, (cum, n), rng)


def _n2_draw(theta, cond, rng):
    """_draw_categorical twice, on one block of two uniforms: the first
    unit f from theta, then the second from the weights cond(f) gives,
    without f.  A zero weight at f leaves the other units' running totals;
    past the last total the loop keeps the last unit but f."""
    N = theta.shape[0]
    u = rng.random(2).tolist()
    cum = theta.cumsum()
    first = min(int(cum.searchsorted(u[0] * cum[-1], "right")), N - 1)
    w = cond(first)
    w[first] = 0.0
    cum = w.cumsum()
    second = min(int(cum.searchsorted(u[1] * cum[-1], "right")), N - 1 - (first == N - 1))
    return np.array([min(first, second), max(first, second)], dtype=np.int64)


def brewer2_select(p, rng):
    return _n2_draw(p * (1.0 - p) / (1.0 - 2.0 * p), lambda f: p.copy(), rng)


def durbin2_select(p, rng):
    return _n2_draw(p, lambda f: p * (1.0 / (1.0 - 2.0 * p[f]) + 1.0 / (1.0 - 2.0 * p)), rng)


def chao_select(x, n, rng):
    return _one_row(_chao_select_rows, (x, n), rng)


def conditional_poisson_select(q, n, rng):
    # the loop takes unit k only if u_k < q[k, need], so never where u_k
    # is at least the largest entry of row k: the walk visits the other
    # units alone.  (A column test at need n would drop the forced tail,
    # where q[k, n] is 0 and a smaller need's entry 1.0.)
    N = q.shape[0]
    out = np.empty(n, dtype=np.int64)
    u = rng.random(N)
    top = q[np.arange(N), q.argmax(axis=1)]  # quicker than q.max(axis=1)
    keep = (u < top).nonzero()[0]
    m = 0
    for k, uk in zip(keep.tolist(), u[keep].tolist()):
        if uk < q.item(k, n - m):
            out[m] = k
            m += 1
    return out


def rejective_poisson_select(pi, n, max_tries, rng):
    """_rejective_poisson_loop, bit for bit.  From a Generator each try reads
    a window of N uniforms: the unread tail of the last window, then fresh
    doubles for the cells the last try read (one `random(out=...)` holds
    exactly the doubles of as many scalar calls).  A try that takes n units
    reads all N; one that takes fewer reads all N and fails; an overfull one
    stops at its (n + 1)-th hit.  Each try reads at least one double, so a
    double drawn ahead is read within N - 1 more tries: the Generator's
    state is saved N tries before the last, and if the tries run out with
    a tail unread, it goes back to that state and skips the doubles read
    since.  Any other source runs the loop."""
    if type(rng) is not np.random.Generator:
        return _rejective_poisson_loop(pi, n, max_tries, rng)
    N = pi.shape[0]
    u = np.empty(N)
    fresh, read = N, 0  # the cells the last try read, and all since the save
    for t in range(max_tries):
        if t == max(max_tries - N, 0):
            # the tail is drawn already, so it counts against the doubles read
            state, read = rng.bit_generator.state, fresh - N
        u[:N - fresh] = u[fresh:]
        rng.random(out=u[N - fresh:])
        hits = np.flatnonzero(u < pi)
        if hits.size == n:
            return hits.astype(np.int64, copy=False)
        fresh = hits[n] + 1 if hits.size > n else N
        read += fresh
    if fresh < N:
        rng.bit_generator.state = state
        for size in _chunks(read, 1):
            rng.random(size)
    return np.empty(0, dtype=np.int64)


# public kernel -> its scalar loop: numba's kernel, and the reference the
# public kernel is tested against
_LOOPS = {
    "srs_draw_by_draw": _srs_draw_by_draw_loop,
    "srs_selection_rejection": _srs_selection_rejection_loop,
    "srs_reservoir": _srs_reservoir_loop,
    "srs_random_sort": _srs_random_sort_loop,
    "srswr_draws": _srswr_draws_loop,
    "poisson_select": _poisson_select_loop,
    "systematic_select": _systematic_select_loop,
    "systematic_pps_select": _systematic_pps_select_loop,
    "ppswr_cumulative": _ppswr_cumulative_loop,
    "brewer2_select": _brewer2_select_loop,
    "durbin2_select": _durbin2_select_loop,
    "chao_select": _chao_select_loop,
    "conditional_poisson_select": _conditional_poisson_select_loop,
    "rejective_poisson_select": _rejective_poisson_loop,
}

if ACTIVE_BACKEND == "numba":
    globals().update(_LOOPS)  # _mc_draws_loop and _poisson_indices call them


# ---------------------------------------------------------------------------
# Batched Monte Carlo.  One call runs R replicates of a leaf design and
# returns per-unit appearance counts and the replicate values of sum(wvec)
# over each sample (with wvec = y/pi the HT total, with wvec = y/(n p) the
# Hansen-Hurwitz form).  Replicate loops are the package's hot path, where
# a round trip through `select` per replicate would swamp the kernels:
#
# - compiled (numba), the scalar loop `_mc_draws_loop` keeps the whole run
#   out of Python;
# - on numpy, a kernel that takes a fixed number k of uniforms per draw has
#   a batched form that takes one (rows, k) block of uniforms per chunk of
#   replicates, row r for replicate r.  From a Generator that block is
#   `rng.random((rows, k))`, which holds exactly the doubles of rows * k
#   scalar calls, replicate after replicate, and leaves the Generator where
#   those calls would, so hits, values and the stream afterwards are
#   bit-identical to the scalar loop.  Every sum keeps the scalar loops'
#   order, left to right from 0.0 (`np.cumsum`, never the pairwise
#   `x.sum()`).  This holds on every bit generator;
# - Lahiri's kernel takes a random number of uniforms, so on numpy with a
#   PCG64 stream it runs on a speculative block: save the bit generator's
#   state, draw a block of pairs, take the first R * n accepted ones, then
#   restore the state and `advance` by the doubles used (`_rewind`).  Other
#   bit generators keep the scalar loop for it.
#
# `_mc_rows` picks among these and yields index tables; `_tally` sums them.

_CHUNK_CELLS = 1 << 16  # the most cells one table of a batch holds


@jit
def _mc_draws_loop(select, args, with_replacement, R, wvec, rng):
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


def _chunks(R, width):
    """Row counts of the chunks R replicates run in, so that a table of
    `width` columns holds at most _CHUNK_CELLS cells."""
    step = max(1, _CHUNK_CELLS // max(width, 1))
    for start in range(0, R, step):
        yield min(step, R - start)


def _row_totals(w):
    """Each row of w added left to right from 0.0, as the scalar loops add.
    Reducing the columns of the transposed copy adds them one after
    another, elementwise, so each row's cells add in order (no pairwise
    summation, which numpy uses only along a contiguous axis).  A row
    starting at -0.0 may end at -0.0 where the loop, starting at +0.0,
    ends at +0.0; adding 0.0 maps it there and changes nothing else.
    Rows of no cells sum to 0.0, and a lone row goes through cumsum: its
    transpose is one contiguous column, which numpy would add pairwise."""
    if not w.shape[1]:
        return np.zeros(w.shape[0])
    if w.shape[0] == 1:
        return np.cumsum(w, axis=1)[:, -1] + 0.0
    return np.add.reduce(np.ascontiguousarray(w.T), axis=0) + 0.0


def _unit_indices(u, m):
    # _unit_index over an array of uniforms; m may vary by column
    return np.minimum((u * m).astype(np.int64), m - 1)


def _in_frame(idx, N):
    # where the scalar kernel would step past the last unit, fail as it does
    if idx.size and idx.max() >= N:
        raise IndexError(f"index {N} is out of bounds for axis 0 with size {N}")
    return idx


# Stream-exact speculation.  A PCG64 or PCG64DXSM double takes exactly one
# step of the generator, so `advance(used)` from a saved state lands where
# `used` scalar calls would.  Not so elsewhere: a Philox step is one 4-word
# counter block, and MT19937 and SFC64 have no `advance`.

_ONE_STEP_PER_DOUBLE = (np.random.PCG64, np.random.PCG64DXSM)


def _rewind(rng, state, used):
    """Put rng `used` doubles past the saved bit-generator `state`.
    `advance` drops a pending 32-bit half, so the saved half is put back."""
    bits = rng.bit_generator
    bits.state = state
    bits.advance(used)
    if state["has_uint32"]:
        bits.state = {**bits.state, "has_uint32": 1, "uinteger": state["uinteger"]}


# Batched forms of the fixed-count kernels: `form(*args, R, uniforms)`
# yields, chunk by chunk, the index rows kernel(*args, rng) returns for
# consecutive replicates, in its output order; `uniforms(rows, k)` gives
# the next rows replicates' uniforms, k to a row, k the count one draw
# takes (written once, in the form).

def _srs_draw_by_draw_rows(n, N, R, uniforms):
    for rows in _chunks(R, N):
        u = uniforms(rows, n)
        pool = np.tile(np.arange(N, dtype=np.int64), (rows, 1))
        out = np.empty((rows, n), dtype=np.int64)
        r = np.arange(rows)
        for k in range(n):
            m = N - k
            j = _unit_indices(u[:, k], m)
            out[:, k] = pool[r, j]
            pool[r, j] = pool[:, m - 1]
        yield np.sort(out, axis=1)


def _reservoirs(n, rows, r, slot, k):
    """Sorted reservoirs of `rows` replicates that start as units 0..n-1,
    stream unit k[i] entering row r[i] at slot[i]."""
    res = np.tile(np.arange(n, dtype=np.int64), (rows, 1))
    # the loop's last write to a slot wins, and it writes the largest k;
    # on the flat view, ufunc.at takes numpy's 1-D fast path
    np.maximum.at(res.reshape(-1), r * n + slot, k)
    return np.sort(res, axis=1)


def _entries(enter):
    """The cells of a (rows, W) mask that hold True, as (row, column,
    flat position) arrays, row by row; W may be 0."""
    flat = np.flatnonzero(enter)
    r, c = np.divmod(flat, max(enter.shape[1], 1))
    return r, c, flat


def _srs_reservoir_rows(n, N, R, uniforms):
    stream = np.arange(n, N)
    for rows in _chunks(R, N):
        j = _unit_indices(uniforms(rows, N - n), stream + 1)
        r, c, flat = _entries(j < n)
        yield _reservoirs(n, rows, r, j.ravel()[flat], stream[c])


def _srs_random_sort_rows(n, N, R, uniforms):
    for rows in _chunks(R, N):
        order = np.argsort(-uniforms(rows, N), axis=1)
        yield np.sort(order[:, :n], axis=1)


def _srswr_draws_rows(n, N, R, uniforms):
    for rows in _chunks(R, n):
        yield _unit_indices(uniforms(rows, n), N)


def _poisson_indices_rows(pi, R, uniforms):
    # rows are ragged (a random size); index N pads the units left out
    N = pi.shape[0]
    units = np.arange(N)
    for rows in _chunks(R, N):
        yield np.where(uniforms(rows, N) < pi, units, N)


def _systematic_select_rows(N, G, R, uniforms):
    # rows are ragged (n or n+1 units); index N pads the short ones
    steps = np.arange((N - 1) // G + 1) * G
    for rows in _chunks(R, steps.size):
        idx = _unit_indices(uniforms(rows, 1), G) + steps
        idx[idx >= N] = N
        yield idx


def _systematic_pps_walk(x, a, n, starts):
    """The units systematic_pps_select takes from each start, at interval
    a: starts of shape (..., 1) give index rows of shape (..., n)."""
    # the loop's running `upper` is the cumsum, and it stops at the first j
    # with pos <= upper
    pos = starts + np.arange(n) * a
    return _in_frame(np.searchsorted(np.cumsum(x), pos), x.shape[0])


def _systematic_pps_select_rows(x, n, R, uniforms):
    a = np.cumsum(x)[-1] / n  # the loop's running total
    for rows in _chunks(R, n):
        yield _systematic_pps_walk(x, a, n, (1.0 - uniforms(rows, 1)) * a)


def _ppswr_cumulative_rows(cum, n, R, uniforms):
    total = cum[cum.shape[0] - 1]
    for rows in _chunks(R, n):
        u = uniforms(rows, n) * total
        yield _in_frame(np.searchsorted(cum, u, side="right"), cum.shape[0])


def _categorical(cum, u):
    """_draw_categorical for each uniform in u, given the running totals of
    the weights it keeps: the first i with u * total < cum[i], else the
    last."""
    return np.minimum(np.searchsorted(cum, u * cum[-1], side="right"), cum.shape[0] - 1)


def _n2_rows(theta, cond, R, uniforms):
    """The two draws of Brewer's and Durbin's methods: the first from theta,
    the second from the conditional weights cond(f, out) writes, one row
    per first unit f, without the first unit.  A chunk's distinct first
    units get their running totals together, at most
    max(1, _CHUNK_CELLS // N) rows to a table, so a table holds at most
    max(_CHUNK_CELLS, N) cells, and one searchsorted call finds the second
    draws of all the replicates whose first units share a table."""
    N = theta.shape[0]
    cum = np.cumsum(theta)
    for rows in _chunks(R, 2):
        u = uniforms(rows, 2)
        first = _categorical(cum, u[:, 0])
        order = np.argsort(first, kind="stable")  # replicates by first unit
        new = np.empty(rows, dtype=bool)
        new[:1] = True
        np.not_equal(first[order[1:]], first[order[:-1]], out=new[1:])
        starts = np.flatnonzero(new)
        units, row = first[order[starts]], np.cumsum(new) - 1
        step = min(units.size, max(1, _CHUNK_CELLS // N))
        edges = np.append(starts[::step], rows)
        w = np.empty((step, N))
        # (row, running total) as complex numbers, which order
        # lexicographically: the flat table ascends, and a search finds
        # each replicate's unit within its own row
        z = np.empty((step, N), dtype=complex)
        z.real = np.arange(step)[:, None]
        second = np.empty(rows, dtype=np.int64)
        for b, lo in enumerate(range(0, units.size, step)):
            f = units[lo:lo + step]
            k = f.size
            cond(f, w[:k])
            # a zero weight leaves the running totals of np.delete(w, f),
            # each repeated once from f on
            w[np.arange(k), f] = 0.0
            np.cumsum(w[:k], axis=1, out=z.imag[:k])
            reps = order[edges[b]:edges[b + 1]]
            r = row[edges[b]:edges[b + 1]] - lo
            q = np.empty(r.size, dtype=complex)
            q.real, q.imag = r, u[reps, 1] * z.imag[r, -1]
            j = np.searchsorted(z[:k].ravel(), q, side="right") - r * N
            # past the last total, _draw_categorical keeps the last unit but f
            second[reps] = np.minimum(j, N - 1 - (f[r] == N - 1))
        yield np.stack([np.minimum(first, second), np.maximum(first, second)], axis=1)


def _brewer2_select_rows(p, R, uniforms):
    theta = p * (1.0 - p) / (1.0 - 2.0 * p)
    return _n2_rows(theta, lambda f, out: np.copyto(out, p), R, uniforms)


def _durbin2_select_rows(p, R, uniforms):
    q = 1.0 / (1.0 - 2.0 * p)

    def cond(f, out):  # p * (1 / (1 - 2 p_f) + q), in place
        np.add((1.0 / (1.0 - 2.0 * p[f]))[:, None], q, out=out)
        np.multiply(p, out, out=out)

    return _n2_rows(p, cond, R, uniforms)


def _one_pass(u, n, bound):
    """The cells a one-pass walk takes, one walk per column of the
    C-contiguous table u: step k runs along row k, where every walk with
    u[k] < bound(k, need) takes its cell, need holding what each walk has
    still to take, n (one count, or one per walk) at the start.  The taken
    cells come back as flat row-major positions of u.T, walk by walk, step
    k of walk c at c * N + k.  Both a 2-D np.nonzero and a walk down the
    columns of a row-major table are numpy slow paths."""
    N, walks = u.shape
    need = np.full(walks, n)
    take = np.empty((N, walks), dtype=bool)
    for k in range(N):
        np.less(u[k], bound(k, need), out=take[k])
        need -= take[k]
    return np.flatnonzero(take.T)


def _walk_rows(u, n, bound):
    """_one_pass over u when every walk takes n cells: a (walks, n) table,
    row c the steps walk c took, in order."""
    N, walks = u.shape
    return _one_pass(u, n, bound).reshape(walks, n) - N * np.arange(walks)[:, None]


def _srs_selection_rejection_rows(n, N, R, uniforms):
    steps = (N - np.arange(N))[:, None]
    for rows in _chunks(R, N):
        # the loop's test, u * (N - k) < n - chosen, unit k in row k
        v = np.empty((N, rows))
        np.multiply(uniforms(rows, N).T, steps, out=v)
        yield _walk_rows(v, n, lambda k, need: need)


def _conditional_poisson_select_rows(q, n, R, uniforms):
    for rows in _chunks(R, q.shape[0]):
        u = np.ascontiguousarray(uniforms(rows, q.shape[0]).T)
        yield _walk_rows(u, n, lambda k, need: q[k, need])


def _chao_select_rows(x, n, R, uniforms):
    N = x.shape[0]
    prob = n * x[n:] / np.cumsum(x)[n:]  # as the kernel computes it
    stream = np.arange(n, N)
    for rows in _chunks(R, N):
        u = uniforms(rows, N - n)
        r, c, flat = _entries(u < prob)
        yield _reservoirs(n, rows, r, _unit_indices(u.ravel()[flat] / prob[c], n), stream[c])


def _ppswr_lahiri_rows(x, bound, n, R, rng):
    # every attempt takes two uniforms, so replicate r is accepted pairs
    # r*n .. r*n + n - 1 of one pair stream
    N = x.shape[0]
    accept = x / bound
    rate = max(float(np.minimum(accept, 1.0).mean()), 1.0 / _CHUNK_CELLS)
    for rows in _chunks(R, n):
        need = rows * n
        state = rng.bit_generator.state
        picks, pairs = [], 0
        while need:
            u = rng.random((min(_CHUNK_CELLS // 2, math.ceil(need / rate * 1.1)), 2))
            j = _unit_indices(u[:, 0], N)
            hit = np.nonzero(u[:, 1] <= accept[j])[0][:need]
            picks.append(j[hit])
            need -= hit.size
            pairs += int(hit[-1]) + 1 if need == 0 else u.shape[0]
        _rewind(rng, state, 2 * pairs)
        yield np.concatenate(picks).reshape(rows, n)


# kernel -> its batched form; none on numba, which runs the compiled loops
_BATCHED = {} if ACTIVE_BACKEND == "numba" else {
    srs_draw_by_draw: _srs_draw_by_draw_rows,
    srs_selection_rejection: _srs_selection_rejection_rows,
    srs_reservoir: _srs_reservoir_rows,
    srs_random_sort: _srs_random_sort_rows,
    srswr_draws: _srswr_draws_rows,
    _poisson_indices: _poisson_indices_rows,
    systematic_select: _systematic_select_rows,
    systematic_pps_select: _systematic_pps_select_rows,
    ppswr_cumulative: _ppswr_cumulative_rows,
    brewer2_select: _brewer2_select_rows,
    durbin2_select: _durbin2_select_rows,
    chao_select: _chao_select_rows,
    conditional_poisson_select: _conditional_poisson_select_rows,
}

# kernel -> batched form(*args, R, rng) that runs only on a Generator whose
# stream rewinds double by double (a compiled kernel cannot read a Python
# source, so none on numba)
_REWOUND = {} if ACTIVE_BACKEND == "numba" else {ppswr_lahiri: _ppswr_lahiri_rows}


def _entry(table, select):
    """The entry of kernel `select` in table, or None.  A wrapped kernel
    (functools.wraps, as a tracer installs) is matched by the function it
    wraps."""
    return table.get(select) or table.get(inspect.unwrap(select))


def _stack(tables, pad):
    """Tables of index (or probability) rows stacked into one (a lone table
    as it is), every row filled up at its end with `pad` to the widest."""
    if len({t.shape[1] for t in tables}) == 1:  # nothing to fill
        return tables[0] if len(tables) == 1 else np.concatenate(tables)
    width = max((t.shape[1] for t in tables), default=0)
    out = np.full((sum(t.shape[0] for t in tables), width), pad,
                  dtype=np.result_type(pad, *tables))
    top = 0
    for t in tables:
        out[top:top + t.shape[0], :t.shape[1]] = t
        top += t.shape[0]
    return out


def _check_replicates(R, least):
    """Refuse, before any draw, a replicate count R that is not an integer
    (a bool is not one) of at least `least`."""
    if isinstance(R, bool) or not isinstance(R, (int, np.integer)) or R < least:
        raise ValueError(f"R must be an integer of at least {least}, got {R!r}")


def _replicate_rngs(source, R):
    """The Generators of R replicates in replicate order, from one Generator
    that they share (`source` R times over) or a sequence of R Generators,
    source[r] replicate r's own; any other source, or a replicate count
    that is not an integer of at least 0, is refused before a draw."""
    _check_replicates(R, 0)
    if isinstance(source, np.random.Generator):
        return itertools.repeat(source, R)
    if not isinstance(source, Sequence) or not all(
            isinstance(rng, np.random.Generator) for rng in source):
        raise TypeError("a Monte Carlo source is one numpy Generator that the replicates "
                        f"share or a sequence of one Generator per replicate, not {source!r:.80}")
    if len(source) != R:
        raise ValueError(f"a source of {len(source)} Generators cannot draw {R} replicates")
    return source


def _mc_rows(select, args, N, R, source):
    """R replicates of `select(*args, rng)` on a frame of N units, chunk by
    chunk: int64 tables whose row r, without the pads (index N, anywhere in
    the row), is replicate r's draw in kernel output order, on replicate
    r's Generator of `source` (`_replicate_rngs`), consumed as the scalar
    calls would consume it.  A lone replicate on a shared stream is one
    kernel call; the others run on Lahiri's rewound block (a shared stream
    that rewinds), a fixed-count kernel's batched form, or else the kernel
    replicate by replicate."""
    rngs = iter(_replicate_rngs(source, R))
    form = _entry(_BATCHED, select)
    if isinstance(source, np.random.Generator):
        if R == 1:
            yield select(*args, source)[None]
            return
        rewound = _entry(_REWOUND, select)
        if (rewound is not None and type(source) is np.random.Generator
                and type(source.bit_generator) in _ONE_STEP_PER_DOUBLE):
            yield from rewound(*args, R, source)
            return
        uniforms = lambda *shape: source.random(shape)
    else:
        def uniforms(rows, k):
            out = np.empty((rows, k))
            for row, rng in zip(out, itertools.islice(rngs, rows)):
                rng.random(out=row)
            return out
    if form is not None:
        yield from form(*args, R, uniforms)
        return
    for rows in _chunks(R, N):
        yield _stack([select(*args, rng)[None] for rng in itertools.islice(rngs, rows)], N)


def _distinct(idx, N):
    """Rows of with-replacement draws on N units, each sorted with every
    repeat made a pad N: the units each replicate drew, once each."""
    idx = np.sort(idx, axis=1)
    idx[:, 1:][idx[:, 1:] == idx[:, :-1]] = N
    return idx


def _counted(idx, N):
    """Rows of with-replacement draws on N units as what `np.unique(row,
    return_counts=True)` gives for each: (units, counts) tables, every row
    its distinct units ascending and how often each was drawn, filled up to
    the widest row with pads N and counts 0."""
    idx = _distinct(idx, N)
    once = idx < N  # the first of each unit's draws, where its run starts
    starts = np.flatnonzero(once)
    width = np.count_nonzero(once, axis=1)
    kept = np.arange(width.max(initial=0)) < width[:, None]  # row-major, as starts run
    units = np.full(kept.shape, N, dtype=np.int64)
    units[kept] = idx.ravel()[starts]
    counts = np.zeros(kept.shape, dtype=np.int64)
    counts[kept] = np.diff(starts, append=idx.size)
    return units, counts


def _tally(tables, N):
    """(hits, totals) of the replicates on N units in their (units, weights)
    tables, in replicate order: each unit's cells counted (pads N nowhere),
    each row's weights added left to right from 0.0 (`_row_totals`)."""
    counts = np.zeros(N + 1, dtype=np.int64)
    totals = [np.empty(0)]
    for units, w in tables:
        totals.append(_row_totals(w))
        counts += np.bincount(units.ravel(), minlength=N + 1)
    return counts[:N].astype(float), np.concatenate(totals)


def mc_draws(select, args, with_replacement, R, wvec, rng):
    """R replicates of `select(*args, rng)`, the kernel a design draws with:
    (hits, vals) as `_mc_draws_loop` returns them, the `_tally` of the
    tables of `_mc_rows`; on numba the compiled loop runs instead."""
    if ACTIVE_BACKEND == "numba":
        return _mc_draws_loop(select, args, with_replacement, R, wvec, rng)
    N = wvec.shape[0]
    w = np.append(wvec, 0.0)  # index N pads ragged rows and weighs nothing
    return _tally(((_distinct(idx, N) if with_replacement else idx, w[idx])
                   for idx in _mc_rows(select, args, N, R, rng)), N)


def mc_poisson(pi, R, wvec, rng):
    """R replicates of independent inclusion with probabilities pi."""
    return mc_draws(_poisson_indices, (pi,), False, R, wvec, rng)
