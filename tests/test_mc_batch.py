"""Batched Monte Carlo parity: every kernel with a fixed uniform count runs
R replicates from one uniform block per chunk, the same code on both
backends.  Hits, replicate values and the Generator state afterwards must
equal the scalar reference loop `mc_draws_loop` bit for bit, because a
block of rng.random((rows, k)) holds exactly the doubles of rows * k scalar
calls.

Every design kernel but Lahiri's takes a fixed uniform count.  Lahiri's
batch runs on a speculative block of a PCG64 stream, after which the
Generator is rewound and advanced by the doubles used; it must match the
scalar loop bit for bit as well, and every other bit generator must keep
the scalar loop for it.  The rejective kernel `rejective_poisson_select`, the
reference for RejectivePoisson's law, has no batched form; a single draw
from a Generator reads each try as one block, and it must equal its scalar
loop `_rejective_poisson_loop` bit for bit on every bit generator.

On numpy every public kernel is a vector form that reads one block of
uniforms per draw; its scalar loop (`kernels._LOOPS`) is the reference
every single draw and every batch here is held to."""

import functools
import itertools
import math
import time
from collections import Counter

import numpy as np
import pytest

import surveykit as sk
from surveykit import core, kernels
from surveykit.design import PPSWR_METHODS, SRS_METHODS, Design, RngStream, _Leaf
from surveykit.estimators import ht_total
from surveykit.simulate import design_consistency_mc, monte_carlo

# The batches are the same on numba, but numba rebinds every public kernel
# to its loop, and many cases here hold numpy's single-draw forms, their
# time budgets or the lockstep cutoff.
pytestmark = pytest.mark.skipif(
    sk.ACTIVE_BACKEND != "numpy",
    reason="holds numpy's public single-draw forms; on numba each is its scalar loop")


def size_measures(N, seed=5):
    return np.round(np.random.default_rng(seed).uniform(1.0, 4.0, N), 3)


def weights(N, seed=6):
    return np.random.default_rng(seed).normal(8.0, 3.0, N)


def n2_probs(N):
    x = size_measures(N)
    return x / x.sum()


def entry_probs(N, n):
    return core._entry_probs(sk.compute_pips(size_measures(N), n), n)


def bindings(N, n):
    """(label, kernel, args, with_replacement) of every batched kernel on a
    frame of N units and sample size n."""
    x = size_measures(N)
    return [
        ("srs_draw_by_draw", kernels.srs_draw_by_draw, (n, N), False),
        ("srs_selection_rejection", kernels.srs_selection_rejection, (n, N), False),
        ("srs_reservoir", kernels.srs_reservoir, (n, N), False),
        ("srs_random_sort", kernels.srs_random_sort, (n, N), False),
        ("srswr_draws", kernels.srswr_draws, (n, N), True),
        ("_poisson_indices", kernels._poisson_indices,
         (np.clip(sk.compute_pips(x, n), 0.05, 1.0),), False),
        ("systematic_select", kernels.systematic_select, (N, N // n), False),
        ("systematic_pps_select", kernels.systematic_pps_select, (x, n), False),
        ("ppswr_cumulative", kernels.ppswr_cumulative, (np.cumsum(x), n), True),
        ("brewer2_select", kernels.brewer2_select, (n2_probs(N),), False),
        ("durbin2_select", kernels.durbin2_select, (n2_probs(N),), False),
        ("chao_select", kernels.chao_select, (x, n), False),
        ("conditional_poisson_select", kernels.conditional_poisson_select,
         (entry_probs(N, n), n), False),
    ]


def loop_of(kernel):
    """The scalar loop a kernel is held to: its entry in `kernels._LOOPS`,
    the loop's mask as indices for `_poisson_indices`, and Lahiri's kernel,
    itself a loop, as it is."""
    if kernel is kernels._poisson_indices:
        return lambda pi, rng: np.nonzero(kernels._poisson_select_loop(pi, rng))[0]
    return kernels._LOOPS.get(kernel.__name__, kernel)


def mc_draws_loop(select, args, with_replacement, R, wvec, rng):
    """The scalar reference of `kernels.mc_draws`: R replicates of
    `select(*args, rng)`, one call each, with each draw's units counted and
    its weights added left to right from 0.0.  With replacement, a unit
    drawn twice in a replicate appears once in `hits` but adds its weight
    per draw."""
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


def assert_same_run(batched, reference, seed):
    """Run both with Generators from one seed and compare hits, values and
    the next double, bit for bit."""
    rng_a, rng_b = np.random.default_rng(seed), np.random.default_rng(seed)
    hits_a, vals_a = batched(rng_a)
    hits_b, vals_b = reference(rng_b)
    assert hits_a.tobytes() == hits_b.tobytes()
    assert vals_a.tobytes() == vals_b.tobytes()
    assert rng_a.random() == rng_b.random()


def check_kernel(kernel, args, with_replacement, R, wvec, seed):
    assert_same_run(
        lambda rng: kernels.mc_draws(kernel, args, with_replacement, R, wvec, rng),
        lambda rng: mc_draws_loop(loop_of(kernel), args, with_replacement, R, wvec, rng),
        seed)


SHAPES = [(12, 3), (12, 4), (1000, 50)]
CASES = [(N, n, b) for N, n in SHAPES for b in bindings(N, n)]


@pytest.mark.parametrize("R", [1, 7, 1000])
@pytest.mark.parametrize("N, n, binding", CASES,
                         ids=[f"{b[0]}-N{N}-n{n}" for N, n, b in CASES])
def test_batched_kernel_matches_scalar_loop(N, n, binding, R):
    _, kernel, args, with_replacement = binding
    assert kernels._BATCHED.get(kernel) is not None
    check_kernel(kernel, args, with_replacement, R, weights(N), seed=R + N)


@pytest.mark.parametrize("N, n, binding", CASES[:len(bindings(12, 3))],
                         ids=[b[0] for b in bindings(12, 3)])
def test_batches_spanning_several_chunks(monkeypatch, N, n, binding):
    monkeypatch.setattr(kernels, "_CHUNK_CELLS", 40)
    _, kernel, args, with_replacement = binding
    check_kernel(kernel, args, with_replacement, 203, weights(N), seed=17)


@pytest.mark.parametrize("binding", bindings(12, 4), ids=lambda b: b[0])
def test_signed_zero_weights_sum_like_the_loop(binding):
    # the loop's total starts at +0.0, so a sample of -0.0 weights sums to +0.0
    _, kernel, args, with_replacement = binding
    check_kernel(kernel, args, with_replacement, 50, np.full(12, -0.0), seed=3)


@pytest.mark.parametrize("rows", [1, 2, 3, 64])
@pytest.mark.parametrize("width", [0, 1, 5, 9, 16, 33, 200])
def test_row_totals_add_each_row_in_order(rows, width):
    # wide rows tell an in-order sum from numpy's pairwise one in the last
    # bits; a lone row is where numpy would reduce pairwise
    gen = np.random.default_rng([rows, width])
    w = gen.normal(size=(rows, width)) * 10.0 ** gen.integers(-8, 9, (rows, width))
    w[gen.random((rows, width)) < 0.2] = -0.0
    w[1:2] = -0.0  # a row of -0.0 sums to +0.0, as the loop's does
    expect = []
    for row in w.tolist():
        total = 0.0
        for v in row:
            total += v
        expect.append(total)
    assert kernels._row_totals(w).tobytes() == np.array(expect).tobytes()
    strided = np.repeat(w, 2, axis=1)[:, ::2]
    assert kernels._row_totals(strided).tobytes() == np.array(expect).tobytes()


@pytest.mark.parametrize("N, n", [(10, 3), (11, 3), (1000, 47)])
def test_systematic_ragged_sizes(N, n):
    G = N // n
    assert N % G  # some starts take n + 1 units, the others n
    check_kernel(kernels.systematic_select, (N, G), False, 500, weights(N), seed=N)


@pytest.mark.parametrize("kernel", [kernels.brewer2_select, kernels.durbin2_select],
                         ids=lambda k: k.__name__)
def test_n2_first_draw_on_the_last_unit(kernel):
    p = np.array([0.05, 0.1, 0.1, 0.15, 0.2, 0.4])
    theta = p * (1 - p) / (1 - 2 * p) if kernel is kernels.brewer2_select else p
    seed = next(s for s in range(100) if kernels._draw_categorical(
        theta, -1, np.random.default_rng(s)) == p.size - 1)
    wvec = weights(p.size)
    check_kernel(kernel, (p,), False, 1, wvec, seed)
    check_kernel(kernel, (p,), False, 1000, wvec, seed)


N2_KERNELS = [kernels.brewer2_select, kernels.durbin2_select]


@pytest.mark.parametrize("kernel", N2_KERNELS, ids=lambda k: k.__name__)
@pytest.mark.parametrize("cells", [2, 4, 11, 12, 30, 40, 100])
def test_n2_chunks_and_blocks(monkeypatch, kernel, cells):
    # chunks of cells // 2 replicates, their distinct first units in blocks
    # of max(1, cells // N): one first unit a block below N = 12 cells
    monkeypatch.setattr(kernels, "_CHUNK_CELLS", cells)
    N, p = 12, n2_probs(12)
    check_kernel(kernel, (p,), False, 203, weights(N), seed=cells)
    blocks = []

    def cond(f, out):
        blocks.append(out.shape)
        np.copyto(out, p)

    rng = np.random.default_rng(cells)
    rows = list(kernels._n2_rows(p, cond, 203, lambda rows, k: rng.random((rows, k))))
    assert sum(len(r) for r in rows) == 203 and max(len(r) for r in rows) <= max(1, cells // 2)
    assert all(k * n <= max(cells, N) and n == N for k, n in blocks)
    assert max(k for k, _ in blocks) == max(1, cells // N)


@pytest.mark.parametrize("kernel", N2_KERNELS, ids=lambda k: k.__name__)
@pytest.mark.parametrize("p", [
    [0.2, 0.3],
    [0.3, 0.0],  # the second draw has no weight left: the loop keeps the last unit
    [0.1, 0.3, 0.4],
    [0.0, 0.0, 0.4],  # every first draw is the last unit, and no weight is left
    [0.0, 0.25, 0.0, 0.3, 0.0, 0.25, 0.2, 0.0],
], ids=["N2", "N2-zero", "N3", "N3-last-zero", "N8-zeros"])
def test_n2_zero_conditional_weights_and_tiny_frames(kernel, p):
    p = np.array(p)
    for R in (1, 7, 500):
        check_kernel(kernel, (p,), False, R, weights(p.size), seed=R)


@pytest.mark.parametrize("kernel", N2_KERNELS, ids=lambda k: k.__name__)
@pytest.mark.parametrize("N, R", [(3, 1000), (12, 1000), (300, 1000), (3000, 200)])
def test_n2_batches_match_the_scalar_loop_up_to_large_frames(kernel, N, R):
    check_kernel(kernel, (n2_probs(N),), False, R, weights(N), seed=N)


@pytest.mark.parametrize("design", [sk.Brewer2(), sk.Durbin2()], ids=lambda d: d.key)
def test_n2_monte_carlo_time_budget(design):
    # R = 1000 replicates at N = 1000: about 5 ms on a 2-core VM, where one
    # pass per distinct first unit took 20-30 ms
    N = 1000
    frame = sk.Frame(ids=tuple(map(str, range(N))), mos=size_measures(N), y=weights(N))
    start = time.perf_counter()
    hits, _ = design_consistency_mc(design, frame, 1000, np.random.default_rng(2))
    assert time.perf_counter() - start < 0.5
    assert hits.sum() == 2 * 1000


@pytest.mark.parametrize("R", [1, 7, 1000])
@pytest.mark.parametrize("N", [12, 1000])
def test_mc_poisson_matches_scalar_loop(N, R):
    pi = np.clip(sk.compute_pips(size_measures(N), N // 4), 0.05, 1.0)
    wvec = weights(N) / pi
    assert_same_run(lambda rng: kernels.mc_poisson(pi, R, wvec, rng),
                    lambda rng: mc_draws_loop(loop_of(kernels._poisson_indices), (pi,),
                                              False, R, wvec, rng), seed=R)


def test_mc_poisson_spanning_several_chunks(monkeypatch):
    monkeypatch.setattr(kernels, "_CHUNK_CELLS", 30)
    pi = np.linspace(0.1, 0.9, 12)
    wvec = weights(12) / pi
    assert_same_run(lambda rng: kernels.mc_poisson(pi, 101, wvec, rng),
                    lambda rng: mc_draws_loop(loop_of(kernels._poisson_indices), (pi,),
                                              False, 101, wvec, rng), seed=9)


def test_wrapped_kernel_keeps_the_batched_path():
    # a functools.wraps wrapper, as a tracer installs, is matched by the
    # kernel it wraps, so the scalar kernel is never called
    calls = []

    @functools.wraps(kernels.srs_reservoir)
    def traced(*args):
        calls.append(args)
        return kernels.srs_reservoir(*args)

    wvec = weights(12)
    assert_same_run(lambda rng: kernels.mc_draws(traced, (4, 12), False, 300, wvec, rng),
                    lambda rng: mc_draws_loop(kernels._srs_reservoir_loop, (4, 12),
                                              False, 300, wvec, rng), seed=4)
    assert calls == []


def test_stratified_stream_continues_across_strata():
    N = 12
    x, y = size_measures(N), weights(N)
    frame = sk.Frame(ids=tuple(map(str, range(N))), mos=x, y=y,
                     stratum=tuple("a" if i < 6 else "b" for i in range(N)))
    design = sk.Stratified((("a", sk.SRS(2, "reservoir")), ("b", sk.Systematic(2))))
    R = 300

    def reference(rng):
        # all R draws of stratum a, then all R of stratum b, on one stream;
        # each replicate's units then add y/pi in ascending order from 0.0
        a = [kernels._srs_reservoir_loop(2, 6, rng) for _ in range(R)]
        b = [6 + kernels._systematic_select_loop(6, 3, rng) for _ in range(R)]
        hits, vals = np.zeros(N), np.zeros(R)
        for r in range(R):
            total = 0.0
            for i in sorted(np.concatenate([a[r], b[r]]).tolist()):
                hits[i] += 1
                total += y[i] / (1 / 3)  # every unit's pi, 2/6 in a and 1/3 in b
            vals[r] = total
        return hits, vals

    assert_same_run(lambda rng: design_consistency_mc(design, frame, R, rng),
                    reference, seed=21)


def test_design_entry_point_matches_select_loop():
    # one replicate of design_consistency_mc is one select() on the stream
    x, y = size_measures(12), weights(12)
    frame = sk.Frame(ids=tuple(map(str, range(12))), mos=x, y=y)
    for design in (sk.SRS(4, "draw_by_draw"), sk.SRSWR(5), sk.SystematicPPS(3),
                   sk.PPSWR(4), sk.Brewer2(), sk.Durbin2(), sk.Bernoulli(0.3)):
        rng_mc, rng_sel = RngStream(8).generator(), RngStream(8).generator()
        hits, vals = design_consistency_mc(design, frame, 20, rng_mc)
        expect_hits = np.zeros(12)
        for r in range(20):
            s = sk.select(design, frame, rng_sel)
            expect_hits[s.idx] += 1
            assert vals[r] == pytest.approx(sk.ht_total(s, y[s.idx]).value, rel=1e-12)
        assert np.array_equal(hits, expect_hits)
        assert rng_mc.random() == rng_sel.random()


# ---------------------------------------------------------------------------
# Lahiri's rewound batch, a wider sweep of frame sizes, and single draws.

def lahiri_args(x, n):
    return x, float(x.max()) * (1 + 1e-12), n  # the bound barely above the largest mos


def variable_bindings(N, n):
    """(label, kernel, args, with_replacement) of the kernels checked over
    the wider sweep of frame sizes: Lahiri, whose uniform count is random;
    selection-rejection and Chao, whose batched forms step through the
    frame column by column; and the rejective reference loop, which has no
    batched form."""
    x = size_measures(N)
    return [
        ("srs_selection_rejection", kernels.srs_selection_rejection, (n, N), False),
        ("chao_select", kernels.chao_select, (x, n), False),
        ("ppswr_lahiri", kernels.ppswr_lahiri, lahiri_args(x, n), True),
        ("rejective_poisson_select", kernels.rejective_poisson_select,
         (sk.compute_pips(x, n), n, 10_000), False),
    ]


# R = 1000 runs where the loop it is checked against is quick enough.
VARIABLE_SHAPES = [(12, 3), (32, 4), (33, 4), (128, 8), (129, 8), (192, 8), (193, 8),
                   (1000, 50)]
VARIABLE_CASES = [(N, n, b, R) for N, n in VARIABLE_SHAPES for b in variable_bindings(N, n)
                  for R in (1, 7, 1000)
                  if R < 1000 or b[0] == "ppswr_lahiri" or N <= 192
                  or N < 1000 and b[0] != "rejective_poisson_select"]


def kernel_calls(kernel, args, with_replacement, R, wvec, rng):
    """How often mc_draws calls the kernel itself over R replicates on rng:
    0 on a batched path, R on the scalar loop.  The spy is a
    functools.wraps wrapper, which the batched paths match by the kernel
    it wraps."""
    calls = []

    @functools.wraps(kernel)
    def spy(*a):
        calls.append(1)
        return kernel(*a)

    kernels.mc_draws(spy, args, with_replacement, R, wvec, rng)
    return len(calls)


def path_taken(kernel, N):
    """Run mc_draws once and tell which path it took: "batched" when the
    kernel itself never ran, else "scalar"."""
    args = dict((b[0], b[2]) for b in variable_bindings(N, 4))[kernel.__name__]
    calls = kernel_calls(kernel, args, False, 3, weights(N), np.random.default_rng(1))
    return "scalar" if calls else "batched"


@pytest.mark.parametrize("N, n, binding, R", VARIABLE_CASES,
                         ids=[f"{b[0]}-N{N}-R{R}" for N, n, b, R in VARIABLE_CASES])
def test_variable_count_kernel_matches_scalar_loop(N, n, binding, R):
    _, kernel, args, with_replacement = binding
    check_kernel(kernel, args, with_replacement, R, weights(N), seed=R + N)


@pytest.mark.parametrize("cells", [40, 200])
@pytest.mark.parametrize("binding", variable_bindings(12, 4), ids=lambda b: b[0])
def test_variable_count_batches_spanning_several_blocks(monkeypatch, binding, cells):
    monkeypatch.setattr(kernels, "_CHUNK_CELLS", cells)
    _, kernel, args, with_replacement = binding
    check_kernel(kernel, args, with_replacement, 203, weights(12), seed=cells)


@pytest.mark.parametrize("kernel, N, path", [
    (kernels.srs_selection_rejection, 32, "batched"),
    (kernels.chao_select, 128, "batched"),
    (kernels.ppswr_lahiri, 1000, "batched"),
], ids=lambda v: getattr(v, "__name__", str(v)))
def test_lockstep_cutoff_picks_the_path(kernel, N, path):
    assert path_taken(kernel, N) == path


@pytest.mark.parametrize("bit_generator", [np.random.Philox, np.random.MT19937],
                         ids=lambda g: g.__name__)
@pytest.mark.parametrize("binding", [b for b in variable_bindings(12, 3)
                                     if b[1] not in kernels._BATCHED], ids=lambda b: b[0])
def test_other_bit_generators_keep_the_scalar_loop(bit_generator, binding):
    # Philox has `advance`, but one of its steps is a 4-word counter block,
    # not one double
    _, kernel, args, with_replacement = binding
    wvec = weights(12)
    runs = []
    for run, select in ((kernels.mc_draws, kernel), (mc_draws_loop, loop_of(kernel))):
        rng = np.random.Generator(bit_generator(77))
        hits, vals = run(select, args, with_replacement, 300, wvec, rng)
        runs.append((hits.tobytes(), vals.tobytes(), rng.random()))
    assert runs[0] == runs[1]
    rng = np.random.Generator(bit_generator(77))
    assert kernel_calls(kernel, args, with_replacement, 5, wvec, rng) == 5


HALF_CASES = [(12, b) for b in variable_bindings(12, 3)] + [
    (1000, b) for b in variable_bindings(1000, 50)[:2]]


def rewinding_runs(kernel, args, with_replacement, N, R):
    """(rewound, scalar): a single draw (one exact block of uniforms for a
    fixed-count kernel) then a Monte Carlo batch (which rewinds for Lahiri
    on a PCG64 stream), and the scalar loops they stand for; each returns
    its arrays as bytes."""
    wvec = weights(N)
    loop = loop_of(kernel)

    def rewound(rng):
        out = (kernel(*args, rng),
               *kernels.mc_draws(kernel, args, with_replacement, R, wvec, rng))
        return [a.tobytes() for a in out]

    def scalar(rng):
        out = (loop(*args, rng),
               *mc_draws_loop(loop, args, with_replacement, R, wvec, rng))
        return [a.tobytes() for a in out]

    return rewound, scalar


@pytest.mark.parametrize("N, binding", HALF_CASES, ids=[f"{b[0]}-N{N}" for N, b in HALF_CASES])
def test_pending_32_bit_half_survives_the_rewind(N, binding):
    # `advance` drops a buffered 32-bit half, so the rewind writes it back
    _, kernel, args, with_replacement = binding
    runs = []
    for run in rewinding_runs(kernel, args, with_replacement, N, 7):
        rng = np.random.default_rng(N)
        rng.integers(0, 2 ** 32, dtype=np.uint32)
        assert rng.bit_generator.state["has_uint32"]
        runs.append((run(rng), rng.bit_generator.state,
                     rng.integers(0, 2 ** 32, dtype=np.uint32), rng.random()))
    assert runs[0] == runs[1]


def test_pcg64dxsm_is_rewound_too():
    # Lahiri's batch, and a single draw then a batch of selection-rejection
    x = size_measures(40)
    for kernel, args, with_replacement in (
            (kernels.ppswr_lahiri, lahiri_args(x, 4), True),
            (kernels.srs_selection_rejection, (4, 40), False)):
        runs = []
        for run in rewinding_runs(kernel, args, with_replacement, 40, 500):
            rng = np.random.Generator(np.random.PCG64DXSM(3))
            runs.append((run(rng), rng.random()))
        assert runs[0] == runs[1]


@pytest.mark.parametrize("max_tries", [0, 1, 2])
def test_rejective_few_tries_match_scalar_loop(max_tries):
    # replicates that run out of tries come back empty, as the kernel's do
    pi = sk.compute_pips(size_measures(12), 4) * 0.8
    check_kernel(kernels.rejective_poisson_select, (pi, 4, max_tries), False, 300,
                 weights(12), seed=max_tries)


BIT_GENERATORS = [np.random.PCG64, np.random.PCG64DXSM, np.random.Philox,
                  np.random.MT19937, np.random.SFC64]
SINGLE_CASES = [(N, b) for N, n in [(3, 2), (24, 4), (1000, 50)] for b in bindings(N, n)]


@pytest.mark.parametrize("bit_generator", BIT_GENERATORS, ids=lambda g: g.__name__)
@pytest.mark.parametrize("N, binding", SINGLE_CASES,
                         ids=[f"{b[0]}-N{N}" for N, b in SINGLE_CASES])
def test_single_draws_match_the_kernel(N, binding, bit_generator):
    # one exact block of uniforms per draw: the same indices in the same
    # order, and the stream where the loop's scalar calls leave it
    _, kernel, args, _ = binding
    assert kernel in kernels._BATCHED
    rng_a, rng_b = (np.random.Generator(bit_generator(N)) for _ in range(2))
    for _ in range(3):
        a = kernel(*args, rng_a)
        b = loop_of(kernel)(*args, rng_b)
        assert a.dtype == b.dtype and a.tobytes() == b.tobytes()
    assert rng_a.random(3).tobytes() == rng_b.random(3).tobytes()


class CountingSource:
    """A Generator that counts its `random` calls."""

    def __init__(self, seed, bit_generator=np.random.MT19937):
        self.rng, self.calls = np.random.Generator(bit_generator(seed)), 0

    def random(self, *args):
        self.calls += 1
        return self.rng.random(*args)


@pytest.mark.parametrize("binding", bindings(1000, 50), ids=lambda b: b[0])
def test_a_single_draw_calls_random_once(binding):
    _, kernel, args, _ = binding
    source = CountingSource(7)
    idx = kernel(*args, source)
    assert source.calls == 1
    loop = loop_of(kernel)
    assert idx.tobytes() == loop(*args, np.random.Generator(np.random.MT19937(7))).tobytes()


# public kernel -> its arguments on a frame of N units at sample size n;
# Brewer's and Durbin's methods always take two units
KERNEL_ARGS = {
    "srs_draw_by_draw": lambda N, n: (n, N),
    "srs_selection_rejection": lambda N, n: (n, N),
    "srs_reservoir": lambda N, n: (n, N),
    "srs_random_sort": lambda N, n: (n, N),
    "srswr_draws": lambda N, n: (n, N),
    "poisson_select": lambda N, n: (np.minimum(size_measures(N) * n / size_measures(N).sum(),
                                               1.0),),
    "systematic_select": lambda N, n: (N, N // n),
    "systematic_pps_select": lambda N, n: (size_measures(N), n),
    "ppswr_cumulative": lambda N, n: (np.cumsum(size_measures(N)), n),
    "brewer2_select": lambda N, n: (n2_probs(N),),
    "durbin2_select": lambda N, n: (n2_probs(N),),
    "chao_select": lambda N, n: (size_measures(N), n),
    "conditional_poisson_select": lambda N, n: (entry_probs(N, n), n),
}


def sample_sizes(name, N):
    """n in {0, 1, N // 2, N} where the kernel takes it: the systematic
    kernels divide by n, and the n = 2 kernels take none."""
    if name in ("brewer2_select", "durbin2_select"):
        return [2]
    return sorted({0, 1, N // 2, N} - ({0} if name.startswith("systematic") else set()))


VECTOR_CASES = [(name, N, n) for name in KERNEL_ARGS for N in (1, 2, 3, 12, 24, 1000)
                for n in sample_sizes(name, N)]


def test_every_fixed_count_kernel_has_a_loop():
    fixed = set(kernels.__all__) - {"ppswr_lahiri", "rejective_poisson_select"}
    assert set(KERNEL_ARGS) == fixed == set(kernels._LOOPS) - {"rejective_poisson_select"}


def draws_and_next(kernel, args, rng, source):
    """Two draws of kernel from rng, each as (dtype, bytes) or the error it
    raised as (type, message), then the next three doubles of source."""
    out = []
    for _ in range(2):
        try:
            idx = kernel(*args, rng)
            out.append((idx.dtype, idx.tobytes()))
        except Exception as exc:  # the loop's error, whatever it is, must be the same
            out.append((type(exc), str(exc)))
    return out + [source.random(3).tobytes()]


@pytest.mark.parametrize("bit_generator", BIT_GENERATORS, ids=lambda g: g.__name__)
@pytest.mark.parametrize("name, N, n", VECTOR_CASES,
                         ids=[f"{name}-N{N}-n{n}" for name, N, n in VECTOR_CASES])
def test_public_kernel_is_its_loop(name, N, n, bit_generator):
    # the vector form reads one block a draw and draws what the loop draws,
    # in its dtype and order, leaving the stream where the loop leaves it
    args = KERNEL_ARGS[name](N, n)
    source = CountingSource(N + n, bit_generator)
    vector = draws_and_next(getattr(kernels, name), args, source, source.rng)
    assert source.calls == 2
    rng = np.random.Generator(bit_generator(N + n))
    assert vector == draws_and_next(kernels._LOOPS[name], args, rng, rng)


def test_single_draw_time_budget():
    # five draws of each of the benchmark's eleven kernel cases on its
    # frame: 3.5-4.2 ms on a 2-core VM, where the loops took 20-38 ms
    N, n = 1000, 50
    g = np.random.default_rng([7, 1000])
    x = np.abs(g.normal(2.0, 0.5, N)) + 0.1
    pips = sk.compute_pips(x, n) * 0.9
    cum, small_p = np.cumsum(x), np.array([0.1, 0.2, 0.3, 0.4])
    cases = [(kernels.srs_draw_by_draw, (n, N)), (kernels.srs_selection_rejection, (n, N)),
             (kernels.srs_reservoir, (n, N)), (kernels.srs_random_sort, (n, N)),
             (kernels.srswr_draws, (n, N)), (kernels.poisson_select, (pips,)),
             (kernels.systematic_pps_select, (x, n)), (kernels.ppswr_cumulative, (cum, n)),
             (kernels.brewer2_select, (small_p,)), (kernels.chao_select, (x, n)),
             (kernels.rejective_poisson_select, (pips, n, 10_000))]
    rng = np.random.default_rng(8)
    start = time.perf_counter()
    draws = [kernel(*args, rng) for kernel, args in cases for _ in range(5)]
    assert time.perf_counter() - start < 0.01
    assert all(d.size for d in draws)


def test_wrapped_kernel_keeps_the_block_path(monkeypatch):
    # a functools.wraps wrapper, as a tracer installs, is what a design
    # draws with; it hands the kernel the design's source, which the kernel
    # reads as one block, and the draw is the loop's
    sources, kernel = [], kernels.srs_selection_rejection

    @functools.wraps(kernel)
    def traced(n, N, rng):
        sources.append(rng)
        return kernel(n, N, rng)

    monkeypatch.setattr(kernels, "srs_selection_rejection", traced)
    frame = sk.Frame(ids=tuple(map(str, range(24))), y=weights(24))
    source = CountingSource(3)
    sample = sk.SRS(4).draw(frame, source)
    assert source.calls == 1 and sources == [source]
    loop = kernels._srs_selection_rejection_loop
    assert sample.idx.tobytes() == loop(4, 24, np.random.Generator(np.random.MT19937(3))).tobytes()


def test_kernels_without_a_fixed_count_draw_on_the_generator():
    x = size_measures(12)
    for kernel, args in ((kernels.ppswr_lahiri, lahiri_args(x, 3)),
                         (kernels.rejective_poisson_select, (sk.compute_pips(x, 3), 3, 100))):
        source = CountingSource(5)
        idx = kernel(*args, source)
        assert source.calls > 1
        loop = loop_of(kernel)
        assert idx.tobytes() == loop(*args, np.random.Generator(np.random.MT19937(5))).tobytes()


# (N, n, max_tries) of the rejective kernel's checks against its loop, n
# from 0 to N around a middle value; at N = 1000 the loop takes about a
# second to fail 10,000 tries of n = 0, 1 or N, so there only the middle n
# runs them
REJECTIVE_MIDDLE = {3: 2, 8: 3, 12: 4, 1000: 50}
REJECTIVE_CASES = [(N, n, tries) for N, mid in REJECTIVE_MIDDLE.items()
                   for n in (0, 1, mid, N) for tries in (0, 1, 2, 10_000)
                   if N < 1000 or tries < 10_000 or n == mid]


def assert_rejective_is_the_loop(pi, n, max_tries, bit_generator):
    # the same indices, dtype and next doubles as the scalar loop, draw
    # after draw
    rng_a, rng_b = (np.random.Generator(bit_generator(pi.size + n)) for _ in range(2))
    for _ in range(2):
        a = kernels.rejective_poisson_select(pi, n, max_tries, rng_a)
        b = kernels._rejective_poisson_loop(pi, n, max_tries, rng_b)
        assert a.dtype == b.dtype and a.tobytes() == b.tobytes()
    assert rng_a.random(3).tobytes() == rng_b.random(3).tobytes()


@pytest.mark.parametrize("bit_generator", BIT_GENERATORS, ids=lambda g: g.__name__)
@pytest.mark.parametrize("N, n, max_tries", REJECTIVE_CASES)
def test_rejective_blocks_are_the_loop(N, n, max_tries, bit_generator):
    pi = sk.compute_pips(size_measures(N), REJECTIVE_MIDDLE[N]) * 0.9
    assert_rejective_is_the_loop(pi, n, max_tries, bit_generator)


@pytest.mark.parametrize("bit_generator", BIT_GENERATORS, ids=lambda g: g.__name__)
@pytest.mark.parametrize("max_tries", [1, 2, 3, 11, 12, 13, 30, 10_000])
def test_overfull_rejective_tries_run_out_like_the_loop(max_tries, bit_generator):
    # nearly every try stops at its second hit, so the tries run out with
    # uniforms of the last block unread; the kernel saves the stream's
    # state N = 12 tries before the last
    assert_rejective_is_the_loop(np.full(12, 0.9), 1, max_tries, bit_generator)


def test_rejective_kernel_calls_random_once_per_uniform_off_a_generator():
    pi = sk.compute_pips(size_measures(12), 4) * 0.9
    source = CountingSource(4)
    idx = kernels.rejective_poisson_select(pi, 4, 100, source)
    rng, skipped = (np.random.Generator(np.random.MT19937(4)) for _ in range(2))
    assert idx.tobytes() == kernels.rejective_poisson_select(pi, 4, 100, rng).tobytes()
    skipped.random(source.calls)
    assert source.rng.random() == rng.random() == skipped.random()


def test_rejective_kernel_time_budget():
    # five draws of n = 50 from N = 1000 on the benchmark's kernel frame:
    # about 2 ms on a 2-core VM, where a scalar call per uniform took
    # 115-190 ms
    N, n = 1000, 50
    g = np.random.default_rng([7, 1000])
    pi = sk.compute_pips(np.abs(g.normal(2.0, 0.5, N)) + 0.1, n) * 0.9
    rng = np.random.default_rng(8)
    start = time.perf_counter()
    draws = [kernels.rejective_poisson_select(pi, n, 10_000, rng) for _ in range(5)]
    assert time.perf_counter() - start < 0.05
    assert all(np.unique(d).size == n for d in draws)


def test_variable_count_designs_match_select_loop():
    # a leaf design's MC replicate is one select(), also for the lockstep
    # forms, on small and larger frames
    for N in (12, 40):
        x, y = size_measures(N), weights(N)
        frame = sk.Frame(ids=tuple(map(str, range(N))), mos=np.sort(x), y=y)
        for design in (sk.SRS(4), sk.Chao(3), sk.PPSWR(4, "lahiri"), sk.RejectivePoisson(3)):
            rng_mc, rng_sel = RngStream(9).generator(), RngStream(9).generator()
            hits, vals = design_consistency_mc(design, frame, 25, rng_mc)
            expect_hits = np.zeros(N)
            for r in range(25):
                s = sk.select(design, frame, rng_sel)
                expect_hits[s.idx] += 1
                assert vals[r] == pytest.approx(sk.ht_total(s, y[s.idx]).value, rel=1e-12)
            assert np.array_equal(hits, expect_hits)
            assert rng_mc.random() == rng_sel.random()


# ---------------------------------------------------------------------------
# Kernels with one uniform per unit (conditional Poisson, selection-rejection)
# or per stream unit (Chao): every bit generator takes the batched form.

def check_batched_on(bit_generator, kernel, args, N):
    """The batch of `kernel` on a Generator over `bit_generator` equals the
    scalar loop, and never runs it."""
    wvec = weights(N)
    runs = []
    for run, select in ((kernels.mc_draws, kernel), (mc_draws_loop, loop_of(kernel))):
        rng = np.random.Generator(bit_generator(41))
        hits, vals = run(select, args, False, 300, wvec, rng)
        runs.append((hits.tobytes(), vals.tobytes(), rng.random()))
    assert runs[0] == runs[1]
    assert kernel_calls(kernel, args, False, 5, wvec, np.random.Generator(bit_generator(41))) == 0


@pytest.mark.parametrize("bit_generator", BIT_GENERATORS, ids=lambda g: g.__name__)
@pytest.mark.parametrize("N, n", [(12, 3), (200, 20)])
def test_conditional_poisson_batched_on_every_bit_generator(bit_generator, N, n):
    check_batched_on(bit_generator, kernels.conditional_poisson_select, (entry_probs(N, n), n), N)


@pytest.mark.parametrize("bit_generator", BIT_GENERATORS, ids=lambda g: g.__name__)
@pytest.mark.parametrize("N, n", [(12, 3), (200, 20)])
@pytest.mark.parametrize("kernel", [kernels.srs_selection_rejection, kernels.chao_select],
                         ids=lambda k: k.__name__)
def test_selection_rejection_and_chao_batched_on_every_bit_generator(
        kernel, bit_generator, N, n):
    args = (n, N) if kernel is kernels.srs_selection_rejection else (size_measures(N), n)
    check_batched_on(bit_generator, kernel, args, N)


@pytest.mark.parametrize("bit_generator", [np.random.PCG64, np.random.Philox],
                         ids=lambda g: g.__name__)
@pytest.mark.parametrize("N, n", [(12, 3), (12, 12), (1000, 50)])
def test_selection_rejection_and_chao_take_a_fixed_count_of_uniforms(bit_generator, N, n):
    # selection-rejection reads every unit's uniform, Chao every stream unit's
    x = size_measures(N)
    for kernel, args, used in ((kernels.srs_selection_rejection, (n, N), N),
                               (kernels.chao_select, (x, n), N - n)):
        for seed in range(20):
            for draw in (kernel, loop_of(kernel)):
                rng, ahead = (np.random.Generator(bit_generator(seed)) for _ in range(2))
                draw(*args, rng)
                ahead.random(used)
                assert rng.random() == ahead.random()


def reference_walk(u, n, bound):
    """The reference one-pass walk: one walk per row of u, stepping down
    its columns, the taken cells as (row, column) pairs from a 2-D
    np.nonzero."""
    rows, N = u.shape
    need = np.full(rows, n)
    take = np.zeros(u.shape, dtype=bool)
    for k in range(N):
        take[:, k] = u[:, k] < bound(k, need)
        need -= take[:, k]
    return np.nonzero(take)


def selection_rejection_table(rows, N, seed):
    # the kernel's test u * (N - k) < n - chosen, one replicate a row
    return np.random.default_rng(seed).random((rows, N)) * (N - np.arange(N))


def take_need(k, need):
    return need


def assert_walks_agree(u, n, bound):
    """_one_pass on the column-per-walk layout takes the cells the
    reference takes, walk c's step k at flat position c * N + k."""
    r, c = reference_walk(u, n, bound)
    flat = kernels._one_pass(np.ascontiguousarray(u.T), n, bound)
    assert flat.tolist() == (r * u.shape[1] + c).tolist()
    return flat


@pytest.mark.parametrize("rows, N, n", [(200, 12, 4), (1, 12, 3), (1, 1, 1), (50, 1, 1),
                                        (50, 12, 12), (30, 40, 1)])
def test_one_pass_matches_the_2d_walk_for_one_count(rows, N, n):
    u = selection_rejection_table(rows, N, seed=rows + N + n)
    flat = assert_walks_agree(u, n, take_need)
    assert flat.size == rows * n
    table = kernels._walk_rows(np.ascontiguousarray(u.T), n, take_need)
    assert table.tolist() == (flat.reshape(rows, n) - np.arange(rows)[:, None] * N).tolist()
    if n == N:  # every cell is taken
        assert table.tolist() == np.tile(np.arange(N), (rows, 1)).tolist()


@pytest.mark.parametrize("N, n", [(12, 3), (30, 7), (1, 1), (8, 8)])
def test_one_pass_matches_the_2d_walk_for_entry_probabilities(N, n):
    if n < N:
        q = entry_probs(N, n)
    else:  # every unit is forced in
        q = np.ones((N, n + 1))
        q[:, 0] = 0.0
    u = np.random.default_rng(N).random((100, N))
    assert_walks_agree(u, n, lambda k, need: q[k, need])


@pytest.mark.parametrize("rows, width", [(1, 5), (300, 12), (40, 1), (25, 30)])
def test_one_pass_matches_the_2d_walk_with_counts_per_walk_and_pads(rows, width):
    # the stratify rule's table: walk g runs its n_h cells and takes r_h,
    # its cells past n_h padded with inf, which no walk takes
    rng = np.random.default_rng(rows * width)
    n_h = rng.integers(1, width + 1, rows)
    r_h = rng.integers(1, n_h + 1)
    k = np.arange(width)
    u = rng.random((rows, width)) * (n_h[:, None] - k)
    u[k >= n_h[:, None]] = np.inf
    flat = assert_walks_agree(u, r_h, take_need)
    g = np.repeat(np.arange(rows), r_h)
    j = flat - g * width
    assert np.all(j < n_h[g])
    assert np.bincount(g, minlength=rows).tolist() == r_h.tolist()


@pytest.mark.parametrize("cells", [1, 12, 40])
@pytest.mark.parametrize("R", [1, 7, 50])
@pytest.mark.parametrize("n", [1, 12])
@pytest.mark.parametrize("kernel", [kernels.srs_reservoir, kernels.chao_select],
                         ids=lambda k: k.__name__)
def test_reservoir_and_chao_edge_sizes_match_the_scalar_loop(monkeypatch, kernel, n, R, cells):
    # n == N leaves an empty stream, so the flat search has no columns; at
    # 1 and 12 cells every chunk holds one row, at 40 the last of 7 does
    monkeypatch.setattr(kernels, "_CHUNK_CELLS", cells)
    N = 12
    args = (n, N) if kernel is kernels.srs_reservoir else (size_measures(N), n)
    check_kernel(kernel, args, False, R, weights(N), seed=R + n)


def chao_two_uniforms(x, n, rng):
    """Chao's reservoir with a second uniform for the evicted slot: the
    reference for the law of `chao_select`, which reads the slot from the
    uniform that admitted the unit."""
    res = np.arange(n, dtype=np.int64)
    total = 0.0
    for k in range(x.shape[0]):
        total += x[k]
        if k >= n and rng.random() < n * x[k] / total:
            res[min(int(rng.random() * n), n - 1)] = k
    return np.sort(res)


class Scripted:
    """A uniform source that returns the given doubles in turn."""

    def __init__(self, doubles):
        self.random = iter(doubles).__next__


def chao_two_uniforms_law(x, n):
    """The exact set probabilities of `chao_two_uniforms`: it runs once per
    path of its decisions, each stream unit staying out (probability
    1 - p_k) or entering slot j (p_k / n), on uniforms that take that path."""
    prob = n * x[n:] / np.cumsum(x)[n:]
    law = Counter()
    for path in itertools.product(range(-1, n), repeat=prob.size):
        doubles, weight = [], 1.0
        for j, p in zip(path, prob):
            doubles += [p] if j < 0 else [0.0, (j + 0.5) / n]
            weight *= 1 - p if j < 0 else p / n
        law[tuple(chao_two_uniforms(x, n, Scripted(doubles)).tolist())] += weight
    return law


def set_frequencies(table):
    return Counter(map(tuple, np.sort(table, axis=1).tolist()))


def assert_within_6_sigma(table, law):
    R = table.shape[0]
    freq = set_frequencies(table)
    assert set(freq) <= set(law)
    for s, p in law.items():
        assert abs(freq[s] / R - p) < 6 * math.sqrt(p * (1 - p) / R)


LAW_R = 200_000
LAW_MOS = np.array([3.0, 2.0, 4.0, 1.0, 2.5, 1.5])  # no entry probability above 1


@pytest.mark.parametrize("n", [2, 3])
def test_selection_rejection_draws_the_uniform_law(n):
    N = LAW_MOS.size
    table = np.concatenate(list(kernels._mc_rows(
        kernels.srs_selection_rejection, (n, N), N, LAW_R, np.random.default_rng(n))))
    sets = itertools.combinations(range(N), n)
    assert_within_6_sigma(table, {s: 1 / math.comb(N, n) for s in sets})


@pytest.mark.parametrize("n", [2, 3])
def test_chao_draws_the_law_of_the_two_uniform_loop(n):
    N = LAW_MOS.size
    assert np.all(n * LAW_MOS[n:] / np.cumsum(LAW_MOS)[n:] <= 1)
    law = chao_two_uniforms_law(LAW_MOS, n)
    assert math.isclose(math.fsum(law.values()), 1.0)
    table = np.concatenate(list(kernels._mc_rows(
        kernels.chao_select, (LAW_MOS, n), N, LAW_R, np.random.default_rng(n))))
    assert_within_6_sigma(table, law)


# every leaf design, one instance per method, and a frame they all bind on
FRAME_12 = sk.Frame(ids=tuple(map(str, range(12))), mos=np.sort(size_measures(12)))
LEAVES = ([sk.SRS(3, m) for m in SRS_METHODS] + [sk.PPSWR(3, m) for m in PPSWR_METHODS]
          + [sk.SRSWR(3), sk.Bernoulli(0.4), sk.Poisson(tuple(np.linspace(0.2, 0.9, 12))),
             sk.Systematic(3), sk.SystematicPPS(3), sk.Brewer2(), sk.Durbin2(), sk.Chao(3),
             sk.RejectivePoisson(3)])


def test_every_leaf_design_is_listed():
    leaves = {cls for cls in Design.registry.values() if issubclass(cls, _Leaf)}
    assert {type(d) for d in LEAVES} == leaves


@pytest.mark.parametrize("bit_generator", [np.random.PCG64, np.random.Philox],
                         ids=lambda g: g.__name__)
@pytest.mark.parametrize("design", LEAVES, ids=lambda d: d._fields(FRAME_12)["design_tag"])
def test_every_leaf_kernel_batches_on_numpy(design, bit_generator):
    # no design falls back to the scalar Monte Carlo loop, but Lahiri on a
    # stream that cannot be rewound
    kernel, args, _ = design._bind(FRAME_12)
    calls = kernel_calls(kernel, args, design.with_replacement, 5, weights(12),
                         np.random.Generator(bit_generator(1)))
    scalar = kernel is kernels.ppswr_lahiri and bit_generator is np.random.Philox
    assert calls == (5 if scalar else 0)


def test_rejective_monte_carlo_time_budget():
    # R = 1000 replicates of n = 50 from N = 1000 in one batched pass, about
    # 0.1 s on a 2-core VM where the rejective loop took about 5 s
    N = 1000
    x = size_measures(N)
    frame = sk.Frame(ids=tuple(map(str, range(N))), mos=x, y=weights(N))
    design = sk.RejectivePoisson(50)
    start = time.perf_counter()
    hits, _ = design_consistency_mc(design, frame, 1000, np.random.default_rng(2))
    assert time.perf_counter() - start < 2.0
    assert hits.sum() == 1000 * 50


def test_srs_at_the_cli_simulate_shape_time_budget():
    # SRS(50) from N = 1000 at R = 1000, the `simulate` command's shape: the
    # selection-rejection batch takes 30-45 ms in design_consistency_mc and
    # 50-80 ms in monte_carlo on a 2-core VM
    N = 1000
    frame = sk.Frame(ids=tuple(map(str, range(N))), mos=size_measures(N), y=weights(N))
    design = sk.SRS(50)
    start = time.perf_counter()
    hits, _ = design_consistency_mc(design, frame, 1000, np.random.default_rng(2))
    assert time.perf_counter() - start < 1.0
    assert hits.sum() == 1000 * 50
    start = time.perf_counter()
    out = monte_carlo(design, frame, lambda s: ht_total(s, s.y_values()).value, 1000, 2)
    assert time.perf_counter() - start < 1.0
    assert out["replicates"].shape == (1000,)
