"""Batched Monte Carlo parity without numba: on the numpy backend every
kernel with a fixed uniform count runs R replicates from one uniform block
per chunk, and `mc_poisson` does the same.  Hits, replicate values and the
Generator state afterwards must equal the scalar reference loops bit for
bit, because a block of rng.random((rows, k)) holds exactly the doubles of
rows * k scalar calls."""

import functools

import numpy as np
import pytest

import surveykit as sk
from surveykit import kernels
from surveykit.design import RngStream
from surveykit.simulate import design_consistency_mc

pytestmark = pytest.mark.skipif(
    sk.ACTIVE_BACKEND != "numpy", reason="batched forms run on the numpy backend")


def size_measures(N, seed=5):
    return np.round(np.random.default_rng(seed).uniform(1.0, 4.0, N), 3)


def weights(N, seed=6):
    return np.random.default_rng(seed).normal(8.0, 3.0, N)


def n2_probs(N):
    x = size_measures(N)
    return x / x.sum()


def bindings(N, n):
    """(label, kernel, args, with_replacement) of every batched kernel on a
    frame of N units and sample size n."""
    x = size_measures(N)
    return [
        ("srs_draw_by_draw", kernels.srs_draw_by_draw, (n, N), False),
        ("srs_reservoir", kernels.srs_reservoir, (n, N), False),
        ("srs_random_sort", kernels.srs_random_sort, (n, N), False),
        ("srswr_draws", kernels.srswr_draws, (n, N), True),
        ("systematic_select", kernels.systematic_select, (N, N // n), False),
        ("systematic_pps_select", kernels.systematic_pps_select, (x, n), False),
        ("ppswr_cumulative", kernels.ppswr_cumulative, (np.cumsum(x), n), True),
        ("brewer2_select", kernels.brewer2_select, (n2_probs(N),), False),
        ("durbin2_select", kernels.durbin2_select, (n2_probs(N),), False),
    ]


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
        lambda rng: kernels._mc_draws_loop(kernel, args, with_replacement, R, wvec, rng),
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


@pytest.mark.parametrize("R", [1, 7, 1000])
@pytest.mark.parametrize("N", [12, 1000])
def test_mc_poisson_matches_scalar_loop(N, R):
    pi = np.clip(sk.compute_pips(size_measures(N), N // 4), 0.05, 1.0)
    wvec = weights(N) / pi
    assert_same_run(lambda rng: kernels.mc_poisson(pi, R, wvec, rng),
                    lambda rng: kernels._mc_poisson_loop(pi, R, wvec, rng), seed=R)


def test_mc_poisson_spanning_several_chunks(monkeypatch):
    monkeypatch.setattr(kernels, "_CHUNK_CELLS", 30)
    pi = np.linspace(0.1, 0.9, 12)
    wvec = weights(12) / pi
    assert_same_run(lambda rng: kernels.mc_poisson(pi, 101, wvec, rng),
                    lambda rng: kernels._mc_poisson_loop(pi, 101, wvec, rng), seed=9)


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
                    lambda rng: kernels._mc_draws_loop(kernels.srs_reservoir, (4, 12),
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
        hits, vals = np.zeros(N), np.zeros(R)
        for kernel, args, idx in ((kernels.srs_reservoir, (2, 6), np.arange(6)),
                                  (kernels.systematic_select, (6, 3), np.arange(6, 12))):
            pi = 2 / 6 if kernel is kernels.srs_reservoir else 1 / 3
            h, v = kernels._mc_draws_loop(kernel, args, False, R, y[idx] / pi, rng)
            hits[idx] += h
            vals += v
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
