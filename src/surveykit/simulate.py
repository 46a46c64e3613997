"""Exact-enumeration and Monte Carlo verification harness."""

import math

import numpy as np

from .core import Sample, enumerate_design, first_order_pips
from .design import Design, DesignError, RngStream, as_generator
from .designs import select

__all__ = ["exact_expectation", "monte_carlo", "sample_from_ids"]


def sample_from_ids(frame, ids, pips):
    """Build the Sample a design would report for a given realized id set,
    using the design's first-order inclusion probabilities."""
    idx = np.asarray(sorted(frame.index_of(u) for u in ids), dtype=np.int64)
    return Sample(frame, idx, np.asarray(pips.first_order)[idx])


def exact_expectation(design, frame, statistic, cap=None):
    """Exact mean and design variance of a statistic over an enumerable
    design: sum_A P(A) stat(A) and the matching second moment."""
    kwargs = {} if cap is None else {"cap": cap}
    dist = enumerate_design(design, frame, **kwargs)
    pips = first_order_pips(design, frame)
    mean_terms, sq_terms = [], []
    for ids, p in dist:
        s = sample_from_ids(frame, ids, pips)
        value = float(statistic(s))
        mean_terms.append(p * value)
        sq_terms.append(p * value * value)
    mean = math.fsum(mean_terms)
    var = math.fsum(sq_terms) - mean * mean
    return {"mean": mean, "variance": var, "support_size": len(dist)}


def design_consistency_mc(design, frame, R, rng):
    """Fast replication loop for checking a design's first-order inclusion
    frequencies and HT-estimator mean: returns (hits, values) where hits
    counts distinct appearances per unit over R replicates and values holds
    the replicate HT (or Hansen-Hurwitz) totals of the frame's y.

    Leaf designs run through one batched call (`kernels.mc_draws` or
    `mc_poisson`) over the kernel, checks and weights that `select` uses.
    On numpy, kernels with a fixed uniform count draw each chunk of
    replicates from one uniform block, with the same draws, totals and
    stream position as the scalar replicate loop.  Stratified and one-stage
    cluster designs combine their children's batches; two-stage and
    two-phase designs fall back to the generic selection loop
    (`Design.mc_batch`)."""
    Design.require(design, DesignError, "cannot select from {}")
    return design.mc_batch(frame, R, as_generator(rng))


def monte_carlo(design, frame, estimator, R, seed, stream=0):
    """R independent replications of (draw, estimate); deterministic given
    the seed, with per-replicate substreams so parallel scheduling cannot
    change the result.  Accumulation is compensated, so merge order does
    not matter either."""
    if R < 2:
        raise ValueError("need at least two replicates")
    base = RngStream(seed, stream)
    values = np.empty(R)
    for r in range(R):
        rng = base.substream(r)
        values[r] = float(estimator(select(design, frame, rng)))
    mean = math.fsum(values) / R
    var = math.fsum((v - mean) ** 2 for v in values) / (R - 1)
    return {
        "mean": mean,
        "var": var,
        "se_of_mean": math.sqrt(var / R),
        "replicates": values,
    }
