"""Exact-enumeration and Monte Carlo verification harness."""

import math

import numpy as np

from .core import Sample, enumerate_design, first_order_pips
from .design import Design, DesignError, RngStream, as_generator

__all__ = ["exact_expectation", "monte_carlo", "sample_from_ids"]


def sample_from_ids(frame, ids, pips):
    """Build the Sample a design would report for a given realized id set,
    using the design's first-order inclusion probabilities."""
    idx = np.asarray(sorted(frame.index_of(u) for u in ids), dtype=np.int64)
    return Sample(frame, idx, np.asarray(pips.first_order)[idx])


def exact_expectation(design, frame, statistic, cap=None):
    """Exact mean and design variance of a statistic over an enumerable
    design: sum_A P(A) stat(A) and the matching second moment.  The design
    is enumerated once; the statistic gets, for each support set in support
    order, the Sample `sample_from_ids` would build, taken straight from the
    support's index table with Sample's checks made once for all sets."""
    kwargs = {} if cap is None else {"cap": cap}
    dist = enumerate_design(design, frame, **kwargs)
    pips = first_order_pips(design, frame)
    rows, prob = dist._table()
    mean_terms, sq_terms = [], []
    for s, p in zip(Sample._of_rows(frame, rows, pips.first_order), prob.tolist()):
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

    Leaf designs run through one batched call (`kernels.mc_draws`) over
    the kernel, checks and weights that `select` uses.
    On numpy, every kernel but Lahiri's takes a fixed uniform count
    (selection-rejection SRS one per unit, Chao one per stream unit,
    rejective Poisson's sequential draw one per unit), and draws each chunk
    of replicates from one uniform block on any bit generator, with the
    same draws, totals and stream position as the scalar replicate loop.
    Brewer's and Durbin's second draws, whose weights depend on the first,
    search the running totals of all of a chunk's distinct first units at
    once.
    Lahiri PPSWR, whose count is random, runs on speculative blocks of a
    PCG64 stream that are then rewound to the doubles used, with the same
    result; other bit generators keep the scalar loop for it.  Stratified
    and one-stage cluster designs combine their children's batches.
    Two-stage and two-phase designs compose them through `Design.mc_rows`,
    which tells which replicate drew which units: a two-stage batch draws
    the PSU rows, then one SSU batch per cluster over the replicates that
    drew it; a two-phase batch draws the phase-1 rows, then its rule's
    batched form (`mc_cond`; the keep-all and stratify rules have one).
    The stratify rule draws every (stratum, n_h, replicate) group by
    selection-rejection in one walk over one block of uniforms.
    These keep the design's law, but only a one-replicate batch draws what
    one `select` draws.  A two-phase design whose rule has no batched form
    runs the generic selection loop (`Design.mc_batch`)."""
    Design.require(design, DesignError, "cannot select from {}")
    return design.mc_batch(frame, R, as_generator(rng))


def monte_carlo(design, frame, estimator, R, seed, stream=0):
    """R independent replications of (draw, estimate); deterministic given
    the seed, with per-replicate substreams so parallel scheduling cannot
    change the result.  Accumulation is compensated, so merge order does
    not matter either.

    The Samples come from `Design.mc_samples`, replicate r's the one
    `select` draws from substream r.  A leaf design draws them in batches:
    its kernel's batched form takes row r of each block of uniforms from
    replicate r's own substream (`kernels._fixed_form`), so the values are
    the select loop's, bit for bit.  Nested designs, Lahiri PPSWR and the
    numba backend run the select loop itself."""
    if R < 2:
        raise ValueError("need at least two replicates")
    Design.require(design, DesignError, "cannot select from {}")
    values = np.empty(R)
    for r, sample in enumerate(design.mc_samples(frame, R, RngStream(seed, stream))):
        values[r] = float(estimator(sample))
    mean = math.fsum(values) / R
    var = math.fsum((v - mean) ** 2 for v in values) / (R - 1)
    return {
        "mean": mean,
        "var": var,
        "se_of_mean": math.sqrt(var / R),
        "replicates": values,
    }
