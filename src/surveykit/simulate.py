"""Exact-enumeration and Monte Carlo verification harness."""

import itertools
import math

import numpy as np

from .core import Sample, enumerate_design, first_order_pips
from .design import Design, DesignError, RngStream, as_generator
from .kernels import _check_replicates, _chunks

__all__ = ["exact_expectation", "monte_carlo", "sample_from_ids"]


def sample_from_ids(frame, ids, pips):
    """The Sample of a realized id set with the design's first-order
    inclusion probabilities: idx and pi only, none of `Design._fields`."""
    idx = np.asarray(sorted(frame.index_of(u) for u in ids), dtype=np.int64)
    return Sample(frame, idx, np.asarray(pips.first_order)[idx])


def exact_expectation(design, frame, statistic, cap=None):
    """Exact mean and design variance of a statistic over an enumerable
    design: sum_A P(A) stat(A) and the central second moment.  The design
    is enumerated once; the statistic gets, for each set in support order,
    the Sample a draw of that set builds (`Design._fields`), taken from the
    support's index table block by block (`kernels._chunks`), each block
    with its own gathered pi table, so the extra memory is one block's."""
    kwargs = {} if cap is None else {"cap": cap}
    dist = enumerate_design(design, frame, **kwargs)
    rows, prob = dist._table()
    pi = np.append(first_order_pips(design, frame).first_order, 1.0)  # the pads N read 1.0
    tops = list(itertools.accumulate(_chunks(len(rows), rows.shape[1]), initial=0))
    blocks = [rows[a:b] for a, b in zip(tops, tops[1:])]
    if not (pi.min() > 0 and pi.max() <= 1 + 1e-12):
        # before the statistic sees a set, the first set that uses a bad
        # unit raises: a block's first Sample makes _of_rows check the block
        for block in blocks:
            next(Sample._of_rows(frame, block, pi[block]), None)
    samples = itertools.chain.from_iterable(
        Sample._of_rows(frame, block, pi[block], **design._fields(frame)) for block in blocks)
    values = np.array([float(statistic(s)) for s in samples])
    # central moments, as a per-set loop adds p * v, then p * d * d for d = v - mean
    mean = math.fsum((prob * values).tolist())
    var = math.fsum((prob * (values - mean) * (values - mean)).tolist())
    return {"mean": mean, "variance": var, "support_size": len(dist)}


def design_consistency_mc(design, frame, R, rng):
    """Fast replication loop for checking a design's first-order inclusion
    frequencies and HT-estimator mean: returns (hits, values) where hits
    counts distinct appearances per unit over R replicates and values holds
    the replicate HT (or Hansen-Hurwitz) totals of the frame's y.  R must
    be an integer of at least 0.

    The batch is `Design.mc_batch`, all R replicates on the one Generator:
    a leaf design repeats the draws, totals and stream position of the
    scalar replicate loop, and a nested design composes its children's
    `mc_rows`, which keeps the design's law.  A one-replicate batch is what
    one `select` draws."""
    _check_replicates(R, 0)
    Design.require(design, DesignError, "cannot select from {}")
    return design.mc_batch(frame, R, as_generator(rng))


def monte_carlo(design, frame, estimator, R, seed, stream=0):
    """R independent replications of (draw, estimate); deterministic given
    the seed, with per-replicate substreams so parallel scheduling cannot
    change the result.  Accumulation is compensated, so merge order does
    not matter either.  R must be an integer of at least 2.

    The Samples come from `Design.mc_samples`, replicate r's the one
    `select` draws from substream r, so the values are the select loop's,
    bit for bit; the list of substreams is the designs' per-replicate
    source (see the README's RNG contract)."""
    _check_replicates(R, 2)
    Design.require(design, DesignError, "cannot select from {}")
    values = [float(estimator(s)) for s in design.mc_samples(frame, R, RngStream(seed, stream))]
    mean = math.fsum(values) / R
    # ** 2 of a float is libm's pow, as it is of a numpy float64; an
    # array's ** 2 squares by multiplying, which rounds differently
    var = math.fsum([(v - mean) ** 2 for v in values]) / (R - 1)
    return {
        "mean": mean,
        "var": var,
        "se_of_mean": math.sqrt(var / R),
        "replicates": np.array(values),
    }
