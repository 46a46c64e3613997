"""Declarative sampling designs.  Each design class owns its behaviour: the
draw, the inclusion probabilities, the exact support, the Monte Carlo batch
and the document form (see `Design`)."""

import itertools
import json
import math
from dataclasses import dataclass, field, fields
from pathlib import Path

import numpy as np

from . import core, kernels
from .core import (
    DesignDistribution,
    InclusionProbs,
    NonEnumerableError,
    NonProbabilityDesignError,
    Sample,
    SupportTooLargeError,
    compute_pips,
    conditional_poisson_pips,
)
from .estimators import ht_total
from .frame import Frame

__all__ = [
    "Design", "SRS", "SRSWR", "Bernoulli", "Poisson", "Systematic",
    "SystematicPPS", "PPSWR", "Brewer2", "Durbin2", "Chao",
    "RejectivePoisson", "Stratified", "OneStageCluster", "TwoStage",
    "TwoPhase", "Phase2Rule", "KeepAll", "StratifyOnAux", "PoissonOnAux",
    "RngStream", "DesignError", "load_design", "design_to_dict",
]

SRS_METHODS = ("draw_by_draw", "selection_rejection", "reservoir", "random_sort")
PPSWR_METHODS = ("cumulative", "lahiri")
_ABOVE_CERTAINTY = "certainty units must be pre-extracted via compute_pips"


class DesignError(ValueError):
    pass


@dataclass(frozen=True)
class RngStream:
    """Reproducible random stream: identical (seed, stream) gives identical
    draws; distinct streams are independent by SeedSequence construction."""

    seed: int
    stream: int = 0

    def generator(self):
        ss = np.random.SeedSequence(entropy=self.seed, spawn_key=(self.stream,))
        return np.random.Generator(np.random.PCG64(ss))

    def substream(self, k):
        ss = np.random.SeedSequence(entropy=self.seed, spawn_key=(self.stream, k))
        return np.random.Generator(np.random.PCG64(ss))


def as_generator(rng):
    if isinstance(rng, np.random.Generator):
        return rng
    if isinstance(rng, RngStream):
        return rng.generator()
    if isinstance(rng, (int, np.integer)):
        return RngStream(int(rng)).generator()
    raise DesignError(f"cannot interpret {rng!r} as a random generator")


# ---------------------------------------------------------------------------
# Document form, driven by the dataclass fields: {key: {field: value}}, with
# None fields left out, tuples written as lists, mapping fields as objects
# and nested designs or rules as documents of their own.

def _mapping(of, **kwargs):
    """A field of ((label, value), ...) pairs with string labels, built from
    any mapping and written as {label: value}; `of` reads each value back."""
    return field(metadata={"mapping": of}, **kwargs)


def _write(value, mapping):
    if mapping:
        return {label: _write(v, False) for label, v in value}
    if isinstance(value, _Document):
        return value.to_dict()
    if isinstance(value, tuple):
        return list(value)
    if callable(value):
        raise DesignError(f"cannot serialize {value!r}")
    return value


def _read(kind, value, mapping):
    if mapping:
        if not isinstance(value, dict):
            raise DesignError(f"expected a {{label: spec}} object, got {value!r}")
        return tuple((label, _read(kind, v, False)) for label, v in value.items())
    if isinstance(kind, type) and issubclass(kind, _Document):
        return kind.from_dict(value)
    return kind(value) if kind in (int, float, tuple) and value is not None else value


class _Document:
    key = None      # the variant key of the document
    inline = None   # a field whose value is the whole document body

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        if cls.key is not None:
            cls.registry[cls.key] = cls

    def __post_init__(self):
        for f in fields(self):
            value = getattr(self, f.name)
            if "mapping" in f.metadata and value is not None:
                object.__setattr__(self, f.name, tuple(
                    (str(label), v) for label, v in dict(value).items()))

    def to_dict(self):
        body = {f.name: _write(getattr(self, f.name), "mapping" in f.metadata)
                for f in fields(self) if getattr(self, f.name) is not None}
        return {self.key: body[self.inline] if self.inline else body}

    @classmethod
    def from_dict(cls, doc):
        if not isinstance(doc, dict) or len(doc) != 1:
            raise DesignError(f"{cls.noun} document must hold exactly one variant key")
        (key, body), = doc.items()
        variant = cls.registry.get(key)
        if variant is None:
            raise DesignError(f"unknown {cls.noun} variant {key!r}")
        if variant.inline:
            body = {variant.inline: body}
        try:
            unknown = set(body or ()) - {f.name for f in fields(variant)}
            if unknown:
                raise DesignError(f"bad {key} spec: unknown fields {sorted(unknown)}")
            return variant(**{
                f.name: _read(f.metadata.get("mapping", f.type), body[f.name],
                              "mapping" in f.metadata)
                for f in fields(variant) if f.name in body})
        except DesignError:
            raise
        except (KeyError, TypeError, ValueError) as exc:
            raise DesignError(f"bad {key} spec: {exc}") from exc


class Design(_Document):
    """Base class of every sampling design.  The protocol, one method each:

    first_order(frame)      InclusionProbs of every frame unit (draw
                            probabilities for with-replacement designs)
    joint(frame, cap)       InclusionProbs with the joint matrix
    support(frame, cap)     DesignDistribution: the exact sampling law
    draw(frame, rng)        one Sample, rng a numpy Generator
    mc_batch(frame, R, rng) (hits, values) over R replicates: appearances
                            per unit and the HT (or Hansen-Hurwitz) totals of
                            the frame's y
    to_dict() / from_dict   the document form, {key: {field: value}}

    A leaf design (`_Leaf`) supplies its kernel binding instead of `draw`
    and `mc_batch`, which both follow from it.  Defaults: `joint` builds the
    matrix from the support, `first_order` and `support` raise
    NonEnumerableError, and `mc_batch` loops over `designs.select`.  The
    public entry points (`core.first_order_pips`, `joint_pips`,
    `enumerate_design`, `designs.select`, `simulate.design_consistency_mc`)
    delegate here, and nested designs reach their children through those
    entry points.
    """

    registry = {}
    noun = "design"

    @staticmethod
    def require(obj, error, message):
        """The guard of the public entry points: raise error(message), with
        {} filled by the type name, unless obj is a Design."""
        if not isinstance(obj, Design):
            raise error(message.format(type(obj).__name__))

    def first_order(self, frame):
        raise NonEnumerableError("no closed-form inclusion probabilities for "
                                 + type(self).__name__)

    def joint(self, frame, cap):
        first = self.first_order(frame).first_order
        pij = core.enumerate_design(self, frame, cap=cap).joint()
        off = pij[~np.eye(frame.n_units, dtype=bool)]
        return InclusionProbs(first, pij, measurable=bool(np.all(off > 0)))

    def support(self, frame, cap):
        raise NonEnumerableError(f"{type(self).__name__} designs cannot be enumerated")

    def draw(self, frame, rng):
        raise NotImplementedError(f"{type(self).__name__} has no draw")

    def mc_batch(self, frame, R, rng):
        y = frame.y_column()
        hits = np.zeros(frame.n_units)
        vals = np.empty(R)
        for r in range(R):
            s = designs.select(self, frame, rng)
            hits[s.idx] += 1
            vals[r] = ht_total(s, y[s.idx]).value
        return hits, vals


class _Leaf(Design):
    """A design drawn by one kernel call.  `_bind(frame)` runs every check
    the design makes on the frame and returns its kernel binding

        (kernel, args, p, tag)

    where kernel(*args, rng) draws one sample's frame indices (every draw,
    repeats included, for with-replacement designs), p holds each unit's
    inclusion probability (draw probability with replacement) and tag is
    the Sample's design tag.  `draw` and `mc_batch` follow from the
    binding, so a Monte Carlo replicate is exactly one `select`."""

    with_replacement = False
    flags = ()

    def draw(self, frame, rng):
        return self._sample(frame, self._bind(frame), rng)

    def _sample(self, frame, binding, rng):
        kernel, args, p, tag = binding
        idx = kernel(*args, rng)
        if not self.with_replacement:
            return Sample(frame, idx, p[idx], design_tag=tag, flags=self.flags)
        idx, mult = np.unique(idx, return_counts=True)
        return Sample(frame, idx, p[idx], multiplicity=mult, with_replacement=True,
                      design_tag=tag, flags=self.flags)

    def mc_batch(self, frame, R, rng):
        kernel, args, p, _ = self._bind(frame)
        y = frame.y_column()
        wvec = y / (self.n * p) if self.with_replacement else y / p
        return kernels.mc_draws(kernel, args, self.with_replacement, R, wvec, rng)


class _Sized(_Leaf):
    """A design with a fixed sample size (or number of draws) n >= 1."""

    def __post_init__(self):
        if self.n < 1:
            raise DesignError(f"{type(self).__name__} needs n >= 1")


@dataclass(frozen=True)
class SRS(_Sized):
    """All four methods draw from the uniform law over n-subsets."""

    n: int
    method: str = "selection_rejection"
    key = "srs"

    def __post_init__(self):
        if self.method not in SRS_METHODS:
            raise DesignError(f"unknown SRS method {self.method!r}")
        super().__post_init__()

    def first_order(self, frame):
        N = frame.n_units
        _check_srs_size(self.n, N)
        return InclusionProbs(np.full(N, self.n / N))

    def joint(self, frame, cap):
        first = self.first_order(frame).first_order
        N, n = frame.n_units, self.n
        pij = np.full((N, N), n * (n - 1) / (N * (N - 1)) if N > 1 else 1.0)
        np.fill_diagonal(pij, n / N)
        return InclusionProbs(first, pij)

    def support(self, frame, cap):
        N, ids = frame.n_units, frame.ids
        _check_srs_size(self.n, N)
        _check_cap(math.comb(N, self.n), cap)
        prob = 1.0 / math.comb(N, self.n)
        entries = [(tuple(ids[i] for i in combo), prob)
                   for combo in itertools.combinations(range(N), self.n)]
        return DesignDistribution(_sorted_support(entries), frame)

    def _bind(self, frame):
        N = frame.n_units
        _check_srs_size(self.n, N)
        return (getattr(kernels, f"srs_{self.method}"), (self.n, N), np.full(N, self.n / N),
                f"srs:{self.method}")


@dataclass(frozen=True)
class SRSWR(_Sized):
    """n independent draws, each with draw probability 1/N; multiplicities
    are recorded."""

    n: int
    key = "srswr"
    with_replacement = True

    def first_order(self, frame):
        N = frame.n_units
        return InclusionProbs(np.full(N, 1.0 / N), kind="draw_prob")

    def _bind(self, frame):
        return (kernels.srswr_draws, (self.n, frame.n_units),
                self.first_order(frame).first_order, "srswr")


class _Independent(Design):
    """Independent inclusion with probabilities `first_order`; the realized
    sample size is random."""

    def joint(self, frame, cap):
        pi = self.first_order(frame).first_order
        pij = np.outer(pi, pi)
        np.fill_diagonal(pij, pi)
        return InclusionProbs(pi, pij)

    def support(self, frame, cap):
        N, ids = frame.n_units, frame.ids
        pi = self.first_order(frame).first_order
        _check_cap(2 ** N, cap)
        entries = [(tuple(ids[i] for i in combo), _poisson_prob(combo, pi))
                   for r in range(N + 1) for combo in itertools.combinations(range(N), r)]
        return DesignDistribution(_sorted_support([e for e in entries if e[1] > 0]), frame)

    def draw(self, frame, rng):
        pi = self.first_order(frame).first_order
        idx = np.nonzero(kernels.poisson_select(pi, rng))[0].astype(np.int64)
        return Sample(frame, idx, pi[idx], design_tag=self.key)

    def mc_batch(self, frame, R, rng):
        pi = self.first_order(frame).first_order
        return kernels.mc_poisson(pi, R, frame.y_column() / pi, rng)


@dataclass(frozen=True)
class Bernoulli(_Independent):
    pi: float
    key = "bernoulli"

    def __post_init__(self):
        if not 0 < self.pi <= 1:
            raise DesignError("Bernoulli inclusion probability must be in (0, 1]")

    def first_order(self, frame):
        return InclusionProbs(np.full(frame.n_units, float(self.pi)))


@dataclass(frozen=True)
class Poisson(_Independent):
    pi: tuple
    key = "poisson"

    def __post_init__(self):
        pi = tuple(float(p) for p in np.atleast_1d(self.pi))
        if any(not 0 < p <= 1 for p in pi):
            raise DesignError("Poisson inclusion probabilities must be in (0, 1]")
        object.__setattr__(self, "pi", pi)

    def first_order(self, frame):
        pi = np.asarray(self.pi, dtype=float)
        if pi.size != frame.n_units:
            raise ValueError("Poisson design needs one probability per frame unit")
        return InclusionProbs(pi)


@dataclass(frozen=True)
class Systematic(_Sized):
    """Every G-th unit from a random start, G = floor(N/n); the realized
    size is n or n+1 depending on the start, and pi = 1/G for every unit."""

    n: int
    key = "systematic"

    def _interval(self, N):
        if self.n >= N:
            raise ValueError("systematic sampling needs n < N")
        return N // self.n

    def first_order(self, frame):
        N = frame.n_units
        return InclusionProbs(np.full(N, 1.0 / self._interval(N)))

    def support(self, frame, cap):
        N, ids = frame.n_units, frame.ids
        G = self._interval(N)
        entries = [(tuple(ids[r + k * G] for k in range((N - 1 - r) // G + 1)), 1.0 / G)
                   for r in range(G)]
        return DesignDistribution(_sorted_support(entries), frame)

    def _bind(self, frame):
        N = frame.n_units
        G = self._interval(N)
        return kernels.systematic_select, (N, G), np.full(N, 1.0 / G), "systematic"


@dataclass(frozen=True)
class SystematicPPS(_Sized):
    """Systematic pi-ps in frame order; certainty units must be extracted
    with compute_pips first."""

    n: int
    key = "systematic_pps"

    def first_order(self, frame):
        pi = self.n * frame.mos / frame.mos.sum()
        _name_zero_units(pi, frame)
        if np.any(pi > 1 + 1e-12):
            raise ValueError(_ABOVE_CERTAINTY)
        return InclusionProbs(pi)

    def _interval(self, x):
        a = x.sum() / self.n
        if np.any(x > a + 1e-12):
            raise ValueError(_ABOVE_CERTAINTY)
        return a

    def support(self, frame, cap):
        n, x = self.n, frame.mos
        a = self._interval(x)
        bounds = np.concatenate([[0.0], np.cumsum(x)])
        cuts = sorted({round(float(b % a), 15) for b in bounds} | {0.0, float(a)})
        entries = {}
        for lo, hi in zip(cuts[:-1], cuts[1:]):
            if hi - lo <= 1e-15:
                continue
            start = 0.5 * (lo + hi)
            chosen = []
            j = 0
            upper = x[0]
            for k in range(n):
                pos = start + k * a
                while pos > upper:
                    j += 1
                    upper += x[j]
                chosen.append(j)
            key = tuple(sorted(frame.ids[i] for i in chosen))
            entries[key] = entries.get(key, 0.0) + (hi - lo) / a
        return DesignDistribution(tuple(sorted(entries.items())), frame)

    def _bind(self, frame):
        x = frame.mos
        self._interval(x)
        _name_zero_units(x, frame)
        return (kernels.systematic_pps_select, (x, self.n), self.n * x / x.sum(),
                "systematic_pips")


@dataclass(frozen=True)
class PPSWR(_Sized):
    """n independent draws with P(draw = i) proportional to the measure of
    size."""

    n: int
    method: str = "cumulative"
    bound: float = None  # Lahiri upper bound M > max mos
    key = "ppswr"
    with_replacement = True

    def __post_init__(self):
        if self.method not in PPSWR_METHODS:
            raise DesignError(f"unknown PPSWR method {self.method!r}")
        super().__post_init__()

    def first_order(self, frame):
        p = frame.mos / frame.mos.sum()
        _name_zero_units(p, frame)
        return InclusionProbs(p, kind="draw_prob")

    def _bind(self, frame, mos=None):
        """The binding with sizes `mos`, which need not be the frame's and
        may hold zeros (units never drawn); the frame's own sizes may not,
        as in `first_order`."""
        x = np.asarray(frame.mos if mos is None else mos, dtype=float)
        if np.any(x < 0):
            raise ValueError("measure of size must be nonnegative")
        if x.sum() <= 0:
            raise ValueError("measure of size sums to zero")
        if mos is None:
            _name_zero_units(x, frame)
        kernel = getattr(kernels, f"ppswr_{self.method}")
        args = getattr(self, f"_{self.method}_args")(x)
        return kernel, args, x / x.sum(), f"ppswr:{self.method}"

    def _cumulative_args(self, x):
        return np.cumsum(x), self.n

    def _lahiri_args(self, x):
        bound = self.bound
        if bound is None:
            bound = float(x.max()) * (1 + 1e-12) if float(x.max()) > 0 else 1.0
        if bound <= x.max():
            raise ValueError("Lahiri bound must exceed every measure of size")
        return x, float(bound), self.n


class _N2(_Leaf):
    """Fixed size n = 2 with draw probabilities p = mos / sum(mos), every p
    below 1/2 (extract certainty units with compute_pips first)."""

    def first_order(self, frame):
        p = _n2_draw_probs(frame.mos)
        _name_zero_units(p, frame)
        return InclusionProbs(2 * p)

    def joint(self, frame, cap):
        first = self.first_order(frame).first_order
        return InclusionProbs(first, _brewer_joint(_n2_draw_probs(frame.mos)))

    def support(self, frame, cap):
        p = _n2_draw_probs(frame.mos)
        ids = frame.ids
        theta, cond = self._two_draws(p)
        entries = [((ids[i], ids[j]), theta[i] * cond(i, j) + theta[j] * cond(j, i))
                   for i in range(p.size) for j in range(i + 1, p.size)]
        return DesignDistribution(_sorted_support(entries), frame)

    def _bind(self, frame):
        p = _n2_draw_probs(frame.mos)
        _name_zero_units(p, frame)
        return getattr(kernels, f"{self.key}_select"), (p,), 2 * p, self.key


@dataclass(frozen=True)
class Brewer2(_N2):
    key = "brewer2"

    def _two_draws(self, p):
        """First-draw probabilities and P(second = j | first = i)."""
        theta = p * (1 - p) / (1 - 2 * p)
        return theta / theta.sum(), lambda i, j: p[j] / (1 - p[i])


@dataclass(frozen=True)
class Durbin2(_N2):
    key = "durbin2"

    def _two_draws(self, p):
        """First-draw probabilities and P(second = j | first = i)."""
        N = p.size
        cond_raw = lambda i, j: p[j] * (1 / (1 - 2 * p[i]) + 1 / (1 - 2 * p[j]))
        norms = np.array(
            [math.fsum(cond_raw(i, j) for j in range(N) if j != i) for i in range(N)]
        )
        return p.copy(), lambda i, j: cond_raw(i, j) / norms[i]


@dataclass(frozen=True)
class Chao(_Sized):
    """Streaming reservoir with unequal probabilities; not enumerable."""

    n: int
    key = "chao"

    def first_order(self, frame):
        n, x, total = self.n, frame.mos, frame.mos.sum()
        _check_srs_size(n, frame.n_units)
        _name_zero_units(x, frame)
        pi = n * x / total
        pi[:n] = x[:n].sum() / total
        return InclusionProbs(pi)

    def _bind(self, frame):
        pi = self.first_order(frame).first_order
        x = frame.mos
        if np.any(self.n * x[self.n:] / np.cumsum(x)[self.n:] > 1 + 1e-12):
            raise ValueError(_ABOVE_CERTAINTY)
        return kernels.chao_select, (x, self.n), pi, "chao"


@dataclass(frozen=True)
class RejectivePoisson(_Sized):
    """Poisson resampled until the target size comes up.  Sample.pi is the
    exact conditional-Poisson marginal, which only approximates the working
    probabilities."""

    n: int
    working_pi: tuple = None  # defaults to compute_pips(mos, n)
    max_tries: int = 1_000_000
    key = "rejective_poisson"
    flags = ("pi_is_conditional_marginal",)

    def __post_init__(self):
        super().__post_init__()
        if self.working_pi is not None:
            object.__setattr__(self, "working_pi",
                               tuple(float(p) for p in np.atleast_1d(self.working_pi)))

    def _working(self, frame):
        if self.working_pi is not None:
            work = np.asarray(self.working_pi, dtype=float)
            if work.size != frame.n_units:
                raise ValueError("working probabilities must cover the frame")
        else:
            work = compute_pips(frame.mos, self.n)
        if np.any(work >= 1):
            raise ValueError("rejective sampling needs working probabilities below 1")
        return work

    def first_order(self, frame):
        return InclusionProbs(conditional_poisson_pips(self._working(frame), self.n))

    def support(self, frame, cap):
        N, ids = frame.n_units, frame.ids
        work = self._working(frame)
        _check_cap(math.comb(N, self.n), cap)
        entries = [(tuple(ids[i] for i in combo), _poisson_prob(combo, work))
                   for combo in itertools.combinations(range(N), self.n)]
        total = math.fsum(p for _, p in entries)
        entries = [(s, p / total) for s, p in entries]
        return DesignDistribution(_sorted_support(entries), frame)

    def _bind(self, frame):
        work = self._working(frame)
        return (kernels.rejective_poisson_select, (work, self.n, self.max_tries),
                conditional_poisson_pips(work, self.n), "rejective_poisson")

    def _ran_out(self):
        return RuntimeError(f"rejective sampling failed after {self.max_tries} tries")

    def draw(self, frame, rng):
        sample = super().draw(frame, rng)
        if sample.idx.size == 0:  # the kernel ran out of tries
            raise self._ran_out()
        return sample

    def mc_batch(self, frame, R, rng):
        hits, vals = super().mc_batch(frame, R, rng)
        if hits.sum() < R * self.n:  # a replicate ran out of tries
            raise self._ran_out()
        return hits, vals


@dataclass(frozen=True)
class Stratified(Design):
    """Independent draws within each stratum; the union is the sample."""

    designs: tuple = _mapping(Design)  # ((stratum label, child design), ...)
    key = "stratified"
    inline = "designs"

    def child(self, label):
        for key, d in self.designs:
            if key == label:
                return d
        raise DesignError(f"stratum {label!r} has no design")

    def first_order(self, frame):
        pi = np.empty(frame.n_units)
        for label, idx in frame.strata():
            pi[idx] = core.first_order_pips(self.child(label), frame.restrict(idx)).first_order
        return InclusionProbs(pi)

    def joint(self, frame, cap):
        pi = self.first_order(frame).first_order
        pij = np.outer(pi, pi)  # independence across strata
        measurable = True
        for label, idx in frame.strata():
            child = core.joint_pips(self.child(label), frame.restrict(idx), cap=cap)
            pij[np.ix_(idx, idx)] = child.joint
            measurable &= child.measurable
        return InclusionProbs(pi, pij, measurable=measurable)

    def support(self, frame, cap):
        parts = []
        size = 1
        for label, idx in frame.strata():
            child = core.enumerate_design(self.child(label), frame.restrict(idx), cap=cap)
            parts.append(child.support)
            size *= len(child.support)
            _check_cap(size, cap)
        entries = [(tuple(itertools.chain.from_iterable(s for s, _ in combo)),
                    math.prod(p for _, p in combo))
                   for combo in itertools.product(*parts)]
        return DesignDistribution(_sorted_support(entries), frame)

    def draw(self, frame, rng):
        parts = []
        for label, idx in frame.strata():
            parts.append((idx, designs.select(self.child(label), frame.restrict(idx), rng)))
        idx = np.concatenate([idx_local[s.idx] for idx_local, s in parts])
        pi = np.concatenate([s.pi for _, s in parts])
        mult = np.concatenate([s.multiplicity for _, s in parts])
        order = np.argsort(idx, kind="stable")
        return Sample(frame, idx[order], pi[order], multiplicity=mult[order],
                      with_replacement=any(s.with_replacement for _, s in parts),
                      design_tag="stratified")

    def mc_batch(self, frame, R, rng):
        # strata draw independently, so the replicate law factorizes:
        # adding per-stratum replicate totals from disjoint stream
        # stretches reproduces the stratified estimator's distribution
        hits = np.zeros(frame.n_units)
        vals = np.zeros(R)
        for label, idx in frame.strata():
            h, v = simulate.design_consistency_mc(self.child(label),
                                                  frame.restrict(idx), R, rng)
            hits[idx] += h
            vals += v
        return hits, vals


@dataclass(frozen=True)
class OneStageCluster(Design):
    """Draw whole clusters and observe every element inside them."""

    psu: Design  # design applied to the cluster frame
    key = "one_stage_cluster"

    def first_order(self, frame):
        cpi = core.first_order_pips(self.psu, _cluster_frame(frame)).first_order
        pi = np.empty(frame.n_units)
        for k, (_, members) in enumerate(frame.clusters()):
            pi[members] = cpi[k]
        return InclusionProbs(pi)

    def support(self, frame, cap):
        cdist = core.enumerate_design(self.psu, _cluster_frame(frame), cap=cap)
        members = dict(frame.clusters())
        entries = [(tuple(itertools.chain.from_iterable(
                        (frame.ids[i] for i in members[c]) for c in labels)), p)
                   for labels, p in cdist.support]
        return DesignDistribution(_sorted_support(entries), frame)

    def draw(self, frame, rng):
        cs = designs.select(self.psu, _cluster_frame(frame), rng)
        members = dict(frame.clusters())
        chosen = [members[label] for label in cs.ids]
        sizes = [m.size for m in chosen]
        return Sample(frame, np.concatenate(chosen), np.repeat(cs.pi, sizes),
                      design_tag="one_stage_cluster",
                      psu_labels=tuple(np.repeat(cs.ids, sizes)))

    def mc_batch(self, frame, R, rng):
        # observing every element of each drawn cluster is exactly a
        # single-stage draw of the cluster totals
        cframe = _cluster_frame(frame)
        members = frame.clusters()
        y = frame.y_column()
        totals = np.array([y[m].sum() for _, m in members])
        cf = Frame(ids=cframe.ids, mos=cframe.mos, y=totals)
        h, v = simulate.design_consistency_mc(self.psu, cf, R, rng)
        hits = np.zeros(frame.n_units)
        for k, (_, m) in enumerate(members):
            hits[m] = h[k]
        return hits, v


@dataclass(frozen=True)
class TwoStage(Design):
    """Two-stage sampling under invariance (the SSU design attached to a
    cluster never depends on the realized PSU set) and independence (the
    within-cluster draws for distinct clusters use disjoint stretches of
    the stream, in cluster-frame order, so they are mutually independent).
    Two-phase designs cannot nest inside the SSU designs."""

    psu: Design                 # design on the cluster frame
    ssu: Design                 # design applied within every cluster, or
    per_cluster: tuple = _mapping(Design, default=None)  # ((cluster label, design), ...)
    key = "two_stage"

    def __post_init__(self):
        super().__post_init__()
        children = (self.ssu, *dict(self.per_cluster or ()).values())
        if any(isinstance(d, TwoPhase) for c in children for d in _nested(c)):
            raise DesignError("two-phase designs cannot nest inside an SSU design")

    def ssu_for(self, label):
        return dict(self.per_cluster or ()).get(str(label), self.ssu)

    def first_order(self, frame):
        cpi = core.first_order_pips(self.psu, _cluster_frame(frame)).first_order
        pi = np.empty(frame.n_units)
        for k, (label, members) in enumerate(frame.clusters()):
            sub = core.first_order_pips(self.ssu_for(label), frame.restrict(members))
            pi[members] = cpi[k] * sub.first_order
        return InclusionProbs(pi)

    def draw(self, frame, rng):
        if frame.cluster is None:
            raise ValueError("two-stage sampling needs cluster labels on the frame")
        cs = designs.select(self.psu, _cluster_frame(frame), rng)
        members = dict(frame.clusters())
        idx, pi, cond, labels = [], [], [], []
        for pos_in_cs, label in enumerate(cs.ids):
            sub = designs.select(self.ssu_for(label), frame.restrict(members[label]), rng)
            take = members[label][sub.idx]
            idx.append(take)
            cond.append(sub.pi)
            pi.append(cs.pi[pos_in_cs] * sub.pi)
            labels.extend([label] * take.size)
        idx = np.concatenate(idx)
        order = np.argsort(idx, kind="stable")
        return Sample(frame, idx[order], np.concatenate(pi)[order],
                      conditional_pi=np.concatenate(cond)[order],
                      design_tag="two_stage",
                      psu_labels=tuple(labels[k] for k in order))


# ---------------------------------------------------------------------------
# Phase-2 rules for two-phase designs

class Phase2Rule(_Document):
    """Base class of the declarative phase-2 rules.  A rule maps the realized
    phase-1 sample to the conditional second-phase selection, and may read
    phase-1 observations: that is what distinguishes two-phase from
    two-stage sampling.  It is called as rule(phase1_sample, frame, rng) and
    returns the local positions into phase1_sample.idx, their conditional
    probabilities, the realized phase-2 stratum labels, and the stratum
    labels it assigned to every phase-1 unit (None when it does not
    stratify).  Any callable with that signature is a rule too; it may
    return the first two only."""

    registry = {}
    noun = "phase-2 rule"


@dataclass(frozen=True)
class KeepAll(Phase2Rule):
    key = "keep_all"

    def __call__(self, phase1_sample, frame, rng):
        n1 = phase1_sample.idx.size
        return np.arange(n1, dtype=np.int64), np.ones(n1), None, None


@dataclass(frozen=True)
class StratifyOnAux(Phase2Rule):
    """Stratify the phase-1 sample on an observed value, then SRS within.

    column    aux column index used for stratification ('stratum' uses the
              frame's stratum labels)
    rates     per-stratum subsampling fraction nu_h (dict label -> rate), or
    rate      a single fraction applied to every stratum
    Realized r_h = max(1, round(nu_h * n_h)).
    """

    column: object = "stratum"
    rate: float = None
    rates: tuple = _mapping(float, default=None)
    boundaries: tuple = None  # cut points when stratifying a numeric column
    key = "stratify"

    def __post_init__(self):
        super().__post_init__()
        if (self.rate is None) == (self.rates is None):
            raise DesignError("a stratify rule needs exactly one of rate and rates")
        fractions = [self.rate] if self.rates is None else [v for _, v in self.rates]
        if any(not 0 < nu <= 1 for nu in fractions):
            raise DesignError("phase-2 subsampling fractions must be in (0, 1]")

    def _strata(self, phase1_sample, frame):
        if self.column == "stratum":
            return phase1_sample.stratum_labels()
        x = frame.aux[phase1_sample.idx, int(self.column)]
        if self.boundaries is None:
            raise DesignError("numeric phase-2 stratification needs boundaries")
        cuts = np.asarray(self.boundaries, dtype=float)
        return tuple(str(int(k)) for k in np.searchsorted(cuts, x, side="left"))

    def __call__(self, phase1_sample, frame, rng):
        labels = self._strata(phase1_sample, frame)
        rates = None if self.rates is None else dict(self.rates)
        locals_, conds, out_labels = [], [], []
        groups = {}
        for pos, lab in enumerate(labels):
            groups.setdefault(lab, []).append(pos)
        for lab in sorted(groups):
            pos = np.asarray(groups[lab], dtype=np.int64)
            nu = self.rate if rates is None else float(rates[lab])
            r_h = max(1, int(round(nu * pos.size)))
            if r_h > pos.size:
                raise ValueError(f"phase-2 stratum {lab!r}: r_h={r_h} exceeds n_h={pos.size}")
            chosen = kernels.srs_selection_rejection(r_h, pos.size, rng)
            locals_.append(pos[chosen])
            conds.append(np.full(chosen.size, r_h / pos.size))
            out_labels.extend([lab] * chosen.size)
        local, cond = np.concatenate(locals_), np.concatenate(conds)
        order = np.argsort(local, kind="stable")
        return local[order], cond[order], tuple(np.asarray(out_labels)[order]), tuple(labels)


@dataclass(frozen=True)
class PoissonOnAux(Phase2Rule):
    """Poisson phase 2 with conditional probability proportional to an
    observed nonnegative value, scaled to expected size r."""

    r: int
    column: int = 0
    key = "poisson"

    def __post_init__(self):
        if self.r < 1:
            raise DesignError("a poisson rule needs expected size r >= 1")

    def __call__(self, phase1_sample, frame, rng):
        x = frame.aux[phase1_sample.idx, self.column]
        if np.any(x <= 0):
            raise ValueError("Poisson phase-2 rule needs positive observed values")
        p2 = np.minimum(compute_pips(x, self.r), 1.0)
        local = np.nonzero(kernels.poisson_select(p2, rng))[0].astype(np.int64)
        return local, p2[local], None, None


@dataclass(frozen=True)
class TwoPhase(Design):
    """Two-phase sampling: the phase-2 rule may read phase-1 observations,
    which breaks invariance on purpose.  The sample records pi^(1), the
    conditional pi_{2|1}, and their product as the overall pi*."""

    phase1: Design
    phase2: Phase2Rule  # or any callable with a rule's signature
    key = "two_phase"

    def __post_init__(self):
        if not callable(self.phase2):
            raise DesignError(f"unknown phase-2 rule {self.phase2!r}")

    def draw(self, frame, rng):
        s1 = designs.select(self.phase1, frame, rng)
        out = self.phase2(s1, frame, rng)
        local, cond, labels, all_labels = out if len(out) == 4 else (*out, None, None)[:4]
        if np.any(local >= s1.idx.size):
            raise ValueError("phase-2 rule selected a unit outside the phase-1 sample")
        return Sample(frame, s1.idx[local], s1.pi[local] * cond, conditional_pi=cond,
                      design_tag="two_phase", phase1=s1,
                      psu_labels=labels, phase1_labels=all_labels)


# ---------------------------------------------------------------------------
# helpers

def _check_srs_size(n, N):
    if n > N:
        raise ValueError(f"cannot draw {n} distinct units from {N}")


def _check_cap(size, cap):
    if size > cap:
        raise SupportTooLargeError(f"design support holds {size} sets, cap is {cap}")


def _sorted_support(entries):
    merged = {}
    for ids, p in entries:
        key = tuple(sorted(ids))
        merged[key] = merged.get(key, 0.0) + p
    return tuple(sorted(merged.items(), key=lambda kv: kv[0]))


def _name_zero_units(pi, frame):
    zero = np.nonzero(np.asarray(pi) <= 0)[0]
    if zero.size:
        raise NonProbabilityDesignError(
            f"unit {frame.ids[int(zero[0])]!r} has zero selection probability"
        )


def _poisson_prob(combo, pi):
    """Probability that independent inclusion with probabilities pi selects
    exactly the units in combo."""
    inside = set(combo)
    p = 1.0
    for i in range(len(pi)):
        p *= pi[i] if i in inside else 1 - pi[i]
    return p


def _n2_draw_probs(mos):
    p = np.asarray(mos, dtype=float)
    p = p / p.sum()
    if np.any(p >= 0.5):
        raise ValueError("n=2 pi-ps methods need every draw probability below 1/2")
    return p


def _brewer_joint(p):
    K = np.sum(p / (1 - 2 * p))
    q = 1 / (1 - 2 * p)
    pij = (2 * np.outer(p, p) / (1 + K)) * (q[:, None] + q[None, :])
    np.fill_diagonal(pij, 2 * p)
    return pij


def _cluster_frame(frame):
    """One row per cluster; mos is the cluster's total mos (or its size when
    the frame carries no explicit mos).  Memoized on the frame."""
    if "cluster_frame" not in frame._cache:
        labels, cluster_mos = [], []
        default_mos = bool(np.all(frame.mos == 1.0))
        for label, members in frame.clusters():
            labels.append(label)
            cluster_mos.append(
                members.size if default_mos else frame.mos[members].sum()
            )
        frame._cache["cluster_frame"] = Frame(
            ids=tuple(labels), mos=np.asarray(cluster_mos, dtype=float)
        )
    return frame._cache["cluster_frame"]


def _nested(design):
    """`design` and every design nested in its fields."""
    yield design
    if isinstance(design, Design):
        for f in fields(design):
            value = getattr(design, f.name)
            children = [d for _, d in value or ()] if "mapping" in f.metadata else [value]
            for child in children:
                yield from _nested(child)


# ---------------------------------------------------------------------------
# Documents: written as JSON, read from JSON or TOML.

def design_to_dict(design):
    Design.require(design, DesignError, "cannot serialize {}")
    return design.to_dict()


def design_from_dict(doc):
    return Design.from_dict(doc)


def load_design(path):
    """Parse a nested design spec from a JSON or TOML document."""
    parse = json.loads
    if str(path).endswith(".toml"):
        try:
            import tomllib
        except ImportError as exc:
            raise DesignError("TOML design files need Python >= 3.11; "
                              "write the design as JSON") from exc
        parse = tomllib.loads
    try:
        doc = parse(Path(path).read_bytes().decode("utf-8"))
    except ValueError as exc:
        raise DesignError(f"cannot parse design document {path}: {exc}") from exc
    return design_from_dict(doc)


# Imported last, because both import this module.  Nested designs reach
# their children through these modules' public entry points.
from . import designs, simulate  # noqa: E402
