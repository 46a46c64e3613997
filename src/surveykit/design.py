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
from .frame import Frame, FrameError

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
    _law(frame, cap)        (rows, prob): the exact law, a row per set (its
                            frame indices, pads N) and its probability, the
                            sets counted against the cap before it is built
    _rows(frame, R, src)    (idx, pi, drawn): R replicates as (R, w)
                            tables, row r replicate r's Sample.idx and
                            Sample.pi, then pads (index N, pi 1.0), and a
                            function of no arguments giving what else a
                            draw makes for `Sample._of_rows` (draw counts
                            with replacement, the conditional pi, a
                            two-phase Sample's phase 1 and labels)
    _fields(frame)          what every Sample of the design carries, drawn
                            or enumerated: design tag (`_tag`), flags,
                            with_replacement, the frame's cluster labels
    mc_batch(frame, R, rng) (hits, values) over R replicates: appearances
                            per unit and the HT (or Hansen-Hurwitz) totals of
                            the frame's y
    to_dict() / from_dict   the document form, {key: {field: value}}

    The source src is one numpy Generator that the replicates share, or a
    sequence of R Generators, src[r] replicate r's own; any other source,
    or an R that is not an integer of at least 0, is refused before a draw
    (`kernels._replicate_rngs`).

    The base class writes `support` (the `_law` as a DesignDistribution,
    in support order), `mc_rows` (the tables of `_rows`), `samples` (a Sample
    from each row), `draw` (the one Sample of `samples(frame, 1, rng)`),
    `mc_samples` (replicate r on its own substream base.substream(r)) and
    `mc_batch` (the `kernels._tally` of the `mc_rows` and each cell's
    y/pi).  `joint` defaults to the matrix of the support; `first_order`
    and `_law` raise NonEnumerableError; the tag is the key.  A leaf design
    (`_Leaf`) writes its methods from its kernel binding, and a nested one
    composes its children's tables and `_law`.  The public entry points
    (`core`, `select`, `simulate`) delegate here.
    """

    registry = {}
    noun = "design"
    with_replacement = False
    flags = ()
    _tag = property(lambda self: self.key)  # the Samples' design tag

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
        return DesignDistribution._from_table(*self._law(frame, cap), frame)

    def _law(self, frame, cap):
        raise NonEnumerableError(f"{type(self).__name__} designs cannot be enumerated")

    def _fields(self, frame):
        return {"design_tag": self._tag, "flags": self.flags,
                "with_replacement": self.with_replacement}

    def mc_rows(self, frame, R, source):
        return self._rows(frame, R, source)[:2]

    def samples(self, frame, R, source):
        idx, pi, drawn = self._rows(frame, R, source)
        yield from Sample._of_rows(frame, idx, pi, **drawn(), **self._fields(frame))

    def mc_batch(self, frame, R, rng):
        y = np.append(frame.y_column(), 0.0)  # index N pads and weighs nothing
        idx, pi = self.mc_rows(frame, R, rng)
        tops = list(itertools.accumulate(kernels._chunks(R, idx.shape[1]), initial=0))
        return kernels._tally(((idx[a:b], y[idx[a:b]] / pi[a:b])
                               for a, b in zip(tops, tops[1:])), frame.n_units)

    def draw(self, frame, rng):
        return next(self.samples(frame, 1, rng))

    def mc_samples(self, frame, R, base):
        # one Generator per replicate for the whole design, 1024 at a time
        kernels._check_replicates(R, 0)
        for top in range(0, R, 1024):
            rngs = [base.substream(r) for r in range(top, min(R, top + 1024))]
            yield from self.samples(frame, len(rngs), rngs)


class _Leaf(Design):
    """A design drawn by one kernel call.  `_bind(frame)` runs every check
    the design makes on the frame and returns its kernel binding

        (kernel, args, p)

    where kernel(*args, rng) draws one sample's frame indices (every draw,
    repeats included, for with-replacement designs) and p holds each unit's
    inclusion probability (draw probability with replacement); the Sample's
    other fields are the design's `_fields`.  `first_order`, `_rows` and
    `mc_batch` follow from the binding, so the probabilities it reports are
    the ones a draw uses, on exactly the frames a draw accepts, and a Monte
    Carlo replicate draws what one `select` draws.  `draw` is one kernel
    call, the reference the batched Samples are tested against.  Bernoulli,
    Poisson, Chao and RejectivePoisson write a `first_order` that their
    binding reads; Chao and RejectivePoisson keep what it checks and builds
    on the frame (`Frame._memo`, keyed by the design).  `mc_batch` weighs
    every with-replacement draw (Hansen-Hurwitz), and `_Independent` draws
    it through `kernels.mc_poisson`."""

    def first_order(self, frame):
        return InclusionProbs(self._bind(frame)[2],
                              kind="draw_prob" if self.with_replacement else "inclusion")

    def draw(self, frame, rng):
        return self._sample(frame, self._bind(frame), rng)

    def _sample(self, frame, binding, rng):
        kernel, args, p = binding
        idx = kernel(*args, rng)
        mult = None
        if self.with_replacement:
            idx, mult = np.unique(idx, return_counts=True)
        return Sample(frame, idx, p[idx], multiplicity=mult, **self._fields(frame))

    def mc_batch(self, frame, R, rng):
        kernel, args, p = self._bind(frame)
        y = frame.y_column()
        wvec = y / (self.n * p) if self.with_replacement else y / p
        return kernels.mc_draws(kernel, args, self.with_replacement, R, wvec, rng)

    def _rows(self, frame, R, source):
        kernel, args, p = self._bind(frame)
        N = p.size
        idx = kernels._stack(list(kernels._mc_rows(kernel, args, N, R, source)), N)
        mult = None
        if self.with_replacement:  # each drawn unit once, with its count
            idx, mult = kernels._counted(idx, N)
        elif (idx == N).any():  # ascending units, then the pads (Poisson's sit anywhere)
            idx = np.sort(idx, axis=1)[:, :np.count_nonzero(idx < N, axis=1).max()]
        return idx, np.append(p, 1.0)[idx], lambda: {"multiplicity": mult}


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
    _tag = property(lambda self: f"srs:{self.method}")

    def __post_init__(self):
        if self.method not in SRS_METHODS:
            raise DesignError(f"unknown SRS method {self.method!r}")
        super().__post_init__()

    def joint(self, frame, cap):
        first = self.first_order(frame).first_order
        N, n = frame.n_units, self.n
        pij = np.full((N, N), n * (n - 1) / (N * (N - 1)) if N > 1 else 1.0)
        np.fill_diagonal(pij, n / N)
        return InclusionProbs(first, pij)

    def _law(self, frame, cap):
        _check_srs_size(self.n, frame.n_units)
        rows = _combinations(frame.n_units, self.n, cap)
        return rows, np.full(len(rows), 1.0 / len(rows))

    def _bind(self, frame):
        N = frame.n_units
        _check_srs_size(self.n, N)
        return getattr(kernels, f"srs_{self.method}"), (self.n, N), np.full(N, self.n / N)


@dataclass(frozen=True)
class SRSWR(_Sized):
    """n independent draws, each with draw probability 1/N; multiplicities
    are recorded."""

    n: int
    key = "srswr"
    with_replacement = True

    def _bind(self, frame):
        N = frame.n_units
        return kernels.srswr_draws, (self.n, N), np.full(N, 1.0 / N)


class _Independent(_Leaf):
    """Independent inclusion with probabilities `first_order`; the realized
    sample size is random."""

    def joint(self, frame, cap):
        pi = self.first_order(frame).first_order
        pij = np.outer(pi, pi)
        np.fill_diagonal(pij, pi)
        return InclusionProbs(pi, pij)

    def _law(self, frame, cap):
        N = frame.n_units
        pi = self.first_order(frame).first_order
        # a unit of pi 1 is in every set, and its factor 1.0 changes no product
        free, certain = np.flatnonzero(pi < 1), np.flatnonzero(pi >= 1)
        _check_cap(2 ** free.size, cap)
        member = (np.arange(2 ** free.size)[:, None] & (1 << np.arange(free.size))) != 0
        prob = _independent_prob(member, pi[free])  # a row per subset of the free units
        keep = prob > 0
        # written in place: free units where member, pads N, then the certain units
        rows = np.full((np.count_nonzero(keep), free.size + certain.size), N, dtype=np.int64)
        np.copyto(rows[:, :free.size], free, where=member[keep])
        rows[:, free.size:] = certain
        return rows, prob[keep]

    def _bind(self, frame):
        pi = self.first_order(frame).first_order
        return kernels._poisson_indices, (pi,), pi

    def mc_batch(self, frame, R, rng):
        # what `_Leaf.mc_batch` computes, called through kernels.mc_poisson:
        # perfbench's wrong-answer test patches that name and expects it to
        # bias exactly Bernoulli and Poisson
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
            raise FrameError("systematic sampling needs n < N")
        return N // self.n

    def _law(self, frame, cap):
        N = frame.n_units
        G = self._interval(N)
        rows = np.arange(G)[:, None] + G * np.arange((N - 1) // G + 1)
        return np.where(rows < N, rows, N), np.full(G, 1.0 / G)

    def _bind(self, frame):
        N = frame.n_units
        G = self._interval(N)
        return kernels.systematic_select, (N, G), np.full(N, 1.0 / G)


@dataclass(frozen=True)
class SystematicPPS(_Sized):
    """Systematic pi-ps in frame order; certainty units must be extracted
    with compute_pips first."""

    n: int
    key = "systematic_pps"
    _tag = "systematic_pips"

    def _interval(self, x):
        a = x.sum() / self.n
        if np.any(x > a + 1e-12):
            raise ValueError(_ABOVE_CERTAINTY)
        return a

    def _law(self, frame, cap):
        x = frame.mos
        a = self._interval(x)
        bounds = np.concatenate([[0.0], np.cumsum(x)])
        cuts = np.array(sorted({round(float(b % a), 15) for b in bounds} | {0.0, float(a)}))
        # each piece of (0, a] between two cuts draws one set: the walk's
        # from the piece's midpoint
        lo, hi = cuts[:-1], cuts[1:]
        keep = hi - lo > 1e-15
        lo, hi = lo[keep], hi[keep]
        chosen = kernels._systematic_pps_walk(x, a, self.n, (0.5 * (lo + hi))[:, None])
        # a set once, though a rounding sliver may draw its neighbour's
        rows, inverse = np.unique(chosen, axis=0, return_inverse=True)
        return rows, np.bincount(inverse.ravel(), weights=(hi - lo) / a)

    def _bind(self, frame):
        x = frame.mos
        self._interval(x)
        _name_zero_units(x, frame)
        return kernels.systematic_pps_select, (x, self.n), self.n * x / x.sum()


@dataclass(frozen=True)
class PPSWR(_Sized):
    """n independent draws with P(draw = i) proportional to the measure of
    size."""

    n: int
    method: str = "cumulative"
    bound: float = None  # Lahiri upper bound M > max mos
    key = "ppswr"
    with_replacement = True
    _tag = property(lambda self: f"ppswr:{self.method}")

    def __post_init__(self):
        if self.method not in PPSWR_METHODS:
            raise DesignError(f"unknown PPSWR method {self.method!r}")
        super().__post_init__()

    def _bind(self, frame, mos=None):
        """The binding with sizes `mos`, which need not be the frame's and
        may hold zeros (units never drawn); the frame's own sizes may not."""
        x = np.asarray(frame.mos if mos is None else mos, dtype=float)
        if np.any(x < 0):
            raise ValueError("measure of size must be nonnegative")
        if x.sum() <= 0:
            raise ValueError("measure of size sums to zero")
        if mos is None:
            _name_zero_units(x, frame)
        kernel = getattr(kernels, f"ppswr_{self.method}")
        args = getattr(self, f"_{self.method}_args")(x)
        return kernel, args, x / x.sum()

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

    def joint(self, frame, cap):
        first = self.first_order(frame).first_order
        return InclusionProbs(first, _brewer_joint(_n2_draw_probs(frame.mos)))

    def _law(self, frame, cap):
        p = _n2_draw_probs(frame.mos)
        _check_cap(math.comb(p.size, 2), cap)
        theta, cond = self._two_draws(p)
        i, j = np.triu_indices(p.size, 1)
        return np.stack([i, j], axis=1), theta[i] * cond(i, j) + theta[j] * cond(j, i)

    def _bind(self, frame):
        p = _n2_draw_probs(frame.mos)
        _name_zero_units(p, frame)
        return getattr(kernels, f"{self.key}_select"), (p,), 2 * p


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
        cond_raw = lambda i, j: p[j] * (1 / (1 - 2 * p[i]) + 1 / (1 - 2 * p[j]))
        units = np.arange(p.size)
        raw = cond_raw(units[:, None], units)
        np.fill_diagonal(raw, 0.0)  # j != i; an exact zero leaves fsum unchanged
        norms = np.array([math.fsum(row) for row in raw.tolist()])
        return p.copy(), lambda i, j: cond_raw(i, j) / norms[i]


@dataclass(frozen=True)
class Chao(_Sized):
    """Streaming reservoir with unequal probabilities (Chao 1982,
    Biometrika 69:653): the first n units fill the reservoir, and unit k
    then enters with probability n x_k / (x_0 + ... + x_k), evicting a slot
    uniformly.  One uniform u per unit k >= n decides both: the unit enters
    when u < p_k, into slot floor(n u / p_k).  Not enumerable."""

    n: int
    key = "chao"

    def first_order(self, frame):
        n, x, total = self.n, frame.mos, frame.mos.sum()
        _check_srs_size(n, frame.n_units)
        _name_zero_units(x, frame)
        if np.any(n * x[n:] / np.cumsum(x)[n:] > 1 + 1e-12):
            raise ValueError(_ABOVE_CERTAINTY)
        pi = n * x / total
        pi[:n] = x[:n].sum() / total
        return InclusionProbs(pi)

    def _bind(self, frame):
        # the checks and pi of every draw on a frame are its first draw's
        pi = frame._memo(("pi", self), lambda: self.first_order(frame).first_order)
        return kernels.chao_select, (frame.mos, self.n), pi


@dataclass(frozen=True)
class RejectivePoisson(_Sized):
    """Conditional Poisson (rejective) sampling: Poisson sampling with the
    working probabilities, conditioned on taking exactly n units.  Drawn in
    one pass over the frame by the sequential method of Chen, Dempster &
    Liu (1994, Biometrika 81:457): with r units still to take, unit k
    enters with probability p_k T[k+1, r-1] / T[k, r], T[k, j] being the
    chance that units k..N-1 take j under Poisson sampling.  Sample.pi is
    the exact conditional-Poisson marginal, which only approximates the
    working probabilities."""

    n: int
    working_pi: tuple = None  # defaults to compute_pips(mos, n)
    key = "rejective_poisson"
    flags = ("pi_is_conditional_marginal",)

    def __post_init__(self):
        super().__post_init__()
        if self.working_pi is not None:
            object.__setattr__(self, "working_pi",
                               tuple(float(p) for p in np.atleast_1d(self.working_pi)))

    def _working(self, frame):
        _check_srs_size(self.n, frame.n_units)
        if self.working_pi is not None:
            work = np.asarray(self.working_pi, dtype=float)
            if work.size != frame.n_units:
                raise ValueError("working probabilities must cover the frame")
        else:
            work = frame._memo(("working", self), lambda: compute_pips(frame.mos, self.n))
            _name_zero_units(work, frame)
        if not np.all((work >= 0) & (work < 1)):  # NaN fails too
            raise ValueError("rejective sampling needs working probabilities in [0, 1)")
        return work

    def first_order(self, frame):
        return InclusionProbs(frame._memo(
            ("pi", self), lambda: conditional_poisson_pips(self._working(frame), self.n)))

    def _law(self, frame, cap):
        N = frame.n_units
        work = self._working(frame)
        rows = _combinations(N, self.n, cap)
        member = np.zeros((len(rows), N), dtype=bool)
        np.put_along_axis(member, rows, True, axis=1)
        prob = _independent_prob(member, work)
        return rows, prob / math.fsum(prob.tolist())

    def _bind(self, frame):
        pi = self.first_order(frame).first_order  # raises if n cannot come up
        q = frame._memo(("entry", self), lambda: core._entry_probs(self._working(frame), self.n))
        return kernels.conditional_poisson_select, (q, self.n), pi


class _Nesting(Design):
    """A design built from child designs, none of which may draw with
    replacement: the union would need each child's own Hansen-Hurwitz
    weights, which a Sample does not carry.  A child that is not a Design
    is refused when the design is built (`_nested`).  Each writes `_rows`
    from its children's tables: a row's units ascending, cluster by
    cluster for OneStageCluster or in phase-1 order for TwoPhase, then
    its pads."""

    def __post_init__(self):
        super().__post_init__()
        if any(d.with_replacement for d in _nested(self)):
            raise DesignError(f"{type(self).__name__} cannot nest a with-replacement design")


@dataclass(frozen=True)
class Stratified(_Nesting):
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

    def _law(self, frame, cap):
        # one row per stratum, combined in itertools.product order
        rows, prob = np.empty((1, 0), dtype=np.int64), np.ones(1)
        for label, idx in frame.strata():
            crows, cprob = self.child(label)._law(frame.restrict(idx), cap)
            _check_cap(len(prob) * len(cprob), cap)
            crows = np.append(idx, frame.n_units)[crows]
            rows = np.concatenate([np.repeat(rows, len(crows), axis=0),
                                   np.tile(crows, (len(rows), 1))], axis=1)
            prob = np.outer(prob, cprob).ravel()
        return rows, prob

    def _rows(self, frame, R, source):
        # strata draw independently, each from its own stretch of the
        # stream: one batch per stratum, in frame order; each row's units
        # are then sorted
        N = frame.n_units
        idx, pi = [], []
        for label, units in frame.strata():
            cidx, cpi = self.child(label).mc_rows(frame.restrict(units), R, source)
            idx.append(np.append(units, N)[cidx])
            pi.append(cpi)
        z = np.empty((R, sum(t.shape[1] for t in idx)), dtype=complex)
        np.concatenate(idx, axis=1, out=z.real)
        np.concatenate(pi, axis=1, out=z.imag)
        return (*_sorted_rows(z), lambda: {})


@dataclass(frozen=True)
class OneStageCluster(_Nesting):
    """Draw whole clusters and observe every element inside them."""

    psu: Design  # design applied to the cluster frame
    key = "one_stage_cluster"

    def first_order(self, frame):
        cpi = core.first_order_pips(self.psu, _cluster_frame(frame)).first_order
        pi = np.empty(frame.n_units)
        for k, (_, members) in enumerate(frame.clusters()):
            pi[members] = cpi[k]
        return InclusionProbs(pi)

    def _law(self, frame, cap):
        crows, cprob = self.psu._law(_cluster_frame(frame), cap)
        return _cluster_members(frame, crows)[0], cprob

    def _rows(self, frame, R, source):
        # each drawn cluster expands into its members, clusters in the PSU
        # rows' order
        cidx, cpi = self.psu.mc_rows(_cluster_frame(frame), R, source)
        return (*_cluster_members(frame, cidx, cpi), lambda: {})

    def _fields(self, frame):
        return {**Design._fields(self, frame), "labels": frame.cluster}


@dataclass(frozen=True)
class TwoStage(_Nesting):
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

    def _rows(self, frame, R, source):
        # Invariance and independence make a replicate's SSU sample in a
        # drawn cluster a fresh draw of that cluster's SSU design, from its
        # own stretch of the stream.  So the PSU rows come first; then each
        # drawn cluster, in cluster-frame order (its slots r * w + j grouped
        # by a radix sort), draws one batch over the replicates that drew it,
        # on their own Generators when each has one, written at those slots.
        N = frame.n_units
        clusters = frame.clusters()
        cidx, cpi = self.psu.mc_rows(_cluster_frame(frame), R, source)
        w, flat = cidx.shape[1], cidx.ravel()
        slots = flat.astype(np.min_scalar_type(len(clusters))).argsort(kind="stable")
        count = np.bincount(flat, minlength=len(clusters) + 1)[:-1]  # the pad K drew none
        drawn = count.nonzero()[0]
        sidx, cond, top = [], [], 0
        for k, end in zip(drawn.tolist(), count[drawn].cumsum().tolist()):
            label, members = clusters[k]
            drew, top = slots[top:end], end
            sub = (source if isinstance(source, np.random.Generator)
                   else [source[r] for r in (drew // w).tolist()])
            rows, spi = self.ssu_for(label).mc_rows(frame.restrict(members), drew.size, sub)
            sidx.append(np.append(members, N)[rows])
            cond.append(spi)
        sidx, cond = kernels._stack(sidx, N), kernels._stack(cond, 1.0)
        drew = slots[:top]

        def rows_of(values):
            # the replicates' (idx, values) tables, sorted into unit order;
            # the pads keep 1.0
            z = np.full((cidx.size, sidx.shape[1]), complex(N, 1.0))
            z.real[drew] = sidx
            z.imag[drew] = values
            return _sorted_rows(z.reshape(R, w * sidx.shape[1]))

        # a row's units are distinct, so the conditional pi, sorted on its
        # own when a Sample needs it, lands where the unit's pi does
        idx, pi = rows_of(np.where(sidx < N, cpi.take(drew)[:, None] * cond, 1.0))
        return idx, pi, lambda: {"conditional_pi": rows_of(cond)[1]}

    _fields = OneStageCluster._fields  # the cluster labels too


# ---------------------------------------------------------------------------
# Phase-2 rules for two-phase designs

class Phase2Rule(_Document):
    """Base class of the declarative phase-2 rules.  A rule maps the realized
    phase-1 sample to the conditional second-phase selection, and may read
    phase-1 observations: that is what distinguishes two-phase from
    two-stage sampling.  A declarative rule is its batched form,
    mc_cond(idx, frame, source): the conditional probability of every cell
    of a table of phase-1 rows (pads frame.n_units, anywhere in a row), 0
    where the cell is not subsampled, row r drawn from the one shared
    Generator or from source[r]; mc_labels(frame) is every frame unit's
    phase-2 stratum label, or None.  A call, rule(phase1_sample, frame,
    rng), is its batch of one: the kept positions into phase1_sample.idx,
    their conditional probabilities, their stratum labels and every phase-1
    unit's (None and None without labels).  Any callable with that
    signature is a rule too, called once a replicate; it may return the
    first two only."""

    registry = {}
    noun = "phase-2 rule"

    def mc_labels(self, frame):
        return None

    def __call__(self, phase1_sample, frame, rng):
        cond = self.mc_cond(phase1_sample.idx[None], frame, rng)[0]
        local, labels = np.flatnonzero(cond), self.mc_labels(frame)
        if labels is None:
            return local, cond[local], None, None
        own = tuple([labels[i] for i in phase1_sample.idx.tolist()])
        return local, cond[local], tuple([own[j] for j in local.tolist()]), own


@dataclass(frozen=True)
class KeepAll(Phase2Rule):
    key = "keep_all"

    def mc_cond(self, idx, frame, source):
        return (idx < frame.n_units).astype(float)


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

    def _labels(self, frame, idx):
        """The phase-2 stratum label of each frame unit in idx."""
        if self.column == "stratum":
            if frame.stratum is None:
                raise FrameError("frame carries no stratum labels")
            return [frame.stratum[i] for i in idx]
        x = _aux_column(frame, self.column, idx)
        if self.boundaries is None:
            raise DesignError("numeric phase-2 stratification needs boundaries")
        cuts = np.asarray(self.boundaries, dtype=float)
        return [str(int(k)) for k in np.searchsorted(cuts, x, side="left")]

    def _subsample_size(self, label, n_h):
        """r_h of a phase-2 stratum that holds n_h phase-1 units."""
        nu = self.rate
        if nu is None:
            nu = dict(self.rates).get(label)
            if nu is None:
                raise FrameError(f"phase-2 stratum {label!r} has no rate in the "
                                 f"stratify rule {self.to_dict()}")
        return max(1, int(round(float(nu) * n_h)))

    def mc_labels(self, frame):
        return self._labels(frame, np.arange(frame.n_units))

    def mc_cond(self, idx, frame, source):
        # A replicate's cells in one stratum form a group, which draws r_h of
        # its n_h cells by selection-rejection (`srs_selection_rejection`),
        # one uniform per cell in row order.  Groups draw in stratum label
        # order, then by n_h, then by replicate, so the cells sorted that way
        # read one block of a shared Generator, and replicate r's cells read
        # source[r] in that order: strata in label order, cells in row
        # order.  One walk then runs every group, chunk by chunk.
        labels = self.mc_labels(frame)
        names = sorted(set(labels))
        H, W = len(names), idx.shape[1]
        code = {name: h for h, name in enumerate(names)}
        # every cell's (replicate, stratum) slot, a pad's stratum H
        slot = np.array([code[lab] for lab in labels] + [H])[idx]
        slot += np.arange(len(idx))[:, None] * (H + 1)
        slot = slot.ravel()
        n = np.bincount(slot, minlength=len(idx) * (H + 1))  # n_h of every slot
        key = np.arange(n.size) % (H + 1) * (W + 1) + n  # (stratum, n_h), pads last
        # stable, so a key keeps its cells in row order; numpy sorts 8- and
        # 16-bit keys by radix
        narrow = key.astype(np.min_scalar_type((H + 1) * (W + 1)))
        pos = np.argsort(narrow[slot], kind="stable")[:slot.size - n[H::H + 1].sum()]
        slot = slot[pos]
        new = np.ones(slot.size, dtype=bool)
        np.not_equal(slot[1:], slot[:-1], out=new[1:])
        first = np.flatnonzero(new)  # each group's first cell
        slot = slot[first]
        size, key = n[slot], key[slot]
        # r_h only for the (stratum, n_h) pairs some replicate draws
        r = np.zeros(H * (W + 1), dtype=np.int64)
        for c in np.flatnonzero(np.bincount(key)).tolist():
            r[c] = self._subsample_size(names[c // (W + 1)], c % (W + 1))
        r = r[key]
        u = kernels._cell_uniforms(source, pos // W)
        cond = np.zeros(idx.size)
        top, width = 0, size.max(initial=0)
        k = np.arange(width)[:, None]
        for rows in kernels._chunks(first.size, width):
            n_h = size[top:top + rows]
            # cell k of every group in row k, one group per column, as
            # _one_pass walks; the kernel's test is u * (N - k) < n - chosen
            table = u.take(first[top:top + rows] + k, mode="clip")
            table *= n_h - k
            table[k >= n_h] = np.inf  # pads, which the walk never takes
            r_h = r[top:top + rows]
            flat = kernels._one_pass(table, r_h, lambda _, need: need)
            g = np.repeat(np.arange(rows), r_h)  # group g takes r_h[g] cells
            j = flat - g * width
            g += top
            cond[pos[first[g] + j]] = r[g] / size[g]
            top += rows
        return cond.reshape(idx.shape)


@dataclass(frozen=True)
class PoissonOnAux(Phase2Rule):
    """Poisson phase 2 with conditional probability proportional to an
    observed nonnegative value, scaled to expected size min(r, phase-1 size)."""

    r: int
    column: int = 0
    key = "poisson"

    def __post_init__(self):
        if self.r < 1:
            raise DesignError("a poisson rule needs expected size r >= 1")

    def mc_cond(self, idx, frame, source):
        # each row's p2 over its phase-1 cells, then a uniform per cell, row-major
        real = idx < frame.n_units
        x = _aux_column(frame, self.column, idx[real])
        if np.any(x <= 0):
            raise ValueError("Poisson phase-2 rule needs positive observed values")
        n1 = np.count_nonzero(real, axis=1)
        p2 = np.concatenate([np.empty(0)] + [np.minimum(compute_pips(
            x_row, min(self.r, x_row.size)), 1.0) for x_row in np.split(x, np.cumsum(n1)[:-1])])
        u = kernels._cell_uniforms(source, np.repeat(np.arange(len(idx)), n1))
        cond = np.zeros(idx.shape)
        cond[real] = np.where(u < p2, p2, 0.0)
        return cond


@dataclass(frozen=True)
class TwoPhase(_Nesting):
    """Two-phase sampling: the phase-2 rule may read phase-1 observations,
    which breaks invariance on purpose.  The sample records pi^(1), the
    conditional pi_{2|1}, and their product as the overall pi*."""

    phase1: Design
    phase2: Phase2Rule  # or any callable with a rule's signature
    key = "two_phase"

    def __post_init__(self):
        if not callable(self.phase2):
            raise DesignError(f"unknown phase-2 rule {self.phase2!r}")
        super().__post_init__()

    def _rows(self, frame, R, source):
        # a declarative rule is its batched form: phase 1's rows, then
        # `mc_cond` on the same source, each row's kept cells moved to its
        # front; a plain callable runs once a replicate, as select calls it
        rngs = kernels._replicate_rngs(source, R)  # refuses a bad R or source first
        if not isinstance(self.phase2, Phase2Rule):
            rows = [self._replicate(frame, rng) for rng in rngs]
            idx, pi, cond = (kernels._stack([r[k][None] for r in rows], pad)
                             for k, pad in ((0, frame.n_units), (1, 1.0), (2, 1.0)))
            return idx, pi, lambda: {"conditional_pi": cond, "each": [r[3] for r in rows]}
        idx1, pi1, drawn1 = self.phase1._rows(frame, R, source)
        cond = self.phase2.mc_cond(idx1, frame, source)
        kept = np.flatnonzero(cond > 0)
        width = np.bincount(kept // cond.shape[1], minlength=R)
        # kept cell j goes to flat slot j + (its row's first slot - its row's first j)
        shift = np.arange(R) * cond.shape[1] - width.cumsum() + width
        slots = np.arange(kept.size) + np.repeat(shift, width)

        def table(values, pad):  # the kept cells of a table, moved to their slots
            out = np.full(cond.shape, pad, dtype=values.dtype)
            out.ravel()[slots] = values.ravel()[kept]
            return out

        def drawn():
            labels = self.phase2.mc_labels(frame)
            phase1 = Sample._of_rows(frame, idx1, pi1, **drawn1(), **self.phase1._fields(frame))
            return {"conditional_pi": table(cond, 1.0), "labels": labels, "each": [
                {"phase1": s1, "phase1_labels": None if labels is None
                 else tuple([labels[i] for i in s1.idx.tolist()])} for s1 in phase1]}

        return table(idx1, frame.n_units), table(pi1 * cond, 1.0), drawn

    def _replicate(self, frame, rng):
        """One replicate's (idx, pi, conditional pi, own fields): phase 1's
        draw, then the callable rule on the same Generator, its positions distinct
        integers in [0, n1) for n1 phase-1 units, its conditional pi in (0, 1]."""
        s1 = self.phase1.draw(frame, rng)
        out = self.phase2(s1, frame, rng)
        local, cond, labels, all_labels = out if len(out) == 4 else (*out, None, None)[:4]
        local, cond, n1 = np.asarray(local), np.asarray(cond, dtype=float), s1.idx.size
        if local.shape != cond.shape or local.size and (
                local.dtype.kind not in "iu" or local.min() < 0 or local.max() >= n1
                or np.bincount(local).max() > 1 or not (cond.min() > 0 and cond.max() <= 1)):
            raise ValueError(f"phase-2 rule {self.phase2!r} must select distinct integer "
                             f"positions, none outside [0, {n1}), each with a conditional "
                             "pi in (0, 1]")
        local = local.astype(np.int64, copy=False)
        return (s1.idx[local], s1.pi[local] * cond, cond,
                {"phase1": s1, "psu_labels": labels, "phase1_labels": all_labels})


# ---------------------------------------------------------------------------
# helpers

def _aux_column(frame, column, idx):
    """frame.aux[idx, column] for a phase-2 rule, or a FrameError when the
    frame has no such aux column."""
    width = 0 if frame.aux is None else frame.aux.shape[1]
    if not -width <= int(column) < width:
        raise FrameError(f"phase-2 rule reads aux column {column}, but the frame "
                         f"has {width} aux column(s)")
    return frame.aux[idx, int(column)]


def _check_srs_size(n, N):
    # a size the frame cannot hold is a data error, not a numerical one
    if n > N:
        raise FrameError(f"cannot draw {n} distinct units from {N}")


def _check_cap(size, cap):
    if size > cap:
        raise SupportTooLargeError(f"design support holds {size} sets, cap is {cap}")


def _combinations(N, n, cap):
    """Every n-subset of range(N) as a row of ascending indices, in
    itertools.combinations order, once their count has passed the cap."""
    K = math.comb(N, n)
    _check_cap(K, cap)
    flat = itertools.chain.from_iterable(itertools.combinations(range(N), n))
    return np.fromiter(flat, dtype=np.int64, count=K * n).reshape(K, n)


def _name_zero_units(pi, frame):
    zero = np.nonzero(np.asarray(pi) <= 0)[0]
    if zero.size:
        raise NonProbabilityDesignError(
            f"unit {frame.ids[int(zero[0])]!r} has zero selection probability"
        )


def _independent_prob(member, pi):
    """Probability that independent inclusion with probabilities pi selects
    exactly the units marked in each row of the boolean table member; the
    product runs in unit order."""
    prob = np.ones(member.shape[0])
    for i in range(pi.size):
        prob *= np.where(member[:, i], pi[i], 1 - pi[i])
    return prob


def _n2_draw_probs(mos):
    p = np.asarray(mos, dtype=float)
    total = p.sum()
    if total <= 0:
        raise ValueError("measure of size sums to zero")
    p = p / total
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
    """One row per cluster; mos is the cluster's total mos (its size when
    the frame carries no explicit mos).  Memoized on the frame."""
    clusters = frame.clusters()
    return frame._memo("cluster_frame", lambda: Frame(
        ids=tuple(label for label, _ in clusters),
        mos=np.array([frame.mos[members].sum() for _, members in clusters])))


def _cluster_members(frame, crows, *values):
    """The members of the clusters in each row of crows (cluster-frame
    indices, pads K), in a table as wide as the row with the most members:
    row r holds the members of each cluster of crows[r] in turn, then pads
    N.  Each table of `values`, shaped like crows, comes back as a table of
    each member's cluster's value, 1.0 at the pads.  The flat member array
    and each cluster's offset into it are memoized on the frame."""
    def members():
        clusters = [m for _, m in frame.clusters()]
        sizes = np.array([m.size for m in clusters] + [0])  # the pad K has none
        flat = np.concatenate([np.empty(0, dtype=np.int64), *clusters])
        return flat, np.cumsum(sizes) - sizes, sizes

    flat, offset, sizes = frame._memo("members", members)
    n = sizes[crows].ravel()
    start = np.concatenate([[0], np.cumsum(n)])  # each cell's start in the run, then its end
    width = np.diff(start[np.arange(len(crows) + 1) * crows.shape[1]])
    kept = np.arange(width.max(initial=0)) < width[:, None]  # row-major, as the members run
    # member j of the run is flat[j + its cluster's offset - its cell's start]
    src = np.repeat(offset[crows.ravel()] - start[:-1], n)
    src += np.arange(src.size)
    idx = np.full(kept.shape, frame.n_units, dtype=np.int64)
    idx[kept] = flat[src]
    del src  # its room goes to the value tables
    out = [idx]
    for v in values:
        out.append(np.ones(kept.shape))
        out[-1][kept] = np.repeat(v.ravel(), n)
    return out


def _sorted_rows(z):
    """The (idx, pi) tables held in the complex table(s) z = idx + 1j * pi,
    each row's cells sorted in place into ascending unit order, the pads N
    last: complex numbers order by their real part first."""
    z.sort(axis=-1)
    return z.real.astype(np.int64), z.imag


def _nested(design):
    """`design` and every design in its Design fields, nested or in a
    mapping, each refused unless it is a Design, as `select` refuses it."""
    Design.require(design, DesignError, "cannot select from {}")
    yield design
    for f in fields(design):
        if f.metadata.get("mapping", f.type) is Design:
            value = getattr(design, f.name)
            for child in (d for _, d in value or ()) if "mapping" in f.metadata else [value]:
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
