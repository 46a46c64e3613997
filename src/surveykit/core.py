"""Sample data model, inclusion probabilities, and exact design enumeration."""

import itertools
import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .frame import Frame, FrameError

__all__ = [
    "Sample", "InclusionProbs", "DesignDistribution",
    "enumerate_design", "first_order_pips", "joint_pips", "compute_pips",
    "conditional_poisson_pips", "calibrate_rejective_working_probs",
    "SupportTooLargeError", "NonEnumerableError", "NonProbabilityDesignError",
    "DEFAULT_SUPPORT_CAP",
]

DEFAULT_SUPPORT_CAP = 10 ** 6
_JOINT_CHUNK = 1 << 22  # (row, unit, unit) triples DesignDistribution.joint holds at once


class SupportTooLargeError(ValueError):
    pass


class NonEnumerableError(ValueError):
    pass


class NonProbabilityDesignError(ValueError):
    pass


@dataclass
class Sample:
    """A realized draw.

    idx             dense frame indices of the selections
    pi              overall first-order inclusion probability per selection
                    (draw probability for with-replacement schemes)
    multiplicity    number of times each unit was drawn (1 for WOR schemes)
    conditional_pi  second-stage / second-phase conditional probability,
                    when the design is nested
    phase1          phase-1 lineage for two-phase samples

    No field is reassigned after construction (`__post_init__` only
    normalizes them): `weights` is computed from them once and cached.
    """

    frame: Frame
    idx: np.ndarray
    pi: np.ndarray
    multiplicity: np.ndarray = None
    conditional_pi: np.ndarray = None
    design_tag: str = ""
    with_replacement: bool = False
    phase1: "Sample" = None
    psu_labels: tuple = None
    phase1_labels: tuple = None  # phase-2 stratification applied to all of A_1
    flags: tuple = ()

    def __post_init__(self):
        idx = self.idx
        if not (isinstance(idx, np.ndarray) and idx.dtype == np.int64):
            self.idx = idx = np.asarray(idx, dtype=np.int64)
        pi = self.pi
        if not (isinstance(pi, np.ndarray) and pi.dtype == np.float64):
            self.pi = pi = np.asarray(pi, dtype=float)
        default_mult = self.multiplicity is None
        if default_mult:
            self.multiplicity = np.ones(idx.size, dtype=np.int64)
        else:
            self.multiplicity = np.asarray(self.multiplicity, dtype=np.int64)
        if self.conditional_pi is not None:
            self.conditional_pi = np.asarray(self.conditional_pi, dtype=float)
        # min and max are NaN when any pi is, and NaN fails both tests
        if pi.size and not (pi.min() > 0 and pi.max() <= 1 + 1e-12):
            bad = self.frame.ids[idx[np.argmin((pi > 0) & (pi <= 1 + 1e-12))]]
            raise NonProbabilityDesignError(
                f"unit {bad!r} carries an inclusion probability outside (0, 1]"
            )
        if (not self.with_replacement and not default_mult
                and np.any(self.multiplicity != 1)):
            raise ValueError("without-replacement samples must have multiplicity 1")

    @classmethod
    def _of_rows(cls, frame, rows, pi, multiplicity=None, conditional_pi=None, labels=None,
                 each=None, **fields):
        """One Sample per row of an index table (a row's frame indices, then
        pads N), with the table pi shaped like rows (1.0 at the pads): what
        `Sample(frame, idx, p, multiplicity=m, conditional_pi=c,
        psu_labels=tuple(labels[i] for i in idx), **e, **fields)` gives for
        each row r's units idx, their cells p, m and c and its own fields
        e = each[r] (a two-phase Sample's phase 1 and labels), with the
        checks made once on the whole table.  The optional tables are shaped
        like rows too: `multiplicity`, 0 at the pads, the draw counts of a
        with-replacement draw (without it each unit counts once), and
        `conditional_pi`; `labels` names each frame unit's cluster or
        phase-2 stratum.

        Every table is set read-only, and a Sample's idx, pi, multiplicity,
        weights and conditional_pi are views of their rows.  The rows go in
        blocks of at most `kernels._CHUNK_CELLS` cells: each block's
        weights, the bits `weights` computes (1 / pi, or m / (n p) with
        draw counts m), are divided once, and its label tuples come from
        one gather of the labels by its rows; without draw counts the
        Samples of w units share one read-only view of w ones.  A Sample's
        __dict__ holds its row's `each` and, of the other fields, only
        those that differ from the class defaults."""
        from .kernels import _chunks  # not at import: a Sample alone needs no kernels

        N = frame.n_units
        if pi.size and not (pi.min() > 0 and pi.max() <= 1 + 1e-12):
            for idx, p in zip(rows, pi):  # the first failing row raises as its Sample would
                cls(frame, idx[idx < N], p[idx < N])
        extra = {name: v for name, v in fields.items() if v != getattr(cls, name)}
        for table in (rows, pi, multiplicity, conditional_pi):
            if table is not None:
                table.setflags(write=False)
        width = rows.shape[1]
        widths = np.count_nonzero(rows < N, axis=1).tolist()
        ones = np.ones(width, dtype=np.int64)
        ones.setflags(write=False)
        counts = [ones[:w] for w in range(width + 1)]  # the multiplicity of a w-unit row
        if labels is not None:
            named = np.empty(N + 1, dtype=object)  # the pads N are named None
            named[:N] = labels
        none = itertools.repeat(None)
        new = object.__new__
        # every Sample's __dict__ is a copy of this one, its row's views then
        # written over the None placeholders
        shared = {"frame": frame, "idx": None, "pi": None, "multiplicity": None,
                  "weights": None, **extra}
        top = 0
        for size in _chunks(len(rows), width):
            end = top + size
            if multiplicity is None:
                mult, inv = none, 1 / pi[top:end]
            else:  # Hansen-Hurwitz: an all-pads row has no draws, so n = 0
                mult = multiplicity[top:end]
                inv = np.divide(mult, mult.sum(axis=1, keepdims=True) * pi[top:end],
                                out=np.zeros(mult.shape), where=mult > 0)
            inv.setflags(write=False)
            cond = none if conditional_pi is None else conditional_pi[top:end]
            names = none if labels is None else map(tuple, named[rows[top:end]].tolist())
            own = none if each is None else each[top:end]
            for w, idx, p, inv_row, m, c, row_names, row_fields in zip(
                    widths[top:end], rows[top:end], pi[top:end], inv, mult, cond, names, own):
                if w < width:
                    idx, p, inv_row = idx[:w], p[:w], inv_row[:w]
                    if row_names is not None:
                        row_names = row_names[:w]
                s = new(cls)
                s.__dict__ = attrs = shared.copy()
                attrs["idx"] = idx
                attrs["pi"] = p
                attrs["multiplicity"] = counts[w] if m is None else m[:w]
                attrs["weights"] = inv_row
                if c is not None:
                    attrs["conditional_pi"] = c[:w]
                if row_names is not None:
                    attrs["psu_labels"] = row_names
                if row_fields is not None:
                    attrs.update(row_fields)
                yield s
            top = end

    @property
    def ids(self):
        return tuple(self.frame.ids[i] for i in self.idx)

    @property
    def n(self):
        return int(self.multiplicity.sum())

    @property
    def n_distinct(self):
        return int(self.idx.size)

    @cached_property
    def weights(self):
        """Expansion weights: m / pi, or with replacement the Hansen-Hurwitz
        m / (n p), so that weights @ y is the HT or HH total."""
        if self.with_replacement:
            return self.multiplicity / (self.n * self.pi)
        return self.multiplicity / self.pi

    def y_values(self, j=0):
        """The sampled units' study values (column j of a 2-D y), a fresh
        array."""
        y = self.frame.y
        if j == 0 and y is not None and y.ndim == 1:
            return y[self.idx]
        return self.frame.y_column(j)[self.idx]

    def aux_values(self):
        if self.frame.aux is None:
            raise ValueError("frame carries no auxiliary data")
        return self.frame.aux[self.idx]

    def stratum_labels(self):
        if self.frame.stratum is None:
            raise ValueError("frame carries no stratum labels")
        return tuple(self.frame.stratum[i] for i in self.idx)


@dataclass(frozen=True)
class InclusionProbs:
    first_order: np.ndarray
    joint: np.ndarray = None
    measurable: bool = True
    kind: str = "inclusion"  # "draw_prob" for with-replacement designs

    def __post_init__(self):
        object.__setattr__(self, "first_order", np.asarray(self.first_order, dtype=float))
        if self.joint is not None:
            object.__setattr__(self, "joint", np.asarray(self.joint, dtype=float))


@dataclass(frozen=True)
class DesignDistribution:
    """Exact support of an enumerable design; probabilities sum to one.

    `support` holds ((ids tuple, probability), ...): each ids tuple sorted
    as strings, and the tuples sorted lexicographically, so "u10" < "u2"
    and a prefix sorts before any longer set.  A design builds the
    distribution from an index table (`_from_table`): one int64 row of
    frame indices per set, padded with N, and one probability per row; a
    set drawn twice is merged, its probabilities added in table order.
    `first_order` and `joint` add up the table in support order, and the
    id tuples of `support` are written from it when first read.  A
    distribution built from tuples keeps them as given and gets its table
    from `frame.index_of` once."""

    support: tuple  # ((ids tuple, probability), ...)
    frame: Frame = field(compare=False, default=None)

    _rows = None  # the index table, in support order
    _prob = None
    _lookup = None  # {ids tuple: probability}, built by probability_of

    def __post_init__(self):
        _check_total(p for _, p in self.support)

    @classmethod
    def _from_table(cls, rows, prob, frame):
        """The distribution of the sets rows[k] (frame indices, pads N, in
        any order within a row) drawn with probability prob[k]."""
        keys, by_rank = _string_keys(rows, frame)
        del rows  # the keys hold the sets in fewer bytes; a caller's temporary can go
        order = np.lexsort(keys.T[::-1]) if keys.shape[1] else np.arange(len(keys))
        keys = keys[order]
        first = np.ones(len(keys), dtype=bool)
        first[1:] = np.any(keys[1:] != keys[:-1], axis=1)
        merged = np.zeros(np.count_nonzero(first))
        # lexsort is stable: each set's entries add up in table order
        np.add.at(merged, np.cumsum(first) - 1, prob[order])
        _check_total(merged.tolist())
        rows = np.array([frame.n_units] + by_rank, dtype=np.int64)[keys[first]]
        rows.sort(axis=1)  # in place; the pads N go last
        rows.setflags(write=False)  # Samples of exact_expectation hold views of it
        merged.setflags(write=False)  # shared, like rows, by every wrapper of the table
        return cls._wrap(rows, merged, frame)

    @classmethod
    def _wrap(cls, rows, prob, frame):
        """The distribution of a support table already in support order."""
        dist = cls.__new__(cls)
        object.__setattr__(dist, "frame", frame)
        object.__setattr__(dist, "_rows", rows)
        object.__setattr__(dist, "_prob", prob)
        return dist

    def __getattr__(self, name):
        # a distribution built from a table writes its id tuples on first use
        if name != "support" or self._rows is None:
            raise AttributeError(name)
        keys, by_rank = _string_keys(self._rows, self.frame)
        names = np.array([None] + [self.frame.ids[i] for i in by_rank], dtype=object)
        flat = iter(names[keys[keys > 0]])  # the sets' ids, row after row
        sets = [tuple(itertools.islice(flat, w))
                for w in np.count_nonzero(keys, axis=1).tolist()]
        support = tuple(zip(sets, self._prob.tolist()))
        object.__setattr__(self, "support", support)
        return support

    def _table(self):
        """(rows, prob): the support as an index table, one row per set in
        support order, its frame indices ascending and then pads N."""
        if self._rows is None:
            N = self.frame.n_units
            pos = [sorted(self.frame.index_of(u) for u in ids) for ids, _ in self.support]
            rows = np.full((len(pos), max(map(len, pos), default=0)), N, dtype=np.int64)
            for row, p in zip(rows, pos):
                row[:len(p)] = p
            prob = np.array([p for _, p in self.support], dtype=float)
            rows.setflags(write=False)
            prob.setflags(write=False)
            object.__setattr__(self, "_rows", rows)
            object.__setattr__(self, "_prob", prob)
        return self._rows, self._prob

    def __iter__(self):
        return iter(self.support)

    def __len__(self):
        return len(self.support if self._prob is None else self._prob)

    def probability_of(self, ids):
        if self._lookup is None:
            lookup = {}
            for s, p in self.support:
                lookup.setdefault(s, p)  # the first of repeated sets, as a scan finds it
            object.__setattr__(self, "_lookup", lookup)
        return self._lookup.get(tuple(sorted(str(i) for i in ids)), 0.0)

    def first_order(self):
        rows, prob = self._table()
        pi = np.zeros(self.frame.n_units + 1)
        np.add.at(pi, rows.ravel(), np.repeat(prob, rows.shape[1]))
        return pi[:-1]

    def joint(self):
        rows, prob = self._table()
        n = self.frame.n_units + 1
        w = rows.shape[1]
        pij = np.zeros(n * n)
        step = max(1, _JOINT_CHUNK // max(1, w * w))  # rows per chunk
        for k in range(0, len(rows), step):
            r = rows[k:k + step]
            np.add.at(pij, (r[:, :, None] * n + r[:, None, :]).ravel(),
                      np.repeat(prob[k:k + step], w * w))
        return pij.reshape(n, n)[:-1, :-1].copy()


def _check_total(probs):
    total = math.fsum(probs)
    if abs(total - 1.0) > 1e-9:
        raise ValueError(f"support probabilities sum to {total}, not 1")


def _string_keys(rows, frame):
    """The sets of an index table (pads N) as 1 + each id's place in string
    order, ascending along each row and then 0 for the pads; and the frame
    indices in that order."""
    N = frame.n_units
    by_rank = sorted(range(N), key=frame.ids.__getitem__)
    rank = np.empty(N + 1, dtype=np.min_scalar_type(N + 1))
    rank[by_rank] = np.arange(1, N + 1)
    rank[N] = N + 1  # last in its row
    keys = np.sort(rank[rows], axis=1)
    keys[keys > N] = 0  # and then before every unit, when rows are compared
    return keys, by_rank


def compute_pips(mos, n):
    """Inclusion probabilities proportional to size with iterative capping:
    units pushed above 1 are taken with certainty and the remainder is
    re-scaled until every probability is at most 1.  The result sums to n."""
    x = np.asarray(mos, dtype=float)
    if np.any(x < 0):
        raise ValueError("measure of size must be nonnegative")
    if int(np.sum(x > 0)) < n:
        raise FrameError(f"need at least n={n} positive-mos units")
    pi = np.zeros(x.size)
    certain = np.zeros(x.size, dtype=bool)
    remaining = n
    while True:
        free = ~certain
        total = x[free].sum()
        pi[free] = remaining * x[free] / total
        over = free & (pi > 1)
        if not over.any():
            break
        pi[over] = 1.0
        certain |= over
        remaining = n - int(certain.sum())
    pi[certain] = 1.0
    return pi


def _size_pmfs(p, n):
    """Row i, for i = 0..N: P(independent inclusion with probabilities p
    takes j of units 0..i-1), j = 0..n; the Poisson-binomial recursion cut
    at n."""
    table = np.zeros((p.shape[0] + 1, n + 1))
    table[0, 0] = 1.0
    for i, q in enumerate(p.tolist()):
        table[i + 1] = table[i] * (1 - q)
        table[i + 1, 1:] += table[i, :-1] * q
    return table


def conditional_poisson_pips(working_pi, n):
    """Exact first-order inclusion probabilities of Poisson sampling
    conditioned on realized size n (rejective sampling; Chen, Dempster &
    Liu 1994).  With L[i, j] = P(units 0..i-1 take j) and T[i, j] =
    P(units i..N-1 take j), the Poisson-binomial laws of a prefix and a
    suffix of the frame cut at n,

        pi_i = p_i * sum_j L[i, j] T[i+1, n-1-j] / L[N, n],

    a sum of nonnegative products, in O(N n)."""
    p = np.asarray(working_pi, dtype=float)
    N = p.size
    if not 0 < n <= N:
        raise ValueError("need 0 < n <= N")
    prefix = _size_pmfs(p, n)
    if prefix[N, n] <= 0:
        raise ValueError("target size has zero probability under the working design")
    suffix = _size_pmfs(p[::-1], n)[::-1]
    rest = (prefix[:N, :n] * suffix[1:, n - 1::-1]).sum(axis=1)
    return p * rest / prefix[N, n]


def _entry_probs(working_pi, n):
    """The table of the sequential conditional-Poisson draw (Chen, Dempster
    & Liu 1994; Tille 2006, Sampling Algorithms, 5.6): q[k, r] = P(unit k
    enters | units k..N-1 must take r) = p_k T[k+1, r-1] / T[k, r], with T
    as in `conditional_poisson_pips`, and 0 where r = 0 or T[k, r] = 0.
    Where units k..N-1 must all enter, T[k, r] is p_k T[k+1, r-1] to the
    bit (the recursion adds it to 0.0), so q is exactly 1.0 there and a
    draw always takes n units."""
    p = np.asarray(working_pi, dtype=float)
    N = p.size
    suffix = _size_pmfs(p[::-1], n)[::-1]
    q = np.zeros((N, n + 1))
    np.divide(p[:, None] * suffix[1:, :n], suffix[:N, 1:], out=q[:, 1:],
              where=suffix[:N, 1:] > 0)
    return q


def calibrate_rejective_working_probs(target_pi, n, tol=1e-8, max_iter=200):
    """Fixed-point adjustment on logits so that the conditional-Poisson
    marginals match the target inclusion probabilities to `tol`."""
    target = np.asarray(target_pi, dtype=float)
    if abs(target.sum() - n) > 1e-8:
        raise ValueError("target inclusion probabilities must sum to n")
    if np.any((target <= 0) | (target >= 1)):
        raise ValueError("targets must lie strictly inside (0, 1)")
    logit = lambda q: np.log(q / (1 - q))
    theta = logit(target)
    for _ in range(max_iter):
        work = 1 / (1 + np.exp(-theta))
        current = conditional_poisson_pips(work, n)
        if np.max(np.abs(current - target)) < tol:
            return work
        theta = theta + logit(target) - logit(current)
    raise RuntimeError(f"rejective working probabilities did not converge in {max_iter} steps")


# ---------------------------------------------------------------------------
# Entry points; each design class in surveykit.design owns the behaviour.
# They import it when called: design imports this module, and a Sample
# alone (as the CLI's estimate and variance build it) needs no design code.

def first_order_pips(design, frame):
    """First-order inclusion probabilities (draw probabilities for
    with-replacement designs) for every unit in the frame."""
    from .design import Design

    Design.require(design, NonEnumerableError, "no closed-form inclusion probabilities for {}")
    return design.first_order(frame)


def joint_pips(design, frame, cap=DEFAULT_SUPPORT_CAP):
    """Full symmetric joint-inclusion matrix; the diagonal equals the
    first-order probabilities.  Systematic designs come back flagged as
    non-measurable with their structural zeros kept in place."""
    from .design import Design

    Design.require(design, NonEnumerableError, "no closed-form inclusion probabilities for {}")
    return design.joint(frame, cap)


def enumerate_design(design, frame, cap=DEFAULT_SUPPORT_CAP):
    """Exact sampling distribution of an enumerable design.  The frame keeps
    the support table last built on it, as (design, rows, prob): a call
    with an equal design wraps the same read-only arrays again, and
    `joint_pips` and `exact_expectation` of that design read them too.
    One entry per frame bounds the memory it holds, and holding the arrays
    rather than the distribution keeps the frame out of a reference cycle
    (the distribution refers to its frame)."""
    from .design import Design, _check_cap

    Design.require(design, NonEnumerableError, "{} designs cannot be enumerated")
    hit = frame._cache.get("support")
    if hit is not None and hit[0] == design:
        _check_cap(len(hit[2]), cap)
        return DesignDistribution._wrap(hit[1], hit[2], frame)
    dist = design.support(frame, cap)
    rows, prob = dist._table()
    _check_cap(len(prob), cap)  # the rule a cached table is held to
    frame._cache["support"] = (design, rows, prob)
    return dist
