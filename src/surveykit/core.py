"""Sample data model, inclusion probabilities, and exact design enumeration."""

import math
from dataclasses import dataclass, field

import numpy as np

from . import design as dz
from . import kernels
from .frame import Frame

__all__ = [
    "Sample", "InclusionProbs", "DesignDistribution",
    "enumerate_design", "first_order_pips", "joint_pips", "compute_pips",
    "conditional_poisson_pips", "calibrate_rejective_working_probs",
    "SupportTooLargeError", "NonEnumerableError", "NonProbabilityDesignError",
    "DEFAULT_SUPPORT_CAP",
]

DEFAULT_SUPPORT_CAP = 10 ** 6


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
        if pi.size and (pi.min() <= 0 or pi.max() > 1 + 1e-12):
            bad = self.ids[int(np.argmin(pi))]
            raise NonProbabilityDesignError(
                f"unit {bad!r} carries an inclusion probability outside (0, 1]"
            )
        if (not self.with_replacement and not default_mult
                and np.any(self.multiplicity != 1)):
            raise ValueError("without-replacement samples must have multiplicity 1")

    @property
    def ids(self):
        return tuple(self.frame.ids[i] for i in self.idx)

    @property
    def n(self):
        return int(self.multiplicity.sum())

    @property
    def n_distinct(self):
        return int(self.idx.size)

    @property
    def weights(self):
        """Expansion weights: m / pi, or with replacement the Hansen-Hurwitz
        m / (n p), so that weights @ y is the HT or HH total."""
        if self.with_replacement:
            return self.multiplicity / (self.n * self.pi)
        return self.multiplicity / self.pi

    def y_values(self, j=0):
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
    """Exact support of an enumerable design, ordered lexicographically by
    the sorted id tuples; probabilities sum to one."""

    support: tuple  # ((ids tuple, probability), ...)
    frame: Frame = field(compare=False, default=None)

    def __post_init__(self):
        total = math.fsum(p for _, p in self.support)
        if abs(total - 1.0) > 1e-9:
            raise ValueError(f"support probabilities sum to {total}, not 1")

    def __iter__(self):
        return iter(self.support)

    def __len__(self):
        return len(self.support)

    def probability_of(self, ids):
        key = tuple(sorted(str(i) for i in ids))
        for s, p in self.support:
            if s == key:
                return p
        return 0.0

    def first_order(self):
        n = self.frame.n_units
        pi = np.zeros(n)
        for ids, p in self.support:
            for u in ids:
                pi[self.frame.index_of(u)] += p
        return pi

    def joint(self):
        n = self.frame.n_units
        pij = np.zeros((n, n))
        for ids, p in self.support:
            pos = [self.frame.index_of(u) for u in ids]
            for a in pos:
                for b in pos:
                    pij[a, b] += p
        return pij


def compute_pips(mos, n):
    """Inclusion probabilities proportional to size with iterative capping:
    units pushed above 1 are taken with certainty and the remainder is
    re-scaled until every probability is at most 1.  The result sums to n."""
    x = np.asarray(mos, dtype=float)
    if np.any(x < 0):
        raise ValueError("measure of size must be nonnegative")
    if int(np.sum(x > 0)) < n:
        raise ValueError(f"need at least n={n} positive-mos units")
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


_COND_POISSON_CACHE = {}


def conditional_poisson_pips(working_pi, n):
    """Exact first-order inclusion probabilities of Poisson sampling
    conditioned on realized size n (rejective sampling; Chen, Dempster &
    Liu 1994).  With L[i, j] = P(units 0..i-1 take j) and T[i, j] =
    P(units i..N-1 take j), the Poisson-binomial laws of a prefix and a
    suffix of the frame cut at n,

        pi_i = p_i * sum_j L[i, j] T[i+1, n-1-j] / L[N, n],

    a sum of nonnegative products, in O(N n).  Memoized: the marginals are
    reused on every draw from the same design, and come back read-only."""
    p = np.asarray(working_pi, dtype=float)
    N = p.size
    if not 0 < n <= N:
        raise ValueError("need 0 < n <= N")
    key = (p.tobytes(), n)
    if key in _COND_POISSON_CACHE:
        return _COND_POISSON_CACHE[key]
    prefix = kernels._size_pmfs(p, n)
    if prefix[N, n] <= 0:
        raise ValueError("target size has zero probability under the working design")
    suffix = kernels._size_pmfs(p[::-1], n)[::-1]
    rest = (prefix[:N, :n] * suffix[1:, n - 1::-1]).sum(axis=1)
    pi = p * rest / prefix[N, n]
    if len(_COND_POISSON_CACHE) > 1024:
        _COND_POISSON_CACHE.clear()
    pi.setflags(write=False)  # handed out on every call, so nobody may write it
    _COND_POISSON_CACHE[key] = pi
    return pi


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

def first_order_pips(design, frame):
    """First-order inclusion probabilities (draw probabilities for
    with-replacement designs) for every unit in the frame."""
    dz.Design.require(design, NonEnumerableError, "no closed-form inclusion probabilities for {}")
    return design.first_order(frame)


def joint_pips(design, frame, cap=DEFAULT_SUPPORT_CAP):
    """Full symmetric joint-inclusion matrix; the diagonal equals the
    first-order probabilities.  Systematic designs come back flagged as
    non-measurable with their structural zeros kept in place."""
    dz.Design.require(design, NonEnumerableError, "no closed-form inclusion probabilities for {}")
    return design.joint(frame, cap)


def enumerate_design(design, frame, cap=DEFAULT_SUPPORT_CAP):
    """Exact sampling distribution of an enumerable design."""
    dz.Design.require(design, NonEnumerableError, "{} designs cannot be enumerated")
    return design.support(frame, cap)
