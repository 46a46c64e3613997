"""Sample selection: `select` draws from any declarative design, and the
select_* helpers draw from one design family with plain arguments."""

from . import design as dz
# conditional_poisson_pips is importable from here: tools look it up
from .core import NonProbabilityDesignError, conditional_poisson_pips  # noqa: F401
from .design import as_generator

__all__ = [
    "select", "select_srs", "select_srswr", "select_bernoulli",
    "select_poisson", "select_systematic", "select_pps_wr",
    "select_stratified", "select_one_stage_cluster", "select_two_stage",
    "select_two_phase", "reservoir_stream", "chao_stream",
]


def select(design, frame, rng):
    """Draw one sample from `frame` according to the declarative `design`."""
    rng = as_generator(rng)
    dz.Design.require(design, dz.DesignError, "cannot select from {}")
    return design.draw(frame, rng)


def select_srs(frame, n, method="selection_rejection", rng=None):
    """Simple random sample without replacement; every unit gets pi = n/N."""
    return dz.SRS(n, method).draw(frame, as_generator(rng))


def reservoir_stream(stream, n, rng):
    """Reservoir SRS over a stream of unknown length: returns the retained
    items (any prefix stop yields an SRS of the part seen so far)."""
    rng = as_generator(rng)
    reservoir = []
    for k, item in enumerate(stream):
        if k < n:
            reservoir.append(item)
        else:
            j = int(rng.random() * (k + 1))
            if j < n:
                reservoir[j] = item
    return reservoir


def chao_stream(stream, n, rng):
    """Unequal-probability reservoir over a stream of (id, size) pairs
    (Chao 1982): arrival k enters with probability p = n * x_k / (running
    total), evicting a reservoir slot uniformly.  Each arrival past the
    first n takes one uniform u; it enters when u < p, and u / p, uniform
    on [0, 1) given that, picks the slot.  Consumes randomness exactly like
    the array kernel, so the same stream and seed reproduce the same
    reservoir."""
    rng = as_generator(rng)
    reservoir = []
    total = 0.0
    for k, (item, x) in enumerate(stream):
        x = float(x)
        if x <= 0:
            raise NonProbabilityDesignError(
                f"unit {item!r} has zero selection probability"
            )
        total += x
        if k < n:
            reservoir.append(item)
            continue
        p = n * x / total
        if p > 1 + 1e-12:
            raise ValueError("certainty units must be pre-extracted via compute_pips")
        u = rng.random()
        if u < p:
            reservoir[min(int(u / p * n), n - 1)] = item
    return reservoir


def select_srswr(frame, n, rng):
    """Simple random sampling with replacement: n draws, multiplicities kept."""
    return dz.SRSWR(n).draw(frame, as_generator(rng))


def select_bernoulli(frame, pi, rng):
    return dz.Bernoulli(pi).draw(frame, as_generator(rng))


def select_poisson(frame, pi_vec, rng):
    """Independent inclusion; the realized sample size is random."""
    return dz.Poisson(pi_vec).draw(frame, as_generator(rng))


def select_systematic(frame, n, rng):
    """Every G-th unit from a random start, G = floor(N/n)."""
    return dz.Systematic(n).draw(frame, as_generator(rng))


def select_pps_wr(frame, mos, n, method="cumulative", rng=None, bound=None):
    """PPS with replacement: n draws with P(draw = i) proportional to mos."""
    design = dz.PPSWR(n, method, bound)
    return design._sample(frame, design._bind(frame, mos), as_generator(rng))


def select_stratified(frame, per_stratum_designs, rng):
    """Independent draws within each stratum; the union is returned."""
    return dz.Stratified(per_stratum_designs).draw(frame, as_generator(rng))


def select_one_stage_cluster(frame, psu_design, rng):
    """Draw whole clusters and observe every element inside them."""
    return dz.OneStageCluster(psu_design).draw(frame, as_generator(rng))


def select_two_stage(frame, psu_design, ssu_design, rng, per_cluster=None):
    """Two-stage sampling under the invariance and independence of `TwoStage`."""
    return dz.TwoStage(psu_design, ssu_design, per_cluster).draw(frame, as_generator(rng))


def select_two_phase(frame, phase1_design, phase2_rule, rng):
    """Two-phase sampling: the phase-2 rule may read phase-1 observations."""
    return dz.TwoPhase(phase1_design, phase2_rule).draw(frame, as_generator(rng))

