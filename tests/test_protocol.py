"""Every design class honours the whole design protocol on one small frame.

A design class added to surveykit.design without a case here, or without
one of the protocol methods, fails these tests."""

import numpy as np
import pytest

import surveykit as sk
from surveykit.core import NonEnumerableError
from surveykit.design import Design, DesignError
from surveykit.simulate import design_consistency_mc

N = 8
R = 20

FRAME = sk.Frame(
    ids=tuple(f"u{i}" for i in range(N)),
    mos=np.array([2.0, 3.0, 2.5, 1.5, 3.0, 2.0, 3.5, 4.0]),
    stratum=tuple("aaaabbbb"),
    cluster=("c0", "c0", "c1", "c1", "c2", "c2", "c3", "c3"),
    aux=np.arange(1.0, N + 1)[:, None],
    y=2 * np.arange(1.0, N + 1),
)

# design class -> (an instance, whether its support can be enumerated)
CASES = {
    sk.SRS: (sk.SRS(3), True),
    sk.SRSWR: (sk.SRSWR(3), False),
    sk.Bernoulli: (sk.Bernoulli(0.4), True),
    sk.Poisson: (sk.Poisson(tuple(np.linspace(0.2, 0.9, N))), True),
    sk.Systematic: (sk.Systematic(3), True),
    sk.SystematicPPS: (sk.SystematicPPS(3), True),
    sk.PPSWR: (sk.PPSWR(3, "lahiri"), False),
    sk.Brewer2: (sk.Brewer2(), True),
    sk.Durbin2: (sk.Durbin2(), True),
    sk.Chao: (sk.Chao(3), False),
    sk.RejectivePoisson: (sk.RejectivePoisson(3), True),
    sk.Stratified: (sk.Stratified({"a": sk.SRS(2), "b": sk.Poisson((0.5,) * 4)}), True),
    sk.OneStageCluster: (sk.OneStageCluster(sk.SRS(2)), True),
    sk.TwoStage: (sk.TwoStage(sk.SystematicPPS(2), sk.SRS(1)), False),
    sk.TwoPhase: (sk.TwoPhase(sk.SRS(6), sk.StratifyOnAux(rate=0.5)), False),
}

DESIGN_CLASSES = sorted(Design.registry.values(), key=lambda cls: cls.key)


def test_every_design_class_has_a_case():
    assert set(CASES) == set(DESIGN_CLASSES)


@pytest.mark.parametrize("cls", DESIGN_CLASSES, ids=lambda cls: cls.key)
def test_design_honours_the_protocol(cls):
    design, enumerable = CASES[cls]
    sample = sk.select(design, FRAME, sk.RngStream(5))
    assert isinstance(sample, sk.Sample)
    if enumerable:
        pi = sk.first_order_pips(design, FRAME).first_order
        dist = sk.enumerate_design(design, FRAME)
        np.testing.assert_allclose(dist.first_order(), pi, rtol=0, atol=1e-12)
        np.testing.assert_allclose(np.diag(sk.joint_pips(design, FRAME).joint), pi,
                                   rtol=0, atol=1e-12)
    else:
        with pytest.raises(NonEnumerableError):
            sk.enumerate_design(design, FRAME)
    hits, values = design_consistency_mc(design, FRAME, R, np.random.default_rng(7))
    assert hits.shape == (N,) and values.shape == (R,)
    # one Monte Carlo replicate is exactly one select on the same stream
    for seed in range(5):
        sample = sk.select(design, FRAME, np.random.default_rng(seed))
        hits, values = design_consistency_mc(design, FRAME, 1, np.random.default_rng(seed))
        np.testing.assert_array_equal(np.flatnonzero(hits), sample.idx)
        assert set(hits[sample.idx]) == {1.0}
        total = sk.ht_total(sample, FRAME.y[sample.idx]).value
        assert values[0] == pytest.approx(total, rel=1e-12, abs=0)


def test_non_designs_are_rejected_by_every_entry_point():
    for entry in (sk.first_order_pips, sk.joint_pips, sk.enumerate_design):
        with pytest.raises(NonEnumerableError):
            entry("srs", FRAME)
    with pytest.raises(DesignError):
        sk.select("srs", FRAME, 1)
    with pytest.raises(DesignError):
        design_consistency_mc("srs", FRAME, R, np.random.default_rng(7))
