"""Backend parity: the numba-compiled kernels and the pure-numpy fallback
must return bit-identical samples and Monte Carlo batches (hits and
replicate values) for the same seed, because randomness enters only through
Generator.random(), one double at a time or in blocks of the same stream."""

import json
import os
import subprocess
import sys

import pytest

DRIVER = r"""
import json
import numpy as np
import surveykit as sk
from surveykit.design import RngStream
from surveykit.simulate import design_consistency_mc

frame = sk.Frame(ids=tuple(str(i) for i in range(12)),
                 mos=np.linspace(1.0, 4.0, 12))
designs = [
    sk.SRS(4, "draw_by_draw"), sk.SRS(4, "selection_rejection"),
    sk.SRS(4, "reservoir"), sk.SRS(4, "random_sort"), sk.SRSWR(5),
    sk.Bernoulli(0.4), sk.Poisson(tuple(np.linspace(0.2, 0.8, 12))),
    sk.Systematic(4), sk.SystematicPPS(3), sk.PPSWR(4, "cumulative"),
    sk.PPSWR(4, "lahiri"), sk.Chao(3),
    sk.RejectivePoisson(3, tuple(sk.compute_pips(np.linspace(1, 4, 12), 3) * 0.9)),
]
small = sk.Frame(ids=("a", "b", "c", "d"), mos=np.array([10.0, 20.0, 30.0, 40.0]))
yframe = sk.Frame(ids=frame.ids, mos=frame.mos, y=np.linspace(2.0, 13.0, 12))
ysmall = sk.Frame(ids=small.ids, mos=small.mos, y=np.array([1.0, 3.0, 5.0, 15.0]))
out = {}
for k, design in enumerate(designs):
    s = sk.select(design, frame, RngStream(2024, k))
    out[type(design).__name__ + str(k)] = [s.idx.tolist(),
                                           s.multiplicity.tolist()]
    hits, vals = design_consistency_mc(design, yframe, 50, RngStream(2025, k))
    out["mc:" + type(design).__name__ + str(k)] = [hits.tolist(), vals.tolist()]
for k, design in enumerate([sk.Brewer2(), sk.Durbin2()]):
    s = sk.select(design, small, RngStream(77, k))
    out["n2" + str(k)] = [s.idx.tolist(), s.multiplicity.tolist()]
    hits, vals = design_consistency_mc(design, ysmall, 50, RngStream(78, k))
    out["mc:n2" + str(k)] = [hits.tolist(), vals.tolist()]
print(json.dumps({"backend": sk.ACTIVE_BACKEND, "draws": out}, sort_keys=True))
"""


def run_with_backend(backend):
    env = dict(os.environ, SURVEYKIT_BACKEND=backend)
    result = subprocess.run([sys.executable, "-c", DRIVER], env=env,
                            capture_output=True, text=True, timeout=600)
    assert result.returncode == 0, result.stderr
    return json.loads(result.stdout.strip().splitlines()[-1])


def numba_available():
    try:
        import numba  # noqa: F401
        return True
    except ImportError:
        return False


def test_numpy_fallback_runs():
    out = run_with_backend("numpy")
    assert out["backend"] == "numpy"
    assert len(out["draws"]) == 30  # 15 single draws, 15 MC batches


@pytest.mark.skipif(not numba_available(), reason="numba not installed")
def test_backends_draw_identical_samples():
    a = run_with_backend("numpy")
    b = run_with_backend("numba")
    assert a["backend"] == "numpy" and b["backend"] == "numba"
    assert a["draws"] == b["draws"]


def test_bad_backend_value_rejected():
    env = dict(os.environ, SURVEYKIT_BACKEND="warp")
    result = subprocess.run([sys.executable, "-c", "import surveykit"],
                            env=env, capture_output=True, text=True)
    assert result.returncode != 0
