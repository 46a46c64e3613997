"""Backend parity: the numba-compiled kernels and the pure-numpy fallback
must return bit-identical samples and Monte Carlo batches (hits and
replicate values) for the same seed, because randomness enters only through
Generator.random(), one double at a time or in blocks of the same stream."""

import json
import os
import subprocess
import sys

import numpy as np
import pytest

import surveykit as sk
from surveykit import kernels

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


# a functools.wraps spy on a fixed-count kernel counts the kernel calls of
# one select and of two batches of 50 replicates (a shared Generator, then
# monte_carlo's one substream per replicate)
SPY = r"""
import functools
import json
import numpy as np
import surveykit as sk
from surveykit import kernels
from surveykit.simulate import design_consistency_mc

calls = []
kernel = kernels.srs_reservoir

@functools.wraps(kernel)
def spy(*args):
    calls.append(1)
    return kernel(*args)

kernels.srs_reservoir = spy
frame = sk.Frame(ids=tuple(str(i) for i in range(12)), mos=np.linspace(1.0, 4.0, 12),
                 y=np.linspace(2.0, 13.0, 12))
design = sk.SRS(4, "reservoir")
out = {"backend": sk.ACTIVE_BACKEND}
for name, run in (
        ("select", lambda: sk.select(design, frame, np.random.default_rng(1))),
        ("design_consistency_mc",
         lambda: design_consistency_mc(design, frame, 50, np.random.default_rng(1))),
        ("monte_carlo", lambda: sk.monte_carlo(
            design, frame, lambda s: sk.ht_total(s, frame.y[s.idx]).value, 50, seed=2))):
    calls.clear()
    run()
    out[name] = len(calls)
print(json.dumps(out))
"""


SRC = os.path.dirname(os.path.dirname(sk.__file__))
NUMBA_STUB = os.path.join(os.path.dirname(__file__), "_numba_stub")


def run_with_backend(backend, *path, script=DRIVER):
    """The output of `script` in a fresh interpreter with the given backend,
    `path` and this checkout's package first on its PYTHONPATH."""
    env = dict(os.environ, SURVEYKIT_BACKEND=backend, PYTHONPATH=os.pathsep.join(
        [*path, SRC, *filter(None, [os.environ.get("PYTHONPATH")])]))
    result = subprocess.run([sys.executable, "-c", script], env=env,
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


def test_numba_code_path_draws_what_numpy_draws():
    """The DRIVER under a stand-in for numba (tests/_numba_stub), whose njit
    returns the function unchanged: the numba backend's code path (every
    public kernel its scalar loop, the same batched forms as on numpy)
    runs interpreted and must draw what the numpy backend draws.  The
    stand-in checks that logic only, not numba's nopython typing, its
    compilation, or its own Generator."""
    a = run_with_backend("numpy")
    b = run_with_backend("numba", NUMBA_STUB)
    assert a["backend"] == "numpy" and b["backend"] == "numba"
    assert len(b["draws"]) == 30
    assert a["draws"] == b["draws"]


def test_numba_batches_never_call_a_fixed_count_kernel():
    """Under the stand-in, a batch of a fixed-count kernel runs its batched
    form, as on numpy: the kernel, numba's compiled loop, runs only for a
    single draw.  A second Monte Carlo path, the loop once per replicate,
    would call it 50 times a batch."""
    out = run_with_backend("numba", NUMBA_STUB, script=SPY)
    assert out == {"backend": "numba", "select": 1, "design_consistency_mc": 0,
                   "monte_carlo": 0}


def test_cumulative_pps_loop_refuses_a_draw_past_the_last_unit():
    # sizes that sum to 0 put every draw at index N, as u * total rounding
    # up to the total would; the loop and the numpy kernel both refuse it
    cum = np.array([0.0, 0.0])
    with pytest.raises(IndexError, match="past the last unit"):
        kernels._ppswr_cumulative_loop(cum, 2, np.random.default_rng(1))
    with pytest.raises(IndexError):
        kernels.ppswr_cumulative(cum, 2, np.random.default_rng(1))


def test_bad_backend_value_rejected():
    env = dict(os.environ, SURVEYKIT_BACKEND="warp")
    result = subprocess.run([sys.executable, "-c", "import surveykit"],
                            env=env, capture_output=True, text=True)
    assert result.returncode != 0
