import os
from pathlib import Path

import numpy as np
import pytest

import surveykit as sk

# the interpreters tests start import this checkout too
SRC = str(Path(__file__).resolve().parents[1] / "src")
os.environ["PYTHONPATH"] = os.pathsep.join(
    [SRC, *filter(None, os.environ.get("PYTHONPATH", "").split(os.pathsep))])


@pytest.fixture
def farm_frame():
    # four farms: acreage serves as the size measure, crop yield as y
    return sk.Frame(ids=("1", "2", "3", "4"),
                    mos=np.array([4.0, 6.0, 6.0, 20.0]),
                    y=np.array([1.0, 3.0, 5.0, 15.0]))


@pytest.fixture
def business_frame():
    # employees as size, income as y
    return sk.Frame(ids=("A", "B", "C", "D"),
                    mos=np.array([100.0, 200.0, 300.0, 1000.0]),
                    y=np.array([11.0, 20.0, 24.0, 245.0]))


@pytest.fixture
def mos_frame():
    return sk.Frame(ids=("1", "2", "3", "4"),
                    mos=np.array([10.0, 20.0, 30.0, 40.0]))


def example_design_distribution(frame, table):
    """Arbitrary finite design given as {ids tuple: probability}."""
    support = tuple(sorted((tuple(sorted(k)), float(v)) for k, v in table.items()))
    return sk.DesignDistribution(support, frame)


@pytest.fixture
def three_unit_design():
    # N=3 design with unequal set probabilities and its y values
    frame = sk.Frame(ids=("1", "2", "3"), y=np.array([16.0, 21.0, 18.0]))
    dist = example_design_distribution(frame, {
        ("1", "2"): 0.4,
        ("1", "3"): 0.3,
        ("2", "3"): 0.2,
        ("1", "2", "3"): 0.1,
    })
    return frame, dist


def sample_from_distribution(frame, dist, ids):
    pi = dist.first_order()
    idx = np.asarray(sorted(frame.index_of(u) for u in ids), dtype=np.int64)
    return sk.Sample(frame, idx, pi[idx])


@pytest.fixture
def household_two_stage():
    """Three PPS-selected clusters of four households each: household size
    t and under-six count y."""
    t = np.array([[8, 7, 7, 6], [8, 12, 10, 11], [4, 5, 5, 6]], dtype=float)
    y = np.array([[2, 2, 1, 1], [0, 1, 3, 1], [2, 3, 2, 1]], dtype=float)
    return t, y
