import csv
import dataclasses
import itertools
import math
import time
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import surveykit as sk
from surveykit import frame as frame_module
from surveykit.core import NonProbabilityDesignError, Sample, SupportTooLargeError
from surveykit.frame import _CSV_BLOCK, FrameError

from conftest import example_design_distribution


def support_probs_sum_to_one(dist):
    return abs(math.fsum(p for _, p in dist) - 1.0) < 1e-12


class TestEnumeration:
    def test_farm_srs_support(self, farm_frame):
        dist = sk.enumerate_design(sk.SRS(2), farm_frame)
        assert len(dist) == 6
        assert all(abs(p - 1 / 6) < 1e-15 for _, p in dist)
        assert [s for s, _ in dist] == sorted(s for s, _ in dist)

    def test_census_single_set(self, farm_frame):
        dist = sk.enumerate_design(sk.SRS(4), farm_frame)
        assert len(dist) == 1
        assert dist.support[0] == (("1", "2", "3", "4"), 1.0)

    def test_brewer_support_equals_order_enumeration(self, mos_frame):
        # oracle: sum the two draw orders for every pair by hand
        p = mos_frame.mos / mos_frame.mos.sum()
        theta = p * (1 - p) / (1 - 2 * p)
        theta = theta / theta.sum()
        expected = {}
        for i, j in itertools.permutations(range(4), 2):
            key = tuple(sorted((mos_frame.ids[i], mos_frame.ids[j])))
            expected[key] = expected.get(key, 0.0) + theta[i] * p[j] / (1 - p[i])
        dist = sk.enumerate_design(sk.Brewer2(), mos_frame)
        assert len(dist) == 6
        for ids, prob in dist:
            assert prob == pytest.approx(expected[ids], abs=1e-15)

    def test_bernoulli_support(self):
        frame = sk.Frame(ids=("a", "b", "c"))
        dist = sk.enumerate_design(sk.Bernoulli(0.5), frame)
        assert len(dist) == 8
        assert support_probs_sum_to_one(dist)

    def test_support_cap(self, farm_frame):
        with pytest.raises(SupportTooLargeError):
            sk.enumerate_design(sk.SRS(2), farm_frame, cap=3)

    def test_streaming_designs_not_enumerable(self, mos_frame):
        with pytest.raises(Exception):
            sk.enumerate_design(sk.Chao(2), mos_frame)

    def test_every_enumerable_design_is_a_distribution(self, mos_frame, farm_frame):
        designs = [
            (sk.SRS(2), farm_frame),
            (sk.Bernoulli(0.3), farm_frame),
            (sk.Poisson((0.2, 0.4, 0.6, 0.8)), farm_frame),
            (sk.Systematic(2), farm_frame),
            (sk.SystematicPPS(2), mos_frame),
            (sk.Brewer2(), mos_frame),
            (sk.Durbin2(), mos_frame),
            (sk.RejectivePoisson(2, (0.2, 0.4, 0.6, 0.8)), mos_frame),
        ]
        for design, frame in designs:
            dist = sk.enumerate_design(design, frame)
            assert support_probs_sum_to_one(dist), design
            for ids, _ in dist:
                assert set(ids) <= set(frame.ids)


class TestFirstOrder:
    def test_paper_example_design(self):
        frame = sk.Frame(ids=("1", "2", "3"))
        dist = example_design_distribution(frame, {
            ("1", "2"): 0.5, ("1", "3"): 0.25, ("2", "3"): 0.25,
        })
        assert dist.first_order() == pytest.approx([0.75, 0.75, 0.5])

    def test_srs_closed_form(self, farm_frame):
        pips = sk.first_order_pips(sk.SRS(2), farm_frame)
        assert pips.first_order == pytest.approx([0.5] * 4)

    def test_poisson_identity(self, farm_frame):
        given_pi = (0.2, 0.4, 0.6, 0.8)
        pips = sk.first_order_pips(sk.Poisson(given_pi), farm_frame)
        assert pips.first_order == pytest.approx(given_pi)

    def test_enumeration_matches_closed_forms(self, farm_frame, mos_frame):
        cases = [
            (sk.SRS(2), farm_frame),
            (sk.SRS(3), farm_frame),
            (sk.Bernoulli(0.4), farm_frame),
            (sk.Poisson((0.2, 0.4, 0.6, 0.8)), farm_frame),
            (sk.Systematic(2), farm_frame),
            (sk.SystematicPPS(2), mos_frame),
            (sk.Brewer2(), mos_frame),
            (sk.Durbin2(), mos_frame),
        ]
        for design, frame in cases:
            closed = sk.first_order_pips(design, frame).first_order
            enum = sk.enumerate_design(design, frame).first_order()
            assert np.max(np.abs(closed - enum)) < 1e-12, design

    def test_zero_mos_unit_is_named(self):
        frame = sk.Frame(ids=("u", "v", "w"), mos=np.array([0.0, 1.0, 1.0]))
        with pytest.raises(NonProbabilityDesignError, match="'u'"):
            sk.first_order_pips(sk.SystematicPPS(1), frame)

    def test_chao_endpoint_probabilities(self):
        frame = sk.Frame(ids=tuple("abcdef"),
                         mos=np.array([3.0, 1.0, 2.0, 4.0, 1.0, 1.0]))
        pi = sk.first_order_pips(sk.Chao(2), frame).first_order
        total = frame.mos.sum()
        assert pi[2:] == pytest.approx(2 * frame.mos[2:] / total)
        assert pi[:2] == pytest.approx([frame.mos[:2].sum() / total] * 2)
        assert pi.sum() == pytest.approx(2.0)


class TestJoint:
    def test_srs_joint_closed_form(self, farm_frame):
        jp = sk.joint_pips(sk.SRS(2), farm_frame)
        off = jp.joint[~np.eye(4, dtype=bool)]
        assert off == pytest.approx([1 / 6] * 12)
        assert np.diag(jp.joint) == pytest.approx(jp.first_order)

    def test_poisson_joint_independence(self, farm_frame):
        pi = (0.2, 0.4, 0.6, 0.8)
        jp = sk.joint_pips(sk.Poisson(pi), farm_frame)
        expected = np.outer(pi, pi)
        np.fill_diagonal(expected, pi)
        assert np.allclose(jp.joint, expected)

    def test_brewer_joint_matches_enumeration(self, mos_frame):
        jp = sk.joint_pips(sk.Brewer2(), mos_frame)
        enum = sk.enumerate_design(sk.Brewer2(), mos_frame).joint()
        assert np.max(np.abs(jp.joint - enum)) < 1e-12

    def test_systematic_flagged_not_measurable(self, farm_frame):
        jp = sk.joint_pips(sk.Systematic(2), farm_frame)
        assert not jp.measurable
        assert np.any(jp.joint == 0.0)

    def test_fixed_size_lemma(self, mos_frame, farm_frame):
        # sum_i pi_i = n and sum_j pi_ij = n pi_i for fixed-size designs
        for design, frame, n in [
            (sk.SRS(2), farm_frame, 2),
            (sk.Brewer2(), mos_frame, 2),
            (sk.Durbin2(), mos_frame, 2),
            (sk.SystematicPPS(2), mos_frame, 2),
            (sk.RejectivePoisson(2, (0.2, 0.4, 0.6, 0.8)), mos_frame, 2),
        ]:
            jp = sk.joint_pips(design, frame)
            assert jp.first_order.sum() == pytest.approx(n, abs=1e-10)
            assert jp.joint.sum(axis=1) == pytest.approx(n * jp.first_order, abs=1e-10)

    def test_joint_bounded_by_marginals(self, mos_frame):
        jp = sk.joint_pips(sk.Brewer2(), mos_frame)
        bound = np.minimum.outer(jp.first_order, jp.first_order)
        assert np.all(jp.joint <= bound + 1e-12)


class TestComputePips:
    def test_equal_mos(self):
        assert sk.compute_pips([1, 1, 1, 1], 2) == pytest.approx([0.5] * 4)

    def test_paper_mos_frame(self):
        assert sk.compute_pips([10, 20, 30, 40], 2) == pytest.approx([0.2, 0.4, 0.6, 0.8])

    def test_one_capping_round(self):
        assert sk.compute_pips([1, 1, 8], 2) == pytest.approx([0.5, 0.5, 1.0])

    def test_too_few_positive(self):
        with pytest.raises(ValueError):
            sk.compute_pips([0.0, 0.0, 1.0], 2)

    @given(st.lists(st.floats(0.1, 50), min_size=3, max_size=10),
           st.integers(1, 3))
    @settings(max_examples=50, deadline=None)
    def test_sums_to_n_and_bounded(self, mos, n):
        pi = sk.compute_pips(mos, n)
        assert pi.sum() == pytest.approx(n, abs=1e-9)
        assert np.all(pi <= 1 + 1e-12) and np.all(pi > 0)


class TestRejective:
    def test_conditional_marginals_via_enumeration(self):
        work = np.array([0.15, 0.3, 0.55, 0.7, 0.2])
        dp = sk.conditional_poisson_pips(work, 3)
        frame = sk.Frame(ids=tuple("abcde"))
        dist = sk.enumerate_design(sk.RejectivePoisson(3, tuple(work)), frame)
        assert np.max(np.abs(dp - dist.first_order())) < 1e-12

    def test_memoized_marginals_are_read_only(self):
        # the cache hands out one array; a write into it would change the
        # pi every later draw reports
        frame = sk.Frame(ids=tuple("abcdef"), mos=np.arange(1.0, 7.0))
        design = sk.RejectivePoisson(2)
        before = sk.select(design, frame, np.random.default_rng(3))
        pi = sk.first_order_pips(design, frame).first_order
        with pytest.raises(ValueError, match="read-only"):
            pi[:] = 0.5
        after = sk.select(design, frame, np.random.default_rng(3))
        assert after.pi.tobytes() == before.pi.tobytes()

    def test_working_prob_calibration(self):
        target = sk.compute_pips([5, 10, 15, 20, 25], 2)
        work = sk.calibrate_rejective_working_probs(target, 2, tol=1e-8)
        achieved = sk.conditional_poisson_pips(work, 2)
        assert np.max(np.abs(achieved - target)) < 1e-8

    @pytest.mark.parametrize("N, n", [(1, 1), (4, 1), (8, 4), (12, 3), (16, 5), (16, 15)])
    def test_marginals_match_enumeration(self, N, n):
        work = np.random.default_rng(N + n).uniform(0.05, 0.95, N)
        frame = sk.Frame(ids=tuple(map(str, range(N))))
        exact = sk.enumerate_design(sk.RejectivePoisson(n, tuple(work)), frame).first_order()
        assert np.max(np.abs(sk.conditional_poisson_pips(work, n) - exact)) < 1e-12

    def test_marginals_within_ulps_of_the_leave_one_out_form(self):
        # P(the other units take n - 1) from a full Poisson-binomial pass
        # without each unit in turn: the O(N^3) form the tables replace
        def pmf(p):
            out = np.zeros(p.size + 1)
            out[0] = 1.0
            for k, q in enumerate(p):
                out[1:k + 2] = out[1:k + 2] * (1 - q) + out[:k + 1] * q
                out[0] *= 1 - q
            return out

        work = sk.compute_pips(np.random.default_rng(4).uniform(1, 4, 60), 12) * 0.9
        pi = sk.conditional_poisson_pips(work, 12)
        loo = np.array([work[i] * pmf(np.delete(work, i))[11] for i in range(60)])
        assert np.max(np.abs(pi / (loo / pmf(work)[12]) - 1)) < 1e-13

    def test_marginals_sum_to_n_on_a_large_frame(self):
        work = sk.compute_pips(np.random.default_rng(2).uniform(1, 4, 2000), 200) * 0.9
        pi = sk.conditional_poisson_pips(work, 200)
        assert abs(pi.sum() - 200) < 1e-12
        assert np.all((pi > 0) & (pi < 1))

    def test_marginals_time_budget(self):
        # the leave-one-out form takes about 16 s here; the tables about 30 ms
        work = sk.compute_pips(np.random.default_rng(3).uniform(1, 4, 2000), 200) * 0.95
        start = time.perf_counter()
        sk.conditional_poisson_pips(work, 200)
        assert time.perf_counter() - start < 2.0

    def test_size_of_zero_probability_raises(self):
        with pytest.raises(ValueError, match="zero probability"):
            sk.conditional_poisson_pips([0.5, 0.5, 0.0, 0.0], 3)

    def test_working_prob_calibration_on_a_large_frame(self):
        target = sk.compute_pips(np.random.default_rng(5).uniform(1, 4, 400), 40)
        work = sk.calibrate_rejective_working_probs(target, 40, tol=1e-8)
        assert np.max(np.abs(sk.conditional_poisson_pips(work, 40) - target)) < 1e-8


class TestFrameCSV:
    def test_round_trip(self, tmp_path):
        text = "id,mos,stratum,y,x1,x2\nu1,2.5,a,1.0,0.1,0.2\nu2,3.5,b,2.0,0.3,0.4\n"
        path = tmp_path / "frame.csv"
        path.write_text(text, encoding="utf-8")
        frame = sk.read_frame_csv(str(path))
        assert frame.ids == ("u1", "u2")
        assert frame.mos == pytest.approx([2.5, 3.5])
        assert frame.stratum == ("a", "b")
        assert frame.aux.shape == (2, 2)

    def test_bad_row_reports_line(self):
        with pytest.raises(Exception, match="row 3"):
            sk.read_frame_csv("id,y\nu1,1.0\nu2,oops\n")

    @pytest.mark.parametrize("column", ["mos", "y", "x2"])
    def test_bad_cell_in_a_large_frame_reports_its_row(self, column):
        # columns parse in one numpy call; a bad cell still names its row
        header = ["id", "mos", "y", "x1", "x2"]
        rows = [[f"u{i}", "1.5", f"{i}.25", "0.5", "-0"] for i in range(5000)]
        rows[3456][header.index(column)] = "1.0.0"
        text = "\n".join(",".join(r) for r in [header, *rows]) + "\n\n"
        with pytest.raises(FrameError, match=r"^row 3458: .*'1\.0\.0'"):
            sk.read_frame_csv(text)
        rows[3456][header.index(column)] = " 1_000 "
        frame = sk.read_frame_csv("\n".join(",".join(r) for r in [header, *rows]))
        value = frame.aux[3456, 1] if column == "x2" else getattr(frame, column)[3456]
        assert value == 1000.0
        assert frame.aux.flags.c_contiguous and frame.aux.shape == (5000, 2)

    def test_bad_cell_above_a_short_row_is_reported_first(self):
        with pytest.raises(FrameError, match="row 3: could not convert"):
            sk.read_frame_csv("id,y\nu1,1.0\nu2,oops\nu3\n")

    @pytest.mark.parametrize("header", ["id,mos,mos", "id, mos,mos ", "mos,id,mos"])
    def test_repeated_column_is_named(self, header):
        with pytest.raises(FrameError, match="^frame CSV repeats column 'mos'$"):
            sk.read_frame_csv(f"{header}\nu1,1,2\nu2,3,4\n")

    def test_read_time_budget(self, tmp_path):
        # 50k rows of id and 4 numbers, as CLI calibrate reads them: about
        # 80 ms on a shared 2-core VM, where the csv.reader row loop took
        # 110-140 ms
        gen = np.random.default_rng(6)
        values = np.round(gen.uniform(0.5, 4.0, (50_000, 4)), 3).tolist()
        path = tmp_path / "frame.csv"
        path.write_text("id,mos,x1,x2,x3\n" + "".join(
            f"u{i},{a},{b},{c},{d}\n" for i, (a, b, c, d) in enumerate(values)),
            encoding="utf-8")
        start = time.perf_counter()
        frame = sk.read_frame_csv(str(path))
        assert time.perf_counter() - start < 0.25
        assert frame.aux.shape == (50_000, 3) and frame.mos.tolist() == [r[0] for r in values]

    @pytest.mark.parametrize("N", [5, _CSV_BLOCK + 5])
    def test_table_fills_blank_cells_and_orders_x_columns(self, N):
        # the one reader of every CLI table: a blank cell takes its column's
        # fill, x1..xk come in numeric order, and other columns are not read
        rows = [f"{i},{'' if i % 7 == 3 else i / 2},7,{-i},u{i},{2 * i}" for i in range(N)]
        text = "\n".join(["x10,b,xid,x2,id,x1", *rows]) + "\n"
        columns, x = frame_module._read_table(text, "test", ["b"], ["id", "c"],
                                              fill={"b": -1.0})
        assert list(columns) == ["id", "b"]
        assert columns["id"] == tuple(f"u{i}" for i in range(N))
        assert columns["b"].tolist() == [-1.0 if i % 7 == 3 else i / 2 for i in range(N)]
        assert x.tolist() == [[2 * i, -i, i] for i in range(N)] and x.flags.c_contiguous
        with pytest.raises(FrameError, match="^row 5: could not convert string to float: ''$"):
            frame_module._read_table(text, "test", ["b"])
        with pytest.raises(FrameError, match="^test CSV has no 'c' column$"):
            frame_module._read_table(text, "test", ["b", "c"])

    def test_study_column_past_the_frame_is_refused(self):
        # y_column(j) and y_values(j) returned the one y column for any j
        one = sk.Frame(ids=tuple("abc"), y=[1.0, 2.0, 3.0])
        two = sk.Frame(ids=tuple("abc"), y=[[1.0, 4.0], [2.0, 5.0], [3.0, 6.0]])
        for frame, m in ((one, 1), (two, 2)):
            sample = sk.Sample(frame, np.array([0, 2]), np.array([0.5, 0.5]))
            for j in range(m):
                assert sample.y_values(j).tolist() == frame.y_column(j)[[0, 2]].tolist()
            for j in (m, m + 2, -1):
                for read in (frame.y_column, sample.y_values):
                    with pytest.raises(FrameError, match=f"^frame has {m} study "
                                       rf"column\(s\), so no column {j}$"):
                        read(j)
        assert one.y_column(0) is one.y and two.y_column(1).tolist() == [4.0, 5.0, 6.0]

    def test_duplicate_ids_rejected(self):
        with pytest.raises(Exception, match="unique"):
            sk.Frame(ids=("a", "a"))

    def test_id_index_is_built_on_first_lookup(self):
        frame = sk.Frame(ids=("a", "7", "c"))
        assert frame._index is None
        assert (frame.index_of("c"), frame.index_of(7)) == (2, 1)
        with pytest.raises(KeyError):
            frame.index_of("d")

    def test_cluster_must_nest_in_stratum(self):
        with pytest.raises(Exception, match="spans"):
            sk.Frame(ids=("1", "2"), stratum=("s1", "s2"), cluster=("c", "c"))


class TestFrameArrays:
    """A frame's caches assume its arrays never change: it holds read-only
    copies."""

    def test_arrays_are_read_only(self):
        frame = sk.Frame(ids=tuple("abc"), mos=np.array([1.0, 2.0, 3.0]),
                         aux=np.ones((3, 2)), y=np.array([4.0, 5.0, 6.0]))
        for values in (frame.mos, frame.aux, frame.y):
            with pytest.raises(ValueError, match="read-only"):
                values[0] = 7.0

    def test_the_callers_array_is_copied(self):
        mos = np.array([1.0, 2.0, 3.0, 1.5, 2.5, 4.0])
        y, aux = np.arange(6.0), np.ones((6, 1))
        frame = sk.Frame(ids=tuple("abcdef"), mos=mos, aux=aux, y=y)
        pips = sk.first_order_pips(sk.RejectivePoisson(2), frame).first_order.copy()
        mos[5], y[0], aux[0, 0] = 7.0, -1.0, -1.0
        assert frame.mos[5] == 4.0 and frame.y[0] == 0.0 and frame.aux[0, 0] == 1.0
        after = sk.first_order_pips(sk.RejectivePoisson(2), frame).first_order
        assert after.tobytes() == pips.tobytes()
        fresh = sk.Frame(ids=frame.ids, mos=np.array([1.0, 2.0, 3.0, 1.5, 2.5, 4.0]))
        assert sk.first_order_pips(sk.RejectivePoisson(2), fresh).first_order.tobytes() \
            == pips.tobytes()


def per_row_blocks(rows, width):
    """Every CSV row checked on its own: the reference for `_row_blocks`."""
    lines, block = [], []
    for lineno, row in enumerate(rows, start=2):
        if not "".join(row).strip():
            continue
        if len(row) != width:
            if block:
                yield lines, block
            raise FrameError(f"row {lineno}: expected {width} fields, got {len(row)}")
        lines.append(lineno)
        block.append(row)
    if block:
        yield lines, block


def per_row_columns(handle, width, id_col):
    """The whole CSV through csv.reader and `per_row_blocks`: the reference
    for `_column_blocks`."""
    for lines, rows in per_row_blocks(csv.reader(handle), width):
        yield lines, list(zip(*rows))


COLUMN_BLOCKS, PLAIN_COLUMNS = frame_module._column_blocks, frame_module._plain_columns


class TestFrameCSVBlocks:
    """Plain blocks split in one pass, blocks that go through csv.reader,
    and blocks that fall back to the row loop read as the per-row reference
    reads them."""

    FAULTS = {
        "blank": "",
        "spaces": "   ",
        "blank-cells": " , ,\t, ",
        "short": "v1,2",
        "bad-cell": "v1,2,oops,3",
    }

    @staticmethod
    def text(N, inserts=()):
        lines = [f"u{i},{1 + i % 4},{i}.5,{i % 9}" for i in range(N)]
        for pos, line in sorted(inserts, reverse=True):
            lines.insert(pos, line)
        return "\n".join(["id,mos,y,x1", *lines]) + "\n"

    @staticmethod
    def read(source, monkeypatch, blocks=COLUMN_BLOCKS, plain=PLAIN_COLUMNS):
        monkeypatch.setattr(frame_module, "_column_blocks", blocks)
        monkeypatch.setattr(frame_module, "_plain_columns", plain)
        try:
            f = sk.read_frame_csv(source)
        except (FrameError, csv.Error) as exc:
            return str(exc)
        return f.ids, f.mos.tobytes(), f.y.tobytes(), f.aux.tobytes()

    def both(self, source, monkeypatch):
        """The block reader's result and the reference's; the block reader
        reads the same with every block sent through csv.reader."""
        fast = self.read(source, monkeypatch)
        assert self.read(source, monkeypatch, plain=lambda *_: None) == fast
        return fast, self.read(source, monkeypatch, per_row_columns)

    @pytest.mark.parametrize("N", [_CSV_BLOCK - 1, _CSV_BLOCK, _CSV_BLOCK + 1])
    def test_clean_frame(self, N, monkeypatch):
        fast, slow = self.both(self.text(N), monkeypatch)
        assert fast == slow and len(fast[0]) == N

    @pytest.mark.parametrize("fault", FAULTS)
    @pytest.mark.parametrize("N", [_CSV_BLOCK - 1, _CSV_BLOCK, _CSV_BLOCK + 1])
    @pytest.mark.parametrize("shift", [-1, 0, 1])
    def test_fault_near_the_block_edge(self, fault, N, shift, monkeypatch):
        pos = min(N, _CSV_BLOCK + shift)
        fast, slow = self.both(self.text(N, [(pos, self.FAULTS[fault])]), monkeypatch)
        assert fast == slow
        if fault in ("short", "bad-cell"):
            assert fast.startswith(f"row {pos + 2}: ")
        else:
            assert len(fast[0]) == N

    def test_bad_cell_in_the_first_block_is_reported_before_a_short_row(self, monkeypatch):
        text = self.text(_CSV_BLOCK + 50, [(30, self.FAULTS["bad-cell"]),
                                           (_CSV_BLOCK + 20, self.FAULTS["short"])])
        fast, slow = self.both(text, monkeypatch)
        assert fast == slow == "row 32: could not convert string to float: 'oops'"

    def test_short_row_above_a_bad_cell_is_reported_first(self, monkeypatch):
        text = self.text(_CSV_BLOCK + 50, [(_CSV_BLOCK + 5, self.FAULTS["short"]),
                                           (_CSV_BLOCK + 9, self.FAULTS["bad-cell"])])
        fast, slow = self.both(text, monkeypatch)
        assert fast == slow == f"row {_CSV_BLOCK + 7}: expected 4 fields, got 2"

    def test_blank_block_only(self, monkeypatch):
        fast, slow = self.both("id,y\n" + "\n" * (_CSV_BLOCK + 3), monkeypatch)
        assert fast == slow == "frame is empty"

    QUOTED = ['"a,b{i}",2,1.5,3', '"q""{i}",2,1.5,3', '"line\nbreak{i}",2,1.5,3']

    @pytest.mark.parametrize("tail", ["", "bad-cell", "short"])
    def test_quoted_ids_from_block_three(self, tail, monkeypatch):
        # the third block has quoted ids, one with a newline in it, so csv
        # rows and lines part from there on; errors name the csv row
        first = 2 * _CSV_BLOCK + 7
        inserts = [(first + 40 * k, self.QUOTED[k % 3].format(i=k)) for k in range(25)]
        if tail:
            inserts.append((first + 1000, self.FAULTS[tail]))
        fast, slow = self.both(self.text(3 * _CSV_BLOCK, inserts), monkeypatch)
        assert fast == slow
        if tail:  # below the 25 quoted rows
            assert fast.startswith(f"row {first + 1000 + 25 + 2}: ")
        else:
            assert {"a,b0", 'q"1', "line\nbreak2"} <= set(fast[0])

    @pytest.mark.parametrize("id_last", [False, True], ids=["id-first", "id-last"])
    @pytest.mark.parametrize("final", ["\n", ""], ids=["final-newline", "no-final-newline"])
    @pytest.mark.parametrize("eol", ["\n", "\r\n"], ids=["lf", "crlf"])
    @pytest.mark.parametrize("N", [3, _CSV_BLOCK, _CSV_BLOCK + 1])
    def test_line_ends(self, N, eol, final, id_last, tmp_path, monkeypatch):
        lines = self.text(N).splitlines()
        if id_last:  # a CR would stay on the ids
            lines = [",".join(cells[1:] + cells[:1]) for cells in (ln.split(",") for ln in lines)]
        text = eol.join(lines) + final.replace("\n", eol)
        path = tmp_path / "frame.csv"
        path.write_bytes(text.encode("utf-8"))
        for source in (text, str(path)):
            fast, slow = self.both(source, monkeypatch)
            assert fast == slow and len(fast[0]) == N

    @pytest.mark.parametrize("pos", [5, _CSV_BLOCK + 5])
    @pytest.mark.parametrize("row", [
        "w1,1_000,١٢,3",  # cells float() reads and np.loadtxt would not
        " , ,\t, ",  # whitespace-only cells
        ",2,3.5,4",  # a blank id in a full row
        "  ,2,3.5,4",  # a whitespace id in a full row
        "x" * (csv.field_size_limit() + 1) + ",2,3.5,4",  # past csv's field limit
    ], ids=["digits", "whitespace-row", "blank-id", "whitespace-id", "long-cell"])
    def test_rows_a_plain_block_cannot_hold(self, row, pos, monkeypatch):
        fast, slow = self.both(self.text(2 * _CSV_BLOCK, [(pos, row)]), monkeypatch)
        assert fast == slow
        if row.startswith("w1"):
            assert fast[0][pos] == "w1"
            assert np.frombuffer(fast[1])[pos] == 1000.0
            assert np.frombuffer(fast[2])[pos] == 12.0

    def test_plain_blocks_bypass_csv_reader(self, monkeypatch):
        starts, row_blocks = [], frame_module._row_blocks

        def counted(rows, width, start):
            starts.append(start)
            return row_blocks(rows, width, start)

        monkeypatch.setattr(frame_module, "_row_blocks", counted)
        assert sk.read_frame_csv(self.text(3 * _CSV_BLOCK + 5)).n_units == 3 * _CSV_BLOCK + 5
        assert starts == []
        text = self.text(3 * _CSV_BLOCK, [(2 * _CSV_BLOCK + 3, '"q",1,2,3')])
        assert sk.read_frame_csv(text).n_units == 3 * _CSV_BLOCK + 1
        assert starts == [2 * _CSV_BLOCK + 2]


class TestSampleChecks:
    @pytest.mark.parametrize("idx, pi, bad", [
        ([0, 1], [0.5, 1.5], "b"),  # 'a' is fine and has the smallest pi
        ([0, 1, 2], [0.5, 0.0, -0.5], "b"),  # the smallest pi is 'c'
        ([2, 0, 1], [1.0, 2.0, 0.0], "a"),  # idx order, not frame order
        ([0, 1], [0.5, np.nan], "b"),  # NaN is not a probability
        ([0, 1, 2], [np.nan, 0.5, 2.0], "a"),
    ])
    def test_first_unit_outside_the_unit_interval_is_named(self, idx, pi, bad):
        frame = sk.Frame(ids=("a", "b", "c"))
        with pytest.raises(NonProbabilityDesignError,
                           match=f"^unit '{bad}' carries an inclusion probability"):
            Sample(frame, idx, pi)

    def test_index_table_names_the_same_unit(self):
        frame = sk.Frame(ids=("a", "b", "c"))
        pi = np.array([0.5, 1.5, 0.0])
        rows = np.array([[0, 3], [0, 1], [1, 2]])  # the pad is N = 3
        with pytest.raises(NonProbabilityDesignError) as expected:
            Sample(frame, [0, 1], pi[[0, 1]])
        with pytest.raises(NonProbabilityDesignError) as raised:
            list(Sample._of_rows(frame, rows, np.append(pi, 1.0)[rows]))
        assert str(raised.value) == str(expected.value)
        assert "'b'" in str(raised.value)

    @pytest.mark.parametrize("with_counts", [False, True])
    def test_index_table_refuses_nan(self, with_counts):
        frame = sk.Frame(ids=("a", "b", "c"))
        pi = np.array([0.5, np.nan, 0.5])
        rows = np.array([[0, 2], [0, 1]])
        counts = np.ones_like(rows) if with_counts else None
        with pytest.raises(NonProbabilityDesignError,
                           match="^unit 'b' carries an inclusion probability"):
            list(Sample._of_rows(frame, rows, np.append(pi, 1.0)[rows], counts))

    def test_index_table_conditional_pi_and_labels_are_the_constructors(self):
        frame = sk.Frame(ids=tuple("abcdef"), cluster=tuple("xxyyzz"))
        rows = np.array([[0, 1, 4], [2, 6, 6], [6, 6, 6], [1, 3, 5]])  # the pad is N = 6
        pi = np.where(rows < 6, np.arange(1.0, 13.0).reshape(4, 3) / 16, 1.0)
        cond = np.where(rows < 6, 0.5, 1.0)
        samples = list(Sample._of_rows(frame, rows, pi, conditional_pi=cond,
                                       labels=frame.cluster, design_tag="two_stage"))
        assert len(samples) == 4
        for s, row, p, c in zip(samples, rows, pi, cond):
            w = np.count_nonzero(row < 6)
            ref = Sample(frame, row[:w], p[:w], conditional_pi=c[:w], design_tag="two_stage",
                         psu_labels=tuple(frame.cluster[i] for i in row[:w]))
            for f in dataclasses.fields(Sample):
                a, b = getattr(s, f.name), getattr(ref, f.name)
                if isinstance(b, np.ndarray):
                    assert a.dtype == b.dtype and a.tobytes() == b.tobytes(), f.name
                else:
                    assert a == b, f.name
            assert s.weights.tobytes() == ref.weights.tobytes()
            assert not (s.idx.flags.writeable or s.pi.flags.writeable
                        or s.conditional_pi.flags.writeable)

    @pytest.mark.parametrize("case", ["fixed", "ragged", "drawn", "nested"])
    def test_batched_samples_hold_the_constructors_fields(self, case):
        frame = sk.Frame(ids=tuple("abcde"), cluster=tuple("xxyyz"))
        kwargs = {}
        if case == "fixed":
            rows = sk.enumerate_design(sk.SRS(3), frame)._table()[0]
        elif case == "ragged":  # the empty set is the all-pads row
            rows = sk.enumerate_design(sk.Poisson((0.5, 0.4, 0.3, 0.2, 0.6)), frame)._table()[0]
            assert (rows == 5).all(axis=1).any()
        else:
            rows = np.array([[0, 2, 5], [1, 5, 5], [0, 3, 4], [5, 5, 5]])  # the pad is N = 5
            if case == "drawn":
                kwargs = dict(multiplicity=np.array([[2, 1, 0], [3, 0, 0], [1, 1, 1], [0, 0, 0]]),
                              design_tag="srswr", flags=("resampled",), with_replacement=True)
            else:
                kwargs = dict(conditional_pi=np.where(rows < 5, 0.5, 1.0), labels=frame.cluster,
                              design_tag="two_stage", flags=(), with_replacement=False)
        pi = np.where(rows < 5, (rows + 1) / 8, 1.0)
        samples = list(Sample._of_rows(frame, rows, pi, **kwargs))
        assert len(samples) == len(rows)
        defaults = {f.name: f.default for f in dataclasses.fields(Sample)}
        for r, s in enumerate(samples):
            w = np.count_nonzero(rows[r] < 5)
            tables = {name: kwargs[name][r, :w]
                      for name in ("multiplicity", "conditional_pi") if name in kwargs}
            if "labels" in kwargs:
                tables["psu_labels"] = tuple(frame.cluster[i] for i in rows[r, :w])
            drawn = {name: kwargs[name] for name in ("design_tag", "flags", "with_replacement")
                     if name in kwargs}
            ref = Sample(frame, rows[r, :w], pi[r, :w], **tables, **drawn)
            s.weights, ref.weights  # both cache their weights
            # the constructor writes every field; a batched Sample leaves out the defaults
            want = {name: v for name, v in vars(ref).items()
                    if not (v is defaults.get(name) or (type(v) is type(defaults.get(name))
                                                        and v == defaults[name]))}
            got = vars(s)
            assert got.keys() == want.keys()
            for name, v in want.items():
                if isinstance(v, np.ndarray):
                    assert (got[name].dtype, got[name].shape, got[name].tobytes()) == \
                        (v.dtype, v.shape, v.tobytes()), name
                else:
                    assert got[name] == v, name
        present = {"drawn": {"design_tag", "flags", "with_replacement"},
                   "nested": {"design_tag", "conditional_pi", "psu_labels"}}.get(case, set())
        assert vars(samples[0]).keys() - {"frame", "idx", "pi", "multiplicity", "weights"} == \
            present

    @pytest.mark.parametrize("design", [
        sk.Stratified({"a": sk.SRS(1), "b": sk.Poisson((0.5, 0.6))}),
        sk.OneStageCluster(sk.SRS(2)),
        sk.TwoStage(sk.SRS(2), sk.Bernoulli(0.6)),
    ], ids=lambda d: d.key)
    def test_composed_samples_are_read_only_views(self, design):
        frame = sk.Frame(ids=tuple("abcdef"), stratum=tuple("aaaabb"), cluster=tuple("xxyyzz"))
        samples = list(design.samples(frame, 20, np.random.default_rng(4)))
        samples.append(sk.select(design, frame, np.random.default_rng(4)))
        for s in samples:
            for a in (s.idx, s.pi, s.multiplicity, s.conditional_pi):
                assert a is None or not a.flags.writeable
            with pytest.raises(ValueError, match="read-only"):
                s.pi[:1] = 0.5


class TestWeights:
    """The per-set estimator path: weights computed once per Sample, and
    ht_total as the dot product of weights and y."""

    @staticmethod
    def samples(gen, N=40):
        frame = sk.Frame(ids=tuple(map(str, range(N))), y=gen.normal(8, 3, N))
        for n in (0, 1, 2, 7, 9, 17, 33):
            idx = np.sort(gen.choice(N, n, replace=False))
            pi = gen.uniform(0.01, 1.0, n)
            yield Sample(frame, idx, pi)
            mult = gen.integers(1, 4, n)
            yield Sample(frame, idx, pi, multiplicity=mult, with_replacement=True)

    def test_ht_total_is_the_weighted_sum_to_the_bit(self):
        gen = np.random.default_rng(11)
        for s in self.samples(gen):
            for y in (gen.normal(size=s.idx.size), gen.normal(size=3 * s.idx.size)[::3]):
                total = sk.ht_total(s, y)
                assert np.float64(total.value).tobytes() == \
                    np.float64(float(s.weights @ y)).tobytes()
                assert total.method == ("hansen_hurwitz" if s.with_replacement
                                        else "horvitz_thompson")

    def test_weights_are_computed_once(self):
        gen = np.random.default_rng(12)
        for s in self.samples(gen):
            expect = (s.multiplicity / (s.n * s.pi) if s.with_replacement
                      else s.multiplicity / s.pi)
            assert s.weights is s.weights
            assert s.weights.tobytes() == expect.tobytes()

    def test_index_table_weights_are_multiplicity_over_pi(self):
        frame = sk.Frame(ids=tuple(f"u{i}" for i in range(9)),
                         mos=np.random.default_rng(3).uniform(1, 4, 9))
        pi = sk.compute_pips(frame.mos, 4)
        rows = sk.enumerate_design(sk.Poisson(tuple(pi)), frame)._table()[0]
        samples = list(Sample._of_rows(frame, rows, np.append(pi, 1.0)[rows]))
        assert len(samples) == 2 ** 9
        for s in samples:
            assert s.weights.tobytes() == (s.multiplicity / s.pi).tobytes()
            assert s.weights.tobytes() == Sample(frame, s.idx, pi[s.idx]).weights.tobytes()

    def test_a_zero_pi_unit_no_set_uses_does_not_warn(self):
        frame = sk.Frame(ids=("a", "b", "c", "d"))
        pi = np.array([0.5, 0.5, 0.0, 0.25])
        rows = np.array([[0, 1, 4], [1, 3, 4], [0, 3, 4]])  # the pad is N = 4
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            samples = list(Sample._of_rows(frame, rows, np.append(pi, 1.0)[rows]))
        assert [s.weights.tolist() for s in samples] == [[2.0, 2.0], [2.0, 4.0], [2.0, 4.0]]

    def test_estimate_takes_no_new_attributes(self):
        e = sk.Estimate(1.0, variance=-2.0)
        assert e.flags == ("negative_variance_estimate",)
        with pytest.raises(AttributeError):
            e.value_squared = 1.0
        assert sk.Estimate.__slots__ == ESTIMATE_FIELDS and not hasattr(e, "__dict__")

    def test_estimate_by_position_and_by_keyword(self):
        e = sk.Estimate(2.5, 0.25, "horvitz_thompson", 7.0, ("a",))
        assert tuple(getattr(e, name) for name in ESTIMATE_FIELDS) == \
            (2.5, 0.25, "horvitz_thompson", 7.0, ("a",))
        assert e == sk.Estimate(flags=("a",), n_effective=7.0, method="horvitz_thompson",
                                variance=0.25, value=2.5)
        assert e != sk.Estimate(2.5, 0.25, "horvitz_thompson", 7.0)
        assert dataclasses.replace(e, value=3.0) == sk.Estimate(3.0, 0.25, "horvitz_thompson",
                                                                7.0, ("a",))
        bare = sk.Estimate(1.0)
        assert tuple(getattr(bare, name) for name in ESTIMATE_FIELDS) == (1.0, None, "", None, ())
        assert sk.Estimate(1.0, method="x") == sk.Estimate(1.0, None, "x")
        assert [f.name for f in dataclasses.fields(sk.Estimate)] == list(ESTIMATE_FIELDS)
        assert sk.Estimate.__match_args__ == ESTIMATE_FIELDS and sk.Estimate.__hash__ is None
        for args, kwargs in [((), {}), ((1.0, None, "", None, (), 0), {}),
                             ((1.0,), {"value": 1.0}), ((1.0,), {"values": 1.0})]:
            with pytest.raises(TypeError):
                sk.Estimate(*args, **kwargs)

    def test_estimate_repr(self):
        assert repr(sk.Estimate(2.5, 0.25, "ratio", 7.0, ("a",))) == (
            "Estimate(value=2.5, variance=0.25, method='ratio', n_effective=7.0, flags=('a',))")
        assert repr(sk.Estimate(1.0, -1.0)) == (
            "Estimate(value=1.0, variance=-1.0, method='', n_effective=None, "
            "flags=('negative_variance_estimate',))")

    def test_negative_variance_is_flagged_once(self):
        e = sk.Estimate(1.0, -2.0, flags=("a",))
        assert e.flags == ("a", "negative_variance_estimate")
        assert sk.Estimate(1.0, -2.0, flags=e.flags).flags == e.flags
        assert sk.Estimate(1.0, variance=-2.0, flags=("negative_variance_estimate", "b")).flags \
            == ("negative_variance_estimate", "b")
        for variance in (None, 0.0, -0.0, 2.0, math.nan):
            assert sk.Estimate(1.0, variance, flags=("a",)).flags == ("a",)
        assert math.isnan(e.se) and e.ci95 is None
        e.variance = -3.0  # a later write is the caller's, as it always was
        assert e.flags == ("a", "negative_variance_estimate")


ESTIMATE_FIELDS = ("value", "variance", "method", "n_effective", "flags")
