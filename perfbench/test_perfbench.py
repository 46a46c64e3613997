"""Tests of the benchmark itself: gates count wrong answers, traced runs
emit every per-layer metric of BENCHMARK.json, and tracing leaves the
library as it found it.

    python -m pytest perfbench
"""

import json
import math
import os
import shutil
import subprocess
import sys
import time

import pytest

import run

run.load_surveykit()

import surveykit as sk  # noqa: E402
from surveykit import core, designs, kernels, simulate  # noqa: E402

import harness  # noqa: E402
from cli_session import CliSession  # noqa: E402
from exact_enum import ExactEnum  # noqa: E402
from layers import metric_names  # noqa: E402
import mc_sweep  # noqa: E402
from tracer import Summary, Tracer  # noqa: E402

ROOT = os.path.dirname(run.HERE)
with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as _f:
    SPEC = json.load(_f)


@pytest.fixture(autouse=True)
def small_sweep(monkeypatch):
    monkeypatch.setattr(mc_sweep, "R", 200)
    monkeypatch.setattr(mc_sweep, "KERNEL_DRAWS", 1)


def test_benchmark_json_lists_the_metrics_the_code_emits():
    assert [m["name"] for m in SPEC["per_layer"]] == metric_names()
    assert [w["name"] for w in SPEC["workloads"]] == list(run.WORKLOADS)


def test_untraced_run_reports_every_end_to_end_metric():
    result, lines = harness.run(run.make("mc_sweep"), 3, 0.01, trace=False)
    assert set(result["metrics"]) == {m["name"] for m in SPEC["end_to_end"]}
    assert all(m["value"] > 0 for m in result["metrics"].values())
    assert result["correct"] and result["failed"] == 0
    assert any(line.startswith("error_rate") for line in lines)


def test_wrong_mc_answer_counts_as_failed(monkeypatch):
    real = kernels.mc_poisson

    def biased(pi, R, wvec, rng):
        hits, vals = real(pi, R, wvec, rng)
        return hits, vals * 1.5

    monkeypatch.setattr(kernels, "mc_poisson", biased)
    result, _ = harness.run(run.make("mc_sweep"), 3, 0.01, trace=False)
    # bernoulli and poisson both run through mc_poisson
    assert result["failed"] == 2 and not result["correct"]
    assert result["metrics"]["success_rate"]["value"] == 1 - 2 / result["attempted"]


def test_wrong_exact_answer_counts_as_failed(monkeypatch):
    real = simulate.exact_expectation

    def off_by_one(design, frame, statistic, cap=None):
        out = real(design, frame, statistic, cap)
        return {**out, "mean": out["mean"] + 1.0}

    monkeypatch.setattr(simulate, "exact_expectation", off_by_one)
    workload = ExactEnum()
    unit = workload.run_unit(workload.setup(5), 0)
    assert unit.attempted == unit.failed == unit.wrong == 7
    assert unit.work == 0


def test_exact_enum_operations_pass():
    workload = ExactEnum()
    unit = workload.run_unit(workload.setup(5), 0)
    assert unit.attempted == 7 and unit.failed == 0 and unit.work > 0


@pytest.mark.xfail(raises=IndexError, strict=True,
                   reason="rounding sliver in _enumerate_systematic_pps; "
                          "exact_enum leaves SystematicPPS out until it is fixed")
def test_systematic_pps_enumeration_defect():
    mos = (3.405, 3.846, 2.182, 3.529, 2.311, 1.262, 1.359, 3.26, 3.238, 2.001,
           1.624, 1.199)
    frame = sk.Frame(ids=tuple(f"u{i}" for i in range(12)), mos=mos)
    dist = sk.enumerate_design(sk.SystematicPPS(3), frame)
    assert math.isclose(math.fsum(p for _, p in dist), 1.0)


def test_timed_reports_reference_seconds(monkeypatch):
    # a host on which the reference loop runs at half its nominal speed
    monkeypatch.setattr(harness, "reference_s", lambda: 2 * harness.REF_NOMINAL_S)
    unit = harness.Unit()
    assert unit.timed(lambda: time.sleep(0.02) or "done") == "done"
    assert isinstance(unit.timed(lambda: 1 / 0), ZeroDivisionError)
    assert unit.work_wall >= 0.02
    assert math.isclose(unit.work_time, unit.work_wall / 2)
    assert unit.ref == 2 * harness.REF_NOMINAL_S


def test_failed_design_adds_no_mc_work(monkeypatch):
    real = simulate.design_consistency_mc

    def broken_two_phase(design, frame, R, rng):
        if isinstance(design, sk.TwoPhase):
            raise RuntimeError("broken")
        return real(design, frame, R, rng)

    workload = run.make("mc_sweep")
    state = workload.setup(3)
    whole = workload.run_unit(state, 0)
    monkeypatch.setattr(simulate, "design_consistency_mc", broken_two_phase)
    broken = workload.run_unit(state, 0)
    assert whole.failed == 0 and whole.work == 19 * mc_sweep.R
    assert broken.failed == 1 and not broken.wrong
    # the 18 designs that passed, over the time of all 19 attempts
    assert broken.work == 18 * mc_sweep.R
    assert broken.work_wall > 0


def test_failed_command_adds_no_cli_work(monkeypatch):
    monkeypatch.setattr(CliSession, "_check_variance",
                        lambda self, state, proc: "wrong on purpose")
    workload = CliSession()
    state = workload.setup(2)
    try:
        unit = workload.run_unit(state, 0)
    finally:
        workload.cleanup(state)
    assert unit.attempted == 4 and unit.failed == 1 and unit.wrong == 1
    assert unit.work == 3


def test_launch_samples_the_reference_and_kills_a_hung_command(monkeypatch):
    import cli_session

    samples = []
    out = cli_session.launch([sys.executable, "-c", "print('ok')"], {},
                             lambda: samples.append(1))
    assert out.returncode == 0 and out.stdout == "ok\n"
    monkeypatch.setattr(cli_session, "TIMEOUT", 0.5)
    started = time.perf_counter()
    with pytest.raises(subprocess.TimeoutExpired):
        cli_session.launch([sys.executable, "-c", "import time; time.sleep(30)"], {},
                           lambda: samples.append(1))
    assert time.perf_counter() - started < 10
    assert len(samples) >= 3


def test_cli_gates_reject_wrong_outputs():
    workload = CliSession()
    state = {"jackknife": 2.5, "draw_ids": {"u1", "u2"}}
    proc = subprocess.CompletedProcess([], 0, '{"schema": 1, "value": 2.5000001}\n', "")
    assert workload._check_variance(state, proc) is not None
    proc = subprocess.CompletedProcess([], 0, '{"schema": 2, "value": 2.5}\n', "")
    with pytest.raises(ValueError):
        workload._check_variance(state, proc)
    proc = subprocess.CompletedProcess([], 0, '{"schema": 1, "value": 2.5}\n', "")
    assert workload._check_variance(state, proc) is None


@pytest.mark.parametrize("name", ["mc_sweep", "exact_enum", "cli_session"])
def test_traced_run_emits_every_per_layer_metric(name):
    result, lines = harness.run(run.make(name), 2, 0.01, trace=True)
    metrics = {k: v["value"] for k, v in result["metrics"].items()}
    assert list(metrics) == [m["name"] for m in SPEC["per_layer"]]
    assert all(math.isfinite(v) for v in metrics.values())
    # tracing overhead: traced minus untraced wall on identical work
    assert "trace.overhead_s" in metrics and metrics["trace.spans"] > 0
    assert result["correct"]
    if name == "exact_enum":
        assert all(v == 0 for k, v in metrics.items() if k.startswith("kernels."))
        assert metrics["core.enumerate_design.support_points"] > 0
    if name == "mc_sweep":
        assert metrics["simulate.design_consistency_mc.two_stage.s"] > 0
        assert metrics["designs.select.calls"] > 0
        assert 0 < metrics["designs.select.self_s"] <= metrics["designs.select.s"]
    if name == "cli_session":
        assert metrics["cli.startup_s"] > 0
        assert metrics["core.conditional_poisson_pips.calls"] >= 1
        assert metrics["calibration.solve_entropy.iterations"] > 0
        assert metrics["frame.rows_per_s"] > 0


def test_tracer_restores_the_library():
    originals = (sk.ht_total, designs.select, designs.conditional_poisson_pips,
                 core.conditional_poisson_pips, kernels.srs_reservoir)
    tracer = Tracer()
    with tracer.installed():
        assert designs.conditional_poisson_pips is not originals[2]
        sample = sk.select(sk.SRS(2, "reservoir"), sk.Frame(ids=("a", "b", "c")),
                           sk.RngStream(1))
        sk.ht_total(sample, [1.0, 2.0])
    assert (sk.ht_total, designs.select, designs.conditional_poisson_pips,
            core.conditional_poisson_pips, kernels.srs_reservoir) == originals
    summary = Summary(tracer.spans)
    assert summary.calls["designs.select"] == 1
    assert summary.calls["kernels.srs_reservoir"] == 1
    assert summary.self_time("designs.select", "kernels.") < summary.s["designs.select"]


def test_exits_nonzero_without_the_program(tmp_path):
    shutil.copytree(run.HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    out = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "mc_sweep",
                          "--seed", "1", "--seconds", "1", "--trace", "0"],
                         cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert out.returncode != 0
    assert '"metrics"' not in out.stdout
