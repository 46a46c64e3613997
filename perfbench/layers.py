"""The per-layer metrics every workload reports from its traced run.

Each workload emits the same names, so a layer that a workload does not
reach reads zero there (the kernels on `exact_enum`, for instance).  Times
and counts are per unit of work (per sweep, round or session), averaged
over the traced units.  Comments note the end-to-end metric each should
move, and on which workload.
"""

import statistics

from tracer import Summary

# the 19 designs of test_criterion_9, in its order; `:` becomes `-` in the
# metric names.  They move work_per_s on mc_sweep; two_stage and two_phase
# run through the designs.select loop.
DESIGN_LABELS = (
    "srs:draw_by_draw", "srs:selection_rejection", "srs:reservoir",
    "srs:random_sort", "srswr", "bernoulli", "poisson", "systematic",
    "systematic_pps", "ppswr:cumulative", "ppswr:lahiri", "brewer2",
    "durbin2", "chao", "rejective_poisson", "stratified",
    "one_stage_cluster", "two_stage", "two_phase",
)

# scalar kernels and batched mc_* drivers in surveykit.kernels; they move
# work_per_s on mc_sweep and the simulate command on cli_session
KERNELS = (
    "srs_draw_by_draw", "srs_selection_rejection", "srs_reservoir",
    "srs_random_sort", "srswr_draws", "poisson_select", "systematic_select",
    "systematic_pps_select", "ppswr_cumulative", "ppswr_lahiri",
    "brewer2_select", "durbin2_select", "chao_select",
    "rejective_poisson_select", "mc_srs", "mc_wr_draws", "mc_poisson",
    "mc_systematic", "mc_systematic_pps", "mc_n2", "mc_chao", "mc_rejective",
)

# functions reported by their time per unit, and the workload they serve
TIMED = (
    "core.conditional_poisson_pips",   # cli_session draw (rejective)
    "core.enumerate_design",           # exact_enum ...
    "core.joint_pips",
    "core.first_order_pips",
    "simulate.sample_from_ids",
    "simulate.exact_expectation",
    "estimators.ht_total",             # ... and the simulate command
    "frame.read_frame_csv",            # every cli_session command
    "calibration.solve_entropy",       # cli_session calibrate
    "variance.jackknife_variance",     # cli_session variance
)

# added by the harness: traced minus untraced wall per unit, that as a share
# of the untraced wall, and the spans one traced unit records
TRACE = ("trace.overhead_s", "trace.overhead_share", "trace.spans")


def metric_names():
    """Every per-layer metric, in the order a traced run reports them."""
    return list(layer_metrics(Summary([]), 1)) + list(TRACE)


def design_metric(label):
    return f"simulate.design_consistency_mc.{label.replace(':', '-')}.s"


def layer_metrics(summary, units, startup=()):
    """Per-layer metrics from a span Summary over `units` traced units.
    `startup` holds the interpreter start-up times of CLI commands."""
    per = 1.0 / units
    s = lambda name: summary.s.get(name, 0.0) * per
    calls = lambda name: summary.calls.get(name, 0) * per
    count = lambda name: summary.count.get(name, 0)
    out = {}
    for k in KERNELS:
        out[f"kernels.{k}.s"] = (s(f"kernels.{k}"), "s")
        out[f"kernels.{k}.calls"] = (calls(f"kernels.{k}"), "count")
    for label in DESIGN_LABELS:
        out[design_metric(label)] = (per * summary.children_time(
            "bench.design." + label, "simulate.design_consistency_mc"), "s")
    # select() dispatch plus Sample construction, without the kernels under
    # it: work_per_s on mc_sweep (two_stage, two_phase) and cli simulate
    out["designs.select.calls"] = (calls("designs.select"), "count")
    out["designs.select.s"] = (s("designs.select"), "s")
    out["designs.select.self_s"] = (
        per * summary.self_time("designs.select", "kernels."), "s")
    # the replicate loop of the cli simulate command
    replicates = count("simulate.monte_carlo")
    out["simulate.monte_carlo.us_per_replicate"] = (
        1e6 * summary.s["simulate.monte_carlo"] / replicates if replicates else 0.0,
        "us")
    for name in TIMED:
        out[f"{name}.s"] = (s(name), "s")
    out["core.conditional_poisson_pips.calls"] = (
        calls("core.conditional_poisson_pips"), "count")
    out["core.enumerate_design.support_points"] = (
        per * count("core.enumerate_design"), "count")
    out["estimators.ht_total.calls"] = (calls("estimators.ht_total"), "count")
    rows = count("frame.read_frame_csv")
    out["frame.rows_per_s"] = (
        rows / summary.s["frame.read_frame_csv"] if rows else 0.0, "1/s")
    out["calibration.solve_entropy.iterations"] = (
        per * count("calibration.solve_entropy"), "count")
    # interpreter start until cli.main runs: every cli_session command
    out["cli.startup_s"] = (statistics.median(startup) if startup else 0.0, "s")
    return out
