"""The package's import layout: every module imports on its own, and the
lazy package keeps the public names it had when it imported everything."""

import json
import subprocess
import sys

import pytest

MODULES = ("_backend", "frame", "kernels", "core", "design", "designs", "estimators",
           "calibration", "variance", "diagnostics", "allocation", "nonresponse",
           "smallarea", "simulate", "cli")

# the package's public names, by the module each is taken from
PUBLIC = {
    "_backend": ["ACTIVE_BACKEND"],
    "frame": ["Frame", "read_frame_csv"],
    "design": [
        "SRS", "SRSWR", "Bernoulli", "Poisson", "Systematic", "SystematicPPS", "PPSWR",
        "Brewer2", "Durbin2", "Chao", "RejectivePoisson", "Stratified", "OneStageCluster",
        "TwoStage", "TwoPhase", "KeepAll", "StratifyOnAux", "PoissonOnAux", "RngStream",
        "load_design",
    ],
    "core": [
        "Sample", "InclusionProbs", "DesignDistribution", "enumerate_design",
        "first_order_pips", "joint_pips", "compute_pips", "conditional_poisson_pips",
        "calibrate_rejective_working_probs",
    ],
    "designs": [
        "select", "select_srs", "select_srswr", "select_bernoulli", "select_poisson",
        "select_systematic", "select_pps_wr", "select_stratified",
        "select_one_stage_cluster", "select_two_stage", "select_two_phase",
        "reservoir_stream", "chao_stream",
    ],
    "allocation": [
        "AllocationProblem", "Allocation", "proportional_allocation", "optimal_allocation",
        "power_allocation", "cluster_subsample_size", "subsample_size_from_icc",
        "two_phase_strat_rates", "two_phase_reg_rate", "repeated_survey_fractions",
        "callback_rate", "stratum_boundaries",
    ],
    "estimators": [
        "Estimate", "RegressionFit", "ht_total", "ht_mean", "hajek_mean", "hh_total",
        "ratio_estimator", "domain_mean", "ecdf", "quantile", "estimating_equation_solve",
        "regression_greg", "post_stratify", "rake", "difference_estimator",
        "two_phase_estimator", "nonnested_combine", "nonnested_regression", "composite",
    ],
    "calibration": [
        "EntropySpec", "ENTROPIES", "get_entropy", "CalibrationProblem",
        "CalibrationResult", "solve_chi_square", "solve_entropy", "conjugate_check",
    ],
    "variance": [
        "ht_variance_est", "simplified_variance", "hh_variance", "linearized_variance",
        "random_group_variance", "jackknife_variance", "make_hadamard", "brr_variance",
        "two_stage_variance", "two_phase_variance",
    ],
    "diagnostics": [
        "anova", "design_effect", "effective_sample_size", "required_clusters",
        "srs_sample_size", "normal_quantile",
    ],
    "nonresponse": [
        "ResponseData", "fit_propensity", "ps_estimator", "nwa_regression_weights",
        "ps_variance", "gec_nonresponse",
    ],
    "smallarea": [
        "FayHerriotModel", "fit_fay_herriot", "eblup", "prasad_rao_mse", "bootstrap_mse",
        "composite_smallarea",
    ],
    "simulate": ["exact_expectation", "monte_carlo"],
}
SUBMODULES = ["allocation", "calibration", "core", "design", "designs", "diagnostics",
              "estimators", "frame", "kernels", "nonresponse", "simulate", "smallarea",
              "variance"]


def fresh(script):
    """Run a script in a new interpreter; its last stdout line, read as JSON."""
    result = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True)
    assert result.returncode == 0, result.stderr
    return json.loads(result.stdout.splitlines()[-1])


@pytest.mark.parametrize("module", MODULES)
def test_module_imports_on_its_own(module):
    loaded = fresh(f"import json, sys\nimport surveykit.{module}\n"
                   "print(json.dumps(sorted(sys.modules)))")
    assert f"surveykit.{module}" in loaded


def test_import_loads_only_the_backend_choice():
    loaded = fresh("import json, sys\nimport surveykit\n"
                   "print(json.dumps(sorted(m for m in sys.modules if m.startswith('surveykit'))))")
    assert loaded == ["surveykit", "surveykit._backend"]


def test_public_names_are_kept():
    names = sorted([n for ns in PUBLIC.values() for n in ns] + SUBMODULES)
    assert len(names) == len(set(names)) == 127
    report = fresh(
        "import importlib, json, types\n"
        "import surveykit as sk\n"
        f"public = {PUBLIC!r}\n"
        "listed = sorted(n for n in dir(sk) if not n.startswith('_'))\n"
        "star = {}\n"
        "exec('from surveykit import *', star)\n"
        "same = all(getattr(sk, n) is getattr(importlib.import_module('surveykit.' + m), n)\n"
        "           for m, ns in public.items() for n in ns)\n"
        "subs = sorted(n for n in listed if isinstance(getattr(sk, n), types.ModuleType))\n"
        "print(json.dumps({'dir': listed, 'star': sorted(k for k in star if k != '__builtins__'),\n"
        "                  'same': same, 'submodules': subs}))\n")
    assert report["dir"] == names
    assert report["star"] == names
    assert report["same"]
    assert report["submodules"] == SUBMODULES


def test_unknown_name_is_an_attribute_error():
    import surveykit

    with pytest.raises(AttributeError, match="no attribute 'nope'"):
        surveykit.nope
    assert not hasattr(surveykit, "Design")  # design.Design was never a package name
