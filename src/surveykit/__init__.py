"""surveykit: design-based survey sampling at desk scale.

Probability sampling designs, Horvitz-Thompson style estimation,
allocation and boundary optimizers, calibration weighting through convex
duals, the variance-estimation family (exact, linearized, replication),
nonresponse adjustment, area-level small-area models, and an exact
enumeration / Monte Carlo harness for verifying design identities.

The package loads lazily (PEP 562): `import surveykit` loads only the
backend choice, so that a bad SURVEYKIT_BACKEND fails at once, and a name
such as `surveykit.ht_total` or `surveykit.kernels` loads the module it
lives in on first use.  `surveykit.X` is `surveykit.<module>.X` as it
was at that first use.
"""

from importlib import import_module as _import_module

from ._backend import ACTIVE_BACKEND

_EXPORTS = {
    "frame": ("Frame", "read_frame_csv"),
    "design": (
        "SRS", "SRSWR", "Bernoulli", "Poisson", "Systematic", "SystematicPPS",
        "PPSWR", "Brewer2", "Durbin2", "Chao", "RejectivePoisson", "Stratified",
        "OneStageCluster", "TwoStage", "TwoPhase", "KeepAll", "StratifyOnAux",
        "PoissonOnAux", "RngStream", "load_design",
    ),
    "core": (
        "Sample", "InclusionProbs", "DesignDistribution", "enumerate_design",
        "first_order_pips", "joint_pips", "compute_pips",
        "conditional_poisson_pips", "calibrate_rejective_working_probs",
    ),
    "designs": (
        "select", "select_srs", "select_srswr", "select_bernoulli",
        "select_poisson", "select_systematic", "select_pps_wr",
        "select_stratified", "select_one_stage_cluster", "select_two_stage",
        "select_two_phase", "reservoir_stream", "chao_stream",
    ),
    "allocation": (
        "AllocationProblem", "Allocation", "proportional_allocation",
        "optimal_allocation", "power_allocation", "cluster_subsample_size",
        "subsample_size_from_icc", "two_phase_strat_rates",
        "two_phase_reg_rate", "repeated_survey_fractions", "callback_rate",
        "stratum_boundaries",
    ),
    "estimators": (
        "Estimate", "RegressionFit", "ht_total", "ht_mean", "hajek_mean",
        "hh_total", "ratio_estimator", "domain_mean", "ecdf", "quantile",
        "estimating_equation_solve", "regression_greg", "post_stratify", "rake",
        "difference_estimator", "two_phase_estimator", "nonnested_combine",
        "nonnested_regression", "composite",
    ),
    "calibration": (
        "EntropySpec", "ENTROPIES", "get_entropy", "CalibrationProblem",
        "CalibrationResult", "solve_chi_square", "solve_entropy",
        "conjugate_check",
    ),
    "variance": (
        "ht_variance_est", "simplified_variance", "hh_variance",
        "linearized_variance", "random_group_variance", "jackknife_variance",
        "make_hadamard", "brr_variance", "two_stage_variance",
        "two_phase_variance",
    ),
    "diagnostics": (
        "anova", "design_effect", "effective_sample_size", "required_clusters",
        "srs_sample_size", "normal_quantile",
    ),
    "nonresponse": (
        "ResponseData", "fit_propensity", "ps_estimator",
        "nwa_regression_weights", "ps_variance", "gec_nonresponse",
    ),
    "smallarea": (
        "FayHerriotModel", "fit_fay_herriot", "eblup", "prasad_rao_mse",
        "bootstrap_mse", "composite_smallarea",
    ),
    "simulate": ("exact_expectation", "monte_carlo"),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}
_SUBMODULES = frozenset(_EXPORTS) | {"kernels"}

__all__ = sorted({"ACTIVE_BACKEND", *_MODULE_OF, *_SUBMODULES})
__version__ = "0.1.0"


def __getattr__(name):
    module = _MODULE_OF.get(name)
    if module is not None:
        # bound here on first use, as an eager import would have bound it
        value = globals()[name] = getattr(_import_module(f"{__name__}.{module}"), name)
        return value
    if name in _SUBMODULES:
        return _import_module(f"{__name__}.{name}")
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted(set(globals()) | set(_MODULE_OF) | _SUBMODULES)
