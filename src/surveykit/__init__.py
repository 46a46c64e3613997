"""surveykit: design-based survey sampling at desk scale.

Probability sampling designs, Horvitz-Thompson style estimation,
allocation and boundary optimizers, calibration weighting through convex
duals, the variance-estimation family (exact, linearized, replication),
nonresponse adjustment, area-level small-area models, and an exact
enumeration / Monte Carlo harness for verifying design identities.
"""

from ._backend import ACTIVE_BACKEND
from .frame import Frame, read_frame_csv
from .design import (
    SRS, SRSWR, Bernoulli, Poisson, Systematic, SystematicPPS, PPSWR,
    Brewer2, Durbin2, Chao, RejectivePoisson, Stratified, OneStageCluster,
    TwoStage, TwoPhase, KeepAll, StratifyOnAux, PoissonOnAux, RngStream,
    load_design,
)
from .core import (
    Sample, InclusionProbs, DesignDistribution, enumerate_design,
    first_order_pips, joint_pips, compute_pips, conditional_poisson_pips,
    calibrate_rejective_working_probs,
)
from .designs import (
    select, select_srs, select_srswr, select_bernoulli, select_poisson,
    select_systematic, select_pps_wr, select_stratified,
    select_one_stage_cluster, select_two_stage, select_two_phase,
    reservoir_stream, chao_stream,
)
from .allocation import (
    AllocationProblem, Allocation, proportional_allocation,
    optimal_allocation, power_allocation, cluster_subsample_size,
    subsample_size_from_icc, two_phase_strat_rates, two_phase_reg_rate,
    repeated_survey_fractions, callback_rate, stratum_boundaries,
)
from .estimators import (
    Estimate, RegressionFit, ht_total, ht_mean, hajek_mean, hh_total,
    ratio_estimator, domain_mean, ecdf, quantile, estimating_equation_solve,
    regression_greg, post_stratify, rake, difference_estimator,
    two_phase_estimator, nonnested_combine, nonnested_regression, composite,
)
from .calibration import (
    EntropySpec, ENTROPIES, get_entropy, CalibrationProblem,
    CalibrationResult, solve_chi_square, solve_entropy, conjugate_check,
)
from .variance import (
    ht_variance_est, simplified_variance, hh_variance, linearized_variance,
    random_group_variance, jackknife_variance, make_hadamard, brr_variance,
    two_stage_variance, two_phase_variance,
)
from .diagnostics import (
    anova, design_effect, effective_sample_size, required_clusters,
    srs_sample_size, normal_quantile,
)
from .nonresponse import (
    ResponseData, fit_propensity, ps_estimator, nwa_regression_weights,
    ps_variance, gec_nonresponse,
)
from .smallarea import (
    FayHerriotModel, fit_fay_herriot, eblup, prasad_rao_mse, bootstrap_mse,
    composite_smallarea,
)
from .simulate import exact_expectation, monte_carlo

__version__ = "0.1.0"
