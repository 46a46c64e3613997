"""Unit-nonresponse adjustment: response-propensity estimation, weighting
class and regression adjustments, and variance under the reverse framework."""

from dataclasses import dataclass

import numpy as np

from .calibration import CalibrationProblem, get_entropy, solve_entropy
from .estimators import Estimate
from .variance import _pair_coefficients, simplified_variance

__all__ = [
    "ResponseData", "fit_propensity", "ps_estimator",
    "nwa_regression_weights", "ps_variance", "gec_nonresponse",
]


@dataclass(frozen=True)
class ResponseData:
    """Survey data with unit nonresponse: delta is the response indicator,
    y holds observed values where delta = 1 (anything elsewhere is
    ignored), x the always-observed auxiliaries, w the base weights."""

    delta: np.ndarray
    x: np.ndarray
    y: np.ndarray
    w: np.ndarray = None

    def __post_init__(self):
        delta = np.asarray(self.delta, dtype=bool)
        x = np.atleast_2d(np.asarray(self.x, dtype=float))
        if x.shape[0] != delta.size:
            x = x.T
        y = np.asarray(self.y, dtype=float)
        w = np.ones(delta.size) if self.w is None else np.asarray(self.w, dtype=float)
        object.__setattr__(self, "delta", delta)
        object.__setattr__(self, "x", x)
        object.__setattr__(self, "y", y)
        object.__setattr__(self, "w", w)

    @property
    def n(self):
        return self.delta.size


def fit_propensity(data, tol=1e-8, max_iter=100):
    """Pseudo maximum likelihood for a logistic response model, by Fisher
    scoring on the weighted score sum w (delta - p) x = 0.  Separation is
    reported as an error once the coefficient norm passes 30."""
    x, delta, w = data.x, data.delta.astype(float), data.w
    if np.linalg.matrix_rank(x) < x.shape[1]:
        raise ValueError("design matrix is rank deficient")
    phi = np.zeros(x.shape[1])
    for _ in range(max_iter):
        eta = x @ phi
        p = 1 / (1 + np.exp(-eta))
        score = x.T @ (w * (delta - p))
        if np.linalg.norm(score) < tol:
            return phi
        info = (x * (w * p * (1 - p))[:, None]).T @ x
        phi = phi + np.linalg.solve(info, score)
        if np.linalg.norm(phi) > 30:
            raise RuntimeError("propensity fit diverged: response states look separated")
    raise RuntimeError(f"Fisher scoring did not converge in {max_iter} iterations")


def propensities(data, phi):
    return 1 / (1 + np.exp(-(data.x @ phi)))


def ps_estimator(data, p_hat):
    """Propensity-score estimator of the total: sum over respondents of
    w y / p_hat."""
    p = np.asarray(p_hat, dtype=float)
    r = data.delta
    value = float(np.sum(data.w[r] * data.y[r] / p[r]))
    return Estimate(value, method="propensity_score")


def nwa_regression_weights(data):
    """Regression nonresponse weights
    w_i = d_i (sum_A d x)' (sum_{A_R} d x x')^{-1} x_i on respondents;
    they calibrate the respondent x-total to the full-sample d-weighted
    total, and are design-consistent when 1/phi lies in the span of x."""
    x, r, d = data.x, data.delta, data.w
    total = x.T @ d
    gram = (x[r] * d[r][:, None]).T @ x[r]
    adj = np.linalg.solve(gram, total)
    w = np.zeros(data.n)
    w[r] = d[r] * (x[r] @ adj)
    return w


def ps_variance(data, p_hat, joint=None, pi=None):
    """Linearized variance of the PS estimator under the reverse framework:
    V1 treats the response indicators as fixed and applies the design
    variance to the influence values eta_i = b'B* + (delta/p)(y - b'B*);
    V2 = sum w (1-p)/p^2 (y - b'B*)^2 is the response variance.  The score
    case b = h = p x is used.  With `joint` alone, pi is its diagonal."""
    p = np.asarray(p_hat, dtype=float)
    if joint is not None and pi is None:
        pi = np.diag(joint)
    x, r, w, y = data.x, data.delta, data.w, data.y
    h = x * p[:, None]
    b = h
    scale = (w * (1 - p) / p ** 2)[r]
    gram = (h[r] * scale[:, None]).T @ b[r]
    rhs = (h[r] * scale[:, None]).T @ y[r]
    bstar = np.linalg.lstsq(gram, rhs, rcond=None)[0]
    fitted = b @ bstar
    eta = fitted.copy()
    eta[r] += (y[r] - fitted[r]) / p[r]
    if joint is not None:
        t = eta / pi
        v1 = float(t @ _pair_coefficients(pi, joint) @ t)
    else:
        v1 = simplified_variance(None, weighted_totals=w * eta).value
    v2 = float(np.sum(w[r] * (1 - p[r]) / p[r] ** 2 * (y[r] - fitted[r]) ** 2))
    return Estimate(v1 + v2, method="ps_reverse"), v1, v2


def gec_nonresponse(data, entropy, extra_constraints=None, tol=1e-9):
    """Generalized-entropy calibration for nonresponse: respondent weights
    omega minimize sum G(omega) subject to the x-calibration
    sum_{A_R} w omega x = sum_A w x and the debiasing constraint
    sum_{A_R} w omega g(1/p_hat) = sum_A w g(1/p_hat).  Returns per-unit
    final weights w * omega on respondents (zero elsewhere)."""
    spec = get_entropy(entropy)
    phi = fit_propensity(data)
    p = propensities(data, phi)
    x, r, w = data.x, data.delta, data.w
    gcol = np.asarray(spec.g(1 / p), dtype=float)
    z_full = np.column_stack([x, gcol])
    if extra_constraints is not None:
        z_full = np.column_stack([z_full, extra_constraints])
    targets = z_full.T @ w
    # objective sum_A_R w G(omega): fold the survey weights into both the
    # constraint rows and the scale so the dual variable sees z'lambda alone
    problem = CalibrationProblem(
        base_weights=1 / p[r],
        constraints=w[r][:, None] * z_full[r],
        targets=targets,
        entropy=spec,
        scale=w[r],
        family="entropy",
    )
    result = solve_entropy(problem, tol=tol)
    final = np.zeros(data.n)
    final[r] = w[r] * result.weights
    return final, result
