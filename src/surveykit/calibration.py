"""Generalized-entropy calibration: given base weights, constraints and an
entropy, produce final weights by Newton iteration on the convex dual.

Two calibration families are exposed:

* ``family="divergence"``: minimize sum_i d_i G(w_i / d_i) v_i subject to the
  constraints.  The entropy is Bregman-normalized so that G'(1) = 0, which
  makes w = d the exact solution whenever the targets equal the base-weight
  totals.
* ``family="entropy"``: minimize sum_i v_i G(w_i) subject to the constraints.
  Design information enters only through the optional debiasing column
  g(d_i) * v_i whose target is supplied by the caller.
"""

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "EntropySpec", "ENTROPIES", "get_entropy", "CalibrationProblem",
    "CalibrationResult", "solve_chi_square", "solve_entropy",
    "conjugate_check", "InfeasibleCalibrationError",
]


class InfeasibleCalibrationError(RuntimeError):
    pass


@dataclass(frozen=True)
class EntropySpec:
    """A strictly convex G with its derivative g, inverse g^-1, convex
    conjugate rho(nu) = nu g^-1(nu) - G(g^-1(nu)), and the conjugate's first
    two derivatives.  `omega_domain` is the open interval where G lives;
    `nu_domain` is where the dual variable may roam."""

    name: str
    G: callable
    g: callable
    g_inv: callable
    rho: callable
    rho1: callable
    rho2: callable
    omega_domain: tuple
    nu_domain: tuple

    def contains_nu(self, nu):
        lo, hi = self.nu_domain
        return bool(np.all(nu > lo) and np.all(nu < hi))


def _squared():
    return EntropySpec(
        "squared",
        G=lambda w: w ** 2 / 2,
        g=lambda w: w,
        g_inv=lambda v: v,
        rho=lambda v: v ** 2 / 2,
        rho1=lambda v: v,
        rho2=lambda v: np.ones_like(np.asarray(v, dtype=float)),
        omega_domain=(-math.inf, math.inf),
        nu_domain=(-math.inf, math.inf),
    )


def _kullback_leibler():
    return EntropySpec(
        "kullback_leibler",
        G=lambda w: w * np.log(w),
        g=lambda w: np.log(w) + 1,
        g_inv=lambda v: np.exp(v - 1),
        rho=lambda v: np.exp(v - 1),
        rho1=lambda v: np.exp(v - 1),
        rho2=lambda v: np.exp(v - 1),
        omega_domain=(0.0, math.inf),
        nu_domain=(-math.inf, math.inf),
    )


def _shifted_kl():
    return EntropySpec(
        "shifted_kl",
        G=lambda w: (w - 1) * (np.log(w - 1) - 1),
        g=lambda w: np.log(w - 1),
        g_inv=lambda v: 1 + np.exp(v),
        rho=lambda v: v + np.exp(v),
        rho1=lambda v: 1 + np.exp(v),
        rho2=lambda v: np.exp(v),
        omega_domain=(1.0, math.inf),
        nu_domain=(-math.inf, math.inf),
    )


def _empirical_likelihood():
    return EntropySpec(
        "empirical_likelihood",
        G=lambda w: -np.log(w),
        g=lambda w: -1.0 / w,
        g_inv=lambda v: -1.0 / v,
        rho=lambda v: -1 - np.log(-v),
        rho1=lambda v: -1.0 / v,
        rho2=lambda v: 1.0 / v ** 2,
        omega_domain=(0.0, math.inf),
        nu_domain=(-math.inf, 0.0),
    )


def _exponential_tilting():
    return EntropySpec(
        "exponential_tilting",
        G=lambda w: w * np.log(w) - w,
        g=lambda w: np.log(w),
        g_inv=lambda v: np.exp(v),
        rho=lambda v: np.exp(v),
        rho1=lambda v: np.exp(v),
        rho2=lambda v: np.exp(v),
        omega_domain=(0.0, math.inf),
        nu_domain=(-math.inf, math.inf),
    )


def _cross_entropy():
    # G(w) = (w-1) log(w-1) - w log w on (1, inf); g(1/pi) = log(1 - pi)
    return EntropySpec(
        "cross_entropy",
        G=lambda w: (w - 1) * np.log(w - 1) - w * np.log(w),
        g=lambda w: np.log1p(-1.0 / w),
        g_inv=lambda v: 1.0 / (-np.expm1(v)),
        rho=lambda v: v - np.log(-np.expm1(v)),
        rho1=lambda v: 1.0 / (-np.expm1(v)),
        rho2=lambda v: np.exp(v) / np.expm1(v) ** 2,
        omega_domain=(1.0, math.inf),
        nu_domain=(-math.inf, 0.0),
    )


def _hellinger():
    # G(w) = -4 sqrt(w); g(1/pi) = -2 sqrt(pi)
    return EntropySpec(
        "hellinger",
        G=lambda w: -4 * np.sqrt(w),
        g=lambda w: -2.0 / np.sqrt(w),
        g_inv=lambda v: 4.0 / v ** 2,
        rho=lambda v: -4.0 / v,
        rho1=lambda v: 4.0 / v ** 2,
        rho2=lambda v: -8.0 / v ** 3,
        omega_domain=(0.0, math.inf),
        nu_domain=(-math.inf, 0.0),
    )


def _pseudo_huber(M=1.0):
    M = float(M)
    return EntropySpec(
        f"pseudo_huber({M:g})",
        G=lambda w: M ** 2 * np.sqrt(1 + (w / M) ** 2),
        g=lambda w: w / np.sqrt(1 + (w / M) ** 2),
        g_inv=lambda v: v / np.sqrt(1 - (v / M) ** 2),
        rho=lambda v: -M * np.sqrt(M ** 2 - v ** 2),
        rho1=lambda v: M * v / np.sqrt(M ** 2 - v ** 2),
        rho2=lambda v: M ** 3 / (M ** 2 - v ** 2) ** 1.5,
        omega_domain=(-math.inf, math.inf),
        nu_domain=(-M, M),
    )


def _inverse():
    return EntropySpec(
        "inverse",
        G=lambda w: 1.0 / (2 * w),
        g=lambda w: -1.0 / (2 * w ** 2),
        g_inv=lambda v: 1.0 / np.sqrt(-2 * v),
        rho=lambda v: -np.sqrt(-2 * v),
        rho1=lambda v: 1.0 / np.sqrt(-2 * v),
        rho2=lambda v: (-2 * v) ** -1.5,
        omega_domain=(0.0, math.inf),
        nu_domain=(-math.inf, 0.0),
    )


def _renyi(alpha):
    alpha = float(alpha)
    if alpha in (0.0, -1.0):
        raise ValueError("Renyi entropy needs alpha outside {0, -1}")
    return EntropySpec(
        f"renyi({alpha:g})",
        G=lambda w: w ** (alpha + 1) / (alpha * (alpha + 1)),
        g=lambda w: w ** alpha / alpha,
        g_inv=lambda v: (alpha * v) ** (1 / alpha),
        rho=lambda v: (alpha * v) ** ((alpha + 1) / alpha) / (alpha + 1),
        rho1=lambda v: (alpha * v) ** (1 / alpha),
        rho2=lambda v: (alpha * v) ** ((1 - alpha) / alpha),
        omega_domain=(0.0, math.inf),
        nu_domain=(0.0, math.inf) if alpha > 0 else (-math.inf, 0.0),
    )


ENTROPIES = {
    "squared": _squared,
    "kullback_leibler": _kullback_leibler,
    "shifted_kl": _shifted_kl,
    "empirical_likelihood": _empirical_likelihood,
    "exponential_tilting": _exponential_tilting,
    "cross_entropy": _cross_entropy,
    "hellinger": _hellinger,
    "pseudo_huber": _pseudo_huber,
    "inverse": _inverse,
    "renyi": _renyi,
}


def get_entropy(name, **kwargs):
    if isinstance(name, EntropySpec):
        return name
    base = name.split("(")[0]
    if base not in ENTROPIES:
        raise KeyError(f"unknown entropy {name!r}")
    if "(" in name:
        arg = float(name[name.index("(") + 1:name.rindex(")")])
        return ENTROPIES[base](arg)
    return ENTROPIES[base](**kwargs)


def normalized(spec):
    """Bregman normalization G~(w) = G(w) - G(1) - g(1)(w - 1), so that
    G~ >= 0, G~(1) = 0 and G~'(1) = 0.  Used by the divergence-from-d
    family."""
    g1 = float(spec.g(1.0))
    G1 = float(spec.G(1.0))
    lo, hi = spec.nu_domain
    return EntropySpec(
        spec.name + ":normalized",
        G=lambda w: spec.G(w) - G1 - g1 * (w - 1),
        g=lambda w: spec.g(w) - g1,
        g_inv=lambda v: spec.g_inv(v + g1),
        rho=lambda v: spec.rho(v + g1) + G1 - g1,
        rho1=lambda v: spec.rho1(v + g1),
        rho2=lambda v: spec.rho2(v + g1),
        omega_domain=spec.omega_domain,
        nu_domain=(lo - g1, hi - g1),
    )


@dataclass(frozen=True)
class CalibrationProblem:
    """base_weights d_i > 0; constraint matrix z (n x p); targets T (p,);
    optional variance scales v_i; family picks the objective."""

    base_weights: np.ndarray
    constraints: np.ndarray
    targets: np.ndarray
    entropy: object = "squared"
    scale: np.ndarray = None  # v_i (divergence family: the c_i of the text)
    family: str = "divergence"
    debias: bool = False  # append the column g(d_i) v_i with its d-total

    def __post_init__(self):
        d = np.asarray(self.base_weights, dtype=float)
        if np.any(d <= 0):
            raise ValueError("base weights must be positive")
        z = np.atleast_2d(np.asarray(self.constraints, dtype=float))
        if z.shape[0] != d.size:
            z = z.T
        T = np.atleast_1d(np.asarray(self.targets, dtype=float))
        if T.size != z.shape[1]:
            raise ValueError("dim(targets) must match the constraint columns")
        v = np.ones(d.size) if self.scale is None else np.asarray(self.scale, dtype=float)
        if self.family not in ("divergence", "entropy"):
            raise ValueError("family must be 'divergence' or 'entropy'")
        object.__setattr__(self, "base_weights", d)
        object.__setattr__(self, "constraints", z)
        object.__setattr__(self, "targets", T)
        object.__setattr__(self, "scale", v)


@dataclass
class CalibrationResult:
    weights: np.ndarray
    lagrange: np.ndarray
    iterations: int
    residual: float
    flags: tuple = ()


def solve_chi_square(problem):
    """Closed-form chi-square (squared-loss) calibration:
    w = d + lambda' z / v with lambda from one linear solve; identical to
    the GREG weight adjustment."""
    d, z, T, v = (problem.base_weights, problem.constraints,
                  problem.targets, problem.scale)
    gram = (z / v[:, None]).T @ z
    cond = np.linalg.cond(gram)
    if not np.isfinite(cond) or cond > 1e12:
        raise np.linalg.LinAlgError("singular constraint Gram matrix")
    lam = np.linalg.solve(gram, T - z.T @ d)
    w = d + (z / v[:, None]) @ lam
    resid = float(np.max(np.abs(z.T @ w - T)))
    return CalibrationResult(w, lam, 1, resid)


def _dual_objective(spec, lam, z, T, d, v, family):
    nu = (z @ lam) / v
    if family == "divergence":
        return float(T @ lam - np.sum(d * v * spec.rho(nu)))
    return float(T @ lam - np.sum(v * spec.rho(nu)))


def solve_entropy(problem, tol=1e-9, max_iter=200):
    """Newton iteration on the strictly concave dual
    D(lambda) = lambda'T - sum (d_i) v_i rho(z_i'lambda / v_i),
    with halving line search (Armijo 1e-4) and domain guards.  Weights are
    w = d g^-1(z'lambda / v) for the divergence family (entropy normalized
    so g(1) = 0) and w = g^-1(z'lambda / v) for the design-weight-free
    family.  Convergence requires the constraint residual sup-norm < tol."""
    spec = get_entropy(problem.entropy)
    d, T, v = problem.base_weights, problem.targets, problem.scale
    z = problem.constraints
    if problem.family == "divergence":
        lo, hi = spec.omega_domain
        if not lo < 1 < hi:
            raise ValueError(
                f"{spec.name} lives on {spec.omega_domain}, which excludes a "
                "weight ratio of 1; use the design-weight-free family"
            )
        spec_n = normalized(spec)
        return _newton(spec_n, z, T, d, v, "divergence", tol, max_iter)
    if problem.debias:
        gcol = spec.g(d) * v
        z = np.column_stack([z, gcol])
        T = np.concatenate([T, [float(np.sum(d * gcol))]])
    return _newton(spec, z, T, d, v, "entropy", tol, max_iter,
                   debias=problem.debias)


def _start_lambda(spec, z, d, v, family, debias):
    p = z.shape[1]
    lam = np.zeros(p)
    if family == "divergence":
        return lam  # g~(1) = 0, so lambda = 0 reproduces w = d
    if debias:
        lam[-1] = 1.0  # anchored start: w = g^-1(g(d)) = d
        return lam
    # least-squares start making z'lambda / v track g(d), so the initial
    # weights sit near the base weights and inside the domain
    target = spec.g(d) * v
    lam, *_ = np.linalg.lstsq(z, target, rcond=None)
    nu = (z @ lam) / v
    if not spec.contains_nu(nu):
        raise InfeasibleCalibrationError(
            f"no feasible starting point inside the {spec.name} dual domain"
        )
    return lam


def _newton(spec, z, T, d, v, family, tol, max_iter, debias=False):
    lam = _start_lambda(spec, z, d, v, family, debias)
    mult = d if family == "divergence" else np.ones_like(d)

    def weights_of(nu):
        return mult * spec.g_inv(nu)

    obj = _dual_objective(spec, lam, z, T, d, v, family)
    for it in range(1, max_iter + 1):
        nu = (z @ lam) / v
        w = weights_of(nu)
        grad = T - z.T @ w
        resid = float(np.max(np.abs(grad)))
        if resid < tol:
            return CalibrationResult(w, lam, it - 1, resid)
        hess = (z * (mult * spec.rho2(nu) / v)[:, None]).T @ z
        try:
            step = np.linalg.solve(hess, grad)
        except np.linalg.LinAlgError:
            step = np.linalg.lstsq(hess, grad, rcond=None)[0]
        if not np.all(np.isfinite(step)) or np.linalg.norm(step) > 1e12:
            raise InfeasibleCalibrationError(
                "dual step diverged: targets look infeasible for "
                f"{spec.name} calibration"
            )
        # damped ascent: halve until the iterate stays inside the dual
        # domain and either satisfies the Armijo condition or contracts the
        # constraint residual (the dual gain underflows near the optimum).
        # A trial step whose weights overflow has an objective of -inf or
        # nan, which the test rejects, so its overflow is not reported; an
        # accepted iterate is evaluated again, with warnings, on the next pass
        t = 1.0
        accepted = False
        for _ in range(60):
            cand = lam + t * step
            nu_c = (z @ cand) / v
            if spec.contains_nu(nu_c):
                with np.errstate(over="ignore", invalid="ignore"):
                    new_obj = _dual_objective(spec, cand, z, T, d, v, family)
                    new_resid = float(np.max(np.abs(T - z.T @ weights_of(nu_c))))
                if (new_obj >= obj + 1e-4 * t * float(grad @ step)
                        or new_resid <= 0.9 * resid):
                    lam, obj = cand, new_obj
                    accepted = True
                    break
            t /= 2
        if not accepted:
            raise InfeasibleCalibrationError(
                f"line search stalled after {it} iterations; constraint "
                f"residual {resid:.3e}"
            )
    raise InfeasibleCalibrationError(
        f"calibration did not reach tol={tol} in {max_iter} iterations"
    )


def conjugate_check(spec, nu_grid, tol=1e-10):
    """Pointwise conjugacy audit: rho'(g(w)) must reproduce w, and rho(nu)
    must equal nu g^-1(nu) - G(g^-1(nu)) over the grid."""
    spec = get_entropy(spec)
    nu = np.asarray(nu_grid, dtype=float)
    if not spec.contains_nu(nu):
        raise ValueError("grid leaves the conjugate domain")
    w = spec.g_inv(nu)
    err_inv = float(np.max(np.abs(spec.rho1(spec.g(w)) - w)))
    err_conj = float(np.max(np.abs(spec.rho(nu) - (nu * w - spec.G(w)))))
    report = {"max_inverse_error": err_inv, "max_conjugate_error": err_conj,
              "passed": err_inv < tol and err_conj < tol}
    return report
