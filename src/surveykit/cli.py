"""Command-line front end.

Exit codes: 0 success, 2 usage error, 3 data error, 4 numerical failure.
JSON output is deterministic (sorted keys, repr floats) and versioned with
a "schema" field.
"""

import argparse
import csv
import json
import sys

import numpy as np

from . import AllocationProblem
from . import allocation as alc
from . import calibration as cal
from . import diagnostics as diag
from . import estimators as est
from . import nonresponse as nr
from . import smallarea as sa
from . import simulate as sim
from . import variance as var
from .core import compute_pips
from .design import Design, DesignError, RngStream, load_design
from .designs import select
from .frame import FrameError, read_frame_csv

SCHEMA = 1


class UsageError(Exception):
    pass


class DataError(Exception):
    pass


def _emit(payload, out_format):
    payload = {"schema": SCHEMA, **payload}
    if out_format == "json":
        print(json.dumps(payload, sort_keys=True, default=_jsonable))
    else:
        flat = _flatten(payload)
        writer = csv.writer(sys.stdout, lineterminator="\n")
        writer.writerow(sorted(flat))
        writer.writerow([flat[k] for k in sorted(flat)])


def _jsonable(obj):
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    if isinstance(obj, (np.floating, np.integer)):
        return obj.item()
    raise TypeError(f"cannot serialize {type(obj).__name__}")


def _flatten(payload, prefix=""):
    out = {}
    for key, value in payload.items():
        name = f"{prefix}{key}"
        if isinstance(value, dict):
            out.update(_flatten(value, name + "."))
        elif isinstance(value, (list, tuple, np.ndarray)):
            out[name] = ";".join(str(v) for v in np.asarray(value).ravel())
        else:
            out[name] = value
    return out


def _estimate_payload(e):
    out = {"value": e.value, "method": e.method}
    if e.variance is not None:
        out["variance"] = e.variance
        out["se"] = e.se
        ci = e.ci95
        if ci is not None:
            out["ci95"] = list(ci)
    if e.flags:
        out["diagnostics"] = list(e.flags)
    return out


def _design(args, frame):
    """The design of --design-file, or the one named by --design with its
    fields taken from the flags that are set.  Poisson's per-unit vector
    comes from --pi (every unit) or from --n (compute_pips(mos, n))."""
    if args.design_file:
        return load_design(args.design_file)
    body = {f: getattr(args, f) for f in ("n", "pi", "method")
            if getattr(args, f) is not None}
    if args.design == "poisson":
        n = body.pop("n", None)
        if "pi" in body:
            body["pi"] = [body["pi"]] * frame.n_units
        elif n is not None:
            body["pi"] = compute_pips(frame.mos, n).tolist()
    name = {"rejective": "rejective_poisson"}.get(args.design, args.design)
    return Design.from_dict({name: body})


def cmd_draw(args):
    frame = read_frame_csv(args.frame)
    sample = select(_design(args, frame), frame, RngStream(args.seed))
    _emit({
        "design": sample.design_tag,
        "ids": list(sample.ids),
        "pi": sample.pi.tolist(),
        "multiplicity": sample.multiplicity.tolist(),
        "weights": sample.weights.tolist(),
    }, args.out)


def _read_rows(path):
    with open(path, encoding="utf-8") as handle:
        return list(csv.DictReader(handle))


def cmd_allocate(args):
    rows = _read_rows(args.strata)
    if not rows:
        raise DataError("strata CSV is empty")
    try:
        N_h = [int(float(r["N_h"])) for r in rows]
        S_h = [float(r.get("S_h", 1.0) or 1.0) for r in rows]
        c_h = [float(r.get("c_h", 1.0) or 1.0) for r in rows]
    except (KeyError, ValueError) as exc:
        raise DataError(f"bad strata CSV: {exc}") from exc
    problem = AllocationProblem(N_h, S_h, c_h, n=args.n)
    if args.method == "proportional":
        result = alc.proportional_allocation(problem)
    elif args.method == "neyman":
        result = alc.optimal_allocation(problem)
    elif args.method == "power":
        result = alc.power_allocation(problem, args.alpha)
    else:
        raise UsageError(f"unknown allocation method {args.method!r}")
    _emit({
        "method": args.method,
        "n_h": list(result.n_h),
        "variance": result.variance,
        "capped": list(result.capped),
    }, args.out)


def _weighted_sample(frame):
    """Treat an analysis CSV frame as a realized sample: the mos column is
    the unit weight, pi = 1/w."""
    from .core import Sample

    pi = 1.0 / np.asarray(frame.mos, dtype=float)
    return Sample(frame, np.arange(frame.n_units), np.clip(pi, None, 1.0))


def _parse_totals(spec):
    if spec is None:
        raise UsageError("this estimator needs --totals")
    try:
        if "," in spec or not spec.strip().endswith(".csv"):
            return [float(v) for v in spec.split(",")]
    except ValueError:
        pass
    with open(spec, encoding="utf-8") as handle:
        row = next(csv.reader(handle))
        return [float(v) for v in row]


def _c_values(frame, c_model):
    if c_model in (None, "const"):
        return None
    if c_model == "x":
        return frame.aux[:, 0]
    if c_model.startswith("x") and c_model[1:].isdigit():
        return frame.aux[:, int(c_model[1:]) - 1]
    raise UsageError(f"unknown c-model {c_model!r}")


def cmd_estimate(args):
    frame = read_frame_csv(args.frame)
    sample = _weighted_sample(frame)
    y = frame.y_column(args.y)
    xcols = None
    if args.x is not None:
        idx = [int(v) - 1 for v in str(args.x).split(",")]
        xcols = frame.aux[:, idx]
    if args.estimator == "ht":
        e = est.ht_total(sample, y)
    elif args.estimator == "mean":
        e = est.ht_mean(sample, y, args.N or float(np.sum(sample.weights)))
    elif args.estimator == "hajek":
        e = est.hajek_mean(sample, y)
    elif args.estimator == "ratio":
        x = frame.aux[:, 0] if xcols is None else xcols[:, 0]
        if args.total is None:
            # the plain ratio of the two estimated totals
            w = sample.weights
            e = est.Estimate(float(np.sum(w * y) / np.sum(w * x)),
                             method="ratio_of_totals")
        else:
            e = est.ratio_estimator(sample, y, x, args.total)
    elif args.estimator == "greg":
        totals = _parse_totals(args.totals)
        x = frame.aux if xcols is None else xcols
        c = _c_values(frame, args.c_model)
        e, _fit, _w = est.regression_greg(sample, y, x, totals, c)
    else:
        raise UsageError(f"unknown estimator {args.estimator!r}")
    _emit(_estimate_payload(e), args.out)


def cmd_variance(args):
    frame = read_frame_csv(args.frame)
    sample = _weighted_sample(frame)
    y = frame.y_column()
    if args.method == "simplified":
        e = var.simplified_variance(
            sample, y,
            strata=None if frame.stratum is None else list(frame.stratum),
        )
    elif args.method == "jackknife":
        w0 = sample.weights

        def fn(wts):
            return float(np.sum(wts * y))

        structure = "iid" if frame.stratum is None else "stratified_psu"
        e = var.jackknife_variance(w0, fn, structure=structure,
                                   strata=frame.stratum)
    elif args.method == "random_group":
        groups = np.arange(frame.n_units) % args.replicates
        reps = [float(np.mean(y[groups == g]) * np.sum(sample.weights))
                for g in range(args.replicates)]
        e = var.random_group_variance(reps)
    else:
        raise UsageError(f"unknown variance method {args.method!r}")
    _emit(_estimate_payload(e), args.out)


def cmd_calibrate(args):
    frame = read_frame_csv(args.frame)
    if frame.aux is None:
        raise DataError("calibration needs x1..xk columns")
    targets = [float(v) for v in args.targets.split(",")]
    problem = cal.CalibrationProblem(
        base_weights=frame.mos,
        constraints=frame.aux,
        targets=targets,
        entropy=args.entropy,
        family="entropy" if args.debias else "divergence",
        debias=args.debias,
    )
    if args.entropy == "squared" and not args.debias:
        result = cal.solve_chi_square(problem)
    else:
        result = cal.solve_entropy(problem)
    writer = csv.writer(sys.stdout, lineterminator="\n")
    writer.writerow(["id", "weight"])
    for uid, w in zip(frame.ids, result.weights):
        writer.writerow([uid, repr(float(w))])
    print(json.dumps({
        "schema": SCHEMA,
        "lambda": [float(v) for v in result.lagrange],
        "iterations": result.iterations,
        "residual": result.residual,
    }, sort_keys=True), file=sys.stderr)


def cmd_diagnose(args):
    frame = read_frame_csv(args.frame)
    if frame.cluster is None:
        raise DataError("diagnose needs cluster labels")
    y = frame.y_column()
    groups = [y[members] for _, members in frame.clusters()]
    summary = diag.anova(groups)
    _emit({
        "sst": summary.sst, "ssb": summary.ssb, "ssw": summary.ssw,
        "s2_between": summary.s2_between, "s2_within": summary.s2_within,
        "icc": summary.icc, "delta": summary.delta,
    }, args.out)


def cmd_nonresponse(args):
    rows = _read_rows(args.frame)
    if not rows:
        raise DataError("respondent CSV is empty")
    try:
        delta = np.array([int(r["delta"]) for r in rows])
        y = np.array([float(r["y"]) if r.get("y") else 0.0 for r in rows])
        xcols = sorted(k for k in rows[0] if k.startswith("x"))
        x = np.array([[float(r[c]) for c in xcols] for r in rows])
        w = np.array([float(r.get("w", 1.0) or 1.0) for r in rows])
    except (KeyError, ValueError) as exc:
        raise DataError(f"bad respondent CSV: {exc}") from exc
    data = nr.ResponseData(delta, x, y, w)
    phi = nr.fit_propensity(data)
    p = nr.propensities(data, phi)
    e = nr.ps_estimator(data, p)
    v, v1, v2 = nr.ps_variance(data, p)
    _emit({
        "phi": phi.tolist(),
        "estimate": _estimate_payload(e),
        "variance": v.value,
        "design_component": v1,
        "response_component": v2,
    }, args.out)


def cmd_smallarea(args):
    rows = _read_rows(args.frame)
    if not rows:
        raise DataError("area CSV is empty")
    try:
        direct = np.array([float(r["ghat"]) for r in rows])
        vg = np.array([float(r["vg"]) for r in rows])
        xcols = sorted(k for k in rows[0] if k.startswith("x"))
        X = np.array([[float(r[c]) for c in xcols] for r in rows]) if xcols else None
    except (KeyError, ValueError) as exc:
        raise DataError(f"bad area CSV: {exc}") from exc
    model = sa.fit_fay_herriot(direct, vg, X)
    payload = {
        "beta": model.beta.tolist(),
        "sigma2_u": model.sigma2_u,
        "eblup": [sa.eblup(model, g).value for g in range(direct.size)],
        "prasad_rao_mse": [sa.prasad_rao_mse(model, g) for g in range(direct.size)],
    }
    _emit(payload, args.out)


def cmd_simulate(args):
    frame = read_frame_csv(args.frame)
    design = _design(args, frame)

    def statistic(sample):
        return est.ht_total(sample, sample.y_values()).value

    result = sim.monte_carlo(design, frame, statistic, args.replicates, args.seed)
    payload = {"mean": result["mean"], "var": result["var"],
               "se_of_mean": result["se_of_mean"]}
    try:
        exact = sim.exact_expectation(design, frame, statistic)
        payload["truth"] = exact["mean"]
        payload["z_score"] = (result["mean"] - exact["mean"]) / result["se_of_mean"]
    except Exception:
        pass
    _emit(payload, args.out)


def build_parser():
    parser = argparse.ArgumentParser(prog="surveykit")
    parser.add_argument("--out", choices=("json", "csv"), default="json")
    sub = parser.add_subparsers(dest="command", required=True)

    # --design names a design-document key; --n, --pi and --method set the
    # design fields of the same names
    drawing = argparse.ArgumentParser(add_help=False)
    drawing.add_argument("--frame", required=True)
    drawing.add_argument("--design")
    drawing.add_argument("--design-file")
    drawing.add_argument("--n", type=int)
    drawing.add_argument("--pi", type=float)
    drawing.add_argument("--method")
    drawing.add_argument("--seed", type=int, required=True)

    p = sub.add_parser("draw", parents=[drawing], help="draw one sample from a design")
    p.set_defaults(func=cmd_draw)

    p = sub.add_parser("allocate", help="allocate a stratified sample size")
    p.add_argument("--strata", required=True, help="CSV with N_h,S_h,c_h")
    p.add_argument("--method", default="neyman")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--alpha", type=float, default=0.5)
    p.set_defaults(func=cmd_allocate)

    p = sub.add_parser("estimate")
    p.add_argument("--frame", required=True)
    p.add_argument("--estimator", required=True)
    p.add_argument("--y", type=int, default=0, help="study column index")
    p.add_argument("--x", help="aux columns, e.g. 1 or 1,3")
    p.add_argument("--total", type=float)
    p.add_argument("--totals", help="comma list or a one-line CSV path")
    p.add_argument("--N", type=float)
    p.add_argument("--c-model", default="const",
                   help="const, x, or an aux column like x2")
    p.set_defaults(func=cmd_estimate)

    p = sub.add_parser("variance")
    p.add_argument("--frame", required=True)
    p.add_argument("--method", required=True)
    p.add_argument("--replicates", type=int, default=10)
    p.set_defaults(func=cmd_variance)

    p = sub.add_parser("calibrate")
    p.add_argument("--frame", required=True)
    p.add_argument("--entropy", default="squared")
    p.add_argument("--targets", required=True)
    p.add_argument("--debias", action="store_true")
    p.set_defaults(func=cmd_calibrate)

    p = sub.add_parser("diagnose")
    p.add_argument("--frame", required=True)
    p.set_defaults(func=cmd_diagnose)

    p = sub.add_parser("nonresponse")
    p.add_argument("--frame", required=True)
    p.set_defaults(func=cmd_nonresponse)

    p = sub.add_parser("smallarea")
    p.add_argument("--frame", required=True)
    p.set_defaults(func=cmd_smallarea)

    p = sub.add_parser("simulate", parents=[drawing])
    p.add_argument("--replicates", type=int, default=1000)
    p.set_defaults(func=cmd_simulate)
    return parser


def main(argv=None):
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    try:
        args.func(args)
    except (UsageError, DesignError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (DataError, FrameError, FileNotFoundError, KeyError) as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return 3
    except (ValueError, ZeroDivisionError, RuntimeError, np.linalg.LinAlgError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 4
    return 0


if __name__ == "__main__":
    sys.exit(main())
