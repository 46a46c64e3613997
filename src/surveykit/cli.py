"""Command-line front end.

Exit codes: 0 success, 2 usage error, 3 data error, 4 numerical failure.
JSON output is deterministic (sorted keys, repr floats) and versioned with
a "schema" field.

Each subcommand imports only the modules it uses, on top of `frame`:
`calibrate` loads `calibration` and no design code.  The weight table is
written to stdout once every `frame._CSV_BLOCK` rows, so a large table
costs a few writes, not one per row.
"""

import argparse
import csv
import io
import json
import sys

import numpy as np

from .frame import _CSV_BLOCK, FrameError, _read_table, read_frame_csv

SCHEMA = 1


class UsageError(Exception):
    pass


class DataError(Exception):
    pass


def _csv_text(rows):
    """The CSV text of rows, each line ending in LF.  csv quotes a field
    that holds a character of the line terminator, so under LF a field
    holding a lone CR would go out bare and split its row when read back:
    a row with a CR is written under CRLF, which quotes it, and its
    terminator is cut back to LF."""
    buffer, crlf_row = io.StringIO(), io.StringIO()
    lf = csv.writer(buffer, lineterminator="\n")
    crlf = csv.writer(crlf_row, lineterminator="\r\n")
    for row in rows:
        if any(isinstance(cell, str) and "\r" in cell for cell in row):
            crlf_row.seek(0)
            crlf_row.truncate()
            crlf.writerow(row)
            buffer.write(crlf_row.getvalue()[:-2] + "\n")
        else:
            lf.writerow(row)
    return buffer.getvalue()


def _write_weights(ids, weights):
    """Write the id,weight table to stdout, one write per _CSV_BLOCK rows.

    The repr of a list of floats spells each one as csv.writer does, so a
    block whose ids need no quoting is joined as it stands; a block with an
    id holding a comma, quote, CR or LF goes through csv.writer."""
    sys.stdout.write("id,weight\n")
    for start in range(0, len(ids), _CSV_BLOCK):
        block = ids[start:start + _CSV_BLOCK]
        w = weights[start:start + _CSV_BLOCK]
        joined = "".join(block)
        if any(c in joined for c in ',"\r\n'):
            sys.stdout.write(_csv_text(zip(block, w)))
        else:
            cells = repr(w)[1:-1].split(", ")
            sys.stdout.write("\n".join(map(",".join, zip(block, cells))) + "\n")


def _emit(payload, out_format):
    payload = {"schema": SCHEMA, **payload}
    _check_finite(payload)
    if out_format == "json":
        print(json.dumps(payload, sort_keys=True, default=_jsonable))
    else:
        flat = _flatten(payload)
        sys.stdout.write(_csv_text([sorted(flat), [flat[k] for k in sorted(flat)]]))


def _check_finite(payload, prefix=""):
    """Refuse a payload with a NaN or an infinity, which JSON cannot hold
    (RFC 8259), naming its field as --out csv does."""
    for key, value in payload.items():
        name = f"{prefix}{key}"
        if isinstance(value, dict):
            _check_finite(value, name + ".")
            continue
        cells = np.asarray(value)
        if cells.dtype.kind == "f" and not np.isfinite(cells).all():
            bad = cells[~np.isfinite(cells)].flat[0]
            raise ValueError(f"{name} holds {bad}, not a finite number")


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


def _option_type(kind, ok, rule):
    """The argparse type of an option whose value is a kind (float, int or
    another option type, whose own errors stand) that passes ok: anything
    else is a usage error naming the option."""
    def parse(text):
        try:
            value = kind(text)
        except ValueError:
            value = None
        if value is None or not ok(value):
            raise argparse.ArgumentTypeError(f"{text!r} is not {rule}")
        return value
    return parse


_finite = _option_type(float, np.isfinite, "a finite number")  # NaN and the infinities fail
_seed = _option_type(int, lambda v: v >= 0, "a whole number of at least 0")
_replicates = _option_type(int, lambda v: v >= 2, "a whole number of at least 2")
_size = _option_type(int, lambda v: v >= 1, "a whole number of at least 1")
_positive = _option_type(_finite, lambda v: v > 0, "a finite number above 0")
_alpha = _option_type(_finite, lambda v: 0 < v < 1, "a number between 0 and 1")


def _finites(text):
    """An option's comma list of finite numbers."""
    return [_finite(v) for v in text.split(",")]


def _totals(text):
    """--totals: a comma list of finite numbers, or the path of a one-line
    CSV of them."""
    try:
        [float(v) for v in text.split(",")]
    except ValueError:  # not a list of numbers: a path
        return text
    return _finites(text)


def _number(x):
    """x as an error message spells it: every digit, no trailing .0."""
    return np.format_float_positional(x, trim="-")


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
    from .core import compute_pips
    from .design import Design, load_design

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
    from .design import RngStream
    from .designs import select

    frame = read_frame_csv(args.frame)
    sample = select(_design(args, frame), frame, RngStream(args.seed))
    _emit({
        "design": sample.design_tag,
        "ids": list(sample.ids),
        "pi": sample.pi.tolist(),
        "multiplicity": sample.multiplicity.tolist(),
        "weights": sample.weights.tolist(),
    }, args.out)


def cmd_allocate(args):
    from . import allocation as alc

    strata, _ = _read_table(args.strata, "strata", ["N_h"], ["S_h", "c_h"],
                            fill={"S_h": 1.0, "c_h": 1.0})
    # NaN and the infinities fail each test
    for name, ok, rule in (
            ("N_h", alc._whole_sizes, "a whole number of units, at least 1"),
            ("S_h", lambda v: np.isfinite(v) & (v >= 0), "a finite number, at least 0"),
            ("c_h", lambda v: np.isfinite(v) & (v > 0), "a finite number above 0")):
        good = ok(strata[name]) if name in strata else True
        if not np.all(good):
            k = int(np.argmin(good))
            raise DataError(f"strata CSV: data row {k + 1} has {name} "
                            f"{_number(strata[name][k])}; a stratum's {name} must be {rule}")
    H, units = strata["N_h"].size, int(strata["N_h"].sum())
    if not H <= args.n <= units:
        raise UsageError(f"--n must be between the {H} strata and their {units} units, "
                         f"got {args.n}")
    problem = alc.AllocationProblem(strata["N_h"], strata.get("S_h"), strata.get("c_h"),
                                    n=args.n)
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
    the unit weight, pi = 1/w, so a weight below 1 has no pi."""
    from .core import Sample

    w = np.asarray(frame.mos, dtype=float)  # finite and nonnegative, as Frame checks
    low = np.flatnonzero(w < 1)
    if low.size:
        k = int(low[0])
        raise DataError(f"unit {frame.ids[k]!r} has weight {_number(w[k])} in the mos "
                        "column; a sample unit's weight must be at least 1")
    return Sample(frame, np.arange(frame.n_units), 1.0 / w)


def _parse_totals(spec):
    if spec is None:
        raise UsageError("this estimator needs --totals")
    if isinstance(spec, list):
        return spec
    with open(spec, encoding="utf-8") as handle:
        row = [float(v) for v in next(csv.reader(handle))]
    if not np.isfinite(row).all():
        raise DataError(f"--totals file {spec} holds a value that is not a finite number")
    return row


def _x_columns(frame, numbers=None):
    """The frame's x columns of a comma list of 1-based numbers, by
    default all of x1..xk."""
    k = 0 if frame.aux is None else frame.aux.shape[1]
    js = range(1, k + 1) if numbers is None else [
        int(v) if v.strip().isdecimal() else 0 for v in numbers.split(",")]
    if not js:
        raise DataError("this estimator needs x1..xk columns")
    if not all(1 <= j <= k for j in js):
        raise UsageError(f"x column {numbers!r} is not among the frame's {k} x columns")
    return frame.aux[:, [j - 1 for j in js]]


def _c_values(frame, c_model):
    if c_model in (None, "const"):
        return None
    if c_model == "x":
        return _x_columns(frame)[:, 0]
    if c_model.startswith("x") and c_model[1:].isdigit():
        return _x_columns(frame, c_model[1:])[:, 0]
    raise UsageError(f"unknown c-model {c_model!r}")


def cmd_estimate(args):
    from . import estimators as est

    frame = read_frame_csv(args.frame)
    sample = _weighted_sample(frame)
    y = frame.y_column(args.y)
    if args.estimator == "ht":
        e = est.ht_total(sample, y)
    elif args.estimator == "mean":
        N = args.N if args.N is not None else float(np.sum(sample.weights))
        e = est.ht_mean(sample, y, N)
    elif args.estimator == "hajek":
        e = est.hajek_mean(sample, y)
    elif args.estimator == "ratio":
        x = _x_columns(frame, args.x)[:, 0]
        if args.total is None:
            # the plain ratio of the two estimated totals
            w = sample.weights
            e = est.Estimate(float(np.sum(w * y) / np.sum(w * x)),
                             method="ratio_of_totals")
        else:
            e = est.ratio_estimator(sample, y, x, args.total)
    elif args.estimator == "greg":
        totals = _parse_totals(args.totals)
        x = _x_columns(frame, args.x)
        c = _c_values(frame, args.c_model)
        e, _fit, _w = est.regression_greg(sample, y, x, totals, c)
    else:
        raise UsageError(f"unknown estimator {args.estimator!r}")
    _emit(_estimate_payload(e), args.out)


def cmd_variance(args):
    from . import variance as var

    frame = read_frame_csv(args.frame)
    if args.method == "random_group" and args.replicates > frame.n_units:
        raise UsageError(f"--replicates must be between 2 and the {frame.n_units} units")
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
        # group g's HT total, scaled up by G: the replicates average to sum w y
        groups = np.arange(frame.n_units) % args.replicates
        reps = args.replicates * np.bincount(groups, weights=sample.weights * y,
                                             minlength=args.replicates)
        e = var.random_group_variance(reps)
    else:
        raise UsageError(f"unknown variance method {args.method!r}")
    _emit(_estimate_payload(e), args.out)


def cmd_calibrate(args):
    from . import calibration as cal

    frame = read_frame_csv(args.frame)
    if frame.aux is None:
        raise DataError("calibration needs x1..xk columns")
    problem = cal.CalibrationProblem(
        base_weights=frame.mos,
        constraints=frame.aux,
        targets=args.targets,
        entropy=args.entropy,
        family="entropy" if args.debias else "divergence",
        debias=args.debias,
    )
    if args.entropy == "squared" and not args.debias:
        result = cal.solve_chi_square(problem)
    else:
        result = cal.solve_entropy(problem)
    report = {"schema": SCHEMA, "lambda": [float(v) for v in result.lagrange],
              "iterations": result.iterations, "residual": result.residual}
    _check_finite({"weights": result.weights, **report})
    _write_weights(frame.ids, result.weights.tolist())
    print(json.dumps(report, sort_keys=True), file=sys.stderr)


def cmd_diagnose(args):
    from . import diagnostics as diag

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
    from . import nonresponse as nr

    # a blank (or NaN) y reads as NaN, then as 0.0 for a nonrespondent
    columns, x = _read_table(args.frame, "respondent", ["delta", "y"], ["w"],
                             fill={"y": np.nan, "w": 1.0})
    if not x.shape[1]:  # the propensity model has no intercept
        raise DataError("nonresponse needs x1..xk columns")
    delta, y = columns["delta"], columns["y"]
    for bad, problem in (((delta != 0) & (delta != 1), "a delta other than 0 or 1"),
                         ((delta == 1) & np.isnan(y),
                          "a respondent (delta 1) with a blank or non-finite y")):
        if bad.any():
            raise DataError(f"respondent CSV: data row {np.argmax(bad) + 1} has {problem}")
    data = nr.ResponseData(delta, x, np.where(delta == 1, y, 0.0), columns.get("w"))
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
    from . import smallarea as sa

    areas, x = _read_table(args.frame, "area", ["ghat", "vg"])
    model = sa.fit_fay_herriot(areas["ghat"], areas["vg"], x if x.shape[1] else None)
    _emit({
        "beta": model.beta.tolist(),
        "sigma2_u": model.sigma2_u,
        "eblup": [sa.eblup(model, g).value for g in range(model.direct.size)],
        "prasad_rao_mse": [sa.prasad_rao_mse(model, g) for g in range(model.direct.size)],
    }, args.out)


def cmd_simulate(args):
    from . import estimators as est
    from . import simulate as sim
    from .core import NonEnumerableError, SupportTooLargeError

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
        if result["se_of_mean"] != 0:  # 0 when every replicate gives one estimate
            payload["z_score"] = (result["mean"] - exact["mean"]) / result["se_of_mean"]
    except (SupportTooLargeError, NonEnumerableError):
        pass  # no exact truth to compare with
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
    drawing.add_argument("--pi", type=_finite)
    drawing.add_argument("--method")
    drawing.add_argument("--seed", type=_seed, required=True)

    p = sub.add_parser("draw", parents=[drawing], help="draw one sample from a design")
    p.set_defaults(func=cmd_draw)

    p = sub.add_parser("allocate", help="allocate a stratified sample size")
    p.add_argument("--strata", required=True, help="CSV with N_h,S_h,c_h")
    p.add_argument("--method", default="neyman")
    p.add_argument("--n", type=_size, required=True)
    p.add_argument("--alpha", type=_alpha, default=0.5, help="between 0 and 1")
    p.set_defaults(func=cmd_allocate)

    p = sub.add_parser("estimate")
    p.add_argument("--frame", required=True)
    p.add_argument("--estimator", required=True)
    p.add_argument("--y", type=int, default=0, help="study column index")
    p.add_argument("--x", help="aux columns, e.g. 1 or 1,3")
    p.add_argument("--total", type=_finite)
    p.add_argument("--totals", type=_totals, help="comma list or a one-line CSV path")
    p.add_argument("--N", type=_positive)
    p.add_argument("--c-model", default="const",
                   help="const, x, or an aux column like x2")
    p.set_defaults(func=cmd_estimate)

    p = sub.add_parser("variance")
    p.add_argument("--frame", required=True)
    p.add_argument("--method", required=True)
    p.add_argument("--replicates", type=_replicates, default=10)
    p.set_defaults(func=cmd_variance)

    p = sub.add_parser("calibrate")
    p.add_argument("--frame", required=True)
    p.add_argument("--entropy", default="squared")
    p.add_argument("--targets", type=_finites, required=True)
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
    p.add_argument("--replicates", type=_replicates, default=1000)
    p.set_defaults(func=cmd_simulate)
    return parser


def _design_errors():
    """DesignError once a command has loaded the design module; no
    command raises it before."""
    design = sys.modules.get(f"{__package__}.design")
    return () if design is None else (design.DesignError,)


def main(argv=None):
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    try:
        args.func(args)
    except (UsageError, *_design_errors()) as exc:
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
