"""Command-line front end: classify, solve, curves, verify.

Artifacts are deterministic: fixed float formatting (17 significant digits
by default), LF line endings, stable JSON key order, no timestamps, and the
full run configuration embedded in every file.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys

import numpy as np

from . import algebra, energy, massmap, stationary, verification
from .config import RunConfig, default_output_dir, load_config_file
from .params import InvalidExponents, Params, Region, classify, expected_solution_regime
from .stationary import BranchPoint


def _fmt(x, precision: int = 17) -> str:
    if x is None:
        return ""
    if isinstance(x, float):
        if math.isnan(x):
            return "nan"
        if math.isinf(x):
            return "inf" if x > 0 else "-inf"
        return f"{x:.{precision}g}"
    return str(x)


def _emit(path: str | None, text: str) -> None:
    if path is None:
        sys.stdout.write(text)
    else:
        os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)


def _csv(config: RunConfig, header: list[str], rows: list[list], precision: int) -> str:
    lines = [f"# config: {config.to_json()}"]
    lines.append(",".join(header))
    for row in rows:
        lines.append(",".join(_fmt(v, precision) for v in row))
    return "\n".join(lines) + "\n"


def _json_doc(config: RunConfig, payload: dict) -> str:
    doc = {"config": config.to_dict()}
    doc.update(payload)
    return json.dumps(doc, sort_keys=True, indent=2) + "\n"


def _parse_range(text: str) -> tuple[float, float, int]:
    parts = text.split(":")
    if len(parts) != 3:
        raise ValueError(f"expected --range a:b:n, got {text!r}")
    return float(parts[0]), float(parts[1]), int(parts[2])


def _point_mass(point: BranchPoint) -> float:
    if point.params.diagonal:
        return massmap.mass_of_lambda_diagonal(point.params, point.lam).value
    if point.zero_frequency:
        return algebra.constants(point.params).mu0
    return massmap.mass_of_t(point.params, point.t, point.d).value


def _thresholds_payload(params: Params) -> dict:
    """All thresholds that exist for these exponents, with provenance labels."""
    region = classify(params)
    out: dict = {"lambda_bar": None, "mu0": None, "mu_threshold": None,
                 "mu_tilde": None, "mu_bar": None, "provenance": {}}
    if not params.diagonal:
        if params.q < params.p / 2.0 + 1.0:
            out["lambda_bar"] = stationary.lambda_bar(params)
            out["provenance"]["lambda_bar"] = "closed-form"
        if params.p < 6.0:
            out["mu0"] = algebra.constants(params).mu0
            out["provenance"]["mu0"] = "closed-form"
        thr = massmap.mass_threshold(params)
        if thr.mu_threshold is not None:
            out["mu_threshold"] = thr.mu_threshold
            out["provenance"]["mu_threshold"] = {
                Region.A: "closed-form", Region.E: "closed-form",
                Region.G: "closed-form", Region.H: "limit-constant",
                Region.C: "minimized", Region.F: "minimized",
            }[region]
        out["mu_tilde"] = energy.zero_level_mass(params)
        if out["mu_tilde"] is not None:
            out["provenance"]["mu_tilde"] = (
                "limit-constant" if region in (Region.G, Region.H) else "minimized")
        if params.q < min(4.0, params.p / 2.0 + 1.0):
            out["mu_bar"] = massmap.mass_of_t(params, algebra.t_star(params)).value
            out["provenance"]["mu_bar"] = "closed-form (multiplier peak)"
    return out


# ---------------------------------------------------------------------------
# classify


def cmd_classify(args, config: RunConfig) -> int:
    params = Params(args.p, args.q)
    region = classify(params)
    rule = expected_solution_regime(params)
    payload = {
        "p": params.p, "q": params.q,
        "region": region.value,
        "diagonal": params.diagonal,
        "existence": rule.describe(),
        "interval": rule.interval.value,
        "unique": rule.unique,
        "thresholds": _thresholds_payload(params),
    }
    if params.diagonal:
        exists, t = stationary.diagonal_exists(params)
        payload["diagonal_state"] = {"exists": exists, "t": t}
    if args.format == "json" or config.format == "json":
        _emit(args.out, _json_doc(config, payload))
        return 0
    lines = [
        f"exponents: p = {_fmt(params.p)}, q = {_fmt(params.q)}",
        f"region: {region.value}" + ("  (diagonal q = p/2 + 1)" if params.diagonal else ""),
        f"normalized solutions: {rule.describe()}",
        f"unique at fixed mass: {'yes' if rule.unique else 'open' if rule.unique is None else 'no'}",
    ]
    th = payload["thresholds"]
    for key in ("lambda_bar", "mu0", "mu_threshold", "mu_tilde", "mu_bar"):
        if th[key] is not None:
            prov = th["provenance"].get(key, "")
            lines.append(f"{key} = {_fmt(th[key])}  [{prov}]")
    if params.diagonal:
        ds = payload["diagonal_state"]
        lines.append("branch coordinate: t = " + (_fmt(ds["t"]) if ds["exists"]
                                                  else "none (no states, p <= 8)"))
    _emit(args.out, "\n".join(lines) + "\n")
    return 0


# ---------------------------------------------------------------------------
# solve


def _solution_row(point: BranchPoint) -> list:
    eb = energy.branch_energy(point)
    mass = _point_mass(point)
    q = point.params.q
    vres = stationary.vertex_residual(point) / point.u0 ** (q - 1.0)
    scale = point.u0 ** (q - 1.0 if point.zero_frequency else q - 2.0)
    mres = stationary.matching_residual(point) / scale
    return [point.t, point.lam, point.a, point.u0, mass,
            eb.kinetic, eb.bulk, eb.point, eb.total, vres, mres]


_SOLVE_HEADER = ["t", "lambda", "a", "u0", "mass", "kinetic", "bulk",
                 "point", "total", "vertex_residual_rel", "matching_residual_rel"]


def cmd_solve(args, config: RunConfig) -> int:
    params = Params(args.p, args.q)
    note = ""
    if args.lam is not None:
        points = list(stationary.solve_for_lambda(params, args.lam).points)
        if not points:
            note = ("no states at this frequency: " +
                    _nonexistence_reason(params, lam=args.lam))
    else:
        sols = massmap.normalized_solutions(params, args.mass)
        points = [s.point for s in sols]
        if not points:
            rule = expected_solution_regime(params)
            note = f"no states at this mass: {rule.describe()}"
    rows = [_solution_row(pt) for pt in points]
    fmt = args.format or config.format
    if fmt == "json":
        payload = {
            "p": params.p, "q": params.q,
            "query": {"lambda": args.lam, "mass": args.mass},
            "note": note or None,
            "columns": _SOLVE_HEADER,
            "rows": rows,
        }
        _emit(args.out, _json_doc(config, payload))
    else:
        text = _csv(config, _SOLVE_HEADER, rows, config.precision)
        if note:
            text += f"# note: {note}\n"
        _emit(args.out, text)
    return 0


def _nonexistence_reason(params: Params, lam: float) -> str:
    if params.diagonal:
        return ("on the diagonal q = p/2 + 1 the matching level is constant; "
                "states exist only for p > 8")
    if lam == 0.0:
        return "zero-frequency states require p < 6 off the diagonal"
    lb = stationary.lambda_bar(params)
    if lb is not None and lam > lb:
        return f"frequency exceeds the fold value lambda_bar = {_fmt(lb)}"
    return "no matching branch coordinate"


# ---------------------------------------------------------------------------
# curves


def cmd_curves(args, config: RunConfig) -> int:
    params = Params(args.p, args.q)
    region = classify(params)
    out_base = args.out
    if out_base is None:
        tag = f"{args.which}_p{_fmt(params.p, 6)}_q{_fmt(params.q, 6)}"
        out_base = os.path.join(default_output_dir(), tag + ".csv")

    if args.which == "mass":
        if params.diagonal:
            _emit(out_base + ".refused.json", _json_doc(config, {
                "refused": "mass-vs-t curve",
                "reason": ("the branch coordinate is frequency-independent on "
                           "the diagonal q = p/2 + 1; use `solve` at fixed "
                           "frequency instead"),
            }))
            return 1
        a, b, n = _parse_range(args.range) if args.range else (1.0 + 1e-6, 1e6, 512)
        if not (a > 1.0 and b > a):
            raise ValueError("mass-curve range must satisfy 1 < a < b")
        curve = massmap.mass_curve(params, n, math.log(a - 1.0), math.log(b - 1.0))
        asym = massmap.asymptotics(params)
        sidecar = {
            "p": params.p, "q": params.q, "region": region.value,
            "curve": "mass",
            "limits": {"t_to_1": asym.t1_limit, "t_to_inf": asym.tinf_limit,
                       "small_t_rate": asym.t1_rate,
                       "large_t_kind": asym.tinf_kind,
                       "large_t_rate": asym.tinf_rate},
            "extrema": curve.extrema,
            "thresholds": _thresholds_payload(params),
        }
        _emit(out_base, _csv(config, ["t", "mu", "mu_err", "h_sign"],
                             curve.samples, config.precision))
        _emit(out_base + ".json", _json_doc(config, sidecar))
        return 0

    # energy curve
    a, b, n = _parse_range(args.range) if args.range else (0.1, 10.0, 50)
    mus = np.linspace(a, b, n)
    samples = [energy.groundstate_energy(params, float(m)) for m in mus]
    if all(s.flag is energy.Attainment.MINUS_INFINITY for s in samples):
        _emit(out_base + ".refused.json", _json_doc(config, {
            "refused": "energy curve",
            "reason": ("the energy level is unbounded below at every requested "
                       "mass for these exponents (the point term dominates "
                       "every mass-preserving rescaling)"),
            "region": region.value,
        }))
        return 1
    rows = [[s.mu, s.value if s.value is not None else
             (-math.inf if s.flag is energy.Attainment.MINUS_INFINITY else math.nan),
             s.lam, s.branch_id, s.flag.value] for s in samples]
    sidecar = {
        "p": params.p, "q": params.q, "region": region.value,
        "curve": "energy",
        "thresholds": _thresholds_payload(params) if not params.diagonal else {},
        "flags": sorted({s.flag.value for s in samples}),
    }
    _emit(out_base, _csv(config, ["mu", "E", "lambda", "branch_id", "flag"],
                         rows, config.precision))
    _emit(out_base + ".json", _json_doc(config, sidecar))
    return 0


# ---------------------------------------------------------------------------
# verify


def cmd_verify(args, config: RunConfig) -> int:
    results = verification.run_checks(args.suite, jobs=args.jobs or config.jobs)
    n_fail = sum(not r.passed for r in results)
    # timings stay on the console; the report must be byte-reproducible
    report = {
        "suite": args.suite,
        "passed": n_fail == 0,
        "checks": [
            {"name": r.name, "passed": r.passed, "claim": r.claim,
             "detail": r.detail}
            for r in results
        ],
    }
    for r in results:
        status = "PASS" if r.passed else "FAIL"
        sys.stdout.write(f"[{status}] {r.name} ({r.seconds:.2f}s)\n")
        if not r.passed:
            sys.stdout.write(f"       {r.detail}\n")
    if args.out:
        _emit(args.out, _json_doc(config, report))
    elif (args.format or config.format) == "json":
        sys.stdout.write(_json_doc(config, report))
    sys.stdout.write(f"{'OK' if n_fail == 0 else 'FAILED'}: "
                     f"{len(results) - n_fail}/{len(results)} checks passed\n")
    return 0 if n_fail == 0 else 1


# ---------------------------------------------------------------------------
# entry point


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="deltanls",
        description=("Stationary states, mass maps and ground-state energy "
                     "levels of the 1D NLS with a defocusing bulk term and a "
                     "focusing point term at the origin."))
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--format", choices=("csv", "json", "text"), default=None,
                        help="output format (default from config)")
    common.add_argument("--out", default=None,
                        help="output file (default: stdout, or $DELTANLS_OUT for curves)")
    common.add_argument("--config", default=None,
                        help="key = value configuration file")
    common.add_argument("--jobs", type=int, default=None,
                        help="worker threads for sweep workloads")

    sub = parser.add_subparsers(dest="command", required=True)

    pc = sub.add_parser("classify", parents=[common],
                        help="region tag, existence rule and thresholds")
    pc.add_argument("--p", type=float, required=True)
    pc.add_argument("--q", type=float, required=True)
    pc.set_defaults(fn=cmd_classify)

    ps = sub.add_parser("solve", parents=[common],
                        help="all states at fixed frequency or fixed mass")
    ps.add_argument("--p", type=float, required=True)
    ps.add_argument("--q", type=float, required=True)
    group = ps.add_mutually_exclusive_group(required=True)
    group.add_argument("--lambda", dest="lam", type=float)
    group.add_argument("--mass", type=float)
    ps.set_defaults(fn=cmd_solve)

    pk = sub.add_parser("curves", parents=[common],
                        help="emit a sampled mass or energy curve plus sidecar")
    pk.add_argument("--p", type=float, required=True)
    pk.add_argument("--q", type=float, required=True)
    pk.add_argument("--which", choices=("mass", "energy"), required=True)
    pk.add_argument("--range", default=None, help="a:b:n sample range")
    pk.set_defaults(fn=cmd_curves)

    pv = sub.add_parser("verify", parents=[common],
                        help="run the verification battery")
    pv.add_argument("suite", choices=("quick", "full"), nargs="?", default="quick")
    pv.set_defaults(fn=cmd_verify)
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    overrides = {}
    if getattr(args, "config", None):
        overrides.update(load_config_file(args.config))
    if getattr(args, "jobs", None):
        overrides["jobs"] = args.jobs
    if getattr(args, "format", None) in ("csv", "json"):
        overrides["format"] = args.format
    try:
        config = RunConfig(**overrides)
        return args.fn(args, config)
    except InvalidExponents as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 2
    except (ValueError, OSError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 2
    except RuntimeError as exc:
        # a failed gate, or a state outside double range
        sys.stderr.write(f"error: {exc}\n")
        return 3


if __name__ == "__main__":
    sys.exit(main())
