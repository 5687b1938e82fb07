"""Command-line front end: classify, solve, curves, verify.

Artifacts are deterministic: identical inputs give byte-identical files
(CSV floats to 17 significant digits, LF line endings, stable JSON key
order, no timestamps).  `--format` is read by classify, solve and verify;
curves always writes a CSV with a JSON sidecar.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import os
import re
import sys

import numpy as np

from . import algebra, energy, massmap, stationary, verification
from .params import Params, ThresholdKind, classify, expected_solution_regime
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


def _json_number(x: float) -> float | str:
    """x where JSON can hold it; "nan", "inf" or "-inf" where it cannot."""
    return x if math.isfinite(x) else _fmt(x)


def _emit(path: str | None, text: str) -> None:
    if path is None:
        sys.stdout.write(text)
    else:
        os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)


def _csv(header: list[str], rows: list[list]) -> str:
    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join(_fmt(v) for v in row))
    return "\n".join(lines) + "\n"


def _json_doc(payload: dict) -> str:
    return json.dumps(payload, sort_keys=True, indent=2) + "\n"


def _parse_range(text: str) -> tuple[float, float, int]:
    parts = text.split(":")
    if len(parts) != 3:
        raise ValueError(f"expected --range a:b:n, got {text!r}")
    n = int(parts[2])
    if n < 1:
        raise ValueError(f"--range needs n >= 1 samples, got {n}")
    a, b = float(parts[0]), float(parts[1])
    if not (math.isfinite(a) and math.isfinite(b)):
        raise ValueError(f"--range needs finite end points, got {text!r}")
    return a, b, n


def _thresholds_payload(params: Params) -> dict:
    """All thresholds that exist for these exponents, with provenance labels."""
    out: dict = {"lambda_bar": None, "mu0": None, "mu_threshold": None,
                 "mu_tilde": None, "mu_bar": None, "provenance": {}}
    if params.diagonal:
        return out
    out["lambda_bar"] = stationary.lambda_bar(params)
    out["mu0"] = algebra.mu0(params)
    out["mu_threshold"], threshold_provenance = massmap.mass_threshold(params)
    for key, prov in (("lambda_bar", "closed-form"), ("mu0", "closed-form"),
                      ("mu_threshold", threshold_provenance)):
        if out[key] is not None:
            out["provenance"][key] = prov
    try:
        out["mu_tilde"] = energy.zero_level_mass(params)
    except stationary.StateOutOfRange as exc:
        out["provenance"]["mu_tilde"] = f"refused: {exc}"
    if out["mu_tilde"] is not None:
        out["provenance"]["mu_tilde"] = (
            "limit-constant" if expected_solution_regime(params).zero_level_mass
            is ThresholdKind.MASS_TWO else "root")
    out["mu_bar"] = energy.multiplier_peak_mass(params)
    if out["mu_bar"] is not None:
        out["provenance"]["mu_bar"] = "closed-form (multiplier peak)"
    return out


# ---------------------------------------------------------------------------
# classify


def cmd_classify(args) -> int:
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
    if args.format == "json":
        _emit(args.out, _json_doc(payload))
        return 0
    lines = [
        f"exponents: p = {_fmt(params.p)}, q = {_fmt(params.q)}",
        f"region: {region.value}" + ("  (diagonal q = p/2 + 1)" if params.diagonal else ""),
        f"normalized solutions: {rule.describe()}",
        f"unique at fixed mass: {'yes' if rule.unique else 'open' if rule.unique is None else 'no'}",
    ]
    th = payload["thresholds"]
    for key, prov in th["provenance"].items():   # a refused value is None
        lines.append(f"{key} = {_fmt(th[key]) or 'none'}  [{prov}]")
    if params.diagonal:
        ds = payload["diagonal_state"]
        lines.append("branch coordinate: t = " + (_fmt(ds["t"]) if ds["exists"]
                                                  else "none (no states, p <= 8)"))
    _emit(args.out, "\n".join(lines) + "\n")
    return 0


# ---------------------------------------------------------------------------
# solve


def _solution_row(point: BranchPoint) -> list:
    eb = stationary.branch_energy(point)
    mass = massmap.state_mass(point)
    return [point.t, point.lam, point.a, point.u0, mass,
            eb.kinetic, eb.bulk, eb.point, eb.total, stationary.vertex_residual(point)]


_SOLVE_HEADER = ["t", "lambda", "a", "u0", "mass", "kinetic", "bulk",
                 "point", "total", "vertex_residual_rel"]


def cmd_solve(args) -> int:
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
    if args.format == "json":
        payload = {
            "p": params.p, "q": params.q,
            "query": {"lambda": args.lam, "mass": args.mass},
            "note": note or None,
            "columns": _SOLVE_HEADER,
            "rows": rows,
        }
        _emit(args.out, _json_doc(payload))
    else:
        text = _csv(_SOLVE_HEADER, rows)
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


def cmd_curves(args) -> int:
    params = Params(args.p, args.q)
    region = classify(params)
    out_base = args.out
    if out_base is None:
        tag = f"{args.which}_p{_fmt(params.p, 6)}_q{_fmt(params.q, 6)}"
        out_base = os.path.join(os.environ.get("DELTANLS_OUT", "."), tag + ".csv")

    if args.which == "mass":
        if params.diagonal:
            _emit(out_base + ".refused.json", _json_doc({
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
        _emit(out_base, _csv(["t", "mu", "h_sign"], curve.samples))
        _emit(out_base + ".json", _json_doc(sidecar))
        return 0

    # energy curve
    a, b, n = _parse_range(args.range) if args.range else (0.1, 10.0, 50)
    mus = np.linspace(a, b, n)
    samples = [energy.groundstate_energy(params, float(m)) for m in mus]
    if all(s.flag is energy.Attainment.MINUS_INFINITY for s in samples):
        _emit(out_base + ".refused.json", _json_doc({
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
    _emit(out_base, _csv(["mu", "E", "lambda", "branch_id", "flag"], rows))
    _emit(out_base + ".json", _json_doc(sidecar))
    return 0


# ---------------------------------------------------------------------------
# verify


def cmd_verify(args) -> int:
    results = verification.run_checks(args.suite)
    n_fail = sum(not r.passed for r in results)
    # timings stay on the console; the report must be byte-reproducible
    report = {
        "suite": args.suite,
        "passed": n_fail == 0,
        "checks": [
            {"name": r.name, "passed": r.passed, "claim": r.claim,
             "detail": r.detail,
             "margins": [{"metric": g.metric, "value": _json_number(g.value),
                          "bound": _json_number(g.bound), "sense": g.sense}
                         for g in r.margins]}
            for r in results
        ],
    }
    # the status lines go to stderr, so that stdout holds the report alone
    for r in results:
        status = "PASS" if r.passed else "FAIL"
        sys.stderr.write(f"[{status}] {r.name} ({r.seconds:.2f}s)\n")
        if not r.passed:
            sys.stderr.write(f"       {r.detail}\n")
    if args.out:
        _emit(args.out, _json_doc(report))
    elif args.format == "json":
        sys.stdout.write(_json_doc(report))
    sys.stderr.write(f"{'OK' if n_fail == 0 else 'FAILED'}: "
                     f"{len(results) - n_fail}/{len(results)} checks passed\n")
    return 0 if n_fail == 0 else 1


# ---------------------------------------------------------------------------
# entry point


class _Parser(argparse.ArgumentParser):
    """argparse's parser, reading an argument that starts with '-' and then a
    digit, a point, 'inf' or 'nan' as a value ('--lambda -1e-3', '--range
    -1:2:3'), as the '--option=value' form is: argparse's own pattern takes
    only plain digits ('-1', '-.5') for a number and the rest for options."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._negative_number_matcher = re.compile(r"-(\.?\d|inf|nan)", re.IGNORECASE)


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process: parsing leaves it as it was."""
    parser = _Parser(
        prog="deltanls",
        description=("Stationary states, mass maps and ground-state energy "
                     "levels of the 1D NLS with a defocusing bulk term and a "
                     "focusing point term at the origin."))
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--out", default=None,
                        help="output file (default: stdout, or $DELTANLS_OUT for curves)")
    formatted = argparse.ArgumentParser(add_help=False, parents=[common])
    formatted.add_argument("--format", choices=("csv", "json"), default="csv",
                           help="output format (default: csv)")

    sub = parser.add_subparsers(dest="command", required=True)

    pc = sub.add_parser("classify", parents=[formatted],
                        help="region tag, existence rule and thresholds")
    pc.add_argument("--p", type=float, required=True)
    pc.add_argument("--q", type=float, required=True)
    pc.set_defaults(fn=cmd_classify)

    ps = sub.add_parser("solve", parents=[formatted],
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

    pv = sub.add_parser("verify", parents=[formatted],
                        help="run the verification battery")
    pv.add_argument("suite", choices=("quick", "full"), nargs="?", default="quick")
    pv.set_defaults(fn=cmd_verify)
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except (ValueError, OSError) as exc:   # InvalidExponents is a ValueError
        sys.stderr.write(f"error: {exc}\n")
        return 2
    except stationary.StateOutOfRange as exc:   # an honest refusal
        sys.stderr.write(f"error: {exc}\n")
        return 4
    except RuntimeError as exc:   # a GateFailure, or another library defect
        sys.stderr.write(f"error: {exc}\n")
        return 3


if __name__ == "__main__":
    sys.exit(main())
