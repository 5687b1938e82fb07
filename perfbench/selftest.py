"""Self-test of the benchmark: tiny workloads, and checks that reject wrong answers.

    python3 perfbench/selftest.py

1. The reference (``indep``) agrees with closed forms of the paper and with
   40-digit mpmath.
2. Each workload runs at a tiny size through the worker, and its answers
   pass the checks; the named fault fails as named.
3. Wrong answers are rejected: a state whose mass is off by 1e-3 (moved
   along its branch, so that f(t) = g(lambda) and the vertex condition
   still hold), a state count off by one, a wrong mu0, a level-curve sample
   off by 1e-3, and a failed battery check.

Exits 0 when every step holds.
"""

from __future__ import annotations

import copy
import json
import math
import os
import sys
import time

import checks
import indep
import run
import workloads

FAILURES: list[str] = []


def expect(ok: bool, what: str) -> None:
    print(f"  [{'ok' if ok else 'FAIL'}] {what}")
    if not ok:
        FAILURES.append(what)


def reference() -> None:
    print("reference against closed forms and 40-digit mpmath")
    import mpmath
    mpmath.mp.dps = 40
    expect(abs(indep.mu0(4.0, 2.5) - math.sqrt(2.0)) < 1e-14, "mu0(4, 2.5) = sqrt(2)")
    expect(abs(indep.lambda_bar(4.0, 2.5) - 1.0 / 32.0) < 1e-16, "lambda_bar(4, 2.5) = 1/32")
    y, mu_min = indep.branch_minimum(4.0, 3.5)
    expect(abs(mu_min - 16.0 * math.sqrt(6.0) / 9.0) < 1e-13 and abs(y) < 1e-6,
           "branch minimum of (4, 3.5) is 16 sqrt(6)/9 at t = 2")
    expect(abs(indep.mass(4.0, 2.5, 1.0) - math.sqrt(6.0) / 4.0) < 1e-14,
           "mu(2) = sqrt(6)/4 at (4, 2.5)")
    worst = 0.0
    for p in (2.3, 3.0, 4.5, 7.0, 15.0):
        for d in (1e-200, 1e-8, 1e-3, 0.7, 50.0, 1e9):
            a = mpmath.mpf(2) / (p - 2)
            b = mpmath.mpf(p - 6) / (2 * (p - 2))
            dm = mpmath.mpf(d)
            # I(t) = B(1 - 1/t^2; a, b) / 2
            ref = mpmath.betainc(a, b, 0, dm * (dm + 2) / (1 + dm) ** 2) / 2
            got = indep.log_branch_integral((4.0 - p) / (p - 2.0), d)
            worst = max(worst, abs(got - float(mpmath.log(ref))))
    expect(worst < 1e-12,
           f"log I(t) by QUADPACK's algebraic weight vs incomplete beta: {worst:.2g}")


def tiny_pass(workload: str, spec: dict) -> dict:
    os.makedirs(run.RESULTS, exist_ok=True)
    inputs = os.path.join(run.RESULTS, f"selftest-{workload}.inputs.json")
    with open(inputs, "w", encoding="utf-8") as fh:
        json.dump(spec, fh)
    out = os.path.join(run.RESULTS, f"selftest-{workload}.pass.json")
    spans = os.path.join(run.RESULTS, f"selftest-{workload}.spans.tsv")
    return run.run_pass(workload, inputs, "1", out, spans, time.perf_counter() + 120.0)


def problems_of(workload, spec, answers):
    per_op, series = checks.check(workload, spec, answers, workloads.CHECK_NAMES)
    return per_op, series


def tiny_workloads() -> dict:
    print("tiny workloads through the worker (traced)")
    results = {}
    base = workloads.spec("quadrant-cold", 0)
    fault = [2.286, 5.085]
    quad = dict(base, ops=[list(workloads.seeded_pairs(0)[k]) for k in (9, 12)]
                + [[8.0, 4.5], [4.0, 3.5], fault])
    res = tiny_pass("quadrant-cold", quad)
    per_op, series = problems_of("quadrant-cold", quad, res["answers"])
    expect(not any(per_op[:-1]) and not series,
           f"quadrant-cold: {len(quad['ops']) - 1} pairs pass")
    expect(checks.expected_failure("quadrant-cold", fault, per_op[-1]) and per_op[-1],
           f"quadrant-cold: the missed state at {tuple(fault)} fails as named: {per_op[-1]}")
    expect(res["layers"]["algebra.I_of_t.calls"] > 0 and res["layers"]["algebra.quad.evals"] > 0,
           "quadrant-cold: the tracer counts I_of_t calls and integrand evaluations")
    results["quadrant-cold"] = (quad, res)

    # every tenth mass of each grid keeps the curve's shape resolvable
    full = workloads.spec("level-curve-warm", 0)
    curve = dict(full, ops=[op for k, op in enumerate(full["ops"]) if k % 10 == 0])
    res = tiny_pass("level-curve-warm", curve)
    per_op, series = problems_of("level-curve-warm", curve, res["answers"])
    expect(not any(per_op) and not series,
           f"level-curve-warm: {len(curve['ops'])} samples pass {series or ''}")
    results["level-curve-warm"] = (curve, res)

    battery = dict(workloads.spec("verify-full", 0),
                   ops=["exact-branch-regression", "diagonal-regime"])
    res = tiny_pass("verify-full", battery)
    per_op, series = checks.check_battery(battery, res["answers"])
    expect(not any(per_op), "verify-full: two checks of the battery pass")
    expect(res["layers"]["verification.diagonal-regime.total_s"] > 0.0,
           "verify-full: the tracer times each check")
    results["verify-full"] = (battery, res)
    return results


def _moved_state(p: float, q: float, st: dict, rel_mass: float) -> dict:
    """The state on the same branch whose mass is (1 + rel_mass) times larger."""
    target = math.log(indep.mass(p, q, st["d"])) + math.log1p(rel_mass)
    y0 = math.log(st["d"])
    y = y0
    for _ in range(50):   # Newton on log mu(y) with a centred-difference slope
        f = math.log(indep.mass(p, q, math.exp(y))) - target
        h = 1e-6
        slope = (math.log(indep.mass(p, q, math.exp(y + h)))
                 - math.log(indep.mass(p, q, math.exp(y - h)))) / (2 * h)
        y -= f / slope
        if abs(f) < 1e-14:
            break
    d = math.exp(y)
    lam = math.exp(indep.log_lambda(p, q, d))
    kappa = 0.5 * (p - 2.0) * math.sqrt(lam)
    a = 0.5 * (math.log(d + 2.0) - math.log(d)) / kappa   # atanh(1/t) / kappa
    u0 = (0.5 * p * lam * d * (d + 2.0)) ** (1.0 / (p - 2.0))
    return dict(st, t=1.0 + d, d=d, lam=lam, a=a, u0=u0)


def mutations(results: dict) -> None:
    print("wrong answers are rejected")
    quad, res = results["quadrant-cold"]
    k = next(i for i, op in enumerate(quad["ops"]) if op == [4.0, 3.5])
    p, q = quad["ops"][k]
    part = "mass=7.0"   # one state, on the falling branch of the F pair

    def rejected(workload, spec, answers, op_index, label):
        per_op, series = problems_of(workload, spec, answers)
        caught = per_op[op_index] or series
        expect(bool(caught), f"{label}: {per_op[op_index] or series}")

    answers = copy.deepcopy(res["answers"])
    st = answers[k][part]["states"][0]
    moved = _moved_state(p, q, st, 1e-3)
    expect(checks.state_residuals(p, q, moved) is None,
           "the moved state still satisfies f(t) = g(lambda) and the vertex condition")
    answers[k][part]["states"][0] = moved
    rejected("quadrant-cold", quad, answers, k, "mass off by 1e-3")

    answers = copy.deepcopy(res["answers"])
    answers[k][part]["states"].append(answers[k][part]["states"][0])
    rejected("quadrant-cold", quad, answers, k, "one state too many")

    answers = copy.deepcopy(res["answers"])
    c = next(i for i, op in enumerate(quad["ops"]) if op == [8.0, 4.5])
    answers[c]["mass=7.0"]["states"].pop()
    rejected("quadrant-cold", quad, answers, c, "one state too few")

    answers = copy.deepcopy(res["answers"])
    answers[k]["classify"]["thresholds"]["mu0"] *= 1.0 + 1e-6
    rejected("quadrant-cold", quad, answers, k, "mu0 off by 1e-6")

    answers = copy.deepcopy(res["answers"])
    answers[k]["freq=0.3"] = answers[k]["freq=0.3"] + answers[k]["freq=0.3"][:1]
    rejected("quadrant-cold", quad, answers, k, "one state too many at a frequency")

    curve, res = results["level-curve-warm"]
    j = len(curve["ops"]) // 8
    answers = copy.deepcopy(res["answers"])
    answers[j]["value"] *= 1.0 + 1e-3
    answers[j]["candidates"][0][2] = answers[j]["value"]
    rejected("level-curve-warm", curve, answers, j, "a level sample off by 1e-3")

    answers = copy.deepcopy(res["answers"])
    answers[j]["candidates"] = []
    rejected("level-curve-warm", curve, answers, j, "a level sample with no state")

    battery, res = results["verify-full"]
    answers = copy.deepcopy(res["answers"])
    answers[0]["passed"] = False
    per_op, _ = checks.check_battery(battery, answers)
    expect(bool(per_op[0]), "a failed battery check")


def main() -> int:
    reference()
    mutations(tiny_workloads())
    print("self-test " + ("passed" if not FAILURES else f"FAILED: {FAILURES}"))
    return 0 if not FAILURES else 1


if __name__ == "__main__":
    sys.exit(main())
