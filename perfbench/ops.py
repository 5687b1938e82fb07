"""What one operation of each workload runs in the worker, and its answer.

Calls go through module attributes (``massmap.normalized_solutions``, not a
name imported from it) so that the tracer's wrappers see them.  An exception
inside one part of a quadrant operation is recorded under that part and the
other parts still run.
"""

from __future__ import annotations

import contextlib
import io
import json

from deltanls import cli, energy, massmap, stationary, verification
from deltanls.params import Params


def _state(point) -> dict:
    return {"t": point.t, "d": point.d, "lam": point.lam, "a": point.a, "u0": point.u0}


def _sample(s) -> dict:
    return {"value": s.value, "lam": s.lam, "flag": s.flag.value,
            "branch_id": s.branch_id, "candidates": [list(c) for c in s.candidates]}


def _classify(p: float, q: float) -> dict:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.main(["classify", "--p", repr(p), "--q", repr(q), "--format", "json"])
    if code != 0:
        raise RuntimeError(f"deltanls classify exited with {code}")
    doc = json.loads(buf.getvalue())
    return {key: doc[key] for key in ("region", "interval", "unique", "thresholds")}


def quadrant(spec: dict, p: float, q: float) -> dict:
    params = Params(p, q)
    out: dict = {"errors": {}}

    def part(name, fn):
        try:
            out[name] = fn()
        except Exception as exc:  # recorded per part; checked against the named faults
            out["errors"][name] = f"{type(exc).__name__}: {exc}"[:300]

    part("classify", lambda: _classify(p, q))
    for mu in spec["mass_ladder"]:
        def at_mass(mu=mu):
            sols = massmap.normalized_solutions(params, mu)
            states = [dict(_state(s.point), energy=s.energy) for s in sols]
            return {"states": states, "level": _sample(energy.groundstate_energy(params, mu))}
        part(f"mass={mu}", at_mass)
    for lam in spec["freq_ladder"]:
        part(f"freq={lam}", lambda lam=lam: [
            _state(pt) for pt in stationary.solve_for_lambda(params, lam).points])
    return out


def curve_warmup(spec: dict) -> None:
    """Fill the caches of each level-curve pair: one sample at each grid end."""
    for key, pq in spec["curve_pairs"].items():
        grid = [mu for k, mu in spec["ops"] if k == key]
        energy.groundstate_energy(Params(*pq), grid[0])
        energy.groundstate_energy(Params(*pq), grid[-1])


def curve_sample(params: Params, mu: float) -> dict:
    return _sample(energy.groundstate_energy(params, mu))


def check(name: str) -> dict:
    # the module attribute, which the tracer wraps
    res = getattr(verification, "check_" + name.replace("-", "_"))()
    return {"name": res.name, "passed": res.passed, "detail": res.detail}


def battery_names() -> list[str]:
    return [f.__name__[len("check_"):].replace("_", "-") for f in verification.FULL_CHECKS]


def runner(workload: str, spec: dict):
    """(warm-up or None, function that runs one operation given its input)."""
    if workload == "quadrant-cold":
        return None, lambda op: quadrant(spec, *op)
    if workload == "level-curve-warm":
        params = {key: Params(*pq) for key, pq in spec["curve_pairs"].items()}
        return (lambda: curve_warmup(spec)), lambda op: curve_sample(params[op[0]], op[1])
    return None, check
