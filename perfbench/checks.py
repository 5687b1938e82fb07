"""Answer checks, run on every run outside the timed operations.

Each check compares an answer of the program with ``indep`` (computations
made apart from the program) or with a property the method must have; none
compares with a stored copy of earlier output.  A problem is keyed by the
part of the operation it concerns and carries a kind: the name of the
exception the part raised, or the name of the check it failed.

``check(workload, spec, answers, battery)`` returns ``(per_op, series)``:
one dict of problems per operation, and a list of problems of whole series
(the level curve's shape, the make-up of the check battery) that belong to
no single operation.
"""

from __future__ import annotations

import math

import indep
import workloads

RESIDUAL_RTOL = 1e-8    # f(t) = g(lambda) and -2 u'(0+) = u0^(q-1)
MASS_RTOL = 1e-6        # mass of a state against the requested mass
ENERGY_RTOL = 1e-7      # energies, relative to kinetic + bulk + point
CLOSED_FORM_RTOL = 1e-10
MINIMUM_RTOL = 1e-8     # branch minimum found by minimisation
THRESHOLD_SKIP = 1e-6   # masses this close to a threshold are not judged


def _rel(got: float, want: float) -> float:
    return abs(got - want) / abs(want)


def _kind(message: str) -> str:
    return message.split(":", 1)[0]


def state_residuals(p: float, q: float, st: dict) -> str | None:
    """f(t) = g(lambda) and -2 u'(0+) = u0^(q-1) from the returned (t, lambda, a, u0)."""
    d, lam, a, u0 = st["d"], st["lam"], st["a"], st["u0"]
    if math.isinf(d):
        # lambda = 0: u = c (|x| + a)^(-2/(p-2)), so -2 u'(0+) = 4 u0 / ((p-2) a)
        jump = math.log(4.0 * u0 / ((p - 2.0) * a))
        if abs(jump - (q - 1.0) * math.log(u0)) > RESIDUAL_RTOL:
            return f"zero-frequency vertex residual at a={a!r}"
        return None
    k = (q - 2.0) / (p - 2.0)
    log_f = math.log1p(d) - k * (math.log(d) + math.log(d + 2.0))
    log_g = math.log(0.5) + k * math.log(p / 2.0) \
        + (2.0 * q - p - 2.0) / (2.0 * (p - 2.0)) * math.log(lam)
    if abs(log_f - log_g) > RESIDUAL_RTOL:
        return f"f(t) != g(lambda): log ratio {log_f - log_g:.3g} at t-1={d!r}"
    kappa_a = 0.5 * (p - 2.0) * math.sqrt(lam) * a
    # u'(0+) = -sqrt(lambda) u0 coth(kappa a)
    log_jump = math.log(2.0) + 0.5 * math.log(lam) + math.log(u0) - math.log(math.tanh(kappa_a))
    if abs(log_jump - (q - 1.0) * math.log(u0)) > RESIDUAL_RTOL:
        return f"-2u'(0+) != u0^(q-1): log ratio {log_jump - (q - 1.0) * math.log(u0):.3g}"
    return None


class _Pair:
    """Reference quantities of one exponent pair, computed on first use."""

    def __init__(self, p: float, q: float) -> None:
        self.p, self.q = p, q
        self.region = indep.region(p, q)
        self.diagonal = self.region == "I"
        self._pieces = None

    @property
    def pieces(self):
        if self._pieces is None:
            self._pieces = indep.mass_pieces(self.p, self.q)
        return self._pieces

    def thresholds(self) -> list[float]:
        return [] if self.diagonal else indep.thresholds(self.p, self.q)

    def near_threshold(self, mu: float) -> bool:
        return any(abs(mu - t) <= THRESHOLD_SKIP * t for t in self.thresholds())

    def count(self, mu: float) -> int:
        if self.diagonal:
            return indep.diagonal_count(self.p)
        return indep.predicted_count(self.p, self.q, mu, self.pieces)

    def mass_threshold(self) -> float | None:
        """The threshold of the existence rule, as classify reports it."""
        if self.region in ("A", "E", "G"):
            return indep.mu0(self.p, self.q)
        if self.region == "H":
            return 2.0
        if self.region in ("C", "F"):
            return min(v for piece in self.pieces for v in piece[2:])
        return None

    def state_energy(self, st: dict) -> tuple[float, float]:
        if math.isinf(st["d"]):
            e = indep.zero_frequency_energy(self.p, self.q)
            return e, abs(e)
        return indep.energy(self.p, self.q, st["d"], st["lam"])


# ---------------------------------------------------------------------------
# quadrant-cold


def _classify_problem(ref: _Pair, c: dict) -> str | None:
    p, q = ref.p, ref.q
    th = c["thresholds"]
    if c["region"] != ref.region:
        return f"region {c['region']}, expected {ref.region}"
    if c["interval"] != indep.interval(p, q):
        return f"interval {c['interval']}, expected {indep.interval(p, q)}"
    want_mu0 = indep.mu0(p, q) if p < 6.0 and not ref.diagonal else None
    if (th["mu0"] is None) != (want_mu0 is None) or \
            (want_mu0 is not None and _rel(th["mu0"], want_mu0) > CLOSED_FORM_RTOL):
        return f"mu0 {th['mu0']!r}, expected {want_mu0!r}"
    want_fold = indep.lambda_bar(p, q) if not ref.diagonal and q < p / 2.0 + 1.0 else None
    if (th["lambda_bar"] is None) != (want_fold is None) or \
            (want_fold is not None and _rel(th["lambda_bar"], want_fold) > CLOSED_FORM_RTOL):
        return f"lambda_bar {th['lambda_bar']!r}, expected {want_fold!r}"
    want_thr = ref.mass_threshold()
    tol = MINIMUM_RTOL if ref.region in ("C", "F") else CLOSED_FORM_RTOL
    if (th["mu_threshold"] is None) != (want_thr is None) or \
            (want_thr is not None and _rel(th["mu_threshold"], want_thr) > tol):
        return f"mass threshold {th['mu_threshold']!r}, expected {want_thr!r}"
    tilde = th["mu_tilde"]
    if ref.region in ("G", "H"):
        if tilde != 2.0:
            return f"zero-level mass {tilde!r}, expected 2"
    elif ref.region in ("C", "F"):
        # the lowest branch energy vanishes at the zero-level mass, or is
        # already negative there when that mass is the threshold itself
        if tilde is None or tilde < want_thr * (1.0 - MINIMUM_RTOL):
            return f"zero-level mass {tilde!r} below the threshold {want_thr!r}"
        at = max(tilde, want_thr * (1.0 + 1e-12))
        e, scale = indep.min_branch_energy(p, q, at, ref.pieces)
        at_threshold = abs(tilde - want_thr) <= MINIMUM_RTOL * want_thr
        if e > ENERGY_RTOL * scale or (not at_threshold and e < -ENERGY_RTOL * scale):
            return f"lowest branch energy {e:.3g} (scale {scale:.3g}) at zero-level mass {tilde!r}"
    elif tilde is not None:
        return f"zero-level mass {tilde!r}, expected none"
    return None


def _mass_problem(ref: _Pair, mu: float, ans: dict) -> tuple[str, str] | None:
    p, q = ref.p, ref.q
    states, level = ans["states"], ans["level"]
    if not ref.near_threshold(mu) and len(states) != ref.count(mu):
        return "count", f"{len(states)} states, expected {ref.count(mu)}"
    energies = []
    for st in states:
        why = state_residuals(p, q, st)
        if why:
            return "residual", why
        got = indep.mu0(p, q) if math.isinf(st["d"]) else indep.mass(p, q, st["d"], st["lam"])
        if _rel(got, mu) > MASS_RTOL:
            return "mass", f"state at t-1={st['d']!r} has mass {got!r}"
        e, scale = ref.state_energy(st)
        if abs(st["energy"] - e) > ENERGY_RTOL * scale:
            return "energy", f"state energy {st['energy']!r}, expected {e!r}"
        energies.append((e, scale, st["lam"]))
    minus_inf = ref.region in ("D", "E") or (ref.region == "G" and mu > 2.0)
    if (level["flag"] == "minus-infinity") != minus_inf:
        return "flag", f"flag {level['flag']} in region {ref.region} at mass {mu}"
    if level["value"] is not None and level["value"] > 0.0:
        return "level", f"E = {level['value']!r} > 0"
    if level["flag"] == "attained":
        if not energies:
            return "level", "attained with no state"
        e, scale, lam = min(energies)
        if abs(level["value"] - e) > ENERGY_RTOL * scale or level["lam"] != lam:
            return "level", f"E = {level['value']!r}, lowest state energy {e!r}"
    return None


def _freq_problem(ref: _Pair, lam: float, states: list) -> tuple[str, str] | None:
    p, q = ref.p, ref.q
    if ref.diagonal:
        # t / sqrt(t^2 - 1) = sqrt(p / 8): t = sqrt(p / (p - 8)) for p > 8
        want = [math.sqrt(p / (p - 8.0)) - 1.0] if p > 8.0 else []
    elif q < p / 2.0 + 1.0 and abs(lam - indep.lambda_bar(p, q)) <= \
            THRESHOLD_SKIP * indep.lambda_bar(p, q):
        want = None   # at the fold
    else:
        want = indep.frequency_states(p, q, lam)
    if want is not None:
        if len(states) != len(want):
            return "count", f"{len(states)} states at lambda={lam}, expected {len(want)}"
        for st, d in zip(states, want):
            if _rel(st["d"], d) > RESIDUAL_RTOL:
                return "state", f"t - 1 = {st['d']!r}, expected {d!r}"
    for st in states:
        if st["lam"] != lam:
            return "residual", f"state at lambda={st['lam']!r}"
        why = state_residuals(p, q, st)
        if why:
            return "residual", why
    return None


def check_quadrant(spec: dict, answers: list) -> tuple[list[dict], list[str]]:
    per_op = []
    for (p, q), ans in zip(spec["ops"], answers):
        problems = {part: (_kind(msg), msg) for part, msg in ans.get("errors", {}).items()}
        if "error" in ans:
            per_op.append({"op": (_kind(ans["error"]), ans["error"])})
            continue
        ref = _Pair(p, q)
        if "classify" in ans:
            why = _classify_problem(ref, ans["classify"])
            if why:
                problems["classify"] = ("classify", why)
        finite = []
        for mu in spec["mass_ladder"]:
            part = f"mass={mu}"
            if part not in ans:
                continue
            found = _mass_problem(ref, mu, ans[part])
            if found:
                problems[part] = found
            value = ans[part]["level"]["value"]
            if value is not None:
                if finite and value > finite[-1] + 1e-12 * max(abs(value), abs(finite[-1])):
                    problems.setdefault(part, ("level", f"E increases to {value!r}"))
                finite.append(value)
        for lam in spec["freq_ladder"]:
            part = f"freq={lam}"
            if part in ans:
                found = _freq_problem(ref, lam, ans[part])
                if found:
                    problems[part] = found
        per_op.append(problems)
    return per_op, []


def expected_failure(workload: str, op, problems: dict) -> bool:
    """True when every problem of the operation is one of the named faults."""
    if workload != "quadrant-cold":
        return False
    named = workloads.FAULT_PAIRS.get(tuple(op), {})
    return all(named.get(part) == kind for part, (kind, _) in problems.items())


# ---------------------------------------------------------------------------
# level-curve-warm


def _second_difference_flip(mus: list, levels: list) -> tuple[int, float, float]:
    """(sign flips, crossing mass, grid spacing there) of the level's curvature."""
    dd = []
    for i in range(1, len(mus) - 1):
        left = (levels[i] - levels[i - 1]) / (mus[i] - mus[i - 1])
        right = (levels[i + 1] - levels[i]) / (mus[i + 1] - mus[i])
        dd.append(2.0 * (right - left) / (mus[i + 1] - mus[i - 1]))
    spacing = min(b - a for a, b in zip(mus, mus[1:]))
    noise = 64.0 * 2.220446049250313e-16 * max(abs(v) for v in levels) / spacing ** 2
    signs = [0 if abs(v) <= noise else (1 if v > 0 else -1) for v in dd]
    nonzero = [(i, s) for i, s in enumerate(signs) if s]
    flips = [k for k in range(len(nonzero) - 1) if nonzero[k][1] != nonzero[k + 1][1]]
    if len(flips) != 1 or nonzero[0][1] > 0:
        return len(flips), math.nan, math.nan
    last_neg = nonzero[flips[0]][0]
    first_pos = nonzero[flips[0] + 1][0]
    lo, hi = mus[1 + last_neg], mus[1 + first_pos]
    return 1, 0.5 * (lo + hi), hi - lo


def check_curve(spec: dict, answers: list) -> tuple[list[dict], list[str]]:
    per_op = [{} for _ in answers]
    series = []
    pairs = spec["curve_pairs"]
    _, min_f = indep.branch_minimum(*pairs["F"])
    if _rel(min_f, 16.0 * math.sqrt(6.0) / 9.0) > CLOSED_FORM_RTOL:
        series.append(f"reference branch minimum of F {min_f!r} != 16 sqrt(6)/9")
    for key, (p, q) in pairs.items():
        ref = _Pair(p, q)
        idx = [i for i, op in enumerate(spec["ops"]) if op[0] == key]
        mu0 = indep.mu0(p, q) if p < 6.0 else math.inf
        rows = []
        for i in idx:
            mu, s = spec["ops"][i][1], answers[i]
            if "error" in s:
                per_op[i]["op"] = (_kind(s["error"]), s["error"])
                continue
            why = _curve_sample_problem(ref, mu, mu0, s)
            if why:
                per_op[i]["sample"] = why
            rows.append((i, mu, s))
        # E non-increasing, and centred differences between -lambda/2 bounds
        for (_, m0, s0), (i1, m1, s1) in zip(rows, rows[1:]):
            if s1["value"] > s0["value"] + 1e-12 * max(abs(s0["value"]), abs(s1["value"])):
                per_op[i1].setdefault("sample", ("level", f"E increases at mass {m1!r}"))
        for (_, ma, sa), (i, _, sb), (_, mc, sc) in zip(rows, rows[1:], rows[2:]):
            trio = (sa, sb, sc)
            if any(s["flag"] != "attained" for s in trio) or \
                    len({s["branch_id"] for s in trio}) != 1:
                continue
            slope = (sc["value"] - sa["value"]) / (mc - ma)
            bounds = [-0.5 * s["lam"] for s in trio]
            lo, hi = min(bounds), max(bounds)
            # mean value theorem: the secant slope is -lambda/2 somewhere in
            # [ma, mc]; lambda varies there by about hi - lo
            slack = (hi - lo) + 1e-9 * abs(slope) + 1e-14
            if not lo - slack <= slope <= hi + slack:
                per_op[i].setdefault("sample", (
                    "slope", f"centred difference {slope!r} outside [{lo!r}, {hi!r}]"))
        if key in ("A", "B"):
            body = [(m, s["value"]) for _, m, s in rows if m < mu0]
            flips, crossing, gap = _second_difference_flip([m for m, _ in body],
                                                           [v for _, v in body])
            t_star = indep.t_star(p, q)
            fold_mass = indep.mass(p, q, t_star - 1.0)
            if flips != 1:
                series.append(f"{key}: curvature changes sign {flips} times")
            elif abs(crossing - fold_mass) > 2.0 * gap:
                series.append(f"{key}: curvature flips at {crossing!r}, "
                              f"mu(t*) = {fold_mass!r}, spacing {gap!r}")
    return per_op, series


def _curve_sample_problem(ref: _Pair, mu: float, mu0: float, s: dict):
    p, q = ref.p, ref.q
    if s["value"] is None or s["value"] > 0.0:
        return "level", f"E = {s['value']!r} at mass {mu!r}"
    if ref.region == "A" and mu > mu0:
        # constant past mu0, at the energy of the zero-frequency state
        e0 = indep.zero_frequency_energy(p, q)
        if _rel(s["value"], e0) > CLOSED_FORM_RTOL or s["flag"] != "infimum-not-attained":
            return "plateau", f"E = {s['value']!r} ({s['flag']}), expected {e0!r}"
        return None
    cands = s["candidates"]
    if not ref.near_threshold(mu) and len(cands) != ref.count(mu):
        return "count", f"{len(cands)} states at mass {mu!r}, expected {ref.count(mu)}"
    for t, lam, e in cands:
        if t - 1.0 > 1e-6:   # t - 1 recovered from t keeps ten digits
            want, scale = indep.energy(p, q, t - 1.0, lam)
            if abs(e - want) > ENERGY_RTOL * scale:
                return "energy", f"state energy {e!r}, expected {want!r}"
    if s["flag"] == "attained":
        _, lam, e = min(cands, key=lambda c: c[2])
        if s["value"] != e or s["lam"] != lam:
            return "level", f"E = {s['value']!r}, lowest state energy {e!r}"
    elif cands and (s["value"] != 0.0 or min(c[2] for c in cands) <= 0.0):
        return "level", f"E = {s['value']!r} with states below zero energy"
    return None


# ---------------------------------------------------------------------------
# verify-full


def check_battery(spec: dict, answers: list) -> tuple[list[dict], list[str]]:
    per_op = []
    for name, ans in zip(spec["ops"], answers):
        if "error" in ans:
            per_op.append({"op": (_kind(ans["error"]), ans["error"])})
        elif not ans["passed"] or ans["name"] != name:
            per_op.append({"check": ("check", f"{ans['name']}: {ans['detail']}")})
        else:
            per_op.append({})
    return per_op, []


def check(workload: str, spec: dict, answers: list, battery: list):
    fn = {"quadrant-cold": check_quadrant, "level-curve-warm": check_curve,
          "verify-full": check_battery}[workload]
    per_op, series = fn(spec, answers)
    if workload == "verify-full" and list(battery) != list(workloads.CHECK_NAMES):
        series.append(f"the battery is {battery}, expected {list(workloads.CHECK_NAMES)}")
    return per_op, series
