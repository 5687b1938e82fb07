"""Inputs of the three workloads, made from the seed alone.

This module does not import deltanls: the runner uses it to know what each
operation asked, the worker uses it to know what to run.

quadrant-cold
    One operation answers one exponent pair from a cold interpreter: what
    ``deltanls classify`` prints, the states and the ground-state energy at
    each mass of ``MASS_LADDER``, and the states at each frequency of
    ``FREQ_LADDER``.  The seeded pairs are a stratified sample of the
    (2, 16] x (2, 12] quadrant of the roadmap's sweep: one pair near each of
    three anchors in each open region A-F (``seeded_pairs``).  Fixed pairs
    follow: the boundary lines q = 4 and q = p/2 + 1, the line p = 6, and
    the named faults.
level-curve-warm
    One operation is one sample E(mu) of ``energy.groundstate_energy`` on a
    pair whose caches the warm-up has filled.  The grids do not depend on
    the seed.
verify-full
    One operation is one check of ``verification.FULL_CHECKS``, in order.
"""

from __future__ import annotations

import math
import random

import indep

MASS_LADDER = (0.3, 0.5, 1.0, 2.5, 7.0, 40.0)
FREQ_LADDER = (1e-3, 0.03, 0.3, 3.0)



#: Range of t - 1 in which the program can represent a state: its
#: frequency solver scans down to e^-33, its mass inversion down to e^-300,
#: and the offset a = (log(d+2) - log(d)) / ... loses a digit per decade of
#: d past 1e6 (the vertex residual then exceeds 1e-8).
STATE_RANGE = (math.exp(-30.0), 1e6)


def excluded(p: float, q: float) -> str | None:
    """Why the seeded sample must skip (p, q), or None.

    Near these lines, and wherever a state asked for lies outside
    STATE_RANGE, the program fails on some pairs and not on others, so a
    pair drawn there would make the number of failed operations depend on
    the seed.  Failures that occur are kept as fixed operations
    (``FAULT_PAIRS``); the reference locates the states (``indep``).
    """
    if p < 3.4:
        return "I(t) tail overflows at t - 1 = e^340 for p < 3.3"
    if abs(q - 4.0) < 0.35:
        return "q near 4: states near t = 1 below the inversion floor"
    if abs(q - (p / 2.0 + 1.0)) < 0.35:
        return "q near p/2 + 1: exponents 1/(2q-p-2) overflow"
    lo, hi = STATE_RANGE
    for mu in MASS_LADDER:
        if any(not lo < d < hi for d in indep.states_at_mass(p, q, mu)):
            return f"a state of mass {mu} lies outside t - 1 in {STATE_RANGE}"
    for lam in FREQ_LADDER:
        if any(not lo < d < hi for d in indep.frequency_states(p, q, lam)):
            return f"a state at frequency {lam} lies outside t - 1 in {STATE_RANGE}"
    return None


#: Anchor points of the seeded sample, three per open region, spread over
#: the part of the region that ``excluded`` lets through.
ANCHORS = {
    "A": ((4.0, 2.45), (4.7, 2.7), (5.3, 3.0)),
    "B": ((7.5, 2.8), (11.0, 3.2), (13.5, 3.1)),
    "C": ((10.0, 5.0), (13.0, 6.0), (15.0, 7.2)),
    "D": ((7.5, 8.0), (11.0, 10.0), (14.0, 11.0)),
    "E": ((3.8, 7.0), (4.5, 10.0), (5.2, 8.5)),
    "F": ((3.55, 3.35), (3.8, 3.45), (4.05, 3.55)),
}
JITTER = 0.15


def seeded_pairs(seed: int) -> list[tuple[float, float]]:
    """One pair per anchor, drawn uniformly from the square of half-width
    JITTER around it, inside the anchor's region and not excluded.

    A stratified sample: every seed asks the same mix of regions, so the
    cost of a pass moves little from seed to seed while the pairs differ.
    """
    rng = random.Random(seed)
    pairs = []
    for reg, anchors in ANCHORS.items():
        for p0, q0 in anchors:
            for _ in range(200):
                p = round(rng.uniform(p0 - JITTER, p0 + JITTER), 4)
                q = round(rng.uniform(q0 - JITTER, q0 + JITTER), 4)
                if indep.region(p, q) == reg and excluded(p, q) is None:
                    pairs.append((p, q))
                    break
            else:
                raise RuntimeError(f"no admissible pair near the anchor {(p0, q0)}")
    return pairs


#: Fixed pairs: both q = 4 regions and the diagonal on each side of p = 8.
#: The line p = 6 (regions B and D include it) is among FAULT_PAIRS.
FIXED_PAIRS = ((5.0, 4.0), (10.0, 4.0), (7.0, 4.5), (12.0, 7.0))

#: Pairs at which the program fails, with the parts that fail and how.  They
#: count as failed operations in every run.
FAULT_PAIRS = {
    # OverflowError from the tail of algebra.I_of_t near p = 2, and from the
    # powers of f(t) in the frequency solver
    (2.0737, 10.2123): {**{f"mass={m}": "OverflowError" for m in MASS_LADDER},
                        **{f"freq={lam}": "OverflowError" for lam in FREQ_LADDER}},
    (2.284, 6.986): {f"mass={m}": "OverflowError" for m in (0.3, 0.5, 1.0)},
    (2.524, 3.918): {"classify": "OverflowError",
                     **{f"mass={m}": "OverflowError" for m in (2.5, 7.0, 40.0)}},
    # region E, mu0 = 1.7098: one state expected at mass 1, none returned
    (2.286, 5.085): {"mass=1.0": "count"},
    # the state sits at t - 1 ~ 1e-256, below the inversion floor e^-300;
    # the inverted state has mass 1.82 and the profile-mass gate raises
    (14.3567, 3.9728): {f"mass={m}": "RuntimeError" for m in (0.3, 0.5)},
    # p = 6, mass 40: the state sits at t - 1 = 5.4e9, where the offset a
    # keeps five digits and the vertex residual is 4e-6
    (6.0, 3.0): {"mass=40.0": "residual"},
    (6.0, 5.0): {"mass=40.0": "residual"},
}


def quadrant_pairs(seed: int) -> list[tuple[float, float]]:
    return seeded_pairs(seed) + list(FIXED_PAIRS) + list(FAULT_PAIRS)


# ---------------------------------------------------------------------------
# level curve

#: Pairs of the level-curve workload, by letter.
CURVE_PAIRS = {"A": (4.0, 2.5), "B": (8.0, 3.0), "C": (8.0, 4.5), "F": (4.0, 3.5)}
CONVEXITY_POINTS = 400   # the grid size convexity_scan uses
PLATEAU_POINTS = 8       # A past mu0, where the level is constant
WINDOW_POINTS = 80       # C and F above the branch minimum
BELOW_POINTS = 20        # F below the branch minimum


def _linspace(a: float, b: float, n: int) -> list[float]:
    return [a + (b - a) * k / (n - 1) for k in range(n)]


def _geomspace(a: float, b: float, n: int) -> list[float]:
    la, lb = math.log(a), math.log(b)
    return [math.exp(la + (lb - la) * k / (n - 1)) for k in range(n)]


def curve_grids() -> dict[str, list[float]]:
    """Mass grid of each level-curve pair.

    A and B use the grids of ``energy.convexity_scan``; A gets a short
    tail past mu0 = sqrt(2).  C and F sample above their branch minimum
    (F up to its plateau mu0), and F also just below it.
    """
    mu0_a = indep.mu0(*CURVE_PAIRS["A"])
    a_grid = _linspace(mu0_a / 400.0, mu0_a * (1.0 - 1e-4), CONVEXITY_POINTS)
    a_grid += _linspace(mu0_a * 1.05, mu0_a * 3.0, PLATEAU_POINTS)
    b_grid = _geomspace(1e-2, 1e3, CONVEXITY_POINTS)
    _, min_c = indep.branch_minimum(*CURVE_PAIRS["C"])
    c_grid = _geomspace(min_c * (1.0 + 1e-3), min_c * 10.0, WINDOW_POINTS)
    _, min_f = indep.branch_minimum(*CURVE_PAIRS["F"])
    mu0_f = indep.mu0(*CURVE_PAIRS["F"])
    f_grid = _linspace(min_f * 0.8, min_f * (1.0 - 1e-3), BELOW_POINTS)
    f_grid += _linspace(min_f * (1.0 + 1e-3), mu0_f * (1.0 - 1e-3), WINDOW_POINTS)
    return {"A": a_grid, "B": b_grid, "C": c_grid, "F": f_grid}


def curve_ops() -> list[tuple[str, float]]:
    return [(key, mu) for key, grid in curve_grids().items() for mu in grid]


# ---------------------------------------------------------------------------
# verify-full

#: Names of the checks of the full battery, in the order run_checks runs
#: them; used for the per-layer metric names.
CHECK_NAMES = ("exact-branch-regression", "multiplicity-window",
               "mass-two-threshold", "diagonal-regime", "energy-level-shape",
               "multiplier-identity", "unboundedness-probes", "gn-inequality",
               "mass-monotonicity", "oracle-equivalence", "region-partition",
               "flow-vs-branch", "probe-flow")

WORKLOADS = ("quadrant-cold", "level-curve-warm", "verify-full")


def spec(workload: str, seed: int) -> dict:
    """Everything a pass needs to run: its fixed list of operations, as plain data."""
    if workload == "quadrant-cold":
        ops = [list(pq) for pq in quadrant_pairs(seed)]
    elif workload == "level-curve-warm":
        ops = [list(op) for op in curve_ops()]
    elif workload == "verify-full":
        ops = list(CHECK_NAMES)
    else:
        raise ValueError(f"unknown workload {workload!r}")
    return {"ops": ops, "mass_ladder": list(MASS_LADDER), "freq_ladder": list(FREQ_LADDER),
            "curve_pairs": {key: list(pq) for key, pq in CURVE_PAIRS.items()}}
