"""The ground-state energy level E(mu), the zero-level mass and convexity.

The functional is E(u) = (1/2)||u'||_2^2 + (1/p)||u||_p^p - (1/q)|u(0)|^q.
For branch states all three pieces reduce to closed forms in (t, lambda)
(``stationary.branch_energy``), so the level curve
E(mu) = inf {E(u) : ||u||_2^2 = mu} is assembled from branch enumeration
plus the vanishing competitor 0: the level is always non-positive and
non-increasing, and the minimizer (when one exists) is a stationary state.
Attainment bookkeeping is explicit: per sample the flag says attained /
infimum-not-attained / minus-infinity / unknown.  Which of these a region
allows, and how its zero-level mass is obtained, is read from the rule of
``params.expected_solution_regime`` (its ``level`` and ``zero_level_mass``).
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from . import algebra, massmap, stationary
from .params import Level, Params, ThresholdKind, expected_solution_regime
from .stationary import branch_energy


class Attainment(enum.Enum):
    ATTAINED = "attained"
    NOT_ATTAINED = "infimum-not-attained"
    MINUS_INFINITY = "minus-infinity"
    UNKNOWN = "unknown-finiteness"


@dataclass(frozen=True)
class EnergySample:
    """One point of the level curve: value, multiplier, provenance, flag."""

    mu: float
    value: float | None          # None for minus-infinity / unknown samples
    lam: float | None            # multiplier of the minimizing branch, if any
    branch_id: str
    flag: Attainment
    candidates: tuple[tuple[float, float, float], ...] = field(default_factory=tuple)
    # (t, lambda, energy) of every branch state at this mass


@lru_cache(maxsize=64)
def _plateau_energy(params: Params) -> float:
    return branch_energy(stationary.zero_frequency_point(params)).total


def groundstate_energy(params: Params, mu: float) -> EnergySample:
    """E(mu) at one mass, with attainment read from the rule of params.

    Where the rule's level is minus infinity (regions D and E, and G past
    mass 2) the sample is flagged minus-infinity and carries no number;
    where it is open (the diagonal with p >= 6) it is reported as unknown,
    with the branch states as candidates.
    """
    if not 0.0 < mu < math.inf:
        raise ValueError(f"need a finite mu > 0, got {mu}")
    level = expected_solution_regime(params).level
    if level is Level.MINUS_INFINITY or (level is Level.ZERO_UP_TO_TWO and mu > 2.0):
        return EnergySample(mu, None, None, "none", Attainment.MINUS_INFINITY)
    if level in (Level.ZERO, Level.ZERO_UP_TO_TWO):
        return EnergySample(mu, 0.0, None, "vanishing", Attainment.NOT_ATTAINED)
    if level is Level.PLATEAU and mu > algebra.mu0(params) * (1.0 + massmap.MU0_MATCH_RTOL):
        # constant level past mu0; only partial mass can concentrate
        return EnergySample(mu, _plateau_energy(params), 0.0, "plateau",
                            Attainment.NOT_ATTAINED)

    sols = massmap.normalized_solutions(params, mu)
    cands = tuple(sorted((s.point.t, s.point.lam, s.energy) for s in sols))
    if level is Level.OPEN:
        return EnergySample(mu, None, None, "none", Attainment.UNKNOWN, cands)
    best = min(sols, key=lambda s: s.energy, default=None)
    if best is None or best.energy > 0.0:
        # no state, or every state costs positive energy: the level sits at 0
        return EnergySample(mu, 0.0, None, "vanishing", Attainment.NOT_ATTAINED, cands)
    if best.point.zero_frequency:
        branch_id = "zero-frequency"
    elif len(sols) == 1:
        branch_id = "only"
    else:
        branch_id = "lower" if best.point.t <= sols[0].point.t else "upper"
    return EnergySample(mu, best.energy, best.point.lam, branch_id,
                        Attainment.ATTAINED, cands)


def zero_level_mass(params: Params) -> float | None:
    """Largest mass with E(mu) = 0, where the level starts strictly negative.

    The rule of params names how it is obtained: exactly 2 for q = 4 (G and
    H); the mass of the root of the branch energy on one monotone piece of
    the mass map (C and F); None where the level is negative for all masses
    (A, B) or identically unbounded/zero elsewhere.
    """
    kind = expected_solution_regime(params).zero_level_mass
    if kind is ThresholdKind.MASS_TWO:
        return 2.0
    if kind is not ThresholdKind.BRANCH_ENERGY_ROOT:
        return None

    # Along each monotone piece of mu(y), E falls as mu grows (dE/dmu =
    # -lambda/2), so the branch minimum has the largest energy on both of
    # its pieces, and that energy is positive: in C because E > 0 as t -> 1
    # (q > 4), in F because it exceeds the energy
    # E0 = 4 u0^2 (2q-p-2)/((p-2)(p+2) q a) > 0 of the zero-frequency state.
    # E = c (t (2q-p-2)/q - (6-p)/(p-2) J(t)) with c > 0, and the bracket
    # tends to (p+2)(q-4)/(4q) as t -> 1+ and has the sign of 2q-p-2 as
    # t -> inf, so E changes sign exactly once on the piece searched: towards
    # t -> 1 in F (q < 4), where E rises with y, and towards t -> inf in C
    # (2q < p + 2), where it falls.  In F without a dip the falling piece is
    # the whole branch, and the walk starts from t = 2.
    y = massmap.branch_minimum(params).y
    y = y if math.isfinite(y) else 0.0
    energy_at = lambda y: branch_energy(stationary.state_at_logd(params, y)).total
    e = energy_at(y)
    slope = 1.0 if params.p < 6.0 else -1.0   # sign of dE/dy on the piece: F, C
    y = stationary.root_from(energy_at, y, e, -slope if e > 0.0 else slope)
    root = stationary.state_at_logd(params, y)
    mu = massmap.state_mass(root)
    massmap.mass_gate(root, mu)
    return mu


# ---------------------------------------------------------------------------
# convexity of the level curve


@dataclass(frozen=True)
class ConvexityReport:
    """Concave-then-convex diagnosis of the level curve (regions A and B)."""

    mu_bar: float                # crossing located from second differences
    lambda_peak_mass: float      # mass of the branch point maximizing lambda
    crossing_gap: float          # grid spacing at the crossing


def multiplier_peak_mass(params: Params) -> float | None:
    """Mass of the fold point t*, where the multiplier lambda(mu) peaks, for
    q < min(4, p/2 + 1), where the level curve turns from concave to convex
    (regions A and B); None elsewhere."""
    if not params.q < min(4.0, params.p / 2.0 + 1.0):
        return None
    return massmap.mass_of_t(params, d=algebra.d_star(params))


def second_divided_differences(mus: np.ndarray, levels: np.ndarray) -> np.ndarray:
    """2 (right slope - left slope) / (mu[i+1] - mu[i-1]) at each interior mass."""
    slopes = np.diff(levels) / np.diff(mus)
    return 2.0 * np.diff(slopes) / (mus[2:] - mus[:-2])


def convexity_scan(params: Params) -> ConvexityReport:
    """Locate the single concave-to-convex crossing of the level curve.

    The level is sampled at 400 masses: evenly on (0, mu0) for p < 6,
    geometrically on [1e-2, 1e3] beyond.  Second divided differences must
    change sign at most once, from <= 0 to >= 0; anything else is reported
    as insufficient resolution.  The crossing is cross-checked against the
    mass of the fold point t*, where the multiplier lambda(mu) peaks.
    """
    lam_peak_mass = multiplier_peak_mass(params)
    if lam_peak_mass is None:
        raise ValueError("level-curve convexity split needs q < min(4, p/2 + 1)")
    if params.p < 6.0:
        mu0 = algebra.mu0(params)
        mus = np.linspace(mu0 / 400.0, mu0 * (1.0 - 1e-4), 400)
    else:
        mus = np.geomspace(1e-2, 1e3, 400)
    levels = np.array([groundstate_energy(params, m).value for m in mus])
    if np.any(~np.isfinite(levels)):
        raise ValueError("level curve is not finite on the requested grid")

    dd = second_divided_differences(mus, levels)

    noise = 64.0 * np.finfo(float).eps * np.max(np.abs(levels)) \
        / np.min(np.diff(mus)) ** 2
    signs = np.where(np.abs(dd) <= noise, 0.0, np.sign(dd))
    nonzero = signs[signs != 0.0]
    if len(nonzero) == 0:
        raise ValueError("grid resolution insufficient: no curvature resolved")
    flips = np.nonzero(np.diff(nonzero) != 0.0)[0]
    if len(flips) != 1 or nonzero[0] >= 0.0 or nonzero[-1] <= 0.0:
        raise ValueError(
            "grid resolution insufficient: curvature does not split cleanly "
            f"into a concave then a convex part ({len(flips)} sign flips)")

    last_neg = int(np.max(np.nonzero(signs < 0.0)[0]))
    first_pos = int(np.min(np.nonzero(signs > 0.0)[0]))
    lo = mus[1 + last_neg]
    hi = mus[1 + first_pos]
    return ConvexityReport(float(0.5 * (lo + hi)), lam_peak_mass, float(hi - lo))
