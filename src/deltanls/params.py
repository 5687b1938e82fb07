"""Exponent pair (p, q), its region in the pq-plane and the paper's rule there.

The bulk nonlinearity exponent p and the point nonlinearity exponent q
(both > 2) determine everything else in this package.  The quadrant
(2, inf) x (2, inf) splits into nine regions, separated by the lines
p = 6, q = 4 and the "diagonal" q = p/2 + 1, on which existence,
uniqueness and multiplicity of mass-constrained solutions change, and
with them the ground-state level.  The paper's characterisation is one
table of rules (``expected_solution_regime``): for each region the masses
with solutions and their threshold, uniqueness, the level where the branch
states do not decide it and how the zero-level mass is obtained.  This is
the only module that names a region; the layers above dispatch on the
rule's fields.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass


class InvalidExponents(ValueError):
    """Raised when an exponent pair outside (2, inf) x (2, inf) is supplied."""


@dataclass(frozen=True)
class Params:
    """Exponent pair of the problem.

    p: exponent of the defocusing bulk term |u|^(p-2) u, p > 2.
    q: exponent of the focusing point term |u(0)|^(q-2) u(0), q > 2.

    The diagonal flag is decided by exact comparison q == p/2 + 1; callers
    who want diagonal behaviour must pass q equal to p/2 + 1 bit-for-bit.
    """

    p: float
    q: float

    def __post_init__(self) -> None:
        p, q = float(self.p), float(self.q)
        if not (p > 2.0) or not (q > 2.0):
            raise InvalidExponents(f"need p > 2 and q > 2, got p={self.p}, q={self.q}")
        if math.isinf(p) or math.isinf(q):
            raise InvalidExponents(f"need finite p and q, got p={self.p}, q={self.q}")
        object.__setattr__(self, "p", p)
        object.__setattr__(self, "q", q)

    @property
    def diagonal(self) -> bool:
        return self.q == self.p / 2.0 + 1.0


class Region(enum.Enum):
    """Tags of the nine-region partition of (2, inf) x (2, inf)."""

    A = "A"  # 2 < p < 6,  2 < q < p/2 + 1
    B = "B"  # p >= 6,     2 < q < 4
    C = "C"  # p > 6,      4 < q < p/2 + 1
    D = "D"  # p >= 6,     q > p/2 + 1
    E = "E"  # 2 < p < 6,  q > 4
    F = "F"  # 2 < p < 6,  p/2 + 1 < q < 4
    G = "G"  # 2 < p < 6,  q = 4
    H = "H"  # p > 6,      q = 4
    I = "I"  # p > 2,      q = p/2 + 1


def classify(params: Params) -> Region:
    """Map an admissible exponent pair to its unique region tag.

    Boundary conventions: B and D include p = 6; C and H need p > 6; G needs
    p < 6; the whole line q = p/2 + 1 (including the point (6, 4)) is I.
    """
    p, q = params.p, params.q
    diag = p / 2.0 + 1.0
    if q == diag:
        return Region.I
    if q == 4.0:
        return Region.G if p < 6.0 else Region.H
    if p < 6.0:
        if q < diag:
            return Region.A
        return Region.F if q < 4.0 else Region.E
    # p >= 6 off the diagonal, q != 4
    if q < 4.0:
        return Region.B
    return Region.C if q < diag else Region.D


class MassInterval(enum.Enum):
    """Shape of the set of admissible masses for constrained solutions."""

    NONE = "none"                  # no mass admits a solution
    ALL = "all"                    # every mu > 0
    UPTO_THRESHOLD = "upto"        # 0 < mu <= mu_threshold
    FROM_THRESHOLD = "from"        # mu >= mu_threshold
    TWO_TO_THRESHOLD = "window"    # 2 < mu <= mu_threshold
    ABOVE_TWO = "above_two"        # mu > 2


class ThresholdKind(enum.Enum):
    """How a mass threshold of a rule is obtained; the value is its symbol."""

    NONE = ""                      # rule involves no computed threshold
    ZERO_FREQUENCY_MASS = "mu0"    # closed-form mass of the lambda = 0 state
    BRANCH_MINIMUM = "mu_min"      # minimum of the branch mass map
    MASS_TWO = "2"                 # the constant 2
    BRANCH_ENERGY_ROOT = "mu_tilde"  # mass of the root of the branch energy


class Level(enum.Enum):
    """The ground-state level E(mu) where the branch states do not decide it."""

    MINUS_INFINITY = "-inf"        # unbounded below at every mass
    ZERO = "zero"                  # 0 at every mass, approached and not attained
    ZERO_UP_TO_TWO = "zero-to-two"  # 0, not attained, for mu <= 2; -inf past 2
    PLATEAU = "plateau"            # the branch up to mu0, the energy of its end past it
    OPEN = "open"                  # finiteness is open


@dataclass(frozen=True)
class ExistenceRule:
    """The paper's statement for one region: existence and uniqueness of
    mass-constrained solutions, and the ground-state level.

    `unique` is True where solutions at fixed admissible mass are unique up
    to sign, and None where uniqueness is genuinely open (regions C and F,
    where two distinct solutions can share the same mass).  `level` is None
    where the branch states decide the level: the lowest energy among them
    where it is <= 0, else 0, not attained.  `zero_level_mass` is how the
    largest mass with level 0 is obtained, where the level is negative past it.
    """

    interval: MassInterval
    threshold: ThresholdKind
    unique: bool | None
    level: Level | None = None
    zero_level_mass: ThresholdKind = ThresholdKind.NONE

    def describe(self) -> str:
        return _EXISTENCE[self.interval].format(self.threshold.value)


_EXISTENCE = {
    MassInterval.NONE: "no mass admits a solution",
    MassInterval.ALL: "every mass mu > 0 admits a solution",
    MassInterval.UPTO_THRESHOLD: "solutions exist iff 0 < mu <= {}",
    MassInterval.FROM_THRESHOLD: "solutions exist iff mu >= {}",
    MassInterval.TWO_TO_THRESHOLD: "solutions exist iff 2 < mu <= {}",
    MassInterval.ABOVE_TWO: "solutions exist iff mu > 2",
}

_RULES = {
    Region.A: ExistenceRule(MassInterval.UPTO_THRESHOLD, ThresholdKind.ZERO_FREQUENCY_MASS,
                            True, Level.PLATEAU),
    Region.B: ExistenceRule(MassInterval.ALL, ThresholdKind.NONE, True),
    Region.C: ExistenceRule(MassInterval.FROM_THRESHOLD, ThresholdKind.BRANCH_MINIMUM,
                            None, None, ThresholdKind.BRANCH_ENERGY_ROOT),
    Region.D: ExistenceRule(MassInterval.ALL, ThresholdKind.NONE, True, Level.MINUS_INFINITY),
    Region.E: ExistenceRule(MassInterval.UPTO_THRESHOLD, ThresholdKind.ZERO_FREQUENCY_MASS,
                            True, Level.MINUS_INFINITY),
    Region.F: ExistenceRule(MassInterval.FROM_THRESHOLD, ThresholdKind.BRANCH_MINIMUM,
                            None, None, ThresholdKind.BRANCH_ENERGY_ROOT),
    Region.G: ExistenceRule(MassInterval.TWO_TO_THRESHOLD, ThresholdKind.ZERO_FREQUENCY_MASS,
                            True, Level.ZERO_UP_TO_TWO, ThresholdKind.MASS_TWO),
    Region.H: ExistenceRule(MassInterval.ABOVE_TWO, ThresholdKind.MASS_TWO, True, None,
                            ThresholdKind.MASS_TWO),
}


def expected_solution_regime(params: Params) -> ExistenceRule:
    """The rule of the region of params: existence, uniqueness and level."""
    region = classify(params)
    if region is not Region.I:
        return _RULES[region]
    # the diagonal: states past p = 8; the level is 0 below p = 6, open from it
    return ExistenceRule(MassInterval.ALL if params.p > 8.0 else MassInterval.NONE,
                         ThresholdKind.NONE, True,
                         Level.ZERO if params.p < 6.0 else Level.OPEN)
