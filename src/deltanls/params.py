"""Exponent pair (p, q) and its classification in the pq-plane.

The bulk nonlinearity exponent p and the point nonlinearity exponent q
(both > 2) determine everything else in this package.  The quadrant
(2, inf) x (2, inf) splits into nine regions, separated by the lines
p = 6, q = 4 and the "diagonal" q = p/2 + 1, on which existence,
uniqueness and multiplicity of mass-constrained solutions change.
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
    """How the mass threshold of an existence rule is obtained."""

    NONE = "none"              # rule involves no computed threshold
    ZERO_FREQUENCY_MASS = "mu0"  # closed-form mass of the lambda = 0 state
    BRANCH_MINIMUM = "branch_min"  # minimum of the branch mass map
    MASS_TWO = "two"           # the constant 2


@dataclass(frozen=True)
class ExistenceRule:
    """Symbolic existence statement for mass-constrained solutions.

    `unique` is True where solutions at fixed admissible mass are unique up
    to sign, and None where uniqueness is genuinely open (regions C and F,
    where two distinct solutions can share the same mass).
    """

    interval: MassInterval
    threshold: ThresholdKind
    unique: bool | None

    def describe(self) -> str:
        label = {
            ThresholdKind.ZERO_FREQUENCY_MASS: "mu0",
            ThresholdKind.BRANCH_MINIMUM: "mu_min",
            ThresholdKind.MASS_TWO: "2",
            ThresholdKind.NONE: "",
        }[self.threshold]
        if self.interval is MassInterval.NONE:
            return "no mass admits a solution"
        if self.interval is MassInterval.ALL:
            return "every mass mu > 0 admits a solution"
        if self.interval is MassInterval.UPTO_THRESHOLD:
            return f"solutions exist iff 0 < mu <= {label}"
        if self.interval is MassInterval.FROM_THRESHOLD:
            return f"solutions exist iff mu >= {label}"
        if self.interval is MassInterval.TWO_TO_THRESHOLD:
            return f"solutions exist iff 2 < mu <= {label}"
        return "solutions exist iff mu > 2"


def expected_solution_regime(params: Params) -> ExistenceRule:
    """Existence/uniqueness rule for normalized solutions by region."""
    region = classify(params)
    if region in (Region.A, Region.E):
        return ExistenceRule(MassInterval.UPTO_THRESHOLD,
                             ThresholdKind.ZERO_FREQUENCY_MASS, True)
    if region in (Region.B, Region.D):
        return ExistenceRule(MassInterval.ALL, ThresholdKind.NONE, True)
    if region in (Region.C, Region.F):
        return ExistenceRule(MassInterval.FROM_THRESHOLD,
                             ThresholdKind.BRANCH_MINIMUM, None)
    if region is Region.G:
        return ExistenceRule(MassInterval.TWO_TO_THRESHOLD,
                             ThresholdKind.ZERO_FREQUENCY_MASS, True)
    if region is Region.H:
        return ExistenceRule(MassInterval.ABOVE_TWO, ThresholdKind.MASS_TWO, True)
    # diagonal: nothing up to p = 8, everything past it
    if params.p <= 8.0:
        return ExistenceRule(MassInterval.NONE, ThresholdKind.NONE, True)
    return ExistenceRule(MassInterval.ALL, ThresholdKind.NONE, True)
