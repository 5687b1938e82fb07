"""The discrete problem: even profiles sampled on a uniform grid, their
energy E_h and mass M_h, and the gradient flow's seed.

A profile is its values at the n+1 uniform nodes x_i = i h of [0, L],
h = L / n (:class:`Grid`), and stands for its piecewise-linear even
extension to [-L, L].  E_h is that extension's energy, its kinetic term
exact and its bulk term by the trapezoidal rule (:func:`grid_energy`, in
three pieces); M_h is its mass by the trapezoidal rule
(:func:`discrete_mass`).  With W the trapezoid weights (h inside, h/2 at
both ends) and K the kinetic stiffness, M_h(u) = u^T 2W u and the kinetic
term is u^T K u / 2: the flow of ``oracle.constrained_minimize`` reads 2W
and K's diagonal from the grid (:meth:`Grid.mass_and_stiffness`).
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

import numpy as np

from .params import Params


@dataclass(frozen=True)
class Grid:
    """The n+1 uniform nodes of [0, L]."""

    L: float
    n: int

    @property
    def h(self) -> float:
        return self.L / self.n

    @property
    def x(self) -> np.ndarray:
        return np.linspace(0.0, self.L, self.n + 1)

    def mass_and_stiffness(self) -> tuple[np.ndarray, np.ndarray]:
        """(2W, the diagonal of K): twice the trapezoid weights, 2h inside and
        h at both ends, and K's 4/h inside and 2/h at both ends (its
        off-diagonal is -2/h)."""
        two_w, stiff = np.full(self.n + 1, 2.0 * self.h), np.full(self.n + 1, 4.0 / self.h)
        two_w[0] = two_w[-1] = self.h
        stiff[0] = stiff[-1] = 2.0 / self.h
        return two_w, stiff


@dataclass(frozen=True)
class GridProfile(Grid):
    """Even function sampled at the n+1 uniform nodes of [0, L]."""

    values: np.ndarray

    def __post_init__(self) -> None:
        vals = np.asarray(self.values, dtype=float)
        if vals.shape != (self.n + 1,) or not np.all(np.isfinite(vals)):
            raise ValueError(f"expected {self.n + 1} finite nodal values, got {vals.shape}")
        object.__setattr__(self, "values", vals)


def grid_energy(params: Params, u: np.ndarray, h: float, work=None):
    """(kinetic, bulk, point): the three pieces of E_h at the nodal values u,
    whose energy is kinetic + bulk - point.

    The kinetic term is exact for the piecewise-linear interpolant (the factor
    2 for evenness cancels the 1/2 of the functional), sum(diff(u)^2) / h;
    the bulk term is the trapezoidal rule, (2/p) h (sum of |u|^p - (|u_0|^p +
    |u_n|^p) / 2); the point term is |u_0|^q / q.  work is a float and a
    bool array of len(u) that the terms are formed in; the flow passes its
    own, so that a trial allocates nothing here.

    The nodes with |u| < tiny^(1/p) (tiny the smallest normal double) are set
    to 0 and are not raised to the power p: such a node adds 0 in place of a
    power of at most about tiny, which pow reaches only on its slow
    underflow path.  Every other node adds its plain power, and the sum runs
    over the whole array.
    """
    p, q = params.p, params.q
    mag, small = work if work is not None else (np.empty(len(u)), np.empty(len(u), bool))
    d = np.subtract(u[1:], u[:-1], out=mag[:-1])
    diff2 = float(np.add.reduce(np.multiply(d, d, out=d)))
    np.abs(u, out=mag)
    np.putmask(mag, np.less(mag, sys.float_info.min ** (1.0 / p), out=small), 0.0)
    np.power(mag, p, out=mag, where=np.logical_not(small, out=small))
    u0, un = u.item(0), u.item(-1)
    vsum = float(np.add.reduce(mag)) - 0.5 * (abs(u0) ** p + abs(un) ** p)
    return diff2 / h, (2.0 / p) * h * vsum, abs(u0) ** q / q


def discrete_mass(u: np.ndarray, h: float) -> float:
    """M_h: the mass of the even extension of nodal values u by the
    trapezoidal rule, 2h (sum of u^2 - (u_0^2 + u_n^2) / 2)."""
    u0, un = u.item(0), u.item(-1)      # floats: pow is libm's, as for numpy's scalars
    return 2.0 * h * (float(np.dot(u, u)) - 0.5 * (u0 ** 2 + un ** 2))


def make_initial_profile(mu: float, L: float, n: int, width: float) -> GridProfile:
    """Mass-mu bump exp(-(x/width)^2) on the grid (generic flow seed)."""
    grid = Grid(L, n)
    u = np.exp(-((grid.x / width) ** 2))
    u *= math.sqrt(mu / discrete_mass(u, grid.h))
    return GridProfile(L, n, u)
