"""Closed-form scalars of the branch analysis.

Everything here is a plain function of the exponents and of either the
branch coordinate t > 1 or the frequency lambda > 0:

* ``f_of_t`` / ``g_of_lambda`` -- the two sides of the vertex matching
  condition f(t) = g(lambda) that every positive stationary state solves;
* ``I_of_t`` -- the singular integral controlling mass and energy,
  I(t) = integral_1^t (s^2-1)^((4-p)/(p-2)) ds, evaluated after the
  substitution s = cosh(theta) which removes the endpoint blow-up;
* ``h_of_t`` -- the factor of the mass-map derivative whose sign equals
  sign(mu'(t));
* ``constants`` -- the prefactor C_pq of the mass map, the zero-frequency
  profile constant c_p, and the zero-frequency mass mu0 (finite iff p < 6).

Quadrature-backed values are returned as :class:`ScalarEval` carrying the
error bound reported by the adaptive scheme; closed forms report 0.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

from scipy.integrate import quad

from .params import Params

#: Quadrature target: relative 1e-10 alone.  An absolute floor would be
#: looser than the relative target for small integrals (t near 1, p < 4).
QUAD_EPSABS = 0.0
QUAD_EPSREL = 1e-10


@dataclass(frozen=True)
class ScalarEval:
    """A scalar plus an upper bound on its absolute quadrature error."""

    value: float
    abs_error_estimate: float = 0.0

    def __float__(self) -> float:
        return self.value


def _resolve_d(t: float, d: float | None) -> float:
    """Exact branch offset d = t - 1; an explicit d overrides the subtraction.

    Branch coordinates extremely close to 1 are not representable through t
    alone (t = 1 + d collapses in double precision); solvers that work in
    log(t - 1) pass d through to keep full relative accuracy.
    """
    if d is None:
        t = float(t)
        if not t > 1.0:
            raise ValueError(f"branch coordinate must satisfy t > 1, got {t}")
        return t - 1.0
    d = float(d)
    if not d > 0.0:
        raise ValueError(f"branch offset must satisfy t - 1 > 0, got {d}")
    return d


def f_of_t(params: Params, t: float, d: float | None = None) -> float:
    """f(t) = t / (t^2 - 1)^((q-2)/(p-2)), the profile side of the matching."""
    d = _resolve_d(t, d)
    expo = (params.q - 2.0) / (params.p - 2.0)
    return (1.0 + d) * (d * (d + 2.0)) ** (-expo)


def f_prime(params: Params, t: float, d: float | None = None) -> float:
    """df/dt; vanishes only at t* = sqrt((p-2)/(p+2-2q)) when q < p/2 + 1."""
    d = _resolve_d(t, d)
    p, q = params.p, params.q
    t = 1.0 + d
    num = (p + 2.0 - 2.0 * q) / (p - 2.0) * t * t - 1.0
    return num * (d * (d + 2.0)) ** (-(p + q - 4.0) / (p - 2.0))


def t_star(params: Params) -> float:
    """Abscissa of the f-minimum, defined for q < p/2 + 1."""
    p, q = params.p, params.q
    if not q < p / 2.0 + 1.0:
        raise ValueError("f has no interior critical point unless q < p/2 + 1")
    return math.sqrt((p - 2.0) / (p + 2.0 - 2.0 * q))


def diagonal_g_value(params: Params) -> float:
    """On the diagonal q = p/2 + 1 the matching level is the constant sqrt(p)/(2 sqrt(2))."""
    if not params.diagonal:
        raise ValueError("constant matching level exists only on the diagonal q = p/2 + 1")
    return math.sqrt(params.p) / (2.0 * math.sqrt(2.0))


def g_of_lambda(params: Params, lam: float) -> float:
    """g(lambda), the frequency side of the matching condition.

    Off the diagonal, g(lambda) = (1/2) (p/2)^((q-2)/(p-2))
    lambda^((2q-p-2)/(2(p-2))); on the diagonal it degenerates to the
    lambda-independent constant sqrt(p)/(2 sqrt(2)).
    """
    lam = float(lam)
    if not lam > 0.0:
        raise ValueError(f"need lambda > 0, got {lam}")
    if params.diagonal:
        return diagonal_g_value(params)
    p, q = params.p, params.q
    return 0.5 * (p / 2.0) ** ((q - 2.0) / (p - 2.0)) \
        * lam ** ((2.0 * q - p - 2.0) / (2.0 * (p - 2.0)))


def g_inverse(params: Params, y: float) -> float:
    """Unique lambda > 0 with g(lambda) = y (off-diagonal only)."""
    if params.diagonal:
        raise ValueError("g is constant on the diagonal and cannot be inverted")
    if not y > 0.0:
        raise ValueError(f"need a positive matching level, got {y}")
    p, q = params.p, params.q
    base = 2.0 * y * (2.0 / p) ** ((q - 2.0) / (p - 2.0))
    return base ** (2.0 * (p - 2.0) / (2.0 * q - p - 2.0))


def _arccosh_from_d(d: float) -> float:
    # log1p form is accurate down to t - 1 ~ 1e-300
    return math.log1p(d + math.sqrt(d * (d + 2.0)))


def _sinh_pow_over_theta_pow(theta: float, m: float) -> float:
    if theta == 0.0:
        return 1.0
    return (math.sinh(theta) / theta) ** m


def I_of_t(params: Params, t: float, d: float | None = None) -> ScalarEval:
    """I(t) = integral_1^t (s^2 - 1)^((4-p)/(p-2)) ds, with t = inf allowed for p > 6.

    Under s = cosh(theta) the integrand becomes sinh(theta)^m with
    m = (6-p)/(p-2) > -1, so the s = 1 endpoint singularity (present for
    p > 4) is integrable; the remaining theta ~ 0 behaviour theta^m is
    absorbed exactly by the further substitution v = theta^(m+1)/(m+1).
    For p = 4 the integral is t - 1 exactly.
    """
    p = params.p
    if d is None and math.isinf(t):
        if p <= 6.0:
            raise ValueError("I(inf) diverges for p <= 6")
        theta_hi = math.inf
    else:
        d = _resolve_d(t, d)
        if p == 4.0:
            return ScalarEval(d, 0.0)
        theta_hi = _arccosh_from_d(d)

    m = (6.0 - p) / (p - 2.0)
    total = 0.0
    err = 0.0

    # [0, theta1]: graded by the exact power substitution
    theta1 = min(theta_hi, 1.0)
    v1 = theta1 ** (m + 1.0) / (m + 1.0)
    inv = 1.0 / (m + 1.0)

    def smooth_part(v: float) -> float:
        theta = ((m + 1.0) * v) ** inv
        return _sinh_pow_over_theta_pow(theta, m)

    val, e = quad(smooth_part, 0.0, v1, epsabs=QUAD_EPSABS, epsrel=QUAD_EPSREL,
                  limit=200)
    total += val
    err += e

    if theta_hi > 1.0:
        # log form keeps sinh(theta)^m representable when sinh overflows
        def tail(th: float) -> float:
            log_sinh = th - math.log(2.0) + math.log1p(-math.exp(-2.0 * th))
            return math.exp(m * log_sinh)

        val, e = quad(tail, 1.0, theta_hi,
                      epsabs=QUAD_EPSABS, epsrel=QUAD_EPSREL, limit=200)
        total += val
        err += e

    return ScalarEval(total, err)


def h_of_t(params: Params, t: float, d: float | None = None) -> ScalarEval:
    """Sign-carrier of the mass-map derivative: sign(h(t)) = sign(mu'(t)).

    h(t) = (6-p)/(p-2) * ((p-2)/(p+2-2q) - t^2) / (t^2-1)^(2/(p-2)) * I(t) + t.
    For p = 6 this collapses to h(t) = t.
    """
    d = _resolve_d(t, d)
    t = 1.0 + d
    if params.diagonal:
        raise ValueError("mass-map derivative factor is defined off the diagonal only")
    p, q = params.p, params.q
    if p == 6.0:
        return ScalarEval(t, 0.0)
    integral = I_of_t(params, t, d)
    coeff = (6.0 - p) / (p - 2.0) \
        * ((p - 2.0) / (p + 2.0 - 2.0 * q) - t * t) \
        * (d * (d + 2.0)) ** (-2.0 / (p - 2.0))
    # the two addends can cancel almost completely at large t; the error
    # bound must include the resulting loss of float precision
    cancel = 8.0 * 2.220446049250313e-16 * (abs(coeff * integral.value) + t)
    err = abs(coeff) * integral.abs_error_estimate + cancel
    return ScalarEval(coeff * integral.value + t, err)


def c_p(params: Params) -> float:
    """Amplitude constant of the algebraically decaying zero-frequency profile."""
    p = params.p
    return (math.sqrt(2.0 * p) / (p - 2.0)) ** (2.0 / (p - 2.0))


class Constants(NamedTuple):
    c_pq: float
    c_p: float
    mu0: float | None


def constants(params: Params) -> Constants:
    """(C_pq, c_p, mu0): mass-map prefactor, zero-frequency amplitude, zero-frequency mass.

    mu0 is the mass of the lambda = 0 state, finite only for p in (2, 6);
    it satisfies mu0 = C_pq (p-2)/(6-p).  Both C_pq and mu0 involve the
    exponent 1/(2q-p-2) and are undefined on the diagonal.
    """
    if params.diagonal:
        raise ValueError("C_pq and mu0 are undefined on the diagonal q = p/2 + 1")
    p, q = params.p, params.q
    denom = 2.0 * q - p - 2.0
    c_pq = 2.0 ** (3.0 * (q - p + 2.0) / denom) * p ** ((q - 4.0) / denom) / (p - 2.0)
    mu0 = c_pq * (p - 2.0) / (6.0 - p) if p < 6.0 else None
    return Constants(c_pq, c_p(params), mu0)
