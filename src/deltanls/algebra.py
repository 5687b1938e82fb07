"""Closed-form scalars of the branch analysis.

Everything here is a plain function of the exponents and of either the
branch offset d = t - 1 > 0 of the branch coordinate t or the frequency
lambda > 0.  The functions of the branch take the offset as the keyword
``d`` alone: t = 1 + d loses the digits of d near t = 1, and d = inf is the
end t = inf.

* ``log_f`` / ``log_g`` -- the logs of the two sides of the vertex
  matching condition f(t) = g(lambda) that every positive stationary state
  solves, and ``log_lambda``, its inversion in lambda;
* ``I_of_t`` -- the singular integral controlling mass and energy,
  I(t) = integral_1^t (s^2-1)^((4-p)/(p-2)) ds, in closed form as an
  incomplete beta function (``log_I`` keeps its logarithm, which stays in
  range where I does not); ``I_of_t_quadrature`` is the adaptive route,
  kept as the oracle the tests and ``deltanls verify`` check it against;
* ``h_of_t`` -- the factor of the mass-map derivative whose sign equals
  sign(mu'(t));
* ``log_mass`` / ``mass_deficit`` -- ln mu(t) and, for p < 6, the relative
  deficit (mu0 - mu)/mu0, formed from separated terms in logs;
* ``mu0`` -- the zero-frequency mass (finite iff p < 6), formed from the
  one ``log2_c_pq`` of the mass-map prefactor C_pq.

The closed forms return floats; the tests hold them to 1e-14 against
40-digit mpmath.
"""

from __future__ import annotations

import math
import sys
from functools import lru_cache
from typing import NamedTuple

import numpy as np
from scipy.integrate import quad
from scipy.special import digamma, gammaln, gammasgn, hyp2f1, zeta

from .params import Params

#: Quadrature target: relative 1e-10 alone.  An absolute floor would be
#: looser than the relative target for small integrals (t near 1, p < 4).
QUAD_EPSABS = 0.0
QUAD_EPSREL = 1e-10

_LN2 = math.log(2.0)
#: ln of the smallest normal and of the largest double.
LOG_DOUBLE = (math.log(sys.float_info.min), math.log(sys.float_info.max))
_LOG_MAX = LOG_DOUBLE[1]


def branch_offset(d: float) -> float:
    """The branch offset d = t - 1 as a float, refused (ValueError) unless d > 0.

    d = inf is the end t = inf of the branch; NaN is refused.
    """
    d = float(d)
    if not d > 0.0:
        raise ValueError(f"branch offset must satisfy d = t - 1 > 0, got {d}")
    return d


def log_f(params: Params, y: float) -> float:
    """ln f(1 + e^y) = ln(1 + d) - k ln(d (d + 2)), k = (q-2)/(p-2), for any real y."""
    k = (params.q - 2.0) / (params.p - 2.0)
    if y > 0.0:
        e = math.exp(-y)
        return (1.0 - 2.0 * k) * y + math.log1p(e) - k * math.log1p(2.0 * e)
    d = math.exp(y)
    return math.log1p(d) - k * (y + math.log(d + 2.0))


def d_star(params: Params) -> float:
    """d* = t* - 1 of the f-minimum t* = sqrt((p-2)/(p+2-2q)), defined for q < p/2 + 1.

    Formed as (2q-4)/(p+2-2q)/(t* + 1) with p+2-2q = (p-2) - (2q-4), so that
    no digits of d* cancel near q = 2 (p - 2 and 2q - 4 are exact for p, q <= 4).
    """
    p, q = params.p, params.q
    if not q < p / 2.0 + 1.0:
        raise ValueError("f has no interior critical point unless q < p/2 + 1")
    r = (p - 2.0) - (2.0 * q - 4.0)
    return (2.0 * q - 4.0) / r / (math.sqrt((p - 2.0) / r) + 1.0)


def log_g(params: Params, lam: float) -> float:
    """ln g(lambda) = -ln 2 + (q-2)/(p-2) ln(p/2) + (2q-p-2)/(2(p-2)) ln lambda, off the diagonal."""
    p, q = params.p, params.q
    # (2q-p-2)/2 is formed as q - p/2 - 1, finite for every finite q
    return (-_LN2 + (q - 2.0) / (p - 2.0) * math.log(0.5 * p)
            + (q - 0.5 * p - 1.0) / (p - 2.0) * math.log(lam))


def log_lambda(params: Params, log_level: float) -> float:
    """ln lambda of the frequency whose matching level g(lambda) is e^log_level
    (off the diagonal, where ln g is affine in ln lambda)."""
    p, q = params.p, params.q
    return (log_level - log_g(params, 1.0)) * (p - 2.0) / (q - 0.5 * p - 1.0)


# ---------------------------------------------------------------------------
# I(t) in closed form
#
# With x = 1 - 1/t^2, a = 2/(p-2) and b = 1/2 - a (so a + b = 1/2 for every
# p), I(t) = 1/2 B(x; a, b).  Two series cover t in (1, inf):
#
# * t <= 2 (x <= 3/4): the Euler form
#       I = x^a (1-x)^b / (2a) 2F1(1, 1/2; a+1; x),
#   whose series has positive terms; scipy's hyp2f1 evaluates it to a few
#   ulp.  The prefactor is taken in logs, so I ~ e^-3000 is a finite log.
# * t > 2 (z = 1/t^2 < 1/4): the connection formula
#       I = 1/2 B(a, b) + t^m/m (1-z)^a 2F1(1, 1/2; b+1; z),   m = 2a - 1,
#   with B(a, b) continued through Gamma functions.  Both terms have poles
#   at b = -k (k = 0, 1, 2, ...; p = 6, 10/3, 14/5, ...) that cancel.  With
#   k the integer nearest -b and eps = b + k in [-1/2, 1/2], the terms of
#   the 2F1 series from z^k on are summed in closed form, which gives
#       I = T + K_fin + (A/m) Q,
#       T = t^m/m (1-z)^a P(z),     P(z) = sum_{n<k} (1/2)_n/(b+1)_n z^n,
#       Q = (t^(-2 eps) - 1)/eps + t^(-2 eps) psi(z),
#       psi(z) = sum_{n>=1} (eps+1/2-k)_n / (n! (n+eps)) z^n,
#       A/m = -(1/2)_k / (2 prod_{i=1..k} (eps - i)),
#       K_fin = 1/2 B(a, b) + A/(m eps),
#   every piece finite at eps = 0 ((t^u - 1)/u is computed as expm1).  For
#   k >= 1 the leading power t^m sits in T alone; h and the mass deficit
#   below cancel it analytically instead of numerically.

#: Terms kept of the series in z = 1/t^2 <= 1/4 (geometric in z beyond
#: their first k, whose weight in I, h and the deficit is z^k at most).
_N_TERMS = 48

#: Terms of the Taylor series of the finite part K_fin in eps.
_N_EPS_TERMS = 64


class _Tail(NamedTuple):
    """Constants of the t > 2 expansion of I(t) for one p."""

    a: float
    b: float
    m: float
    k: int
    eps: float
    a_over_m: float               # A/m
    k_fin: float                  # K_fin
    p_coef: tuple[float, ...]     # (1/2)_n / (b+1)_n, n < k
    s_coef: tuple[float, ...]     # (eps+1/2-k)_n / (n! (n+eps)), n >= 1


@lru_cache(maxsize=256)
def _tail(p: float) -> _Tail:
    # b and m straight from p keep their relative accuracy near p = 6
    a = 2.0 / (p - 2.0)
    b = (p - 6.0) / (2.0 * (p - 2.0))
    k = max(0, round(-b))
    eps = b + k
    # (1/2)_k / prod (i - eps), and A/m = -(-1)^k / 2 times it
    log_ratio = (gammaln(k + 0.5) - gammaln(0.5)
                 - gammaln(k + 1.0 - eps) + gammaln(1.0 - eps))
    a_over_m = -0.5 * (-1.0) ** k * math.exp(log_ratio)
    if k == 0 and abs(eps) >= 0.25:
        # far from the pole at p = 6: the direct value loses under 2 bits
        k_fin = 0.5 * math.exp(gammaln(a) + gammaln(b) - gammaln(0.5)) \
            * gammasgn(b) + a_over_m / eps
    else:
        # K_fin = -(A/m) (G - 1)/eps with G = Gamma(k+1/2-eps) Gamma(1+eps)
        # / Gamma(k+1/2); ln G / eps as its Taylor series in eps, which
        # converges for |eps| < 1 (k >= 1) or |eps| < 1/2 (k = 0)
        j = np.arange(2, _N_EPS_TERMS + 1, dtype=float)
        series = (zeta(j, k + 0.5) + (-1.0) ** j * zeta(j, 1.0)) / j
        log_g_over_eps = -digamma(k + 0.5) - np.euler_gamma \
            + float(np.sum(series * eps ** (j - 1.0)))
        log_g = eps * log_g_over_eps
        exprel = math.expm1(log_g) / log_g if log_g != 0.0 else 1.0
        k_fin = -a_over_m * exprel * log_g_over_eps
    p_coef = [1.0]
    for n in range(1, min(k, _N_TERMS)):
        p_coef.append(p_coef[-1] * (n - 0.5) / (b + n))
    s_coef, rising = [], 1.0
    for n in range(1, _N_TERMS + 1):
        rising *= (eps + 0.5 - k + n - 1.0) / n
        s_coef.append(rising / (n + eps))
    return _Tail(a, b, -2.0 * b, k, eps, a_over_m, float(k_fin),
                 tuple(p_coef[:k]), tuple(s_coef))


def half_beta(params: Params) -> float:
    """1/2 B(a, b) = I(inf), finite for p > 6 only."""
    if not params.p > 6.0:
        raise ValueError("I(inf) diverges for p <= 6")
    tl = _tail(params.p)
    return tl.k_fin - tl.a_over_m / tl.eps


def _horner(coef, z: float) -> float:
    acc = 0.0
    for c in reversed(coef):
        acc = acc * z + c
    return acc


def _exprel(t: float, lt: float, c: float) -> float:
    """(t^c - 1)/(c ln t); c is a multiple of eps and vanishes only with it.

    expm1 where |c ln t| < 1, the power itself beyond (exp of a large
    rounded exponent would lose its digits).
    """
    if c == 0.0:
        return 1.0
    u = c * lt
    return (math.expm1(u) if abs(u) < 1.0 else t ** c - 1.0) / u


def _euler_2f1(a: float, d: float) -> float:
    """2F1(1, 1/2; a+1; x) at x = d (d+2) / (1+d)^2 <= 3/4."""
    return float(hyp2f1(1.0, 0.5, a + 1.0, d * (d + 2.0) / ((1.0 + d) * (1.0 + d))))


def _log_I_near(tl: _Tail, d: float) -> float:
    lt = math.log1p(d)
    log_x = math.log(d) + math.log(d + 2.0) - 2.0 * lt
    return (-_LN2 + tl.a * log_x - 2.0 * tl.b * lt - math.log(tl.a)
            + math.log(_euler_2f1(tl.a, d)))


def _far(d: float) -> tuple[float, float, float]:
    """(t, ln t, z = 1/t^2) at t = 1 + d > 2.

    Powers of t are taken as t ** c, not exp(c ln t): at t = e^300 the
    rounding of ln t alone would cost 1e-14 relative.
    """
    t = 1.0 + d
    return t, math.log1p(d), (1.0 / t) ** 2


def _far_rest(tl: _Tail, t: float, lt: float, z: float, weight: float) -> float:
    """weight * (K_fin + (A/m) Q) at t > 2: the pole-free remainder of I(t),
    which ln I, h and the mass deficit all read, times the weight each gives it.

    It is formed only where the weight is nonzero: near p = 2 (k ~ 2/(p-2))
    the series psi overflows where every weight has long underflowed to 0,
    and 0 * inf would be NaN.
    """
    if weight == 0.0:
        return 0.0
    q = (-2.0 * lt * _exprel(t, lt, -2.0 * tl.eps)
         + t ** (-2.0 * tl.eps) * z * _horner(tl.s_coef, z))
    return weight * (tl.k_fin + tl.a_over_m * q)


def _log_I_far(tl: _Tail, d: float) -> float:
    t, lt, z = _far(d)
    if tl.k == 0:
        return math.log(_far_rest(tl, t, lt, z, 1.0))
    log_t = (tl.m * lt + tl.a * math.log1p(-z) - math.log(tl.m)
             + math.log(_horner(tl.p_coef, z)))
    return log_t + math.log1p(_far_rest(tl, t, lt, z, math.exp(-log_t)))


def log_I(params: Params, d: float) -> float:
    """ln I(1 + d) for d = t - 1 > 0 (see I_of_t)."""
    tl = _tail(params.p)
    return _log_I_near(tl, d) if d <= 1.0 else _log_I_far(tl, d)


def energy_j(params: Params, d: float) -> tuple[float, float]:
    """(J, t - 4J/(p-2)) at t = 1 + d, with J = I(t) / (t^2-1)^(2/(p-2)).

    These are the pieces of the closed-form branch energy.  For t <= 2,
    J = 2F1(1, 1/2; a+1; x) / (2 a t) exactly, and the bulk factor
    t - 2aJ = x (t^2 - 2F1(1, 3/2; a+2; x) / (2(a+1))) / t is free of the
    cancellation between t and 2aJ that costs digits near t = 1.
    """
    tl = _tail(params.p)
    t = 1.0 + d
    if d <= 1.0:
        x = d * (d + 2.0) / (t * t)
        j = _euler_2f1(tl.a, d) / (2.0 * tl.a * t)
        return j, x * (t * t - float(hyp2f1(1.0, 1.5, tl.a + 2.0, x)) / (2.0 * (tl.a + 1.0))) / t
    j = math.exp(_log_I_far(tl, d) - tl.a * (math.log(d) + math.log(d + 2.0)))
    return j, t - 2.0 * tl.a * j


def I_of_t(params: Params, *, d: float) -> float:
    """I(t) = integral_1^t (s^2 - 1)^((4-p)/(p-2)) ds at t = 1 + d, for d in (0, inf].

    d = inf gives I(inf) = 1/2 B(a, b), finite for p > 6 only (ValueError
    beyond).  Closed form (see the notes above ``_tail``); p = 4 gives d
    exactly.  Values below the double range come back as 0; ``log_I`` keeps
    them.
    """
    d = branch_offset(d)
    if math.isinf(d):
        return half_beta(params)
    if params.p == 4.0:
        return d
    return math.exp(log_I(params, d))


def I_of_t_quadrature(params: Params, *, d: float) -> tuple[float, float]:
    """(I(t), QUADPACK's absolute error estimate) at t = 1 + d, d in (0, inf],
    by adaptive quadrature: the independent route the tests check I_of_t
    against.  d = inf is refused (ValueError) where I(inf) diverges, p <= 6.

    Under s = cosh(theta) the integrand becomes sinh(theta)^m with
    m = (6-p)/(p-2) > -1, so the s = 1 endpoint singularity (present for
    p > 4) is integrable; the remaining theta ~ 0 behaviour theta^m is
    absorbed exactly by the further substitution v = theta^(m+1)/(m+1).
    """
    p = params.p
    d = branch_offset(d)
    if math.isinf(d) and p <= 6.0:
        raise ValueError("I(inf) diverges for p <= 6")
    theta_hi = math.log1p(d + math.sqrt(d * (d + 2.0)))   # arccosh t, exact near t = 1

    m = (6.0 - p) / (p - 2.0)
    total = 0.0
    err = 0.0

    # [0, theta1]: graded by the exact power substitution
    theta1 = min(theta_hi, 1.0)
    v1 = theta1 ** (m + 1.0) / (m + 1.0)
    inv = 1.0 / (m + 1.0)

    def smooth_part(v: float) -> float:
        theta = ((m + 1.0) * v) ** inv
        return 1.0 if theta == 0.0 else (math.sinh(theta) / theta) ** m

    val, e = quad(smooth_part, 0.0, v1, epsabs=QUAD_EPSABS, epsrel=QUAD_EPSREL,
                  limit=200)
    total += val
    err += e

    if theta_hi > 1.0:
        # log form keeps sinh(theta)^m representable when sinh overflows
        def tail(th: float) -> float:
            log_sinh = th - _LN2 + math.log1p(-math.exp(-2.0 * th))
            return math.exp(m * log_sinh)

        val, e = quad(tail, 1.0, theta_hi,
                      epsabs=QUAD_EPSABS, epsrel=QUAD_EPSREL, limit=200)
        total += val
        err += e

    return total, err


def _r(params: Params) -> float:
    return (params.p - 2.0) / (params.p + 2.0 - 2.0 * params.q)


def _h_near(tl: _Tail, r: float, d: float) -> float:
    # (t^2-1)^(-a) I = t^-1 2F1 / (2a) exactly, so nothing leaves double range
    t = 1.0 + d
    return t + tl.m * (r - t * t) * _euler_2f1(tl.a, d) / (2.0 * tl.a * t)


def _h_far(tl: _Tail, r: float, d: float) -> float:
    t, lt, z = _far(d)
    if tl.k == 0:
        # t + (r - t^2) t^-1 (1-z)^(-a) has its O(t) parts cancelled in E
        w = math.exp(-tl.a * math.log1p(-z))           # (1-z)^(-a)
        e_z = math.expm1(-tl.a * math.log1p(-z)) / z
        return ((r * w - e_z - (1.0 - r * z) * tl.eps * _horner(tl.s_coef, z) * w) / t
                - (1.0 - r * z) * (tl.m * tl.k_fin - 1.0) * t ** (2.0 - 2.0 * tl.a) * w)
    # (1-z)^(-a) t^(2-2a) = t^2 (t^2-1)^(-a) as one power of a base in range
    # (k >= 1, so 1/a < 1): near p = 2, where a is large, either factor
    # alone leaves the double range
    ta = t ** (1.0 / tl.a)
    pole = tl.m * _far_rest(tl, t, lt, z, (ta / d * (ta / (d + 2.0))) ** tl.a)
    pk = _horner(tl.p_coef, z)
    dpk = _horner(tl.p_coef[1:], z)                    # (P - 1)/z
    return (r * pk - dpk) / t - (1.0 - r * z) * pole


def h_of_t(params: Params, *, d: float) -> float:
    """Sign-carrier of the mass-map derivative at t = 1 + d: sign(h(t)) = sign(mu'(t)).

    h(t) = (6-p)/(p-2) * ((p-2)/(p+2-2q) - t^2) / (t^2-1)^(2/(p-2)) * I(t) + t.
    At large t the first addend tends to -t; the closed form cancels the
    two analytically, so h keeps its relative accuracy where it is O(1/t).
    For p = 6 this collapses to h(t) = t.  Off the diagonal, and at finite
    t only: d = inf is refused (ValueError).
    """
    d = branch_offset(d)
    if params.diagonal:
        raise ValueError("mass-map derivative factor is defined off the diagonal only")
    if math.isinf(d):
        raise ValueError("mass-map derivative factor is defined at finite t only")
    if params.p == 6.0:
        return 1.0 + d
    tl, r = _tail(params.p), _r(params)
    return _h_near(tl, r, d) if d <= 1.0 else _h_far(tl, r, d)


# ---------------------------------------------------------------------------
# the mass map in logs
#
# mu(t) = C_pq f(t)^e I(t) with e = (6-p)/(2q-p-2); for p < 6 it tends to
# mu0 = C_pq / m.  Near t = 1 the powers of t^2 - 1 in f^e and in the
# Euler form of I are combined into one, (t^2-1)^((q-4)/(2q-p-2)).  At
# t > 2 the relative deficit D = (mu0 - mu)/mu0 of p < 6 is formed from
# the expansion of I: its leading term is exactly mu0 and is cancelled
# analytically, so D keeps its relative accuracy down to 1e-300 in
# ln(mu/mu0) = log1p(-D), from which mass_deficit reads D back.
#
# Each power of (p, q) with an exponent over 2q - p - 2 is formed once, in
# logs: near the diagonal a direct power leaves the double range first.


class MassExponents(NamedTuple):
    """Exponents of the mass map, from which its powers of (p, q) are formed."""

    e: float        # (6-p)/(2q-p-2), the power of f in mu
    ke: float       # e (q-2)/(p-2)
    t1_rate: float  # (q-4)/(2q-p-2): mu ~ t1_prefactor (t - 1)^t1_rate as t -> 1
    log2_c: float   # log2 C_pq = (3(q-p+2) + (q-4) log2 p)/(2q-p-2) - log2(p-2)
    log2_t1: float  # log2 t1_prefactor = (6-p + (q-4) log2 p)/(2q-p-2)


@lru_cache(maxsize=256)
def mass_exponents(params: Params) -> MassExponents:
    if params.diagonal:
        raise ValueError("C_pq and the mass map are undefined on the diagonal q = p/2 + 1")
    p, q = params.p, params.q
    # the numerators and the denominator 2q - p - 2, each times s = 2^-11:
    # with log2 p < 1024 none leaves the double range for any finite (p, q),
    # and a power of two scales exactly, so each quotient is the unscaled one
    # bit for bit wherever that one's terms are finite
    s = 2.0 ** -11
    denom = 2.0 * s * (q - 0.5 * p - 1.0)
    e = s * (6.0 - p) / denom
    log2_p = s * (q - 4.0) * math.log2(p)
    return MassExponents(e, e * (q - 2.0) / (p - 2.0), s * (q - 4.0) / denom,
                         (3.0 * s * (q - p + 2.0) + log2_p) / denom - math.log2(p - 2.0),
                         (s * (6.0 - p) + log2_p) / denom)


def log2_c_pq(params: Params) -> float:
    """log2 C_pq, the one formula of the mass-map prefactor (off the diagonal)."""
    return mass_exponents(params).log2_c


def log2_mu0(params: Params) -> float:
    """log2 mu0 = log2 C_pq + log2((p-2)/(6-p)), for p < 6 off the diagonal."""
    p = params.p
    if not p < 6.0:
        raise ValueError("the zero-frequency mass mu0 is finite for p < 6 only")
    return log2_c_pq(params) + math.log2((p - 2.0) / (6.0 - p))


def _log_shape_near(tl: _Tail, ex: MassExponents, d: float) -> float:
    """ln(mu / C_pq) at t = 1 + d <= 2."""
    return (-_LN2 - math.log(tl.a) + ex.t1_rate * (math.log(d) + math.log(d + 2.0))
            + (ex.e - 1.0) * math.log1p(d) + math.log(_euler_2f1(tl.a, d)))


def _deficit_far(tl: _Tail, ex: MassExponents, d: float) -> float:
    """(mu0 - mu)/mu0 at t = 1 + d > 2, p < 6; -inf where mu/mu0 is beyond
    the double range."""
    t, lt, z = _far(d)
    l1z = math.log1p(-z)
    if tl.k == 0:
        v = tl.eps * z * _horner(tl.s_coef, z) + t ** (2.0 * tl.eps) * (tl.m * tl.k_fin - 1.0)
        return _one_minus_exp(-ex.ke * l1z + math.log1p(v))
    # (1-z)^(-a) t^(-m) = t (t^2-1)^(-a) as one power of a base in range
    w = (t ** (1.0 / tl.a) / d / (d + 2.0)) ** tl.a
    v = z * _horner(tl.p_coef[1:], z) + tl.m * _far_rest(tl, t, lt, z, w)
    return _one_minus_exp(ex.t1_rate * l1z + math.log1p(v))


def _one_minus_exp(x: float) -> float:
    """1 - e^x, or -inf where e^x is beyond the double range."""
    return -math.expm1(x) if x < _LOG_MAX else -math.inf


def _log_mass_far(tl: _Tail, ex: MassExponents, d: float) -> float:
    """ln(mu / C_pq) at t = 1 + d > 2 from the logs of the factors of mu."""
    return (-tl.m * math.log1p(d) - ex.ke * math.log1p(-(1.0 + d) ** -2.0)
            + _log_I_far(tl, d))


def log_mass_ratio(params: Params, d: float) -> float:
    """ln(mu(1 + d) / mu0) for p < 6 and d = t - 1 > 0.

    Beyond t = 2, where mu0/2 <= mu < e^709 mu0 it is ln(1 - D) of the
    deficit D, so it keeps the digits of D down to 1e-300; elsewhere the
    logs of the factors of mu are added.
    """
    tl, ex = _tail(params.p), mass_exponents(params)
    if not params.p < 6.0:
        raise ValueError("the zero-frequency mass mu0 is finite for p < 6 only")
    log_m = math.log(tl.m)
    if d <= 1.0:
        return log_m + _log_shape_near(tl, ex, d)
    deficit = _deficit_far(tl, ex, d)
    if -math.inf < deficit <= 0.5:
        return math.log1p(-deficit)
    return log_m + _log_mass_far(tl, ex, d)


def log_mass(params: Params, d: float) -> float:
    """ln mu(1 + d) for d = t - 1 > 0, off the diagonal."""
    if params.p < 6.0:
        return _LN2 * log2_mu0(params) + log_mass_ratio(params, d)
    tl, ex = _tail(params.p), mass_exponents(params)
    return _LN2 * log2_c_pq(params) + (
        _log_shape_near(tl, ex, d) if d <= 1.0 else _log_mass_far(tl, ex, d))


def mass_deficit(params: Params, d: float) -> float:
    """(mu0 - mu(1 + d)) / mu0 = -expm1(ln(mu/mu0)) for p < 6 and d = t - 1 > 0.

    Positive where the mass map lies below mu0, at full relative accuracy
    however small (down to the double range); -inf where mu/mu0 is beyond it.
    """
    log_ratio = log_mass_ratio(params, d)
    return -math.inf if log_ratio > _LOG_MAX else -math.expm1(log_ratio)


def exp_or_inf(x: float) -> float:
    """e^x, or inf where it is beyond the double range (0 below it)."""
    return math.exp(x) if x < _LOG_MAX else math.inf


def exp2_or_inf(x: float) -> float:
    """2^x, or inf where it is beyond the double range (0 below it); one
    rounding, so C_pq = mu0 = sqrt(2) at (4, 2.5) stays exact."""
    return 2.0 ** x if x < 1024.0 else math.inf


def log_c_p(params: Params) -> float:
    """ln c_p, c_p the amplitude of the zero-frequency profile c_p (x + a)^(-2/(p-2))."""
    p = params.p
    return 2.0 / (p - 2.0) * (0.5 * math.log(2.0 * p) - math.log(p - 2.0))


def mu0(params: Params) -> float | None:
    """The zero-frequency mass mu0 = C_pq (p-2)/(6-p), the mass of the lambda = 0
    state: finite for p < 6 only (None beyond), inf where beyond the double range.

    Like C_pq it is undefined (ValueError) on the diagonal, for every p.
    """
    if params.p < 6.0:
        return exp2_or_inf(log2_mu0(params))
    mass_exponents(params)   # refuses the diagonal
    return None
