"""Reference computations for the answer checks, made apart from deltanls.

Nothing here imports the package under test.  Every formula is derived
again from the equation u'' = lambda u + u^(p-1) on each half-line with the
vertex condition -2 u'(0+) = u(0)^(q-1):

* a positive-frequency state is u = A sinh(kappa (|x| + a))^(-2/(p-2)) with
  A = (p lambda / 2)^(1/(p-2)) and kappa = (p-2) sqrt(lambda) / 2; its
  branch coordinate is t = coth(kappa a) and u0 = A (t^2 - 1)^(1/(p-2));
* the vertex condition then reads 2 sqrt(lambda) t = u0^(q-2), which fixes
  lambda as a function of d = t - 1 (``log_lambda``);
* s = coth(kappa (x + a)) turns the mass and the bulk integral into
  I(d) = int_0^d (w (w+2))^((4-p)/(p-2)) dw and
  J(d) = int_0^d (w (w+2))^(2/(p-2)) dw, evaluated here with QUADPACK's
  algebraic-weight rule (QAWS), which takes the w^e endpoint factor exactly;
* the zero-frequency state is u = c_p (|x| + a)^(-2/(p-2)).

All quantities that can overflow are carried as logarithms.
"""

from __future__ import annotations

import math
from functools import lru_cache

from scipy.integrate import quad
from scipy.optimize import brentq, minimize_scalar

_LOG2 = math.log(2.0)


def region(p: float, q: float) -> str:
    """Region tag from the paper's inequalities (p = 6 belongs to B and D)."""
    diag = p / 2.0 + 1.0
    if q == diag:
        return "I"
    if q == 4.0:
        return "G" if p < 6.0 else "H"
    if p < 6.0:
        if q < diag:
            return "A"
        return "E" if q > 4.0 else "F"
    if q < 4.0:
        return "B"
    return "D" if q > diag else "C"


#: Existence interval of normalized solutions per region (the paper's table).
INTERVAL = {"A": "upto", "E": "upto", "B": "all", "D": "all", "C": "from",
            "F": "from", "G": "window", "H": "above_two"}


def interval(p: float, q: float) -> str:
    reg = region(p, q)
    if reg == "I":
        return "all" if p > 8.0 else "none"
    return INTERVAL[reg]


# ---------------------------------------------------------------------------
# zero-frequency state and closed-form thresholds


def log_c_p(p: float) -> float:
    """log of the amplitude c of the power-law solution c (x + a)^(-2/(p-2)) of u'' = u^(p-1)."""
    return (2.0 / (p - 2.0)) * (0.5 * math.log(2.0 * p) - math.log(p - 2.0))


def log_zero_frequency_state(p: float, q: float) -> tuple[float, float]:
    """(log a, log u0) of the lambda = 0 state.

    u0 = c a^(-2/(p-2)) and the vertex condition 4 u0 / ((p-2) a) = u0^(q-1)
    give a^((2q-p-2)/(p-2)) = (p-2) c^(q-2) / 4.
    """
    log_c = log_c_p(p)
    log_a = (math.log(p - 2.0) + (q - 2.0) * log_c - math.log(4.0)) \
        * (p - 2.0) / (2.0 * q - p - 2.0)
    return log_a, log_c - 2.0 / (p - 2.0) * log_a


def mu0(p: float, q: float) -> float:
    """Mass 2 int_0^inf c^2 (x+a)^(-4/(p-2)) dx of the zero-frequency state (p < 6)."""
    log_a, _ = log_zero_frequency_state(p, q)
    return math.exp(math.log(2.0) + 2.0 * log_c_p(p) + math.log((p - 2.0) / (6.0 - p))
                    + (p - 6.0) / (p - 2.0) * log_a)


def zero_frequency_energy(p: float, q: float) -> float:
    """Energy of the zero-frequency state, termwise in closed form."""
    log_a, log_u0 = log_zero_frequency_state(p, q)
    log_c = log_c_p(p)
    log_power = -(p + 2.0) / (p - 2.0) * log_a
    # int_0^inf u'^2 and (2/p) int_0^inf u^p
    kinetic = math.exp(math.log(4.0 / ((p - 2.0) * (p + 2.0))) + 2.0 * log_c + log_power)
    bulk = math.exp(math.log(2.0 * (p - 2.0) / (p * (p + 2.0))) + p * log_c + log_power)
    return kinetic + bulk - math.exp(q * log_u0) / q


def t_star(p: float, q: float) -> float:
    """Branch coordinate of the fold, the maximum of lambda along the branch."""
    return math.sqrt((p - 2.0) / (p + 2.0 - 2.0 * q))


def lambda_bar(p: float, q: float) -> float:
    """Fold frequency (q < p/2 + 1): lambda at t*."""
    ts = t_star(p, q)
    return math.exp(log_lambda(p, q, ts - 1.0))


# ---------------------------------------------------------------------------
# branch quantities as functions of d = t - 1


def log_lambda(p: float, q: float, d: float) -> float:
    """log lambda of the state with t = 1 + d, from 2 sqrt(lambda) t = u0^(q-2)."""
    log_tsq = math.log(d) + math.log(d + 2.0)
    k = (q - 2.0) / (p - 2.0)
    inner = k * (math.log(p / 2.0) + log_tsq) - _LOG2 - math.log1p(d)
    return inner * 2.0 * (p - 2.0) / (p + 2.0 - 2.0 * q)


def log_branch_integral(e: float, d: float) -> float:
    """log of int_0^d (w (w+2))^e dw for e > -1 and d > 0."""
    if d <= 1.0:
        val, _ = quad(lambda v: (d * v + 2.0) ** e, 0.0, 1.0, weight="alg",
                      wvar=(e, 0.0), epsabs=0.0, epsrel=1e-13)
        return (e + 1.0) * math.log(d) + math.log(val)
    head, _ = quad(lambda v: (v + 2.0) ** e, 0.0, 1.0, weight="alg",
                   wvar=(e, 0.0), epsabs=0.0, epsrel=1e-13)
    # w = e^u on [1, d]: integrand exp((2e+1) u + e log1p(2 e^-u)), scaled
    # by its value at the upper end so that nothing overflows
    big = math.log(d)
    c = 2.0 * e + 1.0
    shift = c * big if c > 0.0 else 0.0
    tail, _ = quad(lambda u: math.exp(c * u - shift + e * math.log1p(2.0 * math.exp(-u))),
                   0.0, big, epsabs=0.0, epsrel=1e-13, limit=400)
    return shift + math.log(math.exp(math.log(head) - shift) + tail)


def log_mass(p: float, q: float, d: float, lam: float | None = None) -> float:
    """log of the mass 4/((p-2) sqrt(lam)) (p lam/2)^(2/(p-2)) I(d).

    lam defaults to the branch frequency at d; pass a state's own lambda to
    check that state.
    """
    log_lam = log_lambda(p, q, d) if lam is None else math.log(lam)
    e = (4.0 - p) / (p - 2.0)
    return (math.log(4.0) - math.log(p - 2.0) - 0.5 * log_lam
            + 2.0 / (p - 2.0) * (math.log(p / 2.0) + log_lam)
            + log_branch_integral(e, d))


def mass(p: float, q: float, d: float, lam: float | None = None) -> float:
    return math.exp(log_mass(p, q, d, lam))


def energy(p: float, q: float, d: float, lam: float) -> tuple[float, float]:
    """(E, scale) of the state (d, lam); scale = kinetic + bulk + point.

    kinetic = lam mu / 2 + (2/p) int_0^inf u^p, bulk = (2/p) int_0^inf u^p,
    and int_0^inf u^p = A^p J(d) / kappa.
    """
    mu = mass(p, q, d, lam)
    log_a = math.log(p * lam / 2.0) / (p - 2.0)
    log_kappa = math.log(0.5 * (p - 2.0)) + 0.5 * math.log(lam)
    up = math.exp(p * log_a - log_kappa + log_branch_integral(2.0 / (p - 2.0), d))
    u0 = math.exp(log_a + (math.log(d) + math.log(d + 2.0)) / (p - 2.0))
    kinetic = 0.5 * lam * mu + (2.0 / p) * up
    bulk = (2.0 / p) * up
    point = u0 ** q / q
    return kinetic + bulk - point, kinetic + bulk + point


# ---------------------------------------------------------------------------
# shape of the mass map and the number of states at a given mass


def small_t_limit(p: float, q: float) -> float:
    """lim mu as t -> 1+: mu ~ (t-1)^((q-4)/(2q-p-2)), the constant 2 at q = 4."""
    if q == 4.0:
        return 2.0
    return 0.0 if (q - 4.0) / (2.0 * q - p - 2.0) > 0.0 else math.inf


def large_t_limit(p: float, q: float) -> float:
    return mu0(p, q) if p < 6.0 else math.inf


@lru_cache(maxsize=None)
def branch_minimum(p: float, q: float) -> tuple[float, float]:
    """(y, mu) of the interior minimum of mu(1 + e^y), regions C and F.

    A coarse scan of log mu over y in [-40, 40] brackets the minimum and
    Brent's method refines it.  In F a minimum at the upper scan end means
    the map only falls to its plateau mu0; y is then +inf and mu is mu0.
    """
    ys = [-40.0 + 0.5 * k for k in range(161)]
    vals = [log_mass(p, q, math.exp(y)) for y in ys]
    k = min(range(len(ys)), key=vals.__getitem__)
    if k == len(ys) - 1:
        if p < 6.0:
            return math.inf, mu0(p, q)
        raise ValueError(f"mass map of ({p}, {q}) has no interior minimum on the scan")
    if k == 0:
        raise ValueError(f"mass map of ({p}, {q}) keeps falling towards t = 1")
    res = minimize_scalar(lambda y: log_mass(p, q, math.exp(y)),
                          bracket=(ys[k - 1], ys[k], ys[k + 1]),
                          method="brent", options={"xtol": 1e-11})
    return float(res.x), math.exp(float(res.fun))


@lru_cache(maxsize=None)
def mass_pieces(p: float, q: float) -> list[tuple[float, float, float, float]]:
    """Monotone pieces (y_lo, y_hi, mu_at_lo, mu_at_hi) of the mass map.

    Outside C and F the map is monotone from its small-t limit to its
    large-t limit; in C and F it falls to one interior minimum and rises.
    """
    lo, hi = small_t_limit(p, q), large_t_limit(p, q)
    if region(p, q) in ("C", "F"):
        y_min, mu_min = branch_minimum(p, q)
        if math.isinf(y_min):
            return [(-math.inf, math.inf, lo, hi)]
        return [(-math.inf, y_min, lo, mu_min), (y_min, math.inf, mu_min, hi)]
    return [(-math.inf, math.inf, lo, hi)]


def thresholds(p: float, q: float) -> list[float]:
    """Masses at which the state count changes (closed forms and the minimum)."""
    out = [v for piece in mass_pieces(p, q) for v in piece[2:]]
    return sorted({v for v in out if 0.0 < v < math.inf})


def predicted_count(p: float, q: float, mu: float,
                    pieces: list | None = None) -> int:
    """Number of positive states of mass mu off the diagonal.

    One per monotone piece whose open range contains mu, plus the
    zero-frequency state when mu equals mu0.
    """
    pieces = mass_pieces(p, q) if pieces is None else pieces
    count = sum(1 for _, _, a, b in pieces if min(a, b) < mu < max(a, b))
    if p < 6.0 and mu == mu0(p, q):
        count += 1
    return count


def diagonal_count(p: float) -> int:
    """On q = p/2 + 1: t / sqrt(t^2 - 1) = sqrt(p / 8) has a root iff p > 8."""
    return 1 if p > 8.0 else 0


def invert_piece(p: float, q: float, mu: float, y_lo: float, y_hi: float) -> float:
    """Offset d with mu(1 + d) = mu on one monotone piece (finite bracket)."""
    target = math.log(mu)
    y = brentq(lambda yy: log_mass(p, q, math.exp(yy)) - target, y_lo, y_hi,
               xtol=1e-13, rtol=1e-14, maxiter=300)
    return math.exp(y)


def _widen(y: float, step: float) -> float:
    y += step
    if abs(y) > 700.0:
        raise ValueError("mass level not bracketed within t - 1 in [e^-700, e^700]")
    return y


def states_at_mass(p: float, q: float, mu: float, pieces: list | None = None) -> list[float]:
    """Offsets d of every positive-frequency state of mass mu (C and F use two pieces)."""
    out = []
    target = math.log(mu)
    for y_lo, y_hi, a, b in mass_pieces(p, q) if pieces is None else pieces:
        if not min(a, b) < mu < max(a, b):
            continue
        # widen infinite ends until they straddle the target
        sign = 1.0 if b > a else -1.0
        lo = y_lo if math.isfinite(y_lo) else min(y_hi, 0.0) - 1.0
        hi = y_hi if math.isfinite(y_hi) else max(y_lo, 0.0) + 1.0
        while math.isinf(y_lo) and sign * (log_mass(p, q, math.exp(lo)) - target) > 0.0:
            lo = _widen(lo, -4.0)
        while math.isinf(y_hi) and sign * (log_mass(p, q, math.exp(hi)) - target) < 0.0:
            hi = _widen(hi, 4.0)
        out.append(invert_piece(p, q, mu, lo, hi))
    return out


def min_branch_energy(p: float, q: float, mu: float,
                      pieces: list | None = None) -> tuple[float, float]:
    """(lowest branch energy, its scale) among the states of mass mu."""
    best = None
    for d in states_at_mass(p, q, mu, pieces):
        e, scale = energy(p, q, d, math.exp(log_lambda(p, q, d)))
        if best is None or e < best[0]:
            best = (e, scale)
    if best is None:
        raise ValueError(f"no branch state of mass {mu} at ({p}, {q})")
    return best


# ---------------------------------------------------------------------------
# states at a given frequency


def frequency_states(p: float, q: float, lam: float) -> list[float]:
    """Offsets d of the states at frequency lam off the diagonal, ascending.

    They solve log lambda(d) = log lam.  lambda(d) rises from 0 to its fold
    value at t* and falls back to 0 when q < p/2 + 1, and falls from
    infinity to 0 when q > p/2 + 1.  A root beyond t - 1 in [e^-700, e^700]
    is returned as 0 or inf.
    """
    target = math.log(lam)
    fn = lambda y: log_lambda(p, q, math.exp(y)) - target
    lo, hi = -700.0, 700.0

    def root(a: float, b: float) -> float:
        return math.exp(brentq(fn, a, b, xtol=1e-14, rtol=1e-15, maxiter=500))

    if q > p / 2.0 + 1.0:
        if fn(lo) <= 0.0:
            return [0.0]
        return [math.inf] if fn(hi) >= 0.0 else [root(lo, hi)]
    y_star = math.log(t_star(p, q) - 1.0)
    if fn(y_star) < 0.0:
        return []
    return [0.0 if fn(lo) >= 0.0 else root(lo, y_star),
            math.inf if fn(hi) >= 0.0 else root(y_star, hi)]
