"""Independent brute-force checks: shooting, profile quadrature, gradient
flow.

Nothing here trusts the closed-form matching, mass or energy.  The shooter
integrates the radial ODE u'' = lambda u + |u|^(p-2) u from the vertex data
(u0, -u0^(q-1)/2) outward; the mass and energy pieces of a closed-form
profile are integrated directly, by panel Gauss-Legendre quadrature with an
error estimate (:func:`profile_functional`); sampled profiles are evaluated
by the discrete functional of :mod:`deltanls.discrete`; the constrained
minimizer runs a backward-Euler normalized gradient flow on that functional
at fixed mass, with the bulk and point terms both lagged: its matrix is a
symmetric positive definite tridiagonal less a point term at the origin's
diagonal entry, factored by LDL^T in reversed node order (LAPACK dpttrf and
dpttrs), so that the point term enters the last pivot only; the trial is
signed so that its value at the origin is not negative.

Shooting detail: the decaying orbit is a saddle connection, so forward
integration in double precision is eventually taken over by the growing
mode (error ~ eps * exp(sqrt(lambda) x)).  The shooter therefore stops at
a capture radius where u - u'/max(sqrt(lambda), 1) has dropped to 1e-5 * u0
(1e-3 * u0 at lambda = 0) -- reached well before noise can -- and continues
the tail with the exact decay law of the first integral.  Trajectories that instead cross zero or
turn around (u' = 0, which precedes any growth: the vertex slope is
negative) are classified as non-decaying.  The shooter steps DOP853 under
solve_ivp on Python floats (:class:`_TwoFloatDOP853`: SciPy's tableau,
initial step and step-size rules, the same steps and right-hand-side count).
The stepper reads the three events in floats at each step end and ends the
solve at the first sign change, and forms the dense output of all its steps
at once when the solve ends; the event point is then located as solve_ivp
locates it (brentq on that step's interpolant), and the dense output is read
once, at the grid nodes up to the event and at the drift abscissae
(:func:`_dense_values`).
"""

from __future__ import annotations

import functools
import math
import struct
import sys
from dataclasses import dataclass

import numpy as np
from scipy.integrate import DOP853, solve_ivp
from scipy.linalg.lapack import dpttrf, dpttrs
from scipy.optimize import brentq

from .discrete import Grid, GridProfile, discrete_mass, grid_energy
from .massmap import efolding_length, panel_cuts
from .params import Params
from .stationary import BranchPoint, EnergyBreakdown, profile as analytic_profile, \
    profile_derivative

#: Relative (to u0) capture radius of the saddle neighbourhood.  Forward
#: noise grows like exp(sqrt(lambda) x); 1e-5 is reached a safe margin
#: before the noise floor while keeping the matched tail error negligible.
CAPTURE_TOL = 1e-5
#: Looser capture for zero-frequency shots (algebraic tails, polynomial error growth).
CAPTURE_TOL_ZERO = 1e-3
#: Relative decay gate evaluated at the far end of the domain.
DECAY_GATE = 1e-7
#: Numerical stand-in for "below any floor": the flow stops once its energy
#: falls below it, and the unboundedness probes and the probe flow must.
FLOW_DIVERGENCE_FLOOR = -1.0e6
#: Relative tolerance of the DOP853 shooter.
SHOOT_RTOL = 1e-12
#: DOP853's step-size rules (SciPy's values): the safety factor of the step
#: update and the least and greatest factor by which one step can change it.
SAFETY = 0.9
MIN_FACTOR = 0.2
MAX_FACTOR = 10.0
#: Relative energy drop below which a flow step counts as stalled (eight
#: stalled steps in a row end the flow).
STALL_REL = 1e-10
#: Nodes per block of the shooter's grid that shooting_sup_distance compares.
SUP_BLOCK = 4096
#: Most steps a flow takes; the stall, the floor or a rejected step ends
#: every flow of the checks and tests within 200.
FLOW_MAX_STEPS = 200_000


@dataclass(frozen=True)
class ShootingResult:
    decay_ok: bool
    profile: GridProfile
    outcome: str   # decayed | crossed_zero | rebounded | no_event | step_failed
    first_integral_drift: float
    capture_x: float | None


def default_domain(lam: float) -> float:
    """Truncation radius: 20 decay lengths for lam > 0, 1e3 for algebraic tails."""
    if lam > 0.0:
        return max(50.0, 20.0 / math.sqrt(lam))
    return 1e3


#: The 40- and 20-point Gauss-Legendre rules on [-1, 1] as (nodes, weights)
#: on their positive halves, ascending: the doubles of numpy's
#: ``polynomial.legendre.leggauss`` (repr round-trips each).  leggauss
#: symmetrises its rules, so the other half is these nodes negated, bit for bit.
_GL40_HALF = (
    (0.038772417506050816, 0.11608407067525521, 0.1926975807013711,
     0.2681521850072537, 0.3419940908257585, 0.413779204371605,
     0.4830758016861787, 0.5494671250951282, 0.6125538896679802,
     0.6719566846141796, 0.7273182551899271, 0.7783056514265194,
     0.8246122308333117, 0.8659595032122595, 0.9020988069688742,
     0.9328128082786765, 0.9579168192137917, 0.9772599499837743,
     0.990726238699457, 0.9982377097105591),
    (0.07750594797842451, 0.07703981816424763, 0.07611036190062598,
     0.07472316905796794, 0.07288658239580377, 0.07061164739128656,
     0.06791204581523368, 0.06480401345660076, 0.061306242492928834,
     0.05743976909939129, 0.0532278469839367, 0.04869580763507193,
     0.04387090818567321, 0.03878216797447219, 0.03346019528254789,
     0.027937006980023434, 0.022245849194166653, 0.016421058381906828,
     0.010498284531153814, 0.004521277098536349),
)
_GL20_HALF = (
    (0.07652652113349734, 0.22778585114164507, 0.37370608871541955,
     0.5108670019508271, 0.636053680726515, 0.7463319064601508,
     0.8391169718222188, 0.912234428251326, 0.9639719272779138,
     0.993128599185095),
    (0.15275338713072628, 0.14917298647260424, 0.1420961093183824,
     0.1316886384491769, 0.1181945319615186, 0.1019301198172407,
     0.08327674157670471, 0.06267204833410879, 0.040601429800386446,
     0.017614007139150893),
)


@functools.cache
def _gauss_legendre() -> tuple:
    """Nodes and weights on [-1, 1] of the 40-point Gauss-Legendre rule and
    of the 20-point rule of its error estimate, ascending, as leggauss orders
    them, from the literal halves: no eigensolve runs (leggauss's first
    LAPACK call adds about 0.4 MB to the resident set of its process)."""
    rules = []
    for nodes, weights in (_GL40_HALF, _GL20_HALF):
        x, w = np.array(nodes), np.array(weights)
        rules.append((np.concatenate([-x[::-1], x]), np.concatenate([w[::-1], w])))
    return tuple(rules)


def _gauss_legendre_panels(integrand, ell: float, end: float):
    """(integrals, estimates) over [0, end] of the rows of integrand(x).

    The panels are ``massmap.panel_cuts(ell, end)``.  Each integral is the
    40-point Gauss-Legendre rule summed over the panels, and its estimate
    is |I40 - I20| against the 20-point rule on the same panels.  integrand
    is called once, on the nodes of both rules, and returns one row per
    integral.
    """
    cuts = panel_cuts(ell, end)   # an ell that underflows to 0 integrates to 0
    lo, hi = np.array(cuts[:-1]), np.array(cuts[1:])
    mid, half = 0.5 * (hi + lo)[:, None], 0.5 * (hi - lo)[:, None]
    (x40, w40), (x20, w20) = _gauss_legendre()
    nodes = (mid + half * x40).ravel()
    rows = integrand(np.concatenate([nodes, (mid + half * x20).ravel()]))
    fine = rows[:, :nodes.size] @ (half * w40).ravel()
    coarse = rows[:, nodes.size:] @ (half * w20).ravel()
    return fine, np.abs(fine - coarse)


def profile_functional(point: BranchPoint, L: float):
    """(mass, EnergyBreakdown, estimate) of a closed-form state on [-L, L].

    The mass 2 int u^2, the kinetic term int u'^2 and the bulk term
    (2/p) int u^p over [0, L] come from :func:`_gauss_legendre_panels`, with
    u evaluated once, at all its nodes, and u' formed from it.  The first
    panel is the length over which u^2 falls by e at the origin
    (``massmap.efolding_length``, taken back to x).  The point term is
    u(0)^q / q.  estimate is the largest relative error estimate of the
    three integrals.
    """
    p, q = point.params.p, point.params.q
    ell, kappa = efolding_length(point)

    def integrand(x):
        u = analytic_profile(point, x)
        return np.array([u * u, profile_derivative(point, x, u) ** 2, u ** p])

    integrals, estimates = _gauss_legendre_panels(integrand, ell / kappa, L)
    usq, dusq, upow = integrals.tolist()
    mass, eb = _breakdown(2.0 * usq, dusq, (2.0 / p) * upow,
                          analytic_profile(point, 0.0) ** q / q)
    return mass, eb, float(np.max(estimates / integrals))


def sample_profile(point: BranchPoint, L: float, n: int) -> GridProfile:
    """Materialize a branch state on a uniform grid (closed-form sampling)."""
    return GridProfile(L, n, analytic_profile(point, Grid(L, n).x))


def functional_eval(params: Params, profile: GridProfile):
    """(mass, EnergyBreakdown) of a sampled even profile.

    The discrete functional's M_h and the three pieces of its E_h
    (``discrete.discrete_mass`` and ``discrete.grid_energy``).
    """
    u, h = profile.values, profile.h
    return _breakdown(discrete_mass(u, h), *grid_energy(params, u, h))


def _breakdown(mass: float, kinetic: float, bulk: float, point: float):
    return mass, EnergyBreakdown(kinetic, bulk, point, kinetic + bulk - point)


def _tail_value(params: Params, lam: float, u_d: float,
                dx: float | np.ndarray) -> np.ndarray:
    """Decay law continuation a distance dx (scalar or array) past the capture point."""
    dx = np.asarray(dx, dtype=float)
    if u_d <= 0.0:
        return np.zeros_like(dx)
    if lam > 0.0:
        return u_d * np.exp(-math.sqrt(lam) * dx)
    p = params.p
    half = 0.5 * (p - 2.0)
    base = u_d ** (-half) + half * math.sqrt(2.0 / p) * dx
    return base ** (-1.0 / half)


def _dense_values(t: np.ndarray, y: np.ndarray, F: np.ndarray,
                  x: np.ndarray) -> np.ndarray:
    """The DOP853 dense output at the ascending points x of the steps between
    the step ends t, bit for bit, with every step evaluated at once.

    y[:, i] is the state at the start of step i and F[:, :, i] the
    coefficients of its interpolant, as (component, row, step) arrays; only
    the components in y and F are evaluated.  Each point takes the step
    SciPy's OdeSolution would take (the lower one at a step end point, the
    first and last steps beyond the ends): the points up to the first inner
    step end go to the first step, and so on.  Each point then runs the
    arithmetic of SciPy's Dop853DenseOutput: r = (x - t_old) / h, the nested
    product of the F rows in r and 1 - r, plus y.  Each coefficient row is
    repeated out to the points by step as it is added, one row at a time;
    the arithmetic of each element is the interpolant's, so the bits are too.
    """
    bounds = np.searchsorted(x, t, side="right")    # points up to each step end
    bounds[0], bounds[-1] = 0, len(x)
    counts = bounds[1:] - bounds[:-1]
    t_old = t[:-1]
    r = (x - t_old.repeat(counts)) / (t[1:] - t_old).repeat(counts)
    factors = (r, 1 - r)
    out = np.zeros((len(F), len(x)))
    for rows, start, yc in zip(F, y, out):
        for i, row in enumerate(rows[::-1]):
            yc += row.repeat(counts)
            yc *= factors[i % 2]
        yc += start.repeat(counts)
    return out


def _step_interpolant(t_old: float, t: float, y_old, F):
    """The dense output of one step as a function of a float x, returning
    (u, v): the arithmetic of SciPy's Dop853DenseOutput at a scalar point, on
    Python floats.  y_old is the state at t_old and F the step's (component,
    row) coefficients."""
    h = t - t_old
    (u_old, v_old), rows = y_old, F.T.tolist()[::-1]

    def at(x: float) -> tuple[float, float]:
        r = (x - t_old) / h
        factors = (r, 1 - r)
        u = v = 0.0
        for i, (fu, fv) in enumerate(rows):
            u += fu
            v += fv
            u *= factors[i % 2]
            v *= factors[i % 2]
        return u + u_old, v + v_old

    return at


def _nonzero_rows(matrix) -> tuple:
    """Each row of a tableau matrix as its ((index, coefficient), ...) nonzeros."""
    return tuple(tuple((j, float(a)) for j, a in enumerate(row) if a != 0.0)
                 for row in matrix)


class _TwoFloatDOP853(DOP853):
    """SciPy's DOP853 (Hairer, Norsett & Wanner, Solving ODEs I, II.10) for a
    two-component system, stepped on Python floats, with terminal events read
    in floats and the dense output formed once.

    The tableau, the initial step and the step-size rules are DOP853's own;
    only the stage sums are formed as float sums over the tableau's nonzero
    coefficients, by a trial step compiled from them (:func:`_trial_step`),
    where SciPy forms numpy products on a 2-vector whose overhead is nearly
    all the cost of a step of so small a system.  The sums are added in
    another order, so values can differ from SciPy's in their last bits.  The right-hand side is called as fun(t, (u, v)) and
    returns two floats; nfev counts each call.  The state (u, v), its
    derivative self.f and the atol pair are held as floats; self.y is also
    kept as an array, as solve_ivp expects.

    Two options reach it through solve_ivp.  stops holds the terminal
    events as (g, direction) pairs, g(u, v) a float and direction +1
    (upward) or -1 (downward): at each step end the stepper reads them and
    ends the solve on the first step over which one changes sign in its
    direction, by the rule of solve_ivp's find_active_events (g <= 0 <=
    g_new upward, g >= 0 >= g_new downward); stopped lists those events.
    out is a list the stepper appends itself to, so that its stopped events
    and dense output can be read after solve_ivp returns.

    When the solve ends (at t_bound, at a stop or on a failed step) the
    stepper forms the dense output of every accepted step at once, before
    solve_ivp returns and reads nfev: steps = (t, y, F), the step ends, the
    state at each step's start, and the coefficients of each step's
    interpolant as a (component, row, step) array.  The three extra stages
    call fun once per step on floats, as the steps do (numpy's power is not
    libm's pow to the last bit); every stage sum and every row of F is array
    arithmetic over the steps, element for element the float operations of
    one step's float sums, in their order, so F is bit for bit what forming
    it step by step gives.  SciPy's per-step dense_output is not available.
    """

    _STAGES = tuple(zip(DOP853.C[1:].tolist(), _nonzero_rows(DOP853.A[1:])))
    _B, _E5, _E3 = _nonzero_rows([DOP853.B, DOP853.E5, DOP853.E3])

    def __init__(self, fun, t0, y0, t_bound, stops=(), out=None, **options):
        super().__init__(fun, t0, y0, t_bound, **options)
        self._rhs, self._trial = fun, _trial_step(self._STAGES, self._B, self._E5, self._E3)
        self._direction, self._rtol = float(self.direction), float(self.rtol)
        self._atol = np.broadcast_to(self.atol, 2).tolist()
        self._uv, self.f = tuple(self.y.tolist()), tuple(self.f.tolist())
        self._stops = stops
        self._g = [g(*self._uv) for g, _ in stops]
        # t, h, u, v and the stages ku, kv of each accepted step, as packed doubles
        self._pack = struct.Struct(f"{4 + 2 * (len(self._STAGES) + 2)}d").pack
        self._steps = []
        self.stopped, self.steps = [], None
        if out is not None:
            out.append(self)

    def step(self):
        message = super().step()
        if self.status != "failed":
            u, v = self._uv
            g_old, self._g = self._g, [g(u, v) for g, _ in self._stops]
            self.stopped = [i for i, ((_, up), g, g_new)
                            in enumerate(zip(self._stops, g_old, self._g))
                            if (g <= 0.0 <= g_new if up > 0.0 else g >= 0.0 >= g_new)]
            if self.stopped:
                self.status = "finished"
        if self.status != "running":
            self.steps = self._dense_output_all()
        return message

    def _step_impl(self):
        t, (u, v), (fu, fv) = self.t, self._uv, self.f
        rhs, trial, direction, t_bound = self._rhs, self._trial, self._direction, self.t_bound
        atol_u, atol_v = self._atol
        rtol, exponent = self._rtol, self.error_exponent
        min_step = 10.0 * abs(math.nextafter(t, direction * math.inf) - t)
        h_abs = min(max(float(self.h_abs), min_step), self.max_step)

        step_rejected = False
        while True:
            if h_abs < min_step:
                return False, self.TOO_SMALL_STEP
            t_new = t + h_abs * direction
            if direction * (t_new - t_bound) > 0:
                t_new = t_bound
            h = t_new - t
            h_abs = abs(h)

            self.nfev += 12
            u_new, v_new, fu_new, fv_new, e5u, e5v, e3u, e3v, k = \
                trial(rhs, t, u, v, fu, fv, h, t_new)
            su = atol_u + max(abs(u), abs(u_new)) * rtol
            sv = atol_v + max(abs(v), abs(v_new)) * rtol
            err5 = (e5u / su) ** 2 + (e5v / sv) ** 2
            err3 = (e3u / su) ** 2 + (e3v / sv) ** 2
            error_norm = 0.0 if err5 == 0.0 and err3 == 0.0 else \
                h_abs * err5 / math.sqrt((err5 + 0.01 * err3) * 2.0)

            if error_norm < 1.0:
                factor = MAX_FACTOR if error_norm == 0.0 else \
                    min(MAX_FACTOR, SAFETY * error_norm ** exponent)
                if step_rejected:
                    factor = min(1.0, factor)
                h_abs *= factor
                break
            h_abs *= max(MIN_FACTOR, SAFETY * error_norm ** exponent)
            step_rejected = True

        self.t = t_new
        self._uv, self.f = (u_new, v_new), (fu_new, fv_new)
        self.y = np.array(self._uv)
        self.h_abs = h_abs
        self._steps.append(self._pack(t, h, u, v, *k))
        return True, None

    def _dense_output_impl(self):
        raise NotImplementedError("the dense output of every step is formed once, "
                                  "when the solve ends: read steps")

    def _dense_output_all(self):
        """(t, y, F) of every accepted step: see the class docstring."""
        n, stages = len(self._steps), len(self._STAGES) + 2
        S = np.frombuffer(b"".join(self._steps)).reshape(n, -1).T
        t_old, h, y = S[0], S[1], S[2:4]
        K = np.empty((stages + len(DOP853.C_EXTRA), 2, n))    # (stage, component, step)
        K[:stages] = S[4:].reshape(2, stages, n).transpose(1, 0, 2)
        rhs = self._rhs
        for s, c in enumerate(DOP853.C_EXTRA.tolist()):
            uv = y + _row_sums(DOP853.A_EXTRA[s:s + 1], K)[0] * h
            f = [rhs(ti, (ui, vi))
                 for ti, ui, vi in zip((t_old + c * h).tolist(), *uv.tolist())]
            K[stages + s] = np.array(f).T
        self.nfev += len(DOP853.C_EXTRA) * n
        du = np.column_stack([y[:, 1:], self._uv]) - y
        F = np.concatenate([[du, h * K[0] - du, 2.0 * du - h * (K[stages - 1] + K[0])],
                            h * _row_sums(DOP853.D, K)])
        return np.append(t_old, self.t), y, np.ascontiguousarray(F.transpose(1, 0, 2))


@functools.cache
def _trial_step(stages, b, e5, e3):
    """One DOP853 trial step on floats, compiled on first use from the
    nonzeros of the tableau's rows (stages: (c, row) of each stage after the
    first; b, e5, e3: the rows B, E5 and E3):

        trial(rhs, t, u, v, fu, fv, h, t_new)
            -> (u_new, v_new, fu_new, fv_new, e5u, e5v, e3u, e3v, k)

    with k the 13 stages, those of u and then those of v.  Each sum over a
    row is written out as (0.0 + a * kj + ...) over its nonzeros (j, a) in
    order, the coefficients as float literals (repr round-trips every
    double): the products and additions of a loop over the row, in its
    order, without the loop, which took most of a step's time.
    """
    def total(row, part):
        return "(0.0" + "".join(f" + {a!r} * k{j}{part}" for j, a in row) + ")"

    last = len(stages) + 1
    lines = ["def trial(rhs, t, u, v, k0u, k0v, h, t_new):"]
    lines += [f"    k{i}u, k{i}v = rhs(t + {c!r} * h, "
              f"(u + {total(row, 'u')} * h, v + {total(row, 'v')} * h))"
              for i, (c, row) in enumerate(stages, start=1)]
    lines += [f"    u_new = u + h * {total(b, 'u')}",
              f"    v_new = v + h * {total(b, 'v')}",
              f"    k{last}u, k{last}v = rhs(t_new, (u_new, v_new))",
              f"    return (u_new, v_new, k{last}u, k{last}v, "
              + ", ".join(total(row, part) for row in (e5, e3) for part in "uv")
              + ", (" + "".join(f"k{j}{part}, " for part in "uv" for j in range(last + 1)) + "))"]
    namespace = {}
    exec(compile("\n".join(lines), "<DOP853 trial step>", "exec"), namespace)
    return namespace["trial"]


def _row_sums(matrix, K):
    """The sums of matrix[r, j] * K[j] over the columns j where the rows of
    matrix are nonzero (they share their nonzeros), one per row r, added in
    the order of j from 0.0 as the steps add their stage sums."""
    cols = np.flatnonzero(matrix.any(axis=0))
    terms = matrix[:, cols].T[:, :, None, None] * K[cols][:, None]
    total = 0.0 + terms[0]
    for term in terms[1:]:
        total += term
    return total


def shoot(params: Params, lam: float, u0: float, L: float | None = None,
          n: int = 20000) -> ShootingResult:
    """Integrate the vertex initial-value problem outward and classify it.

    The outcome is read once, from the events: decayed (captured in the
    saddle neighbourhood, the tail continued by the decay law), crossed_zero,
    rebounded (u' = 0; the vertex slope is negative, so u can grow only after
    it has turned), no_event (the solve reached L), or step_failed (DOP853
    needed a step below its least step, 10 ulp of x, before any event).  A
    trajectory that does not decay is an outcome, not an exception.
    decay_ok holds only for a decayed shot that stays positive and whose
    tail meets the far-end gate u(L) + |u'(L)| <= 1e-7 * u0.  No other
    outcome could meet it: a no_event shot ends with u > 0, u' < 0 and
    u - u'/s > cap_tol * u0 (s = max(sqrt(lambda), 1) >= 1, cap_tol = 1e-5,
    or 1e-3 at lambda = 0), as no event fired, so |u| + |u'| > 1e-5 * u0
    there, and a step_failed shot has no trustworthy state at its end.
    """
    if not u0 > 0.0:
        raise ValueError(f"need a positive vertex height, got {u0}")
    if lam < 0.0:
        raise ValueError("shooting is defined for lambda >= 0")
    if L is None:
        L = default_domain(lam)
    p, q = params.p, params.q
    power = p - 2.0

    def rhs(x, y):
        u, v = y
        return v, lam * u + abs(u) ** power * u

    slope_scale = max(math.sqrt(lam), 1.0)
    cap_tol = CAPTURE_TOL if lam > 0.0 else CAPTURE_TOL_ZERO

    def ev_capture(u, v):
        return u - v / slope_scale - cap_tol * u0

    def ev_cross(u, v):
        return u

    def ev_rebound(u, v):
        return v

    stops = ((ev_capture, -1.0), (ev_cross, -1.0), (ev_rebound, 1.0))
    stepper = []
    sol = solve_ivp(rhs, (0.0, L), np.array([u0, -0.5 * u0 ** (q - 1.0)]),
                    method=_TwoFloatDOP853, rtol=SHOOT_RTOL,
                    atol=[1e-14 * u0, 1e-14 * u0 * slope_scale], stops=stops, out=stepper)
    (stepper,) = stepper
    t, y, F = stepper.steps
    x_end = t[-1]
    if stepper.stopped:
        # each event that changed sign over the last step is located as
        # solve_ivp locates it, and the earliest root wins
        at = _step_interpolant(t[-2], t[-1], y[:, -1].tolist(), F[:, :, -1])
        tol = 4.0 * sys.float_info.epsilon
        x_end, first = min((brentq(lambda x, g=stops[i][0]: g(*at(x)), t[-2], t[-1],
                                   xtol=tol, rtol=tol), i) for i in stepper.stopped)
        outcome = ("decayed", "crossed_zero", "rebounded")[first]   # the order of stops
    else:
        outcome = "step_failed" if sol.status == -1 else "no_event"

    # one dense evaluation of (u, u') at the 512 drift abscissae, the last of
    # which is x_end itself, and one of u at the grid nodes up to x_end
    uu, dd = _dense_values(t, y, F, np.linspace(0.0, x_end, 512))
    u_end, du_end = float(uu[-1]), float(dd[-1])
    if outcome in ("crossed_zero", "rebounded"):
        # a turn or zero crossing with the whole state inside the saddle
        # neighbourhood means the trajectory tracked the connection until
        # integration noise took over: classify as captured there
        if abs(u_end) <= 10.0 * cap_tol * u0 \
                and abs(du_end) <= 10.0 * cap_tol * u0 * slope_scale:
            outcome = "decayed"

    x = Grid(L, n).x
    k = int(np.searchsorted(x, x_end, side="right"))   # nodes with x <= x_end
    vals = np.empty(n + 1)
    vals[:k] = _dense_values(t, y[:1], F[:1], x[:k])[0]
    captured = outcome == "decayed"
    if captured:
        vals[k:] = _tail_value(params, lam, u_end, x[k:] - x_end)
        capture_x = x_end
    else:
        vals[k:] = 0.0
        capture_x = None

    # first-integral drift along the numeric part of the trajectory
    H, scale = first_integral(p, lam, uu, dd, u0)
    drift = float(np.max(np.abs(H - H[0]))) / scale

    stayed_positive = outcome not in ("crossed_zero", "rebounded") \
        and bool(np.all(vals >= 0.0))
    decay_ok = False
    if captured and stayed_positive:
        # the far-end gate, read on the decay law's tail
        uL = float(_tail_value(params, lam, u_end, L - x_end))
        duL = math.sqrt(lam) * uL if lam > 0.0 \
            else math.sqrt(2.0 / p) * uL ** (p / 2.0)
        decay_ok = uL + duL <= DECAY_GATE * u0

    profile = GridProfile(L, n, vals if stayed_positive else np.maximum(vals, 0.0))
    return ShootingResult(decay_ok=decay_ok, profile=profile, outcome=outcome,
                          first_integral_drift=drift, capture_x=capture_x)


def first_integral(p: float, lam: float, u, du, u0: float):
    """(u'^2 - lam u^2 - (2/p) |u|^p, lam u0^2 + (2/p) u0^p): the first
    integral of the radial equation at (u, u'), 0 on every decaying orbit,
    and the size of its terms at the vertex height u0, against which its
    drift and residuals are read."""
    c = 2.0 / p
    return du ** 2 - lam * u ** 2 - c * np.abs(u) ** p, lam * u0 ** 2 + c * u0 ** p


def shooting_sup_distance(point: BranchPoint, result: ShootingResult) -> float:
    """sup_x |numeric profile - closed-form profile| on the shooter's grid,
    compared in blocks of SUP_BLOCK nodes (the closed form is evaluated node
    by node, so the blocks change no bit); NaN if any node is NaN."""
    x, vals = result.profile.x, result.profile.values
    worst = [np.max(np.abs(vals[i:i + SUP_BLOCK] - analytic_profile(point, x[i:i + SUP_BLOCK])))
             for i in range(0, len(x), SUP_BLOCK)]
    return float(np.max(worst))


# ---------------------------------------------------------------------------
# normalized gradient flow


def _flow_solve(d, off, b, tau_c):
    """The flow's trial u* from (A - tau_c e0 e0^T) u* = b, signed so that
    u*_0 >= 0, or None where that matrix is singular.

    A is the symmetric positive definite tridiagonal with diagonal d and
    off-diagonal off; d[0] is overwritten with d[0] - tau_c.  The whole
    matrix is factored once by LDL^T in reversed node order (LAPACK dpttrf)
    and solved for b (dpttrs).  In that order the point term enters the last
    pivot only: the first n-1 pivots are those of A's diagonally dominant
    part without the origin, and stay positive.  The last one is not
    positive past tau = 1/lambda (dpttrf's info n), and the solve goes on;
    a zero last pivot is a singular matrix.
    """
    d[0] -= tau_c
    pivots, mults, info = dpttrf(d[::-1], off[::-1])
    if info not in (0, len(d)):
        raise np.linalg.LinAlgError(f"tridiagonal factorization failed (dpttrf info={info})")
    if pivots.item(-1) == 0.0:
        return None
    x = dpttrs(pivots, mults, b[::-1])[0][::-1]
    return -x if x.item(0) < 0.0 else x.copy()


def constrained_minimize(params: Params, mu: float, profile0: GridProfile):
    """Backward-Euler normalized gradient flow at fixed discrete mass.

    Each step solves the linearly implicit system (Bao & Du, SIAM J. Sci.
    Comput. 25, 2004)

        (2W + tau (K + 2W |u^n|^(p-2)) - tau |u0^n|^(q-2) e0 e0^T) u* = 2W u^n

    with W the trapezoid weights and K the kinetic stiffness of the grid
    (:mod:`deltanls.discrete`): the bulk and point coefficients are both lagged
    at u^n.  The matrix need not be positive definite; its part A = 2W +
    tau (K + 2W |u^n|^(p-2)) is, for every tau, and the point term changes
    only its diagonal entry at the origin.  :func:`_flow_solve` factors the
    whole matrix by LDL^T in reversed node order, where that entry is the
    last pivot, and solves it for the one right-hand side 2W u^n.  2W, A's
    lagged diagonal and 2W u^n are formed once per step.  Near a state of
    multiplier lambda the whole matrix maps u to about (1 - tau lambda) 2W u,
    so past tau = 1/lambda (a negative last pivot) the solve returns -u; the
    trial is then negated, which leaves the energy (even in u) as it is and
    keeps u*_0 >= 0.

    u* is renormalized back to the mass sphere and accepted only if the energy
    does not increase, with halving on increase and mild growth on success.
    A singular matrix (a zero last pivot) or a non-finite trial counts as an
    increase.
    Returns (final profile, energy trace).  The flow stops once the energy
    falls below FLOW_DIVERGENCE_FLOOR: the level is then unbounded below, or
    the flow has diverged, which a check against a finite level reports.
    It takes at most FLOW_MAX_STEPS steps.
    """
    p, q = params.p, params.q
    h = profile0.h
    u = profile0.values.copy()
    u *= math.sqrt(mu / discrete_mass(u, h))
    two_w, stiff = profile0.mass_and_stiffness()
    # the trial's matrix diagonal and off-diagonal, and the energy's work arrays
    d, off = np.empty(len(u)), np.empty(len(u) - 1)
    work = np.empty(len(u)), np.empty(len(u), bool)

    kinetic, bulk, point = grid_energy(params, u, h, work)
    energy = kinetic + bulk - point
    trace = [energy]
    tau = 1e-3 * h * h
    stall_count = 0
    for _ in range(FLOW_MAX_STEPS):
        diag = np.abs(u)
        diag **= p - 2.0
        diag *= two_w
        diag += stiff
        c = abs(u.item(0)) ** (q - 2.0)
        two_w_u = two_w * u
        accepted = False
        for _ in range(60):
            np.multiply(diag, tau, out=d)
            d += two_w
            off.fill(-2.0 * tau / h)
            trial = _flow_solve(d, off, two_w_u, tau * c)
            mass = discrete_mass(trial, h) if trial is not None else math.nan
            if 0.0 < mass < math.inf:
                trial *= math.sqrt(mu / mass)
                kinetic, bulk, point = grid_energy(params, trial, h, work)
                e_trial = kinetic + bulk - point
                if e_trial <= energy:
                    accepted = True
                    break
            tau *= 0.5
        if not accepted:
            break
        u = trial.copy()
        drop = energy - e_trial
        energy = e_trial
        trace.append(energy)
        tau *= 1.3
        if energy < FLOW_DIVERGENCE_FLOOR:
            break
        if drop <= STALL_REL * max(1.0, abs(energy)):
            stall_count += 1
            if stall_count >= 8:
                break
        else:
            stall_count = 0
    return GridProfile(profile0.L, profile0.n, u), trace
