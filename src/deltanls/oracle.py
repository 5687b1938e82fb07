"""Independent brute-force checks: shooting, profile quadrature, grid
functionals, gradient flow.

Nothing here trusts the closed-form matching, mass or energy.  The shooter
integrates the radial ODE u'' = lambda u + |u|^(p-2) u from the vertex data
(u0, -u0^(q-1)/2) outward; the mass and energy pieces of a closed-form
profile are integrated directly, by panel Gauss-Legendre quadrature with an
error estimate (:func:`profile_functional`); one discrete functional (the
piecewise-linear interpolant, its kinetic term exact and its mass and bulk
terms by the trapezoidal rule) evaluates sampled profiles; the constrained
minimizer runs a backward-Euler normalized gradient flow on that functional
at fixed mass, and solves its symmetric positive definite tridiagonal system
by LDL^T (LAPACK dptsv).

Shooting detail: the decaying orbit is a saddle connection, so forward
integration in double precision is eventually taken over by the growing
mode (error ~ eps * exp(sqrt(lambda) x)).  The shooter therefore stops at
a capture radius where u - u'/max(sqrt(lambda), 1) has dropped to 1e-5 * u0
(1e-3 * u0 at lambda = 0) -- reached well before noise can -- and continues
the tail with the exact decay law of the first integral.  Trajectories that instead cross zero or
turn around (u' = 0, which precedes any growth: the vertex slope is
negative) are classified as non-decaying.  The shooter steps SciPy's
DOP853 under solve_ivp on Python floats (:class:`_TwoFloatDOP853`: SciPy's
tableau, initial step and step-size rules, the same steps and
right-hand-side count; the state stays in floats between steps and the
events read floats), and reads the dense output once, at the grid nodes
up to the capture point and the drift abscissae, with every step evaluated
at once, one component and one coefficient row at a time
(:func:`_dense_values`).
"""

from __future__ import annotations

import functools
import math
import sys
from dataclasses import dataclass

import numpy as np
from scipy.integrate import DOP853, solve_ivp
from scipy.integrate._ivp.rk import MAX_FACTOR, MIN_FACTOR, SAFETY, Dop853DenseOutput
from scipy.linalg.lapack import dptsv

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
#: Relative energy drop below which a flow step counts as stalled (eight
#: stalled steps in a row end the flow).
STALL_REL = 1e-10


@dataclass(frozen=True)
class GridProfile:
    """Even function sampled at n+1 uniform nodes on [0, L]."""

    L: float
    n: int
    values: np.ndarray

    def __post_init__(self) -> None:
        vals = np.asarray(self.values, dtype=float)
        if vals.shape != (self.n + 1,):
            raise ValueError(f"expected {self.n + 1} nodal values, got {vals.shape}")
        if not np.all(np.isfinite(vals)):
            raise ValueError("profile contains non-finite values")
        object.__setattr__(self, "values", vals)

    @property
    def x(self) -> np.ndarray:
        return np.linspace(0.0, self.L, self.n + 1)

    @property
    def h(self) -> float:
        return self.L / self.n


@dataclass(frozen=True)
class ShootingResult:
    decay_ok: bool
    profile: GridProfile
    outcome: str               # decayed | crossed_zero | rebounded | no_event
    first_integral_drift: float
    capture_x: float | None


def default_domain(lam: float) -> float:
    """Truncation radius: 20 decay lengths for lam > 0, 1e3 for algebraic tails."""
    if lam > 0.0:
        return max(50.0, 20.0 / math.sqrt(lam))
    return 1e3


@functools.cache
def _gauss_legendre() -> tuple:
    """Nodes and weights on [-1, 1] of the 40-point Gauss-Legendre rule and
    of the 20-point rule of its error estimate, formed on first use (leggauss
    solves an eigenproblem, whose first LAPACK call adds about 1 MB to the
    resident set of every process that imports the module)."""
    return np.polynomial.legendre.leggauss(40), np.polynomial.legendre.leggauss(20)


def _gauss_legendre_panels(integrand, ell: float, end: float):
    """(integrals, estimates) over [0, end] of the rows of integrand(x).

    The panels are [0, ell], then panels growing x4 up to end.  Each
    integral is the 40-point Gauss-Legendre rule summed over the panels, and
    its estimate is |I40 - I20| against the 20-point rule on the same
    panels.  integrand is called once, on the nodes of both rules, and
    returns one row per integral.
    """
    cuts = [0.0, min(ell, end)]
    while 0.0 < cuts[-1] < end:   # an ell that underflows to 0 integrates to 0
        cuts.append(min(4.0 * cuts[-1], end))
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
    u and u' evaluated once, at all its nodes.  The first panel is the
    length over which u^2 falls by e at the origin: (p-2) tanh(kappa a) /
    (4 kappa), kappa = (p-2) sqrt(lambda) / 2, and (p-2) a / 4 at zero
    frequency.  The point term is u(0)^q / q.  estimate is the largest
    relative error estimate of the three integrals.
    """
    p, q = point.params.p, point.params.q
    if point.zero_frequency:
        ell = 0.25 * (p - 2.0) * point.a
    else:
        kappa = 0.5 * (p - 2.0) * math.sqrt(point.lam)
        ell = 0.25 * (p - 2.0) * math.tanh(kappa * point.a) / kappa

    def integrand(x):
        u = analytic_profile(point, x)
        return np.array([u * u, profile_derivative(point, x) ** 2, u ** p])

    integrals, estimates = _gauss_legendre_panels(integrand, ell, L)
    usq, dusq, upow = integrals.tolist()
    mass, eb = _breakdown(2.0 * usq, dusq, (2.0 / p) * upow,
                          analytic_profile(point, 0.0) ** q / q)
    return mass, eb, float(np.max(estimates / integrals))


def sample_profile(point: BranchPoint, L: float, n: int) -> GridProfile:
    """Materialize a branch state on a uniform grid (closed-form sampling)."""
    return GridProfile(L, n, analytic_profile(point, np.linspace(0.0, L, n + 1)))


def functional_eval(params: Params, profile: GridProfile):
    """(mass, EnergyBreakdown) of a sampled even profile.

    The discrete functional of :func:`discrete_energy` and
    :func:`discrete_mass`, split into its kinetic, bulk and point terms.
    """
    return _breakdown(*_grid_functional(profile.values, profile.h, params))


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


def _dense_values(ode, x: np.ndarray) -> np.ndarray:
    """ode(x) for the dense output ode of a forward DOP853 solve_ivp run, bit
    for bit, with every step evaluated at once.

    OdeSolution.__call__ sorts x and loops in Python over the steps it
    touches.  Here each point takes the step OdeSolution would take (the
    lower one at a step end point) and the coefficients F, h, t_old and
    y_old of that step's interpolant, and every point runs the interpolant's
    own arithmetic: the nested product of the F rows in r = (x - t_old) / h
    and 1 - r, plus y_old.  The coefficients are held as (component, row,
    step) arrays, so each row of each component is gathered at the points'
    steps by one 1-D take; the arithmetic of each element is the
    interpolant's, so the bits are too.
    """
    steps = ode.interpolants
    seg = np.searchsorted(ode.ts, x, side=ode.side) - 1
    np.clip(seg, 0, len(steps) - 1, out=seg)
    F = np.ascontiguousarray(np.array([s.F for s in steps]).transpose(2, 1, 0))
    y_old = np.ascontiguousarray(np.array([s.y_old for s in steps]).T)
    r = (x - np.array([s.t_old for s in steps]).take(seg)) \
        / np.array([s.h for s in steps]).take(seg)
    factors = (r, 1 - r)
    y = np.zeros((len(F), len(x)))
    for rows, start, yc in zip(F, y_old, y):
        for i, row in enumerate(rows[::-1]):
            yc += row.take(seg)
            yc *= factors[i % 2]
        yc += start.take(seg)
    return y


def _nonzero_rows(matrix) -> tuple:
    """Each row of a tableau matrix as its ((index, coefficient), ...) nonzeros."""
    return tuple(tuple((j, float(a)) for j, a in enumerate(row) if a != 0.0)
                 for row in matrix)


class _TwoFloatDOP853(DOP853):
    """SciPy's DOP853 (Hairer, Norsett & Wanner, Solving ODEs I, II.10) for a
    two-component system, stepped on Python floats.

    The tableau, the initial step and the step-size rules are DOP853's own;
    only the stage sums are formed as float sums over the tableau's nonzero
    coefficients, where SciPy forms numpy products on a 2-vector whose
    overhead is nearly all the cost of a step of so small a system.  The
    sums are added in another order, so values can differ from SciPy's in
    their last bits.  The right-hand side is called as fun(t, (u, v)) and
    returns two floats; nfev counts each call.  The state (u, v), its
    derivative self.f and the atol pair are held as floats; self.y is also
    kept as an array, as solve_ivp and OdeSolution expect, and the dense
    output of a step is SciPy's own Dop853DenseOutput.
    """

    _STAGES = tuple(zip(DOP853.C[1:].tolist(), _nonzero_rows(DOP853.A[1:])))
    _EXTRA = tuple(zip(DOP853.C_EXTRA.tolist(), _nonzero_rows(DOP853.A_EXTRA)))
    _B, _E3, _E5 = _nonzero_rows([DOP853.B, DOP853.E3, DOP853.E5])
    _D = _nonzero_rows(DOP853.D)

    def __init__(self, fun, t0, y0, t_bound, **options):
        super().__init__(fun, t0, y0, t_bound, **options)
        self._rhs = fun
        self._atol = np.broadcast_to(self.atol, 2).tolist()
        self._uv, self.f = tuple(self.y.tolist()), tuple(self.f.tolist())
        self._ku = self._kv = None      # the stages of the last accepted step

    def _step_impl(self):
        t, (u, v), (fu, fv) = self.t, self._uv, self.f
        direction = float(self.direction)
        atol_u, atol_v = self._atol
        rtol, exponent = float(self.rtol), self.error_exponent
        min_step = 10.0 * abs(math.nextafter(t, direction * math.inf) - t)
        h_abs = min(max(float(self.h_abs), min_step), self.max_step)

        step_rejected = False
        while True:
            if h_abs < min_step:
                return False, self.TOO_SMALL_STEP
            t_new = t + h_abs * direction
            if direction * (t_new - self.t_bound) > 0:
                t_new = self.t_bound
            h = t_new - t
            h_abs = abs(h)

            self.nfev += 12
            ku, kv = [fu], [fv]
            _stages(self._rhs, t, u, v, ku, kv, h, self._STAGES)
            bu, bv = _combine(self._B, ku, kv)
            u_new, v_new = u + h * bu, v + h * bv
            fu_new, fv_new = self._rhs(t_new, (u_new, v_new))
            ku.append(fu_new)
            kv.append(fv_new)
            su = atol_u + max(abs(u), abs(u_new)) * rtol
            sv = atol_v + max(abs(v), abs(v_new)) * rtol
            e5u, e5v = _combine(self._E5, ku, kv)
            e3u, e3v = _combine(self._E3, ku, kv)
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

        self.h_previous = h
        self.y_old = self.y
        self.t = t_new
        self._uv, self.f = (u_new, v_new), (fu_new, fv_new)
        self.y = np.array(self._uv)
        self.h_abs = h_abs
        self._ku, self._kv = ku, kv
        return True, None

    def _dense_output_impl(self):
        h, t_old = self.h_previous, self.t_old
        (u, v), (u1, v1) = self.y_old.tolist(), self._uv
        ku, kv = list(self._ku), list(self._kv)
        fu0, fv0 = ku[0], kv[0]         # f at t_old
        fu1, fv1 = self.f               # f at t
        self.nfev += 3
        _stages(self._rhs, t_old, u, v, ku, kv, h, self._EXTRA)
        du, dv = u1 - u, v1 - v
        F = [(du, dv), (h * fu0 - du, h * fv0 - dv),
             (2.0 * du - h * (fu1 + fu0), 2.0 * dv - h * (fv1 + fv0))]
        for row in self._D:
            cu, cv = _combine(row, ku, kv)
            F.append((h * cu, h * cv))
        return Dop853DenseOutput(t_old, self.t, self.y_old, np.array(F))


def _combine(row, ku, kv) -> tuple[float, float]:
    """The sums of a * ku[j] and of a * kv[j] over the nonzeros (j, a) of a
    tableau row."""
    su = sv = 0.0
    for j, a in row:
        su += a * ku[j]
        sv += a * kv[j]
    return su, sv


def _stages(rhs, t, u, v, ku, kv, h, stages):
    """Append to the stage lists ku, kv one stage per (c, row) of stages."""
    for c, row in stages:
        su, sv = _combine(row, ku, kv)
        fu, fv = rhs(t + c * h, (u + su * h, v + sv * h))
        ku.append(fu)
        kv.append(fv)


def shoot(params: Params, lam: float, u0: float, L: float | None = None,
          n: int = 20000) -> ShootingResult:
    """Integrate the vertex initial-value problem outward and classify it.

    The outcome is read once, from the events: decayed (captured in the
    saddle neighbourhood, the tail continued by the decay law), crossed_zero,
    rebounded (u' = 0; the vertex slope is negative, so u can grow only after
    it has turned) or no_event.  A trajectory that does not decay is an
    outcome, not an exception.  decay_ok holds only for a decayed shot that
    stays positive and whose tail meets the far-end gate u(L) + |u'(L)| <=
    1e-7 * u0.  No other outcome could meet it: a no_event shot ends with
    u > 0, u' < 0 and u - u'/s > cap_tol * u0 (s = max(sqrt(lambda), 1) >= 1,
    cap_tol = 1e-5, or 1e-3 at lambda = 0), as no event fired, so
    |u| + |u'| > 1e-5 * u0 there.
    """
    if not u0 > 0.0:
        raise ValueError(f"need a positive vertex height, got {u0}")
    if lam < 0.0:
        raise ValueError("shooting is defined for lambda >= 0")
    if L is None:
        L = default_domain(lam)
    p, q = params.p, params.q

    def rhs(x, y):
        return (y[1], lam * y[0] + abs(y[0]) ** (p - 2.0) * y[0])

    slope_scale = max(math.sqrt(lam), 1.0)
    cap_tol = CAPTURE_TOL if lam > 0.0 else CAPTURE_TOL_ZERO

    def ev_capture(x, y):
        u, v = y.tolist()
        return u - v / slope_scale - cap_tol * u0

    def ev_cross(x, y):
        return y.item(0)

    def ev_rebound(x, y):
        return y.item(1)

    ev_capture.terminal, ev_capture.direction = True, -1.0
    ev_cross.terminal, ev_cross.direction = True, -1.0
    ev_rebound.terminal, ev_rebound.direction = True, 1.0

    # y0 is an array, as every later y the events read
    sol = solve_ivp(rhs, (0.0, L), np.array([u0, -0.5 * u0 ** (q - 1.0)]),
                    method=_TwoFloatDOP853, rtol=SHOOT_RTOL,
                    atol=[1e-14 * u0, 1e-14 * u0 * slope_scale],
                    events=[ev_capture, ev_cross, ev_rebound],
                    dense_output=True)

    captured = len(sol.t_events[0]) > 0
    crossed = len(sol.t_events[1]) > 0
    rebounded = len(sol.t_events[2]) > 0
    x_end = sol.t[-1]

    # one dense evaluation: the grid nodes up to x_end, then the 512 drift
    # abscissae, the last of which is x_end itself
    x = np.linspace(0.0, L, n + 1)
    k = int(np.searchsorted(x, x_end, side="right"))   # nodes with x <= x_end
    y = _dense_values(sol.sol, np.concatenate([x[:k], np.linspace(0.0, x_end, 512)]))
    uu, dd = y[:, k:]
    u_end, du_end = float(uu[-1]), float(dd[-1])
    if (crossed or rebounded) and not captured:
        # a turn or zero crossing with the whole state inside the saddle
        # neighbourhood means the trajectory tracked the connection until
        # integration noise took over: classify as captured there
        if abs(u_end) <= 10.0 * cap_tol * u0 \
                and abs(du_end) <= 10.0 * cap_tol * u0 * slope_scale:
            captured, crossed, rebounded = True, False, False

    vals = np.empty(n + 1)
    vals[:k] = y[0, :k]
    if captured:
        vals[k:] = _tail_value(params, lam, u_end, x[k:] - x_end)
        capture_x, outcome = x_end, "decayed"
    else:
        vals[k:] = 0.0
        capture_x = None
        outcome = "crossed_zero" if crossed else "rebounded" if rebounded else "no_event"

    # first-integral drift along the numeric part of the trajectory
    H = dd ** 2 - lam * uu ** 2 - (2.0 / p) * np.abs(uu) ** p
    scale = lam * u0 ** 2 + (2.0 / p) * u0 ** p
    drift = float(np.max(np.abs(H - H[0]))) / scale

    stayed_positive = outcome in ("decayed", "no_event") and bool(np.all(vals >= 0.0))
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


def shooting_sup_distance(point: BranchPoint, result: ShootingResult) -> float:
    """sup_x |numeric profile - closed-form profile| on the shooter's grid."""
    exact = np.asarray(analytic_profile(point, result.profile.x), dtype=float)
    return float(np.max(np.abs(result.profile.values - exact)))


# ---------------------------------------------------------------------------
# discrete functional and normalized gradient flow


def _grid_functional(u: np.ndarray, h: float, params: Params | None = None):
    """(mass, kinetic, bulk, point) of the piecewise-linear even extension of
    the nodal values u.

    The kinetic term is exact for the piecewise-linear interpolant (the factor
    2 for evenness cancels the 1/2 of the functional), sum(diff(u)^2) / h;
    the mass and bulk terms are the trapezoidal rule, h (sum of v - (v_0 +
    v_n) / 2) for v = u^2 and |u|^p.  Without params only the mass is formed
    and the energy terms are None.

    The nodes with |u| < tiny^(1/p) (tiny the smallest normal double) are set
    to 0 and raised to the power p in one unmasked call: such a node adds
    0^p = 0 in place of a power of at most about tiny, which pow reaches
    only on its slow underflow path.  Every other node adds its plain power.
    """
    u0, un = u[0], u[-1]
    mass = 2.0 * h * (float(np.dot(u, u)) - 0.5 * float(u0 ** 2 + un ** 2))
    if params is None:
        return mass, None, None, None
    p, q = params.p, params.q
    d = u[1:] - u[:-1]
    diff2 = float(np.add.reduce(np.multiply(d, d, out=d)))
    mag = np.abs(u)
    mag[mag < sys.float_info.min ** (1.0 / p)] = 0.0
    vsum = float(np.add.reduce(np.power(mag, p, out=mag))) \
        - 0.5 * float(abs(u0) ** p + abs(un) ** p)
    return mass, diff2 / h, (2.0 / p) * h * vsum, abs(u0) ** q / q


def discrete_energy(params: Params, u: np.ndarray, h: float) -> float:
    """Energy of the piecewise-linear even extension of nodal values u."""
    _, kinetic, bulk, point = _grid_functional(u, h, params)
    return kinetic + bulk - point


def discrete_mass(u: np.ndarray, h: float) -> float:
    """Mass of the even extension of nodal values u by the trapezoidal rule."""
    return _grid_functional(u, h)[0]


def make_initial_profile(mu: float, L: float, n: int,
                         width: float = 2.0) -> GridProfile:
    """Mass-mu bump exp(-(x/width)^2) on the grid (generic flow seed)."""
    x = np.linspace(0.0, L, n + 1)
    u = np.exp(-((x / width) ** 2))
    u *= math.sqrt(mu / discrete_mass(u, L / n))
    return GridProfile(L, n, u)


def constrained_minimize(params: Params, mu: float, profile0: GridProfile,
                         max_iters: int = 200000):
    """Backward-Euler normalized gradient flow at fixed discrete mass.

    Each step solves the semi-implicit system (Bao & Du, SIAM J. Sci. Comput.
    25, 2004)

        (2W + tau (K + 2W |u^n|^(p-2))) u* = 2W u^n + tau e0 |u0^n|^(q-2) u0^n

    with W the trapezoid weights and K the kinetic stiffness of
    :func:`discrete_energy`: one symmetric tridiagonal solve, with the bulk
    coefficient lagged at u^n and the point term explicit in the origin row.
    The matrix is then symmetric positive definite for every tau, and it is
    solved as such, by LDL^T without pivoting (LAPACK dptsv); 2W, the lagged
    diagonal K + 2W |u^n|^(p-2) and 2W u^n are formed once per step.  With the
    point term moved into it, its ground-state direction has eigenvalue about
    2W(1 - tau lambda), so past tau = 1/lambda the solve flips the sign of
    the profile (the flow lands on -u at the same energy).

    u* is renormalized back to the mass sphere and accepted only if the energy
    does not increase, with halving on increase and mild growth on success.
    Returns (final profile, energy trace).  The flow stops once the energy
    falls below FLOW_DIVERGENCE_FLOOR: the level is then unbounded below, or
    the flow has diverged, which a check against a finite level reports.
    """
    p, q = params.p, params.q
    h = profile0.h
    u = profile0.values.copy()
    u *= math.sqrt(mu / discrete_mass(u, h))
    two_w = np.full(len(u), 2.0 * h)
    two_w[0] = two_w[-1] = h
    stiff = np.full(len(u), 4.0 / h)
    stiff[0] = stiff[-1] = 2.0 / h

    energy = discrete_energy(params, u, h)
    trace = [energy]
    tau = 1e-3 * h * h
    stall_count = 0
    for _ in range(max_iters):
        diag = np.abs(u)
        diag **= p - 2.0
        diag *= two_w
        diag += stiff
        point = np.abs(u[0]) ** (q - 2.0) * u[0]
        two_w_u = two_w * u
        accepted = False
        for _ in range(60):
            off = np.full(len(u) - 1, -2.0 * tau / h)
            rhs = two_w_u.copy()
            rhs[0] += tau * point
            *_, trial, info = dptsv(two_w + tau * diag, off, rhs,
                                    overwrite_d=1, overwrite_e=1, overwrite_b=1)
            if info != 0:
                raise np.linalg.LinAlgError(f"tridiagonal solve failed (dptsv info={info})")
            trial *= math.sqrt(mu / discrete_mass(trial, h))
            e_trial = discrete_energy(params, trial, h)
            if e_trial <= energy:
                accepted = True
                break
            tau *= 0.5
        if not accepted:
            break
        u = trial
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
