import json
import math

import mpmath
import numpy as np
import pytest

from deltanls import algebra, cli, energy, massmap, stationary
from deltanls.params import MassInterval, Params, expected_solution_regime

# (p, q, query, value, offsets t - 1 of the states): states near the ends of
# double range.  The offsets come from a separate log-space reference
# (QUADPACK's algebraic-weight rule for I(t), Brent's method on log mu).
CASES = [
    # the small state lies far below t - 1 = e^-33
    (15.9215, 2.4622, "lambda", 1e-3, (4.841122836897069e-35, 15.200941439086124)),
    # f(t) = t (t^2 - 1)^(-111) is out of double range near t = 1
    (2.0737, 10.2123, "lambda", 0.3, (1.0587410845239702,)),
    # region E below mu0, where I(t) = 2.5e-9 needs a relative tolerance
    (2.286, 5.085, "mass", 1.0, (0.042219063197403164,)),
    # (t^2 - 1)^(1/(p-2)) underflows in u0
    (14.3567, 3.9728, "mass", 0.3, (4.6384471235906966e-256,)),
    (14.3567, 3.9728, "mass", 0.5, (1.8578914111052293e-187,)),
    # ln(t + 1) - ln(t - 1) cancels in the offset a at large t
    (6.0, 3.0, "mass", 40.0, (5352682033.111136,)),
    (6.0, 5.0, "mass", 40.0, (5352682033.111136,)),
    (5.8867, 2.1209, "mass", 40.0, (8678064593507768.0,)),
]


@pytest.mark.parametrize("p,q,query,value,offsets", CASES)
def test_states_near_the_ends_of_double_range(p, q, query, value, offsets):
    params = Params(p, q)
    if query == "lambda":
        points = stationary.solve_for_lambda(params, value).points
        rel = 1e-8
    else:
        # returns only states that pass the profile-mass gate
        points = [s.point for s in massmap.normalized_solutions(params, value)]
        rel = 1e-6
    assert [pt.d for pt in points] == pytest.approx(list(offsets), rel=rel, abs=0.0)
    for pt in points:
        assert pt.u0 > 0.0
        # the offset a inverts t = coth((p-2) sqrt(lambda) a / 2)
        kappa_a = 0.5 * (p - 2.0) * math.sqrt(pt.lam) * pt.a
        assert 1.0 / math.tanh(kappa_a) == pytest.approx(pt.t, rel=1e-12)
        assert stationary.vertex_residual(pt) <= 1e-8


# (p, q) in regions F and C; the mass map of (2.3648, 3.0216) has no dip
# (it falls to mu0 all along), and (6.0608, 4.0021) lies next to the
# corner (6, 4)
@pytest.mark.parametrize("p,q", [(4.0, 3.5), (8.0, 4.5), (2.3648, 3.0216),
                                 (6.0608, 4.0021)])
def test_lowest_energy_changes_sign_at_the_zero_level_mass(p, q):
    params = Params(p, q)
    mt = energy.zero_level_mass(params)
    below = min(s.energy for s in massmap.normalized_solutions(params, mt * (1.0 - 1e-6)))
    above = min(s.energy for s in massmap.normalized_solutions(params, mt * (1.0 + 1e-6)))
    assert below > 0.0 > above


def test_branch_energy_near_t_one_with_large_lambda():
    # (p lambda / 2)^(q/(p-2)) overflows here although u0^q / q is finite
    sols = massmap.normalized_solutions(Params(2.524, 3.918), 40.0)
    assert len(sols) == 1
    assert math.isfinite(sols[0].energy)


def test_profile_far_out_on_the_branch():
    # t - 1 = 9e16: exp(-2 z) underflows for every z of the profile
    pt = stationary.solve_for_lambda(Params(3.0, 5.0), 1e-34).points[0]
    assert pt.d > 1e16
    u = stationary.profile(pt, np.array([0.0, 1.0, 1e20]))
    assert u[0] == pytest.approx(pt.u0, rel=1e-12)
    assert np.all(np.isfinite(u)) and u[2] < u[1] < u[0]
    mu = massmap.mass_of_t(pt.params, d=pt.d)
    assert massmap.profile_mass_quadrature(pt) == pytest.approx(mu, rel=1e-6)


# States of region F and E near p = 2 that the quadrature-based mass map could
# not reach: mu = C_pq f^e I overflowed in f^e although mu was finite, and
# I(t) raised IntegrationWarning (an error under this suite's warning
# filters).  Offsets t - 1 from a 120-digit mpmath root of ln mu(t) = ln mass
# (I(t) by mpmath's incomplete beta function).
MASS_MAP_RANGE_CASES = [
    (2.524, 3.918, 60.0, 3.4568687383783797e-60),
    (2.524, 3.918, 100.0, 3.7858010094626196e-69),
    (2.0509, 4.4034, 0.3, 3.7723444346597683e-10),
    (2.0851, 3.931, 40.0, 1.1683367067413835e-71),
]


@pytest.mark.parametrize("p,q,mass,offset", MASS_MAP_RANGE_CASES)
def test_mass_map_near_p_two_stays_in_range(p, q, mass, offset):
    sols = massmap.normalized_solutions(Params(p, q), mass)  # gated to 1e-6
    assert [s.point.d for s in sols] == pytest.approx([offset], rel=1e-12, abs=0.0)
    assert math.isfinite(sols[0].energy)


@pytest.mark.parametrize("p,q", [(2.933, 2.97), (2.495, 2.446), (2.4111, 2.6176),
                                 (2.2533, 2.1539), (2.3110, 2.1885), (2.4260, 2.6092)])
def test_threshold_without_a_dip_is_mu0(p, q):
    # these pairs of region F have no dip: the mass map falls to mu0 from
    # above all along (a rounding-level "minimum" used to be reported, above
    # mu0 or as an overflow of the h walk)
    thr = massmap.mass_threshold(Params(p, q))
    y, _, depth = massmap.branch_minimum(Params(p, q))
    assert thr.mu_threshold == algebra.mu0(Params(p, q))
    assert depth == 0.0 and math.isinf(y)
    assert thr.provenance == "limit; no dip below mu0"


@pytest.mark.parametrize("y,deficit", [(15.0, -1.4959756770664117e-13),
                                       (31.0, -1.8945295222597709e-27),
                                       (60.0, -1.2258051082592423e-52),
                                       (120.0, -9.3990421771025663e-105),
                                       (300.0, -4.2371136525157688e-261)])
def test_deficit_far_below_double_resolution(y, deficit):
    # (mu0 - mu)/mu0 at (2.4260, 2.6092), from 900-digit mpmath: negative at
    # every offset, so mu stays above mu0, by far less than one ulp of mu0
    got = algebra.mass_deficit(Params(2.4260, 2.6092), math.exp(y))
    assert got == pytest.approx(deficit, rel=1e-10, abs=0.0)


def test_dip_below_double_resolution_is_reported():
    # q = 3 + 1e-6 lies just inside the band of F where the mass map dips
    # below mu0; the depth 1e-18 (400-digit mpmath at the minimizer:
    # 9.9999700042683221e-19) is below one ulp of mu0
    thr = massmap.mass_threshold(Params(3.0, 3.000001))
    y, _, depth = massmap.branch_minimum(Params(3.0, 3.000001))
    assert thr.mu_threshold == algebra.mu0(Params(3.0, 3.000001))
    assert depth == pytest.approx(9.9999700042683221e-19, rel=1e-9)
    assert y == pytest.approx(13.8155, abs=1e-3)
    assert thr.provenance == "limit; dip below double resolution"


def test_zero_frequency_state_near_p_two():
    # c_p ~ e^1650 is beyond double range here while the state is not; its
    # offset and peak from the vertex condition in 50-digit mpmath
    params = Params(2.007209414427276, 3.5888045792720167)
    sols = massmap.normalized_solutions(params, algebra.mu0(params))
    assert [s.point.zero_frequency for s in sols] == [True]
    assert sols[0].point.a == pytest.approx(277.47802253024197, rel=1e-12)
    assert sols[0].point.u0 == pytest.approx(1.5467048265232274, rel=1e-12)
    assert math.isfinite(sols[0].energy)


@pytest.mark.parametrize("p,q", [(2.0002, 2.05), (2.0004821378491826, 2.188884780621504)])
def test_classify_next_to_p_two(capsys, p, q):
    # p - 2 < 1e-3, region F: the factor (1 - 1/t^2)^(-2/(p-2)) of h and of
    # the mass deficit left the double range on its own (an OverflowError
    # traceback from classify and from zero_level_mass)
    code = cli.main(["classify", "--p", repr(p), "--q", repr(q), "--format", "json"])
    captured = capsys.readouterr()
    assert code == 0 and captured.err == ""
    th = json.loads(captured.out)["thresholds"]
    assert th["mu_tilde"] == energy.zero_level_mass(Params(p, q))
    assert th["mu_threshold"] <= th["mu_tilde"] < math.inf


# Next to the diagonal q = p/2 + 1 the exponents over 2q - p - 2 are large:
# C_pq, mu0, the t -> 1 prefactor, lambda_bar and the thresholds can lie
# beyond the double range while the call itself has a finite answer.


def test_mass_beyond_double_range_matches_no_state():
    # region F: the threshold (here mu0 = 2^(6.2e7)) is beyond the double
    # range and reads inf; no finite mass reaches it, so there is no state
    # (a mass used to be matched against mu0 = inf and refused)
    params = Params(2.085361033440751, 2.0426805472233367)
    assert math.isinf(massmap.mass_threshold(params).mu_threshold)
    assert massmap.normalized_solutions(params, 0.3) == []
    # the branch minimum, at ln mu = 2974, is beyond it too
    params = Params(4.546140650772335, 3.2731394255368302)
    assert math.isinf(massmap.mass_threshold(params).mu_threshold)
    assert massmap.normalized_solutions(params, 0.3) == []


def test_zero_frequency_state_beyond_double_range_is_refused():
    # its offset a = e^-940626 is below the double range
    params = Params(2.085361033440751, 2.0426805472233367)
    with pytest.raises(RuntimeError, match="state outside double range: ln\\(a\\)"):
        stationary.zero_frequency_point(params)
    with pytest.raises(RuntimeError, match="state outside double range"):
        energy.zero_level_mass(params)


def test_energy_beyond_double_range_is_refused():
    # region F next to the diagonal: the threshold is 8.99e89, and the state
    # at 1.5 times it has u0 = 2.2e119, so u0^q overflows
    params = Params(4.4987, 3.2504)
    mu = 1.5 * massmap.mass_threshold(params).mu_threshold
    with pytest.raises(RuntimeError, match="state outside double range: its energy"):
        massmap.normalized_solutions(params, mu)
    with pytest.raises(RuntimeError, match="state outside double range: its energy"):
        energy.zero_level_mass(params)


def test_diagonal_mass_beyond_double_range_is_refused(capsys):
    # the diagonal state has ln lambda = -5.2 (ln mu - ln M_pq): lambda = e^2399
    # at mass 1e-200 (once an OverflowError) and e^-2390 at mass 1e200 (once
    # an underflow to 0, reported as bad input)
    params = Params(8.5, 5.25)
    (sol,) = massmap.normalized_solutions(params, 1.0)
    assert sol.point.lam == pytest.approx(79.3556483195265, rel=1e-14)
    for mu in ("1e-200", "1e200"):
        with pytest.raises(stationary.StateOutOfRange, match="ln\\(lambda\\)"):
            massmap.normalized_solutions(params, float(mu))
        assert cli.main(["solve", "--p", "8.5", "--q", "5.25", "--mass", mu]) == 4
        assert "state outside double range" in capsys.readouterr().err


# states next to p = 2 whose u^2 falls by e within (p - 2)/4 of the origin in
# z = kappa x: the profile-mass gate must resolve that peak.  The last column
# is the mass of u^2, from 40-digit mpmath for the first state.
NEAR_P_TWO_GATE_CASES = [
    (2.000124869650554, 12.549183521447292, 1e-8, 9.99999999835e-9),
    (2.0001256655301716, 10.365862784002701, 1e-8, 1e-8),
    (2.0001256655301716, 10.365862784002701, 1e-3, 1e-3),
    (2.0001256655301716, 10.365862784002701, 0.3, 0.3),
    (2.0001751071279203, 3.638273970703782, 2.5, 2.5),
    (2.000120795123391, 3.1964696418337035, 40.0, 40.0),
]


@pytest.mark.parametrize("p,q,mass,want", NEAR_P_TWO_GATE_CASES)
def test_gate_resolves_the_peak_next_to_p_two(p, q, mass, want):
    sols = massmap.normalized_solutions(Params(p, q), mass)   # gated
    assert len(sols) == 1
    assert massmap.profile_mass_quadrature(sols[0].point) == pytest.approx(want, rel=1e-9)


def test_gate_resolves_the_peak_for_a_small_offset():
    # eps = kappa a = 9e-14 here, and u^2 falls by e within (p - 2) eps / 4 in
    # z: a first panel [0, eps] holds the whole peak, and QUADPACK misses it
    point = stationary.state_at_logd(Params(2.0002, 7.0), 30.0)
    assert massmap.profile_mass_quadrature(point) == pytest.approx(
        massmap.state_mass(point), rel=1e-10)


def test_gate_stops_at_the_first_empty_panel(monkeypatch):
    # t - 1 = e^300: u^2 underflows past the first few panels, and the other
    # ~220 panels out to z_max = 40 integrate to exactly 0
    point = stationary.state_at_logd(Params(2.0002, 7.0), 300.0)
    calls = []
    real = massmap.quad
    monkeypatch.setattr(massmap, "quad", lambda *a, **k: calls.append(a) or real(*a, **k))
    got = massmap.profile_mass_quadrature(point)
    assert len(calls) <= 10
    assert got == pytest.approx(massmap.state_mass(point), rel=1e-9)


def _stored_state_mass(point: stationary.BranchPoint) -> float:
    """2 int_0^inf u(x)^2 dx of the stored doubles (p, lambda, a), in 40-digit
    mpmath: panels [0, ell], then growing x4, until one adds below 1e-45 of
    the sum (ell the e-folding length of u^2 at the origin, in x)."""
    with mpmath.workdps(40):
        p, lam, a = (mpmath.mpf(v) for v in (point.params.p, point.lam, point.a))
        kappa = (p - 2) * mpmath.sqrt(lam) / 2
        amp = (p * lam / 2) ** (2 / (p - 2))
        u2 = lambda x: amp * mpmath.sinh(kappa * (x + a)) ** (-4 / (p - 2))
        lo, hi = mpmath.mpf(0), (p - 2) * mpmath.tanh(kappa * a) / (4 * kappa)
        total = part = mpmath.quad(u2, [lo, hi])
        while part >= mpmath.mpf("1e-45") * total:
            lo, hi = hi, 4 * hi
            part = mpmath.quad(u2, [lo, hi])
            total += part
        return float(2 * total)


@pytest.mark.parametrize("y", [30.0, 300.0])
def test_gate_measures_the_stored_state(y):
    # the gate and state_mass differ by 6e-10 at y = 300: the gate integrates
    # the profile of the stored doubles, state_mass is the mass of the exact
    # state at t = 1 + e^y.  The mass goes like lambda^(2/(p-2)) at fixed t,
    # and lambda = exp(ln lambda), so the stored state's mass is off from the
    # exact one by about (2/(p-2)) ulp(ln lambda): 7.1e-11 at y = 30, 1.1e-9
    # at y = 300
    point = stationary.state_at_logd(Params(2.0002, 7.0), y)
    stored = _stored_state_mass(point)
    assert massmap.profile_mass_quadrature(point) == pytest.approx(stored, rel=1e-11)
    conditioning = 2.0 / (point.params.p - 2.0) * math.ulp(math.log(point.lam))
    assert massmap.state_mass(point) == pytest.approx(stored, rel=conditioning)


def _near_diagonal_pairs(n: int, seed: int) -> list[Params]:
    """p ~ U(2.05, 16), q = p/2 + 1 +- 10^U(-8, -2)."""
    rng = np.random.default_rng(seed)
    pairs = []
    for _ in range(n):
        p = float(rng.uniform(2.05, 16.0))
        gap = 10.0 ** float(rng.uniform(-8.0, -2.0))
        pairs.append(Params(p, p / 2.0 + 1.0 + (gap if rng.random() < 0.5 else -gap)))
    return pairs


def _answer_or_refusal(fn, *args):
    """fn(*args), or None where it refuses a state outside double range;
    any other exception fails the test."""
    try:
        return fn(*args)
    except stationary.StateOutOfRange as exc:
        assert str(exc).startswith("state outside double range"), exc
        return None


def _expected_count(params: Params, thr: massmap.ThresholdReport, mu: float) -> int | None:
    """State count at mass mu from the existence rule and its threshold
    (None within 1e-6 of a threshold, where rounding decides)."""
    interval = expected_solution_regime(params).interval
    mu0 = algebra.mu0(params)
    if interval is MassInterval.ALL:
        return 1
    ends = [m for m in (thr.mu_threshold, mu0) if m is not None]
    if any(abs(mu - m) <= 1e-6 * m for m in ends if math.isfinite(m)):
        return None
    if interval is MassInterval.UPTO_THRESHOLD:
        return int(mu < thr.mu_threshold)
    assert interval is MassInterval.FROM_THRESHOLD
    if mu < thr.mu_threshold:
        return 0
    # C: both pieces rise to inf; F: the rising piece stops at mu0
    return 2 if mu0 is None or mu < mu0 else 1


def test_near_diagonal_sweep_ends_in_answers_or_refusals(capsys):
    for params in _near_diagonal_pairs(100, 2026):
        below = params.q < params.p / 2.0 + 1.0
        lb = _answer_or_refusal(stationary.lambda_bar, params)
        assert (lb is None) != below
        thr = _answer_or_refusal(massmap.mass_threshold, params)
        tilde = _answer_or_refusal(energy.zero_level_mass, params)
        if thr is not None and tilde is not None:
            assert tilde >= thr.mu_threshold * (1.0 - 1e-12)
        # classify reports a refused mu_tilde as null and answers the rest
        code = cli.main(["classify", "--p", repr(params.p), "--q", repr(params.q),
                         "--format", "json"])
        assert code == 0, (params, capsys.readouterr().err)
        assert json.loads(capsys.readouterr().out)["thresholds"]["mu_tilde"] == tilde
        for mu in (0.3, 2.5, 40.0):
            sols = _answer_or_refusal(massmap.normalized_solutions, params, mu)
            want = _expected_count(params, thr, mu) if thr is not None else None
            if sols is not None and want is not None:
                assert len(sols) == want, (params, mu)
        for lam in (1e-3, 1.0):
            states = _answer_or_refusal(stationary.solve_for_lambda, params, lam)
            if states is None or (lb is not None and abs(lam - lb) <= 1e-6 * lam):
                continue
            assert states.count == (1 if not below else 2 if lam < lb else 0), (params, lam)


def _sweep_masses(params: Params) -> None:
    """Gated states with the count of the rule plus the threshold and vertex
    residuals <= 1e-8, or a refusal, at masses 1e-8 to 1e8, and a threshold
    at most mu0; a GateFailure fails the test."""
    thr = _answer_or_refusal(massmap.mass_threshold, params)
    mu0 = algebra.mu0(params)
    if thr is not None and None not in (thr.mu_threshold, mu0):
        assert thr.mu_threshold <= mu0, params
    for mu in (1e-8, 1e-3, 0.3, 2.5, 40.0, 1e4, 1e8):
        sols = _answer_or_refusal(massmap.normalized_solutions, params, mu)
        if sols is None:
            continue
        assert all(stationary.vertex_residual(s.point) <= 1e-8 for s in sols)
        want = _expected_count(params, thr, mu) if thr is not None else None
        if want is not None:
            assert len(sols) == want, (params, mu)


def test_near_p_two_sweep_ends_in_gated_states_or_refusals():
    # p - 2 = 10^U(-4, -0.5), q ~ U(2.05, 12)
    rng = np.random.default_rng(2026)
    for _ in range(50):
        _sweep_masses(Params(2.0 + 10.0 ** float(rng.uniform(-4.0, -0.5)),
                             float(rng.uniform(2.05, 12.0))))


def _edge_pairs(n: int, seed: int) -> list[Params]:
    """Cycle through three edges of the quadrant: q - 2 = 10^U(-4, -0.5) with
    p ~ U(2.05, 16); p ~ U(2.05, 216) with q ~ U(2.05, 102); and
    |q - 4| = 10^U(-9, -1) with p ~ U(2.05, 16)."""
    rng = np.random.default_rng(seed)
    pairs = []
    for i in range(n):
        if i % 3 == 0:
            p, q = float(rng.uniform(2.05, 16.0)), 2.0 + 10.0 ** float(rng.uniform(-4.0, -0.5))
        elif i % 3 == 1:
            p, q = float(rng.uniform(2.05, 216.0)), float(rng.uniform(2.05, 102.0))
        else:
            gap = 10.0 ** float(rng.uniform(-9.0, -1.0))
            p, q = float(rng.uniform(2.05, 16.0)), 4.0 + (gap if rng.random() < 0.5 else -gap)
        pairs.append(Params(p, q))
    return pairs


def _sweep_frequencies(params: Params) -> None:
    """The states at frequencies 1e-12 to 1e6 with the count of the fold rule
    (two below lambda_bar, none past it, one where there is no fold) and
    vertex residuals <= 1e-8, or a refusal."""
    below = params.q < params.p / 2.0 + 1.0
    lb = _answer_or_refusal(stationary.lambda_bar, params)
    for lam in (1e-12, 1e-6, 1e-3, 1.0, 1e3, 1e6):
        states = _answer_or_refusal(stationary.solve_for_lambda, params, lam)
        if states is None:
            continue
        assert all(stationary.vertex_residual(pt) <= 1e-8 for pt in states.points)
        if below and (lb is None or abs(lam - lb) <= 1e-6 * lam):
            continue
        assert states.count == (1 if not below else 2 if lam < lb else 0), (params, lam)


def test_edge_sweep_ends_in_gated_states_or_refusals():
    # the near-p = 2 edge runs in the sweep above
    for params in _edge_pairs(60, 2026):
        _answer_or_refusal(energy.zero_level_mass, params)
        _sweep_masses(params)
        _sweep_frequencies(params)


def test_uniform_sweep_ends_in_gated_states_or_refusals():
    # (p, q) uniform on (2, 16] x (2, 12]
    rng = np.random.default_rng(2026)
    for _ in range(60):
        params = Params(16.0 - float(rng.uniform(0.0, 14.0)),
                        12.0 - float(rng.uniform(0.0, 10.0)))
        _answer_or_refusal(energy.zero_level_mass, params)
        _sweep_masses(params)
        _sweep_frequencies(params)


@pytest.mark.parametrize("call, message", [
    (lambda: Params(math.inf, 3.0), "need finite p and q"),
    (lambda: Params(4.0, math.inf), "need finite p and q"),
    (lambda: stationary.solve_for_lambda(Params(4.0, 2.5), math.nan), "need a finite lambda"),
    (lambda: stationary.solve_for_lambda(Params(4.0, 2.5), math.inf), "need a finite lambda"),
    (lambda: massmap.normalized_solutions(Params(8.0, 3.0), math.inf), "need a finite mu"),
    (lambda: energy.groundstate_energy(Params(4.0, 2.5), math.inf), "need a finite mu"),
    (lambda: energy.groundstate_energy(Params(4.0, 2.5), math.nan), "need a finite mu"),
], ids=["p-inf", "q-inf", "lambda-nan", "lambda-inf", "mass-inf", "level-inf", "level-nan"])
def test_non_finite_inputs_are_invalid(call, message):
    # an infinite p once gave a nan branch offset, an infinite q mu0 = inf, a
    # nan frequency "state outside double range", an infinite mass "no states"
    with pytest.raises(ValueError, match=message):
        call()


def _mp_point_at_frequency(p: float, q: float, lam: float) -> mpmath.mpf:
    """u0^q / q of the state at frequency lam (q > p/2 + 1: one state), from
    40-digit mpmath: t is the root of the vertex condition
    ((p lam/2)(t^2 - 1))^((q-2)/(p-2)) = 2 sqrt(lam) t, and u0 the peak."""
    with mpmath.workdps(40):
        p, q, lam = (mpmath.mpf(v) for v in (p, q, lam))
        gap = lambda t: ((q - 2) / (p - 2) * mpmath.log(p * lam / 2 * (t * t - 1))
                         - mpmath.log(2 * mpmath.sqrt(lam) * t))
        t = mpmath.findroot(gap, (mpmath.sqrt(1 + 2 / (p * lam)) * (1 + mpmath.mpf("1e-3")),
                                  mpmath.sqrt(1 + 2 / (p * lam))), solver="anderson")
        u0 = (p * lam / 2 * (t * t - 1)) ** (1 / (p - 2))
        return u0 ** q / q


def _mp_zero_frequency_point(p: float, q: float) -> mpmath.mpf:
    """u0^q / q of the lambda = 0 state from 40-digit mpmath: its offset a
    from a^((2q-p-2)/(p-2)) = (p-2) c_p^(q-2) / 4, its peak u0 = c_p a^(-2/(p-2))."""
    with mpmath.workdps(40):
        p, q = mpmath.mpf(p), mpmath.mpf(q)
        c_p = (mpmath.sqrt(2 * p) / (p - 2)) ** (2 / (p - 2))
        a = ((p - 2) * c_p ** (q - 2) / 4) ** ((p - 2) / (2 * q - p - 2))
        return (c_p * a ** (-2 / (p - 2))) ** q / q


@pytest.mark.parametrize("q", [1e12, 1e15, 1e20])
def test_point_term_at_large_q_agrees_with_mpmath(q):
    # the point term was u0^q/q of the stored u0, which rounds to 1 past
    # q = 1e15: at q = 1e12 it was off by 1.4e-4 (frequency 0.1), 2e-4 (mass
    # 1) and 8e-5 (zero frequency), and at q = 1e20 it read 1/q (mass 1) or 0
    point = stationary.solve_for_lambda(Params(4.0, q), 0.1).points[0]
    want = _mp_point_at_frequency(4.0, q, 0.1)
    assert abs(stationary.branch_energy(point).point / want - 1) <= 1e-12
    zero = stationary.zero_frequency_point(Params(5.0, q))
    want = _mp_zero_frequency_point(5.0, q)
    assert abs(stationary.branch_energy(zero).point / want - 1) <= 1e-12
    # the state at mass 1, against its own vertex condition u0^(q-2) = 2 sqrt(lambda) t
    (state,) = massmap.normalized_solutions(Params(4.0, q), 1.0)
    with mpmath.workdps(40):
        lam, d = mpmath.mpf(state.point.lam), mpmath.mpf(state.point.d)
        want = (2 * mpmath.sqrt(lam) * (1 + d)) ** (q / (mpmath.mpf(q) - 2)) / q
    assert abs(stationary.branch_energy(state.point).point / want - 1) <= 1e-12
