import math

import pytest

from deltanls import massmap, stationary
from deltanls.params import Params

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
        assert stationary.vertex_residual(pt) <= 1e-8 * pt.u0 ** (q - 1.0)
        assert stationary.matching_residual(pt) <= 1e-8 * pt.u0 ** (q - 2.0)
