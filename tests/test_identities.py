"""The Nehari and Pohozaev identities of every stationary state.

Multiplying the equation by u, and by x u' away from the vertex, gives

    ||u'||^2 + ||u||_p^p + lambda mu = u(0)^q           (Nehari),
    1/2 ||u'||^2 - 1/p ||u||_p^p - lambda/2 mu = 0       (Pohozaev),

that is 2 kinetic + p bulk + lambda mu = q point and
kinetic - bulk - (lambda/2) mu = 0 in the pieces of ``EnergyBreakdown``.
They are checked by two routes: the closed-form pieces (``branch_energy``,
through ``algebra.energy_j``) against the closed-form mass (``state_mass``,
through ``algebra.log_mass``), two separate code paths; and the Gauss-Legendre
quadrature of the profile (``oracle.profile_functional``), which reads
neither.  Each residual is relative to the largest of its terms.
"""

import numpy as np
import pytest

from deltanls import algebra, massmap, oracle, stationary, verification
from deltanls.params import Params


def residuals(params: Params, lam: float, mass: float, eb) -> tuple[float, float]:
    """(Nehari, Pohozaev) residuals, each relative to its largest term."""
    nehari = (2.0 * eb.kinetic, params.p * eb.bulk, lam * mass, -params.q * eb.point)
    pohozaev = (eb.kinetic, -eb.bulk, -0.5 * lam * mass)
    return tuple(abs(sum(terms)) / max(abs(x) for x in terms) for terms in (nehari, pohozaev))


def test_identities_of_the_closed_form_pieces():
    # p ~ U(2.2, 16), q ~ U(2.1, 12), lambda = 10^U(-3, 2).  ln mu carries
    # e ln f(t), so its rounding grows with the mass map's exponent
    # e = (6-p)/(2q-p-2), large next to the diagonal: the bound is
    # 5e-14 (1 + |e|).  Over five seeds the worst residual was
    # 9.2e-15 (1 + |e|); this seed's is 9.2e-14, at e = 130
    rng = np.random.default_rng(11)
    states = 0
    for _ in range(400):
        params = Params(float(rng.uniform(2.2, 16.0)), float(rng.uniform(2.1, 12.0)))
        lam = 10.0 ** float(rng.uniform(-3.0, 2.0))
        bound = 5e-14 * (1.0 + abs(algebra.mass_exponents(params).e))
        for pt in stationary.solve_for_lambda(params, lam).points:
            nehari, pohozaev = residuals(params, lam, massmap.state_mass(pt),
                                         stationary.branch_energy(pt))
            assert nehari <= bound and pohozaev <= bound, (params, lam, pt.t)
            states += 1
    assert states >= 300


@pytest.mark.parametrize("tag,point", verification._oracle_points(),
                         ids=lambda v: v if isinstance(v, str) else f"lambda={v.lam:.6g},t={v.t:.6g}")
def test_identities_of_the_profile_quadrature(tag, point):
    # the estimates of the three integrals are below 1.4e-14; the worst
    # residuals were 3.7e-15 (Nehari) and 8.4e-16 (Pohozaev)
    mass, eb, estimate = oracle.profile_functional(
        point, verification._quadrature_domain(point))
    assert estimate <= 1e-13
    nehari, pohozaev = residuals(point.params, point.lam, mass, eb)
    assert nehari <= 1e-13 and pohozaev <= 1e-13
