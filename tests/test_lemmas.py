"""The lemma checkers of tests/lemmas.py against independent references."""

import math
import random

import mpmath

import lemmas


def test_osc_integral_within_quad_error_of_incomplete_gamma():
    # int_nu^mu t^-p cos t dt = Re(i^(1-p) (Gamma(1-p, -i nu) - Gamma(1-p, -i mu))),
    # so quad_error, plus the rounding of the sum itself, must cover the gap
    rng = random.Random(3011)
    for k in range(300):
        p = rng.uniform(0.01, 0.99)
        nu = rng.uniform(0.05, 10.0)
        mu = math.inf if k % 10 == 0 else nu + 10 ** rng.uniform(-1.0, 2.0)
        res = lemmas.osc_integral(p, nu, mu)
        with mpmath.workdps(30):
            s = 1 - mpmath.mpf(p)
            upper = mpmath.inf if math.isinf(mu) else -1j * mpmath.mpf(mu)
            exact = mpmath.re(1j ** s * mpmath.gammainc(s, -1j * mpmath.mpf(nu), upper))
        gap = abs(res.value - float(exact))
        assert gap <= res.quad_error + 64 * 2.0 ** -52 * (abs(res.value) + 1.0), (p, nu, mu)
