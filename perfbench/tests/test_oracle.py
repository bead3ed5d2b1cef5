"""The free-lattice closed forms against direct quadrature."""

import math

import pytest

import oracle


@pytest.mark.parametrize("time_scale", [1.0, 3.0])
@pytest.mark.parametrize("n", [0, 2, -3])
def test_probability_matches_abel_time_integral(n, time_scale):
    direct = oracle.free_probability_quadrature(abs(n), time_scale)
    assert math.isclose(oracle.free_probability(n, time_scale), direct,
                        rel_tol=1e-12)


def test_probabilities_sum_to_two_and_give_the_second_moment():
    # P(n; T) decays like exp(-|n|/T): |n| <= 50 T leaves ~1e-18 out
    t = 2.0
    ps = {n: oracle.free_probability(n, t) for n in range(-100, 101)}
    assert math.isclose(sum(ps.values()), 2.0, rel_tol=1e-9)
    m2 = sum(n * n * p for n, p in ps.items())
    assert math.isclose(m2, oracle.free_second_moment(t), rel_tol=1e-8)
