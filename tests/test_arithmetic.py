"""Continued-fraction arithmetic: expansions, growth estimates, ladder
construction.  Expected values were frozen from an independent Euclidean
oracle (plain divmod recursion on exact Fractions)."""

import math
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from qptransport import (
    Frequency,
    beta_estimate,
    construct_liouville_frequency,
    continued_fraction_expansion,
)
from qptransport.errors import DepthLimitError, InputError, InsufficientDataError

GOLDEN = (math.sqrt(5) - 1) / 2


def test_golden_mean_denominators():
    freq = continued_fraction_expansion(GOLDEN, max_terms=6)
    assert freq.denominators == (1, 2, 3, 5, 8, 13)
    assert freq.partial_quotients == (1,) * 6
    assert freq.convergents == ((1, 1), (1, 2), (2, 3), (3, 5), (5, 8), (8, 13))


def test_pi_fractional_part_expansion():
    freq = continued_fraction_expansion(math.pi - 3, max_terms=4)
    assert freq.partial_quotients == (7, 15, 1, 292)
    assert freq.convergents == ((1, 7), (15, 106), (16, 113), (4687, 33102))


def test_rational_terminates():
    freq = continued_fraction_expansion(Fraction(1, 2), max_terms=32)
    assert freq.convergents == ((1, 2),)
    freq = continued_fraction_expansion(Fraction(100, 201), max_terms=32)
    assert freq.convergents == ((1, 2), (100, 201))


@pytest.mark.parametrize("bad", [0.0, 1.0, -0.25, 1.5, Fraction(3, 2)])
def test_out_of_range_rejected(bad):
    with pytest.raises(InputError):
        continued_fraction_expansion(bad)


def test_best_approximation_inequality():
    """|alpha - p_m/q_m| < 1/(q_m q_{m+1}) down the ladder."""
    freq = continued_fraction_expansion(GOLDEN, max_terms=12)
    alpha = freq.value
    qs = freq.denominators
    for m in range(len(qs) - 1):
        p, q = freq.convergents[m]
        assert abs(alpha - Fraction(p, q)) < Fraction(1, qs[m] * qs[m + 1])


@given(st.fractions(min_value=Fraction(1, 10**6), max_value=Fraction(10**6 - 1, 10**6)))
@settings(max_examples=200, deadline=None)
def test_expansion_reconstructs_rational(frac):
    """Terminating expansion of a rational reproduces it exactly."""
    freq = continued_fraction_expansion(frac, max_terms=200)
    p, q = freq.convergents[-1]
    assert Fraction(p, q) == frac
    # convergent denominators are nondecreasing and coprime with numerators
    qs = freq.denominators
    assert all(qs[i] <= qs[i + 1] for i in range(len(qs) - 1))
    assert all(math.gcd(p, q) == 1 for p, q in freq.convergents)


def test_beta_estimate_oracle():
    # hand-built ladder with q = (2, 8)
    freq = Frequency(value=Fraction(3, 8), partial_quotients=(),
                     convergents=((1, 2), (3, 8)))
    assert beta_estimate(freq) == pytest.approx(math.log(8) / 2)


def test_beta_estimate_needs_two_convergents():
    freq = continued_fraction_expansion(Fraction(1, 2))
    with pytest.raises(InsufficientDataError):
        beta_estimate(freq)


def test_beta_estimate_golden_is_small():
    freq = continued_fraction_expansion(GOLDEN, max_terms=12)
    # Fibonacci ladder: largest ratio is log(2)/1 at the first step
    assert beta_estimate(freq) == pytest.approx(math.log(2))


def test_liouville_beta1_oracle():
    freq = construct_liouville_frequency(1.0, q1=2, depth=2)
    assert freq.denominators[0] == 2
    assert freq.denominators[1] in (7, 8)   # ceil(e^2) = 8 up to parity adjustment


def test_liouville_beta2_oracle():
    freq = construct_liouville_frequency(2.0, q1=2, depth=2)
    assert freq.denominators[0] == 2
    assert freq.denominators[1] in (54, 55)  # ceil(e^4) = 55


def test_liouville_depth3_hits_target():
    freq = construct_liouville_frequency(2.0, q1=2, depth=3)
    qs = freq.denominators
    assert len(qs) == 3
    # q_3 ~ e^(2*55): growth ratio at the last step within 2% of target
    assert math.log(qs[2]) / qs[1] == pytest.approx(2.0, rel=0.02)
    assert beta_estimate(freq) >= 2.0 - 0.1


def test_liouville_depth_limit():
    with pytest.raises(DepthLimitError) as exc:
        construct_liouville_frequency(2.0, q1=2, depth=10)
    # ladder reaches q = (2, 55, ~e^110); the next exponent ~1.2e48 blows up
    assert exc.value.achieved_depth == 3


@pytest.mark.parametrize("kwargs", [
    dict(beta_target=0.0, q1=2, depth=2),
    dict(beta_target=-1.0, q1=2, depth=2),
    dict(beta_target=1.0, q1=1, depth=2),
    dict(beta_target=1.0, q1=2, depth=0),
])
def test_liouville_input_errors(kwargs):
    with pytest.raises(InputError):
        construct_liouville_frequency(**kwargs)


@given(beta=st.floats(min_value=0.5, max_value=2.0),
       q1=st.integers(min_value=2, max_value=6),
       depth=st.integers(min_value=2, max_value=3))
@settings(max_examples=60, deadline=None)
def test_liouville_round_trip(beta, q1, depth):
    """Re-expanding the stored rational reproduces the stored ladder."""
    try:
        freq = construct_liouville_frequency(beta, q1, depth)
    except DepthLimitError:
        return
    again = continued_fraction_expansion(freq.value, max_terms=freq.depth + 2)
    assert again.convergents == freq.convergents
    assert beta_estimate(freq) >= beta - 0.35  # finite-depth undershoot only


def test_beta_estimate_monotone_in_depth():
    freq = construct_liouville_frequency(1.0, q1=2, depth=4)
    vals = [beta_estimate(continued_fraction_expansion(freq.value, max_terms=d))
            for d in range(2, freq.depth + 1)]
    assert all(vals[i] <= vals[i + 1] + 1e-15 for i in range(len(vals) - 1))


def test_json_dict_shape():
    freq = continued_fraction_expansion(GOLDEN, max_terms=6)
    d = freq.to_json_dict()
    assert set(d) == {"value_num", "value_den", "convergents", "beta_hat"}
    assert d["convergents"][-1] == [8, 13]
    assert d["beta_hat"] == pytest.approx(math.log(2))
