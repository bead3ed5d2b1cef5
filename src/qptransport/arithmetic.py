"""Exact continued-fraction machinery for frequencies in (0, 1).

Everything here is integer/rational arithmetic: expansions, convergent
ladders p_m/q_m, the finite-depth growth estimate max_m log(q_{m+1})/q_m,
and construction of frequencies whose denominators grow at a prescribed
exponential rate (q_{m+1} ~ exp(rate * q_m)).

Floating-point inputs are rationalized once, at denominator 2**96, and all
subsequent arithmetic is exact.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import mpmath

from .errors import DepthLimitError, InputError, InsufficientDataError

# Denominator bound used when a float frequency is converted to an exact
# rational before expansion.
RATIONALIZE_DENOMINATOR = 1 << 96

# Largest allowed exponent x when the ladder construction needs ceil(e^x).
# Beyond this the next denominator would have ~13000 digits and downstream
# consumers could never sample with it anyway.
MAX_EXPONENT = 3.0e4


@dataclass(frozen=True)
class Frequency:
    """A frequency with its continued-fraction data.

    value is the exact rational representative actually used downstream
    (for a float input, the rationalization of that float).  convergents
    holds (p_m, q_m) for m = 1..M with a_0 = 0 implied, so q_1 >= 1 and
    the ladder q_m is strictly increasing from m = 2 on.
    """

    value: Fraction
    partial_quotients: tuple[int, ...]
    convergents: tuple[tuple[int, int], ...]

    @property
    def float_value(self) -> float:
        return self.value.numerator / self.value.denominator

    @property
    def denominators(self) -> tuple[int, ...]:
        return tuple(q for _, q in self.convergents)

    def convergent(self, m: int) -> Fraction:
        """m-th convergent p_m/q_m, 1-indexed."""
        if not 1 <= m <= len(self.convergents):
            raise InputError(f"convergent index {m} outside 1..{len(self.convergents)}")
        p, q = self.convergents[m - 1]
        return Fraction(p, q)

    @property
    def depth(self) -> int:
        return len(self.convergents)

    def to_json_dict(self) -> dict:
        try:
            beta_hat = beta_estimate(self)
        except InsufficientDataError:
            beta_hat = None
        return {
            "value_num": self.value.numerator,
            "value_den": self.value.denominator,
            "convergents": [[p, q] for p, q in self.convergents],
            "beta_hat": beta_hat,
        }


def _as_fraction(alpha) -> Fraction:
    if isinstance(alpha, Fraction):
        frac = alpha
    elif isinstance(alpha, int):
        frac = Fraction(alpha)
    elif isinstance(alpha, float):
        if not math.isfinite(alpha):
            raise InputError(f"frequency must be finite, got {alpha}")
        frac = Fraction(alpha).limit_denominator(RATIONALIZE_DENOMINATOR)
    else:
        raise InputError(f"unsupported frequency type {type(alpha).__name__}")
    if not 0 < frac < 1:
        raise InputError(f"frequency must lie strictly in (0, 1), got {frac}")
    return frac


def continued_fraction_expansion(alpha, max_terms: int = 32) -> Frequency:
    """Expand alpha in (0,1) as [0; a_1, a_2, ...] with its convergents.

    alpha may be a float (rationalized at denominator 2**96) or an exact
    Fraction.  The expansion stops when it terminates (alpha rational hits
    a zero remainder) or after max_terms partial quotients.
    """
    if max_terms < 1:
        raise InputError(f"max_terms must be >= 1, got {max_terms}")
    frac = _as_fraction(alpha)

    # Euclidean algorithm on (den, num): alpha = 0 + 1/(den/num).
    num, den = frac.numerator, frac.denominator
    quotients: list[int] = []
    convergents: list[tuple[int, int]] = []
    p_prev, q_prev = 1, 0  # p_{-1}, q_{-1} for the a_0 = 0 convention
    p_cur, q_cur = 0, 1    # p_0, q_0
    x_num, x_den = den, num  # current tail is x_num / x_den
    while len(quotients) < max_terms:
        a, rem = divmod(x_num, x_den)
        quotients.append(a)
        p_cur, p_prev = a * p_cur + p_prev, p_cur
        q_cur, q_prev = a * q_cur + q_prev, q_cur
        convergents.append((p_cur, q_cur))
        if rem == 0:
            break
        x_num, x_den = x_den, rem
    return Frequency(value=frac, partial_quotients=tuple(quotients),
                     convergents=tuple(convergents))


def beta_estimate(freq: Frequency) -> float:
    """Finite-depth growth estimate max_m log(q_{m+1}) / q_m.

    This is a lower proxy computed from the available ladder, not the limit
    superior itself; it can only increase as more convergents are added.
    """
    qs = freq.denominators
    if len(qs) < 2:
        raise InsufficientDataError(
            "growth estimate needs at least two convergents, got "
            f"{len(qs)}")
    return max(math.log(qs[m + 1]) / qs[m] for m in range(len(qs) - 1))


def _ceil_exp_int(x: float) -> int:
    """Exact ceil(e^x) as a Python int, for x possibly far beyond 709."""
    prec = max(64, int(x * 1.4427) + 64)
    with mpmath.workprec(prec):
        return int(mpmath.ceil(mpmath.exp(mpmath.mpf(x))))


def construct_liouville_frequency(beta_target: float, q1: int,
                                  depth: int) -> Frequency:
    """Build a frequency whose denominator ladder grows like e^(beta_target * q).

    Starting from q_1 = q1, each step targets Q = ceil(exp(beta_target * q_m))
    and picks the partial quotient a_{m+1} = max(1, floor((Q - q_{m-1})/q_m)),
    which lands q_{m+1} in (Q - q_m, Q].  depth is the total number of
    convergents in the ladder.  The returned Frequency stores the canonical
    re-expansion of the final rational, so expanding .value reproduces the
    stored convergents exactly.

    Raises DepthLimitError (with achieved_depth) once beta_target * q_m
    exceeds MAX_EXPONENT.
    """
    if not beta_target > 0:
        raise InputError(f"beta_target must be positive, got {beta_target}")
    if q1 < 2:
        raise InputError(f"q1 must be >= 2, got {q1}")
    if depth < 1:
        raise InputError(f"depth must be >= 1, got {depth}")

    p_prev, q_prev = 0, 1   # p_0/q_0 = 0/1
    p_cur, q_cur = 1, q1    # a_1 = q1 gives the convergent 1/q1
    for m in range(2, depth + 1):
        x = beta_target * q_cur
        if x > MAX_EXPONENT:
            raise DepthLimitError(
                f"step {m}: exponent {x:.3g} exceeds MAX_EXPONENT "
                f"{MAX_EXPONENT:.3g}", achieved_depth=m - 1)
        target = _ceil_exp_int(x)
        a = max(1, (target - q_prev) // q_cur)
        if m == depth and a == 1:
            # a trailing quotient of 1 would merge on re-expansion and
            # shorten the ladder; overshooting keeps the growth ratio >= target
            a = 2
        p_cur, p_prev = a * p_cur + p_prev, p_cur
        q_cur, q_prev = a * q_cur + q_prev, q_cur

    value = Fraction(p_cur, q_cur)
    # Canonical re-expansion; depth + 1 headroom in case a trailing
    # quotient of 1 split (tiny beta_target only).
    return continued_fraction_expansion(value, max_terms=depth + 1)
