"""Closed forms for the free lattice (zero potential), computed apart from
qptransport.

For H = shift + shift^* the amplitudes are <delta_n, e^(-itH) delta_0> =
(-i)^|n| J_|n|(2t), and both entries of the two-entry Abel average are the
same by translation invariance, so

    P(n; T) = (4/T) int_0^inf e^(-2t/T) J_n(2t)^2 dt
            = (2/(pi T)) Q_(|n|-1/2)(1 + 1/(2 T^2)),

using int_0^inf e^(-pt) J_nu(ct)^2 dt = Q_(nu-1/2)(1 + p^2/(2c^2)) / (pi c)
with p = 2/T, c = 2.  From sum_n n^2 J_n(x)^2 = x^2/2 the second moment is
M_2(T) = (4/T) int e^(-2t/T) 2t^2 dt = 2 T^2.
"""

from __future__ import annotations

import mpmath


def free_probability(n: int, time_scale: float) -> float:
    """P(n; T) on the free lattice via the Legendre function Q."""
    with mpmath.workdps(30):
        t = mpmath.mpf(time_scale)
        z = 1 + 1 / (2 * t * t)
        q = mpmath.legenq(abs(int(n)) - mpmath.mpf(1) / 2, 0, z, type=3)
        return float(mpmath.re(2 / (mpmath.pi * t) * q))


def free_probability_quadrature(n: int, time_scale: float) -> float:
    """The same P(n; T) by direct quadrature of the Abel time integral;
    used only to test ``free_probability``."""
    with mpmath.workdps(20):
        t = mpmath.mpf(time_scale)

        def integrand(s):
            return mpmath.exp(-2 * s / t) * mpmath.besselj(n, 2 * s) ** 2

        # J_n(2s)^2 oscillates with angular frequency 4 in s
        return float(4 / t * mpmath.quadosc(integrand, [0, mpmath.inf],
                                             omega=4))


def free_second_moment(time_scale: float) -> float:
    """M_2(T) = sum_n n^2 P(n; T) = 2 T^2 on the free lattice."""
    return 2.0 * float(time_scale) ** 2
