"""Tests for the adaptive panel quadrature and tail transforms."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from qptransport import quadrature
from qptransport.errors import InputError, NumericalError
from qptransport.quadrature import (adaptive_integrate, integrate_left_tail,
                                    integrate_right_tail)


def halving_oracle(func, a, b, rel_tol, initial_panels=4, max_depth=22):
    """Oracle for adaptive_integrate: the 16-point Gauss-Legendre rule on a
    panel against the sum over its two halves, the halves accepted once
    they agree within the panel's share of the tolerance (the same budget
    as the Gauss-Kronrod rule).

    The tests run it ORACLE_MARGIN times tighter than the rule under test:
    at the same tolerance it misses by up to 3x when a narrow peak sits on
    a panel edge (width 1.3e-3 at 0 and 1e-6: both halves agree by
    coincidence while neither resolves the peak)."""
    x, w = np.polynomial.legendre.leggauss(16)

    def panel(lo, hi):
        vals = np.asarray(func(0.5 * (lo + hi) + 0.5 * (hi - lo) * x))
        return 0.5 * (hi - lo) * (w @ vals)

    edges = np.linspace(a, b, initial_panels + 1)
    queue = [(lo, hi, 0, panel(lo, hi)) for lo, hi in zip(edges[:-1],
                                                          edges[1:])]
    total = 0.0 * queue[0][3]
    scale = sum(np.max(np.abs(v)) for *_, v in queue)
    while queue:
        lo, hi, depth, coarse = queue.pop()
        mid = 0.5 * (lo + hi)
        left, right = panel(lo, mid), panel(mid, hi)
        budget = rel_tol * max(scale, np.max(np.abs(total))) \
            * (hi - lo) / (b - a)
        if np.max(np.abs(left + right - coarse)) <= budget:
            total = total + left + right
        elif depth >= max_depth:
            raise NumericalError(f"oracle panel [{lo}, {hi}] unconverged")
        else:
            queue += [(lo, mid, depth + 1, left), (mid, hi, depth + 1, right)]
    return total


def lorentzian(width, center):
    """A unit-height-times-width peak and its integral over [-1, 1]."""
    def f(x):
        return width / ((x - center) ** 2 + width * width)
    exact = math.atan((1.0 - center) / width) \
        + math.atan((1.0 + center) / width)
    return f, exact


def test_rules_integrate_monomials_to_their_degrees():
    # Kronrod 21 is exact through degree 31, its embedded Gauss 10 through
    # degree 19 and not at 20: a mistyped node or weight breaks one of these
    kronrod, gauss = quadrature._RULES @ (
        quadrature._NODES[:, None] ** np.arange(32))
    exact = np.where(np.arange(32) % 2 == 0, 2.0 / (np.arange(32) + 1), 0.0)
    assert np.all(np.abs(kronrod - exact) <= 1e-15)
    assert np.all(np.abs(gauss[:20] - exact[:20]) <= 1e-15)
    assert abs(gauss[20] - exact[20]) > 1e-6


RULE_TOLS = st.sampled_from([1e-4, 1e-6, 1e-8, 1e-10])
ORACLE_MARGIN = 100.0


@given(width=st.floats(1e-3, 1.0), center=st.floats(-0.9, 0.9),
       rel_tol=RULE_TOLS)
@settings(max_examples=60, deadline=None)
def test_lorentzian_peak_matches_oracle_and_closed_form(width, center,
                                                        rel_tol):
    f, exact = lorentzian(width, center)
    got = adaptive_integrate(f, -1.0, 1.0, rel_tol=rel_tol).value
    want = halving_oracle(f, -1.0, 1.0, rel_tol / ORACLE_MARGIN)
    assert type(got) is float
    assert abs(got - exact) <= rel_tol * exact
    assert abs(got - want) <= rel_tol * exact


@given(coeffs=st.lists(st.floats(-10.0, 10.0), min_size=1, max_size=16),
       a=st.floats(-3.0, 3.0), length=st.floats(0.01, 4.0),
       rel_tol=RULE_TOLS)
@settings(max_examples=60, deadline=None)
def test_polynomial_matches_oracle_and_closed_form(coeffs, a, length,
                                                   rel_tol):
    # both rules integrate degree <= 15 exactly on a panel; the tolerance is
    # taken against the integral of |p|, since the signed one may vanish
    b = a + length
    poly = np.polynomial.Polynomial(coeffs)
    exact = poly.integ()(b) - poly.integ()(a)
    xs = np.linspace(a, b, 2001)
    size = float(np.mean(np.abs(poly(xs)))) * length + 1e-300
    got = adaptive_integrate(poly, a, b, rel_tol=rel_tol).value
    want = halving_oracle(poly, a, b, rel_tol / ORACLE_MARGIN)
    assert abs(got - exact) <= max(rel_tol, 1e-13) * size
    assert abs(got - want) <= max(rel_tol, 1e-13) * size


@given(widths=st.lists(st.floats(1e-3, 1.0), min_size=1, max_size=4),
       center=st.floats(-0.9, 0.9), rel_tol=RULE_TOLS)
@settings(max_examples=40, deadline=None)
def test_vector_integrand_matches_oracle_and_closed_form(widths, center,
                                                         rel_tol):
    # peaks of several widths and a cubic on shared panels: refinement
    # follows the worst component, so every component meets the tolerance
    # taken against the largest
    peaks = [lorentzian(w, center) for w in widths]

    def f(x):
        return np.stack([p(x) for p, _ in peaks] + [x ** 3 + 1.0], axis=-1)

    exact = np.array([e for _, e in peaks] + [2.0])
    got = adaptive_integrate(f, -1.0, 1.0, rel_tol=rel_tol).value
    want = halving_oracle(f, -1.0, 1.0, rel_tol / ORACLE_MARGIN)
    assert got.shape == exact.shape
    assert np.all(np.abs(got - exact) <= rel_tol * exact.max())
    assert np.all(np.abs(got - want) <= rel_tol * exact.max())


class TestAdaptive:
    def test_sine_arch(self):
        r = adaptive_integrate(np.sin, 0.0, math.pi, rel_tol=1e-9)
        assert r.value == pytest.approx(2.0, abs=1e-12)

    def test_polynomial_exact_at_gauss_order(self):
        r = adaptive_integrate(lambda x: x ** 2, 0.0, 1.0, rel_tol=1e-10)
        assert r.value == pytest.approx(1.0 / 3.0, abs=1e-14)

    def test_narrow_lorentzian_peak(self):
        eps = 1e-4
        r = adaptive_integrate(lambda x: eps / (x * x + eps * eps), -1.0, 1.0,
                               rel_tol=1e-8)
        assert r.value == pytest.approx(2.0 * math.atan(1.0 / eps), rel=1e-9)
        assert r.deepest >= 8  # the peak forced real refinement

    def test_error_estimate_is_honest(self):
        r = adaptive_integrate(np.cos, 0.0, 1.0, rel_tol=1e-7)
        assert abs(r.value - math.sin(1.0)) <= max(r.error, 1e-12)

    def test_strict_raises_on_hard_singularity(self):
        with pytest.raises(NumericalError):
            adaptive_integrate(lambda x: 1.0 / np.sqrt(np.abs(x) + 1e-300),
                               0.0, 1.0, rel_tol=1e-10, max_depth=10)

    def test_bad_inputs(self):
        with pytest.raises(InputError):
            adaptive_integrate(np.sin, 1.0, 0.0)
        with pytest.raises(InputError):
            adaptive_integrate(np.sin, 0.0, 1.0, initial_panels=0)

    def test_vector_integrand(self):
        # a (nodes, 2) integrand integrates both components over shared panels
        def f(x):
            return np.stack([np.sin(x), np.cos(x)], axis=-1)
        r = adaptive_integrate(f, 0.0, math.pi, rel_tol=1e-10)
        v = np.asarray(r.value)
        assert v.shape == (2,)
        assert v[0] == pytest.approx(2.0, abs=1e-12)
        assert v[1] == pytest.approx(0.0, abs=1e-12)

    def test_vector_refinement_follows_worst_component(self):
        # pair a trivial component with a narrow peak; the peak must still
        # be resolved even though the other component converges instantly
        eps = 1e-3
        def f(x):
            peak = eps / (x * x + eps * eps)
            return np.stack([np.ones_like(x), peak], axis=-1)
        r = adaptive_integrate(f, -1.0, 1.0, rel_tol=1e-8)
        v = np.asarray(r.value)
        assert v[0] == pytest.approx(2.0, rel=1e-9)
        assert v[1] == pytest.approx(2.0 * math.atan(1.0 / eps), rel=1e-8)


class TestTails:
    def test_inverse_square_right(self):
        r = integrate_right_tail(lambda e: 1.0 / e ** 2, 1.0, rel_tol=1e-9)
        assert r.value == pytest.approx(1.0, abs=1e-12)

    def test_lorentzian_right(self):
        r = integrate_right_tail(lambda e: 1.0 / (1.0 + e ** 2), 2.0,
                                 rel_tol=1e-9)
        assert r.value == pytest.approx(math.pi / 2 - math.atan(2.0), rel=1e-10)

    def test_exponential_left(self):
        r = integrate_left_tail(lambda e: np.exp(e), 0.0, rel_tol=1e-9)
        assert r.value == pytest.approx(1.0, rel=1e-10)

    def test_scale_invariance(self):
        a = integrate_right_tail(lambda e: 1.0 / (1.0 + e ** 2), 0.0,
                                 scale=1.0, rel_tol=1e-9).value
        b = integrate_right_tail(lambda e: 1.0 / (1.0 + e ** 2), 0.0,
                                 scale=7.0, rel_tol=1e-9).value
        assert a == pytest.approx(b, rel=1e-9)
        assert a == pytest.approx(math.pi / 2, rel=1e-9)

    def test_one_panel_tail_refines_a_bump_past_its_start(self):
        # 1/E^2 plus a peak of width 0.05 at E = 6 on [1, inf): the single
        # starting panel cannot hold the peak, so the rule must refine
        width, center = 0.05, 6.0

        def f(e):
            return 1.0 / e ** 2 + width / ((e - center) ** 2 + width ** 2)

        exact = 1.0 + math.pi / 2 + math.atan((center - 1.0) / width)
        r = integrate_right_tail(f, 1.0, scale=2.0, rel_tol=1e-8,
                                 initial_panels=1)
        assert r.value == pytest.approx(exact, rel=1e-8)
        assert r.deepest > 0

    def test_non_convergent_tail_raises(self):
        # an integrable 1/sqrt singularity past e0 never meets 1e-10
        # within ten halvings
        with pytest.raises(NumericalError, match="failed to converge"):
            integrate_right_tail(lambda e: 1.0 / np.sqrt(np.abs(e - 3.0)),
                                 1.0, rel_tol=1e-10, initial_panels=1,
                                 max_depth=10)

    def test_bad_scale(self):
        with pytest.raises(InputError):
            integrate_right_tail(lambda e: e, 0.0, scale=0.0)
        with pytest.raises(InputError):
            integrate_left_tail(lambda e: e, 0.0, scale=-1.0)

