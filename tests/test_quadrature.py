"""Tests for the adaptive panel quadrature and tail transforms."""

import math

import numpy as np
import pytest

from qptransport.errors import InputError, NumericalError
from qptransport.quadrature import (adaptive_integrate, integrate_left_tail,
                                    integrate_right_tail)


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
            adaptive_integrate(np.sin, 0.0, 1.0, order=1)
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

    def test_bad_scale(self):
        with pytest.raises(InputError):
            integrate_right_tail(lambda e: e, 0.0, scale=0.0)
        with pytest.raises(InputError):
            integrate_left_tail(lambda e: e, 0.0, scale=-1.0)

