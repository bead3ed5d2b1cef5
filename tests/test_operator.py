"""Sampling functions, periodic models, finite restrictions."""

import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from qptransport.errors import InputError
from qptransport.operator import (
    AmoSampling,
    Chain,
    FiniteOperator,
    PeriodicModel,
    TableSampling,
    ZeroSampling,
    finite_operator,
    periodic_model,
    sample_potential,
)


def torus_distance(x, y):
    """dist(x, y) on R/Z: min over integers k of |x - y + k|."""
    d = abs((float(x) - float(y)) % 1.0)
    return min(d, 1.0 - d)


def test_amo_values():
    f = AmoSampling(1.5)
    assert f(0.0) == pytest.approx(3.0)
    assert f(0.25) == pytest.approx(0.0, abs=1e-12)
    assert f(0.5) == pytest.approx(-3.0)


def test_zero_sampling():
    f = ZeroSampling()
    assert np.all(f(np.linspace(0, 1, 7)) == 0.0)


def test_table_sampling_interpolates_and_wraps():
    f = TableSampling([0.0, 1.0, 0.0, -1.0])
    assert f(0.25) == pytest.approx(1.0)
    assert f(0.125) == pytest.approx(0.5)
    # wraparound segment between x=0.75 (value -1) and x=1 (value 0)
    assert f(0.875) == pytest.approx(-0.5)
    assert f(1.25) == pytest.approx(1.0)  # periodic extension


@given(x=st.floats(0, 1, exclude_max=True), y=st.floats(0, 1, exclude_max=True),
       lam=st.floats(0.1, 3))
@settings(max_examples=300, deadline=None)
def test_amo_lipschitz_property(x, y, lam):
    f = AmoSampling(lam)
    lhs = abs(float(f(x)) - float(f(y)))
    assert lhs <= 4 * math.pi * lam * torus_distance(x, y) + 1e-9


def test_exact_periodicity_rational_frequency():
    f = AmoSampling(0.8)
    alpha = Fraction(3, 7)
    v = sample_potential(f, alpha, theta=0.213, n_lo=0, n_hi=27)
    for n in range(0, 21):
        assert v[n] == v[n + 7]  # exact float equality


def test_sample_matches_direct_evaluation():
    f = AmoSampling(1.0)
    alpha, theta = 0.37754, 0.11
    v = sample_potential(f, alpha, theta, -5, 5)
    for i, n in enumerate(range(-5, 6)):
        assert v[i] == pytest.approx(2 * math.cos(2 * math.pi * (theta + n * alpha)),
                                     abs=1e-9)


def test_periodic_model_basic():
    f = AmoSampling(1.0)
    model = periodic_model(f, Fraction(1, 2), theta=0.0)
    assert model.q == 2
    np.testing.assert_allclose(model.potential, [2.0, -2.0], atol=1e-12)
    assert model.norm_bound == pytest.approx(4.0)
    np.testing.assert_allclose(model.extended(-2, 3), [2, -2, 2, -2, 2, -2],
                               atol=1e-12)


def test_periodic_model_from_potential():
    model = PeriodicModel.from_potential([1.0, -1.0])
    assert model.q == 2
    assert model.extended(3, 3)[0] == -1.0


def test_periodic_model_period_mismatch():
    with pytest.raises(InputError):
        PeriodicModel(alpha=Fraction(1, 3), theta=0.0, potential=np.array([1.0, 2.0]))


def test_finite_operator_zero_potential_eigenvalues():
    op = finite_operator(Chain(ZeroSampling(), 0.5 - 1e-12), N=1)
    w = op.eigensystem()[0]
    np.testing.assert_allclose(w, [-math.sqrt(2), 0.0, math.sqrt(2)], atol=1e-12)


@pytest.mark.parametrize("build", [
    lambda: AmoSampling(math.nan),
    lambda: AmoSampling(-math.inf),
    lambda: TableSampling([1.0, math.nan, 0.5]),
    lambda: Chain(AmoSampling(1.0), 0.3, math.nan),
    lambda: periodic_model(AmoSampling(1.0), Fraction(2, 5), math.inf),
    lambda: periodic_model(AmoSampling(1e308), Fraction(2, 5), 0.0),
    lambda: PeriodicModel.from_potential([0.0, math.nan]),
    lambda: FiniteOperator([0.0, math.inf, 0.0], 1),
], ids=["amo-nan", "amo-inf", "table-nan", "chain-phase", "periodic-phase",
        "periodic-overflow", "periodic-potential", "finite-diagonal"])
def test_non_finite_inputs_are_input_errors(build):
    # each once reached an eigensolver that raised ValueError or LinAlgError,
    # or gave NaN bands
    with pytest.raises(InputError, match="finite"):
        build()


def test_finite_operator_layout():
    chain = Chain(AmoSampling(1.0), Fraction(1, 3), theta=0.0)
    op = finite_operator(chain, N=4)
    assert op.dimension == 9
    assert op.site_index(0) == 4
    assert op.site_index(-4) == 0
    v = chain.potential(-4, 4)
    np.testing.assert_allclose(op.diagonal, v)
    with pytest.raises(InputError):
        op.site_index(5)


def test_finite_operator_eigensystem_consistent():
    chain = Chain(AmoSampling(0.5), 0.3111, theta=0.05)
    op = finite_operator(chain, N=12)
    w, u = op.eigensystem()
    off = np.ones(op.dimension - 1)
    h = np.diag(op.diagonal) + np.diag(off, 1) + np.diag(off, -1)
    np.testing.assert_allclose(u @ np.diag(w) @ u.T, h, atol=1e-10)
    assert np.all(np.diff(w) >= 0)


def test_chain_validation():
    with pytest.raises(InputError):
        Chain(ZeroSampling(), 1.5)
    with pytest.raises(InputError):
        Chain(ZeroSampling(), Fraction(7, 5))


def test_chain_norm_bound():
    assert Chain(AmoSampling(2.0), 0.4).norm_bound == pytest.approx(6.0)
    assert Chain(ZeroSampling(), 0.4).norm_bound == pytest.approx(2.0)


def test_huge_denominator_sampling():
    # exact residues survive denominators far beyond int64
    alpha = Fraction(10**40 + 1, 3 * 10**40)  # ~ 1/3
    f = AmoSampling(1.0)
    v = sample_potential(f, alpha, 0.0, 0, 2)
    assert v.shape == (3,)
    assert np.all(np.isfinite(v))
