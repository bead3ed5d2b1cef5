"""The trace harness: self times, bit-identical outputs, restored bindings,
and the quasimomentum-grid accounting of the Floquet route."""

import math
from fractions import Fraction

import pytest
import scipy.linalg

import spans
from qptransport import (arithmetic, cli, floquet, operator, quadrature,
                         transfer, transport, verify)

MODULES = {"arithmetic": arithmetic, "floquet": floquet, "operator": operator,
           "transport": transport, "quadrature": quadrature,
           "transfer": transfer, "verify": verify, "cli": cli,
           "scipy.linalg": scipy.linalg}


def small_pass():
    """A few calls that nest every kind of span: verify -> the three routes
    -> fiber eigensolves, eigendecompositions, quadrature, banded solves."""
    free = operator.PeriodicModel.from_potential([0.0, 0.0])
    cosine = operator.periodic_model(operator.AmoSampling(1.0),
                                     Fraction(1, 3), 0.2)
    rep = verify.transport_consistency_suite(
        models=[free, cosine], time_scales=(5.0,), checks=("routes",),
        max_site=3)
    mom = transport.moments(operator.Chain(operator.AmoSampling(1.0),
                                           0.618, 0.3), 5.0, orders=(1, 2))
    lyap = transfer.lyapunov_exponent(operator.AmoSampling(1.5), 0.618, 0.5,
                                      n_steps=64, theta_count=4)
    return repr((rep.artifacts, mom.values, lyap.gamma_hat))


def traced(fn):
    tracer = spans.Tracer().install(MODULES)
    try:
        with tracer.span("pass") as root:
            out = fn()
    finally:
        tracer.uninstall()
    return out, root, tracer


def test_self_times_of_nested_spans_sum_to_traced_wall_time():
    _, root, tracer = traced(small_pass)
    names = {s.name for s in tracer.spans}
    assert {"verify", "transport.floquet", "floquet.eigensystem",
            "transport.resolvent", "quadrature", "transport.banded_solve",
            "transport.time", "operator.eigensystem",
            "transfer.lyapunov"} <= names
    assert math.isclose(sum(s.self_s for s in tracer.spans), root.duration,
                        rel_tol=1e-9)
    assert all(s.self_s >= 0.0 for s in tracer.spans)


def test_self_time_subtracts_child_spans_exactly():
    ticks = iter([0.0, 1.0, 3.0, 4.0, 7.0, 10.0])
    tracer = spans.Tracer(clock=lambda: next(ticks))
    with tracer.span("verify") as outer:
        with tracer.span("transport.time"):
            pass
        with tracer.span("transport.time"):
            pass
    assert outer.duration == 10.0
    assert outer.self_s == 10.0 - 2.0 - 3.0
    assert sum(s.self_s for s in tracer.spans) == outer.duration


def test_traced_pass_returns_bit_identical_outputs():
    plain = small_pass()
    out, _, _ = traced(small_pass)
    assert out == plain


def test_uninstall_restores_every_binding():
    before = {(m, a): getattr(MODULES[m], a)
              for targets in spans.BINDINGS.values() for m, a in targets}
    eig = operator.FiniteOperator.__dict__["eigensystem"]
    traced(small_pass)
    after = {(m, a): getattr(MODULES[m], a) for m, a in before}
    assert after == before
    assert operator.FiniteOperator.__dict__["eigensystem"] is eig


@pytest.mark.parametrize("kappa_points", [None, 64])
def test_floquet_grid_accounting_matches_the_grids_evaluated(
        monkeypatch, kappa_points):
    grids = []
    bloch = transport._bloch_data
    monkeypatch.setattr(transport, "_bloch_data",
                        lambda m, points, d: grids.append(points)
                        or bloch(m, points, d))
    model = operator.periodic_model(operator.AmoSampling(1.0),
                                    Fraction(1, 3), 0.2)
    _, _, tracer = traced(lambda: transport.abel_probability_floquet(
        model, 3, 300.0, kappa_points=kappa_points))
    got = spans.layer_metrics(tracer)
    assert got["transport.floquet.calls"] == 1
    assert got["floquet.eigensolves"] == sum(grids)
    assert got["transport.kappa_points.max"] == grids[-1]
    assert got["floquet.eigensolves.useful_ratio"] == grids[-1] / sum(grids)
    assert got["transport.lorentz_pairs"] == sum(2 * (3 * g) ** 2
                                                 for g in grids)
