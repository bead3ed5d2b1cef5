"""Tests for the Abel-averaged transport routes and moment sums."""

import math
import os
import tracemalloc
from fractions import Fraction
from unittest import mock

import mpmath
import numpy as np
import pytest
import scipy.integrate
import scipy.linalg
import scipy.special
from hypothesis import given, settings, strategies as st

from qptransport.arithmetic import (construct_liouville_frequency,
                                    continued_fraction_expansion)
from qptransport.errors import (InputError, MemoryLimitError, NumericalError,
                                TruncationError)
from qptransport.floquet import floquet_eigensystem
from qptransport.operator import (AmoSampling, Chain, FiniteOperator,
                                  PeriodicModel, TableSampling, ZeroSampling,
                                  finite_operator, periodic_model)
from qptransport import operator
from qptransport import transport as tr

GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0
FREE_CHAIN = Chain(ZeroSampling(), GOLDEN, 0.0)


def free_lattice_amplitude(displacement, times):
    """<delta_n, e^(-itH) delta_0> for the zero-potential chain:
    (-i)^|n| J_|n|(2t)."""
    n = abs(int(displacement))
    return (-1j) ** n * scipy.special.jv(n, 2.0 * np.asarray(times, float))


def bessel_abel_oracle(displacement, time_scale):
    """Independent free-lattice value of P(n; T): both entries carry the
    amplitude (-i)^|n| J_|n|(2t), integrated with the Abel weight."""
    n = abs(displacement)

    def igr(t):
        return math.exp(-2.0 * t / time_scale) * \
            scipy.special.jv(n, 2.0 * t) ** 2

    upper = 0.5 * time_scale * math.log(4e12)
    val, _ = scipy.integrate.quad(igr, 0.0, upper, limit=400)
    return 2.0 * (2.0 / time_scale) * val


def free_legendre_oracle(displacement, time_scale):
    """Closed form of P(n; T) on the free lattice:
    (2/(pi T)) Q_(|n|-1/2)(1 + 1/(2 T^2))."""
    with mpmath.workdps(30):
        t = mpmath.mpf(time_scale)
        q = mpmath.legenq(abs(displacement) - mpmath.mpf(1) / 2, 0,
                          1 + 1 / (2 * t * t), type=3)
        return float(mpmath.re(2 / (mpmath.pi * t) * q))


def dense_matrix(op):
    """Oracle for the banded forms of a FiniteOperator: the full
    dim x dim matrix of H with its unit hopping."""
    off = np.ones(op.dimension - 1)
    return np.diag(op.diagonal) + np.diag(off, 1) + np.diag(off, -1)


def dense_lorentz_form(lams, coeffs, time_scale):
    """Oracle for tr._lorentz_form: every one of the N^2 kernel entries,
    built in row chunks, c^T L c for each real coefficient column c."""
    a2 = (2.0 / time_scale) ** 2
    c = np.asarray(coeffs, dtype=float).reshape(lams.size, -1)
    total = np.zeros(c.shape[1])
    n = lams.size
    chunk = max(1, int(4e6) // max(1, n))
    for lo in range(0, n, chunk):
        d = lams[lo:lo + chunk, None] - lams[None, :]
        kern = a2 / (d * d + a2)
        total += np.sum(c[lo:lo + chunk] * (kern @ c), axis=0)
    return total


def dense_distribution(op, time_scale):
    """Oracle for tr.probability_distribution on a FiniteOperator: for each
    entry i, every site's column of the full dim x dim Lorentz kernel."""
    w, u = op.eigensystem()
    a2 = (2.0 / time_scale) ** 2
    kern = a2 / ((w[:, None] - w[None, :]) ** 2 + a2)
    disp = np.arange(-op.N, op.N)
    probs = np.zeros(disp.size)
    for i in (0, 1):
        b = u * u[op.site_index(i), :][None, :]
        acc = np.einsum('nc,nc->n', b @ kern, b)
        probs += acc[(disp + i) + op.N]
    return probs


def bloch_oracle(model, points, displacement):
    """Oracle for tr._bloch_data: one displacement's eigenvalues and
    two-entry coefficients, shape (2, points, q), kappa by kappa."""
    q = model.q
    kappas = np.arange(points) * (2.0 * math.pi / q) / points
    lams = np.empty((points, q))
    coeffs = np.empty((2, points, q), dtype=complex)
    for m, kap in enumerate(kappas):
        lams[m], u = floquet_eigensystem(model, kap)
        for i in (0, 1):
            g = displacement + i
            s, r = divmod(g, q)
            src = i % q
            shift = i // q  # source delta_1 sits in the next cell when q = 1
            w = u[r, :] * np.conj(u[src, :])
            phase = np.exp(-1j * q * kap * (s - shift))
            coeffs[i, m] = phase * w / points
    return lams, coeffs


def floquet_oracle(model, displacement, time_scale, route,
                   kappa_points=None, config=tr.DEFAULT_CONFIG):
    """Oracle for tr.abel_probability_floquet: one displacement on its own
    doubling grid, each grid from bloch_oracle; (value, final grid)."""
    def value(points):
        lams, coeffs = bloch_oracle(model, points, displacement)
        if route == "kernel":
            columns = np.concatenate([coeffs.real, coeffs.imag]).reshape(4, -1)
            return float(np.sum(tr._lorentz_form(lams.ravel(), columns.T,
                                                 time_scale)))
        lam_flat, c0, c1 = lams.ravel(), coeffs[0].ravel(), coeffs[1].ravel()

        def integrand(energies):
            energies = np.atleast_1d(energies)
            out = np.empty(energies.size)
            for k, e in enumerate(energies):
                denom = lam_flat - (e + 1j / time_scale)
                out[k] = abs(np.sum(c0 / denom)) ** 2 + \
                    abs(np.sum(c1 / denom)) ** 2
            return out

        return tr._abel_energy_integral(integrand, model.norm_bound + 1.0,
                                        time_scale, config)

    if kappa_points is not None:
        return value(kappa_points), kappa_points
    points, prev = 256, None
    while points <= tr.MAX_KAPPA_POINTS:
        val = value(points)
        if prev is not None and abs(val - prev) <= 10.0 * \
                config.energy_rel_tol * max(abs(val), abs(prev), 1e-300) \
                + 1e-13:
            return val, points
        prev = val
        points *= 2
    raise AssertionError("the oracle grid did not converge")


@given(st.integers(1, 13), st.integers(0, 2 ** 32 - 1), st.integers(1, 300),
       st.lists(st.integers(-30, 30), min_size=1, max_size=5))
@settings(max_examples=40, deadline=None)
def test_bloch_data_matches_per_kappa_solves(q, seed, points, disp):
    # grids of any size and windows of any shape: eigenvalues are the
    # per-kappa solves' bit for bit, and the coefficients bloch_oracle's up
    # to their products' rounding
    model = PeriodicModel.from_potential(
        np.random.default_rng(seed).uniform(-2.0, 2.0, q))
    lams, coefficients = tr._bloch_data(model, points, disp)
    kappas = np.arange(points) * (2.0 * math.pi / q) / points
    assert np.array_equal(lams, [floquet_eigensystem(model, k)[0]
                                 for k in kappas])
    coeffs = coefficients(slice(None))
    for k, d in enumerate(disp):
        want = bloch_oracle(model, points, d)[1]
        np.testing.assert_allclose(coeffs[:, k].T.reshape(want.shape),
                                   want, rtol=0, atol=1e-15 / points)


@st.composite
def lorentz_inputs(draw):
    """Eigenvalue sets the Floquet and time routes produce, and harder:
    critical (Cantor-like) spectra, clustered narrow bands, exact pairs
    lambda(kappa) = lambda(-kappa), all values equal (blocks of zero
    width), sizes around one block and around the switch to one block at
    N = 512, and up to 64 columns (more columns than eigenvalues for small
    N)."""
    kind = draw(st.sampled_from(["bands", "ties", "equal", "spread",
                                 "critical"]))
    n = draw(st.one_of(st.integers(1, 40), st.integers(480, 560),
                       st.integers(1, 3000)))
    time_scale = 10.0 ** draw(st.floats(0.0, 7.0))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    if kind == "bands":
        count = int(rng.integers(1, 14))
        centers = rng.uniform(-3.0, 3.0, count)
        widths = 10.0 ** rng.uniform(-8.0, -1.0, count)
        band = rng.integers(0, count, n)
        lams = centers[band] + widths[band] * np.cos(rng.uniform(0, np.pi, n))
    elif kind == "ties":
        half = rng.uniform(-2.0, 2.0, n // 2 + 1)
        lams = rng.permutation(np.concatenate([half, half])[:n])
    elif kind == "critical":  # a critical AMO chain's eigenvalues
        chain = Chain(AmoSampling(1.0), GOLDEN, rng.uniform())
        lams = scipy.linalg.eigvalsh_tridiagonal(chain.potential(1, n),
                                                 np.ones(n - 1))
    elif kind == "equal":
        lams = np.full(n, rng.uniform(-3.0, 3.0))
    else:
        lams = rng.uniform(-3.0, 3.0, n)
    if draw(st.booleans()):
        lams = np.sort(lams)  # as eigh_tridiagonal returns them
    coeffs = rng.standard_normal((n, draw(st.integers(1, 64)))) / n
    return lams, coeffs, time_scale


@given(lorentz_inputs())
@settings(max_examples=80, deadline=None)
def test_fast_lorentz_form_matches_dense_sum(inputs):
    lams, coeffs, time_scale = inputs
    fast = tr._lorentz_form(lams, coeffs, time_scale)
    dense = dense_lorentz_form(lams, coeffs, time_scale)
    scale = dense_lorentz_form(lams, np.abs(coeffs), time_scale)
    assert fast.shape == (coeffs.shape[1],)
    assert np.all(np.abs(fast - dense) <= 1e-12 * scale)


def test_fast_lorentz_form_keeps_precision_far_from_zero():
    # one band 3e-6 wide at 2.5 and T = 1e7: node positions rounded to
    # ulp(2.5) = 4e-16 would move kernel arguments by 2e-9 of a = 2e-7
    rng = np.random.default_rng(1)
    lams = 2.5 + 3e-6 * np.cos(rng.uniform(0.0, np.pi, 2000))
    coeffs = rng.standard_normal((2000, 3)) / 2000
    fast = tr._lorentz_form(lams, coeffs, 1e7)
    dense = dense_lorentz_form(lams, coeffs, 1e7)
    scale = dense_lorentz_form(lams, np.abs(coeffs), 1e7)
    assert np.all(np.abs(fast - dense) <= 1e-14 * scale)


@st.composite
def matrix_operand(draw, rows, cols):
    """A rows x cols float matrix in a layout _lorentz_form hands to
    tr._dot (a C-ordered row slice) or one it might (a transposed view),
    with entries spread over ten decades."""
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    scale = 10.0 ** draw(st.floats(-5.0, 5.0))
    if draw(st.booleans()):
        lo = draw(st.integers(0, 3))
        return (rng.standard_normal((rows + lo + 2, cols)) * scale)[lo:lo + rows]
    return (rng.standard_normal((cols, rows)) * scale).T


@st.composite
def dot_operands(draw):
    """Shapes with zero dimensions, one-row and one-column operands, and up
    to 64 along each axis."""
    m, k, n = (draw(st.one_of(st.sampled_from([0, 1]), st.integers(2, 64)))
               for _ in range(3))
    return draw(matrix_operand(m, k)), draw(matrix_operand(k, n))


@given(dot_operands())
@settings(max_examples=200, deadline=None)
def test_dot_matches_numpy_matmul(operands):
    a, b = operands
    got = tr._dot(a, b)
    assert got.shape == (a.shape[0], b.shape[1])
    # an empty inner dimension is a sum of no terms
    assert np.all(np.abs(got - a @ b) <= 1e-15 * (np.abs(a) @ np.abs(b)))


def block_rule(lams):
    """The blocks of sorted lams _lorentz_form cuts, by the rule of its
    docstring: one block while N^2 fits in _KERNEL_CHUNK; otherwise blocks
    ending at the widest spacing b/2 to 3b/2 values after their start, or
    every b values where that builds no more kernel entries, no block over
    sqrt(_KERNEL_CHUNK) values."""
    return min(block_cuts(lams), key=kernel_entries)


def block_cuts(lams):
    """The two cuts block_rule chooses from, every b values first (one
    cut, one block, while N^2 fits in _KERNEL_CHUNK)."""
    x = np.sort(lams)
    n, p = x.size, tr._CHEB_ORDER
    if n * n <= tr._KERNEL_CHUNK:
        return [[x]]
    cap = math.isqrt(tr._KERNEL_CHUNK)
    size = min(cap, math.ceil((2.0 * n * p * p / 3.0) ** (1.0 / 3.0)))
    longest = min(cap, 3 * size // 2)
    gaps, lo = [], 0
    while lo < n:
        hi = n if n - lo <= longest else max(
            range(lo + size // 2, lo + longest + 1),
            key=lambda end: x[end] - x[end - 1])
        gaps.append(x[lo:hi])
        lo = hi
    return [[x[lo:lo + size] for lo in range(0, n, size)], gaps]


def near(u, v):
    """Whether two blocks in ascending order are summed directly: the gap
    between them is below the larger width (a block is near itself)."""
    return v is u or v[0] - u[-1] < max(np.ptp(u), np.ptp(v))


def kernel_entries(blocks):
    """The kernel entries the block rule counts for a cut: near pairs
    i <= j, b_i b_j each, and half of the (blocks p)^2 on the nodes."""
    return sum(u.size * v.size for i, u in enumerate(blocks)
               for v in blocks[i:] if near(u, v)) \
        + 0.5 * (len(blocks) * tr._CHEB_ORDER) ** 2


def block_rule_products(lams, columns):
    """The operand shapes of every matrix product _lorentz_form makes, from
    the block rule of its docstring: near pairs summed directly, and for
    more than one block each block's two Chebyshev-moment products and one
    far-field product per chunk of block rows."""
    p = tr._CHEB_ORDER
    blocks = block_rule(lams)
    shapes = [((u.size, v.size), (v.size, columns))
              for i, u in enumerate(blocks) for v in blocks[i:] if near(u, v)]
    if len(blocks) == 1:
        return shapes
    for u in blocks:
        shapes += [((p, p), (p, u.size)), ((p, u.size), (u.size, columns))]
    rows = max(1, tr._KERNEL_CHUNK // (p * p * len(blocks)))
    for i0 in range(0, len(blocks) - 1, rows):
        i1 = min(i0 + rows, len(blocks) - 1)
        rest = (len(blocks) - 1 - i0) * p
        shapes.append((((i1 - i0) * p, rest), (rest, columns)))
    return shapes


@pytest.mark.parametrize("chain, ratio", [
    (Chain(AmoSampling(1.0), GOLDEN, 0.0), 0.55), (FREE_CHAIN, None)],
    ids=["critical", "free"])
def test_gap_cut_builds_fewer_kernel_entries(chain, ratio, monkeypatch):
    # T = 100, dimension 3,663: cuts every b = 100 values leave 1.56 M near
    # entries on the critical spectrum, whose blocks straddle its gaps
    radius = tr.truncation_radius(100.0)
    lams = scipy.linalg.eigvalsh_tridiagonal(
        chain.potential(-radius, radius), np.ones(2 * radius))
    built = []
    kernel = tr._kernel

    def spy(rows, cols, scale, a2):
        built.append((rows.size * cols.size, scale))
        return kernel(rows, cols, scale, a2)
    monkeypatch.setattr(tr, "_kernel", spy)
    tr._lorentz_form(lams, np.ones(lams.size), 100.0)
    blocks = sum(scale == 1.0 for _, scale in built)  # one diagonal each
    entries = sum(size for size, _ in built) \
        + 0.5 * (blocks * tr._CHEB_ORDER) ** 2
    fixed = kernel_entries(block_cuts(lams)[0])
    if ratio is None:  # a spectrum without gaps keeps the fixed cut
        assert entries == fixed
    else:
        assert entries <= ratio * fixed


def product_spy(shapes, dot):
    """dot, recording each product's operand shapes in shapes."""
    return lambda a, b: shapes.append((a.shape, b.shape)) or dot(a, b)


@pytest.mark.parametrize("n, spread", [(3000, "bands"), (3000, "uniform"),
                                       (400, "uniform")])
def test_lorentz_form_makes_every_product_through_dot(n, spread,
                                                     monkeypatch):
    rng = np.random.default_rng(n)
    if spread == "bands":  # near and far pairs between clustered blocks
        lams = rng.choice([-2.0, 0.5, 1.0], n) + 1e-3 * rng.uniform(-1, 1, n)
    else:
        lams = rng.uniform(-3.0, 3.0, n)
    coeffs = rng.standard_normal((n, 5)) / n
    plain = tr._lorentz_form(lams, coeffs, 40.0)
    shapes = []
    monkeypatch.setattr(tr, "_dot", product_spy(shapes, tr._dot))
    spied = tr._lorentz_form(lams, coeffs, 40.0)
    assert sorted(shapes) == sorted(block_rule_products(lams, 5))
    np.testing.assert_array_equal(spied, plain)


def test_time_route_makes_every_product_in_scipy_blas(monkeypatch):
    # dimension 601: eleven blocks, so near, moment and far-field products;
    # the boundary-mass check adds one product per source, its cosine and
    # sine rows against the 16 edge sites
    op = finite_operator(periodic_model(AmoSampling(1.0), Fraction(1, 3),
                                        0.2), 300)
    plain = tr.abel_probability_time(op, [0, 5], 5.0)
    shapes = []
    monkeypatch.setattr(tr, "_dot", product_spy(shapes, tr._dot))
    spied = tr.abel_probability_time(op, [0, 5], 5.0)
    edges = [((2, 601), (601, 16))] * 2
    assert sorted(shapes) == sorted(
        block_rule_products(op.eigensystem()[0], 4) + edges)
    assert any(a[0] != a[1] for a, _ in shapes)  # far-field products ran
    np.testing.assert_array_equal(spied, plain)


def test_floquet_route_makes_every_product_through_dot(monkeypatch):
    # q = 3 on 1,024 kappa points: 3,072 eigenvalues in 33 blocks and one
    # pair sum of the window's eight real columns
    model = periodic_model(AmoSampling(1.0), Fraction(1, 3), 0.2)
    plain = tr.abel_probability_floquet(model, [0, 3], 300.0, route="kernel",
                                        kappa_points=1024)
    shapes = []
    monkeypatch.setattr(tr, "_dot", product_spy(shapes, tr._dot))
    spied = tr.abel_probability_floquet(model, [0, 3], 300.0, route="kernel",
                                        kappa_points=1024)
    lams = tr._bloch_data(model, 1024, [0, 3])[0]
    assert sorted(shapes) == sorted(block_rule_products(lams.ravel(), 8))
    assert any(a[0] != a[1] for a, _ in shapes)  # far-field products ran
    np.testing.assert_array_equal(spied, plain)


@given(time_scale=st.floats(0.5, 25.0), extra=st.integers(0, 40),
       coupling=st.floats(0.0, 3.0), theta=st.floats(0.0, 1.0))
@settings(max_examples=25, deadline=None)
def test_distribution_matches_dense_kernel(time_scale, extra, coupling,
                                           theta):
    # dimensions 157 to 1,155: both sides of the one-block switch
    radius = tr.truncation_radius(time_scale) + extra
    op = finite_operator(Chain(AmoSampling(coupling), GOLDEN, theta), radius)
    dist = tr.probability_distribution(op, time_scale)
    dense = dense_distribution(op, time_scale)
    assert np.all(np.abs(dist.probabilities - dense) <= 1e-12 * 2.0)


@st.composite
def time_windows(draw):
    """AMO chains and periodic models (q = 1 to 7) at small T, windows of
    negative, repeated and unsorted displacements that fit in the lattice
    of their largest entry."""
    time_scale = draw(st.floats(0.5, 12.0))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    if draw(st.booleans()):
        source = Chain(AmoSampling(draw(st.floats(0.0, 3.0))), GOLDEN,
                       draw(st.floats(0.0, 1.0)))
    else:
        source = PeriodicModel.from_potential(
            rng.uniform(-1.5, 1.5, draw(st.integers(1, 7))))
    disp = draw(st.lists(st.integers(-60, 60), min_size=1, max_size=8))
    return source, disp, time_scale


@given(time_windows())
@settings(max_examples=25, deadline=None)
def test_time_window_matches_single_calls_and_distribution(inputs):
    # the window sums many displacements' columns per Lorentz form call;
    # on one lattice each value must still be its one-displacement call's
    # and the distribution's, down to the pair sum's rounding: 1e-15 of
    # |c|^T L |c| over both entries (P itself may be far smaller)
    source, disp, time_scale = inputs
    n_extent = max(max(abs(d), abs(d + 1)) for d in disp)
    op = finite_operator(source, tr.truncation_radius(time_scale, n_extent))
    window = tr.abel_probability_time(op, disp, time_scale)
    assert window.shape == (len(disp),)
    dist = tr.probability_distribution(op, time_scale)
    w, u = op.eigensystem()
    for d, got in zip(disp, window):
        single = tr.abel_probability_time(op, d, time_scale)
        assert type(single) is float
        scale = sum(dense_lorentz_form(
            w, np.abs(u[op.site_index(d + i)] * u[op.site_index(i)]),
            time_scale)[0] for i in (0, 1))
        assert abs(got - single) <= 1e-15 * scale + 1e-18
        assert abs(got - dist.probability(d)) <= 1e-15 * scale + 1e-18


class TestTimeWindow:
    MODEL = periodic_model(AmoSampling(1.0), Fraction(1, 3), 0.2)

    def test_scalar_in_float_out(self):
        p = tr.abel_probability_time(self.MODEL, 3, 5.0)
        assert type(p) is float
        assert tr.abel_probability_time(self.MODEL, [3], 5.0).shape == (1,)

    def test_columns_split_into_chunks(self, monkeypatch):
        # at dimension 371 one displacement's two columns are 742 entries,
        # so a 1,500-entry chunk holds two: three Lorentz form calls
        disp = [-4, 0, 3, 7, 11]
        whole = tr.abel_probability_time(self.MODEL, disp, 5.0)
        shapes = []
        form = tr._lorentz_form
        monkeypatch.setattr(tr, "_COLUMN_CHUNK", 1500)
        monkeypatch.setattr(tr, "_lorentz_form", lambda lams, c, t:
                            shapes.append(c.shape) or form(lams, c, t))
        split = tr.abel_probability_time(self.MODEL, disp, 5.0)
        assert shapes == [(371, 4), (371, 4), (371, 2)]
        np.testing.assert_allclose(split, whole, rtol=1e-15, atol=1e-18)

    def test_window_outside_the_lattice_rejected(self):
        op = finite_operator(self.MODEL, 200)
        with pytest.raises(InputError, match="outside"):
            tr.abel_probability_time(op, [0, 200], 5.0)
        with pytest.raises(InputError, match="outside"):
            tr.abel_probability_time(op, [-201, 0], 5.0)

    def test_empty_window_rejected(self):
        with pytest.raises(InputError, match="displacement"):
            tr.abel_probability_time(self.MODEL, [], 5.0)


class TestRadii:
    def test_horizon_formula(self):
        assert tr.abel_horizon(10.0) == pytest.approx(
            5.0 * math.log(4e6))

    def test_radius_grows_with_time(self):
        assert tr.truncation_radius(20.0) > tr.truncation_radius(5.0)

    def test_radius_includes_extent(self):
        assert tr.truncation_radius(5.0, n_extent=100) == \
            tr.truncation_radius(5.0, n_extent=0) + 100

    def test_bad_inputs(self):
        with pytest.raises(InputError):
            tr.abel_horizon(0.0)


TWO_PERIODIC = periodic_model(AmoSampling(1.0), Fraction(1, 2), 0.0)


@pytest.mark.parametrize("call", [
    lambda t: tr.abel_probability_time(FREE_CHAIN, 0, t),
    lambda t: tr.moments(FREE_CHAIN, t),
    lambda t: tr.abel_resolvent_profile(TWO_PERIODIC, [0], t),
    lambda t: tr.abel_probability_floquet(TWO_PERIODIC, 0, t),
], ids=["time", "moments", "resolvent", "floquet"])
@pytest.mark.parametrize("time_scale", [0.0, math.inf, math.nan])
def test_time_scale_must_be_finite_and_positive(call, time_scale):
    with pytest.raises(InputError, match="time scale"):
        call(time_scale)


@pytest.mark.parametrize("order", [math.nan, math.inf])
def test_moment_orders_must_be_finite(order):
    with pytest.raises(InputError, match="moment orders"):
        tr.moments(FREE_CHAIN, 3.0, orders=(1.0, order))


def test_moments_need_at_least_one_order():
    with pytest.raises(InputError, match="moment orders"):
        tr.moments(FREE_CHAIN, 3.0, orders=())


@st.composite
def evolve_inputs(draw, n_max=20):
    """A truncated operator (N = 0-n_max, random diagonal), times with 0
    among them, a source, and target sites: one site, several in any
    order with repeats, or None for every site."""
    n = draw(st.integers(0, n_max))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    op = FiniteOperator(rng.uniform(-3.0, 3.0, 2 * n + 1), n)
    times = [0.0] + draw(st.lists(st.floats(0.0, 25.0), max_size=4))
    source = draw(st.integers(-n, n))
    sites = draw(st.none() | st.lists(st.integers(-n, n), max_size=12)
                 | st.integers(-n, n).map(lambda k: [k]))
    return op, draw(st.permutations(times)), source, sites


@given(evolve_inputs())
@settings(max_examples=60, deadline=None)
def test_evolve_matches_matrix_exponential(inputs):
    op, times, source, sites = inputs
    rows = range(op.dimension) if sites is None else \
        [op.site_index(n) for n in sites]
    want = np.array([scipy.linalg.expm(-1j * t * dense_matrix(op))
                     [rows, op.site_index(source)] for t in times])
    got = tr.evolve(op, times, source, sites)
    assert got.shape == want.shape
    np.testing.assert_allclose(got, want, rtol=0, atol=1e-10)


@given(evolve_inputs(n_max=40))
@settings(max_examples=60, deadline=None)
def test_evolve_matches_complex_product(inputs):
    # the complex form of the propagator's one product, down to the
    # rounding of a sum over the eigenvalues
    op, times, source, sites = inputs
    w, u = op.eigensystem()
    rows = u if sites is None else u[[op.site_index(n) for n in sites]]
    phases = np.exp(-1j * np.outer(times, w)) * u[op.site_index(source)]
    got = tr.evolve(op, times, source, sites)
    assert got.shape == (len(times), rows.shape[0])
    assert np.all(np.abs(got - phases @ rows.T)
                  <= 1e-15 * (np.abs(phases) @ np.abs(rows.T)))


def test_evolve_never_copies_the_eigenvectors():
    # dimension 2,001: one copy of the eigenvector matrix, or a cast of it
    # to complex, would allocate 8 dim^2 bytes or more
    op = FiniteOperator(np.random.default_rng(0).uniform(-3.0, 3.0, 2001),
                        1000)
    op.eigensystem()
    tracemalloc.start()
    try:
        tr.evolve(op, [7.5])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8 * op.dimension ** 2


@pytest.mark.parametrize("n", [0, 1, 5, 40])
def test_resolvent_matches_dense_solve(n):
    rng = np.random.default_rng(n)
    op = FiniteOperator(rng.uniform(-2.5, 2.5, 2 * n + 1), n)
    sources = (0, -n, n, 0)
    eye = np.eye(op.dimension)
    for z in (0.3 + 1.5j, -1.0 + 0.01j, 2.0 - 0.2j, 5.5):
        want = np.linalg.solve(dense_matrix(op) - z * eye,
                               eye[:, [op.site_index(s) for s in sources]])
        np.testing.assert_allclose(op.resolvent(z, sources), want,
                                   rtol=0, atol=1e-12)


def assert_entries_close(got, want, op, z):
    """1e-12 relative per entry of G(., s; z), shape (z, sites, sources),
    above two floors.  Backward-stable solves of H - z agree only to about
    eps cond(H - z) of a column's largest entry, and cond(H - z) <=
    (|H| + |z|) / dist(z, spectrum) reaches 5e4 for z near an eigenvalue
    at T = 1e4: there, two LAPACK solves of one system differ by more than
    1e-12 on entries 2,500 times below their column's largest.  Entries
    below 1e-290 round in the subnormal range, with fewer digits."""
    assert got.shape == want.shape
    z = np.asarray(z).reshape(-1, 1, 1)
    dist = np.maximum(np.abs(z.imag), np.abs(z.real) - op.norm_bound)
    cond = (op.norm_bound + np.abs(z)) / dist
    floor = 4.0 * np.finfo(float).eps * cond \
        * np.max(np.abs(want), axis=1, keepdims=True)
    assert np.all(np.abs(got - want) <= 1e-12 * np.abs(want) + floor + 1e-300)


@st.composite
def windowed_batches(draw):
    """An AMO or random table chain on [-n, n], a window [lo, hi] (edges
    included), sources in it, z = E + i/T for T in [1, 1e4] with E inside
    the spectrum, outside it, and at tail-node magnitudes up to 1e8, and a
    band chunk of a few windows, so batches cross it."""
    n = draw(st.integers(0, 40))
    if draw(st.booleans()):
        f = AmoSampling(draw(st.floats(0.0, 3.0)))
    else:
        f = TableSampling(draw(st.lists(st.floats(-3.0, 3.0), min_size=2,
                                        max_size=8)))
    op = finite_operator(Chain(f, GOLDEN, draw(st.floats(0.0, 1.0))), n)
    lo = draw(st.sampled_from([-n, n, draw(st.integers(-n, n))]))
    hi = draw(st.sampled_from([lo, n, draw(st.integers(lo, n))]))
    sources = draw(st.lists(st.integers(lo, hi), min_size=1, max_size=3))
    b = op.norm_bound
    energy = st.one_of(st.floats(-b, b), st.floats(b, 50.0),
                       st.floats(-50.0, -b), st.floats(1e3, 1e8),
                       st.floats(-1e8, -1e3))
    energies = draw(st.lists(energy, min_size=1, max_size=12))
    z = np.array(energies) + 1j / draw(st.floats(1.0, 1e4))
    chunk = 3 * (hi - lo + 1) * draw(st.integers(1, 4))
    return op, (lo, hi), sources, z, chunk


@given(windowed_batches())
@settings(max_examples=200, deadline=None)
def test_windowed_resolvent_matches_whole_lattice_and_dense_solves(batch):
    op, (lo, hi), sources, z, chunk = batch
    with mock.patch.object(operator, "_BAND_CHUNK", chunk):
        got = op.resolvent(z, sources, window=(lo, hi))
    rows = slice(op.site_index(lo), op.site_index(hi) + 1)
    assert_entries_close(got, op.resolvent(z, sources)[:, rows], op, z)
    eye = np.eye(op.dimension)
    cols = eye[:, [op.site_index(s) for s in sources]]
    dense = np.array([np.linalg.solve(dense_matrix(op) - zk * eye, cols)
                      for zk in z])
    assert_entries_close(got, dense[:, rows], op, z)


def test_windowed_batch_crosses_the_band_chunk():
    # 30,000 energies of a 3-site window take two banded solves of at most
    # 2^18 band entries; the whole-lattice batch takes fifteen
    op = finite_operator(Chain(AmoSampling(1.2), GOLDEN, 0.3), 20)
    z = np.linspace(-6.0, 6.0, 30_000) + 0.05j
    assert z.size > operator._BAND_CHUNK // 9
    got = op.resolvent(z, (0, 1), window=(-1, 1))
    assert_entries_close(got, op.resolvent(z, (0, 1))[:, 19:22], op, z)
    assert_entries_close(got[123:124], op.resolvent(
        z[123:124], (0, 1), window=(-1, 1)), op, z[123:124])


def test_resolvent_window_input_errors():
    op = FiniteOperator(np.zeros(9), 4)
    with pytest.raises(InputError, match="Im z"):
        op.resolvent(np.array([0.5, 1.0 + 0.1j]), window=(-1, 1))
    with pytest.raises(InputError, match="outside the window"):
        op.resolvent(0.5j, sources=(2,), window=(-1, 1))
    with pytest.raises(InputError):
        op.resolvent(0.5j, window=(1, -1))


@pytest.mark.parametrize("n", [0, 3, 7, 8, 30])
def test_boundary_mass_is_the_edge_sum_of_the_wavefunction(n):
    # below 16 sites the two edges overlap and shared sites count twice
    op = finite_operator(Chain(AmoSampling(0.8), GOLDEN, 0.4), n)
    for time in (0.0, 1.5, 12.0):
        for source in {0, min(1, n)}:
            prob = np.abs(tr.evolve(op, [time], source)[0]) ** 2
            width = min(8, op.dimension)
            want = np.sum(prob[:width]) + np.sum(prob[-width:])
            assert tr.boundary_mass(op, time, source) == \
                pytest.approx(want, rel=1e-14, abs=1e-15)


class TestEvolution:
    def test_free_amplitude_against_bessel(self):
        t = np.array([0.0, 0.7, 2.5])
        np.testing.assert_allclose(free_lattice_amplitude(0, t),
                                   scipy.special.jv(0, 2 * t), atol=1e-14)
        np.testing.assert_allclose(
            free_lattice_amplitude(2, t),
            -scipy.special.jv(2, 2 * t), atol=1e-14)

    def test_evolve_is_unitary(self):
        op = finite_operator(Chain(AmoSampling(1.0), GOLDEN, 0.2), 30)
        psi = tr.evolve(op, [0.0, 1.0, 3.7])
        np.testing.assert_allclose(np.linalg.norm(psi, axis=1), 1.0,
                                   atol=1e-11)

    def test_evolve_matches_free_amplitudes(self):
        op = finite_operator(FREE_CHAIN, 40)
        psi = tr.evolve(op, [3.0])[0]
        for n in (-2, 0, 1, 5):
            assert psi[op.site_index(n)] == pytest.approx(
                complex(free_lattice_amplitude(n, 3.0)), abs=1e-10)

    def test_boundary_mass_detects_escape(self):
        small = finite_operator(FREE_CHAIN, 12)
        big = finite_operator(FREE_CHAIN, 80)
        assert tr.boundary_mass(small, 10.0) > 0.01
        assert tr.boundary_mass(big, 10.0) < 1e-12


class TestTimeRoute:
    def test_short_time_limit_is_two(self):
        p = tr.abel_probability_time(FREE_CHAIN, 0, 0.01)
        assert p == pytest.approx(2.0, abs=5e-4)

    def test_free_lattice_bessel_oracle(self):
        mine = tr.abel_probability_time(FREE_CHAIN, 3, 4.0)
        assert mine == pytest.approx(bessel_abel_oracle(3, 4.0), rel=1e-6)

    def test_reflection_symmetric_potential(self):
        assert tr.abel_probability_time(FREE_CHAIN, -3, 4.0) == \
            pytest.approx(tr.abel_probability_time(FREE_CHAIN, 3, 4.0),
                          rel=1e-10)

    def test_undersized_radius_raises(self):
        with pytest.raises(TruncationError):
            tr.abel_probability_time(FREE_CHAIN, 0, 20.0, radius=10)

    def test_distribution_mass_two(self):
        d = tr.probability_distribution(FREE_CHAIN, 3.0)
        assert d.total_mass == pytest.approx(2.0, rel=1e-6)

    def test_distribution_accessor(self):
        d = tr.probability_distribution(FREE_CHAIN, 3.0)
        k = tr.abel_probability_time(FREE_CHAIN, 2, 3.0)
        assert d.probability(2) == pytest.approx(k, rel=1e-10)
        with pytest.raises(InputError):
            d.probability(10 ** 6)

    def test_free_second_moment_closed_form(self):
        # sum_n n^2 J_n(2t)^2 = 2 t^2, so the two-entry Abel average is
        # exactly 2 T^2
        m = tr.moments(FREE_CHAIN, 6.0, orders=(0, 2))
        assert m.moment(0) == pytest.approx(2.0, rel=1e-6)
        assert m.moment(2) == pytest.approx(2.0 * 36.0, rel=1e-5)

    def test_moment_order_validation(self):
        with pytest.raises(InputError):
            tr.moments(FREE_CHAIN, 3.0, orders=(-1,))

    def test_memory_preflight_spares_the_resolvent_route(self, monkeypatch):
        want = tr.abel_probability_time(FREE_CHAIN, 2, 3.0)
        # with 1 MiB of physical memory the time route refuses before it
        # builds an operator; the O(dim) resolvent route still runs
        sysconf = os.sysconf
        monkeypatch.setattr(os, "sysconf", lambda name: 256 if
                            name == "SC_PHYS_PAGES" else sysconf(name))
        with monkeypatch.context() as m:
            m.setattr(tr, "finite_operator", None)
            with pytest.raises(MemoryLimitError, match="dimension"):
                tr.probability_distribution(FREE_CHAIN, 3.0)
            with pytest.raises(MemoryLimitError):
                tr.abel_probability_time(FREE_CHAIN, 2, 3.0)
        assert tr.abel_probability_resolvent(FREE_CHAIN, 2, 3.0) == \
            pytest.approx(want, rel=1e-4)


    def test_memory_preflight_counts_the_eigensolver_workspace(
            self, monkeypatch):
        # ?stevd's dim^2 workspace sits beside the dim^2 eigenvectors:
        # physical memory between the two estimates must refuse the run
        dim = 2 * tr.truncation_radius(3.0) + 1
        old = 8 * (dim * dim + tr._COLUMN_CHUNK)
        new = 8 * (2 * dim * dim + tr._COLUMN_CHUNK)
        page = os.sysconf("SC_PAGE_SIZE")
        pages = (old + new) // 2 // page
        assert old < pages * page < new
        sysconf = os.sysconf
        monkeypatch.setattr(os, "sysconf", lambda name: pages if
                            name == "SC_PHYS_PAGES" else sysconf(name))
        monkeypatch.setattr(tr, "finite_operator", None)
        with pytest.raises(MemoryLimitError, match=f"dimension {dim}"):
            tr.probability_distribution(FREE_CHAIN, 3.0)

    def test_memory_preflight_estimate_cannot_overflow(self, monkeypatch):
        # dimension 3.3e301: 8 (2 dim^2) bytes is past the float range, so
        # the estimate is formatted without a float conversion
        monkeypatch.setattr(tr, "finite_operator", None)
        with pytest.raises(MemoryLimitError, match=r"e\+595 GiB"):
            tr.probability_distribution(FREE_CHAIN, 1e300)


class TestResolventRoute:
    def test_free_lattice_bessel_oracle(self):
        mine = tr.abel_probability_resolvent(FREE_CHAIN, 3, 4.0)
        assert mine == pytest.approx(bessel_abel_oracle(3, 4.0), rel=5e-4)

    def test_matches_time_route_periodic(self):
        model = periodic_model(AmoSampling(1.0), Fraction(1, 2), 0.0)
        a = tr.abel_probability_time(model, 2, 5.0)
        b = tr.abel_probability_resolvent(model, 2, 5.0)
        assert b == pytest.approx(a, rel=1e-6)

    def test_matches_time_route_quasiperiodic(self):
        chain = Chain(AmoSampling(1.0), GOLDEN, 0.3)
        a = tr.abel_probability_time(chain, 1, 5.0)
        b = tr.abel_probability_resolvent(chain, 1, 5.0)
        assert b == pytest.approx(a, rel=1e-4)

    def test_profile_matches_singles(self):
        chain = Chain(AmoSampling(1.0), GOLDEN, 0.3)
        disp = [0, 1, 4]
        prof = tr.abel_resolvent_profile(chain, disp, 5.0)
        assert prof.shape == (3,)
        for i, d in enumerate(disp):
            single = tr.abel_probability_resolvent(chain, d, 5.0)
            assert prof[i] == pytest.approx(single, rel=1e-7)

    def test_profile_window_is_free_of_order_and_repeats(self):
        chain = Chain(AmoSampling(1.0), GOLDEN, 0.3)
        window = tr.abel_resolvent_profile(chain, [0, 1, 4], 5.0)
        mixed = tr.abel_resolvent_profile(chain, [4, 0, 4, 1], 5.0)
        assert mixed.tolist() == window[[2, 0, 2, 1]].tolist()
        # one displacement gives a float: the one-entry window's value
        single = tr.abel_resolvent_profile(chain, 4, 5.0)
        assert type(single) is float
        assert single == tr.abel_resolvent_profile(chain, [4], 5.0)[0]

    @pytest.mark.parametrize("call", [
        lambda: tr.abel_resolvent_profile(FREE_CHAIN, [0], 1e308),
        lambda: tr.abel_probability_resolvent(FREE_CHAIN, 0, 1e308),
    ], ids=["profile", "single"])
    def test_radius_overflow_is_input_error(self, call):
        with pytest.raises(InputError, match="no finite resolvent radius"):
            call()

    def test_profile_rejects_empty(self):
        with pytest.raises(InputError):
            tr.abel_resolvent_profile(FREE_CHAIN, [], 5.0)


class TestFloquetRoute:
    MODEL = periodic_model(AmoSampling(1.0), Fraction(1, 2), 0.0)

    def test_energy_route_matches_time_route(self):
        a = tr.abel_probability_time(self.MODEL, 2, 5.0)
        b = tr.abel_probability_floquet(self.MODEL, 2, 5.0, route="energy")
        assert b == pytest.approx(a, rel=1e-6)

    def test_kernel_route_matches_time_route(self):
        a = tr.abel_probability_time(self.MODEL, 2, 5.0)
        b = tr.abel_probability_floquet(self.MODEL, 2, 5.0, route="kernel")
        assert b == pytest.approx(a, rel=1e-9)

    def test_routes_agree_at_moderate_time(self):
        model = periodic_model(AmoSampling(2.0), Fraction(8, 13), 0.0)
        a = tr.abel_probability_floquet(model, 13, 150.0, route="energy")
        b = tr.abel_probability_floquet(model, 13, 150.0, route="kernel")
        assert a == pytest.approx(b, rel=1e-6)

    def test_period_one_model(self):
        m1 = PeriodicModel.from_potential([0.0])
        a = tr.abel_probability_time(FREE_CHAIN, 2, 7.0)
        for route in ("energy", "kernel"):
            assert tr.abel_probability_floquet(m1, 2, 7.0, route=route) == \
                pytest.approx(a, rel=1e-8)

    def test_auto_switches_to_kernel(self):
        val_auto = tr.abel_probability_floquet(self.MODEL, 0, 300.0)
        val_kernel = tr.abel_probability_floquet(self.MODEL, 0, 300.0,
                                                 route="kernel")
        assert val_auto == val_kernel

    def test_explicit_grid_honored(self):
        a = tr.abel_probability_floquet(self.MODEL, 2, 5.0, route="kernel",
                                        kappa_points=512)
        b = tr.abel_probability_floquet(self.MODEL, 2, 5.0, route="kernel")
        assert a == pytest.approx(b, rel=1e-6)

    def test_large_time_narrow_bands(self):
        # the kernel route stays cheap where the energy route would need
        # millions of quadrature points
        model = periodic_model(AmoSampling(2.0), Fraction(8, 13), 0.0)
        p = tr.abel_probability_floquet(model, 13, 3.6e4, route="kernel")
        assert 0.0 < p < 2.0

    def test_kernel_route_is_the_dense_pair_sum(self):
        model = periodic_model(AmoSampling(1.5), Fraction(3, 5), 0.1)
        lams, coefficients = tr._bloch_data(model, 128, [5])
        coeffs = coefficients(slice(None))[:, 0]
        dense = sum(dense_lorentz_form(lams.ravel(), part(coeffs[:, i]),
                                       8403.0)[0]
                    for i in (0, 1) for part in (np.real, np.imag))
        fast = tr.abel_probability_floquet(model, 5, 8403.0, route="kernel",
                                           kappa_points=128)
        assert fast == pytest.approx(dense, rel=1e-12)

    def test_time_route_is_the_dense_pair_sum(self):
        op = finite_operator(Chain(AmoSampling(2.0), GOLDEN, 0.3), 60)
        w, u = op.eigensystem()
        dense = sum(dense_lorentz_form(w, u[op.site_index(3 + i), :]
                                       * u[op.site_index(i), :], 40.0)[0]
                    for i in (0, 1))
        fast = tr.abel_probability_time(op, 3, 40.0)
        assert fast == pytest.approx(dense, rel=1e-12)

    def test_wide_bands_converge_within_the_grid_cap(self):
        # the free period-2 lattice needs 65,536 kappa points at T = 8403
        model = PeriodicModel.from_potential([0.0, 0.0])
        p = tr.abel_probability_floquet(model, 6, 8403.0)
        assert p == pytest.approx(free_legendre_oracle(6, 8403.0), rel=1e-6)

    def test_bad_inputs(self):
        with pytest.raises(InputError):
            tr.abel_probability_floquet(FREE_CHAIN, 0, 5.0)
        with pytest.raises(InputError):
            tr.abel_probability_floquet(self.MODEL, 0, 5.0, route="magic")
        with pytest.raises(InputError):
            tr.abel_probability_floquet(self.MODEL, 0, -1.0)
        with pytest.raises(InputError):
            tr.abel_probability_floquet(self.MODEL, 0, 5.0, kappa_points=0)


@st.composite
def floquet_windows(draw):
    """Periods 1-13 (q = 1 puts source site 1 in the next cell), negative,
    repeated and unsorted displacements, both routes, fixed grids and the
    doubling (kernel route only: the energy route's adaptive integral on
    256-point grids is too slow for many examples)."""
    q = draw(st.integers(1, 13))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    model = PeriodicModel.from_potential(rng.uniform(-1.0, 1.0, q))
    disp = draw(st.lists(st.integers(-2 * q - 2, 2 * q + 2), min_size=1,
                         max_size=6))
    route = draw(st.sampled_from(["kernel", "energy"]))
    if route == "kernel":
        time_scale = draw(st.floats(20.0, 150.0))
        kappa_points = draw(st.none() | st.sampled_from([1, 16, 96]))
    else:
        time_scale = draw(st.floats(1.0, 6.0))
        kappa_points = draw(st.sampled_from([1, 8, 24]))
    return model, disp, time_scale, route, kappa_points


@given(floquet_windows())
@settings(max_examples=30, deadline=None)
def test_window_matches_one_displacement_oracle(inputs):
    # the window shares eigensystems and pair sums across displacements;
    # each value must be the oracle's own, down to the pair sum's rounding
    # (about 1e-16 of |c|^T L |c|, hence the absolute floor)
    model, disp, time_scale, route, kappa_points = inputs
    got = tr.abel_probability_floquet(model, disp, time_scale, route=route,
                                      kappa_points=kappa_points)
    want = [floquet_oracle(model, d, time_scale, route, kappa_points)[0]
            for d in disp]
    assert got.shape == (len(disp),)
    np.testing.assert_allclose(got, want, rtol=1e-14, atol=1e-17)


class TestFloquetWindow:
    MODEL = periodic_model(AmoSampling(1.0), Fraction(1, 3), 0.2)

    def grids_of(self, monkeypatch):
        """Spy on the grids _bloch_data is called with: [(points, disp)]."""
        calls = []
        bloch = tr._bloch_data
        monkeypatch.setattr(tr, "_bloch_data", lambda m, points, d:
                            calls.append((points, [int(n) for n in d]))
                            or bloch(m, points, d))
        return calls

    def test_scalar_in_float_out(self):
        p = tr.abel_probability_floquet(self.MODEL, 3, 300.0)
        assert type(p) is float
        assert tr.abel_probability_floquet(self.MODEL, [3], 300.0).shape == (1,)

    def test_displacements_stop_on_their_own_grids(self, monkeypatch):
        # at T = 300 displacements up to 21 stop at 512 kappa points and
        # those from 24 at 1,024: the later grid solves only for those
        disp = [39, 0, 24, 21, 0]
        calls = self.grids_of(monkeypatch)
        window = tr.abel_probability_floquet(self.MODEL, disp, 300.0)
        assert calls == [(256, [0, 21, 24, 39]), (512, [0, 21, 24, 39]),
                         (1024, [24, 39])]
        for d, got in zip(disp, window):
            calls.clear()
            single = tr.abel_probability_floquet(self.MODEL, d, 300.0)
            assert got == pytest.approx(single, rel=1e-14)
            assert calls[-1][0] == (512 if d <= 21 else 1024)
            assert got == pytest.approx(
                floquet_oracle(self.MODEL, d, 300.0, "kernel")[0], rel=1e-14)

    def test_each_grid_makes_one_eigensolve_per_kappa(self, monkeypatch):
        solves = []
        eig = tr.floquet_eigensystem
        monkeypatch.setattr(tr, "floquet_eigensystem",
                            lambda m, k: solves.append(k) or eig(m, k))
        calls = self.grids_of(monkeypatch)
        tr.abel_probability_floquet(self.MODEL, [0, 24, 39], 300.0)
        assert len(solves) == sum(points for points, _ in calls)

    def test_doubling_values_equal_their_final_grid_bit_for_bit(
            self, monkeypatch):
        # a doubling call's value is its final grid's, bit for bit
        calls = self.grids_of(monkeypatch)
        for d, final in ((0, 512), (21, 512), (24, 1024), (39, 1024)):
            calls.clear()
            got = tr.abel_probability_floquet(self.MODEL, d, 300.0)
            assert calls[-1][0] == final
            assert got == tr.abel_probability_floquet(
                self.MODEL, d, 300.0, kappa_points=final)

    def test_grid_beyond_physical_memory_is_refused_before_any_solve(
            self, monkeypatch):
        # q = 4,000 and a 4,000-point window keep every residue's row:
        # 256 x 4,000 x 4,000 complex entries (61 GiB) on the first grid
        sysconf = os.sysconf
        pages = (32 << 30) // sysconf("SC_PAGE_SIZE")
        monkeypatch.setattr(os, "sysconf", lambda name: pages if
                            name == "SC_PHYS_PAGES" else sysconf(name))
        monkeypatch.setattr(tr, "floquet_eigensystem", None)
        model = PeriodicModel.from_potential(np.zeros(4000))
        for kappa_points in (None, 256):
            with pytest.raises(MemoryLimitError, match="256 kappa points"):
                tr.abel_probability_floquet(model, np.arange(4000), 300.0,
                                            kappa_points=kappa_points)

    def test_columns_split_into_chunks(self, monkeypatch):
        # 1,000 entries hold one displacement's four columns at q = 3 and
        # 64 kappa points (768 entries): five pair sums for five columns
        disp = [-4, 0, 3, 7, 11]
        whole = tr.abel_probability_floquet(self.MODEL, disp, 300.0,
                                            kappa_points=64)
        sums = []
        form = tr._lorentz_form
        monkeypatch.setattr(tr, "_COLUMN_CHUNK", 1000)
        monkeypatch.setattr(tr, "_lorentz_form", lambda lams, c, t:
                            sums.append(c.shape) or form(lams, c, t))
        split = tr.abel_probability_floquet(self.MODEL, disp, 300.0,
                                            kappa_points=64)
        assert sums == [(192, 4)] * 5
        np.testing.assert_allclose(split, whole, rtol=1e-14, atol=1e-17)

    def test_energy_route_window_equals_single_calls(self):
        disp = [2, -1, 4]
        window = tr.abel_probability_floquet(self.MODEL, disp, 5.0,
                                             route="energy", kappa_points=32)
        for d, got in zip(disp, window):
            assert got == tr.abel_probability_floquet(
                self.MODEL, d, 5.0, route="energy", kappa_points=32)

    def test_unconverged_window_names_its_displacements(self, monkeypatch):
        # the free period-2 lattice needs 65,536 points at T = 8403; with a
        # 1,024-point cap neither displacement settles
        model = PeriodicModel.from_potential([0.0, 0.0])
        monkeypatch.setattr(tr, "MAX_KAPPA_POINTS", 1024)
        with pytest.raises(NumericalError,
                           match=r"displacements \[0, 6\] last changed by "
                                 r"\S+, \S+ at 1024"):
            tr.abel_probability_floquet(model, [6, 0], 8403.0)

    def test_empty_window_rejected(self):
        with pytest.raises(InputError, match="displacement"):
            tr.abel_probability_floquet(self.MODEL, [], 300.0)


class TestSubsequenceTimes:
    def test_fast_growth_frequency_schedule(self):
        freq = construct_liouville_frequency(2.0, 2, 3)
        sch = tr.subsequence_times(freq, gamma0=math.log(1.05), delta=0.45,
                                   eps_prime=0.1256)
        assert sch.indices == (1, 2)
        assert sch.denominators[0] == 2
        assert sch.times[0] == pytest.approx(2.17, rel=0.01)
        assert sch.times[1] == pytest.approx(1.81e9, rel=0.01)
        assert sch.threshold == pytest.approx(
            3.0 * (math.log(1.05) + 2 * 0.1256) / 0.45)

    def test_slow_growth_gives_empty_schedule(self):
        golden = continued_fraction_expansion(Fraction(89, 144))
        sch = tr.subsequence_times(golden, gamma0=0.1, delta=0.25,
                                   eps_prime=0.02)
        assert sch.size == 0
        assert sch.threshold == pytest.approx(3.0 * (0.1 + 0.04) / 0.25)

    def test_astronomical_time_reported_as_inf(self):
        big = 10 ** 4000
        freq = continued_fraction_expansion(Fraction(big, 3000 * big + 1))
        sch = tr.subsequence_times(freq, gamma0=0.1, delta=0.45,
                                   eps_prime=0.05)
        assert sch.size >= 1
        assert sch.times[0] == math.inf

    def test_parameter_validation(self):
        freq = construct_liouville_frequency(2.0, 2, 3)
        with pytest.raises(InputError):
            tr.subsequence_times(freq, gamma0=0.1, delta=0.6, eps_prime=0.1)
        with pytest.raises(InputError):
            tr.subsequence_times(freq, gamma0=-0.1, delta=0.4, eps_prime=0.1)
        with pytest.raises(InputError):
            tr.subsequence_times(freq, gamma0=0.1, delta=0.4, eps_prime=0.0)
