"""Orchestrated verification suites and the desk-scale transport demo.

Each suite re-measures a family of identities, inequalities, or cross-route
agreements on an ensemble and returns a VerificationReport whose rows carry
per-instance margins.  Margins are oriented so that >= 0 means the check
passed with that much room; violations count rows with negative margin.
Exact identities and proven inequalities are expected to produce zero
violations, so a nonzero count indicates a bug (or a deliberately injected
fault, used as the negative control).
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, asdict
from fractions import Fraction
from types import SimpleNamespace

import numpy as np

from . import constants as frozen
from . import transport
from .arithmetic import (Frequency, beta_estimate,
                         construct_liouville_frequency)
from .errors import (DegeneratePointError, DepthLimitError, InputError,
                     NearDegenerateError, NumericalError, ThresholdError,
                     check_memory)
from .floquet import (band_structure, derivative_sandwich, discriminant,
                      discriminant_derivative, eigenvalue_derivative,
                      fiber_eigensystems, floquet_eigensystem,
                      floquet_matrix, interior_window,
                      measure_kappa_infimum, measure_uniform_lower_bound,
                      phi_derivative, phi_occupation_measure)
from .operator import (AmoSampling, Chain, FiniteOperator, PeriodicModel,
                       finite_operator, periodic_model)
from .quadrature import adaptive_integrate
from .transfer import (_paired_orbit, lyapunov_exponent,
                       min_lyapunov_on_spectrum)
from .transport import (DEFAULT_CONFIG, EvolutionConfig, SubsequenceSchedule,
                        _check_time_scale, abel_horizon,
                        abel_probability_floquet, abel_probability_time,
                        abel_resolvent_profile,
                        evolve, moments, subsequence_times, truncation_radius)
# kept in this namespace: perfbench's tracer wraps it under this module
from .transport import probability_distribution  # noqa: F401

#: the random ensemble's potentials are uniform in [-V_SCALE, V_SCALE] and
#: its periods uniform in [ENSEMBLE_Q_MIN, q_max]
V_SCALE = 2.0
ENSEMBLE_Q_MIN = 2
#: Floquet suite tolerances: the determinant identity (times
#: max(1, |Delta|)), the derivative and phi-derivative identities against
#: central differences, and the weight sum and orthonormality
DET_TOL = 1e-8
DERIV_REL_TOL = 1e-4
PHI_FD_REL_TOL = 1e-3
WEIGHT_TOL = 1e-10
#: kappa grid of the lower-bound scan's measure infimum, and the share of
#: the smallest measured ratio a re-calibration freezes
SCAN_KAPPA_GRID = 64
CALIBRATION_SAFETY = 0.5
#: longest paired orbit (two approximant periods) the Gordon diagnostic runs
MAX_ORBIT = 1_000_000
#: cocycle steps and phases of the theorem demo's growth-rate probe
PROBE_STEPS = 2000
PROBE_THETAS = 32


@dataclass(frozen=True)
class VerificationReport:
    """Result of one verification suite.

    artifacts is a tuple of per-instance dict rows; every row has at least
    'check', 'margin' (>= 0 means pass), and 'ok'.  worst_margin is the
    smallest margin over the rows not marked 'below_floor'.
    config_snapshot records the tolerances and ensemble parameters the
    margins were measured against.
    """

    check_id: str
    instances: int
    violations: int
    worst_margin: float
    artifacts: tuple
    config_snapshot: dict

    def rows(self, check: str) -> tuple:
        return tuple(r for r in self.artifacts if r["check"] == check)


def _make_report(check_id: str, rows, snapshot: dict) -> VerificationReport:
    rows = tuple(rows)
    violations = sum(1 for r in rows if not r["ok"])
    worst = min((r["margin"] for r in rows if not r.get("below_floor")),
                default=math.inf)
    return VerificationReport(check_id=check_id, instances=len(rows),
                              violations=violations, worst_margin=float(worst),
                              artifacts=rows, config_snapshot=snapshot)


def random_periodic_ensemble(count: int = 20, q_max: int = 8,
                             seed: int = 0) -> tuple:
    """Random-potential PeriodicModels with q uniform in
    [ENSEMBLE_Q_MIN, q_max]."""
    if q_max < ENSEMBLE_Q_MIN:
        raise InputError(f"need q_max >= {ENSEMBLE_Q_MIN}, got {q_max}")
    if count < 1:
        raise InputError(f"count must be >= 1, got {count}")
    rng = np.random.default_rng(seed)
    models = []
    for _ in range(count):
        q = int(rng.integers(ENSEMBLE_Q_MIN, q_max + 1))
        v = rng.uniform(-V_SCALE, V_SCALE, q)
        models.append(PeriodicModel.from_potential(v))
    return tuple(models)


# ---------------------------------------------------------------------------
# Verification checks: the Floquet ones run on one ensemble model per case,
# the transport ones on one case for the whole suite
# ---------------------------------------------------------------------------

def _under(value, limit, rel: bool = True, strict: bool = True) -> dict:
    """Row fields of a check that value stays under limit: margin
    (limit - value) / limit, or limit - value when not rel; ok when
    value < limit, or value <= limit when not strict."""
    return {"margin": (limit - value) / limit if rel else limit - value,
            "ok": value < limit if strict else value <= limit}


class _FloquetCase:
    """One ensemble model, every random input its checks read, and the
    suite's negative-control switch.  All draws are made here, in one
    order, so a check's rows do not depend on which other checks run."""

    def __init__(self, idx: int, model: PeriodicModel, seed: int,
                 samples: int, corrupt_corner: bool):
        q = model.q
        self.model, self.q, self.bound = model, q, model.norm_bound
        self.corrupt_corner = corrupt_corner
        self.tags = {"model": idx, "q": q}
        rng = np.random.default_rng([seed, idx])
        self.kappas_open = (rng.uniform(1e-3, 1.0 - 1e-3, samples)
                            * (math.pi / q)).tolist()
        self.kappas_mid = (rng.uniform(0.1, 0.9, samples)
                           * (math.pi / q)).tolist()
        self.energies = rng.uniform(-self.bound, self.bound, samples).tolist()
        self.band_picks = rng.integers(1, q + 1, samples).tolist()
        win_lo, win_hi = interior_window(q)
        self.kappas_interior = (win_lo + rng.uniform(0.0, 1.0, samples)
                                * (win_hi - win_lo)).tolist()
        self.chebyshev_band = int(rng.integers(1, q + 1))

    @functools.cached_property
    def bands(self):
        return band_structure(self.model)

    def slopes(self, kappas):
        """Central differences of the eigenvalues and of the weights, each
        (K, q), from one stacked solve of the 2K shifted fibers."""
        h = 1e-5 * math.pi / self.q
        k = np.asarray(kappas, dtype=float)
        lams, phis = fiber_eigensystems(self.model,
                                        np.concatenate([k - h, k + h]))
        return ((lams[k.size:] - lams[:k.size]) / (2 * h),
                (phis[k.size:] - phis[:k.size]) / (2 * h))


def _determinant(case):
    q = case.q
    discs = discriminant(case.model, case.energies).tolist()
    for kap, e, disc in zip(case.kappas_open, case.energies, discs):
        a = floquet_matrix(case.model, kap)
        if case.corrupt_corner:
            a[0, q - 1] *= np.exp(0.3j)
        lhs = np.linalg.det(a - e * np.eye(q))
        target = disc + 2.0 * (-1.0) ** (q - 1) * math.cos(q * kap)
        diff = abs(lhs - target)
        tol = DET_TOL * max(1.0, abs(disc))
        yield {"kappa": kap, "energy": e, "difference": diff,
               "tolerance": tol, **_under(diff, tol)}


def _derivative(case):
    lams = fiber_eigensystems(case.model, case.kappas_mid)[0]
    fds = case.slopes(case.kappas_mid)[0]
    for kap, j, lam, fd in zip(case.kappas_mid, case.band_picks, lams, fds):
        gaps = np.diff(lam)
        if gaps.size and float(np.min(gaps)) < 1e-6 * max(1.0, case.bound):
            yield None
            continue
        try:
            ident = eigenvalue_derivative(case.model, kap, j)
        except DegeneratePointError:
            yield None
            continue
        fd = float(fd[j - 1])
        if abs(fd) < 1e-9:
            yield None
            continue
        rel = abs(ident - fd) / max(abs(fd), abs(ident))
        yield {"kappa": kap, "band": j, "identity": ident,
               "finite_difference": fd, "rel_error": rel,
               **_under(rel, DERIV_REL_TOL)}


def _last(case):
    model, q = case.model, case.q
    lams = fiber_eigensystems(model, case.kappas_open)[0]
    dprimes = discriminant_derivative(model, lams).tolist()
    bands = case.bands.bands
    edges = discriminant(model, [(band.lo, band.hi) for band in bands])
    uppers = (math.e * np.abs(edges[:, 0] - edges[:, 1])).tolist()
    for kap, dprime in zip(case.kappas_open, dprimes):
        lhs = (1.0 + math.sqrt(5.0)) * (1.0 - abs(math.cos(q * kap)))
        for band, d, rhs in zip(bands, dprime, uppers):
            mid = band.width * abs(d)
            m = min(mid - lhs, rhs - mid, 4.0 * math.e + 1e-6 - mid)
            yield {"kappa": kap, "band": band.j, "lower": lhs, "middle": mid,
                   "upper": rhs, "margin": m, "ok": m >= -1e-9}


def _sandwich(case):
    slopes = np.abs(case.slopes(case.kappas_open)[0]).tolist()
    for kap, row in zip(case.kappas_open, slopes):
        for band, fd in zip(case.bands.bands, row):
            low, up = derivative_sandwich(case.model, kap, width=band.width)
            m = min(fd - low * (1.0 - 1e-6) + 1e-12,
                    up * (1.0 + 1e-6) + 1e-12 - fd)
            yield {"kappa": kap, "band": band.j, "lower": low,
                   "value": fd, "upper": up, "margin": m, "ok": m >= 0.0}


def _weights(case):
    q = case.q
    phis = fiber_eigensystems(case.model, case.kappas_open)[1]
    for kap, phi in zip(case.kappas_open, phis):
        _, u = floquet_eigensystem(case.model, kap)
        mass_err = abs(float(np.sum(phi)) - 2.0)
        ortho_err = float(np.max(np.abs(u.conj().T @ u - np.eye(q))))
        m = min(WEIGHT_TOL - mass_err, WEIGHT_TOL * q - ortho_err)
        yield {"kappa": kap, "mass_error": mass_err,
               "orthonormality_error": ortho_err, "margin": m,
               "ok": m >= 0.0}


def _symmetry(case):
    tol = 1e-10 * max(1.0, case.bound)
    kappas, n = case.kappas_open, len(case.kappas_open)
    both = fiber_eigensystems(case.model, kappas + [-k for k in kappas])
    diffs = (np.max(np.abs(v[:n] - v[n:]), axis=1).tolist() for v in both)
    for kap, d_lam, d_phi in zip(kappas, *diffs):
        yield {"kappa": kap, "eigenvalue_difference": d_lam,
               "weight_difference": d_phi,
               **_under(max(d_lam, d_phi), tol, rel=False, strict=False)}


def _phi_bound(case):
    q = case.q
    fds = case.slopes(case.kappas_interior)[1]
    for kap, j, fd in zip(case.kappas_interior, case.band_picks, fds):
        try:
            dphi = phi_derivative(case.model, kap, j)
        except NearDegenerateError:
            yield None
            continue
        fd = float(fd[j - 1])
        width = case.bands.band(j).width
        bound_pt = 8.0 * math.e * q * q \
            / (width * (1.0 - abs(math.cos(q * kap))))
        if abs(dphi) > 1e-8:
            fd_rel = abs(dphi - fd) / abs(dphi)
            fd_ok = fd_rel < PHI_FD_REL_TOL
        else:
            fd_rel = abs(dphi - fd)
            fd_ok = fd_rel < 1e-8
        m = bound_pt - abs(dphi)
        yield {"kappa": kap, "band": j, "value": dphi,
               "finite_difference": fd, "fd_mismatch": fd_rel,
               "bound": bound_pt, "margin": m if fd_ok else -fd_rel,
               "ok": m >= 0.0 and fd_ok}


def _chebyshev(case):
    model, q, bs = case.model, case.q, case.bands
    b0 = bs.band(case.chebyshev_band)
    half = max(0.75 * b0.width, 0.05)
    interval = (b0.center - half, b0.center + half)
    eta_inf, _ = measure_kappa_infimum(model, interval, kappa_grid=64)
    if eta_inf <= 1e-9:
        yield None
        return
    eta = 0.999 * eta_inf
    target = math.pi / (2.0 * q * q)
    occ_best, j_best = -math.inf, 0
    for j in range(1, q + 1):
        if not bs.band(j).intersects(*interval):
            continue
        occ = phi_occupation_measure(model, j, eta / q)
        if occ > occ_best:
            occ_best, j_best = occ, j
    yield {"eta": eta, "band": j_best, "occupation": occ_best,
           "required": target, "margin": occ_best - target,
           "ok": occ_best > target}


def _routes(case):
    """Rows whose three routes all fall below the 1e-12 floor compare
    rounding noise: they keep the pass rule, are marked below_floor, and
    are left out of worst_margin."""
    for idx, model in enumerate(case.models):
        q = model.q
        n_max = max(1, case.max_site // q)
        ns = list(range(-n_max, n_max + 1))
        disp = [n * q for n in ns]
        for t_scale in case.time_scales:
            by_time = abel_probability_time(model, disp, t_scale)
            prof = abel_resolvent_profile(model, disp, t_scale)
            floq = abel_probability_floquet(model, disp, t_scale,
                                            route="kernel")
            for k, n in enumerate(ns):
                p_time = float(by_time[k])
                p_res = float(prof[k])
                p_floq = float(floq[k])
                den = max(p_time, p_res, p_floq, 1e-12)
                worst = max(abs(p_time - p_res), abs(p_time - p_floq),
                            abs(p_res - p_floq)) / den
                yield {"model": idx, "q": q, "time_scale": t_scale, "n": n,
                       "p_time": p_time, "p_resolvent": p_res,
                       "p_floquet": p_floq, "rel_disagreement": worst,
                       "below_floor": bool(max(p_time, p_res, p_floq) < 1e-12),
                       **_under(worst, case.route_rel_tol)}


def _unitarity(case):
    t_scale = case.time_scales[0]
    for idx, model in enumerate(case.models):
        op = finite_operator(model, truncation_radius(t_scale, 1))
        horizon = abel_horizon(t_scale)
        for frac in (0.3, 0.6, 1.0):
            t = frac * horizon
            psi = evolve(op, [t])[0]
            err = abs(float(np.sum(np.abs(psi) ** 2)) - 1.0)
            yield {"model": idx, "time": t, "error": err,
                   **_under(err, 1e-8, rel=False)}


def _ct(case):
    free = FiniteOperator(np.zeros(401), 200)
    col = free.resolvent(3.0j)[:, 0]
    ns_fit = np.arange(5, 61)
    mags = np.abs(col[[free.site_index(int(n)) for n in ns_fit]])
    slope = float(np.polyfit(ns_fit, np.log(mags), 1)[0])
    slope_mag = -slope
    need = 0.9 * frozen.CT_RATE * min(3.0, 1.0)
    yield {"kind": "fit", "z_im": 3.0, "slope": slope_mag, "required": need,
           "margin": (slope_mag - need) / need, "ok": slope_mag >= need}
    audit = [("free", free, 3.0j)]
    for idx, model in enumerate(case.models):
        op = finite_operator(model, 200)
        audit.append((f"model{idx}", op, 0.3 + 1.5j))
    for name, op, z in audit:
        col = op.resolvent(z)[:, 0]
        dist = abs(z.imag)
        sites = np.arange(-op.N, op.N + 1)
        env = (frozen.CT_PREFACTOR / dist) \
            * np.exp(-frozen.CT_RATE * min(dist, 1.0) * np.abs(sites))
        mags = np.abs(col)
        rel = np.min((env - mags) / env)
        yield {"kind": "envelope", "instance": name, "z_im": dist,
               "margin": float(rel), "ok": bool(rel > 0.0)}


def _ballistic(case):
    sources = [("free", PeriodicModel.from_potential([0.0]))] + \
        [(f"model{i}", m) for i, m in enumerate(case.models)]
    for t in (2.0, 5.0, 10.0):
        radius = int(math.ceil(4.0 * t)) + 60
        for name, model in sources:
            op = finite_operator(model, radius)
            psi = np.abs(evolve(op, [t])[0])
            sites = np.arange(-radius, radius + 1)
            mask = np.abs(sites) > 4.0 * t
            env = frozen.BALLISTIC_PREFACTOR \
                * np.exp(-0.25 * np.abs(sites[mask]))
            rel = np.min((env - psi[mask]) / env)
            yield {"instance": name, "time": t, "margin": float(rel),
                   "ok": bool(rel > 0.0)}


def _moments(case):
    free10, free20 = (finite_operator(PeriodicModel.from_potential([0.0]),
                                      truncation_radius(t, 1))
                      for t in (10.0, 20.0))
    m10 = moments(free10, 10.0, orders=(2,)).moment(2)
    m20 = moments(free20, 20.0, orders=(2,)).moment(2)
    ratio = m20 / m10
    err = abs(ratio / 4.0 - 1.0)
    yield {"kind": "free_scaling", "ratio": ratio, "error": err,
           **_under(err, 0.05)}
    audit = [("free", free20, 20.0), ("free", free10, 10.0)]
    for idx, model in enumerate(case.models):
        for t_scale in (5.0, 20.0):
            op = finite_operator(model, truncation_radius(t_scale, 1))
            audit.append((f"model{idx}", op, t_scale))
    for name, op, t_scale in audit:
        mom = moments(op, t_scale, orders=(1, 2, 4))
        for p in (1, 2, 4):
            env = frozen.MOMENT_PREFACTOR * math.factorial(p) \
                * (t_scale ** p + 1.0)
            val = mom.moment(p)
            yield {"kind": "envelope", "instance": name,
                   "time_scale": t_scale, "order": p, "value": val,
                   "envelope": env, **_under(val, env, strict=False)}
    small = moments(case.q2_model, 0.01, orders=(2,)).moment(2)
    yield {"kind": "small_time", "value": small,
           **_under(small, 1e-2, rel=False)}


def _truncation(case):
    t_scale = case.time_scales[0]
    r0 = truncation_radius(t_scale, 2)
    p1 = abel_probability_time(case.q2_model, 1, t_scale, radius=r0)
    p2 = abel_probability_time(case.q2_model, 1, t_scale, radius=2 * r0)
    diff = abs(p1 - p2)
    tol = transport.TAIL_TOLERANCE
    yield {"kind": "doubling", "difference": diff, "tolerance": tol,
           **_under(diff, tol)}
    env = frozen.TRUNC_PREFACTOR \
        * math.exp(-frozen.TRUNC_RATE * transport.TRUNCATION_PAD)
    yield {"kind": "envelope", "difference": diff, "envelope": env,
           **_under(diff, env, strict=False)}


def _abel(case):
    t_scale = case.time_scales[0]
    op = finite_operator(case.q2_model, truncation_radius(t_scale, 2))
    horizon = abel_horizon(t_scale)
    for n in (0, 1):
        p_kernel = abel_probability_time(op, n, t_scale)

        def integrand(ts):
            a0 = evolve(op, ts, 0, [n])[:, 0]
            a1 = evolve(op, ts, 1, [n + 1])[:, 0]
            w = (2.0 / t_scale) * np.exp(-2.0 * np.asarray(ts) / t_scale)
            return w * (np.abs(a0) ** 2 + np.abs(a1) ** 2)

        i1 = adaptive_integrate(integrand, 0.0, horizon, rel_tol=1e-9).value
        i2 = adaptive_integrate(integrand, 0.0, 2.0 * horizon,
                                rel_tol=1e-9).value
        rel_t = abs(i2 - i1) / max(i1, i2)
        yield {"kind": "horizon_doubling", "n": n, "rel_change": rel_t,
               **_under(rel_t, 1e-6)}
        rel_k = abs(i2 - p_kernel) / p_kernel
        yield {"kind": "kernel_agreement", "n": n, "rel_difference": rel_k,
               **_under(rel_k, 1e-6)}


def _t0(case):
    op = finite_operator(case.q2_model, 64)
    delta = np.zeros(op.dimension)
    delta[op.site_index(0)] = 1.0
    psi = evolve(op, [0.0])[0]
    err = float(np.max(np.abs(psi - delta)))
    yield {"kind": "evolution", "error": err,
           **_under(err, 1e-12, rel=False)}
    a = evolve(op, [0.0], 0, [0])[0, 0]
    err_a = abs(a - 1.0)
    yield {"kind": "amplitude", "error": err_a,
           **_under(err_a, 1e-12, rel=False)}


# ---------------------------------------------------------------------------
# The check table and the two suites
# ---------------------------------------------------------------------------

#: check name -> (suite, run), in run order.  run(case) yields one row per
#: instance, or None for an instance it skips.  Both suites and
#: `qpt verify` take their check names from here.
CHECKS = {
    "determinant": ("floquet", _determinant),
    "derivative": ("floquet", _derivative),
    "last": ("floquet", _last),
    "sandwich": ("floquet", _sandwich),
    "weights": ("floquet", _weights),
    "symmetry": ("floquet", _symmetry),
    "phi_bound": ("floquet", _phi_bound),
    "chebyshev": ("floquet", _chebyshev),
    "routes": ("transport", _routes),
    "unitarity": ("transport", _unitarity),
    "ct": ("transport", _ct),
    "ballistic": ("transport", _ballistic),
    "moments": ("transport", _moments),
    "truncation": ("transport", _truncation),
    "abel": ("transport", _abel),
    "t0": ("transport", _t0),
}


def suite_checks(suite: str) -> tuple:
    """The names of one suite's checks, in run order."""
    return tuple(name for name, (s, _) in CHECKS.items() if s == suite)


def _run_suite(check_id: str, suite: str, checks, cases,
               snapshot: dict) -> VerificationReport:
    """Run the selected checks (all when None) of one suite on each case,
    in table order, tagging every row with its check name and the case's
    tags.  Unknown names are rejected before any case is built."""
    known = suite_checks(suite)
    checks = known if checks is None else tuple(checks)
    unknown = set(checks) - set(known)
    if unknown:
        raise InputError(f"unknown checks {sorted(unknown)}")
    rows, skipped = [], dict.fromkeys(checks, 0)
    for case in cases:
        for name in (n for n in known if n in checks):
            for row in CHECKS[name][1](case):
                if row is None:
                    skipped[name] += 1
                else:
                    rows.append({"check": name, **case.tags, **row})
    snapshot["checks"] = list(checks)
    if suite == "floquet":  # only sampled checks skip instances
        snapshot["skipped"] = skipped
    return _make_report(check_id, rows, snapshot)


def floquet_identity_suite(models=None, count: int = 20, q_max: int = 8,
                           seed: int = 0, checks=None,
                           samples_per_model: int = 4,
                           corrupt_corner: bool = False) -> VerificationReport:
    """Re-measure the fiber-matrix identities and inequalities on an ensemble.

    corrupt_corner=True multiplies one corner of the fiber matrix by a
    spurious phase in the determinant check; the report must then show
    violations (negative control for the detection machinery).
    """
    if samples_per_model < 0:
        raise InputError(f"samples_per_model must be >= 0, got "
                         f"{samples_per_model}")
    if models is None:
        models = random_periodic_ensemble(count, q_max, seed)
    # last's batch: E - V over a period's sites, 2 shifts, (kappa, band)
    q = max((m.q for m in models), default=1)
    check_memory(8 * samples_per_model * q * (4 * q + 8),
                 f"a Floquet case of {samples_per_model} samples at q = {q}")
    cases = (_FloquetCase(idx, model, seed, samples_per_model, corrupt_corner)
             for idx, model in enumerate(models))
    snapshot = {"count": len(models), "q_max": q_max, "seed": seed,
                "samples_per_model": samples_per_model,
                "corrupt_corner": corrupt_corner,
                "constants": {"V_SCALE": V_SCALE, "DET_TOL": DET_TOL,
                              "DERIV_REL_TOL": DERIV_REL_TOL,
                              "WEIGHT_TOL": WEIGHT_TOL,
                              "PHI_FD_REL_TOL": PHI_FD_REL_TOL}}
    return _run_suite("floquet_identities", "floquet", checks, cases,
                      snapshot)


def transport_consistency_suite(models=None, time_scales=(5.0, 20.0),
                                checks=None, max_site: int = 60,
                                route_rel_tol: float = 1e-3
                                ) -> VerificationReport:
    """Cross-route agreement plus the calibrated transport envelopes.

    The three probability routes (eigendecomposition kernel, and resolvent
    integral and fiber sum at DEFAULT_CONFIG) are compared on the periodic
    displacements n*q; the decay and growth envelopes are audited against
    the frozen constants.
    """
    if models is None:
        models = (PeriodicModel.from_potential([1.0, -1.0]),
                  periodic_model(AmoSampling(1.0), Fraction(2, 5), 0.1))
    time_scales = tuple(float(t) for t in time_scales)
    if not time_scales:
        raise InputError("need at least one time scale")
    q2 = [m for m in models if m.q == 2]
    case = SimpleNamespace(
        models=models, time_scales=time_scales, max_site=max_site,
        route_rel_tol=route_rel_tol, tags={},
        q2_model=q2[0] if q2 else PeriodicModel.from_potential([1.0, -1.0]))
    snapshot = {"models": [list(np.asarray(m.potential)) for m in models],
                "time_scales": list(time_scales), "max_site": max_site,
                "route_rel_tol": route_rel_tol,
                "config": asdict(DEFAULT_CONFIG),
                "constants": {
                    **{n: getattr(frozen, n) for n in (
                        "CT_RATE", "CT_PREFACTOR", "BALLISTIC_PREFACTOR",
                        "MOMENT_PREFACTOR", "TRUNC_RATE", "TRUNC_PREFACTOR")},
                    **{n: getattr(transport, n) for n in
                       (*transport.TIME_ROUTE_CONSTANTS, "MAX_KAPPA_POINTS")}}}
    return _run_suite("transport_consistency", "transport", checks, [case],
                      snapshot)


# ---------------------------------------------------------------------------
# Lower-bound scan
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class LowerBoundScan:
    """One run of the band lower-bound mechanism on a periodic instance.

    pairs holds (n, P_measured, rhs) with rhs = c eta^2 / (q^6 ell T);
    window is the inclusive integer range scanned, drawn from the open real
    window (cap q^4 / (eta ell), c1 eta ell T / q^4).
    """

    q: int
    theta: float
    eta: float
    band_index: int
    band_width: float
    time_scale: float
    window: tuple
    pairs: tuple
    constants: tuple
    threshold_time: float

    @property
    def fraction_satisfied(self) -> float:
        if not self.pairs:
            return 0.0
        return sum(1 for _, p, r in self.pairs if p >= r) / len(self.pairs)

    @property
    def ratios(self) -> tuple:
        """(n, P q^6 ell T / eta^2) per scanned point: the c each P meets."""
        return tuple((n, p * self.q ** 6 * self.band_width * self.time_scale
                      / self.eta ** 2) for n, p, _ in self.pairs)

    @property
    def min_ratio(self) -> float:
        return min(r for _, r in self.ratios)

    @property
    def suggested_c(self) -> float:
        """The constant a re-calibration would freeze from this scan."""
        return CALIBRATION_SAFETY * self.min_ratio


def _lower_constants(constants) -> tuple:
    """(c, c1, cap), the frozen ones for None; InputError unless all three
    are finite with c1 > 0 and cap >= 0."""
    constants = tuple(constants) if constants is not None else \
        (frozen.LOWER_C, frozen.LOWER_C1, frozen.LOWER_CAP)
    if not (len(constants) == 3 and all(map(math.isfinite, constants))
            and constants[1] > 0 and constants[2] >= 0):
        raise InputError(f"lower-bound constants (c, c1, cap) must be finite "
                         f"with c1 > 0 and cap >= 0, got {constants}")
    return constants


def minimal_admissible_time(q: int, eta: float, ell: float,
                            constants=None) -> float:
    """Smallest T at which the scan window contains an integer.

    The max of the closed threshold form (cap/c1) eta^-2 q^8 ell^-2 + 1 and
    the time placing the first admissible integer below the upper edge.
    """
    _, c1, cap = _lower_constants(constants)
    if eta <= 0 or ell <= 0:
        raise InputError("eta and ell must be positive")
    lo = cap * q ** 4 / (eta * ell)
    n0 = math.floor(lo) + 1
    t_integer = n0 * q ** 4 / (c1 * eta * ell)
    t_form = (cap / c1) * eta ** -2 * q ** 8 * ell ** -2 + 1.0
    return max(t_integer, t_form)


def _scan_window(model: PeriodicModel, interval, time_scale: float,
                 constants):
    _, c1, cap = constants
    q = model.q
    if q < 2:
        raise InputError("the lower-bound scan needs q >= 2")
    _check_time_scale(time_scale)
    eta, _ = measure_kappa_infimum(model, interval, SCAN_KAPPA_GRID)
    if eta <= 0:
        raise InputError(
            f"measure infimum vanishes on {interval}; the lower-bound "
            "hypothesis needs eta > 0")
    meeting = [band for band in band_structure(model).bands
               if band.intersects(*interval) and band.width > 0]
    if not meeting:
        raise InputError(
            f"no band intersects {interval} despite eta = {eta:.3g}")
    band = max(meeting, key=lambda band: band.width)  # the first on ties
    j, ell = band.j, band.width
    lo = cap * q ** 4 / (eta * ell)
    hi = c1 * eta * ell * time_scale / q ** 4
    n_lo = math.floor(lo) + 1
    n_hi = math.ceil(hi) - 1
    threshold = minimal_admissible_time(q, eta, ell, constants)
    if n_lo > n_hi:
        raise ThresholdError(
            f"scan window ({lo:.4g}, {hi:.4g}) contains no integer at "
            f"T = {time_scale:.4g}; minimal admissible T is {threshold:.4g}",
            minimal_admissible=threshold)
    return eta, j, ell, n_lo, n_hi, threshold


def _window_integers(n_lo: int, n_hi: int, max_points: int):
    count = n_hi - n_lo + 1
    if count <= max_points:
        return list(range(n_lo, n_hi + 1))
    picks = np.unique(np.linspace(n_lo, n_hi, max_points).round()
                      .astype(int))
    return [int(n) for n in picks]


def lower_bound_scan(model: PeriodicModel, interval, time_scale: float,
                     constants=None,
                     config: EvolutionConfig = DEFAULT_CONFIG,
                     max_points: int = 256) -> LowerBoundScan:
    """Measure P(nq; T) across the admissible window of the band
    lower bound and compare against c eta^2 / (q^6 ell T).

    The band is the widest one that meets the interval (the first of equal
    widths): as ell grows the window's lower edge cap q^4 / (eta ell)
    falls and its upper edge c1 eta ell T / q^4 rises, so the widest
    band's window holds every other band's.  That needs c1 > 0 and
    cap >= 0, so other constants, or non-finite ones, raise InputError.
    Raises ThresholdError with the minimal admissible T when the window
    holds no integer.
    """
    constants = _lower_constants(constants)
    c = constants[0]
    eta, j, ell, n_lo, n_hi, threshold = _scan_window(
        model, interval, time_scale, constants)
    q = model.q
    rhs = c * eta ** 2 / (q ** 6 * ell * time_scale)
    ns = _window_integers(n_lo, n_hi, max_points)
    probs = abel_probability_floquet(model, np.array(ns) * q, time_scale,
                                     config)
    pairs = [(n, float(p), rhs) for n, p in zip(ns, probs)]
    return LowerBoundScan(q=q, theta=model.theta, eta=eta, band_index=j,
                          band_width=ell, time_scale=float(time_scale),
                          window=(n_lo, n_hi), pairs=tuple(pairs),
                          constants=constants, threshold_time=threshold)


def calibrate_lower_bound(model: PeriodicModel, interval, time_scale: float,
                          config: EvolutionConfig = DEFAULT_CONFIG,
                          max_points: int = 256) -> LowerBoundScan:
    """Regenerate the lower-bound constant on an instance: the window scan
    with c left free (0) and the frozen c1 and cap.  The test suite compares
    its suggested_c against the frozen value."""
    return lower_bound_scan(model, interval, time_scale,
                            (0.0, frozen.LOWER_C1, frozen.LOWER_CAP),
                            config, max_points)


# ---------------------------------------------------------------------------
# Bandwidth trend check
# ---------------------------------------------------------------------------

def bandwidth_proposition_check(f, freq: Frequency, depths,
                                theta: float = 0.0, epsilon: float = 0.2,
                                theta_count: int = 256) -> VerificationReport:
    """Per-depth minima of log(ell_j)/q + gamma_hat(band center).

    The growth-rate estimate is scale-matched: at depth m it runs the
    cocycle for q_m steps, probing the same resolution the bands live at
    (an asymptotic-length estimate would overshoot the finite-q bandwidth
    decay and push the minima below any fixed -epsilon).  Violations count
    minima below -epsilon and adjacent-depth decreases.
    """
    depths = [int(m) for m in np.atleast_1d(depths)]
    if not depths:
        raise InputError("need at least one depth")
    alpha_float = freq.float_value
    rows = []
    minima = []
    done = 0
    for m in depths:
        am = freq.convergent(m)
        qm = am.denominator
        if qm < 2:
            raise InputError(
                f"convergent {m} has denominator {qm}; the band check "
                "needs q >= 2")
        if qm > 4096:
            raise DepthLimitError(
                f"depth {m} needs period q = {qm}, past the computable "
                "band-structure budget", achieved_depth=done)
        model = periodic_model(f, am, theta)
        bs = band_structure(model)
        widths = bs.widths
        if float(np.min(widths)) < 1e-300:
            raise DepthLimitError(
                f"bandwidth underflow at depth {m} (q = {qm}): smallest "
                f"band {float(np.min(widths)):.3g}", achieved_depth=done)
        gams = lyapunov_exponent(f, alpha_float, bs.centers, n_steps=qm,
                                 theta_count=theta_count).gamma_hat.tolist()
        val, j, gam = min((math.log(w) / qm + g, j, g) for j, (w, g)
                          in enumerate(zip(widths, gams), start=1))
        rows.append({"check": "minimum", "depth": m, "q": qm,
                     "min_value": val, "band": j, "gamma_hat": gam,
                     "width": float(widths[j - 1]),
                     "margin": val + epsilon, "ok": val >= -epsilon})
        minima.append(val)
        done += 1
    if len(minima) < 2:
        trend = "insufficient depths"
    else:
        drops = [i for i in range(len(minima) - 1)
                 if minima[i + 1] < minima[i] - 1e-9]
        trend = "nondecreasing" if not drops else \
            f"decreasing at depth steps {drops}"
        for i in range(len(minima) - 1):
            gain = minima[i + 1] - minima[i]
            rows.append({"check": "trend", "from_depth": depths[i],
                         "to_depth": depths[i + 1], "gain": gain,
                         "margin": gain + 1e-9, "ok": gain >= -1e-9})
    snapshot = {"depths": depths, "theta": theta, "epsilon": epsilon,
                "theta_count": theta_count, "n_steps": "q_m (scale-matched)",
                "trend": trend}
    return _make_report("bandwidth_proposition", rows, snapshot)


# ---------------------------------------------------------------------------
# Gordon diagnostic
# ---------------------------------------------------------------------------

def gordon_diagnostic(f, freq: Frequency, energy: float, depths,
                      theta: float = 0.0, u=(1.0, 0.0)) -> VerificationReport:
    """Per-depth near-periodicity differences and the four-block statistic.

    For each depth the periodic block A over one period of the approximant
    satisfies max(||A^2 u||, ||A u||, ||A^-1 u||, ||A^-2 u||) >= 1/2; the
    quasiperiodic orbit's matching four values must then stay above
    1/2 - difference, where difference is the worst applied-vector gap
    between the two orbits over two periods (both directions).  One paired
    orbit per direction yields all three: the gaps, the quasiperiodic
    values and the periodic block values.  Overflow at a depth, a
    convergent outside (0, 1), or an orbit longer than MAX_ORBIT,
    truncates the report there.
    """
    depths = [int(m) for m in np.atleast_1d(depths)]
    if not depths:
        raise InputError("need at least one depth")
    alpha = freq.float_value
    u_arr = np.asarray(u, dtype=float)
    if abs(float(np.linalg.norm(u_arr)) - 1.0) > 1e-8:
        raise InputError(f"u must be a unit vector, got norm "
                         f"{np.linalg.norm(u_arr)}")
    rows = []
    diffs = []
    truncated_at = None
    reason = ""
    for m in depths:
        am = freq.convergent(m)
        qm = am.denominator
        if 2 * qm > MAX_ORBIT:
            truncated_at = m
            reason = f"orbit length {2 * qm} exceeds max_orbit {MAX_ORBIT}"
            break
        # column 0 is the true orbit, column 1 the approximant's, whose
        # values at n = q and 2q are A u and A^2 u for the period block A
        # (A^-1 u and A^-2 u backward)
        gaps, quasi_values, periodic_values = [], [], []
        try:
            for backward in (False, True):
                orbit = _paired_orbit(f, alpha, am, theta, energy, 2 * qm,
                                      u_arr, backward)
                steps = []
                for n, (x, y, _) in enumerate(orbit, 1):
                    steps.append(math.hypot(x[0] - x[1], y[0] - y[1]))
                    if n % qm == 0:
                        quasi_values.append(math.hypot(x[0], y[0]))
                        periodic_values.append(math.hypot(x[1], y[1]))
                gaps.append(max(steps))
        except (NumericalError, InputError) as exc:
            truncated_at = m
            reason = str(exc)
            break
        d_fwd, d_bwd = gaps
        quasi, stat_p = max(quasi_values), max(periodic_values)
        difference = max(d_fwd, d_bwd)
        bound = 0.5 - difference
        margin = quasi - bound
        rows.append({"check": "four_block", "depth": m, "q": qm,
                     "difference": difference, "difference_forward": d_fwd,
                     "difference_backward": d_bwd,
                     "statistic_quasi": quasi, "statistic_periodic": stat_p,
                     "bound": bound, "margin": margin + 1e-9,
                     "ok": margin >= -1e-9})
        diffs.append(difference)
    if len(diffs) < 2:
        trend = "insufficient depths"
    else:
        trend = "decreasing" if all(diffs[i + 1] < diffs[i]
                                    for i in range(len(diffs) - 1)) \
            else "not decreasing"
    snapshot = {"energy": energy, "theta": theta, "depths": depths,
                "difference_trend": trend, "truncated_at_depth": truncated_at,
                "truncation_reason": reason}
    return _make_report("gordon_diagnostic", rows, snapshot)


# ---------------------------------------------------------------------------
# Theorem demo
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class TheoremDemoPoint:
    """One scheduled time scale of the demo, with its grid minima."""

    k: int
    convergent_index: int
    q: int
    time_scale: float
    feasible: bool
    required_radius: int | None = None
    min_moments: dict | None = None
    argmin_theta: dict | None = None
    refined_change: float | None = None
    ratio_plain: dict | None = None
    ratio_log: dict | None = None
    note: str = ""


@dataclass(frozen=True)
class TheoremDemoReport:
    """End-to-end demo artifacts: probe, construction, schedule, minima."""

    gamma0: float
    gamma0_clamped: bool
    e0: float
    epsilon: float
    interval: tuple
    eta: float
    eta_by_depth: tuple
    #: (q, phases whose interval meets no band, phases) per eta_by_depth
    #: row: eta is 0.0 once one phase has no band there
    bandless_phases_by_depth: tuple
    eta_cauchy_gap: float | None
    beta_target: float
    beta_hat: float
    eps_prime: float
    threshold: float
    frequency: Frequency
    schedule: SubsequenceSchedule
    points: tuple
    config_snapshot: dict

    @property
    def feasible_points(self) -> tuple:
        return tuple(p for p in self.points if p.feasible)


def theorem_demo(f, delta: float, depth_budget: int = 3, p_list=(1, 2),
                 theta_grid: int = 64, beta_target: float = 2.0,
                 max_radius: int = 2500) -> TheoremDemoReport:
    """Desk-scale run of the moment lower-bound pipeline.

    Probes the growth rate gamma0 and its argmin energy E0 on a moderate
    approximant of a constructed fast-approximable frequency, sets eps'
    so the subsequence threshold equals beta_target, schedules the
    qualifying time scales, and tabulates min over a theta grid of the
    Abel moments against both target normalizations.  A beta_target with
    no slack above 3 gamma0 / delta is raised once, and the raised
    ladder's probe is kept only when its approximant is at least as deep
    as the first.  The phases' midpoints measure how far the grid's minima
    move when it is refined (refined_change).  Qualifying
    convergents whose time scale needs a lattice beyond max_radius are
    reported as infeasible with their diagnostics rather than run.
    """
    if not 0.0 < delta < 0.5:
        raise InputError(f"delta must lie in (0, 1/2), got {delta}")
    if theta_grid < 1:
        raise InputError(f"theta_grid must be >= 1, got {theta_grid}")
    if depth_budget < 2:
        raise InputError(f"depth budget must be >= 2, got {depth_budget}")
    if not p_list or len(set(p_list)) < len(p_list) or not all(
            0.0 <= float(p) < math.inf for p in p_list):
        raise InputError(f"need one or more distinct finite orders >= 0, got "
                         f"{p_list}")
    # integer orders stay ints: their report keys read "1", not "1.0"
    p_list = tuple(int(p) if float(p).is_integer() else float(p)
                   for p in p_list)

    def build(beta):
        try:
            return construct_liouville_frequency(beta, 2, depth_budget)
        except DepthLimitError as exc:
            return construct_liouville_frequency(beta, 2,
                                                 exc.achieved_depth)

    def probe_at(freq):
        dens = freq.denominators
        m = max((i + 1 for i, qd in enumerate(dens) if 2 <= qd <= 128),
                default=None)
        if m is None:
            raise InputError("no probe-sized convergent (q <= 128) exists")
        model = periodic_model(f, freq.convergent(m), 0.0)
        bs = band_structure(model)
        probe = min_lyapunov_on_spectrum(f, freq.float_value, bs.centers,
                                         n_steps=PROBE_STEPS,
                                         theta_count=PROBE_THETAS)
        return m, model, bs, probe

    freq = build(beta_target)
    probe_m, probe_model, probe_bs, probe = probe_at(freq)
    gamma0 = max(probe.gamma, 1e-4)
    bumped = not (beta_target * delta / 3.0 - gamma0) / 2.0 > 1e-3
    if bumped:
        # the growth target leaves no slack above 3 gamma0 / delta: raise it
        # so the schedule threshold sits just under beta_hat.  The raised
        # ladder's probe replaces the first only from an approximant at
        # least as deep; a shallower one (q = 2 at lambda = 1.5) reads
        # gamma0 off two band centres and can leave eps' below 0
        beta_target = 3.0 * (gamma0 + 0.05) / delta
        freq = build(beta_target)
        reprobe = probe_at(freq)
        if reprobe[0] >= probe_m:
            probe_m, probe_model, probe_bs, probe = reprobe
    gamma_raw, e0 = probe.gamma, probe.energy
    gamma0 = max(gamma_raw, 1e-4)
    eps_prime = (beta_target * delta / 3.0 - gamma0) / 2.0

    neigh = 0.25
    widths = [probe_bs.band(j).width for j in range(1, probe_model.q + 1)
              if probe_bs.band(j).intersects(e0 - neigh, e0 + neigh)]
    epsilon = max(max(widths) / 2.0, 1e-6)
    interval = (e0 - epsilon, e0 + epsilon)

    eta_rows, bandless_rows = [], []
    for m in range(1, freq.depth + 1):
        qm = freq.convergent(m).denominator
        if qm < 2 or qm > 512:
            continue
        mlb = measure_uniform_lower_bound(f, freq.convergent(m), interval,
                                          theta_grid=16, kappa_grid=64)
        eta_rows.append((qm, mlb.eta))
        bandless_rows.append((qm, mlb.bandless_phases, mlb.theta_count))
    eta = eta_rows[-1][1] if eta_rows else 0.0
    cauchy = abs(eta_rows[-1][1] - eta_rows[-2][1]) \
        if len(eta_rows) >= 2 else None

    beta_hat = beta_estimate(freq)
    sched = subsequence_times(freq, gamma0, delta, eps_prime)

    points = []
    # even entries are the grid k / G, odd entries its midpoints (k + 1/2) / G
    thetas = np.arange(2 * theta_grid) / (2 * theta_grid)
    for k, (idx, qm, t_scale) in enumerate(
            zip(sched.indices, sched.denominators, sched.times), start=1):
        radius = truncation_radius(t_scale, 1) \
            if math.isfinite(t_scale) else None
        if radius is None or radius > max_radius:
            points.append(TheoremDemoPoint(
                k=k, convergent_index=idx, q=qm, time_scale=t_scale,
                feasible=False, required_radius=radius,
                note="time scale overflows the floating range"
                if radius is None else
                f"needs lattice radius {radius} > budget {max_radius}"))
            continue
        values = np.array([moments(Chain(f, freq.float_value, theta),
                                   t_scale, orders=p_list).values
                           for theta in thetas.tolist()])
        grid = values[::2]
        mins = dict(zip(p_list, grid.min(axis=0).tolist()))
        argmins = dict(zip(p_list,
                           thetas[::2][grid.argmin(axis=0)].tolist()))
        changes = [abs(low - mins[p]) / mins[p] if mins[p] > 0 else 0.0
                   for p, low in zip(p_list, values.min(axis=0).tolist())]
        logt = math.log(t_scale)
        ratio_plain = {p: mins[p] / t_scale ** ((1.0 - delta) * p)
                       for p in p_list}
        ratio_log = {p: mins[p] * logt ** 10
                     / t_scale ** ((1.0 - delta) * p) for p in p_list}
        points.append(TheoremDemoPoint(
            k=k, convergent_index=idx, q=qm, time_scale=t_scale,
            feasible=True, required_radius=radius, min_moments=mins,
            argmin_theta=argmins, refined_change=max(changes),
            ratio_plain=ratio_plain, ratio_log=ratio_log))

    snapshot = {"delta": delta, "depth_budget": depth_budget,
                "p_list": list(p_list), "theta_grid": theta_grid,
                "beta_target_bumped": bumped, "probe_depth": probe_m,
                "probe_q": probe_model.q, "gamma_raw": gamma_raw,
                "max_radius": max_radius,
                "constants": {**{n: getattr(transport, n)
                                 for n in transport.TIME_ROUTE_CONSTANTS},
                              "PROBE_STEPS": PROBE_STEPS,
                              "PROBE_THETAS": PROBE_THETAS},
                "qualifying": sched.size,
                "note": "" if sched.size else
                "no qualifying convergent within the depth budget"}
    return TheoremDemoReport(
        gamma0=gamma0, gamma0_clamped=gamma0 > gamma_raw, e0=e0,
        epsilon=epsilon, interval=interval, eta=eta,
        eta_by_depth=tuple(eta_rows),
        bandless_phases_by_depth=tuple(bandless_rows), eta_cauchy_gap=cauchy,
        beta_target=beta_target, beta_hat=beta_hat, eps_prime=eps_prime,
        threshold=sched.threshold, frequency=freq, schedule=sched,
        points=tuple(points), config_snapshot=snapshot)
