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

import math
from dataclasses import dataclass, asdict
from fractions import Fraction

import numpy as np

from . import constants as frozen
from .arithmetic import (Frequency, beta_estimate,
                         construct_liouville_frequency)
from .errors import (DegeneratePointError, DepthLimitError, InputError,
                     NearDegenerateError, NumericalError, ThresholdError)
from .floquet import (band_structure, derivative_sandwich, discriminant,
                      discriminant_derivative, eigenvalue_derivative,
                      fiber_eigensystems, floquet_eigensystem,
                      floquet_matrix, interior_window,
                      measure_kappa_infimum, measure_uniform_lower_bound,
                      phi_derivative, phi_occupation_measure)
from .operator import (Chain, FiniteOperator, PeriodicModel, finite_operator,
                       periodic_model, sample_potential)
from .quadrature import adaptive_integrate
from .transfer import (cocycle_orbit, min_lyapunov_on_spectrum,
                       lyapunov_exponent, transfer_difference,
                       transfer_product)
from .transport import (DEFAULT_CONFIG, EvolutionConfig, SubsequenceSchedule,
                        abel_horizon, abel_probability_floquet,
                        abel_probability_time, abel_resolvent_profile,
                        evolve, moments, probability_distribution,
                        subsequence_times, truncation_radius)


@dataclass(frozen=True)
class VerificationReport:
    """Result of one verification suite.

    artifacts is a tuple of per-instance dict rows; every row has at least
    'check', 'margin' (>= 0 means pass), and 'ok'.  config_snapshot records
    the tolerances and ensemble parameters the margins were measured
    against.
    """

    check_id: str
    instances: int
    violations: int
    worst_margin: float
    artifacts: tuple
    config_snapshot: dict

    @property
    def passed(self) -> bool:
        return self.violations == 0

    def rows(self, check: str) -> tuple:
        return tuple(r for r in self.artifacts if r["check"] == check)


def _make_report(check_id: str, rows, snapshot: dict) -> VerificationReport:
    rows = tuple(rows)
    violations = sum(1 for r in rows if not r["ok"])
    worst = min((r["margin"] for r in rows), default=math.inf)
    return VerificationReport(check_id=check_id, instances=len(rows),
                              violations=violations, worst_margin=float(worst),
                              artifacts=rows, config_snapshot=snapshot)


def random_periodic_ensemble(count: int = 20, q_max: int = 8, seed: int = 0,
                             v_scale: float = 2.0, q_min: int = 2) -> tuple:
    """Random-potential PeriodicModels with q uniform in [q_min, q_max]."""
    if not 2 <= q_min <= q_max:
        raise InputError(f"need 2 <= q_min <= q_max, got {q_min}..{q_max}")
    if count < 1:
        raise InputError(f"count must be >= 1, got {count}")
    rng = np.random.default_rng(seed)
    models = []
    for _ in range(count):
        q = int(rng.integers(q_min, q_max + 1))
        v = rng.uniform(-v_scale, v_scale, q)
        models.append(PeriodicModel.from_potential(v))
    return tuple(models)


# ---------------------------------------------------------------------------
# Floquet identity suite
# ---------------------------------------------------------------------------

FLOQUET_CHECKS = ("determinant", "derivative", "last", "sandwich", "weights",
                  "symmetry", "phi_bound", "chebyshev")


def floquet_identity_suite(models=None, count: int = 20, q_max: int = 8,
                           seed: int = 0, checks=FLOQUET_CHECKS,
                           samples_per_model: int = 4,
                           corrupt_corner: bool = False,
                           det_tol: float = 1e-8,
                           deriv_rel_tol: float = 1e-4,
                           weight_tol: float = 1e-10,
                           phi_fd_rel_tol: float = 1e-3) -> VerificationReport:
    """Re-measure the fiber-matrix identities and inequalities on an ensemble.

    corrupt_corner=True multiplies one corner of the fiber matrix by a
    spurious phase in the determinant check; the report must then show
    violations (negative control for the detection machinery).
    """
    if models is None:
        models = random_periodic_ensemble(count, q_max, seed)
    checks = tuple(checks)
    unknown = set(checks) - set(FLOQUET_CHECKS)
    if unknown:
        raise InputError(f"unknown checks {sorted(unknown)}")
    rows = []
    skipped = dict.fromkeys(checks, 0)

    for idx, model in enumerate(models):
        q = model.q
        bound = model.norm_bound
        need_bands = any(c in checks
                         for c in ("last", "sandwich", "phi_bound",
                                   "chebyshev"))
        bs = band_structure(model) if need_bands else None
        rng = np.random.default_rng([seed, idx])
        kappas_open = rng.uniform(1e-3, 1.0 - 1e-3, samples_per_model) \
            * (math.pi / q)
        kappas_mid = rng.uniform(0.1, 0.9, samples_per_model) * (math.pi / q)
        energies = rng.uniform(-bound, bound, samples_per_model)
        band_picks = rng.integers(1, q + 1, samples_per_model)

        if "determinant" in checks:
            for s in range(samples_per_model):
                kap, e = float(kappas_open[s]), float(energies[s])
                a = floquet_matrix(model, kap)
                if corrupt_corner:
                    a = a.copy()
                    a[0, q - 1] *= np.exp(0.3j)
                lhs = np.linalg.det(a - e * np.eye(q))
                disc = discriminant(model, e)
                target = disc + 2.0 * (-1.0) ** (q - 1) * math.cos(q * kap)
                diff = abs(lhs - target)
                tol = det_tol * max(1.0, abs(disc))
                rows.append({"check": "determinant", "model": idx, "q": q,
                             "kappa": kap, "energy": e, "difference": diff,
                             "tolerance": tol,
                             "margin": (tol - diff) / tol, "ok": diff < tol})

        if "derivative" in checks:
            h = 1e-5 * math.pi / q
            for s in range(samples_per_model):
                kap = float(kappas_mid[s])
                j = int(band_picks[s])
                sys = floquet_eigensystem(model, kap)
                gaps = np.diff(sys.eigenvalues)
                if gaps.size and float(np.min(gaps)) < 1e-6 * max(1.0, bound):
                    skipped["derivative"] += 1
                    continue
                try:
                    ident = eigenvalue_derivative(model, kap, j)
                except DegeneratePointError:
                    skipped["derivative"] += 1
                    continue
                lams = fiber_eigensystems(model, [kap - h, kap + h])[0]
                fd = (lams[1, j - 1] - lams[0, j - 1]) / (2 * h)
                if abs(fd) < 1e-9:
                    skipped["derivative"] += 1
                    continue
                rel = abs(ident - fd) / max(abs(fd), abs(ident))
                rows.append({"check": "derivative", "model": idx, "q": q,
                             "kappa": kap, "band": j, "identity": ident,
                             "finite_difference": float(fd), "rel_error": rel,
                             "margin": (deriv_rel_tol - rel) / deriv_rel_tol,
                             "ok": rel < deriv_rel_tol})

        if "last" in checks or "sandwich" in checks:
            h = 1e-5 * math.pi / q
            for s in range(samples_per_model):
                kap = float(kappas_open[s])
                sys = floquet_eigensystem(model, kap)
                if "sandwich" in checks:
                    fd_lams = fiber_eigensystems(model, [kap - h, kap + h])[0]
                for j in range(1, q + 1):
                    band = bs.band(j)
                    width = band.width
                    if "last" in checks:
                        lam = float(sys.eigenvalues[j - 1])
                        dprime = discriminant_derivative(model, lam)
                        mid = width * abs(dprime)
                        lhs = (1.0 + math.sqrt(5.0)) \
                            * (1.0 - abs(math.cos(q * kap)))
                        rhs = math.e * abs(discriminant(model, band.lo)
                                           - discriminant(model, band.hi))
                        m = min(mid - lhs, rhs - mid,
                                4.0 * math.e + 1e-6 - mid)
                        rows.append({"check": "last", "model": idx, "q": q,
                                     "kappa": kap, "band": j, "lower": lhs,
                                     "middle": mid, "upper": rhs,
                                     "margin": m, "ok": m >= -1e-9})
                    if "sandwich" in checks:
                        low, up = derivative_sandwich(model, kap, j,
                                                      width=width)
                        fd = abs(fd_lams[1, j - 1]
                                 - fd_lams[0, j - 1]) / (2 * h)
                        m = min(fd - low * (1.0 - 1e-6) + 1e-12,
                                up * (1.0 + 1e-6) + 1e-12 - fd)
                        rows.append({"check": "sandwich", "model": idx,
                                     "q": q, "kappa": kap, "band": j,
                                     "lower": low, "value": float(fd),
                                     "upper": up, "margin": m,
                                     "ok": m >= 0.0})

        if "weights" in checks:
            for s in range(samples_per_model):
                kap = float(kappas_open[s])
                sys = floquet_eigensystem(model, kap)
                mass_err = abs(float(np.sum(sys.phi)) - 2.0)
                u = sys.eigenvectors
                ortho_err = float(np.max(np.abs(u.conj().T @ u - np.eye(q))))
                m = min(weight_tol - mass_err, weight_tol * q - ortho_err)
                rows.append({"check": "weights", "model": idx, "q": q,
                             "kappa": kap, "mass_error": mass_err,
                             "orthonormality_error": ortho_err,
                             "margin": m, "ok": m >= 0.0})

        if "symmetry" in checks:
            for s in range(samples_per_model):
                kap = float(kappas_open[s])
                lams, phis = fiber_eigensystems(model, [kap, -kap])
                d_lam = float(np.max(np.abs(lams[0] - lams[1])))
                d_phi = float(np.max(np.abs(phis[0] - phis[1])))
                tol = 1e-10 * max(1.0, bound)
                m = tol - max(d_lam, d_phi)
                rows.append({"check": "symmetry", "model": idx, "q": q,
                             "kappa": kap, "eigenvalue_difference": d_lam,
                             "weight_difference": d_phi,
                             "margin": m, "ok": m >= 0.0})

        if "phi_bound" in checks:
            win_lo, win_hi = interior_window(q)
            h = 1e-5 * math.pi / q
            for s in range(samples_per_model):
                kap = win_lo + float(rng.uniform(0.0, 1.0)) * (win_hi - win_lo)
                j = int(band_picks[s])
                try:
                    dphi = phi_derivative(model, kap, j)
                except NearDegenerateError:
                    skipped["phi_bound"] += 1
                    continue
                phis = fiber_eigensystems(model, [kap - h, kap + h])[1]
                fd = (phis[1, j - 1] - phis[0, j - 1]) / (2 * h)
                width = bs.band(j).width
                bound_pt = 8.0 * math.e * q * q \
                    / (width * (1.0 - abs(math.cos(q * kap))))
                if abs(dphi) > 1e-8:
                    fd_rel = abs(dphi - fd) / abs(dphi)
                    fd_ok = fd_rel < phi_fd_rel_tol
                else:
                    fd_rel = abs(dphi - fd)
                    fd_ok = fd_rel < 1e-8
                m = bound_pt - abs(dphi)
                ok = m >= 0.0 and fd_ok
                rows.append({"check": "phi_bound", "model": idx, "q": q,
                             "kappa": kap, "band": j, "value": dphi,
                             "finite_difference": float(fd),
                             "fd_mismatch": float(fd_rel), "bound": bound_pt,
                             "margin": m if fd_ok else -fd_rel, "ok": ok})

        if "chebyshev" in checks:
            j0 = int(rng.integers(1, q + 1))
            b0 = bs.band(j0)
            half = max(0.75 * b0.width, 0.05)
            interval = (b0.center - half, b0.center + half)
            eta_inf, _ = measure_kappa_infimum(model, interval, kappa_grid=64)
            if eta_inf <= 1e-9:
                skipped["chebyshev"] += 1
            else:
                eta = 0.999 * eta_inf
                target = math.pi / (2.0 * q * q)
                occ_best, j_best = -math.inf, 0
                for j in range(1, q + 1):
                    if not bs.band(j).intersects(*interval):
                        continue
                    occ = phi_occupation_measure(model, j, eta / q,
                                                 kappa_grid=256)
                    if occ > occ_best:
                        occ_best, j_best = occ, j
                rows.append({"check": "chebyshev", "model": idx, "q": q,
                             "eta": eta, "band": j_best,
                             "occupation": occ_best, "required": target,
                             "margin": occ_best - target,
                             "ok": occ_best > target})

    snapshot = {"count": len(models), "q_max": q_max, "seed": seed,
                "samples_per_model": samples_per_model,
                "checks": list(checks), "corrupt_corner": corrupt_corner,
                "det_tol": det_tol, "deriv_rel_tol": deriv_rel_tol,
                "weight_tol": weight_tol, "phi_fd_rel_tol": phi_fd_rel_tol,
                "skipped": skipped}
    return _make_report("floquet_identities", rows, snapshot)


# ---------------------------------------------------------------------------
# Transport consistency suite
# ---------------------------------------------------------------------------

TRANSPORT_CHECKS = ("routes", "unitarity", "ct", "ballistic", "moments",
                    "truncation", "abel", "t0")


def _default_transport_models():
    from .operator import AmoSampling
    return (PeriodicModel.from_potential([1.0, -1.0]),
            periodic_model(AmoSampling(1.0), Fraction(2, 5), 0.1))


def transport_consistency_suite(models=None, time_scales=(5.0, 20.0),
                                checks=TRANSPORT_CHECKS, max_site: int = 60,
                                route_rel_tol: float = 1e-3,
                                config: EvolutionConfig = DEFAULT_CONFIG,
                                ) -> VerificationReport:
    """Cross-route agreement plus the calibrated transport envelopes.

    The three probability routes (eigendecomposition kernel, resolvent
    integral, fiber sum) are compared on the periodic displacements n*q;
    the decay and growth envelopes are audited against the frozen
    constants.
    """
    if models is None:
        models = _default_transport_models()
    checks = tuple(checks)
    unknown = set(checks) - set(TRANSPORT_CHECKS)
    if unknown:
        raise InputError(f"unknown checks {sorted(unknown)}")
    time_scales = tuple(float(t) for t in time_scales)
    rows = []

    q2_model = next((m for m in models if m.q == 2), None)
    if q2_model is None:
        q2_model = PeriodicModel.from_potential([1.0, -1.0])

    if "routes" in checks:
        for idx, model in enumerate(models):
            q = model.q
            n_max = max(1, max_site // q)
            ns = list(range(-n_max, n_max + 1))
            disp = [n * q for n in ns]
            for t_scale in time_scales:
                radius = truncation_radius(t_scale, n_max * q + 1, config)
                op = finite_operator(model, radius)
                dist = probability_distribution(op, t_scale, config)
                prof = abel_resolvent_profile(model, disp, t_scale, config)
                for k, n in enumerate(ns):
                    p_time = dist.probability(n * q)
                    p_res = float(prof[k])
                    p_floq = abel_probability_floquet(model, n * q, t_scale,
                                                      config, route="kernel")
                    den = max(p_time, p_res, p_floq, 1e-12)
                    worst = max(abs(p_time - p_res), abs(p_time - p_floq),
                                abs(p_res - p_floq)) / den
                    rows.append({"check": "routes", "model": idx, "q": q,
                                 "time_scale": t_scale, "n": n,
                                 "p_time": p_time, "p_resolvent": p_res,
                                 "p_floquet": p_floq, "rel_disagreement":
                                 worst,
                                 "margin": (route_rel_tol - worst)
                                 / route_rel_tol,
                                 "ok": worst < route_rel_tol})

    if "unitarity" in checks:
        for idx, model in enumerate(models):
            t_scale = time_scales[0]
            op = finite_operator(model, truncation_radius(t_scale, 1, config))
            horizon = abel_horizon(t_scale, config.tail_tolerance)
            for frac in (0.3, 0.6, 1.0):
                t = frac * horizon
                psi = evolve(op, [t])[0]
                err = abs(float(np.sum(np.abs(psi) ** 2)) - 1.0)
                rows.append({"check": "unitarity", "model": idx, "time": t,
                             "error": err, "margin": 1e-8 - err,
                             "ok": err < 1e-8})

    if "ct" in checks:
        free = FiniteOperator(np.zeros(401), 200)
        col = free.resolvent(3.0j)[:, 0]
        ns_fit = np.arange(5, 61)
        mags = np.abs(col[[free.site_index(int(n)) for n in ns_fit]])
        slope = float(np.polyfit(ns_fit, np.log(mags), 1)[0])
        slope_mag = -slope
        need = 0.9 * frozen.CT_RATE * min(3.0, 1.0)
        rows.append({"check": "ct", "kind": "fit", "z_im": 3.0,
                     "slope": slope_mag, "required": need,
                     "margin": (slope_mag - need) / need,
                     "ok": slope_mag >= need})
        audit = [("free", free, 3.0j)]
        for idx, model in enumerate(models):
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
            rows.append({"check": "ct", "kind": "envelope", "instance": name,
                         "z_im": dist, "margin": float(rel),
                         "ok": bool(rel > 0.0)})

    if "ballistic" in checks:
        sources = [("free", PeriodicModel.from_potential([0.0]))] + \
            [(f"model{i}", m) for i, m in enumerate(models)]
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
                rows.append({"check": "ballistic", "instance": name,
                             "time": t, "margin": float(rel),
                             "ok": bool(rel > 0.0)})

    if "moments" in checks:
        free10, free20 = (finite_operator(PeriodicModel.from_potential([0.0]),
                                          truncation_radius(t, 1, config))
                          for t in (10.0, 20.0))
        m10 = moments(free10, 10.0, orders=(2,), config=config).moment(2)
        m20 = moments(free20, 20.0, orders=(2,), config=config).moment(2)
        ratio = m20 / m10
        err = abs(ratio / 4.0 - 1.0)
        rows.append({"check": "moments", "kind": "free_scaling",
                     "ratio": ratio, "error": err,
                     "margin": (0.05 - err) / 0.05, "ok": err < 0.05})
        audit_sources = [("free", free20, 20.0), ("free", free10, 10.0)]
        for idx, model in enumerate(models):
            for t_scale in (5.0, 20.0):
                op = finite_operator(model,
                                     truncation_radius(t_scale, 1, config))
                audit_sources.append((f"model{idx}", op, t_scale))
        for name, op, t_scale in audit_sources:
            mom = moments(op, t_scale, orders=(1, 2, 4), config=config)
            for p in (1, 2, 4):
                env = frozen.MOMENT_PREFACTOR * math.factorial(p) \
                    * (t_scale ** p + 1.0)
                val = mom.moment(p)
                rows.append({"check": "moments", "kind": "envelope",
                             "instance": name, "time_scale": t_scale,
                             "order": p, "value": val, "envelope": env,
                             "margin": (env - val) / env, "ok": val <= env})
        small = moments(q2_model, 0.01, orders=(2,), config=config).moment(2)
        rows.append({"check": "moments", "kind": "small_time",
                     "value": small, "margin": 1e-2 - small,
                     "ok": small < 1e-2})

    if "truncation" in checks:
        t_scale = time_scales[0]
        r0 = truncation_radius(t_scale, 2, config)
        p1 = abel_probability_time(q2_model, 1, t_scale, config, radius=r0)
        p2 = abel_probability_time(q2_model, 1, t_scale, config,
                                   radius=2 * r0)
        diff = abs(p1 - p2)
        rows.append({"check": "truncation", "kind": "doubling",
                     "difference": diff, "tolerance": config.tail_tolerance,
                     "margin": (config.tail_tolerance - diff)
                     / config.tail_tolerance,
                     "ok": diff < config.tail_tolerance})
        env = frozen.TRUNC_PREFACTOR \
            * math.exp(-frozen.TRUNC_RATE * config.truncation_pad)
        rows.append({"check": "truncation", "kind": "envelope",
                     "difference": diff, "envelope": env,
                     "margin": (env - diff) / env, "ok": diff <= env})

    if "abel" in checks:
        t_scale = time_scales[0]
        op = finite_operator(q2_model,
                             truncation_radius(t_scale, 2, config))
        horizon = abel_horizon(t_scale, config.tail_tolerance)
        for n in (0, 1):
            p_kernel = abel_probability_time(op, n, t_scale, config)

            def integrand(ts):
                a0 = evolve(op, ts, 0, [n])[:, 0]
                a1 = evolve(op, ts, 1, [n + 1])[:, 0]
                w = (2.0 / t_scale) * np.exp(-2.0 * np.asarray(ts) / t_scale)
                return w * (np.abs(a0) ** 2 + np.abs(a1) ** 2)

            i1 = adaptive_integrate(integrand, 0.0, horizon,
                                    rel_tol=1e-9).value
            i2 = adaptive_integrate(integrand, 0.0, 2.0 * horizon,
                                    rel_tol=1e-9).value
            rel_t = abs(i2 - i1) / max(i1, i2)
            rows.append({"check": "abel", "kind": "horizon_doubling", "n": n,
                         "rel_change": rel_t,
                         "margin": (1e-6 - rel_t) / 1e-6,
                         "ok": rel_t < 1e-6})
            rel_k = abs(i2 - p_kernel) / p_kernel
            rows.append({"check": "abel", "kind": "kernel_agreement", "n": n,
                         "rel_difference": rel_k,
                         "margin": (1e-6 - rel_k) / 1e-6,
                         "ok": rel_k < 1e-6})

    if "t0" in checks:
        op = finite_operator(q2_model, 64)
        psi = evolve(op, [0.0])[0]
        delta = np.zeros(op.dimension)
        delta[op.site_index(0)] = 1.0
        err = float(np.max(np.abs(psi - delta)))
        rows.append({"check": "t0", "kind": "evolution", "error": err,
                     "margin": 1e-12 - err, "ok": err < 1e-12})
        a = evolve(op, [0.0], 0, [0])[0, 0]
        err_a = abs(a - 1.0)
        rows.append({"check": "t0", "kind": "amplitude", "error": err_a,
                     "margin": 1e-12 - err_a, "ok": err_a < 1e-12})

    snapshot = {"models": [list(np.asarray(m.potential)) for m in models],
                "time_scales": list(time_scales), "checks": list(checks),
                "max_site": max_site, "route_rel_tol": route_rel_tol,
                "config": asdict(config),
                "constants": {"CT_RATE": frozen.CT_RATE,
                              "CT_PREFACTOR": frozen.CT_PREFACTOR,
                              "BALLISTIC_PREFACTOR":
                              frozen.BALLISTIC_PREFACTOR,
                              "MOMENT_PREFACTOR": frozen.MOMENT_PREFACTOR,
                              "TRUNC_RATE": frozen.TRUNC_RATE,
                              "TRUNC_PREFACTOR": frozen.TRUNC_PREFACTOR}}
    return _make_report("transport_consistency", rows, snapshot)


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
    kappa_grid: int
    threshold_time: float

    @property
    def fraction_satisfied(self) -> float:
        if not self.pairs:
            return 0.0
        return sum(1 for _, p, r in self.pairs if p >= r) / len(self.pairs)


def minimal_admissible_time(q: int, eta: float, ell: float,
                            constants=None) -> float:
    """Smallest T at which the scan window contains an integer.

    The max of the closed threshold form (cap/c1) eta^-2 q^8 ell^-2 + 1 and
    the time placing the first admissible integer below the upper edge.
    """
    c, c1, cap = constants if constants is not None else \
        (frozen.LOWER_C, frozen.LOWER_C1, frozen.LOWER_CAP)
    del c
    if eta <= 0 or ell <= 0:
        raise InputError("eta and ell must be positive")
    lo = cap * q ** 4 / (eta * ell)
    n0 = math.floor(lo) + 1
    t_integer = n0 * q ** 4 / (c1 * eta * ell)
    t_form = (cap / c1) * eta ** -2 * q ** 8 * ell ** -2 + 1.0
    return max(t_integer, t_form)


def _scan_window(model: PeriodicModel, interval, time_scale: float,
                 constants, kappa_grid: int):
    c, c1, cap = constants
    q = model.q
    if q < 2:
        raise InputError("the lower-bound scan needs q >= 2")
    if time_scale <= 0:
        raise InputError(f"time scale must be positive, got {time_scale}")
    eta, _ = measure_kappa_infimum(model, interval, kappa_grid)
    if eta <= 0:
        raise InputError(
            f"measure infimum vanishes on {interval}; the lower-bound "
            "hypothesis needs eta > 0")
    bs = band_structure(model)
    a, b = interval
    best = None
    for j in range(1, q + 1):
        band = bs.band(j)
        if not band.intersects(a, b) or band.width <= 0:
            continue
        length = c1 * eta * band.width * time_scale / q ** 4 \
            - cap * q ** 4 / (eta * band.width)
        if best is None or length > best[0]:
            best = (length, j, band.width)
    if best is None:
        raise InputError(
            f"no band intersects {interval} despite eta = {eta:.3g}")
    _, j, ell = best
    lo = cap * q ** 4 / (eta * ell)
    hi = c1 * eta * ell * time_scale / q ** 4
    n_lo = math.floor(lo) + 1
    n_hi = math.ceil(hi) - 1
    threshold = minimal_admissible_time(q, eta, ell, (c, c1, cap))
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
                     kappa_grid: int = 64,
                     max_points: int = 256) -> LowerBoundScan:
    """Measure P(nq; T) across the admissible window of the band
    lower bound and compare against c eta^2 / (q^6 ell T).

    The band is the intersecting one that maximizes the window length
    (in practice the widest).  Raises ThresholdError with the minimal
    admissible T when the window holds no integer.
    """
    constants = tuple(constants) if constants is not None else \
        (frozen.LOWER_C, frozen.LOWER_C1, frozen.LOWER_CAP)
    c = constants[0]
    eta, j, ell, n_lo, n_hi, threshold = _scan_window(
        model, interval, time_scale, constants, kappa_grid)
    q = model.q
    rhs = c * eta ** 2 / (q ** 6 * ell * time_scale)
    pairs = []
    for n in _window_integers(n_lo, n_hi, max_points):
        p = abel_probability_floquet(model, n * q, time_scale, config)
        pairs.append((n, p, rhs))
    return LowerBoundScan(q=q, theta=model.theta, eta=eta, band_index=j,
                          band_width=ell, time_scale=float(time_scale),
                          window=(n_lo, n_hi), pairs=tuple(pairs),
                          constants=constants, kappa_grid=kappa_grid,
                          threshold_time=threshold)


@dataclass(frozen=True)
class CalibrationResult:
    """Measured ratios P * q^6 ell T / eta^2 across a scan window."""

    q: int
    eta: float
    band_index: int
    band_width: float
    time_scale: float
    window: tuple
    ratios: tuple
    min_ratio: float
    suggested_c: float


def calibrate_lower_bound(model: PeriodicModel, interval, time_scale: float,
                          c1: float | None = None, cap: float | None = None,
                          config: EvolutionConfig = DEFAULT_CONFIG,
                          kappa_grid: int = 64, max_points: int = 256,
                          safety: float = 0.5) -> CalibrationResult:
    """Regenerate the lower-bound constant on an instance.

    Runs the window scan with c left free, reports the smallest measured
    ratio and safety * min_ratio as the constant a re-calibration would
    freeze.  The test suite compares suggested_c against the frozen value.
    """
    c1 = c1 if c1 is not None else frozen.LOWER_C1
    cap = cap if cap is not None else frozen.LOWER_CAP
    eta, j, ell, n_lo, n_hi, _ = _scan_window(
        model, interval, time_scale, (0.0, c1, cap), kappa_grid)
    q = model.q
    ratios = []
    for n in _window_integers(n_lo, n_hi, max_points):
        p = abel_probability_floquet(model, n * q, time_scale, config)
        ratios.append((n, p * q ** 6 * ell * time_scale / eta ** 2))
    min_ratio = min(r for _, r in ratios)
    return CalibrationResult(q=q, eta=eta, band_index=j, band_width=ell,
                             time_scale=float(time_scale),
                             window=(n_lo, n_hi), ratios=tuple(ratios),
                             min_ratio=min_ratio,
                             suggested_c=safety * min_ratio)


# ---------------------------------------------------------------------------
# Bandwidth trend check
# ---------------------------------------------------------------------------

def bandwidth_proposition_check(f, freq: Frequency, depths,
                                theta: float = 0.0, epsilon: float = 0.2,
                                theta_count: int = 256,
                                n_steps: int | None = None,
                                seed=None) -> VerificationReport:
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
        steps = int(n_steps) if n_steps is not None else qm
        gams = [lyapunov_exponent(f, alpha_float, center, n_steps=steps,
                                  theta_count=theta_count, seed=seed).gamma_hat
                for center in bs.centers]
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
                "theta_count": theta_count,
                "n_steps": n_steps if n_steps is not None
                else "q_m (scale-matched)",
                "trend": trend}
    return _make_report("bandwidth_proposition", rows, snapshot)


# ---------------------------------------------------------------------------
# Gordon diagnostic
# ---------------------------------------------------------------------------

def _quasi_block_statistic(f, alpha, theta, energy, q, u):
    """max over the four double-period block values of the true orbit:
    forward/backward solutions sampled at one and two periods."""
    u = np.asarray(u, dtype=float)
    vals = []
    for backward, sites in ((False, (0, 2 * q - 1)), (True, (-2 * q, -1))):
        v = sample_potential(f, alpha, theta, *sites)
        orbit = cocycle_orbit(energy - (v[::-1] if backward else v),
                              u[:1], u[1:], backward, renormalize=False)
        vals += [math.hypot(x[0], y[0])
                 for n, (x, y, _) in enumerate(orbit, 1) if n % q == 0]
    return max(vals)


def _scaled_block_statistic(block, u):
    """gordon_block_statistic for a scaled transfer product.

    Works at scales where reassembling the unscaled matrix would lose the
    determinant to cancellation: det A = 1 makes A^-1 the adjugate of A,
    so all four values come from the O(1) scaled matrix and the log
    factor.
    """
    m = block.matrix_scaled
    s = block.log_scale
    adj = np.array([[m[1, 1], -m[0, 1]], [-m[1, 0], m[0, 0]]])
    logs = [s + math.log(max(np.linalg.norm(m @ u), 1e-300)),
            2 * s + math.log(max(np.linalg.norm(m @ (m @ u)), 1e-300)),
            s + math.log(max(np.linalg.norm(adj @ u), 1e-300)),
            2 * s + math.log(max(np.linalg.norm(adj @ (adj @ u)), 1e-300))]
    top = max(logs)
    return math.exp(top) if top < 700.0 else math.inf


def gordon_diagnostic(f, freq: Frequency, energy: float, depths,
                      theta: float = 0.0, u=(1.0, 0.0),
                      max_orbit: int = 1_000_000) -> VerificationReport:
    """Per-depth near-periodicity differences and the four-block statistic.

    For each depth the periodic block A over one period of the approximant
    satisfies max(||A^2 u||, ||A u||, ||A^-1 u||, ||A^-2 u||) >= 1/2; the
    quasiperiodic orbit's matching four values must then stay above
    1/2 - difference, where difference is the worst applied-vector gap
    between the two orbits over two periods (both directions).  Overflow
    at a depth, or an orbit longer than max_orbit, truncates the report
    there.
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
        if 2 * qm > max_orbit:
            truncated_at = m
            reason = f"orbit length {2 * qm} exceeds max_orbit {max_orbit}"
            break
        try:
            d_fwd = transfer_difference(f, alpha, am, theta, energy,
                                        n_max=2 * qm, u=u_arr)
            d_bwd = transfer_difference(f, alpha, am, theta, energy,
                                        n_max=2 * qm, u=u_arr, backward=True)
            quasi = _quasi_block_statistic(f, alpha, theta, energy, qm,
                                           u_arr)
            block = transfer_product(Chain(f, am, theta), energy, 0, qm - 1)
            if abs(block.det_log) > 1e-6:
                raise NumericalError(
                    "periodic block determinant drifted: log|det| = "
                    f"{block.det_log:.3e}")
            stat_p = _scaled_block_statistic(block, u_arr)
        except (NumericalError, OverflowError, InputError) as exc:
            truncated_at = m
            reason = str(exc)
            break
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
    required_radius: int | None
    min_moments: dict | None
    argmin_theta: dict | None
    refined_change: float | None
    ratio_plain: dict | None
    ratio_log: dict | None
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


def _theta_minima(f, alpha: float, thetas, time_scale: float, p_list,
                  config: EvolutionConfig):
    values = {p: [] for p in p_list}
    for theta in thetas:
        mom = moments(Chain(f, alpha, float(theta)), time_scale,
                      orders=p_list, config=config)
        for p in p_list:
            values[p].append(mom.moment(p))
    return values


def theorem_demo(f, delta: float, depth_budget: int = 3, p_list=(1, 2),
                 config: EvolutionConfig = DEFAULT_CONFIG,
                 theta_grid: int = 64, beta_target: float = 2.0,
                 max_radius: int = 2500, probe_steps: int = 2000,
                 probe_thetas: int = 32) -> TheoremDemoReport:
    """Desk-scale run of the moment lower-bound pipeline.

    Probes the growth rate gamma0 and its argmin energy E0 on a moderate
    approximant of a constructed fast-approximable frequency, sets eps'
    so the subsequence threshold equals beta_target, schedules the
    qualifying time scales, and tabulates min over a theta grid of the
    Abel moments against both target normalizations.  Qualifying
    convergents whose time scale needs a lattice beyond max_radius are
    reported as infeasible with their diagnostics rather than run.
    """
    if not 0.0 < delta < 0.5:
        raise InputError(f"delta must lie in (0, 1/2), got {delta}")
    if theta_grid < 1:
        raise InputError(f"theta_grid must be >= 1, got {theta_grid}")
    if depth_budget < 2:
        raise InputError(f"depth budget must be >= 2, got {depth_budget}")
    p_list = tuple(int(p) for p in p_list)

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
                                         n_steps=probe_steps,
                                         theta_count=probe_thetas)
        return m, model, bs, probe

    bumped = False
    while True:
        freq = build(beta_target)
        probe_m, probe_model, probe_bs, probe = probe_at(freq)
        gamma_raw = probe.gamma
        gamma0 = max(gamma_raw, 1e-4)
        e0 = probe.energy
        eps_prime = (beta_target * delta / 3.0 - gamma0) / 2.0
        if bumped or eps_prime > 1e-3:
            break
        # the default growth target leaves no slack above 3 gamma0 / delta;
        # raise it so the schedule threshold sits just under beta_hat
        beta_target = 3.0 * (gamma0 + 0.05) / delta
        bumped = True

    neigh = 0.25
    widths = [probe_bs.band(j).width for j in range(1, probe_model.q + 1)
              if probe_bs.band(j).intersects(e0 - neigh, e0 + neigh)]
    epsilon = max(max(widths) / 2.0, 1e-6)
    interval = (e0 - epsilon, e0 + epsilon)

    eta_rows = []
    for m in range(1, freq.depth + 1):
        qm = freq.convergent(m).denominator
        if qm < 2 or qm > 512:
            continue
        mlb = measure_uniform_lower_bound(f, freq.convergent(m), interval,
                                          theta_grid=16, kappa_grid=64)
        eta_rows.append((qm, mlb.eta))
    eta = eta_rows[-1][1] if eta_rows else 0.0
    cauchy = abs(eta_rows[-1][1] - eta_rows[-2][1]) \
        if len(eta_rows) >= 2 else None

    beta_hat = beta_estimate(freq)
    sched = subsequence_times(freq, gamma0, delta, eps_prime)

    points = []
    thetas = np.arange(theta_grid) / theta_grid
    thetas_half = (np.arange(theta_grid) + 0.5) / theta_grid
    for k, (idx, qm, t_scale) in enumerate(
            zip(sched.indices, sched.denominators, sched.times), start=1):
        if not math.isfinite(t_scale):
            points.append(TheoremDemoPoint(
                k=k, convergent_index=idx, q=qm, time_scale=t_scale,
                feasible=False, required_radius=None, min_moments=None,
                argmin_theta=None, refined_change=None, ratio_plain=None,
                ratio_log=None,
                note="time scale overflows the floating range"))
            continue
        radius = truncation_radius(t_scale, 1, config)
        if radius > max_radius:
            points.append(TheoremDemoPoint(
                k=k, convergent_index=idx, q=qm, time_scale=t_scale,
                feasible=False, required_radius=radius, min_moments=None,
                argmin_theta=None, refined_change=None, ratio_plain=None,
                ratio_log=None,
                note=f"needs lattice radius {radius} > budget "
                f"{max_radius}"))
            continue
        base = _theta_minima(f, freq.float_value, thetas, t_scale, p_list,
                             config)
        refine = _theta_minima(f, freq.float_value, thetas_half, t_scale,
                               p_list, config)
        mins, argmins, changes = {}, {}, []
        for p in p_list:
            arr = np.asarray(base[p])
            mins[p] = float(np.min(arr))
            argmins[p] = float(thetas[int(np.argmin(arr))])
            combined = min(mins[p], float(np.min(refine[p])))
            changes.append(abs(combined - mins[p]) / mins[p]
                           if mins[p] > 0 else 0.0)
        logt = math.log(t_scale)
        ratio_plain = {p: mins[p] / t_scale ** ((1.0 - delta) * p)
                       for p in p_list}
        ratio_log = {p: mins[p] * logt ** 10
                     / t_scale ** ((1.0 - delta) * p)
                     for p in p_list} if logt > 0 else None
        points.append(TheoremDemoPoint(
            k=k, convergent_index=idx, q=qm, time_scale=t_scale,
            feasible=True, required_radius=radius, min_moments=mins,
            argmin_theta=argmins, refined_change=max(changes),
            ratio_plain=ratio_plain, ratio_log=ratio_log))

    snapshot = {"delta": delta, "depth_budget": depth_budget,
                "p_list": list(p_list), "theta_grid": theta_grid,
                "beta_target_bumped": bumped, "probe_depth": probe_m,
                "probe_q": probe_model.q, "probe_steps": probe_steps,
                "probe_thetas": probe_thetas, "gamma_raw": gamma_raw,
                "max_radius": max_radius, "config": asdict(config),
                "qualifying": sched.size,
                "note": "" if sched.size else
                "no qualifying convergent within the depth budget"}
    return TheoremDemoReport(
        gamma0=gamma0, gamma0_clamped=gamma0 > gamma_raw, e0=e0,
        epsilon=epsilon, interval=interval, eta=eta,
        eta_by_depth=tuple(eta_rows), eta_cauchy_gap=cauchy,
        beta_target=beta_target, beta_hat=beta_hat, eps_prime=eps_prime,
        threshold=sched.threshold, frequency=freq, schedule=sched,
        points=tuple(points), config_snapshot=snapshot)
