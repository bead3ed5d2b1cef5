"""In-memory span tracer for the qptransport benchmark.

The tracer wraps the public functions of each qptransport module under the
names the calling modules bound them to (``transport.floquet_eigensystem``,
``verify.abel_probability_floquet``, ``cli.moments`` ...), records one span
(name, start, end, parent) per call, and restores every binding when it is
uninstalled.  Nothing inside ``src/`` is modified.

A layer's self time is its spans' durations minus the part covered by their
direct child spans; because every span nests inside its parent (one thread),
the self times of all spans of a pass sum to the pass's traced wall time.
"""

from __future__ import annotations

import contextlib
import functools
import inspect
import time

#: span name -> [(module name, attribute)] bindings wrapped under that name.
#: Each binding is the name a calling module looks up at call time, so calls
#: made inside a module (transport.moments -> probability_distribution) are
#: traced through that module's own global.
BINDINGS = {
    "floquet.eigensystem": [("floquet", "floquet_eigensystem"),
                            ("transport", "floquet_eigensystem"),
                            ("verify", "floquet_eigensystem")],
    "floquet.band_structure": [("floquet", "band_structure"),
                               ("verify", "band_structure"),
                               ("cli", "band_structure")],
    "floquet.measure": [("floquet", "measure_kappa_infimum"),
                        ("verify", "measure_kappa_infimum"),
                        ("floquet", "measure_uniform_lower_bound"),
                        ("verify", "measure_uniform_lower_bound"),
                        ("cli", "measure_uniform_lower_bound")],
    "transport.floquet": [("transport", "abel_probability_floquet"),
                          ("verify", "abel_probability_floquet")],
    "transport.time": [("transport", "abel_probability_time"),
                       ("verify", "abel_probability_time"),
                       ("transport", "probability_distribution"),
                       ("verify", "probability_distribution"),
                       ("cli", "probability_distribution"),
                       ("transport", "moments"),
                       ("verify", "moments"),
                       ("cli", "moments")],
    "transport.resolvent": [("transport", "abel_resolvent_profile"),
                            ("verify", "abel_resolvent_profile"),
                            ("transport", "abel_probability_resolvent")],
    "transport.banded_solve": [("scipy.linalg", "solve_banded")],
    "quadrature": [("quadrature", "adaptive_integrate"),
                   ("transport", "adaptive_integrate"),
                   ("verify", "adaptive_integrate"),
                   ("quadrature", "integrate_right_tail"),
                   ("transport", "integrate_right_tail"),
                   ("quadrature", "integrate_left_tail"),
                   ("transport", "integrate_left_tail")],
    "transfer.min_lyapunov": [("transfer", "min_lyapunov_on_spectrum"),
                              ("verify", "min_lyapunov_on_spectrum")],
    "transfer.lyapunov": [("transfer", "lyapunov_exponent"),
                          ("verify", "lyapunov_exponent"),
                          ("cli", "lyapunov_exponent")],
    "arithmetic": [("arithmetic", "continued_fraction_expansion"),
                   ("arithmetic", "construct_liouville_frequency"),
                   ("arithmetic", "beta_estimate"),
                   ("verify", "construct_liouville_frequency"),
                   ("verify", "beta_estimate"),
                   ("cli", "construct_liouville_frequency"),
                   ("cli", "continued_fraction_expansion")],
    "verify": [("verify", "lower_bound_scan"),
               ("verify", "calibrate_lower_bound"),
               ("verify", "transport_consistency_suite"),
               ("cli", "transport_consistency_suite"),
               ("verify", "theorem_demo"),
               ("cli", "theorem_demo")],
    "cli": [("cli", "main")],
}

#: methods wrapped on a class shared by every module
METHOD_BINDINGS = {
    "operator.eigensystem": [("operator", "FiniteOperator", "eigensystem")],
}


#: per-call facts read from the bound arguments before the call ...
BEFORE = {
    "transport.floquet": lambda a: {
        "q": a["model"].q,
        "kernel": a["route"] == "kernel"
        or (a["route"] == "auto" and a["time_scale"] > 200.0),
        "kappa_points": a["kappa_points"]},
    "operator.eigensystem": lambda a: {
        "dim": a["self"].dimension, "computed": a["self"]._eig is None},
}

#: ... and from the result after it
AFTER = {
    "quadrature": lambda r: {"evaluations": r.evaluations,
                             "deepest": r.deepest},
    "transfer.lyapunov": lambda r: {"steps": r.n_steps * r.theta_count},
}

#: every per-layer metric and its unit, as BENCHMARK.json lists them
LAYER_METRICS = {
    "floquet.eigensolves": "count",
    "floquet.eigensolves.per_probability": "count",
    "floquet.eigensolves.useful_ratio": "ratio",
    "floquet.eigensystem.s": "s",
    "floquet.band_structure.s": "s",
    "floquet.measure.s": "s",
    "transport.floquet.calls": "count",
    "transport.floquet.self_s": "s",
    "transport.kappa_points.max": "count",
    "transport.lorentz_pairs": "count",
    "transport.time.calls": "count",
    "transport.time.self_s": "s",
    "transport.resolvent.calls": "count",
    "transport.resolvent.self_s": "s",
    "transport.banded_solves": "count",
    "transport.banded_solve.s": "s",
    "operator.eigensystem.calls": "count",
    "operator.eigensystem.s": "s",
    "operator.dim.max": "count",
    "quadrature.integrals": "count",
    "quadrature.evaluations": "count",
    "quadrature.deepest": "count",
    "quadrature.self_s": "s",
    "transfer.lyapunov.calls": "count",
    "transfer.lyapunov.s": "s",
    "transfer.cocycle_steps": "count",
    "arithmetic.s": "s",
    "verify.self_s": "s",
    "cli.self_s": "s",
}

#: the Floquet route starts its quasimomentum grid here and doubles it
FIRST_GRID = 256


class Span:
    __slots__ = ("name", "start", "end", "parent", "info", "children_s")

    def __init__(self, name, start, parent):
        self.name = name
        self.start = start
        self.end = start
        self.parent = parent
        self.info = None
        self.children_s = 0.0

    @property
    def duration(self) -> float:
        return self.end - self.start

    @property
    def self_s(self) -> float:
        return self.duration - self.children_s


class Tracer:
    """Collects spans in memory while installed; see ``install``."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans: list[Span] = []
        self.stack: list[Span] = []
        self._restore: list = []

    # -- recording ---------------------------------------------------------

    def open(self, name: str) -> Span:
        parent = self.stack[-1] if self.stack else None
        span = Span(name, self.clock(), parent)
        self.spans.append(span)
        self.stack.append(span)
        return span

    def close(self, span: Span) -> None:
        span.end = self.clock()
        self.stack.pop()
        if span.parent is not None:
            span.parent.children_s += span.duration

    @contextlib.contextmanager
    def span(self, name: str):
        span = self.open(name)
        try:
            yield span
        finally:
            self.close(span)

    def outermost(self, name: str):
        """Spans of this name with no ancestor of the same name."""
        out = []
        for s in self.spans:
            if s.name != name:
                continue
            p = s.parent
            while p is not None and p.name != name:
                p = p.parent
            if p is None:
                out.append(s)
        return out

    # -- wrapping ----------------------------------------------------------

    def _wrap(self, name: str, fn):
        tracer = self
        before, after = BEFORE.get(name), AFTER.get(name)
        signature = inspect.signature(fn) if before is not None else None

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if name == "quadrature" and args and callable(args[0]):
                args = (tracer._wrap_integrand(args[0]),) + args[1:]
            span = tracer.open(name)
            try:
                if before is not None:
                    bound = signature.bind(*args, **kwargs)
                    bound.apply_defaults()
                    span.info = before(bound.arguments)
                result = fn(*args, **kwargs)
                if after is not None:
                    span.info = {**(span.info or {}), **after(result)}
                return result
            finally:
                tracer.close(span)

        return traced

    def _wrap_integrand(self, func):
        """Integrands are the caller's code: span them under the caller's
        layer, so quadrature self time is the quadrature's own work."""
        parent = self.stack[-1] if self.stack else None
        if parent is not None and parent.name == "quadrature":
            return func  # tail transform inside a traced tail call
        owner = parent.name if parent is not None else "integrand"
        tracer = self

        def integrand(x):
            span = tracer.open(owner)
            try:
                return func(x)
            finally:
                tracer.close(span)

        return integrand

    def install(self, modules: dict):
        """Replace every binding in BINDINGS and METHOD_BINDINGS; ``modules``
        maps the module names used there to module objects."""
        for name, targets in BINDINGS.items():
            for mod_name, attr in targets:
                mod = modules[mod_name]
                orig = getattr(mod, attr)
                setattr(mod, attr, self._wrap(name, orig))
                self._restore.append((mod, attr, orig))
        for name, targets in METHOD_BINDINGS.items():
            for mod_name, cls_name, attr in targets:
                cls = getattr(modules[mod_name], cls_name)
                orig = cls.__dict__[attr]
                setattr(cls, attr, self._wrap(name, orig))
                self._restore.append((cls, attr, orig))
        return self

    def uninstall(self) -> None:
        while self._restore:
            owner, attr, orig = self._restore.pop()
            setattr(owner, attr, orig)

    def to_json(self) -> list:
        index = {id(s): k for k, s in enumerate(self.spans)}
        return [{"id": k, "name": s.name, "start": s.start, "end": s.end,
                 "parent": index.get(id(s.parent)) if s.parent else None,
                 **({"info": s.info} if s.info else {})}
                for k, s in enumerate(self.spans)]


def _floquet_grids(call: Span, eigensolves: int) -> list:
    """Grid sizes one Floquet-route call evaluated, worked out from its
    eigensolve count: a fixed grid of kappa_points, or the doubling
    256, 512, ..., G whose eigensolves sum to 2G - 256."""
    if call.info["kappa_points"] is not None:
        return [int(call.info["kappa_points"])]
    final = (eigensolves + FIRST_GRID) // 2
    grids, g = [], FIRST_GRID
    while g <= final:
        grids.append(g)
        g *= 2
    return grids


def layer_metrics(tracer: Tracer) -> dict:
    """Per-layer metrics of everything the tracer recorded."""
    by_name: dict[str, list] = {}
    for s in tracer.spans:
        by_name.setdefault(s.name, []).append(s)

    def total(name, attr="duration", outermost=True):
        spans = tracer.outermost(name) if outermost else by_name.get(name, [])
        return float(sum(getattr(s, attr) for s in spans))

    def self_s(name):
        return total(name, "self_s", outermost=False)

    solves_in: dict[int, int] = {}
    for s in by_name.get("floquet.eigensystem", []):
        p = s.parent
        while p is not None and p.name != "transport.floquet":
            p = p.parent
        if p is not None:
            solves_in[id(p)] = solves_in.get(id(p), 0) + 1
    calls = tracer.outermost("transport.floquet")
    route_solves = useful = pairs = 0
    kappa_max = 0
    for call in calls:
        solves = solves_in.get(id(call), 0)
        grids = _floquet_grids(call, solves)
        route_solves += solves
        useful += grids[-1] if solves else 0
        kappa_max = max(kappa_max, grids[-1] if solves else 0)
        if call.info["kernel"]:
            # two entries, one dense kernel over all (grid x q)^2 pairs each
            pairs += sum(2 * (g * call.info["q"]) ** 2 for g in grids)

    eig = by_name.get("operator.eigensystem", [])
    computed = [s for s in eig if s.info["computed"]]
    quad = tracer.outermost("quadrature")
    return {
        "floquet.eigensolves": len(by_name.get("floquet.eigensystem", [])),
        "floquet.eigensolves.per_probability":
            route_solves / len(calls) if calls else 0.0,
        "floquet.eigensolves.useful_ratio":
            useful / route_solves if route_solves else 0.0,
        "floquet.eigensystem.s": total("floquet.eigensystem"),
        "floquet.band_structure.s": total("floquet.band_structure"),
        "floquet.measure.s": total("floquet.measure"),
        "transport.floquet.calls": len(calls),
        "transport.floquet.self_s": self_s("transport.floquet"),
        "transport.kappa_points.max": kappa_max,
        "transport.lorentz_pairs": pairs,
        "transport.time.calls": len(tracer.outermost("transport.time")),
        "transport.time.self_s": self_s("transport.time"),
        "transport.resolvent.calls":
            len(tracer.outermost("transport.resolvent")),
        "transport.resolvent.self_s": self_s("transport.resolvent"),
        "transport.banded_solves":
            len(by_name.get("transport.banded_solve", [])),
        "transport.banded_solve.s": total("transport.banded_solve"),
        "operator.eigensystem.calls": len(computed),
        "operator.eigensystem.s": total("operator.eigensystem"),
        "operator.dim.max": max((s.info["dim"] for s in computed), default=0),
        "quadrature.integrals": len(quad),
        "quadrature.evaluations": sum(s.info["evaluations"] for s in quad
                                      if s.info),
        "quadrature.deepest": max((s.info["deepest"] for s in quad
                                   if s.info), default=0),
        "quadrature.self_s": self_s("quadrature"),
        "transfer.lyapunov.calls": len(tracer.outermost("transfer.lyapunov")),
        "transfer.lyapunov.s": total("transfer.lyapunov"),
        "transfer.cocycle_steps": sum(s.info["steps"] for s in
                                      tracer.outermost("transfer.lyapunov")
                                      if s.info),
        "arithmetic.s": total("arithmetic"),
        "verify.self_s": self_s("verify"),
        "cli.self_s": self_s("cli"),
    }
