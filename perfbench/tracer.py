"""Per-layer tracing from outside the program.

The tracer replaces public functions of the deltanls modules with wrappers
that record a span (name, start, end, parent span, operation) per call.
Every module-level binding of a traced function is replaced, so a function
that another module imported by name is traced there too.  The module
bindings of ``scipy.integrate.quad`` count integrand evaluations per module,
and the binding of ``solve_ivp`` in ``oracle`` counts right-hand-side
evaluations.  Spans stay in memory until ``write_spans``.

``total_s`` of a function sums its outermost calls and so includes traced
callees; ``self_s`` subtracts the time of its direct traced children.  The
worker passes a clock that leaves out the time spent measuring the
machine's speed, and scales the totals to undisturbed speed.
"""

from __future__ import annotations

import sys
import time
from collections import defaultdict

TRACED = {
    "algebra": ("I_of_t", "h_of_t"),
    "stationary": ("solve_for_lambda", "profile"),
    "massmap": ("mass_of_t", "normalized_solutions", "profile_mass_quadrature",
                "mass_threshold"),
    "energy": ("groundstate_energy", "branch_energy", "convexity_scan", "zero_level_mass"),
    "oracle": ("constrained_minimize", "shoot", "sample_profile", "functional_eval"),
}
QUAD_MODULES = ("algebra", "massmap")


class Tracer:
    """Spans and counts of one pass; ``clock`` gives the time to record."""

    def __init__(self, clock=time.perf_counter) -> None:
        self.clock = clock
        self.names: list[str] = []
        self.spans: list[tuple] = []
        self.stack: list[int] = []         # open span indices
        self.child_time: list[float] = []  # traced child time of each open span
        self.calls = defaultdict(int)
        self.total = defaultdict(float)
        self.self_time = defaultdict(float)
        self.active = defaultdict(int)
        self.counts = defaultdict(int)
        self.op = -1

    # -- wrapping ---------------------------------------------------------

    def _span(self, name: str, fn, on_return=None):
        name_id = len(self.names)
        self.names.append(name)
        clock = self.clock

        def traced(*args, **kwargs):
            parent = self.stack[-1] if self.stack else -1
            idx = len(self.spans)
            self.spans.append(None)
            self.stack.append(idx)
            self.child_time.append(0.0)
            self.active[name] += 1
            start = clock()
            try:
                result = fn(*args, **kwargs)
                if on_return is not None:
                    on_return(result)
                return result
            except BaseException as exc:
                if on_return is not None and hasattr(exc, "trace"):
                    on_return((None, exc.trace))
                raise
            finally:
                end = clock()
                self.stack.pop()
                children = self.child_time.pop()
                self.active[name] -= 1
                dur = end - start
                self.spans[idx] = (name_id, start, end, parent, self.op)
                self.calls[name] += 1
                self.self_time[name] += dur - children
                if self.active[name] == 0:
                    self.total[name] += dur
                if self.child_time:
                    self.child_time[-1] += dur

        traced.__wrapped__ = fn
        return traced

    def _counted_quad(self, key: str, quad):
        counts = self.counts

        def traced_quad(func, *args, **kwargs):
            def integrand(*x):
                counts[key] += 1
                return func(*x)
            return quad(integrand, *args, **kwargs)

        return traced_quad

    def _counted_ivp(self, solve_ivp):
        counts = self.counts

        def traced_ivp(*args, **kwargs):
            sol = solve_ivp(*args, **kwargs)
            counts["oracle.shoot.rhs_evals"] += sol.nfev
            return sol

        return traced_ivp

    def install(self, check_functions) -> None:
        """Wrap the traced functions everywhere deltanls binds them."""
        modules = [m for name, m in sys.modules.items()
                   if name == "deltanls" or name.startswith("deltanls.")]
        targets = {}
        for short, names in TRACED.items():
            mod = sys.modules["deltanls." + short]
            for name in names:
                fn = getattr(mod, name)
                hook = self._iterations if name == "constrained_minimize" else None
                targets[id(fn)] = self._span(f"{short}.{name}", fn, hook)
        for fn in check_functions:
            check = fn.__name__[len("check_"):].replace("_", "-")
            targets[id(fn)] = self._span(f"verification.{check}", fn)
        for mod in modules:
            for attr, value in list(vars(mod).items()):
                if id(value) in targets:
                    setattr(mod, attr, targets[id(value)])
        for short in QUAD_MODULES:
            mod = sys.modules["deltanls." + short]
            mod.quad = self._counted_quad(f"{short}.quad.evals", mod.quad)
        oracle = sys.modules["deltanls.oracle"]
        oracle.solve_ivp = self._counted_ivp(oracle.solve_ivp)

    def _iterations(self, result) -> None:
        _, trace = result
        self.counts["oracle.constrained_minimize.iterations"] += len(trace) - 1

    # -- results ----------------------------------------------------------

    def metrics(self) -> dict:
        out = {}
        for name in self.names:
            out[f"{name}.calls"] = self.calls[name]
            out[f"{name}.total_s"] = self.total[name]
            out[f"{name}.self_s"] = self.self_time[name]
        out.update(self.counts)
        return out

    def write_spans(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("name\tstart\tend\tparent\top\n")
            for name_id, start, end, parent, op in self.spans:
                fh.write(f"{self.names[name_id]}\t{start:.9f}\t{end:.9f}\t{parent}\t{op}\n")
