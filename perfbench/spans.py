"""Span recording around praline's layer boundaries, from outside the library.

A `Tracer` replaces selected functions with wrappers that record a span
(name, start, end, parent span, solve id) per call, plus counts taken from
the call's arguments or result.  Each name is patched where its caller looks
it up, so `praline.refine.gen_objective` and `praline.cli.gen_objective` are
two patches feeding one layer.  Spans stay in memory; `layer_metrics`
turns them into self times once the traced pass is over.
"""

import functools
import importlib
import json
import threading
import time

# (module the caller looks the name up in, attribute, span name)
BOUNDARIES = [
    ("praline.cli", "parse", "frontend.parse"),
    ("praline.cli", "_pipeline", "cli.pipeline"),
    ("praline.cli", "solve_standard", "grounder.solve_standard"),
    ("praline.cli", "break_cycles", "grounder.break_cycles"),
    ("praline.cli", "context_from_program", "symexpr.context"),
    ("praline.cli", "gen_constraints", "constraints.gen_constraints"),
    ("praline.cli", "build_env", "corrtypes.build_env"),
    ("praline.cli", "check_feasible", "constraints.check_feasible"),
    ("praline.cli", "approx_bounds", "approx.approx_bounds"),
    ("praline.cli", "gen_objective", "symexpr.gen_objective"),
    ("praline.approx", "gen_objective", "symexpr.gen_objective"),
    ("praline.refine", "gen_objective", "symexpr.gen_objective"),
    ("praline.cli", "optimize_exact", "optimizer.optimize_exact"),
    ("praline.refine", "optimize_exact", "optimizer.optimize_exact"),
    ("praline.cli", "make_delta_precise", "refine.make_delta_precise"),
    ("praline.refine", "build_cut_system", "refine.build_cut_system"),
    ("praline.constraints", "linprog", "constraints.lp"),
    ("praline.optimizer", "linprog", "constraints.lp"),
    ("praline.corrtypes", "enumerate_class_vertices", "optimizer.vertices"),
    ("praline.optimizer", "enumerate_class_vertices", "optimizer.vertices"),
    ("praline.optimizer", "solve_supports", "kernels.solve_supports"),
    ("praline.approx", "infer_expr_pair", "corrtypes.pair"),
    ("praline.refine", "node_pair", "corrtypes.pair"),
]

# Layers reported as self time, in report order.  `cli.other` is the self
# time of the whole `praline.cli.run` call: argument parsing, output
# selection, rendering and anything else no boundary above covers.
SELF_TIMES = [
    "grounder.solve_standard", "grounder.break_cycles", "frontend.parse",
    "cli.pipeline", "cli.other",
    "constraints.lp", "constraints.check_feasible",
    "constraints.gen_constraints",
    "symexpr.gen_objective", "symexpr.context",
    "refine.make_delta_precise", "refine.build_cut_system",
    "optimizer.vertices", "optimizer.optimize_exact",
    "kernels.solve_supports",
    "corrtypes.build_env", "corrtypes.pair", "approx.approx_bounds",
]

# Counts, reported per solve.
COUNTS = [
    "cli.pipeline_calls", "grounder.edges",
    "constraints.lp_calls",
    "symexpr.gen_objective_calls", "symexpr.objective_terms",
    "symexpr.cap_hits",
    "refine.sat_calls", "refine.soundness_only",
    "optimizer.vertices", "optimizer.optimize_exact_calls",
    "kernels.supports", "corrtypes.lookups",
]


class Span:
    __slots__ = ("name", "start", "end", "parent", "solve")

    def __init__(self, name, start, parent, solve):
        self.name = name
        self.start = start
        self.end = None
        self.parent = parent
        self.solve = solve


class Tracer:
    """Patches the boundaries on `install`, restores them on `uninstall`."""

    def __init__(self):
        self.spans = []
        self.counts = dict.fromkeys(COUNTS, 0)
        self.refined = 0
        self.cut = 0
        self.envs = []
        self.solve = 0
        self._local = threading.local()
        self._main = threading.main_thread()
        self._main_stack = []
        self._lock = threading.Lock()
        self._saved = []

    # -- span bookkeeping -------------------------------------------------

    def _stack(self):
        if threading.current_thread() is self._main:
            return self._main_stack
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _open(self, name):
        stack = self._stack()
        if stack:
            parent = stack[-1]
        else:
            # a worker thread: its caller is whatever the main thread is in
            parent = self._main_stack[-1] if self._main_stack else None
        span = Span(name, time.perf_counter(), parent, self.solve)
        stack.append(span)
        self.spans.append(span)
        return stack, span

    def _count(self, key, n=1):
        with self._lock:
            self.counts[key] += n

    def wrap(self, name, fn, after=None):
        """fn inside a span; after(args, result) adds counts on success."""
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack, span = tracer._open(name)
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                span.end = time.perf_counter()
                stack.pop()
                if name == "symexpr.gen_objective" and \
                        type(exc).__name__ == "DimensionCapExceeded":
                    tracer._count("symexpr.cap_hits")
                raise
            span.end = time.perf_counter()
            stack.pop()
            if after is not None:
                after(args, result)
            return result

        return traced

    # -- counts taken at the boundaries -----------------------------------

    def _after(self, name):
        if name == "cli.pipeline":
            return lambda a, r: self._count("cli.pipeline_calls")
        if name == "grounder.solve_standard":
            return lambda a, graph: self._count("grounder.edges",
                                                len(graph.edges))
        if name == "corrtypes.build_env":
            return lambda a, env: self.envs.append(env)
        if name == "symexpr.gen_objective":
            def objective(a, expr):
                self._count("symexpr.gen_objective_calls")
                self._count("symexpr.objective_terms", len(expr.terms))
            return objective
        if name == "optimizer.optimize_exact":
            return lambda a, r: self._count("optimizer.optimize_exact_calls")
        if name == "constraints.lp":
            return lambda a, r: self._count("constraints.lp_calls")
        if name == "optimizer.vertices":
            return lambda a, verts: self._count("optimizer.vertices",
                                                len(verts))
        if name == "kernels.solve_supports":
            return lambda a, r: self._count("kernels.supports", len(a[2]))
        if name == "refine.make_delta_precise":
            def refined(a, outcomes):
                for o in outcomes.values():
                    self.refined += 1
                    self.cut += "cut" in o.flags
                    if "soundness_only" in o.flags:
                        self._count("refine.soundness_only")
            return refined
        return None

    def install(self):
        for mod_name, attr, name in BOUNDARIES:
            mod = importlib.import_module(mod_name)
            fn = getattr(mod, attr)
            self._saved.append((mod, attr, fn))
            setattr(mod, attr, self.wrap(name, fn, self._after(name)))
        # window checks are counted, not timed: each is a few comparisons
        # unless it reaches optimize_exact, which has its own span
        refine = importlib.import_module("praline.refine")
        sat = refine.SatChecker.sat
        self._saved.append((refine.SatChecker, "sat", sat))

        def counted_sat(checker, wl, wu):
            self._count("refine.sat_calls")
            return sat(checker, wl, wu)

        refine.SatChecker.sat = counted_sat

    def uninstall(self):
        while self._saved:
            obj, attr, fn = self._saved.pop()
            setattr(obj, attr, fn)

    def root(self, fn):
        """fn as one traced solve: its whole call is the span `cli.other`.

        The lookup count is read, and the environments let go, inside the
        span, so freeing them is timed as it is in an untraced solve.
        """
        def solve(*args):
            try:
                return fn(*args)
            finally:
                self._count("corrtypes.lookups",
                            sum(e.lookups for e in self.envs))
                self.envs.clear()

        traced = self.wrap("cli.other", solve)

        def counted(*args):
            self.solve += 1
            return traced(*args)

        return counted

    def dump(self, path):
        """Write every span as one JSON line; parent is a line index."""
        index = {id(s): i for i, s in enumerate(self.spans)}
        with open(path, "w") as fh:
            for s in self.spans:
                fh.write(json.dumps({
                    "name": s.name, "start": s.start, "end": s.end,
                    "parent": index.get(id(s.parent)), "solve": s.solve,
                }) + "\n")


def _union_length(intervals, lo, hi):
    total, cur_lo, cur_hi = 0.0, None, None
    for a, b in sorted(intervals):
        a, b = max(a, lo), min(b, hi)
        if b <= a:
            continue
        if cur_hi is None or a > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = a, b
        else:
            cur_hi = max(cur_hi, b)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def self_times(spans):
    """Per-layer self time: each span minus the union of its children.

    Children on worker threads may overlap one another, so the union, not
    the sum, is what a parent loses.
    """
    children = {}
    for s in spans:
        if s.parent is not None:
            children.setdefault(id(s.parent), []).append((s.start, s.end))
    out = {}
    for s in spans:
        covered = _union_length(children.get(id(s), ()), s.start, s.end)
        out[s.name] = out.get(s.name, 0.0) + (s.end - s.start) - covered
    return out


def layer_metrics(tracer, solves, traced_wall, untraced_wall):
    """Per-layer metrics of one traced pass: name -> (value, unit).

    Self times add up across threads, so with refine workers running in
    parallel `trace.covered_share` can exceed 1.
    """
    selfs = self_times(tracer.spans)
    metrics = {f"{n}_s": (selfs.get(n, 0.0), "s") for n in SELF_TIMES}
    for name in COUNTS:
        metrics[name] = (tracer.counts[name] / solves, "count/solve")
    metrics["refine.cut_share"] = (
        tracer.cut / tracer.refined if tracer.refined else 0.0, "share")
    named = sum(v for k, v in selfs.items() if k != "cli.other")
    metrics["trace.wall_s"] = (traced_wall, "s")
    metrics["trace.overhead_s"] = (traced_wall - untraced_wall, "s")
    metrics["trace.covered_share"] = (named / traced_wall, "share")
    return metrics
