"""Span tracing by wrapping reachkit's public functions from the outside.

A Tracer replaces each listed function with a wrapper that records one
span (name, start, end, parent, op id) per call, plus a few counters
read from the call's arguments or result. Modules that imported a name
with ``from .x import name`` hold their own binding, so every
``reachkit.*`` module whose attribute is the original object gets the
wrapper too. ``uninstall`` puts the originals back.

Self time of a span is its duration minus the durations of its direct
children; summed over all spans it equals the time under the root spans.
"""

from __future__ import annotations

import sys
import time
import tracemalloc
from collections import Counter, defaultdict

# (module, attribute path, span name). An attribute path with a dot is a
# method looked up on the class, which covers every caller at once.
TARGETS = [
    ("geometry", "lp_maximize", "geometry.lp"),
    ("geometry", "is_empty", "geometry.is_empty"),
    ("geometry", "is_bounded", "geometry.is_bounded"),
    ("geometry", "vertices_2d", "geometry.vertices_2d"),
    ("geometry", "convex_hull_2d", "geometry.convex_hull_2d"),
    ("geometry", "intersect", "geometry.intersect"),
    ("geometry", "normalize_and_orthogonalize", "geometry.normalize"),
    ("geometry", "Polyhedron.contains", "geometry.contains"),
    ("flow", "expm", "flow.expm"),
    ("flow", "operator_norm", "flow.operator_norm"),
    ("flow", "rk4", "flow.rk4"),
    ("flow", "flow", "flow.flow"),
    ("flow", "max_norm_over_face", "flow.max_norm_over_face"),
    ("flow", "LinearDynamics.evaluate", "flow.field_eval"),
    ("flow", "ExpressionDynamics.evaluate", "flow.field_eval"),
    ("facelift", "classify_boundary", "facelift.classify"),
    ("facelift", "reach_bounded_time", "facelift.sweep"),
    ("facelift", "reach_invariant", "facelift.sweep"),
    ("facelift", "GridRegion.cells_touching", "facelift.cells_touching"),
    ("facelift", "GridRegion.cells_inside", "facelift.cells_inside"),
    ("polyapprox", "StepProblem.build", "polyapprox.build"),
    ("polyapprox", "check_A2", "polyapprox.check_A2"),
    ("polyapprox", "c1_minimum", "polyapprox.c1_minimum"),
    ("polyapprox", "check_C1", "polyapprox.check_C1"),
    ("polyapprox", "propagate_face", "polyapprox.propagate_face"),
    ("polyapprox", "conservative_bounds", "polyapprox.bounds"),
    ("polyapprox", "sampled_bounds", "polyapprox.bounds"),
    ("polyapprox", "assemble_polyhedron", "polyapprox.assemble"),
    ("polyapprox", "bloat_hull", "polyapprox.bloat_hull"),
    ("polyapprox", "overapproximate_step", "polyapprox.step"),
    ("polyapprox", "propagate_tube", "polyapprox.propagate_tube"),
    ("hybrid", "post", "hybrid.post"),
    ("hybrid", "semi_decide_reach", "hybrid.semi_decide"),
    ("hybrid", "replay_witness", "hybrid.replay"),
    ("hybrid", "HybridSystem.validate", "hybrid.validate"),
    ("modelfile", "load_model", "modelfile.load"),
    ("cli", "run", "cli.run"),
]

LAYERS = ("cli", "modelfile", "hybrid", "polyapprox", "facelift", "flow", "geometry")


def _points(args, kwargs):
    pts = kwargs.get("points", args[1] if len(args) > 1 else None)
    shape = getattr(pts, "shape", None)
    if not shape:
        return 1
    n = 1
    for s in shape[:-1]:
        n *= s
    return n


def _nsteps(args, kwargs):
    return int(kwargs.get("nsteps", args[3] if len(args) > 3 else 0))


def _cells(tube):
    reg = tube.occupancy if tube.direction == "over" else tube.under_occupancy
    return 0 if reg is None else reg.count()


# counters a span adds when it closes: name -> (counter, fn(args, kwargs, result))
COUNTS = {
    "flow.rk4": ("flow.rk4.steps", lambda a, k, r: _nsteps(a, k)),
    "flow.field_eval": ("flow.field_eval.points", lambda a, k, r: _points(a, k)),
    "geometry.lp": ("geometry.lp.not_optimal", lambda a, k, r: int(r.status != "optimal")),
    "facelift.classify": ("facelift.front_points", lambda a, k, r: int(r.front_mask.sum())),
    "facelift.sweep": ("facelift.cells", lambda a, k, r: _cells(r)),
    "polyapprox.step": ("polyapprox.steps", lambda a, k, r: len(r.problems)),
}

# spans whose net allocation peak is sampled with tracemalloc in a memory pass
MEMORY_SPANS = ("facelift.sweep",)


class Tracer:
    """Records spans and counters while installed; see module docstring."""

    def __init__(self):
        self.spans = []
        self.stack = []
        self.op_id = -1
        self.counters = Counter()
        self.memory = False
        self.peak_bytes = 0
        self._saved = []

    # -- installation -----------------------------------------------------

    def install(self, package):
        """Wrap every target; rebinding covers all loaded reachkit modules."""
        modules = [
            m for n, m in sorted(sys.modules.items())
            if m is not None and (n == package.__name__ or n.startswith(package.__name__ + "."))
        ]
        wrapped = {}  # id of an original function -> its wrapper
        for mod_name, path, span in TARGETS:
            mod = sys.modules[f"{package.__name__}.{mod_name}"]
            if "." in path:
                cls_name, attr = path.split(".")
                owner = getattr(mod, cls_name)
                raw = owner.__dict__[attr]
                if isinstance(raw, classmethod):
                    new = classmethod(self._wrap(span, raw.__func__))
                else:
                    new = self._wrap(span, raw)
                self._saved.append((owner, attr, raw))
                setattr(owner, attr, new)
                continue
            orig = getattr(mod, path)
            wrapped.setdefault(id(orig), self._wrap(span, orig))
        for mod in modules:
            for attr, value in list(vars(mod).items()):
                if id(value) in wrapped:
                    self._saved.append((mod, attr, value))
                    setattr(mod, attr, wrapped[id(value)])

    def uninstall(self):
        for owner, attr, value in reversed(self._saved):
            setattr(owner, attr, value)
        self._saved = []

    def _wrap(self, name, fn):
        spans, stack = self.spans, self.stack
        count = COUNTS.get(name)
        sample_memory = name in MEMORY_SPANS
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            parent = stack[-1] if stack else -1
            idx = len(spans)
            spans.append(None)
            stack.append(idx)
            mem = sample_memory and self.memory and not tracemalloc.is_tracing()
            if mem:
                tracemalloc.start()
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                spans[idx] = (name, t0, t1, parent, self.op_id)
                if mem:
                    self.peak_bytes = max(self.peak_bytes, tracemalloc.get_traced_memory()[1])
                    tracemalloc.stop()
            if count is not None:
                self.counters[count[0]] += count[1](args, kwargs, result)
            return result

        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", name)
        return wrapper

    # -- per-pass bookkeeping -----------------------------------------------

    def take(self):
        """Hand over the spans and counters recorded so far and start afresh."""
        spans, counters = list(self.spans), self.counters.copy()
        self.spans.clear()
        self.counters.clear()
        return spans, counters


def summarize(spans):
    """Per-name call counts, inclusive and self seconds, plus the number of
    ``hybrid.post`` spans that ran under ``hybrid.semi_decide``."""
    n = len(spans)
    child = [0.0] * n
    for name, t0, t1, parent, _ in spans:
        if parent >= 0:
            child[parent] += t1 - t0
    calls = Counter()
    total = defaultdict(float)
    self_s = defaultdict(float)
    for i, (name, t0, t1, parent, _) in enumerate(spans):
        calls[name] += 1
        total[name] += t1 - t0
        self_s[name] += (t1 - t0) - child[i]
    posts_in_loop = 0
    for name, _, _, parent, _ in spans:
        if name != "hybrid.post":
            continue
        while parent >= 0 and spans[parent][0] != "hybrid.semi_decide":
            parent = spans[parent][3]
        posts_in_loop += parent >= 0
    root_s = sum(t1 - t0 for _, t0, t1, parent, _ in spans if parent < 0)
    return {
        "calls": calls,
        "total_s": total,
        "self_s": self_s,
        "posts_in_loop": posts_in_loop,
        "root_s": root_s,
    }


def write_spans(path, spans, op_labels):
    """Write spans as tab-separated lines: name, start, end, parent, op."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("name\tstart_s\tend_s\tparent\top\n")
        base = spans[0][1] if spans else 0.0
        for name, t0, t1, parent, op in spans:
            label = op_labels.get(op, str(op))
            fh.write(f"{name}\t{t0 - base:.9f}\t{t1 - base:.9f}\t{parent}\t{label}\n")
