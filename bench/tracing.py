"""Spans around calls into the resnet modules, recorded from outside the package.

Each traced function is replaced at every module attribute that holds it, so
a call resolved through `resnet.cli`, `resnet.greens` or `resnet.energy` lands
in the same wrapper.  Spans stay in memory (name, start, end, parent, op id)
and are written out once the run ends.  Nothing here is imported by an
untraced run.
"""

from __future__ import annotations

import importlib
import sys
from time import perf_counter

# Public functions traced per module; "Class.method" entries are wrapped on
# the class.  These are the layer boundaries the per-layer metrics read.
TRACED = {
    "graphs": ("load_graph", "validate", "generate", "ConductanceGraph.from_edges"),
    "laplacian": (
        "assemble_laplacian",
        "interior_laplacian",
        "harmonic_extension",
        "transition_operator",
    ),
    "energy": ("solve_dipole", "pointwise_product", "energy_inner"),
    "resistance": ("resistance", "resistance_matrix", "ResistanceMatrix.triangle_slack"),
    "greens": ("greens_gram", "greens_inversion_check", "walk_greens"),
    "markov": ("sample_paths", "harmonic_measure_exact", "estimate_from_samples"),
    "decomposition": ("energy_split", "royden_split"),
    "cli": ("main",),
}

_ROUTE_ALIASES = {"M5": "M7", "M6": "M2"}


class Span:
    __slots__ = ("name", "start", "end", "parent", "op", "error", "info")

    def __init__(self, name, parent, op):
        self.name = name
        self.parent = parent
        self.op = op
        self.start = self.end = 0.0
        self.error = None
        self.info = None

    def to_json(self):
        return {
            "name": self.name,
            "start": self.start,
            "end": self.end,
            "parent": self.parent,
            "op": self.op,
            "error": self.error,
            "info": self.info,
        }


def _resistance_name(args, kwargs):
    method = args[3] if len(args) > 3 else kwargs.get("method", "M2")
    return f"resistance.resistance.{_ROUTE_ALIASES.get(method, method)}"


def _dipole_info(args, kwargs, result, exc):
    graph = getattr(args[0], "graph", args[0])
    tol = args[3] if len(args) > 3 else kwargs.get("tol", 1e-10)
    key = (id(graph), int(args[1]), int(args[2]), float(tol))
    if result is not None:
        return {"key": key, "iterations": result.iterations, "residual": result.solve_residual}
    return {"key": key, "iterations": getattr(exc, "iterations", None) or 0,
            "residual": getattr(exc, "residual", None) or 0.0}


def _sample_info(args, kwargs, result, exc):
    if result is None:
        return None
    return {"walks": len(result), "steps": sum(s.length for s in result)}


def _series_info(args, kwargs, result, exc):
    if result is None:
        return None
    k = len(result.vertices)
    return {"order": result.order, "flops": 2 * result.order * k**3}


_INFO = {
    "energy.solve_dipole": _dipole_info,
    "markov.sample_paths": _sample_info,
    "greens.walk_greens": _series_info,
}


class Tracer:
    """Collects spans; `op` is set by the driver loop before each op."""

    def __init__(self):
        self.spans = []
        self.stack = []
        self.op = None

    def _wrap(self, name, fn):
        name_of = _resistance_name if name == "resistance.resistance" else None
        info_of = _INFO.get(name)
        spans, stack = self.spans, self.stack

        def traced(*args, **kwargs):
            span = Span(name_of(args, kwargs) if name_of else name,
                        stack[-1] if stack else None, self.op)
            stack.append(len(spans))
            spans.append(span)
            result = exc = None
            span.start = perf_counter()
            try:
                result = fn(*args, **kwargs)
                return result
            except Exception as err:
                exc = err
                span.error = type(err).__name__
                raise
            finally:
                span.end = perf_counter()
                stack.pop()
                if info_of:
                    span.info = info_of(args, kwargs, result, exc)

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        traced.__doc__ = getattr(fn, "__doc__", None)
        return traced

    def install(self):
        """Wrap every TRACED function wherever a resnet module binds it."""
        modules = [m for n, m in list(sys.modules.items()) if n == "resnet" or n.startswith("resnet.")]
        for short, names in TRACED.items():
            home = importlib.import_module(f"resnet.{short}")
            for attr in names:
                if "." in attr:
                    cls_name, meth = attr.split(".")
                    cls = getattr(home, cls_name)
                    raw = cls.__dict__[meth]
                    if isinstance(raw, classmethod):
                        setattr(cls, meth, classmethod(self._wrap(f"{short}.{meth}", raw.__func__)))
                    else:
                        setattr(cls, meth, self._wrap(f"{short}.{meth}", raw))
                    continue
                fn = getattr(home, attr)
                traced = self._wrap(f"{short}.{attr}", fn)
                for mod in modules:
                    for key, value in list(vars(mod).items()):
                        if value is fn:
                            setattr(mod, key, traced)

    def self_times(self):
        """Per-span self time: duration minus the time of its direct children."""
        child = [0.0] * len(self.spans)
        for span in self.spans:
            if span.parent is not None:
                child[span.parent] += span.end - span.start
        return [s.end - s.start - c for s, c in zip(self.spans, child)]


LAYER_METRICS = (
    ("energy.solve_dipole.calls", "count"),
    ("energy.solve_dipole.s", "s"),
    ("energy.solve_dipole.iterations", "count"),
    ("energy.solve_dipole.dup_frac", "fraction"),
    ("energy.solve_dipole.residual_max", "rel"),
    ("resistance.triangle_slack.s", "s"),
    ("greens.greens_inversion_check.s", "s"),
    ("resistance.resistance_matrix.s", "s"),
    ("greens.greens_gram.s", "s"),
    *((f"resistance.resistance.{m}.{k}", u) for m in ("M1", "M2", "M3", "M4", "M7")
      for k, u in (("s", "s"), ("failed", "count"))),
    ("graphs.load_graph.s", "s"),
    ("graphs.validate.s", "s"),
    ("graphs.from_edges.s", "s"),
    ("graphs.generate.s", "s"),
    ("cli.main.calls", "count"),
    ("cli.main.self_s", "s"),
    ("markov.sample_paths.s", "s"),
    ("markov.sample_paths.walks", "count"),
    ("markov.sample_paths.steps", "count"),
    ("markov.sample_paths.steps_per_s", "1/s"),
    ("markov.harmonic_measure_exact.s", "s"),
    ("markov.estimate_from_samples.s", "s"),
    ("greens.walk_greens.s", "s"),
    ("greens.walk_greens.order", "count"),
    ("greens.walk_greens.flops", "flop"),
    ("laplacian.assemble_laplacian.s", "s"),
    ("laplacian.interior_laplacian.s", "s"),
    ("laplacian.harmonic_extension.s", "s"),
    ("laplacian.transition_operator.s", "s"),
    ("decomposition.energy_split.s", "s"),
    ("decomposition.royden_split.s", "s"),
    ("energy.pointwise_product.s", "s"),
    ("energy.energy_inner.s", "s"),
    ("trace.overhead_frac", "fraction"),
)


def layer_values(tracer, selfs, overhead_frac):
    """Every LAYER_METRICS value, summed over the traced phase."""
    by_name = {}
    for span, own in zip(tracer.spans, selfs):
        agg = by_name.setdefault(span.name, {"calls": 0, "s": 0.0, "failed": 0})
        agg["calls"] += 1
        agg["s"] += own
        agg["failed"] += span.error is not None

    def agg(name, key):
        return by_name.get(name, {}).get(key, 0)

    dipoles = [s for s in tracer.spans if s.name == "energy.solve_dipole"]
    seen, dups = set(), 0
    for span in dipoles:
        key = (span.op, span.info["key"])
        dups += key in seen
        seen.add(key)
    samples = [s.info for s in tracer.spans if s.name == "markov.sample_paths" and s.info]
    series = [s.info for s in tracer.spans if s.name == "greens.walk_greens" and s.info]
    steps = sum(i["steps"] for i in samples)
    sample_s = agg("markov.sample_paths", "s")

    values = {
        "energy.solve_dipole.calls": len(dipoles),
        "energy.solve_dipole.iterations": sum(s.info["iterations"] for s in dipoles),
        "energy.solve_dipole.dup_frac": dups / len(dipoles) if dipoles else 0.0,
        "energy.solve_dipole.residual_max": max((s.info["residual"] for s in dipoles), default=0.0),
        "cli.main.self_s": agg("cli.main", "s"),
        "markov.sample_paths.walks": sum(i["walks"] for i in samples),
        "markov.sample_paths.steps": steps,
        "markov.sample_paths.steps_per_s": steps / sample_s if sample_s > 0 else 0.0,
        "greens.walk_greens.order": sum(i["order"] for i in series),
        "greens.walk_greens.flops": sum(i["flops"] for i in series),
        "trace.overhead_frac": overhead_frac,
    }
    for name, _ in LAYER_METRICS:
        if name in values:
            continue
        span_name, _, key = name.rpartition(".")
        values[name] = agg(span_name, key)
    return values


def layer_shares(tracer, selfs):
    """Self time by module over the traced phase, largest first."""
    totals = {}
    for span, own in zip(tracer.spans, selfs):
        layer = span.name.split(".")[0]
        totals[layer] = totals.get(layer, 0.0) + own
    return sorted(totals.items(), key=lambda kv: -kv[1])


def op_breakdown(tracer, selfs, op):
    """Self time by span name within one op, largest first."""
    totals = {}
    for span, own in zip(tracer.spans, selfs):
        if span.op == op:
            totals[span.name] = totals.get(span.name, 0.0) + own
    return sorted(totals.items(), key=lambda kv: -kv[1])
