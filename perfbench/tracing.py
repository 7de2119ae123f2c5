"""Spans around graphmix's public calls, recorded from outside the package.

``instrument(tracer)`` swaps each traced function for a wrapper in every
graphmix module namespace that binds it (and patches traced methods on
their classes), and restores the originals on exit.  A wrapper records
one span (name, start, end, parent index) per call, plus counts read off
the arguments and the result at the same boundary.  Spans stay in
memory; the harness writes them out when the run ends.

A span name is ``<layer>.<operation>``; the layer is the graphmix module.
A layer's self time is the time of its spans minus the time of their
child spans.  Work the wrappers cannot separate stays in the self time
of the span that encloses it: ``_sample_cross_pairs`` inside
``mixture.join``, and the per-edge ``UnionFind`` method calls inside
``mixture.bare_join`` and ``linegraph.inverse`` (wrapping calls made
once per edge would cost more than the work they time).
"""

from __future__ import annotations

import contextlib
import sys
import time
from collections import defaultdict

import graphmix as gm
import graphmix.cli  # noqa: F401  (gm.cli is not imported by the package)

LAYERS = (
    "graph",
    "graphon",
    "masspartition",
    "linegraph",
    "mixture",
    "estimators",
    "temporal",
    "experiments",
    "cli",
)

_SUITE_OPS = {
    "table1:topk": "experiments.topk_replicate",
    "table1:finiteU": "experiments.finiteU_replicate",
    "table1:infiniteU": "experiments.infiniteU_replicate",
}


def _arg(args, kwargs, pos, name, default=None):
    if len(args) > pos:
        return args[pos]
    return kwargs.get(name, default)


def _join_name(args, kwargs):
    meta = _arg(args, kwargs, 4, "sparse_meta")
    return "mixture.bare_join" if meta is None else "mixture.join"


def _cli_name(args, kwargs):
    argv = list(_arg(args, kwargs, 0, "argv") or ())
    return "cli.generate" if "generate" in argv else "cli.estimate"


def _suite_name(args, kwargs):
    return _SUITE_OPS.get(_arg(args, kwargs, 0, "name"), "experiments.run_suite")


def _tell(args, kwargs):
    return _arg(args, kwargs, 1, "fobj").tell()


def _bytes_written(args, kwargs, result, before):
    return {"graph.bytes_written": _arg(args, kwargs, 1, "fobj").tell() - before}


def _fit_candidates(args, kwargs, result, before):
    n = len(_arg(args, kwargs, 0, "x"))
    min_seg = _arg(args, kwargs, 2, "min_seg", 3)
    return {"estimators.fit_candidates": max(0, n - 2 * min_seg + 1)}


def _pairs(args, kwargs, result, before):
    n = _arg(args, kwargs, 1, "xs").size
    return {"graphon.pairs_evaluated": n * (n - 1) // 2}


def _parsed(args, kwargs, result, before):
    return {"temporal.events": len(result.events), "temporal.rejects": len(result.rejects)}


# (module, attribute, span name or name function, count function, pre-call hook)
FUNCTIONS = (
    ("graph", "degree_spectrum", "graph.spectrum", None, None),
    ("graph", "write_edge_list", "graph.write", _bytes_written, _tell),
    ("graph", "read_edge_list", "graph.read", None, None),
    ("graphon", "parse_graphon", "graphon.parse", None, None),
    ("graphon", "_graph_from_latents", "graphon.sample", _pairs, None),
    ("masspartition", "parse_mass_partition", "masspartition.parse", None, None),
    ("masspartition", "sample_clique_labels", "masspartition.labels", None, None),
    ("masspartition", "clique_size_counts", "masspartition.counts", None, None),
    ("linegraph", "star_forest", "linegraph.star_forest", None, None),
    (
        "linegraph",
        "line_graph",
        "linegraph.line_graph",
        lambda a, k, r, b: {"linegraph.line_edges": r.edge_count},
        None,
    ),
    ("linegraph", "inverse_line_graph_disjoint", "linegraph.inverse", None, None),
    ("mixture", "generate_mixture", "mixture.generate", None, None),
    (
        "mixture",
        "join_graphs",
        _join_name,
        lambda a, k, r, b: {"mixture.cross_pairs": r.m_new},
        None,
    ),
    ("estimators", "estimate_partition", "estimators.estimate", None, None),
    ("estimators", "estimate_k_finite", "estimators.gap_scan", None, None),
    ("estimators", "estimate_k_infinite", "estimators.infinite", None, None),
    ("estimators", "estimate_partition_finite", "estimators.partition", None, None),
    ("estimators", "estimate_partition_infinite", "estimators.partition", None, None),
    ("estimators", "fit_two_segments", "estimators.segment_fit", _fit_candidates, None),
    ("estimators", "predict_top_k", "estimators.forecast", None, None),
    ("estimators", "baseline_sqrt_predict", "estimators.forecast", None, None),
    ("estimators", "baseline_partition", "estimators.baseline", None, None),
    ("estimators", "mape", "estimators.mape", None, None),
    ("temporal", "parse_edge_events", "temporal.parse", _parsed, None),
    ("temporal", "serialize_edge_events", "temporal.serialize", None, None),
    ("temporal", "snapshot_at", "temporal.snapshot", None, None),
    ("temporal", "evaluation_run", "temporal.evaluate", None, None),
    ("experiments", "run_suite", _suite_name, None, None),
    ("cli", "main", _cli_name, None, None),
)

# (module, class, method, span name, count function)
METHODS = (
    (
        "graph",
        "Graph",
        "__init__",
        "graph.canonicalize",
        lambda a, k, r, b: {"graph.edges_canonicalized": a[0].edge_count},
    ),
    ("mixture", "MixtureSequence", "__init__", "mixture.sequence_init", None),
    ("mixture", "MixtureSequence", "member", "mixture.member", None),
)


class Tracer:
    """Spans as [name, start, end, parent] rows plus summed counts."""

    def __init__(self):
        self.spans: list[list] = []
        self.counts: dict[str, float] = defaultdict(float)
        self._stack: list[int] = []

    def wrap(self, fn, name, count=None, pre=None):
        spans, stack, counts = self.spans, self._stack, self.counts
        clock = time.perf_counter

        def traced(*args, **kwargs):
            label = name(args, kwargs) if callable(name) else name
            before = pre(args, kwargs) if pre else None
            idx = len(spans)
            spans.append([label, 0.0, 0.0, stack[-1] if stack else -1])
            stack.append(idx)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[idx][1] = start
                spans[idx][2] = end
            if count:
                for key, value in count(args, kwargs, result, before).items():
                    counts[key] += value
            return result

        traced.__wrapped__ = fn
        return traced

    def op_times(self) -> dict[str, float]:
        """Inclusive seconds per span name."""
        out: dict[str, float] = defaultdict(float)
        for name, start, end, _ in self.spans:
            out[name] += end - start
        return out

    def layer_self_times(self) -> dict[str, float]:
        """Seconds per layer with child spans subtracted."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out = {layer: 0.0 for layer in LAYERS}
        for (name, start, end, _), inner in zip(self.spans, child):
            layer = name.split(".", 1)[0]
            out[layer] = out.get(layer, 0.0) + (end - start - inner)
        return out


def _modules():
    return [m for key, m in sys.modules.items() if key == "graphmix" or key.startswith("graphmix.")]


@contextlib.contextmanager
def instrument(tracer: Tracer):
    """Route every traced graphmix call through ``tracer`` inside the block."""
    undo = []
    try:
        modules = _modules()
        for mod_name, attr, name, count, pre in FUNCTIONS:
            original = getattr(getattr(gm, mod_name), attr)
            wrapper = tracer.wrap(original, name, count, pre)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, key, wrapper)
                        undo.append((mod, key, original))
        for mod_name, cls_name, method, name, count in METHODS:
            cls = getattr(getattr(gm, mod_name), cls_name)
            original = cls.__dict__[method]
            setattr(cls, method, tracer.wrap(original, name, count))
            undo.append((cls, method, original))
        yield tracer
    finally:
        for owner, key, original in reversed(undo):
            setattr(owner, key, original)
