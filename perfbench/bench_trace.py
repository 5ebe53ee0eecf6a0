"""Spans around the public functions of each clarfries layer.

The wrappers are installed from outside on module attributes, including
every module that imported a function by name (``jsonio.bidirect``,
``plane.max_source_sink``, ...), and removed again afterwards; the package
source is never edited.  A span records its name, parent span, start and end
and the request it belongs to.  Spans stay in memory until the run ends.

A layer's self time is the summed duration of its spans minus the time
covered by spans nested inside them.  Counts are recorded at the same
boundaries: calls per span name, plus sizes read off returned objects.
"""

from __future__ import annotations

import json
import time
from collections import defaultdict

# (module, attribute, span name, counter).  A counter maps the wrapped
# call's return value to extra counts.  ``Class.__init__`` entries wrap a
# method on the class itself.
TARGETS = (
    ("clarfries.cli", "main", "cli", None),
    ("clarfries.digraph", "Digraph.__init__", "digraph.build", None),
    ("clarfries.digraph", "bidirect", "digraph.bidirect", None),
    ("clarfries.mincost", "solve", "mincost.solve", None),
    ("clarfries.mincost", "decompose", "mincost.decompose",
     lambda r: {"mincost.circuits": len(r)}),
    ("clarfries.sourcesink", "build_aux_network", "sourcesink.aux_build",
     lambda r: {"sourcesink.aux_nodes": r.digraph.node_count,
                "sourcesink.aux_arcs": r.digraph.arc_count}),
    ("clarfries.sourcesink", "extract_pair", "sourcesink.extract", None),
    ("clarfries.sourcesink", "extract_cover", "sourcesink.extract", None),
    ("clarfries.sourcesink", "certificate_checks", "sourcesink.checks", None),
    ("clarfries.sourcesink", "max_source_sink", "sourcesink.max_source_sink", None),
    ("clarfries.sourcesink", "max_resonant", "sourcesink.max_source_sink", None),
    ("clarfries.sourcesink", "max_sink_stable", "sourcesink.sink_stable", None),
    ("clarfries.jsonio", "digraph_from_json", "jsonio.parse", None),
    ("clarfries.jsonio", "weight_pair_from_json", "jsonio.parse", None),
    ("clarfries.jsonio", "node_weights_from_json", "jsonio.parse", None),
    ("clarfries.jsonio", "certificate_to_json", "jsonio.render", None),
    ("clarfries.jsonio", "sink_stable_to_json", "jsonio.render", None),
    ("clarfries.jsonio", "clar_fries_to_json", "jsonio.render", None),
    ("clarfries.plane", "parse_validate", "plane.parse_validate", None),
    ("clarfries.plane", "perfect_matching", "plane.perfect_matching", None),
    ("clarfries.plane", "orient_by_matching", "plane.orient", None),
    ("clarfries.plane", "planar_dual", "plane.dual", None),
    ("clarfries.plane", "solve_clar_fries", "plane.solve_clar_fries", None),
    ("clarfries.plane", "clar_number", "plane.solve_clar_fries", None),
    ("clarfries.plane", "fries_number", "plane.solve_clar_fries", None),
)

# ``cli.main`` is the outermost span of a request; its self time is the
# CLI's own work: file load, argparse, _require_checks and print.
ROOT_SPAN = "cli"

# Metrics reported per request: self time of a span name ("_s") or a count
# ("_calls" counts calls of a span name; the rest come from counters).
TIME_METRICS = {
    "cli.self_s": ROOT_SPAN,
    "jsonio.parse_s": "jsonio.parse",
    "jsonio.render_s": "jsonio.render",
    "digraph.build_s": "digraph.build",
    "digraph.bidirect_s": "digraph.bidirect",
    "sourcesink.max_source_sink_s": "sourcesink.max_source_sink",
    "sourcesink.aux_build_s": "sourcesink.aux_build",
    "sourcesink.extract_s": "sourcesink.extract",
    "sourcesink.checks_s": "sourcesink.checks",
    "sourcesink.sink_stable_s": "sourcesink.sink_stable",
    "mincost.solve_s": "mincost.solve",
    "mincost.decompose_s": "mincost.decompose",
    "plane.parse_validate_s": "plane.parse_validate",
    "plane.perfect_matching_s": "plane.perfect_matching",
    "plane.orient_s": "plane.orient",
    "plane.dual_s": "plane.dual",
    "plane.solve_clar_fries_s": "plane.solve_clar_fries",
}
CALL_METRICS = {
    "jsonio.render_calls": "jsonio.render",
    "digraph.build_calls": "digraph.build",
    "digraph.bidirect_calls": "digraph.bidirect",
    "sourcesink.checks_calls": "sourcesink.checks",
    "mincost.solve_calls": "mincost.solve",
    "plane.perfect_matching_calls": "plane.perfect_matching",
    "plane.dual_calls": "plane.dual",
}
COUNTER_METRICS = (
    "sourcesink.aux_nodes",
    "sourcesink.aux_arcs",
    "mincost.circuits",
)


class Tracer:
    """In-memory span recorder.  ``spans`` holds tuples
    ``(request, name, parent, start, end)``; ``parent`` is an index into
    ``spans`` or -1.  Set ``request`` before each request."""

    def __init__(self):
        self.spans: list[tuple] = []
        self.counts: dict[int, dict[str, int]] = defaultdict(lambda: defaultdict(int))
        self.request = -1
        self._stack: list[int] = []
        self._undo: list[tuple] = []

    def wrap(self, fn, name, counter):
        spans = self.spans
        stack = self._stack
        clock = time.perf_counter

        def traced(*args, **kwargs):
            parent = stack[-1] if stack else -1
            index = len(spans)
            spans.append(None)
            stack.append(index)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[index] = (self.request, name, parent, start, end)
                self.counts[self.request][name] += 1
            if counter is not None:
                counts = self.counts[self.request]
                for key, value in counter(result).items():
                    counts[key] += value
            return result

        return traced

    def install(self, modules: dict) -> None:
        """Wrap every target wherever its original object is reachable as
        a module attribute among ``modules`` (name -> module)."""
        for module_name, attr, name, counter in TARGETS:
            owner = modules[module_name]
            if "." in attr:
                cls_name, method = attr.split(".")
                cls = getattr(owner, cls_name)
                original = cls.__dict__[method]
                self._set(cls, method, self.wrap(original, name, counter), original)
                continue
            original = getattr(owner, attr)
            wrapped = self.wrap(original, name, counter)
            for module in modules.values():
                if module.__dict__.get(attr) is original:
                    self._set(module, attr, wrapped, original)

    def _set(self, obj, attr, value, original) -> None:
        setattr(obj, attr, value)
        self._undo.append((obj, attr, original))

    def uninstall(self) -> None:
        while self._undo:
            obj, attr, original = self._undo.pop()
            setattr(obj, attr, original)

    def self_times(self) -> dict[str, float]:
        """Summed self time per span name, over all recorded spans."""
        child_time = [0.0] * len(self.spans)
        for _req, _name, parent, start, end in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        totals: dict[str, float] = defaultdict(float)
        for i, (_req, name, _parent, start, end) in enumerate(self.spans):
            totals[name] += end - start - child_time[i]
        return dict(totals)

    def request_counts(self) -> dict[int, dict[str, int]]:
        return {req: dict(c) for req, c in self.counts.items()}

    def write(self, path) -> None:
        """Write the spans as JSON lines, one per span."""
        with open(path, "w", encoding="utf-8") as fh:
            for i, (req, name, parent, start, end) in enumerate(self.spans):
                fh.write(json.dumps({
                    "id": i, "request": req, "name": name, "parent": parent,
                    "start": start, "end": end,
                }) + "\n")


def layer_metrics(self_times: dict, counts: dict, requests: int) -> dict[str, float]:
    """Per-request layer metrics from summed self times and summed counts."""
    out = {}
    for metric, name in TIME_METRICS.items():
        out[metric] = self_times.get(name, 0.0) / requests
    for metric, name in CALL_METRICS.items():
        out[metric] = counts.get(name, 0) / requests
    for metric in COUNTER_METRICS:
        out[metric] = counts.get(metric, 0) / requests
    return out
