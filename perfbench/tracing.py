"""Spans around the package's public functions, recorded from outside it.

A Tracer swaps each traced function for a wrapper in every loaded
``hypertraffic`` module that holds a reference to it. Patching the defining
module alone is not enough: ``analysis`` binds ``pair_census``,
``traffic_totals`` and ``family_graph`` at import time and ``generators``
binds ``build_graph``, so the sweep's census calls would never be seen.

Spans are kept in memory as plain dicts (run id, span id, parent id, name,
start, end and a few counts) and written out by the caller when the run ends.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import sys
import threading
import time

# (defining module, function, span name); span names follow the module names
TRACED = (
    ("hypertraffic.traffic", "pair_census", "traffic.pair_census"),
    ("hypertraffic.traffic", "traffic_totals", "traffic.traffic_totals"),
    ("hypertraffic.traffic", "node_loads", "traffic.node_loads"),
    ("hypertraffic.tessellation", "build_ball", "tessellation.build_ball"),
    ("hypertraffic.generators", "family_graph", "generators.family_graph"),
    ("hypertraffic.generators", "gen_kary_tree", "generators.gen_kary_tree"),
    ("hypertraffic.graphs", "graph_from_json_dict", "graphs.graph_from_json"),
    ("hypertraffic.graphs", "build_graph", "graphs.build_graph"),
    ("hypertraffic.analysis", "sweep", "analysis.sweep"),
    ("hypertraffic.serialize", "write_text", "serialize.write_text"),
)


def _counts(name, args, kwargs, result) -> dict:
    """Work counts taken at the span boundary from arguments and results."""
    if name == "traffic.pair_census":
        g = args[0] if args else kwargs["g"]
        n = args[1] if len(args) > 1 else kwargs["n"]
        sources = len(g.layers[n])
        return {
            "sources": sources,
            "pairs": int(result.sum()),
            "expected_pairs": sources * sources,
        }
    if name == "traffic.node_loads":
        g = args[0] if args else kwargs["g"]
        n = args[2] if len(args) > 2 else kwargs["n"]
        return {"sources": len(g.layers[n])}
    if name == "graphs.build_graph":
        return {"nodes": result.node_count, "edges": sum(map(len, result.adjacency)) // 2}
    if name == "serialize.write_text":
        text = args[1] if len(args) > 1 else kwargs["text"]
        return {"bytes": len(text.encode("utf-8"))}
    return {}


class Tracer:
    """In-memory span recorder. One instance per benchmark process."""

    def __init__(self):
        self.spans = []
        self._local = threading.local()
        self._lock = threading.Lock()
        self._next_id = 0
        self.run_id = None

    def _stack(self):
        if not hasattr(self._local, "stack"):
            self._local.stack = []
        return self._local.stack

    @contextlib.contextmanager
    def span(self, name):
        """Record one span; attach counts through the yielded dict."""
        with self._lock:
            span_id = self._next_id
            self._next_id += 1
        stack = self._stack()
        record = {
            "run": self.run_id,
            "id": span_id,
            "parent": stack[-1] if stack else None,
            "name": name,
            "counts": {},
        }
        stack.append(span_id)
        record["start"] = time.perf_counter()
        try:
            yield record["counts"]
        finally:
            record["end"] = time.perf_counter()
            stack.pop()
            with self._lock:
                self.spans.append(record)

    def _wrap(self, name, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            with self.span(name) as counts:
                result = fn(*args, **kwargs)
                counts.update(_counts(name, args, kwargs, result))
            return result

        return wrapper

    @contextlib.contextmanager
    def patched(self):
        """Wrap every traced function wherever a hypertraffic module binds it."""
        for modname, _, _ in TRACED:
            importlib.import_module(modname)
        modules = [
            m for key, m in list(sys.modules.items())
            if m is not None and (key == "hypertraffic" or key.startswith("hypertraffic."))
        ]
        undo = []
        try:
            for modname, fname, span_name in TRACED:
                orig = getattr(sys.modules[modname], fname)
                wrapper = self._wrap(span_name, orig)
                for mod in modules:
                    for attr, val in list(vars(mod).items()):
                        if val is orig:
                            setattr(mod, attr, wrapper)
                            undo.append((mod, attr, orig))
            yield self
        finally:
            for mod, attr, orig in reversed(undo):
                setattr(mod, attr, orig)


def _covered(intervals) -> float:
    """Length of the union of (start, end) intervals."""
    total = 0.0
    cur_start = cur_end = None
    for start, end in sorted(intervals):
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        else:
            cur_end = max(cur_end, end)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def summarize(spans) -> tuple:
    """Aggregate spans two ways.

    By span name: calls, total seconds, self seconds and summed counts. Self
    time is a span's duration minus the part of it that its child spans cover,
    clipped to the span's own interval.

    By layer (the span name's module part): seconds inside the layer, counting
    a call nested in another call of the same layer once.
    """
    by_id = {(s["run"], s["id"]): s for s in spans}
    children = {}
    for s in spans:
        if s["parent"] is not None:
            children.setdefault((s["run"], s["parent"]), []).append(s)
    names, layers = {}, {}
    for s in spans:
        dur = s["end"] - s["start"]
        kids = children.get((s["run"], s["id"]), [])
        covered = _covered(
            (max(k["start"], s["start"]), min(k["end"], s["end"])) for k in kids
        )
        agg = names.setdefault(
            s["name"], {"calls": 0, "total_s": 0.0, "self_s": 0.0, "counts": {}}
        )
        agg["calls"] += 1
        agg["total_s"] += dur
        agg["self_s"] += dur - covered
        for key, val in s["counts"].items():
            agg["counts"][key] = agg["counts"].get(key, 0) + val
        layer = s["name"].split(".")[0]
        parent = by_id.get((s["run"], s["parent"]))
        if parent is None or parent["name"].split(".")[0] != layer:
            layers[layer] = layers.get(layer, 0.0) + dur
    return names, layers
