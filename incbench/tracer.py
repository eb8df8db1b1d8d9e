"""Spans and exact counts at the boundaries of the library's layers.

The tracer swaps each public function of a layer module for a wrapper, in
the defining module and in every ``incolour`` module that imported it by
name, and restores the originals on exit.  A span is
``(function id, start, end, parent span)``; spans stay in memory and are
written out once, after the timed work.

Two modes:

* ``spans=True`` wraps every public function of every layer and records
  spans, for the traced run's per-layer metrics;
* ``spans=False`` wraps only the functions whose results carry counts
  (``kernel.search``, ``constructive.construct``) or colourings
  (``solver.solve_list_colouring``), so a check pass can count and capture
  outputs at little cost.
"""

from __future__ import annotations

import inspect
import json
import sys
import time
from collections import defaultdict
from typing import Callable, Optional

LAYERS = ("families", "graphs", "harness", "constructive", "solver", "kernel", "jsonio")

# Per-element helpers, called once per edge or incidence lookup: a span
# would cost more than their body.  Their time counts to the caller.
PER_ELEMENT = frozenset({
    "graphs.canon_edge",
    "graphs.incidence_adjacent",
    "graphs.incidence_id",
    "graphs.incidence_index",
    "graphs.incidences",
    "graphs.incidence_neighbourhood",
    "families.grid_vertex",
    "families.corona_pendant",
})

COUNTED = ("kernel.search", "constructive.construct", "solver.solve_list_colouring")

NO_PARENT = -1


def layer_of(module_name: str) -> Optional[str]:
    parts = module_name.split(".")
    if parts[0] != "incolour" or len(parts) < 2 or parts[1] not in LAYERS:
        return None
    return parts[1]


def layer_functions() -> dict[str, Callable]:
    """``layer.name`` -> function, for the public functions of every
    imported layer module except the per-element helpers."""
    out = {}
    for mod_name, mod in sorted(sys.modules.items()):
        layer = layer_of(mod_name)
        if layer is None:
            continue
        for name, obj in vars(mod).items():
            label = f"{layer}.{name}"
            if (inspect.isfunction(obj) and obj.__module__ == mod_name
                    and not name.startswith("_") and label not in PER_ELEMENT):
                out[label] = obj
    return out


class Tracer:
    """Context manager that instruments the layers for one pass.

    ``on_result(label, args, kwargs, result)`` is called after each
    counted function returns, outside its span; it returns a list of
    error strings.
    """

    def __init__(self, spans: bool, on_result: Optional[Callable] = None):
        self.record = spans
        self.on_result = on_result
        found = layer_functions()
        chosen = found if spans else {k: found[k] for k in COUNTED if k in found}
        self.labels = sorted(chosen)
        if spans:
            self.labels.append("graphs.ListAssignment")
        self.originals = [chosen.get(label) for label in self.labels]
        self.spans: list = []
        self._stack = [NO_PARENT]
        self.counts = dict.fromkeys(
            ("kernel.nodes", "kernel.cutoffs", "constructive.trace_steps",
             "constructive.solver_steps"), 0)
        self.errors: list[str] = []
        self._patches: list = []

    # -- instrumentation ---------------------------------------------------

    def __enter__(self) -> "Tracer":
        import incolour.graphs as graphs
        from incolour import kernel

        self._cutoff = kernel.CUTOFF
        wrappers = {}
        for fid, (label, fn) in enumerate(zip(self.labels, self.originals)):
            if fn is None:  # graphs.ListAssignment: its __init__
                init = graphs.ListAssignment.__init__
                self._patches.append((graphs.ListAssignment, "__init__", init))
                graphs.ListAssignment.__init__ = self._wrap(fid, label, init)
                continue
            wrappers[id(fn)] = self._wrap(fid, label, fn)
        for mod_name, mod in list(sys.modules.items()):
            if mod_name != "incolour" and not mod_name.startswith("incolour."):
                continue
            for name, obj in list(vars(mod).items()):
                if id(obj) in wrappers:   # the originals stay alive, so ids are unique
                    self._patches.append((mod, name, obj))
                    setattr(mod, name, wrappers[id(obj)])
        return self

    def __exit__(self, *exc) -> None:
        for owner, name, obj in reversed(self._patches):
            setattr(owner, name, obj)
        self._patches.clear()

    def _wrap(self, fid: int, label: str, fn: Callable) -> Callable:
        spans = self.spans
        stack = self._stack
        clock = time.perf_counter
        after = self._after if label in COUNTED else None
        record = self.record

        def traced(*args, **kwargs):
            if record:
                idx = len(spans)
                spans.append(None)
                parent = stack[-1]
                stack.append(idx)
                start = clock()
                try:
                    result = fn(*args, **kwargs)
                finally:
                    end = clock()
                    stack.pop()
                    spans[idx] = (fid, start, end, parent)
            else:
                result = fn(*args, **kwargs)
            if after is not None:
                after(label, args, kwargs, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def _after(self, label, args, kwargs, result) -> None:
        if label == "kernel.search":
            status, _slots, nodes = result
            self.counts["kernel.nodes"] += nodes
            self.counts["kernel.cutoffs"] += status == self._cutoff
        elif label == "constructive.construct":
            self.counts["constructive.trace_steps"] += len(result.trace)
            self.counts["constructive.solver_steps"] += sum(
                "solver" in step.tag for step in result.trace)
        if self.on_result is not None:
            self.errors.extend(self.on_result(label, args, kwargs, result))

    # -- results -----------------------------------------------------------

    def layer_metrics(self, wall_s: float) -> dict[str, float]:
        """Per-function calls and self time, per-layer self time, counts
        and ``trace.coverage`` for a pass that took ``wall_s``."""
        child = [0.0] * len(self.spans)
        for fid, start, end, parent in self.spans:
            if parent != NO_PARENT:
                child[parent] += end - start
        calls: dict[str, int] = defaultdict(int)
        self_s: dict[str, float] = defaultdict(float)
        for (fid, start, end, _parent), inner in zip(self.spans, child):
            label = self.labels[fid]
            calls[label] += 1
            self_s[label] += end - start - inner
        out: dict[str, float] = {}
        for label in self.labels:
            out[f"{label}.calls"] = calls[label]
            out[f"{label}.self_s"] = self_s[label]
        for layer in LAYERS:
            out[f"{layer}.self_s"] = sum(
                s for label, s in self_s.items() if label.split(".")[0] == layer)
        search_s = self_s["kernel.search"]
        out.update(self.counts)
        out["kernel.nodes_per_s"] = self.counts["kernel.nodes"] / search_s if search_s else 0.0
        out["trace.coverage"] = sum(self_s.values()) / wall_s
        return out

    def dump(self, path) -> None:
        """Write the spans as ``{"functions": [...], "spans": [[fid, start,
        end, parent], ...]}``, times in seconds from the first span."""
        t0 = self.spans[0][1] if self.spans else 0.0
        rows = [[fid, round(s - t0, 7), round(e - t0, 7), p] for fid, s, e, p in self.spans]
        path.write_text(json.dumps({"functions": self.labels, "spans": rows},
                                   separators=(",", ":")))
