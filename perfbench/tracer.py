"""In-memory span recorder wrapped around the public functions of each layer.

The layers are the package modules.  Modules bind their callees with
`from .x import y`, so a wrapper only fires if it replaces the name in the
module that makes the call: `install` therefore swaps every binding of each
wrapped function in every loaded `gammalattice` module (for example
`gammalattice.cli.coefficient`, `gammalattice.gammanum.coefficient` and
`gammalattice.coeffs.elementary_prefix`), not only the defining one.

A span is [layer.name, start, end, parent index, counters].  Self time is a
span's duration minus the durations of its direct children; calls are
single-threaded and nested, so the self times of all spans under `cli.main`
add up to its duration exactly.
"""

from __future__ import annotations

import importlib
import inspect
import json
import sys
import time
from math import comb

LAYERS = ("sympoly", "coeffs", "linalg", "gammanum", "density", "cli")


def _table_counts(args, result):
    return {"cells": (result.max_len + 1) * (result.max_deg + 1)}


def _cauchy_binet_counts(args, result):
    left = args[0]
    return {
        "enumerated": comb(left.cols, left.rows),
        "pruned": result.pruned_count,
        "kept": len(result.surviving),
    }


def _grid_counts(args, result):
    return {"cells": len(result)}


# Counters read at the boundary where the work happens.
_OBSERVERS = {
    "sympoly.elementary_prefix": _table_counts,
    "sympoly.homogeneous_prefix": _table_counts,
    "linalg.cauchy_binet": _cauchy_binet_counts,
    "density.density_grid": _grid_counts,
}


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []

    def wrap(self, key: str, fn):
        spans, stack = self.spans, self._stack
        clock = time.perf_counter
        observe = _OBSERVERS.get(key)

        def traced(*args, **kwargs):
            span = [key, 0.0, 0.0, stack[-1] if stack else -1, None]
            stack.append(len(spans))
            spans.append(span)
            span[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
            if observe is not None:
                span[4] = observe(args, result)
            return result

        return traced

    def install(self) -> None:
        """Wrap every public function of each layer at all of its bindings."""
        wrappers = {}
        for layer in LAYERS:
            module = importlib.import_module(f"gammalattice.{layer}")
            for name, obj in vars(module).items():
                if (
                    inspect.isfunction(obj)
                    and obj.__module__ == module.__name__
                    and not name.startswith("_")
                ):
                    wrappers[obj] = self.wrap(f"{layer}.{name}", obj)
        for mod_name, module in list(sys.modules.items()):
            if mod_name != "gammalattice" and not mod_name.startswith("gammalattice."):
                continue
            for attr, obj in list(vars(module).items()):
                if inspect.isfunction(obj) and obj in wrappers:
                    setattr(module, attr, wrappers[obj])
        envelope = importlib.import_module("gammalattice.cli").OutputEnvelope
        for name in ("to_json", "to_csv"):
            setattr(envelope, name, self.wrap(f"cli.{name}", getattr(envelope, name)))

    def summary(self) -> dict:
        """Per-function calls, busy and self time, summed counters and the
        per-layer self time, plus the raw `verify_identity` durations."""
        spans = self.spans
        children = [0.0] * len(spans)
        for key, start, end, parent, _ in spans:
            if parent >= 0:
                children[parent] += end - start
        calls: dict[str, int] = {}
        busy: dict[str, float] = {}
        own: dict[str, float] = {}
        layer_self = {layer: 0.0 for layer in LAYERS}
        counters: dict[str, int] = {}
        verify_ms = []
        for i, (key, start, end, parent, counts) in enumerate(spans):
            duration = end - start
            self_time = duration - children[i]
            calls[key] = calls.get(key, 0) + 1
            busy[key] = busy.get(key, 0.0) + duration
            own[key] = own.get(key, 0.0) + self_time
            layer_self[key.split(".", 1)[0]] += self_time
            for name, value in (counts or {}).items():
                counter = f"{key}.{name}"
                counters[counter] = counters.get(counter, 0) + value
            if key == "gammanum.verify_identity":
                verify_ms.append(duration * 1e3)
        return {
            "calls": calls,
            "busy_s": busy,
            "self_s": own,
            "layer_self_s": layer_self,
            "counters": counters,
            "verify_ms": verify_ms,
        }

    def write(self, path, trace_id: str) -> None:
        """Write the spans as JSON lines, one per span, with parent links."""
        with open(path, "w", encoding="utf-8") as out:
            for i, (key, start, end, parent, counts) in enumerate(self.spans):
                record = {
                    "trace": trace_id,
                    "id": i,
                    "parent": parent if parent >= 0 else None,
                    "name": key,
                    "start": start,
                    "end": end,
                }
                if counts:
                    record["counts"] = counts
                out.write(json.dumps(record) + "\n")
