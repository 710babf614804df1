"""Span tracing of the eitnarrow layers from outside the package.

Every public function of a layer module is wrapped, and each module
attribute that refers to it is rebound to the wrapper, so a call made
through ``from .kernels import mc_batch`` in another module is traced
too.  Private helpers are not wrapped: their time is the self time of
the public function that called them.

Spans stay in memory as ``(op, parent, name, start, end)`` tuples; the
parent is the index of the enclosing span, or -1.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import os
import sys
import time

PACKAGE = "eitnarrow"
LAYERS = (
    "config",
    "medium",
    "spectral",
    "fitting",
    "noise",
    "kernels",
    "propagation",
    "mc",
    "artifacts",
    "cli",
)


def _mc_batch_elements(arguments):
    return "kernels.mc_batch.elements", arguments["probe"].size * arguments["nsl"]


def _bytes_written(arguments):
    return "artifacts.bytes_written", os.path.getsize(arguments["path"])


# counters taken at a span's boundary, after the wrapped call returns;
# each reads the call's arguments by parameter name
COUNTERS = {
    "kernels.mc_batch": _mc_batch_elements,
    "artifacts.write_spectrum_csv": _bytes_written,
    "artifacts.write_table_csv": _bytes_written,
    "artifacts.write_sidecar": _bytes_written,
    "artifacts.write_svg_plot": _bytes_written,
}


class Tracer:
    """Wraps the public functions of every layer; ``install`` and
    ``uninstall`` switch the wrappers in and out between operations."""

    def __init__(self):
        self.spans: list = []
        self.counts: dict[str, float] = {}
        self.op = 0
        self._stack: list[int] = []
        wrappers = {}  # id(original) -> wrapper
        for layer in LAYERS:
            module = importlib.import_module(f"{PACKAGE}.{layer}")
            for attr, obj in vars(module).items():
                if (
                    inspect.isfunction(obj)
                    and obj.__module__ == module.__name__
                    and not attr.startswith("_")
                ):
                    wrappers[id(obj)] = self._wrap(obj, f"{layer}.{attr}")
        # every module of the package that holds a reference to a wrapped
        # function, under whatever name it imported it
        self._bindings = [
            (module, attr, obj, wrappers[id(obj)])
            for name, module in list(sys.modules.items())
            if name == PACKAGE or name.startswith(PACKAGE + ".")
            for attr, obj in list(vars(module).items())
            if id(obj) in wrappers
        ]

    def _wrap(self, fn, name):
        spans, stack, counter = self.spans, self._stack, COUNTERS.get(name)
        signature = inspect.signature(fn)
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
                spans[index] = (self.op, parent, name, start, end)
            if counter is not None:
                key, value = counter(signature.bind(*args, **kwargs).arguments)
                self.counts[key] = self.counts.get(key, 0) + value
            return result

        return functools.wraps(fn)(traced)

    def install(self, op: int) -> None:
        self.op = op
        for module, attr, _, wrapper in self._bindings:
            setattr(module, attr, wrapper)

    def uninstall(self) -> None:
        for module, attr, original, _ in self._bindings:
            setattr(module, attr, original)

    def totals(self) -> tuple[dict, dict, dict, dict]:
        """Inclusive seconds and calls per function, self seconds per
        function and self seconds per layer, summed over all spans."""
        child = [0.0] * len(self.spans)
        for op, parent, name, start, end in self.spans:
            if parent >= 0:
                child[parent] += end - start
        inclusive, calls, own, layer_own = {}, {}, {}, {}
        for (op, parent, name, start, end), inner in zip(self.spans, child):
            dur = end - start
            inclusive[name] = inclusive.get(name, 0.0) + dur
            calls[name] = calls.get(name, 0) + 1
            own[name] = own.get(name, 0.0) + dur - inner
            layer = name.split(".", 1)[0]
            layer_own[layer] = layer_own.get(layer, 0.0) + dur - inner
        return inclusive, calls, own, layer_own

    def dump(self, path: str) -> None:
        """Write every span as one JSON object per line."""
        with open(path, "w") as fh:
            for index, (op, parent, name, start, end) in enumerate(self.spans):
                fh.write(
                    json.dumps(
                        {"id": index, "op": op, "parent": parent, "name": name,
                         "start": start, "end": end}
                    )
                    + "\n"
                )
