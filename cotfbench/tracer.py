"""Per-layer spans around ``cotf``'s public functions, from outside the package.

``Tracer.active()`` replaces each traced function at every place it is
bound: module attributes (``analysis`` binds ``simulate_field``,
``build_stack``, ``solve`` and ``mainlobe_mask`` by ``from ... import``,
and the package namespace re-exports them) and function default arguments
(``na_sweep``'s ``mask_builder``).  Leaving the block restores the
originals, so traced and untraced ops can alternate in one process.

Each span records its layer, start, end and parent; a layer's self time is
its spans' duration minus the time their child spans cover.
"""
from __future__ import annotations

import contextlib
import importlib
import inspect
import os
import sys
import time
from collections import Counter
from dataclasses import dataclass, field

# (module, function, layer).  Several functions may share one layer.
FUNCTIONS = (
    ("debye", "simulate_field", "debye.simulate_field"),
    ("debye", "load_field", "debye.load_field"),
    ("debye", "dump_field", "debye.dump_field"),
    ("otf", "build_stack", "otf.build_stack"),
    ("regions", "mainlobe_mask", "regions.mask"),
    ("regions", "depth_target_mask", "regions.mask"),
    ("optimizer", "solve", "optimizer"),
    ("optimizer", "truncation_sweep", "optimizer"),
    ("analysis", "defocus_curve", "analysis"),
    ("analysis", "power_vs_shift", "analysis"),
    ("analysis", "na_sweep", "analysis"),
    ("analysis", "zero_channel_grid", "analysis"),
)

# Layer -> the counters its spans carry besides calls and time.
LAYERS = {
    "debye.simulate_field": ("terms",), "debye.load_field": ("bytes",),
    "debye.dump_field": ("bytes",), "otf.build_stack": ("bytes",), "regions.mask": (),
    "optimizer": ("bytes", "errors"), "analysis": (), "cli.main": (), "cli.emit": ("bytes",),
}


def _terms(arguments, result):
    """Quadrature terms requested: nodes x n_theta x n_phi."""
    aperture, grid = arguments["aperture"], arguments["grid"]
    return {"terms": grid.node_count * aperture.n_theta * aperture.n_phi}


def _file_bytes(arguments, result):
    return {"bytes": os.path.getsize(arguments["path"])}


def _stack_bytes(arguments, result):
    return {"bytes": arguments["stack"].columns.nbytes}


def _result_bytes(arguments, result):
    return {"bytes": result.columns.nbytes}


def _emitted_bytes(arguments, result):
    return {"bytes": os.path.getsize(result)}


COUNTERS = {
    "simulate_field": _terms,
    "load_field": _file_bytes,
    "dump_field": _file_bytes,
    "build_stack": _result_bytes,
    "solve": _stack_bytes,
    "truncation_sweep": _stack_bytes,
    "emit": _emitted_bytes,
}


@dataclass
class Span:
    layer: str
    function: str
    parent: int | None
    start: float
    end: float = 0.0
    child_s: float = 0.0
    counts: dict = field(default_factory=dict)


class Tracer:
    """Spans in memory; ``totals()`` aggregates them per layer."""

    def __init__(self):
        self.spans: list[Span] = []
        self._open: list[int] = []
        self._numerical_error = importlib.import_module("cotf.optimizer").NumericalError
        targets = [
            (getattr(importlib.import_module(f"cotf.{module}"), name), layer)
            for module, name, layer in FUNCTIONS
        ]
        targets.append((importlib.import_module("cotf.cli").Runner.emit, "cli.emit"))
        self._wrappers = {id(f): (f, self.wrap(f, layer)) for f, layer in targets}

    def span(self, layer: str, function: str, call, counter=None, signature=None):
        """Run ``call()`` inside a span of ``layer``."""
        index = len(self.spans)
        span = Span(layer, function, self._open[-1] if self._open else None, time.perf_counter())
        self.spans.append(span)
        self._open.append(index)
        try:
            result = call()
        except self._numerical_error:
            if layer == "optimizer":
                span.counts["errors"] = 1
            raise
        finally:
            span.end = time.perf_counter()
            self._open.pop()
            if span.parent is not None:
                self.spans[span.parent].child_s += span.end - span.start
        if counter is not None:
            span.counts.update(counter(signature, result))
        return result

    def wrap(self, function, layer: str):
        signature = inspect.signature(function)
        name = function.__name__
        counter = COUNTERS.get(name)

        def traced(*args, **kwargs):
            bound = None
            if counter is not None:
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
                bound = bound.arguments
            return self.span(layer, name, lambda: function(*args, **kwargs), counter, bound)

        traced.__wrapped__ = function
        traced.__name__ = name
        return traced

    @contextlib.contextmanager
    def active(self):
        """Trace every binding site of the traced functions inside the block."""
        package = [m for name, m in sys.modules.items() if name == "cotf" or name.startswith("cotf.")]
        wrappers = self._wrappers

        def replacement(value):
            entry = wrappers.get(id(value))
            return entry[1] if entry is not None and entry[0] is value else None

        restore = []
        try:
            functions = {id(v): v for m in package for v in vars(m).values() if inspect.isfunction(v)}
            for function in functions.values():  # defaults first, while unwrapped
                defaults = function.__defaults__
                if defaults and any(replacement(d) is not None for d in defaults):
                    restore.append((function, "__defaults__", defaults))
                    function.__defaults__ = tuple(replacement(d) or d for d in defaults)
            for module in package:
                holders = [module] + [v for v in vars(module).values() if inspect.isclass(v)]
                for holder in holders:
                    for name, value in list(vars(holder).items()):
                        if replacement(value) is not None:
                            restore.append((holder, name, value))
                            setattr(holder, name, replacement(value))
            yield self
        finally:
            for holder, name, value in reversed(restore):
                setattr(holder, name, value)

    def calls(self) -> Counter:
        """Spans per traced function name."""
        return Counter(span.function for span in self.spans)

    def totals(self) -> dict:
        """Per layer: calls, total and self seconds, summed counters."""
        out = {
            layer: {"calls": 0, "total_s": 0.0, "self_s": 0.0, **dict.fromkeys(counters, 0)}
            for layer, counters in LAYERS.items()
        }
        for span in self.spans:
            entry = out[span.layer]
            duration = span.end - span.start
            entry["calls"] += 1
            entry["total_s"] += duration
            entry["self_s"] += duration - span.child_s
            for key, value in span.counts.items():
                entry[key] += value
        return out

    def metrics(self, traced_walls, untraced_walls) -> dict:
        """Per-layer metrics per traced op: name -> (value, unit).  The walls
        are the op times of the traced runs and of their untraced twins."""
        totals = self.totals()
        n = len(traced_walls)
        units = {"terms": "terms/op", "bytes": "B/op", "errors": "errors/op"}
        metrics = {}
        for layer, counters in LAYERS.items():
            entry = totals[layer]
            metrics[f"{layer}.calls"] = (entry["calls"] / n, "calls/op")
            metrics[f"{layer}.self_s"] = (entry["self_s"] / n, "s/op")
            for key in counters:
                metrics[f"{layer}.{key}"] = (entry[key] / n, units[key])
        attributed = sum(entry["self_s"] for entry in totals.values())
        metrics["trace.overhead_s"] = ((sum(traced_walls) - sum(untraced_walls)) / n, "s/op")
        metrics["trace.unattributed_ratio"] = (1.0 - attributed / sum(traced_walls), "ratio")
        metrics["trace.ops"] = (n, "count")
        return metrics

    def dump(self) -> list:
        return [
            {"layer": s.layer, "function": s.function, "parent": s.parent,
             "start": s.start, "end": s.end, **s.counts}
            for s in self.spans
        ]
