"""Span tracer for the benchmark's traced runs.

The tracer wraps the package's functions on the module attributes their
callers look up (``sysid_rls.convergence.rls_step``, ``sysid_rls.cli.write_csv``,
...), so no file of the program changes.  Spans are aggregated as they close
(calls, inclusive time, self time, errors and work units per function) rather
than stored: one traced pass of a CLI workload closes about a million spans.

Self time of a span is its duration minus the durations of its direct child
spans.  Because every child lies inside its parent, the self times of all
spans plus the root's self time (the harness's own time) add up to the root's
duration.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time

PACKAGE = "sysid_rls"

# The package modules that count as layers; ``errors`` holds only exception
# types and is not one.
LAYERS = ("cli", "experiment", "convergence", "rls", "excitation",
          "equivalence", "model_core", "inputs", "fileio")

# Called once per CSV cell, only from inside fileio: a span per call would
# cost as much as the call, and the time stays in the same layer either way.
UNWRAPPED = {"fileio.fmt_float"}


class Tracer:
    """Install timing wrappers, collect per-function statistics, remove them.

    ``stats`` maps ``"<layer>.<function>"`` to ``[calls, inclusive_s, self_s,
    errors, work]``; ``work`` is whatever the function's entry in ``work``
    (a callable of ``(args, kwargs, result)``) counts, such as rows or bytes.
    """

    def __init__(self, work=None, clock=time.perf_counter):
        self.clock = clock
        self.work = dict(work or {})
        self.stats: dict[str, list] = {}
        self._stack = [0.0]
        self._patches: list[tuple] = []
        self._root_start = None

    # -- span bookkeeping -------------------------------------------------

    def _record(self, name):
        return self.stats.setdefault(name, [0, 0.0, 0.0, 0, 0.0])

    def open_span(self) -> float:
        self._stack.append(0.0)
        return self.clock()

    def close_span(self, name: str, start: float, error: bool = False) -> float:
        dur = self.clock() - start
        child = self._stack.pop()
        rec = self._record(name)
        rec[0] += 1
        rec[1] += dur
        rec[2] += dur - child
        rec[3] += int(error)
        self._stack[-1] += dur
        return dur

    def begin(self) -> None:
        """Start the root span; the time outside layer spans is the harness's."""
        if len(self._stack) != 1:
            raise RuntimeError("root span started inside an open span")
        self._stack[0] = 0.0
        self._root_start = self.clock()

    def end(self) -> tuple[float, float]:
        """Close the root span; returns (root duration, root self time)."""
        dur = self.clock() - self._root_start
        return dur, dur - self._stack[0]

    # -- wrappers ---------------------------------------------------------

    def _wrapper(self, name: str, fn):
        work = self.work.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            start = self.open_span()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                self.close_span(name, start, error=True)
                raise
            self.close_span(name, start)
            if work is not None:
                self._record(name)[4] += work(args, kwargs, result)
            return result

        return traced

    def install(self) -> int:
        """Wrap every traced function on every package binding of it.

        Public functions are wrapped wherever they are bound, their own
        module included, so calls inside a module count too.  Private
        functions are wrapped only where another module imported them, which
        is where they cross a layer boundary.  Returns the number of
        bindings patched.
        """
        if self._patches:
            raise RuntimeError("tracer is already installed")
        homes = {f"{PACKAGE}.{layer}": layer for layer in LAYERS}
        wrappers = {}
        modules = [m for key, m in list(sys.modules.items())
                   if m is not None and (key == PACKAGE or key.startswith(PACKAGE + "."))]
        for module in modules:
            for attr, obj in list(vars(module).items()):
                if not inspect.isfunction(obj) or obj.__module__ not in homes:
                    continue
                name = f"{homes[obj.__module__]}.{obj.__name__}"
                if name in UNWRAPPED:
                    continue
                if obj.__name__.startswith("_") and module.__name__ == obj.__module__:
                    continue
                if obj not in wrappers:
                    wrappers[obj] = self._wrapper(name, obj)
                setattr(module, attr, wrappers[obj])
                self._patches.append((module, attr, obj))
        return len(self._patches)

    def uninstall(self) -> None:
        """Put every original function back on the binding it was taken from."""
        for module, attr, original in reversed(self._patches):
            setattr(module, attr, original)
        self._patches = []

    # -- summaries --------------------------------------------------------

    def layer_totals(self) -> dict[str, list]:
        """Per layer: [calls, self_s, errors]."""
        out = {layer: [0, 0.0, 0] for layer in LAYERS}
        for name, (calls, _total, self_s, errors, _work) in self.stats.items():
            layer = name.split(".", 1)[0]
            out[layer][0] += calls
            out[layer][1] += self_s
            out[layer][2] += errors
        return out
