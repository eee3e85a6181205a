"""Spans recorded from outside the program, around calls into its layers.

:func:`install` replaces each traced public function of ``qdiscord`` by a
wrapper, in every ``qdiscord`` module that refers to it, so calls the
program makes internally (``correlation_matrix`` calling ``gell_mann_basis``)
are timed too.  ``DensityMatrix`` is traced through its ``__init__``, which
runs the validation.  Spans keep their name, start, end and parent in memory;
:meth:`Tracer.dump` writes them out and :meth:`Tracer.layer_metrics` turns
them into per-layer calls, self time and median duration.

``classical_correlation_qa`` is traced as two layers: ``entropic.grid`` is the
same public call with ``refine_starts=0`` on the same state (made in addition
to the real call, with its nested spans muted), and ``entropic.refine`` is
the full call's duration minus the grid-only call's.
"""

from __future__ import annotations

import functools
import inspect
import json
import statistics
import sys
import time

TRACED_FUNCTIONS = (
    ("geometric", "geometric_discord_oracle"),
    ("geometric", "geometric_discord_2q"),
    ("entropic", "mutual_information"),
    ("correlation", "correlation_matrix"),
    ("correlation", "zero_discord_test"),
    ("basis", "gell_mann_basis"),
    ("linalg", "von_neumann_entropy"),
    ("dqc1", "dqc1_output_state"),
    ("dqc1", "dqc1_exact_readout"),
    ("dqc1", "dqc1_sample_trace"),
    ("dqc1", "dqc1_classicality_check"),
    ("states", "random_density_matrix"),
    ("states", "random_unitary"),
    ("states", "classical_quantum_state"),
    ("fileio", "load_state"),
    ("fileio", "dumps_report"),
    ("cli", "main"),
)
DENSITY_MATRIX = "linalg.DensityMatrix"
GRID = "entropic.grid"
REFINE = "entropic.refine"
REFINE_USEFUL_GAIN = 1e-12

LAYERS = tuple(
    [f"{m}.{f}" for m, f in TRACED_FUNCTIONS[:2]]
    + [GRID, REFINE]
    + [f"{m}.{f}" for m, f in TRACED_FUNCTIONS[2:6]]
    + [DENSITY_MATRIX]
    + [f"{m}.{f}" for m, f in TRACED_FUNCTIONS[6:]]
)


class Tracer:
    def __init__(self):
        # (id, name, parent id or -1, start ns, end ns); spans are appended on exit.
        self.spans: list[tuple[int, str, int, int, int]] = []
        self._stack: list[int] = []
        self._next_id = 0
        self._muted = 0
        self.refined = 0
        self.refine_useful = 0

    def call(self, name: str, fn, /, *args, **kwargs):
        """Run fn inside a span called name."""
        if self._muted:
            return fn(*args, **kwargs)
        span_id = self._next_id
        self._next_id += 1
        parent = self._stack[-1] if self._stack else -1
        self._stack.append(span_id)
        start = time.perf_counter_ns()
        try:
            return fn(*args, **kwargs)
        finally:
            end = time.perf_counter_ns()
            self._stack.pop()
            self.spans.append((span_id, name, parent, start, end))

    def record(self, name: str, duration_ns: int, parent: int | None = None) -> None:
        """A derived span of the given duration, ending now, under parent or the current span."""
        end = time.perf_counter_ns()
        if parent is None:
            parent = self._stack[-1] if self._stack else -1
        self.spans.append((self._next_id, name, parent, end - duration_ns, end))
        self._next_id += 1

    def _classical_correlation(self, fn, /, *args, **kwargs):
        if self._muted:
            return fn(*args, **kwargs)
        bound = inspect.signature(fn).bind(*args, **kwargs)
        bound.apply_defaults()
        kwargs = bound.arguments
        grid_kwargs = dict(kwargs, refine_starts=0)
        self._muted += 1
        try:
            t0 = time.perf_counter_ns()
            grid = fn(**grid_kwargs)
            t1 = time.perf_counter_ns()
        finally:
            self._muted -= 1
        self.record(GRID, t1 - t0)
        if kwargs["refine_starts"] == 0:
            return grid
        t2 = time.perf_counter_ns()
        full = self.call("entropic.classical_correlation_qa", fn, **kwargs)
        t3 = time.perf_counter_ns()
        # A child of the full call, so the caller's self time excludes it once.
        self.record(REFINE, max(0, (t3 - t2) - (t1 - t0)), parent=self.spans[-1][0])
        self.refined += 1
        if grid.min_conditional_entropy - full.min_conditional_entropy > REFINE_USEFUL_GAIN:
            self.refine_useful += 1
        return full

    def install(self) -> None:
        """Wrap the traced qdiscord functions wherever the package refers to them."""
        import qdiscord
        import qdiscord.cli
        import qdiscord.fileio
        from qdiscord import entropic, linalg

        modules = [m for k, m in sys.modules.items() if k == "qdiscord" or k.startswith("qdiscord.")]

        def patch(original, wrapper):
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, attr, wrapper)

        for mod_name, fn_name in TRACED_FUNCTIONS:
            original = getattr(getattr(qdiscord, mod_name), fn_name)
            name = f"{mod_name}.{fn_name}"
            patch(original, functools.wraps(original)(functools.partial(self.call, name, original)))

        cc = entropic.classical_correlation_qa
        patch(cc, functools.wraps(cc)(functools.partial(self._classical_correlation, cc)))

        init = linalg.DensityMatrix.__init__

        @functools.wraps(init)
        def traced_init(obj, *args, **kwargs):
            self.call(DENSITY_MATRIX, init, obj, *args, **kwargs)

        linalg.DensityMatrix.__init__ = traced_init

    def self_times(self) -> dict[int, int]:
        self_ns = {span_id: end - start for span_id, _, _, start, end in self.spans}
        for _, _, parent, start, end in self.spans:
            if parent in self_ns:
                self_ns[parent] -= end - start
        return self_ns

    def layer_metrics(self) -> dict[str, tuple[float, str]]:
        self_ns = self.self_times()
        durations: dict[str, list[int]] = {name: [] for name in LAYERS}
        busy: dict[str, int] = {name: 0 for name in LAYERS}
        for span_id, name, _, start, end in self.spans:
            if name in durations:
                durations[name].append(end - start)
                busy[name] += self_ns[span_id]
        metrics: dict[str, tuple[float, str]] = {}
        for name in LAYERS:
            d = durations[name]
            metrics[f"{name}.calls"] = (len(d), "count")
            metrics[f"{name}.busy_s"] = (busy[name] / 1e9, "s")
            metrics[f"{name}.p50_ms"] = (statistics.median(d) / 1e6 if d else 0.0, "ms")
        ratio = self.refine_useful / self.refined if self.refined else 0.0
        metrics["entropic.refine_useful_ratio"] = (ratio, "ratio")
        return metrics

    def dump(self, path) -> None:
        with open(path, "w", encoding="utf-8") as f:
            json.dump(
                {
                    "fields": ["id", "name", "parent", "start_ns", "end_ns"],
                    "spans": self.spans,
                    "refined": self.refined,
                    "refine_useful": self.refine_useful,
                },
                f,
            )
