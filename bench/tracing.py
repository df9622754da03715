"""Spans around qmem's public functions, for the traced benchmark run.

``Tracer.install`` replaces module attributes such as
``qmem.dynamics.evolve`` with a timing wrapper.  qmem calls its own
functions through module globals, so the wrapper also sees the calls
that qmem makes internally (``iswap`` -> ``evolve``,
``find_defect_mode`` -> ``transmission`` and so on).  Untraced runs never
install anything.

A span is ``[name, start, end, parent, task]``: ``parent`` is the index
of the enclosing span or None, ``task`` the id of the task that was
running or None outside tasks.  Spans stay in memory and are written out
once, when the run ends.
"""

from __future__ import annotations

import functools
import importlib
import json
import statistics
import time

# (module under qmem, function) pairs whose calls are recorded
LAYERS = (
    ("dynamics", "iswap"),
    ("dynamics", "evolve"),
    ("phonon_chain", "find_band_gaps"),
    ("phonon_chain", "find_defect_mode"),
    ("phonon_chain", "transmission"),
    ("phonon_chain", "mode_profile"),
    ("photoelastic", "mode_profile_scan"),
    ("photoelastic", "detected_power"),
    ("duffing", "sweep"),
    ("duffing", "backbone"),
    ("duffing", "steady_state_amplitudes"),
    ("duffing", "fit_backbone"),
    ("analysis", "fit_lorentzian"),
    ("analysis", "fit_ringdown"),
    ("electromech", "fit_bvd"),
    ("losses", "fit_loss_stack"),
    ("losses", "total_q_inverse"),
    ("cli", "load_config"),
    ("cli", "main"),
)

# span recorded by the launcher around ``import qmem.cli`` in a fresh
# interpreter (not a wrapped function)
IMPORT_SPAN = "cli.import"

# <name>_ms: median wall time of one call
TIMED = (
    "dynamics.iswap",
    "dynamics.evolve",
    "phonon_chain.find_defect_mode",
    "phonon_chain.transmission",
    "phonon_chain.find_band_gaps",
    "phonon_chain.mode_profile",
    "photoelastic.mode_profile_scan",
    "duffing.backbone",
    "duffing.sweep",
    "duffing.fit_backbone",
    "analysis.fit_lorentzian",
    "analysis.fit_ringdown",
    "electromech.fit_bvd",
    "losses.fit_loss_stack",
    IMPORT_SPAN,
    "cli.main",
    "cli.load_config",
)
# <name>_self_ms: median of the call time minus the time of its child spans
SELF_TIMED = ("dynamics.iswap", "phonon_chain.find_defect_mode")
# <child>_calls: child calls made directly inside one parent call, on average
COUNTED = (
    ("dynamics.evolve", "dynamics.iswap"),
    ("phonon_chain.transmission", "phonon_chain.find_defect_mode"),
    ("photoelastic.detected_power", "photoelastic.mode_profile_scan"),
    ("duffing.steady_state_amplitudes", "duffing.sweep"),
    ("losses.total_q_inverse", "losses.fit_loss_stack"),
)


def metric_units() -> dict:
    """Every per-layer metric name with its unit, in report order."""
    units = {}
    for name in TIMED:
        units[f"{name}_ms"] = "ms"
        if name in SELF_TIMED:
            units[f"{name}_self_ms"] = "ms"
    for child, _ in COUNTED:
        units[f"{child}_calls"] = "count"
    return units


class Tracer:
    """Collects spans in memory; see the module docstring for the layout."""

    def __init__(self):
        self.spans: list[list] = []
        self.task = None
        self._open: list[int] = []

    def install(self) -> None:
        for module_name, func_name in LAYERS:
            module = importlib.import_module(f"qmem.{module_name}")
            func = getattr(module, func_name)
            setattr(module, func_name, self._wrap(f"{module_name}.{func_name}", func))

    def _wrap(self, name, func):
        spans, open_spans = self.spans, self._open

        @functools.wraps(func)
        def traced(*args, **kwargs):
            span = [name, 0.0, 0.0, open_spans[-1] if open_spans else None, self.task]
            open_spans.append(len(spans))
            spans.append(span)
            span[1] = time.perf_counter()
            try:
                return func(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                open_spans.pop()

        return traced

    def record(self, name: str, start: float, end: float) -> None:
        """Add a span timed by the caller, with no parent."""
        self.spans.append([name, start, end, None, self.task])

    def merge(self, spans, task) -> None:
        """Append spans written by a child process, under ``task``."""
        offset = len(self.spans)
        for name, start, end, parent, _ in spans:
            self.spans.append(
                [name, start, end, None if parent is None else parent + offset, task]
            )

    def write(self, path) -> None:
        with open(path, "w") as fh:
            for span in self.spans:
                fh.write(json.dumps(span))
                fh.write("\n")


def read_spans(path) -> list[list]:
    with open(path) as fh:
        return [json.loads(line) for line in fh if line.strip()]


def layer_shares(spans, busy_seconds: float) -> dict:
    """Share of the timed task work spent inside each layer's calls.

    Spans of the set-up probes (string task ids) are not task work.
    """
    totals: dict[str, float] = {}
    for name, start, end, _, task in spans:
        if isinstance(task, int):
            totals[name] = totals.get(name, 0.0) + (end - start)
    return {name: total / busy_seconds for name, total in sorted(totals.items())}


def layer_metrics(spans) -> dict:
    """Per-layer metrics from the spans recorded inside tasks.

    A layer that the workload never calls reads 0 calls and 0 ms.
    """
    inside = [s for s in spans if s[4] is not None]
    durations: dict[str, list[float]] = {}
    child_time = [0.0] * len(spans)
    parent_counts: dict[tuple[str, str], int] = {}
    for span in inside:
        name, start, end, parent, _ = span
        durations.setdefault(name, []).append(end - start)
        if parent is not None:
            child_time[parent] += end - start
            key = (name, spans[parent][0])
            parent_counts[key] = parent_counts.get(key, 0) + 1
    self_times: dict[str, list[float]] = {}
    for index, span in enumerate(spans):
        if span[4] is not None and span[0] in SELF_TIMED:
            self_times.setdefault(span[0], []).append(span[2] - span[1] - child_time[index])

    def median_ms(values):
        return 1e3 * statistics.median(values) if values else 0.0

    metrics = {}
    for name in TIMED:
        metrics[f"{name}_ms"] = median_ms(durations.get(name))
        if name in SELF_TIMED:
            metrics[f"{name}_self_ms"] = median_ms(self_times.get(name))
    for child, parent in COUNTED:
        n_parent = len(durations.get(parent, ()))
        n_child = parent_counts.get((child, parent), 0)
        metrics[f"{child}_calls"] = n_child / n_parent if n_parent else 0.0
    return metrics
