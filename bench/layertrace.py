"""Outside-in tracer for defectcyl: spans and counts at each layer's public functions.

The tracer replaces each traced function in every loaded ``defectcyl``
module namespace that binds it, so calls between modules (and within one,
through its globals) pass through the wrapper. Nothing in the package
changes. Spans are kept in memory, then summarised and written out at the
end (``write_spans``):

    span = (span_id, parent_id, name, start, end, self_s, info)

where self_s is the span's duration minus the time its child spans cover.
A traced name that the package no longer defines is listed in ``missing``
and every metric built from it is left out.

Stdlib only (with adapter.py), so the CLI driver subprocess can use it
without the oracles' scipy and mpmath imports.
"""

from __future__ import annotations

import itertools
import json
import statistics
import sys
import time

import adapter

# (home module, function, span name); rootfind's Newton solver is the "refine" span.
TARGETS = (
    ("specfun", "bessel_j", "specfun.bessel_j"),
    ("specfun", "bessel_zero", "specfun.bessel_zero"),
    ("rootfind", "refine_with_derivative", "rootfind.refine"),
    ("wells", "ground_state", "wells.ground_state"),
    ("wells", "excited_state", "wells.excited_state"),
    ("spectrum", "spectrum_table", "spectrum.spectrum_table"),
    ("spectrum", "radial_energy", "spectrum.radial_energy"),
    ("spectrum", "critical_radius", "spectrum.critical_radius"),
    ("model", "validate", "model.validate"),
)

# Callers that split the refine metrics: Bessel zeros versus well levels.
_REFINE_CALLERS = {
    "specfun.bessel_zero": "zero",
    "wells.ground_state": "well",
    "wells.excited_state": "well",
}

def _loaded_modules():
    return [
        module
        for name, module in sorted(sys.modules.items())
        if module is not None and (name == "defectcyl" or name.startswith("defectcyl."))
    ]


class Tracer:
    """Install with ``with Tracer() as tracer:``; read ``tracer.spans`` afterwards."""

    def __init__(self) -> None:
        self.spans: list[tuple] = []
        self.missing: list[str] = []
        self._stack: list[list] = []  # [span_id, name, child_s]
        self._zero_depth = 0
        self._ids = itertools.count()
        self._patches: list[tuple] = []

    def __enter__(self) -> "Tracer":
        modules = _loaded_modules()
        for home, attr, span_name in TARGETS:
            original = getattr(sys.modules.get(f"defectcyl.{home}"), attr, None)
            if not callable(original):
                self.missing.append(span_name)
                continue
            wrapper = self._wrap(span_name, original)
            for module in modules:
                if getattr(module, attr, None) is original:
                    self._patches.append((module, attr, original))
                    setattr(module, attr, wrapper)
        return self

    def __exit__(self, *exc) -> None:
        for module, attr, original in reversed(self._patches):
            setattr(module, attr, original)
        self._patches.clear()

    def _wrap(self, name: str, original):
        stack = self._stack
        spans = self.spans
        clock = time.perf_counter
        is_refine = name == "rootfind.refine"
        is_zero = name == "specfun.bessel_zero"
        is_jnu = name == "specfun.bessel_j"

        def traced(*args, **kwargs):
            parent = stack[-1] if stack else None
            info = None
            if is_refine:
                counter = [0]
                args, kwargs = _count_callables(args, kwargs, counter)
                caller = _REFINE_CALLERS.get(parent[1] if parent else None, "other")
            elif is_jnu:
                under_zero = self._zero_depth > 0
            elif is_zero:
                self._zero_depth += 1
            frame = [next(self._ids), name, 0.0]
            stack.append(frame)
            start = clock()
            try:
                result = original(*args, **kwargs)
            except BaseException:
                info = "raised"
                raise
            finally:
                end = clock()
                stack.pop()
                if is_zero:
                    self._zero_depth -= 1
                duration = end - start
                if stack:
                    stack[-1][2] += duration
                if info is None:
                    if is_refine:
                        info = (caller, adapter.iterations(result), counter[0])
                    elif is_jnu:
                        info = (adapter.jv_method(result), under_zero)
                    elif name == "wells.excited_state":
                        info = result is None
                spans.append(
                    (frame[0], parent[0] if parent else None, name, start, end, duration - frame[2], info)
                )
            return result

        traced.__wrapped__ = original
        return traced

def write_spans(path, groups) -> None:
    """Write spans as JSON lines ``[group, *span]``: one group per process
    (one per CLI invocation, a single group for an in-process pass), since
    span ids are unique only within a process."""
    with open(path, "w", encoding="utf-8") as out:
        for group, spans in enumerate(groups):
            for span in spans:
                out.write(json.dumps([group, *span]) + "\n")


def _count_callables(args, kwargs, counter):
    def counted(fn):
        def call(*a, **k):
            counter[0] += 1
            return fn(*a, **k)

        return call

    args = tuple(counted(a) if i < 2 and callable(a) else a for i, a in enumerate(args))
    kwargs = {k: counted(v) if k in ("f", "df") and callable(v) else v for k, v in kwargs.items()}
    return args, kwargs


def totals(spans, missing=()) -> dict:
    """Add-able sums over spans (counts and self seconds), keyed by metric-like names.

    Sums from several processes or passes can be added key by key before
    ``layer_metrics`` turns them into ratios.
    """
    out: dict = {}

    def add(key, value):
        out[key] = out.get(key, 0) + value

    for _, _, name, _, _, self_s, info in spans:
        if name == "rootfind.refine":
            if not isinstance(info, tuple):
                continue
            caller, iterations, f_evals = info
            base = f"rootfind.refine.{caller}"
            add(f"{base}.calls", 1)
            add(f"{base}.self_s", self_s)
            add(f"{base}.f_evals", f_evals)
            if iterations is not None:
                add(f"{base}.iterations", iterations)
                add(f"{base}.iterations_known", 1)
            continue
        add(f"{name}.calls", 1)
        add(f"{name}.self_s", self_s)
        if info == "raised":
            continue
        if name == "specfun.bessel_j":
            method, under_zero = info
            if method is not None:
                add("specfun.bessel_j.tagged", 1)
                add("specfun.bessel_j.series", method == "series")
            add("specfun.bessel_j.under_zero", under_zero)
        elif name == "specfun.bessel_zero":
            add("specfun.bessel_zero.returned", 1)
        elif name == "wells.excited_state":
            add("wells.excited_state.none", info)
    for name in missing:
        out[f"{name}.missing"] = 1
    return out


def add_totals(into: dict, more: dict) -> dict:
    for key, value in more.items():
        into[key] = into.get(key, 0) + value
    return into


def layer_metrics(sums: dict) -> dict:
    """Per-layer metrics from ``totals``; metrics of missing names are left out."""
    missing = {key[: -len(".missing")] for key in sums if key.endswith(".missing")}
    metrics: dict = {}

    def put(metric, value, needs):
        if not (set(needs) & missing):
            metrics[metric] = value

    for name in (
        "specfun.bessel_j",
        "specfun.bessel_zero",
        "wells.ground_state",
        "wells.excited_state",
        "spectrum.critical_radius",
        "model.validate",
    ):
        put(f"{name}.calls", sums.get(f"{name}.calls", 0), [name])
        put(f"{name}.self_s", sums.get(f"{name}.self_s", 0.0), [name])
    put("spectrum.spectrum_table.self_s", sums.get("spectrum.spectrum_table.self_s", 0.0), ["spectrum.spectrum_table"])
    put("spectrum.radial_energy.calls", sums.get("spectrum.radial_energy.calls", 0), ["spectrum.radial_energy"])

    jnu_calls = sums.get("specfun.bessel_j.calls", 0)
    tagged = sums.get("specfun.bessel_j.tagged", 0)
    if jnu_calls and tagged == jnu_calls:
        put("specfun.bessel_j.series_share", sums.get("specfun.bessel_j.series", 0) / tagged, ["specfun.bessel_j"])
    returned = sums.get("specfun.bessel_zero.returned", 0)
    if returned:
        put(
            "specfun.jnu_per_zero",
            sums.get("specfun.bessel_j.under_zero", 0) / returned,
            ["specfun.bessel_j", "specfun.bessel_zero"],
        )
    excited = sums.get("wells.excited_state.calls", 0)
    if excited:
        put("wells.excited_state.none_share", sums.get("wells.excited_state.none", 0) / excited, ["wells.excited_state"])

    for caller in ("zero", "well"):
        base = f"rootfind.refine.{caller}"
        calls = sums.get(f"{base}.calls", 0)
        put(f"{base}.calls", calls, ["rootfind.refine"])
        put(f"{base}.f_evals", sums.get(f"{base}.f_evals", 0), ["rootfind.refine"])
        put(f"{base}.self_s", sums.get(f"{base}.self_s", 0.0), ["rootfind.refine"])
        if sums.get(f"{base}.iterations_known", 0) == calls:
            put(f"{base}.iterations", sums.get(f"{base}.iterations", 0), ["rootfind.refine"])
    return metrics


def median_metrics(runs: list[dict]) -> dict:
    """Counts from the first pass, times (``_s`` metrics) as the median over passes."""
    merged = dict(runs[0])
    for key in merged:
        if key.endswith("_s"):
            merged[key] = statistics.median(run[key] for run in runs if key in run)
    return merged


def counters(metrics: dict) -> dict:
    """The machine-independent part of a metrics dict: everything but times."""
    return {key: value for key, value in metrics.items() if not key.endswith("_s") and key != "trace.overhead"}
