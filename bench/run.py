"""defectcyl benchmark: seeded workloads, oracle-checked, with an optional layer trace.

    python3 bench/run.py --workload spectrum-grid --seed 1 --seconds 20 --trace 0

--workload  spectrum-grid, point-mix, cli-mix, or all (each in turn)
--seed      input seed; the same seed gives the same inputs
--seconds   how long the timed loop runs; it ends with the first whole
            round of inputs after that, and never before the workload's
            checked operations (workloads.*.checked_ops) are done
--trace     0: end-to-end metrics with tracing off (closed loop, one thread,
            each call starts when the previous one has returned).
            1: per-layer metrics: passes over the seed's first inputs,
            alternately untraced and traced, until --seconds have passed.
            The first traced pass's spans are written to
            bench/.spans/<workload>.jsonl (see layertrace.write_spans).

The package is imported from src/ next to this directory, never from an
installed copy; without it the run exits with status 1 and prints no
result. Output: one line per metric, a {"report": ...} line with every
metric, the failures and the run's metadata, and last the result line
{"correct", "attempted", "failed", "metrics"} with the metrics that
BENCHMARK.json declares.

Every operation of the run is checked against the oracle. "correct" is
false when one inside the envelope spec.json gates (orders up to
gate.nu_max, every well level, every CLI run) raised, exited with an
unexpected code or missed its oracle. "attempted" is the workload's
checked_ops, the seed's first operations, which every run does whatever
the machine's speed, and "failed" counts those of them that raised or
missed, the known high-order J_nu defect included; so two runs of one seed
report the same counts. fail_frac in the report covers the whole run.

op_s.p50.ref is the median over the run's rounds of each round's median
call time: the costs of a spectrum-grid cycle's tables leave a gap at
their middle, so the median over all tables of a run swings across it
with the draws, where the median of the rounds' medians does not.

work_per_s.ref and op_s.p50.ref are scaled to a reference machine speed:
a fixed pure-Python loop (probe) runs every PROBE_EVERY_S seconds of the
timed loop, and each call's time is multiplied by REF_PROBE_S over the
mean of the PROBE_WINDOW probes before it and as many after it. The host
this benchmark was written on switches each CPU between a fast and a slow
speed for seconds to minutes at a time; the probe slows with the calls,
so the scaled figures repeat from run to run where the raw ones (in the
report) do not. A single probe on each side tracks the speed as well for
in-process calls but poorly after a CLI subprocess (over six cli-mix
seeds the scaled median invocation spread 16% against 10% with four).
setup_s is scaled by the run's mean probe time: single spawns do not
follow the probe, but a run's median spawn time does (over three sets of
ten seeds the raw medians of one workload differed by up to 49%, the
scaled ones by up to 11%).
"""

from __future__ import annotations

import argparse
import gc
import itertools
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path
from types import SimpleNamespace

import layertrace
import oracle
from workloads import WORKLOADS, call_safely, metric, rate, round_median, run_traced_in_process, timing

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
SPANS = BENCH / ".spans"
SETUP_SPAWNS = 15
PROBE_LOOPS = 2500
REF_PROBE_S = 0.0025  # the probe's time at the reference speed
PROBE_EVERY_S = 0.1
PROBE_WINDOW = 4  # probes on each side of a call that set its scale


@dataclass
class Record:
    spec: dict
    result: object
    error: str | None
    seconds: float
    units: int = 0
    scale: float = 1.0  # REF_PROBE_S over the mean probe time around the call


def load_package():
    if not (SRC / "defectcyl" / "__init__.py").is_file():
        raise SystemExit(f"error: no defectcyl package under {SRC}")
    sys.path.insert(0, str(SRC))
    import defectcyl

    if SRC.resolve() not in Path(defectcyl.__file__).resolve().parents:
        raise SystemExit(f"error: defectcyl was imported from {defectcyl.__file__}, not {SRC}")
    return defectcyl


def child_env() -> dict:
    """Environment of spawned interpreters: the package from src/, with byte
    code cached as for an installed package whatever the caller's setting."""
    env = {key: value for key, value in os.environ.items() if key != "PYTHONDONTWRITEBYTECODE"}
    env["PYTHONPATH"] = str(SRC)
    return env


def spawn_times(ctx, code: str, count: int) -> list[float]:
    """Wall times, spawn to exit, of ``count`` runs of ``python -c code``."""
    command = [sys.executable, "-c", code]
    times = []
    for _ in range(count):
        start = time.perf_counter()
        done = subprocess.run(command, cwd=ctx.root, env=ctx.env, capture_output=True, timeout=60)
        times.append(time.perf_counter() - start)
        if done.returncode != 0:
            raise SystemExit(f"error: {code!r} exited {done.returncode}: {done.stderr.decode()[-300:]}")
    return times


class _Point:
    __slots__ = ("x", "y")

    def __init__(self, x: float, y: float) -> None:
        self.x, self.y = x, y


def _step(p: _Point, k: float) -> _Point:
    return _Point(p.y, 0.5 * p.x + k)


def probe(loops: int = PROBE_LOOPS) -> float:
    """Time of a fixed pure-Python loop that does not touch defectcyl.

    It calls functions, makes objects, does float math and stores in a
    dict, as defectcyl does. Over 60 s of alternating probes and batches of
    480 point-mix calls, batch times divided by this probe spread 8% (IQR
    over median) against 18% for a tight integer loop and 24% unscaled."""
    start = time.perf_counter()
    p, total, seen = _Point(0.1, 0.2), 0.0, {}
    for i in range(loops):
        x = (i % 97) * 0.01
        p = _step(p, x)
        total += math.exp(-x) * p.x
        seen[i & 63] = (x, total)
    return time.perf_counter() - start


def speed_probe() -> float:
    """Median of five probes ten times the usual length, for the run's metadata."""
    return statistics.median(probe(10 * PROBE_LOOPS) for _ in range(5))


def git_sha(root: Path):
    """HEAD's commit, or None outside a git checkout or without git."""
    try:
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, capture_output=True, text=True, timeout=30)
    except OSError:
        return None
    return done.stdout.strip() if done.returncode == 0 else None


def cpu_model():
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as info:
            for line in info:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or None


def loadavg():
    try:
        return list(os.getloadavg())
    except OSError:
        return None


def judge_all(workload, o, records):
    """Per-record verdicts ("ok", "fail" or "beyond"), their counts and a few messages."""
    verdicts = []
    counts = {"ok": 0, "fail": 0, "beyond": 0}
    examples = {"fail": [], "beyond": []}
    for r in records:
        verdict, message = workload.judge(o, r.spec, r.result, r.error)
        verdicts.append(verdict)
        counts[verdict] += 1
        if message and len(examples[verdict]) < 3:
            examples[verdict].append(message)
    return verdicts, counts, examples


def timed_run(workload, ctx, seed: int, seconds: float, probes: list):
    specs = workload.specs(seed, ctx)
    records = []
    marks = []  # index in probes of the last probe before each record
    gc.collect()
    start = next_probe = time.perf_counter()
    # Whole rounds (each whole input cycles) only, so that every run measures
    # the same mix of inputs, and at least the checked operations.
    while (
        len(records) < workload.checked_ops
        or len(records) % workload.round_ops
        or time.perf_counter() - start < seconds
    ):
        if time.perf_counter() >= next_probe:
            probes.append(probe())
            next_probe = time.perf_counter() + PROBE_EVERY_S
        spec = next(specs)
        call = workload.bind(ctx, spec)
        began = time.perf_counter()
        result, error = call_safely(call)
        records.append(Record(spec, result, error, time.perf_counter() - began))
        marks.append(len(probes) - 1)
    probes.append(probe())
    for r, k in zip(records, marks):
        r.scale = REF_PROBE_S / statistics.mean(probes[max(0, k + 1 - PROBE_WINDOW) : k + 1 + PROBE_WINDOW])
        if r.error is None:
            r.units = workload.units(r.spec, r.result)
    return records


def traced_run(workload, ctx, seed: int, seconds: float, interp_s: float):
    specs = list(itertools.islice(workload.specs(seed, ctx), workload.trace_ops))
    untraced, traced, passes = [], [], []
    first = None
    start = time.perf_counter()
    while not passes or time.perf_counter() - start < seconds:
        calls = [workload.bind(ctx, spec) for spec in specs]
        gc.collect()
        began = time.perf_counter()
        for call in calls:
            call_safely(call)
        untraced.append(time.perf_counter() - began)

        gc.collect()
        phases = {"cli.import_s": [], "cli.parse_config_s": [], "cli.run_s": []}
        if workload.in_process:
            began = time.perf_counter()
            outcomes, sums, tracer = run_traced_in_process(workload, ctx, specs)
            traced.append(time.perf_counter() - began)
            groups = [tracer.spans]
        else:
            outcomes, sums, elapsed, groups = [], {}, 0.0, []
            for spec in specs:
                began = time.perf_counter()
                result, info = workload.execute_traced(ctx, spec)
                elapsed += time.perf_counter() - began
                outcomes.append((result, None))
                layertrace.add_totals(sums, info.get("totals", {}))
                groups.append(info.get("spans", []))
                for key in phases:
                    if key[4:] in info:
                        phases[key].append(info[key[4:]])
            traced.append(elapsed)
        metrics = layertrace.layer_metrics(sums)
        metrics["cli.interp_s"] = interp_s
        for key, values in phases.items():
            if values:
                metrics[key] = statistics.median(values)
            elif workload.in_process:
                metrics[key] = 0.0  # the workload never enters the CLI
        passes.append(metrics)
        if first is None:
            first = outcomes
            SPANS.mkdir(exist_ok=True)
            layertrace.write_spans(SPANS / f"{workload.name}.jsonl", groups)

    metrics = layertrace.median_metrics(passes)
    metrics["trace.overhead"] = statistics.median(traced) / statistics.median(untraced)
    repeat = all(layertrace.counters(p) == layertrace.counters(passes[0]) for p in passes)
    records = [Record(spec, result, error, 0.0) for spec, (result, error) in zip(specs, first)]
    return records, metrics, {"passes": len(passes), "counters_repeat": repeat}


def run_workload(name: str, args, ctx) -> dict:
    workload = WORKLOADS[name]
    meta = {
        "workload": name,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "git_sha": git_sha(ctx.root),
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "cpu": cpu_model(),
        "loadavg_start": loadavg(),
    }
    if args.trace:
        spawn_times(ctx, "pass", 1)  # warm-up
        interp_s = statistics.median(spawn_times(ctx, "pass", SETUP_SPAWNS))
        meta["probe_before_s"] = speed_probe()
        records, layer, trace_meta = traced_run(workload, ctx, args.seed, args.seconds, interp_s)
        meta.update(trace_meta, spans=str((SPANS / f"{name}.jsonl").relative_to(ROOT)))
    else:
        # An untimed warm-up writes the byte-code cache as an install would.
        # Then half the set-ups run before the timed loop and half after it,
        # so that a slow spell of the machine at either end moves their
        # median less.
        code = f"import {workload.import_target}"
        probes = []
        spawn_times(ctx, code, 1)
        setup_times = spawn_times(ctx, code, SETUP_SPAWNS - SETUP_SPAWNS // 2)
        meta["probe_before_s"] = speed_probe()
        records = timed_run(workload, ctx, args.seed, args.seconds, probes)
        setup_times += spawn_times(ctx, code, SETUP_SPAWNS // 2)
        meta.update(probe_mean_s=statistics.mean(probes), probes=len(probes))
    meta["probe_after_s"] = speed_probe()

    o = oracle.Oracle()
    verdicts, counts, examples = judge_all(workload, o, records)
    checked = verdicts if args.trace else verdicts[: workload.checked_ops]
    attempted = len(checked)
    failed = sum(v != "ok" for v in checked)
    meta["loadavg_end"] = loadavg()

    if args.trace:
        declared = {m["name"]: metric(layer[m["name"]], m["unit"]) for m in ctx.per_layer if m["name"] in layer}
        absent = [m["name"] for m in ctx.per_layer if m["name"] not in layer]
        report = dict(declared)
    else:
        op_s = timing("op_s", [r.seconds for r in records])
        scaled = [r.seconds * r.scale for r in records]
        size = workload.round_ops
        setup_s = statistics.median(setup_times)
        declared = {
            "setup_s": metric(
                setup_s * REF_PROBE_S / meta["probe_mean_s"], "s", raw=setup_s, spawns=SETUP_SPAWNS
            ),
            "work_per_s.ref": metric(
                sum(r.units for r in records) / sum(scaled), "1/s", raw=rate(records), units=workload.unit_name
            ),
            "op_s.p50.ref": metric(
                round_median(scaled, size), "s", raw=round_median([r.seconds for r in records], size),
                rounds=len(records) // size,
            ),
        }
        absent = []
        report = {
            **workload.own_metrics(records),
            "fail_frac": metric((counts["fail"] + counts["beyond"]) / len(records), "ratio", operations=len(records)),
            **declared,
            **op_s,
        }
    for key, value in report.items():
        extra = {k: v for k, v in value.items() if k not in ("value", "unit")}
        print(f"{name:14s} {key:34s} {value['value']:<14.6g} {value['unit']:6s} {extra or ''}")
    summary = {
        "workload": name,
        "metrics": report,
        "absent": absent,
        "attempted": attempted,
        "verdicts": counts,
        "checked": {"attempted": attempted, "failed": failed},
        "examples": examples,
        "meta": meta,
    }
    print(json.dumps({"report": summary}))
    return {
        "correct": counts["fail"] == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v["value"], "unit": v["unit"]} for k, v in declared.items()},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=(*WORKLOADS, "all"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    # One CPU for this process and the interpreters it spawns: each vCPU of
    # the host switches speed on its own, and the probe can only track the
    # CPU it runs on.
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    dc = load_package()
    per_layer = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))["per_layer"]
    env = child_env()
    names = tuple(WORKLOADS) if args.workload == "all" else (args.workload,)
    with tempfile.TemporaryDirectory(prefix=".tmp-", dir=BENCH) as workdir:
        ctx = SimpleNamespace(root=ROOT, bench=BENCH, dc=dc, env=env, workdir=Path(workdir), per_layer=per_layer)
        results = {name: run_workload(name, args, ctx) for name in names}
    if len(results) == 1:
        (final,) = results.values()
    else:
        final = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{w}/{k}": v for w, r in results.items() for k, v in r["metrics"].items()},
        }
    print(json.dumps(final))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
