"""Tests of the benchmark itself: repeatability, input ranges, tracer and oracles.

    python -m pytest bench -q

No test pins a count or a time of defectcyl, so a change to the package
never needs an edit here.
"""

from __future__ import annotations

import itertools
import json
import math
import subprocess
import sys
from types import SimpleNamespace

import mpmath
import pytest

import adapter
import layertrace
import oracle
import run
import workloads

dc = run.load_package()


@pytest.fixture
def ctx(tmp_path):
    return SimpleNamespace(root=run.ROOT, bench=run.BENCH, dc=dc, env=run.child_env(), workdir=tmp_path)


def first_specs(name, seed, count, ctx):
    return list(itertools.islice(workloads.WORKLOADS[name].specs(seed, ctx), count))


def traced_counters(name, seed, count, ctx):
    workload = workloads.WORKLOADS[name]
    specs = first_specs(name, seed, count, ctx)
    if workload.in_process:
        _, sums, _ = workloads.run_traced_in_process(workload, ctx, specs)
    else:
        sums = {}
        for spec in specs:
            result, info = workload.execute_traced(ctx, spec)
            assert result.returncode == 0, result.stderr
            layertrace.add_totals(sums, info["totals"])
    return layertrace.counters(layertrace.layer_metrics(sums))


@pytest.mark.parametrize("name, count", [("spectrum-grid", 2), ("point-mix", 240), ("cli-mix", 4)])
def test_same_seed_gives_identical_counters(name, count, ctx):
    first = traced_counters(name, 3, count, ctx)
    assert first["specfun.bessel_j.calls"] > 0
    assert traced_counters(name, 3, count, ctx) == first


@pytest.mark.parametrize("name", ["spectrum-grid", "point-mix"])
def test_checked_verdicts_repeat_for_a_seed(name, ctx):
    workload = workloads.WORKLOADS[name]

    def verdicts():
        records = run.timed_run(workload, ctx, 4, 0.0, [])
        return run.judge_all(workload, oracle.Oracle(), records[: workload.checked_ops])[0]

    first = verdicts()
    assert len(first) == workload.checked_ops
    assert verdicts() == first


def test_second_seed_draws_other_inputs_from_the_same_ranges(ctx):
    for name in workloads.WORKLOADS:
        one, two = (first_specs(name, seed, 48, ctx) for seed in (1, 2))
        assert one != two, name

    tables = first_specs("spectrum-grid", 2, 48, ctx)
    for spec in tables:
        p = spec["params"]
        assert 0.5 <= p["deficit"] <= 2.0 and 1.0 <= p["radius"] <= 10.0
        assert 2 <= spec["n_max"] <= 12 and 5 <= spec["m_max"] <= 30
        assert 1 / 32 <= oracle.coupling_c(p) <= 8.0
    assert {oracle.coupling_c(s["params"]) > 0.5 for s in tables} == {True, False}
    assert max(s["n_max"] / s["params"]["deficit"] for s in tables) > 20.0

    calls = first_specs("point-mix", 2, 2400, ctx)
    for spec in calls:
        if spec["kind"] == "jnu":
            assert 0.0 <= spec["nu"] <= 30.0 and 0.0 <= spec["x"] <= 150.0
        elif spec["kind"] == "zero":
            assert 0.0 <= spec["nu"] <= 30.0 and 0 <= spec["m"] <= 3
        else:
            assert 0.05 <= oracle.coupling_c(spec["params"]) <= 40.0 * (1 + 1e-12)
    strengths = [oracle.coupling_c(s["params"]) for s in calls if "params" in s]
    assert min(strengths) < 0.5 < 18.0 < max(strengths)

    for spec in first_specs("cli-mix", 2, 26, ctx):
        options = spec["options"]
        assert options.get("nu", 0.0) <= 6.0 and options.get("nu-max", 0.0) <= 6.0
        assert all(options.get(k, 0) <= 3 for k in ("n-max", "m-max", "n", "m"))
        assert spec["params"]["deficit"] >= 0.5  # so n <= 3 keeps nu = n / B <= 6


def test_tracer_counts_what_a_plain_counter_counts(monkeypatch):
    p = adapter.make_params(dc, mass=0.5, coupling=1.0, z0=2.0, deficit=0.8, radius=5.0)
    calls = [0]
    original = dc.specfun.bessel_j

    def counted(*args, **kwargs):
        calls[0] += 1
        return original(*args, **kwargs)

    monkeypatch.setattr(dc.specfun, "bessel_j", counted)
    plain = dc.spectrum_table(p, 10, 10)
    monkeypatch.setattr(dc.specfun, "bessel_j", original)

    with layertrace.Tracer() as tracer:
        traced = dc.spectrum_table(p, 10, 10)
    sums = layertrace.totals(tracer.spans, tracer.missing)
    assert sums["specfun.bessel_j.calls"] == calls[0]
    assert adapter.table_rows(traced) == adapter.table_rows(plain)
    for module in layertrace._loaded_modules():
        for _, attr, _ in layertrace.TARGETS:
            assert not hasattr(getattr(module, attr, None), "__wrapped__"), (module, attr)


def test_self_times_add_up_to_the_outer_span():
    p = adapter.make_params(dc, mass=0.5, coupling=1.0, z0=2.0, deficit=0.8, radius=5.0)
    with layertrace.Tracer() as tracer:
        dc.spectrum_table(p, 3, 3)
    outer = [s for s in tracer.spans if s[2] == "spectrum.spectrum_table"]
    assert len(outer) == 1
    _, _, _, start, end, _, _ = outer[0]
    assert sum(s[5] for s in tracer.spans) == pytest.approx(end - start, rel=1e-9)
    ids = [s[0] for s in tracer.spans]
    assert len(set(ids)) == len(ids)


def test_a_missing_name_leaves_its_metrics_absent(monkeypatch):
    monkeypatch.delattr(dc.specfun, "bessel_zero")
    with layertrace.Tracer() as tracer:
        dc.bessel_j(1.5, 2.0)
    metrics = layertrace.layer_metrics(layertrace.totals(tracer.spans, tracer.missing))
    assert tracer.missing == ["specfun.bessel_zero"]
    assert "specfun.bessel_zero.calls" not in metrics and "specfun.jnu_per_zero" not in metrics
    assert metrics["specfun.bessel_j.calls"] == 1


def test_adapter_reads_a_bessel_eval_or_a_float():
    ev = dc.bessel_j(2.5, 7.0)
    assert adapter.jv_value(ev) == adapter.jv_value(ev.value) == ev.value
    assert adapter.jv_method(ev.value) is None


@pytest.mark.parametrize("nu, m", [(0.0, 0), (0.5, 4), (2.7, 30), (11.3, 12), (23.9, 30), (30.0, 3)])
def test_zero_oracle_agrees_with_mpmath(nu, m):
    expected = float(mpmath.besseljzero(nu, m + 1))
    assert abs(oracle.Oracle().zero(nu, m) - expected) <= 1e-13 * max(1.0, expected)


@pytest.mark.parametrize("c", [0.05, 0.5000001, 0.7, 3.0, 18.5, 40.0])
def test_well_oracle_solves_its_profile(c):
    o = oracle.Oracle()
    ground, excited = o.xi(c, "ground"), o.xi(c, "excited")
    with mpmath.workdps(30):
        assert abs(ground / (1 + mpmath.exp(-2 * mpmath.mpf(ground))) - c) <= 1e-14 * c
        if c > 0.5:
            assert abs(excited / (1 - mpmath.exp(-2 * mpmath.mpf(excited))) - c) <= 1e-14 * c
    assert (excited is None) == (c <= 0.5)


def test_checks_flag_a_wrong_value():
    o = oracle.Oracle()
    zero = o.zero(3.0, 2)
    assert oracle.check_zero(o, 3.0, 2, zero) is None
    assert oracle.check_zero(o, 3.0, 2, zero + 1e-8) is not None
    assert oracle.check_jv(o, 3.0, 7.0, o.jv(3.0, 7.0) + 1e-9) is not None

    spec = {"mass": 0.5, "coupling": 1.0, "z0": 2.0, "deficit": 1.25, "radius": 5.0, "hbar": 1.0}
    rows = adapter.table_rows(dc.spectrum_table(adapter.make_params(dc, **spec), 3, 4))
    assert oracle.check_rows(o, spec, 3, 4, rows, classified=True) == ([], [])
    rows[5]["radial_energy"] *= 1 + 1e-8
    gating, _ = oracle.check_rows(o, spec, 3, 4, rows, classified=True)
    assert gating
    assert oracle.check_rows(o, spec, 3, 4, rows[:-1], classified=True)[0]


@pytest.mark.parametrize("trace", [0, 1])
def test_result_line_has_the_declared_metrics(trace, tmp_path):
    declared = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    names = {m["name"] for m in declared["per_layer" if trace else "end_to_end"]}
    for name in workloads.WORKLOADS:
        done = subprocess.run(
            [sys.executable, str(run.BENCH / "run.py"), "--workload", name, "--seed", "5",
             "--seconds", "0.5", "--trace", str(trace)],
            cwd=run.ROOT, capture_output=True, text=True, timeout=300,
        )
        assert done.returncode == 0, done.stderr
        result = json.loads(done.stdout.strip().splitlines()[-1])
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"] is True and result["attempted"] >= 1
        assert set(result["metrics"]) == names, name
        for value in result["metrics"].values():
            assert math.isfinite(value["value"])
        if trace:
            spans = [json.loads(line) for line in (run.SPANS / f"{name}.jsonl").read_text().splitlines()]
            assert spans and all(len(span) == 8 for span in spans)
            assert {"specfun.bessel_j"} <= {span[3] for span in spans}
