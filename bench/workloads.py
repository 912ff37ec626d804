"""The three seeded workloads: inputs, one call each, and the oracle verdict.

Each workload turns a seed into an endless, reproducible stream of
operation specs (plain dicts), executes one spec against defectcyl, counts
the work units it completed and judges its result against the oracle.
Verdicts are "ok", "fail" (a raise, an unexpected exit code or a miss of
order <= the gate) or "beyond" (a miss or raise of higher order: the known
high-order J_nu defect, which counts in fail_frac but not against
'correct'). spec.json explains why each workload exists.
"""

from __future__ import annotations

import json
import math
import random
import statistics
import subprocess
import sys

import adapter
import layertrace
import oracle

_MASS = 0.5  # the paper's M = 1/2, hbar = 1 convention
_HBAR = 1.0


def _log_uniform(rng: random.Random, lo: float, hi: float) -> float:
    return lo * (hi / lo) ** rng.random()


def _strata(rng: random.Random, k: int) -> list[float]:
    """k uniforms in [0, 1), one in each stratum of width 1/k, in random order."""
    values = [(i + rng.random()) / k for i in range(k)]
    rng.shuffle(values)
    return values


class _Bags:
    """Stratified draws: every k draws under one key hit each of k strata of [0, 1).

    The costly inputs of a workload come from these, so that runs with
    different seeds see nearly the same spread of input sizes.
    """

    def __init__(self, rng: random.Random) -> None:
        self.rng = rng
        self.pending: dict[str, list[float]] = {}

    def draw(self, key: str, k: int) -> float:
        if not self.pending.get(key):
            self.pending[key] = _strata(self.rng, k)
        return self.pending[key].pop()


def _params(rng: random.Random, z0: float, coupling: float) -> dict:
    return {
        "mass": _MASS,
        "coupling": coupling,
        "z0": z0,
        "deficit": _log_uniform(rng, 0.5, 2.0),
        "radius": _log_uniform(rng, 1.0, 10.0),
        "hbar": _HBAR,
    }


def metric(value: float, unit: str, **extra) -> dict:
    return {"value": value, "unit": unit, **extra}


def timing(name: str, times: list[float], tail: bool = True) -> dict:
    """{name.p50} and, if asked, {name.tail}: the highest whole-number
    percentile (nearest rank, at most 99) with at least 10 samples beyond it."""
    if not times:
        return {}
    out = {f"{name}.p50": metric(statistics.median(times), "s", samples=len(times))}
    if tail:
        ordered = sorted(times)
        n = len(ordered)
        percentile = min(99, (100 * (n - 10)) // n) if n > 10 else 100
        rank = max(1, math.ceil(percentile * n / 100))
        out[f"{name}.tail"] = metric(ordered[rank - 1], "s", percentile=percentile, samples=n)
    return out


def rate(records) -> float:
    """Units of work completed per second spent inside the calls."""
    return sum(r.units for r in records) / sum(r.seconds for r in records)


def round_median(times: list[float], size: int) -> float:
    """Median over consecutive rounds of ``size`` times of each round's median."""
    return statistics.median(statistics.median(times[i : i + size]) for i in range(0, len(times), size))


def _verdict(messages_fail, messages_beyond=()):
    if messages_fail:
        return "fail", messages_fail[0]
    if messages_beyond:
        return "beyond", messages_beyond[0]
    return "ok", None


class SpectrumGrid:
    name = "spectrum-grid"
    import_target = "defectcyl"
    in_process = True
    unit_name = "rows"
    # One cycle of 12 tables: table i takes stratum i of n_max and strata
    # M[i], B[i] and C[i] of m_max, the deficit and c = z0 M coupling / hbar^2.
    # The pairing is the same for every seed, so every run does nearly the same
    # work and has the excited level in half its tables (c > 1/2 exactly in
    # strata 6 to 11); the seed moves the values within the strata, the order,
    # and how c splits into z0 and coupling, and the radius.
    cycle_m = (7, 2, 10, 5, 0, 9, 3, 11, 6, 1, 8, 4)
    cycle_b = (4, 8, 6, 10, 2, 5, 9, 1, 11, 7, 3, 0)  # n_max 12 with B near 1/2: nu ~ 24
    cycle_c = (10, 4, 1, 8, 6, 2, 11, 0, 5, 7, 3, 9)
    cycle = len(cycle_m)
    round_ops = cycle  # a round is one cycle: the same work in every round
    checked_ops = 2 * cycle
    trace_ops = cycle

    def specs(self, seed: int, ctx):
        rng = random.Random(f"{self.name}:{seed}")
        k = self.cycle
        while True:
            order = list(range(k))
            rng.shuffle(order)
            for i in order:
                c = 2.0 ** (8.0 * (self.cycle_c[i] + rng.random()) / k - 5.0)  # [1/32, 8]
                z0 = _log_uniform(rng, 0.25, 4.0)
                params = {
                    "mass": _MASS,
                    "coupling": c * _HBAR * _HBAR / (z0 * _MASS),
                    "z0": z0,
                    "deficit": 0.5 * 4.0 ** ((self.cycle_b[i] + rng.random()) / k),
                    "radius": _log_uniform(rng, 1.0, 10.0),
                    "hbar": _HBAR,
                }
                n_max = 2 + int(11 * (i + rng.random()) / k)
                m_max = 5 + int(26 * (self.cycle_m[i] + rng.random()) / k)
                yield {"params": params, "n_max": n_max, "m_max": m_max}

    def bind(self, ctx, spec):
        dc = ctx.dc
        params = adapter.make_params(dc, **spec["params"])
        return lambda: dc.spectrum_table(params, spec["n_max"], spec["m_max"])

    def units(self, spec, result) -> int:
        return len(result)

    def judge(self, o: oracle.Oracle, spec, result, error):
        p = spec["params"]
        beyond_gate = spec["n_max"] / p["deficit"] > oracle.GATE_NU_MAX
        if error is not None:
            return ("beyond" if beyond_gate else "fail"), error
        rows = adapter.table_rows(result)
        return _verdict(*oracle.check_rows(o, p, spec["n_max"], spec["m_max"], rows, classified=True))

    def own_metrics(self, records):
        return {
            "rows_per_s": metric(rate(records), "1/s"),
            **timing("table_s", [r.seconds for r in records]),
        }


class PointMix:
    name = "point-mix"
    import_target = "defectcyl"
    in_process = True
    unit_name = "calls"
    # One block: the fixed multiset of call kinds, shuffled per block.
    block = ("jnu",) * 10 + ("zero",) * 2 + ("ground",) * 5 + ("excited",) * 5 + ("critical",) * 2
    cycle = len(block)
    # The call kinds differ 100-fold in cost, so a round is whole blocks: 20,
    # which is also whole strata cycles of every stratified draw.
    round_ops = 20 * cycle
    checked_ops = round_ops
    trace_ops = 100 * cycle

    def specs(self, seed: int, ctx):
        rng = random.Random(f"{self.name}:{seed}")
        bags = _Bags(rng)
        while True:
            kinds = list(self.block)
            rng.shuffle(kinds)
            for kind in kinds:
                yield self._spec(rng, bags, kind)

    def _spec(self, rng: random.Random, bags: _Bags, kind: str) -> dict:
        if kind == "jnu":
            return {"kind": kind, "nu": 30.0 * bags.draw("jnu-nu", 10), "x": 150.0 * bags.draw("jnu-x", 10)}
        if kind == "zero":
            return {"kind": kind, "nu": 30.0 * bags.draw("zero-nu", 8), "m": int(4 * bags.draw("zero-m", 4))}
        c = 0.05 * 800.0 ** bags.draw(f"{kind}-c", 10)  # log-uniform in [0.05, 40]
        z0 = _log_uniform(rng, 0.25, 4.0)
        params = _params(rng, z0, c / (z0 * _MASS / (_HBAR * _HBAR)))
        spec = {"kind": kind, "params": params}
        if kind == "critical":
            spec["n"] = rng.randint(0, 12)
            spec["m"] = rng.randint(0, 10)
            spec["level"] = "excited" if oracle.coupling_c(params) > 0.6 and rng.random() < 0.5 else "ground"
        return spec

    def bind(self, ctx, spec):
        dc = ctx.dc
        kind = spec["kind"]
        if kind == "jnu":
            return lambda: dc.bessel_j(spec["nu"], spec["x"])
        if kind == "zero":
            return lambda: dc.bessel_zero(spec["nu"], spec["m"])
        params = adapter.make_params(dc, **spec["params"])
        if kind == "ground":
            return lambda: dc.ground_state(params)
        if kind == "excited":
            return lambda: dc.excited_state(params)
        qn = adapter.quantum_numbers(dc, spec["n"], spec["m"])
        level = adapter.level_enum(dc, spec["level"])
        return lambda: dc.critical_radius(params, qn, level)

    def units(self, spec, result) -> int:
        return 1

    def judge(self, o: oracle.Oracle, spec, result, error):
        kind = spec["kind"]
        gated = kind not in ("jnu", "zero") or spec["nu"] <= oracle.GATE_NU_MAX
        if error is not None:
            return ("fail" if gated else "beyond"), error
        if kind == "jnu":
            msg = oracle.check_jv(o, spec["nu"], spec["x"], adapter.jv_value(result))
        elif kind == "zero":
            msg = oracle.check_zero(o, spec["nu"], spec["m"], float(result))
        elif kind == "critical":
            msg = oracle.check_critical(o, spec["params"], spec["n"], spec["m"], spec["level"], float(result))
        else:
            msg = oracle.check_state(o, spec["params"], kind, adapter.state_row(result))
        if msg is None:
            return "ok", None
        return ("fail" if gated else "beyond"), msg

    def own_metrics(self, records):
        by_kind: dict[str, list[float]] = {}
        for r in records:
            kind = r.spec["kind"]
            by_kind.setdefault("level" if kind in ("ground", "excited") else kind, []).append(r.seconds)
        return {
            "calls_per_s": metric(rate(records), "1/s"),
            **timing("jnu_s", by_kind.get("jnu", []), tail=False),
            **timing("zero_s", by_kind.get("zero", [])),
            **timing("level_s", by_kind.get("level", []), tail=False),
        }


class CliMix:
    name = "cli-mix"
    import_target = "defectcyl.cli"
    in_process = False
    unit_name = "invocations"
    templates = (
        ("bound-states", "csv"),
        ("bound-states", "json"),
        ("bessel-zero", "csv"),
        ("bessel-zero", "json"),
        ("spectrum", "csv"),
        ("spectrum", "json"),
        ("critical-radius", "csv"),
        ("critical-radius", "json"),
        ("compare-approx", "csv"),
        ("compare-approx", "json"),
        ("eval-bessel", "csv"),
        ("eval-bessel", "json"),
        ("spectrum", "config"),
    )
    cycle = len(templates)
    round_ops = cycle  # a round is one cycle: the same invocations in every round
    checked_ops = 2 * cycle
    trace_ops = cycle

    def specs(self, seed: int, ctx):
        rng = random.Random(f"{self.name}:{seed}")
        bags = _Bags(rng)
        cycle = 0
        while True:
            templates = list(self.templates)
            rng.shuffle(templates)
            for command, output in templates:
                yield self._spec(rng, bags, ctx, command, output, cycle)
            cycle += 1

    def _spec(self, rng, bags, ctx, command, output, cycle) -> dict:
        p = _params(rng, _log_uniform(rng, 0.25, 4.0), _log_uniform(rng, 0.25, 4.0))
        options: dict = {}
        if command in ("bessel-zero", "eval-bessel"):
            options["nu"] = 6.0 * bags.draw(f"{command}-nu", 4)
            if command == "bessel-zero":
                options["m"] = int(4 * bags.draw("bessel-zero-m", 4))
            else:
                options["q"] = 30.0 * bags.draw("eval-bessel-q", 4)
        elif command == "spectrum":
            options["n-max"] = int(4 * bags.draw("spectrum-n", 4))
            options["m-max"] = int(4 * bags.draw("spectrum-m", 4))
        elif command == "critical-radius":
            options["n"] = rng.randint(0, 3)
            options["m"] = rng.randint(0, 3)
            options["level"] = "excited" if oracle.coupling_c(p) > 0.6 and rng.random() < 0.5 else "ground"
        elif command == "compare-approx":
            options["nu-max"] = 6.0 * bags.draw("compare-nu", 4)
            options["m-max"] = int(4 * bags.draw("compare-m", 4))
            options["nu-step"] = 0.5
        values = {**{k: p[k] for k in ("mass", "coupling", "z0", "deficit", "radius", "hbar")}, **options}
        if output == "config":
            path = ctx.workdir / f"config-{cycle}.json"
            path.write_text(json.dumps({**values, "output": "csv"}), encoding="utf-8")
            argv = [command, "--config", str(path)]
            output = "csv"
        else:
            argv = [command, "--output", output]
            for key, value in values.items():
                argv += [f"--{key}", repr(value) if isinstance(value, float) else str(value)]
        return {"command": command, "output": output, "argv": argv, "params": p, "options": options}

    def bind(self, ctx, spec):
        return lambda: _spawn(ctx, ["-m", "defectcyl", *spec["argv"]])

    def units(self, spec, result) -> int:
        return 1

    def judge(self, o: oracle.Oracle, spec, result, error):
        if error is not None:
            return "fail", error
        if result.returncode != 0:
            return "fail", f"exit {result.returncode}: {result.stderr.strip()[-200:]}"
        try:
            rows = adapter.cli_rows(result.stdout, spec["output"])
            return _verdict(*self._check(o, spec, rows))
        except (KeyError, ValueError, TypeError) as exc:
            return "fail", f"unreadable {spec['command']} output: {exc!r}"

    def _check(self, o, spec, rows):
        p, opt, command = spec["params"], spec["options"], spec["command"]
        if command == "bound-states":
            by_level = {row["level"]: row for row in rows}
            return [
                msg
                for level in ("ground", "excited")
                if (msg := oracle.check_state(o, p, level, by_level.get(level)))
            ], ()
        if command == "spectrum":
            return oracle.check_rows(o, p, opt["n-max"], opt["m-max"], rows, classified=False)
        if command == "compare-approx":
            msg = oracle.check_compare_rows(o, opt["nu-max"], opt["m-max"], opt["nu-step"], rows)
            return ([msg] if msg else []), ()
        (row,) = rows
        if command == "bessel-zero":
            msg = oracle.check_zero(o, opt["nu"], opt["m"], row["zero"])
        elif command == "eval-bessel":
            msg = oracle.check_jv(o, opt["nu"], opt["q"], row["value"])
        else:
            msg = oracle.check_critical(o, p, opt["n"], opt["m"], opt["level"], row["critical_radius"])
            msg = msg or oracle.check_state(o, p, opt["level"], {"h_factor": row["h_factor"]})
        return ([msg] if msg else []), ()

    def own_metrics(self, records):
        return timing("invoke_s", [r.seconds for r in records])

    def execute_traced(self, ctx, spec):
        """Run the invocation through bench/cli_driver.py, which times and traces it."""
        result = _spawn(ctx, [str(ctx.bench / "cli_driver.py"), *spec["argv"]])
        lines = result.stderr.strip().splitlines()
        info = json.loads(lines[-1]) if lines and lines[-1].startswith("{") else {}
        return result, info


WORKLOADS = {w.name: w for w in (SpectrumGrid(), PointMix(), CliMix())}


def run_traced_in_process(workload, ctx, specs):
    """One traced pass over specs: ([(result, error)], totals, tracer), in spec order."""
    calls = [workload.bind(ctx, spec) for spec in specs]
    with layertrace.Tracer() as tracer:
        outcomes = [call_safely(call) for call in calls]
    return outcomes, layertrace.totals(tracer.spans, tracer.missing), tracer


def call_safely(call):
    """(result, None) or (None, error text): a raise is a failed operation, not a crash."""
    try:
        return call(), None
    except Exception as exc:  # the run goes on and the verdict counts it
        return None, f"{type(exc).__name__}: {exc}"


def _spawn(ctx, args):
    return subprocess.run(
        [sys.executable, *args],
        cwd=ctx.root,
        env=ctx.env,
        capture_output=True,
        text=True,
        timeout=60,
    )
