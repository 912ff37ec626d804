"""Acceptance checklist: one test per criterion, one printed line per result.

Run `pytest tests/test_acceptance.py -v -s` to see every line. Criterion 8
asserts the advertised error envelope of the closed-form zero estimate
(max 5% overall, 1% from the sixth zero on); the measured envelope on that
grid peaks at 18.57% (first zero at order six) and 2.49% (sixth zero, same
order), so that single criterion fails and documents the real envelope.
"""

import csv
import io
import json
import math
import subprocess
import sys
import time
from dataclasses import replace

import pytest

from defectcyl import (
    Classification,
    EnergyLevel,
    PhysicalParams,
    QuantumNumbers,
    ZeroApproxMode,
    bessel_j,
    bessel_j_derivative,
    bessel_zero,
    classify,
    coupling_strength_parameter,
    critical_radius,
    excited_state,
    ground_state,
    radial_energy,
    spectrum_table,
    total_energy,
    zero_approx_table,
)

import oracles


def _report(number: int, name: str, failures: list[str], detail: str = "") -> None:
    status = "PASS" if not failures else "FAIL"
    line = f"[criterion {number:02d}] {status} {name}"
    if detail:
        line += f" | {detail}"
    if failures:
        line += " | " + "; ".join(failures)
    print(line)
    assert not failures, line


def reference_params(**overrides) -> PhysicalParams:
    base = dict(mass=0.5, coupling=1.0, half_separation=1.0, deficit=1.0, radius=5.0, hbar=1.0)
    base.update(overrides)
    return PhysicalParams(**base)


def test_criterion_01_first_zero_constants():
    failures = []
    start = time.perf_counter()
    zeros = [bessel_zero(float(nu), 0) for nu in (0, 1, 2)]
    elapsed = time.perf_counter() - start
    for z, want in zip(zeros, (2.405, 3.832, 5.136)):
        if round(z, 3) != want:
            failures.append(f"{z} does not print as {want}")
    scans = [
        oracles.j0_first_zero_sign_scan(),
        oracles.j_zero_scan(1.0, 2.5, 5.0),
        oracles.j_zero_scan(2.0, 4.0, 6.5),
    ]
    for z, ref in zip(zeros, scans):
        if abs(z - ref) > 1e-10:
            failures.append(f"|{z} - oracle {ref}| > 1e-10")
    if elapsed >= 0.010:
        failures.append(f"runtime {elapsed * 1e3:.2f} ms >= 10 ms")
    _report(1, "first-zero constants", failures, f"runtime {elapsed * 1e3:.2f} ms")


def test_criterion_02_ground_state_limits():
    failures = []
    sweep = [10.0 ** (k / 3.0) for k in range(-12, 13)]
    start = time.perf_counter()
    energies = [ground_state(reference_params(half_separation=z0)).energy for z0 in sweep]
    elapsed = time.perf_counter() - start
    if abs(energies[0] + 1.0) > 1e-3:
        failures.append(f"close-well energy {energies[0]} not within 0.1% of -1")
    if abs(energies[-1] + 0.25) > 2.5e-4:
        failures.append(f"far-well energy {energies[-1]} not within 0.1% of -0.25")
    if not all(a <= b for a, b in zip(energies, energies[1:])):
        failures.append("energy not monotone in separation")
    resolvable = [e for z0, e in zip(sweep, energies) if z0 <= 30.0]
    if not all(a < b for a, b in zip(resolvable, resolvable[1:])):
        failures.append("energy not strictly monotone below saturation")
    if elapsed >= 0.050:
        failures.append(f"runtime {elapsed * 1e3:.1f} ms >= 50 ms")
    _report(2, "ground-state separation limits", failures, f"runtime {elapsed * 1e3:.2f} ms")


def _existence_grid() -> list[PhysicalParams]:
    masses = (0.3, 0.5, 0.8, 1.2, 1.7)
    couplings = (0.5, 1.0, 1.6, 2.4)
    z0s = [0.05 * (4.0 / 0.05) ** (k / 9.0) for k in range(10)]
    return [
        reference_params(mass=m, coupling=c, half_separation=z)
        for m in masses
        for c in couplings
        for z in z0s
    ]


def test_criterion_03_excited_existence_threshold():
    failures = []
    grid = _existence_grid()
    assert len(grid) == 200
    start = time.perf_counter()
    for p in grid:
        state = excited_state(p)
        threshold = 2.0 * p.mass * p.half_separation * p.coupling
        should_exist = threshold > p.hbar**2 + 2e-12
        if (state is not None) != should_exist:
            failures.append(f"existence mismatch at 2Mz0l={threshold}")
    delta = 1e-6
    near = reference_params(half_separation=2.0 * (0.5 + delta))
    state = excited_state(near)
    elapsed = time.perf_counter() - start
    if state is None:
        failures.append("state just above threshold missing")
    else:
        c = coupling_strength_parameter(near)
        expected_xi = 2.0 * (c - 0.5)
        if abs(state.xi - expected_xi) > 0.01 * expected_xi:
            failures.append(f"xi {state.xi} not within 1% of {expected_xi}")
        if not (-1e-10 < state.energy < 0.0):
            failures.append(f"near-threshold energy {state.energy} not just below zero")
    if elapsed >= 0.100:
        failures.append(f"runtime {elapsed * 1e3:.1f} ms >= 100 ms")
    _report(3, "excited existence threshold", failures, f"runtime {elapsed * 1e3:.2f} ms")


def test_criterion_04_level_ordering_and_gap_closure():
    failures = []
    sweep = [2.0**k for k in range(9)]  # 1 .. 256
    gaps = []
    for z0 in sweep:
        p = reference_params(half_separation=z0)
        g = ground_state(p)
        e = excited_state(p)
        if z0 == 1.0:
            # exactly at the existence threshold: the antisymmetric level is
            # marginal (zero binding) and correctly reported absent
            if e is not None:
                failures.append("excited level reported at the exact threshold")
            continue
        if e is None:
            failures.append(f"excited level missing at z0={z0}")
            continue
        if not (g.energy <= e.energy < 0.0):
            failures.append(f"ordering violated at z0={z0}")
        if z0 <= 32.0 and not (g.energy < e.energy):
            failures.append(f"strict ordering violated at z0={z0}")
        gaps.append(e.energy - g.energy)
    if not all(b <= a for a, b in zip(gaps, gaps[1:])):
        failures.append("gap not monotone decreasing")
    last = reference_params(half_separation=256.0)
    for state in (ground_state(last), excited_state(last)):
        if abs(state.energy + 0.25) > 1e-6:
            failures.append(f"{state.level.value} endpoint {state.energy} not within 1e-6 of -0.25")
    if gaps[-1] > 1e-6:
        failures.append(f"final gap {gaps[-1]} has not closed")
    _report(4, "level ordering and gap closure", failures, f"final gap {gaps[-1]:.2e}")


def test_criterion_05_h_factor_ranges():
    failures = []
    for p in _existence_grid():
        g = ground_state(p)
        if not (0.5 < g.h_factor < 2.0):
            failures.append(f"ground h {g.h_factor} outside (0.5, 2)")
        e = excited_state(p)
        if e is not None and not (0.0 < e.h_factor < 0.5):
            failures.append(f"excited h {e.h_factor} outside (0, 0.5)")
    _report(5, "binding-depth factor ranges", failures)


def test_criterion_06_critical_radius_roundtrip():
    failures = []
    start = time.perf_counter()
    for deficit in (0.5, 1.0, 2.0):
        p = reference_params(half_separation=2.0, deficit=deficit)
        for level in (EnergyLevel.GROUND, EnergyLevel.EXCITED):
            for n in range(4):
                for m in range(4):
                    qn = QuantumNumbers(n, m)
                    pinned = replace(p, radius=critical_radius(p, qn, level))
                    total = total_energy(pinned, qn, level, ZeroApproxMode.MCMAHON)
                    radial = radial_energy(pinned, qn, ZeroApproxMode.MCMAHON)
                    if abs(total) > 1e-9 * radial:
                        failures.append(f"roundtrip residue {total} at B={deficit} {level.value} {n},{m}")
    elapsed = time.perf_counter() - start
    if elapsed >= 1.0:
        failures.append(f"runtime {elapsed:.3f} s >= 1 s")
    _report(6, "critical-radius roundtrip", failures, f"runtime {elapsed * 1e3:.1f} ms")


def test_criterion_07_classification_consistency():
    failures = []
    p = reference_params(half_separation=2.0)
    ref = QuantumNumbers(0, 1)
    expected = {
        (0, 0): Classification.BOUND,
        (1, 0): Classification.BOUND,
        (2, 0): Classification.ZERO,
        (0, 2): Classification.POSITIVE,
        (3, 0): Classification.POSITIVE,
    }
    for (n, m), want in expected.items():
        got = classify(p, ref, QuantumNumbers(n, m))
        if got is not want:
            failures.append(f"({n},{m}) classified {got.value}, want {want.value}")
    for level in (EnergyLevel.GROUND, EnergyLevel.EXCITED):
        pinned = replace(p, radius=critical_radius(p, ref, level))
        for n in range(4):
            for m in range(4):
                qn = QuantumNumbers(n, m)
                cls = classify(p, ref, qn, level)
                if cls is Classification.ZERO:
                    continue
                total = total_energy(pinned, qn, level, ZeroApproxMode.MCMAHON)
                if (total < 0) != (cls is Classification.BOUND):
                    failures.append(f"sign mismatch at {level.value} ({n},{m})")
    _report(7, "zero-locus classification", failures)


def test_criterion_08_zero_estimate_audit():
    failures = []
    start = time.perf_counter()
    rows = zero_approx_table(6.0, 10, 0.5)
    elapsed = time.perf_counter() - start
    worst = max(rows, key=lambda r: r[4])
    if worst[4] >= 0.05:
        failures.append(f"max rel error {worst[4]:.4f} at nu={worst[0]}, m={worst[1]} (claimed < 0.05)")
    late = max((r for r in rows if r[1] >= 5), key=lambda r: r[4])
    if late[4] >= 0.01:
        failures.append(f"m>=5 rel error {late[4]:.4f} at nu={late[0]}, m={late[1]} (claimed < 0.01)")
    by_nu: dict[float, list[float]] = {}
    for nu, m, _, _, rel in rows:
        by_nu.setdefault(nu, []).append(max(rel, 1e-12))  # rounding-noise floor
    for nu, errs in by_nu.items():
        if not all(b <= a for a, b in zip(errs, errs[1:])):
            failures.append(f"error not monotone in m at nu={nu}")
    if elapsed >= 1.0:
        failures.append(f"runtime {elapsed:.3f} s >= 1 s")
    _report(
        8,
        "closed-form zero estimate audit",
        failures,
        f"measured max {worst[4]:.4f}, m>=5 max {late[4]:.4f}, runtime {elapsed * 1e3:.0f} ms",
    )


def test_criterion_09_special_function_oracles():
    failures = []
    for k in range(200):
        q = 0.1 + 0.1 * k
        mine = bessel_j(0.5, q).value
        ref = oracles.spherical_half_order(q)
        if abs(mine - ref) > 1e-10 * abs(ref):
            failures.append(f"half-order identity off at q={q}")
    for nu in (0.0, 0.5, 1.0, 2.7, 5.0):
        for i in range(30):
            q = 0.3 + i * 0.65
            fd = oracles.central_difference(lambda t, n=nu: bessel_j(n, t).value, q)
            if abs(bessel_j_derivative(nu, q) - fd) > 1e-5:
                failures.append(f"derivative mismatch at nu={nu}, q={q}")
    for tenths in range(0, 11):
        nu = tenths * 0.5
        for m in range(9):
            a = bessel_zero(nu, m)
            b = bessel_zero(nu + 1.0, m)
            c = bessel_zero(nu, m + 1)
            if not (a < b < c):
                failures.append(f"interlacing violated at nu={nu}, m={m}")
    _report(9, "special-function oracles", failures)


def test_criterion_10_scaling_collapse():
    failures = []
    a = reference_params(mass=0.5, coupling=2.0, half_separation=1.0)
    b = reference_params(mass=1.0, coupling=1.0, half_separation=1.0)
    if coupling_strength_parameter(a) != coupling_strength_parameter(b):
        failures.append("dimensionless strengths differ")
    ratio = (a.mass * a.coupling**2) / (b.mass * b.coupling**2)
    for solver in (ground_state, excited_state):
        sa, sb = solver(a), solver(b)
        if abs(sa.xi - sb.xi) > 1e-12 * sb.xi:
            failures.append(f"{sa.level.value} xi differs: {sa.xi} vs {sb.xi}")
        if abs(sa.h_factor - sb.h_factor) > 1e-12 * sb.h_factor:
            failures.append(f"{sa.level.value} h differs")
        if abs(sa.energy - ratio * sb.energy) > 1e-13 * abs(sa.energy):
            failures.append(f"{sa.level.value} energies not related by the scale factor")
    _report(10, "dimensionless scaling collapse", failures)


def test_criterion_11_bound_count_grows_with_radius():
    failures = []
    counts = []
    for radius in (1.0, 2.0, 4.0, 8.0, 16.0):
        p = reference_params(half_separation=2.0, radius=radius)
        table = spectrum_table(p, 6, 6)
        counts.append(sum(1 for entry in table if entry.total_energy < 0))
    if not all(a <= b for a, b in zip(counts, counts[1:])):
        failures.append(f"counts not monotone: {counts}")
    if not any(a < b for a, b in zip(counts, counts[1:])):
        failures.append(f"counts never increase: {counts}")
    _report(11, "bound count grows with radius", failures, f"counts {counts}")


CLI_CASES = [
    ["bound-states", "--z0", "2"],
    ["bessel-zero", "--nu", "1.5", "--m", "2"],
    ["spectrum", "--z0", "2", "--n-max", "2", "--m-max", "2"],
    ["critical-radius", "--n", "1", "--m", "0", "--z0", "2"],
    ["compare-approx", "--nu-max", "2", "--m-max", "4"],
    ["eval-bessel", "--nu", "0.5", "--q", "3.0"],
]


def _run_cli(*args: str) -> str:
    proc = subprocess.run(
        [sys.executable, "-m", "defectcyl", *args], capture_output=True, text=True
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def test_criterion_12_cli_determinism():
    failures = []
    for args in CLI_CASES:
        first = _run_cli(*args)
        second = _run_cli(*args)
        if first != second:
            failures.append(f"{args[0]} output not byte-identical")
        csv_rows = list(csv.DictReader(io.StringIO(first)))
        payload = json.loads(_run_cli(*args, "--output", "json"))
        if args[0] == "bound-states":
            json_rows = [payload["ground"]]
            if payload["excited"] is not None:
                json_rows.append(payload["excited"])
        else:
            json_rows = payload["rows"]
        if len(csv_rows) != len(json_rows):
            failures.append(f"{args[0]} row count differs between encodings")
            continue
        for crow, jrow in zip(csv_rows, json_rows):
            for key, jval in jrow.items():
                if isinstance(jval, float):
                    if float(crow[key]) != jval:
                        failures.append(f"{args[0]} numeric mismatch in {key}")
                elif crow[key] != str(jval):
                    failures.append(f"{args[0]} value mismatch in {key}")
    _report(12, "deterministic command-line output", failures)
