"""The one place the benchmark reads defectcyl's results.

Every call into the package and every read of a returned object goes
through here, so a planned API change (``bessel_j`` returning a float
instead of a ``BesselEval``, dropped CLI columns, renamed result types)
needs an edit in this file at most, never in the workloads or the checks.
"""

from __future__ import annotations

import csv
import io
import json
import math


def jv_value(result) -> float:
    """The J_nu value of a ``bessel_j`` result: a ``BesselEval`` or a float."""
    if isinstance(result, (int, float)):
        return float(result)
    return float(result.value)


def jv_method(result):
    """Name of the branch that produced a ``bessel_j`` result, or None if untagged."""
    method = getattr(result, "method", None)
    if method is None:
        return None
    return getattr(method, "value", str(method))


def iterations(result):
    """Iteration count of a root-finder result, or None if it carries none."""
    value = getattr(result, "iterations", None)
    return value if isinstance(value, int) else None


def make_params(dc, *, mass, coupling, z0, deficit, radius, hbar=1.0):
    return dc.PhysicalParams(
        mass=mass,
        coupling=coupling,
        half_separation=z0,
        deficit=deficit,
        radius=radius,
        hbar=hbar,
    )


def level_enum(dc, name: str):
    return dc.EnergyLevel(name)


def quantum_numbers(dc, n: int, m: int):
    return dc.QuantumNumbers(n, m)


def state_row(state):
    """A solved well level as {"level", "energy", "xi", "h_factor"}, or None."""
    if state is None:
        return None
    return {
        "level": _enum_text(state.level),
        "energy": float(state.energy),
        "xi": float(state.xi),
        "h_factor": float(state.h_factor),
    }


def table_rows(entries) -> list[dict]:
    """``spectrum_table`` entries as plain rows keyed like the CLI's columns."""
    rows = []
    for entry in entries:
        qn = getattr(entry, "qn", entry)
        rows.append(
            {
                "n": int(qn.n),
                "m": int(qn.m),
                "level": _enum_text(entry.level),
                "nu": float(entry.nu),
                "radial_energy": float(entry.radial_energy),
                "z_energy": float(entry.z_energy),
                "total_energy": float(entry.total_energy),
                "classification": _enum_text(entry.classification),
            }
        )
    return rows


def cli_rows(stdout: str, output_format: str) -> list[dict]:
    """Rows of a CLI table in either output format, numbers parsed to floats.

    JSON records that carry named records instead of "rows" (bound-states
    prints {"ground": ..., "excited": ...}) yield their non-null records.
    """
    if output_format == "json":
        payload = json.loads(stdout)
        if "rows" in payload:
            raw = payload["rows"]
        else:
            raw = [payload[key] for key in ("ground", "excited") if payload.get(key)]
    else:
        raw = list(csv.DictReader(io.StringIO(stdout)))
    return [{key: _number(value) for key, value in row.items()} for row in raw]


def _number(value):
    if isinstance(value, (int, float)) and not isinstance(value, bool):
        return float(value)
    if isinstance(value, str):
        try:
            parsed = float(value)
        except ValueError:
            return value
        return parsed if math.isfinite(parsed) else value
    return value


def _enum_text(value) -> str:
    return getattr(value, "value", value)
