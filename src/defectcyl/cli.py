"""Command-line front end emitting deterministic CSV or JSON tables.

Options can also come from a flat JSON config file (keys matching the long
flag names); explicit flags win. Exit status is 0 on success, 1 on a
computational failure, 2 on a usage error. Flags, config keys, conversion,
defaults, checks and the JSON echo all come from ``_COMMON`` and ``COMMANDS``.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import sys
from enum import Enum, EnumMeta
from pathlib import Path
from types import SimpleNamespace
from typing import Any, Optional

from .model import EnergyLevel, PhysicalParams, QuantumNumbers
from .specfun import ZeroApproxMode, bessel_j, bessel_zero, zero_approx_table
from .spectrum import classify, critical_radius, spectrum_table
from .wells import _h_factor, _level_root, excited_state, ground_state


class OutputFormat(Enum):
    CSV = "csv"
    JSON = "json"


class RunConfig(SimpleNamespace):
    """A resolved invocation: ``command``, ``params`` and one attribute per option,
    named after its flag (``--n-max`` is ``n_max``)."""

    output_format = property(lambda self: self.output.value)
    output_path = property(lambda self: self.out)


def _opt(name, kind, default=None, *, required=False, check=None, help=None) -> tuple:
    """kind: float, int, str or an Enum (its values are the choices); check: (test, message)."""
    return name, kind, default, required, check, help


_NONNEG_INT = (lambda v: v >= 0, "must be a non-negative integer")
_NONNEG_FLOAT = (lambda v: 0 <= v < math.inf, "must be >= 0")  # NaN fails too
_POSITIVE = (lambda v: v > 0, "must be > 0")

# Options of every subcommand. The physics values are checked together when
# they form a PhysicalParams.
_COMMON = (
    _opt("mass", float, 0.5),
    _opt("coupling", float, 1.0),
    _opt("z0", float, 1.0),
    _opt("deficit", float, 1.0),
    _opt("radius", float, 5.0),
    _opt("hbar", float, 1.0),
    _opt("output", OutputFormat, "csv"),
    _opt("out", str, help="output file (default: stdout)"),
)

_NU = _opt("nu", float, required=True, check=_NONNEG_FLOAT)
_M = _opt("m", int, required=True, check=_NONNEG_INT)
_MODE = _opt("mode", ZeroApproxMode, "exact")


# Handlers: each returns (columns, rows, json_extra); json_extra, if set,
# replaces "rows" in the JSON record.
def _bound_states(config: RunConfig):
    states = (ground_state(config.params), excited_state(config.params))
    rows = [
        {"level": s.level.value, "energy": s.energy, "xi": s.xi, "h_factor": s.h_factor}
        for s in states
        if s is not None
    ]
    extra = {"ground": rows[0], "excited": rows[1] if len(rows) > 1 else None}
    return list(rows[0]), rows, extra


def _bessel_zero(config: RunConfig):
    zero = bessel_zero(config.nu, config.m, config.mode)
    row = {"nu": config.nu, "m": config.m, "mode": config.mode.value, "zero": zero}
    return list(row), [row], None


def _eval_bessel(config: RunConfig):
    ev = bessel_j(config.nu, config.q)
    row = {
        "nu": config.nu,
        "q": config.q,
        "value": ev.value,
        "method": ev.method.value,
        "term_count": ev.term_count,
    }
    return list(row), [row], None


def _critical_radius(config: RunConfig):
    qn = QuantumNumbers(config.n, config.m)
    row = {
        "n": qn.n,
        "m": qn.m,
        "level": config.level.value,
        "h_factor": _h_factor(*_level_root(config.params, config.level)),
        "critical_radius": critical_radius(config.params, qn, config.level),
    }
    return list(row), [row], None


def _compare_approx(config: RunConfig):
    table = zero_approx_table(config.nu_max, config.m_max, config.nu_step)
    rows = [
        {"nu": nu, "m": m, "exact": exact, "mcmahon": approx, "rel_error": rel}
        for nu, m, exact, approx, rel in table
    ]
    return ["nu", "m", "exact", "mcmahon", "rel_error"], rows, None


def _spectrum(config: RunConfig):
    reference = None
    if config.ref_n is not None:
        reference = QuantumNumbers(config.ref_n, config.ref_m)
    rows = []
    for entry in spectrum_table(config.params, config.n_max, config.m_max, config.mode):
        row = {
            "n": entry.qn.n,
            "m": entry.qn.m,
            "level": entry.level.value,
            "nu": entry.nu,
            "radial_energy": entry.radial_energy,
            "z_energy": entry.z_energy,
            "total_energy": entry.total_energy,
            "classification": entry.classification.value,
            "mode": entry.mode.value,
        }
        if reference is not None:
            row["reference_class"] = classify(config.params, reference, entry.qn, entry.level).value
        rows.append(row)
    # spectrum_table always holds the (0, 0, ground) row, so rows[0] has every column.
    return list(rows[0]), rows, None


# Each subcommand once: (help, handler, its own options after _COMMON).
COMMANDS = {
    "bound-states": ("solve the two axial delta-well levels", _bound_states, ()),
    "bessel-zero": ("one zero of J_nu, exact or closed-form", _bessel_zero, (_NU, _M, _MODE)),
    "spectrum": ("joint (n, m, level) energy table", _spectrum, (
        _opt("n-max", int, required=True, check=_NONNEG_INT),
        _opt("m-max", int, required=True, check=_NONNEG_INT),
        _MODE,
        _opt("ref-n", int, check=_NONNEG_INT),
        _opt("ref-m", int, check=_NONNEG_INT),
    )),
    "critical-radius": ("radius at which a state's total energy vanishes", _critical_radius, (
        _opt("n", int, required=True, check=_NONNEG_INT),
        _M,
        _opt("level", EnergyLevel, "ground"),
    )),
    "compare-approx": ("closed-form zero estimate audited against exact zeros", _compare_approx, (
        _opt("nu-max", float, 6.0, check=_NONNEG_FLOAT),
        _opt("m-max", int, 10, check=_NONNEG_INT),
        _opt("nu-step", float, 0.5, check=_POSITIVE),
    )),
    "eval-bessel": ("evaluate J_nu(q)", _eval_bessel, (
        _NU,
        _opt("q", float, required=True, check=_NONNEG_FLOAT),
    )),
}


def _attr(name: str) -> str:
    return name.replace("-", "_")


def _choices(kind) -> Optional[list[str]]:
    return [member.value for member in kind] if isinstance(kind, EnumMeta) else None


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="defectcyl",
        description=(
            "Discrete spectrum of a particle trapped in a cylinder with a "
            "conical defect and twin attractive delta wells."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for command, (help_text, _handler, own) in COMMANDS.items():
        sp = sub.add_parser(command, help=help_text)
        sp.add_argument("--config", default=None, help="flat JSON config file")
        for name, kind, _default, _required, _check, hint in _COMMON + own:
            choices = _choices(kind)
            # Defaults stay None here so that config-file values can fill in.
            sp.add_argument(f"--{name}", type=None if choices else kind, choices=choices, help=hint)
    return parser


def _convert(parser: argparse.ArgumentParser, name: str, kind, check, value: Any) -> Any:
    """Bring a flag, config-file or default value to the option's kind and check it."""
    choices = _choices(kind)
    if choices is not None:
        if value not in choices:
            parser.error(f"{name} must be one of {choices}")
        value = kind(value)
    elif kind is str:
        if not isinstance(value, str):
            parser.error(f"{name} must be a string")
    else:
        try:
            # int(True) and float(True) succeed, so JSON true/false is refused here.
            fractional = kind is int and isinstance(value, float) and not value.is_integer()
            if isinstance(value, bool) or fractional:
                raise ValueError
            value = kind(value)
        except (TypeError, ValueError):
            parser.error(f"{name} must be a number")
    if check is not None and not check[0](value):
        parser.error(f"{name} {check[1]}")
    return value


def parse_config(argv: list[str]) -> RunConfig:
    """Resolve argv plus optional config file into a validated RunConfig.

    Precedence: explicit flags, then config-file values, then defaults.
    Any violation exits with usage status 2.
    """
    parser = _build_parser()
    ns = parser.parse_args(argv)
    command = ns.command
    options = _COMMON + COMMANDS[command][2]

    file_values: dict[str, Any] = {}
    if ns.config is not None:
        try:
            file_values = json.loads(Path(ns.config).read_text(encoding="utf-8"))
        except (OSError, json.JSONDecodeError) as exc:
            parser.error(f"cannot read config file {ns.config}: {exc}")
        if not isinstance(file_values, dict):
            parser.error(f"config file {ns.config} must hold a flat JSON object")
        allowed = {option[0] for option in options}
        for key in file_values:
            if key not in allowed:
                parser.error(f"unknown config key '{key}' for command {command}")

    values: dict[str, Any] = {}
    for name, kind, default, required, check, _help in options:
        value = getattr(ns, _attr(name))
        if value is None:
            value = file_values.get(name)
        if value is None:
            value = default
        if value is None and required:
            parser.error(f"--{name} is required for {command}")
        values[name] = None if value is None else _convert(parser, name, kind, check, value)

    if (values.get("ref-n") is None) != (values.get("ref-m") is None):
        parser.error("ref-n and ref-m must be given together")

    try:
        # Each physics flag names its PhysicalParams field, except z0.
        params = PhysicalParams(
            half_separation=values["z0"],
            **{name: values[name] for name in ("mass", "coupling", "deficit", "radius", "hbar")},
        )
    except ValueError as exc:
        parser.error(str(exc))

    return RunConfig(
        command=command, params=params, **{_attr(name): value for name, value in values.items()}
    )


def _config_echo(config: RunConfig) -> dict[str, Any]:
    """The six physics fields, output, and every option of the command that is set."""
    echo: dict[str, Any] = {"command": config.command}
    for name, *_rest in _COMMON + COMMANDS[config.command][2]:
        value = getattr(config, _attr(name))
        if value is not None and name != "out":
            echo[name] = value.value if isinstance(value, Enum) else value
    return echo


def _render_csv(columns: list[str], rows: list[dict[str, Any]]) -> str:
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(columns)
    for row in rows:
        writer.writerow([_cell(row[c]) for c in columns])
    return buffer.getvalue()


def _cell(value: Any) -> str:
    if value is None:
        return ""
    if isinstance(value, float):
        return repr(value)
    return str(value)


def _render_json(config: RunConfig, rows: list[dict], extra: Optional[dict]) -> str:
    payload: dict[str, Any] = {"config": _config_echo(config)}
    if extra is not None:
        payload.update(extra)
    else:
        payload["rows"] = rows
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"


def run(config: RunConfig) -> int:
    """Execute one resolved invocation and write its table or record."""
    columns, rows, extra = COMMANDS[config.command][1](config)
    if config.output_format == "csv":
        text = _render_csv(columns, rows)
    else:
        text = _render_json(config, rows, extra)
    if config.output_path is not None:
        Path(config.output_path).write_text(text, encoding="utf-8")
    else:
        sys.stdout.write(text)
    return 0


def main(argv: Optional[list[str]] = None) -> int:
    config = parse_config(sys.argv[1:] if argv is None else argv)
    try:
        return run(config)
    except (ValueError, RuntimeError, ArithmeticError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
