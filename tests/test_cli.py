import csv
import io
import json
import subprocess
import sys
from pathlib import Path

import pytest

from defectcyl.cli import main, parse_config


def run_cli(*args: str) -> subprocess.CompletedProcess:
    cmd = [sys.executable, "-m", "defectcyl", *args]
    return subprocess.run(cmd, capture_output=True, text=True)


def parse_csv(text: str) -> list[dict]:
    return list(csv.DictReader(io.StringIO(text)))


SPECTRUM_ARGS = (
    "spectrum",
    "--mass", "0.5", "--coupling", "1", "--z0", "2", "--deficit", "1",
    "--radius", "5", "--n-max", "2", "--m-max", "2",
)


class TestParseConfig:
    def test_happy_path(self):
        cfg = parse_config(
            ["spectrum", "--mass", "0.5", "--coupling", "1", "--z0", "1",
             "--deficit", "1", "--radius", "5", "--n-max", "2", "--m-max", "2"]
        )
        assert cfg.command == "spectrum"
        assert cfg.params.radius == 5.0
        assert cfg.n_max == 2 and cfg.m_max == 2
        assert cfg.mode.value == "exact"
        assert cfg.output_format == "csv"

    def test_defaults_reproduce_reference_convention(self):
        cfg = parse_config(["bound-states"])
        assert cfg.params.mass == 0.5
        assert cfg.params.hbar == 1.0

    def test_negative_nu_is_usage_error(self):
        with pytest.raises(SystemExit) as exc:
            parse_config(["bessel-zero", "--nu", "-1", "--m", "0"])
        assert exc.value.code == 2

    def test_missing_required_option(self):
        with pytest.raises(SystemExit) as exc:
            parse_config(["bessel-zero", "--nu", "1"])
        assert exc.value.code == 2

    def test_invalid_params_are_usage_errors(self):
        with pytest.raises(SystemExit) as exc:
            parse_config(["bound-states", "--mass", "-1"])
        assert exc.value.code == 2

    def test_config_file_supplies_values(self, tmp_path: Path):
        cfg_file = tmp_path / "run.json"
        cfg_file.write_text(json.dumps({"radius": 5, "n-max": 1, "m-max": 1}))
        cfg = parse_config(["spectrum", "--config", str(cfg_file)])
        assert cfg.params.radius == 5.0
        assert cfg.n_max == 1

    def test_flags_override_config_file(self, tmp_path: Path):
        cfg_file = tmp_path / "run.json"
        cfg_file.write_text(json.dumps({"radius": 5, "n-max": 1, "m-max": 1}))
        cfg = parse_config(["spectrum", "--config", str(cfg_file), "--radius", "7"])
        assert cfg.params.radius == 7.0

    def test_unknown_config_key_rejected(self, tmp_path: Path):
        cfg_file = tmp_path / "run.json"
        cfg_file.write_text(json.dumps({"radius": 5, "wavelength": 3}))
        with pytest.raises(SystemExit) as exc:
            parse_config(["bound-states", "--config", str(cfg_file)])
        assert exc.value.code == 2

    def test_malformed_config_rejected(self, tmp_path: Path):
        cfg_file = tmp_path / "run.json"
        cfg_file.write_text("{not json")
        with pytest.raises(SystemExit) as exc:
            parse_config(["bound-states", "--config", str(cfg_file)])
        assert exc.value.code == 2

    def test_missing_config_file_rejected(self, tmp_path: Path):
        with pytest.raises(SystemExit) as exc:
            parse_config(["bound-states", "--config", str(tmp_path / "absent.json")])
        assert exc.value.code == 2

    def test_config_can_set_output_format(self, tmp_path: Path):
        cfg_file = tmp_path / "run.json"
        cfg_file.write_text(json.dumps({"output": "json", "z0": 2}))
        cfg = parse_config(["bound-states", "--config", str(cfg_file)])
        assert cfg.output_format == "json"
        assert cfg.params.half_separation == 2.0

    def test_command_foreign_key_rejected(self, tmp_path: Path):
        cfg_file = tmp_path / "run.json"
        cfg_file.write_text(json.dumps({"n-max": 2}))
        with pytest.raises(SystemExit) as exc:
            parse_config(["bessel-zero", "--config", str(cfg_file), "--nu", "1", "--m", "0"])
        assert exc.value.code == 2

    def test_reference_pair_must_be_complete(self):
        with pytest.raises(SystemExit) as exc:
            parse_config([*SPECTRUM_ARGS, "--ref-n", "0"])
        assert exc.value.code == 2

    @pytest.mark.parametrize(
        "command, values, key",
        [("bessel-zero", {"m": True, "nu": 1}, "m"), ("bound-states", {"radius": True}, "radius")],
    )
    def test_config_booleans_are_not_numbers(self, tmp_path: Path, capsys, command, values, key):
        cfg_file = tmp_path / "run.json"
        cfg_file.write_text(json.dumps(values))
        with pytest.raises(SystemExit) as exc:
            parse_config([command, "--config", str(cfg_file)])
        assert exc.value.code == 2
        assert f"{key} must be a number" in capsys.readouterr().err


class TestExitStatuses:
    def test_success(self):
        proc = run_cli("bound-states")
        assert proc.returncode == 0

    def test_usage_error_is_2(self):
        proc = run_cli("bessel-zero", "--nu", "-1", "--m", "0")
        assert proc.returncode == 2
        assert "nu must be >= 0" in proc.stderr

    def test_computational_error_is_1(self):
        proc = run_cli("critical-radius", "--n", "0", "--m", "0", "--level", "excited", "--z0", "0.9")
        assert proc.returncode == 1
        assert "excited state does not exist" in proc.stderr

    def test_unknown_command_is_2(self):
        proc = run_cli("frobnicate")
        assert proc.returncode == 2

    def test_compare_approx_grid_is_bounded(self, capsys):
        # 6e300 orders would otherwise run without end
        assert main(["compare-approx", "--nu-step", "1e-300", "--m-max", "0"]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "nu_step" in err

    def test_spectrum_requires_m_max(self):
        proc = run_cli("spectrum", "--n-max", "1")
        assert proc.returncode == 2
        assert "--m-max is required for spectrum" in proc.stderr

    @pytest.mark.parametrize(
        "args",
        [
            ["bound-states", "--coupling", "1e-300"],
            ["spectrum", "--radius", "1e-200", "--n-max", "1", "--m-max", "1"],
            # the radius itself, ~2.4e310, overflows
            ["critical-radius", "--coupling", "1e-310", "--n", "0", "--m", "0"],
        ],
        ids=lambda a: a[0],
    )
    def test_arithmetic_failure_is_1_without_traceback(self, args):
        proc = run_cli(*args)
        assert proc.returncode == 1
        assert "error:" in proc.stderr
        assert "Traceback" not in proc.stderr

    @pytest.mark.parametrize(
        "args, quantity",
        [
            pytest.param(["bound-states", "--coupling", "1e160"], "ground level energy", id="bound-states"),
            pytest.param(
                ["spectrum", "--coupling", "1e160", "--n-max", "0", "--m-max", "0"],
                "ground level energy",
                id="spectrum",
            ),
            # c itself overflows; the level energy is not needed for the radius
            pytest.param(
                ["critical-radius", "--n", "0", "--m", "0", "--coupling", "1e300", "--mass", "1e10"],
                "well strength z0 * mass * coupling / hbar^2",
                id="critical-radius",
            ),
            # these two once printed inf energies classed "zero", or divided by zero
            *(
                pytest.param(
                    ["spectrum", "--radius", radius, "--n-max", "0", "--m-max", "0"],
                    "radial energy",
                    id=f"spectrum-radius-{radius}",
                )
                for radius in ("1e-155", "1e-200")
            ),
        ],
    )
    def test_level_energy_overflow_is_1(self, capsys, args, quantity):
        # these once printed -inf or nan with exit 0
        assert main(args) == 1
        out, err = capsys.readouterr()
        assert out == ""
        assert err == f"error: the {quantity} is outside the double-precision range\n"

    def test_series_overflow_keeps_its_message(self, capsys):
        # math.lgamma(nu + 1) itself overflows here
        assert main(["eval-bessel", "--nu", "1e306", "--q", "2e80"]) == 1
        assert "series term exceeds the double-precision range" in capsys.readouterr().err


class TestBoundStatesCommand:
    def test_wells_closer_than_double_resolution(self, capsys):
        # z0 * z0 underflows to 0 here; the close-well limit is -M coupling^2 / hbar^2
        assert main(["bound-states", "--z0", "1e-320", "--output", "json"]) == 0
        ground = json.loads(capsys.readouterr().out)["ground"]
        assert ground["energy"] == -1.0 and ground["h_factor"] == 2.0

    def test_json_reports_missing_excited_as_null(self):
        proc = run_cli("bound-states", "--z0", "0.9", "--output", "json")
        assert proc.returncode == 0
        payload = json.loads(proc.stdout)
        assert payload["excited"] is None
        assert payload["ground"]["energy"] < 0

    def test_csv_has_two_rows_above_threshold(self):
        proc = run_cli("bound-states", "--z0", "2", "--output", "csv")
        rows = parse_csv(proc.stdout)
        assert [r["level"] for r in rows] == ["ground", "excited"]

    def test_excited_level_at_huge_coupling(self, capsys):
        assert main(["bound-states", "--coupling", "2e16"]) == 0
        rows = parse_csv(capsys.readouterr().out)
        assert [r["level"] for r in rows] == ["ground", "excited"]

    def test_csv_json_numeric_agreement(self):
        as_csv = parse_csv(run_cli("bound-states", "--z0", "2").stdout)
        as_json = json.loads(run_cli("bound-states", "--z0", "2", "--output", "json").stdout)
        for row in as_csv:
            ref = as_json[row["level"]]
            for key in ("energy", "xi", "h_factor"):
                assert float(row[key]) == ref[key]


class TestDeterminism:
    COMMANDS = [
        ["bound-states", "--z0", "2"],
        ["bessel-zero", "--nu", "1.5", "--m", "2"],
        [*SPECTRUM_ARGS],
        ["critical-radius", "--n", "1", "--m", "0", "--z0", "2"],
        ["compare-approx", "--nu-max", "2", "--m-max", "3"],
        ["eval-bessel", "--nu", "0.5", "--q", "3.0"],
    ]

    @pytest.mark.parametrize("args", COMMANDS, ids=lambda a: a[0])
    def test_byte_identical_reruns(self, args):
        first = run_cli(*args)
        second = run_cli(*args)
        assert first.returncode == 0
        assert first.stdout == second.stdout

    @pytest.mark.parametrize("args", COMMANDS, ids=lambda a: a[0])
    def test_csv_and_json_carry_identical_numbers(self, args):
        as_csv = run_cli(*args, "--output", "csv")
        as_json = run_cli(*args, "--output", "json")
        assert as_csv.returncode == 0 and as_json.returncode == 0
        csv_rows = parse_csv(as_csv.stdout)
        payload = json.loads(as_json.stdout)
        if args[0] == "bound-states":
            json_rows = [payload["ground"]] + ([payload["excited"]] if payload["excited"] else [])
        else:
            json_rows = payload["rows"]
        assert len(csv_rows) == len(json_rows)
        for crow, jrow in zip(csv_rows, json_rows):
            for key, jval in jrow.items():
                if isinstance(jval, float):
                    assert float(crow[key]) == jval
                else:
                    assert crow[key] == str(jval)


PHYSICS_ECHO = {"coupling": 1.0, "deficit": 1.0, "hbar": 1.0, "mass": 0.5, "radius": 5.0}


class TestShape:
    """CSV header and JSON config echo of each subcommand, pinned literally.

    Determinism tests compare two runs of one version; these pin the shape
    across versions. Energies and zeros are not pinned.
    """

    CASES = [
        (
            ["bound-states", "--z0", "2"],
            "level,energy,xi,h_factor",
            {"command": "bound-states", "z0": 2.0},
        ),
        (
            ["bessel-zero", "--nu", "1.5", "--m", "2"],
            "nu,m,mode,zero",
            {"command": "bessel-zero", "z0": 1.0, "nu": 1.5, "m": 2, "mode": "exact"},
        ),
        (
            ["spectrum", "--z0", "2", "--n-max", "1", "--m-max", "1"],
            "n,m,level,nu,radial_energy,z_energy,total_energy,classification,mode",
            {"command": "spectrum", "z0": 2.0, "n-max": 1, "m-max": 1, "mode": "exact"},
        ),
        (
            [
                "spectrum", "--z0", "2", "--n-max", "1", "--m-max", "1",
                "--ref-n", "0", "--ref-m", "1",
            ],
            "n,m,level,nu,radial_energy,z_energy,total_energy,classification,mode,reference_class",
            {
                "command": "spectrum", "z0": 2.0, "n-max": 1, "m-max": 1, "mode": "exact",
                "ref-n": 0, "ref-m": 1,
            },
        ),
        (
            ["critical-radius", "--n", "1", "--m", "0", "--z0", "2"],
            "n,m,level,h_factor,critical_radius",
            {"command": "critical-radius", "z0": 2.0, "n": 1, "m": 0, "level": "ground"},
        ),
        (
            ["compare-approx", "--nu-max", "1"],
            "nu,m,exact,mcmahon,rel_error",
            {"command": "compare-approx", "z0": 1.0, "nu-max": 1.0, "m-max": 10, "nu-step": 0.5},
        ),
        (
            ["eval-bessel", "--nu", "0.5", "--q", "3"],
            "nu,q,value,method,term_count",
            {"command": "eval-bessel", "z0": 1.0, "nu": 0.5, "q": 3.0},
        ),
    ]

    IDS = ["bound-states", "bessel-zero", "spectrum", "spectrum-ref", "critical-radius",
           "compare-approx", "eval-bessel"]

    @pytest.mark.parametrize("args, header, echo", CASES, ids=IDS)
    def test_header_and_config_echo(self, args, header, echo):
        as_csv = run_cli(*args)
        assert as_csv.returncode == 0
        assert as_csv.stdout.splitlines()[0] == header
        as_json = run_cli(*args, "--output", "json")
        assert as_json.returncode == 0
        config = json.loads(as_json.stdout)["config"]
        expected = {**PHYSICS_ECHO, "output": "json", **echo}
        assert config == expected
        # 1 == 1.0 in Python, so the int-versus-float split is compared separately.
        assert {k: type(v) for k, v in config.items()} == {k: type(v) for k, v in expected.items()}


class TestOutputs:
    def test_csv_header_and_lf_endings(self):
        proc = run_cli("compare-approx", "--nu-max", "1", "--m-max", "1")
        assert proc.stdout.splitlines()[0] == "nu,m,exact,mcmahon,rel_error"
        assert "\r" not in proc.stdout

    def test_out_file_written(self, tmp_path: Path):
        target = tmp_path / "table.csv"
        proc = run_cli(*SPECTRUM_ARGS, "--out", str(target))
        assert proc.returncode == 0
        assert proc.stdout == ""
        rows = parse_csv(target.read_text(encoding="utf-8"))
        assert len(rows) == 18  # 3 * 3 * 2 levels

    def test_spectrum_rows_echo_mode(self):
        rows = parse_csv(run_cli(*SPECTRUM_ARGS, "--mode", "mcmahon").stdout)
        assert all(r["mode"] == "mcmahon" for r in rows)

    def test_spectrum_reference_column(self):
        rows = parse_csv(run_cli(*SPECTRUM_ARGS, "--ref-n", "0", "--ref-m", "1").stdout)
        assert "reference_class" in rows[0]
        lookup = {(r["n"], r["m"], r["level"]): r["reference_class"] for r in rows}
        assert lookup[("2", "0", "ground")] == "zero"
        assert lookup[("0", "0", "ground")] == "bound"

    def test_eval_bessel_reports_method(self):
        rows = parse_csv(run_cli("eval-bessel", "--nu", "0.5", "--q", "30").stdout)
        assert rows[0]["method"] == "asymptotic"
        assert rows[0]["term_count"] == "0"

    def test_eval_bessel_between_series_and_expansion(self, capsys):
        # a point where neither the series nor the expansion at order nu is
        # sharp; the value once printed was -0.7936
        assert main(["eval-bessel", "--nu", "27.799853473846728", "--q", "52.66620623192793"]) == 0
        row = parse_csv(capsys.readouterr().out)[0]
        assert float(row["value"]) == pytest.approx(-0.1192484345730, abs=1e-10)

    def test_compare_approx_errors_match_table_contract(self):
        rows = parse_csv(run_cli("compare-approx", "--nu-max", "1", "--m-max", "2").stdout)
        for row in rows:
            expected = abs(float(row["mcmahon"]) - float(row["exact"])) / float(row["exact"])
            assert float(row["rel_error"]) == pytest.approx(expected, rel=1e-12)

    def test_json_top_level_shape(self):
        payload = json.loads(run_cli(*SPECTRUM_ARGS, "--output", "json").stdout)
        assert set(payload) == {"config", "rows"}
        assert payload["config"]["command"] == "spectrum"

    @pytest.mark.parametrize(
        "coupling, h_factor, radius",
        [("1e-200", 2.0, 2.356194490192345e200), ("1e300", 0.5, 4.71238898038469e-300)],
    )
    def test_critical_radius_needs_no_level_energy(self, capsys, coupling, h_factor, radius):
        # the level energy under- or overflows here, but R = pi (3/4) z0 / xi does not
        assert main(["critical-radius", "--n", "0", "--m", "0", "--coupling", coupling]) == 0
        (row,) = parse_csv(capsys.readouterr().out)
        assert float(row["h_factor"]) == h_factor
        assert float(row["critical_radius"]) == pytest.approx(radius, rel=1e-15)

    def test_zero_index_at_high_order(self, capsys):
        # the walk once bracketed a spurious zero at x = nu here and printed 74.00000000000009
        assert main(["bessel-zero", "--nu", "74", "--m", "0"]) == 0
        (row,) = parse_csv(capsys.readouterr().out)
        assert float(row["zero"]) == pytest.approx(82.03705683987047, abs=1e-9)

    def test_critical_radius_roundtrips_through_spectrum(self):
        crit = parse_csv(
            run_cli("critical-radius", "--n", "0", "--m", "0", "--z0", "2").stdout
        )[0]
        rows = parse_csv(
            run_cli(
                "spectrum", "--z0", "2", "--radius", crit["critical_radius"],
                "--n-max", "0", "--m-max", "0", "--mode", "mcmahon",
            ).stdout
        )
        ground = [r for r in rows if r["level"] == "ground"][0]
        assert ground["classification"] == "zero"
