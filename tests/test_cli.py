"""Command-line interface: exit codes, determinism, serialization."""

import csv
import json
import math
import os
import re
from pathlib import Path

import numpy as np
import pytest

from dicke_therm import dynamics
from dicke_therm.cli import build_parser, main
from dicke_therm.sweep import (
    REPORT_HEADER,
    SWEEP_HEADER,
    SweepConfig,
    format_number,
    render_json,
    x_grid,
)
from helpers import read_fifo, read_sweep_csv, spy_open


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestPoint:
    def test_cold_coupled_pair(self, capsys):
        code, out, _ = run(capsys, "point", "--n", "2", "--eta", "0.1", "--x", "10")
        assert code == 0
        doc = json.loads(out)
        assert doc["N"] == 2
        assert doc["g2"] == pytest.approx(0.302018092984664, rel=1e-9)
        assert doc["classification"] == "SubPoissonian"
        pred = doc["asymptotic_predictions"]
        assert pred["eq15"]["strong_bath"] == pytest.approx(0.75)
        assert pred["eq17"] == pytest.approx(0.302003335142089, rel=1e-9)
        assert pred["eq19_threshold"] == pytest.approx(0.2 * 0.5 * math.log(2), rel=1e-12)

    def test_uncoupled_pair(self, capsys):
        code, out, _ = run(capsys, "point", "--n", "2", "--eta", "0", "--x", "1")
        assert code == 0
        assert json.loads(out)["g2"] == pytest.approx(0.803388066758518, rel=1e-9)

    def test_single_atom_predictions_are_null(self, capsys):
        code, out, _ = run(capsys, "point", "--n", "1", "--eta", "0", "--x", "1")
        assert code == 0
        doc = json.loads(out)
        assert doc["g2"] == 0.0
        assert doc["asymptotic_predictions"]["eq16"] is None
        assert doc["asymptotic_predictions"]["eq17"] is None

    def test_validation_failure_exits_2(self, capsys):
        code, _, err = run(capsys, "point", "--n", "1", "--eta", "0.1", "--x", "1")
        assert code == 2
        assert "SingleAtomWithCoupling" in err

    def test_unparsable_flags_exit_2(self, capsys):
        assert run(capsys, "point", "--n", "two", "--x", "1")[0] == 2

    def test_out_file(self, capsys, tmp_path):
        target = tmp_path / "pt.json"
        code, _, _ = run(capsys, "point", "--n", "3", "--x", "2", "--out", str(target))
        assert code == 0
        assert json.loads(target.read_text())["N"] == 3

    def test_out_fifo_gets_the_stdout_json(self, capsys, tmp_path):
        argv = ["point", "--n", "2", "--eta", "0.1", "--x", "10"]
        code, printed, _ = run(capsys, *argv)
        assert code == 0
        fifo = tmp_path / "pt.json"
        code, got = read_fifo(fifo, lambda: main([*argv, "--out", str(fifo)]))
        assert code == 0
        assert got.decode("ascii") == printed
        assert capsys.readouterr() == ("", "")

    @pytest.mark.skipif(not os.path.exists("/dev/full"), reason="no /dev/full")
    def test_out_full_device_exits_2_naming_the_write_error(self, capsys):
        code, out, err = run(capsys, "point", "--n", "2", "--x", "1", "--out", "/dev/full")
        assert (code, out) == (2, "")
        assert err == "OSError: [Errno 28] No space left on device\n"

    def test_cold_bath_prediction_overflows_to_inf(self, capsys):
        code, out, _ = run(capsys, "point", "--n", "2", "--eta", "-0.3", "--x", "2000")
        assert code == 0
        assert json.loads(out)["asymptotic_predictions"]["eq17"] == "inf"

    def test_underflow_point_reports_reason(self, capsys):
        code, out, _ = run(capsys, "point", "--n", "2", "--eta", "0", "--x", "2000")
        assert code == 0
        doc = json.loads(out)
        assert doc["g2"] is None
        assert doc["reason"] == "ZeroIntensity"


class TestRefusedBeforeWork:
    @pytest.mark.parametrize(
        "n, eta", [("11", "-0.8333333333333333"), ("4", "0.9999999999999999")]
    )
    def test_rounded_end_frequency_exits_2(self, capsys, n, eta):
        # eta inside the window, but omega_N (resp. omega_0) rounds to 0
        for command in ("point", "evolve"):
            argv = [command, "--n", n, f"--eta={eta}", "--x", "1"]
            if command == "evolve":
                argv += ["--t-end", "1", "--step", "0.001"]
            code, out, err = run(capsys, *argv)
            assert code == 2
            assert "EtaOutOfRange" in err
            assert out == ""

    @pytest.mark.parametrize("command", ["point", "sweep", "validate", "evolve", "figures"])
    def test_negative_precision_exits_2(self, capsys, tmp_path, command):
        # and a precision past printf's C int, 2**31 and above
        argv = {
            "point": ["--n", "2", "--x", "1"],
            "sweep": ["--n", "2", "--eta", "0", "--x-start", "1", "--x-stop", "2",
                      "--x-count", "2", "--out", str(tmp_path / "out")],
            "validate": ["--out", str(tmp_path / "out")],
            "evolve": ["--n", "2", "--x", "1", "--t-end", "1", "--out", str(tmp_path / "out")],
            "figures": ["--out-dir", str(tmp_path / "out")],
        }[command]
        for precision in ("-1", "2147483648", "99999999999"):
            code, out, err = run(capsys, command, *argv, "--precision", precision)
            assert code == 2, precision
            assert "--precision" in err
            assert out == ""
            assert list(tmp_path.iterdir()) == []


class TestHugePrecision:
    def test_the_largest_precision_runs_under_a_2_gb_address_space(self):
        # a float prints at most 767 significant digits, so a precision of
        # 2**31 - 1 reserves no buffer of that size: a fresh interpreter
        # limited to 2 GB prints --precision 767's bytes
        import subprocess
        import sys

        root = Path(__file__).resolve().parents[1]
        script = (
            "import resource, sys\n"
            "resource.setrlimit(resource.RLIMIT_AS, (2 << 30, 2 << 30))\n"
            "from dicke_therm.cli import main\n"
            "sys.exit(main(sys.argv[1:]))\n"
        )
        env = dict(os.environ, PYTHONPATH=str(root / "src"))

        def point(precision):
            return subprocess.run(
                [sys.executable, "-c", script, "point", "--n", "2", "--x", "1",
                 "--precision", precision],
                capture_output=True, env=env,
            )

        huge, want = point("2147483647"), point("767")
        assert (huge.returncode, huge.stderr) == (0, b"")
        assert want.returncode == 0
        assert huge.stdout == want.stdout


class TestSweep:
    def sweep_args(self, out, extra=()):
        return (
            "sweep", "--n", "2,3", "--eta", "0,0.1",
            "--x-start", "0.5", "--x-stop", "10", "--x-count", "4",
            "--out", str(out), *extra,
        )

    def test_deterministic_and_parallel_equivalent(self, capsys, tmp_path):
        a, b, c = tmp_path / "a.csv", tmp_path / "b.csv", tmp_path / "c.csv"
        assert run(capsys, *self.sweep_args(a))[0] == 0
        assert run(capsys, *self.sweep_args(b))[0] == 0
        assert run(capsys, *self.sweep_args(c, ("--jobs", "2")))[0] == 0
        assert a.read_bytes() == b.read_bytes() == c.read_bytes()

    def test_header_and_row_order(self, capsys, tmp_path):
        out = tmp_path / "s.csv"
        run(capsys, *self.sweep_args(out))
        lines = out.read_text().splitlines()
        assert lines[0] == ",".join(SWEEP_HEADER)
        rows = read_sweep_csv(out)
        assert len(rows) == 2 * 2 * 4
        keys = [(r["N"], r["eta"], r["x"]) for r in rows]
        assert keys == sorted(keys)

    def test_round_trip(self, capsys, tmp_path):
        out = tmp_path / "s.csv"
        run(capsys, *self.sweep_args(out))
        rows = read_sweep_csv(out)
        lines = [",".join(SWEEP_HEADER)]
        for r in rows:
            cells = [str(r["N"])] + [
                format_number(r[k], 12) if r[k] is not None else "" for k in SWEEP_HEADER[1:7]
            ] + [r["reason"]]
            lines.append(",".join(cells))
        assert "\n".join(lines) + "\n" == out.read_text()

    def test_outputs_subset_leaves_other_columns_empty(self, capsys, tmp_path):
        out = tmp_path / "s.csv"
        code, _, _ = run(capsys, *self.sweep_args(out, ("--outputs", "g2")))
        assert code == 0
        for row in read_sweep_csv(out):
            assert row["g1"] is None and row["ratio"] is None
            assert row["classification"] is None
            assert row["g2"] is not None

    def test_underflow_rows_carry_na_and_reason(self, capsys, tmp_path):
        out = tmp_path / "na.csv"
        code, _, _ = run(
            capsys, "sweep", "--n", "2", "--eta", "0.1",
            "--x-start", "1500", "--x-stop", "1500", "--x-count", "1",
            "--out", str(out),
        )
        assert code == 0
        row = read_sweep_csv(out)[0]
        assert row["g2"] == "NA" and row["ratio"] == "NA"
        assert row["reason"] == "ZeroIntensity"

    def test_invalid_pair_exits_2(self, capsys, tmp_path):
        code, _, err = run(
            capsys, "sweep", "--n", "1,2", "--eta", "0.1",
            "--x-start", "1", "--x-stop", "2", "--x-count", "2",
            "--out", str(tmp_path / "x.csv"),
        )
        assert code == 2
        assert "SingleAtomWithCoupling" in err

    def test_unknown_output_exits_2(self, capsys, tmp_path):
        code, _, err = run(capsys, *self.sweep_args(tmp_path / "x.csv", ("--outputs", "g9")))
        assert code == 2

    def test_empty_output_list_exits_2(self, capsys, tmp_path):
        out_dir = tmp_path / "out"
        out_dir.mkdir()
        code, out, err = run(capsys, *self.sweep_args(out_dir / "x.csv", ("--outputs", ",")))
        assert code == 2
        assert "ValueError" in err and "outputs" in err
        assert out == ""
        assert list(out_dir.iterdir()) == []

    def test_repeated_output_exits_2(self, capsys, tmp_path):
        out = tmp_path / "x.csv"
        code, text, err = run(capsys, *self.sweep_args(out, ("--outputs", "g2,ratio,g2")))
        assert code == 2
        assert "ValueError" in err and "outputs axis repeats ['g2']" in err
        assert text == ""
        assert list(tmp_path.iterdir()) == []

    def test_one_point_grid_with_unequal_ends_exits_2(self, capsys, tmp_path):
        out = tmp_path / "x.csv"
        code, text, err = run(capsys, "sweep", "--n", "2", "--eta", "0.1", "--x-start", "1",
                              "--x-stop", "5", "--x-count", "1", "--out", str(out))
        assert code == 2
        assert "ValueError" in err and "one x point needs start == stop" in err
        assert text == ""
        assert list(tmp_path.iterdir()) == []

    def test_parallel_equivalent_where_cold_rows_are_cut(self, capsys, tmp_path):
        # at N = 1e4 and 3e4 the cold rows exponentiate a short live prefix
        # and rows of different widths share no block
        files = [tmp_path / "j1.csv", tmp_path / "j2.csv"]
        for path, jobs in zip(files, ("1", "2")):
            code, _, _ = run(
                capsys, "sweep", "--n", "10000,30000", "--eta=-0.1,0,0.1",
                "--x-start", "1e-3", "--x-stop", "1e3", "--x-count", "10",
                "--x-scale", "log", "--out", str(path), "--jobs", jobs,
            )
            assert code == 0
        assert files[0].read_bytes() == files[1].read_bytes()

    def test_sidecar_written(self, capsys, tmp_path):
        out = tmp_path / "s.csv"
        run(capsys, *self.sweep_args(out))
        meta = json.loads((tmp_path / "s.csv.meta.json").read_text())
        assert meta["command"] == "sweep"
        assert meta["config"]["n_values"] == [2, 3]

    @pytest.mark.parametrize("jobs", ["0", "-3"])
    def test_nonpositive_jobs_exit_2(self, capsys, tmp_path, jobs):
        out = tmp_path / "j.csv"
        code, _, err = run(capsys, *self.sweep_args(out, ("--jobs", jobs)))
        assert code == 2
        assert "ValueError" in err
        assert not out.exists()

    def test_jobs_env_var_is_ignored(self, capsys, tmp_path, monkeypatch):
        # --jobs is the one source of the worker count; the retired
        # DICKE_THERM_JOBS is not read, even when malformed
        ref = tmp_path / "ref.csv"
        assert run(capsys, *self.sweep_args(ref))[0] == 0
        out = tmp_path / "env.csv"
        monkeypatch.setenv("DICKE_THERM_JOBS", "abc")
        assert run(capsys, *self.sweep_args(out)) == (0, f"wrote 16 rows to {out}\n", "")
        assert out.read_bytes() == ref.read_bytes()

    def test_infinite_x_stop_exits_2(self, capsys, tmp_path):
        out = tmp_path / "inf.csv"
        code, _, err = run(
            capsys, "sweep", "--n", "2", "--eta", "0",
            "--x-start", "1", "--x-stop", "inf", "--x-count", "3",
            "--outputs", "ratio", "--out", str(out),
        )
        assert code == 2
        assert "NonPositiveX" in err
        assert not out.exists()

    @pytest.mark.parametrize("n, eta, x_stop", [("2,3,2", "0", "10"), ("2", "0,0.1,0.1", "10"),
                                                ("2", "0", "1")])
    def test_repeated_axis_value_exits_2(self, capsys, tmp_path, n, eta, x_stop):
        out = tmp_path / "rep.csv"
        code, _, err = run(capsys, "sweep", "--n", n, "--eta", eta, "--x-start", "1",
                           "--x-stop", x_stop, "--x-count", "3", "--out", str(out))
        assert code == 2
        assert "ValueError" in err and "repeats" in err
        assert not out.exists()

    def test_log_grid(self):
        cfg = SweepConfig((2,), (0.0,), 0.01, 100.0, 5, "log", ("g2",))
        assert x_grid(cfg) == pytest.approx([0.01, 0.1, 1.0, 10.0, 100.0], rel=1e-12)
        assert len(x_grid(cfg)) == 5


class TestConfigFile:
    def test_config_supplies_flags(self, capsys, tmp_path):
        cfg = tmp_path / "point.cfg"
        cfg.write_text("# single point\nn = 2\neta = 0.1\nx = 10\n")
        code, out, _ = run(capsys, "point", "--config", str(cfg))
        assert code == 0
        assert json.loads(out)["g2"] == pytest.approx(0.302018092984664, rel=1e-9)

    def test_flags_override_config(self, capsys, tmp_path):
        cfg = tmp_path / "point.cfg"
        cfg.write_text("n = 2\neta = 0.1\nx = 10\n")
        code, out, _ = run(capsys, "point", "--config", str(cfg), "--x", "1")
        assert code == 0
        assert json.loads(out)["x"] == 1.0

    def test_equals_form_is_read(self, capsys, tmp_path):
        cfg = tmp_path / "e.cfg"
        cfg.write_text("eta = 0.1\n")
        code, out, _ = run(capsys, "point", "--n", "2", "--x", "10", f"--config={cfg}")
        assert code == 0
        assert json.loads(out)["eta"] == 0.1

    @pytest.mark.parametrize("flag", ["--c", "--conf", "--confi"])
    @pytest.mark.parametrize("equals", [False, True])
    def test_abbreviated_flag_is_read(self, capsys, tmp_path, flag, equals):
        # argparse takes any unique prefix of --config as --config
        cfg = tmp_path / "e.cfg"
        cfg.write_text("eta = 0.1\n")
        args = [f"{flag}={cfg}"] if equals else [flag, str(cfg)]
        code, out, _ = run(capsys, "point", "--n", "2", "--x", "10", *args)
        assert code == 0
        assert json.loads(out)["eta"] == 0.1

    def test_missing_config_exits_2(self, capsys, tmp_path):
        code, _, err = run(capsys, "point", "--config", str(tmp_path / "nope.cfg"))
        assert code == 2

    def test_malformed_config_exits_2(self, capsys, tmp_path):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("just some words\n")
        assert run(capsys, "point", "--config", str(cfg))[0] == 2

    def test_second_config_exits_2(self, capsys, tmp_path):
        (tmp_path / "a.cfg").write_text("x = 10\n")
        (tmp_path / "b.cfg").write_text("eta = 0.1\n")
        code, out, err = run(capsys, "point", "--n", "2", "--config", str(tmp_path / "a.cfg"),
                             "--config", str(tmp_path / "b.cfg"))
        assert code == 2
        assert err.startswith("ValueError: ")
        assert out == ""

    @pytest.mark.parametrize("line", ["config = {b}", "conf = {b}", "help = 1", "h = 1"])
    def test_config_or_help_key_exits_2(self, capsys, tmp_path, line):
        # a nested file is never read, and help would compute nothing
        (tmp_path / "b.cfg").write_text("eta = 0.1\n")
        cfg = tmp_path / "a.cfg"
        cfg.write_text("x = 10\n" + line.format(b=tmp_path / "b.cfg") + "\n")
        code, out, err = run(capsys, "point", "--n", "2", "--config", str(cfg))
        assert code == 2
        assert err.startswith("ValueError: ")
        assert out == ""

    def test_config_without_path_exits_2(self, capsys):
        code, out, err = run(capsys, "point", "--n", "2", "--x", "10", "--config")
        assert code == 2
        assert err.startswith("ValueError: ")
        assert out == ""

    def test_empty_config_path_exits_2(self, capsys):
        code, out, err = run(capsys, "point", "--n", "2", "--x", "10", "--config=")
        assert code == 2
        assert "Traceback" not in err
        assert out == ""

    @pytest.mark.parametrize("empty", [["--config="], ["--config", ""]])
    def test_empty_config_path_names_the_flag(self, capsys, empty):
        code, out, err = run(capsys, "point", "--n", "2", "--x", "10", *empty)
        assert (code, out) == (2, "")
        assert err == "ValueError: --config requires a file path, got ''\n"

    def test_config_before_the_subcommand(self, capsys, tmp_path):
        cfg = tmp_path / "point.cfg"
        cfg.write_text("n = 2\neta = 0.1\nx = 10\n")
        code, out, _ = run(capsys, "--config", str(cfg), "point")
        assert code == 0
        assert json.loads(out)["g2"] == pytest.approx(0.302018092984664, rel=1e-9)

    def test_negative_value(self, capsys, tmp_path):
        cfg = tmp_path / "neg.cfg"
        cfg.write_text("eta = -0.1\n")
        code, out, _ = run(capsys, "point", "--n", "2", "--x", "10", "--config", str(cfg))
        assert code == 0
        assert json.loads(out)["eta"] == -0.1

    def test_top_level_help_documents_config(self, capsys):
        # no subcommand declares --config, so the subcommands' -h omit it
        code, out, _ = run(capsys, "-h")
        assert code == 0
        assert "--config FILE" in out

    def test_config_without_a_subcommand_exits_2(self, capsys, tmp_path):
        cfg = tmp_path / "point.cfg"
        cfg.write_text("n = 2\nx = 10\n")
        code, out, err = run(capsys, "--config", str(cfg))
        assert (code, out) == (2, "")
        assert err == "ValueError: --config requires a subcommand\n"

    def test_key_given_twice_takes_the_last_value(self, capsys, tmp_path):
        cfg = tmp_path / "twice.cfg"
        cfg.write_text("eta = 0.1\neta = 0.2\n")
        code, out, _ = run(capsys, "point", "--n", "2", "--x", "10", "--config", str(cfg))
        assert code == 0
        assert json.loads(out)["eta"] == 0.2


class TestValidate:
    @pytest.mark.parametrize("flag, values", [
        ("--n", "2,2"), ("--eta", "0.1,0.1"), ("--x", "10,15,10"),
    ])
    def test_repeated_axis_value_exits_2(self, capsys, tmp_path, flag, values):
        out = tmp_path / "rep.csv"
        code, _, err = run(capsys, "validate", flag, values, "--out", str(out))
        assert code == 2
        assert "ValueError" in err and "repeats" in err
        assert not out.exists()

    def test_default_grid_passes(self, capsys, tmp_path):
        out = tmp_path / "report.csv"
        code, text, _ = run(capsys, "validate", "--out", str(out))
        assert code == 0
        assert "overall: PASS" in text
        with open(out, newline="", encoding="ascii") as fh:
            reader = csv.DictReader(fh)
            rows = list(reader)
        assert tuple(reader.fieldnames) == REPORT_HEADER
        info = [r for r in rows if r["formula"] == "eq20" and int(r["N"]) == 2]
        assert info and info[0]["status"] == "info"
        assert float(info[0]["exact"]) == pytest.approx(1.06010, abs=1e-4)
        assert float(info[0]["approx"]) == pytest.approx(1.74949, abs=1e-4)
        assert all(r["status"] in ("ok", "info", "skipped") for r in rows)

    def test_single_point_grid(self, capsys, tmp_path):
        out = tmp_path / "report.csv"
        code, text, _ = run(
            capsys, "validate", "--n", "2", "--eta", "0.1", "--x", "10", "--out", str(out)
        )
        assert code == 0
        assert "eq17" in out.read_text()

    def test_grid_outside_every_window_exits_2(self, capsys, tmp_path):
        out = tmp_path / "v.csv"
        code, text, err = run(capsys, "validate", "--n", "2", "--eta", "0.1", "--x", "1",
                              "--out", str(out))
        assert code == 2
        assert err.startswith("ValueError: no grid point lies in a validity window: "
                              "x <= 0.001, or N >= 2 with x >= 30 at eta = 0 or x >= 10 at "
                              "0 < |eta| <= 0.2")
        assert text == ""
        assert not out.exists() and not (tmp_path / "v.csv.meta.json").exists()

    def test_formula_with_every_row_skipped_is_not_a_pass(self, capsys, tmp_path):
        # x = 1e-6 gives compared strong-bath rows; every x = 2000 row skips
        code, text, _ = run(capsys, "validate", "--n", "2", "--eta", "0,0.1", "--x",
                            "1e-6,2000", "--out", str(tmp_path / "v.csv"))
        assert code == 0
        status = {line.split()[0]: line.split()[-1] for line in text.splitlines()[1:7]}
        assert status == {"eq15_strong": "PASS", "eq15_weak": "SKIPPED", "eq16_coeff": "PASS",
                          "eq17": "SKIPPED", "eq18_ratio": "SKIPPED", "eq20": "INFO"}
        assert "3 comparisons skipped" in text

    def test_grid_whose_every_row_skips_exits_2(self, capsys, tmp_path):
        out = tmp_path / "v.csv"
        code, text, err = run(capsys, "validate", "--n", "2", "--eta", "0.1", "--x", "2000",
                              "--out", str(out))
        assert code == 2
        assert err == ("ValueError: no comparison was made: every row in a validity window "
                       "was skipped, the exact intensity underflowing at double precision; "
                       "nothing to compare\n")
        assert text == ""
        assert not out.exists() and not (tmp_path / "v.csv.meta.json").exists()

    def test_invalid_grid_exits_2(self, capsys, tmp_path):
        code, _, err = run(
            capsys, "validate", "--n", "1", "--eta", "0.1", "--x", "10",
            "--out", str(tmp_path / "r.csv"),
        )
        assert code == 2

    def test_empty_x_list_exits_2(self, capsys, tmp_path):
        code, _, _ = run(
            capsys, "validate", "--x", ",", "--out", str(tmp_path / "r.csv")
        )
        assert code == 2

    @pytest.mark.parametrize("eta, x", [("-0.1", "4000"), ("0.1", "745.25"),
                                        ("0.1", "741.25"), ("-0.2", "618.25")])
    def test_cold_bath_grid_passes(self, capsys, tmp_path, eta, x):
        # x = 10 adds compared rows: a grid whose every row skips is refused
        out = tmp_path / "report.csv"
        code, _, err = run(capsys, "validate", "--n", "2", f"--eta={eta}", "--x", f"10,{x}",
                              "--out", str(out))
        assert code == 0, err
        with out.open(newline="") as fh:
            rows = [r for r in csv.DictReader(fh) if float(r["x"]) == float(x)]
        assert [r["formula"] for r in rows] == ["eq17", "eq18_ratio"]
        assert all(r["status"] in ("ok", "skipped") for r in rows)

    def test_tight_tolerance_not_configurable_via_cli(self, capsys, tmp_path):
        # tolerances are fixed contract values; the CLI only reports them
        out = tmp_path / "report.csv"
        _, text, _ = run(capsys, "validate", "--n", "2", "--eta", "0.1", "--x", "10",
                         "--out", str(out))
        assert "0.01" in text

    def test_tolerance_failure_exits_3(self, capsys, tmp_path, monkeypatch):
        # no admissible grid point violates the shipped tolerances, so pin
        # one impossibly tight to prove the failure path and exit code
        from dicke_therm.asymptotics import DEFAULT_TOLERANCES

        monkeypatch.setitem(DEFAULT_TOLERANCES, "eq17", 1e-12)
        out = tmp_path / "report.csv"
        code, text, _ = run(capsys, "validate", "--n", "2", "--eta", "0.1", "--x", "10",
                            "--out", str(out))
        assert code == 3
        assert "overall: FAIL" in text
        assert "fail" in out.read_text()


class TestEvolve:
    def test_trajectory_csv(self, capsys, tmp_path):
        out = tmp_path / "traj.csv"
        code, text, _ = run(
            capsys, "evolve", "--n", "2", "--eta", "0.1", "--x", "10",
            "--init", "gibbs", "--t-end", "5", "--samples", "6",
            "--step", "0.01", "--out", str(out),
        )
        assert code == 0
        assert "final trace_dist_to_gibbs" in text
        lines = out.read_text().splitlines()
        assert lines[0] == "t,trace,herm_defect,min_eig,trace_dist_to_gibbs,p_0,p_1,p_2"
        assert len(lines) == 7
        final = lines[-1].split(",")
        assert float(final[4]) <= 1e-10
        # plain rectangular CSV: stdlib reader round-trips it
        import csv

        with open(out, newline="") as fh:
            parsed = list(csv.DictReader(fh))
        assert len(parsed) == 6
        assert float(parsed[-1]["trace"]) == pytest.approx(1.0, abs=1e-12)
        assert sum(float(parsed[0][f"p_{k}"]) for k in range(3)) == pytest.approx(1.0)

    def test_stdout_mode_puts_summary_on_stderr(self, capsys):
        code, out, err = run(
            capsys, "evolve", "--n", "1", "--x", "1", "--init", "ground",
            "--t-end", "1", "--samples", "3", "--step", "0.01",
        )
        assert code == 0
        assert out.startswith("t,trace,")
        assert "final trace_dist_to_gibbs" in err

    def test_atom_cap_exits_2(self, capsys):
        code, _, err = run(
            capsys, "evolve", "--n", "300", "--x", "1", "--t-end", "1"
        )
        assert code == 2
        assert "ValueError" in err

    def test_one_sample_exits_2(self, capsys):
        code, out, err = run(capsys, "evolve", "--n", "2", "--x", "1", "--t-end", "1",
                             "--samples", "1")
        assert (code, out) == (2, "")
        assert err == "ValueError: need at least 2 samples, got 1\n"

    def test_infinite_t_end_exits_2(self, capsys):
        code, out, err = run(capsys, "evolve", "--n", "2", "--x", "1", "--t-end", "inf")
        assert code == 2
        assert "ValueError" in err and "t_end" in err
        assert out == ""

    def test_infinite_step_exits_2(self, capsys, tmp_path):
        out = tmp_path / "t.csv"
        code, _, err = run(
            capsys, "evolve", "--n", "2", "--x", "1", "--t-end", "1",
            "--step", "inf", "--out", str(out),
        )
        assert code == 2
        assert "ValueError" in err and "step" in err
        assert not out.exists()
        assert not (tmp_path / "t.csv.meta.json").exists()

    @pytest.mark.parametrize("argv", [
        ["--x", "1", "--t-end", "1e308", "--samples", "2", "--step", "0.001"],
        ["--eta", "0.1", "--x", "1", "--t-end", "1", "--step", "1e-320", "--samples", "3"],
    ])
    def test_step_count_beyond_the_float_range_exits_2(self, capsys, tmp_path, argv):
        out = tmp_path / "t.csv"
        code, _, err = run(capsys, "evolve", "--n", "2", *argv, "--out", str(out))
        assert code == 2
        assert err.startswith("ValueError: ") and "steps" in err
        assert not out.exists()
        assert not (tmp_path / "t.csv.meta.json").exists()

    @pytest.mark.parametrize("argv", [
        # max|A_0| * span overflows a float; no step is counted
        ["--x", "1", "--t-end", "1e308", "--samples", "2"],
        # a bath so hot that the default RK4 step was subnormal
        ["--x", "1e-306", "--t-end", "1", "--samples", "3"],
    ])
    def test_runs_without_a_step_end_at_the_gibbs_state(self, capsys, tmp_path, argv):
        out = tmp_path / "t.csv"
        code, text, err = run(capsys, "evolve", "--n", "2", *argv, "--out", str(out))
        assert (code, err) == (0, "")
        assert float(text.split()[-1]) <= 1e-15
        with open(out, newline="") as fh:
            final = list(csv.DictReader(fh))[-1]
        assert float(final["trace_dist_to_gibbs"]) <= 1e-15

    def test_drifting_exact_map_exits_4_without_a_step_hint(self, capsys, monkeypatch):
        interval_map = dynamics._interval_map
        monkeypatch.setattr(dynamics, "_interval_map",
                            lambda diagonals, span: interval_map(diagonals, span) * (1 + 1e-7))
        code, out, err = run(capsys, "evolve", "--n", "3", "--x", "1", "--t-end", "1",
                             "--samples", "3")
        assert (code, out) == (4, "")
        assert err == ("IntegrationError: trace drift 1.000e-07 over one sample interval of "
                       "0.5 exceeds 1.000e-08\n")

    def test_integrator_failure_exits_4(self, capsys, tmp_path):
        # two samples leave the span as five giant steps, at which RK4 is
        # unstable; the step guard refuses them before any step
        code, _, err = run(
            capsys, "evolve", "--n", "3", "--eta", "0.1", "--x", "1",
            "--init", "inverted", "--t-end", "100", "--step", "20",
            "--samples", "2", "--out", str(tmp_path / "t.csv"),
        )
        assert code == 4
        assert "StepTooLarge" in err or "NonFiniteState" in err

    def test_overflowing_map_reports_only_the_token(self, capsys):
        # a span whose powered step map once overflowed: band 0's map keeps
        # the trace, so the run ends at the Gibbs state, and stderr carries
        # the summary line alone, no numpy warning
        code, out, err = run(capsys, "evolve", "--n", "2", "--x", "1", "--samples", "2",
                             "--t-end", "1e300")
        assert code == 0
        assert out.startswith("t,trace,")
        assert re.fullmatch(r"final trace_dist_to_gibbs = (\S+)\n", err)
        assert float(err.split()[-1]) <= 1e-12

    def test_long_span_ends_at_the_gibbs_state(self, capsys, tmp_path):
        out = tmp_path / "t.csv"
        code, _, err = run(capsys, "evolve", "--n", "200", "--eta", "0.1", "--x", "1",
                           "--samples", "11", "--t-end", "1e15", "--out", str(out))
        assert (code, err) == (0, "")
        with open(out, newline="") as fh:
            final = list(csv.DictReader(fh))[-1]
        assert float(final["trace_dist_to_gibbs"]) <= 1e-12
        assert float(final["trace"]) == pytest.approx(1.0, abs=1e-13)


class TestDoubleLimitOfX:
    """At x = 1e308 the product -x*gap overflows to -inf, the right log
    weight; the suite turns any RuntimeWarning into an error."""

    def test_point(self, capsys):
        code, out, _ = run(capsys, "point", "--n", "2", "--eta", "0.2", "--x", "1e308")
        assert code == 0
        assert json.loads(out)["reason"] == "ZeroIntensity"

    def test_validate(self, capsys, tmp_path):
        # x = 10 adds compared rows: a grid whose every row skips is refused
        out = tmp_path / "v.csv"
        code, _, _ = run(capsys, "validate", "--n", "2", "--eta", "0.2", "--x", "10,1e308",
                         "--out", str(out))
        assert code == 0
        with open(out, newline="", encoding="ascii") as fh:
            statuses = {(r["x"], r["status"]) for r in csv.DictReader(fh)}
        assert statuses == {("10", "ok"), ("1e+308", "skipped")}

    def test_sweep(self, capsys, tmp_path):
        out = tmp_path / "s.csv"
        code, _, _ = run(capsys, "sweep", "--n", "2", "--eta", "0,0.2", "--x-start", "1e308",
                         "--x-stop", "1e308", "--x-count", "1", "--out", str(out))
        assert code == 0
        assert [r["reason"] for r in read_sweep_csv(out)] == ["ZeroIntensity"] * 2

    def test_evolve(self, capsys, tmp_path):
        code, _, _ = run(capsys, "evolve", "--n", "2", "--x", "1e308", "--t-end", "1",
                         "--out", str(tmp_path / "e.csv"))
        assert code == 0


class TestFigures:
    def test_presets_written(self, capsys, tmp_path):
        code, text, _ = run(capsys, "figures", "--out-dir", str(tmp_path))
        assert code == 0
        for name, rows in (("fig1", 600), ("fig2", 600), ("fig3", 600), ("fig4", 900)):
            path = tmp_path / f"{name}.csv"
            assert path.exists()
            assert len(path.read_text().splitlines()) == rows + 1
            assert (tmp_path / f"{name}.csv.meta.json").exists()


class TestUnwritableOutput:
    """An output path that cannot be written exits 2 with the error's type
    name as the token, not a traceback, and writes nothing."""

    @pytest.mark.parametrize("command", ["point", "sweep", "validate", "evolve"])
    def test_missing_directory_exits_2(self, capsys, tmp_path, command):
        out = str(tmp_path / "missing" / "out")
        argv = {
            "point": ["--n", "2", "--x", "1", "--out", out],
            "sweep": ["--n", "2", "--eta", "0", "--x-start", "1", "--x-stop", "2",
                      "--x-count", "2", "--out", out],
            "validate": ["--n", "2", "--eta", "0", "--x", "1", "--out", out],
            "evolve": ["--n", "2", "--x", "1", "--t-end", "1", "--out", out],
        }[command]
        code, text, err = run(capsys, command, *argv)
        assert code == 2
        assert err.startswith("FileNotFoundError: ")
        assert "Traceback" not in err
        assert text == ""
        assert list(tmp_path.iterdir()) == []

    def test_figures_directory_under_a_file_exits_2(self, capsys, tmp_path):
        blocker = tmp_path / "file"
        blocker.write_text("")
        code, text, err = run(capsys, "figures", "--out-dir", str(blocker / "figs"))
        assert code == 2
        assert err.startswith("NotADirectoryError: ")
        assert "Traceback" not in err
        assert text == ""
        assert list(tmp_path.iterdir()) == [blocker]


class TestOutputCheckedFirst:
    """An unwritable output path is refused before any computation."""

    ARGV = {
        "point": ["--n", "2", "--x", "1"],
        "sweep": ["--n", "2", "--eta", "0", "--x-start", "1", "--x-stop", "2",
                  "--x-count", "2"],
        "validate": ["--n", "2", "--eta", "0", "--x", "1"],
        "evolve": ["--n", "2", "--x", "1", "--t-end", "1"],
    }

    @pytest.mark.parametrize("command", sorted(ARGV))
    @pytest.mark.parametrize("where,token", [
        ("missing/out", "FileNotFoundError"),
        ("file/out", "NotADirectoryError"),
        ("file/sub/out", "NotADirectoryError"),
        (".", "IsADirectoryError"),
        ("", "IsADirectoryError"),  # the empty path is the working directory
    ])
    def test_no_work_before_the_refusal(self, capsys, tmp_path, monkeypatch,
                                        command, where, token):
        self.assert_refused(capsys, tmp_path, monkeypatch, [
            command, *self.ARGV[command], "--out", str(tmp_path / where) if where else ""
        ], token)

    # a directory where a sidecar or a figure file goes (point writes no sidecar)
    @pytest.mark.parametrize("command,blocked", [
        ("evolve", "out.csv.meta.json"),
        ("sweep", "out.csv.meta.json"),
        ("validate", "out.csv.meta.json"),
        ("figures", "fig3.csv"),
        ("figures", "fig4.csv.meta.json"),
    ])
    def test_no_work_before_a_sidecar_refusal(self, capsys, tmp_path, monkeypatch,
                                              command, blocked):
        (tmp_path / blocked).mkdir()
        if command == "figures":
            argv = [command, "--out-dir", str(tmp_path)]
        else:
            argv = [command, *self.ARGV[command], "--out", str(tmp_path / "out.csv")]
        err = self.assert_refused(capsys, tmp_path, monkeypatch, argv, "IsADirectoryError")
        assert err == f"IsADirectoryError: [Errno 21] Is a directory: '{tmp_path / blocked}'\n"

    @staticmethod
    def assert_refused(capsys, tmp_path, monkeypatch, argv, token):
        """Exit 2 with token, and nothing computed or written; returns stderr."""
        from dicke_therm import cli

        calls = []
        for name in ("integrate", "run_sweep", "validate_asymptotics", "point_document"):
            monkeypatch.setattr(cli, name, lambda *a, _name=name, **k: calls.append(_name))
        monkeypatch.chdir(tmp_path)
        (tmp_path / "file").write_text("")
        before = sorted(tmp_path.iterdir())
        code, text, err = run(capsys, *argv)
        assert code == 2
        assert err.startswith(f"{token}: ")
        assert text == ""
        assert calls == []
        assert sorted(tmp_path.iterdir()) == before
        return err


class TestRerunWrites:
    """A re-run whose outputs are unchanged opens none of them for writing
    and only advances their mtimes; one whose outputs changed truncates
    each file it writes and leaves exactly the new bytes."""

    ARGV = {
        "point": ["point", "--n", "2", "--x", "1", "--out", "{dir}/out.json"],
        "sweep": ["sweep", "--n", "2", "--eta", "0", "--x-start", "1", "--x-stop", "2",
                  "--x-count", "2", "--out", "{dir}/out.csv"],
        "validate": ["validate", "--out", "{dir}/out.csv"],
        "evolve": ["evolve", "--n", "2", "--x", "1", "--t-end", "1", "--out", "{dir}/out.csv"],
        "figures": ["figures", "--out-dir", "{dir}"],
    }

    @classmethod
    def first_run(cls, capsys, tmp_path, command):
        """argv, and the bytes of every file its first run wrote."""
        from dicke_therm import cli

        argv = [arg.replace("{dir}", str(tmp_path)) for arg in cls.ARGV[command]]
        assert run(capsys, *argv)[0] == 0
        outputs = sorted(os.fspath(p) for p in cli._out_paths(build_parser().parse_args(argv)))
        assert len(outputs) == {"point": 1, "figures": 8}.get(command, 2)
        return argv, {path: Path(path).read_bytes() for path in outputs}

    @pytest.mark.parametrize("command", sorted(ARGV))
    def test_identical_rerun_opens_no_output(self, capsys, tmp_path, monkeypatch, command):
        argv, first = self.first_run(capsys, tmp_path, command)
        inodes = {path: os.stat(path).st_ino for path in first}
        for path in first:
            os.utime(path, ns=(0, 0))
        opened = spy_open(monkeypatch)
        assert run(capsys, *argv)[0] == 0
        assert opened == []
        for path, data in first.items():
            st = os.stat(path)
            assert (st.st_ino, Path(path).read_bytes()) == (inodes[path], data)
            assert st.st_mtime_ns > 0

    @pytest.mark.parametrize("command", sorted(ARGV))
    def test_changed_rerun_truncates_each_output(self, capsys, tmp_path, monkeypatch, command):
        argv, first = self.first_run(capsys, tmp_path, command)
        for path in first:
            Path(path).write_bytes(b"0123456789,junk\n" * 1000)
        opened = spy_open(monkeypatch)
        assert run(capsys, *argv)[0] == 0
        assert sorted(path for path, _ in opened) == sorted(first)
        assert all(flags & os.O_TRUNC for _, flags in opened)
        assert {path: Path(path).read_bytes() for path in first} == first


class TestMemoryError:
    """A failed allocation exits 2 with the `MemoryError` token, not a
    traceback; the callee is made to raise, so no large array is asked for."""

    @pytest.mark.parametrize("command,callee", [
        ("sweep", "run_sweep"), ("evolve", "integrate"), ("validate", "validate_asymptotics"),
    ])
    def test_exits_2(self, capsys, tmp_path, monkeypatch, command, callee):
        from dicke_therm import cli

        def fail(*args, **kwargs):
            raise MemoryError("Unable to allocate 74.5 TiB")

        monkeypatch.setattr(cli, callee, fail)
        code, text, err = run(capsys, command, *TestOutputCheckedFirst.ARGV[command],
                              "--out", str(tmp_path / "out.csv"))
        assert code == 2
        assert err == "MemoryError: Unable to allocate 74.5 TiB\n"
        assert text == ""

    def test_reading_a_config_file_exits_2(self, capsys, tmp_path, monkeypatch):
        from dicke_therm import cli

        def fail(path):
            raise MemoryError("Unable to allocate 74.5 TiB")

        monkeypatch.setattr(cli, "_config_flags", fail)
        code, text, err = run(capsys, "point", "--config", str(tmp_path / "big.cfg"))
        assert (code, text) == (2, "")
        assert err == "MemoryError: Unable to allocate 74.5 TiB\n"


def _reject_constant(name):
    raise ValueError(f"non-standard JSON constant {name}")


class TestSidecars:
    @pytest.mark.parametrize("argv,data", [
        (("sweep", "--n", "2,3", "--eta", "0,0.1", "--x-start", "0.01", "--x-stop", "2000",
          "--x-count", "4", "--x-scale", "log", "--out", "{dir}/s.csv"), "s.csv"),
        (("validate", "--out", "{dir}/v.csv"), "v.csv"),
        (("evolve", "--n", "2", "--eta", "0.1", "--x", "10", "--t-end", "1",
          "--samples", "3", "--out", "{dir}/e.csv"), "e.csv"),
        (("evolve", "--n", "2", "--x", "1", "--t-end", "1", "--samples", "3",
          "--step", "0.01", "--out", "{dir}/e.csv"), "e.csv"),
        (("figures", "--out-dir", "{dir}"), "fig4.csv"),
    ])
    def test_sidecar_is_strict_json(self, capsys, tmp_path, argv, data):
        code, _, _ = run(capsys, *(a.format(dir=tmp_path) for a in argv))
        assert code == 0
        sides = sorted(tmp_path.glob("*.meta.json"))
        assert tmp_path / f"{data}.meta.json" in sides
        for side in sides:
            doc = json.loads(side.read_text(), parse_constant=_reject_constant)
            assert doc["command"] == argv[0]


def fresh_python(*args: str, cwd=None):
    """The finished process of a new interpreter, run with args, that
    imports this package."""
    import subprocess
    import sys

    import dicke_therm

    src = str(Path(dicke_therm.__file__).parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    return subprocess.run([sys.executable, *args], capture_output=True, text=True,
                          env=env, cwd=cwd)


class TestColdStart:
    @staticmethod
    def fresh_python(code: str) -> str:
        """Stdout of code run by a new interpreter that imports this package."""
        proc = fresh_python("-c", code)
        proc.check_returncode()
        return proc.stdout.strip()

    def test_cli_import_leaves_scipy_out(self):
        # the CLI cold start imports numpy and the package only: scipy and
        # mpmath serve the test oracles alone
        assert self.fresh_python(
            "import sys, dicke_therm.cli; print(sorted({'scipy', 'mpmath'} & set(sys.modules)))"
        ) == "[]"

    def test_cli_import_leaves_the_process_pool_out(self):
        # the pool is imported only by a sweep with jobs > 1
        assert self.fresh_python(
            "import sys, dicke_therm.cli; "
            "print(sorted({'concurrent.futures', 'multiprocessing'} & set(sys.modules)))"
        ) == "[]"

    def test_cli_import_builds_no_parser(self):
        # the parser is built on the first main call, not in the cold start
        assert self.fresh_python(
            "import dicke_therm.cli as cli; print(cli.build_parser.cache_info().currsize)"
        ) == "0"


def _extreme_cases():
    """pytest params (argv, exit code) of each command at the ends of the
    float range."""
    cases = []
    for x in ("1e-300", "1e300"):
        cases += [pytest.param(("point", "--n", n, "--eta", "0.1", "--x", x), 0,
                               id=f"point-N{n}-x{x}") for n in ("2", "100000")]
        cases.append(pytest.param(("sweep", "--n", "2,100000", "--eta", "0,0.1", "--x-start", x,
                                   "--x-stop", x, "--x-count", "1", "--out", "s.csv"), 0,
                                  id=f"sweep-x{x}"))
        # at x = 1e300 every intensity underflows, so nothing is compared
        cases.append(pytest.param(("validate", "--n", "2,100000", "--eta", "0,0.1", "--x", x,
                                   "--out", "v.csv"), 0 if x == "1e-300" else 2,
                                  id=f"validate-x{x}"))
    for x, code, step_code in (("1e-200", 0, 4), ("1e-308", 2, 2), ("1e-320", 2, 2)):
        for n in ("2", "5"):
            argv = ("evolve", "--n", n, "--x", x, "--t-end", "1", "--samples", "3",
                    "--out", "e.csv")
            cases += [pytest.param(argv, code, id=f"evolve-N{n}-x{x}"),
                      pytest.param((*argv, "--step", "0.01"), step_code,
                                   id=f"evolve-N{n}-x{x}-step")]
    return cases


class TestExtremeInputs:
    """Every command at the ends of the float range, each in a fresh
    interpreter with the default warning filters: stderr carries no
    warning, and a refused input prints exactly one `Type: message` line."""

    @pytest.mark.parametrize("argv, code", _extreme_cases())
    def test_no_warning_and_one_line_refusals(self, tmp_path, argv, code):
        main_call = "import sys; from dicke_therm.cli import main; sys.exit(main())"
        proc = fresh_python("-c", main_call, *argv, cwd=tmp_path)
        assert "Warning" not in proc.stderr
        assert proc.returncode == code, proc.stderr
        assert re.fullmatch(r"\w+: [^\n]+\n", proc.stderr) if code else proc.stderr == ""


class TestSharedParser:
    """One parser serves every main call of a process, and a call leaves
    nothing on it that a later call could see."""

    SWEEP = ("sweep", "--n", "2,3", "--eta", "0,0.1", "--x-start", "0.5",
             "--x-stop", "10", "--x-count", "4", "--out", "s.csv")
    POINT = ("point", "--n", "2", "--eta", "0.1", "--x", "10")

    @staticmethod
    def outcome(capsys, argv):
        """Exit code, stdout, stderr and the bytes of every file the call
        wrote to the working directory, which it leaves empty."""
        code, out, err = run(capsys, *argv)
        files = {}
        for path in sorted(Path.cwd().iterdir()):
            files[path.name] = path.read_bytes()
            path.unlink()
        return code, out, err, files

    def test_built_once_across_calls(self, capsys, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        build_parser.cache_clear()
        for argv in (self.POINT, self.SWEEP, ("sweep",), ("--help",), ("point", "--help"),
                     ("validate",), ("evolve", "--n", "2", "--x", "1", "--t-end", "0.1"),
                     self.POINT):
            self.outcome(capsys, argv)
        assert build_parser.cache_info().misses == 1

    @pytest.mark.parametrize("first, then", [
        ((*POINT, "--precision", "3"), POINT),
        ((*SWEEP, "--jobs", "2"), SWEEP),
        (("sweep",), SWEEP),
        (("--help",), ("validate",)),
        ((*POINT[:3], "--x", "10", "--config", "{cfg}"), (*POINT[:3], "--x", "10")),
    ], ids=["precision", "jobs", "usage-error", "help", "config"])
    def test_later_call_equals_a_fresh_parser(self, capsys, tmp_path, monkeypatch, first, then):
        cfg = tmp_path / "p.cfg"
        cfg.write_text("eta = 0.1\nprecision = 3\n")
        work = tmp_path / "work"
        work.mkdir()
        monkeypatch.chdir(work)
        build_parser.cache_clear()
        self.outcome(capsys, [arg.format(cfg=cfg) for arg in first])
        shared = self.outcome(capsys, then)
        assert build_parser.cache_info().misses == 1
        build_parser.cache_clear()
        assert shared == self.outcome(capsys, then)


class TestHelpText:
    """The shared parser's help equals a fresh build's, at the terminal
    width read when the help is printed."""

    COMMANDS = [(), ("point",), ("sweep",), ("validate",), ("evolve",), ("figures",)]

    @staticmethod
    def fresh_help(capsys, argv) -> str:
        with pytest.raises(SystemExit) as exc:
            build_parser.__wrapped__().parse_args([*argv, "--help"])
        assert exc.value.code == 0
        return capsys.readouterr().out

    @staticmethod
    def shared_help(capsys, argv) -> str:
        code, out, _ = run(capsys, *argv, "--help")
        assert code == 0
        return out

    @pytest.mark.parametrize("argv", COMMANDS, ids=lambda a: a[0] if a else "top")
    def test_help_equals_a_fresh_build(self, capsys, monkeypatch, argv):
        monkeypatch.setenv("COLUMNS", "80")
        assert self.shared_help(capsys, argv) == self.fresh_help(capsys, argv)

    def test_width_is_read_when_help_is_printed(self, capsys, monkeypatch):
        monkeypatch.setenv("COLUMNS", "80")
        build_parser.cache_clear()
        wide = self.shared_help(capsys, ())
        monkeypatch.setenv("COLUMNS", "60")
        assert self.shared_help(capsys, ()) != wide
        for argv in self.COMMANDS:
            assert self.shared_help(capsys, argv) == self.fresh_help(capsys, argv)
        assert build_parser.cache_info().misses == 1


class TestConsoleScript:
    def test_installed_entry_point(self, tmp_path):
        import shutil
        import subprocess

        exe = shutil.which("dicke-therm")
        if exe is None:
            pytest.skip("console script not installed")
        proc = subprocess.run(
            [exe, "point", "--n", "2", "--eta", "0.1", "--x", "10"],
            capture_output=True, text=True,
        )
        assert proc.returncode == 0
        assert json.loads(proc.stdout)["classification"] == "SubPoissonian"
        proc = subprocess.run(
            [exe, "point", "--n", "1", "--eta", "0.1", "--x", "1"],
            capture_output=True, text=True,
        )
        assert proc.returncode == 2
        assert "SingleAtomWithCoupling" in proc.stderr


class TestDeclaredConsoleScript:
    def test_entry_point_runs_as_the_installed_wrapper(self):
        # [project.scripts] resolved and called as the wrapper that pip
        # installs calls it, with the package on PYTHONPATH instead
        import os
        import subprocess
        import sys
        from pathlib import Path

        tomllib = pytest.importorskip("tomllib")
        root = Path(__file__).resolve().parents[1]
        with open(root / "pyproject.toml", "rb") as f:
            target = tomllib.load(f)["project"]["scripts"]["dicke-therm"]
        module, func = target.split(":")
        wrapper = f"import sys; from {module} import {func}; sys.exit({func}())"
        env = dict(os.environ, PYTHONPATH=str(root / "src"))

        def script(*argv):
            return subprocess.run([sys.executable, "-c", wrapper, *argv],
                                  capture_output=True, text=True, env=env)

        proc = script("point", "--n", "2", "--eta", "0.1", "--x", "10")
        assert proc.returncode == 0
        assert json.loads(proc.stdout)["classification"] == "SubPoissonian"
        proc = script("point", "--n", "1", "--eta", "0.1", "--x", "1")
        assert proc.returncode == 2
        assert "SingleAtomWithCoupling" in proc.stderr

    def test_the_script_resolves_to_cli_main(self):
        # TestConsoleScript skips unless the package is installed; this
        # pins the [project.scripts] target to the very callable in process
        import importlib

        import dicke_therm.cli

        tomllib = pytest.importorskip("tomllib")
        with open(Path(__file__).resolve().parents[1] / "pyproject.toml", "rb") as f:
            target = tomllib.load(f)["project"]["scripts"]["dicke-therm"]
        module, _, func = target.partition(":")
        entry = getattr(importlib.import_module(module), func)
        assert callable(entry)
        assert entry is dicke_therm.cli.main


class TestJsonRendering:
    def test_precision_and_order(self):
        text = render_json({"b": 0.30201809298466553, "a": 1}, precision=6)
        assert text == '{"b": 0.302018, "a": 1}'

    def test_null_and_nested(self):
        assert render_json({"x": None, "y": {"z": [1.5, 2]}}) == '{"x": null, "y": {"z": [1.5, 2]}}'

    def test_booleans_are_json_literals(self):
        assert render_json({"a": True, "b": [False]}) == '{"a": true, "b": [false]}'

    def test_an_unknown_type_is_refused(self):
        with pytest.raises(TypeError, match="^cannot serialize object$"):
            render_json(object())


def test_a_numpy_float32_cell_prints_as_its_double():
    # 0.1 in single precision is 0.100000001490116...
    assert format_number(np.float32(0.1), 12) == "0.10000000149"
