"""Command-line interface: exit codes, determinism, serialization."""

import csv
import json
import math

import pytest

from dicke_therm.cli import main
from dicke_therm.sweep import (
    REPORT_HEADER,
    SWEEP_HEADER,
    SweepConfig,
    format_number,
    read_sweep_csv,
    render_json,
    sweep_points,
    x_grid,
)


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

    def test_underflow_point_reports_reason(self, capsys):
        code, out, _ = run(capsys, "point", "--n", "2", "--eta", "0", "--x", "2000")
        assert code == 0
        doc = json.loads(out)
        assert doc["g2"] is None
        assert doc["reason"] == "ZeroIntensity"


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

    def test_sidecar_written(self, capsys, tmp_path):
        out = tmp_path / "s.csv"
        run(capsys, *self.sweep_args(out))
        meta = json.loads((tmp_path / "s.csv.meta.json").read_text())
        assert meta["command"] == "sweep"
        assert meta["config"]["n_values"] == [2, 3]

    def test_env_var_sets_default_jobs(self, capsys, tmp_path, monkeypatch):
        out = tmp_path / "env.csv"
        monkeypatch.setenv("DICKE_THERM_JOBS", "2")
        assert run(capsys, *self.sweep_args(out))[0] == 0
        ref = tmp_path / "ref.csv"
        monkeypatch.delenv("DICKE_THERM_JOBS")
        run(capsys, *self.sweep_args(ref))
        assert out.read_bytes() == ref.read_bytes()

    @pytest.mark.parametrize("jobs", ["0", "-3"])
    def test_nonpositive_jobs_exit_2(self, capsys, tmp_path, jobs):
        out = tmp_path / "j.csv"
        code, _, err = run(capsys, *self.sweep_args(out, ("--jobs", jobs)))
        assert code == 2
        assert "ValueError" in err
        assert not out.exists()

    def test_malformed_jobs_env_var_exits_2(self, capsys, tmp_path, monkeypatch):
        monkeypatch.setenv("DICKE_THERM_JOBS", "abc")
        code, _, err = run(capsys, *self.sweep_args(tmp_path / "j.csv"))
        assert code == 2
        assert "ValueError" in err and "DICKE_THERM_JOBS" in err

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

    def test_log_grid(self):
        cfg = SweepConfig((2,), (0.0,), 0.01, 100.0, 5, "log", ("g2",))
        assert x_grid(cfg) == pytest.approx([0.01, 0.1, 1.0, 10.0, 100.0], rel=1e-12)
        assert len(sweep_points(cfg)) == 5


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


class TestValidate:
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

    def test_infinite_t_end_exits_2(self, capsys):
        code, out, err = run(capsys, "evolve", "--n", "2", "--x", "1", "--t-end", "inf")
        assert code == 2
        assert "ValueError" in err and "t_end" in err
        assert out == ""

    def test_integrator_failure_exits_4(self, capsys, tmp_path):
        # two samples leave the span as five giant steps; the state blows
        # up and the per-step trace-drift bound trips
        code, _, err = run(
            capsys, "evolve", "--n", "3", "--eta", "0.1", "--x", "1",
            "--init", "inverted", "--t-end", "100", "--step", "20",
            "--samples", "2", "--out", str(tmp_path / "t.csv"),
        )
        assert code == 4
        assert "StepTooLarge" in err or "NonFiniteState" in err


class TestFigures:
    def test_presets_written(self, capsys, tmp_path):
        code, text, _ = run(capsys, "figures", "--out-dir", str(tmp_path))
        assert code == 0
        for name, rows in (("fig1", 600), ("fig2", 600), ("fig3", 600), ("fig4", 900)):
            path = tmp_path / f"{name}.csv"
            assert path.exists()
            assert len(path.read_text().splitlines()) == rows + 1
            assert (tmp_path / f"{name}.csv.meta.json").exists()


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


class TestJsonRendering:
    def test_precision_and_order(self):
        text = render_json({"b": 0.30201809298466553, "a": 1}, precision=6)
        assert text == '{"b": 0.302018, "a": 1}'

    def test_null_and_nested(self):
        assert render_json({"x": None, "y": {"z": [1.5, 2]}}) == '{"x": null, "y": {"z": [1.5, 2]}}'
