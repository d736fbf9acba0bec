import json
import math
import os

import pytest

from obd.algorithms import choose_beta
from obd.cli import Config, run_cli
from obd.harness import theorem1_suite


def test_help_exits_zero(capsys):
    assert run_cli(["--help"]) == 0
    assert "experiment" in capsys.readouterr().out


def test_version(capsys):
    assert run_cli(["--version"]) == 0
    assert "obd" in capsys.readouterr().out


class TestConfig:
    def test_roundtrip_identity(self):
        cfg = Config(experiment="lower_bound", dims=(4, 9), seed=3, beta=0.6)
        again = Config.from_dict(cfg.to_dict())
        assert again == cfg
        assert Config.from_dict(again.to_dict()) == again

    def test_unknown_keys_rejected(self):
        with pytest.raises(ValueError, match="unknown config keys"):
            Config.from_dict({"experiment": "lower_bound", "betaa": 0.5})

    def test_invalid_fields_named(self):
        with pytest.raises(ValueError, match="experiment"):
            Config(experiment="nope")
        with pytest.raises(ValueError, match="trials"):
            Config(trials=0)

    def test_config_file_with_flag_override(self, tmp_path, capsys):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"experiment": "lower_bound",
                                    "dims": [4], "out": str(tmp_path / "a")}))
        rc = run_cli(["--config", str(path), "--dims", "9",
                      "--out", str(tmp_path / "b")])
        assert rc == 0
        dat = (tmp_path / "b" / "plot_lower_bound.dat").read_text()
        assert dat.splitlines()[1].startswith("9.0")

    @pytest.mark.parametrize("data, field", [
        ({"experiment": "cr_vs_dim", "trials": "3"}, "trials"),
        ({"experiment": "single_run", "T": 2.5}, "T"),
        ({"experiment": "lower_bound", "dims": "24"}, "dims"),
        ({"experiment": "lower_bound", "dims": [2, True]}, "dims"),
        ({"experiment": "single_run", "seed": False}, "seed"),
        ({"experiment": "single_run", "beta": "0.5"}, "beta"),
    ])
    def test_mistyped_field_is_usage_error(self, tmp_path, capsys, data, field):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({**data, "out": str(tmp_path / "out")}))
        assert run_cli(["--config", str(path)]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"obd: config error: field {field!r} must be ")
        assert "Traceback" not in err
        assert not (tmp_path / "out").exists()

    def test_mistyped_dims_flag_is_usage_error(self, capsys):
        assert run_cli(["--experiment", "lower_bound", "--dims", "2,x"]) == 1
        assert "field 'dims'" in capsys.readouterr().err

    def test_integer_float_field_matches_flag(self, tmp_path):
        # a float field given as an integer is stored as a float, so the file
        # and the flags describe one spec and write identical files
        small = {"dims": [2], "trials": 1, "T": 10, "seed": 4}
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({**small, "cond": 10, "diameter": 10,
                                    "out": str(tmp_path / "file")}))
        assert run_cli(["--config", str(path)]) == 0
        assert run_cli(["--dims", "2", "--trials", "1", "--T", "10", "--seed", "4",
                        "--cond", "10", "--diameter", "10",
                        "--out", str(tmp_path / "flags")]) == 0
        names = sorted(os.listdir(tmp_path / "file"))
        assert names == sorted(os.listdir(tmp_path / "flags"))
        assert any(name.startswith("run_") for name in names)
        for name in names:
            assert (tmp_path / "file" / name).read_bytes() == \
                (tmp_path / "flags" / name).read_bytes()

    def test_bad_config_file_is_usage_error(self, tmp_path, capsys):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"nonsense": 1}))
        assert run_cli(["--config", str(path)]) == 1
        assert "config error" in capsys.readouterr().err


class TestLowerBound:
    def test_dat_rows_are_exact(self, tmp_path):
        out = tmp_path / "lb"
        assert run_cli(["--experiment", "lower_bound", "--dims", "4,9,16",
                        "--out", str(out)]) == 0
        rows = [l.split() for l in
                (out / "plot_lower_bound.dat").read_text().splitlines()[1:]]
        for row in rows:
            d, online, offline, ratio = (float(v) for v in row)
            assert online == d
            assert offline == math.sqrt(d)
            assert abs(ratio - math.sqrt(d)) <= 1e-9


class TestCrVsDim:
    def test_deterministic_csv(self, tmp_path):
        args = ["--experiment", "cr_vs_dim", "--dims", "2,3", "--trials", "2",
                "--seed", "11", "--T", "12", "--family", "norm_tracking"]
        assert run_cli(args + ["--out", str(tmp_path / "x")]) == 0
        assert run_cli(args + ["--out", str(tmp_path / "y")]) == 0
        a = (tmp_path / "x" / "results.csv").read_bytes()
        b = (tmp_path / "y" / "results.csv").read_bytes()
        assert a == b
        header = a.decode().splitlines()[0]
        assert header == ("family,d,trial,seed,algo,total_cost,opt_cost,cr,"
                          "regret_L,bound,audit_worst_residual")

    def test_json_format_also_writes_csv(self, tmp_path):
        out = tmp_path / "j"
        rc = run_cli(["--experiment", "cr_vs_dim", "--dims", "2", "--trials", "1",
                      "--seed", "1", "--T", "8", "--family", "norm_tracking",
                      "--format", "json", "--out", str(out)])
        assert rc == 0
        rows = json.loads((out / "results.json").read_text())
        assert rows and rows[0]["family"] == "norm_tracking"
        assert (out / "results.csv").exists()


class TestUnverifiedComparators:
    ARGS = ["--experiment", "cr_vs_dim", "--dims", "2,3", "--trials", "2",
            "--seed", "1", "--T", "8", "--family", "norm_tracking"]

    @staticmethod
    def _failing_opt(monkeypatch, fails):
        import obd.harness
        solve = obd.harness.offline_opt
        calls = []

        def flaky(*args, **kwargs):
            calls.append(1)
            if fails(len(calls)):
                raise RuntimeError("solver broke")
            return solve(*args, **kwargs)

        monkeypatch.setattr(obd.harness, "offline_opt", flaky)

    @staticmethod
    def _unverified(out):
        return sorted(json.loads((out / f).read_text())["totals"]["unverified"]
                      for f in os.listdir(out) if f.startswith("run_"))

    def test_some_comparators_raise(self, tmp_path, monkeypatch):
        # both d = 2 solves raise: their cr cells are blank, d = 2 has no
        # plot row, and the run is unverified
        self._failing_opt(monkeypatch, lambda n: n <= 2)
        out = tmp_path / "some"
        assert run_cli(self.ARGS + ["--out", str(out)]) == 3
        rows = (out / "results.csv").read_text().splitlines()[1:]
        assert [r.split(",")[7] == "" for r in rows] == [True, True, False, False]
        assert self._unverified(out) == [[], [], ["opt"], ["opt"]]
        dat = (out / "plot_cr_vs_dim.dat").read_text().splitlines()[1:]
        assert [float(r.split()[0]) for r in dat] == [3.0]

    def test_every_comparator_raises(self, tmp_path, monkeypatch):
        self._failing_opt(monkeypatch, lambda n: True)
        out = tmp_path / "all"
        assert run_cli(self.ARGS + ["--out", str(out)]) == 3
        assert self._unverified(out) == [["opt"]] * 4
        assert len((out / "plot_cr_vs_dim.dat").read_text().splitlines()) == 1


class TestTheoremAuditsWithRaisingComparator:
    ARGS = ["--dims", "2", "--trials", "1", "--seed", "4", "--T", "10"]

    @staticmethod
    def _raise(*args, **kwargs):
        raise RuntimeError("solver broke")

    @staticmethod
    def _rows(out):
        import csv
        with open(out / "results.csv") as fh:
            return list(csv.DictReader(fh))

    def test_audit_suite(self, tmp_path, monkeypatch):
        import obd.harness
        monkeypatch.setattr(obd.harness, "offline_opt", self._raise)
        out = tmp_path / "a"
        assert run_cli(["--experiment", "audit_suite", *self.ARGS, "--out", str(out)]) == 3
        rows = self._rows(out)
        assert rows and all(r["opt_cost"] == r["cr"] == r["audit_worst_residual"] == ""
                            for r in rows)
        # 12 cases per trial, in case order, each bounded by 3 + 8/alpha
        specs = theorem1_suite(4, count=12, dims=(2,), T=10)
        assert [float(r["bound"]) for r in rows] == pytest.approx(
            [3.0 + 8.0 / spec.tracking_scale for spec in specs])
        assert len((out / "plot_audit_suite.dat").read_text().splitlines()) == 1

    def test_cr_vs_dim_at_the_proven_beta(self, tmp_path, monkeypatch):
        # the bound is proven for the beta the trial runs at, solved or not
        import obd.harness
        monkeypatch.setattr(obd.harness, "offline_opt", self._raise)
        out = tmp_path / "c"
        assert run_cli(["--experiment", "cr_vs_dim", "--family", "norm_tracking",
                        "--beta", repr(choose_beta(1.0).beta), *self.ARGS,
                        "--out", str(out)]) == 3
        (row,) = self._rows(out)
        assert row["cr"] == row["audit_worst_residual"] == ""
        assert float(row["bound"]) == pytest.approx(11.0)

    def test_regret_sweep(self, tmp_path, monkeypatch):
        # offline_opt raises, and so does every budgeted solve with L > 0:
        # the opt_move budget is skipped and the diameter budget has no regret
        import obd.harness

        def budgeted(costs, x0, L, *args, **kwargs):
            if L > 0.0:
                raise RuntimeError("solver broke")
            return solve_L(costs, x0, L, *args, **kwargs)

        solve_L = obd.harness.offline_opt_constrained
        monkeypatch.setattr(obd.harness, "offline_opt", self._raise)
        monkeypatch.setattr(obd.harness, "offline_opt_constrained", budgeted)
        out = tmp_path / "r"
        assert run_cli(["--experiment", "regret_sweep", *self.ARGS, "--out", str(out)]) == 3
        rows = self._rows(out)
        assert [r["algo"] for r in rows] == ["dual_obd(L=0)", "dual_obd(L=20)"]
        assert [r["regret_L"] == "" for r in rows] == [False, True]
        assert all(r["opt_cost"] == r["cr"] == "" for r in rows)
        dat = (out / "plot_regret_sweep.dat").read_text().splitlines()
        assert len(dat) == 2 and dat[1].split()[0] == "2.0"
        unverified = [json.loads((out / f).read_text())["totals"]["unverified"]
                      for f in os.listdir(out) if f.startswith("run_")]
        assert unverified == [["opt", "opt_L:20"]]

    def test_healthy_regret_sweep(self, tmp_path, monkeypatch):
        import obd.cli
        written = []
        write = obd.cli._write_report_dict

        def counting(cfg, payload):
            written.append(payload)
            write(cfg, payload)

        monkeypatch.setattr(obd.cli, "_write_report_dict", counting)
        out = tmp_path / "h"
        assert run_cli(["--experiment", "regret_sweep", *self.ARGS, "--out", str(out)]) == 0
        rows = self._rows(out)
        assert len(rows) == 3 and all(r["regret_L"] != "" for r in rows)
        assert len((out / "plot_regret_sweep.dat").read_text().splitlines()) == 2
        # one report per trajectory file: the zero-budget case shares its run
        files = [f for f in os.listdir(out) if f.startswith("run_")]
        assert files and len(written) == len(files)


@pytest.mark.parametrize("experiment", ["cr_vs_dim", "regret_sweep", "audit_suite"])
def test_jobs_do_not_change_files(tmp_path, experiment):
    args = ["--experiment", experiment, "--dims", "2,3", "--trials", "2",
            "--seed", "7", "--T", "10", "--format", "json"]
    if experiment == "cr_vs_dim":  # the only one of the three that reads it
        args += ["--family", "norm_tracking"]
    files = []
    for jobs in ("1", "2"):
        out = tmp_path / jobs
        assert run_cli(args + ["--jobs", jobs, "--out", str(out)]) == 0
        files.append({f: (out / f).read_bytes() for f in os.listdir(out)})
    assert len(files[0]) > 3 and files[0] == files[1]


class TestSingleRun:
    def test_unconverged_steps_exit_3(self, tmp_path):
        # no balance residual meets 1e-300, so every balanced step is unverified
        cfg = {"experiment": "single_run", "T": 10, "level_tol": 1e-300,
               "out": str(tmp_path / "u")}
        path = tmp_path / "c.json"
        path.write_text(json.dumps(cfg))
        assert run_cli(["--config", str(path)]) == 3
        out = tmp_path / "u"
        (traj,) = [f for f in os.listdir(out) if f.startswith("run_")]
        payload = json.loads((out / traj).read_text())
        expected = [f"step:{s['t']}" for s in payload["steps"] if not s["converged"]]
        assert expected and payload["totals"]["unverified"] == expected

    def test_trajectory_schema(self, tmp_path):
        out = tmp_path / "s"
        rc = run_cli(["--experiment", "single_run", "--family", "quadratic",
                      "--d", "2", "--T", "6", "--seed", "5",
                      "--algo", "primal_obd", "--beta", "0.5",
                      "--out", str(out)])
        assert rc == 0
        traj_files = [f for f in os.listdir(out) if f.startswith("run_")]
        assert len(traj_files) == 1
        payload = json.loads((out / traj_files[0]).read_text())
        assert set(payload) == {"spec", "algo", "steps", "totals"}
        assert set(payload["totals"]) == {
            "total_cost", "total_hit", "total_move", "cr", "regrets",
            "static_regret", "comparators", "unverified", "audits"}
        assert payload["totals"]["audits"] == []
        step = payload["steps"][0]
        assert set(step) == {"t", "x", "hit", "move", "level", "eta_t", "branch",
                             "residual", "converged", "iterations"}
        assert payload["algo"] == "primal_obd"
        assert len(payload["steps"]) == 6

    def test_dual_auto_eta_needs_bounded_set(self, tmp_path, capsys):
        rc = run_cli(["--experiment", "single_run", "--family", "quadratic",
                      "--d", "2", "--T", "4", "--seed", "5", "--algo", "dual_obd",
                      "--out", str(tmp_path / "d")])
        assert rc == 1
        assert "eta" in capsys.readouterr().err

    def test_dual_run_on_ball(self, tmp_path):
        cfg = {"experiment": "single_run", "family": "quadratic", "d": 2,
               "T": 5, "seed": 5, "algo": "dual_obd", "feasible_kind": "ball",
               "feasible_radius": 10.0, "out": str(tmp_path / "db")}
        path = tmp_path / "c.json"
        path.write_text(json.dumps(cfg))
        assert run_cli(["--config", str(path)]) == 0


def _cut_objective(module, name):
    """Patch ``module.name`` to report 1% of its solution's objective."""
    import dataclasses
    solve = getattr(module, name)

    def cut(*args, **kwargs):
        sol = solve(*args, **kwargs)
        return dataclasses.replace(sol, objective=0.01 * sol.objective)

    return cut


def _inflated_run(module, name):
    """Patch ``module.name`` (``run``) to report 1% more online cost."""
    play = getattr(module, name)

    def inflated(*args, **kwargs):
        report = play(*args, **kwargs)
        report.total_cost *= 1.01
        return report

    return inflated


SMALL = ["--dims", "2", "--trials", "1", "--seed", "4", "--T", "10"]
# the SMALL flags each experiment reads
SMALL_FOR = {"cr_vs_dim": SMALL, "regret_sweep": SMALL, "audit_suite": SMALL,
             "lower_bound": ["--dims", "2"], "single_run": ["--seed", "4", "--T", "10"]}


@pytest.mark.parametrize("args, target, broken, audit", [
    (["--experiment", "cr_vs_dim", "--family", "norm_tracking",
      "--beta", repr(choose_beta(1.0).beta)], "offline_opt", _cut_objective,
     "theorem1_cr"),
    (["--experiment", "regret_sweep"], "static_opt", _cut_objective,
     "opt_diameter_below_static"),
    (["--experiment", "audit_suite"], "offline_opt", _cut_objective, "theorem1_cr"),
    (["--experiment", "lower_bound"], "run", _inflated_run, "lower_bound_ratio"),
], ids=["cr_vs_dim", "regret_sweep", "audit_suite", "lower_bound"])
def test_failed_audit_exits_2(tmp_path, monkeypatch, args, target, broken, audit):
    # one broken result per experiment; the exit status is read from the
    # failed audit in the run files the experiment writes
    import obd.harness
    monkeypatch.setattr(obd.harness, target, broken(obd.harness, target))
    out = tmp_path / "x"
    assert run_cli(args + SMALL_FOR[args[1]] + ["--out", str(out)]) == 2
    failed = [a["name"] for f in os.listdir(out) if f.startswith("run_")
              for a in json.loads((out / f).read_text())["totals"]["audits"]
              if not a["passed"]]
    assert audit in failed


def test_every_experiment_writes_run_files(tmp_path):
    for experiment in ("cr_vs_dim", "regret_sweep", "audit_suite", "lower_bound",
                       "single_run"):
        out = tmp_path / experiment
        assert run_cli(["--experiment", experiment, *SMALL_FOR[experiment],
                        "--out", str(out)]) == 0
        runs = [f for f in os.listdir(out) if f.startswith("run_")]
        assert runs, experiment
        for f in runs:
            totals = json.loads((out / f).read_text())["totals"]
            assert all(a["passed"] for a in totals["audits"]) and not totals["unverified"]


@pytest.mark.parametrize("experiment, flags, unread", [
    ("regret_sweep", ["--family", "norm_tracking"], "family"),
    ("audit_suite", ["--beta", "0.6"], "beta"),
    ("lower_bound", ["--seed", "3"], "seed"),
    ("single_run", ["--jobs", "2"], "jobs"),
    ("cr_vs_dim", ["--d", "3"], "d"),
])
def test_unread_flag_is_usage_error(tmp_path, capsys, experiment, flags, unread):
    out = tmp_path / "u"
    assert run_cli(["--experiment", experiment, *flags, "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert f"experiment {experiment!r} does not read [{unread!r}]" in err
    assert not out.exists()


def test_unread_config_key_is_usage_error(tmp_path, capsys):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"experiment": "lower_bound", "dims": [4],
                                "trials": 3, "out": str(tmp_path / "o")}))
    assert run_cli(["--config", str(path)]) == 1
    assert "experiment 'lower_bound' does not read ['trials']" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


def test_hyperplane_chase_rejected_by_cr_vs_dim(tmp_path, capsys):
    # the adaptive family has no offline comparator, so no cr can be priced;
    # it is refused before any run, whatever T is
    for T in ("4", "5"):
        out = tmp_path / T
        assert run_cli(["--experiment", "cr_vs_dim", "--family", "hyperplane_chase",
                        "--dims", "4", "--trials", "1", "--T", T,
                        "--out", str(out)]) == 1
        assert "family 'hyperplane_chase'" in capsys.readouterr().err
        assert not out.exists()
    # single_run still plays it against the projection responder
    out = tmp_path / "single"
    assert run_cli(["--experiment", "single_run", "--family", "hyperplane_chase",
                    "--algo", "projection", "--d", "4", "--T", "4",
                    "--out", str(out)]) == 0
    (run_file,) = [f for f in os.listdir(out) if f.startswith("run_")]
    steps = json.loads((out / run_file).read_text())["steps"]
    assert [s["branch"] for s in steps] == ["set_projection"] * 4


def test_audit_suite_exit_code(tmp_path):
    rc = run_cli(["--experiment", "audit_suite", "--dims", "2", "--trials", "1",
                  "--seed", "4", "--T", "10", "--out", str(tmp_path / "a")])
    assert rc == 0
    csv_text = (tmp_path / "a" / "results.csv").read_text()
    assert len(csv_text.splitlines()) > 1


def test_obd_log_handler_installed_once(tmp_path, monkeypatch, capsys):
    import logging
    monkeypatch.setenv("OBD_LOG", "info")
    counts = []
    for i in range(3):
        assert run_cli(["--experiment", "lower_bound", "--dims", "4",
                        "--out", str(tmp_path / f"l{i}")]) == 0
        err = capsys.readouterr().err
        counts.append(sum("wrote" in line for line in err.splitlines()))
    assert counts[0] >= 1 and counts == [counts[0]] * 3
    assert len(logging.getLogger("obd").handlers) == 1


def test_obd_log_env(tmp_path, monkeypatch, capsys):
    monkeypatch.setenv("OBD_LOG", "info")
    rc = run_cli(["--experiment", "lower_bound", "--dims", "4",
                  "--out", str(tmp_path / "l")])
    assert rc == 0
