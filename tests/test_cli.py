import functools
import json
import os

import pytest

from multitime import hj
from multitime.cli import main
from multitime.configs import EXAMPLE_CONFIGS, write_examples


@pytest.fixture(scope="module")
def config_dir(tmp_path_factory):
    d = tmp_path_factory.mktemp("configs")
    write_examples(str(d))
    return d


def set_pointer(cfg, pointer, value):
    """Set the config entry at a JSON pointer of object keys."""
    *parents, key = pointer.strip("/").split("/")
    for part in parents:
        cfg = cfg[part]
    cfg[key] = value


def run_cli(args, tmp_path, name="report.json"):
    out = tmp_path / name
    code = main(list(args) + ["--out", str(out)])
    report = json.loads(out.read_text()) if out.exists() else None
    return code, report


class TestSubcommands:
    def test_examples_writes_all_configs(self, tmp_path):
        code = main(["examples", "--dir", str(tmp_path / "cfgs")])
        assert code == 0
        names = sorted(os.listdir(tmp_path / "cfgs"))
        assert names == sorted(f"{k}.json" for k in EXAMPLE_CONFIGS)

    def test_check_free_quantum(self, config_dir, tmp_path):
        code, rep = run_cli(
            ["check", "--config", str(config_dir / "free_quantum.json")], tmp_path)
        assert code == 0
        assert rep["results"]["max_defect"] < 1e-12

    def test_check_coupled_qubits(self, config_dir, tmp_path):
        code, rep = run_cli(
            ["check", "--config", str(config_dir / "coupled_qubits_check.json")],
            tmp_path)
        assert code == 0
        # the commutator term gives ||C_12|| = g = 0.5 exactly
        assert rep["results"]["max_defect"] == pytest.approx(0.5, abs=1e-6)

    def test_holonomy_area_law(self, config_dir, tmp_path):
        code, rep = run_cli(
            ["holonomy", "--config", str(config_dir / "coupled_qubits.json")],
            tmp_path)
        assert code == 0
        want = rep["results"]["defect_vector_norm"]
        for row in rep["results"]["table"]:
            assert abs(row["holonomy_per_area"] - want) / want < 0.05

    def test_staircase_diagonal_reduction(self, config_dir, tmp_path):
        code, rep = run_cli(
            ["evolve", "--config",
             str(config_dir / "interaction_picture_staircase.json")], tmp_path)
        assert code == 0
        assert rep["results"]["norm_drift"] < 1e-10
        assert rep["results"]["diagonal_distance"] < 1e-6

    def test_validity_free(self, config_dir, tmp_path):
        code, rep = run_cli(
            ["validity", "--config",
             str(config_dir / "classical_free_validity.json")], tmp_path)
        assert code == 0
        assert rep["results"]["max_residual"] < 1e-8
        assert rep["results"]["accepted_samples"] > 0

    def test_grid_free(self, config_dir, tmp_path):
        code, rep = run_cli(
            ["grid", "--config", str(config_dir / "grid_free.json")], tmp_path)
        assert code == 0
        assert rep["results"]["max_dx1_dt2"] < 1e-9

    def test_grid_coupled_cross_dependence(self, config_dir, tmp_path):
        code, rep = run_cli(
            ["grid", "--config", str(config_dir / "grid_coupled.json")], tmp_path)
        assert code == 0
        assert rep["results"]["max_dx1_dt2"] > 0.05

    def test_grid_path_independence_scaling(self, config_dir, tmp_path):
        code, rep = run_cli(
            ["grid", "--config",
             str(config_dir / "grid_coupled_pathindep.json")], tmp_path)
        assert code == 0
        table = rep["results"]["table"]
        assert len(table) == 3
        for row in table[1:]:
            assert row["gap_ratio_vs_previous"] == pytest.approx(4.0, rel=0.2)

    def test_hj_residual(self, config_dir, tmp_path):
        code, rep = run_cli(
            ["hj", "--config", str(config_dir / "hj_free_residual.json")], tmp_path)
        assert code == 0
        assert rep["results"]["max_residual"] < 1e-8
        equal_time = rep["results"]["points"][0]
        assert equal_time["sum_rule_gap"] < 1e-10

    def test_foliation_independent_free(self, config_dir, tmp_path):
        code, rep = run_cli(
            ["foliation", "--config",
             str(config_dir / "hj_free_foliations.json")], tmp_path)
        assert code == 0
        assert rep["results"]["foliation_independent"] is True

    def test_foliation_dependent_coupled(self, config_dir, tmp_path):
        code, rep = run_cli(
            ["foliation", "--config",
             str(config_dir / "hj_coupled_foliations.json")], tmp_path)
        assert code == 0
        assert rep["results"]["foliation_independent"] is False
        assert max(max(row) for row in rep["results"]["distances"]) > 0.01

    def test_cjs_demo(self, config_dir, tmp_path):
        code, rep = run_cli(
            ["cjs", "--config", str(config_dir / "cjs_family.json")], tmp_path)
        assert code == 0
        rows = {r["id"]: r for r in rep["results"]["table"]}
        for name in ("free", "zero_coupling"):
            assert rows[name]["max_defect"] < 1e-8
            assert rows[name]["straightness_deviation"] < 1e-8
        for name in ("harmonic", "gaussian"):
            assert rows[name]["max_defect"] > 1e-4
        assert rows["harmonic"]["straightness_deviation"] > 1e-3
        # the gaussian force is exp(-16)-suppressed at the initial
        # separation, so only a faint bend is visible
        assert rows["gaussian"]["straightness_deviation"] > 1e-7


class TestDeterminism:
    def strip(self, rep):
        rep = dict(rep)
        rep.pop("duration_seconds")
        return rep

    def test_repeat_runs_identical(self, config_dir, tmp_path):
        args = ["check", "--config", str(config_dir / "classical_free_check.json")]
        _, a = run_cli(args, tmp_path, "a.json")
        _, b = run_cli(args, tmp_path, "b.json")
        assert self.strip(a) == self.strip(b)

    def test_jobs_do_not_change_results(self, config_dir, tmp_path):
        base = ["check", "--config",
                str(config_dir / "classical_harmonic_check.json")]
        _, a = run_cli(base + ["--jobs", "1"], tmp_path, "a.json")
        _, b = run_cli(base + ["--jobs", "4"], tmp_path, "b.json")
        assert a["results"] == b["results"]
        assert a["jobs"] == 1 and b["jobs"] == 4

    def test_jobs_env_override(self, config_dir, tmp_path, monkeypatch):
        monkeypatch.setenv("MULTITIME_JOBS", "3")
        _, rep = run_cli(["check", "--config",
                          str(config_dir / "classical_free_check.json"),
                          "--jobs", "7"], tmp_path)
        assert rep["jobs"] == 3

    def test_report_echoes_config_with_defaults(self, config_dir, tmp_path):
        _, rep = run_cli(
            ["check", "--config", str(config_dir / "free_quantum.json")], tmp_path)
        assert rep["config"]["formalism"] == "quantum"
        assert rep["config"]["seed"] == 0
        assert rep["config"]["experiment"]["h"] == 1e-4


class TestCsv:
    def test_evolve_csv(self, config_dir, tmp_path):
        out = tmp_path / "r.json"
        csv_path = tmp_path / "lines.csv"
        code = main(["evolve", "--config",
                     str(config_dir / "classical_free_evolve.json"),
                     "--out", str(out), "--csv", str(csv_path)])
        assert code == 0
        rep = json.loads(out.read_text())
        assert rep["csv"]["format_version"] == 1
        lines = csv_path.read_text().splitlines()
        assert lines[0] == "particle,t,x_1,p_1,dxdt_1,dpdt_1"
        assert len(lines) == 1 + 2 * rep["results"]["samples_per_line"]

    def test_csv_rejected_for_scalar_experiments(self, config_dir, tmp_path,
                                                 capsys):
        code = main(["check", "--config",
                     str(config_dir / "free_quantum.json"),
                     "--csv", str(tmp_path / "x.csv")])
        assert code == 2
        assert "no CSV output" in capsys.readouterr().err


class TestConfigErrors:
    def write(self, tmp_path, cfg):
        p = tmp_path / "cfg.json"
        p.write_text(json.dumps(cfg))
        return str(p)

    def run_expect_error(self, tmp_path, cfg, subcommand="check"):
        path = self.write(tmp_path, cfg)
        return main([subcommand, "--config", path])

    def test_missing_file(self, tmp_path, capsys):
        assert main(["check", "--config", str(tmp_path / "nope.json")]) == 2
        assert "cannot read config" in capsys.readouterr().err

    def test_invalid_json(self, tmp_path, capsys):
        p = tmp_path / "bad.json"
        p.write_text("{not json")
        assert main(["check", "--config", str(p)]) == 2
        assert "invalid JSON" in capsys.readouterr().err

    def test_unknown_key_pointer(self, config_dir, tmp_path, capsys):
        cfg = json.loads((config_dir / "free_quantum.json").read_text())
        cfg["experiment"]["typo"] = 1
        assert self.run_expect_error(tmp_path, cfg) == 2
        assert "/experiment/typo" in capsys.readouterr().err

    def test_bad_pauli_pointer(self, config_dir, tmp_path, capsys):
        cfg = json.loads((config_dir / "free_quantum.json").read_text())
        cfg["system"]["hamiltonians"]["terms"][0][0]["op"] = "QQ"
        assert self.run_expect_error(tmp_path, cfg) == 2
        assert "/system/hamiltonians/terms/0/0/op" in capsys.readouterr().err

    def test_bad_expression_pointer(self, config_dir, tmp_path, capsys):
        cfg = json.loads((config_dir / "classical_free_check.json").read_text())
        cfg["system"]["field"]["v"][0][0] = "p1_1 +"
        assert self.run_expect_error(tmp_path, cfg) == 2
        assert "/system/field" in capsys.readouterr().err

    def test_kind_subcommand_mismatch(self, config_dir, tmp_path, capsys):
        cfg = json.loads((config_dir / "free_quantum.json").read_text())
        assert self.run_expect_error(tmp_path, cfg, subcommand="holonomy") == 2
        assert "/experiment/kind" in capsys.readouterr().err

    def test_bad_formalism(self, config_dir, tmp_path, capsys):
        cfg = json.loads((config_dir / "free_quantum.json").read_text())
        cfg["formalism"] = "stringy"
        assert self.run_expect_error(tmp_path, cfg) == 2
        assert "/formalism" in capsys.readouterr().err

    @pytest.mark.parametrize("name,subcommand,pointer,value", [
        ("classical_free_evolve", "evolve", "/experiment/dt", 0.0),
        ("classical_free_evolve", "evolve", "/experiment/dt", -0.001),
        ("classical_free_evolve", "evolve", "/experiment/t_span", [5.0, 0.0]),
        ("classical_free_validity", "validity", "/experiment/dt", 0),
        ("classical_free_validity", "validity", "/experiment/t_span", [1.0, 1.0]),
        ("classical_free_validity", "validity", "/experiment/samples/window", -0.1),
        ("classical_free_validity", "validity", "/experiment/samples/window", 1.5),
        ("grid_coupled_pathindep", "grid", "/experiment/dt", 0.0),
        ("grid_coupled_pathindep", "grid", "/experiment/dt", -0.01),
        ("cjs_family", "cjs", "/experiment/dt", -0.001),
        ("cjs_family", "cjs", "/experiment/t_span", [2.0, 0.0]),
        ("hj_free_trajectories", "foliation", "/experiment/ds", 0.0),
        ("hj_free_trajectories", "foliation", "/experiment/s_span", [0.0, 0.0]),
        ("hj_free_foliations", "foliation", "/experiment/ds", -0.01),
        ("hj_free_foliations", "foliation", "/experiment/s_span", [1.0, -1.0]),
        ("interaction_picture_staircase", "evolve", "/experiment/max_dt", 0.0),
        ("coupled_qubits", "holonomy", "/experiment/max_dt", -0.01),
    ])
    def test_bad_step_or_span(self, config_dir, tmp_path, capsys, name,
                              subcommand, pointer, value):
        cfg = json.loads((config_dir / f"{name}.json").read_text())
        set_pointer(cfg, pointer, value)
        assert self.run_expect_error(tmp_path, cfg, subcommand) == 2
        err = capsys.readouterr().err
        assert f"config error: {pointer}: " in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("name,subcommand,key,value,pointer", [
        ("free_quantum_holonomy", "holonomy", "/experiment/sizes", [0.0],
         "/experiment/sizes/0"),
        ("coupled_qubits", "holonomy", "/experiment/sizes", [0.01, -0.01],
         "/experiment/sizes/1"),
        ("coupled_qubits", "holonomy", "/experiment/axes", [1, 3],
         "/experiment/axes/1"),
        ("coupled_qubits", "holonomy", "/experiment/axes", [2, 2],
         "/experiment/axes/1"),
        ("interaction_picture_staircase", "evolve", "/experiment/order", [3, 1],
         "/experiment/order/0"),
        ("interaction_picture_staircase", "evolve", "/experiment/order", [0, 1],
         "/experiment/order/0"),
        ("interaction_picture_staircase", "evolve", "/experiment/order", [1, 1],
         "/experiment/order/1"),
        ("interaction_picture_staircase", "evolve", "/experiment/order", [2],
         "/experiment/order"),
        ("free_quantum", "check", "/experiment/h", 0.0, "/experiment/h"),
        ("classical_free_check", "check", "/experiment/h", 0.0, "/experiment/h"),
        ("classical_harmonic_check", "check", "/experiment/h", -1e-4,
         "/experiment/h"),
        ("cjs_family", "cjs", "/experiment/h", 0.0, "/experiment/h"),
        ("hj_free_residual", "hj", "/experiment/h", 0.0, "/experiment/h"),
        ("hj_free_residual", "hj", "/experiment/h", -1e-3, "/experiment/h"),
        ("hj_free_residual", "check", "/experiment",
         {"kind": "defect-grid", "h": 0.0,
          "samples": {"count": 2, "t_box": [0.0, 1.0], "x_box": [-1.0, 1.0],
                      "p_box": [-1.0, 1.0]}},
         "/experiment/h"),
        ("classical_free_check", "check", "/system/field",
         {"type": "hamiltonian", "h": "p1_1^2/2 + p2_1^2/2", "h_step": 0.0},
         "/system/field/h_step"),
    ])
    def test_bad_axis_size_or_fd_step(self, config_dir, tmp_path, capsys, name,
                                      subcommand, key, value, pointer):
        # each of these used to escape main() as an uncaught exception
        cfg = json.loads((config_dir / f"{name}.json").read_text())
        set_pointer(cfg, key, value)
        assert self.run_expect_error(tmp_path, cfg, subcommand) == 2
        err = capsys.readouterr().err
        assert f"config error: {pointer}: " in err
        assert "Traceback" not in err

    def test_permuted_staircase_order_runs(self, config_dir, tmp_path):
        cfg = json.loads(
            (config_dir / "interaction_picture_staircase.json").read_text())
        cfg["experiment"]["order"] = [2, 1]
        cfg["experiment"]["compare_diagonal"] = False
        out = tmp_path / "r.json"
        assert main(["evolve", "--config", str(self.write(tmp_path, cfg)),
                     "--out", str(out)]) == 0
        assert json.loads(out.read_text())["results"]["final_times"] == [0.5, 0.5]

    def test_window_of_half_the_span_runs(self, config_dir, tmp_path):
        # the sampled path ends a rounding error short of t_span[1]
        cfg = json.loads((config_dir / "classical_free_validity.json").read_text())
        cfg["experiment"]["samples"]["window"] = 1.0
        code, rep = run_cli(["validity", "--config", self.write(tmp_path, cfg)],
                            tmp_path)
        assert code == 0
        assert rep["results"]["accepted_samples"] > 0

    def test_superluminal_foliation(self, config_dir, tmp_path, capsys):
        cfg = json.loads((config_dir / "hj_free_foliations.json").read_text())
        cfg["experiment"]["foliations"][1]["u"] = [1.5]
        assert self.run_expect_error(tmp_path, cfg, subcommand="foliation") == 2
        assert "foliations/1/u" in capsys.readouterr().err


class TestNumericalFailures:
    def test_degenerate_foliation_exit_code(self, tmp_path, capsys):
        cfg = {
            "formalism": "hj",
            "system": {"n": 1, "d": 1, "masses": [1.0], "S": "2*x1_1"},
            "experiment": {
                "kind": "trajectories",
                "foliation": {"u": [0.6]},
                "init_positions": [[0.0]],
                "s_span": [-0.5, 0.5],
                "ds": 0.01,
            },
        }
        p = tmp_path / "cfg.json"
        p.write_text(json.dumps(cfg))
        assert main(["foliation", "--config", str(p)]) == 3
        assert "numerical failure" in capsys.readouterr().err

    def test_anchoring_failure_exit_code(self, config_dir, capsys, monkeypatch):
        # one anchoring iteration cannot reach the t = 0 anchors on the
        # boosted foliations of this config
        monkeypatch.setattr(hj, "hj_trajectories_foliation", functools.partial(
            hj.hj_trajectories_foliation, max_anchor_iters=1))
        code = main(["foliation", "--config",
                     str(config_dir / "hj_coupled_foliations.json")])
        assert code == 3
        err = capsys.readouterr().err
        assert "numerical failure: world-line anchoring did not converge" in err
