import copy
import functools
import json
import math
import os
import re
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from multitime import (classical, cli, expr, hj, kinds_classical, kinds_hj, kinds_quantum,
                       linops, quantum, spec)
from multitime.cli import _SUBCOMMAND_KINDS, main, run_config
from multitime.configs import EXAMPLE_CONFIGS, write_examples
from multitime.spec import ConfigError, _sample_phase_points
from oracles import (defect_oracle, hj_defect_oracle, phase_points, quantum_defect_oracle,
                     sample_points_oracle, validity_tuples_oracle, with_constants)


def subcommand_of(cfg: dict) -> str:
    """The subcommand that runs ``cfg``, as the CLI's table of kinds names it."""
    return cli._KINDS[cfg["formalism"], cfg["experiment"]["kind"]].subcommand


@pytest.fixture(scope="module")
def config_dir(tmp_path_factory):
    d = tmp_path_factory.mktemp("configs")
    write_examples(str(d))
    return d


DELETE = object()  # the value of ``set_pointer`` that deletes the entry


def set_pointer(cfg, pointer, value):
    """Set the config entry at a JSON pointer (array indices as digits),
    or delete it for the value ``DELETE``."""
    *parents, key = [int(p) if p.isdigit() else p
                     for p in pointer.strip("/").split("/")]
    for part in parents:
        cfg = cfg[part]
    if value is DELETE:
        del cfg[key]
    else:
        cfg[key] = value


@pytest.fixture
def no_numerics(monkeypatch):
    """Make every numerical routine the CLI calls fail, so that a test
    passes only if its config error is raised before any numerics run."""
    def fail(*args, **kwargs):
        raise AssertionError("numerics ran before the config was checked")

    for module, names in [
        (quantum, ["quantum_consistency_defect", "quantum_defect_grid", "evolve_staircase",
                   "diagonal_evolution", "rectangle_holonomy",
                   "consistency_defect_matrix"]),
        (classical, ["classical_consistency_defect", "classical_defect_grid",
                     "evolve_equal_time", "validity_residual", "evolve_full_grid",
                     "grid_path_independence", "cjs_demo"]),
        (hj, ["hj_residual_multi", "hj_consistency_defect", "hj_defect_grid",
              "hj_trajectories_foliation", "foliation_compare"]),
    ]:
        for name in names:
            monkeypatch.setattr(module, name, fail)


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

    def test_check_three_times(self, tmp_path):
        # n = 3: every point lists the pairs 1,2 1,3 2,3, each the per-point
        # oracle's norm bit for bit, and the largest as its maximum
        terms = [[{"op": "ZII", "coeff": "t2"}, {"op": "XXI", "coeff": 0.5}],
                 [{"op": "IXI", "coeff": 1.0}, {"op": "IZZ", "coeff": "sin(t3)"}],
                 [{"op": "IIY", "coeff": "t1*t3"}]]
        cfg = {"formalism": "quantum", "system": {"n": 3, "local_dim": 2, "hamiltonians": {
            "type": "pauli_terms", "terms": terms}}, "experiment": {
            "kind": "defect-grid", "h": 1e-3,
            "grid": {"t_min": -0.5, "t_max": 0.5, "points_per_axis": 2}}}
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(cfg))
        code, rep = run_cli(["check", "--config", str(path)], tmp_path)
        assert code == 0
        sys_q = kinds_quantum.build_quantum_system(cfg["system"], "/system")
        points = rep["results"]["points"]
        assert [p["times"] for p in points] == [[a, b, c] for a in (-0.5, 0.5)
                                                 for b in (-0.5, 0.5) for c in (-0.5, 0.5)]
        for point in points:
            want = quantum_defect_oracle(sys_q, point["times"], h=1e-3)
            assert sorted(point) == ["h", "max_defect", "pairs", "times"]
            assert point["pairs"] == want and list(want) == ["1,2", "1,3", "2,3"]
            assert point["max_defect"] == max(want.values()) and point["h"] == 1e-3
        assert rep["results"]["max_defect"] == max(p["max_defect"] for p in points) > 0.1

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

    def test_partial_hamiltonians_field_evolves(self):
        # H_j = p_j^2/2 gives the shipped free field, v_j = p_j and w_j = 0, exactly
        cfg = copy.deepcopy(EXAMPLE_CONFIGS["classical_free_evolve"])
        want = run_config(copy.deepcopy(cfg), "evolve")["results"]
        cfg["system"]["field"] = copy.deepcopy(EXAMPLE_CONFIGS["grid_free"]["system"]["field"])
        assert run_config(cfg, "evolve")["results"] == want

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

    def test_grid_honours_h_step(self):
        cfg = copy.deepcopy(EXAMPLE_CONFIGS["grid_coupled"])
        hs = ["p1_1^2/2 + cos(x1_1 - x2_1)", "p2_1^2/2 + cos(x1_1 - x2_1)"]
        cfg["system"]["field"]["h_list"] = hs
        cfg["experiment"]["points"] = 3
        plain = run_config(copy.deepcopy(cfg), "grid", 1, None)["results"]
        cfg["system"]["field"]["h_step"] = 0.1
        stepped = run_config(cfg, "grid", 1, None)["results"]
        init = classical.PhasePoint(times=[0.0, 0.0], x=[[0.0], [1.0]],
                                    p=[[0.3], [-0.2]])
        grid = np.linspace(0.0, 1.0, 3)
        sol = classical.evolve_full_grid(classical.HamiltonianPair(hs, 2, 1, h=0.1),
                                         init, grid, grid, substeps=2)
        assert stepped["corner_p"] == sol.p[:, -1, -1, :].tolist()
        assert stepped["corner_p"] != plain["corner_p"]

    # Results of central-difference fields, pinned bit for bit: they were
    # computed when each component called numdiff.diff_callable on the
    # bindings, before the steps became expressions.
    def test_h_step_grid_pinned(self):
        cfg = copy.deepcopy(EXAMPLE_CONFIGS["grid_coupled"])
        cfg["system"]["field"]["h_step"] = 0.1
        assert run_config(cfg, "grid", 1, None)["results"] == {
            "corner_p": [[0.8800982902174099], [-0.7800982902174107]],
            "corner_x": [[1.0541615292300017], [0.3720081089920589]],
            "grid_shape": [50, 50], "max_dx1_dt2": 0.743071559734111}

    def test_h_step_check_pinned(self):
        cfg = copy.deepcopy(EXAMPLE_CONFIGS["classical_harmonic_check"])
        cfg["system"]["field"] = {
            "type": "hamiltonian", "h_step": 0.05,
            "h": "p1_1^2/2 + p2_1^2/2 + (x1_1 - x2_1)^4/4 + t1*p2_1^3/3"}
        cfg["experiment"]["samples"]["count"] = 10
        assert run_config(cfg, "check", 1, None)["results"] == {
            "h": 0.0001, "max_defect": 2.9444207964931923,
            "min_defect": 0.08749234260335273, "sample_count": 10}

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


class TestHJDefectGrid:
    """The HJ ``defect-grid`` kind reports the extremes of
    ``hj.hj_consistency_defect`` over its seeded samples."""

    SAMPLES = {"count": 20, "t_box": [0.0, 1.0], "x_box": [-1.0, 1.0],
               "p_box": [-1.0, 1.0]}

    @pytest.mark.parametrize("h_list,largest", [
        (None, 0.0),  # the free system: H_1 and H_2 commute
        (["p1_1^2/2 + x1_1*x2_1", "p2_1^2/2"], 0.8875),
    ])
    @pytest.mark.parametrize("h", [None, 1e-4])
    def test_matches_the_library(self, h_list, largest, h):
        cfg = copy.deepcopy(EXAMPLE_CONFIGS["hj_free_residual"])
        hams = cfg["system"]["hamiltonians"]
        if h_list is not None:
            hams["h_list"] = h_list
        cfg["experiment"] = {"kind": "defect-grid", "samples": dict(self.SAMPLES)}
        if h is not None:
            cfg["experiment"]["h"] = h
        results = run_config(cfg, "check")["results"]
        samples = _sample_phase_points(self.SAMPLES, "", 2, 1, cfg["seed"])
        h_list = with_constants(hams["h_list"], cfg["system"]["constants"])
        want = [hj_defect_oracle(h_list, pt, h=h).max_defect
                for pt in phase_points(samples, 2, 1)]
        assert results == {"sample_count": 20, "max_defect": max(want),
                           "min_defect": min(want)}
        assert results["max_defect"] == pytest.approx(largest, abs=1e-4)
        if largest:
            assert results["min_defect"] < results["max_defect"]


class TestHJConstants:
    """A constant is a number: a config gives the same results with its
    constants as with each constant's repr, in parentheses, in its place."""

    @pytest.mark.parametrize("name", ["hj_free_residual", "hj_free_foliations",
                                      "hj_coupled_foliations"])
    def test_constants_are_their_values(self, name):
        cfg = copy.deepcopy(EXAMPLE_CONFIGS[name])
        inlined = copy.deepcopy(cfg)
        system = inlined["system"]
        values = system.pop("constants")

        def inline(text):
            return re.sub(r"\w+", lambda m: f"({values[m[0]]!r})" if m[0] in values
                          else m[0], text)

        system["S"] = inline(system["S"])
        assert system["S"] != cfg["system"]["S"]
        hams = system.get("hamiltonians", {})
        if hams:
            hams["h_list"] = [inline(e) for e in hams["h_list"]]
            hams["h_total"] = inline(hams["h_total"])
        subcommand = subcommand_of(cfg)
        texts = [json.dumps(run_config(c, subcommand)["results"], sort_keys=True)
                 for c in (cfg, inlined)]
        assert texts[0] == texts[1]


class TestPlannedWork:
    """A quantum run evolves exactly the staircases whose substeps the CLI
    bounded: the CLI refuses the config once the bound is one below their
    total, and runs it at their total."""

    @pytest.mark.parametrize("name", ["interaction_picture_staircase", "coupled_qubits"])
    def test_run_executes_the_bounded_plan(self, monkeypatch, name):
        subcommand = subcommand_of(EXAMPLE_CONFIGS[name])
        evolve, segments = quantum.evolve_staircase, []

        def record(sys_q, state, path):
            segments.extend(path)
            return evolve(sys_q, state, path)

        monkeypatch.setattr(quantum, "evolve_staircase", record)
        run_config(copy.deepcopy(EXAMPLE_CONFIGS[name]), subcommand)
        total = sum(seg.substeps for seg in segments)
        assert total > 0
        monkeypatch.setattr(expr, "MAX_STEPS", total - 1)
        with pytest.raises(ConfigError, match=f"^/experiment/max_dt: the run takes "
                                              f"{total} substeps; at most {total - 1} "):
            run_config(copy.deepcopy(EXAMPLE_CONFIGS[name]), subcommand)
        monkeypatch.setattr(expr, "MAX_STEPS", total)
        segments.clear()
        run_config(copy.deepcopy(EXAMPLE_CONFIGS[name]), subcommand)
        assert sum(seg.substeps for seg in segments) == total


class TestRandomDraws:
    """One draw serves every sample: the stream and the values are those of
    drawing each sample's numbers in turn, as the oracles do."""

    @settings(max_examples=40, deadline=None, derandomize=True, database=None)
    @given(n=st.integers(1, 3), d=st.integers(1, 3), count=st.integers(1, 5),
           seed=st.integers(0, 2 ** 32), boxes=st.lists(
               st.tuples(st.floats(-3.0, 3.0), st.floats(0.0, 2.0)), min_size=3, max_size=3))
    def test_sample_points(self, n, d, count, seed, boxes):
        t_box, x_box, p_box = [[lo, lo + width] for lo, width in boxes]
        cfg = {"count": count, "t_box": t_box, "x_box": x_box, "p_box": p_box}
        got = _sample_phase_points(cfg, "", n, d, seed)
        want = sample_points_oracle(count, t_box, x_box, p_box, n, d, seed)
        assert got.shape == want.shape == (count, n + 2 * n * d)
        assert got.tobytes() == want.tobytes()

    def test_classical_defect_grid_config(self):
        cfg = copy.deepcopy(EXAMPLE_CONFIGS["classical_harmonic_check"])
        samples, h = cfg["experiment"]["samples"], 1e-4
        field = kinds_classical._classical_system(cfg["system"], "/system")[2]
        want = [defect_oracle(field, pt, h).max_defect for pt in phase_points(
            sample_points_oracle(samples["count"], samples["t_box"], samples["x_box"],
                                 samples["p_box"], 2, 1, cfg["seed"]), 2, 1)]
        assert run_config(cfg, "check")["results"] == {
            "sample_count": 100, "max_defect": max(want), "min_defect": min(want), "h": h}

    @pytest.mark.parametrize("n, seed, count, window", [(3, 7, 40, 0.3), (2, 0, 25, 0.0),
                                                        (1, 3, 5, 1.0)])
    def test_validity_tuples(self, n, seed, count, window):
        cfg = copy.deepcopy(EXAMPLE_CONFIGS["classical_free_validity"])
        cfg["seed"] = seed
        cfg["system"]["n"] = n
        cfg["system"]["field"] = {"type": "expressions",
                                  "v": [[f"p{j}_1"] for j in range(1, n + 1)],
                                  "w": [["0"]] * n}
        exp = cfg["experiment"]
        exp["init"] = {"t": 0.0, "x": [[4.0 * j] for j in range(n)], "p": [[0.1]] * n}
        exp["samples"] = {"count": count, "window": window}
        rows = run_config(copy.deepcopy(cfg), "validity")["results"]["rows"]
        field = kinds_classical._classical_system(cfg["system"], "/system")[2]
        init = kinds_classical._phase_point(exp["init"], "", n, 1)
        lo, hi = classical.evolve_equal_time(field, init, tuple(exp["t_span"]),
                                             exp["dt"]).common_time_range()
        assert [row["times"] for row in rows] == validity_tuples_oracle(
            count, window, lo, hi, n, seed)


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

    @pytest.mark.parametrize("extra, env", [(["--jobs", "4"], None),
                                            ([], "abc")],
                             ids=["jobs-flag", "jobs-env"])
    def test_jobs_are_ignored(self, config_dir, tmp_path, monkeypatch, extra, env):
        """Runs are serial: ``--jobs`` is accepted and ignored, and the
        MULTITIME_JOBS environment variable is not read."""
        base = ["check", "--config",
                str(config_dir / "classical_harmonic_check.json")]
        _, plain = run_cli(base, tmp_path, "plain.json")
        if env is not None:
            monkeypatch.setenv("MULTITIME_JOBS", env)
        code, rep = run_cli(base + extra, tmp_path)
        assert code == 0
        assert "jobs" not in rep
        assert self.strip(rep) == self.strip(plain)

    def test_report_echoes_config_with_defaults(self, config_dir, tmp_path):
        _, rep = run_cli(
            ["check", "--config", str(config_dir / "free_quantum.json")], tmp_path)
        assert rep["config"]["formalism"] == "quantum"
        assert rep["config"]["seed"] == 0
        assert rep["config"]["experiment"]["h"] == 1e-4


class TestOutputErrors:
    @pytest.mark.parametrize("case", ["out-in-missing-dir", "out-is-dir",
                                      "csv-in-missing-dir", "examples-below-file",
                                      "out-in-missing-dir-with-csv"])
    def test_unwritable_output_exits_2(self, config_dir, tmp_path, capsys, case):
        """An output path that cannot be written exits 2 with a message
        naming it, not with a traceback, and leaves no output behind."""
        (tmp_path / "file").write_text("")
        evolve = ["evolve", "--config", str(config_dir / "classical_free_evolve.json")]
        csv_path = tmp_path / "lines.csv"
        args, target = {
            "out-in-missing-dir": (evolve + ["--out"], tmp_path / "missing" / "r.json"),
            "out-is-dir": (evolve + ["--out"], tmp_path),
            "csv-in-missing-dir": (evolve + ["--csv"], tmp_path / "missing" / "r.csv"),
            "examples-below-file": (["examples", "--dir"], tmp_path / "file" / "cfgs"),
            "out-in-missing-dir-with-csv": (evolve + ["--csv", str(csv_path), "--out"],
                                            tmp_path / "missing" / "r.json"),
        }[case]
        assert main(args + [str(target)]) == 2
        out, err = capsys.readouterr()
        assert err.startswith("output error: ") and str(target) in err
        assert "Traceback" not in err and out == ""
        assert sorted(p.name for p in tmp_path.iterdir()) == ["file"]


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

    def test_grid_csv(self, config_dir, tmp_path):
        out, csv_path = tmp_path / "r.json", tmp_path / "grid.csv"
        code = main(["grid", "--config", str(config_dir / "grid_free.json"),
                     "--out", str(out), "--csv", str(csv_path)])
        assert code == 0
        lines = csv_path.read_text().splitlines()
        assert lines[0] == "t1,t2,x1_1,x2_1,p1_1,p2_1"
        assert len(lines) == 1 + 50 * 50
        # the t2 column is innermost; the first node is the initial state
        assert lines[1] == "0.0,0.0,0.0,1.0,0.3,-0.2"
        assert lines[2].startswith("0.0,0.02040816326530612,")
        rep = json.loads(out.read_text())
        assert rep["csv"]["columns"] == lines[0].split(",")

    def test_csv_rejected_for_scalar_experiments(self, config_dir, tmp_path,
                                                 capsys, no_numerics):
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

    def expect_error(self, config_dir, tmp_path, capsys, name, subcommand,
                     key, value, pointer, message=""):
        cfg = json.loads((config_dir / f"{name}.json").read_text())
        set_pointer(cfg, key, value)
        assert self.run_expect_error(tmp_path, cfg, subcommand) == 2
        err = capsys.readouterr().err
        assert f"config error: {pointer}: {message}" in err
        assert "Traceback" not in err

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

    def test_missing_experiment_kind(self, config_dir, tmp_path, capsys, no_numerics):
        self.expect_error(config_dir, tmp_path, capsys, "free_quantum", "check",
                          "/experiment/kind", DELETE, "/experiment", "missing required key 'kind'")

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
    def test_bad_step_or_span(self, config_dir, tmp_path, capsys, no_numerics,
                              name, subcommand, pointer, value):
        self.expect_error(config_dir, tmp_path, capsys, name, subcommand,
                          pointer, value, pointer)

    @pytest.mark.parametrize("name,subcommand,key,value,pointer", [
        ("free_quantum_holonomy", "holonomy", "/experiment/sizes", [0.0],
         "/experiment/sizes/0"),
        ("coupled_qubits", "holonomy", "/experiment/sizes", [0.01, -0.01],
         "/experiment/sizes/1"),
        ("coupled_qubits", "holonomy", "/experiment/sizes", [0.01, 1e-300],
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
        # a tolerance <= 0 would call families 3.5e-11 apart dependent
        ("hj_free_foliations", "foliation", "/experiment/tolerance", 0,
         "/experiment/tolerance"),
        ("hj_free_foliations", "foliation", "/experiment/tolerance", -1.0,
         "/experiment/tolerance"),
        # each of these would build all its samples or time tuples up front
        ("free_quantum", "check", "/experiment/grid/points_per_axis", 1001,
         "/experiment/grid/points_per_axis"),
        ("classical_free_check", "check", "/experiment/samples/count", 1000001,
         "/experiment/samples/count"),
        ("cjs_family", "cjs", "/experiment/samples/count", 10 ** 400,
         "/experiment/samples/count"),
        ("classical_free_validity", "validity", "/experiment/samples/count", 1000001,
         "/experiment/samples/count"),
        ("hj_free_residual", "check", "/experiment",
         {"kind": "defect-grid",
          "samples": {"count": 1000001, "t_box": [0.0, 1.0], "x_box": [-1.0, 1.0],
                      "p_box": [-1.0, 1.0]}},
         "/experiment/samples/count"),
        # each of these would build more than 10^6 propagators or RK4 steps
        # (or, at 5e-324, count its substeps as an infinite float)
        ("interaction_picture_staircase", "evolve", "/experiment/max_dt", 1e-300,
         "/experiment/max_dt"),
        ("interaction_picture_staircase", "evolve", "/experiment/max_dt", 5e-324,
         "/experiment/max_dt"),
        ("interaction_picture_staircase", "evolve", "/experiment/diagonal_steps",
         10 ** 15, "/experiment/diagonal_steps"),
        ("free_quantum_holonomy", "holonomy", "/experiment/max_dt", 1e-300,
         "/experiment/max_dt"),
        ("grid_coupled_pathindep", "grid", "/experiment/refinements", 10 ** 9,
         "/experiment/refinements"),
    ])
    def test_bad_axis_size_or_fd_step(self, config_dir, tmp_path, capsys,
                                      no_numerics, name, subcommand, key, value,
                                      pointer):
        # each of these used to escape main() as an uncaught exception
        self.expect_error(config_dir, tmp_path, capsys, name, subcommand,
                          key, value, pointer)

    @pytest.mark.parametrize("name,subcommand", [
        ("free_quantum", "check"), ("interaction_picture_staircase", "evolve")])
    def test_quantum_dimension_bounded(self, config_dir, tmp_path, capsys, no_numerics,
                                       monkeypatch, name, subcommand):
        # 2^11 > 1024: refused at n before any Pauli matrix is built
        def no_matrices(*args, **kwargs):
            raise AssertionError("a matrix was built before n was checked")

        monkeypatch.setattr(linops, "pauli_string", no_matrices)
        self.expect_error(config_dir, tmp_path, capsys, name, subcommand,
                          "/system/n", 11, "/system/n", "local_dim^n exceeds 1024")

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

    def test_superluminal_foliation(self, config_dir, tmp_path, capsys,
                                    no_numerics):
        cfg = json.loads((config_dir / "hj_free_foliations.json").read_text())
        cfg["experiment"]["foliations"][1]["u"] = [1.5]
        assert self.run_expect_error(tmp_path, cfg, subcommand="foliation") == 2
        assert "foliations/1/u" in capsys.readouterr().err

    @pytest.mark.parametrize("name,subcommand,pointer,value", [
        ("classical_free_evolve", "evolve", "/experiment/init/t", math.nan),
        ("grid_coupled_pathindep", "grid", "/experiment/rectangle/1", math.nan),
        ("interaction_picture_staircase", "evolve", "/experiment/start/0", math.nan),
        ("interaction_picture_staircase", "evolve", "/experiment/end/1", math.nan),
        ("coupled_qubits_check", "check", "/system/hamiltonians/terms/1/1/coeff",
         math.nan),
        ("hj_free_trajectories", "foliation", "/experiment/ds", math.inf),
        ("classical_free_check", "check", "/experiment/h", math.inf),
        ("hj_free_residual", "hj", "/system/masses/1", -math.inf),
        ("free_quantum", "check", "/system/hamiltonians/terms/0/0/coeff", math.inf),
        ("interaction_picture_check", "check",
         "/system/hamiltonians/base/0/coeff", -math.inf),
        pytest.param("free_quantum", "check", "/experiment/grid/t_max", 10**400,
                     id="integer-beyond-float"),
    ])
    def test_non_finite_number(self, config_dir, tmp_path, capsys, no_numerics,
                               name, subcommand, pointer, value):
        # json reads NaN and Infinity literals; each of these escaped main()
        self.expect_error(config_dir, tmp_path, capsys, name, subcommand,
                          pointer, value, pointer, "expected a finite number")

    def test_overflowing_staircase_leg(self, config_dir, tmp_path, capsys, no_numerics):
        # end - start is inf: numpy's subtraction warned, and max_dt was blamed
        cfg = json.loads((config_dir / "interaction_picture_staircase.json").read_text())
        cfg["experiment"]["start"] = [-1e308, 0.0]
        cfg["experiment"]["end"] = [1e308, 0.5]
        assert self.run_expect_error(tmp_path, cfg, subcommand="evolve") == 2
        assert ("config error: /experiment/end: end - start: expected a finite number, "
                "got inf") in capsys.readouterr().err

    @pytest.mark.parametrize("name,subcommand,pointer,value", [
        ("classical_free_check", "check", "/experiment/samples/t_box", [3.0, 1.0]),
        ("classical_harmonic_check", "check", "/experiment/samples/x_box",
         [-1.0, -1e308]),
        ("classical_free_check", "check", "/experiment/samples/p_box",
         [-1e308, 1e308]),
        ("cjs_family", "cjs", "/experiment/samples/t_box", [3.0, 1.0]),
        ("cjs_family", "cjs", "/experiment/samples/p_box", [-1.0, -1e308]),
    ])
    def test_bad_sample_box(self, config_dir, tmp_path, capsys, no_numerics,
                            name, subcommand, pointer, value):
        self.expect_error(config_dir, tmp_path, capsys, name, subcommand,
                          pointer, value, pointer, "expected a pair lo <= hi")

    @pytest.mark.parametrize("box,value", [("t_box", [3.0, 1.0]),
                                           ("x_box", [-1.0, -1e308])])
    def test_bad_hj_sample_box(self, config_dir, tmp_path, capsys, no_numerics,
                               box, value):
        samples = {"count": 2, "t_box": [0.0, 1.0], "x_box": [-1.0, 1.0],
                   "p_box": [-1.0, 1.0], box: value}
        self.expect_error(config_dir, tmp_path, capsys, "hj_free_residual",
                          "check", "/experiment",
                          {"kind": "defect-grid", "samples": samples},
                          f"/experiment/samples/{box}", "expected a pair lo <= hi")

    @pytest.mark.parametrize("value", ["no", 0, None])
    def test_compare_diagonal_must_be_boolean(self, config_dir, tmp_path, capsys,
                                              no_numerics, value):
        self.expect_error(config_dir, tmp_path, capsys,
                          "interaction_picture_staircase", "evolve",
                          "/experiment/compare_diagonal", value,
                          "/experiment/compare_diagonal", "expected a boolean")

    def test_diagonal_comparison_needs_equal_times(self, config_dir, tmp_path,
                                                   capsys, no_numerics):
        self.expect_error(config_dir, tmp_path, capsys,
                          "interaction_picture_staircase", "evolve",
                          "/experiment/start", [0.0, 0.1],
                          "/experiment/compare_diagonal", "diagonal comparison")

    def test_bad_third_hj_point(self, config_dir, tmp_path, capsys, no_numerics):
        cfg = json.loads((config_dir / "hj_free_residual.json").read_text())
        cfg["experiment"]["points"].append({"times": [0.0], "x": [[0.0], [1.0]]})
        assert self.run_expect_error(tmp_path, cfg, "hj") == 2
        assert ("config error: /experiment/points/2/times: expected 2 entries"
                in capsys.readouterr().err)

    def test_csv_checked_before_the_run(self, config_dir, tmp_path, capsys,
                                        no_numerics):
        code = main(["cjs", "--config", str(config_dir / "cjs_family.json"),
                     "--csv", str(tmp_path / "x.csv")])
        assert code == 2
        assert ("config error: /experiment/kind: kind 'cjs-demo' produces no CSV "
                "output" in capsys.readouterr().err)
        assert not (tmp_path / "x.csv").exists()

    def test_kind_of_another_formalism(self, config_dir, tmp_path, capsys,
                                       no_numerics):
        cfg = json.loads((config_dir / "free_quantum.json").read_text())
        cfg["experiment"]["kind"] = "validity"
        assert self.run_expect_error(tmp_path, cfg, "validity") == 2
        assert ("config error: /experiment/kind: unsupported quantum kind "
                "'validity'" in capsys.readouterr().err)

    def test_integer_beyond_parser_limit(self, tmp_path, capsys):
        p = tmp_path / "big.json"
        p.write_text('{"formalism": "quantum", "seed": 1' + "0" * 5000 + "}")
        assert main(["check", "--config", str(p)]) == 2
        assert "config error: /: invalid JSON" in capsys.readouterr().err

    def test_nesting_beyond_decoder_limit(self, tmp_path, capsys):
        """The JSON decoder's RecursionError is a config error, not a traceback."""
        p = tmp_path / "deep.json"
        p.write_text("[" * 200000 + "]" * 200000)
        assert main(["check", "--config", str(p)]) == 2
        assert capsys.readouterr().err.startswith("config error: /: invalid JSON: ")

    @pytest.mark.parametrize("pointer", ["/system/hamiltonians/base",
                                         "/system/hamiltonians/k/1"])
    def test_empty_pauli_sum_is_zero(self, config_dir, pointer):
        cfg = copy.deepcopy(EXAMPLE_CONFIGS["interaction_picture_check"])
        set_pointer(cfg, pointer, [])
        results = run_config(cfg, "check", 1, None)["results"]
        if pointer.endswith("base"):
            # no base rotation: H_j = K_j, as the same terms give directly
            same = copy.deepcopy(EXAMPLE_CONFIGS["coupled_qubits_check"])
            same["system"]["hamiltonians"]["terms"] = (
                EXAMPLE_CONFIGS["interaction_picture_check"]
                ["system"]["hamiltonians"]["k"])
            same["experiment"] = cfg["experiment"]
            want = run_config(same, "check", 1, None)["results"]["max_defect"]
            assert results["max_defect"] == pytest.approx(want, abs=1e-12)
            assert want > 0.1
        else:
            # H_2 = 0 commutes with everything
            assert results["max_defect"] < 1e-12

    @pytest.mark.parametrize("name,key,value,pointer", [
        ("hj_free_foliations", "/experiment/ds", 1e-300, "/experiment/ds"),
        ("hj_free_trajectories", "/experiment/ds", 1e-300, "/experiment/ds"),
        ("hj_coupled_foliations", "/experiment/s_span/0", -1e300, "/experiment/s_span"),
        ("hj_free_trajectories", "/experiment/s_span/1", 1e300, "/experiment/s_span"),
        ("hj_free_foliations", "/experiment/init_positions/0/0", 1e300,
         "/experiment/init_positions"),
        ("hj_coupled_foliations", "/experiment/init_positions/1/0", -1e300,
         "/experiment/init_positions"),
    ])
    def test_too_many_foliation_leaves(self, config_dir, tmp_path, capsys,
                                       no_numerics, name, key, value, pointer):
        # numpy used to fail on the leaf array: "Maximum allowed size exceeded"
        self.expect_error(config_dir, tmp_path, capsys, name, "foliation", key,
                          value, pointer, "the run on the foliation")

    @pytest.mark.parametrize("name,key,value,pointer,steps", [
        ("classical_free_evolve", "/experiment/dt", 1e-300, "/experiment/dt", "5e+300"),
        ("classical_free_evolve", "/experiment/t_span/1", 1e300, "/experiment/dt",
         "1e+303"),
        ("classical_free_validity", "/experiment/dt", 1e-300, "/experiment/dt", "2e+300"),
        ("classical_harmonic_validity", "/experiment/dt", 1e-6, "/experiment/dt",
         "4e+06"),
        ("cjs_family", "/experiment/dt", 1e-300, "/experiment/dt", "2e+300"),
        # one path around the rectangle: |dt1| / dt + |dt2| / dt steps
        ("grid_coupled_pathindep", "/experiment/dt", 1e-300, "/experiment/dt",
         "8e+299"),
        ("grid_coupled_pathindep", "/experiment/rectangle/1", -1e300,
         "/experiment/dt", "1e+302"),
        # the whole grid: points^2 * substeps steps
        ("grid_free", "/experiment/points", 10 ** 9, "/experiment/points", "2e+18"),
        ("grid_coupled", "/experiment/substeps", 10 ** 6, "/experiment/points",
         "2.5e+09"),
        # counts beyond the floats, whose message used to overflow (exit 3)
        ("grid_free", "/experiment/points", 10 ** 400, "/experiment/points", "inf"),
        ("grid_free", "/experiment/substeps", 10 ** 400, "/experiment/points", "inf"),
    ])
    def test_too_many_rk4_steps(self, config_dir, tmp_path, capsys, no_numerics,
                                name, key, value, pointer, steps):
        # each would keep the states of a practically endless run in memory
        subcommand = subcommand_of(EXAMPLE_CONFIGS[name])
        self.expect_error(config_dir, tmp_path, capsys, name, subcommand, key, value,
                          pointer, f"the run takes {steps} RK4 steps; at most "
                                   "1000000 are allowed")

    @pytest.mark.parametrize("name,pointer,value", [
        *[(name, "/system/masses", [1.0, 1.0]) for name, cfg in EXAMPLE_CONFIGS.items()
          if cfg["formalism"] == "classical"],
        ("cjs_family", "/system/field", EXAMPLE_CONFIGS["grid_free"]["system"]["field"]),
    ])
    def test_removed_classical_key(self, config_dir, tmp_path, capsys, no_numerics,
                                   name, pointer, value):
        # classical masses were never read (a field carries its own), and
        # the cjs-demo kind builds only the fields of its family
        subcommand = subcommand_of(EXAMPLE_CONFIGS[name])
        self.expect_error(config_dir, tmp_path, capsys, name, subcommand,
                          pointer, value, pointer, "unknown key")

    @pytest.mark.parametrize("t,key,value,message", [
        # np.gradient divides by the t2 node gaps to give dx1/dt2
        (0.0, "t2_max", 0.0, "are not all distinct"),
        (1e20, "t2_max", 1.0, "are not all distinct"),  # below the rounding of t
        (1e308, "t2_max", 1e308, "t + t2_max = inf is not finite"),
        (-1e308, "t1_max", -1e308, "t + t1_max = -inf is not finite"),
    ])
    def test_degenerate_grid_axis(self, config_dir, tmp_path, capsys, no_numerics,
                                  t, key, value, message):
        cfg = json.loads((config_dir / "grid_free.json").read_text())
        cfg["experiment"]["init"]["t"] = t
        cfg["experiment"][key] = value
        assert self.run_expect_error(tmp_path, cfg, "grid") == 2
        err = capsys.readouterr().err
        assert f"config error: /experiment/{key}: " in err and message in err

    @pytest.mark.parametrize("name,pointer,value", [
        ("coupled_qubits_check", "/system/hamiltonians/terms/1/1/coeff", "0.25*t3"),
        ("free_quantum", "/system/hamiltonians/terms/0/0/coeff", "cos(t)"),
        ("hj_free_residual", "/system/S", "k1*x1_1 + t3"),
        ("hj_free_trajectories", "/system/S", "k1*x1_2"),
        ("hj_free_foliations", "/system/S", "k3*x1_1"),
        ("hj_coupled_foliations", "/system/S", "p1_1*x1_1"),
        ("hj_free_residual", "/system/hamiltonians/h_list/0", "p1_1^2/2 + t"),
        ("hj_free_residual", "/system/hamiltonians/h_list/1", "p3_1^2/2"),
        ("hj_free_residual", "/system/hamiltonians/h_total", "p1_1^2/2 + t0"),
        ("classical_free_check", "/system/field/v/1/0", "p2_1 + q"),
        ("cjs_family", "/experiment/family/2/field/w/0/0", "t3"),
        ("grid_coupled", "/system/field/h_list/1", "p2_1^2/2 + t"),
    ])
    def test_undeclared_variable(self, config_dir, tmp_path, capsys, no_numerics,
                                 name, pointer, value):
        # each of these used to fail only once the numerics ran
        subcommand = subcommand_of(EXAMPLE_CONFIGS[name])
        self.expect_error(config_dir, tmp_path, capsys, name, subcommand,
                          pointer, value, pointer, "undeclared variables")

    def test_declared_variables_run(self, config_dir, tmp_path):
        # the constants in every HJ expression, the single time t in h_total
        cfg = json.loads((config_dir / "hj_free_residual.json").read_text())
        ham = cfg["system"]["hamiltonians"]
        ham["h_list"][0] += " + 0*k1*t2*x2_1"
        ham["h_total"] += " + 0*t*k2"
        code, rep = run_cli(["hj", "--config", self.write(tmp_path, cfg)], tmp_path)
        assert code == 0 and rep["results"]["max_residual"] < 1e-8

    @pytest.mark.parametrize("name", ["t1", "t", "x2_1", "p1_1"])
    def test_constant_named_like_a_variable(self, config_dir, tmp_path, capsys,
                                            no_numerics, name):
        # replaced by its number, it would silently replace the variable
        pointer = f"/system/constants/{name}"
        self.expect_error(config_dir, tmp_path, capsys, "hj_free_residual", "hj",
                          pointer, 0.5, pointer, "names a variable of the system")


def deep(shape: str, depth: int, atom: str) -> str:
    """An expression of ``atom`` ``depth`` levels deep in one of four shapes."""
    return {"brackets": "(" * depth + atom + ")" * depth,
            "sum": " + ".join([atom] * depth),
            "minus signs": "-" * (depth - 1) + atom,
            "powers": "^".join([atom] * depth)}[shape]


class TestDeepExpressions:
    """An expression deeper than ``expr.MAX_DEPTH`` exits 2 at its pointer;
    it used to exhaust the recursion limit and exit 1 with a traceback, in
    the parser (brackets) or in a pass over the trees built from it."""

    SHAPES = ["brackets", "sum", "minus signs", "powers"]

    @pytest.mark.parametrize("shape", SHAPES)
    def test_ten_thousand_levels_exit_2_at_the_pointer(self, shape, tmp_path, capsys):
        cfg = copy.deepcopy(EXAMPLE_CONFIGS["classical_free_evolve"])
        cfg["system"]["field"]["v"][0][0] = deep(shape, 10_000, "p1_1")
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(cfg))
        assert main(["evolve", "--config", str(path), "--out", str(tmp_path / "r.json")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: /system/field/v/0/0: bad expression: the "
                              f"expression nests deeper than {expr.MAX_DEPTH} levels (column ")
        assert "Traceback" not in err and not (tmp_path / "r.json").exists()

    @pytest.mark.parametrize("shape", SHAPES)
    def test_deepest_accepted_runs_a_check_and_a_residual(self, shape):
        # every tree derived from it stays within the default recursion limit:
        # the field's exact gradients and the central differences of its D_j,
        # its D_j from exact second derivatives, built and then compared with a
        # memo's (the deepest walk), and the HJ gradients and residuals; one
        # variable in every leaf gives the deepest derivatives measured
        h = deep(shape, expr.MAX_DEPTH, "x1_1")
        check = copy.deepcopy(EXAMPLE_CONFIGS["classical_harmonic_check"])
        check["system"]["field"] = {"type": "hamiltonian", "h": h}
        check["experiment"]["samples"].update(count=4, x_box=[0.5, 1.0], p_box=[0.5, 1.0])
        assert np.isfinite(run_config(check, "check")["results"]["max_defect"])
        for _ in range(2):  # the second field's trees are equal to the memo's, not the same
            field = classical.hamiltonian_vector_field(h, 2, 1)
            grid = classical.classical_defect_grid(field, np.full((1, 6), 0.75), None)
            assert np.isfinite(grid).all()
        residual = copy.deepcopy(EXAMPLE_CONFIGS["hj_free_residual"])
        residual["system"]["S"] = deep(shape, expr.MAX_DEPTH, "x1_1")
        for point in residual["experiment"]["points"]:
            point.update(times=[0.5, 0.75], x=[[0.5], [0.75]])
        for step in ({}, {"h": 1e-4}):  # exact, and central differences
            residual["experiment"].update(step)
            assert run_config(copy.deepcopy(residual), "hj")["results"]["max_residual"] >= 0.0


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

    def test_tilt_whose_square_overflows_exits_2(self, config_dir, tmp_path, capsys):
        # |u|^2 overflows, with no numpy warning on the way
        cfg = json.loads((config_dir / "hj_free_trajectories.json").read_text())
        cfg["experiment"]["foliation"]["u"] = [1e200]
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(cfg))
        assert main(["foliation", "--config", str(path), "--out", str(tmp_path / "r.json")]) == 2
        assert capsys.readouterr().err == ("config error: /experiment/foliation/u: "
                                           "|u| = 1e+200 >= 1: leaves not spacelike\n")

    @pytest.mark.parametrize("name,subcommand,pointer", [
        ("coupled_qubits", "holonomy", "defect_vector_norm"),
        ("coupled_qubits_check", "check", "points/0/pairs/1,2"),
    ])
    def test_commutator_that_overflows_exit_code(self, config_dir, tmp_path, capsys, name,
                                                 subcommand, pointer):
        # both first coefficients 1e300: the commutator's products overflow
        # to a NaN, with no numpy warning on the way
        cfg = json.loads((config_dir / f"{name}.json").read_text())
        for terms in cfg["system"]["hamiltonians"]["terms"]:
            terms[0]["coeff"] = 1e300
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(cfg))
        assert main([subcommand, "--config", str(path), "--out", str(tmp_path / "r.json")]) == 3
        assert capsys.readouterr().err == (
            f"numerical failure: non-finite result at /results/{pointer}: nan\n")

    def test_linalg_error_exit_code(self, config_dir, tmp_path, capsys, monkeypatch):
        # an eigendecomposition that does not converge, in the propagators of
        # a holonomy run: exit 3 with its message, and no report left behind
        def no_convergence(*args, **kwargs):
            raise np.linalg.LinAlgError("Eigenvalues did not converge")

        monkeypatch.setattr(np.linalg, "eigh", no_convergence)
        out = tmp_path / "r.json"
        code = main(["holonomy", "--config", str(config_dir / "coupled_qubits.json"),
                     "--out", str(out)])
        assert code == 3 and not out.exists()
        assert capsys.readouterr().err == "numerical failure: Eigenvalues did not converge\n"

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

    @pytest.mark.parametrize("name,mass,code,message", [
        # a light particle outruns the leaves and never reaches t = 0
        ("hj_free_foliations", 1e-3, 3, "misses the anchor time t = 0"),
        ("hj_coupled_foliations", 1e-3, 3, "misses the anchor time t = 0"),
        # its times round to one value on every leaf
        ("hj_free_foliations", 1e-300, 3, "do not increase along the leaves"),
        ("hj_coupled_foliations", 1e-300, 3, "non-finite state"),
        # its speed overflows when squared, and is taken again scaled
        ("hj_free_trajectories", 1e-300, 0, None),
    ])
    def test_light_particle_exit_code(self, config_dir, tmp_path, capsys,
                                      name, mass, code, message):
        cfg = json.loads((config_dir / f"{name}.json").read_text())
        cfg["system"]["masses"][1] = mass
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(cfg))
        assert main(["foliation", "--config", str(path), "--out",
                     str(tmp_path / "r.json")]) == code
        err = capsys.readouterr().err
        if code:
            assert "numerical failure: " in err and message in err
        else:
            speed = json.loads((tmp_path / "r.json").read_text())["results"]["max_speed"]
            assert err == "" and 1e154 < speed < math.inf
        assert "Traceback" not in err

    def test_anchor_time_missed_message(self, config_dir, tmp_path, capsys):
        # the anchoring's scalar query at t = 0 refuses as an array query does
        cfg = json.loads((config_dir / "hj_free_trajectories.json").read_text())
        cfg["system"]["masses"][1] = 1e-3
        cfg["experiment"]["foliation"] = {"u": [0.3]}
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(cfg))
        assert main(["foliation", "--config", str(path), "--out",
                     str(tmp_path / "r.json")]) == 3
        err = capsys.readouterr().err
        assert err == ("numerical failure: world line 2 misses the anchor time t = 0 on "
                       "the foliation u=0.3: time 0.0 outside sampled range "
                       "[0.28360655737704854, 0.31639344262295055]\n")

    # H_1 = t2 ZI, H_2 = ZI: C_12 = -dH_1/dt2 = -ZI, of norm 1 at every t
    STEPPED_QUANTUM = {
        "formalism": "quantum",
        "system": {"n": 2, "local_dim": 2, "hamiltonians": {
            "type": "pauli_terms", "terms": [[{"op": "ZI", "coeff": "t2"}],
                                             [{"op": "ZI", "coeff": 1.0}]]}},
        "experiment": {"kind": "defect-grid", "h": 1e-4,
                       "grid": {"t_min": 0.5, "t_max": 0.5, "points_per_axis": 1}},
    }

    @pytest.mark.parametrize("name,subcommand,key,value,variable,result,before", [
        # at 1e20 every x +- h and t +- h rounds back to x or t, and the
        # differences would read 0, a false "consistent"
        ("classical_harmonic_check", "check", "/experiment/samples/x_box",
         [1e20, 1e20], "x1_1 = 1e+20", "max_defect", 0.999),
        (None, "check", "/experiment/grid", {"t_min": 1e20, "t_max": 1e20,
                                             "points_per_axis": 1},
         "t1 = 1e+20", "max_defect", 1.0),
        ("hj_free_residual", "hj", "/experiment/points/1/x", [[1e20], [0.0]],
         "x1_1 = 1e+20", "max_residual", 0.0),
    ])
    def test_step_that_rounds_away_exit_code(self, config_dir, tmp_path, capsys, name,
                                             subcommand, key, value, variable, result,
                                             before):
        cfg = (json.loads((config_dir / f"{name}.json").read_text()) if name
               else copy.deepcopy(self.STEPPED_QUANTUM))
        cfg["experiment"]["h"] = 1e-4
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(cfg))
        code, report = run_cli([subcommand, "--config", str(path)], tmp_path)
        assert code == 0
        assert report["results"][result] == pytest.approx(before, abs=1e-3)
        set_pointer(cfg, key, value)
        path.write_text(json.dumps(cfg))
        assert main([subcommand, "--config", str(path)]) == 3
        err = capsys.readouterr().err
        assert f"numerical failure: the step h = 0.0001 rounds away at {variable}" in err

    #: D_2 w_1 = 1e200 (p2 - x2) is inf + -inf in floats at these samples, and
    #: the pair 2,1 is max(|D_2 v_1|, |D_2 w_1|) = max(0.0, nan)
    NAN_FIELD = {"type": "expressions", "v": [["p1_1"], ["1e200 + p2_1"]],
                 "w": [["1e200 * x2_1 + 1e200 * p2_1"], ["-1e200 - x2_1"]]}
    NAN_SAMPLES = {"count": 3, "t_box": [0, 0], "x_box": [1e-100, 1e-100],
                   "p_box": [3e-100, 3e-100]}

    def test_defect_that_meets_a_nan_exit_code(self, tmp_path, capsys):
        cfg = {"formalism": "classical",
               "system": {"n": 2, "d": 1, "field": self.NAN_FIELD},
               "experiment": {"kind": "defect-grid", "samples": self.NAN_SAMPLES, "h": 1e-4}}
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(cfg))
        assert main(["check", "--config", str(path)]) == 3
        assert capsys.readouterr().err == (
            "numerical failure: non-finite result at /results/max_defect: nan\n")
        # the same in a cjs-demo family, whose short run stays finite
        free = {"type": "expressions", "v": [["p1_1"], ["p2_1"]], "w": [["0"], ["0"]]}
        cfg = {"formalism": "classical", "system": {"n": 2, "d": 1}, "experiment": {
            "kind": "cjs-demo", "h": 1e-4, "samples": self.NAN_SAMPLES,
            "family": [{"id": "free", "field": free}, {"id": "nan", "field": self.NAN_FIELD}],
            "init": {"t": 0.0, "x": [[0.0], [0.0]], "p": [[0.0], [0.0]]},
            "t_span": [0.0, 1e-300], "dt": 1e-300}}
        path.write_text(json.dumps(cfg))
        assert main(["cjs", "--config", str(path)]) == 3
        assert capsys.readouterr().err == (
            "numerical failure: non-finite result at /results/table/1/min_defect: nan\n")

    @pytest.mark.parametrize("subcommand,cfg,code,message", [
        # x1 steps at the rate 1e308, past the RK4 sum's overflow; the Hermite
        # interpolant of its world line and the 1e300 gap's square, which
        # overflow, are taken again in scaled form, so the residuals are the
        # rounding of the sampled positions: a few units in the last place
        # of the rate 1e308 (six at most, 1.2e293)
        ("validity", {"formalism": "classical", "system": {"n": 2, "d": 1, "field": {
            "type": "expressions", "v": [["p1_1"], ["p2_1"]], "w": [["0"], ["0"]]}},
            "experiment": {"kind": "validity", "init": {"t": 0.0, "x": [[0.0], [1e300]],
                                                        "p": [[1e308], [0.0]]},
                           "t_span": [0.0, 1e-10], "dt": 1e-11,
                           "samples": {"count": 3, "window": 0.0}}},
         0, None),
        # x1 moves at 1e308 on leaves 1e-301 apart: the anchored world line's
        # momentum rate, by np.gradient, divides by their underflowing products
        ("foliation", {"formalism": "hj", "system": {"n": 1, "d": 1, "masses": [1.0],
                                                     "S": "1e308*x1_1"},
                       "experiment": {"kind": "trajectories", "foliation": {"u": [0.0]},
                                      "init_positions": [[0.0]],
                                      "s_span": [-1e-300, 1e-300], "ds": 1e-301}},
         3, "non-finite momentum or momentum rate on the world line of particle 1 on the "
            "foliation u=0"),
    ])
    def test_rates_near_the_largest_float_exit_code(self, tmp_path, capsys, subcommand, cfg,
                                                    code, message):
        # no numpy warning on the way (the suite makes one an error)
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(cfg))
        assert main([subcommand, "--config", str(path), "--out", str(tmp_path / "r.json")]) == code
        if code:
            assert capsys.readouterr().err == f"numerical failure: {message}\n"
        else:
            results = json.loads((tmp_path / "r.json").read_text())["results"]
            assert results["accepted_samples"] == 3
            assert 0.0 <= results["max_residual"] <= 8 * math.ulp(1e308)

    def test_path_independence_gap_whose_squares_overflow(self, config_dir, tmp_path):
        # corners about 1e198 apart in each position: a finite gap at every
        # level, where the sum of its squares used to read inf (exit 3)
        cfg = json.loads((config_dir / "grid_coupled_pathindep.json").read_text())
        cfg["system"]["field"]["h_list"] = ["p1_1^2/2 + p2_1^2/2",
                                            "p1_1^2/2 + p2_1^2/2 + x1_1*x2_1"]
        cfg["experiment"].update(init={"t": 0.0, "x": [[1e200], [1e200]], "p": [[0.0], [0.0]]},
                                 rectangle=[0.1, 0.1], dt=0.05, refinements=0)
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(cfg))
        assert main(["grid", "--config", str(path), "--out", str(tmp_path / "r.json")]) == 0
        [row] = json.loads((tmp_path / "r.json").read_text())["results"]["table"]
        assert 1e198 < row["gap"] < 2e198

    def test_subnormal_t2_gaps_exit_code(self, config_dir, tmp_path, capsys):
        # distinct t2 nodes whose gaps multiply to 0 in np.gradient
        cfg = json.loads((config_dir / "grid_free.json").read_text())
        cfg["experiment"].update(t2_max=1e-320, points=4)
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(cfg))
        assert main(["grid", "--config", str(path)]) == 3
        err = capsys.readouterr().err
        assert "numerical failure: non-finite result at /results/max_dx1_dt2" in err

    @pytest.mark.parametrize("results,message", [
        ({"table": [{"gap": 0.5}, {"gap": math.nan, "x": math.inf}]},
         "non-finite result at /results/table/1/gap: nan"),
        ({"a": [[1.0, 2], [True, "inf", -math.inf]], "b": math.inf},
         "non-finite result at /results/a/1/2: -inf"),
        ({"corner": np.float64(np.inf)}, "non-finite result at /results/corner: inf"),
    ])
    def test_first_non_finite_result_named(self, results, message):
        with pytest.raises(FloatingPointError, match=f"^{re.escape(message)}$"):
            cli._check_finite(results, "/results")
        cli._check_finite({"table": [{"gap": 0.5}], "n": 3, "ok": True}, "/results")

    @pytest.mark.parametrize("value", [
        {"table": [{"gap": 0.5}], "n": 3, "ok": True},
        {"table": [{"gap": 0.5}, {"gap": math.nan}]},
        {"a": [[1.0, 2], [True, "inf", -math.inf]]},
        {"corner": np.float64(np.inf)},
        {"pair": (math.nan, 1.0)},  # neither walks into a tuple
        [], math.inf, 1.0,
    ])
    def test_flat_scan_agrees_with_the_walk(self, value):
        # the scan that clears a report finds a non-finite number exactly
        # where the walk that names it does
        assert cli._all_finite(value) == (cli._non_finite(value) is None)

    def test_overflowing_speed_prints_no_warning(self, config_dir, tmp_path):
        # as a user runs it: numpy's warnings reach stderr, not pytest
        cfg = json.loads((config_dir / "hj_free_trajectories.json").read_text())
        cfg["system"]["masses"][1] = 1e-300
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(cfg))
        src = str(Path(__file__).parents[1] / "src")
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(
            filter(None, [src, os.environ.get("PYTHONPATH")]))}
        proc = subprocess.run([sys.executable, "-m", "multitime.cli", "foliation",
                               "--config", str(path)], capture_output=True,
                              text=True, env=env, timeout=120)
        # the speed whose square overflows is taken again scaled: finite
        assert proc.returncode == 0
        assert 1e154 < json.loads(proc.stdout)["results"]["max_speed"] < math.inf
        assert "RuntimeWarning" not in proc.stderr


# One leaf of a shipped config is replaced by one of these.  Magnitudes stay
# within 2: a legitimately huge value (a 1e9-wide staircase or t_span, 1e9
# samples) makes a huge run rather than a failure, so none is in the pool.
MUTATION_POOL = [None, True, "x", [], {}, [1.0, 2.0], 0, -1, 2, 0.5, -0.5,
                 math.nan, math.inf, -math.inf]


def leaf_pointers(obj, pointer=""):
    if isinstance(obj, dict):
        items = obj.items()
    elif isinstance(obj, list):
        items = enumerate(obj)
    else:
        return [pointer]
    return [p for key, value in items for p in leaf_pointers(value, f"{pointer}/{key}")]


LEAVES = {name: leaf_pointers(cfg) for name, cfg in EXAMPLE_CONFIGS.items()}

mutations = st.sampled_from(sorted(LEAVES)).flatmap(
    lambda name: st.tuples(st.just(name), st.sampled_from(LEAVES[name]),
                           st.sampled_from(MUTATION_POOL)))


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(mutations)
def test_mutated_config_exits_cleanly(mutation):
    """Exit 0, 2 or 3; an exception escaping main() fails the test."""
    name, pointer, value = mutation
    cfg = copy.deepcopy(EXAMPLE_CONFIGS[name])
    set_pointer(cfg, pointer, value)
    subcommand = subcommand_of(EXAMPLE_CONFIGS[name])
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "cfg.json"
        path.write_text(json.dumps(cfg))
        code = main([subcommand, "--config", str(path),
                     "--out", str(Path(tmp) / "report.json")])
    assert code in (0, 2, 3)


MASS_LEAVES = [(name, pointer) for name, pointers in LEAVES.items()
               for pointer in pointers if "/masses/" in pointer]
# classical configs used to carry masses too; a config that still does is
# refused at the key, whatever the leaf holds
LEGACY_MASS_LEAVES = [(name, f"/system/masses/{k}")
                      for name, cfg in EXAMPLE_CONFIGS.items()
                      if cfg["formalism"] == "classical"
                      for k in range(cfg["system"]["n"])]


@pytest.mark.parametrize("value", [0, -1])
@pytest.mark.parametrize("name,pointer", MASS_LEAVES + LEGACY_MASS_LEAVES)
def test_mass_leaf_exits_cleanly(name, pointer, value, tmp_path, capsys,
                                 no_numerics):
    """An HJ mass must be > 0, and is checked before any numerics (the
    velocity law divides by it); a classical system has no masses, so a
    classical mass leaf is refused as an unknown key."""
    cfg = copy.deepcopy(EXAMPLE_CONFIGS[name])
    if cfg["formalism"] == "classical":
        cfg["system"]["masses"] = [1.0] * cfg["system"]["n"]
        message = "/system/masses: unknown key"
    else:
        message = f"{pointer}: expected a number > 0, got {value}"
    set_pointer(cfg, pointer, value)
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    code = main([subcommand_of(cfg), "--config", str(path),
                 "--out", str(tmp_path / "report.json")])
    err = capsys.readouterr().err
    assert code == 2 and "Traceback" not in err
    assert f"config error: {message}" in err


@pytest.mark.parametrize("name,key", [
    ("hj_free_residual", "points"), ("coupled_qubits", "sizes"),
    ("free_quantum_holonomy", "sizes"), ("cjs_family", "family")])
def test_empty_array_exits_2_at_its_pointer(name, key, tmp_path, capsys):
    """An empty ``points``, ``sizes`` or ``family`` ran to an empty result
    (a ``max_residual`` of 0.0, a ``table`` of []) and exited 0."""
    cfg = copy.deepcopy(EXAMPLE_CONFIGS[name])
    cfg["experiment"][key] = []
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    code = main([subcommand_of(cfg), "--config", str(path),
                 "--out", str(tmp_path / "report.json")])
    err = capsys.readouterr().err
    assert code == 2 and "Traceback" not in err
    assert f"config error: /experiment/{key}: expected >= 1, got 0" in err
    assert not (tmp_path / "report.json").exists()


def test_docs_table_matches_subcommand_kinds():
    text = (Path(__file__).parents[1] / "docs" / "config.md").read_text()
    section = text.split("## Subcommands and kinds", 1)[1].split("\n## ", 1)[0]
    table = {}
    for line in section.splitlines():
        row = re.fullmatch(r"\|\s*`([\w-]+)`\s*\|(.*)\|", line.strip())
        if row:
            table[row[1]] = set(re.findall(r"`([\w-]+)`", row[2]))
    assert table == _SUBCOMMAND_KINDS


# The blocks with a key table of their own in docs/config.md, innermost first;
# the HJ Hamiltonians are keys of the HJ system's table.
SPEC_BLOCKS = ("/experiment/family/*/field", "/system/field", "/system/hamiltonians",
               "/experiment/initial_state", "/experiment", "/system", "")
FORMALISM_TITLES = {"quantum": "Quantum", "classical": "Classical", "hj": "HJ"}


def block_title(block, value, formalism):
    if block.endswith("field"):
        return f"{value['type']} field"
    if block == "/system/hamiltonians":
        return f"{value['type']} Hamiltonians"
    if block == "/experiment/initial_state":
        return f"{value['kind']} initial state"
    if block == "/experiment":
        return f"{FORMALISM_TITLES[formalism]} {value['kind']}"
    return f"{FORMALISM_TITLES[formalism]} system" if block else "Top level"


def spec_tables(configs, monkeypatch, tmp_path):
    """``{title: {key: default}}`` of every spec that ``spec._read`` is given
    while each of ``configs`` is loaded and prepared; a key is named by its
    path below its block, with ``*`` for an array index."""
    calls = []
    read = spec._read
    for module in (cli, spec, kinds_quantum, kinds_classical, kinds_hj):  # each reads specs
        monkeypatch.setattr(module, "_read", lambda value, path, entries: (
            calls.append((path, entries)), read(value, path, entries))[1])
    tables = {}
    for cfg in configs:
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(cfg))
        calls.clear()
        cfg = cli._load_config(str(path))
        formalism, exp = cfg["formalism"], cfg["experiment"]
        cli._KINDS[formalism, exp["kind"]].prepare(cfg["system"], exp, cfg["seed"])
        for pointer, entries in calls:
            parts = pointer.split("/")[1:]
            norm = "".join("/*" if part.isdigit() else f"/{part}" for part in parts)
            block = next(b for b in SPEC_BLOCKS if f"{norm}/".startswith(f"{b}/") and not (
                b == "/system/hamiltonians" and formalism == "hj"))
            node = cfg
            for part in parts[:block.count("/")]:
                node = node[int(part) if isinstance(node, list) else part]
            table = tables.setdefault(block_title(block, node, formalism), {})
            below = norm[len(block) + 1:]
            for key, entry in entries.items():
                default = ("required" if entry[0] is spec._REQ else
                           "optional" if entry[0] is None else json.dumps(entry[0]))
                assert table.setdefault(f"{below}/{key}" if below else key, default) == default
    return tables


def docs_key_tables():
    text = (Path(__file__).parents[1] / "docs" / "config.md").read_text()
    tables = {}
    for section in text.split("## Keys of each block", 1)[1].split("\n### ")[1:]:
        heading, body = section.split("\n", 1)
        tables[heading.replace("`", "")] = {
            key: json.dumps(json.loads(cell[1:-1])) if cell.startswith("`") else cell
            for key, cell in re.findall(r"^\| `([^`]+)` \| (.+?) \|$", body, re.M)}
    return tables


def test_docs_key_tables_match_the_specs(monkeypatch, tmp_path):
    """The shipped configs, and three that reach the blocks they do not:
    the HJ ``defect-grid``, a ``hamiltonian`` field and a defaulted
    (``basis``) initial state."""
    configs = [copy.deepcopy(cfg) for _, cfg in sorted(EXAMPLE_CONFIGS.items())]
    hj_grid = copy.deepcopy(EXAMPLE_CONFIGS["hj_free_residual"])
    hj_grid["experiment"] = {"kind": "defect-grid", "samples": TestHJDefectGrid.SAMPLES}
    hamiltonian = copy.deepcopy(EXAMPLE_CONFIGS["classical_free_evolve"])
    hamiltonian["system"]["field"] = {"type": "hamiltonian", "h": "p1_1^2/2 + p2_1^2/2"}
    basis = copy.deepcopy(EXAMPLE_CONFIGS["interaction_picture_staircase"])
    del basis["experiment"]["initial_state"]
    assert spec_tables(configs + [hj_grid, hamiltonian, basis],
                       monkeypatch, tmp_path) == docs_key_tables()


class TestReaders:
    """``spec._read`` reads one block by its spec, ``spec._each`` one array."""

    def test_unknown_key_before_missing_required_key(self):
        entries = {"a": (spec._REQ, spec._num), "b": (spec._REQ, spec._num)}
        with pytest.raises(ConfigError, match=r"^/block/c: unknown key \(strict schema\)$"):
            spec._read({"c": 1.0}, "/block", entries)
        with pytest.raises(ConfigError, match=r"^/block: missing required key 'a'$"):
            spec._read({}, "/block", entries)
        cfg = copy.deepcopy(EXAMPLE_CONFIGS["classical_free_check"])
        cfg["experiment"]["sample"] = cfg["experiment"].pop("samples")
        with pytest.raises(ConfigError) as exc:
            run_config(cfg, "check")
        assert exc.value.pointer == "/experiment/sample"

    def test_defaults_read_recorded_and_none_left_out(self):
        obj = {"a": 2}
        got = spec._read(obj, "", {
            "a": (spec._REQ, spec._int), "b": (None, spec._num), "c": (0.5, spec._positive),
            "d": ([1, 2], spec._each, 2, spec._num)})
        assert got == [2, None, 0.5, [1.0, 2.0]] and obj == {"a": 2, "c": 0.5, "d": [1, 2]}

    @pytest.mark.parametrize("name,block,key", [
        ("hj_free_residual", ["experiment"], "h"),
        ("interaction_picture_staircase", ["experiment"], "order"),
        ("grid_coupled", ["system", "field"], "h_step"),
    ])
    def test_none_default_key_is_not_echoed(self, name, block, key):
        cfg = copy.deepcopy(EXAMPLE_CONFIGS[name])
        cli._KINDS[cfg["formalism"], cfg["experiment"]["kind"]].prepare(
            cfg["system"], cfg["experiment"], cfg["seed"])
        for part in block:
            cfg = cfg[part]
        assert key not in cfg

    @pytest.mark.parametrize("name,pointer,value,message", [
        ("cjs_family", "/experiment/family/1/field", {
            "type": "partial_hamiltonians", "h_list": [1.0, "p2_1^2/2"]},
         "/experiment/family/1/field/h_list/0: expected a string, got float"),
        ("cjs_family", "/experiment/family/2/field/w/1/0", "q",
         "/experiment/family/2/field/w/1/0: undeclared variables ['q']"),
        ("coupled_qubits", "/system/hamiltonians/terms/1/1/op", "ZZZ",
         "/system/hamiltonians/terms/1/1/op: Pauli string must have length n = 2"),
        ("interaction_picture_check", "/system/hamiltonians/k/1/0/coeff", "t1",
         "/system/hamiltonians/k/1/0/coeff: expected a numeric coefficient here"),
        ("hj_free_residual", "/experiment/points/1/x/0", [0.5, 1.0],
         "/experiment/points/1/x/0: expected 1 entries, got 2"),
        ("hj_coupled_foliations", "/experiment/foliations/1/u/0", True,
         "/experiment/foliations/1/u/0: expected a number, got bool"),
        ("classical_free_validity", "/experiment/samples/window", "x",
         "/experiment/samples/window: expected a number, got str"),
        ("free_quantum", "/system/hamiltonians", "x",
         "/system/hamiltonians: expected an object, got str"),
        ("coupled_qubits", "/experiment/sizes", 0.5,
         "/experiment/sizes: expected an array, got float"),
        ("free_quantum", "/system/hamiltonians/type", "x", "/system/hamiltonians/type: "
         "unknown Hamiltonian type 'x' (expected pauli_terms | interaction_picture)"),
        ("classical_free_check", "/system/field/type", "x", "/system/field/type: "
         "unknown field type 'x' (expected expressions | hamiltonian | partial_hamiltonians)"),
        ("coupled_qubits", "/experiment/initial_state/kind", "x",
         "/experiment/initial_state/kind: unknown state kind 'x' (expected basis | plus)"),
        ("grid_free", "/system/field/type", "hamiltonian", "/system/field/type: "
         "the grid experiments need field type 'partial_hamiltonians'"),
        ("classical_free_check", "/system/d", 4, "/system/d: d up to 3 supported"),
        # n is refused before the field, whose h_list has n entries here
        ("grid_free", "/system", {"n": 1, "d": 1, "field": {
            "type": "partial_hamiltonians", "h_list": ["p1_1^2/2"]}},
         "/system/n: the full-grid system is implemented for n = 2"),
        ("grid_coupled_pathindep", "/system", {"n": 3, "d": 1, "field": {
            "type": "partial_hamiltonians", "h_list": ["p1_1^2/2", "p2_1^2/2", "p3_1^2/2"]}},
         "/system/n: the full-grid system is implemented for n = 2"),
        ("coupled_qubits", "/experiment/initial_state", {"kind": "basis", "index": 4},
         "/experiment/initial_state/index: index 4 >= dim 4"),
        ("free_quantum", "/system/local_dim", 3,
         "/system/local_dim: pauli_terms requires local_dim = 2"),
        ("hj_free_foliations", "/experiment", {"kind": "hj-residual", "points": [
            {"times": [0.0, 0.0], "x": [[-1.0], [1.0]]}]},
         "/system: hj-residual needs system.hamiltonians"),
        ("hj_free_foliations", "/experiment", {"kind": "defect-grid", "samples": {
            "count": 2, "t_box": [0.0, 1.0], "x_box": [-1.0, 1.0], "p_box": [-1.0, 1.0]}},
         "/system: the HJ defect grid needs system.hamiltonians"),
        ("hj_free_foliations", "/experiment/foliations", [{"u": [0.0]}],
         "/experiment/foliations: need >= 2 foliations"),
        # a missing tag is a missing required key of its block
        ("free_quantum", "/system/hamiltonians/type", DELETE,
         "/system/hamiltonians: missing required key 'type'"),
        ("classical_free_check", "/system/field/type", DELETE,
         "/system/field: missing required key 'type'"),
        ("grid_free", "/system/field/type", DELETE, "/system/field: missing required key 'type'"),
        ("cjs_family", "/experiment/family/2/field/type", DELETE,
         "/experiment/family/2/field: missing required key 'type'"),
        ("coupled_qubits", "/experiment/initial_state/kind", DELETE,
         "/experiment/initial_state: missing required key 'kind'"),
    ])
    def test_nested_pointers_are_exact(self, name, pointer, value, message, no_numerics):
        cfg = copy.deepcopy(EXAMPLE_CONFIGS[name])
        set_pointer(cfg, pointer, value)
        with pytest.raises(ConfigError, match=f"^{re.escape(message)}$"):
            run_config(cfg, subcommand_of(cfg))

    def test_a_default_is_never_shared_between_reports(self):
        cfg = copy.deepcopy(EXAMPLE_CONFIGS["free_quantum_holonomy"])
        del cfg["experiment"]["initial_state"]
        first, second = (run_config(copy.deepcopy(cfg), "holonomy")["config"]["experiment"]
                         for _ in range(2))
        assert first["initial_state"] == {"kind": "basis", "index": 0}
        assert first["initial_state"] is not second["initial_state"]
        first["initial_state"]["index"] = 3
        assert second["initial_state"] == {"kind": "basis", "index": 0}
