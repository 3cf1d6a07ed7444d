import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from nonloc import hvmodels, measurement, states
from nonloc.cli import main, parse_state
from nonloc.hvmodels import Context
from nonloc.measurement import Observable, OperationFamily, pauli, smeared_povm

RT2 = np.sqrt(2.0)
SZ = np.array([[1, 0], [0, -1]], dtype=complex)
SX = np.array([[0, 1], [1, 0]], dtype=complex)


def run(capsys, argv):
    code = main(argv)
    out = capsys.readouterr().out
    return code, json.loads(out) if out else None


@pytest.fixture
def qubit_ctx_file(tmp_path):
    ctx = Context(
        (OperationFamily.ideal(pauli("z"), "mz"),
         OperationFamily.ideal(pauli("x"), "mx")),
        (OperationFamily.ideal(pauli("z"), "mz"),
         OperationFamily.ideal(pauli("x"), "mx")),
        2,
        2,
    )
    path = tmp_path / "ctx.json"
    path.write_text(json.dumps(hvmodels.context_to_json(ctx)))
    return str(path)


@pytest.fixture
def chsh_ctx_file(tmp_path):
    ctx = Context(
        (OperationFamily.ideal(pauli("z"), "mz"),
         OperationFamily.ideal(pauli("x"), "mx")),
        (OperationFamily.ideal(Observable.from_matrix((SZ + SX) / RT2, "b1")),
         OperationFamily.ideal(Observable.from_matrix((SZ - SX) / RT2, "b2"))),
        1,
        1,
    )
    path = tmp_path / "chsh_ctx.json"
    path.write_text(json.dumps(hvmodels.context_to_json(ctx)))
    return str(path)


class TestThresholds:
    def test_d3_values(self, capsys):
        code, report = run(capsys, ["thresholds", "--d", "3"])
        assert code == 0
        r = report["results"]
        assert r["normalization"] == pytest.approx(1 / 6, abs=1e-8)
        assert r["entanglement"] == pytest.approx(1 / 24, abs=1e-8)
        assert r["lhv1"] == pytest.approx(1 / 9, abs=1e-8)
        assert r["collapse_separable"] == pytest.approx(1 / 15, abs=1e-8)
        assert all(s["c_prime"] > 0 for s in r["c_prime_samples"])

    def test_d2_formula_values(self, capsys):
        code, report = run(capsys, ["thresholds", "--d", "2"])
        assert code == 0
        r = report["results"]
        # at d = 2 the collapse-separability bound coincides with the
        # normalization bound (a rank-1 collapse is vacuously separable)
        assert r["collapse_separable"] == 0.5
        assert r["normalization"] == 0.5
        assert r["c_prime_samples"] == []


class TestPopescu:
    def test_d5_violates(self, capsys):
        code, report = run(capsys, ["popescu", "--d", "5"])
        assert code == 0
        r = report["results"]
        assert r["chsh"] == pytest.approx(2.0203051, abs=1e-6)
        assert r["violation"] is True

    def test_d4_does_not(self, capsys):
        code, report = run(capsys, ["popescu", "--d", "4"])
        assert code == 0
        r = report["results"]
        assert r["chsh"] == pytest.approx(1.8856181, abs=1e-6)
        assert r["violation"] is False


class TestWernerCommand:
    def test_d2_default(self, capsys):
        code, report = run(capsys, ["werner", "--d", "2"])
        assert code == 0
        r = report["results"]
        assert r["entangled"] is True
        assert r["single_time_local_known"] is True
        assert r["all_rank_dm1_collapses_separable"] is None

    def test_d3_exact_fraction_argument(self, capsys):
        code, report = run(capsys, ["werner", "--d", "3", "--c", "1/15"])
        assert code == 0
        r = report["results"]
        assert r["entangled"] is True
        assert r["all_rank_dm1_collapses_separable"] is True

    def test_state_round_trips(self, capsys):
        code, report = run(capsys, ["werner", "--d", "2"])
        rho = states.state_from_json(report["results"]["state"])
        assert states.werner_fit(rho) == (2, pytest.approx(0.25, abs=1e-12))


class TestLhvCheck:
    def test_feasible_window(self, capsys, qubit_ctx_file):
        code, report = run(
            capsys,
            ["lhv-check", "--state", "werner_gen:2:0.2",
             "--context", qubit_ctx_file, "--k", "1"],
        )
        assert code == 0
        feas = report["results"]["feasibility"]
        assert feas["status"] == "feasible"
        assert feas["max_residual"] < 1e-9

    def test_singlet_infeasible(self, capsys, chsh_ctx_file):
        code, report = run(
            capsys,
            ["lhv-check", "--state", "singlet",
             "--context", chsh_ctx_file, "--k", "1"],
        )
        assert code == 0
        feas = report["results"]["feasibility"]
        assert feas["status"] == "infeasible"
        assert feas["witness"]["separation"] == pytest.approx(
            2 * RT2 - 2, abs=1e-6
        )


class TestBuildModel:
    def test_trivial_writes_model_file(self, capsys, qubit_ctx_file, tmp_path):
        out = tmp_path / "model.json"
        code, report = run(
            capsys,
            ["build-model", "--state", "singlet", "--context", qubit_ctx_file,
             "--kind", "trivial", "--out", str(out)],
        )
        assert code == 0
        assert report["results"]["verification"].startswith("pass")
        assert report["results"]["model_file"] == str(out)
        m = hvmodels.model_from_json(json.loads(out.read_text()))
        assert m.shape == "causal"

    def test_couple_d2(self, capsys, qubit_ctx_file):
        code, report = run(
            capsys,
            ["build-model", "--state", "werner_gen:2:0.2",
             "--context", qubit_ctx_file, "--kind", "couple-d2"],
        )
        assert code == 0
        r = report["results"]
        assert r["verification"].startswith("pass")
        assert r["model"]["shape"] == "local_causal"

    def test_fine_translation(self, capsys, qubit_ctx_file, tmp_path):
        out = tmp_path / "stoch.json"
        code, report = run(
            capsys,
            ["build-model", "--state", "werner_gen:2:0.2",
             "--context", qubit_ctx_file, "--kind", "fine", "--out", str(out)],
        )
        assert code == 0
        m = hvmodels.model_from_json(json.loads(out.read_text()))
        assert m.shape == "stochastic"

    def test_mix_requires_product_state(self, capsys, qubit_ctx_file):
        code = main(
            ["build-model", "--state", "singlet",
             "--context", qubit_ctx_file, "--kind", "mix"]
        )
        capsys.readouterr()
        assert code == 1

    def test_mix_on_product_state(self, capsys, qubit_ctx_file, tmp_path):
        for name, diag in (("r1.json", [0.7, 0.3]), ("r2.json", [0.6, 0.4])):
            rho = states.make_density(np.diag(diag).astype(complex), (2, 1))
            (tmp_path / name).write_text(json.dumps(states.state_to_json(rho)))
        state = f"product:{tmp_path}/r1.json:{tmp_path}/r2.json"
        code, report = run(
            capsys,
            ["build-model", "--state", state, "--context", qubit_ctx_file,
             "--kind", "mix"],
        )
        assert code == 0
        assert report["results"]["verification"].startswith("pass")


class TestExtendPovm:
    def write_povm(self, tmp_path, name, axis, table):
        povm = smeared_povm(pauli(axis), np.array(table))
        path = tmp_path / name
        path.write_text(json.dumps(measurement.povm_to_json(povm)))
        return str(path)

    def test_commuting_pair_extends(self, capsys, tmp_path):
        p1 = self.write_povm(tmp_path, "p1.json", "z", [[0.8, 0.3], [0.2, 0.7]])
        p2 = self.write_povm(tmp_path, "p2.json", "z", [[0.6, 0.1], [0.4, 0.9]])
        code, report = run(
            capsys,
            ["extend-povm", "--state", "werner_gen:2:0.2",
             "--povm1", p1, "--povm2", p2],
        )
        assert code == 0
        r = report["results"]
        assert r["status"] == "extended"
        assert r["max_table_deviation"] < 1e-8

    def test_non_commuting_is_a_result(self, capsys, tmp_path):
        e1 = (np.eye(2, dtype=complex) + SX) / 4.0
        e2 = (np.eye(2, dtype=complex) + SZ) / 4.0
        bad = measurement.Povm(
            ("a", "b", "c"), (e1, e2, np.eye(2, dtype=complex) - e1 - e2)
        )
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(measurement.povm_to_json(bad)))
        good = self.write_povm(tmp_path, "good.json", "z", [[0.8, 0.3], [0.2, 0.7]])
        code, report = run(
            capsys,
            ["extend-povm", "--state", "werner_gen:2:0.2",
             "--povm1", str(path), "--povm2", good],
        )
        assert code == 0
        assert report["results"]["status"] == "not_commuting"

    @pytest.mark.parametrize("drop, message", [
        (("labels",), "povm has no field 'labels'"),
        (("operators",), "povm has no field 'operators'"),
        (("operators", 1, "im"), "povm operator 1 has no field 'im'"),
    ])
    def test_missing_field_is_named(self, capsys, tmp_path, drop, message):
        good = self.write_povm(tmp_path, "good.json", "z", [[0.8, 0.3], [0.2, 0.7]])
        bad = drop_field(good, drop)
        code = main(["extend-povm", "--state", "werner_gen:2:0.2",
                     "--povm1", good, "--povm2", bad])
        captured = capsys.readouterr()
        assert code == 1 and captured.out == ""
        assert captured.err == (
            f"usage error: povm file {bad!r} violates the schema: {message}\n"
        )


class TestReproduce:
    def test_subset_passes(self, capsys):
        code = main(["reproduce", "--criteria", "1,2"])
        captured = capsys.readouterr()
        assert code == 0
        report = json.loads(captured.out)
        assert report["results"]["all_passed"] is True
        names = [c["name"] for c in report["results"]["criteria"]]
        assert len(names) == 2
        # one human-readable line per criterion goes to stderr
        assert captured.err.count("PASS") == 2

    def test_bad_criteria_list(self, capsys):
        assert main(["reproduce", "--criteria", "0,99"]) == 1
        capsys.readouterr()


def drop_field(path: str, drop: tuple) -> str:
    """Copy of the JSON file at ``path`` without the field at key path
    ``drop``, written next to it; returns the copy's path."""
    obj = json.loads(Path(path).read_text())
    node = obj
    for key in drop[:-1]:
        node = node[key]
    del node[drop[-1]]
    out = Path(path).with_name("missing-" + "-".join(map(str, drop)) + ".json")
    out.write_text(json.dumps(obj))
    return str(out)


class TestErrorsAndExitCodes:
    def test_unknown_state_string(self, capsys):
        assert main(["werner", "--d", "2", "--c", "nonsense"]) == 1
        capsys.readouterr()

    def test_out_of_range_parameter(self, capsys):
        assert main(["werner", "--d", "2", "--c", "0.9"]) == 1
        capsys.readouterr()

    def test_missing_context_file(self, capsys):
        assert main(
            ["lhv-check", "--state", "singlet",
             "--context", "/nonexistent.json", "--k", "1"]
        ) == 1
        capsys.readouterr()

    @pytest.mark.parametrize("drop, message", [
        (("side1", 0, "labels"), "side1 family 'mz' has no field 'labels'"),
        (("side2", 1, "name"), "side2 family has no field 'name'"),
        (("side2", 1, "operators", 0, "re"),
         "side2 family 'mx' operator 0 has no field 're'"),
        (("side1",), "context has no field 'side1'"),
        (("max_len2",), "context has no field 'max_len2'"),
    ])
    def test_context_missing_field_is_named(self, capsys, qubit_ctx_file, drop, message):
        bad = drop_field(qubit_ctx_file, drop)
        code = main(["lhv-check", "--state", "singlet", "--context", bad, "--k", "1"])
        captured = capsys.readouterr()
        assert code == 1 and captured.out == ""
        assert captured.err == (
            f"usage error: context file {bad!r} violates the schema: {message}\n"
        )

    def test_state_file_missing_field_is_named(self, capsys, qubit_ctx_file, tmp_path):
        path = tmp_path / "s.json"
        path.write_text(json.dumps(states.state_to_json(states.singlet())))
        bad = drop_field(str(path), ("matrix", "rows"))
        code = main(["lhv-check", "--state", f"file:{bad}",
                     "--context", qubit_ctx_file, "--k", "1"])
        captured = capsys.readouterr()
        assert code == 1 and captured.out == ""
        assert captured.err == (
            f"usage error: bad state 'file:{bad}': state matrix has no field 'rows'\n"
        )

    @pytest.mark.parametrize("argv", [
        ["thresholds", "--d", "0"], ["thresholds", "--d", "1"],
        ["thresholds", "--d", "-3"], ["werner", "--d", "0"],
        ["werner", "--d", "1"], ["popescu", "--d", "0"],
    ])
    def test_local_dimension_below_two(self, capsys, argv):
        code = main(argv)
        captured = capsys.readouterr()
        assert code == 1 and captured.out == ""
        assert captured.err == f"input error: local dimension {argv[2]} < 2\n"

    def test_unknown_flag(self, capsys):
        assert main(["thresholds", "--d", "3", "--bogus"]) == 1
        capsys.readouterr()

    def test_parse_state_forms(self, tmp_path):
        assert parse_state("singlet").dims.total == 4
        mm = parse_state("maximally_mixed:2:3")
        assert (mm.dims.d1, mm.dims.d2) == (2, 3)
        rho = states.werner_gen(3, 0.05)
        path = tmp_path / "s.json"
        path.write_text(json.dumps(states.state_to_json(rho)))
        back = parse_state(f"file:{path}")
        assert np.allclose(back.matrix, rho.matrix)
        with pytest.raises(Exception):
            parse_state("werner")


class TestReportShape:
    def test_envelope_and_determinism(self, capsys):
        code1, rep1 = run(capsys, ["thresholds", "--d", "4"])
        code2, rep2 = run(capsys, ["thresholds", "--d", "4"])
        assert code1 == code2 == 0
        assert set(rep1) == {
            "command", "inputs", "results", "tolerances", "seed", "wall_time"
        }
        rep1.pop("wall_time")
        rep2.pop("wall_time")
        assert rep1 == rep2

    def test_csv_format(self, capsys):
        code = main(["--format", "csv", "thresholds", "--d", "3"])
        out = capsys.readouterr().out
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "key,value"
        keys = {line.split(",", 1)[0] for line in lines[1:]}
        assert "results.lhv1" in keys

    def test_floats_rounded_to_nine_digits(self, capsys):
        _, report = run(capsys, ["thresholds", "--d", "3"])
        assert report["results"]["lhv1"] == 0.111111111


# The checkout this file sits in: the child imports ``nonloc`` from its
# ``src/`` whatever directory pytest was started from.
REPO_ROOT = Path(__file__).resolve().parent.parent
SRC = REPO_ROOT / "src"


def run_cli_subprocess(argv):
    """Run ``python -m nonloc.cli argv`` in a child at ``NONLOC_LOG=info``."""
    inherited = os.environ.get("PYTHONPATH")
    path = os.pathsep.join([str(SRC), inherited]) if inherited else str(SRC)
    env = dict(os.environ, NONLOC_LOG="info", PYTHONPATH=path)
    return subprocess.run(
        [sys.executable, "-m", "nonloc.cli", *argv],
        capture_output=True,
        text=True,
        env=env,
        cwd=REPO_ROOT,
    )


class TestSubprocessInvocation:
    def test_stdout_is_pure_json_with_logging(self, qubit_ctx_file):
        proc = run_cli_subprocess(["popescu", "--d", "5"])
        assert proc.returncode == 0
        report = json.loads(proc.stdout)
        assert report["results"]["violation"] is True

        # popescu logs nothing; the LP does, so this run shows where logs go
        proc = run_cli_subprocess(
            ["lhv-check", "--state", "werner_gen:2:0.2",
             "--context", qubit_ctx_file, "--k", "1"]
        )
        assert proc.returncode == 0
        assert ("nonloc.feasibility INFO feasibility LP over 4 x 4 strategies"
                in proc.stderr.splitlines())
        report = json.loads(proc.stdout)  # would fail if logs leaked to stdout
        assert report["results"]["feasibility"]["status"] == "feasible"
