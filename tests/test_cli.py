import json

import numpy as np
import pytest

from icrtlab.cli import main
from icrtlab.paths import StepPath


def run(argv, capsys):
    code = main(argv)
    out = capsys.readouterr()
    return code, out.out, out.err


class TestSample:
    def test_icrt(self, tmp_path, capsys):
        out = tmp_path / "tree.json"
        code, _, _ = run(["--seed", "7", "--out", str(out), "sample", "icrt",
                          "--theta", "polynomial:1,1,50", "--k", "10"], capsys)
        assert code == 0
        obj = json.loads(out.read_text())
        assert len(obj["segments"]) == 10
        manifest = json.loads((tmp_path / "tree.json.manifest.json").read_text())
        assert manifest["seed"] == 7

    def test_ptree(self, capsys):
        code, out, _ = run(["--seed", "1", "sample", "ptree", "--n", "3",
                            "--weights", "0.5,0.25,0.25"], capsys)
        assert code == 0
        obj = json.loads(out)
        assert obj["n"] == 3
        assert sorted(obj["parent"]).count(0) == 1

    def test_theta_stable(self, capsys):
        code, out, _ = run(["--seed", "2", "sample", "theta",
                            "--stable", "1.5,0.01"], capsys)
        assert code == 0
        obj = json.loads(out)
        assert obj["nominal_alpha"] == 1.5
        assert all(a >= 0.01 for a in obj["atoms"])

    def test_path(self, tmp_path, capsys):
        out = tmp_path / "path.json"
        code, _, _ = run(["--seed", "3", "--out", str(out), "sample", "path",
                          "--theta", "geometric:0.5,6"], capsys)
        assert code == 0
        with open(out) as fp:
            path = StepPath.load(fp)
        assert path.kind == "excursion"

    def test_reproducible(self, tmp_path, capsys):
        a = tmp_path / "a.json"
        b = tmp_path / "b.json"
        for f in (a, b):
            run(["--seed", "5", "--out", str(f), "sample", "icrt",
                 "--theta", "polynomial:1,1,20", "--k", "5"], capsys)
        assert a.read_text() == b.read_text()

    def test_missing_args(self, capsys):
        code, _, err = run(["sample", "icrt"], capsys)
        assert code == 2
        assert "error" in err


@pytest.mark.parametrize("argv,code,fragment", [
    (["--workers", "0", "verify", "height", "--param", "height.reps=2"], 2,
     "workers must be a positive integer"),
    (["--workers", "-3", "verify", "height", "--param", "height.reps=2"], 2,
     "workers must be a positive integer"),
    (["sample", "ptree", "--n", "3", "--weights", "0.5,0.5,0.5"], 2,
     "weights must be positive and sum to 1"),
    (["sample", "ptree", "--n", "2", "--weights", "1.5,-0.5"], 2,
     "weights must be positive and sum to 1"),
    (["sample", "theta", "--spec", "geometric:0.5"], 2,
     "geometric spec takes 2 values, got 1"),
    (["sample", "theta", "--spec", "polynomial:1,1"], 2,
     "polynomial spec takes 3 values, got 2"),
    (["--stream", "-1", "verify", "cayley", "--param", "cayley.reps_n3=2",
      "--param", "cayley.reps_n4=2"], 2, "expected non-negative integer"),
])
def test_bad_input_exit_code(argv, code, fragment, capsys):
    got, out, err = run(argv, capsys)
    assert got == code
    assert out == ""
    assert err.startswith("error:") and fragment in err
    assert len(err.strip().splitlines()) == 1


_REPORT = {"name": "height", "parameters": {}, "statistic": 0.0,
           "p_value": None, "max_deviation": 0.0, "threshold": 1.0,
           "passed": True, "replicate_count": 1, "wall_time": 0.0}
_PATH = {"domain_end": 1.0, "drift": -1.0, "jumps": [[0.0, 1.0]],
         "kind": "excursion"}


@pytest.mark.parametrize("command,content,fragment", [
    (["report"], [_REPORT], "report must be a JSON object"),
    (["report"], {**_REPORT, "extra": 1}, "unknown report keys: extra"),
    (["report"], {k: v for k, v in _REPORT.items() if k != "passed"},
     "missing report keys: passed"),
    (["extract", "--k", "1", "--path"],
     {k: v for k, v in _PATH.items() if k != "kind"}, "missing path keys: kind"),
    (["extract", "--k", "1", "--path"], "str", "path must be a JSON object"),
    (["report"], {**_REPORT, "statistic": None},
     "report key 'statistic' must be a number, got None"),
    (["extract", "--k", "1", "--path"], {**_PATH, "jumps": [1, 2]},
     "path jumps must be a list of [time, size] number pairs"),
    (["extract", "--k", "1", "--path"], {**_PATH, "jumps": [[None, 1.0]]},
     "path jumps must be a list of [time, size] number pairs"),
])
def test_bad_input_file_exit_code(command, content, fragment, tmp_path, capsys):
    f = tmp_path / "input.json"
    f.write_text(json.dumps(content))
    got, _, err = run(command + [str(f)], capsys)
    assert got == 2
    assert err.startswith("error:") and fragment in err
    assert len(err.strip().splitlines()) == 1


class TestExtract:
    @pytest.fixture
    def path_file(self, tmp_path, capsys):
        f = tmp_path / "p.json"
        run(["--seed", "3", "--out", str(f), "sample", "path",
             "--theta", "geometric:0.5,6"], capsys)
        return f

    def test_sampled_marks(self, path_file, capsys):
        code, out, _ = run(["--seed", "4", "extract", "--path", str(path_file),
                            "--k", "3"], capsys)
        assert code == 0
        obj = json.loads(out)
        assert obj.get("cemetery") or obj["k"] == 3

    def test_k1_edge(self, path_file, capsys):
        code, out, _ = run(["--seed", "4", "extract", "--path", str(path_file),
                            "--k", "1"], capsys)
        assert code == 0
        assert json.loads(out)["parents"] == {"1": "0"}

    def test_collision_rejected(self, path_file, capsys):
        with open(path_file) as fp:
            t0 = float(StepPath.load(fp).times[1])
        code, _, err = run(["extract", "--path", str(path_file),
                            "--marks", f"{t0!r}"], capsys)
        assert code == 2
        assert "collides" in err

    def test_explicit_marks(self, path_file, capsys):
        code, out, _ = run(["extract", "--path", str(path_file),
                            "--marks", "0.311,0.707"], capsys)
        assert code == 0


class TestVerify:
    def test_pass_and_report(self, tmp_path, capsys):
        code, out, _ = run(["--seed", "1", "--out", str(tmp_path), "verify",
                            "height", "--param", "height.reps=20"], capsys)
        assert code == 0
        rep = json.loads((tmp_path / "height.json").read_text())
        assert rep["passed"] is True
        assert rep["parameters"]["reps"] == 20

    def test_csv_format(self, capsys):
        code, out, _ = run(["--seed", "1", "--format", "csv", "verify",
                            "height", "--param", "height.reps=10"], capsys)
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0].startswith("name,passed")
        assert lines[1].startswith("height,1")

    def test_unknown_experiment(self, capsys):
        code, _, err = run(["verify", "unknown-name"], capsys)
        assert code == 2
        assert "unknown" in err

    def test_failing_experiment_exit_code(self, capsys):
        # distance at tiny replicate count with a near-impossible band
        code, _, _ = run(["--seed", "1", "verify", "distance",
                          "--param", "distance.seeds=10",
                          "--param", "distance.band=0.0001"], capsys)
        assert code == 1

    def test_report_command(self, tmp_path, capsys):
        run(["--seed", "1", "--out", str(tmp_path), "verify", "height",
             "--param", "height.reps=10"], capsys)
        code, out, _ = run(["report", str(tmp_path / "height.json")], capsys)
        assert code == 0
        assert "height" in out

    def test_config_file(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"seed": 9, "format": "csv"}))
        code, out, _ = run(["--config", str(cfg), "verify", "height",
                            "--param", "height.reps=10"], capsys)
        assert code == 0
        assert out.startswith("name,passed")

    def test_worker_independence(self, tmp_path, capsys):
        d1, d2 = tmp_path / "w1", tmp_path / "w2"
        run(["--seed", "3", "--out", str(d1), "verify", "vervaat", "--param",
             "vervaat.bridge_reps=20", "--param", "vervaat.rho_reps=200"], capsys)
        run(["--seed", "3", "--workers", "2", "--out", str(d2), "verify",
             "vervaat", "--param", "vervaat.bridge_reps=20", "--param",
             "vervaat.rho_reps=200"], capsys)
        r1 = json.loads((d1 / "vervaat.json").read_text())
        r2 = json.loads((d2 / "vervaat.json").read_text())
        for key in ("statistic", "p_value", "passed"):
            assert r1[key] == r2[key]
