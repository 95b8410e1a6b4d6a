import json
from pathlib import Path

import numpy as np
import pytest
import scipy.sparse.linalg as spla

import roeforge as rf
from roeforge.cli import main


TRI = "space tri\nedge a b\nedge b c\nedge a c\n"
SPLIT = "space one\nedge a b\n\nspace two\nedge a b\nedge b c\n"
FAR = "space far\nedge a b 3\n"


def write(tmp_path, name, text):
    p = tmp_path / name
    p.write_text(text)
    return str(p)


def test_components_table(tmp_path, capsys):
    path = write(tmp_path, "s.space", SPLIT)
    assert main(["components", path]) == 0
    assert capsys.readouterr().out == "component\tsize\n0\t2\n1\t3\n"


def test_gap_single_space(tmp_path, capsys):
    path = write(tmp_path, "tri.space", TRI)
    assert main(["gap", path]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["space"] == "tri"
    assert list(doc) == ["space", "components", "max_rho",
                         "uniform_gap_threshold", "uniform_gap", "params"]
    assert doc["uniform_gap"] is True
    assert doc["params"]["radius"] == 1.0
    assert doc["params"]["threshold"] == 0.95
    assert doc["components"][0]["curve"][0]["k"] == 1


def test_gap_exit_two_without_gap(tmp_path, capsys):
    # the only edge is longer than the colouring radius, so the averaging
    # operator is the identity and the component keeps rho = 1
    path = write(tmp_path, "far.space", FAR)
    assert main(["gap", path]) == 2
    doc = json.loads(capsys.readouterr().out)
    assert doc["uniform_gap"] is False
    assert doc["components"][0]["no_effective_gap"] is True
    # widening the radius restores the gap
    assert main(["gap", path, "--radius", "3"]) == 0


def test_gap_threshold_changes_verdict(tmp_path, capsys):
    path = write(tmp_path, "oct.space",
                 "space oct\n" + "\n".join(
                     f"edge p{i} p{(i + 1) % 8}" for i in range(8)) + "\n")
    assert main(["gap", path]) == 0          # rho = 0.854 < 0.95
    capsys.readouterr()
    assert main(["gap", path, "--threshold", "0.8"]) == 2


def test_gap_output_files_are_deterministic(tmp_path, capsys):
    path = write(tmp_path, "tri.space", TRI)
    j1, c1 = str(tmp_path / "a.json"), str(tmp_path / "a.csv")
    j2, c2 = str(tmp_path / "b.json"), str(tmp_path / "b.csv")
    main(["gap", path, "--json", j1, "--csv", c1])
    out1 = capsys.readouterr().out
    main(["gap", path, "--json", j2, "--csv", c2])
    out2 = capsys.readouterr().out
    assert out1 == out2
    assert Path(j1).read_text() == Path(j2).read_text() == out1
    assert Path(c1).read_text() == Path(c2).read_text()
    assert Path(c1).read_text().splitlines()[0].startswith("space,component_id,")


def test_gap_manifest(tmp_path, capsys):
    man = {"family": "margulis", "members": [2, 4]}
    path = write(tmp_path, "m.json", json.dumps(man))
    assert main(["gap", path]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert list(doc) == ["family", "params", "members", "max_rho",
                         "uniform_gap_threshold", "uniform_gap"]
    assert [m["space"] for m in doc["members"]] == ["Mg2", "Mg4"]
    assert doc["uniform_gap"] is True


def test_gap_manifest_exit_two(tmp_path, capsys):
    man = {"family": "box_space_Z", "members": [[4, 8, 16]]}
    path = write(tmp_path, "box.json", json.dumps(man))
    assert main(["gap", path]) == 2  # rho reaches 0.96 > 0.95
    doc = json.loads(capsys.readouterr().out)
    assert doc["uniform_gap"] is False


def test_gap_manifest_jobs(tmp_path, capsys):
    man = {"family": "cycle", "members": [4, 6, 8]}
    path = write(tmp_path, "c.json", json.dumps(man))
    assert main(["gap", path, "--jobs", "3"]) == 0
    with_jobs = capsys.readouterr().out
    assert main(["gap", path]) == 0
    assert capsys.readouterr().out == with_jobs


def test_gap_rate_bound_violation_is_an_error(tmp_path, capsys):
    path = write(tmp_path, "oct.space",
                 "space oct\n" + "\n".join(
                     f"edge p{i} p{(i + 1) % 8}" for i in range(8)) + "\n")
    assert main(["gap", path, "--c", "3.9"]) == 1
    assert capsys.readouterr().err.startswith("error:")


def test_jobs_env_fallback(tmp_path, capsys, monkeypatch):
    path = write(tmp_path, "tri.space", TRI)
    monkeypatch.setenv("ROEFORGE_JOBS", "2")
    assert main(["gap", path]) == 0
    capsys.readouterr()
    monkeypatch.setenv("ROEFORGE_JOBS", "banana")
    assert main(["gap", path]) == 0
    assert "ROEFORGE_JOBS" in capsys.readouterr().err


def test_gap_lanczos_non_convergence_exits_one(tmp_path, capsys, monkeypatch):
    def stuck(*args, **kwargs):
        raise spla.ArpackNoConvergence("ARPACK error -1: No convergence",
                                       np.empty(0), np.empty((0, 0)))

    monkeypatch.setattr(spla, "eigsh", stuck)
    assert 600 > rf.DENSE_CUTOFF  # so the member takes the Lanczos path
    path = write(tmp_path, "c.json", json.dumps({"family": "cycle", "members": [600]}))
    assert main(["gap", path]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error:") and "did not converge" in captured.err


def test_bad_arguments_exit_one(tmp_path, capsys):
    assert main(["gap"]) == 1  # missing input
    assert main(["nonsense"]) == 1
    assert main([]) == 1
    path = write(tmp_path, "tri.space", TRI)
    assert main(["gap", path, "--jobs", "0"]) == 1
    assert main(["gap", path, "--kmax", "0"]) == 1


def test_help_exits_zero(capsys):
    assert main(["--help"]) == 0
    assert "gap" in capsys.readouterr().out


def test_missing_file_reports_error(capsys):
    assert main(["gap", "/no/such/file.space"]) == 1
    assert capsys.readouterr().err.startswith("error:")


def test_unparsable_space_reports_line(tmp_path, capsys):
    path = write(tmp_path, "bad.space", "space s\nedge a\n")
    assert main(["gap", path]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and "line 2" in err


def test_verify_small_run(capsys):
    assert main(["verify", "--cases", "3"]) == 0
    out = capsys.readouterr().out
    assert out.endswith("PASS (3 cases)\n")
    for check in ("algebra-axioms", "row-sums", "colouring",
                  "decomposition", "projection", "restriction"):
        assert f"{check}\tok\t0 failure(s)" in out


def test_verify_validates_only_its_own_operators(capsys, monkeypatch):
    # each case draws three random operators; everything else verify
    # builds is derived from operators the package already holds
    calls = []
    real = rf.FinitePropOp.__init__

    def counting(self, *args, **kwargs):
        calls.append(args)
        real(self, *args, **kwargs)

    monkeypatch.setattr(rf.FinitePropOp, "__init__", counting)
    assert main(["verify", "--cases", "4", "--seed", "1000"]) == 0
    assert capsys.readouterr().out.endswith("PASS (4 cases)\n")
    assert len(calls) == 3 * 4


def test_verify_zero_cases_warns(capsys):
    assert main(["verify", "--cases", "0"]) == 0
    captured = capsys.readouterr()
    assert captured.out == "PASS (0 cases)\n"
    assert "nothing was checked" in captured.err


def test_verify_is_deterministic(capsys):
    main(["verify", "--cases", "4", "--seed", "9"])
    first = capsys.readouterr().out
    main(["verify", "--cases", "4", "--seed", "9"])
    assert capsys.readouterr().out == first


def test_verify_fixed_space(tmp_path, capsys):
    path = write(tmp_path, "tri.space", TRI)
    assert main(["verify", path, "--cases", "3"]) == 0
    assert capsys.readouterr().out.endswith("PASS (3 cases)\n")


def test_verify_rejects_large_fixed_space(tmp_path, capsys):
    lines = ["space big"] + [f"edge p{i} p{i + 1}" for i in range(70)]
    path = write(tmp_path, "big.space", "\n".join(lines) + "\n")
    assert main(["verify", path, "--cases", "1"]) == 1
    assert "64" in capsys.readouterr().err


def test_verify_negative_cases(capsys):
    assert main(["verify", "--cases", "-1"]) == 1
    assert capsys.readouterr().err.startswith("error:")


def test_console_script_wiring():
    import importlib.metadata as md
    eps = md.entry_points()
    scripts = eps.select(group="console_scripts", name="roeforge")
    assert [ep.value for ep in scripts] == ["roeforge.cli:main"]
