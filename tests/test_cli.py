import gc
import json
import multiprocessing
import threading
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
import scipy.sparse.linalg as spla

import roeforge as rf
from roeforge import cli, colouring, spectral, transalg
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


# dense enough (9 of 15 possible edges) that scipy's "auto" shortest path
# runs Floyd-Warshall, whose radius-0.6 tube graph, and so rho, differs
# from Dijkstra's
UNEVEN = "space uneven\n" + "".join(f"edge {u} {v} {w}/10\n" for u, v, w in (
    ("a", "b", 3), ("a", "c", 1), ("a", "e", 1), ("a", "f", 2), ("b", "d", 3),
    ("b", "f", 2), ("c", "e", 1), ("c", "f", 1), ("e", "f", 1)))


@pytest.mark.parametrize("chunk", [1 << 20, 4], ids=["one-chunk", "chunked"])
def test_distances_do_not_depend_on_query_order(tmp_path, capsys, monkeypatch, chunk):
    from scipy.sparse.csgraph import shortest_path

    from roeforge import space as space_mod
    from roeforge.space import support_diameter

    monkeypatch.setattr(space_mod, "_CHUNK", chunk)

    def answers(space):
        n = space.n_points
        t = rf.tube(space, 0.6)
        return (t.pairs, t.diameter, rf.tube_graph_edges(space, 0.6),
                [support_diameter(space, [x], [y]) for x in range(n) for y in range(n)])

    fresh = answers(rf.parse_space_file(UNEVEN))
    read_first = rf.parse_space_file(UNEVEN)
    floyd = shortest_path(read_first._graph, method="FW")
    assert [(int(u), int(v)) for u, v in np.argwhere(np.triu(floyd <= 0.6, k=1))] != fresh[2]
    read_first.dist
    assert answers(read_first) == fresh

    path = write(tmp_path, "uneven.space", UNEVEN)
    main(["gap", path, "--radius", "0.6"])
    fresh_out = capsys.readouterr().out

    def parse_and_read(text):
        space = space_mod.parse_space_file(text)
        space.dist
        return space

    monkeypatch.setattr(cli, "parse_space_file", parse_and_read)
    main(["gap", path, "--radius", "0.6"])
    assert capsys.readouterr().out == fresh_out


@pytest.mark.parametrize("chunk", [1 << 20, 4], ids=["one-chunk", "chunked"])
def test_uneven_distances_are_symmetric(monkeypatch, chunk):
    """Each unordered pair has one distance, found by the smaller index's search."""
    from roeforge import space as space_mod

    monkeypatch.setattr(space_mod, "_CHUNK", chunk)
    s = rf.parse_space_file(UNEVEN)
    t = rf.tube(s, 0.6)
    assert t == t.transpose()
    assert rf.tube_graph_edges(s, 0.6) == sorted((x, y) for x, y in t.pairs if x < y)
    assert s.max_ball_size(0.6) == max(
        sum(1 for x, _ in t.pairs if x == c) for c in range(s.n_points))
    rf.FiniteSpace(s.points, s.dist)      # symmetric: passes validation
    assert rf.tube(s, 0.6) == t


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


def test_gap_on_a_space_file_starts_no_thread(tmp_path, capsys, monkeypatch):
    """``--jobs`` is accepted on a space file but changes nothing: the
    components run on the calling thread."""
    path = write(tmp_path, "s.space", SPLIT)
    code = main(["gap", path, "--jobs", "1"])
    serial = capsys.readouterr().out

    def refuse(self):
        raise AssertionError(f"gap started thread {self.name}")

    monkeypatch.setattr(threading.Thread, "start", refuse)
    assert main(["gap", path, "--jobs", "2"]) == code
    assert capsys.readouterr().out == serial


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
    assert "on 600 points" in captured.err and "after 0 matvecs" in captured.err


@pytest.mark.parametrize("family, n", [("cycle", 600), ("margulis", 24)],
                         ids=["shift-invert", "lanczos"])
def test_gap_matvec_cap_exits_one(tmp_path, capsys, monkeypatch, family, n):
    # a solve that reaches the matvec cap (inverse solves count on the
    # shift-invert path) fails with one line naming the points and matvecs
    monkeypatch.setattr(spectral, "_MATVEC_CAP", 10)
    path = write(tmp_path, "m.json", json.dumps({"family": family, "members": [n]}))
    assert main(["gap", path]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    points = 576 if family == "margulis" else n
    assert captured.err == (f"error: Lanczos iteration did not converge on {points} points "
                            "after 10 matvecs: the cap is 10 matvecs\n")


def test_gap_too_large_to_allocate_exits_one(tmp_path, capsys):
    # 10^7 points is over the space size limit, so the cycle is refused
    # before any of it is built
    path = write(tmp_path, "big.json", json.dumps({"family": "cycle", "members": [10_000_000]}))
    assert main(["gap", path]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: out of memory: Unable to allocate")
    assert captured.err.count("\n") == 1


def test_bare_memory_error_still_gets_a_message(tmp_path, capsys, monkeypatch):
    def exhausted(text):
        raise MemoryError()

    monkeypatch.setattr(cli, "load_manifest", exhausted)
    path = write(tmp_path, "c.json", json.dumps({"family": "cycle", "members": [5]}))
    assert main(["gap", path]) == 1
    assert capsys.readouterr().err == "error: out of memory: allocation failed\n"


def test_bad_arguments_exit_one(tmp_path, capsys):
    assert main(["gap"]) == 1  # missing input
    assert main(["nonsense"]) == 1
    assert main([]) == 1
    path = write(tmp_path, "tri.space", TRI)
    assert main(["gap", path, "--jobs", "0"]) == 1
    assert main(["gap", path, "--kmax", "0"]) == 1


def test_nan_radius_exits_one(tmp_path, capsys):
    # a NaN radius once gave an empty tube, rho = 1 and exit 2
    path = write(tmp_path, "tri.space", TRI)
    assert main(["gap", path, "--radius", "nan"]) == 1
    out = capsys.readouterr()
    assert out.out == "" and "radius" in out.err
    assert main(["gap", path, "--radius", "inf"]) == 0


def _strict_json(text):
    def refuse(name):
        raise ValueError(f"{name} is not JSON")

    return json.loads(text, parse_constant=refuse)


@pytest.mark.parametrize("name, text", [
    ("tri.space", TRI),
    ("c.json", json.dumps({"family": "cycle", "members": [5, 6]})),
], ids=["space", "manifest"])
def test_infinite_radius_writes_strict_json(tmp_path, capsys, name, text):
    # an unbounded radius was once written as the bare word Infinity
    path = write(tmp_path, name, text)
    out_path = str(tmp_path / "out.json")
    assert main(["gap", path, "--radius", "inf", "--json", out_path]) == 0
    out = capsys.readouterr().out
    doc = _strict_json(out)
    for report in doc.get("members", [doc]):
        assert report["params"]["radius"] == "inf"
    assert Path(out_path).read_text() == out


def test_gap_refuses_non_finite_floats_in_its_output(tmp_path, capsys, monkeypatch):
    def with_nan(report):
        return {**rf.report_to_dict(report), "max_rho": float("nan")}

    monkeypatch.setattr(cli, "report_to_dict", with_nan)
    path = write(tmp_path, "tri.space", TRI)
    assert main(["gap", path]) == 1
    out = capsys.readouterr()
    assert out.out == "" and "not JSON compliant" in out.err


def test_kmax_above_the_matvec_cap_exits_one(tmp_path, capsys):
    # the curve spends kmax matvecs on each component; past one solve's cap
    # a large kmax ran for as long as it asked instead of failing
    path = write(tmp_path, "tri.space", TRI)
    assert main(["gap", path, "--kmax", str(spectral._MATVEC_CAP + 1)]) == 1
    out = capsys.readouterr()
    assert out.out == ""
    assert out.err == "error: --kmax must be <= 20000, the matvec cap of one solve\n"
    assert main(["gap", path, "--kmax", str(spectral._MATVEC_CAP)]) == 0


@pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
def test_non_finite_threshold_exits_one(tmp_path, capsys, value):
    # checked before the input is read: the missing file goes unreported
    missing = str(tmp_path / "missing.space")
    assert main(["gap", missing, f"--threshold={value}"]) == 1
    out = capsys.readouterr()
    assert out.out == "" and "--threshold must be finite" in out.err


@pytest.mark.parametrize("extra, code", [([], 0), (["--kmax", "0"], 1)])
def test_main_leaves_the_collector_as_it_found_it(tmp_path, capsys, extra, code):
    path = write(tmp_path, "tri.space", TRI)
    before = gc.get_freeze_count(), gc.isenabled()
    assert main(["gap", path, *extra]) == code
    assert (gc.get_freeze_count(), gc.isenabled()) == before


def test_a_command_runs_with_the_import_heap_frozen(monkeypatch):
    seen = []

    def gap(args):
        seen.append(gc.get_freeze_count() > 0)
        return 0

    monkeypatch.setattr(cli, "_cmd_gap", gap)
    assert gc.get_freeze_count() == 0
    assert main(["gap", "unused.space"]) == 0
    assert seen == [True]
    assert gc.get_freeze_count() == 0


def test_a_caller_that_froze_keeps_its_frozen_objects(tmp_path, capsys):
    path = write(tmp_path, "tri.space", TRI)
    gc.freeze()
    try:
        assert main(["gap", path]) == 0
        # objects freed during the run leave the count, but main thawed none
        assert gc.get_freeze_count() > 0
    finally:
        gc.unfreeze()


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


def test_overflowing_edge_weight_exits_one(tmp_path, capsys):
    path = write(tmp_path, "big.space", "space s\nedge a b 1e400\n")
    for command in ("gap", "components"):
        assert main([command, path]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: line 2: bad edge weight '1e400'\n"


@pytest.mark.parametrize("text", ['{"family": ["margulis"], "members": [4]}',
                                  '{"family": "margulis", "members": [1e400]}',
                                  '{"family": "cycle", "members": [8.7]}',
                                  '{"family": "box_space_Z", "members": [[3.9, 5.5]]}'])
def test_malformed_manifest_exits_one(tmp_path, capsys, text):
    path = write(tmp_path, "bad.json", text)
    assert main(["gap", path]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error:") and captured.err.count("\n") == 1


def test_verify_small_run(capsys):
    assert main(["verify", "--cases", "3"]) == 0
    out = capsys.readouterr().out
    assert out.endswith("PASS (3 cases)\n")
    for check in ("algebra-axioms", "row-sums", "colouring",
                  "decomposition", "projection", "restriction"):
        assert f"{check}\tok\t0 failure(s)" in out


def test_verify_validates_only_its_own_operators(capsys, monkeypatch):
    # each case draws three random operators; everything else verify
    # builds is derived from operators the package already holds.  One job:
    # an operator built in a forked worker never reaches this counter
    calls = []
    real = rf.FinitePropOp.__init__

    def counting(self, *args, **kwargs):
        calls.append(args)
        real(self, *args, **kwargs)

    monkeypatch.setattr(rf.FinitePropOp, "__init__", counting)
    assert main(["verify", "--cases", "4", "--seed", "1000", "--jobs", "1"]) == 0
    assert capsys.readouterr().out.endswith("PASS (4 cases)\n")
    assert len(calls) == 3 * 4


def test_verify_zero_cases_warns(capsys):
    assert main(["verify", "--cases", "0"]) == 0
    captured = capsys.readouterr()
    assert captured.out == "PASS (0 cases)\n"
    assert "nothing was checked" in captured.err


def test_verify_case_compares_integer_rows(monkeypatch):
    """verify's identities compare rational operators row by row in ints:
    no case reads an operator's entries view, and transalg makes no
    Fraction on the way."""
    built, fractions = [], []
    store = transalg.FinitePropOp._store

    def recording(self, space, data, mode):
        built.append(self)
        return store(self, space, data, mode)

    def fraction(*args):
        fractions.append(args)
        return Fraction(*args)

    monkeypatch.setattr(transalg.FinitePropOp, "_store", recording)
    monkeypatch.setattr(transalg, "Fraction", fraction)
    components = set()
    for seed in (0, 7, 13):
        for i in range(4):
            rng = np.random.default_rng([seed, i])
            space = cli._random_space(rng)
            components.add(space.n_components)
            cli._verify_case(rng, space)
    assert len(components) > 1
    assert built and {op.mode for op in built} == {rf.MODE_RATIONAL}
    assert [op for op in built if op._entries is not None] == []
    assert fractions == []


WORKLOADS = Path(__file__).resolve().parents[1] / "perfbench" / "workloads"


@pytest.mark.parametrize("name, code", [("margulis", 0), ("boxspace", 2)])
def test_gap_builds_no_entries_view(capsys, monkeypatch, name, code):
    """gap reads every operator it builds through its rows: none of them
    builds its entries view."""
    built = []
    store = transalg.FinitePropOp._store

    def recording(self, space, rows, mode):
        built.append(self)
        return store(self, space, rows, mode)

    monkeypatch.setattr(transalg.FinitePropOp, "_store", recording)
    assert main(["gap", str(WORKLOADS / f"{name}.json"), "--kmax", "32"]) == code
    assert capsys.readouterr().out
    assert built
    assert [op for op in built if op._entries is not None] == []


@pytest.mark.parametrize("name, code", [("margulis", 0), ("boxspace", 2)])
def test_gap_builds_no_colouring_view(capsys, monkeypatch, name, code):
    """gap reads each colouring through its arrays: none of them builds
    its ``edges`` view."""
    made = []

    def recording(space, radius):
        made.append(colouring.edge_colouring(space, radius))
        return made[-1]

    monkeypatch.setattr(cli, "edge_colouring", recording)
    assert main(["gap", str(WORKLOADS / f"{name}.json"), "--kmax", "32"]) == code
    assert capsys.readouterr().out
    assert made
    assert [col for col in made if "edges" in vars(col)] == []


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


def _verify_runs(capsys, argv, jobs=(1, 2, 3)):
    """(exit code, stdout, stderr) of ``verify ARGV --jobs j`` for each j."""
    runs = []
    for j in jobs:
        rc = main(["verify", *argv, "--jobs", str(j)])
        captured = capsys.readouterr()
        runs.append((rc, captured.out, captured.err))
    return runs


def _case_of(rng) -> int:
    return rng.bit_generator.seed_seq.entropy[1]


@pytest.mark.parametrize("seed, text", [(3, None), (11, None), (0, SPLIT)],
                         ids=["seed3", "seed11", "fixed"])
def test_verify_output_does_not_depend_on_jobs(tmp_path, capsys, seed, text):
    argv = ["--cases", "7", "--seed", str(seed)]
    if text is not None:
        argv.append(write(tmp_path, "s.space", text))
    first, *rest = _verify_runs(capsys, argv)
    assert first[0] == 0 and first[1].endswith("PASS (7 cases)\n")
    assert rest == [first, first]


def test_verify_merges_worker_failures(capsys, monkeypatch):
    # the patch reaches the workers through fork
    real = cli._verify_case

    def planted(rng, space):
        if _case_of(rng) in (1, 4):
            raise cli._CheckFailure("projection", "planted")
        real(rng, space)

    monkeypatch.setattr(cli, "_verify_case", planted)
    first, *rest = _verify_runs(capsys, ["--cases", "6", "--seed", "2"])
    rc, out, err = first
    assert rc == 2 and out.endswith("FAIL (2/6 cases failed)\n")
    assert "projection\tFAIL\t2 failure(s)" in out
    assert json.loads(err.split("\n", 1)[1])["case"] in (1, 4)
    assert rest == [first, first]


def test_verify_worker_error_exits_one(capsys, monkeypatch):
    def broken(rng, space):
        if _case_of(rng) == 3:
            raise ValueError("planted")

    monkeypatch.setattr(cli, "_verify_case", broken)
    assert _verify_runs(capsys, ["--cases", "4"], jobs=(1, 2)) == [(1, "", "error: planted\n")] * 2


def test_verify_jobs_must_be_positive(capsys):
    assert main(["verify", "--cases", "0", "--jobs", "0"]) == 1
    assert capsys.readouterr().err == "error: --jobs must be >= 1\n"


def test_verify_single_case_starts_no_pool(capsys, monkeypatch):
    def no_pool(*args, **kwargs):
        raise AssertionError("a worker pool was started")

    monkeypatch.setattr(multiprocessing, "get_context", no_pool)
    assert main(["verify", "--cases", "1", "--jobs", "2"]) == 0
    assert capsys.readouterr().out.endswith("PASS (1 cases)\n")


def test_console_script_wiring():
    import importlib.metadata as md
    eps = md.entry_points()
    scripts = eps.select(group="console_scripts", name="roeforge")
    assert [ep.value for ep in scripts] == ["roeforge.cli:main"]


# the verify generators as they were when every space held its matrix: the
# draws, and so the corpora, must not change

def _dense_random_op(rng, space, density=0.3):
    entries = {}
    n = space.n_points
    for x in range(n):
        for y in range(n):
            if np.isfinite(space.dist[x, y]) and rng.random() < density:
                entries[(x, y)] = Fraction(int(rng.integers(-6, 7)),
                                           int(rng.integers(1, 5)))
    return rf.FinitePropOp(space, entries)


def _dense_random_translation(rng, space, radius):
    pairs = [(x, y)
             for x in range(space.n_points)
             for y in range(space.n_points)
             if space.dist[x, y] <= radius]
    rng.shuffle(pairs)
    mapping = {}
    used_img = set()
    for x, y in pairs:
        if y not in mapping and x not in used_img and rng.random() < 0.6:
            mapping[y] = x
            used_img.add(x)
    return rf.PartialTranslation(space, mapping)


def test_verify_generators_match_the_dense_loops():
    unions = 0
    for i in range(30):
        space = cli._random_space(np.random.default_rng([5, i]))
        unions += space.name == "u"
        for radius in (1.0, 2.0):
            new, old = np.random.default_rng([6, i]), np.random.default_rng([6, i])
            assert cli._random_op(new, space) == _dense_random_op(old, space)
            assert (cli._random_translation(new, space, radius)
                    == _dense_random_translation(old, space, radius))
            assert new.random() == old.random()
    assert unions >= 5
