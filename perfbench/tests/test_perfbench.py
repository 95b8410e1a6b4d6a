"""Tests of the benchmark itself: the oracle, span arithmetic and failure counting.

Run with ``python3 -m pytest perfbench/tests`` from the root of the checkout.
"""

import contextlib
import io
import json
import math
import os
import threading

import pytest

import checks
import probes
import run
from spans import Recorder, self_times

from roeforge import cli
from roeforge.families import make_cycle, make_margulis


# -- the oracle -------------------------------------------------------------------

def test_oracle_on_c8_gives_the_readme_value():
    c = checks.validated_colours(make_cycle(8))
    assert c == 2
    rho = checks.laplacian_rho(8, checks.cycle_edges(8), c)
    assert rho == pytest.approx(0.8535533905932737, abs=1e-15)


@pytest.mark.parametrize("s", [4, 16, 64])
def test_oracle_reproduces_the_cycle_closed_form(s):
    rho = checks.laplacian_rho(s, checks.cycle_edges(s), 2)
    assert rho == pytest.approx((1 + math.cos(2 * math.pi / s)) / 2, abs=1e-13)


def test_margulis_edges_match_the_family_graph():
    space = make_margulis(8)
    edges = checks.margulis_edges(8)
    assert sorted(map(tuple, edges.tolist())) == [
        (u, v) for u in range(64) for v in range(u + 1, 64) if space.dist[u, v] == 1]


def test_oracle_agrees_with_the_pipeline_on_margulis_8():
    space = make_margulis(8)
    report = cli._pipeline(space, radius=1.0, kmax=4, c=None, threshold=0.95)
    (oracle,) = checks.gap_oracle("margulis", [8])
    assert report.components[0].rho == pytest.approx(oracle, abs=1e-12)


# -- span self times ------------------------------------------------------------------

def _span(sid, name, start, end, thread=1, parent=None):
    return (sid, name, thread, parent, start, end)


def test_self_time_of_nested_spans():
    spans = [
        _span(1, "a", 0.0, 10.0),
        _span(2, "b", 1.0, 4.0, parent=1),
        _span(3, "d", 2.0, 3.0, parent=2),
        _span(4, "c", 5.0, 6.0, parent=1),
        _span(5, "e", 6.0, 6.5, parent=1),   # starts where its sibling ends
    ]
    got = self_times(spans)
    assert got == pytest.approx({1: 5.5, 2: 2.0, 3: 1.0, 4: 1.0, 5: 0.5})
    assert sum(got.values()) == pytest.approx(10.0)


def test_self_time_shares_instants_between_busy_threads():
    spans = [
        _span(1, "root", 0.0, 10.0, thread=1),
        _span(2, "wait", 2.0, 8.0, thread=1, parent=1),
        _span(3, "x", 2.0, 5.0, thread=2, parent=2),
        _span(4, "y", 3.0, 8.0, thread=3, parent=2),
    ]
    got = self_times(spans, idle=("wait",))
    # x alone on [2,3], x and y share [3,5], y alone on [5,8]
    assert got == pytest.approx({1: 4.0, 2: 0.0, 3: 2.0, 4: 4.0})
    assert sum(got.values()) == pytest.approx(10.0)


def test_recorder_links_worker_spans_to_the_submitting_span():
    rec = Recorder()
    leaf = rec.wrap(lambda: None, "leaf")
    with rec.span("root") as root:
        parent = rec.current()

        def work():
            rec.adopt(parent)
            leaf()

        t = threading.Thread(target=work)
        t.start()
        t.join(timeout=10)
        assert not t.is_alive()
    (leaf_span,) = [s for s in rec.spans if s[1] == "leaf"]
    assert leaf_span[3] == root
    assert sum(self_times(rec.spans).values()) > 0


def test_probes_cover_a_small_gap_run(tmp_path):
    manifest = tmp_path / "m.json"
    manifest.write_text(json.dumps({"family": "box_space_Z", "members": [[8, 16]]}))
    rec = Recorder()
    restore = probes.install(rec)
    try:
        with rec.span("cli.main"), contextlib.redirect_stdout(io.StringIO()) as out:
            rc = cli.main(["gap", str(manifest), "--kmax", "4", "--jobs", "2"])
    finally:
        restore()
    assert rc == 2 and json.loads(out.getvalue())["uniform_gap"] is False
    layers = probes.layer_metrics(rec.spans, rec.counts)
    assert layers["space.points"] == 24
    assert layers["colouring.n_colours"] == 2
    assert layers["spectral.dense_components"] == 2
    assert layers["transalg.nnz"] > 0 and layers["transalg.to_csr_s"] > 0
    (root,) = [s for s in rec.spans if s[1] == "cli.main"]
    # only the hand-overs to and from worker threads are uncovered
    uncovered = (root[5] - root[4]) - layers["trace.self_sum_s"]
    assert 0 <= uncovered < 5e-3
    assert cli.edge_colouring.__module__ == "roeforge.colouring"   # undone


# -- failures are counted -------------------------------------------------------------

def _margulis_child(stdout, rc):
    return {"run_s": 1.0, "rc": rc, "crash": None, "stdout": stdout, "traced": False,
            "cpu_s": 1.0, "rss_mb": 1.0, "setup_s": 0.1, "wall_s": 1.2}


def _summary(wl, children):
    oracle = checks.gap_oracle("margulis", [16, 24, 32])
    for child in children:
        run._judge(wl, child, oracle, wl.reference())
    return run._summarise(wl, 0, 1.0, False, [], children)


def test_wrong_exit_code_and_perturbed_rho_count_as_failed_operations():
    wl = run.WORKLOADS["margulis"]
    ref = wl.reference()
    doc = json.loads(ref)
    doc["members"][1]["components"][0]["rho"] += 1e-6
    perturbed = json.dumps(doc, indent=2) + "\n"
    res = _summary(wl, [_margulis_child(ref, 0), _margulis_child(ref, 2),
                        _margulis_child(perturbed, 0)])
    assert res["attempted"] == 9
    assert res["failed"] == 3 + 1
    assert res["correct"] is False
    assert res["metrics"]["run_s"]["samples"] == 3


def test_reference_passes_its_own_checks():
    wl = run.WORKLOADS["margulis"]
    res = _summary(wl, [_margulis_child(wl.reference(), 0)])
    assert (res["attempted"], res["failed"], res["correct"]) == (3, 0, True)


def test_rho_within_reference_tolerance_still_passes():
    wl = run.WORKLOADS["boxspace"]
    ref = wl.reference()
    doc = json.loads(ref)
    doc["members"][0]["components"][2]["rho"] += 5e-13
    doc["members"][0]["components"][4]["curve"][3]["norm"] *= 1 + 5e-8
    oracle = checks.gap_oracle("box_space_Z", [[64, 128, 256, 512, 1024]])
    ok = checks.check_gap(json.dumps(doc, indent=2) + "\n", 2, 2, ref, oracle, False)
    assert ok == [True] * 5
    doc["members"][0]["components"][4]["curve"][3]["norm"] *= 1 + 1e-6
    ok = checks.check_gap(json.dumps(doc, indent=2) + "\n", 2, 2, ref, oracle, False)
    assert ok == [True, True, True, True, False]


def test_verify_failures_are_counted_per_case():
    good = checks.verify_stdout(10)
    assert checks.check_verify(good, 0, 10) == 0
    assert checks.check_verify(good, 2, 10) == 10
    assert checks.check_verify(good.replace("PASS (10 cases)", "PASS (9 cases)"), 0, 10) == 10
    failing = good.replace("row-sums\tok\t0", "row-sums\tFAIL\t3").replace(
        "PASS (10 cases)", "FAIL (3/10 cases failed)")
    assert checks.check_verify(failing, 2, 10) == 3
    assert checks.check_verify("", None, 10) == 10


# -- the output matches BENCHMARK.json ---------------------------------------------------

def _declared(kind):
    with open(os.path.join(run.ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return {m["name"]: m["unit"] for m in json.load(fh)[kind]}


def test_reported_metrics_are_the_declared_ones():
    wl = run.WORKLOADS["margulis"]
    timed = _summary(wl, [_margulis_child(wl.reference(), 0)])
    assert {k: m["unit"] for k, m in timed["metrics"].items()} == _declared("end_to_end")
    rec = Recorder()
    with rec.span("cli.main"):
        pass
    plain = _margulis_child(wl.reference(), 0)
    traced = dict(plain, traced=True, layers=probes.layer_metrics(rec.spans, rec.counts))
    for child in (plain, traced):
        run._judge(wl, child, [0.0] * 3, wl.reference())
    res = run._summarise(wl, 0, 1.0, True, [], [plain, traced])
    assert {k: m["unit"] for k, m in res["metrics"].items()} == _declared("per_layer")
