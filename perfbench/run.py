"""The roeforge benchmark: one command, three workloads, an optional traced run.

    python3 perfbench/run.py --workload {margulis,boxspace,verify,all}
                             --seed N --seconds S --trace {0,1}

Run it from the root of a checkout.  Each invocation of roeforge is a fresh
child process (``perfbench/child.py``), started one at a time, with BLAS
threads pinned to one, ``PYTHONHASHSEED`` fixed and ``ROEFORGE_JOBS``
cleared, so the load is a single closed-loop client.  Children run until
``--seconds`` of measuring is spent (always at least one); every output is
checked (``checks.py``).  ``--workload all`` runs the three in turn.

``--trace 0`` reports the end-to-end metrics: ``run_s`` (wall time of
``cli.main``), ``setup_s`` (process start to ``import roeforge.cli`` done)
and ``peak_rss_mb`` (the child's ``ru_maxrss``), each the median over the
run's children.  ``--trace 1`` alternates untraced and traced children and
reports the per-layer metrics from the spans (``probes.py``), plus the
tracing overhead.  The last line of stdout is one JSON object; the lines
before it give every metric with its unit and sample count, and a record
of the run, with what is needed to reproduce it, goes to ``.perfbench/``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass

import checks

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)          # the checkout
HERE = os.path.basename(BENCH_DIR)
OUT_DIR = ".perfbench"
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
CHILD_ENV = {**{k: "1" for k in THREAD_VARS}, "PYTHONHASHSEED": "0"}
SETUP_CHILDREN = 5        # import-only children per timed run, besides the op children
TIME_LIMIT_S = 170.0      # every child is stopped by then; the run must end within 180 s
VERIFY_CASES = 200        # per child; each child of a run draws its own corpus
VERIFY_CORPORA = 1000     # corpus seeds per benchmark seed, so runs never share one


@dataclass(frozen=True)
class Workload:
    name: str
    expect_rc: int
    manifest: str | None = None     # gap workloads: the family manifest
    op_per_member: bool = True      # gap workloads: an operation is a member, else a component

    def argv(self, seed: int, corpus: int) -> list:
        """The roeforge argv of the ``corpus``-th input of a run with this seed."""
        if self.manifest is None:
            return ["verify", "--cases", str(VERIFY_CASES),
                    "--seed", str(seed * VERIFY_CORPORA + corpus)]
        return ["gap", f"{HERE}/workloads/{self.manifest}", "--kmax", "32", "--jobs", "2"]

    def reference(self) -> str | None:
        if self.manifest is None:
            return None
        with open(os.path.join(ROOT, HERE, "reference", f"{self.name}.stdout"),
                  encoding="utf-8") as fh:
            return fh.read()

    def n_ops(self) -> int:
        if self.manifest is None:
            return VERIFY_CASES
        ref = json.loads(self.reference())
        return len(ref["members"]) if self.op_per_member else len(ref["members"][0]["components"])


WORKLOADS = {
    w.name: w for w in (
        # exit 2 is the right answer for the box space: it has no uniform gap
        Workload("margulis", expect_rc=0, manifest="margulis.json"),
        Workload("boxspace", expect_rc=2, manifest="boxspace.json", op_per_member=False),
        Workload("verify", expect_rc=0),
    )
}


def _median(values):
    return statistics.median(values) if values else None


class Runner:
    """Starts children one at a time and keeps them inside the time limit."""

    def __init__(self, started: float):
        self.deadline = started + TIME_LIMIT_S
        self.env = {k: v for k, v in os.environ.items() if k != "ROEFORGE_JOBS"}
        self.env.pop("PYTHONPATH", None)
        self.env.update(CHILD_ENV)
        os.makedirs(os.path.join(ROOT, OUT_DIR, "spans"), exist_ok=True)
        self._n = 0

    def child(self, argv, spans_path=None) -> dict:
        """One child; returns its timings, or an ``error``."""
        self._n += 1
        out = os.path.join(OUT_DIR, f"child-{os.getpid()}-{self._n}.json")
        cmd = [sys.executable, f"{HERE}/child.py", "--out", out]
        if spans_path:
            cmd += ["--spans", spans_path]
        cmd += ["--", *argv]
        spawned = time.perf_counter()
        try:
            proc = subprocess.run(cmd, cwd=ROOT, env=self.env, capture_output=True, text=True,
                                  timeout=max(1.0, self.deadline - spawned))
        except subprocess.TimeoutExpired:
            return {"error": "timeout", "wall_s": time.perf_counter() - spawned}
        wall = time.perf_counter() - spawned
        rec = {"wall_s": wall, "stderr": proc.stderr[-4000:]}
        try:
            with open(os.path.join(ROOT, out), encoding="utf-8") as fh:
                res = json.load(fh)
            os.remove(os.path.join(ROOT, out))
        except (OSError, json.JSONDecodeError):
            rec["error"] = f"child exited {proc.returncode} without a result"
            return rec
        rec["setup_s"] = res["ready"] - spawned
        if argv:
            rec.update(run_s=res["end"] - res["start"], rc=res["rc"], crash=res["crash"],
                       cpu_s=res["cpu_s"], rss_mb=res["maxrss_kb"] / 1024.0,
                       stdout=res["stdout"], layers=res.get("layers"))
        return rec


def _judge(wl: Workload, child: dict, oracle, reference) -> None:
    """Add ``ops``, ``failed`` and ``identical`` to a child's record."""
    n = wl.n_ops()
    child["ops"] = n
    if "error" in child or child["rc"] is None:
        child["failed"], child["identical"] = n, False
        return
    if wl.manifest is None:
        child["failed"] = checks.check_verify(child["stdout"], child["rc"], VERIFY_CASES)
        child["identical"] = child["stdout"] == checks.verify_stdout(VERIFY_CASES)
    else:
        ok = checks.check_gap(child["stdout"], child["rc"], wl.expect_rc, reference,
                              oracle, wl.op_per_member)
        child["failed"] = ok.count(False)
        child["identical"] = child["stdout"] == reference


def _oracle(wl: Workload):
    """Oracle rho per component; NaN (failing every check) if it cannot be had."""
    if wl.manifest is None:
        return None, None
    with open(os.path.join(ROOT, HERE, "workloads", wl.manifest), encoding="utf-8") as fh:
        manifest = json.load(fh)
    try:
        return checks.gap_oracle(manifest["family"], manifest["members"]), None
    except Exception:  # a broken program fails its operations, not the harness
        ref = json.loads(wl.reference())
        n = sum(len(m["components"]) for m in ref["members"])
        return [math.nan] * n, traceback.format_exc()


def run_workload(wl: Workload, seed: int, seconds: float, trace: bool, runner: Runner) -> dict:
    reference = wl.reference()
    oracle, oracle_error = _oracle(wl)
    runner.child([])                      # fills the bytecode caches; not counted
    setups = [] if trace else [runner.child([]) for _ in range(SETUP_CHILDREN)]
    pattern = (False, True) if trace else (False,)
    ops = []
    begun = time.perf_counter()
    while True:
        traced = pattern[len(ops) % len(pattern)]
        # in a traced run each untraced/traced pair shares one input
        argv = wl.argv(seed, len(ops) // len(pattern))
        spans_path = (os.path.join(OUT_DIR, "spans", f"{wl.name}-seed{seed}-{len(ops)}.json")
                      if traced else None)
        child = runner.child(argv, spans_path)
        child.update(traced=traced, argv=argv)
        _judge(wl, child, oracle, reference)
        ops.append(child)
        if "error" in child:
            break
        if len(ops) < len(pattern):
            continue
        upcoming = pattern[len(ops) % len(pattern)]
        expect = _median([c["wall_s"] for c in ops if c["traced"] == upcoming])
        if time.perf_counter() - begun + expect > seconds:
            break
    res = _summarise(wl, seed, seconds, trace, setups, ops)
    res["oracle"] = {"rho": oracle, "error": oracle_error}
    return res


def _metric(values, unit):
    values = [v for v in values if v is not None]
    return {"value": _median(values), "unit": unit, "samples": len(values)}


def _summarise(wl, seed, seconds, trace, setups, ops) -> dict:
    timed = [c for c in ops if "run_s" in c]
    plain = [c for c in timed if not c["traced"]]
    attempted = sum(c["ops"] for c in ops)
    failed = sum(c["failed"] for c in ops)
    if trace:
        traced = [c for c in timed if c["traced"] and c.get("layers")]
        metrics = {}
        names = traced[0]["layers"] if traced else {}
        for name in names:
            unit = "s" if name.endswith("_s") else "bytes" if name.endswith("_bytes") else "count"
            metrics[name] = _metric([c["layers"][name] for c in traced], unit)
        metrics["cli.cpu_s"] = _metric([c["cpu_s"] for c in plain], "s")
        metrics["cli.output_bytes"] = _metric([len(c["stdout"].encode()) for c in traced], "bytes")
        metrics["cli.stdout_identical"] = {"value": sum(c["identical"] for c in ops),
                                           "unit": "count", "samples": len(ops)}
        metrics["trace.run_s"] = _metric([c["run_s"] for c in traced], "s")
        untraced = _median([c["run_s"] for c in plain])
        overhead = (None if untraced is None or not traced
                    else metrics["trace.run_s"]["value"] - untraced)
        metrics["trace.overhead_s"] = {"value": overhead, "unit": "s",
                                       "samples": len(traced) + len(plain)}
    else:
        metrics = {
            "run_s": _metric([c["run_s"] for c in plain], "s"),
            "setup_s": _metric([c.get("setup_s") for c in setups + ops], "s"),
            "peak_rss_mb": _metric([c["rss_mb"] for c in plain], "MB"),
        }
    for c in ops:                         # keep the output only where it is evidence
        if c["failed"] == 0 and c["identical"]:
            c.pop("stdout", None)
    return {
        "workload": {"name": wl.name, "seed": seed, "seconds": seconds, "trace": int(trace), "expect_rc": wl.expect_rc},
        "correct": failed == 0 and bool(timed),
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
        "children": {"setup": setups, "ops": ops},
    }


# -- the run record ----------------------------------------------------------------

def _git_commit():
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return None                       # not a clone; the source digest identifies it
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def _source_digest() -> str:
    h = hashlib.sha256()
    src = os.path.join(ROOT, "src", "roeforge")
    for name in sorted(os.listdir(src)):
        if name.endswith(".py"):
            h.update(name.encode())
            with open(os.path.join(src, name), "rb") as fh:
                h.update(fh.read())
    return h.hexdigest()


def environment() -> dict:
    import numpy
    import scipy

    return {
        "nproc": os.cpu_count(),
        "usable_cpus": len(os.sched_getaffinity(0)),
        "platform": platform.platform(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "git_commit": _git_commit(),
        "source_sha256": _source_digest(),
        "child_env": {**CHILD_ENV, "ROEFORGE_JOBS": None, "PYTHONPATH": None},
    }


# -- output --------------------------------------------------------------------------

def _print_summary(res: dict, record_path: str) -> None:
    w = res["workload"]
    ops = res["children"]["ops"]
    print(f"{w['name']}  seed={w['seed']}  trace={w['trace']}  children={len(ops)}  "
          f"ops attempted={res['attempted']}  failed={res['failed']}")
    for name, m in sorted(res["metrics"].items()):
        value = "n/a" if m["value"] is None else f"{m['value']:.6g}"
        print(f"  {name:34s} {value:>14s} {m['unit']:6s} n={m['samples']}")
    frac = res["failed"] / res["attempted"] if res["attempted"] else 1.0
    print(f"  {'failed_frac':34s} {frac:>14.6g} {'':6s} "
          f"({res['failed']}/{res['attempted']} operations)")
    same = sum(c["identical"] for c in ops)
    print(f"  stdout byte-identical to the reference in {same}/{len(ops)} children")
    m = res["metrics"]
    if w["trace"] and m.get("trace.self_sum_s") and m["trace.overhead_s"]["value"] is not None:
        print(f"  self times sum to {m['trace.self_sum_s']['value']:.4f} s of traced run_s "
              f"{m['trace.run_s']['value']:.4f} s; overhead "
              f"{m['trace.overhead_s']['value']:.4f} s")
    for c in ops:
        if "error" in c or c.get("crash"):
            print(f"  child failed: {c.get('error') or c['crash'].splitlines()[-1]}")
    print(f"  record: {record_path}")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "roeforge", "cli.py")):
        print("error: run from the root of a roeforge checkout (no src/roeforge/cli.py)",
              file=sys.stderr)
        return 2
    sys.path.insert(0, os.path.join(ROOT, "src"))
    env = environment()
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    results = []
    for name in names:
        runner = Runner(time.perf_counter())
        res = run_workload(WORKLOADS[name], args.seed, args.seconds, bool(args.trace), runner)
        res["environment"] = env
        path = os.path.join(OUT_DIR, f"{name}-seed{args.seed}-trace{args.trace}.json")
        with open(os.path.join(ROOT, path), "w", encoding="utf-8") as fh:
            json.dump(res, fh, indent=1)
        _print_summary(res, path)
        results.append(res)
    if not all(r["metrics"] and all(m["value"] is not None for m in r["metrics"].values())
               for r in results):
        print("error: no child produced a measurement", file=sys.stderr)
        return 1
    prefix = len(results) > 1
    line = {
        "correct": all(r["correct"] for r in results),
        "attempted": sum(r["attempted"] for r in results),
        "failed": sum(r["failed"] for r in results),
        "metrics": {
            (f"{r['workload']['name']}/{k}" if prefix else k): {"value": m["value"],
                                                               "unit": m["unit"]}
            for r in results for k, m in r["metrics"].items()
        },
    }
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    sys.exit(main())
