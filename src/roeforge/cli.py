"""Command-line front end.

Three subcommands:

* ``components`` — parse a space file and tabulate its coarse components;
* ``gap`` — run the full pipeline (tube graph → edge colouring → averaging
  operator → per-component gap report) on a space file or a family
  manifest, emitting JSON (and optionally CSV);
* ``verify`` — run the randomised exact-arithmetic invariant suite, its
  cases spread over ``--jobs`` forked worker processes.

Exit codes are part of the contract: 0 means a uniform gap below the
threshold (or a verify pass), 2 means the mathematical answer is "no"
(gap above threshold / invariant failure), 1 means an operational error
(bad file, bad flags, an input too large to allocate).  Reports are
byte-identical across runs for the same inputs, seeds included.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import multiprocessing
import os
import sys
from dataclasses import replace
from fractions import Fraction
from functools import partial
from multiprocessing.connection import wait

import numpy as np

from .colouring import (
    colour_permutations,
    decompose_translation,
    edge_colouring,
    validate_colouring,
)
from .errors import RoeforgeError
from .families import load_manifest, random_bounded_degree_space
from .kazhdan import (
    build_averaging,
    family_report_to_dict,
    gap_report,
    kazhdan_projection,
    report_to_dict,
    reports_to_csv,
    restrict,
)
from .space import FiniteSpace, check_triangle, disjoint_union, load_space, parse_space_file
from .spectral import _MATVEC_CAP
from .transalg import (
    FinitePropOp,
    PartialTranslation,
    row_sum_diagonal,
    uniform_sum_value,
)

__all__ = ["main"]

VERIFY_MAX_POINTS = 64


def _default_jobs() -> int:
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _jobs(args) -> int:
    jobs = args.jobs if args.jobs is not None else _default_jobs()
    if jobs < 1:
        raise ValueError("--jobs must be >= 1")
    return jobs


def _build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="roeforge",
        description="coarse-geometry operator toolkit: components, spectral gaps, "
                    "and exact invariant verification")
    sub = p.add_subparsers(dest="command", required=True)

    c = sub.add_parser("components", help="list coarse components of a space file")
    c.add_argument("input", help="space file")

    g = sub.add_parser("gap", help="spectral-gap report for a space file or family manifest")
    g.add_argument("input", help="space file, or JSON family manifest")
    g.add_argument("--radius", type=float, default=1.0,
                   help="tube radius for the colouring (default 1: graph edges)")
    g.add_argument("--kmax", type=int, default=32,
                   help="largest power on the convergence curve (default 32)")
    g.add_argument("--threshold", type=float, default=0.95,
                   help="uniform-gap threshold on max rho (default 0.95)")
    g.add_argument("--c", type=float, default=None,
                   help="certified displacement constant; asserts rho <= delta_tilde(c, n)")
    g.add_argument("--jobs", type=int, default=None,
                   help="accepted and checked (>= 1) but without effect: gap runs its "
                        "members and components one after another")
    g.add_argument("--json", dest="json_path", metavar="PATH",
                   help="also write the JSON report to PATH")
    g.add_argument("--csv", dest="csv_path", metavar="PATH",
                   help="also write the per-component CSV summary to PATH")

    v = sub.add_parser("verify", help="randomised exact-arithmetic invariant suite")
    v.add_argument("input", nargs="?", default=None,
                   help="optional space file to verify on (default: random corpus)")
    v.add_argument("--cases", type=int, default=500, help="number of cases (default 500)")
    v.add_argument("--seed", type=int, default=0, help="corpus seed (default 0)")
    v.add_argument("--jobs", type=int, default=None,
                   help="parallel workers (default: the usable cores)")
    return p


def main(argv=None) -> int:
    """Run one roeforge command; return its exit code (0, 1 or 2).

    For the length of the command the objects already alive, mostly the
    ~42,000 that numpy and scipy leave tracked at import, are frozen out
    of the cyclic collector.  Unfrozen, one full collection walks them
    all during a ``gap`` on the margulis manifest: 17-24 ms of a 0.1-0.13 s
    run (2 cores, Python 3.11), against about 2 ms of collections frozen.
    ``main`` unfreezes only if it froze, so a caller that froze first
    keeps its frozen objects and any other caller finds the collector as
    it left it.
    """
    froze = gc.get_freeze_count() == 0
    if froze:
        # freeze and unfreeze splice the collector's lists, O(1) each
        gc.freeze()
    try:
        return _run(argv)
    finally:
        if froze:
            gc.unfreeze()


def _run(argv) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on usage errors, but exit code 2 is reserved for
        # "mathematical no"; remap anything nonzero to the error code
        return 0 if exc.code in (0, None) else 1
    try:
        if args.command == "components":
            return _cmd_components(args)
        if args.command == "gap":
            return _cmd_gap(args)
        return _cmd_verify(args)
    except (RoeforgeError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except MemoryError as exc:
        print(f"error: out of memory: {str(exc) or 'allocation failed'}", file=sys.stderr)
        return 1


def _cmd_components(args) -> int:
    space = load_space(args.input)
    print("component\tsize")
    for m, size in enumerate(np.bincount(space.component_of).tolist()):
        print(f"{m}\t{size}")
    return 0


def _pipeline(space: FiniteSpace, *, radius: float, kmax: int,
              c: float | None, threshold: float):
    col = edge_colouring(space, radius)
    perms = colour_permutations(col)
    # the averaging runs over the colour involutions; a tube with no edges
    # leaves only the identity, giving A = 1 (rho is then honestly 1 on any
    # component with more than one point)
    avg = build_averaging(perms[1:] or perms[:1])
    report = gap_report(avg, kmax, c, threshold=threshold)
    # JSON has no infinity (RFC 8259), so an unbounded radius is written "inf"
    params = {"radius": radius if math.isfinite(radius) else "inf",
              "threshold": threshold, **report.params}
    return replace(report, params=params)


def _cmd_gap(args) -> int:
    _jobs(args)  # checked, though gap runs on one thread
    if args.kmax < 1:
        raise ValueError("--kmax must be >= 1")
    if args.kmax > _MATVEC_CAP:
        raise ValueError(f"--kmax must be <= {_MATVEC_CAP}, the matvec cap of one solve")
    if not math.isfinite(args.threshold):
        raise ValueError("--threshold must be finite")
    with open(args.input, "r", encoding="utf-8") as fh:
        text = fh.read()
    manifest = text.lstrip().startswith("{")
    if manifest:
        family, params, spaces = load_manifest(text)
    else:
        spaces = [parse_space_file(text)]
    # members and components run one after another: threads never ran them
    # faster, as their work is mostly Python that holds the GIL
    reports = [_pipeline(s, radius=args.radius, kmax=args.kmax,
                         c=args.c, threshold=args.threshold) for s in spaces]
    if manifest:
        doc = family_report_to_dict(family, params, reports, args.threshold)
    else:
        doc = report_to_dict(reports[0])
    verdict = doc["uniform_gap"]
    payload = json.dumps(doc, indent=2, allow_nan=False) + "\n"
    sys.stdout.write(payload)
    if args.json_path:
        with open(args.json_path, "w", encoding="utf-8") as fh:
            fh.write(payload)
    if args.csv_path:
        with open(args.csv_path, "w", encoding="utf-8") as fh:
            fh.write(reports_to_csv(reports))
    return 0 if verdict else 2


# -- verify suite ------------------------------------------------------------

class _CheckFailure(Exception):
    def __init__(self, check: str, detail: str):
        self.check = check
        self.detail = detail
        super().__init__(f"{check}: {detail}")


def _need(cond: bool, check: str, detail: str):
    if not cond:
        raise _CheckFailure(check, detail)


def _random_space(rng) -> FiniteSpace:
    def part(tag):
        return random_bounded_degree_space(
            int(rng.integers(2, 13)), int(rng.integers(1, 6)),
            seed=int(rng.integers(0, 2 ** 31)),
            edge_prob=float(rng.uniform(0.2, 0.9)), name=tag)

    if rng.random() < 0.3:
        blocks = [part(f"b{i}") for i in range(int(rng.integers(2, 4)))]
        return disjoint_union(blocks, name="u")
    return part("g")


def _random_op(rng, space: FiniteSpace) -> FinitePropOp:
    """Draw, for each pair (x, y) in one component in row-major order, an
    entry with probability 0.3: the draws fix the corpora."""
    entries = {}
    random, integers = rng.random, rng.integers
    members = [space.component_points(m).tolist() for m in range(space.n_components)]
    for x, cx in enumerate(space.component_of.tolist()):
        for y in members[cx]:
            if random() < 0.3:
                entries[(x, y)] = Fraction(int(integers(-6, 7)), int(integers(1, 5)))
    return FinitePropOp(space, entries)


def _random_translation(rng, space: FiniteSpace, radius: float) -> PartialTranslation:
    rows, cols, _ = space.pairs_within(radius)
    pairs = list(zip(rows.tolist(), cols.tolist()))
    rng.shuffle(pairs)
    mapping = {}
    used_img = set()
    for x, y in pairs:
        if y not in mapping and x not in used_img and rng.random() < 0.6:
            mapping[y] = x
            used_img.add(x)
    return PartialTranslation(space, mapping)


def _verify_case(rng, space: FiniteSpace) -> None:
    radius = float(rng.choice([1.0, 2.0]))
    ident = FinitePropOp.identity(space)

    s, t, u = (_random_op(rng, space) for _ in range(3))
    st, tu, s_t, s_adj = s @ t, t @ u, s + t, s.adjoint()
    _need(s_t @ u == s @ u + tu, "algebra-axioms", "product not distributive")
    _need(st @ u == s @ tu, "algebra-axioms", "product not associative")
    _need(st.adjoint() == t.adjoint() @ s_adj,
          "algebra-axioms", "adjoint not antimultiplicative")
    _need(st.propagation <= s.propagation + t.propagation + 1e-9,
          "algebra-axioms", "propagation not subadditive under product")
    _need(row_sum_diagonal(s_t) == row_sum_diagonal(s) + row_sum_diagonal(t),
          "row-sums", "row-sum map not additive")

    col = edge_colouring(space, radius)
    try:
        validate_colouring(col)
    except ValueError as exc:
        raise _CheckFailure("colouring", str(exc)) from None
    _need(col.n_colours <= col.max_degree + 1,
          "colouring", f"{col.n_colours} colours on max degree {col.max_degree}")

    tr = _random_translation(rng, space, radius)
    v = tr.as_operator()
    dec = decompose_translation(tr, col)
    _need(dec.reconstruct() == v, "decomposition", "sum of cut involutions != translation")
    _need(dec.range_projection() == v @ v.adjoint(),
          "decomposition", "idempotent sum != range projection")
    for p in dec.perms:
        _need(p.is_involution and p.op @ p.op == ident,
              "decomposition", "colour permutation is not an involution")

    perms = colour_permutations(col)
    avg = build_averaging(perms[1:] or perms[:1])
    _need(uniform_sum_value(avg.op) == 1, "projection", "averaging operator row sums != 1")
    p_op = kazhdan_projection(space)
    _need(p_op == p_op.adjoint(), "projection", "P != P*")
    _need(p_op == p_op @ p_op, "projection", "P != P^2")
    _need(avg.op @ p_op == p_op and p_op @ avg.op == p_op,
          "projection", "AP = PA = P fails")

    for m in range(space.n_components):
        sub, s_m = space.component_space(m), restrict(s, m)
        _need(restrict(ident, m) == FinitePropOp.identity(sub),
              "restriction", "block extraction not unital")
        _need(restrict(st, m) == s_m @ restrict(t, m),
              "restriction", "block extraction not multiplicative")
        _need(restrict(s_adj, m) == s_m.adjoint(),
              "restriction", "block extraction not *-preserving")
        _need(restrict(p_op, m) == kazhdan_projection(sub),
              "restriction", "restricted P != component projection")


_VERIFY_CHECKS = ("algebra-axioms", "row-sums", "colouring",
                  "decomposition", "projection", "restriction")


def _verify_cases(seed: int, fixed: FiniteSpace | None, cases) -> list[dict]:
    """Run the numbered ``cases``; return their failures."""
    failures = []
    for i in cases:
        rng = np.random.default_rng([seed, i])
        space = fixed if fixed is not None else _random_space(rng)
        try:
            _verify_case(rng, space)
        except _CheckFailure as exc:
            failures.append({"seed": seed, "case": i, "check": exc.check,
                             "points": space.n_points, "detail": exc.detail})
    return failures


def _claimed(counter, cases: int):
    """Case numbers below ``cases``, each taken from ``counter``, which the
    workers share, so a worker that runs ahead takes more of them."""
    while True:
        with counter.get_lock():
            i = counter.value
            counter.value = i + 1
        if i >= cases:
            return
        yield i


def _worker(run, cases: int, counter, send) -> None:
    """Send back ``(True, failures)`` of the cases it claims, or
    ``(False, exc)`` if one raised."""
    try:
        result = (True, run(_claimed(counter, cases)))
    except Exception as exc:
        result = (False, exc)
    send.send(result)
    send.close()


def _forked(run, cases: int, jobs: int) -> list[dict]:
    """The failures of ``run`` over cases 0 .. ``cases`` - 1, which ``jobs``
    forked workers claim one at a time, in case order; the parent only waits.

    The first worker to answer with an exception has it raised here; one
    that dies without an answer (killed by a signal, say) raises
    ChildProcessError.  Every worker is reaped before this returns or
    raises, and any still running then is killed first.
    """
    ctx = multiprocessing.get_context("fork")
    counter = ctx.Value("q", 0)
    workers = {}
    try:
        for _ in range(jobs):
            recv, send = ctx.Pipe(duplex=False)
            proc = ctx.Process(target=_worker, args=(run, cases, counter, send))
            workers[recv] = proc
            with send:      # the worker holds the only sending end
                proc.start()
        failures, pending = [], dict(workers)
        while pending:
            for recv in wait(list(pending)):
                proc = pending.pop(recv)
                try:
                    ok, result = recv.recv()
                except EOFError:
                    proc.join()
                    raise ChildProcessError(
                        f"a verify worker died with exit code {proc.exitcode}") from None
                if not ok:
                    raise result
                failures.extend(result)
        return sorted(failures, key=lambda f: f["case"])
    finally:
        for recv, proc in workers.items():
            if proc.pid is not None:    # started
                if proc.is_alive():
                    proc.kill()
                proc.join()
            recv.close()


def _cmd_verify(args) -> int:
    jobs = _jobs(args)
    if args.cases < 0:
        raise ValueError("--cases must be >= 0")
    if args.seed < 0:
        raise ValueError("--seed must be >= 0")
    fixed = None
    if args.input is not None:
        fixed = load_space(args.input)
        if fixed.n_points > VERIFY_MAX_POINTS:
            raise ValueError(
                f"verify runs exact arithmetic and is limited to spaces with "
                f"<= {VERIFY_MAX_POINTS} points (got {fixed.n_points})")
        check_triangle(fixed)
    if args.cases == 0:
        print("warning: --cases 0 requested; nothing was checked", file=sys.stderr)
        print("PASS (0 cases)")
        return 0
    # fork, not spawn: a worker started from a fresh interpreter would import
    # numpy and scipy again, which costs more than a short corpus takes.  The
    # fork comes after main's gc.freeze, the pre-fork recipe of CPython's gc
    # docs: the workers' collections leave the frozen objects alone, so they
    # write to fewer of the pages they share with the parent
    if "fork" not in multiprocessing.get_all_start_methods():
        jobs = 1
    jobs = min(jobs, args.cases)
    run = partial(_verify_cases, args.seed, fixed)
    failures = run(range(args.cases)) if jobs == 1 else _forked(run, args.cases, jobs)
    for name in _VERIFY_CHECKS:
        bad = sum(1 for f in failures if f["check"] == name)
        print(f"{name}\t{'FAIL' if bad else 'ok'}\t{bad} failure(s)")
    if failures:
        smallest = min(failures, key=lambda f: (f["points"], f["case"]))
        print("smallest counterexample (rerun with --seed/--cases to reproduce):",
              file=sys.stderr)
        print(json.dumps(smallest, indent=2), file=sys.stderr)
        print(f"FAIL ({len(failures)}/{args.cases} cases failed)")
        return 2
    print(f"PASS ({args.cases} cases)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
