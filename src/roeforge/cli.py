"""Command-line front end.

Three subcommands:

* ``components`` — parse a space file and tabulate its coarse components;
* ``gap`` — run the full pipeline (tube graph → edge colouring → averaging
  operator → block-constant projection → per-component gap report) on a
  space file or a family manifest, emitting JSON (and optionally CSV);
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
import json
import multiprocessing
import os
import sys
from dataclasses import replace
from fractions import Fraction
from functools import partial

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
from .transalg import (
    FinitePropOp,
    PartialTranslation,
    row_sum_diagonal,
    uniform_sum,
)

__all__ = ["main"]

VERIFY_MAX_POINTS = 64


def _default_jobs() -> int:
    raw = os.environ.get("ROEFORGE_JOBS", "").strip()
    if raw:
        try:
            v = int(raw)
            if v >= 1:
                return v
        except ValueError:
            pass
        print(f"warning: ignoring invalid ROEFORGE_JOBS={raw!r}", file=sys.stderr)
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
    jobs_help = "parallel workers (default: ROEFORGE_JOBS, else the usable cores)"

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
    g.add_argument("--jobs", type=int, default=None, help=jobs_help)
    g.add_argument("--json", dest="json_path", metavar="PATH",
                   help="also write the JSON report to PATH")
    g.add_argument("--csv", dest="csv_path", metavar="PATH",
                   help="also write the per-component CSV summary to PATH")

    v = sub.add_parser("verify", help="randomised exact-arithmetic invariant suite")
    v.add_argument("input", nargs="?", default=None,
                   help="optional space file to verify on (default: random corpus)")
    v.add_argument("--cases", type=int, default=500, help="number of cases (default 500)")
    v.add_argument("--seed", type=int, default=0, help="corpus seed (default 0)")
    v.add_argument("--jobs", type=int, default=None, help=jobs_help)
    return p


def main(argv=None) -> int:
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
              c: float | None, threshold: float, jobs: int = 1):
    col = edge_colouring(space, radius)
    perms = colour_permutations(col)
    # the averaging runs over the colour involutions; a tube with no edges
    # leaves only the identity, giving A = 1 (rho is then honestly 1 on any
    # component with more than one point)
    avg = build_averaging(perms[1:] or perms[:1])
    proj = kazhdan_projection(space)
    report = gap_report(avg, proj, kmax, c, threshold=threshold, jobs=jobs)
    params = {"radius": radius, "threshold": threshold, **report.params}
    return replace(report, params=params)


def _cmd_gap(args) -> int:
    jobs = _jobs(args)
    if args.kmax < 1:
        raise ValueError("--kmax must be >= 1")
    with open(args.input, "r", encoding="utf-8") as fh:
        text = fh.read()
    if text.lstrip().startswith("{"):
        family, params, spaces = load_manifest(text)
        # members run one after another: their pipelines are mostly Python
        # and hold the GIL, so threads would not overlap them
        reports = [_pipeline(s, radius=args.radius, kmax=args.kmax,
                             c=args.c, threshold=args.threshold) for s in spaces]
        doc = family_report_to_dict(family, params, reports, args.threshold)
        verdict = doc["uniform_gap"]
    else:
        space = parse_space_file(text)
        report = _pipeline(space, radius=args.radius, kmax=args.kmax,
                           c=args.c, threshold=args.threshold, jobs=jobs)
        reports = [report]
        doc = report_to_dict(report)
        verdict = report.uniform_gap
    payload = json.dumps(doc, indent=2) + "\n"
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


def _random_op(rng, space: FiniteSpace, density: float = 0.3) -> FinitePropOp:
    entries = {}
    comp = space.component_of.tolist()
    for x, cx in enumerate(comp):
        for y, cy in enumerate(comp):
            if cx == cy and rng.random() < density:
                entries[(x, y)] = Fraction(int(rng.integers(-6, 7)),
                                           int(rng.integers(1, 5)))
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
    st = s @ t
    _need((s + t) @ u == s @ u + t @ u, "algebra-axioms", "product not distributive")
    _need(st @ u == s @ (t @ u), "algebra-axioms", "product not associative")
    _need(st.adjoint() == t.adjoint() @ s.adjoint(),
          "algebra-axioms", "adjoint not antimultiplicative")
    _need(st.propagation <= s.propagation + t.propagation + 1e-9,
          "algebra-axioms", "propagation not subadditive under product")
    _need(row_sum_diagonal(s + t) == row_sum_diagonal(s) + row_sum_diagonal(t),
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
    _need(uniform_sum(avg.op) == 1, "projection", "averaging operator row sums != 1")
    proj = kazhdan_projection(space)
    p_op = proj.op
    _need(p_op == p_op.adjoint(), "projection", "P != P*")
    _need(p_op == p_op @ p_op, "projection", "P != P^2")
    _need(avg.op @ p_op == p_op and p_op @ avg.op == p_op,
          "projection", "AP = PA = P fails")

    for m in range(space.n_components):
        sub = space.component_space(m)
        _need(restrict(ident, m) == FinitePropOp.identity(sub),
              "restriction", "block extraction not unital")
        _need(restrict(st, m) == restrict(s, m) @ restrict(t, m),
              "restriction", "block extraction not multiplicative")
        _need(restrict(s.adjoint(), m) == restrict(s, m).adjoint(),
              "restriction", "block extraction not *-preserving")
        _need(restrict(p_op, m) == kazhdan_projection(sub).op,
              "restriction", "restricted P != component projection")


_VERIFY_CHECKS = ("algebra-axioms", "row-sums", "colouring",
                  "decomposition", "projection", "restriction")


def _verify_cases(seed: int, cases: int, fixed: FiniteSpace | None,
                  stride: int, start: int) -> list[dict]:
    """Run cases start, start + stride, ... below ``cases``; return their failures."""
    failures = []
    for i in range(start, cases, stride):
        rng = np.random.default_rng([seed, i])
        space = fixed if fixed is not None else _random_space(rng)
        try:
            _verify_case(rng, space)
        except _CheckFailure as exc:
            failures.append({"seed": seed, "case": i, "check": exc.check,
                             "points": space.n_points, "detail": exc.detail})
    return failures


def _cmd_verify(args) -> int:
    jobs = _jobs(args)
    if args.cases < 0:
        raise ValueError("--cases must be >= 0")
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
    # numpy and scipy again, which costs more than a short corpus takes
    if "fork" not in multiprocessing.get_all_start_methods():
        jobs = 1
    jobs = min(jobs, args.cases)
    run = partial(_verify_cases, args.seed, args.cases, fixed, jobs)
    if jobs == 1:
        failures = run(0)
    else:
        with multiprocessing.get_context("fork").Pool(jobs) as pool:
            failures = [f for part in pool.map(run, range(jobs)) for f in part]
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
