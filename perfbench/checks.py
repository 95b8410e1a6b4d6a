"""Output checks: an independent rho oracle and the recorded reference reports.

Every check returns, per operation, whether it passed, so a wrong answer is
counted as a failed operation rather than dropped.  An operation is a family
member for ``margulis``, a component for ``boxspace`` and a case for
``verify``.

The oracle rests on one identity.  Each of the c colour involutions fixes
the points it does not move, so the averaging operator is
A = 1 - L/(2c), where L is the Laplacian of the tube graph, and on a
connected component rho = ||A - P|| = 1 - lambda_2(L)/(2c).  The edge list
and the Laplacian are built here from the families' definitions; only c
comes from the program, as the size of its validated edge colouring.
"""

from __future__ import annotations

import json
import re

import numpy as np

__all__ = [
    "RHO_REF_TOL", "RHO_ORACLE_TOL", "CURVE_RTOL", "VERIFY_CHECKS",
    "margulis_edges", "cycle_edges", "laplacian_rho", "validated_colours",
    "gap_oracle", "check_gap", "verify_stdout", "check_verify",
]

RHO_REF_TOL = 1e-12      # rho against the recorded reference
RHO_ORACLE_TOL = 1e-9    # rho against the Laplacian oracle
CURVE_RTOL = 1e-7        # the program's own curve tolerance
CURVE_ATOL = 1e-12
VERIFY_CHECKS = ("algebra-axioms", "row-sums", "colouring",
                 "decomposition", "projection", "restriction")


# -- the oracle ----------------------------------------------------------------

def margulis_edges(n: int) -> np.ndarray:
    """Undirected edges (u < v) of the Margulis graph on (Z/n)^2.

    The neighbours of (x, y) are (x +- 2y, y), (x +- (2y + 1), y),
    (x, y +- 2x), (x, y +- (2x + 1)) mod n; point (x, y) has index x*n + y.
    Self-loops are dropped and parallel edges merged.
    """
    x, y = np.divmod(np.arange(n * n), n)
    targets = [
        ((x + 2 * y) % n, y), ((x - 2 * y) % n, y),
        ((x + 2 * y + 1) % n, y), ((x - 2 * y - 1) % n, y),
        (x, (y + 2 * x) % n), (x, (y - 2 * x) % n),
        (x, (y + 2 * x + 1) % n), (x, (y - 2 * x - 1) % n),
    ]
    src = x * n + y
    pairs = []
    for tx, ty in targets:
        dst = tx * n + ty
        keep = dst != src
        pairs.append(np.stack([np.minimum(src, dst)[keep], np.maximum(src, dst)[keep]], 1))
    return np.unique(np.concatenate(pairs), axis=0)


def cycle_edges(s: int) -> np.ndarray:
    i = np.arange(s)
    return np.sort(np.stack([i, (i + 1) % s], 1), axis=1)


def laplacian_rho(n_points: int, edges: np.ndarray, c: int) -> float:
    """1 - lambda_2(L)/(2c) for the graph on ``n_points`` with these edges."""
    lap = np.zeros((n_points, n_points))
    u, v = edges[:, 0], edges[:, 1]
    lap[u, v] = -1.0
    lap[v, u] = -1.0
    lap[np.diag_indices(n_points)] = -lap.sum(axis=1)
    lam = np.linalg.eigvalsh(lap)
    return 1.0 - lam[1] / (2 * c)


def validated_colours(space) -> int:
    """Colours in roeforge's radius-1 edge colouring, after checking it."""
    from roeforge.colouring import edge_colouring, validate_colouring

    col = edge_colouring(space, 1.0)
    validate_colouring(col)
    if col.n_colours > col.max_degree + 1:
        raise ValueError(f"{col.n_colours} colours on max degree {col.max_degree}")
    return col.n_colours


def gap_oracle(family: str, members) -> list:
    """Oracle rho for every component of every member, in report order."""
    from roeforge.families import make_box_space_Z, make_margulis

    out = []
    if family == "margulis":
        for n in members:
            c = validated_colours(make_margulis(n))
            out.append(laplacian_rho(n * n, margulis_edges(n), c))
    elif family == "box_space_Z":
        for sizes in members:
            c = validated_colours(make_box_space_Z(sizes))
            out.extend(laplacian_rho(s, cycle_edges(s), c) for s in sizes)
    else:
        raise ValueError(f"no oracle for family {family!r}")
    return out


# -- gap reports against the reference ------------------------------------------

def _shape(obj):
    """Keys in order, list lengths and nesting, without the values."""
    if isinstance(obj, dict):
        return [(k, _shape(v)) for k, v in obj.items()]
    if isinstance(obj, list):
        return [_shape(v) for v in obj]
    return None


def _close(a, b, rtol, atol) -> bool:
    return (isinstance(a, (int, float)) and not isinstance(a, bool)
            and abs(a - b) <= rtol * abs(b) + atol)


def _component_ok(got: dict, ref: dict, oracle: float) -> bool:
    if any(got[k] != ref[k] for k in ("id", "size", "delta_tilde", "no_effective_gap")):
        return False
    if not _close(got["rho"], ref["rho"], 0.0, RHO_REF_TOL):
        return False
    if not _close(got["rho"], oracle, 0.0, RHO_ORACLE_TOL):
        return False
    for p, q in zip(got["curve"], ref["curve"]):
        if p["k"] != q["k"] or not _close(p["norm"], q["norm"], CURVE_RTOL, CURVE_ATOL):
            return False
    return True


def _report_ok(got: dict, ref: dict) -> bool:
    return (got["space"] == ref["space"] and got["params"] == ref["params"]
            and got["uniform_gap"] == ref["uniform_gap"]
            and got["uniform_gap_threshold"] == ref["uniform_gap_threshold"]
            and _close(got["max_rho"], ref["max_rho"], 0.0, RHO_REF_TOL))


def check_gap(stdout: str, rc, expect_rc: int, reference: str, oracle,
              op_per_member: bool) -> list:
    """Pass/fail per operation of one ``gap`` run on a family manifest.

    Operations are members when ``op_per_member``, else the components of
    the (single) member.  A wrong exit code, unparsable output or a
    family-level difference fails every operation; a member-level
    difference fails that member's operations; a component's own
    difference (including rho against ``oracle``) fails that component.
    """
    ref = json.loads(reference)
    members = ref["members"]
    n_ops = len(members) if op_per_member else len(members[0]["components"])
    if rc != expect_rc:
        return [False] * n_ops
    try:
        doc = json.loads(stdout)
    except json.JSONDecodeError:
        return [False] * n_ops
    if (_shape(doc) != _shape(ref) or doc["family"] != ref["family"]
            or doc["params"] != ref["params"] or doc["uniform_gap"] != ref["uniform_gap"]
            or doc["uniform_gap_threshold"] != ref["uniform_gap_threshold"]
            or not _close(doc["max_rho"], ref["max_rho"], 0.0, RHO_REF_TOL)):
        return [False] * n_ops
    ok = [True] * n_ops
    at = 0
    for i, (got_m, ref_m) in enumerate(zip(doc["members"], members)):
        member_ok = _report_ok(got_m, ref_m)
        for j, (got_c, ref_c) in enumerate(zip(got_m["components"], ref_m["components"])):
            op = i if op_per_member else j
            if not (member_ok and _component_ok(got_c, ref_c, oracle[at])):
                ok[op] = False
            at += 1
    return ok


# -- verify ----------------------------------------------------------------------

def verify_stdout(cases: int) -> str:
    """The exact stdout of a passing ``verify --cases N`` run."""
    lines = [f"{name}\tok\t0 failure(s)" for name in VERIFY_CHECKS]
    return "\n".join(lines + [f"PASS ({cases} cases)"]) + "\n"


_FAIL_LINE = re.compile(r"FAIL \((\d+)/(\d+) cases failed\)")


def check_verify(stdout: str, rc, cases: int) -> int:
    """Number of failed cases in one ``verify --cases N`` run.

    A pass must print all six checks ``ok`` and the ``PASS`` line exactly;
    a reported failure counts the cases it names; anything else (a crash,
    a wrong exit code, unreadable output) fails every case.
    """
    if rc == 0:
        return 0 if stdout == verify_stdout(cases) else cases
    if rc == 2:
        lines = stdout.splitlines()
        m = _FAIL_LINE.fullmatch(lines[-1]) if lines else None
        if m and int(m.group(2)) == cases and 0 < int(m.group(1)) <= cases:
            return int(m.group(1))
    return cases

