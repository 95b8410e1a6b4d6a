"""Finite metric spaces with infinity-separated components, tubes, and controlled sets.

Distances live in [0, +inf].  A value of +inf marks a pair of points lying in
different coarse components; the finite-distance relation is an equivalence
relation and the components are its classes.  Spaces are immutable after
construction and every operation in this module is pure, so spaces can be
shared freely across threads.

Conventions used throughout the package:

* points are addressed by integer index into ``space.points``;
* pairs ``(x, y)`` are ordered, matching the (row, column) position of a
  matrix entry supported on that pair;
* ``R`` always denotes a finite radius >= 0.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Sequence

import numpy as np
import scipy.sparse as sp
from scipy.sparse.csgraph import shortest_path

from .errors import SpaceMismatchError, SpaceParseError, UncontrolledSupportError

__all__ = [
    "INF",
    "FiniteSpace",
    "ControlledSet",
    "GeneratingResult",
    "space_from_graph",
    "disjoint_union",
    "check_triangle",
    "support_diameter",
    "controlled",
    "tube",
    "compose",
    "coarse_components",
    "is_generating",
    "parse_space_file",
    "load_space",
]

INF = math.inf


class FiniteSpace:
    """A finite metric space allowing +inf distances between components.

    Parameters
    ----------
    points : sequence of str
        Distinct point names.  Index order is the canonical order used by
        every operator and report built on the space.
    dist : array_like, shape (n, n)
        Symmetric matrix with zero diagonal and entries in (0, +inf] off
        the diagonal.  +inf separates coarse components.
    name : str
        Single-token label used in file headers and reports.
    validate : bool
        When true (default), check the metric axioms that are cheap to
        check: shape, symmetry, zero diagonal, positivity off the diagonal,
        and consistency of the finite-distance relation with a partition.
        The triangle inequality is O(n^3); use :func:`check_triangle`
        separately when that guarantee is needed.
    """

    def __init__(self, points: Sequence[str], dist, name: str = "space",
                 validate: bool = True):
        self.points = tuple(str(p) for p in points)
        self.name = str(name)
        d = np.array(dist, dtype=float)
        n = len(self.points)
        if validate:
            if n == 0:
                raise ValueError("a space needs at least one point")
            if len(set(self.points)) != n:
                raise ValueError("point names must be distinct")
            if not self.name or any(c.isspace() for c in self.name):
                raise ValueError("space name must be a single non-empty token")
            if d.shape != (n, n):
                raise ValueError(f"distance matrix must be {n}x{n}, got {d.shape}")
            if np.isnan(d).any():
                raise ValueError("distance matrix contains NaN")
            if not np.array_equal(d, d.T):
                raise ValueError("distance matrix must be symmetric")
            if np.diagonal(d).any():
                raise ValueError("distance matrix must have a zero diagonal")
            offdiag = d[~np.eye(n, dtype=bool)]
            if offdiag.size and offdiag.min() <= 0:
                raise ValueError("off-diagonal distances must be positive")
        d.setflags(write=False)
        self.dist = d

        finite = np.isfinite(d)
        comp = np.full(n, -1, dtype=np.int64)
        next_id = 0
        for i in range(n):
            if comp[i] < 0:
                comp[finite[i]] = next_id
                next_id += 1
        if validate:
            # the finite-distance relation must be an equivalence relation;
            # one row per component only reads off its class correctly then
            rows, cols = np.nonzero(finite)
            if not np.array_equal(comp[rows], comp[cols]):
                raise ValueError("finite-distance relation is not transitive")
        comp.setflags(write=False)
        self.component_of = comp
        self.n_components = next_id
        self._component_spaces: dict[int, FiniteSpace] = {}

    @property
    def n_points(self) -> int:
        return len(self.points)

    def __len__(self) -> int:
        return len(self.points)

    def __repr__(self) -> str:
        return (f"FiniteSpace({self.name!r}, n_points={self.n_points}, "
                f"n_components={self.n_components})")

    def index_of(self, point_name: str) -> int:
        try:
            return self.points.index(point_name)
        except ValueError:
            raise KeyError(f"no point named {point_name!r} in space {self.name!r}") from None

    def component_points(self, component_id: int) -> np.ndarray:
        """Ascending indices of the points in one coarse component."""
        if not 0 <= component_id < self.n_components:
            raise ValueError(f"component id {component_id} out of range "
                             f"(space has {self.n_components})")
        return np.flatnonzero(self.component_of == component_id)

    def component_space(self, component_id: int) -> "FiniteSpace":
        """The coarse component itself as a space (memoised per id)."""
        got = self._component_spaces.get(component_id)
        if got is None:
            idx = self.component_points(component_id)
            got = FiniteSpace(
                [self.points[i] for i in idx],
                self.dist[np.ix_(idx, idx)],
                name=f"{self.name}.{component_id}",
                validate=False,
            )
            self._component_spaces[component_id] = got
        return got

    def max_ball_size(self, radius: float) -> int:
        """Largest number of points in any closed ball of the given radius."""
        if radius < 0:
            raise ValueError("radius must be >= 0")
        return int(np.max(np.sum(self.dist <= radius, axis=1)))

    def finite_diameter(self) -> float:
        """Largest finite distance in the space (0.0 for a single point)."""
        finite = self.dist[np.isfinite(self.dist)]
        return float(finite.max())


def space_from_graph(points: Sequence[str],
                     edges: Iterable[tuple[int, int, float]],
                     name: str = "space") -> FiniteSpace:
    """Build a space from an undirected weighted graph by path metric.

    ``edges`` yields ``(u, v, w)`` index triples with ``w > 0``.  Points not
    reached by any edge sit at +inf from everything else.  Parallel edges
    keep the smallest weight; self-loops are ignored (they cannot change
    any shortest path).
    """
    n = len(points)
    best: dict[tuple[int, int], float] = {}
    unit = True
    for u, v, w in edges:
        if not (0 <= u < n and 0 <= v < n):
            raise ValueError(f"edge ({u}, {v}) out of range for {n} points")
        w = float(w)
        if not w > 0:
            raise ValueError(f"edge ({u}, {v}) has non-positive weight {w}")
        if u == v:
            continue
        key = (u, v) if u < v else (v, u)
        if w < best.get(key, INF):
            best[key] = w
        if w != 1.0:
            unit = False
    if best:
        rows = np.fromiter((k[0] for k in best), dtype=np.int64, count=len(best))
        cols = np.fromiter((k[1] for k in best), dtype=np.int64, count=len(best))
        vals = np.fromiter(best.values(), dtype=float, count=len(best))
        graph = sp.csr_matrix((vals, (rows, cols)), shape=(n, n))
        d = shortest_path(graph, directed=False, unweighted=unit)
    else:
        d = np.full((n, n), INF)
        np.fill_diagonal(d, 0.0)
    return FiniteSpace(points, d, name=name)


def disjoint_union(spaces: Sequence[FiniteSpace], name: str | None = None) -> FiniteSpace:
    """Disjoint union: distances kept within each part, +inf across parts.

    Point names are qualified as ``<part-name>:<point-name>`` so the union
    has distinct names even when parts repeat.
    """
    if not spaces:
        raise ValueError("disjoint_union needs at least one space")
    sizes = [s.n_points for s in spaces]
    total = sum(sizes)
    d = np.full((total, total), INF)
    names: list[str] = []
    at = 0
    for s in spaces:
        d[at:at + s.n_points, at:at + s.n_points] = s.dist
        names.extend(f"{s.name}:{p}" for p in s.points)
        at += s.n_points
    if name is None:
        name = "+".join(s.name for s in spaces)
    return FiniteSpace(names, d, name=name)


def check_triangle(space: FiniteSpace) -> None:
    """Verify the triangle inequality, raising ValueError on a violation.

    O(n^3); meant for tests and small spaces, not for routine construction.
    +inf entries obey the inequality automatically under saturating
    arithmetic, and numpy's inf arithmetic implements exactly that.
    """
    d = space.dist
    for k in range(space.n_points):
        through = d[:, k, None] + d[None, k, :]
        bad = d > through + 1e-12
        if bad.any():
            i, j = np.argwhere(bad)[0]
            raise ValueError(
                f"triangle inequality fails: d({space.points[i]},{space.points[j]})"
                f"={d[i, j]} > {through[i, j]} via {space.points[k]}")


@dataclass(frozen=True)
class ControlledSet:
    """A set of ordered pairs of finite distance, with its exact diameter.

    ``pairs`` holds ``(row, col)`` index pairs; ``diameter`` is the largest
    distance realised by a member pair (0.0 when only diagonal pairs are
    present).  Instances compare by space identity and pair set.
    """

    space: FiniteSpace
    pairs: frozenset
    diameter: float

    def __contains__(self, pair) -> bool:
        return pair in self.pairs

    def __len__(self) -> int:
        return len(self.pairs)

    def issubset(self, other: "ControlledSet") -> bool:
        if self.space is not other.space:
            return False
        return self.pairs <= other.pairs

    def transpose(self) -> "ControlledSet":
        return ControlledSet(self.space,
                             frozenset((y, x) for x, y in self.pairs),
                             self.diameter)


def support_diameter(space: FiniteSpace, rows, cols) -> float:
    """Largest distance over the pairs ``(rows[i], cols[i])`` (0.0 for none).

    This is the one place that decides whether a support is controlled:
    an index outside the space, negative included, raises ValueError, and
    a pair of points at infinite distance raises UncontrolledSupportError.
    """
    rows = np.asarray(rows, dtype=np.int64)
    cols = np.asarray(cols, dtype=np.int64)
    n = space.n_points
    outside = (rows < 0) | (rows >= n) | (cols < 0) | (cols >= n)
    if outside.any():
        i = int(np.argmax(outside))
        raise ValueError(f"pair ({rows[i]}, {cols[i]}) out of range for {n} points")
    d = space.dist[rows, cols]
    infinite = np.isinf(d)
    if infinite.any():
        i = int(np.argmax(infinite))
        raise UncontrolledSupportError(
            f"pair ({space.points[rows[i]]}, {space.points[cols[i]]}) "
            "connects points at infinite distance")
    return float(d.max(initial=0.0))


def controlled(space: FiniteSpace, pairs: Iterable[tuple[int, int]]) -> ControlledSet:
    """Wrap explicit pairs as a controlled set, validating finiteness."""
    ps = frozenset((int(x), int(y)) for x, y in pairs)
    keys = np.array(list(ps), dtype=np.int64).reshape(-1, 2)
    return ControlledSet(space, ps, support_diameter(space, keys[:, 0], keys[:, 1]))


def tube(space: FiniteSpace, radius: float) -> ControlledSet:
    """All ordered pairs at distance <= radius.

    Always contains the diagonal.  The +inf convention makes every tube a
    subset of the union of component squares, whatever the radius.
    """
    if radius < 0:
        raise ValueError("radius must be >= 0")
    inside = space.dist <= radius
    pairs = frozenset((int(x), int(y)) for x, y in np.argwhere(inside))
    diameter = float(space.dist[inside].max())
    return ControlledSet(space, pairs, diameter)


def compose(e: ControlledSet, f: ControlledSet) -> ControlledSet:
    """Relational composition {(x, y) : exists z with (x,z) in e, (z,y) in f}.

    The result is again controlled, with diameter at most the sum of the
    two diameters (triangle inequality).
    """
    if e.space is not f.space:
        raise SpaceMismatchError("cannot compose controlled sets over different spaces")
    by_first: dict[int, list[int]] = {}
    for z, y in f.pairs:
        by_first.setdefault(z, []).append(y)
    out = set()
    for x, z in e.pairs:
        for y in by_first.get(z, ()):
            out.add((x, y))
    return controlled(e.space, out)


def coarse_components(space: FiniteSpace) -> list[list[int]]:
    """Partition of point indices into coarse components, ascending ids."""
    return [space.component_points(c).tolist() for c in range(space.n_components)]


@dataclass(frozen=True)
class GeneratingResult:
    """Outcome of :func:`is_generating`.

    ``status`` is ``"generating"`` (with ``n`` the first witnessing power),
    ``"not_generating"`` (the powers of the set were enumerated to a cycle
    without ever covering the largest tube — a finite certificate), or
    ``"inconclusive"`` (the iteration budget ran out first).
    """

    status: str
    n: int | None = None


def is_generating(space: FiniteSpace, e: ControlledSet,
                  n_max: int | None = None) -> GeneratingResult:
    """Does some n-fold composition of ``e`` cover the largest tube?

    The largest tube is Tube(R) for R the largest finite distance, i.e. all
    within-component pairs.  Compositions of a fixed finite relation are
    eventually periodic, so if a repeat shows up before the target is
    covered the answer is a certified "no".  ``n_max`` (default: number of
    points squared) bounds the search otherwise.
    """
    if e.space is not space:
        raise SpaceMismatchError("controlled set belongs to a different space")
    n_pts = space.n_points
    if n_max is None:
        n_max = max(1, n_pts * n_pts)
    required = np.isfinite(space.dist)
    cur = np.zeros((n_pts, n_pts), dtype=bool)
    for x, y in e.pairs:
        cur[x, y] = True
    base = cur.copy()
    seen = set()
    for n in range(1, n_max + 1):
        if not np.any(required & ~cur):
            return GeneratingResult("generating", n)
        key = cur.tobytes()
        if key in seen:
            return GeneratingResult("not_generating")
        seen.add(key)
        cur = (base.astype(np.uint8) @ cur.astype(np.uint8)) > 0
    return GeneratingResult("inconclusive")


def _parse_weight(token: str) -> float:
    try:
        w = float(Fraction(token))
    except (ValueError, ZeroDivisionError):
        raise ValueError(f"bad edge weight {token!r}")
    return w


def parse_space_file(text: str) -> FiniteSpace:
    """Parse the line-oriented space format.

    Grammar, one directive per line::

        space <name>          start a new part
        edge <u> <v> [w]      undirected edge, weight w > 0 (default 1)
        point <u>             declare an isolated or already-seen point

    Blank lines and lines starting with ``#`` are ignored.  Multiple
    ``space`` blocks form a disjoint union with +inf between the parts.
    Point names are scoped to their block and assigned indices in order of
    first appearance.  Errors carry 1-based line numbers.
    """
    blocks: list[dict] = []
    block = None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split()
        kind = parts[0]
        if kind == "space":
            if len(parts) != 2:
                raise SpaceParseError("'space' takes exactly one name", lineno)
            if any(b["name"] == parts[1] for b in blocks):
                raise SpaceParseError(f"duplicate space name {parts[1]!r}", lineno)
            block = {"name": parts[1], "order": [], "index": {}, "edges": []}
            blocks.append(block)
            continue
        if block is None:
            raise SpaceParseError(f"{kind!r} directive before any 'space' line", lineno)
        if kind == "edge":
            if len(parts) not in (3, 4):
                raise SpaceParseError("'edge' takes two points and an optional weight", lineno)
            w = 1.0
            if len(parts) == 4:
                try:
                    w = _parse_weight(parts[3])
                except ValueError as exc:
                    raise SpaceParseError(str(exc), lineno) from None
                if not w > 0:
                    raise SpaceParseError(f"edge weight must be positive, got {parts[3]}", lineno)
            idx = []
            for tok in parts[1:3]:
                if tok not in block["index"]:
                    block["index"][tok] = len(block["order"])
                    block["order"].append(tok)
                idx.append(block["index"][tok])
            block["edges"].append((idx[0], idx[1], w))
        elif kind == "point":
            if len(parts) != 2:
                raise SpaceParseError("'point' takes exactly one name", lineno)
            tok = parts[1]
            if tok not in block["index"]:
                block["index"][tok] = len(block["order"])
                block["order"].append(tok)
        else:
            raise SpaceParseError(f"unknown directive {kind!r}", lineno)
    if not blocks:
        raise SpaceParseError("no spaces defined")
    for b in blocks:
        if not b["order"]:
            raise SpaceParseError(f"space {b['name']!r} has no points")
    built = [space_from_graph(b["order"], b["edges"], name=b["name"]) for b in blocks]
    if len(built) == 1:
        return built[0]
    return disjoint_union(built)


def load_space(path) -> FiniteSpace:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_space_file(fh.read())
