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
from scipy.sparse.csgraph import connected_components, dijkstra

from .errors import SpaceMismatchError, SpaceParseError, UncontrolledSupportError

__all__ = [
    "INF",
    "MAX_POINTS",
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
MAX_POINTS = 1 << 20    # larger spaces are refused with MemoryError
_CHUNK = 1 << 20        # most distances held at once by a graph-backed query


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

    Spaces built from graphs (:func:`space_from_graph`, and
    :func:`disjoint_union` of such spaces) hold their weighted graph and
    component labels instead of a matrix.  Every distance they report
    comes from Dijkstra's algorithm on that graph, and ``dist`` is
    computed only when it is first read.  Dijkstra adds a path's weights
    in the order it walks them, so the searches from x and from y can
    differ in the last bit; for x < y, d(x, y) and d(y, x) are both the
    value x's search finds.
    """

    def __init__(self, points: Sequence[str], dist, name: str = "space",
                 validate: bool = True):
        self.points = tuple(str(p) for p in points)
        self.name = str(name)
        d = np.array(dist, dtype=float)
        n = len(self.points)
        if validate:
            _check_names(self.points, self.name)
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
        self._dist = d
        self._graph = None

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

    @classmethod
    def _from_graph(cls, points: Sequence[str], graph: sp.csr_matrix,
                    name: str) -> "FiniteSpace":
        """A space on a symmetric CSR graph (positive weights, no self-loops).

        Components are numbered by their smallest point, as the matrix
        constructor does.
        """
        space = cls.__new__(cls)
        space.points = tuple(points)
        space.name = str(name)
        space._dist = None
        space._graph = graph
        n_components, labels = connected_components(graph, directed=False)
        comp = labels.astype(np.int64)
        comp.setflags(write=False)
        space.component_of = comp
        space.n_components = int(n_components)
        space._component_spaces = {}
        return space

    @property
    def dist(self) -> np.ndarray:
        """The read-only n x n distance matrix (built on first read for a graph)."""
        if self._dist is None:
            d = dijkstra(self._graph)
            for x in range(1, len(d)):
                d[x, :x] = d[:x, x]     # mirror the upper triangle
            d.setflags(write=False)
            self._dist = d
        return self._dist

    def _distance_rows(self, rows=None, limit: float = INF):
        """Yield ``(lo, block)``: the distances from ``rows[lo:lo + len(block)]``.

        ``rows`` defaults to every point.  Each block has at most
        ``_CHUNK`` entries.  Entries above ``limit`` may read +inf.  The
        blocks are rows of ``dist`` when the space holds it, and otherwise
        one Dijkstra search per row, cut off at ``limit`` (inclusive).  An
        unbounded query on a space whose ``dist`` fits in one block builds
        ``dist`` and keeps it.  With positive weights no point beyond the
        limit can shorten a path to one within it, so every entry within
        ``limit`` equals the entry of ``dist`` bit for bit on and above
        the diagonal; below it, callers apply the pair rule themselves.
        """
        n = self.n_points
        step = max(1, _CHUNK // n)
        if self._dist is None and limit == INF and n * n <= _CHUNK:
            self.dist  # computes the one block and keeps it
        whole = rows is None
        if whole:
            rows = np.arange(n)
        for lo in range(0, len(rows), step):
            if self._dist is None:
                block = dijkstra(self._graph, indices=rows[lo:lo + step], limit=limit)
            elif whole:
                block = self._dist[lo:lo + step]
            else:
                block = self._dist[rows[lo:lo + step]]
            yield lo, block

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
            points = [self.points[i] for i in idx]
            name = f"{self.name}.{component_id}"
            if self._dist is not None:
                got = FiniteSpace(points, self._dist[np.ix_(idx, idx)], name=name,
                                  validate=False)
            else:
                got = FiniteSpace._from_graph(points, self._graph[idx][:, idx], name)
            self._component_spaces[component_id] = got
        return got

    def pairs_within(self, radius: float) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Every ordered pair at distance <= radius, as row, column and distance arrays.

        Pairs come in row-major order and include the diagonal.
        """
        if radius < 0:
            raise ValueError("radius must be >= 0")
        rows, cols, dists = [], [], []
        for lo, block in self._distance_rows(limit=radius):
            # flat indices: far faster than a 2-d nonzero, same row-major order
            r, c = np.divmod(np.flatnonzero(block <= radius), block.shape[1])
            rows.append(r + lo)
            cols.append(c)
            dists.append(block[r, c])
        rows, cols, dists = map(np.concatenate, (rows, cols, dists))
        # keep the pairs each row decides, mirror them, and sort back to
        # row-major order
        up = cols >= rows
        rows, cols, dists = rows[up], cols[up], dists[up]
        off = rows != cols
        rows, cols = np.concatenate([rows, cols[off]]), np.concatenate([cols, rows[off]])
        order = np.lexsort((cols, rows))
        return rows[order], cols[order], np.concatenate([dists, dists[off]])[order]

    def max_ball_size(self, radius: float) -> int:
        """Largest number of points in any closed ball of the given radius."""
        if radius < 0:
            raise ValueError("radius must be >= 0")
        sizes = np.zeros(self.n_points, dtype=np.int64)
        for lo, block in self._distance_rows(limit=radius):
            within = (block <= radius) & _upper(lo, block)
            sizes[lo:lo + len(block)] += np.count_nonzero(within, axis=1) - 1
            sizes += np.count_nonzero(within, axis=0)   # the mirrored pairs and the centre
        return int(sizes.max())

    def finite_diameter(self) -> float:
        """Largest finite distance in the space (0.0 for a single point)."""
        return max(float(block[np.isfinite(block) & _upper(lo, block)].max())
                   for lo, block in self._distance_rows())


def _upper(lo: int, block: np.ndarray) -> np.ndarray:
    """Which entries of rows ``lo, lo + 1, ...`` lie on or above the diagonal."""
    return np.arange(block.shape[1]) >= np.arange(lo, lo + len(block))[:, None]


def _check_names(points: tuple, name: str) -> None:
    if not points:
        raise ValueError("a space needs at least one point")
    if len(set(points)) != len(points):
        raise ValueError("point names must be distinct")
    if not name or any(c.isspace() for c in name):
        raise ValueError("space name must be a single non-empty token")


def _check_size(n: int) -> None:
    """Refuse a space of more than MAX_POINTS points, before building any of it."""
    if n > MAX_POINTS:
        raise MemoryError(f"Unable to allocate a space of {n} points "
                          f"(the limit is {MAX_POINTS})")


def space_from_graph(points: Sequence[str],
                     edges: Iterable[tuple[int, int, float]],
                     name: str = "space") -> FiniteSpace:
    """Build a space from an undirected weighted graph by path metric.

    ``edges`` yields ``(u, v, w)`` index triples with ``w > 0``; an
    ``(m, 3)`` array is such an iterable.  Points not reached by any edge
    sit at +inf from everything else.  Parallel edges keep the smallest
    weight; self-loops are ignored (they cannot change any shortest path).
    This is the one place that applies that policy, so generators may pass
    loops and repeats.  The space keeps the graph, not a distance matrix.
    """
    n = len(points)
    _check_size(n)
    points = tuple(str(p) for p in points)
    _check_names(points, str(name))
    e = np.array(edges if isinstance(edges, np.ndarray) else list(edges), dtype=float)
    if e.size and e.shape[1:] != (3,):
        raise ValueError("edges must be (u, v, w) triples")
    u, v, w = e.reshape(-1, 3).T
    in_range = (0 <= u) & (u < n) & (0 <= v) & (v < n)
    bad = ~in_range | ~(w > 0)
    if bad.any():
        i = int(bad.argmax())
        if not in_range[i]:
            raise ValueError(f"edge ({u[i]:.17g}, {v[i]:.17g}) out of range for {n} points")
        raise ValueError(f"edge ({u[i]:.17g}, {v[i]:.17g}) has non-positive weight {w[i]}")
    u, v = u.astype(np.int64), v.astype(np.int64)
    keep = u != v
    lo, hi, w = np.minimum(u, v)[keep], np.maximum(u, v)[keep], w[keep]
    # lightest first, so that np.unique's first occurrence of a pair is its lightest edge
    order = np.argsort(w, kind="stable")
    _, first = np.unique((lo * n + hi)[order], return_index=True)
    rows, cols, vals = lo[order[first]], hi[order[first]], w[order[first]]
    graph = sp.csr_matrix((np.concatenate([vals, vals]),
                           (np.concatenate([rows, cols]), np.concatenate([cols, rows]))),
                          shape=(n, n))
    return FiniteSpace._from_graph(points, graph, name)


def disjoint_union(spaces: Sequence[FiniteSpace], name: str | None = None) -> FiniteSpace:
    """Disjoint union: distances kept within each part, +inf across parts.

    Point names are qualified as ``<part-name>:<point-name>`` so the union
    has distinct names even when parts repeat.  A union of spaces built
    from graphs keeps their graphs, as one block-diagonal graph.
    """
    if not spaces:
        raise ValueError("disjoint_union needs at least one space")
    total = sum(s.n_points for s in spaces)
    _check_size(total)
    names = [f"{s.name}:{p}" for s in spaces for p in s.points]
    if name is None:
        name = "+".join(s.name for s in spaces)
    if any(s._graph is None for s in spaces):
        d = np.full((total, total), INF)
        at = 0
        for s in spaces:
            d[at:at + s.n_points, at:at + s.n_points] = s.dist
            at += s.n_points
        return FiniteSpace(names, d, name=name)
    _check_names(tuple(names), str(name))
    graph = sp.block_diag([s._graph for s in spaces], format="csr")
    return FiniteSpace._from_graph(names, graph, name)


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
    off = rows != cols
    rows, cols = rows[off], cols[off]
    apart = space.component_of[rows] != space.component_of[cols]
    if apart.any():
        i = int(np.argmax(apart))
        raise UncontrolledSupportError(
            f"pair ({space.points[rows[i]]}, {space.points[cols[i]]}) "
            "connects points at infinite distance")
    # one search per distinct smaller index (the pair rule of FiniteSpace):
    # sort the pairs by it, then read each block's pairs off the block
    rows, cols = np.minimum(rows, cols), np.maximum(rows, cols)
    sources, at = np.unique(rows, return_inverse=True)
    order = np.argsort(at, kind="stable")
    at, cols = at[order], cols[order]
    diameter = 0.0
    for lo, block in space._distance_rows(sources):
        a, b = np.searchsorted(at, (lo, lo + len(block)))
        diameter = max(diameter, float(block[at[a:b] - lo, cols[a:b]].max(initial=0.0)))
    return diameter


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
    rows, cols, dists = space.pairs_within(radius)
    pairs = frozenset(zip(rows.tolist(), cols.tolist()))
    return ControlledSet(space, pairs, float(dists.max()))


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
