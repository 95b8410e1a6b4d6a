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
import numbers
import sys
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
    "is_generating",
    "parse_space_file",
    "load_space",
]

INF = math.inf
MAX_POINTS = 1 << 20    # larger spaces are refused with MemoryError
_CHUNK = 1 << 20        # most distances held at once by a graph-backed query
_DENSE_SHARE = 1 / 16   # candidates per dense-row entry past which a tube takes Dijkstra rows


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

    The constructor checks the metric axioms that are cheap to check:
    shape, symmetry, zero diagonal, positivity off the diagonal, and
    consistency of the finite-distance relation with a partition.  The
    triangle inequality is O(n^3); use :func:`check_triangle` separately
    when that guarantee is needed.

    Spaces built from graphs (:func:`space_from_graph`, and
    :func:`disjoint_union` of such spaces) hold their weighted graph and
    component labels instead of a matrix.  Every distance they report is
    the one Dijkstra's algorithm finds on that graph (a query bounded by a
    radius finds it by a sparse search), and ``dist`` is computed only
    when it is first read.  Dijkstra adds a path's weights
    in the order it walks them, so the searches from x and from y can
    differ in the last bit; for x < y, d(x, y) and d(y, x) are both the
    value x's search finds.
    """

    def __init__(self, points: Sequence[str], dist, name: str = "space"):
        points = tuple(str(p) for p in points)
        name = str(name)
        d = np.array(dist, dtype=float)
        n = len(points)
        _check_names(points, name)
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
        np.fill_diagonal(d, 0.0)    # a -0.0 passes the check above; keep +0.0
        self._init(points, name, dist=d)
        # the finite-distance relation must be an equivalence relation; one
        # row per component only reads off its class correctly then
        rows, cols = np.nonzero(np.isfinite(d))
        comp = self.component_of
        if not np.array_equal(comp[rows], comp[cols]):
            raise ValueError("finite-distance relation is not transitive")

    def _init(self, points: tuple, name: str, dist: np.ndarray | None = None,
              graph: sp.csr_matrix | None = None):
        """Hold ``dist``, a valid float matrix (made read-only), or ``graph``, a
        symmetric CSR (positive weights, no self-loops), and number the
        components by their smallest point."""
        self.points = points
        self.name = name
        self._dist = dist
        self._graph = graph
        if graph is None:
            dist.setflags(write=False)
            comp = np.full(len(points), -1, dtype=np.int64)
            n_components = 0
            for i in range(len(points)):
                if comp[i] < 0:
                    comp[np.isfinite(dist[i])] = n_components
                    n_components += 1
        else:
            n_components, labels = connected_components(graph, directed=False)
            comp = labels.astype(np.int64)
        comp.setflags(write=False)
        self.component_of = comp
        self.n_components = int(n_components)
        self._component_points: dict[int, np.ndarray] = {}
        self._component_spaces: dict[int, FiniteSpace] = {}
        self._index: dict[str, int] | None = None

    @classmethod
    def _built(cls, points: Sequence[str], name: str, **storage) -> "FiniteSpace":
        """A space on storage known to be valid (``dist=`` or ``graph=``, as
        :meth:`_init` takes them), without the constructor's checks."""
        space = cls.__new__(cls)
        space._init(tuple(points), str(name), **storage)
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

    def _held_matrix(self):
        """``dist`` if the space holds it or it fits in one ``_CHUNK`` (built
        and kept then), else None.  Whole-space queries read it when they
        get it, and otherwise Dijkstra rows (:meth:`_dijkstra_rows`)."""
        if self._dist is None and self.n_points ** 2 > _CHUNK:
            return None
        return self.dist

    def _dijkstra_rows(self, rows: np.ndarray):
        """Yield ``(lo, block)``: the Dijkstra distances from ``rows[lo:lo +
        len(block)]``, at most ``_CHUNK`` entries a block.

        For a graph-backed space that :meth:`_held_matrix` refuses.  Entries
        on and above the diagonal equal those of ``dist`` bit for bit;
        below it, callers apply the pair rule themselves.
        """
        step = max(1, _CHUNK // self.n_points)
        for lo in range(0, len(rows), step):
            yield lo, dijkstra(self._graph, indices=rows[lo:lo + step])

    def _tube_blocks(self, radius: float):
        """Yield ``(rows, cols, dists)``: the pairs within ``radius`` that rows decide.

        For a graph-backed space that does not hold ``dist``.  Each block
        holds the pairs ``(x, y)`` with ``y >= x`` and ``d(x, y) <= radius``
        for a run of sources x, in row-major order.  Runs are searched
        sparsely (:func:`_ball_search`) while that stays cheap: a run's
        search may make at most ``_DENSE_SHARE`` candidates per entry of
        the dense rows it replaces, and at most ``_CHUNK`` pairs and
        candidates are held at once.  The first run is a sixteenth of a
        chunk of rows, and each next run is sized from the last one's
        work.  A run that holds too much is halved; a run that needs too
        many candidates, and every run after it, takes Dijkstra rows cut
        off at the radius, ``_CHUNK`` entries at a time.  Both give each
        pair the value x's Dijkstra search gives.
        """
        n = self.n_points
        graph = self._graph
        step = max(1, _CHUNK // n)      # Dijkstra rows per block
        size, lo = max(1, step // 16), 0
        while lo < n:
            hi = min(n, lo + size)
            budget = (hi - lo) * n * _DENSE_SHARE
            room = _CHUNK - (hi - lo)
            found = _ball_search(graph, lo, hi, radius, min(budget, room))
            if found is None and budget > room and hi - lo > 1:
                size = (hi - lo) // 2      # too many pairs to hold at once
                continue
            if found is None:
                break
            keys, dists, work = found
            src, cols = np.divmod(keys, n)
            src += lo
            up = cols >= src
            yield src[up], cols[up], dists[up]
            size = max(1, (hi - lo) * _CHUNK // (2 * (hi - lo + work)))
            lo = hi
        for a in range(lo, n, step):
            block = dijkstra(graph, indices=np.arange(a, min(n, a + step)), limit=radius)
            yield _upper_pairs(a, block, radius)

    @property
    def n_points(self) -> int:
        return len(self.points)

    def __len__(self) -> int:
        return len(self.points)

    def __repr__(self) -> str:
        return (f"FiniteSpace({self.name!r}, n_points={self.n_points}, "
                f"n_components={self.n_components})")

    def index_of(self, point_name: str) -> int:
        """The index of the point named ``point_name``, from a name -> index
        dict built on the first call."""
        if self._index is None:
            self._index = {p: i for i, p in enumerate(self.points)}
        try:
            return self._index[point_name]
        except (KeyError, TypeError):   # an unhashable name names no point either
            raise KeyError(f"no point named {point_name!r} in space {self.name!r}") from None

    def component_points(self, component_id: int) -> np.ndarray:
        """Ascending indices of the points in one coarse component, as a
        read-only array built once per id."""
        got = self._component_points.get(component_id)
        if got is None:
            if not 0 <= component_id < self.n_components:
                raise ValueError(f"component id {component_id} out of range "
                                 f"(space has {self.n_components})")
            got = np.flatnonzero(self.component_of == component_id)
            got.setflags(write=False)
            self._component_points[component_id] = got
        return got

    def component_space(self, component_id: int) -> "FiniteSpace":
        """The coarse component itself as a space (memoised per id)."""
        got = self._component_spaces.get(component_id)
        if got is None:
            idx = self.component_points(component_id)
            points = [self.points[i] for i in idx]
            name = f"{self.name}.{component_id}"
            if self._dist is not None:
                got = FiniteSpace._built(points, name, dist=self._dist[np.ix_(idx, idx)])
            else:
                got = FiniteSpace._built(points, name, graph=self._graph[idx][:, idx])
            self._component_spaces[component_id] = got
        return got

    def pairs_within(self, radius: float) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Every ordered pair at finite distance <= radius, as row, column and
        distance arrays.

        Pairs come in row-major order and include the diagonal; a pair in
        two components is never in a tube, an unbounded one included.  A
        space that holds ``dist`` answers from it directly (it is symmetric
        bit for bit).  A graph-backed one searches from each point only as
        far as the radius (:meth:`_tube_blocks`), so the cost follows the
        number of pairs, not n²; there the smaller index's search decides a
        pair, and the pair is mirrored.
        """
        if not radius >= 0:  # NaN too: it would give an empty tube
            raise ValueError("radius must be >= 0")
        radius = min(radius, sys.float_info.max)   # keeps +inf pairs out
        if self._dist is not None:
            rows, cols = np.divmod(np.flatnonzero(self._dist <= radius), self.n_points)
            return rows, cols, self._dist[rows, cols]
        rows, cols, dists = map(np.concatenate, zip(*self._tube_blocks(radius)))
        # mirror the pairs each row decides and sort back to row-major order
        off = rows != cols
        rows, cols = np.concatenate([rows, cols[off]]), np.concatenate([cols, rows[off]])
        order = np.lexsort((cols, rows))
        return rows[order], cols[order], np.concatenate([dists, dists[off]])[order]

    def max_ball_size(self, radius: float) -> int:
        """Largest number of points in any closed ball of the given radius."""
        return int(np.bincount(self.pairs_within(radius)[0]).max())

    def finite_diameter(self) -> float:
        """Largest finite distance in the space (0.0 for a single point)."""
        d = self._held_matrix()
        if d is not None:
            return float(np.max(d, where=np.isfinite(d), initial=0.0))
        return max(float(block[np.isfinite(block) & _upper(lo, block)].max())
                   for lo, block in self._dijkstra_rows(np.arange(self.n_points)))


def _upper(lo: int, block: np.ndarray) -> np.ndarray:
    """Which entries of rows ``lo, lo + 1, ...`` lie on or above the diagonal."""
    return np.arange(block.shape[1]) >= np.arange(lo, lo + len(block))[:, None]


def _upper_pairs(lo: int, block: np.ndarray, radius: float):
    """The pairs within ``radius`` on or above the diagonal of rows ``lo, ...``."""
    # flat indices: far faster than a 2-d nonzero, same row-major order
    r, c = np.divmod(np.flatnonzero((block <= radius) & _upper(lo, block)), block.shape[1])
    return r + lo, c, block[r, c]


def _ball_search(graph: sp.csr_matrix, lo: int, hi: int, radius: float, budget: float):
    """Distances within ``radius`` from each source ``lo <= x < hi``, by relaxation.

    Returns ``(keys, dists, work)`` with ``keys = (x - lo) * n + y``
    ascending and ``work`` the candidates made, or None as soon as that
    would pass ``budget``.  The pairs held never outnumber the sources
    plus the candidates, so ``hi - lo + budget`` bounds what is held.
    Every pair starts at (x, x, 0); each step extends the pairs whose
    distance improved along their edges, keeps ``d + w <= radius`` and the
    least value per pair.  Float addition is monotone, so the fixed point
    is Dijkstra's value bit for bit: the least, over walks, of the weights
    summed in walk order.  A pair stays on the frontier only while
    ``d + w_min <= radius``.
    """
    n = graph.shape[0]
    indptr, indices, weights = graph.indptr, graph.indices, graph.data
    w_min = weights.min() if weights.size else INF
    keys = np.arange(hi - lo) * (n + 1) + lo
    dists = np.zeros(hi - lo)
    f_src, f_node, f_d = np.arange(hi - lo), np.arange(lo, hi), dists
    work = 0
    while True:
        live = f_d + w_min <= radius
        f_src, f_node, f_d = f_src[live], f_node[live], f_d[live]
        start = indptr[f_node]
        degree = indptr[f_node + 1] - start
        total = int(degree.sum())
        if not total:
            return keys, dists, work
        work += total
        if work > budget:
            return None
        # one candidate per (frontier pair, edge)
        at = np.repeat(np.arange(len(f_node)), degree)
        edge = np.arange(total) + np.repeat(start - (np.cumsum(degree) - degree), degree)
        d = f_d[at] + weights[edge]
        ok = d <= radius
        c_key, d = (f_src[at] * n + indices[edge])[ok], d[ok]
        order = np.lexsort((d, c_key))
        c_key, d = c_key[order], d[order]
        first = np.ones(len(c_key), dtype=bool)
        first[1:] = c_key[1:] != c_key[:-1]
        c_key, d = c_key[first], d[first]
        # merge into the held pairs: improve those held, insert the new
        pos = np.searchsorted(keys, c_key)
        held = keys[np.minimum(pos, len(keys) - 1)] == c_key
        better = ~held
        better[held] = d[held] < dists[pos[held]]
        dists[pos[held & better]] = d[held & better]
        keys = np.insert(keys, pos[~held], c_key[~held])
        dists = np.insert(dists, pos[~held], d[~held])
        f_src, f_node = np.divmod(c_key[better], n)
        f_d = d[better]


def _check_names(points: tuple, name: str) -> None:
    if not points:
        raise ValueError("a space needs at least one point")
    if len(set(points)) != len(points):
        raise ValueError("point names must be distinct")
    if not name or any(c.isspace() for c in name):
        raise ValueError("space name must be a single non-empty token")


def _integer(value, what: str, error: type = ValueError) -> int:
    """``value`` as an ``int``.  Integral floats such as 16.0 and numpy
    integers are taken; bools, non-integral and non-numeric values raise
    ``error`` naming the value, instead of truncating it."""
    if type(value) is int:
        return value
    if not isinstance(value, bool):
        if isinstance(value, numbers.Integral):
            return int(value)
        if isinstance(value, numbers.Real) and float(value).is_integer():
            return int(value)
    raise error(f"{what} must be an integer, got {value!r}")


def _check_size(n: int) -> None:
    """Refuse a space of more than MAX_POINTS points, before building any of it.
    The message leaves n out: Python will not format an int of 4300 digits."""
    if n > MAX_POINTS:
        raise MemoryError(f"Unable to allocate a space of more than {MAX_POINTS} points")


def _bool_ends(edges, m: int) -> np.ndarray:
    """For each of the m triples ``(u, v, w)`` in ``edges``, whether u or v
    is a bool; one dtype test when ``edges`` is a numeric array."""
    if isinstance(edges, np.ndarray) and edges.dtype != object:
        return np.full(m, edges.dtype == bool)
    flags = (bool, np.bool_)
    return np.array([isinstance(a, flags) or isinstance(b, flags) for a, b, _ in edges],
                    dtype=bool)


def space_from_graph(points: Sequence[str],
                     edges: Iterable[tuple[int, int, float]],
                     name: str = "space") -> FiniteSpace:
    """Build a space from an undirected weighted graph by path metric.

    ``edges`` yields ``(u, v, w)`` index triples with finite ``w > 0``; an
    ``(m, 3)`` array is such an iterable.  Indices follow :func:`_integer`'s
    rule: integral floats and numpy integers are taken, bools and
    non-integral values refused.  Points not reached by any edge
    sit at +inf from everything else.  Parallel edges keep the smallest
    weight; self-loops are ignored (they cannot change any shortest path).
    This is the one place that applies that policy, so generators may pass
    loops and repeats.  The space keeps the graph, not a distance matrix.
    """
    n = len(points)
    _check_size(n)
    points = tuple(str(p) for p in points)
    _check_names(points, str(name))
    given = edges if isinstance(edges, np.ndarray) else list(edges)
    e = np.array(given, dtype=float)
    if e.size and e.shape[1:] != (3,):
        raise ValueError("edges must be (u, v, w) triples")
    u, v, w = e.reshape(-1, 3).T
    in_range = (0 <= u) & (u < n) & (0 <= v) & (v < n)
    # _integer's rule: integral floats and numpy integers pass, bools do not
    integral = (u == np.trunc(u)) & (v == np.trunc(v)) & ~_bool_ends(given, len(u))
    finite = np.isfinite(w)
    bad = ~in_range | ~integral | ~finite | ~(w > 0)
    if bad.any():
        i = int(bad.argmax())
        if not in_range[i]:
            raise ValueError(f"edge ({u[i]:.17g}, {v[i]:.17g}) out of range for {n} points")
        if not integral[i]:
            raise ValueError(f"edge ({given[i][0]}, {given[i][1]}) has a non-integer index")
        kind = "non-positive" if finite[i] else "non-finite"
        raise ValueError(f"edge ({u[i]:.17g}, {v[i]:.17g}) has {kind} weight {w[i]}")
    u, v = u.astype(np.int64), v.astype(np.int64)
    keep = u != v
    lo, hi, w = np.minimum(u, v)[keep], np.maximum(u, v)[keep], w[keep]
    # lightest first, so that np.unique's first occurrence of a pair is its lightest edge
    order = np.argsort(w, kind="stable")
    _, first = np.unique((lo * n + hi)[order], return_index=True)
    rows, cols, vals = lo[order[first]], hi[order[first]], w[order[first]]
    # both orientations of each edge, in row-major order: the CSR arrays as they are
    rows, cols = np.concatenate([rows, cols]), np.concatenate([cols, rows])
    at = np.argsort(rows * n + cols)
    indptr = np.concatenate([[0], np.cumsum(np.bincount(rows, minlength=n))])
    graph = sp.csr_matrix((np.concatenate([vals, vals])[at], cols[at], indptr), shape=(n, n))
    return FiniteSpace._built(points, name, graph=graph)


def disjoint_union(spaces: Sequence[FiniteSpace], name: str | None = None) -> FiniteSpace:
    """Disjoint union: distances kept within each part, +inf across parts.

    Point names are qualified as ``<part-name>:<point-name>``; two parts
    that give the same qualified name (a part repeated, say) are refused
    with a ValueError naming both.  A union of spaces built from graphs
    keeps their graphs, as one block-diagonal graph.
    """
    if not spaces:
        raise ValueError("disjoint_union needs at least one space")
    total = sum(s.n_points for s in spaces)
    _check_size(total)
    part_of: dict[str, int] = {}
    for i, s in enumerate(spaces):
        for p in s.points:
            q = f"{s.name}:{p}"
            if part_of.setdefault(q, i) != i:
                raise ValueError(f"part {i} ({s.name!r}) repeats the point name {q!r} "
                                 f"of part {part_of[q]}")
    if name is None:
        name = "+".join(s.name for s in spaces)
    names = tuple(part_of)
    _check_names(names, str(name))
    if any(s._graph is None for s in spaces):
        d = np.full((total, total), INF)
        at = 0
        for s in spaces:
            d[at:at + s.n_points, at:at + s.n_points] = s.dist
            at += s.n_points
        return FiniteSpace._built(names, name, dist=d)
    # the block-diagonal CSR: each part's arrays, shifted past the parts before it
    starts = np.cumsum([0] + [s.n_points for s in spaces])
    ends = np.cumsum([0] + [s._graph.nnz for s in spaces])
    indptr = np.concatenate([[0]] + [s._graph.indptr[1:] + e for s, e in zip(spaces, ends)])
    indices = np.concatenate([s._graph.indices + a for s, a in zip(spaces, starts)])
    data = np.concatenate([s._graph.data for s in spaces])
    graph = sp.csr_matrix((data, indices, indptr), shape=(total, total))
    return FiniteSpace._built(names, name, graph=graph)


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
    A space that holds ``dist``, or builds it because it fits in one
    ``_CHUNK`` (:meth:`FiniteSpace._held_matrix`), reads the pairs off it
    directly; it is symmetric bit for bit, so this is the pair rule's
    value.  Otherwise each distinct smaller index of a pair gets one
    Dijkstra search, in row chunks.
    """
    rows = np.asarray(rows, dtype=np.int64)
    cols = np.asarray(cols, dtype=np.int64)
    n = space.n_points
    outside = (rows < 0) | (rows >= n) | (cols < 0) | (cols >= n)
    if outside.any():
        i = int(np.argmax(outside))
        raise ValueError(f"pair ({rows[i]}, {cols[i]}) out of range for {n} points")
    d = space._held_matrix()
    if d is not None:
        found = d[rows, cols]
        apart = found == math.inf   # the pairs in two components
    else:
        apart = space.component_of[rows] != space.component_of[cols]
    if apart.any():
        i = int(np.argmax(apart))
        raise UncontrolledSupportError(
            f"pair ({space.points[rows[i]]}, {space.points[cols[i]]}) "
            "connects points at infinite distance")
    if d is not None:
        return float(found.max(initial=0.0))
    # one search per distinct smaller index (the pair rule of FiniteSpace):
    # sort the pairs by it, then read each block's pairs off the block
    off = rows != cols
    rows, cols = np.minimum(rows[off], cols[off]), np.maximum(rows[off], cols[off])
    sources, at = np.unique(rows, return_inverse=True)
    order = np.argsort(at, kind="stable")
    at, cols = at[order], cols[order]
    diameter = 0.0
    for lo, block in space._dijkstra_rows(sources):
        a, b = np.searchsorted(at, (lo, lo + len(block)))
        diameter = max(diameter, float(block[at[a:b] - lo, cols[a:b]].max(initial=0.0)))
    return diameter


def controlled(space: FiniteSpace, pairs: Iterable[tuple[int, int]]) -> ControlledSet:
    """Wrap explicit pairs as a controlled set, validating finiteness.

    Indices follow :func:`_integer`'s rule, as every constructor's do."""
    ps = frozenset((_integer(x, "point index"), _integer(y, "point index")) for x, y in pairs)
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


def _relation(e: ControlledSet) -> sp.csr_matrix:
    """``e`` as an n x n boolean CSR matrix, the one form relations are composed
    in: over bool, ``a @ b`` holds (x, y) when some (x, z) is in a and (z, y) in b."""
    n = e.space.n_points
    keys = np.array(list(e.pairs), dtype=np.int64).reshape(-1, 2)
    return sp.csr_matrix((np.ones(len(keys), dtype=bool), tuple(keys.T)), shape=(n, n))


def compose(e: ControlledSet, f: ControlledSet) -> ControlledSet:
    """Relational composition {(x, y) : exists z with (x,z) in e, (z,y) in f}.

    The result is again controlled, with diameter at most the sum of the
    two diameters (triangle inequality).
    """
    if e.space is not f.space:
        raise SpaceMismatchError("cannot compose controlled sets over different spaces")
    out = (_relation(e) @ _relation(f)).tocoo()
    return controlled(e.space, zip(out.row.tolist(), out.col.tolist()))


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


def is_generating(e: ControlledSet, n_max: int | None = None) -> GeneratingResult:
    """Does some n-fold composition of ``e`` cover the largest tube?

    The largest tube is Tube(R) for R the largest finite distance, i.e. all
    within-component pairs.  Compositions of a fixed finite relation are
    eventually periodic, so if a repeat shows up before the target is
    covered the answer is a certified "no".  ``n_max`` (default: number of
    points squared) bounds the search otherwise.
    """
    n_pts = e.space.n_points
    if n_max is None:
        n_max = max(1, n_pts * n_pts)
    comp = e.space.component_of
    target = int(np.sum(np.bincount(comp) ** 2))  # the pairs at finite distance
    base = cur = _relation(e)
    seen = set()
    for n in range(1, n_max + 1):
        row_comp = np.repeat(comp, np.diff(cur.indptr))    # each pair's row's component
        if np.count_nonzero(row_comp == comp[cur.indices]) == target:
            return GeneratingResult("generating", n)
        key = np.packbits(cur.toarray()).tobytes()  # the pair set itself, a bit a pair
        if key in seen:
            return GeneratingResult("not_generating")
        seen.add(key)
        cur = base @ cur
    return GeneratingResult("inconclusive")


def _parse_weight(token: str) -> float:
    try:
        w = float(Fraction(token))
    except (ValueError, ZeroDivisionError, OverflowError):
        raise ValueError(f"bad edge weight {token!r}")
    return w


def _directives(text: str):
    """``(line number, tokens)`` for each line of ``text`` that is neither
    blank nor a ``#`` comment; line numbers are 1-based."""
    for lineno, raw in enumerate(text.splitlines(), start=1):
        parts = raw.split()
        if parts and not parts[0].startswith("#"):
            yield lineno, parts


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
    for lineno, parts in _directives(text):
        kind = parts[0]
        if kind == "space":
            if len(parts) != 2:
                raise SpaceParseError("'space' takes exactly one name", lineno)
            if any(b["name"] == parts[1] for b in blocks):
                raise SpaceParseError(f"duplicate space name {parts[1]!r}", lineno)
            block = {"name": parts[1], "index": {}, "edges": []}
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
            index = block["index"]   # name -> index, in order of first appearance
            block["edges"].append((index.setdefault(parts[1], len(index)),
                                   index.setdefault(parts[2], len(index)), w))
        elif kind == "point":
            if len(parts) != 2:
                raise SpaceParseError("'point' takes exactly one name", lineno)
            block["index"].setdefault(parts[1], len(block["index"]))
        else:
            raise SpaceParseError(f"unknown directive {kind!r}", lineno)
    if not blocks:
        raise SpaceParseError("no spaces defined")
    for b in blocks:
        if not b["index"]:
            raise SpaceParseError(f"space {b['name']!r} has no points")
    built = [space_from_graph(list(b["index"]), b["edges"], name=b["name"]) for b in blocks]
    if len(built) == 1:
        return built[0]
    return disjoint_union(built)


def load_space(path) -> FiniteSpace:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_space_file(fh.read())
