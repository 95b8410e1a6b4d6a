"""Edge colourings of tube graphs and matching decompositions of translations.

The tube graph at radius R has an edge for every unordered pair of distinct
points at distance <= R.  Colouring its edges properly with at most
(max degree + 1) colours splits the tube into matchings; each matching,
extended by fixed points off its support, is a permutation of the space
that is both symmetric and an involution.  Any partial translation
supported in the tube is then a sum of those involutions cut down by
diagonal 0/1 operators — the workhorse decomposition behind the averaging
operators in :mod:`roeforge.kazhdan`.

The colouring itself is the classical fan/rotation scheme: process edges in
lexicographic order; when the endpoints share a free colour take the
smallest one, otherwise build a maximal fan around one endpoint, flip a
two-coloured path to free the needed colour, and rotate the fan.  With the
smallest-free-colour and lexicographic tie-breaks the output is a pure
function of the graph.  A colouring is kept once, as an edge-end array
and a colour array, which the involutions, text and validation all read.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import SpaceMismatchError, SupportOutsideTubeError
from .space import FiniteSpace
from .transalg import (
    MODE_RATIONAL,
    FinitePropOp,
    PartialTranslation,
    PermutationOp,
    operator_sum,
)

__all__ = [
    "EdgeColouring",
    "TranslationDecomposition",
    "tube_graph_edges",
    "edge_colouring",
    "validate_colouring",
    "colour_permutations",
    "decompose_translation",
    "colouring_to_text",
]


def _tube_ends(space: FiniteSpace, radius: float) -> np.ndarray:
    """The tube's edges as rows ``(u, v)``, u < v, in row-major order."""
    rows, cols, _ = space.pairs_within(radius)
    upper = rows < cols
    return np.column_stack((rows[upper], cols[upper]))


def tube_graph_edges(space: FiniteSpace, radius: float) -> list[tuple[int, int]]:
    """Unordered pairs (u < v) of distinct points at distance <= radius."""
    return list(map(tuple, _tube_ends(space, radius).tolist()))


@dataclass(frozen=True, eq=False)
class EdgeColouring:
    """A proper edge colouring of a tube graph, kept in two read-only int64 arrays.

    ``ends`` holds the tube's edges as rows u < v in row-major order and
    ``colours`` the colour in 1..n_colours of each, no two edges sharing an
    endpoint getting the same colour; ``n_colours`` <= ``max_degree + 1``.
    ``edges``, the rows as tuples, is a view built when first read; the
    package never reads it, but callers counting the tube's edges (the
    benchmark's probes) do.
    """

    space: FiniteSpace
    radius: float
    ends: np.ndarray
    colours: np.ndarray
    n_colours: int
    max_degree: int

    def __eq__(self, other) -> bool:
        if not isinstance(other, EdgeColouring):
            return NotImplemented
        return self.space is other.space and all(
            np.array_equal(getattr(self, f), getattr(other, f))
            for f in ("radius", "ends", "colours", "n_colours", "max_degree"))

    __hash__ = None

    @cached_property
    def edges(self) -> tuple:
        return tuple(map(tuple, self.ends.tolist()))

    def classes(self) -> list[list[tuple[int, int]]]:
        """Edges grouped by colour; index i holds colour i+1 (a matching)."""
        return [list(map(tuple, self.ends[self.colours == c].tolist()))
                for c in range(1, self.n_colours + 1)]

    @cached_property
    def _permutations(self) -> tuple:
        """Built once: every decomposition shares these and their operators."""
        perms = [PermutationOp.identity(self.space)]
        for c in range(1, self.n_colours + 1):
            # a matching of tube edges: a bijection moving points finitely
            u, v = self.ends[self.colours == c].T
            perm = np.arange(self.space.n_points)
            perm[u] = v
            perm[v] = u
            perms.append(PermutationOp._sealed(self.space, perm))
        return tuple(perms)


def _misra_gries(n: int, us: list[int], vs: list[int], n_colours: int) -> list[int]:
    """Colour the edges ``(us[i], vs[i])`` (u < v, simple graph) with 1..n_colours.

    Returns the colours in edge order.  ``n_colours`` must be at least max
    degree + 1.  Deterministic: edges are taken in the given order and
    every colour choice is the smallest free one.  The books are flat:
    ``at[v * (n_colours + 1) + c]`` is v's partner along colour c (-1 when
    c is free at v), ``used[v]`` a bitmask of v's taken colours, and the
    colour of edge (u, v) sits in a dict under ``u * n + v``.
    """
    k = n_colours + 1
    at = [-1] * (n * k)
    used = [0] * n
    colour: dict[int, int] = {}
    full = (1 << n_colours) - 1

    def free(v: int) -> int:
        return full & ~used[v]

    def lowest(mask: int) -> int:
        return (mask & -mask).bit_length()

    def assign(u: int, v: int, c: int):
        bit = 1 << (c - 1)
        assert not (used[u] & bit) and not (used[v] & bit)
        colour[u * n + v if u < v else v * n + u] = c
        at[u * k + c] = v
        at[v * k + c] = u
        used[u] |= bit
        used[v] |= bit

    def unassign(u: int, v: int) -> int:
        c = colour.pop(u * n + v if u < v else v * n + u)
        bit = 1 << (c - 1)
        at[u * k + c] = -1
        at[v * k + c] = -1
        used[u] &= ~bit
        used[v] &= ~bit
        return c

    def invert_path(start: int, c: int, d: int):
        # walk the maximal path of colours alternating d, c, d, ... from
        # start, then repaint it with the two colours exchanged
        path = []
        z, want = start, d
        while (w := at[z * k + want]) >= 0:
            path.append((z, w))
            z = w
            want = c if want == d else d
        repaint = [(e, unassign(*e)) for e in path]
        for (a, b), col in repaint:
            assign(a, b, d if col == c else c)

    for u, v in zip(us, vs):
        common = full & ~(used[u] | used[v])
        if common:
            # the ends share a free colour: take the smallest
            bit = common & -common
            c = bit.bit_length()
            colour[u * n + v] = c
            at[u * k + c] = v
            at[v * k + c] = u
            used[u] |= bit
            used[v] |= bit
            continue
        # maximal fan around u starting at v: each next vertex is joined to
        # u by a colour free on the previous one (smallest such colour)
        fan = [v]
        in_fan = {v}
        while True:
            m = free(fan[-1])
            nxt = -1
            while m:
                c = lowest(m)
                m &= m - 1
                w = at[u * k + c]
                if w >= 0 and w not in in_fan:
                    nxt = w
                    break
            if nxt < 0:
                break
            fan.append(nxt)
            in_fan.add(nxt)
        c = lowest(free(u))
        d = lowest(free(fan[-1]))
        if not (free(u) >> (d - 1)) & 1:
            invert_path(u, c, d)
        # shortest fan prefix whose last vertex has d free; the prefix is
        # still a fan after the inversion because it is re-checked here
        w_idx = None
        for j, wv in enumerate(fan):
            if j > 0:
                fj = fan[j]
                cj = colour[u * n + fj if u < fj else fj * n + u]
                if not (free(fan[j - 1]) >> (cj - 1)) & 1:
                    break
            if (free(wv) >> (d - 1)) & 1:
                w_idx = j
                break
        assert w_idx is not None
        shifted = [unassign(u, fan[i]) for i in range(1, w_idx + 1)]
        for i, col in enumerate(shifted):
            assign(u, fan[i], col)
        assign(u, fan[w_idx], d)
    return [colour[u * n + v] for u, v in zip(us, vs)]


def edge_colouring(space: FiniteSpace, radius: float) -> EdgeColouring:
    """Properly colour the tube graph at ``radius`` with <= Delta+1 colours.

    Colour classes are renumbered 1..n by first use, so the result depends
    only on the space and the radius.  The tube's end array comes from one
    :meth:`~roeforge.space.FiniteSpace.pairs_within`, and the degrees and
    the renumbering are numpy calls, so only the fan/rotation loop of
    :func:`_misra_gries` runs per edge in Python.
    """
    ends = _tube_ends(space, radius)
    n = space.n_points
    max_degree = int(np.bincount(ends.ravel(), minlength=n).max()) if n else 0
    us, vs = ends.T.tolist()
    raw = np.array(_misra_gries(n, us, vs, max_degree + 1), dtype=np.int64)
    values, first = np.unique(raw, return_index=True)
    renumber = np.zeros(max_degree + 2, dtype=np.int64)
    renumber[values[np.argsort(first)]] = np.arange(1, len(values) + 1)
    colours = renumber[raw]
    for a in (ends, colours):
        a.setflags(write=False)
    return EdgeColouring(space=space, radius=float(radius), ends=ends,
                         colours=colours, n_colours=len(values),
                         max_degree=max_degree)


def validate_colouring(col: EdgeColouring) -> None:
    """Raise ValueError unless ``col`` is a proper colouring of its tube graph."""
    expect = _tube_ends(col.space, col.radius)
    ends, colours = col.ends, col.colours
    if (ends.shape != expect.shape or colours.shape != expect.shape[:1]
            or not np.array_equal(ends[np.lexsort(ends.T[::-1])], expect)):
        raise ValueError("colouring does not cover the tube graph edge set")
    seen: set[tuple[int, int]] = set()
    for (u, v), c in zip(ends.tolist(), colours.tolist()):
        if not 1 <= c <= col.n_colours:
            raise ValueError(f"colour {c} out of range 1..{col.n_colours}")
        for end in (u, v):
            if (end, c) in seen:
                raise ValueError(f"colour {c} repeats at point {col.space.points[end]}")
            seen.add((end, c))


def colour_permutations(col: EdgeColouring) -> list[PermutationOp]:
    """The identity followed by one involution per colour class.

    Entry 0 is the identity; entry i >= 1 swaps the endpoints of every
    colour-i edge and fixes all other points.  Each is symmetric, equal to
    its own inverse, and has unit row and column sums.  The permutations
    are built once per colouring; each call returns a new list of them.
    """
    return list(col._permutations)


@dataclass(frozen=True)
class TranslationDecomposition:
    """A partial translation written as diagonal cuts of involutions.

    ``perms[i]`` are the permutations from :func:`colour_permutations`
    (index 0 the identity) and ``idempotents[i]`` are diagonal 0/1
    operators with ``sum_i idempotents[i] @ perms[i].op`` equal to the
    translation matrix and ``sum_i idempotents[i]`` equal to the projection
    onto its image.
    """

    radius: float
    perms: tuple
    idempotents: tuple

    def reconstruct(self) -> FinitePropOp:
        return operator_sum(self.perms[0].space,
                            (f @ a.op for f, a in zip(self.idempotents, self.perms)),
                            MODE_RATIONAL)

    def range_projection(self) -> FinitePropOp:
        return operator_sum(self.perms[0].space, self.idempotents, MODE_RATIONAL)


def decompose_translation(t: PartialTranslation, col: EdgeColouring) -> TranslationDecomposition:
    """Split a translation along the colour classes of a tube colouring.

    Every support pair of the translation matrix must be an edge of the
    coloured tube graph or a diagonal pair; otherwise the translation
    propagates further than the colouring covers and
    :class:`~roeforge.errors.SupportOutsideTubeError` is raised.  The i-th
    idempotent marks the rows where the translation acts by the i-th
    permutation (the 0-th marks its fixed points), so the pieces reassemble
    exactly: the translation is recovered entry for entry, in integers.
    """
    if t.space is not col.space:
        raise SpaceMismatchError("translation and colouring live over different spaces")
    n = col.space.n_points
    x, y = np.array(t.graph, dtype=np.int64).reshape(-1, 2).T
    keys = col.ends[:, 0] * n + col.ends[:, 1]  # ascending: ends is row-major
    want = np.minimum(x, y) * n + np.maximum(x, y)
    at = np.searchsorted(keys, want)  # len(keys) past the last edge: the sentinels below
    outside = (x != y) & (np.append(keys, -1)[at] != want)
    if outside.any():
        i = int(np.argmax(outside))
        raise SupportOutsideTubeError(
            f"translation moves {col.space.points[y[i]]} -> {col.space.points[x[i]]}, "
            f"outside the radius-{col.radius} tube")
    colour = np.where(x == y, 0, np.append(col.colours, 0)[at])
    idems = tuple(FinitePropOp._ones(col.space, ((v, v) for v in x[colour == c].tolist()))
                  for c in range(col.n_colours + 1))
    return TranslationDecomposition(radius=col.radius, perms=col._permutations,
                                    idempotents=idems)


def colouring_to_text(col: EdgeColouring) -> str:
    """One ``colour <u> <v> <k>`` line per edge, in edge order."""
    pts = col.space.points
    lines = [f"colouring {col.space.name} {col.radius!r} {col.n_colours}"]
    lines += (f"colour {pts[u]} {pts[v]} {c}"
              for (u, v), c in zip(col.ends.tolist(), col.colours.tolist()))
    return "\n".join(lines) + "\n"
