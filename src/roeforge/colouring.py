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
function of the graph.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from itertools import chain
from typing import Mapping

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


def _tube_ends(space: FiniteSpace, radius: float) -> tuple[np.ndarray, np.ndarray]:
    """End arrays ``us < vs`` of the tube's edges, in row-major order."""
    rows, cols, _ = space.pairs_within(radius)
    upper = rows < cols
    return rows[upper], cols[upper]


def tube_graph_edges(space: FiniteSpace, radius: float) -> list[tuple[int, int]]:
    """Unordered pairs (u < v) of distinct points at distance <= radius."""
    us, vs = _tube_ends(space, radius)
    return list(zip(us.tolist(), vs.tolist()))


@dataclass(frozen=True)
class EdgeColouring:
    """A proper edge colouring of a tube graph.

    ``colour_of`` maps each edge (u < v) to a colour in 1..n_colours, no two
    edges sharing an endpoint getting the same colour; ``n_colours`` never
    exceeds ``max_degree + 1``.
    """

    space: FiniteSpace
    radius: float
    edges: tuple
    colour_of: Mapping
    n_colours: int
    max_degree: int

    def classes(self) -> list[list[tuple[int, int]]]:
        """Edges grouped by colour; index i holds colour i+1 (a matching)."""
        out: list[list[tuple[int, int]]] = [[] for _ in range(self.n_colours)]
        for e in self.edges:
            out[self.colour_of[e] - 1].append(e)
        return out

    @cached_property
    def _permutations(self) -> tuple:
        """Built once per colouring, so every decomposition shares the
        same permutations and their cached operators.

        Each involution comes from the edge-end array cut by a colour
        array.  The colours are read edge by edge, as ``colour_of[e]`` for
        ``e`` in ``edges``, so a ``colour_of`` in another key order (say
        from :func:`dataclasses.replace`) gives the same permutations.
        """
        m = len(self.edges)
        ends = np.fromiter(chain.from_iterable(self.edges), dtype=np.int64,
                           count=2 * m).reshape(m, 2)
        colours = np.fromiter(map(self.colour_of.__getitem__, self.edges),
                              dtype=np.int64, count=m)
        perms = [PermutationOp.identity(self.space)]
        for c in range(1, self.n_colours + 1):
            # a matching of tube edges: a bijection moving points finitely
            u, v = ends[colours == c].T
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
    only on the space and the radius.  The tube's end arrays come from one
    :meth:`~roeforge.space.FiniteSpace.pairs_within`; degrees are their
    ``bincount`` and the renumbering one ``np.unique``, so only the
    fan/rotation loop of :func:`_misra_gries` runs per edge in Python.
    """
    us, vs = _tube_ends(space, radius)
    n = space.n_points
    degree = np.bincount(us, minlength=n) + np.bincount(vs, minlength=n)
    max_degree = int(degree.max()) if n else 0
    us, vs = us.tolist(), vs.tolist()
    edges = tuple(zip(us, vs))
    raw = np.array(_misra_gries(n, us, vs, max_degree + 1), dtype=np.int64)
    values, first = np.unique(raw, return_index=True)
    renumber = np.zeros(max_degree + 2, dtype=np.int64)
    renumber[values[np.argsort(first)]] = np.arange(1, len(values) + 1)
    colour_of = dict(zip(edges, renumber[raw].tolist()))
    return EdgeColouring(space=space, radius=float(radius),
                         edges=edges, colour_of=colour_of,
                         n_colours=len(values), max_degree=max_degree)


def validate_colouring(col: EdgeColouring) -> None:
    """Raise ValueError unless ``col`` is a proper colouring of its tube graph."""
    expect = set(tube_graph_edges(col.space, col.radius))
    if set(col.edges) != expect or set(col.colour_of) != expect:
        raise ValueError("colouring does not cover the tube graph edge set")
    seen: dict[tuple[int, int], tuple[int, int]] = {}
    for (u, v), c in col.colour_of.items():
        if not 1 <= c <= col.n_colours:
            raise ValueError(f"colour {c} out of range 1..{col.n_colours}")
        for end in (u, v):
            if (end, c) in seen:
                raise ValueError(f"colour {c} repeats at point {col.space.points[end]}")
            seen[(end, c)] = (u, v)


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
    marks: dict[int, list[int]] = {i: [] for i in range(col.n_colours + 1)}
    for x, y in t.graph:
        if x == y:
            marks[0].append(x)
            continue
        key = (x, y) if x < y else (y, x)
        c = col.colour_of.get(key)
        if c is None:
            raise SupportOutsideTubeError(
                f"translation moves {col.space.points[y]} -> {col.space.points[x]}, "
                f"outside the radius-{col.radius} tube")
        marks[c].append(x)
    perms = colour_permutations(col)
    idems = tuple(
        FinitePropOp._ones(col.space, ((x, x) for x in marks[i]))
        for i in range(col.n_colours + 1))
    return TranslationDecomposition(radius=col.radius, perms=tuple(perms),
                                    idempotents=idems)


def colouring_to_text(col: EdgeColouring) -> str:
    """One ``colour <u> <v> <k>`` line per edge, in edge order."""
    pts = col.space.points
    lines = [f"colouring {col.space.name} {col.radius!r} {col.n_colours}"]
    for u, v in col.edges:
        lines.append(f"colour {pts[u]} {pts[v]} {col.colour_of[(u, v)]}")
    return "\n".join(lines) + "\n"
