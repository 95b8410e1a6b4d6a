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


def tube_graph_edges(space: FiniteSpace, radius: float) -> list[tuple[int, int]]:
    """Unordered pairs (u < v) of distinct points at distance <= radius."""
    rows, cols, _ = space.pairs_within(radius)
    upper = rows < cols
    return list(zip(rows[upper].tolist(), cols[upper].tolist()))


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
        same permutations and their cached operators."""
        perms = [PermutationOp.identity(self.space)]
        for matching in self.classes():
            # a matching of tube edges: a bijection moving points finitely
            u, v = np.array(matching, dtype=np.int64).T
            perm = np.arange(self.space.n_points)
            perm[u] = v
            perm[v] = u
            perms.append(PermutationOp._sealed(self.space, perm))
        return tuple(perms)


def _misra_gries(n: int, edges: list[tuple[int, int]], n_colours: int) -> dict:
    """Colour ``edges`` (u < v pairs, simple graph) with colours 1..n_colours.

    ``n_colours`` must be at least max degree + 1.  Deterministic: edges are
    taken in the given order and every colour choice is the smallest free
    one.
    """
    at: list[dict[int, int]] = [dict() for _ in range(n)]  # vertex -> colour -> partner
    used = [0] * n                                         # bitmask of taken colours
    colour_of: dict[tuple[int, int], int] = {}
    full = (1 << n_colours) - 1

    def free(v: int) -> int:
        return full & ~used[v]

    def lowest(mask: int) -> int:
        return (mask & -mask).bit_length()

    def assign(u: int, v: int, c: int):
        bit = 1 << (c - 1)
        assert not (used[u] & bit) and not (used[v] & bit)
        colour_of[(u, v) if u < v else (v, u)] = c
        at[u][c] = v
        at[v][c] = u
        used[u] |= bit
        used[v] |= bit

    def unassign(u: int, v: int) -> int:
        c = colour_of.pop((u, v) if u < v else (v, u))
        bit = 1 << (c - 1)
        del at[u][c]
        del at[v][c]
        used[u] &= ~bit
        used[v] &= ~bit
        return c

    def invert_path(start: int, c: int, d: int):
        # walk the maximal path of colours alternating d, c, d, ... from
        # start, then repaint it with the two colours exchanged
        chain = []
        z, want = start, d
        while want in at[z]:
            w = at[z][want]
            chain.append((z, w))
            z = w
            want = c if want == d else d
        repaint = [(e, unassign(*e)) for e in chain]
        for (a, b), col in repaint:
            assign(a, b, d if col == c else c)

    for u, v in edges:
        common = free(u) & free(v)
        if common:
            assign(u, v, lowest(common))
            continue
        # maximal fan around u starting at v: each next vertex is joined to
        # u by a colour free on the previous one (smallest such colour)
        fan = [v]
        in_fan = {v}
        while True:
            m = free(fan[-1])
            nxt = None
            while m:
                c = lowest(m)
                m &= m - 1
                w = at[u].get(c)
                if w is not None and w not in in_fan:
                    nxt = w
                    break
            if nxt is None:
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
                cj = colour_of[(u, fan[j]) if u < fan[j] else (fan[j], u)]
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
    return colour_of


def edge_colouring(space: FiniteSpace, radius: float) -> EdgeColouring:
    """Properly colour the tube graph at ``radius`` with <= Delta+1 colours.

    Colour classes are renumbered 1..n by first use, so the result depends
    only on the space and the radius.
    """
    edges = tube_graph_edges(space, radius)
    n = space.n_points
    degree = np.bincount(np.asarray(edges, dtype=np.int64).reshape(-1), minlength=n)
    max_degree = int(degree.max()) if n else 0
    raw = _misra_gries(n, edges, max_degree + 1) if edges else {}
    renumber: dict[int, int] = {}
    for e in edges:
        renumber.setdefault(raw[e], len(renumber) + 1)
    colour_of = {e: renumber[raw[e]] for e in edges}
    return EdgeColouring(space=space, radius=float(radius),
                         edges=tuple(edges), colour_of=colour_of,
                         n_colours=len(renumber), max_degree=max_degree)


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
        FinitePropOp._sealed(col.space, {(x, x): 1 for x in marks[i]}, MODE_RATIONAL)
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
