import dataclasses
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import roeforge as rf
from roeforge import cli
from roeforge import (
    FinitePropOp,
    PartialTranslation,
    SpaceMismatchError,
    SupportOutsideTubeError,
)
from helpers import random_space, random_translation


def test_tube_graph_edges():
    sp = rf.make_cycle(4)
    assert rf.tube_graph_edges(sp, 1) == [(0, 1), (0, 3), (1, 2), (2, 3)]
    assert rf.tube_graph_edges(sp, 2) == [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)]
    assert rf.tube_graph_edges(sp, 0) == []


def test_odd_cycle_needs_three_colours():
    col = rf.edge_colouring(rf.make_cycle(5), 1)
    assert col.n_colours == 3
    assert col.max_degree == 2
    rf.validate_colouring(col)


def test_even_cycle_needs_two():
    col = rf.edge_colouring(rf.make_cycle(8), 1)
    assert col.n_colours == 2
    rf.validate_colouring(col)


def test_complete_graph_colouring():
    col = rf.edge_colouring(rf.make_complete(4), 1)
    assert col.n_colours == 3  # K4 is class 1
    rf.validate_colouring(col)


def test_colour_bound_on_random_graphs():
    for seed in range(20):
        sp = rf.random_bounded_degree_space(40, 6, seed=seed)
        col = rf.edge_colouring(sp, 1)
        rf.validate_colouring(col)
        assert col.n_colours <= col.max_degree + 1


def test_wider_tubes_are_coloured_too():
    sp = rf.make_cycle(7)
    col = rf.edge_colouring(sp, 2)
    rf.validate_colouring(col)
    assert col.max_degree == 4
    assert col.n_colours <= 5


def test_empty_tube_graph():
    sp = rf.make_complete(1)
    col = rf.edge_colouring(sp, 1)
    assert col.n_colours == 0
    assert col.max_degree == 0
    assert col.edges == ()
    assert col.ends.shape == (0, 2) and col.colours.shape == (0,)
    rf.validate_colouring(col)
    perms = rf.colour_permutations(col)
    assert len(perms) == 1  # just the identity
    assert rf.edge_colouring(rf.make_random_regular(5, 0), 1).max_degree == 0


def test_colouring_is_deterministic():
    a = rf.edge_colouring(rf.make_cycle(5), 1)
    b = rf.edge_colouring(rf.make_cycle(5), 1)
    pairs = list(zip(a.edges, a.colours.tolist()))
    assert pairs == list(zip(b.edges, b.colours.tolist()))
    assert pairs == [((0, 1), 1), ((0, 4), 2), ((1, 2), 2), ((2, 3), 1), ((3, 4), 3)]


def test_colours_are_renumbered_by_first_use():
    for seed in range(10):
        sp = rf.random_bounded_degree_space(30, 5, seed=seed)
        col = rf.edge_colouring(sp, 1)
        seen = []
        for _, c in zip(col.edges, col.colours.tolist()):
            if c not in seen:
                seen.append(c)
        assert seen == list(range(1, col.n_colours + 1))


def test_classes_partition_edges():
    col = rf.edge_colouring(rf.make_complete(5), 1)
    classes = col.classes()
    assert len(classes) == col.n_colours
    combined = sorted(e for cls in classes for e in cls)
    assert combined == sorted(col.edges)
    for cls in classes:
        seen = set()
        for u, v in cls:
            assert u not in seen and v not in seen  # each class is a matching
            seen.update((u, v))


def test_validate_colouring_catches_clashes():
    col = rf.edge_colouring(rf.make_cycle(5), 1)
    assert col.edges[0] == (0, 1) and col.edges[2] == (1, 2)
    bad = col.colours.copy()
    bad[0] = bad[2]  # two colours meeting at point 1
    tampered = dataclasses.replace(col, colours=bad)
    with pytest.raises(ValueError):
        rf.validate_colouring(tampered)
    missing = dataclasses.replace(col, ends=np.vstack([col.ends, [(2, 4)]]),
                                  colours=np.append(col.colours, 1))
    with pytest.raises(ValueError):
        rf.validate_colouring(missing)


def test_colour_permutations_structure():
    sp = rf.make_cycle(6)
    col = rf.edge_colouring(sp, 1)
    perms = rf.colour_permutations(col)
    assert len(perms) == col.n_colours + 1
    assert perms[0] == rf.PermutationOp.identity(sp)
    for i, perm in enumerate(perms[1:], start=1):
        assert perm.is_involution
        moved = {(int(perm.perm[y]), y) for y in range(6) if perm.perm[y] != y}
        expected = {(u, v) for u, v in col.classes()[i - 1]}
        assert moved == {p for uv in expected for p in (uv, uv[::-1])}


def test_colour_permutations_are_built_once_per_colouring():
    col = rf.edge_colouring(rf.make_cycle(6), 1)
    first = rf.colour_permutations(col)
    second = rf.colour_permutations(col)
    assert first == second
    assert all(p is q for p, q in zip(first, second))
    first.pop()
    assert len(rf.colour_permutations(col)) == col.n_colours + 1
    dec = rf.decompose_translation(PartialTranslation(col.space, {0: 1}), col)
    assert all(p is q for p, q in zip(dec.perms, second))
    # a modified copy of a colouring gets its own permutations
    other = dataclasses.replace(col, colours=col.colours.copy())
    assert rf.colour_permutations(other)[1] is not second[1]


def test_decompose_round_trip():
    """A translation splits into colour pieces that reassemble exactly."""
    sp = rf.make_cycle(6)
    col = rf.edge_colouring(sp, 2)
    t = PartialTranslation(sp, {0: 2, 3: 1, 5: 5})
    dec = rf.decompose_translation(t, col)
    v = t.as_operator()
    assert dec.reconstruct() == v
    assert dec.range_projection() == v @ v.adjoint()
    assert dec.radius == col.radius


def test_decompose_marks_fixed_points_on_identity_piece():
    sp = rf.make_cycle(5)
    col = rf.edge_colouring(sp, 1)
    t = PartialTranslation(sp, {1: 1, 2: 3})
    dec = rf.decompose_translation(t, col)
    assert dec.idempotents[0] == FinitePropOp.diagonal(sp, {1: 1})


def test_decompose_idempotents_are_diagonal_01():
    rng = np.random.default_rng(3)
    for _ in range(15):
        sp = random_space(rng)
        col = rf.edge_colouring(sp, 1)
        t = random_translation(rng, sp, 1)
        dec = rf.decompose_translation(t, col)
        for f in dec.idempotents:
            assert f @ f == f
            assert all(x == y for x, y in f.entries)
            assert set(f.entries.values()) <= {1}
        assert dec.reconstruct() == t.as_operator()


def test_decompose_rejects_support_outside_tube():
    sp = rf.make_cycle(8)
    col = rf.edge_colouring(sp, 1)
    far = PartialTranslation(sp, {0: 3})
    with pytest.raises(SupportOutsideTubeError):
        rf.decompose_translation(far, col)
    # the first support pair outside the tube, in graph order, is named
    t = PartialTranslation(sp, {0: 1, 6: 2, 5: 0, 4: 4})
    assert t.graph == ((0, 5), (1, 0), (2, 6), (4, 4))
    with pytest.raises(SupportOutsideTubeError,
                       match=r"^translation moves 5 -> 0, outside the radius-1\.0 tube$"):
        rf.decompose_translation(t, col)


def test_decompose_on_an_empty_tube():
    """With no tube edges only fixed points decompose, onto the identity."""
    sp = rf.FiniteSpace(["a", "b", "c"], [[0, 3, 3], [3, 0, 3], [3, 3, 0]])
    col = rf.edge_colouring(sp, 1)
    assert col.ends.shape == (0, 2) and col.n_colours == 0
    t = PartialTranslation.identity_on(sp, [0, 2])
    dec = rf.decompose_translation(t, col)
    assert dec.idempotents == (FinitePropOp.diagonal(sp, {0: 1, 2: 1}),)
    assert dec.reconstruct() == t.as_operator()
    empty = rf.decompose_translation(PartialTranslation(sp, {}), col)
    assert empty.idempotents == (FinitePropOp.diagonal(sp, {}),)
    with pytest.raises(SupportOutsideTubeError,
                       match=r"^translation moves c -> b, outside the radius-1\.0 tube$"):
        rf.decompose_translation(PartialTranslation(sp, {0: 0, 2: 1}), col)


def test_decompose_rejects_wrong_space():
    t = PartialTranslation(rf.make_cycle(5), {0: 1})
    col = rf.edge_colouring(rf.make_cycle(6), 1)
    with pytest.raises(SpaceMismatchError):
        rf.decompose_translation(t, col)


def test_colouring_to_text():
    col = rf.edge_colouring(rf.make_cycle(3), 1)
    assert rf.colouring_to_text(col) == (
        "colouring C3 1.0 3\n"
        "colour 0 1 1\n"
        "colour 0 2 2\n"
        "colour 1 2 3\n"
    )


# -- the array colouring against the dict-based fan/rotation loop -------------

def _reference_misra_gries(n, edges, n_colours):
    """The fan/rotation loop on per-vertex dicts, as roeforge first wrote it."""
    at = [dict() for _ in range(n)]  # vertex -> colour -> partner
    used = [0] * n                   # bitmask of taken colours
    colour_of = {}
    full = (1 << n_colours) - 1

    def free(v):
        return full & ~used[v]

    def lowest(mask):
        return (mask & -mask).bit_length()

    def assign(u, v, c):
        bit = 1 << (c - 1)
        assert not (used[u] & bit) and not (used[v] & bit)
        colour_of[(u, v) if u < v else (v, u)] = c
        at[u][c] = v
        at[v][c] = u
        used[u] |= bit
        used[v] |= bit

    def unassign(u, v):
        c = colour_of.pop((u, v) if u < v else (v, u))
        bit = 1 << (c - 1)
        del at[u][c]
        del at[v][c]
        used[u] &= ~bit
        used[v] &= ~bit
        return c

    def invert_path(start, c, d):
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


def _reference_colouring(space, radius):
    """``(edges, colour_of, n_colours, max_degree)`` by the dict loop."""
    edges = rf.tube_graph_edges(space, radius)
    degree = [0] * space.n_points
    for u, v in edges:
        degree[u] += 1
        degree[v] += 1
    max_degree = max(degree, default=0)
    raw = _reference_misra_gries(space.n_points, edges, max_degree + 1)
    renumber = {}
    for e in edges:
        renumber.setdefault(raw[e], len(renumber) + 1)
    colour_of = {e: renumber[raw[e]] for e in edges}
    return tuple(edges), colour_of, len(renumber), max_degree


def _assert_matches_reference(space, radius):
    col = rf.edge_colouring(space, radius)
    edges, colour_of, n_colours, max_degree = _reference_colouring(space, radius)
    assert col.edges == edges
    assert list(zip(col.edges, col.colours.tolist())) == list(colour_of.items())  # order too
    assert (col.n_colours, col.max_degree) == (n_colours, max_degree)


def _reference_corpus():
    yield from (rf.make_margulis(n) for n in (16, 24, 32))
    yield from (rf.make_hypercube(d) for d in range(4, 11))
    yield rf.make_random_regular(200, 3, seed=1)
    yield rf.make_random_regular(150, 5, seed=2)
    yield rf.make_box_space_Z([3, 5, 8, 13])
    rng = np.random.default_rng(7)
    yield from (cli._random_space(rng) for _ in range(30))


@pytest.mark.parametrize("radius", [1.0, 2.0])
def test_colouring_matches_the_dict_loop(radius):
    for space in _reference_corpus():
        _assert_matches_reference(space, radius)


@settings(deadline=None, max_examples=60)
@given(st.integers(1, 40), st.integers(1, 7), st.integers(0, 2**31 - 1),
       st.floats(0.1, 1.0), st.sampled_from([1.0, 2.0, 3.0]))
def test_colouring_matches_the_dict_loop_on_random_spaces(n, max_degree, seed,
                                                          edge_prob, radius):
    space = rf.random_bounded_degree_space(n, max_degree, seed=seed,
                                           edge_prob=edge_prob)
    _assert_matches_reference(space, radius)


def test_colouring_views_agree_with_the_arrays():
    col = rf.edge_colouring(rf.make_margulis(8), 2)
    assert col.ends.dtype == col.colours.dtype == np.int64
    assert col.ends.shape == (len(col.colours), 2)
    assert not col.ends.flags.writeable and not col.colours.flags.writeable
    assert col.edges == tuple(map(tuple, col.ends.tolist()))
    assert all(u < v for u, v in col.edges)
    assert len(col.edges) == len(col.colours)  # one colour per edge, in edge order
    assert col.edges is col.edges
    with pytest.raises(TypeError):
        col.edges[0] = (0, 1)
    # equality is by value; a colouring is not hashable
    twin = rf.edge_colouring(col.space, 2)
    assert twin == col and twin is not col
    assert dataclasses.replace(col, colours=col.colours[::-1].copy()) != col
    with pytest.raises(TypeError):
        hash(col)

