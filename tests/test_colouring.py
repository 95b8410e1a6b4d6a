import dataclasses
from fractions import Fraction

import numpy as np
import pytest

import roeforge as rf
from roeforge import (
    FinitePropOp,
    PartialTranslation,
    SpaceMismatchError,
    SupportOutsideTubeError,
)
from conftest import random_space, random_translation


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
    rf.validate_colouring(col)
    perms = rf.colour_permutations(col)
    assert len(perms) == 1  # just the identity
    assert rf.edge_colouring(rf.make_random_regular(5, 0), 1).max_degree == 0


def test_colouring_is_deterministic():
    a = rf.edge_colouring(rf.make_cycle(5), 1)
    b = rf.edge_colouring(rf.make_cycle(5), 1)
    assert a.colour_of == b.colour_of
    assert a.colour_of == {(0, 1): 1, (0, 4): 2, (1, 2): 2, (2, 3): 1, (3, 4): 3}


def test_colours_are_renumbered_by_first_use():
    for seed in range(10):
        sp = rf.random_bounded_degree_space(30, 5, seed=seed)
        col = rf.edge_colouring(sp, 1)
        seen = []
        for e in col.edges:
            c = col.colour_of[e]
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
    bad = dict(col.colour_of)
    bad[(0, 1)] = bad[(1, 2)]  # two colours meeting at point 1
    tampered = dataclasses.replace(col, colour_of=bad)
    with pytest.raises(ValueError):
        rf.validate_colouring(tampered)
    missing = dataclasses.replace(col, edges=col.edges + ((2, 4),))
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
    other = dataclasses.replace(col, colour_of=dict(col.colour_of))
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
