import json
import re

import numpy as np
import pytest

import roeforge as rf
from roeforge import FamilyError, ManifestError, families

from helpers import assert_same_csr, reference_graph


def test_cycle_metric_matches_shortest_paths():
    n = 9
    sp = rf.make_cycle(n)
    oracle = rf.space_from_graph([str(i) for i in range(n)],
                                 [(i, (i + 1) % n, 1) for i in range(n)])
    assert np.array_equal(sp.dist, oracle.dist)
    assert sp.name == "C9"
    with pytest.raises(FamilyError):
        rf.make_cycle(2)


def test_complete_graph():
    sp = rf.make_complete(4)
    off = sp.dist[~np.eye(4, dtype=bool)]
    assert set(off.tolist()) == {1.0}
    assert rf.make_complete(1).n_points == 1
    with pytest.raises(FamilyError):
        rf.make_complete(0)


def test_hypercube_metric_is_hamming_distance():
    sp = rf.make_hypercube(3)
    assert sp.n_points == 8
    assert sp.name == "Q3"
    assert sp.points[0] == "000" and sp.points[7] == "111"
    for x in range(8):
        for y in range(8):
            assert sp.dist[x, y] == bin(x ^ y).count("1")
    with pytest.raises(FamilyError):
        rf.make_hypercube(0)


def test_random_regular_degrees_and_determinism():
    sp = rf.make_random_regular(20, 4, seed=3)
    adj = sp.dist == 1.0
    assert np.all(adj.sum(axis=1) == 4)
    again = rf.make_random_regular(20, 4, seed=3)
    assert np.array_equal(sp.dist, again.dist)
    other = rf.make_random_regular(20, 4, seed=4)
    assert not np.array_equal(sp.dist, other.dist)
    assert sp.name == "RR20x4s3"


def test_random_regular_validation():
    with pytest.raises(FamilyError):
        rf.make_random_regular(5, 3)  # nd odd
    with pytest.raises(FamilyError):
        rf.make_random_regular(4, 4)  # d >= n
    # K8 is the only simple 7-regular graph on 8 points, and a random pairing
    # of the 56 stubs almost never gives it
    with pytest.raises(FamilyError,
                       match="^no simple 7-regular pairing on 8 points found in 1000 attempts$"):
        rf.make_random_regular(8, 7)


def test_margulis_shape():
    sp = rf.make_margulis(2)
    assert sp.n_points == 4
    sp8 = rf.make_margulis(8)
    assert sp8.n_points == 64
    assert sp8.n_components == 1
    degrees = (sp8.dist == 1.0).sum(axis=1)
    assert degrees.max() <= 8
    assert sp8.name == "Mg8"
    with pytest.raises(FamilyError):
        rf.make_margulis(1)


def test_margulis_is_translation_invariant():
    """The torus translations (x,y) -> (x+a, y+b) preserve the metric: the
    defining neighbour maps commute with them modulo n."""
    n = 3
    sp = rf.make_margulis(n)
    idx = {p: i for i, p in enumerate(sp.points)}
    for a in range(n):
        for b in range(n):
            perm = np.array([
                idx[f"{(int(p.split(',')[0]) + a) % n},{(int(p.split(',')[1]) + b) % n}"]
                for p in sp.points])
            assert np.array_equal(sp.dist[np.ix_(perm, perm)], sp.dist)


def test_box_space():
    sp = rf.make_box_space_Z([4, 8, 16])
    assert sp.name == "boxZ-4-8-16"
    assert sp.n_components == 3
    assert sp.n_points == 28
    for i, n in enumerate([4, 8, 16]):
        sub = sp.component_space(i)
        assert np.array_equal(sub.dist, rf.make_cycle(n).dist)


def test_box_space_sizes_must_grow():
    with pytest.raises(FamilyError):
        rf.make_box_space_Z([4, 4])
    with pytest.raises(FamilyError):
        rf.make_box_space_Z([8, 4])
    with pytest.raises(FamilyError):
        rf.make_box_space_Z([2, 4])
    with pytest.raises(FamilyError):
        rf.make_box_space_Z([])


@pytest.mark.parametrize("make, good", [
    (lambda v: rf.make_cycle(v), 8),
    (lambda v: rf.make_complete(v), 4),
    (lambda v: rf.make_hypercube(v), 3),
    (lambda v: rf.make_random_regular(v, 2), 6),
    (lambda v: rf.make_random_regular(6, v), 2),
    (lambda v: rf.make_margulis(v), 4),
    (lambda v: rf.make_box_space_Z([v, 5]), 3),
    (lambda v: rf.random_bounded_degree_space(v, 2), 6),
    (lambda v: rf.random_bounded_degree_space(6, v), 2),
    (lambda v: rf.make_random_regular(10, 3, seed=v), 2),
    (lambda v: rf.random_bounded_degree_space(8, 3, seed=v), 2),
], ids=["cycle", "complete", "hypercube", "rr-n", "rr-d", "margulis", "box",
        "bounded-n", "bounded-degree", "rr-seed", "bounded-seed"])
def test_family_sizes_must_be_integers(make, good):
    """A size or seed is an integer or an integral float; ``int()`` would
    have turned 8.7 into 8 and True into 1 without a word."""
    want = make(good)
    for same in (float(good), np.int64(good)):
        got = make(same)
        assert (got.name, got.points) == (want.name, want.points)
        assert_same_csr(got._graph, want._graph)
    for bad in (good + 0.7, True, float("nan"), float("inf"), str(good), None):
        with pytest.raises(FamilyError, match=f"must be an integer, got {re.escape(repr(bad))}$"):
            make(bad)


@pytest.mark.parametrize("make", [
    lambda seed: rf.make_random_regular(10, 3, seed=seed),
    lambda seed: rf.random_bounded_degree_space(8, 3, seed=seed),
], ids=["rr", "bounded"])
def test_random_families_refuse_a_negative_seed(make):
    with pytest.raises(FamilyError, match=r"^seed must be >= 0, got -1$"):
        make(-1)
    assert make(0).name.endswith("s0")


def test_random_bounded_degree_space():
    sp = rf.random_bounded_degree_space(30, 5, seed=11)
    degrees = (sp.dist == 1.0).sum(axis=1)
    assert degrees.max() <= 5
    again = rf.random_bounded_degree_space(30, 5, seed=11)
    assert np.array_equal(sp.dist, again.dist)
    empty = rf.random_bounded_degree_space(6, 3, seed=0, edge_prob=0.0)
    assert empty.n_components == 6
    with pytest.raises(FamilyError, match="^need at least one point$"):
        rf.random_bounded_degree_space(0, 3)
    with pytest.raises(FamilyError, match="^max_degree must be >= 0$"):
        rf.random_bounded_degree_space(6, -1)


def _reference_bounded_degree_edges(n, max_degree, seed, edge_prob):
    """The generator's original pair loop: the edges it keeps and the
    stream's next draw after it."""
    rng = np.random.default_rng(seed)
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    rng.shuffle(pairs)
    degree = [0] * n
    edges = []
    for u, v in pairs:
        if degree[u] < max_degree and degree[v] < max_degree and rng.random() < edge_prob:
            degree[u] += 1
            degree[v] += 1
            edges.append((u, v, 1.0))
    return edges, rng.random()


_BOUNDED_DEGREE_CASES = [
    (1, 3, 0, 0.5), (1, 0, 4, 1.0), (2, 1, 5, 1.0), (2, 0, 5, 1.0),
    (3, 2, 1, 0.5), (6, 3, 0, 0.0), (12, 0, 9, 0.5), (12, 11, 2, 1.0),
    (40, 8, 17, 1.0), (40, 39, 3, 0.5), (75, 4, 8, 0.0), (200, 8, 21, 0.5),
] + [
    (int(n), int(d), int(seed), float(p))
    for n, d, seed, p in zip(
        np.random.default_rng(2024).integers(1, 160, 18),
        np.random.default_rng(2025).integers(0, 10, 18),
        np.random.default_rng(2026).integers(0, 2**31, 18),
        np.random.default_rng(2027).choice([0.0, 0.2, 0.5, 0.9, 1.0], 18))
]


@pytest.mark.parametrize("n, max_degree, seed, edge_prob", _BOUNDED_DEGREE_CASES)
def test_random_bounded_degree_space_matches_pair_loop(monkeypatch, n, max_degree,
                                                       seed, edge_prob):
    # the generated graphs are test data throughout the suite: the numpy
    # filter must keep exactly the edges, and the draws, of the pair loop
    made = []

    def recording_rng(*args, **kwargs):
        made.append(real_rng(*args, **kwargs))
        return made[-1]

    real_rng = np.random.default_rng
    monkeypatch.setattr(np.random, "default_rng", recording_rng)
    monkeypatch.setattr(families, "space_from_graph",
                        lambda points, edges, name: (points, edges, name))
    points, edges, name = rf.random_bounded_degree_space(
        n, max_degree, seed=seed, edge_prob=edge_prob)
    monkeypatch.undo()
    want_edges, want_next = _reference_bounded_degree_edges(n, max_degree, seed, edge_prob)
    assert edges == want_edges
    assert made[0].random() == want_next
    assert points == [str(k) for k in range(n)]
    assert name == f"G{n}d{max_degree}s{seed}"


# The families' edge lists as the generators built them before they handed
# space_from_graph arrays: the reference for the graphs they must still give.

def _list_cycle_edges(n, at=0):
    return [(at + k, at + (k + 1) % n, 1.0) for k in range(n)]


def _list_margulis_edges(n):
    edges = set()
    for x in range(n):
        for y in range(n):
            src = x * n + y
            for tx, ty in (
                ((x + 2 * y) % n, y),
                ((x - 2 * y) % n, y),
                ((x + 2 * y + 1) % n, y),
                ((x - 2 * y - 1) % n, y),
                (x, (y + 2 * x) % n),
                (x, (y - 2 * x) % n),
                (x, (y + 2 * x + 1) % n),
                (x, (y - 2 * x - 1) % n),
            ):
                dst = tx * n + ty
                if dst != src:
                    edges.add((min(src, dst), max(src, dst)))
    return [(u, v, 1.0) for u, v in sorted(edges)]


def _list_random_regular_edges(n, d, seed):
    if d == 0:
        return []
    rng = np.random.default_rng(seed)
    stubs = np.repeat(np.arange(n), d)
    while True:
        rng.shuffle(stubs)
        pairs = stubs.reshape(-1, 2)
        if (pairs[:, 0] == pairs[:, 1]).any():
            continue
        canon = np.sort(pairs, axis=1)
        if len(np.unique(canon, axis=0)) == len(canon):
            return [(int(u), int(v), 1.0) for u, v in canon]


def _list_box_space(sizes):
    points = [f"C{s}:{k}" for s in sizes for k in range(s)]
    starts = np.cumsum([0] + sizes[:-1]).tolist()
    return points, [e for at, s in zip(starts, sizes) for e in _list_cycle_edges(s, at)]


def _random_regular(args):
    return rf.make_random_regular(*args)


_LIST_FAMILIES = (
    [(rf.make_margulis, n, lambda n: ([f"{x},{y}" for x in range(n) for y in range(n)],
                                      _list_margulis_edges(n)))
     for n in range(2, 41)]
    + [(rf.make_cycle, n, lambda n: ([str(k) for k in range(n)], _list_cycle_edges(n)))
       for n in range(3, 65)]
    + [(rf.make_complete, n, lambda n: ([str(k) for k in range(n)],
                                        [(u, v, 1.0) for u in range(n) for v in range(u + 1, n)]))
       for n in range(1, 13)]
    + [(rf.make_hypercube, d, lambda d: ([format(v, f"0{d}b") for v in range(1 << d)],
                                         [(v, v ^ (1 << b), 1.0) for v in range(1 << d)
                                          for b in range(d) if not v >> b & 1]))
       for d in range(1, 9)]
    + [(rf.make_box_space_Z, sizes, _list_box_space)
       for sizes in ([3], [3, 4], [4, 8, 16], [5, 9, 17, 33], [64, 128, 256, 512, 1024])]
    + [(_random_regular, args,
        lambda args: ([str(k) for k in range(args[0])], _list_random_regular_edges(*args)))
       for args in ((1, 0, 0), (10, 0, 3), (10, 3, 1), (20, 4, 2), (31, 2, 3), (64, 4, 9))]
)


@pytest.mark.parametrize("make, param, reference", _LIST_FAMILIES,
                         ids=[f"{m.__name__}-{p}" for m, p, _ in _LIST_FAMILIES])
def test_family_graphs_match_the_list_code(make, param, reference):
    space = make(param)
    points, edges = reference(param)
    assert space.points == tuple(points)
    assert_same_csr(space._graph, reference_graph(len(points), edges))


def test_family_registry():
    assert set(rf.FAMILIES) == {"cycle", "complete", "hypercube",
                                "random_regular", "margulis", "box_space_Z"}
    ctor, natural = rf.FAMILIES["cycle"]
    assert natural == "n"
    assert ctor(5).name == "C5"


def test_load_manifest_bare_members():
    fam, params, spaces = rf.load_manifest(
        json.dumps({"family": "cycle", "members": [4, 6]}))
    assert fam == "cycle"
    assert params == {}
    assert [s.name for s in spaces] == ["C4", "C6"]


def test_load_manifest_dict_members_merge_params():
    src = {"family": "random_regular", "params": {"d": 4},
           "members": [{"n": 10, "seed": 1}, {"n": 12, "seed": 2, "d": 2}]}
    fam, params, spaces = rf.load_manifest(src)
    assert [s.name for s in spaces] == ["RR10x4s1", "RR12x2s2"]
    assert params == {"d": 4}


def test_load_manifest_box_sizes():
    fam, _, spaces = rf.load_manifest(
        {"family": "box_space_Z", "members": [[4, 8], [4, 8, 16]]})
    assert [s.n_components for s in spaces] == [2, 3]


def test_load_manifest_errors():
    with pytest.raises(ManifestError):
        rf.load_manifest("{not json")
    with pytest.raises(ManifestError):
        rf.load_manifest(json.dumps({"members": [3]}))  # no family
    with pytest.raises(ManifestError):
        rf.load_manifest(json.dumps({"family": "nope", "members": [3]}))
    with pytest.raises(ManifestError):
        rf.load_manifest(json.dumps({"family": "cycle"}))  # no members
    with pytest.raises(ManifestError):
        rf.load_manifest(json.dumps({"family": "cycle", "members": []}))
    with pytest.raises(ManifestError):
        rf.load_manifest(json.dumps({"family": "cycle", "members": [{"seed": 1}]}))
    with pytest.raises(ManifestError):
        rf.load_manifest(json.dumps({"family": "cycle", "members": [2]}))
    with pytest.raises(ManifestError):
        rf.load_manifest(json.dumps([1, 2]))  # not an object
    with pytest.raises(ManifestError, match="^'params' must be an object$"):
        rf.load_manifest({"family": "cycle", "params": [8], "members": [8]})
    for members in (8, "8", None):
        with pytest.raises(ManifestError, match="^'members' must be an array$"):
            rf.load_manifest({"family": "cycle", "members": members})
    with pytest.raises(ManifestError, match="'family' must be a string"):
        rf.load_manifest(json.dumps({"family": ["margulis"], "members": [4]}))
    with pytest.raises(ManifestError, match="member 1"):
        # JSON reads 1e400 as inf, which no int holds
        rf.load_manifest('{"family": "margulis", "members": [4, 1e400]}')
    for members, bad in (([8.7], "n must be an integer, got 8.7"),
                         ([True], "n must be an integer, got True"),
                         (["8"], "n must be an integer, got '8'")):
        with pytest.raises(ManifestError, match=f"^member 0: {bad}$"):
            rf.load_manifest({"family": "cycle", "members": members})
    with pytest.raises(ManifestError, match="^member 0: cycle size must be an integer, got 3.9$"):
        rf.load_manifest({"family": "box_space_Z", "members": [[3.9, 5.5]]})
    assert [s.name for s in rf.load_manifest({"family": "cycle", "members": [16.0]})[2]] \
        == ["C16"]


def test_metric_axioms_across_families():
    for sp in (rf.make_cycle(7), rf.make_complete(5), rf.make_hypercube(3),
               rf.make_random_regular(12, 3, seed=1), rf.make_margulis(4),
               rf.make_box_space_Z([4, 8])):
        rf.check_triangle(sp)
