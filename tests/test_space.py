import textwrap
from fractions import Fraction
from functools import partial

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import roeforge as rf
from roeforge import SpaceParseError

from helpers import assert_same_csr, reference_graph

INF = float("inf")


def test_finite_space_basics():
    sp = rf.make_cycle(4)
    assert sp.n_points == 4
    assert len(sp) == 4
    assert sp.points == ("0", "1", "2", "3")
    assert sp.index_of("2") == 2
    assert sp.dist[0, 2] == 2.0
    assert "C4" in repr(sp)


def test_distance_matrix_is_read_only():
    sp = rf.make_cycle(3)
    with pytest.raises(ValueError):
        sp.dist[0, 1] = 7.0


def test_construction_rejects_bad_matrices():
    with pytest.raises(ValueError):
        rf.FiniteSpace(["a", "b"], [[0, 1], [2, 0]])  # not symmetric
    with pytest.raises(ValueError):
        rf.FiniteSpace(["a", "b"], [[0, -1], [-1, 0]])  # negative
    with pytest.raises(ValueError):
        rf.FiniteSpace(["a", "b"], [[1, 1], [1, 0]])  # nonzero diagonal
    with pytest.raises(ValueError):
        rf.FiniteSpace(["a", "b"], [[0, float("nan")], [float("nan"), 0]])
    with pytest.raises(ValueError):
        rf.FiniteSpace(["a", "a"], [[0, 1], [1, 0]])  # duplicate names
    with pytest.raises(ValueError):
        rf.FiniteSpace([], np.zeros((0, 0)))


def test_finiteness_must_be_transitive():
    # d(a,b) and d(b,c) finite forces d(a,c) finite
    d = [[0, 1, INF], [1, 0, 1], [INF, 1, 0]]
    with pytest.raises(ValueError):
        rf.FiniteSpace(["a", "b", "c"], d)


def test_component_structure():
    sp = rf.disjoint_union([rf.make_cycle(3), rf.make_complete(2)])
    assert sp.n_components == 2
    assert list(sp.component_of) == [0, 0, 0, 1, 1]
    assert list(sp.component_points(1)) == [3, 4]
    sub = sp.component_space(1)
    assert sub.n_points == 2
    assert sub.dist[0, 1] == 1.0
    # memoised: repeated extraction returns the same object
    assert sp.component_space(1) is sub


def test_disjoint_union_qualifies_names():
    sp = rf.disjoint_union([rf.make_cycle(3), rf.make_complete(2)])
    assert sp.points[0] == "C3:0"
    assert sp.points[3] == "K2:0"
    assert sp.dist[0, 3] == INF


def test_space_from_graph_distances():
    # path a-b-c: shortest paths, not direct edges
    sp = rf.space_from_graph(["a", "b", "c"], [(0, 1, 1), (1, 2, 1)], name="path")
    assert sp.dist[0, 2] == 2.0
    # duplicate edges keep the smaller weight; self loops are ignored
    sp2 = rf.space_from_graph(["a", "b"], [(0, 1, 5), (0, 1, 2), (0, 0, 9)])
    assert sp2.dist[0, 1] == 2.0


def test_space_from_graph_rejects_bad_indices():
    with pytest.raises(ValueError):
        rf.space_from_graph(["a"], [(0, 1, 1)])


def test_space_from_graph_reports_the_first_bad_edge():
    points = ["a", "b"]
    with pytest.raises(ValueError, match=r"^edge \(0, 1\) has non-positive weight -1\.0$"):
        rf.space_from_graph(points, [(0, 1, -1), (0, 9, 1)])
    with pytest.raises(ValueError, match=r"^edge \(0, 9\) out of range for 2 points$"):
        rf.space_from_graph(points, [(0, 9, 1), (0, 1, -1)])
    # within one edge the range check comes first
    with pytest.raises(ValueError, match="out of range"):
        rf.space_from_graph(points, np.array([[0, -1, -1.0]]))
    with pytest.raises(ValueError, match="non-positive weight nan"):
        rf.space_from_graph(points, [(0, 0, float("nan"))])


@pytest.mark.parametrize("seed", range(12))
def test_space_from_graph_matches_the_dict_loop(seed):
    # repeated pairs in both orientations, uneven weights and self-loops,
    # as a list, a generator and shuffled (m, 3) arrays
    rng = np.random.default_rng([77, seed])
    n = int(rng.integers(1, 40))
    m = int(rng.integers(0, 4 * n + 1))
    weights = rng.choice([1.0, 0.5, 2.0, 0.1, 0.7, 3.3], size=m)
    edges = [(int(u), int(v), float(w))
             for u, v, w in zip(rng.integers(0, n, m), rng.integers(0, n, m), weights)]
    edges += [(v, u, w + 0.25) for u, v, w in edges[:m // 3]]
    want = reference_graph(n, edges)
    points = [f"p{k}" for k in range(n)]
    for given in (edges, iter(edges), np.array(edges).reshape(-1, 3),
                  np.array(edges).reshape(-1, 3)[rng.permutation(len(edges))]):
        assert_same_csr(rf.space_from_graph(points, given)._graph, want)


def test_max_ball_size_and_diameter():
    sp = rf.make_cycle(6)
    assert sp.max_ball_size(1) == 3  # centre plus two neighbours
    assert sp.finite_diameter() == 3.0


def test_check_triangle():
    rf.check_triangle(rf.make_cycle(5))  # graph metrics always pass
    bad = rf.FiniteSpace(["a", "b", "c"], [[0, 1, 3], [1, 0, 1], [3, 1, 0]])
    with pytest.raises(ValueError):
        rf.check_triangle(bad)


def test_tube_contents():
    sp = rf.make_cycle(4)
    t0 = rf.tube(sp, 0)
    assert t0.pairs == frozenset((i, i) for i in range(4))
    t1 = rf.tube(sp, 1)
    assert (0, 1) in t1 and (1, 0) in t1 and (0, 2) not in t1
    assert len(t1) == 12
    assert t1.diameter == 1.0


def test_controlled_set_validation():
    sp = rf.disjoint_union([rf.make_cycle(3), rf.make_complete(2)])
    with pytest.raises(ValueError):
        rf.controlled(sp, [(0, 3)])  # crosses components: infinite distance
    with pytest.raises(ValueError):
        rf.controlled(sp, [(0, 99)])


def test_controlled_set_operations():
    sp = rf.make_cycle(6)
    e = rf.controlled(sp, [(0, 1), (2, 5)])
    assert e.transpose().pairs == frozenset([(1, 0), (5, 2)])
    assert e.issubset(rf.tube(sp, 3))
    assert not e.issubset(rf.tube(sp, 1))


def test_compose_tubes():
    """Composing radius-1 tubes reaches exactly the radius-2 tube on a cycle."""
    sp = rf.make_cycle(6)
    t1 = rf.tube(sp, 1)
    assert rf.compose(t1, t1).pairs == rf.tube(sp, 2).pairs


def test_compose_definition():
    sp = rf.make_cycle(5)
    e = rf.controlled(sp, [(0, 1)])
    f = rf.controlled(sp, [(1, 2)])
    assert rf.compose(e, f).pairs == frozenset([(0, 2)])
    assert rf.compose(f, e).pairs == frozenset()


def test_coarse_components_listing():
    sp = rf.disjoint_union([rf.make_complete(2), rf.make_complete(3)])
    assert rf.coarse_components(sp) == [[0, 1], [2, 3, 4]]


def test_is_generating_cycle():
    sp = rf.make_cycle(6)
    res = rf.is_generating(sp, rf.tube(sp, 1))
    assert res.status == "generating"
    assert res.n == 3  # compositions needed to cover the diameter


def test_is_generating_certified_failure():
    # only the distance-1 pairs of C4 without the diagonal never produce
    # even-distance pairs at odd powers -- but with the diagonal included a
    # proper subset of the tube can still fail; drop one orbit entirely
    sp = rf.make_cycle(4)
    odd = rf.controlled(sp, [(i, j) for i in range(4) for j in range(4)
                             if sp.dist[i, j] == 1])
    res = rf.is_generating(sp, odd)
    assert res.status == "not_generating"
    assert res.n is None


def test_is_generating_respects_n_max():
    sp = rf.make_cycle(12)
    res = rf.is_generating(sp, rf.tube(sp, 1), n_max=2)
    assert res.status == "inconclusive"


def test_parse_space_file_single_block():
    text = textwrap.dedent("""\
        # a triangle with one heavy edge
        space tri
        edge a b 1
        edge b c 1
        edge a c 3/2
        """)
    sp = rf.parse_space_file(text)
    assert sp.name == "tri"
    assert sp.points == ("a", "b", "c")
    assert sp.dist[sp.index_of("a"), sp.index_of("c")] == 1.5


def test_parse_space_file_isolated_point():
    sp = rf.parse_space_file("space s\nedge a b\npoint z\n")
    assert sp.dist[sp.index_of("a"), sp.index_of("z")] == INF


def test_parse_space_file_multiple_blocks():
    sp = rf.parse_space_file("space x\nedge a b\n\nspace y\nedge a b\n")
    assert sp.n_components == 2
    assert sp.points == ("x:a", "x:b", "y:a", "y:b")


def test_parse_space_file_error_lines():
    with pytest.raises(SpaceParseError) as err:
        rf.parse_space_file("space s\nedge a\n")
    assert err.value.line == 2
    with pytest.raises(SpaceParseError) as err:
        rf.parse_space_file("edge a b\n")
    assert err.value.line == 1  # edge before any space header
    with pytest.raises(SpaceParseError):
        rf.parse_space_file("space s\nspace s\nedge a b\n")  # duplicate name
    with pytest.raises(SpaceParseError):
        rf.parse_space_file("space s\n")  # block with no points
    with pytest.raises(SpaceParseError) as err:
        rf.parse_space_file("space s\nedge a b 0\n")
    assert err.value.line == 2  # weights must be positive
    with pytest.raises(SpaceParseError, match="bad edge weight '1e400'") as err:
        rf.parse_space_file("space s\nedge a b 1\nedge b c 1e400\n")
    assert err.value.line == 3  # no float holds the weight


def test_load_space(tmp_path):
    p = tmp_path / "two.space"
    p.write_text("space two\nedge u v 2\n")
    sp = rf.load_space(p)
    assert sp.name == "two"
    assert sp.dist[0, 1] == 2.0


# -- property-based checks ---------------------------------------------------

def _space_from_seed(seed, n):
    rng = np.random.default_rng(seed)
    return rf.random_bounded_degree_space(n, 4, seed=int(rng.integers(0, 2**31)))


@settings(deadline=None, max_examples=60)
@given(st.integers(0, 10**6), st.integers(2, 9),
       st.integers(0, 3), st.integers(0, 3))
def test_tube_composition_is_controlled_by_sum(seed, n, r1, r2):
    """Tube(r1) o Tube(r2) always lands inside Tube(r1 + r2)."""
    sp = _space_from_seed(seed, n)
    comp = rf.compose(rf.tube(sp, r1), rf.tube(sp, r2))
    assert comp.issubset(rf.tube(sp, r1 + r2))


@settings(deadline=None, max_examples=60)
@given(st.integers(0, 10**6), st.integers(2, 9), st.integers(0, 3))
def test_tube_monotone_and_diameter_bounded(seed, n, r):
    sp = _space_from_seed(seed, n)
    t = rf.tube(sp, r)
    assert t.issubset(rf.tube(sp, r + 1))
    assert t.diameter <= r


# -- graph-backed spaces against the dense metric of the same graph ------------

WEIGHTS = (0.25, 0.5, 1.0, 1.5, 2.0)  # dyadic: every path sum is exact
# path sums round, so algorithms that add in another order can differ in the last bit
UNEVEN_WEIGHTS = (0.1, 0.2, 0.3, 0.7, 1.1, 1 / 3)


@st.composite
def graph_parts(draw):
    weights = draw(st.sampled_from([WEIGHTS, UNEVEN_WEIGHTS]))
    parts = []
    for _ in range(draw(st.integers(1, 3))):
        n = draw(st.integers(1, 8))
        edge = st.tuples(st.integers(0, n - 1), st.integers(0, n - 1), st.sampled_from(weights))
        parts.append((n, draw(st.lists(edge, max_size=2 * n))))
    return weights, parts


@settings(deadline=None, max_examples=200)
@given(graph_parts(), st.sampled_from([1, 5, 20, 1 << 20]), st.integers(1, 3))
def test_graph_backed_space_matches_dense_metric(weighted_parts, chunk, stride):
    from scipy.sparse.csgraph import dijkstra, shortest_path

    from roeforge import space as space_mod
    from roeforge.space import support_diameter

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(space_mod, "_CHUNK", chunk)  # several chunks for all but the largest
        weights, parts = weighted_parts
        built = [rf.space_from_graph([str(i) for i in range(n)], edges, name=f"b{b}")
                 for b, (n, edges) in enumerate(parts)]
        g = built[0] if len(built) == 1 else rf.disjoint_union(built)
        # any algorithm is exact on dyadic weights; on others, every
        # distance must be the one Dijkstra's algorithm gives from the
        # smaller index of the pair
        d = (shortest_path(g._graph, directed=False) if weights is WEIGHTS
             else dijkstra(g._graph))
        d = np.triu(d) + np.triu(d, k=1).T
        n = g.n_points

        oracle = rf.FiniteSpace(g.points, d, name=g.name)
        assert np.array_equal(g.component_of, oracle.component_of)
        assert g.n_components == oracle.n_components
        for r in (0, 0.6, 1, 1.5, 2):
            inside = d <= r
            t = rf.tube(g, r)
            assert t.pairs == {(int(x), int(y)) for x, y in np.argwhere(inside)}
            assert t.diameter == d[inside].max()
            assert rf.tube_graph_edges(g, r) == [
                (int(u), int(v)) for u, v in np.argwhere(np.triu(inside, k=1))]
            assert g.max_ball_size(r) == inside.sum(axis=1).max()
        # a query with a finite radius never builds the matrix, whatever the size
        assert g._dist is None
        assert g.finite_diameter() == d[np.isfinite(d)].max()

        rows, cols = np.nonzero(g.component_of[:, None] == g.component_of[None, :])
        rows, cols = rows[::stride], cols[::stride]
        assert support_diameter(g, rows, cols) == d[rows, cols].max()
        if g.n_components > 1:
            far = int(g.component_points(1)[0])
            with pytest.raises(rf.UncontrolledSupportError) as err:
                support_diameter(g, [0, 0], [0, far])
            assert str(err.value) == (f"pair ({g.points[0]}, {g.points[far]}) "
                                      "connects points at infinite distance")
        with pytest.raises(ValueError, match=f"out of range for {n} points"):
            support_diameter(g, [0], [n])

        for m in range(g.n_components):
            idx = g.component_points(m)
            sub = g.component_space(m)
            assert sub.points == tuple(g.points[i] for i in idx)
            assert sub.n_components == 1
            assert np.array_equal(sub.dist, d[np.ix_(idx, idx)])

        # after the unbounded queries, only a space that fits in one chunk
        # has built its matrix
        assert (g._dist is None) == (n * n > chunk)
        assert np.array_equal(g.dist, d)
        assert not g.dist.flags.writeable


@pytest.mark.parametrize("share", [0.0, None, INF], ids=["rows", "measured", "sparse"])
@settings(deadline=None, max_examples=100)
@given(graph_parts(), st.sampled_from([5, 40, 1 << 20]), st.integers(1, 4))
def test_tube_queries_match_dijkstra_on_both_sides(share, weighted_parts, chunk, isolated):
    """Bounded queries on a graph search sparsely or take Dijkstra rows, run
    by run of sources; either way every pair and distance is the one
    Dijkstra's search from the smaller index gives, bit for bit.  A share
    of 0 sends every run with an edge to rows, INF keeps runs sparse unless
    they hold more than a chunk, and the measured share lets the size of
    each tube decide."""
    from scipy.sparse.csgraph import dijkstra

    from roeforge import space as space_mod

    weights, parts = weighted_parts
    parts = parts + [(isolated, [])]       # a part with no edges
    built = [rf.space_from_graph([str(i) for i in range(n)], edges, name=f"b{b}")
             for b, (n, edges) in enumerate(parts)]
    g = rf.disjoint_union(built)
    d = dijkstra(g._graph)
    d = np.triu(d) + np.triu(d, k=1).T
    widest = max(float(s.dist[np.isfinite(s.dist)].max()) for s in built)
    lightest = g._graph.data.min() if g._graph.nnz else min(weights)
    radii = (0.0, lightest / 2, lightest, 0.35, 0.75 * widest, widest)

    sides = {"sparse": 0, "rows": 0}
    search, rows_of = space_mod._ball_search, space_mod.dijkstra

    def counted_search(*args):
        found = search(*args)
        sides["sparse"] += found is not None
        return found

    def counted_rows(*args, **kwargs):
        sides["rows"] += 1
        return rows_of(*args, **kwargs)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(space_mod, "_CHUNK", chunk)
        if share is not None:
            mp.setattr(space_mod, "_DENSE_SHARE", share)
        mp.setattr(space_mod, "_ball_search", counted_search)
        mp.setattr(space_mod, "dijkstra", counted_rows)
        for r in radii:
            sides.update(sparse=0, rows=0)
            inside = d <= r
            rows, cols, dists = g.pairs_within(r)
            want_rows, want_cols = np.nonzero(inside)
            assert np.array_equal(rows, want_rows) and np.array_equal(cols, want_cols)
            assert np.array_equal(dists, d[want_rows, want_cols])
            assert rf.tube_graph_edges(g, r) == [
                (int(u), int(v)) for u, v in np.argwhere(np.triu(inside, k=1))]
            assert g.max_ball_size(r) == inside.sum(axis=1).max()
            reaches_an_edge = r >= lightest and g._graph.nnz > 0
            if share == 0.0 and reaches_an_edge:
                assert sides["rows"] > 0
            if (share == INF and chunk == 1 << 20) or not reaches_an_edge:
                assert sides["rows"] == 0 and sides["sparse"] > 0
    assert g._dist is None


@pytest.mark.parametrize("make, n_edges, n_colours", [
    (lambda: rf.make_box_space_Z([64, 128, 256, 512, 1024]), 1984, 2),
    (lambda: rf.make_margulis(32), 3904, 9),
], ids=["box", "Mg32"])
def test_box_space_colouring_builds_no_dense_metric(make, n_edges, n_colours):
    from helpers import traced_peak
    from roeforge.space import _CHUNK

    def build():
        space = make()
        return space, rf.edge_colouring(space, 1)

    (space, col), peak = traced_peak(build)
    assert len(col.edges) == n_edges and col.n_colours == n_colours
    assert space._dist is None
    n = space.n_points
    if n * n > _CHUNK:
        # one 1984 x 1984 float matrix is 31.5 MB; building it densely
        # peaked at 148.7 MB.  A matrix that fits in one chunk of rows is
        # no larger than that chunk, so the peak cannot tell them apart.
        assert peak < n * n * 8


def test_spaces_above_the_size_limit_are_refused_up_front():
    from roeforge.space import MAX_POINTS

    over = MAX_POINTS + 1
    for n, build in ((over, lambda: rf.make_cycle(over)),
                     (1025 * 1025, lambda: rf.make_margulis(1025)),
                     (over, lambda: rf.make_box_space_Z([3, over - 3])),
                     (over, lambda: rf.space_from_graph(range(over), []))):
        with pytest.raises(MemoryError, match=f"^Unable to allocate a space of {n} points"):
            build()


def test_nan_radius_is_rejected():
    sp = rf.make_cycle(5)
    for call in (sp.pairs_within, sp.max_ball_size, partial(rf.tube, sp),
                 partial(rf.tube_graph_edges, sp), partial(rf.edge_colouring, sp)):
        with pytest.raises(ValueError, match="radius"):
            call(float("nan"))
    # an infinite radius is still a tube: every pair in a component
    assert rf.edge_colouring(sp, INF).max_degree == 4
