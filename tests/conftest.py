"""Shared builders for randomised tests.

Everything is driven by explicit numpy Generators so failures reproduce
from the printed seed alone.
"""

import tracemalloc
from fractions import Fraction

import numpy as np
import scipy.sparse as sp

import roeforge as rf


def random_space(rng, max_points=12, max_blocks=3, max_degree=4):
    """A small metric space, sometimes with several coarse components."""
    n_blocks = int(rng.integers(1, max_blocks + 1))
    parts = []
    for b in range(n_blocks):
        n = int(rng.integers(2, max(3, max_points // n_blocks) + 1))
        parts.append(rf.random_bounded_degree_space(
            n, max_degree, seed=int(rng.integers(0, 2**31)), name=f"b{b}"))
    if n_blocks == 1:
        return parts[0]
    return rf.disjoint_union(parts)


def random_rational_op(rng, space, radius=None, density=0.3):
    """Random finite-propagation operator with small Fraction entries."""
    if radius is None:
        radius = float(rng.integers(1, 3))
    pairs = sorted(rf.tube(space, radius).pairs)
    entries = {}
    for x, y in pairs:
        if rng.random() < density:
            num = int(rng.integers(-6, 7))
            den = int(rng.integers(1, 5))
            if num:
                entries[(x, y)] = Fraction(num, den)
    return rf.FinitePropOp(space, entries)


def random_translation(rng, space, radius=1.0, keep=0.6):
    """Random injective partial translation supported in a tube."""
    pairs = sorted(rf.tube(space, radius).pairs)
    order = rng.permutation(len(pairs))
    mapping, used_x, used_y = {}, set(), set()
    for i in order:
        x, y = pairs[i]
        if x in used_x or y in used_y:
            continue
        if rng.random() < keep:
            mapping[y] = x
            used_x.add(x)
            used_y.add(y)
    return rf.PartialTranslation(space, mapping)


def spectral_norm(mat):
    """Dense 2-norm oracle used to cross-check the library's solvers."""
    return float(np.linalg.norm(np.asarray(mat, dtype=float), 2))


def traced_peak(fn, *args, **kwargs):
    """``(fn(*args, **kwargs), peak)``: the call's result and the most bytes
    traced by tracemalloc while it ran (numpy arrays included)."""
    tracemalloc.start()
    try:
        result = fn(*args, **kwargs)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return result, peak


def reference_graph(n, edges):
    """The CSR graph of ``space_from_graph`` as its per-edge dict loop built
    it: the lightest of each pair's parallel edges, self-loops dropped."""
    best = {}
    for u, v, w in edges:
        assert 0 <= u < n and 0 <= v < n and w > 0
        if u == v:
            continue
        key = (u, v) if u < v else (v, u)
        if w < best.get(key, float("inf")):
            best[key] = float(w)
    rows = np.fromiter((k[0] for k in best), dtype=np.int64, count=len(best))
    cols = np.fromiter((k[1] for k in best), dtype=np.int64, count=len(best))
    vals = np.fromiter(best.values(), dtype=float, count=len(best))
    return sp.csr_matrix((np.concatenate([vals, vals]),
                          (np.concatenate([rows, cols]), np.concatenate([cols, rows]))),
                         shape=(n, n))


def assert_same_csr(got, want):
    """Equal byte for byte: shape, and indptr, indices and data with their dtypes."""
    assert got.shape == want.shape
    for part in ("indptr", "indices", "data"):
        a, b = getattr(got, part), getattr(want, part)
        assert a.dtype == b.dtype and a.tobytes() == b.tobytes(), part
