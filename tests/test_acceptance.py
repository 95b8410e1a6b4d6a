"""Acceptance gate: one test per shipped guarantee, at the stated tolerances.

Run with ``pytest tests/test_acceptance.py -v -s`` to get one pass/fail line
per criterion.  Budgets are wall-clock and generous on purpose; the point is
catching quadratic regressions, not micro-benchmarks.
"""

import functools
import math
import time
from fractions import Fraction

import numpy as np
import pytest

import roeforge as rf
from roeforge import FinitePropOp, PermutationOp
from roeforge import kazhdan

# Largest measured Margulis-family contraction (n = 32, 1024 points), frozen
# with headroom in the last digit.  Criterion 7 holds as long as the sweep
# stays at or under this and strictly below 1.
MARGULIS_RHO_BOUND = 0.9061


def criterion(num, slug):
    def deco(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            try:
                fn(*args, **kwargs)
            except BaseException:
                print(f"criterion {num} ({slug}): FAIL")
                raise
            print(f"criterion {num} ({slug}): PASS")
        return wrapper
    return deco


def averaging_for(space, radius=1.0):
    perms = rf.colour_permutations(rf.edge_colouring(space, radius))
    return rf.build_averaging(perms[1:] or perms[:1])


def connected_part(rng, n, name):
    """Random connected graph: a random spanning tree plus a few extras."""
    edges = [(int(rng.integers(0, i)), i, 1) for i in range(1, n)]
    for _ in range(int(rng.integers(0, n))):
        u, v = rng.integers(0, n, size=2)
        if u != v:
            edges.append((int(min(u, v)), int(max(u, v)), 1))
    if n == 1:
        return rf.space_from_graph(["0"], [], name=name)
    return rf.space_from_graph([str(i) for i in range(n)], edges, name=name)


def components_space(rng, k):
    parts = [connected_part(rng, int(rng.integers(1, 9)), f"b{i}") for i in range(k)]
    return parts[0] if k == 1 else rf.disjoint_union(parts)


@criterion(1, "component projections are exact")
def test_criterion_01_projections_exact():
    start = time.time()
    rng = np.random.default_rng(101)
    for case in range(50):
        k = int(rng.integers(1, 11))
        sp = components_space(rng, k)
        assert sp.n_components == k
        proj = rf.kazhdan_projection(sp)
        op = proj.op
        for m in range(k):
            idx = sp.component_points(m)
            size = len(idx)
            assert proj.component_value[m] == Fraction(1, size)
            for x in idx:
                for y in idx:
                    assert op.entries[(int(x), int(y))] == Fraction(1, size)
        assert op.nnz == sum(len(sp.component_points(m)) ** 2 for m in range(k))
        assert op == op.adjoint()
        assert op @ op == op
    assert time.time() - start < 5.0


@criterion(2, "translations split into coloured involutions")
def test_criterion_02_decomposition_exact():
    start = time.time()
    done = 0
    for g in range(50):
        rng = np.random.default_rng([102, g])
        n = int(rng.integers(20, 201))
        sp = rf.random_bounded_degree_space(n, 8, seed=int(rng.integers(0, 2**31)))
        radius = float(rng.integers(1, 3))
        col = rf.edge_colouring(sp, radius)
        perms = rf.colour_permutations(col)
        for p in perms:
            assert p.is_involution
            assert p.op == p.op.adjoint()
        pairs = sorted(rf.tube(sp, radius).pairs)
        for j in range(20):
            case = np.random.default_rng([102, g, j])
            order = case.permutation(len(pairs))
            mapping, used_x, used_y = {}, set(), set()
            for i in order:
                x, y = pairs[i]
                if x not in used_x and y not in used_y and case.random() < 0.5:
                    mapping[y] = x
                    used_x.add(x)
                    used_y.add(y)
            t = rf.PartialTranslation(sp, mapping)
            dec = rf.decompose_translation(t, col)
            v = t.as_operator()
            assert dec.reconstruct() == v
            assert dec.range_projection() == v @ v.adjoint()
            done += 1
    assert done >= 1000
    assert time.time() - start < 30.0


@criterion(3, "tube graphs take at most max-degree-plus-one colours")
def test_criterion_03_colouring_bound():
    start = time.time()
    for g in range(100):
        rng = np.random.default_rng([103, g])
        n = int(rng.integers(10, 501))
        sp = rf.random_bounded_degree_space(n, 8, seed=int(rng.integers(0, 2**31)))
        col = rf.edge_colouring(sp, 1)
        rf.validate_colouring(col)
        assert col.n_colours <= col.max_degree + 1
    assert time.time() - start < 10.0


@criterion(4, "power curve equals gap powers, exactly then in float")
def test_criterion_04_power_identity():
    rng = np.random.default_rng(104)
    for case in range(50):
        k_comp = int(rng.integers(1, 4))
        sp = components_space(rng, k_comp)
        avg = averaging_for(sp)
        proj = rf.kazhdan_projection(sp)
        gap = avg.op - proj.op
        a_pow, gap_pow = avg.op, gap
        for k in range(1, 21):
            assert a_pow - proj.op == gap_pow
            if k in (1, 7, 20):
                assert rf.power_gap(avg, proj, k) == gap_pow
            if k < 20:
                a_pow = a_pow @ avg.op
                gap_pow = gap_pow @ gap

        rep = rf.gap_report(avg, proj, kmax=1)
        rho = rep.max_rho
        m = gap.to_float().to_dense().real
        acc = np.eye(sp.n_points)
        for k in range(1, 41):
            acc = acc @ m
            norm = np.linalg.norm(acc, 2)
            assert abs(norm - rho**k) <= 1e-8 * rho**k + 1e-12


@criterion(5, "decay constants reproduce their closed forms")
def test_criterion_05_rate_constants():
    for n in (1, 2, 3, 5, 8, 32):
        cs = {2 * n, n, 1, 0.25, 1.75, 2 * n - 1e-9}
        for c in sorted(float(c) for c in cs if 0 < c <= 2 * n):
            rc = rf.rate_constants(c, n)
            delta = math.sqrt(1.0 - (c / (2 * n)) ** 2)
            assert rc.delta == delta
            assert rc.delta_tilde == 1.0 - (1.0 - delta) / n
            assert rc.delta_tilde < 1.0
    assert rf.rate_constants(2, 1) == (0.0, 0.0)


@criterion(6, "cycle and complete-graph gaps match closed forms")
def test_criterion_06_exact_spectra():
    for n in (8, 64, 512, 4096):
        sp = rf.make_cycle(n)
        col = rf.edge_colouring(sp, 1)
        assert col.n_colours == 2  # even cycles split into two matchings
        avg = rf.build_averaging(rf.colour_permutations(col)[1:])
        rep = rf.gap_report(avg, rf.kazhdan_projection(sp), kmax=1)
        (comp,) = rep.components
        assert comp.spectral.method == ("shift-invert" if n > kazhdan._BANDED_FROM else "dense")
        want = 0.5 + math.cos(2 * math.pi / n) / 2
        assert abs(comp.rho - want) <= 1e-9

    k4 = rf.make_complete(4)
    rep = rf.gap_report(averaging_for(k4), rf.kazhdan_projection(k4), kmax=1)
    assert rep.components[0].spectral.method == "dense"
    assert abs(rep.max_rho - 1 / 3) <= 1e-12


def margulis_sweep():
    out = {}
    for n in (4, 8, 16, 32):
        sp = rf.make_margulis(n)
        rep = rf.gap_report(averaging_for(sp), rf.kazhdan_projection(sp), kmax=1)
        out[n] = rep.max_rho
    return out


@criterion(7, "expanders keep a uniform gap, the box space loses it")
def test_criterion_07_family_separation():
    start = time.time()
    sizes = [4 * 2**i for i in range(9)]  # 4 .. 1024
    box = rf.make_box_space_Z(sizes)
    rep = rf.gap_report(averaging_for(box), rf.kazhdan_projection(box), kmax=1)
    rhos = [c.rho for c in rep.components]
    assert all(a < b for a, b in zip(rhos, rhos[1:]))
    assert rhos[-1] > 0.99

    first = margulis_sweep()
    second = margulis_sweep()
    assert first == second  # seeded solvers, bit-for-bit stable
    assert max(first.values()) <= MARGULIS_RHO_BOUND < 1.0
    assert time.time() - start < 120.0


@criterion(8, "component restriction is an exact *-homomorphism")
def test_criterion_08_restriction_homomorphism():
    from helpers import random_rational_op, random_space
    rng = np.random.default_rng(108)
    for case in range(20):
        sp = random_space(rng)
        s = random_rational_op(rng, sp, density=0.5)
        t = random_rational_op(rng, sp, density=0.5)
        p = rf.kazhdan_projection(sp).op
        for m in range(sp.n_components):
            sub = sp.component_space(m)
            assert rf.restrict(FinitePropOp.identity(sp), m) == FinitePropOp.identity(sub)
            assert rf.restrict(s + t, m) == rf.restrict(s, m) + rf.restrict(t, m)
            assert rf.restrict(s @ t, m) == rf.restrict(s, m) @ rf.restrict(t, m)
            assert rf.restrict(s.adjoint(), m) == rf.restrict(s, m).adjoint()
            assert rf.restrict(p, m) == rf.kazhdan_projection(sub).op


def projector_onto(columns):
    q, _ = np.linalg.qr(columns)
    return q @ q.T


def brute_force_invariants(space):
    """Null space of the fixed-vector conditions over every matrix unit
    supported on a finite-distance pair -- a spanning set of the algebra."""
    n = space.n_points
    rows = []
    for x in range(n):
        for y in range(n):
            if not np.isfinite(space.dist[x, y]):
                continue
            t = np.zeros((n, n))
            t[x, y] = 1.0
            phi = np.diag(t.sum(axis=1))
            rows.append(phi - t)
    m = np.vstack(rows)
    _, svals, vt = np.linalg.svd(m)
    rank = int(np.sum(svals > 1e-9 * svals[0]))
    return vt[rank:].T


@criterion(9, "averaged invariance pins down the constant vectors")
def test_criterion_09_invariant_vectors():
    from helpers import random_space
    rng = np.random.default_rng(109)
    for case in range(20):
        sp = random_space(rng, max_points=12)
        family = [t.as_operator() for t in rf.single_pair_translations(sp)]
        family += [p.op for p in rf.colour_permutations(rf.edge_colouring(sp, 1))]
        got = rf.invariant_subspace_basis(sp, ops=family)
        oracle = brute_force_invariants(sp)
        expected = np.stack([
            (sp.component_of == m).astype(float) / math.sqrt(len(sp.component_points(m)))
            for m in range(sp.n_components)], axis=1)
        assert got.shape == (sp.n_points, sp.n_components)
        assert oracle.shape == got.shape
        p_got = projector_onto(got)
        assert np.allclose(p_got, projector_onto(oracle), atol=1e-8)
        assert np.allclose(p_got, projector_onto(expected), atol=1e-8)
