import contextlib
import io
import json
import math
import re
import threading
import time
from dataclasses import replace
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from scipy.sparse import csr_matrix

import roeforge as rf
from roeforge import (
    FinitePropOp,
    GapBoundError,
    GapComputationError,
    PermutationOp,
    SpaceMismatchError,
    SpectralError,
)
from roeforge import kazhdan, spectral
from roeforge.cli import main
from roeforge.kazhdan import EXACT_POWER_CAP
from roeforge.spectral import dense_power_norms, matvec_power_norm
from helpers import random_rational_op, random_space, random_translation, spectral_norm


def route_above(monkeypatch, n):
    """Make gap_report send every component of more than ``n`` points to
    the band test, and solve one with no band densely only up to ``n``."""
    monkeypatch.setattr(kazhdan, "_BANDED_FROM", n)
    monkeypatch.setattr(kazhdan, "DENSE_CUTOFF", n)


def averaging_for(space, radius=1.0):
    col = rf.edge_colouring(space, radius)
    perms = rf.colour_permutations(col)[1:]
    if not perms:
        perms = [PermutationOp.identity(space)]
    return rf.build_averaging(perms)


def test_averaging_on_c4_is_explicit():
    """Two matchings on the 4-cycle give A = I/2 + (S1 + S2)/4 exactly."""
    sp = rf.make_cycle(4)
    perms = rf.colour_permutations(rf.edge_colouring(sp, 1))
    avg = rf.build_averaging(perms[1:])
    expected = (Fraction(1, 2) * FinitePropOp.identity(sp)
                + Fraction(1, 4) * perms[1].op + Fraction(1, 4) * perms[2].op)
    assert avg.op == expected
    assert avg.n == 2
    assert rf.uniform_sum_value(avg.op) == 1


def test_averaging_validation():
    sp = rf.make_cycle(4)
    with pytest.raises(ValueError):
        rf.build_averaging([])
    with pytest.raises(ValueError):
        rf.build_averaging([PermutationOp(sp, [1, 2, 0, 3])])  # not an involution
    with pytest.raises(SpaceMismatchError):
        rf.build_averaging([PermutationOp.identity(sp),
                            PermutationOp.identity(rf.make_cycle(5))])


def test_averaging_is_doubly_stochastic_psd():
    rng = np.random.default_rng(1)
    for _ in range(10):
        sp = random_space(rng)
        avg = averaging_for(sp)
        op = avg.op
        assert op == op.adjoint()
        assert rf.uniform_sum_value(op) == 1
        for x in range(sp.n_points):
            assert op.entries.get((x, x), 0) >= Fraction(1, 2)
        w = np.linalg.eigvalsh(op.to_dense().astype(float))
        assert w.min() >= -1e-12


def _fraction_loop_averaging(perms):
    """The reference: every entry of A counted in a dict and made a Fraction."""
    space, n = perms[0].space, len(perms)
    hits = {(i, i): n for i in range(space.n_points)}
    for p in perms:
        for y, x in enumerate(p.perm.tolist()):
            hits[(x, y)] = hits.get((x, y), 0) + 1
    return FinitePropOp(space, {k: Fraction(c, 2 * n) for k, c in hits.items()})


@pytest.mark.parametrize("make", [
    *(lambda m=m: rf.make_margulis(m) for m in (4, 8, 16, 24, 32)),
    lambda: rf.make_box_space_Z([64, 128, 256, 512, 1024]),
    lambda: rf.make_cycle(5),
    lambda: rf.make_complete(1),
    lambda: rf.make_complete(2),
    *(lambda seed=seed: random_space(np.random.default_rng(seed)) for seed in range(5)),
], ids=["Mg4", "Mg8", "Mg16", "Mg24", "Mg32", "box", "C5", "K1", "K2",
        *(f"random{seed}" for seed in range(5))])
def test_averaging_counts_match_fraction_loop(make):
    """The float matrix divides the integer counts exactly: its arrays equal,
    bit for bit, those of the Fraction operator's to_csr(); a permutation
    listed twice gives counts of 2."""
    sp = make()
    perms = averaging_for(sp).perms
    for listed in (perms, perms + perms[:1]):
        avg = rf.build_averaging(listed)
        ref = _fraction_loop_averaging(listed)
        want = ref.to_csr()
        for attr in ("indptr", "indices", "data"):
            got, exp = getattr(avg.csr, attr), getattr(want, attr)
            assert got.dtype == exp.dtype and got.tobytes() == exp.tobytes()
        assert avg.op == ref
        assert avg == rf.build_averaging(listed)
    if np.any(perms[0].perm != np.arange(sp.n_points)):
        assert 2 in rf.build_averaging(perms + perms[:1]).counts


def test_dense_gap_report_builds_no_exact_operator():
    sp = rf.make_margulis(16)
    avg = averaging_for(sp)
    rep = rf.gap_report(avg, kmax=4)
    assert {c.spectral.method for c in rep.components} == {"dense"}
    assert "op" not in vars(avg)


def test_shift_invert_gap_report_builds_no_exact_operator(monkeypatch):
    # two shift-invert components: both seeds come from their float
    # blocks, and the one operator made is the float matrix's, built on
    # the calling thread
    sp = rf.disjoint_union([rf.make_cycle(12), rf.make_cycle(14)])
    avg = averaging_for(sp)
    built = []
    real = FinitePropOp._store

    def recording(self, space, entries, mode):
        built.append((mode, threading.current_thread()))
        return real(self, space, entries, mode)

    monkeypatch.setattr(FinitePropOp, "_store", recording)
    route_above(monkeypatch, 8)
    rep = rf.gap_report(avg, kmax=4)
    assert {c.spectral.method for c in rep.components} == {"shift-invert"}
    assert built == [(rf.MODE_FLOAT, threading.current_thread())]
    assert "op" not in vars(avg)


@pytest.mark.parametrize("make, method, rho, old_rho, seed", [
    (lambda: rf.make_cycle(600), "shift-invert", "0.9999725846827562",
     0.9999725846827522, 12455843931947484246),
    (lambda: rf.make_margulis(24), "iterative", "0.90175996565822",
     0.9017599656582211, 13196515309567691339),
], ids=["C600", "Mg24"])
def test_iterative_rho_and_seed_are_pinned(make, method, rho, old_rho, seed):
    """Non-dense solves seed from the bytes of the component's float block.

    ``old_rho`` is the value pinned when both took four-Ritz-pair Lanczos."""
    sp = make()
    avg = averaging_for(sp)
    (comp,) = rf.gap_report(avg, kmax=1).components
    assert comp.spectral.method == method
    assert repr(comp.rho) == rho and comp.spectral.seed == seed
    assert abs(comp.rho - old_rho) <= 1e-12
    assert "op" not in vars(avg)


def test_projection_entries_are_component_means():
    sp = rf.disjoint_union([rf.make_cycle(3), rf.make_complete(4)])
    op = rf.kazhdan_projection(sp)
    for x in range(3):
        for y in range(3):
            assert op.entries[(x, y)] == Fraction(1, 3)
    assert (0, 3) not in op.entries


def test_projection_is_an_exact_projection():
    sp = rf.disjoint_union([rf.make_cycle(3), rf.make_complete(2)])
    p = rf.kazhdan_projection(sp)
    assert p == p.adjoint()
    assert p @ p == p


def test_averaging_fixes_projection():
    sp = rf.make_cycle(6)
    avg = averaging_for(sp)
    p = rf.kazhdan_projection(sp)
    assert avg.op @ p == p
    assert p @ avg.op == p


def test_restrict_is_a_unital_star_homomorphism():
    rng = np.random.default_rng(9)
    sp = rf.disjoint_union([rf.make_cycle(4), rf.make_complete(3)])
    from helpers import random_rational_op
    s = random_rational_op(rng, sp)
    t = random_rational_op(rng, sp)
    for m in range(sp.n_components):
        assert rf.restrict(FinitePropOp.identity(sp), m) == \
            FinitePropOp.identity(sp.component_space(m))
        assert rf.restrict(s @ t, m) == rf.restrict(s, m) @ rf.restrict(t, m)
        assert rf.restrict(s + t, m) == rf.restrict(s, m) + rf.restrict(t, m)
        assert rf.restrict(s.adjoint(), m) == rf.restrict(s, m).adjoint()


def test_restrict_projection_is_component_projection():
    sp = rf.disjoint_union([rf.make_cycle(4), rf.make_complete(3)])
    p = rf.kazhdan_projection(sp)
    for m in range(2):
        sub = sp.component_space(m)
        assert rf.restrict(p, m) == rf.kazhdan_projection(sub)


def test_restrict_rejects_bad_component():
    sp = rf.make_cycle(3)
    with pytest.raises(ValueError):
        rf.restrict(FinitePropOp.identity(sp), 1)


SEALED_SPACES = {
    "random-3": lambda: random_space(np.random.default_rng(3)),
    "random-11": lambda: random_space(np.random.default_rng(11)),
    "random-29": lambda: random_space(np.random.default_rng(29)),
    # components {0, 2, 4} and {1, 3} interleave in index order
    "interleaved": lambda: rf.space_from_graph(
        list("abcde"), [(0, 2, 1), (2, 4, 1), (1, 3, 1)], name="il"),
}


@pytest.mark.parametrize("make", SEALED_SPACES.values(), ids=SEALED_SPACES)
def test_sealed_builders_match_the_validating_constructor(make):
    """Operators the package derives from its own operators skip the
    boundary check; rebuilding each through the validating constructor
    gives the same operator, key order and propagation."""
    rng = np.random.default_rng(5)
    sp = make()
    col = rf.edge_colouring(sp, 1.0)
    dec = rf.decompose_translation(random_translation(rng, sp), col)
    t = random_rational_op(rng, sp)
    built = [rf.kazhdan_projection(sp), averaging_for(sp).op, *dec.idempotents,
             *(rf.restrict(op, m) for op in (t, t.to_float())
               for m in range(sp.n_components))]
    for op in (FinitePropOp.identity(sp), FinitePropOp.zero(sp)):
        built += [op, op.to_float()]
    for op in built:
        rebuilt = FinitePropOp(op.space, op.entries, op.mode)
        assert rebuilt == op
        assert list(rebuilt.entries) == list(op.entries)
        assert rebuilt.propagation == op.propagation


def test_rate_constants_known_values():
    rc = rf.rate_constants(1, 2)
    assert rc.delta == math.sqrt(15) / 4
    assert rc.delta_tilde == 0.9841229182759271
    assert rf.rate_constants(4, 2) == (0.0, 0.5)
    assert rf.rate_constants(2, 1) == (0.0, 0.0)


def test_rate_constants_validation():
    with pytest.raises(ValueError):
        rf.rate_constants(0, 2)
    with pytest.raises(ValueError):
        rf.rate_constants(5, 2)  # c > 2n
    with pytest.raises(ValueError):
        rf.rate_constants(1, 0)
    # n is refused, not truncated, unless it is integral
    for n in (2.7, True):
        with pytest.raises(ValueError, match="n must be an integer"):
            rf.rate_constants(1.0, n)
    assert rf.rate_constants(1, 2.0) == rf.rate_constants(1, np.int64(2)) == rf.rate_constants(1, 2)


def test_power_gap_identity():
    """A^k - P equals (A - P)^k, checked exactly in rational arithmetic."""
    sp = rf.make_complete(4)
    avg = averaging_for(sp)
    gap = avg.op - rf.kazhdan_projection(sp)
    acc = gap
    for k in range(1, 8):
        assert rf.power_gap(avg, k) == acc
        acc = acc @ gap


def test_power_gap_caps_rational_exponents():
    sp = rf.make_complete(3)
    avg = averaging_for(sp)
    rf.power_gap(avg, EXACT_POWER_CAP)
    with pytest.raises(ValueError):
        rf.power_gap(avg, EXACT_POWER_CAP + 1)
    with pytest.raises(ValueError):
        rf.power_gap(avg, 0)


def test_gap_report_on_even_cycle():
    sp = rf.make_cycle(4)
    avg = averaging_for(sp)
    rep = rf.gap_report(avg, kmax=4)
    (comp,) = rep.components
    assert comp.rho == pytest.approx(0.5, abs=1e-14)
    assert [k for k, _ in comp.curve] == [1, 2, 4]
    assert [v for _, v in comp.curve] == [
        pytest.approx(0.5), pytest.approx(0.25), pytest.approx(0.0625)]
    assert rep.max_rho == comp.rho
    assert rep.uniform_gap is True
    assert comp.no_effective_gap is False
    assert comp.spectral.method == "dense"


def test_gap_report_known_rhos():
    for n, want in ((8, 0.5 + math.cos(2 * math.pi / 8) / 2), (4, 0.5)):
        sp = rf.make_cycle(n)
        rep = rf.gap_report(averaging_for(sp), kmax=1)
        assert rep.max_rho == pytest.approx(want, abs=1e-12)
    k4 = rf.make_complete(4)
    rep = rf.gap_report(averaging_for(k4), kmax=1)
    assert rep.max_rho == pytest.approx(1 / 3, abs=1e-12)


def test_gap_report_multi_component():
    sp = rf.disjoint_union([rf.make_cycle(4), rf.make_cycle(8)])
    rep = rf.gap_report(averaging_for(sp), kmax=2)
    assert [c.id for c in rep.components] == [0, 1]
    assert [c.size for c in rep.components] == [4, 8]
    assert rep.max_rho == max(c.rho for c in rep.components)
    assert rep.uniform_gap is True  # 0.854 < 0.95


def test_gap_report_small_components_take_dense_path(monkeypatch):
    # a 2-point component is below the Lanczos minimum: with the routing
    # at its floor of 2 it stays dense and the 8-cycle takes shift-invert
    sp = rf.disjoint_union([rf.make_complete(2), rf.make_cycle(8)])
    full = rf.gap_report(averaging_for(sp), kmax=2)
    route_above(monkeypatch, 2)
    rep = rf.gap_report(averaging_for(sp), kmax=2)
    small, big = rep.components
    assert small.size == 2 and small.spectral.method == "dense"
    assert big.size == 8 and big.spectral.method == "shift-invert"
    assert small.rho == full.components[0].rho
    assert big.rho == pytest.approx(full.components[1].rho, abs=1e-9)


@pytest.mark.parametrize("path", ["dense", "iterative", "shift-invert"])
def test_gap_report_rejects_uncertified_residual(monkeypatch, path):
    # the residual bounds the distance from rho to the spectrum, so a
    # solver answer whose residual is far above the tolerance is an error
    sp = rf.make_cycle(8)
    if path == "dense":
        real = kazhdan.dense_extreme_eig
        monkeypatch.setattr(kazhdan, "dense_extreme_eig",
                            lambda mat: (*real(mat)[:2], 1e-3))
    elif path == "iterative":
        sp = rf.make_margulis(8)  # wide band: Lanczos on A - P
        real = kazhdan.extreme_eig_matvec
        monkeypatch.setattr(kazhdan, "extreme_eig_matvec",
                            lambda *a, **k: (*real(*a, **k)[:3], 1e-3))
    else:
        # the residual is measured on A - P, so a vector off the
        # eigenvector fails it whatever the inverse iteration reported
        real = kazhdan._shift_invert

        def off_eigenvector(*args):
            vec, solves = real(*args)
            vec[0] += 1e-3
            return vec, solves

        monkeypatch.setattr(kazhdan, "_shift_invert", off_eigenvector)
    route_above(monkeypatch, 8 if path == "dense" else 2)
    with pytest.raises(SpectralError, match="residual"):
        rf.gap_report(averaging_for(sp), kmax=1)


@pytest.mark.parametrize("make, radius, method", [
    (lambda: rf.make_margulis(8), 1.0, "dense"),
    (lambda: rf.make_margulis(16), 1.0, "dense"),
    (lambda: rf.make_cycle(9), 1.0, "dense"),
    (lambda: rf.make_hypercube(5), 2.0, "dense"),
    (lambda: rf.make_cycle(256), 1.0, "shift-invert"),
    (lambda: rf.make_cycle(512), 1.0, "shift-invert"),
    (lambda: rf.make_cycle(600), 1.0, "shift-invert"),
    (lambda: rf.make_margulis(24), 1.0, "iterative"),
], ids=["Mg8", "Mg16", "C9", "Q5-R2", "C256", "C512", "C600", "Mg24"])
def test_rho_matches_laplacian_oracle(make, radius, method):
    """Each colour involution fixes the points it does not touch, so
    A = 1 - L_R/(2c) for the tube graph's Laplacian L_R and c colours, and
    on a connected space rho = 1 - lambda_2(L_R)/(2c)."""
    sp = make()
    col = rf.edge_colouring(sp, radius)
    avg = rf.build_averaging(rf.colour_permutations(col)[1:])
    (comp,) = rf.gap_report(avg, kmax=1).components
    n = sp.n_points
    lap = np.zeros((n, n))
    for u, v in rf.tube_graph_edges(sp, radius):
        lap[u, v] = lap[v, u] = -1.0
    np.fill_diagonal(lap, -lap.sum(axis=1))
    lam2 = np.linalg.eigvalsh(lap)[1]
    assert abs(comp.rho - (1.0 - lam2 / (2 * col.n_colours))) <= 1e-9
    assert comp.spectral.method == method


@pytest.mark.parametrize("radius", [1, 2])
def test_box_space_rho_is_the_circulant_value_at_each_radius(radius):
    """The box space's verdict is read at one propagation radius R; on
    every cycle C_s the tube at R is the circulant joining steps 1..R, so
    lambda_2 of its Laplacian is sum_{j<=R} 2(1 - cos(2 pi j / s)) and
    rho = 1 - lambda_2 / (2c) for the colouring's c colours, on the dense
    path (16, 64 points) and the shift-invert one (256, 1024) alike."""
    sizes = [16, 64, 256, 1024]
    box = rf.make_box_space_Z(sizes)
    col = rf.edge_colouring(box, radius)
    avg = rf.build_averaging(rf.colour_permutations(col)[1:])
    rep = rf.gap_report(avg, kmax=1)
    assert [comp.size for comp in rep.components] == sizes
    for comp in rep.components:
        s = comp.size
        lam2 = sum(2 * (1 - math.cos(2 * math.pi * j / s)) for j in range(1, radius + 1))
        assert abs(comp.rho - (1 - lam2 / (2 * col.n_colours))) <= 1e-12
    assert {comp.spectral.method for comp in rep.components} == {"dense", "shift-invert"}


def test_gap_report_threshold_verdict():
    sp = rf.make_cycle(8)
    rep = rf.gap_report(averaging_for(sp), kmax=1, threshold=0.8)
    assert rep.uniform_gap is False
    assert rep.uniform_gap_threshold == 0.8


def test_no_effective_gap_for_identity_averaging():
    # no edges inside the colouring radius: the only involution available is
    # the identity, the averaging operator is the identity, and nothing decays
    sp = rf.FiniteSpace(["a", "b"], [[0, 3], [3, 0]])
    avg = rf.build_averaging([PermutationOp.identity(sp)])
    rep = rf.gap_report(avg, kmax=2)
    (comp,) = rep.components
    assert comp.rho == pytest.approx(1.0)
    assert comp.no_effective_gap is True
    assert rep.uniform_gap is False


def test_gap_report_rejects_violated_rate_bound():
    # a displacement constant that is too optimistic contradicts the
    # measured gap and must be reported as an inconsistency
    sp = rf.make_cycle(8)
    with pytest.raises(GapBoundError):
        rf.gap_report(averaging_for(sp), kmax=1, c=3.9)


def test_gap_report_records_rate_bound():
    sp = rf.make_complete(4)
    rep = rf.gap_report(averaging_for(sp), kmax=1, c=1.0)
    (comp,) = rep.components
    want = rf.rate_constants(1.0, 3).delta_tilde
    assert comp.delta_tilde == want
    assert comp.rho <= want + 1e-12
    assert rep.params["c"] == 1.0


@pytest.mark.parametrize("floor", [False, True], ids=["default", "cutoff0"])
def test_curve_follows_rho_powers(monkeypatch, floor):
    """The curve is measured on rho's eigenvector; it must follow rho^k and
    match an independent norm of each power: scaled repeated squaring on the
    dense path, a Lanczos solve of the k-fold map on the iterative one.  With
    the routing at its floor of 2, every component above 2 points leaves
    the dense path."""
    if floor:
        route_above(monkeypatch, 2)
    rng = np.random.default_rng(77)
    methods = set()
    for _ in range(5):
        sp = random_space(rng, max_points=10)
        avg = averaging_for(sp)
        rep = rf.gap_report(avg, kmax=16)
        for comp in rep.components:
            idx = sp.component_points(comp.id)
            s = len(idx)
            block = avg.op.to_csr()[idx][:, idx]
            ks = [k for k, _ in comp.curve]
            methods.add(comp.spectral.method)
            if comp.spectral.method == "dense":
                ref = dense_power_norms(block.toarray() - 1.0 / s, ks)
                rtol = kazhdan.CURVE_RTOL_DENSE
            else:
                ref = {k: matvec_power_norm(lambda x: block @ x - x.mean(), s, k,
                                            seed=k)[0]
                       for k in ks}
                rtol = kazhdan.CURVE_RTOL_ITER
            for k, norm in comp.curve:
                assert norm == pytest.approx(comp.rho**k, rel=1e-7, abs=1e-11)
                assert norm == pytest.approx(ref[k], rel=rtol, abs=kazhdan.CURVE_ATOL)
    assert methods == ({"dense", "shift-invert"} if floor else {"dense"})


def test_one_eigensolve_per_component(monkeypatch):
    """The curve reuses rho's eigenvector: no solve and no seed per power."""
    calls = {"solve": 0, "seed": 0}

    def counted(fn, key):
        def wrapper(*args, **kwargs):
            calls[key] += 1
            return fn(*args, **kwargs)
        return wrapper

    # the solver is counted where spectral binds it too, so a k-fold solve
    # made through spectral.matvec_power_norm would show
    solve = counted(kazhdan.extreme_eig_matvec, "solve")
    monkeypatch.setattr(kazhdan, "extreme_eig_matvec", solve)
    monkeypatch.setattr(spectral, "extreme_eig_matvec", solve)
    monkeypatch.setattr(kazhdan, "_matrix_seed", counted(kazhdan._matrix_seed, "seed"))
    # both paths above the cutoff: shift-invert on the cycle, Lanczos on Mg24
    for sp, method in ((rf.make_cycle(600), "shift-invert"),
                       (rf.make_margulis(24), "iterative")):
        calls.update(solve=0, seed=0)
        rep = rf.gap_report(averaging_for(sp), kmax=32)
        (comp,) = rep.components
        assert comp.spectral.method == method
        assert [k for k, _ in comp.curve] == [1, 2, 4, 8, 16, 32]
        assert calls == {"solve": 1, "seed": 1}


def _path(n, weights=None):
    """A path on n points, unit edges unless ``weights`` names others."""
    weights = weights or {}
    edges = [(i, i + 1, weights.get(i, 1.0)) for i in range(n - 1)]
    return rf.space_from_graph([str(i) for i in range(n)], edges, name=f"P{n}")


@pytest.mark.parametrize("make, method", [
    (lambda: rf.make_box_space_Z([520, 1024]), "shift-invert"),
    (lambda: _path(700), "shift-invert"),
    (lambda: rf.make_margulis(32), "iterative"),
    (lambda: rf.make_hypercube(10), "iterative"),
    (lambda: rf.make_random_regular(600, 3, seed=1), "iterative"),
    (lambda: rf.make_random_regular(1000, 4, seed=2), "iterative"),
], ids=["box", "P700", "Mg32", "Q10", "RR600-3", "RR1000-4"])
def test_components_route_by_band(make, method):
    """Above the cutoff, a component whose reverse Cuthill–McKee band keeps a
    Cholesky factor no larger than the matrix takes shift-invert on its
    tube Laplacian; expanders, whose band grows with the size, take Lanczos.
    Either way rho is the Laplacian's: 1 - lambda_2 / (2c).  C600 and Mg24
    are in ``test_rho_matches_laplacian_oracle``."""
    sp = make()
    col = rf.edge_colouring(sp, 1.0)
    avg = rf.build_averaging(rf.colour_permutations(col)[1:])
    rep = rf.gap_report(avg, kmax=1)
    for comp in rep.components:
        assert comp.size > rf.DENSE_CUTOFF
        assert comp.spectral.method == method
        idx = sp.component_points(comp.id)
        block = avg.csr[idx][:, idx]
        assert comp.spectral.seed == spectral._matrix_seed(block)
        lap = 2 * avg.n * (np.eye(len(idx)) - block.toarray())
        lam2 = np.linalg.eigvalsh(lap)[1]
        assert abs(comp.rho - (1.0 - lam2 / (2 * avg.n))) <= 1e-9


def test_shift_invert_on_a_long_cycle():
    """C16384 takes shift-invert and matches the circulant formula.  rho is
    within 4e-8 of 1 there, and Lanczos on A - P took about 128k matvecs."""
    n = 16384
    sp = rf.make_cycle(n)
    avg = averaging_for(sp)
    start = time.perf_counter()
    (comp,) = rf.gap_report(avg, kmax=32).components
    assert time.perf_counter() - start < 5.0
    assert comp.spectral.method == "shift-invert"
    assert abs(comp.rho - (0.5 + math.cos(2 * math.pi / n) / 2)) <= 1e-12
    assert comp.spectral.residual <= 1e-14
    assert comp.spectral.iterations == kazhdan._SHIFT_INVERT_NCV + 2
    assert comp.no_effective_gap is False


def _spider(legs):
    """Paths of the given lengths joined at one centre, point 0."""
    edges, n = [], 1
    for length in legs:
        edges += [(n + i - 1 if i else 0, n + i, 1.0) for i in range(length)]
        n += length
    return rf.space_from_graph([str(i) for i in range(n)], edges, name="spider")


def test_shift_invert_on_a_near_degenerate_narrow_band():
    """A spider with legs 100, 101 and 102 has a narrow band, and its top two
    |eigenvalues| of A - P (0.9999605 and 0.9999596) lie within 1e-6 of each
    other.  The small basis still converges in one pass on the top one."""
    sp = _spider([100, 101, 102])
    avg = averaging_for(sp)
    (comp,) = rf.gap_report(avg, kmax=32).components
    assert comp.size == 304 and comp.spectral.method == "shift-invert"
    assert comp.spectral.iterations == kazhdan._SHIFT_INVERT_NCV + 2
    top = np.sort(np.abs(np.linalg.eigvalsh(avg.csr.toarray() - 1.0 / comp.size)))
    assert top[-1] - top[-2] < 1e-6
    assert abs(comp.rho - top[-1]) <= 1e-12


def test_shift_invert_at_two_to_the_sixteen_points():
    """The cycle's averaging block made directly (1/2 on the diagonal, 1/4 to
    each neighbour), so no colouring is needed: at 2^16 points, where
    lambda_2 of the Laplacian is 9.2e-9, the shift stays below it and rho
    matches the circulant formula."""
    n = 2**16
    i = np.arange(n)
    block = csr_matrix((np.r_[np.full(n, 0.5), np.full(2 * n, 0.25)],
                       (np.r_[i, i, i], np.r_[i, (i + 1) % n, (i - 1) % n])),
                       shape=(n, n))
    order, band = kazhdan._tube_band(block, 4)
    assert band.shape == (3, n)
    vec, solves = kazhdan._shift_invert(order, band, 1)
    image = block @ vec - vec.mean()
    rho = float(vec @ image)
    assert abs(rho - (0.5 + math.cos(2 * math.pi / n) / 2)) <= 1e-12
    assert np.linalg.norm(image - rho * vec) <= 1e-14
    assert solves < 200


def test_band_test_starts_above_the_crossover():
    """Below the dense cutoff, a narrow band takes shift-invert only above
    the measured crossover; a component at or below it stays dense."""
    for n, method in ((kazhdan._BANDED_FROM, "dense"),
                      (kazhdan._BANDED_FROM + 2, "shift-invert")):
        sp = rf.make_cycle(n)
        avg = averaging_for(sp)
        (comp,) = rf.gap_report(avg, kmax=4).components
        assert comp.spectral.method == method
        assert abs(comp.rho - math.cos(math.pi / n) ** 2) <= 1e-12


def test_cycle_at_two_to_the_sixteen_points_through_the_colouring():
    """C65536 from the family through the real colouring: the tube queries
    follow the balls, not n², so the colouring takes well under a second,
    and rho is the circulant cos²(pi / n)."""
    n = 2**16
    sp = rf.make_cycle(n)
    start = time.perf_counter()
    col = rf.edge_colouring(sp, 1)
    assert time.perf_counter() - start < 1.0
    assert len(col.edges) == n and col.n_colours == 2
    avg = rf.build_averaging(rf.colour_permutations(col)[1:])
    (comp,) = rf.gap_report(avg, kmax=32).components
    assert comp.spectral.method == "shift-invert"
    assert abs(comp.rho - math.cos(math.pi / n) ** 2) <= 1e-12


@pytest.mark.parametrize("floor", [False, True], ids=["default", "cutoff0"])
def test_disconnected_tube_has_no_gap_on_shift_invert(monkeypatch, floor):
    """A path with one weight-3 edge is one coarse component, but its tube at
    radius 1.5 falls in two: lambda_2 of the Laplacian is 0 and rho is 1."""
    if floor:
        route_above(monkeypatch, 2)
    n = 8 if floor else 1200
    sp = _path(n, {n // 2 - 1: 3.0})
    assert sp.n_components == 1
    rep = rf.gap_report(averaging_for(sp, 1.5), kmax=4)
    (comp,) = rep.components
    assert comp.spectral.method == "shift-invert"
    assert comp.rho == pytest.approx(1.0, abs=1e-12)
    assert comp.no_effective_gap is True and rep.uniform_gap is False
    assert [v for _, v in comp.curve] == pytest.approx([1.0] * 3, abs=1e-9)


def test_lanczos_curve_follows_rho_powers(monkeypatch):
    """The curve on a Lanczos eigenvector matches a Lanczos solve of each
    k-fold map, on wide-band spaces forced past the cutoff."""
    route_above(monkeypatch, 2)
    for sp in (rf.make_margulis(8), rf.make_hypercube(5)):
        avg = averaging_for(sp)
        (comp,) = rf.gap_report(avg, kmax=16).components
        assert comp.spectral.method == "iterative"
        block = avg.csr
        for k, norm in comp.curve:
            ref = matvec_power_norm(lambda x: block @ x - x.mean(), sp.n_points, k, seed=k)[0]
            assert norm == pytest.approx(comp.rho**k, rel=1e-7, abs=1e-11)
            assert norm == pytest.approx(ref, rel=kazhdan.CURVE_RTOL_ITER,
                                         abs=kazhdan.CURVE_ATOL)


def test_component_report_depends_only_on_its_block():
    """A component's report, seed included, is that of the component alone:
    neither the space around it nor the space's name moves it.  Each of the
    box space's three shift-invert components converges in one ARPACK pass
    over the small basis: basis + 1 solves, and one for the residual check."""
    sizes = [64, 128, 256, 512, 1024]
    box = rf.make_box_space_Z(sizes)
    rep = rf.gap_report(averaging_for(box), kmax=32)
    assert [c.spectral.iterations for c in rep.components] == [
        0, 0, *[kazhdan._SHIFT_INVERT_NCV + 2] * 3]
    assert {c.spectral.method for c in rep.components} == {"dense", "shift-invert"}
    for comp, s in zip(rep.components, sizes):
        cycle = rf.make_cycle(s)
        (alone,) = rf.gap_report(averaging_for(cycle), kmax=32).components
        assert replace(comp, id=0) == alone
    q10 = rf.make_hypercube(10)
    renamed = rf.disjoint_union([q10], name="Q10v0")
    comps = [rf.gap_report(averaging_for(sp), kmax=32).components
             for sp in (q10, renamed)]
    assert comps[0] == comps[1]


def test_kazhdan_lower_bound():
    k4 = rf.make_complete(4)
    rep = rf.gap_report(averaging_for(k4), kmax=1)
    assert rf.kazhdan_lower_bound(rep) == pytest.approx(4 / 3)
    sp = rf.FiniteSpace(["a", "b"], [[0, 3], [3, 0]])
    avg = rf.build_averaging([PermutationOp.identity(sp)])
    flat = rf.gap_report(avg, kmax=1)
    assert rf.kazhdan_lower_bound(flat) == 0.0


def test_kmax_above_the_matvec_cap_is_refused():
    # the curve spends kmax matvecs on each component, so kmax gets the cap
    # of one solve
    sp = rf.make_cycle(4)
    avg = averaging_for(sp)
    with pytest.raises(ValueError, match="kmax must be <= 20000"):
        rf.gap_report(avg, kmax=spectral._MATVEC_CAP + 1)
    with pytest.raises(ValueError, match="^kmax must be >= 1$"):
        rf.gap_report(avg, kmax=0)
    rep = rf.gap_report(avg, kmax=spectral._MATVEC_CAP)
    assert rep.components[0].curve[-1][0] == spectral._MATVEC_CAP


def test_report_dict_key_order():
    sp = rf.make_cycle(4)
    rep = rf.gap_report(averaging_for(sp), kmax=1)
    d = rf.report_to_dict(rep)
    assert list(d) == ["space", "components", "max_rho",
                       "uniform_gap_threshold", "uniform_gap", "params"]
    assert list(d["components"][0]) == ["id", "size", "rho", "curve",
                                        "delta_tilde", "no_effective_gap"]


def _gap_stops_in_one_line(tmp_path, capsys, n, message):
    path = tmp_path / "c.json"
    path.write_text(json.dumps({"family": "cycle", "members": [n]}))
    assert main(["gap", str(path)]) == 1
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.count("\n") == 1
    assert captured.err.startswith(f"error: {message}")


def test_a_curve_that_disagrees_with_rho_stops_the_report(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(kazhdan, "eigvec_power_norms", lambda op, vec, ks: {k: 2.0 for k in ks})
    message = "component 0: measured ||(A-P)^1|| = 2.0 disagrees with rho^1 = "
    with pytest.raises(GapComputationError, match=re.escape(message)):
        rf.gap_report(averaging_for(rf.make_cycle(6)), kmax=4)
    _gap_stops_in_one_line(tmp_path, capsys, 6, message)


def test_a_failed_banded_cholesky_stops_the_report(tmp_path, capsys, monkeypatch):
    def fail(*args, **kwargs):
        raise np.linalg.LinAlgError("not positive definite")

    monkeypatch.setattr(kazhdan, "cholesky_banded", fail)
    assert 300 > kazhdan._BANDED_FROM  # so C300 takes the banded path
    message = "banded Cholesky failed on 300 points: not positive definite"
    with pytest.raises(SpectralError, match=f"^{message}$"):
        rf.gap_report(averaging_for(rf.make_cycle(300)), kmax=4)
    _gap_stops_in_one_line(tmp_path, capsys, 300, message)


def test_csv_output_is_frozen():
    sp = rf.make_cycle(4)
    rep = rf.gap_report(averaging_for(sp), kmax=4)
    assert rf.reports_to_csv([rep]) == (
        "space,component_id,size,rho,delta_tilde,no_effective_gap,"
        "max_rho,uniform_gap_threshold,uniform_gap\n"
        "C4,0,4,0.5,,false,0.5,0.95,true\n"
    )


def test_family_report_shape():
    reps = []
    for n in (4, 6):
        sp = rf.make_cycle(n)
        reps.append(rf.gap_report(averaging_for(sp), kmax=1))
    d = rf.family_report_to_dict("cycle", {"foo": 1}, reps, 0.95)
    assert list(d) == ["family", "params", "members", "max_rho",
                       "uniform_gap_threshold", "uniform_gap"]
    assert d["family"] == "cycle"
    assert len(d["members"]) == 2
    assert d["max_rho"] == max(r.max_rho for r in reps)
    json.dumps(d)  # serialisable as-is


def test_readme_quick_start():
    """The README's library quick start runs and prints what it says."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = re.search(r"## Library quick start\n+```python\n(.*?)```", readme, re.S).group(1)
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(block, {})
    max_rho, bound = map(float, out.getvalue().split())
    assert max_rho == pytest.approx(0.8535533905932737, abs=1e-12)
    assert bound == 2 * (1 - max_rho)
