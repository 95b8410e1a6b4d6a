import json
import math
from fractions import Fraction

import numpy as np
import pytest

import roeforge as rf
from roeforge import (
    FinitePropOp,
    GapBoundError,
    PermutationOp,
    SpaceMismatchError,
    SpectralError,
)
from roeforge import kazhdan
from roeforge.kazhdan import EXACT_POWER_CAP
from conftest import random_rational_op, random_space, random_translation, spectral_norm


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
    assert rf.uniform_sum(avg.op) == 1


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
        assert rf.uniform_sum(op) == 1
        for x in range(sp.n_points):
            assert op.entries.get((x, x), 0) >= Fraction(1, 2)
        w = np.linalg.eigvalsh(op.to_dense().astype(float))
        assert w.min() >= -1e-12


def test_projection_entries_are_component_means():
    sp = rf.disjoint_union([rf.make_cycle(3), rf.make_complete(4)])
    proj = rf.kazhdan_projection(sp)
    assert proj.component_value == {0: Fraction(1, 3), 1: Fraction(1, 4)}
    op = proj.op
    for x in range(3):
        for y in range(3):
            assert op.entries[(x, y)] == Fraction(1, 3)
    assert (0, 3) not in op.entries


def test_projection_is_an_exact_projection():
    sp = rf.disjoint_union([rf.make_cycle(3), rf.make_complete(2)])
    p = rf.kazhdan_projection(sp).op
    assert p == p.adjoint()
    assert p @ p == p


def test_projection_matvec_takes_component_means():
    sp = rf.disjoint_union([rf.make_cycle(3), rf.make_complete(2)])
    proj = rf.kazhdan_projection(sp)
    x = np.array([1.0, 2.0, 3.0, 10.0, 20.0])
    assert np.allclose(proj.matvec(x), [2, 2, 2, 15, 15])


def test_averaging_fixes_projection():
    sp = rf.make_cycle(6)
    avg = averaging_for(sp)
    p = rf.kazhdan_projection(sp).op
    assert avg.op @ p == p
    assert p @ avg.op == p


def test_restrict_is_a_unital_star_homomorphism():
    rng = np.random.default_rng(9)
    sp = rf.disjoint_union([rf.make_cycle(4), rf.make_complete(3)])
    from conftest import random_rational_op
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
    p = rf.kazhdan_projection(sp).op
    for m in range(2):
        sub = sp.component_space(m)
        assert rf.restrict(p, m) == rf.kazhdan_projection(sub).op


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
    built = [rf.kazhdan_projection(sp).op, averaging_for(sp).op, *dec.idempotents,
             *(rf.restrict(op, m) for op in (t, t.to_float())
               for m in range(sp.n_components))]
    for mode in ("rational", "float"):
        built += [FinitePropOp.identity(sp, mode), FinitePropOp.zero(sp, mode)]
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


def test_power_gap_identity():
    """A^k - P equals (A - P)^k, checked exactly in rational arithmetic."""
    sp = rf.make_complete(4)
    avg = averaging_for(sp)
    p = rf.kazhdan_projection(sp)
    gap = avg.op - p.op
    acc = gap
    for k in range(1, 8):
        assert rf.power_gap(avg, p, k) == acc
        acc = acc @ gap


def test_power_gap_caps_rational_exponents():
    sp = rf.make_complete(3)
    avg = averaging_for(sp)
    p = rf.kazhdan_projection(sp)
    rf.power_gap(avg, p, EXACT_POWER_CAP)
    with pytest.raises(ValueError):
        rf.power_gap(avg, p, EXACT_POWER_CAP + 1)
    with pytest.raises(ValueError):
        rf.power_gap(avg, p, 0)


def test_gap_report_on_even_cycle():
    sp = rf.make_cycle(4)
    avg = averaging_for(sp)
    rep = rf.gap_report(avg, rf.kazhdan_projection(sp), kmax=4)
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
        rep = rf.gap_report(averaging_for(sp), rf.kazhdan_projection(sp), kmax=1)
        assert rep.max_rho == pytest.approx(want, abs=1e-12)
    k4 = rf.make_complete(4)
    rep = rf.gap_report(averaging_for(k4), rf.kazhdan_projection(k4), kmax=1)
    assert rep.max_rho == pytest.approx(1 / 3, abs=1e-12)


def test_gap_report_multi_component():
    sp = rf.disjoint_union([rf.make_cycle(4), rf.make_cycle(8)])
    rep = rf.gap_report(averaging_for(sp), rf.kazhdan_projection(sp), kmax=2)
    assert [c.id for c in rep.components] == [0, 1]
    assert [c.size for c in rep.components] == [4, 8]
    assert rep.max_rho == max(c.rho for c in rep.components)
    assert rep.uniform_gap is True  # 0.854 < 0.95


def test_gap_report_small_components_take_dense_path():
    # a 2-point component is below the Lanczos minimum whatever the cutoff
    sp = rf.disjoint_union([rf.make_complete(2), rf.make_cycle(8)])
    rep = rf.gap_report(averaging_for(sp), rf.kazhdan_projection(sp),
                        kmax=2, dense_cutoff=0)
    small, big = rep.components
    assert small.size == 2 and small.spectral.method == "dense"
    assert big.size == 8 and big.spectral.method == "iterative"
    full = rf.gap_report(averaging_for(sp), rf.kazhdan_projection(sp), kmax=2)
    assert small.rho == full.components[0].rho
    assert big.rho == pytest.approx(full.components[1].rho, abs=1e-9)


@pytest.mark.parametrize("path", ["dense", "iterative"])
def test_gap_report_rejects_uncertified_residual(monkeypatch, path):
    # the residual bounds the distance from rho to the spectrum, so a
    # solver answer whose residual is far above the tolerance is an error
    if path == "dense":
        real = kazhdan.dense_extreme_eig
        monkeypatch.setattr(kazhdan, "dense_extreme_eig",
                            lambda mat: (real(mat)[0], 1e-3))
    else:
        real = kazhdan.extreme_eig_matvec
        monkeypatch.setattr(kazhdan, "extreme_eig_matvec",
                            lambda *a, **k: (*real(*a, **k)[:2], 1e-3))
    sp = rf.make_cycle(8)
    with pytest.raises(SpectralError, match="residual"):
        rf.gap_report(averaging_for(sp), rf.kazhdan_projection(sp), kmax=1,
                      dense_cutoff=8 if path == "dense" else 0)


@pytest.mark.parametrize("make, radius", [
    (lambda: rf.make_margulis(8), 1.0),
    (lambda: rf.make_margulis(16), 1.0),
    (lambda: rf.make_cycle(9), 1.0),
    (lambda: rf.make_hypercube(5), 2.0),
    (lambda: rf.make_cycle(600), 1.0),
], ids=["Mg8", "Mg16", "C9", "Q5-R2", "C600"])
def test_rho_matches_laplacian_oracle(make, radius):
    """Each colour involution fixes the points it does not touch, so
    A = 1 - L_R/(2c) for the tube graph's Laplacian L_R and c colours, and
    on a connected space rho = 1 - lambda_2(L_R)/(2c)."""
    sp = make()
    col = rf.edge_colouring(sp, radius)
    avg = rf.build_averaging(rf.colour_permutations(col)[1:])
    (comp,) = rf.gap_report(avg, rf.kazhdan_projection(sp), kmax=1).components
    n = sp.n_points
    lap = np.zeros((n, n))
    for u, v in rf.tube_graph_edges(sp, radius):
        lap[u, v] = lap[v, u] = -1.0
    np.fill_diagonal(lap, -lap.sum(axis=1))
    lam2 = np.linalg.eigvalsh(lap)[1]
    assert abs(comp.rho - (1.0 - lam2 / (2 * col.n_colours))) <= 1e-9
    assert comp.spectral.method == ("iterative" if n > rf.DENSE_CUTOFF else "dense")


def test_gap_report_threshold_verdict():
    sp = rf.make_cycle(8)
    rep = rf.gap_report(averaging_for(sp), rf.kazhdan_projection(sp),
                        kmax=1, threshold=0.8)
    assert rep.uniform_gap is False
    assert rep.uniform_gap_threshold == 0.8


def test_no_effective_gap_for_identity_averaging():
    # no edges inside the colouring radius: the only involution available is
    # the identity, the averaging operator is the identity, and nothing decays
    sp = rf.FiniteSpace(["a", "b"], [[0, 3], [3, 0]])
    avg = rf.build_averaging([PermutationOp.identity(sp)])
    rep = rf.gap_report(avg, rf.kazhdan_projection(sp), kmax=2)
    (comp,) = rep.components
    assert comp.rho == pytest.approx(1.0)
    assert comp.no_effective_gap is True
    assert rep.uniform_gap is False


def test_gap_report_rejects_violated_rate_bound():
    # a displacement constant that is too optimistic contradicts the
    # measured gap and must be reported as an inconsistency
    sp = rf.make_cycle(8)
    with pytest.raises(GapBoundError):
        rf.gap_report(averaging_for(sp), rf.kazhdan_projection(sp), kmax=1, c=3.9)


def test_gap_report_records_rate_bound():
    sp = rf.make_complete(4)
    rep = rf.gap_report(averaging_for(sp), rf.kazhdan_projection(sp), kmax=1, c=1.0)
    (comp,) = rep.components
    want = rf.rate_constants(1.0, 3).delta_tilde
    assert comp.delta_tilde == want
    assert comp.rho <= want + 1e-12
    assert rep.params["c"] == 1.0


def test_curve_follows_rho_powers():
    rng = np.random.default_rng(77)
    for _ in range(5):
        sp = random_space(rng, max_points=10)
        rep = rf.gap_report(averaging_for(sp), rf.kazhdan_projection(sp), kmax=16)
        for comp in rep.components:
            for k, norm in comp.curve:
                assert norm == pytest.approx(comp.rho**k, rel=1e-7, abs=1e-11)


def test_gap_report_jobs_parity():
    sp = rf.make_box_space_Z([4, 8, 16])
    avg = averaging_for(sp)
    proj = rf.kazhdan_projection(sp)
    a = rf.report_to_dict(rf.gap_report(avg, proj, kmax=4, jobs=1))
    b = rf.report_to_dict(rf.gap_report(avg, proj, kmax=4, jobs=3))
    assert a == b


def test_kazhdan_lower_bound():
    k4 = rf.make_complete(4)
    rep = rf.gap_report(averaging_for(k4), rf.kazhdan_projection(k4), kmax=1)
    assert rf.kazhdan_lower_bound(rep, 3) == pytest.approx(4 / 3)
    sp = rf.FiniteSpace(["a", "b"], [[0, 3], [3, 0]])
    avg = rf.build_averaging([PermutationOp.identity(sp)])
    flat = rf.gap_report(avg, rf.kazhdan_projection(sp), kmax=1)
    assert rf.kazhdan_lower_bound(flat, 1) == 0.0


def test_report_json_is_frozen():
    sp = rf.make_cycle(4)
    rep = rf.gap_report(averaging_for(sp), rf.kazhdan_projection(sp), kmax=4)
    assert rf.report_to_json(rep) == (
        '{\n'
        '  "space": "C4",\n'
        '  "components": [\n'
        '    {\n'
        '      "id": 0,\n'
        '      "size": 4,\n'
        '      "rho": 0.5,\n'
        '      "curve": [\n'
        '        {\n'
        '          "k": 1,\n'
        '          "norm": 0.5\n'
        '        },\n'
        '        {\n'
        '          "k": 2,\n'
        '          "norm": 0.25\n'
        '        },\n'
        '        {\n'
        '          "k": 4,\n'
        '          "norm": 0.0625\n'
        '        }\n'
        '      ],\n'
        '      "delta_tilde": null,\n'
        '      "no_effective_gap": false\n'
        '    }\n'
        '  ],\n'
        '  "max_rho": 0.5,\n'
        '  "uniform_gap_threshold": 0.95,\n'
        '  "uniform_gap": true,\n'
        '  "params": {\n'
        '    "kmax": 4,\n'
        '    "c": null,\n'
        '    "dense_cutoff": 512,\n'
        '    "tol": 1e-10\n'
        '  }\n'
        '}\n'
    )


def test_report_dict_key_order():
    sp = rf.make_cycle(4)
    rep = rf.gap_report(averaging_for(sp), rf.kazhdan_projection(sp), kmax=1)
    d = rf.report_to_dict(rep)
    assert list(d) == ["space", "components", "max_rho",
                       "uniform_gap_threshold", "uniform_gap", "params"]
    assert list(d["components"][0]) == ["id", "size", "rho", "curve",
                                        "delta_tilde", "no_effective_gap"]


def test_csv_output_is_frozen():
    sp = rf.make_cycle(4)
    rep = rf.gap_report(averaging_for(sp), rf.kazhdan_projection(sp), kmax=4)
    assert rf.reports_to_csv([rep]) == (
        "space,component_id,size,rho,delta_tilde,no_effective_gap,"
        "max_rho,uniform_gap_threshold,uniform_gap\n"
        "C4,0,4,0.5,,false,0.5,0.95,true\n"
    )


def test_family_report_shape():
    reps = []
    for n in (4, 6):
        sp = rf.make_cycle(n)
        reps.append(rf.gap_report(averaging_for(sp), rf.kazhdan_projection(sp), kmax=1))
    d = rf.family_report_to_dict("cycle", {"foo": 1}, reps, 0.95)
    assert list(d) == ["family", "params", "members", "max_rho",
                       "uniform_gap_threshold", "uniform_gap"]
    assert d["family"] == "cycle"
    assert len(d["members"]) == 2
    assert d["max_rho"] == max(r.max_rho for r in reps)
    json.dumps(d)  # serialisable as-is
