import math
import re
import time
from fractions import Fraction
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
import scipy.sparse
from hypothesis import given, settings, strategies as st

import roeforge as rf
from roeforge import (
    FinitePropOp,
    OperatorParseError,
    PartialTranslation,
    PermutationOp,
    ScalarModeError,
    SpaceMismatchError,
    UncontrolledSupportError,
)
from roeforge import transalg
from roeforge.transalg import operator_sum
from helpers import random_rational_op, random_space
from test_acceptance import averaging_for, components_space


def pair_space():
    return rf.space_from_graph(["a", "b"], [(0, 1, 1)], name="pair")


def two_blocks():
    # two 2-point components with distinct block names
    return rf.disjoint_union([rf.make_complete(2), rf.make_hypercube(1)])


def test_construction_drops_zeros_and_sorts():
    sp = pair_space()
    op = FinitePropOp(sp, {(1, 0): Fraction(2), (0, 0): Fraction(0), (0, 1): Fraction(1)})
    assert op.nnz == 2
    assert list(op.entries) == [(0, 1), (1, 0)]  # sorted pair order
    assert op.entries == {(0, 1): Fraction(1), (1, 0): Fraction(2)}


def test_construction_rejects_infinite_pairs():
    sp = two_blocks()
    with pytest.raises(UncontrolledSupportError):
        FinitePropOp(sp, {(0, 2): Fraction(1)})


SUPPORT_BUILDERS = {
    "FinitePropOp": lambda sp, x, y: FinitePropOp(sp, {(x, y): Fraction(1, 3)}),
    "PartialTranslation": lambda sp, x, y: PartialTranslation(sp, {y: x}),
    # the transposition of x and y, written out as a list of images
    "PermutationOp": lambda sp, x, y: PermutationOp(
        sp, [x if i == y else y if i == x else i for i in range(sp.n_points)]),
    "controlled": lambda sp, x, y: rf.controlled(sp, [(1, 1), (x, y)]),
}


def _diameter(built):
    if isinstance(built, PermutationOp):
        return built.op.propagation
    if isinstance(built, rf.ControlledSet):
        return built.diameter
    return built.propagation


@pytest.mark.parametrize("build", SUPPORT_BUILDERS.values(), ids=SUPPORT_BUILDERS)
def test_public_constructors_check_the_support(build):
    """Every public constructor rejects an index outside the space and a
    pair at infinite distance when it is called, not when first read."""
    sp = two_blocks()
    assert _diameter(build(sp, 1, 0)) == 1.0
    for x, y in ((4, 0), (0, 4), (-1, 0), (0, -1)):
        with pytest.raises(ValueError) as info:
            build(sp, x, y)
        assert not isinstance(info.value, UncontrolledSupportError)
    with pytest.raises(UncontrolledSupportError):
        build(sp, 2, 0)


def test_point_indices_must_be_integers():
    """A non-integral or bool point index is refused, naming it, not
    truncated; numpy integers and integral floats are taken as ints."""
    sp = rf.make_cycle(5)
    refused = [
        ("0.7", lambda: FinitePropOp(sp, {(0.7, 1.9): 1, (1, 2): 3})),
        ("True", lambda: FinitePropOp(sp, {(0, 1): 1, (True, 2): 3})),
        ("0.5", lambda: PartialTranslation(sp, {0.5: 1.99})),
        ("2.5", lambda: FinitePropOp.diagonal(sp, {2.5: 1})),
        ("1.9", lambda: PermutationOp(sp, [1.9, 0.2, 2, 3, 4])),
        ("True", lambda: PermutationOp(sp, [True, False, 2, 3, 4])),
    ]
    for value, build in refused:
        with pytest.raises(ValueError, match=f"^point index must be an integer, got {value}$"):
            build()
    i0, i1 = np.int64(0), np.int64(1)
    op = FinitePropOp(sp, {(i0, i1): 1, (2.0, 3): 2})
    assert op == FinitePropOp(sp, {(0, 1): 1, (2, 3): 2})
    assert all(type(i) is int for pair in op.entries for i in pair)
    assert FinitePropOp.diagonal(sp, {np.int64(2): 1}) == FinitePropOp(sp, {(2, 2): 1})
    assert PartialTranslation(sp, {i0: i1, 1.0: 2}).mapping == {0: 1, 1: 2}
    swap = [1, 0, 2, 3, 4]
    assert PermutationOp(sp, np.array(swap, dtype=float)) == PermutationOp(sp, swap)
    assert PermutationOp(sp, [np.int64(i) for i in swap]) == PermutationOp(sp, swap)


def test_construction_rejects_bool_entries():
    sp = pair_space()
    with pytest.raises(TypeError):
        FinitePropOp(sp, {(0, 1): True})


def test_mode_validation():
    sp = pair_space()
    with pytest.raises(ValueError):
        FinitePropOp(sp, {}, mode="decimal")
    with pytest.raises(TypeError):
        FinitePropOp(sp, {(0, 1): 0.5}, mode="rational")
    # rationals are coerced on the way into float mode, not rejected
    assert FinitePropOp(sp, {(0, 1): Fraction(1, 2)}, mode="float").entries == {(0, 1): 0.5}
    # float mode takes finite values only; rational mode takes any size
    one = FinitePropOp.identity(sp).to_float()
    for bad in (float("inf"), float("nan"), complex(0, float("inf")), 10**400):
        with pytest.raises(ValueError):
            FinitePropOp(sp, {(0, 0): bad}, mode="float")
        with pytest.raises(ValueError):
            FinitePropOp.diagonal(sp, [1.0, bad], mode="float")
        with pytest.raises(ValueError):
            one * bad
    assert FinitePropOp(sp, {(0, 0): 10**400}).entries == {(0, 0): 10**400}


def test_identity_diagonal_zero():
    sp = rf.make_cycle(3)
    ident = FinitePropOp.identity(sp)
    assert ident.propagation == 0.0
    assert ident @ ident == ident
    diag = FinitePropOp.diagonal(sp, {0: Fraction(2), 2: Fraction(-1)})
    assert diag.nnz == 2
    zero = FinitePropOp.zero(sp)
    assert zero.nnz == 0 and zero.propagation == 0.0
    assert ident + zero == ident


def test_propagation_is_max_support_distance():
    sp = rf.make_cycle(6)
    op = FinitePropOp(sp, {(0, 2): Fraction(1), (1, 2): Fraction(1)})
    assert op.propagation == 2.0


def test_propagation_is_computed_once_when_read(monkeypatch):
    sp = rf.make_cycle(6)
    a = FinitePropOp(sp, {(0, 1): Fraction(1), (1, 2): Fraction(1)})
    calls = []
    real = transalg.support_diameter

    def counting(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(transalg, "support_diameter", counting)
    prod = a @ a
    assert calls == []  # a sealed result runs no check
    assert prod.propagation == 2.0
    assert prod.propagation == 2.0
    assert len(calls) == 1


def test_arithmetic_matches_dense():
    sp = rf.make_cycle(4)
    rng = np.random.default_rng(7)
    a = random_rational_op(rng, sp)
    b = random_rational_op(rng, sp)
    assert np.array_equal((a + b).to_dense(), a.to_dense() + b.to_dense())
    assert np.array_equal((a - b).to_dense(), a.to_dense() - b.to_dense())
    assert np.array_equal((a @ b).to_dense(), a.to_dense() @ b.to_dense())
    assert np.array_equal((-a).to_dense(), -a.to_dense())
    assert np.array_equal((3 * a).to_dense(), 3 * a.to_dense())


# -- exact arithmetic against the plain Fraction loops -----------------------
#
# The dict-of-Fractions arithmetic that rational operators ran before they
# kept their rows over one denominator each.  Every ``_reference_*`` works on
# ``entries`` only and returns an entry dict as the view shows one.

def _normal(entries):
    """``entries`` as the view shows them: keys sorted, zeros dropped, an int
    wherever the reduced denominator is 1."""
    return {k: int(v) if v.denominator == 1 else v
            for k, v in sorted(entries.items()) if v != 0}


def _reference_matmul(a, b):
    """The sparse row loop over the entry values as stored: the reference
    for ``@`` in both modes (unsorted, zeros kept)."""
    rows = {}
    for (z, y), v in b.entries.items():
        rows.setdefault(z, []).append((y, v))
    acc = {}
    for (x, z), u in a.entries.items():
        for y, v in rows.get(z, ()):
            acc[(x, y)] = acc.get((x, y), 0) + u * v
    return acc


def _reference_sum(a, b, sign=1):
    acc = dict(a.entries)
    for k, v in b.entries.items():
        acc[k] = acc.get(k, 0) + sign * v
    return _normal(acc)


def _reference_scale(c, a):
    return _normal({k: c * v for k, v in a.entries.items()})


def _reference_adjoint(a):
    return _normal({(y, x): v for (x, y), v in a.entries.items()})


def _reference_row_sum_diagonal(a):
    sums = {}
    for (x, _), v in a.entries.items():
        sums[(x, x)] = sums.get((x, x), 0) + v
    return _normal(sums)


def _reference_restrict(t, m):
    pos = {g: i for i, g in enumerate(t.space.component_points(m).tolist())}
    return _normal({(pos[x], pos[y]): v for (x, y), v in t.entries.items() if x in pos})


def _reference_text(space, entries, propagation):
    pts = space.points
    return "".join([f"operator {space.name} rational {propagation!r}\n"]
                   + [f"entry {pts[x]} {pts[y]} {v}\n" for (x, y), v in entries.items()])


def _assert_matches(got, want):
    """The rational operator ``got`` shows exactly the reference entries
    ``want``: values, value types and key order; ``==`` both ways with the
    operator the validating constructor makes of them; text bytes; float
    and CSR bits."""
    assert list(got.entries.items()) == list(want.items())
    assert [type(v) for v in got.entries.values()] == [type(v) for v in want.values()]
    ref = FinitePropOp(got.space, want)
    assert got == ref and ref == got
    assert rf.operator_to_text(got) == _reference_text(got.space, want, ref.propagation)
    floats = [float(v) for v in want.values()]
    flo = got.to_float().entries
    assert list(flo) == list(want)
    assert [v.hex() for v in flo.values()] == [v.hex() for v in floats]
    n = got.space.n_points
    keys = np.array(list(want), dtype=np.int64).reshape(-1, 2)
    csr = scipy.sparse.csr_matrix((np.array(floats, dtype=float), (keys[:, 0], keys[:, 1])),
                                  shape=(n, n))
    for attr in ("indptr", "indices", "data"):
        mine, theirs = getattr(got.to_csr(), attr), getattr(csr, attr)
        assert mine.dtype == theirs.dtype and mine.tobytes() == theirs.tobytes()


def _assert_reference_algebra(a, b):
    """Every exact operation on ``a`` and ``b`` against its Fraction reference."""
    _assert_matches(a + b, _reference_sum(a, b))
    _assert_matches(a - b, _reference_sum(a, b, -1))
    _assert_matches(a @ b, _normal(_reference_matmul(a, b)))
    for c in (0, 3, -1, Fraction(0), Fraction(-7, 5), Fraction(10**6 + 3, 10**6)):
        _assert_matches(c * a, _reference_scale(c, a))
    for op in (a, b):
        _assert_matches(op.adjoint(), _reference_adjoint(op))
        _assert_matches(rf.row_sum_diagonal(op), _reference_row_sum_diagonal(op))
        for m in range(op.space.n_components):
            _assert_matches(rf.restrict(op, m), _reference_restrict(op, m))
        got, want = rf.uniform_sum_value(op), _reference_uniform_sum(op)
        assert got == want
        if want is not None:
            assert type(got) is (int if want.denominator == 1 else Fraction)


def _assert_reference_product(a, b):
    got, want = a @ b, FinitePropOp(a.space, _reference_matmul(a, b), a.mode)
    assert got == want
    assert list(got.entries) == list(want.entries)
    assert [str(v) for v in got.entries.values()] == [str(v) for v in want.entries.values()]
    assert got.propagation == want.propagation


# entry kinds: integers; small denominators; denominators up to 10**6;
# distinct ~40-bit denominators, whose lcm over a whole operand is hundreds
# of bits wide
_ENTRY_KINDS = {
    "int": lambda rng, num: num,
    "small": lambda rng, num: Fraction(num, int(rng.integers(1, 5))),
    "wide": lambda rng, num: Fraction(num, int(rng.integers(1, 10**6 + 1))),
    "big": lambda rng, num: Fraction(num, int(rng.integers(2**40, 2**41))),
}


def _op_of_kind(rng, sp, kind, density=0.5):
    make = _ENTRY_KINDS[kind]
    entries = {}
    for x, y in sorted(rf.tube(sp, 2).pairs):
        if rng.random() < density:
            entries[(x, y)] = make(rng, int(rng.integers(-6, 7)))
    return FinitePropOp(sp, entries)


@pytest.mark.parametrize("mode", ["rational", "float"])
def test_restrict_to_a_whole_space_shares_its_rows(mode):
    """On a one-component space the block is the whole operator: restrict
    keeps the stored rows over the component space, and they equal the
    relabelled rows of the reference."""
    sp = rf.make_margulis(4)
    op = random_rational_op(np.random.default_rng(5), sp, radius=2)
    if mode == "float":
        op = op.to_float() + 1j * op.adjoint().to_float()
    got = rf.restrict(op, 0)
    assert got.space is sp.component_space(0) and got.space is not sp
    assert got._rows is op._rows and got.mode == op.mode
    if mode == "rational":
        _assert_matches(got, _reference_restrict(op, 0))
    else:
        _assert_float_matches(got, _reference_float_restrict(op, 0))


def test_exact_product_kinds():
    """Each row is kept over the lcm of its own reduced denominators, not
    the operand's, and every pairing of kinds equals the Fraction loop."""
    rng = np.random.default_rng(5)
    sp = rf.make_cycle(6)
    ops = {kind: _op_of_kind(rng, sp, kind) for kind in _ENTRY_KINDS}
    assert {d for d, _ in ops["int"]._rows.values()} == {1}
    for op in ops.values():
        for x, (d, row) in op._rows.items():
            values = [v for (i, _), v in op.entries.items() if i == x]
            assert d == math.lcm(*(v.denominator for v in values))
            assert all(type(n) is int for n in row.values())
    whole = math.lcm(*(v.denominator for v in ops["big"].entries.values()))
    assert max(d for d, _ in ops["big"]._rows.values()) < whole
    for a in ops.values():
        for b in ops.values():
            _assert_reference_product(a, b)


def test_exact_product_integer_valued_sums():
    sp = pair_space()
    half = FinitePropOp(sp, {(0, 0): Fraction(1, 2), (0, 1): Fraction(3, 2)})
    two = FinitePropOp(sp, {(0, 0): 2, (1, 1): Fraction(4)})
    prod = half @ two
    assert prod.entries == {(0, 0): 1, (0, 1): 6}
    assert [str(v) for v in prod.entries.values()] == ["1", "6"]
    _assert_reference_product(half, two)


def test_exact_product_drops_cancelled_sums():
    """Row (1/p, 1/q) times column (p/r, -q/r) cancels to zero, for small
    and wide denominators alike."""
    sp = pair_space()
    big_p, big_q, big_r = 2**61 - 1, 2**31 - 1, 2**89 - 1  # primes
    for p, q, r in ((1, 1, 1), (2, 3, 5), (big_p, big_q, 5), (big_p, big_q, big_r)):
        row = FinitePropOp(sp, {(0, 0): Fraction(1, p), (0, 1): Fraction(1, q)})
        col = FinitePropOp(sp, {(0, 0): Fraction(p, r), (1, 0): Fraction(-q, r),
                                (1, 1): Fraction(1, r)})
        assert (row @ col).entries == {(0, 1): Fraction(1, q * r)}
        _assert_reference_product(row, col)


@settings(deadline=None, max_examples=40)
@given(st.integers(0, 10**6), st.integers(3, 8),
       st.sampled_from(sorted(_ENTRY_KINDS)), st.sampled_from(sorted(_ENTRY_KINDS)))
def test_exact_product_matches_fraction_loop(seed, n, left, right):
    rng = np.random.default_rng(seed)
    sp = random_space(rng, max_points=n, max_blocks=2)
    a = _op_of_kind(rng, sp, left)
    b = _op_of_kind(rng, sp, right)
    _assert_reference_product(a, b)
    _assert_reference_product(a, a.adjoint() - b)
    # float products are the same loop over floats, bit for bit
    _assert_reference_product(a.to_float(), b.to_float())


@settings(deadline=None, max_examples=40)
@given(st.integers(0, 10**6), st.integers(2, 8),
       st.sampled_from(sorted(_ENTRY_KINDS)), st.sampled_from(sorted(_ENTRY_KINDS)))
def test_exact_algebra_matches_the_fraction_reference(seed, n, left, right):
    rng = np.random.default_rng(seed)
    sp = random_space(rng, max_points=n, max_blocks=2)
    a = _op_of_kind(rng, sp, left)
    b = _op_of_kind(rng, sp, right)
    _assert_reference_algebra(a, b)
    _assert_reference_algebra(a @ b, a.adjoint() - b)


def test_exact_algebra_matches_the_fraction_reference_on_wide_powers():
    """Criterion 4's operators: A^k up to A^20, whose denominators reach
    (2n)^20, and (A - P)^k, each against the Fraction loop run alongside."""
    rng = np.random.default_rng(104)
    for case in range(8):
        sp = components_space(rng, int(rng.integers(1, 4)))
        a = averaging_for(sp).op
        p = rf.kazhdan_projection(sp)
        gap = a - p
        a_pow, gap_pow = a, gap
        ref_a, ref_gap = a.entries, gap.entries
        for k in range(1, 21):
            _assert_matches(a_pow, _normal(ref_a))
            _assert_matches(gap_pow, _normal(ref_gap))
            if k < 20:
                a_pow, gap_pow = a_pow @ a, gap_pow @ gap
                ref_a = _reference_matmul(SimpleNamespace(entries=ref_a), a)
                ref_gap = _reference_matmul(SimpleNamespace(entries=ref_gap), gap)
        assert rf.uniform_sum_value(a_pow) == 1 and rf.uniform_sum_value(gap_pow) == 0
        _assert_reference_algebra(a_pow, gap_pow)
        _assert_reference_algebra(gap_pow, p)


# -- float arithmetic against the plain dict loops ----------------------------
#
# The loops float operators ran when they kept a dict of entries.  Every
# ``_reference_float_*`` works on ``entries`` in sorted pair order and returns
# an entry dict as one of those operators kept it: keys sorted, zeros dropped.

def _float_normal(acc):
    return {k: acc[k] for k in sorted(acc) if acc[k] != 0}


def _reference_float_sum(terms):
    """``operator_sum`` over entry dicts: each entry summed left to right,
    zeros dropped only at the end."""
    acc = {}
    for entries in terms:
        for k, v in entries.items():
            s = acc.get(k)
            acc[k] = v if s is None else s + v
    return _float_normal(acc)


def _reference_float_matmul(a, b):
    return _float_normal(_reference_matmul(a, b))


def _reference_float_scale(c, a):
    c = c if isinstance(c, complex) else float(c)
    return _float_normal({k: c * v for k, v in a.entries.items()})


def _reference_float_adjoint(a):
    return _float_normal({(y, x): v.conjugate() for (x, y), v in a.entries.items()})


def _reference_float_row_sum_diagonal(a):
    sums = {}
    for (x, _), v in a.entries.items():
        sums[(x, x)] = sums.get((x, x), 0) + v
    return _float_normal(sums)


def _reference_float_restrict(t, m):
    pos = {g: i for i, g in enumerate(t.space.component_points(m).tolist())}
    return _float_normal({(pos[x], pos[y]): v for (x, y), v in t.entries.items()
                          if x in pos})


def _reference_float_uniform_sum(op, tol=transalg._FLOAT_SUM_TOL):
    """The float twin of :func:`_reference_uniform_sum`: every row and
    column sum added in sorted pair order, each within ``tol`` of row 0's."""
    n = op.space.n_points
    rows, cols = [0] * n, [0] * n
    for (x, y), v in op.entries.items():
        rows[x] += v
        cols[y] += v
    c = rows[0]
    return c if all(abs(s - c) <= tol for s in rows + cols) else None


def _reference_float_text(space, entries, propagation):
    pts = space.points
    return "".join([f"operator {space.name} float {propagation!r}\n"]
                   + [f"entry {pts[x]} {pts[y]} {v!r}\n" for (x, y), v in entries.items()])


def _reference_float_coo(entries):
    keys = np.fromiter((i for k in entries for i in k), dtype=np.int64,
                       count=2 * len(entries)).reshape(-1, 2)
    dtype = complex if any(isinstance(v, complex) for v in entries.values()) else float
    vals = np.fromiter(entries.values(), dtype=dtype, count=len(entries))
    return keys[:, 0], keys[:, 1], vals


def _bits(v):
    """A value's type and the bits of its parts, signed zeros told apart."""
    if isinstance(v, complex):
        return "complex", repr(v.real), repr(v.imag), v.real.hex(), v.imag.hex()
    return type(v).__name__, repr(v), float(v).hex()


def _assert_float_matches(got, want):
    """The float operator ``got`` shows exactly the reference entries
    ``want``: key order and value bits; ``==`` both ways with the operator
    the validating constructor makes of them; text bytes; COO and CSR
    bytes."""
    assert got.mode == rf.MODE_FLOAT
    assert list(got.entries) == list(want)
    assert [_bits(v) for v in got.entries.values()] == [_bits(v) for v in want.values()]
    ref = FinitePropOp(got.space, want, "float")
    assert got == ref and ref == got
    assert rf.operator_to_text(got) == _reference_float_text(got.space, want, ref.propagation)
    coo = _reference_float_coo(want)
    for mine, theirs in zip(got._coo(), coo):
        assert mine.dtype == theirs.dtype and mine.tobytes() == theirs.tobytes()
    n = got.space.n_points
    csr = scipy.sparse.csr_matrix((coo[2], (coo[0], coo[1])), shape=(n, n))
    for attr in ("indptr", "indices", "data"):
        mine, theirs = getattr(got.to_csr(), attr), getattr(csr, attr)
        assert mine.dtype == theirs.dtype and mine.tobytes() == theirs.tobytes()


def _float_op(rng, sp, kind):
    """A float operator of one kind, its entries given in shuffled order so
    that its rows are not column-sorted."""
    pairs = sorted(rf.tube(sp, 2).pairs)
    pairs = [pairs[i] for i in rng.permutation(len(pairs)) if rng.random() < 0.6]
    if kind == "averaging":
        return averaging_for(sp).op.to_float()
    if kind == "rational-product":
        a, b = (random_rational_op(rng, sp, density=0.5) for _ in range(2))
        return (a @ b).to_float()
    if kind == "shared":
        # each component's rows are one stored row, as a projection's are
        rows = {}
        for m in range(sp.n_components):
            idx = sp.component_points(m).tolist()
            row = (1, {y: float(rng.normal()) for y in rng.permutation(idx).tolist()})
            rows.update(dict.fromkeys(idx, row))
        return FinitePropOp._sealed(sp, rows, "float")
    values = rng.normal(size=len(pairs)) * 10.0 ** rng.integers(-3, 4, size=len(pairs))
    op = FinitePropOp(sp, dict(zip(pairs, values.tolist())), "float")
    if kind == "complex":
        return op + 1j * op.adjoint()
    if kind == "negative-zero":
        # (1 + 0j) * v has imaginary part +0.0 and the adjoint makes it -0.0
        return ((1 + 0j) * op).adjoint()
    return op


_FLOAT_KINDS = ("real", "complex", "negative-zero", "shared", "averaging", "rational-product")


def _assert_reference_float_algebra(a, b):
    """Every float operation on ``a`` and ``b`` against its dict loop."""
    minus_b = _reference_float_scale(-1, b)
    _assert_float_matches(a + b, _reference_float_sum([a.entries, b.entries]))
    _assert_float_matches(a - b, _reference_float_sum([a.entries, minus_b]))
    _assert_float_matches(a - a, {})
    _assert_float_matches(operator_sum(a.space, (a, b, a - b, a), "float"),
                          _reference_float_sum([a.entries, b.entries, (a - b).entries,
                                                a.entries]))
    _assert_float_matches(a @ b, _reference_float_matmul(a, b))
    _assert_float_matches(b @ a, _reference_float_matmul(b, a))
    # rows holding one 1.0 pick a row of the other operand
    ident = FinitePropOp.identity(a.space).to_float()
    _assert_float_matches(ident @ a, _reference_float_matmul(ident, a))
    for c in (0, 3, -1, 0.5, 1e-300, Fraction(1, 3), 1 + 0j, -2.5j):
        _assert_float_matches(c * a, _reference_float_scale(c, a))
    for op in (a, b):
        _assert_float_matches(op.adjoint(), _reference_float_adjoint(op))
        _assert_float_matches(rf.row_sum_diagonal(op), _reference_float_row_sum_diagonal(op))
        for m in range(op.space.n_components):
            _assert_float_matches(rf.restrict(op, m), _reference_float_restrict(op, m))
        got, want = rf.uniform_sum_value(op), _reference_float_uniform_sum(op)
        assert (got is None) == (want is None)
        if want is not None:
            assert _bits(got) == _bits(want)


@settings(deadline=None, max_examples=60)
@given(st.integers(0, 10**6), st.integers(2, 8),
       st.sampled_from(_FLOAT_KINDS), st.sampled_from(_FLOAT_KINDS))
def test_float_algebra_matches_the_dict_reference(seed, n, left, right):
    rng = np.random.default_rng(seed)
    sp = random_space(rng, max_points=n, max_blocks=2)
    a = _float_op(rng, sp, left)
    b = _float_op(rng, sp, right)
    _assert_reference_float_algebra(a, b)
    _assert_reference_float_algebra(a @ b, a.adjoint() - b)


def test_float_reference_covers_signed_zeros_and_shared_rows():
    """The kinds the Hypothesis test draws from hold what the reference is
    there to catch: -0.0 imaginary parts, and stored rows several rows share."""
    rng = np.random.default_rng(3)
    sp = rf.disjoint_union([rf.make_cycle(5), rf.make_cycle(4)])
    negative = _float_op(rng, sp, "negative-zero")
    assert any(repr(v.imag) == "-0.0" for v in negative.entries.values())
    shared = _float_op(rng, sp, "shared")
    assert len({id(row) for row in shared._rows.values()}) == sp.n_components
    _assert_reference_float_algebra(negative, shared)
    _assert_reference_float_algebra(shared, negative @ shared)


def test_operator_sum():
    sp = rf.make_cycle(5)
    rng = np.random.default_rng(2)
    ops = [random_rational_op(rng, sp) for _ in range(4)]
    floats = [(1 / 3) * op.to_float() for op in ops]
    zero = FinitePropOp.zero(sp)
    for terms, mode, folded in ((ops, "rational", zero), (floats, "float", zero.to_float())):
        for op in terms:
            folded = folded + op
        total = operator_sum(sp, terms, mode)
        assert total == folded and list(total.entries) == list(folded.entries)
        assert total.propagation == folded.propagation
    assert operator_sum(sp, ops + [-op for op in ops], "rational") == FinitePropOp.zero(sp)
    assert operator_sum(sp, [], "rational") == FinitePropOp.zero(sp)
    assert operator_sum(sp, ops[:1], "rational") == ops[0]
    with pytest.raises(ScalarModeError):
        operator_sum(sp, floats, "rational")
    with pytest.raises(ScalarModeError):
        operator_sum(sp, ops[:1] + floats, "rational")
    with pytest.raises(SpaceMismatchError):
        operator_sum(rf.make_cycle(4), ops, "rational")
    with pytest.raises(ValueError):
        operator_sum(sp, [], "decimal")


def test_scalar_multiplication_by_fraction():
    sp = pair_space()
    op = FinitePropOp(sp, {(0, 1): Fraction(3, 2)})
    assert (Fraction(2, 3) * op).entries == {(0, 1): Fraction(1)}


def test_adjoint_transposes_and_conjugates():
    sp = pair_space()
    op = FinitePropOp(sp, {(0, 1): 1 + 2j}, mode="float")
    adj = op.adjoint()
    assert adj.entries == {(1, 0): 1 - 2j}
    rat = FinitePropOp(sp, {(0, 1): Fraction(3, 7)})
    assert rat.adjoint().adjoint() == rat


def test_mixed_modes_refuse_silently_promoting():
    sp = pair_space()
    rat = FinitePropOp.identity(sp)
    flo = FinitePropOp.identity(sp).to_float()
    with pytest.raises(ScalarModeError):
        rat + flo
    with pytest.raises(ScalarModeError):
        rat @ flo
    assert rat.to_float() + flo == 2.0 * flo


def test_to_float_makes_a_new_operator_on_every_call():
    op = FinitePropOp.identity(rf.make_cycle(3))
    flo = op.to_float()
    assert flo == op.to_float() and flo is not op.to_float()
    assert flo.to_float() is flo


def test_cross_space_operations_rejected():
    a = FinitePropOp.identity(rf.make_cycle(3))
    b = FinitePropOp.identity(rf.make_cycle(4))
    with pytest.raises(SpaceMismatchError):
        a + b


def test_dense_csr_matvec_agree():
    sp = rf.make_cycle(5)
    op = random_rational_op(np.random.default_rng(11), sp)
    d = op.to_dense().astype(float)
    x = np.random.default_rng(0).normal(size=5)
    assert np.allclose(op.to_csr() @ x, d @ x)
    # one dtype for all entries: a single complex entry makes both forms complex
    mixed = FinitePropOp(sp, {(0, 1): 0.5, (1, 0): 1 + 2j, (2, 2): -1.0}, mode="float")
    dense = mixed.to_dense()
    assert dense.dtype == complex and mixed.to_csr().dtype == complex
    assert np.array_equal(dense, mixed.to_csr().toarray())
    for zero in (FinitePropOp.zero(sp), FinitePropOp.zero(sp).to_float()):
        zero = zero.to_csr()
        assert zero.shape == (5, 5) and zero.dtype == float and zero.nnz == 0


@pytest.mark.parametrize("mode", ["rational", "float"])
def test_editing_an_entries_view_changes_no_later_read(mode):
    sp = pair_space()
    op = FinitePropOp(sp, {(0, 1): 1, (1, 0): 2}, mode)
    entries, text = op.entries, rf.operator_to_text(op)
    op.entries[(0, 1)] = 99
    assert op.entries == entries
    assert rf.operator_to_text(op) == text


@pytest.mark.parametrize("mode", ["rational", "float"])
def test_editing_a_matrix_changes_no_later_matvec(mode):
    sp = pair_space()
    op = FinitePropOp(sp, {(0, 1): 1, (1, 0): 2}, mode)
    x = np.array([1.0, 10.0])
    op.to_csr().data[:] = 0
    assert (op.to_csr() @ x).tolist() == [10.0, 2.0]
    assert op.to_csr().toarray().tolist() == [[0.0, 1.0], [2.0, 0.0]]


def test_coo_arrays_match_the_entry_list():
    """Index and value arrays are those of the plain list conversion, byte
    for byte, in every mode; only float operators are scanned for complex
    values."""
    sp = rf.make_cycle(5)
    rational = random_rational_op(np.random.default_rng(4), sp)
    ops = [(rational, float), (rational.to_float(), float),
           ((1 + 1j) * rational.to_float(), complex),
           (FinitePropOp.zero(sp), float), (FinitePropOp.zero(sp).to_float(), float)]
    for op, dtype in ops:
        keys = np.array(list(op.entries), dtype=np.int64).reshape(-1, 2)
        values = np.array(list(op.entries.values()), dtype=dtype)
        rows, cols, vals = op._coo()
        for got, want in ((rows, keys[:, 0]), (cols, keys[:, 1]), (vals, values)):
            assert got.dtype == want.dtype and got.tobytes() == want.tobytes()


def test_sup_entry_norm_and_support():
    sp = rf.make_cycle(4)
    op = FinitePropOp(sp, {(0, 1): Fraction(-5, 2), (2, 2): Fraction(1)})
    assert op.support().pairs == frozenset([(0, 1), (2, 2)])


def test_row_sum_diagonal():
    """Row sums of [[1,2],[3,4]] land on the diagonal as (3, 7)."""
    sp = pair_space()
    op = FinitePropOp(sp, {(0, 0): Fraction(1), (0, 1): Fraction(2),
                           (1, 0): Fraction(3), (1, 1): Fraction(4)})
    phi = rf.row_sum_diagonal(op)
    assert phi == FinitePropOp.diagonal(sp, {0: Fraction(3), 1: Fraction(7)})


def test_uniform_sum_detection():
    sp = rf.make_cycle(4)
    ident = FinitePropOp.identity(sp)
    assert rf.uniform_sum_value(ident) == 1
    skew = FinitePropOp.diagonal(sp, {0: Fraction(1)})
    assert rf.uniform_sum_value(skew) is None


def test_uniform_sum_needs_column_sums_too():
    sp = pair_space()
    # rows both sum to 1 but columns do not
    op = FinitePropOp(sp, {(0, 0): Fraction(1), (1, 0): Fraction(1)})
    assert rf.uniform_sum_value(op) is None


def test_uniform_sum_zero_operator():
    assert rf.uniform_sum_value(FinitePropOp.zero(rf.make_cycle(3))) == 0


def _reference_uniform_sum(op):
    """The plain loop over stored values: every row and column sum as a Fraction sum."""
    n = op.space.n_points
    rows, cols = [0] * n, [0] * n
    for (x, y), v in op.entries.items():
        rows[x] += v
        cols[y] += v
    c = rows[0]
    return c if all(s == c for s in rows + cols) else None


def test_exact_uniform_sum_matches_fraction_loop():
    k4 = rf.make_complete(4)
    perms = [PermutationOp(k4, p).op for p in ([1, 0, 3, 2], [2, 3, 0, 1], [3, 2, 1, 0])]
    one = rf.space_from_graph(["p"], [], name="one")
    ops = {
        "int": perms[0] + 2 * perms[1],
        "int-zero-sum": perms[0] - perms[1],
        "fraction": Fraction(1, 3) * perms[0] + Fraction(2, 3) * perms[1],
        "mixed": perms[0] - Fraction(5, 6) * perms[1] + Fraction(7, 10) * perms[2],
        "mixed-integer-valued": Fraction(1, 2) * perms[0] + Fraction(1, 2) * perms[1]
                                + perms[2],
        # rows and columns sum to 1 over lcms 3 and 2
        "per-line-lcms": FinitePropOp(k4, {
            (0, 0): Fraction(1, 3), (0, 1): Fraction(2, 3), (1, 0): Fraction(2, 3),
            (1, 1): Fraction(1, 3), (2, 2): Fraction(1, 2), (2, 3): Fraction(1, 2),
            (3, 2): Fraction(1, 2), (3, 3): Fraction(1, 2)}),
        "rows-only": FinitePropOp(k4, {(x, 0): Fraction(1, 3) for x in range(4)}),
        "one-column-off": Fraction(1, 3) * perms[0]
                          + FinitePropOp(k4, {(0, 1): Fraction(2, 3), (1, 1): Fraction(2, 3),
                                              (2, 3): Fraction(2, 3), (3, 2): Fraction(2, 3)}),
        "zero": FinitePropOp.zero(k4),
        "one-point-int": FinitePropOp(one, {(0, 0): 3}),
        "one-point-fraction": FinitePropOp(one, {(0, 0): Fraction(-5, 7)}),
        "one-point-zero": FinitePropOp.zero(one),
        # row 0 stores nothing, so the common sum read off it is 0
        "row-0-empty": FinitePropOp(k4, {(1, 1): 1, (1, 2): -1, (2, 1): -1, (2, 2): 1}),
        "row-0-empty-off": FinitePropOp(k4, {(x, x): Fraction(1, 2) for x in (1, 2, 3)}),
        # distinct ~40-bit denominators, one per permutation or per entry
        "wide": sum((Fraction(a, q) * p for a, q, p in zip(
            (3, -5, 7), (2**40 + 15, 2**40 + 61, 2**41 - 1), perms)), FinitePropOp.zero(k4)),
        "wide-off": FinitePropOp(k4, {(x, y): Fraction(x + y + 1, 2**40 + 4 * x + y)
                                      for x in range(4) for y in range(4)}),
    }
    rng = np.random.default_rng(5)
    for i in range(20):
        ops[f"random-{i}"] = random_rational_op(rng, random_space(rng))
    uniform = {name for name, op in ops.items() if _reference_uniform_sum(op) is not None}
    assert {"rows-only", "one-column-off", "row-0-empty-off", "wide-off"}.isdisjoint(uniform)
    assert {"row-0-empty", "wide"} <= uniform
    assert len(uniform) == 12
    for name, op in ops.items():
        got, want = rf.uniform_sum_value(op), _reference_uniform_sum(op)
        assert (got is None) == (want is None), name
        if want is not None:
            assert got == want, name
            assert type(got) is (int if want.denominator == 1 else Fraction), name


def test_uniform_sum_float_tolerance():
    sp = pair_space()
    op = FinitePropOp(sp, {(0, 0): 1.0, (1, 1): 1.0 + 1e-14}, mode="float")
    assert rf.uniform_sum_value(op) == pytest.approx(1.0)
    off = FinitePropOp(sp, {(0, 0): 1.0, (1, 1): 1.5}, mode="float")
    assert rf.uniform_sum_value(off) is None
    # float and complex operators, uniform, within the tolerance and past it,
    # against the plain loop
    rng = np.random.default_rng(9)
    seen = set()
    for _ in range(40):
        sp = random_space(rng)
        avg = averaging_for(sp).op.to_float()
        tiny = FinitePropOp.diagonal(sp, {0: 1e-14}, "float")
        near = avg + FinitePropOp.diagonal(sp, {0: 1e-3}, "float")
        for op in (avg, avg + tiny, near, (0.5 - 2j) * avg, avg + 1j * tiny,
                   _float_op(rng, sp, "real"), _float_op(rng, sp, "complex"),
                   FinitePropOp.zero(sp).to_float(), avg - avg @ avg):
            got, want = rf.uniform_sum_value(op), _reference_float_uniform_sum(op)
            assert (got is None) == (want is None)
            if want is not None:
                assert _bits(got) == _bits(want)
            seen.add(None if want is None else type(want))
    assert seen == {None, int, float, complex}


def test_partial_translation_basics():
    sp = rf.make_cycle(4)
    t = PartialTranslation(sp, {0: 1, 2: 3})
    assert t.domain == (0, 2)
    assert t.image == (1, 3)
    assert t.graph == ((1, 0), (3, 2))
    op = t.as_operator()
    assert op.entries == {(1, 0): 1, (3, 2): 1}
    assert t.as_operator().to_float().entries == {(1, 0): 1.0, (3, 2): 1.0}
    assert op @ op.adjoint() == FinitePropOp.diagonal(sp, {1: 1, 3: 1})


def test_partial_translation_rejects_non_injective():
    sp = rf.make_cycle(4)
    with pytest.raises(ValueError):
        PartialTranslation(sp, {0: 1, 2: 1})


def test_partial_translation_rejects_uncontrolled():
    sp = two_blocks()
    with pytest.raises(UncontrolledSupportError):
        PartialTranslation(sp, {0: 2})


def test_permutation_op():
    sp = rf.make_cycle(4)
    swap = PermutationOp.from_swaps(sp, [(0, 1), (2, 3)])
    assert swap.is_involution
    assert swap.op @ swap.op == FinitePropOp.identity(sp)
    assert swap.adjoint() == swap
    assert swap.op is swap.op  # cached
    ident = PermutationOp.identity(sp)
    assert ident.op == FinitePropOp.identity(sp)


def test_permutation_rejects_non_bijection():
    sp = rf.make_cycle(3)
    with pytest.raises(ValueError):
        PermutationOp(sp, [0, 0, 1])


@pytest.mark.parametrize("pair, message", [
    ((0, 7), r"^swap \(0, 7\) out of range for 5 points$"),
    ((-1, 1), r"^swap \(-1, 1\) out of range for 5 points$"),
    ((0.5, 1), r"^point index must be an integer, got 0\.5$"),
    ((True, 2), r"^point index must be an integer, got True$"),
])
def test_from_swaps_checks_each_index(pair, message):
    with pytest.raises(ValueError, match=message):
        PermutationOp.from_swaps(rf.make_cycle(5), [pair])


def test_permutation_adjoint_inverts():
    sp = rf.make_complete(3)
    cyc = PermutationOp(sp, [1, 2, 0])
    assert not cyc.is_involution
    assert (cyc.adjoint().op @ cyc.op) == FinitePropOp.identity(sp)


def test_invariance_defect_swap():
    """A swap moves the first basis vector to the second: defect 2*sqrt(2)
    against the vector (1, -1)."""
    sp = pair_space()
    v = PermutationOp.from_swaps(sp, [(0, 1)]).op
    assert rf.invariance_defect(v, [1.0, -1.0]) == pytest.approx(2 * math.sqrt(2))
    assert rf.invariance_defect(v, [1.0, 1.0]) == pytest.approx(0.0)


def test_invariance_defect_requires_translation_structure():
    sp = pair_space()
    malformed = [
        FinitePropOp(sp, {(0, 1): Fraction(2)}),
        FinitePropOp(sp, {(0, 0): Fraction(1), (0, 1): Fraction(1)}),   # two in a row
        FinitePropOp(sp, {(0, 1): 1, (1, 1): 1}),                       # a repeated column
        FinitePropOp(sp, {(0, 1): Fraction(1, 2), (1, 0): 1}),
    ]
    for op in malformed + [op.to_float() for op in malformed]:
        with pytest.raises(ValueError, match="^operator is not a partial translation matrix$"):
            rf.invariance_defect(op, [1.0, 0.0])
    # the float and complex forms of a translation pass
    v = PartialTranslation(sp, {0: 1}).as_operator()
    for op in (v, v.to_float(), (1 + 0j) * v.to_float()):
        assert rf.invariance_defect(op, [1.0, 0.0]) == pytest.approx(1.0)


def test_single_pair_translations_enumeration():
    sp = rf.make_complete(3)
    ts = rf.single_pair_translations(sp)
    assert len(ts) == 6
    sp2 = two_blocks()
    assert len(rf.single_pair_translations(sp2)) == 4  # no cross-component moves


def test_invariant_subspace_is_component_constants():
    sp = rf.disjoint_union([rf.make_cycle(3), rf.make_complete(2)])
    basis = rf.invariant_subspace_basis(sp)
    assert basis.shape == (5, 2)
    for col in basis.T:
        assert np.allclose(col[:3], col[0])
        assert np.allclose(col[3:], col[3])


def test_invariant_subspace_default_family_size_cap():
    with pytest.raises(ValueError):
        rf.invariant_subspace_basis(rf.make_cycle(65))
    # explicit families are fine at any size
    sp = rf.make_cycle(65)
    ops = [t.as_operator() for t in rf.single_pair_translations(sp)[:4]]
    basis = rf.invariant_subspace_basis(sp, ops=ops)
    assert basis.shape[0] == 65


def test_operator_text_round_trip_rational():
    sp = pair_space()
    op = FinitePropOp(sp, {(0, 0): Fraction(3, 2), (1, 0): Fraction(-2)})
    text = rf.operator_to_text(op)
    assert text == "operator pair rational 1.0\nentry a a 3/2\nentry b a -2\n"
    assert rf.operator_from_text(text, sp) == op


def test_operator_text_round_trip_float():
    sp = pair_space()
    op = FinitePropOp(sp, {(0, 1): 0.1, (1, 1): -2.5}, mode="float")
    text = rf.operator_to_text(op)
    assert rf.operator_from_text(text, sp) == op
    assert "0.1" in text  # repr round-trips shortest form


def test_operator_text_errors():
    sp = pair_space()
    op_text = "operator pair rational 1.0\nentry a a 3/2\n"
    with pytest.raises(OperatorParseError):
        rf.operator_from_text(op_text.replace("pair", "other"), sp)
    with pytest.raises(OperatorParseError) as err:
        rf.operator_from_text(op_text + "entry a a 1\n", sp)  # duplicate
    assert err.value.line == 3
    with pytest.raises(OperatorParseError,
                       match="^line 3: no point named 'q' in space 'pair'$"):
        rf.operator_from_text(op_text + "entry a q 1\n", sp)  # unknown point
    with pytest.raises(OperatorParseError) as err:
        rf.operator_from_text("operator pair rational 1.0\nentry a a x\n", sp)
    assert err.value.line == 2
    # header propagation must match the recomputed value
    with pytest.raises(OperatorParseError):
        rf.operator_from_text("operator pair rational 0.0\nentry a b 1\n", sp)
    # float values must be finite
    for tok in ("1e400", "nan", "-inf", "1e400j", "nan+1j"):
        with pytest.raises(OperatorParseError, match="non-finite") as err:
            rf.operator_from_text(f"operator pair float 0.0\nentry a a 1.0\n"
                                  f"entry b b {tok}\n", sp)
        assert err.value.line == 3
    header = re.escape("expected header 'operator <space> <mode> <propagation>'")
    entry = re.escape("expected 'entry <x> <y> <value>'")
    for text, line, msg in (("entry a a 1\n", 1, header),
                            ("operator pair rational\n", 1, header),
                            ("operator pair exact 1.0\n", 1, "unknown scalar mode 'exact'"),
                            ("operator pair rational wide\n", 1, "bad propagation 'wide'"),
                            (op_text + "entry a a\n", 3, entry),
                            (op_text + "value a a 1\n", 3, entry),
                            ("", None, "no operator header found"),
                            ("# operator pair rational 1.0\n", None, "no operator header found")):
        with pytest.raises(OperatorParseError, match=msg) as err:
            rf.operator_from_text(text, sp)
        assert err.value.line == line


def test_operator_text_reads_back_in_time_linear_in_the_points():
    # 16,384 points: a name lookup that scans the points took 4 s here
    sp = rf.make_margulis(128)
    op = FinitePropOp.identity(sp)
    text = rf.operator_to_text(op)
    start = time.perf_counter()
    assert rf.operator_from_text(text, sp) == op
    assert time.perf_counter() - start < 1.5


def test_to_float_names_an_entry_beyond_float_range():
    op = FinitePropOp(rf.make_cycle(3), {(0, 0): 1, (2, 1): Fraction(10**400, 3)})
    for convert in (op.to_float, op.to_csr, op.to_dense):
        with pytest.raises(ValueError, match=r"entry \(2, 1\) is beyond float range"):
            convert()
    tiny = FinitePropOp(rf.make_cycle(3), {(0, 0): Fraction(1, 10**400), (1, 1): 2})
    assert tiny.to_float().entries == {(1, 1): 2.0}


def test_operator_text_rejects_spacey_point_names():
    sp = rf.FiniteSpace(["a b", "c"], [[0, 1], [1, 0]])
    with pytest.raises(ValueError):
        rf.operator_to_text(FinitePropOp.identity(sp))


# -- property-based algebra axioms -------------------------------------------

def _ops_from_seed(seed, n, count):
    rng = np.random.default_rng(seed)
    sp = random_space(rng, max_points=n, max_blocks=2)
    return [random_rational_op(rng, sp, density=0.5) for _ in range(count)]


@settings(deadline=None, max_examples=40)
@given(st.integers(0, 10**6), st.integers(3, 8))
def test_ring_axioms(seed, n):
    a, b, c = _ops_from_seed(seed, n, 3)
    assert (a + b) @ c == a @ c + b @ c
    assert a @ (b + c) == a @ b + a @ c
    assert (a @ b) @ c == a @ (b @ c)
    assert a + b == b + a


@settings(deadline=None, max_examples=40)
@given(st.integers(0, 10**6), st.integers(3, 8))
def test_star_and_propagation_axioms(seed, n):
    a, b = _ops_from_seed(seed, n, 2)
    assert (a @ b).adjoint() == b.adjoint() @ a.adjoint()
    assert (a + b).adjoint() == a.adjoint() + b.adjoint()
    assert a.adjoint().adjoint() == a
    assert (a @ b).propagation <= a.propagation + b.propagation
    assert (a + b).propagation <= max(a.propagation, b.propagation)
    assert a.adjoint().propagation == a.propagation
    af, bf = a.to_float(), b.to_float()
    for r in (a + b, a @ b, a.adjoint(), Fraction(-3, 2) * a, af,
              af + bf, af @ bf, af.adjoint(), 0.5 * af):
        # closed results skip validation; the validating constructor agrees
        rebuilt = FinitePropOp(r.space, r.entries, r.mode)
        assert rebuilt == r
        assert rebuilt.propagation == r.propagation
        assert list(rebuilt.entries) == list(r.entries)


@settings(deadline=None, max_examples=40)
@given(st.integers(0, 10**6), st.integers(3, 8))
def test_row_sums_are_additive(seed, n):
    a, b = _ops_from_seed(seed, n, 2)
    assert rf.row_sum_diagonal(a + b) == rf.row_sum_diagonal(a) + rf.row_sum_diagonal(b)


def test_only_transalg_touches_the_row_format():
    """An operator's rows ``{x: (d, {y: n})}`` are read and built in
    transalg alone: no other module reads ``._rows``, names ``_lowest`` or
    calls ``FinitePropOp._sealed``."""
    pattern = re.compile(r"\._rows\b|\b_lowest\b|FinitePropOp\._sealed\b")
    found = [f"{path.name}:{n}: {line.strip()}"
             for path in sorted(Path(transalg.__file__).parent.glob("*.py"))
             if path.name != "transalg.py"
             for n, line in enumerate(path.read_text().splitlines(), start=1)
             if pattern.search(line)]
    assert found == []
