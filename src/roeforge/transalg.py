"""Finite-propagation operators over a finite space, and partial translations.

An operator here is a sparse matrix indexed by the points of a
:class:`~roeforge.space.FiniteSpace` whose support stays at finite distance
from the diagonal — every nonzero entry ``(x, y)`` connects points in the
same coarse component, and the largest distance over the support is the
operator's *propagation*.  Together these matrices form a *-algebra; this
module implements it in two scalar modes:

* ``"rational"`` — entries are ``int`` / ``Fraction``; sums and products
  are exact, which is what the algebraic identities in
  :mod:`roeforge.kazhdan` are verified in;
* ``"float"`` — entries are ``float`` / ``complex``; this is the mode the
  spectral routines consume.

Both modes keep an operator the same way, as rows ``(d, {y: n})`` meaning
entry ``(x, y) = n / d``: a rational row holds integer numerators over one
denominator, a float row holds its values over 1.  Every operation is one
body over those rows; the modes differ only in how a value is read in
(:func:`_as_ratio`), in :meth:`FinitePropOp.adjoint` (float values are
conjugated) and in which values :meth:`FinitePropOp.to_float` and the
matrix conversions read.  Conversion is explicit and one-way
(:meth:`FinitePropOp.to_float`); mixing modes in arithmetic raises
:class:`~roeforge.errors.ScalarModeError`.
"""

from __future__ import annotations

import cmath
import math
from fractions import Fraction
from itertools import chain
from typing import Iterable, Mapping, Sequence

import numpy as np
import scipy.sparse as sp

from .errors import (
    NotUniformSumError,
    OperatorParseError,
    ScalarModeError,
    SpaceMismatchError,
)
from .space import ControlledSet, FiniteSpace, support_diameter

__all__ = [
    "MODE_RATIONAL",
    "MODE_FLOAT",
    "FinitePropOp",
    "PartialTranslation",
    "PermutationOp",
    "row_sum_diagonal",
    "uniform_sum_value",
    "uniform_sum",
    "invariance_defect",
    "single_pair_translations",
    "invariant_subspace_basis",
    "operator_to_text",
    "operator_from_text",
]

MODE_RATIONAL = "rational"
MODE_FLOAT = "float"

_RATIONAL_TYPES = (int, Fraction)
_FLOAT_TYPES = (int, float, complex, Fraction)


def _check_mode(mode: str):
    if mode not in (MODE_RATIONAL, MODE_FLOAT):
        raise ValueError(f"unknown scalar mode {mode!r}")


def _lowest(d: int, row: dict) -> tuple:
    """``(d, row)``, nonzero numerators over ``d > 0``, in lowest terms: both
    divided by the gcd of ``d`` and all of ``row``, one C-level call.  A
    float row, over 1, is kept as it is."""
    if d == 1:
        return 1, row
    g = math.gcd(d, *row.values())
    if g == 1:
        return d, row
    return d // g, {y: n // g for y, n in row.items()}


def _reduced(d: int, acc: dict):
    """:func:`_lowest` of ``acc / d`` with its zero numerators dropped; None if all are."""
    if 0 in acc.values():
        acc = {y: n for y, n in acc.items() if n}
        if not acc:
            return None
    return _lowest(d, acc)


def _rows_of(ratios: Mapping) -> dict:
    """The rows of a mapping ``(x, y) -> (p, q)`` of :func:`_as_ratio`
    values, zeros dropped.

    Over the lcm of a row's reduced denominators the numerators already
    have no common factor with it, so no gcd is taken.
    """
    grouped: dict[int, dict] = {}
    for (x, y), (p, q) in ratios.items():
        if p:
            grouped.setdefault(x, {})[y] = (p, q)
    rows = {}
    for x, row in grouped.items():
        d = math.lcm(*[q for _, q in row.values()])
        rows[x] = (d, {y: p if q == d else p * (d // q) for y, (p, q) in row.items()})
    return rows


def _row_sum(a: tuple, b: tuple) -> tuple:
    """The sum of two rows ``(d, numerators)``, zeros kept and not reduced.

    A numerator is scaled only when its denominator changes, and one in
    ``b`` alone is taken as it is: ``v * 1`` and ``0 + v`` can both flip
    the sign of a complex value's zero imaginary part.
    """
    (da, ra), (db, rb) = a, b
    d = math.lcm(da, db)
    fa, fb = d // da, d // db
    acc = dict(ra) if fa == 1 else {y: n * fa for y, n in ra.items()}
    get = acc.get
    for y, n in rb.items():
        if fb != 1:
            n *= fb
        s = get(y)
        acc[y] = n if s is None else s + n
    return d, acc


def _row_product(left: tuple, right: dict):
    """Row ``left`` times the operator whose rows are ``right``; None if 0.

    The sum is taken over ``d`` times the lcm of the denominators of the
    rows of ``right`` that ``left`` meets, over the columns of ``left`` in
    ascending order, so that float sums round the same way every time.
    """
    d, row = left
    met = [(row[z], right[z]) for z in sorted(row) if z in right]
    if not met:
        return None
    if d == 1 and len(met) == 1 and type(met[0][0]) is int and met[0][0] == 1:
        # an int row with one 1 picks a row of the right operand: share it
        # (a float row is summed as 0 + 1.0 * v, whose bits can differ)
        return met[0][1]
    m = math.lcm(*[dz for _, (dz, _) in met])
    acc = {}
    get = acc.get
    for a, (dz, rz) in met:
        if dz != m:
            a *= m // dz
        for y, b in rz.items():
            acc[y] = get(y, 0) + a * b
    return _reduced(d * m, acc)


def _overflows(n: int, d: int) -> bool:
    """Whether ``n / d`` is too large for a float."""
    try:
        n / d
    except OverflowError:
        return True
    return False


def _exact_value(n, d: int):
    """``n / d`` as the entry view shows it: the stored value over 1, else
    an int or a reduced Fraction."""
    if d == 1:
        return n
    return n // d if n % d == 0 else Fraction(n, d)


def _in_order(rows: dict):
    """``(x, d, y, n)`` for each stored numerator, in sorted pair order."""
    for x in sorted(rows):
        d, row = rows[x]
        for y in sorted(row):
            yield x, d, y, row[y]


def _check_compatible(space: FiniteSpace, mode: str, op: "FinitePropOp"):
    """Refuse to combine ``op`` with operators over ``space`` in ``mode``."""
    if op.space is not space:
        raise SpaceMismatchError("operators live over different spaces")
    if op.mode != mode:
        raise ScalarModeError(
            f"cannot mix {mode} and {op.mode} operators; "
            "convert explicitly with to_float()")


def _as_ratio(v, mode: str) -> tuple:
    """Validate one entry value for the given mode, as ``(p, q)`` with value
    ``p / q``: in lowest terms in rational mode, a float or complex over 1
    in float mode."""
    if isinstance(v, bool):
        raise TypeError("bool is not a valid entry value")
    if mode == MODE_RATIONAL:
        if not isinstance(v, _RATIONAL_TYPES):
            raise TypeError(f"rational mode takes int/Fraction entries, got {type(v).__name__}")
        return v.as_integer_ratio()
    if not isinstance(v, _FLOAT_TYPES):
        raise TypeError(f"float mode takes numeric entries, got {type(v).__name__}")
    try:
        f = v if isinstance(v, complex) else float(v)
    except OverflowError:
        raise ValueError("float mode entry is beyond float range") from None
    if not cmath.isfinite(f):
        raise ValueError(f"float mode takes finite entries, got {f!r}")
    return f, 1


class FinitePropOp:
    """A finite-propagation matrix over a fixed space.

    ``entries`` maps ordered index pairs ``(x, y)`` to nonzero values in
    sorted pair order, which makes row sums, serialisation and float
    arithmetic deterministic; zeros are dropped at construction, before the
    support is checked.  The constructor validates caller input: each
    value, then the support, in one call to
    :func:`~roeforge.space.support_diameter`.  Every operator the package
    derives from operators it already holds (``+``, ``@``, scalar ``*``,
    :meth:`adjoint`, :meth:`to_float`, :meth:`identity`, :meth:`zero`,
    restrictions, projections, averaging operators, decomposition
    idempotents) is valid by construction and skips that check; its
    ``propagation`` is computed when first read.

    Both modes store, for each nonzero row x, one pair ``(d_x, {y: n_xy})``
    with entry ``(x, y)`` equal to ``n_xy / d_x``.  A float row is its
    values over 1.  A rational row holds Python ints in lowest terms: d_x
    is the lcm of the row's reduced denominators, so after any operation
    it is the common denominator divided by its gcd with all the row's
    numerators.  Two operators are equal exactly when their rows are.  A
    product's row x is taken over d_x times the lcm of the denominators of
    the right operand's rows that row x meets; one lcm per operand would be
    simpler, but an operand with many distinct wide denominators has an
    lcm thousands of bits wide.  Float values are added in ascending column
    order where the order can change their bits, along the left row of a
    product and in a row sum.  Rows are never changed once stored, so
    operators share them.  ``entries`` is a read-only view built when first
    read: a float row's stored values, and for a rational row an int
    wherever the reduced denominator is 1 and a ``Fraction`` otherwise.
    """

    __slots__ = ("space", "mode", "_rows", "_entries", "_propagation", "_csr", "_float")

    def __init__(self, space: FiniteSpace, entries: Mapping, mode: str = MODE_RATIONAL):
        _check_mode(mode)
        ratios = {(int(x), int(y)): _as_ratio(v, mode) for (x, y), v in entries.items()}
        self._store(space, _rows_of(ratios), mode)
        self._propagation = support_diameter(space, *self._pairs())

    def _store(self, space: FiniteSpace, rows: Mapping, mode: str):
        """Keep ``rows``, ``{x: (d, {y: n})}`` in lowest terms, zeros dropped."""
        self.space = space
        self.mode = mode
        self._rows = rows
        self._entries = None
        self._propagation = None
        self._csr = None
        self._float = None

    @classmethod
    def _sealed(cls, space: FiniteSpace, rows: Mapping,
                mode: str = MODE_RATIONAL) -> "FinitePropOp":
        """An operator whose support is controlled by construction, from the
        rows :meth:`_store` keeps: the package's own results skip the checks
        and run no numpy."""
        _check_mode(mode)
        op = cls.__new__(cls)
        op._store(space, rows, mode)
        return op

    @classmethod
    def _ones(cls, space: FiniteSpace, pairs: Iterable[tuple[int, int]],
              mode: str = MODE_RATIONAL) -> "FinitePropOp":
        """The 0/1 operator with a 1 at each ``(x, y)``, one per row."""
        one, _ = _as_ratio(1, mode)
        return cls._sealed(space, {x: (1, {y: one}) for x, y in pairs}, mode)

    @property
    def entries(self) -> dict:
        """``{(x, y): value}`` in sorted pair order, zeros dropped."""
        if self._entries is None:
            self._entries = {(x, y): _exact_value(n, d)
                             for x, d, y, n in _in_order(self._rows)}
        return self._entries

    @property
    def propagation(self) -> float:
        """Largest distance over the support, computed when first read."""
        if self._propagation is None:
            self._propagation = support_diameter(self.space, *self._pairs())
        return self._propagation

    def _keys(self):
        """The support pairs, row by row."""
        return ((x, y) for x, (_, row) in self._rows.items() for y in row)

    def _pairs(self):
        """Row and column index arrays of the support, row by row."""
        rows = self._rows
        lens = [len(row) for _, row in rows.values()]
        xs = np.repeat(np.fromiter(rows, dtype=np.int64, count=len(rows)), lens)
        ys = np.fromiter(chain.from_iterable([row for _, row in rows.values()]),
                         dtype=np.int64, count=len(xs))
        return xs, ys

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls, space: FiniteSpace, mode: str = MODE_RATIONAL) -> "FinitePropOp":
        return cls._sealed(space, {}, mode)

    @classmethod
    def identity(cls, space: FiniteSpace, mode: str = MODE_RATIONAL) -> "FinitePropOp":
        return cls._ones(space, ((i, i) for i in range(space.n_points)), mode)

    @classmethod
    def diagonal(cls, space: FiniteSpace, values, mode: str = MODE_RATIONAL) -> "FinitePropOp":
        """Diagonal operator from a mapping ``index -> value`` or a full sequence."""
        if isinstance(values, Mapping):
            items = values.items()
        else:
            items = enumerate(values)
        return cls(space, {(int(i), int(i)): v for i, v in items}, mode)

    # -- basic protocol ----------------------------------------------------

    def __repr__(self) -> str:
        return (f"FinitePropOp({self.space.name!r}, mode={self.mode!r}, "
                f"nnz={self.nnz}, propagation={self.propagation})")

    def __eq__(self, other) -> bool:
        if not isinstance(other, FinitePropOp):
            return NotImplemented
        return (self.space is other.space and self.mode == other.mode
                and self._rows == other._rows)

    __hash__ = None

    @property
    def nnz(self) -> int:
        return sum(len(row) for _, row in self._rows.values())

    def support(self) -> ControlledSet:
        """The support as a controlled set (exact diameter = propagation)."""
        return ControlledSet(self.space, frozenset(self._keys()), self.propagation)

    # -- algebra -----------------------------------------------------------

    def __add__(self, other: "FinitePropOp") -> "FinitePropOp":
        if not isinstance(other, FinitePropOp):
            return NotImplemented
        return operator_sum(self.space, (self, other), self.mode)

    def __sub__(self, other: "FinitePropOp") -> "FinitePropOp":
        if not isinstance(other, FinitePropOp):
            return NotImplemented
        return self + (-1) * other

    def __neg__(self) -> "FinitePropOp":
        return (-1) * self

    def __rmul__(self, scalar) -> "FinitePropOp":
        p, q = _as_ratio(scalar, self.mode)
        if p == 0:
            return FinitePropOp.zero(self.space, self.mode)
        # a float product can underflow to 0
        return FinitePropOp._sealed(self.space, {
            x: r for x, (d, row) in self._rows.items()
            if (r := _reduced(d * q, {y: p * n for y, n in row.items()})) is not None},
            self.mode)

    def __mul__(self, scalar) -> "FinitePropOp":
        if isinstance(scalar, FinitePropOp):
            raise TypeError("use @ for operator products, * for scalars")
        return self.__rmul__(scalar)

    def __matmul__(self, other: "FinitePropOp") -> "FinitePropOp":
        if not isinstance(other, FinitePropOp):
            return NotImplemented
        _check_compatible(self.space, self.mode, other)
        right = other._rows
        rows, done = {}, {}
        for x, row in self._rows.items():
            # operators share rows (a projection's block shares one), and
            # each distinct stored row is multiplied once
            key = id(row)
            if key not in done:
                done[key] = _row_product(row, right)
            if done[key] is not None:
                rows[x] = done[key]
        return FinitePropOp._sealed(self.space, rows, self.mode)

    def adjoint(self) -> "FinitePropOp":
        rows = self._rows
        if self.mode == MODE_FLOAT:
            rows = {x: (d, {y: v.conjugate() for y, v in row.items()})
                    for x, (d, row) in rows.items()}
        # a transpose, each column over the lcm of the row denominators it
        # crosses
        cols: dict[int, dict] = {}
        lcms: dict[int, int] = {}
        for x, (d, row) in rows.items():
            for y, n in row.items():
                col = cols.get(y)
                if col is None:
                    cols[y] = {x: n}
                    lcms[y] = d
                else:
                    col[x] = n
                    if lcms[y] % d:
                        lcms[y] = math.lcm(lcms[y], d)
        out = {}
        for y, col in cols.items():
            m = lcms[y]
            if m != 1:
                col = {x: n if rows[x][0] == m else n * (m // rows[x][0])
                       for x, n in col.items()}
            out[y] = _lowest(m, col)
        return FinitePropOp._sealed(self.space, out, self.mode)

    # -- conversions -------------------------------------------------------

    def to_float(self) -> "FinitePropOp":
        """Explicit promotion to float mode (the only direction allowed).

        An entry n / d is correctly rounded, as ``float(Fraction(n, d))`` is.
        An entry beyond float range raises ValueError naming its ``(x, y)``.
        """
        if self.mode == MODE_FLOAT:
            return self
        if self._float is None:
            try:
                # a tiny n / d can round to 0
                self._float = FinitePropOp._sealed(self.space, {
                    x: r for x, (d, row) in self._rows.items()
                    if (r := _reduced(1, {y: n / d for y, n in row.items()})) is not None},
                    MODE_FLOAT)
            except OverflowError:
                x, y = next((x, y) for x, (d, row) in self._rows.items()
                            for y, n in row.items() if _overflows(n, d))
                raise ValueError(f"entry ({x}, {y}) is beyond float range") from None
        return self._float

    def _coo(self):
        """Row, column and value arrays in sorted pair order; values complex
        if any entry is, else float."""
        if self.mode == MODE_RATIONAL:
            return self.to_float()._coo()
        rows, cols = self._pairs()
        # float rows hold floats and complexes only, so numpy picks the dtype
        vals = np.array(list(chain.from_iterable([row.values() for _, row in self._rows.values()])))
        order = np.lexsort((cols, rows))
        return rows[order], cols[order], vals[order]

    def to_dense(self) -> np.ndarray:
        rows, cols, vals = self._coo()
        n = self.space.n_points
        out = np.zeros((n, n), dtype=vals.dtype)
        out[rows, cols] = vals
        return out

    def to_csr(self) -> sp.csr_matrix:
        if self._csr is None:
            rows, cols, vals = self._coo()
            n = self.space.n_points
            self._csr = sp.csr_matrix((vals, (rows, cols)), shape=(n, n))
        return self._csr

    def matvec(self, x) -> np.ndarray:
        return self.to_csr() @ np.asarray(x)


def operator_sum(space: FiniteSpace, ops: Iterable[FinitePropOp], mode: str) -> FinitePropOp:
    """The sum of ``ops``, all over ``space`` in ``mode``.

    ``a + b`` is ``operator_sum(a.space, (a, b), a.mode)``.  Each entry is
    summed left to right in the order of ``ops``, so the result equals
    folding ``+`` over ``ops``, float bits included; a row is reduced and
    its zeros dropped once, after the last term.
    """
    _check_mode(mode)
    acc, summed = {}, set()
    for op in ops:
        _check_compatible(space, mode, op)
        for x, row in op._rows.items():
            s = acc.get(x)
            if s is None:
                acc[x] = row
            else:
                acc[x] = _row_sum(s, row)
                summed.add(x)
    for x in summed:
        if (row := _reduced(*acc[x])) is None:
            del acc[x]
        else:
            acc[x] = row
    return FinitePropOp._sealed(space, acc, mode)


# -- row sums and the uniform-sum subalgebra -------------------------------

def row_sum_diagonal(op: FinitePropOp) -> FinitePropOp:
    """Diagonal operator whose (x, x) entry is the x-th row sum of ``op``.

    This map is linear, fixes diagonal operators, and for a partial
    translation matrix it returns the indicator of the image.  Each row is
    summed from 0 in ascending column order (not with ``sum``, which adds
    floats in its own way on newer Pythons).
    """
    rows = {}
    for x, (d, row) in op._rows.items():
        s = 0
        for y in sorted(row):
            s += row[y]
        if s:
            rows[x] = _lowest(d, {x: s})
    return FinitePropOp._sealed(op.space, rows, op.mode)


def _all_sums(op: FinitePropOp):
    n = op.space.n_points
    rows = [0] * n
    cols = [0] * n
    for x, _, y, v in _in_order(op._rows):
        rows[x] += v
        cols[y] += v
    return rows, cols


def _exact_uniform_sum(op: FinitePropOp):
    """:func:`uniform_sum_value` in rational mode: the row sums of ``op`` and
    of its adjoint, each a reduced ``(d, s)``, must all be one pair."""
    n = op.space.n_points
    found = set()
    for lines in (op, op.adjoint()):
        sums = [(d, s) for d, row in row_sum_diagonal(lines)._rows.values() for s in row.values()]
        # row_sum_diagonal drops the lines that sum to 0
        found.update(sums if len(sums) == n else [*sums, (1, 0)])
    if len(found) != 1:
        return None
    (d, s), = found
    return _exact_value(s, d)


def uniform_sum_value(op: FinitePropOp, tol=None):
    """The common row/column sum of ``op``, or None if sums differ.

    Operators with one common row and column sum form a unital
    *-subalgebra, and on it this map is a homomorphism to scalars.  In
    rational mode the comparison is exact and ``tol`` must be omitted or 0;
    in float mode ``tol`` is an absolute tolerance (default 1e-12).
    """
    if op.mode == MODE_RATIONAL:
        if tol not in (None, 0):
            raise ValueError("rational mode compares sums exactly; tol must be 0")
        return _exact_uniform_sum(op)
    if tol is None:
        tol = 1e-12
    rows, cols = _all_sums(op)
    c = rows[0]
    for s in rows:
        if abs(s - c) > tol:
            return None
    for s in cols:
        if abs(s - c) > tol:
            return None
    return c


def uniform_sum(op: FinitePropOp, tol=None):
    """Like :func:`uniform_sum_value` but raising when sums are not uniform."""
    c = uniform_sum_value(op, tol)
    if c is None:
        raise NotUniformSumError(
            f"operator on {op.space.name!r} has no common row/column sum")
    return c


# -- partial translations and permutation operators ------------------------

class PartialTranslation:
    """An injective map between subsets of a space moving points finitely.

    ``mapping`` sends each domain index ``y`` to its image ``t(y)``; the
    associated matrix has a 1 at ``(t(y), y)`` for every domain point, so
    it moves the y-th basis vector to the t(y)-th.
    """

    __slots__ = ("space", "mapping", "propagation")

    def __init__(self, space: FiniteSpace, mapping: Mapping[int, int]):
        m = dict(sorted((int(y), int(x)) for y, x in mapping.items()))
        if len(set(m.values())) != len(m):
            raise ValueError("partial translation must be injective")
        self.propagation = support_diameter(space, list(m.values()), list(m))
        self.space = space
        self.mapping = m

    @classmethod
    def identity_on(cls, space: FiniteSpace, subset: Iterable[int]) -> "PartialTranslation":
        return cls(space, {int(i): int(i) for i in subset})

    @property
    def domain(self) -> tuple:
        return tuple(sorted(self.mapping))

    @property
    def image(self) -> tuple:
        return tuple(sorted(self.mapping.values()))

    @property
    def graph(self) -> tuple:
        """Sorted ``(x, y)`` support pairs of the associated matrix."""
        return tuple(sorted((x, y) for y, x in self.mapping.items()))

    def __eq__(self, other) -> bool:
        if not isinstance(other, PartialTranslation):
            return NotImplemented
        return self.space is other.space and self.mapping == other.mapping

    __hash__ = None

    def __repr__(self) -> str:
        return (f"PartialTranslation({self.space.name!r}, |domain|={len(self.mapping)}, "
                f"propagation={self.propagation})")

    def as_operator(self, mode: str = MODE_RATIONAL) -> FinitePropOp:
        return FinitePropOp._ones(self.space, ((x, y) for y, x in self.mapping.items()), mode)


class PermutationOp:
    """A permutation of the points moving each point a finite distance.

    ``perm[i]`` is the image of point ``i``.  The associated operator is a
    0/1 matrix with exactly one 1 in each row and column, hence a unitary
    with unit row and column sums.
    """

    __slots__ = ("space", "perm", "_op")

    def __init__(self, space: FiniteSpace, perm: Sequence[int]):
        p = np.asarray(perm, dtype=np.int64).copy()
        n = space.n_points
        if p.shape != (n,) or not np.array_equal(np.sort(p), np.arange(n)):
            raise ValueError("perm must be a bijection of the point indices")
        support_diameter(space, p, np.arange(n))
        self._store(space, p)

    def _store(self, space: FiniteSpace, p: np.ndarray):
        p.setflags(write=False)
        self.space = space
        self.perm = p
        self._op = None

    @classmethod
    def _sealed(cls, space: FiniteSpace, perm: np.ndarray) -> "PermutationOp":
        """A permutation valid by construction: ``perm``, an int64 array the
        caller gives up, is kept without the checks."""
        op = cls.__new__(cls)
        op._store(space, perm)
        return op

    @classmethod
    def identity(cls, space: FiniteSpace) -> "PermutationOp":
        return cls._sealed(space, np.arange(space.n_points, dtype=np.int64))

    @classmethod
    def from_swaps(cls, space: FiniteSpace, swaps: Iterable[tuple[int, int]]) -> "PermutationOp":
        """Involution exchanging the given disjoint pairs, fixing the rest."""
        perm = np.arange(space.n_points)
        touched = set()
        for u, v in swaps:
            if u in touched or v in touched or u == v:
                raise ValueError("swap pairs must be disjoint")
            touched.update((u, v))
            perm[u] = v
            perm[v] = u
        return cls(space, perm)

    @property
    def op(self) -> FinitePropOp:
        if self._op is None:
            self._op = FinitePropOp._ones(
                self.space, ((x, y) for y, x in enumerate(self.perm.tolist())))
        return self._op

    @property
    def is_involution(self) -> bool:
        return bool(np.array_equal(self.perm[self.perm], np.arange(len(self.perm))))

    def adjoint(self) -> "PermutationOp":
        return PermutationOp._sealed(self.space, np.argsort(self.perm))

    def __eq__(self, other) -> bool:
        if not isinstance(other, PermutationOp):
            return NotImplemented
        return self.space is other.space and np.array_equal(self.perm, other.perm)

    __hash__ = None

    def __repr__(self) -> str:
        moved = int(np.sum(self.perm != np.arange(len(self.perm))))
        return f"PermutationOp({self.space.name!r}, moved={moved})"


# -- invariant vectors ------------------------------------------------------

def invariance_defect(v_op: FinitePropOp, xi) -> float:
    """How far ``xi`` is from being fixed by a partial translation matrix.

    Computes ``|| V xi - V V* xi ||_2``.  ``V V*`` is the projection onto
    coordinates in the image of the translation, so the defect vanishes
    exactly on vectors the translation does not displace (weighted by where
    it acts).  ``v_op`` must be a 0/1 matrix with at most one 1 per row and
    per column, i.e. come from a partial translation.
    """
    seen_rows = set()
    seen_cols = set()
    for (x, y), v in v_op.entries.items():
        if v != 1 or x in seen_rows or y in seen_cols:
            raise ValueError("operator is not a partial translation matrix")
        seen_rows.add(x)
        seen_cols.add(y)
    a = v_op.to_csr()
    xi = np.asarray(xi, dtype=a.dtype)
    if xi.shape != (v_op.space.n_points,):
        raise ValueError(f"vector has shape {xi.shape}, expected ({v_op.space.n_points},)")
    diff = a @ xi - a @ (a.conj().T @ xi)
    return float(np.linalg.norm(diff))


def single_pair_translations(space: FiniteSpace) -> list[PartialTranslation]:
    """Every translation moving a single point to a different one.

    Together with the identity these generate the whole algebra on each
    component, which makes them a convenient test family for invariance.
    """
    comp = space.component_of.tolist()
    return [PartialTranslation(space, {y: x})
            for x, cx in enumerate(comp) for y, cy in enumerate(comp)
            if x != y and cx == cy]


def invariant_subspace_basis(space: FiniteSpace, ops=None, rtol: float = 1e-9) -> np.ndarray:
    """Orthonormal basis of vectors fixed under row-sum replacement.

    Returns a basis of ``{xi : row_sum_diagonal(T) xi = T xi for all T}``,
    where ``T`` ranges over ``ops`` (default: all single-pair translations
    of the space).  For the default family the result is spanned by the
    indicator vectors of the coarse components.  Dense SVD underneath —
    intended for small spaces; the default family is refused above 64
    points.
    """
    n = space.n_points
    if ops is None:
        if n > 64:
            raise ValueError("default test family is quadratic in the point count; "
                             "pass ops explicitly for spaces above 64 points")
        ops = [t.as_operator() for t in single_pair_translations(space)]
    blocks = []
    for t in ops:
        if t.space is not space:
            raise SpaceMismatchError("test operator lives over a different space")
        blocks.append(row_sum_diagonal(t).to_dense() - t.to_dense())
    if not blocks:
        return np.eye(n)
    m = np.vstack(blocks)
    _, s, vt = np.linalg.svd(m)
    if s.size == 0 or s[0] == 0:
        return np.eye(n)
    rank = int(np.sum(s > rtol * s[0]))
    return vt[rank:].T


# -- serialisation -----------------------------------------------------------

def _format_value(v, mode: str) -> str:
    if mode == MODE_RATIONAL:
        return str(v)
    return repr(v)


def _parse_value(tok: str, mode: str, lineno: int):
    try:
        if mode == MODE_RATIONAL:
            f = Fraction(tok)
            return int(f) if f.denominator == 1 else f
        v = complex(tok) if "j" in tok or "J" in tok else float(tok)
    except (ValueError, ZeroDivisionError):
        raise OperatorParseError(f"bad {mode} value {tok!r}", lineno) from None
    if not cmath.isfinite(v):
        raise OperatorParseError(f"non-finite {mode} value {tok!r}", lineno)
    return v


def operator_to_text(op: FinitePropOp) -> str:
    """Serialise an operator to the line format::

        operator <space-name> <mode> <propagation>
        entry <x> <y> <value>

    Entries are written in sorted index order, so equal operators always
    serialise to identical bytes.  Point names must be whitespace-free.
    """
    pts = op.space.points
    used = {i for pair in op.entries for i in pair}
    for i in used:
        if any(c.isspace() for c in pts[i]):
            raise ValueError(f"point name {pts[i]!r} cannot be serialised (contains whitespace)")
    lines = [f"operator {op.space.name} {op.mode} {op.propagation!r}"]
    for (x, y), v in op.entries.items():
        lines.append(f"entry {pts[x]} {pts[y]} {_format_value(v, op.mode)}")
    return "\n".join(lines) + "\n"


def operator_from_text(text: str, space: FiniteSpace) -> FinitePropOp:
    """Parse :func:`operator_to_text` output back over a known space.

    The header's space name must match ``space.name`` and its recorded
    propagation must match the recomputed one exactly (float repr values
    round-trip, so any mismatch means the text and space disagree).
    """
    header = None
    entries = {}
    mode = None
    recorded_prop = None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split()
        if header is None:
            if parts[0] != "operator" or len(parts) != 4:
                raise OperatorParseError(
                    "expected header 'operator <space> <mode> <propagation>'", lineno)
            if parts[1] != space.name:
                raise OperatorParseError(
                    f"operator was written over space {parts[1]!r}, "
                    f"not {space.name!r}", lineno)
            mode = parts[2]
            if mode not in (MODE_RATIONAL, MODE_FLOAT):
                raise OperatorParseError(f"unknown scalar mode {mode!r}", lineno)
            try:
                recorded_prop = float(parts[3])
            except ValueError:
                raise OperatorParseError(f"bad propagation {parts[3]!r}", lineno) from None
            header = parts
            continue
        if parts[0] != "entry" or len(parts) != 4:
            raise OperatorParseError("expected 'entry <x> <y> <value>'", lineno)
        try:
            x = space.index_of(parts[1])
            y = space.index_of(parts[2])
        except KeyError as exc:
            raise OperatorParseError(str(exc.args[0]), lineno) from None
        if (x, y) in entries:
            raise OperatorParseError(f"duplicate entry ({parts[1]}, {parts[2]})", lineno)
        entries[(x, y)] = _parse_value(parts[3], mode, lineno)
    if header is None:
        raise OperatorParseError("no operator header found")
    op = FinitePropOp(space, entries, mode)
    if op.propagation != recorded_prop:
        raise OperatorParseError(
            f"header propagation {recorded_prop} does not match "
            f"recomputed {op.propagation}")
    return op
