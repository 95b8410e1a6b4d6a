"""Finite-propagation operators over a finite space, and partial translations.

An operator here is a sparse matrix indexed by the points of a
:class:`~roeforge.space.FiniteSpace` whose support stays at finite distance
from the diagonal — every nonzero entry ``(x, y)`` connects points in the
same coarse component, and the largest distance over the support is the
operator's *propagation*.  Together these matrices form a *-algebra; this
module implements it in two scalar modes:

* ``"rational"`` — entries are ``int`` / ``Fraction``; sums and products are
  exact, which is what the algebraic identities in :mod:`roeforge.kazhdan`
  are verified in;
* ``"float"`` — entries are ``float`` / ``complex``; this is the mode the
  spectral routines consume.

Conversion is explicit and one-way (:meth:`FinitePropOp.to_float`); mixing
modes in arithmetic raises :class:`~roeforge.errors.ScalarModeError`.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Iterable, Mapping, Sequence, Union

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

Scalar = Union[int, Fraction, float, complex]

_RATIONAL_TYPES = (int, Fraction)
_FLOAT_TYPES = (int, float, complex, Fraction)


def _check_mode(mode: str):
    if mode not in (MODE_RATIONAL, MODE_FLOAT):
        raise ValueError(f"unknown scalar mode {mode!r}")


def _scaled(entries: dict, axis: int, n: int):
    """``(lcms, scaled)``: each row (``axis`` 0) or column (1) made integer.

    ``lcms[i]`` is the lcm of the denominators in line ``i`` of an
    ``n``-point operator, and ``scaled`` maps each key to the int value
    times its line's lcm.  Entries that are all ints come back unchanged,
    with ``lcms`` None.
    """
    lcms = None
    for k, v in entries.items():
        if type(v) is not int:
            if lcms is None:
                lcms = [1] * n
            line = k[axis]
            m = lcms[line]
            q = v.denominator
            if m % q:
                lcms[line] = math.lcm(m, q)
    if lcms is None:
        return None, entries
    return lcms, {k: v.numerator * (lcms[k[axis]] // v.denominator)
                  for k, v in entries.items()}


def _check_compatible(space: FiniteSpace, mode: str, op: "FinitePropOp"):
    """Refuse to combine ``op`` with operators over ``space`` in ``mode``."""
    if op.space is not space:
        raise SpaceMismatchError("operators live over different spaces")
    if op.mode != mode:
        raise ScalarModeError(
            f"cannot mix {mode} and {op.mode} operators; "
            "convert explicitly with to_float()")


def _check_value(v, mode: str):
    """Validate and normalise one entry value for the given mode."""
    if isinstance(v, bool):
        raise TypeError("bool is not a valid entry value")
    if mode == MODE_RATIONAL:
        if not isinstance(v, _RATIONAL_TYPES):
            raise TypeError(f"rational mode takes int/Fraction entries, got {type(v).__name__}")
        return v
    if not isinstance(v, _FLOAT_TYPES):
        raise TypeError(f"float mode takes numeric entries, got {type(v).__name__}")
    if isinstance(v, complex):
        return v
    return float(v)


class FinitePropOp:
    """A finite-propagation matrix over a fixed space.

    ``entries`` maps ordered index pairs ``(x, y)`` to nonzero values; zero
    values are dropped at construction, before the support is checked, so
    two operators are equal exactly when their spaces, modes and entry
    dicts agree.  Entries are stored in sorted pair order, which makes row
    sums, serialisation and float arithmetic deterministic.  The
    constructor validates caller input: each value, then the support, in
    one call to :func:`~roeforge.space.support_diameter`.  Every operator
    the package derives from operators it already holds (``+``, ``@``,
    scalar ``*``, :meth:`adjoint`, :meth:`to_float`, :meth:`identity`,
    :meth:`zero`, restrictions, projections, averaging operators,
    decomposition idempotents) is valid by construction and skips that
    check; its ``propagation`` is computed when first read.

    A rational product multiplies integers.  Row ``x`` of the left operand
    is scaled by the lcm of that row's denominators and column ``y`` of the
    right operand by the lcm of that column's, the sparse row loop runs on
    those numerators, and each nonzero sum is divided once by its row and
    column lcms (an int when it divides evenly, else a Fraction).  One lcm
    per operand would be simpler, but an operand with many distinct wide
    denominators has an lcm thousands of bits wide, and products of
    numerators that wide cost far more than the Fraction arithmetic they
    replace; a row's lcm only spans the denominators that meet in that
    row's sums.  Float products are the plain loop over the floats.
    """

    __slots__ = ("space", "mode", "entries", "_propagation", "_csr", "_float")

    def __init__(self, space: FiniteSpace, entries: Mapping, mode: str = MODE_RATIONAL):
        _check_mode(mode)
        self._store(space, {(int(x), int(y)): _check_value(v, mode)
                            for (x, y), v in entries.items()}, mode)
        self._propagation = support_diameter(space, *self._pairs())

    def _store(self, space: FiniteSpace, entries: Mapping, mode: str):
        """Keep ``entries`` with zeros dropped and keys sorted."""
        self.space = space
        self.mode = mode
        self.entries = {k: entries[k] for k in sorted(entries) if entries[k] != 0}
        self._propagation = None
        self._csr = None
        self._float = None

    @classmethod
    def _sealed(cls, space: FiniteSpace, entries: Mapping, mode: str) -> "FinitePropOp":
        """An operator whose support is controlled by construction: the
        package's own results skip the checks and run no numpy."""
        _check_mode(mode)
        op = cls.__new__(cls)
        op._store(space, entries, mode)
        return op

    @property
    def propagation(self) -> float:
        """Largest distance over the support, computed when first read."""
        if self._propagation is None:
            self._propagation = support_diameter(self.space, *self._pairs())
        return self._propagation

    def _pairs(self):
        """Row and column index arrays of the support, in entry order."""
        keys = np.array(list(self.entries), dtype=np.int64).reshape(-1, 2)
        return keys[:, 0], keys[:, 1]

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls, space: FiniteSpace, mode: str = MODE_RATIONAL) -> "FinitePropOp":
        return cls._sealed(space, {}, mode)

    @classmethod
    def identity(cls, space: FiniteSpace, mode: str = MODE_RATIONAL) -> "FinitePropOp":
        one = 1 if mode == MODE_RATIONAL else 1.0
        return cls._sealed(space, {(i, i): one for i in range(space.n_points)}, mode)

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
                f"nnz={len(self.entries)}, propagation={self.propagation})")

    def __eq__(self, other) -> bool:
        if not isinstance(other, FinitePropOp):
            return NotImplemented
        return (self.space is other.space and self.mode == other.mode
                and self.entries == other.entries)

    __hash__ = None

    @property
    def nnz(self) -> int:
        return len(self.entries)

    @property
    def sup_entry_norm(self) -> float:
        """Largest absolute entry value (0.0 for the zero operator)."""
        return max((abs(v) for v in self.entries.values()), default=0.0)

    def support(self) -> ControlledSet:
        """The support as a controlled set (exact diameter = propagation)."""
        return ControlledSet(self.space, frozenset(self.entries), self.propagation)

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
        scalar = _check_value(scalar, self.mode)
        if scalar == 0:
            return FinitePropOp._sealed(self.space, {}, self.mode)
        return FinitePropOp._sealed(self.space,
                                    {k: scalar * v for k, v in self.entries.items()},
                                    self.mode)

    def __mul__(self, scalar) -> "FinitePropOp":
        if isinstance(scalar, FinitePropOp):
            raise TypeError("use @ for operator products, * for scalars")
        return self.__rmul__(scalar)

    def __matmul__(self, other: "FinitePropOp") -> "FinitePropOp":
        if not isinstance(other, FinitePropOp):
            return NotImplemented
        _check_compatible(self.space, self.mode, other)
        left, right = self.entries, other.entries
        rows = cols = None
        if self.mode == MODE_RATIONAL:
            # integer numerators: row x of self times rows[x], column y of
            # other times cols[y], so the loop below multiplies ints
            n = self.space.n_points
            rows, left = _scaled(left, 0, n)
            cols, right = _scaled(right, 1, n)
        orows: dict[int, list[tuple[int, Scalar]]] = {}
        for (z, y), b in right.items():
            orows.setdefault(z, []).append((y, b))
        acc: dict[tuple[int, int], Scalar] = {}
        for (x, z), a in left.items():
            for y, b in orows.get(z, ()):
                key = (x, y)
                acc[key] = acc.get(key, 0) + a * b
        if rows or cols:
            rows = rows or [1] * n
            cols = cols or [1] * n
            exact = {}
            for (x, y), s in acc.items():
                if s:
                    d = rows[x] * cols[y]
                    exact[(x, y)] = Fraction(s, d) if s % d else s // d
            acc = exact
        return FinitePropOp._sealed(self.space, acc, self.mode)

    def adjoint(self) -> "FinitePropOp":
        return FinitePropOp._sealed(
            self.space, {(y, x): v.conjugate() for (x, y), v in self.entries.items()},
            self.mode)

    # -- conversions -------------------------------------------------------

    def to_float(self) -> "FinitePropOp":
        """Explicit promotion to float mode (the only direction allowed)."""
        if self.mode == MODE_FLOAT:
            return self
        if self._float is None:
            self._float = FinitePropOp._sealed(
                self.space, {k: float(v) for k, v in self.entries.items()}, MODE_FLOAT)
        return self._float

    def _coo(self):
        """Row, column and value arrays; values complex if any entry is, else float."""
        vals = self.entries.values()
        dtype = complex if any(isinstance(v, complex) for v in vals) else float
        return (*self._pairs(), np.fromiter(vals, dtype=dtype, count=len(vals)))

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
    folding ``+`` over ``ops``, float bits included; it is accumulated in
    one pass and sorted once rather than once per term.
    """
    _check_mode(mode)
    acc = None
    for op in ops:
        _check_compatible(space, mode, op)
        if acc is None:
            acc = dict(op.entries)
            continue
        for k, v in op.entries.items():
            s = acc.get(k)
            acc[k] = v if s is None else s + v
    return FinitePropOp._sealed(space, acc or {}, mode)


# -- row sums and the uniform-sum subalgebra -------------------------------

def row_sum_diagonal(op: FinitePropOp) -> FinitePropOp:
    """Diagonal operator whose (x, x) entry is the x-th row sum of ``op``.

    This map is linear, fixes diagonal operators, and for a partial
    translation matrix it returns the indicator of the image.
    """
    sums: dict[tuple[int, int], Scalar] = {}
    for (x, _), v in op.entries.items():
        sums[(x, x)] = sums.get((x, x), 0) + v
    return FinitePropOp._sealed(op.space, sums, op.mode)


def _all_sums(op: FinitePropOp):
    n = op.space.n_points
    rows = [0] * n
    cols = [0] * n
    for (x, y), v in op.entries.items():
        rows[x] += v
        cols[y] += v
    return rows, cols


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
        tol = 0
    elif tol is None:
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
        _check_mode(mode)
        one = 1 if mode == MODE_RATIONAL else 1.0
        return FinitePropOp._sealed(self.space,
                                    {(x, y): one for y, x in self.mapping.items()}, mode)


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
        p.setflags(write=False)
        self.space = space
        self.perm = p
        self._op = None

    @classmethod
    def identity(cls, space: FiniteSpace) -> "PermutationOp":
        return cls(space, np.arange(space.n_points))

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
            self._op = FinitePropOp._sealed(
                self.space, {(x, y): 1 for y, x in enumerate(self.perm.tolist())},
                MODE_RATIONAL)
        return self._op

    @property
    def is_involution(self) -> bool:
        return bool(np.array_equal(self.perm[self.perm], np.arange(len(self.perm))))

    def adjoint(self) -> "PermutationOp":
        return PermutationOp(self.space, np.argsort(self.perm))

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
        if "j" in tok or "J" in tok:
            return complex(tok)
        return float(tok)
    except (ValueError, ZeroDivisionError):
        raise OperatorParseError(f"bad {mode} value {tok!r}", lineno) from None


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
