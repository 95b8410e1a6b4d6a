"""Symmetric eigenvalue and operator-norm computations.

Small operators are handled by dense symmetric eigendecomposition; large
ones by restarted Lanczos iteration on a matvec, with the starting vector
drawn from a seed derived from the operator's own bytes, so repeated runs
on the same operator produce identical results.  Every answer comes back
as a :class:`SpectralResult` carrying the method used, the matvec count
and an a-posteriori residual ``||A v - lambda v||``; for self-adjoint
operators that residual bounds the distance from ``lambda`` to the true
spectrum, so it is a certificate, not a diagnostic.
"""

from __future__ import annotations

import hashlib
import math
import struct
from dataclasses import dataclass
from typing import Callable, Iterable

import numpy as np
import scipy.sparse.linalg as spla

from .errors import NotSelfAdjointError, SpectralError
from .transalg import MODE_RATIONAL, FinitePropOp

__all__ = [
    "DENSE_CUTOFF",
    "DEFAULT_TOL",
    "SpectralResult",
    "operator_seed",
    "require_self_adjoint",
    "sym_extreme_eig",
    "op_norm",
    "dense_extreme_eig",
    "extreme_eig_matvec",
    "dense_power_norms",
    "matvec_power_norm",
]

DENSE_CUTOFF = 512
DEFAULT_TOL = 1e-10
_LANCZOS_K = 4           # Ritz values computed per Lanczos solve
_LANCZOS_NCV = 64        # Lanczos basis size (capped at the dimension)


@dataclass(frozen=True)
class SpectralResult:
    """One computed eigenvalue or norm.

    ``value`` is nonnegative: the largest |eigenvalue|, or the norm itself
    for norm computations.  ``method`` is ``"dense"`` or ``"iterative"``;
    ``iterations`` counts matvecs (0 for dense); ``residual`` is the final
    ``||A v - lambda v||_2``, which for self-adjoint input bounds the
    distance from the answer to the true spectrum; ``seed`` is the Lanczos
    start seed (None for dense).
    """

    value: float
    method: str
    iterations: int
    residual: float
    seed: int | None = None


def operator_seed(op: FinitePropOp, extra: bytes = b"") -> int:
    """Deterministic 64-bit seed from an operator's canonical content."""
    h = hashlib.blake2b(digest_size=8)
    h.update(op.space.name.encode())
    h.update(op.mode.encode())
    for (x, y), v in op.entries.items():
        h.update(struct.pack("<qq", x, y))
        if op.mode == MODE_RATIONAL:
            h.update(str(v).encode())
        else:
            cv = complex(v)
            h.update(struct.pack("<dd", cv.real, cv.imag))
    h.update(extra)
    return int.from_bytes(h.digest(), "little")


def require_self_adjoint(op: FinitePropOp, tol: float = 1e-12) -> None:
    """Raise unless ``op`` equals its adjoint (exactly in rational mode)."""
    if op.mode == MODE_RATIONAL:
        for (x, y), v in op.entries.items():
            if op.entries.get((y, x)) != v.conjugate():
                raise NotSelfAdjointError(
                    f"entry ({x}, {y}) has no matching conjugate entry")
        return
    scale = max(1.0, op.sup_entry_norm)
    for (x, y), v in op.entries.items():
        w = op.entries.get((y, x), 0.0)
        if abs(v - complex(w).conjugate()) > tol * scale:
            raise NotSelfAdjointError(
                f"entries ({x}, {y}) and ({y}, {x}) differ beyond tolerance")


def dense_extreme_eig(mat: np.ndarray) -> tuple[float, float]:
    """Signed eigenvalue of largest modulus of a dense hermitian matrix,
    and the residual ``||mat v - value v||`` of its unit eigenvector."""
    w, v = np.linalg.eigh(mat)
    best = int(np.argmax(np.abs(w)))
    lam = float(w[best])
    residual = float(np.linalg.norm(mat @ v[:, best] - lam * v[:, best]))
    return lam, residual


def extreme_eig_matvec(matvec: Callable, n: int, seed: int, *,
                       tol: float = DEFAULT_TOL):
    """Signed eigenvalue of largest modulus of a symmetric matvec, by Lanczos.

    Returns ``(value, matvec_count, residual)`` — ``value`` keeps its sign
    here; the public wrappers report |value|.  The start vector is drawn
    from ``default_rng(seed)``, which makes the whole computation a pure
    function of its arguments.  ARPACK gets ``10 * n`` update
    iterations; a solve that does not converge in them raises
    :class:`~roeforge.errors.SpectralError`.
    """
    if n < 3:
        raise ValueError("iterative path needs at least 3 points; use the dense path")
    count = 0

    def counting(x):
        nonlocal count
        count += 1
        return matvec(x)

    lin = spla.LinearOperator((n, n), matvec=counting, dtype=float)
    rng = np.random.default_rng(seed)
    v0 = rng.standard_normal(n)
    k = min(_LANCZOS_K, n - 2)
    try:
        vals, vecs = spla.eigsh(lin, k=k, which="LM", v0=v0, tol=tol,
                                ncv=min(n, max(_LANCZOS_NCV, k + 2)), maxiter=10 * n)
    except spla.ArpackNoConvergence as exc:
        raise SpectralError(f"Lanczos iteration did not converge: {exc}") from exc
    best = int(np.argmax(np.abs(vals)))
    value = float(vals[best])
    vec = vecs[:, best]
    residual = float(np.linalg.norm(counting(vec) - value * vec))
    return value, count, residual


def _checked(res: SpectralResult, tol: float) -> SpectralResult:
    # dense LAPACK results are full precision regardless of tol, so the
    # effective bound never goes below a small multiple of machine epsilon
    bound = max(tol, 64 * np.finfo(float).eps) * max(1.0, res.value)
    if res.residual > bound:
        raise SpectralError(
            f"residual {res.residual:.3e} exceeds certified bound {bound:.3e}")
    return res


def sym_extreme_eig(op: FinitePropOp, which: str = "max_abs", *,
                    tol: float = DEFAULT_TOL,
                    dense_cutoff: int = DENSE_CUTOFF) -> SpectralResult:
    """Extreme eigenvalue of a self-adjoint operator.

    ``which`` currently only supports ``"max_abs"``: the signed eigenvalue
    of largest modulus.  Spaces up to ``dense_cutoff`` points use a dense
    symmetric eigendecomposition; larger ones use seeded Lanczos on the
    sparse matrix.  Spaces under 3 points always take the dense path.
    """
    if which != "max_abs":
        raise ValueError(f"unsupported selector {which!r}")
    require_self_adjoint(op)
    n = op.space.n_points
    if op.nnz == 0:
        return SpectralResult(0.0, "dense", 0, 0.0)
    if n <= max(dense_cutoff, 2):
        lam, residual = dense_extreme_eig(op.to_dense())
        return _checked(SpectralResult(abs(lam), "dense", 0, residual), tol)
    csr = op.to_csr()
    if np.iscomplexobj(csr):
        raise SpectralError("iterative path handles real symmetric operators only; "
                            "complex hermitian operators must fit under dense_cutoff")
    seed = operator_seed(op)
    lam, count, residual = extreme_eig_matvec(
        lambda x: csr @ x, n, seed, tol=tol)
    return _checked(SpectralResult(abs(lam), "iterative", count, residual, seed), tol)


def op_norm(op: FinitePropOp, *, tol: float = DEFAULT_TOL,
            dense_cutoff: int = DENSE_CUTOFF) -> SpectralResult:
    """Operator (spectral) norm, via the top eigenvalue of ``op* op``."""
    if op.nnz == 0:
        return SpectralResult(0.0, "dense", 0, 0.0)
    gram = op.adjoint() @ op
    res = sym_extreme_eig(gram, tol=tol, dense_cutoff=dense_cutoff)
    return SpectralResult(math.sqrt(max(res.value, 0.0)), res.method,
                          res.iterations, res.residual, res.seed)


def dense_power_norms(mat: np.ndarray, ks: Iterable[int]) -> dict[int, float]:
    """``||mat^k||_2`` for each k, by scaled repeated squaring.

    Powers of two are cached; other exponents are assembled from the
    binary expansion.  Each cached power is renormalised and the log of
    the scale carried separately, so norms far below float range (decay
    like rho^k) come back as accurate small floats instead of underflowing
    inside the matrix product.
    """
    ks = sorted(set(int(k) for k in ks))
    if not ks or ks[0] < 1:
        raise ValueError("powers must be >= 1")
    base = float(np.linalg.norm(mat, 2))
    out = {}
    if base == 0.0:
        return {k: 0.0 for k in ks}
    pows = {0: mat / base}      # scaled mat^(2^j)
    logs = {0: math.log(base)}  # log of the removed factor

    def cached(j):
        if j not in pows:
            p = cached(j - 1)
            q = p @ p
            s = float(np.linalg.norm(q, 2))
            if s == 0.0:
                pows[j] = q
                logs[j] = 2 * logs[j - 1]
            else:
                pows[j] = q / s
                logs[j] = 2 * logs[j - 1] + math.log(s)
        return pows[j]

    for k in ks:
        acc = None
        log_acc = 0.0
        j = 0
        kk = k
        while kk:
            if kk & 1:
                p = cached(j)
                acc = p if acc is None else acc @ p
                log_acc += logs[j]
                na = float(np.linalg.norm(acc, 2))
                if na == 0.0:
                    log_acc = -math.inf
                    break
                acc = acc / na
                log_acc += math.log(na)
            kk >>= 1
            j += 1
        out[k] = math.exp(log_acc) if log_acc > -math.inf else 0.0
    return out


def matvec_power_norm(matvec: Callable, n: int, k: int, seed: int, *,
                      tol: float = DEFAULT_TOL):
    """``||M^k||_2`` for a symmetric matvec: top |eigenvalue| of the k-fold map.

    Returns ``(norm, matvec_count, residual)``; the matvec count is of the
    underlying single application.
    """
    if k < 1:
        raise ValueError("power must be >= 1")
    inner = 0

    def mk(x):
        nonlocal inner
        inner += k
        for _ in range(k):
            x = matvec(x)
        return x

    value, _, residual = extreme_eig_matvec(mk, n, seed, tol=tol)
    return abs(value), inner, residual
