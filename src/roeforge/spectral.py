"""Symmetric eigenvalue computations on numpy and scipy matrices.

Small matrices are handled by dense symmetric eigendecomposition; large
ones by restarted Lanczos iteration on a matvec, with the starting vector
drawn from a seed derived from the matrix's own bytes
(:func:`_matrix_seed`), so repeated runs on the same matrix produce
identical results.  Every solve reports an a-posteriori residual
``||A v - lambda v||``; for a symmetric matrix that residual bounds the
distance from ``lambda`` to the true spectrum, so it is a certificate, not
a diagnostic (:func:`_checked` enforces the bound).  The solvers also
return the certified eigenvector, on which :func:`eigvec_power_norms`
measures the norms of powers.  Which solver a component gets is decided
in one place, :func:`roeforge.kazhdan.gap_report`.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass
from typing import Callable, Iterable

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .errors import SpectralError

__all__ = [
    "DEFAULT_TOL",
    "SpectralResult",
    "dense_extreme_eig",
    "extreme_eig_matvec",
    "eigvec_power_norms",
    "dense_power_norms",
    "matvec_power_norm",
]

DEFAULT_TOL = 1e-10      # ARPACK tolerance and residual bound of every solve
_LANCZOS_NCV = 64        # Lanczos basis size (capped at the dimension)
_MATVEC_CAP = 20_000     # matvecs one Lanczos solve may spend before it fails


@dataclass(frozen=True)
class SpectralResult:
    """One computed extreme eigenvalue.

    ``value`` is nonnegative: the largest |eigenvalue|.  ``method`` is
    ``"dense"``, ``"iterative"`` (Lanczos on the operator) or
    ``"shift-invert"`` (Lanczos on an inverse, as :mod:`roeforge.kazhdan`
    runs it on narrow-band components);
    ``iterations`` counts matvecs, or inverse solves (0 for dense);
    ``residual`` is the final ``||A v - lambda v||_2`` on the operator
    itself, which for self-adjoint input bounds the distance from the
    answer to the true spectrum; ``seed`` is the Lanczos start seed (None
    for dense).
    """

    value: float
    method: str
    iterations: int
    residual: float
    seed: int | None = None


def _matrix_seed(csr: sp.csr_matrix) -> int:
    """Deterministic 64-bit seed: a blake2b of ``indptr``, ``indices`` and
    ``data`` (the indices as int64)."""
    h = hashlib.blake2b(digest_size=8)
    for part in (csr.indptr.astype(np.int64), csr.indices.astype(np.int64), csr.data):
        h.update(part.tobytes())
    return int.from_bytes(h.digest(), "little")


def dense_extreme_eig(mat: np.ndarray) -> tuple[float, np.ndarray, float]:
    """Signed eigenvalue of largest modulus of a dense hermitian matrix,
    its unit eigenvector ``v``, and the residual ``||mat v - value v||``."""
    w, v = np.linalg.eigh(mat)
    best = int(np.argmax(np.abs(w)))
    lam = float(w[best])
    vec = v[:, best]
    residual = float(np.linalg.norm(mat @ vec - lam * vec))
    return lam, vec, residual


def extreme_eig_matvec(matvec: Callable, n: int, seed: int, *,
                       ncv: int = _LANCZOS_NCV):
    """Signed eigenvalue of largest modulus of a symmetric matvec, by Lanczos.

    Returns ``(value, vec, matvec_count, residual)`` — ``value`` keeps its
    sign here; :class:`SpectralResult` reports |value|; ``vec`` is the Ritz
    vector whose residual is reported.  ARPACK computes that one Ritz pair
    in a basis of up to ``ncv`` vectors (capped at ``n``); a caller whose
    top eigenvalue is well separated can pass a smaller one than the
    default ``_LANCZOS_NCV``.  ARPACK's tolerance is ``DEFAULT_TOL``.  The
    start vector is drawn from ``default_rng(seed)``, which makes the whole
    computation a pure function of its arguments.  If the residual misses
    the bound that :func:`_checked` applies, which a multiple top
    eigenvalue can cause, a second solve starts from the Ritz vector; its
    matvecs count too.  A solve that does not converge, or that would spend
    more than ``_MATVEC_CAP`` matvecs in all, raises
    :class:`~roeforge.errors.SpectralError` naming ``n`` and the matvecs
    spent.
    """
    if n < 3:
        raise ValueError("iterative path needs at least 3 points; use the dense path")
    count = 0

    def failure(reason) -> SpectralError:
        return SpectralError(f"Lanczos iteration did not converge on {n} points "
                             f"after {count} matvecs: {reason}")

    def counting(x):
        nonlocal count
        if count == _MATVEC_CAP:
            raise failure(f"the cap is {_MATVEC_CAP} matvecs")
        count += 1
        return matvec(x)

    lin = spla.LinearOperator((n, n), matvec=counting, dtype=float)

    def solve(v0):
        try:
            # every restart costs a matvec, so the cap binds before maxiter does
            vals, vecs = spla.eigsh(lin, k=1, which="LM", v0=v0, tol=DEFAULT_TOL,
                                    ncv=min(n, ncv), maxiter=_MATVEC_CAP)
        except spla.ArpackNoConvergence as exc:
            raise failure(exc) from exc
        value, vec = float(vals[0]), vecs[:, 0]
        return value, vec, float(np.linalg.norm(counting(vec) - value * vec))

    value, vec, residual = solve(np.random.default_rng(seed).standard_normal(n))
    if residual > _residual_bound(value):
        # on a multiple top eigenvalue ARPACK can stop with a Ritz vector
        # just short of the bound; a second solve started from it certifies
        value, vec, residual = solve(vec)
    return value, vec, count, residual


def _residual_bound(value: float) -> float:
    return DEFAULT_TOL * max(1.0, abs(value))


def _checked(res: SpectralResult) -> SpectralResult:
    bound = _residual_bound(res.value)
    if res.residual > bound:
        raise SpectralError(
            f"residual {res.residual:.3e} exceeds certified bound {bound:.3e}")
    return res


def eigvec_power_norms(matvec: Callable, vec: np.ndarray,
                       ks: Iterable[int]) -> dict[int, float]:
    """``||M^k v||`` for the unit vector ``v = vec/||vec||`` at each k.

    For a self-adjoint M and an eigenvector of its largest |eigenvalue|
    this is ``||M^k||_2``: the norm of a power is attained on that vector.
    One sweep of ``max(ks)`` matvecs, with no renormalisation in between,
    so a curve like 0.5, 0.25, 0.0625 comes back exact.
    """
    ks = sorted(set(int(k) for k in ks))
    if not ks or ks[0] < 1:
        raise ValueError("powers must be >= 1")
    x = vec / np.linalg.norm(vec)
    out = {}
    for k in range(1, ks[-1] + 1):
        x = matvec(x)
        if k in ks:
            out[k] = float(np.linalg.norm(x))
    return out


def dense_power_norms(mat: np.ndarray, ks: Iterable[int]) -> dict[int, float]:
    """``||mat^k||_2`` for each k, by scaled repeated squaring.

    Powers of two are cached; other exponents are assembled from the
    binary expansion.  Each cached power is renormalised and the log of
    the scale carried separately, so norms far below float range (decay
    like rho^k) come back as accurate small floats instead of underflowing
    inside the matrix product.  It needs no eigenvector, so it is an
    independent check on :func:`eigvec_power_norms`.
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


def matvec_power_norm(matvec: Callable, n: int, k: int, seed: int):
    """``||M^k||_2`` for a symmetric matvec: top |eigenvalue| of the k-fold map.

    Returns ``(norm, matvec_count, residual)``; the matvec count is of the
    underlying single application.  One solve per power: an independent
    check on :func:`eigvec_power_norms`, not the gap report's path.
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

    value, _, _, residual = extreme_eig_matvec(mk, n, seed)
    return abs(value), inner, residual
