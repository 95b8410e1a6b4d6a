"""Averaging operators, block-constant projections, and spectral-gap reports.

Given symmetric permutations A_1..A_n of a space, the averaging operator

    A = (1/n) * sum_i (1 + A_i) / 2

is doubly stochastic, self-adjoint and positive semidefinite (each
(1 + A_i)/2 is a projection), with every diagonal entry >= 1/2.  Its powers
converge to the block-constant projection P whose entries on a component of
size s are all 1/s — and because A and P commute with P idempotent,

    A^k - P = (A - P)^k,

so the convergence is geometric with ratio rho = ||A - P||_2, computed here
per coarse component.  P itself is an exact operator of the algebra in
:mod:`roeforge.transalg` (:func:`kazhdan_projection`); the gap report never
builds it, since it deflates each component by its mean.  A gap report
collects those per-component ratios, their measured convergence curves,
and the family-level uniform-gap verdict against a threshold; families
where rho stays below the threshold behave expander-like, families where
rho creeps to 1 do not.
"""

from __future__ import annotations

import csv
import io
import math
from dataclasses import dataclass, field
from functools import cached_property
from typing import Iterable, Mapping, NamedTuple, Sequence

import numpy as np
import scipy.sparse as sp
from scipy.linalg import LinAlgError, cho_solve_banded, cholesky_banded
from scipy.sparse import csgraph

from .errors import GapBoundError, GapComputationError, SpaceMismatchError, SpectralError
from .space import FiniteSpace, _integer
from .spectral import (
    DEFAULT_TOL,
    _MATVEC_CAP,
    SpectralResult,
    _checked,
    _matrix_seed,
    dense_extreme_eig,
    eigvec_power_norms,
    extreme_eig_matvec,
)
from .transalg import MODE_FLOAT, FinitePropOp, PermutationOp, restrict

__all__ = [
    "AveragingOp",
    "ComponentGap",
    "GapReport",
    "RateConstants",
    "EXACT_POWER_CAP",
    "DENSE_CUTOFF",
    "build_averaging",
    "kazhdan_projection",
    "restrict",
    "rate_constants",
    "power_gap",
    "gap_report",
    "kazhdan_lower_bound",
    "report_to_dict",
    "family_report_to_dict",
    "reports_to_csv",
    "CSV_COLUMNS",
]

EXACT_POWER_CAP = 20        # rational-mode power bound (denominators blow up)
NO_GAP_TOL = 1e-12          # rho >= 1 - NO_GAP_TOL counts as "no effective gap"
CURVE_RTOL_DENSE = 1e-8
CURVE_RTOL_ITER = 1e-7
CURVE_ATOL = 1e-12
# gap_report's routing (tests patch both; neither may go below 2): a
# component of more than _BANDED_FROM points takes the band test, and one
# with no band is solved densely up to DENSE_CUTOFF points, by Lanczos above.
DENSE_CUTOFF = 512
# Per cycle component, curve included, with one BLAS thread: dense eigh
# takes 3.1 ms at 128 points, 4.7 at 160, 7.2 at 192, 8.8 at 224, 12.0 at
# 256 and 57 at 512; banded shift-invert takes 3.0-3.7 ms from 96 to 256
# points and about 4 at 512.  The crossover is about 128-160 points;
# ROADMAP "Carried: Lower _BANDED_FROM from 224" says why 224 stays for now.
_BANDED_FROM = 224
# Basis size of the shift-invert Lanczos solve.  The shift stays under
# lambda_2 (Fiedler's bound), so the inverse's top eigenvalues,
# 1 / (lambda_j + eps) for the few smallest lambda_j, stand far above the
# rest of its spectrum, and one ARPACK pass converges.  With k = 1 ARPACK
# builds the whole basis before it first tests convergence: that pass
# takes basis + 1 solves and the residual check in extreme_eig_matvec one
# more, so a component costs basis + 2 solves (18 here, 66 at the Lanczos
# default of 64).  A basis of 8 takes 10 solves but leaves residuals up to
# 1e-13; 16 keeps them at 3e-14 or less.
_SHIFT_INVERT_NCV = 16


@dataclass(frozen=True)
class AveragingOp:
    """A = (1/n)*sum_i (1+A_i)/2, held as the integer ``counts`` of 2nA.

    ``keys`` are the support's ``x * size + y``, ascending.  When first
    read, ``csr`` and ``op`` are made from the counts as a float and an
    exact :class:`FinitePropOp`; the float one's ``to_csr`` makes the matrix,
    and the exact one holds the counts over 2n.  The gap path reads only
    ``csr``.
    """

    perms: tuple
    n: int
    space: FiniteSpace = field(compare=False, repr=False)
    keys: np.ndarray = field(compare=False, repr=False)
    counts: np.ndarray = field(compare=False, repr=False)

    @cached_property
    def csr(self) -> sp.csr_matrix:
        # numpy divides exactly; scipy's csr / scalar multiplies by 1/(2n)
        values = (self.counts / (2 * self.n)).tolist()
        return FinitePropOp._from_keys(self.space, self.keys, values, 1, MODE_FLOAT).to_csr()

    @cached_property
    def op(self) -> FinitePropOp:
        return FinitePropOp._from_keys(self.space, self.keys, self.counts.tolist(), 2 * self.n)


def build_averaging(perms: Iterable[PermutationOp]) -> AveragingOp:
    """Average the projections (1 + A_i)/2 over symmetric permutations A_i.

    Entry (x, y) of 2nA counts the permutations mapping y to x, plus n if x = y.
    """
    perms = tuple(perms)
    if not perms:
        raise ValueError("build_averaging needs at least one permutation")
    space = perms[0].space
    for p in perms:
        if p.space is not space:
            raise SpaceMismatchError("permutations live over different spaces")
        if not p.is_involution:
            raise ValueError("averaging needs symmetric permutations "
                             "(each equal to its own inverse)")
    n, size = len(perms), space.n_points
    points = np.arange(size)
    # (perm[y], y) for each permutation, and the diagonal once, topped up to n
    keys, counts = np.unique(np.concatenate([p.perm * size + points for p in perms]
                                            + [points * (size + 1)]), return_counts=True)
    counts[keys % (size + 1) == 0] += n - 1
    # unit row and column sums of A, checked on the counts: each is 2n
    for line in np.divmod(keys, size):
        if np.any(np.bincount(line, counts, minlength=size) != 2 * n):
            raise RuntimeError("averaging operator failed the unit row-sum check")
    return AveragingOp(perms=perms, n=n, space=space, keys=keys, counts=counts)


def kazhdan_projection(space: FiniteSpace) -> FinitePropOp:
    """The projection P onto vectors constant on each coarse component.

    On a component of s points every entry of P is exactly 1/s; across
    components P is zero.  Every component is finite here, so P is an
    element of the operator algebra; each row of a component shares one
    stored row (:meth:`FinitePropOp._block_constant`).
    """
    return FinitePropOp._block_constant(space)


class RateConstants(NamedTuple):
    delta: float
    delta_tilde: float


def rate_constants(c: float, n: int) -> RateConstants:
    """Decay constants from a displacement bound.

    If among n symmetric permutations some moves every vector orthogonal
    to the invariants by at least c (in norm, vectors normalised), then

        delta       = sqrt(1 - (c / 2n)^2)
        delta_tilde = 1 - (1 - delta) / n

    and the averaging operator contracts that orthogonal complement by
    delta_tilde per power.  Requires 0 < c <= 2n so delta is real.
    """
    n = _integer(n, "n")
    if n < 1:
        raise ValueError("n must be a positive integer")
    c = float(c)
    if not 0 < c <= 2 * n:
        raise ValueError(f"displacement constant must satisfy 0 < c <= 2n = {2 * n}, got {c}")
    delta = math.sqrt(max(0.0, 1.0 - (c / (2 * n)) ** 2))
    delta_tilde = 1.0 - (1.0 - delta) / n
    return RateConstants(delta, delta_tilde)


def power_gap(avg: AveragingOp, k: int) -> FinitePropOp:
    """``A^k - P`` as an exact rational operator.

    Powers are capped at k <= EXACT_POWER_CAP because the entry
    denominators grow like (2n)^k.  This materialises P, so it is meant
    for small spaces; large-space curves go through :func:`gap_report`.
    """
    if k < 1:
        raise ValueError("power must be >= 1")
    if k > EXACT_POWER_CAP:
        raise ValueError(f"rational-mode powers are capped at {EXACT_POWER_CAP}")
    acc = avg.op
    for _ in range(k - 1):
        acc = acc @ avg.op
    return acc - kazhdan_projection(avg.space)


@dataclass(frozen=True)
class ComponentGap:
    """Measured gap data for one coarse component."""

    id: int
    size: int
    rho: float
    curve: tuple                    # ((k, ||A^k - P||_2), ...)
    delta_tilde: float | None
    no_effective_gap: bool
    spectral: SpectralResult        # provenance of rho


@dataclass(frozen=True)
class GapReport:
    """Per-component gaps plus the family-level uniform-gap verdict."""

    space_name: str
    components: tuple
    max_rho: float
    uniform_gap_threshold: float
    uniform_gap: bool
    params: Mapping = field(default_factory=dict)


def _curve_powers(kmax: int) -> list[int]:
    ks = {1 << j for j in range(kmax.bit_length()) if (1 << j) <= kmax}
    ks.add(kmax)
    return sorted(ks)


def _tube_band(block: sp.csr_matrix, denom: int):
    """``(order, band)``: the tube Laplacian of ``block`` in banded form, or None.

    ``block`` holds counts / ``denom``, so ``L = denom * (1 - block)`` is a
    matrix of integers: the Laplacian of the graph whose edge weights are
    the counts.  ``order`` is the block's reverse Cuthill–McKee order and
    ``band`` the lower band of L in that order, as ``cholesky_banded``
    takes it.  A bandwidth b makes a Cholesky factor of (b + 1)·s values;
    the block takes 2·nnz words (values and indices), and the band is made
    only when it is no larger.  Cycles and paths have b = 2; an expander's
    bandwidth grows with s, and so does its fill.
    """
    s = block.shape[0]
    order = csgraph.reverse_cuthill_mckee(block, symmetric_mode=True)
    coo = block[order][:, order].tocoo()
    offset = coo.row - coo.col
    width = int(offset.max()) + 1
    if width * s > 2 * block.nnz:
        return None
    lower = offset >= 0
    band = np.zeros((width, s))
    band[offset[lower], coo.col[lower]] = -np.rint(coo.data[lower] * denom)
    band[0] += denom
    return order, band


def _shift_invert(order: np.ndarray, band: np.ndarray, seed: int):
    """Lanczos on ``x -> P⊥ (L + eps)^-1 P⊥ x`` for the banded tube Laplacian L.

    Returns ``(vec, solves)``: the Ritz vector, in the block's own order,
    of the largest eigenvalue 1 / (lambda_2 + eps), so an eigenvector of
    the smallest eigenvalue of L off the constants.  The shift eps is a
    quarter of 4 sin^2(pi / 2s), the path's lambda_2, which by Fiedler's
    bound no connected graph on s points with edge weights >= 1 goes under.
    """
    s = band.shape[1]
    band[0] += math.sin(math.pi / (2 * s)) ** 2
    try:
        factor = cholesky_banded(band, overwrite_ab=True, lower=True, check_finite=False)
    except LinAlgError as exc:
        raise SpectralError(f"banded Cholesky failed on {s} points: {exc}") from exc

    def inverse(x):
        z = np.empty_like(x)
        z[order] = cho_solve_banded((factor, True), x[order] - x.mean(), check_finite=False)
        return z - z.mean()

    _, vec, solves, _ = extreme_eig_matvec(inverse, s, seed, ncv=_SHIFT_INVERT_NCV)
    return vec, solves


def _component_gap(avg: AveragingOp, m: int, ks: list[int],
                   rates: RateConstants | None) -> ComponentGap:
    idx = avg.space.component_points(m)
    s = len(idx)
    block = avg.csr[idx][:, idx]

    def deflated(x):
        return block @ x - x.mean()

    banded = _tube_band(block, 2 * avg.n) if s > _BANDED_FROM else None
    if banded is None and s <= DENSE_CUTOFF:
        lam, vec, residual = dense_extreme_eig(block.toarray() - 1.0 / s)
        spectral = SpectralResult(abs(lam), "dense", 0, residual)
        rtol = CURVE_RTOL_DENSE
    else:
        seed = _matrix_seed(block)
        if banded is None:
            lam, vec, count, residual = extreme_eig_matvec(deflated, s, seed)
            spectral = SpectralResult(abs(lam), "iterative", count, residual, seed)
        else:
            vec, count = _shift_invert(*banded, seed)
            image = deflated(vec)
            lam = float(vec @ image) / float(vec @ vec)
            residual = float(np.linalg.norm(image - lam * vec))
            spectral = SpectralResult(abs(lam), "shift-invert", count, residual, seed)
        rtol = CURVE_RTOL_ITER
    rho = _checked(spectral).value
    norms = eigvec_power_norms(deflated, vec, ks)
    for k in ks:
        expect = rho ** k
        if abs(norms[k] - expect) > rtol * expect + CURVE_ATOL:
            raise GapComputationError(
                f"component {m}: measured ||(A-P)^{k}|| = {norms[k]!r} "
                f"disagrees with rho^{k} = {expect!r}")
    delta_tilde = rates.delta_tilde if rates is not None else None
    if delta_tilde is not None and rho > delta_tilde + 1e-12:
        raise GapBoundError(
            f"component {m}: measured rho = {rho!r} exceeds the decay bound "
            f"delta_tilde = {delta_tilde!r} implied by the supplied displacement constant")
    return ComponentGap(
        id=m, size=s, rho=rho,
        curve=tuple((k, norms[k]) for k in ks),
        delta_tilde=delta_tilde,
        no_effective_gap=bool(rho >= 1.0 - NO_GAP_TOL),
        spectral=spectral)


def gap_report(avg: AveragingOp, kmax: int = 32, c: float | None = None, *,
               threshold: float = 0.95) -> GapReport:
    """Per-component rho = ||A - P||_2 with measured convergence curves.

    Each component makes one eigensolve for rho and its certified
    eigenvector v.  A component of more than ``_BANDED_FROM`` (224) points
    takes the band test: when its reverse Cuthill–McKee band is narrow
    (cycles, paths) it takes shift-invert on the tube Laplacian, which
    beats a dense solve from about 160 points on.  Any other component is
    solved densely up to ``DENSE_CUTOFF`` (512) points, and by Lanczos on
    A - P above it (expanders).  ``params`` records that cutoff and the
    solvers' tolerance ``DEFAULT_TOL``.  The curve holds ||A^k - P||_2 at
    k = 1, 2, 4, ... up to ``kmax`` (kmax itself always included),
    measured as ||(A - P)^k v|| by ``kmax`` applications of A - P to v:
    A - P is self-adjoint, so the norm of each power is attained on v.
    Each point is cross-checked against rho^k, which self-adjointness
    makes the exact answer; disagreement raises
    :class:`~roeforge.errors.GapComputationError` rather than reporting a
    suspect number.  If a displacement constant ``c`` is supplied, each rho
    is asserted to respect the decay bound delta_tilde(c, n).

    Components are solved one after another on the calling thread.  A
    non-dense solve seeds its start vector from the bytes of the
    component's own block (:func:`~roeforge.spectral._matrix_seed`), so each
    component's result depends on that component alone, not on the space
    around it or its name.
    """
    if kmax < 1:
        raise ValueError("kmax must be >= 1")
    if kmax > _MATVEC_CAP:
        # the curve spends kmax matvecs on each component: one solve's cap
        raise ValueError(f"kmax must be <= {_MATVEC_CAP}, the matvec cap of one solve")
    rates = rate_constants(c, avg.n) if c is not None else None
    ks = _curve_powers(kmax)
    comps = tuple(_component_gap(avg, m, ks, rates)
                  for m in range(avg.space.n_components))
    max_rho = max(g.rho for g in comps)
    return GapReport(
        space_name=avg.space.name,
        components=comps,
        max_rho=max_rho,
        uniform_gap_threshold=float(threshold),
        uniform_gap=bool(max_rho < threshold),
        params={"kmax": kmax, "c": c, "dense_cutoff": DENSE_CUTOFF, "tol": DEFAULT_TOL})


def kazhdan_lower_bound(report: GapReport) -> float:
    """Certified displacement lower bound from a measured gap.

    For any unit vector orthogonal to the invariants, the identity
    sum_i (A_i - 1) = 2n (A - 1) forces the worst of the n permutations to
    move the vector by at least 2(1 - rho).  The factor n cancels, so the
    bound is 2(1 - max rho) whatever the number of permutations.
    """
    return max(0.0, 2.0 * (1.0 - report.max_rho))


# -- serialisation -----------------------------------------------------------

CSV_COLUMNS = (
    "space", "component_id", "size", "rho", "delta_tilde",
    "no_effective_gap", "max_rho", "uniform_gap_threshold", "uniform_gap",
)


def report_to_dict(report: GapReport) -> dict:
    """JSON-ready dict with frozen key names and order."""
    return {
        "space": report.space_name,
        "components": [
            {
                "id": g.id,
                "size": g.size,
                "rho": g.rho,
                "curve": [{"k": k, "norm": v} for k, v in g.curve],
                "delta_tilde": g.delta_tilde,
                "no_effective_gap": g.no_effective_gap,
            }
            for g in report.components
        ],
        "max_rho": report.max_rho,
        "uniform_gap_threshold": report.uniform_gap_threshold,
        "uniform_gap": report.uniform_gap,
        "params": dict(report.params),
    }


def family_report_to_dict(family: str, params: Mapping,
                          reports: Sequence[GapReport],
                          threshold: float) -> dict:
    """Family-level wrapper: member reports plus the aggregate verdict."""
    max_rho = max(r.max_rho for r in reports)
    return {
        "family": family,
        "params": dict(params),
        "members": [report_to_dict(r) for r in reports],
        "max_rho": max_rho,
        "uniform_gap_threshold": float(threshold),
        "uniform_gap": bool(max_rho < threshold),
    }


def _csv_cell(v) -> str:
    if v is None:
        return ""
    if isinstance(v, bool):
        return "true" if v else "false"
    return repr(v) if isinstance(v, float) else str(v)


def reports_to_csv(reports: Sequence[GapReport]) -> str:
    """One row per component, columns ``CSV_COLUMNS``, curve omitted.

    The curve is variable-length and so lives only in the JSON form; the
    CSV is the flat per-component summary.
    """
    buf = io.StringIO()
    out = csv.writer(buf, lineterminator="\n")   # quotes a cell holding , or "
    out.writerow(CSV_COLUMNS)
    for r in reports:
        for g in r.components:
            out.writerow([_csv_cell(v) for v in (
                r.space_name, g.id, g.size, g.rho, g.delta_tilde,
                g.no_effective_gap, r.max_rho, r.uniform_gap_threshold,
                r.uniform_gap)])
    return buf.getvalue()
