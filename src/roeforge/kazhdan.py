"""Averaging operators, block-constant projections, and spectral-gap reports.

Given symmetric permutations A_1..A_n of a space, the averaging operator

    A = (1/n) * sum_i (1 + A_i) / 2

is doubly stochastic, self-adjoint and positive semidefinite (each
(1 + A_i)/2 is a projection), with every diagonal entry >= 1/2.  Its powers
converge to the block-constant projection P whose entries on a component of
size s are all 1/s — and because A and P commute with P idempotent,

    A^k - P = (A - P)^k,

so the convergence is geometric with ratio rho = ||A - P||_2, computed here
per coarse component.  A gap report collects those per-component ratios,
their measured convergence curves, and the family-level uniform-gap verdict
against a threshold; families where rho stays below the threshold behave
expander-like, families where rho creeps to 1 do not.
"""

from __future__ import annotations

import json
import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Iterable, Mapping, NamedTuple, Sequence

import numpy as np

from .errors import GapBoundError, GapComputationError, SpaceMismatchError
from .space import FiniteSpace
from .spectral import (
    DEFAULT_TOL,
    DENSE_CUTOFF,
    SpectralResult,
    _checked,
    dense_extreme_eig,
    dense_power_norms,
    extreme_eig_matvec,
    matvec_power_norm,
    operator_seed,
)
from .transalg import MODE_RATIONAL, FinitePropOp, PermutationOp, uniform_sum

__all__ = [
    "AveragingOp",
    "KazhdanProjection",
    "ComponentGap",
    "GapReport",
    "RateConstants",
    "EXACT_POWER_CAP",
    "build_averaging",
    "kazhdan_projection",
    "restrict",
    "rate_constants",
    "power_gap",
    "gap_report",
    "kazhdan_lower_bound",
    "report_to_dict",
    "report_to_json",
    "family_report_to_dict",
    "reports_to_csv",
    "CSV_COLUMNS",
]

EXACT_POWER_CAP = 20        # rational-mode power bound (denominators blow up)
NO_GAP_TOL = 1e-12          # rho >= 1 - NO_GAP_TOL counts as "no effective gap"
CURVE_RTOL_DENSE = 1e-8
CURVE_RTOL_ITER = 1e-7
CURVE_ATOL = 1e-12


@dataclass(frozen=True)
class AveragingOp:
    """The operator (1/n)*sum_i (1+A_i)/2 with its source permutations."""

    op: FinitePropOp
    perms: tuple
    n: int


def build_averaging(perms: Iterable[PermutationOp]) -> AveragingOp:
    """Average the projections (1 + A_i)/2 over symmetric permutations A_i.

    Exact rational arithmetic: entry (x, y) is 1/(2n) times the number of
    permutations mapping y to x, plus 1/2 on the diagonal; each entry is
    counted in integers and divided once.
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
    n = len(perms)
    hits = {(i, i): n for i in range(space.n_points)}
    for p in perms:
        for y, x in enumerate(p.perm.tolist()):
            hits[(x, y)] = hits.get((x, y), 0) + 1
    op = FinitePropOp._sealed(
        space, {k: Fraction(c, 2 * n) for k, c in hits.items()}, MODE_RATIONAL)
    if uniform_sum(op) != 1:
        raise RuntimeError("averaging operator failed the unit row-sum check")
    return AveragingOp(op=op, perms=perms, n=n)


class KazhdanProjection:
    """Projection onto vectors constant on each coarse component.

    On a component of size s every matrix entry is 1/s; across components
    everything is zero.  The matrix has quadratically many entries per
    component, so it is stored structurally (one rational value per
    component) and materialised as a :class:`FinitePropOp` only through
    the ``op`` property; the gap computations never materialise it.
    """

    __slots__ = ("space", "component_value", "_op")

    def __init__(self, space: FiniteSpace):
        self.space = space
        self.component_value = {
            m: Fraction(1, int(np.sum(space.component_of == m)))
            for m in range(space.n_components)}
        self._op = None

    @property
    def op(self) -> FinitePropOp:
        if self._op is None:
            entries = {}
            for m, val in self.component_value.items():
                idx = self.space.component_points(m).tolist()
                for x in idx:
                    for y in idx:
                        entries[(x, y)] = val
            self._op = FinitePropOp._sealed(self.space, entries, MODE_RATIONAL)
        return self._op

    def matvec(self, x) -> np.ndarray:
        """Apply without materialising: mean of x on each component."""
        x = np.asarray(x, dtype=float)
        out = np.empty_like(x)
        for m in range(self.space.n_components):
            idx = self.space.component_points(m)
            out[idx] = x[idx].mean()
        return out

    def __repr__(self) -> str:
        return (f"KazhdanProjection({self.space.name!r}, "
                f"n_components={self.space.n_components})")


def kazhdan_projection(space: FiniteSpace) -> KazhdanProjection:
    """The block-constant projection of a space (all components finite here)."""
    return KazhdanProjection(space)


def restrict(t: FinitePropOp, m: int) -> FinitePropOp:
    """Cut an operator down to coarse component ``m`` of its space.

    Finite-propagation operators never connect distinct components, so
    this block extraction is a unital *-homomorphism: it preserves sums,
    products, adjoints and the identity, exactly in rational mode.
    """
    sub = t.space.component_space(m)
    idx = t.space.component_points(m)
    pos = {g: i for i, g in enumerate(idx.tolist())}
    entries = {}
    for (x, y), v in t.entries.items():
        px = pos.get(x)
        if px is not None:
            entries[(px, pos[y])] = v
    return FinitePropOp._sealed(sub, entries, t.mode)


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
    n = int(n)
    if n < 1:
        raise ValueError("n must be a positive integer")
    c = float(c)
    if not 0 < c <= 2 * n:
        raise ValueError(f"displacement constant must satisfy 0 < c <= 2n = {2 * n}, got {c}")
    delta = math.sqrt(max(0.0, 1.0 - (c / (2 * n)) ** 2))
    delta_tilde = 1.0 - (1.0 - delta) / n
    return RateConstants(delta, delta_tilde)


def power_gap(avg: AveragingOp, proj: KazhdanProjection, k: int) -> FinitePropOp:
    """``A^k - P`` as an operator, exact in rational mode.

    Rational powers are capped at k <= EXACT_POWER_CAP because the entry
    denominators grow like (2n)^k.  This materialises P, so it is meant
    for small spaces; large-space curves go through :func:`gap_report`.
    """
    if proj.space is not avg.op.space:
        raise SpaceMismatchError("projection and averaging operator live over different spaces")
    if k < 1:
        raise ValueError("power must be >= 1")
    if avg.op.mode == MODE_RATIONAL and k > EXACT_POWER_CAP:
        raise ValueError(f"rational-mode powers are capped at {EXACT_POWER_CAP}")
    acc = avg.op
    for _ in range(k - 1):
        acc = acc @ avg.op
    p_op = proj.op if avg.op.mode == MODE_RATIONAL else proj.op.to_float()
    return acc - p_op


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


def _component_gap(avg: AveragingOp, m: int, ks: list[int], *,
                   dense_cutoff: int, tol: float,
                   rates: RateConstants | None) -> ComponentGap:
    space = avg.op.space
    idx = space.component_points(m)
    s = len(idx)
    block = avg.op.to_csr()[idx][:, idx]
    if s <= max(dense_cutoff, 2):
        mdense = block.toarray() - 1.0 / s
        lam, residual = dense_extreme_eig(mdense)
        rho = abs(lam)
        spectral = _checked(SpectralResult(rho, "dense", 0, residual), tol)
        norms = dense_power_norms(mdense, ks)
        rtol = CURVE_RTOL_DENSE
    else:
        def deflated(x):
            return block @ x - x.mean()

        seed = operator_seed(avg.op, extra=f"component:{m}".encode())
        lam, count, residual = extreme_eig_matvec(deflated, s, seed, tol=tol)
        rho = abs(lam)
        spectral = _checked(SpectralResult(rho, "iterative", count, residual, seed), tol)
        norms = {}
        for k in ks:
            kseed = operator_seed(avg.op, extra=f"component:{m}:power:{k}".encode())
            norms[k], _, _ = matvec_power_norm(deflated, s, k, kseed, tol=tol)
        rtol = CURVE_RTOL_ITER
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


def gap_report(avg: AveragingOp, proj: KazhdanProjection, kmax: int = 32,
               c: float | None = None, *, threshold: float = 0.95,
               dense_cutoff: int = DENSE_CUTOFF, tol: float = DEFAULT_TOL,
               jobs: int = 1) -> GapReport:
    """Per-component rho = ||A - P||_2 with measured convergence curves.

    The curve holds ||A^k - P||_2 at k = 1, 2, 4, ... up to ``kmax`` (kmax
    itself always included), computed by renormalised repeated matrix
    multiplication — and cross-checked against rho^k, which self-adjointness
    makes the exact answer; disagreement raises
    :class:`~roeforge.errors.GapComputationError` rather than reporting a
    suspect number.  If a displacement constant ``c`` is supplied, each rho
    is asserted to respect the decay bound delta_tilde(c, n).

    Components are independent eigenproblems; ``jobs > 1`` runs them in a
    thread pool, with results merged by component id so the report is
    identical either way.
    """
    if proj.space is not avg.op.space:
        raise SpaceMismatchError("projection and averaging operator live over different spaces")
    if kmax < 1:
        raise ValueError("kmax must be >= 1")
    rates = rate_constants(c, avg.n) if c is not None else None
    ks = _curve_powers(kmax)
    space = avg.op.space
    avg.op.to_csr()  # build the shared matrix once, not per thread
    mids = range(space.n_components)

    def work(m):
        return _component_gap(avg, m, ks, dense_cutoff=dense_cutoff,
                              tol=tol, rates=rates)

    if jobs > 1:
        with ThreadPoolExecutor(max_workers=jobs) as pool:
            comps = tuple(pool.map(work, mids))
    else:
        comps = tuple(work(m) for m in mids)
    max_rho = max(g.rho for g in comps)
    return GapReport(
        space_name=space.name,
        components=comps,
        max_rho=max_rho,
        uniform_gap_threshold=float(threshold),
        uniform_gap=bool(max_rho < threshold),
        params={"kmax": kmax, "c": c, "dense_cutoff": dense_cutoff, "tol": tol})


def kazhdan_lower_bound(report: GapReport, n: int) -> float:
    """Certified displacement lower bound from a measured gap.

    For any unit vector orthogonal to the invariants, the identity
    sum_i (A_i - 1) = 2n (A - 1) forces the worst of the n permutations to
    move the vector by at least 2(1 - rho).  The factor n cancels, so the
    bound is 2(1 - max rho); ``n`` is validated for positivity only, to
    keep the averaging context explicit at call sites.
    """
    if int(n) < 1:
        raise ValueError("n must be a positive integer")
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


def report_to_json(report: GapReport) -> str:
    return json.dumps(report_to_dict(report), indent=2) + "\n"


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
    lines = [",".join(CSV_COLUMNS)]
    for r in reports:
        for g in r.components:
            lines.append(",".join(_csv_cell(v) for v in (
                r.space_name, g.id, g.size, g.rho, g.delta_tilde,
                g.no_effective_gap, r.max_rho, r.uniform_gap_threshold,
                r.uniform_gap)))
    return "\n".join(lines) + "\n"
