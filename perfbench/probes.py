"""Spans around roeforge's layer boundaries, installed from outside the package.

:func:`install` rebinds the public functions that cross from one module
(layer) to another with recording wrappers, in every roeforge module that
binds them, so calls between modules are seen as well as calls from the
command line.  :func:`layer_metrics` turns the recorded spans and counts
into the per-layer metrics of the benchmark.

Span names are ``<layer>.<boundary>``; each maps to one self-time metric.
"""

from __future__ import annotations

import json
from concurrent.futures import ThreadPoolExecutor

from spans import Recorder, self_times

__all__ = ["install", "layer_metrics", "SELF_TIME_METRICS", "CALL_METRICS",
           "COUNT_METRICS", "IDLE_SPANS"]

# span name -> the metric its self time is added to
SELF_TIME_METRICS = {
    "cli.main": "cli.self_s",
    "cli.pool_task": "cli.self_s",
    "cli.serialise": "cli.serialise_s",
    "families.build": "families.build_s",
    "space.build": "space.build_s",
    "colouring.colour": "colouring.colour_s",
    "colouring.perms": "colouring.perms_s",
    "colouring.decompose": "colouring.decompose_s",
    "transalg.construct": "transalg.construct_s",
    "transalg.matmul": "transalg.matmul_s",
    "transalg.add": "transalg.add_s",
    "transalg.to_float": "transalg.to_float_s",
    "transalg.to_csr": "transalg.to_csr_s",
    "kazhdan.averaging": "kazhdan.averaging_s",
    "kazhdan.gap_report": "kazhdan.gap_report_self_s",
    "kazhdan.pool_task": "kazhdan.gap_report_self_s",
    "kazhdan.projection": "kazhdan.projection_s",
    "kazhdan.restrict": "kazhdan.restrict_s",
    "spectral.eig": "spectral.eig_s",
    "spectral.curve": "spectral.curve_s",
}

# span name -> the metric counting its calls
CALL_METRICS = {
    "transalg.construct": "transalg.construct_calls",
    "transalg.matmul": "transalg.matmul_calls",
    "transalg.add": "transalg.add_calls",
}

# counts recorded by the wrappers below
COUNT_METRICS = (
    "transalg.construct_entries",
    "transalg.nnz",
    "space.points",
    "space.dist_bytes",
    "colouring.tube_edges",
    "colouring.n_colours",
    "spectral.eig_matvecs",
    "spectral.curve_matvecs",
    "spectral.dense_components",
    "spectral.iterative_components",
)

# a thread inside one of these is waiting for other threads, not working
IDLE_SPANS = ("pool.wait",)


# -- counts taken at the boundaries ------------------------------------------

def _count_construct(rec, args, kwargs, result):
    entries = args[2] if len(args) > 2 else kwargs.get("entries", {})
    rec.add("transalg.construct_entries", len(entries))


def _count_space(rec, args, kwargs, result):
    n = result.n_points
    rec.add("space.points", n)
    rec.add("space.dist_bytes", 8 * n * n)   # computed: one float64 per pair


def _count_colouring(rec, args, kwargs, result):
    rec.add("colouring.tube_edges", len(result.edges))
    rec.maximum("colouring.n_colours", result.n_colours)


def _count_gap_report(rec, args, kwargs, result):
    for g in result.components:
        rec.add("spectral.eig_matvecs", g.spectral.iterations)
        if g.spectral.method == "dense":
            rec.add("spectral.dense_components", 1)
        else:
            rec.add("spectral.iterative_components", 1)


def _count_curve(rec, args, kwargs, result):
    rec.add("spectral.curve_matvecs", result[1])


def _counting_to_csr(rec, to_csr):
    """``to_csr`` traced, adding the nnz of each matrix it builds (not cache hits)."""
    traced = rec.wrap(to_csr, "transalg.to_csr")

    def counted(self):
        built = getattr(self, "_csr", None) is None
        out = traced(self)
        if built:
            rec.add("transalg.nnz", int(out.nnz))
        return out

    return counted


# -- installation -------------------------------------------------------------

class _Patcher:
    def __init__(self):
        self.undo = []

    def set(self, owner, attr, value):
        if isinstance(owner, dict):
            self.undo.append((owner, attr, owner[attr], True))
            owner[attr] = value
        else:
            self.undo.append((owner, attr, getattr(owner, attr), False))
            setattr(owner, attr, value)

    def restore(self):
        for owner, attr, old, is_dict in reversed(self.undo):
            if is_dict:
                owner[attr] = old
            else:
                setattr(owner, attr, old)
        self.undo.clear()


def _rebind(patch, modules, original, wrapped):
    """Replace ``original`` by ``wrapped`` wherever a module binds it."""
    for mod in modules:
        for attr, value in list(vars(mod).items()):
            if value is original:
                patch.set(mod, attr, wrapped)


class _JsonProxy:
    """Stands in for the ``json`` module inside ``roeforge.cli``."""

    def __init__(self, dumps):
        self.dumps = dumps

    def __getattr__(self, attr):
        return getattr(json, attr)


def _traced_pool(rec, layer):
    class TracedPool(ThreadPoolExecutor):
        """A task is a span of ``layer`` under the submitting span; the wait is idle."""

        def map(self, fn, *iterables, **kwargs):
            parent = rec.current()
            task = rec.wrap(fn, f"{layer}.pool_task")

            def run(*args):
                rec.adopt(parent)
                try:
                    return task(*args)
                finally:
                    rec.adopt(None)

            results = super().map(run, *iterables, **kwargs)
            with rec.span("pool.wait"):
                done = list(results)
            return iter(done)

    return TracedPool


def install(rec: Recorder):
    """Wrap roeforge's layer boundaries; returns a function that undoes it."""
    from roeforge import cli, colouring, families, kazhdan, space, spectral, transalg

    modules = (cli, colouring, families, kazhdan, space, spectral, transalg)
    patch = _Patcher()

    def wrap_all(fn, name, count=None, where=modules):
        _rebind(patch, where, fn, rec.wrap(fn, name, count))

    # families: every constructor, whether reached through the manifest
    # table, from another constructor, or from the verify corpus
    ctors = {ctor for ctor, _natural in families.FAMILIES.values()}
    ctors.add(families.random_bounded_degree_space)
    for ctor in ctors:
        wrapped = rec.wrap(ctor, "families.build")
        _rebind(patch, modules, ctor, wrapped)
        for key, (fn, natural) in list(families.FAMILIES.items()):
            if fn is ctor:
                patch.set(families.FAMILIES, key, (wrapped, natural))

    for fn in (space.space_from_graph, space.disjoint_union):
        wrap_all(fn, "space.build", _count_space)

    wrap_all(colouring.edge_colouring, "colouring.colour", _count_colouring)
    wrap_all(colouring.colour_permutations, "colouring.perms")
    wrap_all(colouring.decompose_translation, "colouring.decompose")

    op = transalg.FinitePropOp
    patch.set(op, "__init__", rec.wrap(op.__init__, "transalg.construct", _count_construct))
    patch.set(op, "__matmul__", rec.wrap(op.__matmul__, "transalg.matmul"))
    patch.set(op, "__add__", rec.wrap(op.__add__, "transalg.add"))
    patch.set(op, "to_float", rec.wrap(op.to_float, "transalg.to_float"))
    patch.set(op, "to_csr", _counting_to_csr(rec, op.to_csr))

    wrap_all(kazhdan.build_averaging, "kazhdan.averaging")
    wrap_all(kazhdan.gap_report, "kazhdan.gap_report", _count_gap_report)
    wrap_all(kazhdan.kazhdan_projection, "kazhdan.projection")
    wrap_all(kazhdan.restrict, "kazhdan.restrict")

    # the solver calls as kazhdan binds them; spectral's own internal calls
    # (matvec_power_norm -> extreme_eig_matvec) stay inside one span
    kz = (kazhdan,)
    wrap_all(spectral.extreme_eig_matvec, "spectral.eig", where=kz)
    wrap_all(spectral.dense_power_norms, "spectral.curve", where=kz)
    wrap_all(spectral.matvec_power_norm, "spectral.curve", _count_curve, where=kz)

    for fn in (kazhdan.family_report_to_dict, kazhdan.report_to_dict):
        wrap_all(fn, "cli.serialise", where=(cli,))
    _rebind(patch, (cli,), json, _JsonProxy(rec.wrap(json.dumps, "cli.serialise")))

    for mod, layer in ((cli, "cli"), (kazhdan, "kazhdan")):
        _rebind(patch, (mod,), ThreadPoolExecutor, _traced_pool(rec, layer))
    return patch.restore


def layer_metrics(spans, counts) -> dict:
    """Per-layer metrics from one traced run: self times, calls and counts."""
    names = {s[0]: s[1] for s in spans}
    out = {metric: 0.0 for metric in SELF_TIME_METRICS.values()}
    total = 0.0
    for sid, seconds in self_times(spans, IDLE_SPANS).items():
        metric = SELF_TIME_METRICS.get(names[sid])
        if metric is not None:
            out[metric] += seconds
        total += seconds
    for metric in CALL_METRICS.values():
        out[metric] = 0
    for name in names.values():
        metric = CALL_METRICS.get(name)
        if metric is not None:
            out[metric] += 1
    for metric in COUNT_METRICS:
        out[metric] = counts.get(metric, 0)
    out["trace.self_sum_s"] = total
    out["trace.spans"] = len(spans)
    return out
