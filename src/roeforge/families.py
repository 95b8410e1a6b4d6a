"""Graph families for gap experiments, and the manifest format that sweeps them.

Two families anchor the harness: the Margulis-style expanders on (Z/n)^2,
whose averaging operators keep a uniform spectral gap as n grows, and the
box space of Z — disjoint unions of growing cycles — whose per-component
gaps collapse to zero.  Cycles, complete graphs, hypercubes and seeded
random regular graphs round out the test corpus.  Every generator is a
pure function of its parameters: the same call always returns an identical
space, random families included.
"""

from __future__ import annotations

import json
from typing import Mapping, Sequence

import numpy as np

from .errors import FamilyError, ManifestError
from .space import FiniteSpace, _check_size, _integer, space_from_graph

__all__ = [
    "make_cycle",
    "make_complete",
    "make_hypercube",
    "make_random_regular",
    "make_margulis",
    "make_box_space_Z",
    "random_bounded_degree_space",
    "FAMILIES",
    "load_manifest",
]


def make_cycle(n: int) -> FiniteSpace:
    """The n-cycle with its path metric."""
    n = _integer(n, "n", FamilyError)
    if n < 3:
        raise FamilyError("a cycle needs at least 3 points")
    _check_size(n)
    return space_from_graph([str(k) for k in range(n)], _cycle_edges(n), name=f"C{n}")


def _unit_edges(u, v) -> np.ndarray:
    """The (m, 3) edge array of unit edges u[i] -- v[i]."""
    return np.column_stack([u, v, np.ones(len(u))])


def _cycle_edges(n: int, at: int = 0) -> np.ndarray:
    """Unit edges of the n-cycle on the points at, at + 1, ..., at + n - 1."""
    k = np.arange(n)
    return _unit_edges(at + k, at + (k + 1) % n)


def make_complete(n: int) -> FiniteSpace:
    n = _integer(n, "n", FamilyError)
    if n < 1:
        raise FamilyError("a complete graph needs at least 1 point")
    _check_size(n)
    return space_from_graph([str(k) for k in range(n)],
                            _unit_edges(*np.triu_indices(n, 1)), name=f"K{n}")


def make_hypercube(d: int) -> FiniteSpace:
    """The d-cube on 2^d points; distance = number of differing bits."""
    d = _integer(d, "d", FamilyError)
    if d < 1:
        raise FamilyError("hypercube dimension must be >= 1")
    _check_size(1 << min(d, 21))    # 2^21 is over the limit: no larger shift is made
    n = 1 << d
    # each edge once, from its end v with bit b clear
    v, b = np.nonzero((np.arange(n)[:, None] >> np.arange(d) & 1) == 0)
    edges = _unit_edges(v, v | 1 << b)
    return space_from_graph([format(v, f"0{d}b") for v in range(n)], edges, name=f"Q{d}")


def _seed(seed) -> int:
    """A random family's seed: an integer under ``_integer``'s rule, >= 0."""
    seed = _integer(seed, "seed", FamilyError)
    if seed < 0:
        raise FamilyError(f"seed must be >= 0, got {seed}")
    return seed


def make_random_regular(n: int, d: int, seed: int = 0) -> FiniteSpace:
    """Simple d-regular graph on n points, by rejection-sampled pairings.

    Half-edge stubs are shuffled and paired; samples with self-loops or
    repeated edges are rejected, up to 1000 attempts.  Deterministic per
    seed.  Disconnected samples are kept — they simply show up as several
    coarse components.
    """
    n = _integer(n, "n", FamilyError)
    d = _integer(d, "d", FamilyError)
    if not 0 <= d < n:
        raise FamilyError("degree must satisfy 0 <= d < n")
    if (n * d) % 2:
        raise FamilyError("n*d must be even for a d-regular graph to exist")
    seed = _seed(seed)
    _check_size(n)
    name = f"RR{n}x{d}s{seed}"
    if d == 0:
        return space_from_graph([str(k) for k in range(n)], [], name=name)
    rng = np.random.default_rng(seed)
    stubs = np.repeat(np.arange(n), d)
    for _ in range(1000):
        rng.shuffle(stubs)
        pairs = stubs.reshape(-1, 2)
        if (pairs[:, 0] == pairs[:, 1]).any():
            continue
        canon = np.sort(pairs, axis=1)
        if len(np.unique(canon, axis=0)) != len(canon):
            continue
        return space_from_graph([str(k) for k in range(n)],
                                _unit_edges(canon[:, 0], canon[:, 1]), name=name)
    raise FamilyError(
        f"no simple {d}-regular pairing on {n} points found in 1000 attempts")


def make_margulis(n: int) -> FiniteSpace:
    """8-generator expander graph on the n x n torus.

    Vertices are pairs (x, y) mod n; the neighbours of (x, y) are exactly

        (x + 2y, y), (x - 2y, y), (x + 2y + 1, y), (x - 2y - 1, y),
        (x, y + 2x), (x, y - 2x), (x, y + 2x + 1), (x, y - 2x - 1),

    all mod n.  The 8n^2 edges go to :func:`space_from_graph` as they are;
    it drops the self-loops and collapses the parallel edges, so the graph
    is simple of degree <= 8.  This generator set is part of the
    interface: reports depend on it bit for bit.
    """
    n = _integer(n, "n", FamilyError)
    if n < 2:
        raise FamilyError("torus side must be >= 2")
    _check_size(n * n)
    src = np.arange(n * n)
    x, y = np.divmod(src, n)
    tx = np.concatenate([x + 2 * y, x - 2 * y, x + 2 * y + 1, x - 2 * y - 1]) % n
    ty = np.concatenate([y + 2 * x, y - 2 * x, y + 2 * x + 1, y - 2 * x - 1]) % n
    dst = np.concatenate([tx * n + np.tile(y, 4), np.tile(x, 4) * n + ty])
    points = [f"{a},{b}" for a, b in zip(x.tolist(), y.tolist())]
    return space_from_graph(points, _unit_edges(np.tile(src, 8), dst), name=f"Mg{n}")


def make_box_space_Z(sizes: Sequence[int]) -> FiniteSpace:
    """Disjoint union of cycles C_{sizes[0]}, C_{sizes[1]}, ... at mutual +inf.

    The prototypical no-uniform-gap family: each component keeps a gap, but
    the per-component rho climbs to 1 as the cycles grow.  Sizes must be
    strictly increasing, each at least 3.
    """
    sizes = [_integer(s, "cycle size", FamilyError) for s in sizes]
    if not sizes:
        raise FamilyError("need at least one cycle size")
    if any(s < 3 for s in sizes):
        raise FamilyError("cycle sizes must be >= 3")
    if any(b <= a for a, b in zip(sizes, sizes[1:])):
        raise FamilyError("cycle sizes must be strictly increasing")
    _check_size(sum(sizes))
    name = "boxZ-" + "-".join(str(s) for s in sizes)
    # one block-diagonal graph, its points named as disjoint_union names them
    points = [f"C{s}:{k}" for s in sizes for k in range(s)]
    starts = np.cumsum([0] + sizes[:-1]).tolist()
    edges = np.concatenate([_cycle_edges(s, at) for at, s in zip(starts, sizes)])
    return space_from_graph(points, edges, name=name)


def random_bounded_degree_space(n: int, max_degree: int, seed: int = 0,
                                edge_prob: float = 0.5,
                                name: str | None = None) -> FiniteSpace:
    """Random simple graph with all degrees <= max_degree, as a space.

    Candidate pairs are visited in a seeded shuffle and kept with
    probability ``edge_prob`` while both endpoints have spare degree; handy
    as a randomised test corpus with a hard degree bound.  Deterministic
    per (n, max_degree, seed, edge_prob).
    """
    n = _integer(n, "n", FamilyError)
    max_degree = _integer(max_degree, "max_degree", FamilyError)
    if n < 1:
        raise FamilyError("need at least one point")
    if max_degree < 0:
        raise FamilyError("max_degree must be >= 0")
    seed = _seed(seed)
    _check_size(n)
    rng = np.random.default_rng(seed)
    # shuffling the pair indices draws exactly what shuffling the list of
    # pairs (u < v, in row order) would, and leaves the stream in the same state
    order = np.arange(n * (n - 1) // 2)
    rng.shuffle(order)
    us, vs = np.triu_indices(n, 1)
    us, vs = us[order], vs[order]
    degree = [0] * n
    spare = np.full(n, max_degree > 0)
    edges = []
    # a saturated point stays saturated, so a chunk's pairs with a
    # saturated endpoint are dropped up front; they never drew a number
    for lo in range(0, len(order), n):
        u_chunk, v_chunk = us[lo:lo + n], vs[lo:lo + n]
        keep = spare[u_chunk] & spare[v_chunk]
        for u, v in zip(u_chunk[keep].tolist(), v_chunk[keep].tolist()):
            if degree[u] < max_degree and degree[v] < max_degree and rng.random() < edge_prob:
                for w in (u, v):
                    degree[w] += 1
                    if degree[w] == max_degree:
                        spare[w] = False
                edges.append((u, v, 1.0))
    if name is None:
        name = f"G{n}d{max_degree}s{seed}"
    return space_from_graph([str(k) for k in range(n)], edges, name=name)


# family name -> (constructor, name of the natural sweep parameter)
FAMILIES = {
    "cycle": (make_cycle, "n"),
    "complete": (make_complete, "n"),
    "hypercube": (make_hypercube, "d"),
    "random_regular": (make_random_regular, "n"),
    "margulis": (make_margulis, "n"),
    "box_space_Z": (make_box_space_Z, "sizes"),
}


def load_manifest(source) -> tuple[str, dict, list[FiniteSpace]]:
    """Instantiate a family manifest.

    ``source`` is a JSON string or an already-parsed mapping of the form::

        {"family": "margulis", "params": {}, "members": [4, 8, 16]}

    Each member is either a mapping of keyword arguments for the family
    constructor or a bare value for its natural parameter (``n`` for
    cycles, ``sizes`` for the box space, ...); ``params`` supplies defaults
    merged under every member.  Returns (family name, params, spaces) with
    members in manifest order.
    """
    if isinstance(source, (str, bytes)):
        try:
            data = json.loads(source)
        except (json.JSONDecodeError, UnicodeDecodeError) as exc:
            raise ManifestError(f"manifest is not valid JSON: {exc}") from None
        except ValueError:  # an integer past Python's limit on digits
            raise ManifestError("manifest holds an integer too long to read") from None
    else:
        data = source
    if not isinstance(data, Mapping):
        raise ManifestError("manifest must be a JSON object")
    try:
        family = data["family"]
        members = data["members"]
    except KeyError as exc:
        raise ManifestError(f"manifest lacks required key {exc.args[0]!r}") from None
    if not isinstance(family, str):
        raise ManifestError("'family' must be a string")
    params = data.get("params", {})
    if not isinstance(params, Mapping):
        raise ManifestError("'params' must be an object")
    if not isinstance(members, Sequence) or isinstance(members, (str, bytes)):
        raise ManifestError("'members' must be an array")
    if not members:
        raise ManifestError("'members' is empty")
    try:
        ctor, natural = FAMILIES[family]
    except KeyError:
        known = ", ".join(sorted(FAMILIES))
        raise ManifestError(f"unknown family {family!r} (known: {known})") from None
    spaces = []
    for i, member in enumerate(members):
        if isinstance(member, Mapping):
            kwargs = {**params, **member}
        else:
            kwargs = {**params, natural: member}
        try:
            spaces.append(ctor(**kwargs))
        except TypeError as exc:
            raise ManifestError(f"member {i}: {exc}") from None
        except (ValueError, OverflowError, FamilyError) as exc:
            raise ManifestError(f"member {i}: {exc}") from None
    return family, dict(params), spaces
