"""Vertex covers of weighted oriented graphs and the strong-cover test.

A vertex cover C splits into three layers:

    L1: vertices of C with an out-neighbor outside C,
    L2: the rest of C with an in-neighbor outside C,
    L3: vertices of C all of whose neighbors lie inside C.

C is a strong cover when every L3 vertex receives an edge from an
L2-or-L3 vertex of weight at least 2.  Minimal covers have empty L3, so
they are always strong.  Enumeration is a plain scan over all vertex
subsets, guarded by a cap on the vertex count.
"""

from __future__ import annotations

import os
from collections.abc import Iterable
from dataclasses import dataclass

from .graphs import WeightedOrientedGraph

DEFAULT_ENUMERATION_CAP = 20
CAP_ENV_VAR = "ORIENTED_IDEAL_CAP"


class CapExceededError(RuntimeError):
    """Raised when a graph is too large for subset enumeration."""


def _resolve_cap(cap: int | None) -> int:
    if cap is not None:
        if cap < 0:
            raise ValueError(f"cap must be a nonnegative integer, got {cap}")
        return cap
    env = os.environ.get(CAP_ENV_VAR)
    if env is None:
        return DEFAULT_ENUMERATION_CAP
    bad = ValueError(f"{CAP_ENV_VAR} must be a nonnegative integer, got {env!r}")
    try:
        limit = int(env)
    except ValueError:
        raise bad from None
    if limit < 0:
        raise bad
    return limit


def _check_cap(g: WeightedOrientedGraph, cap: int | None) -> None:
    limit = _resolve_cap(cap)
    n = len(g.vertices)
    if n > limit:
        raise CapExceededError(
            f"graph has {n} vertices but subset enumeration is capped at {limit}; "
            f"raise the cap via the {CAP_ENV_VAR} environment variable or the cap "
            "argument if you really want a 2^n scan"
        )


@dataclass(frozen=True)
class CoverPartition:
    """A vertex cover together with its three layers."""

    cover: frozenset[str]
    l1: frozenset[str]
    l2: frozenset[str]
    l3: frozenset[str]

    def to_json(self, g: WeightedOrientedGraph) -> dict:
        return {
            "cover": list(g.sort_vertices(self.cover)),
            "L1": list(g.sort_vertices(self.l1)),
            "L2": list(g.sort_vertices(self.l2)),
            "L3": list(g.sort_vertices(self.l3)),
        }


def is_vertex_cover(g: WeightedOrientedGraph, cover: Iterable[str]) -> bool:
    """True iff every edge has an endpoint in the given set."""
    cover = set(cover)
    for v in cover:
        g._check_vertex(v)
    return all(t in cover or h in cover for t, h in g.edges)


def cover_partition(g: WeightedOrientedGraph, cover: Iterable[str]) -> CoverPartition:
    """Split a vertex cover into the layers L1, L2, L3."""
    cover = frozenset(cover)
    if not is_vertex_cover(g, cover):
        raise ValueError(f"{sorted(cover)} is not a vertex cover")
    l1 = set()
    l2 = set()
    l3 = set()
    for v in cover:
        if g.out_neighbors(v) - cover:
            l1.add(v)
        elif g.in_neighbors(v) - cover:
            l2.add(v)
        else:
            l3.add(v)
    return CoverPartition(cover, frozenset(l1), frozenset(l2), frozenset(l3))


def is_strong_cover(g: WeightedOrientedGraph, cover: Iterable[str]) -> bool:
    """True iff cover is a vertex cover whose L3 layer is properly fed.

    Properly fed: every L3 vertex has an in-neighbor of weight >= 2 lying
    in L2 or L3.  A set that is not a vertex cover returns False.
    """
    cover = frozenset(cover)
    if not is_vertex_cover(g, cover):
        return False
    parts = cover_partition(g, cover)
    feeders = parts.l2 | parts.l3
    for v in parts.l3:
        if not any(u in feeders and g.weight(u) >= 2 for u in g.in_neighbors(v)):
            return False
    return True


def _sorted_covers(
    g: WeightedOrientedGraph, covers: Iterable[frozenset[str]]
) -> list[frozenset[str]]:
    def key(c: frozenset[str]) -> tuple[int, tuple[int, ...]]:
        return (len(c), tuple(sorted(g.position(v) for v in c)))

    return sorted(covers, key=key)


def _all_covers(g: WeightedOrientedGraph) -> Iterable[frozenset[str]]:
    vs = g.vertices
    n = len(vs)
    edge_idx = [(g.position(t), g.position(h)) for t, h in g.edges]
    for bits in range(1 << n):
        if all(bits >> i & 1 or bits >> j & 1 for i, j in edge_idx):
            yield frozenset(vs[i] for i in range(n) if bits >> i & 1)


def enumerate_strong_covers(
    g: WeightedOrientedGraph, cap: int | None = None
) -> list[frozenset[str]]:
    """All strong vertex covers, sorted by size then by vertex position.

    An edgeless graph has the empty set as its one strong cover (every
    nonempty set would have an unfed L3 vertex).
    """
    _check_cap(g, cap)
    return _sorted_covers(
        g, (c for c in _all_covers(g) if is_strong_cover(g, c))
    )


def maximal_strong_covers(
    g: WeightedOrientedGraph, cap: int | None = None
) -> list[frozenset[str]]:
    """The inclusion-maximal strong covers, in the same deterministic order."""
    strong = enumerate_strong_covers(g, cap)
    maximal = [
        c for c in strong
        if not any(c < other for other in strong)
    ]
    return _sorted_covers(g, maximal)


def minimal_vertex_covers(
    g: WeightedOrientedGraph, cap: int | None = None
) -> list[frozenset[str]]:
    """The inclusion-minimal vertex covers, sorted by size then position.

    A cover is minimal exactly when each of its vertices has a neighbor
    outside the cover; for the edgeless graph that leaves the empty cover.
    """
    _check_cap(g, cap)
    out = []
    for c in _all_covers(g):
        if all(g.neighbors(v) - c for v in c):
            out.append(c)
    return _sorted_covers(g, out)
