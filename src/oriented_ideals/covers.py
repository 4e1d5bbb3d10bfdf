"""Vertex covers of weighted oriented graphs and the strong-cover test.

A vertex cover C splits into three layers:

    L1: vertices of C with an out-neighbor outside C,
    L2: the rest of C with an in-neighbor outside C,
    L3: vertices of C all of whose neighbors lie inside C.

C is a strong cover when every L3 vertex receives an edge from an
L2-or-L3 vertex of weight at least 2.  Minimal covers have empty L3, so
they are always strong.

Enumeration is output-sensitive: the vertex covers are the complements of
the independent sets, which a depth-first walk over per-vertex neighbor
bitmasks lists once each, so the cost follows the number of covers rather
than 2^n.  The strong-cover scans cut that walk twice.  A subtree is
skipped when some L3 vertex is starved: it has no heavy feeder left and
nothing the subtree may still add can change that, so no cover below is
strong.  The scan for maximal strong covers also stops below each strong
cover, since every cover in that subtree lies inside it.  So their cost
follows the covers the walk cannot rule out, and every cover it visits
still goes through the one strong-cover test, ``is_strong_cover``.  The
walk is guarded by a cap on the vertex count, since a graph can still
have exponentially many covers.  The cap is 20 vertices unless the
``ORIENTED_IDEAL_CAP`` environment variable sets it; that variable is the
only setting, for the library and the CLI alike.
"""

from __future__ import annotations

import os
from collections.abc import Iterable, Iterator, Sequence
from dataclasses import dataclass

from .graphs import WeightedOrientedGraph

DEFAULT_ENUMERATION_CAP = 20
CAP_ENV_VAR = "ORIENTED_IDEAL_CAP"


class CapExceededError(RuntimeError):
    """Raised when a graph is too large for cover enumeration."""


def _check_cap(g: WeightedOrientedGraph) -> None:
    env = os.environ.get(CAP_ENV_VAR)
    limit = DEFAULT_ENUMERATION_CAP
    if env is not None:
        bad = ValueError(f"{CAP_ENV_VAR} must be a nonnegative integer, got {env!r}")
        try:
            limit = int(env)
        except ValueError:
            raise bad from None
        if limit < 0:
            raise bad
    n = len(g.vertices)
    if n > limit:
        raise CapExceededError(
            f"graph has {n} vertices but cover enumeration is capped at {limit}; "
            f"raise the cap via the {CAP_ENV_VAR} environment variable "
            "if you really want an exponential scan"
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

    def is_strong(self, g: WeightedOrientedGraph) -> bool:
        """True iff every L3 vertex has an in-neighbor of weight >= 2 in L2 or L3."""
        feeders = self.cover - self.l1
        weights = g._weights
        return all(
            any(u in feeders and weights[u] >= 2 for u in g._in[v]) for v in self.l3
        )


def is_vertex_cover(g: WeightedOrientedGraph, cover: Iterable[str]) -> bool:
    """True iff every edge has an endpoint in the given set."""
    cover = frozenset(cover)
    unknown = cover.difference(g._position)
    if unknown:
        g._check_vertex(next(iter(unknown)))
    return all(t in cover or h in cover for t, h in g._edges)


def cover_partition(g: WeightedOrientedGraph, cover: Iterable[str]) -> CoverPartition:
    """Split a vertex cover into the layers L1, L2, L3."""
    cover = frozenset(cover)
    if not is_vertex_cover(g, cover):
        raise ValueError(f"{sorted(cover)} is not a vertex cover")
    l1 = set()
    l2 = set()
    l3 = set()
    for v in cover:
        if not g._out[v] <= cover:
            l1.add(v)
        elif not g._in[v] <= cover:
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
    return is_vertex_cover(g, cover) and cover_partition(g, cover).is_strong(g)


class _CoverMasks:
    """Bitmask view of one graph, built once per scan.

    The first vertex takes the most significant bit, so among covers of
    one size the larger mask comes first in the position order.
    """

    def __init__(self, g: WeightedOrientedGraph):
        n = len(g.vertices)
        self.full = (1 << n) - 1
        self.bits = [1 << (n - 1 - i) for i in range(n)]
        self.bit = dict(zip(g.vertices, self.bits))
        self.nbr = [0] * n
        self.into = [0] * n
        self.heavy_into = [0] * n
        for t, h in g.edges:
            tail, head = g._position[t], g._position[h]
            self.nbr[tail] |= self.bits[head]
            self.nbr[head] |= self.bits[tail]
            self.into[head] |= self.bits[tail]
            if g._weights[t] >= 2:
                self.heavy_into[head] |= self.bits[tail]

    def vertex_covers(self) -> Iterator[tuple[int, int]]:
        """Every vertex cover once, as (cover mask, closed neighborhood mask).

        The covers are the complements of the independent sets, listed
        depth-first over increasing positions: a stack entry holds the next
        position to try, the set so far and the vertices it forbids, and
        adding vertex j forbids j and its neighbors.  The forbidden mask is
        then the set's closed neighborhood, which is the full mask exactly
        when the set is a maximal independent set.
        """
        bits, nbr, full = self.bits, self.nbr, self.full
        n = len(bits)
        stack = [(0, 0, 0)]
        while stack:
            i, chosen, forbidden = stack.pop()
            yield full ^ chosen, forbidden
            for j in range(i, n):
                if not forbidden & bits[j]:
                    stack.append((j + 1, chosen | bits[j], forbidden | nbr[j] | bits[j]))

    def strong_covers(
        self, g: WeightedOrientedGraph, stop_at_strong: bool
    ) -> list[tuple[int, frozenset[str]]]:
        r"""The strong covers the walk reaches, as (mask, cover), in walk order.

        This is the walk of ``vertex_covers`` over independent sets S with
        covers C = V \ S, which also carries L1, the in-neighbors of S.
        Then L3 = V \ N[S] is the complement of the forbidden mask, and the
        feeders of the strength test are the heavy vertices of C \ L1.
        Each cover the walk visits goes through ``is_strong_cover``.

        A node and its whole subtree are skipped when some L3 vertex v is
        starved: no heavy in-neighbor of v lies in C \ L1, and no position
        the subtree may still add lies in N[v].  Going down the tree S only
        gains vertices outside N[v], so v stays in L3, while C shrinks and
        L1 grows, so the feeders of v only shrink and v stays unfed: no
        cover in the subtree is strong.  An L3 vertex at or after the node's
        next position may still be added itself, and it lies in its own
        N[v], so only the L3 vertices before that position are checked, a
        few integer operations each.

        With stop_at_strong the walk does not go below a strong cover:
        every cover in that subtree lies inside it, so none is a maximal
        strong cover, and every maximal one is still reached.
        """
        bits, nbr, into, heavy_into, full = (
            self.bits, self.nbr, self.into, self.heavy_into, self.full
        )
        n = len(bits)
        strong = []
        stack = [(0, 0, 0, 0)]
        while stack:
            i, chosen, forbidden, l1 = stack.pop()
            later = (1 << (n - i)) - 1  # the positions i, i+1, ...
            free = later & ~forbidden
            unfed = ~(chosen | l1)
            passed = (full ^ forbidden) & ~later  # L3 before position i
            while passed:
                low = passed & -passed
                v = n - low.bit_length()
                if not heavy_into[v] & unfed and not nbr[v] & free:
                    break
                passed ^= low
            if passed:
                continue
            mask = full ^ chosen
            cover = self.cover(mask)
            if is_strong_cover(g, cover):
                strong.append((mask, cover))
                if stop_at_strong:
                    continue
            for j in range(i, n):
                if free & bits[j]:
                    stack.append((
                        j + 1, chosen | bits[j], forbidden | nbr[j] | bits[j],
                        l1 | into[j],
                    ))
        return strong

    def cover(self, mask: int) -> frozenset[str]:
        return frozenset([v for v, b in self.bit.items() if mask & b])


def _sorted_covers(covers: Iterable[tuple[int, frozenset[str]]]) -> list[frozenset[str]]:
    """The covers of (mask, cover) pairs, by size and then by vertex position."""
    return [c for _, c in sorted(covers, key=lambda mc: (mc[0].bit_count(), -mc[0]))]


def enumerate_strong_covers(g: WeightedOrientedGraph) -> list[frozenset[str]]:
    """All strong vertex covers, sorted by size then by vertex position.

    An edgeless graph has the empty set as its one strong cover (every
    nonempty set would have an unfed L3 vertex).
    """
    _check_cap(g)
    return _sorted_covers(_CoverMasks(g).strong_covers(g, stop_at_strong=False))


def _maximal_covers(
    g: WeightedOrientedGraph, covers: Sequence[frozenset[str]]
) -> list[frozenset[str]]:
    """The inclusion-maximal covers of a list sorted by size, in list order.

    Walking the covers largest first, a cover is maximal iff it lies in no
    cover already kept: every cover lies in a maximal one, and a larger cover
    is never inside a smaller one.
    """
    position = g._position
    kept: list[tuple[int, frozenset[str]]] = []
    for cover in reversed(covers):
        mask = sum(1 << position[v] for v in cover)
        if all(mask & ~other for other, _ in kept):
            kept.append((mask, cover))
    return [c for _, c in reversed(kept)]


def maximal_strong_covers(g: WeightedOrientedGraph) -> list[frozenset[str]]:
    """The inclusion-maximal strong covers, in the same deterministic order.

    The walk stops below each strong cover it reaches, so it lists every
    maximal strong cover and only some of the others, which the maximal
    filter then drops.
    """
    _check_cap(g)
    strong = _CoverMasks(g).strong_covers(g, stop_at_strong=True)
    return _maximal_covers(g, _sorted_covers(strong))


def minimal_vertex_covers(g: WeightedOrientedGraph) -> list[frozenset[str]]:
    """The inclusion-minimal vertex covers, sorted by size then position.

    A cover is minimal exactly when each of its vertices has a neighbor
    outside the cover, that is, when the independent set left outside is
    maximal; for the edgeless graph that leaves the empty cover.
    """
    _check_cap(g)
    masks = _CoverMasks(g)
    return _sorted_covers(
        (mask, masks.cover(mask))
        for mask, closed in masks.vertex_covers()
        if closed == masks.full
    )
