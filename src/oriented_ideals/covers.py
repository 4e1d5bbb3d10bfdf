"""Vertex covers of weighted oriented graphs and the strong-cover test.

A vertex cover C splits into three layers:

    L1: vertices of C with an out-neighbor outside C,
    L2: the rest of C with an in-neighbor outside C,
    L3: vertices of C all of whose neighbors lie inside C.

C is a strong cover when every L3 vertex receives an edge from an
L2-or-L3 vertex of weight at least 2.  Minimal covers have empty L3, so
they are always strong, and with every weight 1 they are the only ones.

Every test here works on bitmasks.  Each graph carries one table of
per-vertex bits and neighbor, in-neighbor and heavy-vertex masks, built
on the first cover call and kept on the graph, like its adjacency.  A
public call turns its set of names into a mask once; the layers are then
unions of masks over the vertices outside C, and a ``CoverPartition``
keeps them as masks, building its sets of names only when they are read.

Enumeration is one output-sensitive walk: the vertex covers are the
complements of the independent sets, which a depth-first walk over
per-vertex neighbor bitmasks reaches once each.  A subtree is skipped
when some L3 vertex is starved: it has no heavy feeder left and nothing
the subtree may still add can change that, so no cover below is strong.
The scan for maximal strong covers also stops below each strong cover,
since every cover in that subtree lies inside it, and the minimal covers
are the strong covers of a unit-weight copy of the graph.  So each scan
costs what the walk cannot rule out, and every cover it visits goes
through the one strong-cover test, ``is_strong_cover``.  The walk is
guarded by a cap on the vertex count, since a graph can still have
exponentially many covers.  The cap is 20 vertices unless the
``ORIENTED_IDEAL_CAP`` environment variable sets it; that variable is the
only setting, for the library and the CLI alike.
"""

from __future__ import annotations

import os
from collections.abc import Iterable, Sequence

from .graphs import WeightedOrientedGraph

DEFAULT_ENUMERATION_CAP = 20
CAP_ENV_VAR = "ORIENTED_IDEAL_CAP"

_CHUNK = 6  # bits per lookup when a mask is turned back into names
_CHUNK_MASK = (1 << _CHUNK) - 1


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


def _vertex_set(cover: Iterable[str]) -> frozenset[str]:
    """The names of a cover as a set; a bare string is not a set of names."""
    if isinstance(cover, str):
        raise TypeError(f"cover must be a collection of vertex names, not {cover!r}")
    return frozenset(cover)


class _CoverMasks:
    """Bitmask tables of one graph, built once and kept on the graph.

    The first vertex takes the most significant bit, so among covers of
    one size the larger mask comes first in the position order.  ``nbr``,
    ``into`` and ``bits`` are indexed by position, ``heavy`` is the mask
    of the vertices of weight at least 2, and ``chunks`` turns a mask back
    into names a few bits per lookup: entry k maps the value of bits
    6k to 6k + 5 to the names those bits stand for.
    """

    __slots__ = ("n", "full", "bits", "bit", "nbr", "into", "heavy", "chunks")

    def __init__(self, g: WeightedOrientedGraph):
        vertices = g.vertices
        n = len(vertices)
        self.n = n
        self.full = (1 << n) - 1
        self.bits = [1 << (n - 1 - i) for i in range(n)]
        self.bit = dict(zip(vertices, self.bits))
        self.nbr = [0] * n
        self.into = [0] * n
        weights = g._weights
        self.heavy = sum(b for v, b in self.bit.items() if weights[v] >= 2)
        for t, h in g.edges:
            tail, head = g._position[t], g._position[h]
            self.nbr[tail] |= self.bits[head]
            self.nbr[head] |= self.bits[tail]
            self.into[head] |= self.bits[tail]
        low_first = vertices[::-1]
        self.chunks = []
        for start in range(0, n, _CHUNK):
            # the values with bit k set are those without it, plus name k
            chunk = [()]
            for v in low_first[start:start + _CHUNK]:
                chunk += [names + (v,) for names in chunk]
            self.chunks.append(chunk)

    def mask(self, cover: Iterable[str]) -> int:
        """The mask of a set of names, checked against the vertices."""
        cover = _vertex_set(cover)
        try:
            return sum(map(self.bit.__getitem__, cover))
        except KeyError as exc:
            raise ValueError(f"unknown vertex {exc.args[0]!r}") from None

    def names(self, mask: int) -> frozenset[str]:
        """The set of names a mask stands for."""
        names: list[str] = []
        for chunk in self.chunks:
            names += chunk[mask & _CHUNK_MASK]
            mask >>= _CHUNK
        return frozenset(names)

    def is_cover(self, cover: int) -> bool:
        """True iff no vertex outside the cover has a neighbor outside it."""
        nbr, n = self.nbr, self.n
        outside = rest = self.full ^ cover
        while rest:
            low = rest & -rest
            if nbr[n - low.bit_length()] & outside:
                return False
            rest ^= low
        return True

    def partition(self, cover: int) -> CoverPartition | None:
        r"""The layers of a cover mask, or None when it is not a cover.

        With S the vertices outside C, L1 = C ∩ ⋃_{u∈S} into[u] (an
        out-neighbor outside C) and L3 = C \ ⋃_{u∈S} nbr[u] (no neighbor
        outside C); L2 is the rest of C.  C is a cover iff the union of
        the neighbors of S misses S.
        """
        nbr, into, n = self.nbr, self.into, self.n
        outside = rest = self.full ^ cover
        reach = feed = 0
        while rest:
            low = rest & -rest
            u = n - low.bit_length()
            reach |= nbr[u]
            feed |= into[u]
            rest ^= low
        if reach & outside:
            return None
        l1 = cover & feed
        l3 = cover & ~reach
        return CoverPartition(self, cover, l1, cover ^ l1 ^ l3, l3)

    def strong_covers(
        self, g: WeightedOrientedGraph, stop_at_strong: bool
    ) -> list[tuple[int, frozenset[str]]]:
        r"""The strong covers the walk reaches, as (mask, cover), in walk order.

        The walk lists independent sets S, with covers C = V \ S, depth-first
        over increasing positions; adding vertex j to S forbids j and its
        neighbors and adds its in-neighbors to L1.
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
        bits, nbr, into, heavy, full = (
            self.bits, self.nbr, self.into, self.heavy, self.full
        )
        n = len(bits)
        strong = []
        stack = [(0, 0, 0, 0)]
        while stack:
            i, chosen, forbidden, l1 = stack.pop()
            later = (1 << (n - i)) - 1  # the positions i, i+1, ...
            free = later & ~forbidden
            fed_by = heavy & ~(chosen | l1)
            passed = (full ^ forbidden) & ~later  # L3 before position i
            while passed:
                low = passed & -passed
                v = n - low.bit_length()
                if not into[v] & fed_by and not nbr[v] & free:
                    break
                passed ^= low
            if passed:
                continue
            mask = full ^ chosen
            cover = self.names(mask)
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


def _cover_masks(g: WeightedOrientedGraph) -> _CoverMasks:
    """The graph's mask table, built on the first call for that graph."""
    masks = g._cover_masks
    if masks is None:
        masks = g._cover_masks = _CoverMasks(g)
    return masks


class CoverPartition:
    """A vertex cover together with its three layers.

    ``cover_partition`` builds it.  It holds the cover and its layers as
    masks over the graph's mask table and turns them into the frozensets
    ``cover``, ``l1``, ``l2`` and ``l3`` on their first read, so the
    strength test never builds a set.  It is immutable and compares,
    hashes and prints by those four sets.
    """

    __slots__ = ("_table", "_masks", "_sets")

    def __init__(self, table: _CoverMasks, cover: int, l1: int, l2: int, l3: int):
        self._table = table
        self._masks = (cover, l1, l2, l3)
        self._sets: tuple[frozenset[str], ...] | None = None

    def _layers(self) -> tuple[frozenset[str], ...]:
        sets = self._sets
        if sets is None:
            sets = self._sets = tuple(map(self._table.names, self._masks))
        return sets

    @property
    def cover(self) -> frozenset[str]:
        return self._layers()[0]

    @property
    def l1(self) -> frozenset[str]:
        return self._layers()[1]

    @property
    def l2(self) -> frozenset[str]:
        return self._layers()[2]

    @property
    def l3(self) -> frozenset[str]:
        return self._layers()[3]

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, CoverPartition):
            return NotImplemented
        return self._layers() == other._layers()

    def __hash__(self) -> int:
        return hash(self._layers())

    def __repr__(self) -> str:
        cover, l1, l2, l3 = self._layers()
        return f"CoverPartition(cover={cover!r}, l1={l1!r}, l2={l2!r}, l3={l3!r})"

    def to_json(self) -> dict:
        """The cover and its layers as lists of names in vertex order."""
        bit = self._table.bit  # built in vertex order
        return {
            key: [v for v, b in bit.items() if mask & b]
            for key, mask in zip(("cover", "L1", "L2", "L3"), self._masks)
        }

    def is_strong(self) -> bool:
        """True iff every L3 vertex has an in-neighbor of weight >= 2 in L2 or L3.

        The weights and in-neighbors are those of the graph the partition
        was built on, read from its mask table.
        """
        table = self._table
        cover, l1, _, l3 = self._masks
        feeders = table.heavy & cover & ~l1
        into, n = table.into, table.n
        while l3:
            low = l3 & -l3
            if not into[n - low.bit_length()] & feeders:
                return False
            l3 ^= low
        return True


def is_vertex_cover(g: WeightedOrientedGraph, cover: Iterable[str]) -> bool:
    """True iff every edge has an endpoint in the given set."""
    masks = _cover_masks(g)
    return masks.is_cover(masks.mask(cover))


def cover_partition(g: WeightedOrientedGraph, cover: Iterable[str]) -> CoverPartition:
    """Split a vertex cover into the layers L1, L2, L3."""
    cover = _vertex_set(cover)
    masks = _cover_masks(g)
    parts = masks.partition(masks.mask(cover))
    if parts is None:
        raise ValueError(f"{sorted(cover)} is not a vertex cover")
    return parts


def is_strong_cover(g: WeightedOrientedGraph, cover: Iterable[str]) -> bool:
    """True iff cover is a vertex cover whose L3 layer is properly fed.

    Properly fed: every L3 vertex has an in-neighbor of weight >= 2 lying
    in L2 or L3.  A set that is not a vertex cover returns False.
    """
    cover = _vertex_set(cover)
    return is_vertex_cover(g, cover) and cover_partition(g, cover).is_strong()


def _sorted_covers(covers: Iterable[tuple[int, frozenset[str]]]) -> list[frozenset[str]]:
    """The covers of (mask, cover) pairs, by size and then by vertex position."""
    return [c for _, c in sorted(covers, key=lambda mc: (mc[0].bit_count(), -mc[0]))]


def enumerate_strong_covers(g: WeightedOrientedGraph) -> list[frozenset[str]]:
    """All strong vertex covers, sorted by size then by vertex position.

    An edgeless graph has the empty set as its one strong cover (every
    nonempty set would have an unfed L3 vertex).
    """
    _check_cap(g)
    return _sorted_covers(_cover_masks(g).strong_covers(g, stop_at_strong=False))


def _maximal_covers(
    g: WeightedOrientedGraph, covers: Sequence[frozenset[str]]
) -> list[frozenset[str]]:
    """The inclusion-maximal covers of a list sorted by size, in list order.

    Walking the covers largest first, a cover is maximal iff it lies in no
    cover already kept: every cover lies in a maximal one, and a larger cover
    is never inside a smaller one.
    """
    bit = _cover_masks(g).bit
    kept: list[tuple[int, frozenset[str]]] = []
    for cover in reversed(covers):
        mask = sum(map(bit.__getitem__, cover))
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
    strong = _cover_masks(g).strong_covers(g, stop_at_strong=True)
    return _maximal_covers(g, _sorted_covers(strong))


def minimal_vertex_covers(g: WeightedOrientedGraph) -> list[frozenset[str]]:
    """The inclusion-minimal vertex covers, sorted by size then position.

    These are the strong covers of the graph with every weight 1: a cover
    is minimal exactly when its L3 is empty, and with no heavy vertex no L3
    vertex is fed.  The edgeless graph has the empty cover.
    """
    return enumerate_strong_covers(WeightedOrientedGraph(g.vertices, g.edges))
