"""Edge ideals of weighted oriented graphs and their irreducible pieces.

The edge ideal has one generator per edge: the tail variable times the
head variable raised to the head's weight.  Each strong vertex cover C
contributes an irreducible ideal generated by pure variable powers:

    x       for x in L1(C),
    x^w(x)  for x in L2(C) or L3(C).

The intersection of these ideals over all strong covers recovers the edge
ideal, one component per associated prime, and no component contains the
intersection of the others (Pitones-Reyes-Toledo, 2019).
"""

from __future__ import annotations

from collections.abc import Iterable
from dataclasses import dataclass

from .covers import _vertex_set, cover_partition, enumerate_strong_covers
from .graphs import WeightedOrientedGraph
from .monomials import Monomial, MonomialIdeal, intersect_all


def edge_ideal(g: WeightedOrientedGraph) -> MonomialIdeal:
    """The ideal generated by tail * head^weight(head) over all edges."""
    weights = g._weights
    return MonomialIdeal(g.vertices, [Monomial({t: 1, h: weights[h]}) for t, h in g.edges])


@dataclass(frozen=True)
class IrreducibleComponent:
    """One irreducible piece of an edge ideal, indexed by a strong cover."""

    cover: frozenset[str]
    ideal: MonomialIdeal

    def to_json(self, g: WeightedOrientedGraph) -> dict:
        parts = cover_partition(g, self.cover)
        out = parts.to_json(g)
        out["ideal"] = self.ideal.generator_strings()
        return out


def irreducible_component(
    g: WeightedOrientedGraph, cover: Iterable[str]
) -> IrreducibleComponent:
    """The irreducible ideal attached to a strong cover."""
    cover = _vertex_set(cover)
    parts = cover_partition(g, cover)  # ValueError for a set that is no cover
    if not parts.is_strong(g):
        raise ValueError(f"{sorted(cover)} is not a strong vertex cover")
    l1 = parts.l1
    weights, position = g._weights, g._position
    zeros = [0] * len(position)
    rows = []
    for v in cover:
        row = zeros.copy()
        row[position[v]] = 1 if v in l1 else weights[v]
        rows.append(tuple(row))
    return IrreducibleComponent(
        cover=cover, ideal=MonomialIdeal._from_rows(g.vertices, rows)
    )


def irreducible_decomposition(g: WeightedOrientedGraph) -> list[IrreducibleComponent]:
    """Irreducible components of the edge ideal, one per strong cover.

    No component contains the intersection of the others, so the list is
    the irredundant decomposition as it stands.  An edgeless graph has the
    zero ideal and no components.
    """
    return [irreducible_component(g, c) for c in enumerate_strong_covers(g) if c]


def decomposition_intersection(
    components: Iterable[IrreducibleComponent], g: WeightedOrientedGraph
) -> MonomialIdeal:
    """Fold the component ideals; no components means the zero ideal's graph."""
    ideals = [c.ideal for c in components]
    if not ideals:
        return MonomialIdeal.zero(g.vertices)
    return intersect_all(ideals)
