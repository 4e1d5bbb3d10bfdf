"""Symbolic powers of edge ideals, computed two independent ways.

Route one goes through the irreducible decomposition: for each maximal
associated prime P, intersect the components whose cover sits inside P,
raise that to the s-th power, and intersect the results over all maximal
P.  Route two never touches component powers: it saturates the ordinary
power I^s by the variables outside each maximal prime and intersects.
Primes below a maximal one contribute nothing to either intersection, so
both routes may restrict to maximal primes; a debug flag on route one
intersects over every associated prime instead.

Equality of the two routes on random graphs is one of the standing
regression checks.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass

from .covers import maximal_strong_covers
from .graphs import WeightedOrientedGraph
from .ideals import IrreducibleComponent, edge_ideal, irreducible_decomposition
from .monomials import Monomial, MonomialIdeal, intersect_all


class InvariantError(RuntimeError):
    """Raised when a result breaks an invariant the theory guarantees."""


def q_sub_p(
    components: Sequence[IrreducibleComponent], prime: frozenset[str]
) -> MonomialIdeal:
    """Intersection of the components whose cover lies inside the prime.

    The prime must be one of the component covers (an associated prime);
    its own component always qualifies, so the fold is never empty.
    """
    prime = frozenset(prime)
    if not any(c.cover == prime for c in components):
        raise ValueError(f"{sorted(prime)} is not an associated prime here")
    ideals = [c.ideal for c in components if c.cover <= prime]
    return intersect_all(ideals)


def _maximal_primes(components: Sequence[IrreducibleComponent]) -> list[frozenset[str]]:
    covers = [c.cover for c in components]
    return [c for c in covers if not any(c < other for other in covers)]


def _symbolic_from_components(
    g: WeightedOrientedGraph,
    components: Sequence[IrreducibleComponent],
    s: int,
    *,
    all_primes: bool = False,
) -> MonomialIdeal:
    covers = [c.cover for c in components]
    primes = covers if all_primes else _maximal_primes(components)
    pieces = [q_sub_p(components, p) ** s for p in primes]
    return intersect_all(pieces, ambient=g.vertices)


def symbolic_power(
    g: WeightedOrientedGraph,
    s: int,
    *,
    all_primes: bool = False,
    cap: int | None = None,
) -> MonomialIdeal:
    """The s-th symbolic power of the edge ideal, via the decomposition.

    all_primes=True intersects over every associated prime instead of the
    maximal ones only; the result must not change.  The zero ideal is its
    own symbolic power.
    """
    if not isinstance(s, int) or s < 1:
        raise ValueError(f"symbolic power wants an integer s >= 1, got {s!r}")
    ideal = edge_ideal(g)
    if ideal.is_zero:
        return ideal
    components = irreducible_decomposition(g, cap)
    return _symbolic_from_components(g, components, s, all_primes=all_primes)


def symbolic_power_oracle(
    g: WeightedOrientedGraph, s: int, cap: int | None = None
) -> MonomialIdeal:
    """The s-th symbolic power by localization at the maximal primes.

    Computes I^s once and saturates it by the complement of each maximal
    associated prime, never intersecting component powers, so it serves
    as an independent cross-check of symbolic_power.
    """
    if not isinstance(s, int) or s < 1:
        raise ValueError(f"symbolic power wants an integer s >= 1, got {s!r}")
    ideal = edge_ideal(g)
    if ideal.is_zero:
        return ideal
    power = ideal ** s
    primes = [p for p in maximal_strong_covers(g, cap) if p]
    pieces = [power.saturate(set(g.vertices) - p) for p in primes]
    return intersect_all(pieces, ambient=g.vertices)


@dataclass(frozen=True)
class PowerComparison:
    """Ordinary versus symbolic power at one exponent."""

    s: int
    equal: bool
    witness: Monomial | None
    ordinary_generators: int
    symbolic_generators: int

    def to_json(self, ambient: Sequence[str]) -> dict:
        return {
            "s": self.s,
            "equal": self.equal,
            "witness": None if self.witness is None else self.witness.format(ambient),
            "ordinary_generators": self.ordinary_generators,
            "symbolic_generators": self.symbolic_generators,
        }


@dataclass(frozen=True)
class EqualityReport:
    """Comparison of I^s against the symbolic power for s = 1..s_max."""

    graph: dict
    s_max: int
    per_s: tuple[PowerComparison, ...]

    @property
    def all_equal(self) -> bool:
        return all(c.equal for c in self.per_s)

    @property
    def first_inequality(self) -> int | None:
        for c in self.per_s:
            if not c.equal:
                return c.s
        return None

    def to_json(self) -> dict:
        ambient = self.graph["vertices"]
        return {
            "graph": self.graph,
            "s_max": self.s_max,
            "per_s": [c.to_json(ambient) for c in self.per_s],
            "all_equal": self.all_equal,
            "first_inequality": self.first_inequality,
        }


def compare_powers(
    g: WeightedOrientedGraph, s_max: int, cap: int | None = None
) -> EqualityReport:
    """Compare ordinary and symbolic powers for every s up to s_max.

    The containment I^s inside the symbolic power always holds here; a
    result that breaks it raises InvariantError.  When the two differ, the
    witness is the first minimal generator of the symbolic power (in
    canonical order) that ordinary power membership rejects.
    """
    if not isinstance(s_max, int) or s_max < 1:
        raise ValueError(f"s_max must be an integer >= 1, got {s_max!r}")
    ideal = edge_ideal(g)
    components = irreducible_decomposition(g, cap) if not ideal.is_zero else []
    primes = _maximal_primes(components)
    base = {p: q_sub_p(components, p) for p in primes}
    running = dict(base)

    rows = []
    ordinary = ideal
    for s in range(1, s_max + 1):
        if s > 1:
            ordinary = ordinary * ideal
            for p in primes:
                running[p] = running[p] * base[p]
        if ideal.is_zero:
            symbolic = ideal
        else:
            symbolic = intersect_all(list(running.values()), ambient=g.vertices)
        if not symbolic.contains_ideal(ordinary):
            raise InvariantError(
                f"I^{s} is not inside the symbolic power; the computation is broken"
            )
        equal = ordinary == symbolic
        witness = None
        if not equal:
            for gen in symbolic.generators:
                if not ordinary.contains(gen):
                    witness = gen
                    break
            if witness is None:
                raise InvariantError(
                    "unequal ideals with no witness generator; impossible"
                )
        rows.append(
            PowerComparison(
                s=s,
                equal=equal,
                witness=witness,
                ordinary_generators=len(ordinary.generators),
                symbolic_generators=len(symbolic.generators),
            )
        )
    return EqualityReport(graph=g.to_json(), s_max=s_max, per_s=tuple(rows))
