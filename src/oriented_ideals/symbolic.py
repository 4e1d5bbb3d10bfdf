"""Symbolic powers of edge ideals, computed two independent ways.

Route one localizes first: for each maximal associated prime P it forms
Q_{⊆P}, the edge ideal saturated by the variables outside P (equal to
the intersection of the components whose cover sits inside P), raises that
to the s-th power, and intersects the results over all maximal P.  Route
two takes the ordinary power first: it saturates I^s by the variables
outside each maximal prime and intersects.  Primes below a maximal one
contribute nothing to either intersection, so both routes restrict to
maximal primes.

Equality of the two routes on random graphs is one of the standing
regression checks.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass

from .covers import _maximal_covers, is_strong_cover, maximal_strong_covers
from .graphs import WeightedOrientedGraph
from .ideals import edge_ideal, irreducible_decomposition
from .monomials import Monomial, MonomialIdeal, intersect_all


class InvariantError(RuntimeError):
    """Raised when a result breaks an invariant the theory guarantees."""


def q_sub_p(g: WeightedOrientedGraph, prime: frozenset[str]) -> MonomialIdeal:
    """The edge ideal localized at an associated prime, Q_{⊆P}.

    Saturating by the variables outside P keeps exactly the components
    whose cover lies inside P (Cooper-Embree-Hà-Hoefel, 2017).  The prime
    must be a non-empty strong cover, i.e. an associated prime.
    """
    prime = frozenset(prime)
    if not prime or not is_strong_cover(g, prime):
        raise ValueError(f"{sorted(prime)} is not an associated prime here")
    return edge_ideal(g).saturate(set(g.vertices) - prime)


def symbolic_power(g: WeightedOrientedGraph, s: int) -> MonomialIdeal:
    """The s-th symbolic power of the edge ideal, localizing before the power.

    The zero ideal is its own symbolic power.
    """
    if not isinstance(s, int) or s < 1:
        raise ValueError(f"symbolic power wants an integer s >= 1, got {s!r}")
    ideal = edge_ideal(g)
    if ideal.is_zero:
        return ideal
    primes = _maximal_covers(g, [c.cover for c in irreducible_decomposition(g)])
    pieces = [q_sub_p(g, p) ** s for p in primes]
    return intersect_all(pieces, ambient=g.vertices)


def symbolic_power_oracle(g: WeightedOrientedGraph, s: int) -> MonomialIdeal:
    """The s-th symbolic power by localization at the maximal primes.

    Computes I^s once and saturates it by the complement of each maximal
    associated prime, taking the power before localizing where
    symbolic_power localizes first, so it serves as a cross-check of
    symbolic_power.
    """
    if not isinstance(s, int) or s < 1:
        raise ValueError(f"symbolic power wants an integer s >= 1, got {s!r}")
    ideal = edge_ideal(g)
    if ideal.is_zero:
        return ideal
    power = ideal ** s
    primes = [p for p in maximal_strong_covers(g) if p]
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


def compare_powers(g: WeightedOrientedGraph, s_max: int) -> EqualityReport:
    """Compare ordinary and symbolic powers for every s up to s_max.

    The containment I^s inside the symbolic power always holds here; a
    result that breaks it raises InvariantError.  When the two differ, the
    witness is the first minimal generator of the symbolic power (in
    canonical order) that the ordinary power does not contain; it is
    confirmed with a membership test, and InvariantError is raised if that
    test accepts it.
    """
    if not isinstance(s_max, int) or s_max < 1:
        raise ValueError(f"s_max must be an integer >= 1, got {s_max!r}")
    ideal = edge_ideal(g)
    components = irreducible_decomposition(g) if not ideal.is_zero else []
    primes = _maximal_covers(g, [c.cover for c in components])
    base = {p: q_sub_p(g, p) for p in primes}
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
            witness = symbolic.first_generator_outside(ordinary)
            if witness is None:
                raise InvariantError(
                    "unequal ideals with no witness generator; impossible"
                )
            if ordinary.contains(witness):
                raise InvariantError(
                    f"the witness {witness} lies in I^{s}; the computation is broken"
                )
        rows.append(
            PowerComparison(
                s=s,
                equal=equal,
                witness=witness,
                ordinary_generators=ordinary.num_generators,
                symbolic_generators=symbolic.num_generators,
            )
        )
    return EqualityReport(graph=g.to_json(), s_max=s_max, per_s=tuple(rows))
