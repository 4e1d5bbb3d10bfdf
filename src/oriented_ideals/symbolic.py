"""Symbolic powers of edge ideals, computed two independent ways.

Route one localizes first: for each maximal associated prime P, read
off the strong covers, it forms Q_{⊆P}, the edge ideal saturated by the
variables outside P (equal to the intersection of the components whose
cover sits inside P, which are never built), raises that to the s-th
power, and intersects the results over all maximal P.  Route
two takes the ordinary power first: it saturates I^s by the variables
outside each maximal prime and intersects.  Primes below a maximal one
contribute nothing to either intersection, so both routes restrict to
maximal primes.

Equality of the two routes on random graphs is one of the standing
regression checks.  Each route has one implementation here, in private
helpers that the public functions and the regression sweep in theorems
share; over s = 1, 2, ... every power is one product from the power
before it.
"""

from __future__ import annotations

from collections.abc import Iterator, Sequence
from dataclasses import dataclass
from itertools import islice

from .covers import _maximal_covers, _vertex_set, is_strong_cover, maximal_strong_covers
from .graphs import WeightedOrientedGraph
from .ideals import edge_ideal, irreducible_decomposition
from .monomials import Monomial, MonomialIdeal, intersect_all


class InvariantError(RuntimeError):
    """Raised when a result breaks an invariant the theory guarantees."""


def _require_positive(name: str, value: int) -> None:
    """Reject an exponent, a sweep bound or a weight below 1, or a bool.

    A sweep bound below 1 would check nothing and still pass, and a weight
    below 1 is no weighting at all, so neither may become a skip.
    """
    if not isinstance(value, int) or isinstance(value, bool) or value < 1:
        raise ValueError(f"{name} must be an integer >= 1, got {value!r}")


def q_sub_p(g: WeightedOrientedGraph, prime: frozenset[str]) -> MonomialIdeal:
    """The edge ideal localized at an associated prime, Q_{⊆P}.

    Saturating by the variables outside P keeps exactly the components
    whose cover lies inside P (Cooper-Embree-Hà-Hoefel, 2017).  The prime
    must be a non-empty strong cover, i.e. an associated prime.
    """
    prime = _vertex_set(prime)
    if not prime or not is_strong_cover(g, prime):
        raise ValueError(f"{sorted(prime)} is not an associated prime here")
    return edge_ideal(g).saturate(set(g.vertices) - prime)


def _localized_powers(
    g: WeightedOrientedGraph, covers: Sequence[frozenset[str]]
) -> Iterator[list[MonomialIdeal]]:
    """Route one's pieces for s = 1, 2, ...: Q_{⊆P}^s for each maximal P.

    The primes are the maximal ones among the strong covers given, sorted
    by size then position; each step multiplies every running power by its
    Q_{⊆P} once, and only when the next exponent is asked for.
    """
    primes = _maximal_covers(g, covers)
    base = [q_sub_p(g, p) for p in primes]
    pieces = base
    while True:
        yield pieces
        pieces = [piece * q for piece, q in zip(pieces, base)]


def _powers_up_to(
    g: WeightedOrientedGraph,
    ideal: MonomialIdeal,
    covers: Sequence[frozenset[str]],
    s_max: int,
) -> Iterator[tuple[int, MonomialIdeal, MonomialIdeal]]:
    """(s, I^s, symbolic power by route one) for s = 1..s_max.

    I^s is one product from I^(s-1), and nothing for the next exponent is
    built before it is asked for.  The zero ideal, which has no primes, is
    its own symbolic power.
    """
    ordinary = ideal
    for s, pieces in zip(range(1, s_max + 1), _localized_powers(g, covers)):
        if s > 1:
            ordinary = ordinary * ideal
        symbolic = ideal if ideal.is_zero else intersect_all(pieces, ambient=g.vertices)
        yield s, ordinary, symbolic


def _prime_complements(g: WeightedOrientedGraph) -> list[set[str]]:
    """The variables outside each maximal associated prime."""
    return [set(g.vertices) - p for p in maximal_strong_covers(g) if p]


def _saturated_meet(
    g: WeightedOrientedGraph, power: MonomialIdeal, complements: Sequence[set[str]]
) -> MonomialIdeal:
    """Route two at one exponent: I^s saturated by each complement, intersected.

    The zero ideal, which has no primes, is its own symbolic power.
    """
    if power.is_zero:
        return power
    return intersect_all([power.saturate(c) for c in complements], ambient=g.vertices)


def symbolic_power(g: WeightedOrientedGraph, s: int) -> MonomialIdeal:
    """The s-th symbolic power of the edge ideal, localizing before the power.

    The zero ideal is its own symbolic power.
    """
    _require_positive("s", s)
    ideal = edge_ideal(g)
    if ideal.is_zero:
        return ideal
    powers = _localized_powers(g, maximal_strong_covers(g))
    return intersect_all(next(islice(powers, s - 1, None)), ambient=g.vertices)


def symbolic_power_oracle(g: WeightedOrientedGraph, s: int) -> MonomialIdeal:
    """The s-th symbolic power by localization at the maximal primes.

    Computes I^s once and saturates it by the complement of each maximal
    associated prime, taking the power before localizing where
    symbolic_power localizes first, so it serves as a cross-check of
    symbolic_power.
    """
    _require_positive("s", s)
    ideal = edge_ideal(g)
    if ideal.is_zero:
        return ideal
    return _saturated_meet(g, ideal ** s, _prime_complements(g))


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
    return _compare(g, s_max)[0]


def _compare(
    g: WeightedOrientedGraph, s_max: int
) -> tuple[EqualityReport, MonomialIdeal, MonomialIdeal]:
    """compare_powers, together with I^s and its symbolic power at s = s_max."""
    _require_positive("s_max", s_max)
    ideal = edge_ideal(g)
    covers = [c.cover for c in irreducible_decomposition(g)] if not ideal.is_zero else []

    rows = []
    for s, ordinary, symbolic in _powers_up_to(g, ideal, covers, s_max):
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
    report = EqualityReport(graph=g.to_json(), s_max=s_max, per_s=tuple(rows))
    return report, ordinary, symbolic
