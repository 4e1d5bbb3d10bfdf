"""Shared brute-force oracles, written independently of the library code.

The cover oracles below test every vertex subset against the raw edge
list and recompute adjacency and the cover layers from it on purpose:
they are the reference the library's enumeration is checked against, so
they must not reuse that code path.
"""

from __future__ import annotations

import itertools

from oriented_ideals import Monomial, WeightedOrientedGraph


def brute_force_vertex_covers(g: WeightedOrientedGraph) -> list[frozenset[str]]:
    """Every vertex subset meeting every edge, by size and then position."""
    vs = list(g.vertices)
    found = []
    for r in range(len(vs) + 1):
        for combo in itertools.combinations(vs, r):
            c = frozenset(combo)
            if all(t in c or h in c for t, h in g.edges):
                found.append(c)
    return found


def brute_force_strong_covers(g: WeightedOrientedGraph) -> list[frozenset[str]]:
    """Filter all vertex subsets by the strong-cover definition, literally."""
    vs = list(g.vertices)
    out = {v: set() for v in vs}
    inc = {v: set() for v in vs}
    for tail, head in g.edges:
        out[tail].add(head)
        inc[head].add(tail)
    weights = g.weights

    found = []
    for c in brute_force_vertex_covers(g):
        l1 = {v for v in c if out[v] - c}
        l2 = {v for v in c - l1 if inc[v] - c}
        l3 = c - l1 - l2
        feeders = (l2 | l3)
        good = all(
            any(u in feeders and weights[u] >= 2 for u in inc[x])
            for x in l3
        )
        if good:
            found.append(c)
    return found


def brute_force_maximal_strong_covers(g: WeightedOrientedGraph) -> list[frozenset[str]]:
    """Strong covers inside no other strong cover, compared pairwise."""
    strong = brute_force_strong_covers(g)
    return [c for c in strong if not any(c < d for d in strong)]


def brute_force_minimal_vertex_covers(g: WeightedOrientedGraph) -> list[frozenset[str]]:
    """Vertex covers containing no other vertex cover, compared pairwise."""
    covers = brute_force_vertex_covers(g)
    return [c for c in covers if not any(d < c for d in covers)]


def all_monomials_up_to(variables: tuple[str, ...], max_degree: int) -> list[Monomial]:
    """Every monomial in the given variables of total degree <= max_degree."""
    out = []

    def build(idx: int, remaining: int, exps: dict[str, int]) -> None:
        if idx == len(variables):
            out.append(Monomial(exps))
            return
        for e in range(remaining + 1):
            if e:
                exps[variables[idx]] = e
            build(idx + 1, remaining - e, exps)
            exps.pop(variables[idx], None)

    build(0, max_degree, {})
    return out


def brute_force_member(
    generators, m: Monomial, variables: tuple[str, ...]
) -> bool:
    """Is m a generator times some monomial?  Checked by enumeration."""
    for g in generators:
        slack = m.degree - g.degree
        if slack < 0:
            continue
        for u in all_monomials_up_to(variables, slack):
            if g * u == m:
                return True
    return False


# --- reference monomial-ideal kernel on exponent tuples ----------------------
#
# The library packs exponent rows into integers; these are the plain tuple
# versions it replaced, kept as the reference for the differential tests.


def _row_key(row: tuple[int, ...]) -> tuple[int, tuple[int, ...]]:
    # graded lex: total degree first, then bigger exponent on an earlier
    # variable sorts first
    return (sum(row), tuple(-e for e in row))


def row_divides(a: tuple[int, ...], b: tuple[int, ...]) -> bool:
    for x, y in zip(a, b):
        if x > y:
            return False
    return True


def reference_minimal_rows(rows) -> tuple[tuple[int, ...], ...]:
    """Discard rows divisible by another row; result sorted graded-lex."""
    uniq = sorted(set(rows), key=_row_key)
    if not uniq:
        return ()
    if sum(uniq[0]) == 0:
        # the identity divides everything: unit ideal
        return (uniq[0],)
    kept: list[tuple[int, ...]] = []
    block_start = 0  # kept entries before this index have strictly smaller degree
    current_degree = -1
    for row in uniq:
        d = sum(row)
        if d != current_degree:
            current_degree = d
            block_start = len(kept)
        smaller = kept[:block_start]
        if not any(row_divides(k, row) for k in smaller):
            kept.append(row)
    return tuple(kept)


def reference_product(a_rows, b_rows) -> tuple[tuple[int, ...], ...]:
    """Canonical rows of the product: minimalized pairwise sums."""
    return reference_minimal_rows(
        tuple(x + y for x, y in zip(a, b)) for a in a_rows for b in b_rows
    )


def reference_intersection(a_rows, b_rows) -> tuple[tuple[int, ...], ...]:
    """Canonical rows of the intersection: minimalized pairwise maxima (lcms)."""
    return reference_minimal_rows(
        tuple(max(x, y) for x, y in zip(a, b)) for a in a_rows for b in b_rows
    )
