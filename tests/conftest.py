"""Shared brute-force oracles, written independently of the library code.

The cover oracles below test every vertex subset against the raw edge
list and recompute adjacency and the cover layers from it on purpose:
they are the reference the library's enumeration is checked against, so
they must not reuse that code path.  The set-based cover partition below
is the reference for the library's bitmask layers in the same way.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass

import pytest
from hypothesis import strategies as st

from oriented_ideals import (
    CheckResult,
    MonomialIdeal,
    RegressionSummary,
    WeightedOrientedGraph,
    compare_powers,
    decomposition_intersection,
    edge_ideal,
    irreducible_decomposition,
    oriented_line,
    random_graph,
    symbolic_power,
    symbolic_power_oracle,
)

SAMPLE_SEED = 20260819


@pytest.fixture(scope="session")
def sample_200():
    """The fixed 200-graph acceptance sample, shared across test modules."""
    rng = random.Random(SAMPLE_SEED)
    return [random_graph(rng, n_max=7, weight_max=3) for _ in range(200)]


@st.composite
def small_graphs(draw, n_max):
    """A random graph on at most n_max vertices, from one drawn seed."""
    seed = draw(st.integers(min_value=0, max_value=2**32 - 1))
    return random_graph(random.Random(seed), n_max=n_max)


def gens(ideal):
    """The generator strings of an ideal, as a set."""
    return set(ideal.generator_strings())


def monomial(ambient, exponents) -> str:
    """The monomial string of an exponent map, variables in ambient order.

    exponents is a mapping from name to exponent, or (name, exponent)
    pairs; zero exponents are left out and the empty product is "1".  It is
    written apart from the library's formatter, as the reference for it.
    """
    exps = dict(exponents)
    factors = []
    for v in ambient:
        e = exps.get(v, 0)
        if e == 1:
            factors.append(v)
        elif e > 1:
            factors.append(f"{v}^{e}")
    return "*".join(factors) if factors else "1"


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


def reference_adjacency(g: WeightedOrientedGraph) -> tuple[dict, dict]:
    """Out- and in-neighbour sets of every vertex, read off the raw edge list."""
    out = {v: set() for v in g.vertices}
    inc = {v: set() for v in g.vertices}
    for tail, head in g.edges:
        out[tail].add(head)
        inc[head].add(tail)
    return out, inc


def brute_force_strong_covers(g: WeightedOrientedGraph) -> list[frozenset[str]]:
    """Filter all vertex subsets by the strong-cover definition, literally."""
    out, inc = reference_adjacency(g)
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


@dataclass(frozen=True)
class ReferencePartition:
    """A vertex cover and its layers as plain sets, a frozen record."""

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
        """Every L3 vertex has an in-neighbor of weight >= 2 in L2 or L3."""
        feeders = self.cover - self.l1
        weights = g.weights
        inc = reference_adjacency(g)[1]
        return all(
            any(u in feeders and weights[u] >= 2 for u in inc[v])
            for v in self.l3
        )


def reference_is_vertex_cover(g: WeightedOrientedGraph, cover) -> bool:
    """Every edge has an endpoint in the set, read off the raw edge list."""
    cover = frozenset(cover)
    unknown = cover.difference(g.vertices)
    if unknown:
        raise ValueError(f"unknown vertex {next(iter(unknown))!r}")
    return all(t in cover or h in cover for t, h in g.edges)


def reference_cover_partition(g: WeightedOrientedGraph, cover) -> ReferencePartition:
    """The layers of a vertex cover, one vertex at a time on name sets."""
    cover = frozenset(cover)
    if not reference_is_vertex_cover(g, cover):
        raise ValueError(f"{sorted(cover)} is not a vertex cover")
    out, inc = reference_adjacency(g)
    l1, l2, l3 = set(), set(), set()
    for v in cover:
        if not out[v] <= cover:
            l1.add(v)
        elif not inc[v] <= cover:
            l2.add(v)
        else:
            l3.add(v)
    return ReferencePartition(cover, frozenset(l1), frozenset(l2), frozenset(l3))


def reference_is_strong_cover(g: WeightedOrientedGraph, cover) -> bool:
    """A vertex cover whose L3 layer is fed, by the reference partition."""
    cover = frozenset(cover)
    return reference_is_vertex_cover(g, cover) and (
        reference_cover_partition(g, cover).is_strong(g)
    )


def brute_force_maximal_strong_covers(g: WeightedOrientedGraph) -> list[frozenset[str]]:
    """Strong covers inside no other strong cover, compared pairwise."""
    strong = brute_force_strong_covers(g)
    return [c for c in strong if not any(c < d for d in strong)]


def brute_force_minimal_vertex_covers(g: WeightedOrientedGraph) -> list[frozenset[str]]:
    """Vertex covers containing no other vertex cover, compared pairwise."""
    covers = brute_force_vertex_covers(g)
    return [c for c in covers if not any(d < c for d in covers)]


def disjoint_union(g: WeightedOrientedGraph, h: WeightedOrientedGraph):
    """G ⊔ H, with H's vertices renamed y1..yk, and the renamed H."""
    names = {v: f"y{i}" for i, v in enumerate(h.vertices, 1)}
    h = WeightedOrientedGraph(
        [names[v] for v in h.vertices],
        [(names[t], names[u]) for t, u in h.edges],
        {names[v]: w for v, w in h.weights.items()},
    )
    union = WeightedOrientedGraph(
        g.vertices + h.vertices, g.edges + h.edges, {**g.weights, **h.weights}
    )
    return union, h


def all_rows_up_to(n: int, max_degree: int) -> list[tuple[int, ...]]:
    """Every exponent row of n variables of total degree <= max_degree."""
    if n == 0:
        return [()]
    return [
        (e,) + rest
        for e in range(max_degree + 1)
        for rest in all_rows_up_to(n - 1, max_degree - e)
    ]


def brute_force_member(generator_rows, row: tuple[int, ...]) -> bool:
    """Is row a generator row plus some exponent row?  Checked by enumeration."""
    for g in generator_rows:
        slack = sum(row) - sum(g)
        if slack < 0:
            continue
        for u in all_rows_up_to(len(row), slack):
            if tuple(x + y for x, y in zip(g, u)) == row:
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


def reference_first_outside(a_rows, b_rows) -> tuple[int, ...] | None:
    """The first of a_rows that no row of b_rows divides, if any."""
    for row in a_rows:
        if not any(row_divides(k, row) for k in b_rows):
            return row
    return None


# --- power comparison oracle --------------------------------------------------
#
# compare_powers reads the generator counts and searches for the witness on
# rows; this is the search over generator strings that it replaced.


def reference_power_comparison(ordinary, symbolic) -> tuple[str | None, int, int]:
    """(witness, ordinary generator count, symbolic generator count).

    The witness is the first generator of the symbolic power, in canonical
    order, that membership in the ordinary power rejects; None if there is
    none.
    """
    witness = None
    for gen in symbolic.generators:
        if not ordinary.contains(gen):
            witness = gen
            break
    return witness, len(ordinary.generators), len(symbolic.generators)


# --- decomposition oracles ----------------------------------------------------
#
# The library builds Q_{⊆P} by saturating the edge ideal and relies on the
# strong-cover components being irredundant.  These are the component
# intersection and the prefix/suffix redundancy check that it replaced.


def component_q_sub_p(components, prime) -> MonomialIdeal:
    """Intersection of the components whose cover lies inside the prime.

    The prime must be one of the component covers.  The fold runs on the
    tuple reference kernel, so no library kernel is involved.
    """
    prime = frozenset(prime)
    assert any(c.cover == prime for c in components), f"{sorted(prime)} is not a cover here"
    inside = [c.ideal for c in components if c.cover <= prime]
    rows = inside[0]._rows
    for ideal in inside[1:]:
        rows = reference_intersection(rows, ideal._rows)
    ambient = inside[0].ambient
    return MonomialIdeal(ambient, [monomial(ambient, zip(ambient, row)) for row in rows])


def reference_component_ideal(g: WeightedOrientedGraph, cover) -> MonomialIdeal:
    """The component ideal of a strong cover, built from generator strings.

    L1 is read off the raw edge list: the cover vertices with an
    out-neighbour outside the cover.  Each cover vertex gives x in L1 and
    x^w(x) elsewhere, passed through the public constructor.
    """
    cover = frozenset(cover)
    l1 = {t for t, h in g.edges if t in cover and h not in cover}
    weights = g.weights
    return MonomialIdeal(
        g.vertices, [monomial(g.vertices, {v: 1 if v in l1 else weights[v]}) for v in cover]
    )


def _irreducible_inside(a: tuple[int, ...], b: tuple[int, ...]) -> bool:
    """(x_i^a_i : a_i > 0) lies inside (x_i^b_i : b_i > 0)."""
    return all(0 < y <= x for x, y in zip(a, b) if x)


def reference_irreducible_decomposition(g: WeightedOrientedGraph) -> set[tuple[int, ...]]:
    """The irredundant irreducible decomposition of the edge ideal, by
    incremental splitting (Miller and Sturmfels, *Combinatorial Commutative
    Algebra*, ch. 5).

    A component is an exponent vector a, standing for the ideal generated
    by x_i^a_i over a_i > 0, in vertex order.  The generators
    tail * head^w(head) are read off the raw edge list, and no cover,
    layer or intersection is used.  Starting from the zero ideal, each
    generator m leaves every component that contains it, and splits every
    other component C into C + (x_i^m_i) for i in the support of m.  A
    component kept whole contains none of the split ones, since it
    contained no earlier component; so a split component is dropped when
    it contains another component.  Monomial irreducible ideals are
    strongly irreducible, so what remains is the unique irredundant
    decomposition.  An edgeless graph has the zero ideal and, as in the
    library, no components.
    """
    vs = g.vertices
    position = {v: i for i, v in enumerate(vs)}
    weights = g.weights
    components = [(0,) * len(vs)]
    for tail, head in g.edges:
        m = {position[tail]: 1, position[head]: weights[head]}
        kept, split = [], []
        for c in components:
            if any(0 < c[i] <= e for i, e in m.items()):
                kept.append(c)
            else:
                split.extend(c[:i] + (e,) + c[i + 1:] for i, e in m.items())
        split = list(dict.fromkeys(split))
        components = kept + [
            c
            for c in split
            if not any(d != c and _irreducible_inside(d, c) for d in kept + split)
        ]
    return set(components) if g.edges else set()


def component_exponents(component) -> tuple[int, ...]:
    """The exponent vector of an ``IrreducibleComponent``'s pure powers."""
    return tuple(map(sum, zip(*component.ideal._rows)))


def maximal_covers(components) -> list[frozenset[str]]:
    """Component covers inside no other component cover, compared pairwise."""
    covers = [c.cover for c in components]
    return [c for c in covers if not any(c < d for d in covers)]


def assert_irredundant(components) -> None:
    """No component contains the intersection of the others.

    The intersection of all but component i is the meet of the prefix
    before i and the suffix after it, so each fold is done once.
    """
    if not components:
        return
    ideals = [c.ideal for c in components]
    unit = MonomialIdeal.unit(ideals[0].ambient)
    prefix = [unit]
    for ideal in ideals:
        prefix.append(prefix[-1].intersect(ideal))
    suffix = [unit]
    for ideal in reversed(ideals):
        suffix.append(suffix[-1].intersect(ideal))
    suffix.reverse()
    for i, comp in enumerate(components):
        rest = prefix[i].intersect(suffix[i + 1])
        assert not comp.ideal.contains_ideal(rest), (
            f"component on cover {sorted(comp.cover)} is redundant"
        )


# --- per-exponent recomputation oracles ---------------------------------------
#
# random_regression and check_line_cubic_witness build each power once per
# graph.  These are the paths they replaced, which recompute every power
# through the public functions, so they share no state between exponents.


def reference_random_regression(
    seed: int, trials: int, *, s_max: int = 3
) -> RegressionSummary:
    """The regression sweep, calling both symbolic routes afresh for each s."""
    rng = random.Random(seed)
    summary = RegressionSummary(seed=seed, trials=trials)
    for _ in range(trials):
        g = random_graph(rng)
        ideal = edge_ideal(g)
        comps = irreducible_decomposition(g)
        if decomposition_intersection(comps, g) != ideal:
            summary.failures.append(
                {"graph": g.to_json(), "problem": "decomposition identity"}
            )
            continue
        ordinary = ideal
        for s in range(1, s_max + 1):
            if s > 1:
                ordinary = ordinary * ideal
            symbolic = symbolic_power(g, s)
            if symbolic != symbolic_power_oracle(g, s):
                summary.failures.append(
                    {"graph": g.to_json(), "problem": "symbolic routes differ", "s": s}
                )
                break
            if not symbolic.contains_ideal(ordinary):
                summary.failures.append(
                    {
                        "graph": g.to_json(),
                        "problem": "ordinary power not inside symbolic power",
                        "s": s,
                    }
                )
                break
    return summary


def reference_cubic_witness(weights, i: int) -> CheckResult:
    """The cubic-witness check, building I^3 and I^(3) beside compare_powers."""
    name = "line_cubic_witness"
    weights = tuple(weights)
    n = len(weights)
    instance = f"line weights={weights}, i={i}"

    def skip(notice: str) -> CheckResult:
        return CheckResult(
            check=name, instance=instance, hypotheses_ok=False, prediction="",
            computed=notice, passed=False, details={"notice": notice},
        )

    if not 1 < i < n - 1:
        return skip(f"i={i} is not interior (need 1 < i < {n - 1})")
    if weights[i - 1] < 2:
        return skip(f"w(x{i})={weights[i - 1]} but needs >= 2")
    if weights[i] != 1:
        return skip(f"w(x{i + 1})={weights[i]} but needs exactly 1")

    g = oriented_line(n, weights)
    f = monomial(
        g.vertices,
        {
            f"x{i - 1}": 1,
            f"x{i}": weights[i - 1],
            f"x{i + 1}": 2,
            f"x{i + 2}": weights[i + 1],
        },
    )
    cube = edge_ideal(g) ** 3
    third_symbolic = symbolic_power(g, 3)
    in_symbolic = third_symbolic.contains(f)
    in_cube = cube.contains(f)
    report = compare_powers(g, 3)
    unequal_at_3 = not report.per_s[2].equal
    return CheckResult(
        check=name,
        instance=instance,
        hypotheses_ok=True,
        prediction="witness in third symbolic power, not in I^3; powers differ at s=3",
        computed=(
            f"witness={f}, in_symbolic={in_symbolic}, "
            f"in_cube={in_cube}, unequal_at_3={unequal_at_3}"
        ),
        passed=in_symbolic and not in_cube and unequal_at_3,
        details={"witness": f, "comparison": report.to_json()},
    )


# --- rigged regression sweeps -------------------------------------------------
#
# Tests that break one identity on purpose check that random_regression
# records the failure.

# The sweep of random_regression(RIG_SEED, RIG_TRIALS) meets these four
# graphs: 3, 5, 2 and 6 vertices, the third one edgeless.
RIG_SEED, RIG_TRIALS = 1, 4


def rig_graphs():
    rng = random.Random(RIG_SEED)
    return [random_graph(rng) for _ in range(RIG_TRIALS)]


def rig_powers(graphs):
    """I^2 and I^3 of each graph with edges.

    A rig that breaks an identity at both exponents shows whether the sweep
    stops at the first failure of a graph.
    """
    return {edge_ideal(g) ** s for g in graphs if g.edges for s in (2, 3)}


def rig_failures(graphs, problem, s=None):
    """One record per graph with edges; the edgeless graph cannot fail."""
    extra = {} if s is None else {"s": s}
    return [
        {"graph": g.to_json(), "problem": problem, **extra} for g in graphs if g.edges
    ]


@pytest.fixture
def routes_differ_from_2(monkeypatch):
    """Route two saturates I^s; from s = 2 on every saturation gives the unit ideal."""
    graphs = rig_graphs()
    powers = rig_powers(graphs)
    real = MonomialIdeal.saturate

    def saturate(self, variables):
        if self in powers:
            return MonomialIdeal.unit(self.ambient)
        return real(self, variables)

    monkeypatch.setattr(MonomialIdeal, "saturate", saturate)
    return graphs
