"""Symbolic powers and the ordinary-versus-symbolic comparison."""

from __future__ import annotations

import itertools
import random
from collections import deque

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from oriented_ideals import (
    InvariantError,
    MonomialIdeal,
    WeightedOrientedGraph,
    compare_powers,
    edge_ideal,
    intersect_all,
    irreducible_decomposition,
    oriented_cycle,
    oriented_line,
    q_sub_p,
    random_graph,
    symbolic_power,
    symbolic_power_oracle,
)
from oriented_ideals import ideals, symbolic

from conftest import (
    all_rows_up_to,
    brute_force_member,
    component_q_sub_p,
    disjoint_union,
    gens,
    maximal_covers,
    monomial,
    reference_power_comparison,
    reference_product,
    small_graphs,
)


LINE5 = oriented_line(5, (1, 2, 1, 1, 1))
MEMBERSHIP_DEGREE = 5


def test_q_sub_p_line2():
    g = oriented_line(2, (1, 1))
    assert gens(q_sub_p(g, frozenset({"x1"}))) == {"x1"}
    assert gens(q_sub_p(g, frozenset({"x2"}))) == {"x2"}
    with pytest.raises(ValueError, match="not an associated prime"):
        q_sub_p(g, frozenset({"x1", "x2"}))
    # the empty set is a strong cover of an edgeless graph, but no prime
    with pytest.raises(ValueError, match="not an associated prime"):
        q_sub_p(WeightedOrientedGraph(("a",), []), frozenset())


def test_q_sub_p_collects_nested_covers():
    # {x2, x3} contains the cover {x2}, so both components intersect
    g = oriented_line(3, (1, 2, 2))
    q = q_sub_p(g, frozenset({"x2", "x3"}))
    assert gens(q) == {"x2^2", "x2*x3^2"}
    assert q == component_q_sub_p(irreducible_decomposition(g), {"x2", "x3"})


def assert_q_sub_p_matches_components(g):
    comps = irreducible_decomposition(g)
    for c in comps:
        assert q_sub_p(g, c.cover) == component_q_sub_p(comps, c.cover), sorted(c.cover)


@given(small_graphs(5))
@settings(max_examples=50, deadline=None)
def test_q_sub_p_matches_component_intersection(g):
    assert_q_sub_p_matches_components(g)


def test_q_sub_p_matches_component_intersection_on_acceptance_sample(sample_200):
    for g in sample_200:
        assert_q_sub_p_matches_components(g)


@pytest.mark.parametrize("n", range(3, 11))
def test_cycle_q_sub_p_matches_component_intersection(n):
    assert_q_sub_p_matches_components(oriented_cycle(n, (2,) * n))


def test_first_symbolic_power_is_edge_ideal():
    for g in (LINE5, oriented_line(3, (1, 2, 2))):
        assert symbolic_power(g, 1) == edge_ideal(g)


def test_unit_weight_line3_powers_agree():
    g = oriented_line(3, (1, 1, 1))
    expected = {"x1^2*x2^2", "x1*x2^2*x3", "x2^2*x3^2"}
    assert gens(edge_ideal(g) ** 2) == expected
    assert gens(symbolic_power(g, 2)) == expected


def test_symbolic_power_rejects_bad_exponent():
    # bool is an int subclass, but True is no exponent
    for bad in (0, True):
        with pytest.raises(ValueError):
            symbolic_power(LINE5, bad)
        with pytest.raises(ValueError):
            symbolic_power_oracle(LINE5, bad)
        with pytest.raises(ValueError):
            compare_powers(LINE5, bad)


def test_zero_ideal_conventions():
    g = WeightedOrientedGraph(("a", "b"), [])
    assert symbolic_power(g, 3).is_zero
    assert symbolic_power_oracle(g, 3).is_zero
    report = compare_powers(g, 2)
    assert report.all_equal


def test_line5_report_frozen():
    report = compare_powers(LINE5, 3)
    assert [c.equal for c in report.per_s] == [True, True, False]
    assert report.first_inequality == 3
    assert not report.all_equal
    last = report.per_s[-1]
    assert last.ordinary_generators == 20
    assert last.symbolic_generators == 19
    assert last.witness == "x1*x2^2*x3^2*x4"

    cube = edge_ideal(LINE5) ** 3
    assert symbolic_power(LINE5, 3).contains(last.witness)
    assert not cube.contains(last.witness)


def test_report_json_shape():
    report = compare_powers(LINE5, 3)
    data = report.to_json()
    assert data["s_max"] == 3
    assert data["all_equal"] is False
    assert data["first_inequality"] == 3
    assert data["per_s"][0] == {
        "s": 1,
        "equal": True,
        "witness": None,
        "ordinary_generators": 4,
        "symbolic_generators": 4,
    }
    assert data["per_s"][2]["witness"] == "x1*x2^2*x3^2*x4"
    assert data["graph"]["vertices"] == list(LINE5.vertices)


@given(small_graphs(5), st.integers(min_value=1, max_value=3))
@settings(max_examples=30, deadline=None)
def test_symbolic_matches_saturation_oracle(g, s):
    assert symbolic_power(g, s) == symbolic_power_oracle(g, s)


def test_symbolic_power_builds_no_component_ideal(monkeypatch):
    rng = random.Random(15)
    graphs = [LINE5, oriented_cycle(5, (1, 2, 2, 1, 2))]
    graphs += [random_graph(rng, n_max=6) for _ in range(10)]
    expected = [symbolic_power_oracle(g, 2) for g in graphs]

    def no_component(g, cover):
        raise AssertionError("symbolic_power built a component ideal")

    monkeypatch.setattr(ideals, "irreducible_component", no_component)
    assert [symbolic_power(g, 2) for g in graphs] == expected


def test_compare_powers_builds_no_component_ideal(monkeypatch):
    rng = random.Random(15)
    graphs = [LINE5, oriented_cycle(5, (1, 2, 2, 1, 2))]
    graphs += [random_graph(rng, n_max=6) for _ in range(10)]
    expected = [compare_powers(g, 2).to_json() for g in graphs]

    def no_ideal(cls, ambient, powers):
        raise AssertionError("compare_powers built a component ideal")

    monkeypatch.setattr(MonomialIdeal, "_pure_powers", classmethod(no_ideal))
    assert [compare_powers(g, 2).to_json() for g in graphs] == expected
    # the patch is on the route that builds component ideals
    with pytest.raises(AssertionError, match="built a component ideal"):
        irreducible_decomposition(LINE5)[0].ideal


@given(small_graphs(5), st.integers(min_value=1, max_value=3))
@settings(max_examples=30, deadline=None)
def test_maximal_prime_restriction_is_lossless(g, s):
    comps = irreducible_decomposition(g)
    if not comps:
        return
    every_prime = [component_q_sub_p(comps, c.cover) ** s for c in comps]
    assert symbolic_power(g, s) == intersect_all(every_prime)


@given(small_graphs(5), st.integers(min_value=1, max_value=2))
@example(oriented_cycle(3, (1, 1, 1)), 2)  # x1*x2*x3 is in I^(2), not in I^2
@example(oriented_cycle(3, (1, 2, 1)), 2)  # likewise x1*x2^2*x3
@settings(max_examples=15, deadline=None)
def test_symbolic_membership_matches_brute_force(g, s):
    # m is in I^(s) iff m is a multiple of a generator of Q_{⊆P}^s for
    # every maximal P; the oracle side uses only the tuple reference kernel
    # and enumeration
    comps = irreducible_decomposition(g)
    symbolic = symbolic_power(g, s)
    local = []
    for p in maximal_covers(comps):
        rows = component_q_sub_p(comps, p)._rows
        power = rows
        for _ in range(s - 1):
            power = reference_product(power, rows)
        local.append(power)
    for row in all_rows_up_to(len(g.vertices), MEMBERSHIP_DEGREE):
        expected = bool(local) and all(brute_force_member(p, row) for p in local)
        m = monomial(g.vertices, zip(g.vertices, row))
        assert symbolic.contains(m) == expected, m


@given(small_graphs(5))
@settings(max_examples=30, deadline=None)
def test_containment_chain(g):
    ideal = edge_ideal(g)
    prev = None
    for s in (1, 2, 3):
        sym = symbolic_power(g, s)
        assert ideal**s <= sym
        if prev is not None:
            assert sym <= prev
        prev = sym


def test_compare_powers_matches_direct_computation():
    rng = random.Random(77)
    for _ in range(10):
        g = random_graph(rng, n_max=5)
        report = compare_powers(g, 3)
        for row in report.per_s:
            assert row.equal == (edge_ideal(g) ** row.s == symbolic_power(g, row.s))


def test_compare_powers_broken_containment_is_typed(monkeypatch):
    g = oriented_line(3, (1, 2, 2))
    # a fold that returns the zero ideal leaves I^s outside the symbolic power
    monkeypatch.setattr(
        symbolic, "intersect_all", lambda ideals, ambient=None: MonomialIdeal.zero(g.vertices)
    )
    with pytest.raises(InvariantError, match="not inside the symbolic power"):
        compare_powers(g, 1)


def assert_report_matches_reference(g, s_max):
    report = compare_powers(g, s_max)
    ideal = edge_ideal(g)
    for row in report.per_s:
        assert (row.witness, row.ordinary_generators, row.symbolic_generators) == (
            reference_power_comparison(ideal**row.s, symbolic_power(g, row.s))
        ), (g.to_json(), row.s)
        assert row.equal == (row.witness is None)


def test_compare_powers_matches_witness_oracle():
    assert_report_matches_reference(LINE5, 3)
    assert compare_powers(LINE5, 3).per_s[2].witness is not None


def test_compare_powers_matches_witness_oracle_on_acceptance_sample(sample_200):
    for g in sample_200:
        assert_report_matches_reference(g, 3)


def test_compare_powers_confirms_its_witness(monkeypatch):
    # a membership test that accepts the witness contradicts the row search
    monkeypatch.setattr(MonomialIdeal, "contains", lambda self, m: True)
    with pytest.raises(InvariantError, match="witness"):
        compare_powers(LINE5, 3)
    # equal powers need no witness, so no membership test is made
    assert compare_powers(LINE5, 2).all_equal


# --- an oracle from outside the paper -----------------------------------------
#
# With every weight 1 the edge ideal is the edge ideal of the underlying
# simple graph.  Then I^(s) = I^s for every s exactly when the graph is
# bipartite (Simis, Vasconcelos and Villarreal, On the ideal theory of graphs,
# J. Algebra 1994).  An odd cycle of length 2k+1 makes them differ at s = k+1:
# the product of its vertices lies in every minimal prime to the power k+1,
# but its degree is too small for I^(k+1).  Neither symbolic route encodes
# any of this.


def odd_girth(n: int, edges) -> int | None:
    """The length of a shortest odd cycle on vertices 0..n-1; None if bipartite.

    An edge between two vertices at the same breadth-first distance d from
    a root closes an odd closed walk of length 2d + 1, which holds an odd
    cycle no longer; rooted on a shortest odd cycle, its edge opposite the
    root is such an edge.  So the least 2d + 1 over all roots is the odd
    girth.
    """
    neighbors = [[] for _ in range(n)]
    for a, b in edges:
        neighbors[a].append(b)
        neighbors[b].append(a)
    lengths = []
    for root in range(n):
        dist = {root: 0}
        queue = deque([root])
        while queue:
            u = queue.popleft()
            for v in neighbors[u]:
                if v not in dist:
                    dist[v] = dist[u] + 1
                    queue.append(v)
        lengths += [2 * dist[a] + 1 for a, b in edges if a in dist and dist[a] == dist[b]]
    return min(lengths, default=None)


def test_odd_girth_on_known_graphs():
    assert odd_girth(2, [(0, 1)]) is None
    assert odd_girth(4, [(0, 1), (1, 2), (2, 3), (3, 0)]) is None
    assert odd_girth(3, [(0, 1), (1, 2), (2, 0)]) == 3
    pentagon = [(i, (i + 1) % 5) for i in range(5)]
    assert odd_girth(5, pentagon) == 5
    assert odd_girth(5, pentagon + [(0, 2)]) == 3
    # a triangle beside an isolated vertex and a separate edge
    assert odd_girth(6, [(0, 1), (1, 2), (2, 0), (4, 5)]) == 3


def test_unit_weights_first_differ_at_half_the_odd_girth():
    seen = 0
    outcomes = set()
    for n in range(2, 6):
        names = [f"x{i}" for i in range(1, n + 1)]
        pairs = list(itertools.combinations(range(n), 2))
        # every labeled graph on n vertices with at least one edge
        for chosen in range(1, 1 << len(pairs)):
            edges = [p for k, p in enumerate(pairs) if chosen >> k & 1]
            g = WeightedOrientedGraph(names, [(names[a], names[b]) for a, b in edges])
            girth = odd_girth(n, edges)
            first = None if girth is None else (girth + 1) // 2
            expected = first if first is not None and first <= 3 else None
            assert compare_powers(g, 3).first_inequality == expected, edges
            seen += 1
            outcomes.add(expected)
    assert seen == 1094
    # bipartite graphs, triangles and a shortest odd cycle of five all occur
    assert outcomes == {None, 2, 3}


@pytest.mark.parametrize("n, first", [(7, 4), (8, None)])
def test_unit_weight_cycles_past_the_cube(n, first):
    # C_(2k+1) first differs at s = k + 1 and an even cycle never does
    # (Simis-Vasconcelos-Villarreal), so C_7 first differs at s = 4, past
    # every graph on 2-5 vertices above
    g = oriented_cycle(n, (1,) * n)
    assert compare_powers(g, 4).first_inequality == first


# --- the binomial expansion over a disjoint union ----------------------------
#
# For ideals I and J in disjoint sets of variables,
#     (I + J)^(s) = sum over i = 0..s of I^(i) * J^(s-i),  with I^(0) = (1)
# (Hà-Nguyen-Trung-Trung, 2020).  Both symbolic routes must obey it on
# G ⊔ H; the check adds ideals packed at different widths and multiplies them.


def binomial_expansion(power, g, h, union, s) -> MonomialIdeal:
    """Σ_{i=0..s} I(G)^(i) · I(H)^(s-i) over the union's variables."""
    ambient = union.vertices

    def lifted(graph, k):
        if k == 0:
            return MonomialIdeal.unit(ambient)
        return power(graph, k).with_ambient(ambient)

    total = MonomialIdeal.zero(ambient)
    for i in range(s + 1):
        total = total + lifted(g, i) * lifted(h, s - i)
    return total


@given(small_graphs(5), small_graphs(5), st.integers(min_value=1, max_value=3))
@settings(max_examples=80, deadline=None)
def test_symbolic_power_of_a_disjoint_union_is_the_binomial_sum(g, h, s):
    union, h = disjoint_union(g, h)
    for power in (symbolic_power, symbolic_power_oracle):
        assert power(union, s) == binomial_expansion(power, g, h, union, s), power
