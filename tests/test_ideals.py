"""Edge ideals and their irreducible decomposition."""

from __future__ import annotations

import random
from itertools import chain, product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oriented_ideals import (
    IrreducibleComponent,
    MonomialIdeal,
    WeightedOrientedGraph,
    decomposition_intersection,
    edge_ideal,
    enumerate_strong_covers,
    intersect_all,
    irreducible_component,
    irreducible_decomposition,
    oriented_cycle,
    oriented_line,
    random_graph,
)

from oriented_ideals import monomials

from conftest import (
    assert_irredundant,
    component_exponents,
    gens,
    reference_component_ideal,
    reference_irreducible_decomposition,
    small_graphs,
)


LINE3 = oriented_line(3, (1, 2, 2))


def test_edge_ideal_generators():
    assert gens(edge_ideal(LINE3)) == {"x1*x2^2", "x2*x3^2"}
    c3 = oriented_cycle(3, (2, 1, 2))
    assert gens(edge_ideal(c3)) == {"x1*x2", "x2*x3^2", "x1^2*x3"}


def test_edge_ideal_of_edgeless_graph_is_zero():
    g = WeightedOrientedGraph(("a", "b"), [])
    assert edge_ideal(g).is_zero


def test_component_generators_frozen():
    by_cover = {
        frozenset(c.cover): gens(c.ideal) for c in irreducible_decomposition(LINE3)
    }
    assert by_cover == {
        frozenset({"x2"}): {"x2"},
        frozenset({"x1", "x3"}): {"x1", "x3^2"},
        frozenset({"x2", "x3"}): {"x2^2", "x3^2"},
    }


def test_decomposition_identity_line3():
    comps = irreducible_decomposition(LINE3)
    assert decomposition_intersection(comps, LINE3) == edge_ideal(LINE3)


def test_cycle3_full_cover_component():
    g = oriented_cycle(3, (2, 2, 2))
    by_cover = {
        frozenset(c.cover): gens(c.ideal) for c in irreducible_decomposition(g)
    }
    assert by_cover[frozenset({"x1", "x2", "x3"})] == {"x1^2", "x2^2", "x3^2"}
    # x2's out-neighbor x3 is outside the cover, so x2 lands in L1
    assert by_cover[frozenset({"x1", "x2"})] == {"x2", "x1^2"}
    comps = irreducible_decomposition(g)
    assert decomposition_intersection(comps, g) == edge_ideal(g)


def test_component_rejects_non_strong_cover(monkeypatch):
    # the cover is checked when the component is made, not when its ideal
    # is first read
    def no_ideal(cls, ambient, powers):
        raise AssertionError("a component ideal was built")

    monkeypatch.setattr(MonomialIdeal, "_pure_powers", classmethod(no_ideal))
    with pytest.raises(ValueError, match="not a vertex cover"):
        irreducible_component(LINE3, {"x1"})
    with pytest.raises(ValueError, match="not a strong vertex cover"):
        irreducible_component(LINE3, {"x1", "x2", "x3"})
    comp = irreducible_component(LINE3, {"x1", "x3"})
    assert comp.cover == {"x1", "x3"}
    with pytest.raises(AssertionError, match="was built"):
        comp.ideal


def test_component_compares_hashes_and_prints_by_cover_and_ideal():
    comp = irreducible_component(LINE3, {"x1", "x3"})
    again = irreducible_component(LINE3, ["x3", "x1"])
    other = irreducible_component(LINE3, {"x2"})
    ideal = MonomialIdeal(LINE3.vertices, ["x1", "x3^2"])
    assert comp == again and hash(comp) == hash(again)
    assert comp != other
    assert comp != comp.cover and comp.__eq__(comp.cover) is NotImplemented
    assert hash(comp) == hash((frozenset({"x1", "x3"}), ideal))
    assert len({comp, again, other}) == 2
    assert repr(comp) == (
        f"IrreducibleComponent(cover={frozenset({'x1', 'x3'})!r}, ideal={ideal!r})"
    )
    # the same cover on a graph with another weight is another component
    heavier = irreducible_component(oriented_line(3, (1, 2, 3)), {"x1", "x3"})
    assert heavier.cover == comp.cover and heavier != comp


def test_component_is_immutable():
    comp = irreducible_component(LINE3, {"x2", "x3"})
    ideal = comp.ideal
    for attr, value in (("cover", frozenset({"x2"})), ("ideal", ideal), ("note", 1)):
        with pytest.raises(AttributeError):
            setattr(comp, attr, value)
    with pytest.raises(AttributeError):
        del comp.cover
    assert isinstance(comp, IrreducibleComponent)
    assert comp.cover == {"x2", "x3"} and comp.ideal is ideal


def test_associated_primes():
    assert [c.cover for c in irreducible_decomposition(LINE3)] == [
        frozenset({"x2"}),
        frozenset({"x1", "x3"}),
        frozenset({"x2", "x3"}),
    ]
    edgeless = WeightedOrientedGraph(("a",), [])
    assert irreducible_decomposition(edgeless) == []


def test_empty_intersection_is_zero_ideal():
    g = WeightedOrientedGraph(("a", "b"), [])
    meet = decomposition_intersection(irreducible_decomposition(g), g)
    assert meet.is_zero
    assert meet == edge_ideal(g)


def test_component_json_shape():
    comp = irreducible_component(LINE3, {"x1", "x3"})
    data = comp.to_json()
    assert data["cover"] == ["x1", "x3"]
    assert data["ideal"] == ["x1", "x3^2"]
    assert data["L1"] == ["x1"]
    assert data["L2"] == ["x3"]


@given(small_graphs(6))
@settings(max_examples=50, deadline=None)
def test_edge_ideal_contained_in_every_component(g):
    ideal = edge_ideal(g)
    for comp in irreducible_decomposition(g):
        assert ideal <= comp.ideal


@given(small_graphs(6))
@settings(max_examples=50, deadline=None)
def test_decomposition_is_irredundant(g):
    comps = irreducible_decomposition(g)
    expected = [c for c in enumerate_strong_covers(g) if c]
    assert [set(c.cover) for c in comps] == [set(c) for c in expected]
    assert_irredundant(comps)


def test_decomposition_is_irredundant_on_acceptance_sample(sample_200):
    for g in sample_200:
        assert_irredundant(irreducible_decomposition(g))


@pytest.mark.parametrize("n", range(3, 11))
def test_cycle_decomposition_is_irredundant(n):
    assert_irredundant(irreducible_decomposition(oriented_cycle(n, (2,) * n)))


def assert_matches_splitting_oracle(g):
    """The components are exactly the splitting oracle's, one per vector."""
    comps = irreducible_decomposition(g)
    vectors = [component_exponents(c) for c in comps]
    assert len(set(vectors)) == len(vectors)
    assert set(vectors) == reference_irreducible_decomposition(g)


def test_decomposition_matches_splitting_oracle_on_acceptance_sample(sample_200):
    for g in sample_200:
        assert_matches_splitting_oracle(g)


# all-heavy and mixed cycles, lines with and without an interior drop
@pytest.mark.parametrize("n", range(2, 11))
def test_decomposition_matches_splitting_oracle_on_cycles_and_lines(n):
    graphs = [
        oriented_line(n, tuple(1 + i % 2 for i in range(n))),
        oriented_line(n, (1,) * (n // 2) + (2,) * (n - n // 2)),
    ]
    if n >= 3:
        graphs += [
            oriented_cycle(n, (2,) * n),
            oriented_cycle(n, tuple(1 + (i % 3 == 0) for i in range(n))),
        ]
    for g in graphs:
        assert_matches_splitting_oracle(g)


@given(small_graphs(7))
@settings(max_examples=60, deadline=None)
def test_decomposition_matches_splitting_oracle(g):
    assert_matches_splitting_oracle(g)


def test_splitting_oracle_line3():
    # (x1 x2^2, x2 x3^2) = (x2) ∩ (x1, x3^2) ∩ (x2^2, x3^2)
    assert reference_irreducible_decomposition(LINE3) == {(0, 1, 0), (1, 0, 2), (0, 2, 2)}
    assert reference_irreducible_decomposition(oriented_line(1, (1,))) == set()


def test_irredundancy_check_catches_a_redundant_component():
    comps = irreducible_decomposition(LINE3)
    # a repeated component contains the intersection of the others
    with pytest.raises(AssertionError, match="redundant"):
        assert_irredundant(comps + [irreducible_component(LINE3, {"x2", "x3"})])


@given(small_graphs(5))
@settings(max_examples=40, deadline=None)
def test_decomposition_identity_random(g):
    comps = irreducible_decomposition(g)
    assert decomposition_intersection(comps, g) == edge_ideal(g)


def scan_order_intersection(components):
    """The identity fold in the order the covers were scanned, as a reference."""
    return intersect_all([c.ideal for c in components])


def identity_order_graphs():
    """Cycles and lines of 2 to 12 vertices, constant and random weights in {1, 2, 3}."""
    rng = random.Random(24)
    for n in range(2, 13):
        weightings = [(w,) * n for w in (1, 2, 3)]
        weightings += [tuple(rng.choice((1, 2, 3)) for _ in range(n)) for _ in range(2)]
        for w in weightings:
            yield oriented_line(n, w)
            if n >= 3:
                yield oriented_cycle(n, w)


def test_identity_fold_order_changes_no_result():
    for g in identity_order_graphs():
        comps = irreducible_decomposition(g)
        meet = decomposition_intersection(comps, g)
        assert meet == scan_order_intersection(comps) == edge_ideal(g), g


@given(small_graphs(6), st.randoms(use_true_random=False))
@settings(max_examples=60, deadline=None)
def test_identity_fold_ignores_the_callers_order(g, rng):
    comps = irreducible_decomposition(g)
    shuffled = comps[:]
    rng.shuffle(shuffled)
    meet = decomposition_intersection(shuffled, g)
    assert meet == decomposition_intersection(comps, g) == edge_ideal(g)
    if comps:
        assert meet == scan_order_intersection(shuffled)


def test_identity_fold_stays_small(monkeypatch):
    # in scan order the running intersection on this cycle peaks at 124
    # generators; in cover-mask order at 21
    g = oriented_cycle(12, (2,) * 12)
    comps = irreducible_decomposition(g)
    assert len(comps) == 322
    sizes = []
    intersect = MonomialIdeal.intersect

    def recording(self, other):
        result = intersect(self, other)
        sizes.append(result.num_generators)
        return result

    monkeypatch.setattr(MonomialIdeal, "intersect", recording)
    assert decomposition_intersection(comps, g) == edge_ideal(g)
    assert len(sizes) == len(comps) - 1
    assert max(sizes) <= 21


def test_identity_fold_meets_components_without_divisor_indexes(monkeypatch):
    # each step meets a pure-power component by its powers alone; the one
    # divisor index left per step is the one minimalization builds for the
    # raised rows
    g = oriented_cycle(10, (2,) * 10)
    comps = irreducible_decomposition(g)
    expected = edge_ideal(g)
    built = []

    class CountedDivisors(monomials._Divisors):
        def __init__(self, layout, rows):
            built.append(len(rows))
            super().__init__(layout, rows)

    monkeypatch.setattr(monomials, "_Divisors", CountedDivisors)
    assert decomposition_intersection(comps, g) == expected
    assert 0 < len(built) <= len(comps) - 1


def test_identity_fold_builds_no_layouts(monkeypatch):
    # each step packs at the wider operand's layout and the result shares
    # it, so once the component ideals are read the fold builds no layout
    g = oriented_cycle(10, (2,) * 10)
    comps = irreducible_decomposition(g)
    for comp in comps:
        comp.ideal
    expected = edge_ideal(g)
    built = []

    class CountedLayout(monomials._Layout):
        __slots__ = ()

        def __init__(self, n, maxexp):
            built.append(maxexp)
            super().__init__(n, maxexp)

    monkeypatch.setattr(monomials, "_Layout", CountedLayout)
    assert decomposition_intersection(comps, g) == expected
    assert built == []


def test_components_share_ambient():
    comps = irreducible_decomposition(LINE3)
    assert all(c.ideal.ambient == LINE3.vertices for c in comps)
    meet = decomposition_intersection(comps, LINE3)
    assert isinstance(meet, MonomialIdeal)
    assert meet.ambient == LINE3.vertices


def component_reference_graphs():
    rng = random.Random(11)
    yield from (random_graph(rng, n_max=7) for _ in range(60))
    yield from (oriented_cycle(n, (2,) * n) for n in range(3, 10))
    yield from (oriented_line(4, w) for w in product((1, 2, 3), repeat=4))


@given(small_graphs(6))
@settings(max_examples=60, deadline=None)
def test_component_ideal_read_matches_monomial_construction(g):
    for comp in irreducible_decomposition(g):
        reference = reference_component_ideal(g, comp.cover)
        assert comp.ideal == reference
        assert comp.ideal._rows == reference._rows
        assert comp.ideal.generator_strings() == reference.generator_strings()


def test_component_ideal_bound_is_its_largest_power():
    # every power is a generator, so the bound the layout was built with is exact
    for g in component_reference_graphs():
        for comp in irreducible_decomposition(g):
            ideal = comp.ideal
            assert ideal._layout.maxexp == max(chain.from_iterable(ideal._rows), default=0)


def test_components_from_rows_match_monomial_construction():
    compared = 0
    for g in component_reference_graphs():
        for cover in enumerate_strong_covers(g):
            ideal = irreducible_component(g, cover).ideal
            reference = reference_component_ideal(g, cover)
            assert ideal == reference, (g, sorted(cover))
            assert hash(ideal) == hash(reference)
            assert ideal._rows == reference._rows
            assert ideal.generator_strings() == reference.generator_strings()
            compared += 1
    assert compared > 500
