"""Vertex covers, the L1/L2/L3 partition, and strong cover enumeration."""

from __future__ import annotations

import itertools
import random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from oriented_ideals import (
    CapExceededError,
    WeightedOrientedGraph,
    cover_partition,
    covers,
    enumerate_strong_covers,
    irreducible_component,
    is_strong_cover,
    is_vertex_cover,
    maximal_strong_covers,
    minimal_vertex_covers,
    oriented_cycle,
    oriented_line,
    q_sub_p,
    random_graph,
)
from oriented_ideals.covers import CAP_ENV_VAR

from conftest import (
    brute_force_maximal_strong_covers,
    brute_force_minimal_vertex_covers,
    brute_force_strong_covers,
    reference_cover_partition,
    reference_is_strong_cover,
    reference_is_vertex_cover,
    small_graphs,
)


LINE3 = oriented_line(3, (1, 2, 2))
LINE5 = oriented_line(5, (1, 2, 1, 1, 1))


def covers_as_sets(covers):
    return [set(c) for c in covers]


def test_is_vertex_cover():
    assert is_vertex_cover(LINE3, {"x2"})
    assert is_vertex_cover(LINE3, {"x1", "x3"})
    assert not is_vertex_cover(LINE3, {"x1"})
    assert not is_vertex_cover(LINE3, set())
    with pytest.raises(ValueError, match="unknown vertex 'nope'"):
        is_vertex_cover(LINE3, {"nope"})
    with pytest.raises(ValueError, match="unknown vertex 'nope'"):
        is_strong_cover(LINE3, {"x2", "nope"})


def test_partition_middle_vertex():
    p = cover_partition(LINE3, {"x2"})
    assert p.l1 == {"x2"}
    assert p.l2 == frozenset()
    assert p.l3 == frozenset()


def test_partition_endpoints():
    p = cover_partition(LINE3, {"x1", "x3"})
    assert p.l1 == {"x1"}
    assert p.l2 == {"x3"}
    assert p.l3 == frozenset()


def test_partition_full_cover_is_all_l3():
    p = cover_partition(LINE3, set(LINE3.vertices))
    assert p.l3 == set(LINE3.vertices)
    assert p.l1 == p.l2 == frozenset()


def test_partition_is_immutable():
    p = cover_partition(LINE3, {"x1", "x3"})
    for name in ("cover", "l1", "l2", "l3", "layers"):
        with pytest.raises(AttributeError):
            setattr(p, name, frozenset())
    assert p.cover == {"x1", "x3"} and p.l1 == {"x1"}
    assert repr(p) == (
        f"CoverPartition(cover={p.cover!r}, l1={p.l1!r}, l2={p.l2!r}, l3={p.l3!r})"
    )


@pytest.mark.parametrize(
    "fn",
    [is_vertex_cover, cover_partition, is_strong_cover, irreducible_component, q_sub_p],
)
def test_bare_string_is_not_a_set_of_names(fn):
    # read as a set of characters, "ab" would be the cover {a, b} of a -> b
    g = WeightedOrientedGraph(("ab", "a", "b"), [("a", "b")])
    with pytest.raises(TypeError, match="not 'ab'"):
        fn(g, "ab")
    with pytest.raises(TypeError, match="not 'x'"):
        fn(g, "x")


def test_partition_rejects_non_cover():
    with pytest.raises(ValueError, match=r"\['x1'\] is not a vertex cover"):
        cover_partition(LINE3, {"x1"})
    assert not is_strong_cover(LINE3, {"x1"})


def test_strong_cover_needs_heavy_feeder():
    # full cover of a line: x1 sits in L3 with no in-neighbor at all
    assert not is_strong_cover(LINE3, set(LINE3.vertices))
    # on a cycle every vertex has an in-neighbor; all weights 2 makes V strong
    c3 = oriented_cycle(3, (2, 2, 2))
    assert is_strong_cover(c3, set(c3.vertices))
    light = oriented_cycle(3, (1, 1, 1))
    assert not is_strong_cover(light, set(light.vertices))


def test_enumerate_line2():
    g = oriented_line(2, (1, 1))
    assert covers_as_sets(enumerate_strong_covers(g)) == [{"x1"}, {"x2"}]


def test_enumerate_line5_frozen():
    got = covers_as_sets(enumerate_strong_covers(LINE5))
    assert got == [
        {"x2", "x4"},
        {"x1", "x3", "x4"},
        {"x1", "x3", "x5"},
        {"x2", "x3", "x4"},
        {"x2", "x3", "x5"},
    ]
    assert covers_as_sets(maximal_strong_covers(LINE5)) == [
        {"x1", "x3", "x4"},
        {"x1", "x3", "x5"},
        {"x2", "x3", "x4"},
        {"x2", "x3", "x5"},
    ]


def test_enumerate_cycle3_all_heavy():
    g = oriented_cycle(3, (2, 2, 2))
    got = covers_as_sets(enumerate_strong_covers(g))
    assert got == [
        {"x1", "x2"},
        {"x1", "x3"},
        {"x2", "x3"},
        {"x1", "x2", "x3"},
    ]
    assert covers_as_sets(maximal_strong_covers(g)) == [{"x1", "x2", "x3"}]


def test_minimal_vertex_covers_frozen():
    assert covers_as_sets(minimal_vertex_covers(LINE3)) == [{"x2"}, {"x1", "x3"}]
    line4 = oriented_line(4, (1, 1, 1, 1))
    assert covers_as_sets(minimal_vertex_covers(line4)) == [
        {"x1", "x3"},
        {"x2", "x3"},
        {"x2", "x4"},
    ]
    assert covers_as_sets(minimal_vertex_covers(LINE5)) == [
        {"x2", "x4"},
        {"x1", "x3", "x4"},
        {"x1", "x3", "x5"},
        {"x2", "x3", "x5"},
    ]


def test_edgeless_graph_has_empty_cover():
    g = WeightedOrientedGraph(("a", "b"), [])
    assert covers_as_sets(enumerate_strong_covers(g)) == [set()]
    assert covers_as_sets(minimal_vertex_covers(g)) == [set()]


def test_partition_to_json_sorted_by_position():
    p = cover_partition(LINE3, {"x1", "x3"})
    data = p.to_json()
    assert data == {"cover": ["x1", "x3"], "L1": ["x1"], "L2": ["x3"], "L3": []}
    # the order is the partition's own graph's, whatever the names
    g = WeightedOrientedGraph(("x3", "x2", "x1"), [("x3", "x2"), ("x1", "x2")])
    data = cover_partition(g, {"x1", "x2", "x3"}).to_json()
    assert data == {"cover": ["x3", "x2", "x1"], "L1": [], "L2": [], "L3": ["x3", "x2", "x1"]}


def test_enumeration_cap(monkeypatch):
    g = oriented_line(4, (1, 1, 1, 1))
    monkeypatch.setenv(CAP_ENV_VAR, "3")
    with pytest.raises(CapExceededError, match=CAP_ENV_VAR):
        enumerate_strong_covers(g)
    monkeypatch.setenv(CAP_ENV_VAR, "4")
    assert enumerate_strong_covers(g)


def test_negative_cap_rejected(monkeypatch):
    g = oriented_line(4, (1, 1, 1, 1))
    monkeypatch.setenv(CAP_ENV_VAR, "-1")
    with pytest.raises(ValueError, match=CAP_ENV_VAR):
        enumerate_strong_covers(g)
    monkeypatch.setenv(CAP_ENV_VAR, "many")
    with pytest.raises(ValueError, match=CAP_ENV_VAR):
        enumerate_strong_covers(g)


def test_enumeration_matches_brute_force_random():
    rng = random.Random(901)
    for _ in range(40):
        g = random_graph(rng, n_max=6)
        expected = brute_force_strong_covers(g)
        got = [frozenset(c) for c in enumerate_strong_covers(g)]
        assert got == expected, g.to_json()


@given(small_graphs(6))
@settings(max_examples=60, deadline=None)
def test_minimal_covers_are_strong(g):
    for cover in minimal_vertex_covers(g):
        if not cover:
            continue
        part = cover_partition(g, cover)
        assert part.l3 == frozenset()
        assert is_strong_cover(g, cover)


@given(small_graphs(6))
@settings(max_examples=60, deadline=None)
def test_full_vertex_set_strong_iff_no_sources_when_heavy(g):
    heavy = all(g.weight(v) >= 2 for v in g.vertices)
    isolated_free = not any(g.is_isolated(v) for v in g.vertices)
    if not (heavy and isolated_free and g.vertices):
        return
    assert is_strong_cover(g, set(g.vertices)) == (not g.sources())


@given(small_graphs(6))
@settings(max_examples=40, deadline=None)
def test_enumeration_is_sorted_and_deduplicated(g):
    covers = enumerate_strong_covers(g)
    keys = [(len(c), sorted(g.position(v) for v in c)) for c in covers]
    assert keys == sorted(keys)
    assert len(set(map(frozenset, covers))) == len(covers)


def _graph(n, edges=(), weights=None):
    vs = [f"v{i}" for i in range(n)]
    return WeightedOrientedGraph(
        vs, [(vs[t], vs[h]) for t, h in edges], dict(zip(vs, weights or [1] * n))
    )


@st.composite
def scan_graphs(draw):
    """Graphs on 0-9 vertices, any orientation, mixed, all-1 or all-heavy weights."""
    n = draw(st.integers(min_value=0, max_value=9))
    edges = []
    for i, j in itertools.combinations(range(n), 2):
        kind = draw(st.integers(min_value=0, max_value=2))
        if kind == 1:
            edges.append((i, j))
        elif kind == 2:
            edges.append((j, i))
    low, high = draw(st.sampled_from(((1, 3), (1, 1), (2, 3))))
    weights = [draw(st.integers(min_value=low, max_value=high)) for _ in range(n)]
    return _graph(n, edges, weights)


# Graphs on which the strong-cover walk skips subtrees below its root: a
# light path, an in-star with one heavy leaf, a light triangle with a
# tail, and an out-star from a heavy center
CUT_EXAMPLES = [
    _graph(4, [(0, 1), (1, 2), (2, 3)]),
    _graph(5, [(1, 0), (2, 0), (3, 0), (4, 0)], [1, 2, 1, 1, 1]),
    _graph(5, [(0, 1), (1, 2), (2, 0), (2, 3), (3, 4)], [1, 1, 1, 2, 1]),
    _graph(3, [(2, 0), (2, 1)], [1, 1, 2]),
]


# explicit: no vertices, edgeless, a heavy path beside isolated vertices,
# a heavy triangle beside a light edge and an isolated vertex, the graphs
# above, and a heavy 5-cycle, where the maximal scan stops at the root
@given(scan_graphs())
@example(_graph(0))
@example(_graph(4))
@example(_graph(5, [(0, 1), (1, 2)], [2, 2, 2, 2, 2]))
@example(_graph(6, [(0, 1), (1, 2), (2, 0), (3, 4)], [2, 2, 2, 1, 1, 3]))
@example(CUT_EXAMPLES[0])
@example(CUT_EXAMPLES[1])
@example(CUT_EXAMPLES[2])
@example(CUT_EXAMPLES[3])
@example(_graph(5, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 0)], [2, 2, 2, 2, 2]))
@settings(max_examples=150, deadline=None)
def test_cover_scans_match_brute_force(g):
    assert enumerate_strong_covers(g) == brute_force_strong_covers(g)
    assert maximal_strong_covers(g) == brute_force_maximal_strong_covers(g)
    assert minimal_vertex_covers(g) == brute_force_minimal_vertex_covers(g)


def test_cycle18_cover_counts():
    g = oriented_cycle(18, (2,) * 18)
    # every vertex cover of an all-heavy oriented cycle is strong: Lucas L18
    assert len(enumerate_strong_covers(g)) == 5778
    assert maximal_strong_covers(g) == [frozenset(g.vertices)]
    # minimal vertex covers of C18: Perrin P18
    assert len(minimal_vertex_covers(g)) == 158


@pytest.fixture
def strength_tests(monkeypatch):
    """Counts the covers the scans hand to ``is_strong_cover``."""
    calls = []
    real = covers.is_strong_cover

    def counting(g, cover):
        calls.append(cover)
        return real(g, cover)

    monkeypatch.setattr(covers, "is_strong_cover", counting)
    return calls


def _vertex_cover_count(g):
    return sum(
        is_vertex_cover(g, c)
        for r in range(len(g.vertices) + 1)
        for c in itertools.combinations(g.vertices, r)
    )


@pytest.mark.parametrize("g", CUT_EXAMPLES)
def test_cut_fires_below_the_root(g, strength_tests):
    strong = enumerate_strong_covers(g)
    tested = len(strength_tests)
    assert len(strong) <= tested < _vertex_cover_count(g)
    strength_tests.clear()
    maximal_strong_covers(g)
    assert len(strength_tests) <= tested


def test_feeder_in_l1_starves(strength_tests):
    # with S = {v1} the center v2 joins L1, so v0 in L3 has no feeder left
    # and nothing later can change that: {v0, v2} is never tested
    g = CUT_EXAMPLES[3]
    assert enumerate_strong_covers(g) == [frozenset({"v2"}), frozenset({"v0", "v1"})]
    assert frozenset({"v0", "v2"}) not in strength_tests


def test_line18_scan_tests_few_covers(strength_tests):
    g = oriented_line(18, (1, 2) * 9)
    assert len(enumerate_strong_covers(g)) == 384
    # the walk visits 6,765 vertex covers without the cut
    assert len(strength_tests) <= 800


def test_cycle18_maximal_scan_stops_at_the_root(strength_tests):
    g = oriented_cycle(18, (2,) * 18)
    assert maximal_strong_covers(g) == [frozenset(g.vertices)]
    assert strength_tests == [frozenset(g.vertices)]


def _vertex_subsets(g):
    vs = g.vertices
    for r in range(len(vs) + 1):
        yield from map(frozenset, itertools.combinations(vs, r))


def _error(fn, *args):
    with pytest.raises(ValueError) as info:
        fn(*args)
    return str(info.value)


def _reference_graphs(family):
    if family == "random":
        rng = random.Random(1313)
        return [random_graph(rng, n_min=0, n_max=8) for _ in range(30)]
    if family == "heavy-cycles":
        return [oriented_cycle(n, (2,) * n) for n in range(3, 9)]
    return [oriented_line(5, w) for w in itertools.product((1, 2, 3), repeat=5)]


@pytest.mark.parametrize("family", ["random", "heavy-cycles", "lines"])
def test_mask_tests_match_set_reference(family):
    for g in _reference_graphs(family):
        # the same graph built again, with a mask table of its own
        twin = WeightedOrientedGraph(g.vertices, g.edges, g.weights)
        previous = None
        for c in _vertex_subsets(g):
            covered = reference_is_vertex_cover(g, c)
            assert is_vertex_cover(g, c) == covered
            assert is_strong_cover(g, c) == reference_is_strong_cover(g, c)
            if not covered:
                assert _error(cover_partition, g, c) == _error(
                    reference_cover_partition, g, c
                )
                continue
            p = cover_partition(g, c)
            ref = reference_cover_partition(g, c)
            assert (p.cover, p.l1, p.l2, p.l3) == (ref.cover, ref.l1, ref.l2, ref.l3)
            assert p.to_json() == ref.to_json(g)
            assert p.is_strong() == ref.is_strong(g)
            assert hash(p) == hash(ref)
            again = cover_partition(twin, list(c))
            assert p == cover_partition(g, set(c)) == again
            assert hash(again) == hash(p)
            assert p != previous and again != previous
            previous = p


def test_unknown_vertex_message_matches_reference():
    g = oriented_line(3, (1, 2, 2))
    for fn, ref in (
        (is_vertex_cover, reference_is_vertex_cover),
        (cover_partition, reference_cover_partition),
        (is_strong_cover, reference_is_strong_cover),
    ):
        for bad in ({"nope"}, ["x1", "nope"], ("x1", "x2", "x3", "nope")):
            assert _error(fn, g, bad) == _error(ref, g, bad) == "unknown vertex 'nope'"


def _names_of(g, mask):
    """The vertices of a mask with the first vertex on the highest bit."""
    n = len(g.vertices)
    return frozenset(v for i, v in enumerate(g.vertices) if mask >> (n - 1 - i) & 1)


# no vertices, one vertex, and both sides of each 6-bit chunk boundary up to
# the cap, edgeless and as a path with every third vertex left isolated
@pytest.mark.parametrize("n", [0, 1, 6, 7, 12, 13, 20])
@pytest.mark.parametrize("shape", ["edgeless", "path-and-isolated"])
def test_mask_table_names_every_chunk(n, shape):
    edges = []
    if shape != "edgeless":
        kept = [i for i in range(n) if i % 3 != 2]
        edges = list(zip(kept, kept[1:]))
    g = _graph(n, edges, [1 + i % 2 for i in range(n)])
    masks = covers._cover_masks(g)
    full = (1 << n) - 1
    rng = random.Random(n)
    probes = [0, full, *(1 << k for k in range(n)), *(rng.getrandbits(n) for _ in range(50))]
    for mask in probes:
        names = masks.names(mask)
        assert names == _names_of(g, mask)
        assert masks.mask(names) == mask
    assert masks.names(full) == frozenset(g.vertices)
    assert is_vertex_cover(g, g.vertices)
    assert cover_partition(g, g.vertices).to_json()["cover"] == list(g.vertices)


def test_mask_table_is_built_once_per_graph(monkeypatch):
    built = []

    class Counting(covers._CoverMasks):
        def __init__(self, g):
            built.append(g)
            super().__init__(g)

    monkeypatch.setattr(covers, "_CoverMasks", Counting)
    g = oriented_line(6, (1, 2, 2, 1, 2, 2))
    # a new graph carries no table until a cover call needs one
    assert g._cover_masks is None
    first = enumerate_strong_covers(g)
    table = g._cover_masks
    assert enumerate_strong_covers(g) == first
    maximal_strong_covers(g)
    assert is_strong_cover(g, {"x2", "x4", "x6"})
    cover_partition(g, g.vertices)
    assert built == [g] and g._cover_masks is table
    # the minimal scan walks a unit-weight copy, which builds its own table
    minimal_vertex_covers(g)
    unit = WeightedOrientedGraph(g.vertices, g.edges)
    assert built == [g, unit] and g._cover_masks is table

    sub = g.induced_subgraph(["x1", "x2", "x3"])
    assert sub._cover_masks is None
    assert enumerate_strong_covers(sub) == brute_force_strong_covers(sub)
    assert built == [g, unit, sub]
    assert sub._cover_masks is not table and g._cover_masks is table
