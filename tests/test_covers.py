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
    enumerate_strong_covers,
    is_strong_cover,
    is_vertex_cover,
    maximal_strong_covers,
    minimal_vertex_covers,
    oriented_cycle,
    oriented_line,
    random_graph,
)
from oriented_ideals.covers import CAP_ENV_VAR

from conftest import (
    brute_force_maximal_strong_covers,
    brute_force_minimal_vertex_covers,
    brute_force_strong_covers,
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
    data = p.to_json(LINE3)
    assert data == {"cover": ["x1", "x3"], "L1": ["x1"], "L2": ["x3"], "L3": []}


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


@st.composite
def small_graphs(draw, n_max=6, weight_max=3):
    seed = draw(st.integers(min_value=0, max_value=2**32 - 1))
    return random_graph(random.Random(seed), n_max=n_max, weight_max=weight_max)


@given(small_graphs())
@settings(max_examples=60, deadline=None)
def test_minimal_covers_are_strong(g):
    for cover in minimal_vertex_covers(g):
        if not cover:
            continue
        part = cover_partition(g, cover)
        assert part.l3 == frozenset()
        assert is_strong_cover(g, cover)


@given(small_graphs(weight_max=3))
@settings(max_examples=60, deadline=None)
def test_full_vertex_set_strong_iff_no_sources_when_heavy(g):
    heavy = all(g.weight(v) >= 2 for v in g.vertices)
    isolated_free = not any(g.is_isolated(v) for v in g.vertices)
    if not (heavy and isolated_free and g.vertices):
        return
    assert is_strong_cover(g, set(g.vertices)) == (not g.sources())


@given(small_graphs())
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


# explicit: no vertices, edgeless, a heavy path beside isolated vertices,
# a heavy triangle beside a light edge and an isolated vertex
@given(scan_graphs())
@example(_graph(0))
@example(_graph(4))
@example(_graph(5, [(0, 1), (1, 2)], [2, 2, 2, 2, 2]))
@example(_graph(6, [(0, 1), (1, 2), (2, 0), (3, 4)], [2, 2, 2, 1, 1, 3]))
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
