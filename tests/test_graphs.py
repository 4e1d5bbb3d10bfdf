"""Graph construction, neighborhoods, and serialization."""

from __future__ import annotations

import re
from types import MappingProxyType

import pytest

from oriented_ideals import (
    WeightedOrientedGraph,
    forest_broom,
    oriented_cycle,
    oriented_line,
    rooted_tree,
)


def test_line_shape():
    g = oriented_line(4, (1, 2, 2, 1))
    assert g.vertices == ("x1", "x2", "x3", "x4")
    assert g.edges == (("x1", "x2"), ("x2", "x3"), ("x3", "x4"))
    assert g.weight("x2") == 2
    assert g.sources() == {"x1"}
    assert g.sinks() == {"x4"}


def test_cycle_shape():
    g = oriented_cycle(3, (2, 2, 2))
    assert g.edges == (("x1", "x2"), ("x2", "x3"), ("x3", "x1"))
    assert g.sources() == frozenset()
    assert g.sinks() == frozenset()


def test_neighborhoods():
    g = oriented_line(3, (1, 1, 1))
    assert g.neighbors("x2") == {"x1", "x3"}
    with pytest.raises(ValueError):
        g.neighbors("y")


def test_isolated_vertices_are_neither_source_nor_sink():
    g = WeightedOrientedGraph(("a", "b", "c"), [("a", "b")], {"a": 1, "b": 1, "c": 1})
    assert g.is_isolated("c")
    assert g.sources() == {"a"}
    assert g.sinks() == {"b"}


def test_single_vertex_graph():
    g = WeightedOrientedGraph(("a",), [], {"a": 2})
    assert g.sources() == frozenset()
    assert g.sinks() == frozenset()
    assert g.is_isolated("a")


def test_validation():
    with pytest.raises(ValueError):
        WeightedOrientedGraph(("a",), [("a", "a")])
    with pytest.raises(ValueError):
        WeightedOrientedGraph(("a", "b"), [("a", "b"), ("a", "b")])
    with pytest.raises(ValueError):
        WeightedOrientedGraph(("a", "b"), [("a", "b"), ("b", "a")])
    with pytest.raises(ValueError):
        WeightedOrientedGraph(("a", "b"), [("a", "c")])
    with pytest.raises(ValueError):
        WeightedOrientedGraph(("a",), [], {"a": 0})
    with pytest.raises(ValueError):
        WeightedOrientedGraph(("a", "a"), [])
    with pytest.raises(ValueError):
        WeightedOrientedGraph(("a",), [], {"b": 1})


def test_vertex_names_are_typed_before_they_are_compared():
    # a list is no name, and set() of two of them would fail as unhashable
    with pytest.raises(TypeError, match="vertex names must be strings"):
        WeightedOrientedGraph([["a"], ["a"]], [])


@pytest.mark.parametrize("name", ["", "1", "a*b", "a^2", " a", "a "])
def test_unreadable_vertex_names_rejected(name):
    # "1" would print as the unit ideal, "a^2" squared as "a^2^2"
    message = re.escape(f"vertex name {name!r} is empty, padded, '1', or holds '*' or '^'")
    with pytest.raises(ValueError, match=message):
        WeightedOrientedGraph([name, "c"], [(name, "c")])
    data = {"vertices": [name, "c"], "edges": [[name, "c"]], "weights": {name: 2, "c": 1}}
    with pytest.raises(ValueError, match=message):
        WeightedOrientedGraph.from_json(data)


@pytest.mark.parametrize("w", [2.0, True, "2", None])
def test_weight_must_be_an_int(w):
    with pytest.raises(TypeError, match="weight of 'b' must be an int"):
        WeightedOrientedGraph(("a", "b"), [("a", "b")], {"b": w})


def test_equal_graphs_hash_equal():
    g = WeightedOrientedGraph(("a", "b"), [("a", "b")], {"a": 1, "b": 3})
    h = WeightedOrientedGraph(["a", "b"], (("a", "b"),), {"b": 3})
    assert g == h and hash(g) == hash(h)
    line = WeightedOrientedGraph(("x1", "x2"), [("x1", "x2")], {"x2": 3})
    assert len({line, oriented_line(2, (1, 3))}) == 1
    assert g != WeightedOrientedGraph(("a", "b"), [("a", "b")], {"a": 2, "b": 3})


def test_line_and_cycle_argument_errors():
    with pytest.raises(ValueError, match="at least one vertex"):
        oriented_line(0, ())
    with pytest.raises(ValueError, match="expected 3 weights, got 2"):
        oriented_line(3, (1, 2))
    with pytest.raises(ValueError, match="at least three vertices"):
        oriented_cycle(2, (2, 2))
    with pytest.raises(ValueError, match="expected 4 weights, got 3"):
        oriented_cycle(4, (2, 2, 2))


def test_vertices_given_as_one_string_rejected():
    # iterating "ab" would declare the vertices "a" and "b"
    with pytest.raises(TypeError):
        WeightedOrientedGraph("ab", [("a", "b")])
    assert WeightedOrientedGraph(["a", "b"], [("a", "b")]).vertices == ("a", "b")


def test_edge_given_as_one_string_rejected():
    # unpacking "ab" would load the edge a -> b
    with pytest.raises(TypeError):
        WeightedOrientedGraph(["a", "b"], ["ab"])
    # a vertex may still be named by a two-letter string
    g = WeightedOrientedGraph(["ab", "c"], [("ab", "c")])
    assert g.edges == (("ab", "c"),)


@pytest.mark.parametrize("weights", [[], 0, "", False, (), [("b", 3)], "b"])
def test_weights_must_be_a_mapping(weights):
    # dict(weights or {}) would read a falsy value as no weights at all, and
    # a list of pairs as a mapping
    with pytest.raises(TypeError, match="weights must map"):
        WeightedOrientedGraph(("a", "b"), [("a", "b")], weights)


def test_weights_default_to_one():
    g = WeightedOrientedGraph(("a", "b"), [("a", "b")], {"b": 3})
    assert g.weight("a") == 1
    assert g.weight("b") == 3
    assert WeightedOrientedGraph(("a",), [], None).weight("a") == 1
    assert WeightedOrientedGraph(("a",), [], MappingProxyType({"a": 2})).weight("a") == 2


def test_induced_subgraph():
    g = oriented_line(4, (1, 2, 2, 1))
    h = g.induced_subgraph({"x1", "x2", "x4"})
    assert h.vertices == ("x1", "x2", "x4")
    assert h.edges == (("x1", "x2"),)
    assert h.weights == {"x1": 1, "x2": 2, "x4": 1}
    assert g.induced_subgraph(g.vertices) == g


def test_rooted_tree_matches_line():
    t = rooted_tree({"x2": "x1", "x3": "x2"}, "x1", {"x1": 2, "x2": 2, "x3": 1})
    assert t == oriented_line(3, (2, 2, 1))
    assert t.sources() == {"x1"}


def test_rooted_tree_validation():
    with pytest.raises(ValueError):
        rooted_tree({"a": "b"}, "a", {"a": 1, "b": 1})  # root has a parent
    with pytest.raises(ValueError):
        rooted_tree({"a": "b", "b": "a"}, "z", {})  # unreachable root
    with pytest.raises(ValueError):
        # second root: c's parent is not a tree vertex
        rooted_tree({"b": "a", "c": "d"}, "a", {})


def test_a_root_beside_a_cycle_is_no_tree():
    # in-degrees and |E| = |V| - 1 hold, but the root reaches no other vertex
    cycle = [("a", "b"), ("b", "c"), ("c", "a")]
    tree = WeightedOrientedGraph(["z", "a", "b", "c"], cycle, dict.fromkeys("zabc", 2))
    with pytest.raises(ValueError, match="'a' is not reached from the root 'z'"):
        forest_broom(2, 2, tree, "z")
    with pytest.raises(ValueError, match="'a' is not reached from the root 'z'"):
        rooted_tree({"a": "c", "b": "a", "c": "b"}, "z", {})


def test_forest_broom_rejects_extra_edges_and_unknown_roots():
    tree = WeightedOrientedGraph(["z", "a", "b"], [("z", "a"), ("z", "b"), ("a", "b")])
    with pytest.raises(ValueError, match=r"\|V\|-1 edges"):
        forest_broom(2, 2, tree, "z")
    with pytest.raises(ValueError, match="unknown vertex 'q'"):
        forest_broom(2, 2, rooted_tree({}, "z", {"z": 2}), "q")


def test_forest_broom_shape():
    tree = rooted_tree({"t1": "z", "t2": "z"}, "z", {"z": 2, "t1": 1, "t2": 1})
    broom = forest_broom(2, 2, tree, "z")
    assert broom.vertices == ("x", "y", "z", "t1", "t2")
    assert set(broom.edges) == {("x", "y"), ("y", "z"), ("z", "t1"), ("z", "t2")}
    assert broom.weight("y") == 2
    assert broom.weight("z") == 2
    # leaves are sinks, so weight 1 is allowed there
    assert broom.weight("t1") == 1


def test_forest_broom_weight_validation():
    path = rooted_tree({"t1": "z", "t2": "t1"}, "z", {"z": 2, "t1": 1, "t2": 1})
    with pytest.raises(ValueError):
        forest_broom(2, 2, path, "z")  # t1 is not a sink but has weight 1
    heavy = rooted_tree({"t1": "z", "t2": "t1"}, "z", {"z": 2, "t1": 2, "t2": 1})
    ok = forest_broom(2, 2, heavy, "z")
    assert ok.weight("t1") == 2
    # x is a source, so its stored weight is fixed and never matters
    assert ok.weight("x") == 2
    with pytest.raises(ValueError):
        forest_broom(1, 2, heavy, "z")  # y is never a sink
    tree = rooted_tree({}, "z", {"z": 1})
    # a lone root is a sink, so w_z = 1 passes
    assert forest_broom(2, 1, tree, "z").weight("z") == 1


def test_forest_broom_root_and_name_checks():
    tree = rooted_tree({"t1": "z"}, "z", {"z": 2, "t1": 1})
    with pytest.raises(ValueError):
        forest_broom(2, 2, tree, "t1")  # not the root
    for name in ("x", "y"):
        clash = rooted_tree({name: "z"}, "z", {"z": 2, name: 1})
        with pytest.raises(ValueError, match=f"handle vertex '{name}' collides"):
            forest_broom(2, 2, clash, "z")


def test_json_round_trip():
    g = WeightedOrientedGraph(
        ("a", "b", "c"), [("a", "b"), ("c", "b")], {"a": 1, "b": 3, "c": 2}
    )
    assert WeightedOrientedGraph.from_json(g.to_json()) == g


def test_json_names_and_weights_are_typed_by_the_constructor():
    data = {"vertices": ["a", "b"], "edges": [["a", "b"]], "weights": {"b": 2.5}}
    with pytest.raises(ValueError, match="weight of 'b' must be an int, got 2.5"):
        WeightedOrientedGraph.from_json(data)
    data = {"vertices": [["a"], ["a"]], "edges": [], "weights": {}}
    with pytest.raises(ValueError, match="vertex names must be strings"):
        WeightedOrientedGraph.from_json(data)


def test_json_missing_weight_warns():
    data = {"vertices": ["a", "b"], "edges": [["a", "b"]], "weights": {"a": 2}}
    with pytest.warns(UserWarning, match="defaulting to 1"):
        g = WeightedOrientedGraph.from_json(data)
    assert g.weight("b") == 1
    assert g.weight("a") == 2
    # with no weights key at all, every vertex defaults
    with pytest.warns(UserWarning, match="no weight given for a, b"):
        g = WeightedOrientedGraph.from_json({"vertices": ["a", "b"], "edges": []})
    assert g.weights == {"a": 1, "b": 1}


def test_json_shape_errors():
    with pytest.raises(ValueError):
        WeightedOrientedGraph.from_json({"vertices": ["a"]})
    with pytest.raises(ValueError):
        WeightedOrientedGraph.from_json(
            {"vertices": ["a", "b"], "edges": [["a", "b", "c"]], "weights": {}}
        )
    for bad in (
        # the vertex and edge lists must be arrays, not strings or objects
        {"vertices": "ab", "edges": [["a", "b"]], "weights": {}},
        {"vertices": {"a": 1, "b": 2}, "edges": [["a", "b"]], "weights": {}},
        {"vertices": ["a", "b"], "edges": "ab", "weights": {}},
        {"vertices": [1, 2], "edges": [[1, 2]], "weights": {}},
        {"vertices": ["a", "b"], "edges": [["a", "b"]], "weights": {"a": 2.0}},
        {"vertices": ["a", "b"], "edges": [["a", None]], "weights": {}},
        {"vertices": ["a", "b"], "edges": [["a", "b"]], "weights": ["a"]},
        # a falsy value is no object either, so it is not read as no weights
        *(
            {"vertices": ["a", "b"], "edges": [["a", "b"]], "weights": falsy}
            for falsy in ([], 0, False, "", None)
        ),
    ):
        with pytest.raises(ValueError):
            WeightedOrientedGraph.from_json(bad)
    # Python callers may pass tuples
    data = {"vertices": ("a", "b"), "edges": (("a", "b"),), "weights": {"a": 1, "b": 2}}
    assert WeightedOrientedGraph.from_json(data).edges == (("a", "b"),)
