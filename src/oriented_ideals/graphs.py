"""Weighted oriented graphs.

A weighted oriented graph is a directed graph whose underlying undirected
graph is simple (no loops, no repeated edges in either direction), with a
positive integer weight on every vertex.  Vertex identifiers are opaque
strings; their position in the input order fixes the variable order used
by every ideal computation downstream.

Weights on source vertices are stored like any other but never enter an
edge-ideal generator, since generators only raise the head of an edge to
its weight.
"""

from __future__ import annotations

import warnings
from collections.abc import Iterable, Mapping, Sequence


class WeightedOrientedGraph:

    __slots__ = (
        "_vertices", "_position", "_edges", "_weights", "_out", "_in", "_cover_masks",
    )

    def __init__(
        self,
        vertices: Sequence[str],
        edges: Iterable[tuple[str, str]],
        weights: Mapping[str, int] | None = None,
    ):
        if isinstance(vertices, str):
            raise TypeError(f"vertices must be a sequence of names, not {vertices!r}")
        vertices = tuple(vertices)
        for v in vertices:
            if not isinstance(v, str):
                raise TypeError(f"vertex names must be strings, got {v!r}")
        if len(set(vertices)) != len(vertices):
            raise ValueError("vertex names must be distinct")
        position = {v: i for i, v in enumerate(vertices)}

        seen_directed: set[tuple[str, str]] = set()
        seen_undirected: set[frozenset[str]] = set()
        edge_list: list[tuple[str, str]] = []
        for edge in edges:
            if isinstance(edge, str):
                raise TypeError(f"an edge must be a (tail, head) pair, not {edge!r}")
            tail, head = edge
            if tail not in position or head not in position:
                raise ValueError(f"edge {edge!r} has an undeclared endpoint")
            if tail == head:
                raise ValueError(f"loop at {tail!r} is not allowed")
            if (tail, head) in seen_directed:
                raise ValueError(f"duplicate edge {edge!r}")
            pair = frozenset((tail, head))
            if pair in seen_undirected:
                raise ValueError(
                    f"edges {tail!r}<->{head!r} in both directions would be a "
                    "multi-edge in the underlying graph"
                )
            seen_directed.add((tail, head))
            seen_undirected.add(pair)
            edge_list.append((tail, head))
        edge_list.sort(key=lambda e: (position[e[0]], position[e[1]]))

        wmap = {}
        if not isinstance(weights, (Mapping, type(None))):
            raise TypeError(f"weights must map vertex names to integers, got {weights!r}")
        weights = dict(weights or {})
        for v in weights:
            if v not in position:
                raise ValueError(f"weight given for undeclared vertex {v!r}")
        for v in vertices:
            w = weights.get(v, 1)
            if not isinstance(w, int) or isinstance(w, bool):
                raise TypeError(f"weight of {v!r} must be an int, got {w!r}")
            if w < 1:
                raise ValueError(f"weight of {v!r} must be >= 1, got {w}")
            wmap[v] = w

        out: dict[str, set[str]] = {v: set() for v in vertices}
        inc: dict[str, set[str]] = {v: set() for v in vertices}
        for tail, head in edge_list:
            out[tail].add(head)
            inc[head].add(tail)

        self._vertices = vertices
        self._position = position
        self._edges = tuple(edge_list)
        self._weights = wmap
        self._out = {v: frozenset(s) for v, s in out.items()}
        self._in = {v: frozenset(s) for v, s in inc.items()}
        # bitmask tables of the cover tests, built by covers on first use
        self._cover_masks = None

    @property
    def vertices(self) -> tuple[str, ...]:
        return self._vertices

    @property
    def edges(self) -> tuple[tuple[str, str], ...]:
        return self._edges

    @property
    def weights(self) -> dict[str, int]:
        return dict(self._weights)

    def weight(self, v: str) -> int:
        self._check_vertex(v)
        return self._weights[v]

    def position(self, v: str) -> int:
        self._check_vertex(v)
        return self._position[v]

    def _check_vertex(self, v: str) -> None:
        if v not in self._position:
            raise ValueError(f"unknown vertex {v!r}")

    def out_neighbors(self, v: str) -> frozenset[str]:
        self._check_vertex(v)
        return self._out[v]

    def in_neighbors(self, v: str) -> frozenset[str]:
        self._check_vertex(v)
        return self._in[v]

    def neighbors(self, v: str) -> frozenset[str]:
        self._check_vertex(v)
        return self._out[v] | self._in[v]

    def is_isolated(self, v: str) -> bool:
        return not self.neighbors(v)

    def sources(self) -> frozenset[str]:
        """Non-isolated vertices with no in-neighbor (isolated vertices excluded)."""
        return frozenset(
            v for v in self._vertices if self._out[v] and not self._in[v]
        )

    def sinks(self) -> frozenset[str]:
        """Non-isolated vertices with no out-neighbor (isolated vertices excluded)."""
        return frozenset(
            v for v in self._vertices if self._in[v] and not self._out[v]
        )

    def underlying_edges(self) -> tuple[tuple[str, str], ...]:
        """Edges with orientation forgotten, endpoints in vertex order."""
        pos = self._position
        return tuple(
            (t, h) if pos[t] < pos[h] else (h, t) for t, h in self._edges
        )

    def induced_subgraph(self, keep: Iterable[str]) -> WeightedOrientedGraph:
        keep = set(keep)
        for v in keep:
            self._check_vertex(v)
        vertices = tuple(v for v in self._vertices if v in keep)
        edges = [e for e in self._edges if e[0] in keep and e[1] in keep]
        weights = {v: self._weights[v] for v in vertices}
        return WeightedOrientedGraph(vertices, edges, weights)

    def sort_vertices(self, vs: Iterable[str]) -> tuple[str, ...]:
        """The given vertices, in ambient order (useful for stable display)."""
        vs = set(vs)
        for v in vs:
            self._check_vertex(v)
        return tuple(v for v in self._vertices if v in vs)

    def to_json(self) -> dict:
        return {
            "vertices": list(self._vertices),
            "edges": [list(e) for e in self._edges],
            "weights": dict(self._weights),
        }

    @classmethod
    def from_json(cls, data: Mapping) -> WeightedOrientedGraph:
        """Build from {"vertices": [...], "edges": [[t, h], ...], "weights": {...}}.

        Vertices missing from "weights", or all of them when the key is
        absent, default to weight 1, with a warning.  A "weights" value that
        is not an object, even an empty array or null, raises ValueError.
        The shape of the JSON is checked here; the types of the names and
        weights are the constructor's, whose TypeError becomes ValueError.
        """
        try:
            vertices = data["vertices"]
            raw_edges = data["edges"]
        except (KeyError, TypeError) as exc:
            raise ValueError(f"graph object needs vertices and edges: {exc}") from None
        for key, value in (("vertices", vertices), ("edges", raw_edges)):
            if not isinstance(value, (list, tuple)):
                raise ValueError(f"{key} must be an array, got {value!r}")
        edges = []
        for e in raw_edges:
            if not (
                isinstance(e, (list, tuple))
                and len(e) == 2
                and all(isinstance(v, str) for v in e)
            ):
                raise ValueError(f"edge {e!r} must be a [tail, head] pair of names")
            edges.append((e[0], e[1]))
        weights = data.get("weights", {})
        if weights is None:  # the constructor would read null as no weights
            raise ValueError("weights must map vertex names to integers, got None")
        try:
            g = cls(vertices, edges, weights)
        except TypeError as exc:
            raise ValueError(str(exc)) from None
        missing = [v for v in g.vertices if v not in weights]
        if missing:
            warnings.warn(
                f"no weight given for {', '.join(missing)}; defaulting to 1",
                stacklevel=2,
            )
        return g

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, WeightedOrientedGraph):
            return NotImplemented
        return (
            self._vertices == other._vertices
            and self._edges == other._edges
            and self._weights == other._weights
        )

    def __hash__(self) -> int:
        return hash((self._vertices, self._edges, tuple(sorted(self._weights.items()))))

    def __repr__(self) -> str:
        return (
            f"WeightedOrientedGraph({list(self._vertices)!r}, "
            f"{[list(e) for e in self._edges]!r}, {self._weights!r})"
        )


def _default_names(n: int, names: Sequence[str] | None) -> tuple[str, ...]:
    if names is None:
        return tuple(f"x{i}" for i in range(1, n + 1))
    names = tuple(names)
    if len(names) != n:
        raise ValueError(f"expected {n} vertex names, got {len(names)}")
    return names


def oriented_line(
    n: int, weights: Sequence[int], names: Sequence[str] | None = None
) -> WeightedOrientedGraph:
    """The path x1 -> x2 -> ... -> xn with the given weights."""
    if n < 1:
        raise ValueError("a line needs at least one vertex")
    if len(weights) != n:
        raise ValueError(f"expected {n} weights, got {len(weights)}")
    vs = _default_names(n, names)
    edges = [(vs[i], vs[i + 1]) for i in range(n - 1)]
    return WeightedOrientedGraph(vs, edges, dict(zip(vs, weights)))


def oriented_cycle(
    n: int, weights: Sequence[int], names: Sequence[str] | None = None
) -> WeightedOrientedGraph:
    """The cycle x1 -> x2 -> ... -> xn -> x1 with the given weights."""
    if n < 3:
        raise ValueError("an oriented cycle needs at least three vertices")
    if len(weights) != n:
        raise ValueError(f"expected {n} weights, got {len(weights)}")
    vs = _default_names(n, names)
    edges = [(vs[i], vs[(i + 1) % n]) for i in range(n)]
    return WeightedOrientedGraph(vs, edges, dict(zip(vs, weights)))


def _check_tree(tree: WeightedOrientedGraph, root: str) -> None:
    """Raise ValueError unless tree is a tree oriented away from root.

    Every vertex must be reached from root along edges, and there must be
    |V| - 1 edges: the edges of a walk reaching every vertex from root are
    then all of them, so every other vertex has exactly one parent.
    """
    tree._check_vertex(root)
    reached, stack = {root}, [root]
    while stack:
        for v in tree._out[stack.pop()] - reached:
            reached.add(v)
            stack.append(v)
    for v in tree.vertices:
        if v not in reached:
            raise ValueError(f"{v!r} is not reached from the root {root!r}")
    if len(tree.edges) != len(tree.vertices) - 1:
        raise ValueError("tree must have exactly |V|-1 edges")


def rooted_tree(
    parent: Mapping[str, str], root: str, weights: Mapping[str, int]
) -> WeightedOrientedGraph:
    """A tree oriented away from the root, given as child -> parent.

    Every edge points from parent to child, so the root is the unique
    source (when the tree has any edge at all).
    """
    parent = dict(parent)
    if root in parent:
        raise ValueError(f"root {root!r} must not have a parent")
    edges = [(par, child) for child, par in parent.items()]
    tree = WeightedOrientedGraph([root, *parent], edges, weights)
    _check_tree(tree, root)
    return tree


def forest_broom(
    w_y: int,
    w_z: int,
    tree: WeightedOrientedGraph,
    root: str,
    *,
    x_name: str = "x",
    y_name: str = "y",
) -> WeightedOrientedGraph:
    """Attach a handle x -> y -> root in front of a tree oriented away from root.

    The tree's own weights are kept, except that w_z replaces the root's.
    Non-sink vertices of the result must have weight >= 2 (sinks may keep
    weight 1).  x is a source, so its weight never enters the edge ideal;
    it is stored as 2.
    """
    _check_tree(tree, root)
    for fresh in (x_name, y_name):
        if fresh in tree._position:
            raise ValueError(f"handle vertex {fresh!r} collides with a tree vertex")

    wmap = tree.weights
    wmap[root] = w_z
    wmap[x_name] = 2
    wmap[y_name] = w_y

    vertices = (x_name, y_name) + tree.vertices
    edges = [(x_name, y_name), (y_name, root)] + list(tree.edges)
    broom = WeightedOrientedGraph(vertices, edges, wmap)

    sinks = broom.sinks()
    for v in broom.vertices:
        if v == x_name or v in sinks:
            continue
        if broom.weight(v) < 2:
            raise ValueError(
                f"non-sink vertex {v!r} has weight {broom.weight(v)}; "
                "the broom family needs weight >= 2 off the sinks"
            )
    return broom
