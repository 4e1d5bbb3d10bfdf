"""The public surface: the names the package exports and every parameter.

Each public function, and each public method or ``__init__`` of an
exported class, is listed with its parameter names, ``self`` and ``cls``
left out, read with ``inspect.signature``.  A change to the API therefore
shows up as one diff of this file, and the parameter count is the sum of
the tuple lengths below.
"""

from __future__ import annotations

import inspect

import oriented_ideals

ALL = [
    "CapExceededError",
    "CheckResult",
    "CoverPartition",
    "EqualityReport",
    "InvariantError",
    "IrreducibleComponent",
    "MonomialIdeal",
    "PowerComparison",
    "RegressionSummary",
    "WeightedOrientedGraph",
    "check_broom_equality",
    "check_cycle_equality",
    "check_full_cover_equality",
    "check_line_characterization",
    "check_line_cover_families",
    "check_line_cubic_witness",
    "compare_powers",
    "cover_partition",
    "decomposition_intersection",
    "edge_ideal",
    "enumerate_strong_covers",
    "forest_broom",
    "intersect_all",
    "irreducible_component",
    "irreducible_decomposition",
    "is_strong_cover",
    "is_vertex_cover",
    "line_drop",
    "line_equality_condition",
    "maximal_strong_covers",
    "minimal_vertex_covers",
    "oriented_cycle",
    "oriented_line",
    "q_sub_p",
    "random_graph",
    "random_regression",
    "rooted_tree",
    "symbolic_power",
    "symbolic_power_oracle",
    "__version__",
]

PARAMETERS = {
    "CheckResult.__init__": (
        "check",
        "instance",
        "hypotheses_ok",
        "prediction",
        "computed",
        "passed",
        "details",
    ),
    "CheckResult.to_json": (),
    "CoverPartition.__init__": ("table", "cover", "l1", "l2", "l3"),
    "CoverPartition.is_strong": (),
    "CoverPartition.to_json": (),
    "EqualityReport.__init__": ("graph", "s_max", "per_s"),
    "EqualityReport.to_json": (),
    "IrreducibleComponent.__init__": ("g", "cover", "parts"),
    "IrreducibleComponent.to_json": (),
    "MonomialIdeal.__init__": ("ambient", "generators"),
    "MonomialIdeal.contains": ("m",),
    "MonomialIdeal.contains_ideal": ("other",),
    "MonomialIdeal.first_generator_outside": ("other",),
    "MonomialIdeal.generator_strings": (),
    "MonomialIdeal.intersect": ("other",),
    "MonomialIdeal.saturate": ("variables",),
    "MonomialIdeal.unit": ("ambient",),
    "MonomialIdeal.with_ambient": ("ambient",),
    "MonomialIdeal.zero": ("ambient",),
    "PowerComparison.__init__": (
        "s",
        "equal",
        "witness",
        "ordinary_generators",
        "symbolic_generators",
    ),
    "PowerComparison.to_json": (),
    "RegressionSummary.__init__": ("seed", "trials", "failures"),
    "RegressionSummary.to_json": (),
    "WeightedOrientedGraph.__init__": ("vertices", "edges", "weights"),
    "WeightedOrientedGraph.from_json": ("data",),
    "WeightedOrientedGraph.induced_subgraph": ("keep",),
    "WeightedOrientedGraph.is_isolated": ("v",),
    "WeightedOrientedGraph.neighbors": ("v",),
    "WeightedOrientedGraph.position": ("v",),
    "WeightedOrientedGraph.sinks": (),
    "WeightedOrientedGraph.sort_vertices": ("vs",),
    "WeightedOrientedGraph.sources": (),
    "WeightedOrientedGraph.to_json": (),
    "WeightedOrientedGraph.weight": ("v",),
    "check_broom_equality": ("tree", "root", "w_y", "w_z", "s_max"),
    "check_cycle_equality": ("weights", "s_max"),
    "check_full_cover_equality": ("g", "s_max"),
    "check_line_characterization": ("weights",),
    "check_line_cover_families": ("weights",),
    "check_line_cubic_witness": ("weights", "i"),
    "compare_powers": ("g", "s_max"),
    "cover_partition": ("g", "cover"),
    "decomposition_intersection": ("components", "g"),
    "edge_ideal": ("g",),
    "enumerate_strong_covers": ("g",),
    "forest_broom": ("w_y", "w_z", "tree", "root"),
    "intersect_all": ("ideals", "ambient"),
    "irreducible_component": ("g", "cover"),
    "irreducible_decomposition": ("g",),
    "is_strong_cover": ("g", "cover"),
    "is_vertex_cover": ("g", "cover"),
    "line_drop": ("weights",),
    "line_equality_condition": ("weights",),
    "maximal_strong_covers": ("g",),
    "minimal_vertex_covers": ("g",),
    "oriented_cycle": ("n", "weights"),
    "oriented_line": ("n", "weights"),
    "q_sub_p": ("g", "prime"),
    "random_graph": ("rng", "n_min", "n_max", "edge_prob", "weight_max"),
    "random_regression": ("seed", "trials", "s_max"),
    "rooted_tree": ("parent", "root", "weights"),
    "symbolic_power": ("g", "s"),
    "symbolic_power_oracle": ("g", "s"),
}


def public_parameters() -> dict[str, tuple[str, ...]]:
    """The parameter names of every public function and method in __all__."""
    found = {}
    for name in oriented_ideals.__all__:
        obj = getattr(oriented_ideals, name)
        if inspect.isclass(obj):
            if issubclass(obj, BaseException):
                continue
            for attr, raw in vars(obj).items():
                if attr.startswith("_") and attr != "__init__":
                    continue
                if isinstance(raw, (classmethod, staticmethod)):
                    raw = raw.__func__
                if inspect.isfunction(raw):
                    params = inspect.signature(raw).parameters
                    found[f"{name}.{attr}"] = tuple(p for p in params if p not in ("self", "cls"))
        elif inspect.isfunction(obj):
            found[name] = tuple(inspect.signature(obj).parameters)
    return found


def test_exported_names():
    assert oriented_ideals.__all__ == ALL


def test_public_parameters():
    assert public_parameters() == PARAMETERS

