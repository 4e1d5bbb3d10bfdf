"""Structure checks: each one exercised on instances where it applies,
instances where it skips, and a randomized regression sweep."""

from __future__ import annotations

import itertools

import pytest

import oriented_ideals.theorems as theorems
from oriented_ideals import (
    CheckResult,
    MonomialIdeal,
    RegressionSummary,
    check_broom_equality,
    check_cycle_equality,
    check_full_cover_equality,
    check_line_characterization,
    check_line_cover_families,
    check_line_cubic_witness,
    line_equality_condition,
    oriented_cycle,
    oriented_line,
    random_regression,
    rooted_tree,
)

from conftest import (
    RIG_SEED,
    RIG_TRIALS,
    reference_cubic_witness,
    reference_random_regression,
    rig_failures,
    rig_graphs,
    rig_powers,
)


def test_check_result_states():
    r = CheckResult(
        check="c", instance="i", hypotheses_ok=True,
        prediction="p", computed="q", passed=True,
    )
    assert r.status == "pass"
    assert bool(r)
    failed = CheckResult(
        check="c", instance="i", hypotheses_ok=True,
        prediction="p", computed="q", passed=False,
    )
    assert failed.status == "fail"
    skipped = CheckResult(
        check="c", instance="i", hypotheses_ok=False,
        prediction="", computed="n", passed=False,
    )
    assert skipped.status == "skip"
    data = r.to_json()
    assert data["pass"] is True
    assert data["status"] == "pass"


def test_full_cover_check_on_heavy_line():
    # x1 is a source, so the full set must fail to be strong; the
    # equivalence still holds and the power clause is vacuous
    r = check_full_cover_equality(oriented_line(3, (2, 2, 2)))
    assert r.status == "pass"
    assert r.details["full_cover_strong"] is False
    assert r.details["sources"] == ["x1"]


def test_full_cover_check_on_heavy_cycle():
    r = check_full_cover_equality(oriented_cycle(3, (2, 2, 2)))
    assert r.status == "pass"
    assert r.details["full_cover_strong"] is True
    assert r.details["comparison"]["all_equal"] is True


def test_full_cover_check_skips():
    assert check_full_cover_equality(oriented_line(3, (1, 2, 2))).status == "skip"


def test_cycle_check():
    assert check_cycle_equality((2, 2, 2)).status == "pass"
    assert check_cycle_equality((3, 2, 2, 2)).status == "pass"
    assert check_cycle_equality((2, 1, 2)).status == "skip"
    assert check_cycle_equality((2, 2)).status == "skip"


def broom_trees():
    lone = rooted_tree({}, "z", {"z": 2})
    star = rooted_tree({"t1": "z", "t2": "z"}, "z", {"z": 2, "t1": 1, "t2": 1})
    path = rooted_tree({"t1": "z", "t2": "t1"}, "z", {"z": 2, "t1": 2, "t2": 2})
    return [("lone", lone), ("star", star), ("path", path)]


@pytest.mark.parametrize("label,tree", broom_trees())
def test_broom_check_passes(label, tree):
    r = check_broom_equality(tree, "z", 2, 2)
    assert r.status == "pass", r.computed
    assert r.details["comparison"]["all_equal"] is True
    assert r.details["stray_covers"] == []


def test_broom_family_ideals_frozen():
    lone = rooted_tree({}, "z", {"z": 2})
    r = check_broom_equality(lone, "z", 2, 2)
    assert list(r.details["family_1_ideal"]) == ["x", "z^2"]
    assert list(r.details["family_2_ideal"]) == ["y^2", "y*z^2"]

    path = rooted_tree({"t1": "z", "t2": "t1"}, "z", {"z": 2, "t1": 2, "t2": 2})
    r = check_broom_equality(path, "z", 2, 2)
    assert list(r.details["family_1_ideal"]) == ["x", "z^2", "z*t1^2", "t1*t2^2"]
    assert list(r.details["family_2_ideal"]) == ["y^2", "y*z^2", "z*t1^2", "t1*t2^2"]


def test_broom_check_skips_on_bad_weights():
    path = rooted_tree({"t1": "z", "t2": "t1"}, "z", {"z": 2, "t1": 1, "t2": 1})
    # t1 is interior with weight 1, so the broom constructor refuses
    assert check_broom_equality(path, "z", 2, 2).status == "skip"


def test_cubic_witness_line5():
    r = check_line_cubic_witness((1, 2, 1, 1, 1), 2)
    assert r.status == "pass"
    assert r.details["witness"] == "x1*x2^2*x3^2*x4"


def test_cubic_witness_skips():
    assert check_line_cubic_witness((1, 2, 1, 1, 1), 1).status == "skip"
    assert check_line_cubic_witness((1, 2, 1, 1, 1), 4).status == "skip"
    assert check_line_cubic_witness((1, 1, 1, 1, 1), 2).status == "skip"
    assert check_line_cubic_witness((1, 2, 2, 1, 1), 2).status == "skip"


def test_line_equality_condition_cases():
    assert line_equality_condition((1, 1, 1, 1))
    assert line_equality_condition((1, 2, 2, 1))  # endpoint weight is free
    assert line_equality_condition((3, 1, 1))  # first vertex is not interior
    assert line_equality_condition((1, 2, 2, 2, 5))
    assert not line_equality_condition((1, 2, 1, 1, 1))
    assert not line_equality_condition((1, 2, 1, 2, 1))
    assert not line_equality_condition((1, 1, 2, 1, 2, 2, 1))
    assert line_equality_condition((1,))
    assert line_equality_condition((4, 7))  # no interior at all


@pytest.mark.parametrize(
    "weights", list(itertools.product((1, 2), repeat=4))
)
def test_line_characterization_exhaustive_n4(weights):
    r = check_line_characterization(weights)
    assert r.status == "pass", r.computed


def test_line_cover_families_frozen_case():
    r = check_line_cover_families((1, 1, 1, 1, 2, 2, 1))
    assert r.status == "pass", r.computed
    assert r.details["k"] == 5
    assert r.details["unclassified"] == []
    assert r.details["ideal_mismatches"] == []
    assert r.details["families"] == {
        "alpha": [["x1", "x3", "x4", "x6", "x7"], ["x2", "x4", "x6", "x7"]],
        "beta": [["x1", "x3", "x5", "x6", "x7"], ["x2", "x3", "x5", "x6", "x7"]],
        "gamma": [["x2", "x4", "x5", "x7"]],
    }
    total = sum(len(covers) for covers in r.details["families"].values())
    assert total == len(r.details["maximal_covers"]) == 5


def test_line_cover_families_skips():
    # two separate weight breaks
    assert check_line_cover_families((1, 2, 1, 2, 1, 1, 1)).status == "skip"
    # break too close to the left end
    assert check_line_cover_families((1, 2, 1, 1, 1)).status == "skip"
    # no break at all
    assert check_line_cover_families((1, 1, 1, 1, 1, 1, 1)).status == "skip"


def test_line_cover_families_more_instances():
    for weights in [
        (1, 1, 1, 1, 2, 2, 2, 1),
        (1, 1, 1, 1, 2, 2, 2),
        (1, 1, 1, 1, 1, 2, 1),
    ]:
        r = check_line_cover_families(weights)
        assert r.status == "pass", (weights, r.computed)


def test_random_regression_passes():
    summary = random_regression(42, 25, n_max=5)
    assert summary.passed
    assert bool(summary)
    assert summary.trials == 25
    assert summary.failures == []
    data = summary.to_json()
    assert data["pass"] is True
    assert data["seed"] == 42


@pytest.mark.parametrize("seed", [3, 11, 2026])
@pytest.mark.parametrize("n_max", [5, 7])
def test_random_regression_matches_recomputation(seed, n_max):
    # each power built once per graph gives the summary that recomputing
    # both routes from scratch at every s gives
    assert random_regression(seed, 25, n_max=n_max).to_json() == (
        reference_random_regression(seed, 25, n_max=n_max).to_json()
    )


def test_random_regression_matches_recomputation_at_s4():
    assert random_regression(5, 6, s_max=4, n_max=5).to_json() == (
        reference_random_regression(5, 6, s_max=4, n_max=5).to_json()
    )


@pytest.mark.parametrize("weights", list(itertools.product((1, 2), repeat=5)))
def test_cubic_witness_matches_recomputation(weights):
    for i in range(1, 5):
        assert check_line_cubic_witness(weights, i).to_json() == (
            reference_cubic_witness(weights, i).to_json()
        )


def test_regression_records_routes_that_differ(routes_differ_from_2):
    summary = random_regression(RIG_SEED, RIG_TRIALS)
    # one record at s = 2 per graph, and the sweep of that graph stops there
    assert summary.failures == rig_failures(
        routes_differ_from_2, "symbolic routes differ", 2
    )
    assert not summary.passed
    reference = reference_random_regression(RIG_SEED, RIG_TRIALS)
    assert summary.to_json() == reference.to_json()


def test_regression_records_broken_containment(monkeypatch):
    graphs = rig_graphs()
    powers = rig_powers(graphs)
    real = MonomialIdeal.contains_ideal
    monkeypatch.setattr(
        MonomialIdeal,
        "contains_ideal",
        lambda self, other: other not in powers and real(self, other),
    )
    summary = random_regression(RIG_SEED, RIG_TRIALS)
    assert summary.failures == rig_failures(
        graphs, "ordinary power not inside symbolic power", 2
    )
    reference = reference_random_regression(RIG_SEED, RIG_TRIALS)
    assert summary.to_json() == reference.to_json()


def test_regression_records_broken_decomposition(monkeypatch):
    # without its last component the intersection is larger than the edge
    # ideal, or the zero ideal when that was the only one
    real = theorems.irreducible_decomposition
    monkeypatch.setattr(theorems, "irreducible_decomposition", lambda g: real(g)[:-1])
    summary = random_regression(RIG_SEED, RIG_TRIALS)
    # the sweep skips the powers of a graph that fails the identity
    assert summary.failures == rig_failures(rig_graphs(), "decomposition identity")


def test_empty_regression_passes():
    assert RegressionSummary(seed=7, trials=0, failures=[]).passed


# True is an int, but not the weight 1
@pytest.mark.parametrize("bad", [0, -3, True])
def test_weights_below_one_are_rejected(bad):
    lone = rooted_tree({}, "z", {"z": 2})
    checks = [
        lambda: check_cycle_equality((2, 2, bad)),
        # rejected before the vertex count is tested
        lambda: check_cycle_equality((bad, 2)),
        lambda: check_broom_equality(lone, "z", bad, 2),
        lambda: check_broom_equality(lone, "z", 2, bad),
    ]
    for check in checks:
        with pytest.raises(ValueError, match="must be an integer >= 1"):
            check()
    # a weight of 1 where 2 is needed is outside the statement, not an error
    assert check_cycle_equality((2, 1, 2)).status == "skip"
    assert check_broom_equality(lone, "z", 1, 2).status == "skip"


# True is an int, but not the count 1
@pytest.mark.parametrize("bad", [0, -1, 2.0, True])
def test_sweep_bounds_below_one_are_rejected(bad):
    lone = rooted_tree({}, "z", {"z": 2})
    checks = [
        lambda: check_full_cover_equality(oriented_cycle(3, (2, 2, 2)), bad),
        # the skipping instances are rejected too, before any hypothesis test
        lambda: check_full_cover_equality(oriented_line(3, (1, 2, 2)), s_max=bad),
        lambda: check_cycle_equality((2, 2, 2), bad),
        lambda: check_cycle_equality((2, 1, 2), bad),
        lambda: check_broom_equality(lone, "z", 2, 2, bad),
        lambda: random_regression(1, 3, s_max=bad),
        lambda: random_regression(1, bad),
    ]
    for check in checks:
        with pytest.raises(ValueError, match="must be an integer >= 1"):
            check()
