"""End-to-end command-line behavior, including exit codes."""

from __future__ import annotations

import json

import pytest

from oriented_ideals import InvariantError, cli
from oriented_ideals.cli import main
from oriented_ideals.covers import CAP_ENV_VAR

from conftest import RIG_SEED, RIG_TRIALS, rig_failures


LINE5 = {
    "vertices": ["x1", "x2", "x3", "x4", "x5"],
    "edges": [["x1", "x2"], ["x2", "x3"], ["x3", "x4"], ["x4", "x5"]],
    "weights": {"x1": 1, "x2": 2, "x3": 1, "x4": 1, "x5": 1},
}

LINE3 = {
    "vertices": ["x1", "x2", "x3"],
    "edges": [["x1", "x2"], ["x2", "x3"]],
    "weights": {"x1": 1, "x2": 2, "x3": 2},
}


@pytest.fixture
def graph_file(tmp_path):
    def write(data, name="graph.json"):
        path = tmp_path / name
        path.write_text(json.dumps(data), encoding="utf-8")
        return str(path)

    return write


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_covers_text(graph_file, capsys):
    code, out, _ = run(capsys, "covers", graph_file(LINE3))
    assert code == 0
    assert "strong covers (3):" in out
    assert "{x2}" in out
    assert "{x1, x3}" in out


def test_covers_json_partition(graph_file, capsys):
    code, out, _ = run(
        capsys, "covers", graph_file(LINE3), "--json", "--partition"
    )
    assert code == 0
    payload = json.loads(out)
    assert payload[0] == {"cover": ["x2"], "L1": ["x2"], "L2": [], "L3": []}


def test_covers_minimal_and_maximal(graph_file, capsys):
    code, out, _ = run(capsys, "covers", graph_file(LINE5), "--minimal", "--json")
    assert code == 0
    assert json.loads(out) == [
        ["x2", "x4"],
        ["x1", "x3", "x4"],
        ["x1", "x3", "x5"],
        ["x2", "x3", "x5"],
    ]
    code, out, _ = run(capsys, "covers", graph_file(LINE5), "--maximal", "--json")
    assert code == 0
    assert len(json.loads(out)) == 4


def test_decompose_json(graph_file, capsys):
    code, out, _ = run(capsys, "decompose", graph_file(LINE3), "--json")
    assert code == 0
    payload = json.loads(out)
    assert payload["edge_ideal"] == ["x1*x2^2", "x2*x3^2"]
    assert payload["intersection_equals_edge_ideal"] is True
    assert [c["cover"] for c in payload["components"]] == [
        ["x2"], ["x1", "x3"], ["x2", "x3"]
    ]


def test_decompose_text(graph_file, capsys):
    code, out, _ = run(capsys, "decompose", graph_file(LINE3))
    assert code == 0
    assert out.splitlines() == [
        "edge ideal: [x1*x2^2, x2*x3^2]",
        "  cover {x2}: [x2]",
        "  cover {x1, x3}: [x1, x3^2]",
        "  cover {x2, x3}: [x2^2, x3^2]",
        "intersection equals edge ideal: true",
    ]
    edgeless = {"vertices": ["a"], "edges": [], "weights": {"a": 1}}
    code, out, _ = run(capsys, "decompose", graph_file(edgeless))
    assert code == 0
    assert out.splitlines() == [
        "edge ideal: []",
        "no components (zero ideal)",
        "intersection equals edge ideal: true",
    ]


def test_power_ordinary(graph_file, capsys):
    code, out, _ = run(
        capsys, "power", graph_file(LINE3), "--ordinary", "--s", "2", "--json"
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["s"] == 2
    assert payload["ordinary"] == [
        "x1^2*x2^4", "x1*x2^3*x3^2", "x2^2*x3^4"
    ]


def test_power_symbolic_with_oracle(graph_file, capsys):
    code, out, _ = run(
        capsys, "power", graph_file(LINE5), "--symbolic", "--s", "3",
        "--oracle", "--json",
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["oracle_agrees"] is True
    assert "x1*x2^2*x3^2*x4" in payload["symbolic"]


def test_power_compare_table(graph_file, capsys):
    code, out, _ = run(capsys, "power", graph_file(LINE5), "--s", "3")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0].split() == ["s", "|I^s|", "|I^(s)|", "equal", "witness"]
    assert lines[1].split() == ["1", "4", "4", "true", "-"]
    assert lines[3].split() == ["3", "20", "19", "false", "x1*x2^2*x3^2*x4"]


def test_power_compare_json(graph_file, capsys):
    code, out, _ = run(capsys, "power", graph_file(LINE5), "--json", "--oracle")
    assert code == 0
    payload = json.loads(out)
    assert payload["first_inequality"] == 3
    assert payload["oracle_agrees"] is True


def test_power_rejects_ordinary_oracle(graph_file, capsys):
    code, _, err = run(
        capsys, "power", graph_file(LINE3), "--ordinary", "--oracle"
    )
    assert code == 2
    assert "--oracle" in err


def test_power_rejects_bad_exponent(graph_file, capsys):
    code, _, err = run(capsys, "power", graph_file(LINE3), "--s", "0")
    assert code == 2
    assert "--s" in err


def test_missing_file_is_input_error(capsys):
    code, _, err = run(capsys, "covers", "/no/such/file.json")
    assert code == 2
    assert "error:" in err


def test_malformed_json_is_input_error(graph_file, capsys, tmp_path):
    path = tmp_path / "broken.json"
    path.write_text("{not json", encoding="utf-8")
    code, _, err = run(capsys, "covers", str(path))
    assert code == 2
    assert "error:" in err


@pytest.mark.parametrize("command", [["covers"], ["decompose"], ["power", "--s", "2"]])
def test_deeply_nested_json_is_input_error(capsys, tmp_path, command):
    # deep enough to exhaust the JSON decoder's recursion limit
    path = tmp_path / "deep.json"
    path.write_text("[" * 100_000 + "]" * 100_000, encoding="utf-8")
    code, out, err = run(capsys, command[0], str(path), *command[1:])
    assert code == 2
    assert out == ""
    assert err.count("error:") == 1
    assert "Traceback" not in err


def test_invalid_graph_is_input_error(graph_file, capsys):
    bad = {"vertices": ["a"], "edges": [["a", "a"]], "weights": {"a": 1}}
    code, _, err = run(capsys, "covers", graph_file(bad))
    assert code == 2
    assert "error:" in err


def test_cap_exceeded_exit_code(graph_file, capsys, monkeypatch):
    monkeypatch.setenv(CAP_ENV_VAR, "3")
    code, _, err = run(capsys, "covers", graph_file(LINE5))
    assert code == 3
    assert CAP_ENV_VAR in err


def test_invariant_error_is_verification_failure(graph_file, capsys, monkeypatch):
    def broken(g, s):
        raise InvariantError("I^2 is not inside the symbolic power")

    monkeypatch.setattr(cli, "compare_powers", broken)
    code, out, err = run(capsys, "power", graph_file(LINE3), "--s", "2")
    assert code == 1
    assert out == ""
    assert err == "error: I^2 is not inside the symbolic power\n"


def test_negative_cap_is_input_error(graph_file, capsys, monkeypatch):
    monkeypatch.setenv(CAP_ENV_VAR, "-1")
    code, _, err = run(capsys, "covers", graph_file(LINE5))
    assert code == 2
    assert CAP_ENV_VAR in err


BAD_TYPES = {
    "float weight": {**LINE3, "weights": {"x1": 1, "x2": 2.0, "x3": 2}},
    "bool weight": {**LINE3, "weights": {"x1": 1, "x2": True, "x3": 2}},
    "integer vertex names": {"vertices": [1, 2], "edges": [[1, 2]], "weights": {}},
    "list vertex name": {"vertices": [["a"]], "edges": [], "weights": {}},
    "integer edge endpoint": {**LINE3, "edges": [["x1", 2]]},
    "edge not a pair": {**LINE3, "edges": ["x1"]},
    "weights not an object": {**LINE3, "weights": [1, 2, 2]},
    # falsy values are no object either, not a missing weights key
    "weights an empty array": {**LINE3, "weights": []},
    "weights zero": {**LINE3, "weights": 0},
    "weights false": {**LINE3, "weights": False},
    "weights an empty string": {**LINE3, "weights": ""},
    "weights null": {**LINE3, "weights": None},
    "graph not an object": [1, 2, 3],
    # list("abc") and the keys of an object would read as three vertex names
    "vertices a string": {"vertices": "abc", "edges": [["a", "b"]], "weights": {}},
    "vertices an object": {
        "vertices": {"a": 1, "b": 2, "c": 3}, "edges": [["a", "b"]], "weights": {}
    },
}


@pytest.mark.parametrize("command", [["covers"], ["decompose"], ["power", "--s", "2"]])
@pytest.mark.parametrize("bad", sorted(BAD_TYPES))
def test_badly_typed_graph_is_input_error(graph_file, capsys, command, bad):
    code, _, err = run(capsys, command[0], graph_file(BAD_TYPES[bad]), *command[1:])
    assert code == 2
    assert "error:" in err
    assert "Traceback" not in err


def test_verify_needs_a_mode(capsys):
    code, _, err = run(capsys, "verify")
    assert code == 2
    assert "--family" in err


def test_verify_line_family(graph_file, capsys):
    code, out, _ = run(
        capsys, "verify", "--family", "line", "--weights", "1,2,1,1,1"
    )
    assert code == 0
    assert "PASS" in out
    assert "line_characterization" in out
    assert "line_cubic_witness" in out


def test_verify_line_family_adds_cover_families_on_a_single_break(capsys):
    code, out, _ = run(
        capsys, "verify", "--family", "line", "--weights", "1,1,1,1,2,2,1", "--json"
    )
    assert code == 0
    checks = json.loads(out)["checks"]
    # the weight drop at x6 -> x7 reaches the endpoint, so no cubic witness
    assert [(r["check"], r["status"]) for r in checks] == [
        ("line_characterization", "pass"),
        ("line_cover_families", "pass"),
    ]


def test_verify_line_family_needs_weights(capsys):
    code, _, err = run(capsys, "verify", "--family", "line")
    assert code == 2
    assert "--weights" in err


def test_verify_all_families(capsys):
    code, out, _ = run(capsys, "verify", "--family", "all", "--json")
    assert code == 0
    payload = json.loads(out)
    statuses = {r["check"]: r["status"] for r in payload["checks"]}
    assert statuses["line_cover_families"] == "pass"
    assert statuses["broom_equality"] == "pass"
    assert all(r["status"] in ("pass", "skip") for r in payload["checks"])


def test_verify_random_regression(capsys):
    code, out, _ = run(
        capsys, "verify", "--random", "--seed", "5", "--trials", "8"
    )
    assert code == 0
    assert "random regression seed=5 trials=8 failures=0" in out


def test_verify_random_reports_failures(capsys, routes_differ_from_2):
    code, out, _ = run(
        capsys, "verify", "--random", "--seed", str(RIG_SEED),
        "--trials", str(RIG_TRIALS),
    )
    assert code == 1
    failures = rig_failures(routes_differ_from_2, "symbolic routes differ", 2)
    lines = out.splitlines()
    assert lines[0] == (
        f"FAIL: random regression seed={RIG_SEED} trials={RIG_TRIALS} "
        f"failures={len(failures)}"
    )
    assert lines[1:] == [f"      {json.dumps(f)}" for f in failures]

    code, out, _ = run(
        capsys, "verify", "--random", "--seed", str(RIG_SEED),
        "--trials", str(RIG_TRIALS), "--json",
    )
    assert code == 1
    regression = json.loads(out)["regression"]
    assert regression["pass"] is False
    assert regression["failures"] == failures


def test_verify_reports_failures(capsys, monkeypatch):
    import oriented_ideals.cli as cli
    from oriented_ideals import CheckResult

    broken = CheckResult(
        check="cycle_equality", instance="rigged", hypotheses_ok=True,
        prediction="equal", computed="unequal", passed=False,
    )
    monkeypatch.setattr(cli, "check_cycle_equality", lambda *a, **k: broken)
    code, out, _ = run(capsys, "verify", "--family", "cycle")
    assert code == 1
    assert "FAIL" in out


def test_oracle_disagreement_exits_one(graph_file, capsys, monkeypatch):
    import oriented_ideals.cli as cli
    from oriented_ideals import MonomialIdeal

    ambient = tuple(LINE3["vertices"])
    rigged = MonomialIdeal(ambient, ["x1^9"])
    monkeypatch.setattr(cli, "symbolic_power_oracle", lambda g, s: rigged)
    code, out, _ = run(
        capsys, "power", graph_file(LINE3), "--symbolic", "--s", "2", "--oracle"
    )
    assert code == 1
    assert "oracle agrees: false" in out


def test_compare_oracle_disagreement_exits_one(graph_file, capsys, monkeypatch):
    import oriented_ideals.cli as cli
    from oriented_ideals import MonomialIdeal

    ambient = tuple(LINE3["vertices"])
    rigged = MonomialIdeal(ambient, ["x1^9"])
    monkeypatch.setattr(cli, "symbolic_power_oracle", lambda g, s: rigged)
    code, out, _ = run(
        capsys, "power", graph_file(LINE3), "--s", "2", "--oracle", "--json"
    )
    assert code == 1
    payload = json.loads(out)
    assert payload["oracle_agrees"] is False
    assert payload["oracle_disagreements"]["1"] == {
        "symbolic": ["x1*x2^2", "x2*x3^2"],
        "oracle": ["x1^9"],
    }
    assert sorted(payload["oracle_disagreements"]) == ["1", "2"]

    code, out, _ = run(capsys, "power", graph_file(LINE3), "--s", "2", "--oracle")
    assert code == 1
    lines = out.splitlines()
    assert "oracle agrees: false" in lines
    assert "  s=1 symbolic: ['x1*x2^2', 'x2*x3^2']" in lines
    assert "  s=1 oracle:   ['x1^9']" in lines
    assert "  s=2 oracle:   ['x1^9']" in lines


@pytest.mark.parametrize(
    "argv",
    [
        ["--random", "--trials", "-1", "--json"],
        ["--random", "--trials", "0", "--json"],
        ["--random", "--s-max", "0", "--json"],
        ["--family", "line", "--weights", "1,2,1", "--s-max", "-1"],
        ["--family", "cycle", "--s-max", "0"],
        ["--family", "all", "--s-max", "0"],
    ],
)
def test_verify_empty_sweep_is_input_error(capsys, argv):
    # a sweep over no trials or no exponents would pass without checking
    code, out, err = run(capsys, "verify", *argv)
    assert code == 2
    assert out == ""
    assert "must be" in err
    assert "Traceback" not in err


@pytest.mark.parametrize(
    "argv",
    [
        ["--family", "cycle", "--weights", "2,2,0"],
        ["--family", "cycle", "--weights", "2,-1,2", "--json"],
        ["--family", "forest", "--w-y", "0"],
        ["--family", "forest", "--w-y", "-3", "--json"],
        ["--family", "all", "--w-y", "0"],
    ],
)
def test_verify_weight_below_one_is_input_error(capsys, argv):
    # a weight below 1 is bad input, not an instance outside a hypothesis
    code, out, err = run(capsys, "verify", *argv)
    assert code == 2
    assert out == ""
    assert "must be an integer >= 1" in err
    assert "Traceback" not in err
