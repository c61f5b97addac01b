from __future__ import annotations

import io
import json
import os
import subprocess
import sys
import textwrap
import time
from dataclasses import replace
from fractions import Fraction
from pathlib import Path

import pytest

from ptesolver import (
    ParseError,
    SolverState,
    build_game,
    export_dot,
    parse_exact,
    parse_game,
    parse_setup,
    serialize_game,
    serialize_setup,
    solve,
    trace_to_jsonable,
)
from ptesolver.cli import run
from ptesolver.oracle import SEARCH_LIMIT

from conftest import FIXTURES, GeneratorParams, binary_tree_game, random_game

PD_PATH = str(FIXTURES / "prisoners_dilemma.json")
WITNESS_PATH = str(FIXTURES / "empty_pte_witness.json")
SETUP_PATH = str(FIXTURES / "spacetime_example.json")
ROOT = FIXTURES.parent.parent


class TestGameDocuments:
    def test_pd_round_trip(self, pd_game):
        assert parse_game(serialize_game(pd_game)) == pd_game

    def test_fixture_file_matches_embedding(self, pd_game):
        with open(PD_PATH) as handle:
            assert parse_game(handle.read()) == pd_game

    def test_round_trip_random_games(self):
        for seed in range(30):
            for shape in ("normal_form", "general_imperfect", "spacetime"):
                game = random_game(GeneratorParams(seed=seed, shape=shape))
                assert parse_game(serialize_game(game)) == game

    def test_serialization_is_stable(self, pd_game):
        text = serialize_game(pd_game)
        assert serialize_game(parse_game(text)) == text

    def test_empty_document(self):
        with pytest.raises(ParseError):
            parse_game("")

    def test_duplicate_node_id(self, pd_game):
        doc = json.loads(serialize_game(pd_game))
        doc["nodes"].append(dict(doc["nodes"][0]))
        with pytest.raises(ParseError, match="DUPLICATE_ID"):
            parse_game(json.dumps(doc))

    def test_unknown_keys_rejected(self, pd_game):
        doc = json.loads(serialize_game(pd_game))
        doc["chance_nodes"] = []
        with pytest.raises(ParseError, match="unknown keys"):
            parse_game(json.dumps(doc))
        doc.pop("chance_nodes")
        doc["nodes"][0]["color"] = "red"
        with pytest.raises(ParseError, match=r"nodes\[0\]"):
            parse_game(json.dumps(doc))

    def test_missing_keys_rejected(self, pd_game):
        doc = json.loads(serialize_game(pd_game))
        doc.pop("root")
        with pytest.raises(ParseError, match="missing keys"):
            parse_game(json.dumps(doc))

    def test_float_payoffs_rejected(self, pd_game):
        doc = json.loads(serialize_game(pd_game))
        doc["outcomes"][0]["payoffs"]["Row"] = 0.5
        with pytest.raises(ParseError, match="floating-point"):
            parse_game(json.dumps(doc))

    def test_decimal_and_fraction_strings(self, pd_game):
        doc = json.loads(serialize_game(pd_game))
        doc["outcomes"][0]["payoffs"]["Row"] = "1.5"
        doc["outcomes"][1]["payoffs"]["Row"] = "1/3"
        game = parse_game(json.dumps(doc))
        assert game.utility("Row", doc["outcomes"][0]["id"]) == Fraction(3, 2)
        assert game.utility("Row", doc["outcomes"][1]["id"]) == Fraction(1, 3)
        again = parse_game(serialize_game(game))
        assert again == game


class TestSetupDocuments:
    def test_fixture_round_trip(self, hexa_setup):
        text = serialize_setup(hexa_setup)
        assert parse_setup(text) == hexa_setup
        assert serialize_setup(parse_setup(text)) == text

    def test_unknown_key_rejected(self, hexa_setup):
        doc = json.loads(serialize_setup(hexa_setup))
        doc["metric"] = "flat"
        with pytest.raises(ParseError, match="unknown keys"):
            parse_setup(json.dumps(doc))

    def test_bad_dimension(self, hexa_setup):
        doc = json.loads(serialize_setup(hexa_setup))
        doc["dimension"] = "two"
        with pytest.raises(ParseError, match="dimension"):
            parse_setup(json.dumps(doc))

    def test_rational_coordinates(self, hexa_setup):
        doc = json.loads(serialize_setup(hexa_setup))
        doc["points"][0]["coords"] = ["-1.5", "0.25"]
        setup = parse_setup(json.dumps(doc))
        assert setup.points[0].coords == (Fraction(-3, 2), Fraction(1, 4))


class TestTraceJson:
    def test_shape_and_final_element(self, pd_game):
        trace = trace_to_jsonable(pd_game, solve(pd_game))
        assert len(trace) == 4
        first = trace[0]
        assert first["step"] == 0
        assert first["surviving"] == ["C,c", "C,d", "D,c", "D,d"]
        assert first["reached_infosets"] == ["Row", "Col"]
        assert {m["infoset"]: (m["value"], m["action"]) for m in first["maximins"]} == {
            "Row": (1, "D"),
            "Col": (1, "d"),
        }
        assert {p["outcome"] for p in first["preempted"]} == {"C,d", "D,c"}
        assert trace[-1] == {"status": "unique", "equilibrium": "C,c"}

    def test_a_step_preempting_a_non_survivor_is_refused(self, pd_game):
        # The trace lists each step's survivors as the last step's less what
        # it preempted, so a result whose steps do not follow is refused.
        result = solve(pd_game)
        first, second = result.steps[:2]
        gone = SolverState(1, second.surviving, second.reached, second.maximins, first.preempted, first.preempted_by)
        broken = replace(result, steps=(first, gone) + result.steps[2:])
        with pytest.raises(ValueError, match="step 1 preempts 'C,d', which does not survive it"):
            trace_to_jsonable(pd_game, broken)

    def test_json_serializable(self, hexa_setup):
        game = build_game(hexa_setup)
        text = json.dumps(trace_to_jsonable(game, solve(game)))
        assert "2,_,6,7,10,_" in text


class TestExportDot:
    def test_step_zero_nothing_gray_cells_black(self, pd_game):
        dot = export_dot(pd_game, solve(pd_game), 0)
        assert "fillcolor=gray," not in dot
        assert dot.count("fillcolor=black") == 3  # root + the two column nodes
        assert dot.count("subgraph cluster_") == 2
        assert "style=dashed;" in dot

    def test_final_step_grays_eliminated_and_highlights(self, pd_game):
        result = solve(pd_game)
        dot = export_dot(pd_game, result, len(result.steps) - 1)
        assert dot.count("fillcolor=gray,") == 3
        assert "peripheries=2" in dot

    def test_single_outcome_game_has_no_gray(self):
        game = random_game(GeneratorParams(seed=3, shape="normal_form", max_outcomes=1))
        assert len(game.outcomes) == 1
        dot = export_dot(game, solve(game), 0)
        assert "fillcolor=gray," not in dot

    def test_byte_identical_across_runs(self, hexa_setup):
        game = build_game(hexa_setup)
        result = solve(game)
        assert export_dot(game, result, 2) == export_dot(game, result, 2)

    def test_step_out_of_range(self, pd_game):
        result = solve(pd_game)
        with pytest.raises(ValueError, match="outside trace range"):
            export_dot(pd_game, result, len(result.steps))


class TestCli:
    def test_validate_ok(self, capsys):
        assert run(["validate", PD_PATH]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["errors"] == []
        assert report["is_canonical"] is True

    def test_validate_bad_game(self, tmp_path, capsys):
        doc = json.loads(Path(PD_PATH).read_text())
        doc["root"] = "nowhere"
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(doc))
        assert run(["validate", str(bad)]) == 1
        report = json.loads(capsys.readouterr().out)
        assert any(e["code"] in ("UNKNOWN_ROOT", "FOREST") for e in report["errors"])

    def test_solve_unique_exit_zero(self, capsys):
        assert run(["solve", PD_PATH]) == 0
        trace = json.loads(capsys.readouterr().out)
        assert trace[-1] == {"status": "unique", "equilibrium": "C,c"}

    def test_solve_quiet_prints_one_line(self, capsys):
        assert run(["solve", "--quiet", PD_PATH]) == 0
        out = capsys.readouterr().out.strip().splitlines()
        assert len(out) == 1
        assert json.loads(out[0])["status"] == "unique"

    def test_solve_empty_exit_two(self, capsys):
        assert run(["solve", "--quiet", WITNESS_PATH]) == 2

    def test_solve_ties_exit_three(self, tmp_path, capsys):
        from ptesolver import embed_normal_form, serialize_game

        matrix = {(a, b): (1, 1) for a in ("x", "y") for b in ("u", "v")}
        game = embed_normal_form(matrix, ("A", "B"), (("x", "y"), ("u", "v")))
        path = tmp_path / "ties.json"
        path.write_text(serialize_game(game))
        assert run(["solve", "--quiet", str(path)]) == 3
        assert json.loads(capsys.readouterr().out)["status"] == "multiple_with_ties"

    def test_canonicalize_round_trips(self, capsys):
        assert run(["canonicalize", PD_PATH]) == 0
        out = capsys.readouterr().out
        assert parse_game(out) == parse_game(Path(PD_PATH).read_text())

    def test_spacetime_build_echoes_order_and_game(self, capsys):
        assert run(["spacetime-build", SETUP_PATH]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["total_order"] == ["a", "b", "c", "d", "e", "f"]
        game = parse_game(json.dumps(doc["game"]))
        assert len(game.outcomes) == 14

    def test_spacetime_build_invalid_setup_lists_every_error(self, tmp_path, capsys):
        doc = json.loads(Path(SETUP_PATH).read_text())
        del doc["utilities"]["2,_,5,7,10,11"]
        doc["utilities"]["1,3,_,7,9,1"] = {"Peter": 1, "Mary": 1, "John": 1, "Helen": 1}
        path = tmp_path / "invalid_setup.json"
        path.write_text(json.dumps(doc))
        assert run(["spacetime-build", "--game-only", str(path)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.splitlines() == [
            "error UNKNOWN_HISTORY: payoffs given for inconsistent history '1,3,_,7,9,1'",
            "error MISSING_UTILITY: no payoff for agent 'Peter' at history '2,_,5,7,10,11'",
            "error MISSING_UTILITY: no payoff for agent 'Mary' at history '2,_,5,7,10,11'",
            "error MISSING_UTILITY: no payoff for agent 'John' at history '2,_,5,7,10,11'",
            "error MISSING_UTILITY: no payoff for agent 'Helen' at history '2,_,5,7,10,11'",
        ]

    def test_spacetime_build_game_only_pipes_into_solve(self, tmp_path, capsys, monkeypatch):
        assert run(["spacetime-build", "--game-only", SETUP_PATH]) == 0
        game_text = capsys.readouterr().out
        monkeypatch.setattr("sys.stdin", io.StringIO(game_text))
        assert run(["solve", "--quiet", "-"]) == 0
        assert json.loads(capsys.readouterr().out)["equilibrium"] == "2,_,6,7,10,_"

    def test_export_dot(self, capsys):
        assert run(["export-dot", PD_PATH, "--step", "0"]) == 0
        out = capsys.readouterr().out
        assert out.startswith("digraph game {")
        assert run(["export-dot", PD_PATH, "--step", "99"]) == 1

    def test_oracle_compare(self, capsys):
        assert run(["oracle-compare", PD_PATH]) == 0
        assert "agree" in capsys.readouterr().out

    def test_search_counterexample_finds_and_prints(self, capsys):
        assert run(["search-counterexample", "--max-rows", "2", "--max-cols", "2"]) == 0
        game = parse_game(capsys.readouterr().out)
        assert solve(game).status == "empty"

    def test_search_counterexample_none_found(self, capsys):
        assert run(["search-counterexample", "--max-rows", "1", "--max-cols", "1"]) == 2

    def test_search_counterexample_refuses_huge_bounds(self):
        # In a child with a capped address space and a timeout, so that a
        # missing guard, which would list 10**10 matrix sizes, fails fast.
        child = textwrap.dedent(
            """
            import resource, sys
            _, hard = resource.getrlimit(resource.RLIMIT_AS)
            cap = 1 << 30 if hard == resource.RLIM_INFINITY else min(hard, 1 << 30)
            resource.setrlimit(resource.RLIMIT_AS, (cap, cap))
            from ptesolver.cli import run
            sys.exit(run(["search-counterexample", "--max-rows", "100000", "--max-cols", "100000"]))
            """
        )
        env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
        done = subprocess.run([sys.executable, "-c", child], capture_output=True, text=True, env=env, timeout=60)
        assert (done.returncode, done.stdout) == (1, "")
        assert done.stderr == (
            f"error: search bounds of 100000 rows and 100000 columns are refused; at most {SEARCH_LIMIT} of each\n"
        )

    @pytest.mark.slow
    def test_depth_14_quiet_solve_fits_a_capped_address_space(self, tmp_path):
        # 16384 outcomes over about 8200 steps: a step keeps its change, so
        # memory follows the compiled masks; keeping every step's survivors
        # does not fit in 1 GiB here.
        path = tmp_path / "tree14.json"
        path.write_text(serialize_game(binary_tree_game(14, seed=1)))
        child = textwrap.dedent(
            """
            import resource, sys
            _, hard = resource.getrlimit(resource.RLIMIT_AS)
            cap = 512 << 20 if hard == resource.RLIM_INFINITY else min(hard, 512 << 20)
            resource.setrlimit(resource.RLIMIT_AS, (cap, cap))
            from ptesolver.cli import run
            sys.exit(run(["solve", "--quiet", sys.argv[1]]))
            """
        )
        env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
        start = time.monotonic()
        done = subprocess.run(
            [sys.executable, "-c", child, str(path)], capture_output=True, text=True, env=env, timeout=120
        )
        assert time.monotonic() - start < 60
        assert (done.returncode, done.stderr) == (0, "")
        assert json.loads(done.stdout) == {"status": "unique", "equilibrium": "LLLRLRRLRLLLLL"}

    def test_missing_file_exits_one(self, capsys):
        assert run(["solve", "no_such_file.json"]) == 1
        assert "error" in capsys.readouterr().err

    def test_parse_error_exits_one(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        assert run(["validate", str(bad)]) == 1
        assert "error" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["validate", "solve", "spacetime-build"])
    def test_deeply_nested_document_exits_one_without_traceback(self, command, tmp_path, capsys):
        deep = tmp_path / "deep.json"
        deep.write_text("[" * 200_000 + "]" * 200_000)
        assert run([command, str(deep)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        lines = captured.err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error:")


def _with_huge_number(path: str, value: str) -> tuple[dict, str]:
    """The fixture at ``path`` with its first payoff or coordinate replaced, and that JSON path."""
    with open(path) as handle:
        doc = json.load(handle)
    if "outcomes" in doc:
        doc["outcomes"][0]["payoffs"]["Row"] = value
        return doc, "$.outcomes[0].payoffs.Row"
    doc["points"][0]["coords"][0] = value
    return doc, "$.points[0].coords[0]"


class TestNumberBounds:
    @pytest.mark.parametrize("value", ["1e5000", "1e10000000", "-2.5e-99999999"])
    @pytest.mark.parametrize("fixture", [PD_PATH, SETUP_PATH])
    @pytest.mark.parametrize("command", ["validate", "solve", "spacetime-build"])
    def test_huge_exponent_is_refused_at_parse_time(self, command, fixture, value, tmp_path, capsys):
        doc, where = _with_huge_number(fixture, value)
        path = tmp_path / "doc.json"
        path.write_text(json.dumps(doc))
        start = time.monotonic()
        assert run([command, str(path)]) == 1
        assert time.monotonic() - start < 1.0
        captured = capsys.readouterr()
        assert captured.out == ""
        lines = captured.err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: ")
        if (command == "spacetime-build") == (fixture == SETUP_PATH):
            limit = sys.get_int_max_str_digits()
            assert lines[0] == (
                f"error: {where}: {'payoff' if fixture == PD_PATH else 'coordinate'}: {value!r} "
                f"has more than {limit} digits in its numerator or denominator"
            )

    @pytest.mark.parametrize("sign", ["", "-"])
    @pytest.mark.parametrize("fixture", [PD_PATH, SETUP_PATH])
    @pytest.mark.parametrize("command", ["validate", "solve", "spacetime-build"])
    def test_long_integer_literal_names_its_path_and_the_bound(self, command, fixture, sign, tmp_path, capsys):
        limit = sys.get_int_max_str_digits()
        digits = limit + 700  # 5000 at the default limit
        doc, where = _with_huge_number(fixture, "@")
        path = tmp_path / "doc.json"
        path.write_text(json.dumps(doc).replace('"@"', sign + "7" * digits))
        assert run([command, str(path)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: {where}: integer literal of {digits} digits has more than {limit} digits\n"

    def test_long_integer_literal_under_a_repeated_key_is_still_refused(self, tmp_path, capsys):
        limit = sys.get_int_max_str_digits()
        path = tmp_path / "doc.json"
        with open(PD_PATH) as handle:
            text = handle.read()
        path.write_text(text.replace('"root":', f'"root": {"7" * (limit + 1)}, "root":'))
        assert run(["validate", str(path)]) == 1
        assert capsys.readouterr().err == f"error: an integer literal has more than {limit} digits\n"

    def test_long_digit_string_is_reported_short_and_as_too_long(self, tmp_path, capsys):
        limit = sys.get_int_max_str_digits()
        doc, where = _with_huge_number(PD_PATH, "1" * (limit + 700))
        path = tmp_path / "doc.json"
        path.write_text(json.dumps(doc))
        assert run(["validate", str(path)]) == 1
        line = capsys.readouterr().err
        assert line.startswith(f"error: {where}: payoff: '{'1' * 40}'... ({limit + 700} characters) has more than")
        assert f"more than {limit} digits" in line
        assert len(line.encode()) < 200

    def test_zero_mantissa_ignores_its_exponent(self):
        assert parse_exact("0e99999999", "payoff") == 0
        assert parse_exact("-0.0e-99999999", "payoff") == 0

    def test_round_trip_at_the_digit_limit(self, pd_game, capsys, tmp_path):
        limit = sys.get_int_max_str_digits()
        for value in (f"1e{limit - 1}", f"-1e-{limit - 1}", f"1/{2 ** (3 * limit)}"):
            game = replace(pd_game, utility_map={**pd_game.utility_map, ("Row", "C,c"): parse_exact(value)})
            path = tmp_path / "game.json"
            path.write_text(serialize_game(game))
            assert run(["canonicalize", str(path)]) == 0
            assert parse_game(capsys.readouterr().out) == game
        for value in (f"1e{limit}", f"1e-{limit}", f"1.5e{limit}", "1" + "0" * limit):
            with pytest.raises(ValueError, match=f"more than {limit} digits"):
                parse_exact(value, "payoff")
