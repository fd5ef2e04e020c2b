"""Command-line interface: outputs, exit codes, and flag handling."""

import os
import subprocess
import sys

import pytest

from trivote import axioms, cli, enumeration, rules, satgen


def run(capsys, *argv):
    """Invoke the CLI in-process; return (exit_code, stdout, stderr)."""
    try:
        code = cli.main(list(argv))
    except SystemExit as exc:
        code = exc.code
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# ---------------------------------------------------------------------------
# winners
# ---------------------------------------------------------------------------


def test_winners_single_rule(capsys):
    code, out, _ = run(capsys, "winners", "3abc+1bca+4cab", "--rule", "black")
    assert code == 0
    assert out == "black: {a}\n"


def test_winners_condorcet_profile(capsys):
    code, out, _ = run(capsys, "winners", "2acb+1cab", "--rule", "maximin")
    assert code == 0
    assert out == "maximin: {a}\n"


def test_winners_repeatable_rule_flag(capsys):
    code, out, _ = run(
        capsys, "winners", "2abc+1bca+2cab", "--rule", "nanson", "--rule", "llull"
    )
    assert code == 0
    assert out.splitlines() == ["nanson: {a}", "llull: {a,b,c}"]


def test_winners_all_on_symmetric_cycle(capsys):
    code, out, _ = run(capsys, "winners", "1abc+1bca+1cab", "--all")
    assert code == 0
    lines = dict(line.split(": ") for line in out.splitlines())
    assert set(lines) == set(rules.ALL_RULE_IDS)
    # Only the deliberately non-neutral rule breaks the three-way symmetry.
    assert lines.pop("artificial") == "{a}"
    assert set(lines.values()) == {"{a,b,c}"}


@pytest.mark.parametrize("rule_flags", [["dodgson"], ["maximin", "young"]])
def test_winners_rule_above_its_voter_cap_exits_two(capsys, rule_flags):
    argv = ["winners", "10abc"] + [arg for r in rule_flags for arg in ("--rule", r)]
    code, out, err = run(capsys, *argv)
    assert code == 2
    assert out == ""
    assert err == f"{rule_flags[-1]} supports at most 9 voters, got 10\n"


def test_winners_all_lists_the_rules_whose_cap_allows_the_profile(capsys):
    code, out, _ = run(capsys, "winners", "5abc+5cba", "--all")
    assert code == 0
    names = [line.split(": ")[0] for line in out.splitlines()]
    assert names == [r for r in rules.ALL_RULE_IDS if r not in ("dodgson", "young")]
    code, out, _ = run(capsys, "winners", "5abc+4cba", "--all")
    assert code == 0
    assert [line.split(": ")[0] for line in out.splitlines()] == list(rules.ALL_RULE_IDS)


def test_winners_parse_error_exits_two(capsys):
    code, _, _ = run(capsys, "winners", "1abc+2xyz", "--rule", "maximin")
    assert code == 2


def test_winners_unknown_rule_exits_two(capsys):
    code, _, err = run(capsys, "winners", "1abc", "--rule", "bogus")
    assert code == 2
    assert "bogus" in err


def test_winners_requires_rule_or_all(capsys):
    code, _, _ = run(capsys, "winners", "1abc")
    assert code == 2


# ---------------------------------------------------------------------------
# table
# ---------------------------------------------------------------------------


def test_table_full(capsys):
    code, out, _ = run(capsys, "table")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "rule,A,B,C,D,E,F,G,H,I,J,K,L"
    assert len(lines) == 13
    assert lines[1].startswith("top_cycle,abc,abc,abc,abc,ac,ac,")
    assert any(line.startswith("maximin,abc,abc,ac,ac,ac,ac,a,a,a,a,a,a") for line in lines)


def test_table_single_rule_and_alias(capsys):
    code, out, _ = run(capsys, "table", "--rule", "schwartz")
    assert code == 0
    assert out.splitlines()[1] == "schwartz," + ",".join(rules.table_cells("llull"))


def test_table_representatives(capsys):
    code, out, _ = run(capsys, "table", "--representatives")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "class,profile"
    assert "A,1abc+1bca+1cab" in lines
    assert "L,2abc+1bca+3cab" in lines
    assert len(lines) == 13


def test_table_unknown_rule(capsys):
    code, _, _ = run(capsys, "table", "--rule", "maximax")
    assert code == 2


# ---------------------------------------------------------------------------
# verify
# ---------------------------------------------------------------------------


def test_verify_artificial_reinforcement_holds(capsys):
    code, out, _ = run(
        capsys, "verify", "--rule", "artificial", "--axiom", "reinforcement", "--bound", "7"
    )
    assert code == 0
    assert "verdict=holds-up-to-bound" in out


def test_verify_nanson_reinforcement_violated_with_witness(capsys):
    code, out, _ = run(
        capsys, "verify", "--rule", "nanson", "--axiom", "reinforcement", "--bound", "4"
    )
    assert code == 1
    assert "verdict=violated" in out
    assert "1abc+1bac | 1abc+1bca" in out


def test_verify_maximin_optimist_participation(capsys):
    code, out, _ = run(
        capsys, "verify", "--rule", "maximin", "--axiom", "optimist_participation",
        "--bound", "8",
    )
    assert code == 0
    assert "verdict=holds-up-to-bound" in out


def test_verify_refinement(capsys):
    code, out, _ = run(
        capsys, "verify", "--rule", "leximin", "--axiom", "refinement",
        "--upper", "maximin", "--bound", "6",
    )
    assert code == 0
    assert "refinement(maximin)" in out
    code, _, err = run(capsys, "verify", "--rule", "leximin", "--axiom", "refinement",
                       "--bound", "6")
    assert code == 2
    assert "--upper" in err


def test_verify_resolute_participation(capsys):
    code, out, _ = run(
        capsys, "verify", "--rule", "maximin", "--axiom", "resolute_participation",
        "--bound", "6", "--tiebreak", "bca",
    )
    assert code == 0
    assert "resolute_participation(bca)" in out


def test_verify_optimist_equivalence_without_rule(capsys):
    code, out, _ = run(capsys, "verify", "--axiom", "optimist_equivalence", "--bound", "4")
    assert code == 0
    assert "optimist_equivalence" in out


def test_verify_continuity_threshold_found(capsys):
    code, out, _ = run(
        capsys, "verify", "--rule", "maximin", "--axiom", "continuity",
        "--profile", "1abc", "--profile2", "2cba", "--bound", "10",
    )
    assert code == 0
    assert "copies of 1abc absorb 2cba" in out


def test_verify_continuity_persistent_failure(capsys):
    code, out, _ = run(
        capsys, "verify", "--rule", "leximin", "--axiom", "continuity",
        "--profile", "1abc+1acb+2bac", "--profile2", "2bac", "--bound", "12",
    )
    assert code == 1
    assert "no threshold up to horizon 12" in out


@pytest.mark.parametrize("cap", ["-1", "0"])
def test_verify_rejects_a_witness_cap_below_one(capsys, cap):
    code, out, err = run(
        capsys, "verify", "--rule", "nanson", "--axiom", "reinforcement",
        "--bound", "8", "--max-witnesses", cap,
    )
    assert code == 2
    assert out == ""
    assert err == f"max_witnesses must be at least 1, got {cap}\n"


@pytest.mark.parametrize("cap", ["-1", "0"])
@pytest.mark.parametrize(
    "argv",
    [
        ["--axiom", "optimist_equivalence", "--bound", "4"],
        ["--rule", "maximin", "--axiom", "continuity", "--bound", "4",
         "--profile", "2abc", "--profile2", "1cba"],
    ],
    ids=["optimist_equivalence", "continuity"],
)
def test_verify_special_axioms_reject_a_witness_cap_below_one(capsys, argv, cap):
    code, out, err = run(capsys, "verify", *argv, "--max-witnesses", cap)
    assert code == 2
    assert out == ""
    assert err == f"max_witnesses must be at least 1, got {cap}\n"


def test_verify_requires_rule(capsys):
    code, _, _ = run(capsys, "verify", "--axiom", "reinforcement", "--bound", "4")
    assert code == 2


def test_verify_unknown_axiom(capsys):
    code, _, _ = run(
        capsys, "verify", "--rule", "maximin", "--axiom", "nonsense", "--bound", "4"
    )
    assert code == 2


# ---------------------------------------------------------------------------
# figure4
# ---------------------------------------------------------------------------


def test_figure4_single_row(capsys):
    code, out, _ = run(capsys, "figure4", "--rules", "maximin", "--max-n", "4")
    assert code == 0
    assert out.splitlines() == ["n,rule,irresolute,total,fraction", "4,maximin,42,126,0.333333"]


def test_figure4_black_fraction(capsys):
    code, out, _ = run(capsys, "figure4", "--rules", "black", "--max-n", "4")
    assert code == 0
    assert "4,black,18,126,0.142857" in out.splitlines()


def test_figure4_leximin_two_rows(capsys):
    code, out, _ = run(capsys, "figure4", "--rules", "leximin", "--max-n", "6")
    assert code == 0
    lines = out.splitlines()
    assert "4,leximin,12,126,0.095238" in lines
    assert "6,leximin,32,462,0.069264" in lines


def test_figure4_default_rules_order(capsys):
    code, out, _ = run(capsys, "figure4", "--max-n", "4")
    assert code == 0
    assert [line.split(",")[1] for line in out.splitlines()[1:]] == [
        "maximin", "nanson", "leximin", "black",
    ]


def test_figure4_rejects_odd_or_small_n(capsys):
    assert run(capsys, "figure4", "--max-n", "5")[0] == 2
    assert run(capsys, "figure4", "--max-n", "2")[0] == 2


@pytest.mark.parametrize("rules_arg", ["maximin,nanson,leximin,black", "plurality"])
@pytest.mark.parametrize("value", ["abc", "0", "-1"])
def test_figure4_rejects_a_bad_worker_setting(capsys, monkeypatch, rules_arg, value):
    monkeypatch.setenv("TRIVOTE_WORKERS", value)
    code, out, err = run(capsys, "figure4", "--rules", rules_arg, "--max-n", "4")
    assert code == 2
    assert out == ""
    assert err.count("\n") == 1 and "TRIVOTE_WORKERS" in err


def test_figure4_unknown_rule(capsys):
    code, _, _ = run(capsys, "figure4", "--rules", "banana", "--max-n", "4")
    assert code == 2


# ---------------------------------------------------------------------------
# satgen / replay
# ---------------------------------------------------------------------------


def test_satgen_writes_file(capsys, tmp_path):
    target = tmp_path / "inst.cnf"
    code, out, err = run(capsys, "satgen", "--bound", "3", "--out", str(target))
    assert code == 0
    assert out == ""
    assert "wrote" in err
    inst = satgen.build_instance(3)
    assert target.read_text() == satgen.dimacs_text(inst)


def test_satgen_stdout(capsys):
    code, out, _ = run(capsys, "satgen", "--bound", "2")
    assert code == 0
    assert out == satgen.dimacs_text(satgen.build_instance(2))


def test_satgen_neutral_solve_unsatisfiable(capsys, tmp_path):
    code, out, _ = run(
        capsys, "satgen", "--bound", "5", "--neutral",
        "--out", str(tmp_path / "t.cnf"), "--solve",
    )
    assert code == 0
    assert out.strip() == "unsatisfiable"


def test_satgen_solve_refuses_an_oversized_instance_before_writing(capsys):
    code, out, err = run(capsys, "satgen", "--bound", "6", "--solve")
    assert code == 2
    assert out == ""
    assert err == "instance has 103517 clauses; the built-in solver handles at most 100000\n"


@pytest.mark.parametrize("bound, clauses", [("6", 103517), ("7", 287999)])
def test_satgen_solve_refuses_an_oversized_instance_before_building(
    capsys, monkeypatch, bound, clauses
):
    def no_build(*args, **kwargs):
        raise AssertionError("build_instance must not run")

    monkeypatch.setattr(satgen, "build_instance", no_build)
    code, out, err = run(capsys, "satgen", "--bound", bound, "--solve")
    assert code == 2
    assert out == ""
    assert err == (
        f"instance has {clauses} clauses; the built-in solver handles at most 100000\n"
    )


def test_satgen_solve_builds_and_solves_below_the_limit(capsys, tmp_path):
    target = tmp_path / "b5.cnf"
    code, out, err = run(capsys, "satgen", "--bound", "5", "--solve", "--out", str(target))
    assert code == 0
    assert out == "satisfiable\n"
    assert "33275 clauses" in err


def test_satgen_bad_bound(capsys):
    code, _, _ = run(capsys, "satgen", "--bound", "1")
    assert code == 2
    assert run(capsys, "satgen", "--bound", "1", "--solve")[0] == 2


def test_replay_pass(capsys):
    for script_id in ("4.1", "4.3", "4.5"):
        code, out, _ = run(capsys, "replay", script_id)
        assert code == 0
        assert f"replay {script_id}: all steps pass" in out


def test_replay_unknown_id(capsys):
    code, _, _ = run(capsys, "replay", "9.9")
    assert code == 2


# ---------------------------------------------------------------------------
# search
# ---------------------------------------------------------------------------


def test_search_finds_nanson_responsiveness_witness(capsys):
    code, out, _ = run(
        capsys, "search", "nanson-positive-responsiveness-violation", "--bound", "4"
    )
    assert code == 1
    assert out.strip() == "1abc+1acb+2bac"


def test_search_no_match_exits_zero(capsys):
    code, out, err = run(
        capsys, "search", "weak-scoring-overrides-condorcet", "--bound", "6"
    )
    assert code == 0
    assert out == ""
    assert "no profile" in err


def test_search_artificial_predicates(capsys):
    code, out, _ = run(
        capsys, "search", "artificial-neutrality-violation", "--bound", "2"
    )
    assert code == 1
    assert out.splitlines()[0] == "1abc+1bac"
    code, out, _ = run(
        capsys, "search", "artificial-homogeneity-violation", "--bound", "4"
    )
    assert code == 1
    assert out.splitlines()[0] == "1abc+1acb+2bac"


@pytest.mark.parametrize(
    "predicate,report,hits,witnesses",
    [
        (
            "artificial-homogeneity-violation",
            lambda: axioms.check_homogeneity("artificial", 7),
            30,
            30,
        ),
        (
            "artificial-neutrality-violation",
            lambda: axioms.check_neutrality("artificial", 7),
            164,
            478,
        ),
        (
            "nanson-positive-responsiveness-violation",
            lambda: axioms.check_responsiveness("nanson", "positive", 7),
            72,
            114,
        ),
    ],
)
def test_search_predicates_find_the_checkers_witness_profiles(
    predicate, report, hits, witnesses
):
    # the counts are those of the standalone predicates the search used to have
    found = enumeration.search(cli.SEARCH_PREDICATES[predicate][0], 7, mode="all")
    uncapped = report().witnesses
    assert (len(found), len(uncapped)) == (hits, witnesses)
    assert found == list(dict.fromkeys(w.profiles[0] for w in uncapped))


@pytest.mark.parametrize("bound", ["-3", "0"])
def test_search_rejects_a_bound_below_one(capsys, bound):
    code, out, err = run(
        capsys, "search", "weak-scoring-overrides-condorcet", "--bound", bound
    )
    assert code == 2
    assert out == ""
    assert err == f"--bound must be at least 1, got {bound}\n"


def test_search_list_and_unknown(capsys):
    code, out, _ = run(capsys, "search", "--list")
    assert code == 0
    assert len(out.splitlines()) == len(cli.SEARCH_PREDICATES)
    assert run(capsys, "search", "made-up")[0] == 2
    assert run(capsys, "search")[0] == 2


# ---------------------------------------------------------------------------
# plumbing
# ---------------------------------------------------------------------------


def test_unknown_subcommand(capsys):
    assert run(capsys, "frobnicate")[0] == 2


def test_output_determinism(capsys):
    first = run(capsys, "figure4", "--rules", "nanson", "--max-n", "8")
    second = run(capsys, "figure4", "--rules", "nanson", "--max-n", "8")
    assert first == second


def test_module_entry_point():
    env = dict(os.environ)
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    result = subprocess.run(
        [sys.executable, "-m", "trivote", "winners", "2acb+1cab", "--rule", "leximin"],
        capture_output=True, text=True, env=env,
    )
    assert result.returncode == 0
    assert result.stdout == "leximin: {a}\n"
