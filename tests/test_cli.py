"""Command-line interface: outputs, exit codes, and flag handling."""

import csv
import hashlib
import json
import os
import subprocess
import sys
import time
import tracemalloc
from pathlib import Path

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
    code, out, err = run(capsys, "table", "--rule", "maximax")
    assert code == 2
    assert out == ""
    assert len(err.splitlines()) == 1


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


def test_verify_resolute_participation_reads_abc_by_default(capsys):
    argv = ["verify", "--rule", "copeland", "--axiom", "resolute_participation", "--bound", "7"]
    code, out, err = run(capsys, *argv)
    assert (code, out.splitlines()[0], err) == (
        1, "copeland axiom=resolute_participation(abc) bound=7 verdict=violated", ""
    )
    assert run(capsys, *argv, "--tiebreak", "abc") == (code, out, err)
    assert run(capsys, *argv, "--tiebreak", "cba")[1] != out


@pytest.mark.parametrize(
    "argv, option, reader",
    [
        (["--rule", "maximin", "--axiom", "monotonicity", "--upper", "nanson"],
         "upper", "refinement"),
        (["--axiom", "optimist_equivalence", "--upper", "maximin"], "upper", "refinement"),
        (["--rule", "maximin", "--axiom", "optimist_participation", "--tiebreak", "abc"],
         "tiebreak", "resolute_participation"),
        (["--rule", "leximin", "--axiom", "refinement", "--upper", "nanson", "--tiebreak", "bca"],
         "tiebreak", "resolute_participation"),
        (["--rule", "maximin", "--axiom", "homogeneity", "--profile", "2abc"],
         "profile", "continuity"),
        (["--rule", "maximin", "--axiom", "resolute_participation", "--profile2", "1cba"],
         "profile2", "continuity"),
    ],
    ids=["upper", "upper-equivalence", "tiebreak-abc", "tiebreak", "profile", "profile2"],
)
def test_verify_refuses_an_option_its_axiom_does_not_read(capsys, argv, option, reader):
    code, out, err = run(capsys, "verify", *argv, "--bound", "5")
    axiom = argv[argv.index("--axiom") + 1]
    assert (code, out) == (2, "")
    assert err == f"--{option} is read only by --axiom {reader}, not by --axiom {axiom}\n"


@pytest.mark.parametrize(
    "argv, unit",
    [
        (["--rule", "baldwin", "--axiom", "monotonicity", "--bound", "10"], "profiles"),
        (["--rule", "copeland", "--axiom", "optimist_participation", "--bound", "9"], "profiles"),
        (["--rule", "nanson", "--axiom", "reinforcement", "--bound", "8"], "profile pairs"),
    ],
    ids=["monotonicity", "participation", "reinforcement"],
)
def test_a_margin_rule_lists_witnesses_up_to_the_sweep_budget(capsys, monkeypatch, argv, unit):
    """A margin rule's verdict is decided over cells; its witness list stops
    once the sweep has visited SWEEP_BUDGET profiles (or pairs) and holds a
    witness, with the same verdict and a prefix of the full list."""
    argv = ["verify", *argv, "--max-witnesses", "1000000"]
    code, full, err = run(capsys, *argv)
    assert (code, err) == (1, "")
    for budget in (1, 40):
        monkeypatch.setattr(axioms, "SWEEP_BUDGET", budget)
        code, out, err = run(capsys, *argv)
        assert code == 1 and full.startswith(out) and len(out) < len(full)
        assert err == f"witness listing stopped after {budget} {unit}, the sweep budget\n"


def test_verify_optimist_equivalence_without_rule(capsys):
    code, out, _ = run(capsys, "verify", "--axiom", "optimist_equivalence", "--bound", "4")
    assert code == 0
    assert "optimist_equivalence" in out


def test_verify_optimist_equivalence_names_the_rules_left_out(capsys):
    code, out, err = run(capsys, "verify", "--axiom", "optimist_equivalence", "--bound", "10")
    assert code == 0
    assert out.startswith("all axiom=optimist_equivalence bound=10 verdict=holds-up-to-bound")
    assert err == "left out dodgson, young (at most 9 voters): bound 10 is above their voter cap\n"
    code, out, err = run(capsys, "verify", "--axiom", "optimist_equivalence", "--bound", "9")
    assert code == 0
    assert err == ""


@pytest.mark.parametrize(
    "rule",
    [[], ["--rule", "plurality"], ["--rule", "artificial"], ["--rule", "maximin"]],
    ids=["all", "plurality", "artificial", "maximin"],
)
def test_verify_optimist_equivalence_answers_any_bound_without_any_work(
    capsys, monkeypatch, rule
):
    def no_work(*args):
        raise AssertionError("a rule was evaluated or a margin cell built")

    for module, name in ((rules, "_evaluate_cached"), (axioms, "_grow_cells"),
                         (axioms, "_sweep"), (axioms, "_face_codes"), (axioms, "_grow_box")):
        monkeypatch.setattr(module, name, no_work)
    started = time.perf_counter()
    code, out, _ = run(
        capsys, "verify", "--axiom", "optimist_equivalence", "--bound", str(10**12), *rule
    )
    elapsed = time.perf_counter() - started
    assert (code, out) == (
        0, "all axiom=optimist_equivalence bound=1000000000000 verdict=holds-up-to-bound\n"
    )
    assert elapsed < 0.05


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


@pytest.mark.parametrize(
    "argv,largest",
    [
        (["--rule", "dodgson", "--axiom", "reinforcement", "--bound", "12"], 12),
        (["--rule", "maximin", "--axiom", "refinement", "--upper", "dodgson",
          "--bound", "12"], 12),
        (["--rule", "dodgson", "--axiom", "optimist_equivalence", "--bound", "11"], 11),
        (["--rule", "young", "--axiom", "optimist_participation", "--bound", "10"], 10),
        (["--rule", "dodgson", "--axiom", "monotonicity", "--bound", "10"], 10),
        (["--rule", "young", "--axiom", "homogeneity", "--bound", "5"], 10),
        (["--rule", "dodgson", "--axiom", "continuity", "--bound", "5",
          "--profile", "2abc", "--profile2", "1cba"], 11),
    ],
    ids=["reinforcement", "refinement-upper", "optimist_equivalence", "participation",
         "monotonicity", "homogeneity-doubled", "continuity"],
)
def test_verify_refuses_an_electorate_above_the_voter_cap_before_any_work(
    capsys, monkeypatch, argv, largest
):
    def no_evaluation(rule_id, profile):
        raise AssertionError(f"{rule_id} evaluated before the voter cap was checked")

    monkeypatch.setattr(rules, "_evaluate_cached", no_evaluation)
    code, out, err = run(capsys, "verify", *argv)
    assert code == 2
    assert out == ""
    assert err.count("\n") == 1 and f"supports at most 9 voters, got {largest}" in err


#: one margin-rule check of each axiom decided over margin cells
MARGIN_CHECKS = [
    ["--rule", "borda", "--axiom", "reinforcement"],
    ["--rule", "maximin", "--axiom", "optimist_participation"],
    ["--rule", "maximin", "--axiom", "resolute_participation"],
    ["--rule", "copeland", "--axiom", "monotonicity"],
    ["--rule", "maximin", "--axiom", "homogeneity"],
    ["--rule", "stable_voting", "--axiom", "neutrality"],
    ["--rule", "black", "--axiom", "condorcet"],
    ["--rule", "nanson", "--axiom", "strong_condorcet"],
    ["--rule", "leximin", "--axiom", "refinement", "--upper", "nanson"],
]


def _axiom_id(argv):
    return argv[argv.index("--axiom") + 1]


def _refused(capsys, monkeypatch, argv, *work):
    """The stderr line of a command that is refused before any work: with
    each (module, name) of ``work`` patched to fail when called, it exits 2,
    prints nothing on stdout and one line on stderr, and allocates under 1 MB."""

    def no_work(*args, **kwargs):
        raise AssertionError("work began before the refusal")

    for module, name in work:
        monkeypatch.setattr(module, name, no_work)
    tracemalloc.start()
    try:
        code, out, err = run(capsys, *argv)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert (code, out) == (2, "")
    assert err.count("\n") == 1
    assert peak < 1 << 20
    return err


@pytest.mark.parametrize("argv", MARGIN_CHECKS, ids=_axiom_id)
def test_verify_refuses_oversized_margin_tables_before_allocating(capsys, monkeypatch, argv):
    err = _refused(
        capsys, monkeypatch, ["verify", *argv, "--bound", str(10**12)],
        (axioms, "_grow_cells"), (axioms, "_face_codes"), (axioms, "_grow_box"),
    )
    assert f"over the {axioms.TABLE_BUDGET >> 20} MB budget" in err


CONTINUITY = ["verify", "--rule", "maximin", "--axiom", "continuity",
              "--profile", "2abc", "--profile2", "1bca", "--bound"]


@pytest.mark.parametrize(
    "argv, work, message",
    [
        (CONTINUITY + [str(10**12)], (rules, "_evaluate_cached"),
         "bound 1000000000000 needs a sweep of 1000000000000 electorates, "
         "over the budget of 200000\n"),
        (CONTINUITY + ["200001"], (rules, "_evaluate_cached"),
         "bound 200001 needs a sweep of 200001 electorates, over the budget of 200000\n"),
        (["satgen", "--neutral", "--bound", "7", "--solve"], (satgen, "build_instance"),
         "the neutral instance of bound 7 has over 100000 clauses; "
         "the built-in solver handles at most 100000\n"),
        (["satgen", "--bound", "13"], (satgen, "profiles_up_to"),
         "bound 13: the plain instance has 30976052 clauses, "
         "over the build budget of 4000000\n"),
    ],
    ids=["continuity", "continuity-budget", "satgen-neutral-solve", "satgen-build"],
)
def test_an_oversized_probe_or_instance_is_refused_before_any_work(
    capsys, monkeypatch, argv, work, message
):
    assert _refused(capsys, monkeypatch, argv, work) == message


def test_verify_continuity_answers_at_the_sweep_budget(capsys):
    code, out, err = run(capsys, *CONTINUITY, str(axioms.SWEEP_BUDGET))
    assert (code, out, err) == (0, "maximin continuity: 1 copies of 2abc absorb 1bca\n", "")


@pytest.mark.parametrize("argv", MARGIN_CHECKS, ids=_axiom_id)
def test_the_margin_cell_budget_refuses_every_axiom_at_the_same_bound(capsys, monkeypatch, argv):
    def no_table(*args):
        raise AssertionError("a margin table was allocated")

    monkeypatch.setattr(axioms, "_grow_cells", no_table)
    code, out, err = run(capsys, "verify", *argv, "--bound", "68")
    assert (code, out) == (2, "")
    budget = axioms.TABLE_BUDGET >> 20
    assert err == f"bound 68 needs 65 MB of margin cells, over the {budget} MB budget\n"
    axioms._refuse_oversized(67)  # the largest bound that passes, whatever the axiom


def test_a_margin_check_runs_up_to_the_cell_budget(capsys):
    # doubling reaches margins of 4 * 62 voters; only the cells count
    code, out, _ = run(
        capsys, "verify", "--rule", "maximin", "--axiom", "homogeneity", "--bound", "62"
    )
    assert (code, out) == (0, "maximin axiom=homogeneity bound=62 verdict=holds-up-to-bound\n")


@pytest.mark.parametrize(
    "argv",
    [
        ["--rule", "plurality", "--axiom", "neutrality", "--bound", "100000"],
        ["--rule", "scoring:2,1,0", "--axiom", "reinforcement", "--bound", "10"],
        ["--rule", "artificial", "--axiom", "optimist_participation", "--bound", "15"],
        ["--rule", "maximin", "--axiom", "refinement", "--upper", "artificial", "--bound", "20"],
    ],
    ids=["neutrality", "reinforcement", "participation", "refinement"],
)
def test_verify_refuses_an_oversized_sweep_before_any_work(capsys, monkeypatch, argv):
    def no_work(*args):
        raise AssertionError("work began before the sweep budget was checked")

    monkeypatch.setattr(rules, "_evaluate_cached", no_work)
    monkeypatch.setattr(axioms, "_grow_cells", no_work)
    code, out, err = run(capsys, "verify", *argv)
    assert code == 2
    assert out == ""
    assert err.count("\n") == 1
    assert f"over the budget of {axioms.SWEEP_BUDGET}" in err


@pytest.mark.parametrize("bound", ["25", "65", "67"])
def test_verify_refuses_oversized_cell_pairs_before_any_work(capsys, monkeypatch, bound):
    def no_work(*args):
        raise AssertionError("work began before the cell pair budget was checked")

    monkeypatch.setattr(rules, "_evaluate_cached", no_work)
    monkeypatch.setattr(axioms, "_grow_cells", no_work)
    code, out, err = run(
        capsys, "verify", "--rule", "borda", "--axiom", "reinforcement", "--bound", bound
    )
    assert code == 2
    assert out == ""
    assert err.count("\n") == 1
    assert f"over the budget of {axioms.CELL_PAIR_BUDGET}" in err


def test_verify_requires_rule(capsys):
    code, _, _ = run(capsys, "verify", "--axiom", "reinforcement", "--bound", "4")
    assert code == 2


def test_verify_unknown_axiom(capsys):
    code, _, _ = run(
        capsys, "verify", "--rule", "maximin", "--axiom", "nonsense", "--bound", "4"
    )
    assert code == 2


# ---------------------------------------------------------------------------
# verify output pinned byte for byte
# ---------------------------------------------------------------------------

#: the benchmark's recorded exit codes and stdout digests
ORACLE = json.loads(
    (Path(__file__).parents[1] / "perfbench" / "oracle.json").read_text()
)["commands"]

#: [exit code, stdout sha256] of every axiom but continuity, for maximin,
#: copeland, baldwin and borda at bounds 4-7 (refinement with --upper maximin),
#: at the default witness cap and at 1000; recorded from the profile sweeps
#: of commit a41e6b3, before any check was decided over margin cells
DIGESTS = json.loads(Path(__file__).with_name("verify_digests.json").read_text())["commands"]


def _exit_and_digest(capsys, command):
    code, out, _ = run(capsys, *command.split())
    return code, hashlib.sha256(out.encode()).hexdigest()


@pytest.mark.parametrize("command", sorted(c for c in ORACLE if c.startswith("verify ")))
def test_verify_matches_the_benchmark_oracle(capsys, command):
    record = ORACLE[command]
    assert _exit_and_digest(capsys, command) == (record["exit"], record["sha256"])


@pytest.mark.parametrize("axiom", [a for a in cli.AXIOM_IDS if a != "continuity"])
def test_verify_output_matches_the_recorded_digests(capsys, axiom):
    commands = [c for c in DIGESTS if c.split()[4] == axiom]
    assert len(commands) == 4 * 4 * 2
    for command in commands:
        assert _exit_and_digest(capsys, command) == tuple(DIGESTS[command]), command


#: [exit code, stdout sha256] of every axiom but continuity, for plurality,
#: artificial and scoring:3,1,0 (rules that read more than the margins, so
#: every check sweeps) at bounds 4-6 (refinement with --upper maximin), at the
#: default witness cap and at 1000; recorded at commit 48a45d6, from the
#: sweeps each axiom had before the key tables drove them
PROFILE_RULE_DIGESTS = json.loads(
    Path(__file__).with_name("verify_digests_profile_rules.json").read_text()
)["commands"]


@pytest.mark.parametrize("axiom", [a for a in cli.AXIOM_IDS if a != "continuity"])
def test_swept_verify_output_matches_the_recorded_digests(capsys, axiom):
    commands = [c for c in PROFILE_RULE_DIGESTS if c.split()[4] == axiom]
    assert len(commands) == 3 * 3 * 2
    for command in commands:
        expected = tuple(PROFILE_RULE_DIGESTS[command])
        assert _exit_and_digest(capsys, command) == expected, command


_STOPPED = "witness listing stopped after 200000 profile pairs, the sweep budget\n"

#: [exit code, stdout sha256, stderr] of violated margin-rule checks, recorded
#: at commit 46e95fd, where the profile sweeps listed their witnesses (the
#: last command took 7.8 s there, for one witness)
LISTED_BY_SWEEPS = {
    "verify --rule baldwin --axiom monotonicity --bound 10": (
        1, "014515f563ed4b932661241eede1139c0892ad3e6eda1182d95765464d442f45", ""
    ),
    "verify --rule copeland --axiom optimist_participation --bound 12": (
        1, "e4ec6d8141c6f0056093cae224794b874e7d22102f4b88b88f06f27f2d162cb2", ""
    ),
    "verify --rule nanson --axiom reinforcement --bound 14": (
        1, "c4af4fbf4a63ab5b507fbed9df6ca8515646c1047b6e409cdb4122012a1bf1cf", _STOPPED
    ),
    "verify --rule nanson --axiom reinforcement --bound 24 --max-witnesses 1000000000": (
        1, "d9b36b23df4be8a11559eb8928f33c96d3a701250f42e4781c5dc4c5fb416fc7", _STOPPED
    ),
}


def test_a_violated_margin_rule_check_walks_no_profile(capsys, monkeypatch):
    """Its witnesses are read from the failing cells: neither the profiles
    nor the profile pairs are walked, and the output is the sweep's."""
    def no_walk(*args):
        raise AssertionError("a margin rule's check walked the profiles")

    for name in ("profiles_up_to", "_profile_pairs", "_stepper"):
        monkeypatch.setattr(axioms, name, no_walk)
    for command, (code, digest, err) in LISTED_BY_SWEEPS.items():
        found, out, found_err = run(capsys, *command.split())
        assert (found, hashlib.sha256(out.encode()).hexdigest(), found_err) == (code, digest, err)


def test_a_warm_verify_imports_no_further_module():
    """After one check, a violated check of each kind and a holding one import
    nothing: np.unique without return_index or return_inverse, for one,
    imports numpy.ma on its first call."""
    script = "\n".join((
        "import contextlib, io, sys",
        "from trivote import cli",
        "def verify(*argv):",
        "    with contextlib.redirect_stdout(io.StringIO()):",
        "        cli.main(['verify', '--rule', *argv])",
        "verify('maximin', '--axiom', 'optimist_participation', '--bound', '6')",
        "before = set(sys.modules)",
        "verify('baldwin', '--axiom', 'monotonicity', '--bound', '10')",
        "verify('nanson', '--axiom', 'reinforcement', '--bound', '8')",
        "verify('black', '--axiom', 'condorcet', '--bound', '8')",
        "print(sorted(set(sys.modules) - before))",
    ))
    result = subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True, env=_module_env()
    )
    assert (result.stdout, result.stderr) == ("[]\n", "")


# ---------------------------------------------------------------------------
# figure4
# ---------------------------------------------------------------------------


#: [exit code, stdout sha256] of figure4 over the benchmark's seven rules to
#: 30 voters, and over every rule and a scoring vector to 8 voters; recorded
#: at commit 9511caa, where each row was counted by its own call
FIGURE4_DIGESTS = {
    "figure4 --rules maximin,nanson,leximin,black,baldwin,plurality,artificial --max-n 30": (
        0, "3e9be30bb545569a41a94f2e2c61ba4093ecbc767ee5c44fd0ccdc927a7baa94"
    ),
    f"figure4 --rules {','.join(rules.ALL_RULE_IDS)},scoring:3,1,0 --max-n 8": (
        0, "b4de516b371ce8ce3bdf1257eb6d8db273753bc828b7883725b1299ad6e8eb17"
    ),
}


@pytest.mark.parametrize("command", sorted(FIGURE4_DIGESTS))
def test_figure4_output_matches_the_recorded_digests(capsys, command):
    assert _exit_and_digest(capsys, command) == FIGURE4_DIGESTS[command]


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


def test_figure4_keeps_a_scoring_id_whole(capsys):
    code, out, _ = run(
        capsys, "figure4", "--rules", "maximin, scoring:3,1,0,plurality", "--max-n", "4"
    )
    assert code == 0
    rows = list(csv.reader(out.splitlines()))
    assert [row[1] for row in rows] == ["rule", "maximin", "scoring:3,1,0", "plurality"]
    scoring = enumeration.irresoluteness("scoring:3,1,0", 4)
    assert rows[2] == ["4", "scoring:3,1,0", str(scoring.irresolute), "126", scoring.fraction_str()]


@pytest.mark.parametrize(
    "rules_arg, max_n",
    [("maximin,banana", 4), ("maximin,scoring:3,1", 4), ("scoring:1,x,0", 4), ("maximin,dodgson", 10)],
)
def test_figure4_refuses_a_bad_rule_id_before_any_output(capsys, rules_arg, max_n):
    code, out, err = run(capsys, "figure4", "--rules", rules_arg, "--max-n", str(max_n))
    assert code == 2
    assert out == ""
    assert err.count("\n") == 1


#: the largest points of a score vector that figure4 counts at 8 voters:
#: the counting's intermediates stay within (6 n + 12) of them
POINTS_AT_8 = (2**63 - 1) // (6 * 8 + 12)


@pytest.mark.parametrize(
    "vector, message",
    [
        ("1152921504606846977,1,0", "scoring:1152921504606846977,1,0 has points too large "
         "to count 8 voters in 64-bit integers\n"),
        ("1e308,0,0", "scoring:1e308,0,0 has points too large to count 8 voters "
         "in 64-bit integers\n"),
        (f"{POINTS_AT_8 + 1},1,0", f"scoring:{POINTS_AT_8 + 1},1,0 has points too large "
         "to count 8 voters in 64-bit integers\n"),
    ],
    ids=["2**60+1", "1e308", "just-outside"],
)
def test_figure4_refuses_points_that_could_overflow_before_any_work(
    capsys, monkeypatch, vector, message
):
    argv = ["figure4", "--rules", f"scoring:{vector}", "--max-n", "8"]
    assert _refused(capsys, monkeypatch, argv, (enumeration, "_shell_chunks")) == message


@pytest.mark.parametrize(
    "vector", [f"{POINTS_AT_8},1,0", f"{POINTS_AT_8},-{POINTS_AT_8},{POINTS_AT_8}"]
)
def test_figure4_counts_points_just_inside_the_bound_exactly(capsys, vector):
    code, out, err = run(capsys, "figure4", "--rules", f"scoring:{vector}", "--max-n", "8")
    assert (code, err) == (0, "")
    for line in out.splitlines()[1:]:
        n, irresolute = int(line.split(",")[0]), int(line.split(",")[-3])
        swept = sum(
            len(rules.evaluate_uncached(f"scoring:{vector}", p)) >= 2
            for p in enumeration.ProfileCursor(n)
        )
        assert irresolute == swept, (vector, n)


def test_figure4_refuses_a_count_over_the_cell_budget_before_any_work(capsys, monkeypatch):
    for rule_ids, max_n, reached in (("maximin", 100000, 560), ("maximin", 752, 560),
                                     ("plurality", 236, 204), ("artificial", 10**12, 424)):
        argv = ["figure4", "--rules", rule_ids, "--max-n", str(max_n)]
        err = _refused(capsys, monkeypatch, argv, (enumeration, "_shell_chunks"))
        assert err == (
            f"a count that reaches {reached} voters is estimated at over "
            f"{enumeration.COUNT_BUDGET / 1e9:g} s, the budget of one count\n"
        )


class _Started(Exception):
    pass


@pytest.mark.parametrize("max_n, accepted", [(200, True), (202, False)])
def test_the_cell_budget_admits_the_seven_figure4_rules_up_to_200_voters(
    capsys, monkeypatch, max_n, accepted
):
    def started(*args):
        raise _Started

    monkeypatch.setattr(enumeration, "_tie_counts", started)
    argv = ["figure4", "--rules", "maximin,nanson,leximin,black,baldwin,plurality,artificial",
            "--max-n", str(max_n)]
    if accepted:
        with pytest.raises(_Started):
            cli.main(argv)
    else:
        assert "budget of one count" in _refused(capsys, monkeypatch, argv)


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


@pytest.mark.parametrize("missing_dir", [True, False])
def test_satgen_refuses_an_unwritable_out(capsys, tmp_path, missing_dir):
    target = tmp_path / "absent" / "x.cnf" if missing_dir else tmp_path
    code, out, err = run(capsys, "satgen", "--bound", "2", "--out", str(target))
    assert code == 2
    assert out == ""
    assert err.startswith(f"cannot write {target}: ")
    assert err.count("\n") == 1


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


def test_search_refuses_an_oversized_sweep_before_any_profile(capsys, monkeypatch):
    def no_work(*args, **kwargs):
        raise AssertionError("the search began before the sweep budget was checked")

    monkeypatch.setattr(enumeration, "profiles_up_to", no_work)
    code, out, err = run(
        capsys, "search", "nanson-positive-responsiveness-violation",
        "--bound", "100000", "--mode", "all",
    )
    assert code == 2
    assert out == ""
    assert err.count("\n") == 1
    assert f"over the budget of {axioms.SWEEP_BUDGET}" in err


def test_search_first_mode_stops_at_the_sweep_budget(capsys, monkeypatch):
    predicate = "nanson-positive-responsiveness-violation"  # first hit at 4 voters
    monkeypatch.setattr(axioms, "SWEEP_BUDGET", 60)  # the profiles up to 3 voters are 83
    code, out, err = run(capsys, "search", predicate, "--bound", "5")
    assert code == 2
    assert out == ""
    assert err.count("\n") == 1
    assert "stopped unfinished after 60 profiles up to 5 voters" in err
    assert "over the budget of 60" in err
    # a bound whose profiles all fit the budget is searched to the end
    code, out, err = run(capsys, "search", "artificial-homogeneity-violation", "--bound", "2")
    assert (code, out) == (0, "")
    # the all mode is refused before any profile
    monkeypatch.setattr(enumeration, "profiles_up_to", None)
    code, out, err = run(capsys, "search", predicate, "--bound", "5", "--mode", "all")
    assert (code, out, err.count("\n")) == (2, "", 1)
    assert "over the budget of 60" in err


def test_search_first_mode_finds_a_hit_past_the_bound_of_the_budget(capsys):
    # all profiles up to 20 voters are 230229, over the budget; the first hit has 4
    code, out, err = run(
        capsys, "search", "nanson-positive-responsiveness-violation", "--bound", "20"
    )
    assert (code, out, err) == (1, "1abc+1acb+2bac\n", "")


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


def test_one_parser_serves_every_call_in_a_process(capsys):
    commands = [
        ["verify", "--axiom", "reinforcement", "--bound", "4"],  # usage error: no --rule
        ["verify", "--rule", "nanson", "--axiom", "reinforcement", "--bound", "4"],
        ["figure4", "--rules", "nanson,artificial", "--max-n", "6"],
        ["replay", "4.3"],
        ["table"],
    ]
    together = [run(capsys, *argv)[:2] for argv in commands]
    assert cli._build_parser() is cli._build_parser()
    alone = []
    for argv in commands:
        result = subprocess.run(
            [sys.executable, "-m", "trivote", *argv],
            capture_output=True, text=True, env=_module_env(),
        )
        alone.append((result.returncode, result.stdout))
    assert [code for code, _ in together] == [2, 1, 0, 0, 0]
    assert together == alone


def _module_env():
    env = dict(os.environ)
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    return env


def test_module_entry_point():
    result = subprocess.run(
        [sys.executable, "-m", "trivote", "winners", "2acb+1cab", "--rule", "leximin"],
        capture_output=True, text=True, env=_module_env(),
    )
    assert result.returncode == 0
    assert result.stdout == "leximin: {a}\n"


def test_a_closed_stdout_exits_141_without_a_traceback():
    # ~700 KB of DIMACS: more than a pipe buffer, so the write outlives the reader
    proc = subprocess.Popen(
        [sys.executable, "-m", "trivote", "satgen", "--bound", "5"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=_module_env(),
    )
    assert len(proc.stdout.read(100)) == 100
    proc.stdout.close()
    err = proc.stderr.read()
    proc.stderr.close()
    assert proc.wait(timeout=60) == 141
    assert err == b""
