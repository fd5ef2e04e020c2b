"""CNF generation, model checking, the built-in solver, and proof replays."""

import hashlib
import io
import os
import subprocess
import sys

import pytest

from trivote import axioms, enumeration, rules, satgen
from trivote.core import (
    combine,
    condorcet_winner,
    margins,
    parse_profile,
    total_voters,
)
from trivote.enumeration import profile_count


def P(text):
    return parse_profile(text)


@pytest.fixture(scope="module")
def inst4():
    return satgen.build_instance(4)


@pytest.fixture(scope="module")
def inst7():
    return satgen.build_instance(7)


# ---------------------------------------------------------------------------
# instance shape
# ---------------------------------------------------------------------------


def test_bound_below_two_rejected():
    for bad in (-1, 0, 1):
        with pytest.raises(ValueError):
            satgen.build_instance(bad)


def test_clause_count_matches_the_built_instance(inst4, inst7):
    for inst in (satgen.build_instance(2), satgen.build_instance(3), inst4, inst7):
        assert satgen.clause_count(inst.bound) == inst.num_clauses
    assert inst7.num_clauses == 287_999


#: clause_count(b) for b = 1..10, recorded at commit 9511caa, where each
#: voter count built its own face counts
CLAUSE_COUNTS = [24, 306, 2036, 9119, 33275, 103517, 287999, 730412, 1721820, 3812454]


def test_clause_counts_stay_pinned_and_read_one_counting_pass(monkeypatch):
    assert [satgen.clause_count(b) for b in range(1, 11)] == CLAUSE_COUNTS
    passes = []
    tie_counts = enumeration._tie_counts

    def counting(ns, targets):
        passes.append(list(ns))
        return tie_counts(ns, targets)

    monkeypatch.setattr(enumeration, "_tie_counts", counting)
    assert satgen.clause_count(10) == CLAUSE_COUNTS[-1]
    assert passes == [list(range(1, 11))]


def test_a_build_over_the_clause_budget_is_refused_before_any_profile(monkeypatch):
    assert satgen.clause_count(10) <= satgen.BUILD_CLAUSE_BUDGET < satgen.clause_count(11)

    def no_work(*args):
        raise AssertionError("the build began before the clause budget was checked")

    monkeypatch.setattr(satgen, "profiles_up_to", no_work)
    for neutrality in (False, True):
        with pytest.raises(ValueError, match="8009346 clauses, over the build budget of 4000000"):
            satgen.build_instance(11, neutrality)


def test_universe_is_all_profiles_up_to_bound(inst4):
    assert len(inst4.universe) == sum(profile_count(n) for n in range(1, 5))
    assert all(1 <= total_voters(p) <= 4 for p in inst4.universe)
    assert len(set(inst4.universe)) == len(inst4.universe)


def test_variables_dense_and_one_based(inst4):
    seen = {inst4.var_of(p, c) for p in inst4.universe for c in (0, 1, 2)}
    seen |= {abs(lit) for clause in inst4.clauses for lit in clause}
    assert min(seen) == 1
    assert max(seen) == inst4.num_vars
    assert seen == set(range(1, inst4.num_vars + 1))


def test_every_clause_non_empty(inst4):
    assert all(clause for clause in inst4.clauses)


@pytest.mark.parametrize("neutrality", [False, True])
def test_no_clause_repeats_a_variable(neutrality):
    # the builder drops no tautology: aliasing cannot make one
    inst = satgen.build_instance(5, neutrality)
    assert all(len({abs(lit) for lit in c}) == len(c) for c in inst.clauses)


def test_aux_lookup_symmetric(inst4):
    p1, p2 = P("1abc"), P("2cab")
    assert inst4.aux_of(p1, p2) == inst4.aux_of(p2, p1)


def test_condorcet_units_present(inst4):
    p = P("2acb+1cab")  # Condorcet winner a
    x_a, x_b, x_c = (inst4.var_of(p, c) for c in (0, 1, 2))
    assert (x_a,) in inst4.clauses
    assert (-x_b,) in inst4.clauses
    assert (-x_c,) in inst4.clauses


def test_pair_clauses_present(inst4):
    p1, p2 = P("1abc"), P("1cba")
    merged = combine(p1, p2)
    v = inst4.aux_of(p1, p2)
    for c in (0, 1, 2):
        x1, x2, xm = inst4.var_of(p1, c), inst4.var_of(p2, c), inst4.var_of(merged, c)
        assert (-x1, -x2, v) in inst4.clauses
        assert (-v, -xm, x1) in inst4.clauses
        assert (-v, -xm, x2) in inst4.clauses
        assert (-v, -x1, -x2, xm) in inst4.clauses


def test_self_pair_included(inst4):
    # Merging two electorates that happen to cast identical ballots is a
    # legitimate reinforcement instance, so (P, P) carries clauses too.
    p = P("1abc+1bca")
    v = inst4.aux_of(p, p)
    x = inst4.var_of(p, 0)
    xm = inst4.var_of(combine(p, p), 0)
    assert (-x, v) in inst4.clauses  # duplicate literal collapsed
    assert (-v, -xm, x) in inst4.clauses


def test_neutral_instance_aliases_relabelings():
    inst = satgen.build_instance(3, neutrality=True)
    assert inst.var_of(P("1abc"), 0) == inst.var_of(P("1bac"), 1)
    assert inst.var_of(P("1abc"), 2) == inst.var_of(P("1cba"), 0)
    cycle = P("1abc+1bca+1cab")
    assert inst.var_of(cycle, 0) == inst.var_of(cycle, 1) == inst.var_of(cycle, 2)
    plain = satgen.build_instance(3)
    assert inst.num_vars < plain.num_vars
    assert inst.num_clauses < plain.num_clauses


# ---------------------------------------------------------------------------
# model checking against concrete rules
# ---------------------------------------------------------------------------


def test_bound_four_models(inst4):
    assert satgen.check_assignment(inst4, "leximin")
    assert satgen.check_assignment(inst4, "black")
    assert satgen.check_assignment(inst4, "stable_voting")
    assert not satgen.check_assignment(inst4, "nanson")
    assert not satgen.check_assignment(inst4, "maximin")


def test_bound_seven_artificial_is_model(inst7):
    assert satgen.check_assignment(inst7, "artificial")


def test_bound_eight_artificial_is_not_model():
    inst8 = satgen.build_instance(8)
    assert not satgen.check_assignment(inst8, "artificial")


@pytest.mark.parametrize("bound", [4, 5, 6])
def test_encoding_soundness_for_condorcet_extensions(bound):
    # A rule satisfies the instance exactly when it passes full reinforcement
    # at the same bound, for every rule that elects Condorcet winners.
    inst = satgen.build_instance(bound)
    for rule_id in rules.ALL_RULE_IDS:
        if rule_id in ("borda", "plurality"):
            continue
        sat = satgen.check_assignment(inst, rule_id)
        exhaustive = axioms.check_reinforcement(rule_id, "full", bound).holds
        assert sat == exhaustive, rule_id


def test_scoring_rules_fail_only_the_condorcet_units():
    # Scoring rules reinforce at any bound, but the instance also pins
    # Condorcet winners, which they miss; so they are not models.
    inst5 = satgen.build_instance(5)
    for rule_id in ("borda", "plurality"):
        assert axioms.check_reinforcement(rule_id, "full", 5).holds
        assert not satgen.check_assignment(inst5, rule_id)
    # The pinned clause borda violates: a 5-voter profile whose Condorcet
    # winner a is rank-indistinguishable from b, so both score equally.
    p = P("2abc+1bac+1bca+1cab")
    assert condorcet_winner(margins(p)) == 0
    assert rules.evaluate("borda", p) == frozenset({0, 1})


# ---------------------------------------------------------------------------
# DIMACS export
# ---------------------------------------------------------------------------


def test_dimacs_deterministic():
    first = satgen.dimacs_text(satgen.build_instance(3, neutrality=True))
    second = satgen.dimacs_text(satgen.build_instance(3, neutrality=True))
    assert first.encode() == second.encode()


#: sha256 of dimacs_text(build_instance(bound, neutrality)), recorded from the
#: two-pass builder (raw numbering, then re-mapping) that the one-pass build
#: replaced: the bytes must not move
DIMACS_SHA256 = {
    (2, False): "a671b23a881bbe6efa8efaa9857d7e2f164c0ec0a887d47a8d0c79e4e3b056b4",
    (3, False): "95f619c9d587baf0c22d004a36e7d476363da488e4f904682eb61d6cb56546e6",
    (4, False): "1f36ea83728ccefcdedaab7dbd85551303fe668a40b0196f28677d606cb8bc93",
    (5, False): "8c36f1ad587d71fe327ff3aebf5f2abf344368807b2385bc88f1441e1711d878",
    (6, False): "972ab0c643b9d4958342f968df6f42877a5be0f2772f2cadf182eb2806b0604f",
    (2, True): "2c54f769e979d458423c519b222fb35d7c54c005bed49a5313a37c43d4a209f3",
    (3, True): "76e4dcadbb8e686e0fd0e78b975c128238362fd89a6c47137d5d4d24759d32fb",
    (4, True): "ddea10a0c7503fbdbae040c92685c9377fbd6a123652047337325875ae15c43b",
    (5, True): "62e1963eb987e14e59c1859e39deefff1da318ab21d5bfd342eb91806854b7ea",
}


@pytest.mark.parametrize("bound, neutrality", sorted(DIMACS_SHA256))
def test_dimacs_bytes_are_pinned(bound, neutrality):
    text = satgen.dimacs_text(satgen.build_instance(bound, neutrality))
    assert hashlib.sha256(text.encode()).hexdigest() == DIMACS_SHA256[(bound, neutrality)]


def test_dimacs_header_matches_instance():
    inst = satgen.build_instance(2)
    lines = satgen.dimacs_text(inst).splitlines()
    headers = [line for line in lines if line.startswith("p cnf ")]
    assert headers == [f"p cnf {inst.num_vars} {inst.num_clauses}"]


def test_dimacs_round_trip_recovers_clauses():
    inst = satgen.build_instance(3)
    lines = satgen.dimacs_text(inst).splitlines()
    clause_lines = [line for line in lines if not line.startswith(("c", "p"))]
    assert len(clause_lines) == inst.num_clauses
    parsed = [tuple(int(tok) for tok in line.split()) for line in clause_lines]
    assert all(clause[-1] == 0 for clause in parsed)
    assert [clause[:-1] for clause in parsed] == list(inst.clauses)


def test_dimacs_comments_map_variables():
    inst = satgen.build_instance(2)
    text = satgen.dimacs_text(inst)
    x = inst.var_of(P("1abc"), 0)
    assert f"c {x} = 1abc : a\n" in text
    v = inst.aux_of(P("1abc"), P("1acb"))
    assert f"c {v} = agree(1abc | 1acb)\n" in text


def test_dimacs_writes_to_path(tmp_path):
    inst = satgen.build_instance(2)
    target = tmp_path / "instance.cnf"
    satgen.emit_dimacs(inst, target)
    assert target.read_text() == satgen.dimacs_text(inst)


def test_dimacs_writes_to_file_object():
    inst = satgen.build_instance(2)
    buffer = io.StringIO()
    satgen.emit_dimacs(inst, buffer)
    assert buffer.getvalue() == satgen.dimacs_text(inst)


# ---------------------------------------------------------------------------
# built-in solver
# ---------------------------------------------------------------------------


def test_neutral_bound_five_unsatisfiable():
    # The 5-voter impossibility for anonymous neutral Condorcet extensions,
    # rediscovered by exhaustive search over choice functions.
    assert satgen.solve_naive(satgen.build_instance(5, neutrality=True)) is False


def test_neutral_bound_four_satisfiable():
    # ... and 5 is tight: with 4 voters a neutral model exists (leximin).
    inst = satgen.build_instance(4, neutrality=True)
    assert satgen.solve_naive(inst) is True
    assert satgen.check_assignment(inst, "leximin")


def test_the_neutral_instance_passes_the_solver_limit_up_to_the_plain_ones_bound():
    # the neutral instance is never larger and grows with the bound, so these
    # two sizes make the closed-form check of the plain size exact for it too
    sizes = [satgen.build_instance(b, neutrality=True).num_clauses for b in (5, 6)]
    assert sizes == [31_684, 100_157]
    limit = satgen.SOLVER_CLAUSE_LIMIT
    assert satgen.clause_count(5) <= limit < min(sizes[1], satgen.clause_count(6))
    satgen.check_solvable(5, neutrality=True)
    with pytest.raises(ValueError, match="^the neutral instance of bound 6 has over 100000"):
        satgen.check_solvable(6, neutrality=True)


def test_solver_refuses_oversized_instances():
    inst8 = satgen.build_instance(8)
    assert inst8.num_clauses > satgen.SOLVER_CLAUSE_LIMIT
    with pytest.raises(ValueError):
        satgen.solve_naive(inst8)


# ---------------------------------------------------------------------------
# proof replays
# ---------------------------------------------------------------------------


def test_replay_ids_and_unknown_id():
    assert satgen.SCRIPT_IDS == ("4.1", "4.3", "4.5")
    with pytest.raises(ValueError):
        satgen.proof_replay("9.9")


@pytest.mark.parametrize("script_id", ["4.1", "4.3", "4.5"])
def test_replays_pass(script_id):
    script = satgen.proof_replay(script_id)
    assert script.ok
    assert script.failed_steps() == ()
    assert all(step.ok for step in script.steps)


def test_replay_nine_voters_case_split():
    script = satgen.proof_replay("4.1")
    # One case per candidate that could win the 6-voter double cycle, each
    # merging into a 9-voter profile with a different Condorcet winner.
    assert sum("contradiction" in s.label for s in script.steps) == 3
    merged = combine(P("2abc+2bca+2cab"), P("2acb+1cab"))
    assert total_voters(merged) == 9
    assert condorcet_winner(margins(merged)) == 2


def test_replay_eight_voters_checks_the_five_merges():
    script = satgen.proof_replay("4.3")
    by_label = {s.label: s for s in script.steps}
    p0, p1 = P("1bac"), P("1abc+1bca+1cab")
    p2, p3, p5 = P("1abc+1acb+2cab"), P("2acb+1bca+1cab"), P("3acb+2cab")
    assert condorcet_winner(margins(combine(p1, p2))) == 2  # P7
    assert condorcet_winner(margins(combine(p1, p3))) == 2  # P8
    assert condorcet_winner(margins(combine(p0, p2))) == 0  # P4
    assert condorcet_winner(margins(combine(p0, p3))) == 0  # P6
    assert combine(p2, p3) == combine(p1, p5)  # P9 two ways
    assert by_label["case w=a: P9 rewrites"].ok
    assert by_label["electorate size"].ok


def test_replay_five_voters_condorcet_claims():
    script = satgen.proof_replay("4.5")
    p1, p2, p3 = P("1cab"), P("1abc+1bac"), P("1abc+1bca+1cab")
    assert condorcet_winner(margins(combine(p1, p2))) == 0
    assert condorcet_winner(margins(combine(p2, p3))) == 0
    assert total_voters(combine(p2, p3)) == 5
    assert len(script.steps) == 7


def test_replay_render_format():
    script = satgen.proof_replay("4.5")
    lines = script.render().splitlines()
    assert lines[0].startswith("replay 4.5: all steps pass")
    assert all(line.startswith("    ") for line in lines[1:])
    assert lines[-1].lstrip().startswith("conclusion:")
    assert all("[ok]" in line for line in lines[1:-1])


def test_replay_uses_margins_not_rules(monkeypatch):
    # Replays must stand on margin arithmetic alone, independent of any
    # concrete rule implementation.
    def boom(*args, **kwargs):
        raise AssertionError("replay consulted a voting rule")

    monkeypatch.setattr(rules, "evaluate", boom)
    monkeypatch.setattr(rules, "evaluate_uncached", boom)
    for script_id in satgen.SCRIPT_IDS:
        assert satgen.proof_replay(script_id).ok


def test_failed_step_reports_detail():
    step = satgen._cw_step("bogus", P("1abc+1bca+1cab"), 0, "")
    assert not step.ok
    assert "Condorcet winner none" in step.detail
    script = satgen.TheoremScript("x", "nothing", (step,))
    assert not script.ok
    assert "FAILED" in script.render()


def test_importing_satgen_leaves_the_axiom_checkers_unloaded():
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    env = dict(os.environ, PYTHONPATH=src + os.pathsep + os.environ.get("PYTHONPATH", ""))
    script = "import sys, trivote.satgen; print('trivote.axioms' in sys.modules)"
    result = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True, env=env)
    assert (result.stdout, result.stderr) == ("False\n", "")
