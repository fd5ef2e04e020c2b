"""Release acceptance sweep: one test per gate, frozen data inlined.

Each test is a self-contained release gate with its own copy of the expected
numbers, so a regression in any module fails exactly one readable line here.
The gates cover the published class table, the refinement poset, the
maximin-cluster identities, the hand-built consistency rule's envelope, the
mechanical impossibility replays, the CNF cross-checks, the classical scoring
counterexamples, the participation and responsiveness verdicts, the
irresoluteness curves, and the margin round-trip.
"""

import hashlib
import itertools
import time

from trivote import axioms, core, enumeration, rules, satgen
from trivote.core import margins, mcgarvey, parse_choice_set, parse_profile


def P(text):
    return parse_profile(text)


def S(text):
    return parse_choice_set(text)


# ---------------------------------------------------------------------------
# frozen data
# ---------------------------------------------------------------------------

# smallest linked profile of each ordinal class A..L
LINKED_PROFILES = (
    "1abc+1bca+1cab",                 # A
    "1abc+1acb+1bac+1bca+1cab+1cba",  # B
    "2abc+1bca+2cab",                 # C
    "1abc+1cab",                      # D
    "1acb+1cab",                      # E
    "1abc+1acb+2cab",                 # F
    "4abc+2bca+3cab",                 # G
    "3abc+1bca+2cab",                 # H
    "3abc+2bca+2cab",                 # I
    "2abc+1bca+1cab",                 # J
    "3abc+2bca+4cab",                 # K
    "2abc+1bca+3cab",                 # L
)

# published cells of the class table, columns A..L in canonical class labels
TABLE_CELLS = {
    "top_cycle":     "abc abc abc abc ac ac abc abc abc abc abc abc",
    "uc_mckelvey":   "abc abc abc ac ac ac abc abc abc abc abc abc",
    "banks":         "abc abc abc ac ac ac abc ab abc ab abc ab",
    "uc_gillies":    "abc abc abc ac ac ac abc ac abc ac abc ac",
    "defensible":    "abc abc ac ac ac ac ac ac ac ac a a",
    "llull":         "abc abc abc ac ac ac abc a abc a abc a",
    "copeland":      "abc abc abc a ac ac abc a abc a abc a",
    "maximin":       "abc abc ac ac ac ac a a a a a a",
    "strict_nanson": "abc abc c ac ac ac a a a a a a",
    "stable_voting": "abc abc ac a ac a a a a a a a",
    "nanson":        "abc abc a a ac ac a a a a a a",
    "leximin":       "abc abc a a ac a a a a a a a",
}

# every rule id that names a row: the alias ids share their target's row and
# the maximin-cluster members share the maximin row
ROW_OF = {rule_id: rule_id for rule_id in TABLE_CELLS}
ROW_OF.update(uc_bordes="banks", schwartz="llull", uc_fishburn="llull")
ROW_OF.update({rid: "maximin" for rid in
               ("split_cycle", "beat_path", "ranked_pairs", "kemeny")})

# covering edges of the refinement poset (lower refines upper)
COVERING_EDGES = (
    ("baldwin", "defensible"),
    ("banks", "uc_mckelvey"),
    ("black", "banks"),
    ("copeland", "llull"),
    ("defensible", "uc_gillies"),
    ("leximin", "nanson"),
    ("leximin", "stable_voting"),
    ("llull", "banks"),
    ("llull", "uc_gillies"),
    ("maximin", "defensible"),
    ("maximin", "llull"),
    ("nanson", "copeland"),
    ("nanson", "maximin"),
    ("stable_voting", "copeland"),
    ("stable_voting", "maximin"),
    ("strict_nanson", "maximin"),
    ("uc_gillies", "uc_mckelvey"),
    ("uc_mckelvey", "top_cycle"),
)

# published fractions of profiles with a non-singleton outcome, even n
PUBLISHED_FRACTIONS = {
    "maximin": {
        4: "0.333333", 6: "0.264069", 8: "0.219114", 10: "0.18681",
        12: "0.16257", 14: "0.14396", 16: "0.12914", 18: "0.11706",
        20: "0.10705", 22: "0.09862", 24: "0.09141", 26: "0.08519",
        28: "0.07976", 30: "0.07497",
    },
    "nanson": {
        4: "0.142857", 6: "0.134199", 8: "0.121212", 10: "0.10889",
        12: "0.09857", 14: "0.08978", 16: "0.08226", 18: "0.07587",
        20: "0.07035", 22: "0.06555", 24: "0.06135", 26: "0.05764",
        28: "0.05435", 30: "0.05141",
    },
    "leximin": {
        4: "0.09523", 6: "0.06926", 8: "0.05128", 10: "0.0389",
        12: "0.0307", 14: "0.0247", 16: "0.0203", 18: "0.0170",
        20: "0.0144", 22: "0.0124", 24: "0.0107", 26: "0.0094",
        28: "0.0083", 30: "0.0074",
    },
    "black": {
        4: "0.14285", 6: "0.10389", 8: "0.07692", 10: "0.05794",
        12: "0.04686", 14: "0.03869", 16: "0.03228", 18: "0.02775",
        20: "0.02416", 22: "0.02118", 24: "0.01887", 26: "0.01695",
        28: "0.01529", 30: "0.01394",
    },
}


def expected_cell(row_id, profile):
    """Table cell of ``row_id`` on ``profile``, read through its relabeling."""
    cls = core.classify(margins(profile))
    column = core.CLASS_LETTERS.index(cls.kind)
    cell = S("{" + ",".join(TABLE_CELLS[row_id].split()[column]) + "}")
    return frozenset(x for x in core.CANDIDATES if cls.relabel[x] in cell)


def rank_counts(profile, x):
    """(#first, #second, #third) places candidate ``x`` receives."""
    counts = [0, 0, 0]
    for order, weight in enumerate(profile):
        counts[core.ORDER_RANK_OF[order][x]] += weight
    return tuple(counts)


# ---------------------------------------------------------------------------
# the gates
# ---------------------------------------------------------------------------


def test_criterion_01_table_fidelity():
    """All table-row rule ids reproduce their cells on the linked profiles."""
    started = time.perf_counter()
    for text in LINKED_PROFILES:
        prof = P(text)
        for rule_id, row_id in ROW_OF.items():
            assert rules.evaluate(rule_id, prof) == expected_cell(
                row_id, prof
            ), (rule_id, text)
    elapsed = time.perf_counter() - started
    assert elapsed < 1.0, f"table sweep took {elapsed:.2f}s"


def test_criterion_02_refinement_poset():
    """Covering edges hold to n=8; the cited profiles break the non-edges."""
    assert enumeration.profile_count(8) == 1287
    started = time.perf_counter()
    for lower, upper in COVERING_EDGES:
        assert axioms.check_refinement(lower, upper, 8).holds, (lower, upper)
    elapsed = time.perf_counter() - started
    assert elapsed < 60.0, f"edge sweep took {elapsed:.1f}s"

    prof = P("3abc+1bca+4cab")
    assert rules.evaluate("black", prof) == S("{a}")
    assert rules.evaluate("uc_gillies", prof) == S("{b,c}")
    assert not axioms.check_refinement("black", "uc_gillies", 8).holds

    prof = P("4acb+5bac+3cab+5cba")
    assert rules.evaluate("baldwin", prof) == S("{a}")
    for leaf in ("black", "leximin", "strict_nanson"):
        assert rules.evaluate(leaf, prof) == S("{c}"), leaf

    prof = P("1abc+3bca+4cab")
    assert rules.evaluate("baldwin", prof) == S("{b,c}")
    assert rules.evaluate("banks", prof) == S("{a,c}")


# the profiles up to 9 voters where Young differs from maximin (which elects
# all three there), with Young's winners: every k-fold reverse pair
YOUNG_DIVERGENCES = {
    "1acb+1bca": "{a,b}", "1bac+1cab": "{b,c}", "1abc+1cba": "{a,c}",
    "2acb+2bca": "{a,b}", "2bac+2cab": "{b,c}", "2abc+2cba": "{a,c}",
    "3acb+3bca": "{a,b}", "3bac+3cab": "{b,c}", "3abc+3cba": "{a,c}",
    "4acb+4bca": "{a,b}", "4bac+4cab": "{b,c}", "4abc+4cba": "{a,c}",
}

# sha256 of the "\n"-joined sorted format_profile lines of the 210 profiles
# up to 9 voters where Dodgson differs from maximin
DODGSON_DIVERGENCES_SHA256 = "7e17bd195249617fc308e12bf5a2c792dd83ce0c3fbb6cd708577e80c9936e69"


def test_criterion_03_maximin_cluster_equivalence():
    """The cluster rules coincide with maximin on every small profile.

    Dodgson and Young diverge from maximin only on profiles with a zero
    margin (where distance-based tie handling legitimately differs), and
    exactly on the profiles pinned above; any divergence off a tie is a hard
    failure, and so is any change in the divergent profiles.
    """
    started = time.perf_counter()
    profiles = list(enumeration.profiles_up_to(10))
    assert len(profiles) == 8007

    mismatches = []
    for prof in profiles:
        reference = rules.evaluate("maximin", prof)
        voters = core.total_voters(prof)
        for rule_id in ("split_cycle", "beat_path", "ranked_pairs", "kemeny",
                        "dodgson", "young"):
            if rule_id in ("dodgson", "young") and voters > 9:
                continue
            output = rules.evaluate(rule_id, prof)
            if output != reference:
                mismatches.append((rule_id, prof, output, reference))

    off_tie = [m for m in mismatches if 0 not in margins(m[1])]
    assert not off_tie, (
        "cluster divergence on profiles without a zero margin: "
        + "; ".join(
            f"{rid} on {core.format_profile(p)}: "
            f"{core.choice_set_to_str(out)} vs {core.choice_set_to_str(ref)}"
            for rid, p, out, ref in off_tie[:5]
        )
    )
    per_rule = {}
    for rid, *_ in mismatches:
        per_rule[rid] = per_rule.get(rid, 0) + 1
    assert per_rule == {"dodgson": 210, "young": 12}
    young = {
        core.format_profile(p): core.choice_set_to_str(out)
        for rid, p, out, _ in mismatches
        if rid == "young"
    }
    assert young == YOUNG_DIVERGENCES
    dodgson = sorted(core.format_profile(p) for rid, p, *_ in mismatches if rid == "dodgson")
    assert hashlib.sha256("\n".join(dodgson).encode()).hexdigest() == DODGSON_DIVERGENCES_SHA256
    elapsed = time.perf_counter() - started
    assert elapsed < 600.0, f"cluster sweep took {elapsed:.1f}s"


def test_criterion_04_reinforcement_envelope():
    """The hand-built rule's exact consistency envelope, and bound-4 verdicts."""
    started = time.perf_counter()
    assert axioms.check_reinforcement("artificial", "full", 7).holds
    assert axioms.check_reinforcement("artificial", "subset", 8).holds
    elapsed = time.perf_counter() - started
    assert elapsed < 60.0, f"envelope sweep took {elapsed:.1f}s"

    broken = axioms.check_reinforcement("artificial", "full", 8, max_witnesses=1)
    assert not broken.holds
    first, second = broken.witnesses[0].profiles[:2]
    assert core.total_voters(first) + core.total_voters(second) == 8

    prof = P("2acb+2bac+2cab+2cba")
    assert rules.evaluate("artificial", prof) == S("{a,c}")
    assert rules.evaluate("artificial", core.t_fold(prof, 2)) == S("{c}")
    assert not axioms.check_homogeneity("artificial", 8, max_witnesses=1).holds

    assert axioms.check_responsiveness("artificial", "monotonicity", 7).holds
    assert axioms.check_participation("artificial", "optimist", 7).holds

    for rule_id in ("black", "stable_voting", "leximin"):
        assert axioms.check_reinforcement(rule_id, "full", 4).holds, rule_id

    # the two documented bound-4 witness pairs: splitting the class-D profile
    # into one acb voter plus the majority cycle breaks every row that keeps
    # candidate c alive on class D; the rows that collapse D to {a} break on
    # merging 1abc+1bac with 1abc+1bca instead
    cycle_pair = frozenset((P("1acb"), P("1abc+1bca+1cab")))
    tie_pair = frozenset((P("1abc+1bac"), P("1abc+1bca")))
    for rule_id in TABLE_CELLS:
        if rule_id in ("black", "stable_voting", "leximin"):
            continue
        report = axioms.check_reinforcement(rule_id, "full", 4)
        assert not report.holds, rule_id
        pairs = {frozenset(w.profiles[:2]) for w in report.witnesses}
        wanted = tie_pair if rule_id in ("copeland", "nanson") else cycle_pair
        assert wanted in pairs, rule_id


def test_criterion_05_proof_replays():
    """All scripted impossibility arguments replay from margin arithmetic."""
    started = time.perf_counter()
    assert satgen.SCRIPT_IDS == ("4.1", "4.3", "4.5")
    for script_id in satgen.SCRIPT_IDS:
        script = satgen.proof_replay(script_id)
        assert script.ok, script.render()
    elapsed = time.perf_counter() - started
    assert elapsed < 1.0, f"replays took {elapsed:.2f}s"


def test_criterion_06_sat_cross_validation():
    """CNF models line up with the checkers; the 5-voter instance is UNSAT."""
    assert satgen.check_assignment(satgen.build_instance(7), "artificial")
    assert satgen.check_assignment(satgen.build_instance(4), "leximin")

    # the instances hard-code exact-Condorcet-winner clauses, so only
    # Condorcet extensions are candidate models; for those, being a model is
    # exactly passing the merged-electorate check at the same bound
    for bound in (2, 3, 4, 5, 6):
        instance = satgen.build_instance(bound)
        for rule_id in rules.ALL_RULE_IDS:
            if rule_id in ("borda", "plurality"):
                continue
            modeled = satgen.check_assignment(instance, rule_id)
            verified = axioms.check_reinforcement(rule_id, "full", bound).holds
            assert modeled == verified, (rule_id, bound)

    neutral = satgen.build_instance(5, neutrality=True)
    assert satgen.solve_naive(neutral) is False


def test_criterion_07_scoring_counterexamples():
    """The classical profiles where rank counts overrule a Condorcet winner."""
    started = time.perf_counter()

    # strictly monotone scores must elect b although a beats everyone
    for text in ("30abc+1acb+29bac+10bca+10cab+1cba", "3abc+2bca+1bac+1cab"):
        prof = P(text)
        assert core.condorcet_winner(margins(prof)) == core.A, text
        assert rules.dominates_all_scoring(prof, core.B, "strict"), text

    # weakly monotone scores cannot drop b either; 11 voters is minimal
    for text in ("6abc+4bac+4bca+3cab", "4abc+2bac+3bca+2cab"):
        prof = P(text)
        assert core.condorcet_winner(margins(prof)) == core.A, text
        assert rules.dominates_all_scoring(prof, core.B, "weak"), text

    def weak_override(profile):
        winner = core.condorcet_winner(margins(profile))
        if winner is None:
            return False
        return any(
            rules.dominates_all_scoring(profile, x, "weak")
            for x in core.CANDIDATES
            if x != winner
        )

    assert weak_override(P("4abc+2bac+3bca+2cab"))
    assert enumeration.search(weak_override, 10, mode="first") == []

    # a Condorcet winner that no scoring vector can even tell apart from b
    prof = P("2abc+1bac+1bca+1cab")
    assert core.condorcet_winner(margins(prof)) == core.A
    assert rank_counts(prof, core.A) == rank_counts(prof, core.B) == (2, 2, 1)

    elapsed = time.perf_counter() - started
    assert elapsed < 300.0, f"scoring sweep took {elapsed:.1f}s"


def test_criterion_08_participation_suite():
    """Joining voters are never punished under the four main refinements."""
    started = time.perf_counter()
    for rule_id in ("maximin", "leximin", "nanson", "stable_voting"):
        for variant in ("optimist", "fishburn"):
            assert axioms.check_participation(rule_id, variant, 8).holds, (
                rule_id, variant)

    # strict Nanson drops a joining cab voter's winning top candidate
    before, after = P("2acb+2bac+2cba"), P("2acb+2bac+1cab+2cba")
    assert rules.evaluate("strict_nanson", before) == S("{a,b,c}")
    assert rules.evaluate("strict_nanson", after) == S("{a}")
    report = axioms.check_participation(
        "strict_nanson", "positive_involvement", 7)
    assert not report.holds
    assert (before, after) in {w.profiles for w in report.witnesses}

    # optimist participation = positive involvement + singleton negative
    # involvement, instance by instance
    assert axioms.verify_optimist_equivalence(7).holds

    # every rule passing positive involvement refines the defensible set
    for rule_id in rules.ALL_RULE_IDS:
        if rule_id in ("borda", "plurality"):
            continue
        if axioms.check_participation(rule_id, "positive_involvement", 8).holds:
            assert axioms.check_refinement(rule_id, "defensible", 8).holds, (
                rule_id)

    elapsed = time.perf_counter() - started
    assert elapsed < 600.0, f"participation sweep took {elapsed:.1f}s"


def test_criterion_09_responsiveness_and_strong_condorcet():
    """Promotion helps exactly where documented; one strong-Condorcet failure."""
    assert axioms.check_responsiveness("leximin", "positive", 8).holds
    assert axioms.check_responsiveness("nanson", "tiebreak_positive", 8).holds

    report = axioms.check_responsiveness("nanson", "positive", 8,
                                         max_witnesses=1)
    assert not report.holds and report.witnesses

    assert axioms.check_condorcet("nanson", "strong", 8).holds

    prof = P("1abc+1acb+2cab")
    assert core.intermediate_condorcet_winners(margins(prof)) == S("{a,c}")
    assert rules.evaluate("leximin", prof) == S("{a}")
    report = axioms.check_condorcet("leximin", "strong", 8)
    assert not report.holds
    assert prof in {w.profiles[0] for w in report.witnesses}


def test_criterion_10_irresoluteness_curves():
    """Tie frequencies match the published curves and keep falling."""
    started = time.perf_counter()
    for rule_id, printed_by_n in PUBLISHED_FRACTIONS.items():
        fractions = {}
        for n in range(4, 31, 2):
            fractions[n] = float(enumeration.irresoluteness(rule_id, n).fraction)
        for n, printed in printed_by_n.items():
            assert abs(fractions[n] - float(printed)) <= 1e-4, (rule_id, n)
        values = [fractions[n] for n in range(4, 31, 2)]
        assert all(late < early for early, late in zip(values, values[1:])), (
            rule_id)
    elapsed = time.perf_counter() - started
    assert elapsed < 60.0, f"curve sweep took {elapsed:.1f}s"


def test_criterion_11_mcgarvey_round_trip():
    """Every same-parity margin target in [-9, 9]^3 is realized exactly."""
    started = time.perf_counter()
    odd = range(-9, 10, 2)
    even = range(-8, 9, 2)
    targets = list(itertools.product(odd, repeat=3))
    targets += list(itertools.product(even, repeat=3))
    assert len(targets) == 1729
    for target in targets:
        assert margins(mcgarvey(target)) == target
    elapsed = time.perf_counter() - started
    assert elapsed < 1.0, f"round trip took {elapsed:.2f}s"
