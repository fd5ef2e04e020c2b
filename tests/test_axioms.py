"""Axiom checkers: pinned verdicts, witness plumbing, and cross-rule laws."""

import itertools
import random

import pytest

from trivote import axioms, core, rules
from trivote.axioms import AxiomReport, Witness
from trivote.core import parse_choice_set, parse_profile


def P(text):
    return parse_profile(text)


def S(text):
    return parse_choice_set(text)


# ---------------------------------------------------------------------------
# report and witness plumbing
# ---------------------------------------------------------------------------


def test_report_verdict_must_agree_with_witnesses():
    w = Witness("homogeneity", (P("1abc"),), (S("{a}"),), "note")
    with pytest.raises(ValueError):
        AxiomReport("maximin", "homogeneity", 4, "holds-up-to-bound", (w,))
    with pytest.raises(ValueError):
        AxiomReport("maximin", "homogeneity", 4, "violated", ())
    with pytest.raises(ValueError):
        AxiomReport("maximin", "homogeneity", 4, "maybe", ())


def test_report_render_format():
    report = axioms.check_homogeneity("artificial", 4, max_witnesses=1)
    lines = report.render().splitlines()
    assert lines[0] == "artificial axiom=homogeneity bound=4 verdict=violated"
    assert lines[1].startswith("    ")
    assert "->" in lines[1]
    held = axioms.check_homogeneity("maximin", 4)
    assert held.render() == "maximin axiom=homogeneity bound=4 verdict=holds-up-to-bound"


def test_every_witness_replays():
    reports = [
        axioms.check_reinforcement("nanson", "full", 4),
        axioms.check_participation("strict_nanson", "positive_involvement", 7),
        axioms.check_responsiveness("nanson", "positive", 6),
        axioms.check_homogeneity("artificial", 6),
        axioms.check_condorcet("leximin", "strong", 6),
        axioms.check_refinement("black", "uc_gillies", 6),
        axioms.check_neutrality("artificial", 4),
    ]
    for report in reports:
        assert report.verdict == "violated"
        for witness in report.witnesses:
            for profile, output in zip(witness.profiles, witness.outputs):
                assert rules.evaluate(report.rule, profile) == output


def test_bad_arguments_are_rejected():
    with pytest.raises(ValueError):
        axioms.check_reinforcement("maximin", "partial", 4)
    with pytest.raises(ValueError):
        axioms.check_reinforcement("maximin", "full", 1)
    with pytest.raises(ValueError):
        axioms.check_participation("maximin", "pessimist", 4)
    with pytest.raises(ValueError):
        axioms.check_condorcet("maximin", "weak", 4)
    with pytest.raises(ValueError):
        axioms.check_responsiveness("maximin", "negative", 4)
    with pytest.raises(ValueError):
        axioms.check_homogeneity("maximin", 0)
    with pytest.raises(ValueError):
        axioms.continuity_probe("maximin", P("1abc"), P("1cba"), 0)


@pytest.mark.parametrize("cap", [-1, 0])
def test_a_witness_cap_below_one_is_rejected(cap):
    with pytest.raises(ValueError, match="max_witnesses must be at least 1"):
        axioms.check_reinforcement("nanson", "full", 8, max_witnesses=cap)
    with pytest.raises(ValueError, match="max_witnesses must be at least 1"):
        axioms.check_neutrality("artificial", 4, max_witnesses=cap)


# ---------------------------------------------------------------------------
# reinforcement
# ---------------------------------------------------------------------------


def test_reinforcement_verdicts_at_bound_4():
    assert axioms.check_reinforcement("black", "full", 4).holds
    assert axioms.check_reinforcement("stable_voting", "full", 4).holds
    assert axioms.check_reinforcement("leximin", "full", 4).holds
    for rule_id in ("maximin", "nanson", "strict_nanson", "copeland", "top_cycle",
                    "uc_mckelvey", "banks", "uc_gillies", "defensible", "llull"):
        assert not axioms.check_reinforcement(rule_id, "full", 4).holds, rule_id


def test_nanson_reinforcement_witness_pair():
    p1, p2 = P("1abc+1bac"), P("1abc+1bca")
    merged = core.combine(p1, p2)
    assert rules.evaluate("nanson", p1) == S("{a,b}")
    assert rules.evaluate("nanson", p2) == S("{b}")
    assert rules.evaluate("nanson", merged) == S("{a,b}")
    report = axioms.check_reinforcement("nanson", "full", 4)
    recorded = {tuple(w.profiles) for w in report.witnesses}
    assert (p1, p2, merged) in recorded


def test_one_sided_merge_violation_hits_every_rule_with_an_open_graph_d_cell():
    # merging a lone acb voter into the rotation-invariant cycle forces {a}
    single, cycle = P("1acb"), P("1abc+1bca+1cab")
    merged = core.combine(single, cycle)
    assert core.classify(core.margins(merged)).kind == "D"
    for rule_id, cells in rules._TABLE.items():
        f1 = rules.evaluate(rule_id, single)
        f2 = rules.evaluate(rule_id, cycle)
        fm = rules.evaluate(rule_id, merged)
        assert f1 & f2 == S("{a}")
        d_cell_is_a = cells[core.CLASS_LETTERS.index("D")] == "a"
        assert (fm == S("{a}")) == d_cell_is_a, rule_id


def test_subset_and_superset_variants_relate_to_full():
    # a full violation must violate subset or superset on the same pair
    full = axioms.check_reinforcement("maximin", "full", 4)
    sub = axioms.check_reinforcement("maximin", "subset", 4)
    sup = axioms.check_reinforcement("maximin", "superset", 4)
    broken = {tuple(w.profiles) for w in sub.witnesses} | {
        tuple(w.profiles) for w in sup.witnesses
    }
    assert {tuple(w.profiles) for w in full.witnesses} <= broken


# ---------------------------------------------------------------------------
# the scoring-filtered maximin refinement ("artificial" rule)
# ---------------------------------------------------------------------------


def test_artificial_reinforcement_envelope():
    assert axioms.check_reinforcement("artificial", "full", 7).holds
    assert axioms.check_reinforcement("artificial", "subset", 8).holds
    broken = axioms.check_reinforcement("artificial", "full", 8, max_witnesses=1)
    assert not broken.holds
    p1, p2, merged = broken.witnesses[0].profiles
    assert core.total_voters(p1) + core.total_voters(p2) == 8
    assert core.combine(p1, p2) == merged


def test_artificial_monotone_and_homogeneity_breaks_at_eight():
    assert axioms.check_responsiveness("artificial", "monotonicity", 7).holds
    assert axioms.check_participation("artificial", "optimist", 7).holds
    assert not axioms.check_homogeneity("artificial", 8).holds
    # an eight-voter witness where a and c are the weak Condorcet winners
    witness = P("2acb+2bac+2cab+2cba")
    doubled = core.t_fold(witness, 2)
    assert rules.evaluate("artificial", witness) == S("{a,c}")
    assert rules.evaluate("artificial", doubled) == S("{c}")


def test_artificial_neutrality_checker_finds_the_cycle_witness():
    report = axioms.check_neutrality("artificial", 3)
    assert not report.holds
    assert any(w.profiles[0] == P("1abc+1bca+1cab") for w in report.witnesses)
    assert axioms.check_neutrality("maximin", 6).holds
    assert axioms.check_neutrality("leximin", 6).holds


# ---------------------------------------------------------------------------
# participation
# ---------------------------------------------------------------------------


def test_maximin_participation_family_holds_at_bound_8():
    assert axioms.check_participation("maximin", "optimist", 8).holds
    assert axioms.check_participation("maximin", "fishburn", 8).holds
    assert axioms.check_participation("maximin", "positive_involvement", 8).holds
    assert axioms.check_participation(
        "maximin", "singleton_negative_involvement", 8
    ).holds


def test_strict_nanson_positive_involvement_witness():
    before = P("2acb+2bac+2cba")
    after = core.combine(before, P("1cab"))
    assert rules.evaluate("strict_nanson", before) == S("{a,b,c}")
    assert rules.evaluate("strict_nanson", after) == S("{a}")
    report = axioms.check_participation("strict_nanson", "positive_involvement", 7)
    assert not report.holds
    assert any(w.profiles == (before, after) or w.profiles == (after, before)
               for w in report.witnesses)


def test_resolute_participation():
    for order in range(6):
        assert axioms.check_resolute_participation("maximin", order, 8).holds
    assert axioms.check_resolute_participation("leximin", 0, 8).holds
    report = axioms.check_resolute_participation("copeland", 0, 8, max_witnesses=1)
    assert not report.holds


@pytest.mark.parametrize("tiebreak", [6, -1])
def test_resolute_participation_rejects_a_tiebreak_outside_the_orders(tiebreak):
    with pytest.raises(ValueError, match="tiebreak"):
        axioms.check_resolute_participation("maximin", tiebreak, 4)


def test_optimist_equivalence_is_instance_exact():
    assert axioms.verify_optimist_equivalence(6).holds
    # above their voter cap the search rules are left out, not refused
    assert axioms.verify_optimist_equivalence(10).holds
    with pytest.raises(ValueError):
        axioms.verify_optimist_equivalence(1)


# ---------------------------------------------------------------------------
# responsiveness
# ---------------------------------------------------------------------------


def test_responsiveness_verdicts():
    assert axioms.check_responsiveness(
        "leximin", "positive", 8, max_simultaneous_swaps=2
    ).holds
    assert axioms.check_responsiveness("nanson", "tiebreak_positive", 8).holds
    assert not axioms.check_responsiveness("nanson", "positive", 8).holds
    assert axioms.check_responsiveness("maximin", "monotonicity", 6).holds


# ---------------------------------------------------------------------------
# homogeneity and condorcet variants
# ---------------------------------------------------------------------------


def test_homogeneity_verdicts():
    assert axioms.check_homogeneity("maximin", 10).holds
    assert axioms.check_homogeneity("black", 8).holds
    assert axioms.check_homogeneity("leximin", 8).holds


def test_condorcet_consistency_of_the_condorcet_extensions():
    heavy = {"dodgson": 6, "young": 6}
    for rule_id in rules.ALL_RULE_IDS:
        if rule_id in ("borda", "plurality"):
            continue
        bound = heavy.get(rule_id, 8)
        assert axioms.check_condorcet(rule_id, "standard", bound).holds, rule_id


def test_strong_condorcet_verdicts():
    assert axioms.check_condorcet("nanson", "strong", 8).holds
    witness = P("1abc+1acb+2cab")
    assert core.classify(core.margins(witness)).kind == "F"
    assert core.intermediate_condorcet_winners(core.margins(witness)) == S("{a,c}")
    assert rules.evaluate("leximin", witness) == S("{a}")
    report = axioms.check_condorcet("leximin", "strong", 6)
    assert not report.holds
    assert any(w.profiles[0] == witness for w in report.witnesses)


# ---------------------------------------------------------------------------
# the refinement order between the ordinal rules
# ---------------------------------------------------------------------------

# covering edges (lower, upper) of the refinement order over the twelve
# ordinal rules plus black and baldwin, reconstructed exactly from the
# class-table cells and pinned here as data
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


@pytest.mark.parametrize("lower,upper", COVERING_EDGES)
def test_every_covering_edge_is_a_refinement_up_to_8(lower, upper):
    assert axioms.check_refinement(lower, upper, 8).holds


def test_covering_edges_match_the_class_table():
    order = {}
    ids = list(rules._TABLE)
    for lo in ids:
        for up in ids:
            order[(lo, up)] = all(
                rules._CELLS[a] <= rules._CELLS[b]
                for a, b in zip(rules._TABLE[lo], rules._TABLE[up])
            )
    nodes = ids + ["black", "baldwin"]
    for up in ids:
        order[("black", up)] = up == "banks" or order.get(("banks", up), False)
        order[("baldwin", up)] = up == "defensible" or order.get(
            ("defensible", up), False
        )
    for lo in nodes:
        order[(lo, "black")] = order[(lo, "baldwin")] = False
        order[(lo, lo)] = True
    edges = set()
    for lo in nodes:
        for up in nodes:
            if lo == up or not order[(lo, up)]:
                continue
            if any(
                z not in (lo, up) and order[(lo, z)] and order[(z, up)]
                for z in nodes
            ):
                continue
            edges.add((lo, up))
    assert edges == set(COVERING_EDGES)


def test_non_refinement_witnesses_quoted_in_the_poset_analysis():
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


def test_positive_involvement_implies_defensible_refinement():
    """Condorcet extensions passing positive involvement refine defensible."""
    heavy = {"dodgson": 6, "young": 6}
    for rule_id in rules.ALL_RULE_IDS:
        if rule_id in ("borda", "plurality"):
            continue
        bound = heavy.get(rule_id, 8)
        if axioms.check_participation(rule_id, "positive_involvement", bound).holds:
            assert axioms.check_refinement(rule_id, "defensible", bound).holds, rule_id


def test_homogeneous_optimist_rules_refine_maximin():
    """Condorcet + homogeneity + optimist participation forces a maximin refinement.

    The participation hypothesis needs bound 9: the defensible set still
    passes at 8 (its first optimist failure joins a bca voter to
    4abc+2bca+2cab) while already failing to refine maximin at 8.
    """
    # doubling inside the homogeneity check caps dodgson/young at 4 voters
    bounds = {"dodgson": (4, 6, 6), "young": (4, 6, 6)}
    for rule_id in rules.ALL_RULE_IDS:
        if rule_id in ("borda", "plurality"):
            continue
        homog_bound, optimist_bound, refine_bound = bounds.get(rule_id, (8, 9, 8))
        if (
            axioms.check_homogeneity(rule_id, homog_bound).holds
            and axioms.check_participation(rule_id, "optimist", optimist_bound).holds
        ):
            assert axioms.check_refinement(rule_id, "maximin", refine_bound).holds, rule_id
    report = axioms.check_participation("defensible", "optimist", 9, max_witnesses=1)
    assert not report.holds
    assert report.witnesses[0].profiles == (P("4abc+2bca+2cab"), P("4abc+3bca+2cab"))


# ---------------------------------------------------------------------------
# continuity probe
# ---------------------------------------------------------------------------


def test_maximin_probe_settles_on_small_pairs():
    profiles = [p for n in (1, 2, 3) for p in axioms.profiles_up_to(n, min_n=n)]
    rng = random.Random(20240814)
    pairs = [(p1, p2) for p1 in profiles for p2 in profiles]
    for p1, p2 in rng.sample(pairs, 300):
        assert axioms.continuity_probe("maximin", p1, p2, 30) is not None, (p1, p2)


def test_leximin_probe_reports_a_persistent_tiebreak_violation():
    tied = P("1abc+1acb+2bac")  # maximin ties a and b, leximin breaks to {a}
    assert rules.evaluate("maximin", tied) == S("{a,b}")
    assert rules.evaluate("leximin", tied) == S("{a}")
    assert axioms.continuity_probe("leximin", tied, P("2bac"), 30) is None
    assert axioms.continuity_probe("maximin", tied, P("2bac"), 30) is not None


def test_probe_with_empty_minority_settles_immediately():
    empty = (0,) * 6
    for rule_id in ("maximin", "leximin", "black", "nanson"):
        assert axioms.continuity_probe(rule_id, P("1abc+1bca+1cab"), empty, 10) == 1
        assert axioms.continuity_probe(rule_id, P("2abc+1cba"), empty, 10) == 1
