"""Axiom checkers: pinned verdicts, witness plumbing, and cross-rule laws."""

import functools
import itertools
import random

import numpy as np
import pytest

from trivote import axioms, core, enumeration, rules
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


def test_maximin_participation_family_holds_at_bound_20():
    assert axioms.check_participation("maximin", "optimist", 20).holds
    assert axioms.check_participation("maximin", "fishburn", 20).holds
    assert axioms.check_participation("maximin", "positive_involvement", 20).holds
    assert axioms.check_participation(
        "maximin", "singleton_negative_involvement", 20
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


def probe_over_every_n(rule_id, profile, profile2, horizon):
    """The continuity probe as first defined: the rule is evaluated on every
    n from 1 to the horizon before any answer is read."""
    base = rules.evaluate(rule_id, profile)
    contained = [
        rules.evaluate(rule_id, core.combine(core.t_fold(profile, n), profile2)) <= base
        for n in range(1, horizon + 1)
    ]
    if not contained[-1]:
        return None
    first = horizon
    for n in range(horizon - 1, 0, -1):
        if not contained[n - 1]:
            break
        first = n
    return first


def test_the_probe_evaluates_down_from_the_horizon_to_the_first_failure(monkeypatch):
    electorates = []
    monkeypatch.setattr(axioms, "combine", lambda *pq: electorates.append(pq) or core.combine(*pq))
    profiles = [p for n in (1, 2, 3) for p in axioms.profiles_up_to(n, min_n=n)]
    rng = random.Random(20240814)
    pairs = [(p1, p2) for p1 in profiles for p2 in profiles]
    answers = set()
    for rule_id in ("maximin", "leximin", "black", "nanson"):
        for p1, p2 in rng.sample(pairs, 60):
            electorates.clear()
            answer = axioms.continuity_probe(rule_id, p1, p2, 12)
            assert answer == probe_over_every_n(rule_id, p1, p2, 12), (rule_id, p1, p2)
            # n = 12 down to the answer hold and the n below it fails, if any
            evaluated = 1 if answer is None else 12 - answer + 1 + (answer > 1)
            assert len(electorates) == evaluated, (rule_id, p1, p2)
            answers.add(min(answer or 0, 2))
    assert answers == {0, 1, 2}  # a failing horizon, a probe that holds throughout, a threshold
    electorates.clear()
    tied = P("1abc+1acb+2bac")
    assert axioms.continuity_probe("leximin", tied, P("2bac"), axioms.SWEEP_BUDGET) is None
    assert len(electorates) == 1  # a failing horizon costs one evaluation


# ---------------------------------------------------------------------------
# margin cells against the profile sweep
# ---------------------------------------------------------------------------


def _reinforcement(variant):
    return (
        lambda r, b: axioms.check_reinforcement(r, variant, b, max_witnesses=1),
        lambda r, b: axioms._reinforcement_sweep(r, variant, b),
    )


def _swept(checker, table):
    """(checker, the one sweep of the key table ``table(rule_id)``)"""
    return checker, lambda r, b: axioms._sweep(table(r), b)


def _participation(variant):
    return _swept(
        lambda r, b: axioms.check_participation(r, variant, b, max_witnesses=1),
        lambda r: axioms._participation_table(r, *axioms._PARTICIPATION[variant]),
    )


def _resolute(tiebreak):
    clause = functools.partial(axioms._resolute, tiebreak)
    return _swept(
        lambda r, b: axioms.check_resolute_participation(r, tiebreak, b, max_witnesses=1),
        lambda r: axioms._participation_table(r, "resolute", clause),
    )


def _responsiveness(variant, swaps):
    return _swept(
        lambda r, b: axioms.check_responsiveness(r, variant, b, swaps, max_witnesses=1),
        lambda r: axioms._responsiveness_table(r, variant, swaps),
    )


def _condorcet(variant):
    return _swept(
        lambda r, b: axioms.check_condorcet(r, variant, b, max_witnesses=1),
        lambda r: axioms._condorcet_table(r, variant),
    )


#: every checker variant decided over margin cells -> (checker, profile sweep)
CELL_VARIANTS = {
    **{f"reinforcement-{v}": _reinforcement(v) for v in ("full", "subset", "superset")},
    **{f"participation-{v}": _participation(v) for v in axioms._PARTICIPATION},
    **{f"resolute-{core.ORDER_NAMES[t]}": _resolute(t) for t in range(6)},
    "optimist_equivalence": _swept(
        lambda r, b: axioms.verify_optimist_equivalence(b, [r], max_witnesses=1),
        lambda r: axioms._participation_table(r, "equivalence", axioms._equivalence),
    ),
    **{
        f"responsiveness-{v}-{s}": _responsiveness(v, s)
        for v in ("monotonicity", "positive", "tiebreak_positive")
        for s in (1, 2)
    },
    "homogeneity": _swept(
        lambda r, b: axioms.check_homogeneity(r, b, max_witnesses=1),
        axioms._homogeneity_table,
    ),
    **{f"condorcet-{v}": _condorcet(v) for v in ("standard", "strong")},
    "neutrality": _swept(
        lambda r, b: axioms.check_neutrality(r, b, max_witnesses=1),
        axioms._neutrality_table,
    ),
    "refinement-maximin": _swept(
        lambda r, b: axioms.check_refinement(r, "maximin", b, max_witnesses=1),
        lambda r: axioms._refinement_table(r, "maximin"),
    ),
}


@pytest.mark.parametrize("variant", CELL_VARIANTS)
def test_cell_verdicts_match_the_profile_sweep(variant):
    """A margin rule's verdict over margin cells equals the profile sweep's.

    A cell that fails while no profile does makes the checker raise
    RuntimeError; a profile that fails while no cell does shows as a verdict
    mismatch here.
    """
    checker, sweep = CELL_VARIANTS[variant]
    verdicts = set()
    for rule_id in rules.PAIRWISE_RULE_IDS:
        for bound in range(2, 8):
            swept_holds = next(iter(sweep(rule_id, bound)), None) is None
            assert checker(rule_id, bound).holds == swept_holds, (rule_id, bound)
            verdicts.add(swept_holds)
    # every margin rule is neutral and homogeneous, and the equivalence is exact
    always_holds = ("optimist_equivalence", "homogeneity", "neutrality")
    assert verdicts == ({True} if variant in always_holds else {True, False})


def _biased(first, second):
    """a alone where the two forms of the margins are both positive or both
    not, else all three: constant on every sign face, not neutral, and not
    reinforcing, since b and c win on both sides of a merge that a wins."""
    a_alone = frozenset({0})
    return lambda m: a_alone if (first(*m) > 0) == (second(*m) > 0) else rules.ALL_CANDIDATES


#: margin rules that read the forms of the sign faces but break neutrality and
#: reinforcement: by the margins, the pairwise sums and the Borda differences
BIASED_RULES = {
    "biased_margins": _biased(lambda ab, ac, bc: ab, lambda ab, ac, bc: ac),
    "biased_sums": _biased(lambda ab, ac, bc: ab + ac, lambda ab, ac, bc: ab + bc),
    "biased_borda": _biased(
        lambda ab, ac, bc: 2 * ab + ac - bc, lambda ab, ac, bc: ab + 2 * ac + bc
    ),
}


def test_the_biased_margin_rules_keep_the_face_contract():
    triples = np.array(list(itertools.product(range(-12, 13), repeat=3)))
    triples = triples[(triples % 2 == triples[:, :1] % 2).all(axis=1)]
    faces = enumeration._face_positions(triples)
    for compute in BIASED_RULES.values():
        on_face = enumeration._face_codes(compute)[faces].tolist()
        assert on_face == [enumeration._CODE_OF[compute(tuple(m))] for m in triples.tolist()]


@pytest.mark.parametrize(
    "variant",
    ["homogeneity", "neutrality", "reinforcement-full", "reinforcement-subset"],
)
def test_cell_verdicts_of_a_biased_margin_rule_match_the_profile_sweep(monkeypatch, variant):
    checker, sweep = CELL_VARIANTS[variant]
    for rule_id, compute in BIASED_RULES.items():
        monkeypatch.setitem(rules.RULES, rule_id, rules.Rule(rules.MARGINS, compute))
        for bound in range(2, 8):
            swept_holds = next(iter(sweep(rule_id, bound)), None) is None
            assert checker(rule_id, bound).holds == swept_holds, (rule_id, bound)
        # 2m has m's face, so a face-determined rule is homogeneous
        assert swept_holds == (variant == "homogeneity"), rule_id


def test_each_key_maps_the_margins_as_it_maps_the_profile():
    keys = (
        axioms._PROMOTIONS[2] + axioms._JOINING_VOTER + axioms._DOUBLING
        + axioms._RELABELLINGS + axioms._EVERY_PROFILE
    )
    for profile in enumeration.profiles_up_to(4):
        m = np.array(core.margins(profile))
        for key in keys:
            second = key.profile(profile)
            holds = all(c >= k for c, k in zip(profile, key.need))
            assert (second is not None) == holds
            if second is not None:
                assert min(second) >= 0
                (matrix,), (offset,), *_ = axioms._margin_maps((key,))
                assert core.margins(second) == tuple(matrix @ m + offset)


# ---------------------------------------------------------------------------
# the pair walk the cell table replaced, kept as the oracle of its verdicts
# ---------------------------------------------------------------------------


def oracle_surplus_cells(bound):
    """Arrays (margins, surplus, size) over every surplus vector d with
    |d|_1 <= bound, the cells of ``bound`` and of ``bound - 1`` voters."""
    span = np.arange(-bound, bound + 1)
    d = np.stack(np.meshgrid(span, span, span, indexing="ij"), axis=-1).reshape(-1, 3)
    d = d[np.abs(d).sum(axis=1) <= bound]
    return d @ enumeration._SURPLUS_TO_MARGINS.T, enumeration._order_surplus(d), np.abs(d).sum(1)


def oracle_fewest_voters(surplus, size, needs, least):
    """The fewest voters, at least ``least``, of a profile in each cell that
    holds ``need[o]`` voters of each order o: |d|_1 plus two per voter pair
    the surplus lacks, raised in steps of two to ``least``; one row per need."""
    lack = np.maximum(np.asarray(needs)[..., None, :] - surplus, 0)
    orders, reverses = enumeration._ORDERS, enumeration._REVERSES
    n = size + 2 * np.maximum(lack[..., orders], lack[..., reverses]).sum(axis=-1)
    return n + np.maximum(least - n + 1, 0) // 2 * 2


def oracle_realized(bound, least, needs):
    """Blocks (key, margins) of the (key, cell) pairs that a profile with
    ``least <= n <= bound`` realizes, cells in order of |d|_1."""
    margins, surplus, size = oracle_surplus_cells(bound)
    order = np.argsort(size, kind="stable")
    step = max(1, axioms._BLOCK_ROWS // len(needs))
    for lo in range(0, len(order), step):
        rows = order[lo : lo + step]
        n = oracle_fewest_voters(surplus[rows], size[rows], needs, least)
        key, row = np.nonzero(n <= bound)
        yield key, margins[rows][row]


@functools.cache
def oracle_classes(keys, least, bound):
    """The classes (key, face of m, face of A m + b) that the pair walk
    realizes: each realized pair's margins and image keyed to their faces."""
    matrix = np.array([k.matrix for k in keys])
    offset = np.array([k.offset for k in keys])
    found = []
    for key, m in oracle_realized(bound, least, [k.need for k in keys]):
        image = np.einsum("kij,kj->ki", matrix[key], m) + offset[key]
        face, image = map(enumeration._keyed_positions, (m, image))
        found.append(np.unique((key * 267 + face) * 267 + image))
    classes = np.unique(np.concatenate(found))
    return np.stack((classes // 267**2, classes // 267 % 267, classes % 267))


def cells_fail(table, functions, bound):
    """The verdict of the walk over the margin cells: whether it lists."""
    return axioms._cell_witnesses(table, functions, bound) is not None


def reinforcement_cells_fail(f, variant, bound):
    """The verdict of reinforcement's walk over the cell pairs."""
    return axioms._pair_witnesses(f, variant, bound) is not None


def oracle_cells_fail(table, functions, bound):
    """``cells_fail`` read from the classes of the pair walk: the
    clause on each (key, output codes) they give."""
    key, face, image = oracle_classes(table.keys, table.least, bound)
    on_image = table.reads + (False,) * len(table.also)
    codes = [enumeration._face_codes(f)[image if i else face] for f, i in zip(functions, on_image)]
    for k, *row in sorted(set(zip(key.tolist(), *(c.tolist() for c in codes)))):
        if table.clause(table.keys[k].key, *(core.CHOICE_SETS[c] for c in row)) is not None:
            return True
    return False


def oracle_reinforcement_cells_fail(f, variant, bound):
    """``reinforcement_cells_fail`` by cells of int64 arrays, each
    cell pair's sum mapped to its face."""
    m, surplus, size = oracle_surplus_cells(bound - 1)
    n = oracle_fewest_voters(surplus, size, axioms._NOBODY, 1)
    order = np.argsort(n, kind="stable")
    m, n = m[order], n[order]
    codes = enumeration._face_codes(f)
    outputs = codes[enumeration._face_positions(m)]
    for i, j in axioms._cell_pairs(n, bound):
        out12 = codes[enumeration._face_positions(m[i] + m[j])]
        for a, b, c in set(zip(outputs[i].tolist(), outputs[j].tolist(), out12.tolist())):
            agreed = axioms._agreed(variant, core.CHOICE_SETS[a], core.CHOICE_SETS[b])
            if agreed is not None and axioms._reinforcement(
                variant, agreed, core.CHOICE_SETS[c]
            ) is not None:
                return True
    return False


def key_tables(rule_id):
    """Every key table of ``rule_id``, by name."""
    tables = {
        variant: axioms._participation_table(rule_id, *entry)
        for variant, entry in axioms._PARTICIPATION.items()
    }
    for tiebreak in (0, 5):
        clause = functools.partial(axioms._resolute, tiebreak)
        tables[f"resolute{tiebreak}"] = axioms._participation_table(rule_id, "r", clause)
    for variant, swaps in itertools.product(axioms._RESPONSIVENESS_AXIOMS, (1, 2)):
        tables[f"{variant}{swaps}"] = axioms._responsiveness_table(rule_id, variant, swaps)
    tables["homogeneity"] = axioms._homogeneity_table(rule_id)
    tables["neutrality"] = axioms._neutrality_table(rule_id)
    for variant in axioms._CONDORCET_AXIOMS:
        tables[variant] = axioms._condorcet_table(rule_id, variant)
    for upper in ("maximin", "nanson"):
        tables[f"refinement({upper})"] = axioms._refinement_table(rule_id, upper)
    return tables


def margin_functions(table):
    """The margin function of each output of ``table``."""
    compute = rules.RULES[table.rule].compute
    also = tuple(rules.RULES[g].compute if isinstance(g, str) else g for g in table.also)
    return (compute,) * len(table.reads) + also


MARGIN_RULES = [r for r, rule in rules.RULES.items() if rule.reads == rules.MARGINS]
ORACLE_BOUNDS = (9, 13, 16, 20)


@functools.cache
def oracle_verdicts():
    """Per (rule, table, bound), whether the pair walk finds a failing cell."""
    return {
        (rule_id, name, bound): oracle_cells_fail(table, margin_functions(table), bound)
        for rule_id in MARGIN_RULES
        for name, table in key_tables(rule_id).items()
        for bound in ORACLE_BOUNDS
    }


def empty_table(monkeypatch):
    """Empty the process's cell table while the test runs."""
    empty = enumeration._Cells(-1, *(column[:0] for column in enumeration._cells[1:]))
    monkeypatch.setattr(enumeration, "_cells", empty)


@pytest.mark.parametrize("reach", [None, 5, 30], ids=["fresh", "below", "past"])
def test_the_cell_table_gives_the_verdicts_of_the_pair_walk(monkeypatch, reach):
    """Every margin rule on every key table, with the process table empty,
    grown short of every bound, or past them: no stale prefix hides."""
    expected = oracle_verdicts()
    empty_table(monkeypatch)
    if reach is not None:
        enumeration._grow_cells(reach)
    found = {
        (rule_id, name, bound): cells_fail(table, margin_functions(table), bound)
        for rule_id in MARGIN_RULES
        for name, table in key_tables(rule_id).items()
        for bound in ORACLE_BOUNDS
    }
    assert found == expected
    assert enumeration._cells.reach == max(reach or 0, *ORACLE_BOUNDS)
    assert 0 < sum(found.values()) < len(found)


def test_reinforcement_over_the_cell_table_gives_the_verdicts_of_the_pair_walk(monkeypatch):
    empty_table(monkeypatch)
    enumeration._grow_cells(5)
    grid = itertools.product(MARGIN_RULES, axioms._REINFORCEMENT_AXIOMS, (4, 6, 9))
    for rule_id, variant, bound in grid:
        f = rules.RULES[rule_id].compute
        expected = oracle_reinforcement_cells_fail(f, variant, bound)
        assert reinforcement_cells_fail(f, variant, bound) == expected, (rule_id, variant)


#: the sweep budgets the listings are checked at: the real one, and budgets
#: that stop them at the first witness, early, and late
LISTING_BUDGETS = [axioms.SWEEP_BUDGET, 1, 40, 500]


def listed(violations):
    """The witnesses and the stop line of a listing, uncapped."""
    report = axioms._finish("rule", "axiom", 1, violations, None)
    return report.witnesses, report.stopped


@pytest.mark.parametrize("budget", LISTING_BUDGETS)
def test_the_cell_listing_gives_the_witnesses_of_the_sweep(monkeypatch, budget):
    """Every margin rule on every key table, at the bounds 3-7 in turn: the
    witnesses read from the failing rows of the walk, and the line that
    stops them, are the sweep's.  Where the cells hold there is no listing;
    that the sweep then finds nothing either is the verdict test's."""
    monkeypatch.setattr(axioms, "SWEEP_BUDGET", budget)
    bounds, stops, lists = itertools.cycle(range(3, 8)), 0, 0
    for rule_id in MARGIN_RULES:
        for name, table in key_tables(rule_id).items():
            bound, functions = next(bounds), margin_functions(table)
            listing = axioms._cell_witnesses(table, functions, bound)
            if listing is None:
                continue
            found = listed(listing)
            assert found == listed(axioms._sweep(table, bound)), (rule_id, name, bound)
            stopped = found[1]
            stops, lists = stops + bool(stopped), lists + 1
    assert lists > 100 and bool(stops) == (budget < LISTING_BUDGETS[0])


@pytest.mark.parametrize("budget", LISTING_BUDGETS)
def test_the_pair_listing_gives_the_witnesses_of_the_pair_sweep(monkeypatch, budget):
    """Every margin rule that violates a reinforcement variant at the bounds
    3-7 in turn: the witnesses read from the failing cell pairs, and the
    line that stops them, are the pair sweep's."""
    monkeypatch.setattr(axioms, "SWEEP_BUDGET", budget)
    bounds, stops, lists = itertools.cycle(range(3, 8)), 0, 0
    for rule_id, variant in itertools.product(MARGIN_RULES, axioms._REINFORCEMENT_AXIOMS):
        bound, f = next(bounds), rules.RULES[rule_id].compute
        listing = axioms._pair_witnesses(f, variant, bound)
        if listing is None:
            continue
        found = listed(listing)
        assert found == listed(axioms._reinforcement_sweep(rule_id, variant, bound)), (
            rule_id, variant, bound
        )
        stopped = found[1]
        stops, lists = stops + bool(stopped), lists + 1
    assert lists > 30 and bool(stops) == (budget < LISTING_BUDGETS[0])


def test_each_listed_witness_sits_at_its_index_in_the_sweep(monkeypatch):
    """The index each listing gives a witness, and the total that the budget
    stop compares, count the profiles (or profile pairs) the sweep visits;
    the indices never fall, so the stop may cut at the first past the budget."""
    totals = []
    monkeypatch.setattr(axioms, "_budgeted", lambda found, total, _: totals.append(total) or found)

    def witnesses(listing, visited):
        """The listed witnesses with what the sweep visits at their indices."""
        if listing is None:
            return []
        indexed = list(listing)
        assert totals.pop() == len(visited)
        assert all(a <= b for (a, _), (b, _) in zip(indexed, indexed[1:]))
        return [(visited[index], witness) for index, witness in indexed if witness is not None]

    bound, count = 6, 0
    pairs = list(axioms._profile_pairs(bound))
    for rule_id in ("copeland", "baldwin", "black", "nanson"):
        for name, table in key_tables(rule_id).items():
            profiles = list(enumeration.profiles_up_to(bound, table.least))
            listing = axioms._cell_witnesses(table, margin_functions(table), bound)
            for profile, witness in witnesses(listing, profiles):
                assert witness.profiles[table.reads.index(False)] == profile, name
                count += 1
        for variant in axioms._REINFORCEMENT_AXIOMS:
            listing = axioms._pair_witnesses(rules.RULES[rule_id].compute, variant, bound)
            for pair, witness in witnesses(listing, pairs):
                assert witness.profiles[:2] == pair, variant
                count += 1
    assert count > 1000


def test_colex_ranks_and_pair_indices_follow_the_sweeps():
    for n in range(1, 6):
        profiles = np.array(list(enumeration.ProfileCursor(n)))
        assert axioms._colex_ranks(profiles, n).tolist() == list(range(len(profiles)))
    for bound in range(2, 7):
        singles = list(enumeration.profiles_up_to(bound - 1))
        heads = [singles.index(first) for first, _ in axioms._profile_pairs(bound)]
        for index, first in enumerate(singles):
            expected = heads.index(index) if index in heads else len(heads)
            assert axioms._pairs_before(index, sum(first), bound) == expected


def test_the_cell_table_holds_each_cell_once_by_size():
    cells = enumeration._grow_cells(12)
    end = enumeration._cell_count(12)
    margins, surplus, size = oracle_surplus_cells(12)
    table = sorted(zip(cells.size[:end].tolist(), map(tuple, cells.margins[:end].tolist())))
    assert table == sorted(zip(size.tolist(), map(tuple, margins.tolist())))
    assert (np.diff(cells.size) >= 0).all()
    assert (cells.face[:end] == enumeration._keyed_positions(cells.margins[:end])).all()


def test_fewest_voters_is_the_smallest_realizing_profile():
    bound = 6
    keys = axioms._PROMOTIONS[2] + axioms._JOINING_VOTER + axioms._EVERY_PROFILE
    needs = sorted({key.need for key in keys})
    cells = enumeration._grow_cells(bound)
    end = enumeration._cell_count(bound)
    margins = [tuple(m) for m in cells.margins[:end].tolist()]
    assert len(set(margins)) == len(margins)
    extra = axioms._margin_maps(tuple(axioms._Key(None, need=need) for need in needs))[2]
    for least in (1, 2):
        smallest = {}
        for profile in enumeration.profiles_up_to(bound, min_n=least):
            for need in needs:
                if all(count >= k for count, k in zip(profile, need)):
                    key = (core.margins(profile), need)
                    smallest[key] = min(smallest.get(key, bound), sum(profile))
        voters = axioms._raised(cells.size[:end] + extra[:, cells.code[:end]], least).tolist()
        fewest = {
            (m, need): n
            for need, row in zip(needs, voters)
            for m, n in zip(margins, row)
            if n <= bound
        }
        assert fewest == smallest


def reinforcement_voters(bound):
    """The fewest voters of each cell of ``bound - 1``, ascending, as
    reinforcement pairs them."""
    cells = enumeration._grow_cells(bound - 1)
    return np.sort(axioms._raised(cells.size[: enumeration._cell_count(bound - 1)], 1))


def test_cell_pairs_arrive_in_bounded_blocks():
    bound = 10
    n = reinforcement_voters(bound)
    blocks = list(axioms._cell_pairs(n, bound))
    assert len(blocks) > 1
    assert all(len(i) == len(j) <= axioms._BLOCK_ROWS for i, j in blocks)
    pairs = np.concatenate([np.stack(block, axis=1) for block in blocks])
    expected = np.argwhere(np.triu(n[:, None] + n[None, :] <= bound))
    assert np.array_equal(pairs, expected)


def test_the_cell_pair_budget_counts_the_pairs_reinforcement_walks(monkeypatch):
    for bound in range(2, 13):
        n = reinforcement_voters(bound)
        pairs = sum(len(i) for i, _ in axioms._cell_pairs(n, bound))
        monkeypatch.setattr(axioms, "CELL_PAIR_BUDGET", pairs)
        axioms._refuse_oversized_pairs(bound)
        monkeypatch.setattr(axioms, "CELL_PAIR_BUDGET", pairs - 1)
        with pytest.raises(rules.BoundExceededError, match=f"needs {pairs} margin cell pairs"):
            axioms._refuse_oversized_pairs(bound)
    monkeypatch.undo()
    axioms._refuse_oversized_pairs(24)  # the largest bound the budget passes
    with pytest.raises(rules.BoundExceededError):
        axioms._refuse_oversized_pairs(25)


def test_a_holding_check_evaluates_each_triple_once_and_each_output_class_once(monkeypatch):
    triples, clauses = [], []
    maximin = rules.RULES["maximin"]

    def margin_rule(m):
        triples.append(m)
        return maximin.compute(m)

    def optimist(order, before, after):
        clauses.append((order, before, after))
        return axioms._optimist(order, before, after)

    monkeypatch.setitem(rules.RULES, "maximin", maximin._replace(compute=margin_rule))
    monkeypatch.setitem(axioms._PARTICIPATION, "optimist", ("optimist_participation", optimist))
    assert axioms.check_participation("maximin", "optimist", 12).holds
    assert triples and len(set(triples)) == len(triples)
    assert clauses and len(set(clauses)) == len(clauses) <= 6 * 8 * 8


@pytest.mark.parametrize(
    "rule_id, check",
    [
        ("maximin", lambda: axioms.check_participation("maximin", "optimist", 15)),
        ("borda", lambda: axioms.check_reinforcement("borda", "full", 10)),
    ],
    ids=["participation", "reinforcement"],
)
def test_a_holding_check_evaluates_a_registered_rule_once_per_sign_face(
    monkeypatch, rule_id, check
):
    triples = []
    rule = rules.RULES[rule_id]

    def margin_rule(m):
        triples.append(m)
        return rule.compute(m)

    # a registered rule, counted: constant on faces like the rule it wraps
    monkeypatch.setitem(rules.RULES, rule_id, rule._replace(compute=margin_rule))
    assert check().holds
    faces = enumeration._face_positions(np.array(triples)).tolist()
    assert sorted(faces) == list(range(267))
    evaluated = len(triples)
    assert check().holds
    assert len(triples) == evaluated


@pytest.mark.parametrize(
    "check",
    [
        lambda: axioms.check_condorcet("black", "standard", 12),
        lambda: axioms.check_condorcet("nanson", "strong", 12),
        lambda: axioms.check_refinement("leximin", "nanson", 12),
    ],
    ids=["condorcet", "strong_condorcet", "refinement"],
)
def test_a_per_profile_clause_is_called_once_per_output_class(monkeypatch, check):
    calls, widths = [], []
    cell_witnesses = axioms._cell_witnesses

    def counting(table, functions, bound):
        def counted(key, *outputs):
            calls.append(outputs)
            return table.clause(key, *outputs)

        widths.append(len(functions))
        return cell_witnesses(table._replace(clause=counted), functions, bound)

    monkeypatch.setattr(axioms, "_cell_witnesses", counting)
    assert check().holds
    (k,) = widths
    assert calls and len(set(calls)) == len(calls) <= 8**k


@pytest.mark.parametrize(
    "check",
    [
        lambda: axioms.check_responsiveness("baldwin", "monotonicity", 10, max_witnesses=50),
        lambda: axioms.check_participation("copeland", "optimist", 12),
        lambda: axioms.check_condorcet("borda", "standard", 12),
    ],
    ids=["monotonicity", "participation", "condorcet"],
)
def test_a_violated_check_decides_and_lists_from_one_walk(monkeypatch, check):
    """The walk that finds the first failing row goes on to list the
    witnesses, so the clause of each (key, outputs) class runs once."""
    calls = []
    failing_cells = axioms._failing_cells

    def counting(table, functions, bound, notes):
        def counted(key, *outputs):
            calls.append((key, outputs))
            return table.clause(key, *outputs)

        return failing_cells(table._replace(clause=counted), functions, bound, notes)

    monkeypatch.setattr(axioms, "_failing_cells", counting)
    assert not check().holds
    assert calls and len(set(calls)) == len(calls)


@pytest.mark.parametrize(
    "check, cells, reach",
    [
        (lambda: axioms.check_participation("maximin", "optimist", 15), 15, 16),
        (lambda: axioms.check_responsiveness("copeland", "monotonicity", 13, 2), 13, 17),
        (lambda: axioms.check_neutrality("stable_voting", 12), 12, -1),  # faces to faces
        (lambda: axioms.check_condorcet("black", "standard", 16), 16, -1),
        (lambda: axioms.check_reinforcement("borda", "full", 10), 9, 10),
        (lambda: axioms.check_homogeneity("maximin", 12), 12, -1),  # 2m has m's face
    ],
    ids=["participation", "two_swaps", "neutrality", "condorcet", "reinforcement", "homogeneity"],
)
def test_a_holding_check_keys_no_row_outside_the_box_fill(monkeypatch, check, cells, reach):
    """A check in a fresh process keys each cell of its bound to its face
    once, as it grows the cell table, and fills the box once only when it
    reads shifted images (or pair sums) through it."""
    keyed = []
    face_keys = enumeration._face_keys

    def counting(m):
        keyed.append(len(m))
        return face_keys(m)

    assert check().holds  # the per-table lookups and the codes are cached
    empty_table(monkeypatch)
    monkeypatch.setattr(enumeration, "_box", enumeration._box._replace(reach=-1))
    monkeypatch.setattr(enumeration, "_face_keys", counting)
    assert check().holds
    assert (enumeration._cells.reach, enumeration._box.reach) == (cells, reach)
    box = (reach + 1) ** 3 + reach**3 if reach >= 0 else 0
    assert sum(keyed) == enumeration._cell_count(cells) + box


def unique_new_classes(classes, seen):
    """The reference: one row of each class not seen, by a sort."""
    _, rows = np.unique(classes, return_index=True)
    rows = rows[~seen[classes[rows]]]
    seen[classes[rows]] = True
    return rows


def test_new_classes_agrees_with_a_sorting_reference():
    generator = np.random.default_rng(5)
    for size, classes in ((40, 64), (2048, 384), (0, 8), (500, 1)):
        seen = generator.random(classes) < 0.3
        expected_seen = seen.copy()
        for _ in range(3):
            rows = generator.integers(0, classes, size)
            found = axioms._new_classes(rows, seen)
            expected = unique_new_classes(rows, expected_seen)
            assert (np.diff(found) > 0).all()  # in row order
            assert sorted(rows[found].tolist()) == sorted(rows[expected].tolist())
            assert (seen == expected_seen).all()


@pytest.mark.parametrize(
    "rule_ids", [None, ["plurality"], ["artificial"], ["maximin"]],
    ids=["all", "plurality", "artificial", "maximin"],
)
def test_optimist_equivalence_evaluates_no_rule_and_builds_no_cell(monkeypatch, rule_ids):
    def no_work(*args):
        raise AssertionError("optimist_equivalence evaluated a rule or built a cell")

    for module, name in ((rules, "_evaluate_cached"), (axioms, "_grow_cells"), (axioms, "_sweep")):
        monkeypatch.setattr(module, name, no_work)
    for bound in (2, 12, 13, 10**12):
        report = axioms.verify_optimist_equivalence(bound, rule_ids)
        assert (report.rule, report.bound, report.verdict) == ("all", bound, axioms.HOLDS)


def _never_fails(order, before, after):
    return None


def _always_fails(order, before, after):
    return "broken"


@pytest.mark.parametrize("broken", [_never_fails, _always_fails])
def test_a_broken_clause_never_lets_optimist_equivalence_hold(monkeypatch, broken):
    monkeypatch.setattr(axioms, "_positive_involvement", broken)
    for bound, rule_ids in ((2, None), (6, ["maximin"]), (10**12, ["plurality"])):
        with pytest.raises(RuntimeError, match="optimist_equivalence fails on winners"):
            axioms.verify_optimist_equivalence(bound, rule_ids)


def test_every_rule_elects_someone():
    """The precondition of deciding optimist_equivalence on non-empty winner
    sets: no registered rule returns the empty set."""
    for rule_id, rule in rules.RULES.items():
        if rule.reads == rules.MARGINS:
            assert 0 not in enumeration._face_codes(rule.compute), rule_id
    for rule_id in ("plurality", "scoring:2,1,0", "artificial", "dodgson", "young"):
        bound = min(12, rules.resolve(rule_id)[1].max_voters)
        for profile in enumeration.profiles_up_to(bound):
            assert rules.evaluate_uncached(rule_id, profile), (rule_id, profile)


def no_fibres(monkeypatch):
    """Make every cell's fibre empty while the test runs."""
    empty = np.zeros(0, dtype=np.intp), np.zeros((0, 6), dtype=np.int64)
    monkeypatch.setattr(axioms, "_fibres", lambda m, n, lack: empty)


def test_a_failing_cell_without_a_failing_profile_is_an_error(monkeypatch):
    no_fibres(monkeypatch)
    with pytest.raises(RuntimeError, match="a margin cell fails but no profile up to 10 does"):
        axioms.check_responsiveness("baldwin", "monotonicity", 10)


def test_a_failing_cell_pair_without_a_failing_profile_pair_is_an_error(monkeypatch):
    no_fibres(monkeypatch)
    with pytest.raises(RuntimeError, match="a margin cell fails but no profile up to 6 does"):
        axioms.check_reinforcement("nanson", "full", 6)


@pytest.fixture
def evaluations(monkeypatch):
    """Count the rule evaluations made while the test runs."""
    calls = []
    cached = rules._evaluate_cached

    def counting(rule_id, profile):
        calls.append(rule_id)
        return cached(rule_id, profile)

    monkeypatch.setattr(rules, "_evaluate_cached", counting)
    return calls


def test_a_holding_margin_rule_check_evaluates_no_profile(evaluations):
    assert axioms.check_reinforcement("borda", "full", 6).holds
    assert axioms.check_participation("maximin", "optimist", 8).holds
    assert axioms.check_resolute_participation("maximin", 2, 6).holds
    assert axioms.check_responsiveness("copeland", "monotonicity", 6).holds
    assert axioms.check_homogeneity("maximin", 6).holds
    assert axioms.check_condorcet("black", "standard", 6).holds
    assert axioms.check_neutrality("stable_voting", 6).holds
    assert axioms.check_refinement("leximin", "nanson", 6).holds
    assert axioms.verify_optimist_equivalence(6, ["maximin", "borda"]).holds
    assert evaluations == []


@pytest.mark.parametrize("rule_id", ["plurality", "artificial"])
def test_rules_reading_more_than_margins_are_swept(evaluations, rule_id):
    assert axioms.check_participation(rule_id, "optimist", 5).holds
    assert axioms.check_responsiveness(rule_id, "monotonicity", 5).holds
    assert set(evaluations) == {rule_id}


def test_a_margin_rule_refined_by_a_profile_rule_is_swept(evaluations):
    assert axioms.check_refinement("maximin", "artificial", 5).holds is False
    assert set(evaluations) >= {"maximin", "artificial"}


def test_sweep_sizes_count_the_instances_each_sweep_visits(monkeypatch):
    # per kind, a table whose sweep calls its clause once per instance it takes
    tables = {
        "profiles": axioms._condorcet_table("plurality", "standard"),
        "removal instances": axioms._participation_table("plurality", "x", axioms._optimist),
    }
    electorates = []  # the continuity probe combines n P and Q once per electorate
    monkeypatch.setattr(axioms, "combine", lambda *pq: electorates.append(pq) or core.combine(*pq))
    for bound in range(2, 8):
        sizes = {instances: size(bound) for instances, size in axioms._SWEEP_SIZE.items()}
        visited = {"profile pairs": sum(1 for _ in axioms._profile_pairs(bound))}
        electorates.clear()
        axioms.continuity_probe("plurality", P("2abc"), P("1cba"), bound)
        visited["electorates"] = len(electorates)
        for instances, table in tables.items():
            assert table.instances == instances
            taken = []
            counted = table._replace(clause=lambda key, *outputs: taken.append(key))
            assert next(axioms._sweep(counted, bound), None) is None
            visited[instances] = len(taken)
        assert sizes == visited


@pytest.mark.parametrize("rule_id", ["plurality", "scoring:2,1,0", "artificial"])
def test_an_oversized_sweep_is_refused_before_any_profile(monkeypatch, evaluations, rule_id):
    def no_work(*args, **kwargs):
        raise AssertionError("work began before the sweep budget was checked")

    for name in ("profiles_up_to", "_stepper", "_grow_cells"):
        monkeypatch.setattr(axioms, name, no_work)
    bound = 10**5
    checks = [
        lambda: axioms.check_reinforcement(rule_id, "full", bound),
        lambda: axioms.check_participation(rule_id, "optimist", bound),
        lambda: axioms.check_resolute_participation(rule_id, 0, bound),
        lambda: axioms.check_responsiveness(rule_id, "monotonicity", bound),
        lambda: axioms.check_homogeneity(rule_id, bound),
        lambda: axioms.check_condorcet(rule_id, "standard", bound),
        lambda: axioms.check_neutrality(rule_id, bound),
        # with a margin rule, at a bound whose margin tables fit the budget
        lambda: axioms.check_refinement("maximin", rule_id, 20),
    ]
    for check in checks:
        with pytest.raises(rules.BoundExceededError, match="over the budget of 200000"):
            check()
    assert evaluations == []


def test_the_sweep_budget_passes_the_largest_bounds_it_names():
    for instances, largest in (("profiles", 19), ("removal instances", 14), ("profile pairs", 9)):
        axioms._refuse_oversized_sweep(largest, instances)
        with pytest.raises(rules.BoundExceededError):
            axioms._refuse_oversized_sweep(largest + 1, instances)
