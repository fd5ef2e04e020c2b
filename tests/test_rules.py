"""Rule semantics: pinned outputs, table fidelity, the maximin cluster, invariants."""

import functools
import itertools
import random
from fractions import Fraction

import pytest

from trivote import core, rules
from trivote.core import (
    combine,
    margins,
    mcgarvey,
    parse_choice_set,
    parse_profile,
    permute_choice_set,
    permute_profile,
)


def P(text):
    return parse_profile(text)


def S(text):
    return parse_choice_set(text)


def profiles_with(n):
    """All anonymous profiles with exactly n voters."""
    for c0 in range(n + 1):
        for c1 in range(n - c0 + 1):
            for c2 in range(n - c0 - c1 + 1):
                for c3 in range(n - c0 - c1 - c2 + 1):
                    for c4 in range(n - c0 - c1 - c2 - c3 + 1):
                        yield (c0, c1, c2, c3, c4, n - c0 - c1 - c2 - c3 - c4)


def profiles_up_to(max_n, min_n=1):
    for n in range(min_n, max_n + 1):
        yield from profiles_with(n)


# the published outputs of the ordinal rules on the canonical representative
# of each class (columns A..L), frozen independently of the engine's table
EXPECTED_CELLS = {
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


def expected_on_profile(rule_id, profile):
    """Canonical table cell mapped through the profile's class relabeling."""
    cls = core.classify(margins(profile))
    column = core.CLASS_LETTERS.index(cls.kind)
    cell = S("{" + ",".join(EXPECTED_CELLS[rule_id].split()[column]) + "}")
    return frozenset(x for x in core.CANDIDATES if cls.relabel[x] in cell)


# ---------------------------------------------------------------------------
# pinned single-profile outputs


@pytest.mark.parametrize(
    "rule,profile,winners",
    [
        ("maximin", "4abc+2bca+3cab", "{a}"),
        ("maximin", "1abc+1bca+1cab", "{a,b,c}"),
        ("maximin", "3abc+3bca+2cab+1acb", "{a}"),
        ("leximin", "1acb+1cab", "{a,c}"),
        ("leximin", "1abc+1acb+2cab", "{a}"),
        ("leximin", "2abc+1bca+2cab", "{a}"),
        ("nanson", "1abc+1acb+2cab", "{a,c}"),
        ("nanson", "2abc+1bca+2cab", "{a}"),
        ("strict_nanson", "2abc+1bca+2cab", "{c}"),
        ("black", "3abc+1bca+4cab", "{a}"),
        ("black", "4acb+5bac+3cab+5cba", "{c}"),
        ("black", "2acb+1cab", "{a}"),
        ("baldwin", "4acb+5bac+3cab+5cba", "{a}"),
        ("baldwin", "1abc+3bca+4cab", "{b,c}"),
        ("baldwin", "1abc+1bca+1cab", "{a,b,c}"),
        ("copeland", "1abc+1cab", "{a}"),
        ("copeland", "1acb+1cab", "{a,c}"),
        ("copeland", "1abc+1bca+1cab", "{a,b,c}"),
        ("top_cycle", "1acb+1cab", "{a,c}"),
        ("top_cycle", "3abc+1bca+2cab", "{a,b,c}"),
        ("top_cycle", "2acb+1cab", "{a}"),
        ("defensible", "4abc+2bca+3cab", "{a,c}"),
        ("defensible", "1abc+1bca+1cab", "{a,b,c}"),
        ("borda", "2abc+1bca+2cab", "{a}"),
        ("borda", "1abc", "{a}"),
        ("plurality", "3abc+2bca+1bac+1cab", "{a,b}"),
        ("scoring:2,1,0", "1abc", "{a}"),
        ("scoring:3,1/2,0", "1abc", "{a}"),
        ("split_cycle", "4abc+2bca+3cab", "{a}"),
        ("kemeny", "1abc+1bca+1cab", "{a,b,c}"),
        ("beat_path", "2acb+1cab", "{a}"),
        ("ranked_pairs", "4abc+2bca+3cab", "{a}"),
        ("dodgson", "1abc+1bca+1cab", "{a,b,c}"),
        ("young", "2acb+1cab", "{a}"),
        ("artificial", "1abc+1acb+1bac+1bca+1cab+1cba", "{a}"),
        ("artificial", "1abc+1bca+1cab", "{a}"),
        ("artificial", "2acb+1cab", "{a}"),
        ("stable_voting", "1abc+1cab", "{a}"),
        ("uc_gillies", "3abc+1bca+2cab", "{a,c}"),
        ("llull", "2abc+1bca+1cab", "{a}"),
        ("uc_bordes", "3abc+1bca+2cab", "{a,b}"),
        ("schwartz", "2abc+1bca+1cab", "{a}"),
        ("uc_fishburn", "2abc+1bca+1cab", "{a}"),
    ],
)
def test_pinned_rule_outputs(rule, profile, winners):
    assert rules.evaluate(rule, P(profile)) == S(winners)


def test_baldwin_diverges_from_the_leaf_rules():
    # the 17-voter profile where Baldwin disagrees with every rule below it
    prof = P("4acb+5bac+3cab+5cba")
    assert rules.evaluate("baldwin", prof) == S("{a}")
    for other in ("black", "leximin", "strict_nanson"):
        assert rules.evaluate(other, prof) == S("{c}")


@pytest.mark.parametrize(
    "profile,x,mode,expected",
    [
        ("3abc+2bca+1bac+1cab", core.B, "strict", True),
        ("3abc+2bca+1bac+1cab", core.B, "weak", False),
        ("4abc+3bca+2bac+2cab", core.B, "weak", True),
        ("2abc+1bac+1bca+1cab", core.A, "strict", False),
    ],
)
def test_dominates_all_scoring(profile, x, mode, expected):
    assert rules.dominates_all_scoring(P(profile), x, mode) is expected


def test_dominance_examples_have_condorcet_winner_a():
    for text in ("3abc+2bca+1bac+1cab", "4abc+3bca+2bac+2cab"):
        assert core.condorcet_winner(margins(P(text))) == core.A


# ---------------------------------------------------------------------------
# the table engine


def test_linked_profiles_match_table_cells():
    for profile_text in LINKED_PROFILES:
        prof = P(profile_text)
        for rule_id in rules.TABLE_RULE_IDS:
            canonical = rules.RULE_ALIASES.get(rule_id, rule_id)
            assert rules.table_rule(rule_id, prof) == expected_on_profile(
                canonical, prof
            ), (rule_id, profile_text)


def test_table_rule_rejects_non_table_ids():
    for rule_id in ("borda", "plurality", "black", "baldwin", "nope"):
        with pytest.raises(rules.UnsupportedRuleError):
            rules.table_rule(rule_id, P("1abc"))


def test_table_rule_handles_condorcet_winners():
    assert rules.table_rule("stable_voting", P("2acb+1cab")) == S("{a}")
    assert rules.table_rule("top_cycle", P("1cba")) == S("{c}")


def test_table_fidelity_up_to_8_voters():
    definitional = (
        "top_cycle",
        "defensible",
        "copeland",
        "maximin",
        "strict_nanson",
        "nanson",
        "leximin",
    )
    for prof in profiles_up_to(8):
        for rule_id in definitional:
            assert rules.evaluate(rule_id, prof) == rules.table_rule(
                rule_id, prof
            ), (rule_id, prof)


# ---------------------------------------------------------------------------
# the maximin-equivalent cluster

KNOWN_TIED_MISMATCHES = {
    ("dodgson", P("1abc+1cab")),
    ("young", P("1bac+1cab")),
}


def test_margin_cluster_equals_maximin_up_to_10_voters():
    for prof in profiles_up_to(10):
        expected = rules.maximin(prof)
        for variant in ("split_cycle", "beat_path", "ranked_pairs", "kemeny"):
            assert rules.evaluate(variant, prof) == expected, (
                variant,
                prof,
            )


def test_search_cluster_equals_maximin_up_to_9_voters():
    mismatches = []
    for prof in profiles_up_to(9):
        expected = rules.maximin(prof)
        for variant in ("dodgson", "young"):
            got = rules.evaluate(variant, prof)
            if got != expected:
                mismatches.append((variant, prof, got, expected))
    for variant, prof, got, expected in mismatches:
        # disagreement is tolerated only where a majority tie exists
        assert 0 in margins(prof), (variant, prof, got, expected)
        print(
            f"note: {variant} on {core.format_profile(prof)} gives "
            f"{core.choice_set_to_str(got)}, maximin gives "
            f"{core.choice_set_to_str(expected)} (majority tie)"
        )
    found = {(variant, prof) for variant, prof, _, _ in mismatches}
    assert KNOWN_TIED_MISMATCHES <= found


def test_known_tied_mismatch_outputs():
    assert rules.dodgson(P("1abc+1cab")) == S("{a}")
    assert rules.maximin(P("1abc+1cab")) == S("{a,c}")
    assert rules.young(P("1bac+1cab")) == S("{b,c}")
    assert rules.maximin(P("1bac+1cab")) == S("{a,b,c}")


# ---------------------------------------------------------------------------
# structural invariants


def test_leximin_is_maximin_with_borda_tiebreak_up_to_10_voters():
    for prof in profiles_up_to(10):
        m = margins(prof)
        mm = rules.maximin_margins(m)
        beta = core.borda_scores(m)
        best = max(beta[x] for x in mm)
        assert rules.leximin_margins(m) == frozenset(
            x for x in mm if beta[x] == best
        ), prof


def test_nanson_equals_leximin_without_majority_ties_up_to_10_voters():
    for prof in profiles_up_to(10):
        m = margins(prof)
        if 0 in m:
            continue
        assert rules.nanson_margins(m) == rules.leximin_margins(m), prof


CONDORCET_EXTENSION_IDS = tuple(
    r for r in rules.ALL_RULE_IDS if r not in ("borda", "plurality")
)


def test_condorcet_consistency_up_to_8_voters():
    for prof in profiles_up_to(8):
        w = core.condorcet_winner(margins(prof))
        if w is None:
            continue
        for rule_id in CONDORCET_EXTENSION_IDS:
            assert rules.evaluate(rule_id, prof) == frozenset({w}), (
                rule_id,
                prof,
            )


def test_neutrality_up_to_7_voters():
    neutral_ids = tuple(r for r in rules.ALL_RULE_IDS if r != "artificial")
    for prof in profiles_up_to(7):
        base = {r: rules.evaluate(r, prof) for r in neutral_ids}
        for sigma in core.PERMUTATIONS[1:]:
            permuted = permute_profile(prof, sigma)
            for rule_id in neutral_ids:
                assert rules.evaluate(rule_id, permuted) == permute_choice_set(
                    base[rule_id], sigma
                ), (rule_id, prof, sigma)


def test_artificial_rule_is_not_neutral():
    violations = []
    for prof in profiles_up_to(5):
        base = rules.artificial_rule(prof)
        for sigma in core.PERMUTATIONS[1:]:
            got = rules.artificial_rule(permute_profile(prof, sigma))
            if got != permute_choice_set(base, sigma):
                violations.append((prof, sigma))
    assert violations
    # the rotation-invariant cycle is already a witness
    assert any(prof == P("1abc+1bca+1cab") for prof, _ in violations)


def test_uniquely_weighted_graphs_collapse_the_maximin_refinements():
    for m in itertools.product(range(-9, 10), repeat=3):
        weights = sorted(abs(v) for v in m)
        if 0 in weights or len(set(weights)) != 3:
            continue
        if len({abs(v) % 2 for v in m}) != 1:
            continue
        mm = rules.maximin_margins(m)
        assert len(mm) == 1, m
        assert rules.leximin_margins(m) == mm
        assert rules.nanson_margins(m) == mm
        assert rules.nanson_margins(m, strict=True) == mm
        prof = mcgarvey(m)
        assert rules.table_rule("stable_voting", prof) == mm


# ---------------------------------------------------------------------------
# the n-candidate definitions of the closed-form margin rules, as oracles


def _worst_margin(m, x):
    return min(core.margin(m, x, y) for y in core.CANDIDATES if y != x)


def _sorted_margins(m, x):
    """A candidate's two margins as an ascending pair (the leximin key)."""
    pair = sorted(core.margin(m, x, y) for y in core.CANDIDATES if y != x)
    return (pair[0], pair[1])


def _argmax(keys):
    best = max(keys.values())
    return frozenset(x for x, k in keys.items() if k == best)


def _restricted_borda(m, remaining):
    return {
        x: sum(core.margin(m, x, y) for y in remaining if y != x) for x in remaining
    }


def maximin_oracle(m):
    """Candidates whose worst pairwise margin is highest."""
    return _argmax({x: _worst_margin(m, x) for x in core.CANDIDATES})


def leximin_oracle(m):
    """Candidates maximal under lexicographic comparison of sorted margins."""
    return _argmax({x: _sorted_margins(m, x) for x in core.CANDIDATES})


def copeland_oracle(m):
    """Argmax of (#strict pairwise wins - #strict pairwise losses)."""
    def net(x):
        return sum(
            (core.margin(m, x, y) > 0) - (core.margin(m, x, y) < 0)
            for y in core.CANDIDATES
            if y != x
        )

    return _argmax({x: net(x) for x in core.CANDIDATES})


def nanson_oracle(m, strict=False):
    """Iterated Borda elimination: non-strict deletes every candidate with
    restricted score <= 0 while some score is positive, strict deletes every
    negative one until none is."""
    remaining = rules.ALL_CANDIDATES
    while True:
        scores = _restricted_borda(m, remaining)
        if strict:
            losers = {x for x in remaining if scores[x] < 0}
            if not losers:
                return remaining
            remaining = remaining - losers
        else:
            if all(s <= 0 for s in scores.values()):
                return remaining
            remaining = frozenset(x for x in remaining if scores[x] > 0)


def borda_oracle(m):
    """Argmax of the Borda scores, which are sums of margins."""
    return _argmax(_restricted_borda(m, rules.ALL_CANDIDATES))


def black_oracle(m):
    """The Condorcet winner if one exists, otherwise the Borda argmax."""
    w = core.condorcet_winner(m)
    return borda_oracle(m) if w is None else frozenset({w})


def baldwin_oracle(m):
    """Parallel-universe iterated elimination of Borda-score minimizers: a
    candidate wins if it survives in some branch, and a branch where all
    remaining scores are equal elects all of them."""

    def branch(remaining):
        if len(remaining) == 1:
            return remaining
        scores = _restricted_borda(m, remaining)
        low = min(scores.values())
        if all(s == low for s in scores.values()):
            return remaining
        out = frozenset()
        for x in remaining:
            if scores[x] == low:
                out |= branch(remaining - {x})
        return out

    return branch(rules.ALL_CANDIDATES)


MARGIN_ORACLES = {
    "maximin": maximin_oracle,
    "leximin": leximin_oracle,
    "copeland": copeland_oracle,
    "nanson": nanson_oracle,
    "strict_nanson": functools.partial(nanson_oracle, strict=True),
    "baldwin": baldwin_oracle,
    "borda": borda_oracle,
    "black": black_oracle,
}

#: every integer triple in [-14, 14]^3, realizable (same parity) or not
TRIPLES = list(itertools.product(range(-14, 15), repeat=3))
SAME_PARITY_TRIPLES = [m for m in TRIPLES if len({v % 2 for v in m}) == 1]


@pytest.mark.parametrize("rule_id", MARGIN_ORACLES)
def test_closed_form_margin_rules_equal_their_definitions(rule_id):
    compute, oracle = rules.RULES[rule_id].compute, MARGIN_ORACLES[rule_id]
    for m in TRIPLES:
        assert compute(m) == oracle(m), m


def table_oracle(rule_id, m):
    """The class's cell of the table row, mapped through its relabelling."""
    cls = core.classify(m)
    if cls.kind == "condorcet_winner":
        return frozenset({cls.winner})
    cell = rules.table_cells(rule_id)[core.CLASS_LETTERS.index(cls.kind)]
    return frozenset(x for x in core.CANDIDATES if core.CANDIDATE_NAMES[cls.relabel[x]] in cell)


@pytest.mark.parametrize("rule_id", rules.TABLE_RULE_IDS)
def test_table_readers_read_the_table(rule_id):
    """The table reader, and the rule itself, agree with the table row."""
    read = functools.partial(rules._read_table, rules.table_cells(rule_id))
    compute = rules.resolve(rule_id)[1].compute
    for m in SAME_PARITY_TRIPLES:
        expected = table_oracle(rule_id, m)
        assert read(m) == expected, m
        assert compute(m) == expected, m


def baldwin_class_oracle(m):
    """Independent per-class derivation of Baldwin's output."""
    cls = core.classify(m)
    if cls.kind == "condorcet_winner":
        return frozenset({cls.winner})
    mab, mac, mbc = core.permute_margins(m, cls.relabel)
    mca = -mac
    a, b, c = core.A, core.B, core.C
    if cls.kind in ("A", "B"):
        cell = {a, b, c}
    elif cls.kind == "C":
        cell = {c}
    elif cls.kind in ("D", "E", "F"):
        cell = {a, c}
    elif cls.kind in ("G", "H"):
        # the Borda loser is b or c depending on the weights
        cell = set()
        if 2 * mbc <= mab + mca:  # b eliminated
            cell |= {c} if mca > 0 else {a, c}
        if 2 * mbc >= mab + mca:  # c eliminated
            cell |= {a}
    else:  # I, J, K, L
        cell = {a}
    return frozenset(x for x in core.CANDIDATES if cls.relabel[x] in cell)


def test_baldwin_matches_class_oracle_exhaustively():
    for m in itertools.product(range(-9, 10), repeat=3):
        if len({abs(v) % 2 for v in m}) != 1:
            continue
        assert rules.baldwin_margins(m) == baldwin_class_oracle(m), m


def test_margin_determined_rules_ignore_profile_realization():
    rng = random.Random(20240817)
    for _ in range(200):
        parity = rng.choice((0, 1))
        target = tuple(
            rng.choice(range(-9 + ((9 + parity) % 2), 10, 2)) for _ in range(3)
        )
        assert all(abs(v) % 2 == parity for v in target)
        first = mcgarvey(target)
        second = combine(first, P("1abc+1cba"))
        assert margins(second) == target
        for rule_id in rules.PAIRWISE_RULE_IDS:
            assert rules.evaluate(rule_id, first) == rules.evaluate(
                rule_id, second
            ), (rule_id, target)


# ---------------------------------------------------------------------------
# error handling


def test_unknown_rule_ids_are_rejected():
    with pytest.raises(rules.UnsupportedRuleError):
        rules.evaluate("approval", P("1abc"))
    with pytest.raises(rules.UnsupportedRuleError):
        rules.evaluate("scoring:1,2", P("1abc"))
    with pytest.raises(rules.UnsupportedRuleError):
        rules.evaluate("scoring:1,x,0", P("1abc"))


def test_search_rules_enforce_their_voter_bound():
    with pytest.raises(rules.BoundExceededError):
        rules.evaluate("dodgson", P("10abc"))
    with pytest.raises(rules.BoundExceededError):
        rules.evaluate("young", P("6abc+4cba"))
    # exactly at the bound both still run
    assert rules.evaluate("dodgson", P("9abc")) == S("{a}")
    assert rules.evaluate("young", P("9abc")) == S("{a}")


def test_rules_require_a_voter():
    with pytest.raises(ValueError):
        rules.evaluate("maximin", core.EMPTY_PROFILE)


def test_strict_nanson_keeps_everyone_on_the_all_tied_graph():
    tie = P("1abc+1acb+1bac+1bca+1cab+1cba")
    assert rules.evaluate("strict_nanson", tie) == S("{a,b,c}")
    assert rules.evaluate("nanson", tie) == S("{a,b,c}")


# ---------------------------------------------------------------------------
# the rule table


def test_resolve_maps_aliases_and_scoring_ids():
    assert rules.resolve("uc_bordes") == ("banks", rules.RULES["banks"])
    assert rules.resolve("schwartz")[0] == "llull"
    rule_id, rule = rules.resolve("scoring:3,1/2,0")
    assert rule_id == "scoring:3,1/2,0"
    assert rule.reads == rules.SCORES
    assert rule.compute == (3, Fraction(1, 2), 0)
    with pytest.raises(rules.UnsupportedRuleError, match="unknown rule id: 'approval'"):
        rules.resolve("approval")


def test_a_scoring_id_is_parsed_once_and_a_bad_one_raises_every_time():
    assert rules.parse_scoring_id("scoring:5,2,0") is rules.parse_scoring_id("scoring:5,2,0")
    for _ in range(2):
        with pytest.raises(rules.UnsupportedRuleError, match="bad scoring vector"):
            rules.resolve("scoring:5,x,0")


def test_every_rule_but_four_is_margin_determined():
    assert len(rules.ALL_RULE_IDS) == 23
    assert set(rules.PAIRWISE_RULE_IDS) == {
        r for r in rules.ALL_RULE_IDS
        if r not in ("plurality", "artificial", "dodgson", "young")
    }


def test_borda_margin_rule_equals_the_2_1_0_scoring_vector_up_to_10_voters():
    for prof in profiles_up_to(10):
        assert rules.evaluate("borda", prof) == rules.evaluate("scoring:2,1,0", prof), prof
