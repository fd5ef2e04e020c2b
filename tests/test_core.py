"""Profile parsing, margin arithmetic, classification, profile synthesis."""

import itertools

import pytest
from hypothesis import given, strategies as st

from trivote import core
from trivote.core import (
    A,
    B,
    C,
    classify,
    combine,
    condorcet_winner,
    borda_scores,
    format_profile,
    intermediate_condorcet_winners,
    margin,
    margins,
    mcgarvey,
    parse_profile,
    permute_margins,
    permute_profile,
    t_fold,
)

profiles_st = st.tuples(*[st.integers(0, 8)] * 6)
nonempty_profiles_st = profiles_st.filter(lambda p: sum(p) > 0)


# ---------------------------------------------------------------------------
# independent structural classifier used as an oracle for classify():
# works by edge-shape analysis instead of canonical-pattern matching.
def structural_class(m):
    weights = {}
    edges = []
    for x, y in itertools.combinations(range(3), 2):
        v = margin(m, x, y)
        if v > 0:
            edges.append((x, y, v))
        elif v < 0:
            edges.append((y, x, -v))
    for x in range(3):
        if all(margin(m, x, y) > 0 for y in range(3) if y != x):
            return "condorcet_winner"
    k = len(edges)
    if k == 0:
        return "B"
    if k == 1:
        return "D"
    if k == 2:
        (s1, t1, w1), (s2, t2, w2) = edges
        if t1 == t2:  # two edges into one vertex
            return "E" if w1 == w2 else "F"
        # otherwise a chain; orient it
        if t1 == s2:
            first, second = w1, w2
        else:
            assert t2 == s1
            first, second = w2, w1
        if first == second:
            return "J"
        return "H" if first > second else "L"
    # three-cycle
    ws = sorted(w for (_, _, w) in edges)
    if ws[0] == ws[2]:
        return "A"
    if ws[0] == ws[1]:
        return "C"  # one heavy edge, two equal light ones
    if ws[1] == ws[2]:
        return "I"  # two equal heavy edges, one light
    # all distinct: walk the cycle starting from the heaviest edge
    nxt = {s: (t, w) for (s, t, w) in edges}
    start = max(edges, key=lambda e: e[2])
    second_weight = nxt[start[1]][1]
    return "G" if second_weight == ws[1] else "K"


def same_parity_margin_triples(limit=9):
    for parity in (0, 1):
        vals = [v for v in range(-limit, limit + 1) if abs(v) % 2 == parity]
        yield from itertools.product(vals, repeat=3)


# ---------------------------------------------------------------------------
# parsing and formatting


def test_parse_accumulates_counts():
    assert parse_profile("3abc+2bca+1bac+1cab") == (3, 0, 1, 2, 1, 0)
    assert core.total_voters(parse_profile("3abc+2bca+1bac+1cab")) == 7
    assert parse_profile("abc") == (1, 0, 0, 0, 0, 0)
    assert parse_profile("1abc+1ABC") == (2, 0, 0, 0, 0, 0)
    assert parse_profile(" 2 a c b + c a b ") == (0, 2, 0, 0, 1, 0)


@pytest.mark.parametrize("bad", ["{ab}", "{bc}", "{abc}", "{a,d}", "{a,bc}"])
def test_parse_choice_set_accepts_only_single_candidate_names(bad):
    with pytest.raises(ValueError, match="unknown candidate"):
        core.parse_choice_set(bad)


@pytest.mark.parametrize(
    "bad,fragment",
    [
        ("", "empty"),
        ("3abd", "abd"),
        ("0abc", "0abc"),
        ("2aab", "aab"),
        ("abc+", "''"),
        ("1abcd", "abcd"),
    ],
)
def test_parse_errors_name_offending_term(bad, fragment):
    with pytest.raises(ValueError) as err:
        parse_profile(bad)
    assert fragment.strip("'") in str(err.value)


def test_format_canonical_order_and_explicit_counts():
    p = parse_profile("3abc+2bca+1bac+1cab")
    assert format_profile(p) == "3abc+1bac+2bca+1cab"
    assert format_profile((0, 0, 0, 0, 0, 2)) == "2cba"


@given(nonempty_profiles_st)
def test_format_parse_round_trip(p):
    assert parse_profile(format_profile(p)) == p


# ---------------------------------------------------------------------------
# margins and winners


def test_margins_examples():
    assert margins(parse_profile("2abc+1bca+2cab")) == (3, -1, 1)
    assert margins(parse_profile("1abc+1acb+1bac+1bca+1cab+1cba")) == (0, 0, 0)
    # m_ab=3, m_ac=1, m_cb=3
    assert margins(parse_profile("2acb+1cab")) == (3, 1, -3)


@given(nonempty_profiles_st)
def test_margin_parity_matches_electorate_parity(p):
    n = core.total_voters(p)
    assert all(abs(v) % 2 == n % 2 for v in margins(p))


def test_condorcet_winner_examples():
    assert condorcet_winner((3, 1, -3)) == A
    assert condorcet_winner((0, 0, 0)) is None
    assert condorcet_winner(margins(parse_profile("2abc+1bca+2cab"))) is None


def test_condorcet_winner_matches_bruteforce():
    for m in same_parity_margin_triples(5):
        expected = [
            x
            for x in range(3)
            if all(margin(m, x, y) > 0 for y in range(3) if y != x)
        ]
        got = condorcet_winner(m)
        assert got == (expected[0] if expected else None)


def test_intermediate_condorcet_winners_examples():
    graph_f = margins(parse_profile("1abc+1acb+2cab"))
    assert intermediate_condorcet_winners(graph_f) == frozenset({A, C})
    assert intermediate_condorcet_winners((0, 0, 0)) == frozenset()
    assert intermediate_condorcet_winners((3, 1, -3)) == frozenset({A})


def test_borda_scores_examples():
    assert borda_scores(margins(parse_profile("2abc+1bca+2cab"))) == (2, -2, 0)
    assert borda_scores((0, 0, 0)) == (0, 0, 0)
    w = margins(parse_profile("2acb+1cab"))
    assert borda_scores(w)[condorcet_winner(w)] > 0


@given(st.tuples(st.integers(-20, 20), st.integers(-20, 20), st.integers(-20, 20)))
def test_borda_scores_sum_to_zero(m):
    assert sum(borda_scores(m)) == 0


# ---------------------------------------------------------------------------
# classification

LINKED_PROFILES = {
    "A": "1abc+1bca+1cab",
    "B": "1abc+1acb+1bac+1bca+1cab+1cba",
    "C": "2abc+1bca+2cab",
    "D": "1abc+1cab",
    "E": "1acb+1cab",
    "F": "1abc+1acb+2cab",
    "G": "4abc+2bca+3cab",
    "H": "3abc+1bca+2cab",
    "I": "3abc+2bca+2cab",
    "J": "2abc+1bca+1cab",
    "K": "3abc+2bca+4cab",
    "L": "2abc+1bca+3cab",
}
ROTATION = (1, 2, 0)  # a->b, b->c, c->a


def test_classify_linked_profiles():
    for letter, text in LINKED_PROFILES.items():
        cls = classify(margins(parse_profile(text)))
        assert cls.kind == letter
        expected_relabel = ROTATION if letter in ("K", "L") else core.IDENTITY
        assert cls.relabel == expected_relabel


def test_classify_examples():
    # m_ab = m_bc = m_ca = 2
    cls = classify((2, -2, 2))
    assert cls.kind == "A" and cls.relabel == core.IDENTITY
    assert classify(margins(parse_profile("3abc+2bca+4cab"))).kind == "K"
    assert classify(margins(parse_profile("2abc+1bca+2cab"))).kind == "C"
    cw = classify((3, 1, -3))
    assert cw.kind == "condorcet_winner" and cw.winner == A


# canonical shape predicates, by class letter, on (m_ab, m_ac, m_bc): the
# specification that core.classify reads as one sign pattern per class.
# m_ca = -m_ac and m_cb = -m_bc below.
def _shape_checks():
    def a(m_ab, m_ac, m_bc):  # m_ab = m_bc = m_ca > 0
        return m_ab == m_bc == -m_ac > 0

    def b(m_ab, m_ac, m_bc):  # all margins zero
        return m_ab == m_ac == m_bc == 0

    def c(m_ab, m_ac, m_bc):  # m_ab > m_bc = m_ca > 0
        return m_ab > m_bc == -m_ac > 0

    def d(m_ab, m_ac, m_bc):  # m_ab > m_bc = m_ca = 0
        return m_ab > 0 and m_bc == m_ac == 0

    def e(m_ab, m_ac, m_bc):  # m_ab = m_cb > m_ca = 0
        return m_ab == -m_bc > 0 and m_ac == 0

    def f(m_ab, m_ac, m_bc):  # m_ab > m_cb > m_ca = 0
        return m_ab > -m_bc > 0 and m_ac == 0

    def g(m_ab, m_ac, m_bc):  # m_ab > m_bc > m_ca > 0
        return m_ab > m_bc > -m_ac > 0

    def h(m_ab, m_ac, m_bc):  # m_ab > m_bc > m_ca = 0
        return m_ab > m_bc > 0 and m_ac == 0

    def i(m_ab, m_ac, m_bc):  # m_ab = m_bc > m_ca > 0
        return m_ab == m_bc > -m_ac > 0

    def j(m_ab, m_ac, m_bc):  # m_ab = m_bc > m_ca = 0
        return m_ab == m_bc > 0 and m_ac == 0

    def k(m_ab, m_ac, m_bc):  # m_bc > m_ab > m_ca > 0
        return m_bc > m_ab > -m_ac > 0

    def l(m_ab, m_ac, m_bc):  # m_bc > m_ab > m_ca = 0
        return m_bc > m_ab > 0 and m_ac == 0

    return {
        "A": a, "B": b, "C": c, "D": d, "E": e, "F": f,
        "G": g, "H": h, "I": i, "J": j, "K": k, "L": l,
    }


SHAPES = _shape_checks()


def test_classify_total_neutral_and_matches_structural_oracle():
    span = range(-12, 13)  # every triple: classify reads signs, whatever the parity
    for m in itertools.product(span, span, span):
        cls = classify(m)
        assert cls.kind == structural_class(m)
        if cls.kind == "condorcet_winner":
            assert cls.relabel == core.IDENTITY and cls.winner == condorcet_winner(m)
        else:
            # the recorded relabeling maps the graph onto its canonical shape,
            # and it is the first that maps it onto any shape: the predicate
            # search over relabelings in lexicographic order finds the same
            found = [
                (s, letter)
                for s in core.PERMUTATIONS
                if s <= cls.relabel
                for letter, shape in SHAPES.items()
                if shape(*permute_margins(m, s))
            ]
            assert found == [(cls.relabel, cls.kind)]
        for sigma in core.PERMUTATIONS:
            assert classify(permute_margins(m, sigma)).kind == cls.kind


# ---------------------------------------------------------------------------
# mcgarvey


def test_mcgarvey_round_trip_exhaustive():
    count = 0
    for m in same_parity_margin_triples(9):
        assert margins(mcgarvey(m)) == m
        count += 1
    assert count == 9**3 + 10**3


def test_mcgarvey_examples():
    assert margins(mcgarvey((2, 0, 0))) == (2, 0, 0)
    assert margins(mcgarvey((0, 0, 0))) == (0, 0, 0)
    assert margins(mcgarvey((3, -1, 1))) == (3, -1, 1)


def test_mcgarvey_rejects_mixed_parity():
    with pytest.raises(ValueError):
        mcgarvey((1, 2, 1))


# ---------------------------------------------------------------------------
# profile arithmetic


def test_combine_examples():
    p = combine(parse_profile("2abc+2bca+2cab"), parse_profile("2acb+1cab"))
    assert p == parse_profile("2abc+2acb+2bca+3cab")
    assert core.total_voters(p) == 9
    assert combine(parse_profile("1abc+1bac"), parse_profile("1abc+1bca")) == (
        parse_profile("2abc+1bac+1bca")
    )
    assert combine(p, core.EMPTY_PROFILE) == p


@given(profiles_st, profiles_st)
def test_margins_additive(p, q):
    mp, mq = margins(p), margins(q)
    assert margins(combine(p, q)) == tuple(a + b for a, b in zip(mp, mq))


def test_t_fold():
    assert t_fold(parse_profile("abc"), 3) == (3, 0, 0, 0, 0, 0)
    p = parse_profile("2abc+1bca+2cab")
    assert t_fold(p, 1) == p
    assert margins(t_fold(p, 2)) == (6, -2, 2)
    with pytest.raises(ValueError):
        t_fold(p, 0)


@given(nonempty_profiles_st, st.sampled_from(core.PERMUTATIONS))
def test_permute_profile_consistent_with_permute_margins(p, sigma):
    assert margins(permute_profile(p, sigma)) == permute_margins(margins(p), sigma)


def test_choice_set_rendering():
    assert core.choice_set_to_str(frozenset({C, A})) == "{a,c}"
    assert core.parse_choice_set("{a,c}") == frozenset({A, C})
    assert core.parse_choice_set("{a, b, c}") == frozenset({A, B, C})
