"""Voting rules over three-candidate profiles.

Every rule is declared once, in :data:`RULES`, in presentation order.  An
entry says what the rule reads of a profile and what computes it:

* ``MARGINS`` -- a function of the margin triple alone: the definitional
  rules (maximin, leximin, Copeland, Nanson variants, Black, Baldwin, Borda,
  top cycle, defensible set), the rules read off the 12-class output table
  (``table_rule``), and the maximin cluster of independent implementations
  (split cycle, beat path, ranked pairs, Kemeny), which coincide with
  maximin on three candidates;
* ``SCORES`` -- a positional score vector (plurality, and any
  ``scoring:s1,s2,s3`` id);
* ``PROFILE`` -- a function of the whole profile: the artificial rule and the
  bounded Dodgson and Young searches.  These two differ from maximin on some
  profiles with a zero margin.

``resolve`` maps an id (aliases and ``scoring:`` ids included) to its entry;
``evaluate(rule_id, profile)`` dispatches through it and memoizes.
"""

from __future__ import annotations

import functools
import itertools
import math
from fractions import Fraction
from typing import Any, Callable, NamedTuple

from . import core
from .core import (
    A,
    B,
    C,
    CANDIDATES,
    ChoiceSet,
    Margins,
    Profile,
    borda_scores,
    condorcet_winner,
    margin,
    margins,
)


class UnsupportedRuleError(ValueError):
    """Raised when a rule id is unknown or unusable in the requested role."""


class BoundExceededError(RuntimeError):
    """Raised when a brute-force rule is asked about too large an electorate."""


ALL_CANDIDATES: ChoiceSet = frozenset(CANDIDATES)

#: electorate size cap for the brute-force Dodgson/Young searches
SEARCH_RULE_MAX_VOTERS = 9


# ---------------------------------------------------------------------------
# margin-graph helpers


def _worst_margin(m: Margins, x: int) -> int:
    return min(margin(m, x, y) for y in CANDIDATES if y != x)


def _sorted_margins(m: Margins, x: int) -> tuple[int, int]:
    """A candidate's two margins as an ascending pair (the leximin key)."""
    pair = sorted(margin(m, x, y) for y in CANDIDATES if y != x)
    return (pair[0], pair[1])


def _argmax(keys: dict[int, object]) -> ChoiceSet:
    best = max(keys.values())
    return frozenset(x for x, k in keys.items() if k == best)


def _restricted_borda(m: Margins, remaining: frozenset) -> dict[int, int]:
    return {
        x: sum(margin(m, x, y) for y in remaining if y != x) for x in remaining
    }


# ---------------------------------------------------------------------------
# definitional rules on the margin graph


def maximin_margins(m: Margins) -> ChoiceSet:
    """Candidates whose worst pairwise margin is highest."""
    return _argmax({x: _worst_margin(m, x) for x in CANDIDATES})


def leximin_margins(m: Margins) -> ChoiceSet:
    """Candidates maximal under lexicographic comparison of sorted margins."""
    return _argmax({x: _sorted_margins(m, x) for x in CANDIDATES})


def copeland_margins(m: Margins) -> ChoiceSet:
    """Argmax of (#strict pairwise wins - #strict pairwise losses)."""
    def net(x: int) -> int:
        return sum(
            (margin(m, x, y) > 0) - (margin(m, x, y) < 0)
            for y in CANDIDATES
            if y != x
        )

    return _argmax({x: net(x) for x in CANDIDATES})


def top_cycle_margins(m: Margins) -> ChoiceSet:
    """Smallest non-empty S whose members strictly beat every outsider."""
    for size in (1, 2):
        for subset in itertools.combinations(CANDIDATES, size):
            inside = set(subset)
            if all(
                margin(m, x, y) > 0
                for x in inside
                for y in CANDIDATES
                if y not in inside
            ):
                return frozenset(inside)
    return ALL_CANDIDATES


def defensible_margins(m: Margins) -> ChoiceSet:
    """x such that every y is matched: some z has m_zy >= m_yx."""
    winners = []
    for x in CANDIDATES:
        if all(
            any(margin(m, z, y) >= margin(m, y, x) for z in CANDIDATES)
            for y in CANDIDATES
        ):
            winners.append(x)
    return frozenset(winners)


def nanson_margins(m: Margins, strict: bool = False) -> ChoiceSet:
    """Iterated Borda elimination.

    Non-strict: while some remaining candidate has positive restricted Borda
    score, delete all whose score is <= 0.  Strict: delete all with negative
    score, stopping once none is negative.  Restricted scores always sum to
    zero, so the remaining set never empties.
    """
    remaining = ALL_CANDIDATES
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


def borda_margins(m: Margins) -> ChoiceSet:
    """Argmax of the Borda scores, which are sums of margins."""
    return _argmax(dict(zip(CANDIDATES, borda_scores(m))))


def black_margins(m: Margins) -> ChoiceSet:
    """The Condorcet winner if one exists, otherwise the Borda argmax."""
    w = condorcet_winner(m)
    if w is not None:
        return frozenset({w})
    return borda_margins(m)


def baldwin_margins(m: Margins) -> ChoiceSet:
    """Parallel-universe iterated elimination of Borda-score minimizers.

    Every minimizer is tried as the eliminated candidate; a candidate wins if
    it survives in some branch.  A branch where all remaining scores are equal
    (and more than one candidate remains) elects all of them.
    """

    def branch(remaining: frozenset) -> ChoiceSet:
        if len(remaining) == 1:
            return remaining
        scores = _restricted_borda(m, remaining)
        low = min(scores.values())
        if all(s == low for s in scores.values()):
            return remaining
        out: frozenset = frozenset()
        for x in remaining:
            if scores[x] == low:
                out |= branch(remaining - {x})
        return out

    return branch(ALL_CANDIDATES)


# ---------------------------------------------------------------------------
# the maximin cluster: independent implementations that equal maximin on
# three candidates (Dodgson and Young, below, only off zero-margin profiles)


def split_cycle_margins(m: Margins) -> ChoiceSet:
    """Discard weakest edges of the majority cycle, then take the undefeated."""
    defeats = {
        (x, y)
        for x in CANDIDATES
        for y in CANDIDATES
        if x != y and margin(m, x, y) > 0
    }
    # with three candidates a cycle exists iff all three pairs are strict and
    # oriented cyclically, in which case the cycle is the whole defeat set
    for cycle in ((A, B, C), (A, C, B)):
        x, y, z = cycle
        if {(x, y), (y, z), (z, x)} == defeats:
            weakest = min(margin(m, u, v) for (u, v) in defeats)
            defeats = {
                (u, v) for (u, v) in defeats if margin(m, u, v) > weakest
            }
            break
    defeated = {v for (_, v) in defeats}
    return frozenset(x for x in CANDIDATES if x not in defeated)


def beat_path_margins(m: Margins) -> ChoiceSet:
    """x wins iff its strongest-path strength to each y matches y's back."""

    def strength(x: int, y: int) -> int:
        (z,) = set(CANDIDATES) - {x, y}
        return max(margin(m, x, y), min(margin(m, x, z), margin(m, z, y)))

    return frozenset(
        x
        for x in CANDIDATES
        if all(strength(x, y) >= strength(y, x) for y in CANDIDATES if y != x)
    )


def ranked_pairs_margins(m: Margins) -> ChoiceSet:
    """Lock positive edges by descending margin, skipping cycle-creators.

    Equal-margin edges are processed in every possible order; the winners are
    the sources of all resulting locked orders.
    """
    edges = [
        (margin(m, x, y), x, y)
        for x in CANDIDATES
        for y in CANDIDATES
        if x != y and margin(m, x, y) > 0
    ]
    winners: set[int] = set()
    orderings = {
        perm
        for perm in itertools.permutations(edges)
        if all(perm[i][0] >= perm[i + 1][0] for i in range(len(perm) - 1))
    }
    for perm in orderings:
        locked: set[tuple[int, int]] = set()

        def reaches(src: int, dst: int) -> bool:
            seen = {src}
            frontier = {src}
            while frontier:
                frontier = {v for (u, v) in locked if u in frontier} - seen
                if dst in frontier:
                    return True
                seen |= frontier
            return False

        for (_, x, y) in perm:
            if not reaches(y, x):
                locked.add((x, y))
        targets = {v for (_, v) in locked}
        winners.update(x for x in CANDIDATES if x not in targets)
    return frozenset(winners)


def kemeny_margins(m: Margins) -> ChoiceSet:
    """Tops of the rankings maximizing total agreement with the margins."""
    scores = {}
    for o, (t, mid_, b) in enumerate(core.ORDER_RANKING):
        scores[o] = (
            margin(m, t, mid_) + margin(m, t, b) + margin(m, mid_, b)
        )
    best = max(scores.values())
    return frozenset(core.top(o) for o, s in scores.items() if s == best)


# adjacent-swap neighbours of each linear order (the permutohedron hexagon)
_SWAP_NEIGHBOURS = (
    (1, 2),  # abc ~ acb, bac
    (0, 4),  # acb ~ abc, cab
    (0, 3),  # bac ~ abc, bca
    (2, 5),  # bca ~ bac, cba
    (1, 5),  # cab ~ acb, cba
    (3, 4),  # cba ~ bca, cab
)


def dodgson(profile: Profile) -> ChoiceSet:
    """Candidates reachable as Condorcet winner with the fewest adjacent swaps.

    Breadth-first search over profiles at the same electorate size, one
    adjacent transposition in one voter's order per step; the winners are the
    Condorcet winners of the first layer containing any.  ``evaluate`` caps
    the electorate at :data:`SEARCH_RULE_MAX_VOTERS`.
    """
    frontier = [profile]
    seen = {profile}
    while frontier:
        layer_winners = {
            w
            for p in frontier
            if (w := condorcet_winner(margins(p))) is not None
        }
        if layer_winners:
            return frozenset(layer_winners)
        nxt = []
        for p in frontier:
            for o, count in enumerate(p):
                if not count:
                    continue
                for o2 in _SWAP_NEIGHBOURS[o]:
                    q = list(p)
                    q[o] -= 1
                    q[o2] += 1
                    tq = tuple(q)
                    if tq not in seen:
                        seen.add(tq)
                        nxt.append(tq)
        frontier = nxt
    raise AssertionError("some candidate is always reachable")  # pragma: no cover


def young(profile: Profile) -> ChoiceSet:
    """Candidates made Condorcet winner by retaining the most voters.

    ``evaluate`` caps the electorate at :data:`SEARCH_RULE_MAX_VOTERS`.
    """
    best_size = 0
    winners: set[int] = set()
    for sub in itertools.product(*(range(c + 1) for c in profile)):
        size = sum(sub)
        if size < best_size or size == 0:
            continue
        w = condorcet_winner(margins(sub))
        if w is None:
            continue
        if size > best_size:
            best_size, winners = size, {w}
        else:
            winners.add(w)
    return frozenset(winners)


# ---------------------------------------------------------------------------
# profile-level rules


def maximin(profile: Profile) -> ChoiceSet:
    return maximin_margins(margins(profile))


def scoring_rule(profile: Profile, vector: tuple) -> ChoiceSet:
    """Argmax of positional scores; exact rational arithmetic."""
    v = tuple(Fraction(s) for s in vector)
    totals = {x: Fraction(0) for x in CANDIDATES}
    for o, count in enumerate(profile):
        if not count:
            continue
        for x in CANDIDATES:
            totals[x] += count * v[core.ORDER_RANK_OF[o][x]]
    return _argmax(totals)


def _rank_counts(profile: Profile) -> tuple[dict[int, int], dict[int, int]]:
    firsts = {x: 0 for x in CANDIDATES}
    top_two = {x: 0 for x in CANDIDATES}
    for o, count in enumerate(profile):
        firsts[core.top(o)] += count
        top_two[core.top(o)] += count
        top_two[core.mid(o)] += count
    return firsts, top_two


def dominates_all_scoring(profile: Profile, x: int, mode: str) -> bool:
    """Is x the unique winner under every scoring rule of the given class?

    ``mode="strict"`` quantifies over strictly monotonic vectors
    (s1 > s2 > s3), ``mode="weak"`` over weakly monotonic ones
    (s1 >= s2 >= s3, s1 > s3).  Decided exactly through first-place and
    first-plus-second-place count differences against each rival.
    """
    if mode not in ("strict", "weak"):
        raise ValueError(f"mode must be 'strict' or 'weak', got {mode!r}")
    firsts, top_two = _rank_counts(profile)
    for y in CANDIDATES:
        if y == x:
            continue
        df = firsts[x] - firsts[y]
        dfm = top_two[x] - top_two[y]
        if mode == "weak":
            if not (df > 0 and dfm > 0):
                return False
        else:
            if not (df >= 0 and dfm >= 0 and (df, dfm) != (0, 0)):
                return False
    return True


# ---------------------------------------------------------------------------
# the table-driven engine

_CELLS = {
    "abc": ALL_CANDIDATES,
    "ab": frozenset({A, B}),
    "ac": frozenset({A, C}),
    "a": frozenset({A}),
    "c": frozenset({C}),
}

#: outputs of the ordinal rules on the canonical representative of each class
_TABLE = {
    #                A      B      C     D     E     F     G      H     I      J     K      L
    "top_cycle":   ("abc", "abc", "abc", "abc", "ac", "ac", "abc", "abc", "abc", "abc", "abc", "abc"),
    "uc_mckelvey": ("abc", "abc", "abc", "ac",  "ac", "ac", "abc", "abc", "abc", "abc", "abc", "abc"),
    "banks":       ("abc", "abc", "abc", "ac",  "ac", "ac", "abc", "ab",  "abc", "ab",  "abc", "ab"),
    "uc_gillies":  ("abc", "abc", "abc", "ac",  "ac", "ac", "abc", "ac",  "abc", "ac",  "abc", "ac"),
    "defensible":  ("abc", "abc", "ac",  "ac",  "ac", "ac", "ac",  "ac",  "ac",  "ac",  "a",   "a"),
    "llull":       ("abc", "abc", "abc", "ac",  "ac", "ac", "abc", "a",   "abc", "a",   "abc", "a"),
    "copeland":    ("abc", "abc", "abc", "a",   "ac", "ac", "abc", "a",   "abc", "a",   "abc", "a"),
    "maximin":     ("abc", "abc", "ac",  "ac",  "ac", "ac", "a",   "a",   "a",   "a",   "a",   "a"),
    "strict_nanson": ("abc", "abc", "c", "ac",  "ac", "ac", "a",   "a",   "a",   "a",   "a",   "a"),
    "stable_voting": ("abc", "abc", "ac", "a",  "ac", "a",  "a",   "a",   "a",   "a",   "a",   "a"),
    "nanson":      ("abc", "abc", "a",   "a",   "ac", "ac", "a",   "a",   "a",   "a",   "a",   "a"),
    "leximin":     ("abc", "abc", "a",   "a",   "ac", "a",  "a",   "a",   "a",   "a",   "a",   "a"),
}

RULE_ALIASES = {
    "uc_bordes": "banks",
    "schwartz": "llull",
    "uc_fishburn": "llull",
}

TABLE_RULE_IDS = tuple(_TABLE) + tuple(RULE_ALIASES)

#: smallest representative profile of each ordinal class without a Condorcet
#: winner, keyed by class letter (the profiles the table columns are read on)
CLASS_REPRESENTATIVES = {
    letter: core.parse_profile(text)
    for letter, text in zip(
        core.CLASS_LETTERS,
        (
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
        ),
    )
}


def table_cells(rule_id: str) -> tuple[str, ...]:
    """Canonical table row for an ordinal rule, one cell per class letter."""
    canonical = RULE_ALIASES.get(rule_id, rule_id)
    if canonical not in _TABLE:
        raise UnsupportedRuleError(f"{rule_id!r} is not a table rule")
    return _TABLE[canonical]


def _read_table(cells: tuple[str, ...], m: Margins) -> ChoiceSet:
    cls = core.classify(m)
    if cls.kind == "condorcet_winner":
        return frozenset({cls.winner})
    cell = _CELLS[cells[core.CLASS_LETTERS.index(cls.kind)]]
    return frozenset(x for x in CANDIDATES if cls.relabel[x] in cell)


def _table_reader(rule_id: str) -> Callable[[Margins], ChoiceSet]:
    return functools.partial(_read_table, _TABLE[rule_id])


def table_rule(rule_id: str, profile: Profile) -> ChoiceSet:
    """Evaluate an ordinal rule through the 12-class output table."""
    return _read_table(table_cells(rule_id), margins(profile))


# ---------------------------------------------------------------------------
# the artificial rule (maximin refinement by a size-dependent scoring system)

# Per order: points awarded to its top and its middle candidate (bottom gets
# zero).  The four orders that do not rank candidate a first always use the
# same row; the two orders ranking a first switch rows with the number of
# voters n for n <= 8 and fall back to a default row for larger electorates.
# The n-dependence is what breaks neutrality and homogeneity while leaving
# reinforcement intact on small electorates.
_ARTIFICIAL_ABC_ROWS = {2: (11, 8), 4: (11, 8), 5: (23, 17), 6: (11, 8), 8: (11, 7)}
_ARTIFICIAL_ABC_DEFAULT = (18, 13)
_ARTIFICIAL_ACB_ROWS = {4: (11, 7), 6: (11, 7), 8: (12, 7)}
_ARTIFICIAL_ACB_DEFAULT = (10, 7)
_ARTIFICIAL_SHARED = ((19, 11), (8, 2), (14, 6), (8, 0))  # bac, bca, cab, cba


def artificial_table(n: int) -> tuple[tuple[int, int], ...]:
    """(top, middle) score rows, indexed by order, for an ``n``-voter profile."""
    return (
        _ARTIFICIAL_ABC_ROWS.get(n, _ARTIFICIAL_ABC_DEFAULT),
        _ARTIFICIAL_ACB_ROWS.get(n, _ARTIFICIAL_ACB_DEFAULT),
        *_ARTIFICIAL_SHARED,
    )


def artificial_rule(profile: Profile) -> ChoiceSet:
    """Maximin winners filtered by an electorate-size-dependent score table."""
    table = artificial_table(core.total_voters(profile))
    totals = {x: 0 for x in CANDIDATES}
    for o, count in enumerate(profile):
        if not count:
            continue
        top_pts, mid_pts = table[o]
        totals[core.top(o)] += count * top_pts
        totals[core.mid(o)] += count * mid_pts
    winners = maximin(profile)
    best = max(totals[x] for x in winners)
    return frozenset(x for x in winners if totals[x] == best)


# ---------------------------------------------------------------------------
# the rule table

#: what a rule reads of a profile
MARGINS, SCORES, PROFILE = "margins", "scores", "profile"


class Rule(NamedTuple):
    """What a rule reads and what computes it from that: a margin function,
    a score vector or a profile function.  ``evaluate`` refuses electorates
    above ``max_voters``.  Tie-frequency curves of rules marked
    ``exclude_all_tied`` leave out the completely tied profiles, where every
    anonymous neutral rule elects all three, as the reference curves of the
    maximin family do (the black curve does not)."""

    reads: str
    compute: Any
    max_voters: float = math.inf
    exclude_all_tied: bool = False


#: every concrete rule id, in presentation order (aliases excluded)
RULES: dict[str, Rule] = {
    "top_cycle": Rule(MARGINS, top_cycle_margins),
    "uc_mckelvey": Rule(MARGINS, _table_reader("uc_mckelvey")),
    "banks": Rule(MARGINS, _table_reader("banks")),
    "uc_gillies": Rule(MARGINS, _table_reader("uc_gillies")),
    "defensible": Rule(MARGINS, defensible_margins),
    "llull": Rule(MARGINS, _table_reader("llull")),
    "copeland": Rule(MARGINS, copeland_margins),
    "maximin": Rule(MARGINS, maximin_margins, exclude_all_tied=True),
    "strict_nanson": Rule(MARGINS, functools.partial(nanson_margins, strict=True)),
    "stable_voting": Rule(MARGINS, _table_reader("stable_voting")),
    "nanson": Rule(MARGINS, nanson_margins, exclude_all_tied=True),
    "leximin": Rule(MARGINS, leximin_margins, exclude_all_tied=True),
    "black": Rule(MARGINS, black_margins),
    "baldwin": Rule(MARGINS, baldwin_margins),
    "borda": Rule(MARGINS, borda_margins),
    "plurality": Rule(SCORES, (1, 0, 0)),
    "artificial": Rule(PROFILE, artificial_rule),
    "split_cycle": Rule(MARGINS, split_cycle_margins),
    "beat_path": Rule(MARGINS, beat_path_margins),
    "ranked_pairs": Rule(MARGINS, ranked_pairs_margins),
    "kemeny": Rule(MARGINS, kemeny_margins),
    "dodgson": Rule(PROFILE, dodgson, SEARCH_RULE_MAX_VOTERS),
    "young": Rule(PROFILE, young, SEARCH_RULE_MAX_VOTERS),
}

ALL_RULE_IDS = tuple(RULES)

#: rule ids whose output is a function of margins(P) alone
PAIRWISE_RULE_IDS = tuple(r for r, rule in RULES.items() if rule.reads == MARGINS)


def parse_scoring_id(rule_id: str) -> tuple[Fraction, Fraction, Fraction]:
    """Parse ``scoring:s1,s2,s3`` with integer or fractional entries."""
    body = rule_id[len("scoring:"):]
    parts = body.split(",")
    if len(parts) != 3:
        raise UnsupportedRuleError(
            f"scoring rule needs exactly three entries: {rule_id!r}"
        )
    try:
        return tuple(Fraction(p.strip()) for p in parts)
    except (ValueError, ZeroDivisionError) as exc:
        raise UnsupportedRuleError(f"bad scoring vector in {rule_id!r}: {exc}")


def resolve(rule_id: str) -> tuple[str, Rule]:
    """The canonical id and the table entry of a rule id, an alias or a
    ``scoring:s1,s2,s3`` id."""
    if rule_id.startswith("scoring:"):
        return rule_id, Rule(SCORES, parse_scoring_id(rule_id))
    canonical = RULE_ALIASES.get(rule_id, rule_id)
    try:
        return canonical, RULES[canonical]
    except KeyError:
        raise UnsupportedRuleError(f"unknown rule id: {rule_id!r}") from None


def evaluate_uncached(rule_id: str, profile: Profile) -> ChoiceSet:
    """Dispatch a rule id; see ``evaluate`` for the memoized entry point."""
    n = core.total_voters(profile)
    if n < 1:
        raise ValueError("rules need at least one voter")
    canonical, rule = resolve(rule_id)
    if n > rule.max_voters:
        raise BoundExceededError(
            f"{canonical} supports at most {rule.max_voters} voters, got {n}"
        )
    if rule.reads == MARGINS:
        return rule.compute(margins(profile))
    if rule.reads == SCORES:
        return scoring_rule(profile, rule.compute)
    return rule.compute(profile)


@functools.cache
def _evaluate_cached(rule_id: str, profile: Profile) -> ChoiceSet:
    return evaluate_uncached(rule_id, profile)


def evaluate(rule_id: str, profile: Profile) -> ChoiceSet:
    """Winners of ``rule_id`` on ``profile`` (memoized)."""
    return _evaluate_cached(rule_id, tuple(profile))
