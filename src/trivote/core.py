"""Candidates, linear orders, anonymous profiles and margin arithmetic.

Everything downstream works over two tiny value types:

* a profile is a tuple of 6 non-negative counts, one per linear order over
  the candidates a, b, c (order indices: abc=0, acb=1, bac=2, bca=3, cab=4,
  cba=5);
* a margin graph is a tuple ``(m_ab, m_ac, m_bc)`` of signed integers, the
  remaining margins being determined by antisymmetry.

This module also classifies margin graphs without a Condorcet winner into the
12 shape classes A..L, each with the relabeling permutation that maps the
input onto its canonical shape.  A class and its relabeling are one sign
pattern of the margins and their pairwise sums and differences, read with one
lookup.  It also synthesizes a profile realizing any same-parity margin graph.
"""

from __future__ import annotations

import operator
import re
from dataclasses import dataclass
from typing import Iterable, Optional

Profile = tuple[int, int, int, int, int, int]
Margins = tuple[int, int, int]  # (m_ab, m_ac, m_bc)
ChoiceSet = frozenset  # frozenset of candidate indices

A, B, C = 0, 1, 2
CANDIDATES = (A, B, C)
CANDIDATE_NAMES = "abc"
#: the choice set of each 3-bit mask: candidate x is in it when bit x is set
CHOICE_SETS = tuple(frozenset(x for x in CANDIDATES if mask >> x & 1) for mask in range(8))

ORDER_NAMES = ("abc", "acb", "bac", "bca", "cab", "cba")
#: order index -> (top, mid, bottom) candidate indices
ORDER_RANKING = (
    (A, B, C),
    (A, C, B),
    (B, A, C),
    (B, C, A),
    (C, A, B),
    (C, B, A),
)
#: order index -> contribution of one such voter to (m_ab, m_ac, m_bc)
ORDER_MARGIN_VECTOR = (
    (1, 1, 1),    # abc
    (1, 1, -1),   # acb
    (-1, 1, 1),   # bac
    (-1, -1, 1),  # bca
    (1, -1, -1),  # cab
    (-1, -1, -1), # cba
)

EMPTY_PROFILE: Profile = (0, 0, 0, 0, 0, 0)

#: all 6 candidate permutations sigma, as tuples (sigma(a), sigma(b), sigma(c))
PERMUTATIONS = (
    (0, 1, 2),
    (0, 2, 1),
    (1, 0, 2),
    (1, 2, 0),
    (2, 0, 1),
    (2, 1, 0),
)
IDENTITY = PERMUTATIONS[0]

_ORDER_INDEX = {name: i for i, name in enumerate(ORDER_NAMES)}
#: rank of candidate x in order o (0 = top)
ORDER_RANK_OF = tuple(
    tuple(ranking.index(x) for x in CANDIDATES) for ranking in ORDER_RANKING
)


def top(order: int) -> int:
    return ORDER_RANKING[order][0]


def mid(order: int) -> int:
    return ORDER_RANKING[order][1]


def bottom(order: int) -> int:
    return ORDER_RANKING[order][2]


def total_voters(profile: Profile) -> int:
    return sum(profile)


_TERM_RE = re.compile(r"^(\d+)?([a-c]{3})$")


def parse_profile(text: str) -> Profile:
    """Parse a profile string like ``"3abc+2bca+1bac+1cab"``.

    Grammar: ``term ('+' term)*`` where a term is an optional positive count
    followed by a 3-letter permutation of abc.  Case-insensitive, whitespace
    ignored, counts of repeated terms accumulate.
    """
    compact = re.sub(r"\s+", "", text).lower()
    if not compact:
        raise ValueError("empty profile string")
    counts = [0] * 6
    for term in compact.split("+"):
        m = _TERM_RE.match(term)
        if not m:
            raise ValueError(f"malformed profile term: {term!r}")
        count = int(m.group(1)) if m.group(1) else 1
        if count <= 0:
            raise ValueError(f"non-positive count in profile term: {term!r}")
        letters = m.group(2)
        if letters not in _ORDER_INDEX:
            raise ValueError(f"not a permutation of abc in profile term: {term!r}")
        counts[_ORDER_INDEX[letters]] += count
    return tuple(counts)


def format_profile(profile: Profile) -> str:
    """Render a profile in canonical order-index order, counts always printed."""
    parts = [
        f"{count}{ORDER_NAMES[i]}" for i, count in enumerate(profile) if count
    ]
    return "+".join(parts)


def margins(profile: Profile) -> Margins:
    """Pairwise majority margins (m_ab, m_ac, m_bc) of a profile."""
    m_ab = m_ac = m_bc = 0
    for count, (v_ab, v_ac, v_bc) in zip(profile, ORDER_MARGIN_VECTOR):
        m_ab += count * v_ab
        m_ac += count * v_ac
        m_bc += count * v_bc
    return (m_ab, m_ac, m_bc)


#: MARGIN_MATRIX[x][y] = (coordinate, sign): the margin of x over y is
#: sign * m[coordinate]; antisymmetric, with sign 0 on the diagonal
MARGIN_MATRIX = (
    ((0, 0), (0, 1), (1, 1)),
    ((0, -1), (0, 0), (2, 1)),
    ((1, -1), (2, -1), (0, 0)),
)


def margin(m: Margins, x: int, y: int) -> int:
    """Signed margin of x over y, from the stored triple."""
    coordinate, sign = MARGIN_MATRIX[x][y]
    return sign * m[coordinate]


def condorcet_winner(m: Margins) -> Optional[int]:
    """The candidate with strictly positive margin over both others, if any."""
    m_ab, m_ac, m_bc = m
    if m_ab > 0 and m_ac > 0:
        return A
    if m_ab < 0 and m_bc > 0:
        return B
    if m_ac < 0 and m_bc < 0:
        return C
    return None


def intermediate_condorcet_winners(m: Margins) -> ChoiceSet:
    """Candidates with non-negative margins over both others, at least one strict."""
    winners = []
    for x in CANDIDATES:
        ms = [margin(m, x, y) for y in CANDIDATES if y != x]
        if min(ms) >= 0 and max(ms) > 0:
            winners.append(x)
    return frozenset(winners)


def borda_scores(m: Margins) -> tuple[int, int, int]:
    """Margin-based Borda scores (beta_a, beta_b, beta_c); they sum to zero."""
    m_ab, m_ac, m_bc = m
    return (m_ab + m_ac, -m_ab + m_bc, -m_ac - m_bc)


def combine(p: Profile, q: Profile) -> Profile:
    """Merge two electorates: componentwise count addition."""
    return tuple(x + y for x, y in zip(p, q))


def t_fold(p: Profile, t: int) -> Profile:
    """The profile consisting of t copies of p; t must be >= 1."""
    if t < 1:
        raise ValueError(f"t_fold factor must be >= 1, got {t}")
    return tuple(t * c for c in p)


def apply_permutation_to_order(sigma: tuple[int, int, int], order: int) -> int:
    """Index of the order obtained by renaming candidates through sigma."""
    t, m_, b_ = ORDER_RANKING[order]
    renamed = (sigma[t], sigma[m_], sigma[b_])
    return ORDER_RANKING.index(renamed)


# order-permutation table: _ORDER_PERM[s][o] = order o with candidates renamed
# by PERMUTATIONS[s]
_ORDER_PERM = tuple(
    tuple(apply_permutation_to_order(sigma, o) for o in range(6))
    for sigma in PERMUTATIONS
)


#: per sigma, the picks from a profile that give the renamed profile: order t
#: gets the voters of the order that sigma renames to t
_PROFILE_PICK = {
    sigma: operator.itemgetter(*(renamed.index(t) for t in range(6)))
    for sigma, renamed in zip(PERMUTATIONS, _ORDER_PERM)
}


def permute_profile(profile: Profile, sigma: tuple[int, int, int]) -> Profile:
    """Profile with every voter's order renamed through sigma."""
    return _PROFILE_PICK[sigma](profile)


#: per sigma, in lexicographic order, the renamed triple as signed picks from
#: the old one: m'_{x,y} = m_{inv(x),inv(y)} for the pairs ab, ac, bc, where
#: inv(x) = sigma.index(x)
_MARGIN_PERM = {
    sigma: tuple(
        MARGIN_MATRIX[sigma.index(x)][sigma.index(y)] for x, y in ((A, B), (A, C), (B, C))
    )
    for sigma in PERMUTATIONS
}


def permute_margins(m: Margins, sigma: tuple[int, int, int]) -> Margins:
    """Margins of the renamed electorate: m'_{sigma(x),sigma(y)} = m_{x,y}."""
    return tuple(sign * m[src] for src, sign in _MARGIN_PERM[sigma])


def permute_choice_set(s: Iterable[int], sigma: tuple[int, int, int]) -> ChoiceSet:
    return frozenset(sigma[x] for x in s)


@dataclass(frozen=True)
class OrdinalClass:
    """Classification of a margin graph.

    ``kind`` is "condorcet_winner" (with ``winner`` set) or one of the class
    letters "A".."L".  ``relabel`` is the candidate permutation sigma mapping
    the input graph onto the canonical shape of its class (identity for the
    Condorcet-winner case); when several permutations work, the
    lexicographically smallest is recorded.
    """

    kind: str
    relabel: tuple[int, int, int]
    winner: Optional[int] = None


#: per class letter, a canonical triple and its shape, with m_ca = -m_ac and m_cb = -m_bc
_SHAPES = {
    "A": (1, -1, 1),  # m_ab = m_bc = m_ca > 0
    "B": (0, 0, 0),   # all margins zero
    "C": (2, -1, 1),  # m_ab > m_bc = m_ca > 0
    "D": (1, 0, 0),   # m_ab > m_bc = m_ca = 0
    "E": (1, 0, -1),  # m_ab = m_cb > m_ca = 0
    "F": (2, 0, -1),  # m_ab > m_cb > m_ca = 0
    "G": (3, -1, 2),  # m_ab > m_bc > m_ca > 0
    "H": (2, 0, 1),   # m_ab > m_bc > m_ca = 0
    "I": (2, -1, 2),  # m_ab = m_bc > m_ca > 0
    "J": (1, 0, 1),   # m_ab = m_bc > m_ca = 0
    "K": (2, -1, 3),  # m_bc > m_ab > m_ca > 0
    "L": (1, 0, 2),   # m_bc > m_ab > m_ca = 0
}
CLASS_LETTERS = tuple(sorted(_SHAPES))


def _signs(m: Margins) -> tuple[int, ...]:
    """The signs of m_ab, m_ac, m_bc, m_ab +- m_ac, m_ab +- m_bc and m_ac +- m_bc."""
    ab, ac, bc = m
    forms = (ab, ac, bc, ab + ac, ab - ac, ab + bc, ab - bc, ac + bc, ac - bc)
    return tuple([(x > 0) - (x < 0) for x in forms])


# A shape compares only the forms of _signs, so in canonical orientation a
# class is one sign pattern.  sigma permutes the forms up to sign: it maps m
# onto a shape when m has the signs of the shape relabeled by sigma's inverse.
# Filled from the largest sigma down, a pattern keeps the smallest sigma.
_CLASS_OF_SIGNS = {
    _signs(permute_margins(shape, tuple(map(sigma.index, CANDIDATES)))): OrdinalClass(letter, sigma)
    for sigma in reversed(PERMUTATIONS)
    for letter, shape in _SHAPES.items()
}
_CONDORCET_CLASSES = tuple(OrdinalClass("condorcet_winner", IDENTITY, w) for w in CANDIDATES)


def classify(m: Margins) -> OrdinalClass:
    """Classify a margin graph into Condorcet-winner case or classes A..L:
    a class and its relabeling are read from the signs of m with one lookup."""
    w = condorcet_winner(m)
    if w is not None:
        return _CONDORCET_CLASSES[w]
    return _CLASS_OF_SIGNS[_signs(m)]


# two-voter gadgets adding +2 to exactly one margin coordinate:
#   {abc, cab} -> (+2, 0, 0);  {acb, bac} -> (0, +2, 0);  {abc, bca} -> (0, 0, +2)
# and the order-reversed pairs for -2.
_GADGET_UP = ((0, 4), (1, 2), (0, 3))
_GADGET_DOWN = ((5, 2), (3, 4), (5, 1))


def mcgarvey(target: Margins) -> Profile:
    """A profile whose margins equal ``target`` exactly.

    The target margins must share a parity.  If the parity is odd, one seed
    voter is placed on the order that best matches the sign pattern; each
    margin is then repaired independently with two-voter gadgets.  The result
    is not minimal in voter count.
    """
    parities = {abs(x) % 2 for x in target}
    if len(parities) != 1:
        raise ValueError(f"mixed-parity margin target: {target}")
    counts = [0] * 6
    remaining = list(target)
    if parities == {1}:
        best = max(
            range(6),
            key=lambda o: sum(
                (1 if t > 0 else -1) * v if t != 0 else 0
                for t, v in zip(target, ORDER_MARGIN_VECTOR[o])
            ),
        )
        counts[best] += 1
        remaining = [t - v for t, v in zip(remaining, ORDER_MARGIN_VECTOR[best])]
    for coord, delta in enumerate(remaining):
        gadget = _GADGET_UP[coord] if delta > 0 else _GADGET_DOWN[coord]
        for o in gadget:
            counts[o] += abs(delta) // 2
    return tuple(counts)


def choice_set_to_str(s: Iterable[int]) -> str:
    """Render a choice set as ``{a,b}`` with candidates in a,b,c order."""
    return "{" + ",".join(CANDIDATE_NAMES[x] for x in sorted(s)) + "}"


def parse_choice_set(text: str) -> ChoiceSet:
    inner = text.strip().strip("{}")
    members = [p for p in inner.replace(" ", "").split(",") if p]
    out = set()
    for name in members:
        if len(name) != 1 or name not in CANDIDATE_NAMES:
            raise ValueError(f"unknown candidate {name!r}")
        out.add(CANDIDATE_NAMES.index(name))
    return frozenset(out)
