"""Exhaustive iteration and counting over anonymous three-candidate profiles.

Counts are exact integer arithmetic end to end; fractions are rendered to
decimals only at the output boundary.  Two access paths are provided:

* :class:`ProfileCursor` — a deterministic colexicographic stream of count
  vectors (used by the scalar paths and by any caller that needs the
  canonical profile order).
* :func:`irresoluteness` — exact counting of the profiles with several
  winners, by what the rule reads (``rules.resolve``).  A margin-determined
  rule is decided once per margin triple, by a numpy kernel or by its margin
  function, and each triple is weighted by the closed-form number of profiles
  sharing it.  Positional rules are counted over the same cells in closed
  form, and the artificial rule over the profiles of the cells where maximin
  ties; the bounded search rules (Dodgson, Young) by a cursor sweep.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from decimal import ROUND_HALF_EVEN, Decimal
from fractions import Fraction
from typing import Callable, Iterator, Optional, Sequence

import numpy as np

from . import rules as _rules
from .core import ORDER_RANK_OF, Profile

CSV_HEADER = "n,rule,irresolute,total,fraction"


def profile_count(n: int) -> int:
    """Number of anonymous profiles with exactly ``n`` voters."""
    if n < 0:
        raise ValueError(f"voter count must be non-negative, got {n}")
    return math.comb(n + 5, 5)


def all_tied_count(n: int) -> int:
    """Number of ``n``-voter profiles whose margins all vanish.

    The margins are zero exactly when each order appears as often as its
    reverse, so the count is the number of ways to split ``n/2`` voters over
    the three reverse pairs; for odd ``n`` there are none (parity).
    """
    return math.comb(n // 2 + 2, 2) if n % 2 == 0 else 0


# ---------------------------------------------------------------------------
# Colexicographic cursor
# ---------------------------------------------------------------------------
#
# Profiles with a fixed voter total are ordered colexicographically: compare
# the count of cba first, then cab, and so on down to abc.  The first profile
# is (n,0,0,0,0,0) and the last is (0,0,0,0,0,n).


def colex_successor(profile: Profile) -> Optional[Profile]:
    """The next count vector in colexicographic order, or None at the end."""
    counts = list(profile)
    if counts[0] > 0:
        counts[0] -= 1
        counts[1] += 1
        return tuple(counts)
    for j in range(1, 6):
        if counts[j] > 0:
            if j == 5:
                return None
            counts[0] = counts[j] - 1
            counts[j] = 0
            counts[j + 1] += 1
            return tuple(counts)
    return None


@dataclass(frozen=True)
class ProfileCursor:
    """All anonymous profiles with ``n`` voters, in colex order from
    ``(n, 0, 0, 0, 0, 0)``.  Iteration yields plain count tuples."""

    n: int

    def __post_init__(self) -> None:
        profile_count(self.n)  # rejects a negative voter count

    def __len__(self) -> int:
        return profile_count(self.n)

    def __iter__(self) -> Iterator[Profile]:
        profile: Optional[Profile] = (self.n, 0, 0, 0, 0, 0)
        while profile is not None:
            yield profile
            profile = colex_successor(profile)


def enumerate_profiles(n: int) -> Iterator[Profile]:
    """All anonymous profiles with ``n`` voters in colex order."""
    return iter(ProfileCursor(n))


def profiles_up_to(bound: int, min_n: int = 1) -> Iterator[Profile]:
    """All profiles with ``min_n <= n <= bound``, ordered by (n, colex)."""
    for n in range(min_n, bound + 1):
        yield from ProfileCursor(n)


# ---------------------------------------------------------------------------
# Counting over margin cells
# ---------------------------------------------------------------------------
#
# Let d_i be the surplus of an order over its reverse in the pairs (abc, cba),
# (acb, bca) and (cab, bac).  Then m_ab = d1+d2+d3, m_ac = d1+d2-d3 and
# m_bc = d1-d2-d3, and the profiles with surplus d put |d_i| + 2 t_i voters on
# pair i with t1+t2+t3 = J = (n - |d|_1) / 2: C(J+2, 2) of them share the
# margin triple.  With u = d2+d3 and v = d2-d3, |d2| + |d3| = max(|u|, |v|), so
# the cells with a given d1 are the grid u, v in {-r, -r+2, ..., r} with
# r = n - |d1|, and their margins are (d1+u, d1+v, d1-u).

#: cells per chunk; whole d1 slabs are grouped up to this size, so small
#: electorates take a few numpy calls and memory stays O(n^2) for large ones
_CELL_CHUNK = 1 << 16


def _expand(sizes: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``(owner, k)`` for every ``k in range(sizes[owner])``, owner by owner."""
    owner = np.repeat(np.arange(sizes.size), sizes)
    return owner, np.arange(owner.size) - (np.cumsum(sizes) - sizes)[owner]


def _cell_chunk(n: int, d1: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Margins and profile counts of every ``n``-voter cell in the ``d1`` slabs."""
    side = n + 1 - np.abs(d1)
    slab, index = _expand(side * side)
    side = side[slab]
    u = 2 * (index // side) - (side - 1)
    v = 2 * (index % side) - (side - 1)
    d1 = d1[slab]
    j = (side - 1 - np.maximum(np.abs(u), np.abs(v))) // 2
    return np.stack((d1 + u, d1 + v, d1 - u), axis=1), (j + 1) * (j + 2) // 2


def _margin_cells(n: int) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    """Chunks ``(margins, weights)`` of the margin triples reachable with
    ``n`` voters: ``weights[i]`` profiles have the margins ``margins[i]``."""
    lo, cells = -n, 0
    for d1 in range(-n, n + 1):
        cells += (n + 1 - abs(d1)) ** 2
        if cells >= _CELL_CHUNK or d1 == n:
            yield _cell_chunk(n, np.arange(lo, d1 + 1, dtype=np.int64))
            lo, cells = d1 + 1, 0


# --- margin kernels: boolean "irresolute" flags per row --------------------


def _ties_at_max(*scores: np.ndarray) -> np.ndarray:
    best = scores[0]
    for s in scores[1:]:
        best = np.maximum(best, s)
    count = sum((s == best).astype(np.int8) for s in scores)
    return count >= 2


def _borda_columns(m: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    return m[:, 0] + m[:, 1], m[:, 2] - m[:, 0], -m[:, 1] - m[:, 2]


def _maximin_winners(m: np.ndarray) -> np.ndarray:
    """Per row, whether maximin elects each candidate."""
    # worst margins: a min(m_ab, m_ac), b min(-m_ab, m_bc), c min(-m_ac, -m_bc)
    worst = np.minimum(m[:, [0, 0, 1]] * [1, -1, -1], m[:, [1, 2, 2]] * [1, 1, -1])
    return worst == worst.max(axis=1, keepdims=True)


def _kernel_leximin(m: np.ndarray, n: int) -> np.ndarray:
    # Encode each candidate's ascending margin pair (lo, hi) as one key that
    # sorts lexicographically; leximin is irresolute iff the best key ties.
    step = 2 * n + 1
    keys = []
    for first, second in (
        (m[:, 0], m[:, 1]),
        (-m[:, 0], m[:, 2]),
        (-m[:, 1], -m[:, 2]),
    ):
        lo = np.minimum(first, second)
        hi = np.maximum(first, second)
        keys.append(lo * step + hi)
    return _ties_at_max(*keys)


def _condorcet_winner_exists(m: np.ndarray) -> np.ndarray:
    return (
        ((m[:, 0] > 0) & (m[:, 1] > 0))
        | ((m[:, 0] < 0) & (m[:, 2] > 0))
        | ((m[:, 1] < 0) & (m[:, 2] < 0))
    )


def _kernel_black(m: np.ndarray) -> np.ndarray:
    return ~_condorcet_winner_exists(m) & _ties_at_max(*_borda_columns(m))


def _kernel_borda(m: np.ndarray) -> np.ndarray:
    return _ties_at_max(*_borda_columns(m))


def _kernel_copeland(m: np.ndarray) -> np.ndarray:
    sgn_ab, sgn_ac, sgn_bc = np.sign(m[:, 0]), np.sign(m[:, 1]), np.sign(m[:, 2])
    return _ties_at_max(sgn_ab + sgn_ac, sgn_bc - sgn_ab, -sgn_ac - sgn_bc)


def _kernel_nanson(m: np.ndarray) -> np.ndarray:
    ba, bb, bc = _borda_columns(m)
    all_zero = (ba == 0) & (bb == 0) & (bc == 0)
    npos = (ba > 0).astype(np.int8) + (bb > 0) + (bc > 0)
    # With two positive scores the negative candidate is deleted and the
    # outcome hinges on the survivors' head-to-head margin.
    pair_margin = np.where(
        (ba > 0) & (bb > 0), m[:, 0], np.where((ba > 0) & (bc > 0), m[:, 1], m[:, 2])
    )
    return all_zero | ((npos == 2) & (pair_margin == 0))


def _kernel_strict_nanson(m: np.ndarray) -> np.ndarray:
    ba, bb, bc = _borda_columns(m)
    all_zero = (ba == 0) & (bb == 0) & (bc == 0)
    nneg = (ba < 0).astype(np.int8) + (bb < 0) + (bc < 0)
    # With exactly one negative score that candidate is deleted and the
    # survivors tie iff their head-to-head margin vanishes.
    pair_margin = np.where(
        bc < 0, m[:, 0], np.where(bb < 0, m[:, 1], m[:, 2])
    )
    return all_zero | ((nneg == 1) & (pair_margin == 0))


def _kernel_baldwin(m: np.ndarray) -> np.ndarray:
    scores = _borda_columns(m)
    low = np.minimum(np.minimum(scores[0], scores[1]), scores[2])
    out_a, out_b, out_c = (s == low for s in scores)
    # Each branch deletes one Borda minimizer and elects the head-to-head
    # winner(s) of the two survivors.  When all three scores tie the branches
    # together elect every candidate, as the scalar rule does directly.
    elected_a = (out_b & (m[:, 1] >= 0)) | (out_c & (m[:, 0] >= 0))
    elected_b = (out_a & (m[:, 2] >= 0)) | (out_c & (m[:, 0] <= 0))
    elected_c = (out_a & (m[:, 2] <= 0)) | (out_b & (m[:, 1] <= 0))
    return elected_a.astype(np.int8) + elected_b + elected_c >= 2


_MARGIN_KERNELS: dict[str, Callable[[np.ndarray, int], np.ndarray]] = {
    "maximin": lambda m, n: _maximin_winners(m).sum(axis=1) >= 2,
    "leximin": _kernel_leximin,
    "black": lambda m, n: _kernel_black(m),
    "borda": lambda m, n: _kernel_borda(m),
    "copeland": lambda m, n: _kernel_copeland(m),
    "nanson": lambda m, n: _kernel_nanson(m),
    "strict_nanson": lambda m, n: _kernel_strict_nanson(m),
    "baldwin": lambda m, n: _kernel_baldwin(m),
}


def _margin_cell_count(rule_id: str, margin_rule: Callable, n: int) -> int:
    """Profiles on which a margin-determined rule is irresolute; a rule with
    no kernel is evaluated once per margin cell."""
    kernel = _MARGIN_KERNELS.get(rule_id) or (
        lambda m, n: np.array([len(margin_rule(tuple(t))) >= 2 for t in m.tolist()])
    )
    return sum(int(weights[kernel(m, n)].sum()) for m, weights in _margin_cells(n))


def condorcet_profile_count(n: int) -> int:
    """Number of ``n``-voter profiles with a Condorcet winner."""
    cells = _margin_cells(n)
    return sum(int(weights[_condorcet_winner_exists(m)].sum()) for m, weights in cells)


# ---------------------------------------------------------------------------
# Counting over the fibres of margin cells (positional and artificial rules)
# ---------------------------------------------------------------------------
#
# The profiles of the cell with surplus d differ only in t = (t1, t2, t3),
# t1 + t2 + t3 = J, the order/reverse pairs added to the |d_i| surplus voters.
# When every order gives each candidate fixed points, x scores
# K_x + sum_i A_i[x] t_i: K_x from the surplus voters, A_i[x] from one pair of
# kind i.

#: the order and the reverse order of each pair kind; d_i is the order's surplus
_ORDERS, _REVERSES = [0, 1, 4], [5, 3, 2]


def _order_points(by_position: Sequence[Sequence[int]]) -> np.ndarray:
    """``points[order, candidate]`` from each order's points for its top,
    middle and bottom candidate."""
    rows = np.array(by_position, dtype=np.int64)
    return np.take_along_axis(rows, np.array(ORDER_RANK_OF), axis=1)


def _surplus_points(m: np.ndarray, n: int, points: np.ndarray) -> tuple:
    """``(J, K)`` per cell: the number of pairs, and the points the surplus
    voters give each candidate."""
    d = m @ np.array([[1, 0, 1], [0, 1, -1], [1, -1, 0]]) // 2  # inverts the margins
    j = (n - np.abs(d).sum(axis=1)) // 2
    return j, np.maximum(d, 0) @ points[_ORDERS] + np.maximum(-d, 0) @ points[_REVERSES]


def _scoring_count(n: int, vector: Sequence[Fraction]) -> int:
    """Profiles with ``n`` voters on which the scoring rule ties.

    A pair of kind i gives its middle candidate 2 s2 and the other two
    s1 + s3, so x scores K_x + (s1 + s3) J - gamma u_x with
    gamma = s1 - 2 s2 + s3, where u = (t3, t1, t2) counts the pairs that rank
    a, b, c in the middle.  A tie of x and y fixes u_x - u_y = k and leaves
    an interval of u_x, cut by "z is not above"; the three pairwise counts
    count a three-way tie three times, so it is taken off twice.
    """
    scale = math.lcm(*(f.denominator for f in vector))
    s1, s2, s3 = (int(f * scale) for f in vector)
    gamma = s1 - 2 * s2 + s3
    points = _order_points([(s1, s2, s3)] * 6)
    count = 0
    for m, weights in _margin_cells(n):
        j, score = _surplus_points(m, n, points)
        if gamma == 0:  # the scores are the same on the whole cell
            count += int(weights[_ties_at_max(*score.T)].sum())
            continue
        k, whole = [], []
        for x, y, z in ((0, 1, 2), (0, 2, 1), (1, 2, 0)):
            k_xy, rest = np.divmod(score[:, x] - score[:, y], gamma)
            k.append(k_xy)
            whole.append(rest == 0)
            # u_x, u_y = u_x - k and u_z = J + k - 2 u_x are >= 0, and
            # z is not above: 3 gamma u_x <= gamma (J + k) + K_x - K_z
            lo, hi = np.maximum(k_xy, 0), (j + k_xy) // 2
            top = gamma * (j + k_xy) + score[:, x] - score[:, z]
            if gamma > 0:
                hi = np.minimum(hi, top // (3 * gamma))
            else:
                lo = np.maximum(lo, -(-top // (3 * gamma)))
            count += int(np.maximum(hi - lo + 1, 0)[whole[-1]].sum())
        # three-way ties: 3 u_a = J + k_ab + k_ac, with u_a, u_b, u_c >= 0
        u3 = j + k[0] + k[1]
        lowest = np.maximum(np.maximum(k[0], k[1]), 0)
        count -= 2 * int((whole[0] & whole[1] & (u3 % 3 == 0) & (u3 // 3 >= lowest)).sum())
    return count


def _artificial_count(n: int) -> int:
    """Profiles with ``n`` voters on which the artificial rule ties.

    Maximin winners are refined by points, so only the cells where maximin
    ties can tie; their fibres are expanded profile by profile.
    """
    table = _rules.artificial_table(n)
    points = _order_points([(top, mid, 0) for top, mid in table])
    pair = points[_ORDERS] + points[_REVERSES]  # A_i[x]
    count = 0
    for m, weights in _margin_cells(n):
        winners = _maximin_winners(m)
        tied = winners.sum(axis=1) >= 2
        winners, weights = winners[tied], weights[tied]
        j, surplus = _surplus_points(m[tied], n, points)
        # fibres in pieces of about _CELL_CHUNK profiles, so memory stays bounded
        ends = np.cumsum(weights)
        cuts = np.searchsorted(ends, np.arange(_CELL_CHUNK, ends[-1:].sum(), _CELL_CHUNK))
        for cells in np.split(np.arange(j.size), cuts):
            cell, t1 = _expand(j[cells] + 1)
            row, t2 = _expand(j[cells][cell] - t1 + 1)
            cell, t1 = cells[cell][row], t1[row]
            t = np.stack((t1, t2, j[cell] - t1 - t2), axis=1)
            # points are never negative, so -1 keeps a maximin loser out
            score = np.where(winners[cell], surplus[cell] + t @ pair, -1)
            count += int(_ties_at_max(*score.T).sum())
    return count


@dataclass(frozen=True)
class FrequencyRow:
    """One data point of the irresoluteness-frequency figure."""

    n: int
    rule: str
    irresolute: int
    total: int

    def __post_init__(self) -> None:
        if not 0 <= self.irresolute <= self.total:
            raise ValueError(f"count {self.irresolute} outside [0, {self.total}]")

    @property
    def fraction(self) -> Fraction:
        return Fraction(self.irresolute, self.total)

    def fraction_str(self) -> str:
        exact = Decimal(self.irresolute) / Decimal(self.total)
        return str(exact.quantize(Decimal("0.000001"), rounding=ROUND_HALF_EVEN))

    def csv(self) -> str:
        return f"{self.n},{self.rule},{self.irresolute},{self.total},{self.fraction_str()}"


def irresoluteness(
    rule_id: str,
    n: int,
    workers: Optional[int] = None,  # ignored; perfbench/worker.py still passes it
    exclude_all_tied: Optional[bool] = None,
) -> FrequencyRow:
    """Exact count of ``n``-voter profiles on which the rule is irresolute.

    ``exclude_all_tied`` controls whether completely tied profiles (all
    margins zero) are left out of the count; the default is the rule's
    ``exclude_all_tied`` entry in ``rules.RULES``.
    """
    if n < 1:
        raise ValueError(f"voter count must be positive, got {n}")
    total = profile_count(n)
    resolved, rule = _rules.resolve(rule_id)
    if exclude_all_tied is None:
        exclude_all_tied = rule.exclude_all_tied
    # Completely tied profiles make every implemented rule irresolute, so
    # excluding them is a closed-form subtraction rather than a scan filter.
    tied = all_tied_count(n) if exclude_all_tied else 0

    if rule.reads == _rules.MARGINS:
        count = _margin_cell_count(resolved, rule.compute, n)
    elif rule.reads == _rules.SCORES:
        count = _scoring_count(n, rule.compute)
    elif resolved == "artificial":
        count = _artificial_count(n)
    else:
        # The bounded search rules are swept profile by profile; their voter
        # cap keeps n small.
        count = sum(
            len(_rules.evaluate_uncached(rule_id, p)) >= 2 for p in ProfileCursor(n)
        )
    return FrequencyRow(n, rule_id, count - tied, total)


# ---------------------------------------------------------------------------
# Witness search
# ---------------------------------------------------------------------------


def search(
    predicate: Callable[[Profile], bool],
    bound: int,
    mode: str = "first",
) -> list[Profile]:
    """Profiles with ``1 <= n <= bound`` satisfying a pure predicate.

    Profiles are visited by voter count and then in colex order, so the
    witness list is deterministic; ``mode="first"`` short-circuits at the
    first hit.
    """
    if mode not in ("first", "all"):
        raise ValueError(f"unknown search mode: {mode!r}")
    hits: list[Profile] = []
    for profile in profiles_up_to(bound):
        if predicate(profile):
            hits.append(profile)
            if mode == "first":
                break
    return hits
