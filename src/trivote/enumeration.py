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
  sharing it.  Positional rules, and whole-profile rules with a block kernel
  (the artificial rule), are counted by a blocked numpy scan of all
  ``C(n+5, 5)`` profiles, optionally threaded; any other whole-profile rule
  by a cursor sweep.
"""

from __future__ import annotations

import functools
import math
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from decimal import ROUND_HALF_EVEN, Decimal
from fractions import Fraction
from typing import Callable, Iterator, Optional, Sequence

import numpy as np

from . import rules as _rules
from .core import ORDER_MARGIN_VECTOR, ORDER_RANKING, Profile

#: Environment variable consulted for the default worker count.
WORKERS_ENV_VAR = "TRIVOTE_WORKERS"

CSV_HEADER = "n,rule,irresolute,total,fraction"

#: Rules whose frequency curves leave out the completely tied profiles.
#:
#: On a profile where every pairwise margin is zero, every anonymous neutral
#: rule returns all three candidates, so such ties say nothing about the rule
#: itself.  The reference curves for the maximin family exclude them (the
#: black curve does not); :func:`irresoluteness` applies the same defaults.
EXCLUDE_ALL_TIED = ("maximin", "nanson", "leximin")


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


def _cell_chunk(n: int, d1: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Margins and profile counts of every ``n``-voter cell in the ``d1`` slabs."""
    side = n + 1 - np.abs(d1)
    sizes = side * side
    slab = np.repeat(np.arange(d1.size), sizes)
    index = np.arange(sizes.sum()) - (np.cumsum(sizes) - sizes)[slab]
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


def _kernel_maximin(m: np.ndarray) -> np.ndarray:
    sa = np.minimum(m[:, 0], m[:, 1])
    sb = np.minimum(-m[:, 0], m[:, 2])
    sc = np.minimum(-m[:, 1], -m[:, 2])
    return _ties_at_max(sa, sb, sc)


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
    "maximin": lambda m, n: _kernel_maximin(m),
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


# ---------------------------------------------------------------------------
# Blocked profile scan (positional and artificial rules)
# ---------------------------------------------------------------------------

_V = np.array(ORDER_MARGIN_VECTOR, dtype=np.int64)  # (6, 3) order -> margins


@functools.lru_cache(maxsize=32)
def _compositions4(m: int) -> np.ndarray:
    """All compositions of ``m`` into 4 ordered parts, shape (C(m+3,3), 4)."""
    rows = []
    for c3 in range(m + 1):
        for c2 in range(m - c3 + 1):
            for c1 in range(m - c3 - c2 + 1):
                rows.append((m - c3 - c2 - c1, c1, c2, c3))
    return np.asarray(rows, dtype=np.int64).reshape(-1, 4)


def _blocks(n: int) -> Iterator[tuple[int, int, int]]:
    """Block coordinates (m, c4, c5) with m = n - c4 - c5.

    Blocks are grouped by m so consecutive blocks share one cached
    composition template; within a block the first four counts range over
    all compositions of m.
    """
    for s in range(n + 1):
        for c5 in range(s + 1):
            yield n - s, s - c5, c5


# --- positional kernels (need the count columns, not just margins) ---------


def _scoring_points(vector: Sequence[Fraction]) -> np.ndarray:
    """Integer points-per-(order, candidate) matrix for a scoring vector."""
    scale = math.lcm(*(f.denominator for f in vector))
    scaled = [int(f * scale) for f in vector]
    points = np.zeros((6, 3), dtype=np.int64)
    for order, ranking in enumerate(ORDER_RANKING):
        for position, candidate in enumerate(ranking):
            points[order, candidate] = scaled[position]
    return points


def _positional_irresolute(
    template: np.ndarray, c4: int, c5: int, points: np.ndarray
) -> np.ndarray:
    scores = template @ points[:4]
    scores = scores + c4 * points[4] + c5 * points[5]
    return _ties_at_max(scores[:, 0], scores[:, 1], scores[:, 2])


def _artificial_irresolute(
    template: np.ndarray, c4: int, c5: int, n: int
) -> np.ndarray:
    table = _rules.artificial_table(n)
    points = np.zeros((6, 3), dtype=np.int64)
    for order, (top_points, second_points) in enumerate(table):
        ranking = ORDER_RANKING[order]
        points[order, ranking[0]] = top_points
        points[order, ranking[1]] = second_points
    scores = template @ points[:4] + c4 * points[4] + c5 * points[5]

    m = template @ _V[:4] + c4 * _V[4] + c5 * _V[5]
    sa = np.minimum(m[:, 0], m[:, 1])
    sb = np.minimum(-m[:, 0], m[:, 2])
    sc = np.minimum(-m[:, 1], -m[:, 2])
    best = np.maximum(sa, np.maximum(sb, sc))
    masked = [
        np.where(s == best, scores[:, c], np.int64(-1))
        for c, s in enumerate((sa, sb, sc))
    ]
    top = np.maximum(masked[0], np.maximum(masked[1], masked[2]))
    count = sum((col == top).astype(np.int8) for col in masked)
    return count >= 2


#: whole-profile rules counted by the blocked scan: id -> block flags
_BLOCK_KERNELS: dict[str, Callable[[np.ndarray, int, int, int], np.ndarray]] = {
    "artificial": _artificial_irresolute,
}


def worker_count(workers: Optional[int] = None) -> int:
    """Threads for the blocked scan: ``workers``, else ``TRIVOTE_WORKERS``,
    else all usable CPUs, and never more than those.  Raises ``ValueError``
    when the variable holds anything but a positive integer."""
    affinity = getattr(os, "sched_getaffinity", None)
    available = len(affinity(0)) if affinity else os.cpu_count() or 1
    if workers is None:
        text = os.environ.get(WORKERS_ENV_VAR)
        if not text:
            return available
        workers = int(text) if text.strip().isdecimal() else 0
        if workers < 1:
            raise ValueError(
                f"{WORKERS_ENV_VAR} must be a positive integer, got {text!r}"
            )
    return max(1, min(workers, available))


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
    workers: Optional[int] = None,
    exclude_all_tied: Optional[bool] = None,
) -> FrequencyRow:
    """Exact count of ``n``-voter profiles on which the rule is irresolute.

    ``exclude_all_tied`` controls whether completely tied profiles (all
    margins zero) are left out of the count; the default follows the
    per-rule convention of :data:`EXCLUDE_ALL_TIED`.
    """
    if n < 1:
        raise ValueError(f"voter count must be positive, got {n}")
    total = profile_count(n)
    resolved, rule = _rules.resolve(rule_id)
    if exclude_all_tied is None:
        exclude_all_tied = resolved in EXCLUDE_ALL_TIED
    # Completely tied profiles make every implemented rule irresolute, so
    # excluding them is a closed-form subtraction rather than a scan filter.
    tied = all_tied_count(n) if exclude_all_tied else 0

    if rule.reads == _rules.MARGINS:
        # Python-level cell loops gain nothing from threads, so ``workers``
        # only applies to the blocked scan below.
        count = _margin_cell_count(resolved, rule.compute, n)
        return FrequencyRow(n, rule_id, count - tied, total)
    if rule.reads == _rules.SCORES:
        points = _scoring_points(rule.compute)
        block_flags = lambda t, c4, c5: _positional_irresolute(t, c4, c5, points)
    elif resolved in _BLOCK_KERNELS:
        block_flags = lambda t, c4, c5: _BLOCK_KERNELS[resolved](t, c4, c5, n)
    else:
        # A whole-profile rule without a block kernel (the bounded search
        # rules) is swept profile by profile; its voter cap keeps n small.
        count = sum(
            len(_rules.evaluate_uncached(rule_id, p)) >= 2 for p in ProfileCursor(n)
        )
        return FrequencyRow(n, rule_id, count - tied, total)

    def scan_block(coords: tuple[int, int, int]) -> int:
        m_total, c4, c5 = coords
        return int(np.count_nonzero(block_flags(_compositions4(m_total), c4, c5)))

    coords = list(_blocks(n))
    worker_total = min(worker_count(workers), len(coords))
    if worker_total <= 1:
        count = sum(scan_block(c) for c in coords)
    else:
        with ThreadPoolExecutor(max_workers=worker_total) as pool:
            count = sum(pool.map(scan_block, coords))
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
