"""Exhaustive iteration and counting over anonymous three-candidate profiles.

Counts are exact integer arithmetic end to end; fractions are rendered to
decimals only at the output boundary.  Two access paths are provided:

* :class:`ProfileCursor` — a deterministic colexicographic stream of count
  vectors (used by the scalar paths and by any caller that needs the
  canonical profile order).
* :func:`frequency_rows` — exact counting of the profiles with several
  winners, for many rules and voter counts at once, by what each rule reads
  (``rules.resolve``); :func:`irresoluteness` is its one-row call.  One pass
  over the margin cells of the largest voter count of each parity serves
  every smaller one: it counts the cells of each of the 267 sign faces of a
  fixed catalogue by their size, and the closed-form number of profiles per
  cell turns that table into the profiles per face at every n.  Under the
  one face contract, a margin function compares only the 12 linear forms
  whose signs define the faces, so it is constant on each face and is read
  from one evaluation per face; the axiom checkers read margin functions the
  same way.  Positional rules are counted in closed form once per score
  class of the same cells (its size and base score differences), and the
  artificial rule over the fibres of the cells where maximin ties; the
  bounded search rules (Dodgson, Young) by a cursor sweep.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from decimal import ROUND_HALF_EVEN, Decimal
from fractions import Fraction
from typing import Callable, Iterable, Iterator, NamedTuple, Optional, Sequence

import numpy as np

from . import rules as _rules
from .core import CANDIDATES, CHOICE_SETS, ORDER_RANK_OF, ChoiceSet, Margins, Profile
from .core import condorcet_winner, total_voters

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


def _profile_pairs(bound: int) -> Iterator[tuple[Profile, Profile]]:
    """Unordered pairs (repeats allowed) of non-empty profiles, n1+n2 <= bound.

    Pairs are generated in canonical order: profiles sorted by (n, colex),
    second component never earlier than the first.
    """
    singles = list(profiles_up_to(bound - 1))
    for i, first in enumerate(singles):
        budget = bound - total_voters(first)
        for second in singles[i:]:
            if total_voters(second) > budget:
                break  # later profiles only get bigger
            yield first, second


# ---------------------------------------------------------------------------
# Margin cells
# ---------------------------------------------------------------------------
#
# The one cell layer: the counting below and the axiom checkers (``axioms``)
# read the cells built here.  Let d_i be the surplus of an order over its
# reverse in the pairs (abc, cba), (acb, bca) and (cab, bac).  Then
# m_ab = d1+d2+d3, m_ac = d1+d2-d3 and m_bc = d1-d2-d3, and the profiles with
# surplus d put |d_i| + 2 t_i voters on pair i with t1+t2+t3 = J =
# (n - |d|_1) / 2: C(J+2, 2) of them (the fibre of d) share the margin triple,
# so the cells of n voters are the d with |d|_1 <= n and the parity of n:
# the shells |d|_1 = L of that parity, L <= n.

#: the order and the reverse order of each pair kind; d_i is the order's surplus
_ORDERS, _REVERSES = [0, 1, 4], [5, 3, 2]

#: row i maps the surplus vector d to margin i: (d1+d2+d3, d1+d2-d3, d1-d2-d3)
_SURPLUS_TO_MARGINS = np.array([[1, 1, 1], [1, 1, -1], [1, -1, -1]])

#: cells per chunk; whole sizes |d|_1 are grouped up to this size, so small
#: electorates take a few numpy calls and memory stays O(n^2) for large ones
_CELL_CHUNK = 1 << 16


def _expand(sizes: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``(owner, k)`` for every ``k in range(sizes[owner])``, owner by owner."""
    owner = np.repeat(np.arange(sizes.size), sizes)
    return owner, np.arange(owner.size) - (np.cumsum(sizes) - sizes)[owner]


def _order_surplus(d: np.ndarray) -> np.ndarray:
    """Per cell, the voters each order holds beyond its reverse."""
    surplus = np.empty((len(d), 6), dtype=d.dtype)
    for i, (order, reverse) in enumerate(zip(_ORDERS, _REVERSES)):  # column by column,
        np.maximum(d[:, i], 0, out=surplus[:, order])  # as index arrays are slow here
        np.maximum(-d[:, i], 0, out=surplus[:, reverse])
    return surplus


# --- sign faces -------------------------------------------------------------
#
# A face is the set of margin triples on which 12 linear forms have the same
# signs: the margins, their pairwise sums and differences, and the
# Borda-score differences.  The one face contract: a margin function read by
# faces compares only these forms, so that it chooses the same set on every
# triple of a face.  Every margin rule in ``rules.RULES``, and the candidates
# who must win under Condorcet (``axioms._CHAMPIONS``), are held to it by the
# face tests in ``tests/test_enumeration.py`` (every cell of n = 15, 16 and
# every same-parity triple in [-24, 24]^3); a function that compared anything
# else would be misread.  ``core.classify`` keeps it by construction: its
# Condorcet test and its one lookup read the signs of the first nine forms,
# which are the top nine digits of the face key, and the lookup answers every
# pattern without a Condorcet winner (``tests/test_enumeration.py`` checks
# both).  So classify, and each rule read from the 12-class table, is
# constant on every face, not only on the cells the face tests sample.
# There are 267 faces, numbered once in the catalogue below, so a face has
# the same position in every process, and each function is evaluated once
# per face, on its catalogue cell, and kept as a vector of output codes by
# face.  The counting weighs each face's profiles together, and the axiom
# checkers read a column of outputs as one gather of that vector.
#
# A triple's face is found from its 12 signs, the face key, or from the
# box: the face positions of every triple with |m_i| <= R, at one linear
# index m . strides + base, filled through the keys and grown when a check
# needs a larger R, each triple keyed once.  The axiom checkers that read
# shifted images grow it with their walk, to the cells walked plus the
# largest shift, and those that read sums of two cells to their bound; an
# image m + b then sits b . strides past m, and m1 + m2 at the sum of their
# indices less base, so an image's face is one gather.  The counting
# maps each cell of its pass once, and keys it unless a check grew the box
# past it.  The checkers read P's faces from the cell table below instead:
# every d with |d|_1 <= R, ordered by |d|_1 and keyed once per process as it
# grows, so a check at any bound reads a prefix and keys no cell twice.


def _face_keys(m: np.ndarray) -> np.ndarray:
    """Per cell, the signs of the 12 forms as a base-3 number in [0, 3**12)."""
    ab, ac, bc = np.ascontiguousarray(m.T, dtype=np.int32)  # the forms stay within 4n
    key = np.zeros(len(m), dtype=np.int32)
    for form in (
        ab, ac, bc, ab + ac, ab - ac, ab + bc, ab - bc, ac + bc, ac - bc,
        2 * ab + ac - bc, ab + 2 * ac + bc, ac + 2 * bc - ab,  # the Borda differences
    ):
        key = 3 * key + np.sign(form) + 1
    return key


def _catalogue() -> tuple[tuple[Margins, ...], np.ndarray]:
    """One same-parity triple of each face, in ascending face key, and those
    keys.  Every integer triple m shares its face with 2m, so the same-parity
    triples reach every face; those of [-9, 9]^3 already do."""
    span = np.arange(-9, 10)
    m = np.stack(np.meshgrid(span, span, span, indexing="ij"), axis=-1).reshape(-1, 3)
    m = m[(m[:, 0] % 2 == m[:, 1] % 2) & (m[:, 1] % 2 == m[:, 2] % 2)]
    keys, first = np.unique(_face_keys(m), return_index=True)
    assert keys.size == 267, keys.size
    return tuple(map(tuple, m[first].tolist())), keys


#: the face catalogue: one cell of each face, and its key, by ascending key; a
#: face is named by its position here
_FACE_CELLS, _FACE_KEYS = _catalogue()
#: per face key, one more than the position of its face, or 0 for a key of no
#: face; the zeros are mapped lazily, so only the 61 pages that hold the
#: catalogue's keys are touched
_POSITION_OF_KEY = np.zeros(3**12, dtype=np.int16)
_POSITION_OF_KEY[_FACE_KEYS] = np.arange(1, len(_FACE_CELLS) + 1)


def _keyed_positions(m: np.ndarray) -> np.ndarray:
    """Per cell, the position of its face in the catalogue, read through its
    face key; a key outside the catalogue raises LookupError."""
    keys = _face_keys(m)
    positions = _POSITION_OF_KEY[keys] - 1
    if (positions < 0).any():
        raise LookupError(f"no face in the catalogue has the key {keys[positions < 0][0]}")
    return positions


class _Box(NamedTuple):
    """The face positions of every margin triple m with |m_i| <= ``reach``:
    a cube of side 2R + 1, R the reach, in which m sits at the linear index
    m . ``strides`` + ``base``; 5.8 MB at R = 71.  The three margins share
    their parity, so only the slots of same-parity triples hold a face, and
    the others hold 0."""

    reach: int
    strides: np.ndarray
    base: int
    positions: np.ndarray


#: the box of this process, empty until a check grows it
_box = _Box(-1, np.zeros(3, dtype=np.int64), 0, np.zeros(0, dtype=np.int16))


def _grow_box(reach: int) -> _Box:
    """The box, made to hold every triple with |m_i| <= ``reach``.  The old
    box is copied into the centre of the new one, and only the triples
    outside it are keyed, slab by slab of m_ab through the two strided
    blocks of same-parity slots: each triple is keyed once however often the
    box grows."""
    global _box
    old, side = _box, 2 * reach + 1
    if reach <= old.reach:
        return old
    positions = np.zeros((side, side, side), dtype=np.int16)
    if old.reach >= 0:
        inner = slice(reach - old.reach, reach + old.reach + 1)
        positions[inner, inner, inner] = old.positions.reshape((2 * old.reach + 1,) * 3)
    step = max(1, _CELL_CHUNK // (reach + 1) ** 2)  # an m_ab holds (reach + 1)^2 triples at most
    for parity in (0, 1):
        s = slice((reach + parity) % 2, None, 2)
        span = np.arange(s.start - reach, reach + 1, 2)  # the margins of this parity
        outer, block = np.abs(span) > old.reach, positions[s, s, s]
        for lo in range(0, span.size, step):
            fresh = outer[lo : lo + step, None, None] | outer[:, None] | outer
            ab, ac, bc = np.nonzero(fresh)
            m = np.stack((span[ab + lo], span[ac], span[bc]), axis=1)
            block[lo : lo + step][fresh] = _keyed_positions(m)
    strides = np.array([side * side, side, 1])
    _box = _Box(reach, strides, int(strides.sum()) * reach, positions.ravel())
    return _box


def _face_positions(m: np.ndarray) -> np.ndarray:
    """Per row of margins, three integers of one parity, the position of its
    face in the catalogue: one gather from the box when every row fits in
    it, otherwise through the face keys."""
    box = _box
    if m.size and -box.reach <= m.min() and m.max() <= box.reach:
        return box.positions[m @ box.strides + box.base]
    return _keyed_positions(m)


def _sum_reader(m: np.ndarray, codes: np.ndarray) -> tuple[np.ndarray, Callable]:
    """For rows of margins whose sums of two the box holds: per row a key,
    m . strides, and a function from a sum of two keys to the output code,
    by ``codes``, of the face of the summed margins, read at that sum plus
    base; so a pair of rows is read with one add and one gather."""
    box = _box
    by_slot = codes.astype(np.int16)[box.positions]
    return m @ box.strides, lambda keys: by_slot[keys + box.base]


class _Cells(NamedTuple):
    """The cell table: every surplus vector d with |d|_1 <= ``reach``,
    ordered by |d|_1, so that the cells of a bound are a prefix.  Per cell:
    its margin triple, |d|_1, the code sum_i (c_i + 2) 5^(2 - i) of its pair
    surpluses c, d clipped to [-2, 2], and the position of its face."""

    reach: int
    margins: np.ndarray
    size: np.ndarray
    code: np.ndarray
    face: np.ndarray


#: the cell table of this process, empty until a check grows it
_cells = _Cells(
    -1, np.zeros((0, 3), np.int16), *map(np.zeros, (0,) * 3, (np.int16, np.uint8, np.int16))
)


def _cell_count(bound: int) -> int:
    """The cells d with |d|_1 <= ``bound``, a prefix of the table."""
    return (2 * bound + 1) * (2 * bound * bound + 2 * bound + 3) // 3


def _shells(sizes: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The surplus vectors d with |d|_1 in ``sizes``, one row each, and their
    |d|_1, size by size: per d1, the 4r points t of the diamond |d2| + |d3| =
    r = |d|_1 - |d1| > 0, walked around from (r, 0) in closed form, or the
    origin."""
    owner, k = _expand(2 * sizes + 1)
    size = sizes[owner]
    d1 = k - size
    r = size - np.abs(d1)
    around = np.maximum(4 * r, 1)
    owner, t = _expand(around)
    r = r[owner]
    d2 = np.abs(t - 2 * r) - r
    d3 = np.abs((t + 3 * r) % around[owner] - 2 * r) - r
    return np.stack((d1[owner], d2, d3), axis=1), size[owner]


def _shell_chunks(sizes: np.ndarray, cells: int) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    """What :func:`_shells` gives for ``sizes``, ascending, in chunks of whole
    sizes of about ``cells`` cells: 4 L^2 + 2 of size L > 0."""
    cuts = np.flatnonzero(np.diff(np.cumsum(4 * sizes * sizes + 2) // cells)) + 1
    for group in np.split(sizes, cuts):
        yield _shells(group)


def _grow_cells(reach: int) -> _Cells:
    """The cell table, grown to hold every d with |d|_1 <= ``reach``: the new
    sizes are appended, built in chunks of about a quarter of _CELL_CHUNK
    cells, each new cell keyed to its face once."""
    global _cells
    if reach <= _cells.reach:
        return _cells
    columns = [_cells[1:]]
    for d, size in _shell_chunks(np.arange(_cells.reach + 1, reach + 1), _CELL_CHUNK >> 2):
        m = d @ _SURPLUS_TO_MARGINS.T
        code = np.clip(d, -2, 2) @ np.array([25, 5, 1]) + 62
        columns.append((m, size, code, _keyed_positions(m)))
    _cells = _Cells(reach, *(
        np.concatenate(c, dtype=old.dtype, casting="unsafe")
        for c, old in zip(zip(*columns), _cells[1:])
    ))
    return _cells


#: the output code of each choice set: its mask, its index in CHOICE_SETS
_CODE_OF = {choice: code for code, choice in enumerate(CHOICE_SETS)}
#: per output code, whether it holds several candidates, and which
_SEVERAL = np.array([len(choice) >= 2 for choice in CHOICE_SETS])
_MEMBERS = np.array([[x in choice for x in CANDIDATES] for choice in CHOICE_SETS])


@functools.cache
def _face_codes(function: Callable[[Margins], ChoiceSet]) -> np.ndarray:
    """The output code of ``function`` on each face, by position, read-only.
    ``function`` must keep the face contract: it is evaluated once per face,
    on the face's catalogue cell."""
    codes = np.array([_CODE_OF[function(cell)] for cell in _FACE_CELLS], dtype=np.intp)
    codes.flags.writeable = False
    return codes


def _condorcet_winner_set(m: Margins) -> ChoiceSet:
    """The Condorcet winner as a singleton, or the empty set."""
    champion = condorcet_winner(m)
    return CHOICE_SETS[0 if champion is None else 1 << champion]


# ---------------------------------------------------------------------------
# Counting: one pass over the cells of the largest electorate
# ---------------------------------------------------------------------------
#
# The cells of n voters hold those of every smaller n of its parity, so one
# pass over the cells of the largest n of each parity serves every n.  It
# counts H[face, |d|_1], the cells of each face by size; a cell of size L
# holds W[L, n] = C((n - L)/2 + 2, 2) profiles of n voters, so H @ W holds
# the profiles of each face at every n.  Those profiles differ only in
# t = (t1, t2, t3), t1 + t2 + t3 = J = (n - |d|_1) / 2, the order/reverse
# pairs added to the |d_i| surplus voters.  When every order gives each
# candidate fixed points, x scores K_x + sum_i A_i[x] t_i: K_x from the
# surplus voters, A_i[x] from one pair of kind i.  So a tie of x and y is a
# line in t, and its points in the fibre are one interval of integers: the
# positional and artificial rules are counted in closed form.  A positional
# rule's count on a cell depends only on |d|_1 and the base score differences
# K_b - K_a and K_c - K_a, so each chunk's cells are tallied by these score
# classes, as H tallies them by face, and the interval formula is evaluated
# once per row (class, n), weighted by the class's cells.  The artificial
# rule's score table changes with n, so it is counted on the rows (n, cell
# of n where maximin ties) instead.  Classes and cells are sorted by |d|_1,
# so that those of n are a prefix.


def _order_points(by_position: Sequence[Sequence[int]]) -> np.ndarray:
    """``points[order, candidate]`` from each order's points for its top,
    middle and bottom candidate."""
    rows = np.array(by_position, dtype=np.int64)
    return np.take_along_axis(rows, np.array(ORDER_RANK_OF), axis=1)


def _score_classes(size: np.ndarray, diff: np.ndarray) -> tuple[np.ndarray, ...]:
    """The score classes of cells of sizes ``size`` (|d|_1) and base score
    differences ``diff`` (K_b - K_a, K_c - K_a): per class, ascending by
    size, its size, its differences and its number of cells.  The class key
    packs the three into one int64 when (N + 1) (2 R + 1)^2 fits, N the
    largest size and R the largest |difference|; otherwise each difference
    is replaced by its rank first, so that the key is exact for any points."""
    reach = int(np.abs(diff).max(initial=0))
    if (int(size.max()) + 1) * (2 * reach + 1) ** 2 <= np.iinfo(np.int64).max:
        values, codes, sides = None, (diff + reach).T, (2 * reach + 1,) * 2
    else:
        values, codes = zip(*(np.unique(column, return_inverse=True) for column in diff.T))
        sides = tuple(map(len, values))
    key, weight = np.unique((size * sides[0] + codes[0]) * sides[1] + codes[1], return_counts=True)
    del codes
    rest, code_c = np.divmod(key, sides[1])
    size, code_b = np.divmod(rest, sides[0])
    if values is None:
        return size, np.stack((code_b, code_c), axis=1) - reach, weight
    return size, np.stack((values[0][code_b], values[1][code_c]), axis=1), weight


#: each pair (x, y) of candidates and the third candidate z
_PAIRS = ((0, 1, 2), (0, 2, 1), (1, 2, 0))


def _scoring_parts(
    gamma: int, size: np.ndarray, diff: np.ndarray, weight: np.ndarray
) -> tuple[np.ndarray, list[np.ndarray]]:
    """The score classes of sizes ``size``, differences ``diff`` and cells
    ``weight`` on which the scoring rule of ``gamma`` can tie, and per class
    the parts of :func:`_scoring_ties` that do not depend on n.

    A pair of kind i gives its middle candidate 2 s2 and the other two
    s1 + s3, so x scores K_x + (s1 + s3) J - gamma u_x with
    gamma = s1 - 2 s2 + s3, where u = (t3, t1, t2) counts the pairs that rank
    a, b, c in the middle, and J = n // 2 - L // 2 on a class of size L.
    With gamma = 0 the scores are the same on the whole cell: the classes
    where the top two are equal are kept, and their parts are L // 2 and the
    weight.  Otherwise the parts are L // 2 and then, per pair (x, y) with z
    the third candidate: the weight where gamma divides K_x - K_y, since a
    tie fixes u_x - u_y = k_xy; k_xy; max(k_xy, 0) - 1; and
    gamma k_xy + K_x - K_z.  The three pairwise counts hold a three-way tie
    three times, so it is taken off twice: its parts are the weight where
    gamma divides both K_a - K_b and K_a - K_c, k_ab + k_ac,
    3 max(k_ab, k_ac, 0) and (L + k_ab + k_ac) mod 3.  Every part and every
    intermediate of the count stays within (6 n + 12) max |s_i|."""
    score = (0, diff[:, 0], diff[:, 1])  # K - K_a
    if gamma == 0:
        ranked = np.sort(np.column_stack((np.zeros_like(size), diff)), axis=1)
        tied = ranked[:, 1] == ranked[:, 2]
        return size[tied], [size[tied] >> 1, weight[tied]]
    parts, k, whole = [size >> 1], [], []
    for x, y, z in _PAIRS:
        k_xy = (score[x] - score[y]) // gamma
        k.append(k_xy)
        whole.append(gamma * k_xy == score[x] - score[y])
        parts += [weight * whole[-1], k_xy, np.maximum(k_xy, 0) - 1,
                  gamma * k_xy + score[x] - score[z]]
    k_3 = k[0] + k[1]
    return size, parts + [weight * (whole[0] & whole[1]), k_3,
                          3 * np.maximum(np.maximum(k[0], k[1]), 0), (size + k_3) % 3]


def _scoring_ties(gamma: int, parts: list[np.ndarray], n: int) -> int:
    """Profiles of ``n`` voters in the score classes with the n-free
    ``parts`` (as :func:`_scoring_parts` gives them) on which the scoring
    rule of ``gamma`` ties."""
    j = (n >> 1) - parts[0]  # the voter pairs J, as n and L share their parity
    if gamma == 0:  # C(J + 2, 2) profiles
        return int(parts[1] @ ((j + 1) * (j + 2) >> 1))
    count, gamma_j = 0, gamma * j
    for first in (1, 5, 9):
        weight, k_xy, below, c_xy = parts[first : first + 4]
        # u_x, u_y = u_x - k_xy and u_z = J + k_xy - 2 u_x are >= 0, and z
        # is not above: 3 gamma u_x <= gamma J + c_xy; so u_x runs from
        # max(k_xy, 0) to the lower of both bounds (gamma > 0), or to the
        # first bound and from the second one up (gamma < 0)
        hi, cut = (j + k_xy) >> 1, (gamma_j + c_xy) // (3 * abs(gamma))
        points = np.minimum(hi, cut) - below if gamma > 0 else np.minimum(hi - below, hi + cut + 1)
        count += int(weight @ np.maximum(points, 0))
    # three-way: 3 u_a = J + k_ab + k_ac >= 3 max(k_ab, k_ac, 0); as 2 J = n - L,
    # 3 divides J + k_ab + k_ac when n = L + k_ab + k_ac (mod 3)
    weight, k_3, lowest, residue = parts[13:]
    return count - 2 * int(weight @ ((residue == n % 3) & (j + k_3 >= lowest)))


def _span(*bounds: tuple[np.ndarray, int]) -> np.ndarray:
    """Per row, the integers k with alpha + beta k >= 0 for every (alpha,
    beta) of ``bounds``, alpha an array and beta an int; some beta must be
    positive and some negative."""
    lo = functools.reduce(np.maximum, [-(alpha // beta) for alpha, beta in bounds if beta > 0])
    hi = functools.reduce(np.minimum, [alpha // -beta for alpha, beta in bounds if beta < 0])
    held = np.all([alpha >= 0 for alpha, beta in bounds if beta == 0], axis=0)
    return np.where(held, np.maximum(hi - lo + 1, 0), 0)


def _line_points(a: int, b: int, c: np.ndarray, j: np.ndarray, *cuts) -> np.ndarray:
    """Per row, the points t1, t2 >= 0 with t1 + t2 <= ``j`` on the line
    a t1 + b t2 + ``c`` = 0 at which every cut (a', b', c'),
    a' t1 + b' t2 + c' >= 0, holds.  With g = gcd(a, b) > 0 they are
    t0 + k (b, -a) / g, t0 by Bezout's identity: one interval of k.  With
    a = b = 0 the line is the whole triangle where c = 0: one interval of t2
    per t1."""
    if a == b == 0:
        row, t1 = _expand(np.where(c == 0, j + 1, 0))
        counts = np.zeros(len(j), dtype=np.int64)
        np.add.at(counts, row, _span(
            (0 * t1, 1), (j[row] - t1, -1), *((c_[row] + a_ * t1, b_) for a_, b_, c_ in cuts)
        ))
        return counts
    g = math.gcd(a, b)
    u = pow(a // g, -1, abs(b // g)) if b else g // a  # a u = g (mod b)
    q, rest = np.divmod(-c, g)
    t1, t2, step1, step2 = q * u, q * ((g - a * u) // b if b else 0), b // g, -a // g
    return np.where(rest == 0, _span(
        (t1, step1), (t2, step2), (j - t1 - t2, -step1 - step2),
        *((c_ + a_ * t1 + b_ * t2, a_ * step1 + b_ * step2) for a_, b_, c_ in cuts),
    ), 0)


def _fibre_ties(
    pair: np.ndarray, score: np.ndarray, j: np.ndarray, winners: np.ndarray
) -> np.ndarray:
    """Per cell, the points t of its fibre at which several ``winners`` share
    the top score K_x + sum_i ``pair``[i, x] t_i, K = ``score``.  With
    t3 = ``j`` - t1 - t2, x ties y on a line of (t1, t2), cut where a third
    winner is above; a three-way tie is in all three pairwise counts, so it
    is taken off twice."""
    def lead(x: int, y: int, rows: np.ndarray) -> tuple[int, int, np.ndarray]:
        a, b, e = (pair[:, x] - pair[:, y]).tolist()  # x's lead is a t1 + b t2 + c
        return a - e, b - e, score[rows, x] - score[rows, y] + e * j[rows]

    counts = np.zeros(len(j), dtype=np.int64)
    three = winners.all(axis=1)
    for x, y, z in ((0, 1, 2), (0, 2, 1), (1, 2, 0)):
        two = winners[:, x] & winners[:, y] & ~three
        counts[two] = _line_points(*lead(x, y, two), j[two])
        counts[three] += _line_points(*lead(x, y, three), j[three], lead(x, z, three))
    tie3 = _line_points(*lead(0, 1, three), j[three], lead(0, 2, three), lead(2, 0, three))
    counts[three] -= 2 * tie3
    return counts


def _tie_counts(ns: Sequence[int], targets: Sequence) -> dict[int, list[int]]:
    """Per n in ``ns``, the ``n``-voter profiles each target counts: a face
    mask those on its faces, a score vector those where it ties and
    ``rules.artificial_rule`` those where that rule ties."""
    counts = {n: [0] * len(targets) for n in ns}
    masks = [(i, t) for i, t in enumerate(targets) if isinstance(t, np.ndarray)]
    vectors = [(i, t) for i, t in enumerate(targets) if isinstance(t, tuple)]
    artificial = [i for i, t in enumerate(targets) if t is _rules.artificial_rule]
    maximin = _face_codes(_rules.maximin_margins)
    for top in {max(m for m in ns if m % 2 == n % 2) for n in ns}:
        own = sorted({n for n in ns if n % 2 == top % 2})
        histogram = np.zeros((len(_FACE_CELLS), top + 1), dtype=np.int64)  # H
        for d, size in _shell_chunks(np.arange(top % 2, top + 1, 2), _CELL_CHUNK):
            faces = _face_positions(d @ _SURPLUS_TO_MARGINS.T)
            histogram.flat += np.bincount(
                np.ravel_multi_index((faces, size), histogram.shape), minlength=histogram.size
            )
            # a positional rule: one closed-form count per row (n, score class
            # of a cell of n); the chunk's classes are freed once counted
            for i, vector in vectors:
                s1, s2, s3 = _rules.integer_scores(vector)
                points = _order_points([(s1, s2, s3)] * 6)
                gamma = s1 - 2 * s2 + s3
                class_size, parts = _scoring_parts(gamma, *_score_classes(
                    size, _order_surplus(d) @ (points[:, 1:] - points[:, :1])
                ))
                for n, end in zip(own, np.searchsorted(class_size, own, side="right")):
                    counts[n][i] += _scoring_ties(gamma, [part[:end] for part in parts], n)
                del class_size, parts
            if not artificial:
                continue
            # the cells where maximin ties, by size as the shells are, their winners and surplus
            tied = np.flatnonzero(_SEVERAL[maximin[faces]])
            winners, tied_size = _MEMBERS[maximin[faces[tied]]], size[tied]
            surplus = _order_surplus(d[tied])
            # the artificial rule: one closed-form count per score table over the
            # rows (n, tied cell of n) of all its n; most rows are in the first
            # chunk, whose small sizes every n counts (at most 213,843 rows a
            # chunk up to n = 240)
            for table in dict.fromkeys(map(_rules.artificial_table, own)):
                points = _order_points([(top, mid, 0) for top, mid in table])
                group = np.array([n for n in own if _rules.artificial_table(n) == table])
                owner, cell = _expand(np.searchsorted(tied_size, group, side="right"))
                ties = np.zeros(len(group), dtype=np.int64)
                np.add.at(ties, owner, _fibre_ties(
                    points[_ORDERS] + points[_REVERSES], (surplus @ points)[cell],
                    (group[owner] - tied_size[cell]) // 2, winners[cell],
                ))
                for n, count in zip(group.tolist(), ties.tolist()):
                    for i in artificial:
                        counts[n][i] += count
        j = (np.array(own) - np.arange(top + 1)[:, None]) // 2
        profiles = histogram @ np.where(j >= 0, (j + 1) * (j + 2) // 2, 0)  # H @ W
        for i, mask in masks:
            for n, count in zip(own, (mask @ profiles).tolist()):
                counts[n][i] = count
    return counts


def condorcet_profile_counts(ns: Sequence[int]) -> list[int]:
    """Per n in ``ns``, the number of ``n``-voter profiles with a Condorcet winner."""
    counts = _tie_counts(ns, [_face_codes(_condorcet_winner_set) > 0])
    return [counts[n][0] for n in ns]


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
        rule = f'"{self.rule}"' if "," in self.rule else self.rule  # scoring ids
        return f"{self.n},{rule},{self.irresolute},{self.total},{self.fraction_str()}"


#: the most work one count may take, in ns of a 2-vCPU host where a cell of
#: the margin pass took about 100, a cell of one n 75 per positional rule and
#: a row (n, cell of n where maximin ties) 525 for the artificial rule, when
#: positional rules were counted cell by cell.  Counted per score class, a
#: cell of one n takes 12-16 there, the margin pass 70-85 and an artificial
#: row 200-390, so the estimate is an upper bound: the seven figure4 rules
#: pass to n = 200 (1.9-2.9 s there) and are refused at 202
COUNT_BUDGET = 11_750_000_000


def _cells_of(n: int) -> int:
    """The margin cells of ``n`` voters: the sum over d1 of (n + 1 - |d1|)^2."""
    return (n + 1) * (n + 2) * (2 * n + 3) // 3 - (n + 1) ** 2


def _tied_rows_at_most(n: int) -> int:
    """At most 4 L + 1 cells of each size L of n's parity, where maximin ties."""
    return (n // 2 + 1) * (2 * (n + n % 2) + 1)


def _refuse_over_budget(ns: Iterable[int], scored: int, artificial: bool) -> None:
    """Refuse a count estimated at over COUNT_BUDGET: the margin pass over the
    cells of the largest n of each parity, the cells of every n per one of
    ``scored`` positional rules, and the artificial rule's rows.  The
    estimate grows as ``ns`` is read, so a long ``ns`` is refused early."""
    tops: dict[int, int] = {}
    work = 0
    for n in ns:
        if n < 1:
            raise ValueError(f"voter count must be positive, got {n}")
        tops[n % 2] = max(n, tops.get(n % 2, 0))
        work += 75 * scored * _cells_of(n) + 525 * artificial * _tied_rows_at_most(n)
        if work + 100 * sum(map(_cells_of, tops.values())) > COUNT_BUDGET:
            raise _rules.BoundExceededError(
                f"a count that reaches {n} voters is estimated at over "
                f"{COUNT_BUDGET / 1e9:g} s, the budget of one count"
            )


def frequency_rows(
    rule_ids: Sequence[str], ns: Sequence[int], exclude_all_tied: Optional[bool] = None
) -> list[FrequencyRow]:
    """Exact counts of the profiles on which each rule is irresolute: one row
    per n in ``ns`` and rule, n by n, all from one pass over the cells.

    ``exclude_all_tied`` controls whether completely tied profiles (all
    margins zero) are left out of the count; the default is each rule's
    ``exclude_all_tied`` entry in ``rules.RULES``.  A count over its budget,
    one whose points could leave int64, or one that sweeps a rule above its
    voter cap is refused before any work.
    """
    resolved = [_rules.resolve(rule_id) for rule_id in rule_ids]
    # the pass counts every rule but the bounded search rules, which are
    # swept profile by profile; their voter cap keeps n small
    searched = [r.reads == _rules.PROFILE and r.compute is not _rules.artificial_rule
                for _, r in resolved]
    counted = [rule for (_, rule), search in zip(resolved, searched) if not search]
    reads = [rule.reads for rule in counted]
    _refuse_over_budget(ns, reads.count(_rules.SCORES), _rules.PROFILE in reads)
    top = max(ns, default=0)  # read after the budget, which stops early on a long range
    for (canonical, rule), search in zip(resolved, searched):
        if search:
            _rules.check_voter_cap(canonical, rule, top)
        # (6 n + 12) max |s_i| bounds _scoring_ties's intermediates
        if rule.reads == _rules.SCORES and (6 * top + 12) * max(
            map(abs, _rules.integer_scores(rule.compute))
        ) > np.iinfo(np.int64).max:
            raise _rules.BoundExceededError(
                f"{canonical} has points too large to count {top} voters in 64-bit integers"
            )
    counts = _tie_counts(ns, [
        _SEVERAL[_face_codes(rule.compute)] if rule.reads == _rules.MARGINS else rule.compute
        for rule in counted
    ])
    rows = []
    for n in ns:
        passed = iter(counts[n])
        for rule_id, (canonical, rule), search in zip(rule_ids, resolved, searched):
            count = sum(
                len(_rules.evaluate_uncached(canonical, p)) >= 2 for p in ProfileCursor(n)
            ) if search else next(passed)
            # Completely tied profiles make every implemented rule irresolute,
            # so excluding them is a closed-form subtraction.
            exclude = rule.exclude_all_tied if exclude_all_tied is None else exclude_all_tied
            tied = all_tied_count(n) if exclude else 0
            rows.append(FrequencyRow(n, rule_id, count - tied, profile_count(n)))
    return rows


def irresoluteness(
    rule_id: str, n: int, workers: Optional[int] = None, exclude_all_tied: Optional[bool] = None
) -> FrequencyRow:
    """Exact count of ``n``-voter profiles on which the rule is irresolute:
    the one row of :func:`frequency_rows`.  ``workers`` is ignored;
    perfbench/worker.py still passes it."""
    return frequency_rows([rule_id], [n], exclude_all_tied)[0]


# ---------------------------------------------------------------------------
# Witness search
# ---------------------------------------------------------------------------


def search(
    predicate: Callable[[Profile], bool],
    bound: int,
    mode: str = "first",
    budget: Optional[int] = None,
) -> list[Profile]:
    """Profiles with ``1 <= n <= bound`` satisfying a pure predicate.

    Profiles are visited by voter count and then in colex order, so the
    witness list is deterministic; ``mode="first"`` short-circuits at the
    first hit.  A search that would visit more than ``budget`` profiles
    raises ``rules.BoundExceededError`` once it has visited that many.
    """
    if mode not in ("first", "all"):
        raise ValueError(f"unknown search mode: {mode!r}")
    hits: list[Profile] = []
    for visited, profile in enumerate(profiles_up_to(bound)):
        if visited == budget:
            raise _rules.BoundExceededError(
                f"search stopped unfinished after {budget} profiles up to {bound} "
                f"voters: a longer search is over the budget of {budget}"
            )
        if predicate(profile):
            hits.append(profile)
            if mode == "first":
                break
    return hits
