"""Exhaustive finite checkers for voting-rule axioms, with replayable witnesses.

Each checker decides an axiom on every anonymous profile (or pair of
profiles) up to a voter bound and returns an :class:`AxiomReport`.  A
report's verdict is ``"violated"`` exactly when its witness list is
non-empty, and every witness replays: re-evaluating the report's rule on
``witness.profiles[i]`` reproduces ``witness.outputs[i]``.

Every axiom but reinforcement is one key table.  Per key -- the joining
voter's order, the promotion move, the relabelling, the doubling, or P
itself -- it holds the voters of each order the instance takes from a
profile P and both images of the instance: its second profile (P - e_o,
P - need + give, sigma P or 2P) and that profile's margins as an image of
P's margins m (m - v_o, m + shift, sigma m or 2m).  Two drivers read the
table and call the same clause, ``clause(key, *outputs)``, which returns
the witness note or None:

* for a rule that reads more than the margins, the sweep walks P in
  canonical (n, colex) order and the keys in table order, takes each key
  whose need P holds, and lists the witnesses;
* for a rule that reads only the margins (``rules.MARGINS``) one walk over
  the margin cells of ``enumeration`` decides and lists: the surplus
  vectors d with |d|_1 <= bound, a prefix of the process's cell table of
  margin triples m, |d|_1, faces and the pair surpluses clipped to [-2, 2].
  A key counts on a cell only if some profile within the bound realizes
  it: the fewest voters of cell d holding at least k_o voters of each order
  o the key needs is |d|_1 + 2 sum_i max_{o in pair i} (k_o - surplus_o(d))^+,
  a per-key lookup by the clipped surpluses (no key needs more than two
  voters of an order), raised in steps of two to the checker's least
  electorate.  Each output column is a margin function on m or on its
  image, kept as a 3-bit code, block by block with the smallest cells
  first, so a violated check stops early.  A clause sees only the key and
  the outputs, so it is called once per key and tuple of codes met.
  Refinement reads a second rule, and Condorcet a second column: the
  candidates who must win (the Condorcet winner, or the unbeaten
  candidates).  Every margin function is read under the face contract of
  ``enumeration``, as the counting reads it: it compares only the 12 forms
  that define the sign faces, so its codes on the 267 faces of the
  catalogue are one vector and a column is one gather of them.  A
  relabelling or a doubling maps faces to faces, one lookup per key; a
  shifted image's face is read from the process's box of face positions,
  grown with the cells walked.  When nothing fails, the verdict is
  ``holds-up-to-bound`` and no profile is touched.  Otherwise the walk
  goes on as the witnesses are read: n by n, the profiles of the failing
  (key, cell) rows are the fibres of their cells (the compositions of the
  (n - |d|_1) / 2 voter pairs over the three order pairs) that hold the
  key's need; by colex and then key order they are the sweep's witnesses,
  and each one's index in the sweep has a closed form, so the list stops
  where the sweep's budget would stop it: at :data:`SWEEP_BUDGET` profiles
  or profile pairs once it holds a witness.

Reinforcement, over pairs of profiles, has a driver of each kind of its
own: its sweep walks the profile pairs, and its cells pair two cells of
the same table into m1 + m2, whose failing pairs list the witnesses the
same way.  ``optimist_equivalence`` needs neither: its clauses see only
the joining voter's order and two non-empty winner sets, so it is decided
on those 294 inputs once, for every rule and bound.

Every checker resolves its rules and refuses an electorate above a rule's
voter cap before its first evaluation.  A margin check whose cells would
take more than :data:`TABLE_BUDGET` bytes, or a reinforcement check over
more than :data:`CELL_PAIR_BUDGET` cell pairs, is refused before anything
is allocated; a profile sweep of a rule that reads more than the margins
that would visit more than :data:`SWEEP_BUDGET` instances is refused before
its first evaluation, and so is a continuity probe over a horizon above
that budget.

A ``holds-up-to-bound`` verdict certifies nothing beyond the bound; the
checkers are finite searches, not proofs.
"""

from __future__ import annotations

import functools
import itertools
import math
import operator
from dataclasses import dataclass, field
from typing import Callable, Hashable, Iterable, Iterator, NamedTuple, Optional, Union

import numpy as np

from . import rules as _rules
from .core import (
    CANDIDATE_NAMES,
    CHOICE_SETS,
    IDENTITY,
    ChoiceSet,
    Margins,
    ORDER_MARGIN_VECTOR,
    ORDER_NAMES,
    ORDER_RANK_OF,
    ORDER_RANKING,
    PERMUTATIONS,
    Profile,
    bottom,
    choice_set_to_str,
    combine,
    format_profile,
    intermediate_condorcet_winners,
    margins,
    permute_choice_set,
    permute_margins,
    permute_profile,
    t_fold,
    top,
    total_voters,
)
from .enumeration import _FACE_CELLS, _ORDERS, _REVERSES, _cell_count, _condorcet_winner_set
from .enumeration import _expand, _face_codes, _grow_box, _grow_cells, _keyed_positions
from .enumeration import _order_surplus, _sum_reader, profiles_up_to

HOLDS = "holds-up-to-bound"
VIOLATED = "violated"

_f = _rules.evaluate

MarginRule = Callable[[Margins], ChoiceSet]


@dataclass(frozen=True)
class Witness:
    """One concrete failure of an axiom clause.

    ``profiles`` holds the 1-3 profiles involved and ``outputs`` the rule's
    choice set on each of them, index for index; ``note`` says which clause
    of the definition failed.
    """

    axiom: str
    profiles: tuple[Profile, ...]
    outputs: tuple[ChoiceSet, ...]
    note: str = ""

    def render(self) -> str:
        left = " | ".join(format_profile(p) for p in self.profiles)
        right = " | ".join(choice_set_to_str(s) for s in self.outputs)
        text = f"{left} -> {right}"
        return f"{text}  [{self.note}]" if self.note else text


@dataclass(frozen=True)
class AxiomReport:
    rule: str
    axiom: str
    bound: int
    verdict: str
    witnesses: tuple[Witness, ...]
    #: why the witness list stops short of the bound, or empty
    stopped: str = field(default="", compare=False)

    def __post_init__(self) -> None:
        if self.verdict not in (HOLDS, VIOLATED):
            raise ValueError(f"unknown verdict: {self.verdict!r}")
        if (self.verdict == VIOLATED) != bool(self.witnesses):
            raise ValueError("verdict must agree with witness presence")

    @property
    def holds(self) -> bool:
        return self.verdict == HOLDS

    def render(self) -> str:
        lines = [
            f"{self.rule} axiom={self.axiom} bound={self.bound} verdict={self.verdict}"
        ]
        lines.extend(f"    {w.render()}" for w in self.witnesses)
        return "\n".join(lines)


def validate_cap(max_witnesses: Optional[int]) -> None:
    """Reject a witness cap below 1: a violated verdict needs a witness."""
    if max_witnesses is not None and max_witnesses < 1:
        raise ValueError(f"max_witnesses must be at least 1, got {max_witnesses}")


def _validate_bound(bound: int, least: int) -> None:
    if bound < least:
        raise ValueError(f"bound must be at least {least}, got {bound}")


def _finish(
    rule: str,
    axiom: str,
    bound: int,
    violations: Iterator[Union[Witness, str]],
    max_witnesses: Optional[int],
) -> AxiomReport:
    """The first ``max_witnesses`` witnesses; a str from ``violations`` names
    the instances after which the sweep budget ended the list."""
    collected: list[Witness] = []
    stopped = ""
    for witness in violations:
        if isinstance(witness, str):
            stopped = f"witness listing stopped after {SWEEP_BUDGET} {witness}, the sweep budget"
            break
        collected.append(witness)
        if max_witnesses is not None and len(collected) >= max_witnesses:
            break
    verdict = VIOLATED if collected else HOLDS
    return AxiomReport(rule, axiom, bound, verdict, tuple(collected), stopped)


def _candidate(c: int) -> str:
    return CANDIDATE_NAMES[c]


# ---------------------------------------------------------------------------
# Margin cells
# ---------------------------------------------------------------------------

#: the voters per order that an instance taking nobody away needs
_NOBODY = (0,) * 6

#: rows per block of (key, cell) pairs or of cell pairs: small enough that a
#: failure among small profiles is met after few evaluations and that the
#: temporaries stay small, large enough for few numpy calls
_BLOCK_ROWS = 1 << 11
#: the most (key, cell) pairs of a block, which double from _BLOCK_ROWS
_BLOCK_CAP = 1 << 17

#: the most bytes that the margin cells of one check may take; a larger
#: check is refused before anything is allocated
TABLE_BUDGET = 64 << 20
#: bytes charged per margin cell: the peak of the int64 cell arrays built per
#: check before the cell table (144 measured), so refused bounds stay put
_CELL_BYTES = 160


def _refuse_oversized(bound: int) -> None:
    """Refuse a check whose margin cells up to ``bound`` would take more than
    TABLE_BUDGET bytes; every axiom and margin function is refused at the
    same bounds."""
    size = _cell_count(bound) * _CELL_BYTES
    if size > TABLE_BUDGET:
        raise _rules.BoundExceededError(
            f"bound {bound} needs {size >> 20} MB of margin cells, "
            f"over the {TABLE_BUDGET >> 20} MB budget"
        )


#: the most profiles, profile pairs or removal instances that the profile
#: sweeps of rules reading more than the margins may visit; a larger sweep is
#: refused before its first evaluation.  Bounds up to 19 (profiles), 14
#: (removal instances) and 9 (pairs) pass; the largest of these sweeps took
#: at most 4.2 s and 140 MB above start-up on a 2-vCPU VM.
SWEEP_BUDGET = 200_000

#: per kind of sweep, the instances it visits up to a bound b: the profiles
#: with 1 <= n <= b; the (profile, order it holds) pairs with 2 <= n <= b, the
#: participation keys the sweep takes; the unordered pairs, repeats allowed,
#: of non-empty profiles with n1 + n2 <= b: half of the
#: C(b+12, 12) - 2 C(b+6, 6) + 1 ordered pairs and of the C(b//2+6, 6) - 1
#: profiles paired with themselves; and the b electorates n P + Q,
#: 1 <= n <= b, of the continuity probe, at most (it stops at a failure)
_SWEEP_SIZE = {
    "profiles": lambda b: math.comb(b + 6, 6) - 1,
    "removal instances": lambda b: 6 * (math.comb(b + 5, 6) - 1),
    "profile pairs": lambda b: (
        math.comb(b + 12, 12) - 2 * math.comb(b + 6, 6) + math.comb(b // 2 + 6, 6)
    ) // 2,
    "electorates": lambda b: b,
}


def _refuse_oversized_sweep(bound: int, instances: str) -> None:
    """Refuse a profile sweep over ``instances`` up to ``bound`` that would
    visit more than SWEEP_BUDGET of them."""
    size = _SWEEP_SIZE[instances](bound)
    if size > SWEEP_BUDGET:
        raise _rules.BoundExceededError(
            f"bound {bound} needs a sweep of {size} {instances}, "
            f"over the budget of {SWEEP_BUDGET}"
        )


def _raised(n: np.ndarray, least: int) -> np.ndarray:
    """Voter counts ``n`` raised in steps of two to at least ``least``."""
    return np.maximum(n, least + ((n - least) & 1))


def _new_classes(classes: np.ndarray, seen: np.ndarray) -> np.ndarray:
    """One row of each class not ``seen`` before, in row order, which is then
    marked seen: each class's rows write their index to its slot, and the
    row whose write was kept is taken."""
    rows = np.flatnonzero(~seen[classes])
    fresh = classes[rows]
    slot = np.empty(seen.size, dtype=np.intp)
    slot[fresh] = rows
    rows = rows[slot[fresh] == rows]
    seen[classes[rows]] = True
    return rows


#: rows m -> 2 d: d = (m_ab + m_bc, m_ac - m_bc, m_ab - m_ac) / 2
_MARGINS_TO_SURPLUS = np.array([[1, 0, 1], [0, 1, -1], [1, -1, 0]])


def _fibres(m: np.ndarray, n: int, lack: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The ``n``-voter profiles of the cells of margins ``m`` with at least
    ``lack[:, i]`` voters of both orders of pair i, and the row of each: the
    surplus plus t_i on both orders, t any split of the pairs left over."""
    d = m @ _MARGINS_TO_SURPLUS // 2
    j = n - np.abs(d).sum(axis=1) - 2 * lack.sum(axis=1)
    j = np.where((j >= 0) & (j % 2 == 0), j // 2, -1)
    if j.max(initial=-1) < 0:  # no cell has a profile of n voters
        return j[:0], np.zeros((0, 6), dtype=d.dtype)
    owner, t1 = _expand(j + 1)
    first, t2 = _expand(j[owner] - t1 + 1)
    owner, t1 = owner[first], t1[first]
    t = lack[owner] + np.stack((t1, t2, j[owner] - t1 - t2), axis=1)
    profiles = _order_surplus(d)[owner]
    profiles[:, _ORDERS] += t
    profiles[:, _REVERSES] += t
    return owner, profiles


@functools.cache
def _choose(n: int) -> np.ndarray:
    """C(x + j, j) at [j, x], for j <= 5 and x <= ``n``."""
    return np.array([[math.comb(x + j, j) for x in range(n + 1)] for j in range(6)])


def _colex_ranks(profiles: np.ndarray, n: int) -> np.ndarray:
    """Per profile of ``n`` voters, its index in colex order among them: with
    S the prefix sums, the sum over j of C(S_j + j, j) - C(S_(j-1) + j, j)."""
    s, j, choose = np.cumsum(profiles, axis=1), np.arange(1, 6), _choose(n)
    return (choose[j, s[:, 1:]] - choose[j, s[:, :-1]]).sum(axis=1)


def _budgeted(
    candidates: Iterator[tuple[int, Optional[Witness]]], total: int, instances: str
) -> Iterator[Union[Witness, str]]:
    """The witnesses of ``candidates``, pairs (index in the sweep's order,
    witness or None) by index, as the sweep yields them: once it holds a
    witness at index r it stops at max(SWEEP_BUDGET, r + 1), and then, if
    that is short of its ``total`` instances, ``instances`` ends the list."""
    limit = None
    for index, witness in candidates:
        if limit is not None and index >= limit:
            break
        if witness is not None:
            if limit is None:
                limit = max(SWEEP_BUDGET, index + 1)
            yield witness
    if limit is not None and limit < total:
        yield instances


# ---------------------------------------------------------------------------
# Key tables and their two drivers
# ---------------------------------------------------------------------------


def _permutation_matrix(sigma: tuple[int, int, int]) -> tuple[tuple[int, ...], ...]:
    """The signed permutation matrix of ``permute_margins(., sigma)``."""
    columns = [permute_margins(unit, sigma) for unit in ((1, 0, 0), (0, 1, 0), (0, 0, 1))]
    return tuple(zip(*columns))


_UNIT = _permutation_matrix(IDENTITY)


@dataclass(frozen=True, slots=True)
class _Key:
    """One instance key of an axiom on a profile P, with both images of the
    instance: ``profile(P)`` is its second profile, or None when P lacks the
    voters of each order that it takes (``need``), and that profile has the
    margins ``matrix @ m + offset`` when P has the margins m, and at most
    ``scale`` times P's voters.  ``key`` is what the clause sees."""

    key: Hashable
    profile: Callable[[Profile], Optional[Profile]] = lambda profile: profile
    need: tuple[int, ...] = _NOBODY
    matrix: tuple[tuple[int, ...], ...] = _UNIT
    offset: tuple[int, ...] = (0, 0, 0)
    scale: int = 1


def _moved(delta: tuple[int, ...], profile: Profile) -> Optional[Profile]:
    """P + delta, or None when P lacks the voters that delta takes."""
    moved = tuple(map(operator.add, profile, delta))
    return moved if min(moved) >= 0 else None


def _moving(key: Hashable, taken: Iterable[int], given: Iterable[int] = ()) -> _Key:
    """The key of an instance that takes one voter of each order in ``taken``
    from P and adds one of each order in ``given``, none of them taken."""
    delta = [0] * 6
    for order in taken:
        delta[order] -= 1
    for order in given:
        delta[order] += 1
    shift = [sum(d * v[i] for d, v in zip(delta, ORDER_MARGIN_VECTOR)) for i in range(3)]
    need = tuple(max(0, -d) for d in delta)
    return _Key(key, functools.partial(_moved, tuple(delta)), need, offset=tuple(shift))


class _Table(NamedTuple):
    """An axiom's instances on every profile P, as both drivers read them.

    ``clause(key, *outputs)`` returns the witness note, or None when the
    instance passes.  The outputs are ``rule`` on P or on the instance's
    second profile, one per entry of ``reads`` (True for the second profile):
    on both in either order, or ``(False,)`` on P alone, followed then by each
    of ``also`` (a rule id or a margin function) on P.  A witness shows the
    profiles and outputs that ``reads`` names.  The sweep evaluates the rule
    on a second profile only for keys that ``guard(key, output on P)``
    admits; it starts at ``least`` voters, and its budget counts
    ``instances``.
    """

    axiom: str
    rule: str
    keys: tuple[_Key, ...]
    reads: tuple[bool, ...]
    clause: Callable[..., Optional[str]]
    also: tuple[Union[str, MarginRule], ...] = ()
    guard: Optional[Callable[[Hashable, ChoiceSet], bool]] = None
    least: int = 1
    instances: str = "profiles"


def _stepper(table: _Table) -> Callable[[Profile], list[Witness]]:
    """The step of the sweep of ``table`` on one profile P: the witnesses of
    its keys in table order, those whose need P holds.  The rule is evaluated
    on P once, and on a second profile only for a key the guard admits."""
    axiom, rule, keys, clause = table.axiom, table.rule, table.keys, table.clause
    guard, image_first = table.guard, table.reads[0]

    def alone(profile: Profile) -> list[Witness]:
        on_p = _f(rule, profile)
        also = [_f(g, profile) if isinstance(g, str) else g(margins(profile)) for g in table.also]
        notes = [clause(k.key, on_p, *also) for k in keys]
        return [Witness(axiom, (profile,), (on_p,), note) for note in notes if note is not None]

    def paired(profile: Profile) -> list[Witness]:
        on_p, found = _f(rule, profile), []
        for k in keys:
            if guard is not None and not guard(k.key, on_p):
                continue
            image = k.profile(profile)
            if image is None:
                continue
            on_image = _f(rule, image)
            outputs = (on_image, on_p) if image_first else (on_p, on_image)
            note = clause(k.key, *outputs)
            if note is not None:
                shown = (image, profile) if image_first else (profile, image)
                found.append(Witness(axiom, shown, outputs, note))
        return found

    return paired if True in table.reads else alone


def _sweep(table: _Table, bound: int) -> Iterator[Union[Witness, str]]:
    """The witnesses of ``table`` on every profile with ``least <= n <=
    bound``, in (n, colex) order, until SWEEP_BUDGET profiles are visited
    with a witness among them: then "profiles" ends them."""
    step, found = _stepper(table), False
    for visited, profile in enumerate(profiles_up_to(bound, table.least)):
        if found and visited >= SWEEP_BUDGET:
            yield "profiles"
            return
        witnesses = step(profile)
        found = found or bool(witnesses)
        yield from witnesses


@functools.cache
def _margin_maps(keys: tuple[_Key, ...]) -> tuple[Optional[np.ndarray], ...]:
    """Arrays A and b, index for index with ``keys``, such that the second
    profile of a key has the margins A m + b when P has the margins m, and
    three lookups, built once per key table: ``lack[k, code, i]``, the
    voter pairs that pair i of a profile holding key k's need has at least
    on a cell of that clipped surplus code (no key takes more than two
    voters of an order, so the clip loses no lack); ``extra[k, code]``, the
    voters key k so adds at fewest to |d|_1; ``faces[k, F]``, the face of A m
    for m on face F when no key shifts the margins (a relabelling or a
    doubling permutes the 12 forms up to sign and scale), otherwise None: a
    shift is read from the box.  Returns A, b, extra, faces and lack."""
    matrix, offset = np.array([k.matrix for k in keys]), np.array([k.offset for k in keys])
    need = np.array([k.need for k in keys])
    assert need.max() <= 2, "a key takes more voters of an order than a surplus code keeps"
    identity = (matrix == np.identity(3, dtype=int)).all()
    assert identity or not offset.any(), "a key table with a shift is read as m + b, so A = I"
    clipped = np.stack(np.meshgrid(*[np.arange(-2, 3)] * 3, indexing="ij"), axis=-1)
    lack = np.maximum(need[:, None, :] - _order_surplus(clipped.reshape(-1, 3)), 0)
    lack = np.maximum(lack[..., _ORDERS], lack[..., _REVERSES])
    faces = None
    if not offset.any():
        images = (np.array(_FACE_CELLS) @ matrix.transpose(0, 2, 1)).reshape(-1, 3)
        faces = _keyed_positions(images).reshape(len(keys), -1)
    return matrix, offset, 2 * lack.sum(axis=-1).astype(np.int16), faces, lack


def _failing_cells(
    table: _Table, functions: tuple[MarginRule, ...], bound: int, notes: dict[int, str]
) -> Iterator[tuple[int, np.ndarray, np.ndarray, np.ndarray, np.ndarray]]:
    """The walk of ``table`` over the margin cells, ``functions`` giving the
    margin function of each output; the outputs that ``reads`` puts on the
    second profile read the face of A m + b.  Per block of cells, smallest
    first: the fewest voters per key, the image faces (by the face lookup,
    or a box gather at the cell's index plus a per-key jump, the box grown
    with the cells walked) and each output column as a gather of codes.
    The clause is called once per class (key, outputs) met, found by a
    bincount against ``seen``, and ``notes`` gets each failing one's note.
    From the first block with a failing row on, yields per block its end and
    the failing (key, cell) rows in it that a profile with ``least <= n <=
    bound`` realizes: key, margins, code, class; the verdict is whether it
    yields."""
    _refuse_oversized(bound)
    _, offset, extra, image_faces, _ = _margin_maps(table.keys)
    shifted = True in table.reads and image_faces is None
    on_image = table.reads + (False,) * len(table.also)
    codes, width, count = [_face_codes(f) for f in functions], len(functions), len(table.keys)
    keys, seen = np.arange(count)[:, None], np.zeros(count << 3 * width, dtype=bool)
    failing, box, widest = np.zeros_like(seen), None, int(np.abs(offset).max())
    lo, end, step, cells = 0, _cell_count(bound), max(1, _BLOCK_ROWS // count), _grow_cells(0)
    while lo < end:
        hi = min(end, lo + step)
        if hi > cells.size.size:  # at least double the reach; 4 s^3 / 3 < _cell_count(s)
            cells = _grow_cells(min(bound, max(2 * cells.reach, int((0.75 * hi) ** (1 / 3)) + 1)))
        within = _raised(cells.size[lo:hi] + extra[:, cells.code[lo:hi]], table.least) <= bound
        face = image = cells.face[lo:hi]
        if shifted:  # m + b sits at (raw + jump[k, parity]) >> 1, raw the index of m doubled
            if box is None or box.reach < min(bound, cells.reach) + widest:
                box = _grow_box(min(bound, cells.reach) + widest)
                side = 1 + int(box.strides[1])
                jump = side * (offset[:, :1] & 1) * np.array([-1, 1])
                jump += (offset @ box.strides)[:, None]
            m = cells.margins[lo:hi]
            parity = (m[:, 0] + box.reach) & 1
            raw = m @ box.strides + box.base - side * parity
            image = box.positions[(raw + jump[:, parity]) >> 1]
        elif True in table.reads:
            image = image_faces[:, face]
        columns = [c[image if i else face] for c, i in zip(codes, on_image)]
        classes = functools.reduce(lambda acc, c: acc * 8 + c, columns, keys)
        met = np.bincount(np.where(within, classes, seen.size).ravel(), minlength=seen.size + 1)
        fresh = np.flatnonzero((met[:-1] > 0) > seen)
        seen[fresh] = True
        for c in fresh.tolist():
            outputs = (CHOICE_SETS[c >> 3 * i & 7] for i in reversed(range(width)))
            note = table.clause(table.keys[c >> 3 * width].key, *outputs)
            if note is not None:
                notes[c], failing[c] = note, True
        if notes:
            key, row = np.nonzero(within & failing[classes])
            yield hi, key, cells.margins[lo + row], cells.code[lo + row], classes[key, row]
        lo, step = hi, min(2 * step, _BLOCK_CAP // count)


def _cell_witnesses(
    table: _Table, functions: tuple[MarginRule, ...], bound: int
) -> Optional[Iterator[Union[Witness, str]]]:
    """None when the walk of ``table`` meets no failing row; otherwise what
    ``_sweep(table, bound)`` yields, read on from the same walk's failing
    rows: per n, the n-voter profiles of their fibres that hold their key's
    need, by colex order and then key order."""
    notes: dict[int, str] = {}
    walk = _failing_cells(table, functions, bound, notes)
    blocks = [next(walk, None)]
    if blocks[0] is None:
        return None
    count, before = len(table.keys), math.comb(table.least + 5, 6)
    lack = _margin_maps(table.keys)[4]
    shifts = [3 * (len(functions) - 1 - i) for i in range(len(table.reads))]  # shown outputs

    def candidates() -> Iterator[tuple[int, Optional[Witness]]]:
        for n in range(table.least, bound + 1):
            first = math.comb(n + 5, 6) - before  # the index of the first n-voter profile
            yield first, None
            while blocks[-1][0] < _cell_count(n):
                blocks.append(next(walk))
            key, m, code, classes = map(np.concatenate, list(zip(*blocks))[1:])
            owner, profiles = _fibres(m, n, lack[key, code])
            if not owner.size:
                continue
            ranks = _colex_ranks(profiles, n)
            order = np.argsort(ranks * count + key[owner])
            for rank, k, c, p in zip(
                ranks[order].tolist(), *(a[owner[order]].tolist() for a in (key, classes)),
                map(tuple, profiles[order].tolist()),
            ):
                image = table.keys[k].profile(p)
                shown = tuple(image if r else p for r in table.reads)
                outputs = tuple(CHOICE_SETS[c >> shift & 7] for shift in shifts)
                yield first + rank, Witness(table.axiom, shown, outputs, notes[c])

    return _budgeted(candidates(), math.comb(bound + 6, 6) - before, "profiles")


def _margin_functions(
    max_witnesses: Optional[int], largest: int, *rule_ids: Union[str, MarginRule]
) -> list[Optional[MarginRule]]:
    """Check the witness cap, then resolve each rule and refuse it above its
    voter cap, all before the first evaluation.  Returns each rule's margin
    function, or None for a rule that reads more than the margins; a margin
    function in place of a rule id is returned as it is."""
    validate_cap(max_witnesses)
    functions: list[Optional[MarginRule]] = []
    for rule_id in rule_ids:
        if not isinstance(rule_id, str):
            functions.append(rule_id)
            continue
        canonical, rule = _rules.resolve(rule_id)
        _rules.check_voter_cap(canonical, rule, largest)
        reads_margins = rule.reads == _rules.MARGINS
        functions.append(rule.compute if reads_margins else None)
    return functions


def _decide(
    rule_id: str,
    axiom: str,
    bound: int,
    violations: Optional[Iterator[Union[Witness, str]]],
    max_witnesses: Optional[int],
    instances: Optional[str] = None,
) -> AxiomReport:
    """The report of ``violations``: a margin rule's witnesses read from its
    failing cells, None when no cell fails, or with ``instances`` the sweep
    of any other rule, refused first above the sweep budget.  A failing
    cell whose fibres list no witness is a fault of the checker, and raises
    RuntimeError."""
    if violations is None:
        return AxiomReport(rule_id, axiom, bound, HOLDS, ())
    if instances is not None:
        _refuse_oversized_sweep(bound, instances)
    report = _finish(rule_id, axiom, bound, violations, max_witnesses)
    if instances is None and report.holds:
        raise RuntimeError(
            f"{rule_id} {axiom}: a margin cell fails but no profile up to {bound} does"
        )
    return report


def _check(table: _Table, bound: int, max_witnesses: Optional[int]) -> AxiomReport:
    """The verdict of ``table`` up to ``bound``: over the margin cells when
    every function it reads reads only the margins, otherwise by the sweep."""
    _validate_bound(bound, table.least)
    largest = bound * max(k.scale for k in table.keys)
    f, *also = _margin_functions(max_witnesses, largest, table.rule, *table.also)
    functions = (f,) * len(table.reads) + tuple(also)
    if None in functions:
        violations, instances = _sweep(table, bound), table.instances
    else:
        violations, instances = _cell_witnesses(table, functions, bound), None
    return _decide(table.rule, table.axiom, bound, violations, max_witnesses, instances)


# ---------------------------------------------------------------------------
# Reinforcement
# ---------------------------------------------------------------------------

_REINFORCEMENT_AXIOMS = {
    "full": "reinforcement",
    "subset": "subset_reinforcement",
    "superset": "superset_reinforcement",
}


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


def _agreed(variant: str, out1: ChoiceSet, out2: ChoiceSet) -> Optional[ChoiceSet]:
    """f(P1) n f(P2), or None when the merge binds nothing: the full and
    superset variants only constrain a non-empty agreement."""
    agreed = out1 & out2
    return agreed if agreed or variant == "subset" else None


def _reinforcement(variant: str, agreed: ChoiceSet, merged: ChoiceSet) -> Optional[str]:
    if variant == "full":
        ok = merged == agreed
    elif variant == "subset":
        ok = agreed <= merged
    else:
        ok = merged <= agreed
    if ok:
        return None
    return (
        f"agreed winners {choice_set_to_str(agreed)}, "
        f"merged electorate gives {choice_set_to_str(merged)}"
    )


def _reinforcement_sweep(rule_id: str, variant: str, bound: int) -> Iterator[Union[Witness, str]]:
    """The witnesses on the pairs of ``_profile_pairs``, until SWEEP_BUDGET
    pairs are visited with a witness among them: then "profile pairs"."""
    axiom, found = _REINFORCEMENT_AXIOMS[variant], False
    for visited, (first, second) in enumerate(_profile_pairs(bound)):
        if found and visited >= SWEEP_BUDGET:
            yield "profile pairs"
            return
        out1 = _f(rule_id, first)
        out2 = _f(rule_id, second)
        agreed = _agreed(variant, out1, out2)
        if agreed is None:
            continue
        merged = combine(first, second)
        out12 = _f(rule_id, merged)
        note = _reinforcement(variant, agreed, out12)
        if note is not None:
            found = True
            yield Witness(axiom, (first, second, merged), (out1, out2, out12), note)


def _cell_pairs(n: np.ndarray, bound: int) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    """Blocks (i, j) of the index pairs i <= j with n[i] + n[j] <= bound,
    ``n`` ascending, at most _BLOCK_ROWS pairs a block."""
    counts = np.maximum(np.searchsorted(n, bound - n, side="right") - np.arange(n.size), 0)
    ends = np.cumsum(counts)
    starts = ends - counts
    total = int(counts.sum())
    for lo in range(0, total, _BLOCK_ROWS):
        hi = min(total, lo + _BLOCK_ROWS)
        # the rows i whose pairs the block meets, each repeated once per pair
        rows = np.arange(np.searchsorted(ends, lo, side="right"), np.searchsorted(starts, hi))
        i = np.repeat(rows, np.minimum(ends[rows], hi) - np.maximum(starts[rows], lo))
        yield i, i + np.arange(lo, hi) - starts[i]


#: the most cell pairs a reinforcement check over margin cells may walk; a
#: larger check is refused before its cells are built.  Bound 24 (9,829,809
#: pairs) passes and took 2.1 s on a 2-vCPU VM; bound 25 is refused.
CELL_PAIR_BUDGET = 10_000_000


def _refuse_oversized_pairs(bound: int) -> None:
    """Refuse a reinforcement check over the cells, first by their budget (which
    bounds the loop below), then for more than CELL_PAIR_BUDGET _cell_pairs."""
    _refuse_oversized(bound)
    # cells by fewest voters: 4 s^2 + 2 with |d|_1 = s, and the origin at two
    cells = [0] + [4 * s * s + 2 for s in range(1, bound + 1)]
    cells[2] += 1
    ordered = sum(cells[v] * sum(cells[1 : bound - v + 1]) for v in range(1, bound))
    pairs = (ordered + sum(cells[1 : bound // 2 + 1])) // 2
    if pairs > CELL_PAIR_BUDGET:
        raise _rules.BoundExceededError(
            f"bound {bound} needs {pairs} margin cell pairs, "
            f"over the budget of {CELL_PAIR_BUDGET}"
        )


def _pair_cells(f: MarginRule, bound: int) -> tuple[np.ndarray, ...]:
    """The cells that reinforcement pairs, by fewest voters: their margins,
    fewest voters and outputs, with the box grown to hold every pair sum."""
    _refuse_oversized_pairs(bound)
    _grow_box(bound)
    cells = _grow_cells(bound - 1)
    n = _raised(cells.size[: _cell_count(bound - 1)], 1)
    order = np.argsort(n, kind="stable")
    return cells.margins[order], n[order], _face_codes(f)[cells.face[order]]


def _failing_pairs(
    f: MarginRule, variant: str, bound: int, m: np.ndarray, n: np.ndarray, outputs: np.ndarray
) -> Iterator[tuple[int, np.ndarray, np.ndarray, np.ndarray]]:
    """Reinforcement's walk over the pairs of the cells ``_pair_cells`` gives
    whose fewest voters sum to at most ``bound``; the clause is symmetric,
    so each unordered pair is taken once, and it sees only the three
    outputs, so it is called once per triple of output codes met.  From the
    first block of ``_cell_pairs`` with a failing pair on, yields per block
    the fewest voters of its last first cell and its failing pairs (i, j)
    with the merged output code; the verdict is whether it yields."""
    keys, read = _sum_reader(m, _face_codes(f))  # the box holds every pair sum: n1 + n2 <= bound
    seen, failing = np.zeros(8**3, dtype=bool), np.zeros(8**3, dtype=bool)
    for i, j in _cell_pairs(n, bound):
        out1, out2, out12 = outputs[i], outputs[j], read(keys[i] + keys[j])
        classes = (out1 * 8 + out2) * 8 + out12
        for c in classes[_new_classes(classes, seen)].tolist():
            agreed = _agreed(variant, CHOICE_SETS[c >> 6], CHOICE_SETS[c >> 3 & 7])
            failing[c] = agreed is not None and _reinforcement(
                variant, agreed, CHOICE_SETS[c & 7]
            ) is not None
        if failing.any():
            rows = np.flatnonzero(failing[classes])
            yield int(n[i[-1]]), i[rows], j[rows], out12[rows]


def _pairs_before(first: int, n: int, bound: int) -> int:
    """The pairs of ``_profile_pairs(bound)`` before those of the single at
    index ``first``, which has ``n`` voters: with N(x) the singles of at
    most x voters, the single at index i of a voters heads max(0,
    N(bound - a) - i) pairs."""
    before = 0
    for a in range(1, n + 1):
        lo, seconds = math.comb(a + 5, 6) - 1, math.comb(bound - a + 6, 6) - 1
        hi = min(first if a == n else math.comb(a + 6, 6) - 1, seconds)
        if hi > lo:
            before += (hi - lo) * seconds - (lo + hi - 1) * (hi - lo) // 2
    return before


def _pair_witnesses(
    f: MarginRule, variant: str, bound: int
) -> Optional[Iterator[Union[Witness, str]]]:
    """None when reinforcement's walk meets no failing cell pair; otherwise
    what ``_reinforcement_sweep`` yields, read on from the same walk's
    failing pairs: each first profile P1, by (n, colex), of the fibres of
    the cells with a failing partner, with the profiles P2 >= P1, by (n,
    colex), of its partners' fibres, n1 + n2 <= bound."""
    axiom, (m, n, outputs) = _REINFORCEMENT_AXIOMS[variant], _pair_cells(f, bound)
    walk = _failing_pairs(f, variant, bound, m, n, outputs)
    blocks = [next(walk, None)]
    if blocks[0] is None:
        return None
    end = (bound, *[np.zeros(0, dtype=np.intp)] * 3)  # past the walk

    def candidates() -> Iterator[tuple[int, Optional[Witness]]]:
        for n1 in range(1, bound):
            while blocks[-1][0] <= n1:  # until every pair of a first cell of n1 voters is in
                blocks.append(next(walk, end))
            i, j, merged = map(np.concatenate, list(zip(*blocks))[1:])
            # each pair both ways round; no cell fails with itself, as 2 m has m's face
            first, second = np.concatenate((i, j)), np.concatenate((j, i))
            merged = np.tile(merged, 2)
            live = (n[first] <= n1) & ((n1 - n[first]) % 2 == 0) & (n[second] <= bound - n1)
            order = np.flatnonzero(live)[np.argsort(first[live], kind="stable")]
            first, second, merged = first[order], second[order], merged[order]
            cells = first[np.flatnonzero(np.diff(first, prepend=-1))]
            owner, singles = _fibres(m[cells], n1, np.zeros_like(m[cells]))
            ranks = _colex_ranks(singles, n1)
            order = np.argsort(ranks)
            for rank, c1, p1 in zip(
                ranks[order].tolist(), cells[owner[order]].tolist(), singles[order].tolist()
            ):
                index1 = math.comb(n1 + 5, 6) - 1 + rank
                start = _pairs_before(index1, n1, bound)
                lo, hi = np.searchsorted(first, [c1, c1 + 1]).tolist()
                mates, p1, out1 = second[lo:hi], tuple(p1), CHOICE_SETS[outputs[c1]]
                for n2 in range(n1, bound - n1 + 1):
                    offset = math.comb(n2 + 5, 6) - 1
                    yield start + max(offset - index1, 0), None
                    owner, seconds = _fibres(m[mates], n2, np.zeros_like(m[mates]))
                    index2 = offset + _colex_ranks(seconds, n2)
                    keep = np.flatnonzero(index2 >= index1)
                    keep = keep[np.argsort(index2[keep])]
                    for index, code2, code12, p2 in zip(
                        index2[keep].tolist(), outputs[mates[owner[keep]]].tolist(),
                        merged[lo:hi][owner[keep]].tolist(), map(tuple, seconds[keep].tolist()),
                    ):
                        outs = (out1, CHOICE_SETS[code2], CHOICE_SETS[code12])
                        note = _reinforcement(variant, out1 & outs[1], outs[2])
                        witness = Witness(axiom, (p1, p2, combine(p1, p2)), outs, note)
                        yield start + index - index1, witness

    return _budgeted(candidates(), _SWEEP_SIZE["profile pairs"](bound), "profile pairs")


def check_reinforcement(
    rule_id: str,
    variant: str = "full",
    bound: int = 2,
    max_witnesses: Optional[int] = None,
) -> AxiomReport:
    """Merging two electorates must respect the winners they agree on.

    ``full`` requires f(P1+P2) to equal f(P1) n f(P2) whenever that
    intersection is non-empty; ``subset`` requires the intersection to
    survive into f(P1+P2) (vacuously true when empty); ``superset`` requires
    f(P1+P2) to introduce nothing outside a non-empty intersection.
    """
    axiom = _REINFORCEMENT_AXIOMS.get(variant)
    if axiom is None:
        raise ValueError(f"unknown reinforcement variant: {variant!r}")
    _validate_bound(bound, 2)
    (f,) = _margin_functions(max_witnesses, bound, rule_id)
    if f is None:
        violations, instances = _reinforcement_sweep(rule_id, variant, bound), "profile pairs"
    else:
        violations, instances = _pair_witnesses(f, variant, bound), None
    return _decide(rule_id, axiom, bound, violations, max_witnesses, instances)


# ---------------------------------------------------------------------------
# Participation
# ---------------------------------------------------------------------------
#
# Each clause below takes one single-voter removal instance -- the joining
# voter's order, the winners before they join and the winners after -- and
# returns the failure note, or None when the instance passes.


def _best_of(order: int, winners: ChoiceSet) -> int:
    return min(winners, key=lambda c: ORDER_RANK_OF[order][c])


def _optimist(order: int, before: ChoiceSet, after: ChoiceSet) -> Optional[str]:
    best_before, best_after = _best_of(order, before), _best_of(order, after)
    if ORDER_RANK_OF[order][best_after] > ORDER_RANK_OF[order][best_before]:
        return (
            f"a {ORDER_NAMES[order]} voter joins and their best winner worsens "
            f"from {_candidate(best_before)} to {_candidate(best_after)}"
        )
    return None


def _positive_involvement(order: int, before: ChoiceSet, after: ChoiceSet) -> Optional[str]:
    favourite = top(order)
    if favourite in before and favourite not in after:
        return (
            f"top candidate {_candidate(favourite)} of a joining "
            f"{ORDER_NAMES[order]} voter stops winning"
        )
    return None


def _singleton_negative_involvement(
    order: int, before: ChoiceSet, after: ChoiceSet
) -> Optional[str]:
    worst = bottom(order)
    if after == frozenset((worst,)) and before != frozenset((worst,)):
        return (
            f"bottom candidate {_candidate(worst)} becomes the sole "
            f"winner once a {ORDER_NAMES[order]} voter joins"
        )
    return None


def _fishburn(order: int, before: ChoiceSet, after: ChoiceSet) -> Optional[str]:
    """Names the first (u, v) violating "after is at least as good as before".

    The comparison requires every new winner to beat everything dropped or
    kept, and every kept winner to beat everything dropped: u must be
    preferred to v for u in after, v in before-after, and for u in
    after-before, v in before.
    """
    pairs = itertools.chain(
        itertools.product(sorted(after), sorted(before - after)),
        itertools.product(sorted(after - before), sorted(before)),
    )
    for u, v in pairs:
        if not ORDER_RANK_OF[order][u] < ORDER_RANK_OF[order][v]:
            return (
                f"after a {ORDER_NAMES[order]} voter joins, new/kept winner "
                f"{_candidate(u)} is not preferred to {_candidate(v)}"
            )
    return None


def _resolute(
    tiebreak: int, order: int, before: ChoiceSet, after: ChoiceSet
) -> Optional[str]:
    chosen_before, chosen_after = _best_of(tiebreak, before), _best_of(tiebreak, after)
    if ORDER_RANK_OF[order][chosen_after] > ORDER_RANK_OF[order][chosen_before]:
        return (
            f"a {ORDER_NAMES[order]} voter joins and the tie-broken "
            f"winner moves from {_candidate(chosen_before)} to "
            f"{_candidate(chosen_after)}"
        )
    return None


def _equivalence(order: int, before: ChoiceSet, after: ChoiceSet) -> Optional[str]:
    """The optimist clause must pass exactly when both involvement clauses do."""
    optimist_ok = _optimist(order, before, after) is None
    involvement_ok = (
        _positive_involvement(order, before, after) is None
        and _singleton_negative_involvement(order, before, after) is None
    )
    if optimist_ok != involvement_ok:
        return (
            f"voter {ORDER_NAMES[order]}: optimist "
            f"{'passes' if optimist_ok else 'fails'} but involvement "
            f"checks {'pass' if involvement_ok else 'fail'}"
        )
    return None


#: participation variant -> (axiom name, clause)
_PARTICIPATION = {
    "optimist": ("optimist_participation", _optimist),
    "positive_involvement": ("positive_involvement", _positive_involvement),
    "singleton_negative_involvement": (
        "singleton_negative_involvement",
        _singleton_negative_involvement,
    ),
    "fishburn": ("fishburn_participation", _fishburn),
}

ParticipationClause = Callable[[int, ChoiceSet, ChoiceSet], Optional[str]]

#: the removal keys: each order, with the one voter of it who joins P - e_o
_JOINING_VOTER = tuple(_moving(order, [order]) for order in range(6))


def _participation_table(rule_id: str, axiom: str, clause: ParticipationClause) -> _Table:
    """``clause(order, before, after)`` on P - e_o and P, for P with n >= 2."""
    return _Table(
        axiom, rule_id, _JOINING_VOTER, (True, False), clause,
        least=2, instances="removal instances",
    )


def check_participation(
    rule_id: str,
    variant: str = "optimist",
    bound: int = 2,
    max_witnesses: Optional[int] = None,
) -> AxiomReport:
    """Joining an electorate must not backfire for the joining voter.

    With Y the winners before the voter joins and X after: ``optimist``
    compares the voter's favourite from X against their favourite from Y;
    ``positive_involvement`` forbids the voter's top candidate dropping out
    of the winners; ``singleton_negative_involvement`` forbids the voter's
    bottom candidate becoming the sole winner; ``fishburn`` requires X to be
    at least as good as Y in the set extension where every gained winner
    must beat every lost or kept one.
    """
    entry = _PARTICIPATION.get(variant)
    if entry is None:
        raise ValueError(f"unknown participation variant: {variant!r}")
    return _check(_participation_table(rule_id, *entry), bound, max_witnesses)


def check_resolute_participation(
    rule_id: str,
    tiebreak: int,
    bound: int = 2,
    max_witnesses: Optional[int] = None,
) -> AxiomReport:
    """Participation for the rule made resolute by a fixed tie-breaking order.

    The resolute winner is the choice-set element ranked highest by the
    ``tiebreak`` order; joining must never move that winner down the joining
    voter's own ranking.
    """
    if not 0 <= tiebreak < len(ORDER_NAMES):
        raise ValueError(f"tiebreak must be an order index in 0..5, got {tiebreak}")
    axiom = f"resolute_participation({ORDER_NAMES[tiebreak]})"
    clause = functools.partial(_resolute, tiebreak)
    return _check(_participation_table(rule_id, axiom, clause), bound, max_witnesses)


# ---------------------------------------------------------------------------
# Single-profile axioms
# ---------------------------------------------------------------------------

_RESPONSIVENESS_AXIOMS = {
    "monotonicity": "monotonicity",
    "positive": "positive_responsiveness",
    "tiebreak_positive": "tiebreak_positive_responsiveness",
}


def _promotions() -> dict[int, tuple[_Key, ...]]:
    """The promotion keys for at most one and at most two simultaneous
    swaps: one voter, then two voters (of one order or of two), move x from
    just below y to just above it.  A key holds (x, y, the witness note)."""
    singles, swaps = [], {}
    for order, ranking in enumerate(ORDER_RANKING):
        for position in (0, 1):
            y, x = ranking[position : position + 2]
            target = ORDER_RANKING.index(ranking[:position] + (x, y) + ranking[position + 2 :])
            note = f"one {ORDER_NAMES[order]} voter moves {_candidate(x)} above {_candidate(y)}"
            singles.append(_moving((x, y, note), [order], [target]))
            swaps.setdefault((x, y), []).append((order, target))
    doubles = []
    for (x, y), (first, second) in sorted(swaps.items()):
        for (o1, t1), (o2, t2) in ((first, first), (first, second), (second, second)):
            note = (
                f"two voters ({ORDER_NAMES[o1]}, {ORDER_NAMES[o2]}) move "
                f"{_candidate(x)} above {_candidate(y)}"
            )
            doubles.append(_moving((x, y, note), [o1, o2], [t1, t2]))
    return {1: tuple(singles), 2: tuple(singles + doubles)}


#: max simultaneous swaps -> the promotion keys
_PROMOTIONS = _promotions()


def _promotes_a_winner(variant: str, winners: ChoiceSet, x: int, y: int) -> bool:
    """Whether promoting x over y is constrained: x wins (and, for the
    tie-break variant, so does y)."""
    return x in winners and (variant != "tiebreak_positive" or y in winners)


def _responds(variant: str, x: int, outcome: ChoiceSet) -> bool:
    return x in outcome if variant == "monotonicity" else outcome == frozenset((x,))


def _responsiveness_table(rule_id: str, variant: str, swaps: int = 1) -> _Table:
    """The promotions of x over y on P, constrained only where x wins: the
    sweep evaluates the promoted profile of no other key."""

    def constrained(key: tuple[int, int, str], winners: ChoiceSet) -> bool:
        return _promotes_a_winner(variant, winners, key[0], key[1])

    def clause(key: tuple[int, int, str], winners: ChoiceSet, outcome: ChoiceSet) -> Optional[str]:
        x, _, note = key
        failed = constrained(key, winners) and not _responds(variant, x, outcome)
        return note if failed else None

    axiom = _RESPONSIVENESS_AXIOMS[variant]
    return _Table(axiom, rule_id, _PROMOTIONS[swaps], (False, True), clause, guard=constrained)


def check_responsiveness(
    rule_id: str,
    variant: str = "monotonicity",
    bound: int = 1,
    max_simultaneous_swaps: int = 1,
    max_witnesses: Optional[int] = None,
) -> AxiomReport:
    """Promoting a winner must help (or at least not hurt) that winner.

    An improvement move takes voters who rank y immediately above x and has
    them rank x immediately above y.  ``monotonicity``: a winning x stays a
    winner.  ``positive``: a winning x becomes the unique winner.
    ``tiebreak_positive``: when x and y are both winners, promoting x over y
    makes x the unique winner.  One-voter moves are checked always; with
    ``max_simultaneous_swaps=2``, pairs of moves promoting the same (x, y)
    are checked as well.
    """
    if variant not in _RESPONSIVENESS_AXIOMS:
        raise ValueError(f"unknown responsiveness variant: {variant!r}")
    if max_simultaneous_swaps not in (1, 2):
        raise ValueError("only 1 or 2 simultaneous swaps are supported")
    table = _responsiveness_table(rule_id, variant, max_simultaneous_swaps)
    return _check(table, bound, max_witnesses)


def _homogeneity(_: None, once: ChoiceSet, doubled: ChoiceSet) -> Optional[str]:
    if once != doubled:
        return "doubling the electorate changes the outcome"
    return None


#: the doubling 2P
_DOUBLING = (
    _Key(None, functools.partial(t_fold, t=2), matrix=((2, 0, 0), (0, 2, 0), (0, 0, 2)), scale=2),
)


def _homogeneity_table(rule_id: str) -> _Table:
    return _Table("homogeneity", rule_id, _DOUBLING, (False, True), _homogeneity)


def check_homogeneity(
    rule_id: str, bound: int, max_witnesses: Optional[int] = None
) -> AxiomReport:
    """Doubling every voter count must not change the outcome."""
    return _check(_homogeneity_table(rule_id), bound, max_witnesses)


#: condorcet variant -> (check name, axiom name of its reports)
_CONDORCET_AXIOMS = {
    "standard": ("condorcet", "condorcet_consistency"),
    "strong": ("strong_condorcet", "strong_condorcet"),
}


#: per variant, the candidates who must be exactly the winners, if any
_CHAMPIONS = {"standard": _condorcet_winner_set, "strong": intermediate_condorcet_winners}

#: the one key of an axiom read on P alone
_EVERY_PROFILE = (_Key(None),)


def _condorcet(
    variant: str, _: None, winners: ChoiceSet, champions: ChoiceSet
) -> Optional[str]:
    if not champions or winners == champions:
        return None
    if variant == "standard":
        (champion,) = champions
        return f"majority winner {_candidate(champion)} not selected uniquely"
    return f"unbeaten candidates {choice_set_to_str(champions)} not selected exactly"


def _condorcet_table(rule_id: str, variant: str) -> _Table:
    return _Table(
        _CONDORCET_AXIOMS[variant][1], rule_id, _EVERY_PROFILE, (False,),
        functools.partial(_condorcet, variant), also=(_CHAMPIONS[variant],),
    )


def check_condorcet(
    rule_id: str,
    variant: str = "standard",
    bound: int = 1,
    max_witnesses: Optional[int] = None,
) -> AxiomReport:
    """Majority winners must prevail.

    ``standard``: a candidate beating both others head-to-head must be the
    unique winner.  ``strong``: whenever some candidate loses no head-to-head
    comparison and wins at least one, the winners must be exactly the set of
    such candidates.
    """
    if variant not in _CONDORCET_AXIOMS:
        raise ValueError(f"unknown condorcet variant: {variant!r}")
    return _check(_condorcet_table(rule_id, variant), bound, max_witnesses)


def _refinement(upper: str, _: None, fine: ChoiceSet, coarse: ChoiceSet) -> Optional[str]:
    if not fine <= coarse:
        return f"{upper} gives {choice_set_to_str(coarse)}"
    return None


def _refinement_table(lower: str, upper: str) -> _Table:
    return _Table(
        f"refinement({upper})", lower, _EVERY_PROFILE, (False,),
        functools.partial(_refinement, upper), also=(upper,),
    )


def check_refinement(
    lower: str, upper: str, bound: int, max_witnesses: Optional[int] = None
) -> AxiomReport:
    """Every winner of ``lower`` must also win under ``upper``."""
    return _check(_refinement_table(lower, upper), bound, max_witnesses)


def _neutrality(
    sigma: tuple[int, int, int], winners: ChoiceSet, relabelled: ChoiceSet
) -> Optional[str]:
    expected = permute_choice_set(winners, sigma)
    if relabelled != expected:
        return f"relabelling {sigma} should give {choice_set_to_str(expected)}"
    return None


#: the relabellings sigma P, but the identity
_RELABELLINGS = tuple(
    _Key(sigma, functools.partial(permute_profile, sigma=sigma), matrix=_permutation_matrix(sigma))
    for sigma in PERMUTATIONS[1:]
)


def _neutrality_table(rule_id: str) -> _Table:
    return _Table("neutrality", rule_id, _RELABELLINGS, (False, True), _neutrality)


def check_neutrality(
    rule_id: str, bound: int, max_witnesses: Optional[int] = None
) -> AxiomReport:
    """Relabelling the candidates must relabel the winners the same way."""
    return _check(_neutrality_table(rule_id), bound, max_witnesses)


#: the check name of each axiom that ``search`` reads on one profile P, the
#: first profile of each of its witnesses -> its table for a rule id
_TABLES: dict[str, Callable[[str], _Table]] = {
    **{
        axiom: functools.partial(_responsiveness_table, variant=variant)
        for variant, axiom in _RESPONSIVENESS_AXIOMS.items()
    },
    "homogeneity": _homogeneity_table,
    "neutrality": _neutrality_table,
}


def profile_step(axiom: str, rule_id: str) -> Callable[[Profile], list[Witness]]:
    """The step of the sweep of the ``axiom`` check of ``rule_id`` on one
    profile P: the witnesses it finds there, P the first profile of each.
    ``axiom`` names a responsiveness variant (one swap at a time),
    ``homogeneity`` or ``neutrality``."""
    return _stepper(_TABLES[axiom](rule_id))


# ---------------------------------------------------------------------------
# Continuity probe
# ---------------------------------------------------------------------------


def continuity_probe(
    rule_id: str, profile: Profile, profile2: Profile, horizon: int
) -> Optional[int]:
    """Finite probe of "large electorates drown out a fixed minority".

    Returns the least ``n' <= horizon`` such that the winners on
    ``n * profile + profile2`` stay within the winners on ``profile`` for
    every ``n`` from ``n'`` through ``horizon``, or None when even the
    horizon itself fails.  This is a probe, not a certificate: nothing is
    claimed beyond the horizon.  A horizon above :data:`SWEEP_BUDGET` is
    refused before the first evaluation.
    """
    if horizon < 1:
        raise ValueError(f"horizon must be at least 1, got {horizon}")
    _refuse_oversized_sweep(horizon, "electorates")
    largest = horizon * total_voters(profile) + total_voters(profile2)
    _rules.check_voter_cap(*_rules.resolve(rule_id), largest)
    base = _f(rule_id, profile)
    first = None
    for n in range(horizon, 0, -1):  # down from the horizon, to the first n that fails
        if not _f(rule_id, combine(t_fold(profile, n), profile2)) <= base:
            break
        first = n
    return first


# ---------------------------------------------------------------------------
# Optimist participation = positive involvement + singleton negative involvement
# ---------------------------------------------------------------------------


def verify_optimist_equivalence(
    bound: int,
    rule_ids: Optional[Iterable[str]] = None,
    max_witnesses: Optional[int] = None,
) -> AxiomReport:
    """Instance-level equivalence behind the optimist participation axiom.

    For every rule and every single-voter removal instance up to ``bound``,
    the optimist comparison passes if and only if both the positive
    involvement and the singleton negative involvement checks pass on that
    same instance.  The three clauses see only the joining voter's order and
    the winners before and after, and every rule elects someone, so the
    equivalence is decided once on the 6 x 7 x 7 (order, non-empty winners,
    non-empty winners) inputs, for every rule and bound at once: the rules
    are resolved and refused above their voter cap, but none is evaluated.
    The returned report uses rule id ``"all"``.  An input that fails is a
    broken clause, not a fact about a rule, and raises RuntimeError.
    """
    _validate_bound(bound, 2)
    if rule_ids is None:
        rule_ids = [r for r, rule in _rules.RULES.items() if bound <= rule.max_voters]
    _margin_functions(max_witnesses, bound, *rule_ids)
    elected = CHOICE_SETS[1:]
    for order, before, after in itertools.product(range(6), elected, elected):
        note = _equivalence(order, before, after)
        if note is not None:
            raise RuntimeError(
                f"optimist_equivalence fails on winners {choice_set_to_str(before)} "
                f"before and {choice_set_to_str(after)} after: {note}"
            )
    return AxiomReport("all", "optimist_equivalence", bound, HOLDS, ())


#: every axiom name of a check that takes (rule_id, bound, max_witnesses) ->
#: that check; each check function is looked up by name when it is called
CHECKERS: dict[str, Callable[[str, int, Optional[int]], AxiomReport]] = {
    **{
        axiom: lambda r, b, w, v=variant: check_reinforcement(r, v, b, w)
        for variant, axiom in _REINFORCEMENT_AXIOMS.items()
    },
    **{
        axiom: lambda r, b, w, v=variant: check_participation(r, v, b, w)
        for variant, (axiom, _) in _PARTICIPATION.items()
    },
    **{
        axiom: lambda r, b, w, v=variant: check_responsiveness(r, v, b, max_witnesses=w)
        for variant, axiom in _RESPONSIVENESS_AXIOMS.items()
    },
    "homogeneity": lambda r, b, w: check_homogeneity(r, b, w),
    **{
        name: lambda r, b, w, v=variant: check_condorcet(r, v, b, w)
        for variant, (name, _) in _CONDORCET_AXIOMS.items()
    },
    "neutrality": lambda r, b, w: check_neutrality(r, b, w),
}
