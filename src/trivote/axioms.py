"""Exhaustive finite checkers for voting-rule axioms, with replayable witnesses.

Each checker decides an axiom on every anonymous profile (or pair of
profiles) up to a voter bound and returns an :class:`AxiomReport`.  A
report's verdict is ``"violated"`` exactly when its witness list is
non-empty, and every witness replays: re-evaluating the report's rule on
``witness.profiles[i]`` reproduces ``witness.outputs[i]``.

Two drivers call the same clause functions, one per axiom:

* the profile sweep walks the profiles, profile pairs and removal or swap
  instances in canonical (n, colex) order and lists the witnesses;
* for a rule that reads only the margins (``rules.MARGINS``) the verdict is
  first decided over the margin cells of ``enumeration``: the surplus
  vectors d with |d|_1 <= bound, as arrays of margin triples m, per-order
  surplus and |d|_1.  An instance key -- the order, move, relabelling or
  doubling the axiom needs -- counts on a cell only if some profile within
  the bound realizes it: the fewest voters of cell d holding at least k_o
  voters of each order o the key needs is
  |d|_1 + 2 sum_i max_{o in pair i} (k_o - surplus_o(d))^+, raised in steps
  of two to the checker's least electorate, one array expression per block
  of cells.  One driver reads every key and cell: each output column is a
  margin function on an image of m (m, m - v_o, m + shift, sigma m or 2m),
  kept as a 3-bit code, block by block with the smallest cells first, so a
  violated check stops early.  A clause sees only the key and the outputs,
  so it is called once per key and tuple of codes met, on one row of that
  class.  The per-profile axioms have one key; refinement reads two rules,
  and Condorcet a second column: the candidates who must win (the Condorcet
  winner, or the unbeaten candidates).  Reinforcement pairs two cells into
  m1 + m2.  The registered rules and those candidates are constant on every
  sign face, so each is evaluated at most once per face in a process,
  through the face layer of ``enumeration``; any other margin function once
  per distinct triple.  When nothing fails, the verdict is
  ``holds-up-to-bound`` and no profile is touched; otherwise the profile
  sweep runs as for any other rule, to list the witnesses in its order.

Every checker resolves its rules and refuses an electorate above a rule's
voter cap before its first evaluation.  A margin check whose cells would
take more than :data:`TABLE_BUDGET` bytes, or a reinforcement check over
more than :data:`CELL_PAIR_BUDGET` cell pairs, is refused before anything
is allocated; a profile sweep of a rule that reads more than the margins
that would visit more than :data:`SWEEP_BUDGET` instances is refused before
its first evaluation.

A ``holds-up-to-bound`` verdict certifies nothing beyond the bound; the
checkers are finite searches, not proofs.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass
from typing import Callable, Hashable, Iterable, Iterator, Optional

import numpy as np

from . import rules as _rules
from .core import (
    CANDIDATE_NAMES,
    CANDIDATES,
    CHOICE_SETS,
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
    condorcet_winner,
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
from .enumeration import _ORDERS, _REVERSES, _SURPLUS_TO_MARGINS, ProfileCursor, profiles_up_to
from .enumeration import _face_positions, _face_value, _order_surplus, _surplus_vectors

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
    violations: Iterator[Witness],
    max_witnesses: Optional[int],
) -> AxiomReport:
    collected: list[Witness] = []
    for witness in violations:
        collected.append(witness)
        if max_witnesses is not None and len(collected) >= max_witnesses:
            break
    verdict = VIOLATED if collected else HOLDS
    return AxiomReport(rule, axiom, bound, verdict, tuple(collected))


def _candidate(c: int) -> str:
    return CANDIDATE_NAMES[c]


# ---------------------------------------------------------------------------
# Margin cells
# ---------------------------------------------------------------------------

#: the voters per order that an instance taking nobody away needs
_NOBODY = (0,) * 6

#: the one key of the per-profile axioms
_EVERY_PROFILE = ((None, _NOBODY),)

#: rows per block of (key, cell) pairs or of cell pairs: small enough that a
#: failure among small profiles is met after few evaluations and that the
#: temporaries stay small, large enough for few numpy calls
_BLOCK_ROWS = 1 << 11

#: the 3-bit output code of each choice set, its mask in CHOICE_SETS
_CODE_OF = {choice: code for code, choice in enumerate(CHOICE_SETS)}

#: the most bytes that the margin cells of one check may take; a larger
#: check is refused before anything is allocated
TABLE_BUDGET = 64 << 20
#: bytes per margin cell at the peak of building its arrays: margins,
#: surplus and size as int64, with their temporaries (144 measured)
_CELL_BYTES = 160


def _refuse_oversized(bound: int) -> None:
    """Refuse a check whose margin cells up to ``bound`` would take more than
    TABLE_BUDGET bytes; every axiom and margin function is refused at the
    same bounds."""
    cells = (2 * bound + 1) * (2 * bound * bound + 2 * bound + 3) // 3  # |d|_1 <= bound
    size = cells * _CELL_BYTES
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
#: with 1 <= n <= b; the (profile, order it holds) pairs with 2 <= n <= b; and
#: the unordered pairs, repeats allowed, of non-empty profiles with
#: n1 + n2 <= b: half of the C(b+12, 12) - 2 C(b+6, 6) + 1 ordered pairs and
#: of the C(b//2+6, 6) - 1 profiles paired with themselves
_SWEEP_SIZE = {
    "profiles": lambda b: math.comb(b + 6, 6) - 1,
    "removal instances": lambda b: 6 * (math.comb(b + 5, 6) - 1),
    "profile pairs": lambda b: (
        math.comb(b + 12, 12) - 2 * math.comb(b + 6, 6) + math.comb(b // 2 + 6, 6)
    ) // 2,
}


def _refuse_oversized_sweep(bound: int, instances: str, sweeps: int = 1) -> None:
    """Refuse ``sweeps`` profile sweeps over ``instances`` up to ``bound``
    that would visit more than SWEEP_BUDGET instances in all."""
    size = sweeps * _SWEEP_SIZE[instances](bound)
    if size > SWEEP_BUDGET:
        raise _rules.BoundExceededError(
            f"bound {bound} needs a sweep of {size} {instances}, "
            f"over the budget of {SWEEP_BUDGET}"
        )


def _surplus_cells(bound: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Arrays (margins, surplus, size) over every surplus vector d with
    |d|_1 <= bound, the cells of ``bound`` and of ``bound - 1`` voters: row i
    holds the margin triple of d, the voters each order holds beyond its
    reverse and |d|_1."""
    d = np.concatenate([*_surplus_vectors(bound), *_surplus_vectors(bound - 1)])
    return d @ _SURPLUS_TO_MARGINS.T, _order_surplus(d), sum(np.abs(d).T)


def _fewest_voters(
    surplus: np.ndarray, size: np.ndarray, needs: np.typing.ArrayLike, least: int
) -> np.ndarray:
    """The fewest voters, at least ``least``, of a profile in each cell that
    holds ``need[o]`` voters of each order o: |d|_1 plus two per voter pair
    the surplus lacks, raised in steps of two to ``least``.  One row per
    need when ``needs`` stacks several."""
    lack = np.maximum(np.asarray(needs)[..., None, :] - surplus, 0)
    n = size + 2 * np.maximum(lack[..., _ORDERS], lack[..., _REVERSES]).sum(axis=-1)
    return n + np.maximum(least - n + 1, 0) // 2 * 2


def _new_classes(classes: np.ndarray, seen: np.ndarray) -> np.ndarray:
    """One row of each class not ``seen`` before, which is then marked seen."""
    _, rows = np.unique(classes, return_index=True)
    rows = rows[~seen[classes[rows]]]
    seen[classes[rows]] = True
    return rows


def _condorcet_winner_set(m: Margins) -> ChoiceSet:
    """The Condorcet winner as a singleton, or the empty set."""
    champion = condorcet_winner(m)
    return CHOICE_SETS[0 if champion is None else 1 << champion]


#: the margin functions of the registered rules and of the candidates who must
#: win under Condorcet: each is constant on every sign face (see ``enumeration``),
#: so it is read per face; any other margin function is evaluated per triple
_FACE_RULES = frozenset(
    [rule.compute for rule in _rules.RULES.values() if rule.reads == _rules.MARGINS]
    + [_condorcet_winner_set, intermediate_condorcet_winners]
)


class _Outputs:
    """A margin function's choice sets as output codes.  One of _FACE_RULES is
    evaluated at most once per sign face in a process, through the face layer
    of ``enumeration``; any other (only tests make them) once per triple."""

    def __init__(self, f: MarginRule) -> None:
        self._f = f
        self._code = None if f in _FACE_RULES else functools.cache(lambda m: _CODE_OF[f(m)])

    def __call__(self, m: np.ndarray) -> np.ndarray:
        """The code of each row of margins."""
        if self._code is not None:
            return np.array([self._code(tuple(t)) for t in m.tolist()], dtype=np.intp)
        faces = _face_positions(m)
        count = np.bincount(faces)
        met = np.flatnonzero(count)
        codes = np.zeros(count.size, dtype=np.intp)
        codes[met] = [_CODE_OF[_face_value(self._f, face)] for face in met.tolist()]
        return codes[faces]


def _realized(
    bound: int, least: int, keys: tuple[tuple[Hashable, tuple[int, ...]], ...]
) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    """Blocks (key, margins) of the pairs of a key's index and a cell's
    margins that a profile with ``least <= n <= bound`` realizes; ``keys``
    pairs each key with the voters of each order its instance takes from
    the profile.  Cells come in order of |d|_1, so small profiles first."""
    margins_d, surplus, size = _surplus_cells(bound)
    order = np.argsort(size, kind="stable")
    needs = np.array([need for _, need in keys])
    step = max(1, _BLOCK_ROWS // len(keys))
    for lo in range(0, len(order), step):
        rows = order[lo : lo + step]
        n = _fewest_voters(surplus[rows], size[rows], needs, least)
        key, row = np.nonzero(n <= bound)
        yield key, margins_d[rows][row]


def _unchanged(key: np.ndarray, m: np.ndarray) -> np.ndarray:
    return m


def _cells_fail(
    bound: int,
    least: int,
    keys: tuple[tuple[Hashable, tuple[int, ...]], ...],
    columns: tuple[tuple[MarginRule, Callable[[np.ndarray, np.ndarray], np.ndarray]], ...],
    fails: Callable[..., bool],
) -> bool:
    """Whether ``fails(key, f1(m1), f2(m2), ...)`` for some margins m and key
    that a profile with ``least <= n <= bound`` realizes, where column i is
    ``(fi, image)`` and ``image(keys, margins)`` maps the margins of each row
    to mi for the row's key.  ``fails`` sees only the key and the outputs, so
    it is called once per key and tuple of output codes met, on one row of
    them."""
    _refuse_oversized(bound)
    outputs = {f: _Outputs(f) for f, _ in columns}
    seen = np.zeros(len(keys) * 8 ** len(columns), dtype=bool)
    for key, m in _realized(bound, least, keys):
        codes = [outputs[f](image(key, m)) for f, image in columns]
        rows = _new_classes(functools.reduce(lambda acc, c: acc * 8 + c, codes, key), seen)
        for k, *row in zip(key[rows].tolist(), *(c[rows].tolist() for c in codes)):
            if fails(keys[k][0], *(CHOICE_SETS[c] for c in row)):
                return True
    return False


def _profiles_fail(
    bound: int, functions: tuple[MarginRule, ...], fails: Callable[..., bool]
) -> bool:
    """Whether ``fails(f1(m), f2(m), ...)`` for the margins m of some profile
    with ``1 <= n <= bound``."""
    columns = tuple((f, _unchanged) for f in functions)
    return _cells_fail(bound, 1, _EVERY_PROFILE, columns, lambda _, *outputs: fails(*outputs))


def _margin_functions(
    max_witnesses: Optional[int], largest: int, *rule_ids: str
) -> list[Optional[MarginRule]]:
    """Check the witness cap, then resolve each rule and refuse it above its
    voter cap, all before the first evaluation.  Returns each rule's margin
    function, or None for a rule that reads more than the margins."""
    validate_cap(max_witnesses)
    functions: list[Optional[MarginRule]] = []
    for rule_id in rule_ids:
        canonical, rule = _rules.resolve(rule_id)
        _rules.check_voter_cap(canonical, rule, largest)
        reads_margins = rule.reads == _rules.MARGINS
        functions.append(rule.compute if reads_margins else None)
    return functions


def _decide(
    rule_id: str,
    axiom: str,
    bound: int,
    violations: Callable[[], Iterator[Witness]],
    fails: Optional[Callable[[], bool]],
    max_witnesses: Optional[int],
    instances: str = "profiles",
) -> AxiomReport:
    """A margin rule's verdict from ``fails`` (its margin cells), with the
    profile sweep ``violations`` run only to list witnesses; any other rule
    (``fails`` None) is swept outright, over ``instances`` within the sweep
    budget."""
    if fails is None:
        _refuse_oversized_sweep(bound, instances)
    elif not fails():
        return AxiomReport(rule_id, axiom, bound, HOLDS, ())
    report = _finish(rule_id, axiom, bound, violations(), max_witnesses)
    if fails is not None and report.holds:
        raise RuntimeError(
            f"{rule_id} {axiom}: a margin cell fails but no profile up to {bound} does"
        )
    return report


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


def _reinforcement_sweep(rule_id: str, variant: str, bound: int) -> Iterator[Witness]:
    axiom = _REINFORCEMENT_AXIOMS[variant]
    for first, second in _profile_pairs(bound):
        out1 = _f(rule_id, first)
        out2 = _f(rule_id, second)
        agreed = _agreed(variant, out1, out2)
        if agreed is None:
            continue
        merged = combine(first, second)
        out12 = _f(rule_id, merged)
        note = _reinforcement(variant, agreed, out12)
        if note is not None:
            yield Witness(axiom, (first, second, merged), (out1, out2, out12), note)


def _cell_pairs(n: np.ndarray, bound: int) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    """Blocks (i, j) of the index pairs i <= j with n[i] + n[j] <= bound,
    ``n`` ascending, at most _BLOCK_ROWS pairs a block."""
    counts = np.maximum(np.searchsorted(n, bound - n, side="right") - np.arange(n.size), 0)
    starts = np.cumsum(counts) - counts
    total = int(counts.sum())
    for lo in range(0, total, _BLOCK_ROWS):
        pair = np.arange(lo, min(total, lo + _BLOCK_ROWS))
        i = np.searchsorted(starts, pair, side="right") - 1
        yield i, i + pair - starts[i]


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


def _reinforcement_cells_fail(f: MarginRule, variant: str, bound: int) -> bool:
    """Reinforcement over the cell pairs whose fewest voters sum to at most
    ``bound``; the clause is symmetric, so each unordered pair is taken
    once, and it sees only the three outputs, so it is called once per
    triple of output codes met."""
    _refuse_oversized_pairs(bound)
    m, surplus, size = _surplus_cells(bound - 1)
    n = _fewest_voters(surplus, size, _NOBODY, 1)
    order = np.argsort(n, kind="stable")
    m, n = m[order], n[order]
    outputs = _Outputs(f)
    codes = outputs(m)
    seen = np.zeros(8**3, dtype=bool)
    for i, j in _cell_pairs(n, bound):
        out1, out2, out12 = codes[i], codes[j], outputs(m[i] + m[j])
        rows = _new_classes((out1 * 8 + out2) * 8 + out12, seen)
        for a, b, c in zip(out1[rows].tolist(), out2[rows].tolist(), out12[rows].tolist()):
            agreed = _agreed(variant, CHOICE_SETS[a], CHOICE_SETS[b])
            if agreed is not None and _reinforcement(variant, agreed, CHOICE_SETS[c]) is not None:
                return True
    return False


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
    fails = None if f is None else functools.partial(_reinforcement_cells_fail, f, variant, bound)
    violations = functools.partial(_reinforcement_sweep, rule_id, variant, bound)
    return _decide(rule_id, axiom, bound, violations, fails, max_witnesses, "profile pairs")


# ---------------------------------------------------------------------------
# Participation
# ---------------------------------------------------------------------------
#
# Each clause below takes one single-voter removal instance -- the joining
# voter's order, the winners before they join and the winners after -- and
# returns the failure note, or None when the instance passes.


def _removal_instances(bound: int) -> Iterator[tuple[Profile, int, Profile]]:
    """(P, order, P minus one order-voter) for all P with 2 <= n <= bound."""
    for n in range(2, bound + 1):
        for profile in ProfileCursor(n):
            for order in range(6):
                if profile[order]:
                    reduced = list(profile)
                    reduced[order] -= 1
                    yield profile, order, tuple(reduced)


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

#: the removal keys: each order, with the one voter of it who joins
_JOINING_VOTER = tuple(
    (order, tuple(int(o == order) for o in range(6))) for order in range(6)
)


def _participation_sweep(
    rule_id: str, axiom: str, bound: int, clause: ParticipationClause
) -> Iterator[Witness]:
    """Run ``clause`` on every single-voter removal instance up to ``bound``."""
    for profile, order, reduced in _removal_instances(bound):
        before = _f(rule_id, reduced)
        after = _f(rule_id, profile)
        note = clause(order, before, after)
        if note is not None:
            yield Witness(axiom, (reduced, profile), (before, after), note)


def _participation_cells_fail(f: MarginRule, clause: ParticipationClause, bound: int) -> bool:
    """``clause`` on every (margins of P, order of the voter who joins)."""
    joining = np.array(ORDER_MARGIN_VECTOR)  # what each order's voter adds to the margins
    return _cells_fail(
        bound,
        2,
        _JOINING_VOTER,
        ((f, _unchanged), (f, lambda order, m: m - joining[order])),
        lambda order, after, before: clause(order, before, after) is not None,
    )


def _participation(
    rule_id: str,
    axiom: str,
    bound: int,
    clause: ParticipationClause,
    max_witnesses: Optional[int],
) -> AxiomReport:
    _validate_bound(bound, 2)
    (f,) = _margin_functions(max_witnesses, bound, rule_id)
    fails = None if f is None else functools.partial(_participation_cells_fail, f, clause, bound)
    violations = functools.partial(_participation_sweep, rule_id, axiom, bound, clause)
    return _decide(rule_id, axiom, bound, violations, fails, max_witnesses, "removal instances")


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
    axiom, clause = entry
    return _participation(rule_id, axiom, bound, clause, max_witnesses)


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
    return _participation(rule_id, axiom, bound, clause, max_witnesses)


# ---------------------------------------------------------------------------
# Single-profile axioms
# ---------------------------------------------------------------------------
#
# Each ``*_witnesses`` generator yields the failures of one axiom on one
# profile; ``_profile_sweep`` drives it over every profile up to a bound.


def _profile_sweep(
    bound: int, witnesses: Callable[[Profile], Iterator[Witness]]
) -> Iterator[Witness]:
    return (w for profile in profiles_up_to(bound) for w in witnesses(profile))


_RESPONSIVENESS_AXIOMS = {
    "monotonicity": "monotonicity",
    "positive": "positive_responsiveness",
    "tiebreak_positive": "tiebreak_positive_responsiveness",
}


def _improvement_moves() -> tuple[tuple[int, int, int, int], ...]:
    """All (order, swapped order, promoted x, demoted y) adjacent swaps."""
    moves = []
    for order, ranking in enumerate(ORDER_RANKING):
        for position in (0, 1):
            swapped = list(ranking)
            swapped[position], swapped[position + 1] = (
                swapped[position + 1],
                swapped[position],
            )
            target = ORDER_RANKING.index(tuple(swapped))
            moves.append((order, target, ranking[position + 1], ranking[position]))
    return tuple(moves)


_MOVES = _improvement_moves()


def _double_moves() -> tuple[tuple[int, int, int, int, int, int], ...]:
    """All (order, swapped, order, swapped, x, y): two single swaps promoting
    the same x over y, the same swap twice included."""
    moves = []
    for x in CANDIDATES:
        for y in CANDIDATES:
            if x == y:
                continue
            first, second = [(o, t) for o, t, mx, my in _MOVES if (mx, my) == (x, y)]
            for (o1, t1), (o2, t2) in ((first, first), (first, second), (second, second)):
                moves.append((o1, t1, o2, t2, x, y))
    return tuple(moves)


_DOUBLE_MOVES = _double_moves()


def _single_swaps(profile: Profile) -> Iterator[tuple[Profile, int, int, str]]:
    for order, target, x, y in _MOVES:
        if profile[order]:
            counts = list(profile)
            counts[order] -= 1
            counts[target] += 1
            note = f"one {ORDER_NAMES[order]} voter moves {_candidate(x)} above {_candidate(y)}"
            yield tuple(counts), x, y, note


def _double_swaps(profile: Profile) -> Iterator[tuple[Profile, int, int, str]]:
    """Two simultaneous single swaps promoting the same candidate pair."""
    for o1, t1, o2, t2, x, y in _DOUBLE_MOVES:
        counts = list(profile)
        counts[o1] -= 1
        counts[t1] += 1
        counts[o2] -= 1
        counts[t2] += 1
        if min(counts) < 0:
            continue
        note = (
            f"two voters ({ORDER_NAMES[o1]}, {ORDER_NAMES[o2]}) move "
            f"{_candidate(x)} above {_candidate(y)}"
        )
        yield tuple(counts), x, y, note


def _promotions(max_simultaneous_swaps: int) -> tuple[tuple[Hashable, tuple[int, ...]], ...]:
    """The move keys: ((x, y, margin shift), voters each order gives up)."""
    swaps = [(((order, target),), x, y) for order, target, x, y in _MOVES]
    if max_simultaneous_swaps == 2:
        swaps += [(((o1, t1), (o2, t2)), x, y) for o1, t1, o2, t2, x, y in _DOUBLE_MOVES]
    keys = []
    for moves, x, y in swaps:
        need, shift = [0] * 6, [0, 0, 0]
        for order, target in moves:
            need[order] += 1
            for k in range(3):
                shift[k] += ORDER_MARGIN_VECTOR[target][k] - ORDER_MARGIN_VECTOR[order][k]
        keys.append(((x, y, tuple(shift)), tuple(need)))
    return tuple(keys)


def _promotes_a_winner(variant: str, winners: ChoiceSet, x: int, y: int) -> bool:
    """Whether promoting x over y is constrained: x wins (and, for the
    tie-break variant, so does y)."""
    return x in winners and (variant != "tiebreak_positive" or y in winners)


def _responds(variant: str, x: int, outcome: ChoiceSet) -> bool:
    return x in outcome if variant == "monotonicity" else outcome == frozenset((x,))


def responsiveness_witnesses(
    rule_id: str, variant: str, profile: Profile, max_simultaneous_swaps: int = 1
) -> Iterator[Witness]:
    """The failures :func:`check_responsiveness` finds on one profile."""
    axiom = _RESPONSIVENESS_AXIOMS[variant]
    winners = _f(rule_id, profile)
    improvements: Iterable[tuple[Profile, int, int, str]] = _single_swaps(profile)
    if max_simultaneous_swaps == 2:
        improvements = itertools.chain(improvements, _double_swaps(profile))
    for improved, x, y, how in improvements:
        if not _promotes_a_winner(variant, winners, x, y):
            continue
        outcome = _f(rule_id, improved)
        if not _responds(variant, x, outcome):
            yield Witness(axiom, (profile, improved), (winners, outcome), how)


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
    axiom = _RESPONSIVENESS_AXIOMS.get(variant)
    if axiom is None:
        raise ValueError(f"unknown responsiveness variant: {variant!r}")
    if max_simultaneous_swaps not in (1, 2):
        raise ValueError("only 1 or 2 simultaneous swaps are supported")
    _validate_bound(bound, 1)
    (f,) = _margin_functions(max_witnesses, bound, rule_id)

    def cell_fails(key: tuple[int, int, Margins], winners: ChoiceSet, outcome: ChoiceSet) -> bool:
        x, y, _ = key
        return _promotes_a_winner(variant, winners, x, y) and not _responds(variant, x, outcome)

    keys = _promotions(max_simultaneous_swaps)
    shifts = np.array([shift for (_, _, shift), _ in keys])  # what each move adds to the margins
    fails = None if f is None else functools.partial(
        _cells_fail,
        bound,
        1,
        keys,
        ((f, _unchanged), (f, lambda key, m: m + shifts[key])),
        cell_fails,
    )
    witnesses = functools.partial(
        responsiveness_witnesses, rule_id, variant, max_simultaneous_swaps=max_simultaneous_swaps
    )
    violations = functools.partial(_profile_sweep, bound, witnesses)
    return _decide(rule_id, axiom, bound, violations, fails, max_witnesses)


def _homogeneity(once: ChoiceSet, doubled: ChoiceSet) -> Optional[str]:
    if once != doubled:
        return "doubling the electorate changes the outcome"
    return None


def homogeneity_witnesses(rule_id: str, profile: Profile) -> Iterator[Witness]:
    """The failures :func:`check_homogeneity` finds on one profile."""
    once = _f(rule_id, profile)
    doubled_profile = t_fold(profile, 2)
    doubled = _f(rule_id, doubled_profile)
    note = _homogeneity(once, doubled)
    if note is not None:
        yield Witness("homogeneity", (profile, doubled_profile), (once, doubled), note)


def check_homogeneity(
    rule_id: str, bound: int, max_witnesses: Optional[int] = None
) -> AxiomReport:
    """Doubling every voter count must not change the outcome."""
    _validate_bound(bound, 1)
    (f,) = _margin_functions(max_witnesses, 2 * bound, rule_id)
    fails = None if f is None else functools.partial(
        _cells_fail,
        bound,
        1,
        _EVERY_PROFILE,
        ((f, _unchanged), (f, lambda _, m: 2 * m)),
        lambda _, once, doubled: _homogeneity(once, doubled) is not None,
    )
    witnesses = functools.partial(homogeneity_witnesses, rule_id)
    violations = functools.partial(_profile_sweep, bound, witnesses)
    return _decide(rule_id, "homogeneity", bound, violations, fails, max_witnesses)


_CONDORCET_AXIOMS = {"standard": "condorcet_consistency", "strong": "strong_condorcet"}


#: per variant, the candidates who must be exactly the winners, if any
_CHAMPIONS = {"standard": _condorcet_winner_set, "strong": intermediate_condorcet_winners}


def _condorcet(variant: str, winners: ChoiceSet, champions: ChoiceSet) -> Optional[str]:
    if not champions or winners == champions:
        return None
    if variant == "standard":
        (champion,) = champions
        return f"majority winner {_candidate(champion)} not selected uniquely"
    return f"unbeaten candidates {choice_set_to_str(champions)} not selected exactly"


def condorcet_witnesses(rule_id: str, variant: str, profile: Profile) -> Iterator[Witness]:
    """The failures :func:`check_condorcet` finds on one profile."""
    winners = _f(rule_id, profile)
    note = _condorcet(variant, winners, _CHAMPIONS[variant](margins(profile)))
    if note is not None:
        yield Witness(_CONDORCET_AXIOMS[variant], (profile,), (winners,), note)


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
    axiom = _CONDORCET_AXIOMS.get(variant)
    if axiom is None:
        raise ValueError(f"unknown condorcet variant: {variant!r}")
    _validate_bound(bound, 1)
    (f,) = _margin_functions(max_witnesses, bound, rule_id)
    fails = None if f is None else functools.partial(
        _profiles_fail,
        bound,
        (f, _CHAMPIONS[variant]),
        lambda winners, champions: _condorcet(variant, winners, champions) is not None,
    )
    witnesses = functools.partial(condorcet_witnesses, rule_id, variant)
    violations = functools.partial(_profile_sweep, bound, witnesses)
    return _decide(rule_id, axiom, bound, violations, fails, max_witnesses)


def _refinement(upper: str, fine: ChoiceSet, coarse: ChoiceSet) -> Optional[str]:
    if not fine <= coarse:
        return f"{upper} gives {choice_set_to_str(coarse)}"
    return None


def refinement_witnesses(lower: str, upper: str, profile: Profile) -> Iterator[Witness]:
    """The failures :func:`check_refinement` finds on one profile."""
    fine = _f(lower, profile)
    note = _refinement(upper, fine, _f(upper, profile))
    if note is not None:
        yield Witness(f"refinement({upper})", (profile,), (fine,), note)


def check_refinement(
    lower: str, upper: str, bound: int, max_witnesses: Optional[int] = None
) -> AxiomReport:
    """Every winner of ``lower`` must also win under ``upper``."""
    _validate_bound(bound, 1)
    f_lower, f_upper = _margin_functions(max_witnesses, bound, lower, upper)
    fails = None if f_lower is None or f_upper is None else functools.partial(
        _profiles_fail,
        bound,
        (f_lower, f_upper),
        lambda fine, coarse: _refinement(upper, fine, coarse) is not None,
    )
    witnesses = functools.partial(refinement_witnesses, lower, upper)
    violations = functools.partial(_profile_sweep, bound, witnesses)
    return _decide(lower, f"refinement({upper})", bound, violations, fails, max_witnesses)


def _neutrality(
    sigma: tuple[int, int, int], winners: ChoiceSet, relabelled: ChoiceSet
) -> Optional[str]:
    expected = permute_choice_set(winners, sigma)
    if relabelled != expected:
        return f"relabelling {sigma} should give {choice_set_to_str(expected)}"
    return None


def _permutation_matrix(sigma: tuple[int, int, int]) -> tuple[tuple[int, ...], ...]:
    """The signed permutation matrix of ``permute_margins(., sigma)``."""
    columns = [permute_margins(unit, sigma) for unit in ((1, 0, 0), (0, 1, 0), (0, 0, 1))]
    return tuple(zip(*columns))


def neutrality_witnesses(rule_id: str, profile: Profile) -> Iterator[Witness]:
    """The failures :func:`check_neutrality` finds on one profile."""
    winners = _f(rule_id, profile)
    for sigma in PERMUTATIONS[1:]:
        relabelled_profile = permute_profile(profile, sigma)
        relabelled_winners = _f(rule_id, relabelled_profile)
        note = _neutrality(sigma, winners, relabelled_winners)
        if note is not None:
            yield Witness(
                "neutrality",
                (profile, relabelled_profile),
                (winners, relabelled_winners),
                note,
            )


def check_neutrality(
    rule_id: str, bound: int, max_witnesses: Optional[int] = None
) -> AxiomReport:
    """Relabelling the candidates must relabel the winners the same way."""
    _validate_bound(bound, 1)
    (f,) = _margin_functions(max_witnesses, bound, rule_id)
    relabel = np.array([_permutation_matrix(sigma) for sigma in PERMUTATIONS[1:]])
    fails = None if f is None else functools.partial(
        _cells_fail,
        bound,
        1,
        tuple((sigma, _NOBODY) for sigma in PERMUTATIONS[1:]),
        ((f, _unchanged), (f, lambda key, m: np.einsum("kij,kj->ki", relabel[key], m))),
        lambda sigma, winners, relabelled: _neutrality(sigma, winners, relabelled) is not None,
    )
    witnesses = functools.partial(neutrality_witnesses, rule_id)
    violations = functools.partial(_profile_sweep, bound, witnesses)
    return _decide(rule_id, "neutrality", bound, violations, fails, max_witnesses)


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
    claimed beyond the horizon.
    """
    if horizon < 1:
        raise ValueError(f"horizon must be at least 1, got {horizon}")
    largest = horizon * total_voters(profile) + total_voters(profile2)
    _rules.check_voter_cap(*_rules.resolve(rule_id), largest)
    base = _f(rule_id, profile)
    contained = [
        _f(rule_id, combine(t_fold(profile, n), profile2)) <= base
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
    same instance.  The returned report uses rule id ``"all"``; witnesses
    carry the offending rule in their note.  A margin rule whose cells all
    pass is left out of the sweep: it has no witness to list.
    """
    _validate_bound(bound, 2)
    if rule_ids is None:
        rule_ids = [r for r, rule in _rules.RULES.items() if bound <= rule.max_voters]
    rule_ids = list(rule_ids)
    axiom = "optimist_equivalence"
    functions = _margin_functions(max_witnesses, bound, *rule_ids)
    if any(f is not None for f in functions):
        # the cells of _participation_cells_fail, checked before the sweep
        _refuse_oversized(bound)
    _refuse_oversized_sweep(bound, "removal instances", functions.count(None))
    cells_fail = [
        f is not None and _participation_cells_fail(f, _equivalence, bound) for f in functions
    ]
    swept = [r for r, f, fails in zip(rule_ids, functions, cells_fail) if f is None or fails]
    if not swept:
        return AxiomReport("all", axiom, bound, HOLDS, ())

    def violations() -> Iterator[Witness]:
        instances = list(_removal_instances(bound))
        for rule_id in swept:
            for profile, order, reduced in instances:
                before = _f(rule_id, reduced)
                after = _f(rule_id, profile)
                note = _equivalence(order, before, after)
                if note is not None:
                    note = f"rule {rule_id}, {note}"
                    yield Witness(axiom, (reduced, profile), (before, after), note)

    report = _finish("all", axiom, bound, violations(), max_witnesses)
    if any(cells_fail) and report.holds:
        raise RuntimeError(f"{axiom}: a margin cell fails but no profile up to {bound} does")
    return report
