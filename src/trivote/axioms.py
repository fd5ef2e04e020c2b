"""Exhaustive finite checkers for voting-rule axioms, with replayable witnesses.

Each checker scans every anonymous profile (or pair of profiles) up to a
voter bound and returns an :class:`AxiomReport`.  A report's verdict is
``"violated"`` exactly when its witness list is non-empty, and every witness
replays: re-evaluating the report's rule on ``witness.profiles[i]``
reproduces ``witness.outputs[i]``.

A ``holds-up-to-bound`` verdict certifies nothing beyond the bound; the
checkers are finite searches, not proofs.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass
from typing import Callable, Iterable, Iterator, Optional

from . import rules as _rules
from .core import (
    CANDIDATE_NAMES,
    CANDIDATES,
    ChoiceSet,
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
    permute_profile,
    t_fold,
    top,
    total_voters,
)
from .enumeration import ProfileCursor, profiles_up_to

HOLDS = "holds-up-to-bound"
VIOLATED = "violated"

_f = _rules.evaluate


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
    validate_cap(max_witnesses)
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
# Reinforcement
# ---------------------------------------------------------------------------


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
    axiom = {
        "full": "reinforcement",
        "subset": "subset_reinforcement",
        "superset": "superset_reinforcement",
    }.get(variant)
    if axiom is None:
        raise ValueError(f"unknown reinforcement variant: {variant!r}")
    _validate_bound(bound, 2)

    def violations() -> Iterator[Witness]:
        for first, second in _profile_pairs(bound):
            out1 = _f(rule_id, first)
            out2 = _f(rule_id, second)
            agreed = out1 & out2
            if variant != "subset" and not agreed:
                continue
            merged = combine(first, second)
            out12 = _f(rule_id, merged)
            if variant == "full":
                ok = out12 == agreed
            elif variant == "subset":
                ok = agreed <= out12
            else:
                ok = out12 <= agreed
            if not ok:
                note = (
                    f"agreed winners {choice_set_to_str(agreed)}, "
                    f"merged electorate gives {choice_set_to_str(out12)}"
                )
                yield Witness(axiom, (first, second, merged), (out1, out2, out12), note)

    return _finish(rule_id, axiom, bound, violations(), max_witnesses)


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


def _participation_sweep(
    rule_id: str,
    axiom: str,
    bound: int,
    clause: Callable[[int, ChoiceSet, ChoiceSet], Optional[str]],
    max_witnesses: Optional[int],
) -> AxiomReport:
    """Run ``clause`` on every single-voter removal instance up to ``bound``."""
    _validate_bound(bound, 2)

    def violations() -> Iterator[Witness]:
        for profile, order, reduced in _removal_instances(bound):
            before = _f(rule_id, reduced)
            after = _f(rule_id, profile)
            note = clause(order, before, after)
            if note is not None:
                yield Witness(axiom, (reduced, profile), (before, after), note)

    return _finish(rule_id, axiom, bound, violations(), max_witnesses)


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
    return _participation_sweep(rule_id, axiom, bound, clause, max_witnesses)


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
    axiom = f"resolute_participation({ORDER_NAMES[tiebreak]})"
    clause = functools.partial(_resolute, tiebreak)
    return _participation_sweep(rule_id, axiom, bound, clause, max_witnesses)


# ---------------------------------------------------------------------------
# Single-profile axioms
# ---------------------------------------------------------------------------
#
# Each ``*_witnesses`` generator yields the failures of one axiom on one
# profile; ``_profile_sweep`` drives it over every profile up to a bound.


def _profile_sweep(
    rule_id: str,
    axiom: str,
    bound: int,
    witnesses: Callable[[Profile], Iterator[Witness]],
    max_witnesses: Optional[int],
) -> AxiomReport:
    _validate_bound(bound, 1)
    violations = (w for profile in profiles_up_to(bound) for w in witnesses(profile))
    return _finish(rule_id, axiom, bound, violations, max_witnesses)


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
    for x in CANDIDATES:
        for y in CANDIDATES:
            if x == y:
                continue
            moves = [(o, t) for o, t, mx, my in _MOVES if (mx, my) == (x, y)]
            combos = [
                (moves[0], moves[0]),
                (moves[0], moves[1]),
                (moves[1], moves[1]),
            ]
            for (o1, t1), (o2, t2) in combos:
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
        if x not in winners:
            continue
        if variant == "tiebreak_positive" and y not in winners:
            continue
        outcome = _f(rule_id, improved)
        if variant == "monotonicity":
            ok = x in outcome
        else:
            ok = outcome == frozenset((x,))
        if not ok:
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
    witnesses = functools.partial(
        responsiveness_witnesses, rule_id, variant, max_simultaneous_swaps=max_simultaneous_swaps
    )
    return _profile_sweep(rule_id, axiom, bound, witnesses, max_witnesses)


def homogeneity_witnesses(rule_id: str, profile: Profile) -> Iterator[Witness]:
    """The failures :func:`check_homogeneity` finds on one profile."""
    once = _f(rule_id, profile)
    doubled_profile = t_fold(profile, 2)
    doubled = _f(rule_id, doubled_profile)
    if once != doubled:
        yield Witness(
            "homogeneity",
            (profile, doubled_profile),
            (once, doubled),
            "doubling the electorate changes the outcome",
        )


def check_homogeneity(
    rule_id: str, bound: int, max_witnesses: Optional[int] = None
) -> AxiomReport:
    """Doubling every voter count must not change the outcome."""
    witnesses = functools.partial(homogeneity_witnesses, rule_id)
    return _profile_sweep(rule_id, "homogeneity", bound, witnesses, max_witnesses)


_CONDORCET_AXIOMS = {"standard": "condorcet_consistency", "strong": "strong_condorcet"}


def condorcet_witnesses(rule_id: str, variant: str, profile: Profile) -> Iterator[Witness]:
    """The failures :func:`check_condorcet` finds on one profile."""
    axiom = _CONDORCET_AXIOMS[variant]
    m = margins(profile)
    winners = _f(rule_id, profile)
    if variant == "standard":
        champion = condorcet_winner(m)
        if champion is not None and winners != frozenset((champion,)):
            note = f"majority winner {_candidate(champion)} not selected uniquely"
            yield Witness(axiom, (profile,), (winners,), note)
    else:
        unbeaten = intermediate_condorcet_winners(m)
        if unbeaten and winners != unbeaten:
            note = f"unbeaten candidates {choice_set_to_str(unbeaten)} not selected exactly"
            yield Witness(axiom, (profile,), (winners,), note)


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
    witnesses = functools.partial(condorcet_witnesses, rule_id, variant)
    return _profile_sweep(rule_id, axiom, bound, witnesses, max_witnesses)


def refinement_witnesses(lower: str, upper: str, profile: Profile) -> Iterator[Witness]:
    """The failures :func:`check_refinement` finds on one profile."""
    fine = _f(lower, profile)
    coarse = _f(upper, profile)
    if not fine <= coarse:
        note = f"{upper} gives {choice_set_to_str(coarse)}"
        yield Witness(f"refinement({upper})", (profile,), (fine,), note)


def check_refinement(
    lower: str, upper: str, bound: int, max_witnesses: Optional[int] = None
) -> AxiomReport:
    """Every winner of ``lower`` must also win under ``upper``."""
    witnesses = functools.partial(refinement_witnesses, lower, upper)
    return _profile_sweep(lower, f"refinement({upper})", bound, witnesses, max_witnesses)


def neutrality_witnesses(rule_id: str, profile: Profile) -> Iterator[Witness]:
    """The failures :func:`check_neutrality` finds on one profile."""
    winners = _f(rule_id, profile)
    for sigma in PERMUTATIONS[1:]:
        relabelled_profile = permute_profile(profile, sigma)
        relabelled_winners = _f(rule_id, relabelled_profile)
        expected = permute_choice_set(winners, sigma)
        if relabelled_winners != expected:
            note = f"relabelling {sigma} should give {choice_set_to_str(expected)}"
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
    witnesses = functools.partial(neutrality_witnesses, rule_id)
    return _profile_sweep(rule_id, "neutrality", bound, witnesses, max_witnesses)


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
    carry the offending rule in their note.
    """
    _validate_bound(bound, 2)
    if rule_ids is None:
        rule_ids = [r for r, rule in _rules.RULES.items() if bound <= rule.max_voters]
    axiom = "optimist_equivalence"

    def violations() -> Iterator[Witness]:
        instances = list(_removal_instances(bound))
        for rule_id in rule_ids:
            for profile, order, reduced in instances:
                before = _f(rule_id, reduced)
                after = _f(rule_id, profile)
                optimist_ok = _optimist(order, before, after) is None
                involvement_ok = (
                    _positive_involvement(order, before, after) is None
                    and _singleton_negative_involvement(order, before, after) is None
                )
                if optimist_ok != involvement_ok:
                    note = (
                        f"rule {rule_id}, voter {ORDER_NAMES[order]}: optimist "
                        f"{'passes' if optimist_ok else 'fails'} but involvement "
                        f"checks {'pass' if involvement_ok else 'fail'}"
                    )
                    yield Witness(axiom, (reduced, profile), (before, after), note)

    return _finish("all", axiom, bound, violations(), max_witnesses)
