"""Command-line front door for the package.

Subcommands: ``winners`` (evaluate rules on a profile), ``table`` (the
12-class output table), ``verify`` (run an axiom checker), ``figure4``
(irresoluteness frequencies as CSV), ``satgen`` (export a CNF instance),
``replay`` (re-check a built-in impossibility argument), and ``search``
(scan small profiles for a named phenomenon).

Exit codes are uniform: 0 when the property holds or the command succeeds,
1 when a counterexample or violation is found, 2 on usage or parse errors,
and 141 (128 + SIGPIPE) when the reader of standard output closes it early.
Primary output goes to standard output; diagnostics go to standard error.
"""

from __future__ import annotations

import argparse
import functools
import io
import os
import re
import sys
from typing import Callable, Optional, Sequence

from . import axioms, enumeration, rules, satgen
from .core import (
    CANDIDATES,
    CLASS_LETTERS,
    ORDER_NAMES,
    Profile,
    choice_set_to_str,
    condorcet_winner,
    format_profile,
    margins,
    parse_profile,
    total_voters,
)


def _profile_argument(text: str) -> Profile:
    try:
        return parse_profile(text)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


def _fail(message: str) -> int:
    print(message, file=sys.stderr)
    return 2


# ---------------------------------------------------------------------------
# winners / table
# ---------------------------------------------------------------------------


def cmd_winners(args: argparse.Namespace) -> int:
    if args.all:
        n = total_voters(args.profile)
        rule_ids = [r for r, rule in rules.RULES.items() if n <= rule.max_voters]
    else:
        rule_ids = args.rule
    lines = []
    for rule_id in rule_ids:
        try:
            winners = rules.evaluate(rule_id, args.profile)
        except (rules.UnsupportedRuleError, rules.BoundExceededError) as exc:
            return _fail(str(exc))
        lines.append(f"{rule_id}: {choice_set_to_str(winners)}")
    print("\n".join(lines))
    return 0


def cmd_table(args: argparse.Namespace) -> int:
    if args.representatives:
        print("class,profile")
        for letter in CLASS_LETTERS:
            print(f"{letter},{format_profile(rules.CLASS_REPRESENTATIVES[letter])}")
        return 0
    rule_ids = (
        [args.rule]
        if args.rule
        else [rid for rid in rules.TABLE_RULE_IDS if rid not in rules.RULE_ALIASES]
    )
    print("rule," + ",".join(CLASS_LETTERS))
    for rule_id in rule_ids:
        try:
            cells = rules.table_cells(rule_id)
        except rules.UnsupportedRuleError as exc:
            return _fail(str(exc))
        print(rule_id + "," + ",".join(cells))
    return 0


# ---------------------------------------------------------------------------
# verify
# ---------------------------------------------------------------------------

_SPECIAL_AXIOMS = ("resolute_participation", "refinement", "continuity", "optimist_equivalence")
AXIOM_IDS = tuple(sorted(axioms.CHECKERS)) + _SPECIAL_AXIOMS


def _note_rules_left_out(bound: int) -> None:
    """Name on stderr the rules whose voter cap keeps them out of a check
    over every rule."""
    by_cap: dict[float, list[str]] = {}
    for rule_id, rule in rules.RULES.items():
        if bound > rule.max_voters:
            by_cap.setdefault(rule.max_voters, []).append(rule_id)
    if by_cap:
        left_out = "; ".join(
            f"{', '.join(ids)} (at most {cap} voters)" for cap, ids in by_cap.items()
        )
        print(f"left out {left_out}: bound {bound} is above their voter cap", file=sys.stderr)


def cmd_verify(args: argparse.Namespace) -> int:
    axiom, bound, cap = args.axiom, args.bound, args.max_witnesses
    try:
        if axiom == "resolute_participation":
            tiebreak = ORDER_NAMES.index(args.tiebreak)
            report = axioms.check_resolute_participation(args.rule, tiebreak, bound, cap)
        elif axiom == "refinement":
            if not args.upper:
                return _fail("--axiom refinement needs --upper <rule>")
            report = axioms.check_refinement(args.rule, args.upper, bound, cap)
        elif axiom == "optimist_equivalence":
            rule_ids = [args.rule] if args.rule else None
            report = axioms.verify_optimist_equivalence(bound, rule_ids, cap)
            if rule_ids is None:
                _note_rules_left_out(bound)
        elif axiom == "continuity":
            if args.profile is None or args.profile2 is None:
                return _fail("--axiom continuity needs --profile and --profile2")
            axioms.validate_cap(cap)
            threshold = axioms.continuity_probe(args.rule, args.profile, args.profile2, bound)
            if threshold is None:
                print(
                    f"{args.rule} continuity: no threshold up to horizon {bound} for "
                    f"{format_profile(args.profile)} against {format_profile(args.profile2)}"
                )
                return 1
            print(
                f"{args.rule} continuity: {threshold} copies of "
                f"{format_profile(args.profile)} absorb {format_profile(args.profile2)}"
            )
            return 0
        else:
            report = axioms.CHECKERS[axiom](args.rule, bound, cap)
    except (rules.UnsupportedRuleError, rules.BoundExceededError, ValueError) as exc:
        return _fail(str(exc))
    print(report.render())
    return 0 if report.holds else 1


# ---------------------------------------------------------------------------
# figure4
# ---------------------------------------------------------------------------


#: one id of a comma-separated rule list; a ``scoring:s1,s2,s3`` id keeps its commas
_RULE_ID = re.compile(r"\s*scoring:[^,]*,[^,]*,[^,]*|[^,]+")

def cmd_figure4(args: argparse.Namespace) -> int:
    if args.max_n < 4 or args.max_n % 2:
        return _fail(f"--max-n must be an even number >= 4, got {args.max_n}")
    rule_ids = [rid.strip() for rid in _RULE_ID.findall(args.rules) if rid.strip()]
    if not rule_ids:
        return _fail("--rules must name at least one rule")
    # nothing is threaded any more, but perfbench still sets this variable:
    # a malformed value is refused as before until that setting is dropped
    workers = os.environ.get("TRIVOTE_WORKERS")
    if workers is not None and not (workers.strip().isdecimal() and int(workers) > 0):
        return _fail(f"TRIVOTE_WORKERS must be a positive integer, got {workers!r}")
    # every id and voter cap is checked before the count, which checks its budget
    try:
        for rule_id in rule_ids:
            rules.check_voter_cap(*rules.resolve(rule_id), args.max_n)
        rows = enumeration.frequency_rows(rule_ids, range(4, args.max_n + 1, 2))
    except (rules.UnsupportedRuleError, rules.BoundExceededError) as exc:
        return _fail(str(exc))
    print(enumeration.CSV_HEADER)
    for row in rows:
        print(row.csv())
    return 0


# ---------------------------------------------------------------------------
# satgen / replay
# ---------------------------------------------------------------------------


def cmd_satgen(args: argparse.Namespace) -> int:
    try:
        if args.solve:
            satgen.check_solvable(args.bound, args.neutral)
        instance = satgen.build_instance(args.bound, neutrality=args.neutral)
        # solve first, so that an instance too big for the solver writes nothing
        satisfiable = satgen.solve_naive(instance) if args.solve else None
    except ValueError as exc:
        return _fail(str(exc))
    if args.out:
        try:
            satgen.emit_dimacs(instance, args.out)
        except OSError as exc:
            return _fail(f"cannot write {args.out}: {exc.strerror or exc}")
        print(
            f"wrote {args.out}: {instance.num_vars} vars, {instance.num_clauses} clauses",
            file=sys.stderr,
        )
    else:
        # in buffer-sized pieces: one longer write to a pipe whose reader has
        # gone can come back short, and the rest would be dropped unreported
        text, step = satgen.dimacs_text(instance), io.DEFAULT_BUFFER_SIZE
        for start in range(0, len(text), step):
            sys.stdout.write(text[start : start + step])
    if args.solve:
        print("satisfiable" if satisfiable else "unsatisfiable")
    return 0


def cmd_replay(args: argparse.Namespace) -> int:
    script = satgen.proof_replay(args.id)
    print(script.render())
    return 0 if script.ok else 1


# ---------------------------------------------------------------------------
# search
# ---------------------------------------------------------------------------

def _weak_scoring_overrides_condorcet(profile: Profile) -> bool:
    winner = condorcet_winner(margins(profile))
    if winner is None:
        return False
    return any(
        rules.dominates_all_scoring(profile, x, "weak")
        for x in CANDIDATES
        if x != winner
    )


def _violates(axiom: str, rule_id: str) -> Callable[[Profile], bool]:
    """Whether the ``axiom`` check of ``rule_id`` finds a witness on a profile,
    by the one step of its sweep on that profile."""
    step = axioms.profile_step(axiom, rule_id)
    return lambda profile: bool(step(profile))


#: named predicates for ``search``: id -> (predicate, description)
SEARCH_PREDICATES = {
    "weak-scoring-overrides-condorcet": (
        _weak_scoring_overrides_condorcet,
        "a Condorcet winner exists, yet another candidate beats it under every "
        "weakly monotonic scoring vector",
    ),
    "artificial-homogeneity-violation": (
        _violates("homogeneity", "artificial"),
        "doubling the profile changes the artificial rule's winners",
    ),
    "artificial-neutrality-violation": (
        _violates("neutrality", "artificial"),
        "relabeling candidates changes the artificial rule's winners",
    ),
    "nanson-positive-responsiveness-violation": (
        _violates("positive_responsiveness", "nanson"),
        "promoting a Nanson winner on one ballot fails to make it the unique winner",
    ),
}


def cmd_search(args: argparse.Namespace) -> int:
    if args.list:
        for name, (_, description) in sorted(SEARCH_PREDICATES.items()):
            print(f"{name}: {description}")
        return 0
    if not args.predicate:
        return _fail("a predicate name is required (or use --list)")
    try:
        predicate, _ = SEARCH_PREDICATES[args.predicate]
    except KeyError:
        known = ", ".join(sorted(SEARCH_PREDICATES))
        return _fail(f"unknown predicate {args.predicate!r} (known: {known})")
    if args.bound < 1:
        return _fail(f"--bound must be at least 1, got {args.bound}")
    try:
        # a first-mode search stops at the budget, as it may end long before it
        if args.mode == "all":
            axioms._refuse_oversized_sweep(args.bound, "profiles")
        hits = enumeration.search(predicate, args.bound, args.mode, axioms.SWEEP_BUDGET)
    except rules.BoundExceededError as exc:
        return _fail(str(exc))
    for profile in hits:
        print(format_profile(profile))
    if hits:
        return 1
    print(f"no profile with at most {args.bound} voters matches", file=sys.stderr)
    return 0


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The parser, built once per process: parsing leaves it unchanged."""
    parser = argparse.ArgumentParser(
        prog="trivote",
        description="Three-candidate voting rules and their verification suites.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    winners = sub.add_parser("winners", help="evaluate rules on a profile")
    winners.add_argument("profile", type=_profile_argument)
    group = winners.add_mutually_exclusive_group(required=True)
    group.add_argument("--rule", action="append", help="rule id (repeatable)")
    group.add_argument("--all", action="store_true", help="every known rule")
    winners.set_defaults(func=cmd_winners)

    table = sub.add_parser("table", help="the 12-class output table as CSV")
    table.add_argument("--rule", help="print a single row")
    table.add_argument(
        "--representatives",
        action="store_true",
        help="print the representative profile of each class instead",
    )
    table.set_defaults(func=cmd_table)

    verify = sub.add_parser("verify", help="run an axiom checker")
    verify.add_argument("--rule", help="rule id under test")
    verify.add_argument("--axiom", required=True, choices=AXIOM_IDS, metavar="AXIOM")
    verify.add_argument("--bound", type=int, required=True, help="max total voters (or horizon)")
    verify.add_argument("--max-witnesses", type=int, default=5)
    verify.add_argument("--tiebreak", choices=ORDER_NAMES, default="abc",
                        help="tie-breaking order for resolute_participation")
    verify.add_argument("--upper", help="coarser rule for refinement")
    verify.add_argument("--profile", type=_profile_argument, help="majority profile for continuity")
    verify.add_argument("--profile2", type=_profile_argument, help="fixed minority for continuity")
    verify.set_defaults(func=cmd_verify)

    figure4 = sub.add_parser("figure4", help="irresoluteness frequencies as CSV")
    figure4.add_argument("--rules", default="maximin,nanson,leximin,black",
                         help="comma-separated rule ids")
    figure4.add_argument("--max-n", type=int, default=30, help="largest (even) electorate")
    figure4.set_defaults(func=cmd_figure4)

    satgen_cmd = sub.add_parser("satgen", help="export a reinforcement CNF instance")
    satgen_cmd.add_argument("--bound", type=int, required=True)
    satgen_cmd.add_argument("--neutral", action="store_true",
                            help="alias choice variables across relabelings")
    satgen_cmd.add_argument("--out", help="DIMACS destination (default: stdout)")
    satgen_cmd.add_argument("--solve", action="store_true",
                            help="also run the built-in best-effort solver")
    satgen_cmd.set_defaults(func=cmd_satgen)

    replay = sub.add_parser("replay", help="re-check a built-in impossibility argument")
    replay.add_argument("id", choices=satgen.SCRIPT_IDS)
    replay.set_defaults(func=cmd_replay)

    search = sub.add_parser("search", help="scan small profiles for a named phenomenon")
    search.add_argument("predicate", nargs="?", metavar="PREDICATE")
    search.add_argument("--bound", type=int, default=8, help="max total voters")
    search.add_argument("--mode", choices=("first", "all"), default="first")
    search.add_argument("--list", action="store_true", help="list known predicates")
    search.set_defaults(func=cmd_search)

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    if args.command == "verify" and args.axiom != "optimist_equivalence" and not args.rule:
        parser.error("--rule is required for this axiom")
    return args.func(args)


def entry_point() -> None:
    try:
        code = main()
        sys.stdout.flush()
    except BrokenPipeError:
        # the reader closed stdout early (``| head``): point stdout at devnull
        # so that the flush at exit cannot fail again, and exit 128 + SIGPIPE
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        code = 141
    sys.exit(code)
