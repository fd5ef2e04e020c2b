"""CNF instances for merged-electorate consistency, and mechanical proof replays.

``build_instance`` encodes, over every anonymous profile with at most
``bound`` voters, the constraints "f(P) is non-empty", "f(P) = {w} whenever P
has Condorcet winner w", and full reinforcement for every unordered pair of
profiles whose totals fit in the bound.  A rule is a model of the instance
exactly when it is a Condorcet extension satisfying reinforcement up to the
bound, which is what :func:`check_assignment` evaluates.  Instances are
deterministic down to the byte: same ``(bound, neutrality)``, same DIMACS.

``proof_replay`` re-checks the pen-and-paper impossibility arguments for
Condorcet extensions (9 voters for subset-reinforcement, 8 with anonymity,
5 with anonymity and neutrality) step by step, using margin arithmetic and
set logic only — never a concrete voting rule.
"""

from __future__ import annotations

import io
import os
import sys
from dataclasses import dataclass
from typing import TextIO, Union

from . import rules as _rules
from .core import (
    CANDIDATE_NAMES,
    CANDIDATES,
    PERMUTATIONS,
    Profile,
    combine,
    condorcet_winner,
    format_profile,
    margins,
    permute_profile,
    total_voters,
)
from .enumeration import _profile_pairs, condorcet_profile_counts, profile_count, profiles_up_to

Clause = tuple[int, ...]

# ---------------------------------------------------------------------------
# instance construction
# ---------------------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class CnfInstance:
    """A CNF encoding of "Condorcet extension + reinforcement up to ``bound``".

    Variables are dense and 1-based.  ``var_of(P, c)`` is the variable
    asserting ``c in f(P)``; ``aux_of(P1, P2)`` asserts that f(P1) and f(P2)
    share a winner.  With ``neutral`` instances, relabel-equivalent choice
    variables are aliased to one representative, so ``var_of`` maps the whole
    orbit of (profile, candidate) pairs to the same index.
    """

    bound: int
    neutral: bool
    universe: tuple[Profile, ...]
    clauses: tuple[Clause, ...]
    #: dense variable -> ("x", profile, candidate) or ("aux", p1, p2)
    var_meaning: tuple[tuple, ...]
    #: profile -> its choice variables, indexed by candidate
    _x_var: dict
    _aux_var: dict

    @property
    def num_vars(self) -> int:
        return len(self.var_meaning)

    @property
    def num_clauses(self) -> int:
        return len(self.clauses)

    def var_of(self, profile: Profile, candidate: int) -> int:
        """Variable index meaning ``candidate in f(profile)``."""
        return self._x_var[profile][candidate]

    def aux_of(self, p1: Profile, p2: Profile) -> int:
        """Variable index meaning ``f(p1) and f(p2) intersect``."""
        try:
            return self._aux_var[(p1, p2)]
        except KeyError:
            return self._aux_var[(p2, p1)]


#: the most clauses of the plain instance of a bound that :func:`build_instance`
#: builds, neutral or not; a larger bound is refused before the build.  Aliasing
#: drops few clauses (1.5% at bound 8), so the neutral instance is over the
#: budget from the same bound.  Bound 10 (3,812,454 clauses) passes: ``satgen
#: --bound 10`` took 17 s and 905 MB peak RSS on a 2-vCPU VM; bound 11
#: (8,009,346) is refused.
BUILD_CLAUSE_BUDGET = 4_000_000


def build_instance(bound: int, neutrality: bool = False) -> CnfInstance:
    """Encode non-emptiness, Condorcet consistency, and reinforcement as CNF.

    Every variable is numbered before the first clause, so each clause is
    written once, in its final numbering: three x variables per profile in
    universe order, then one shared-winner variable per pair in pair order.
    With ``neutrality`` a (profile, candidate) takes the variable of the
    smallest (universe index, candidate) of its orbit under relabelings,
    which the walk in universe order has always met already.

    A bound whose plain instance has more than :data:`BUILD_CLAUSE_BUDGET`
    clauses raises ValueError before anything is built.

    Clauses come in a fixed order: one non-emptiness clause per profile, unit
    clauses pinning f(P) = {w} on every profile with Condorcet winner w, then
    for each unordered pair (P1, P2) with n1 + n2 <= bound and each candidate
    c the four reinforcement clauses over the shared-winner variable v:
    (x1 & x2) -> v, (v & xm) -> x1, (v & xm) -> x2, (v & x1 & x2) -> xm.
    A repeated literal (as in a pair (P, P)) is kept once, and of clauses with
    the same literal set the first occurrence is kept, so the output is
    deterministic.  No clause is a tautology, even under aliasing: relabeling
    keeps the number of voters, and the literals of opposite sign in a clause
    belong to profiles of different sizes or to a shared-winner variable.
    """
    if bound < 2:
        raise ValueError(f"bound must be at least 2, got {bound}")
    clauses = clause_count(bound)
    if clauses > BUILD_CLAUSE_BUDGET:
        raise ValueError(
            f"bound {bound}: the plain instance has {clauses} clauses, "
            f"over the build budget of {BUILD_CLAUSE_BUDGET}"
        )

    universe = tuple(profiles_up_to(bound))
    index = {p: i for i, p in enumerate(universe)}
    relabelings = PERMUTATIONS if neutrality else ((0, 1, 2),)

    var_meaning: list[tuple] = []
    x_var: dict[Profile, list[int]] = {}
    for i, p in enumerate(universe):
        orbit = [(index[permute_profile(p, sigma)], sigma) for sigma in relabelings]
        x_var[p] = triple = []
        for c in CANDIDATES:
            j, d = min((k, sigma[c]) for k, sigma in orbit)
            if (j, d) == (i, c):
                var_meaning.append(("x", p, c))
                triple.append(len(var_meaning))
            else:
                triple.append(x_var[universe[j]][d])

    # sorted literals -> the clause as first met; dicts keep insertion order
    clauses: dict[Clause, Clause] = {}

    def add(*lits: int) -> None:
        clause = tuple(dict.fromkeys(lits))
        clauses.setdefault(tuple(sorted(clause)), clause)

    for p in universe:
        add(*x_var[p])
    for p in universe:
        w = condorcet_winner(margins(p))
        if w is not None:
            add(x_var[p][w])
            for c in CANDIDATES:
                if c != w:
                    add(-x_var[p][c])
    aux_var: dict[tuple[Profile, Profile], int] = {}
    for p1, p2 in _profile_pairs(bound):
        var_meaning.append(("aux", p1, p2))
        v = aux_var[(p1, p2)] = len(var_meaning)
        # each literal is made once, so the clauses share its int object
        nv = -v
        for x1, x2, xm in zip(x_var[p1], x_var[p2], x_var[combine(p1, p2)]):
            n1, n2, nm = -x1, -x2, -xm
            add(n1, n2, v)
            add(nv, nm, x1)
            add(nv, nm, x2)
            add(nv, n1, n2, xm)

    return CnfInstance(
        bound=bound,
        neutral=neutrality,
        universe=universe,
        clauses=tuple(clauses.values()),
        var_meaning=tuple(var_meaning),
        _x_var=x_var,
        _aux_var=aux_var,
    )


# ---------------------------------------------------------------------------
# DIMACS export
# ---------------------------------------------------------------------------


def emit_dimacs(inst: CnfInstance, destination: Union[str, os.PathLike, TextIO]) -> None:
    """Write ``inst`` as standard DIMACS CNF (deterministic byte-for-byte).

    Comment lines map every variable back to its meaning: ``c <i> = <profile>
    : <candidate>`` for choice variables and ``c <i> = agree(<p1> | <p2>)``
    for shared-winner variables.
    """
    if hasattr(destination, "write"):
        _write_dimacs(inst, destination)
        return
    with open(destination, "w", newline="\n") as handle:
        _write_dimacs(inst, handle)


def _write_dimacs(inst: CnfInstance, out: TextIO) -> None:
    neutrality = "on" if inst.neutral else "off"
    out.write(f"c reinforcement instance bound={inst.bound} neutrality={neutrality}\n")
    out.write(f"c {len(inst.universe)} profiles, {inst.num_vars} vars, {inst.num_clauses} clauses\n")
    for i, meaning in enumerate(inst.var_meaning, start=1):
        if meaning[0] == "x":
            _, p, c = meaning
            out.write(f"c {i} = {format_profile(p)} : {CANDIDATE_NAMES[c]}\n")
        else:
            _, p1, p2 = meaning
            out.write(f"c {i} = agree({format_profile(p1)} | {format_profile(p2)})\n")
    out.write(f"p cnf {inst.num_vars} {inst.num_clauses}\n")
    for clause in inst.clauses:
        out.write(" ".join(str(lit) for lit in clause) + " 0\n")


def dimacs_text(inst: CnfInstance) -> str:
    """The full DIMACS serialization as a string."""
    buffer = io.StringIO()
    _write_dimacs(inst, buffer)
    return buffer.getvalue()


# ---------------------------------------------------------------------------
# model checking and best-effort solving
# ---------------------------------------------------------------------------


def check_assignment(inst: CnfInstance, rule: str) -> bool:
    """Does ``rule`` satisfy every clause of ``inst``?

    Sets each choice variable to ``c in f(P)`` and each shared-winner
    variable to the truth of ``f(P1) & f(P2)``, then evaluates all clauses.
    On aliased (neutral) instances the orbit representative decides the
    value, which is only faithful for neutral rules.
    """
    outputs = {p: _rules.evaluate(rule, p) for p in inst.universe}
    truth = [False]  # 1-based
    for meaning in inst.var_meaning:
        if meaning[0] == "x":
            _, p, c = meaning
            truth.append(c in outputs[p])
        else:
            _, p1, p2 = meaning
            truth.append(bool(outputs[p1] & outputs[p2]))
    return all(
        any(truth[lit] if lit > 0 else not truth[-lit] for lit in clause)
        for clause in inst.clauses
    )


#: ceiling above which :func:`solve_naive` refuses to run
SOLVER_CLAUSE_LIMIT = 100_000


def check_solver_limit(num_clauses: int) -> None:
    """Raise ValueError when :func:`solve_naive` refuses that many clauses."""
    if num_clauses > SOLVER_CLAUSE_LIMIT:
        raise ValueError(
            f"instance has {num_clauses} clauses; "
            f"the built-in solver handles at most {SOLVER_CLAUSE_LIMIT}"
        )


def clause_count(bound: int) -> int:
    """Clauses of the plain ``build_instance(bound)``, without building it:
    one per profile, three per profile with a Condorcet winner and twelve per
    unordered pair, less the three that a pair (P, P) repeats."""
    sizes = [profile_count(n) for n in range(bound + 1)]
    ordered = sum(sizes[a] * sizes[b] for a in range(1, bound) for b in range(1, bound - a + 1))
    condorcet = sum(condorcet_profile_counts(range(1, bound + 1)))
    return sum(sizes[1:]) + 3 * condorcet + 6 * ordered + 3 * sum(sizes[1 : bound // 2 + 1])


def check_solvable(bound: int, neutrality: bool) -> None:
    """Raise ValueError, before anything is built, when :func:`solve_naive`
    would refuse ``build_instance(bound, neutrality)``.  The plain instance's
    size has a closed form.  The neutral instance is never larger, as
    aliasing only drops clauses, and its size also grows with the bound: 31,684
    clauses at bound 5 and 100,157 at bound 6, against 33,275 and 103,517 for
    the plain one, so both pass the limit up to the same bound."""
    clauses = clause_count(bound)
    if neutrality and clauses > SOLVER_CLAUSE_LIMIT:
        raise ValueError(
            f"the neutral instance of bound {bound} has over {SOLVER_CLAUSE_LIMIT} clauses; "
            f"the built-in solver handles at most {SOLVER_CLAUSE_LIMIT}"
        )
    check_solver_limit(clauses)


def solve_naive(inst: CnfInstance) -> bool:
    """Best-effort DPLL: True if satisfiable, False if not.

    A naive solver — unit propagation plus branching on the most-occurring
    variable — intended only for small instances such as the 5-voter
    neutral one.  Raises ValueError above :data:`SOLVER_CLAUSE_LIMIT`
    clauses; use :func:`emit_dimacs` and an external solver instead.
    """
    check_solver_limit(inst.num_clauses)
    clauses = [list(c) for c in inst.clauses]
    occurs: dict[int, list[int]] = {}
    for idx, clause in enumerate(clauses):
        for lit in clause:
            occurs.setdefault(lit, []).append(idx)

    counts = [0] * (inst.num_vars + 1)
    for clause in clauses:
        for lit in clause:
            counts[abs(lit)] += 1
    branch_order = sorted(range(1, inst.num_vars + 1), key=lambda v: -counts[v])

    assign: dict[int, bool] = {}

    def propagate(units: list[int], trail: list[int]) -> bool:
        """Assign ``units`` and their consequences; False on conflict."""
        queue = list(units)
        while queue:
            lit = queue.pop()
            var, value = abs(lit), lit > 0
            if var in assign:
                if assign[var] != value:
                    return False
                continue
            assign[var] = value
            trail.append(var)
            for idx in occurs.get(-lit, ()):
                clause = clauses[idx]
                unassigned = None
                satisfied = False
                for other in clause:
                    v = assign.get(abs(other))
                    if v is None:
                        if unassigned is None:
                            unassigned = other
                        else:
                            unassigned = 0  # two free literals: not a unit
                    elif v == (other > 0):
                        satisfied = True
                        break
                if satisfied:
                    continue
                if unassigned is None:
                    return False
                if unassigned != 0:
                    queue.append(unassigned)
        return True

    initial = [c[0] for c in clauses if len(c) == 1]
    trail: list[int] = []
    if not propagate(initial, trail):
        return False

    def search() -> bool:
        var = next((v for v in branch_order if v not in assign), None)
        if var is None:
            return True
        for value in (True, False):
            local: list[int] = []
            if propagate([var if value else -var], local) and search():
                return True
            for v in local:
                del assign[v]
        return False

    old_limit = sys.getrecursionlimit()
    sys.setrecursionlimit(max(old_limit, 4 * inst.num_vars + 1000))
    try:
        return search()
    finally:
        sys.setrecursionlimit(old_limit)


# ---------------------------------------------------------------------------
# proof replay
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ScriptStep:
    """One checked deduction: the profiles involved, the principle applied,
    the constraint deduced, and whether the mechanical check passed."""

    label: str
    profiles: tuple[Profile, ...]
    principle: str
    claim: str
    ok: bool
    detail: str = ""

    def render(self) -> str:
        mark = "ok" if self.ok else "FAIL"
        line = f"[{mark}] {self.label}: {self.claim}  ({self.principle})"
        if self.detail:
            line += f"\n        {self.detail}"
        return line


@dataclass(frozen=True)
class TheoremScript:
    """A replayed impossibility argument: ordered, individually checked steps."""

    script_id: str
    conclusion: str
    steps: tuple[ScriptStep, ...]

    @property
    def ok(self) -> bool:
        return all(step.ok for step in self.steps)

    def failed_steps(self) -> tuple[ScriptStep, ...]:
        return tuple(step for step in self.steps if not step.ok)

    def render(self) -> str:
        status = "all steps pass" if self.ok else (
            "FAILED at " + ", ".join(repr(s.label) for s in self.failed_steps())
        )
        lines = [f"replay {self.script_id}: {status} ({len(self.steps)} steps)"]
        lines += ["    " + step.render().replace("\n", "\n    ") for step in self.steps]
        lines.append(f"    conclusion: {self.conclusion}")
        return "\n".join(lines)


def _cw_step(label: str, profile: Profile, expected: int, consequence: str) -> ScriptStep:
    """Check a claimed Condorcet winner by margin arithmetic."""
    actual = condorcet_winner(margins(profile))
    ok = actual == expected
    detail = ""
    if not ok:
        got = "none" if actual is None else CANDIDATE_NAMES[actual]
        detail = f"margins {margins(profile)} give Condorcet winner {got}"
    return ScriptStep(
        label=label,
        profiles=(profile,),
        principle="Condorcet consistency",
        claim=f"{format_profile(profile)} has Condorcet winner "
        f"{CANDIDATE_NAMES[expected]}, so f = {{{CANDIDATE_NAMES[expected]}}}"
        + (f"; hence {consequence}" if consequence else ""),
        ok=ok,
        detail=detail,
    )


def _no_cw_step(label: str, profile: Profile) -> ScriptStep:
    actual = condorcet_winner(margins(profile))
    return ScriptStep(
        label=label,
        profiles=(profile,),
        principle="margin arithmetic",
        claim=f"{format_profile(profile)} is a majority cycle (no Condorcet "
        "winner), so non-emptiness only pins some winner w; case split on w",
        ok=actual is None,
        detail="" if actual is None else f"unexpected Condorcet winner {CANDIDATE_NAMES[actual]}",
    )


def _sum_step(label: str, parts: tuple[Profile, Profile], expected: Profile) -> ScriptStep:
    merged = combine(*parts)
    return ScriptStep(
        label=label,
        profiles=parts + (expected,),
        principle="profile arithmetic",
        claim=f"{format_profile(parts[0])} + {format_profile(parts[1])} "
        f"= {format_profile(expected)}",
        ok=merged == expected,
        detail="" if merged == expected else f"sum is {format_profile(merged)}",
    )


def _fixed_step(label: str, profile: Profile, sigma: tuple[int, int, int], note: str) -> ScriptStep:
    image = permute_profile(profile, sigma)
    names = "".join(CANDIDATE_NAMES[sigma[c]] for c in CANDIDATES)
    return ScriptStep(
        label=label,
        profiles=(profile,),
        principle="relabeling symmetry",
        claim=f"{format_profile(profile)} is fixed by abc -> {names}; {note}",
        ok=image == profile,
        detail="" if image == profile else f"relabels to {format_profile(image)}",
    )


_ROTATIONS = {0: (0, 1, 2), 1: (1, 2, 0), 2: (2, 0, 1)}  # candidate w -> sigma, sigma(a) = w


def _replay_nine_voters() -> TheoremScript:
    """Subset-reinforcement impossibility for Condorcet extensions at 9 voters.

    A double majority cycle P1 (6 voters) elects some w; a 3-voter profile
    with Condorcet winner w then merges into a profile whose Condorcet winner
    is a different candidate, so w cannot survive — yet subset-reinforcement
    says it must.
    """
    p1 = (2, 0, 0, 2, 2, 0)  # 2abc + 2bca + 2cab
    p2 = (0, 2, 0, 0, 1, 0)  # 2acb + 1cab
    steps = [_no_cw_step("P1 cycle", p1)]
    for w in CANDIDATES:
        sigma = _ROTATIONS[w]
        tag = f"case w={CANDIDATE_NAMES[w]}"
        steps.append(_fixed_step(
            f"{tag}: P1 symmetric", p1, sigma,
            "the case reduces to relabeling the 3-voter profile",
        ))
        q = permute_profile(p2, sigma)
        loser = sigma[2]  # image of c
        steps.append(_cw_step(f"{tag}: new voters", q, w, ""))
        merged = combine(p1, q)
        steps.append(_cw_step(
            f"{tag}: merged profile", merged, loser,
            f"subset-reinforcement puts w = {CANDIDATE_NAMES[w]} in "
            f"f(P1) n f(Q) c f(P1+Q) = {{{CANDIDATE_NAMES[loser]}}}, a contradiction",
        ))
        steps.append(ScriptStep(
            label=f"{tag}: contradiction",
            profiles=(p1, q, merged),
            principle="subset-reinforcement",
            claim=f"{CANDIDATE_NAMES[w]} in f(P1) n f(Q) but not in f(P1+Q)",
            ok=w != loser,
            detail="" if w != loser else "merged winner equals the surviving candidate",
        ))
    steps.append(ScriptStep(
        label="electorate size",
        profiles=(combine(p1, p2),),
        principle="arithmetic",
        claim="the merged profiles have 9 voters",
        ok=total_voters(combine(p1, p2)) == 9,
    ))
    return TheoremScript(
        script_id="4.1",
        conclusion="no Condorcet extension satisfies subset-reinforcement "
        "once 9 voters are available",
        steps=tuple(steps),
    )


def _replay_eight_voters() -> TheoremScript:
    """Reinforcement impossibility for anonymous Condorcet extensions at 8 voters.

    From a winner w of the 3-voter cycle P1, four merges with Condorcet
    winners force f(P2) = f(P3) = {third candidate}; reinforcement then pins
    f(P2+P3) two incompatible ways, since P2+P3 also equals P1 plus a profile
    whose Condorcet winner is w.
    """
    p0 = (0, 0, 1, 0, 0, 0)  # 1bac
    p1 = (1, 0, 0, 1, 1, 0)  # 1abc + 1bca + 1cab
    p2 = (1, 1, 0, 0, 2, 0)  # 1abc + 1acb + 2cab
    p3 = (0, 2, 0, 1, 1, 0)  # 2acb + 1bca + 1cab
    p5 = (0, 3, 0, 0, 2, 0)  # 3acb + 2cab
    steps = [_no_cw_step("P1 cycle", p1)]
    for w in CANDIDATES:
        sigma = _ROTATIONS[w]
        a_, b_, c_ = (CANDIDATE_NAMES[sigma[c]] for c in CANDIDATES)
        tag = f"case w={a_}"
        steps.append(_fixed_step(
            f"{tag}: P1 symmetric", p1, sigma,
            "the case reduces to relabeling every other profile",
        ))
        q0, q2, q3, q5 = (permute_profile(p, sigma) for p in (p0, p2, p3, p5))
        p7, p8 = combine(p1, q2), combine(p1, q3)
        p4, p6 = combine(q0, q2), combine(q0, q3)
        p9 = combine(q2, q3)
        steps.append(_cw_step(f"{tag}: P0", q0, sigma[1], f"f(P0) = {{{b_}}}"))
        steps.append(_cw_step(
            f"{tag}: P7 = P1+P2", p7, sigma[2],
            f"{a_} in f(P2) would put {a_} in f(P1+P2) = {{{c_}}}; so {a_} not in f(P2)",
        ))
        steps.append(_cw_step(
            f"{tag}: P8 = P1+P3", p8, sigma[2],
            f"likewise {a_} not in f(P3)",
        ))
        steps.append(_cw_step(
            f"{tag}: P4 = P0+P2", p4, sigma[0],
            f"{b_} in f(P2) would put {b_} in f(P0+P2) = {{{a_}}}; so {b_} not in f(P2)",
        ))
        steps.append(_cw_step(
            f"{tag}: P6 = P0+P3", p6, sigma[0],
            f"likewise {b_} not in f(P3); non-emptiness leaves f(P2) = f(P3) = {{{c_}}}",
        ))
        steps.append(ScriptStep(
            label=f"{tag}: first pin on P9",
            profiles=(q2, q3, p9),
            principle="reinforcement",
            claim=f"f(P2) n f(P3) = {{{c_}}} is non-empty, so f(P2+P3) = {{{c_}}}",
            ok=True,
        ))
        steps.append(_sum_step(f"{tag}: P9 rewrites", (p1, q5), p9))
        steps.append(_cw_step(
            f"{tag}: P5", q5, sigma[0],
            f"w = {a_} in f(P1) n f(P5), so reinforcement puts {a_} in f(P1+P5) = f(P9)",
        ))
        steps.append(ScriptStep(
            label=f"{tag}: contradiction",
            profiles=(p9,),
            principle="reinforcement",
            claim=f"f(P9) = {{{c_}}} cannot contain {a_}",
            ok=sigma[0] != sigma[2],
        ))
    steps.append(ScriptStep(
        label="electorate size",
        profiles=(combine(p2, p3),),
        principle="arithmetic",
        claim="P9 has 8 voters and every other merge has fewer",
        ok=total_voters(combine(p2, p3)) == 8
        and all(
            total_voters(combine(x, y)) <= 8
            for x, y in ((p1, p2), (p1, p3), (p0, p2), (p0, p3), (p1, p5))
        ),
    ))
    return TheoremScript(
        script_id="4.3",
        conclusion="no anonymous Condorcet extension satisfies reinforcement "
        "once 8 voters are available",
        steps=tuple(steps),
    )


def _replay_five_voters() -> TheoremScript:
    """Reinforcement impossibility for anonymous neutral Condorcet extensions
    at 5 voters.

    Merging with the single voter c>a>b rules c out of f(P2); the a/b swap
    symmetry of P2 and the cyclic symmetry of P3 then force f(P2) = {a, b}
    and f(P3) = {a, b, c}, so reinforcement demands f(P2+P3) = {a, b} even
    though a is that profile's Condorcet winner.
    """
    p1 = (0, 0, 0, 0, 1, 0)  # 1cab
    p2 = (1, 0, 1, 0, 0, 0)  # 1abc + 1bac
    p3 = (1, 0, 0, 1, 1, 0)  # 1abc + 1bca + 1cab
    merged12 = combine(p1, p2)
    merged23 = combine(p2, p3)
    steps = [
        _cw_step("P1", p1, 2, "f(P1) = {c}"),
        _cw_step(
            "P1+P2", merged12, 0,
            "c in f(P2) would put c in f(P1+P2) = {a}; so c not in f(P2)",
        ),
        _fixed_step(
            "P2 swap symmetry", p2, (1, 0, 2),
            "f(P2) is a non-empty subset of {a,b} closed under the swap, so f(P2) = {a,b}",
        ),
        _fixed_step(
            "P3 cycle symmetry", p3, (1, 2, 0),
            "f(P3) is non-empty and closed under rotation, so f(P3) = {a,b,c}",
        ),
        ScriptStep(
            label="reinforcement pin",
            profiles=(p2, p3, merged23),
            principle="reinforcement",
            claim="f(P2) n f(P3) = {a,b} is non-empty, so f(P2+P3) = {a,b}",
            ok=True,
        ),
        _cw_step(
            "P2+P3", merged23, 0,
            "f(P2+P3) = {a} contradicts f(P2+P3) = {a,b}",
        ),
        ScriptStep(
            label="electorate size",
            profiles=(merged23,),
            principle="arithmetic",
            claim="P2+P3 has 5 voters",
            ok=total_voters(merged23) == 5,
        ),
    ]
    return TheoremScript(
        script_id="4.5",
        conclusion="no anonymous, neutral Condorcet extension satisfies "
        "reinforcement once 5 voters are available",
        steps=tuple(steps),
    )


_SCRIPTS = {
    "4.1": _replay_nine_voters,
    "4.3": _replay_eight_voters,
    "4.5": _replay_five_voters,
}

SCRIPT_IDS = tuple(sorted(_SCRIPTS))


def proof_replay(script_id: str) -> TheoremScript:
    """Mechanically re-check one of the built-in impossibility arguments.

    Every claimed Condorcet winner is recomputed from margins, every profile
    sum re-added, every symmetry re-applied; arguments that fix a winner "up
    to relabeling" are expanded into one sub-argument per candidate.  Only
    margin arithmetic and set logic are used — no voting rule is evaluated.
    """
    try:
        script = _SCRIPTS[script_id]
    except KeyError:
        known = ", ".join(SCRIPT_IDS)
        raise ValueError(f"unknown replay id {script_id!r} (known: {known})") from None
    return script()
