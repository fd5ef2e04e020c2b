"""The CLI commands each workload runs, and the check on their output.

Every workload is a list of ``trivote`` argument vectors, run in-process
through ``trivote.cli.main`` with stdout captured.  The bounds are scaled
down from full-size sweeps so that one pass takes a few seconds and a run
holds several passes; they were chosen so that each command's share of its
pass stays close to its share at full size (measured shares: README.md).
``TOY`` holds the same mixes at bounds that finish in well under a second,
for the harness self-check.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

FIGURE4_RULES = "maximin,nanson,leximin,black,baldwin,plurality,artificial"


def _verify(rule: str, axiom: str, bound: int, *extra: str) -> list[str]:
    return ["verify", "--rule", rule, "--axiom", axiom, "--bound", str(bound), *extra]


def _verify_mix(scale: dict[str, int]) -> list[list[str]]:
    return [
        _verify("borda", "reinforcement", scale["borda"]),
        _verify("maximin", "optimist_participation", scale["maximin"]),
        _verify("stable_voting", "neutrality", scale["stable_voting"]),
        _verify("copeland", "monotonicity", scale["copeland"]),
        _verify("leximin", "refinement", scale["leximin"], "--upper", "nanson"),
        _verify("black", "condorcet", scale["black"]),
        _verify("baldwin", "monotonicity", scale["baldwin"]),
    ]


def _satgen_mix(big: int) -> list[list[str]]:
    return [
        ["satgen", "--bound", str(big)],
        ["satgen", "--bound", "5", "--solve"],
        ["satgen", "--bound", "5", "--neutral", "--solve"],
        ["replay", "4.1"],
        ["replay", "4.3"],
        ["replay", "4.5"],
    ]


WORKLOADS = {
    "figure4": [["figure4", "--rules", FIGURE4_RULES, "--max-n", "30"]],
    "verify": _verify_mix(
        {"borda": 10, "maximin": 15, "stable_voting": 12, "copeland": 13,
         "leximin": 14, "black": 16, "baldwin": 10}
    ),
    "satgen": _satgen_mix(8),
}

TOY = {
    "figure4": [["figure4", "--rules", FIGURE4_RULES, "--max-n", "6"]],
    "verify": _verify_mix(dict.fromkeys(
        ("borda", "maximin", "stable_voting", "copeland", "leximin", "black", "baldwin"), 4
    )),
    "satgen": [["satgen", "--bound", "3"]] + _satgen_mix(3)[1:],
}

ORACLE_PATH = Path(__file__).with_name("oracle.json")


def command_key(argv: list[str]) -> str:
    return " ".join(argv)


def load_oracle() -> dict:
    return json.loads(ORACLE_PATH.read_text())


def digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def cnf_header(stdout: str) -> tuple[int, int] | None:
    """(variables, clauses) from the DIMACS problem line, if there is one."""
    start = stdout.find("\np cnf ")
    if start < 0:
        return None
    _, _, num_vars, num_clauses = stdout[start + 1 : stdout.index("\n", start + 1)].split()
    return int(num_vars), int(num_clauses)


def judge(argv: list[str], exit_code: int | None, stdout: str, oracle: dict) -> str | None:
    """Why a command's result is wrong, or None when it matches the records."""
    record = oracle["commands"].get(command_key(argv))
    if record is None:
        return "no recorded output for this command"
    if exit_code != record["exit"]:
        return f"exit code {exit_code}, recorded {record['exit']}"
    if digest(stdout) != record["sha256"]:
        return "stdout digest differs from the recorded one"
    return None
