"""Record the exit code and stdout digest of every benchmark command.

    python3 perfbench/record_oracle.py

Run it on the commit whose outputs are the reference (the outputs are part
of trivote's contract, so they should never need re-recording).  Before
writing ``oracle.json`` it checks the fresh outputs against data frozen
elsewhere in the repository, and writes nothing if any check fails.  A
benchmark run then only compares exit codes and digests: an output that
differs from a checked one in any byte fails.
"""

from __future__ import annotations

import ast
import json
import os
import sys

os.environ["TRIVOTE_WORKERS"] = "1"

import worker  # noqa: E402  (imports trivote from this checkout's src/)
import workloads  # noqa: E402

#: ROADMAP.md baseline table: the size of build_instance(8)
SATGEN_B8_HEADER = (69093, 730412)


def published_fractions() -> dict[str, dict[int, str]]:
    """Acceptance criterion 10's published fractions, by rule and n."""
    source = (worker.ROOT / "tests" / "test_acceptance.py").read_text()
    for node in ast.parse(source).body:
        if isinstance(node, ast.Assign) and getattr(node.targets[0], "id", "") == "PUBLISHED_FRACTIONS":
            return ast.literal_eval(node.value)
    raise LookupError("tests/test_acceptance.py has no PUBLISHED_FRACTIONS")


def _check_figure4(stdout: str, published: dict) -> str | None:
    for line in stdout.splitlines()[1:]:
        n, rule, _, _, fraction = line.split(",")
        expected = published.get(rule, {}).get(int(n))
        if expected is not None and abs(float(fraction) - float(expected)) > 1e-4:
            return f"figure4 {rule} n={n}: {fraction} is not the published {expected}"
    return None


def _check_satgen(argv: list[str], stdout: str) -> str | None:
    if argv[argv.index("--bound") + 1] == "8" and workloads.cnf_header(stdout) != SATGEN_B8_HEADER:
        return f"satgen header is not {SATGEN_B8_HEADER[0]} vars, {SATGEN_B8_HEADER[1]} clauses"
    if "--solve" in argv:
        verdict = stdout.rstrip("\n").rsplit("\n", 1)[-1]
        expected = "unsatisfiable" if "--neutral" in argv else "satisfiable"
        if verdict != expected:
            return f"satgen solve printed {verdict!r}, expected {expected!r}"
    return None


def _check_replay(argv: list[str], stdout: str) -> str | None:
    lines = stdout.splitlines()
    if not lines or not lines[0].startswith(f"replay {argv[1]}: all steps pass"):
        return f"replay {argv[1]} does not report that all steps pass"
    if any(not line.startswith("    [ok]") for line in lines[1:] if line.startswith("    [")):
        return f"replay {argv[1]} has a failing step"
    return None


def cross_check(argv: list[str], stdout: str, published: dict) -> str | None:
    """Why an output contradicts the repository's frozen data, or None."""
    if argv[0] == "figure4":
        return _check_figure4(stdout, published)
    if argv[0] == "satgen":
        return _check_satgen(argv, stdout)
    if argv[0] == "replay":
        return _check_replay(argv, stdout)
    return None


def main() -> int:
    published = published_fractions()
    commands = [argv for table in (workloads.WORKLOADS, workloads.TOY)
                for mix in table.values() for argv in mix]
    records, failures = {}, []
    for argv in commands:
        code, stdout, error = worker._run_cli(argv)
        why = error or cross_check(argv, stdout, published)
        if why:
            failures.append(f"{workloads.command_key(argv)}: {why}")
        records[workloads.command_key(argv)] = {"exit": code, "sha256": workloads.digest(stdout)}
    for failure in failures:
        print(failure, file=sys.stderr)
    if failures:
        return 1
    oracle = {"commands": records}
    workloads.ORACLE_PATH.write_text(json.dumps(oracle, indent=1, sort_keys=True) + "\n")
    print(f"recorded {len(commands)} commands in {workloads.ORACLE_PATH.name}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
