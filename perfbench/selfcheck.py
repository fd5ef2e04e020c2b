"""Harness self-check at toy bounds; finishes in well under a minute.

    python3 perfbench/selfcheck.py

Runs every workload's toy mix end to end and once traced, and checks that
the printed metrics are exactly those BENCHMARK.json lists, that the toy
outputs match their recorded digests, and that wrong exit codes, wrong
digests and unrecorded commands are each counted as a failed command.
"""

from __future__ import annotations

import json
import sys

import run
import worker
import workloads


def _problems_with_result(result: dict, specs: list[dict], what: str) -> list[str]:
    problems = []
    if set(result["metrics"]) != {s["name"] for s in specs}:
        problems.append(f"{what}: printed metrics differ from BENCHMARK.json")
    if not result["correct"] or result["failed"] or result["attempted"] < 1:
        problems.append(f"{what}: {result['failed']}/{result['attempted']} commands failed")
    return problems


def _problems_with_judging() -> list[str]:
    oracle = workloads.load_oracle()
    argv = workloads.TOY["figure4"][0]
    code, stdout, _ = worker._run_cli(argv)
    tally = run.Tally()
    tally.add(argv, workloads.judge(argv, code, stdout, oracle))
    tally.add(argv, workloads.judge(argv, code + 1, stdout, oracle))
    tally.add(argv, workloads.judge(argv, code, stdout + "\n", oracle))
    tally.add(["figure4", "--max-n", "4"], workloads.judge(["figure4", "--max-n", "4"], 0, "", oracle))
    if (tally.attempted, tally.failed) != (4, 3):
        return [f"judging counted {tally.failed}/{tally.attempted} failures, expected 3/4: "
                f"{tally.reasons}"]
    return []


def main() -> int:
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    problems = _problems_with_judging()
    for workload in workloads.WORKLOADS:
        result = run.run(workload, seed=0, seconds=1, trace=False, toy=True)
        problems += _problems_with_result(result, spec["end_to_end"], workload)
    result = run.run("figure4", seed=0, seconds=1, trace=True, toy=True)
    problems += _problems_with_result(result, spec["per_layer"], "traced run")
    for problem in problems:
        print(f"selfcheck: {problem}", file=sys.stderr)
    print("selfcheck " + ("FAILED" if problems else "ok"))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
