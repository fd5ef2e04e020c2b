"""One fresh-interpreter measurement, printed as a JSON line on stdout.

    python3 perfbench/worker.py setup
    python3 perfbench/worker.py pass WORKLOAD [--toy] [--trace time|count]
    python3 perfbench/worker.py micro --seed N [--toy]

``setup`` only imports ``trivote.cli``; ``pass`` runs a workload's commands
through ``trivote.cli.main`` with stdout captured and judges each command
against the recorded outputs, optionally under a ``time`` or ``count``
tracer (see tracing.py); ``micro`` times single calls into each layer on a
profile sample drawn from the seed.  Every mode reports the monotonic clock
reading taken right after the import, from which the parent derives the
set-up time.  The parent process sets the environment (one worker thread).
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import random
import resource
import statistics
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

_import_start = time.perf_counter()
import trivote.cli  # noqa: E402

IMPORT_S = time.perf_counter() - _import_start
READY = time.clock_gettime(time.CLOCK_MONOTONIC)

import workloads  # noqa: E402
from tracing import Tracer  # noqa: E402


def _run_cli(argv: list[str]) -> tuple[int | None, str, str | None]:
    out, err = io.StringIO(), io.StringIO()
    error = None
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = trivote.cli.main(argv)
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else 2
        except Exception:  # a crash is a failed command, reported, never retried
            code, error = None, traceback.format_exc(limit=3)
    return code, out.getvalue(), error


def run_pass(name: str, toy: bool, trace: str | None) -> dict:
    commands = (workloads.TOY if toy else workloads.WORKLOADS)[name]
    oracle = workloads.load_oracle()
    tracer = Tracer(counting=trace == "count") if trace else None
    run = _run_cli
    if tracer:
        tracer.install()
        run = tracer.wrap(_run_cli, "cli.main")
    wall = cpu = 0.0
    results = []
    for argv in commands:
        if tracer:
            tracer.reset()
        wall0, cpu0 = time.perf_counter(), time.process_time()
        code, stdout, error = run(argv)
        command_wall = time.perf_counter() - wall0
        wall += command_wall
        cpu += time.process_time() - cpu0
        result = {
            "argv": argv,
            "wall_s": command_wall,
            "exit": code,
            "error": error or workloads.judge(argv, code, stdout, oracle),
            "stdout_mb": len(stdout) / 1e6,
            "cnf": workloads.cnf_header(stdout),
        }
        if tracer:
            result["trace"] = tracer.snapshot()
        results.append(result)
    if tracer and not tracer.counting:
        tracer.uninstall_sampler()
    return {
        "wall_s": wall,
        "cpu_s": cpu,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "commands": results,
    }


# ---------------------------------------------------------------------------
# microbenchmarks (untraced)
# ---------------------------------------------------------------------------

#: every rule the workloads evaluate
RULES = ("maximin", "nanson", "leximin", "black", "baldwin", "plurality",
         "artificial", "borda", "stable_voting", "copeland")

#: the four counting paths of ``irresoluteness``, one rule each
COUNTING_PATHS = {"kernel": "maximin", "table": "baldwin",
                  "positional": "plurality", "artificial": "artificial"}


def _sample_profiles(seed: int, size: int, max_n: int) -> list[tuple[int, ...]]:
    rng = random.Random(seed)
    sample = []
    for _ in range(size):
        n = rng.randint(1, max_n)
        cuts = sorted(rng.randint(0, n) for _ in range(5))
        bounds = [0, *cuts, n]
        sample.append(tuple(hi - lo for lo, hi in zip(bounds, bounds[1:])))
    return sample


def _us_per_call(call, inputs, repeats: int) -> float:
    times = []
    for _ in range(repeats):
        start = time.perf_counter()
        for item in inputs:
            call(item)
        times.append(time.perf_counter() - start)
    return statistics.median(times) / len(inputs) * 1e6


def _seconds(call) -> float:
    start = time.perf_counter()
    call()
    return time.perf_counter() - start


def run_micro(seed: int, toy: bool) -> dict:
    from trivote import core, enumeration, rules

    repeats, n_count, n_cursor = (1, 8, 8) if toy else (5, 36, 24)
    sample = _sample_profiles(seed, 400, 30)
    sample_margins = [core.margins(p) for p in sample]
    metrics = {
        "core.margins.us_per_call": _us_per_call(core.margins, sample, repeats),
        "core.classify.us_per_call": _us_per_call(core.classify, sample_margins, repeats),
        "core.mcgarvey.us_per_call": _us_per_call(
            core.mcgarvey, [m for m in sample_margins if any(m)], repeats),
    }
    for rule in RULES:
        metrics[f"rules.evaluate_uncached.us_per_call.{rule}"] = _us_per_call(
            lambda p: rules.evaluate_uncached(rule, p), sample, repeats)
    for p in sample:
        rules.evaluate("maximin", p)
    metrics["rules.evaluate.us_per_hit"] = _us_per_call(
        lambda p: rules.evaluate("maximin", p), sample, repeats)

    total = enumeration.profile_count(n_count)
    single = {}
    for path, rule in COUNTING_PATHS.items():
        single[rule] = _seconds(lambda: enumeration.irresoluteness(rule, n_count, workers=1))
        metrics[f"enumeration.irresoluteness.profiles_per_s.{path}"] = total / single[rule]
    cursor = enumeration.ProfileCursor(n_cursor)
    metrics["enumeration.profile_cursor.profiles_per_s"] = statistics.median(
        len(cursor) / _seconds(lambda: sum(1 for _ in cursor)) for _ in range(repeats))
    # The pool is never wider than the CPUs this process may run on.
    pool = min(2, len(os.sched_getaffinity(0)))
    pooled = _seconds(lambda: enumeration.irresoluteness("baldwin", n_count, workers=pool))
    metrics["enumeration.irresoluteness.pool_ratio"] = pooled / single["baldwin"]
    return {"metrics": metrics}


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("mode", choices=("setup", "pass", "micro"))
    parser.add_argument("workload", nargs="?", choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--toy", action="store_true")
    parser.add_argument("--trace", choices=("time", "count"))
    args = parser.parse_args()
    report = {"ready": READY, "import_s": IMPORT_S}
    if args.mode == "pass":
        report.update(run_pass(args.workload, args.toy, args.trace))
    elif args.mode == "micro":
        report.update(run_micro(args.seed, args.toy))
    print(json.dumps(report))


if __name__ == "__main__":
    main()
