"""trivote benchmark: end-to-end runs of the CLI workloads, or one traced run.

    python3 perfbench/run.py --workload figure4 --seed 1 --seconds 60 --trace 0

With ``--trace 0`` the workload's commands run again and again, each pass in
a fresh interpreter, for ``--seconds`` seconds; the run reports the median
set-up time and peak RSS, and the upper quartile of the passes' wall and CPU
times (README.md, "Stability", says why).  With ``--trace 1`` every
workload runs three times, untraced, timed and counting (see tracing.py),
followed by the untraced microbenchmarks, and the run reports the per-layer
metrics listed in BENCHMARK.json.  Each command's exit code and stdout
digest are checked; a mismatch is a failed operation.  The last line of
stdout is one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from importlib import metadata
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

import workloads  # noqa: E402
from tracing import INSTANCE_SOURCES  # noqa: E402

#: One thread everywhere: trivote's own pool and numpy's BLAS pools, and a
#: fixed string hash so that set and dict layouts repeat run to run.
ENV_PIN = {
    "TRIVOTE_WORKERS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "OMP_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "PYTHONHASHSEED": "0",
}

SETUP_PROBES = 2
MIN_PASSES = 3
#: a hung worker is killed so that the whole run ends within this many seconds
RUN_LIMIT_S = 170

#: roles of the first three satgen commands
SATGEN_LABELS = ("b8", "b5", "b5n")


def _now() -> float:
    return time.clock_gettime(time.CLOCK_MONOTONIC)


_DEADLINE = _now() + RUN_LIMIT_S


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


class WorkerFailed(RuntimeError):
    pass


def spawn(*args: str) -> dict:
    """Run worker.py in a fresh interpreter and return its JSON report."""
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    env.update(ENV_PIN)
    start = _now()
    proc = subprocess.run(
        [sys.executable, str(HERE / "worker.py"), *args],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=max(1.0, _DEADLINE - start),
    )
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise WorkerFailed(f"worker {' '.join(args)} exited {proc.returncode}: {proc.stderr[-2000:]}")
    report = json.loads(lines[-1])
    report["setup_s"] = report["ready"] - start
    return report


class Tally:
    """Commands attempted and failed, with the first few reasons."""

    def __init__(self) -> None:
        self.attempted = self.failed = 0
        self.reasons: list[str] = []

    def add(self, argv: list[str], reason: str | None) -> None:
        self.attempted += 1
        if reason:
            self.failed += 1
            if len(self.reasons) < 10:
                self.reasons.append(f"{workloads.command_key(argv)}: {reason}")

    def run_pass(self, workload: str, toy: bool, trace: str | None = None) -> dict | None:
        args = ["pass", workload] + ["--toy"] * toy + ["--trace", trace] * bool(trace)
        try:
            report = spawn(*args)
        except (WorkerFailed, subprocess.TimeoutExpired, ValueError) as exc:
            for argv in (workloads.TOY if toy else workloads.WORKLOADS)[workload]:
                self.add(argv, f"pass failed: {str(exc)[-300:]}")
            return None
        for command in report["commands"]:
            self.add(command["argv"], command["error"])
        return report


# ---------------------------------------------------------------------------
# end-to-end run
# ---------------------------------------------------------------------------


def upper_quartile(values: list[float]) -> float:
    """The third quartile; this host's fast spells move it less than the median."""
    return statistics.quantiles(values, n=4)[2] if len(values) > 1 else values[0]


def measure_end_to_end(workload: str, seconds: float, tally: Tally, toy: bool = False) -> dict:
    start = _now()
    spawn("setup")  # untimed: lets the bytecode cache fill
    setups = [spawn("setup")["setup_s"] for _ in range(SETUP_PROBES)]
    passes, durations = [], []
    while True:
        began = _now()
        report = tally.run_pass(workload, toy)
        durations.append(_now() - began)
        if report:
            passes.append(report)
            setups.append(report["setup_s"])
        # stop when the next pass would likely end after the deadline
        elapsed = _now() - start
        if len(durations) >= MIN_PASSES and elapsed + statistics.median(durations) > seconds:
            break
    if not passes:
        raise WorkerFailed(f"every {workload} pass failed: {tally.reasons[:1]}")
    print(f"{workload}: {len(setups)} set-up samples; wall_s of {len(passes)} passes: "
          + " ".join(f"{p['wall_s']:.3f}" for p in passes))
    return {
        "setup_s": statistics.median(setups),
        "wall_s": upper_quartile([p["wall_s"] for p in passes]),
        "cpu_s": upper_quartile([p["cpu_s"] for p in passes]),
        "peak_rss_mb": statistics.median(p["peak_rss_mb"] for p in passes),
    }


# ---------------------------------------------------------------------------
# traced run
# ---------------------------------------------------------------------------


def _spans(command: dict) -> dict:
    return command.get("trace", {}).get("spans", {})


def _total(commands: list[dict], name: str, field: int = 1) -> float:
    return sum(_spans(c).get(name, (0, 0.0, 0.0))[field] for c in commands)


def _self_s(commands: list[dict], prefix: str) -> float:
    return sum(e[1] - e[2] for c in commands for n, e in _spans(c).items() if n.startswith(prefix))


def _sampled_s(commands: list[dict], layer: str) -> float:
    """Each command's wall time times the share of its CPU samples taken in ``layer``."""
    total = 0.0
    for command in commands:
        samples = command["trace"]["samples"]
        total += command["wall_s"] * _ratio(samples.get(layer, 0), sum(samples.values()))
    return total


# Each function below gets the workload's three passes: untraced, timed
# (entry-point spans and CPU samples) and counting (every span and counter).
# Times come from the first two, counts from the third.


def _figure4_metrics(untraced: list[dict], timed: list[dict], counted: list[dict]) -> dict:
    rules = workloads.FIGURE4_RULES.split(",")
    return {
        **{f"enumeration.irresoluteness.s.{r}": _total(timed, f"enumeration.irresoluteness.{r}")
           for r in rules},
        "rules.evaluate_uncached.calls.figure4": _total(counted, "rules.evaluate_uncached", 0),
    }


def _verify_metrics(untraced: list[dict], timed: list[dict], counted: list[dict]) -> dict:
    metrics = {}
    for plain, command in zip(untraced, counted):
        argv = command["argv"]
        check = f"{argv[argv.index('--rule') + 1]}_{argv[argv.index('--axiom') + 1]}"
        span = next((n for n in _spans(command) if n in INSTANCE_SOURCES), None)
        instances = command["trace"]["items"].get(INSTANCE_SOURCES.get(span), 0)
        metrics[f"axioms.{check}.s"] = plain["wall_s"]
        metrics[f"axioms.{check}.instances"] = instances
        metrics[f"axioms.{check}.instances_per_s"] = _ratio(instances, plain["wall_s"])
    calls = _total(counted, "rules.evaluate", 0)
    misses = _total(counted, "rules.evaluate_uncached", 0)
    metrics.update({
        "axioms.self_s": _sampled_s(timed, "axioms"),
        "rules.evaluate.calls.verify": calls,
        "rules.evaluate_uncached.calls.verify": misses,
        "rules.evaluate.hit_ratio.verify": 1 - _ratio(misses, calls),
    })
    return metrics


def _satgen_metrics(untraced: list[dict], timed: list[dict], counted: list[dict]) -> dict:
    metrics = {}
    for label, command in zip(SATGEN_LABELS, timed):
        metrics[f"satgen.build_instance.s.{label}"] = _total([command], "satgen.build_instance")
    big = timed[0]
    build_s = metrics["satgen.build_instance.s.b8"]
    metrics.update({
        "satgen.build_instance.clauses_per_s.b8": _ratio((big["cnf"] or (0, 0))[1], build_s),
        "satgen.build_instance.alloc_peak_mb.b8": big["trace"]["alloc_peak_mb"],
        "satgen.dimacs_text.mb_per_s": _ratio(big["stdout_mb"], _total([big], "satgen.dimacs_text")),
        "satgen.solve_naive.s.b5": _total(timed[1:2], "satgen.solve_naive"),
        "satgen.solve_naive.s.b5n": _total(timed[2:3], "satgen.solve_naive"),
        "satgen.proof_replay.s": _total(timed, "satgen.proof_replay"),
    })
    return metrics


LAYER_METRICS = {"figure4": _figure4_metrics, "verify": _verify_metrics, "satgen": _satgen_metrics}


def measure_layers(seed: int, tally: Tally, toy: bool = False) -> dict:
    metrics, import_s = {}, []
    for workload, layer_metrics in LAYER_METRICS.items():
        passes = [tally.run_pass(workload, toy, trace) for trace in (None, "time", "count")]
        if not all(passes):
            raise WorkerFailed(f"{workload} pass failed: {tally.reasons[-1:]}")
        untraced, timed, counted = passes
        import_s.append(untraced["import_s"])
        metrics.update(layer_metrics(untraced["commands"], timed["commands"], counted["commands"]))
        metrics[f"core.margins.calls.{workload}"] = _total(counted["commands"], "core.margins", 0)
        metrics[f"cli.main.self_s.{workload}"] = _self_s(timed["commands"], "cli.main")
        metrics[f"trace.overhead_ratio.{workload}"] = counted["wall_s"] / untraced["wall_s"]
        metrics[f"trace.timing_overhead_ratio.{workload}"] = timed["wall_s"] / untraced["wall_s"]
    metrics["cli.import_s"] = statistics.median(import_s)
    metrics.update(spawn("micro", "--seed", str(seed), *["--toy"] * toy)["metrics"])
    return metrics


# ---------------------------------------------------------------------------
# machine record and host probe (diagnostics, never gated on)
# ---------------------------------------------------------------------------


def _git_commit() -> str:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return "unknown (not a git checkout)"
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    loose = ROOT / ".git" / name
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    for line in packed.read_text().splitlines() if packed.is_file() else ():
        if line.endswith(" " + name):
            return line.split()[0]
    return f"unknown ({name})"


def machine_record() -> dict:
    model = "unknown"
    with open("/proc/cpuinfo") as handle:
        for line in handle:
            if line.startswith("model name"):
                model = line.split(":", 1)[1].strip()
                break
    try:
        numpy_version = metadata.version("numpy")
    except metadata.PackageNotFoundError:
        numpy_version = "missing"
    return {
        "cpu": model,
        "nproc": os.cpu_count(),
        "affinity": sorted(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy_version,
        "commit": _git_commit(),
        "env": ENV_PIN,
    }


def host_probe() -> dict:
    """A short pure-Python reference loop and the cumulative CPU steal time."""
    start = time.perf_counter()
    total = 0
    for i in range(300_000):
        total += i
    loop_s = time.perf_counter() - start
    with open("/proc/stat") as handle:
        fields = handle.readline().split()
    steal = int(fields[8]) if len(fields) > 8 else 0
    return {"ref_loop_s": loop_s, "steal_s": steal / os.sysconf("SC_CLK_TCK")}


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------


def result_line(values: dict, specs: list[dict], tally: Tally) -> dict:
    missing = [s["name"] for s in specs if s["name"] not in values]
    if missing:
        raise WorkerFailed(f"metrics not measured: {missing}")
    return {
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {s["name"]: {"value": values[s["name"]], "unit": s["unit"]} for s in specs},
    }


def run(workload: str, seed: int, seconds: float, trace: bool, toy: bool = False) -> dict:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    tally = Tally()
    print("machine: " + json.dumps(machine_record()))
    before = host_probe()
    if trace:
        values, specs = measure_layers(seed, tally, toy), spec["per_layer"]
    else:
        values, specs = measure_end_to_end(workload, seconds, tally, toy), spec["end_to_end"]
    after = host_probe()
    print(f"host probe: ref_loop_s before={before['ref_loop_s']:.4f} after={after['ref_loop_s']:.4f}"
          f" steal_s={after['steal_s'] - before['steal_s']:.2f}")
    result = result_line(values, specs, tally)
    label = "layers" if trace else workload
    for name, metric in result["metrics"].items():
        print(f"{label} {name} = {metric['value']:.6g} {metric['unit']}")
    print(f"{label} ops_failed_ratio = {_ratio(tally.failed, tally.attempted):.6g} ratio"
          f" ({tally.failed}/{tally.attempted})")
    for reason in tally.reasons:
        print(f"failed: {reason}", file=sys.stderr)
    return result


def main() -> int:
    parser = argparse.ArgumentParser(description="trivote CLI benchmark")
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=0, help="draws the microbenchmark profile sample")
    parser.add_argument("--seconds", type=float, default=60.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (ROOT / "src" / "trivote" / "cli.py").is_file():
        print(f"no trivote sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    try:
        result = run(args.workload, args.seed, args.seconds, bool(args.trace))
    except (WorkerFailed, subprocess.TimeoutExpired) as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
