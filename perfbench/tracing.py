"""Spans, counters and a CPU sampler installed around trivote's layer boundaries.

Nothing here changes trivote's source: ``Tracer.install`` replaces selected
module globals with timing wrappers, in every loaded ``trivote`` module that
binds the same function object (so ``from .core import margins`` copies and
aliases such as ``axioms._f`` are covered too).  A name the program no longer
has is skipped, so the traced run survives refactors and reports zero for
what it cannot see.

A tracer works at one of two levels.  ``Tracer(counting=False)`` wraps only
the layers' entry points, which run a handful of times per command, and
samples the CPU: its times are close to untraced ones.  ``Tracer(counting=True)``
also wraps the hot per-profile calls of ``core`` and ``rules`` and counts the
items the axiom checkers' instance generators yield; those wrappers cost
more than the ~0.5 us cache hits they time, so only its counts are used.

Each span records calls, total time and the time covered by nested spans;
self time is the difference.
"""

from __future__ import annotations

import functools
import resource
import signal
import sys
import time

#: (module, attribute, span name) of the entry points, each called a few
#: times per command; the span name's prefix is its layer
ENTRY_SPANS = (
    ("enumeration", "irresoluteness", "enumeration.irresoluteness"),
    ("axioms", "check_reinforcement", "axioms.check_reinforcement"),
    ("axioms", "check_participation", "axioms.check_participation"),
    ("axioms", "check_responsiveness", "axioms.check_responsiveness"),
    ("axioms", "check_neutrality", "axioms.check_neutrality"),
    ("axioms", "check_refinement", "axioms.check_refinement"),
    ("axioms", "check_condorcet", "axioms.check_condorcet"),
    ("satgen", "build_instance", "satgen.build_instance"),
    ("satgen", "dimacs_text", "satgen.dimacs_text"),
    ("satgen", "solve_naive", "satgen.solve_naive"),
    ("satgen", "proof_replay", "satgen.proof_replay"),
)

#: the per-profile calls, wrapped only when counting
HOT_SPANS = (
    ("core", "margins", "core.margins"),
    ("core", "classify", "core.classify"),
    ("core", "mcgarvey", "core.mcgarvey"),
    ("rules", "evaluate", "rules.evaluate"),
    ("rules", "evaluate_uncached", "rules.evaluate_uncached"),
)

#: spans split per rule id (their first argument)
PER_RULE = {"enumeration.irresoluteness"}

#: axiom checker span -> the generator whose items are its instances
INSTANCE_SOURCES = {
    "axioms.check_reinforcement": "_profile_pairs",
    "axioms.check_participation": "_removal_instances",
    "axioms.check_responsiveness": "_single_swaps",
    "axioms.check_neutrality": "profiles_up_to",
    "axioms.check_refinement": "profiles_up_to",
    "axioms.check_condorcet": "profiles_up_to",
}

#: CPU time between two samples (the kernel may round it up to its tick)
SAMPLE_INTERVAL_S = 0.001


def _rss_mb() -> float:
    with open("/proc/self/statm") as handle:
        pages = int(handle.read().split()[1])
    return pages * resource.getpagesize() / 2**20


def _maxrss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


class Tracer:
    """Per-command span statistics (name -> [calls, total_s, nested_s]),
    item counts, and CPU samples by the layer of the innermost trivote frame."""

    def __init__(self, counting: bool) -> None:
        self.counting = counting
        self.spans: dict[str, list] = {}
        self.items: dict[str, list] = {}
        self.samples: dict[str, int] = {}
        self.alloc_peak_mb = 0.0
        self._stack = [0.0]

    def reset(self) -> None:
        for entry in self.spans.values():
            entry[:] = [0, 0.0, 0.0]
        for cell in self.items.values():
            cell[0] = 0
        self.samples.clear()
        self.alloc_peak_mb = 0.0

    def snapshot(self) -> dict:
        return {
            "spans": {name: list(e) for name, e in self.spans.items() if e[0]},
            "items": {name: cell[0] for name, cell in self.items.items()},
            "samples": dict(self.samples),
            "alloc_peak_mb": self.alloc_peak_mb,
        }

    def _entry(self, name: str) -> list:
        return self.spans.setdefault(name, [0, 0.0, 0.0])

    def wrap(self, fn, name: str):
        stack, clock = self._stack, time.perf_counter
        fixed = None if name in PER_RULE else self._entry(name)
        memory = name == "satgen.build_instance"

        @functools.wraps(fn)
        def span(*args, **kwargs):
            entry = fixed or self._entry(f"{name}.{args[0]}")
            if memory:
                rss_before = _rss_mb()
            stack.append(0.0)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                nested = stack.pop()
                stack[-1] += elapsed
                entry[0] += 1
                entry[1] += elapsed
                entry[2] += nested
                if memory:
                    self.alloc_peak_mb = max(self.alloc_peak_mb, _maxrss_mb() - rss_before)

        return span

    def _count(self, fn, name: str):
        cell = self.items.setdefault(name, [0])

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            for item in fn(*args, **kwargs):
                cell[0] += 1
                yield item

        return counted

    def _sample(self, signum, frame) -> None:
        while frame is not None:
            module = frame.f_globals.get("__name__", "")
            if module.startswith("trivote."):
                layer = module.split(".")[1]
                break
            frame = frame.f_back
        else:
            layer = "other"
        self.samples[layer] = self.samples.get(layer, 0) + 1

    def install(self) -> None:
        modules = [m for key, m in sys.modules.items() if key.startswith("trivote")]
        replacements = {}
        for module_name, attribute, span_name in ENTRY_SPANS + (HOT_SPANS if self.counting else ()):
            original = getattr(sys.modules.get(f"trivote.{module_name}"), attribute, None)
            if original is not None:
                replacements[id(original)] = self.wrap(original, span_name)
        for module in modules:
            for key, value in list(vars(module).items()):
                if id(value) in replacements:
                    setattr(module, key, replacements[id(value)])
        if not self.counting:
            signal.signal(signal.SIGPROF, self._sample)
            signal.setitimer(signal.ITIMER_PROF, SAMPLE_INTERVAL_S, SAMPLE_INTERVAL_S)
            return
        # instance counters only in the checkers' own namespace
        axioms = sys.modules.get("trivote.axioms")
        for source in sorted(set(INSTANCE_SOURCES.values())):
            original = getattr(axioms, source, None)
            if original is not None:
                setattr(axioms, source, self._count(original, source))

    def uninstall_sampler(self) -> None:
        signal.setitimer(signal.ITIMER_PROF, 0, 0)
