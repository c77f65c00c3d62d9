"""Per-layer spans recorded from outside the package.

``Tracer.install`` replaces the entry points of each efsim module with timing
wrappers, in every efsim namespace that holds a reference to them (so
``experiments.run`` and ``harness.run`` are the same span), and
``Tracer.uninstall`` puts the originals back.  Spans nest: a span's self time
is its duration minus the durations of the wrapped calls made inside it.
Time spent in the wrappers' own bookkeeping lands in the caller's self time
and is part of the tracing overhead.
"""

from __future__ import annotations

import functools
import os
import sys
import time
from array import array
from collections import defaultdict

# counters that must repeat exactly between two traced passes of one seed
EXACT_COUNTERS = (
    "optim.node_rounds",
    "compress.coords_sent",
    "harness.io.bytes",
    "harness.sweep.diverged_points",
    "experiments.tune_runs",
    "experiments.final_runs",
)


class Tracer:
    def __init__(self):
        self.calls: dict[str, int] = defaultdict(int)
        self.self_s: dict[str, float] = defaultdict(float)
        self.total_s: dict[str, float] = defaultdict(float)
        self.counters: dict[str, int] = defaultdict(int)
        self.coords_offered = 0
        self.round_us = array("d")
        self._stack: list[list] = []  # [name, child seconds] per open span
        self._patches: list[tuple[object, str, object]] = []

    # -- installation ---------------------------------------------------

    def _targets(self):
        import efsim.core
        import efsim.experiments
        import efsim.harness
        import efsim.optim
        import efsim.problems
        from efsim.compress import compress

        yield efsim.core.StreamFactory, "stream", "core.stream", None
        problem_classes = [
            c
            for c in vars(efsim.problems).values()
            if isinstance(c, type) and issubclass(c, efsim.problems.Problem) and c is not efsim.problems.Problem
        ]
        for cls in problem_classes:
            for meth in ("stoch_grad", "stoch_grad_pair", "full_grad", "value"):
                if meth in vars(cls):
                    yield cls, meth, f"problems.{meth}", None
        yield compress, None, "compress.compress", self._on_compress
        yield efsim.optim.run_round, None, "optim.run_round", self._on_round
        yield efsim.optim.init, None, "optim.init", None
        yield efsim.harness.run, None, "harness.run", self._on_run
        yield efsim.harness._measure, None, "harness.measure", None
        yield efsim.harness.sweep, None, "harness.sweep", self._on_sweep
        yield efsim.harness.write_trace_csv, None, "harness.io", self._on_io
        yield efsim.harness.write_quantiles_csv, None, "harness.io", self._on_io
        yield efsim.experiments.run_experiment, None, "experiments.run_experiment", None

    def install(self) -> None:
        """Wrap every target; a module-level function is replaced wherever
        an efsim module refers to it, a method on its class."""
        targets = list(self._targets())  # imports every traced module first
        modules = [m for name, m in list(sys.modules.items()) if name == "efsim" or name.startswith("efsim.")]
        for owner, attr, name, hook in targets:
            if attr is not None:  # method on a class
                original = vars(owner)[attr]
                self._patch(owner, attr, original, self._wrap(original, name, hook))
                continue
            wrapper = self._wrap(owner, name, hook)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is owner:
                        self._patch(mod, key, owner, wrapper)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def _patch(self, owner, attr, original, wrapper) -> None:
        self._patches.append((owner, attr, original))
        setattr(owner, attr, wrapper)

    def _wrap(self, fn, name: str, hook):
        stack = self._stack
        calls, self_s, total_s = self.calls, self.self_s, self.total_s
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            frame = [name, 0.0]
            stack.append(frame)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                dur = clock() - t0
                stack.pop()
                calls[name] += 1
                self_s[name] += dur - frame[1]
                total_s[name] += dur
                if stack:
                    stack[-1][1] += dur
            if hook is not None:
                hook(args, result, dur)
            return result

        return wrapper

    # -- hooks (run after a call returns normally) ------------------------

    def _on_compress(self, args, result, dur) -> None:
        self.counters["compress.coords_sent"] += len(result.indices)
        self.coords_offered += args[0].dim

    def _on_round(self, args, result, dur) -> None:
        self.counters["optim.node_rounds"] += len(args[2])
        self.round_us.append(dur * 1e6)

    def _on_run(self, args, result, dur) -> None:
        in_sweep = any(frame[0] == "harness.sweep" for frame in self._stack)
        self.counters["experiments.tune_runs" if in_sweep else "experiments.final_runs"] += 1

    def _on_sweep(self, args, result, dur) -> None:
        self.counters["harness.sweep.diverged_points"] += sum(bool(row["diverged"]) for row in result.table)

    def _on_io(self, args, result, dur) -> None:
        self.counters["harness.io.bytes"] += os.path.getsize(args[0])

    # -- results ----------------------------------------------------------

    def exact_counts(self) -> dict[str, int]:
        """Every value that must repeat exactly for the same code and seed."""
        out = {f"{name}.calls": n for name, n in sorted(self.calls.items())}
        out.update({name: self.counters[name] for name in EXACT_COUNTERS})
        return out


def percentile(sorted_values, q: float) -> float:
    """Nearest-rank percentile of an ascending sequence."""
    if not sorted_values:
        return 0.0
    rank = max(1, -(-len(sorted_values) * q // 100))
    return float(sorted_values[int(rank) - 1])
