"""Spans around calls into the repro layers, recorded from outside the package.

:class:`Tracer` wraps the layers' public functions for the length of a
``with tracer.installed():`` block and restores every original on exit,
so nothing outlives the traced run. A span is (name, start, end, parent,
phase); spans stay in memory until :meth:`Tracer.write` dumps them.

Layer names follow the package's modules:

* ``analysis.experiments`` - ``run_experiment``
* ``analysis.sweep`` - ``measure_capped`` / ``measure_greedy``
* ``engine.driver`` - ``SimulationDriver.run``
* ``core.capped`` / ``processes.greedy`` / ``processes.dchoice`` /
  ``processes.other`` - a process's ``step`` inside ``SimulationDriver.run``,
  tagged ``burn_in`` or ``measure``
* ``kernels.fused`` / ``kernels.serial`` - ``resolve_capped_round`` /
  ``resolve_capped_round_serial``

A span's self time is its duration minus its children's, so the self
times of all spans plus ``unattributed_s`` (wall time outside every root
span) add up to the wall time exactly.
"""

from __future__ import annotations

import contextlib
import gzip
import json
import sys
from collections import defaultdict
from pathlib import Path
from time import perf_counter
from typing import Any, Callable, Iterator

# Rows of the per-layer tree: (layer, depth). Every span name appears once,
# so the self times of the rows plus unattributed_s tile the wall.
TREE = (
    ("analysis.experiments", 1),
    ("analysis.sweep", 2),
    ("engine.driver", 3),
    ("core.capped", 4),
    ("processes.greedy", 4),
    ("processes.dchoice", 4),
    ("processes.other", 4),
    ("kernels.fused", 5),
    ("kernels.serial", 5),
)


class Tracer:
    """In-memory span recorder plus the wrappers that feed it."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.parents: list[int] = []
        self.phases: list[str | None] = []
        self._stack: list[int] = []

    # ------------------------------------------------------------------
    # recording
    # ------------------------------------------------------------------

    def wrap(self, name: str, fn: Callable, phase: Callable[[], str | None] = lambda: None):
        """``fn`` recording one span per call; ``phase`` tags each span."""

        def traced(*args: Any, **kwargs: Any) -> Any:
            index = len(self.names)
            self.names.append(name)
            self.parents.append(self._stack[-1] if self._stack else -1)
            self.phases.append(phase())
            self.ends.append(0.0)
            self._stack.append(index)
            self.starts.append(perf_counter())
            try:
                return fn(*args, **kwargs)
            finally:
                self.ends[index] = perf_counter()
                self._stack.pop()

        traced.__wrapped__ = fn
        return traced

    # ------------------------------------------------------------------
    # installation
    # ------------------------------------------------------------------

    @contextlib.contextmanager
    def installed(self) -> Iterator["Tracer"]:
        """Wrap the layer functions; always restore the originals on exit."""
        from repro.analysis import experiments, sweep
        from repro.core.capped import CappedProcess
        from repro.engine.driver import SimulationDriver
        from repro.kernels import round as kernel_round
        from repro.processes.capped_dchoice import CappedDChoiceProcess
        from repro.processes.greedy import GreedyBatchProcess

        def step_layer(process: Any) -> str:
            if isinstance(process, CappedProcess):
                return "core.capped"
            if isinstance(process, GreedyBatchProcess):
                return "processes.greedy"
            if isinstance(process, CappedDChoiceProcess):
                return "processes.dchoice"
            return "processes.other"

        tracer = self
        original_run = SimulationDriver.run

        def run(driver: Any, process: Any) -> Any:
            # Wrap this process's step for the run: the first ``burn_in``
            # rounds are burn-in, the rest measured.
            rounds = 0

            def phase() -> str:
                nonlocal rounds
                rounds += 1
                return "burn_in" if rounds <= driver.burn_in else "measure"

            process.step = tracer.wrap(step_layer(process), process.step, phase)
            try:
                return original_run(driver, process)
            finally:
                del process.step

        patches = [
            (original, self.wrap(name, original))
            for name, original in (
                ("analysis.experiments", experiments.run_experiment),
                ("analysis.sweep", sweep.measure_capped),
                ("analysis.sweep", sweep.measure_greedy),
                ("kernels.fused", kernel_round.resolve_capped_round),
                ("kernels.serial", kernel_round.resolve_capped_round_serial),
            )
        ]
        # Modules bind these functions by name at import, so every module
        # attribute that is the original gets the wrapper.
        restore: list[tuple[Any, str, Any]] = [(SimulationDriver, "run", original_run)]
        for module in [m for name, m in sys.modules.items() if name.startswith("repro")]:
            for attr, value in list(vars(module).items()):
                for original, wrapper in patches:
                    if value is original:
                        restore.append((module, attr, original))
                        setattr(module, attr, wrapper)
        SimulationDriver.run = self.wrap("engine.driver", run)
        try:
            yield self
        finally:
            for owner, attr, original in reversed(restore):
                setattr(owner, attr, original)

    # ------------------------------------------------------------------
    # reduction
    # ------------------------------------------------------------------

    def layers(self, wall_s: float) -> dict[str, Any]:
        """Per-layer counts, busy and self seconds for a run of ``wall_s``."""
        count: dict[str, int] = defaultdict(int)
        busy: dict[str, float] = defaultdict(float)
        self_s: dict[str, float] = defaultdict(float)
        phase_rounds: dict[str, int] = defaultdict(int)
        phase_busy: dict[str, float] = defaultdict(float)
        kernel_in_capped = 0.0
        roots = 0.0
        for i, name in enumerate(self.names):
            duration = self.ends[i] - self.starts[i]
            count[name] += 1
            busy[name] += duration
            self_s[name] += duration
            parent = self.parents[i]
            if parent < 0:
                roots += duration
            else:
                self_s[self.names[parent]] -= duration
                if self.names[parent] == "core.capped":
                    kernel_in_capped += duration
            if self.phases[i] is not None:
                phase_rounds[self.phases[i]] += 1
                phase_busy[self.phases[i]] += duration
        burn, measured = phase_rounds["burn_in"], phase_rounds["measure"]
        capped_rounds = count["core.capped"]
        metrics = {
            "kernels.fused.calls": count["kernels.fused"],
            "kernels.fused.busy_s": busy["kernels.fused"],
            "kernels.serial.calls": count["kernels.serial"],
            "kernels.serial.busy_s": busy["kernels.serial"],
            "core.capped.rounds": capped_rounds,
            "core.capped.busy_s": busy["core.capped"],
            "core.capped.self_s": busy["core.capped"] - kernel_in_capped,
            "core.capped.us_per_round": 1e6 * busy["core.capped"] / capped_rounds
            if capped_rounds
            else 0.0,
            "processes.greedy.rounds": count["processes.greedy"],
            "processes.greedy.busy_s": busy["processes.greedy"],
            "processes.dchoice.rounds": count["processes.dchoice"],
            "processes.dchoice.busy_s": busy["processes.dchoice"],
            "processes.other.busy_s": busy["processes.other"],
            "engine.driver.runs": count["engine.driver"],
            "engine.driver.self_s": self_s["engine.driver"],
            "engine.burn_in.rounds": burn,
            "engine.burn_in.busy_s": phase_busy["burn_in"],
            "engine.measure.rounds": measured,
            "engine.measure.busy_s": phase_busy["measure"],
            "engine.burn_in.share": burn / (burn + measured) if burn + measured else 0.0,
            "analysis.points": count["analysis.sweep"],
            "analysis.sweep.self_s": self_s["analysis.sweep"],
            "analysis.experiments.self_s": self_s["analysis.experiments"],
            "unattributed_s": wall_s - roots,
        }
        metrics["tree"] = {name: self_s[name] for name, _ in TREE}
        return metrics

    def write(self, path: Path) -> None:
        """Dump the spans as gzipped JSON lines (times relative to the first)."""
        origin = self.starts[0] if self.starts else 0.0
        with gzip.open(path, "wt", encoding="utf-8", compresslevel=1) as fh:
            for i, name in enumerate(self.names):
                record = {
                    "id": i,
                    "name": name,
                    "start": round(self.starts[i] - origin, 7),
                    "end": round(self.ends[i] - origin, 7),
                    "parent": self.parents[i],
                }
                if self.phases[i] is not None:
                    record["phase"] = self.phases[i]
                fh.write(json.dumps(record) + "\n")
