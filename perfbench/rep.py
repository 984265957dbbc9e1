"""One repetition of a perfbench workload, in a fresh interpreter.

``run.py`` starts this script once per repetition so that no repetition
inherits another's warm caches, and so that the wrappers of a traced
repetition die with its process::

    PYTHONPATH=src python3 perfbench/rep.py quick_serial --seed 20210701 \
        --out .perfbench-out/quick_serial/rep-0 [--trace] [--broker HOST:PORT]

It writes each experiment's CSV into ``--out`` exactly as
``repro experiments --csv-dir`` does, and prints one JSON object as its last
line: the wall time from submitting the workload to having every result
and CSV, the import time, the CPU time, per-experiment outcomes, and the
per-layer numbers.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import json
import resource
import sys
from pathlib import Path
from time import perf_counter

from tracer import Tracer

SLOTS = 2  # pool processes for quick_jobs2, workers for quick_broker
TINY = {"n": 2**7, "measure": 20}  # the self-tests' profile


def cpu_seconds() -> float:
    """CPU seconds of this process and its reaped children."""
    total = 0.0
    for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN):
        usage = resource.getrusage(who)
        total += usage.ru_utime + usage.ru_stime
    return total


def make_profile(experiments, workload: str, seed: int, tiny: bool):
    base = experiments.PROFILES["paper" if workload == "paper_fig4" else "quick"]
    if tiny:
        base = dataclasses.replace(base, name="tiny", **TINY)
    return dataclasses.replace(base, seed=seed)


def outcome(result) -> dict:
    return {"verdicts_failed": sorted(name for name, ok in result.verdicts.items() if not ok)}


def write_csv(out: Path, result) -> None:
    (out / f"{result.experiment_id}.csv").write_text(result.csv() + "\n", encoding="utf-8")


def run_serial(experiments, ids, profile, out: Path) -> tuple[float, dict]:
    """The CLI's default path: every experiment in turn, in this process."""
    outcomes = {}
    started = perf_counter()
    for experiment_id in ids:
        try:
            # Looked up on the module so that a traced run's wrapper applies.
            result = experiments.run_experiment(experiment_id, profile)
        except Exception as err:  # an operation that raises is a failed one
            outcomes[experiment_id] = {"error": f"{type(err).__name__}: {err}"}
            continue
        write_csv(out, result)
        outcomes[experiment_id] = outcome(result)
    return perf_counter() - started, outcomes


def run_runner(runner, ids, profile, out: Path, broker: str | None) -> tuple[float, dict, dict]:
    """The sweep through ``run_experiments``: a process pool, or a broker."""
    started = perf_counter()
    if broker is None:
        report = runner.run_experiments(ids, profile, jobs=SLOTS)
    else:
        report = runner.run_experiments(ids, profile, broker=broker)
    outcomes = {}
    for result in report.results:
        write_csv(out, result)
        outcomes[result.experiment_id] = outcome(result)
    for experiment_id, error in report.failures.items():
        outcomes[experiment_id] = {"error": error}
    wall = perf_counter() - started

    discover = report.timings.by_group.get("discover", [])
    tasks = sorted(
        seconds
        for group, values in report.timings.by_group.items()
        if group != "discover"
        for seconds in values
    )
    busy = sum(discover) + sum(tasks)
    layers = {
        "parallel.tasks": report.tasks_total,
        "parallel.tasks_retried": report.tasks_retried,
        "parallel.tasks_quarantined": report.tasks_quarantined,
        "parallel.pool_rebuilds": report.pool_rebuilds,
        "parallel.discover_s": sum(discover),
        "parallel.task_busy_s": sum(tasks),
        "parallel.task_p50_ms": 1e3 * nearest_rank(tasks, 0.50),
        "parallel.task_p90_ms": 1e3 * nearest_rank(tasks, 0.90),
        "parallel.slot_utilization": busy / (SLOTS * wall),
        "dispatch.overhead_ms_per_task": 1e3 * (SLOTS * wall - busy) / max(1, report.tasks_total),
        "distributed.tasks_remote": report.tasks_remote,
        "distributed.releases": report.tasks_releases,
        "distributed.reconnects": report.broker_reconnects,
        # Time outside the runner: writing the CSVs.
        "unattributed_s": wall - report.wall_seconds,
    }
    return wall, outcomes, layers


def nearest_rank(ordered: list[float], q: float) -> float:
    if not ordered:
        return 0.0
    return ordered[min(len(ordered) - 1, max(0, round(q * len(ordered)) - 1))]


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("workload")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", type=Path, required=True)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--broker", default=None)
    parser.add_argument("--tiny", action="store_true")
    args = parser.parse_args(argv)

    started = perf_counter()
    from repro.analysis import experiments
    from repro.parallel import runner

    import_s = perf_counter() - started
    profile = make_profile(experiments, args.workload, args.seed, args.tiny)
    ids = ["fig4_left"] if args.workload == "paper_fig4" else list(experiments.EXPERIMENTS)
    args.out.mkdir(parents=True, exist_ok=True)

    cpu_before = cpu_seconds()
    layers: dict = {}
    if args.workload in ("quick_serial", "paper_fig4"):
        tracer = Tracer() if args.trace else None
        with tracer.installed() if tracer else contextlib.nullcontext():
            wall, outcomes = run_serial(experiments, ids, profile, args.out)
        if tracer is not None:
            layers = tracer.layers(wall)
            tracer.write(args.out / "spans.jsonl.gz")
    else:
        wall, outcomes, layers = run_runner(runner, ids, profile, args.out, args.broker)
    layers["process.cpu_s"] = cpu_seconds() - cpu_before

    print(
        json.dumps(
            {
                "wall_s": wall,
                "import_s": import_s,
                "ids": ids,
                "outcomes": outcomes,
                "layers": layers,
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
