"""The repo benchmark: the paper sweep, timed end to end and layer by layer.

Run from the root of a checkout::

    python3 perfbench/run.py --workload quick_serial --seed 20210701 --seconds 15 --trace 0

Workloads (see perfbench/README.md for why each exists):

* ``quick_serial`` - all experiments at the ``quick`` profile, one process;
* ``paper_fig4``   - ``fig4_left`` at the ``paper`` profile (n = 2^15);
* ``quick_jobs2``  - the quick sweep through ``run_experiments(jobs=2)``;
* ``quick_broker`` - the quick sweep through a ``repro broker`` and two
  ``repro worker`` subprocesses.

Each is a closed loop with one client: a repetition submits the whole
workload and waits for it. Every repetition runs in a fresh interpreter
(``rep.py``); repetitions start until ``--seconds`` have passed.
``--trace 0`` prints the end-to-end metrics, ``--trace 1`` one untraced
and one traced repetition and the per-layer metrics. The last stdout line
is one JSON object: ``correct``, ``attempted``, ``failed``, ``metrics``.

An operation is one experiment. It fails if it raises, if its tasks are
quarantined, if any verdict is FAIL, if its CSV is missing or has other
columns than the reference, or if tracing changed its CSV bytes.
``analysis.csv_drift`` counts experiments whose CSV differs from the
reference; it is only computed at the profile seed, the reference's.

``--record-reference`` rewrites perfbench/reference/quick/ from one
``quick_serial`` repetition at the profile seed.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import resource
import shutil
import signal
import statistics
import subprocess
import sys
from pathlib import Path
from time import monotonic, perf_counter, time

from fleet import STOP_TIMEOUT_S, Fleet, FleetError
from rep import SLOTS
from tracer import TREE

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".perfbench-out"
QUICK_REFERENCE = HERE / "reference" / "quick"
PAPER_REFERENCE = ROOT / "results" / "paper"

WORKLOADS = ("quick_serial", "paper_fig4", "quick_jobs2", "quick_broker")
DEFAULT_SEED = 20210701  # the profiles' seed, at which the references were made
IMPORT_TRIALS = 7  # an import is ~0.4 s, so a median needs several
FLEET_TRIALS = 3
RUN_LIMIT_S = 170.0  # one invocation, set-up and teardown included
IMPORTS = (
    "import sys, time; import repro.analysis.experiments, repro.parallel.runner; "
    "print(time.time() - float(sys.argv[1]))"
)

END_TO_END = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}
PER_LAYER = {
    "kernels.fused.calls": "count",
    "kernels.fused.busy_s": "s",
    "kernels.serial.calls": "count",
    "kernels.serial.busy_s": "s",
    "core.capped.rounds": "count",
    "core.capped.busy_s": "s",
    "core.capped.self_s": "s",
    "core.capped.us_per_round": "us",
    "processes.greedy.rounds": "count",
    "processes.greedy.busy_s": "s",
    "processes.dchoice.rounds": "count",
    "processes.dchoice.busy_s": "s",
    "processes.other.busy_s": "s",
    "engine.driver.runs": "count",
    "engine.driver.self_s": "s",
    "engine.burn_in.rounds": "count",
    "engine.burn_in.busy_s": "s",
    "engine.measure.rounds": "count",
    "engine.measure.busy_s": "s",
    "engine.burn_in.share": "ratio",
    "analysis.points": "count",
    "analysis.sweep.self_s": "s",
    "analysis.experiments.self_s": "s",
    "analysis.verdicts_failed": "count",
    "analysis.csv_drift": "count",
    "parallel.tasks": "count",
    "parallel.tasks_retried": "count",
    "parallel.tasks_quarantined": "count",
    "parallel.pool_rebuilds": "count",
    "parallel.discover_s": "s",
    "parallel.task_busy_s": "s",
    "parallel.task_p50_ms": "ms",
    "parallel.task_p90_ms": "ms",
    "parallel.slot_utilization": "ratio",
    "dispatch.overhead_ms_per_task": "ms",
    "distributed.tasks_remote": "count",
    "distributed.releases": "count",
    "distributed.reconnects": "count",
    "distributed.fleet_up_s": "s",
    "process.cpu_s": "s",
    "unattributed_s": "s",
    "trace.wall_s": "s",
    "trace.overhead_s": "s",
}


class Run:
    """One invocation: its deadline, environment and the fleets it started."""

    def __init__(self, workload: str, seed: int, tiny: bool) -> None:
        self.workload = workload
        self.seed = seed
        self.tiny = tiny
        self.deadline = monotonic() + RUN_LIMIT_S
        self.out = OUT / workload
        self.env = dict(os.environ)
        self.env["PYTHONPATH"] = os.pathsep.join(
            [str(ROOT / "src"), *filter(None, [os.environ.get("PYTHONPATH")])]
        )
        # ablation_aging seeds one point with hash(order), which varies with
        # the per-process string-hash salt; pinned so a seed fixes every CSV.
        self.env["PYTHONHASHSEED"] = "0"
        self.fleet_up: list[float] = []

    def remaining(self) -> float:
        """Seconds left for a child, keeping time to tear everything down."""
        left = self.deadline - monotonic() - 2 * STOP_TIMEOUT_S
        if left <= 0:
            raise TimeoutError(f"{self.workload}: the {RUN_LIMIT_S:.0f}s run limit is spent")
        return left

    def fleet(self, name: str) -> Fleet:
        workdir = self.out / name
        shutil.rmtree(workdir, ignore_errors=True)
        return Fleet(ROOT, workdir, self.env, timeout=min(60.0, self.remaining()))

    def setup_s(self) -> float:
        """Median seconds to import the package in a fresh interpreter, plus,
        for ``quick_broker``, the median fleet start-up."""
        seconds = statistics.median(self._import_s() for _ in range(IMPORT_TRIALS))
        if self.workload == "quick_broker":
            seconds += statistics.median(self._fleet_up_s(i) for i in range(FLEET_TRIALS))
        return seconds

    def _import_s(self) -> float:
        # The child times itself from its spawn: waiting on it with a
        # timeout polls in 50 ms steps, too coarse for a 0.5 s import.
        done = subprocess.run(
            [sys.executable, "-c", IMPORTS, repr(time())], cwd=ROOT, env=self.env,
            stdout=subprocess.PIPE, check=True, timeout=self.remaining(),
        )
        return float(done.stdout)

    def _fleet_up_s(self, index: int) -> float:
        with self.fleet(f"setup-{index}") as fleet:
            return fleet.up_s

    def rep(self, index: int, trace: bool) -> dict:
        """One repetition in a fresh interpreter; a dead or late one reports why."""
        out = self.out / f"rep-{index}"
        shutil.rmtree(out, ignore_errors=True)
        command = [
            sys.executable, str(HERE / "rep.py"), self.workload,
            "--seed", str(self.seed), "--out", str(out),
        ]
        if trace:
            command.append("--trace")
        if self.tiny:
            command.append("--tiny")
        started = perf_counter()
        try:
            if self.workload == "quick_broker":
                with self.fleet(f"fleet-{index}") as fleet:
                    self.fleet_up.append(fleet.up_s)
                    result = self._child(command + ["--broker", fleet.address])
            else:
                result = self._child(command)
        except (FleetError, TimeoutError, subprocess.SubprocessError) as err:
            result = {"error": f"{type(err).__name__}: {err}"}
        result["out"] = out
        result["elapsed"] = perf_counter() - started
        result.setdefault("wall_s", result["elapsed"])
        return result

    def _child(self, command: list[str]) -> dict:
        # Its own session, so that a timeout takes its pool processes too.
        proc = subprocess.Popen(
            command, cwd=ROOT, env=self.env, stdout=subprocess.PIPE, start_new_session=True
        )
        try:
            stdout, _ = proc.communicate(timeout=self.remaining())
        except subprocess.TimeoutExpired:
            return {"error": "repetition timed out"}
        finally:
            with contextlib.suppress(ProcessLookupError):
                os.killpg(proc.pid, signal.SIGKILL)  # the child or anything it left behind
            proc.communicate()
        lines = stdout.decode("utf-8", "replace").strip().splitlines()
        if proc.returncode != 0 or not lines:
            return {"error": f"repetition exited with code {proc.returncode}"}
        return json.loads(lines[-1])


def reference_dir(workload: str) -> Path:
    return PAPER_REFERENCE if workload == "paper_fig4" else QUICK_REFERENCE


def expected_ids(workload: str) -> list[str]:
    if workload == "paper_fig4":
        return ["fig4_left"]
    return sorted(path.stem for path in QUICK_REFERENCE.glob("*.csv"))


def check(run: Run, reps: list[dict]) -> tuple[int, int, int, int, list[str]]:
    """(attempted, failed, csv_drift, verdicts_failed, problems) over ``reps``."""
    reference = reference_dir(run.workload)
    at_reference = run.seed == DEFAULT_SEED and not run.tiny
    attempted = failed = verdicts_failed = 0
    drifted: set[str] = set()
    problems: list[str] = []
    first_bytes: dict[str, bytes] = {}
    for rep in reps:
        outcomes = rep.get("outcomes", {})
        for experiment_id in rep.get("ids", expected_ids(run.workload)):
            attempted += 1
            got = outcomes.get(experiment_id, {"error": rep.get("error", "no result")})
            csv = rep["out"] / f"{experiment_id}.csv"
            ref = reference / f"{experiment_id}.csv"
            verdicts_failed += len(got.get("verdicts_failed", ()))
            problem = got.get("error")
            if problem is None and got.get("verdicts_failed"):
                problem = "verdict FAIL: " + "; ".join(got["verdicts_failed"])
            if problem is None and not csv.is_file():
                problem = "no CSV written"
            if problem is None and ref.is_file():
                if csv.read_bytes().partition(b"\n")[0] != ref.read_bytes().partition(b"\n")[0]:
                    problem = "CSV columns differ from the reference"
            if problem is None:
                data = csv.read_bytes()
                # Repetitions of one seed must agree: tracing, the pool and
                # the broker never change the answer.
                if first_bytes.setdefault(experiment_id, data) != data:
                    problem = "CSV differs between repetitions"
                if at_reference and (not ref.is_file() or ref.read_bytes() != data):
                    drifted.add(experiment_id)
            if problem is not None:
                failed += 1
                problems.append(f"{experiment_id}: {problem}")
    return attempted, failed, len(drifted), verdicts_failed, problems


def peak_rss_mb() -> float:
    """Peak RSS of this process and its reaped children (ru_maxrss is KiB)."""
    return max(
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss,
    ) / 1024


def print_tree(workload: str, traced: dict, untraced: dict) -> None:
    layers = traced["layers"]
    wall = traced["wall_s"]
    print(f"per-layer tree, {workload}, traced repetition (self seconds; rows tile the wall)")
    print(f"  {'wall_s':<40}{wall:10.3f}")
    if "tree" in layers:
        for name, depth in TREE:
            print(f"  {'  ' * depth + name:<40}{layers['tree'][name]:10.3f}")
    else:
        runner_s = wall - layers["unattributed_s"]
        busy = layers["parallel.discover_s"] + layers["parallel.task_busy_s"]
        tasks = layers["parallel.tasks"]
        print(f"  {'  parallel.run_experiments':<40}{runner_s:10.3f}")
        print(f"  {f'    slot-seconds ({SLOTS} slots x wall_s)':<40}{SLOTS * wall:10.3f}")
        print(f"  {'      parallel.discover_s':<40}{layers['parallel.discover_s']:10.3f}")
        print(f"  {'      parallel.task_busy_s':<40}{layers['parallel.task_busy_s']:10.3f}")
        print(f"  {f'      dispatch overhead ({tasks} tasks)':<40}{SLOTS * wall - busy:10.3f}")
    print(f"  {'  unattributed_s':<40}{layers['unattributed_s']:10.3f}")
    print(
        f"tracing overhead: traced {wall:.3f}s - untraced {untraced['wall_s']:.3f}s"
        f" = {wall - untraced['wall_s']:+.3f}s"
        + ("" if "tree" in layers else " (no wrappers in this workload: run-to-run noise)")
    )


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, default="quick_serial")
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--tiny", action="store_true", help="a tiny profile, for the self-tests"
    )
    parser.add_argument(
        "--record-reference", action="store_true",
        help="rewrite perfbench/reference/quick from quick_serial at the profile seed",
    )
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: no repro package under {ROOT / 'src'}", file=sys.stderr)
        return 2
    if args.record_reference:
        return record_reference()

    run = Run(args.workload, args.seed, args.tiny)
    shutil.rmtree(run.out, ignore_errors=True)
    metrics: dict[str, float] = {}
    if args.trace:
        untraced, traced = run.rep(0, trace=False), run.rep(1, trace=True)
        reps = [untraced, traced]
    else:
        setup_s = run.setup_s()
        reps = []
        measure_end = monotonic() + args.seconds
        while not reps or (monotonic() < measure_end and "error" not in reps[-1]):
            reps.append(run.rep(len(reps), trace=False))
        metrics["wall_s"] = statistics.median(rep["wall_s"] for rep in reps)
        metrics["setup_s"] = setup_s
        metrics["peak_rss_mb"] = peak_rss_mb()

    attempted, failed, drift, verdicts_failed, problems = check(run, reps)
    for problem in problems:
        print(f"FAILED {problem}")
    for rep in reps:
        if "error" in rep:
            print(f"FAILED repetition: {rep['error']}")
    if args.trace:
        layers = {name: 0.0 for name in PER_LAYER}
        layers.update(traced.get("layers", {}))
        layers["analysis.csv_drift"] = drift
        layers["analysis.verdicts_failed"] = verdicts_failed
        layers["distributed.fleet_up_s"] = statistics.median(run.fleet_up) if run.fleet_up else 0
        layers["trace.wall_s"] = traced["wall_s"]
        layers["trace.overhead_s"] = traced["wall_s"] - untraced["wall_s"]
        if "error" not in traced:
            print_tree(args.workload, traced, untraced)
        metrics = {name: layers[name] for name in PER_LAYER}
        units = PER_LAYER
    else:
        print(f"{args.workload}: {len(reps)} repetition(s)")
        units = END_TO_END
    for name, value in metrics.items():
        print(f"  {name:<34}{value:14.4f} {units[name]}")
    print(
        json.dumps(
            {
                "correct": failed == 0,
                "attempted": attempted,
                "failed": failed,
                "metrics": {
                    name: {"value": value, "unit": units[name]} for name, value in metrics.items()
                },
            }
        )
    )
    return 0


def record_reference() -> int:
    """Regenerate the quick-profile reference CSVs from quick_serial."""
    run = Run("quick_serial", DEFAULT_SEED, tiny=False)
    rep = run.rep(0, trace=False)
    outcomes = rep.get("outcomes", {})
    bad = [i for i, got in outcomes.items() if got.get("error") or got.get("verdicts_failed")]
    if "error" in rep or bad:
        print(f"perfbench: not recording, failed: {rep.get('error') or bad}", file=sys.stderr)
        return 1
    shutil.rmtree(QUICK_REFERENCE, ignore_errors=True)
    QUICK_REFERENCE.mkdir(parents=True)
    for experiment_id in rep["ids"]:
        name = f"{experiment_id}.csv"
        shutil.copyfile(rep["out"] / name, QUICK_REFERENCE / name)
    print(f"recorded {len(rep['ids'])} CSVs into {QUICK_REFERENCE.relative_to(ROOT)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
