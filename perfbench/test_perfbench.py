"""Self-tests of the benchmark, on a tiny profile (n = 2^7, 20 measured rounds).

Run from the repo root::

    python3 -m pytest -q perfbench/test_perfbench.py

They check the output contract (every metric named in BENCHMARK.json, with
its unit), that a traced repetition writes the same CSV bytes as an
untraced one, that the tracer leaves nothing installed, and that the
fleet is always reaped. At the tiny profile some experiments raise or fail
verdicts, so ``correct`` is not asserted here.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path
from time import monotonic, perf_counter

import pytest

from fleet import Fleet, FleetError
from tracer import TREE, Tracer

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

from repro.analysis import experiments, sweep  # noqa: E402
from repro.core.capped import CappedProcess  # noqa: E402
from repro.engine.driver import SimulationDriver  # noqa: E402
from repro.kernels import round as kernel_round  # noqa: E402

TINY = experiments.Profile(name="tiny", n=2**7, measure=20, replicates=1)
WORKLOADS = ("quick_serial", "paper_fig4", "quick_jobs2", "quick_broker")


def bench(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args],
        cwd=cwd,
        capture_output=True,
        text=True,
        timeout=180,
    )


@pytest.mark.parametrize("trace", ["0", "1"])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_prints_every_metric_with_its_unit(workload, trace):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    done = bench("--workload", workload, "--tiny", "--seconds", "1", "--trace", trace)
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["attempted"] >= 1
    assert 0 <= result["failed"] <= result["attempted"]
    expected = spec["per_layer" if trace == "1" else "end_to_end"]
    assert {name: m["unit"] for name, m in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in expected
    }
    assert all(isinstance(m["value"], (int, float)) for m in result["metrics"].values())
    if trace == "0":
        assert all(m["value"] > 0 for m in result["metrics"].values())
    else:
        assert "unattributed_s" in done.stdout and "tracing overhead" in done.stdout


def test_traced_and_untraced_csvs_are_identical():
    done = bench("--workload", "quick_serial", "--tiny", "--trace", "1")
    assert done.returncode == 0, done.stderr
    assert "CSV differs" not in done.stdout
    out = ROOT / ".perfbench-out" / "quick_serial"
    untraced = {p.name: p.read_bytes() for p in (out / "rep-0").glob("*.csv")}
    traced = {p.name: p.read_bytes() for p in (out / "rep-1").glob("*.csv")}
    assert len(untraced) >= 10
    assert traced == untraced
    assert (out / "rep-1" / "spans.jsonl.gz").is_file()


def _installed_wrappers() -> list[str]:
    found = []
    for name, module in list(sys.modules.items()):
        if name.startswith("repro"):
            for attr, value in vars(module).items():
                if getattr(value, "__qualname__", "").startswith("Tracer.wrap"):
                    found.append(f"{name}.{attr}")
    if SimulationDriver.run.__qualname__.startswith("Tracer.wrap"):
        found.append("SimulationDriver.run")
    return found


def test_tracer_tiles_the_wall_and_leaves_nothing_installed(tmp_path):
    originals = (
        experiments.run_experiment,
        sweep.measure_capped,
        experiments.measure_capped,
        kernel_round.resolve_capped_round,
        SimulationDriver.run,
    )
    tracer = Tracer()
    with tracer.installed():
        assert experiments.run_experiment is not originals[0]
        assert experiments.measure_capped is sweep.measure_capped
        started = perf_counter()
        experiments.run_experiment("fig4_left", TINY)
        wall = perf_counter() - started
    assert _installed_wrappers() == []
    assert (
        experiments.run_experiment,
        sweep.measure_capped,
        experiments.measure_capped,
        kernel_round.resolve_capped_round,
        SimulationDriver.run,
    ) == originals

    layers = tracer.layers(wall)
    assert layers["analysis.points"] == 10
    assert layers["engine.driver.runs"] == 10
    assert layers["engine.measure.rounds"] == 10 * TINY.measure
    assert layers["core.capped.rounds"] == layers["engine.burn_in.rounds"] + 10 * TINY.measure
    assert layers["kernels.fused.calls"] + layers["kernels.serial.calls"] > 0
    tiled = sum(layers["tree"].values()) + layers["unattributed_s"]
    assert tiled == pytest.approx(wall, abs=1e-6)
    assert [name for name, _ in TREE] == list(layers["tree"])
    tracer.write(tmp_path / "spans.jsonl.gz")
    assert (tmp_path / "spans.jsonl.gz").stat().st_size > 0


def test_tracer_restores_after_an_error():
    process = CappedProcess(n=64, capacity=2, lam=0.5, rng=1)
    with pytest.raises(RuntimeError), Tracer().installed():
        SimulationDriver(burn_in=2, measure=4).run(process)
        assert "step" not in vars(process)
        raise RuntimeError("boom")
    assert _installed_wrappers() == []
    assert "step" not in vars(process)


def _env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    return env


def test_fleet_comes_up_and_is_always_reaped(tmp_path):
    with Fleet(ROOT, tmp_path / "fleet", _env(), workers=2, timeout=60) as fleet:
        procs = list(fleet.procs)
        assert fleet.address.startswith("127.0.0.1:")
        assert fleet.up_s > 0
        procs[1].kill()  # a dead worker must not stop the fleet from closing
    assert all(proc.poll() is not None for proc in procs)


def test_fleet_that_cannot_start_fails_fast(tmp_path):
    env = _env()
    env["PYTHONPATH"] = str(tmp_path)  # no repro package: the broker dies at once
    with pytest.raises(FleetError, match="exited early"):
        with Fleet(ROOT, tmp_path / "fleet", env, timeout=60):
            pass


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    done = bench("--workload", "quick_serial", "--seconds", "1", cwd=tmp_path)
    assert done.returncode != 0
    assert '"correct"' not in done.stdout


def test_a_late_repetition_is_killed_and_counted_as_failed():
    import run

    late = run.Run("quick_jobs2", run.DEFAULT_SEED, tiny=False)
    late.deadline = monotonic() + 2 * run.STOP_TIMEOUT_S + 3  # 3 s for a ~9 s sweep
    started = monotonic()
    rep = late.rep(0, trace=False)
    assert monotonic() - started < 10
    assert rep["error"] == "repetition timed out"
    attempted, failed, _, _, problems = run.check(late, [rep])
    assert attempted == failed == len(run.expected_ids("quick_jobs2")) == 17
    assert all("timed out" in problem for problem in problems)
