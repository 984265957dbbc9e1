"""Exit-status contract of benchmarks/check_regression.py.

The script is not a package module, so it is imported by file path. The
cases that matter: matching artifacts pass (0), a slower ratio fails (1),
a cell *removed* from the current grid is a comparability error (2), and
a cell newly *added* to the current grid is an informational note that
must not gate the PR introducing it (0).
"""

import importlib.util
import json
from pathlib import Path

import pytest

SCRIPT = Path(__file__).resolve().parent.parent / "benchmarks" / "check_regression.py"

spec = importlib.util.spec_from_file_location("check_regression", SCRIPT)
check_regression = importlib.util.module_from_spec(spec)
spec.loader.exec_module(check_regression)


def grid_row(n, c, lam, ratio):
    return {"n": n, "c": c, "lam": lam, "fused_over_legacy": ratio}


def artifact(rows, kernel_speedup=3.0, choice_speedup=2.0):
    return {
        "grid": rows,
        "kernel_phase": {"speedup": kernel_speedup},
        "general_c": {"speedup": kernel_speedup},
        "choices": {"speedup": choice_speedup},
    }


def run(tmp_path, baseline, current, threshold=0.85):
    base_path = tmp_path / "baseline.json"
    cur_path = tmp_path / "current.json"
    base_path.write_text(json.dumps(baseline))
    cur_path.write_text(json.dumps(current))
    return check_regression.main(
        [str(cur_path), "--baseline", str(base_path), "--threshold", str(threshold)]
    )


BASE_ROWS = [grid_row(1024, 1, 0.5, 4.0), grid_row(1024, 2, 0.75, 3.0)]


class TestExitStatus:
    def test_matching_artifacts_pass(self, tmp_path):
        assert run(tmp_path, artifact(BASE_ROWS), artifact(BASE_ROWS)) == 0

    def test_regression_fails(self, tmp_path):
        slower = [grid_row(1024, 1, 0.5, 2.0), grid_row(1024, 2, 0.75, 3.0)]
        assert run(tmp_path, artifact(BASE_ROWS), artifact(slower)) == 1

    def test_threshold_is_respected(self, tmp_path):
        slightly_slower = [grid_row(1024, 1, 0.5, 3.6), grid_row(1024, 2, 0.75, 3.0)]
        assert run(tmp_path, artifact(BASE_ROWS), artifact(slightly_slower)) == 0
        assert (
            run(tmp_path, artifact(BASE_ROWS), artifact(slightly_slower), threshold=0.95) == 1
        )

    def test_cell_missing_from_current_is_error(self, tmp_path):
        assert run(tmp_path, artifact(BASE_ROWS), artifact(BASE_ROWS[:1])) == 2

    def test_new_cell_in_current_is_note_not_gate(self, tmp_path, capsys):
        current = artifact(BASE_ROWS + [grid_row(2048, 4, 0.9, 3.5)])
        assert run(tmp_path, artifact(BASE_ROWS), current) == 0
        out = capsys.readouterr().out
        assert "no baseline for cell" in out
        assert "n=2048" in out
        assert "1 new cell(s) without a baseline" in out

    def test_new_cell_alone_cannot_carry_the_gate(self, tmp_path):
        # Only-notes artifacts have no comparable ratios at the grid level,
        # but the section speedups still gate, so this passes...
        baseline = {"grid": [], "kernel_phase": {"speedup": 3.0}}
        current = {"grid": [grid_row(64, 1, 0.5, 4.0)], "kernel_phase": {"speedup": 3.0}}
        assert run(tmp_path, baseline, current) == 0
        # ...while artifacts with nothing comparable at all are rejected.
        assert run(tmp_path, {"grid": []}, {"grid": [grid_row(64, 1, 0.5, 4.0)]}) == 2

    def test_unreadable_artifact(self, tmp_path):
        base_path = tmp_path / "baseline.json"
        base_path.write_text("{not json")
        cur_path = tmp_path / "current.json"
        cur_path.write_text("{}")
        assert (
            check_regression.main([str(cur_path), "--baseline", str(base_path)]) == 2
        )

    def test_missing_section_in_current_is_error(self, tmp_path):
        baseline = artifact(BASE_ROWS)
        current = {"grid": BASE_ROWS, "kernel_phase": {"speedup": 3.0}}
        assert run(tmp_path, baseline, current) == 2

    def test_baseline_predating_section_is_tolerated(self, tmp_path):
        baseline = {"grid": BASE_ROWS}
        assert run(tmp_path, baseline, artifact(BASE_ROWS)) == 0

    def test_choice_draw_regression_fails(self, tmp_path):
        # The word-wise fill falling back to ``integers`` reads ~1x.
        slower = artifact(BASE_ROWS, choice_speedup=1.0)
        assert run(tmp_path, artifact(BASE_ROWS), slower) == 1

    def test_choice_section_missing_from_current_is_error(self, tmp_path):
        current = artifact(BASE_ROWS)
        del current["choices"]
        assert run(tmp_path, artifact(BASE_ROWS), current) == 2


def sweep_artifact(speedup_2w=2.0, speedup_4w=4.0):
    return {
        "fabric": {
            "speedup_2w_over_1w": speedup_2w,
            "speedup_4w_over_1w": speedup_4w,
        },
        "compute": {"cpus": 1, "serial": 20.0, "broker_4w": 14.0},
    }


class TestSweepArtifact:
    """BENCH_sweep.json vs baseline_sweep.json through the same script."""

    def test_matching_sweep_artifacts_pass(self, tmp_path):
        assert run(tmp_path, sweep_artifact(), sweep_artifact()) == 0

    def test_fabric_regression_fails(self, tmp_path):
        assert run(tmp_path, sweep_artifact(), sweep_artifact(speedup_4w=2.5)) == 1

    def test_fabric_ratio_missing_from_current_is_error(self, tmp_path):
        current = sweep_artifact()
        del current["fabric"]["speedup_4w_over_1w"]
        assert run(tmp_path, sweep_artifact(), current) == 2

    def test_compute_modes_never_gate(self, tmp_path):
        # The compute section is core-count dependent, like the engine
        # artifact's absolute rounds/sec: a slower broker-4w must not fail.
        current = sweep_artifact()
        current["compute"]["broker_4w"] = 0.1
        assert run(tmp_path, sweep_artifact(), current) == 0

    def test_engine_baseline_ignores_sweep_sections(self, tmp_path):
        # The engine baseline has no fabric section, so an engine artifact
        # never picks up sweep gates (and vice versa: the sweep baseline's
        # empty grid yields no grid checks).
        assert run(tmp_path, artifact(BASE_ROWS), artifact(BASE_ROWS)) == 0
        checks = check_regression.collect_checks(sweep_artifact(), sweep_artifact())
        assert [c["name"] for c in checks] == [
            "fabric.speedup_2w_over_1w",
            "fabric.speedup_4w_over_1w",
        ]


class TestCeilings:
    """Absolute ceilings: a fixed per-task cost that no ratio can see."""

    @staticmethod
    def with_zero_dwell(artifact_dict, ms=None, ceiling=None):
        if ms is not None:
            artifact_dict["fabric"]["ms_per_task_zero_dwell"] = ms
        if ceiling is not None:
            artifact_dict["ceilings"] = {"fabric.ms_per_task_zero_dwell": ceiling}
        return artifact_dict

    def test_value_under_ceiling_passes(self, tmp_path, capsys):
        baseline = self.with_zero_dwell(sweep_artifact(), ceiling=5.0)
        current = self.with_zero_dwell(sweep_artifact(), ms=1.4)
        assert run(tmp_path, baseline, current) == 0
        assert "fabric.ms_per_task_zero_dwell" in capsys.readouterr().out

    def test_value_over_ceiling_fails_even_with_equal_ratios(self, tmp_path):
        # The pre-NODELAY fabric: every ratio as before, 44 ms per task.
        baseline = self.with_zero_dwell(sweep_artifact(), ceiling=5.0)
        current = self.with_zero_dwell(sweep_artifact(), ms=44.0)
        assert run(tmp_path, baseline, current) == 1

    def test_ceiling_ignores_the_ratio_threshold(self, tmp_path):
        baseline = self.with_zero_dwell(sweep_artifact(), ceiling=5.0)
        current = self.with_zero_dwell(sweep_artifact(), ms=5.5)
        assert run(tmp_path, baseline, current, threshold=0.01) == 1

    def test_value_missing_from_current_is_error(self, tmp_path):
        baseline = self.with_zero_dwell(sweep_artifact(), ceiling=5.0)
        assert run(tmp_path, baseline, sweep_artifact()) == 2

    def test_committed_sweep_baseline_caps_zero_dwell(self):
        import json

        committed = json.loads((SCRIPT.parent / "baseline_sweep.json").read_text())
        assert committed["ceilings"]["fabric.ms_per_task_zero_dwell"] <= 5.0

    def test_committed_engine_baseline_caps_meanfield_solves(self):
        import json

        committed = json.loads((SCRIPT.parent / "baseline.json").read_text())
        # Quick fig4_right + fig5_right share 20 cells: c in {1, 3} x 10 lambdas.
        assert committed["ceilings"]["meanfield.misses"] == 20
        assert committed["ceilings"]["meanfield.ms_per_solve"] > 0

    def test_committed_engine_baseline_gates_choice_draws(self):
        import json

        committed = json.loads((SCRIPT.parent / "baseline.json").read_text())
        assert committed["choices"]["speedup"] > 1.0
        assert committed["ceilings"]["choices.ns_per_draw_raw"] > 0


class TestCollectChecks:
    def test_ratio_records(self):
        checks = check_regression.collect_checks(
            artifact([grid_row(64, 1, 0.5, 4.0)]), artifact([grid_row(64, 1, 0.5, 2.0)])
        )
        grid = [c for c in checks if c["name"].startswith("grid")]
        assert grid[0]["ratio"] == pytest.approx(0.5)

    def test_note_records_have_no_ratio(self):
        checks = check_regression.collect_checks(
            {"grid": []}, {"grid": [grid_row(64, 1, 0.5, 4.0)]}
        )
        assert checks == [{"name": "grid n=64 c=1 lam=0.5", "note": "no baseline for cell"}]
