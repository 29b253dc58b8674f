"""Tests for the perf-regression watchdog (repro.obs.watchdog)."""

import json

import pytest

from repro.cli import main
from repro.obs.watchdog import (
    DEFAULT_TOLERANCE,
    check_benchmarks,
    classify_direction,
    compare_documents,
    flatten_metrics,
)

BASELINE = {
    "benchmark": "demo",
    "build_seconds": 1.0,
    "ingredients": 939,
    "smoke": False,
    "similar": {"indexed_seconds": 0.02, "speedup": 50.0},
}


class TestClassification:
    @pytest.mark.parametrize(
        ("path", "direction"),
        [
            ("build_seconds", "lower"),
            ("similar.indexed_seconds", "lower"),
            ("dispatch_overhead", "lower"),
            ("p99_latency", "lower"),
            ("similar.speedup", "higher"),
            ("samples_per_sec", "higher"),
            ("hit_rate", "higher"),
            ("ingredients", None),
            ("k", None),
            ("benchmark", None),
        ],
    )
    def test_direction(self, path, direction):
        assert classify_direction(path) == direction

    def test_flatten_skips_non_numeric_and_bools(self):
        flat = flatten_metrics(BASELINE)
        assert flat["build_seconds"] == 1.0
        assert flat["similar.speedup"] == 50.0
        assert "smoke" not in flat
        assert "benchmark" not in flat


class TestCompare:
    def test_identical_documents_pass(self):
        verdicts = compare_documents(BASELINE, BASELINE)
        assert verdicts and all(v.ok for v in verdicts)
        gated = {v.path for v in verdicts}
        assert gated == {
            "build_seconds",
            "similar.indexed_seconds",
            "similar.speedup",
        }

    def test_slower_seconds_fails(self):
        current = json.loads(json.dumps(BASELINE))
        current["build_seconds"] = 2.0
        failures = [
            v for v in compare_documents(BASELINE, current) if not v.ok
        ]
        assert [v.path for v in failures] == ["build_seconds"]
        assert failures[0].regression == pytest.approx(1.0)

    def test_faster_seconds_passes_any_amount(self):
        current = json.loads(json.dumps(BASELINE))
        current["build_seconds"] = 0.001
        assert all(v.ok for v in compare_documents(BASELINE, current))

    def test_lower_speedup_fails(self):
        current = json.loads(json.dumps(BASELINE))
        current["similar"]["speedup"] = 20.0
        failures = [
            v for v in compare_documents(BASELINE, current) if not v.ok
        ]
        assert [v.path for v in failures] == ["similar.speedup"]

    def test_within_tolerance_passes(self):
        current = json.loads(json.dumps(BASELINE))
        current["build_seconds"] = 1.0 * (1 + DEFAULT_TOLERANCE - 0.01)
        assert all(v.ok for v in compare_documents(BASELINE, current))

    def test_per_metric_override_by_leaf(self):
        current = json.loads(json.dumps(BASELINE))
        current["similar"]["indexed_seconds"] = 0.03  # +50%
        assert not all(v.ok for v in compare_documents(BASELINE, current))
        verdicts = compare_documents(
            BASELINE, current, overrides={"indexed_seconds": 0.6}
        )
        assert all(v.ok for v in verdicts)

    def test_per_metric_override_by_path_wins(self):
        current = json.loads(json.dumps(BASELINE))
        current["similar"]["indexed_seconds"] = 0.03
        verdicts = compare_documents(
            BASELINE,
            current,
            overrides={
                "indexed_seconds": 0.1,
                "similar.indexed_seconds": 0.9,
            },
        )
        assert all(v.ok for v in verdicts)

    def test_zero_baseline_improvement_passes(self):
        (verdict,) = compare_documents({"speedup": 0.0}, {"speedup": 3.0})
        assert verdict.ok
        assert verdict.regression == pytest.approx(-3.0)

    def test_zero_baseline_slip_judged_by_absolute_margin(self):
        baseline = {"profiler_overhead": 0.0}
        (small,) = compare_documents(baseline, {"profiler_overhead": 0.004})
        assert small.ok
        assert small.regression == pytest.approx(0.004)
        (large,) = compare_documents(baseline, {"profiler_overhead": 0.5})
        assert not large.ok
        assert large.regression == pytest.approx(0.5)

    def test_metric_missing_on_one_side_is_skipped(self):
        current = {"build_seconds": 1.0, "new_seconds": 9.0}
        verdicts = compare_documents(BASELINE, current)
        assert {v.path for v in verdicts} == {"build_seconds"}


def _write(path, doc):
    path.write_text(json.dumps(doc), encoding="utf-8")


class TestCheckBenchmarks:
    def test_self_comparison_passes(self, tmp_path):
        _write(tmp_path / "BENCH_demo.json", BASELINE)
        report = check_benchmarks(str(tmp_path))
        assert report.ok
        assert len(report.comparisons) == 1
        assert report.gated_metrics == 3
        assert "PASS" in report.render()

    def test_regressed_results_fail(self, tmp_path):
        baseline_dir = tmp_path / "base"
        results_dir = tmp_path / "fresh"
        baseline_dir.mkdir()
        results_dir.mkdir()
        _write(baseline_dir / "BENCH_demo.json", BASELINE)
        regressed = json.loads(json.dumps(BASELINE))
        regressed["similar"]["indexed_seconds"] *= 4
        _write(results_dir / "BENCH_demo.json", regressed)
        report = check_benchmarks(str(baseline_dir), str(results_dir))
        assert not report.ok
        assert "REGRESSED" in report.render()
        payload = report.to_json()
        assert payload["ok"] is False
        failing = [
            metric
            for bench in payload["benchmarks"]
            for metric in bench["metrics"]
            if not metric["ok"]
        ]
        assert [m["path"] for m in failing] == ["similar.indexed_seconds"]

    def test_missing_results_reported_not_failed(self, tmp_path):
        baseline_dir = tmp_path / "base"
        results_dir = tmp_path / "fresh"
        baseline_dir.mkdir()
        results_dir.mkdir()
        _write(baseline_dir / "BENCH_demo.json", BASELINE)
        report = check_benchmarks(str(baseline_dir), str(results_dir))
        assert report.ok
        assert report.missing_results == ("BENCH_demo.json",)
        assert "skipped" in report.render()

    def test_no_baselines(self, tmp_path):
        report = check_benchmarks(str(tmp_path))
        assert report.ok
        assert "no benchmark baselines" in report.render()


class TestCliCheck:
    def test_pass_exit_zero_and_verdict_json(self, tmp_path, capsys):
        _write(tmp_path / "BENCH_demo.json", BASELINE)
        out = tmp_path / "verdict.json"
        code = main(
            [
                "obs",
                "check",
                "--baseline-dir",
                str(tmp_path),
                "--out",
                str(out),
            ]
        )
        assert code == 0
        verdict = json.loads(out.read_text())
        assert verdict["ok"] is True
        assert "PASS" in capsys.readouterr().out

    def test_regression_exit_one(self, tmp_path, capsys):
        baseline_dir = tmp_path / "base"
        results_dir = tmp_path / "fresh"
        baseline_dir.mkdir()
        results_dir.mkdir()
        _write(baseline_dir / "BENCH_demo.json", BASELINE)
        regressed = json.loads(json.dumps(BASELINE))
        regressed["build_seconds"] *= 3
        _write(results_dir / "BENCH_demo.json", regressed)
        code = main(
            [
                "obs",
                "check",
                "--baseline-dir",
                str(baseline_dir),
                "--results-dir",
                str(results_dir),
            ]
        )
        assert code == 1
        assert "FAIL" in capsys.readouterr().out

    def test_tolerance_override_flag(self, tmp_path):
        baseline_dir = tmp_path / "base"
        results_dir = tmp_path / "fresh"
        baseline_dir.mkdir()
        results_dir.mkdir()
        _write(baseline_dir / "BENCH_demo.json", BASELINE)
        slower = json.loads(json.dumps(BASELINE))
        slower["build_seconds"] *= 2
        _write(results_dir / "BENCH_demo.json", slower)
        args = [
            "obs",
            "check",
            "--baseline-dir",
            str(baseline_dir),
            "--results-dir",
            str(results_dir),
        ]
        assert main(args) == 1
        assert main(args + ["--tolerance-for", "build_seconds=1.5"]) == 0

    def test_malformed_override_exit_two(self, tmp_path, capsys):
        code = main(
            [
                "obs",
                "check",
                "--baseline-dir",
                str(tmp_path),
                "--tolerance-for",
                "nonsense",
            ]
        )
        assert code == 2
        assert "METRIC=FRACTION" in capsys.readouterr().err
