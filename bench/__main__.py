"""``python -m bench run``: every workload, several runs, one results set.

    PYTHONPATH=src python -m bench run --seed S --out FILE [--trace] [--runs N]

Each run is ``bench/run.py`` in a fresh process, exactly as the
``BENCHMARK.json`` command runs it, with seeds ``S, S+1, ...``. The results file
holds every run's result and record, each metric's median and
quartiles, and the run stamp. ``host_drift`` is set when the CPU
calibration loop varied by more than 10% within the set. With
``--trace`` the runs report per-layer metrics, and each workload's first
Chrome trace is copied next to FILE. Exits non-zero if any run failed a
check.
"""

from __future__ import annotations

import argparse
import json
import shutil
import subprocess
import sys
from pathlib import Path
from typing import Any

from . import stats
from .harness import benchmark, units

ROOT = Path(__file__).resolve().parent.parent
#: Calibration spread within a set beyond which the host is suspect.
DRIFT_LIMIT = 0.10


def _run_once(
    workload: str, seed: int, seconds: float, trace: bool
) -> tuple[dict[str, Any], dict[str, Any]]:
    done = subprocess.run(
        [sys.executable, str(ROOT / "bench" / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", f"{seconds:g}", "--trace", str(int(trace))],
        cwd=ROOT, capture_output=True, text=True, timeout=900,
    )
    lines = done.stdout.splitlines()
    if done.returncode not in (0, 1) or not lines:
        raise RuntimeError(f"{workload} seed {seed} crashed:\n{done.stderr[-3000:]}")
    record = next(
        json.loads(line[len("record "):]) for line in lines if line.startswith("record ")
    )
    return json.loads(lines[-1]), record


def table(results: dict[str, Any]) -> str:
    """Markdown: one row per metric, ``median (IQR share)`` per workload,
    both in ``BENCHMARK.json`` order."""
    spec = benchmark()
    names = [w["name"] for w in spec["workloads"] if w["name"] in results["workloads"]]
    rows = [
        "| metric | unit | " + " | ".join(names) + " |",
        "|---|---|" + "---|" * len(names),
    ]
    for metric, unit in units("per_layer" if results["trace"] else "end_to_end").items():
        cells = [
            "{median:.6g} ({iqr_share:.3f})".format(
                **results["workloads"][name]["metrics"][metric]
            )
            for name in names
        ]
        rows.append(f"| `{metric}` | {unit} | " + " | ".join(cells) + " |")
    return "\n".join(rows)


def run_set(args: argparse.Namespace) -> int:
    spec = benchmark()
    seconds = spec["run_seconds"]
    listed = units("per_layer" if args.trace else "end_to_end")
    out = Path(args.out)
    out.parent.mkdir(parents=True, exist_ok=True)
    results: dict[str, Any] = {
        "seed": args.seed, "runs": args.runs, "seconds": seconds,
        "trace": args.trace, "workloads": {},
    }
    calibration, correct = [], True
    for workload in (entry["name"] for entry in spec["workloads"]):
        runs = []
        for number in range(args.runs):
            result, record = _run_once(workload, args.seed + number, seconds, args.trace)
            calibration.append(record["calibration_s"])
            correct &= result["correct"]
            runs.append({
                "seed": args.seed + number,
                **{key: result[key] for key in ("correct", "attempted", "failed")},
                "metrics": {k: v["value"] for k, v in result["metrics"].items()},
                "record": record,
            })
            if number == 0 and "trace_file" in record:
                shutil.copyfile(
                    ROOT / record["trace_file"],
                    out.with_name(f"{out.stem}.{workload}.trace.json"),
                )
        metrics = {
            name: {**stats.spread([run["metrics"][name] for run in runs]), "unit": unit}
            for name, unit in listed.items()
        }
        results["workloads"][workload] = {"metrics": metrics, "runs": runs}
        print(f"{workload}: {len(runs)} runs, correct={all(r['correct'] for r in runs)}",
              file=sys.stderr, flush=True)
    results["stamp"] = runs[0]["record"]["stamp"]
    results["calibration_s"] = calibration
    results["host_drift"] = max(calibration) / min(calibration) - 1 > DRIFT_LIMIT
    results["correct"] = correct
    out.write_text(json.dumps(results, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    print(table(results))
    print(f"\nhost_drift={results['host_drift']} correct={correct} -> {out}")
    return 0 if correct else 1


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(prog="python -m bench")
    sub = parser.add_subparsers(dest="command", required=True)
    run = sub.add_parser("run", help="run every workload and write a results set")
    run.add_argument("--seed", type=int, default=0, help="seed of the first run")
    run.add_argument("--out", required=True, help="results JSON to write")
    run.add_argument("--trace", action="store_true", help="report per-layer metrics")
    run.add_argument("--runs", type=int, default=3, help="runs per workload")
    return run_set(parser.parse_args(argv))


if __name__ == "__main__":
    sys.exit(main())
