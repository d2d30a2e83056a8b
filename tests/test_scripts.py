import importlib.util
import os
import subprocess
import sys
from pathlib import Path

import tubekit

ROOT = Path(tubekit.__file__).resolve().parent.parent.parent


def test_run_pipeline_script(tmp_path):
    proc = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "run_pipeline.py"),
         "--videos", "3", "--workdir", str(tmp_path)],
        capture_output=True, text=True, timeout=300,
        env=dict(os.environ, PYTHONPATH=str(ROOT / "src")),
    )
    assert proc.returncode == 0, proc.stderr
    assert (tmp_path / "report.jsonl").stat().st_size > 0


def test_noise_sweep_script():
    proc = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "noise_sweep.py"), "--videos", "1"],
        capture_output=True, text=True, timeout=300,
        env=dict(os.environ, PYTHONPATH=str(ROOT / "src")),
    )
    assert proc.returncode == 0, proc.stderr
    header, *rows = proc.stdout.splitlines()
    assert header.split() == ["miss", "fp", "mAP@0.5"]
    assert len(rows) == 15  # 5 miss rates x 3 false-positive rates
    for row in rows:
        assert 0.0 <= float(row.split()[2]) <= 1.0


def _bench_pairs():
    spec = importlib.util.spec_from_file_location("bench_pairs", ROOT / "scripts" / "bench_pairs.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _run(workload, pair, side, **metrics):
    result = {"correct": True, "failed": 0,
              "metrics": {name: {"value": value, "unit": "s"} for name, value in metrics.items()}}
    return {"workload": workload, "seed": 7, "pair": pair, "side": side, "result": result}


def test_bench_pairs_summary_arithmetic():
    parent = [1.0, 2.0, 3.0, 4.0]
    change = [0.5, 2.0, 2.5, 4.5]  # a win, a tie, a win, a loss
    fps_parent, fps_change = [10.0] * 4, [11.0, 9.0, 10.0, 12.0]  # higher is better
    runs = []
    for pair, values in enumerate(zip(parent, change, fps_parent, fps_change), start=1):
        runs.append(_run("w", pair, "parent", evaluate_s=values[0], frames_per_s=values[2]))
        runs.append(_run("w", pair, "change", evaluate_s=values[1], frames_per_s=values[3]))
    runs.append(_run("w", 5, "parent", evaluate_s=0.1, frames_per_s=99.0))
    runs.append({"workload": "w", "seed": 7, "pair": 5, "side": "change",
                 "result": {"correct": False, "error": "exit 1"}})  # a failed run drops its pair
    runs.append(_run("v", 1, "change", evaluate_s=0.3))
    runs.append(_run("v", 1, "parent", evaluate_s=0.2))
    summary = _bench_pairs().summarize(runs, {"evaluate_s": "lower", "frames_per_s": "higher"})

    rows = {(s["workload"], s["metric"]): s for s in summary}
    assert sorted(rows) == [("v", "evaluate_s"), ("w", "evaluate_s"), ("w", "frames_per_s")]
    s = rows["w", "evaluate_s"]
    assert (s["pairs"], s["change_wins"], s["ties"], s["parent_wins"]) == (4, 2, 1, 1)
    # quartiles by statistics.quantiles' default (exclusive) method
    assert (s["parent_q1"], s["parent_median"], s["parent_q3"], s["parent_iqr"]) == (1.25, 2.5, 3.75, 2.5)
    assert (s["change_q1"], s["change_median"], s["change_q3"], s["change_iqr"]) == (0.875, 2.25, 4.0, 3.125)
    s = rows["w", "frames_per_s"]
    assert (s["better"], s["change_wins"], s["ties"], s["parent_wins"]) == ("higher", 2, 1, 1)
    assert (s["parent_median"], s["parent_iqr"], s["change_median"]) == (10.0, 0.0, 10.5)
    s = rows["v", "evaluate_s"]
    assert (s["pairs"], s["change_wins"], s["parent_wins"]) == (1, 0, 1)
    assert s["parent_q1"] == s["parent_median"] == s["parent_q3"] == 0.2
