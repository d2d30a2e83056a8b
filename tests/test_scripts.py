import importlib.util
import os
import subprocess
import sys
from pathlib import Path

import pytest

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
    bench_pairs = _bench_pairs()
    summary = bench_pairs.summarize(runs, {"evaluate_s": "lower", "frames_per_s": "higher"},
                                    {"evaluate_s": 0.2, "frames_per_s": 0.04})

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

    # the change's median against the parent's, in the direction that is worse for the metric
    w_eval, w_fps, v_eval = rows["w", "evaluate_s"], rows["w", "frames_per_s"], rows["v", "evaluate_s"]
    assert w_eval["change_vs_parent"] == pytest.approx(2.25 / 2.5 - 1)  # 10% faster
    assert not w_eval["beyond_bound"]
    assert w_fps["change_vs_parent"] == pytest.approx(0.05)  # 5% more frames per second is better
    assert not w_fps["beyond_bound"]
    assert v_eval["change_vs_parent"] == pytest.approx(0.5)  # 50% slower, beyond the 20% bound
    assert v_eval["bound"] == 0.2 and v_eval["beyond_bound"]
    assert bench_pairs.table_row(v_eval).endswith("+50.0%    20%  BEYOND BOUND")
    assert bench_pairs.table_row(w_eval).endswith("-10.0%    20%")
    # a higher-is-better metric is worse when it falls, and no bound marks nothing
    fall = bench_pairs.summarize([_run("u", 1, "parent", frames_per_s=10.0), _run("u", 1, "change", frames_per_s=9.0)],
                                 {"frames_per_s": "higher"}, {"frames_per_s": 0.04})[0]
    assert fall["change_vs_parent"] == pytest.approx(-0.1) and fall["beyond_bound"]
    unbound = bench_pairs.summarize(runs, {"evaluate_s": "lower"})
    assert not any(s["beyond_bound"] for s in unbound) and all(s["bound"] is None for s in unbound)


def test_bench_pairs_copies_the_checkout_without_bytecode_caches(tmp_path, monkeypatch):
    repo = tmp_path / "repo"
    (repo / "pkg" / "__pycache__").mkdir(parents=True)
    files = {".gitignore": "__pycache__/\nbuild/\n", "pkg/a.py": "A = 1\n", "pkg/gone.py": "", "pkg/b.py": "B = 2\n"}
    for name, text in files.items():
        (repo / name).write_text(text)
    git = ["git", "-c", "user.name=t", "-c", "user.email=t@t"]
    subprocess.run(["git", "init", "-q", str(repo)], check=True)
    subprocess.run([*git, "add", "-A"], cwd=repo, check=True)
    subprocess.run([*git, "commit", "-q", "-m", "files"], cwd=repo, check=True)
    # on disk but not committed: an edit, a new file, a deletion, a cache and a build output
    (repo / "pkg" / "a.py").write_text("A = 3\n")
    (repo / "pkg" / "new.py").write_text("N = 4\n")
    (repo / "pkg" / "gone.py").unlink()
    (repo / "pkg" / "__pycache__" / "a.cpython-311.pyc").write_bytes(b"stale")
    (repo / "build").mkdir()
    (repo / "build" / "out.txt").write_text("x")

    bench_pairs = _bench_pairs()
    monkeypatch.setattr(bench_pairs, "ROOT", repo)
    dest = tmp_path / "copy"
    bench_pairs.copy_checkout(dest)
    copied = sorted(str(p.relative_to(dest)) for p in dest.rglob("*") if p.is_file())
    assert copied == [".gitignore", "pkg/a.py", "pkg/b.py", "pkg/new.py"]
    assert (dest / "pkg" / "a.py").read_text() == "A = 3\n"
    assert not list(dest.rglob("__pycache__"))


def _parity():
    sys.path.insert(0, str(ROOT / "scripts"))  # parity.py imports bench_pairs beside it
    spec = importlib.util.spec_from_file_location("parity", ROOT / "scripts" / "parity.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_parity_runs_the_pipeline_and_compares_every_file(tmp_path):
    parity = _parity()
    workload = {
        "synth": {"videos": 2, "frames": 40, "persons": 1, "fp_rate": 0.1, "miss_rate": 0.05, "classes": 3},
        "extract_tubes": [], "fuse": [], "evaluate": [], "actionness": ["--class", "0", "--threshold", "0.3"],
    }
    sides = [parity.run_side(ROOT, workload, 13, tmp_path / side) for side in ("a", "b")]
    for digests, failures in sides:
        assert failures == []
        assert sorted(digests) == sorted([
            "detections.jsonl", "gt_tubes.jsonl", "scores.jsonl",
            "tubes.jsonl", "predictions.jsonl", "report.jsonl", "actionness.jsonl",
            "predictions_pose_majority.jsonl", "predictions_flow_max.jsonl",
        ])
    assert all(same for _, same in parity.compare(sides[0][0], sides[1][0]))
    assert parity.compare({"a": "1", "b": "2"}, {"b": "2", "c": "3", "a": "0"}) == [
        ("a", False), ("b", True), ("c", False),
    ]
