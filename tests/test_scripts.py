import ast
import importlib.util
import json
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


def _cached_bytecode_is_current(source: Path) -> bool:
    """Whether ``source`` has bytecode for this interpreter that an import would use as it is."""
    cached = Path(importlib.util.cache_from_source(source))
    if not cached.is_file():
        return False
    header = cached.read_bytes()[:16]
    if header[:4] != importlib.util.MAGIC_NUMBER:
        return False
    flags = int.from_bytes(header[4:8], "little")
    if flags & 1:  # hash-based bytecode
        return header[8:16] == importlib.util.source_hash(source.read_bytes())
    stat = source.stat()
    return header[8:16] == ((int(stat.st_mtime) & 0xFFFFFFFF).to_bytes(4, "little")
                            + (stat.st_size & 0xFFFFFFFF).to_bytes(4, "little"))


def test_bench_pairs_precompiles_each_copy(tmp_path):
    bench_pairs = _bench_pairs()
    dest = tmp_path / "copy"
    bench_pairs.copy_checkout(dest)
    modules = sorted((dest / "src" / "tubekit").glob("*.py"))
    assert modules and not any(_cached_bytecode_is_current(m) for m in modules)
    bench_pairs.precompile(dest)
    assert all(_cached_bytecode_is_current(m) for m in modules)
    assert all(_cached_bytecode_is_current(m) for m in (dest / "perfbench").glob("*.py"))


def _settings(**changes):
    settings = {"command": "python3 perfbench/run.py --workload W --seed S --trace 0", "seconds": 1.0,
                "trees": None, "machine": "m", "result": "r"}
    return {**settings, **changes}


@pytest.mark.parametrize("change, message", [
    ({"parent": {"commit": "0" * 40, "src_tree": "f" * 40}}, "holds runs of another parent src/ tree"),
    ({"settings": _settings(seconds=30.0)}, "holds runs of --seconds 30.0"),
    ({"settings": _settings(trees="copies with no __pycache__")},
     "holds runs from trees prepared otherwise: copies with no __pycache__"),
    ({"claim": {"metric": "fuse_s", "workload": "long-video", "better": "lower"}},
     "claims fuse_s on long-video"),
], ids=["parent-tree", "seconds", "trees", "claim"])
def test_bench_pairs_refuses_an_out_file_it_cannot_add_to(tmp_path, monkeypatch, capsys, change, message):
    bench_pairs = _bench_pairs()
    monkeypatch.setattr(bench_pairs, "checkout_src_tree", lambda: "c" * 40)

    def export(rev, dest):
        raise AssertionError("ran past the --out checks")

    monkeypatch.setattr(bench_pairs, "export", export)
    commit = bench_pairs.git("rev-parse", "HEAD")
    record = {
        "claim": {"metric": "fuse_s", "workload": "crowded", "better": "lower"},
        "parent": {"commit": commit, "src_tree": bench_pairs.git("rev-parse", commit + ":src")},
        "change": {"src_tree": "c" * 40},
        "settings": _settings(trees=bench_pairs.TREES),
        "runs": [],
    }
    out = tmp_path / "BENCH.json"
    argv = ["--parent", commit, "--workload", "crowded", "--seconds", "1", "--claim", "fuse_s",
            "--out", str(out)]
    out.write_text(json.dumps(record))
    with pytest.raises(AssertionError, match="ran past"):  # the file as it is takes this call's runs
        bench_pairs.main(argv)

    text = json.dumps({**record, **change})
    out.write_text(text)
    assert bench_pairs.main(argv) == 2
    assert capsys.readouterr().err == f"bench_pairs: {out} {message}\n"
    assert out.read_text() == text


def _traced_functions():
    """``perfbench/traced.py``'s FUNCTIONS, read as text: (span name, module, attribute, record)."""
    tree = ast.parse((ROOT / "perfbench" / "traced.py").read_text(encoding="utf-8"))
    for node in tree.body:
        if isinstance(node, ast.Assign) and [t.id for t in node.targets if isinstance(t, ast.Name)] == ["FUNCTIONS"]:
            return ast.literal_eval(node.value)
    raise AssertionError("perfbench/traced.py has no FUNCTIONS")


def test_package_keeps_what_the_traced_benchmark_wraps():
    functions = _traced_functions()
    modules = sorted({module for _, module, _, _ in functions})
    for _, module, attr, _ in functions:
        assert hasattr(importlib.import_module(f"tubekit.{module}"), attr), f"tubekit.{module}.{attr}"
    from tubekit.count_signal import DetectionCountSeries
    assert isinstance(DetectionCountSeries.__dict__.get("from_detections"), classmethod)
    # traced.install indexes the modules that importing tubekit.cli loads, by their last name
    code = "import sys, tubekit.cli; print(*sorted(n for n in sys.modules if n.startswith('tubekit.')))"
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True,
                         env=dict(os.environ, PYTHONPATH=str(ROOT / "src")))
    loaded = {name.split(".")[-1] for name in out.stdout.split()}
    assert len(modules) == 8 and set(modules) <= loaded


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
            "predictions_pose_majority.jsonl", "predictions_flow_max.jsonl", "actionness_detections.jsonl",
            "tubes_w9.jsonl", "report_tight.jsonl",
        ])
    assert all(same for _, same in parity.compare(sides[0][0], sides[1][0]))
    assert parity.compare({"a": "1", "b": "2"}, {"b": "2", "c": "3", "a": "0"}) == [
        ("a", False), ("b", True), ("c", False),
    ]


def _quality():
    sys.path.insert(0, str(ROOT / "scripts"))  # quality.py imports noise_sweep beside it
    spec = importlib.util.spec_from_file_location("quality", ROOT / "scripts" / "quality.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


# scripts/quality.py's record per workload and seed: tubes extracted, ground-truth
# tubes, mAP@0.2 and @0.5 with true labels, the same with fused labels, and label
# accuracy. The evaluator over Box2Ds gave these numbers, and the evaluator over
# corner lists that replaced it gives them too; a change that moves one says why.
QUALITY = {
    ("crowded", 7): (156, 135, 0.9721, 0.8970, 0.9721, 0.8970, 1.0),
    ("crowded", 13): (147, 135, 0.9923, 0.9923, 0.9923, 0.9923, 1.0),
    ("many-short", 7): (1105, 800, 0.9940, 0.9435, 0.9940, 0.9435, 1.0),
    ("many-short", 13): (1100, 800, 0.9939, 0.9478, 0.9939, 0.9478, 1.0),
    ("long-video", 7): (78, 10, 0.2803, 0.0, 0.2803, 0.0, 1.0),
    ("long-video", 13): (44, 10, 0.8899, 0.1667, 0.8899, 0.1667, 1.0),
}


@pytest.mark.parametrize("workload, seed", sorted(QUALITY))
def test_quality_pins_recovery_on_every_workload(workload, seed):
    quality = _quality()
    synth = json.loads((ROOT / "perfbench" / "workloads.json").read_text(encoding="utf-8"))["workloads"][workload]["synth"]
    q = quality.measure(synth, seed)
    got = (q["tubes"], q["gt_tubes"], *(round(q[k], 4) for k in (
        "map@0.2", "map@0.5", "fused_map@0.2", "fused_map@0.5", "label_accuracy")))
    assert got == QUALITY[workload, seed]
