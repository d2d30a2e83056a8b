"""The benchmark's own tests: ``python3 -m pytest perfbench -q`` from the repo root."""
from __future__ import annotations

import json
import shutil
import subprocess
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

import checks  # noqa: E402
import run  # noqa: E402
import traced  # noqa: E402
from pipeline import CliRunner, Pipeline  # noqa: E402
from tracer import Tracer, self_times  # noqa: E402

ACTIONNESS = ["--class", "0", "--threshold", "0.3"]


def small_workload(**synth) -> dict:
    base = {"videos": 10, "frames": 120, "persons": 2, "fp_rate": 0.0, "miss_rate": 0.0, "classes": 5}
    return {"synth": dict(base, **synth), "extract_tubes": [], "fuse": [], "evaluate": [],
            "actionness": ACTIONNESS}


def traced_metrics(tmp_path: Path, workload: dict) -> dict:
    workdir = tmp_path / "work"
    (workdir / "corpus").mkdir(parents=True)
    pipe = Pipeline(traced.serial(workload), 3, workdir, None)
    metrics, _ = traced.traced_run(ROOT, pipe, 0.0, tmp_path / "spans.jsonl")
    assert pipe.failures == []
    assert (tmp_path / "spans.jsonl").stat().st_size > 0
    shutil.rmtree(workdir)
    return metrics


def exact(metrics: dict) -> dict:
    return {k: v for k, v in metrics.items() if k in traced.EXACT}


def test_noiseless_corpus_counts(tmp_path):
    m = traced_metrics(tmp_path, small_workload())
    assert m["linking.tubes"] == 20
    assert m["count_signal.boxes_padded"] == 0
    assert set(m) == set(traced.UNITS)


def test_counts_repeat_exactly_across_runs(tmp_path):
    noisy = small_workload(persons=3, fp_rate=0.3, miss_rate=0.05)
    first = exact(traced_metrics(tmp_path / "a", noisy))
    second = exact(traced_metrics(tmp_path / "b", noisy))
    assert first == second
    assert len(first) == len(traced.EXACT)
    assert first["count_signal.boxes_padded"] > 0


def test_timed_run_reports_every_metric(tmp_path):
    workdir = tmp_path / "work"
    (workdir / "corpus").mkdir(parents=True)
    workload = small_workload()
    pipe = Pipeline(workload, 3, workdir, None)
    metrics, walls = run.timed_run(pipe, CliRunner(ROOT, tmp_path / "err.log"), 10 * 120, 0.0, workdir)
    assert pipe.failures == []
    setups, rounds = len(walls["setup_s"]), len(walls["extract_tubes_s"])
    assert setups == run.SETUP_REPEATS and rounds == run.MIN_ROUNDS
    assert pipe.attempted == setups + 4 * rounds
    assert set(metrics) == set(run.END_TO_END_UNITS)
    assert all(v > 0 for v in metrics.values())


def test_pinned_digest_mismatch_fails(tmp_path):
    workdir = tmp_path / "work"
    (workdir / "corpus").mkdir(parents=True)
    pinned = {name: "0" * 64 for name in ("detections.jsonl", "gt_tubes.jsonl", "scores.jsonl")}
    pipe = Pipeline(small_workload(videos=2), 3, workdir, pinned)
    pipe.step(CliRunner(ROOT, tmp_path / "err.log"), "synth")
    assert len(pipe.failures) == 1 and "pinned" in pipe.failures[0]


def test_strict_json_rejects_non_finite(tmp_path):
    path = tmp_path / "t.jsonl"
    path.write_text('{"video_id":"v","start":0,"end":0,"score":NaN,"boxes":[[0,0,1,1]]}\n')
    with pytest.raises(checks.CheckError, match="NaN"):
        checks.check_tubes(path, labeled=False)


def test_tube_check_wants_one_box_per_frame(tmp_path):
    path = tmp_path / "t.jsonl"
    path.write_text('{"video_id":"v","start":0,"end":2,"score":0.5,"boxes":[[0,0,1,1]]}\n')
    with pytest.raises(checks.CheckError, match="one box per frame"):
        checks.check_tubes(path, labeled=False)


def test_report_check_wants_every_delta_class_row(tmp_path):
    path = tmp_path / "r.jsonl"
    path.write_text('{"delta":0.5,"class":1,"ap":1.0,"pr":[[1.0,1.0]],"map":1.0}\n')
    assert checks.check_report(path, [0.5], {1}) == 1.0
    with pytest.raises(checks.CheckError, match="rows"):
        checks.check_report(path, [0.5], {1, 2})


def test_self_time_subtracts_children():
    tracer = Tracer()
    inner = tracer.wrap("inner", lambda: sum(range(10000)))
    outer = tracer.wrap("outer", lambda: inner() + inner())
    outer()
    spans = tracer.spans
    assert [s.name for s in spans] == ["outer", "inner", "inner"]
    assert spans[1].parent == 0 and spans[2].parent == 0
    own = self_times(spans)
    assert own[0] == pytest.approx(spans[0].duration - spans[1].duration - spans[2].duration)
    assert own[1] == spans[1].duration


def test_fails_without_program_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    command = json.loads((ROOT / "BENCHMARK.json").read_text())["command"]
    out = subprocess.run(command + ["--workload", "crowded", "--seed", "1", "--seconds", "1", "--trace", "0"],
                         cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert out.returncode != 0
    assert out.stdout == ""
