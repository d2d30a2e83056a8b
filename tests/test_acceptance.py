"""Acceptance suite: one test per release criterion, each printing a
PASS line with its measured numbers (run with ``pytest -s`` to see them).

The end-to-end criteria drive the real CLI on a 50-video synthetic corpus
(seed 7, 100 frames per video, two parallel planted tubes per video,
fp rate 0.1, miss rate 0.05) and evaluate recovered tubes against the
planted ground truth.
"""
import json
import math
import random
import time
from dataclasses import replace

import pytest

from tubekit import (
    Box2D,
    EvalConfig,
    FrameDetections,
    LinkingProblem,
    ScoreVector,
    TemporalSpan,
    Tube,
    actionness,
    aggregate_video,
    extract_tubes,
    ExtractionConfig,
    median_smooth,
    read_detections,
    read_predictions,
    read_tubes,
    softmax,
    video_map,
    viterbi_link,
    write_detections,
    write_tubes,
)
from tubekit.cli import main

from oracles import brute_force_eval, brute_force_link, loads_records, naive_median

CORPUS_ARGS = [
    "--seed", "7", "--videos", "50", "--frames", "100", "--persons", "2",
    "--fp-rate", "0.1", "--miss-rate", "0.05",
]


def _ok(criterion, detail):
    print(f"[acceptance] criterion {criterion}: PASS ({detail})")


@pytest.fixture(scope="module")
def corpus(tmp_path_factory):
    """Seed-7 corpus plus every pipeline artifact, produced by the CLI."""
    root = tmp_path_factory.mktemp("acceptance")
    data = root / "corpus"
    assert main(["synth", "--out-dir", str(data)] + CORPUS_ARGS) == 0

    timings = {}
    t0 = time.perf_counter()
    tubes_path = root / "pred_tubes.jsonl"
    assert main(["extract-tubes", str(data / "detections.jsonl"), "--out", str(tubes_path)]) == 0
    timings["extract"] = time.perf_counter() - t0

    pred_path = root / "predictions.jsonl"
    assert main(["fuse", str(data / "scores.jsonl"), "--out", str(pred_path)]) == 0

    # label the recovered tubes with their video's fused classification
    labels = {vid: label for vid, label, _ in read_predictions(pred_path)}
    labeled_path = root / "pred_labeled.jsonl"
    write_tubes(
        labeled_path,
        [(vid, replace(t, label=labels[vid])) for vid, t in read_tubes(tubes_path)],
    )

    t0 = time.perf_counter()
    report_path = root / "report.jsonl"
    assert main([
        "evaluate", str(labeled_path), str(data / "gt_tubes.jsonl"),
        "--deltas", "0.5", "--out", str(report_path),
    ]) == 0
    timings["evaluate"] = time.perf_counter() - t0

    return {
        "root": root,
        "data": data,
        "tubes": tubes_path,
        "predictions": pred_path,
        "labeled": labeled_path,
        "report": report_path,
        "timings": timings,
    }


def random_linking_problem(rng):
    n_frames = rng.randint(1, 6)
    cands = []
    for t in range(n_frames):
        frame = []
        for _ in range(rng.randint(1, 4)):
            x1 = rng.randint(0, 98)
            x2 = rng.randint(x1 + 1, 100)
            y1 = rng.randint(0, 98)
            y2 = rng.randint(y1 + 1, 100)
            frame.append(Box2D(float(x1), float(y1), float(x2), float(y2)))
        cands.append(tuple(frame))
    return LinkingProblem(span=TemporalSpan(0, n_frames - 1), candidates=tuple(cands))


def test_criterion_1_viterbi_optimality():
    rng = random.Random(2024)
    t0 = time.perf_counter()
    for _ in range(1000):
        problem = random_linking_problem(rng)
        fast = viterbi_link(problem)
        slow = brute_force_link(problem)
        assert fast.score == slow.score  # bit-equal
        assert fast == slow
    elapsed = time.perf_counter() - t0
    assert elapsed < 5.0
    _ok(1, f"1000 instances bit-equal to exhaustive search in {elapsed:.2f}s")


def test_criterion_2_median_filter_matches_reference():
    rng = random.Random(99)
    checked = 0
    for _ in range(1000):
        series = [rng.randint(0, 9) for _ in range(rng.randint(0, 200))]
        window = rng.choice([3, 80, 81])
        assert median_smooth(series, window) == naive_median(series, window)
        checked += 1
    _ok(2, f"{checked} random series exact against the sorted-window reference")


def test_criterion_3_end_to_end_tube_recovery(corpus):
    rows = [row for _, row in loads_records(corpus["report"])]
    assert rows, "empty evaluation report"
    video_map_05 = rows[0]["map"]
    assert all(row["map"] == video_map_05 for row in rows)
    elapsed = sum(corpus["timings"].values())
    assert video_map_05 >= 0.90
    assert elapsed < 10.0
    _ok(3, f"video-mAP@0.5 = {video_map_05:.4f} >= 0.90 in {elapsed:.2f}s")


def test_criterion_4_evaluation_matches_oracle():
    rng = random.Random(404)

    def rand_tube(label, score=None):
        start = rng.randint(0, 12)
        end = start + rng.randint(0, 12)
        x = float(rng.randint(0, 25))
        boxes = tuple(Box2D(x, 0.0, x + 10.0, 10.0) for f in range(start, end + 1))
        return Tube(span=TemporalSpan(start, end), boxes=boxes, label=label, score=score)

    deltas = (0.05, 0.1, 0.2, 0.3, 0.4, 0.5)
    for case in range(500):
        preds, gts = [], []
        for vid in ("a", "b"):
            for _ in range(rng.randint(0, 5)):
                gts.append((vid, rand_tube(rng.randrange(3))))
            for _ in range(rng.randint(0, 5)):
                preds.append((vid, rand_tube(rng.randrange(3), score=rng.random())))
        delta = rng.choice(deltas)
        oracle = brute_force_eval(preds, gts, delta)
        report = video_map(preds, gts, EvalConfig(deltas=deltas))
        got = {r.label: r.ap for r in report.per_delta[delta]}
        for c, ap in oracle.items():
            if ap is None:
                assert c not in got
            else:
                assert got[c] == ap  # exact
        maps = [report.map_by_delta[d] for d in deltas]
        assert all(a >= b - 1e-12 for a, b in zip(maps, maps[1:]))

    # perfect predictions score 1.0 at every threshold
    gts = [("v", rand_tube(c)) for c in range(3)]
    preds = [(vid, replace(t, score=0.9)) for vid, t in gts]
    report = video_map(preds, gts, EvalConfig(deltas=deltas))
    assert all(report.map_by_delta[d] == 1.0 for d in deltas)
    _ok(4, "500 instances equal the prefix-enumeration oracle; mAP monotone in delta")


def test_criterion_5_actionness_exactness_and_monotonicity():
    assert actionness(0.5, 1.0, 1.0) == 0.25
    assert abs(actionness(0.9, 0.8, 0.7) - 0.6676) <= 1e-4
    grid = [i / 9 for i in range(10)]
    values = {}
    for p in grid:
        for r in grid:
            for f in grid:
                values[(p, r, f)] = actionness(p, r, f)
    for axis in range(3):
        for a in grid:
            for b in grid:
                prev = None
                for x in grid:
                    key = [a, b]
                    key.insert(axis, x)
                    v = values[tuple(key)]
                    if prev is not None:
                        assert v >= prev - 1e-15
                    prev = v
    for p, r, f in values:
        assert (values[(p, r, f)] == 0.0) == (p == 0.0 or r == 0.0 or f == 0.0)
    _ok(5, "exact values match; monotone on the 10^3 grid; zero iff an input is zero")


def test_criterion_6_fusion_invariants():
    rng = random.Random(606)
    for _ in range(1000):
        k = rng.randint(1, 12)
        raw = ScoreVector(tuple(rng.uniform(-30, 30) for _ in range(k)))
        probs = softmax(raw)
        assert abs(math.fsum(probs.values) - 1.0) <= 1e-9
        shift = rng.uniform(-20, 20)
        shifted = softmax(ScoreVector(tuple(v + shift for v in raw.values)))
        assert all(abs(a - b) <= 1e-9 for a, b in zip(probs.values, shifted.values))

    for _ in range(200):
        units = [
            ScoreVector(tuple(rng.uniform(0, 1) for _ in range(4)))
            for _ in range(rng.randint(1, 8))
        ]
        shuffled = list(units)
        rng.shuffle(shuffled)
        for method in ("mean", "max"):
            la, va = aggregate_video(units, method)
            lb, vb = aggregate_video(shuffled, method)
            assert la == lb and va.values == vb.values  # exact

    # constructed vote tie: one vote each, class 0 has the higher mean score
    units = [ScoreVector((0.9, 0.1), kind="prob"), ScoreVector((0.2, 0.8), kind="prob")]
    label, fused = aggregate_video(units, "majority")
    assert label == 0
    assert fused.values == (0.5, 0.5)
    _ok(6, "softmax normalization and shift invariance within 1e-9; aggregation exact")


def test_criterion_7_min_length_rule(corpus):
    tubes = read_tubes(corpus["tubes"])
    assert tubes
    assert all(t.span.length >= 5 for _, t in tubes)

    # a region of exactly 4 boxed frames yields nothing
    frames = {f: (Box2D(0, 0, 30, 60),) for f in range(10, 14)}
    dets = FrameDetections(video_id="v", length=30, frames=frames)
    assert extract_tubes(dets, ExtractionConfig(median_window=3)) == []
    assert extract_tubes(dets) == []
    _ok(7, f"all {len(tubes)} corpus tubes have length >= 5; 4-frame region yields none")


def test_criterion_8_determinism_and_round_trips(corpus, tmp_path):
    data = corpus["data"]

    # every subcommand rerun on the same inputs produces identical bytes
    second = tmp_path / "second"
    assert main(["synth", "--out-dir", str(second)] + CORPUS_ARGS) == 0
    for name in ("detections.jsonl", "gt_tubes.jsonl", "scores.jsonl"):
        assert (second / name).read_bytes() == (data / name).read_bytes()

    tubes2 = tmp_path / "tubes2.jsonl"
    assert main(["extract-tubes", str(data / "detections.jsonl"), "--out", str(tubes2)]) == 0
    assert tubes2.read_bytes() == corpus["tubes"].read_bytes()

    pred2 = tmp_path / "pred2.jsonl"
    assert main(["fuse", str(data / "scores.jsonl"), "--out", str(pred2)]) == 0
    assert pred2.read_bytes() == corpus["predictions"].read_bytes()

    act1, act2 = tmp_path / "act1.jsonl", tmp_path / "act2.jsonl"
    for path in (act1, act2):
        assert main([
            "actionness", "--scores", str(data / "scores.jsonl"),
            "--detections", str(data / "detections.jsonl"),
            "--class", "0", "--threshold", "0.3", "--out", str(path),
        ]) == 0
    assert act1.read_bytes() == act2.read_bytes()

    report2 = tmp_path / "report2.jsonl"
    assert main([
        "evaluate", str(corpus["labeled"]), str(data / "gt_tubes.jsonl"),
        "--deltas", "0.5", "--out", str(report2),
    ]) == 0
    assert report2.read_bytes() == corpus["report"].read_bytes()

    # lossless value round-trips through the writers and readers
    dets = read_detections(data / "detections.jsonl")
    det_copy = tmp_path / "det_copy.jsonl"
    write_detections(det_copy, dets)
    assert read_detections(det_copy) == dets
    assert det_copy.read_bytes() == (data / "detections.jsonl").read_bytes()

    gt = read_tubes(data / "gt_tubes.jsonl")
    gt_copy = tmp_path / "gt_copy.jsonl"
    write_tubes(gt_copy, gt)
    assert read_tubes(gt_copy) == gt
    assert gt_copy.read_bytes() == (data / "gt_tubes.jsonl").read_bytes()

    # worker count never changes output bytes
    for n in ("2", "8"):
        alt = tmp_path / f"tubes_p{n}.jsonl"
        assert main([
            "extract-tubes", str(data / "detections.jsonl"), "--out", str(alt), "--parallel", n,
        ]) == 0
        assert alt.read_bytes() == corpus["tubes"].read_bytes()
        alt_dir = tmp_path / f"synth_p{n}"
        assert main(["synth", "--out-dir", str(alt_dir), "--parallel", n] + CORPUS_ARGS) == 0
        assert (alt_dir / "detections.jsonl").read_bytes() == (data / "detections.jsonl").read_bytes()
    _ok(8, "subcommands byte-idempotent; round-trips lossless; parallel 1/2/8 identical")
