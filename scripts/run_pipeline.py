#!/usr/bin/env python3
"""Run the whole pipeline on a synthetic corpus and print the results.

Generates detections/scores/ground truth, links tubes, fuses video labels,
attaches those labels to the recovered tubes, evaluates video-mAP and
finally computes an actionness localization for one video. Everything goes
through the same subcommands the CLI exposes.
"""
import argparse
import json
import sys
from dataclasses import replace
from pathlib import Path

from tubekit import read_predictions, read_tubes, write_tubes
from tubekit.cli import main as tubekit


def sh(args):
    code = tubekit(args)
    if code != 0:
        sys.exit(code)


def run(workdir: Path, seed: int, videos: int) -> None:
    workdir.mkdir(parents=True, exist_ok=True)
    corpus = workdir / "corpus"

    sh(["synth", "--out-dir", str(corpus), "--seed", str(seed),
        "--videos", str(videos), "--frames", "100", "--persons", "2",
        "--fp-rate", "0.1", "--miss-rate", "0.05"])

    tubes = workdir / "pred_tubes.jsonl"
    sh(["extract-tubes", str(corpus / "detections.jsonl"), "--out", str(tubes)])

    preds = workdir / "predictions.jsonl"
    sh(["fuse", str(corpus / "scores.jsonl"), "--out", str(preds)])

    labels = {vid: label for vid, label, _ in read_predictions(preds)}
    labeled = workdir / "pred_labeled.jsonl"
    write_tubes(labeled, [(vid, replace(t, label=labels[vid])) for vid, t in read_tubes(tubes)])

    report = workdir / "report.jsonl"
    sh(["evaluate", str(labeled), str(corpus / "gt_tubes.jsonl"),
        "--deltas", "0.05,0.1,0.2,0.3,0.4,0.5", "--out", str(report)])

    some_class = next(iter(labels.values()))
    act = workdir / "actionness.jsonl"
    sh(["actionness", "--scores", str(corpus / "scores.jsonl"),
        "--tubes", str(labeled), "--class", str(some_class),
        "--threshold", "0.3", "--out", str(act)])

    first = json.loads(act.read_text().splitlines()[0])
    print(f"\nactionness sample: video {first['video_id']}, class {first['class']}, "
          f"spans {first['spans']}, tube sums {[round(s, 2) for s in first['tube_sums']]}")
    print(f"artifacts in {workdir}")


if __name__ == "__main__":
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--workdir", type=Path, default=Path("pipeline_run"))
    ap.add_argument("--seed", type=int, default=7)
    ap.add_argument("--videos", type=int, default=50)
    args = ap.parse_args()
    run(args.workdir, args.seed, args.videos)
