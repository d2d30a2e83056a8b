#!/usr/bin/env python3
"""Tube-recovery quality on every benchmark workload: tubes, video-mAP and label accuracy.

    python3 scripts/quality.py --seeds 7,13

For each workload of ``perfbench/workloads.json``, which it only reads, and
each seed, the script generates the workload's synth corpus in memory and
extracts tubes with the default ``ExtractionConfig``, as the benchmark's
``extract-tubes`` does. It prints one line per workload and seed:

- the tubes extracted and the ground-truth tubes;
- video-mAP at tube IoU 0.2 and 0.5 with each tube given its video's true
  label, then with the label that ``fuse --method mean`` writes: the mean
  of the video's rgb net16 center-crop scores as the scores file holds them,
  at 6 significant digits;
- the share of videos whose fused label is the true one.
"""
from __future__ import annotations

import argparse
import json
from pathlib import Path

from noise_sweep import recovery
from tubekit import SynthConfig, generate_scene
from tubekit.formats import quantize
from tubekit.fusion import ScoreVector, fuse_video

ROOT = Path(__file__).resolve().parent.parent
DELTAS = (0.2, 0.5)


def fused_labels(score_sets) -> dict[str, int]:
    """Each video's ``fuse`` label at the command's defaults (--method mean, rgb, net16, center crops)."""
    labels = {}
    for s in score_sets:
        if s.stream == "rgb" and s.granularity == "net16":
            units = [ScoreVector(tuple(map(quantize, e.vector.values)), e.vector.kind) for e in s.entries]
            labels[s.video_id], _ = fuse_video([units], "mean")
    return labels


def measure(synth: dict, seed: int) -> dict:
    """The quality record of one workload's synth flags at one seed."""
    detections, gt, score_sets = generate_scene(SynthConfig(seed=seed, **synth))
    truth = {vid: t.label for vid, t in gt}
    fused = fused_labels(score_sets)
    tubes, (true_report, fused_report) = recovery(detections, gt, [truth, fused], DELTAS)
    return {
        "tubes": tubes,
        "gt_tubes": len(gt),
        **{f"map@{d}": true_report.map_by_delta[d] for d in DELTAS},
        **{f"fused_map@{d}": fused_report.map_by_delta[d] for d in DELTAS},
        "label_accuracy": sum(fused[vid] == label for vid, label in truth.items()) / len(truth),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", default="7,13", help="comma-separated synth seeds")
    args = parser.parse_args(argv)
    workloads = json.loads((ROOT / "perfbench" / "workloads.json").read_text(encoding="utf-8"))["workloads"]
    print(f"{'workload':12s} {'seed':>4s} {'tubes':>6s} {'gt':>5s} {'mAP@0.2':>8s} {'mAP@0.5':>8s} "
          f"{'fused@0.2':>9s} {'fused@0.5':>9s} {'label acc':>9s}")
    for name in sorted(workloads):
        for seed in map(int, args.seeds.split(",")):
            q = measure(workloads[name]["synth"], seed)
            print(f"{name:12s} {seed:4d} {q['tubes']:6d} {q['gt_tubes']:5d} {q['map@0.2']:8.4f} {q['map@0.5']:8.4f} "
                  f"{q['fused_map@0.2']:9.4f} {q['fused_map@0.5']:9.4f} {q['label_accuracy']:9.4f}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
