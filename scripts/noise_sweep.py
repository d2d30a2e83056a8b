#!/usr/bin/env python3
"""Sweep detector noise rates and report tube-recovery video-mAP@0.5.

Useful for judging how much miss/false-positive noise the linking pipeline
tolerates before localization quality collapses.
"""
import argparse
from dataclasses import replace

from tubekit import (
    EvalConfig,
    SynthConfig,
    extract_tubes,
    generate_scene,
    video_map,
)


def recovery(detections, gt, labelings, deltas):
    """Each video's tubes, extracted with the default config and scored against ``gt`` once per labeling.

    A labeling maps each video to the label that its tubes get. Returns the
    number of tubes and one ``EvalReport`` per labeling, at ``deltas``.
    """
    tubes = [(dets.video_id, tube) for dets in detections for tube in extract_tubes(dets)]
    cfg = EvalConfig(deltas=deltas)
    return len(tubes), [
        video_map([(vid, replace(t, label=labels[vid])) for vid, t in tubes], gt, cfg) for labels in labelings
    ]


def recovery_map(seed, videos, miss_rate, fp_rate):
    cfg = SynthConfig(seed=seed, videos=videos, frames=100, persons=2,
                      miss_rate=miss_rate, fp_rate=fp_rate)
    detections, gt, _ = generate_scene(cfg)
    _, (report,) = recovery(detections, gt, [{vid: t.label for vid, t in gt}], (0.5,))
    return report.map_by_delta[0.5]


if __name__ == "__main__":
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--seed", type=int, default=7)
    ap.add_argument("--videos", type=int, default=25)
    args = ap.parse_args()

    print(f"{'miss':>6} {'fp':>6} {'mAP@0.5':>9}")
    for miss in (0.0, 0.02, 0.05, 0.1, 0.2):
        for fp in (0.0, 0.1, 0.3):
            m = recovery_map(args.seed, args.videos, miss, fp)
            print(f"{miss:>6.2f} {fp:>6.2f} {m:>9.4f}")
