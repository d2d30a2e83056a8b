"""Video-AP and mAP for labeled action tubes.

Predictions are matched greedily in descending score order to the
not-yet-matched ground-truth tube of the same video (and class) with the
highest tube IoU; a match counts as a true positive iff that IoU reaches
the threshold. AP is the area under the precision envelope of the
precision-recall curve (all-point interpolation).
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

from .geometry import Tube, tube_iou

# (video_id, tube) pairs; tubes carry their own label and score.
VideoTube = tuple[str, Tube]

AP_METHOD = "all-point precision envelope"


@dataclass(frozen=True)
class EvalConfig:
    deltas: tuple[float, ...] = (0.05, 0.1, 0.2, 0.3, 0.4, 0.5)

    def __post_init__(self):
        object.__setattr__(self, "deltas", tuple(float(d) for d in self.deltas))
        if not self.deltas:
            raise ValueError("no IoU thresholds given")
        for d in self.deltas:
            if not 0.0 < d <= 1.0:
                raise ValueError(f"IoU threshold {d} outside (0, 1]")
        # compared as floats, so 0.5 and 0.50 are one threshold
        if len(set(self.deltas)) != len(self.deltas):
            raise ValueError("an IoU threshold is given twice")


@dataclass(frozen=True)
class ClassResult:
    label: int
    ap: float
    num_gt: int
    tp: int
    fp: int
    pr: tuple[tuple[float, float], ...]  # (recall, precision) per prediction rank


@dataclass(frozen=True)
class EvalReport:
    deltas: tuple[float, ...]
    per_delta: dict[float, tuple[ClassResult, ...]]
    map_by_delta: dict[float, float]


def _class_groups(
    preds: Sequence[VideoTube], gts: Sequence[VideoTube]
) -> dict[int, tuple[list[int], list[VideoTube]]]:
    """Per class: its prediction indices in score order and its ground truth.

    Score order is descending score, ties to the lower index.
    """
    class_preds: dict[int, list[int]] = {}
    class_gts: dict[int, list[VideoTube]] = {}
    for i in sorted(range(len(preds)), key=lambda i: (-preds[i][1].score, i)):
        class_preds.setdefault(preds[i][1].label, []).append(i)
    for row in gts:
        class_gts.setdefault(row[1].label, []).append(row)
    return {
        c: (class_preds.get(c, []), class_gts.get(c, []))
        for c in class_preds.keys() | class_gts.keys()
    }


# Per prediction of a class group: (ground-truth index, tube IoU) for each
# ground truth of the prediction's video, in ground-truth order.
IouRows = list[list[tuple[int, float]]]


def _iou_rows(
    preds: Sequence[VideoTube],
    ordered: Sequence[int],
    gts: Sequence[VideoTube],
) -> IouRows:
    """Each tube IoU of a class group, computed once for every threshold."""
    by_video: dict[str, list[int]] = {}
    for g, (gvid, _) in enumerate(gts):
        by_video.setdefault(gvid, []).append(g)
    rows = []
    for i in ordered:
        vid, tube = preds[i]
        rows.append([(g, tube_iou(tube, gts[g][1])) for g in by_video.get(vid, ())])
    return rows


def _greedy_flags(rows: IouRows, num_gt: int, delta: float) -> list[bool]:
    """TP/FP per row, in row order; each ground truth matches once.

    Ties in IoU go to the lowest ground-truth index, since rows keep
    ground-truth order and only a strictly larger IoU replaces the best.
    """
    matched = [False] * num_gt
    flags: list[bool] = []
    for row in rows:
        best_iou, best_g = 0.0, None
        for g, iou in row:
            if iou > best_iou and not matched[g]:
                best_iou, best_g = iou, g
        if best_g is not None and best_iou >= delta:
            matched[best_g] = True
            flags.append(True)
        else:
            flags.append(False)
    return flags


def _pr_points(flags: Sequence[bool], num_gt: int) -> tuple[tuple[float, float], ...]:
    pts = []
    tp = 0
    for k, flag in enumerate(flags, start=1):
        if flag:
            tp += 1
        pts.append((tp / num_gt if num_gt else 0.0, tp / k))
    return tuple(pts)


def _envelope_area(pr: Sequence[tuple[float, float]]) -> float:
    """Area under the precision envelope of (recall, precision) points; 0 when empty."""
    envelope = [p for _, p in pr]
    for k in range(len(envelope) - 2, -1, -1):
        if envelope[k + 1] > envelope[k]:
            envelope[k] = envelope[k + 1]
    ap = 0.0
    prev_r = 0.0
    for (r, _), p in zip(pr, envelope):
        ap += (r - prev_r) * p
        prev_r = r
    return ap


def video_map(
    preds: Sequence[VideoTube],
    gts: Sequence[VideoTube],
    cfg: EvalConfig,
) -> EvalReport:
    """Per-class AP and mAP at every configured IoU threshold.

    mAP averages only classes with at least one ground-truth tube; classes
    that appear only in the predictions are reported with AP 0 but do not
    enter the mean.
    """
    for vid, tube in preds:
        if tube.score is None or not math.isfinite(tube.score):
            raise ValueError(f"prediction in video {vid!r} has no finite score")
    for vid, tube in gts:
        if tube.label is None:
            raise ValueError(f"ground-truth tube in video {vid!r} has no label")
    for vid, tube in preds:
        if tube.label is None:
            raise ValueError(f"prediction in video {vid!r} has no label")
    groups = _class_groups(preds, gts)
    classes = sorted(groups)
    rows = {c: _iou_rows(preds, ordered, class_gts) for c, (ordered, class_gts) in groups.items()}

    per_delta: dict[float, tuple[ClassResult, ...]] = {}
    map_by_delta: dict[float, float] = {}
    for delta in cfg.deltas:
        results = []
        for c in classes:
            num_gt = len(groups[c][1])
            flags = _greedy_flags(rows[c], num_gt, delta)
            pr = _pr_points(flags, num_gt)
            results.append(
                ClassResult(
                    label=c,
                    # all recalls are 0 without ground truth, so the area is 0 too
                    ap=_envelope_area(pr),
                    num_gt=num_gt,
                    tp=sum(flags),
                    fp=len(flags) - sum(flags),
                    pr=pr,
                )
            )
        scored = [r.ap for r in results if r.num_gt > 0]
        per_delta[delta] = tuple(results)
        map_by_delta[delta] = math.fsum(scored) / len(scored) if scored else 0.0
    return EvalReport(deltas=cfg.deltas, per_delta=per_delta, map_by_delta=map_by_delta)
