"""Viterbi box linking and iterative action-tube extraction.

Linking maximizes the summed IoU between boxes of consecutive frames over
one chosen box per frame; the optimum is found exactly by forward dynamic
programming with backtracking. Extraction repeatedly links and removes
boxes inside the continuous regions of the smoothed count signal until no
viable proposal remains.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from .count_signal import (
    DetectionCountSeries,
    FrameDetections,
    continuous_regions,
    pad_detections,
)
from .errors import EmptyFrameError
from .geometry import Box2D, TemporalSpan, Tube, box_iou, runs


@dataclass(frozen=True)
class ExtractionConfig:
    min_tube_len: int = 5
    median_window: int = 80

    def __post_init__(self):
        if self.min_tube_len < 1:
            raise ValueError(f"min_tube_len must be >= 1, got {self.min_tube_len}")
        if self.median_window < 1:
            raise ValueError(f"median_window must be >= 1, got {self.median_window}")


@dataclass(frozen=True)
class LinkingProblem:
    """Candidate boxes for every frame of a span; no frame may be empty."""

    span: TemporalSpan
    candidates: tuple[tuple[Box2D, ...], ...]

    def __post_init__(self):
        if len(self.candidates) != self.span.length:
            raise ValueError(
                f"{len(self.candidates)} candidate lists for a span of length {self.span.length}"
            )
        for frame, frame_boxes in zip(self.span.frames(), self.candidates):
            if not frame_boxes:
                raise EmptyFrameError(f"no candidate boxes on frame {frame}")


def _iou_table(frames: Sequence[Sequence[Box2D]]) -> list[list[list[float]]]:
    """IoUs of the boxes of consecutive frames, computed once.

    ``table[t][j][i]`` is ``box_iou`` of box i of ``frames[t-1]`` with box j
    of ``frames[t]``; a box of the first frame, or of a frame after an empty
    one, gets an empty row.
    """
    table = []
    prev: Sequence[Box2D] = ()
    for boxes in frames:
        table.append([[box_iou(a, b) for a in prev] for b in boxes])
        prev = boxes
    return table


def _link(table, active, start: int, end: int) -> tuple[list[int], float]:
    """Viterbi over frames ``start..end``, restricted to the ``active`` boxes.

    ``table[t]`` is the ``_iou_table`` entry of frame t, and ``active[t]``
    lists the indices of the boxes of frame t still available, in
    candidate order; both are indexed by frame, as lists or dicts.
    Returns the chosen position in ``active[t]`` for every frame and the
    summed IoU of the path. Ties go to the lowest position, both in the
    forward argmax and at the final frame.
    """
    best = [0.0] * len(active[start])
    parents: list[list[int]] = []
    for t in range(start + 1, end + 1):
        prev = active[t - 1]
        rows = table[t]
        cur_best: list[float] = []
        cur_parent: list[int] = []
        for j in active[t]:
            row = rows[j]
            arg, val = 0, best[0] + row[prev[0]]
            for k in range(1, len(prev)):
                v = best[k] + row[prev[k]]
                if v > val:
                    arg, val = k, v
            cur_best.append(val)
            cur_parent.append(arg)
        best = cur_best
        parents.append(cur_parent)

    last, total = 0, best[0]
    for j in range(1, len(best)):
        if best[j] > total:
            last, total = j, best[j]
    picks = [0] * (end - start + 1)
    picks[-1] = last
    for t in range(end - start - 1, -1, -1):
        picks[t] = parents[t][picks[t + 1]]
    return picks, total


def viterbi_link(problem: LinkingProblem) -> Tube:
    """Exact maximizer of the summed consecutive-frame IoU.

    The tube's score is that sum divided by the tube length T, hence it
    lies in [0, (T-1)/T] and is 0 for T == 1. Ties are broken
    deterministically towards the lowest candidate index, both in the
    forward argmax and at the final frame, so backtracking yields the
    optimal path whose reversed index sequence is smallest.
    """
    cands = problem.candidates
    picks, total = _link(_iou_table(cands), [list(range(len(c))) for c in cands], 0, len(cands) - 1)
    boxes = tuple(c[k] for c, k in zip(cands, picks))
    return Tube(span=problem.span, boxes=boxes, score=total / len(cands))


def extract_tubes(dets: FrameDetections, cfg: ExtractionConfig | None = None) -> list[Tube]:
    """Full iterative extraction pipeline for one video.

    Counts are smoothed and frames that hold boxes are padded up to the
    smoothed count, then regions of the smoothed signal are processed
    longest-first (ties towards the earliest start). A region whose frames
    all still hold boxes is linked as ``viterbi_link`` would link it; the
    chosen boxes are removed and the region is re-queued. A region with
    emptied frames is split at them into sub-regions. Proposals shorter
    than ``min_tube_len`` are discarded. Output tubes are sorted by
    start frame, then by descending length, and carry their mean link score.

    The consecutive-frame IoUs are computed once per video. Removing a box
    drops its index from its frame's active list, which keeps the
    candidate order, so each re-link equals a fresh ``viterbi_link`` over
    the remaining boxes.
    """
    cfg = cfg or ExtractionConfig()
    counts = DetectionCountSeries.from_detections(dets, cfg.median_window)
    frames = pad_detections(dets, counts.smoothed).frames
    active = {f: list(range(len(boxes))) for f, boxes in frames.items()}

    queue: list[TemporalSpan] = [
        r for r in continuous_regions(counts.smoothed) if r.length >= cfg.min_tube_len
    ]
    table: dict[int, list[list[float]]] = {}
    for r in queue:
        table.update(zip(r.frames(), _iou_table([frames.get(f, ()) for f in r.frames()])))

    tubes: list[Tube] = []
    while queue:
        pick = max(range(len(queue)), key=lambda i: (queue[i].length, -queue[i].start))
        region = queue.pop(pick)
        pieces = runs((active.get(f) for f in region.frames()), region.start)
        if len(pieces) == 1 and pieces[0] == region:
            picks, total = _link(table, active, region.start, region.end)
            # Boxes with equal corners tie at every step of the DP, which then
            # picks the first of them; so popping a pick drops the first active
            # box equal to it, as removal by list.remove would.
            boxes = tuple(
                frames[f][active[f].pop(k)] for f, k in zip(region.frames(), picks)
            )
            tubes.append(Tube(span=region, boxes=boxes, score=total / region.length))
            queue.append(region)
        else:
            queue.extend(p for p in pieces if p.length >= cfg.min_tube_len)

    tubes.sort(key=lambda t: (t.span.start, -t.span.length))
    return tubes
