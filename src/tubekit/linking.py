"""Viterbi box linking and iterative action-tube extraction.

Linking maximizes the summed IoU between boxes of consecutive frames over
one chosen box per frame; the optimum is found exactly by forward dynamic
programming with backtracking. Extraction repeatedly links and removes
boxes inside the continuous regions of the smoothed count signal until no
viable proposal remains.
"""
from __future__ import annotations

from dataclasses import dataclass

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
        for offset, frame_boxes in enumerate(self.candidates):
            frame = self.span.start + offset
            if not frame_boxes:
                raise EmptyFrameError(f"no candidate boxes on frame {frame}")
            for b in frame_boxes:
                if b.frame != frame:
                    raise ValueError(f"candidate on frame {frame} carries frame {b.frame}")


@dataclass(frozen=True)
class BoxPath:
    """A linked box sequence and its length-normalized link score.

    ``mean_link_score`` is the sum of consecutive-frame IoUs divided by the
    tube length T, hence it lies in [0, (T-1)/T] and is 0 for T == 1.
    """

    tube: Tube
    mean_link_score: float


def viterbi_link(problem: LinkingProblem) -> BoxPath:
    """Exact maximizer of the summed consecutive-frame IoU.

    Ties are broken deterministically towards the lowest candidate index,
    both in the forward argmax and at the final frame, so backtracking
    yields the optimal path whose reversed index sequence is smallest.
    """
    cands = problem.candidates
    n_frames = len(cands)
    best = [0.0] * len(cands[0])
    parents: list[list[int]] = []
    for t in range(1, n_frames):
        prev_boxes = cands[t - 1]
        cur_best: list[float] = []
        cur_parent: list[int] = []
        for box in cands[t]:
            arg, val = 0, best[0] + box_iou(prev_boxes[0], box)
            for i in range(1, len(prev_boxes)):
                v = best[i] + box_iou(prev_boxes[i], box)
                if v > val:
                    arg, val = i, v
            cur_best.append(val)
            cur_parent.append(arg)
        best = cur_best
        parents.append(cur_parent)

    last, total = 0, best[0]
    for j in range(1, len(best)):
        if best[j] > total:
            last, total = j, best[j]
    chosen = [0] * n_frames
    chosen[-1] = last
    for t in range(n_frames - 2, -1, -1):
        chosen[t] = parents[t][chosen[t + 1]]

    boxes = tuple(cands[t][chosen[t]] for t in range(n_frames))
    tube = Tube(span=problem.span, boxes=boxes)
    return BoxPath(tube=tube, mean_link_score=total / n_frames)


def extract_tubes(dets: FrameDetections, cfg: ExtractionConfig | None = None) -> list[Tube]:
    """Full iterative extraction pipeline for one video.

    Counts are smoothed and padded, then regions of the smoothed signal are
    processed longest-first (ties towards the earliest start). A region
    whose frames all still hold boxes is linked with ``viterbi_link``; the
    chosen boxes are removed and the region is re-queued. A region with
    emptied frames is split at them into sub-regions. Proposals shorter
    than ``min_tube_len`` are discarded. Output tubes are sorted by start
    frame, then by descending length, and carry their mean link score.
    """
    cfg = cfg or ExtractionConfig()
    counts = DetectionCountSeries.from_detections(dets, cfg.median_window)
    padded = pad_detections(dets, counts.expected)
    work: dict[int, list[Box2D]] = {f: list(boxes) for f, boxes in padded.frames.items()}

    queue: list[TemporalSpan] = continuous_regions(counts.smoothed)
    tubes: list[Tube] = []
    while queue:
        pick = max(range(len(queue)), key=lambda i: (queue[i].length, -queue[i].start))
        region = queue.pop(pick)
        if region.length < cfg.min_tube_len:
            continue
        pieces = runs((f in work for f in region.frames()), region.start)
        if len(pieces) == 1 and pieces[0] == region:
            problem = LinkingProblem(
                span=region,
                candidates=tuple(tuple(work[f]) for f in region.frames()),
            )
            path = viterbi_link(problem)
            tubes.append(
                Tube(span=region, boxes=path.tube.boxes, score=path.mean_link_score)
            )
            for box in path.tube.boxes:
                frame_boxes = work[box.frame]
                frame_boxes.pop(frame_boxes.index(box))
                if not frame_boxes:
                    del work[box.frame]
            queue.append(region)
        else:
            queue.extend(p for p in pieces if p.length >= cfg.min_tube_len)

    tubes.sort(key=lambda t: (t.span.start, -t.span.length))
    return tubes
