"""Viterbi box linking and iterative action-tube extraction.

Linking maximizes the summed IoU between boxes of consecutive frames over
one chosen box per frame; the optimum is found exactly by forward dynamic
programming with backtracking. Extraction links, then splits: inside the
continuous regions of the smoothed count signal it links a run of frames
that still hold boxes, removes the chosen boxes and splits the run at the
frames this emptied, until no run is long enough to link. Runs are
disjoint, so the order in which they are linked does not change a tube.
"""
from __future__ import annotations

from dataclasses import dataclass
from itertools import repeat
from typing import Sequence

from .count_signal import DetectionCountSeries, FrameDetections, pad_detections
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

    total = max(best)
    last = best.index(total)
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
    """Full iterative extraction pipeline for one video: link, then split.

    Counts are smoothed and frames that hold boxes are padded up to the
    smoothed count. Each region of the smoothed signal is split into
    pieces, the runs of frames that still hold boxes; a piece is linked as
    ``viterbi_link`` would link it, its chosen boxes are removed, and it
    is split again at the frames this emptied. Pieces shorter than
    ``min_tube_len`` are dropped. Output tubes are sorted by start frame,
    then by descending length, and carry their mean link score.

    Pieces are disjoint and a link reads and removes only the boxes of its
    own frames, so the order in which pieces are linked cannot change a
    tube; tubes with equal start and length come from one piece linked
    again and again, and the stable sort keeps them in link order.

    The consecutive-frame IoUs are computed once per video, over the first
    pieces. Removing a box drops its index from its frame's active list,
    which keeps the candidate order, so each re-link equals a fresh
    ``viterbi_link`` over the remaining boxes. No per-frame list of the
    whole video is made: counting and padding take one step per frame
    that holds boxes, smoothing and finding the regions work per run of
    equal counts (see ``DetectionCountSeries``), and the IoU table and
    the links cover the frames of the pieces.
    """
    cfg = cfg or ExtractionConfig()
    counts = DetectionCountSeries.from_detections(dets, cfg.median_window)
    frames = pad_detections(dets, counts).frames
    active = {f: list(range(len(boxes))) for f, boxes in frames.items()}

    def pieces(span: TemporalSpan) -> list[TemporalSpan]:
        """The runs of frames of ``span`` that still hold active boxes, long enough to link."""
        found = runs(zip(repeat(1), map(active.get, span.frames())), span.start)
        return [p for p in found if p.length >= cfg.min_tube_len]

    todo = [p for r in counts.regions() for p in pieces(r)]
    table: dict[int, list[list[float]]] = {}
    for p in todo:
        table.update(zip(p.frames(), _iou_table([frames[f] for f in p.frames()])))

    tubes: list[Tube] = []
    while todo:
        span = todo.pop()
        picks, total = _link(table, active, span.start, span.end)
        # Boxes with equal corners tie at every step of the DP, which then
        # picks the first of them; so popping a pick drops the first active
        # box equal to it, as removal by list.remove would.
        # A frame whose last box goes ends a piece: the rest of the span is
        # split at those frames here, as ``pieces(span)`` would split it.
        boxes = []
        first = span.start  # the first frame of the open piece
        for f, k in zip(span.frames(), picks):
            free = active[f]
            boxes.append(frames[f][free.pop(k)])
            if not free:
                if f - first >= cfg.min_tube_len:
                    todo.append(TemporalSpan(first, f - 1))
                first = f + 1
        if span.end + 1 - first >= cfg.min_tube_len:
            todo.append(TemporalSpan(first, span.end))
        tubes.append(Tube(span=span, boxes=tuple(boxes), score=total / span.length))

    tubes.sort(key=lambda t: (t.span.start, -t.span.length))
    return tubes
