"""Detection-count signal: smoothing and padding, on runs of equal counts.

The detection count per frame is denoised with a windowed median, and a
frame with fewer boxes than the smoothed count is padded up to it by
duplicating its largest box. A frame with no boxes is never padded, so
every frame that holds boxes ends with max(raw, smoothed) of them: the
expected count, without a series of its own.

Counts are piecewise constant, so ``DetectionCountSeries`` keeps them as
``(length, count)`` runs, the form of every per-frame signal here, built
by ``geometry._interval_runs`` from one interval per frame that holds
boxes, and a video's count work grows with those frames, not with its
last frame. ``median_smooth`` is the smoother's one per-frame form.
"""
from __future__ import annotations

from bisect import insort, bisect_left, bisect_right
from dataclasses import dataclass, field
from itertools import accumulate, groupby
from typing import Sequence

from .geometry import Box2D, TemporalSpan, _check_lengths, _interval_runs, _unchecked, runs


@dataclass(frozen=True)
class FrameDetections:
    """All detections of one video, keyed by frame index.

    Frames with no boxes are not stored: ``frames.get(f, ())`` is frame
    ``f``'s boxes. ``length`` is the total frame count of the video.
    """

    video_id: str
    length: int
    frames: dict[int, tuple[Box2D, ...]] = field(default_factory=dict)

    def __post_init__(self):
        if self.length < 0:
            raise ValueError(f"negative video length {self.length}")
        cleaned: dict[int, tuple[Box2D, ...]] = {}
        for f, boxes in self.frames.items():
            if not 0 <= f < self.length:
                raise ValueError(f"frame {f} outside [0, {self.length})")
            boxes = tuple(boxes)
            if boxes:
                cleaned[f] = boxes
        object.__setattr__(self, "frames", cleaned)

    def total_boxes(self) -> int:
        return sum(len(b) for b in self.frames.values())


def _median_runs(runs: Sequence[tuple[int, int]], window: int) -> list[tuple[int, int]]:
    """``median_smooth`` of a series given as ``(length, value)`` runs, into such runs.

    The smoothed runs cover the same frames, and neighbours differ in value.

    Going from frame t-1 to t, frame t + fwd enters the clamped window
    while it is a frame of the series, and frame t-1-back leaves once it
    is one. The median at t equals the median at t-1 unless the frames
    entering and leaving hold different counts. Between two cuts below,
    each of the two frames stays within one run (or is absent), so a
    stretch where the same count enters and leaves, or none does, costs
    one step; so does the whole video when the window, clamped at both
    edges, covers all of it. Only the frames of a stretch where the
    entering and leaving counts differ slide the sorted window.
    """
    if window < 1:
        raise ValueError(f"window must be >= 1, got {window}")
    starts = [0, *accumulate([m for m, _ in runs])]
    n = starts.pop()
    if n == 0:
        return []
    back = window // 2
    fwd = (window - 1) // 2
    enter_until = n - fwd  # frames before it take in frame t + fwd
    leave_from = back + 1  # frames from it on let go of frame t-1-back
    last = min(n - 1, fwd)  # the window at frame 0 is [0, last]
    buf: list[int] = []
    for s, (m, v) in zip(starts, runs):
        if s > last:
            break
        buf += [v] * min(m, last + 1 - s)
    buf.sort()
    med = buf[(len(buf) - 1) // 2]
    if enter_until <= 1 and leave_from >= n:
        return [(n, med)]  # the window covers the whole series at every frame
    values = [v for _, v in runs]
    out: list[tuple[int, int]] = []
    first = 0  # the smoothed run open from this frame holds med
    # the frames t at which frame t + fwd or frame t-1-back starts to be a
    # frame of the series, stops being one, or enters another run
    edges = (1, n, enter_until, leave_from, *(s - fwd for s in starts), *(s + leave_from for s in starts))
    cuts = sorted({c for c in edges if 1 <= c <= n})
    for a, b in zip(cuts, cuts[1:]):
        entering = values[bisect_right(starts, a + fwd) - 1] if a < enter_until else None
        leaving = values[bisect_right(starts, a - leave_from) - 1] if a >= leave_from else None
        if entering == leaving:
            continue
        for t in range(a, b):
            if entering is not None:
                insort(buf, entering)
            if leaving is not None:
                del buf[bisect_left(buf, leaving)]
            m = buf[(len(buf) - 1) // 2]
            if m != med:
                out.append((t - first, med))
                first, med = t, m
    out.append((n - first, med))
    return out


def median_smooth(series: Sequence[int], window: int) -> list[int]:
    """Windowed median with the window clamped to the series bounds.

    The window at position t covers [t - window//2, t + (window-1)//2]
    before clamping, so an even window of 80 covers [t-40, t+39]. When the
    clamped window holds an even number of samples the lower of the two
    middle order statistics is taken, keeping integer series integer.
    This is the per-frame form of the run smoother that
    ``DetectionCountSeries`` uses.
    """
    out: list[int] = []
    for n, v in _median_runs([(len(list(group)), v) for v, group in groupby(series)], window):
        out += [v] * n
    return out


def pad_detections(dets: FrameDetections, series: "DetectionCountSeries") -> FrameDetections:
    """Duplicate the largest box on frames with fewer boxes than the smoothed count.

    Frames with fewer boxes than their run of ``series`` counts gain copies
    of their largest-area box (first occurrence wins ties) until that count
    is reached. Frames with no boxes stay empty; frames with extra boxes
    are left intact. Every stored frame holds a box, so only the runs that
    count 2 or more are walked, beside the sorted frames that hold boxes.
    When no frame is short, ``dets`` itself is returned.
    """
    if len(series) != dets.length:
        raise ValueError(f"count series has {len(series)} frames for {dets.length} frames of detections")
    frames, keys = dets.frames, sorted(dets.frames)
    short: list[tuple[int, int]] = []
    start = 0
    for n, v in series.pieces:
        if v > 1:
            short += [(f, v) for f in keys[bisect_left(keys, start):bisect_left(keys, start + n)] if len(frames[f]) < v]
        start += n
    if not short:
        return dets
    frames = dict(frames)
    for f, v in short:
        boxes = frames[f]
        largest = max(boxes, key=lambda b: b.area)
        frames[f] = boxes + (largest,) * (v - len(boxes))
    # padding only adds copies of boxes to frames of dets that hold boxes
    return _unchecked(FrameDetections, video_id=dets.video_id, length=dets.length, frames=frames)


@dataclass(frozen=True)
class DetectionCountSeries:
    """Smoothed counts of one video, as ``(length, count)`` runs in frame order.

    Every length is a positive int, and neighbouring runs differ in count.
    ``from_detections`` takes one step per frame that holds boxes, to count
    them, and works per run to smooth them: only frames where the counts
    entering and leaving the median window differ cost a step of the
    sliding window. ``regions`` and ``pad_detections`` walk the runs. The
    raw counts are read only to smooth them, so they are not kept.
    """

    pieces: tuple[tuple[int, int], ...]

    def __post_init__(self):
        _check_lengths([n for n, _ in self.pieces])
        counts = [v for _, v in self.pieces]
        if any(a == b for a, b in zip(counts, counts[1:])):
            raise ValueError(f"neighbouring runs must differ in count, got {counts}")

    @classmethod
    def from_detections(cls, dets: FrameDetections, window: int) -> "DetectionCountSeries":
        frames = dets.frames
        counts = _interval_runs([(f, f + 1, len(frames[f])) for f in sorted(frames)], dets.length, 0)
        # the smoother's runs hold by construction
        return _unchecked(cls, pieces=tuple(_median_runs(counts, window)))

    def __len__(self) -> int:
        return sum([n for n, _ in self.pieces])

    def regions(self) -> list[TemporalSpan]:
        """Maximal spans of frames whose smoothed count is >= 1."""
        return runs([(n, v >= 1) for n, v in self.pieces])
