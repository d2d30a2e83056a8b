"""Detection-count signal: smoothing and padding, on runs of equal counts.

The detection count per frame is denoised with a windowed median, and a
frame with fewer boxes than the smoothed count is padded up to it by
duplicating its largest box. A frame with no boxes is never padded, so
every frame that holds boxes ends with max(raw, smoothed) of them: the
expected count, without a series of its own.

Counts are piecewise constant, so ``DetectionCountSeries`` keeps them as
runs of equal value, and a video's count work grows with its frames that
hold boxes, not with its last frame. ``median_smooth`` is the one
per-frame form: the same smoother over a list of counts.
"""
from __future__ import annotations

from bisect import insort, bisect_left, bisect_right
from dataclasses import dataclass, field
from typing import Sequence

from .geometry import Box2D, TemporalSpan, _unchecked


@dataclass(frozen=True)
class FrameDetections:
    """All detections of one video, keyed by frame index.

    Frames with no boxes are not stored; ``boxes_on`` returns an empty
    tuple for them. ``length`` is the total frame count of the video.
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

    def boxes_on(self, frame: int) -> tuple[Box2D, ...]:
        return self.frames.get(frame, ())

    def total_boxes(self) -> int:
        return sum(len(b) for b in self.frames.values())


def _count_runs(dets: FrameDetections) -> tuple[list[int], list[int]]:
    """The box counts of ``dets`` as runs, in the form ``_median_runs`` takes.

    One step per frame that holds boxes: each gap between them is a run of
    zeros, and neighbouring frames with equal counts share a run. Every
    stored frame holds boxes, so no two zero runs meet.
    """
    starts: list[int] = []
    values: list[int] = []
    frames = dets.frames
    end = 0  # the frame after the last run so far
    for f in sorted(frames):
        count = len(frames[f])
        if f > end:
            starts.append(end)
            values.append(0)
        if not values or values[-1] != count:
            starts.append(f)
            values.append(count)
        end = f + 1
    if end < dets.length:
        starts.append(end)
        values.append(0)
    return starts, values


def _median_runs(
    starts: Sequence[int], values: Sequence[int], n: int, window: int
) -> tuple[list[int], list[int]]:
    """``median_smooth`` of a series of ``n`` frames, from runs and into runs.

    Run i starts at frame ``starts[i]`` (the first at 0) and holds
    ``values[i]`` up to the next start; the smoothed series comes back in
    the same form, with neighbouring runs of different values.

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
    if n == 0:
        return [], []
    back = window // 2
    fwd = (window - 1) // 2
    enter_until = n - fwd  # frames before it take in frame t + fwd
    leave_from = back + 1  # frames from it on let go of frame t-1-back
    last = min(n - 1, fwd)  # the window at frame 0 is [0, last]
    buf: list[int] = []
    for s, e, v in zip(starts, [*starts[1:], n], values):
        if s > last:
            break
        buf += [v] * (min(e, last + 1) - s)
    buf.sort()
    med = buf[(len(buf) - 1) // 2]
    if enter_until <= 1 and leave_from >= n:
        return [0], [med]  # the window covers the whole series at every frame
    out_starts, out_values = [0], [med]
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
                out_starts.append(t)
                out_values.append(m)
                med = m
    return out_starts, out_values


def median_smooth(series: Sequence[int], window: int) -> list[int]:
    """Windowed median with the window clamped to the series bounds.

    The window at position t covers [t - window//2, t + (window-1)//2]
    before clamping, so an even window of 80 covers [t-40, t+39]. When the
    clamped window holds an even number of samples the lower of the two
    middle order statistics is taken, keeping integer series integer.
    This is the per-frame form of the run smoother that
    ``DetectionCountSeries`` uses.
    """
    n = len(series)
    starts = [t for t in range(n) if t == 0 or series[t] != series[t - 1]]
    starts, values = _median_runs(starts, [series[t] for t in starts], n, window)
    out: list[int] = []
    for s, e, v in zip(starts, [*starts[1:], n], values):
        out += [v] * (e - s)
    return out


def pad_detections(dets: FrameDetections, expected: Sequence[int]) -> FrameDetections:
    """Duplicate the largest box on under-populated frames.

    Frames with fewer boxes than expected gain copies of their largest-area
    box (first occurrence wins ties) until the expected count is reached.
    Frames with no boxes stay empty; frames with extra boxes are left intact.
    ``expected`` is indexed only at the frames that hold boxes, so a
    ``DetectionCountSeries`` serves as it is; when no frame is short,
    ``dets`` itself is returned.
    """
    if len(expected) != dets.length:
        raise ValueError(
            f"expected series has {len(expected)} entries for {dets.length} frames"
        )
    short = [f for f, boxes in dets.frames.items() if len(boxes) < expected[f]]
    if not short:
        return dets
    frames = dict(dets.frames)
    for f in short:
        boxes = frames[f]
        largest = max(boxes, key=lambda b: b.area)
        frames[f] = boxes + (largest,) * (expected[f] - len(boxes))
    # padding only adds copies of boxes to frames of dets that hold boxes
    return _unchecked(FrameDetections, video_id=dets.video_id, length=dets.length, frames=frames)


@dataclass(frozen=True)
class DetectionCountSeries:
    """Smoothed counts of one video, as runs of equal value.

    Run i covers the frames from ``starts[i]`` up to the next start, the
    last up to ``length``, and its smoothed count is ``values[i]``;
    neighbouring runs differ in value. ``from_detections`` takes one step
    per frame that holds boxes, to count them, and works per run to smooth
    them: only frames where the counts entering and leaving the median
    window differ cost a step of the sliding window. ``regions`` works per
    run, and indexing by frame looks up that frame's run, so padding looks
    up the frames that hold boxes and nothing else. The raw counts are
    read only to smooth them, so they are not kept.
    """

    length: int
    starts: tuple[int, ...]
    values: tuple[int, ...]

    def __post_init__(self):
        starts, values = self.starts, self.values
        if len(starts) != len(values):
            raise ValueError(f"{len(starts)} run starts for {len(values)} values")
        if (starts[0] != 0) if starts else (self.length != 0):
            raise ValueError(f"runs of a {self.length}-frame series must start at frame 0, got {starts[:1]}")
        if any(a >= b for a, b in zip(starts, starts[1:])) or (starts and starts[-1] >= self.length):
            raise ValueError(f"run starts must rise strictly within [0, {self.length}), got {starts}")
        if any(a == b for a, b in zip(values, values[1:])):
            raise ValueError(f"neighbouring runs must differ in value, got {values}")

    @classmethod
    def from_detections(cls, dets: FrameDetections, window: int) -> "DetectionCountSeries":
        starts, values = _median_runs(*_count_runs(dets), dets.length, window)
        # the smoother's runs hold by construction
        return _unchecked(cls, length=dets.length, starts=tuple(starts), values=tuple(values))

    def __len__(self) -> int:
        return self.length

    def __getitem__(self, frame: int) -> int:
        if not 0 <= frame < self.length:
            raise IndexError(f"frame {frame} outside [0, {self.length})")
        return self.values[bisect_right(self.starts, frame) - 1]

    def regions(self) -> list[TemporalSpan]:
        """Maximal spans of frames whose smoothed count is >= 1: one per chain of runs >= 1."""
        spans: list[TemporalSpan] = []
        first = None  # the start of the chain of positive runs so far
        for s, v in zip(self.starts, self.values):
            if v >= 1:
                if first is None:
                    first = s
            elif first is not None:
                spans.append(TemporalSpan(first, s - 1))
                first = None
        if first is not None:
            spans.append(TemporalSpan(first, self.length - 1))
        return spans
