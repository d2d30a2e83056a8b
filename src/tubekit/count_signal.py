"""Per-frame detection-count signal: smoothing, expected counts, padding.

The detection count per frame is denoised with a windowed median, the
expected count is the elementwise max of the raw and smoothed signals, and
under-populated frames are padded by duplicating their largest box.
"""
from __future__ import annotations

from bisect import insort, bisect_left
from dataclasses import dataclass, field
from typing import Sequence

from .geometry import Box2D, TemporalSpan, runs


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


def count_series(dets: FrameDetections) -> list[int]:
    """Number of boxes per frame, one entry per frame in [0, length)."""
    return [len(dets.boxes_on(f)) for f in range(dets.length)]


def median_smooth(series: Sequence[int], window: int) -> list[int]:
    """Windowed median with the window clamped to the series bounds.

    The window at position t covers [t - window//2, t + (window-1)//2]
    before clamping, so an even window of 80 covers [t-40, t+39]. When the
    clamped window holds an even number of samples the lower of the two
    middle order statistics is taken, keeping integer series integer.
    """
    if window < 1:
        raise ValueError(f"window must be >= 1, got {window}")
    n = len(series)
    if n == 0:
        return []
    back = window // 2
    fwd = (window - 1) // 2
    out: list[int] = []
    buf: list[int] = []
    cur_lo, cur_hi = 0, -1  # inclusive bounds of the samples currently in buf
    for t in range(n):
        lo = max(0, t - back)
        hi = min(n - 1, t + fwd)
        while cur_hi < hi:
            cur_hi += 1
            insort(buf, series[cur_hi])
        while cur_lo < lo:
            buf.pop(bisect_left(buf, series[cur_lo]))
            cur_lo += 1
        out.append(buf[(len(buf) - 1) // 2])
    return out


def expected_counts(raw: Sequence[int], smoothed: Sequence[int]) -> list[int]:
    """Elementwise max of the raw and smoothed count series."""
    if len(raw) != len(smoothed):
        raise ValueError(f"length mismatch: {len(raw)} raw vs {len(smoothed)} smoothed")
    return [max(a, b) for a, b in zip(raw, smoothed)]


def pad_detections(dets: FrameDetections, expected: Sequence[int]) -> FrameDetections:
    """Duplicate the largest box on under-populated frames.

    Frames with fewer boxes than expected gain copies of their largest-area
    box (first occurrence wins ties) until the expected count is reached.
    Frames with no boxes stay empty; frames with extra boxes are left intact.
    """
    if len(expected) != dets.length:
        raise ValueError(
            f"expected series has {len(expected)} entries for {dets.length} frames"
        )
    frames: dict[int, tuple[Box2D, ...]] = {}
    for f, boxes in dets.frames.items():
        missing = expected[f] - len(boxes)
        if missing > 0:
            largest = max(boxes, key=lambda b: b.area)
            boxes = boxes + (largest,) * missing
        frames[f] = boxes
    return FrameDetections(video_id=dets.video_id, length=dets.length, frames=frames)


def continuous_regions(smoothed: Sequence[int]) -> list[TemporalSpan]:
    """Maximal runs of consecutive frames whose smoothed count is >= 1."""
    return runs(v >= 1 for v in smoothed)


@dataclass(frozen=True)
class DetectionCountSeries:
    """Smoothed and expected per-frame counts of one video.

    The raw counts are read only to compute these two, so they are not kept.
    """

    smoothed: tuple[int, ...]
    expected: tuple[int, ...]

    @classmethod
    def from_detections(cls, dets: FrameDetections, window: int) -> "DetectionCountSeries":
        raw = count_series(dets)
        smoothed = median_smooth(raw, window)
        return cls(tuple(smoothed), tuple(expected_counts(raw, smoothed)))
