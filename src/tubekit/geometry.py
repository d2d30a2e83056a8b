"""Box and tube geometry.

Boxes are continuous half-open rectangles [x1, x2) x [y1, y2) so that area
and IoU arithmetic is exact for integer-lattice inputs. Temporal spans are
inclusive integer frame ranges, and ``runs`` finds them in a per-frame
signal's ``(length, flag)`` runs; its inverse, ``_interval_runs``, builds
such runs from frame intervals. Everything here is immutable and pure.
"""
from __future__ import annotations

from dataclasses import dataclass
from itertools import chain
from math import fsum, inf
from typing import Iterable, Optional


def _unchecked(cls, **fields):
    """``cls(**fields)`` for a frozen dataclass, without its checks.

    For values whose checks hold by construction or were already made, by
    a reader record by record: see ``fusion.ScoreVector`` and
    ``count_signal.FrameDetections``.
    """
    obj = object.__new__(cls)
    obj.__dict__.update(fields)  # one update instead of a frozen-field assignment per field
    return obj


def _box_area(x1: float, y1: float, x2: float, y2: float) -> float:
    """The area of the box with these corners: the box rule, for ``Box2D`` and the readers that build none.

    Raises ValueError unless ``x1 < x2``, ``y1 < y2`` and the area is
    positive and finite.
    """
    if not (x1 < x2 and y1 < y2):
        raise ValueError(
            f"degenerate box ({x1}, {y1}, {x2}, {y2}): x1 < x2 and y1 < y2 required"
        )
    area = (x2 - x1) * (y2 - y1)
    # box_iou divides by the areas: an infinite one gives NaN, a zero one 0 / 0
    if not 0.0 < area < inf:
        raise ValueError(
            f"box ({x1}, {y1}, {x2}, {y2}) has area {area}: a positive finite area required"
        )
    return area


class _BoxSlots:
    """Box2D's storage; ``Box2D.__new__`` fills one and then retypes it."""

    __slots__ = ("x1", "y1", "x2", "y2", "score", "area")


# init=False: __new__ builds the box. No slots=True: it would build a second
# class, whose frozen __setattr__ (on Python 3.11) names the first class and
# so raises TypeError, not FrozenInstanceError, when ``area`` is assigned.
@dataclass(frozen=True, init=False)
class Box2D(_BoxSlots):
    """One axis-aligned detection rectangle; its container's frame key or offset gives its frame.

    A frozen dataclass of four corners and an optional score: ``==``,
    ``hash`` and ``repr`` cover those five fields. ``area`` is a slot, not a
    field; it is computed once, on creation.
    """

    __slots__ = ()

    x1: float
    y1: float
    x2: float
    y2: float
    score: Optional[float]

    def __new__(cls, x1: float, y1: float, x2: float, y2: float, score: Optional[float] = None):
        area = _box_area(x1, y1, x2, y2)
        # Filled as the writable base, then retyped: plain slot stores cost about
        # half of the object.__setattr__ calls that would get past the frozen
        # dataclass's __setattr__.
        self = _BoxSlots()
        self.x1 = x1
        self.y1 = y1
        self.x2 = x2
        self.y2 = y2
        self.score = score
        self.area = area
        self.__class__ = cls
        return self

    def __reduce__(self):
        # pickle and copy would restore the slots through the frozen __setattr__
        return (type(self), (self.x1, self.y1, self.x2, self.y2, self.score))


@dataclass(frozen=True)
class TemporalSpan:
    """Inclusive frame range [start, end]."""

    start: int
    end: int

    def __post_init__(self):
        if self.start < 0:
            raise ValueError(f"negative start frame {self.start}")
        if self.start > self.end:
            raise ValueError(f"empty span [{self.start}, {self.end}]")

    @property
    def length(self) -> int:
        return self.end - self.start + 1

    def frames(self) -> range:
        return range(self.start, self.end + 1)


def _check_lengths(lengths: Iterable[object]) -> None:
    """Raise ValueError unless every run length is a positive int; a bool is not one."""
    bad = [n for n in lengths if type(n) is not int or n < 1]
    if bad:
        raise ValueError(f"run of length {bad[0]!r}: a positive integer length required")


def runs(pieces: Iterable[tuple[int, object]], start: int = 0) -> list[TemporalSpan]:
    """Maximal spans of frames whose flag is true, from ``(length, flag)`` runs in frame order.

    The first run starts at frame ``start``; neighbouring true runs join. The
    one span finder: count regions, linkable pieces and actionness spans.
    """
    spans: list[TemporalSpan] = []
    first = None  # the start of the true runs so far
    for n, flag in chain(pieces, [(0, False)]):
        if not flag and first is not None:
            spans.append(TemporalSpan(first, start - 1))
            first = None
        elif flag and first is None:
            first = start
        start += n
    return spans


def _interval_runs(intervals: Iterable[tuple[int, int, object]], length: int, fill: object) -> list[tuple[int, object]]:
    """The frames ``[0, length)`` as ``(length, value)`` runs, from ``(start, stop, value)`` intervals.

    The inverse of ``runs``, and the one run builder (detection counts,
    human presence): the half-open intervals come sorted by start, those
    that overlap hold one value, frames that none covers hold ``fill``,
    and neighbouring runs differ in value.
    """
    out: list[tuple[int, object]] = []
    start = end = 0  # the open run holds frames [start, end), each of value
    value = fill
    # a last, empty interval whose value equals no other closes the open run
    for a, b, v in chain(intervals, [(length, length, object())]):
        if a > end:  # frames [end, a) hold fill
            if value != fill:
                out.append((end - start, value))
                start, value = end, fill
            end = a
        if v != value:  # then a == end, as overlapping intervals hold one value
            if end > start:
                out.append((end - start, value))
            start, value = a, v
        end = b if b > end else end
    return out


@dataclass(frozen=True)
class Tube:
    """A per-frame-contiguous sequence of boxes, one box per frame of span."""

    span: TemporalSpan
    boxes: tuple[Box2D, ...]
    label: Optional[int] = None
    score: Optional[float] = None

    def __post_init__(self):
        if len(self.boxes) != self.span.length:
            raise ValueError(
                f"tube has {len(self.boxes)} boxes for a span of length {self.span.length}"
            )


def box_iou(a: Box2D, b: Box2D) -> float:
    """Spatial intersection-over-union of two boxes.

    ``min`` and ``max`` are written out as the comparisons they make, so the
    result is bit-identical to ``min(a.x2, b.x2) - max(a.x1, b.x1)`` and so
    on; a builtin call would cost more than the rest of the arithmetic.
    """
    iw = (b.x2 if b.x2 < a.x2 else a.x2) - (b.x1 if b.x1 > a.x1 else a.x1)
    if iw <= 0.0:
        return 0.0
    ih = (b.y2 if b.y2 < a.y2 else a.y2) - (b.y1 if b.y1 > a.y1 else a.y1)
    if ih <= 0.0:
        return 0.0
    inter = iw * ih
    return inter / (a.area + b.area - inter)


def temporal_iou(a: TemporalSpan, b: TemporalSpan) -> float:
    """IoU of two inclusive frame ranges, counted over integer frames."""
    inter = min(a.end, b.end) - max(a.start, b.start) + 1
    if inter <= 0:
        return 0.0
    return inter / (a.length + b.length - inter)


def tube_iou(p: Tube, g: Tube) -> float:
    """Spatio-temporal tube overlap.

    Temporal IoU of the two spans multiplied by the mean spatial IoU of the
    per-frame box pairs over the temporally overlapping frames. Zero when
    the spans do not overlap (the spatial average is vacuous then).
    """
    t = temporal_iou(p.span, g.span)
    if t == 0.0:
        return 0.0
    lo = max(p.span.start, g.span.start)
    hi = min(p.span.end, g.span.end)
    pb = p.boxes[lo - p.span.start : hi - p.span.start + 1]
    gb = g.boxes[lo - g.span.start : hi - g.span.start + 1]
    return t * (fsum(map(box_iou, pb, gb)) / len(pb))
