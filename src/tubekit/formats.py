"""File formats.

All files are line-delimited JSON, one record per line:

  detections  {"video_id", "frame", "boxes": [{"x1","y1","x2","y2","score"?}]}
  scores      {"video_id", "stream", "granularity", "clip_start", "crop_id",
               "kind", "values": [K reals]}
  tubes       {"video_id", "label", "start", "end", "score"?,
               "boxes": [[x1,y1,x2,y2] per frame]}
  report      {"delta", "class", "ap", "pr": [[recall, precision] ...], "map"}

Every file is written by one writer, ``_write_records``, with one JSON
encoder built once. The public writers only build records, with a fixed
field order and reals quantized to 6 significant digits, so identical
inputs always produce identical bytes. Each takes a path to write, or an
open text file to add its lines to. Readers ignore unknown extra
fields and reject schema violations, non-finite numbers included, with
the file, line and field named in the error.
"""
from __future__ import annotations

import json
import math
from typing import Iterable, Sequence

from .count_signal import FrameDetections
from .errors import ParseError, VocabularyError
from .evaluation import EvalReport, VideoTube
from .fusion import (
    FIXED_CROPS,
    GRANULARITIES,
    KINDS,
    PROB_SUM_TOL,
    STREAMS,
    ActionnessSeries,
    ClipScore,
    ScoreVector,
    StreamScoreSet,
)
from .geometry import Box2D, TemporalSpan, Tube


# Largest frame index a file may name. A video's per-frame work and output
# (count series, median window, actionness series) grow with its last frame.
MAX_FRAME = 10**6


def quantize(x: float) -> float:
    """Round to 6 significant digits, the precision written to files."""
    return float(f"{x:.6g}")


# built once: json.dumps with keyword arguments builds a new encoder per call
_encode = json.JSONEncoder(separators=(",", ":"), allow_nan=False).encode


def _write_records(out, records: Iterable[dict]) -> None:
    """One compact JSON object per line; every file is written here.

    ``out`` is a path to write, or an open text file to add the lines to.
    """
    if not hasattr(out, "write"):
        with open(out, "w", encoding="utf-8") as fh:
            _write_records(fh, records)
        return
    for record in records:
        out.write(_encode(record) + "\n")


# ---------------------------------------------------------------------------
# line-delimited JSON readers and writers


def _iter_records(path):
    with open(path, "r", encoding="utf-8") as fh:
        for line_no, line in enumerate(fh, start=1):
            if not line.strip():
                continue
            try:
                record = json.loads(line)
            except ValueError as exc:  # bad syntax, or an integer past the digit limit
                msg = exc.msg if isinstance(exc, json.JSONDecodeError) else str(exc)
                raise ParseError(path, line_no, None, f"invalid JSON ({msg})") from exc
            if not isinstance(record, dict):
                raise ParseError(path, line_no, None, "record is not an object")
            yield line_no, record


def _required(path, line_no, record, name):
    if name not in record:
        raise ParseError(path, line_no, name, "missing required field")
    return record[name]


def _field(path, line_no, record, name, json_type, type_name):
    value = record.get(name)
    if type(value) is json_type:  # exact: JSON gives no subclasses, and bool is not an int
        return value
    value = _required(path, line_no, record, name)
    raise ParseError(path, line_no, name, f"expected {type_name}, got {value!r}")


def _number(path, line_no, field, value) -> float:
    """A decoded JSON number as a finite float; anything else is a ParseError."""
    if type(value) is int:  # exact type checks: bool is a subclass of int
        try:
            value = float(value)
        except OverflowError:
            raise ParseError(path, line_no, field, "integer too large for a float") from None
    elif type(value) is not float:
        raise ParseError(path, line_no, field, f"expected a number, got {value!r}")
    if not math.isfinite(value):
        raise ParseError(path, line_no, field, f"expected a finite number, got {value!r}")
    return value


def _checked_box(path, line_no, x1, y1, x2, y2, score=None) -> Box2D:
    try:
        return Box2D(x1, y1, x2, y2, score)
    except ValueError as exc:
        raise ParseError(path, line_no, "boxes", str(exc)) from exc


def _detection_box(path, line_no, rb) -> Box2D:
    """A detections box checked field by field: x1, y1, x2, y2, score, then Box2D's checks."""
    if not isinstance(rb, dict):
        raise ParseError(path, line_no, "boxes", f"box is not an object: {rb!r}")
    x1, y1, x2, y2 = [
        _number(path, line_no, key, _required(path, line_no, rb, key)) for key in ("x1", "y1", "x2", "y2")
    ]
    score = rb.get("score")
    if score is not None:
        score = _number(path, line_no, "score", score)
    return _checked_box(path, line_no, x1, y1, x2, y2, score)


def _tube_box(path, line_no, rb) -> Box2D:
    """A tubes box checked value by value, then by Box2D."""
    if not isinstance(rb, list) or len(rb) != 4:
        raise ParseError(path, line_no, "boxes", f"expected [x1,y1,x2,y2], got {rb!r}")
    return _checked_box(path, line_no, *[_number(path, line_no, "boxes", v) for v in rb])


def _detection_box_record(b: Box2D) -> dict:
    rec = {"x1": quantize(b.x1), "y1": quantize(b.y1), "x2": quantize(b.x2), "y2": quantize(b.y2)}
    if b.score is not None:
        rec["score"] = quantize(b.score)
    return rec


def write_detections(path, videos: Iterable[FrameDetections]) -> None:
    _write_records(path, (
        {"video_id": dets.video_id, "frame": f, "boxes": [_detection_box_record(b) for b in dets.boxes_on(f)]}
        for dets in videos
        for f in range(dets.length)
    ))


def read_detections(path) -> list[FrameDetections]:
    """Videos in first-appearance order; a video's length is max frame + 1."""
    frames: dict[str, dict[int, tuple[Box2D, ...]]] = {}
    for line_no, record in _iter_records(path):
        vid = _field(path, line_no, record, "video_id", str, "a string")
        frame = _field(path, line_no, record, "frame", int, "an integer")
        if frame < 0:
            raise ParseError(path, line_no, "frame", f"negative frame index {frame}")
        if frame > MAX_FRAME:
            raise ParseError(path, line_no, "frame", f"frame index {frame} above the cap {MAX_FRAME}")
        raw_boxes = _field(path, line_no, record, "boxes", list, "an array")
        boxes = []
        for rb in raw_boxes:
            # Box2D refuses every non-finite coordinate, so float coordinates that it
            # accepts need no other check. Any other box is parsed again field by
            # field, which names its first fault.
            if type(rb) is dict:
                x1, y1, x2, y2, score = rb.get("x1"), rb.get("y1"), rb.get("x2"), rb.get("y2"), rb.get("score")
                if (
                    type(x1) is float and type(y1) is float and type(x2) is float and type(y2) is float
                    and (score is None or type(score) is float and math.isfinite(score))
                ):
                    try:
                        boxes.append(Box2D(x1, y1, x2, y2, score))
                        continue
                    except ValueError:
                        pass
            boxes.append(_detection_box(path, line_no, rb))
        per_video = frames.setdefault(vid, {})
        if frame in per_video:
            raise ParseError(path, line_no, "frame", f"duplicate frame {frame} for video {vid!r}")
        per_video[frame] = tuple(boxes)
    return [
        FrameDetections(video_id=vid, length=max(per_video) + 1, frames=per_video)
        for vid, per_video in frames.items()
    ]


def write_scores(path, sets: Iterable[StreamScoreSet]) -> None:
    _write_records(path, (
        {
            "video_id": s.video_id,
            "stream": s.stream,
            "granularity": s.granularity,
            "clip_start": e.clip_start,
            "crop_id": e.crop_id,
            "kind": e.vector.kind,
            "values": [quantize(v) for v in e.vector.values],
        }
        for s in sets
        for e in s.entries
    ))


_SCORE_FIELDS = ("video_id", "stream", "granularity", "crop_id", "kind", "clip_start", "values")


def _check_class_count(path, line_no, k: int, file_k: int) -> None:
    if k != file_k:
        raise ParseError(path, line_no, "values", f"class count {k} differs from {file_k} seen earlier in the file")


def _vocabulary_field(path, line_no, record, name, vocabulary) -> str:
    """A string field that must be one of ``vocabulary``."""
    value = _field(path, line_no, record, name, str, "a string")
    if value not in vocabulary:
        raise VocabularyError(path, line_no, name, f"unknown {name} {value!r}, expected one of {list(vocabulary)}")
    return value


def _score_entry(path, line_no, record, file_k) -> ClipScore:
    """A scores record checked field by field, in the order of ``_SCORE_FIELDS``."""
    _field(path, line_no, record, "video_id", str, "a string")
    _vocabulary_field(path, line_no, record, "stream", STREAMS)
    _vocabulary_field(path, line_no, record, "granularity", GRANULARITIES)
    crop = _vocabulary_field(path, line_no, record, "crop_id", FIXED_CROPS)
    kind = _vocabulary_field(path, line_no, record, "kind", KINDS)
    clip_start = _field(path, line_no, record, "clip_start", int, "an integer")
    if clip_start < 0:
        raise ParseError(path, line_no, "clip_start", f"negative clip_start {clip_start}")
    values = [
        _number(path, line_no, "values", v)
        for v in _field(path, line_no, record, "values", list, "an array")
    ]
    if file_k is not None:
        _check_class_count(path, line_no, len(values), file_k)
    try:
        return ClipScore(clip_start, crop, ScoreVector(tuple(values), kind))
    except ValueError as exc:
        raise ParseError(path, line_no, "values", str(exc)) from exc


def read_scores(path) -> dict[tuple[str, str, str], StreamScoreSet]:
    """Score sets keyed by (video, stream, granularity), entries sorted.

    The class count K must be consistent across the whole file, the kind
    within each set, and a ``prob`` vector must sum to 1 within PROB_SUM_TOL.
    """
    groups: dict[tuple[str, str, str], list[ClipScore]] = {}
    file_k = None
    for line_no, record in _iter_records(path):
        vid, stream, gran, crop, kind, clip_start, values = map(record.get, _SCORE_FIELDS)
        # ClipScore and ScoreVector check the crop, kind, clip_start and values; any
        # record that fails the checks here or theirs is parsed again field by field,
        # which names its first fault.
        entry = None
        if (
            type(vid) is str and stream in STREAMS and gran in GRANULARITIES
            and type(clip_start) is int and type(values) is list
            and all(type(v) is float for v in values)
        ):
            try:
                entry = ClipScore(clip_start, crop, ScoreVector(tuple(values), kind))
            except ValueError:
                pass
        if entry is None:
            entry = _score_entry(path, line_no, record, file_k)
        vector = entry.vector
        if file_k is None:
            file_k = vector.k
        else:
            _check_class_count(path, line_no, vector.k, file_k)
        if vector.kind == "prob":
            total = math.fsum(vector.values)
            if abs(total - 1.0) > PROB_SUM_TOL:
                raise ParseError(path, line_no, "values", f"probability vector sums to {total}, not 1")
        entries = groups.setdefault((vid, stream, gran), [])
        # a set's kind is the kind of its first record
        if entries and vector.kind != entries[0].vector.kind:
            raise ParseError(path, line_no, "kind", f"video {vid!r} {stream}/{gran}: mixed raw/prob score kinds in one set")
        entries.append(entry)
    return {
        (vid, stream, gran): StreamScoreSet(
            video_id=vid, stream=stream, granularity=gran,
            entries=tuple(sorted(entries, key=lambda e: (e.clip_start, e.crop_id))),
        )
        for (vid, stream, gran), entries in groups.items()
    }


def _tube_record(vid: str, tube: Tube) -> dict:
    record = {"video_id": vid, "label": tube.label, "start": tube.span.start, "end": tube.span.end}
    if tube.score is not None:
        record["score"] = quantize(tube.score)
    record["boxes"] = [[quantize(b.x1), quantize(b.y1), quantize(b.x2), quantize(b.y2)] for b in tube.boxes]
    return record


def write_tubes(path, tubes: Iterable[VideoTube]) -> None:
    _write_records(path, (_tube_record(vid, tube) for vid, tube in tubes))


def read_tubes(path, required: Sequence[str] = ()) -> list[VideoTube]:
    """Tube records in file order; used for ground truth and predictions alike.

    ``required`` names which of ``label`` and ``score`` every record must
    carry: predictions need both, ground truth needs ``label``. An optional
    one may be absent or null.
    """
    tubes: list[VideoTube] = []
    for line_no, record in _iter_records(path):
        vid = _field(path, line_no, record, "video_id", str, "a string")
        start = _field(path, line_no, record, "start", int, "an integer")
        end = _field(path, line_no, record, "end", int, "an integer")
        if end > MAX_FRAME:
            raise ParseError(path, line_no, "end", f"frame index {end} above the cap {MAX_FRAME}")
        label = record.get("label")
        if "label" in required:
            label = _field(path, line_no, record, "label", int, "an integer")
        elif label is not None and (isinstance(label, bool) or not isinstance(label, int)):
            raise ParseError(path, line_no, "label", f"expected an integer or null, got {label!r}")
        score = record.get("score")
        if score is not None or "score" in required:
            score = _number(path, line_no, "score", _required(path, line_no, record, "score"))
        raw_boxes = _field(path, line_no, record, "boxes", list, "an array")
        try:
            span = TemporalSpan(start, end)
        except ValueError as exc:
            raise ParseError(path, line_no, "start", str(exc)) from exc
        if len(raw_boxes) != span.length:
            raise ParseError(
                path, line_no, "boxes",
                f"{len(raw_boxes)} boxes for a span of length {span.length}",
            )
        boxes = []
        for rb in raw_boxes:
            # as in read_detections: finite floats that Box2D accepts, or a field-by-field parse
            if type(rb) is list and len(rb) == 4:
                x1, y1, x2, y2 = rb
                if type(x1) is float and type(y1) is float and type(x2) is float and type(y2) is float:
                    try:
                        boxes.append(Box2D(x1, y1, x2, y2))
                        continue
                    except ValueError:
                        pass
            boxes.append(_tube_box(path, line_no, rb))
        tubes.append(
            (vid, Tube(span=span, boxes=tuple(boxes), label=label, score=score))
        )
    return tubes


def write_report(path, report: EvalReport) -> None:
    _write_records(path, (
        {
            "delta": quantize(delta),
            "class": result.label,
            "ap": quantize(result.ap),
            "pr": [[quantize(r), quantize(p)] for r, p in result.pr],
            "map": quantize(report.map_by_delta[delta]),
        }
        for delta in report.deltas
        for result in report.per_delta[delta]
    ))


def read_report(path) -> list[dict]:
    """Raw report records, mainly for tests and downstream tooling."""
    rows = []
    for line_no, record in _iter_records(path):
        for key in ("delta", "class", "ap", "pr", "map"):
            _required(path, line_no, record, key)
        rows.append(record)
    return rows


def write_predictions(path, rows: Iterable[tuple[str, int, Sequence[float]]]) -> None:
    """Per-video fused label and score vector, as emitted by the fuse command."""
    _write_records(path, (
        {"video_id": vid, "label": label, "values": [quantize(v) for v in values]}
        for vid, label, values in rows
    ))


def read_predictions(path) -> list[tuple[str, int, list[float]]]:
    rows = []
    for line_no, record in _iter_records(path):
        vid = _field(path, line_no, record, "video_id", str, "a string")
        label = _field(path, line_no, record, "label", int, "an integer")
        values = _field(path, line_no, record, "values", list, "an array")
        rows.append((vid, label, [_number(path, line_no, "values", v) for v in values]))
    return rows


def write_actionness(
    path,
    rows: Iterable[tuple[str, int, float, ActionnessSeries, Sequence[tuple[int, int]], Sequence[float]]],
) -> None:
    """Per-video actionness record: class, threshold, series, gate, (start, end) spans and tube sums."""
    _write_records(path, (
        {
            "video_id": vid,
            "class": cls,
            "threshold": quantize(threshold),
            "series": [quantize(v) for v in series.values],
            "human": series.human_present,
            "spans": spans,
            "tube_sums": [quantize(v) for v in tube_sums],
        }
        for vid, cls, threshold, series, spans, tube_sums in rows
    ))
