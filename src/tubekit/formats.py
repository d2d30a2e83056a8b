"""File formats.

All files are line-delimited JSON, one record per line:

  detections  {"video_id", "frame", "boxes": [{"x1","y1","x2","y2","score"?}]}
  scores      {"video_id", "stream", "granularity", "clip_start", "crop_id",
               "kind", "values": [K reals]}
  tubes       {"video_id", "label", "start", "end", "score"?,
               "boxes": [[x1,y1,x2,y2] per frame]}
  report      {"delta", "class", "ap", "pr": [[recall, precision] ...], "map"}
  predictions {"video_id", "label", "values": [K reals]}
  actionness  {"video_id", "class", "threshold", "series": [reals per frame],
               "human": [bools per frame], "spans": [[start, end] ...],
               "tube_sums": [reals per tube]}

Every file is written by one writer, ``_write_records``, from lines that
the public writers render as text, with a fixed field order: a string is
json's own ``encode_basestring_ascii`` of it, an integer its digits, and
a real ``_real(x)``, its ``%.6g`` text, which is ``repr(quantize(x))``:
6 significant digits. A part shared by many lines, such as a video's
``"video_id"`` prefix, is rendered once; an actionness line, which
repeats a run's text once per frame, goes out in parts of at most 2**16
frames' text, so it is never held whole. So a line is what
``json.dumps(record, separators=(",", ":"), allow_nan=False)`` returns
for the record with its reals quantized, and identical inputs always
produce identical bytes. A non-finite real raises json's ValueError
before any of its line is written. Each writer takes a path to write, or
an open text file to add its lines to. Readers ignore unknown extra
fields and reject schema violations, non-finite numbers included, with
the file, line and field named in the error.

A reader decodes a line with json's scanner when the line is one object
that ends at its newline, as every writer's line does, and with
``json.loads`` otherwise, so both accept the same lines with the same
values. It checks a record once: the common record in one inline test,
after which its objects are built without a second check; any other
record is parsed again field by field, which names its first fault.
``read_scores``'s inline test finds a record's values all floats in one
C-level pass. It accepts records in any order, a set's records
interleaved with other sets', and looks a set up once per run of
consecutive records of it (video, stream, granularity): a file that
holds each set's records together, as ``write_scores`` writes it, costs
one lookup per set. ``read_scores`` can be told which (stream,
granularity, crop_id) entries to build: it checks every record in full,
builds only those, and returns every set that the file names, with only
its kept entries. ``read_tubes``
checks every box by the same rule in each of its three box forms: it
builds a ``Box2D`` per box; or no box, returning each record's video and
span; or no box, returning each record's video, span, label, score and
corners, one ``[x1, y1, x2, y2]`` list of floats per frame, which is what
``evaluate`` matches.
"""
from __future__ import annotations

import json
import math
from itertools import chain, repeat, starmap
from typing import Iterable, Sequence

from .count_signal import FrameDetections
from .errors import ParseError, VocabularyError
from .evaluation import EvalReport, TubeRow, VideoTube
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
from .geometry import Box2D, TemporalSpan, Tube, _box_area, _unchecked


# Largest frame index a file may name. Of what ``actionness`` does, only the
# text it writes, a real and a flag per frame, grows with a video's last frame.
MAX_FRAME = 10**6


def quantize(x: float) -> float:
    """Round to 6 significant digits, the precision written to files."""
    return float(f"{x:.6g}")


def _real(x: float) -> str:
    """``json.dumps(quantize(x), allow_nan=False)``, from one conversion to text.

    ``%.6g`` and repr write the same digits for a double that 6 digits name
    exactly, and json writes a float as its repr. They differ only in form: an
    integral ``%.6g`` text lacks repr's ``.0``; repr writes 1e6 to 1e16 in
    fixed notation; and a subnormal may round to fewer digits. Those texts, and
    ``inf`` and ``nan``, on which json raises its ValueError, take json's path.
    """
    s = "%.6g" % x
    if "e" in s:
        # 1e-307 is above the subnormals (< 2.2250738585072014e-308) and all that rounds into them
        if 1e-307 < abs(x) < 1e-4 or abs(x) >= 1e16:
            return s
    elif "." in s:
        return s
    elif "n" not in s:  # not inf or nan
        return s + ".0"
    return json.dumps(float(s), allow_nan=False)


def _reals(values: Sequence[float]) -> str:
    """The reals of a JSON array, without its brackets."""
    return ",".join(map(_real, values))


# json's own string encoder, with the ensure_ascii escapes that json.dumps writes
_string = json.encoder.encode_basestring_ascii


def _write_records(out, lines: Iterable[str]) -> None:
    """Write each record's line, newline included, whole or in parts; every file is written here.

    ``out`` is a path to write, or an open text file to add the lines to.
    """
    if not hasattr(out, "write"):
        with open(out, "w", encoding="utf-8") as fh:
            fh.writelines(lines)
        return
    out.writelines(lines)


# ---------------------------------------------------------------------------
# line-delimited JSON readers and writers


# json.loads(line) is this scanner called at the first non-whitespace character,
# behind a BOM check, a whitespace regex on each side and the extra-data check.
# The scanner is CPython's C one when _json is available; scan_once is not
# documented, and tests/test_formats.py pins that it exists.
_scan_once = json.JSONDecoder().scan_once


def _iter_records(path):
    # bytes, decoded a line at a time: text mode decodes ahead of the line it yields,
    # so its decode errors cannot name a line
    with open(path, "rb") as fh:
        for line_no, raw in enumerate(fh, start=1):
            try:
                line = raw.decode("utf-8")
            except UnicodeDecodeError as exc:
                raise ParseError(path, line_no, None, f"invalid UTF-8 ({exc.reason} at byte {exc.start})") from exc
            # The common line is one object that ends at the newline, or at the end of
            # the last line, and json.loads gives the same dict for it. Every other
            # line goes through json.loads: blank lines, whitespace around the object,
            # a BOM, trailing data, a non-object, and all that fails to scan.
            try:
                record, end = _scan_once(line, 0)
            except (StopIteration, ValueError, RecursionError):
                record = None
            else:
                rest = len(line) - end
                if not (type(record) is dict and (rest == 0 or rest == 1 and line[end] == "\n")):
                    record = None
            if record is None:
                if not line.strip():
                    continue
                record = _loads(path, line_no, line)
            yield line_no, record


def _loads(path, line_no, line) -> dict:
    """``json.loads(line)``, with a failure or a non-object as a ParseError."""
    try:
        record = json.loads(line)
    except ValueError as exc:  # bad syntax, or an integer past the digit limit
        msg = exc.msg if isinstance(exc, json.JSONDecodeError) else str(exc)
        raise ParseError(path, line_no, None, f"invalid JSON ({msg})") from exc
    except RecursionError as exc:
        raise ParseError(path, line_no, None, "invalid JSON (nesting too deep)") from exc
    if not isinstance(record, dict):
        raise ParseError(path, line_no, None, "record is not an object")
    return record


# longest repr of an input value that an error echoes: a few dozen characters
# name the fault, and a value can be megabytes long
_SHOWN_MAX = 80


def _shown(value) -> str:
    """``repr(value)``, cut after _SHOWN_MAX characters with the cut marked."""
    text = repr(value)
    if len(text) <= _SHOWN_MAX:
        return text
    return f"{text[:_SHOWN_MAX]}... [{len(text)} characters]"


def _required(path, line_no, record, name):
    if name not in record:
        raise ParseError(path, line_no, name, "missing required field")
    return record[name]


def _field(path, line_no, record, name, json_type, type_name):
    value = record.get(name)
    if type(value) is json_type:  # exact: JSON gives no subclasses, and bool is not an int
        return value
    value = _required(path, line_no, record, name)
    raise ParseError(path, line_no, name, f"expected {type_name}, got {_shown(value)}")


def _number(path, line_no, field, value) -> float:
    """A decoded JSON number as a finite float; anything else is a ParseError."""
    if type(value) is int:  # exact type checks: bool is a subclass of int
        try:
            value = float(value)
        except OverflowError:
            raise ParseError(path, line_no, field, "integer too large for a float") from None
    elif type(value) is not float:
        raise ParseError(path, line_no, field, f"expected a number, got {_shown(value)}")
    if not math.isfinite(value):
        raise ParseError(path, line_no, field, f"expected a finite number, got {_shown(value)}")
    return value


def _checked_box(path, line_no, x1, y1, x2, y2, score=None) -> Box2D:
    try:
        return Box2D(x1, y1, x2, y2, score)
    except ValueError as exc:
        raise ParseError(path, line_no, "boxes", str(exc)) from exc


def _detection_box(path, line_no, rb) -> Box2D:
    """A detections box checked field by field: x1, y1, x2, y2, score, then Box2D's checks."""
    if not isinstance(rb, dict):
        raise ParseError(path, line_no, "boxes", f"box is not an object: {_shown(rb)}")
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
        raise ParseError(path, line_no, "boxes", f"expected [x1,y1,x2,y2], got {_shown(rb)}")
    return _checked_box(path, line_no, *[_number(path, line_no, "boxes", v) for v in rb])


def _detection_box_text(b: Box2D) -> str:
    corners = _real(b.x1), _real(b.y1), _real(b.x2), _real(b.y2)
    if b.score is None:
        return '{"x1":%s,"y1":%s,"x2":%s,"y2":%s}' % corners
    return '{"x1":%s,"y1":%s,"x2":%s,"y2":%s,"score":%s}' % (*corners, _real(b.score))


def write_detections(path, videos: Iterable[FrameDetections]) -> None:
    def lines():
        for dets in videos:
            head = '{"video_id":%s,"frame":' % _string(dets.video_id)
            for f in range(dets.length):
                boxes = ",".join(map(_detection_box_text, dets.frames.get(f, ())))
                yield f'{head}{f},"boxes":[{boxes}]}}\n'

    _write_records(path, lines())


_DETECTION_FIELDS = ("video_id", "frame", "boxes")


def _detection_fields(path, line_no, record) -> tuple[str, int, list]:
    """A detections record's video_id, frame and boxes, checked field by field in that order."""
    vid = _field(path, line_no, record, "video_id", str, "a string")
    frame = _field(path, line_no, record, "frame", int, "an integer")
    if frame < 0:
        raise ParseError(path, line_no, "frame", f"negative frame index {frame}")
    if frame > MAX_FRAME:
        raise ParseError(path, line_no, "frame", f"frame index {frame} above the cap {MAX_FRAME}")
    return vid, frame, _field(path, line_no, record, "boxes", list, "an array")


def read_detections(path) -> list[FrameDetections]:
    """Videos in first-appearance order; a video's length is max frame + 1."""
    frames: dict[str, dict[int, tuple[Box2D, ...]]] = {}
    for line_no, record in _iter_records(path):
        vid, frame, raw_boxes = map(record.get, _DETECTION_FIELDS)
        # the checks of _detection_fields in one test; a record that fails it is
        # parsed again field by field, which names its first fault
        if not (type(vid) is str and type(frame) is int and 0 <= frame <= MAX_FRAME and type(raw_boxes) is list):
            vid, frame, raw_boxes = _detection_fields(path, line_no, record)
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
            raise ParseError(path, line_no, "frame", f"duplicate frame {frame} for video {_shown(vid)}")
        per_video[frame] = tuple(boxes)
    # every frame index and box is checked above, so the videos are built
    # unchecked; a video's empty frames count for its length, and are dropped
    return [
        _unchecked(
            FrameDetections, video_id=vid, length=max(per_video) + 1,
            frames=per_video if all(per_video.values()) else {f: b for f, b in per_video.items() if b},
        )
        for vid, per_video in frames.items()
    ]


def write_scores(path, sets: Iterable[StreamScoreSet]) -> None:
    def lines():
        for s in sets:
            head = '{"video_id":%s,"stream":%s,"granularity":%s,"clip_start":' % (
                _string(s.video_id), _string(s.stream), _string(s.granularity),
            )
            for e in s.entries:
                yield (
                    f'{head}{e.clip_start:d},"crop_id":{_string(e.crop_id)},"kind":{_string(e.vector.kind)},'
                    f'"values":[{_reals(e.vector.values)}]}}\n'
                )

    _write_records(path, lines())


_SCORE_FIELDS = ("video_id", "stream", "granularity", "crop_id", "kind", "clip_start", "values")
# the types of a non-empty list of floats, tested in one C-level pass: set(map(type, values))
_FLOAT_TYPE = frozenset({float})


def _check_class_count(path, line_no, k: int, file_k: int) -> None:
    if k != file_k:
        raise ParseError(path, line_no, "values", f"class count {k} differs from {file_k} seen earlier in the file")


def _vocabulary_field(path, line_no, record, name, vocabulary) -> str:
    """A string field that must be one of ``vocabulary``."""
    value = _field(path, line_no, record, name, str, "a string")
    if value not in vocabulary:
        raise VocabularyError(path, line_no, name, f"unknown {name} {_shown(value)}, expected one of {list(vocabulary)}")
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


def read_scores(path, keep=None) -> dict[tuple[str, str, str], StreamScoreSet]:
    """Score sets keyed by (video, stream, granularity), entries sorted.

    The class count K must be consistent across the whole file, the kind
    within each set, and a ``prob`` vector must sum to 1 within PROB_SUM_TOL.
    A set holds at most one record per (clip_start, crop_id). The sets are
    built unchecked: each record was checked here, with its line number.
    Records may come in any order; a set is looked up once per run of its
    consecutive records.

    ``keep``, if given, holds the (stream, granularity, crop_id) triples
    whose entries to build. A record it refuses is checked in full, the
    file-wide checks above included, but its entry is not built (a record
    that takes the field-by-field parse is built by that parse's checks,
    then dropped). Every set that the file names is returned, with only its
    kept entries, which may be none.
    """
    # per set: the kind of its first record, and its entries by unit (None for a refused record)
    groups: dict[tuple[str, str, str], tuple[str, dict[tuple[int, str], ClipScore | None]]] = {}
    file_k = None
    # the set of the previous record: a file holds a set's records one after another,
    # so a set is looked up once per run of its records, yet records come in any order
    cur_vid = cur_stream = cur_gran = set_kind = units = None
    for line_no, record in _iter_records(path):
        vid, stream, gran, crop, kind, clip_start, values = map(record.get, _SCORE_FIELDS)
        # The checks of ClipScore and ScoreVector, made once, here, on a record whose
        # values are all floats. Every other record, integer values included, is
        # parsed field by field, which names its first fault.
        if (
            type(vid) is str and stream in STREAMS and gran in GRANULARITIES
            and crop in FIXED_CROPS and kind in KINDS
            and type(clip_start) is int and clip_start >= 0
            and type(values) is list and set(map(type, values)) == _FLOAT_TYPE  # non-empty, all floats
            and all(map(math.isfinite, values))
            and (kind == "raw" or 0.0 <= min(values) and max(values) <= 1.0)
        ):
            if keep is None or (stream, gran, crop) in keep:
                vector = _unchecked(ScoreVector, values=tuple(values), kind=kind)
                entry = _unchecked(ClipScore, clip_start=clip_start, crop_id=crop, vector=vector)
            else:
                entry = None
        else:
            entry = _score_entry(path, line_no, record, file_k)
            clip_start, values, kind = entry.clip_start, entry.vector.values, entry.vector.kind
            if keep is not None and (stream, gran, crop) not in keep:
                entry = None
        if file_k is None:
            file_k = len(values)
        else:
            _check_class_count(path, line_no, len(values), file_k)
        if kind == "prob":
            total = math.fsum(values)
            if abs(total - 1.0) > PROB_SUM_TOL:
                raise ParseError(path, line_no, "values", f"probability vector sums to {total}, not 1")
        if vid != cur_vid or stream != cur_stream or gran != cur_gran:
            cur_vid, cur_stream, cur_gran = vid, stream, gran
            group = groups.get((vid, stream, gran))
            if group is None:
                group = groups[vid, stream, gran] = (kind, {})
            set_kind, units = group
        if kind != set_kind:
            raise ParseError(path, line_no, "kind", f"video {_shown(vid)} {stream}/{gran}: mixed raw/prob score kinds in one set")
        unit = (clip_start, crop)
        if unit in units:
            raise ParseError(path, line_no, "crop_id", f"video {_shown(vid)} {stream}/{gran}: repeated record for clip_start {unit[0]}, crop_id {unit[1]!r}")
        units[unit] = entry
    return {
        (vid, stream, gran): _unchecked(
            StreamScoreSet, video_id=vid, stream=stream, granularity=gran,
            entries=tuple([entry for unit in sorted(units) if (entry := units[unit]) is not None]),
        )
        for (vid, stream, gran), (_, units) in groups.items()
    }


def _tube_line(vid: str, tube: Tube) -> str:
    label = "null" if tube.label is None else "%d" % tube.label
    score = "" if tube.score is None else ',"score":' + _real(tube.score)
    boxes = ",".join([f"[{_real(b.x1)},{_real(b.y1)},{_real(b.x2)},{_real(b.y2)}]" for b in tube.boxes])
    return (
        f'{{"video_id":{_string(vid)},"label":{label},'
        f'"start":{tube.span.start:d},"end":{tube.span.end:d}{score},"boxes":[{boxes}]}}\n'
    )


def write_tubes(path, tubes: Iterable[VideoTube]) -> None:
    _write_records(path, (_tube_line(vid, tube) for vid, tube in tubes))


def read_tubes(
    path, required: Sequence[str] = (), boxes: bool | str = True
) -> list[VideoTube] | list[tuple[str, TemporalSpan]] | list[TubeRow]:
    """Tube records in file order; used for ground truth and predictions alike.

    ``required`` names which of ``label`` and ``score`` every record must
    carry: predictions need both, ground truth needs ``label``. An optional
    one may be absent or null.

    ``boxes`` chooses what is built of a record, which is checked in full,
    every box included, whatever is built: ``True`` gives ``(video_id,
    Tube)``; ``False`` gives ``(video_id, span)`` and builds no box;
    ``"corners"`` gives the ``TubeRow`` ``(video_id, span, label, score,
    corners)`` that ``video_map_rows`` matches, where ``corners[k]`` is
    frame ``span.start + k``'s ``[x1, y1, x2, y2]``, as floats: the decoded
    list itself for a box whose corners are all floats, and the checked
    floats of the field-by-field parse for any other.
    """
    if not (boxes is True or boxes is False or boxes == "corners"):
        raise ValueError(f"boxes must be True, False or 'corners', got {boxes!r}")
    # a box whose corners are all floats is checked by the box rule, and built only if boxes is True
    fast_box = Box2D if boxes is True else _box_area
    tubes: list = []
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
            raise ParseError(path, line_no, "label", f"expected an integer or null, got {_shown(label)}")
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
        built = []
        for rb in raw_boxes:
            # as in read_detections: finite floats that the box rule accepts, or a field-by-field parse,
            # whose checked floats then stand in the record for the corners it decoded
            if type(rb) is list and len(rb) == 4:
                x1, y1, x2, y2 = rb
                if type(x1) is float and type(y1) is float and type(x2) is float and type(y2) is float:
                    try:
                        built.append(fast_box(x1, y1, x2, y2))
                        continue
                    except ValueError:
                        pass
            box = _tube_box(path, line_no, rb)
            raw_boxes[len(built)] = [box.x1, box.y1, box.x2, box.y2]
            built.append(box)
        if boxes is True:
            tubes.append((vid, Tube(span=span, boxes=tuple(built), label=label, score=score)))
        elif boxes is False:
            tubes.append((vid, span))
        else:
            tubes.append((vid, span, label, score, raw_boxes))
    return tubes


def write_report(path, report: EvalReport) -> None:
    def lines():
        for delta in report.deltas:
            head = '{"delta":%s,"class":' % _real(delta)
            tail = ',"map":%s}\n' % _real(report.map_by_delta[delta])
            for result in report.per_delta[delta]:
                pr = ",".join([f"[{_real(r)},{_real(p)}]" for r, p in result.pr])
                yield f'{head}{result.label:d},"ap":{_real(result.ap)},"pr":[{pr}]{tail}'

    _write_records(path, lines())


def write_predictions(path, rows: Iterable[tuple[str, int, Sequence[float]]]) -> None:
    """Per-video fused label and score vector, as emitted by the fuse command."""
    _write_records(path, (
        f'{{"video_id":{_string(vid)},"label":{label:d},"values":[{_reals(values)}]}}\n'
        for vid, label, values in rows
    ))


def read_predictions(path) -> list[tuple[str, int, list[float]]]:
    """(video_id, label, values) per record: a label in [0, len(values)), values non-empty and finite."""
    rows = []
    for line_no, record in _iter_records(path):
        vid = _field(path, line_no, record, "video_id", str, "a string")
        label = _field(path, line_no, record, "label", int, "an integer")
        values = _field(path, line_no, record, "values", list, "an array")
        values = [_number(path, line_no, "values", v) for v in values]
        if not values:
            raise ParseError(path, line_no, "values", "empty score vector")
        if not 0 <= label < len(values):
            raise ParseError(path, line_no, "label", f"label {label} outside [0, {len(values)})")
        rows.append((vid, label, values))
    return rows


def write_actionness(
    path,
    rows: Iterable[tuple[str, int, float, ActionnessSeries, Sequence[tuple[int, int]], Sequence[float]]],
) -> None:
    """Per-video actionness record: class, threshold, series, gate, (start, end) spans and tube sums."""
    # a record goes out in parts, so its line is never joined whole; unlike a generator
    # expression's loop variable, starmap holds no row past the writing of its parts
    _write_records(path, chain.from_iterable(starmap(_actionness_parts, rows)))


_BOOLS = ("false", "true")  # indexed by a bool

# most frames in one part: a text file copies each part it is given into bytes,
# so a part's size, not a run's, bounds what writing a long run holds at once
_PART_FRAMES = 2**16


def _frame_parts(texts: Sequence[str], lengths: Sequence[int]):
    """Each run's text once per frame, comma-separated, in parts of at most _PART_FRAMES frames, never joined."""
    if texts:
        yield texts[0]  # the first frame; every later one follows a comma
        lengths = [lengths[0] - 1, *lengths[1:]]
    for text, n in zip(texts, lengths):
        whole, rest = divmod(n, _PART_FRAMES)
        if whole:
            yield from repeat(("," + text) * _PART_FRAMES, whole)
        yield ("," + text) * rest


def _actionness_parts(vid, cls, threshold, series, spans, tube_sums):
    """A record's line in turn: its head, the series and gate texts in bounded parts, and its spans and sums."""
    # every real is made text before the first part goes out, so a non-finite one writes nothing
    pieces = series.pieces
    lengths = [n for n, _, _ in pieces]
    reals = [_real(v) for _, v, _ in pieces]
    span_pairs = ",".join([f"[{start:d},{end:d}]" for start, end in spans])
    tail = f'],"spans":[{span_pairs}],"tube_sums":[{_reals(tube_sums)}]}}\n'
    yield f'{{"video_id":{_string(vid)},"class":{cls:d},"threshold":{_real(threshold)},"series":['
    yield from _frame_parts(reals, lengths)
    yield '],"human":['
    yield from _frame_parts([_BOOLS[h] for _, _, h in pieces], lengths)
    yield tail
