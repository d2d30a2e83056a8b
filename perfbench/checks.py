"""Output checks: strict JSON, well-formed records, pinned digests.

Every check raises ``CheckError`` naming the file and line. They read the
files with the standard library only, never with tubekit's own readers, so
a reader defect cannot hide a writer defect.
"""
from __future__ import annotations

import hashlib
import json
import math
from pathlib import Path


class CheckError(Exception):
    pass


def _reject_constant(name):
    raise ValueError(f"non-finite constant {name}")


def strict_records(path: Path) -> list[dict]:
    """Every line as a JSON object; NaN and Infinity are rejected."""
    records = []
    with open(path, "r", encoding="utf-8") as fh:
        for line_no, line in enumerate(fh, start=1):
            try:
                record = json.loads(line, parse_constant=_reject_constant)
            except ValueError as exc:
                raise CheckError(f"{path.name} line {line_no}: {exc}") from exc
            if not isinstance(record, dict):
                raise CheckError(f"{path.name} line {line_no}: record is not an object")
            records.append(record)
    return records


def sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _is_int(v) -> bool:
    return isinstance(v, int) and not isinstance(v, bool)


def _is_real(v) -> bool:
    return (isinstance(v, (int, float)) and not isinstance(v, bool)) and math.isfinite(v)


def _require(ok: bool, where: str, message: str) -> None:
    if not ok:
        raise CheckError(f"{where}: {message}")


def check_tubes(path: Path, labeled: bool) -> dict[str, list[dict]]:
    """Tubes grouped by video; each tube holds one valid box per frame of its span."""
    by_video: dict[str, list[dict]] = {}
    for line_no, r in enumerate(strict_records(path), start=1):
        where = f"{path.name} line {line_no}"
        _require(isinstance(r.get("video_id"), str), where, "video_id is not a string")
        start, end = r.get("start"), r.get("end")
        _require(_is_int(start) and _is_int(end) and 0 <= start <= end, where, "bad span")
        boxes = r.get("boxes")
        _require(isinstance(boxes, list) and len(boxes) == end - start + 1, where,
                 "not one box per frame of the span")
        for b in boxes:
            _require(isinstance(b, list) and len(b) == 4 and all(_is_real(v) for v in b)
                     and b[0] < b[2] and b[1] < b[3], where, f"bad box {b!r}")
        if labeled:
            _require(_is_int(r.get("label")), where, "label is not an integer")
        if "score" in r:
            _require(_is_real(r["score"]), where, "score is not a finite number")
        by_video.setdefault(r["video_id"], []).append(r)
    return by_video


def check_corpus(corpus: Path, synth: dict) -> None:
    videos, frames, persons = synth["videos"], synth["frames"], synth["persons"]
    detections = strict_records(corpus / "detections.jsonl")
    _require(len(detections) == videos * frames, "detections.jsonl",
             f"{len(detections)} frame records, expected {videos * frames}")
    gt = check_tubes(corpus / "gt_tubes.jsonl", labeled=True)
    tubes = sum(len(t) for t in gt.values())
    _require(tubes == videos * persons, "gt_tubes.jsonl", f"{tubes} tubes, expected {videos * persons}")
    strict_records(corpus / "scores.jsonl")


def check_predictions(path: Path, video_ids: set[str], classes: int) -> dict[str, int]:
    labels = {}
    for line_no, r in enumerate(strict_records(path), start=1):
        where = f"{path.name} line {line_no}"
        label, values = r.get("label"), r.get("values")
        _require(_is_int(label) and 0 <= label < classes, where, f"bad label {label!r}")
        _require(isinstance(values, list) and len(values) == classes
                 and all(_is_real(v) for v in values), where, "bad score vector")
        labels[r.get("video_id")] = label
    _require(set(labels) == video_ids, path.name, "not one prediction per video")
    return labels


def check_report(path: Path, deltas: list[float], classes: set[int]) -> float:
    """Every (delta, class) row is present once; returns mAP at the largest delta."""
    rows = {}
    maps = {}
    for line_no, r in enumerate(strict_records(path), start=1):
        where = f"{path.name} line {line_no}"
        key = (r.get("delta"), r.get("class"))
        _require(key not in rows, where, f"duplicate row {key}")
        ap, m = r.get("ap"), r.get("map")
        _require(_is_real(ap) and 0.0 <= ap <= 1.0, where, f"bad ap {ap!r}")
        _require(_is_real(m) and 0.0 <= m <= 1.0, where, f"bad map {m!r}")
        _require(maps.setdefault(key[0], m) == m, where, "map differs within one delta")
        pr = r.get("pr")
        _require(isinstance(pr, list) and all(
            isinstance(p, list) and len(p) == 2 and all(_is_real(v) for v in p) for p in pr
        ), where, "bad precision-recall points")
        rows[key] = r
    expected = {(d, c) for d in deltas for c in classes}
    _require(set(rows) == expected, path.name,
             f"{len(rows)} (delta, class) rows, expected {len(expected)}")
    return maps[max(deltas)]


def check_actionness(path: Path, tubes: dict[str, list[dict]], action_class: int) -> None:
    seen = set()
    for line_no, r in enumerate(strict_records(path), start=1):
        where = f"{path.name} line {line_no}"
        vid = r.get("video_id")
        _require(vid in tubes and vid not in seen, where, f"unexpected video {vid!r}")
        seen.add(vid)
        length = max(t["end"] for t in tubes[vid]) + 1
        series, human = r.get("series"), r.get("human")
        _require(r.get("class") == action_class, where, "wrong class")
        _require(isinstance(series, list) and len(series) == length
                 and all(_is_real(v) and 0.0 <= v <= 1.0 for v in series), where, "bad series")
        _require(isinstance(human, list) and len(human) == length
                 and all(isinstance(h, bool) for h in human), where, "bad human gate")
        spans = r.get("spans")
        _require(isinstance(spans, list), where, "spans is not a list")
        for span in spans:
            _require(isinstance(span, list) and len(span) == 2 and _is_int(span[0])
                     and _is_int(span[1]) and 0 <= span[0] <= span[1] < length
                     and all(human[span[0]:span[1] + 1]), where, f"bad span {span!r}")
        sums = r.get("tube_sums")
        _require(isinstance(sums, list) and len(sums) == len(tubes[vid])
                 and all(_is_real(v) and v >= 0.0 for v in sums), where, "not one sum per tube")
    _require(seen == set(tubes), path.name, "not one record per video with tubes")
