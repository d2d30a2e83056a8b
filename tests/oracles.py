"""Slow, obviously correct references that the tests compare the package against.

Each is a scalar or brute-force twin of a pipeline step: exhaustive path
enumeration for ``viterbi_link``, per-frame counts, a longest-first queue
and from-scratch re-linking for ``extract_tubes``, a scan of every clip
for every frame for ``frame_scores_from_clips``, prefix-by-prefix
matching for ``video_map``'s per-class AP, one ``actionness`` call, gate
flag and sum term per frame for ``compose_actionness``,
``temporal_localize`` and ``tube_actionness``, a sorted window for
``median_smooth``, ``json.loads`` on every line for the readers' line
decoding, one scalar draw per walk step and per clip score for
``synth.generate_video``, and dict records through ``json.dumps`` for
the writers. The brute-force twins refuse instances too large to
enumerate.
"""
from __future__ import annotations

import itertools
import json
import math

from tubekit.count_signal import FrameDetections
from tubekit.errors import ParseError
from tubekit.evaluation import VideoTube
from tubekit.formats import quantize
from tubekit.fusion import (
    CENTER_CROPS, CLIP_LEN, STREAMS, ClipScore, ScoreVector, StreamScoreSet, _mean, actionness,
)
from tubekit.geometry import Box2D, TemporalSpan, Tube, box_iou, tube_iou
from tubekit.linking import ExtractionConfig, LinkingProblem
from tubekit.synth import _SCORE_PEAK, CANVAS_H, CANVAS_W, CLIP_STRIDE, SynthConfig, _video_rng

_MAX_PATHS = 10**6
_MAX_TUBES_PER_CLASS = 10


class InstanceTooLargeError(ValueError):
    """A brute-force oracle was asked to enumerate an oversized instance."""


def naive_median(series, window):
    """Reference: sort every clamped window, take the lower median."""
    n = len(series)
    out = []
    for t in range(n):
        lo = max(0, t - window // 2)
        hi = min(n - 1, t + (window - 1) // 2)
        win = sorted(series[lo : hi + 1])
        out.append(win[(len(win) - 1) // 2])
    return out


def brute_force_link(problem: LinkingProblem) -> Tube:
    """Exhaustive-enumeration twin of ``viterbi_link``.

    Walks every possible path, accumulating scores in the same
    left-to-right order as the dynamic program so the optima are
    bit-identical, and applies the same tie rule (the reversed index
    sequence of the winner is minimal).
    """
    sizes = [len(c) for c in problem.candidates]
    paths = 1
    for s in sizes:
        paths *= s
        if paths > _MAX_PATHS:
            raise InstanceTooLargeError(f"more than {_MAX_PATHS} paths to enumerate")
    n = len(problem.candidates)
    table = [
        [
            [box_iou(a, b) for b in problem.candidates[t + 1]]
            for a in problem.candidates[t]
        ]
        for t in range(n - 1)
    ]
    best_total = None
    best_rev = None
    best_combo = None
    for combo in itertools.product(*(range(s) for s in sizes)):
        total = 0.0
        for t in range(n - 1):
            total += table[t][combo[t]][combo[t + 1]]
        rev = combo[::-1]
        if best_total is None or total > best_total or (total == best_total and rev < best_rev):
            best_total, best_rev, best_combo = total, rev, combo
    boxes = tuple(problem.candidates[t][best_combo[t]] for t in range(n))
    return Tube(span=problem.span, boxes=boxes, score=best_total / n)


def _naive_link(cands: list[list[Box2D]]) -> tuple[list[Box2D], float]:
    """Scalar Viterbi over candidate lists: ``box_iou`` per pair, lowest index wins ties."""
    best = [0.0] * len(cands[0])
    parents: list[list[int]] = []
    for t in range(1, len(cands)):
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
    chosen = [last]
    for t in range(len(cands) - 2, -1, -1):
        chosen.append(parents[t][chosen[-1]])
    chosen.reverse()
    return [cands[t][k] for t, k in enumerate(chosen)], total


def _naive_spans(flags: list[bool], start: int) -> list[TemporalSpan]:
    """Maximal spans of true flags, one frame at a time; the first flag is frame ``start``."""
    spans: list[TemporalSpan] = []
    first = None
    for f, flag in enumerate(flags + [False], start):
        if flag and first is None:
            first = f
        elif not flag and first is not None:
            spans.append(TemporalSpan(first, f - 1))
            first = None
    return spans


def naive_extract_tubes(dets: FrameDetections, cfg: ExtractionConfig | None = None) -> list[Tube]:
    """Scalar twin of ``extract_tubes``: per-frame counts, every region re-linked from scratch.

    The boxes of every frame are counted and the counts smoothed per frame
    with ``naive_median``; every frame that holds boxes is padded, by
    copies of its largest box (first of equal areas), up to the paper's
    expected count, max(raw, smoothed); and the regions, and the pieces of
    a region split at emptied frames, are found by a scan of every frame.
    Regions are taken longest-first (ties towards the earliest start), an
    order ``extract_tubes`` does not keep, so the twin tests check that the
    order cannot change a tube. Each link recomputes every
    consecutive-frame ``box_iou`` of the boxes still on the region's
    frames, and the chosen boxes are removed frame by frame with
    ``list.remove``, so the first box equal to a chosen one goes. Of
    ``count_signal`` only the input type, ``FrameDetections``, is used.
    """
    cfg = cfg or ExtractionConfig()
    raw = [len(dets.frames.get(f, ())) for f in range(dets.length)]
    smoothed = naive_median(raw, cfg.median_window)
    work: dict[int, list[Box2D]] = {}
    for f in range(dets.length):
        boxes = list(dets.frames.get(f, ()))
        if boxes:
            largest = max(boxes, key=lambda b: b.area)
            work[f] = boxes + [largest] * (max(raw[f], smoothed[f]) - raw[f])
    queue = _naive_spans([v >= 1 for v in smoothed], 0)
    tubes: list[Tube] = []
    while queue:
        pick = max(range(len(queue)), key=lambda i: (queue[i].length, -queue[i].start))
        region = queue.pop(pick)
        if region.length < cfg.min_tube_len:
            continue
        pieces = _naive_spans([f in work for f in region.frames()], region.start)
        if len(pieces) == 1 and pieces[0] == region:
            boxes, total = _naive_link([work[f] for f in region.frames()])
            tubes.append(Tube(span=region, boxes=tuple(boxes), score=total / region.length))
            for f, box in zip(region.frames(), boxes):
                work[f].remove(box)
                if not work[f]:
                    del work[f]
            queue.append(region)
        else:
            queue.extend(p for p in pieces if p.length >= cfg.min_tube_len)
    tubes.sort(key=lambda t: (t.span.start, -t.span.length))
    return tubes


def naive_mean(vectors: list[ScoreVector]) -> ScoreVector:
    """Twin of ``fusion._elementwise_mean``: one column at a time, built by the checked ``ScoreVector``."""
    k = vectors[0].k
    kind = "prob" if all(v.kind == "prob" for v in vectors) else "raw"
    return ScoreVector(tuple(_mean([v.values[c] for v in vectors]) for c in range(k)), kind)


def naive_frame_scores(scores: StreamScoreSet, video_len: int) -> list[ScoreVector]:
    """Scalar twin of ``frame_scores_from_clips``: every clip scanned for every frame."""
    if video_len <= 0:
        raise ValueError(f"video_len must be positive, got {video_len}")
    if not scores.entries:
        raise ValueError("score set has no entries")
    by_start: dict[int, list[ScoreVector]] = {}
    for e in scores.entries:
        by_start.setdefault(e.clip_start, []).append(e.vector)
    clips = sorted((start, naive_mean(vs)) for start, vs in by_start.items())

    out: list[ScoreVector] = []
    for f in range(video_len):
        covering = [vec for start, vec in clips if start <= f < start + CLIP_LEN]
        if covering:
            out.append(covering[0] if len(covering) == 1 else naive_mean(covering))
            continue
        best_vec, best_dist = None, None
        for start, vec in clips:
            dist = start - f if f < start else f - (start + CLIP_LEN - 1)
            if best_dist is None or dist < best_dist:
                best_vec, best_dist = vec, dist
        out.append(best_vec)
    return out


def expand_runs(runs) -> list:
    """One value per frame from ``(length, value)`` runs."""
    return [value for n, value in runs for _ in range(n)]


def expand_series(series) -> tuple[list[float], list[bool]]:
    """The per-frame actionness and gate of an ``ActionnessSeries``."""
    return (expand_runs([(n, v) for n, v, _ in series.pieces]),
            expand_runs([(n, h) for n, _, h in series.pieces]))


def naive_actionness(pose, rgb, flow, human) -> tuple[list[float], list[bool]]:
    """Per-frame twin of ``compose_actionness``: per-frame lists in, one ``actionness`` per frame out."""
    if not len(pose) == len(rgb) == len(flow) == len(human):
        raise ValueError("per-frame inputs have mismatched lengths")
    return [actionness(p, r, f) for p, r, f in zip(pose, rgb, flow)], [bool(h) for h in human]


def naive_localize(values: list[float], human: list[bool], threshold: float) -> list[TemporalSpan]:
    """Per-frame twin of ``temporal_localize``: the spans of frames with a human and a value at threshold or above."""
    return _naive_spans([h and v >= threshold for h, v in zip(human, values)], 0)


def naive_tube_actionness(span: TemporalSpan, values: list[float]) -> float:
    """Per-frame twin of ``tube_actionness``: fsum of the value of each frame of a tube's span."""
    if span.end >= len(values):
        raise ValueError(f"tube span [{span.start}, {span.end}] outside series of length {len(values)}")
    return math.fsum(values[f] for f in span.frames())


def _naive_match_count(
    ordered_preds: list[VideoTube], gts: list[VideoTube], delta: float
) -> int:
    matched = [False] * len(gts)
    tp = 0
    for vid, tube in ordered_preds:
        best_iou, best_g = 0.0, None
        for g, (gvid, gtube) in enumerate(gts):
            if matched[g] or gvid != vid:
                continue
            iou = tube_iou(tube, gtube)
            if iou > best_iou:
                best_iou, best_g = iou, g
        if best_g is not None and best_iou >= delta:
            matched[best_g] = True
            tp += 1
    return tp


def brute_force_eval(
    preds: list[VideoTube],
    gts: list[VideoTube],
    delta: float,
) -> dict[int, float | None]:
    """Per-class AP by explicit enumeration of score-order prefixes.

    For every prefix of the score-sorted predictions the matching is redone
    from scratch, giving one precision-recall point per prefix; the AP is
    the area under the envelope computed straight from its definition.
    Test-sized instances only.
    """
    classes = sorted({t.label for _, t in gts} | {t.label for _, t in preds})
    groups = {
        c: (
            [(v, t) for v, t in preds if t.label == c],
            [(v, t) for v, t in gts if t.label == c],
        )
        for c in classes
    }
    out: dict[int, float | None] = {}
    for c, (cp, cg) in groups.items():
        if len(cp) > _MAX_TUBES_PER_CLASS or len(cg) > _MAX_TUBES_PER_CLASS:
            raise InstanceTooLargeError(
                f"class {c} has more than {_MAX_TUBES_PER_CLASS} tubes"
            )
        if not cg:
            out[c] = 0.0 if cp else None
            continue
        order = sorted(range(len(cp)), key=lambda i: (-cp[i][1].score, i))
        ordered = [cp[i] for i in order]
        recalls = []
        precisions = []
        for k in range(1, len(ordered) + 1):
            tp = _naive_match_count(ordered[:k], cg, delta)
            recalls.append(tp / len(cg))
            precisions.append(tp / k)
        ap = 0.0
        prev_r = 0.0
        for k in range(len(ordered)):
            env = max(
                (precisions[i] for i in range(len(ordered)) if recalls[i] >= recalls[k]),
                default=0.0,
            )
            ap += (recalls[k] - prev_r) * env
            prev_r = recalls[k]
        out[c] = ap
    return out


def loads_records(path):
    """Twin of ``formats._iter_records``: every line through ``json.loads``, blank lines skipped."""
    with open(path, "rb") as fh:
        for line_no, raw in enumerate(fh, start=1):
            try:
                line = raw.decode("utf-8")
            except UnicodeDecodeError as exc:
                raise ParseError(path, line_no, None, f"invalid UTF-8 ({exc.reason} at byte {exc.start})") from exc
            if not line.strip():
                continue
            try:
                record = json.loads(line)
            except ValueError as exc:
                msg = exc.msg if isinstance(exc, json.JSONDecodeError) else str(exc)
                raise ParseError(path, line_no, None, f"invalid JSON ({msg})") from exc
            except RecursionError as exc:
                raise ParseError(path, line_no, None, "invalid JSON (nesting too deep)") from exc
            if not isinstance(record, dict):
                raise ParseError(path, line_no, None, "record is not an object")
            yield line_no, record


def _scalar_plant_tracks(cfg: SynthConfig, rng) -> list[tuple[TemporalSpan, list[Box2D]]]:
    """Twin of ``synth._plant_tracks``: one scalar draw per walk coordinate."""
    if cfg.persons == 0:
        return []
    j = int(round(cfg.jitter))
    w_lo = max(30, 8 * j)
    h_lo = max(60, 12 * j)
    w = int(rng.integers(w_lo, w_lo + 21))
    h = int(rng.integers(h_lo, h_lo + 31))
    margin = min(5, cfg.frames // 20)
    start = int(rng.integers(0, margin + 1))
    end = cfg.frames - 1 - int(rng.integers(0, margin + 1))

    offset = max(w // 4, 1)
    drift = 12
    span_x = (cfg.persons - 1) * offset
    pad_x = w // 2 + drift + 1
    pad_y = h // 2 + drift + 1
    cx = (CANVAS_W - span_x) // 2 + int(rng.integers(-10, 11))
    cy = CANVAS_H // 2 + int(rng.integers(-10, 11))
    cx = min(max(cx, pad_x), CANVAS_W - span_x - pad_x)
    cy = min(max(cy, pad_y), CANVAS_H - pad_y)

    x, y = cx, cy
    positions = []
    for f in range(start, end + 1):
        if j > 0 and f > start:
            x = min(max(x + int(rng.integers(-j, j + 1)), cx - drift), cx + drift)
            y = min(max(y + int(rng.integers(-j, j + 1)), cy - drift), cy + drift)
        positions.append((x, y))

    tracks = []
    for person in range(cfg.persons):
        boxes = []
        for px, py in positions:
            x1 = px + person * offset - w // 2
            y1 = py - h // 2
            boxes.append(Box2D(x1=float(x1), y1=float(y1), x2=float(x1 + w), y2=float(y1 + h)))
        tracks.append((TemporalSpan(start, end), boxes))
    return tracks


def scalar_generate_video(
    cfg: SynthConfig, index: int
) -> tuple[FrameDetections, list[VideoTube], list[StreamScoreSet]]:
    """Twin of ``synth.generate_video``: every walk step and every clip score its own draw."""
    rng = _video_rng(cfg.seed, index)
    video_id = f"synth{index:04d}"
    true_class = int(rng.integers(0, cfg.classes))

    tracks = _scalar_plant_tracks(cfg, rng)
    gt = [
        (video_id, Tube(span=span, boxes=tuple(boxes), label=true_class))
        for span, boxes in tracks
    ]

    frames: dict[int, list[Box2D]] = {}
    for f in range(cfg.frames):
        kept: list[Box2D] = []
        for span, boxes in tracks:
            if span.start <= f <= span.end:
                box = boxes[f - span.start]
                if rng.random() >= cfg.miss_rate:
                    kept.append(box)
        if rng.random() < cfg.fp_rate:
            fw = int(rng.integers(10, 61))
            fh = int(rng.integers(10, 61))
            fx = int(rng.integers(0, CANVAS_W - fw))
            fy = int(rng.integers(0, CANVAS_H - fh))
            kept.append(Box2D(x1=float(fx), y1=float(fy), x2=float(fx + fw), y2=float(fy + fh)))
        if kept:
            frames[f] = kept
    dets = FrameDetections(video_id=video_id, length=cfg.frames, frames={k: tuple(v) for k, v in frames.items()})

    clip_starts = list(range(0, max(cfg.frames - CLIP_LEN, 0) + 1, CLIP_STRIDE)) or [0]
    sets = []
    for stream in STREAMS:
        entries = []
        for start in clip_starts:
            for crop in CENTER_CROPS:
                values = cfg.noise * rng.standard_normal(cfg.classes)
                values[true_class] += _SCORE_PEAK
                entries.append(
                    ClipScore(
                        clip_start=start,
                        crop_id=crop,
                        vector=ScoreVector(values=tuple(float(v) for v in values), kind="raw"),
                    )
                )
        sets.append(
            StreamScoreSet(
                video_id=video_id,
                stream=stream,
                granularity="net16",
                entries=tuple(entries),
            )
        )
    return dets, gt, sets


# Twins of the writers: each builds the records that the writers once handed
# json's encoder, with every real quantized, and ``dumped_lines`` writes them as
# json.dumps does. Every writer's text must equal it.


def _detection_box_record(b: Box2D) -> dict:
    rec = {"x1": quantize(b.x1), "y1": quantize(b.y1), "x2": quantize(b.x2), "y2": quantize(b.y2)}
    if b.score is not None:
        rec["score"] = quantize(b.score)
    return rec


def detection_records(videos):
    return [
        {"video_id": dets.video_id, "frame": f, "boxes": [_detection_box_record(b) for b in dets.frames.get(f, ())]}
        for dets in videos
        for f in range(dets.length)
    ]


def score_records(sets):
    return [
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
    ]


def tube_records(tubes):
    records = []
    for vid, tube in tubes:
        record = {"video_id": vid, "label": tube.label, "start": tube.span.start, "end": tube.span.end}
        if tube.score is not None:
            record["score"] = quantize(tube.score)
        record["boxes"] = [[quantize(b.x1), quantize(b.y1), quantize(b.x2), quantize(b.y2)] for b in tube.boxes]
        records.append(record)
    return records


def report_records(report):
    return [
        {
            "delta": quantize(delta),
            "class": result.label,
            "ap": quantize(result.ap),
            "pr": [[quantize(r), quantize(p)] for r, p in result.pr],
            "map": quantize(report.map_by_delta[delta]),
        }
        for delta in report.deltas
        for result in report.per_delta[delta]
    ]


def prediction_records(rows):
    return [{"video_id": vid, "label": label, "values": [quantize(v) for v in values]} for vid, label, values in rows]


def actionness_records(rows):
    records = []
    for vid, cls, threshold, series, spans, tube_sums in rows:
        values, human = expand_series(series)
        records.append({
            "video_id": vid,
            "class": cls,
            "threshold": quantize(threshold),
            "series": [quantize(v) for v in values],
            "human": human,
            "spans": spans,
            "tube_sums": [quantize(v) for v in tube_sums],
        })
    return records


def dumped_lines(records) -> str:
    """Each record as ``json.dumps(record, separators=(",", ":"), allow_nan=False)``, a line each."""
    return "".join(json.dumps(r, separators=(",", ":"), allow_nan=False) + "\n" for r in records)
