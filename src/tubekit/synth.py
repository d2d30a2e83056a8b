"""Synthetic scenes with known ground truth, plus brute-force oracles.

The generator plants smoothly moving person tracks on an integer lattice
(consecutive-frame IoU stays >= 0.5 by construction), drops boxes
independently at the miss rate, sprinkles uniform random false positives
at the fp rate, and emits three-stream clip scores peaked at the video's
true class. Everything is a pure function of the seed: each video uses an
RNG derived by stable hashing of (seed, video index), so corpora are
byte-identical across runs, platforms and worker counts.
"""
from __future__ import annotations

import hashlib
import itertools
from dataclasses import dataclass
from typing import TYPE_CHECKING

from .count_signal import (
    DetectionCountSeries, FrameDetections, continuous_regions, count_series, pad_detections,
)
from .errors import InstanceTooLargeError
from .evaluation import VideoTube
from .fusion import (
    CENTER_CROPS, CLIP_LEN, ClipScore, ScoreVector, StreamScoreSet, STREAMS, _elementwise_mean,
)
from .formats import MAX_FRAME
from .geometry import Box2D, TemporalSpan, Tube, box_iou, runs, tube_iou
from .linking import ExtractionConfig, LinkingProblem

if TYPE_CHECKING:
    from numpy.random import Generator

CANVAS_W = 320
CANVAS_H = 240
CLIP_STRIDE = 8
_SCORE_PEAK = 4.0
# far above the 101 classes of the largest dataset the paper uses
_MAX_CLASSES = 1000
# far above the few dozen actors that fit side by side on the canvas
_MAX_PERSONS = 100
# far past any noise that leaves the class peak visible, far below one that overflows a score
_MAX_NOISE = 1e6
_MAX_PATHS = 10**6
_MAX_TUBES_PER_CLASS = 10


@dataclass(frozen=True)
class SynthConfig:
    seed: int = 0
    videos: int = 10
    frames: int = 100
    persons: int = 2
    jitter: float = 2.0
    fp_rate: float = 0.1
    miss_rate: float = 0.05
    classes: int = 5
    noise: float = 0.5

    def __post_init__(self):
        if self.videos < 0:
            raise ValueError(f"videos must be >= 0, got {self.videos}")
        # every person's boxes are built in memory before anything is written
        if not 0 <= self.persons <= _MAX_PERSONS:
            raise ValueError(f"persons {self.persons} outside [0, {_MAX_PERSONS}]")
        # every frame is written, and a detections file may not name one past MAX_FRAME
        if not 1 <= self.frames <= MAX_FRAME + 1:
            raise ValueError(f"frames {self.frames} outside [1, {MAX_FRAME + 1}]")
        if not 0.0 <= self.fp_rate <= 1.0:
            raise ValueError(f"fp_rate {self.fp_rate} outside [0, 1]")
        if not 0.0 <= self.miss_rate <= 1.0:
            raise ValueError(f"miss_rate {self.miss_rate} outside [0, 1]")
        if not 1 <= self.classes <= _MAX_CLASSES:
            raise ValueError(f"classes {self.classes} outside [1, {_MAX_CLASSES}]")
        # these range checks also turn NaN away
        if not 0.0 <= self.jitter <= CANVAS_H:
            raise ValueError(f"jitter {self.jitter} outside [0, {CANVAS_H}]")
        if not 0.0 <= self.noise <= _MAX_NOISE:
            raise ValueError(f"noise {self.noise} outside [0, {_MAX_NOISE:g}]")


def _video_rng(seed: int, index: int) -> Generator:
    import numpy as np  # imported here, so that the pipeline subcommands never load it

    digest = hashlib.blake2b(f"{seed}:{index}".encode(), digest_size=8).digest()
    return np.random.default_rng(int.from_bytes(digest, "big"))


def _plant_tracks(cfg: SynthConfig, rng: Generator) -> list[tuple[TemporalSpan, list[Box2D]]]:
    """Plant ``cfg.persons`` parallel tracks moving together.

    The actors share one time span and one random walk and stand a quarter
    of a box width apart, like people performing side by side. Keeping them
    spatially adjacent means a linked path that hops between neighbours
    still localizes every actor well.
    """
    if cfg.persons == 0:
        return []
    j = int(round(cfg.jitter))
    # size floors keep consecutive-frame IoU >= 0.5 for any jitter amplitude
    w_lo = max(30, 8 * j)
    h_lo = max(60, 12 * j)
    w = int(rng.integers(w_lo, w_lo + 21))
    h = int(rng.integers(h_lo, h_lo + 31))
    margin = min(5, max(0, cfg.frames // 20))
    start = int(rng.integers(0, margin + 1))
    end = cfg.frames - 1 - int(rng.integers(0, margin + 1))
    if end < start:
        start, end = 0, cfg.frames - 1

    offset = max(w // 4, 1)
    drift = 12  # walk stays this close to the base position
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


def generate_video(
    cfg: SynthConfig, index: int
) -> tuple[FrameDetections, list[VideoTube], list[StreamScoreSet]]:
    """One video of the corpus; independent of every other index."""
    if not 0 <= index < cfg.videos:
        raise ValueError(f"video index {index} outside [0, {cfg.videos})")
    rng = _video_rng(cfg.seed, index)
    video_id = f"synth{index:04d}"
    true_class = int(rng.integers(0, cfg.classes))

    tracks = _plant_tracks(cfg, rng)
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


def generate_scene(
    cfg: SynthConfig,
) -> tuple[list[FrameDetections], list[VideoTube], list[StreamScoreSet]]:
    """The full corpus: per-video detections, ground-truth tubes and scores."""
    detections: list[FrameDetections] = []
    gt_tubes: list[VideoTube] = []
    score_sets: list[StreamScoreSet] = []
    for index in range(cfg.videos):
        dets, gt, sets = generate_video(cfg, index)
        detections.append(dets)
        gt_tubes.extend(gt)
        score_sets.extend(sets)
    return detections, gt_tubes, score_sets


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


def naive_extract_tubes(dets: FrameDetections, cfg: ExtractionConfig | None = None) -> list[Tube]:
    """Scalar twin of ``extract_tubes``: every region re-linked from scratch.

    Each link recomputes every consecutive-frame ``box_iou`` of the boxes
    still on the region's frames, and the chosen boxes are removed frame by
    frame with ``list.remove``, so the first box equal to a chosen one goes.
    Frames are padded up to the paper's expected count, max(raw, smoothed),
    where ``extract_tubes`` pads up to the smoothed count alone.
    """
    cfg = cfg or ExtractionConfig()
    counts = DetectionCountSeries.from_detections(dets, cfg.median_window)
    expected = [max(raw, smoothed) for raw, smoothed in zip(count_series(dets), counts.smoothed)]
    padded = pad_detections(dets, expected)
    work = {f: list(boxes) for f, boxes in padded.frames.items()}
    queue = continuous_regions(counts.smoothed)
    tubes: list[Tube] = []
    while queue:
        pick = max(range(len(queue)), key=lambda i: (queue[i].length, -queue[i].start))
        region = queue.pop(pick)
        if region.length < cfg.min_tube_len:
            continue
        pieces = runs((f in work for f in region.frames()), region.start)
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


def naive_frame_scores(scores: StreamScoreSet, video_len: int) -> list[ScoreVector]:
    """Scalar twin of ``frame_scores_from_clips``: every clip scanned for every frame."""
    if video_len <= 0:
        raise ValueError(f"video_len must be positive, got {video_len}")
    if not scores.entries:
        raise ValueError("score set has no entries")
    by_start: dict[int, list[ScoreVector]] = {}
    for e in scores.entries:
        by_start.setdefault(e.clip_start, []).append(e.vector)
    clips = sorted((start, _elementwise_mean(vs)) for start, vs in by_start.items())

    out: list[ScoreVector] = []
    for f in range(video_len):
        covering = [vec for start, vec in clips if start <= f < start + CLIP_LEN]
        if covering:
            out.append(covering[0] if len(covering) == 1 else _elementwise_mean(covering))
            continue
        best_vec, best_dist = None, None
        for start, vec in clips:
            dist = start - f if f < start else f - (start + CLIP_LEN - 1)
            if best_dist is None or dist < best_dist:
                best_vec, best_dist = vec, dist
        out.append(best_vec)
    return out


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
