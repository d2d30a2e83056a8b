"""Synthetic scenes with known ground truth.

The generator plants smoothly moving person tracks on an integer lattice
(consecutive-frame IoU stays >= 0.5 by construction), drops boxes
independently at the miss rate, sprinkles uniform random false positives
at the fp rate, and emits three-stream clip scores peaked at the video's
true class. Everything is a pure function of the seed: each video uses an
RNG derived by stable hashing of (seed, video index), so corpora are
byte-identical across runs, platforms and worker counts.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

from .count_signal import FrameDetections
from .evaluation import VideoTube
from .fusion import CENTER_CROPS, CLIP_LEN, ClipScore, ScoreVector, StreamScoreSet, STREAMS
from .formats import MAX_FRAME
from .geometry import Box2D, TemporalSpan, Tube

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
    # imported here, so that the pipeline subcommands never load them
    import hashlib

    import numpy as np

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
    # 2 * margin <= frames - 1 for every frames >= 1, so start <= end
    margin = min(5, cfg.frames // 20)
    start = int(rng.integers(0, margin + 1))
    end = cfg.frames - 1 - int(rng.integers(0, margin + 1))

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
    positions = [(x, y)]
    if j > 0:
        # One block of (dx, dy) steps: numpy fills it from the stream in the order of
        # one scalar draw each, x before y, so the walk is the per-step walk.
        for dx, dy in rng.integers(-j, j + 1, size=(end - start, 2)).tolist():
            x = min(max(x + dx, cx - drift), cx + drift)
            y = min(max(y + dy, cy - drift), cy + drift)
            positions.append((x, y))
    else:
        positions *= end - start + 1

    tracks = []
    for person in range(cfg.persons):
        boxes = []
        for px, py in positions:
            x1 = px + person * offset - w // 2
            y1 = py - h // 2
            boxes.append(Box2D(float(x1), float(y1), float(x1 + w), float(y1 + h)))
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
            kept.append(Box2D(float(fx), float(fy), float(fx + fw), float(fy + fh)))
        if kept:
            frames[f] = kept
    dets = FrameDetections(video_id=video_id, length=cfg.frames, frames={k: tuple(v) for k, v in frames.items()})

    clip_starts = list(range(0, max(cfg.frames - CLIP_LEN, 0) + 1, CLIP_STRIDE)) or [0]
    # One block of every clip score, stream by clip by crop by class: numpy fills it
    # from the stream in the order of one standard_normal(classes) draw per clip and crop.
    values = cfg.noise * rng.standard_normal((len(STREAMS), len(clip_starts), len(CENTER_CROPS), cfg.classes))
    values[..., true_class] += _SCORE_PEAK
    sets = [
        StreamScoreSet(
            video_id=video_id,
            stream=stream,
            granularity="net16",
            entries=tuple(
                ClipScore(clip_start=start, crop_id=crop, vector=ScoreVector(values=tuple(v), kind="raw"))
                for start, per_clip in zip(clip_starts, per_stream)
                for crop, v in zip(CENTER_CROPS, per_clip)
            ),
        )
        for stream, per_stream in zip(STREAMS, values.tolist())
    ]
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
