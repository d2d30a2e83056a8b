import dataclasses
import itertools

import pytest

import tubekit
from tubekit import synth
from tubekit import (
    Box2D,
    LinkingProblem,
    SynthConfig,
    TemporalSpan,
    box_iou,
    generate_scene,
    viterbi_link,
)
from tubekit.formats import MAX_FRAME
from tubekit.synth import _plant_tracks, _video_rng, generate_video

from oracles import (
    InstanceTooLargeError, _scalar_plant_tracks, brute_force_eval, brute_force_link, scalar_generate_video,
)


class TestConfig:
    def test_rates_validated(self):
        with pytest.raises(ValueError):
            SynthConfig(fp_rate=1.5)
        with pytest.raises(ValueError):
            SynthConfig(miss_rate=-0.1)
        with pytest.raises(ValueError):
            SynthConfig(classes=0)

    def test_frames_capped_where_the_reader_caps_them(self):
        # frame MAX_FRAME is the last one read_detections accepts
        assert SynthConfig(frames=MAX_FRAME + 1).frames == MAX_FRAME + 1
        with pytest.raises(ValueError, match="frames"):
            SynthConfig(frames=MAX_FRAME + 2)


class TestGenerator:
    def test_same_seed_same_corpus(self):
        cfg = SynthConfig(seed=42, videos=3, frames=40)
        assert generate_scene(cfg) == generate_scene(cfg)

    def test_different_seed_differs(self):
        a = generate_scene(SynthConfig(seed=1, videos=2, frames=40))
        b = generate_scene(SynthConfig(seed=2, videos=2, frames=40))
        assert a != b

    def test_noiseless_detections_cover_gt(self):
        cfg = SynthConfig(seed=5, videos=3, frames=40, persons=2, fp_rate=0.0, miss_rate=0.0)
        detections, gt, _ = generate_scene(cfg)
        by_video = {d.video_id: d for d in detections}
        for vid, tube in gt:
            dets = by_video[vid]
            for f, box in zip(tube.span.frames(), tube.boxes):
                assert box in dets.frames.get(f, ())

    def test_zero_jitter_keeps_boxes_static(self):
        cfg = SynthConfig(seed=5, videos=2, frames=30, persons=2, jitter=0.0, miss_rate=0.0)
        _, gt, _ = generate_scene(cfg)
        for _, tube in gt:
            for a, b in zip(tube.boxes, tube.boxes[1:]):
                assert box_iou(a, b) == 1.0

    def test_jittered_tracks_keep_consecutive_iou(self):
        for jitter in (1.0, 2.0, 5.0):
            cfg = SynthConfig(seed=8, videos=3, frames=60, persons=2, jitter=jitter, miss_rate=0.0)
            _, gt, _ = generate_scene(cfg)
            for _, tube in gt:
                for a, b in zip(tube.boxes, tube.boxes[1:]):
                    assert box_iou(a, b) >= 0.5

    def test_video_count_and_labels(self):
        cfg = SynthConfig(seed=3, videos=4, frames=30, persons=2, classes=3)
        detections, gt, scores = generate_scene(cfg)
        assert len(detections) == 4
        assert len(gt) == 8  # two planted tubes per video
        assert {s.stream for s in scores} == {"pose", "flow", "rgb"}
        labels = {t.label for _, t in gt}
        assert labels <= set(range(3))

    def test_scores_peak_at_true_class(self):
        cfg = SynthConfig(seed=13, videos=3, frames=40, persons=1, noise=0.3)
        _, gt, scores = generate_scene(cfg)
        true = {vid: t.label for vid, t in gt}
        for s in scores:
            for e in s.entries:
                assert e.vector.argmax() == true[s.video_id]

    def test_clip_grid(self):
        cfg = SynthConfig(seed=1, videos=1, frames=40)
        _, _, scores = generate_scene(cfg)
        starts = sorted({e.clip_start for e in scores[0].entries})
        assert starts == [0, 8, 16, 24]

    def test_per_video_independence(self):
        # video i of a corpus equals video i generated alone
        cfg = SynthConfig(seed=17, videos=3, frames=30)
        detections, _, _ = generate_scene(cfg)
        dets1, _, _ = generate_video(cfg, 1)
        assert detections[1] == dets1

    def test_boxes_on_integer_lattice(self):
        cfg = SynthConfig(seed=19, videos=2, frames=30, fp_rate=0.5)
        detections, _, _ = generate_scene(cfg)
        for dets in detections:
            for boxes in dets.frames.values():
                for b in boxes:
                    assert b.x1 == int(b.x1) and b.y2 == int(b.y2)


def _exact(value):
    """``value`` with every float as its hex string, so that == compares every bit."""
    if type(value) is float:
        return value.hex()
    if isinstance(value, (tuple, list)):
        return [_exact(v) for v in value]
    if isinstance(value, dict):
        return {k: _exact(v) for k, v in value.items()}
    if dataclasses.is_dataclass(value):
        return type(value).__name__, {f.name: _exact(getattr(value, f.name)) for f in dataclasses.fields(value)}
    return value


_RATES = list(itertools.product((0.0, 1.0), repeat=2))  # (fp_rate, miss_rate) corners
# one video per (seed, config); each config takes two of the four rate corners
_EDGE_GRID = [
    (seed, frames, persons, jitter, noise, classes, *_RATES[(i + seed) % 4])
    for i, (frames, persons, jitter, noise, classes) in enumerate(itertools.product(
        (1, 2, 15, 16, 17, 40), (0, 1, 3), (0.0, 0.4, 0.6, 2.0, 7.0), (0.0, 0.5, 1e6), (1, 5),
    ))
    for seed in (0, 1)
]


def test_block_draws_match_the_scalar_generator():
    # numpy's NEP 19 promises no stream stability across versions, so this
    # equivalence, not a pinned digest, is what holds under any installed numpy
    for seed, frames, persons, jitter, noise, classes, fp_rate, miss_rate in _EDGE_GRID:
        cfg = SynthConfig(
            seed=seed, videos=2, frames=frames, persons=persons, jitter=jitter,
            noise=noise, classes=classes, fp_rate=fp_rate, miss_rate=miss_rate,
        )
        index = seed  # two video indices
        assert _exact(generate_video(cfg, index)) == _exact(scalar_generate_video(cfg, index)), cfg


@pytest.mark.parametrize("frames, jitter", [(1, 2.0), (1, 7.0), (40, 0.0), (40, 0.4), (2, 0.6)])
def test_walk_leaves_the_generator_where_the_scalar_walk_does(frames, jitter):
    # frames=1 is a zero-length block and jitter < 0.5 no walk: neither may draw
    cfg = SynthConfig(seed=3, frames=frames, persons=2, jitter=jitter)
    block, scalar = _video_rng(cfg.seed, 0), _video_rng(cfg.seed, 0)
    assert _exact(_plant_tracks(cfg, block)) == _exact(_scalar_plant_tracks(cfg, scalar))
    assert block.bit_generator.state == scalar.bit_generator.state


def tiny_problem():
    return LinkingProblem(
        span=TemporalSpan(0, 1),
        candidates=(
            (Box2D(0, 0, 10, 10),),
            (Box2D(0, 0, 10, 10), Box2D(50, 50, 60, 60)),
        ),
    )


class TestBruteForceLink:
    def test_single_frame(self):
        p = LinkingProblem(
            span=TemporalSpan(0, 0),
            candidates=((Box2D(0, 0, 10, 10), Box2D(1, 1, 5, 5)),),
        )
        path = brute_force_link(p)
        assert path.score == 0.0
        assert path.boxes[0] is p.candidates[0][0]

    def test_agrees_with_viterbi_on_example(self):
        p = tiny_problem()
        assert brute_force_link(p) == viterbi_link(p)

    def test_size_cap(self):
        # 101^3 paths exceeds the 10^6 enumeration bound
        cands = []
        for f in range(3):
            cands.append(tuple(Box2D(float(i), 0.0, float(i + 1), 1.0) for i in range(101)))
        p = LinkingProblem(span=TemporalSpan(0, 2), candidates=tuple(cands))
        with pytest.raises(InstanceTooLargeError):
            brute_force_link(p)


def eval_tube(start, end, label, score=None, x=0.0):
    boxes = tuple(Box2D(x, 0, x + 10, 10) for f in range(start, end + 1))
    from tubekit import Tube

    return Tube(span=TemporalSpan(start, end), boxes=boxes, label=label, score=score)


class TestBruteForceEval:
    def test_perfect_predictions(self):
        gts = [("v", eval_tube(0, 9, 0)), ("v", eval_tube(20, 29, 1))]
        preds = [("v", eval_tube(0, 9, 0, score=0.9)), ("v", eval_tube(20, 29, 1, score=0.8))]
        aps = brute_force_eval(preds, gts, 0.5)
        assert aps == {0: 1.0, 1: 1.0}

    def test_no_predictions(self):
        gts = [("v", eval_tube(0, 9, 0))]
        assert brute_force_eval([], gts, 0.5) == {0: 0.0}

    def test_no_gt_class_undefined(self):
        preds = [("v", eval_tube(0, 9, 0, score=0.9))]
        assert brute_force_eval(preds, [], 0.5) == {0: 0.0}
        assert brute_force_eval([], [], 0.5) == {}

    def test_size_cap(self):
        gts = [("v", eval_tube(i, i + 1, 0)) for i in range(0, 44, 4)]
        with pytest.raises(InstanceTooLargeError):
            brute_force_eval([], gts, 0.5)


def test_package_ships_the_generator_not_the_oracles():
    for name in ("brute_force_link", "brute_force_eval", "InstanceTooLargeError"):
        assert name not in tubekit.__all__
    assert not [n for n in dir(synth) if n.startswith(("brute_force_", "naive_", "_naive_"))]
    for name in tubekit.__all__:
        assert getattr(tubekit, name) is not None
