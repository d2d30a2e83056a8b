import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tubekit import (
    Box2D,
    EmptyFrameError,
    ExtractionConfig,
    FrameDetections,
    LinkingProblem,
    SynthConfig,
    TemporalSpan,
    box_iou,
    brute_force_link,
    extract_tubes,
    generate_scene,
    tube_iou,
    viterbi_link,
)
from tubekit.linking import _iou_table
from tubekit.synth import naive_extract_tubes


def problem_from_coords(start, frames):
    cands = tuple(
        tuple(Box2D(x1=c[0], y1=c[1], x2=c[2], y2=c[3]) for c in frame) for frame in frames
    )
    return LinkingProblem(span=TemporalSpan(start, start + len(frames) - 1), candidates=cands)


def random_problem(rng, max_frames=6, max_boxes=4, canvas=100):
    n = rng.randint(1, max_frames)
    frames = []
    for _ in range(n):
        k = rng.randint(1, max_boxes)
        frame = []
        for _ in range(k):
            x1 = rng.randint(0, canvas - 2)
            x2 = rng.randint(x1 + 1, canvas)
            y1 = rng.randint(0, canvas - 2)
            y2 = rng.randint(y1 + 1, canvas)
            frame.append((x1, y1, x2, y2))
        frames.append(frame)
    return problem_from_coords(0, frames)


class TestViterbi:
    def test_single_frame(self):
        p = problem_from_coords(3, [[(0, 0, 10, 10)]])
        path = viterbi_link(p)
        assert path.span == TemporalSpan(3, 3)
        assert path.score == 0.0

    def test_picks_overlapping_successor(self):
        p = problem_from_coords(0, [[(0, 0, 10, 10)], [(0, 0, 10, 10), (50, 50, 60, 60)]])
        path = viterbi_link(p)
        assert path.boxes[1] == Box2D(0, 0, 10, 10)
        assert path.score == pytest.approx(1.0 / 2)

    def test_empty_frame_rejected(self):
        with pytest.raises(EmptyFrameError):
            problem_from_coords(0, [[(0, 0, 10, 10)], []])

    def test_tie_broken_by_lowest_index(self):
        # both second-frame boxes have identical IoU with the first box
        p = problem_from_coords(0, [[(0, 0, 10, 10)], [(0, 0, 10, 10), (0, 0, 10, 10)]])
        path = viterbi_link(p)
        assert path.boxes[1] is p.candidates[1][0]

    def test_matches_brute_force_on_random_instances(self):
        rng = random.Random(123)
        for _ in range(150):
            p = random_problem(rng)
            fast = viterbi_link(p)
            slow = brute_force_link(p)
            assert fast.score == slow.score
            assert fast == slow

    def test_mean_link_score_bounds(self):
        rng = random.Random(7)
        for _ in range(50):
            p = random_problem(rng)
            path = viterbi_link(p)
            n = p.span.length
            assert 0.0 <= path.score <= (n - 1) / n + 1e-15


def single_track_dets(length, coords=(0, 0, 30, 60), video_id="v"):
    frames = {
        f: (Box2D(x1=coords[0], y1=coords[1], x2=coords[2], y2=coords[3]),)
        for f in range(length)
    }
    return FrameDetections(video_id=video_id, length=length, frames=frames)


class TestExtractTubes:
    def test_single_perfect_track(self):
        tubes = extract_tubes(single_track_dets(20))
        assert len(tubes) == 1
        assert tubes[0].span == TemporalSpan(0, 19)
        assert len(tubes[0].boxes) == 20

    def test_short_region_ignored(self):
        # four boxed frames inside a longer video: no proposal of length >= 5
        frames = {f: (Box2D(0, 0, 10, 10),) for f in range(2, 6)}
        dets = FrameDetections(video_id="v", length=20, frames=frames)
        assert extract_tubes(dets, ExtractionConfig(median_window=3)) == []
        assert extract_tubes(dets) == []  # default window 80 smooths it away too

    def test_empty_input(self):
        dets = FrameDetections(video_id="v", length=0)
        assert extract_tubes(dets) == []

    def test_planted_parallel_tracks_recovered(self):
        cfg = SynthConfig(seed=11, videos=4, frames=30, persons=2, fp_rate=0.1, miss_rate=0.0)
        detections, gt, _ = generate_scene(cfg)
        for dets in detections:
            tubes = extract_tubes(dets)
            planted = [t for v, t in gt if v == dets.video_id]
            assert len(tubes) >= len(planted)
            taken = set()
            for g in planted:
                best, best_i = -1.0, None
                for i, tube in enumerate(tubes):
                    if i in taken:
                        continue
                    iou = tube_iou(tube, g)
                    if iou > best:
                        best, best_i = iou, i
                taken.add(best_i)
                tube = tubes[best_i]
                covered = len(set(tube.span.frames()) & set(g.span.frames()))
                assert covered / g.span.length >= 0.95

    def test_box_conservation(self):
        from tubekit import DetectionCountSeries, pad_detections

        cfg = SynthConfig(seed=3, videos=3, frames=40, persons=2, fp_rate=0.2, miss_rate=0.1)
        detections, _, _ = generate_scene(cfg)
        for dets in detections:
            tubes = extract_tubes(dets)
            series = DetectionCountSeries.from_detections(dets, 80)
            padded = pad_detections(dets, list(series.smoothed))
            emitted = sum(t.span.length for t in tubes)
            assert emitted <= padded.total_boxes()
            for t in tubes:
                assert t.span.length >= 5
                assert len(t.boxes) == t.span.length

    def test_noiseless_corpus_recovered_exactly(self):
        cfg = SynthConfig(seed=29, videos=4, frames=60, persons=2, fp_rate=0.0, miss_rate=0.0)
        detections, gt, _ = generate_scene(cfg)
        for dets in detections:
            tubes = extract_tubes(dets)
            planted = [t for v, t in gt if v == dets.video_id]
            assert len(tubes) == len(planted)
            remaining = list(tubes)
            for g in planted:
                hit = max(remaining, key=lambda t: tube_iou(t, g))
                assert tube_iou(hit, g) == 1.0
                remaining.remove(hit)

    def test_each_box_used_at_most_once(self):
        cfg = SynthConfig(seed=5, videos=2, frames=30, persons=2, fp_rate=0.1, miss_rate=0.05)
        detections, _, _ = generate_scene(cfg)
        for dets in detections:
            tubes = extract_tubes(dets)
            from tubekit import DetectionCountSeries, pad_detections

            series = DetectionCountSeries.from_detections(dets, 80)
            padded = pad_detections(dets, list(series.smoothed))
            pool = {f: list(boxes) for f, boxes in padded.frames.items()}
            for t in tubes:
                for f, b in zip(t.span.frames(), t.boxes):
                    assert b in pool[f]
                    pool[f].remove(b)

    def test_deterministic(self):
        cfg = SynthConfig(seed=9, videos=2, frames=50, persons=2)
        detections, _, _ = generate_scene(cfg)
        for dets in detections:
            assert extract_tubes(dets) == extract_tubes(dets)

    def test_output_sorted_by_start_then_length(self):
        cfg = SynthConfig(seed=21, videos=3, frames=60, persons=2, fp_rate=0.3, miss_rate=0.1)
        detections, _, _ = generate_scene(cfg)
        for dets in detections:
            tubes = extract_tubes(dets)
            keys = [(t.span.start, -t.span.length) for t in tubes]
            assert keys == sorted(keys)

    def test_scores_are_mean_link_scores(self):
        tubes = extract_tubes(single_track_dets(20))
        # constant box: every transition has IoU 1, so the mean is (T-1)/T
        assert tubes[0].score == pytest.approx(19 / 20)

    def test_config_validation(self):
        with pytest.raises(ValueError):
            ExtractionConfig(min_tube_len=0)
        with pytest.raises(ValueError):
            ExtractionConfig(median_window=0)


# Scalar twins: the IoU table against box_iou, and extract_tubes against
# naive_extract_tubes, which re-links every region with box_iou per pair
# and removes boxes with list.index.

lattice = st.integers(0, 12).map(float)
# wide enough to reach huge and tiny magnitudes, narrow enough that areas stay finite
wide = st.floats(min_value=-1e150, max_value=1e150)


@st.composite
def box(draw, coord=lattice, side=st.integers(1, 6).map(float)):
    x1, y1 = draw(coord), draw(coord)
    # nextafter: a side that vanishes next to a huge corner still leaves a positive width
    x2 = max(x1 + draw(side), math.nextafter(x1, math.inf))
    y2 = max(y1 + draw(side), math.nextafter(y1, math.inf))
    return Box2D(x1, y1, x2, y2)


any_box = st.one_of(box(), box(wide, st.floats(min_value=2.0**-20, max_value=1e150)))


@settings(max_examples=300, deadline=None)
@given(st.lists(any_box, min_size=1, max_size=8), st.lists(any_box, min_size=1, max_size=8))
def test_iou_table_matches_box_iou(prev, cur):
    table = _iou_table([prev, cur])
    assert table[0] == [[] for _ in prev]
    got = [[v.hex() for v in row] for row in table[1]]
    assert got == [[box_iou(a, b).hex() for a in prev] for b in cur]


@st.composite
def video(draw):
    length = draw(st.integers(1, 30))
    # a small pool gives identical boxes on one frame and IoU ties between frames
    pool = draw(st.lists(st.tuples(lattice, lattice, st.integers(1, 6), st.integers(1, 6)),
                         min_size=1, max_size=5))
    frames = {}
    for f in range(length):
        # empty frames inside a region, and counts that vary so that frames get padded
        n = draw(st.sampled_from([0, 1, 1, 2, 2, 3, 4, 8]))
        boxes = []
        for x1, y1, w, h in draw(st.lists(st.sampled_from(pool), min_size=n, max_size=n)):
            score = draw(st.sampled_from([None, None, 0.5, 0.9]))
            boxes.append(Box2D(x1, y1, x1 + w, y1 + h, score=score))
        frames[f] = tuple(boxes)
    return FrameDetections(video_id="v", length=length, frames=frames)


@settings(max_examples=300, deadline=None)
@given(video(), st.integers(1, 6), st.sampled_from([1, 2, 3, 5, 8, 80]))
def test_extract_tubes_matches_scalar_twin(dets, min_tube_len, median_window):
    cfg = ExtractionConfig(min_tube_len=min_tube_len, median_window=median_window)
    fast = extract_tubes(dets, cfg)
    slow = naive_extract_tubes(dets, cfg)
    assert fast == slow
    assert [t.score.hex() for t in fast] == [t.score.hex() for t in slow]
