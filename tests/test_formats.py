import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from tubekit import (
    Box2D,
    ClipScore,
    EvalConfig,
    FlowField,
    FrameDetections,
    LabelMask,
    ParseError,
    ScoreVector,
    StreamScoreSet,
    TemporalSpan,
    Tube,
    VocabularyError,
    encode_flow,
    mask_to_boxes,
    read_detections,
    read_predictions,
    read_report,
    read_scores,
    read_tubes,
    video_map,
    write_detections,
    write_predictions,
    write_report,
    write_scores,
    write_tubes,
)


def flood_fill_boxes(mask, min_pixels):
    """Reference component labeling: BFS flood fill over 8-neighbourhoods."""
    h, w = mask.shape
    seen = np.zeros((h, w), dtype=bool)
    boxes = []
    for sy in range(h):
        for sx in range(w):
            if mask[sy, sx] < 1 or seen[sy, sx]:
                continue
            stack = [(sy, sx)]
            seen[sy, sx] = True
            pixels = []
            while stack:
                y, x = stack.pop()
                pixels.append((y, x))
                for dy in (-1, 0, 1):
                    for dx in (-1, 0, 1):
                        ny, nx = y + dy, x + dx
                        if 0 <= ny < h and 0 <= nx < w and not seen[ny, nx] and mask[ny, nx] >= 1:
                            seen[ny, nx] = True
                            stack.append((ny, nx))
            if len(pixels) >= min_pixels:
                ys = [p[0] for p in pixels]
                xs = [p[1] for p in pixels]
                boxes.append((min(xs), min(ys), max(xs) + 1, max(ys) + 1))
    boxes.sort(key=lambda b: -((b[2] - b[0]) * (b[3] - b[1])))
    return boxes


class TestMaskToBoxes:
    def test_background_only(self):
        assert mask_to_boxes(LabelMask(np.zeros((20, 20), dtype=int))) == []

    def test_single_blob_tight_halfopen_box(self):
        labels = np.zeros((30, 30), dtype=int)
        labels[5:15, 5:15] = 3
        boxes = mask_to_boxes(LabelMask(labels))
        assert boxes == [Box2D(5.0, 5.0, 15.0, 15.0)]

    def test_two_blobs(self):
        labels = np.zeros((40, 40), dtype=int)
        labels[2:10, 2:10] = 1
        labels[20:30, 20:32] = 2
        boxes = mask_to_boxes(LabelMask(labels))
        assert len(boxes) == 2
        assert boxes[0].area >= boxes[1].area

    def test_small_components_dropped(self):
        labels = np.zeros((20, 20), dtype=int)
        labels[0:2, 0:2] = 1  # 4 pixels < default 25
        assert mask_to_boxes(LabelMask(labels)) == []
        assert len(mask_to_boxes(LabelMask(labels), min_pixels=1)) == 1

    def test_diagonal_pixels_are_connected(self):
        labels = np.zeros((10, 10), dtype=int)
        for i in range(6):
            labels[i, i] = 1
        boxes = mask_to_boxes(LabelMask(labels), min_pixels=1)
        assert boxes == [Box2D(0.0, 0.0, 6.0, 6.0)]

    def test_boxes_are_tight(self):
        labels = np.zeros((25, 25), dtype=int)
        labels[3:12, 4:14] = 1
        (box,) = mask_to_boxes(LabelMask(labels))
        region = labels[int(box.y1): int(box.y2), int(box.x1): int(box.x2)]
        assert region.any(axis=1).all() or region[0].any()  # no empty border rows
        assert region[0, :].any() and region[-1, :].any()
        assert region[:, 0].any() and region[:, -1].any()

    @given(st.integers(0, 2**32 - 1))
    def test_matches_flood_fill_reference(self, seed):
        rng = np.random.default_rng(seed)
        labels = (rng.random((18, 22)) < 0.35).astype(int)
        got = [(b.x1, b.y1, b.x2, b.y2) for b in mask_to_boxes(LabelMask(labels), min_pixels=3)]
        ref = [tuple(float(v) for v in b) for b in flood_fill_boxes(labels, 3)]
        assert sorted(got) == sorted(ref)

    def test_mask_validation(self):
        with pytest.raises(ValueError):
            LabelMask(np.zeros((0, 5), dtype=int))
        with pytest.raises(ValueError):
            LabelMask(np.full((4, 4), -1))


class TestEncodeFlow:
    def test_zero_flow(self):
        field = FlowField(u=np.zeros((4, 4)), v=np.zeros((4, 4)))
        img = encode_flow(field)
        assert img.shape == (4, 4, 3)
        assert img.dtype == np.uint8
        assert (img[..., 0] == 128).all()
        assert (img[..., 1] == 128).all()
        assert (img[..., 2] == 0).all()

    def test_unit_flow(self):
        field = FlowField(u=np.ones((2, 2)), v=np.zeros((2, 2)))
        img = encode_flow(field)
        assert (img[..., 0] == 144).all()
        assert (img[..., 1] == 128).all()
        assert (img[..., 2] == 16).all()

    def test_clamping(self):
        field = FlowField(u=np.full((2, 2), 20.0), v=np.full((2, 2), -20.0))
        img = encode_flow(field)
        assert (img[..., 0] == 255).all()
        assert (img[..., 1] == 0).all()

    def test_monotone_until_clamp(self):
        us = np.linspace(-7, 7, 50)
        field = FlowField(u=us.reshape(1, -1), v=np.zeros((1, 50)))
        ch1 = encode_flow(field)[0, :, 0].astype(int)
        assert (np.diff(ch1) >= 0).all()

    def test_non_finite_rejected(self):
        with pytest.raises(ValueError):
            FlowField(u=np.array([[np.nan]]), v=np.array([[0.0]]))


def sample_detections():
    a = FrameDetections(
        video_id="vid_a",
        length=3,
        frames={
            0: (Box2D(0.0, 0.0, 10.0, 10.0, score=0.9), Box2D(5.0, 5.0, 9.0, 9.0)),
            2: (Box2D(1.0, 2.0, 3.5, 4.25),),
        },
    )
    b = FrameDetections(video_id="vid_b", length=2, frames={1: (Box2D(0.0, 0.0, 1.0, 1.0),)})
    return [a, b]


def sample_tubes():
    boxes = tuple(Box2D(float(f), 0.0, float(f) + 10.0, 20.0) for f in range(3, 8))
    return [
        ("vid_a", Tube(span=TemporalSpan(3, 7), boxes=boxes, label=2, score=0.75)),
        ("vid_b", Tube(span=TemporalSpan(3, 7), boxes=boxes, label=0)),
    ]


def sample_scores():
    entries = tuple(
        ClipScore(clip_start=s, crop_id=c, vector=ScoreVector((0.25, 1.5, -0.5)))
        for s in (0, 8)
        for c in ("center", "center_flip")
    )
    return [StreamScoreSet(video_id="vid_a", stream="rgb", granularity="net16", entries=entries)]


class TestRoundTrips:
    def test_detections(self, tmp_path):
        path = tmp_path / "d.jsonl"
        write_detections(path, sample_detections())
        assert read_detections(path) == sample_detections()

    def test_detections_write_is_idempotent(self, tmp_path):
        p1, p2 = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
        write_detections(p1, sample_detections())
        write_detections(p2, read_detections(p1))
        assert p1.read_bytes() == p2.read_bytes()

    def test_tubes(self, tmp_path):
        path = tmp_path / "t.jsonl"
        write_tubes(path, sample_tubes())
        assert read_tubes(path) == sample_tubes()

    def test_tubes_write_is_idempotent(self, tmp_path):
        p1, p2 = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
        write_tubes(p1, sample_tubes())
        write_tubes(p2, read_tubes(p1))
        assert p1.read_bytes() == p2.read_bytes()

    def test_scores(self, tmp_path):
        path = tmp_path / "s.jsonl"
        write_scores(path, sample_scores())
        assert read_scores(path) == sample_scores()

    def test_predictions(self, tmp_path):
        path = tmp_path / "p.jsonl"
        rows = [("vid_a", 2, [0.25, 0.5, 0.25]), ("vid_b", 0, [1.0, 0.0, 0.0])]
        write_predictions(path, rows)
        assert read_predictions(path) == rows

    def test_report(self, tmp_path):
        preds = sample_tubes()[:1]
        gts = [("vid_a", Tube(span=preds[0][1].span, boxes=preds[0][1].boxes, label=2))]
        report = video_map(preds, gts, EvalConfig(deltas=(0.2, 0.5)))
        path = tmp_path / "r.jsonl"
        write_report(path, report)
        rows = read_report(path)
        assert {r["delta"] for r in rows} == {0.2, 0.5}
        assert all(r["map"] == 1.0 for r in rows)


class TestParseErrors:
    def test_missing_field_names_line(self, tmp_path):
        path = tmp_path / "d.jsonl"
        path.write_text('{"video_id":"v","boxes":[]}\n')
        with pytest.raises(ParseError) as err:
            read_detections(path)
        assert "line 1" in str(err.value)
        assert "frame" in str(err.value)

    def test_invalid_json_names_line(self, tmp_path):
        path = tmp_path / "d.jsonl"
        good = "".join(
            '{"video_id":"v","frame":%d,"boxes":[]}\n' % f for f in range(16)
        )
        path.write_text(good + "{broken\n")
        with pytest.raises(ParseError) as err:
            read_detections(path)
        assert "line 17" in str(err.value)

    def test_unknown_stream_is_vocabulary_error(self, tmp_path):
        path = tmp_path / "s.jsonl"
        path.write_text(
            '{"video_id":"v","stream":"depth","granularity":"net16","clip_start":0,'
            '"crop_id":"center","kind":"raw","values":[1.0]}\n'
        )
        with pytest.raises(VocabularyError) as err:
            read_scores(path)
        assert "depth" in str(err.value)

    def test_unknown_crop_is_vocabulary_error(self, tmp_path):
        path = tmp_path / "s.jsonl"
        path.write_text(
            '{"video_id":"v","stream":"rgb","granularity":"net16","clip_start":0,'
            '"crop_id":"middle","kind":"raw","values":[1.0]}\n'
        )
        with pytest.raises(VocabularyError):
            read_scores(path)

    def test_mixed_class_counts_rejected(self, tmp_path):
        path = tmp_path / "s.jsonl"
        row = '{"video_id":"v","stream":"rgb","granularity":"net16","clip_start":%d,"crop_id":"center","kind":"raw","values":%s}\n'
        path.write_text(row % (0, "[1.0,2.0]") + row % (8, "[1.0]"))
        with pytest.raises(ParseError) as err:
            read_scores(path)
        assert "class count" in str(err.value)

    def test_tube_box_count_mismatch(self, tmp_path):
        path = tmp_path / "t.jsonl"
        path.write_text('{"video_id":"v","label":0,"start":0,"end":2,"boxes":[[0,0,1,1]]}\n')
        with pytest.raises(ParseError) as err:
            read_tubes(path)
        assert "boxes" in str(err.value)

    def test_degenerate_box_rejected_with_location(self, tmp_path):
        path = tmp_path / "d.jsonl"
        path.write_text('{"video_id":"v","frame":0,"boxes":[{"x1":5,"y1":0,"x2":5,"y2":2}]}\n')
        with pytest.raises(ParseError) as err:
            read_detections(path)
        assert "line 1" in str(err.value)

    def test_duplicate_frame_rejected(self, tmp_path):
        path = tmp_path / "d.jsonl"
        row = '{"video_id":"v","frame":0,"boxes":[]}\n'
        path.write_text(row * 2)
        with pytest.raises(ParseError):
            read_detections(path)

    def test_unknown_extra_fields_tolerated(self, tmp_path):
        path = tmp_path / "d.jsonl"
        path.write_text('{"video_id":"v","frame":0,"boxes":[],"comment":"hi"}\n')
        assert read_detections(path) == [FrameDetections(video_id="v", length=1)]


class TestFrameGaps:
    def test_missing_frame_lines_read_as_empty_or_shorten_the_video(self, tmp_path):
        # frames 0 and 2 of five; frame 1 is an interior gap, frames 3 and 4 trail
        path = tmp_path / "d.jsonl"
        row = '{"video_id":"v","frame":%d,"boxes":[{"x1":0,"y1":0,"x2":4,"y2":4}]}\n'
        path.write_text(row % 0 + row % 2)
        (dets,) = read_detections(path)
        assert dets.length == 3
        assert dets.boxes_on(1) == ()
        assert sorted(dets.frames) == [0, 2]


class TestByteDeterminism:
    def test_identical_inputs_identical_bytes(self, tmp_path):
        p1, p2 = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
        write_tubes(p1, sample_tubes())
        write_tubes(p2, sample_tubes())
        assert p1.read_bytes() == p2.read_bytes()

    def test_reals_written_with_six_significant_digits(self, tmp_path):
        path = tmp_path / "t.jsonl"
        boxes = (Box2D(0.123456789, 0.0, 10.0, 10.0),)
        tubes = [("v", Tube(span=TemporalSpan(0, 0), boxes=boxes, label=0, score=1 / 3))]
        write_tubes(path, tubes)
        text = path.read_text()
        assert "0.123457" in text
        assert "0.333333" in text
