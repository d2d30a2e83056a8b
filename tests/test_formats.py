import json
import math
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tubekit import formats
from tubekit.imaging import FlowField, LabelMask, encode_flow, mask_to_boxes
from tubekit import (
    ActionnessSeries,
    Box2D,
    ClassResult,
    ClipScore,
    EvalConfig,
    EvalReport,
    FrameDetections,
    ParseError,
    ScoreVector,
    StreamScoreSet,
    TemporalSpan,
    Tube,
    VocabularyError,
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
        assert read_scores(path) == {("vid_a", "rgb", "net16"): sample_scores()[0]}

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

    def test_open_file_takes_the_same_lines(self, tmp_path):
        p1, p2 = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
        write_tubes(p1, sample_tubes())
        with open(p2, "w", encoding="utf-8") as fh:
            for row in sample_tubes():
                write_tubes(fh, [row])
        assert p1.read_bytes() == p2.read_bytes()

    def test_reals_written_with_six_significant_digits(self, tmp_path):
        path = tmp_path / "t.jsonl"
        boxes = (Box2D(0.123456789, 0.0, 10.0, 10.0),)
        tubes = [("v", Tube(span=TemporalSpan(0, 0), boxes=boxes, label=0, score=1 / 3))]
        write_tubes(path, tubes)
        text = path.read_text()
        assert "0.123457" in text
        assert "0.333333" in text


# The exact text of every writer on hand-built inputs: reals that need rounding
# (1/3, 123456.789, 1e-7, -0.0), optional scores present and absent, both score
# kinds, a non-ASCII video id and one actionness row. Idempotence and round trips
# pass for any byte change that repeats on every run; these texts pin the bytes.
THIRD = 1 / 3


def _written(tmp_path, writer, items):
    path = tmp_path / "out.jsonl"
    writer(path, items)
    return path.read_bytes().decode("ascii")


class TestExactBytes:
    def test_detections(self, tmp_path):
        dets = FrameDetections("v", 3, {
            0: (Box2D(-0.0, 1e-7, THIRD, 123456.789, score=THIRD), Box2D(1.0, 2.0, 3.0, 4.0)),
            2: (Box2D(0.5, 0.5, 1.5, 1.5, score=-0.0),),
        })
        assert _written(tmp_path, write_detections, [dets]) == (
            '{"video_id":"v","frame":0,"boxes":[{"x1":-0.0,"y1":1e-07,"x2":0.333333,"y2":123457.0,'
            '"score":0.333333},{"x1":1.0,"y1":2.0,"x2":3.0,"y2":4.0}]}\n'
            '{"video_id":"v","frame":1,"boxes":[]}\n'
            '{"video_id":"v","frame":2,"boxes":[{"x1":0.5,"y1":0.5,"x2":1.5,"y2":1.5,"score":-0.0}]}\n'
        )

    def test_tubes(self, tmp_path):
        tubes = [
            ("v", Tube(span=TemporalSpan(2, 3), label=1,
                       boxes=(Box2D(-0.0, 1e-7, THIRD, 123456.789), Box2D(1.0, 2.0, 3.0, 4.0)))),
            ("w", Tube(span=TemporalSpan(0, 0), boxes=(Box2D(0.0, 0.0, 1.0, 1.0),), score=-0.0)),
        ]
        assert _written(tmp_path, write_tubes, tubes) == (
            '{"video_id":"v","label":1,"start":2,"end":3,'
            '"boxes":[[-0.0,1e-07,0.333333,123457.0],[1.0,2.0,3.0,4.0]]}\n'
            '{"video_id":"w","label":null,"start":0,"end":0,"score":-0.0,"boxes":[[0.0,0.0,1.0,1.0]]}\n'
        )

    def test_scores(self, tmp_path):
        sets = [
            StreamScoreSet("v", "rgb", "net16", (
                ClipScore(8, "center_flip", ScoreVector((THIRD, -0.0, 123456.789))),
            )),
            StreamScoreSet("v", "flow", "net32", (
                ClipScore(0, "tl", ScoreVector((THIRD, 2 * THIRD, 1e-7), "prob")),
            )),
        ]
        assert _written(tmp_path, write_scores, sets) == (
            '{"video_id":"v","stream":"rgb","granularity":"net16","clip_start":8,'
            '"crop_id":"center_flip","kind":"raw","values":[0.333333,-0.0,123457.0]}\n'
            '{"video_id":"v","stream":"flow","granularity":"net32","clip_start":0,'
            '"crop_id":"tl","kind":"prob","values":[0.333333,0.666667,1e-07]}\n'
        )

    def test_report(self, tmp_path):
        report = EvalReport(
            deltas=(0.05, THIRD),
            per_delta={
                0.05: (ClassResult(1, THIRD, 3, 1, 1, ((THIRD, 1.0), (THIRD, 0.5))),),
                THIRD: (ClassResult(0, 0.0, 1, 0, 0, ()),),
            },
            map_by_delta={0.05: THIRD, THIRD: -0.0},
        )
        assert _written(tmp_path, write_report, report) == (
            '{"delta":0.05,"class":1,"ap":0.333333,"pr":[[0.333333,1.0],[0.333333,0.5]],"map":0.333333}\n'
            '{"delta":0.333333,"class":0,"ap":0.0,"pr":[],"map":-0.0}\n'
        )

    def test_predictions(self, tmp_path):
        rows = [("v", 2, [THIRD, -0.0, 123456.789]), ("wé", 0, [1e-7])]
        assert _written(tmp_path, write_predictions, rows) == (
            '{"video_id":"v","label":2,"values":[0.333333,-0.0,123457.0]}\n'
            '{"video_id":"w\\u00e9","label":0,"values":[1e-07]}\n'
        )

    def test_actionness(self, tmp_path):
        row = ("v", 2, THIRD, ActionnessSeries((THIRD, 1e-7, -0.0), (True, False, True)), [(0, 1)], [123456.789])
        assert _written(tmp_path, formats.write_actionness, [row]) == (
            '{"video_id":"v","class":2,"threshold":0.333333,"series":[0.333333,1e-07,-0.0],'
            '"human":[true,false,true],"spans":[[0,1]],"tube_sums":[123457.0]}\n'
        )


# Exact parse-error texts on hostile inputs. Line 1 of every file is valid, so
# each error names line 2. Each box reports its first bad field in the order
# x1, y1, x2, y2, score; Box2D's own checks (order, area) come after those.
BIG_INT = "1" + "0" * 399
BAD_NUMBERS = [  # (JSON text, message)
    ("NaN", "expected a finite number, got nan"),
    ("Infinity", "expected a finite number, got inf"),
    ("-Infinity", "expected a finite number, got -inf"),
    ("1e999", "expected a finite number, got inf"),
    ("true", "expected a number, got True"),
    ('"a"', "expected a number, got 'a'"),
    ("null", "expected a number, got None"),
    (BIG_INT, "integer too large for a float"),
]
COORDS = ("x1", "y1", "x2", "y2")
GOOD_BOX = {"x1": "0.0", "y1": "0.0", "x2": "1.0", "y2": "1.0"}


def _json_object(**fields):
    """A JSON object whose values are given as JSON text; a None value leaves its key out."""
    return "{" + ",".join(f'"{k}":{v}' for k, v in fields.items() if v is not None) + "}"


def _detections(boxes):
    good = _json_object(**GOOD_BOX)
    return (
        f'{{"video_id":"v","frame":0,"boxes":[{good}]}}\n'
        f'{{"video_id":"v","frame":1,"boxes":[{boxes}]}}\n'
    )


def _tubes(boxes, score="0.5"):
    end = len(json.loads(boxes)) - 1
    return (
        '{"video_id":"v","label":0,"start":0,"end":0,"score":0.5,"boxes":[[0,0,1,1]]}\n'
        f'{{"video_id":"v","label":0,"start":0,"end":{end},"score":{score},"boxes":{boxes}}}\n'
    )


def _scores(**fields):
    good = {"video_id": '"v"', "stream": '"rgb"', "granularity": '"net16"', "clip_start": "0",
            "crop_id": '"center"', "kind": '"raw"', "values": "[0.25,0.75]"}
    return _json_object(**good) + "\n" + _json_object(**{**good, "clip_start": "8", **fields}) + "\n"


DETECTION_ERRORS = [
    *[
        pytest.param(_json_object(**dict(GOOD_BOX, **{key: text})), key, msg, id=f"{key}={text[:8]}")
        for key in COORDS
        for text, msg in BAD_NUMBERS
    ],
    *[
        pytest.param(_json_object(**GOOD_BOX, score=text), "score", msg, id=f"score={text[:8]}")
        for text, msg in BAD_NUMBERS
        if text != "null"  # a null score is an absent score
    ],
    pytest.param('{"x1":0,"y1":0,"x2":1}', "y2", "missing required field", id="missing-y2"),
    pytest.param('{"x1":5,"y1":0,"x2":5,"y2":2}', "boxes",
                 "degenerate box (5.0, 0.0, 5.0, 2.0): x1 < x2 and y1 < y2 required", id="degenerate"),
    pytest.param('{"x1":0,"y1":0,"x2":1e-200,"y2":1e-200}', "boxes",
                 "box (0.0, 0.0, 1e-200, 1e-200) has area 0.0: a positive finite area required",
                 id="zero-area"),
    pytest.param('{"x1":-1e308,"y1":0,"x2":1e308,"y2":1}', "boxes",
                 "box (-1e+308, 0.0, 1e+308, 1.0) has area inf: a positive finite area required",
                 id="infinite-area"),
    pytest.param("[0,0,1,1]", "boxes", "box is not an object: [0, 0, 1, 1]", id="not-an-object"),
    pytest.param('{"x1":NaN,"y1":0.0,"x2":1.0,"y2":1.0,"score":"a"}', "x1",
                 "expected a finite number, got nan", id="nan-x1-and-string-score"),
    pytest.param('{"y1":"a","x2":NaN,"y2":1}', "x1", "missing required field", id="missing-x1-then-bad"),
    pytest.param('{"x1":1.0,"y1":true,"x2":0.0,"y2":Infinity}', "y1", "expected a number, got True",
                 id="bool-y1-degenerate-inf-y2"),
    pytest.param('{"x1":0.0,"y1":0.0,"x2":1.0,"y2":NaN,"score":true}', "y2",
                 "expected a finite number, got nan", id="nan-y2-and-bool-score"),
    pytest.param('{"x1":0,"y1":0,"x2":-1,"y2":1,"score":NaN}', "score",
                 "expected a finite number, got nan", id="degenerate-and-nan-score"),
    pytest.param('{"x1":0,"y1":0,"x2":1,"y2":1},{"x1":0,"y1":0,"x2":1,"y2":"b"}', "y2",
                 "expected a number, got 'b'", id="second-box"),
]


@pytest.mark.parametrize("box, field, message", DETECTION_ERRORS)
def test_read_detections_error_text(tmp_path, box, field, message):
    path = tmp_path / "d.jsonl"
    path.write_text(_detections(box))
    with pytest.raises(ParseError) as err:
        read_detections(path)
    assert str(err.value) == f"{path}, line 2, field '{field}': {message}"


TUBE_ERRORS = [
    *[
        pytest.param(
            "[[" + ",".join(text if i == pos else c for i, c in enumerate(("0.0", "0.0", "1.0", "1.0"))) + "]]",
            "boxes", msg, id=f"{COORDS[pos]}={text[:8]}",
        )
        for pos in range(4)
        for text, msg in BAD_NUMBERS
    ],
    pytest.param("[[0,0,1]]", "boxes", "expected [x1,y1,x2,y2], got [0, 0, 1]", id="three-coords"),
    pytest.param('[{"x1":0}]', "boxes", "expected [x1,y1,x2,y2], got {'x1': 0}", id="object-box"),
    pytest.param("[[5,0,5,2]]", "boxes",
                 "degenerate box (5.0, 0.0, 5.0, 2.0): x1 < x2 and y1 < y2 required", id="degenerate"),
    pytest.param("[[0,0,1e-200,1e-200]]", "boxes",
                 "box (0.0, 0.0, 1e-200, 1e-200) has area 0.0: a positive finite area required",
                 id="zero-area"),
    pytest.param("[[0.0,0.0,1e308,1e308]]", "boxes",
                 "box (0.0, 0.0, 1e+308, 1e+308) has area inf: a positive finite area required",
                 id="infinite-area"),
    pytest.param('[[NaN,"a",0,1]]', "boxes", "expected a finite number, got nan", id="nan-then-string"),
    pytest.param('[["a",NaN,0,1]]', "boxes", "expected a number, got 'a'", id="string-then-nan"),
    pytest.param("[[0,0,-1,NaN]]", "boxes", "expected a finite number, got nan", id="degenerate-and-nan"),
    pytest.param("[[0,0,1,1],[0,0,1,-1]]", "boxes",
                 "degenerate box (0.0, 0.0, 1.0, -1.0): x1 < x2 and y1 < y2 required", id="second-box"),
]


@pytest.mark.parametrize("boxes, field, message", TUBE_ERRORS)
def test_read_tubes_error_text(tmp_path, boxes, field, message):
    path = tmp_path / "t.jsonl"
    path.write_text(_tubes(boxes))
    with pytest.raises(ParseError) as err:
        read_tubes(path)
    assert str(err.value) == f"{path}, line 2, field '{field}': {message}"


@pytest.mark.parametrize(
    "score, boxes, message",
    [
        ('"a"', "[[NaN,0,1,1]]", "expected a number, got 'a'"),
        ("NaN", "[[0,0,1,1]]", "expected a finite number, got nan"),
        (BIG_INT, "[[0,0,1,1]]", "integer too large for a float"),
    ],
    ids=["string-score-before-boxes", "nan", "big-int"],
)
def test_read_tubes_score_error_text(tmp_path, score, boxes, message):
    path = tmp_path / "t.jsonl"
    path.write_text(_tubes(boxes, score=score))
    with pytest.raises(ParseError) as err:
        read_tubes(path)
    assert str(err.value) == f"{path}, line 2, field 'score': {message}"


SCORE_ERRORS = [
    *[
        pytest.param({"values": f"[0.25,{text}]"}, "values", msg, id=f"values={text[:8]}")
        for text, msg in BAD_NUMBERS
    ],
    pytest.param({"values": "[]"}, "values", "class count 0 differs from 2 seen earlier in the file",
                 id="empty-values"),
    pytest.param({"values": "0.5"}, "values", "expected an array, got 0.5", id="values-not-array"),
    pytest.param({"values": None}, "values", "missing required field", id="missing-values"),
    pytest.param({"values": "[0.25]"}, "values", "class count 1 differs from 2 seen earlier in the file",
                 id="class-count"),
    pytest.param({"values": '["a"]'}, "values", "expected a number, got 'a'", id="string-before-class-count"),
    pytest.param({"kind": '"prob"', "values": "[1.5,0.0]"}, "values",
                 "probability vector with entries above 1", id="prob-above-1"),
    pytest.param({"kind": '"prob"', "values": "[1.5,-0.5]"}, "values",
                 "probability vector with negative entries", id="prob-negative"),
    pytest.param({"kind": '"prob"', "values": "[0.5,0.25]"}, "values",
                 "probability vector sums to 0.75, not 1", id="prob-sum"),
    pytest.param({"kind": '"prob"', "values": "[NaN,1.0]"}, "values",
                 "expected a finite number, got nan", id="prob-nan"),
    pytest.param({"video_id": "3"}, "video_id", "expected a string, got 3", id="video-id-int"),
    pytest.param({"video_id": None}, "video_id", "missing required field", id="missing-video-id"),
    pytest.param({"stream": "1"}, "stream", "expected a string, got 1", id="stream-int"),
    pytest.param({"stream": '"depth"'}, "stream",
                 "unknown stream 'depth', expected one of ['pose', 'flow', 'rgb']", id="stream-unknown"),
    pytest.param({"granularity": '"net8"'}, "granularity",
                 "unknown granularity 'net8', expected one of ['net16', 'net32', 'netW']", id="granularity"),
    pytest.param({"crop_id": "null"}, "crop_id", "expected a string, got None", id="crop-null"),
    pytest.param({"crop_id": '"middle"'}, "crop_id",
                 "unknown crop_id 'middle', expected one of ['center', 'center_flip', 'tl', 'tl_flip', "
                 "'tr', 'tr_flip', 'bl', 'bl_flip', 'br', 'br_flip']", id="crop-unknown"),
    pytest.param({"kind": '"logit"'}, "kind", "unknown kind 'logit', expected one of ['raw', 'prob']",
                 id="kind-unknown"),
    pytest.param({"clip_start": "-8"}, "clip_start", "negative clip_start -8", id="clip-start-negative"),
    pytest.param({"clip_start": "8.0"}, "clip_start", "expected an integer, got 8.0", id="clip-start-float"),
    pytest.param({"clip_start": "true"}, "clip_start", "expected an integer, got True", id="clip-start-bool"),
    pytest.param({"stream": '"depth"', "values": "[NaN]"}, "stream",
                 "unknown stream 'depth', expected one of ['pose', 'flow', 'rgb']", id="stream-before-values"),
    pytest.param({"clip_start": "-8", "values": '["a"]'}, "clip_start", "negative clip_start -8",
                 id="clip-start-before-values"),
]


@pytest.mark.parametrize("fields, field, message", SCORE_ERRORS)
def test_read_scores_error_text(tmp_path, fields, field, message):
    path = tmp_path / "s.jsonl"
    path.write_text(_scores(**fields))
    with pytest.raises(ParseError) as err:
        read_scores(path)
    assert str(err.value) == f"{path}, line 2, field '{field}': {message}"


def test_read_scores_mixed_kinds_error_text(tmp_path):
    path = tmp_path / "s.jsonl"
    path.write_text(_scores(kind='"prob"', values="[0.25,0.75]"))
    with pytest.raises(ParseError) as err:
        read_scores(path)
    assert str(err.value) == f"{path}, line 2, field 'kind': video 'v' rgb/net16: mixed raw/prob score kinds in one set"


def test_read_scores_empty_first_vector_error_text(tmp_path):
    path = tmp_path / "s.jsonl"
    path.write_text(_scores(values="[]").splitlines()[1] + "\n")
    with pytest.raises(ParseError) as err:
        read_scores(path)
    assert str(err.value) == f"{path}, line 1, field 'values': empty score vector"


# The readers take finite float boxes and score vectors without the field-by-field
# parse; whatever they read or refuse must match that parse, the reference.
HOSTILE = st.one_of(
    st.floats(-1e3, 1e3),
    st.integers(-3, 1003),
    st.sampled_from([math.nan, math.inf, -math.inf, 1e308, -1e308, 5e-324, True, False, None, "a",
                     10**400, [], {}]),
)


@st.composite
def near_valid_corners(draw):
    """Float corners of a valid box, some of them replaced by hostile values."""
    x1, y1 = draw(st.floats(-1e3, 1e3)), draw(st.floats(-1e3, 1e3))
    corners = [x1, y1, x1 + draw(st.floats(1e-3, 1e3)), y1 + draw(st.floats(1e-3, 1e3))]
    for i in draw(st.sets(st.integers(0, 3), max_size=2)):
        corners[i] = draw(HOSTILE)
    return corners


def _read_or_error(reader, text):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "f.jsonl"
        path.write_text(text)
        try:
            return reader(path), path
        except ParseError as exc:
            return str(exc).replace(str(path), "<path>"), path


def _reference_or_error(parse, path):
    try:
        return parse()
    except ParseError as exc:
        return str(exc).replace(str(path), "<path>")


@given(
    near_valid_corners(),
    st.one_of(st.none(), HOSTILE),
    st.sets(st.sampled_from(["x1", "y1", "x2", "y2", "score"]), max_size=1),
)
@settings(max_examples=300, deadline=None)
def test_detection_boxes_match_field_by_field_parse(corners, score, missing):
    box = dict(zip(("x1", "y1", "x2", "y2"), corners), score=score)
    for key in missing:
        del box[key]
    got, path = _read_or_error(read_detections, json.dumps({"video_id": "v", "frame": 0, "boxes": [box]}) + "\n")
    want = _reference_or_error(lambda: formats._detection_box(path, 1, box), path)
    if isinstance(want, str):
        assert got == want
    else:
        assert got == [FrameDetections("v", 1, {0: (want,)})]


@given(st.one_of(near_valid_corners(), st.lists(HOSTILE, max_size=5), HOSTILE))
@settings(max_examples=300, deadline=None)
def test_tube_boxes_match_field_by_field_parse(box):
    record = {"video_id": "v", "label": 0, "start": 0, "end": 0, "boxes": [box]}
    got, path = _read_or_error(read_tubes, json.dumps(record) + "\n")
    want = _reference_or_error(lambda: formats._tube_box(path, 1, box), path)
    if isinstance(want, str):
        assert got == want
    else:
        assert got == [("v", Tube(TemporalSpan(0, 0), (want,), label=0))]


@given(
    st.lists(HOSTILE, max_size=4),
    st.sampled_from(["raw", "prob", "logit", None]),
    st.sampled_from(["center", "tl_flip", "middle", None]),
    st.sampled_from([0, 8, -8, 8.0, True, None]),
)
@settings(max_examples=300, deadline=None)
def test_score_records_match_field_by_field_parse(values, kind, crop, clip_start):
    record = {"video_id": "v", "stream": "rgb", "granularity": "net16", "crop_id": crop, "kind": kind,
              "clip_start": clip_start, "values": values}
    got, path = _read_or_error(read_scores, json.dumps(record) + "\n")
    want = _reference_or_error(lambda: formats._score_entry(path, 1, record, None), path)
    if isinstance(want, str):
        assert got == want
    elif kind == "prob" and abs(math.fsum(want.vector.values) - 1.0) > formats.PROB_SUM_TOL:
        assert got.startswith("<path>, line 1, field 'values': probability vector sums to")
    else:
        assert got == {("v", "rgb", "net16"): StreamScoreSet("v", "rgb", "net16", (want,))}
