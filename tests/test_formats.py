import io
import json
import math
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from oracles import loads_records
from tubekit import formats
from tubekit.formats import quantize
from tubekit.synth import SynthConfig, generate_video
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
    read_scores,
    read_tubes,
    video_map,
    write_detections,
    write_predictions,
    write_report,
    write_scores,
    write_tubes,
)


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
        rows = [record for _, record in loads_records(path)]
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

    def test_blank_lines_skipped_but_counted(self, tmp_path):
        path = tmp_path / "d.jsonl"
        good = '{"video_id":"v","frame":0,"boxes":[]}\n'
        path.write_text("\n" + good + " \t\n\r\n")
        assert read_detections(path) == [FrameDetections(video_id="v", length=1)]
        path.write_text("\n" + good + " \t\n\r\n{broken\n")
        with pytest.raises(ParseError) as err:
            read_detections(path)
        assert f"{path}, line 5: invalid JSON" in str(err.value)

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
        assert dets.frames.get(1, ()) == ()
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
        row = ("v", 2, THIRD, ActionnessSeries(((1, THIRD, True), (1, 1e-7, False), (1, -0.0, True))), [(0, 1)],
               [123456.789])
        assert _written(tmp_path, formats.write_actionness, [row]) == (
            '{"video_id":"v","class":2,"threshold":0.333333,"series":[0.333333,1e-07,-0.0],'
            '"human":[true,false,true],"spans":[[0,1]],"tube_sums":[123457.0]}\n'
        )

    def test_actionness_repeats_each_piece(self, tmp_path):
        row = ("v", 0, 0.5, ActionnessSeries(((3, THIRD, True), (1, -0.0, False), (2, 1e-7, False))), [], [])
        assert _written(tmp_path, formats.write_actionness, [row]) == (
            '{"video_id":"v","class":0,"threshold":0.5,"series":[0.333333,0.333333,0.333333,-0.0,1e-07,1e-07],'
            '"human":[true,true,true,false,false,false],"spans":[],"tube_sums":[]}\n'
        )


# The writers render each line as text; tests/oracles.py builds the dict
# records they once handed json's encoder, and json.dumps of those records with
# the same options is the reference for every line. formats._real renders a real.
ODD_ID = 'vé\x00\x1f\t\n"\\ \ud800\U0001f600'
LINE_RECORDS = {  # writer -> its twin in tests/oracles.py
    write_detections: oracles.detection_records,
    write_scores: oracles.score_records,
    write_tubes: oracles.tube_records,
    write_report: oracles.report_records,
    write_predictions: oracles.prediction_records,
    formats.write_actionness: oracles.actionness_records,
}


def _outcome(render, *args) -> str:
    """The text ``render(*args)`` returns, or the repr of its ValueError."""
    try:
        return render(*args)
    except ValueError as exc:
        return repr(exc)


def _lines(writer, items) -> str:
    sink = io.StringIO()
    writer(sink, items)
    return sink.getvalue()


def _every_writer_input() -> list:
    """(writer, items) for hand-built inputs of each writer with an odd video id."""
    return [
        (write_detections, [FrameDetections(ODD_ID, 2, {
            0: (Box2D(-0.0, 1e-7, THIRD, 123456.789, score=THIRD), Box2D(1.0, 2.0, 3.0, 4.0)),
        })]),
        (write_tubes, [
            (ODD_ID, Tube(span=TemporalSpan(2, 2), boxes=(Box2D(0.0, 0.0, 1.0, 1.0),))),
            (ODD_ID, Tube(span=TemporalSpan(0, 0), boxes=(Box2D(0.0, 0.0, 1.0, 1.0),), label=3, score=-0.0)),
        ]),
        (write_scores, [
            StreamScoreSet(ODD_ID, "rgb", "net16", (ClipScore(8, "center_flip", ScoreVector((THIRD, -0.0, 1e300))),)),
            StreamScoreSet(ODD_ID, "flow", "netW", (ClipScore(0, "tl", ScoreVector((0.25, 0.75), "prob")),)),
        ]),
        (write_report, EvalReport(
            deltas=(0.05, THIRD),
            per_delta={0.05: (ClassResult(1, THIRD, 3, 1, 1, ((THIRD, 1.0),)),), THIRD: (ClassResult(0, 0.0, 1, 0, 0, ()),)},
            map_by_delta={0.05: THIRD, THIRD: -0.0},
        )),
        (write_predictions, [(ODD_ID, 2, (THIRD, -0.0)), (ODD_ID, 0, [5e-324])]),
        (formats.write_actionness, [
            (ODD_ID, 2, THIRD, ActionnessSeries(((1, THIRD, True), (1, -0.0, False))), [(0, 1), (3, 3)],
             (123456.789,)),
            (ODD_ID, 0, 0.5, ActionnessSeries(()), [], []),
        ]),
    ]


def test_json_string_encoder_is_there():
    # the writers encode strings with json's own encoder, which json.dumps calls
    # with ensure_ascii; pin that it is the C one and writes what json.dumps writes
    assert formats._string is json.encoder.c_encode_basestring_ascii
    for text in (ODD_ID, "", "v", "é" * 3, "\x7f\x80\uffff"):
        assert formats._string(text) == json.dumps(text) == json.encoder.py_encode_basestring_ascii(text)


def test_writers_write_what_json_dumps_writes():
    inputs = _every_writer_input()
    assert {writer for writer, _ in inputs} == set(LINE_RECORDS)
    records = [LINE_RECORDS[writer](items) for writer, items in inputs]
    # detections 2, tubes 2, scores 2, report 2, predictions 2, actionness 2
    assert [len(r) for r in records] == [2] * 6
    for (writer, items), recs in zip(inputs, records):
        assert _lines(writer, items) == oracles.dumped_lines(recs)


def test_synth_corpus_lines_are_what_json_dumps_writes():
    cfg = SynthConfig(videos=4, frames=40, persons=2, fp_rate=0.3, miss_rate=0.1, classes=5, seed=11)
    videos = [generate_video(cfg, i) for i in range(cfg.videos)]
    dets = [d for d, _, _ in videos]
    gt = [t for _, tubes, _ in videos for t in tubes]
    sets = [s for _, _, ss in videos for s in ss]
    for writer, items in ((write_detections, dets), (write_tubes, gt), (write_scores, sets)):
        assert _lines(writer, items) == oracles.dumped_lines(LINE_RECORDS[writer](items))


def test_series_of_many_pieces():
    n = 8195
    row = ("v", 0, 0.5, ActionnessSeries(tuple((1 + f % 4, f / 7, f % 3 == 0) for f in range(n))),
           [(0, n - 1)], [n / 7])
    assert _lines(formats.write_actionness, [row]) == oracles.dumped_lines(oracles.actionness_records([row]))


@pytest.mark.parametrize("first", [1, formats._PART_FRAMES, formats._PART_FRAMES + 1, 2 * formats._PART_FRAMES + 3])
def test_piece_longer_than_a_part(first):
    # a long piece goes out as parts of at most _PART_FRAMES frames each, and the line is unchanged
    second = 2 * formats._PART_FRAMES + 1
    row = ("v", 0, 0.5, ActionnessSeries(((first, -1.25e-05, True), (second, 0.5, False))),
           [(0, first - 1)], [(first + second) / 7])
    assert _lines(formats.write_actionness, [row]) == oracles.dumped_lines(oracles.actionness_records([row]))
    parts = list(formats._frame_parts(["-1.25e-05", "0.5"], [first, second]))
    assert max(part.count(",") for part in parts) <= formats._PART_FRAMES


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_encoder_refuses_non_finite_reals_as_json_dumps_does(bad):
    with pytest.raises(ValueError) as dumps_error:
        json.dumps(bad, allow_nan=False)
    want = repr(dumps_error.value)
    assert _outcome(formats._real, bad) == want
    good = [("v", 0, [0.5])]
    for writer, items in [
        (write_predictions, good + [("v", 1, [0.5, bad])]),
        (formats.write_actionness, [("v", 0, bad, ActionnessSeries(()), [], [])]),
        (formats.write_actionness, [("v", 0, 0.5, ActionnessSeries(((1, 0.5, True), (2, bad, True))), [], [])]),
        (formats.write_actionness, [("v", 0, 0.5, ActionnessSeries(()), [], [1.0, bad])]),
        (write_report, EvalReport((0.5,), {0.5: (ClassResult(0, 0.5, 1, 1, 0, ((1.0, bad),)),)}, {0.5: 0.5})),
    ]:
        # the lines before the bad one are written, and nothing of the bad one
        sink = io.StringIO()
        assert _outcome(writer, sink, items) == want
        assert _outcome(oracles.dumped_lines, LINE_RECORDS[writer](items)) == want
        assert sink.getvalue() == (_lines(writer, good) if writer is write_predictions else "")


# doubles at the edges of each form of the %.6g text: zeros, subnormals, the
# smallest normal, the fixed-notation range [1e-4, 1e6), repr's fixed range up
# to 1e16, the largest double, and integers
REAL_EDGES = [
    0.0, -0.0, 5e-324, -5e-324, 1e-320, 2.2250738585072014e-308, 2.225074e-308, 2.22507e-308,
    math.nextafter(2.2250738585072014e-308, 0.0), math.nextafter(2.2250738585072014e-308, 1.0),
    1e-307, math.nextafter(1e-307, 0.0), 9.999995e-05, 9.9999949e-05, 1e-4, math.nextafter(1e-4, 0.0),
    999999.5, 999999.4, 1e6, 1e15, 9.999995e15, 9.9999949e15, 1e16, math.nextafter(1e16, 0.0),
    1e300, 1.7976931348623157e308, 1 / 3, 123456.789, 1e-7,
] + [float(n) for n in (1, 10, 99, 100, 12345, 123456, 999999, 10**6)]


@pytest.mark.parametrize("x", REAL_EDGES + [-x for x in REAL_EDGES], ids=repr)
def test_real_on_the_edges_of_each_form(x):
    assert formats._real(x) == json.dumps(quantize(x))


def test_real_on_integers():
    for n in range(-10**6, 10**6 + 1, 997):
        assert formats._real(float(n)) == formats._real(n) == json.dumps(quantize(n))


@given(st.floats(allow_nan=False, allow_infinity=False))
@settings(max_examples=2000, deadline=None)
def test_real_is_json_dumps_of_quantize(x):
    assert formats._real(x) == json.dumps(quantize(x), allow_nan=False)


BOX = st.tuples(
    st.floats(-1e6, 1e6), st.floats(-1e6, 1e6), st.floats(1e-3, 1e6), st.floats(1e-3, 1e6),
    st.none() | st.floats(allow_nan=False, allow_infinity=False),
).map(lambda b: Box2D(b[0], b[1], b[0] + b[2], b[1] + b[3], b[4]))
ANY_REAL = st.floats(allow_nan=True, allow_infinity=True)


@given(
    st.text(max_size=6),
    st.lists(st.lists(BOX, max_size=3), max_size=3),
    st.lists(st.tuples(st.integers(-2**70, 2**70), st.lists(ANY_REAL, max_size=4)), max_size=3),
    st.lists(st.tuples(ANY_REAL, st.booleans(), st.integers(1, 3)), max_size=5),
    st.lists(st.tuples(ANY_REAL, ANY_REAL), max_size=3),
)
@settings(max_examples=300, deadline=None)
def test_writer_lines_match_json_dumps_on_any_input(vid, frames, predictions, series, pr):
    inputs = [
        (write_detections, [FrameDetections(vid, len(frames), {f: tuple(b) for f, b in enumerate(frames) if b})]),
        (write_tubes, [(vid, Tube(TemporalSpan(3, 3 + len(b) - 1), tuple(b), label=len(b), score=b[0].score))
                       for b in frames if b]),
        (write_predictions, [(vid, label, values) for label, values in predictions]),
        (formats.write_actionness, [(
            vid, 1, series[0][0] if series else 0.5,
            ActionnessSeries(tuple((n, v, h) for v, h, n in series)),
            [(f, f + 1) for f in range(len(series))], [v for v, _ in pr],
        )]),
        (write_report, EvalReport(
            (0.5, 0.25), {0.5: (ClassResult(0, pr[0][1] if pr else 0.0, 1, 1, 0, tuple(pr)),), 0.25: ()},
            {0.5: series[-1][0] if series else 1.0, 0.25: 0.0},
        )),
    ]
    for writer, items in inputs:
        assert _outcome(_lines, writer, items) == _outcome(oracles.dumped_lines, LINE_RECORDS[writer](items))


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


# errors in a record's own fields, not its boxes: (reader, line 2, field, message)
RECORD_ERRORS = [
    pytest.param(read_detections, '{"video_id":"v","frame":-1,"boxes":[]}', "frame",
                 "negative frame index -1", id="detections-negative-frame"),
    pytest.param(read_tubes, '{"video_id":"v","label":0,"start":-1,"end":0,"boxes":[[0,0,1,1],[0,0,1,1]]}',
                 "start", "negative start frame -1", id="tubes-negative-start"),
    pytest.param(read_tubes, '{"video_id":"v","label":"a","start":0,"end":0,"boxes":[[0,0,1,1]]}',
                 "label", "expected an integer or null, got 'a'", id="tubes-string-label"),
    pytest.param(read_tubes, '{"video_id":"v","label":true,"start":0,"end":0,"boxes":[[0,0,1,1]]}',
                 "label", "expected an integer or null, got True", id="tubes-bool-label"),
    pytest.param(read_predictions, '{"video_id":"v","label":-3,"values":[0.5,0.5]}',
                 "label", "label -3 outside [0, 2)", id="predictions-negative-label"),
    pytest.param(read_predictions, '{"video_id":"v","label":2,"values":[0.5,0.5]}',
                 "label", "label 2 outside [0, 2)", id="predictions-label-past-values"),
    pytest.param(read_predictions, '{"video_id":"v","label":0,"values":[]}',
                 "values", "empty score vector", id="predictions-empty-values"),
    pytest.param(read_predictions, '{"video_id":"v","label":0,"values":[NaN]}',
                 "values", "expected a finite number, got nan", id="predictions-nan-value"),
]
FIRST_LINE = {
    read_detections: '{"video_id":"v","frame":0,"boxes":[]}',
    read_tubes: '{"video_id":"v","label":null,"start":0,"end":0,"boxes":[[0,0,1,1]]}',
    read_predictions: '{"video_id":"v","label":1,"values":[0.25,0.75]}',
}


@pytest.mark.parametrize("reader, line, field, message", RECORD_ERRORS)
def test_record_field_error_text(tmp_path, reader, line, field, message):
    path = tmp_path / "r.jsonl"
    path.write_text(FIRST_LINE[reader] + "\n" + line + "\n")
    with pytest.raises(ParseError) as err:
        reader(path)
    assert str(err.value) == f"{path}, line 2, field '{field}': {message}"


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


@pytest.mark.parametrize("values", ["[0.5,0.5]", "[1,0]"], ids=["floats", "integers"])
def test_read_scores_repeated_unit_error_text(tmp_path, values):
    # both records are (clip_start 0, crop 'center'), in the same set
    path = tmp_path / "s.jsonl"
    path.write_text(_scores(clip_start="0", values=values))
    with pytest.raises(ParseError) as err:
        read_scores(path)
    assert str(err.value) == (
        f"{path}, line 2, field 'crop_id': video 'v' rgb/net16: repeated record for clip_start 0, crop_id 'center'"
    )


def test_read_scores_same_unit_in_two_sets(tmp_path):
    path = tmp_path / "s.jsonl"
    path.write_text(_scores(clip_start="0", stream='"flow"'))
    sets = read_scores(path)
    assert sorted(sets) == [("v", "flow", "net16"), ("v", "rgb", "net16")]
    assert [len(s.entries) for s in sets.values()] == [1, 1]


def _score_line(vid="v", stream="rgb", clip_start=0, crop="center", kind="raw", values="[0.25,0.75]"):
    return _json_object(video_id=json.dumps(vid), stream=json.dumps(stream), granularity='"net16"',
                        clip_start=str(clip_start), crop_id=json.dumps(crop), kind=json.dumps(kind),
                        values=values) + "\n"


# read_scores looks a set up once per run of its consecutive records; a set whose
# records another set's split keeps every check across the split
@pytest.mark.parametrize("values", ["[0.5,0.5]", "[1,0]"], ids=["floats", "integers"])
def test_read_scores_repeated_unit_after_another_set_error_text(tmp_path, values):
    path = tmp_path / "s.jsonl"
    path.write_text(_score_line() + _score_line(clip_start=8) + _score_line(stream="flow")
                    + _score_line(clip_start=16) + _score_line(values=values))
    with pytest.raises(ParseError) as err:
        read_scores(path)
    assert str(err.value) == (
        f"{path}, line 5, field 'crop_id': video 'v' rgb/net16: repeated record for clip_start 0, crop_id 'center'"
    )


@pytest.mark.parametrize("values", ["[0.25,0.75]", "[0,1]"], ids=["floats", "integers"])
def test_read_scores_kind_change_after_another_set_error_text(tmp_path, values):
    path = tmp_path / "s.jsonl"
    path.write_text(_score_line() + _score_line(vid="w", kind="prob") + _score_line(vid="w", clip_start=8, kind="prob")
                    + _score_line(clip_start=8, kind="prob", values=values))
    with pytest.raises(ParseError) as err:
        read_scores(path)
    assert str(err.value) == f"{path}, line 4, field 'kind': video 'v' rgb/net16: mixed raw/prob score kinds in one set"


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


# The readers decode a line with json's scanner, and fall back on json.loads
# for any line that is not one object ending at the newline; oracles.loads_records
# is json.loads on every line, the reference.
def test_json_scanner_is_there():
    # scan_once is not documented: pin what _iter_records relies on
    scan_once = json.JSONDecoder().scan_once
    assert scan_once('{"a":[1,2.5]}\n', 0) == ({"a": [1, 2.5]}, 13)
    with pytest.raises(StopIteration):
        scan_once(" {}", 0)
    if json.scanner.c_make_scanner is not None:
        assert type(formats._scan_once) is json.scanner.c_make_scanner


JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats(allow_nan=True, allow_infinity=True) | st.text(),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=4), inner, max_size=3),
    max_leaves=8,
)
# a record as some writer might put it on a line: either separators, ASCII or
# not, and whitespace around the object or not
RANDOM_LINES = st.builds(
    lambda value, compact, ascii_only, before, after: (
        before + json.dumps(value, separators=(",", ":") if compact else None, ensure_ascii=ascii_only) + after
    ),
    st.one_of(st.dictionaries(st.text(max_size=6), JSON_VALUES, max_size=4), JSON_VALUES),
    st.booleans(), st.booleans(),
    st.sampled_from(["", "", " ", "\t", "\ufeff", "\x0c"]),
    st.sampled_from(["", "", " ", "\r", "\t", " x", "{}", "\x0c"]),
)
HOSTILE_LINES = [
    '{"a":NaN}', '{"a":Infinity}', '{"a":-Infinity}', '{"a":1e400}', '{"a":-1e400}',
    '{"a":' + "1" * 5001 + "}", '{"a":' + "[" * 200_000, "[" * 200_000, '{"a":' + "[" * 500 + "]" * 500 + "}",
    '\ufeff{"a":1}', '{"a":1}\r', '{"a":1}  ', '{"a":1} x', '{"a":1}{"b":2}', '{"a":1}]', "", "   ", "\r",
    "\xa0", '{"a":"\t"}', '{"a":"\\ud800"}', '{"a":1,"a":2}', "[1, 2]", '"s"', "1", "null", "{", '{"a":',
    "{}", '  {"a":1}',
]


def _records_or_error(read, path):
    """The (line, repr of the record) pairs ``read`` yields, then the text of the ParseError that ended it."""
    out = []
    try:
        for line_no, record in read(path):
            out.append((line_no, repr(record)))
    except ParseError as exc:
        out.append(str(exc))
    return out


@given(st.lists(st.one_of(RANDOM_LINES, st.sampled_from(HOSTILE_LINES)), min_size=1, max_size=4), st.booleans())
@settings(max_examples=300, deadline=None)
def test_line_decoding_matches_json_loads(lines, last_newline):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "f.jsonl"
        path.write_bytes(("\n".join(lines) + ("\n" if last_newline else "")).encode("utf-8", "surrogatepass"))
        assert _records_or_error(formats._iter_records, path) == _records_or_error(loads_records, path)


def test_written_lines_take_the_scanner_path(tmp_path, monkeypatch):
    def refuse(path, line_no, line):
        raise AssertionError(f"line {line_no} fell back on json.loads: {line!r}")

    write_detections(tmp_path / "d.jsonl", sample_detections())
    write_tubes(tmp_path / "t.jsonl", sample_tubes())
    write_scores(tmp_path / "s.jsonl", sample_scores())
    # the last line of a file need not end with a newline
    (tmp_path / "cut.jsonl").write_text((tmp_path / "d.jsonl").read_text().rstrip("\n"))
    want = [read_detections(tmp_path / "d.jsonl"), read_tubes(tmp_path / "t.jsonl"),
            read_scores(tmp_path / "s.jsonl"), read_detections(tmp_path / "d.jsonl")]
    monkeypatch.setattr(formats, "_loads", refuse)
    assert [read_detections(tmp_path / "d.jsonl"), read_tubes(tmp_path / "t.jsonl"),
            read_scores(tmp_path / "s.jsonl"), read_detections(tmp_path / "cut.jsonl")] == want


# read_scores checks a record of float values once, itself, and builds the entry
# with fusion._unchecked; it must take exactly the records the checked
# constructors take, and build equal objects of identical floats.
SCORE_FLOATS = st.one_of(
    st.floats(-2.0, 2.0),
    st.sampled_from([0.0, -0.0, 1.0, 1.0000000000000002, -5e-324, 5e-324, 1e308, -1e308,
                     math.nan, math.inf, -math.inf]),
)


@given(
    st.lists(st.one_of(SCORE_FLOATS, SCORE_FLOATS, st.sampled_from([0, 1, 2, -1, True, False])), max_size=4),
    st.sampled_from(["raw", "prob", "logit"]),
    st.sampled_from(["center", "br_flip", "middle"]),
    st.sampled_from([0, 16, 10**30, -1, -16]),
)
@settings(max_examples=400, deadline=None)
def test_trusted_score_entries_match_the_checked_constructors(values, kind, crop, clip_start):
    try:
        checked = ClipScore(clip_start, crop, ScoreVector(tuple(values), kind))
    except ValueError:
        checked = None
    takes = checked is not None and all(type(v) is float for v in values)
    record = {"video_id": "v", "stream": "rgb", "granularity": "net16", "clip_start": clip_start,
              "crop_id": crop, "kind": kind, "values": values}
    built = []
    unchecked = formats._unchecked

    def spy(cls, **fields):
        obj = unchecked(cls, **fields)
        if cls is ClipScore:
            built.append(obj)
        return obj

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(formats, "_unchecked", spy)
        got, _ = _read_or_error(read_scores, json.dumps(record) + "\n")
    assert bool(built) == takes
    if takes:
        (entry,) = built
        assert entry == checked
        assert [v.hex() for v in entry.vector.values] == [v.hex() for v in checked.vector.values]
        assert type(entry.vector.values) is tuple


# read_scores(path, keep) builds only the entries of the (stream, granularity,
# crop_id) triples in keep, and checks every record as read_scores(path) does:
# the same sets, the same kept entries, and the same error on a faulty file.
KEEP_CROPS = ("center", "center_flip", "tl", "br_flip")
TRIPLES = [(s, g, c) for s in formats.STREAMS for g in formats.GRANULARITIES for c in KEEP_CROPS]


@st.composite
def score_records(draw):
    """A scores record of a few videos, sets and units: mostly valid, some with values as they come."""
    kind = draw(st.sampled_from(["raw", "raw", "prob"]))
    form = draw(st.integers(0, 9))
    if form == 0:  # hostile values, integers and bools among them
        values = draw(st.lists(st.one_of(SCORE_FLOATS, st.sampled_from([0, 1, 2, True])), max_size=3))
    elif form == 1:  # integers, which take the field-by-field parse
        values = draw(st.sampled_from([[0, 1], [1, 0]]))
    elif kind == "prob":
        p = draw(st.floats(0.0, 1.0))
        values = [p, 1.0 - p]
    else:
        values = draw(st.lists(st.floats(-2.0, 2.0), min_size=2, max_size=2))
    return {"video_id": draw(st.sampled_from(["v", "w"])), "stream": draw(st.sampled_from(formats.STREAMS)),
            "granularity": draw(st.sampled_from(formats.GRANULARITIES)), "clip_start": draw(st.sampled_from([0, 16])),
            "crop_id": draw(st.sampled_from(KEEP_CROPS)), "kind": kind, "values": values}


def _scores_or_error(path, *keep):
    try:
        return read_scores(path, *keep)
    except ParseError as exc:
        return type(exc), str(exc)


def _entry_bits(entry):
    return entry.clip_start, entry.crop_id, entry.vector.kind, [v.hex() for v in entry.vector.values]


@given(
    st.lists(score_records(), min_size=1, max_size=6),
    st.one_of(st.just(set()), st.just(set(TRIPLES)), st.sets(st.sampled_from(TRIPLES))),
)
@settings(max_examples=400, deadline=None)
def test_read_scores_keep_matches_the_full_read(records, keep):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "s.jsonl"
        path.write_text("".join(json.dumps(r) + "\n" for r in records))
        full, kept = _scores_or_error(path), _scores_or_error(path, keep)
    if isinstance(full, tuple):
        assert kept == full
        return
    assert list(kept) == list(full)
    for key, s in full.items():
        assert (kept[key].video_id, kept[key].stream, kept[key].granularity) == key
        assert [_entry_bits(e) for e in kept[key].entries] == [
            _entry_bits(e) for e in s.entries if (s.stream, s.granularity, e.crop_id) in keep
        ]


@st.composite
def interleaved_scores(draw):
    """Valid score records of a few sets, each set's records in a drawn order, the sets' records interleaved."""
    keys = draw(st.lists(st.tuples(st.sampled_from(["v", "w"]), st.sampled_from(formats.STREAMS),
                                   st.sampled_from(formats.GRANULARITIES)), min_size=1, max_size=4, unique=True))
    records = []
    for vid, stream, gran in keys:
        kind = draw(st.sampled_from(["raw", "prob"]))
        units = draw(st.lists(st.tuples(st.sampled_from([0, 8, 16]), st.sampled_from(KEEP_CROPS)),
                              min_size=1, max_size=5, unique=True))
        for clip_start, crop in units:
            if kind == "prob":
                p = draw(st.floats(0.0, 1.0))
                values = [p, 1.0 - p]
            else:
                values = draw(st.lists(st.one_of(st.floats(-2.0, 2.0), st.sampled_from([0, 1])),
                                       min_size=2, max_size=2))
            records.append({"video_id": vid, "stream": stream, "granularity": gran, "clip_start": clip_start,
                            "crop_id": crop, "kind": kind, "values": values})
    return draw(st.permutations(records))


@given(interleaved_scores(), st.one_of(st.none(), st.sets(st.sampled_from(TRIPLES))))
@settings(max_examples=200, deadline=None)
def test_read_scores_of_interleaved_records_match_the_records_in_set_order(records, keep):
    # the same records, each set's together, the sets in order of first appearance
    first = {}
    for r in records:
        first.setdefault((r["video_id"], r["stream"], r["granularity"]), len(first))
    grouped = sorted(records, key=lambda r: first[r["video_id"], r["stream"], r["granularity"]])
    reads = []
    with tempfile.TemporaryDirectory() as tmp:
        for name, recs in (("interleaved", records), ("grouped", grouped)):
            path = Path(tmp) / f"{name}.jsonl"
            path.write_text("".join(json.dumps(r) + "\n" for r in recs))
            reads.append(read_scores(path, keep))
    interleaved, in_set_order = reads
    assert list(interleaved) == list(in_set_order) == list(first)
    for key, s in in_set_order.items():
        assert interleaved[key] == s
        assert [_entry_bits(e) for e in interleaved[key].entries] == [_entry_bits(e) for e in s.entries]


# read_tubes(path, boxes=False) and read_tubes(path, boxes="corners") check
# every record as read_tubes(path) does, every box included, and return each
# record's (video_id, span), or its (video_id, span, label, score, corners):
# the same values as the full read, and the same error on a faulty file.
MISSING = object()
# float corners whose area overflows, underflows or is not positive
BAD_AREAS = [[0.0, 0.0, 1e308, 1e308], [0.0, 0.0, 1e-200, 1e-200], [-1e308, 0.0, 1e308, 1.0], [5.0, 0.0, 5.0, 1.0]]


@st.composite
def tube_records(draw):
    """A tubes record: mostly valid, some with a field or a box as it comes."""
    start = draw(st.integers(0, 3))
    end = start + draw(st.integers(0, 3))
    form = draw(st.integers(0, 5))
    boxes = [[0.0, 0.0, 1.0 + f, 2.0] for f in range(end - start + 1)]
    if form == 0:  # one box near valid or hostile, in the fast test's form or not
        boxes[draw(st.integers(0, len(boxes) - 1))] = draw(
            st.one_of(near_valid_corners(), st.lists(HOSTILE, max_size=5), HOSTILE, st.sampled_from(BAD_AREAS))
        )
    elif form == 1:  # integer corners, which take the field-by-field parse
        boxes = [[0, 0, 1, 1]] * len(boxes)
    elif form == 2:  # a box too many or too few
        boxes = boxes[1:] if draw(st.booleans()) else boxes + boxes[:1]
    record = {"video_id": draw(st.sampled_from(["v", "w"])), "label": 0, "start": start, "end": end,
              "score": 0.5, "boxes": boxes}
    if form == 3:  # one field hostile or missing
        name = draw(st.sampled_from(["video_id", "label", "start", "end", "score", "boxes"]))
        value = draw(st.one_of(HOSTILE, st.just(MISSING)))
        if value is MISSING:
            del record[name]
        else:
            record[name] = value
    return record


@pytest.mark.parametrize("boxes", [1, 0, None, "Corners"])
def test_read_tubes_refuses_another_box_form(tmp_path, boxes):
    path = tmp_path / "t.jsonl"
    path.write_text('{"video_id":"v","label":0,"start":0,"end":0,"boxes":[[0.0,0.0,1.0,1.0]]}\n')
    with pytest.raises(ValueError, match="boxes must be True, False or 'corners'"):
        read_tubes(path, boxes=boxes)


def _tubes_or_error(path, required, **kw):
    try:
        return read_tubes(path, required, **kw)
    except ParseError as exc:
        return type(exc), str(exc)


@given(st.lists(tube_records(), min_size=1, max_size=5), st.sampled_from([(), ("label",), ("label", "score")]))
@settings(max_examples=400, deadline=None)
def test_read_tubes_spans_match_the_full_read(records, required):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "t.jsonl"
        path.write_text("".join(json.dumps(r) + "\n" for r in records))
        full = _tubes_or_error(path, required)
        spans = _tubes_or_error(path, required, boxes=False)
        rows = _tubes_or_error(path, required, boxes="corners")
    if isinstance(full, tuple):
        assert spans == full
        assert rows == full
        return
    assert spans == [(vid, t.span) for vid, t in full]
    assert [row[:4] for row in rows] == [(vid, t.span, t.label, t.score) for vid, t in full]
    for (_, _, _, _, corners), (_, t) in zip(rows, full):
        # integer corners, which take the field-by-field parse, come back as its floats
        assert [tuple(c) for c in corners] == [(b.x1, b.y1, b.x2, b.y2) for b in t.boxes]
        assert all(type(v) is float for c in corners for v in c)
