import contextlib
import gc
import io
import json
import math
import os
import random
import subprocess
import sys
import tempfile
import weakref
from pathlib import Path

import pytest
from hypothesis import HealthCheck, event, given, settings
from hypothesis import strategies as st

import tubekit
from tubekit.cli import main
from tubekit.fusion import CENTER_CROPS, CLIP_LEN, FUSION_METHODS, STREAMS
from tubekit import EvalConfig, read_predictions, read_tubes, video_map, write_report
from tubekit.formats import MAX_FRAME

from oracles import loads_records


def run(*argv):
    return main(list(argv))


@pytest.fixture()
def corpus(tmp_path):
    out = tmp_path / "corpus"
    code = run(
        "synth", "--out-dir", str(out), "--seed", "3", "--videos", "4",
        "--frames", "60", "--persons", "2", "--classes", "3",
    )
    assert code == 0
    return out


class TestSynth:
    def test_writes_three_files(self, corpus):
        for name in ("detections.jsonl", "gt_tubes.jsonl", "scores.jsonl"):
            assert (corpus / name).is_file()

    def test_same_seed_byte_identical(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        for out in (a, b):
            assert run("synth", "--out-dir", str(out), "--seed", "5", "--videos", "2") == 0
        for name in ("detections.jsonl", "gt_tubes.jsonl", "scores.jsonl"):
            assert (a / name).read_bytes() == (b / name).read_bytes()

    def test_bad_rate_exits_3(self, tmp_path, capsys):
        assert run("synth", "--out-dir", str(tmp_path / "x"), "--fp-rate", "1.5") == 3
        assert "fp_rate" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "flag, value",
        [
            ("--jitter", "nan"),
            ("--jitter", "1e308"),
            ("--noise", "inf"),
            ("--noise", "1e308"),
            ("--classes", "1000000000000"),
            ("--frames", str(MAX_FRAME + 2)),
            ("--persons", "20000"),
        ],
        ids=["nan-jitter", "huge-jitter", "infinite-noise", "huge-noise", "huge-classes",
             "frames-past-reader-cap", "huge-persons"],
    )
    def test_out_of_range_flag_exits_3_naming_it(self, tmp_path, capsys, flag, value):
        out = tmp_path / "x"
        argv = ["synth", "--out-dir", str(out), "--videos", "1", "--frames", "16", flag, value]
        assert run(*argv) == 3
        err = capsys.readouterr().err
        assert "Traceback" not in err
        assert f"error: {flag[2:]} " in err
        assert not out.exists()

    def test_parallel_identical(self, tmp_path):
        # 7 videos: the last batch of --parallel 2 and the only one of --parallel 8 are partial
        outs = []
        for n in ("1", "2", "8"):
            out = tmp_path / f"p{n}"
            assert run("synth", "--out-dir", str(out), "--seed", "9", "--videos", "7", "--parallel", n) == 0
            outs.append([(out / name).read_bytes() for name in ("detections.jsonl", "gt_tubes.jsonl", "scores.jsonl")])
        assert outs[0] == outs[1] == outs[2]

    @pytest.mark.skipif(sys.platform != "linux", reason="ru_maxrss is in KiB on Linux")
    def test_peak_memory_does_not_grow_with_videos(self, tmp_path):
        # each video is written as soon as it is made, so the peak is one video's; holding
        # every video until the end grew it by 64 MB from 20 to 200 videos
        peaks = []
        for videos in (20, 200):
            proc = subprocess.Popen(
                [sys.executable, "-m", "tubekit", "synth", "--out-dir", str(tmp_path / str(videos)),
                 "--videos", str(videos), "--frames", "300", "--persons", "3", "--fp-rate", "0.3"],
                env=SRC_ENV,
            )
            _, status, usage = os.wait4(proc.pid, 0)
            assert os.waitstatus_to_exitcode(status) == 0
            peaks.append(usage.ru_maxrss / 1024)
        assert peaks[1] - peaks[0] <= 15, f"peak RSS {peaks[0]:.1f} MB at 20 videos, {peaks[1]:.1f} MB at 200"


class TestExtractTubes:
    def test_valid_input(self, corpus, tmp_path):
        out = tmp_path / "tubes.jsonl"
        assert run("extract-tubes", str(corpus / "detections.jsonl"), "--out", str(out)) == 0
        tubes = read_tubes(out)
        assert tubes
        assert all(t.span.length >= 5 for _, t in tubes)

    def test_corrupt_line_cited(self, corpus, tmp_path, capsys):
        bad = tmp_path / "bad.jsonl"
        lines = (corpus / "detections.jsonl").read_text().splitlines()
        lines[16] = '{"video_id":"v","boxes":[]}'  # line 17: missing frame field
        bad.write_text("\n".join(lines) + "\n")
        assert run("extract-tubes", str(bad), "--out", str(tmp_path / "o.jsonl")) == 2
        assert "line 17" in capsys.readouterr().err

    def test_min_tube_len_zero_exits_3(self, corpus, tmp_path):
        code = run(
            "extract-tubes", str(corpus / "detections.jsonl"),
            "--out", str(tmp_path / "o.jsonl"), "--min-tube-len", "0",
        )
        assert code == 3

    def test_missing_input_exits_2(self, tmp_path):
        assert run("extract-tubes", str(tmp_path / "nope.jsonl"), "--out", str(tmp_path / "o.jsonl")) == 2

    def test_parallel_identical(self, corpus, tmp_path):
        blobs = []
        for n in ("1", "2", "8"):
            out = tmp_path / f"tubes{n}.jsonl"
            assert run("extract-tubes", str(corpus / "detections.jsonl"), "--out", str(out), "--parallel", n) == 0
            blobs.append(out.read_bytes())
        assert blobs[0] == blobs[1] == blobs[2]


class TestFuse:
    def test_labels_match_truth(self, corpus, tmp_path):
        out = tmp_path / "pred.jsonl"
        assert run("fuse", str(corpus / "scores.jsonl"), "--out", str(out)) == 0
        fused = {vid: label for vid, label, _ in read_predictions(out)}
        truth = {vid: t.label for vid, t in read_tubes(corpus / "gt_tubes.jsonl")}
        assert fused == truth

    def test_methods_and_streams(self, corpus, tmp_path):
        for method in ("mean", "max", "majority"):
            out = tmp_path / f"{method}.jsonl"
            assert run(
                "fuse", str(corpus / "scores.jsonl"), "--out", str(out),
                "--method", method, "--stream", "pose",
            ) == 0

    def test_mixed_k_exits_2(self, tmp_path):
        scores = tmp_path / "s.jsonl"
        row = '{"video_id":"v","stream":"rgb","granularity":"net16","clip_start":%d,"crop_id":"center","kind":"raw","values":%s}\n'
        scores.write_text(row % (0, "[1.0,2.0]") + row % (8, "[1.0,2.0,3.0]"))
        assert run("fuse", str(scores), "--out", str(tmp_path / "o.jsonl")) == 2

    def test_missing_granularity_exits_2(self, corpus, tmp_path, capsys):
        code = run(
            "fuse", str(corpus / "scores.jsonl"), "--out", str(tmp_path / "o.jsonl"),
            "--granularities", "net16,net32",
        )
        assert code == 2
        assert "net32" in capsys.readouterr().err

    def test_unknown_method_exits_3(self, corpus, tmp_path):
        code = run(
            "fuse", str(corpus / "scores.jsonl"), "--out", str(tmp_path / "o.jsonl"),
            "--method", "median",
        )
        assert code == 3

    def test_two_granularities_average_and_relabel(self, tmp_path):
        # net16 alone gives label 0; the mean of both granularities is [1, 2, 0]
        scores = tmp_path / "scores.jsonl"
        scores.write_text("".join(
            json.dumps({
                "video_id": "v", "stream": "rgb", "granularity": gran, "clip_start": 0,
                "crop_id": crop, "kind": "raw", "values": values,
            }) + "\n"
            for gran, values in (("net16", [2, 1, 0]), ("net32", [0, 3, 0]))
            for crop in CENTER_CROPS
        ))
        out = tmp_path / "predictions.jsonl"
        assert run("fuse", str(scores), "--out", str(out), "--granularities", "net16,net32") == 0
        assert read_predictions(out) == [("v", 1, [1.0, 2.0, 0.0])]

    def test_majority_tie_across_granularities_goes_to_the_higher_mean(self, tmp_path):
        # each granularity ties 1:1 on votes, and class 1 has the higher mean score;
        # their averaged histogram [0.5, 0.5] ties too and keeps the same rule
        scores = tmp_path / "scores.jsonl"
        scores.write_text("".join(
            json.dumps({
                "video_id": "v", "stream": "rgb", "granularity": gran, "clip_start": start,
                "crop_id": "center", "kind": "raw", "values": values,
            }) + "\n"
            for gran in ("net16", "net32")
            for start, values in ((0, [1.0, 0.0]), (8, [0.0, 5.0]))
        ))
        for granularities in ("net16", "net32", "net16,net32"):
            out = tmp_path / f"{granularities}.jsonl"
            assert run("fuse", str(scores), "--out", str(out), "--method", "majority",
                       "--granularities", granularities) == 0
            assert read_predictions(out) == [("v", 1, [0.5, 0.5])]

    @pytest.mark.parametrize("granularities, message", [
        ("net16,net8", "unknown granularity 'net8'"),
        ("net16,net16", "--granularities lists a granularity twice"),
    ], ids=["unknown", "repeated"])
    def test_bad_granularities_exit_3(self, corpus, tmp_path, capsys, granularities, message):
        out = tmp_path / "o.jsonl"
        code = run("fuse", str(corpus / "scores.jsonl"), "--out", str(out), "--granularities", granularities)
        assert code == 3
        assert f"tubekit fuse: error: {message}" in capsys.readouterr().err
        assert not out.exists()


class TestActionness:
    def test_with_detections(self, corpus, tmp_path):
        out = tmp_path / "act.jsonl"
        code = run(
            "actionness", "--scores", str(corpus / "scores.jsonl"),
            "--detections", str(corpus / "detections.jsonl"),
            "--class", "0", "--threshold", "0.5", "--out", str(out),
        )
        assert code == 0
        rows = [json.loads(line) for line in out.read_text().splitlines()]
        assert len(rows) == 4
        for row in rows:
            assert len(row["series"]) == 60
            for span in row["spans"]:
                assert all(row["human"][f] for f in range(span[0], span[1] + 1))

    def test_with_tubes_gives_sums(self, corpus, tmp_path):
        tubes_path = tmp_path / "tubes.jsonl"
        assert run("extract-tubes", str(corpus / "detections.jsonl"), "--out", str(tubes_path)) == 0
        out = tmp_path / "act.jsonl"
        code = run(
            "actionness", "--scores", str(corpus / "scores.jsonl"),
            "--tubes", str(tubes_path),
            "--class", "1", "--threshold", "0.2", "--out", str(out),
        )
        assert code == 0
        rows = [json.loads(line) for line in out.read_text().splitlines()]
        tubes = read_tubes(tubes_path)
        for row in rows:
            count = sum(1 for vid, _ in tubes if vid == row["video_id"])
            assert len(row["tube_sums"]) == count

    def test_missing_stream_named(self, corpus, tmp_path, capsys):
        partial = tmp_path / "partial.jsonl"
        lines = [
            line
            for line in (corpus / "scores.jsonl").read_text().splitlines()
            if '"stream":"pose"' not in line
        ]
        partial.write_text("\n".join(lines) + "\n")
        code = run(
            "actionness", "--scores", str(partial),
            "--detections", str(corpus / "detections.jsonl"),
            "--class", "0", "--threshold", "0.5", "--out", str(tmp_path / "o.jsonl"),
        )
        assert code == 2
        assert "pose" in capsys.readouterr().err

    @pytest.mark.parametrize("gate", ["--detections", "--tubes"])
    def test_missing_stream_of_last_video_writes_no_file(self, corpus, tmp_path, capsys, gate):
        # rows are written as they are made, so the check must come before the first one
        partial = tmp_path / "partial.jsonl"
        lines = (corpus / "scores.jsonl").read_text().splitlines()
        last = max(json.loads(line)["video_id"] for line in lines)
        partial.write_text("".join(
            line + "\n" for line in lines
            if not (f'"video_id":"{last}"' in line and '"stream":"flow"' in line)
        ))
        gate_file = corpus / ("detections.jsonl" if gate == "--detections" else "gt_tubes.jsonl")
        out = tmp_path / "o.jsonl"
        code = run(
            "actionness", "--scores", str(partial), gate, str(gate_file),
            "--class", "0", "--threshold", "0.5", "--out", str(out),
        )
        assert code == 2
        assert f"missing stream 'flow' (net16) for video '{last}'" in capsys.readouterr().err
        assert not out.exists()

    def test_threshold_required(self, corpus, tmp_path):
        code = run(
            "actionness", "--scores", str(corpus / "scores.jsonl"),
            "--detections", str(corpus / "detections.jsonl"),
            "--class", "0", "--out", str(tmp_path / "o.jsonl"),
        )
        assert code == 3

    def test_class_out_of_range_exits_3(self, corpus, tmp_path):
        code = run(
            "actionness", "--scores", str(corpus / "scores.jsonl"),
            "--detections", str(corpus / "detections.jsonl"),
            "--class", "99", "--threshold", "0.5", "--out", str(tmp_path / "o.jsonl"),
        )
        assert code == 3

    def test_unknown_granularity_exits_3(self, corpus, tmp_path, capsys):
        out = tmp_path / "o.jsonl"
        code = run(
            "actionness", "--scores", str(corpus / "scores.jsonl"),
            "--detections", str(corpus / "detections.jsonl"),
            "--class", "0", "--threshold", "0.5", "--granularity", "net8", "--out", str(out),
        )
        assert code == 3
        err = capsys.readouterr().err
        assert "Traceback" not in err
        assert "argument --granularity: invalid choice: 'net8'" in err
        assert not out.exists()

    def test_requires_exactly_one_gate_source(self, corpus, tmp_path):
        code = run(
            "actionness", "--scores", str(corpus / "scores.jsonl"),
            "--class", "0", "--threshold", "0.5", "--out", str(tmp_path / "o.jsonl"),
        )
        assert code == 3

    @pytest.mark.parametrize("gate", ["--detections", "--tubes"])
    def test_keeps_no_series_past_its_line(self, corpus, tmp_path, monkeypatch, gate):
        # a series grows with its video's last frame: each one must be gone before the next is made
        from tubekit import fusion

        real, made = fusion.compose_actionness, []

        def composing(*args):
            alive = [i for i, ref in enumerate(made) if ref() is not None]
            assert not alive, f"the series of videos {alive} are alive while video {len(made)} is composed"
            series = real(*args)
            made.append(weakref.ref(series))
            return series

        monkeypatch.setattr(fusion, "compose_actionness", composing)
        gate_file = corpus / ("detections.jsonl" if gate == "--detections" else "gt_tubes.jsonl")
        assert run("actionness", "--scores", str(corpus / "scores.jsonl"), gate, str(gate_file),
                   "--class", "0", "--threshold", "0.5", "--out", str(tmp_path / "o.jsonl")) == 0
        assert len(made) == 4


class TestEvaluate:
    def test_perfect_predictions(self, corpus, tmp_path, capsys):
        gt = corpus / "gt_tubes.jsonl"
        preds = tmp_path / "preds.jsonl"
        rows = []
        for line in gt.read_text().splitlines():
            rec = json.loads(line)
            rec["score"] = 0.9
            rows.append(json.dumps(rec))
        preds.write_text("\n".join(rows) + "\n")
        report_path = tmp_path / "report.jsonl"
        assert run("evaluate", str(preds), str(gt), "--out", str(report_path)) == 0
        out = capsys.readouterr().out
        assert "mAP" in out
        assert all(row["map"] == 1.0 for _, row in loads_records(report_path))

    def test_report_equals_video_map_of_the_full_read(self, tmp_path):
        # evaluate matches the reader's corner rows, and must write the report that
        # video_map writes from the full read's Tubes. Boxes on the integer lattice come
        # in three forms: all floats, which pass the reader's fast test, and all integers
        # or a mix, which take the field-by-field parse. Other boxes have fractional
        # corners, whose IoUs round. A prediction may copy its ground truth's boxes in
        # another form, so that some tube IoUs are exactly 1.0.
        rng = random.Random(11)

        def written(box, form):
            if form == "int":
                return box
            if form == "mixed":
                return [box[0], float(box[1]), box[2], float(box[3])]
            return [float(v) for v in box]

        def coordinate(lattice, lo, hi):
            return rng.randint(lo, hi) if lattice else round(rng.uniform(lo, hi), 3)

        def record(vid, label, start, boxes, form, score=None):
            rec = {"video_id": vid, "label": label, "start": start, "end": start + len(boxes) - 1,
                   "boxes": [written(b, form) for b in boxes]}
            return rec if score is None else dict(rec, score=score)

        forms = ["float", "int", "mixed"]
        gts, preds = [], []
        for v in range(6):
            vid = f"v{v}"
            for _ in range(rng.randint(1, 3)):
                label, start, n = rng.randrange(3), rng.randint(0, 10), rng.randint(1, 12)
                lattice = rng.random() < 0.5
                x, y = coordinate(lattice, 0, 40), coordinate(lattice, 0, 40)
                boxes = [[x + f, y, x + f + coordinate(lattice, 1, 20), y + coordinate(lattice, 1, 20)]
                         for f in range(n)]
                gts.append(record(vid, label, start, boxes, rng.choice(forms)))
                preds.append(record(vid, label, start, boxes, rng.choice(forms), score=rng.random()))
                jittered = [[a + coordinate(lattice, -3, 3), b, c + coordinate(lattice, 4, 6), d]
                            for a, b, c, d in boxes]
                preds.append(record(vid, rng.randrange(3), start + rng.randint(0, 2), jittered,
                                    rng.choice(forms), score=rng.random()))
        gt, pred = tmp_path / "gt.jsonl", tmp_path / "preds.jsonl"
        gt.write_text("".join(json.dumps(r) + "\n" for r in gts))
        pred.write_text("".join(json.dumps(r) + "\n" for r in preds))
        deltas = "0.05,0.3,0.5,0.7,0.9,0.95,1.0"
        got, want = tmp_path / "got.jsonl", tmp_path / "want.jsonl"
        with contextlib.redirect_stdout(io.StringIO()):
            assert run("evaluate", str(pred), str(gt), "--deltas", deltas, "--out", str(got)) == 0
        cfg = EvalConfig(deltas=tuple(map(float, deltas.split(","))))
        write_report(want, video_map(read_tubes(pred, ("label", "score")), read_tubes(gt, ("label",)), cfg))
        assert got.read_bytes() == want.read_bytes()
        # the copied predictions are found at 1.0
        assert [r["map"] for _, r in loads_records(got) if r["delta"] == 1.0][0] > 0.0

    def test_table_text(self, tmp_path, capsys):
        # class 0 found exactly, class 1 at tube IoU 0.4 (4 of its 10 frames), class 2 only predicted
        box = {0: [0, 0, 10, 10], 1: [100, 100, 110, 110], 2: [200, 200, 210, 210]}
        gt, preds = tmp_path / "gt.jsonl", tmp_path / "preds.jsonl"
        write_tube_records(gt, [("v", c, 0, 9, None, box[c]) for c in (0, 1)])
        write_tube_records(preds, [("v", 0, 0, 9, 0.9, box[0]), ("v", 1, 0, 3, 0.8, box[1]),
                                   ("v", 2, 0, 9, 0.7, box[2])])
        assert run("evaluate", str(preds), str(gt), "--deltas", "0.5,0.2", "--out", str(tmp_path / "r.jsonl")) == 0
        assert capsys.readouterr().out == (
            "class   d=0.5    d=0.2    \n"
            "0       1.0000   1.0000   \n"
            "1       0.0000   1.0000   \n"
            "2       0.0000   0.0000   \n"
            "mAP     0.5000   1.0000   \n"
            "(AP: all-point precision envelope)\n"
        )

    def test_table_of_1000_classes(self, tmp_path, capsys):
        gt, preds = tmp_path / "gt.jsonl", tmp_path / "preds.jsonl"
        write_tube_records(gt, [(f"v{c}", c, 0, 0, None, [0, 0, 10, 10]) for c in range(1000)])
        write_tube_records(preds, [(f"v{c}", c, 0, 0, 0.5, [0, 0, 10, 10]) for c in range(1000)])
        assert run("evaluate", str(preds), str(gt), "--deltas", "0.5,0.2", "--out", str(tmp_path / "r.jsonl")) == 0
        lines = capsys.readouterr().out.splitlines()
        assert len(lines) == 1 + 1000 + 2
        assert [line.split() for line in lines[1:1001]] == [[str(c), "1.0000", "1.0000"] for c in range(1000)]
        assert lines[1001].split() == ["mAP", "1.0000", "1.0000"]
        assert lines[1002] == "(AP: all-point precision envelope)"

    @pytest.mark.parametrize("deltas, table", [
        # labels longer than the 9-character column widen it, one space after each
        ("0.123456,0.123459", (
            "class   d=0.123456 d=0.123459 \n"
            "0       1.0000     1.0000     \n"
            "mAP     1.0000     1.0000     \n"
        )),
        # a subnormal threshold reads as the report writes it
        ("1e-320", (
            "class   d=1e-320 \n"
            "0       1.0000   \n"
            "mAP     1.0000   \n"
        )),
    ], ids=["six-digit", "subnormal"])
    def test_table_names_each_threshold_as_the_report_does(self, tmp_path, capsys, deltas, table):
        gt, preds, report = tmp_path / "gt.jsonl", tmp_path / "preds.jsonl", tmp_path / "r.jsonl"
        write_tube_records(gt, [("v", 0, 0, 9, None, [0, 0, 10, 10])])
        write_tube_records(preds, [("v", 0, 0, 9, 0.9, [0, 0, 10, 10])])
        assert run("evaluate", str(preds), str(gt), "--deltas", deltas, "--out", str(report)) == 0
        assert capsys.readouterr().out == table + "(AP: all-point precision envelope)\n"
        written = [f"d={line.split(',')[0].split(':')[1]}" for line in report.read_text().splitlines()]
        assert written == table.split("\n")[0].split()[1:]

    def test_parse_error_exits_2(self, corpus, tmp_path):
        bad = tmp_path / "bad.jsonl"
        bad.write_text("{oops\n")
        assert run("evaluate", str(bad), str(corpus / "gt_tubes.jsonl"), "--out", str(tmp_path / "r.jsonl")) == 2

    def test_bad_delta_exits_3(self, corpus, tmp_path, capsys):
        gt = corpus / "gt_tubes.jsonl"
        # out of range, one threshold twice (compared as floats), and two that the
        # report writes alike, at 6 significant digits
        for deltas in ("0.5,2.0", "0.5,0.50", "0.5,0.5000001"):
            out = tmp_path / "r.jsonl"
            assert run("evaluate", str(gt), str(gt), "--deltas", deltas, "--out", str(out)) == 3
            assert "bad --deltas:" in capsys.readouterr().err
            assert not out.exists()
        missing = tmp_path / "missing.jsonl"
        assert run("evaluate", str(missing), str(missing), "--deltas", "0.5,0.5000001", "--out", str(out)) == 3
        assert "bad --deltas: an IoU threshold is given twice" in capsys.readouterr().err

    def test_unscored_predictions_exit_2(self, corpus, tmp_path):
        gt = corpus / "gt_tubes.jsonl"
        assert run("evaluate", str(gt), str(gt), "--out", str(tmp_path / "r.jsonl")) == 2

    @pytest.mark.parametrize(
        "which, line_no, field, absent, message",
        [
            ("predictions", 3, "label", True, "missing required field"),
            ("predictions", 2, "label", False, "expected an integer, got None"),
            ("predictions", 2, "score", True, "missing required field"),
            ("predictions", 3, "score", False, "expected a number, got None"),
            ("gt", 2, "label", True, "missing required field"),
        ],
        ids=["pred-label-absent", "pred-label-null", "pred-score-absent", "pred-score-null", "gt-label-absent"],
    )
    def test_missing_label_or_score_names_line_and_field(
        self, tmp_path, capsys, which, line_no, field, absent, message
    ):
        good = '{"video_id":"v","label":0,"start":0,"end":0,"score":0.5,"boxes":[[0,0,10,10]]}'
        lines = [good] * 3
        record = json.loads(good)
        if absent:
            del record[field]
        else:
            record[field] = None
        lines[line_no - 1] = json.dumps(record)
        paths = {name: tmp_path / f"{name}.jsonl" for name in ("predictions", "gt")}
        for name, path in paths.items():
            path.write_text("\n".join(lines if name == which else [good] * 3) + "\n")
        out = tmp_path / "r.jsonl"
        assert run("evaluate", str(paths["predictions"]), str(paths["gt"]), "--out", str(out)) == 2
        err = capsys.readouterr().err
        assert "Traceback" not in err
        assert f"{paths[which]}, line {line_no}, field '{field}': {message}" in err
        assert not out.exists()


def write_tube_records(path, rows):
    """(video, label, start, end, score or None, box) rows; the box is repeated on every frame."""
    with open(path, "w") as fh:
        for vid, label, start, end, score, box in rows:
            rec = {"video_id": vid, "label": label, "start": start, "end": end, "boxes": [box] * (end - start + 1)}
            if score is not None:
                rec["score"] = score
            fh.write(json.dumps(rec) + "\n")


# Every input of every subcommand: its argv with BAD in that input's place and the
# corpus files, all readable, in the others.
INPUTS = {
    "extract-tubes-detections": ["extract-tubes", "BAD"],
    "fuse-scores": ["fuse", "BAD"],
    "actionness-scores": ["actionness", "--scores", "BAD", "--detections", "{detections}"],
    "actionness-detections": ["actionness", "--scores", "{scores}", "--detections", "BAD"],
    "actionness-tubes": ["actionness", "--scores", "{scores}", "--tubes", "BAD"],
    "evaluate-predictions": ["evaluate", "BAD", "{gt}"],
    "evaluate-gt": ["evaluate", "{predictions}", "BAD"],
}
# open()'s own text for each kind of unreadable path
UNREADABLE = {"missing": "No such file or directory", "directory": "Is a directory"}


# a line that no reader can parse, and the start of its error: bytes that are not
# UTF-8, nesting past the interpreter's recursion limit, and JSON that is not an object
UNPARSABLE = {
    "undecodable": (b"\xff\xfe\n", "invalid UTF-8"),
    "too-deep": (b"[" * 200_000 + b"\n", "invalid JSON (nesting too deep)"),
    "not-an-object": (b"[1, 2]\n", "record is not an object"),
}


def _input_paths(corpus, tmp_path):
    predictions = tmp_path / "predictions.jsonl"
    predictions.write_text("".join(
        json.dumps(dict(json.loads(line), score=0.5)) + "\n"
        for line in (corpus / "gt_tubes.jsonl").read_text().splitlines()
    ))
    return {"detections": corpus / "detections.jsonl", "scores": corpus / "scores.jsonl",
            "tubes": corpus / "gt_tubes.jsonl", "gt": corpus / "gt_tubes.jsonl", "predictions": predictions}


def _run_with_bad_input(which, bad, paths, out):
    argv = [str(bad) if a == "BAD" else a.format(**paths) for a in INPUTS[which]]
    if argv[0] == "actionness":
        argv += ["--class", "0", "--threshold", "0.3"]
    return run(*argv, "--out", str(out))


@pytest.mark.parametrize("bad_kind", list(UNREADABLE))
@pytest.mark.parametrize("which", list(INPUTS))
def test_unreadable_input_exits_2_naming_it(corpus, tmp_path, capsys, which, bad_kind):
    bad = tmp_path / "nope.jsonl"
    if bad_kind == "directory":
        bad.mkdir()
    out = tmp_path / "out.jsonl"
    assert _run_with_bad_input(which, bad, _input_paths(corpus, tmp_path), out) == 2
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert f"{UNREADABLE[bad_kind]}: {str(bad)!r}" in err
    assert not out.exists()


@pytest.mark.parametrize("bad_kind", list(UNPARSABLE))
@pytest.mark.parametrize("which", list(INPUTS))
def test_unparsable_line_exits_2_naming_it(corpus, tmp_path, capsys, which, bad_kind):
    paths = _input_paths(corpus, tmp_path)
    # a good first record of the same kind, then the bad line
    good = paths[which.rsplit("-", 1)[1]].read_bytes().split(b"\n", 1)[0] + b"\n"
    bad = tmp_path / "bad.jsonl"
    line, message = UNPARSABLE[bad_kind]
    bad.write_bytes(good + line)
    out = tmp_path / "out.jsonl"
    assert _run_with_bad_input(which, bad, paths, out) == 2
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert f"{bad}, line 2: {message}" in err
    assert not out.exists()


@pytest.mark.parametrize("which", ["fuse-scores", "actionness-scores"])
def test_empty_scores_file_exits_2(corpus, tmp_path, capsys, which):
    empty = tmp_path / "empty.jsonl"
    empty.write_text("")
    out = tmp_path / "out.jsonl"
    assert _run_with_bad_input(which, empty, _input_paths(corpus, tmp_path), out) == 2
    assert f"{empty}: no score records found" in capsys.readouterr().err
    assert not out.exists()


def test_input_read_from_a_pipe(corpus, tmp_path):
    from_file, from_pipe = tmp_path / "file.jsonl", tmp_path / "pipe.jsonl"
    assert run("extract-tubes", str(corpus / "detections.jsonl"), "--out", str(from_file)) == 0
    proc = subprocess.run(
        [sys.executable, "-m", "tubekit", "extract-tubes", "/dev/stdin", "--out", str(from_pipe)],
        input=(corpus / "detections.jsonl").read_bytes(), capture_output=True, env=SRC_ENV,
    )
    assert proc.returncode == 0, proc.stderr
    assert from_pipe.read_bytes() == from_file.read_bytes()


class TestModuleEntryPoint:
    def test_python_dash_m(self, tmp_path):
        out = tmp_path / "c"
        proc = subprocess.run(
            [sys.executable, "-m", "tubekit", "synth", "--out-dir", str(out), "--videos", "1"],
            capture_output=True,
        )
        assert proc.returncode == 0
        assert (out / "detections.jsonl").is_file()

    def test_idempotent_rerun(self, tmp_path):
        out = tmp_path / "c"
        for _ in range(2):
            proc = subprocess.run(
                [sys.executable, "-m", "tubekit", "synth", "--out-dir", str(out), "--videos", "2"],
                capture_output=True,
            )
            assert proc.returncode == 0
            blob = (out / "detections.jsonl").read_bytes()
        assert blob == (out / "detections.jsonl").read_bytes()


def _argv_writing_to(corpus, command, out):
    if command == "synth":
        return ["synth", "--out-dir", str(out)]
    name = "detections.jsonl" if command == "extract-tubes" else "scores.jsonl"
    return [command, str(corpus / name), "--out", str(out)]


# Both checks live where the setting does: --parallel in its argparse type,
# --median-window in ExtractionConfig. Either way the flag error is exit 3.
@pytest.mark.parametrize(
    "command, flag",
    [("extract-tubes", "--median-window"), ("extract-tubes", "--parallel"),
     ("fuse", "--parallel"), ("synth", "--parallel")],
)
def test_zero_flag_exits_3(corpus, tmp_path, capsys, command, flag):
    out = tmp_path / "o"
    argv = _argv_writing_to(corpus, command, out)
    assert run(*argv, flag, "0") == 3
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert "must be >= 1" in err
    assert not out.exists()


@pytest.mark.parametrize("command", ["extract-tubes", "fuse", "synth"])
def test_parallel_above_64_exits_3(corpus, tmp_path, capsys, command):
    # both values are settled while the flags are parsed, so no thread is started:
    # --help ends the run after --parallel 64 is accepted
    out = tmp_path / "o"
    argv = _argv_writing_to(corpus, command, out)
    assert run(*argv, "--parallel", "64", "--help") == 0
    capsys.readouterr()
    assert run(*argv, "--parallel", "65") == 3
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert "must be <= 64" in err
    assert not out.exists()


DETECTION_LINE = '{"video_id":"v","frame":%d,"boxes":[{"x1":0,"y1":0,"x2":%s,"y2":10}]}'
TUBE_LINE = '{"video_id":"v","label":0,"start":0,"end":0,"score":%s,"boxes":[[0,0,10,10]]}'


@pytest.mark.parametrize(
    "command, bad",
    [
        ("extract-tubes", "Infinity"),
        ("evaluate", "NaN"),
        ("extract-tubes", "1" + "0" * 400),  # an integer too large for a float
        ("extract-tubes", "1" + "0" * 5000),  # past the int-from-string digit limit
    ],
    ids=["infinite-coordinate", "nan-score", "400-digit-int", "5001-digit-int"],
)
def test_bad_number_exits_2_naming_line(tmp_path, capsys, command, bad):
    out = str(tmp_path / "out.jsonl")
    if command == "extract-tubes":
        lines = [DETECTION_LINE % (f, "10") for f in range(3)]
        lines[1] = DETECTION_LINE % (1, bad)
        path = tmp_path / "detections.jsonl"
        path.write_text("\n".join(lines) + "\n")
        argv = ["extract-tubes", str(path), "--out", out]
    else:
        path = tmp_path / "predictions.jsonl"
        path.write_text(TUBE_LINE % "0.5" + "\n" + TUBE_LINE % bad + "\n")
        gt = tmp_path / "gt.jsonl"
        gt.write_text(TUBE_LINE % "1" + "\n")
        argv = ["evaluate", str(path), str(gt), "--out", out]
    assert run(*argv) == 2
    assert f"{path}, line 2" in capsys.readouterr().err


SRC_ENV = dict(os.environ, PYTHONPATH=str(Path(tubekit.__file__).resolve().parent.parent))


def _write_frame_cap_videos(root, videos):
    """Each video: boxes at frames 0 and MAX_FRAME, a one-frame tube at MAX_FRAME, one clip per stream."""
    det, tubes, scores = root / "detections.jsonl", root / "tubes.jsonl", root / "scores.jsonl"
    box = {"x1": 0.0, "y1": 0.0, "x2": 1.0, "y2": 1.0}
    vids = [f"v{i}" for i in range(videos)]
    det.write_text("".join(
        json.dumps({"video_id": vid, "frame": f, "boxes": [box]}) + "\n" for vid in vids for f in (0, MAX_FRAME)
    ))
    tubes.write_text("".join(
        json.dumps({"video_id": vid, "label": 0, "start": MAX_FRAME, "end": MAX_FRAME,
                    "boxes": [[0.0, 0.0, 1.0, 1.0]]}) + "\n"
        for vid in vids
    ))
    scores.write_text("".join(
        json.dumps({"video_id": vid, "stream": stream, "granularity": "net16", "clip_start": 0,
                    "crop_id": "center", "kind": "raw", "values": [0.5, 0.25]}) + "\n"
        for vid in vids for stream in STREAMS
    ))
    return {"--detections": det, "--tubes": tubes}, scores


# runs main in a fresh process and prints its exit code and its own peak RSS in kB
_PEAK_AFTER_MAIN = r"""
import re, sys
from tubekit.cli import main
code = main(sys.argv[1:])
with open("/proc/self/status") as fh:
    print(code, re.search(r"VmHWM:\s*(\d+) kB", fh.read()).group(1))
"""


@pytest.mark.skipif(not os.path.exists("/proc/self/status"), reason="reads VmHWM from /proc/self/status")
@pytest.mark.parametrize("gate", ["--detections", "--tubes"])
def test_actionness_peak_at_the_frame_cap_does_not_grow_with_videos(tmp_path, gate):
    # each video's per-frame lists (some 40 MB at the cap) go before the next video is
    # computed; keeping them grew the peak by 26-34 MB from one video to three
    peaks = {}
    for videos in (1, 3):
        root = tmp_path / str(videos)
        root.mkdir()
        gates, scores = _write_frame_cap_videos(root, videos)
        proc = subprocess.run(
            [sys.executable, "-c", _PEAK_AFTER_MAIN, "actionness", "--scores", str(scores), gate, str(gates[gate]),
             "--class", "0", "--threshold", "0.1", "--out", str(root / "out.jsonl")],
            capture_output=True, text=True, check=True, env=SRC_ENV,
        )
        code, peak_kb = proc.stdout.split()
        assert code == "0", proc.stderr
        peaks[videos] = int(peak_kb) / 1024
    assert peaks[3] - peaks[1] <= 8, f"VmHWM {peaks[1]:.1f} MB for one video, {peaks[3]:.1f} MB for three"


@pytest.mark.skipif(not os.path.exists("/proc/self/status"), reason="reads VmHWM from /proc/self/status")
@pytest.mark.parametrize("gate", ["--detections", "--tubes"])
def test_actionness_peak_at_the_frame_cap_stays_small(tmp_path, gate):
    # the video is a few pieces, not a million frames, and its record goes out in parts of
    # at most 2**16 frames: the peak is the interpreter and one part's text with its encoded
    # copy, 17.7 MB on CPython 3.11; the bound leaves about 6 MB for other builds
    gates, scores = _write_frame_cap_videos(tmp_path, 1)
    proc = subprocess.run(
        [sys.executable, "-c", _PEAK_AFTER_MAIN, "actionness", "--scores", str(scores), gate, str(gates[gate]),
         "--class", "0", "--threshold", "0.1", "--out", str(tmp_path / "out.jsonl")],
        capture_output=True, text=True, check=True, env=SRC_ENV,
    )
    code, peak_kb = proc.stdout.split()
    assert code == "0", proc.stderr
    assert int(peak_kb) / 1024 < 24, f"VmHWM {int(peak_kb) / 1024:.1f} MB for one video at the frame cap"


def test_import_cli_leaves_scipy_unloaded():
    # both are slow to import, and no subcommand but synth needs numpy; nothing needs scipy
    code = "import sys, tubekit.cli; print('scipy' in sys.modules, 'numpy' in sys.modules)"
    out = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, check=True, env=SRC_ENV,
    )
    assert out.stdout.strip() == "False False"


def test_import_cli_leaves_thread_pool_and_hashlib_unloaded():
    # no subcommand needs concurrent.futures (--parallel runs serially), and only synth needs hashlib
    code = "import sys, tubekit.cli; print('concurrent.futures' in sys.modules, 'hashlib' in sys.modules)"
    out = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, check=True, env=SRC_ENV,
    )
    assert out.stdout.strip() == "False False"


def test_pipeline_subcommands_run_without_numpy(corpus, tmp_path):
    tubes = tmp_path / "tubes.jsonl"
    assert run("extract-tubes", str(corpus / "detections.jsonl"), "--out", str(tubes)) == 0
    truth = {vid: t.label for vid, t in read_tubes(corpus / "gt_tubes.jsonl")}
    preds = tmp_path / "preds.jsonl"
    with preds.open("w") as fh:
        for line in tubes.read_text().splitlines():
            rec = json.loads(line)
            fh.write(json.dumps(dict(rec, label=truth[rec["video_id"]])) + "\n")
    commands = {
        "extract-tubes": [str(corpus / "detections.jsonl")],
        "fuse": [str(corpus / "scores.jsonl")],
        "evaluate": [str(preds), str(corpus / "gt_tubes.jsonl")],
        "actionness": ["--scores", str(corpus / "scores.jsonl"), "--detections",
                       str(corpus / "detections.jsonl"), "--class", "0", "--threshold", "0.3"],
    }
    # a None entry in sys.modules makes every import of numpy raise ImportError
    code = "import sys; sys.modules['numpy'] = None; from tubekit.cli import main; sys.exit(main())"
    for command, args in commands.items():
        ordinary, blocked = tmp_path / f"{command}.jsonl", tmp_path / f"{command}-no-numpy.jsonl"
        assert run(command, *args, "--out", str(ordinary)) == 0
        proc = subprocess.run(
            [sys.executable, "-c", code, command, *args, "--out", str(blocked)],
            capture_output=True, text=True, env=SRC_ENV,
        )
        assert proc.returncode == 0, proc.stderr
        assert blocked.read_bytes() == ordinary.read_bytes()


@pytest.fixture(scope="module")
def corpora(tmp_path_factory):
    """A 2-video and a 20-video corpus, each with labeled predictions, extracted tubes
    and a detections file whose last line does not parse."""
    made = {}
    for videos in (2, 20):
        out = tmp_path_factory.mktemp(f"corpus{videos}")
        assert run("synth", "--out-dir", str(out), "--seed", "3", "--videos", str(videos),
                   "--frames", "40", "--persons", "2", "--classes", "3") == 0
        gt = (out / "gt_tubes.jsonl").read_text().splitlines()
        (out / "preds.jsonl").write_text("".join(json.dumps(dict(json.loads(r), score=0.9)) + "\n" for r in gt))
        assert run("extract-tubes", str(out / "detections.jsonl"), "--out", str(out / "tubes.jsonl")) == 0
        (out / "bad.jsonl").write_text((out / "detections.jsonl").read_text() + "{\n")
        made[videos] = out
    return made


def _subcommand_argv(case, corpus, videos, out):
    scores, action = ["--scores", str(corpus / "scores.jsonl")], ["--class", "0", "--threshold", "0.3"]
    return {
        "synth": ["synth", "--out-dir", str(out), "--seed", "3", "--videos", str(videos), "--frames", "40"],
        "extract-tubes": ["extract-tubes", str(corpus / "detections.jsonl")],
        "extract-tubes-parallel-2": ["extract-tubes", str(corpus / "detections.jsonl"), "--parallel", "2"],
        "fuse": ["fuse", str(corpus / "scores.jsonl")],
        "evaluate": ["evaluate", str(corpus / "preds.jsonl"), str(corpus / "gt_tubes.jsonl")],
        "actionness-tubes": ["actionness", *scores, "--tubes", str(corpus / "tubes.jsonl"), *action],
        "actionness-detections": ["actionness", *scores, "--detections", str(corpus / "detections.jsonl"), *action],
        "parse-error": ["extract-tubes", str(corpus / "bad.jsonl")],
        # rejected by the handler, after main turns the collector off
        "flag-error": ["fuse", str(corpus / "scores.jsonl"), "--granularities", ","],
    }[case] + ([] if case == "synth" else ["--out", str(out)])


def _cyclic_garbage(argv):
    """The exit code of ``main(argv)`` and the objects of it that only the cyclic collector frees."""
    was = gc.isenabled()
    gc.collect()
    gc.disable()
    try:
        return main(argv), gc.collect()
    finally:
        if was:
            gc.enable()


@pytest.mark.parametrize("case", ["synth", "extract-tubes", "extract-tubes-parallel-2", "fuse", "evaluate",
                                  "actionness-tubes", "actionness-detections", "parse-error"])
def test_subcommands_leave_no_cyclic_garbage(corpora, tmp_path, case):
    # main runs the handler with the collector off, which is sound only while
    # reference counting frees everything the handler makes. argparse's own
    # parser is cyclic garbage too, so the check is that the count does not
    # grow with the corpus (argparse's count differs between Python versions).
    # A first call may import a module, and an import leaves cyclic garbage of
    # its own, once; synth collects numpy's itself
    # (test_synth_leaves_no_more_cyclic_garbage_than_argparse).
    _cyclic_garbage(_subcommand_argv(case, corpora[2], 2, tmp_path / "warm-up"))
    counts = {}
    for videos, corpus in corpora.items():
        code, counts[videos] = _cyclic_garbage(_subcommand_argv(case, corpus, videos, tmp_path / f"out{videos}"))
        assert code == (2 if case == "parse-error" else 0)
    assert counts[2] == counts[20]


@pytest.mark.parametrize("enabled", [True, False], ids=["collector-on", "collector-off"])
@pytest.mark.parametrize("case, code", [("fuse", 0), ("parse-error", 2), ("flag-error", 3)])
def test_main_restores_the_collector_state(corpora, tmp_path, enabled, case, code):
    # only the process entry freezes; in-process callers keep their collector as it was
    argv = _subcommand_argv(case, corpora[2], 2, tmp_path / "out")
    was = gc.isenabled()
    frozen = gc.get_freeze_count()
    (gc.enable if enabled else gc.disable)()
    try:
        assert main(argv) == code
        assert gc.isenabled() is enabled
        assert gc.get_freeze_count() == frozen
    finally:
        (gc.enable if was else gc.disable)()


# python -m tubekit in a fresh interpreter, with an atexit hook that reports
# whether the process froze its objects before its shutdown collections
_RUN_MODULE = r"""
import atexit, gc, runpy
atexit.register(lambda: print("frozen", gc.get_freeze_count() > 0))
runpy.run_module("tubekit", run_name="__main__")
"""


@pytest.mark.parametrize("case, code", [("extract-tubes", 0), ("parse-error", 2), ("flag-error", 3)])
def test_process_exits_with_mains_code_and_stderr_after_freezing(corpora, tmp_path, capsys, case, code):
    argv = _subcommand_argv(case, corpora[2], 2, tmp_path / "out")
    assert main(argv) == code
    err = capsys.readouterr().err
    proc = subprocess.run([sys.executable, "-c", _RUN_MODULE, *argv], capture_output=True, text=True, env=SRC_ENV)
    assert (proc.returncode, proc.stderr) == (code, err)
    assert proc.stdout == "frozen True\n"


SYNTH_GARBAGE = """
import gc, sys
from tubekit.cli import build_parser, main
argv = ["synth", "--out-dir", sys.argv[1], "--videos", "2", "--frames", "40"]
gc.collect()
gc.disable()
build_parser().parse_args(argv)
parser_garbage = gc.collect()
print(main(argv), parser_garbage, gc.collect())
"""


def test_synth_leaves_no_more_cyclic_garbage_than_argparse(tmp_path):
    # In a fresh interpreter synth imports numpy with main's collector off, and
    # numpy's import makes reference cycles; main's argparse parser is cyclic
    # garbage in any case, so synth may leave no more than a parser's worth.
    proc = subprocess.run([sys.executable, "-c", SYNTH_GARBAGE, str(tmp_path / "corpus")],
                          capture_output=True, text=True, env=SRC_ENV)
    assert proc.returncode == 0, proc.stderr
    code, parser_garbage, synth_garbage = map(int, proc.stdout.split())
    assert code == 0
    assert synth_garbage <= parser_garbage


HUGE_BOX = (0, 0, 1e308, 1e308)  # finite corners, area overflows to infinity
TINY_BOX = (0, 0, 1e-200, 1e-200)  # positive sides, area underflows to 0


@pytest.mark.parametrize(
    "command, box",
    [("extract-tubes", HUGE_BOX), ("extract-tubes", TINY_BOX), ("evaluate", HUGE_BOX)],
    ids=["overflowing-detection", "underflowing-detection", "overflowing-tube"],
)
def test_box_area_out_of_range_exits_2_naming_line(tmp_path, capsys, command, box):
    out = str(tmp_path / "out.jsonl")
    if command == "extract-tubes":
        good = (0, 0, 10, 10)
        lines = [
            json.dumps({"video_id": "v", "frame": f, "boxes": [dict(zip(("x1", "y1", "x2", "y2"), b))]})
            for f, b in enumerate([good] + [box] * 5)
        ]
        path = tmp_path / "detections.jsonl"
        path.write_text("\n".join(lines) + "\n")
        argv = ["extract-tubes", str(path), "--out", out]
    else:
        path = tmp_path / "predictions.jsonl"
        bad = {"video_id": "v", "label": 0, "start": 0, "end": 0, "score": 0.4, "boxes": [list(box)]}
        path.write_text(TUBE_LINE % "0.5" + "\n" + json.dumps(bad) + "\n")
        gt = tmp_path / "gt.jsonl"
        gt.write_text(TUBE_LINE % "1" + "\n")
        argv = ["evaluate", str(path), str(gt), "--out", out]
    assert run(*argv) == 2
    err = capsys.readouterr().err
    assert f"{path}, line 2" in err
    assert "'boxes'" in err


@pytest.mark.parametrize(
    "box, message",
    [
        ([float(v) for v in HUGE_BOX], "box (0.0, 0.0, 1e+308, 1e+308) has area inf: a positive finite area required"),
        (list(HUGE_BOX), "box (0.0, 0.0, 1e+308, 1e+308) has area inf: a positive finite area required"),
        ([float(v) for v in TINY_BOX], "box (0.0, 0.0, 1e-200, 1e-200) has area 0.0: a positive finite area required"),
        ([5.0, 0.0, 5.0, 10.0], "degenerate box (5.0, 0.0, 5.0, 10.0): x1 < x2 and y1 < y2 required"),
        ([0.0, math.nan, 10.0, 10.0], "expected a finite number, got nan"),
        ([0.0, 0.0, 10.0], "expected [x1,y1,x2,y2], got [0.0, 0.0, 10.0]"),
    ],
    ids=["overflowing", "overflowing-integer-corners", "underflowing", "degenerate", "nan-corner", "three-values"],
)
def test_actionness_bad_tube_box_exits_2_with_exact_error(tmp_path, capsys, box, message):
    # actionness reads only the tubes' spans, but checks every box as evaluate does
    scores, tubes, out = tmp_path / "scores.jsonl", tmp_path / "tubes.jsonl", tmp_path / "out.jsonl"
    write_score_records(scores, [[1.0, 0.0]], streams=STREAMS)
    bad = {"video_id": "v", "label": 0, "start": 0, "end": 1, "boxes": [[0.0, 0.0, 10.0, 10.0], box]}
    tubes.write_text(TUBE_LINE % "0.5" + "\n" + json.dumps(bad) + "\n")
    argv = ["actionness", "--scores", str(scores), "--tubes", str(tubes),
            "--class", "0", "--threshold", "0.3", "--out", str(out)]
    assert run(*argv) == 2
    assert capsys.readouterr().err == f"tubekit actionness: error: {tubes}, line 2, field 'boxes': {message}\n"
    assert not out.exists()


@pytest.mark.parametrize("command", ["extract-tubes", "actionness", "evaluate"])
def test_frame_above_cap_exits_2_naming_field(tmp_path, capsys, command):
    over = MAX_FRAME + 1
    dets = tmp_path / "detections.jsonl"
    dets.write_text(DETECTION_LINE % (0, "10") + "\n" + DETECTION_LINE % (over, "10") + "\n")
    tubes = tmp_path / "tubes.jsonl"
    bad = {"video_id": "v", "label": 0, "start": over, "end": over, "score": 0.5, "boxes": [[0, 0, 10, 10]]}
    tubes.write_text(TUBE_LINE % "0.5" + "\n" + json.dumps(bad) + "\n")
    scores = tmp_path / "scores.jsonl"
    write_score_records(scores, [[1.0, 0.0]], streams=STREAMS)
    out = str(tmp_path / "out.jsonl")
    if command == "extract-tubes":
        path, field = dets, "frame"
        argv = ["extract-tubes", str(dets), "--out", out]
    elif command == "actionness":
        path, field = tubes, "end"
        argv = ["actionness", "--scores", str(scores), "--tubes", str(tubes),
                "--class", "0", "--threshold", "0.4", "--out", out]
    else:
        path, field = tubes, "end"
        argv = ["evaluate", str(tubes), str(tubes), "--out", out]
    assert run(*argv) == 2
    assert f"{path}, line 2, field '{field}': frame index {over} above the cap" in capsys.readouterr().err


def test_fuse_mean_of_huge_scores(tmp_path):
    scores = tmp_path / "scores.jsonl"
    scores.write_text("".join(
        json.dumps({
            "video_id": "v", "stream": "rgb", "granularity": "net16", "clip_start": 0,
            "crop_id": crop, "kind": "raw", "values": [1e308, 0.0],
        }) + "\n"
        for crop in ("center", "center_flip")
    ))
    out = tmp_path / "predictions.jsonl"
    assert run("fuse", str(scores), "--out", str(out)) == 0
    # strict JSON: NaN, Infinity or -Infinity in the output fails the test
    rows = [json.loads(line, parse_constant=pytest.fail) for line in out.read_text().splitlines()]
    assert len(rows) == 1
    assert rows[0]["label"] == 0
    assert rows[0]["values"][0] == 1e308


def write_score_records(path, vectors, kind="raw", streams=("rgb",), starts=(0,)):
    """One record per (stream, clip start, crop); the crops take ``vectors`` in order."""
    crops = ("center", "center_flip")
    path.write_text("".join(
        json.dumps({
            "video_id": "v", "stream": stream, "granularity": "net16", "clip_start": start,
            "crop_id": crop, "kind": kind, "values": list(values),
        }) + "\n"
        for stream in streams for start in starts for crop, values in zip(crops, vectors)
    ))


def write_one_tube(path, frames=20):
    record = {"video_id": "v", "label": 0, "start": 0, "end": frames - 1, "boxes": [[0, 0, 10, 10]] * frames}
    path.write_text(json.dumps(record) + "\n")


def strict_rows(path):
    # NaN, Infinity or -Infinity in the output fails the test
    return [json.loads(line, parse_constant=pytest.fail) for line in path.read_text().splitlines()]


@pytest.mark.parametrize(
    "values, message",
    [([1.0000000005, 0.0], "above 1"), ([0.5, 0.4], "sums to")],
    ids=["entry-above-one", "sum-off-by-0.1"],
)
def test_actionness_bad_prob_vector_exits_2_naming_line(tmp_path, capsys, values, message):
    scores, tubes = tmp_path / "scores.jsonl", tmp_path / "tubes.jsonl"
    write_score_records(scores, [[0.5, 0.5], values], kind="prob", streams=STREAMS)
    write_one_tube(tubes)
    argv = ["actionness", "--scores", str(scores), "--tubes", str(tubes), "--class", "0",
            "--threshold", "0.3", "--out", str(tmp_path / "out.jsonl")]
    assert run(*argv) == 2
    err = capsys.readouterr().err
    assert f"{scores}, line 2" in err
    assert "'values'" in err
    assert message in err


# each sums to 1 within 1e-9, but the rounded sum of their mean is 1.000000001
EDGE_PROBS = ([0.2707664883780633, 0.7292335126219366], [0.0872546530413557, 0.9127453479586443])


def test_mean_of_prob_vectors_at_the_sum_tolerance(tmp_path):
    scores, tubes = tmp_path / "scores.jsonl", tmp_path / "tubes.jsonl"
    write_score_records(scores, EDGE_PROBS, kind="prob", streams=STREAMS, starts=(0, 8))
    write_one_tube(tubes)
    preds, series = tmp_path / "predictions.jsonl", tmp_path / "actionness.jsonl"
    assert run("fuse", str(scores), "--out", str(preds)) == 0
    assert strict_rows(preds)[0]["label"] == 1
    assert run("actionness", "--scores", str(scores), "--tubes", str(tubes), "--class", "0",
               "--threshold", "0.3", "--out", str(series)) == 0
    assert len(strict_rows(series)[0]["series"]) == 20


def test_fuse_majority_tie_of_huge_scores(tmp_path):
    scores = tmp_path / "scores.jsonl"
    write_score_records(scores, [[1e308, 1e308, 0.0], [0.0, 1e308, 1e308]])
    out = tmp_path / "predictions.jsonl"
    assert run("fuse", str(scores), "--method", "majority", "--out", str(out)) == 0
    rows = strict_rows(out)
    assert len(rows) == 1
    assert rows[0]["label"] == 1


def test_fuse_refuses_a_repeated_score_unit(tmp_path, capsys):
    scores, out = tmp_path / "scores.jsonl", tmp_path / "predictions.jsonl"
    write_score_records(scores, [[1.0, 0.0], [0.0, 1.5]])
    assert run("fuse", str(scores), "--out", str(out)) == 0
    assert strict_rows(out) == [{"video_id": "v", "label": 1, "values": [0.5, 0.75]}]
    # the center record again: counted twice, it would turn the label to 0
    with scores.open("a") as fh:
        fh.write(scores.read_text().splitlines()[0] + "\n")
    assert run("fuse", str(scores), "--out", str(out)) == 2
    err = capsys.readouterr().err
    assert f"{scores}, line 3, field 'crop_id': video 'v' rgb/net16: repeated record for clip_start 0, crop_id 'center'" in err


def _score_line(**fields):
    """A scores record of video 'v' in rgb/net16/center, with ``fields`` given as JSON text."""
    record = {"video_id": '"v"', "stream": '"rgb"', "granularity": '"net16"', "clip_start": "0",
              "crop_id": '"center"', "kind": '"raw"', "values": "[0.25,0.75]", **fields}
    return "{" + ",".join(f'"{k}":{v}' for k, v in record.items()) + "}\n"


ALL_CROPS = "['center', 'center_flip', 'tl', 'tl_flip', 'tr', 'tr_flip', 'bl', 'bl_flip', 'br', 'br_flip']"
FUSED = _score_line()


# The default fuse reads rgb/net16 in the center crops. Every other record is
# checked as fully as those: each of these files holds one fault, in a record
# that fuse does not fuse, and is exit 2 with the reader's own error.
@pytest.mark.parametrize("lines, line_no, field, message", [
    pytest.param([FUSED, _score_line(stream='"pose"', values="[NaN,0.5]")], 2, "values",
                 "expected a finite number, got nan", id="nan"),
    pytest.param([FUSED, _score_line(stream='"flow"', values="[1e999,0.5]")], 2, "values",
                 "expected a finite number, got inf", id="1e999"),
    pytest.param([FUSED, _score_line(granularity='"net32"', kind='"prob"', values="[0.5,0.25]")], 2, "values",
                 "probability vector sums to 0.75, not 1", id="prob-sum"),
    pytest.param([FUSED, _score_line(crop_id='"tl"', kind='"prob"', values="[0.5,0.50000000125]")], 2, "values",
                 "probability vector sums to 1.00000000125, not 1", id="prob-sum-past-the-tolerance"),
    pytest.param([FUSED, _score_line(stream='"pose"'), _score_line(stream='"pose"', values="[0.5,0.5]")],
                 3, "crop_id", "video 'v' pose/net16: repeated record for clip_start 0, crop_id 'center'",
                 id="repeated-unit"),
    pytest.param([FUSED, _score_line(crop_id='"tl"'), _score_line(crop_id='"tl"')], 3, "crop_id",
                 "video 'v' rgb/net16: repeated record for clip_start 0, crop_id 'tl'",
                 id="repeated-unit-in-a-fused-set"),
    pytest.param([FUSED, _score_line(stream='"flow"'), _score_line(stream='"flow"', clip_start="8", kind='"prob"')],
                 3, "kind", "video 'v' flow/net16: mixed raw/prob score kinds in one set", id="mixed-kinds"),
    pytest.param([FUSED, _score_line(crop_id='"tl"', clip_start="8", kind='"prob"', values="[0.5,0.5]")], 2, "kind",
                 "video 'v' rgb/net16: mixed raw/prob score kinds in one set", id="mixed-kinds-in-a-fused-set"),
    pytest.param([FUSED, _score_line(granularity='"netW"', values="[0.25,0.5,0.25]")], 2, "values",
                 "class count 3 differs from 2 seen earlier in the file", id="class-count"),
    # the file's class count is set by its first record, whichever set that is in
    pytest.param([_score_line(stream='"pose"', values="[0.25,0.5,0.25]"), FUSED], 2, "values",
                 "class count 2 differs from 3 seen earlier in the file", id="class-count-of-the-first-record"),
    pytest.param([FUSED, _score_line(stream='"pose"', kind='"prob"', values="[1,2]")], 2, "values",
                 "probability vector with entries above 1", id="integer-values"),
    pytest.param([FUSED, _score_line(stream='"pose"', values="[1,2,3]")], 2, "values",
                 "class count 3 differs from 2 seen earlier in the file", id="integer-values-class-count"),
    pytest.param([FUSED, _score_line(crop_id='"middle"')], 2, "crop_id",
                 f"unknown crop_id 'middle', expected one of {ALL_CROPS}", id="unknown-crop"),
])
def test_fuse_checks_the_records_it_does_not_fuse(tmp_path, capsys, lines, line_no, field, message):
    scores, out = tmp_path / "scores.jsonl", tmp_path / "predictions.jsonl"
    scores.write_text("".join(lines))
    assert run("fuse", str(scores), "--out", str(out)) == 2
    assert capsys.readouterr().err == f"tubekit fuse: error: {scores}, line {line_no}, field '{field}': {message}\n"
    assert not out.exists()


@pytest.mark.parametrize("other", [
    pytest.param({"stream": '"pose"'}, id="another-stream"),
    pytest.param({"crop_id": '"tl"'}, id="another-crop"),
])
def test_fuse_names_a_video_with_no_fused_scores(tmp_path, capsys, other):
    scores, out = tmp_path / "scores.jsonl", tmp_path / "predictions.jsonl"
    scores.write_text(FUSED + _score_line(video_id='"w"', **other))
    assert run("fuse", str(scores), "--out", str(out)) == 2
    assert capsys.readouterr().err == (
        f"tubekit fuse: error: {scores}: video 'w' has no rgb/net16 scores for crop scheme 'center'\n"
    )
    assert not out.exists()


def test_negative_clip_start_exits_2_naming_field(tmp_path, capsys):
    scores = tmp_path / "scores.jsonl"
    write_score_records(scores, [[1.0, 0.0]], starts=(-1,))
    assert run("fuse", str(scores), "--out", str(tmp_path / "predictions.jsonl")) == 2
    err = capsys.readouterr().err
    assert f"{scores}, line 1, field 'clip_start': negative clip_start -1" in err


LONG_VALUE = "x" * 10**6


@pytest.mark.parametrize("command", ["extract-tubes", "fuse", "evaluate"])
def test_long_value_in_parse_error_is_cut(tmp_path, monkeypatch, capsys, command):
    # relative paths keep the error line's length independent of the test's directory
    monkeypatch.chdir(tmp_path)
    if command == "extract-tubes":
        path, field = "detections.jsonl", "frame"
        good = {"video_id": "v", "frame": 0, "boxes": []}
        argv = ["extract-tubes", path]
    elif command == "fuse":
        path, field = "scores.jsonl", "crop_id"
        good = {"video_id": "v", "stream": "rgb", "granularity": "net16", "clip_start": 0,
                "crop_id": "center", "kind": "raw", "values": [1.0, 0.0]}
        argv = ["fuse", path]
    else:
        path, field = "predictions.jsonl", "label"
        good = {"video_id": "v", "label": 0, "start": 0, "end": 0, "score": 0.5, "boxes": [[0, 0, 10, 10]]}
        Path("gt.jsonl").write_text(json.dumps(good) + "\n")
        argv = ["evaluate", path, "gt.jsonl"]
    Path(path).write_text(json.dumps(good) + "\n" + json.dumps(dict(good, **{field: LONG_VALUE})) + "\n")
    assert run(*argv, "--out", "out.jsonl") == 2
    err = capsys.readouterr().err
    assert f"{path}, line 2, field '{field}': " in err
    assert "[1000002 characters]" in err
    assert len(err.encode()) < 300


@pytest.mark.parametrize("command", ["fuse", "actionness"])
def test_long_video_id_in_missing_scores_error_is_cut(tmp_path, monkeypatch, capsys, command):
    monkeypatch.chdir(tmp_path)
    record = {"video_id": LONG_VALUE, "stream": "rgb", "granularity": "net16", "clip_start": 0,
              "crop_id": "center", "kind": "raw", "values": [1.0, 0.0]}
    Path("scores.jsonl").write_text(json.dumps(record) + "\n")
    if command == "fuse":
        argv = ["fuse", "scores.jsonl", "--granularities", "net16,net32"]
    else:
        Path("detections.jsonl").write_text(
            json.dumps({"video_id": LONG_VALUE, "frame": 0, "boxes": [{"x1": 0, "y1": 0, "x2": 5, "y2": 5}]}) + "\n"
        )
        argv = ["actionness", "--scores", "scores.jsonl", "--detections", "detections.jsonl",
                "--class", "0", "--threshold", "0.3"]
    assert run(*argv, "--out", "out.jsonl") == 2
    err = capsys.readouterr().err
    assert "scores.jsonl: " in err
    assert "[1000002 characters]" in err
    assert len(err.encode()) < 300


def test_actionness_applies_softmax_once_per_run_of_frames(tmp_path, monkeypatch):
    from tubekit import fusion, read_detections, read_scores

    # a raw run's probability comes from one softmax's terms
    calls = []
    real = fusion._softmax_terms

    def counting(values):
        calls.append(values)
        return real(values)

    monkeypatch.setattr(fusion, "_softmax_terms", counting)
    corpus = tmp_path / "corpus"
    # 403 frames: clips start at 0, 8, ..., 384, and frames 400-402 are uncovered
    assert run("synth", "--out-dir", str(corpus), "--seed", "1", "--videos", "1",
               "--frames", "403", "--persons", "1") == 0
    assert run("actionness", "--scores", str(corpus / "scores.jsonl"),
               "--detections", str(corpus / "detections.jsonl"), "--class", "0",
               "--threshold", "0.3", "--out", str(tmp_path / "actionness.jsonl")) == 0

    # a run: consecutive frames taking their scores from the same clips
    (length,) = [d.length for d in read_detections(corpus / "detections.jsonl")]
    expected = 0
    for s in read_scores(corpus / "scores.jsonl").values():
        starts = sorted({e.clip_start for e in s.entries})
        sources = []
        for f in range(length):
            covering = tuple(x for x in starts if x <= f < x + CLIP_LEN)
            sources.append(covering or (starts[-1],))  # the uncovered tail takes the last clip
        expected += 1 + sum(sources[f] != sources[f - 1] for f in range(1, length))
    assert expected == 3 * 50
    assert len(calls) == expected


# CLI fuzz gate for fuse and actionness on mutated score records: whatever
# the records, the CLI exits 0, 2 or 3 without a traceback, and what it
# writes on exit 0 is strict JSON.

BIG = 1.7976931348623157e308  # the largest finite float
FUZZ_VIDEOS = ("a", "b")

# few distinct values, so that argmax ties and majority-vote ties are common
raw_value = st.one_of(
    st.sampled_from([0.0, 1.0, -1.0, 1e308, -1e308, BIG, -BIG, 5e-324]),
    st.floats(min_value=-50, max_value=50),
)


@st.composite
def prob_vector(draw, k):
    """Entries near 0 and 1, summing to 1 to within the 1e-9 tolerance, often just inside it."""
    if k == 2 and draw(st.booleans()):
        return list(draw(st.sampled_from(EDGE_PROBS)))
    small = draw(st.lists(st.sampled_from([0.0, 5e-324, 1e-300, 1e-12, 1e-10, 0.25]),
                          min_size=k - 1, max_size=k - 1))
    off = draw(st.sampled_from([0.0, 5e-10, -5e-10, 9.999e-10, -9.999e-10]))
    values = small + [min(1.0, 1.0 - math.fsum(small) + off)]
    hot = draw(st.integers(0, k - 1))
    values[hot], values[-1] = values[-1], values[hot]
    return values


# what a mutation puts in place of one score or of one whole field
bad_number = st.sampled_from([1.0000000005, -1e-12, 2.0, float("nan"), float("inf"), 10**400, "x", None])
bad_field = st.sampled_from(["x", None, True, [], -1, 2.5, 10**400])
fields = st.sampled_from(["values", "clip_start", "kind", "crop_id", "granularity", "video_id"])


@st.composite
def score_records(draw):
    k = draw(st.integers(1, 4))
    records = []
    for vid in draw(st.lists(st.sampled_from(FUZZ_VIDEOS), min_size=1, max_size=2, unique=True)):
        for stream in STREAMS:
            kind = draw(st.sampled_from(["raw", "prob"]))
            # gaps between clips, starts with one crop or two, and starts past the
            # video's end; a set holds one record per (start, crop)
            units = draw(st.lists(st.tuples(st.integers(0, 40), st.sampled_from(CENTER_CROPS)),
                                  min_size=1, max_size=6, unique=True))
            for start, crop in units:
                values = draw(prob_vector(k) if kind == "prob"
                              else st.lists(raw_value, min_size=k, max_size=k))
                records.append({"video_id": vid, "stream": stream, "granularity": "net16",
                                "clip_start": start, "crop_id": crop, "kind": kind,
                                "values": values})
    mutation = draw(st.sampled_from([None, None, "number", "field", "repeat"]))
    if mutation is not None:
        record = draw(st.sampled_from(records))
        if mutation == "number":
            record["values"][draw(st.integers(0, k - 1))] = draw(bad_number)
        elif mutation == "field":
            record[draw(fields)] = draw(bad_field)
        else:
            records.insert(draw(st.integers(0, len(records))), dict(record))
    return k, records


def _run(argv, files):
    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp)
        for name, text in files.items():
            (root / name).write_text(text)
        argv = [str(root / a) if a in files or a == "out.jsonl" else a for a in argv]
        err = io.StringIO()
        with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
            code = main(argv)
        assert code in (0, 2, 3), err.getvalue()
        assert "Traceback" not in err.getvalue()
        event(f"exit {code}")
        if code == 0:
            strict_rows(root / "out.jsonl")


def _jsonl(records):
    # json.dumps writes NaN and Infinity for non-finite floats, which the readers must refuse
    return "".join(json.dumps(r) + "\n" for r in records)


FUZZ = settings(max_examples=120, deadline=None, suppress_health_check=[HealthCheck.too_slow])


@FUZZ
@given(score_records(), st.sampled_from(FUSION_METHODS), st.sampled_from(STREAMS),
       st.sampled_from(["center", "fixed"]), st.sampled_from(["1", "2"]))
def test_fuse_never_crashes(scores, method, stream, crop_scheme, parallel):
    _, records = scores
    _run(["fuse", "scores.jsonl", "--method", method, "--stream", stream,
          "--crop-scheme", crop_scheme, "--parallel", parallel, "--out", "out.jsonl"],
         {"scores.jsonl": _jsonl(records)})


@FUZZ
@given(score_records(), st.lists(st.integers(1, 60), min_size=1, max_size=2), st.data())
def test_actionness_never_crashes(scores, lengths, data):
    k, records = scores
    tubes = [{"video_id": vid, "label": 0, "start": 0, "end": n - 1, "boxes": [[0, 0, 10, 10]] * n}
             for vid, n in zip(FUZZ_VIDEOS, lengths)]
    action_class = data.draw(st.integers(0, k))  # k itself is out of range: exit 3
    threshold = data.draw(st.sampled_from(["0", "0.3", "1", "1e-300"]))
    _run(["actionness", "--scores", "scores.jsonl", "--tubes", "tubes.jsonl",
          "--class", str(action_class), "--threshold", threshold, "--out", "out.jsonl"],
         {"scores.jsonl": _jsonl(records), "tubes.jsonl": _jsonl(tubes)})


# The same gate for extract-tubes on mutated detections records: frame gaps
# and duplicates, identical boxes on one frame, and one mutated coordinate,
# box or field.

lattice_coord = st.integers(0, 12).map(float)
bad_coordinate = st.sampled_from(
    [float("nan"), float("inf"), -float("inf"), 1e308, BIG, -BIG, 10**400, 1e-200, 5e-324, -1.0,
     "x", None, True, [1.0]]
)
bad_detection_field = st.sampled_from(["x", None, True, [], {}, -1, 2.5, 10**400, [1.0]])
detection_fields = st.sampled_from(["video_id", "frame", "boxes"])


@st.composite
def lattice_box(draw):
    x1, y1 = draw(lattice_coord), draw(lattice_coord)
    box = {"x1": x1, "y1": y1, "x2": x1 + draw(st.integers(1, 6)), "y2": y1 + draw(st.integers(1, 6))}
    if draw(st.booleans()):
        box["score"] = draw(st.sampled_from([0.5, 0.9]))
    return box


@st.composite
def detection_records(draw):
    records = []
    for vid in draw(st.lists(st.sampled_from(FUZZ_VIDEOS), min_size=1, max_size=2, unique=True)):
        pool = draw(st.lists(lattice_box(), min_size=1, max_size=4))
        # gaps between frames, and duplicate frames when unique is off
        unique = draw(st.sampled_from([True, True, True, False]))
        for frame in sorted(draw(st.lists(st.integers(0, 40), min_size=1, max_size=30, unique=unique))):
            # boxes drawn from a small pool, so one frame often holds identical boxes
            boxes = [dict(b) for b in draw(st.lists(st.sampled_from(pool), max_size=8))]
            records.append({"video_id": vid, "frame": frame, "boxes": boxes})
    mutation = draw(st.sampled_from([None, None, "coordinate", "box", "field", "missing"]))
    record = draw(st.sampled_from(records))
    if mutation == "coordinate" and record["boxes"]:
        box = draw(st.sampled_from(record["boxes"]))
        box[draw(st.sampled_from(["x1", "y1", "x2", "y2", "score"]))] = draw(bad_coordinate)
    elif mutation == "box":
        record["boxes"].append(draw(st.sampled_from([None, 3, [0, 0, 1, 1], {"x1": 0, "y1": 0}])))
    elif mutation == "field":
        record[draw(detection_fields)] = draw(bad_detection_field)
    elif mutation == "missing":
        del record[draw(detection_fields)]
    return records


@FUZZ
@given(detection_records(), st.integers(1, 6), st.integers(1, 12), st.sampled_from(["1", "2"]))
def test_extract_tubes_never_crashes(records, min_tube_len, median_window, parallel):
    _run(["extract-tubes", "detections.jsonl", "--min-tube-len", str(min_tube_len),
          "--median-window", str(median_window), "--parallel", parallel, "--out", "out.jsonl"],
         {"detections.jsonl": _jsonl(records)})


# The same gate for evaluate on mutated tubes records, in the prediction or
# the ground-truth file: span versus box-count mismatches, reversed
# spans, bad labels and scores, ends above the frame cap, empty files,
# classes present in one file only, and duplicate tubes.

bad_tube_fields = {
    "label": st.sampled_from([True, False, 10**400, -1, 2.5, "x", None]),
    "score": st.sampled_from([float("nan"), float("inf"), -float("inf"), BIG, -BIG, 10**400, "x", True]),
    "end": st.sampled_from([10**400, -1]),
    "start": st.sampled_from([-1, 10**400, "x"]),
    "boxes": st.sampled_from([[], [[0, 0, 1]], [None], [[0, 0, BIG, BIG]], "x"]),
}


@st.composite
def tube_records(draw, mutate):
    records = []
    for _ in range(draw(st.integers(0, 4))):  # no tubes at all: an empty file
        start = draw(st.integers(0, 20))
        n = draw(st.integers(1, 8))
        x, y = draw(lattice_coord), draw(lattice_coord)
        record = {"video_id": draw(st.sampled_from(FUZZ_VIDEOS)),
                  # few classes, so that a class often appears in one file only
                  "label": draw(st.integers(0, 2)), "start": start, "end": start + n - 1,
                  "score": draw(st.sampled_from([0.0, 0.5, 0.9, 1e308, -1.0])),
                  "boxes": [[x + f % 3, y, x + f % 3 + 6, y + 6] for f in range(n)]}
        records.append(record)
        if draw(st.integers(0, 3)) == 0:
            records.append(json.loads(json.dumps(record)))  # a duplicate tube
    if not (mutate and records):
        return records
    record = draw(st.sampled_from(records))
    mutation = draw(st.sampled_from([None, "count", "reversed", "cap", "field", "missing"]))
    if mutation == "count":
        if draw(st.booleans()) or len(record["boxes"]) == 1:
            record["boxes"].append([0, 0, 1, 1])
        else:
            record["boxes"].pop()
    elif mutation == "reversed":
        record["start"], record["end"] = record["end"] + 1, record["start"]
    elif mutation == "cap":
        record["start"] = record["end"] = MAX_FRAME + draw(st.sampled_from([1, 10**6]))
        record["boxes"] = [[0, 0, 1, 1]]
    elif mutation == "field":
        name = draw(st.sampled_from(sorted(bad_tube_fields)))
        record[name] = draw(bad_tube_fields[name])
    elif mutation == "missing":
        del record[draw(st.sampled_from(["video_id", "label", "start", "end", "score", "boxes"]))]
    return records


@FUZZ
@given(st.sampled_from(["preds", "gt"]), st.data())
def test_evaluate_never_crashes(mutated, data):
    preds = data.draw(tube_records(mutate=mutated == "preds"))
    gts = data.draw(tube_records(mutate=mutated == "gt"))
    _run(["evaluate", "preds.jsonl", "gt.jsonl", "--out", "out.jsonl"],
         {"preds.jsonl": _jsonl(preds), "gt.jsonl": _jsonl(gts)})
