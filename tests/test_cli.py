import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import tubekit
from tubekit.cli import main
from tubekit import read_predictions, read_report, read_tubes


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

    def test_parallel_identical(self, tmp_path):
        outs = []
        for n in ("1", "2", "8"):
            out = tmp_path / f"p{n}"
            assert run("synth", "--out-dir", str(out), "--seed", "9", "--videos", "6", "--parallel", n) == 0
            outs.append((out / "detections.jsonl").read_bytes())
        assert outs[0] == outs[1] == outs[2]


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

    def test_requires_exactly_one_gate_source(self, corpus, tmp_path):
        code = run(
            "actionness", "--scores", str(corpus / "scores.jsonl"),
            "--class", "0", "--threshold", "0.5", "--out", str(tmp_path / "o.jsonl"),
        )
        assert code == 3


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
        assert all(row["map"] == 1.0 for row in read_report(report_path))

    def test_parse_error_exits_2(self, corpus, tmp_path):
        bad = tmp_path / "bad.jsonl"
        bad.write_text("{oops\n")
        assert run("evaluate", str(bad), str(corpus / "gt_tubes.jsonl"), "--out", str(tmp_path / "r.jsonl")) == 2

    def test_bad_delta_exits_3(self, corpus, tmp_path):
        gt = corpus / "gt_tubes.jsonl"
        assert run("evaluate", str(gt), str(gt), "--deltas", "0.5,2.0", "--out", str(tmp_path / "r.jsonl")) == 3

    def test_unscored_predictions_exit_2(self, corpus, tmp_path):
        gt = corpus / "gt_tubes.jsonl"
        assert run("evaluate", str(gt), str(gt), "--out", str(tmp_path / "r.jsonl")) == 2


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


def test_import_cli_leaves_scipy_unloaded():
    # scipy.ndimage is slow to import and only mask_to_boxes needs it
    src = Path(tubekit.__file__).resolve().parent.parent
    code = "import sys, tubekit.cli; print('scipy' in sys.modules)"
    out = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, check=True,
        env=dict(os.environ, PYTHONPATH=str(src)),
    )
    assert out.stdout.strip() == "False"


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
