import contextlib
import io
import json
import math
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest
from hypothesis import HealthCheck, event, given, settings
from hypothesis import strategies as st

import tubekit
from tubekit.cli import main
from tubekit.fusion import CENTER_CROPS, CLIP_LEN, FUSION_METHODS, STREAMS
from tubekit import read_predictions, read_report, read_tubes
from tubekit.formats import MAX_FRAME


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


@pytest.mark.parametrize("bad_kind", list(UNREADABLE))
@pytest.mark.parametrize("which", list(INPUTS))
def test_unreadable_input_exits_2_naming_it(corpus, tmp_path, capsys, which, bad_kind):
    bad = tmp_path / "nope.jsonl"
    if bad_kind == "directory":
        bad.mkdir()
    predictions = tmp_path / "predictions.jsonl"
    predictions.write_text("".join(
        json.dumps(dict(json.loads(line), score=0.5)) + "\n"
        for line in (corpus / "gt_tubes.jsonl").read_text().splitlines()
    ))
    paths = {"detections": corpus / "detections.jsonl", "scores": corpus / "scores.jsonl",
             "gt": corpus / "gt_tubes.jsonl", "predictions": predictions}
    argv = [str(bad) if a == "BAD" else a.format(**paths) for a in INPUTS[which]]
    if argv[0] == "actionness":
        argv += ["--class", "0", "--threshold", "0.3"]
    out = tmp_path / "out.jsonl"
    assert run(*argv, "--out", str(out)) == 2
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert f"{UNREADABLE[bad_kind]}: {str(bad)!r}" in err
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


# Both checks live where the setting does: --parallel in its argparse type,
# --median-window in ExtractionConfig. Either way the flag error is exit 3.
@pytest.mark.parametrize(
    "command, flag",
    [("extract-tubes", "--median-window"), ("extract-tubes", "--parallel"),
     ("fuse", "--parallel"), ("synth", "--parallel")],
)
def test_zero_flag_exits_3(corpus, tmp_path, capsys, command, flag):
    out = tmp_path / "o"
    if command == "synth":
        argv = ["synth", "--out-dir", str(out)]
    else:
        name = "detections.jsonl" if command == "extract-tubes" else "scores.jsonl"
        argv = [command, str(corpus / name), "--out", str(out)]
    assert run(*argv, flag, "0") == 3
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert "must be >= 1" in err
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


def test_import_cli_leaves_scipy_unloaded():
    # both are slow to import: scipy only mask_to_boxes needs, numpy only synth and tubekit.imaging
    code = "import sys, tubekit.cli; print('scipy' in sys.modules, 'numpy' in sys.modules)"
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


def test_negative_clip_start_exits_2_naming_field(tmp_path, capsys):
    scores = tmp_path / "scores.jsonl"
    write_score_records(scores, [[1.0, 0.0]], starts=(-1,))
    assert run("fuse", str(scores), "--out", str(tmp_path / "predictions.jsonl")) == 2
    err = capsys.readouterr().err
    assert f"{scores}, line 1, field 'clip_start': negative clip_start -1" in err


def test_actionness_applies_softmax_once_per_run_of_frames(tmp_path, monkeypatch):
    from tubekit import cli, read_detections, read_scores

    calls = []
    real = cli.softmax

    def counting(v):
        calls.append(v)
        return real(v)

    monkeypatch.setattr(cli, "softmax", counting)
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
            # gaps between clips, duplicate starts and starts past the video's end
            for start in draw(st.lists(st.integers(0, 40), min_size=1, max_size=4)):
                for crop in draw(st.lists(st.sampled_from(CENTER_CROPS), min_size=1, max_size=2)):
                    values = draw(prob_vector(k) if kind == "prob"
                                  else st.lists(raw_value, min_size=k, max_size=k))
                    records.append({"video_id": vid, "stream": stream, "granularity": "net16",
                                    "clip_start": start, "crop_id": crop, "kind": kind,
                                    "values": values})
    mutation = draw(st.sampled_from([None, None, "number", "field"]))
    if mutation is not None:
        record = draw(st.sampled_from(records))
        if mutation == "number":
            record["values"][draw(st.integers(0, k - 1))] = draw(bad_number)
        else:
            record[draw(fields)] = draw(bad_field)
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
