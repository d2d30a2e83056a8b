"""Byte pins of the subcommand variants that the benchmark's digests leave out.

The benchmark pins `fuse` with mean/center/rgb/net16 and `actionness
--tubes` on synth's corpus. Here a small corpus drawn with
``random.Random(23).random()`` alone (numpy's streams may change between
versions) goes through `extract-tubes` at the default window and at
small windows, where each video's smoothed count has several runs,
`fuse` with every method, crop scheme and both one and three
granularities, `actionness` with either gate on raw and on prob score
sets, and `evaluate`; the sha256 of each output is pinned. The prob entries are multiples of 1/8, exact at 6
significant digits, so a written vector still sums to 1.

A second detections file, drawn from ``random.Random(31)``, misses every
person for stretches of 1-4 frames inside the tracks' spans, so
`extract-tubes` splits a region at frames that hold no box; it is pinned at
the default window and at window 9.
"""
import hashlib
import json
import random

import pytest

from tubekit.cli import main
from tubekit.count_signal import DetectionCountSeries
from tubekit.formats import read_detections
from tubekit.fusion import FIXED_CROPS, FUSION_METHODS, GRANULARITIES, STREAMS

K = 3
VIDEOS = ("g0", "g1", "g2")


def _prob_vector(rnd, label):
    """Eighths that sum to 1, the largest share on ``label`` more often than not."""
    a = int(rnd() * 9)
    b = int(rnd() * (9 - a))
    counts = [a, b, 8 - a - b]
    if rnd() < 0.6:
        top = counts.index(max(counts))
        counts[top], counts[label] = counts[label], counts[top]
    return [c / 8 for c in counts]


def _write_corpus(root):
    rnd = random.Random(23).random
    detections, gt, raw, prob = [], [], [], []
    for v, vid in enumerate(VIDEOS):
        label = v % K
        frames = 40 + 8 * v
        tracks = []
        for p in range(2):
            x, y = 20 + 70 * p + 10 * rnd(), 20 + 10 * rnd()
            w, h = 30 + 10 * rnd(), 60 + 20 * rnd()
            dx = 2 * rnd() - 1
            start, end = int(5 * rnd()), frames - 1 - int(5 * rnd())
            boxes = {f: [x + dx * f, y, x + dx * f + w, y + h] for f in range(start, end + 1)}
            tracks.append(boxes)
            gt.append({"video_id": vid, "label": label, "start": start, "end": end,
                       "boxes": [boxes[f] for f in range(start, end + 1)]})
        for f in range(frames):
            boxes = []
            for track in tracks:
                if f in track and rnd() > 0.1:  # a missed detection otherwise
                    x1, y1, x2, y2 = (c + rnd() - 0.5 for c in track[f])
                    boxes.append({"x1": x1, "y1": y1, "x2": x2, "y2": y2, "score": rnd()})
            if rnd() < 0.15:  # a false positive
                x1, y1 = 200 * rnd(), 100 * rnd()
                boxes.append({"x1": x1, "y1": y1, "x2": x1 + 5 + 20 * rnd(), "y2": y1 + 5 + 20 * rnd()})
            # an empty frame has an empty line or no line at all
            if boxes or rnd() < 0.5 or f == frames - 1:
                detections.append({"video_id": vid, "frame": f, "boxes": boxes})
        # clips every 8 frames, one start left out: its frames take the nearest clips
        skipped = 8 * int(1 + 2 * rnd())
        starts = [s for s in range(0, frames - 8, 8) if s != skipped]
        for stream in STREAMS:
            for gran in GRANULARITIES:
                for start in reversed(starts):
                    for crop in FIXED_CROPS:
                        key = {"video_id": vid, "stream": stream, "granularity": gran,
                               "clip_start": start, "crop_id": crop}
                        values = [4 * rnd() - 2 + (2.5 if c == label else 0.0) for c in range(K)]
                        raw.append({**key, "kind": "raw", "values": values})
                        prob.append({**key, "kind": "prob", "values": _prob_vector(rnd, label)})
    for name, records in (("detections", detections), ("gt", gt), ("scores_raw", raw), ("scores_prob", prob)):
        (root / f"{name}.jsonl").write_text("".join(json.dumps(r) + "\n" for r in records))
    _write_missed(root)


def _write_missed(root):
    """missed.jsonl: two tracks a video, every person missed for 1-4 frames now and then."""
    rnd = random.Random(31).random
    records = []
    for v, vid in enumerate(VIDEOS):
        frames = 48 + 8 * v
        tracks = []
        for p in range(2):
            x, y, w, h = 20 + 70 * p + 10 * rnd(), 20 + 10 * rnd(), 30 + 10 * rnd(), 60 + 20 * rnd()
            # the second person enters later, so a window of 9 counts one person first
            start, end = 12 * p + int(4 * rnd()), frames - 1 - int(4 * rnd())
            tracks.append((start, end, [x, y, x + w, y + h]))
        missed = 0  # frames left in the stretch where every person is missed
        for f in range(frames):
            if missed == 0 and rnd() < 0.1:
                missed = 1 + int(4 * rnd())
            boxes = []
            if missed:
                missed -= 1
            else:
                for start, end, corners in tracks:
                    if start <= f <= end and rnd() > 0.05:
                        x1, y1, x2, y2 = (c + 2 * rnd() - 1 for c in corners)
                        boxes.append({"x1": x1, "y1": y1, "x2": x2, "y2": y2, "score": rnd()})
                if rnd() < 0.1:  # a false positive
                    x1, y1 = 200 * rnd(), 100 * rnd()
                    boxes.append({"x1": x1, "y1": y1, "x2": x1 + 5 + 20 * rnd(), "y2": y1 + 5 + 20 * rnd()})
            if boxes or f == frames - 1:
                records.append({"video_id": vid, "frame": f, "boxes": boxes})
    (root / "missed.jsonl").write_text("".join(json.dumps(r) + "\n" for r in records))


def _runs():
    """(output name, argv) of every pinned run, in an order where inputs come first."""
    yield "tubes", ["extract-tubes", "detections.jsonl", "--out", "tubes.jsonl"]
    # small windows smooth each video into several runs of counts, so padding reads more than one run
    yield "tubes-w3-len2", ["extract-tubes", "detections.jsonl", "--median-window", "3", "--min-tube-len", "2",
                            "--out", "tubes-w3-len2.jsonl"]
    yield "tubes-w9", ["extract-tubes", "detections.jsonl", "--median-window", "9", "--out", "tubes-w9.jsonl"]
    yield "tubes-missed", ["extract-tubes", "missed.jsonl", "--out", "tubes-missed.jsonl"]
    yield "tubes-missed-w9", ["extract-tubes", "missed.jsonl", "--median-window", "9",
                              "--out", "tubes-missed-w9.jsonl"]
    for kind in ("raw", "prob"):
        scores = f"scores_{kind}.jsonl"
        for method in FUSION_METHODS:
            for scheme in ("center", "fixed"):
                for grans in ("net16", "net16,net32,netW"):
                    name = f"fuse-{kind}-{method}-{scheme}-{grans.replace(',', '+')}"
                    yield name, ["fuse", scores, "--method", method, "--crop-scheme", scheme,
                                 "--granularities", grans, "--out", f"{name}.jsonl"]
        for gate in ("detections", "tubes"):
            name = f"actionness-{kind}-{gate}"
            yield name, ["actionness", "--scores", scores, f"--{gate}", f"{gate}.jsonl",
                         "--class", "1", "--threshold", "0.1", "--out", f"{name}.jsonl"]
    yield "labeled", None
    yield "report", ["evaluate", "labeled.jsonl", "gt.jsonl", "--out", "report.jsonl"]


def _label_tubes(root):
    """tubes.jsonl with each tube labeled by the raw mean fusion, as the pipeline script does."""
    labels = {}
    for line in (root / "fuse-raw-mean-center-net16.jsonl").read_text().splitlines():
        row = json.loads(line)
        labels[row["video_id"]] = row["label"]
    lines = []
    for line in (root / "tubes.jsonl").read_text().splitlines():
        record = json.loads(line)
        record["label"] = labels[record["video_id"]]
        lines.append(json.dumps(record, separators=(",", ":")) + "\n")
    (root / "labeled.jsonl").write_text("".join(lines))


@pytest.fixture(scope="module")
def digests(tmp_path_factory):
    root = tmp_path_factory.mktemp("golden")
    _write_corpus(root)
    out = {}
    for name, argv in _runs():
        if argv is None:
            _label_tubes(root)
        else:
            argv = [str(root / a) if a.endswith(".jsonl") else a for a in argv]
            assert main(argv) == 0, name
        out[name] = hashlib.sha256((root / f"{name}.jsonl").read_bytes()).hexdigest()
    return out


# sha256 of each output: a digest that changes is a change in what a subcommand writes
DIGESTS = {
    "tubes": "a4642f960fbe1246f07e945c42ac00ef9637af4a680e1d6598d50e90a9609832",
    "tubes-w3-len2": "5dae9848f248373e2a40595382336439f2fbb89efc0ae36da76daccf7a17d9ac",
    "tubes-w9": "309a3349b3be4bccc981c4224f88218053b6875371ee3032ce1381b97f7bcbfe",
    "tubes-missed": "d6ffe8afd110bb7bb320bce4ed9740db2fae18ed4826c9a4cbadf1dcb65ea844",
    "tubes-missed-w9": "03ae08dcc3e54f4aa3451da14a8d80aaf8324856145eb1e27c816aadf804bf0c",
    "fuse-raw-mean-center-net16": "e9a23e72d2598beb5983e3becbfb61bd5f70a6e764f84262b2b37bcce66b175d",
    "fuse-raw-mean-center-net16+net32+netW": "b460f0d613abd80bc1cf92db10eaa15d421ef526853416f9e3ac2aaba2864391",
    "fuse-raw-mean-fixed-net16": "69cda97ebbf7138e0a4437984acd2b91556a723ab9ad4e13a74d88d86d883a58",
    "fuse-raw-mean-fixed-net16+net32+netW": "6f5d9bd3dad5a3a8eca31fe04fe77cf041b2da4abfc941a5bc8d178056f37b2f",
    "fuse-raw-max-center-net16": "e49737967b6ac632c35557fcbd1622da4bf2b8cd1130fc6a7a859a6c0937bb72",
    "fuse-raw-max-center-net16+net32+netW": "eec2107a0ba43a370d3f5de0860c581cc6cb3696534302f4f5bf365768812648",
    "fuse-raw-max-fixed-net16": "e03cb36ad77ff74b31938156dd83bae81676e68c178fd1fb1387af136e5789a3",
    "fuse-raw-max-fixed-net16+net32+netW": "ea5a0567cb50a76be4405a9df89ae031d10c698df713370343e36c5033f87cd9",
    "fuse-raw-majority-center-net16": "452bc5306ce6451858107e72b6553db9796d1a046546ef411e27aa05c63038df",
    "fuse-raw-majority-center-net16+net32+netW": "3a40cc1ca02c01eb3aa0fd8c050181b642bf5bcf98a28cfa456d15ba7b99918a",
    "fuse-raw-majority-fixed-net16": "fb775d3d91019bd1f7f4865337179011d3d5fd6560678b1b17758128fbb605f1",
    "fuse-raw-majority-fixed-net16+net32+netW": "0074277cae96a7f2fe6c39d94043c85f75ccbd4e2509a699d0ed4ef220520de3",
    "actionness-raw-detections": "18d32771fbf18fd5ae3a97a123d7385288f67571a644b2e9d6e2804efb9afe46",
    "actionness-raw-tubes": "cce813bdb1bbaea0b431e8f5b59d919109e3bec2423f977c14f0c639c0da8c68",
    "fuse-prob-mean-center-net16": "ce54081fa3f6625bbbd7b2b5626cf1bfc81847db2d4ee5f67233ef6cfa48aa27",
    "fuse-prob-mean-center-net16+net32+netW": "96732539255ba604df0b21522cdf918e11f7111cbac17413217ef0605c58be06",
    "fuse-prob-mean-fixed-net16": "22f3b06818c378d191a8c8cff7c9cfa9d30c71944edd8c2bffb05f171a1b2c32",
    "fuse-prob-mean-fixed-net16+net32+netW": "4356eb0b2561c112551695b5bebd030c24f5b62b0d434338b761ce02f876a583",
    "fuse-prob-max-center-net16": "c7536e57ff3e18f4e557048890f424dc920f2e15069b35ea3801225ceda5c892",
    "fuse-prob-max-center-net16+net32+netW": "44775520d05e578063bd5effddbfd7112546841723c48142225057cbb17ac652",
    "fuse-prob-max-fixed-net16": "96b9b046e7a2a53ff5412a3f2fe17907d8ed34f58a5b10a6e7425ee2130168b7",
    "fuse-prob-max-fixed-net16+net32+netW": "09026fd09d7553d9a9bfa20c4445fa7d80ce0314abf107d52853895e85f072bb",
    "fuse-prob-majority-center-net16": "2cb06e64ee20da79f384afdaf8375c38bcc399720180428d3f377a09e82bb300",
    "fuse-prob-majority-center-net16+net32+netW": "81f52d056920f854b67d1bba68974b724662886dfaef213555b139c565933bd2",
    "fuse-prob-majority-fixed-net16": "23bbdc439ab8259ad4ca8a21a065c7e2c7c7805040f759b4a69c5a604bb87a13",
    "fuse-prob-majority-fixed-net16+net32+netW": "868b30001bc9e10cdc854d6a66963547bb58f5c331527320927647ad166ab2ba",
    "actionness-prob-detections": "4743648b7d701dfd646b09b6079b946e2fbf5e6f2e13601f97e9e9ffd0c2bec6",
    "actionness-prob-tubes": "b5a01509c15819259db4ece3d8c32f2de53dc9adc02fcd5257bd60e06a4d6922",
    "labeled": "3f6287fda0e1ac2a5d50f99d42e2243043a44a51e5760a4a365b0a753f5bcc34",
    "report": "9014884128e660629402d7fe6dc901d6928b45fd5d50b480809f5398773c8f92",
}


@pytest.mark.parametrize("window", [80, 9])
def test_missed_frames_lie_inside_regions(tmp_path, window):
    """missed.jsonl holds frames with no box between two that hold boxes, in one region."""
    _write_missed(tmp_path)
    interior = 0
    for dets in read_detections(tmp_path / "missed.jsonl"):
        for region in DetectionCountSeries.from_detections(dets, window).regions():
            held = [f for f in region.frames() if f in dets.frames]
            interior += sum(f not in dets.frames for f in range(held[0], held[-1] + 1)) if held else 0
    assert interior >= 10


def test_every_output_is_pinned(digests):
    assert sorted(digests) == sorted(DIGESTS)


@pytest.mark.parametrize("name", sorted(DIGESTS))
def test_output_bytes(digests, name):
    assert digests[name] == DIGESTS[name]
