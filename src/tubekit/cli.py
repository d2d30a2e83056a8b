"""Command-line pipeline: extract-tubes, fuse, actionness, evaluate, synth.

Exit codes: 0 on success, 2 on input/parse errors, 3 on flag/validation
errors. Machine-readable results go to files; human-readable tables go to
standard output. Per-video work items are independent, so --parallel N
changes wall time but never the output bytes (assembly is sorted by
video id).
"""
from __future__ import annotations

import argparse
import math
import sys
from concurrent.futures import ThreadPoolExecutor
from dataclasses import fields
from pathlib import Path

from .errors import ParseError
from .evaluation import AP_METHOD, EvalConfig, video_map
from .formats import (
    read_detections,
    read_scores,
    read_tubes,
    write_actionness,
    write_detections,
    write_predictions,
    write_report,
    write_scores,
    write_tubes,
)
from .fusion import (
    CROP_SCHEMES,
    FUSION_METHODS,
    GRANULARITIES,
    STREAMS,
    StreamScoreSet,
    aggregate_video,
    compose_actionness,
    frame_scores_from_clips,
    multigranular_fuse,
    softmax,
    temporal_localize,
    tube_actionness,
)
from .linking import ExtractionConfig, extract_tubes
from .synth import SynthConfig, generate_video

# compose_actionness takes the per-frame probabilities in this order
_ACTIONNESS_STREAMS = ("pose", "rgb", "flow")

EXIT_OK = 0
EXIT_INPUT = 2
EXIT_FLAGS = 3


class _FlagError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    # argparse exits 2 on bad flags by default; flag errors are exit 3 here
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_FLAGS, f"{self.prog}: error: {message}\n")


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise _FlagError(message)


def _positive_int(text: str) -> int:
    try:
        value = int(text)
    except ValueError:  # argparse's own text for a plain int flag
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
    if value < 1:
        raise argparse.ArgumentTypeError("must be >= 1")
    return value


def _add_config_flags(parser: argparse.ArgumentParser, config_type) -> None:
    """One flag per field of a config dataclass: ``min_tube_len`` is ``--min-tube-len``."""
    for f in fields(config_type):
        parser.add_argument("--" + f.name.replace("_", "-"), type=type(f.default), default=f.default)


def _config(config_type, args):
    """The config named by the flags; its own checks are the flag checks."""
    try:
        return config_type(**{f.name: getattr(args, f.name) for f in fields(config_type)})
    except ValueError as exc:
        raise _FlagError(str(exc)) from exc


def _pmap(fn, items, workers: int):
    if workers <= 1 or len(items) <= 1:
        return [fn(x) for x in items]
    with ThreadPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(fn, items))


def _cmd_extract_tubes(args) -> int:
    cfg = _config(ExtractionConfig, args)
    videos = read_detections(args.detections)
    videos.sort(key=lambda d: d.video_id)
    per_video = _pmap(lambda d: extract_tubes(d, cfg), videos, args.parallel)
    rows = [(d.video_id, t) for d, tubes in zip(videos, per_video) for t in tubes]
    write_tubes(args.out, rows)
    return EXIT_OK


def _cmd_fuse(args) -> int:
    grans = [g.strip() for g in args.granularities.split(",") if g.strip()]
    _require(bool(grans), "--granularities must name at least one granularity")
    for g in grans:
        _require(g in GRANULARITIES, f"unknown granularity {g!r}")
    _require(len(set(grans)) == len(grans), "--granularities lists a granularity twice")
    crops = CROP_SCHEMES[args.crop_scheme]
    sets = read_scores(args.scores)
    video_ids = sorted({vid for vid, _, _ in sets})
    if not video_ids:
        raise ParseError(args.scores, message="no score records found")

    def fuse_one(vid: str):
        fused_per_gran = []
        label = None
        for gran in grans:
            scores = sets.get((vid, args.stream, gran))
            units = [e.vector for e in scores.entries if e.crop_id in crops] if scores else []
            if not units:
                raise ParseError(
                    args.scores,
                    message=f"video {vid!r} has no {args.stream}/{gran} scores for crop scheme {args.crop_scheme!r}",
                )
            label, fused = aggregate_video(units, args.method)
            fused_per_gran.append(fused)
        if len(fused_per_gran) > 1:
            final = multigranular_fuse(fused_per_gran)
            label = final.argmax()
        else:
            final = fused_per_gran[0]
        return vid, label, final.values

    rows = _pmap(fuse_one, video_ids, args.parallel)
    write_predictions(args.out, rows)
    return EXIT_OK


def _frame_probs(scores: StreamScoreSet, length: int, cls: int) -> list[float]:
    # a run of frames shares one vector object, so softmax once per run
    probs = []
    prev = p = None
    for vec in frame_scores_from_clips(scores, length):
        if vec is not prev:
            prev = vec
            p = (softmax(vec) if vec.kind == "raw" else vec).values[cls]
        probs.append(p)
    return probs


def _cmd_actionness(args) -> int:
    _require((args.detections is None) != (args.tubes is None),
             "exactly one of --detections and --tubes is required")
    _require(math.isfinite(args.threshold), "--threshold must be finite")
    _require(args.action_class >= 0, "--class must be >= 0")
    sets = read_scores(args.scores)
    if not sets:
        raise ParseError(args.scores, message="no score records found")
    k = next(iter(sets.values())).k  # read_scores checks that K is the same file-wide
    _require(args.action_class < k, f"--class must be < {k} (class count of the scores file)")

    # human-presence gate per video: either detection boxes or tube coverage
    gates: dict[str, list[bool]] = {}
    tubes_by_video: dict[str, list] = {}
    if args.detections is not None:
        for dets in read_detections(args.detections):
            gates[dets.video_id] = [len(dets.boxes_on(f)) > 0 for f in range(dets.length)]
    else:
        for vid, tube in read_tubes(args.tubes):
            tubes_by_video.setdefault(vid, []).append(tube)
        for vid, tubes in tubes_by_video.items():
            human = [False] * (max(t.span.end for t in tubes) + 1)
            for tube in tubes:
                for f in tube.span.frames():
                    human[f] = True
            gates[vid] = human

    # every stream is looked up before --out is opened, so a missing one leaves no file
    videos = sorted(gates)
    for vid in videos:
        for stream in _ACTIONNESS_STREAMS:
            if (vid, stream, args.granularity) not in sets:
                raise ParseError(
                    args.scores, message=f"missing stream {stream!r} ({args.granularity}) for video {vid!r}"
                )

    def rows():
        # one video's per-frame lists at a time: they grow with its last frame
        for vid in videos:
            human = gates.pop(vid)
            probs = [
                _frame_probs(sets[vid, stream, args.granularity], len(human), args.action_class)
                for stream in _ACTIONNESS_STREAMS
            ]
            series = compose_actionness(*probs, human)
            spans = [(s.start, s.end) for s in temporal_localize(series, args.threshold)]
            sums = [tube_actionness(t, series) for t in tubes_by_video.get(vid, [])]
            yield vid, args.action_class, args.threshold, series, spans, sums

    write_actionness(args.out, rows())
    return EXIT_OK


def _cmd_evaluate(args) -> int:
    try:
        deltas = tuple(float(d) for d in args.deltas.split(","))
        cfg = EvalConfig(deltas=deltas)
    except ValueError as exc:
        raise _FlagError(f"bad --deltas: {exc}") from exc
    preds = read_tubes(args.predictions, required=("label", "score"))
    gts = read_tubes(args.gt, required=("label",))
    report = video_map(preds, gts, cfg)
    write_report(args.out, report)

    header = "class".ljust(8) + "".join(f"d={d:<8g}"[:9].ljust(9) for d in report.deltas)
    print(header)
    # video_map reports the same sorted classes at every threshold
    for results in zip(*(report.per_delta[d] for d in report.deltas)):
        print(str(results[0].label).ljust(8) + "".join(f"{r.ap:<9.4f}" for r in results))
    print("mAP".ljust(8) + "".join(f"{report.map_by_delta[d]:<9.4f}" for d in report.deltas))
    print(f"(AP: {AP_METHOD})")
    return EXIT_OK


def _cmd_synth(args) -> int:
    cfg = _config(SynthConfig, args)
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    with (
        open(out_dir / "detections.jsonl", "w", encoding="utf-8") as det_file,
        open(out_dir / "gt_tubes.jsonl", "w", encoding="utf-8") as gt_file,
        open(out_dir / "scores.jsonl", "w", encoding="utf-8") as scores_file,
    ):
        # videos are made --parallel at a time and written in order, so memory holds one batch
        for first in range(0, cfg.videos, args.parallel):
            batch = range(first, min(first + args.parallel, cfg.videos))
            for dets, gt, sets in _pmap(lambda i: generate_video(cfg, i), batch, args.parallel):
                write_detections(det_file, [dets])
                write_tubes(gt_file, gt)
                write_scores(scores_file, sets)
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="tubekit", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)
    # per-video work items spread over this many threads
    parallel = _Parser(add_help=False)
    parallel.add_argument("--parallel", type=_positive_int, default=1)

    p = sub.add_parser("extract-tubes", parents=[parallel], help="link detections into action tubes")
    p.add_argument("detections", help="detections file (JSON lines)")
    p.add_argument("--out", required=True, help="output tubes file")
    _add_config_flags(p, ExtractionConfig)
    p.set_defaults(handler=_cmd_extract_tubes)

    p = sub.add_parser("fuse", parents=[parallel], help="fuse clip scores into per-video predictions")
    p.add_argument("scores", help="scores file (JSON lines)")
    p.add_argument("--out", required=True, help="output predictions file")
    p.add_argument("--method", choices=FUSION_METHODS, default="mean")
    p.add_argument("--crop-scheme", choices=sorted(CROP_SCHEMES), default="center")
    p.add_argument("--stream", choices=STREAMS, default="rgb")
    p.add_argument("--granularities", default="net16",
                   help="comma-separated subset of net16,net32,netW to average")
    p.set_defaults(handler=_cmd_fuse)

    p = sub.add_parser("actionness", help="per-frame actionness, spans and tube sums")
    p.add_argument("--scores", required=True)
    p.add_argument("--detections", help="detections file; frames with a box count as human-present")
    p.add_argument("--tubes", help="tubes file; alternative human gate and per-tube sums")
    p.add_argument("--class", dest="action_class", type=int, required=True)
    p.add_argument("--threshold", type=float, required=True)
    p.add_argument("--granularity", choices=GRANULARITIES, default="net16")
    p.add_argument("--out", required=True)
    p.set_defaults(handler=_cmd_actionness)

    p = sub.add_parser("evaluate", help="video-mAP of predicted tubes against ground truth")
    p.add_argument("predictions", help="predicted tubes file")
    p.add_argument("gt", help="ground-truth tubes file")
    p.add_argument("--deltas", default=",".join(map(str, EvalConfig.deltas)))
    p.add_argument("--out", required=True, help="output report file")
    p.set_defaults(handler=_cmd_evaluate)

    p = sub.add_parser("synth", parents=[parallel], help="generate a synthetic corpus with known ground truth")
    p.add_argument("--out-dir", required=True)
    _add_config_flags(p, SynthConfig)
    p.set_defaults(handler=_cmd_synth)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else EXIT_FLAGS
    try:
        return args.handler(args)
    except _FlagError as exc:
        print(f"tubekit {args.command}: error: {exc}", file=sys.stderr)
        return EXIT_FLAGS
    except (ParseError, OSError) as exc:
        print(f"tubekit {args.command}: error: {exc}", file=sys.stderr)
        return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
