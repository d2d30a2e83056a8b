"""Command-line pipeline: extract-tubes, fuse, actionness, evaluate, synth.

Each handler reads its files, makes one library call per video (one per
corpus for evaluate) and writes the results. Exit codes: 0 on success, 2
on input/parse errors, 3 on flag/validation errors. Machine-readable
results go to files; human-readable tables go to standard output.
--parallel N is accepted and range-checked, but every handler runs its
videos one after another: the per-video work is pure Python, which
threads cannot overlap, and a thread pool of 2 made extract-tubes and
fuse slower on the crowded benchmark corpus. So the output bytes are the
same at every N (assembly is sorted by video id).
"""
from __future__ import annotations

import argparse
import gc
import math
import sys
from dataclasses import fields
from pathlib import Path
from typing import NoReturn

from .errors import ParseError
from .evaluation import AP_METHOD, EvalConfig, video_map_rows
from .formats import (
    _real,
    _shown,
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
    ACTIONNESS_STREAMS,
    CROP_SCHEMES,
    FUSION_METHODS,
    GRANULARITIES,
    STREAMS,
    StreamScoreSet,
    fuse_video,
    temporal_localize,
    tube_actionness,
    video_actionness,
)
from .linking import ExtractionConfig, extract_tubes
from .synth import SynthConfig, generate_video

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


# synth holds --parallel videos in memory at once
_MAX_PARALLEL = 64


def _parallel(text: str) -> int:
    try:
        value = int(text)
    except ValueError:  # argparse's own text for a plain int flag
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
    if value < 1:
        raise argparse.ArgumentTypeError("must be >= 1")
    if value > _MAX_PARALLEL:
        raise argparse.ArgumentTypeError(f"must be <= {_MAX_PARALLEL}")
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


def _cmd_extract_tubes(args) -> int:
    cfg = _config(ExtractionConfig, args)
    videos = read_detections(args.detections)
    videos.sort(key=lambda d: d.video_id)
    rows = [(d.video_id, t) for d in videos for t in extract_tubes(d, cfg)]
    write_tubes(args.out, rows)
    return EXIT_OK


def _read_score_sets(path, keep=None) -> dict[tuple[str, str, str], StreamScoreSet]:
    """``read_scores``, with a file that holds no record, kept or not, as a parse error."""
    sets = read_scores(path, keep)
    if not sets:
        raise ParseError(path, message="no score records found")
    return sets


def _cmd_fuse(args) -> int:
    grans = [g.strip() for g in args.granularities.split(",") if g.strip()]
    _require(bool(grans), "--granularities must name at least one granularity")
    for g in grans:
        _require(g in GRANULARITIES, f"unknown granularity {g!r}")
    _require(len(set(grans)) == len(grans), "--granularities lists a granularity twice")
    # every record is checked, and only the entries fused here are built
    keep = {(args.stream, g, c) for g in grans for c in CROP_SCHEMES[args.crop_scheme]}
    sets = _read_score_sets(args.scores, keep)
    video_ids = sorted({vid for vid, _, _ in sets})

    def fuse_one(vid: str):
        groups = []
        for gran in grans:
            scores = sets.get((vid, args.stream, gran))
            units = [e.vector for e in scores.entries] if scores else []
            if not units:
                raise ParseError(
                    args.scores,
                    message=f"video {_shown(vid)} has no {args.stream}/{gran} scores for crop scheme {args.crop_scheme!r}",
                )
            groups.append(units)
        label, fused = fuse_video(groups, args.method)
        return vid, label, fused.values

    rows = [fuse_one(vid) for vid in video_ids]
    write_predictions(args.out, rows)
    return EXIT_OK


def _cmd_actionness(args) -> int:
    _require((args.detections is None) != (args.tubes is None),
             "exactly one of --detections and --tubes is required")
    _require(math.isfinite(args.threshold), "--threshold must be finite")
    _require(args.action_class >= 0, "--class must be >= 0")
    sets = _read_score_sets(args.scores)
    k = next(iter(sets.values())).k  # read_scores checks that K is the same file-wide
    _require(args.action_class < k, f"--class must be < {k} (class count of the scores file)")

    # per video: its frame count, the [start, stop) intervals where a human is present (frames
    # that hold boxes, or that a tube covers up to the last tube end) and the tube spans to sum
    if args.detections is not None:
        gates = {d.video_id: (d.length, [(f, f + 1) for f in d.frames], ()) for d in read_detections(args.detections)}
    else:
        tubes = {}
        for vid, span in read_tubes(args.tubes, boxes=False):  # a tube's span is all actionness reads
            tubes.setdefault(vid, []).append(span)
        gates = {vid: (max([s.end for s in spans]) + 1, [(s.start, s.end + 1) for s in spans], spans)
                 for vid, spans in tubes.items()}

    # every stream is looked up before --out is opened, so a missing one leaves no file
    videos = sorted(gates)
    for vid in videos:
        for stream in ACTIONNESS_STREAMS:
            if (vid, stream, args.granularity) not in sets:
                raise ParseError(
                    args.scores, message=f"missing stream {stream!r} ({args.granularity}) for video {_shown(vid)}"
                )

    def row(vid):
        # a video's series is a local here: it goes with the call, before the next video's
        length, present, spans = gates[vid]
        series = video_actionness([sets[vid, s, args.granularity] for s in ACTIONNESS_STREAMS],
                                  present, length, args.action_class)
        found = [(s.start, s.end) for s in temporal_localize(series, args.threshold)]
        sums = [tube_actionness(s, series) for s in spans]
        return vid, args.action_class, args.threshold, series, found, sums

    write_actionness(args.out, map(row, videos))
    return EXIT_OK


def _cmd_evaluate(args) -> int:
    try:
        cfg = EvalConfig(deltas=tuple(float(d) for d in args.deltas.split(",")))
    except ValueError as exc:
        raise _FlagError(f"bad --deltas: {exc}") from exc
    # matching reads each box's corners, so the reader builds no box
    preds = read_tubes(args.predictions, required=("label", "score"), boxes="corners")
    gts = read_tubes(args.gt, required=("label",), boxes="corners")
    report = video_map_rows(preds, gts, cfg)
    write_report(args.out, report)

    # each threshold as the report writes it, in a column wide enough for it and a space
    labels = [f"d={_real(d)}" for d in report.deltas]
    widths = [max(9, len(label) + 1) for label in labels]
    print("class".ljust(8) + "".join(label.ljust(w) for label, w in zip(labels, widths)))
    # video_map reports the same sorted classes at every threshold
    for results in zip(*(report.per_delta[d] for d in report.deltas)):
        print(str(results[0].label).ljust(8) + "".join(f"{r.ap:<{w}.4f}" for r, w in zip(results, widths)))
    print("mAP".ljust(8) + "".join(f"{report.map_by_delta[d]:<{w}.4f}" for d, w in zip(report.deltas, widths)))
    print(f"(AP: {AP_METHOD})")
    return EXIT_OK


def _cmd_synth(args) -> int:
    cfg = _config(SynthConfig, args)
    # The generator needs numpy, whose import leaves reference cycles (about 1 MB)
    # that only the collector frees, and main runs handlers with it off: import
    # numpy here and collect once, so that they do not stay until exit. With the
    # collector off nothing allocated since main began has left the young
    # generation, so a young collection frees them all, in about half the time.
    import numpy  # noqa: F401

    gc.collect(0)
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    with (
        open(out_dir / "detections.jsonl", "w", encoding="utf-8") as det_file,
        open(out_dir / "gt_tubes.jsonl", "w", encoding="utf-8") as gt_file,
        open(out_dir / "scores.jsonl", "w", encoding="utf-8") as scores_file,
    ):
        # videos are made --parallel at a time and written in order, so memory holds one batch
        for first in range(0, cfg.videos, args.parallel):
            batch = [generate_video(cfg, i) for i in range(first, min(first + args.parallel, cfg.videos))]
            for dets, gt, sets in batch:
                write_detections(det_file, [dets])
                write_tubes(gt_file, gt)
                write_scores(scores_file, sets)
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="tubekit", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)
    # accepted for every N in range, and run serially (see the module docstring)
    parallel = _Parser(add_help=False)
    parallel.add_argument("--parallel", type=_parallel, default=1)

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
    # No subcommand makes a reference cycle, so reference counting frees all
    # it allocates and the cyclic collector would only re-scan live objects;
    # tests/test_cli.py::test_subcommands_leave_no_cyclic_garbage checks this.
    gc_was_enabled = gc.isenabled()
    gc.disable()
    try:
        return args.handler(args)
    except _FlagError as exc:
        print(f"tubekit {args.command}: error: {exc}", file=sys.stderr)
        return EXIT_FLAGS
    except (ParseError, OSError) as exc:
        print(f"tubekit {args.command}: error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    finally:
        if gc_was_enabled:
            gc.enable()


def entry() -> NoReturn:
    """Run ``main`` on ``sys.argv`` and end the process with its exit code.

    ``python -m tubekit`` and the installed ``tubekit`` script both run
    this. Before exit it moves every live object into the collector's
    permanent generation (``gc.freeze``): interpreter shutdown still runs
    atexit hooks, flushes the streams and tears down the modules, but its
    full collections no longer scan the objects that the imports and the
    subcommand left alive, which took most of a subcommand's exit time.
    ``main`` itself does not freeze, so in-process callers keep their
    collector as it was.
    """
    code = main()
    gc.freeze()
    sys.exit(code)


if __name__ == "__main__":
    entry()
