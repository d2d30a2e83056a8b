"""Traced in-process run: per-layer metrics from spans around tubekit's functions.

The pipeline runs in this process through ``tubekit.cli.main`` with
``--parallel 1``, alternating an untraced round and a traced round. Times
are medians over the traced rounds; counts must repeat exactly in every
traced round. The untraced rounds give the tracing overhead.
"""
from __future__ import annotations

import math
import os
import statistics
import subprocess
import sys
from pathlib import Path
from time import monotonic

from pipeline import STEPS, InProcessRunner, Pipeline
from tracer import Tracer, self_times

MIN_PAIRS = 2
IMPORT_REPEATS = 5

# (span name, module, attribute, record args and result)
FUNCTIONS = (
    ("cli.extract_tubes", "cli", "_cmd_extract_tubes", False),
    ("cli.fuse", "cli", "_cmd_fuse", False),
    ("cli.evaluate", "cli", "_cmd_evaluate", False),
    ("cli.actionness", "cli", "_cmd_actionness", False),
    ("cli.synth", "cli", "_cmd_synth", False),
    ("formats.read_detections", "formats", "read_detections", True),
    ("formats.read_scores", "formats", "read_scores", True),
    ("formats.read_tubes", "formats", "read_tubes", True),
    ("formats.write_detections", "formats", "write_detections", True),
    ("formats.write_scores", "formats", "write_scores", True),
    ("formats.write_tubes", "formats", "write_tubes", True),
    ("formats.write_predictions", "formats", "write_predictions", True),
    ("formats.write_report", "formats", "write_report", True),
    ("formats.write_actionness", "formats", "write_actionness", True),
    ("count_signal.pad_detections", "count_signal", "pad_detections", True),
    ("linking.extract_tubes", "linking", "extract_tubes", True),
    ("linking.viterbi_link", "linking", "viterbi_link", True),
    ("geometry.tube_iou", "geometry", "tube_iou", True),
    ("evaluation.video_map", "evaluation", "video_map", False),
    ("fusion.aggregate_video", "fusion", "aggregate_video", False),
    ("fusion.multigranular_fuse", "fusion", "multigranular_fuse", False),
    ("fusion.frame_scores_from_clips", "fusion", "frame_scores_from_clips", False),
    ("fusion.softmax", "fusion", "softmax", True),
    ("fusion.compose_actionness", "fusion", "compose_actionness", False),
    ("fusion.temporal_localize", "fusion", "temporal_localize", False),
    ("fusion.tube_actionness", "fusion", "tube_actionness", False),
    ("synth.generate_video", "synth", "generate_video", False),
)

# per-layer metric -> unit
UNITS = {
    "linking.extract_s": "s", "linking.viterbi_s": "s", "linking.viterbi_calls": "count",
    "linking.bookkeeping_s": "s", "linking.tubes": "count", "linking.video_p50_ms": "ms",
    "linking.video_p95_ms": "ms", "linking.iou_evals": "count", "linking.iou_distinct_ratio": "ratio",
    "count_signal.smooth_s": "s", "count_signal.pad_s": "s", "count_signal.boxes_padded": "count",
    "formats.read_detections_s": "s", "formats.read_scores_s": "s", "formats.read_tubes_s": "s",
    "formats.write_s": "s", "formats.bytes_read": "bytes", "formats.bytes_written": "bytes",
    "geometry.tube_iou_calls": "count", "geometry.tube_iou_s": "s",
    "evaluation.video_map_s": "s", "evaluation.match_s": "s", "evaluation.iou_distinct_ratio": "ratio",
    "fusion.aggregate_s": "s", "fusion.frame_scores_s": "s", "fusion.softmax_calls": "count",
    "fusion.softmax_s": "s", "fusion.softmax_distinct_ratio": "ratio", "fusion.compose_s": "s",
    "cli.import_s": "s", "cli.fuse_self_s": "s", "cli.actionness_self_s": "s",
    "synth.generate_s": "s", "synth.write_s": "s", "trace.overhead_ratio": "ratio",
}
# metrics that must repeat exactly, in every traced round and every run
EXACT = frozenset(
    name for name, unit in UNITS.items() if unit in ("count", "bytes") or name.endswith("_distinct_ratio")
)


def install(tracer: Tracer, tubekit_modules: dict) -> None:
    for name, module, attr, record in FUNCTIONS:
        tracer.install(name, tubekit_modules[module], attr, record)
    tracer.install_classmethod(
        "count_signal.from_detections",
        tubekit_modules["count_signal"].DetectionCountSeries, "from_detections",
    )


def _sums(spans, own, first: int, last: int):
    total: dict[str, float] = {}
    self_total: dict[str, float] = {}
    count: dict[str, int] = {}
    durations: dict[str, list[float]] = {}
    for i in range(first, last):
        s = spans[i]
        total[s.name] = total.get(s.name, 0.0) + s.duration
        self_total[s.name] = self_total.get(s.name, 0.0) + own[i]
        count[s.name] = count.get(s.name, 0) + 1
        durations.setdefault(s.name, []).append(s.duration)
    return total, self_total, count, durations


def _nearest_rank(values: list[float], q: float) -> float:
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def round_metrics(tracer: Tracer, first: int, last: int, distinct: bool) -> dict[str, float]:
    """Per-layer metrics of the spans ``first:last`` of one traced round."""
    spans = tracer.spans
    total, own_total, count, durations = _sums(spans, self_times(spans), first, last)

    def t(*names: str) -> float:
        return sum(total.get(n, 0.0) for n in names)

    calls = {name: [] for name, *_ in FUNCTIONS}
    for i in range(first, last):
        if i in tracer.calls:
            calls[spans[i].name].append((i, *tracer.calls[i]))

    problems = [(i, args[0]) for i, args, _ in calls["linking.viterbi_link"]]
    iou_evals = sum(
        len(p.candidates[k - 1]) * len(p.candidates[k])
        for _, p in problems for k in range(1, len(p.candidates))
    )
    extract = durations.get("linking.extract_tubes", [0.0])
    reads = {n: t("formats." + n) for n in ("read_detections", "read_scores", "read_tubes")}
    m = {
        "linking.extract_s": t("linking.extract_tubes"),
        "linking.viterbi_s": t("linking.viterbi_link"),
        "linking.viterbi_calls": count.get("linking.viterbi_link", 0),
        "linking.bookkeeping_s": own_total.get("linking.extract_tubes", 0.0),
        "linking.tubes": sum(len(result) for _, _, result in calls["linking.extract_tubes"]),
        "linking.video_p50_ms": statistics.median(extract) * 1000.0,
        "linking.video_p95_ms": _nearest_rank(extract, 0.95) * 1000.0,
        "linking.iou_evals": iou_evals,
        "count_signal.smooth_s": t("count_signal.from_detections"),
        "count_signal.pad_s": t("count_signal.pad_detections"),
        "count_signal.boxes_padded": sum(
            result.total_boxes() - args[0].total_boxes()
            for _, args, result in calls["count_signal.pad_detections"]
        ),
        "formats.read_detections_s": reads["read_detections"],
        "formats.read_scores_s": reads["read_scores"],
        "formats.read_tubes_s": reads["read_tubes"],
        "formats.write_s": sum(v for n, v in total.items() if n.startswith("formats.write_")),
        "formats.bytes_read": sum(
            os.path.getsize(args[0]) for n, rows in calls.items() if n.startswith("formats.read_")
            for _, args, _ in rows
        ),
        "formats.bytes_written": sum(
            os.path.getsize(args[0]) for n, rows in calls.items() if n.startswith("formats.write_")
            for _, args, _ in rows
        ),
        "geometry.tube_iou_calls": count.get("geometry.tube_iou", 0),
        "geometry.tube_iou_s": t("geometry.tube_iou"),
        "evaluation.video_map_s": t("evaluation.video_map"),
        "evaluation.match_s": own_total.get("evaluation.video_map", 0.0),
        "fusion.aggregate_s": t("fusion.aggregate_video", "fusion.multigranular_fuse"),
        "fusion.frame_scores_s": t("fusion.frame_scores_from_clips"),
        "fusion.softmax_calls": count.get("fusion.softmax", 0),
        "fusion.softmax_s": t("fusion.softmax"),
        "fusion.compose_s": t("fusion.compose_actionness", "fusion.temporal_localize",
                              "fusion.tube_actionness"),
        "cli.fuse_self_s": own_total.get("cli.fuse", 0.0),
        "cli.actionness_self_s": own_total.get("cli.actionness", 0.0),
    }
    if distinct:
        m.update(_distinct_ratios(spans, tracer.calls, problems, iou_evals, calls))
    return m


def _distinct_ratios(spans, recorded, problems, iou_evals, calls) -> dict[str, float]:
    """Distinct inputs ÷ calls, for the IoU in linking, tube_iou and softmax."""
    pairs = set()
    for i, p in problems:
        video = recorded[spans[i].parent][0][0].video_id
        cands = p.candidates
        for k in range(1, len(cands)):
            pairs.update((video, a, b) for a in cands[k - 1] for b in cands[k])
    ious = calls["geometry.tube_iou"]
    tube_pairs = {(id(args[0]), id(args[1])) for _, args, _ in ious}
    soft = calls["fusion.softmax"]
    vectors = {args[0].values for _, args, _ in soft}
    return {
        "linking.iou_distinct_ratio": len(pairs) / iou_evals if iou_evals else 1.0,
        "evaluation.iou_distinct_ratio": len(tube_pairs) / len(ious) if ious else 1.0,
        "fusion.softmax_distinct_ratio": len(vectors) / len(soft) if soft else 1.0,
    }


def import_seconds(root: Path) -> list[float]:
    """Fresh-process time of ``import tubekit.cli``, interpreter start excluded."""
    code = "import time; t = time.perf_counter(); import tubekit.cli; print(time.perf_counter() - t)"
    env = dict(os.environ, PYTHONPATH=str(root / "src"))
    times = []
    for _ in range(IMPORT_REPEATS):
        out = subprocess.run([sys.executable, "-c", code], cwd=root, env=env, check=True,
                             stdin=subprocess.DEVNULL, capture_output=True, text=True)
        times.append(float(out.stdout))
    return times


def traced_run(root: Path, pipe: Pipeline, seconds: float, spans_out: Path):
    """Returns (per-layer metrics, traced rounds) and checks every output like the timed run."""
    src = (root / "src").resolve()
    sys.path.insert(0, str(src))
    import tubekit.cli

    if Path(tubekit.cli.__file__).resolve().parent.parent != src:
        raise RuntimeError(f"imported tubekit from {tubekit.cli.__file__}, not from {src}")
    modules = {name.split(".")[-1]: mod for name, mod in sys.modules.items()
               if name.startswith("tubekit.") and mod is not None}
    runner = InProcessRunner(tubekit.cli.main)
    tracer = Tracer()

    def run_traced(run_id: str, steps) -> tuple[float, int, int]:
        tracer.run_id = run_id
        first = len(tracer.spans)
        install(tracer, modules)
        try:
            wall = sum(pipe.step(runner, s).wall for s in steps)
        finally:
            tracer.uninstall()
        return wall, first, len(tracer.spans)

    _, first, last = run_traced("setup", ["synth"])
    spans = tracer.spans
    setup_total = _sums(spans, self_times(spans), first, last)[0]
    setup = {
        "synth.generate_s": setup_total.get("synth.generate_video", 0.0),
        "synth.write_s": sum(v for n, v in setup_total.items() if n.startswith("formats.write_")),
    }
    tracer.calls.clear()

    untraced_walls, traced_walls, rounds = [], [], []
    start = monotonic()
    last_pair = 0.0
    # like the timed run: a pair starts while it is expected to end by half its length past the deadline
    while not pipe.failures and (len(rounds) < MIN_PAIRS or monotonic() - start + last_pair / 2 < seconds):
        pair_start = monotonic()
        untraced_walls.append(sum(pipe.step(runner, s).wall for s in STEPS))
        wall, first, last = run_traced(f"pipeline-{len(rounds)}", STEPS)
        traced_walls.append(wall)
        rounds.append(round_metrics(tracer, first, last, distinct=not rounds))
        tracer.calls.clear()
        last_pair = monotonic() - pair_start
    tracer.write(spans_out)
    if pipe.failures:
        return {}, len(rounds)

    metrics = dict(setup)
    for name in rounds[0]:
        values = [r[name] for r in rounds if name in r]
        if name in EXACT and len(set(values)) != 1:
            pipe.failures.append(f"{name} differs between traced rounds: {values}")
        metrics[name] = statistics.median(values)
    metrics["cli.import_s"] = statistics.median(import_seconds(root))
    metrics["trace.overhead_ratio"] = statistics.median(traced_walls) / statistics.median(untraced_walls)
    return metrics, len(rounds)


def serial(workload: dict) -> dict:
    """The workload with ``--parallel 1``: spans nest only within one thread."""
    out = dict(workload)
    for step in STEPS:
        flags = workload[step]
        if "--parallel" in flags:
            i = flags.index("--parallel")
            out[step] = flags[:i] + ["--parallel", "1"] + flags[i + 2:]
    return out
