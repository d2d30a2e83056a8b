#!/usr/bin/env python3
"""Benchmark of the tubekit CLI on seeded synthetic corpora.

    python3 perfbench/run.py --workload crowded --seed 7 --seconds 30 --trace 0

With ``--trace 0`` it generates the workload's corpus with ``tubekit synth``
(several times, timed as set-up), then runs extract-tubes, fuse, evaluate
and actionness, each as a fresh ``python -m tubekit`` process, in rounds
until ``--seconds`` have passed, and reports the median wall time of each
subcommand. With ``--trace 1`` it runs the same pipeline in this process
with spans around tubekit's functions and reports per-layer metrics (see
traced.py). Every output is checked: strict JSON, well-formed records, the
same bytes in every round and, for the default seed, the pinned sha256.

Workloads, their flags and the digests are in workloads.json. A table goes
to standard output; its last line is one JSON object with the result.
"""
from __future__ import annotations

import argparse
import json
import os
import random
import shutil
import statistics
import subprocess
import sys
from pathlib import Path
from time import monotonic, perf_counter

import traced
from pipeline import STEPS, CliRunner, Pipeline

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_REPEATS = 3
MIN_ROUNDS = 3
CALIBRATION_LINES = 15_000
CALIBRATION_REF_S = 0.13
CALIBRATION_CODE = "import json, sys\nfor line in open(sys.argv[1]):\n    json.loads(line)\n"

END_TO_END_UNITS = {
    "setup_s": "s",
    "extract_tubes_s": "s",
    "fuse_s": "s",
    "evaluate_s": "s",
    "actionness_s": "s",
    "pipeline_s": "s",
    "frames_per_s": "1/s",
    "peak_rss_mb": "MB",
}


def write_calibration_file(path: Path) -> None:
    """A fixed JSON-lines file, shaped like tubekit's score records, made from seed 0."""
    rng = random.Random(0)
    with open(path, "w", encoding="utf-8") as fh:
        for i in range(CALIBRATION_LINES):
            record = {"video_id": f"v{i % 997:04d}", "stream": "rgb", "clip_start": 8 * (i % 300),
                      "values": [rng.gauss(0.0, 1.0) for _ in range(5)]}
            fh.write(json.dumps(record) + "\n")


def calibration_s(path: Path) -> float:
    """Wall time of a fresh interpreter that parses the calibration file.

    It starts a process, reads a file and parses JSON into Python objects,
    as every tubekit subcommand does, so the slow phases of a shared
    machine slow it about as much as they slow tubekit. It runs no tubekit
    code, so a faster tubekit still shows in full.
    """
    start = perf_counter()
    subprocess.run([sys.executable, "-c", CALIBRATION_CODE, str(path)], check=True,
                   stdin=subprocess.DEVNULL, stdout=subprocess.DEVNULL)
    return perf_counter() - start


def timed_run(pipe: Pipeline, runner: CliRunner, frames: int, seconds: float, workdir: Path):
    """End-to-end metrics of CLI invocations, and the unscaled wall times per timing.

    Each invocation is bracketed by calibration runs, and its wall time is
    scaled by CALIBRATION_REF_S over their mean, so the timings read as
    seconds on a machine where the calibration takes CALIBRATION_REF_S.
    """
    calibration = workdir / "calibration.jsonl"
    write_calibration_file(calibration)
    speed = [calibration_s(calibration)]
    walls = {name + "_s": [] for name in ("setup",) + STEPS}
    scaled = {name: [] for name in walls}
    rss_kb = []

    def timed(step: str, name: str) -> int:
        inv = pipe.step(runner, step)
        speed.append(calibration_s(calibration))
        walls[name].append(inv.wall)
        scaled[name].append(inv.wall * CALIBRATION_REF_S * 2.0 / (speed[-2] + speed[-1]))
        return inv.rss_kb

    for _ in range(SETUP_REPEATS):
        timed("synth", "setup_s")
    start = monotonic()
    last_round = 0.0
    # a round starts while it is expected to end by half its length past the deadline
    while not pipe.failures and (len(walls["actionness_s"]) < MIN_ROUNDS
                                 or monotonic() - start + last_round / 2 < seconds):
        round_start = monotonic()
        for step in STEPS:
            rss_kb.append(timed(step, step + "_s"))
        last_round = monotonic() - round_start
    if pipe.failures:
        return {}, walls
    m = {name: statistics.median(values) for name, values in scaled.items()}
    m["pipeline_s"] = sum(m[step + "_s"] for step in STEPS)
    m["frames_per_s"] = frames / m["pipeline_s"]
    m["peak_rss_mb"] = max(rss_kb) / 1024.0
    return m, walls


def main(argv=None) -> int:
    spec = json.loads((HERE / "workloads.json").read_text(encoding="utf-8"))
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(spec["workloads"]))
    parser.add_argument("--seed", type=int, default=spec["default_seed"])
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "tubekit" / "cli.py").is_file():
        print(f"perfbench: no tubekit sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    workload = spec["workloads"][args.workload]
    pinned = workload["digests"] if args.seed == spec["default_seed"] else None
    work = ROOT / ".perfbench_work"
    workdir = work / f"{args.workload}-{args.seed}-{os.getpid()}"
    (workdir / "corpus").mkdir(parents=True, exist_ok=True)
    notes = {}
    try:
        if args.trace:
            pipe = Pipeline(traced.serial(workload), args.seed, workdir, pinned)
            spans = work / f"spans-{args.workload}-{args.seed}.jsonl"
            metrics, rounds = traced.traced_run(ROOT, pipe, args.seconds, spans)
            units = traced.UNITS
            heading = f"traced rounds {rounds}, spans in {spans.relative_to(ROOT)}"
        else:
            pipe = Pipeline(workload, args.seed, workdir, pinned)
            frames = workload["synth"]["videos"] * workload["synth"]["frames"]
            runner = CliRunner(ROOT, workdir / "stderr.log")
            metrics, walls = timed_run(pipe, runner, frames, args.seconds, workdir)
            units = END_TO_END_UNITS
            heading = "times scaled by the calibration runs; unscaled medians in brackets"
            for name, values in walls.items():
                notes[name] = f"median of n={len(values)} ({statistics.median(values):.4g} s)"
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}: {heading}")
    for name, value in metrics.items():
        print(f"  {name:32s} {value:14.6g} {units[name]:6s} {notes.get(name, '')}")
    print(f"  {'error_rate':32s} {len(pipe.failures) / pipe.attempted:14.6g} {'ratio':6s} "
          f"{len(pipe.failures)} of {pipe.attempted} operations failed")
    if pipe.map_at_max_delta is not None:
        print(f"  {'mAP@0.5 (recorded, not gated)':32s} {pipe.map_at_max_delta:14.6g}")
    for failure in pipe.failures:
        print(f"perfbench: {failure}", file=sys.stderr)
    result = {
        "correct": not pipe.failures,
        "attempted": pipe.attempted,
        "failed": len(pipe.failures),
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
