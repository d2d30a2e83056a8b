"""The benchmark's pipeline: synth, then extract-tubes, fuse, evaluate, actionness.

``Pipeline.step`` runs one subcommand through a runner (a fresh
``python -m tubekit`` process, or ``tubekit.cli.main`` in this process for
the traced run) and checks what it wrote. The first good output of each
step is checked in full and, for the default seed, against its pinned
sha256; later outputs must repeat those bytes.
"""
from __future__ import annotations

import contextlib
import io
import json
import os
import subprocess
import sys
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter

import checks

STEPS = ("extract_tubes", "fuse", "evaluate", "actionness")
DELTAS = (0.05, 0.1, 0.2, 0.3, 0.4, 0.5)
CORPUS_FILES = ("detections.jsonl", "gt_tubes.jsonl", "scores.jsonl")
OUTPUT_FILES = {
    "extract_tubes": "tubes.jsonl",
    "fuse": "predictions.jsonl",
    "evaluate": "report.jsonl",
    "actionness": "actionness.jsonl",
}


@dataclass(frozen=True)
class Invocation:
    wall: float
    code: int
    rss_kb: int
    error: str = ""


class CliRunner:
    """Each call is a fresh ``python -m tubekit`` process, as users run it."""

    def __init__(self, root: Path, log: Path):
        self.root = root
        self.log = log
        self.env = dict(os.environ, PYTHONPATH=str(root / "src"))

    def __call__(self, argv: list[str]) -> Invocation:
        with open(self.log, "w", encoding="utf-8") as err:
            start = perf_counter()
            proc = subprocess.Popen(
                [sys.executable, "-m", "tubekit", *argv],
                cwd=self.root, env=self.env, stdin=subprocess.DEVNULL,
                stdout=subprocess.DEVNULL, stderr=err,
            )
            _, status, usage = os.wait4(proc.pid, 0)
            wall = perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        error = self.log.read_text(encoding="utf-8")[-2000:] if proc.returncode else ""
        return Invocation(wall, proc.returncode, usage.ru_maxrss, error)


class InProcessRunner:
    """Calls ``tubekit.cli.main`` directly; the evaluate table is discarded."""

    def __init__(self, main):
        self.main = main

    def __call__(self, argv: list[str]) -> Invocation:
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            start = perf_counter()
            code = self.main(argv)
            wall = perf_counter() - start
        return Invocation(wall, code, 0, err.getvalue()[-2000:])


def synth_flags(synth: dict) -> list[str]:
    flags = []
    for key, value in synth.items():
        flags += ["--" + key.replace("_", "-"), str(value)]
    return flags


class Pipeline:
    def __init__(self, workload: dict, seed: int, workdir: Path, pinned: dict | None):
        self.workload = workload
        self.seed = seed
        self.corpus = workdir / "corpus"
        self.out = {step: workdir / name for step, name in OUTPUT_FILES.items()}
        self.labeled = workdir / "labeled_tubes.jsonl"
        self.pinned = pinned
        self.digests: dict[str, str] = {}
        self.attempted = 0
        self.failures: list[str] = []
        self.map_at_max_delta: float | None = None

    def argv(self, step: str) -> list[str]:
        wl, c, out = self.workload, self.corpus, self.out
        if step == "synth":
            return ["synth", "--out-dir", str(c), "--seed", str(self.seed)] + synth_flags(wl["synth"])
        if step == "extract_tubes":
            return ["extract-tubes", str(c / "detections.jsonl"), "--out", str(out[step])] + wl[step]
        if step == "fuse":
            return ["fuse", str(c / "scores.jsonl"), "--out", str(out[step])] + wl[step]
        if step == "evaluate":
            return ["evaluate", str(self.labeled), str(c / "gt_tubes.jsonl"), "--out", str(out[step]),
                    "--deltas", ",".join(str(d) for d in DELTAS)] + wl[step]
        if step == "actionness":
            return ["actionness", "--scores", str(c / "scores.jsonl"), "--tubes", str(self.labeled),
                    "--out", str(out[step])] + wl[step]
        raise ValueError(f"unknown step {step!r}")

    def step(self, runner, step: str) -> Invocation:
        """Run one subcommand and check its output; failures are recorded, not raised."""
        self.attempted += 1
        inv = runner(self.argv(step))
        if inv.code != 0:
            self.failures.append(f"{step} exited {inv.code}: {inv.error.strip()}")
            return inv
        try:
            self._verify(step)
        except checks.CheckError as exc:
            self.failures.append(f"{step}: {exc}")
        return inv

    def _verify(self, step: str) -> None:
        files = [self.corpus / n for n in CORPUS_FILES] if step == "synth" else [self.out[step]]
        first = files[0].name not in self.digests
        if first:
            self._check_structure(step)
        for path in files:
            digest = checks.sha256(path)
            expected = self.digests.get(path.name)
            if expected is None and self.pinned is not None:
                expected = self.pinned[path.name]
                if digest != expected:
                    raise checks.CheckError(f"{path.name}: sha256 {digest} differs from the pinned digest")
            elif expected is not None and digest != expected:
                raise checks.CheckError(f"{path.name}: bytes differ from the first run")
            self.digests[path.name] = digest

    def _check_structure(self, step: str) -> None:
        wl, c = self.workload, self.corpus
        if step == "synth":
            checks.check_corpus(c, wl["synth"])
        elif step == "extract_tubes":
            checks.check_tubes(self.out[step], labeled=False)
        elif step == "fuse":
            videos = {r["video_id"] for r in checks.strict_records(c / "detections.jsonl")}
            labels = checks.check_predictions(self.out[step], videos, wl["synth"]["classes"])
            self._write_labeled(labels)
        elif step == "evaluate":
            classes = {r["label"] for r in checks.strict_records(c / "gt_tubes.jsonl")}
            classes |= {r["label"] for r in checks.strict_records(self.labeled)}
            self.map_at_max_delta = checks.check_report(self.out[step], list(DELTAS), classes)
        elif step == "actionness":
            tubes = checks.check_tubes(self.labeled, labeled=True)
            action_class = int(wl["actionness"][wl["actionness"].index("--class") + 1])
            checks.check_actionness(self.out[step], tubes, action_class)

    def _write_labeled(self, labels: dict[str, int]) -> None:
        """Give each extracted tube its video's fused label, as evaluate needs."""
        with open(self.labeled, "w", encoding="utf-8") as out:
            for record in checks.strict_records(self.out["extract_tubes"]):
                record["label"] = labels[record["video_id"]]
                out.write(json.dumps(record, separators=(",", ":")) + "\n")
