#!/usr/bin/env python3
"""Byte parity of a parent commit and this checkout on every benchmark workload.

    python3 scripts/parity.py --parent HEAD~1 --seed 13

For each workload of ``perfbench/workloads.json``, each side runs the
benchmark's ``Pipeline`` once: synth, then every step, then ``fuse`` on the
pose and flow streams (``EXTRA_FUSE``), ``actionness`` gated by the
detections (``EXTRA_ACTIONNESS``), ``extract-tubes`` at a median window
of 9 (``EXTRA_TUBES``), ``evaluate`` at thresholds up to 1.0
(``EXTRA_REPORT``), and ``fuse`` and ``actionness`` on the scores file
with its records in an order shuffled by the seed (``EXTRA_SHUFFLED``),
each subcommand a fresh
``python -m tubekit`` process (``CliRunner``) on that side's src/.
The parent's files come from ``git archive REV``, and the change's are this
checkout's files as they are on disk (``bench_pairs.copy_checkout``). The
harness is imported from this checkout's perfbench/ and only read. The
script prints one line per workload and file, and exits 1 unless every
step succeeded and every corpus and output file has the same sha256 on
both sides.
"""
from __future__ import annotations

import argparse
import json
import random
import sys
import tempfile
from pathlib import Path

from bench_pairs import ROOT, copy_checkout, export, git

sys.path.insert(0, str(ROOT / "perfbench"))
_writes_bytecode, sys.dont_write_bytecode = sys.dont_write_bytecode, True  # leave perfbench/ as it is
from checks import sha256  # noqa: E402
from pipeline import STEPS, CliRunner, Pipeline  # noqa: E402

sys.dont_write_bytecode = _writes_bytecode


# fuse runs past the benchmark's own, which fuses rgb: each reads every record of
# the corpus, and builds only those of another stream
EXTRA_FUSE = {
    "predictions_pose_majority.jsonl": ["--stream", "pose", "--method", "majority"],
    "predictions_flow_max.jsonl": ["--stream", "flow", "--method", "max"],
}
# an actionness run past the benchmark's own, which is gated by tubes: the gate
# made from the detections' frames, with the workload's actionness flags
EXTRA_ACTIONNESS = "actionness_detections.jsonl"
# an extract-tubes run past the benchmark's own at window 80, where every video of
# the synth corpora smooths into one count run: at window 9 the counts form several
EXTRA_TUBES = "tubes_w9.jsonl"
# an evaluate run past the benchmark's own, whose thresholds end at 0.5: here a
# tube IoU's last bit can move a match, as at 1.0 only an exact 1.0 counts
EXTRA_REPORT = "report_tight.jsonl"
TIGHT_DELTAS = "0.7,0.8,0.9,0.95,1.0"
# fuse and actionness runs, as the benchmark's own, on the corpus's score records
# shuffled by the seed: synth writes each set's records together, and here a set's
# records are split by other sets', so the reader meets a set again after others
SHUFFLED_SCORES = "scores_shuffled.jsonl"
EXTRA_SHUFFLED = ("predictions_shuffled.jsonl", "actionness_shuffled.jsonl")


def shuffle_lines(src: Path, dest: Path, seed: int) -> None:
    """``src``'s lines in the order that ``random.Random(seed).shuffle`` gives them, written to ``dest``."""
    lines = src.read_bytes().splitlines(keepends=True)
    random.Random(seed).shuffle(lines)
    dest.write_bytes(b"".join(lines))


def run_side(root: Path, workload: dict, seed: int, workdir: Path) -> tuple[dict[str, str], list[str]]:
    """The sha256 of each corpus and output file that ``root``'s src/ writes, and the failures.

    The files are those of the benchmark's steps, then those of the EXTRA_FUSE,
    EXTRA_ACTIONNESS, EXTRA_TUBES, EXTRA_REPORT and EXTRA_SHUFFLED runs.
    """
    workdir.mkdir(parents=True)
    pipe = Pipeline(workload, seed, workdir, pinned=None)
    runner = CliRunner(root, workdir / "stderr.log")
    for step in ("synth", *STEPS):
        pipe.step(runner, step)
        if pipe.failures:
            return pipe.digests, pipe.failures
    scores, detections = str(pipe.corpus / "scores.jsonl"), str(pipe.corpus / "detections.jsonl")
    extra = {name: ["fuse", scores, *flags, *workload["fuse"]] for name, flags in EXTRA_FUSE.items()}
    extra[EXTRA_ACTIONNESS] = ["actionness", "--scores", scores, "--detections", detections, *workload["actionness"]]
    extra[EXTRA_TUBES] = ["extract-tubes", detections, "--median-window", "9", *workload["extract_tubes"]]
    extra[EXTRA_REPORT] = ["evaluate", str(pipe.labeled), str(pipe.corpus / "gt_tubes.jsonl"),
                           "--deltas", TIGHT_DELTAS, *workload["evaluate"]]
    shuffled = workdir / SHUFFLED_SCORES
    shuffle_lines(pipe.corpus / "scores.jsonl", shuffled, seed)
    fuse_name, actionness_name = EXTRA_SHUFFLED
    extra[fuse_name] = ["fuse", str(shuffled), *workload["fuse"]]
    extra[actionness_name] = ["actionness", "--scores", str(shuffled), "--tubes", str(pipe.labeled),
                              *workload["actionness"]]
    for name, argv in extra.items():
        out = workdir / name
        inv = runner([*argv, "--out", str(out)])
        if inv.code != 0:
            return pipe.digests, [f"{argv[0]} for {name} exited {inv.code}: {inv.error.strip()}"]
        pipe.digests[name] = sha256(out)
    return pipe.digests, pipe.failures


def compare(parent: dict[str, str], change: dict[str, str]) -> list[tuple[str, bool]]:
    """(file name, same bytes) for every file either side wrote, in name order."""
    return [(name, name in parent and parent[name] == change.get(name)) for name in sorted({*parent, *change})]


def main(argv=None) -> int:
    workloads = json.loads((ROOT / "perfbench" / "workloads.json").read_text(encoding="utf-8"))
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", required=True, help="git revision to compare against")
    parser.add_argument("--seed", type=int, default=workloads["default_seed"])
    args = parser.parse_args(argv)
    commit = git("rev-parse", "--verify", args.parent + "^{commit}")

    ok = True
    with tempfile.TemporaryDirectory() as tmp:
        roots = {"parent": Path(tmp) / "parent", "change": Path(tmp) / "change"}
        roots["parent"].mkdir()
        export(commit, roots["parent"])
        copy_checkout(roots["change"])
        for name in sorted(workloads["workloads"]):
            digests = {}
            for side, root in roots.items():
                digests[side], failures = run_side(root, workloads["workloads"][name], args.seed,
                                                   Path(tmp) / "work" / name / side)
                for failure in failures:
                    print(f"{name} {side}: {failure}", file=sys.stderr)
                    ok = False
            for file, same in compare(digests["parent"], digests["change"]):
                ok &= same
                print(f"{name:12s} {file:32s} {'identical' if same else 'DIFFERS'} "
                      f"parent {digests['parent'].get(file, '-')[:16]} change {digests['change'].get(file, '-')[:16]}")
    print(f"parity at seed {args.seed} against {commit[:12]}: {'identical' if ok else 'FAILED'}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
