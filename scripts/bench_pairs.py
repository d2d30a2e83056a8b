#!/usr/bin/env python3
"""Alternating benchmark pairs: a parent commit against this checkout.

    python3 scripts/bench_pairs.py --parent HEAD~1 --workload long-video \\
        --pairs 10 --seconds 30 --seed 7 --claim evaluate_s --out BENCH_N.json

The parent's files come from ``git archive REV`` into a temporary directory;
the change is this checkout as it is on disk, copied into another one
without any ``__pycache__``: the files git tracks or would add, read from
disk. Then ``compileall`` writes the bytecode of both copies' ``src`` and
``perfbench`` with this interpreter, as pip does at install, so no
``python -m tubekit`` child compiles tubekit, and neither side starts with
a cache the other lacks. Each pair runs
``perfbench/run.py --trace 0`` once on each side, the parent first in odd
pairs and the change first in even pairs, and keeps the JSON line that
run.py prints last. ``--out`` adds the runs to a BENCH file (made if
missing; ``refusal`` says when an existing one cannot take them) and writes a summary
over all of its runs: per workload, seed and end-to-end metric, the median
and quartiles of each side and the pairs each side won, a tie counting for
neither, and the change's median relative to the parent's beside the
metric's ``BENCHMARK.json`` bound; the table marks a metric worse than its
bound BEYOND BOUND. The exit status is 1 unless every run of this call reports
``"correct": true`` and ``"failed": 0``.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
ORDER = "alternating pairs: odd pairs ran the parent first, even pairs the change first"
TREES = ("each side runs from a temporary copy, the parent from git archive and the change from this "
         "checkout's files on disk, with no __pycache__ copied; both copies' src and perfbench are then "
         "precompiled with python -m compileall")


def git(*args: str, env: dict | None = None) -> str:
    return subprocess.run(["git", *args], cwd=ROOT, env=env, check=True,
                          capture_output=True, text=True).stdout.strip()


def checkout_src_tree() -> str:
    """The git tree id of src/ as it is on disk, written through a scratch index."""
    with tempfile.TemporaryDirectory() as tmp:
        env = dict(os.environ, GIT_INDEX_FILE=str(Path(tmp) / "index"))
        git("add", "-A", "src", env=env)
        return git("write-tree", "--prefix=src/", env=env)


def export(rev: str, dest: Path) -> None:
    archive = dest / "tree.tar"
    git("archive", "--format=tar", "-o", str(archive), rev)
    subprocess.run(["tar", "-xf", str(archive), "-C", str(dest)], check=True)
    archive.unlink()


def copy_checkout(dest: Path) -> None:
    """Copy this checkout's files as they are on disk, tracked or not ignored, into ``dest``.

    What .gitignore names, ``__pycache__`` among it, stays behind, as in ``checkout_src_tree``.
    """
    listed = git("ls-files", "-z", "--cached", "--others", "--exclude-standard").split("\0")
    for name in filter(None, listed):
        source = ROOT / name
        if "__pycache__" in source.parts or not source.is_file():  # a cache, or a tracked file deleted on disk
            continue
        (dest / name).parent.mkdir(parents=True, exist_ok=True)
        shutil.copy2(source, dest / name)


def precompile(root: Path) -> None:
    """Write the bytecode of ``root``'s src and perfbench with this interpreter.

    compileall writes it even under PYTHONDONTWRITEBYTECODE, which only stops
    an import from writing it.
    """
    subprocess.run([sys.executable, "-m", "compileall", "-q", "src", "perfbench"], cwd=root, check=True,
                   stdin=subprocess.DEVNULL)


def bench(root: Path, workload: str, seed: int, seconds: float) -> dict:
    """The last JSON line of one perfbench run in ``root``, or a failed result."""
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        cwd=root, stdin=subprocess.DEVNULL, capture_output=True, text=True,
    )
    lines = proc.stdout.splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        result = None
    if proc.returncode != 0 or not isinstance(result, dict):
        return {"correct": False, "error": f"exit {proc.returncode}: {proc.stderr[-2000:]}"}
    return result


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) == 1:
        return values[0], values[0], values[0]
    return tuple(statistics.quantiles(values, n=4))


def summarize(runs: list[dict], better: dict[str, str], bounds: dict[str, float] | None = None) -> list[dict]:
    """Per workload, seed and metric: each side's median and quartiles, the wins, and the bound.

    Only pairs in which both runs report the metric count. ``change_vs_parent``
    is the change's median over the parent's, minus 1, and a metric with a
    bound in ``bounds`` is ``beyond_bound`` when that fraction is worse, in
    the metric's direction, by more than the bound.
    """
    sides: dict[tuple, dict[str, dict]] = {}
    for run in runs:
        sides.setdefault((run["workload"], run["seed"], run["pair"]), {})[run["side"]] = run["result"]
    summary = []
    for workload, seed in sorted({key[:2] for key in sides}):
        pairs = [sides[key] for key in sorted(sides) if key[:2] == (workload, seed)]
        for metric, direction in better.items():
            values = [(p["parent"]["metrics"][metric]["value"], p["change"]["metrics"][metric]["value"])
                      for p in pairs
                      if all(metric in p.get(side, {}).get("metrics", {}) for side in ("parent", "change"))]
            if not values:
                continue
            parent = [a for a, _ in values]
            change = [b for _, b in values]
            sign = 1 if direction == "lower" else -1
            change_wins = sum(sign * (a - b) > 0 for a, b in values)
            parent_wins = sum(sign * (b - a) > 0 for a, b in values)
            p1, pm, p3 = quartiles(parent)
            c1, cm, c3 = quartiles(change)
            relative = cm / pm - 1 if pm else None
            bound = (bounds or {}).get(metric)
            summary.append({
                "workload": workload, "seed": seed, "metric": metric, "better": direction,
                "pairs": len(values), "change_wins": change_wins, "parent_wins": parent_wins,
                "ties": len(values) - change_wins - parent_wins,
                "parent_median": pm, "parent_q1": p1, "parent_q3": p3, "parent_iqr": p3 - p1,
                "change_median": cm, "change_q1": c1, "change_q3": c3, "change_iqr": c3 - c1,
                "change_vs_parent": relative, "bound": bound,
                "beyond_bound": bound is not None and relative is not None and sign * relative > bound,
            })
    return summary


def table_row(s: dict) -> str:
    """One summary row as main prints it; a metric worse than its bound is marked BEYOND BOUND."""
    cells = [f"{s[side + '_median']:.4g} [{s[side + '_q1']:.4g}, {s[side + '_q3']:.4g}]"
             for side in ("parent", "change")]
    relative = "n/a" if s["change_vs_parent"] is None else f"{s['change_vs_parent']:+.1%}"
    bound = "" if s["bound"] is None else f"{s['bound']:.0%}"
    mark = "  BEYOND BOUND" if s["beyond_bound"] else ""
    wins = f"{s['change_wins']}/{s['ties']}/{s['parent_wins']}"
    return f"{s['metric']:16s} {cells[0]:32s} {cells[1]:32s} {wins:16s} {relative:>8s} {bound:>6s}{mark}"


def refusal(record: dict, parent: dict, change: dict, settings: dict, claim: dict | None) -> str | None:
    """Why the BENCH file ``record`` cannot take this call's runs, or None when it can.

    Its runs must be of the same parent and change src/ trees, the same
    ``--seconds`` and the same tree preparation, and a claim must be the one
    it already names, if it names one.
    """
    for key, want in (("parent", parent), ("change", change)):
        if record[key]["src_tree"] != want["src_tree"]:
            return f"holds runs of another {key} src/ tree"
    if record["settings"]["seconds"] != settings["seconds"]:
        return f"holds runs of --seconds {record['settings']['seconds']}"
    if record["settings"].get("trees") != settings["trees"]:
        return f"holds runs from trees prepared otherwise: {record['settings'].get('trees')}"
    held = record.get("claim")
    if claim and held and (held["metric"], held["workload"]) != (claim["metric"], claim["workload"]):
        return f"claims {held['metric']} on {held['workload']}"
    return None


def main(argv=None) -> int:
    workloads = json.loads((ROOT / "perfbench" / "workloads.json").read_text(encoding="utf-8"))
    benchmark = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    better = {m["name"]: m["better"] for m in benchmark["end_to_end"]}
    bounds = {m["name"]: m["bound"] for m in benchmark["end_to_end"]}
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", required=True, help="git revision to compare against")
    parser.add_argument("--workload", required=True, choices=sorted(workloads["workloads"]))
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--seed", type=int, default=workloads["default_seed"])
    parser.add_argument("--claim", choices=sorted(better), help="the metric the change claims a gain on")
    parser.add_argument("--out", type=Path, help="BENCH file to add the runs to")
    args = parser.parse_args(argv)
    if args.pairs < 1:
        parser.error("--pairs must be >= 1")

    parent = {"commit": git("rev-parse", "--verify", args.parent + "^{commit}")}
    parent["src_tree"] = git("rev-parse", parent["commit"] + ":src")
    change = {"src_tree": checkout_src_tree(), "note": "git tree id of src/ in the checkout that ran"}
    settings = {
        "command": "python3 perfbench/run.py --workload W --seed S --trace 0",
        "seconds": args.seconds,
        "order": ORDER,
        "trees": TREES,
        "machine": f"{os.cpu_count()} CPU {platform.system()}, Python {platform.python_version()}",
        "result": "the last JSON line that run.py prints",
    }
    claim = args.claim and {"metric": args.claim, "workload": args.workload, "better": better[args.claim]}
    record = {"parent": parent, "change": change, "settings": settings, "runs": []}
    if args.out is not None and args.out.exists():
        record = json.loads(args.out.read_text(encoding="utf-8"))
        why = refusal(record, parent, change, settings, claim)
        if why is not None:
            print(f"bench_pairs: {args.out} {why}", file=sys.stderr)
            return 2
    if claim:
        record.setdefault("claim", claim)

    done = max((r["pair"] for r in record["runs"]
                if (r["workload"], r["seed"]) == (args.workload, args.seed)), default=0)
    new_runs = []
    with tempfile.TemporaryDirectory() as tmp:
        parent_root, change_root = Path(tmp) / "parent", Path(tmp) / "change"
        parent_root.mkdir()
        export(parent["commit"], parent_root)
        copy_checkout(change_root)
        for root in (parent_root, change_root):
            precompile(root)
        for pair in range(done + 1, done + args.pairs + 1):
            order = ("parent", "change") if pair % 2 else ("change", "parent")
            for side in order:
                result = bench(parent_root if side == "parent" else change_root, args.workload, args.seed,
                               args.seconds)
                new_runs.append({"workload": args.workload, "seed": args.seed, "pair": pair, "side": side,
                                 "ran_first": side == order[0], "result": result})
                print(f"pair {pair} {side}: correct={result.get('correct')} failed={result.get('failed')}",
                      flush=True)

    record["runs"] += new_runs
    record["summary"] = summarize(record["runs"], better, bounds)
    if args.out is not None:
        ordered = {key: record[key] for key in ("claim", "parent", "change", "settings", "summary", "runs")
                   if key in record}
        ordered.update(record)  # keys added by hand, such as notes, are kept
        args.out.write_text(json.dumps(ordered, indent=1) + "\n", encoding="utf-8")

    print(f"{'metric':16s} {'parent median [q1, q3]':32s} {'change median [q1, q3]':32s} "
          f"{'wins/ties/losses':16s} {'change':>8s} {'bound':>6s}")
    for s in record["summary"]:
        if (s["workload"], s["seed"]) == (args.workload, args.seed):
            print(table_row(s))
    bad = [r for r in new_runs if not (r["result"].get("correct") is True and r["result"].get("failed") == 0)]
    for r in bad:
        print(f"bench_pairs: pair {r['pair']} {r['side']} not correct: {r['result'].get('error', '')}",
              file=sys.stderr)
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
