#!/usr/bin/env python3
"""Run perfbench on every benchmark workload and write BENCH_<n>.json.

A thin wrapper over ``perfbench/run.py``: it measures nothing itself. Each
round runs every checkout's own ``perfbench/run.py --trace 0`` once per
workload, the checkouts in turn, and swaps which goes first every round,
so drift in the shared host's speed falls on all of them alike. Example,
comparing a parent commit unpacked in ``../parent`` with this checkout:

    python3 scripts/bench.py 13 --checkout parent=../parent \\
        --checkout change=. --rounds 5 --seconds 40

The file records the machine, the Python version, each checkout's git
commit and whether its files differ from that commit (both null for a
directory that is not a git work tree) and, for each checkout and
workload, the ``logSha256`` of its artifacts and each end-to-end metric
named in BENCHMARK.json: the value of every round and their median. A
round whose perfbench run exits non-zero, ends without a JSON report or
is not ``correct`` is counted under ``failed`` and leaves no values.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import re
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SHA_LINE = re.compile(r"^workload \S+, seed \d+, trace 0, logSha256 (\S+)$",
                      re.MULTILINE)


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("number", type=int, help="n in BENCH_<n>.json")
    parser.add_argument("--checkout", action="append", metavar="LABEL=PATH",
                        help="a checkout to measure (repeatable); "
                             "default: this one, labelled 'current'")
    parser.add_argument("--rounds", type=int, default=3)
    parser.add_argument("--seconds", type=int, default=40,
                        help="perfbench --seconds for each run")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--out", type=Path,
                        help="output file (default: BENCH_<n>.json here)")
    return parser.parse_args(argv)


def machine() -> dict:
    model = platform.processor()
    try:
        cpuinfo = Path("/proc/cpuinfo").read_text()
        model = re.search(r"^model name\s*:\s*(.+)$", cpuinfo, re.MULTILINE)[1]
    except (OSError, TypeError):
        pass
    return {"platform": platform.platform(), "cpu": model,
            "cpus": os.cpu_count(), "python": sys.version.split()[0],
            "implementation": platform.python_implementation()}


def revision(checkout: Path) -> dict:
    """The git commit ``checkout`` is at and whether its files differ from
    it; both None unless ``checkout`` is the top of a git work tree."""
    def git(*args):
        proc = subprocess.run(["git", "-C", str(checkout), *args],
                              capture_output=True, text=True)
        return proc.stdout.strip() if proc.returncode == 0 else None

    top = git("rev-parse", "--show-toplevel")
    if top is None or Path(top).resolve() != checkout:
        return {"commit": None, "dirty": None}
    return {"commit": git("rev-parse", "HEAD"),
            "dirty": bool(git("status", "--porcelain"))}


def perfbench(checkout: Path, workload: str, seed: int, seconds: int) -> dict:
    """One ``perfbench/run.py`` of ``checkout``: its logSha256 and metrics
    (None unless the run exited 0 with a ``correct`` JSON report)."""
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=checkout, capture_output=True, text=True)
    sha = SHA_LINE.search(proc.stdout)
    lines = proc.stdout.strip().splitlines()
    try:
        report = json.loads(lines[-1]) if proc.returncode == 0 else None
    except (IndexError, json.JSONDecodeError):
        report = None
    metrics = None
    if isinstance(report, dict) and report.get("correct"):
        metrics = {name: m["value"] for name, m in report["metrics"].items()}
    return {"logSha256": sha[1] if sha else None, "metrics": metrics}


def main(argv=None) -> int:
    args = parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [m["name"] for m in spec["end_to_end"]]
    checkouts = {}
    for item in args.checkout or [f"current={ROOT}"]:
        label, _, path = item.partition("=")
        checkouts[label] = Path(path).resolve()
    revisions = {label: revision(path) for label, path in checkouts.items()}

    results = {label: {w["name"]: {"logSha256": [], "failed": 0,
                                   "rounds": {n: [] for n in names}}
                       for w in spec["workloads"]}
               for label in checkouts}
    order = list(checkouts)
    for r in range(args.rounds):
        for workload in results[order[0]]:
            for label in (order if r % 2 == 0 else order[::-1]):
                run = perfbench(checkouts[label], workload, args.seed,
                                args.seconds)
                entry = results[label][workload]
                print(f"round {r + 1}/{args.rounds} {workload} {label}: "
                      f"run_s {run['metrics'] and run['metrics']['run_s']}",
                      file=sys.stderr, flush=True)
                if run["logSha256"] not in entry["logSha256"]:
                    entry["logSha256"].append(run["logSha256"])
                if run["metrics"] is None:
                    entry["failed"] += 1
                    continue
                for name in names:
                    if name in run["metrics"]:
                        entry["rounds"][name].append(run["metrics"][name])

    for per_workload in results.values():
        for entry in per_workload.values():
            entry["rounds"] = {n: v for n, v in entry["rounds"].items() if v}
            entry["median"] = {n: statistics.median(v)
                               for n, v in entry["rounds"].items()}
    out = args.out or ROOT / f"BENCH_{args.number}.json"
    out.write_text(json.dumps({
        "machine": machine(),
        "command": (f"perfbench/run.py --seed {args.seed} --seconds "
                    f"{args.seconds} --trace 0, {args.rounds} rounds"),
        "checkouts": revisions,
        "results": results,
    }, indent=1) + "\n")
    print(out)
    failed = sum(e["failed"] for w in results.values() for e in w.values())
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
