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
workload, every distinct ``logSha256`` digest of its artifacts (64 hex
digits; a run that prints none adds none) and each end-to-end metric
named in BENCHMARK.json: the value of every round, their median and
their quartiles. A round whose perfbench run exits non-zero, ends without
a JSON report or is not ``correct`` is counted under ``failed`` and
leaves no values; ``failures`` lists each such run with its workload,
checkout, round, exit code and the last lines of its stdout and stderr.

With exactly two checkouts, ``pairs`` applies the claim rule to the second
against the first, per workload and metric: the rounds it won, lost and
tied by the metric's ``better`` direction, counting only rounds in which
both produced a value; ``gain``, true when it won at least nine tenths of
those rounds and, over them, the medians differ its way by more than the
distance between the first checkout's quartiles; and ``regressed``, true
when, over the same rounds, its median is worse than the first's by more
than the metric's ``bound`` in BENCHMARK.json, as a fraction of the
first's median.
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
#: Output lines kept from each stream of a failed perfbench run.
TAIL_LINES = 5
# Only a real digest: a run whose first repeat fails prints "logSha256 None".
SHA_LINE = re.compile(
    r"^workload \S+, seed \d+, trace 0, logSha256 ([0-9a-f]{64})$",
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
    """One ``perfbench/run.py`` of ``checkout``: its logSha256, metrics
    (None unless the run exited 0 with a ``correct`` JSON report), exit
    code and the last lines of its stdout and stderr."""
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
    return {"logSha256": sha[1] if sha else None, "metrics": metrics,
            "code": proc.returncode,
            "stdout": proc.stdout.splitlines()[-TAIL_LINES:],
            "stderr": proc.stderr.splitlines()[-TAIL_LINES:]}


def quartiles(values: list) -> list:
    """[first quartile, median, third quartile] of ``values``."""
    if len(values) < 2:
        return values * 3
    return statistics.quantiles(values, n=4, method="inclusive")


def claim_rule(first: dict, second: dict, metrics: dict) -> dict:
    """The paired rounds ``second`` won, lost and tied against ``first``,
    and whether that is a gain or a regression, per workload and metric.
    Each side maps a workload to ``{"rounds": {metric: [value or None per
    round]}}``; ``metrics`` maps a metric to its BENCHMARK.json entry."""
    out = {}
    for workload, entry in second.items():
        out[workload] = {}
        for name, values in entry["rounds"].items():
            sign = 1 if metrics[name]["better"] == "higher" else -1
            both = [(a, b) for a, b in zip(first[workload]["rounds"][name],
                                           values)
                    if a is not None and b is not None]
            if not both:
                continue
            won = sum(sign * (b - a) > 0 for a, b in both)
            lost = sum(sign * (b - a) < 0 for a, b in both)
            a_values, b_values = zip(*both)
            q1, median_a, q3 = quartiles(list(a_values))
            gap = sign * (statistics.median(b_values) - median_a)
            out[workload][name] = {
                "won": won, "lost": lost, "tied": len(both) - won - lost,
                "gain": won >= 0.9 * len(both) and gap > q3 - q1,
                "regressed": -gap > metrics[name]["bound"] * abs(median_a)}
    return out


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
    failures = []
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
                if run["logSha256"] not in (None, *entry["logSha256"]):
                    entry["logSha256"].append(run["logSha256"])
                if run["metrics"] is None:
                    entry["failed"] += 1
                    failures.append({"workload": workload, "checkout": label,
                                     "round": r + 1, "code": run["code"],
                                     "stdout": run["stdout"],
                                     "stderr": run["stderr"]})
                # None marks a round without a value, so that rounds of
                # different checkouts stay paired by index.
                for name in names:
                    entry["rounds"][name].append((run["metrics"] or {})
                                                 .get(name))

    pairs = None
    if len(order) == 2:
        metrics = {m["name"]: m for m in spec["end_to_end"]}
        pairs = {"first": order[0], "second": order[1],
                 "results": claim_rule(*(results[label] for label in order),
                                       metrics)}
    for per_workload in results.values():
        for entry in per_workload.values():
            rounds = {n: [x for x in v if x is not None]
                      for n, v in entry["rounds"].items()}
            entry["rounds"] = {n: v for n, v in rounds.items() if v}
            entry["median"] = {n: statistics.median(v)
                               for n, v in entry["rounds"].items()}
            entry["quartiles"] = {n: quartiles(v)
                                  for n, v in entry["rounds"].items()}
    out = args.out or ROOT / f"BENCH_{args.number}.json"
    out.write_text(json.dumps({
        "machine": machine(),
        "command": (f"perfbench/run.py --seed {args.seed} --seconds "
                    f"{args.seconds} --trace 0, {args.rounds} rounds"),
        "checkouts": revisions,
        "results": results,
        "pairs": pairs,
        "failures": failures,
    }, indent=1) + "\n")
    print(out)
    failed = sum(e["failed"] for w in results.values() for e in w.values())
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
