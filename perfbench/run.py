"""privamm benchmark: set-up, run, verify and settlement throughput.

Usage (from the root of a checkout):
    python3 perfbench/run.py --workload trade-heavy --seed 1 --seconds 40 --trace 0

The seed generates the workload's scenario (see workloads.py). Each
repeat runs ``privamm run`` on it and then ``privamm verify`` on the
artifacts, each in a fresh interpreter (child.py), one process at a time.
Repeats continue while the next one is expected to finish inside
``--seconds``; every metric is the median over repeats. Times are in
reference seconds: each child samples the shared host's speed while
privamm runs and divides it out (speed.py), because the host's pace
drifts far more between runs than the program does. Artifacts live
in ``.perfbench_work/`` under the checkout and are removed at the end.

``--trace 0`` reports the end-to-end metrics from untraced repeats.
``--trace 1`` alternates untraced and traced repeats, at least two traced
ones, and reports the per-layer metrics, including the tracer's own
overhead.

Every repeat is checked: exit codes, the event-log digest against
summary.json, the same ``logSha256`` for every repeat and the traced run,
verify check lines (only the workload's known defects may fail), trade
phase and block round counts against summary.json and, when traced, MPC
online rounds against the traced calls and identical counts between
traced repeats. The last line of output is one JSON object.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import math
import os
import re
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from workloads import GENERATORS  # noqa: E402

#: Verify failures a workload is known to produce on the current code,
#: with their cause. Any other FAIL line is a failed operation.
KNOWN_VERIFY_FAILURES = {
    "load-split": (
        "a merged shard reuses its parent's id and restarts that chain at "
        "genesis, so the header replay finds a broken link at height 0 and "
        "later account proofs name headers it never accepted",
        [
            re.compile(r"FAIL: block headers replay \(\d+ headers\) "
                       r"\(broken link at shard-[\d.]+#0\)"),
            re.compile(r"FAIL: balance and account proofs replay \(\d+ proofs\) "
                       r"\(account proof for \w+ names an unknown header\)"),
        ],
    ),
}

CHILD_TIMEOUT_S = 170

#: An untraced repeat verifies its artifacts again, each time in a fresh
#: interpreter, until verify has taken this long (at most VERIFY_MAX
#: times), so that verify_s is a median even where one verify is short.
VERIFY_MIN_S = 2.0
VERIFY_MAX = 4

E2E_UNITS = {
    "setup_s": "s", "run_s": "s", "verify_s": "s", "tx_per_s": "1/s",
    "trade_ms_p50": "ms", "trade_ms_p90": "ms",
    "block_ms_p50": "ms", "block_ms_p90": "ms",
    "peak_rss_mb": "MB", "trades_settled_frac": "1", "verify_ok_frac": "1",
}


class OperationFailed(Exception):
    """A run or verify invocation whose output failed a check."""


def percentile(values, q: float):
    """Nearest-rank percentile and the number of samples above its rank."""
    ordered = sorted(values)
    rank = math.ceil(q * len(ordered))
    return ordered[rank - 1], len(ordered) - rank


def child(*args: str) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "child.py"), *args],
        cwd=ROOT, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S,
    )
    if proc.returncode != 0:
        tail = proc.stderr.strip().splitlines()[-3:]
        raise OperationFailed(f"child.py {args[0]} exited {proc.returncode}: "
                              + " | ".join(tail))
    return json.loads(proc.stdout.strip().splitlines()[-1])


class Bench:
    def __init__(self, workload: str, seed: int, work: Path):
        self.workload = workload
        self.work = work
        self.scenario = work / "scenario.json"
        self.scenario.write_text(json.dumps(GENERATORS[workload](seed)))
        self.attempted = 0
        self.failed = 0
        self.problems = []
        self.log_sha = None

    def _invoke(self, *args: str):
        self.attempted += 1
        try:
            return child(*args)
        except (OperationFailed, subprocess.TimeoutExpired, ValueError) as exc:
            self.failed += 1
            self.problems.append(str(exc))
            return None

    def fail(self, message: str):
        self.failed += 1
        self.problems.append(message)

    def repeat(self, trace: int):
        """One run plus verify; returns (run, verify, summary) or None."""
        out = self.work / f"out-{self.attempted}"
        flag = ("--trace", str(trace))
        run = self._invoke("run", str(self.scenario), str(out), *flag)
        if run is None:
            return None
        verifies = []
        while True:
            verify = self._invoke("verify", str(out), *flag)
            if verify is None:
                break
            verifies.append(verify)
            if (trace or len(verifies) == VERIFY_MAX
                    or sum(v["elapsed_s"] for v in verifies) >= VERIFY_MIN_S):
                break
        try:
            summary = json.loads((out / "summary.json").read_bytes())
            log_sha = hashlib.sha256((out / "run.jsonl").read_bytes()).hexdigest()
        except (OSError, ValueError) as exc:
            self.fail(f"artifacts unreadable: {exc}")
            return None
        finally:
            shutil.rmtree(out, ignore_errors=True)
        if verify is None:
            return None
        if any(v["lines"] != verify["lines"] for v in verifies):
            self.fail("verify check lines differ between verifies")
            return None
        verify = dict(verifies[0], elapsed_s=statistics.median(
            v["elapsed_s"] for v in verifies))
        try:
            self._check(run, verify, summary, log_sha)
        except OperationFailed as exc:
            self.fail(str(exc))
            return None
        return run, verify, summary

    def _check(self, run, verify, summary, log_sha):
        if run["code"] != 0:
            raise OperationFailed(f"privamm run exited {run['code']}")
        if summary.get("logSha256") != log_sha:
            raise OperationFailed("run.jsonl digest differs from summary.json")
        if self.log_sha is None:
            self.log_sha = log_sha
        elif log_sha != self.log_sha:
            raise OperationFailed(f"logSha256 {log_sha} differs from "
                                  f"{self.log_sha} for the same inputs")
        fails = [line for line in verify["lines"] if line.startswith("FAIL")]
        known = KNOWN_VERIFY_FAILURES.get(self.workload, ("", []))[1]
        unknown = [line for line in fails
                   if not any(p.fullmatch(line) for p in known)]
        if unknown:
            raise OperationFailed(f"verify: {unknown}")
        if verify["code"] != (2 if fails else 0) or not verify["lines"]:
            raise OperationFailed(f"privamm verify exited {verify['code']} "
                                  f"with {len(fails)} failed checks")
        trades = summary["trades"]
        if len(run["trade_ns"]) != trades["settled"] + trades["voided"]:
            raise OperationFailed("trade phase count differs from summary")
        if len(run["seal_end_ns"]) != summary["master"]["height"]:
            raise OperationFailed("block round count differs from summary")
        if "trace" in run:
            calls = run["trace"]["calls"]
            rounds = (calls.get("mpc.MpcSession.settle_product", 0)
                      + calls.get("mpc.MpcSession.secure_sum", 0))
            if rounds != summary["mpc"]["online_rounds"]:
                raise OperationFailed(
                    f"traced settle_product + secure_sum calls {rounds} != "
                    f"online_rounds {summary['mpc']['online_rounds']}")


def e2e_metrics(run, verify, summary) -> tuple:
    """Scalar end-to-end metrics of one untraced repeat, and its trade
    phase and block-round times in ms."""
    trades = summary["trades"]
    run_s = run["elapsed_s"]
    setup_s = run["setup_s"]
    ends = run["seal_end_ns"]
    metrics = {
        "setup_s": setup_s,
        "run_s": run_s,
        "verify_s": verify["elapsed_s"],
        "tx_per_s": (trades["settled"] + trades["load_txs"]) / (run_s - setup_s),
        "peak_rss_mb": run["peak_rss_mb"],
        "trades_settled_frac": trades["settled"] / trades["scheduled"],
        "verify_ok_frac": (sum(line.startswith("ok") for line in verify["lines"])
                           / len(verify["lines"])),
    }
    samples = {"trade_ms": [ns / 1e6 for ns in run["trade_ns"]],
               "block_ms": [(b - a) / 1e6 for a, b in zip(ends, ends[1:])]}
    return metrics, samples


def _self_s(trace: dict, layer: str) -> float:
    return trace["self_ns"].get(layer, 0) / 1e9


def _mean_per_call(trace: dict, name: str, scale: float) -> float:
    calls = trace["calls"].get(name, 0)
    return trace["total_ns"].get(name, 0) / scale / calls if calls else 0.0


def layer_metrics(run, verify, summary) -> dict:
    """Per-layer metrics of one traced repeat, as (value, unit) pairs."""
    rt, vt = run["trace"], verify["trace"]
    calls, counters = rt["calls"], rt["counters"]
    trades = summary["trades"]
    txs = trades["settled"] + trades["load_txs"]
    perms = counters.get("keccak.permutations", 0)
    commits = calls.get("field_group.pedersen_commit", 0)
    return {
        "keccak.calls": (calls.get("keccak.keccak256", 0), "count"),
        "keccak.permutations": (perms, "count"),
        "keccak.permutations_per_trade": (perms / trades["settled"], "1/trade"),
        "keccak.self_s": (_self_s(rt, "keccak"), "s"),
        "rlp.decode_calls": (calls.get("rlp.rlp_decode", 0), "count"),
        "rlp.self_s": (_self_s(rt, "rlp"), "s"),
        "trie.update_calls": (calls.get("trie.Trie.update", 0), "count"),
        "trie.update_ms": (_mean_per_call(rt, "trie.Trie.update", 1e6), "ms"),
        "trie.prove_calls": (calls.get("trie.Trie.prove", 0), "count"),
        "trie.self_s": (_self_s(rt, "trie"), "s"),
        "field_group.commit_calls": (commits, "count"),
        "field_group.commit_us": (
            _mean_per_call(rt, "field_group.pedersen_commit", 1e3), "us"),
        "field_group.commits_per_tx": (commits / txs, "1/tx"),
        "field_group.self_s": (_self_s(rt, "field_group"), "s"),
        "mpc.settle_calls": (calls.get("mpc.MpcSession.settle_product", 0),
                             "count"),
        "mpc.settle_us": (
            _mean_per_call(rt, "mpc.MpcSession.settle_product", 1e3), "us"),
        "mpc.online_rounds": (summary["mpc"]["online_rounds"], "count"),
        "mpc.messages": (summary["mpc"]["messages"], "count"),
        "mpc.self_s": (_self_s(rt, "mpc"), "s"),
        "balance_proof.prove_calls": (calls.get("balance_proof.prove", 0),
                                      "count"),
        "balance_proof.verify_calls": (calls.get("balance_proof.verify", 0),
                                       "count"),
        "balance_proof.self_s": (_self_s(rt, "balance_proof"), "s"),
        "protocol.trade_phase_calls": (
            calls.get("protocol.run_trading_phase", 0), "count"),
        "protocol.share_checks": (
            calls.get("protocol.check_share_commitment_consistency", 0),
            "count"),
        "protocol.init_phase_s": (
            rt["total_ns"].get("protocol.run_init_phase", 0) / 1e9, "s"),
        "protocol.self_s": (_self_s(rt, "protocol"), "s"),
        "sharding.submit_calls": (calls.get("sharding.submit_tx", 0), "count"),
        "sharding.blocks_produced": (
            counters.get("sharding.blocks_produced", 0), "count"),
        "sharding.blocks_missed": (
            counters.get("sharding.blocks_missed", 0), "count"),
        "sharding.splits": (calls.get("sharding.split_shard", 0), "count"),
        "sharding.merges": (calls.get("sharding.merge_shards", 0), "count"),
        "sharding.self_s": (_self_s(rt, "sharding"), "s"),
        "adversary.trials": (counters.get("adversary.trials", 0), "count"),
        "adversary.self_s": (_self_s(rt, "adversary"), "s"),
        "amm.quote_calls": (calls.get("amm.quote_buy", 0)
                            + calls.get("amm.quote_sell", 0), "count"),
        "amm.self_s": (_self_s(rt, "amm"), "s"),
        "simulator.self_s": (_self_s(rt, "simulator"), "s"),
        "cli.write_s": (rt["total_ns"].get("cli.write_artifacts", 0) / 1e9, "s"),
        "verify.keccak.permutations": (
            vt["counters"].get("keccak.permutations", 0), "count"),
        "verify.keccak.self_s": (_self_s(vt, "keccak"), "s"),
        "verify.trie.verify_calls": (
            vt["calls"].get("trie.verify_account_proof", 0), "count"),
        "verify.trie.verify_ms": (
            _mean_per_call(vt, "trie.verify_account_proof", 1e6), "ms"),
        "verify.field_group.self_s": (_self_s(vt, "field_group"), "s"),
        "verify.cli.self_s": (_self_s(vt, "cli"), "s"),
    }


def _counts(run, verify) -> tuple:
    return (run["trace"]["calls"], run["trace"]["counters"],
            verify["trace"]["calls"], verify["trace"]["counters"])


def measure(bench: Bench, trace: int, seconds: int) -> tuple:
    """Repeat until the next repeat would overrun; returns (metrics, notes)."""
    deadline = time.perf_counter() + seconds
    plain, traced = [], []
    while True:
        started = time.perf_counter()
        want_trace = trace == 1 and len(traced) < len(plain)
        result = bench.repeat(1 if want_trace else 0)
        if result is None:
            break
        (traced if want_trace else plain).append(result)
        last = time.perf_counter() - started
        enough = len(traced) >= 2 if trace else True
        if enough and time.perf_counter() + last > deadline:
            break

    notes = []
    if not plain or (trace and not traced):
        return {}, notes
    per_repeat = [e2e_metrics(*r) for r in plain]
    # Percentiles are taken over the samples of all untraced repeats.
    pooled = {name: [x for _, samples in per_repeat for x in samples[name]]
              for name in ("trade_ms", "block_ms")}
    notes.append(f"repeats: {len(plain)} untraced, {len(traced)} traced; "
                 f"percentile samples over all untraced repeats: "
                 f"{len(pooled['trade_ms'])} trade phases, "
                 f"{len(pooled['block_ms'])} block-round intervals")
    notes.append("untraced run_s per repeat, reference s (wall s): "
                 + " ".join(f"{r[0]['elapsed_s']:.3f} ({r[0]['wall_s']:.3f})"
                            for r in plain))
    if not trace:
        metrics = {n: statistics.median(m[n] for m, _ in per_repeat)
                   for n in per_repeat[0][0]}
        for name, values in pooled.items():
            for q in (50, 90):
                value, beyond = percentile(values, q / 100)
                # A percentile needs ten samples above it to be reported.
                if beyond >= 10:
                    metrics[f"{name}_p{q}"] = value
                else:
                    notes.append(f"{name}_p{q} omitted: fewer than 10 "
                                 f"samples above it")
        return {n: (metrics[n], E2E_UNITS[n]) for n in E2E_UNITS
                if n in metrics}, notes

    first = _counts(*traced[0][:2])
    for r in traced[1:]:
        if _counts(*r[:2]) != first:
            bench.fail("per-layer counts differ between traced repeats")
    layers = [layer_metrics(*r) for r in traced]
    # Counts were checked equal above; times are medians over traced repeats.
    metrics = {n: (value if unit == "count"
                   else statistics.median(m[n][0] for m in layers), unit)
               for n, (value, unit) in layers[0].items()}
    run_plain = statistics.median(r[0]["elapsed_s"] for r in plain)
    run_traced = statistics.median(r[0]["elapsed_s"] for r in traced)
    metrics["trace.overhead_s"] = (run_traced - run_plain, "s")
    notes.append(f"traced run_s {run_traced:.3f} s, untraced {run_plain:.3f} s, "
                 f"{traced[0][0]['trace']['spans']} spans per traced run")
    return metrics, notes


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(GENERATORS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not (ROOT / "src" / "privamm" / "cli.py").is_file():
        print(f"perfbench: no privamm sources under {ROOT / 'src'}",
              file=sys.stderr)
        return 2

    work = ROOT / ".perfbench_work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    try:
        bench = Bench(args.workload, args.seed, work)
        metrics, notes = measure(bench, args.trace, args.seconds)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):
            work.parent.rmdir()

    print(f"workload {args.workload}, seed {args.seed}, trace {args.trace}, "
          f"logSha256 {bench.log_sha}")
    known = KNOWN_VERIFY_FAILURES.get(args.workload)
    if known:
        print(f"known verify failure: {known[0]}")
    for note in notes + bench.problems:
        print(note)
    for name, (value, unit) in metrics.items():
        print(f"  {name:32s} {value:14.6g} {unit}")
    correct = bench.failed == 0 and bool(metrics)
    print(json.dumps({
        "correct": correct,
        "attempted": bench.attempted,
        "failed": bench.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
