"""Command line entry point: run scenarios, verify their artifacts.

``privamm run scenario.json --out DIR`` executes a scenario and writes
four artifacts: ``run.jsonl`` (the full public event log), ``metrics.csv``
(per-shard per-block-round counters), ``attack_report.csv`` (adversary
experiment statistics), and ``summary.json`` (group parameters,
verification key, final shard states, and a digest of the event log).

``privamm verify DIR`` re-checks the artifacts from scratch: every block
header digest and parent link, every balance proof (its statement tag,
its account proof walked to the state root of the block it names by
hash and height, and balance >= threshold), anchor-table completeness,
its binding into the masterchain and each entry's binding to its
shard's logged header, constant-product bounds on published pools, and
every commitment opening. It parses each log line once, against
`EVENT_FIELDS`: a line that does not parse fails ``run.jsonl
well-formed`` with a ``malformed`` detail, and no pass reads it. Exit
codes: 0 success, 1 configuration or usage error, 2 runtime invariant
or verification failure.
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
from .rlp import canonical_int
from .scenario import ScenarioError, load_scenario, parse_seed
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
        config.seed = parse_seed(args.seed)
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


def _checked(ok, what: str):
    """The parser that passes on each JSON value ``ok`` accepts."""
    def parse(v):
        if not ok(v):
            raise TypeError(f"not {what}")
        return v
    return parse


_STRING = _checked(lambda v: type(v) is str, "a string")
_INTEGER = _checked(lambda v: type(v) is int, "an integer")
_SHARD_IDS = _checked(lambda v: type(v) is list and all(
    type(sid) is str for sid in v), "a list of shard ids")
#: Shard id -> {"height": int, "hash": str}, kept as read.
_ANCHOR_TABLE = _checked(lambda v: type(v) is dict and all(
    type(e) is dict and type(e.get("height")) is int
    and type(e.get("hash")) is str for e in v.values()),
    "a table of shard heights and hashes")
_PROOF = {"actor": _STRING, "proof": balance_proof.Proof.from_json}
_POOL = {"tick": _INTEGER, "Es": canonical_int, "Ms": canonical_int, "C2": canonical_int}
_COMMITMENT = {"actor": _STRING, "commitment": canonical_int}

#: The fields `verify` reads from each event kind it reads, each with the
#: one parser that reads it. Lines of other kinds are not read further.
EVENT_FIELDS = {
    "block": {"chain": _STRING, "header": BlockHeader.from_json},
    "init_balance_proof": _PROOF,
    "trade_proof_published": _PROOF,
    "anchors": {"masterHeight": _INTEGER, "table": _ANCHOR_TABLE,
                "live": _SHARD_IDS},
    "pool_opened": _POOL,
    "pool_published": _POOL,
    "init_commitment": _COMMITMENT,
    "order_committed": _COMMITMENT,
    "commitment_opened": {"actor": _STRING, "y": canonical_int, "r": canonical_int},
}


def read_log(log_bytes: bytes) -> Tuple[List[dict], str]:
    """Parse run.jsonl once: returns, in log order, a record (``event``,
    ``line``, parsed fields) for each line of a declared kind, and the
    first malformed line's detail or "". No pass sees a malformed line."""
    records, bad = [], ""
    for n, line in enumerate(log_bytes.splitlines(), 1):
        kind, field = "event", "json"
        try:
            ev = json.loads(line)
            if type(ev) is not dict:
                raise TypeError("not a JSON object")
            kind = ev.get("event")
            if type(kind) is not str or kind not in EVENT_FIELDS:
                continue
            record = {"event": kind, "line": n}
            for field, parse in EVENT_FIELDS[kind].items():
                record[field] = parse(ev[field])
        except (KeyError, ValueError, TypeError) as exc:
            cause = f"missing {exc}" if isinstance(exc, KeyError) else exc
            bad = bad or f"malformed {kind}: {field}: {cause}{_at_line(n)}"
            continue
        records.append(record)
    return records, bad


def _of(records, *kinds) -> List[dict]:
    return [r for r in records if r["event"] in kinds]


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
        except (ValueError, KeyError, TypeError) as exc:
            self.check(False, "summary.json well-formed", str(exc))
            return EXIT_RUNTIME
        self.check(True, "summary.json well-formed")
        self.check(hashlib.sha256(log_bytes).hexdigest()
                   == summary.get("logSha256"), "event log digest matches summary")

        records, bad = read_log(log_bytes)
        self.check(not bad, "run.jsonl well-formed", bad)
        headers, held = self._verify_chains(records)
        self._verify_proofs(records, vk, held)
        self._verify_anchors(records, headers)
        self._verify_pools(records)
        self._verify_openings(records, params)
        self._verify_tables()
        return EXIT_RUNTIME if self.failed else EXIT_OK

    # -- individual passes, each over the well-formed records it reads ------

    def _verify_chains(self, records) -> Tuple[list, dict]:
        """Replay every header's digest and parent link, hashed in one
        batch; returns the ``(chain, header)`` pairs and the headerHash ->
        header map of each whose own digest matches. A broken link or a
        bad genesis fails this pass alone: later headers still count."""
        blocks = _of(records, "block")
        headers = [(r["chain"], r["header"]) for r in blocks]
        digests = header_digests([h for _, h in headers])
        fault = replay_headers(headers, digests)
        count, bad = len(headers), ""
        if fault is not None:
            i, cause = fault
            count, bad = i + 1, f"{cause}{_at_line(blocks[i]['line'])}"
        self.check(not bad, f"block headers replay ({count} headers)", bad)
        return headers, {h.header_hash: h
                         for (_, h), digest in zip(headers, digests)
                         if h.header_hash == digest}

    def _verify_proofs(self, records, vk, held) -> None:
        """Check every proof before the first that names an unknown header,
        or a height other than its header's, in one batch. Each must prove
        its event actor's own account, as `submit_tx` demands."""
        items, owners, bad, count = [], [], "", 0
        for count, r in enumerate(_of(records, "init_balance_proof",
                                      "trade_proof_published"), 1):
            proof, actor = r["proof"], r["actor"]
            header = held.get(proof.account.header_hash)
            if header is None:
                # No line number: the benchmark in perfbench/ matches this
                # detail exactly as a known failure of one workload.
                bad = f"account proof for {actor} names an unknown header"
                break
            if proof.account.block_height != header.height:
                bad = (f"account proof for {actor} names height "
                       f"{proof.account.block_height} for the header at "
                       f"height {header.height}{_at_line(r['line'])}")
                break
            items.append((proof, header.state_root))
            owners.append((r["line"], actor))
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

    def _verify_anchors(self, records, headers) -> None:
        master_root_at = {h.height: h.state_root for chain, h in headers
                          if chain == "master"}
        held = {(chain, h.height): "0x" + h.header_hash.hex()
                for chain, h in headers}
        bad, count, heights = "", 0, []
        for count, r in enumerate(_of(records, "anchors"), 1):
            table, height, at = r["table"], r["masterHeight"], _at_line(r["line"])
            heights.append(height)
            missing = [sid for sid in r["live"] if sid not in table]
            if missing:
                bad = f"live shards missing anchors: {missing}{at}"
                break
            if master_root_at.get(height) != anchor_root(table):
                bad = f"anchor table not bound at height {height}{at}"
                break
            # Each entry must name the header the log holds for its chain.
            forged = [f"{sid}#{entry['height']}"
                      for sid, entry in table.items()
                      if held.get((sid, entry["height"])) != entry["hash"]]
            if forged:
                bad = f"anchor names no logged header at {forged[0]}{at}"
                break
        # Every masterchain block after genesis seals exactly one anchor
        # round; gaps mean withheld anchors.
        expected = list(range(1, max(master_root_at, default=0) + 1))
        if not bad and heights != expected:
            bad = f"anchor rounds cover master heights {heights}, expected {expected}"
        self.check(not bad, f"anchor tables complete and bound ({count} rounds)", bad)

    def _verify_pools(self, records) -> None:
        bad, count = "", 0
        for count, r in enumerate(_of(records, "pool_opened",
                                      "pool_published"), 1):
            e_s, m_s, at = r["Es"], r["Ms"], _at_line(r["line"])
            if e_s <= 0 or m_s <= 0:
                bad = f"non-positive reserves at tick {r['tick']}{at}"
                break
            if 2 * abs(e_s * m_s - r["C2"]) > e_s:
                bad = f"pool off the curve at tick {r['tick']}{at}"
                break
        self.check(not bad, f"published pools on the constant-product curve "
                            f"({count} states)", bad)

    def _verify_openings(self, records, params) -> None:
        last_commitment, bad, count = {}, "", 0
        for r in _of(records, "init_commitment", "order_committed",
                     "commitment_opened"):
            actor, at = r["actor"], _at_line(r["line"])
            if r["event"] != "commitment_opened":
                last_commitment[actor] = r["commitment"]
                continue
            count += 1
            commitment = last_commitment.get(actor)
            if commitment is None:
                bad = f"opening without commitment by {actor}{at}"
                break
            if not pedersen_verify_opening(params, commitment,
                                           Opening(x=r["y"], r=r["r"])):
                bad = f"opening by {actor} does not verify{at}"
                break
        self.check(not bad, f"commitment openings verify ({count} openings)", bad)

    def _verify_tables(self) -> None:
        """Each CSV artifact is UTF-8 with its header and full rows;
        metrics.csv's counters are integers, its profit a fraction."""
        for name, fields in (("metrics.csv", METRICS_FIELDS),
                             ("attack_report.csv", ATTACK_FIELDS)):
            data = self._read(name)
            if data is None:
                continue
            bad, rows = "", 0
            try:
                header, *table = list(csv.reader(data.decode().splitlines())) or [[]]
                if tuple(header) != fields:
                    raise ValueError("unexpected header")
                for rows, row in enumerate(table, 1):
                    if len(row) != len(fields):
                        raise ValueError(f"{len(row)} fields")
                    if fields is METRICS_FIELDS:
                        tick, _, tx_count, blocks, _, profit = row
                        num, den = profit.split("/")
                        int(tick), int(tx_count), int(blocks), int(num), int(den)
            except (ValueError, csv.Error) as exc:  # also not UTF-8, a NUL
                bad = f"row {rows}: {exc}" if rows else str(exc)
            counted = f" ({rows} rows)" if fields is METRICS_FIELDS else ""
            self.check(not bad, f"{name} well-formed{counted}", bad)


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
