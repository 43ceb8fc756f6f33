"""End-to-end runs: artifacts, verification, tamper detection, exit codes."""

import csv
import json
import shutil
import sys
from collections import Counter, defaultdict
from dataclasses import replace
from pathlib import Path

import pytest

from privamm import keccak as keccak_mod
from privamm.cli import main, verify_artifacts
from privamm.keccak import keccak256
from privamm.scenario import load_scenario, parse_scenario
from privamm.simulator import Simulator
from privamm.trie import MAX_NONCE, BlockHeader, HeaderChain

SCENARIOS = Path(__file__).resolve().parent.parent / "scenarios"

SMALL = {
    "seed": 5,
    "group_bits": 256,
    "committee_f": 1,
    "freshness": {"confirmations": 2, "window": 1000},
    "block_interval": 5,
    "ticks": 30,
    "latency": {"low": 0, "high": 1},
    "workchains": [
        {"workchain_id": 0,
         "zone": {"west": 0, "east": 10, "south": 0, "north": 10}},
    ],
    "peers": [
        {"peer_id": f"p{i}", "lat": 1 + i, "lon": 1 + i, "balance": "100000"}
        for i in range(5)
    ],
    "lps": [
        {"lp_id": "p1", "liquidity_e": "100"},
        {"lp_id": "p2", "liquidity_e": "200"},
    ],
    "m_deposit": "300",
    "trades": [
        {"tick": 4, "trader_id": "p3", "side": "buy",
         "quantity_e": "30", "limit_rate": "100"},
        {"tick": 9, "trader_id": "p4", "side": "sell",
         "quantity_e": "12.5", "limit_rate": "0"},
        {"tick": 14, "trader_id": "p3", "side": "buy",
         "quantity_e": "60", "limit_rate": "0.5"},  # limit too tight
    ],
}


def run_cli(scenario_obj, out_dir, extra=()):
    scenario_path = out_dir.parent / "scenario.json"
    scenario_path.write_text(json.dumps(scenario_obj))
    return main(["run", str(scenario_path), "--out", str(out_dir), *extra])


@pytest.fixture(scope="module")
def small_run(tmp_path_factory):
    out = tmp_path_factory.mktemp("artifacts") / "small"
    assert run_cli(SMALL, out) == 0
    return out


# -- artifacts ----------------------------------------------------------------

def test_run_writes_all_artifacts(small_run):
    names = sorted(p.name for p in small_run.iterdir())
    assert names == ["attack_report.csv", "metrics.csv", "run.jsonl",
                     "summary.json"]


def test_summary_reflects_run(small_run):
    summary = json.loads((small_run / "summary.json").read_text())
    assert summary["seed"] == 5
    assert summary["groupBits"] == 256
    assert summary["trades"]["scheduled"] == 3
    assert summary["trades"]["settled"] == 2
    assert summary["trades"]["rejected"] == 1
    (shard,) = summary["shards"]
    assert shard["shardId"] == "shard-0"
    # 300 deposited, 30 bought, 12.5 sold back: 282.5 units on the grid.
    assert shard["pool"]["Es"] == str(282_500_000)


def test_metrics_row_per_shard_per_round(small_run):
    rows = list(csv.DictReader((small_run / "metrics.csv").read_text()
                               .splitlines()))
    # 30 ticks, interval 5 -> rounds at ticks 5..25.
    assert [r["tick"] for r in rows] == [str(t) for t in range(5, 30, 5)]
    assert all(r["shard_id"] == "shard-0" for r in rows)


def test_limit_rejection_logged_not_fatal(small_run):
    events = [json.loads(l) for l in
              (small_run / "run.jsonl").read_text().splitlines()]
    rejected = [e for e in events if e["event"] == "order_rejected"]
    assert len(rejected) == 1
    assert rejected[0]["actor"] == "p3"
    assert "limit" in rejected[0]["reason"]


def smoke_with(tmp_path, edit) -> Path:
    """Run the smoke scenario after ``edit`` changes it; returns the
    artifact directory."""
    scenario = json.loads((SCENARIOS / "smoke.json").read_text())
    edit(scenario)
    tmp_path.mkdir(exist_ok=True)
    out = tmp_path / "out"
    assert run_cli(scenario, out) == 0
    return out


def run_events(out: Path) -> list:
    return [json.loads(l) for l in (out / "run.jsonl").read_text().splitlines()]


def test_order_above_balance_rejected_not_fatal(tmp_path):
    """A trader whose balance cannot cover the locked amount fails its
    balance proof: the order is rejected, later orders settle, and the
    artifacts verify."""
    def low_balance(scenario):
        (p4,) = [p for p in scenario["peers"] if p["peer_id"] == "p4"]
        p4["balance"] = "5"

    out = smoke_with(tmp_path, low_balance)
    events = run_events(out)
    rejected = [n for n, ev in enumerate(events)
                if ev["event"] == "order_rejected" and ev["actor"] == "p4"]
    assert rejected
    first = events[rejected[0]]
    assert first["reason"] == "balance proof failed: balance below threshold"
    assert any(ev["event"] == "trade_settled"
               for ev in events[rejected[0]:])
    assert verify_artifacts(str(out))[0] == 0


def test_buy_costing_more_than_the_balance_rejected_not_fatal(tmp_path):
    """p4's balance covers the 10 units it locks but not the money a buy
    of 10 costs once p5's buy of 200 has raised the price. The order is
    rejected before anything else is logged or drawn, and the run ends
    normally and verifies."""
    def trades(with_p4):
        def edit(scenario):
            (p4,) = [p for p in scenario["peers"] if p["peer_id"] == "p4"]
            p4["balance"] = "10.5"
            scenario["trades"] = [
                {"tick": 5, "trader_id": "p5", "side": "buy",
                 "quantity_e": "200", "limit_rate": "100"},
                {"tick": 15, "trader_id": "p4", "side": "buy",
                 "quantity_e": "10", "limit_rate": "100"},
            ][:2 if with_p4 else 1]
        return edit

    out = smoke_with(tmp_path / "with", trades(True))
    events = run_events(out)
    rejected = [(ev["actor"], ev["reason"]) for ev in events
                if ev["event"] == "order_rejected"]
    assert rejected == [("p4", "balance does not cover the money cost")]
    assert verify_artifacts(str(out))[0] == 0

    without = run_events(smoke_with(tmp_path / "without", trades(False)))
    assert [ev for ev in events if ev["event"] != "order_rejected"] == without


def test_orders_past_the_nonce_limit_rejected_not_fatal(tmp_path):
    """A leaf holds its nonce in one RLP byte, so a trader settles at most
    MAX_NONCE trades. Later orders, placed after all others arrive, are
    rejected without other events or draws: the log is that of a run
    without them, plus the rejections."""
    def one_unit_trades(count):
        def edit(scenario):
            scenario["trades"] = [
                {"tick": 1 + i // 3 if i < MAX_NONCE else 50, "trader_id": "p4",
                 "side": "buy" if i % 2 == 0 else "sell",
                 "quantity_e": "1", "limit_rate": "2" if i % 2 == 0 else "0.5"}
                for i in range(count)
            ]
        return edit

    out = smoke_with(tmp_path / "over", one_unit_trades(150))
    summary = json.loads((out / "summary.json").read_text())
    assert summary["trades"]["settled"] == MAX_NONCE
    assert summary["trades"]["rejected"] == 150 - MAX_NONCE
    events = run_events(out)
    reasons = {ev["reason"] for ev in events if ev["event"] == "order_rejected"}
    assert reasons == {f"account nonce limit {MAX_NONCE} reached"}
    assert verify_artifacts(str(out))[0] == 0

    within = run_events(smoke_with(tmp_path / "within",
                                   one_unit_trades(MAX_NONCE)))
    kept = [ev for ev in events if ev["event"] != "order_rejected"]
    assert kept == within


def test_verify_passes_on_fresh_run(small_run):
    code, lines = verify_artifacts(str(small_run))
    assert code == 0
    assert all(line.startswith("ok:") for line in lines)


# -- determinism ----------------------------------------------------------------

def test_same_seed_reruns_are_byte_identical(tmp_path):
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    assert run_cli(SMALL, out_a) == 0
    assert run_cli(SMALL, out_b) == 0
    for name in ("run.jsonl", "metrics.csv", "attack_report.csv",
                 "summary.json"):
        assert (out_a / name).read_bytes() == (out_b / name).read_bytes()


def test_seed_override_changes_artifacts(tmp_path):
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    assert run_cli(SMALL, out_a) == 0
    assert run_cli(SMALL, out_b, extra=["--seed", "6"]) == 0
    assert ((out_a / "run.jsonl").read_bytes()
            != (out_b / "run.jsonl").read_bytes())
    assert json.loads((out_b / "summary.json").read_text())["seed"] == 6


# -- exit codes --------------------------------------------------------------------

def test_malformed_scenario_exits_1(tmp_path, capsys):
    bad = dict(SMALL)
    del bad["seed"]
    code = run_cli(bad, tmp_path / "out")
    assert code == 1
    assert "$.seed" in capsys.readouterr().err


def test_unreadable_scenario_exits_1(tmp_path):
    assert main(["run", str(tmp_path / "missing.json"),
                 "--out", str(tmp_path / "out")]) == 1


def test_pool_draining_scenario_exits_2(tmp_path, capsys):
    code = main(["run", str(SCENARIOS / "drain.json"),
                 "--out", str(tmp_path / "out")])
    assert code == 2
    assert "liquidity error" in capsys.readouterr().err


def test_draining_adversary_experiment_exits_2(tmp_path, capsys):
    smoke = json.loads((SCENARIOS / "smoke.json").read_text())
    smoke["adversary"][1]["victim_size_range"] = ["10", "5000"]
    assert run_cli(smoke, tmp_path / "out") == 2
    err = capsys.readouterr().err
    assert "runtime error: adversary experiment 1: liquidity error" in err
    assert "Traceback" not in err


def test_verify_on_non_directory_exits_1(tmp_path):
    assert main(["verify", str(tmp_path / "nothing")]) == 1


# -- tamper detection ----------------------------------------------------------------

def tampered_copy(src: Path, dst: Path, mutate) -> Path:
    shutil.copytree(src, dst)
    mutate(dst)
    return dst


def test_verify_catches_log_edit(small_run, tmp_path):
    def mutate(d):
        lines = (d / "run.jsonl").read_text().splitlines()
        ev = json.loads(lines[3])
        ev["tick"] += 1
        lines[3] = json.dumps(ev, sort_keys=True, separators=(",", ":"))
        (d / "run.jsonl").write_text("\n".join(lines) + "\n")

    out = tampered_copy(small_run, tmp_path / "t", mutate)
    code, lines = verify_artifacts(str(out))
    assert code == 2
    assert any("digest" in l for l in lines if l.startswith("FAIL"))


def edit_events(small_run, out, select, edit):
    """Copy the artifacts, apply ``edit`` to every event ``select``s, and
    re-pin the log digest so that the log digest check still passes.
    ``edit`` changes the event in place or returns what replaces it.
    Returns the FAIL lines and the edited events' 1-based line numbers."""
    edited = []

    def mutate(d):
        lines = (d / "run.jsonl").read_text().splitlines()
        for i, line in enumerate(lines):
            ev = json.loads(line)
            if select(ev):
                replacement = edit(ev)
                lines[i] = json.dumps(ev if replacement is None
                                      else replacement,
                                      sort_keys=True, separators=(",", ":"))
                edited.append(i + 1)
        blob = "\n".join(lines) + "\n"
        (d / "run.jsonl").write_bytes(blob.encode())
        import hashlib
        summary = json.loads((d / "summary.json").read_text())
        summary["logSha256"] = hashlib.sha256(blob.encode()).hexdigest()
        (d / "summary.json").write_text(json.dumps(summary, indent=2,
                                                   sort_keys=True))

    code, lines = verify_artifacts(str(tampered_copy(small_run, out, mutate)))
    assert code == 2
    return [l for l in lines if l.startswith("FAIL")], edited


def forge_first_trade_proof(small_run, out, edit):
    """``edit_events`` on the proof of the first published trade; returns
    the FAIL lines and that event's line number."""
    found = []

    def first_trade(ev):
        if found or ev["event"] != "trade_proof_published":
            return False
        found.append(ev)
        return True

    fails, (line,) = edit_events(small_run, out, first_trade,
                                 lambda ev: edit(ev["proof"]))
    return fails, line


def raise_threshold(proof):
    proof["threshold"] = str(2**255)


def test_verify_catches_forged_proof(small_run, tmp_path):
    (fail,), line = forge_first_trade_proof(small_run, tmp_path / "t",
                                            raise_threshold)
    assert fail.startswith("FAIL: balance and account proofs replay (")
    assert fail.endswith("(balance proof for p3: balance below threshold "
                         f"at run.jsonl line {line})")


def test_verify_fail_line_names_tampered_proof_node(small_run, tmp_path):
    depths = []

    def flip_last_node_byte(proof):
        nodes = proof["account"]["nodes"]
        nodes[-1] = nodes[-1][:-2] + ("01" if nodes[-1][-2:] == "00" else "00")
        depths.append(len(nodes) - 1)

    (fail,), line = forge_first_trade_proof(small_run, tmp_path / "t",
                                            flip_last_node_byte)
    assert depths[0] > 0
    assert fail.endswith(f"(balance proof for p3: hash mismatch at node "
                         f"{depths[0]} at run.jsonl line {line})")


def test_verify_fail_line_names_tampered_header(small_run, tmp_path):
    def at_height_3(ev):
        return ev["event"] == "block" and ev["header"]["height"] == 3

    def relink(ev):
        ev["header"]["parentHash"] = "0x" + "11" * 32

    events = [json.loads(l)
              for l in (small_run / "run.jsonl").read_text().splitlines()]
    fails, (line, *_) = edit_events(small_run, tmp_path / "t", at_height_3,
                                    relink)
    target = events[line - 1]
    count = sum(ev["event"] == "block" for ev in events[:line])
    assert fails[0] == (f"FAIL: block headers replay ({count} headers) "
                        f"(digest mismatch at {target['chain']}#3 "
                        f"at run.jsonl line {line})")


def first_of(kind):
    """An ``edit_events`` selector for the first event of ``kind``."""
    found = []

    def select(ev):
        if found or ev["event"] != kind:
            return False
        found.append(ev)
        return True
    return select


def without(field):
    """An ``edit_events`` edit that drops ``field`` from the event."""
    return lambda ev: {k: v for k, v in ev.items() if k != field}


@pytest.mark.parametrize("field, value, cause", [
    ("parentHash", "0xzz", "non-hexadecimal number"),
    ("height", "3", "height and timestamp must be non-negative integers"),
    ("chain", ["shard-0"], "chain id must be a string"),
])
def test_verify_fail_line_names_malformed_header(small_run, tmp_path,
                                                 field, value, cause):
    """An unreadable header gives a FAIL line, not a traceback."""
    def garble(ev):
        (ev if field == "chain" else ev["header"])[field] = value

    fails, (line,) = edit_events(small_run, tmp_path / "t", first_of("block"),
                                 garble)
    fail = fails[0]
    assert fail.startswith("FAIL: block headers replay (1 headers) "
                           f"(malformed header: {cause}")
    assert fail.endswith(f" at run.jsonl line {line})")
    assert main(["verify", str(tmp_path / "t")]) == 2


@pytest.mark.parametrize("field, value, cause", [
    ("live", 5, "live must be a list of shard ids"),
    ("live", [["shard-0"]], "live must be a list of shard ids"),
    ("table", ["shard-0"], "table must be an object"),
    ("masterHeight", "1", "masterHeight must be an integer"),
])
def test_verify_fail_line_names_malformed_anchors(small_run, tmp_path,
                                                  field, value, cause):
    """An unreadable anchors event gives a FAIL line, not a traceback."""
    fails, (line,) = edit_events(small_run, tmp_path / "t",
                                 first_of("anchors"),
                                 lambda ev: ev.update({field: value}))
    assert fails == [f"FAIL: anchor tables complete and bound (1 rounds) "
                     f"(malformed anchors: {cause} at run.jsonl line {line})"]
    assert main(["verify", str(tmp_path / "t")]) == 2


@pytest.mark.parametrize("kind, edit, label, cause", [
    ("pool_published", lambda ev: ev.update(Es="x"),
     "published pools on the constant-product curve",
     "malformed pool: invalid literal for int() with base 10: 'x'"),
    ("pool_published", without("C2"),
     "published pools on the constant-product curve", "malformed pool: 'C2'"),
    ("commitment_opened", lambda ev: ev.update(y="zz"),
     "commitment openings verify", "malformed commitment_opened: "
     "invalid literal for int() with base 10: 'zz'"),
    ("order_committed", lambda ev: ev.update(commitment="zz"),
     "commitment openings verify", "malformed order_committed: "
     "invalid literal for int() with base 10: 'zz'"),
    ("trade_proof_published", without("actor"),
     "balance and account proofs replay", "malformed proof: 'actor'"),
    ("parameters", lambda ev: [1, 2], "run.jsonl well-formed",
     "event is not an object"),
], ids=["pool-reserve", "pool-no-C2", "opening", "commitment",
        "proof-no-actor", "not-an-object"])
def test_verify_fail_line_names_malformed_event(small_run, tmp_path, kind,
                                                edit, label, cause):
    """An unreadable event gives a FAIL line naming it, not a traceback."""
    fails, (line,) = edit_events(small_run, tmp_path / "t", first_of(kind),
                                 edit)
    (fail,) = fails
    assert fail.startswith(f"FAIL: {label}")
    assert fail.endswith(f"({cause} at run.jsonl line {line})")
    assert main(["verify", str(tmp_path / "t")]) == 2


def test_verify_catches_a_forged_shard_tip(small_run, tmp_path):
    """The last shard block swapped for a header with another state root
    still links to its parent, but the anchor table that sealed it names
    the original."""
    events = run_events(small_run)
    last = max(n for n, ev in enumerate(events, 1)
               if ev["event"] == "block" and ev["chain"] == "shard-0")
    seen = []

    def last_shard_block(ev):
        seen.append(ev)
        return len(seen) == last

    def forge(ev):
        h = BlockHeader.from_json(ev["header"])
        ev["header"] = BlockHeader.make(h.height, h.parent_hash, h.timestamp,
                                        b"\xee" * 32).to_json()

    fails, _ = edit_events(small_run, tmp_path / "t", last_shard_block, forge)
    anchors = [n for n, ev in enumerate(events, 1) if ev["event"] == "anchors"]
    sealed = min(n for n in anchors if n > last)
    height = events[last - 1]["header"]["height"]
    assert fails == [
        f"FAIL: anchor tables complete and bound "
        f"({anchors.index(sealed) + 1} rounds) (anchor names no logged "
        f"header at shard-0#{height} at run.jsonl line {sealed})"]


@pytest.mark.parametrize("tamper", ["state root", "parent", "genesis"])
def test_validate_and_verify_reject_the_same_header(small_run, tmp_path,
                                                     tamper):
    """One tamper, applied to a HeaderChain rebuilt from the log and to the
    log itself: ``validate`` and ``verify`` stop at the same header."""
    events = [json.loads(l)
              for l in (small_run / "run.jsonl").read_text().splitlines()]
    blocks = [(n, BlockHeader.from_json(ev["header"]))
              for n, ev in enumerate(events, 1)
              if ev["event"] == "block" and ev["chain"] == "shard-0"]
    height, cause = {"state root": (3, "digest mismatch at shard-0#3"),
                     "parent": (3, "broken link at shard-0#3"),
                     "genesis": (0, "bad genesis for shard-0")}[tamper]
    line, victim = blocks[height]
    if tamper == "state root":  # a new root under the old hash
        forged = replace(victim, state_root=b"\xff" * 32)
    else:  # a self-consistent header under a parent not on the chain
        forged = BlockHeader.make(victim.height, b"\x11" * 32,
                                  victim.timestamp, victim.state_root)

    chain = HeaderChain()
    chain.headers = [h for _, h in blocks]
    assert chain.validate() is None
    chain.headers[height] = forged
    assert chain.validate() == height

    fails, edited = edit_events(small_run, tmp_path / "t",
                                lambda ev: ev["event"] == "block"
                                and ev["header"] == victim.to_json(),
                                lambda ev: ev.update(header=forged.to_json()))
    assert edited == [line]
    count = sum(ev["event"] == "block" for ev in events[:line])
    assert fails[0] == (f"FAIL: block headers replay ({count} headers) "
                        f"({cause} at run.jsonl line {line})")


def test_verify_rejects_a_hash_field_that_is_not_canonical(small_run,
                                                           tmp_path):
    """A height-3 header whose parentHash starts ``zz`` and whose stateRoot
    starts ``QQ`` still has 32 bytes of hex after its first two
    characters, but it is not what ``to_json`` writes."""
    def garble(ev):
        header = ev["header"]
        header["parentHash"] = "zz" + header["parentHash"][2:]
        header["stateRoot"] = "QQ" + header["stateRoot"][2:]

    events = run_events(small_run)
    fails, (line,) = edit_events(
        small_run, tmp_path / "t",
        lambda ev: ev["event"] == "block" and ev["chain"] == "shard-0"
        and ev["header"]["height"] == 3, garble)
    count = sum(ev["event"] == "block" for ev in events[:line])
    assert fails[0] == (f"FAIL: block headers replay ({count} headers) "
                        f"(malformed header: parentHash must be 0x and 64 "
                        f"lowercase hex digits at run.jsonl line {line})")
    assert main(["verify", str(tmp_path / "t")]) == 2


def test_a_broken_link_fails_the_header_pass_alone(tmp_path):
    """On ``merge``, one shard header relinked to a parent not on its
    chain fails the header replay; the proofs that name headers logged
    after it still find them, so every other pass is ok."""
    src = tmp_path / "merge"
    assert main(["run", str(SCENARIOS / "merge.json"), "--out", str(src)]) == 0
    events = run_events(src)
    named = {ev["proof"]["account"]["headerHash"] for ev in events
             if "proof" in ev}
    named |= {entry["hash"] for ev in events if ev["event"] == "anchors"
              for entry in ev["table"].values()}
    blocks = [(n, ev) for n, ev in enumerate(events, 1)
              if ev["event"] == "block"]
    # The first shard header no proof or anchor names, with a header
    # logged after it that a proof names.
    line, victim = next(
        (n, ev) for n, ev in blocks if ev["chain"] != "master"
        and ev["header"]["headerHash"] not in named
        and any(m > n and later["header"]["headerHash"] in named
                for m, later in blocks))

    def relink(ev):
        h = BlockHeader.from_json(ev["header"])
        ev["header"] = BlockHeader.make(h.height, b"\x11" * 32, h.timestamp,
                                        h.state_root).to_json()

    fails, edited = edit_events(src, tmp_path / "t",
                                lambda ev: ev == victim, relink)
    assert edited == [line]
    count = sum(n <= line for n, _ in blocks)
    assert fails == [f"FAIL: block headers replay ({count} headers) "
                     f"(broken link at {victim['chain']}#"
                     f"{victim['header']['height']} at run.jsonl line {line})"]


def test_verify_batch_reports_the_first_failing_proof(small_run, tmp_path):
    """The proof pass checks all proofs in one batch and still names the
    first one that fails, here the second of the log and its last."""
    events = [json.loads(l)
              for l in (small_run / "run.jsonl").read_text().splitlines()]
    proof_lines = [n for n, ev in enumerate(events, 1) if "proof" in ev]
    assert len(proof_lines) > 2
    tampered = {proof_lines[1], proof_lines[-1]}
    seen = []

    def second_or_last_proof(ev):
        seen.append(ev)
        return len(seen) in tampered

    (fail,), lines = edit_events(small_run, tmp_path / "t",
                                 second_or_last_proof,
                                 lambda ev: raise_threshold(ev["proof"]))
    assert set(lines) == tampered
    actor = events[proof_lines[1] - 1]["actor"]
    assert fail == ("FAIL: balance and account proofs replay (2 proofs) "
                    f"(balance proof for {actor}: balance below threshold "
                    f"at run.jsonl line {proof_lines[1]})")


def test_verify_rejects_public_data_forgery(small_run, tmp_path):
    """A leaf node fabricated from public data, claiming a balance of
    10^30 for the trader, under the header the proof names."""
    from privamm.rlp import rlp_encode
    from privamm.trie import AccountLeaf, encode_account_leaf, hp_encode

    def fabricate(proof):
        address = bytes.fromhex(proof["account"]["address"][2:])
        path = bytes(b >> s & 0x0F for b in keccak256(address) for s in (4, 0))
        leaf = encode_account_leaf(AccountLeaf(nonce=0, balance=10**30))
        node = rlp_encode([hp_encode(path, True), leaf])
        proof["account"]["nodes"] = ["0x" + node.hex()]
        proof["threshold"] = str(10**29)

    (fail,), line = forge_first_trade_proof(small_run, tmp_path / "t",
                                            fabricate)
    assert fail.endswith("(balance proof for p3: root hash mismatch at node 0 "
                         f"at run.jsonl line {line})")


def test_verify_binds_each_proof_to_its_actor(tmp_path):
    """Swapping two traders' first published proofs keeps every proof
    valid on its own, but each now proves another actor's account."""
    src = tmp_path / "smoke"
    assert main(["run", str(SCENARIOS / "smoke.json"), "--out", str(src)]) == 0
    events = run_events(src)
    proof_lines = [n for n, ev in enumerate(events, 1) if "proof" in ev]
    first = {}
    for n in proof_lines:
        ev = events[n - 1]
        if ev["event"] == "trade_proof_published":
            first.setdefault(ev["actor"], (n, ev["proof"]))
    (p4_line, p4_proof), (p5_line, p5_proof) = first["p4"], first["p5"]
    swap = {p4_line: p5_proof, p5_line: p4_proof}
    seen = []

    def swapped(ev):
        seen.append(ev)
        return len(seen) in swap

    fails, lines = edit_events(src, tmp_path / "t", swapped,
                               lambda ev: ev.update(proof=swap[len(seen)]))
    assert sorted(lines) == sorted(swap)
    count = proof_lines.index(min(swap)) + 1
    actor = events[min(swap) - 1]["actor"]
    assert fails == [f"FAIL: balance and account proofs replay ({count} proofs) "
                     f"(balance proof for {actor}: proof is for another "
                     f"account at run.jsonl line {min(swap)})"]


def test_verify_catches_missing_anchor(small_run, tmp_path):
    def mutate(d):
        lines = (d / "run.jsonl").read_text().splitlines()
        kept = []
        dropped = False
        for line in lines:
            ev = json.loads(line)
            if not dropped and ev["event"] == "anchors":
                dropped = True
                continue
            kept.append(line)
        blob = "\n".join(kept) + "\n"
        (d / "run.jsonl").write_bytes(blob.encode())
        import hashlib
        summary = json.loads((d / "summary.json").read_text())
        summary["logSha256"] = hashlib.sha256(blob.encode()).hexdigest()
        (d / "summary.json").write_text(json.dumps(summary, indent=2,
                                                   sort_keys=True))

    out = tampered_copy(small_run, tmp_path / "t", mutate)
    code, lines = verify_artifacts(str(out))
    assert code == 2


def test_verify_catches_metrics_header_edit(small_run, tmp_path):
    def mutate(d):
        text = (d / "metrics.csv").read_text()
        (d / "metrics.csv").write_text(text.replace("tx_count", "txs"))

    out = tampered_copy(small_run, tmp_path / "t", mutate)
    code, lines = verify_artifacts(str(out))
    assert code == 2


# -- simulator-level behavior ----------------------------------------------------------

def test_simulator_python_api_matches_cli(small_run):
    sim = Simulator(parse_scenario(SMALL))
    summary = sim.run()
    cli_summary = json.loads((small_run / "summary.json").read_text())
    del cli_summary["logSha256"]
    assert summary == cli_summary


def test_split_scenario_conserves_liquidity():
    cfg = load_scenario(str(SCENARIOS / "split.json"))
    sim = Simulator(cfg)
    summary = sim.run()
    splits = [e for e in sim.log.events if e["event"] == "shard_split"]
    assert len(splits) == 1
    parents = {}
    for ev in sim.log.events:
        if ev["event"] == "pool_opened":
            parents[ev["actor"]] = ev
    shards = {s["shardId"]: s for s in summary["shards"]}
    assert set(shards) == {"shard-0.0", "shard-0.1"}
    total_e = sum(int(s["pool"]["Es"]) for s in shards.values())
    total_m = sum(int(s["pool"]["Ms"]) for s in shards.values())
    assert total_e == 600 * 10**6
    assert total_m == 600 * 10**6


def test_merged_shard_resumes_its_pre_split_chain():
    sim = Simulator(load_scenario(str(SCENARIOS / "merge.json")))
    sim.run()
    kinds = [e["event"] for e in sim.log.events]
    split_at = kinds.index("shard_split")
    merge_at = kinds.index("shard_merge")
    blocks = [(i, e["header"]) for i, e in enumerate(sim.log.events)
              if e["event"] == "block" and e["chain"] == "shard-0"]
    pre_split_tip = [h for i, h in blocks if i < split_at][-1]
    resumed = [h for i, h in blocks if i > split_at]
    first = resumed[0]
    assert first["parentHash"] == pre_split_tip["headerHash"]
    assert first["height"] == pre_split_tip["height"] + 1
    assert first["timestamp"] == sim.log.events[merge_at]["tick"]
    shard = sim.topology.shard_by_id("shard-0")
    assert [h.to_json() for h in shard.chain.headers] == [h for _, h in blocks]
    # The resumed runtime's load proof and the post-merge trade both prove
    # against the first resumed block.
    rt = sim.runtimes["shard-0"]
    assert rt.load_proof.account.header_hash.hex() == first["headerHash"][2:]
    trade = next(e for e in sim.log.events
                 if e["event"] == "trade_proof_published")
    assert trade["proof"]["account"]["headerHash"] == first["headerHash"]


def test_verify_passes_on_merge_scenario(tmp_path, capsys):
    out = tmp_path / "merge"
    assert main(["run", str(SCENARIOS / "merge.json"), "--out", str(out)]) == 0
    capsys.readouterr()
    assert main(["verify", str(out)]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert not [line for line in lines if line.startswith("FAIL")]
    assert "ok: block headers replay (35 headers)" in lines


def test_round_proposals_hashed_in_one_batch_and_headers_once(tmp_path,
                                                              monkeypatch):
    """On ``merge``, every round's shard proposals are hashed by one
    ``keccak256_many`` call when two or more shards are live, and each
    header in run.jsonl is hashed exactly once in the whole run."""
    real = {"keccak256": keccak_mod.keccak256,
            "keccak256_many": keccak_mod.keccak256_many}
    calls = []  # (name, digests) of each outermost call
    depth = [0]

    def wrapped(name):
        def hashed(data):
            depth[0] += 1
            try:
                out = real[name](data)
            finally:
                depth[0] -= 1
            if not depth[0]:
                calls.append((name, [out] if name == "keccak256" else out))
            return out
        return hashed

    for module in [m for n, m in sys.modules.items()
                   if n == "privamm" or n.startswith("privamm.")]:
        for name in real:
            if getattr(module, name, None) is real[name]:
                monkeypatch.setattr(module, name, wrapped(name))
    out = tmp_path / "merge"
    assert main(["run", str(SCENARIOS / "merge.json"), "--out", str(out)]) == 0
    monkeypatch.undo()

    events = [json.loads(line)
              for line in (out / "run.jsonl").read_text().splitlines()]
    hashed = Counter(d for _, digests in calls for d in digests)
    headers = [bytes.fromhex(e["header"]["headerHash"][2:])
               for e in events if e["event"] == "block"]
    assert len(headers) == 35
    # The master's genesis is the empty chain's, which every new shard
    # starts from too: hashed at most once per chain.
    empty_genesis = HeaderChain().tip.header_hash
    assert 1 <= hashed[empty_genesis] <= len({e["chain"] for e in events
                                              if e["event"] == "block"})
    assert {hashed[h] for h in headers if h != empty_genesis} == {1}

    # A round's proposals are the shard blocks logged at its tick before
    # its master block; those logged after it open the chains of runtimes
    # built by a split or a merge.
    batches = [set(d) for name, d in calls if name == "keccak256_many"]
    proposals, sealed = defaultdict(set), set()
    for e in events:
        if e["event"] != "block":
            continue
        if e["chain"] == "master":
            sealed.add(e["tick"])
        elif e["tick"] not in sealed:
            proposals[e["tick"]].add(
                bytes.fromhex(e["header"]["headerHash"][2:]))
    shared = {t: p for t, p in proposals.items() if len(p) >= 2}
    assert len(shared) >= 3
    for tick, round_proposals in shared.items():
        assert round_proposals in batches, tick


def test_second_split_resumes_the_children_chains(tmp_path):
    """``merge`` run longer, with a second load window: shard-0 splits,
    merges, then splits again, and its children's chains resume instead of
    restarting at genesis under ids already in the log."""
    scenario = json.loads((SCENARIOS / "merge.json").read_text())
    scenario["ticks"] = 110
    scenario["tx_load"].append({"lat": 5, "lon": 5, "per_block": 5,
                                "start_tick": 60, "end_tick": 82})
    out = tmp_path / "resplit"
    assert run_cli(scenario, out) == 0
    events = [json.loads(l) for l in (out / "run.jsonl").read_text().splitlines()]
    assert [(e["event"], e["tick"]) for e in events
            if e["event"] in ("shard_split", "shard_merge")] == [
        ("shard_split", 20), ("shard_merge", 40),
        ("shard_split", 70), ("shard_merge", 100)]
    for child in ("shard-0.0", "shard-0.1"):
        blocks = [(e["tick"], e["header"]["height"]) for e in events
                  if e["event"] == "block" and e["chain"] == child]
        assert [h for _, h in blocks] == list(range(len(blocks)))
        assert {t for t, _ in blocks} >= {40, 70}
    code, lines = verify_artifacts(str(out))
    assert code == 0, lines


def test_failure_scenario_contains_outage():
    cfg = load_scenario(str(SCENARIOS / "failure.json"))
    summary = Simulator(cfg).run()

    control = load_scenario(str(SCENARIOS / "failure.json"))
    control.failures = []
    control_summary = Simulator(control).run()

    heights = {s["shardId"]: s["blocks"] for s in summary["shards"]}
    control_heights = {s["shardId"]: s["blocks"]
                       for s in control_summary["shards"]}
    assert heights["shard-1"] < control_heights["shard-1"]
    # Unaffected regions produce exactly as many blocks as the control.
    assert heights["shard-0"] == control_heights["shard-0"]
    assert heights["shard-2"] == control_heights["shard-2"]
    assert (summary["master"]["height"]
            == control_summary["master"]["height"])


def test_duplicate_shard_failure_is_runtime_error(tmp_path):
    bad = dict(SMALL, failures=[{"tick": 3, "shard_id": "shard-9"}])
    code = run_cli(bad, tmp_path / "out")
    assert code == 2
