"""End-to-end runs: artifacts, verification, tamper detection, exit codes."""

import csv
import hashlib
import json
import shutil
import sys
from collections import Counter, defaultdict
from dataclasses import replace
from pathlib import Path

import pytest

from privamm import balance_proof
from privamm import keccak as keccak_mod
from privamm.cli import (EVENT_FIELDS, main, read_log, verify_artifacts,
                         write_artifacts)
from privamm.keccak import keccak256
from privamm.protocol import RunLog
from privamm.rlp import canonical_int
from privamm.scenario import load_scenario, parse_scenario
from privamm.sharding import anchor_root
from privamm.simulator import SimulationError, Simulator
from privamm.trie import (MAX_NONCE, BlockHeader, HashPipeline, HeaderChain,
                          Trie, check_freshness)

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


def test_withheld_openings_are_not_logged_and_verify(smoke_run, tmp_path):
    """With ``"reveal_after_trade": false`` every settled trade keeps its
    commitment closed: the default run opens one per settled trade, this
    run opens none, and its artifacts verify."""
    out = smoke_with(tmp_path, lambda s: s.update(reveal_after_trade=False))
    events = run_events(out)
    opened = [ev for ev in run_events(smoke_run)
              if ev["event"] == "commitment_opened"]
    settled = [ev for ev in events if ev["event"] == "trade_settled"]
    assert opened and len(opened) == len(settled)
    assert not any(ev["event"] == "commitment_opened" for ev in events)
    assert verify_artifacts(str(out))[0] == 0


def test_verify_passes_on_fresh_run(small_run):
    code, lines = verify_artifacts(str(small_run))
    assert code == 0
    assert all(line.startswith("ok:") for line in lines)


@pytest.fixture(scope="module")
def merge_sim():
    """The merge scenario, run once: its block events get their header
    after the round's batch, so they are edited after they are emitted."""
    sim = Simulator(load_scenario(str(SCENARIOS / "merge.json")))
    return sim, sim.run()


def test_streamed_log_equals_the_joined_log(merge_sim, tmp_path):
    sim, summary = merge_sim
    write_artifacts(str(tmp_path), sim, summary)
    log_bytes = (tmp_path / "run.jsonl").read_bytes()
    assert log_bytes == sim.log.to_jsonl().encode()
    assert any(b'"event":"block","header":' in line
               for line in log_bytes.splitlines())


def test_log_digest_is_the_digest_of_the_file(merge_sim, tmp_path):
    sim, summary = merge_sim
    write_artifacts(str(tmp_path), sim, summary)
    written = json.loads((tmp_path / "summary.json").read_text())
    assert written["logSha256"] == hashlib.sha256(
        (tmp_path / "run.jsonl").read_bytes()).hexdigest()


def test_write_artifacts_builds_no_joined_log(merge_sim, tmp_path,
                                              monkeypatch):
    def joined(self):
        raise AssertionError("write_artifacts joined the whole log")

    monkeypatch.setattr(RunLog, "to_jsonl", joined)
    sim, summary = merge_sim
    write_artifacts(str(tmp_path), sim, summary)
    assert (tmp_path / "run.jsonl").stat().st_size > 0


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


@pytest.mark.parametrize("seed, error", [
    ("-5", "configuration error: $.seed: must be >= 0"),
    ("1.5", "argument --seed: invalid int value: '1.5'"),
    ("x", "argument --seed: invalid int value: 'x'")])
def test_seed_override_is_checked_as_the_scenario_seed(tmp_path, capsys,
                                                       seed, error):
    """``--seed`` takes what ``$.seed`` takes: a negative or non-integer
    seed exits 1 before anything runs."""
    out = tmp_path / "out"
    assert run_cli(SMALL, out, extra=["--seed", seed]) == 1
    assert error in capsys.readouterr().err
    assert not out.exists()


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


@pytest.mark.parametrize("index, field", [
    (0, "attacker_size"),  # plaintext sandwich
    (1, "attacker_size"),  # committed sandwich
    (2, "pool_b_e"),       # arbitrage
    (2, "pool_b_m"),
])
def test_adversary_missing_field_is_a_configuration_error(
        tmp_path, capsys, index, field):
    smoke = json.loads((SCENARIOS / "smoke.json").read_text())
    del smoke["adversary"][index][field]
    assert run_cli(smoke, tmp_path / "out") == 1
    err = capsys.readouterr().err
    assert err.startswith("configuration error: ")
    assert f"$.adversary[{index}].{field}" in err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("edit", [
    lambda s: s.update(freshness=[1]),
    lambda s: s.update(workchains=5),
    lambda s: s["peers"][0].update(peer_id=[1]),
    lambda s: s.update(reveal_after_trade="false"),
    lambda s: s["trades"][0].update(quantity_e="0"),
    lambda s: s["peers"][0].update(balance="-1"),
    lambda s: s.update(failures=[{"tick": 3, "shard_id": 5}]),
], ids=["freshness-a-list", "workchains-an-int", "peer-id-a-list",
        "reveal-a-string", "zero-trade", "negative-balance",
        "shard-id-an-int"])
def test_a_mistyped_or_out_of_range_field_is_a_configuration_error(
        tmp_path, capsys, edit):
    smoke = json.loads((SCENARIOS / "smoke.json").read_text())
    edit(smoke)
    assert run_cli(smoke, tmp_path / "out") == 1
    err = capsys.readouterr().err
    assert err.startswith("configuration error: $.")
    assert "Traceback" not in err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("content", [None, b"{\"seed\": \"\xff\"}"],
                         ids=["a-directory", "not-utf8"])
def test_an_unreadable_scenario_file_is_a_configuration_error(
        tmp_path, capsys, content):
    path = tmp_path / "scenario"
    if content is None:
        path.mkdir()
    else:
        path.write_bytes(content)
    assert main(["run", str(path), "--out", str(tmp_path / "out")]) == 1
    err = capsys.readouterr().err
    assert err.startswith("configuration error: $: ")
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


def well_formed_fail(fails, detail, line):
    """Assert that ``fails`` opens with the one malformed-line detail, on
    ``run.jsonl well-formed``, and that no other FAIL line names one."""
    assert fails[0] == (f"FAIL: run.jsonl well-formed (malformed {detail} "
                        f"at run.jsonl line {line})")
    assert not [f for f in fails[1:] if "malformed" in f]


@pytest.mark.parametrize("field, value, cause", [
    ("parentHash", "0xzz", "header: non-hexadecimal number found in "
                           "fromhex() arg at position 0"),
    ("height", "3", "header: height and timestamp must be non-negative "
                    "integers"),
    ("chain", ["shard-0"], "chain: not a string"),
], ids=["parentHash-0xzz-non-hexadecimal number",
        "height-3-height and timestamp must be non-negative integers",
        "chain-value2-chain id must be a string"])
def test_verify_fail_line_names_malformed_header(small_run, tmp_path,
                                                 field, value, cause):
    """An unreadable header gives a FAIL line, not a traceback. It is the
    master's genesis, so the master's next header opens its chain."""
    def garble(ev):
        (ev if field == "chain" else ev["header"])[field] = value

    fails, (line,) = edit_events(small_run, tmp_path / "t", first_of("block"),
                                 garble)
    events = run_events(small_run)
    next_master = min(n for n, ev in enumerate(events, 1) if n > line
                      and ev["event"] == "block" and ev["chain"] == "master")
    count = sum(ev["event"] == "block" for ev in events[:next_master]) - 1
    well_formed_fail(fails, f"block: {cause}", line)
    assert fails[1:] == [f"FAIL: block headers replay ({count} headers) "
                         f"(bad genesis for master at run.jsonl line "
                         f"{next_master})"]
    assert main(["verify", str(tmp_path / "t")]) == 2


@pytest.mark.parametrize("field, value, cause", [
    ("live", 5, "not a list of shard ids"),
    ("live", [["shard-0"]], "not a list of shard ids"),
    ("table", ["shard-0"], "not a table of shard heights and hashes"),
    ("masterHeight", "1", "not an integer"),
], ids=["live-5-live must be a list of shard ids",
        "live-value1-live must be a list of shard ids",
        "table-value2-table must be an object",
        "masterHeight-1-masterHeight must be an integer"])
def test_verify_fail_line_names_malformed_anchors(small_run, tmp_path,
                                                  field, value, cause):
    """An unreadable anchors event gives a FAIL line, not a traceback; the
    anchor pass then finds that round missing."""
    fails, (line,) = edit_events(small_run, tmp_path / "t",
                                 first_of("anchors"),
                                 lambda ev: ev.update({field: value}))
    well_formed_fail(fails, f"anchors: {field}: {cause}", line)
    assert fails[1:] == ["FAIL: anchor tables complete and bound (4 rounds) "
                         "(anchor rounds cover master heights [2, 3, 4, 5], "
                         "expected [1, 2, 3, 4, 5])"]
    assert main(["verify", str(tmp_path / "t")]) == 2


@pytest.mark.parametrize("kind, edit, cause, also", [
    ("pool_published", lambda ev: ev.update(Es="x"),
     "pool_published: Es: invalid literal for int() with base 10: 'x'", []),
    ("pool_published", without("C2"),
     "pool_published: C2: missing 'C2'", []),
    ("commitment_opened", lambda ev: ev.update(y="zz"),
     "commitment_opened: y: invalid literal for int() with base 10: 'zz'", []),
    # The opening that follows has no commitment left to open.
    ("order_committed", lambda ev: ev.update(commitment="zz"),
     "order_committed: commitment: invalid literal for int() with base 10: "
     "'zz'", ["FAIL: commitment openings verify (1 openings) (opening "
              "without commitment by p3 at run.jsonl line 22)"]),
    ("trade_proof_published", without("actor"),
     "trade_proof_published: actor: missing 'actor'", []),
    ("parameters", lambda ev: [1, 2], "event: json: not a JSON object", []),
], ids=["pool-reserve", "pool-no-C2", "opening", "commitment",
        "proof-no-actor", "not-an-object"])
def test_verify_fail_line_names_malformed_event(small_run, tmp_path, kind,
                                                edit, cause, also):
    """An unreadable event gives one FAIL line naming it, not a traceback,
    and fails no pass that does not need it."""
    fails, (line,) = edit_events(small_run, tmp_path / "t", first_of(kind),
                                 edit)
    well_formed_fail(fails, cause, line)
    assert fails[1:] == also
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


def test_verify_rejects_a_hash_field_that_is_not_canonical(smoke_run,
                                                           tmp_path):
    """A height-3 header whose parentHash starts ``zz`` and whose stateRoot
    starts ``QQ`` still has 32 bytes of hex after its first two
    characters, but it is not what ``to_json`` writes. Only the checks
    that need that header fail with it."""
    def garble(ev):
        header = ev["header"]
        header["parentHash"] = "zz" + header["parentHash"][2:]
        header["stateRoot"] = "QQ" + header["stateRoot"][2:]

    events = run_events(smoke_run)
    fails, (line,) = edit_events(
        smoke_run, tmp_path / "t",
        lambda ev: ev["event"] == "block" and ev["chain"] == "shard-0"
        and ev["header"]["height"] == 3, garble)
    # Without it, shard-0#4 breaks its chain's link, and the first proof
    # and the anchor table that name shard-0#3 name a header the log no
    # longer holds.
    header_hash = events[line - 1]["header"]["headerHash"]
    proofs = [ev for ev in events if "proof" in ev]
    (first, *_) = [i for i, ev in enumerate(proofs)
                   if ev["proof"]["account"]["headerHash"] == header_hash]
    (next_line,) = [n for n, ev in enumerate(events, 1)
                    if ev["event"] == "block" and ev["chain"] == "shard-0"
                    and ev["header"]["height"] == 4]
    count = sum(ev["event"] == "block" for ev in events[:next_line]) - 1
    anchors = [n for n, ev in enumerate(events, 1) if ev["event"] == "anchors"]
    sealed = min(n for n in anchors if n > line)
    assert events[sealed - 1]["table"]["shard-0"]["height"] == 3
    assert fails == [
        "FAIL: run.jsonl well-formed (malformed block: header: parentHash "
        f"must be 0x and 64 lowercase hex digits at run.jsonl line {line})",
        f"FAIL: block headers replay ({count} headers) (broken link at "
        f"shard-0#4 at run.jsonl line {next_line})",
        f"FAIL: balance and account proofs replay ({first + 1} proofs) "
        f"(account proof for {proofs[first]['actor']} names an unknown "
        f"header)",
        f"FAIL: anchor tables complete and bound ({anchors.index(sealed) + 1} "
        f"rounds) (anchor names no logged header at shard-0#3 at run.jsonl "
        f"line {sealed})"]
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


@pytest.fixture(scope="module")
def smoke_run(tmp_path_factory):
    out = tmp_path_factory.mktemp("artifacts") / "smoke"
    assert main(["run", str(SCENARIOS / "smoke.json"), "--out", str(out)]) == 0
    return out


@pytest.mark.parametrize("kind, field, garble", [
    ("pool_published", "Ms", lambda logged: " 610_169492\n"),
    ("commitment_opened", "y", float),
    ("order_committed", "commitment", lambda logged: "+" + logged),
], ids=["blanks-and-underscore", "float", "plus-sign"])
def test_verify_rejects_integers_the_writer_never_writes(smoke_run, tmp_path,
                                                         kind, field, garble):
    """``int()`` reads each of these as the logged integer, but the writer
    writes only ``str(n)``."""
    def edit(ev):
        logged = ev[field]
        ev[field] = garble(logged)
        assert int(ev[field]) == int(logged)

    fails, (line,) = edit_events(smoke_run, tmp_path / "t", first_of(kind),
                                 edit)
    well_formed_fail(fails, f"{kind}: {field}: not a canonical decimal "
                            "integer", line)


def upper_hex(text):
    return "0x" + text[2:].upper()


@pytest.mark.parametrize("edit, cause", [
    (lambda proof: proof.update(threshold=" +" + proof["threshold"] + "\n"),
     "not a canonical decimal integer"),
    (lambda proof: proof.update(vk="0X" + proof["vk"][2:].upper()),
     "vk must be 0x and 64 lowercase hex digits"),
    (lambda proof: proof["account"].update(
        address=upper_hex(proof["account"]["address"])),
     "address must be 0x and 40 lowercase hex digits"),
    (lambda proof: proof["account"]["nodes"].__setitem__(
        0, upper_hex(proof["account"]["nodes"][0])),
     "node must be 0x and lowercase hex digits"),
    (lambda proof: proof["account"].update(
        headerHash=upper_hex(proof["account"]["headerHash"])),
     "headerHash must be 0x and 64 lowercase hex digits"),
    (lambda proof: proof["account"].update(blockHeight=True),
     "blockHeight must be a non-negative integer or null"),
], ids=["threshold", "vk", "address", "node", "headerHash", "blockHeight"])
def test_verify_rejects_proof_fields_the_writer_never_writes(smoke_run, tmp_path,
                                                             edit, cause):
    """``int()`` and ``bytes.fromhex`` read each edited field as the logged
    value, but ``to_json`` writes only ``str(n)`` and ``0x`` with lowercase
    hex."""
    def garble(ev):
        logged = balance_proof.Proof.from_json(ev["proof"])
        edit(ev["proof"])
        proof, account = ev["proof"], ev["proof"]["account"]
        assert int(proof["threshold"]) == logged.threshold
        assert bytes.fromhex(proof["vk"][2:]) == logged.vk.digest
        assert bytes.fromhex(account["address"][2:]) == logged.account.address
        assert bytes.fromhex(account["headerHash"][2:]) == (
            logged.account.header_hash)
        assert tuple(bytes.fromhex(n[2:]) for n in account["nodes"]) == (
            logged.account.node_stack)

    fails, (line,) = edit_events(smoke_run, tmp_path / "t",
                                 first_of("trade_proof_published"), garble)
    assert line == 27
    well_formed_fail(fails, f"trade_proof_published: proof: {cause}", line)


def test_verify_ties_a_proof_height_to_its_header(smoke_run, tmp_path):
    """A proof that names a logged header by hash but another height fails
    the proof pass on its line, and no other pass."""
    events = [json.loads(l)
              for l in (smoke_run / "run.jsonl").read_text().splitlines()]

    def edit(ev):
        assert ev["proof"]["account"]["blockHeight"] == 1
        ev["proof"]["account"]["blockHeight"] = 7

    fails, (line,) = edit_events(smoke_run, tmp_path / "t",
                                 first_of("trade_proof_published"), edit)
    assert line == 27
    count = sum(ev["event"] in ("init_balance_proof", "trade_proof_published")
                for ev in events[:line])
    actor = events[line - 1]["actor"]
    assert fails == [f"FAIL: balance and account proofs replay ({count} "
                     f"proofs) (account proof for {actor} names height 7 "
                     f"for the header at height 1 at run.jsonl line {line})"]


def garble_artifact(name, edit):
    def mutate(d):
        (d / name).write_bytes(edit((d / name).read_bytes()))
    return mutate


def summary_with(**fields):
    def edit(data):
        return json.dumps({**json.loads(data), **fields}).encode()
    return edit


def garble_group_g(data):
    """g as ``int()`` reads it, but not as ``str(n)`` writes it."""
    summary = json.loads(data)
    g = summary["group"]["g"]
    summary["group"]["g"] = f" +{g[:3]}_{g[3:]}"
    assert int(summary["group"]["g"]) == int(g)
    return json.dumps(summary).encode()


def short_second_row(data):
    lines = data.splitlines()
    lines[2] = lines[2].rsplit(b",", 1)[0]
    return b"\r\n".join(lines) + b"\r\n"


@pytest.mark.parametrize("name, edit, fail", [
    ("summary.json", summary_with(group=5),
     "FAIL: summary.json well-formed ('int' object is not subscriptable)"),
    ("summary.json", summary_with(vk=[1]),
     "FAIL: summary.json well-formed (list indices must be integers or "
     "slices, not str)"),
    ("summary.json", lambda data: b"[1, 2]",
     "FAIL: summary.json well-formed (list indices must be integers or "
     "slices, not str)"),
    ("summary.json", garble_group_g,
     "FAIL: summary.json well-formed (not a canonical decimal integer)"),
    ("metrics.csv", short_second_row,
     "FAIL: metrics.csv well-formed (2 rows) (row 2: 5 fields)"),
    ("metrics.csv", lambda data: data + b"\xff\r\n",
     "FAIL: metrics.csv well-formed (0 rows) ('utf-8' codec can't decode "
     "byte 0xff"),
    ("attack_report.csv", lambda data: b"\xfe" + data,
     "FAIL: attack_report.csv well-formed ('utf-8' codec can't decode byte "
     "0xfe"),
], ids=["group-not-an-object", "vk-a-list", "summary-a-list",
        "group-g-not-canonical", "metrics-short-row", "metrics-not-utf8", "attack-report-not-utf8"])
def test_verify_reports_a_malformed_artifact_without_a_traceback(
        small_run, tmp_path, capsys, name, edit, fail):
    out = tampered_copy(small_run, tmp_path / "t", garble_artifact(name, edit))
    assert main(["verify", str(out)]) == 2
    printed = capsys.readouterr()
    assert [line for line in printed.out.splitlines()
            if line.startswith("FAIL")][0].startswith(fail)
    assert "Traceback" not in printed.err


def workload_generators() -> dict:
    """perfbench's scenario generator of each benchmark workload, by name."""
    sys.path.insert(0, str(SCENARIOS.parent / "perfbench"))
    try:
        from workloads import GENERATORS
    finally:
        sys.path.pop(0)
    return GENERATORS


def scenarios_and_workloads():
    """Every shipped scenario and every benchmark workload at seed 1."""
    for path in sorted(SCENARIOS.glob("*.json")):
        yield path.stem, load_scenario(str(path))
    for name, generate in workload_generators().items():
        yield name, parse_scenario(generate(1))


def test_every_logged_line_parses_through_the_schema():
    """The writer and the reader agree: each line every scenario and
    workload logs reads as a well-formed record, and each declared kind is
    logged somewhere. ``drain`` ends in a liquidity error; the lines it
    logged before that are read too."""
    kinds = Counter()
    for name, config in scenarios_and_workloads():
        sim = Simulator(config)
        try:
            sim.run()
        except SimulationError:
            assert name == "drain"
        records, bad = read_log("".join(sim.log.lines()).encode())
        assert bad == "", name
        assert len(records) == sum(ev["event"] in EVENT_FIELDS
                                   for ev in sim.log.events)
        kinds.update(r["event"] for r in records)
    assert set(kinds) == set(EVENT_FIELDS)


def field_edits():
    """Each declared field of each kind: dropped, given a list, and for a
    decimal field, given a leading zero."""
    for kind, fields in EVENT_FIELDS.items():
        for field, parse in fields.items():
            edits = {"missing": without(field),
                     "list": lambda ev, f=field: ev.update({f: [ev[f]]})}
            if parse is canonical_int:
                edits["leading-zero"] = lambda ev, f=field: ev.update(
                    {f: "0" + ev[f]})
            for how, edit in edits.items():
                yield pytest.param(kind, field, edit,
                                   id=f"{kind}-{field}-{how}")


@pytest.mark.parametrize("kind, field, edit", field_edits())
def test_a_malformed_field_fails_one_line_and_no_pass(smoke_run, tmp_path,
                                                      kind, field, edit):
    """Whatever field of a read event is malformed, and however, verify
    exits 2 with one ``malformed`` detail, on ``run.jsonl well-formed``."""
    fails, (line,) = edit_events(smoke_run, tmp_path / "t", first_of(kind),
                                 edit)
    (malformed,) = [f for f in fails if "malformed" in f]
    assert malformed.startswith(f"FAIL: run.jsonl well-formed (malformed "
                                f"{kind}: {field}: ")
    assert malformed.endswith(f" at run.jsonl line {line})")


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


@pytest.fixture(scope="module")
def load_split_hashing():
    """One ``load-split`` run, whose multi-shard rounds change tries of
    different depths, with its hashing recorded: each outermost Keccak
    call as (pipeline steps begun so far, function name, digests); each
    shard header a pipeline made, with the steps begun when it was
    proposed; and the number of Keccak calls made by the end of each
    block round."""
    real = {"keccak256": keccak_mod.keccak256,
            "keccak256_many": keccak_mod.keccak256_many}
    steps, calls, made, round_ends = [0], [], [], []
    depth = [0]

    def wrapped(name):
        def hashed(data):
            depth[0] += 1
            try:
                out = real[name](data)
            finally:
                depth[0] -= 1
            if not depth[0]:
                calls.append((steps[0], name,
                              [out] if name == "keccak256" else out))
            return out
        return hashed

    step, propose = HashPipeline.step, HashPipeline.propose
    block_round = Simulator._block_round

    def counted_step(self):
        steps[0] += 1
        step(self)

    def recorded_propose(self, chain, state, timestamp, then):
        if not isinstance(state, Trie):  # a master block
            return propose(self, chain, state, timestamp, then)
        at = steps[0]
        return propose(self, chain, state, timestamp, lambda header: (
            made.append((header, at)), then(header)))

    def timed_round(self, tick):
        block_round(self, tick)
        round_ends.append(len(calls))

    sim = Simulator(parse_scenario(workload_generators()["load-split"](1)))
    with pytest.MonkeyPatch.context() as mp:
        for module in [m for n, m in sys.modules.items()
                       if n == "privamm" or n.startswith("privamm.")]:
            for name in real:
                if getattr(module, name, None) is real[name]:
                    mp.setattr(module, name, wrapped(name))
        mp.setattr(HashPipeline, "step", counted_step)
        mp.setattr(HashPipeline, "propose", recorded_propose)
        mp.setattr(Simulator, "_block_round", timed_round)
        sim.run()
    return sim.log.events, calls, made, round_ends


def test_each_header_is_made_once_when_its_inputs_are_hashed(
        load_split_hashing):
    """Every header in the log is hashed exactly once. Each shard header a
    pipeline makes is made in the step after the later of two steps: the
    one that hashed its state root (or its proposal, if the root was
    hashed before it) and the one that made its parent. So headers
    proposed together, over tries of different depths, are made in
    different steps."""
    events, calls, made, _ = load_split_hashing
    hashed = Counter(d for _, _, digests in calls for d in digests)
    headers = [bytes.fromhex(e["header"]["headerHash"][2:])
               for e in events if e["event"] == "block"]
    # The master's genesis is the empty chain's, which every new shard
    # starts from too: hashed at most once per chain.
    empty_genesis = HeaderChain().tip.header_hash
    assert 1 <= hashed[empty_genesis] <= len({e["chain"] for e in events
                                              if e["event"] == "block"})
    assert {hashed[h] for h in headers if h != empty_genesis} == {1}

    # The steps begun when each digest was first hashed: a digest hashed
    # between steps is ready for the next step, as one hashed in a step.
    first = {}
    for at, _, digests in calls:
        for digest in digests:
            first.setdefault(digest, at)
    together = defaultdict(set)
    roots_after_proposal = 0
    for header, proposed in made:
        root, parent = first[header.state_root], first[header.parent_hash]
        assert first[header.header_hash] == max(root, proposed, parent) + 1
        roots_after_proposal += root > proposed
        together[proposed].add(first[header.header_hash])
    assert len(made) > 100 and roots_after_proposal > 100
    assert sum(len(steps) > 1 for steps in together.values()) >= 10


def test_master_headers_wait_for_the_last_round_and_tables_hash_in_one_batch(
        load_split_hashing):
    """No master header is made before the last block round ends, every
    anchor table is hashed in one ``keccak256_many`` call, and each master
    header is hashed once."""
    events, calls, _, round_ends = load_split_hashing
    assert len(round_ends) > 100
    master = [bytes.fromhex(e["header"]["headerHash"][2:]) for e in events
              if e["event"] == "block" and e["chain"] == "master"
              and e["header"]["height"] > 0]
    assert len(master) == len(round_ends)
    at = defaultdict(list)
    for i, (_, _, digests) in enumerate(calls):
        for digest in digests:
            at[digest].append(i)
    assert all(len(at[h]) == 1 and at[h][0] >= round_ends[-1]
               for h in master)
    roots = {anchor_root(e["table"]) for e in events
             if e["event"] == "anchors"}
    assert len(roots) == len(master)
    (batch,) = [(name, set(digests)) for _, name, digests in calls
                if roots & set(digests)]
    assert batch[0] == "keccak256_many" and roots <= batch[1]


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


# -- pipelined block hashing ---------------------------------------------------

@pytest.fixture
def pending_sim(monkeypatch):
    """SMALL past its init phase, with three shard-0 blocks proposed over
    changed tries and none of their headers made; counts the votes on
    each header, by height."""
    sim = Simulator(parse_scenario(dict(
        SMALL, failures=[{"tick": 20, "shard_id": "shard-0"}])))
    sim._setup_crypto()
    sim._setup_topology()
    sim._run_init()
    voted = Counter()
    finalize = Simulator._finalize

    def counted(self, rt, committee, event, header):
        voted[header.height] += 1
        finalize(self, rt, committee, event, header)

    monkeypatch.setattr(Simulator, "_finalize", counted)
    rt = sim.runtimes["shard-0"]
    for tick in (5, 10, 15):
        sim._debit_trader(rt, "p3", 0)  # a new leaf: the trie changes
        sim._propose(rt, tick, 0)
    chain = rt.shard.chain
    assert (chain.height, len(chain.headers)) == (5, 3)
    return sim, rt, voted


@pytest.mark.parametrize("reader", ["proof point", "reshard", "failure",
                                    "end of run"])
def test_a_forced_read_makes_each_pending_header_once(pending_sim, reader):
    """Each reader of a pending shard header steps the pipeline until the
    header is made, and every header is made and voted on exactly once,
    whichever read made it."""
    sim, rt, voted = pending_sim
    chain = rt.shard.chain
    if reader == "proof point":
        header, trie = sim._proof_point(rt)  # confirmations = 2
        assert (header.height, header.state_root) == (3, trie.root())
        assert voted == {3: 1}
    elif reader == "reshard":
        rebuilt = sim._build_runtime(rt.shard, 20)
        assert voted == {3: 1, 4: 1, 5: 1}
        assert chain.headers[6].parent_hash == chain.headers[5].header_hash
        assert rebuilt.trie_history.keys() == {6, 7, 8}
    elif reader == "failure":
        sim._apply_failures(20)
        assert rt.shard.failed and voted == {3: 1, 4: 1, 5: 1}
    else:
        sim.hashing.flush()
    sim.hashing.flush()
    assert voted == {3: 1, 4: 1, 5: 1}
    assert chain.validate() is None
    blocks = [e for e in sim.log.events if e["event"] == "block"
              and e["chain"] == "shard-0"]
    assert [e["header"]["height"] for e in blocks][:6] == list(range(6))


def test_height_readers_force_nothing(pending_sim, monkeypatch):
    """The committee epoch, `blocks_produced` (metrics.csv), the freshness
    depth, the anchor table and the master's height read a chain's height,
    pending blocks included, and make no header; a round with no trade
    runs one step."""
    sim, rt, voted = pending_sim
    chain = rt.shard.chain
    steps, step = [], HashPipeline.step

    def one_step(self):
        # A forced read steps again and again; stop it at its second step.
        steps.append(1)
        assert len(steps) == 1, "a height reader forced a step"

    monkeypatch.setattr(HashPipeline, "step", one_step)
    assert rt.shard.blocks_produced() == 5
    made = chain.header_at(2)
    assert check_freshness(chain, made, confirmations=3, window=100, now=20)
    assert not check_freshness(chain, made, confirmations=4, window=100,
                               now=20)
    sim._debit_trader(rt, "p4", 0)
    epochs = []
    committee = Simulator._committee
    monkeypatch.setattr(Simulator, "_committee", lambda self, rt, epoch:
                        epochs.append(epoch) or committee(self, rt, epoch))
    sim._block_round(20)
    assert epochs == [5] and steps == [1]
    assert sim.metrics_rows[-1]["blocks"] == 6
    assert sim.topology.master.anchor_table["shard-0"] == {
        "height": 6, "hash": None, "stale": False}
    assert len(chain.headers) == 3 and not voted
    monkeypatch.setattr(HashPipeline, "step", step)
    master = sim.topology.master.chain
    assert master.height == 1 and len(master.headers) == 1
    master.tip  # hashes the table, which makes the shard's header
    assert sim.topology.master.anchor_table["shard-0"]["hash"] == (
        "0x" + chain.header_at(6).header_hash.hex())
    assert voted == {3: 1, 4: 1, 5: 1, 6: 1}
