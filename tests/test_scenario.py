"""Scenario file parsing: defaults, exact quantities, field diagnostics."""

import json
from fractions import Fraction
from pathlib import Path

import pytest

from privamm.scenario import (ScenarioError, load_scenario, parse_quantity,
                              parse_scenario)

SCENARIOS = Path(__file__).resolve().parent.parent / "scenarios"

MINIMAL = {
    "seed": 7,
    "ticks": 20,
    "workchains": [
        {"workchain_id": 0,
         "zone": {"west": 0, "east": 10, "south": 0, "north": 10}},
    ],
    "peers": [
        {"peer_id": "p1", "lat": 1, "lon": 1},
        {"peer_id": "p2", "lat": 2, "lon": 2},
    ],
}


def scenario(**overrides):
    obj = json.loads(json.dumps(MINIMAL))
    obj.update(overrides)
    return obj


# -- quantities -------------------------------------------------------------

def test_quantities_parse_exactly():
    assert parse_quantity("0.000001", "$") == Fraction(1, 10**6)
    assert parse_quantity("123.456789", "$") == Fraction(123456789, 10**6)
    assert parse_quantity(5, "$") == Fraction(5)


def test_float_quantity_rejected():
    with pytest.raises(ScenarioError, match=r"\$\.x: float quantity 10\.5"):
        parse_quantity(10.5, "$.x")
    with pytest.raises(ScenarioError, match="float quantity"):
        parse_quantity(1.0, "$.x", require_grid=False)
    with pytest.raises(ScenarioError, match=r"\$\.m_deposit"):
        parse_scenario(scenario(m_deposit=0.5))


def test_off_grid_quantity_rejected():
    with pytest.raises(ScenarioError, match="1e-6 grid"):
        parse_quantity("0.0000001", "$.x")
    # Coordinates skip the grid requirement.
    assert parse_quantity("1/3", "$.x", require_grid=False) == Fraction(1, 3)


def test_non_numeric_quantity_names_field():
    with pytest.raises(ScenarioError, match=r"\$\.lps\[0\]\.liquidity_e"):
        parse_scenario(scenario(
            lps=[{"lp_id": "p1", "liquidity_e": "plenty"}],
            m_deposit="1",
        ))


# -- required fields and defaults -----------------------------------------------

def test_minimal_scenario_defaults():
    cfg = parse_scenario(MINIMAL)
    assert cfg.seed == 7
    assert cfg.group_bits == 256
    assert cfg.committee_f == 1
    assert cfg.confirmations == 1
    assert cfg.block_interval == 5
    assert cfg.latency_low == cfg.latency_high == 0
    assert cfg.thresholds == {"split_tps": 10**9, "merge_tps": 0,
                              "window_blocks": 4}
    assert cfg.reveal_after_trade is True
    assert cfg.shadow_adversary is False
    assert cfg.trades == [] and cfg.failures == [] and cfg.adversaries == []
    assert cfg.peers[0].balance == 10**6 * 10**6  # default balance, scaled


def test_missing_seed_named():
    obj = scenario()
    del obj["seed"]
    with pytest.raises(ScenarioError, match=r"\$\.seed: missing"):
        parse_scenario(obj)


def test_missing_ticks_named():
    obj = scenario()
    del obj["ticks"]
    with pytest.raises(ScenarioError, match=r"\$\.ticks: missing"):
        parse_scenario(obj)


def test_non_integer_seed_rejected():
    with pytest.raises(ScenarioError, match=r"\$\.seed: expected integer"):
        parse_scenario(scenario(seed="42"))
    with pytest.raises(ScenarioError, match=r"\$\.seed"):
        parse_scenario(scenario(seed=True))


def test_group_bits_limited_to_supported_sizes():
    with pytest.raises(ScenarioError, match=r"\$\.group_bits"):
        parse_scenario(scenario(group_bits=128))
    assert parse_scenario(scenario(group_bits=16)).group_bits == 16


# -- structural validation ----------------------------------------------------------

def test_workchains_must_not_overlap():
    with pytest.raises(ScenarioError, match="overlap"):
        parse_scenario(scenario(workchains=[
            {"workchain_id": 0,
             "zone": {"west": 0, "east": 10, "south": 0, "north": 10}},
            {"workchain_id": 1,
             "zone": {"west": 5, "east": 15, "south": 0, "north": 10}},
        ]))


def test_duplicate_workchain_id_named():
    with pytest.raises(ScenarioError, match=r"workchains\[1\]\.workchain_id"):
        parse_scenario(scenario(workchains=[
            {"workchain_id": 0,
             "zone": {"west": 0, "east": 10, "south": 0, "north": 10}},
            {"workchain_id": 0,
             "zone": {"west": 20, "east": 30, "south": 0, "north": 10}},
        ]))


def test_degenerate_zone_named():
    with pytest.raises(ScenarioError, match=r"workchains\[0\]\.zone"):
        parse_scenario(scenario(workchains=[
            {"workchain_id": 0,
             "zone": {"west": 10, "east": 10, "south": 0, "north": 10}},
        ]))


def test_peer_outside_every_zone_named():
    with pytest.raises(ScenarioError, match=r"peers\[1\].*outside"):
        parse_scenario(scenario(peers=[
            {"peer_id": "p1", "lat": 1, "lon": 1},
            {"peer_id": "p2", "lat": 50, "lon": 50},
        ]))


def test_duplicate_peer_id_named():
    with pytest.raises(ScenarioError, match=r"peers\[1\]\.peer_id"):
        parse_scenario(scenario(peers=[
            {"peer_id": "p1", "lat": 1, "lon": 1},
            {"peer_id": "p1", "lat": 2, "lon": 2},
        ]))


def test_lp_must_reference_registered_peer():
    with pytest.raises(ScenarioError, match=r"lps\[0\]\.lp_id"):
        parse_scenario(scenario(lps=[{"lp_id": "ghost", "liquidity_e": "1"}],
                                m_deposit="1"))


def test_lp_deposits_require_money_side():
    with pytest.raises(ScenarioError, match=r"\$\.m_deposit"):
        parse_scenario(scenario(lps=[{"lp_id": "p1", "liquidity_e": "1"}]))


def test_trade_side_and_trader_validated():
    base = {"tick": 1, "trader_id": "p1", "quantity_e": "1", "limit_rate": "9"}
    with pytest.raises(ScenarioError, match=r"trades\[0\]\.side"):
        parse_scenario(scenario(trades=[dict(base, side="short")]))
    with pytest.raises(ScenarioError, match=r"trades\[0\]\.trader_id"):
        parse_scenario(scenario(trades=[dict(base, side="buy",
                                             trader_id="ghost")]))


def test_adversary_strategy_and_mode_validated():
    base = {"pool_e": "100", "pool_m": "100"}
    with pytest.raises(ScenarioError, match=r"adversary\[0\]\.strategy"):
        parse_scenario(scenario(adversary=[dict(base, strategy="rugpull")]))
    with pytest.raises(ScenarioError, match=r"adversary\[0\]\.mode"):
        parse_scenario(scenario(adversary=[
            dict(base, strategy="sandwich", mode="psychic")]))


SANDWICH = {"strategy": "sandwich", "mode": "committed", "pool_e": "1000",
            "pool_m": "1000", "attacker_size": "50",
            "victim": {"side": "buy", "quantity_e": "100"},
            "victim_size_range": ["10", "100"]}


@pytest.mark.parametrize("edit, field", [
    ({"victim_size_range": ["100", "10"]}, "victim_size_range"),
    ({"victim_size_range": "10"}, "victim_size_range"),
    ({"victim_size_range": ["10"]}, "victim_size_range"),
    ({"victim_size_range": ["10", "20", "30"]}, "victim_size_range"),
    ({"victim_size_range": ["0", "20"]}, "victim_size_range"),
    ({"victim": {"side": "buy"}}, "victim.quantity_e"),
    ({"victim": {"quantity_e": "100"}}, "victim.side"),
    ({"victim": "buy"}, "victim"),
    ({"victim": {"side": "hold", "quantity_e": "100"}}, "victim.side"),
    ({"victim": {"side": "buy", "quantity_e": "-1"}}, "victim.quantity_e"),
    ({"attacker_size": "0"}, "attacker_size"),
    ({"pool_e": "0"}, "pool_e"),
])
def test_adversary_spec_fields_validated(edit, field):
    bad = dict(SANDWICH, **edit)
    with pytest.raises(ScenarioError) as info:
        parse_scenario(scenario(adversary=[bad]))
    assert info.value.field_path == f"$.adversary[0].{field}"


def test_frontrun_needs_no_attacker_size():
    frontrun = {k: v for k, v in SANDWICH.items() if k != "attacker_size"}
    (adv,) = parse_scenario(scenario(adversary=[
        dict(frontrun, strategy="frontrun")])).adversaries
    assert adv.attacker_size is None


def test_adversary_victim_and_range_parsed():
    (adv,) = parse_scenario(scenario(adversary=[
        dict(SANDWICH, victim={"side": "sell", "quantity_e": "2.5"},
             victim_size_range=["10", "10"])])).adversaries
    assert (adv.victim_side, adv.victim_quantity) == ("sell", Fraction(5, 2))
    assert adv.victim_range == (Fraction(10), Fraction(10))


def test_adversary_accepts_single_object():
    cfg = parse_scenario(scenario(adversary={
        "strategy": "arbitrage", "pool_e": "100", "pool_m": "100",
        "pool_b_e": "100", "pool_b_m": "400",
    }))
    (adv,) = cfg.adversaries
    assert adv.strategy == "arbitrage"
    assert adv.pool_b_m == Fraction(400)


#: The smallest balance on the 1e-6 grid whose scaled value needs 257 bits.
TOO_RICH = str(-(-2**256 // 10**6))


@pytest.mark.parametrize("edit, field", [
    (lambda s: s.update(freshness=[1]), "$.freshness"),
    (lambda s: s.update(latency="0"), "$.latency"),
    (lambda s: s.update(thresholds=[]), "$.thresholds"),
    (lambda s: s.update(workchains=5), "$.workchains"),
    (lambda s: s.update(workchains=[5]), "$.workchains[0]"),
    (lambda s: s.update(trades={"a": 1}), "$.trades"),
    (lambda s: s["peers"][0].update(peer_id=[1]), "$.peers[0].peer_id"),
    (lambda s: s["peers"][0].update(peer_id=7), "$.peers[0].peer_id"),
    (lambda s: s["peers"][0].update(key=5), "$.peers[0].key"),
    (lambda s: s.update(reveal_after_trade="false"), "$.reveal_after_trade"),
    (lambda s: s["workchains"][0]["zone"].update(west=False),
     "$.workchains[0].zone.west"),
    (lambda s: s["trades"][0].update(quantity_e="0"), "$.trades[0].quantity_e"),
    (lambda s: s["trades"][0].update(quantity_e="-5"), "$.trades[0].quantity_e"),
    (lambda s: s["peers"][0].update(balance="-1"), "$.peers[0].balance"),
    (lambda s: s["peers"][0].update(balance=TOO_RICH), "$.peers[0].balance"),
    (lambda s: s["lps"].append({"lp_id": "p1", "liquidity_e": "1"}),
     "$.lps[3].lp_id"),
    (lambda s: s.update(failures=[{"tick": 3, "shard_id": 5}]),
     "$.failures[0].shard_id"),
], ids=["freshness-a-list", "latency-a-string", "thresholds-a-list",
        "workchains-an-int", "workchain-an-int", "trades-an-object",
        "peer-id-a-list", "peer-id-an-int", "key-an-int", "reveal-a-string",
        "zone-west-false", "zero-trade", "negative-trade", "negative-balance",
        "balance-past-256-bits", "second-deposit", "shard-id-an-int"])
def test_each_field_is_checked_where_it_is_read(edit, field):
    """Each of these edits of smoke.json once ended in a traceback, ran
    with a misread value, or named another field."""
    smoke = json.loads((SCENARIOS / "smoke.json").read_text())
    edit(smoke)
    with pytest.raises(ScenarioError) as info:
        parse_scenario(smoke)
    assert info.value.field_path == field


def test_balance_bounds():
    top = 2**256 - 1
    for balance, scaled in (("0", 0), (f"{top // 10**6}.{top % 10**6:06d}", top)):
        peers = [{"peer_id": "p1", "lat": 1, "lon": 1, "balance": balance}]
        assert parse_scenario(scenario(peers=peers)).peers[0].balance == scaled


def test_thresholds_window_minimum():
    with pytest.raises(ScenarioError, match="window_blocks"):
        parse_scenario(scenario(thresholds={"window_blocks": 0}))


# -- file loading ------------------------------------------------------------------

def test_load_scenario_round_trip(tmp_path):
    path = tmp_path / "s.json"
    path.write_text(json.dumps(scenario(ticks=33)))
    cfg = load_scenario(str(path))
    assert cfg.ticks == 33


def test_load_scenario_missing_file():
    with pytest.raises(ScenarioError, match="not found"):
        load_scenario("/nonexistent/path.json")


@pytest.mark.parametrize("content", [
    None, b'{"seed": "\xff"}', b'{"seed": ' + b"1" * 5000 + b"}"],
    ids=["a-directory", "not-utf8", "past-the-int-digit-limit"])
def test_load_scenario_unreadable_file(tmp_path, content):
    path = tmp_path / "s.json"
    if content is None:
        path.mkdir()
    else:
        path.write_bytes(content)
    with pytest.raises(ScenarioError) as info:
        load_scenario(str(path))
    assert info.value.field_path == "$"


def test_load_scenario_bad_json_points_at_location(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text('{"seed": 1,,}')
    with pytest.raises(ScenarioError, match="line 1"):
        load_scenario(str(path))


def test_bundled_scenarios_parse():
    from pathlib import Path
    bundle = Path(__file__).resolve().parent.parent / "scenarios"
    for name in ("smoke", "split", "failure", "drain"):
        cfg = load_scenario(str(bundle / f"{name}.json"))
        assert cfg.ticks > 0
