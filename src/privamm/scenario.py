"""Scenario configuration: parsing and validation of run descriptions.

A scenario is a single JSON object. Quantities (liquidity, trade sizes,
deposits) are decimal strings parsed exactly; zone coordinates accept
integers or decimal strings. Floats are rejected, since a binary float
rarely holds the decimal the author wrote. Validation failures raise
ScenarioError with the offending field path, which the command line maps
to exit code 1.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, List, Optional

from .mpc import SCALE
from .sharding import Zone, ZoneError


class ScenarioError(ValueError):
    """Malformed scenario file; message names the field."""

    def __init__(self, field_path: str, message: str):
        self.field_path = field_path
        super().__init__(f"{field_path}: {message}")


def parse_quantity(value, where: str, require_grid: bool = True) -> Fraction:
    if isinstance(value, float):
        raise ScenarioError(where, f"float quantity {value!r}; use a decimal string")
    try:
        q = Fraction(value)
    except (ValueError, ZeroDivisionError, TypeError) as exc:
        raise ScenarioError(where, f"not a rational quantity: {value!r}") from exc
    if require_grid and (q * SCALE).denominator != 1:
        raise ScenarioError(where, f"{value!r} is not on the 1e-6 grid")
    return q


@dataclass(frozen=True, slots=True)
class PeerSpec:
    peer_id: str
    lat: Fraction
    lon: Fraction
    key: str
    stake: int
    balance: int  # scaled account balance


@dataclass(frozen=True, slots=True)
class LpSpec:
    lp_id: str
    liquidity_e: Fraction


@dataclass(frozen=True, slots=True)
class TradeSpec:
    tick: int
    trader_id: str
    side: str
    quantity_e: Fraction
    limit_rate: Fraction


@dataclass(frozen=True, slots=True)
class WorkchainSpec:
    workchain_id: int
    zone: Zone


@dataclass(frozen=True, slots=True)
class LoadSpec:
    lat: Fraction
    lon: Fraction
    per_block: int
    start_tick: int
    end_tick: int


@dataclass(frozen=True, slots=True)
class FailureSpec:
    tick: int
    shard_id: str
    recover_tick: Optional[int]


@dataclass(frozen=True, slots=True)
class AdversarySpec:
    strategy: str
    mode: str
    trials: int
    pool_e: Fraction
    pool_m: Fraction
    attacker_size: Optional[Fraction]
    victim_side: Optional[str]
    victim_quantity: Optional[Fraction]
    victim_range: Optional[tuple]
    pool_b_e: Optional[Fraction] = None
    pool_b_m: Optional[Fraction] = None


@dataclass(slots=True)
class ScenarioConfig:
    seed: int
    group_bits: int
    committee_f: int
    confirmations: int
    window: int
    block_interval: int
    ticks: int
    latency_low: int
    latency_high: int
    workchains: List[WorkchainSpec]
    peers: List[PeerSpec]
    lps: List[LpSpec]
    m_deposit: Fraction
    trades: List[TradeSpec]
    thresholds: Dict[str, int]
    tx_load: List[LoadSpec]
    failures: List[FailureSpec]
    adversaries: List[AdversarySpec]
    reveal_after_trade: bool
    shadow_adversary: bool


def _require(obj: dict, key: str, where: str):
    if key not in obj:
        raise ScenarioError(f"{where}.{key}", "missing required field")
    return obj[key]


def _positive(value, where: str) -> Fraction:
    q = parse_quantity(value, where)
    if q <= 0:
        raise ScenarioError(where, f"must be positive, got {value!r}")
    return q


def _positive_field(obj: dict, key: str, where: str,
                    required: bool) -> Optional[Fraction]:
    """A positive quantity at ``obj[key]``; None when absent and not
    ``required``."""
    if key not in obj and not required:
        return None
    return _positive(_require(obj, key, where), f"{where}.{key}")


def _int(value, where: str, minimum: Optional[int] = None) -> int:
    if not isinstance(value, int) or isinstance(value, bool):
        raise ScenarioError(where, f"expected integer, got {value!r}")
    if minimum is not None and value < minimum:
        raise ScenarioError(where, f"must be >= {minimum}")
    return value


def parse_seed(value) -> int:
    """A scenario seed, from the file or ``run --seed``: an integer >= 0."""
    return _int(value, "$.seed", 0)


def parse_scenario(obj: dict) -> ScenarioConfig:
    if not isinstance(obj, dict):
        raise ScenarioError("$", "scenario must be a JSON object")

    seed = parse_seed(_require(obj, "seed", "$"))
    group_bits = _int(obj.get("group_bits", 256), "$.group_bits")
    if group_bits not in (16, 256):
        raise ScenarioError("$.group_bits", "must be 16 or 256")
    committee_f = _int(obj.get("committee_f", 1), "$.committee_f", 0)

    fresh = obj.get("freshness", {})
    confirmations = _int(fresh.get("confirmations", 1), "$.freshness.confirmations", 0)
    window = _int(fresh.get("window", 10**6), "$.freshness.window", 0)

    block_interval = _int(obj.get("block_interval", 5), "$.block_interval", 1)
    ticks = _int(_require(obj, "ticks", "$"), "$.ticks", 1)

    latency = obj.get("latency", {"low": 0, "high": 0})
    lat_low = _int(latency.get("low", 0), "$.latency.low", 0)
    lat_high = _int(latency.get("high", lat_low), "$.latency.high", lat_low)

    workchains = []
    seen_wc = set()
    for i, wc in enumerate(_require(obj, "workchains", "$")):
        where = f"$.workchains[{i}]"
        wc_id = _int(_require(wc, "workchain_id", where), f"{where}.workchain_id", 0)
        if wc_id in seen_wc:
            raise ScenarioError(f"{where}.workchain_id", "duplicate workchain id")
        seen_wc.add(wc_id)
        z = _require(wc, "zone", where)
        try:
            zone = Zone(
                west=parse_quantity(z["west"], f"{where}.zone.west", False),
                east=parse_quantity(z["east"], f"{where}.zone.east", False),
                south=parse_quantity(z["south"], f"{where}.zone.south", False),
                north=parse_quantity(z["north"], f"{where}.zone.north", False),
            )
        except (KeyError, ZoneError) as exc:
            raise ScenarioError(f"{where}.zone", str(exc)) from exc
        workchains.append(WorkchainSpec(workchain_id=wc_id, zone=zone))
    if not workchains:
        raise ScenarioError("$.workchains", "at least one workchain required")
    for i, a in enumerate(workchains):
        for b in workchains[i + 1 :]:
            if a.zone.overlaps(b.zone):
                raise ScenarioError("$.workchains", "workchain zones overlap")

    peers = []
    seen_ids, seen_keys = set(), set()
    for i, p in enumerate(_require(obj, "peers", "$")):
        where = f"$.peers[{i}]"
        pid = _require(p, "peer_id", where)
        if pid in seen_ids:
            raise ScenarioError(f"{where}.peer_id", f"duplicate peer id {pid!r}")
        seen_ids.add(pid)
        key = p.get("key", f"key:{pid}")
        if key in seen_keys:
            raise ScenarioError(f"{where}.key", f"duplicate key {key!r}")
        seen_keys.add(key)
        lat = parse_quantity(_require(p, "lat", where), f"{where}.lat", False)
        lon = parse_quantity(_require(p, "lon", where), f"{where}.lon", False)
        if not any(wc.zone.contains(lat, lon) for wc in workchains):
            raise ScenarioError(where, f"peer {pid!r} outside all workchain zones")
        balance = parse_quantity(p.get("balance", "1000000"), f"{where}.balance")
        peers.append(
            PeerSpec(
                peer_id=pid, lat=lat, lon=lon, key=key,
                stake=_int(p.get("stake", 1), f"{where}.stake", 0),
                balance=int(balance * SCALE),
            )
        )

    lps = []
    for i, lp in enumerate(obj.get("lps", [])):
        where = f"$.lps[{i}]"
        lp_id = _require(lp, "lp_id", where)
        if lp_id not in seen_ids:
            raise ScenarioError(f"{where}.lp_id", f"unknown peer {lp_id!r}")
        lps.append(
            LpSpec(
                lp_id=lp_id,
                liquidity_e=parse_quantity(
                    _require(lp, "liquidity_e", where), f"{where}.liquidity_e"
                ),
            )
        )

    m_deposit = parse_quantity(obj.get("m_deposit", "0"), "$.m_deposit")
    if lps and m_deposit <= 0:
        raise ScenarioError("$.m_deposit", "must be positive when LPs deposit")

    trades = []
    for i, t in enumerate(obj.get("trades", [])):
        where = f"$.trades[{i}]"
        side = _require(t, "side", where)
        if side not in ("buy", "sell"):
            raise ScenarioError(f"{where}.side", f"unknown side {side!r}")
        trader = _require(t, "trader_id", where)
        if trader not in seen_ids:
            raise ScenarioError(f"{where}.trader_id", f"unknown peer {trader!r}")
        trades.append(
            TradeSpec(
                tick=_int(_require(t, "tick", where), f"{where}.tick", 0),
                trader_id=trader,
                side=side,
                quantity_e=parse_quantity(
                    _require(t, "quantity_e", where), f"{where}.quantity_e"
                ),
                limit_rate=parse_quantity(
                    _require(t, "limit_rate", where), f"{where}.limit_rate", False
                ),
            )
        )

    th = obj.get("thresholds", {})
    thresholds = {
        "split_tps": _int(th.get("split_tps", 10**9), "$.thresholds.split_tps", 0),
        "merge_tps": _int(th.get("merge_tps", 0), "$.thresholds.merge_tps", 0),
        "window_blocks": _int(th.get("window_blocks", 4),
                              "$.thresholds.window_blocks", 1),
    }

    tx_load = []
    for i, l in enumerate(obj.get("tx_load", [])):
        where = f"$.tx_load[{i}]"
        tx_load.append(
            LoadSpec(
                lat=parse_quantity(_require(l, "lat", where), f"{where}.lat", False),
                lon=parse_quantity(_require(l, "lon", where), f"{where}.lon", False),
                per_block=_int(_require(l, "per_block", where),
                               f"{where}.per_block", 0),
                start_tick=_int(l.get("start_tick", 0), f"{where}.start_tick", 0),
                end_tick=_int(l.get("end_tick", ticks), f"{where}.end_tick", 0),
            )
        )

    failures = []
    for i, f in enumerate(obj.get("failures", [])):
        where = f"$.failures[{i}]"
        failures.append(
            FailureSpec(
                tick=_int(_require(f, "tick", where), f"{where}.tick", 0),
                shard_id=_require(f, "shard_id", where),
                recover_tick=(
                    _int(f["recover_tick"], f"{where}.recover_tick", 0)
                    if "recover_tick" in f else None
                ),
            )
        )

    adversaries = []
    adv_list = obj.get("adversary", [])
    if isinstance(adv_list, dict):
        adv_list = [adv_list]
    for i, a in enumerate(adv_list):
        where = f"$.adversary[{i}]"
        strategy = _require(a, "strategy", where)
        if strategy not in ("sandwich", "frontrun", "arbitrage"):
            raise ScenarioError(f"{where}.strategy", f"unknown strategy {strategy!r}")
        mode = a.get("mode", "plaintext")
        if mode not in ("plaintext", "committed"):
            raise ScenarioError(f"{where}.mode", f"unknown mode {mode!r}")
        victim_side = victim_quantity = victim_range = None
        victim = a.get("victim")
        if victim is not None:
            if not isinstance(victim, dict):
                raise ScenarioError(f"{where}.victim",
                                    "expected an object with side and quantity_e")
            victim_side = _require(victim, "side", f"{where}.victim")
            if victim_side not in ("buy", "sell"):
                raise ScenarioError(f"{where}.victim.side",
                                    f"expected buy or sell, got {victim_side!r}")
            victim_quantity = _positive(
                _require(victim, "quantity_e", f"{where}.victim"),
                f"{where}.victim.quantity_e")
        vrange = a.get("victim_size_range")
        if vrange is not None:
            if not isinstance(vrange, (list, tuple)) or len(vrange) != 2:
                raise ScenarioError(f"{where}.victim_size_range",
                                    "expected two quantities [lo, hi]")
            victim_range = tuple(_positive(v, f"{where}.victim_size_range")
                                 for v in vrange)
            if victim_range[0] > victim_range[1]:
                raise ScenarioError(f"{where}.victim_size_range",
                                    "lo must not exceed hi")
        adversaries.append(
            AdversarySpec(
                strategy=strategy,
                mode=mode,
                trials=_int(a.get("trials", 1), f"{where}.trials", 1),
                pool_e=_positive(_require(a, "pool_e", where), f"{where}.pool_e"),
                pool_m=_positive(_require(a, "pool_m", where), f"{where}.pool_m"),
                attacker_size=_positive_field(
                    a, "attacker_size", where, strategy == "sandwich"),
                victim_side=victim_side,
                victim_quantity=victim_quantity,
                victim_range=victim_range,
                pool_b_e=_positive_field(
                    a, "pool_b_e", where, strategy == "arbitrage"),
                pool_b_m=_positive_field(
                    a, "pool_b_m", where, strategy == "arbitrage"),
            )
        )

    return ScenarioConfig(
        seed=seed,
        group_bits=group_bits,
        committee_f=committee_f,
        confirmations=confirmations,
        window=window,
        block_interval=block_interval,
        ticks=ticks,
        latency_low=lat_low,
        latency_high=lat_high,
        workchains=workchains,
        peers=peers,
        lps=lps,
        m_deposit=m_deposit,
        trades=trades,
        thresholds=thresholds,
        tx_load=tx_load,
        failures=failures,
        adversaries=adversaries,
        reveal_after_trade=bool(obj.get("reveal_after_trade", True)),
        shadow_adversary=bool(obj.get("shadow_adversary", False)),
    )


def load_scenario(path: str) -> ScenarioConfig:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            obj = json.load(fh)
    except FileNotFoundError as exc:
        raise ScenarioError("$", f"scenario file not found: {path}") from exc
    except json.JSONDecodeError as exc:
        raise ScenarioError(
            "$", f"invalid JSON at line {exc.lineno}, column {exc.colno}: {exc.msg}"
        ) from exc
    return parse_scenario(obj)
