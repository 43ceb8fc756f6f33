"""Scenario configuration: parsing and validation of run descriptions.

A scenario is a single JSON object. Every field is read by one reader,
``_at``, which forms the field's path and applies the missing-field rule,
then hands the value to the one parser of its type rule (integer with a
minimum, quantity, coordinate, positive quantity, balance, choice, string,
JSON boolean, object, list of objects); ``_unique`` rejects repeated ids.
Quantities are integers or decimal strings parsed exactly, on the 1e-6
grid; coordinates and limit rates may be off it. Floats are rejected,
since a binary float rarely holds the decimal the author wrote. Each
failure raises ScenarioError with the offending field path, which the
command line maps to exit code 1.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from fractions import Fraction
from functools import partial
from typing import Dict, List, Optional

from .mpc import SCALE
from .sharding import Zone, ZoneError


class ScenarioError(ValueError):
    """Malformed scenario file; message names the field."""

    def __init__(self, field_path: str, message: str):
        self.field_path = field_path
        super().__init__(f"{field_path}: {message}")


def parse_quantity(value, where: str, require_grid: bool = True) -> Fraction:
    """An integer or decimal string, exactly; on the 1e-6 grid if asked."""
    if type(value) is float:
        raise ScenarioError(where, f"float quantity {value!r}; use a decimal string")
    if type(value) not in (int, str):
        raise ScenarioError(where, f"not a rational quantity: {value!r}")
    try:
        q = Fraction(value)
    except (ValueError, ZeroDivisionError) as exc:
        raise ScenarioError(where, f"not a rational quantity: {value!r}") from exc
    if require_grid and SCALE % q.denominator:  # q * SCALE is not whole
        raise ScenarioError(where, f"{value!r} is not on the 1e-6 grid")
    return q


@dataclass(frozen=True, slots=True)
class PeerSpec:
    peer_id: str
    lat: Fraction
    lon: Fraction
    key: str
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


_REQUIRED = object()  # the ``default`` of a field that must be present


def _at(obj: dict, key: str, where: str, parse, default):
    """Field ``key`` of ``obj``, the object at path ``where``, read through
    ``parse(value, path)``. A missing field is an error if ``default`` is
    _REQUIRED, None if it is None, and otherwise reads ``default``, which
    is written as the file would write it."""
    path = f"{where}.{key}"
    if key in obj:
        return parse(obj[key], path)
    if default is _REQUIRED:
        raise ScenarioError(path, "missing required field")
    return None if default is None else parse(default, path)


_coordinate = partial(parse_quantity, require_grid=False)


def _positive(value, where: str) -> Fraction:
    q = parse_quantity(value, where)
    if q <= 0:
        raise ScenarioError(where, f"must be positive, got {value!r}")
    return q


def _balance(value, where: str) -> int:
    """A scaled account balance: it must fit the 256-bit account leaf."""
    scaled = int(parse_quantity(value, where) * SCALE)
    if not 0 <= scaled < 1 << 256:
        raise ScenarioError(where, f"must be >= 0 and below 2**256 / {SCALE}")
    return scaled


def _integer(minimum: int):
    """The parser of an integer that is at least ``minimum``."""
    def parse(value, where: str) -> int:
        if type(value) is not int:
            raise ScenarioError(where, f"expected integer, got {value!r}")
        if value < minimum:
            raise ScenarioError(where, f"must be >= {minimum}")
        return value
    return parse


def _string(value, where: str) -> str:
    if type(value) is not str:
        raise ScenarioError(where, f"expected a string, got {value!r}")
    return value


def _flag(value, where: str) -> bool:
    if type(value) is not bool:
        raise ScenarioError(where, f"expected true or false, got {value!r}")
    return value


def _choice(what: str, options):
    """The parser of one of ``options``, matched by type and value."""
    kinds = {type(option) for option in options}

    def parse(value, where: str):
        if type(value) not in kinds or value not in options:
            raise ScenarioError(where, f"unknown {what} {value!r}")
        return value
    return parse


def _object(read):
    """The parser of a JSON object whose fields ``read(obj, where)`` reads."""
    def parse(value, where: str):
        if type(value) is not dict:
            raise ScenarioError(where, "expected an object")
        return read(value, where)
    return parse


def _objects(read):
    """The parser of a list of JSON objects, each read by ``read`` at the
    path of its index."""
    item = _object(read)

    def parse(value, where: str) -> list:
        if type(value) is not list:
            raise ScenarioError(where, "expected a list")
        return [item(v, f"{where}[{i}]") for i, v in enumerate(value)]
    return parse


def _unique(values: list, where: str, key: str) -> None:
    """Reject the first repeat in ``values``, field ``key`` of each object
    of the list at ``where``."""
    seen = set()
    for i, value in enumerate(values):
        if value in seen:
            raise ScenarioError(f"{where}[{i}].{key}", f"duplicate {key} {value!r}")
        seen.add(value)


_NATURAL = _integer(0)
_SIDE = _choice("side", ("buy", "sell"))
_STRATEGY = _choice("strategy", ("sandwich", "frontrun", "arbitrage"))
_MODE = _choice("mode", ("plaintext", "committed"))


def parse_seed(value) -> int:
    """A scenario seed, from the file or ``run --seed``: an integer >= 0."""
    return _NATURAL(value, "$.seed")


def _zone(z: dict, where: str) -> Zone:
    try:
        return Zone(**{side: _at(z, side, where, _coordinate, _REQUIRED)
                       for side in ("west", "east", "south", "north")})
    except ZoneError as exc:
        raise ScenarioError(where, str(exc)) from exc


def _size_range(value, where: str) -> tuple:
    """A victim size range: two positive quantities [lo, hi], lo <= hi."""
    if type(value) is not list or len(value) != 2:
        raise ScenarioError(where, "expected two quantities [lo, hi]")
    lo, hi = (_positive(v, where) for v in value)
    if lo > hi:
        raise ScenarioError(where, "lo must not exceed hi")
    return lo, hi


def _adversary(a: dict, where: str) -> AdversarySpec:
    strategy = _at(a, "strategy", where, _STRATEGY, _REQUIRED)
    sandwich = _REQUIRED if strategy == "sandwich" else None
    arbitrage = _REQUIRED if strategy == "arbitrage" else None
    victim = _at(a, "victim", where, _object(lambda v, where: (
        _at(v, "side", where, _SIDE, _REQUIRED),
        _at(v, "quantity_e", where, _positive, _REQUIRED))), None)
    victim_side, victim_quantity = victim or (None, None)
    return AdversarySpec(
        strategy=strategy,
        mode=_at(a, "mode", where, _MODE, "plaintext"),
        trials=_at(a, "trials", where, _integer(1), 1),
        pool_e=_at(a, "pool_e", where, _positive, _REQUIRED),
        pool_m=_at(a, "pool_m", where, _positive, _REQUIRED),
        attacker_size=_at(a, "attacker_size", where, _positive, sandwich),
        victim_side=victim_side,
        victim_quantity=victim_quantity,
        victim_range=_at(a, "victim_size_range", where, _size_range, None),
        pool_b_e=_at(a, "pool_b_e", where, _positive, arbitrage),
        pool_b_m=_at(a, "pool_b_m", where, _positive, arbitrage),
    )


def parse_scenario(obj: dict) -> ScenarioConfig:
    if type(obj) is not dict:
        raise ScenarioError("$", "scenario must be a JSON object")
    ticks = _at(obj, "ticks", "$", _integer(1), _REQUIRED)

    workchains = _at(obj, "workchains", "$", _objects(lambda wc, where: WorkchainSpec(
        workchain_id=_at(wc, "workchain_id", where, _NATURAL, _REQUIRED),
        zone=_at(wc, "zone", where, _object(_zone), _REQUIRED))), _REQUIRED)
    if not workchains:
        raise ScenarioError("$.workchains", "at least one workchain required")
    _unique([wc.workchain_id for wc in workchains], "$.workchains", "workchain_id")
    for i, a in enumerate(workchains):
        for b in workchains[i + 1 :]:
            if a.zone.overlaps(b.zone):
                raise ScenarioError("$.workchains", "workchain zones overlap")

    def peer(p: dict, where: str) -> PeerSpec:
        pid = _at(p, "peer_id", where, _string, _REQUIRED)
        lat = _at(p, "lat", where, _coordinate, _REQUIRED)
        lon = _at(p, "lon", where, _coordinate, _REQUIRED)
        if not any(wc.zone.contains(lat, lon) for wc in workchains):
            raise ScenarioError(where, f"peer {pid!r} outside all workchain zones")
        return PeerSpec(peer_id=pid, lat=lat, lon=lon,
                        key=_at(p, "key", where, _string, f"key:{pid}"),
                        balance=_at(p, "balance", where, _balance, "1000000"))

    peers = _at(obj, "peers", "$", _objects(peer), _REQUIRED)
    _unique([p.peer_id for p in peers], "$.peers", "peer_id")
    _unique([p.key for p in peers], "$.peers", "key")
    peer_id = _choice("peer", {p.peer_id for p in peers})

    lps = _at(obj, "lps", "$", _objects(lambda lp, where: LpSpec(
        lp_id=_at(lp, "lp_id", where, peer_id, _REQUIRED),
        liquidity_e=_at(lp, "liquidity_e", where, parse_quantity, _REQUIRED),
    )), [])
    _unique([lp.lp_id for lp in lps], "$.lps", "lp_id")
    m_deposit = _at(obj, "m_deposit", "$", parse_quantity, "0")
    if lps and m_deposit <= 0:
        raise ScenarioError("$.m_deposit", "must be positive when LPs deposit")

    def latency(lat: dict, where: str) -> tuple:
        low = _at(lat, "low", where, _NATURAL, 0)
        return low, _at(lat, "high", where, _integer(low), low)

    confirmations, window = _at(obj, "freshness", "$", _object(lambda f, where: (
        _at(f, "confirmations", where, _NATURAL, 1),
        _at(f, "window", where, _NATURAL, 10**6))), {})
    latency_low, latency_high = _at(obj, "latency", "$", _object(latency), {})
    return ScenarioConfig(
        seed=_at(obj, "seed", "$", _NATURAL, _REQUIRED),
        group_bits=_at(obj, "group_bits", "$",
                       _choice("group size", (16, 256)), 256),
        committee_f=_at(obj, "committee_f", "$", _NATURAL, 1),
        confirmations=confirmations,
        window=window,
        block_interval=_at(obj, "block_interval", "$", _integer(1), 5),
        ticks=ticks,
        latency_low=latency_low,
        latency_high=latency_high,
        workchains=workchains,
        peers=peers,
        lps=lps,
        m_deposit=m_deposit,
        trades=_at(obj, "trades", "$", _objects(lambda t, where: TradeSpec(
            tick=_at(t, "tick", where, _NATURAL, _REQUIRED),
            trader_id=_at(t, "trader_id", where, peer_id, _REQUIRED),
            side=_at(t, "side", where, _SIDE, _REQUIRED),
            quantity_e=_at(t, "quantity_e", where, _positive, _REQUIRED),
            limit_rate=_at(t, "limit_rate", where, _coordinate, _REQUIRED),
        )), []),
        thresholds=_at(obj, "thresholds", "$", _object(lambda th, where: {
            "split_tps": _at(th, "split_tps", where, _NATURAL, 10**9),
            "merge_tps": _at(th, "merge_tps", where, _NATURAL, 0),
            "window_blocks": _at(th, "window_blocks", where, _integer(1), 4),
        }), {}),
        tx_load=_at(obj, "tx_load", "$", _objects(lambda load, where: LoadSpec(
            lat=_at(load, "lat", where, _coordinate, _REQUIRED),
            lon=_at(load, "lon", where, _coordinate, _REQUIRED),
            per_block=_at(load, "per_block", where, _NATURAL, _REQUIRED),
            start_tick=_at(load, "start_tick", where, _NATURAL, 0),
            end_tick=_at(load, "end_tick", where, _NATURAL, ticks),
        )), []),
        failures=_at(obj, "failures", "$", _objects(lambda f, where: FailureSpec(
            tick=_at(f, "tick", where, _NATURAL, _REQUIRED),
            shard_id=_at(f, "shard_id", where, _string, _REQUIRED),
            recover_tick=_at(f, "recover_tick", where, _NATURAL, None),
        )), []),
        adversaries=_at(obj, "adversary", "$", lambda a, where: _objects(_adversary)(
            [a] if type(a) is dict else a, where), []),  # one object, or a list
        reveal_after_trade=_at(obj, "reveal_after_trade", "$", _flag, True),
        shadow_adversary=_at(obj, "shadow_adversary", "$", _flag, False),
    )


def load_scenario(path: str) -> ScenarioConfig:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            obj = json.load(fh)
    except FileNotFoundError as exc:
        raise ScenarioError("$", f"scenario file not found: {path}") from exc
    except OSError as exc:
        raise ScenarioError(
            "$", f"cannot read scenario file {path}: {exc.strerror}") from exc
    except json.JSONDecodeError as exc:
        raise ScenarioError(
            "$", f"invalid JSON at line {exc.lineno}, column {exc.colno}: {exc.msg}"
        ) from exc
    except ValueError as exc:  # not UTF-8, or an integer past int()'s digit limit
        raise ScenarioError("$", f"unreadable scenario file {path}: {exc}") from exc
    return parse_scenario(obj)
