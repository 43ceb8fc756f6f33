"""Seeded scenario generators for the three benchmark workloads.

Each generator turns a benchmark seed into a privamm scenario object. The
benchmark seed decides the inputs (peer coordinates, which peers provide
liquidity or trade, trade ticks inside their block window, trade sizes,
load points); the scenario's own ``seed`` field is fixed per workload.
That field alone drives ``group_setup``, whose safe-prime search costs
anywhere from 0.02 s to 4.4 s depending on it, so leaving it to the
benchmark seed would make set-up time, not the workload, decide the
spread between runs.

All three are batch runs on the simulated clock: arrival ticks are fixed
by the scenario whatever the processing speed, so the benchmark measures
work per second at a stated input size, not latency under load. Every
workload has at least 101 block rounds, so each block-time percentile
has at least 100 samples, and at least 100 trade phases.
"""

from __future__ import annotations

import random

#: Block interval (ticks) used by every workload.
BLOCK_INTERVAL = 5


def _rng(workload: str, seed: int) -> random.Random:
    return random.Random(f"perfbench/{workload}/{seed}")


def _coords(rng: random.Random, count: int, lo: int, hi: int) -> list:
    """``count`` distinct decimal coordinates in (lo, hi), 3 decimals."""
    picks = rng.sample(range(lo * 1000 + 1, hi * 1000), count)
    return [f"{p // 1000}.{p % 1000:03d}" for p in picks]


def _tick_in_round(rng: random.Random, round_no: int) -> int:
    """A tick whose arrivals block round ``round_no`` (1-based) settles.

    Round r runs at tick r * BLOCK_INTERVAL, after that tick's arrivals
    are delivered, so its window is the ticks after round r - 1 up to
    and including its own.
    """
    return rng.randint(BLOCK_INTERVAL * (round_no - 1) + 1,
                       BLOCK_INTERVAL * round_no)


def _ticks_for(rounds: int) -> int:
    """Tick count that yields exactly ``rounds`` block rounds."""
    return BLOCK_INTERVAL * rounds + 1


def _trade(rng, round_no, trader, side, quantity):
    return {
        "tick": _tick_in_round(rng, round_no),
        "trader_id": trader,
        "side": side,
        "quantity_e": quantity,
        # Non-binding limits: every order that reaches a pool settles.
        "limit_rate": "1000000" if side == "buy" else "0",
    }


def trade_heavy(seed: int) -> dict:
    """ROADMAP's scale case: one 100x100 workchain, 200 peers, 50 LPs x
    1000, 500 alternating buy/sell trades of 0.5, five per block round
    for 100 rounds, then one empty round."""
    rng = _rng("trade-heavy", seed)
    ids = [f"p{i:03d}" for i in range(200)]
    lats = _coords(rng, 200, 0, 100)
    lons = _coords(rng, 200, 0, 100)
    lps = sorted(rng.sample(ids, 50))
    trades = []
    for i in range(500):
        side = "buy" if i % 2 == 0 else "sell"
        trades.append(_trade(rng, i // 5 + 1, rng.choice(ids), side, "0.5"))
    return {
        "seed": 3,
        "group_bits": 256,
        "committee_f": 1,
        "freshness": {"confirmations": 2, "window": 1000000},
        "block_interval": BLOCK_INTERVAL,
        "ticks": _ticks_for(101),
        "workchains": [{"workchain_id": 0, "zone": {
            "west": 0, "east": 100, "south": 0, "north": 100}}],
        "peers": [{"peer_id": pid, "lat": lat, "lon": lon}
                  for pid, lat, lon in zip(ids, lats, lons)],
        "lps": [{"lp_id": pid, "liquidity_e": "1000"} for pid in lps],
        "m_deposit": "50000",
        "trades": trades,
    }


#: Rounds with committed load in load-split, out of LOAD_SPLIT_ROUNDS.
#: Loaded rounds take about 65 ms, the rounds while region c is down
#: about 60 ms and the unloaded rounds after the merge about 25 ms; with
#: 90 loaded rounds the median block round falls among the plain loaded
#: ones, not on the few failure-period rounds between the two groups.
LOAD_ROUNDS = 90
LOAD_SPLIT_ROUNDS = 110


def load_split(seed: int) -> dict:
    """Three workchains of 12 peers. Regions a and b each carry 50
    committed load transactions per block at their south-west corner,
    below and west of every peer, so each split leaves the load on the
    lower half: 12 -> 6 -> 3 -> 1 peers, three splits per region whatever
    the seed. Once the load stops the deepest sibling pair merges.
    Region c fails and later recovers. One trade per round, taking the
    regions in turn, is placed on a peer whose shard keeps a pool and a
    full committee."""
    rng = _rng("load-split", seed)
    peers, lps, traders, loads = [], [], [], []
    for wc, name in enumerate("abc"):
        base = 10 * wc
        # Six peers on the west half, six on the east half of the zone,
        # so the first split (at the median longitude) separates them.
        west = _coords(rng, 6, base + 1, base + 5)
        east = _coords(rng, 6, base + 5, base + 10)
        lats = _coords(rng, 12, 1, 10)
        ids = [f"{name}{i:02d}" for i in range(12)]
        for pid, lat, lon in zip(ids, lats, west + east):
            peers.append({"peer_id": pid, "lat": lat, "lon": lon})
        if name == "c":
            region_lps = rng.sample(ids, 3)
            traders.append(ids)
        else:
            # The east half holds the region's liquidity and trades.
            region_lps = rng.sample(ids[6:], 3)
            traders.append(ids[6:])
            loads.append({
                "lat": _coords(rng, 1, 0, 1)[0],
                "lon": _coords(rng, 1, base, base + 1)[0],
                "per_block": 50,
                "start_tick": 0,
                "end_tick": BLOCK_INTERVAL * LOAD_ROUNDS,
            })
        lps.extend({"lp_id": pid, "liquidity_e": "500"} for pid in region_lps)
    trades = []
    for r in range(1, LOAD_SPLIT_ROUNDS + 1):
        side = "buy" if r % 2 else "sell"
        quantity = f"{rng.randint(1, 40) / 4:.2f}"
        trades.append(_trade(rng, r, rng.choice(traders[r % 3]), side,
                             quantity))
    return {
        "seed": 17,
        "group_bits": 256,
        "committee_f": 1,
        "freshness": {"confirmations": 2, "window": 1000000},
        "block_interval": BLOCK_INTERVAL,
        "ticks": _ticks_for(LOAD_SPLIT_ROUNDS),
        "workchains": [
            {"workchain_id": wc, "zone": {"west": 10 * wc,
                                          "east": 10 * wc + 10,
                                          "south": 0, "north": 10}}
            for wc in range(3)
        ],
        "peers": peers,
        "lps": lps,
        "m_deposit": "4500",
        "trades": trades,
        "thresholds": {"split_tps": 20, "merge_tps": 5, "window_blocks": 2},
        "tx_load": loads,
        "failures": [{"tick": BLOCK_INTERVAL * 30 + 2, "shard_id": "shard-2",
                      "recover_tick": BLOCK_INTERVAL * 45 + 2}],
    }


MEV_ROUNDS = 110


def mev_sweep(seed: int) -> dict:
    """One small shard, one trade per block round with a shadow sandwich
    on each, then sandwich and front-run experiments in plaintext and
    committed modes. Every committed experiment has a victim."""
    rng = _rng("mev-sweep", seed)
    ids = [f"m{i}" for i in range(8)]
    lats = _coords(rng, 8, 0, 10)
    lons = _coords(rng, 8, 0, 10)
    trades = []
    for r in range(1, MEV_ROUNDS + 1):
        side = rng.choice(("buy", "sell"))
        quantity = f"{rng.randint(4, 120) / 4:.2f}"
        trades.append(_trade(rng, r, rng.choice(ids), side, quantity))
    pool = {"pool_e": "1000", "pool_m": "1000"}
    victim = {"side": rng.choice(("buy", "sell")),
              "quantity_e": str(rng.randint(20, 80))}
    victim_range = ["10", "100"]
    adversary = []
    for strategy in ("sandwich", "frontrun"):
        adversary.append({"strategy": strategy, "mode": "plaintext",
                          "trials": 8000, **pool, "attacker_size": "50",
                          "victim": victim})
        adversary.append({"strategy": strategy, "mode": "committed",
                          "trials": 8000, **pool, "attacker_size": "50",
                          "victim": victim,
                          "victim_size_range": victim_range})
    return {
        "seed": 99,
        "group_bits": 256,
        "committee_f": 1,
        "freshness": {"confirmations": 2, "window": 1000000},
        "block_interval": BLOCK_INTERVAL,
        "ticks": _ticks_for(MEV_ROUNDS),
        "workchains": [{"workchain_id": 0, "zone": {
            "west": 0, "east": 10, "south": 0, "north": 10}}],
        "peers": [{"peer_id": pid, "lat": lat, "lon": lon}
                  for pid, lat, lon in zip(ids, lats, lons)],
        "lps": [{"lp_id": pid, "liquidity_e": "1000"}
                for pid in sorted(rng.sample(ids, 3))],
        "m_deposit": "3000",
        "trades": trades,
        "shadow_adversary": True,
        "adversary": adversary,
    }


GENERATORS = {
    "trade-heavy": trade_heavy,
    "load-split": load_split,
    "mev-sweep": mev_sweep,
}
