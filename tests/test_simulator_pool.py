"""The simulator's pool: LP-weighted splits, merges, and the drift check."""

import dataclasses
from fractions import Fraction
from pathlib import Path

import pytest

from privamm import simulator
from privamm.mpc import SCALE
from privamm.protocol import ScaledPool
from privamm.scenario import load_scenario
from privamm.sharding import (PeerRecord, Topology, Workchain, Zone,
                              split_shard)
from privamm.simulator import (SimulationError, Simulator, merge_pools,
                               split_pool)

SCENARIOS = Path(__file__).resolve().parent.parent / "scenarios"

PARENT = ScaledPool(E_s=100 * SCALE, M_s=1000 * SCALE,
                    C2=100 * SCALE * 1000 * SCALE)


def split_children(weights):
    """Split a 10x10 shard whose LPs "a" (west) and "b" (east) deposited
    ``weights``."""
    wc = Topology([Workchain(0, Zone(0, 10, 0, 10))]).workchains[0]
    shard = wc.shards[0]
    records = {pid: PeerRecord(pid, Fraction(5), Fraction(lon), f"k-{pid}")
               for pid, lon in (("a", 1), ("b", 9))}
    shard.peers = list(records)
    shard.lp_liquidity = dict(zip("ab", map(Fraction, weights)))
    return split_shard(wc, shard, records)


def test_split_divides_pool_by_lp_weight():
    child_a, child_b = split_children((100, 300))
    pool_a, pool_b = split_pool(PARENT, child_a, child_b)
    assert (pool_a.E_s, pool_a.M_s) == (25 * SCALE, 250 * SCALE)
    assert (pool_b.E_s, pool_b.M_s) == (75 * SCALE, 750 * SCALE)
    # Reserve totals conserved exactly; each child opens its own curve.
    assert pool_a.E_s + pool_b.E_s == PARENT.E_s
    assert pool_a.M_s + pool_b.M_s == PARENT.M_s
    for pool in (pool_a, pool_b):
        assert pool.C2 == pool.E_s * pool.M_s


def test_split_rounds_to_grid_and_conserves_totals():
    child_a, child_b = split_children((1, 2))
    pool_a, pool_b = split_pool(PARENT, child_a, child_b)
    assert pool_a.E_s == round(Fraction(PARENT.E_s, 3))
    assert pool_a.E_s + pool_b.E_s == PARENT.E_s
    assert pool_a.M_s + pool_b.M_s == PARENT.M_s


def test_split_without_pool_or_lps():
    child_a, child_b = split_children((100, 300))
    assert split_pool(None, child_a, child_b) == (None, None)
    child_a.lp_liquidity.clear()
    child_b.lp_liquidity.clear()
    pool_a, pool_b = split_pool(PARENT, child_a, child_b)
    assert pool_a == pool_b == ScaledPool(E_s=50 * SCALE, M_s=500 * SCALE,
                                          C2=50 * SCALE * 500 * SCALE)


def test_merge_sums_pools_back_to_parent():
    child_a, child_b = split_children((100, 300))
    assert merge_pools(split_pool(PARENT, child_a, child_b)) == PARENT
    assert merge_pools([None, PARENT]) == PARENT
    assert merge_pools([None, None]) is None


def test_drift_in_published_pool_is_fatal(monkeypatch):
    real = simulator.run_trading_phase

    def off_by_one(*args, **kwargs):
        trade = real(*args, **kwargs)
        if trade.finalized:
            trade.pool_after = dataclasses.replace(
                trade.pool_after, E_s=trade.pool_after.E_s + 1)
        return trade

    monkeypatch.setattr(simulator, "run_trading_phase", off_by_one)
    sim = Simulator(load_scenario(str(SCENARIOS / "smoke.json")))
    with pytest.raises(SimulationError, match="conservation drift"):
        sim.run()
