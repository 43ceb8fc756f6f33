"""Deterministic tick-loop simulation of the sharded private market.

One run wires every layer together: a masterchain anchoring geographic
workchain shards, per-shard account tries and header chains, an init
phase that opens each shard's pool from secret LP deposits, committed
orders settled through single-round MPC, committee-voted block
production, load-driven shard splits and merges, regional failures, and
optional adversary experiments on the side. A block round settles every
live shard and proposes its block over the shard's trie, then runs one
hashing step: one Keccak batch over every pending trie node whose
children are hashed and every pending header whose state root and parent
are known, across every shard and every round not yet hashed. A header's
committee votes when it is made. Only a read of a pending header, for a
proof point, a shard back in service, a failing region or the end of the
run, runs further steps until it is made. Master blocks go to the
master's own pipeline, which only the end of the run steps: every
anchor table is hashed in one batch.

Determinism is load-bearing: every random draw comes from a named
stream derived from the scenario seed (one stream per shard, one for
latency, one per adversary experiment), timestamps are tick numbers,
and all output iteration orders are sorted. Two runs of the same
scenario produce byte-identical artifacts; a failure injected into one
shard cannot perturb any other shard's stream.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field as dc_field
from fractions import Fraction
from functools import partial
from typing import Dict, List, Optional, Tuple

from . import balance_proof, field_group, sharding, trie as trie_mod
from .adversary import AttackReport, run_arbitrage, run_frontrun, run_sandwich
from .amm import (LiquidityError, Order, OrderRejected, PoolState,
                  QuantityError, apply_trade, pool_init)
from .mpc import SCALE, MpcSession, P_MPC
from .protocol import (LpDeposit, PhaseError, RunLog, ScaledPool,
                       reveal_and_settle, run_init_phase, run_trading_phase,
                       round_fraction, scale_quantity)
from .scenario import AdversarySpec, ScenarioConfig, TradeSpec
from .sharding import (Committee, MempoolEntry, Shard, Topology, Workchain,
                       honest_votes, peer_address, peer_sender, produce_block,
                       register_peer, seal_anchors, select_committee,
                       sender_address, submit_tx)
from .trie import (MAX_NONCE, AccountLeaf, BlockHeader, HashPipeline,
                   HeaderChain, Trie)


class SimulationError(Exception):
    """A run-breaking invariant violation; maps to exit code 2."""


#: Balance given to each shard's synthetic load-generator account.
_LOAD_BALANCE = 10**30

METRICS_FIELDS = ("tick", "shard_id", "tx_count", "blocks", "anchors",
                  "adversary_profit")


def _open_pool(e_s: int, m_s: int) -> Optional[ScaledPool]:
    """A fresh curve through (e_s, m_s); None when a reserve is empty."""
    if e_s > 0 and m_s > 0:
        return ScaledPool(E_s=e_s, M_s=m_s, C2=e_s * m_s)
    return None


def split_pool(pool: Optional[ScaledPool], child_a: Shard, child_b: Shard
               ) -> Tuple[Optional[ScaledPool], Optional[ScaledPool]]:
    """Divide a fixed-point pool between two children by LP weight.

    Each child's weight is the LP deposits it carries (even halves when
    there are none). Child reserves are rounded to the quantity grid and
    the second child takes the remainder, so the scaled totals equal the
    parent's exactly: a split creates or destroys no liquidity.
    """
    if pool is None:
        return None, None
    w_a = sum(child_a.lp_liquidity.values(), Fraction(0))
    w_b = sum(child_b.lp_liquidity.values(), Fraction(0))
    total = w_a + w_b
    frac_a = w_a / total if total > 0 else Fraction(1, 2)
    e_a = round_fraction(pool.E_s * frac_a)
    m_a = round_fraction(pool.M_s * frac_a)
    return _open_pool(e_a, m_a), _open_pool(pool.E_s - e_a, pool.M_s - m_a)


def merge_pools(pools) -> Optional[ScaledPool]:
    """Sum the reserves of merging siblings' pools into one fresh curve."""
    pools = [p for p in pools if p is not None]
    if not pools:
        return None
    return _open_pool(sum(p.E_s for p in pools), sum(p.M_s for p in pools))


@dataclass(slots=True)
class ShardRuntime:
    """Mutable per-shard execution state beside the Shard record itself."""

    shard: Shard
    trie: Trie
    rng: random.Random
    # Faults the committee tolerates; None for a shard without peers.
    fault_bound: Optional[int] = None
    session: Optional[MpcSession] = None
    pool: Optional[ScaledPool] = None
    queue: List[Tuple[int, int, TradeSpec]] = dc_field(default_factory=list)
    load_proof: Optional[balance_proof.Proof] = None
    # Trie handle as of each block height; proofs are built against the
    # state the proof header actually committed, not the live state.
    trie_history: Dict[int, Trie] = dc_field(default_factory=dict)
    anchor_rounds: int = 0
    trades_settled: int = 0
    shadow_profit: Fraction = Fraction(0)

    @property
    def shard_id(self) -> str:
        return self.shard.shard_id


class Simulator:
    """Owns one scenario run end to end; see `run`."""

    def __init__(self, config: ScenarioConfig):
        self.config = config
        self.seed = config.seed
        self.log = RunLog()
        self.metrics_rows: List[dict] = []
        self.attack_rows: List[dict] = []
        self.shard_events: List[dict] = []
        self.counters = {
            "scheduled": len(config.trades),
            "settled": 0,
            "rejected": 0,
            "voided": 0,
            "load_txs": 0,
        }
        self.params: Optional[field_group.GroupParams] = None
        self.vk: Optional[balance_proof.VerificationKey] = None
        self.topology: Optional[Topology] = None
        self.runtimes: Dict[str, ShardRuntime] = {}
        # One leaf per peer; shard tries project it onto their residents.
        self.accounts: Dict[str, AccountLeaf] = {}
        self.pending: List[Tuple[int, int, TradeSpec]] = []
        # Every MPC session the run opened, live or retired.
        self.sessions: List[MpcSession] = []
        # Every shard block proposed whose header is not made yet.
        self.hashing = HashPipeline()

    # -- setup -------------------------------------------------------------

    def _setup_crypto(self):
        self.params = field_group.group_setup(
            self.config.group_bits, seed=f"group:{self.seed}"
        )
        self.vk = balance_proof.setup()
        self.log.emit(0, "system", "parameters",
                      group=self.params.to_json(), vk=self.vk.to_json())

    def _setup_topology(self):
        self.topology = Topology(
            [Workchain(wc.workchain_id, wc.zone) for wc in self.config.workchains]
        )
        self._log_block(0, "master", self.topology.master.chain.headers[0])
        for peer in self.config.peers:
            shard = register_peer(self.topology, peer.peer_id, peer.lat,
                                  peer.lon, key=peer.key)
            self.accounts[peer.peer_id] = AccountLeaf(nonce=0,
                                                      balance=peer.balance)
            self.log.emit(0, peer.peer_id, "peer_registered",
                          shard=shard.shard_id)
        for shard in self.topology.all_shards():
            self.runtimes[shard.shard_id] = self._build_runtime(shard, tick=0)

    def _build_runtime(self, shard: Shard, tick: int) -> ShardRuntime:
        # The peers' accounts, then the load generator's (sender
        # ``load:<shard>``); their addresses are hashed in one batch, and
        # update_many hashes their trie paths in a second.
        peers = sorted(shard.peers)
        addresses = sender_address.many(
            [peer_sender(pid) for pid in peers] + [f"load:{shard.shard_id}"])
        leaves = [self.accounts[pid] for pid in peers]
        leaves.append(AccountLeaf(nonce=0, balance=_LOAD_BALANCE))
        trie = Trie().update_many(list(zip(addresses, leaves)))
        load_addr = addresses[-1]

        chain = shard.chain
        if chain.height == 0:
            # A new shard: its chain opens at this trie. A shard that has
            # run (a merged parent, a child of a second split) always has
            # blocks past genesis.
            chain = shard.chain = HeaderChain(genesis_state_root=trie.root(),
                                              genesis_timestamp=tick)
            first = chain.tip
        else:
            # A shard back in service resumes the chain where it stopped;
            # reading its tip makes any header it left pending.
            first = chain.append(chain.next_header(trie.root(), tick))
        self._log_block(tick, shard.shard_id, first)
        for _ in range(self.config.confirmations):
            header = chain.append(chain.next_header(trie.root(), tick))
            self._log_block(tick, shard.shard_id, header)

        # The configured bound, capped by the peers: a shard left with
        # fewer than four peers after a split still runs, tolerating fewer
        # (possibly zero) faults, but settles privately only with f >= 1.
        f = (min(self.config.committee_f, (len(peers) - 1) // 3)
             if peers else None)
        session = None
        if f:
            session = MpcSession(3 * f + 1, modulus=P_MPC,
                                 seed=f"{self.seed}/mpc/{shard.shard_id}")
            self.sessions.append(session)

        # One proof against the first block covers every load transaction.
        load_proof = balance_proof.prove(
            self.vk,
            trie_mod.prove_account(trie, load_addr, block_height=first.height,
                                   header_hash=first.header_hash),
            1,
        )

        return ShardRuntime(
            shard=shard,
            trie=trie,
            rng=random.Random(f"{self.seed}/shard/{shard.shard_id}"),
            fault_bound=f,
            session=session,
            load_proof=load_proof,
            trie_history={first.height + h: trie
                          for h in range(self.config.confirmations + 1)},
        )

    def _committee(self, rt: ShardRuntime, epoch: int) -> Committee:
        return select_committee(rt.shard.peers, epoch=epoch, f=rt.fault_bound,
                                seed=f"{self.seed}/{rt.shard_id}")

    def _proof_point(self, rt: ShardRuntime) -> Tuple[BlockHeader, Trie]:
        """The header ``confirmations`` below the tip, and the trie it
        committed: what every balance proof on the shard is built on."""
        chain = rt.shard.chain
        header = chain.header_at(chain.height - self.config.confirmations)
        return header, rt.trie_history[header.height]

    def _log_block(self, tick: int, chain_id: str, header) -> None:
        self.log.emit(tick, chain_id, "block", chain=chain_id,
                      header=header.to_json())

    # -- init phase ----------------------------------------------------------

    def _run_init(self):
        lp_by_id = {lp.lp_id: lp for lp in self.config.lps}
        for sid in sorted(self.runtimes):
            rt = self.runtimes[sid]
            resident = [lp_by_id[pid] for pid in sorted(rt.shard.peers)
                        if pid in lp_by_id]
            if not resident:
                continue
            if rt.session is None:
                raise SimulationError(
                    f"shard {sid} has liquidity providers but no usable committee"
                )
            committee = self._committee(rt, epoch=0)
            self.log.emit(0, sid, "committee", epoch=0,
                          members=list(committee.members))
            session = MpcSession(rt.session.n, modulus=self.params.q,
                                 seed=f"{self.seed}/initmpc/{sid}")
            self.sessions.append(session)
            rng = random.Random(f"{self.seed}/initrng/{sid}")
            deposits = [
                LpDeposit(lp_id=lp.lp_id, address=peer_address(lp.lp_id),
                          liquidity_e=lp.liquidity_e)
                for lp in resident
            ]
            proof_header, proof_trie = self._proof_point(rt)
            result = run_init_phase(
                deposits, session, self.params, proof_trie, rt.shard.chain,
                proof_header, self.vk,
                confirmations=self.config.confirmations,
                window=self.config.window, now=0,
                m_deposit=self.config.m_deposit, rng=rng, log=self.log, tick=0,
            )
            if result.pool is None:
                continue
            rt.pool = result.pool
            for record, lp in zip(result.records, resident):
                if record.included_in_X:
                    rt.shard.lp_liquidity[lp.lp_id] = lp.liquidity_e

    # -- trade scheduling ------------------------------------------------------

    def _schedule_trades(self):
        rng = random.Random(f"{self.seed}/latency")
        for i, spec in enumerate(self.config.trades):
            delay = rng.randint(self.config.latency_low, self.config.latency_high)
            self.pending.append((spec.tick + delay, i, spec))
        self.pending.sort(key=lambda item: (item[0], item[1]))

    def _route(self, items):
        """Queue each order on the runtime of the shard covering its trader."""
        validators = self.topology.master.validators
        for item in items:
            trader = item[2].trader_id
            record = validators[trader]
            shard = self.topology.shard_for(record.lat, record.lon)
            if shard is None or shard.shard_id not in self.runtimes:
                raise SimulationError(f"order from {trader} has no covering shard")
            self.runtimes[shard.shard_id].queue.append(item)

    # -- failures ----------------------------------------------------------------

    def _apply_failures(self, tick: int):
        for fs in self.config.failures:
            if fs.tick == tick:
                shard = self._find_shard(fs.shard_id)
                # Reading the tip makes the blocks the shard proposed while
                # live, and its committee votes on them.
                shard.chain.tip
                shard.failed = True
                self.log.emit(tick, "system", "region_failed",
                              shard=fs.shard_id)
            if fs.recover_tick is not None and fs.recover_tick == tick:
                self._find_shard(fs.shard_id).failed = False
                self.log.emit(tick, "system", "region_recovered",
                              shard=fs.shard_id)

    def _find_shard(self, shard_id: str) -> Shard:
        try:
            return self.topology.shard_by_id(shard_id)
        except sharding.ZoneError as exc:
            raise SimulationError(str(exc)) from exc

    # -- block round -----------------------------------------------------------

    def _inject_load(self, rt: ShardRuntime, tick: int) -> int:
        count = 0
        for spec in self.config.tx_load:
            if not (spec.start_tick <= tick < spec.end_tick):
                continue
            if not rt.shard.zone.contains(spec.lat, spec.lon):
                continue
            for _ in range(spec.per_block):
                value = rt.rng.randrange(self.params.q)
                blind = rt.rng.randrange(self.params.q)
                commitment = field_group.pedersen_commit(self.params, value,
                                                         blind)
                entry = MempoolEntry(
                    sender=f"load:{rt.shard_id}",
                    commitment=commitment,
                    proof=rt.load_proof,
                    arrival_tick=tick,
                )
                result = submit_tx(rt.shard, entry, self.vk)
                if not result["accepted"]:
                    raise SimulationError(
                        f"load transaction rejected: {result['reason']}"
                    )
                count += 1
        self.counters["load_txs"] += count
        return count

    def _settle_queue(self, rt: ShardRuntime, tick: int) -> int:
        due = sorted(
            (item for item in rt.queue if item[0] <= tick),
            key=lambda item: (item[0], item[1]),
        )
        rt.queue = [item for item in rt.queue if item[0] > tick]
        settled = 0
        for _, _, spec in due:
            if self._settle_one(rt, spec, tick):
                settled += 1
        return settled

    def _reject(self, tick: int, spec: TradeSpec, reason: str) -> bool:
        """Log the order's rejection; False, as the order did not settle."""
        self.counters["rejected"] += 1
        self.log.emit(tick, spec.trader_id, "order_rejected", side=spec.side,
                      reason=reason)
        return False

    def _settle_one(self, rt: ShardRuntime, spec: TradeSpec, tick: int) -> bool:
        if rt.pool is None:
            return self._reject(tick, spec, "no pool on this shard")
        if rt.session is None:
            return self._reject(tick, spec,
                                "committee too small for private settlement")
        order = Order(side=spec.side, quantity_e=spec.quantity_e,
                      limit_rate=spec.limit_rate, trader_id=spec.trader_id)

        # Public-side sanity: trade the exact curve of the published pool.
        # A drained reserve is a run-breaking liquidity error, a violated
        # limit is an ordinary whole-order rejection.
        pool_before = rt.pool.exact()
        try:
            exact_after, _ = apply_trade(pool_before, order)
        except LiquidityError as exc:
            raise SimulationError(str(exc)) from exc
        except OrderRejected:
            return self._reject(tick, spec, "limit rate violated")

        # The leaf stores the nonce that settling this order would raise.
        account = self.accounts[spec.trader_id]
        if account.nonce >= MAX_NONCE:
            return self._reject(tick, spec,
                                f"account nonce limit {MAX_NONCE} reached")
        # A buy's money cost is debited from the balance; a balance below
        # the locked amount is left to the balance proof to refuse.
        e_scaled = scale_quantity(spec.quantity_e)
        cost = rt.pool.money_delta(-e_scaled) if spec.side == "buy" else 0
        if e_scaled <= account.balance < cost:
            return self._reject(tick, spec,
                                "balance does not cover the money cost")
        proof_header, proof_trie = self._proof_point(rt)
        try:
            trade = run_trading_phase(
                order, peer_address(spec.trader_id), rt.pool, rt.session,
                self.params, proof_trie, rt.shard.chain, proof_header,
                self.vk, confirmations=self.config.confirmations,
                window=self.config.window, now=tick, rng=rt.rng,
                log=self.log, tick=tick,
            )
        except PhaseError as exc:
            raise SimulationError(str(exc)) from exc
        except balance_proof.ProvingError as exc:
            return self._reject(tick, spec, f"balance proof failed: {exc}")
        if trade.voided:
            self.counters["voided"] += 1
            return False
        if not trade.finalized:
            raise SimulationError("trade neither voided nor finalized")

        self._check_drift(rt.shard_id, exact_after, trade.pool_after)
        rt.pool = trade.pool_after
        reveal_and_settle(trade, self.log, tick,
                          reveal_commitment=self.config.reveal_after_trade)
        self._debit_trader(rt, spec.trader_id,
                           trade.pool_after.M_s - trade.pool_before.M_s)
        self.counters["settled"] += 1
        rt.trades_settled += 1

        if self.config.shadow_adversary:
            report = run_sandwich(
                pool_before, order,
                attacker_size=pool_before.E / 20,
                mode="committed", trials=1,
                rng=random.Random(f"{self.seed}/shadow/{rt.shard_id}/{tick}"),
            )
            rt.shadow_profit += report.mean_profit
        return True

    def _check_drift(self, shard_id: str, ref: PoolState, pub: ScaledPool):
        """The MPC's published pool must sit on the exact rational curve."""
        if ref.E * SCALE != pub.E_s:
            raise SimulationError(
                f"conservation drift on {shard_id}: energy reserve "
                f"{ref.E} != {pub.E_s}/{SCALE}"
            )
        if abs(ref.M * SCALE - pub.M_s) > 1:
            raise SimulationError(
                f"conservation drift on {shard_id}: money reserve "
                f"{ref.M} vs {pub.M_s}/{SCALE}"
            )

    def _debit_trader(self, rt: ShardRuntime, trader_id: str, m_delta: int):
        old = self.accounts[trader_id]
        if old.balance < m_delta:
            raise SimulationError(f"account {trader_id} cannot cover settled cost")
        leaf = AccountLeaf(nonce=old.nonce + 1, balance=old.balance - m_delta)
        self.accounts[trader_id] = leaf
        rt.trie = rt.trie.update(peer_address(trader_id), leaf)

    def _block_round(self, tick: int):
        # Settle every live shard and propose its block. Each shard's block
        # event is emitted after its trades, and its header filled in when
        # the pipeline makes it.
        round_counts: Dict[str, int] = {}
        for sid in sorted(self.runtimes):
            rt = self.runtimes[sid]
            tx_count = 0
            if not rt.shard.failed:
                tx_count += self._inject_load(rt, tick)
                tx_count += self._settle_queue(rt, tick)
                if rt.fault_bound is not None:
                    self._propose(rt, tick, tx_count)
            round_counts[sid] = tx_count
        self.hashing.step()

        # One masterchain block per round carries every shard's anchor; its
        # header is filled in when the master's pipeline makes it.
        master = self.topology.master
        for rt in self.runtimes.values():
            rt.anchor_rounds += 1
        event = self.log.emit(tick, "master", "block", chain="master")
        height = seal_anchors(master, self.topology.all_shards(), tick,
                              partial(self._anchored, event))
        table = master.anchor_table
        live = [sid for sid in table if not table[sid]["stale"]]
        self.log.emit(tick, "master", "anchors", masterHeight=height,
                      table=table, live=live)

        for sid in sorted(round_counts):
            rt = self.runtimes[sid]
            profit = rt.shadow_profit
            self.metrics_rows.append({
                "tick": tick,
                "shard_id": sid,
                "tx_count": round_counts[sid],
                "blocks": rt.shard.blocks_produced(),
                "anchors": rt.anchor_rounds,
                "adversary_profit": f"{profit.numerator}/{profit.denominator}",
            })

        self._rebalance(tick)

    def _propose(self, rt: ShardRuntime, tick: int, tx_count: int) -> None:
        """Queue the shard's block over its trie; `_finalize` runs when
        the pipeline makes its header."""
        chain = rt.shard.chain
        committee = self._committee(rt, chain.height)
        event = self.log.emit(tick, rt.shard_id, "block", chain=rt.shard_id)
        height = self.hashing.propose(
            chain, rt.trie, tick, partial(self._finalize, rt, committee, event))
        rt.trie_history[height] = rt.trie
        # Proofs read tip - confirmations; older heights are never read
        # again.
        rt.trie_history.pop(height - self.config.confirmations - 1, None)
        rt.shard.load_window.append(tx_count)
        rt.shard.mempool.clear()

    def _finalize(self, rt: ShardRuntime, committee: Committee, event: dict,
                  header: BlockHeader) -> None:
        """The committee's vote on a proposal whose header was just made."""
        votes = honest_votes(committee, header)
        if produce_block(rt.shard, committee, votes, header) is None:
            raise SimulationError(
                f"honest committee of {rt.shard_id} did not finalize")
        event["header"] = header.to_json()

    def _anchored(self, event: dict, header: BlockHeader) -> None:
        """Append a master header the master's pipeline just made."""
        self.topology.master.chain.append(header)
        event["header"] = header.to_json()

    # -- split / merge ------------------------------------------------------------

    def _rebalance(self, tick: int):
        master = self.topology.master
        for wc in self.topology.workchains:
            events = sharding.rebalance_shards(wc, self.config.thresholds,
                                               master.validators)
            for event in events:
                if event["event"] == "split":
                    self._reshard([event["parent"]], event["children"], tick)
                else:
                    self._reshard(event["children"], [event["merged"]], tick)
                record = {"tick": tick, **event}
                self.shard_events.append(record)
                payload = {k: v for k, v in event.items() if k != "event"}
                self.log.emit(tick, "system", f"shard_{event['event']}",
                              **payload)

    def _reshard(self, retired_ids: List[str], new_ids: List[str], tick: int):
        """Retire the runtimes of a split's parent or a merge's children,
        open runtimes for the shards that replace them, hand over the
        pools and route the retired queues."""
        retired = [self.runtimes.pop(sid) for sid in retired_ids]
        shards = [self.topology.shard_by_id(sid) for sid in new_ids]
        # The retired pools are summed (a split has one), then divided
        # between two children by LP weight (a merge has one shard).
        pool = merge_pools(rt.pool for rt in retired)
        pools = split_pool(pool, *shards) if len(shards) == 2 else [pool]
        for shard, pool in zip(shards, pools):
            rt = self._build_runtime(shard, tick)
            rt.pool = pool
            self.runtimes[shard.shard_id] = rt
        self._route([item for rt in retired for item in rt.queue])

    # -- adversary experiments -------------------------------------------------

    def _run_adversaries(self, tick: int):
        for i, spec in enumerate(self.config.adversaries):
            # Draws that drain the experiment's pool end the run, as a
            # draining trade does.
            try:
                report = self._one_adversary(spec, i)
            except (LiquidityError, QuantityError) as exc:
                raise SimulationError(
                    f"adversary experiment {i}: {exc}") from exc
            row = report.to_csv_row()
            self.attack_rows.append(row)
            self.log.emit(tick, "adversary", "attack_report",
                          t_stat=f"{report.t_stat():.12g}", **row)

    def _one_adversary(self, spec: AdversarySpec, index: int) -> AttackReport:
        rng = random.Random(f"{self.seed}/adversary/{index}")
        pool = pool_init(spec.pool_e, spec.pool_m)
        victim = None
        if spec.victim_quantity is not None:
            victim = Order(side=spec.victim_side,
                           quantity_e=spec.victim_quantity,
                           limit_rate=Fraction(10**12))
        if spec.strategy == "sandwich":
            return run_sandwich(pool, victim, spec.attacker_size, spec.mode,
                                trials=spec.trials, rng=rng,
                                victim_size_range=spec.victim_range)
        if spec.strategy == "frontrun":
            return run_frontrun(pool, victim, spec.mode,
                                attacker_size=spec.attacker_size,
                                trials=spec.trials, rng=rng,
                                victim_size_range=spec.victim_range)
        pool_b = pool_init(spec.pool_b_e, spec.pool_b_m)
        return run_arbitrage(pool, pool_b, mode=spec.mode)

    # -- summary ------------------------------------------------------------------

    def _mpc_totals(self) -> dict:
        totals = {"offline_rounds": 0, "online_rounds": 0, "messages": 0,
                  "offline_messages": 0}
        for session in self.sessions:
            for key, value in session.log.to_json().items():
                totals[key] += value
        return totals

    def _summary(self) -> dict:
        shards = []
        for sid in sorted(self.runtimes):
            rt = self.runtimes[sid]
            shards.append({
                "shardId": sid,
                "zone": rt.shard.zone.to_json(),
                "peers": sorted(rt.shard.peers),
                "failed": rt.shard.failed,
                "blocks": rt.shard.blocks_produced(),
                "anchorRounds": rt.anchor_rounds,
                "txs": sum(rt.shard.load_window),
                "tradesSettled": rt.trades_settled,
                "pool": rt.pool.to_json() if rt.pool else None,
            })
        master = self.topology.master
        return {
            "seed": self.seed,
            "ticks": self.config.ticks,
            "groupBits": self.config.group_bits,
            "confirmations": self.config.confirmations,
            "group": self.params.to_json(),
            "vk": self.vk.to_json(),
            "shards": shards,
            "master": {
                "height": master.chain.height,
                "anchorTable": master.anchor_table,
            },
            "mpc": self._mpc_totals(),
            "trades": dict(self.counters),
            "shardEvents": self.shard_events,
        }

    # -- main loop -------------------------------------------------------------------

    def run(self) -> dict:
        self._setup_crypto()
        self._setup_topology()
        self._run_init()
        self._schedule_trades()

        for tick in range(self.config.ticks):
            self._apply_failures(tick)
            due = 0
            while due < len(self.pending) and self.pending[due][0] <= tick:
                due += 1
            self._route(self.pending[:due])
            del self.pending[:due]
            if tick > 0 and tick % self.config.block_interval == 0:
                self._block_round(tick)
        # Make every shard header, then every master header: the master's
        # first step hashes every anchor table in one batch.
        self.hashing.flush()
        self.topology.master.hashing.flush()

        self._run_adversaries(self.config.ticks)
        summary = self._summary()
        self.log.emit(self.config.ticks, "system", "run_complete",
                      settled=self.counters["settled"],
                      masterHeight=summary["master"]["height"])
        return summary
