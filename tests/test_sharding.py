"""Geo-sharded two-tier ledger: zones, committees, anchors, splits."""

import itertools
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from privamm import balance_proof, trie as trie_mod
from privamm.keccak import keccak256
from privamm.sharding import (Committee, CommitteeError, Masterchain,
                              MempoolEntry, PeerRecord, RegistrationError,
                              Shard, Topology, Vote,
                              Workchain, Zone, ZoneError, anchor_root,
                              honest_votes, merge_shards, peer_address,
                              produce_block, rebalance_shards, register_peer,
                              seal_anchors, select_committee, sender_address,
                              split_shard, submit_tx, tally_votes,
                              zones_tile)
from privamm.rlp import rlp_encode
from privamm.scenario import load_scenario
from privamm.simulator import Simulator
from privamm.trie import (AccountLeaf, ChainError, HashPipeline, HeaderChain,
                          MptProof, Trie, encode_account_leaf, header_digest,
                          hp_encode, prove_account)

VK = balance_proof.setup()
SCENARIOS = Path(__file__).resolve().parent.parent / "scenarios"


def make_topology(zone=None):
    zone = zone or Zone(west=0, east=10, south=0, north=10)
    return Topology([Workchain(workchain_id=0, zone=zone)])


def account_of(sender: str) -> bytes:
    return keccak256(sender.encode())[:20]


def valid_entry(shard, sender="alice", balance=1000, threshold=10, tick=0):
    """An entry whose proof names a new block on ``shard``'s chain; four
    neighbour accounts put a branch on the proof's node stack."""
    trie = Trie()
    for i in range(4):
        trie = trie.update(account_of(f"neighbour-{i}"),
                           AccountLeaf(nonce=0, balance=1))
    trie = trie.update(account_of(sender), AccountLeaf(nonce=0, balance=balance))
    header = shard.chain.append(shard.chain.next_header(trie.root(), timestamp=tick))
    account = prove_account(trie, account_of(sender), block_height=header.height,
                            header_hash=header.header_hash)
    proof = balance_proof.prove(VK, account, threshold)
    return MempoolEntry(sender=sender, commitment=123456, proof=proof,
                        arrival_tick=tick)


def with_proof(entry, threshold=None, **account_fields) -> MempoolEntry:
    """``entry`` with its proof's threshold or account-proof fields replaced."""
    proof = entry.proof
    account = proof.account
    fields = {"address": account.address, "node_stack": account.node_stack,
              "block_height": account.block_height,
              "header_hash": account.header_hash, **account_fields}
    forged = balance_proof.Proof(
        proof.vk, proof.threshold if threshold is None else threshold,
        MptProof(**fields))
    return MempoolEntry(sender=entry.sender, commitment=entry.commitment,
                        proof=forged, arrival_tick=entry.arrival_tick)


# -- zones ---------------------------------------------------------------------

def test_zone_half_open_edges():
    z = Zone(west=0, east=10, south=0, north=10)
    assert z.contains(0, 0)
    assert z.contains("9.999", "9.999")
    assert not z.contains(10, 5)
    assert not z.contains(5, 10)


def test_zone_positive_extent_required():
    with pytest.raises(ZoneError):
        Zone(west=5, east=5, south=0, north=10)


def test_zone_fraction_coordinates():
    z = Zone(west="1/3", east="2/3", south=0, north=1)
    assert z.west == Fraction(1, 3)
    assert z.area() == Fraction(1, 3)


def test_zones_tile_accepts_exact_partition():
    parent = Zone(west=0, east=10, south=0, north=10)
    halves = [Zone(0, 6, 0, 10), Zone(6, 10, 0, 10)]
    assert zones_tile(parent, halves)


def test_zones_tile_rejects_gap_and_overlap():
    parent = Zone(west=0, east=10, south=0, north=10)
    assert not zones_tile(parent, [Zone(0, 5, 0, 10), Zone(6, 10, 0, 10)])
    assert not zones_tile(parent, [Zone(0, 7, 0, 10), Zone(6, 10, 0, 10)])
    assert not zones_tile(parent, [])


def test_zone_json_round_trip():
    z = Zone(west="1/3", east=10, south="-5", north="7/2")
    assert Zone.from_json(z.to_json()) == z


# -- registration ----------------------------------------------------------------

def test_register_places_peer_by_location():
    topo = make_topology()
    shard = register_peer(topo, "p1", lat=5, lon=5, key="k1")
    assert shard is topo.shard_by_id("shard-0")
    assert shard.peers == ["p1"]
    assert topo.master.validators["p1"].key == "k1"


def test_register_rejects_duplicate_id_and_key():
    topo = make_topology()
    register_peer(topo, "p1", 5, 5, key="k1")
    with pytest.raises(RegistrationError, match="already registered"):
        register_peer(topo, "p1", 6, 6, key="k2")
    with pytest.raises(RegistrationError, match="key"):
        register_peer(topo, "p2", 6, 6, key="k1")


def test_register_rejects_out_of_zone():
    topo = make_topology()
    with pytest.raises(RegistrationError, match="outside"):
        register_peer(topo, "p1", 50, 50, key="k1")


# -- committees -------------------------------------------------------------------

def test_committee_size_is_3f_plus_1():
    with pytest.raises(CommitteeError, match="3f\\+1"):
        Committee(epoch=0, members=("a", "b", "c"), f=1)
    with pytest.raises(CommitteeError, match="duplicate"):
        Committee(epoch=0, members=("a", "b", "c", "a"), f=1)
    c = Committee(epoch=0, members=("a", "b", "c", "d"), f=1)
    assert c.quorum == 3


def test_select_committee_deterministic():
    eligible = [f"p{i}" for i in range(10)]
    a = select_committee(eligible, epoch=3, f=2, seed="s")
    b = select_committee(reversed(eligible), epoch=3, f=2, seed="s")
    assert a == b
    assert len(a.members) == 7
    assert set(a.members) <= set(eligible)
    assert a != select_committee(eligible, epoch=4, f=2, seed="s")


def test_select_committee_needs_enough_nodes():
    with pytest.raises(CommitteeError, match="need 4"):
        select_committee(["a", "b", "c"], epoch=0, f=1, seed="s")


# -- vote tallying -----------------------------------------------------------------

def test_quorum_requires_2f_plus_1_distinct_members():
    c = Committee(epoch=0, members=("a", "b", "c", "d"), f=1)
    digest = b"\x01" * 32
    two = [Vote("a", digest), Vote("b", digest), Vote("a", digest)]
    assert tally_votes(c, two) == []  # duplicates from one member count once
    three = [Vote("a", digest), Vote("b", digest), Vote("c", digest)]
    assert tally_votes(c, three) == [digest]


def test_non_member_votes_ignored():
    c = Committee(epoch=0, members=("a", "b", "c", "d"), f=1)
    digest = b"\x02" * 32
    votes = [Vote(n, digest) for n in ("a", "b", "x")]
    assert tally_votes(c, votes) == []


def test_no_two_digests_reach_quorum_with_f_equivocators():
    """Exhaustive n=4 safety check: each member votes A, B, or both; with at
    most f=1 double-voter, conflicting digests can never both finalize."""
    c = Committee(epoch=0, members=("m0", "m1", "m2", "m3"), f=1)
    dig_a, dig_b = b"\xaa" * 32, b"\xbb" * 32
    choices = [("A",), ("B",), ("A", "B")]
    for assignment in itertools.product(choices, repeat=4):
        if sum(len(ch) == 2 for ch in assignment) > c.f:
            continue
        votes = [
            Vote(member, dig_a if label == "A" else dig_b)
            for member, ch in zip(c.members, assignment)
            for label in ch
        ]
        winners = tally_votes(c, votes)
        assert len(winners) <= 1, f"fork under assignment {assignment}"


# -- block production ---------------------------------------------------------------

def build_shard(n_peers=4):
    topo = make_topology()
    for i in range(n_peers):
        register_peer(topo, f"p{i}", lat=1 + i, lon=1 + i, key=f"k{i}")
    shard = topo.shard_by_id("shard-0")
    committee = select_committee(shard.peers, epoch=0, f=1, seed="t")
    return topo, shard, committee


def test_block_finalizes_with_quorum():
    _, shard, committee = build_shard()
    root = keccak256(b"state-1")
    proposal = shard.chain.next_header(root, timestamp=10)
    votes = honest_votes(committee, proposal)
    assert {v.digest for v in votes} == {proposal.header_hash}
    assert sorted(v.node_id for v in votes) == sorted(committee.members)
    header = produce_block(shard, committee, votes, proposal)
    assert header is proposal
    assert header.height == 1
    assert header.state_root == root
    assert shard.chain.validate() is None


def test_block_withheld_without_quorum():
    _, shard, committee = build_shard()
    root = keccak256(b"state-1")
    proposal = shard.chain.next_header(root, timestamp=10)
    votes = honest_votes(committee, proposal)[:2]
    assert produce_block(shard, committee, votes, proposal) is None
    assert shard.chain.tip.height == 0


def test_votes_for_other_header_do_not_count():
    _, shard, committee = build_shard()
    root = keccak256(b"state-1")
    stale = header_digest(5, b"\x00" * 32, 10, root)
    votes = [Vote(m, stale) for m in committee.members]
    proposal = shard.chain.next_header(root, timestamp=10)
    assert produce_block(shard, committee, votes, proposal) is None
    assert shard.chain.tip.height == 0


def test_stale_proposal_does_not_extend_the_chain():
    # A proposal made before the tip moved names the old tip as parent:
    # even with a quorum for it, the chain refuses it and stays as it was.
    _, shard, committee = build_shard()
    stale = shard.chain.next_header(keccak256(b"state-1"), timestamp=10)
    fresh = shard.chain.next_header(keccak256(b"state-2"), timestamp=10)
    produce_block(shard, committee, honest_votes(committee, fresh), fresh)
    with pytest.raises(ChainError, match="does not extend the tip"):
        produce_block(shard, committee, honest_votes(committee, stale), stale)
    assert shard.chain.tip is fresh
    assert shard.chain.validate() is None


def test_failed_shard_produces_nothing():
    _, shard, committee = build_shard()
    shard.failed = True
    root = keccak256(b"state-1")
    proposal = shard.chain.next_header(root, timestamp=10)
    votes = honest_votes(committee, proposal)
    assert produce_block(shard, committee, votes, proposal) is None
    assert shard.chain.tip.height == 0


# -- mempool -----------------------------------------------------------------------

def test_valid_proof_enters_mempool():
    _, shard, _ = build_shard()
    result = submit_tx(shard, valid_entry(shard), VK)
    assert result == {"accepted": True, "position": 0}
    assert len(shard.mempool) == 1


def test_invalid_proof_rejected_at_the_door():
    """A real proof whose threshold is raised above the balance."""
    _, shard, _ = build_shard()
    bad = with_proof(valid_entry(shard, balance=1000), threshold=1001)
    result = submit_tx(shard, bad, VK)
    assert result == {"accepted": False, "reason":
                      "invalid balance proof: balance below threshold"}
    assert shard.mempool == []


def test_public_data_forgery_rejected():
    """A proof built from public data only: a fabricated leaf node claiming
    a balance of 10^30 for the sender, naming a real header."""
    _, shard, _ = build_shard()
    entry = valid_entry(shard, sender="mallory", balance=5, threshold=5)
    path = bytes(b >> s & 0x0F for b in keccak256(account_of("mallory"))
                 for s in (4, 0))
    leaf = encode_account_leaf(AccountLeaf(nonce=0, balance=10**30))
    fabricated = rlp_encode([hp_encode(path, True), leaf])
    bad = with_proof(entry, threshold=10**9, node_stack=(fabricated,))
    assert balance_proof.prove(VK, bad.proof.account, 10**9).threshold == 10**9
    result = submit_tx(shard, bad, VK)
    assert result == {"accepted": False,
                      "reason": "invalid balance proof: root hash mismatch at node 0"}
    assert shard.mempool == []


def test_replayed_proof_rejected_for_another_sender():
    """Mallory copies p4's trade proof from a smoke run's public log; it
    proves p4's account, so it admits only p4's own sender name."""
    sim = Simulator(load_scenario(str(SCENARIOS / "smoke.json")))
    sim.run()
    published = next(ev for ev in sim.log.events
                     if ev["event"] == "trade_proof_published"
                     and ev["actor"] == "p4")
    proof = balance_proof.Proof.from_json(published["proof"])
    assert proof.account.address == peer_address("p4")
    shard = sim.topology.shard_by_id("shard-0")
    replay = MempoolEntry(sender="mallory", commitment=123456, proof=proof,
                          arrival_tick=0)
    assert submit_tx(shard, replay, sim.vk) == {
        "accepted": False, "reason": "proof is for another account"}
    assert shard.mempool == []
    own = MempoolEntry(sender="account:p4", commitment=123456, proof=proof,
                       arrival_tick=0)
    assert sender_address("account:p4") == account_of("account:p4")
    assert submit_tx(shard, own, sim.vk) == {"accepted": True, "position": 0}


def test_proof_naming_a_header_off_the_chain_rejected():
    _, shard, _ = build_shard()
    entry = valid_entry(shard)
    tip = shard.chain.tip
    for fields in ({"header_hash": b"\x00" * 32},
                   {"block_height": tip.height + 1},
                   {"block_height": tip.height - 1},
                   {"block_height": None, "header_hash": None}):
        result = submit_tx(shard, with_proof(entry, **fields), VK)
        assert result == {"accepted": False,
                          "reason": "proof names a header off the chain"}
    assert shard.mempool == []


def test_warm_proof_cache_still_rejects_every_tamper():
    """After an honest admission caches its walk, every single-byte tamper
    of the node stack, the address or the header hash, and every threshold
    above the balance, is still rejected."""
    _, shard, _ = build_shard()
    entry = valid_entry(shard, balance=1000)
    balance_proof._walk.cache_clear()
    assert submit_tx(shard, entry, VK)["accepted"]
    assert balance_proof._walk.cache_info().currsize == 1
    account = entry.proof.account
    assert len(account.node_stack) >= 2

    def flips(data: bytes):
        for pos in range(len(data)):
            bad = bytearray(data)
            bad[pos] ^= 0x01
            yield bytes(bad)

    tampers = []
    for depth, node in enumerate(account.node_stack):
        for bad in flips(node):
            stack = list(account.node_stack)
            stack[depth] = bad
            tampers.append(with_proof(entry, node_stack=tuple(stack)))
    tampers += [with_proof(entry, address=a) for a in flips(account.address)]
    tampers += [with_proof(entry, header_hash=h)
                for h in flips(account.header_hash)]
    tampers += [with_proof(entry, threshold=1000 + d)
                for d in [1] + [1 << i for i in range(1, 255)]]
    for bad in tampers:
        assert submit_tx(shard, bad, VK)["accepted"] is False
    # The 255 raised thresholds reuse the cached walk: the threshold is
    # compared outside the cache.
    assert balance_proof._walk.cache_info().hits >= 255
    assert len(shard.mempool) == 1
    assert submit_tx(shard, entry, VK) == {"accepted": True, "position": 1}


# -- anchoring ---------------------------------------------------------------------

def test_anchor_records_head_and_seals_block():
    topo, shard, committee = build_shard()
    root = keccak256(b"state-1")
    proposal = shard.chain.next_header(root, timestamp=10)
    produce_block(shard, committee, honest_votes(committee, proposal), proposal)
    assert seal_anchors(topo.master, topo.all_shards(), 10,
                        topo.master.chain.append) == 1
    # Reading the master's tip hashes the table, which fills in its hashes.
    header = topo.master.chain.tip
    entry = topo.master.anchor_table["shard-0"]
    assert entry["height"] == 1
    assert entry["hash"] == "0x" + shard.chain.tip.header_hash.hex()
    assert entry["stale"] is False
    assert (header.height, header.timestamp) == (1, 10)
    assert header.state_root == anchor_root(topo.master.anchor_table)


def test_anchor_root_is_keccak_of_canonical_table():
    topo, _, _ = build_shard()
    seal_anchors(topo.master, topo.all_shards(), 1, topo.master.chain.append)
    state_root = topo.master.chain.tip.state_root  # fills the table in
    import json
    blob = json.dumps(topo.master.anchor_table, sort_keys=True,
                      separators=(",", ":"))
    assert state_root == keccak256(blob.encode())


def test_lazy_master_chain_matches_one_sealed_round_by_round(monkeypatch):
    """The master's headers, made when its tip is read, equal those of a
    chain that hashes each round's table as it is sealed; every pending
    table is hashed in one batch, each header in one step of its own, and
    a later read extends the same chain."""
    topo, shard, committee = build_shard()
    reference = HeaderChain()
    batches = []
    many = trie_mod.keccak256_many
    monkeypatch.setattr(trie_mod, "keccak256_many",
                        lambda messages: batches.append(len(messages))
                        or many(messages))

    def seal_round(timestamp):
        for live in topo.all_shards():
            if not live.failed:
                proposal = live.chain.next_header(
                    keccak256(b"%d" % timestamp), timestamp)
                produce_block(live, committee, honest_votes(committee, proposal),
                              proposal)
        height = seal_anchors(topo.master, topo.all_shards(), timestamp,
                              topo.master.chain.append)
        table = {live.shard_id: {
            "height": live.chain.height, "stale": live.failed,
            "hash": "0x" + live.chain.tip.header_hash.hex()}
            for live in topo.all_shards()}
        reference.append(reference.next_header(anchor_root(table), timestamp))
        assert height == topo.master.chain.height == reference.tip.height

    seal_round(1)
    shard.failed = True
    seal_round(2)
    assert topo.master.anchor_table["shard-0"]["stale"] is True
    shard.failed = False
    split_shard(topo.workchains[0], shard, topo.master.validators)
    seal_round(3)
    seal_round(3)
    assert batches == []  # sealing hashes nothing
    chain = topo.master.chain
    assert len(chain.headers) == 1  # nor does reading the height
    chain.tip
    assert batches == [4, 1, 1, 1, 1]
    assert chain.headers == reference.headers

    seal_round(5)
    seal_round(8)
    assert topo.master.chain.tip == reference.tip
    assert topo.master.chain is chain
    assert batches == [4, 1, 1, 1, 1, 2, 1, 1]
    assert chain.headers == reference.headers
    assert [h.timestamp for h in chain.headers] == [0, 1, 2, 3, 3, 5, 8]
    assert len(topo.master.chain.headers) == 7  # nothing was pending
    assert chain.validate() is None


def test_failed_shard_anchor_goes_stale_not_absent():
    topo, shard, _ = build_shard()
    seal_anchors(topo.master, topo.all_shards(), 1, topo.master.chain.append)
    shard.failed = True
    seal_anchors(topo.master, topo.all_shards(), 2, topo.master.chain.append)
    assert topo.master.anchor_table["shard-0"]["stale"] is True


def addr(i: int) -> bytes:
    return i.to_bytes(20, "big")


#: Per round, (shard index, account, balance) updates; a shard index past
#: the example's shard count updates nothing.
ROUNDS = st.lists(st.lists(st.tuples(st.integers(0, 2), st.integers(0, 30),
                                     st.integers(0, 10**6)), max_size=6),
                  min_size=1, max_size=8)


@settings(max_examples=40, deadline=None)
@given(n_shards=st.integers(1, 3), confirmations=st.sampled_from([0, 1, 2]),
       rounds=ROUNDS, data=st.data())
def test_pipelined_blocks_and_anchors_match_eager_hashing(
        n_shards, confirmations, rounds, data):
    """Blocks proposed to a pipeline that steps once per round, with a
    proof-point read of ``confirmations`` below the tip on some updated
    shards, give the shard headers, master headers and anchor tables of
    hashing each block's trie and header as it is proposed."""
    zone = Zone(west=0, east=10, south=0, north=10)
    shards = [Shard(f"shard-{i}", 0, zone) for i in range(n_shards)]
    eager = [HeaderChain() for _ in shards]
    lazy_tries = [Trie() for _ in shards]
    eager_tries = [Trie() for _ in shards]
    pipeline, master, eager_master = HashPipeline(), Masterchain(), HeaderChain()
    tables, eager_tables = [], []
    for tick, updates in enumerate(rounds, 1):
        for s, account, balance in updates:
            if s < n_shards:
                acct = AccountLeaf(nonce=0, balance=balance)
                lazy_tries[s] = lazy_tries[s].update(addr(account), acct)
                eager_tries[s] = eager_tries[s].update(addr(account), acct)
        for s, shard in enumerate(shards):
            height = shard.chain.height - confirmations
            if height >= 0 and data.draw(st.booleans()):
                assert shard.chain.header_at(height) == eager[s].header_at(height)
            assert pipeline.propose(shard.chain, lazy_tries[s], tick,
                                    shard.chain.append) == eager[s].height + 1
            eager[s].append(eager[s].next_header(eager_tries[s].root(), tick))
        pipeline.step()
        assert seal_anchors(master, shards, tick, master.chain.append) == tick
        tables.append(master.anchor_table)
        eager_tables.append({
            shard.shard_id: {"height": chain.height,
                             "hash": "0x" + chain.tip.header_hash.hex(),
                             "stale": False}
            for shard, chain in zip(shards, eager)})
        eager_master.append(eager_master.next_header(
            anchor_root(eager_tables[-1]), tick))
    master.hashing.flush()
    assert tables == eager_tables
    assert master.chain.headers == eager_master.headers
    for shard, reference in zip(shards, eager):
        assert shard.chain.headers == reference.headers


def test_retired_shard_has_no_anchor():
    topo, shard, _ = build_shard()
    seal_anchors(topo.master, topo.all_shards(), 1, topo.master.chain.append)
    child_a, child_b = split_shard(topo.workchains[0], shard,
                                   topo.master.validators)
    seal_anchors(topo.master, topo.all_shards(), 2, topo.master.chain.append)
    assert list(topo.master.anchor_table) == [child_a.shard_id,
                                              child_b.shard_id]


# -- splitting and merging -----------------------------------------------------------

def records_for(locations):
    return {
        pid: PeerRecord(peer_id=pid, lat=Fraction(lat), lon=Fraction(lon),
                        key=f"k-{pid}")
        for pid, (lat, lon) in locations.items()
    }


def test_split_partitions_zone_and_peers():
    topo = make_topology()
    wc = topo.workchains[0]
    shard = wc.shards[0]
    locations = {"a": (5, 1), "b": (5, 2), "c": (5, 6), "d": (5, 9)}
    shard.peers = list(locations)
    records = records_for(locations)
    child_a, child_b = split_shard(wc, shard, records)
    # Longer axis is a tie (10 x 10) resolved toward longitude; the cut is
    # the upper-median peer longitude.
    assert child_a.zone.east == child_b.zone.west == 6
    assert zones_tile(Zone(0, 10, 0, 10), [child_a.zone, child_b.zone])
    assert sorted(child_a.peers) == ["a", "b"]
    assert sorted(child_b.peers) == ["c", "d"]
    assert wc.shards == [child_a, child_b]
    assert child_a.parent is shard and child_b.parent is shard


def test_split_along_latitude_when_taller():
    topo = make_topology(Zone(west=0, east=4, south=0, north=20))
    wc = topo.workchains[0]
    shard = wc.shards[0]
    locations = {"a": (3, 1), "b": (12, 1)}
    shard.peers = list(locations)
    child_a, child_b = split_shard(wc, shard, records_for(locations))
    assert child_a.zone.north == child_b.zone.south == 12


def test_split_midpoint_fallback_without_interior_peers():
    topo = make_topology()
    wc = topo.workchains[0]
    shard = wc.shards[0]
    child_a, child_b = split_shard(wc, shard, {})
    assert child_a.zone.east == Fraction(5)


def test_split_hands_each_lp_deposit_to_its_child():
    topo = make_topology()
    wc = topo.workchains[0]
    shard = wc.shards[0]
    locations = {"a": (5, 1), "b": (5, 9)}
    shard.peers = list(locations)
    shard.lp_liquidity = {"a": Fraction(100), "b": Fraction(300),
                          "gone": Fraction(7)}
    child_a, child_b = split_shard(wc, shard, records_for(locations))
    # An LP without a peer record stays with the first child.
    assert child_a.lp_liquidity == {"a": Fraction(100), "gone": Fraction(7)}
    assert child_b.lp_liquidity == {"b": Fraction(300)}


@given(st.lists(st.tuples(st.integers(0, 9), st.integers(0, 9)),
                min_size=2, max_size=12))
@settings(max_examples=60)
def test_split_assigns_every_peer_to_exactly_one_child(points):
    topo = make_topology()
    wc = topo.workchains[0]
    shard = wc.shards[0]
    locations = {f"p{i}": (lat, lon) for i, (lat, lon) in enumerate(points)}
    shard.peers = list(locations)
    child_a, child_b = split_shard(wc, shard, records_for(locations))
    assert zones_tile(Zone(0, 10, 0, 10), [child_a.zone, child_b.zone])
    assert sorted(child_a.peers + child_b.peers) == sorted(locations)
    for pid, (lat, lon) in locations.items():
        in_a = child_a.zone.contains(lat, lon)
        in_b = child_b.zone.contains(lat, lon)
        assert in_a != in_b
        assert pid in (child_a.peers if in_a else child_b.peers)


def test_merge_restores_parent():
    topo = make_topology()
    wc = topo.workchains[0]
    shard = wc.shards[0]
    locations = {"a": (5, 1), "b": (5, 9)}
    shard.peers = list(locations)
    shard.lp_liquidity = {"a": Fraction(100), "b": Fraction(100)}
    shard.load_window = [9, 9]
    shard.chain.append(shard.chain.next_header(b"\x01" * 32, timestamp=1))
    chain, headers = shard.chain, list(shard.chain.headers)
    child_a, child_b = split_shard(wc, shard, records_for(locations))
    child_a.lp_liquidity["a"] = Fraction(150)
    child_b.mempool.append("pending")
    child_a.failed = True
    merged = merge_shards(wc, child_a, child_b)
    assert merged is shard
    assert merged.shard_id == "shard-0"
    assert merged.zone == Zone(0, 10, 0, 10)
    assert merged.chain is chain and merged.chain.headers == headers
    assert merged.load_window == []
    assert not merged.failed
    assert merged.lp_liquidity == {"a": Fraction(150), "b": Fraction(100)}
    assert merged.mempool == ["pending"]
    assert merged.peers == ["a", "b"]
    assert wc.shards == [merged]


def test_merged_shard_can_merge_with_its_own_sibling():
    topo = make_topology()
    wc = topo.workchains[0]
    root = wc.shards[0]
    locations = {"a": (5, 1), "b": (5, 4), "c": (5, 9)}
    root.peers = list(locations)
    records = records_for(locations)
    left, right = split_shard(wc, root, records)
    grand_a, grand_b = split_shard(wc, left, records)
    assert merge_shards(wc, grand_a, grand_b) is left
    assert left.parent is root
    assert merge_shards(wc, left, right) is root
    assert wc.shards == [root] and root.parent is None


def test_second_split_hands_back_the_same_children():
    """A zone that splits, merges and splits again gets its two child
    shards back, each with its chain intact, and live with no stale state."""
    topo = make_topology()
    wc = topo.workchains[0]
    root = wc.shards[0]
    locations = {"a": (5, 1), "b": (5, 4), "c": (5, 9)}
    root.peers = list(locations)
    records = records_for(locations)
    left, right = split_shard(wc, root, records)
    left.chain.append(left.chain.next_header(b"\x01" * 32, timestamp=1))
    left_headers = list(left.chain.headers)
    right.mempool.append("pending")
    right.load_window = [1, 1]
    right.failed = True
    merge_shards(wc, left, right)
    assert split_shard(wc, root, records) == (left, right)
    assert wc.shards == [left, right]
    assert left.chain.headers == left_headers
    assert left.peers == ["a"] and sorted(right.peers) == ["b", "c"]
    assert right.mempool == [] and right.load_window == []
    assert not right.failed


def test_merge_requires_siblings():
    topo = make_topology()
    wc = topo.workchains[0]
    shard = wc.shards[0]
    shard.peers = ["a", "b"]
    records = records_for({"a": (5, 1), "b": (5, 9)})
    child_a, child_b = split_shard(wc, shard, records)
    grand_a, _ = split_shard(wc, child_a, records)
    with pytest.raises(ZoneError, match="sibling"):
        merge_shards(wc, grand_a, child_b)


# -- rebalancing thresholds ------------------------------------------------------------

def loaded_workchain(load, peers=("a", "b")):
    topo = make_topology()
    wc = topo.workchains[0]
    shard = wc.shards[0]
    shard.peers = list(peers)
    shard.load_window = list(load)
    return wc, shard


def test_split_trigger_is_strictly_greater():
    thresholds = {"split_tps": 5, "merge_tps": 0, "window_blocks": 4}
    records = records_for({"a": (5, 1), "b": (5, 9)})
    wc, _ = loaded_workchain([5, 5, 5, 5])
    assert rebalance_shards(wc, thresholds, records) == []
    wc, _ = loaded_workchain([5, 5, 5, 6])
    events = rebalance_shards(wc, thresholds, records)
    assert [e["event"] for e in events] == ["split"]
    assert events[0]["children"] == ["shard-0.0", "shard-0.1"]


def test_short_window_never_splits():
    thresholds = {"split_tps": 0, "merge_tps": 0, "window_blocks": 4}
    records = records_for({"a": (5, 1), "b": (5, 9)})
    wc, _ = loaded_workchain([100, 100, 100])
    assert rebalance_shards(wc, thresholds, records) == []


def test_merge_trigger_is_strictly_less():
    records = records_for({"a": (5, 1), "b": (5, 9)})
    wc, shard = loaded_workchain([9, 9, 9, 9])
    thresholds = {"split_tps": 8, "merge_tps": 1, "window_blocks": 4}
    rebalance_shards(wc, thresholds, records)
    assert len(wc.shards) == 2
    for child in wc.shards:
        child.load_window = [1, 1, 1, 1]
    assert rebalance_shards(wc, thresholds, records) == []  # 1 < 1 fails
    for child in wc.shards:
        child.load_window = [0, 0, 0, 0]
    events = rebalance_shards(wc, thresholds, records)
    assert [e["event"] for e in events] == ["merge"]
    assert len(wc.shards) == 1
