"""Two-tier geo-sharded ledger: masterchain anchors per-region workchains.

Each workchain covers a geographic rectangle, initially one shard. Peers
register into the unique shard whose zone contains their coordinates
(half-open rectangles: west and south edges inclusive), so sibling zones
always tile their parent exactly. A shard that sustains mean load above
split_tps divides along its zone's longer axis at the median peer
coordinate, handing each peer and each liquidity provider's deposit to
the child whose zone covers it; sibling shards that both fall below
merge_tps fuse back into their parent. A zone keeps one Shard object,
and one header chain, for its whole life, across every split and merge:
a merge hands back the parent the children split from, a second split of
a zone hands back the children of its first, and each chain resumes
where it stopped. Pool reserves are not kept here: the simulator divides
and sums them by the LP deposits each child carries. Each masterchain
block rebuilds the anchor table from the live shards' heads, by height,
and is proposed over it to the master's own `HashPipeline`, as a shard
block is over its trie. When a master header is first read, the
pipeline writes each head's hash into its entry, in place, and hashes
every pending table in one batch; each table is still the one its
master header commits to.

Block production is a vote-counting abstraction of BFT consensus: a
committee of n = 3f + 1 members finalizes a proposal iff 2f + 1 distinct
members vote for its exact header digest. The proposal is a header made
and hashed once, by the caller or by a pipeline step; the votes, the
block and the chain all reuse it. Mempool entries carry only a
commitment and a balance proof — never a plaintext amount — and a proof
is admitted only if it proves the sender's own account and walks to the
state root of a header on the shard's own chain.

Zone coordinates are exact rationals so partition audits have zero
tolerance.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Dict, List, Optional, Tuple

from . import balance_proof
from .keccak import DigestCache, keccak256
from .rlp import canonical_json
from .trie import BlockHeader, HashPipeline, HeaderChain


class RegistrationError(ValueError):
    """Duplicate identity or location outside every workchain zone."""


class CommitteeError(ValueError):
    """Not enough eligible nodes, or malformed committee shape."""


class ZoneError(ValueError):
    """Zone lookup failed."""


@dataclass(frozen=True, slots=True)
class Zone:
    """Half-open lat/lon rectangle: [west, east) x [south, north)."""

    west: Fraction
    east: Fraction
    south: Fraction
    north: Fraction

    def __post_init__(self):
        object.__setattr__(self, "west", Fraction(self.west))
        object.__setattr__(self, "east", Fraction(self.east))
        object.__setattr__(self, "south", Fraction(self.south))
        object.__setattr__(self, "north", Fraction(self.north))
        if self.west >= self.east or self.south >= self.north:
            raise ZoneError("zone rectangle must have positive extent")

    def contains(self, lat, lon) -> bool:
        lat, lon = Fraction(lat), Fraction(lon)
        return self.west <= lon < self.east and self.south <= lat < self.north

    def area(self) -> Fraction:
        return (self.east - self.west) * (self.north - self.south)

    def overlaps(self, other: "Zone") -> bool:
        return (
            self.west < other.east
            and other.west < self.east
            and self.south < other.north
            and other.south < self.north
        )

    def to_json(self) -> dict:
        return {
            "west": str(self.west),
            "east": str(self.east),
            "south": str(self.south),
            "north": str(self.north),
        }

    @classmethod
    def from_json(cls, obj: dict) -> "Zone":
        return cls(
            west=Fraction(obj["west"]),
            east=Fraction(obj["east"]),
            south=Fraction(obj["south"]),
            north=Fraction(obj["north"]),
        )


def zones_tile(parent: Zone, zones) -> bool:
    """Exact audit: do the zones partition the parent with no gap/overlap?"""
    zones = list(zones)
    if not zones:
        return False
    if sum(z.area() for z in zones) != parent.area():
        return False
    for z in zones:
        if not (
            parent.west <= z.west
            and z.east <= parent.east
            and parent.south <= z.south
            and z.north <= parent.north
        ):
            return False
    for i, a in enumerate(zones):
        for b in zones[i + 1 :]:
            if a.overlaps(b):
                return False
    return True


@dataclass(frozen=True, slots=True)
class PeerRecord:
    peer_id: str
    lat: Fraction
    lon: Fraction
    key: str


@dataclass(frozen=True, slots=True)
class Committee:
    epoch: int
    members: Tuple[str, ...]
    f: int

    def __post_init__(self):
        if len(self.members) != 3 * self.f + 1:
            raise CommitteeError(
                f"committee size {len(self.members)} != 3f+1 for f={self.f}"
            )
        if len(set(self.members)) != len(self.members):
            raise CommitteeError("duplicate committee members")

    @property
    def quorum(self) -> int:
        return 2 * self.f + 1


@dataclass(frozen=True, slots=True)
class Vote:
    node_id: str
    digest: bytes


@dataclass(frozen=True, slots=True)
class MempoolEntry:
    """A committed order: hidden amount, public proof reference only."""

    sender: str
    commitment: int
    proof: balance_proof.Proof
    arrival_tick: int


class Shard:
    """One zone's shard for its whole life: chain, mempool, LP deposits,
    load history, the parent it split from and the children it splits
    into (None for a root and before a first split)."""

    def __init__(self, shard_id: str, workchain_id: int, zone: Zone,
                 parent: Optional["Shard"] = None):
        self.shard_id = shard_id
        self.workchain_id = workchain_id
        self.chain = HeaderChain()
        self.parent = parent
        self.children: Optional[Tuple["Shard", "Shard"]] = None
        self.reopen(zone)

    def reopen(self, zone: Zone) -> None:
        """Go live over ``zone`` with no peers, deposits, orders or load
        yet; the chain is kept."""
        self.zone = zone
        self.mempool: List[MempoolEntry] = []
        self.lp_liquidity: Dict[str, Fraction] = {}
        self.peers: List[str] = []
        self.failed = False
        self.load_window: List[int] = []

    def blocks_produced(self) -> int:
        return self.chain.height


class Workchain:
    def __init__(self, workchain_id: int, zone: Zone):
        self.workchain_id = workchain_id
        self.zone = zone
        self.shards: List[Shard] = [Shard(f"shard-{workchain_id}", workchain_id, zone)]


class Masterchain:
    """Backbone chain: validator registry, the last sealed anchor table,
    and the header chain that commits to each sealed table.

    Each sealed block is proposed to the master's own pipeline over its
    anchor table (hashing a table reads shard headers, which a step of the
    shards' pipeline cannot make while it runs). Only a read of a master
    header, or a flush, steps it, so its first step hashes every table
    sealed since, in one batch, and each later step makes one header.
    """

    def __init__(self):
        self.validators: Dict[str, PeerRecord] = {}
        self.anchor_table: Dict[str, dict] = {}
        self.chain = HeaderChain()
        self.hashing = HashPipeline()


class _SealedTable:
    """An anchor table as the state a master block is proposed over: a
    trie of one node with no children, so a pipeline step hashes it as
    soon as it is pending. The encoding writes into each entry the hash of
    its shard's header at the entry's height (``chains`` in table order),
    which makes that header if it is pending; then it is the table's
    canonical JSON, so the digest is `anchor_root` of the table."""

    __slots__ = ("_root", "_digest", "_table", "_chains")

    def __init__(self, table: Dict[str, dict], chains: List[HeaderChain]):
        self._root, self._digest = self, None
        self._table, self._chains = table, chains

    def _children(self):
        return ()

    def encoding(self) -> bytes:
        for entry, chain in zip(self._table.values(), self._chains):
            header = chain.header_at(entry["height"])
            entry["hash"] = "0x" + header.header_hash.hex()
        return _anchor_message(self._table)

    def hashed_root(self) -> Optional[bytes]:
        return self._digest


def _anchor_message(table: Dict[str, dict]) -> bytes:
    return canonical_json(table).encode()


def anchor_root(table: Dict[str, dict]) -> bytes:
    """Keccak of an anchor table's canonical JSON: a master block's state root."""
    return keccak256(_anchor_message(table))


class Topology:
    """The full two-tier system: masterchain plus geographic workchains."""

    def __init__(self, workchains: List[Workchain]):
        self.workchains = workchains
        self.master = Masterchain()

    def all_shards(self) -> List[Shard]:
        return [s for wc in self.workchains for s in wc.shards]

    def shard_for(self, lat, lon) -> Optional[Shard]:
        """The live shard whose zone contains the location, if any."""
        for shard in self.all_shards():
            if shard.zone.contains(lat, lon):
                return shard
        return None

    def shard_by_id(self, shard_id: str) -> Shard:
        for shard in self.all_shards():
            if shard.shard_id == shard_id:
                return shard
        raise ZoneError(f"unknown shard {shard_id}")


# ---------------------------------------------------------------------------
# Operations
# ---------------------------------------------------------------------------

def register_peer(topology: Topology, peer_id: str, lat, lon,
                  key: str) -> Shard:
    """Admit a peer and place it in the shard covering its location.

    Duplicate peer ids or keys are rejected (one identity per key), and a
    location outside every workchain zone is an error.
    """
    master = topology.master
    if peer_id in master.validators:
        raise RegistrationError(f"peer id {peer_id!r} already registered")
    if any(rec.key == key for rec in master.validators.values()):
        raise RegistrationError(f"key {key!r} already registered")
    lat, lon = Fraction(lat), Fraction(lon)
    shard = topology.shard_for(lat, lon)
    if shard is None:
        raise RegistrationError(f"location ({lat}, {lon}) outside all zones")
    master.validators[peer_id] = PeerRecord(peer_id=peer_id, lat=lat, lon=lon, key=key)
    shard.peers.append(peer_id)
    return shard


def select_committee(eligible, epoch: int, f: int, seed) -> Committee:
    """Deterministic pseudo-random committee of 3f+1 nodes for an epoch."""
    eligible = sorted(eligible)
    n = 3 * f + 1
    if len(eligible) < n:
        raise CommitteeError(
            f"need {n} eligible nodes for f={f}, have {len(eligible)}"
        )
    rng = random.Random(f"{seed}/committee/{epoch}")
    return Committee(epoch=epoch, members=tuple(rng.sample(eligible, n)), f=f)


#: The 20-byte account address whose balance a sender's proof must show:
#: the first 20 bytes of the Keccak of the sender string.
#: ``sender_address.many(senders)`` hashes every new sender in one batch.
sender_address = DigestCache(str.encode, lambda digest: digest[:20])


def peer_sender(peer_id: str) -> str:
    """The mempool sender whose account is the peer's own."""
    return f"account:{peer_id}"


def peer_address(peer_id: str) -> bytes:
    """A peer's account: the one its mempool sender proves."""
    return sender_address(peer_sender(peer_id))


def submit_tx(shard: Shard, entry: MempoolEntry,
              vk: balance_proof.VerificationKey) -> dict:
    """Queue a committed order after checking its balance proof.

    The proof must be for the sender's own account, name a header on this
    shard's chain and walk to that header's state root. An invalid proof
    never reaches the mempool — the committee cannot be poisoned into
    accepting a trade larger than the prover's balance, nor one backed by
    a proof copied from somebody else.
    """
    account = entry.proof.account
    if account.address != sender_address(entry.sender):
        return {"accepted": False, "reason": "proof is for another account"}
    if not shard.chain.holds(account.block_height, account.header_hash):
        return {"accepted": False, "reason": "proof names a header off the chain"}
    state_root = shard.chain.header_at(account.block_height).state_root
    try:
        balance_proof.verify(vk, entry.proof, state_root)
    except balance_proof.VerificationError as exc:
        return {"accepted": False, "reason": f"invalid balance proof: {exc}"}
    shard.mempool.append(entry)
    return {"accepted": True, "position": len(shard.mempool) - 1}


def tally_votes(committee: Committee, votes) -> List[bytes]:
    """Digests reaching quorum (2f+1 distinct member votes each)."""
    per_digest: Dict[bytes, set] = {}
    members = set(committee.members)
    for v in votes:
        if v.node_id not in members:
            continue  # non-members carry no voting weight
        per_digest.setdefault(v.digest, set()).add(v.node_id)
    return [d for d, voters in per_digest.items()
            if len(voters) >= committee.quorum]


def produce_block(shard: Shard, committee: Committee, votes,
                  proposal: BlockHeader) -> Optional[BlockHeader]:
    """Finalize ``proposal`` iff its digest reaches quorum.

    The proposal is the header that extends the shard chain, hashed once
    when it was made by `BlockHeader.make`, `next_header` or a
    `HashPipeline` step; its digest is trusted here, not recomputed.
    Fewer than 2f+1 votes for that digest means no block this round. A
    proposal that does not extend the tip raises `ChainError` and leaves
    the chain as it was.
    """
    if shard.failed:
        return None
    if proposal.header_hash not in tally_votes(committee, votes):
        return None
    return shard.chain.append(proposal)


def honest_votes(committee: Committee, proposal: BlockHeader) -> List[Vote]:
    """Votes of all committee members for the proposal's digest."""
    return [Vote(node_id=m, digest=proposal.header_hash)
            for m in committee.members]


def seal_anchors(master: Masterchain, shards, timestamp: int,
                 made: Callable[[BlockHeader], object]) -> int:
    """Rebuild the anchor table from the live ``shards``, propose one
    masterchain block committing it at ``timestamp``, and return that
    block's height; ``made`` receives the block's header, as in
    `HashPipeline.propose`, and must append it to ``master.chain``.

    Each entry is a shard's chain tip, sorted by shard id. A failed
    shard's unchanged head stays in the table flagged stale; a retired
    shard is not handed in and has no entry. Nothing is hashed here: the
    entries get their hashes, in place, when the master's pipeline hashes
    the table.
    """
    shards = sorted(shards, key=lambda s: s.shard_id)
    master.anchor_table = {s.shard_id: {"height": s.chain.height, "hash": None,
                                        "stale": s.failed} for s in shards}
    table = _SealedTable(master.anchor_table, [s.chain for s in shards])
    return master.hashing.propose(master.chain, table, timestamp, made)


def split_shard(workchain: Workchain, shard: Shard,
                peer_records) -> Tuple[Shard, Shard]:
    """Split a shard's zone along its longer axis at the median peer
    coordinate, reassigning peers and LP deposits to the child whose zone
    covers them (an LP with no peer record goes to the first child)."""
    zone = shard.zone
    lon_span = zone.east - zone.west
    lat_span = zone.north - zone.south
    axis = "lon" if lon_span >= lat_span else "lat"
    coords = sorted(
        (peer_records[p].lon if axis == "lon" else peer_records[p].lat)
        for p in shard.peers
    )
    if coords:
        cut = coords[len(coords) // 2]
    else:
        cut = None
    low, high = (zone.west, zone.east) if axis == "lon" else (zone.south, zone.north)
    if cut is None or not low < cut < high:
        cut = (low + high) / 2
    if axis == "lon":
        zone_a = Zone(west=zone.west, east=cut, south=zone.south, north=zone.north)
        zone_b = Zone(west=cut, east=zone.east, south=zone.south, north=zone.north)
    else:
        zone_a = Zone(west=zone.west, east=zone.east, south=zone.south, north=cut)
        zone_b = Zone(west=zone.west, east=zone.east, south=cut, north=zone.north)

    if shard.children is None:
        shard.children = tuple(
            Shard(f"{shard.shard_id}.{i}", shard.workchain_id, child_zone, shard)
            for i, child_zone in enumerate((zone_a, zone_b)))
    else:
        # A zone that splits again gets the same two shards back, and their
        # chains resume where the merge stopped them.
        for child, child_zone in zip(shard.children, (zone_a, zone_b)):
            child.reopen(child_zone)
    child_a, child_b = shard.children

    for peer_id in shard.peers:
        rec = peer_records[peer_id]
        target = child_a if child_a.zone.contains(rec.lat, rec.lon) else child_b
        target.peers.append(peer_id)
    for lp_id, liquidity in shard.lp_liquidity.items():
        if lp_id in peer_records:
            rec = peer_records[lp_id]
            target = child_a if child_a.zone.contains(rec.lat, rec.lon) else child_b
        else:
            target = child_a
        target.lp_liquidity[lp_id] = liquidity

    idx = workchain.shards.index(shard)
    workchain.shards[idx : idx + 1] = [child_a, child_b]
    return child_a, child_b


def merge_shards(workchain: Workchain, child_a: Shard, child_b: Shard) -> Shard:
    """Fuse a sibling pair back into the parent they split from.

    The parent is returned, not rebuilt: it gathers the children's peers,
    LP deposits and mempool, starts a new load window, is live again, and
    keeps its header chain, which the next block extends.
    """
    parent = child_a.parent
    if parent is None or parent is not child_b.parent:
        raise ZoneError("only sibling shards from one split can merge")
    parent.reopen(parent.zone)
    parent.peers = sorted(set(child_a.peers) | set(child_b.peers))
    parent.lp_liquidity = {**child_a.lp_liquidity, **child_b.lp_liquidity}
    parent.mempool = child_a.mempool + child_b.mempool
    positions = [workchain.shards.index(child_a), workchain.shards.index(child_b)]
    for pos in sorted(positions, reverse=True):
        del workchain.shards[pos]
    workchain.shards.insert(min(positions), parent)
    return parent


def rebalance_shards(workchain: Workchain, thresholds: dict,
                     peer_records) -> List[dict]:
    """Apply split/merge rules to every shard; returns event records.

    A shard splits when its mean load over the last window_blocks blocks
    strictly exceeds split_tps; sibling shards merge when each's mean
    load is strictly below merge_tps. No-op otherwise.
    """
    split_tps = thresholds["split_tps"]
    merge_tps = thresholds["merge_tps"]
    window = thresholds["window_blocks"]
    events: List[dict] = []

    def mean_load(shard: Shard) -> Optional[Fraction]:
        if len(shard.load_window) < window:
            return None
        recent = shard.load_window[-window:]
        return Fraction(sum(recent), window)

    for shard in list(workchain.shards):
        load = mean_load(shard)
        if load is not None and load > split_tps and len(shard.peers) >= 2:
            child_a, child_b = split_shard(workchain, shard, peer_records)
            events.append({
                "event": "split",
                "parent": shard.shard_id,
                "children": [child_a.shard_id, child_b.shard_id],
                "mean_load": str(load),
            })

    by_parent: Dict[Shard, List[Shard]] = {}
    for shard in workchain.shards:
        if shard.parent is not None:
            by_parent.setdefault(shard.parent, []).append(shard)
    for siblings in by_parent.values():
        if len(siblings) != 2:
            continue
        loads = [mean_load(s) for s in siblings]
        if all(l is not None and l < merge_tps for l in loads):
            merged = merge_shards(workchain, siblings[0], siblings[1])
            events.append({
                "event": "merge",
                "children": sorted(s.shard_id for s in siblings),
                "merged": merged.shard_id,
            })
    return events
