"""Merkle Patricia Trie over account records, with block-header chains.

Accounts are stored under the Keccak-256 hash of their 20-byte address,
interpreted as 64 hex nibbles steering a radix-16 path. Every node is
referenced by the Keccak-256 hash of its RLP encoding (no inline short
nodes), so a proof is simply the ordered stack of node encodings from the
root to the leaf: re-hashing each node and following the nibbles either
reproduces the claimed state root or exposes the first tampered byte.

Account leaves use a fixed canonical 112-byte encoding: a 2-byte list
header, 1-byte nonce, three 33-byte hash/balance items, and a 10-byte
reserved trailer. The balance item starts at byte offset 3.

Nodes are immutable objects: a leaf, an extension, or a branch with a
16-tuple of children. An update path-copies the nodes from the root to
the changed leaf and hashes nothing. Nodes are hashed by one rule, the
hashing step: one `keccak256_many` call over every unhashed node whose
children are all hashed. `root` runs steps over one trie until its root
is hashed, so each node a block touched is hashed once. A `HashPipeline`
runs the same step over every trie a block was proposed on, on every
chain, and also makes each pending header whose state root and parent
are known: a block's header is made a few steps after it is proposed,
together with the tries and headers of other shards and later rounds.
Since no node changes after it is built, the trie is persistent: an old
handle keeps its root and its proofs.

`verify_account_proofs` checks many proofs at once: it hashes every
distinct node and address they hold in one batch, then walks each proof
against those digests.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Tuple, Union

from .keccak import DigestCache, keccak256, keccak256_many
from .rlp import RlpError, rlp_decode, rlp_encode

LEAF_LEN = 112
#: Largest account nonce: a leaf holds its nonce as one canonical RLP byte.
MAX_NONCE = 0x7F
GENESIS_PARENT = b"\x00" * 32
ZERO32 = b"\x00" * 32

#: Root hash of the empty trie: keccak256 of the RLP empty string.
EMPTY_ROOT = keccak256(rlp_encode(b""))


class MalformedLeafError(ValueError):
    """Account bytes do not match the canonical 112-byte layout."""


class NotFoundError(KeyError):
    """Address absent from the trie (non-inclusion proofs unsupported)."""


class VerificationError(Exception):
    """Proof rejected; the message names the failing check."""


class ChainError(ValueError):
    """Header-chain misuse, e.g. timestamp regression."""


class UnforgeabilityError(Exception):
    """Proof references a header that is not on the chain."""


# ---------------------------------------------------------------------------
# Account leaves
# ---------------------------------------------------------------------------

@dataclass(frozen=True, slots=True)
class AccountLeaf:
    nonce: int
    balance: int
    storage_root: bytes = ZERO32
    code_hash: bytes = ZERO32


def encode_account_leaf(acct: AccountLeaf) -> bytes:
    """Canonical 112-byte account encoding (a valid RLP list).

    Layout: f8 6e | nonce | a0 + 32-byte balance | a0 + storage root |
    a0 + code hash | 89 + 9 reserved zero bytes.
    """
    if not 0 <= acct.nonce <= MAX_NONCE:
        raise MalformedLeafError("nonce must fit one canonical RLP byte")
    if not 0 <= acct.balance < 1 << 256:
        raise MalformedLeafError("balance must be a 256-bit unsigned integer")
    if len(acct.storage_root) != 32 or len(acct.code_hash) != 32:
        raise MalformedLeafError("storage_root and code_hash must be 32 bytes")
    out = (
        b"\xf8\x6e"
        + bytes([acct.nonce])
        + b"\xa0" + acct.balance.to_bytes(32, "big")
        + b"\xa0" + acct.storage_root
        + b"\xa0" + acct.code_hash
        + b"\x89" + b"\x00" * 9
    )
    assert len(out) == LEAF_LEN
    return out


def decode_account_leaf(data: bytes) -> AccountLeaf:
    """Strict inverse of encode_account_leaf."""
    if len(data) != LEAF_LEN:
        raise MalformedLeafError(f"account leaf must be {LEAF_LEN} bytes")
    if data[0:2] != b"\xf8\x6e":
        raise MalformedLeafError("bad list header")
    if data[2] > MAX_NONCE:
        raise MalformedLeafError("bad nonce byte")
    if data[3] != 0xA0 or data[36] != 0xA0 or data[69] != 0xA0:
        raise MalformedLeafError("missing 32-byte item marker")
    if data[102] != 0x89 or data[103:112] != b"\x00" * 9:
        raise MalformedLeafError("bad reserved trailer")
    return AccountLeaf(
        nonce=data[2],
        balance=int.from_bytes(data[4:36], "big"),
        storage_root=data[37:69],
        code_hash=data[70:102],
    )


# ---------------------------------------------------------------------------
# Nibble paths
# ---------------------------------------------------------------------------

def _nibbles(data: bytes) -> Tuple[int, ...]:
    out = []
    for b in data:
        out.append(b >> 4)
        out.append(b & 0x0F)
    return tuple(out)


#: Trie path of an address, one nibble per byte of its Keccak: pure and
#: immutable, so safe to cache, and its slices are the compact node paths.
_address_path = DigestCache(bytes, lambda digest: bytes(_nibbles(digest)))


def hp_encode(nibbles, is_leaf: bool) -> bytes:
    """Hex-prefix encoding: packs a nibble path plus leaf/extension flag."""
    flag = 2 if is_leaf else 0
    if len(nibbles) % 2:
        scratch = [flag + 1] + list(nibbles)
    else:
        scratch = [flag, 0] + list(nibbles)
    return bytes(
        (scratch[i] << 4) | scratch[i + 1] for i in range(0, len(scratch), 2)
    )


def hp_decode(data: bytes):
    if not data:
        raise VerificationError("malformed node: empty hex-prefix path")
    flag = data[0] >> 4
    if flag > 3:
        raise VerificationError("malformed node: bad hex-prefix flag")
    is_leaf = flag >= 2
    nibbles = list(_nibbles(data))
    if flag % 2:  # odd length: first nibble of byte 0 is the flag
        nibbles = nibbles[1:]
    else:
        if nibbles[1] != 0:
            raise VerificationError("malformed node: bad hex-prefix padding")
        nibbles = nibbles[2:]
    return tuple(nibbles), is_leaf


# ---------------------------------------------------------------------------
# Trie
# ---------------------------------------------------------------------------

def _common_prefix(a, b) -> int:
    i = 0
    while i < len(a) and i < len(b) and a[i] == b[i]:
        i += 1
    return i


class _Node:
    """Immutable trie node; its encoding is computed on first use, and its
    digest by the hashing step that finds its children all hashed."""

    __slots__ = ("_encoding", "_digest")

    def encoding(self) -> bytes:
        if self._encoding is None:
            self._encoding = rlp_encode(self._items())
        return self._encoding


class _Leaf(_Node):
    __slots__ = ("path", "value")

    def __init__(self, path, value: bytes):
        self.path = path
        self.value = value
        self._encoding = self._digest = None

    def _items(self):
        return [hp_encode(self.path, True), self.value]

    def _children(self):
        return ()


class _Extension(_Node):
    __slots__ = ("path", "child")

    def __init__(self, path, child: _Node):
        self.path = path
        self.child = child
        self._encoding = self._digest = None

    def _items(self):
        return [hp_encode(self.path, False), self.child._digest]

    def _children(self):
        return (self.child,)


class _Branch(_Node):
    """16 children, one per nibble; the value slot is always empty, because
    every key is a full 64-nibble path and so never ends at a branch."""

    __slots__ = ("children",)

    def __init__(self, children: Tuple[Optional[_Node], ...]):
        self.children = children
        self._encoding = self._digest = None

    def _items(self):
        return [b"" if c is None else c._digest for c in self.children] + [b""]

    def _children(self):
        return [c for c in self.children if c is not None]


def _ready_nodes(node: Optional[_Node], seen: set, ready: List[_Node]) -> None:
    """Append to ``ready`` each unhashed node under ``node`` whose children
    are all hashed. Every descendant of a hashed node is hashed, so the
    walk stops there; ``seen`` keeps a subtree shared by several roots
    from being walked twice."""
    if node is None or node._digest is not None or node in seen:
        return
    seen.add(node)
    waiting = False
    for child in node._children():
        if child._digest is None:
            waiting = True
            _ready_nodes(child, seen, ready)
    if not waiting:
        ready.append(node)


def _hash_step(roots: Sequence[Optional[_Node]],
               header_rlps: Sequence[bytes] = ()) -> List[bytes]:
    """One hashing step: every unhashed node under ``roots`` whose children
    are all hashed, and every header RLP in ``header_rlps``, in one
    `keccak256_many` call. The nodes keep their digests; the header
    digests are returned. Nodes ready in one step do not depend on each
    other, so a trie is hashed in one step per height of its unhashed
    part."""
    seen: set = set()
    nodes: List[_Node] = []
    for root in roots:
        _ready_nodes(root, seen, nodes)
    digests = keccak256_many([n.encoding() for n in nodes] + list(header_rlps))
    for node, digest in zip(nodes, digests):
        node._digest = digest
    return digests[len(nodes):]


def _insert(node: Optional[_Node], path, value: bytes) -> _Node:
    """Path-copy ``node`` with ``value`` stored under ``path``; hashes nothing."""
    if node is None:
        return _Leaf(path, value)
    if isinstance(node, _Branch):
        children = list(node.children)
        children[path[0]] = _insert(children[path[0]], path[1:], value)
        return _Branch(tuple(children))
    split = _common_prefix(node.path, path)
    if isinstance(node, _Leaf):
        if split == len(path):
            return _Leaf(path, value)
        old = _Leaf(node.path[split + 1:], node.value)
    else:
        if split == len(node.path):
            return _Extension(node.path, _insert(node.child, path[split:], value))
        ext_rest = node.path[split + 1:]
        old = _Extension(ext_rest, node.child) if ext_rest else node.child
    children = [None] * 16
    children[node.path[split]] = old
    children[path[split]] = _Leaf(path[split + 1:], value)
    branch = _Branch(tuple(children))
    return _Extension(path[:split], branch) if split else branch


class Trie:
    """Persistent account trie handle over immutable, lazily hashed nodes."""

    __slots__ = ("_root",)

    def __init__(self, root: Optional[_Node] = None):
        self._root = root

    def root(self) -> bytes:
        """State root; hashes only the nodes no earlier call or pipeline
        step has hashed, in hashing steps over this trie alone."""
        while self.hashed_root() is None:
            _hash_step([self._root])
        return self.hashed_root()

    def hashed_root(self) -> Optional[bytes]:
        """The state root if every node is hashed already, else None."""
        return EMPTY_ROOT if self._root is None else self._root._digest

    def update(self, address: bytes, acct: AccountLeaf) -> "Trie":
        """Insert or overwrite an account; returns a new trie handle."""
        if len(address) != 20:
            raise ValueError("address must be 20 bytes")
        value = encode_account_leaf(acct)
        return Trie(_insert(self._root, _address_path(address), value))

    def update_many(self, items: Sequence[Tuple[bytes, AccountLeaf]]) -> "Trie":
        """`update` with each (address, account) in turn; the paths of the
        addresses not yet seen are hashed in one batch first."""
        _address_path.many([address for address, _ in items])
        trie = self
        for address, acct in items:
            trie = trie.update(address, acct)
        return trie

    # -- lookup / proofs ---------------------------------------------------

    def _walk(self, address: bytes) -> List[_Node]:
        """Follow an address path; returns the nodes from root to leaf."""
        node = self._root
        if node is None:
            raise NotFoundError(f"address {address.hex()} not in empty trie")
        path = _address_path(address)
        idx = 0
        stack = [node]
        while not isinstance(node, _Leaf):
            if isinstance(node, _Branch):
                node = node.children[path[idx]]
                if node is None:
                    raise NotFoundError(f"address {address.hex()} not present")
                idx += 1
            else:
                if path[idx:idx + len(node.path)] != node.path:
                    raise NotFoundError(f"address {address.hex()} not present")
                idx += len(node.path)
                node = node.child
            stack.append(node)
        if path[idx:] != node.path:
            raise NotFoundError(f"address {address.hex()} not present")
        return stack

    def prove(self, address: bytes) -> "MptProof":
        self.root()
        stack = self._walk(address)
        return MptProof(address=address,
                        node_stack=tuple(n.encoding() for n in stack))


def prove_account(trie: Trie, address: bytes,
                  block_height: Optional[int] = None,
                  header_hash: Optional[bytes] = None) -> "MptProof":
    proof = trie.prove(address)
    return MptProof(
        address=proof.address,
        node_stack=proof.node_stack,
        block_height=block_height,
        header_hash=header_hash,
    )


@dataclass(frozen=True, slots=True)
class MptProof:
    """Ordered node stack from state root to account leaf."""

    address: bytes
    node_stack: Tuple[bytes, ...]
    block_height: Optional[int] = None
    header_hash: Optional[bytes] = None

    def to_json(self) -> dict:
        return {
            "address": "0x" + self.address.hex(),
            "blockHeight": self.block_height,
            "headerHash": (
                "0x" + self.header_hash.hex() if self.header_hash else None
            ),
            "nodes": ["0x" + n.hex() for n in self.node_stack],
        }

    @property
    def leaf_rlp(self) -> bytes:
        """The account leaf the stack ends in, unverified: every trie value
        is a 112-byte leaf, and it is the last item of the last node."""
        return self.node_stack[-1][-LEAF_LEN:]

    @classmethod
    def from_json(cls, obj: dict) -> "MptProof":
        """Read ``to_json``'s output; raises ValueError, KeyError or TypeError."""
        header_hash, height = obj.get("headerHash"), obj.get("blockHeight")
        if height is not None and not (type(height) is int and height >= 0):
            raise ValueError("blockHeight must be a non-negative integer or null")
        return cls(
            address=hex_bytes(obj["address"], "address", 20),
            node_stack=tuple(hex_bytes(n, "node") for n in obj["nodes"]),
            block_height=height,
            header_hash=(None if header_hash is None
                         else hex_bytes(header_hash, "headerHash", 32)),
        )


def verify_account_proofs(
        items: Sequence[Tuple[bytes, MptProof]],
) -> List[Union[AccountLeaf, VerificationError]]:
    """Check each ``(state_root, proof)`` pair; returns, in order, the
    account its proof proves or the VerificationError naming the cause.

    Hashes every distinct node and address of every proof in one batch,
    keyed by their bytes, then walks each proof against those digests.
    """
    messages = {}
    for _, proof in items:
        messages[proof.address] = None
        messages.update(dict.fromkeys(proof.node_stack))
    digests = dict(zip(messages, keccak256_many(list(messages))))
    results: List[Union[AccountLeaf, VerificationError]] = []
    for state_root, proof in items:
        try:
            results.append(_walk_proof(state_root, proof, digests))
        except VerificationError as exc:
            results.append(exc)
    return results


def verify_account_proof(state_root: bytes, address: bytes,
                         proof: MptProof) -> AccountLeaf:
    """Re-hash and re-walk one proof; returns the proven account or raises.

    Any altered byte in the nodes, address, or claimed root flips a hash
    or diverts the nibble path, and is reported with its cause.
    """
    if len(address) != 20:
        raise VerificationError("address must be 20 bytes")
    if proof.address != address:
        raise VerificationError("address mismatch between proof and query")
    (result,) = verify_account_proofs([(state_root, proof)])
    if isinstance(result, VerificationError):
        raise result
    return result


def _walk_proof(state_root: bytes, proof: MptProof, digests: dict) -> AccountLeaf:
    """Follow ``proof.address``'s path from ``state_root`` through the node
    stack; ``digests`` maps each node and the address to its Keccak-256."""
    if len(proof.address) != 20:
        raise VerificationError("address must be 20 bytes")
    if not proof.node_stack:
        raise VerificationError("empty proof")
    path = _nibbles(digests[proof.address])
    expected_hash = state_root
    idx = 0
    for depth, encoded in enumerate(proof.node_stack):
        if digests[encoded] != expected_hash:
            cause = "root hash mismatch" if depth == 0 else "hash mismatch"
            raise VerificationError(f"{cause} at node {depth}")
        try:
            node = rlp_decode(encoded)
        except RlpError as exc:
            raise VerificationError(f"malformed node at {depth}: {exc}") from exc
        if not isinstance(node, list):
            raise VerificationError(f"malformed node at {depth}: not a list")
        if len(node) == 17:
            if idx >= len(path):
                raise VerificationError("path exhausted at branch")
            ref = node[path[idx]]
            if len(ref) != 32:
                raise VerificationError(f"path divergence at node {depth}")
            expected_hash = ref
            idx += 1
            continue
        if len(node) != 2:
            raise VerificationError(f"malformed node at {depth}: bad arity")
        node_path, is_leaf = hp_decode(node[0])
        if tuple(path[idx : idx + len(node_path)]) != node_path:
            raise VerificationError(f"path divergence at node {depth}")
        idx += len(node_path)
        if is_leaf:
            if depth != len(proof.node_stack) - 1:
                raise VerificationError("leaf before end of node stack")
            if idx != len(path):
                raise VerificationError("path divergence at leaf")
            try:
                return decode_account_leaf(node[1])
            except MalformedLeafError as exc:
                raise VerificationError(f"malformed leaf: {exc}") from exc
        expected_hash = node[1]
        if len(expected_hash) != 32:
            raise VerificationError(f"malformed node at {depth}: bad child ref")
    raise VerificationError("truncated proof: no leaf reached")


# ---------------------------------------------------------------------------
# Block headers
# ---------------------------------------------------------------------------

def _int_rlp(i: int) -> bytes:
    if i == 0:
        return b""
    return i.to_bytes((i.bit_length() + 7) // 8, "big")


def _header_rlp(height: int, parent_hash: bytes, timestamp: int,
                state_root: bytes) -> bytes:
    return rlp_encode([_int_rlp(height), parent_hash, _int_rlp(timestamp),
                       state_root])


def header_digest(height: int, parent_hash: bytes, timestamp: int,
                  state_root: bytes) -> bytes:
    """Keccak of the RLP header, one 136-byte block. A header is hashed
    once, when it is made; votes, block production and `append` reuse the
    header they are handed. `HashPipeline.step` and `replay_headers` hash
    many headers in one `keccak256_many` batch instead."""
    return keccak256(_header_rlp(height, parent_hash, timestamp, state_root))


def hex_bytes(text: str, name: str, size: Optional[int] = None) -> bytes:
    """The bytes a ``to_json`` writes as ``text``: ``0x`` and lowercase hex
    digits, ``2 * size`` of them when ``size`` is given, nothing else."""
    raw = bytes.fromhex(text[2:])
    if text != "0x" + raw.hex() or size is not None and len(raw) != size:
        digits = "" if size is None else f"{2 * size} "
        raise ValueError(f"{name} must be 0x and {digits}lowercase hex digits")
    return raw


@dataclass(frozen=True, slots=True)
class BlockHeader:
    height: int
    parent_hash: bytes
    timestamp: int
    state_root: bytes
    header_hash: bytes

    @classmethod
    def make(cls, height: int, parent_hash: bytes, timestamp: int,
             state_root: bytes) -> "BlockHeader":
        return cls(height, parent_hash, timestamp, state_root,
                   header_digest(height, parent_hash, timestamp, state_root))

    def to_json(self) -> dict:
        return {
            "height": self.height,
            "parentHash": "0x" + self.parent_hash.hex(),
            "timestamp": self.timestamp,
            "stateRoot": "0x" + self.state_root.hex(),
            "headerHash": "0x" + self.header_hash.hex(),
        }

    @classmethod
    def from_json(cls, obj: dict) -> "BlockHeader":
        """Read ``to_json``'s output; raises ValueError, KeyError or TypeError."""
        height, timestamp = obj["height"], obj["timestamp"]
        if not all(type(i) is int and i >= 0 for i in (height, timestamp)):
            raise ValueError("height and timestamp must be non-negative integers")
        parent, root, digest = (hex_bytes(obj[key], key, 32) for key in
                                ("parentHash", "stateRoot", "headerHash"))
        return cls(height, parent, timestamp, root, digest)


def header_digests(headers: Sequence[BlockHeader]) -> List[bytes]:
    """Each header's digest recomputed from its fields, whatever its
    ``header_hash`` says, in one `keccak256_many` call."""
    return keccak256_many([_header_rlp(h.height, h.parent_hash, h.timestamp,
                                       h.state_root) for h in headers])


def replay_headers(headers: Sequence[Tuple[str, BlockHeader]],
                   digests: Optional[Sequence[bytes]] = None
                   ) -> Optional[Tuple[int, str]]:
    """The header-chain rule over ``(chain id, header)`` pairs in append
    order: each hash is its header's digest, a chain opens with a genesis
    (height 0, zero parent), and each later header sits one above its
    chain's last and names it as parent. Returns the index of the first
    header that breaks the rule and why, or None.

    ``digests`` are the headers' recomputed digests, from `header_digests`;
    without them every header is hashed here, in one batch."""
    if digests is None:
        digests = header_digests([h for _, h in headers])
    tips: dict = {}
    for i, ((chain, h), digest) in enumerate(zip(headers, digests,
                                                 strict=True)):
        if h.header_hash != digest:
            return i, f"digest mismatch at {chain}#{h.height}"
        tip = tips.get(chain)
        if tip is None:
            if h.height != 0 or h.parent_hash != GENESIS_PARENT:
                return i, f"bad genesis for {chain}"
        elif h.height != tip.height + 1 or h.parent_hash != tip.header_hash:
            return i, f"broken link at {chain}#{h.height}"
        tips[chain] = h
    return None


class HeaderChain:
    """A hash-linked list of block headers, genesis at height 0, and a
    pending tail: blocks proposed through a `HashPipeline` whose headers
    are not made yet. `height` counts the tail; reading a pending header
    runs pipeline steps until it is made."""

    __slots__ = ("headers", "_pending", "_pipeline")

    def __init__(self, genesis_state_root: bytes = EMPTY_ROOT,
                 genesis_timestamp: int = 0):
        self.headers: List[BlockHeader] = [
            BlockHeader.make(0, GENESIS_PARENT, genesis_timestamp,
                             genesis_state_root)
        ]
        # (trie, timestamp, made) of each proposal, oldest first.
        self._pending: List[tuple] = []
        self._pipeline: Optional["HashPipeline"] = None

    @property
    def height(self) -> int:
        """The height of the last block, made or pending."""
        return len(self.headers) - 1 + len(self._pending)

    @property
    def tip(self) -> BlockHeader:
        return self.header_at(self.height)

    def next_header(self, state_root: bytes, timestamp: int) -> BlockHeader:
        """The header that would extend the chain: a block's proposal."""
        tip = self.tip
        return BlockHeader.make(tip.height + 1, tip.header_hash, timestamp,
                                state_root)

    def append(self, header: BlockHeader) -> BlockHeader:
        """Add a proposal that extends the last made header.

        The proposal must come from `BlockHeader.make`, `next_header` or a
        pipeline step: its height, parent link and timestamp are checked,
        but its digest is trusted, not recomputed. Only `validate` replays
        the digests.
        """
        tip = self.headers[-1]
        if header.height != tip.height + 1 or header.parent_hash != tip.header_hash:
            raise ChainError(
                f"proposal at height {header.height} does not extend the tip "
                f"at height {tip.height}"
            )
        if header.timestamp < tip.timestamp:
            raise ChainError(
                f"timestamp regression: {header.timestamp} < {tip.timestamp}"
            )
        self.headers.append(header)
        return header

    def holds(self, height, header_hash: bytes) -> bool:
        """Is the header with this height and hash on the chain?"""
        return (type(height) is int and 0 <= height <= self.height
                and self.header_at(height).header_hash == header_hash)

    def validate(self) -> Optional[int]:
        """Return the height of the first invalid header, or None if intact."""
        fault = replay_headers([("chain", h) for h in self.headers])
        return None if fault is None else fault[0]

    def header_at(self, height: int) -> BlockHeader:
        if not 0 <= height <= self.height:
            raise ChainError(f"no header at height {height}")
        while len(self.headers) <= height:
            self._pipeline.step()
        return self.headers[height]


class HashPipeline:
    """Every block proposed but not hashed yet, on any number of chains.

    A proposal names the trie, or the sealed anchor table, whose root its
    header commits to; nothing is hashed when it is made. Each `step`
    hashes, in one `keccak256_many` call, every unhashed node of every
    pending trie whose children are all hashed, and every pending header
    whose state root and parent digest are known: the oldest pending one
    of each chain whose trie is hashed. `Trie.root` is the same step over
    one trie. A header, once made, is handed to its proposal's ``made``
    callback, which must append it to its chain.
    """

    __slots__ = ("_chains",)

    def __init__(self):
        self._chains: Dict[HeaderChain, None] = {}

    def propose(self, chain: HeaderChain, trie: Trie, timestamp: int,
                made: Callable[[BlockHeader], object]) -> int:
        """Queue the block that extends ``chain`` over ``trie``'s state at
        ``timestamp``; returns its height."""
        chain._pending.append((trie, timestamp, made))
        chain._pipeline = self
        self._chains[chain] = None
        return chain.height

    def step(self) -> None:
        """One hashing step over every pending trie and header."""
        roots, ready = [], []
        for chain in self._chains:
            roots += [trie._root for trie, _, _ in chain._pending]
            trie, timestamp, _ = chain._pending[0]
            state_root = trie.hashed_root()
            if state_root is not None:
                tip = chain.headers[-1]
                ready.append((chain, (tip.height + 1, tip.header_hash,
                                      timestamp, state_root)))
        digests = _hash_step(roots, [_header_rlp(*f) for _, f in ready])
        for (chain, fields), digest in zip(ready, digests):
            _, _, made = chain._pending.pop(0)
            header = BlockHeader(*fields, digest)
            made(header)
            if chain.headers[-1] is not header:
                raise ChainError(f"header at height {header.height} was made "
                                 f"but not appended")
            if not chain._pending:
                del self._chains[chain]

    def flush(self) -> None:
        """Step until nothing is pending."""
        while self._chains:
            self.step()


def check_freshness(chain: HeaderChain, proof_header: BlockHeader,
                    confirmations: int, window: int, now: int) -> bool:
    """Apply the freshness rule to a header the proof was built against.

    The header must sit on the chain (otherwise the proof is forged);
    it passes iff it has at least `confirmations` blocks on top and its
    timestamp is at most `window` seconds old. Blocks still pending count.
    """
    if not chain.holds(proof_header.height, proof_header.header_hash):
        raise UnforgeabilityError("proof header is not on the chain")
    deep_enough = (chain.height - proof_header.height) >= confirmations
    fresh_enough = (now - proof_header.timestamp) <= window
    return deep_enough and fresh_enough
