"""Account trie, proofs, header chains, and the freshness rule."""

import random
from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import privamm.keccak as keccak_mod
import privamm.trie as trie_mod
from privamm.keccak import keccak256
from privamm.rlp import rlp_encode
from privamm.trie import (EMPTY_ROOT, GENESIS_PARENT, AccountLeaf, BlockHeader,
                          ChainError, HashPipeline, HeaderChain,
                          MalformedLeafError, MptProof, NotFoundError, Trie,
                          UnforgeabilityError,
                          VerificationError, check_freshness,
                          decode_account_leaf, encode_account_leaf,
                          header_digest, prove_account, replay_headers,
                          verify_account_proof, verify_account_proofs)


def addr(i: int) -> bytes:
    return i.to_bytes(20, "big")


def leaf(balance: int, nonce: int = 0) -> AccountLeaf:
    return AccountLeaf(nonce=nonce, balance=balance)


# -- leaf layout -------------------------------------------------------------

def test_leaf_is_112_bytes_with_fixed_markers():
    data = encode_account_leaf(leaf(1))
    assert len(data) == 112
    assert data[0:2] == b"\xf8\x6e"
    assert data[3] == 0xA0
    assert data[36] == 0xA0
    assert data[69] == 0xA0
    assert data[102] == 0x89
    assert data[103:] == b"\x00" * 9


def test_leaf_balance_big_endian():
    data = encode_account_leaf(leaf(1))
    assert data[35] == 0x01
    assert data[4:35] == b"\x00" * 31


def test_leaf_limb_boundary():
    data = encode_account_leaf(leaf(2**128))
    assert data[19] == 0x01
    assert data[20:36] == b"\x00" * 16


def test_leaf_round_trip():
    original = AccountLeaf(nonce=5, balance=123456789,
                           storage_root=b"\x11" * 32, code_hash=b"\x22" * 32)
    assert decode_account_leaf(encode_account_leaf(original)) == original


def test_leaf_rejects_large_nonce():
    with pytest.raises(MalformedLeafError):
        encode_account_leaf(leaf(1, nonce=0x80))


def test_leaf_rejects_oversized_balance():
    with pytest.raises(MalformedLeafError):
        encode_account_leaf(leaf(2**256))


def test_decode_rejects_damaged_markers():
    data = bytearray(encode_account_leaf(leaf(7)))
    data[36] = 0xA1
    with pytest.raises(MalformedLeafError):
        decode_account_leaf(bytes(data))


# -- trie --------------------------------------------------------------------

def test_empty_root_is_keccak_of_rlp_empty():
    assert Trie().root() == keccak256(rlp_encode(b"")) == EMPTY_ROOT


def test_single_leaf_root():
    t = Trie().update(addr(1), leaf(10))
    # One account: the root node is the leaf itself.
    proof = t.prove(addr(1))
    assert len(proof.node_stack) == 1
    assert t.root() == keccak256(proof.node_stack[0])


def proven_leaf(t: Trie, a: bytes) -> AccountLeaf:
    return decode_account_leaf(t.prove(a).leaf_rlp)


def test_prove_leaf_round_trip():
    t = Trie()
    for i in range(1, 20):
        t = t.update(addr(i), leaf(i * 100))
    for i in range(1, 20):
        assert proven_leaf(t, addr(i)).balance == i * 100


def test_prove_missing_raises():
    t = Trie().update(addr(1), leaf(10))
    with pytest.raises(NotFoundError):
        t.prove(addr(2))


def test_update_is_persistent():
    t1 = Trie().update(addr(1), leaf(10))
    t2 = t1.update(addr(1), leaf(20))
    assert proven_leaf(t1, addr(1)).balance == 10
    assert proven_leaf(t2, addr(1)).balance == 20
    assert t1.root() != t2.root()


@given(st.integers(0, 2**32))
@settings(max_examples=40)
def test_root_insertion_order_independent(seed):
    rng = random.Random(seed)
    accounts = {addr(i): leaf(rng.randrange(1, 2**64)) for i in range(1, 33)}
    order_a = list(accounts)
    order_b = list(accounts)
    rng.shuffle(order_b)
    t_a, t_b = Trie(), Trie()
    for a in order_a:
        t_a = t_a.update(a, accounts[a])
    for a in order_b:
        t_b = t_b.update(a, accounts[a])
    assert t_a.root() == t_b.root()


# -- proofs --------------------------------------------------------------------

def build_populated(n=24):
    t = Trie()
    for i in range(1, n + 1):
        t = t.update(addr(i), leaf(i * 1000))
    return t


def test_proof_verifies_and_decodes():
    t = build_populated()
    proof = prove_account(t, addr(7))
    account = verify_account_proof(t.root(), addr(7), proof)
    assert account.balance == 7000


def test_proof_rejects_wrong_root():
    t = build_populated()
    proof = prove_account(t, addr(7))
    with pytest.raises(VerificationError, match="root hash"):
        verify_account_proof(b"\x00" * 32, addr(7), proof)


def test_proof_rejects_wrong_address():
    t = build_populated()
    proof = prove_account(t, addr(7))
    with pytest.raises(VerificationError):
        verify_account_proof(t.root(), addr(8), proof)


def test_every_single_byte_tamper_detected():
    t = build_populated(8)
    proof = prove_account(t, addr(3))
    root = t.root()
    for node_idx, node in enumerate(proof.node_stack):
        for byte_idx in range(len(node)):
            mutated = bytearray(node)
            mutated[byte_idx] ^= 0x01
            stack = list(proof.node_stack)
            stack[node_idx] = bytes(mutated)
            bad = type(proof)(address=proof.address, node_stack=tuple(stack))
            with pytest.raises(VerificationError):
                verify_account_proof(root, addr(3), bad)


def test_proof_json_round_trip():
    t = build_populated(4)
    proof = prove_account(t, addr(2), block_height=9, header_hash=b"\xab" * 32)
    restored = type(proof).from_json(proof.to_json())
    assert restored == proof


@pytest.mark.parametrize("height", [0, None])
def test_proof_json_reads_a_block_height_or_null(height):
    proof = prove_account(build_populated(4), addr(2), block_height=height)
    assert MptProof.from_json(proof.to_json()) == proof


@pytest.mark.parametrize("height", [True, False, -1, "1", 1.0])
def test_proof_json_rejects_a_block_height_the_writer_never_writes(height):
    obj = prove_account(build_populated(4), addr(2), block_height=1).to_json()
    obj["blockHeight"] = height
    with pytest.raises(ValueError, match="^blockHeight must be a "
                                         "non-negative integer or null$"):
        MptProof.from_json(obj)


# -- lazily hashed nodes ------------------------------------------------------------

def test_old_handle_root_and_proofs_survive_later_updates():
    hashed = build_populated(16)
    root = hashed.root()
    proofs = {i: prove_account(hashed, addr(i)) for i in range(1, 17)}
    unhashed = hashed.update(addr(2), leaf(1))  # root not read yet
    later = unhashed
    for i in range(1, 17, 3):
        later = later.update(addr(i), leaf(i, nonce=1))
    later = later.update(addr(99), leaf(5))
    later.root()
    assert hashed.root() == root
    for i, proof in proofs.items():
        assert prove_account(hashed, addr(i)) == proof
        assert verify_account_proof(root, addr(i), proof).balance == i * 1000
    with pytest.raises(NotFoundError):
        hashed.prove(addr(99))
    rebuilt = build_populated(16).update(addr(2), leaf(1))
    assert unhashed.root() == rebuilt.root()
    assert unhashed.prove(addr(2)) == rebuilt.prove(addr(2))


def test_batch_of_updates_matches_fresh_build_in_other_order():
    rng = random.Random(7)
    accounts = {addr(i): leaf(rng.randrange(1, 2**64)) for i in range(1, 41)}
    t = Trie()
    for a, acct in accounts.items():
        t = t.update(a, acct)
    t.root()
    for i in rng.sample(range(1, 61), 15):
        accounts[addr(i)] = leaf(rng.randrange(1, 2**64), nonce=1)
        t = t.update(addr(i), accounts[addr(i)])
    order = list(accounts)
    rng.shuffle(order)
    fresh = Trie()
    for a in order:
        fresh = fresh.update(a, accounts[a])
    assert t.root() == fresh.root()
    for a in accounts:
        assert t.prove(a) == fresh.prove(a)


def test_root_hashes_each_dirty_node_once(monkeypatch):
    t = build_populated(200)
    t.root()
    targets = [addr(i) for i in (3, 50, 51, 120, 199)]
    for n, a in enumerate(targets):
        t = t.update(a, leaf(7 + n, nonce=1))
    hashed = []
    real, real_many = trie_mod.keccak256, trie_mod.keccak256_many
    monkeypatch.setattr(trie_mod, "keccak256",
                        lambda data: hashed.append(data) or real(data))
    monkeypatch.setattr(trie_mod, "keccak256_many",
                        lambda msgs: hashed.extend(msgs) or real_many(msgs))
    root = t.root()
    monkeypatch.undo()
    on_paths = {node for a in targets for node in t.prove(a).node_stack}
    assert sorted(hashed) == sorted(on_paths)
    assert root == keccak256(t.prove(targets[0]).node_stack[0])


def test_proof_leaf_is_the_encoded_account():
    t = build_populated(12)
    for i in range(1, 13):
        assert t.prove(addr(i)).leaf_rlp == encode_account_leaf(leaf(i * 1000))


def test_batch_rejects_every_tamper_beside_proofs_sharing_its_nodes():
    """A tampered proof checked in one batch with valid proofs that share
    its nodes is rejected for every single-byte flip; the others verify."""
    t = build_populated(8)
    root = t.root()
    valid = [(root, prove_account(t, addr(i))) for i in range(1, 9)]
    proof = valid[2][1]
    assert all(proof.node_stack[0] == p.node_stack[0] for _, p in valid)
    for node_idx, node in enumerate(proof.node_stack):
        for byte_idx in range(len(node)):
            mutated = bytearray(node)
            mutated[byte_idx] ^= 0x01
            stack = list(proof.node_stack)
            stack[node_idx] = bytes(mutated)
            bad = type(proof)(address=proof.address, node_stack=tuple(stack))
            results = verify_account_proofs(valid + [(root, bad)] + valid)
            assert isinstance(results[8], VerificationError)
            assert [r.balance for r in results[:8] + results[9:]] == [
                i * 1000 for i in range(1, 9)] * 2


def test_batch_matches_one_by_one():
    t = build_populated(12)
    root = t.root()
    items = [(root, prove_account(t, addr(i))) for i in range(1, 13)]
    items += [(b"\x00" * 32, items[0][1]),
              (root, type(items[1][1])(address=addr(99),
                                       node_stack=items[1][1].node_stack)),
              (root, type(items[1][1])(address=addr(1), node_stack=()))]
    batched = verify_account_proofs(items)
    for (state_root, proof), got in zip(items, batched):
        try:
            want = verify_account_proof(state_root, proof.address, proof)
        except VerificationError as exc:
            assert isinstance(got, VerificationError) and str(got) == str(exc)
        else:
            assert got == want
    assert verify_account_proofs([]) == []


# -- header chain -----------------------------------------------------------------

def test_genesis_shape():
    chain = HeaderChain(genesis_state_root=EMPTY_ROOT, genesis_timestamp=5)
    genesis = chain.headers[0]
    assert genesis.height == 0
    assert genesis.parent_hash == GENESIS_PARENT
    assert genesis.header_hash == header_digest(0, GENESIS_PARENT, 5, EMPTY_ROOT)


def test_append_links_parents():
    chain = HeaderChain()
    h1 = chain.append(chain.next_header(b"\x01" * 32, 10))
    h2 = chain.append(chain.next_header(b"\x02" * 32, 20))
    assert h1.parent_hash == chain.headers[0].header_hash
    assert h2.parent_hash == h1.header_hash
    assert chain.validate() is None


def test_timestamp_regression_rejected():
    chain = HeaderChain()
    chain.append(chain.next_header(b"\x01" * 32, 10))
    with pytest.raises(ChainError):
        chain.append(chain.next_header(b"\x02" * 32, 9))


def test_historic_mutation_detected_at_first_descendant():
    chain = HeaderChain()
    for i in range(1, 6):
        chain.append(chain.next_header(bytes([i]) * 32, i * 10))
    # Tamper with the header at height 2; its own digest no longer matches.
    victim = chain.headers[2]
    forged = type(victim).make(victim.height, victim.parent_hash,
                               victim.timestamp, b"\xff" * 32)
    chain.headers[2] = type(victim)(
        height=forged.height, parent_hash=forged.parent_hash,
        timestamp=forged.timestamp, state_root=forged.state_root,
        header_hash=victim.header_hash,  # keep the old hash: digest lie
    )
    assert chain.validate() == 2


def test_parent_break_detected_at_descendant():
    chain = HeaderChain()
    for i in range(1, 6):
        chain.append(chain.next_header(bytes([i]) * 32, i * 10))
    # Replace height 2 with a self-consistent header not linked to height 3.
    victim = chain.headers[2]
    replacement = type(victim).make(victim.height, victim.parent_hash,
                                    victim.timestamp, b"\xff" * 32)
    chain.headers[2] = replacement
    assert chain.validate() == 3


def reference_fault(headers):
    """The header-chain rule folded one header at a time over
    ``header_digest``, as ``replay_headers`` is documented to apply it."""
    tips = {}
    for i, (chain, h) in enumerate(headers):
        if h.header_hash != header_digest(h.height, h.parent_hash,
                                          h.timestamp, h.state_root):
            return i, f"digest mismatch at {chain}#{h.height}"
        if chain not in tips:
            if h.height != 0 or h.parent_hash != GENESIS_PARENT:
                return i, f"bad genesis for {chain}"
        elif (h.height != tips[chain].height + 1
              or h.parent_hash != tips[chain].header_hash):
            return i, f"broken link at {chain}#{h.height}"
        tips[chain] = h
    return None


def interleaved(schedule):
    """``(chain id, header)`` pairs for chains ``c0``, ``c1``, ... growing in
    the order ``schedule`` names them; each opens with its genesis."""
    chains, pairs = {}, []
    for k in schedule:
        chain = chains.get(k)
        if chain is None:
            chain = chains[k] = HeaderChain(bytes([k]) * 32, k)
            header = chain.tip
        else:
            header = chain.append(chain.next_header(
                bytes([len(pairs) % 256]) * 32, chain.tip.timestamp + 1))
        pairs.append((f"c{k}", header))
    return pairs


def tampered(header, kind, salt):
    """One tamper of ``header``; all but the digest flip re-hash it."""
    if kind == "flip":
        field = ("parent_hash", "state_root", "header_hash")[salt % 3]
        value = bytearray(getattr(header, field))
        value[salt % 32] ^= 1 + salt % 255
        return replace(header, **{field: bytes(value)})
    if kind == "relink":
        parent = bytes([salt % 256]) * 31 + b"\x01"
        return BlockHeader.make(header.height, parent, header.timestamp,
                                header.state_root)
    if kind == "skip":
        return BlockHeader.make(header.height + 1 + salt % 3,
                                header.parent_hash, header.timestamp,
                                header.state_root)
    assert kind == "genesis" and header.height == 0
    return BlockHeader.make(1 + salt % 3, GENESIS_PARENT, header.timestamp,
                            header.state_root)


@settings(max_examples=60)
@given(chains=st.integers(2, 4), data=st.data(),
       kind=st.sampled_from(["flip", "relink", "skip", "genesis"]),
       salt=st.integers(0, 10**6))
def test_replay_headers_matches_a_one_by_one_fold(chains, data, kind, salt):
    schedule = list(range(chains)) + data.draw(
        st.lists(st.integers(0, chains - 1), max_size=12))
    pairs = interleaved(data.draw(st.permutations(schedule)))
    assert replay_headers(pairs) is None
    if kind == "genesis":
        i = next(i for i, (_, h) in enumerate(pairs) if h.height == 0)
    else:
        i = data.draw(st.integers(0, len(pairs) - 1))
    chain, header = pairs[i]
    pairs[i] = (chain, tampered(header, kind, salt))
    fault = replay_headers(pairs)
    assert fault is not None and fault[0] <= i
    assert fault == reference_fault(pairs)


def test_replay_headers_hashes_every_header_in_one_batch(monkeypatch):
    pairs = interleaved([0, 1, 0, 0, 1, 2, 2, 0])
    broken = list(pairs)
    broken[3] = (broken[3][0], tampered(broken[3][1], "relink", 7))
    chain = chain_of(5)
    singles, batches = [], []
    real, real_many = trie_mod.keccak256, trie_mod.keccak256_many
    monkeypatch.setattr(trie_mod, "keccak256",
                        lambda data: singles.append(data) or real(data))
    monkeypatch.setattr(trie_mod, "keccak256_many",
                        lambda msgs: batches.append(list(msgs))
                        or real_many(msgs))
    assert replay_headers(pairs[:2]) is None
    assert replay_headers(pairs) is None
    assert replay_headers(broken) == (3, "broken link at c0#2")
    assert chain.validate() is None
    monkeypatch.undo()
    assert singles == []
    assert [len(b) for b in batches] == [2, 8, 8, 6]


def test_replay_headers_of_nothing_is_none():
    assert replay_headers([]) is None


@pytest.mark.parametrize("field", ["parentHash", "stateRoot", "headerHash"])
@pytest.mark.parametrize("garble", [
    lambda text: "zz" + text[2:],
    lambda text: "0x" + text[2:].upper(),
    lambda text: text[:-2],
    lambda text: text + "00",
], ids=["prefix", "uppercase", "31-bytes", "33-bytes"])
def test_header_from_json_requires_canonical_hashes(field, garble):
    obj = BlockHeader.make(3, b"\xab" * 32, 30, b"\xcd" * 32).to_json()
    assert BlockHeader.from_json(obj).to_json() == obj
    text = obj[field]
    obj[field] = garble(text)
    assert obj[field] != text
    with pytest.raises(ValueError,
                       match=f"^{field} must be 0x and 64 lowercase hex "
                             f"digits$"):
        BlockHeader.from_json(obj)


# -- freshness -----------------------------------------------------------------------

def chain_of(heights=10, step=10):
    chain = HeaderChain(genesis_timestamp=0)
    for i in range(1, heights + 1):
        chain.append(chain.next_header(bytes([i % 256]) * 32, i * step))
    return chain


def test_freshness_confirmation_boundary():
    chain = chain_of(10)
    header = chain.header_at(7)  # 3 confirmations on top
    now = chain.tip.timestamp
    assert check_freshness(chain, header, confirmations=3, window=10**6, now=now)
    assert not check_freshness(chain, header, confirmations=4, window=10**6,
                               now=now)


def test_freshness_window_boundary():
    chain = chain_of(10)
    header = chain.header_at(5)  # timestamp 50
    assert check_freshness(chain, header, confirmations=1, window=30, now=80)
    assert not check_freshness(chain, header, confirmations=1, window=29, now=80)


def test_freshness_rejects_forged_header():
    chain = chain_of(10)
    outsider = type(chain.tip).make(3, b"\x99" * 32, 30, b"\x88" * 32)
    with pytest.raises(UnforgeabilityError):
        check_freshness(chain, outsider, confirmations=1, window=10**6, now=100)


def test_holds_rejects_a_bool_height():
    chain = chain_of(3)
    first = chain.header_at(1)
    assert chain.holds(1, first.header_hash)
    assert not chain.holds(True, first.header_hash)
    assert not chain.holds(False, chain.header_at(0).header_hash)


def test_append_refuses_a_header_that_does_not_extend_the_tip():
    chain = HeaderChain()
    stale = chain.next_header(b"\x01" * 32, 10)
    chain.append(chain.next_header(b"\x02" * 32, 10))
    tip = chain.tip
    skipping = BlockHeader.make(tip.height + 2, tip.header_hash, 20, b"\x03" * 32)
    for header in (stale, skipping):
        with pytest.raises(ChainError, match="does not extend the tip"):
            chain.append(header)
    assert chain.tip is tip
    assert chain.validate() is None


def test_update_many_matches_update_one_by_one(monkeypatch):
    # Addresses no other test uses, so none of their paths is cached yet.
    items = [(keccak256(b"update-many/%d" % i)[:20], leaf(100 + i, nonce=i))
             for i in range(40)]
    batches = []
    real = keccak_mod.keccak256_many
    monkeypatch.setattr(keccak_mod, "keccak256_many",
                        lambda msgs: batches.append(list(msgs)) or real(msgs))
    batched = Trie().update_many(items)
    monkeypatch.undo()
    assert batches == [[a for a, _ in items]]
    one_by_one = Trie()
    for a, acct in items:
        one_by_one = one_by_one.update(a, acct)
    assert batched.root() == one_by_one.root()


# -- hashing pipeline ------------------------------------------------------------

def propose_blocks(pipeline, chains, count, trie=None):
    """Propose ``count`` blocks on ``chains`` in turn, each over a trie
    with one more account; returns ``(chain, height, trie, timestamp)``
    of each proposal."""
    trie = trie or Trie()
    proposals = []
    for i in range(count):
        trie = trie.update(addr(100 + i), leaf(i))
        chain = chains[i % len(chains)]
        height = pipeline.propose(chain, trie, 10 + i, chain.append)
        proposals.append((chain, height, trie, 10 + i))
    return proposals


def test_pipeline_headers_match_make_one_by_one():
    """Headers a pipeline makes on several chains at once equal those
    `BlockHeader.make` gives over each chain's tip and each trie's root;
    ``height`` counts the blocks before they are made."""
    pipeline = HashPipeline()
    chains = [HeaderChain(), HeaderChain(genesis_timestamp=3)]
    proposals = propose_blocks(pipeline, chains, 8)
    assert [(c.height, len(c.headers)) for c in chains] == [(4, 1), (4, 1)]
    pipeline.flush()
    for chain, height, trie, timestamp in proposals:
        parent = chain.headers[height - 1]
        assert chain.headers[height] == BlockHeader.make(
            height, parent.header_hash, timestamp, trie.root())
    assert all(c.validate() is None for c in chains)


def test_pipeline_step_hashes_ready_nodes_and_headers_in_one_batch(monkeypatch):
    """Each step is one `keccak256_many` call over both chains' tries. A
    trie's changed path is hashed one node per step, lowest first, and
    its header is made in the step after its root."""
    base = build_populated(40)
    base.root()
    pipeline = HashPipeline()
    chains = [HeaderChain(), HeaderChain()]
    [(first, _, trie, _), (second, _, other, timestamp)] = propose_blocks(
        pipeline, chains, 2, base)
    batches = []
    real_many = trie_mod.keccak256_many
    monkeypatch.setattr(trie_mod, "keccak256", lambda data: pytest.fail(
        "a node or header was hashed alone"))
    monkeypatch.setattr(trie_mod, "keccak256_many",
                        lambda msgs: batches.append(list(msgs))
                        or real_many(msgs))
    while len(first.headers) == 1:
        pipeline.step()
    path = trie.prove(addr(100)).node_stack
    assert len(batches) == len(path) + 1
    for batch, node in zip(batches, reversed(path)):
        assert node in batch
    header = first.headers[1]
    assert trie_mod._header_rlp(header.height, header.parent_hash,
                                header.timestamp, header.state_root) in batches[-1]
    pipeline.flush()
    monkeypatch.undo()
    assert second.headers[1] == BlockHeader.make(
        1, second.headers[0].header_hash, timestamp, other.root())


def test_reading_a_pending_header_steps_until_it_is_made(monkeypatch):
    pipeline = HashPipeline()
    chain = HeaderChain()
    propose_blocks(pipeline, [chain], 3, build_populated(16))
    steps = []
    real_step = HashPipeline.step
    monkeypatch.setattr(HashPipeline, "step",
                        lambda self: steps.append(1) or real_step(self))
    assert chain.height == 3 and not steps
    header = chain.header_at(1)
    assert header.height == 1 and len(chain.headers) == 2 and steps
    assert chain.holds(2, chain.header_at(2).header_hash)
    assert chain.tip.height == 3 and len(chain.headers) == 4
    made = len(steps)
    assert chain.tip is chain.headers[3] and len(steps) == made
    with pytest.raises(ChainError, match="no header at height 4"):
        chain.header_at(4)


def test_pipeline_refuses_a_header_its_callback_does_not_append():
    pipeline = HashPipeline()
    chain = HeaderChain()
    pipeline.propose(chain, build_populated(2), 10, lambda header: None)
    with pytest.raises(ChainError, match="height 1 was made but not appended"):
        pipeline.flush()
