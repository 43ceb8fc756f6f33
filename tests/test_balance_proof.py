"""Balance-at-least proofs: an account proof plus a public threshold."""

import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from privamm.balance_proof import (Proof, ProvingError, VerificationKey,
                                   prove, setup, verify)
from privamm.trie import (LEAF_LEN, AccountLeaf, MptProof, Trie,
                          VerificationError, encode_account_leaf,
                          prove_account)

VK = setup()
ADDRESS = bytes(range(20))


def addr(i: int) -> bytes:
    return i.to_bytes(20, "big")


def one_account(balance: int):
    """A one-account trie's root and the account's proof."""
    trie = Trie().update(ADDRESS, AccountLeaf(nonce=0, balance=balance))
    return trie.root(), prove_account(trie, ADDRESS)


def make_proof(balance: int, threshold: int):
    root, account = one_account(balance)
    return root, prove(VK, account, threshold)


def populated():
    """Root and proof of addr(3) in an eight-account trie: branch nodes and
    a leaf on the stack."""
    trie = Trie()
    for i in range(1, 9):
        trie = trie.update(addr(i), AccountLeaf(nonce=0, balance=i * 1000))
    return trie.root(), prove(VK, prove_account(trie, addr(3)), 2500)


def with_stack(proof: Proof, stack) -> Proof:
    account = proof.account
    return Proof(VK, proof.threshold,
                 MptProof(account.address, tuple(stack), account.block_height,
                          account.header_hash))


# -- the balance read from the leaf ----------------------------------------------

def test_decode_balance_offsets():
    """prove and verify compare the 32-byte balance at leaf offset 4."""
    balance = (7 << 128) | 9
    root, proof = make_proof(balance, balance)
    assert int.from_bytes(proof.account.leaf_rlp[4:36], "big") == balance
    assert verify(VK, proof, root).balance == balance
    with pytest.raises(ProvingError):
        prove(VK, proof.account, balance + 1)


def test_decode_balance_rejects_wrong_marker():
    root, proof = make_proof(5, 1)
    node = bytearray(proof.account.node_stack[-1])
    node[len(node) - LEAF_LEN + 3] = 0xA1
    bad = with_stack(proof, [bytes(node)])
    with pytest.raises(ProvingError, match="malformed leaf"):
        prove(VK, bad.account, 1)
    with pytest.raises(VerificationError, match="root hash mismatch"):
        verify(VK, bad, root)


@given(st.integers(0, 2**256 - 1))
@settings(max_examples=200)
def test_limb_comparison_matches_wide_integers(balance):
    """The compare is on whole 256-bit integers, across every limb split."""
    root, proof = make_proof(balance, balance)
    assert verify(VK, proof, root).balance == balance
    if balance < 2**256 - 1:
        with pytest.raises(ProvingError):
            prove(VK, proof.account, balance + 1)
        with pytest.raises(VerificationError, match="balance below threshold"):
            verify(VK, Proof(VK, balance + 1, proof.account), root)


# -- completeness and the threshold boundary ----------------------------------

def test_prove_then_verify():
    root, proof = make_proof(balance=1000, threshold=500)
    assert verify(VK, proof, root) == AccountLeaf(nonce=0, balance=1000)


def test_threshold_is_inclusive():
    root, proof = make_proof(balance=500, threshold=500)
    assert verify(VK, proof, root).balance == 500


def test_below_threshold_refused():
    _, account = one_account(499)
    with pytest.raises(ProvingError, match="balance below threshold"):
        prove(VK, account, 500)


def test_hash_mismatch_refused():
    """A leaf the root does not commit to fails the walk."""
    root, proof = make_proof(100, 1)
    richer = bytearray(proof.account.node_stack[-1])
    richer[-LEAF_LEN:] = encode_account_leaf(AccountLeaf(nonce=0,
                                                         balance=10**30))
    forged = with_stack(proof, [bytes(richer)])
    with pytest.raises(VerificationError, match="root hash mismatch"):
        verify(VK, Proof(VK, 10**29, forged.account), root)


def test_boundary_straddles_limb_split():
    k = 1 << 128
    root, proof = make_proof(k, k)
    assert verify(VK, proof, root).balance == k
    with pytest.raises(ProvingError):
        make_proof(balance=k - 1, threshold=k)


@given(st.integers(0, 2**200), st.integers(0, 2**200))
@settings(max_examples=300)
def test_accepts_iff_balance_at_least_threshold(balance, threshold):
    root, account = one_account(balance)
    if balance >= threshold:
        assert verify(VK, prove(VK, account, threshold), root).balance == balance
    else:
        with pytest.raises(ProvingError):
            prove(VK, account, threshold)
        # The same statement assembled without prove is still refused.
        with pytest.raises(VerificationError, match="balance below threshold"):
            verify(VK, Proof(VK, threshold, account), root)


# -- what the proof binds --------------------------------------------------------

def test_prove_is_deterministic():
    root, account = one_account(900)
    assert prove(VK, account, 100) == prove(VK, account, 100)
    assert verify(VK, prove(VK, account, 100), root).balance == 900


def test_proof_binds_threshold():
    """Any threshold up to the balance is a true statement; above it, none."""
    root, proof = make_proof(balance=1000, threshold=100)
    for k in (0, 1, 999, 1000):
        assert verify(VK, Proof(VK, k, proof.account), root).balance == 1000
    for k in (1001, 2**255):
        with pytest.raises(VerificationError, match="balance below threshold"):
            verify(VK, Proof(VK, k, proof.account), root)


def test_proof_binds_leaf():
    root_a, a = make_proof(balance=1000, threshold=100)
    root_b, b = make_proof(balance=1001, threshold=100)
    assert a.account.node_stack != b.account.node_stack
    with pytest.raises(VerificationError, match="root hash mismatch"):
        verify(VK, b, root_a)


# -- tamper rejection -----------------------------------------------------------

def test_any_single_byte_node_flip_rejected():
    root, proof = populated()
    assert verify(VK, proof, root).balance == 3000
    for depth, node in enumerate(proof.account.node_stack):
        for pos in range(len(node)):
            bad = bytearray(node)
            bad[pos] ^= 0x01
            stack = list(proof.account.node_stack)
            stack[depth] = bytes(bad)
            with pytest.raises(VerificationError):
                verify(VK, with_stack(proof, stack), root)


def test_swapped_publics_rejected():
    """A proof checked against another state root, or another account's
    proof under this threshold, is rejected."""
    root, proof = populated()
    other_root, _ = one_account(3000)
    with pytest.raises(VerificationError, match="root hash mismatch"):
        verify(VK, proof, other_root)
    trie = Trie().update(addr(9), AccountLeaf(nonce=0, balance=10**9))
    with pytest.raises(VerificationError):
        verify(VK, prove(VK, prove_account(trie, addr(9)), 2500), root)


def test_wrong_verification_key_rejected():
    root, proof = make_proof(balance=1000, threshold=100)
    assert setup() == VK
    alien = VerificationKey(digest=b"\x07" * 32)
    with pytest.raises(VerificationError, match="another statement"):
        verify(alien, proof, root)
    with pytest.raises(VerificationError, match="another statement"):
        verify(VK, Proof(alien, proof.threshold, proof.account), root)


def test_json_round_trips():
    root, proof = make_proof(balance=12345, threshold=12345)
    restored = Proof.from_json(json.loads(json.dumps(proof.to_json())))
    assert restored == proof
    assert verify(VK, restored, root).balance == 12345
    assert VerificationKey.from_json(VK.to_json()) == VK


def test_publics_reject_out_of_range_limbs():
    """The threshold must be a 256-bit unsigned integer."""
    _, account = one_account(2**256 - 1)
    for bad in (-1, 1 << 256):
        with pytest.raises(ValueError):
            prove(VK, account, bad)
    assert prove(VK, account, 2**256 - 1).threshold == 2**256 - 1
