"""Balance-at-least: prove that an account's balance covers a public threshold.

A proof is the account's Merkle proof against a named block header, plus
the public threshold. The verifier walks the node stack to the state root
of that header, so the balance it reads is the one the chain committed to,
and then checks balance >= threshold. A leaf the chain did not commit to
fails the walk, so no proof can be built from public data alone.

The proof discloses the leaf. The init threshold is a system constant, and
a trade's proof is published only after the pool update reveals its size.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from functools import lru_cache
from typing import List, Sequence, Tuple, Union

from .rlp import canonical_int, canonical_json
from .trie import (AccountLeaf, MalformedLeafError, MptProof,
                   VerificationError, decode_account_leaf, hex_bytes,
                   verify_account_proof, verify_account_proofs)


class ProvingError(Exception):
    """The account's balance does not cover the threshold."""


@dataclass(frozen=True, slots=True)
class VerificationKey:
    """Tag of the statement a proof claims."""

    digest: bytes

    def to_json(self) -> dict:
        return {"vk": "0x" + self.digest.hex()}

    @classmethod
    def from_json(cls, obj: dict) -> "VerificationKey":
        return cls(digest=hex_bytes(obj["vk"], "vk", 32))


@dataclass(frozen=True, slots=True)
class Proof:
    vk: VerificationKey
    threshold: int
    account: MptProof

    def to_json(self) -> dict:
        return {**self.vk.to_json(), "threshold": str(self.threshold),
                "account": self.account.to_json()}

    @classmethod
    def from_json(cls, obj: dict) -> "Proof":
        """Read ``to_json``'s output, exactly as written: the threshold as
        ``str(n)``, every byte string as ``0x`` and lowercase hex."""
        return cls(vk=VerificationKey.from_json(obj),
                   threshold=canonical_int(obj["threshold"]),
                   account=MptProof.from_json(obj["account"]))


def setup() -> VerificationKey:
    """The statement's key: a digest of its name and version."""
    desc = {"name": "balance-at-least", "version": 2}
    return VerificationKey(
        digest=hashlib.sha256(canonical_json(desc).encode()).digest())


def prove(vk: VerificationKey, account: MptProof, threshold: int) -> Proof:
    """Refuse a balance below ``threshold``; otherwise wrap the account proof.

    Reads the leaf the node stack ends in and hashes nothing: the prover
    built ``account`` from its own trie, and every verifier walks it.
    """
    if not 0 <= threshold < 1 << 256:
        raise ValueError("threshold must be a 256-bit unsigned integer")
    try:
        balance = decode_account_leaf(account.leaf_rlp).balance
    except MalformedLeafError as exc:
        raise ProvingError(f"malformed leaf: {exc}") from exc
    if balance < threshold:
        raise ProvingError("balance below threshold")
    return Proof(vk=vk, threshold=threshold, account=account)


def _verdict(vk: VerificationKey, proof: Proof, walk):
    """The statement: ``proof`` carries ``vk``, ``walk()`` yields the proven
    account (or a VerificationError), and its balance covers the threshold."""
    if proof.vk != vk:
        return VerificationError("proof is for another statement")
    leaf = walk()
    if isinstance(leaf, AccountLeaf) and leaf.balance < proof.threshold:
        return VerificationError("balance below threshold")
    return leaf


def verify_many(
        vk: VerificationKey, items: Sequence[Tuple[Proof, bytes]],
) -> List[Union[AccountLeaf, VerificationError]]:
    """Check each ``(proof, state_root)`` pair; returns, in order, what
    ``verify`` would: the proven account, or the VerificationError it would
    raise. The account proofs are walked in one batch."""
    walks = iter(verify_account_proofs(
        [(state_root, proof.account) for proof, state_root in items
         if proof.vk == vk]))
    return [_verdict(vk, proof, walks.__next__) for proof, _ in items]


@lru_cache(maxsize=256)
def _walk(state_root: bytes, account: MptProof) -> AccountLeaf:
    """One walk, cached by the root and the proof's full bytes (never by
    address alone, which a forged node stack shares): a proof that many
    mempool entries reuse is walked once, whatever their thresholds."""
    return verify_account_proof(state_root, account.address, account)


def verify(vk: VerificationKey, proof: Proof, state_root: bytes) -> AccountLeaf:
    """Return the proven account, or raise VerificationError naming the cause."""
    result = _verdict(vk, proof, lambda: _walk(state_root, proof.account))
    if isinstance(result, VerificationError):
        raise result
    return result
