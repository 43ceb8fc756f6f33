"""privamm: a privacy-preserving constant-product market for peer-to-peer
energy trading, settled by additive-sharing MPC over a geo-sharded
ledger.

Layer map (each module stands alone and composes upward):

- ``keccak`` / ``rlp``     -- hashing and canonical serialization
- ``field_group``          -- Schnorr group setup, Pedersen commitments
- ``mpc``                  -- additive shares, Beaver triples, settlement
- ``amm``                  -- exact-rational constant-product pricing
- ``trie``                 -- account trie, proofs, header chains, freshness
- ``balance_proof``        -- balance >= threshold, proven by an account proof
- ``sharding``             -- zones, committees, anchors, splits and merges
- ``protocol``             -- init and trading phases end to end
- ``adversary``            -- sandwich / front-run / arbitrage harness
- ``scenario``/``simulator``/``cli`` -- deterministic scenario runs
"""

from .amm import (Order, PoolState, Quote, apply_trade, pool_init,
                  price_impact, quote_buy, quote_sell, spot_price)
from .field_group import (GroupParams, Opening, commitment_combine,
                          group_setup, pedersen_commit,
                          pedersen_verify_opening)
from .keccak import keccak256
from .mpc import (SCALE, AdditiveShare, BeaverTriple, MpcSession, P_MPC,
                  reconstruct, share_secret)
from .rlp import rlp_decode, rlp_encode
from .trie import (AccountLeaf, BlockHeader, HeaderChain, MptProof, Trie,
                   check_freshness, encode_account_leaf, prove_account,
                   verify_account_proof)

__version__ = "0.1.0"

__all__ = [
    "AccountLeaf", "AdditiveShare", "BeaverTriple", "BlockHeader",
    "GroupParams", "HeaderChain", "MpcSession", "MptProof", "Opening",
    "Order", "P_MPC", "PoolState", "Quote", "SCALE", "Trie",
    "apply_trade", "check_freshness", "commitment_combine",
    "encode_account_leaf", "group_setup", "keccak256", "pedersen_commit",
    "pedersen_verify_opening", "pool_init", "price_impact", "prove_account",
    "quote_buy", "quote_sell", "reconstruct", "rlp_decode", "rlp_encode",
    "share_secret", "spot_price", "verify_account_proof",
]
