"""End-to-end orchestration of the two market phases.

Init: each liquidity provider publishes a Pedersen commitment to its
deposit, proves its on-chain balance meets the public admission
threshold (its account's Merkle proof at a fresh header), and privately
delivers additive shares of the deposit and blinding factor to the
committee. The deposit itself stays hidden: the proof threshold is a
system constant, never the deposit, so no public record carries it. The
committee checks the shares against the commitment homomorphically,
then runs one secure-sum round: only the total X is ever revealed, and
the pool opens with X energy tokens against a configured money deposit.

Trading: a trader commits to the locked amount, proves balance at least
that amount, and share-delivers the signed reserve deltas (m, e). The
committee settles (M + m)(E + e) with a single Beaver round, checks the
result still lies on the constant-product curve within fixed-point
rounding, and only after finalization publishes the new public reserves.
Plaintext order sizes never appear in any public record before their
sanctioned reveal point.

Both phases lock an amount the same way, with `lock_amount`: prove the
balance, commit, and deal the opening to the committee as shares.

All token quantities are fixed-point integers at scale 10^6; the public
pool state is the scaled pair (E_s, M_s) tracking the exact rational
reference within one scaled unit.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterator, List, Optional, Tuple

from . import balance_proof, field_group, mpc, trie as trie_mod
from .amm import Order, PoolState
from .field_group import GroupParams, Opening
from .mpc import SCALE, MpcSession, P_MPC
from .rlp import canonical_json


class PhaseError(Exception):
    """Phase-level misconfiguration or precondition failure."""


class RevealError(Exception):
    """Publication attempted before settlement finalized."""


class RunLog:
    """Append-only event log; everything in it is public output."""

    def __init__(self):
        self.events: List[dict] = []

    def emit(self, tick: int, actor: str, event: str, **payload) -> dict:
        record = {"tick": tick, "actor": actor, "event": event, **payload}
        self.events.append(record)
        return record

    def lines(self) -> Iterator[str]:
        """Each event's canonical JSON line, in order, made as it is read."""
        for e in self.events:
            yield canonical_json(e) + "\n"

    def to_jsonl(self) -> str:
        return "".join(self.lines())


def scale_quantity(q: Fraction) -> int:
    """Exact fixed-point embedding; off-grid quantities are an error."""
    scaled = q * SCALE
    if scaled.denominator != 1:
        raise PhaseError(f"quantity {q} is not on the 1e-6 grid")
    return scaled.numerator


def round_fraction(fr: Fraction) -> int:
    """Nearest integer, ties to even (Python's Fraction rounding)."""
    return round(fr)


@dataclass(frozen=True, slots=True)
class ScaledPool:
    """Public pool reserves in fixed-point units.

    C2 is the invariant constant in scale^2 units, fixed at pool opening;
    publishing M' = round(C2 / E') each trade keeps the public state
    within half a unit of the exact curve with no drift accumulation.
    """

    E_s: int
    M_s: int
    C2: int

    def exact(self) -> PoolState:
        """The exact rational curve: E = E_s/SCALE, M = C2/(SCALE*E_s),
        C = C2/SCALE^2."""
        return PoolState(E=Fraction(self.E_s, SCALE),
                         M=Fraction(self.C2, SCALE * self.E_s),
                         C=Fraction(self.C2, SCALE * SCALE))

    def money_delta(self, e_delta: int) -> int:
        """Signed change of the money reserve when the energy reserve
        moves by ``e_delta``: the new reserve is C2 / (E_s + e_delta),
        rounded. A buy's money cost."""
        return round_fraction(Fraction(self.C2, self.E_s + e_delta)) - self.M_s

    def to_json(self) -> dict:
        return {"Es": str(self.E_s), "Ms": str(self.M_s), "C2": str(self.C2)}


@dataclass(frozen=True, slots=True)
class LpDeposit:
    lp_id: str
    address: bytes
    liquidity_e: Fraction


@dataclass(slots=True)
class InitRecord:
    lp_id: str
    included_in_X: bool = False
    reason: str = ""


@dataclass(slots=True)
class InitResult:
    X_scaled: int
    pool: Optional[ScaledPool]
    records: List[InitRecord]


def check_share_commitment_consistency(params: GroupParams, commitment: int,
                                       x_shares, r_shares) -> bool:
    """Do the delivered shares open the on-chain commitment?

    Pedersen commitments are additively homomorphic, so the product of
    per-share commitments equals one commitment to the summed shares:
    committing to (sum x_i, sum r_i) mod q and comparing it with the
    on-chain commitment gives the same verdict with a single commit. A
    trader or LP whose shares disagree with its commitment is caught here
    without revealing any share.
    """
    x = sum(share.value for share in x_shares) % params.q
    r = sum(share.value for share in r_shares) % params.q
    return field_group.pedersen_commit(params, x, r) == commitment


@dataclass(frozen=True, slots=True)
class Lock:
    """A locked amount's proof, commitment, opening and opening shares."""

    proof: balance_proof.Proof
    commitment: int
    opening: Opening
    value_shares: list
    blind_shares: list


def lock_amount(amount: int, what: str, threshold: int, address: bytes,
                params: GroupParams, n: int, trie, chain, proof_header, vk,
                confirmations: int, window: int, now: int,
                rng: random.Random, tag: bytes) -> Lock:
    """Prove ``address`` holds ``threshold``, commit to ``amount`` and
    deal the opening to n parties as shares.

    The proof draws nothing from ``rng``; the blinding factor, the amount's
    shares and the blinding factor's shares are drawn in that order.
    Raises `PhaseError` for an amount (named ``what``) outside Z_q or a
    stale header, `balance_proof.ProvingError` for a short balance.
    """
    if not 0 < amount < params.q:
        raise PhaseError(f"{what} outside the exponent field")
    if not trie_mod.check_freshness(chain, proof_header, confirmations,
                                    window, now):
        raise PhaseError("account proof not fresh")
    mpt_proof = trie_mod.prove_account(trie, address,
                                       block_height=proof_header.height,
                                       header_hash=proof_header.header_hash)
    proof = balance_proof.prove(vk, mpt_proof, threshold)
    opening = Opening(x=amount, r=rng.randrange(params.q))
    commitment = field_group.pedersen_commit(params, opening.x, opening.r)
    value_shares = mpc.share_secret(amount, n, rng, params.q, tag)
    blind_shares = mpc.share_secret(opening.r, n, rng, params.q, tag)
    return Lock(proof, commitment, opening, value_shares, blind_shares)


def run_init_phase(lps, session: MpcSession, params: GroupParams, trie,
                   chain, proof_header, vk, confirmations: int,
                   window: int, now: int, m_deposit: Fraction,
                   rng: random.Random, log: RunLog, tick: int = 0,
                   threshold_e: Fraction = Fraction(1, SCALE)) -> InitResult:
    """Run the full init phase; returns total liquidity and the open pool.

    An LP that fails its balance proof, freshness check, or share
    consistency check is excluded; the others proceed. Only the
    aggregate X is revealed by the closing secure-sum round. The balance
    proof threshold is the public admission bar ``threshold_e`` (one
    grid unit by default), deliberately independent of the deposit so
    the proof publics carry no information about x_i.
    """
    if session.modulus != params.q:
        raise PhaseError("init-phase shares must live in the exponent field")
    threshold_scaled = scale_quantity(threshold_e)
    if not 0 < threshold_scaled < params.q:
        raise PhaseError("admission threshold outside the exponent field")
    records: List[InitRecord] = []
    share_rows = []
    for lp in lps:
        record = InitRecord(lp_id=lp.lp_id)
        records.append(record)
        try:
            lock = lock_amount(
                scale_quantity(lp.liquidity_e), "deposit", threshold_scaled,
                lp.address, params, session.n, trie, chain, proof_header, vk,
                confirmations, window, now, rng, f"init:{lp.lp_id}".encode(),
            )
        except PhaseError as exc:
            record.reason = str(exc)
        except balance_proof.ProvingError as exc:
            record.reason = f"balance proof failed: {exc}"
        else:
            log.emit(tick, lp.lp_id, "init_balance_proof",
                     proof=lock.proof.to_json())
            log.emit(tick, lp.lp_id, "init_commitment",
                     commitment=str(lock.commitment))
            if check_share_commitment_consistency(params, lock.commitment,
                                                  lock.value_shares,
                                                  lock.blind_shares):
                record.included_in_X = True
                share_rows.append(lock.value_shares)
            else:
                record.reason = "shares inconsistent with commitment"
        if record.reason:
            log.emit(tick, lp.lp_id, "init_exclusion", reason=record.reason)

    X = session.secure_sum(share_rows)
    log.emit(tick, "committee", "init_liquidity_total", X=str(X))

    pool = None
    if X > 0:
        m_scaled = scale_quantity(m_deposit)
        if m_scaled <= 0:
            raise PhaseError("money-side deposit must be positive")
        pool = ScaledPool(E_s=X, M_s=m_scaled, C2=X * m_scaled)
        log.emit(tick, "committee", "pool_opened", **pool.to_json())
    return InitResult(X_scaled=X, pool=pool, records=records)


@dataclass(slots=True)
class TradeSession:
    trader_id: str
    side: str
    lock: Lock
    triple_id: str
    pool_before: ScaledPool
    pool_after: Optional[ScaledPool] = None
    settled_C: Optional[int] = None
    finalized: bool = False
    revealed: bool = False
    voided: bool = False
    void_reason: str = ""


def run_trading_phase(order: Order, trader_address: bytes,
                      pool_pub: ScaledPool, session: MpcSession,
                      params: GroupParams, trie, chain, proof_header,
                      vk, confirmations: int, window: int, now: int,
                      rng: random.Random, log: RunLog, tick: int,
                      poison: bool = False) -> TradeSession:
    """Settle one committed order through the MPC path.

    The locked amount y equals the scaled order quantity; the trader
    commits to y, proves balance >= y, and delivers shares of y and the
    blinding factor (exponent field) plus shares of the signed deltas
    (m, e) over the settlement field. Exactly one online broadcast round
    is consumed. ``poison=True`` models a byzantine trader delivering
    shares that do not match its commitment; the order is voided. A
    balance below y raises `balance_proof.ProvingError` before anything
    is logged or drawn.
    """
    if session.modulus != P_MPC:
        raise PhaseError("settlement shares must live in the MPC field")
    e_scaled = scale_quantity(order.quantity_e)
    lock = lock_amount(
        e_scaled, "locked amount", e_scaled, trader_address, params,
        session.n, trie, chain, proof_header, vk, confirmations, window, now,
        rng, f"lock:{order.trader_id}:{tick}".encode(),
    )
    # Pre-reveal, the public record carries the commitment alone; the
    # proof (whose threshold equals the locked amount) follows the pool
    # update, which already discloses the net size.
    log.emit(tick, order.trader_id, "order_committed",
             commitment=str(lock.commitment))

    y_shares = lock.value_shares
    if poison:
        bad = y_shares[0]
        y_shares = [
            mpc.AdditiveShare(bad.party_id, (bad.value + 1) % params.q,
                              bad.modulus, bad.tag)
        ] + y_shares[1:]

    triple = session.dealer_gen_triple()
    trade = TradeSession(
        trader_id=order.trader_id,
        side=order.side,
        lock=lock,
        triple_id=triple.triple_id,
        pool_before=pool_pub,
    )

    if not check_share_commitment_consistency(params, lock.commitment,
                                              y_shares, lock.blind_shares):
        trade.voided = True
        trade.void_reason = "shares inconsistent with commitment"
        log.emit(tick, "committee", "order_voided", trader=order.trader_id,
                 reason=trade.void_reason, kind="poisoning attempt")
        return trade

    # Signed reserve deltas: a buy removes energy and adds money.
    e_delta = -e_scaled if order.side == "buy" else e_scaled
    if pool_pub.E_s + e_delta <= 0:
        raise PhaseError("trade would drain the pool")
    m_delta = pool_pub.money_delta(e_delta)

    delta_tag = f"delta:{order.trader_id}:{tick}".encode()
    m_shares = mpc.share_secret(mpc.encode_signed(m_delta), session.n, rng,
                                P_MPC, delta_tag)
    e_shares = mpc.share_secret(mpc.encode_signed(e_delta), session.n, rng,
                                P_MPC, delta_tag)

    settled = session.settle_product(m_shares, e_shares, pool_pub.M_s,
                                     pool_pub.E_s, triple)
    C_settled = mpc.reconstruct(settled, expected_n=session.n)

    e_opened = mpc.decode_signed(mpc.reconstruct(e_shares,
                                                 expected_n=session.n))
    E_after = pool_pub.E_s + e_opened
    if E_after <= 0:
        trade.voided = True
        trade.void_reason = "liquidity error: settlement drains the pool"
        log.emit(tick, "committee", "order_voided", trader=order.trader_id,
                 reason=trade.void_reason, kind="liquidity")
        return trade
    # Constant-product check at fixed-point precision: the settled
    # constant may differ from C2 by at most half the new energy reserve
    # (the rounding bound on the money side).
    if 2 * abs(C_settled - pool_pub.C2) > E_after:
        trade.voided = True
        trade.void_reason = "settlement off the constant-product curve"
        log.emit(tick, "committee", "order_voided", trader=order.trader_id,
                 reason=trade.void_reason, kind="curve")
        return trade

    M_after = C_settled // E_after
    trade.settled_C = C_settled
    trade.pool_after = ScaledPool(E_s=E_after, M_s=M_after, C2=pool_pub.C2)
    trade.finalized = True
    log.emit(tick, "committee", "trade_settled", trader=order.trader_id,
             settledC=str(C_settled))
    return trade


def reveal_and_settle(trade: TradeSession, log: RunLog, tick: int,
                      reveal_commitment: bool = True
                      ) -> Tuple[int, int]:
    """Publish the post-trade pool state (and optionally open the
    trade commitment) once settlement is final."""
    if not trade.finalized:
        raise RevealError("cannot publish pool state before finalization")
    pool = trade.pool_after
    log.emit(tick, "committee", "pool_published", **pool.to_json())
    # The pool delta already exposes the net trade size, so the proof
    # (threshold = locked amount) becomes publishable only now.
    log.emit(tick, trade.trader_id, "trade_proof_published",
             proof=trade.lock.proof.to_json())
    if reveal_commitment:
        opening = trade.lock.opening
        log.emit(tick, trade.trader_id, "commitment_opened",
                 y=str(opening.x), r=str(opening.r))
    trade.revealed = True
    return pool.E_s, pool.M_s
