"""Confidential pool bootstrap and trade settlement over the MPC path."""

import random
from fractions import Fraction

import pytest

from privamm import balance_proof, mpc
from privamm.amm import Order, apply_trade, pool_init
from privamm.field_group import (Opening, commitment_combine_many,
                                 group_setup, pedersen_commit,
                                 pedersen_verify_opening)
from privamm.mpc import P_MPC, SCALE, MpcSession
from privamm.protocol import (LpDeposit, PhaseError, RevealError, RunLog,
                              ScaledPool, check_share_commitment_consistency,
                              reveal_and_settle, round_fraction,
                              run_init_phase, run_trading_phase,
                              scale_quantity)
from privamm.trie import AccountLeaf, HeaderChain, Trie

PARAMS = group_setup(256, seed="protocol-tests")
VK = balance_proof.setup()
CONFIRMATIONS = 2
WINDOW = 10**9


def order_for(trader, side, qty):
    limit = Fraction(10**9) if side == "buy" else Fraction(0)
    return Order(side=side, quantity_e=qty, limit_rate=limit,
                 trader_id=trader)


def addr(name: str) -> bytes:
    return name.encode().ljust(20, b"\x00")


def build_ledger(balances, confirmations=CONFIRMATIONS):
    trie = Trie()
    for name, bal in balances.items():
        trie = trie.update(addr(name), AccountLeaf(nonce=0, balance=bal))
    chain = HeaderChain(genesis_state_root=trie.root(), genesis_timestamp=0)
    for i in range(1, confirmations + 1):
        chain.append(chain.next_header(trie.root(), i))
    return trie, chain, chain.header_at(0)


def run_init(lps, balances, n=4, m_deposit=Fraction(600), seed="init"):
    trie, chain, header = build_ledger(balances)
    session = MpcSession(n, PARAMS.q)
    log = RunLog()
    result = run_init_phase(
        lps, session, PARAMS, trie, chain, header, VK,
        confirmations=CONFIRMATIONS, window=WINDOW, now=chain.tip.timestamp,
        m_deposit=m_deposit, rng=random.Random(seed), log=log,
    )
    return result, log, session


STANDARD_LPS = [
    LpDeposit("lp1", addr("lp1"), Fraction(100)),
    LpDeposit("lp2", addr("lp2"), Fraction(200)),
    LpDeposit("lp3", addr("lp3"), Fraction(300)),
]
STANDARD_BALANCES = {"lp1": 100 * SCALE, "lp2": 200 * SCALE,
                     "lp3": 300 * SCALE}


# -- fixed-point plumbing -------------------------------------------------------

def test_scale_quantity_exact_grid():
    assert scale_quantity(Fraction(100)) == 100_000_000
    assert scale_quantity(Fraction("0.000001")) == 1
    with pytest.raises(PhaseError, match="1e-6 grid"):
        scale_quantity(Fraction(1, 3))


def test_round_fraction_ties_to_even():
    assert round_fraction(Fraction(5, 2)) == 2
    assert round_fraction(Fraction(7, 2)) == 4
    assert round_fraction(Fraction(1, 3)) == 0


def test_scaled_pool_json_keys():
    pool = ScaledPool(E_s=1, M_s=2, C2=2)
    assert pool.to_json() == {"Es": "1", "Ms": "2", "C2": "2"}


def test_scaled_pool_exact_curve():
    opened = ScaledPool(E_s=300 * SCALE, M_s=600 * SCALE,
                        C2=300 * SCALE * 600 * SCALE)
    assert opened.exact() == pool_init(300, 600)
    # After a trade M_s is rounded, but the exact curve runs through C2.
    traded = ScaledPool(E_s=270 * SCALE, M_s=666_666_667, C2=opened.C2)
    assert traded.exact().M == Fraction(2000, 3)
    order = Order(side="buy", quantity_e=Fraction(30), limit_rate=Fraction(100))
    assert apply_trade(opened.exact(), order)[0] == traded.exact()


# -- share checks ---------------------------------------------------------------

@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_share_check_matches_per_share_commitments(n):
    rng = random.Random(f"share-check/{n}")
    q = PARAMS.q
    for trial in range(20):
        x, r = rng.randrange(q), rng.randrange(q)
        commitment = pedersen_commit(PARAMS, x, r)
        x_shares = mpc.share_secret(x, n, rng, q)
        r_shares = mpc.share_secret(r, n, rng, q)
        if trial % 2:
            k = rng.randrange(n)
            bad = x_shares[k]
            x_shares[k] = mpc.AdditiveShare(bad.party_id,
                                            (bad.value + 1 + trial) % q, q)
        per_share = [pedersen_commit(PARAMS, xs.value, rs.value)
                     for xs, rs in zip(x_shares, r_shares)]
        reference = commitment_combine_many(PARAMS, per_share) == commitment
        assert reference == (trial % 2 == 0)
        assert check_share_commitment_consistency(
            PARAMS, commitment, x_shares, r_shares) is reference


# -- init phase ---------------------------------------------------------------

def test_init_opens_pool_with_aggregate_liquidity():
    result, log, _ = run_init(STANDARD_LPS, STANDARD_BALANCES)
    assert result.X_scaled == 600 * SCALE
    assert result.pool == ScaledPool(E_s=600 * SCALE, M_s=600 * SCALE,
                                     C2=600 * SCALE * 600 * SCALE)
    assert all(r.included_in_X for r in result.records)
    events = [e["event"] for e in log.events]
    assert events.count("init_commitment") == 3
    assert events.count("init_balance_proof") == 3
    assert "pool_opened" in events
    total = next(e for e in log.events
                 if e["event"] == "init_liquidity_total")
    assert total["X"] == str(600 * SCALE)


def test_init_log_never_contains_individual_deposits():
    lps = [
        LpDeposit("lp1", addr("lp1"), Fraction("123.456789")),
        LpDeposit("lp2", addr("lp2"), Fraction("876.543211")),
    ]
    balances = {"lp1": 200 * SCALE, "lp2": 900 * SCALE}
    result, log, session = run_init(lps, balances)
    assert result.X_scaled == 1000 * SCALE
    blob = log.to_jsonl()
    assert "123456789" not in blob
    assert "876543211" not in blob
    assert str(1000 * SCALE) in blob
    # The MPC transcript carries only masked broadcasts, never shares.
    import json as _json
    transcript = _json.dumps(session.events)
    assert "123456789" not in transcript
    assert "876543211" not in transcript


def test_init_excludes_lp_below_admission_threshold():
    balances = dict(STANDARD_BALANCES, lp2=0)
    result, log, _ = run_init(STANDARD_LPS, balances)
    assert result.X_scaled == 400 * SCALE
    (rec,) = [r for r in result.records if r.lp_id == "lp2"]
    assert not rec.included_in_X
    assert "balance proof failed" in rec.reason
    exclusions = [e for e in log.events if e["event"] == "init_exclusion"]
    assert [e["actor"] for e in exclusions] == ["lp2"]


def test_init_threshold_is_public_and_configurable():
    # A raised admission bar excludes thin accounts without naming any
    # deposit: the proof publics carry the bar, never x_i.
    trie, chain, header = build_ledger(dict(STANDARD_BALANCES,
                                            lp2=150 * SCALE))
    session = MpcSession(4, PARAMS.q)
    log = RunLog()
    result = run_init_phase(
        STANDARD_LPS, session, PARAMS, trie, chain, header, VK,
        confirmations=CONFIRMATIONS, window=WINDOW, now=chain.tip.timestamp,
        m_deposit=Fraction(600), rng=random.Random("x"), log=log,
        threshold_e=Fraction(120),
    )
    assert result.X_scaled == 500 * SCALE  # lp1's 100-unit balance is shy
    proofs = [e for e in log.events if e["event"] == "init_balance_proof"]
    assert len(proofs) == 2
    for ev in proofs:
        assert ev["proof"]["threshold"] == str(120 * SCALE)
        proof = balance_proof.Proof.from_json(ev["proof"])
        assert balance_proof.verify(VK, proof, header.state_root).balance \
            >= 120 * SCALE


def test_init_excludes_off_grid_deposit():
    lps = STANDARD_LPS + [LpDeposit("lp4", addr("lp4"), Fraction(1, 3))]
    balances = dict(STANDARD_BALANCES, lp4=10 * SCALE)
    result, _, _ = run_init(lps, balances)
    (rec,) = [r for r in result.records if r.lp_id == "lp4"]
    assert "grid" in rec.reason
    assert result.X_scaled == 600 * SCALE


def test_init_requires_fresh_header():
    trie, chain, header = build_ledger(STANDARD_BALANCES, confirmations=1)
    session = MpcSession(4, PARAMS.q)
    log = RunLog()
    result = run_init_phase(
        STANDARD_LPS, session, PARAMS, trie, chain, header, VK,
        confirmations=5, window=WINDOW, now=chain.tip.timestamp,
        m_deposit=Fraction(600), rng=random.Random("x"), log=log,
    )
    assert result.X_scaled == 0
    assert result.pool is None
    assert all(r.reason == "account proof not fresh" for r in result.records)


def test_init_rejects_settlement_field_session():
    trie, chain, header = build_ledger(STANDARD_BALANCES)
    with pytest.raises(PhaseError, match="exponent field"):
        run_init_phase(
            STANDARD_LPS, MpcSession(4, P_MPC), PARAMS, trie, chain, header,
            VK, confirmations=CONFIRMATIONS, window=WINDOW,
            now=chain.tip.timestamp, m_deposit=Fraction(600),
            rng=random.Random("x"), log=RunLog(),
        )


def test_init_commitments_open_to_nothing_public():
    # Commitments are group elements; without the opening they reveal no
    # deposit. Verify they are all in range and distinct per LP.
    _, log, _ = run_init(STANDARD_LPS, STANDARD_BALANCES)
    commits = [int(e["commitment"]) for e in log.events
               if e["event"] == "init_commitment"]
    assert len(commits) == len(set(commits)) == 3
    assert all(1 <= c < PARAMS.p for c in commits)


# -- trading phase -------------------------------------------------------------

def trade_once(order, balances=None, pool=None, poison=False, seed="trade",
               n=4, tick=7):
    balances = balances or {"t1": 10**12}
    pool = pool or ScaledPool(E_s=100 * SCALE, M_s=100 * SCALE,
                              C2=100 * SCALE * 100 * SCALE)
    trie, chain, header = build_ledger(balances)
    session = MpcSession(n, P_MPC)
    log = RunLog()
    trade = run_trading_phase(
        order, addr(order.trader_id), pool, session, PARAMS, trie, chain,
        header, VK, confirmations=CONFIRMATIONS, window=WINDOW,
        now=chain.tip.timestamp, rng=random.Random(seed), log=log, tick=tick,
        poison=poison,
    )
    return trade, log, session


def test_buy_matches_plaintext_curve():
    order = order_for("t1", "buy", Fraction(10))
    trade, log, session = trade_once(order)
    assert trade.finalized and not trade.voided
    assert trade.pool_after.E_s == 90 * SCALE
    assert trade.pool_after.M_s == 111_111_111  # 1000/9 on the 1e-6 grid
    # Plaintext oracle: the exact post-trade reserves.
    ref, _ = apply_trade(pool_init(Fraction(100), Fraction(100)), order)
    assert ref.E * SCALE == trade.pool_after.E_s
    assert abs(ref.M * SCALE - trade.pool_after.M_s) <= 1
    events = [e["event"] for e in log.events]
    assert events == ["order_committed", "trade_settled"]


def test_sell_matches_plaintext_curve():
    order = order_for("t1", "sell", Fraction(10))
    trade, _, _ = trade_once(order)
    assert trade.finalized
    assert trade.pool_after.E_s == 110 * SCALE
    ref, _ = apply_trade(pool_init(Fraction(100), Fraction(100)), order)
    assert ref.E * SCALE == trade.pool_after.E_s
    assert abs(ref.M * SCALE - trade.pool_after.M_s) <= 1


def test_exactly_one_online_round_per_trade():
    order = order_for("t1", "buy", Fraction(5))
    trade, _, session = trade_once(order, n=6)
    assert trade.finalized
    assert session.log.online_rounds == 1
    assert session.log.messages == 6
    assert session.log.offline_rounds == 1


def test_settled_constant_stays_on_curve():
    pool = ScaledPool(E_s=100 * SCALE, M_s=100 * SCALE,
                      C2=100 * SCALE * 100 * SCALE)
    for qty in (Fraction(1), Fraction(17), Fraction("33.5"),
                Fraction("0.000001")):
        for side in ("buy", "sell"):
            order = order_for("t1", side, qty)
            trade, _, _ = trade_once(order, pool=pool)
            assert trade.finalized
            assert 2 * abs(trade.settled_C - pool.C2) <= trade.pool_after.E_s


def test_poisoned_shares_void_the_order():
    order = order_for("mallory", "buy", Fraction(10))
    balances = {"mallory": 10**12}
    trade, log, session = trade_once(order, balances=balances, poison=True)
    assert trade.voided and not trade.finalized
    assert trade.void_reason == "shares inconsistent with commitment"
    voided = [e for e in log.events if e["event"] == "order_voided"]
    assert voided[0]["kind"] == "poisoning attempt"
    # The poisoned order never reaches settlement: no online round burned.
    assert session.log.online_rounds == 0


def test_drain_rejected_before_settlement():
    order = order_for("t1", "buy", Fraction(100))
    with pytest.raises(PhaseError, match="drain"):
        trade_once(order)


def test_insufficient_balance_blocks_trading():
    order = order_for("t1", "buy", Fraction(10))
    with pytest.raises(balance_proof.ProvingError):
        trade_once(order, balances={"t1": 9 * SCALE})


def test_trading_rejects_exponent_field_session():
    order = order_for("t1", "buy", Fraction(10))
    trie, chain, header = build_ledger({"t1": 10**12})
    with pytest.raises(PhaseError, match="MPC field"):
        run_trading_phase(
            order, addr("t1"),
            ScaledPool(E_s=SCALE, M_s=SCALE, C2=SCALE * SCALE),
            MpcSession(4, PARAMS.q), PARAMS, trie, chain, header, VK,
            confirmations=CONFIRMATIONS, window=WINDOW,
            now=chain.tip.timestamp, rng=random.Random("x"), log=RunLog(),
            tick=0,
        )


def test_commitment_opens_to_locked_amount():
    order = order_for("t1", "buy", Fraction(10))
    trade, _, _ = trade_once(order)
    lock = trade.lock
    assert lock.opening == Opening(x=10 * SCALE, r=lock.opening.r)
    assert pedersen_verify_opening(PARAMS, lock.commitment, lock.opening)


# -- reveal --------------------------------------------------------------------

def test_reveal_requires_finalized_trade():
    order = order_for("mallory", "buy", Fraction(10))
    trade, log, _ = trade_once(order, balances={"mallory": 10**12},
                               poison=True)
    with pytest.raises(RevealError, match="before finalization"):
        reveal_and_settle(trade, log, tick=8)


def test_reveal_publishes_pool_and_opening():
    order = order_for("t1", "buy", Fraction(10))
    trade, log, _ = trade_once(order)
    e_s, m_s = reveal_and_settle(trade, log, tick=8)
    assert (e_s, m_s) == (trade.pool_after.E_s, trade.pool_after.M_s)
    events = [e["event"] for e in log.events]
    assert events[-3:] == ["pool_published", "trade_proof_published",
                           "commitment_opened"]
    published = [e for e in log.events if e["event"] == "pool_published"]
    assert published[0]["Es"] == str(90 * SCALE)
    opened = [e for e in log.events if e["event"] == "commitment_opened"]
    assert opened[0]["y"] == str(10 * SCALE)
    assert trade.revealed
    # One proof object: the account proof at the proof header, threshold y.
    (ev,) = [e for e in log.events if e["event"] == "trade_proof_published"]
    assert set(ev) == {"tick", "actor", "event", "proof"}
    proof = balance_proof.Proof.from_json(ev["proof"])
    assert proof == trade.lock.proof and proof.threshold == 10 * SCALE
    _, _, header = build_ledger({"t1": 10**12})
    assert proof.account.header_hash == header.header_hash
    assert balance_proof.verify(VK, proof, header.state_root).balance == 10**12


def test_order_amount_hidden_until_pool_update():
    # The locked amount (17.000001 -> "17000001") may enter the public
    # record only from the pool update onward.
    order = order_for("t1", "buy", Fraction("17.000001"))
    trade, log, _ = trade_once(order)
    sentinel = str(scale_quantity(Fraction("17.000001")))
    pre_reveal = log.to_jsonl()
    assert sentinel not in pre_reveal
    reveal_and_settle(trade, log, tick=8)
    assert sentinel in log.to_jsonl()


def test_reveal_can_withhold_opening():
    order = order_for("t1", "buy", Fraction(10))
    trade, log, _ = trade_once(order)
    reveal_and_settle(trade, log, tick=8, reveal_commitment=False)
    assert not any(e["event"] == "commitment_opened" for e in log.events)
