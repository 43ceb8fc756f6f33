"""Release acceptance suite: nine end-to-end checks, one test per criterion.

Run with ``pytest -v tests/test_acceptance.py`` to get a per-criterion
pass/fail line. Each test re-derives its expectations independently of
the implementation under test (closed-form oracles, plaintext recomputation,
control runs) and pins the tolerances it is allowed: exact equality for
rational arithmetic, alpha = 0.01 for the statistical checks.
"""

import json
import random
import time
from fractions import Fraction
from pathlib import Path

import pytest
from scipy.stats import chi2_contingency, chisquare

from privamm.adversary import run_sandwich
from privamm.amm import Order, apply_trade, pool_init
from privamm.balance_proof import (Proof, ProvingError, VerificationKey,
                                   prove, setup, verify)
from privamm.cli import main
from privamm.field_group import (commitment_combine, group_setup,
                                 pedersen_commit)
from privamm.mpc import (P_MPC, SCALE, MpcSession, encode_signed, reconstruct,
                         share_secret)
from privamm.protocol import LpDeposit, RunLog, run_init_phase
from privamm.scenario import load_scenario
from privamm.sharding import Zone, zones_tile
from privamm.simulator import Simulator
from privamm.trie import (AccountLeaf, BlockHeader, HeaderChain, MptProof,
                          Trie, UnforgeabilityError, VerificationError,
                          check_freshness, prove_account,
                          verify_account_proof)

SCENARIOS = Path(__file__).resolve().parent.parent / "scenarios"

GROUP = group_setup(256, seed="acceptance")
VK = setup()


def _verdict(criterion: str, detail: str):
    print(f"PASS {criterion}: {detail}")


# -- 1: swap arithmetic is exact --------------------------------------------------

def test_c1_swaps_conserve_the_invariant_exactly():
    """10^4 random accepted trades: E*M = C with zero tolerance and every
    quote field equals its closed form."""
    rng = random.Random("acceptance-c1")
    t0 = time.perf_counter()
    executed = 0
    while executed < 10_000:
        pool = pool_init(
            Fraction(rng.randint(1, 10**9), rng.randint(1, 10**3)),
            Fraction(rng.randint(1, 10**9), rng.randint(1, 10**3)),
        )
        for _ in range(rng.randint(1, 4)):
            side = rng.choice(("buy", "sell"))
            if side == "buy":
                e = pool.E * Fraction(rng.randint(1, 8999), 10**4)
                order = Order(side, e, limit_rate=Fraction(10**30))
            else:
                e = pool.E * Fraction(rng.randint(1, 20000), 10**4)
                order = Order(side, e, limit_rate=Fraction(0))
            E, M, C = pool.E, pool.M, pool.C
            pool, quote = apply_trade(pool, order)

            assert pool.E * pool.M == C and pool.C == C
            spot = M / E
            if side == "buy":
                assert pool.E == E - e
                assert quote.amount_in == C * e / (E * (E - e))
                assert quote.amount_out == e
                assert quote.effective_price == C / (E * (E - e))
                assert quote.effective_price == quote.amount_in / e
                assert quote.price_impact == e / (E - e)
            else:
                assert pool.E == E + e
                assert quote.amount_in == e
                assert quote.amount_out == C * e / (E * (E + e))
                assert quote.effective_price == C / (E * (E + e))
                assert quote.effective_price == quote.amount_out / e
                assert quote.price_impact == e / (E + e)
            assert quote.price_impact == abs(quote.effective_price - spot) / spot
            executed += 1
            if executed == 10_000:
                break
    elapsed = time.perf_counter() - t0
    assert elapsed < 10.0, f"exactness sweep took {elapsed:.1f}s"
    _verdict("acceptance 1/9 swap exactness",
             f"10000 trades, invariant and quote identities exact, "
             f"{elapsed:.1f}s")


# -- 2: settlement multiplication is exact and one-round --------------------------

def test_c2_settlement_sessions_reconstruct_exactly_in_one_round():
    """10^3 sessions of (M+m)(E+e): exact reconstruction, exactly one
    online broadcast round, and exactly n messages for n in 3..10."""
    rng = random.Random("acceptance-c2")
    messages_by_n = {}
    for i in range(1000):
        n = 3 + i % 8
        session = MpcSession(n, seed=rng.randrange(2**63))
        M_pub = rng.randrange(10**12)
        E_pub = rng.randrange(10**12)
        m = rng.randrange(-(10**9), 10**9)
        e = rng.randrange(-(10**9), 10**9)
        m_shares = share_secret(encode_signed(m), n, session.rng)
        e_shares = share_secret(encode_signed(e), n, session.rng)
        triple = session.dealer_gen_triple()
        out = session.settle_product(m_shares, e_shares, M_pub, E_pub, triple)

        assert reconstruct(out) == (M_pub + m) * (E_pub + e) % P_MPC
        assert session.log.online_rounds == 1
        assert session.log.messages == n
        messages_by_n.setdefault(n, set()).add(session.log.messages)
    # Linear message growth: a session of n parties broadcasts n messages.
    assert messages_by_n == {n: {n} for n in range(3, 11)}
    _verdict("acceptance 2/9 settlement",
             "1000 sessions exact, 1 online round, messages = n for n in 3..10")


# -- 3: liquidity aggregation hides the summands ----------------------------------

def _sentinel_deposits(rng: random.Random, count: int):
    """Distinct 13-digit grid deposits whose digit strings cannot appear
    inside their own total by construction."""
    while True:
        scaled = rng.sample(range(10**12, 10**13), count)
        total = sum(scaled)
        if all(str(s) not in str(total) for s in scaled):
            return scaled, total


def test_c3_liquidity_totals_reveal_no_individual_deposit():
    rng = random.Random("acceptance-c3")
    hits = 0
    for case in range(100):
        n_lps = rng.randint(2, 5)
        scaled, total = _sentinel_deposits(rng, n_lps)
        lps, trie = [], Trie()
        for j, s in enumerate(scaled):
            address = f"lp{case}-{j}".encode().ljust(20, b"\x00")
            lps.append(LpDeposit(f"lp{j}", address, Fraction(s, SCALE)))
            balance = s + rng.randint(10**12, 10**13)
            trie = trie.update(address, AccountLeaf(nonce=0,
                                                    balance=balance))
        chain = HeaderChain(genesis_state_root=trie.root())
        for h in range(1, 3):
            chain.append(chain.next_header(trie.root(), h))
        session = MpcSession(4, GROUP.q, seed=rng.randrange(2**63))
        log = RunLog()
        result = run_init_phase(
            lps, session, GROUP, trie, chain, chain.header_at(0), VK,
            confirmations=2, window=10**9, now=chain.tip.timestamp,
            m_deposit=Fraction(rng.randint(10**6, 10**9)),
            rng=random.Random(rng.randrange(2**63)), log=log,
        )
        assert result.X_scaled == total
        published = next(e for e in log.events
                         if e["event"] == "init_liquidity_total")
        assert published["X"] == str(total)

        public_blob = log.to_jsonl() + json.dumps(session.events)
        hits += sum(str(s) in public_blob for s in scaled)
    assert hits == 0
    _verdict("acceptance 3/9 liquidity aggregation",
             "100 LP sets, X exact, 0 sentinel deposit strings in any "
             "public artifact")


# -- 4: commitments are homomorphic, hiding, binding -------------------------------

def test_c4_commitments_homomorphic_hiding_binding():
    rng = random.Random("acceptance-c4")
    # Homomorphism on the production-size group.
    for _ in range(1000):
        x1, x2 = rng.randrange(GROUP.q), rng.randrange(GROUP.q)
        r1, r2 = rng.randrange(GROUP.q), rng.randrange(GROUP.q)
        combined = commitment_combine(
            GROUP,
            pedersen_commit(GROUP, x1, r1),
            pedersen_commit(GROUP, x2, r2),
        )
        assert combined == pedersen_commit(GROUP, (x1 + x2) % GROUP.q,
                                           (r1 + r2) % GROUP.q)

    # Statistical hiding on the enumerable test group: the commitment
    # distribution is uniform over the subgroup and identical across
    # committed values.
    small = group_setup(16, seed="acceptance")
    subgroup = sorted(pow(small.g, k, small.p) for k in range(small.q))
    assert len(set(subgroup)) == small.q
    index = {el: i for i, el in enumerate(subgroup)}
    samples = 10**5
    observed = []
    for x in (4, 9):
        counts = [0] * small.q
        for _ in range(samples):
            counts[index[pedersen_commit(small, x, rng.randrange(small.q))]] += 1
        p_uniform = chisquare(counts).pvalue
        assert p_uniform > 0.01, f"hiding rejected for x={x}: p={p_uniform:.4g}"
        observed.append(counts)
    p_same = chi2_contingency(observed).pvalue
    assert p_same > 0.01, f"distributions depend on x: p={p_same:.4g}"

    # Binding search on the production group: no two sampled openings
    # may collide.
    seen = {}
    for _ in range(10**5):
        x, r = rng.randrange(GROUP.q), rng.randrange(GROUP.q)
        c = pedersen_commit(GROUP, x, r)
        if c in seen and seen[c] != (x, r):
            pytest.fail(f"binding collision: {seen[c]} and {(x, r)}")
        seen[c] = (x, r)
    _verdict("acceptance 4/9 commitments",
             f"homomorphism 1000/1000, hiding p>{0.01}, "
             f"binding search {10**5} trials clean")


# -- 5: balance threshold proofs --------------------------------------------------

_C5_ADDRESS = b"acceptance-c5".ljust(20, b"\x00")


def _account(balance: int):
    """Root of a one-account trie holding ``balance``, and its proof."""
    trie = Trie().update(_C5_ADDRESS, AccountLeaf(nonce=0, balance=balance))
    return trie.root(), prove_account(trie, _C5_ADDRESS)


def _accepts(root: bytes, account, k: int) -> bool:
    """Outcome of prove and verify on (account, k); they must agree."""
    try:
        proof = prove(VK, account, k)
    except ProvingError:
        proof = None
    try:
        verify(VK, Proof(VK, k, account), root)
    except VerificationError:
        assert proof is None
        return False
    assert proof is not None and verify(VK, proof, root)
    return True


def test_c5_balance_proofs_accept_at_threshold_and_reject_tampering():
    rng = random.Random("acceptance-c5")

    # Completeness and the inclusive boundary on 10^4 (balance, k) pairs.
    accepted = rejected = 0
    for _ in range(10**4):
        k = rng.randrange(1, 1 << 256)
        relation = rng.randrange(3)
        balance = {0: k, 1: k - 1, 2: rng.randrange(k, 1 << 256)}[relation]
        root, account = _account(balance)
        if relation == 1:
            with pytest.raises(ProvingError, match="balance below threshold"):
                prove(VK, account, k)
            rejected += 1
        else:
            assert verify(VK, prove(VK, account, k), root).balance == balance
            accepted += 1
    assert accepted + rejected == 10**4 and min(accepted, rejected) > 3000

    # prove and verify agree with plain 256-bit comparison on 10^5 pairs.
    # Balances come from a pool of accounts (hashing a fresh trie per pair
    # would dominate); thresholds are drawn against each balance.
    straddle = [(1 << 128) + d for d in range(-2, 3)]
    pool = {b: _account(b)
            for b in [rng.randrange(1, (1 << 256) - 1) for _ in range(64)]
            + straddle}
    randoms = list(pool)[:64]
    for _ in range(10**5):
        mode = rng.randrange(4)
        if mode == 3:  # straddle the 128-bit boundary itself
            b, k = rng.choice(straddle), 1 << 128
        else:
            b = rng.choice(randoms)
            if mode == 0:
                k = rng.randrange(1 << 256)
            elif mode == 1:  # equal high 128 bits: the low bits decide
                k = (b >> 128 << 128) | rng.randrange(1 << 128)
            else:  # adjacent values at the boundary
                k = b + rng.randrange(2)
        assert _accepts(*pool[b], k) == (b >= k)

    # Single-byte tamper of the node stack, the address and the vk tag.
    k = rng.randrange(1, 1 << 255)
    balance = k + rng.randrange(1 << 64)
    root, account = _account(balance)
    proof = prove(VK, account, k)
    assert verify(VK, proof, root).balance == balance

    (node,) = account.node_stack
    for pos in range(len(node)):
        bad = bytearray(node)
        bad[pos] ^= 0xFF
        forged = Proof(VK, k, MptProof(_C5_ADDRESS, (bytes(bad),)))
        with pytest.raises(VerificationError):
            verify(VK, forged, root)
    tampers = len(node)
    for pos in range(20):
        bad = bytearray(_C5_ADDRESS)
        bad[pos] ^= 0xFF
        forged = Proof(VK, k, MptProof(bytes(bad), account.node_stack))
        with pytest.raises(VerificationError):
            verify(VK, forged, root)
    for pos in range(32):
        bad = bytearray(VK.digest)
        bad[pos] ^= 0xFF
        forged = Proof(VerificationKey(bytes(bad)), k, account)
        with pytest.raises(VerificationError, match="another statement"):
            verify(VK, forged, root)
    tampers += 20 + 32

    # A threshold tamper is a new statement: true (accepted) at or below
    # the balance, false (rejected) above it.
    raised = 0
    for pos in range(32):  # each byte of the 256-bit threshold
        bad_k = k ^ (0xFF << (8 * pos))
        assert _accepts(root, account, bad_k) == (bad_k <= balance)
        raised += bad_k > balance
    assert 0 < raised < 32
    _verdict("acceptance 5/9 balance proofs",
             f"boundary exact on 10^4 pairs, compare exact on 10^5, "
             f"{tampers} tampers and {raised} raised thresholds rejected")


# -- 6: state proofs and freshness -------------------------------------------------

def test_c6_state_proofs_and_freshness_are_sound():
    rng = random.Random("acceptance-c6")
    accounts = {}
    while len(accounts) < 64:
        accounts[rng.randbytes(20)] = AccountLeaf(
            nonce=rng.randrange(0x80), balance=rng.randrange(1, 1 << 200))
    items = list(accounts.items())

    # Root independence of insertion order.
    roots = set()
    for ordering in (items, items[::-1],
                     rng.sample(items, 64), rng.sample(items, 64)):
        trie = Trie()
        for address, leaf in ordering:
            trie = trie.update(address, leaf)
        roots.add(trie.root())
    assert len(roots) == 1
    base_trie, (root,) = trie, roots

    # Exhaustive single-byte proof tampering.
    address = items[17][0]
    proof = prove_account(base_trie, address)
    assert verify_account_proof(root, address, proof) == accounts[address]
    tampers = 0
    for depth, node in enumerate(proof.node_stack):
        for pos in range(len(node)):
            for flip in (0x01, 0xFF):
                stack = list(proof.node_stack)
                bad = bytearray(node)
                bad[pos] ^= flip
                stack[depth] = bytes(bad)
                with pytest.raises(VerificationError):
                    verify_account_proof(
                        root, address,
                        type(proof)(address=address, node_stack=tuple(stack)))
                tampers += 1

    # Freshness boundaries are exact in both dimensions.
    chain = HeaderChain(genesis_state_root=root)
    for h in range(1, 13):
        chain.append(chain.next_header(root, h * 10))
    header = chain.header_at(6)  # timestamp 60, six blocks on top
    assert check_freshness(chain, header, confirmations=6, window=40, now=100)
    assert not check_freshness(chain, header, confirmations=7, window=40,
                               now=100)
    assert not check_freshness(chain, header, confirmations=6, window=39,
                               now=100)
    forged = BlockHeader.make(6, header.parent_hash, header.timestamp,
                              bytes(32))
    with pytest.raises(UnforgeabilityError):
        check_freshness(chain, forged, confirmations=0, window=10**6, now=100)

    # Rewriting history breaks validation at the first descendant, even
    # when the rewritten header is internally consistent.
    assert chain.validate() is None
    victim = chain.headers[4]
    chain.headers[4] = BlockHeader.make(4, victim.parent_hash,
                                        victim.timestamp, bytes(32))
    assert chain.validate() == 5
    _verdict("acceptance 6/9 state proofs",
             f"64-account root order-independent, {tampers} proof tampers "
             f"rejected, freshness and history checks exact")


# -- 7: concealment removes the sandwich edge --------------------------------------

def test_c7_concealment_neutralizes_sandwich_profit():
    t0 = time.perf_counter()
    pool = pool_init(1000, 1000)
    victim = Order(side="buy", quantity_e=Fraction(100),
                   limit_rate=Fraction(10**12))

    plaintext = run_sandwich(pool, victim, Fraction(50), "plaintext")
    assert plaintext.mean_profit == Fraction(37000, 2907)  # ~12.73 M-tokens
    assert 12 < plaintext.mean_profit < 13

    committed = run_sandwich(pool, victim, Fraction(50), "committed",
                             trials=10**4, rng=random.Random("acceptance-c7"))
    t_stat = committed.t_stat()
    assert abs(t_stat) < 2.58, f"committed-mode profit nonzero: t={t_stat:.2f}"
    elapsed = time.perf_counter() - t0
    assert elapsed < 60.0, f"differential took {elapsed:.1f}s"
    _verdict("acceptance 7/9 sandwich differential",
             f"plaintext profit 37000/2907 exactly, committed |t|="
             f"{abs(t_stat):.2f} < 2.58 over 10^4 trials, {elapsed:.1f}s")


# -- 8: shard splits and regional failures -----------------------------------------

def test_c8_shards_split_cleanly_and_contain_regional_failures():
    # Load crossing split_tps forces one split.
    sim = Simulator(load_scenario(str(SCENARIOS / "split.json")))
    summary = sim.run()
    splits = [e for e in sim.log.events if e["event"] == "shard_split"]
    assert len(splits) == 1

    parent_zone = Zone(west=Fraction(0), east=Fraction(10),
                       south=Fraction(0), north=Fraction(10))
    child_zones = [Zone.from_json(s["zone"]) for s in summary["shards"]]
    assert zones_tile(parent_zone, child_zones)

    total_e = sum(int(s["pool"]["Es"]) for s in summary["shards"])
    total_m = sum(int(s["pool"]["Ms"]) for s in summary["shards"])
    assert (total_e, total_m) == (600 * SCALE, 600 * SCALE)

    # One regional outage out of three shards; the control run differs
    # only in having no failure injected.
    failed = Simulator(load_scenario(str(SCENARIOS / "failure.json"))).run()
    control_cfg = load_scenario(str(SCENARIOS / "failure.json"))
    control_cfg.failures = []
    control = Simulator(control_cfg).run()

    blocks = {s["shardId"]: s["blocks"] for s in failed["shards"]}
    control_blocks = {s["shardId"]: s["blocks"] for s in control["shards"]}
    assert blocks["shard-1"] < control_blocks["shard-1"]
    assert blocks["shard-0"] == control_blocks["shard-0"]
    assert blocks["shard-2"] == control_blocks["shard-2"]

    table = failed["master"]["anchorTable"]
    for live in ("shard-0", "shard-2"):
        assert table[live]["stale"] is False
        assert table[live]["height"] == blocks[live]
    _verdict("acceptance 8/9 sharding",
             "split tiles the zone and conserves liquidity; outage leaves "
             "other shards at +-0 blocks with complete anchors")


# -- 9: determinism ----------------------------------------------------------------

def test_c9_same_seed_runs_are_byte_identical(tmp_path):
    compared = []
    for scenario in sorted(SCENARIOS.glob("*.json")):
        out_a = tmp_path / scenario.stem / "a"
        out_b = tmp_path / scenario.stem / "b"
        code_a = main(["run", str(scenario), "--out", str(out_a)])
        code_b = main(["run", str(scenario), "--out", str(out_b)])
        assert code_a == code_b
        files_a = sorted(p.name for p in out_a.iterdir()) if out_a.exists() else []
        files_b = sorted(p.name for p in out_b.iterdir()) if out_b.exists() else []
        assert files_a == files_b
        for name in files_a:
            assert (out_a / name).read_bytes() == (out_b / name).read_bytes(), \
                f"{scenario.name}: {name} differs between same-seed runs"
        compared.append(f"{scenario.stem}({len(files_a)})")
    assert compared
    _verdict("acceptance 9/9 determinism",
             f"byte-identical reruns for {', '.join(compared)}")
