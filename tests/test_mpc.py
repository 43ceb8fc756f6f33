"""Additive sharing, Beaver multiplication, and settlement sessions.

Round accounting is the load-bearing claim here: one multiplication (or
one full settlement, or one secure sum) costs exactly one online
broadcast round of n messages; everything else happens offline or
locally. Worked examples use the small field p=101.
"""

import json
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from privamm.mpc import (P_MPC, AdditiveShare, ConfigurationError,
                         MpcSession, ProtocolError, ReconstructionError,
                         decode_signed, encode_signed, reconstruct,
                         share_secret)

P_SMALL = 101


def small_session(n=2, seed=7):
    return MpcSession(n, modulus=P_SMALL, seed=seed)


def fixed_shares(values, modulus=P_SMALL, tag=b"t"):
    return [
        AdditiveShare(party_id=i + 1, value=v % modulus, modulus=modulus, tag=tag)
        for i, v in enumerate(values)
    ]


def _triple_with(session, a, b):
    """A dealer triple pinned to (a, b, ab) for worked examples."""
    a_shares = share_secret(a, session.n, random.Random(1), session.modulus, b"a")
    b_shares = share_secret(b, session.n, random.Random(2), session.modulus, b"b")
    c_shares = share_secret(a * b % session.modulus, session.n,
                            random.Random(3), session.modulus, b"c")
    triple = session.dealer_gen_triple()
    return type(triple)(
        triple_id=triple.triple_id,
        a_shares=tuple(
            AdditiveShare(s.party_id, s.value, s.modulus, triple.triple_id)
            for s in a_shares
        ),
        b_shares=tuple(
            AdditiveShare(s.party_id, s.value, s.modulus, triple.triple_id)
            for s in b_shares
        ),
        c_shares=tuple(
            AdditiveShare(s.party_id, s.value, s.modulus, triple.triple_id)
            for s in c_shares
        ),
    )


def test_share_and_reconstruct():
    rng = random.Random(0)
    shares = share_secret(42, 3, rng, P_SMALL, b"x")
    assert reconstruct(shares, expected_n=3) == 42


def test_shares_sum_modulo_field():
    rng = random.Random(0)
    shares = share_secret(100, 4, rng, P_SMALL, b"x")
    assert sum(s.value for s in shares) % P_SMALL == 100


def test_share_needs_two_parties():
    with pytest.raises(ConfigurationError):
        share_secret(1, 1, random.Random(0), P_SMALL, b"x")


def test_reconstruct_rejects_missing_party():
    shares = share_secret(5, 3, random.Random(0), P_SMALL, b"x")
    with pytest.raises(ReconstructionError):
        reconstruct(shares[:2], expected_n=3)


def test_reconstruct_rejects_duplicate_party():
    shares = share_secret(5, 3, random.Random(0), P_SMALL, b"x")
    with pytest.raises(ReconstructionError):
        reconstruct([shares[0], shares[0], shares[2]], expected_n=3)


def test_reconstruct_rejects_mixed_tags():
    a = share_secret(5, 2, random.Random(0), P_SMALL, b"a")
    b = share_secret(5, 2, random.Random(0), P_SMALL, b"b")
    with pytest.raises(ReconstructionError):
        reconstruct([a[0], b[1]], expected_n=2)


def test_signed_encoding_round_trip():
    for v in (-50, -1, 0, 1, 50):
        assert decode_signed(encode_signed(v, P_SMALL), P_SMALL) == v
    assert encode_signed(-2, P_SMALL) == 99


# -- Beaver multiplication ---------------------------------------------------

def test_beaver_worked_example():
    """m=3, e=4, triple (5, 7, 35): d = -2, e' = -3, product 12."""
    session = small_session(n=2)
    m_shares = fixed_shares([1, 2], tag=b"m")
    e_shares = fixed_shares([1, 3], tag=b"e")
    triple = _triple_with(session, 5, 7)

    d = (3 - 5) % P_SMALL
    e_prime = (4 - 7) % P_SMALL
    assert (d, e_prime) == (99, 98)

    z = session.beaver_mul(m_shares, e_shares, triple)
    # 35 + d*b + e'*a + d*e' = 35 - 14 - 15 + 6 = 12
    assert reconstruct(z, expected_n=2) == 12


def test_beaver_zero_secret():
    session = small_session(n=3)
    m = share_secret(0, 3, random.Random(4), P_SMALL, b"m")
    e = share_secret(9, 3, random.Random(5), P_SMALL, b"e")
    z = session.beaver_mul(m, e, session.dealer_gen_triple())
    assert reconstruct(z, expected_n=3) == 0


def test_triple_reuse_rejected():
    session = small_session(n=2)
    m = share_secret(3, 2, random.Random(4), P_SMALL, b"m")
    e = share_secret(4, 2, random.Random(5), P_SMALL, b"e")
    triple = session.dealer_gen_triple()
    session.beaver_mul(m, e, triple)
    with pytest.raises(ProtocolError):
        session.beaver_mul(m, e, triple)


def test_party_count_mismatch_rejected():
    session = small_session(n=3)
    m = share_secret(3, 2, random.Random(4), P_SMALL, b"m")
    e = share_secret(4, 2, random.Random(5), P_SMALL, b"e")
    with pytest.raises(ProtocolError):
        session.beaver_mul(m, e, session.dealer_gen_triple())


@given(st.integers(0, P_SMALL - 1), st.integers(0, P_SMALL - 1),
       st.integers(2, 6), st.integers(0, 2**32))
@settings(max_examples=300)
def test_beaver_matches_plaintext(m, e, n, seed):
    session = MpcSession(n, modulus=P_SMALL, seed=seed)
    rng = random.Random(seed)
    m_shares = share_secret(m, n, rng, P_SMALL, b"m")
    e_shares = share_secret(e, n, rng, P_SMALL, b"e")
    z = session.beaver_mul(m_shares, e_shares, session.dealer_gen_triple())
    assert reconstruct(z, expected_n=n) == (m * e) % P_SMALL


# -- settlement ----------------------------------------------------------------

def test_settle_worked_example():
    """M=4, E=4, m=4 (shares 3,1), e=-2 (shares -1,-1): C = 8*2 = 16."""
    session = small_session(n=2)
    m_shares = fixed_shares([3, 1], tag=b"m")
    e_shares = fixed_shares([-1, -1], tag=b"e")
    triple = _triple_with(session, 5, 7)
    settled = session.settle_product(m_shares, e_shares, 4, 4, triple)
    assert reconstruct(settled, expected_n=2) == 16


def test_settle_zero_deltas_gives_public_product():
    session = small_session(n=4)
    rng = random.Random(9)
    m = share_secret(0, 4, rng, P_SMALL, b"m")
    e = share_secret(0, 4, rng, P_SMALL, b"e")
    settled = session.settle_product(m, e, 7, 9, session.dealer_gen_triple())
    assert reconstruct(settled, expected_n=4) == (7 * 9) % P_SMALL


@given(st.integers(-10**8, 10**8), st.integers(-10**8, 10**8),
       st.integers(0, 10**9), st.integers(0, 10**9), st.integers(2, 5))
@settings(max_examples=200)
def test_settle_matches_plaintext_big_field(m, e, M, E, n):
    session = MpcSession(n, modulus=P_MPC, seed=f"{m},{e}")
    rng = random.Random(str((m, e, M, E, n)))
    m_shares = share_secret(encode_signed(m), n, rng, P_MPC, b"m")
    e_shares = share_secret(encode_signed(e), n, rng, P_MPC, b"e")
    settled = session.settle_product(m_shares, e_shares, M, E,
                                     session.dealer_gen_triple())
    assert reconstruct(settled, expected_n=n) == ((M + m) * (E + e)) % P_MPC


# -- round accounting ------------------------------------------------------------

def test_one_round_per_multiplication():
    session = small_session(n=4)
    rng = random.Random(1)
    for i in range(5):
        m = share_secret(i, 4, rng, P_SMALL, b"m")
        e = share_secret(i + 1, 4, rng, P_SMALL, b"e")
        session.beaver_mul(m, e, session.dealer_gen_triple())
    assert session.log.online_rounds == 5
    assert session.log.messages == 5 * 4


def test_settlement_costs_one_round_total():
    session = small_session(n=3)
    rng = random.Random(2)
    m = share_secret(1, 3, rng, P_SMALL, b"m")
    e = share_secret(2, 3, rng, P_SMALL, b"e")
    session.settle_product(m, e, 5, 6, session.dealer_gen_triple())
    assert session.log.online_rounds == 1
    assert session.log.messages == 3
    assert session.log.offline_rounds == 1  # the dealer's triple


def test_secure_sum_examples():
    session = small_session(n=3)
    rng = random.Random(3)
    rows = [share_secret(10, 3, rng, P_SMALL, b"lp"),
            share_secret(20, 3, rng, P_SMALL, b"lp")]
    assert session.secure_sum(rows) == 30
    assert session.log.online_rounds == 1
    assert session.log.messages == 3


def test_secure_sum_single_and_empty():
    session = small_session(n=2)
    rng = random.Random(4)
    assert session.secure_sum([share_secret(7, 2, rng, P_SMALL, b"x")]) == 7
    assert small_session(n=2).secure_sum([]) == 0


def test_session_configuration_errors():
    with pytest.raises(ConfigurationError):
        MpcSession(1, modulus=P_SMALL)
    with pytest.raises(ConfigurationError):
        MpcSession(102, modulus=P_SMALL)


def test_transcript_redacts_share_values():
    session = small_session(n=2)
    rng = random.Random(5)
    secret = 73
    m = share_secret(secret, 2, rng, P_SMALL, b"m")
    e = share_secret(11, 2, rng, P_SMALL, b"e")
    session.settle_product(m, e, 1, 1, session.dealer_gen_triple())
    # The session's events are its transcript: plain JSON (a share object
    # would not serialise) with no share value field in it.
    transcript = json.dumps(session.events)
    assert '"value"' not in transcript
