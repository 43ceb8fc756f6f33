"""Schnorr group setup and Pedersen commitments.

The fixed test group (p=23, q=11, g=2, h=3) keeps the arithmetic small
enough to check by hand; the 256-bit path is checked structurally
(safe prime, generator orders, determinism), against pinned parameter
digests, and the fixed-base commit path against plain `pow`.
"""

import hashlib
import json
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from privamm import field_group
from privamm.field_group import (TEST_GROUP, GroupParams, Opening,
                                 ParameterError, RangeError,
                                 commitment_combine, commitment_combine_many,
                                 group_setup, pedersen_commit,
                                 pedersen_verify_opening)

exponents = st.integers(min_value=0, max_value=TEST_GROUP.q - 1)


def test_test_group_constants():
    g = TEST_GROUP
    assert (g.p, g.q, g.g, g.h) == (23, 11, 2, 3)
    assert pow(g.g, g.q, g.p) == 1
    assert pow(g.h, g.q, g.p) == 1


def test_small_commitment_values():
    # 2^4 * 3^5 = 16 * 243 = 3888 = 169*23 + 1
    assert pedersen_commit(TEST_GROUP, 4, 5) == 1
    # 2^1 * 3^1 = 6
    assert pedersen_commit(TEST_GROUP, 1, 1) == 6


def test_combine_is_homomorphic_on_example():
    c1 = pedersen_commit(TEST_GROUP, 1, 1)
    c2 = pedersen_commit(TEST_GROUP, 2, 3)
    combined = commitment_combine(TEST_GROUP, c1, c2)
    assert combined == 4
    assert combined == pedersen_commit(TEST_GROUP, 3, 4)


@given(exponents, exponents, exponents, exponents)
@settings(max_examples=300)
def test_homomorphism(x1, r1, x2, r2):
    c1 = pedersen_commit(TEST_GROUP, x1, r1)
    c2 = pedersen_commit(TEST_GROUP, x2, r2)
    q = TEST_GROUP.q
    assert commitment_combine(TEST_GROUP, c1, c2) == pedersen_commit(
        TEST_GROUP, (x1 + x2) % q, (r1 + r2) % q
    )


@given(st.lists(st.tuples(exponents, exponents), min_size=1, max_size=6))
@settings(max_examples=200)
def test_combine_many(pairs):
    commitments = [pedersen_commit(TEST_GROUP, x, r) for x, r in pairs]
    q = TEST_GROUP.q
    total_x = sum(x for x, _ in pairs) % q
    total_r = sum(r for _, r in pairs) % q
    assert commitment_combine_many(TEST_GROUP, commitments) == pedersen_commit(
        TEST_GROUP, total_x, total_r
    )


@given(exponents, exponents)
@settings(max_examples=200)
def test_open_verifies(x, r):
    c = pedersen_commit(TEST_GROUP, x, r)
    assert pedersen_verify_opening(TEST_GROUP, c, Opening(x=x, r=r))


@given(exponents, exponents, exponents)
@settings(max_examples=200)
def test_wrong_opening_rejected(x, r, x_other):
    if x_other == x:
        x_other = (x + 1) % TEST_GROUP.q
    c = pedersen_commit(TEST_GROUP, x, r)
    assert not pedersen_verify_opening(TEST_GROUP, c, Opening(x=x_other, r=r))


def test_exponent_range_enforced():
    with pytest.raises(RangeError):
        pedersen_commit(TEST_GROUP, TEST_GROUP.q, 0)
    with pytest.raises(RangeError):
        pedersen_commit(TEST_GROUP, 0, -1)


def test_group_setup_16_bits_returns_test_group():
    assert group_setup(16, seed="any") == TEST_GROUP


def test_group_setup_256_structure():
    params = group_setup(256, seed="structure-check")
    assert params.p.bit_length() == 256
    assert params.p == 2 * params.q + 1
    assert pow(params.g, params.q, params.p) == 1
    assert pow(params.h, params.q, params.p) == 1
    assert params.g not in (0, 1)
    assert params.h not in (0, 1, params.g)


def test_group_setup_deterministic_per_seed():
    a = group_setup(256, seed="alpha")
    b = group_setup(256, seed="alpha")
    c = group_setup(256, seed="beta")
    assert a == b
    assert a != c


def test_group_setup_rejects_other_sizes():
    with pytest.raises(ParameterError):
        group_setup(64, seed="any")
    with pytest.raises(ParameterError):
        group_setup(256, seed="")


def test_params_round_trip_json():
    params = group_setup(256, seed="json")
    assert GroupParams.from_json(params.to_json()) == params


def test_invalid_params_rejected():
    with pytest.raises(ParameterError):
        GroupParams(p=23, q=7, g=2, h=3)  # 7 does not divide 22
    with pytest.raises(ParameterError):
        GroupParams(p=23, q=11, g=2, h=2)  # g == h breaks binding
    with pytest.raises(ParameterError):
        GroupParams(p=23, q=11, g=5, h=3)  # 5 has order 22, not 11


# -- fixed-base commit path ----------------------------------------------------

GROUP_256 = group_setup(256, seed="group:99")


def _exponent_cases(q):
    """0, 1, q - 1, both sides of every byte edge below q (2^(8k) - 1 and
    2^(8k), where a value gains a table row), and 200 seeded random
    exponents."""
    edges = [v for k in range(1, q.bit_length() // 8 + 1)
             for v in ((1 << (8 * k)) - 1, 1 << (8 * k)) if v < q]
    rng = random.Random(f"commit-cases/{q}")
    return [0, 1, q - 1] + edges, [rng.randrange(q) for _ in range(200)]


def _plain(params, x, r):
    return pow(params.g, x, params.p) * pow(params.h, r, params.p) % params.p


@pytest.mark.parametrize("params", [TEST_GROUP, GROUP_256],
                         ids=["test-group", "group:99"])
def test_commit_matches_plain_modexp(params):
    corners, randoms = _exponent_cases(params.q)
    pairs = [(x, r) for x in corners for r in corners]
    pairs += list(zip(randoms, reversed(randoms)))
    for x, r in pairs:
        assert pedersen_commit(params, x, r) == _plain(params, x, r)


@given(st.integers(0, GROUP_256.q - 1), st.integers(0, GROUP_256.q - 1))
@settings(max_examples=200)
def test_commit_matches_plain_modexp_property(x, r):
    assert pedersen_commit(GROUP_256, x, r) == _plain(GROUP_256, x, r)


@pytest.mark.parametrize("order", ["ascending", "descending"])
def test_commit_every_byte_length_grows_rows(order):
    """A value of every byte length 0..32 commits correctly whether g's
    rows grow one at a time or all at once on the first value."""
    field_group._commit_tables.cache_clear()
    params = group_setup(256, seed="group:3")
    rng = random.Random(f"byte-lengths/{order}")
    lengths = range(33) if order == "ascending" else range(32, -1, -1)
    for n in lengths:
        x = min(rng.randrange(1 << (8 * n - 1), 1 << (8 * n)) if n else 0,
                params.q - 1)
        assert (x.bit_length() + 7) // 8 == n
        r = rng.randrange(params.q)
        assert pedersen_commit(params, x, r) == _plain(params, x, r)
    g_rows, h_rows = field_group._commit_tables(params)
    assert len(g_rows) == len(h_rows) == 32
    assert all(len(row) == 256 for row in g_rows + h_rows)


def test_commit_tables_are_per_group():
    """Alternating two 256-bit groups keeps each group's rows its own."""
    field_group._commit_tables.cache_clear()
    a = group_setup(256, seed="group:17")
    b = group_setup(256, seed="group:42")
    rng = random.Random("two-groups")
    for i in range(40):
        params = (a, b)[i % 2]
        x = rng.randrange(1 << (8 * (i % 33))) % params.q
        r = rng.randrange(params.q)
        assert pedersen_commit(params, x, r) == _plain(params, x, r)
    for params in (a, b):
        g_rows, h_rows = field_group._commit_tables(params)
        assert g_rows[0][1] == params.g and h_rows[0][1] == params.h


def test_g_rows_grow_only_as_far_as_the_values():
    """Values below 2^56 (trade amounts, deposits) build at most 7 g rows;
    one full-width value builds all 32."""
    field_group._commit_tables.cache_clear()
    params = group_setup(256, seed="group:2026")
    rng = random.Random("seven-bytes")
    for _ in range(50):
        pedersen_commit(params, rng.randrange(1 << 56), rng.randrange(params.q))
    g_rows, h_rows = field_group._commit_tables(params)
    assert len(g_rows) <= 7 and len(h_rows) == 32
    pedersen_commit(params, params.q - 1, 0)
    assert len(field_group._commit_tables(params)[0]) == 32


@pytest.mark.parametrize("value", [2.5, Fraction(5, 2)],
                         ids=["float", "fraction"])
def test_non_integer_exponents_rejected(value):
    """A non-integer is not truncated to a commitment to 2: it raises a
    RangeError naming the operand, so an opening with it does not verify."""
    c = pedersen_commit(TEST_GROUP, 2, 1)
    with pytest.raises(RangeError, match="committed value"):
        pedersen_commit(TEST_GROUP, value, 1)
    with pytest.raises(RangeError, match="blinding factor"):
        pedersen_commit(TEST_GROUP, 2, value)
    assert not pedersen_verify_opening(TEST_GROUP, c, Opening(x=value, r=1))
    assert not pedersen_verify_opening(
        TEST_GROUP, pedersen_commit(TEST_GROUP, 1, 2), Opening(x=1, r=value))


# -- pinned group parameters ---------------------------------------------------

#: SHA-256 of json.dumps(params.to_json(), sort_keys=True), recorded with the
#: plain trial-division safe-prime search; the sieve must not move them.
PINNED_GROUPS = {
    "group:3": "f54d0c75559008ce9c800b25b3acf2555e41ce2f06c6dbe121c398d33a7f2c3f",
    "group:17": "3762ca3b8efb989f13314c458c189be051623b681984a691f1d6d67870243f5d",
    "group:99": "235e3f5f20a2a030122fa6a6b8453ca666517d1071797f1aa6a45d36365ce8a4",
    "group:42": "8b2c50c67c59c333b73d4b7706b92ee5c6accbd55cb6f232f0d26105ae7e4b0e",
    "group:2026": "c8c878256b896591e949332fc99f6516ad9737aab0e0675018c39ff401c93045",
    "group:7": "3a5c6ae1f3b218af78f25efdc72c97d652ea2554203009f5f3c82b04ab9261fe",
}


@pytest.mark.parametrize("seed", sorted(PINNED_GROUPS))
def test_group_setup_pinned(seed):
    params = group_setup(256, seed=seed)
    digest = hashlib.sha256(
        json.dumps(params.to_json(), sort_keys=True).encode()).hexdigest()
    assert digest == PINNED_GROUPS[seed]


def test_group_setup_ignores_global_random_state():
    random.seed(0)
    state = random.getstate()
    after_seed0 = group_setup(256, seed="group:17")
    assert random.getstate() == state
    random.seed(1)
    assert group_setup(256, seed="group:17") == after_seed0
