"""Keccak-256 against published vectors and structural properties.

The original Keccak padding (0x01) differs from the standardized SHA3-256
padding (0x06); these tests pin the original variant, which is what the
account trie and block headers hash with.
"""

import hashlib
import importlib.util
import random
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from privamm import keccak as keccak_mod
from privamm.keccak import (GROUP_WIDTH, DigestCache, _keccak_f,
                            _keccak_f_packed, _slot_constants, keccak256,
                            keccak256_many)
from privamm.scenario import parse_scenario
from privamm.simulator import Simulator

ROOT = Path(__file__).resolve().parent.parent

# Well-known digests of the original Keccak-256 (pre-NIST padding).
KNOWN_VECTORS = [
    (b"", "c5d2460186f7233c927e7db2dcc703c0e500b653ca82273b7bfad8045d85a470"),
    (b"abc", "4e03657aea45a94fc7d47ba826c8d667c0d1e6e33a64a036ec44f58fa12d6c45"),
    (
        b"The quick brown fox jumps over the lazy dog",
        "4d741b6f1eb29cb2a9b9911c82f56fa8d73b04959d3d9d222895df6c0b28aa15",
    ),
]


@pytest.mark.parametrize("message,expected", KNOWN_VECTORS)
def test_published_vectors(message, expected):
    assert keccak256(message).hex() == expected


def test_differs_from_sha3_256():
    # Same permutation, different padding byte; equal outputs would mean
    # the wrong variant was implemented.
    for msg in (b"", b"abc", b"x" * 200):
        assert keccak256(msg) != hashlib.sha3_256(msg).digest()


def _sha3_256_via_keccak_f(data: bytes) -> bytes:
    # The same 136-byte-rate sponge as keccak256, but with SHA3's 0x06 pad.
    padlen = 136 - len(data) % 136
    padded = bytearray(data + b"\x00" * padlen)
    padded[len(data)] ^= 0x06
    padded[-1] ^= 0x80
    lanes = [0] * 25
    for off in range(0, len(padded), 136):
        for i in range(17):
            lanes[i] ^= int.from_bytes(padded[off + 8 * i: off + 8 * i + 8], "little")
        _keccak_f(lanes)
    return b"".join(lane.to_bytes(8, "little") for lane in lanes[:4])


@pytest.mark.parametrize("length", [0, 1, 135, 136, 137, 271, 272, 543, 544, 600])
def test_permutation_matches_openssl_sha3(length):
    # OpenSSL's SHA3-256 runs the same Keccak-f[1600]; trie branch nodes
    # span up to four 136-byte blocks, past the published vectors above.
    data = bytes((7 * i + length) % 256 for i in range(length))
    assert _sha3_256_via_keccak_f(data) == hashlib.sha3_256(data).digest()


def _sha3_256_many_via_packed_keccak_f(messages) -> list:
    # SHA3's 0x06-padded sponge over equal-length messages, permuted
    # together: message j sits in the 64-bit slot j of every lane.
    padded = []
    for data in messages:
        padlen = 136 - len(data) % 136
        block = bytearray(data + b"\x00" * padlen)
        block[len(data)] ^= 0x06
        block[-1] ^= 0x80
        padded.append(bytes(block))
    k = len(padded)
    lanes = [0] * 25
    for off in range(0, len(padded[0]), 136):
        for i in range(17):
            for j, block in enumerate(padded):
                word = block[off + 8 * i: off + 8 * i + 8]
                lanes[i] ^= int.from_bytes(word, "little") << 64 * j
        _keccak_f_packed(lanes, *_slot_constants(k))
    return [b"".join((lane >> 64 * j & (1 << 64) - 1).to_bytes(8, "little")
                     for lane in lanes[:4]) for j in range(k)]


@pytest.mark.parametrize("length", [0, 1, 135, 136, 137, 271, 272, 543, 544, 600])
def test_packed_permutation_matches_openssl_sha3(length):
    messages = [bytes((7 * i + length + j) % 256 for i in range(length))
                for j in range(5)]
    assert (_sha3_256_many_via_packed_keccak_f(messages)
            == [hashlib.sha3_256(m).digest() for m in messages])


def test_many_matches_one_by_one_for_every_length_to_600():
    # Crosses every 136-byte block boundary up to five blocks, in one call
    # wider than a group.
    messages = [bytes((11 * i + n) % 256 for i in range(n)) for n in range(601)]
    assert len(messages) > GROUP_WIDTH
    assert keccak256_many(messages) == [keccak256(m) for m in messages]


@pytest.mark.parametrize("size", [0, 1, 2, 17, GROUP_WIDTH, GROUP_WIDTH + 1,
                                  2 * GROUP_WIDTH + 5])
def test_many_group_sizes(size):
    rng = random.Random(size)
    messages = [rng.randbytes(rng.randrange(0, 420)) for _ in range(size)]
    assert keccak256_many(messages) == [keccak256(m) for m in messages]


def test_many_keeps_input_order_with_mixed_lengths_and_duplicates():
    messages = [b"x" * 300, b"", b"abc", b"x" * 300, b"y" * 136, b"abc",
                b"z" * 135, b"", b"w" * 544]
    digests = keccak256_many(messages)
    assert digests == [keccak256(m) for m in messages]
    assert digests[0] == digests[3] and digests[2] == digests[5]
    assert keccak256_many(messages[::-1]) == digests[::-1]
    assert digests[1] == bytes.fromhex(KNOWN_VECTORS[0][1])
    assert digests[2] == bytes.fromhex(KNOWN_VECTORS[1][1])


def test_one_set_of_slot_constants_per_group(monkeypatch):
    """A group builds its slot constants once, at its widest, and narrows
    them as its states finish: after a load-split run the constants cache
    holds no more entries than there were distinct group widths."""
    spec = importlib.util.spec_from_file_location(
        "perfbench_workloads", ROOT / "perfbench" / "workloads.py")
    workloads = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)
    groups, built = [], []
    absorb, constants = keccak_mod._absorb_group, keccak_mod._slot_constants
    monkeypatch.setattr(keccak_mod, "_absorb_group",
                        lambda padded, *rest: groups.append(len(padded))
                        or absorb(padded, *rest))
    monkeypatch.setattr(keccak_mod, "_slot_constants",
                        lambda k: built.append(k) or constants(k))
    constants.cache_clear()
    Simulator(parse_scenario(workloads.GENERATORS["load-split"](1))).run()
    assert built == groups
    assert len(groups) > len(set(groups)) > 1
    assert constants.cache_info().currsize <= len(set(groups))


@given(st.lists(st.binary(max_size=700), max_size=40))
@settings(max_examples=60, deadline=None)
def test_many_equals_map(messages):
    assert keccak256_many(messages) == [keccak256(m) for m in messages]


def test_digest_length_is_32():
    assert len(keccak256(b"anything")) == 32


@given(st.binary(max_size=512))
@settings(max_examples=200)
def test_deterministic(data):
    assert keccak256(data) == keccak256(data)


@given(st.binary(max_size=256), st.binary(max_size=256))
@settings(max_examples=200)
def test_distinct_inputs_distinct_digests(a, b):
    if a != b:
        assert keccak256(a) != keccak256(b)


@given(st.binary(min_size=130, max_size=145))
@settings(max_examples=60)
def test_rate_boundary_lengths(data):
    # Messages straddling the 136-byte rate exercise multi-block absorb.
    digest = keccak256(data)
    assert len(digest) == 32
    assert digest == keccak256(bytes(data))


def test_accepts_bytearray():
    assert keccak256(bytearray(b"abc")) == keccak256(b"abc")


# -- digest cache ------------------------------------------------------------------

def counting_cache(monkeypatch, size=4096):
    """A DigestCache over sender strings, and the list of the batches it
    hashed."""
    batches = []
    real = keccak_mod.keccak256_many
    monkeypatch.setattr(keccak_mod, "keccak256_many",
                        lambda msgs: batches.append(list(msgs)) or real(msgs))
    cache = DigestCache(str.encode, lambda d: d[:20], size=size)
    return cache, batches


def test_digest_cache_hashes_only_new_keys_in_one_batch(monkeypatch):
    cache, batches = counting_cache(monkeypatch)
    keys = ["a", "b", "a", "c"]
    assert cache.many(keys) == [keccak256(k.encode())[:20] for k in keys]
    assert batches == [[b"a", b"b", b"c"]]
    assert cache("b") == keccak256(b"b")[:20]
    assert cache.many(["c", "d", "a"])[1] == keccak256(b"d")[:20]
    assert batches == [[b"a", b"b", b"c"], [b"d"]]
    assert cache.many([]) == []


def test_digest_cache_forgets_its_oldest_past_its_size(monkeypatch):
    cache, batches = counting_cache(monkeypatch, size=3)
    keys = [str(i) for i in range(5)]
    # A batch larger than the cache still answers every key.
    assert cache.many(keys) == [keccak256(k.encode())[:20] for k in keys]
    cache.many(["2", "3", "4"])
    assert len(batches) == 1
    cache("0")
    assert batches[-1] == [b"0"]
    cache.many(["3", "4", "0"])
    assert batches[-1] == [b"0"] and len(batches) == 2
    cache("2")  # evicted by "0"
    assert batches[-1] == [b"2"]


def test_digest_cache_answers_keys_it_forgets_while_storing(monkeypatch):
    cache, batches = counting_cache(monkeypatch, size=2)
    cache.many(["a", "b"])
    # Storing "c" forgets "a", which this same call asks for.
    assert cache.many(["a", "c"]) == [keccak256(b"a")[:20],
                                      keccak256(b"c")[:20]]
    assert batches == [[b"a", b"b"], [b"c"]]
