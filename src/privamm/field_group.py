"""A Schnorr-style commitment group and Pedersen commitments.

The group is the order-q subgroup of Z_p* with p = 2q + 1 a safe prime.
Committed values and blinding factors live in Z_q (exponents); commitments
live in the subgroup. `commitment_combine` multiplies commitments, which
adds the committed values and blinding factors — the homomorphism used to
check share deliveries against an on-chain commitment.

`group_setup` walks a seeded hash stream of candidates q. A combined sieve
rejects q when q or 2q + 1 has an odd prime factor below 4000 (Wiener,
"Safe prime generation with a combined sieve", eprint 2003/186), a base-2
Fermat test filters both, and Miller–Rabin with bases hashed from the
candidate decides. The filters only ever reject composites, so the first
accepted candidate, and with it (p, q, g, h), depends on the seed alone.

`pedersen_commit` uses fixed-base tables (Brickell–Gordon–McCurley–Wilson,
EUROCRYPT '92; Lim–Lee, CRYPTO '94): row i of a base's table holds
base^(d * 256^i) mod p for the 256 byte values d, and a commitment
multiplies one entry per byte of x and of r, read with `int.to_bytes`.
h's rows cover every exponent below q; g's rows are built only as far as
the longest value committed so far. The tables are a pure function of the
`GroupParams` they are cached under, so they change no output.

No floating point is used anywhere in this module.
"""

from __future__ import annotations

import functools
import hashlib
import math
from dataclasses import dataclass

from .rlp import canonical_int


class ParameterError(ValueError):
    """Unsupported or inconsistent group parameters."""


class RangeError(ValueError):
    """Exponent operand out of range."""


@dataclass(frozen=True, slots=True)
class GroupParams:
    """A prime-order subgroup of Z_p* with two independent generators.

    p = 2q + 1, both prime; g and h generate the order-q subgroup; h is
    derived from g by hashing, so nobody knows log_g(h).
    """

    p: int
    q: int
    g: int
    h: int

    def __post_init__(self):
        if (self.p - 1) % self.q != 0:
            raise ParameterError("q must divide p - 1")
        for name, gen in (("g", self.g), ("h", self.h)):
            if gen in (0, 1) or pow(gen, self.q, self.p) != 1:
                raise ParameterError(f"{name} is not an order-q subgroup element")
        if self.g == self.h:
            raise ParameterError("g and h must be distinct")

    def to_json(self) -> dict:
        return {"p": str(self.p), "q": str(self.q), "g": str(self.g), "h": str(self.h)}

    @classmethod
    def from_json(cls, obj: dict) -> "GroupParams":
        return cls(*(canonical_int(obj[name]) for name in "pqgh"))


@dataclass(frozen=True, slots=True)
class Opening:
    """The (value, blinding) pair that opens a Pedersen commitment."""

    x: int
    r: int


# Fixed tiny group for statistical tests: p = 23 = 2*11 + 1.
TEST_GROUP = GroupParams(p=23, q=11, g=2, h=3)


def _hash_stream(label: bytes, seed: bytes, counter: int, nbytes: int) -> int:
    digest = b""
    block = 0
    while len(digest) < nbytes:
        digest += hashlib.sha256(
            label + seed + counter.to_bytes(8, "big") + block.to_bytes(4, "big")
        ).digest()
        block += 1
    return int.from_bytes(digest[:nbytes], "big")


#: (s, (s - 1) / 2) for each odd prime s < 4000. q % s == (s - 1) / 2 is
#: exactly the case 2q + 1 ≡ 0 (mod s).
_SIEVE = tuple(
    (s, (s - 1) // 2)
    for s in range(3, 4000, 2)
    if all(s % f for f in range(3, math.isqrt(s) + 1, 2))
)


def _may_be_safe_prime(q: int) -> bool:
    """Cheap filters that reject only q for which q or 2q + 1 is composite
    (q is larger than every sieving prime)."""
    for s, half in _SIEVE:
        m = q % s
        if m == 0 or m == half:
            return False
    p = 2 * q + 1
    return pow(2, q - 1, q) == 1 and pow(2, p - 1, p) == 1


def _is_prime(n: int, _k: int = 40) -> bool:
    """Miller–Rabin with 40 bases hashed from n (never the global
    `random` state), after trial division by the primes below 40."""
    if n < 2:
        return False
    for small in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
        if n % small == 0:
            return n == small
    d, r = n - 1, 0
    while d % 2 == 0:
        d //= 2
        r += 1
    n_bytes = n.to_bytes((n.bit_length() + 7) // 8, "big")
    for i in range(_k):
        # Bases in [2, n - 2], derived from n.
        a = _hash_stream(b"group/mr", n_bytes, i, 32) % (n - 3) + 2
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(r - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def group_setup(security_bits: int, seed: bytes) -> GroupParams:
    """Deterministically derive commitment-group parameters from a seed.

    ``security_bits=16`` returns the fixed test group (23, 11, 2, 3);
    ``security_bits=256`` searches a seeded hash stream for a safe prime
    p = 2q + 1 with p of 256 bits, then picks generators by squaring hash
    outputs (squares generate the order-q subgroup). Neither step reads
    the global `random` state.
    """
    if isinstance(seed, str):
        seed = seed.encode()
    if not seed:
        raise ParameterError("seed must be non-empty")
    if security_bits == 16:
        return TEST_GROUP
    if security_bits != 256:
        raise ParameterError(f"unsupported security_bits {security_bits}")

    qbits = security_bits - 1
    counter = 0
    while True:
        q = _hash_stream(b"group/q", seed, counter, qbits // 8 + 1)
        q |= 1 << (qbits - 1)  # pin the size
        q |= 1  # odd
        q &= (1 << qbits) - 1
        counter += 1
        if _may_be_safe_prime(q) and _is_prime(q) and _is_prime(2 * q + 1):
            break
    p = 2 * q + 1

    g_counter = 0
    while True:
        u = _hash_stream(b"group/g", seed, g_counter, 32) % p
        g = pow(u, 2, p)
        g_counter += 1
        if g != 1:
            break
    h_counter = 0
    g_bytes = g.to_bytes(32, "big")
    while True:
        u = _hash_stream(b"group/h", g_bytes, h_counter, 32) % p
        h = pow(u, 2, p)
        h_counter += 1
        if h not in (1, g):
            break
    return GroupParams(p=p, q=q, g=g, h=h)


#: Fixed-base rows are 8 bits wide and built by need. For a 255-bit q, h
#: gets all 32 rows of 256 entries on first use (8,192 residues); g gets a
#: row per byte of the longest value committed yet. Trade amounts fit in 7
#: bytes, so a process that only trades builds 9,984 residues, about as
#: many as 7-bit windows over both bases (9,472): full 8-bit tables were
#: too dear to build for mev-sweep's 110 verify openings, these are not.
#: A commit reads 32 + len(x) entries instead of 74 (CPython 3.11, Xeon):
#: 25 -> 18 us for x in [10^11, 10^15), 34 -> 27 us for a full-width x.
def _extend_rows(rows: list, base: int, p: int, n: int) -> list:
    """Grow ``rows`` to n rows; row i holds base^(d * 256^i) mod p, d < 256."""
    if rows:
        base = rows[-1][-1] * rows[-1][1] % p
    while len(rows) < n:
        row = [1]
        for _ in range(255):
            row.append(row[-1] * base % p)
        rows.append(row)
        base = row[-1] * base % p
    return rows


@functools.lru_cache(maxsize=8)
def _commit_tables(params: GroupParams) -> tuple:
    """``params``' (g, h) rows: h has one per byte of q, g grows on use."""
    return [], _extend_rows([], params.h, params.p,
                            (params.q.bit_length() + 7) // 8)


def pedersen_commit(params: GroupParams, x: int, r: int) -> int:
    """Comm(x, r) = g^x * h^r mod p, with integer exponents in [0, q).

    Multiplies one table entry per byte of x and of r (little-endian, so
    byte i of x selects from g's row i), reducing mod p once per row: the
    product over all rows is exactly g^x * h^r. Anything but an int in
    range, such as 2.5 or Fraction(5, 2), raises `RangeError`.
    """
    q = params.q
    if not isinstance(x, int) or not 0 <= x < q:
        raise RangeError(f"committed value {x!r} is not an integer in [0, {q})")
    if not isinstance(r, int) or not 0 <= r < q:
        raise RangeError(f"blinding factor {r!r} is not an integer in [0, {q})")
    p = params.p
    g_rows, h_rows = _commit_tables(params)
    x_bytes = x.to_bytes((x.bit_length() + 7) // 8, "little")
    if len(x_bytes) > len(g_rows):
        _extend_rows(g_rows, params.g, p, len(x_bytes))
    blinding = zip(r.to_bytes(len(h_rows), "little"), h_rows)
    acc = 1
    for a, g_row, (b, h_row) in zip(x_bytes, g_rows, blinding):
        acc = acc * g_row[a] * h_row[b] % p
    for b, h_row in blinding:
        acc = acc * h_row[b] % p
    return acc


def pedersen_verify_opening(params: GroupParams, c: int, opening: Opening) -> bool:
    """True iff (opening.x, opening.r) recomputes exactly the commitment c."""
    try:
        return pedersen_commit(params, opening.x, opening.r) == c
    except RangeError:
        return False


def commitment_combine(params: GroupParams, c1: int, c2: int) -> int:
    """Homomorphic combine: commit(x1+x2, r1+r2) from the two commitments."""
    return (c1 * c2) % params.p


def commitment_combine_many(params: GroupParams, commitments) -> int:
    """Fold `commitment_combine` over a sequence (identity 1 when empty)."""
    acc = 1
    for c in commitments:
        acc = (acc * c) % params.p
    return acc
