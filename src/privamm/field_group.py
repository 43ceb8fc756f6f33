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
base^(d * 2^(7i)) mod p for the 128 digits d, and a commitment multiplies
one entry per 7-bit window of x and of r. The tables are a pure function
of the `GroupParams` they are cached under, so they change no output.

No floating point is used anywhere in this module.
"""

from __future__ import annotations

import functools
import hashlib
import math
from dataclasses import dataclass


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
        return cls(int(obj["p"]), int(obj["q"]), int(obj["g"]), int(obj["h"]))


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


#: Window width of the fixed-base tables: 128 entries per row, 37 rows for
#: a 255-bit q, so a commit reads 74 entries. 8-bit windows read 64, but
#: their table takes about twice as long to build, and that outweighs what
#: a `verify` with few openings (110 on mev-sweep) saves.
_WINDOW = 7
_DIGIT = (1 << _WINDOW) - 1


def _base_table(base: int, p: int, rows: int) -> tuple:
    """Row i holds base^(d * 2^(_WINDOW * i)) mod p for d = 0 .. _DIGIT."""
    table = []
    for _ in range(rows):
        row = [1]
        for _ in range(_DIGIT):
            row.append(row[-1] * base % p)
        table.append(tuple(row))
        base = row[-1] * base % p
    return tuple(table)


@functools.lru_cache(maxsize=8)
def _commit_tables(params: GroupParams) -> tuple:
    """The (g, h) fixed-base tables, enough rows for any exponent < q.

    For a 255-bit q that is 37 rows of 128 entries per base: 9,472
    residues of 256 bits, about 0.65 MB for both bases, built in about
    6 ms on first use.
    """
    rows = -(-params.q.bit_length() // _WINDOW)
    return (_base_table(params.g, params.p, rows),
            _base_table(params.h, params.p, rows))


def pedersen_commit(params: GroupParams, x: int, r: int) -> int:
    """Comm(x, r) = g^x * h^r mod p, with exponents in [0, q).

    Reads one entry per ``_WINDOW``-bit window of x and of r from the
    fixed-base tables of ``params`` (built on first use, cached per
    `GroupParams`): row i, entry d is base^(d * 2^(_WINDOW * i)), so the
    product over all rows is exactly g^x * h^r. Each row reduces mod p
    once, after both of its multiplications.
    """
    x = int(x)
    r = int(r)
    if not 0 <= x < params.q:
        raise RangeError(f"committed value {x} not in [0, {params.q})")
    if not 0 <= r < params.q:
        raise RangeError(f"blinding factor {r} not in [0, {params.q})")
    p = params.p
    acc = 1
    for row_g, row_h in zip(*_commit_tables(params)):
        acc = acc * row_g[x & _DIGIT] * row_h[r & _DIGIT] % p
        x >>= _WINDOW
        r >>= _WINDOW
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
