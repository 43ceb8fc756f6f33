"""Keccak-256, the original 0x01-padded sponge as used for account tries.

This is deliberately NOT hashlib's sha3_256: the NIST standard changed the
padding byte to 0x06, which produces different digests. Rate 1088 bits,
capacity 512, output 256 bits.

The permutation is written out lane by lane in local variables (the
"unrolled, in-register" form of the Keccak implementation overview, section
2) since every trie update and account-proof check runs through it.
"""

from __future__ import annotations

_ROUND_CONSTANTS = (
    0x0000000000000001, 0x0000000000008082, 0x800000000000808A, 0x8000000080008000,
    0x000000000000808B, 0x0000000080000001, 0x8000000080008081, 0x8000000000008009,
    0x000000000000008A, 0x0000000000000088, 0x0000000080008009, 0x000000008000000A,
    0x000000008000808B, 0x800000000000008B, 0x8000000000008089, 0x8000000000008003,
    0x8000000000008002, 0x8000000000000080, 0x000000000000800A, 0x800000008000000A,
    0x8000000080008081, 0x8000000000008080, 0x0000000080000001, 0x8000000080008008,
)

_MASK = (1 << 64) - 1
_RATE_BYTES = 136
_DIGEST_BYTES = 32


def _keccak_f(lanes: list[int]) -> None:
    """Keccak-f[1600] permutation, in place on 25 64-bit lanes.

    Unrolled: lane ``x + 5y`` (A[x][y]) lives in local ``a{x+5y}`` for all 24
    rounds and is written back once, because this is the hot path of every
    trie update and proof check. Theta is folded into rho/pi, which leave the
    rotated A[x][y] in ``b{y + 5((2x + 3y) % 5)}``; chi and iota read ``b``
    back into ``a``.
    """
    mask = _MASK
    (a0, a1, a2, a3, a4, a5, a6, a7, a8, a9, a10, a11, a12,
     a13, a14, a15, a16, a17, a18, a19, a20, a21, a22, a23, a24) = lanes
    for rc in _ROUND_CONSTANTS:
        # theta
        c0 = a0 ^ a5 ^ a10 ^ a15 ^ a20
        c1 = a1 ^ a6 ^ a11 ^ a16 ^ a21
        c2 = a2 ^ a7 ^ a12 ^ a17 ^ a22
        c3 = a3 ^ a8 ^ a13 ^ a18 ^ a23
        c4 = a4 ^ a9 ^ a14 ^ a19 ^ a24
        d0 = c4 ^ (((c1 << 1) | (c1 >> 63)) & mask)
        d1 = c0 ^ (((c2 << 1) | (c2 >> 63)) & mask)
        d2 = c1 ^ (((c3 << 1) | (c3 >> 63)) & mask)
        d3 = c2 ^ (((c4 << 1) | (c4 >> 63)) & mask)
        d4 = c3 ^ (((c0 << 1) | (c0 >> 63)) & mask)
        # rho + pi, with theta's d applied on the way in
        b0 = a0 ^ d0
        t = a6 ^ d1
        b1 = ((t << 44) | (t >> 20)) & mask
        t = a12 ^ d2
        b2 = ((t << 43) | (t >> 21)) & mask
        t = a18 ^ d3
        b3 = ((t << 21) | (t >> 43)) & mask
        t = a24 ^ d4
        b4 = ((t << 14) | (t >> 50)) & mask
        t = a3 ^ d3
        b5 = ((t << 28) | (t >> 36)) & mask
        t = a9 ^ d4
        b6 = ((t << 20) | (t >> 44)) & mask
        t = a10 ^ d0
        b7 = ((t << 3) | (t >> 61)) & mask
        t = a16 ^ d1
        b8 = ((t << 45) | (t >> 19)) & mask
        t = a22 ^ d2
        b9 = ((t << 61) | (t >> 3)) & mask
        t = a1 ^ d1
        b10 = ((t << 1) | (t >> 63)) & mask
        t = a7 ^ d2
        b11 = ((t << 6) | (t >> 58)) & mask
        t = a13 ^ d3
        b12 = ((t << 25) | (t >> 39)) & mask
        t = a19 ^ d4
        b13 = ((t << 8) | (t >> 56)) & mask
        t = a20 ^ d0
        b14 = ((t << 18) | (t >> 46)) & mask
        t = a4 ^ d4
        b15 = ((t << 27) | (t >> 37)) & mask
        t = a5 ^ d0
        b16 = ((t << 36) | (t >> 28)) & mask
        t = a11 ^ d1
        b17 = ((t << 10) | (t >> 54)) & mask
        t = a17 ^ d2
        b18 = ((t << 15) | (t >> 49)) & mask
        t = a23 ^ d3
        b19 = ((t << 56) | (t >> 8)) & mask
        t = a2 ^ d2
        b20 = ((t << 62) | (t >> 2)) & mask
        t = a8 ^ d3
        b21 = ((t << 55) | (t >> 9)) & mask
        t = a14 ^ d4
        b22 = ((t << 39) | (t >> 25)) & mask
        t = a15 ^ d0
        b23 = ((t << 41) | (t >> 23)) & mask
        t = a21 ^ d1
        b24 = ((t << 2) | (t >> 62)) & mask
        # chi + iota; ~x & y needs no mask since y < 2**64
        a0 = b0 ^ (~b1 & b2) ^ rc
        a1 = b1 ^ (~b2 & b3)
        a2 = b2 ^ (~b3 & b4)
        a3 = b3 ^ (~b4 & b0)
        a4 = b4 ^ (~b0 & b1)
        a5 = b5 ^ (~b6 & b7)
        a6 = b6 ^ (~b7 & b8)
        a7 = b7 ^ (~b8 & b9)
        a8 = b8 ^ (~b9 & b5)
        a9 = b9 ^ (~b5 & b6)
        a10 = b10 ^ (~b11 & b12)
        a11 = b11 ^ (~b12 & b13)
        a12 = b12 ^ (~b13 & b14)
        a13 = b13 ^ (~b14 & b10)
        a14 = b14 ^ (~b10 & b11)
        a15 = b15 ^ (~b16 & b17)
        a16 = b16 ^ (~b17 & b18)
        a17 = b17 ^ (~b18 & b19)
        a18 = b18 ^ (~b19 & b15)
        a19 = b19 ^ (~b15 & b16)
        a20 = b20 ^ (~b21 & b22)
        a21 = b21 ^ (~b22 & b23)
        a22 = b22 ^ (~b23 & b24)
        a23 = b23 ^ (~b24 & b20)
        a24 = b24 ^ (~b20 & b21)
    lanes[:] = (a0, a1, a2, a3, a4, a5, a6, a7, a8, a9, a10, a11, a12,
                a13, a14, a15, a16, a17, a18, a19, a20, a21, a22, a23, a24)


def keccak256(data: bytes) -> bytes:
    """One-shot Keccak-256 digest of ``data``."""
    lanes = [0] * 25
    # multi-rate padding: 0x01 ... 0x80 (collapsing to 0x81 for a 1-byte pad)
    padlen = _RATE_BYTES - (len(data) % _RATE_BYTES)
    if padlen == 1:
        padded = data + b"\x81"
    else:
        padded = data + b"\x01" + b"\x00" * (padlen - 2) + b"\x80"
    for off in range(0, len(padded), _RATE_BYTES):
        block = padded[off : off + _RATE_BYTES]
        for i in range(17):  # 136 bytes = 17 lanes
            lanes[i] ^= int.from_bytes(block[8 * i : 8 * i + 8], "little")
        _keccak_f(lanes)
    return b"".join(lanes[i].to_bytes(8, "little") for i in range(4))

