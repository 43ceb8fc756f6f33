"""Keccak-256, the original 0x01-padded sponge as used for account tries.

This is deliberately NOT hashlib's sha3_256: the NIST standard changed the
padding byte to 0x06, which produces different digests. Rate 1088 bits,
capacity 512, output 256 bits.

The permutation is written out lane by lane in local variables (the
"unrolled, in-register" form of the Keccak implementation overview, section
2) since every trie update and account-proof check runs through it. Both
forms below are generated from one rotation and pi table:

- ``_keccak_f`` permutes one state of 25 64-bit lanes; ``keccak256`` uses it.
- ``_keccak_f_packed`` permutes k states at once, packed side by side in
  Python ints, one 64-bit slot per state in each lane ("SIMD within a
  register", Fisher and Dietz, LCPC 1998). Theta, chi and iota act on every
  slot at once; a rotation masks each shifted half back into its own slot.
  CPython pays about the same per int operation up to a few hundred bits
  wide, so ``keccak256_many`` hashes a group of messages in little more time
  than one.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Callable, Dict, Hashable, List, Sequence

_ROUND_CONSTANTS = (
    0x0000000000000001, 0x0000000000008082, 0x800000000000808A, 0x8000000080008000,
    0x000000000000808B, 0x0000000080000001, 0x8000000080008081, 0x8000000000008009,
    0x000000000000008A, 0x0000000000000088, 0x0000000080008009, 0x000000008000000A,
    0x000000008000808B, 0x800000000000008B, 0x8000000000008089, 0x8000000000008003,
    0x8000000000008002, 0x8000000000000080, 0x000000000000800A, 0x800000008000000A,
    0x8000000080008081, 0x8000000000008080, 0x0000000080000001, 0x8000000080008008,
)

#: Rho rotation offset of lane A[x][y], indexed ``x + 5y``; pi moves the
#: rotated lane to B[y][2x + 3y].
_RHO = (0, 1, 62, 28, 27,
        36, 44, 6, 55, 20,
        3, 10, 43, 25, 39,
        41, 45, 15, 21, 8,
        18, 2, 61, 56, 14)
#: Every left rotation the permutation makes: theta's 1 and rho's offsets.
_ROTATIONS = sorted({1, *_RHO} - {0})

_MASK = (1 << 64) - 1
_RATE_BYTES = 136
_RATE_LANES = 17

#: States permuted together by ``keccak256_many``. On real proof batches
#: (236 to 1,327 messages) 192 to 512 slots timed within 10% of each other
#: and of the fastest; the per-width constants grow with the width.
GROUP_WIDTH = 192


def _permutation(name: str, params: str, prologue: str, rotl) -> object:
    """Compile the unrolled Keccak-f[1600] with ``rotl(var, r)`` as the
    source text of a left rotation of ``var`` by ``r`` bits.

    Lane ``x + 5y`` (A[x][y]) lives in local ``a{x+5y}`` for all 24 rounds
    and is written back once. Theta is folded into rho/pi, which leave the
    rotated A[x][y] in ``b{y + 5((2x + 3y) % 5)}``; chi and iota read ``b``
    back into ``a``. ``~x & y`` needs no mask since ``y`` is non-negative.
    """
    a = ", ".join(f"a{i}" for i in range(25))
    src = [f"def {name}({params}):", prologue, f"    ({a}) = lanes",
           "    for rc in rcs:"]
    for x in range(5):
        src.append(f"        c{x} = " + " ^ ".join(f"a{x + 5 * y}" for y in range(5)))
    for x in range(5):
        src.append(f"        d{x} = c{(x - 1) % 5} ^ {rotl(f'c{(x + 1) % 5}', 1)}")
    pi = sorted((y + 5 * ((2 * x + 3 * y) % 5), x, y)
                for x in range(5) for y in range(5))
    for dst, x, y in pi:
        lane, r = x + 5 * y, _RHO[x + 5 * y]
        if r == 0:
            src.append(f"        b{dst} = a{lane} ^ d{x}")
        else:
            src.append(f"        t = a{lane} ^ d{x}")
            src.append(f"        b{dst} = {rotl('t', r)}")
    for y in range(5):
        for x in range(5):
            i, i1, i2 = x + 5 * y, (x + 1) % 5 + 5 * y, (x + 2) % 5 + 5 * y
            iota = " ^ rc" if i == 0 else ""
            src.append(f"        a{i} = b{i} ^ (~b{i1} & b{i2}){iota}")
    src.append(f"    lanes[:] = ({a})")
    namespace = {"__name__": __name__, "_ROUND_CONSTANTS": _ROUND_CONSTANTS,
                 "_MASK": _MASK}
    exec("\n".join(src), namespace)  # noqa: S102 - source built above
    return namespace[name]


_keccak_f = _permutation(
    "_keccak_f", "lanes, rcs=_ROUND_CONSTANTS, mask=_MASK", "",
    lambda v, r: f"((({v} << {r}) | ({v} >> {64 - r})) & mask)")
_keccak_f.__doc__ = "Keccak-f[1600] permutation, in place on 25 64-bit lanes."

_keccak_f_packed = _permutation(
    "_keccak_f_packed", "lanes, rcs, masks",
    "    (" + ", ".join(f"h{r}, l{r}" for r in _ROTATIONS) + ",) = masks",
    lambda v, r: f"((({v} << {r}) & h{r}) | (({v} >> {64 - r}) & l{r}))")
_keccak_f_packed.__doc__ = (
    "Keccak-f[1600] on k states packed one per 64-bit slot of each lane; "
    "``rcs`` and ``masks`` come from ``_slot_constants(k)``.")


@lru_cache(maxsize=16)
def _slot_constants(k: int):
    """Round constants and rotation masks repeated once per slot for k
    states: ``h{r}`` keeps bits r..63 of each slot, ``l{r}`` bits 0..r-1."""
    ones = ((1 << 64 * k) - 1) // _MASK  # 1 in the lowest bit of each slot
    rcs = tuple(rc * ones for rc in _ROUND_CONSTANTS)
    masks = []
    for r in _ROTATIONS:
        low = (1 << r) - 1
        masks += [(_MASK ^ low) * ones, low * ones]
    return rcs, tuple(masks)


def _pad(data: bytes) -> bytes:
    """Multi-rate padding: 0x01 ... 0x80, collapsing to 0x81 for one byte."""
    padlen = _RATE_BYTES - (len(data) % _RATE_BYTES)
    if padlen == 1:
        return bytes(data) + b"\x81"
    return bytes(data) + b"\x01" + b"\x00" * (padlen - 2) + b"\x80"


def keccak256(data: bytes) -> bytes:
    """One-shot Keccak-256 digest of ``data``."""
    lanes = [0] * 25
    padded = _pad(data)
    for off in range(0, len(padded), _RATE_BYTES):
        block = padded[off : off + _RATE_BYTES]
        for i in range(_RATE_LANES):
            lanes[i] ^= int.from_bytes(block[8 * i : 8 * i + 8], "little")
        _keccak_f(lanes)
    return b"".join(lanes[i].to_bytes(8, "little") for i in range(4))


def keccak256_many(messages: Sequence[bytes]) -> List[bytes]:
    """Keccak-256 of each message, in input order; equal to mapping
    ``keccak256``, but permutes up to ``GROUP_WIDTH`` states at once."""
    if len(messages) == 1:
        return [keccak256(messages[0])]
    padded = [_pad(m) for m in messages]
    # Longest first, so the states that still have a block b are a prefix
    # of the group, and each finished state drops off its top slot.
    order = sorted(range(len(padded)), key=lambda i: -len(padded[i]))
    digests: List[bytes] = [b""] * len(padded)
    for start in range(0, len(order), GROUP_WIDTH):
        group = order[start : start + GROUP_WIDTH]
        _absorb_group([padded[i] for i in group], group, digests)
    return digests


def _absorb_group(padded: List[bytes], slots: List[int],
                  digests: List[bytes]) -> None:
    """Hash ``padded`` (longest first) as one packed state; the digest of
    ``padded[j]`` goes to ``digests[slots[j]]``."""
    lanes = [0] * 25
    live = len(padded)
    # One set of slot constants per group; a narrower width keeps the low
    # slots of each, as it keeps the low slots of each lane.
    rcs, masks = _slot_constants(live)
    off = 0
    while live:
        block = b"".join(p[off : off + _RATE_BYTES] for p in padded[:live])
        words = memoryview(block).cast("Q")  # 8-byte chunks; only reordered
        for i in range(_RATE_LANES):
            lanes[i] ^= int.from_bytes(words[i::_RATE_LANES].tobytes(), "little")
        _keccak_f_packed(lanes, rcs, masks)
        off += _RATE_BYTES
        done = live
        while live and len(padded[live - 1]) == off:
            live -= 1
        if live < done:
            out = [lanes[i].to_bytes(8 * done, "little") for i in range(4)]
            for j in range(live, done):
                digests[slots[j]] = b"".join(w[8 * j : 8 * j + 8] for w in out)
            low = (1 << 64 * live) - 1
            lanes = [lane & low for lane in lanes]
            rcs = tuple(rc & low for rc in rcs)
            masks = tuple(mask & low for mask in masks)


class DigestCache:
    """A bounded memo of ``finish(keccak256(encode(key)))`` per key.

    Calling it answers one key; ``many`` answers a list of keys and hashes
    every key it does not hold in one `keccak256_many` batch. Past
    ``size`` keys it forgets the oldest. It is the only place its values
    are kept.
    """

    __slots__ = ("_encode", "_finish", "_size", "_values")

    def __init__(self, encode: Callable[[Hashable], bytes],
                 finish: Callable[[bytes], object], size: int = 4096):
        self._encode = encode
        self._finish = finish
        self._size = size
        self._values: Dict[Hashable, object] = {}

    def __call__(self, key):
        value = self._values.get(key)
        return value if value is not None else self.many([key])[0]

    def many(self, keys: Sequence[Hashable]) -> list:
        values = self._values
        missing = [k for k in dict.fromkeys(keys) if k not in values]
        if not missing:
            return [values[k] for k in keys]
        digests = keccak256_many([self._encode(k) for k in missing])
        fresh = dict(zip(missing, map(self._finish, digests)))
        # Answer before storing: storing may forget a key asked for here.
        out = [fresh[k] if k in fresh else values[k] for k in keys]
        for key, value in fresh.items():
            if len(values) >= self._size:
                del values[next(iter(values))]
            values[key] = value
        return out
