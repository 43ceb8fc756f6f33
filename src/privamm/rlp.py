"""Recursive-length-prefix serialization for byte strings and nested lists.

Canonical form only: the decoder rejects non-minimal length fields and
single bytes wrapped in a long form, so every byte sequence has at most one
decoding. Trie nodes depend on this for tamper detection.

``canonical_json`` is the one canonical JSON text the package hashes or
logs: sorted keys, no whitespace. One encoder serves every call.
``canonical_int`` is the one reader of an integer written as text: it
takes only what ``str(n)`` writes.
"""

from __future__ import annotations

import json

canonical_json = json.JSONEncoder(sort_keys=True, separators=(",", ":")).encode


def canonical_int(text) -> int:
    """An integer exactly as the writer writes one: ``str(n)``."""
    n = int(text) if type(text) is str else None
    if n is None or str(n) != text:
        raise ValueError("not a canonical decimal integer")
    return n


class RlpError(ValueError):
    """Malformed or non-canonical RLP input."""


def _encode_length(length: int, offset: int) -> bytes:
    if length <= 55:
        return bytes([offset + length])
    length_bytes = length.to_bytes((length.bit_length() + 7) // 8, "big")
    return bytes([offset + 55 + len(length_bytes)]) + length_bytes


def rlp_encode(item) -> bytes:
    """Encode ``bytes`` or an arbitrarily nested list of them."""
    if isinstance(item, (bytes, bytearray)):
        data = bytes(item)
        if len(data) == 1 and data[0] < 0x80:
            return data
        return _encode_length(len(data), 0x80) + data
    if isinstance(item, (list, tuple)):
        payload = b"".join(rlp_encode(elem) for elem in item)
        return _encode_length(len(payload), 0xC0) + payload
    raise TypeError(f"cannot RLP-encode {type(item).__name__}")


def _decode_at(data: bytes, pos: int):
    """Decode one item starting at ``pos``; returns (item, next_pos)."""
    if pos >= len(data):
        raise RlpError("truncated input")
    prefix = data[pos]
    if prefix < 0x80:
        return bytes([prefix]), pos + 1
    if prefix <= 0xB7:
        length = prefix - 0x80
        end = pos + 1 + length
        if end > len(data):
            raise RlpError("string extends past end of input")
        payload = data[pos + 1 : end]
        if length == 1 and payload[0] < 0x80:
            raise RlpError("non-canonical single byte")
        return payload, end
    if prefix <= 0xBF:
        lenlen = prefix - 0xB7
        length, start = _read_length(data, pos + 1, lenlen)
        if length <= 55:
            raise RlpError("non-canonical long string")
        end = start + length
        if end > len(data):
            raise RlpError("string extends past end of input")
        return data[start:end], end
    if prefix <= 0xF7:
        length = prefix - 0xC0
        end = pos + 1 + length
        if end > len(data):
            raise RlpError("list extends past end of input")
        return _decode_list(data, pos + 1, end), end
    lenlen = prefix - 0xF7
    length, start = _read_length(data, pos + 1, lenlen)
    if length <= 55:
        raise RlpError("non-canonical long list")
    end = start + length
    if end > len(data):
        raise RlpError("list extends past end of input")
    return _decode_list(data, start, end), end


def _read_length(data: bytes, pos: int, lenlen: int):
    if pos + lenlen > len(data):
        raise RlpError("truncated length field")
    raw = data[pos : pos + lenlen]
    if raw[0] == 0:
        raise RlpError("length field has leading zero")
    return int.from_bytes(raw, "big"), pos + lenlen


def _decode_list(data: bytes, start: int, end: int) -> list:
    items = []
    pos = start
    while pos < end:
        item, pos = _decode_at(data, pos)
        items.append(item)
    if pos != end:
        raise RlpError("list payload overruns declared length")
    return items


def rlp_decode(data: bytes):
    """Decode a single RLP item; trailing bytes are an error."""
    item, end = _decode_at(bytes(data), 0)
    if end != len(data):
        raise RlpError("trailing bytes after item")
    return item
