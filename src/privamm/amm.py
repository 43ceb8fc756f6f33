"""Constant-product market maker in exact rational arithmetic.

The pool holds an energy reserve E and a money reserve M with E * M = C
held invariant across trades. A buy of e energy tokens costs
C*e / (E*(E-e)) money tokens at effective price C / (E*(E-e)), moving the
reserves to (E-e, C/(E-e)); a sell mirrors this with E+e. All quantities
are `fractions.Fraction`, so conservation is testable with zero tolerance.

There are no fees and no partial fills: an order carries a limit rate and
is rejected outright if the effective price violates it.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Tuple


class AmmError(Exception):
    """Base class for market-maker failures."""


class LiquidityError(AmmError):
    """Trade would drain or exceed the pool reserve (liquidity error)."""


class QuantityError(AmmError):
    """Non-positive or otherwise out-of-range trade quantity."""


class OrderRejected(AmmError):
    """Limit rate violated; pool state is unchanged."""


def _rational(x) -> Fraction:
    if isinstance(x, float):
        raise TypeError("floats are not accepted; pass Fraction, int, or str")
    return Fraction(x)


@dataclass(frozen=True, slots=True)
class PoolState:
    """Immutable pool snapshot; E*M = C is checked at construction."""

    E: Fraction
    M: Fraction
    C: Fraction

    def __post_init__(self):
        if self.E <= 0 or self.M <= 0:
            raise LiquidityError("liquidity error: reserves must be positive")
        if self.E * self.M != self.C:
            raise AmmError("pool constant violated: E*M != C")

    def to_json(self) -> dict:
        return {
            "E": {"num": str(self.E.numerator), "den": str(self.E.denominator)},
            "M": {"num": str(self.M.numerator), "den": str(self.M.denominator)},
            "C": {"num": str(self.C.numerator), "den": str(self.C.denominator)},
        }

    @classmethod
    def from_json(cls, obj: dict) -> "PoolState":
        def frac(d):
            return Fraction(int(d["num"]), int(d["den"]))

        return cls(frac(obj["E"]), frac(obj["M"]), frac(obj["C"]))


@dataclass(frozen=True, slots=True)
class Quote:
    """Executable terms for a single order.

    For buys, amount_in is money paid and amount_out is energy received;
    for sells, amount_in is energy paid and amount_out is money received.
    effective_price is always money per energy.
    """

    amount_in: Fraction
    amount_out: Fraction
    effective_price: Fraction
    price_impact: Fraction


@dataclass(frozen=True, slots=True)
class Order:
    side: str  # "buy" | "sell"
    quantity_e: Fraction
    limit_rate: Fraction
    trader_id: str = ""

    def __post_init__(self):
        if self.side not in ("buy", "sell"):
            raise QuantityError(f"unknown order side {self.side!r}")
        if self.quantity_e <= 0:
            raise QuantityError("order quantity must be positive")


def pool_init(E0, M0) -> PoolState:
    """Open a pool with reserves (E0, M0); the constant C = E0*M0."""
    E0, M0 = _rational(E0), _rational(M0)
    if E0 <= 0 or M0 <= 0:
        raise LiquidityError("liquidity error: initial reserves must be positive")
    return PoolState(E=E0, M=M0, C=E0 * M0)


def spot_price(pool: PoolState) -> Fraction:
    """Marginal price M/E; the equivalent forms C/E^2 and M^2/C must agree."""
    if pool.E <= 0:
        raise LiquidityError("liquidity error: empty energy reserve")
    p = pool.M / pool.E
    assert p == pool.C / pool.E**2 == pool.M**2 / pool.C
    return p


def quote_buy(pool: PoolState, e) -> Quote:
    """Quote a purchase of e energy tokens against the pool."""
    e = _rational(e)
    if e <= 0:
        raise QuantityError("buy quantity must be positive")
    if e >= pool.E:
        raise LiquidityError(
            f"liquidity error: buy of {e} would drain reserve {pool.E}"
        )
    amount_in = pool.C * e / (pool.E * (pool.E - e))
    effective = pool.C / (pool.E * (pool.E - e))
    impact = e / (pool.E - e)
    return Quote(
        amount_in=amount_in,
        amount_out=e,
        effective_price=effective,
        price_impact=impact,
    )


def quote_sell(pool: PoolState, e) -> Quote:
    """Quote a sale of e energy tokens into the pool (mirror of quote_buy)."""
    e = _rational(e)
    if e <= 0:
        raise QuantityError("sell quantity must be positive")
    amount_out = pool.C * e / (pool.E * (pool.E + e))
    effective = pool.C / (pool.E * (pool.E + e))
    impact = e / (pool.E + e)
    return Quote(
        amount_in=e,
        amount_out=amount_out,
        effective_price=effective,
        price_impact=impact,
    )


def price_impact(pool: PoolState, e) -> Fraction:
    """Relative price worsening e/(E-e) for a buy of e.

    Identical to (effective_price - spot_price) / spot_price, asserted.
    """
    e = _rational(e)
    quote = quote_buy(pool, e)
    impact = e / (pool.E - e)
    assert impact == (quote.effective_price - spot_price(pool)) / spot_price(pool)
    return impact


def swap(pool: PoolState, side: str, e) -> Tuple[PoolState, Quote]:
    """Trade e energy tokens with no limit: the next pool and the quote.

    A buy moves the reserves to (E-e, C/(E-e)), a sell to (E+e, C/(E+e)).
    """
    if side == "buy":
        quote = quote_buy(pool, e)
        new_e = pool.E - quote.amount_out
    else:
        quote = quote_sell(pool, e)
        new_e = pool.E + quote.amount_in
    return PoolState(E=new_e, M=pool.C / new_e, C=pool.C), quote


def apply_trade(pool: PoolState, order: Order) -> Tuple[PoolState, Quote]:
    """Execute an order, returning the new pool state and the filled quote.

    Buys require effective_price <= limit_rate; sells require
    effective_price >= limit_rate. A violated limit raises OrderRejected
    and leaves the pool untouched.
    """
    new_state, quote = swap(pool, order.side, order.quantity_e)
    if order.side == "buy" and quote.effective_price > order.limit_rate:
        raise OrderRejected(
            f"buy limit {order.limit_rate} below effective price "
            f"{quote.effective_price}"
        )
    if order.side == "sell" and quote.effective_price < order.limit_rate:
        raise OrderRejected(
            f"sell limit {order.limit_rate} above effective price "
            f"{quote.effective_price}"
        )
    return new_state, quote
