"""MEV attack strategies against plaintext and committed mempools.

In plaintext mode the attacker reads pending orders and places exactly
timed trades around them. In committed mode it sees only commitments: it
cannot learn the victim's side or size, and the sequencer shuffles the
block's transactions uniformly, so the attacker's front/back legs land
in a random order relative to the victim (the attacker is assumed to
hold inventory, so a back leg can execute before the front leg as a
short sale). Four of the six orderings leave the attacker's two legs
adjacent, which is an exact round-trip wash; the remaining two are a
sandwich and an anti-sandwich whose signs flip with the victim's side —
with the victim side unknown, expected profit collapses to noise.

Arbitrage across two pools needs no mempool knowledge (spot prices are
public after each reveal), so the privacy layer does not suppress it;
the optimal size equalizes post-trade marginal prices.

Profit is always the attacker's net money-token delta over its own
executed trades, in exact rational arithmetic. On the curve M = C/E a buy
and a sell both change the trader's money by C*(1/E_before - 1/E_after),
so a sequence is replayed on integer numerators and denominators of E and
only its result becomes a `Fraction`. The report statistics are exact on
integers too: every sample is scaled to one common denominator.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Tuple

from .amm import (LiquidityError, Order, PoolState, QuantityError,
                  spot_price, swap)
from .mpc import SCALE

_BUY = "buy"
_SELL = "sell"

#: Monte-Carlo samples are recorded at 1e-12 resolution so that large
#: sample sets keep a common denominator and exact statistics stay cheap.
#: Single-shot plaintext profits are never quantized.
_STAT_GRID = 10**12


def _quantize(p: Fraction) -> Fraction:
    """``round(p * _STAT_GRID) / _STAT_GRID``: nearest, ties to even."""
    q, r = divmod(p.numerator * _STAT_GRID, p.denominator)
    if 2 * r > p.denominator or (2 * r == p.denominator and q & 1):
        q += 1
    return Fraction(q, _STAT_GRID)


def _scaled(samples) -> Tuple[list, int]:
    """The samples' numerators over one common denominator L, and L."""
    dens = {p.denominator for p in samples}
    lcm = math.lcm(*dens)
    factor = {d: lcm // d for d in dens}
    return [p.numerator * factor[p.denominator] for p in samples], lcm


@dataclass(frozen=True, slots=True)
class AttackReport:
    strategy: str
    mode: str
    trials: int
    mean_profit: Fraction
    profit_samples: Tuple[Fraction, ...]

    def std_err(self) -> float:
        n = len(self.profit_samples)
        if n < 2:
            return 0.0
        # var = (n*sum(k^2) - sum(k)^2) / (n*(n-1)*L^2) is the rational
        # sum((p - mean)^2) / (n-1), and int / int rounds it as float() would.
        ks, lcm = _scaled(self.profit_samples)
        total = sum(ks)
        var = ((n * sum(k * k for k in ks) - total * total)
               / (n * (n - 1) * lcm * lcm))
        return math.sqrt(var / n)

    def t_stat(self) -> float:
        se = self.std_err()
        if se == 0.0:
            return 0.0 if self.mean_profit == 0 else math.inf
        return float(self.mean_profit) / se

    def to_csv_row(self) -> dict:
        return {
            "strategy": self.strategy,
            "mode": self.mode,
            "trials": str(self.trials),
            "mean_profit": f"{self.mean_profit.numerator}/"
                           f"{self.mean_profit.denominator}",
            "std_err": f"{self.std_err():.12g}",
        }


def _run_sequence(pool: PoolState, sequence) -> Fraction:
    """Execute (who, side, size) steps in order; attacker money delta.

    On the curve M = C/E a buy pays C*e/(E*(E-e)) = C*(1/(E-e) - 1/E) and
    a sell of e receives C*e/(E*(E+e)) = C*(1/E - 1/(E+e)): either way the
    trader's money changes by C*(1/E_before - 1/E_after). So E = en/ed and
    the attacker's sum of those terms, sn/sd, stay integer pairs, and one
    `Fraction` is built at the end. A step raises what `amm.swap` would.
    """
    en, ed = pool.E.numerator, pool.E.denominator
    sn, sd = 0, 1
    for who, side, size in sequence:
        qn, qd = size.numerator, size.denominator
        if qn <= 0:
            raise QuantityError(f"{side} quantity must be positive")
        if side == _BUY:
            an = en * qd - qn * ed
            if an <= 0:
                raise LiquidityError(f"liquidity error: buy of {size} would "
                                     f"drain reserve {Fraction(en, ed)}")
        else:
            an = en * qd + qn * ed
        ad = ed * qd
        if who == "attacker":
            # sn/sd += ed/en - ad/an
            sn, sd = sn * en * an + (ed * an - ad * en) * sd, sd * en * an
        en, ed = an, ad
    return Fraction(pool.C.numerator * sn, pool.C.denominator * sd)


def _draw_size(rng: random.Random,
               size_range: Tuple[Fraction, Fraction]) -> Fraction:
    """A size on the quantity grid, uniform over the range."""
    lo = int(size_range[0] * SCALE)
    hi = int(size_range[1] * SCALE)
    return Fraction(rng.randint(lo, hi), SCALE)


def _default_range(pool: PoolState) -> Tuple[Fraction, Fraction]:
    # Up to a tenth of the reserve: deep enough to matter, never draining.
    return (Fraction(1, 100) * pool.E, Fraction(1, 10) * pool.E)


def _legs_around(victim, size: Fraction) -> list:
    """The attacker's buy and sell legs of ``size``, the victim between."""
    steps = [("attacker", _BUY, size), ("attacker", _SELL, size)]
    if victim is not None:
        steps.insert(1, victim)
    return steps


def _shuffle_all(rng: random.Random, steps: list) -> None:
    """Sandwich: the sequencer shuffles all the steps uniformly."""
    rng.shuffle(steps)


def _victim_in_any_slot(rng: random.Random, steps: list) -> None:
    """Front-run: the victim lands uniformly before, between, or after the
    attacker's two legs."""
    if len(steps) == 3:
        steps.insert(rng.randrange(3), steps.pop(1))


def _attack(strategy: str, arrange, pool: PoolState,
            victim_order: Optional[Order], attacker_size: Fraction, mode: str,
            trials: int, rng: random.Random,
            size_range: Tuple[Fraction, Fraction]) -> AttackReport:
    """The loop both strategies share. A committed trial draws the victim's
    size and side (if there is a victim), then the attacker's guessed size,
    and ``arrange`` orders its steps."""
    if mode == "plaintext":
        victim = (None if victim_order is None else
                  ("victim", victim_order.side, victim_order.quantity_e))
        # Deterministic: every trial would replay the same sequence.
        samples = [_run_sequence(pool, _legs_around(victim, attacker_size))] * trials
    elif mode == "committed":
        lo = int(size_range[0] * SCALE)
        hi = int(size_range[1] * SCALE)
        samples = []
        for _ in range(trials):
            victim = None
            if victim_order is not None:
                size = Fraction(rng.randint(lo, hi), SCALE)
                victim = ("victim", rng.choice((_BUY, _SELL)), size)
            size = Fraction(rng.randint(lo, hi), SCALE)
            steps = _legs_around(victim, size)
            arrange(rng, steps)
            samples.append(_quantize(_run_sequence(pool, steps)))
    else:
        raise ValueError(f"unknown mode {mode!r}")

    ks, lcm = _scaled(samples)
    mean = Fraction(sum(ks), len(samples) * lcm)
    return AttackReport(strategy=strategy, mode=mode, trials=trials,
                        mean_profit=mean, profit_samples=tuple(samples))


def run_sandwich(pool: PoolState, victim_order: Optional[Order],
                 attacker_size: Fraction, mode: str, trials: int = 1,
                 rng: Optional[random.Random] = None,
                 victim_size_range: Optional[Tuple[Fraction, Fraction]] = None
                 ) -> AttackReport:
    """Front-buy / back-sell around a victim order.

    Plaintext: the attacker sees the order and brackets it exactly; the
    profit is a single deterministic rational. Committed: victim side
    and size are drawn per trial and the three transactions are shuffled
    uniformly; the report aggregates the Monte-Carlo samples.

    ``attacker_size`` is checked in both modes but used only in plaintext
    mode: a committed trial draws the attacker's size from the victim
    size range, as it draws the victim's.
    """
    attacker_size = Fraction(attacker_size)
    if attacker_size >= pool.E:
        raise LiquidityError("liquidity error: attacker size exceeds reserve")
    if attacker_size <= 0:
        raise ValueError("attacker size must be positive")
    return _attack("sandwich", _shuffle_all, pool, victim_order,
                   attacker_size, mode, trials, rng or random.Random(0),
                   victim_size_range or _default_range(pool))


def run_frontrun(pool: PoolState, victim_order: Optional[Order], mode: str,
                 attacker_size: Optional[Fraction] = None, trials: int = 1,
                 rng: Optional[random.Random] = None,
                 victim_size_range: Optional[Tuple[Fraction, Fraction]] = None
                 ) -> AttackReport:
    """Single front trade, exited by unwinding into the post-victim pool.

    The exit executes against the pool (selling back the bought energy);
    marking at the post-victim spot without executing would overstate
    profit, since a lone buy always lifts its own mark.

    ``attacker_size`` (the victim's size, or one drawn from the range,
    when None) is checked in both modes but used only in plaintext mode:
    a committed trial draws the attacker's size from the victim size
    range, as it draws the victim's.
    """
    rng = rng or random.Random(0)
    size_range = victim_size_range or _default_range(pool)
    if attacker_size is None:
        attacker_size = (victim_order.quantity_e if victim_order is not None
                         else _draw_size(rng, size_range))
    attacker_size = Fraction(attacker_size)
    if attacker_size >= pool.E:
        raise LiquidityError("liquidity error: attacker size exceeds reserve")
    if attacker_size <= 0:
        raise ValueError("attacker size must be positive")
    return _attack("frontrun", _victim_in_any_slot, pool, victim_order,
                   attacker_size, mode, trials, rng, size_range)


def _is_square(n: int) -> Optional[int]:
    r = math.isqrt(n)
    return r if r * r == n else None


def optimal_arbitrage_size(pool_a: PoolState, pool_b: PoolState) -> Fraction:
    """Trade size equalizing marginal prices: buy e from the cheaper pool
    A and sell into B where C_a/(E_a - e)^2 = C_b/(E_b + e)^2, giving
    e* = (E_a - s*E_b)/(1 + s) with s = sqrt(C_a/C_b).

    When s is irrational, e* is approximated on the 1e-6 quantity grid
    and refined by comparing neighboring grid points.
    """
    ratio = pool_a.C / pool_b.C
    rn = _is_square(ratio.numerator)
    rd = _is_square(ratio.denominator)
    if rn is not None and rd is not None:
        s = Fraction(rn, rd)
        return (pool_a.E - s * pool_b.E) / (1 + s)
    prec = 10**12
    approx = Fraction(
        math.isqrt(ratio.numerator * prec * prec // ratio.denominator), prec
    )
    e_star = (pool_a.E - approx * pool_b.E) / (1 + approx)
    grid = Fraction(round(e_star * SCALE), SCALE)

    def profit(e: Fraction) -> Fraction:
        if e <= 0 or e >= pool_a.E:
            return Fraction(-1)
        cost = pool_a.C * e / (pool_a.E * (pool_a.E - e))
        proceeds = pool_b.C * e / (pool_b.E * (pool_b.E + e))
        return proceeds - cost

    candidates = [grid + Fraction(k, SCALE) for k in range(-2, 3)]
    return max(candidates, key=profit)


def run_arbitrage(pool_a: PoolState, pool_b: PoolState,
                  mode: str = "plaintext") -> AttackReport:
    """Buy in the cheaper pool, sell in the dearer one, at optimal size.

    The mode only changes what order flow the attacker can watch; spot
    prices are public either way, so the profit is identical — reported,
    not suppressed.
    """
    if mode not in ("plaintext", "committed"):
        raise ValueError(f"unknown mode {mode!r}")
    if spot_price(pool_a) == spot_price(pool_b):
        return AttackReport(strategy="arbitrage", mode=mode, trials=1,
                            mean_profit=Fraction(0),
                            profit_samples=(Fraction(0),))
    cheap, rich = ((pool_a, pool_b)
                   if spot_price(pool_a) < spot_price(pool_b)
                   else (pool_b, pool_a))
    e_star = optimal_arbitrage_size(cheap, rich)
    _, buy = swap(cheap, _BUY, e_star)
    _, sell = swap(rich, _SELL, e_star)
    profit = sell.amount_out - buy.amount_in
    return AttackReport(strategy="arbitrage", mode=mode, trials=1,
                        mean_profit=profit, profit_samples=(profit,))
