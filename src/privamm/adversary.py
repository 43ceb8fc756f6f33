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
executed trades, in exact rational arithmetic.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import List, Optional, Tuple

from .amm import LiquidityError, Order, PoolState, spot_price, swap
from .mpc import SCALE

_BUY = "buy"
_SELL = "sell"

#: Monte-Carlo samples are recorded at 1e-12 resolution so that large
#: sample sets keep a common denominator and exact statistics stay cheap.
#: Single-shot plaintext profits are never quantized.
_STAT_GRID = 10**12


def _quantize(p: Fraction) -> Fraction:
    return Fraction(round(p * _STAT_GRID), _STAT_GRID)


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
        mean = self.mean_profit
        var = sum((p - mean) ** 2 for p in self.profit_samples) / (n - 1)
        return math.sqrt(float(var) / n)

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
    """Execute (who, side, size) steps in order; attacker money delta."""
    attacker_money = Fraction(0)
    for who, side, size in sequence:
        pool, quote = swap(pool, side, size)
        if who == "attacker":
            if side == _BUY:
                attacker_money -= quote.amount_in
            else:
                attacker_money += quote.amount_out
    return attacker_money


def _victim_step(order: Optional[Order]):
    if order is None:
        return None
    return ("victim", order.side, order.quantity_e)


def _random_victim(rng: random.Random, size_range: Tuple[Fraction, Fraction]):
    lo = int(size_range[0] * SCALE)
    hi = int(size_range[1] * SCALE)
    size = Fraction(rng.randint(lo, hi), SCALE)
    side = rng.choice((_BUY, _SELL))
    return ("victim", side, size)


def _guess_size(rng: random.Random,
                size_range: Tuple[Fraction, Fraction]) -> Fraction:
    lo = int(size_range[0] * SCALE)
    hi = int(size_range[1] * SCALE)
    return Fraction(rng.randint(lo, hi), SCALE)


def _default_range(pool: PoolState) -> Tuple[Fraction, Fraction]:
    # Up to a tenth of the reserve: deep enough to matter, never draining.
    return (Fraction(1, 100) * pool.E, Fraction(1, 10) * pool.E)


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
    """
    attacker_size = Fraction(attacker_size)
    if attacker_size >= pool.E:
        raise LiquidityError("liquidity error: attacker size exceeds reserve")
    if attacker_size <= 0:
        raise ValueError("attacker size must be positive")
    rng = rng or random.Random(0)
    size_range = victim_size_range or _default_range(pool)

    samples: List[Fraction] = []
    if mode == "plaintext":
        victim = _victim_step(victim_order)
        front = ("attacker", _BUY, attacker_size)
        back = ("attacker", _SELL, attacker_size)
        steps = [front, victim, back] if victim else [front, back]
        # Deterministic: every trial would replay the same sequence.
        samples = [_run_sequence(pool, steps)] * trials
    elif mode == "committed":
        for _ in range(trials):
            if victim_order is None:
                victim = None
            else:
                victim = _random_victim(rng, size_range)
            guess = _guess_size(rng, size_range)
            front = ("attacker", _BUY, guess)
            back = ("attacker", _SELL, guess)
            steps = [front, back] if victim is None else [front, victim, back]
            order = list(range(len(steps)))
            rng.shuffle(order)
            samples.append(
                _quantize(_run_sequence(pool, [steps[i] for i in order]))
            )
    else:
        raise ValueError(f"unknown mode {mode!r}")

    mean = sum(samples, Fraction(0)) / len(samples)
    return AttackReport(strategy="sandwich", mode=mode, trials=trials,
                        mean_profit=mean, profit_samples=tuple(samples))


def run_frontrun(pool: PoolState, victim_order: Optional[Order], mode: str,
                 attacker_size: Optional[Fraction] = None, trials: int = 1,
                 rng: Optional[random.Random] = None,
                 victim_size_range: Optional[Tuple[Fraction, Fraction]] = None
                 ) -> AttackReport:
    """Single front trade, exited by unwinding into the post-victim pool.

    The exit executes against the pool (selling back the bought energy);
    marking at the post-victim spot without executing would overstate
    profit, since a lone buy always lifts its own mark.
    """
    rng = rng or random.Random(0)
    size_range = victim_size_range or _default_range(pool)
    if attacker_size is None:
        attacker_size = (victim_order.quantity_e if victim_order is not None
                         else _guess_size(rng, size_range))
    attacker_size = Fraction(attacker_size)
    if attacker_size >= pool.E:
        raise LiquidityError("liquidity error: attacker size exceeds reserve")

    samples: List[Fraction] = []
    if mode == "plaintext":
        victim = _victim_step(victim_order)
        front = ("attacker", _BUY, attacker_size)
        exit_ = ("attacker", _SELL, attacker_size)
        steps = [front, victim, exit_] if victim else [front, exit_]
        samples = [_run_sequence(pool, steps)] * trials
    elif mode == "committed":
        for _ in range(trials):
            if victim_order is None:
                victim = None
            else:
                victim = _random_victim(rng, size_range)
            guess = _guess_size(rng, size_range)
            front = ("attacker", _BUY, guess)
            exit_ = ("attacker", _SELL, guess)
            if victim is None:
                steps = [front, exit_]
            else:
                # The victim lands uniformly before, between, or after the
                # attacker's two legs.
                slot = rng.randrange(3)
                steps = [front, exit_]
                steps.insert(slot, victim)
            samples.append(_quantize(_run_sequence(pool, steps)))
    else:
        raise ValueError(f"unknown mode {mode!r}")

    mean = sum(samples, Fraction(0)) / len(samples)
    return AttackReport(strategy="frontrun", mode=mode, trials=trials,
                        mean_profit=mean, profit_samples=tuple(samples))


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
