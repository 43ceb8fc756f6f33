"""MEV attack strategies against plaintext and committed mempools.

In plaintext mode the attacker reads pending orders and places exactly
timed trades around them. In committed mode it sees only commitments: it
cannot learn the victim's side or size, and the sequencer shuffles the
block's transactions uniformly, so the attacker's front/back legs land
in a random order relative to the victim (the attacker is assumed to
hold inventory, so a back leg can execute before the front leg as a
short sale). Four of the six orderings leave the attacker's two legs
adjacent, which is an exact round-trip wash; the remaining two are a
sandwich and an anti-sandwich whose signs flip with the victim's side.

A committed report measures the attacker's mean profit and its standard
error over the trials; it does not show that the profit is zero. The
front-run has no anti-sandwich to cancel the convexity of the price
C/E in the victim's size: on a 1000/1000 pool with a buy victim of 100
its committed mean stays positive (t = 9.0 and 6.8 at 20,000 trials for
two seeds), while the committed sandwich reads t = 1.3 and 2.4. A
committed trial also draws the attacker's size from the victim size
range, so ``attacker_size`` changes only plaintext results. ROADMAP.md
("Test the MEV claim with enough trials to see a bias") plans to state
the expected premium and test the committed means against it.

Arbitrage across two pools needs no mempool knowledge (spot prices are
public after each reveal), so the privacy layer does not suppress it;
the optimal size equalizes post-trade marginal prices.

Profit is always the attacker's net money-token delta over its own
executed trades, in exact rational arithmetic. On the curve M = C/E a buy
and a sell both change the trader's money by C*(1/E_before - 1/E_after),
so a sequence is replayed on integers (`_replay`). A committed trial
draws its sizes as integer numerators over SCALE and rounds its result
onto the 1e-12 statistics grid with one integer ``divmod``; a report
keeps every sample as an integer numerator over one common denominator
and computes its mean and standard error from those integers once.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field
from fractions import Fraction
from operator import mul
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


def _on_grid(n: int, d: int) -> int:
    """``round(n / d * _STAT_GRID)`` for d > 0: nearest, ties to even."""
    q, r = divmod(n * _STAT_GRID, d)
    if 2 * r > d or (2 * r == d and q & 1):
        q += 1
    return q


@dataclass(frozen=True, slots=True)
class AttackReport:
    """Profit samples as integer numerators over one common denominator.

    The mean and the standard error are computed from those integers once,
    when the report is built.
    """
    strategy: str
    mode: str
    numerators: Tuple[int, ...]
    denominator: int
    mean_profit: Fraction = field(init=False)
    _std_err: float = field(init=False, repr=False)

    def __post_init__(self):
        ks, n, den = self.numerators, len(self.numerators), self.denominator
        total = sum(ks)
        object.__setattr__(self, "mean_profit", Fraction(total, n * den))
        se = 0.0
        if n >= 2:
            # var = (n*sum(k^2) - sum(k)^2) / (n*(n-1)*L^2) is the rational
            # sum((p - mean)^2) / (n-1), and int / int rounds it as float()
            # would.
            var = ((n * sum(map(mul, ks, ks)) - total * total)
                   / (n * (n - 1) * den * den))
            se = math.sqrt(var / n)
        object.__setattr__(self, "_std_err", se)

    @classmethod
    def exact(cls, strategy: str, mode: str, profit: Fraction,
              trials: int = 1) -> "AttackReport":
        """``trials`` copies of one exact profit."""
        return cls(strategy, mode, (profit.numerator,) * trials,
                   profit.denominator)

    @property
    def trials(self) -> int:
        return len(self.numerators)

    @property
    def profit_samples(self) -> Tuple[Fraction, ...]:
        return tuple(Fraction(k, self.denominator) for k in self.numerators)

    def std_err(self) -> float:
        return self._std_err

    def t_stat(self) -> float:
        if self._std_err == 0.0:
            return 0.0 if self.mean_profit == 0 else math.inf
        return float(self.mean_profit) / self._std_err

    def to_csv_row(self) -> dict:
        return {
            "strategy": self.strategy,
            "mode": self.mode,
            "trials": str(self.trials),
            "mean_profit": f"{self.mean_profit.numerator}/"
                           f"{self.mean_profit.denominator}",
            "std_err": f"{self._std_err:.12g}",
        }


def _replay(en: int, ed: int, qd: int, steps) -> Tuple[int, int]:
    """Execute (who, side, qn) steps of qn/qd energy on the reserve en/ed;
    the attacker's money delta divided by C, as (numerator, denominator).

    On the curve M = C/E a buy pays C*e/(E*(E-e)) = C*(1/(E-e) - 1/E) and
    a sell of e receives C*e/(E*(E+e)) = C*(1/E - 1/(E+e)): either way the
    trader's money changes by C*(1/E_before - 1/E_after). Every size is
    over qd, so the reserve stays x/D with D = ed*qd and x an integer, and
    1/E_before - 1/E_after = D*(x_after - x_before)/(x_before*x_after).
    The attacker's sum of those fractions is kept as one integer pair. A
    step raises what `amm.swap` would.
    """
    x = en * qd
    sn, sd = 0, 1
    for who, side, qn in steps:
        if qn <= 0:
            raise QuantityError(f"{side} quantity must be positive")
        if side == _BUY:
            after = x - qn * ed
            if after <= 0:
                raise LiquidityError(
                    f"liquidity error: buy of {Fraction(qn, qd)} would "
                    f"drain reserve {Fraction(x, ed * qd)}")
        else:
            after = x + qn * ed
        if who == "attacker":
            p = x * after
            sn, sd = sn * p + (after - x) * sd, sd * p
        x = after
    return ed * qd * sn, sd


def _run_sequence(pool: PoolState, sequence) -> Fraction:
    """Execute (who, side, size) steps in order; attacker money delta.

    The sizes are brought to one common denominator for `_replay`.
    """
    sizes = [Fraction(size) for _, _, size in sequence]
    qd = math.lcm(*(s.denominator for s in sizes))
    steps = [(who, side, s.numerator * (qd // s.denominator))
             for (who, side, _), s in zip(sequence, sizes)]
    sn, sd = _replay(pool.E.numerator, pool.E.denominator, qd, steps)
    return Fraction(pool.C.numerator * sn, pool.C.denominator * sd)


def _trial(curve: Tuple[int, int, int, int], steps) -> int:
    """One committed trial: (who, side, qn) steps of qn/SCALE energy on
    the curve (E numerator, E denominator, C numerator, C denominator),
    replayed and rounded to a numerator over ``_STAT_GRID``."""
    en, ed, cn, cd = curve
    sn, sd = _replay(en, ed, SCALE, steps)
    return _on_grid(cn * sn, cd * sd)


def _draw_size(rng: random.Random,
               size_range: Tuple[Fraction, Fraction]) -> Fraction:
    """A size on the quantity grid, uniform over the range."""
    lo = int(size_range[0] * SCALE)
    hi = int(size_range[1] * SCALE)
    return Fraction(rng.randint(lo, hi), SCALE)


def _default_range(pool: PoolState) -> Tuple[Fraction, Fraction]:
    # Up to a tenth of the reserve: deep enough to matter, never draining.
    return (Fraction(1, 100) * pool.E, Fraction(1, 10) * pool.E)


def _legs_around(victim, size) -> list:
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


def _check_trials(trials: int) -> None:
    if trials < 1:
        raise ValueError(f"trials must be at least 1, got {trials}")


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
        return AttackReport.exact(
            strategy, mode,
            _run_sequence(pool, _legs_around(victim, attacker_size)), trials)
    if mode != "committed":
        raise ValueError(f"unknown mode {mode!r}")
    lo = int(size_range[0] * SCALE)
    hi = int(size_range[1] * SCALE)
    curve = (pool.E.numerator, pool.E.denominator,
             pool.C.numerator, pool.C.denominator)
    ks = []
    for _ in range(trials):
        victim = None
        if victim_order is not None:
            size = rng.randint(lo, hi)
            victim = ("victim", rng.choice((_BUY, _SELL)), size)
        steps = _legs_around(victim, rng.randint(lo, hi))
        arrange(rng, steps)
        ks.append(_trial(curve, steps))
    return AttackReport(strategy, mode, tuple(ks), _STAT_GRID)


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
    _check_trials(trials)
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
    _check_trials(trials)
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
        return AttackReport.exact("arbitrage", mode, Fraction(0))
    cheap, rich = ((pool_a, pool_b)
                   if spot_price(pool_a) < spot_price(pool_b)
                   else (pool_b, pool_a))
    e_star = optimal_arbitrage_size(cheap, rich)
    _, buy = swap(cheap, _BUY, e_star)
    _, sell = swap(rich, _SELL, e_star)
    return AttackReport.exact("arbitrage", mode,
                              sell.amount_out - buy.amount_in)
