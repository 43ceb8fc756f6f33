"""MEV strategies under full visibility versus commitment-hidden flow."""

import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from privamm import adversary
from privamm.adversary import (AttackReport, optimal_arbitrage_size,
                               run_arbitrage, run_frontrun, run_sandwich)
from privamm.amm import (LiquidityError, Order, pool_init, quote_buy,
                         quote_sell, swap)
from privamm.mpc import SCALE

POOL = pool_init(Fraction(1000), Fraction(1000))


def victim_buy(size) -> Order:
    return Order(side="buy", quantity_e=Fraction(size),
                 limit_rate=Fraction(10**9), trader_id="victim")


# -- plaintext sandwich --------------------------------------------------------

def test_sandwich_profit_frozen_oracle():
    # Front-buy 50 costs 1000/19; back-sell 50 after the victim's 100-buy
    # returns 10000/153; the difference is the attacker's take.
    report = run_sandwich(POOL, victim_buy(100), attacker_size=Fraction(50),
                          mode="plaintext")
    assert report.mean_profit == Fraction(37000, 2907)
    assert 12.72 < float(report.mean_profit) < 12.73
    assert report.strategy == "sandwich"
    assert report.trials == 1


def test_sandwich_without_victim_is_exactly_zero():
    report = run_sandwich(POOL, None, attacker_size=Fraction(50),
                          mode="plaintext")
    assert report.mean_profit == 0


def test_sandwich_legs_reproduce_oracle():
    # Rebuild the frozen number from first principles with the quote API.
    front = quote_buy(POOL, Fraction(50))
    after_front = pool_init(Fraction(950), POOL.C / 950)
    after_victim = pool_init(Fraction(850), POOL.C / 850)
    back = quote_sell(after_victim, Fraction(50))
    assert front.amount_in == Fraction(1000, 19)
    assert back.amount_out == Fraction(10000, 153)
    assert back.amount_out - front.amount_in == Fraction(37000, 2907)
    assert after_front.C == after_victim.C == POOL.C


@given(st.integers(1, 400), st.integers(1, 300))
@settings(max_examples=100)
def test_plaintext_sandwich_profit_positive_for_any_buy_victim(victim_e,
                                                               attacker_e):
    report = run_sandwich(POOL, victim_buy(victim_e),
                          attacker_size=Fraction(attacker_e),
                          mode="plaintext")
    assert report.mean_profit > 0


def test_sandwich_rejects_draining_attacker():
    with pytest.raises(LiquidityError, match="liquidity error"):
        run_sandwich(POOL, victim_buy(10), attacker_size=Fraction(1000),
                     mode="plaintext")
    with pytest.raises(ValueError):
        run_sandwich(POOL, victim_buy(10), attacker_size=Fraction(0),
                     mode="plaintext")
    with pytest.raises(ValueError, match="unknown mode"):
        run_sandwich(POOL, victim_buy(10), attacker_size=Fraction(1),
                     mode="oracle")


# -- committed sandwich -----------------------------------------------------------

def test_committed_sandwich_neutralized():
    report = run_sandwich(POOL, victim_buy(100), attacker_size=Fraction(50),
                          mode="committed", trials=2000,
                          rng=random.Random("committed-sandwich"))
    assert report.trials == 2000
    assert len(report.profit_samples) == 2000
    # Hidden size and ordering leave no exploitable signal: the mean sits
    # within noise of zero while the plaintext attack clears 12 tokens.
    assert abs(report.t_stat()) < 2.58
    assert abs(float(report.mean_profit)) < 1.0


def test_committed_samples_live_on_the_statistics_grid():
    report = run_sandwich(POOL, victim_buy(100), attacker_size=Fraction(50),
                          mode="committed", trials=50,
                          rng=random.Random(7))
    for sample in report.profit_samples:
        assert (10**12) % sample.denominator == 0


def test_committed_sandwich_deterministic_per_seed():
    a = run_sandwich(POOL, victim_buy(100), attacker_size=Fraction(50),
                     mode="committed", trials=64, rng=random.Random(11))
    b = run_sandwich(POOL, victim_buy(100), attacker_size=Fraction(50),
                     mode="committed", trials=64, rng=random.Random(11))
    assert a.profit_samples == b.profit_samples


def test_committed_sandwich_no_victim_zero():
    report = run_sandwich(POOL, None, attacker_size=Fraction(50),
                          mode="committed", trials=100,
                          rng=random.Random(3))
    assert report.mean_profit == 0
    assert report.t_stat() == 0.0


@pytest.mark.parametrize("run", [
    lambda: run_sandwich(POOL, victim_buy(100), attacker_size=Fraction(50),
                         mode="plaintext", trials=7),
    lambda: run_frontrun(POOL, victim_buy(100), mode="plaintext", trials=7),
], ids=["sandwich", "frontrun"])
def test_plaintext_sequence_runs_once_for_all_trials(monkeypatch, run):
    calls = []
    run_sequence = adversary._run_sequence

    def counting_run_sequence(pool, sequence):
        calls.append(sequence)
        return run_sequence(pool, sequence)

    monkeypatch.setattr(adversary, "_run_sequence", counting_run_sequence)
    report = run()
    assert len(calls) == 1  # once, not 7 times
    assert report.trials == 7
    assert report.profit_samples == (report.mean_profit,) * 7


# -- the integer replay against a fold over amm.swap --------------------------------

def fold_over_swap(pool, sequence) -> Fraction:
    """The attacker's money delta, one ``amm.swap`` per step."""
    money = Fraction(0)
    for who, side, size in sequence:
        pool, quote = swap(pool, side, size)
        if who == "attacker":
            money += quote.amount_out if side == "sell" else -quote.amount_in
    return money


def outcome(run, pool, sequence):
    try:
        return run(pool, sequence)
    except LiquidityError as exc:
        return ("LiquidityError", str(exc))


OFF_GRID = st.fractions(min_value=Fraction(1, 7), max_value=10**5,
                        max_denominator=10**4)
# Sizes up to 1.5x the reserve, so that some buys drain it.
SHARES = st.fractions(min_value=Fraction(1, 997), max_value=Fraction(3, 2),
                      max_denominator=997)
STEPS = st.lists(st.tuples(st.sampled_from(("attacker", "victim")),
                           st.sampled_from(("buy", "sell")), SHARES),
                 min_size=1, max_size=4)


@given(OFF_GRID, OFF_GRID, STEPS)
@settings(max_examples=400)
def test_run_sequence_matches_fold_over_swap(e, m, steps):
    pool = pool_init(e, m)
    sequence = [(who, side, share * e) for who, side, share in steps]
    assert (outcome(adversary._run_sequence, pool, sequence)
            == outcome(fold_over_swap, pool, sequence))


@pytest.mark.parametrize("sequence", [
    [("attacker", "buy", Fraction(1000))],
    [("victim", "buy", Fraction(600)), ("attacker", "buy", Fraction(400))],
    [("attacker", "sell", Fraction(7, 3)),
     ("victim", "buy", Fraction(3007, 3))],
])
def test_run_sequence_drain_raises_like_swap(sequence):
    expected = outcome(fold_over_swap, POOL, sequence)
    assert expected[0] == "LiquidityError"
    assert outcome(adversary._run_sequence, POOL, sequence) == expected


# -- exact statistics on integers ------------------------------------------------

GRID = 10**12


def quantize(p: Fraction) -> Fraction:
    """The Fraction reference for the statistics grid: Python's ``round``,
    nearest with ties to even."""
    return Fraction(round(p * GRID), GRID)


def on_grid(p: Fraction) -> Fraction:
    return Fraction(adversary._on_grid(p.numerator, p.denominator), GRID)


@pytest.mark.parametrize("k", [0, 1, 2, 3, 10**6, 10**6 + 1, -1, -2, -3,
                               -(10**6), -(10**6) - 1])
@pytest.mark.parametrize("offset", [Fraction(0), Fraction(1, 10**30),
                                    -Fraction(1, 10**30), Fraction(1, 3)])
def test_quantize_matches_round_at_half_grid_ties(k, offset):
    p = (k + Fraction(1, 2) + offset) / GRID
    assert on_grid(p) == quantize(p)
    # Any representation of p rounds the same way.
    assert (adversary._on_grid(p.numerator * 7, p.denominator * 7)
            == adversary._on_grid(p.numerator, p.denominator))


@given(st.fractions(max_denominator=10**15))
def test_quantize_matches_round(p):
    assert on_grid(p) == quantize(p)


# -- one committed trial on integers against Fractions -----------------------------

def reference_trial(pool, sequence) -> Fraction:
    """A committed trial in Fractions: a fold over ``amm.swap``, then the
    statistics grid."""
    return quantize(fold_over_swap(pool, sequence))


def integer_trial(pool, sequence) -> Fraction:
    curve = (pool.E.numerator, pool.E.denominator,
             pool.C.numerator, pool.C.denominator)
    steps = [(who, side, int(size * SCALE)) for who, side, size in sequence]
    return Fraction(adversary._trial(curve, steps), GRID)


RESERVES = st.fractions(min_value=Fraction(1, 3), max_value=10**4,
                        max_denominator=10**3)
# Grid sizes up to 1.2x the reserve, so that some buys drain it.
GRID_SHARES = st.integers(1, 1200)


@st.composite
def committed_trials(draw):
    pool = pool_init(draw(RESERVES), draw(RESERVES))
    unit = max(1, int(pool.E * SCALE) // 1000)

    def size():
        return Fraction(draw(GRID_SHARES) * unit
                        + draw(st.integers(0, unit - 1)), SCALE)

    legs = [("attacker", "buy", size()), ("attacker", "sell", size())]
    if draw(st.booleans()):
        legs.insert(1, ("victim", draw(st.sampled_from(("buy", "sell"))),
                        size()))
    return pool, list(draw(st.permutations(legs)))


@given(committed_trials())
@settings(max_examples=400)
def test_integer_trial_matches_fraction_reference(case):
    pool, sequence = case
    assert (outcome(integer_trial, pool, sequence)
            == outcome(reference_trial, pool, sequence))


@pytest.mark.parametrize("k", [0, 1, 2, 7, 10**9])
@pytest.mark.parametrize("sequence", [
    [("attacker", "buy", Fraction(50)), ("victim", "buy", Fraction(100)),
     ("attacker", "sell", Fraction(50))],
    [("attacker", "sell", Fraction(123457, 10**6)),
     ("victim", "buy", Fraction(3)), ("attacker", "buy", Fraction(1, 10**6))],
    [("victim", "sell", Fraction(7)), ("attacker", "buy", Fraction(11)),
     ("attacker", "sell", Fraction(5, 2))],
])
def test_integer_trial_rounds_half_grid_ties_to_even(sequence, k):
    # With C = 1 the fold gives the delta per unit of C, s; the pool whose
    # C puts the profit exactly at +-(k + 1/2) grid steps is a tie.
    e = Fraction(1000)
    s = fold_over_swap(pool_init(e, 1 / e), sequence)
    c = abs((k + Fraction(1, 2)) / (GRID * s))
    pool = pool_init(e, c / e)
    profit = fold_over_swap(pool, sequence)
    assert abs(profit * GRID) == k + Fraction(1, 2)
    assert integer_trial(pool, sequence) == reference_trial(pool, sequence)


@pytest.mark.parametrize("sequence", [
    [("attacker", "buy", Fraction(1000))],
    [("victim", "buy", Fraction(600)), ("attacker", "buy", Fraction(400))],
    [("attacker", "sell", Fraction(5, 2)), ("victim", "buy", Fraction(2005, 2)),
     ("attacker", "buy", Fraction(1))],
    [("attacker", "sell", Fraction(1, 10**6)),
     ("attacker", "buy", Fraction(1000000001, 10**6)),
     ("victim", "buy", Fraction(1))],
])
def test_integer_trial_drain_raises_like_swap(sequence):
    expected = outcome(reference_trial, POOL, sequence)
    assert expected[0] == "LiquidityError"
    assert outcome(integer_trial, POOL, sequence) == expected


def plain_std_err(samples) -> float:
    n = len(samples)
    mean = sum(samples, Fraction(0)) / n
    var = sum((p - mean) ** 2 for p in samples) / (n - 1)
    return math.sqrt(float(var) / n)


@pytest.mark.parametrize("samples", [
    (Fraction(1, 3), Fraction(-5, 7)),
    (Fraction(2), Fraction(2)),
    (Fraction(1, 3), Fraction(-5, 7), Fraction(11, 12), Fraction(10**20, 3**40),
     Fraction(0), Fraction(-1, 10**12)),
])
def test_std_err_matches_fraction_formula(samples):
    den = math.lcm(*(p.denominator for p in samples))
    report = AttackReport("s", "m", tuple(int(p * den) for p in samples), den)
    assert report.profit_samples == samples
    assert report.mean_profit == sum(samples, Fraction(0)) / len(samples)
    assert report.std_err() == plain_std_err(samples)


def test_committed_mean_is_the_sample_mean():
    report = run_frontrun(POOL, victim_buy(100), mode="committed", trials=200,
                          rng=random.Random(5))
    assert report.mean_profit == (sum(report.profit_samples, Fraction(0))
                                  / len(report.profit_samples))
    assert report.std_err() == plain_std_err(report.profit_samples)


@pytest.mark.parametrize("make", [
    lambda: run_sandwich(POOL, victim_buy(100), Fraction(50), "plaintext",
                         trials=5),
    lambda: run_frontrun(POOL, victim_buy(100), "plaintext", trials=1),
    lambda: run_sandwich(POOL, victim_buy(100), Fraction(50), "committed",
                         trials=300, rng=random.Random("csv")),
    lambda: run_frontrun(POOL, None, "committed", trials=300,
                         rng=random.Random("csv")),
    lambda: run_sandwich(POOL, None, Fraction(50), "committed", trials=20,
                         rng=random.Random("csv")),
], ids=["plain-sandwich", "plain-frontrun", "committed-sandwich",
        "committed-frontrun", "committed-no-victim"])
def test_report_row_and_t_stat_match_the_fraction_formula(make):
    report = make()
    samples = report.profit_samples
    mean = sum(samples, Fraction(0)) / len(samples)
    se = plain_std_err(samples) if len(samples) > 1 else 0.0
    assert report.to_csv_row() == {
        "strategy": report.strategy, "mode": report.mode,
        "trials": str(len(samples)),
        "mean_profit": f"{mean.numerator}/{mean.denominator}",
        "std_err": f"{se:.12g}"}
    if se == 0.0:
        assert report.t_stat() == (0.0 if mean == 0 else math.inf)
    else:
        assert report.t_stat() == float(mean) / se


# -- frontrun ---------------------------------------------------------------------

def test_frontrun_plaintext_frozen_oracle():
    # Matching the victim's 100: buy at 1000/9, exit at 1250/9.
    report = run_frontrun(POOL, victim_buy(100), mode="plaintext")
    assert report.mean_profit == Fraction(250, 9)
    assert report.strategy == "frontrun"


def test_frontrun_plaintext_no_victim_zero():
    report = run_frontrun(POOL, None, mode="plaintext",
                          attacker_size=Fraction(30))
    assert report.mean_profit == 0


def test_frontrun_committed_neutralized():
    report = run_frontrun(POOL, victim_buy(100), mode="committed",
                          trials=2000, rng=random.Random("committed-front"))
    assert abs(report.t_stat()) < 2.58


def test_frontrun_rejects_draining_size():
    with pytest.raises(LiquidityError):
        run_frontrun(POOL, victim_buy(10), mode="plaintext",
                     attacker_size=Fraction(1000))


@pytest.mark.parametrize("size", [Fraction(0), Fraction(-5)])
@pytest.mark.parametrize("mode", ["plaintext", "committed"])
def test_frontrun_rejects_non_positive_size(size, mode):
    # The same check, text and order as run_sandwich: the reserve bound
    # first, then the sign, before any trial runs.
    for victim in (None, victim_buy(10)):
        with pytest.raises(ValueError, match="attacker size must be positive"):
            run_frontrun(POOL, victim, mode, attacker_size=size)
        with pytest.raises(ValueError, match="attacker size must be positive"):
            run_sandwich(POOL, victim, size, mode)
    with pytest.raises(LiquidityError):
        run_frontrun(POOL, None, mode, attacker_size=Fraction(1000))


# -- arbitrage ---------------------------------------------------------------------

POOL_A = pool_init(Fraction(100), Fraction(100))
POOL_B = pool_init(Fraction(100), Fraction(400))


def test_optimal_size_closed_form():
    assert optimal_arbitrage_size(POOL_A, POOL_B) == Fraction(100, 3)


def test_arbitrage_profit_frozen_oracle():
    report = run_arbitrage(POOL_A, POOL_B)
    assert report.mean_profit == Fraction(50)
    assert report.strategy == "arbitrage"


def test_arbitrage_order_of_pools_irrelevant():
    assert run_arbitrage(POOL_B, POOL_A).mean_profit == Fraction(50)


def test_arbitrage_equal_spots_zero():
    report = run_arbitrage(POOL_A, pool_init(Fraction(200), Fraction(200)))
    assert report.mean_profit == 0


def test_arbitrage_same_in_committed_mode():
    # Spot prices are public either way; hiding order flow does not close
    # a cross-pool price gap.
    assert run_arbitrage(POOL_A, POOL_B, mode="committed").mean_profit == 50


def arbitrage_profit(pool_a, pool_b, e: Fraction) -> Fraction:
    cost = pool_a.C * e / (pool_a.E * (pool_a.E - e))
    proceeds = pool_b.C * e / (pool_b.E * (pool_b.E + e))
    return proceeds - cost


def test_optimal_size_beats_exhaustive_grid():
    e_star = optimal_arbitrage_size(POOL_A, POOL_B)
    best = arbitrage_profit(POOL_A, POOL_B, e_star)
    step = Fraction(1, 1000)
    grid_best = max(
        arbitrage_profit(POOL_A, POOL_B, Fraction(k) * step)
        for k in range(1, int(POOL_A.E / step))
    )
    assert best >= grid_best


@given(st.integers(101, 1000))
@settings(max_examples=60)
def test_optimal_size_is_a_local_maximum(m_b):
    pool_b = pool_init(Fraction(100), Fraction(m_b))
    e_star = optimal_arbitrage_size(POOL_A, pool_b)
    best = arbitrage_profit(POOL_A, pool_b, e_star)
    eps = Fraction(1, 10**6)
    assert best >= arbitrage_profit(POOL_A, pool_b, e_star - eps)
    assert best >= arbitrage_profit(POOL_A, pool_b, e_star + eps)
    assert best >= 0


def test_arbitrage_profit_monotone_in_price_gap():
    profits = [
        run_arbitrage(POOL_A, pool_init(Fraction(100), Fraction(m))).mean_profit
        for m in (150, 200, 300, 400)
    ]
    assert profits == sorted(profits)
    assert all(p > 0 for p in profits)


# -- report rendering ------------------------------------------------------------------

def test_csv_row_exact_rational_rendering():
    report = run_sandwich(POOL, victim_buy(100), attacker_size=Fraction(50),
                          mode="plaintext")
    row = report.to_csv_row()
    assert row["mean_profit"] == "37000/2907"
    assert row["trials"] == "1"
    assert row["std_err"] == "0"
    assert report.t_stat() == float("inf")


def test_report_statistics():
    report = AttackReport("s", "m", (1, 2, 3, 4), 1)
    assert report.trials == 4
    assert report.mean_profit == Fraction(5, 2)
    # Sample variance of 1..4 is 5/3; the standard error is sqrt(5/12).
    assert abs(report.std_err() - (5 / 12) ** 0.5) < 1e-12
    assert report.t_stat() == pytest.approx(2.5 / (5 / 12) ** 0.5)
