#!/usr/bin/env python3
"""Sweep attacker size for sandwich and front-run strategies in both
visibility modes and tabulate the profit statistics.

In plaintext mode the attacker sees the victim order and the profit is a
single deterministic rational; in committed mode it only sees an opaque
commitment, so each trial guesses the size and draws a uniformly random
execution order. Example:

    python3 scripts/mev_profit_sweep.py --sizes 10,25,50,100 --trials 5000
"""

import argparse
import csv
import random
import sys
from fractions import Fraction

from privamm.adversary import run_frontrun, run_sandwich
from privamm.amm import Order, pool_init

FIELDS = ["strategy", "mode", "attacker_size", "trials",
          "mean_profit", "std_err", "t_stat"]


def positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {value}")
    return value


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--pool-e", default="1000",
                        help="energy reserve of the target pool")
    parser.add_argument("--pool-m", default="1000",
                        help="money reserve of the target pool")
    parser.add_argument("--victim-e", default="100",
                        help="victim order size in energy units")
    parser.add_argument("--victim-side", choices=("buy", "sell"),
                        default="buy")
    parser.add_argument("--sizes", default="10,25,50,100,200",
                        help="comma-separated attacker sizes to sweep")
    parser.add_argument("--trials", type=positive_int, default=2000,
                        help="Monte-Carlo trials per committed-mode cell")
    parser.add_argument("--seed", default="mev-sweep")
    parser.add_argument("--out", help="write CSV here instead of stdout")
    return parser.parse_args(argv)


def sweep(args):
    pool = pool_init(Fraction(args.pool_e), Fraction(args.pool_m))
    victim = Order(side=args.victim_side, quantity_e=Fraction(args.victim_e),
                   limit_rate=Fraction(10**12) if args.victim_side == "buy"
                   else Fraction(0))
    rows = []
    for size_text in args.sizes.split(","):
        size = Fraction(size_text.strip())
        for strategy, runner in (("sandwich", run_sandwich),
                                 ("frontrun", run_frontrun)):
            for mode in ("plaintext", "committed"):
                trials = 1 if mode == "plaintext" else args.trials
                rng = random.Random(f"{args.seed}/{strategy}/{mode}/{size}")
                if strategy == "sandwich":
                    report = runner(pool, victim, size, mode,
                                    trials=trials, rng=rng)
                else:
                    report = runner(pool, victim, mode, attacker_size=size,
                                    trials=trials, rng=rng)
                rows.append({
                    "strategy": strategy,
                    "mode": mode,
                    "attacker_size": str(size),
                    "trials": str(trials),
                    "mean_profit": f"{float(report.mean_profit):.6f}",
                    "std_err": f"{report.std_err():.6f}",
                    "t_stat": f"{report.t_stat():.3f}",
                })
    return rows


def main(argv=None) -> int:
    args = parse_args(argv)
    rows = sweep(args)
    sink = open(args.out, "w", newline="") if args.out else sys.stdout
    try:
        writer = csv.DictWriter(sink, fieldnames=FIELDS)
        writer.writeheader()
        writer.writerows(rows)
    finally:
        if args.out:
            sink.close()
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
