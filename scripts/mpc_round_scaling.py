#!/usr/bin/env python3
"""Measure how settlement cost scales with committee size.

For each party count n, runs a batch of (M+m)(E+e) settlements and
reports the round and message counts together with wall-clock time per
settlement. The online phase is always a single broadcast round of n
messages; this script demonstrates that the growth is linear in n, not
quadratic. Example:

    python3 scripts/mpc_round_scaling.py --parties 3-10 --sessions 200
"""

import argparse
import random
import statistics
import time

from privamm.mpc import P_MPC, MpcSession, encode_signed, reconstruct, share_secret


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parties", default="3-10",
                        help="inclusive range of committee sizes, e.g. 3-10")
    parser.add_argument("--sessions", type=int, default=200,
                        help="settlements per committee size")
    parser.add_argument("--seed", default="round-scaling")
    return parser.parse_args(argv)


def one_settlement(session: MpcSession, rng: random.Random) -> None:
    M_pub, E_pub = rng.randrange(10**12), rng.randrange(10**12)
    m, e = rng.randrange(-(10**9), 10**9), rng.randrange(-(10**9), 10**9)
    m_shares = share_secret(encode_signed(m), session.n, session.rng)
    e_shares = share_secret(encode_signed(e), session.n, session.rng)
    out = session.settle_product(m_shares, e_shares, M_pub, E_pub,
                                 session.dealer_gen_triple())
    assert reconstruct(out) == (M_pub + m) * (E_pub + e) % P_MPC


def main(argv=None) -> int:
    args = parse_args(argv)
    lo, _, hi = args.parties.partition("-")
    sizes = range(int(lo), int(hi or lo) + 1)

    print(f"{'n':>3} {'sessions':>8} {'online_rounds':>13} "
          f"{'msgs/settle':>11} {'offline_msgs':>12} {'us/settle':>10}")
    for n in sizes:
        rng = random.Random(f"{args.seed}/{n}")
        timings = []
        online_rounds = messages = offline = 0
        for _ in range(args.sessions):
            session = MpcSession(n, seed=rng.randrange(2**63))
            t0 = time.perf_counter()
            one_settlement(session, rng)
            timings.append(time.perf_counter() - t0)
            online_rounds += session.log.online_rounds
            messages += session.log.messages
            offline += session.log.offline_messages
        per = statistics.mean(timings) * 1e6
        print(f"{n:>3} {args.sessions:>8} "
              f"{online_rounds / args.sessions:>13.1f} "
              f"{messages / args.sessions:>11.1f} "
              f"{offline / args.sessions:>12.1f} {per:>10.1f}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
