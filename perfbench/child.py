"""One ``privamm run`` or ``privamm verify`` in a fresh interpreter.

Usage:
    python3 perfbench/child.py run SCENARIO OUT_DIR --trace 0|1
    python3 perfbench/child.py verify OUT_DIR --trace 0|1

Imports privamm from the checkout's ``src``, installs hooks, calls
``privamm.cli.main`` with the same arguments the command line takes, and
prints one JSON report as its last line of output. Every time in the
report is in reference seconds (see speed.py): a timer samples the
host's speed while privamm runs, and the samples are divided out. With
``--trace 0`` a run wraps only the four functions the end-to-end metrics
need and a verify wraps none; with ``--trace 1`` every public function
and method of every privamm module is wrapped.
"""

from __future__ import annotations

import argparse
import contextlib
import inspect
import io
import json
import resource
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from privamm import (adversary, balance_proof, cli, field_group,  # noqa: E402
                     protocol, sharding)

from speed import Sampler  # noqa: E402
from tracer import Tracer, privamm_modules, public_targets  # noqa: E402

#: The hooks an untraced run needs: set-up time, trade phases, block rounds.
E2E_TARGETS = [
    ("field_group.group_setup", field_group, "group_setup"),
    ("balance_proof.setup", balance_proof, "setup"),
    ("protocol.run_trading_phase", protocol, "run_trading_phase"),
    ("sharding.seal_anchors", sharding, "seal_anchors"),
]


def _keccak_permutations(counters, args, kwargs, result):
    data = args[0] if args else kwargs["data"]
    counters["keccak.permutations"] += len(data) // 136 + 1


def _trials(fn):
    signature = inspect.signature(fn)

    def hook(counters, args, kwargs, result):
        bound = signature.bind(*args, **kwargs)
        bound.apply_defaults()
        counters["adversary.trials"] += bound.arguments["trials"]
    return hook


def _one_trial(counters, args, kwargs, result):
    counters["adversary.trials"] += 1


def _block_outcome(counters, args, kwargs, result):
    key = "sharding.blocks_missed" if result is None else "sharding.blocks_produced"
    counters[key] += 1


#: Counters kept beside the spans of a traced run, by span name.
TRACE_HOOKS = {
    "keccak.keccak256": _keccak_permutations,
    "adversary.run_sandwich": _trials(adversary.run_sandwich),
    "adversary.run_frontrun": _trials(adversary.run_frontrun),
    "adversary.run_arbitrage": _one_trial,
    "sharding.produce_block": _block_outcome,
}


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("phase", choices=("run", "verify"))
    parser.add_argument("paths", nargs="+")
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args()

    sampler = Sampler()
    tracer = Tracer(sampler.clock)
    if args.trace:
        tracer.install(public_targets(privamm_modules()), TRACE_HOOKS)
    elif args.phase == "run":
        tracer.install(E2E_TARGETS)

    if args.phase == "run":
        scenario, out_dir = args.paths
        argv = ["run", scenario, "--out", out_dir]
    else:
        (out_dir,) = args.paths
        argv = ["verify", out_dir]

    output = io.StringIO()
    with contextlib.redirect_stdout(output), sampler:
        start = sampler.clock()
        code = cli.main(argv)
        end = sampler.clock()
    to_ns = sampler.normaliser()
    tracer.rescale(to_ns)

    report = {"phase": args.phase, "code": code,
              "elapsed_s": (to_ns(end) - to_ns(start)) / 1e9,
              "wall_s": (end - start) / 1e9}
    if args.phase == "run":
        setup_ns = (sum(tracer.durations_ns("field_group.group_setup"))
                    + sum(tracer.durations_ns("balance_proof.setup")))
        report.update(
            setup_s=setup_ns / 1e9,
            trade_ns=tracer.durations_ns("protocol.run_trading_phase"),
            seal_end_ns=tracer.ends_ns("sharding.seal_anchors"),
            peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        )
    else:
        report["lines"] = [line for line in output.getvalue().splitlines()
                           if line.startswith(("ok: ", "FAIL: "))]
    if args.trace:
        report["trace"] = tracer.summary()
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
