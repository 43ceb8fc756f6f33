"""The names and messages the benchmark in ``perfbench/`` relies on.

perfbench wraps privamm functions by name to time and count them, and
lets a workload's known verify failures through by matching their text.
A renamed function or a reworded FAIL line would fail every benchmark
run, so both are checked here.
"""

import hashlib
import importlib.util
import inspect
import json
import random
import sys
from collections import Counter
from fractions import Fraction
from pathlib import Path

from privamm.amm import Order, pool_init
from privamm.cli import main, verify_artifacts

ROOT = Path(__file__).resolve().parent.parent
PERFBENCH = ROOT / "perfbench"


def load(name: str):
    if str(PERFBENCH) not in sys.path:
        sys.path.insert(0, str(PERFBENCH))
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}",
                                                  PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def resolve(span: str):
    layer, _, attr = span.partition(".")
    module = importlib.import_module(f"privamm.{layer}")
    return vars(module)[attr]


def test_hooked_names_are_plain_privamm_functions():
    child = load("child")
    for name, owner, attr in child.E2E_TARGETS:
        fn = vars(owner)[attr]
        assert inspect.isfunction(fn), name
        assert owner.__name__ == f"privamm.{name.partition('.')[0]}", name
        assert resolve(name) is fn
    for name in child.TRACE_HOOKS:
        assert inspect.isfunction(resolve(name)), name


def test_traced_balance_proof_and_walk_functions_exist():
    """run.py reads these spans for its per-layer counts."""
    tracer = load("tracer")
    spans = {name for name, _, _ in
             tracer.public_targets(tracer.privamm_modules())}
    for name in ("balance_proof.setup", "balance_proof.prove",
                 "balance_proof.verify", "trie.verify_account_proof",
                 "sharding.submit_tx", "protocol.run_trading_phase"):
        assert name in spans, name


def test_trial_hooks_count_the_trials_of_real_calls():
    """child.py finds ``trials`` by binding each call to the signature, so
    a renamed parameter would fail every traced run. These are the call
    shapes the simulator makes, the default ``trials`` included."""
    hooks = load("child").TRACE_HOOKS
    pool = pool_init(Fraction(1000), Fraction(1000))
    victim = Order(side="buy", quantity_e=Fraction(30),
                   limit_rate=Fraction(10**12))
    calls = [
        ("adversary.run_sandwich", (pool, victim, Fraction(50), "committed"),
         {"trials": 7, "rng": random.Random(1), "victim_size_range": None}),
        ("adversary.run_sandwich", (pool, victim),
         {"attacker_size": Fraction(50), "mode": "committed", "trials": 3,
          "rng": random.Random(2)}),
        ("adversary.run_sandwich", (pool, None, Fraction(50), "plaintext"), {}),
        ("adversary.run_frontrun", (pool, victim, "committed"),
         {"attacker_size": None, "trials": 5, "rng": random.Random(3),
          "victim_size_range": None}),
        ("adversary.run_frontrun", (pool, victim, "plaintext"), {}),
    ]
    counters = Counter()
    for name, args, kwargs in calls:
        report = resolve(name)(*args, **kwargs)
        hooks[name](counters, args, kwargs, report)
        assert len(report.profit_samples) == report.trials
    assert counters["adversary.trials"] == 7 + 3 + 1 + 5 + 1


def test_unknown_header_failure_matches_the_known_pattern(tmp_path):
    out = tmp_path / "smoke"
    assert main(["run", str(ROOT / "scenarios" / "smoke.json"),
                 "--out", str(out)]) == 0
    lines = (out / "run.jsonl").read_text().splitlines()
    for i, line in enumerate(lines):
        ev = json.loads(line)
        if "proof" in ev:
            ev["proof"]["account"]["headerHash"] = "0x" + "ab" * 32
            lines[i] = json.dumps(ev, sort_keys=True, separators=(",", ":"))
            break
    blob = ("\n".join(lines) + "\n").encode()
    (out / "run.jsonl").write_bytes(blob)
    summary = json.loads((out / "summary.json").read_text())
    summary["logSha256"] = hashlib.sha256(blob).hexdigest()
    (out / "summary.json").write_text(json.dumps(summary, indent=2,
                                                 sort_keys=True))

    code, checks = verify_artifacts(str(out))
    fails = [line for line in checks if line.startswith("FAIL")]
    assert code == 2 and len(fails) == 1
    _, proof_pattern = load("run").KNOWN_VERIFY_FAILURES["load-split"][1]
    assert proof_pattern.fullmatch(fails[0]), fails[0]
