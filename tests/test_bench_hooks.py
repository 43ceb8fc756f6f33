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
import sys
from pathlib import Path

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
