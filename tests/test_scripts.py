"""The scripts under scripts/ run end to end and stay deterministic."""

import hashlib
import importlib.util
import json
import platform
import subprocess
from pathlib import Path

import pytest

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


def load_script(name: str):
    spec = importlib.util.spec_from_file_location(name, SCRIPTS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_mev_profit_sweep_csv_is_pinned(tmp_path):
    out = tmp_path / "sweep.csv"
    sweep = load_script("mev_profit_sweep")
    assert sweep.main(["--sizes", "10,50", "--trials", "300",
                       "--out", str(out)]) == 0
    rows = out.read_text().splitlines()
    assert rows[0] == ",".join(sweep.FIELDS)
    assert len(rows) == 1 + 2 * 2 * 2  # sizes x strategies x modes
    assert hashlib.sha256(out.read_bytes()).hexdigest() == (
        "825c3d6a2f40a2f4e2af3cfcb4bc632b7837b31fd705af477f689c3d64089dfa")


def test_mev_profit_sweep_rejects_fewer_than_one_trial(capsys):
    sweep = load_script("mev_profit_sweep")
    with pytest.raises(SystemExit) as info:
        sweep.main(["--trials", "0"])
    assert info.value.code == 2
    err = capsys.readouterr().err
    assert err.startswith("usage: ")
    assert "argument --trials: must be at least 1, got 0" in err


FAKE_PERFBENCH = '''
import hashlib, json, sys
args = dict(zip(sys.argv[1::2], sys.argv[2::2]))
label = open("label").read().strip()
log = open("calls", "a")
log.write(f"{label} {args['--workload']}\\n")
log.close()
calls = sum(1 for _ in open("calls"))
correct = not (label == "b" and args["--workload"] == "mev-sweep" and calls > 3)
# A failed first repeat leaves perfbench without a digest to print.
digest = hashlib.sha256(f"{label}{args['--workload']}".encode()).hexdigest()
print(f"workload {args['--workload']}, seed {args['--seed']}, trace 0, "
      f"logSha256 {digest if correct else None}")
print(json.dumps({"correct": correct, "metrics": {
    "run_s": {"value": float(calls), "unit": "s"},
    "peak_rss_mb": {"value": 20.0, "unit": "MB"},
    "not_end_to_end": {"value": 1.0, "unit": "1"}}}))
'''


def sha256_hex(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def test_bench_alternates_checkouts_and_takes_medians(tmp_path):
    """bench.py runs each checkout's perfbench once per workload and round,
    swaps the order every round, keeps only BENCHMARK.json's end-to-end
    metrics, and counts a run that is not correct as failed."""
    for label in ("a", "b"):
        checkout = tmp_path / label
        (checkout / "perfbench").mkdir(parents=True)
        (checkout / "perfbench" / "run.py").write_text(FAKE_PERFBENCH)
        (checkout / "label").write_text(label)
    out = tmp_path / "BENCH_1.json"
    bench = load_script("bench")
    code = bench.main(["1", "--checkout", f"a={tmp_path / 'a'}",
                       "--checkout", f"b={tmp_path / 'b'}",
                       "--rounds", "3", "--seconds", "1", "--out", str(out)])
    assert code == 1  # two mev-sweep runs of b were not correct
    report = json.loads(out.read_text())
    assert report["machine"]["python"] == platform.python_version()
    workloads = [w["name"] for w in json.loads(
        (SCRIPTS.parent / "BENCHMARK.json").read_text())["workloads"]]
    for label in ("a", "b"):
        calls = (tmp_path / label / "calls").read_text().split()
        assert calls[1::2] == workloads * 3
    a, b = report["results"]["a"], report["results"]["b"]
    assert list(a) == workloads
    # Each checkout's calls count its own runs: 1, 2, 3 for trade-heavy.
    assert a["trade-heavy"]["rounds"]["run_s"] == [1.0, 4.0, 7.0]
    assert a["trade-heavy"]["median"] == {"run_s": 4.0, "peak_rss_mb": 20.0}
    assert a["trade-heavy"]["logSha256"] == [sha256_hex("atrade-heavy")]
    assert b["mev-sweep"]["failed"] == 2
    # The two failed runs printed "logSha256 None"; no digest is recorded.
    assert b["mev-sweep"]["logSha256"] == [sha256_hex("bmev-sweep")]
    assert b["mev-sweep"]["rounds"]["run_s"] == [3.0]
    assert "not_end_to_end" not in a["load-split"]["rounds"]


FLAKY_PERFBENCH = '''
import json, sys
args = dict(zip(sys.argv[1::2], sys.argv[2::2]))
with open("calls", "a") as log:
    log.write(args["--workload"] + "\\n")
calls = sum(1 for _ in open("calls"))
print(f"workload {args['--workload']}, seed 1, trace 0, logSha256 {calls:064x}")
if calls == 3:
    print("Traceback (most recent call last): a crash after the digest")
    sys.exit(0)
print(json.dumps({"correct": True, "metrics": {
    "run_s": {"value": float(calls), "unit": "s"}}}))
if calls == 2:
    for i in range(7):
        print(f"stderr line {i}", file=sys.stderr)
    sys.exit(1)
'''


def git(checkout, *args):
    subprocess.run(["git", "-C", str(checkout), "-c", "user.name=bench",
                    "-c", "user.email=bench@example.org", *args],
                   check=True, capture_output=True)


def test_bench_records_commits_and_counts_bad_runs_as_failed(tmp_path):
    """Each checkout's commit and dirty flag are recorded (null outside a
    git work tree), and a run that exits non-zero or whose last line is
    not JSON is a failed round, not an exception, listed under
    ``failures`` with its exit code and the tails of its output."""
    for label in ("clean", "dirty", "plain"):
        checkout = tmp_path / label
        (checkout / "perfbench").mkdir(parents=True)
        (checkout / "perfbench" / "run.py").write_text(FLAKY_PERFBENCH)
        if label != "plain":
            (checkout / ".gitignore").write_text("calls\n")
            git(checkout, "init", "-q")
            git(checkout, "add", "-A")
            git(checkout, "commit", "-q", "-m", "stub")
    (tmp_path / "dirty" / "perfbench" / "run.py").write_text(
        FLAKY_PERFBENCH + "\n")
    out = tmp_path / "BENCH_2.json"
    bench = load_script("bench")
    code = bench.main(["2", "--rounds", "1", "--seconds", "1",
                       "--out", str(out)]
                      + [f"--checkout={label}={tmp_path / label}"
                         for label in ("clean", "dirty", "plain")])
    assert code == 1
    report = json.loads(out.read_text())
    head = subprocess.run(["git", "-C", str(tmp_path / "clean"), "rev-parse",
                           "HEAD"], capture_output=True, text=True).stdout
    checkouts = report["checkouts"]
    assert checkouts["clean"] == {"commit": head.strip(), "dirty": False}
    assert checkouts["dirty"]["dirty"] is True
    assert len(checkouts["dirty"]["commit"]) == 40
    assert checkouts["plain"] == {"commit": None, "dirty": None}
    for label in ("clean", "dirty", "plain"):
        results = report["results"][label]
        first, second, third = results.values()
        assert first["failed"] == 0 and first["rounds"]["run_s"] == [1.0]
        assert second["failed"] == 1 and second["rounds"] == {}
        assert third["failed"] == 1 and third["logSha256"] == [f"{3:064x}"]
    labels = ("clean", "dirty", "plain")
    assert report["failures"] == [
        {"workload": "load-split", "checkout": label, "round": 1, "code": 1,
         "stdout": [f"workload load-split, seed 1, trace 0, logSha256 "
                    f"{2:064x}",
                    '{"correct": true, "metrics": {"run_s": {"value": 2.0, '
                    '"unit": "s"}}}'],
         "stderr": [f"stderr line {i}" for i in range(2, 7)]}
        for label in labels] + [
        {"workload": "mev-sweep", "checkout": label, "round": 1, "code": 0,
         "stdout": [f"workload mev-sweep, seed 1, trace 0, logSha256 "
                    f"{3:064x}",
                    "Traceback (most recent call last): a crash after the "
                    "digest"],
         "stderr": []}
        for label in labels]


PAIRED_PERFBENCH = '''
import json, sys
args = dict(zip(sys.argv[1::2], sys.argv[2::2]))
label, workload = open("label").read().strip(), args["--workload"]
with open("calls", "a") as log:
    log.write(workload + "\\n")
k = open("calls").read().split().count(workload)
print(f"workload {workload}, seed 1, trace 0, logSha256 {ord(label[0]):064x}")
if label == "parent" and workload == "trade-heavy" and k == 3:
    sys.exit(1)
run_s, tx_per_s = 10.0 + k, 100.0
if label == "change":
    run_s -= {"trade-heavy": 5, "load-split": 1 if k != 2 else -3}.get(
        workload, 0)
    tx_per_s += {"load-split": -17, "mev-sweep": -19}.get(workload, 1)
print(json.dumps({"correct": True, "metrics": {
    "run_s": {"value": run_s, "unit": "s"},
    "tx_per_s": {"value": tx_per_s, "unit": "1/s"}}}))
'''


def test_bench_applies_the_claim_rule_to_two_checkouts(tmp_path):
    """With two checkouts, each metric's rounds are counted as won, lost or
    tied by the second in its `better` direction, over the rounds both
    produced a value, and a median worse by more than BENCHMARK.json's
    bound is a regression; each side's quartiles are recorded."""
    for label in ("parent", "change"):
        checkout = tmp_path / label
        (checkout / "perfbench").mkdir(parents=True)
        (checkout / "perfbench" / "run.py").write_text(PAIRED_PERFBENCH)
        (checkout / "label").write_text(label)
    out = tmp_path / "BENCH_3.json"
    bench = load_script("bench")
    code = bench.main(["3", "--checkout", f"parent={tmp_path / 'parent'}",
                       "--checkout", f"change={tmp_path / 'change'}",
                       "--rounds", "5", "--seconds", "1", "--out", str(out)])
    assert code == 1  # the parent's third trade-heavy round failed
    report = json.loads(out.read_text())
    parent = report["results"]["parent"]["trade-heavy"]
    assert parent["failed"] == 1
    assert parent["rounds"]["run_s"] == [11.0, 12.0, 14.0, 15.0]
    assert parent["quartiles"]["run_s"] == [11.75, 13.0, 14.25]
    pairs = report["pairs"]
    assert (pairs["first"], pairs["second"]) == ("parent", "change")
    counts = pairs["results"]
    # Round 3 of trade-heavy has no parent value, so it is not a pair.
    assert counts["trade-heavy"]["run_s"] == {
        "won": 4, "lost": 0, "tied": 0, "gain": True, "regressed": False}
    # A higher tx_per_s wins; the parent's quartiles are 0 apart.
    assert counts["trade-heavy"]["tx_per_s"] == {
        "won": 4, "lost": 0, "tied": 0, "gain": True, "regressed": False}
    # Four wins in five pairs is below nine tenths.
    assert counts["load-split"]["run_s"] == {
        "won": 4, "lost": 1, "tied": 0, "gain": False, "regressed": False}
    assert counts["mev-sweep"]["run_s"] == {
        "won": 0, "lost": 0, "tied": 5, "gain": False, "regressed": False}
    # tx_per_s may fall by its bound, 18% of the parent's 100.0, and no
    # more: 17% is no regression, 19% is one.
    assert counts["load-split"]["tx_per_s"] == {
        "won": 0, "lost": 5, "tied": 0, "gain": False, "regressed": False}
    assert counts["mev-sweep"]["tx_per_s"] == {
        "won": 0, "lost": 5, "tied": 0, "gain": False, "regressed": True}
    assert "peak_rss_mb" not in counts["mev-sweep"]
