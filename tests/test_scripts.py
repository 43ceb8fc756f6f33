"""The scripts under scripts/ run end to end and stay deterministic."""

import hashlib
import importlib.util
import json
import platform
import subprocess
from pathlib import Path

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


FAKE_PERFBENCH = '''
import json, sys
args = dict(zip(sys.argv[1::2], sys.argv[2::2]))
label = open("label").read().strip()
log = open("calls", "a")
log.write(f"{label} {args['--workload']}\\n")
log.close()
calls = sum(1 for _ in open("calls"))
print(f"workload {args['--workload']}, seed {args['--seed']}, trace 0, "
      f"logSha256 {label}{args['--workload']}")
correct = not (label == "b" and args["--workload"] == "mev-sweep" and calls > 3)
print(json.dumps({"correct": correct, "metrics": {
    "run_s": {"value": float(calls), "unit": "s"},
    "peak_rss_mb": {"value": 20.0, "unit": "MB"},
    "not_end_to_end": {"value": 1.0, "unit": "1"}}}))
'''


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
    assert a["trade-heavy"]["logSha256"] == ["atrade-heavy"]
    assert b["mev-sweep"]["failed"] == 2
    assert b["mev-sweep"]["rounds"]["run_s"] == [3.0]
    assert "not_end_to_end" not in a["load-split"]["rounds"]


FLAKY_PERFBENCH = '''
import json, sys
args = dict(zip(sys.argv[1::2], sys.argv[2::2]))
with open("calls", "a") as log:
    log.write(args["--workload"] + "\\n")
calls = sum(1 for _ in open("calls"))
print(f"workload {args['--workload']}, seed 1, trace 0, logSha256 x{calls}")
if calls == 3:
    print("Traceback (most recent call last): a crash after the digest")
    sys.exit(0)
print(json.dumps({"correct": True, "metrics": {
    "run_s": {"value": float(calls), "unit": "s"}}}))
sys.exit(1 if calls == 2 else 0)
'''


def git(checkout, *args):
    subprocess.run(["git", "-C", str(checkout), "-c", "user.name=bench",
                    "-c", "user.email=bench@example.org", *args],
                   check=True, capture_output=True)


def test_bench_records_commits_and_counts_bad_runs_as_failed(tmp_path):
    """Each checkout's commit and dirty flag are recorded (null outside a
    git work tree), and a run that exits non-zero or whose last line is
    not JSON is a failed round, not an exception."""
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
        assert third["failed"] == 1 and third["logSha256"] == ["x3"]
