"""Pinned artifact digests of the shipped scenarios.

Determinism is the contract: the same scenario and seed must give
byte-identical artifacts, also across refactors and speed-ups. A change
that alters these bytes is a change of behaviour and must update the pins
on purpose.
"""

import hashlib
import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from privamm.cli import main, verify_artifacts
from privamm.sharding import anchor_root

ROOT = Path(__file__).resolve().parent.parent
SCENARIOS = ROOT / "scenarios"

#: SHA-256 of each artifact, and the ``logSha256`` that summary.json records.
GOLDEN = {
    "smoke": {
        "logSha256": "c41dd4d5ffb8406c40afbf8ea096907c8aa4d6122c5c9ba8e8a8bcaa7fcf2a35",
        "summary.json": "ee24ecc3bfcdceadfcfb7cdb2f8a63db890fec7baf4b5003cda673335525f325",
        "metrics.csv": "4a00eb8b061e998d8bc97179b94513a2f18d5a0440026322a3f6d61fea7e2ba8",
        "attack_report.csv": "31e8f7093217a9f1d182cde02745b95d24b5218f1f095f5dbbdf1eb42f038bc5",
    },
    "merge": {
        "logSha256": "e0b67df54595c9fdd1006a67c71f1cffea42f5dccd8436f72b74367df7821827",
        "summary.json": "e9fdd35e5f5a11b1e9f88f41db6e0d82eadfc675f5cb0913b240ffae4f5ba765",
        "metrics.csv": "2702a18b2855ee791f4fdf9966233697ffff7140de6b33dc930f3394f67059ba",
        "attack_report.csv": "ccf5874ef6693e798f58d8b1ad568f0b7ed81fecdbf80b3d23f4fe9ef7322cb2",
    },
    "split": {
        "logSha256": "e1f094db644995195b1ea76b2b2a5d8d068964a624ebb08f2f262191b1e22edf",
        "summary.json": "be1501e07b2445f7dbcbd54bbed431e7a05b865e02de830908148ac6840138c3",
        "metrics.csv": "3603f71bd0362f12bdf1fa1a833ac97ed7adcd60ce19813263809ffd38d4329e",
        "attack_report.csv": "ccf5874ef6693e798f58d8b1ad568f0b7ed81fecdbf80b3d23f4fe9ef7322cb2",
    },
    "failure": {
        "logSha256": "ef63a7ec2af3afd836724f212aa90847d3dd188b3334b95cd3828f5f2c14b55e",
        "summary.json": "2af6b0b998b7c6eb156e6be66c3dc0e7c7fdebba50737e4baa6430759ed1e77a",
        "metrics.csv": "40faa64eef499d77fd53eafae6ffa2710fccaad3c0119fc6f8432e547464d79b",
        "attack_report.csv": "ccf5874ef6693e798f58d8b1ad568f0b7ed81fecdbf80b3d23f4fe9ef7322cb2",
    },
}


#: ``logSha256`` of each benchmark workload in ``perfbench/workloads.py`` at
#: seed 1.
BENCH_LOG_SHA256 = {
    "trade-heavy": "6e165774789861c672b40df9712f5ea404c608282873fb773b22015c59842edc",
    "load-split": "3c83821e6c2da5dbcf48cd9dba1994419732c985a5516ce602612bea6428c163",
    "mev-sweep": "b8e6a2e530446b222278e9eafef45334b7c61870557039659c94a4f54fe0d872",
}


def sha256_of(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


#: What ``privamm verify`` prints for the ``merge`` artifacts.
MERGE_VERIFY_LINES = [
    "ok: summary.json well-formed",
    "ok: event log digest matches summary",
    "ok: run.jsonl well-formed",
    "ok: block headers replay (35 headers)",
    "ok: balance and account proofs replay (4 proofs)",
    "ok: anchor tables complete and bound (9 rounds)",
    "ok: published pools on the constant-product curve (2 states)",
    "ok: commitment openings verify (1 openings)",
    "ok: metrics.csv well-formed (13 rows)",
    "ok: attack_report.csv well-formed",
    "verification passed",
]


def artifact_digests(out: Path) -> dict:
    summary = json.loads((out / "summary.json").read_text())
    assert sha256_of(out / "run.jsonl") == summary["logSha256"]
    return {
        "logSha256": summary["logSha256"],
        **{f: sha256_of(out / f)
           for f in ("summary.json", "metrics.csv", "attack_report.csv")},
    }


def assert_summary_table_is_sealed(out: Path) -> None:
    """summary.json's anchor table is the one the master tip commits to."""
    summary = json.loads((out / "summary.json").read_text())
    events = [json.loads(line)
              for line in (out / "run.jsonl").read_text().splitlines()]
    (*_, tip) = [ev["header"] for ev in events
                 if ev["event"] == "block" and ev["chain"] == "master"]
    root = anchor_root(summary["master"]["anchorTable"])
    assert "0x" + root.hex() == tip["stateRoot"]


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_scenario_artifacts_match_pinned_digests(name, tmp_path):
    out = tmp_path / name
    assert main(["run", str(SCENARIOS / f"{name}.json"), "--out", str(out)]) == 0
    assert artifact_digests(out) == GOLDEN[name]
    assert_summary_table_is_sealed(out)
    assert verify_artifacts(str(out))[0] == 0


def test_summary_anchor_table_is_sealed_after_a_last_round_split(tmp_path):
    """Cut at 21 ticks, ``merge`` splits its shard in its last block
    round; the summary keeps the table that round's master block sealed."""
    scenario = json.loads((SCENARIOS / "merge.json").read_text())
    scenario["ticks"] = 21
    path = tmp_path / "merge21.json"
    path.write_text(json.dumps(scenario))
    out = tmp_path / "merge21"
    assert main(["run", str(path), "--out", str(out)]) == 0
    summary = json.loads((out / "summary.json").read_text())
    assert [ev["event"] for ev in summary["shardEvents"]] == ["split"]
    assert summary["shardEvents"][0]["tick"] == 20
    assert_summary_table_is_sealed(out)


def test_run_and_verify_do_not_depend_on_hash_seed(tmp_path):
    """Each interpreter salts str and bytes hashes differently, which
    reorders sets and can reorder work; artifacts and verify lines must
    not change with it."""
    src = str(ROOT / "src")
    pythonpath = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    for hash_seed in ("1", "2"):
        env = dict(os.environ, PYTHONHASHSEED=hash_seed, PYTHONPATH=pythonpath)
        out = tmp_path / f"merge-{hash_seed}"
        subprocess.run([sys.executable, "-m", "privamm.cli", "run",
                        str(SCENARIOS / "merge.json"), "--out", str(out)],
                       env=env, check=True, capture_output=True)
        verify = subprocess.run([sys.executable, "-m", "privamm.cli", "verify",
                                 str(out)], env=env, capture_output=True,
                                text=True)
        assert artifact_digests(out) == GOLDEN["merge"]
        assert verify.returncode == 0, verify.stdout
        assert verify.stdout.splitlines() == MERGE_VERIFY_LINES


def test_drain_scenario_exits_2(tmp_path):
    assert main(["run", str(SCENARIOS / "drain.json"),
                 "--out", str(tmp_path / "drain")]) == 2


@pytest.mark.parametrize("workload", sorted(BENCH_LOG_SHA256))
def test_bench_workload_logs_match_pinned_digests(workload, tmp_path):
    spec = importlib.util.spec_from_file_location(
        "perfbench_workloads", ROOT / "perfbench" / "workloads.py")
    workloads = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)
    scenario = tmp_path / "scenario.json"
    scenario.write_text(json.dumps(workloads.GENERATORS[workload](1)))
    out = tmp_path / workload
    assert main(["run", str(scenario), "--out", str(out)]) == 0
    assert artifact_digests(out)["logSha256"] == BENCH_LOG_SHA256[workload]
