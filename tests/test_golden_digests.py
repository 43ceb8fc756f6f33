"""Pinned artifact digests of the shipped scenarios.

Determinism is the contract: the same scenario and seed must give
byte-identical artifacts, also across refactors and speed-ups. A change
that alters these bytes is a change of behaviour and must update the pins
on purpose.
"""

import hashlib
import json
from pathlib import Path

import pytest

from privamm.cli import main

SCENARIOS = Path(__file__).resolve().parent.parent / "scenarios"

#: SHA-256 of each artifact, and the ``logSha256`` that summary.json records.
GOLDEN = {
    "smoke": {
        "logSha256": "6423b80f06bcdffbb90ae553a25bec05d74f69384ff60d502efd1403e9864193",
        "summary.json": "7832289771418a5168ef6fe7b1c0ef18214de3630a255991b65673ac615df740",
        "metrics.csv": "4a00eb8b061e998d8bc97179b94513a2f18d5a0440026322a3f6d61fea7e2ba8",
        "attack_report.csv": "31e8f7093217a9f1d182cde02745b95d24b5218f1f095f5dbbdf1eb42f038bc5",
    },
    "split": {
        "logSha256": "0968d6def3487e47e5e6f900efb9f4c5eb72b827363fedbcae1afc543befabf7",
        "summary.json": "972cdb659a4d475114e6f66c81ba386e042c93dedb4510c6961e347e75aba2e2",
        "metrics.csv": "3603f71bd0362f12bdf1fa1a833ac97ed7adcd60ce19813263809ffd38d4329e",
        "attack_report.csv": "ccf5874ef6693e798f58d8b1ad568f0b7ed81fecdbf80b3d23f4fe9ef7322cb2",
    },
    "failure": {
        "logSha256": "d559ff4d9013ca8460709c2f081dccd3de50f8b7a910f11b0e90a31d05819db2",
        "summary.json": "4675b4250ba53f4d64050300c2f1c347858d1f392aaf06dd315b417b1f60f8e2",
        "metrics.csv": "40faa64eef499d77fd53eafae6ffa2710fccaad3c0119fc6f8432e547464d79b",
        "attack_report.csv": "ccf5874ef6693e798f58d8b1ad568f0b7ed81fecdbf80b3d23f4fe9ef7322cb2",
    },
}


def sha256_of(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_scenario_artifacts_match_pinned_digests(name, tmp_path):
    out = tmp_path / name
    assert main(["run", str(SCENARIOS / f"{name}.json"), "--out", str(out)]) == 0
    summary = json.loads((out / "summary.json").read_text())
    got = {
        "logSha256": summary["logSha256"],
        **{f: sha256_of(out / f)
           for f in ("summary.json", "metrics.csv", "attack_report.csv")},
    }
    assert got == GOLDEN[name]
    assert sha256_of(out / "run.jsonl") == GOLDEN[name]["logSha256"]


def test_drain_scenario_exits_2(tmp_path):
    assert main(["run", str(SCENARIOS / "drain.json"),
                 "--out", str(tmp_path / "drain")]) == 2
