"""The scripts under scripts/ run end to end and stay deterministic."""

import hashlib
import importlib.util
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
