"""Byte-for-byte CLI reports for fixed seeds.

``golden/cli_outputs.json`` holds, for each case, the argv (``{tmp}`` stands
for a scratch directory holding ``records.txt``), the exit code and the exact
text the run writes to ``--out`` (``null`` when it writes nothing).  The
cases cover every subcommand and mechanism in csv and json, ``--scale``
overrides, logarithmic grids, ``--claimed`` levels, divergent multiplicative
bounds and the usage errors that stop a report before it is written.
"""

import json
from pathlib import Path

import pytest

from nonneg_dp.cli import main

GOLDEN = json.loads((Path(__file__).parent / "golden" / "cli_outputs.json").read_text(encoding="utf-8"))


@pytest.mark.parametrize("case", GOLDEN["cases"],
                         ids=[f"{i:02d}-{c['argv'][0]}" for i, c in enumerate(GOLDEN["cases"])])
def test_report_matches_golden(case, tmp_path, monkeypatch):
    monkeypatch.delenv("NONNEG_DP_SEED", raising=False)
    (tmp_path / "records.txt").write_text(GOLDEN["records"], encoding="utf-8")
    out = tmp_path / "report.out"
    argv = [arg.replace("{tmp}", str(tmp_path)) for arg in case["argv"]]
    assert main(argv + ["--out", str(out)]) == case["exit"]
    if case["out"] is None:
        assert not out.exists()
    else:
        assert out.read_bytes() == case["out"].encode("utf-8")
