"""Every output byte of a fixed set of commands, pinned in `tests/golden/manifest.json`.

Each group of commands runs in this process, through `helpers.invoke`, from an
empty working directory and with relative paths only, so that no stamp or
message holds a temporary path. The manifest holds, per group, each command's
arguments, exit code and stderr, and the SHA-256 of every file the group leaves
in its directory. Every table has at most 78 rows, below `evaluate.NUMPY_ROWS`,
so no byte depends on the BLAS build.

A change that means to alter output bytes rewrites the manifest with

    PYTHONPATH=src python tests/test_golden.py

and names the files whose digests moved.
"""
from __future__ import annotations

import hashlib
import json
import os
import sys
import tempfile
from itertools import zip_longest
from pathlib import Path

import pytest

from helpers import invoke

MANIFEST = Path(__file__).resolve().parent / "golden" / "manifest.json"

STATS = ["--employment", "data/employment.csv", "--unemployment", "data/unemployment.csv",
         "--population", "data/population.csv"]

# Ten spell rows: a person with no spells (A2), back-to-back spells (A1), a 15.9-hour spell (A3), a person
# whose rows come in two runs, the later spell first (B1), a spell of exactly 16 hours (A4) and a gap (A5).
RECORDS = (
    "person_id,region,entry_date,spell_start,spell_end,hours_per_week\n"
    "A1,R01,2012-03-01,2012-03-01,2012-06-30,20\n"
    "A1,R01,2012-03-01,2012-07-01,2012-12-31,20\n"
    "A2,R01,2012-05-01,,,\n"
    "A3,R01,2013-02-01,2013-02-01,2013-12-31,15.9\n"
    "B1,R02,2012-01-10,2012-07-01,2013-01-31,40\n"
    "A4,R02,2013-04-01,2013-04-01,2013-10-01,16\n"
    "B1,R02,2012-01-10,2012-01-10,2012-06-30,40\n"
    "A5,R02,2013-06-15,2013-06-15,2013-08-31,35\n"
    "A5,R02,2013-06-15,2013-10-01,2014-03-01,35\n"
    "A6,R01,2013-09-01,2013-09-01,2014-03-01,16.5\n"
)

_PANEL_SYNTH = ["--seed", "7", "--regions", "6", "--years", "2003:2016", "--noise-sd", "0.02",
                "--shock-year", "2010", "--demand-shift", "-0.03", "--supply-shift", "0.01"]
_FIT = ["--features", "features.csv", "--performance", "data/performance.csv"]

# group: (input files written before the first command, the commands in order)
GROUPS: dict[str, tuple[dict[str, str], list[list[str]]]] = {
    "quickstart": ({"records.csv": RECORDS}, [  # the README quick-start, then the records commands on its data
        ["synth", "--out", "data/", "--seed", "7"],
        ["features", *STATS, "--out", "features.csv"],
        ["fit", *_FIT, "--model", "model.json"],
        ["evaluate", *_FIT, "--out", "report.json"],
        ["figures", *STATS, *_FIT, "--report", "report.json", "--out", "figs/"],
        ["validate", *STATS, "--records", "records.csv"],
        ["performance", "--records", "records.csv", "--out", "records_performance.csv"],
    ]),
    "panel": ({}, [
        ["synth", "--out", "data", *_PANEL_SYNTH],
        ["validate", *STATS],
        ["features", *STATS, "--out", "features.csv"],
        ["features", *STATS, "--no-normalize", "--lag", "1", "--working-age", "18:66", "--out", "features_lag.csv"],
        ["fit", *_FIT, "--model", "model.json"],
        ["fit", *_FIT, "--per-region", "--model", "model_per_region.json"],
        ["evaluate", *_FIT, "--out", "report.json"],
        ["evaluate", *_FIT, "--benchmark", "prior-years-mean", "--out", "report_prior.json"],
        ["evaluate", *_FIT, "--per-region", "--out", "report_per_region.json"],
        ["evaluate", "--features", "features_lag.csv", "--performance", "data/performance.csv",
         "--out", "report_lag.json"],
        ["figures", *STATS, *_FIT, "--report", "report.json", "--out", "figs"],
        ["figures", *STATS, *_FIT, "--report", "report.json", "--population-baseline", "difference",
         "--performance-baseline", "ratio", "--out", "figs_alt"],
    ]),
}


def _run(group: str) -> dict:
    """Run `group` here: each command's arguments, exit code and stderr, then the digest of every file left."""
    inputs, commands = GROUPS[group]
    for name, text in inputs.items():
        Path(name).write_text(text, encoding="utf-8")
    ran = []
    for args in commands:
        result = invoke(args, env={"WF_NO_COLOR": "1"})
        ran.append({"args": args, "exit_code": result.exit_code, "stderr": result.stderr})
    files = {path.as_posix(): hashlib.sha256(path.read_bytes()).hexdigest()
             for path in sorted(Path().rglob("*")) if path.is_file()}
    return {"commands": ran, "files": files}


@pytest.mark.parametrize("group", list(GROUPS))
def test_outputs_match_the_manifest(tmp_path, monkeypatch, group):
    monkeypatch.chdir(tmp_path)
    got = _run(group)
    pinned = json.loads(MANIFEST.read_text(encoding="utf-8"))[group]
    files = sorted(name for name in got["files"].keys() | pinned["files"].keys()
                   if got["files"].get(name) != pinned["files"].get(name))
    commands = [" ".join((now or then)["args"]) for now, then in zip_longest(got["commands"], pinned["commands"])
                if now != then]
    assert not files and not commands, (
        f"files that differ from the manifest: {files}; commands whose exit code or stderr differ: {commands}"
    )


if __name__ == "__main__":
    manifest = {}
    for name in GROUPS:
        with tempfile.TemporaryDirectory() as tmp:
            home = os.getcwd()
            os.chdir(tmp)
            try:
                manifest[name] = _run(name)
            finally:
                os.chdir(home)
    MANIFEST.parent.mkdir(exist_ok=True)
    MANIFEST.write_text(json.dumps(manifest, indent=2) + "\n", encoding="utf-8")
    print(f"wrote {MANIFEST}", file=sys.stderr)
