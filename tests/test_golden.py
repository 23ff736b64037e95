"""Golden CLI output: small --no-timing command lines against recorded runs.

Each line of COMMANDS was run once and its exit code, stdout and stderr
stored in tests/golden/cli.json.  The test replays every line in process
and compares exit codes, integers, booleans and strings exactly, and
floats to a relative tolerance of 1e-12.  To record the file again from
the current source tree:

    PYTHONPATH=src python tests/test_golden.py --record

Recording keeps every stored entry that its replay agrees with, so the
file changes only where the output moved past the tolerance or a line is
new.
"""

import contextlib
import csv
import io
import json
import math
import sys
from pathlib import Path

import pytest

import ffb.cli

GOLDEN = Path(__file__).resolve().parent / "golden" / "cli.json"
REL_TOL = 1e-12

F101 = "--p 101"
F81 = "--p 3 --k 4"
F128 = "--p 2 --k 7"
ABCD = "--a random:20 --b random:20 --c random:20 --d random:20"

COMMANDS = [
    f"count {F101} {ABCD} --lambda 7",
    f"count {F101} {ABCD} --lambda all --seed 3",
    f"count {F81} {ABCD} --lambda all0",
    f"count {F128} --a random:30 --b ~random:90 --c subgroup:1 --d random:30 --lambda all",
    f"count {F101} {ABCD} --lambda all --format csv",
    f"countT {F101} --a random:30 --b interval:0..9 --c random:30 --d=-random:30",
    f"countT {F81} {ABCD} --seed 2",
    f"countT {F128} {ABCD}",
    f"countn {F101} --a random:20 --b random:20 --a random:20 --b random:20 --lambda all",
    f"countn {F81} --a random:9 --b random:9 --a random:9 --b random:9 "
    "--a random:9 --b random:9 --lambda 5",
    f"countn {F128} --a random:40 --b random:40 --a random:40 --b random:40 --lambda 0",
    f"det2 {F101} {ABCD} --lambda 11",
    f"det2 {F81} {ABCD} --lambda 0",
    f"det2 {F128} {ABCD} --lambda all --seed 1",
    f"solvability {F101} --a random:40 --b random:40 --c random:40 --d random:40 --lambda all",
    f"solvability {F81} --a subgroup:2 --b subgroup:2 --c subgroup:4 --d random:30 --lambda 3",
    f"solvability {F128} {ABCD} --lambda 100",
    f"exceptional {F101} --f random:5 --g random:5 --h random:5",
    f"exceptional {F81} --f random:3 --g random:4 --h random:3 --seed 4",
    f"exceptional {F128} --f random:4 --g random:5 --h random:4",
    f"sumprod {F101} --x random:10 --y progression:1,3,12",
    f"sumprod {F81} --x random:10 --y random:12",
    f"sumprod {F128} --x random:10 --y random:12 --format csv",
    f"bounds {F101} --a random:20 --b random:20",
    f"bounds {F101} {ABCD} --lambda 50 --r-max 1",
    f"bounds {F81} --a random:20 --b random:20 --lambda 5 --use-p --r-max 3",
    f"bounds {F128} {ABCD} --lambda 9 --format csv",
    f"scan --op count {F101} {ABCD} --lambda 3 --seeds 4 --jobs 2",
    f"scan --op bounds {F81} --a random:20 --b random:20 --lambda all0 --r-max 1 "
    "--seeds 2 --format csv",
    f"scan --op exceptional {F128} --f random:4 --g random:5 --h random:4 --seeds 3",
    "selftest --q-max 5 --tuples 2",
    f"count {F101} {ABCD} --lambda 101",
    f"countn {F101} --a random:3 --b random:3 --a random:3 --lambda 1",
    "count --p 65521 --a random:300 --b random:300 --c random:300 --d random:300 --lambda 9",
    "bounds --p 8191 --a random:1024 --b random:300 --c random:300 --d random:1024 "
    "--lambda 7 --r-max 1",
    "count --p 4093 --a ~random:1 --b ~random:1 --c ~random:1 --d ~random:1 --lambda 7",
]


def argv(line: str) -> list[str]:
    if line.startswith("selftest"):
        return line.split()
    return line.split() + ["--no-timing"]


def replay(line: str) -> dict:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = ffb.cli.run(argv(line))
    return {"line": line, "code": code, "stdout": out.getvalue(), "stderr": err.getvalue()}


def same(got, want) -> bool:
    """Exact equality, except floats to REL_TOL (NaN only against NaN)."""
    if isinstance(want, float) and isinstance(got, float):
        if math.isnan(want):
            return math.isnan(got)
        return math.isclose(got, want, rel_tol=REL_TOL, abs_tol=0.0)
    if type(got) is not type(want):
        return False
    if isinstance(want, dict):
        return got.keys() == want.keys() and all(same(got[k], want[k]) for k in want)
    if isinstance(want, list):
        return len(got) == len(want) and all(map(same, got, want))
    return got == want


def agrees(got: dict, want: dict) -> bool:
    """The same exit code and stderr, and the same output up to REL_TOL."""
    return ((got["code"], got["stderr"]) == (want["code"], want["stderr"])
            and same(parsed(got), parsed(want)))


def value(text: str):
    """A JSON record or CSV cell as data; anything else stays a string."""
    try:
        return json.loads(text)
    except ValueError:
        return text


def parsed(record: dict) -> list:
    lines = record["stdout"].splitlines()
    if "--format csv" in record["line"]:
        return [[value(cell) for cell in row] for row in csv.reader(lines)]
    return [value(line) for line in lines]


@pytest.fixture(scope="module")
def golden() -> dict:
    return {record["line"]: record for record in json.loads(GOLDEN.read_text())}


def test_golden_file_covers_every_command(golden):
    assert sorted(golden) == sorted(COMMANDS)


@pytest.mark.parametrize("line", COMMANDS)
def test_command_output_matches_golden(golden, line):
    assert agrees(replay(line), golden[line]), line


if __name__ == "__main__" and sys.argv[1:] == ["--record"]:
    GOLDEN.parent.mkdir(exist_ok=True)
    stored = {}
    if GOLDEN.exists():
        stored = {record["line"]: record for record in json.loads(GOLDEN.read_text())}
    records = []
    for line in COMMANDS:
        got = replay(line)
        keep = line in stored and agrees(got, stored[line])
        records.append(stored[line] if keep else got)
    GOLDEN.write_text(json.dumps(records, indent=1) + "\n")
