"""Output checker: one expected record is one operation.

Every seed: exit code, record count and order, and the identities the
program promises (n == n_charform, t == t_charform, every bound's holds
flag, sarkozy_ok, count >= lower, a firing solvability threshold implies a
solution).  Seeds with stored reference output additionally match exact
integer, boolean and string fields exactly and float fields (main, err,
W/V, ratios) within FLOAT_RTOL/FLOAT_ATOL, never byte for byte, because a
correct change of transform moves their low bits.
"""

from __future__ import annotations

import json
import math
import re
from dataclasses import dataclass, field

from workloads import Command

FLOAT_RTOL = 1e-6
FLOAT_ATOL = 1e-6

_RESIDUAL = re.compile(r"RoundingDrift: .* is ([0-9.eE+-]+) from an integer")


@dataclass
class CommandCheck:
    passed: int = 0
    failed: int = 0
    refused: bool = False
    residual: float | None = None
    problems: list[str] = field(default_factory=list)


def expected_op(command: Command) -> str:
    tokens = command.text.split()
    return tokens[tokens.index("--op") + 1] if tokens[0] == "scan" else tokens[0]


def _invariants(r: dict) -> list[str]:
    op = r.get("op")
    bad = []
    if op == "count" and r.get("n") != r.get("n_charform"):
        bad.append(f"n {r.get('n')} != n_charform {r.get('n_charform')}")
    if op == "countT" and r.get("t") != r.get("t_charform"):
        bad.append(f"t {r.get('t')} != t_charform {r.get('t_charform')}")
    if op in ("count", "countn", "det2", "solvability"):
        n = r.get("n")
        if not isinstance(n, int) or isinstance(n, bool) or n < 0:
            bad.append(f"n {n!r} is not a count")
    if op == "bounds":
        checks = ["vinogradov_v", "vinogradov_w"] + (["cauchy"] if "c" in r.get("sets", {}) else [])
        for name in checks:
            if (r.get(name) or {}).get("holds") is not True:
                bad.append(f"{name}.holds is not true")
    if op == "exceptional" and r.get("sarkozy_ok") is not True:
        bad.append("sarkozy_ok is not true")
    if op == "sumprod":
        count, lower = r.get("count"), r.get("lower")
        if r.get("ok") is not True or not isinstance(count, int) or not isinstance(lower, int) \
                or count < lower:
            bad.append(f"count {count!r} below lower {lower!r}")
    if op == "solvability" and r.get("fires") and not r.get("n", 0) > 0:
        bad.append("threshold fires without a solution")
    return bad


def _compare(value, ref, path: str, m: int, bad: list[str]) -> None:
    if isinstance(ref, dict):
        if not isinstance(value, dict):
            bad.append(f"{path}: expected an object")
            return
        for key, sub in ref.items():
            if key not in value:
                bad.append(f"{path}.{key}: missing")
            else:
                _compare(value[key], sub, f"{path}.{key}", m, bad)
    elif isinstance(ref, list):
        if not isinstance(value, list) or len(value) != len(ref):
            bad.append(f"{path}: expected a list of {len(ref)}")
            return
        for i, (v, s) in enumerate(zip(value, ref)):
            _compare(v, s, f"{path}[{i}]", m, bad)
    elif isinstance(ref, bool) or ref is None or isinstance(ref, str):
        if type(value) is not type(ref) or value != ref:
            bad.append(f"{path}: {value!r} != {ref!r}")
    elif isinstance(ref, int):
        # |S(j)| == |S(M - j)| for real weights, so either index is a maximum
        allowed = {ref, (m - ref) % m} if path.endswith("_argmax") else {ref}
        if isinstance(value, bool) or not isinstance(value, int) or value not in allowed:
            bad.append(f"{path}: {value!r} != {ref!r}")
    elif isinstance(ref, float):
        if isinstance(value, bool) or not isinstance(value, (int, float)) \
                or not math.isclose(value, ref, rel_tol=FLOAT_RTOL, abs_tol=FLOAT_ATOL):
            bad.append(f"{path}: {value!r} not within tolerance of {ref!r}")


def check_record(r: dict, op: str, seed: int, index: int | None, ref: dict | None) -> list[str]:
    """Problems found in one output record (empty when it passes)."""
    if not isinstance(r, dict):
        return ["record is not an object"]
    bad = []
    if r.get("op") != op:
        bad.append(f"op {r.get('op')!r} != {op!r}")
    if index is None:
        if r.get("seed") != seed:
            bad.append(f"seed {r.get('seed')!r} != {seed}")
    elif r.get("index") != index:
        bad.append(f"index {r.get('index')!r} != {index}")
    bad += _invariants(r)
    if ref is not None:
        m = ((r.get("field") or {}).get("q") or 2) - 1
        _compare(r, ref, "record", m, bad)
    return bad


def check_command(command: Command, seed: int, code: int, stdout: str, stderr: str,
                  refs: list[dict] | None) -> CommandCheck:
    """Check one command's exit code and every record it printed.

    A probe may instead end in a named RoundingDrift refusal: that is the
    program declining to return an uncertified integer, so it is recorded
    (with its residual) and not counted as a wrong or missing record.
    """
    out = CommandCheck()
    if command.probe and code == 1:
        match = _RESIDUAL.search(stderr)
        if match:
            out.refused, out.residual = True, float(match.group(1))
            return out
    try:
        records = [json.loads(line) for line in stdout.splitlines()]
    except json.JSONDecodeError as exc:
        records = None
        out.problems.append(f"unparsable output: {exc}")
    if code != 0:
        out.problems.append(f"exit code {code}: {stderr.strip()[-300:]}")
    elif records is not None and len(records) != command.records:
        out.problems.append(f"{len(records)} records, expected {command.records}")
    if out.problems:
        out.failed = command.records
        return out
    op = expected_op(command)
    scan = command.text.startswith("scan")
    for i, record in enumerate(records):
        ref = refs[i] if refs is not None else None
        bad = check_record(record, op, seed, i if scan else None, ref)
        if bad:
            out.failed += 1
            out.problems.append(f"record {i}: " + "; ".join(bad))
        else:
            out.passed += 1
    return out


def corrupt(stdout: str) -> str | None:
    """stdout with one count record made wrong (n or t off by one), or None."""
    lines = stdout.splitlines()
    for i, line in enumerate(lines):
        record = json.loads(line)
        for key in ("n", "t"):
            if f"{key}_charform" in record:
                record[key] += 1
                lines[i] = json.dumps(record)
                return "\n".join(lines) + "\n"
    return None
