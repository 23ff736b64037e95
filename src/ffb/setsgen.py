"""Deterministic construction of test subsets from compact descriptions.

Text syntax, one kind per spec plus stackable prefixes:

    explicit:1,2,3            listed element codes
    interval:1..4             integer interval (prime fields only)
    random:5                  5 distinct elements from the seeded stream
    subgroup:3                multiplicative subgroup of index 3
    progression:2,3,4         start 2, step 3, length 4
    -SPEC                     elementwise negation of SPEC
    ~SPEC                     complement of SPEC

Randomness is a counter-based splitmix64 stream: element i of a stream is
a pure function of (seed, i), so realisation is reproducible across
platforms and processes, and derive_seed splits independent substreams
for grid instances.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import BadParam
from .field import FieldSpec, field_add
from .repfn import FqSubset, complement_subset, negate_subset, subset_from_codes

_MASK = (1 << 64) - 1
_PHI = 0x9E3779B97F4A7C15
_MIX1, _MIX2 = 0xBF58476D1CE4E5B9, 0x94D049BB133111EB


def _mix(z: int) -> int:
    z &= _MASK
    z = ((z ^ (z >> 30)) * _MIX1) & _MASK
    z = ((z ^ (z >> 27)) * _MIX2) & _MASK
    return z ^ (z >> 31)


def stream_value(seed: int, counter: int) -> int:
    """64-bit output of the counter-based stream at position counter."""
    return _mix((seed + (counter + 1) * _PHI) & _MASK)


def derive_seed(seed: int, *path: int) -> int:
    """Split a child seed; distinct paths give independent streams."""
    s = seed & _MASK
    for part in path:
        s = _mix((s + (part + 1) * _PHI) & _MASK)
    return s


@dataclass(frozen=True)
class SetSpec:
    """Parsed set description: a kind, its parameters, optional wrapped spec."""

    kind: str
    params: tuple = ()
    inner: "SetSpec | None" = None

    def text(self) -> str:
        if self.kind == "negate":
            return "-" + self.inner.text()
        if self.kind == "complement":
            return "~" + self.inner.text()
        if self.kind == "interval":
            return f"interval:{self.params[0]}..{self.params[1]}"
        return f"{self.kind}:{','.join(str(x) for x in self.params)}"


def _ints(raw: str, what: str) -> list[int]:
    try:
        return [int(tok) for tok in raw.split(",") if tok != ""]
    except ValueError as exc:
        raise BadParam(f"{what}: expected comma-separated integers, got {raw!r}") from exc


def parse_setspec(text: str) -> SetSpec:
    """Parse the textual syntax above into a SetSpec tree."""
    text = text.strip()
    if text.startswith("-"):
        return SetSpec(kind="negate", inner=parse_setspec(text[1:]))
    if text.startswith("~"):
        return SetSpec(kind="complement", inner=parse_setspec(text[1:]))
    if ":" not in text:
        raise BadParam(f"set spec {text!r} has no kind: prefix")
    kind, _, raw = text.partition(":")
    if kind == "explicit":
        return SetSpec(kind="explicit", params=tuple(_ints(raw, "explicit")))
    if kind == "interval":
        lo, sep, hi = raw.partition("..")
        if not sep:
            raise BadParam(f"interval: expected lo..hi, got {raw!r}")
        try:
            return SetSpec(kind="interval", params=(int(lo), int(hi)))
        except ValueError as exc:
            raise BadParam(f"interval: bad endpoints {raw!r}") from exc
    if kind == "random":
        vals = _ints(raw, "random")
        if len(vals) != 1:
            raise BadParam(f"random: expected one size, got {raw!r}")
        return SetSpec(kind="random", params=(vals[0],))
    if kind == "subgroup":
        vals = _ints(raw, "subgroup")
        if len(vals) != 1:
            raise BadParam(f"subgroup: expected one index, got {raw!r}")
        return SetSpec(kind="subgroup", params=(vals[0],))
    if kind == "progression":
        vals = _ints(raw, "progression")
        if len(vals) != 3:
            raise BadParam(f"progression: expected start,step,len, got {raw!r}")
        return SetSpec(kind="progression", params=tuple(vals))
    raise BadParam(f"unknown set kind {kind!r}")


def _stream_block(seed: int, start: int, count: int) -> np.ndarray:
    """stream_value(seed, c) for c in [start, start + count), as uint64;
    numpy uint64 arithmetic wraps mod 2^64 like the masks in _mix."""
    z = np.arange(start + 1, start + count + 1, dtype=np.uint64)
    z *= np.uint64(_PHI)
    z += np.uint64(seed & _MASK)
    for shift, mul in ((30, _MIX1), (27, _MIX2)):
        z ^= z >> np.uint64(shift)
        z *= np.uint64(mul)
    z ^= z >> np.uint64(31)
    return z


def _draw_distinct(field: FieldSpec, m: int, seed: int) -> np.ndarray:
    """The mask of the first m distinct codes of the unbiased counter
    stream: values at or above the largest multiple of q below 2^64 are
    rejected, the rest taken mod q.

    The stream is drawn in blocks of 1.25 times the expected number of
    draws still needed, plus 64, at most 2^16 at a time: once j codes are
    found the next new one takes q / (q - j) draws on average, so from f
    found to m the expectation is about q ln((q - f) / (q - m)).  For m = q,
    where that diverges, a block is 2 (m - f) q / (q - f) + 64.  Block
    boundaries do not change which codes come first in stream order.
    Within a block, first[c] is the position of the first draw of code c:
    reset to the block length at the block's own codes, then lowered by one
    unbuffered minimum, so each block costs time linear in its length
    whatever q is.
    """
    q = field.q
    limit = ((1 << 64) // q) * q
    taken = np.zeros(q, dtype=bool)
    first = np.empty(q, dtype=np.int64)
    found = counter = 0
    while found < m:
        if m < q:
            need = 1.25 * q * math.log((q - found) / (q - m))
        else:
            need = 2 * (m - found) * q / (q - found)
        block = min(int(need) + 64, 1 << 16)
        values = _stream_block(seed, counter, block)
        counter += block
        if limit <= _MASK:
            values = values[values < np.uint64(limit)]
        codes = (values - values // np.uint64(q) * np.uint64(q)).astype(np.int64)
        position = np.arange(codes.size)
        first[codes] = codes.size
        np.minimum.at(first, codes, position)
        fresh = codes[(first[codes] == position) & ~taken[codes]][: m - found]
        taken[fresh] = True
        found += fresh.size
    return taken


def realize(field: FieldSpec, spec: SetSpec, seed: int = 0) -> FqSubset:
    """Materialise a SetSpec as a subset of the given field."""
    if spec.kind == "negate":
        return negate_subset(field, realize(field, spec.inner, seed))
    if spec.kind == "complement":
        return complement_subset(field, realize(field, spec.inner, seed))
    if spec.kind == "explicit":
        return subset_from_codes(field, spec.params)
    if spec.kind == "interval":
        lo, hi = spec.params
        if field.k != 1:
            raise BadParam("interval: defined for prime fields only")
        if not (0 <= lo <= hi < field.p):
            raise BadParam(f"interval: need 0 <= lo <= hi < p, got {lo}..{hi}")
        return subset_from_codes(field, range(lo, hi + 1))
    if spec.kind == "random":
        (m,) = spec.params
        if not (0 <= m <= field.q):
            raise BadParam(f"random: size {m} outside [0, {field.q}]")
        return FqSubset.from_mask(_draw_distinct(field, m, seed))
    if spec.kind == "subgroup":
        (d,) = spec.params
        if d < 1 or (field.q - 1) % d != 0:
            raise BadParam(f"subgroup: index {d} does not divide {field.q - 1}")
        return subset_from_codes(field, field.exp[::d])
    if spec.kind == "progression":
        start, step, length = spec.params
        if length < 0:
            raise BadParam(f"progression: negative length {length}")
        if not (0 <= start < field.q) or not (0 <= step < field.q):
            raise BadParam("progression: start and step must be element codes")
        # every nonzero element of (F_q, +) has order p, so past its first p
        # terms a progression repeats itself
        codes = []
        cur = start
        for _ in range(min(length, field.p)):
            codes.append(cur)
            cur = field_add(field, cur, step)
        return subset_from_codes(field, codes)
    raise BadParam(f"unknown set kind {spec.kind!r}")
