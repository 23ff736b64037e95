"""Subsets of F_q and exact integer representation functions.

A representation function maps each field element z to the number of ways
z arises from a pair (a, b) under some operation.  All counts here are
exact int64 arrays indexed by element code; character-based evaluations
elsewhere are cross-checks of these, never a replacement.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

import numpy as np

from .errors import BadParam, IntegerOverflow
from .field import FieldSpec, add_codes, neg_codes

INT64_LIMIT = 1 << 63


@dataclass(frozen=True, eq=False)
class FqSubset:
    """Subset of F_q as a boolean membership array indexed by code."""

    membership: np.ndarray
    size: int

    @classmethod
    def from_mask(cls, mask: np.ndarray) -> FqSubset:
        """Freeze a fresh boolean mask (made read-only, not copied) as a subset."""
        mask.flags.writeable = False
        return cls(membership=mask, size=int(mask.sum()))

    def star_size(self) -> int:
        """Cardinality of the subset with the zero element removed."""
        return self.size - bool(self.membership[0])

    def codes(self) -> np.ndarray:
        return np.nonzero(self.membership)[0].astype(np.int64)

    def __contains__(self, code: int) -> bool:
        return bool(self.membership[code])


@dataclass(frozen=True, eq=False)
class RepFn:
    """Exact counts array over F_q, indexed by element code."""

    counts: np.ndarray

    def total(self) -> int:
        return int(self.counts.sum())

    def support(self) -> np.ndarray:
        return np.nonzero(self.counts)[0].astype(np.int64)


def subset_from_codes(field: FieldSpec, codes: Iterable[int]) -> FqSubset:
    mask = np.zeros(field.q, dtype=bool)
    for c in codes:
        c = int(c)
        if c < 0 or c >= field.q:
            raise BadParam(f"element code {c} outside [0, {field.q})")
        mask[c] = True
    return FqSubset.from_mask(mask)


def full_subset(field: FieldSpec) -> FqSubset:
    return FqSubset.from_mask(np.ones(field.q, dtype=bool))


def empty_subset(field: FieldSpec) -> FqSubset:
    return FqSubset.from_mask(np.zeros(field.q, dtype=bool))


def complement_subset(field: FieldSpec, s: FqSubset) -> FqSubset:
    return FqSubset.from_mask(~s.membership)


def negate_subset(field: FieldSpec, s: FqSubset) -> FqSubset:
    mask = np.zeros(field.q, dtype=bool)
    mask[neg_codes(field, s.codes())] = True
    return FqSubset.from_mask(mask)


def _cyclic_convolve(u: np.ndarray, v: np.ndarray, m: int) -> np.ndarray:
    lin = np.convolve(u, v)
    out = lin[:m].copy()
    out[: m - 1] += lin[m:]
    return out


def rep_product(field: FieldSpec, a: FqSubset, b: FqSubset) -> RepFn:
    """counts[z] = #{(x, y) in A x B : x * y = z}.

    The nonzero part is a cyclic convolution of dlog indicator vectors
    over Z_{q-1}; the zero row has the closed form below.
    """
    m = field.q - 1
    u = a.membership[field.exp].astype(np.int64)
    v = b.membership[field.exp].astype(np.int64)
    counts = np.zeros(field.q, dtype=np.int64)
    counts[field.exp] = _cyclic_convolve(u, v, m)
    za, zb = bool(a.membership[0]), bool(b.membership[0])
    counts[0] = za * b.size + zb * a.size - (za and zb)
    counts.flags.writeable = False
    return RepFn(counts=counts)


def rep_sum(field: FieldSpec, a: FqSubset, b: FqSubset) -> RepFn:
    """counts[z] = #{(x, y) in A x B : x + y = z} by direct accumulation."""
    counts = np.zeros(field.q, dtype=np.int64)
    outer, inner = (a, b) if a.size <= b.size else (b, a)
    inner_codes = inner.codes()
    for x in outer.codes():
        # translation by x is injective, so plain fancy-index += is safe
        counts[add_codes(field, int(x), inner_codes)] += 1
    counts.flags.writeable = False
    return RepFn(counts=counts)


def additive_convolve(field: FieldSpec, r1: RepFn, r2: RepFn) -> RepFn:
    """out[z] = sum over x of r1[x] * r2[z - x], subtraction in F_q.

    Exact in int64; raises IntegerOverflow when the total mass product
    (an upper bound for every entry) would not fit.
    """
    mass = r1.total() * r2.total()  # Python ints, no wraparound
    if mass >= INT64_LIMIT:
        raise IntegerOverflow(
            f"convolution mass {mass} exceeds the exact int64 range"
        )
    if field.k == 1:
        out = _cyclic_convolve(r1.counts, r2.counts, field.q)
    else:
        out = np.zeros(field.q, dtype=np.int64)
        all_codes = np.arange(field.q, dtype=np.int64)
        for x in r1.support():
            out[add_codes(field, int(x), all_codes)] += r1.counts[x] * r2.counts
    out.flags.writeable = False
    return RepFn(counts=out)
