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


def inverse_subset(field: FieldSpec, s: FqSubset) -> FqSubset:
    """{x^(-1) : x in S, x != 0}; zero has no inverse and is dropped."""
    t = field.dlog[s.codes()]
    mask = np.zeros(field.q, dtype=bool)
    mask[field.exp[-t[t >= 0] % (field.q - 1)]] = True
    return FqSubset.from_mask(mask)


def _cyclic_convolve(u: np.ndarray, v: np.ndarray, m: int) -> np.ndarray:
    lin = np.convolve(u, v)
    out = lin[:m].copy()
    out[: m - 1] += lin[m:]
    return out


def _walsh_hadamard(a: np.ndarray) -> np.ndarray:
    """Unnormalised Walsh-Hadamard transform of a length-2^k array, as a new array.

    Entry j is the sum of a[x] * (-1)^popcount(x & j); applying it twice
    multiplies by 2^k.
    """
    h = 1
    while h < a.size:
        pairs = a.reshape(-1, 2, h)
        lo, hi = pairs[:, 0], pairs[:, 1]
        a = np.stack((lo + hi, lo - hi), axis=1).reshape(-1)
        h *= 2
    return a


def _xor_convolve(u: np.ndarray, v: np.ndarray) -> np.ndarray:
    """out[z] = sum over x of u[x] * v[x ^ z], exact for nonnegative int64 input
    whose mass product sum(u) * sum(v) is below 2^63.

    Every transformed entry is at most that mass, so the pointwise product
    fits in int64.  The inverse transform of the product would not, so it
    runs on two 32-bit limbs, each far inside int64 for q <= 2^31:
    q * out = 2^32 * H + L with H, L the transforms of the limbs.  L is a
    multiple of q because 2^32 * H is, which gives out without overflow.
    """
    prod = _walsh_hadamard(u) * _walsh_hadamard(v)
    high = _walsh_hadamard(prod >> 32)
    low = _walsh_hadamard(prod & 0xFFFFFFFF)
    k = u.size.bit_length() - 1
    return (high << (32 - k)) + (low >> k)


def _add_convolve(field: FieldSpec, u: np.ndarray, v: np.ndarray) -> np.ndarray:
    """out[z] = sum over x of u[x] * v[z - x] over (F_q, +) = Z_p^k, as a new array.

    Z_q for k = 1 by cyclic convolution, Z_2^k by the Walsh-Hadamard
    transform, and otherwise one translate-and-accumulate of the support
    of one input per support point of the sparser one.
    """
    if field.k == 1:
        return _cyclic_convolve(u, v, field.q)
    if field.p == 2:
        return _xor_convolve(u, v)
    if np.count_nonzero(u) > np.count_nonzero(v):
        u, v = v, u
    out = np.zeros(field.q, dtype=np.int64)
    supp = np.nonzero(v)[0]
    for x in np.nonzero(u)[0]:
        # translation by x is injective, so plain fancy-index += is safe
        out[add_codes(field, int(x), supp)] += u[x] * v[supp]
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
    """counts[z] = #{(x, y) in A x B : x + y = z}.

    The additive convolution of the two indicator vectors over (F_q, +).
    """
    counts = _add_convolve(field, a.membership.astype(np.int64),
                           b.membership.astype(np.int64))
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
    out = _add_convolve(field, r1.counts, r2.counts)
    out.flags.writeable = False
    return RepFn(counts=out)
