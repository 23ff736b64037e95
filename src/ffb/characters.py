"""Multiplicative characters of F_q^* and their sums over subsets.

The character of index j sends g^t to e(2*pi*i * j * t / (q-1)) where g is
the field's generator.  Index 0 is the trivial character.  char_eval keeps
the textbook convention at zero (trivial character gives 1 there, every
other character gives 0); all summation routines in this module use the
stricter all-zero convention instead, where the zero element contributes
nothing to any character sum.  Counting code re-adds zero contributions
combinatorially, which is what makes its identities exact.

A table is one real FFT (numpy's rfft) of length M = q-1 of the summed
weights laid out in dlog order, so it holds j <= M/2 only: the weights are
real, so the sum at M - j is exactly the conjugate of the sum at j.  The
tables are floats; the character-route counters take integers from them
only through counters.pair_kernel, which sums two set tables over every
character back into pair counts of at most min(#X*, #Y*) and checks each
entry's rounding residual.
"""

from __future__ import annotations

import cmath
from dataclasses import dataclass

import numpy as np

from .errors import BadExponent, BadParam
from .field import FieldSpec
from .repfn import FqSubset, RepFn


def _transform(v: np.ndarray) -> np.ndarray:
    """out[j] = sum over t of v[t] * e(2*pi*i*j*t/M) for real v of length M
    and 0 <= j <= M/2: conj(rfft(v))."""
    return np.fft.rfft(v).conj()


@dataclass(frozen=True, eq=False)
class CharSumTable:
    """values[j] = character sum for the character of index j, j <= (q-1)/2."""

    values: np.ndarray


def char_eval(field: FieldSpec, j: int, x: int, zero_convention: str = "paper") -> complex:
    """Value of the index-j character at x.

    zero_convention picks what happens at x = 0: "paper" returns 1 for the
    trivial character and 0 otherwise; "all_zero" returns 0 for every j.
    """
    m = field.q - 1
    if not 0 <= j < m:
        raise BadExponent(f"character index {j} outside [0, {m})")
    if zero_convention not in ("paper", "all_zero"):
        raise BadParam(f"unknown zero_convention {zero_convention!r}")
    if x == 0:
        if j == 0 and zero_convention == "paper":
            return 1.0 + 0.0j
        return 0.0 + 0.0j
    t = int(field.dlog[x])
    return cmath.exp(2j * cmath.pi * ((j * t) % m) / m)


def set_char_sums(field: FieldSpec, a: FqSubset) -> CharSumTable:
    """Table of sums of each character over A, zero excluded from the sum."""
    return CharSumTable(values=_transform(a.membership[field.exp].astype(np.float64)))


def repfn_char_sums(field: FieldSpec, r: RepFn) -> CharSumTable:
    """Table with entry j = sum over x of r[x] * chi_j(x), zero excluded.

    For the sums of r[x] * chi_j(x - lam), pass r shifted by lam
    (repfn.shift_repfn)."""
    return CharSumTable(values=_transform(r.counts[field.exp].astype(np.float64)))
