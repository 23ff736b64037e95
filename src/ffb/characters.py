"""Multiplicative characters of F_q^* and their sums over subsets.

The character of index j sends g^t to e(2*pi*i * j * t / (q-1)) where g is
the field's generator.  Index 0 is the trivial character.  Every character,
the trivial one included, is 0 at zero (the all-zero convention), in
char_eval and in every table: the zero element contributes nothing to any
character sum.  The tuples with a zero product are counted in closed form
(repfn._product_repfn), which is what makes the counting identities exact.

A table is one real FFT (numpy's rfft) of length M = q-1 of the summed
weights laid out in dlog order, a read-only complex array that holds
j <= M/2 only: the weights are real, so the sum at M - j is exactly the
conjugate of the sum at j.  The tables are floats; the character-route
counters take integers from them only through counters.pair_kernel, which
sums two set tables over every character back into pair counts of at most
min(#X*, #Y*) and checks each entry's rounding residual.
"""

from __future__ import annotations

import cmath

import numpy as np

from .errors import BadExponent
from .field import FieldSpec
from .repfn import FqSubset, RepFn


def _transform(v: np.ndarray) -> np.ndarray:
    """out[j] = sum over t of v[t] * e(2*pi*i*j*t/M) for real v of length M
    and 0 <= j <= M/2: conj(rfft(v)), read-only."""
    out = np.fft.rfft(v).conj()
    out.flags.writeable = False
    return out


def char_eval(field: FieldSpec, j: int, x: int) -> complex:
    """Value of the index-j character at x; 0 at x = 0 for every j."""
    m = field.q - 1
    if not 0 <= j < m:
        raise BadExponent(f"character index {j} outside [0, {m})")
    if x == 0:
        return 0.0 + 0.0j
    t = int(field.dlog[x])
    return cmath.exp(2j * cmath.pi * ((j * t) % m) / m)


def set_char_sums(field: FieldSpec, a: FqSubset) -> np.ndarray:
    """Table of sums of each character over A, zero excluded from the sum."""
    return _transform(a.membership[field.exp].astype(np.float64))


def repfn_char_sums(field: FieldSpec, r: RepFn) -> np.ndarray:
    """Table with entry j = sum over x of r[x] * chi_j(x), zero excluded.

    For the sums of r[x] * chi_j(x - lam), pass r shifted by lam
    (repfn.shift_repfn)."""
    return _transform(r.counts[field.exp].astype(np.float64))
