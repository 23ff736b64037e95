"""Subsets of F_q and exact integer representation functions.

A representation function maps each field element z to the number of ways
z arises from a pair (a, b) under some operation.  All counts here are
exact int64 arrays indexed by element code; character-based evaluations
elsewhere are cross-checks of these, never a replacement.

Every cyclic convolution over Z_m (rep_product over Z_{q-1}; rep_sum and
additive_convolve over a prime field) is computed by float64 rfft/irfft of
a power-of-two size N = 2^n >= 2m - 1, certified before any transform by
Percival's bound (Math. Comp. 72 (2003), Thm 5.1; see Higham, Accuracy and
Stability of Numerical Algorithms, ch. 24): every entry is off by less than
||x|| ||y|| ((1+e)^3n (1+e sqrt5)^(3n+1) (1+b)^3n - 1), with unit roundoff
e = 2^-53 and twiddle error b.  For numpy's pocketfft the bound is taken
with n radix-2 levels, which its radix-4 passes do not exceed in roundings
per element, and b = 2^-50, since its twiddles come from accurately reduced
sin/cos tables.  Two plans are certified this way:

- packed: one product or two from one irfft (proof in _packed_convolve).
  One pair rides in w = u + 2^s v and u*v is read from the middle digit
  of w*w: one rfft, one pointwise square.  Two pairs ride in
  w1 = u1 + 2^s u2 and w2 = v1 + 2^s v2, and u1*v1 and u2*v2 are read
  from the low and high digits of w1*w2: two rfft, three transforms for
  two products.  s is chosen from exact entry bounds so that the digits
  do not overlap, and the plan applies when the product of the exact
  bounds on ||w1||^2 and ||w2||^2 is below 2^104 and Percival's bound on
  their square roots is below ROUND_BUDGET = 0.25.  For indicator vectors
  this holds up to about q = 2^15 with sets of a few thousand elements
  (the bound is 9.0e-4 at q = 8191 with 1024-element sets, 1.10 at
  q = 65521 with 16000-element sets).  rep_products takes it for two
  products at a time, and two it does not certify together fall back to
  rep_product one by one.
- limbs: otherwise (_cyclic_convolve), when the bound on ||u|| ||v|| is
  below ROUND_BUDGET, one rfft of each input; if not, both inputs are
  split into base-2^s limbs with the widest s for which every output
  weight passes, and the rounded weights are recombined in int64.

additive_convolve refuses inputs whose result it cannot prove below 2^63
entrywise; its docstring has the proof.

Over F_{2^k} the additive convolution is a Walsh-Hadamard transform applied
as float64 products of Hadamard matrices of at most 64 rows, on base-2^s
limbs with s = 53 - k.  No rounding occurs and no bound is needed: every
value and partial sum is an integer of modulus at most 2^53, which float64
holds exactly in any summation order.  Dividing the inverse by q inside the
limb recombination is exact while s >= k, so q <= 2^26; larger q is refused.
When sum(u) sum(v) reaches 2^63 the pointwise products could wrap, so one
input is split into limbs whose products fit (_xor_convolve).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import BadParam, IntegerOverflow
from .field import FieldSpec, add_codes, neg_codes

INT64_LIMIT = 1 << 63
# Largest certified rounding error of a float convolution; rint is exact
# below 0.5, and the factor of two absorbs the bound's own float rounding.
ROUND_BUDGET = 0.25
_UNIT_ROUNDOFF = 2.0 ** -53
# Assumed absolute error of each pocketfft twiddle factor: they are built
# from accurately reduced sin/cos tables, a few ulps at most.
_TWIDDLE_ERROR = 2.0 ** -50
# Every integer of modulus at most 2^53 is a float64.
_FLOAT_EXACT_BITS = 53
# Largest Hadamard factor of the Walsh-Hadamard transform: 2^6 x 2^6.
_HADAMARD_BITS = 6


def exact_sum(x: np.ndarray) -> int:
    """Sum of a nonnegative integer or bool array as a Python int.  A bool
    array is counted; int64 entries whose length times maximum reaches 2^63
    are summed as 32-bit halves, since their int64 sum could wrap."""
    if x.dtype == np.bool_:
        return int(np.count_nonzero(x))
    if x.dtype.itemsize < 8 or x.size * int(x.max(initial=0)) < INT64_LIMIT:
        return int(x.sum(dtype=np.int64))
    return (int((x >> 32).sum()) << 32) + int((x & 0xFFFFFFFF).sum())


@dataclass(frozen=True, eq=False)
class FqSubset:
    """Subset of F_q as a boolean membership array indexed by code."""

    membership: np.ndarray
    size: int

    @classmethod
    def from_mask(cls, mask: np.ndarray) -> FqSubset:
        """Freeze a fresh boolean mask (made read-only, not copied) as a subset."""
        mask.flags.writeable = False
        return cls(membership=mask, size=int(np.count_nonzero(mask)))

    def star_size(self) -> int:
        """Cardinality of the subset with the zero element removed."""
        return self.size - bool(self.membership[0])

    def zero_product_pairs(self, other: FqSubset) -> int:
        """#{(x, y) in self x other : x*y = 0}, in closed form."""
        zs, zo = bool(self.membership[0]), bool(other.membership[0])
        return zs * other.size + zo * self.size - (zs and zo)

    def codes(self) -> np.ndarray:
        return np.nonzero(self.membership)[0].astype(np.int64)

    def __contains__(self, code: int) -> bool:
        return bool(self.membership[code])


@dataclass(frozen=True, eq=False)
class RepFn:
    """Exact counts array over F_q, indexed by element code."""

    counts: np.ndarray

    def total(self) -> int:
        return exact_sum(self.counts)


def entry_bound(r1: RepFn, r2: RepFn) -> int:
    """min(sum(r1) max(r2), sum(r2) max(r1)), exact: for nonnegative counts, a
    bound on their inner product and on every entry of their convolutions.
    Raises BadParam for a negative count, where it bounds neither."""
    if min(r1.counts.min(), r2.counts.min()) < 0:
        raise BadParam("counts must be nonnegative")
    return min(r1.total() * int(r2.counts.max()), r2.total() * int(r1.counts.max()))


def subset_from_codes(field: FieldSpec, codes: Sequence[int] | np.ndarray) -> FqSubset:
    """The subset of the listed codes; raises BadParam naming the first one,
    in input order, outside [0, q)."""
    arr = np.asarray(codes)
    outside = (arr < 0) | (arr >= field.q)
    if outside.any():
        raise BadParam(f"element code {int(arr[outside.argmax()])} outside [0, {field.q})")
    mask = np.zeros(field.q, dtype=bool)
    mask[arr.astype(np.int64)] = True
    return FqSubset.from_mask(mask)


def full_subset(field: FieldSpec) -> FqSubset:
    return FqSubset.from_mask(np.ones(field.q, dtype=bool))


def empty_subset(field: FieldSpec) -> FqSubset:
    return FqSubset.from_mask(np.zeros(field.q, dtype=bool))


def complement_subset(field: FieldSpec, s: FqSubset) -> FqSubset:
    return FqSubset.from_mask(~s.membership)


def negate_subset(field: FieldSpec, s: FqSubset) -> FqSubset:
    """-S; S itself in characteristic 2, where -x = x.  Over Z_p, -x = p - x
    for x != 0, so -S's mask is S's with entries 1 .. p - 1 reversed."""
    if field.p == 2:
        return s
    if field.k == 1:
        mask = np.empty(field.q, dtype=bool)
        mask[0] = s.membership[0]
        mask[1:] = s.membership[:0:-1]
    else:
        mask = np.zeros(field.q, dtype=bool)
        mask[neg_codes(field, s.codes())] = True
    return FqSubset.from_mask(mask)


def shift_repfn(field: FieldSpec, r: RepFn, lam: int) -> RepFn:
    """s[y] = r[y + lam]: r translated so that lam sits at zero; over Z_p a
    rotation of r by lam."""
    if not lam:
        return r
    if field.k == 1:
        counts = np.roll(r.counts, -lam)
    else:
        counts = r.counts[add_codes(field, lam, np.arange(field.q))]
    counts.flags.writeable = False
    return RepFn(counts=counts)


def inverse_subset(field: FieldSpec, s: FqSubset) -> FqSubset:
    """{x^(-1) : x in S, x != 0}; zero has no inverse and is dropped.

    In dlog order x = exp[t] has inverse exp[-t mod (q - 1)], so S's
    weights along exp, reflected and rotated by one, are the inverses'.
    """
    mask = np.zeros(field.q, dtype=bool)
    mask[field.exp] = np.roll(s.membership[field.exp][::-1], 1)
    return FqSubset.from_mask(mask)


def _rfft_error_bound(norm_products: float, size: int, terms: int = 1) -> float:
    """Bound on max |computed - exact| of irfft(sum of `terms` products
    rfft(x_i) * rfft(y_i)) at a power-of-two `size`, given the sum of the
    Euclidean norm products ||x_i|| * ||y_i||.

    Percival's Theorem 5.1 for a radix-2 FFT convolution of length 2^n,
    ||z' - z|| < ||x|| ||y|| ((1+e)^3n (1+e sqrt5)^(3n+1) (1+b)^3n - 1),
    with e the unit roundoff and b the twiddle error, bounds the max norm
    too.  Summing the products in the frequency domain adds a factor
    (1+e)^(terms-1).  numpy's pocketfft transforms a power of two in
    radix-4 passes and at most one radix-2 pass; a radix-4 butterfly does
    the two additions of two radix-2 levels with one twiddle product
    instead of two, so n radix-2 levels are taken as the error model.
    """
    n = size.bit_length() - 1
    log_growth = ((3 * n + terms - 1) * math.log1p(_UNIT_ROUNDOFF)
                  + (3 * n + 1) * math.log1p(_UNIT_ROUNDOFF * math.sqrt(5))
                  + 3 * n * math.log1p(_TWIDDLE_ERROR))
    return norm_products * math.expm1(log_growth)


def _weight_terms(w: int, limbs: int) -> range:
    """Limb indices i with i + j = w for limbs i, j < limbs."""
    return range(max(0, w - limbs + 1), min(w, limbs - 1) + 1)


def _limb_split(u: np.ndarray, v: np.ndarray, size: int) -> tuple[int, int]:
    """(width, limbs): the widest base-2^width split of both inputs for which
    every output weight certifies under ROUND_BUDGET, evaluated before any
    transform.

    One limb (width 63 keeps every nonnegative int64 whole) is certified by
    the input norms alone.  Otherwise a limb i of u has norm at most
    min((2^width - 1) sqrt(nnz u), ||u|| / 2^(width i)), and weight w sums
    the products of limbs i + j = w.
    """
    norm_u, norm_v = (math.sqrt(float(np.square(x, dtype=np.float64).sum())) for x in (u, v))
    if _rfft_error_bound(norm_u * norm_v, size) < ROUND_BUDGET:
        return 63, 1
    stats = (norm_u, math.sqrt(np.count_nonzero(u))), (norm_v, math.sqrt(np.count_nonzero(v)))
    bits = max(int(u.max()).bit_length(), int(v.max()).bit_length())
    for width in range(bits - 1, 0, -1):
        limbs = -(-bits // width)
        bu, bv = ([min(((1 << width) - 1) * root_nnz, norm / 2.0 ** (width * i))
                   for i in range(limbs)] for norm, root_nnz in stats)
        if all(_rfft_error_bound(sum(bu[i] * bv[w - i] for i in _weight_terms(w, limbs)),
                                 size, len(_weight_terms(w, limbs))) < ROUND_BUDGET
               for w in range(2 * limbs - 1)):
            return width, limbs
    raise IntegerOverflow(f"no limb width certifies a convolution of {bits}-bit entries")


def _packed_convolve(pairs: Sequence[tuple[np.ndarray, np.ndarray]], m: int,
                     size: int) -> list[np.ndarray] | None:
    """The packed plan: [u * v for u, v in pairs] over Z_m for one pair or
    two, from one transform per packed vector and one irfft, or None when
    the a-priori bound does not certify it.

    Two pairs (u1, v1), (u2, v2) pack a = (u1, u2) and b = (v1, v2); one
    pair (u, v) packs a = b = (u, v).  The packed vectors are
    wa = a0 + 2^s a1 and wb = b0 + 2^s b1, and their product is
    X = a0*b0 + 2^s (a0*b1 + a1*b0) + 2^(2s) a1*b1.  With c(x, y) =
    min(sx my, sy mx) (s a sum, m a maximum), which bounds every entry of
    x*y, cyclically folded or not, and <x, y>, and c(x, x) = sx mx >=
    ||x||^2, let s = bit_length(max(c(a0, b0), c(a0, b1) + c(a1, b0))) >= 1:
    digits 0 and 1 of X in base 2^s are below 2^s entrywise.  So two pairs
    read u1*v1 = X & (2^s - 1) and u2*v2 = X >> 2s from two rfft and one
    irfft, and one pair squares one rfft, w = u + 2^s v, and reads
    u*v = (X >> (s+1)) & (2^(s-1) - 1) from digit 1 = 2 u*v.

    na = c(a0, a0) + 2^(s+1) c(a0, a1) + 2^(2s) c(a1, a1) bounds
    ||wa||^2 = ||a0||^2 + 2^(s+1) <a0, a1> + 2^(2s) ||a1||^2 term by term,
    and nb likewise ||wb||^2; every sum is exact (exact_sum) and na, nb are
    Python integers, since a sum that wrapped would shrink s and certify
    digits that overlap.  The plan needs na nb < 2^104, so every entry of
    X, and of its fold mod m, is at most ||wa|| ||wb|| < 2^52, and
    Percival's bound on sqrt(na) sqrt(nb) below ROUND_BUDGET, so every
    computed entry is within 0.25 of X and rounding gives X exactly.  The
    packed vectors are exact in float64: nb = 0 makes wb = 0 and every
    product zero, and otherwise na <= na nb < 2^104 keeps every entry of
    wa below 2^52; likewise for wb.  Both live in one zero-padded buffer,
    wb written over wa after its transform.
    """
    lone = len(pairs) == 1
    a, b = (pairs[0], pairs[0]) if lone else tuple(zip(*pairs))
    (a0, a1), (b0, b1) = ([(exact_sum(x), int(x.max())) for x in xs] for xs in (a, b))

    def c(x: tuple[int, int], y: tuple[int, int]) -> int:
        return min(x[0] * y[1], y[0] * x[1])

    s = max(1, max(c(a0, b0), c(a0, b1) + c(a1, b0)).bit_length())
    na, nb = (c(x0, x0) + (c(x0, x1) << (s + 1)) + (c(x1, x1) << (2 * s))
              for x0, x1 in ((a0, a1), (b0, b1)))
    if ((na * nb).bit_length() > 2 * (_FLOAT_EXACT_BITS - 1)
            or _rfft_error_bound(math.sqrt(na) * math.sqrt(nb), size) >= ROUND_BUDGET):
        return None
    buf = np.zeros(size)
    w = buf[:m]
    spectra = []
    for x0, x1 in (a,) if lone else (a, b):
        np.multiply(x1, 2.0 ** s, out=w)
        w += x0
        spectra.append(np.fft.rfft(buf))
    h = spectra[0]
    h *= spectra[-1]
    lin = np.fft.irfft(h, size, out=buf)[: 2 * m - 1]
    np.rint(lin, out=lin)
    lin[: m - 1] += lin[m:]
    x = lin[:m].astype(np.int64)
    if lone:
        return [(x >> (s + 1)) & ((1 << (s - 1)) - 1)]
    return [x & ((1 << s) - 1), x >> (2 * s)]


def _limb_convolve(u: np.ndarray, v: np.ndarray, m: int, size: int) -> np.ndarray:
    """The limb plan of _cyclic_convolve, for inputs the packed plan does
    not certify.

    Before any transform, _limb_split evaluates Percival's bound
    (_rfft_error_bound) on the input norms and picks the widest limb width
    that keeps every output weight under ROUND_BUDGET: weight w is irfft of
    the sum of the limb spectrum products with i + j = w, and
    out += rint(that) << (width * w).  Indicator vectors take one limb at
    every q up to 2^20; products of representation functions take a few.
    A limb spectrum is dropped after the last weight that uses it.
    """
    width, limbs = _limb_split(u, v, size)
    mask = (1 << width) - 1
    spectra: tuple[dict, dict] = ({}, {})
    out = np.zeros(m, dtype=np.int64)
    for w in range(2 * limbs - 1):
        if w < limbs:
            for x, spec in zip((u, v), spectra):
                spec[w] = np.fft.rfft(x if limbs == 1 else (x >> (width * w)) & mask, size)
        terms = _weight_terms(w, limbs)
        product = spectra[0][terms[0]] * spectra[1][w - terms[0]]
        for i in terms[1:]:
            product += spectra[0][i] * spectra[1][w - i]
        if w >= limbs - 1:
            del spectra[0][terms[0]], spectra[1][terms[0]]
        lin = np.fft.irfft(product, size)[: 2 * m - 1]
        del product
        lin = np.rint(lin, out=lin).astype(np.int64)
        lin[: m - 1] += lin[m:]
        out += lin[:m] << (width * w)
    return out


def _padded_size(m: int) -> int:
    """The power of two >= 2m - 1 every plan over Z_m transforms at."""
    return 1 << (2 * m - 2).bit_length()


def _cyclic_convolve(u: np.ndarray, v: np.ndarray, m: int) -> np.ndarray:
    """out[z] = sum over x of u[x] * v[(z - x) mod m], as a new int64 array.

    Exact for nonnegative integer or bool inputs of length m whose output
    entries are all below 2^63 (callers guard it; see additive_convolve).
    Both inputs are zero-padded to the power of two
    size >= 2m - 1, so the linear convolution does not wrap; it is rounded
    entrywise and folded mod m.  The packed plan (one rfft, one irfft) is
    taken whenever its a-priori bound certifies it; otherwise the limb plan
    (one rfft per limb of each input, one irfft per output weight).
    """
    size = _padded_size(m)
    out = _packed_convolve([(u, v)], m, size)
    return out[0] if out is not None else _limb_convolve(u, v, m, size)


def _sylvester_hadamard(n: int) -> np.ndarray:
    """The read-only n x n Sylvester Hadamard matrix, n a power of two, in float64.

    Entry (i, j) is (-1)^popcount(i & j), so its leading r x r block is the
    order-r one for every power of two r <= n.
    """
    h = np.ones((1, 1))
    while h.shape[0] < n:
        h = np.block([[h, h], [h, -h]])
    h.flags.writeable = False
    return h


_HADAMARD = _sylvester_hadamard(1 << _HADAMARD_BITS)


def _hadamard_float(x: np.ndarray) -> np.ndarray:
    """Unnormalised Walsh-Hadamard transform of a float64 array of length 2^k.

    H_{2^k} is the Kronecker product of Sylvester factors of at most 2^6
    rows, one per group of index bits (Fino and Algazi, IEEE Trans.
    Computers C-25, 1976).  Each factor is one matrix product along its
    group's axis of x viewed as (leading, group, trailing), and H is
    symmetric, so the last group is a product on the right.  For integer
    input of l1 norm at most 2^53 the result is exact: every entry and
    every partial sum of every product is a signed sum of distinct input
    entries, an integer of modulus at most 2^53, so each float64 operation
    is exact in any order, blocking or FMA.
    """
    k = x.size.bit_length() - 1
    factors = -(-k // _HADAMARD_BITS)
    done = 0
    for i in range(factors):
        bits = k // factors + (i < k % factors)
        h = _HADAMARD[: 1 << bits, : 1 << bits]
        if done + bits < k:
            x = np.matmul(h, x.reshape(1 << done, 1 << bits, -1))
        else:
            x = x.reshape(-1, 1 << bits) @ h
        done += bits
    return x.ravel()


def _walsh_hadamard(x: np.ndarray, shift: int = 0) -> np.ndarray:
    """Unnormalised Walsh-Hadamard transform of an int64 array of length 2^k,
    divided by 2^shift <= 2^(53 - k), as a new int64 array.

    Entry j is the sum of x[i] * (-1)^popcount(i & j), exact whenever the
    quotient fits int64 and the division leaves no remainder.  x is split
    into base-2^s limbs with s = 53 - k, the low ones unsigned and the top
    one signed, so every limb has l1 norm at most 2^k * 2^s = 2^53 and
    _hadamard_float transforms it exactly.  The limb transforms w_i
    recombine in wrapping int64 as (w_0 >> shift) + sum of
    w_i << (s i - shift): every term after the first is a multiple of 2^s,
    so when the whole is a multiple of 2^shift, w_0 is one too.
    """
    k = x.size.bit_length() - 1
    width = _FLOAT_EXACT_BITS - k
    bits = max(int(x.max()), ~int(x.min())).bit_length()
    limbs = max(1, -(-bits // width))
    for i in range(limbs):
        limb = x >> (width * i)
        if i < limbs - 1:
            limb &= (1 << width) - 1
        w = _hadamard_float(limb.astype(np.float64)).astype(np.int64)
        if i == 0:
            out = w >> shift
        else:
            out += w << (width * i - shift)
    return out


def _xor_limb_width(x: np.ndarray, y_total: int) -> int:
    """Widest s with (2^s - 1) nnz(x) y_total < 2^63: every base-2^s limb of x
    then has sum(limb) y_total < 2^63 (0 when even s = 1 fails)."""
    room = (INT64_LIMIT - 1) // (int(np.count_nonzero(x)) * y_total)
    return (room + 1).bit_length() - 1


def _xor_convolve(u: np.ndarray, v: np.ndarray) -> np.ndarray:
    """out[z] = sum over x of u[x] * v[x ^ z], exact for nonnegative int64 input
    of length q = 2^k <= 2^26 whose output entries are all below 2^63
    (callers guard it; see additive_convolve).

    |WHT(x)| <= sum(x) entrywise, so while the mass sum(u) sum(v) is below
    2^63 the pointwise product fits in int64, and out = WHT(WHT(u) *
    WHT(v)) / q.  The division is exact in _walsh_hadamard when its limb
    width 53 - k is at least k, which sets the limit on q; larger q is
    refused before any allocation.  A larger mass splits one operand x into
    base-2^s limbs and keeps the other, y, whole, with s from
    _xor_limb_width so that each WHT(limb) * WHT(y) fits; the operand whose
    split allows the wider s is split, the smaller total on a tie.  Each
    limb's convolution with y is exact and nonnegative, and the limbs
    recombine as out += that << (s i) in wrapping int64, which is exact
    once every entry is below 2^63.  For q <= 2^21 one of the two splits
    has s >= 1 whenever the entries are below 2^63; otherwise the
    convolution is refused with IntegerOverflow.
    """
    k = u.size.bit_length() - 1
    if 2 * k > _FLOAT_EXACT_BITS:
        raise IntegerOverflow(
            f"q = 2^{k}: the exact Walsh-Hadamard convolution needs q <= 2^26")
    su, sv = exact_sum(u), exact_sum(v)
    if su * sv < INT64_LIMIT:
        return _walsh_hadamard(_walsh_hadamard(u) * _walsh_hadamard(v), shift=k)
    splits = [(_xor_limb_width(u, sv), u, v), (_xor_limb_width(v, su), v, u)]
    width, x, y = max(splits if su <= sv else splits[::-1], key=lambda split: split[0])
    if width < 1:
        raise IntegerOverflow(f"no limb width keeps the Walsh-Hadamard products "
                              f"of masses {su} and {sv} below 2^63")
    hy = _walsh_hadamard(y)
    out = np.zeros(u.size, dtype=np.int64)
    for i in range(-(-int(x.max()).bit_length() // width)):
        limb = (x >> (width * i)) & ((1 << width) - 1)
        out += _walsh_hadamard(_walsh_hadamard(limb) * hy, shift=k) << (width * i)
    return out


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


def _product_repfn(field: FieldSpec, a: FqSubset, b: FqSubset, nonzero: np.ndarray) -> RepFn:
    """r_AB from its nonzero part in dlog order and the zero row's closed form."""
    counts = np.zeros(field.q, dtype=np.int64)
    counts[field.exp] = nonzero
    counts[0] = a.zero_product_pairs(b)
    counts.flags.writeable = False
    return RepFn(counts=counts)


def rep_product(field: FieldSpec, a: FqSubset, b: FqSubset) -> RepFn:
    """counts[z] = #{(x, y) in A x B : x * y = z}.

    The nonzero part is a cyclic convolution of dlog indicator vectors
    over Z_{q-1}; the zero row has a closed form.
    """
    return _product_repfn(field, a, b, _cyclic_convolve(
        a.membership[field.exp], b.membership[field.exp], field.q - 1))


def rep_products(field: FieldSpec, pairs: Sequence[tuple[FqSubset, FqSubset]]) -> list[RepFn]:
    """[rep_product(field, a, b) for a, b in pairs], two pairs at a time from
    one packed plan (_packed_convolve).  A lone last pair, or two the plan
    does not certify together, go to rep_product one by one.
    """
    m = field.q - 1
    out: list[RepFn] = []
    for i in range(0, len(pairs), 2):
        two = pairs[i:i + 2]
        nonzero = None if len(two) < 2 else _packed_convolve(
            [tuple(x.membership[field.exp] for x in pair) for pair in two], m, _padded_size(m))
        if nonzero is None:
            out += [rep_product(field, a, b) for a, b in two]
        else:
            out += [_product_repfn(field, a, b, r) for (a, b), r in zip(two, nonzero)]
    return out


def rep_sum(field: FieldSpec, a: FqSubset, b: FqSubset) -> RepFn:
    """counts[z] = #{(x, y) in A x B : x + y = z}.

    The additive convolution of the two indicator vectors over (F_q, +).
    """
    counts = _add_convolve(field, a.membership.astype(np.int64),
                           b.membership.astype(np.int64))
    counts.flags.writeable = False
    return RepFn(counts=counts)


def additive_convolve(field: FieldSpec, r1: RepFn, r2: RepFn) -> RepFn:
    """out[z] = sum over x of r1[x] * r2[z - x], subtraction in F_q, exact in int64.

    Raises BadParam for a negative count, and IntegerOverflow, before any
    transform, unless every entry is proven below 2^63.  Every entry is at
    most B = entry_bound(r1, r2), and the guard is B < 2^63: the translate
    loop adds nonnegative terms, so no partial sum passes its entry; the
    cyclic convolution recombines exact limb weights, and the
    Walsh-Hadamard one exact limb convolutions, as out += limb << shift in
    wrapping int64, ring arithmetic mod 2^64 that yields the true entry once
    it is below 2^63.
    """
    bound = entry_bound(r1, r2)
    if bound >= INT64_LIMIT:
        raise IntegerOverflow(f"convolution entry bound {bound} exceeds the exact int64 range")
    out = _add_convolve(field, r1.counts, r2.counts)
    out.flags.writeable = False
    return RepFn(counts=out)
