"""Solution counters for bilinear equations over F_q.

Each counter exists in two independent routes: an exact integer route
built on representation functions, and a character route that recovers
the same integer from character-sum tables.  The two must agree exactly.
main_and_error splits an exact count into the trivial character's main
term and the error term, which the bound checks consume; the character
route returns that split of its own certified integer.

Character identities here use the all-zero convention (no character sees
the zero element), so tuples where a product vanishes are counted
separately by closed-form combinatorics and re-added at the end.

Each identity is written once, on its pieces: representation functions
and character tables, which ffb.instance.Instance builds once per
instance.  The target lam enters a bilinear count in one place, the shift
s[y] = r_AB[y + lam] (repfn.shift_repfn), which both routes take, as
they take -C.  The routes differ only in how the pair count over -C and D
is formed: the exact route convolves the sets (r_{(-C)D}), the character
route sums the tables S_{-C} and S_D over every character (pair_kernel).
Neither depends on lam, and both end in the same exact dot with s.
Instance.bilinear builds r_AB and r_{(-C)D} together, from one packed
transform plan (repfn.rep_products); count_bilinear builds the exact
route's pieces afresh from the sets, one rep_product each.
"""

from __future__ import annotations

import numpy as np

from .characters import CharSumTable
from .errors import BadParam, IntegerOverflow, RoundingDrift
from .field import FieldSpec
from .repfn import (
    INT64_LIMIT,
    FqSubset,
    RepFn,
    additive_convolve,
    entry_bound,
    negate_subset,
    rep_product,
    rep_sum,
    shift_repfn,
)

ROUND_TOL = 1e-6


def count_bilinear(field: FieldSpec, a: FqSubset, b: FqSubset, c: FqSubset,
                   d: FqSubset, lam: int) -> int:
    """#{(a,b,c,d) in A x B x C x D : a*b + c*d = lam}, exact: the pieces of
    Instance.bilinear, built afresh."""
    return additive_count(shift_repfn(field, rep_product(field, a, b), lam),
                          rep_product(field, negate_subset(field, c), d))


def additive_count(r: RepFn, rho: RepFn) -> int:
    """The inner product of two representation functions, exact: the count of
    a + b = c*d from r_{A+B} and r_CD, and of a*b + c*d = lam from r_AB
    shifted by lam and r_{(-C)D} (the pairs with a*b - lam = y number
    r_AB[y + lam], those with (-c)*d = y number r_{(-C)D}[y]).

    Raises IntegerOverflow unless entry_bound(r, rho) < 2^63, so np.dot cannot wrap."""
    return _inner_product(r, rho)


def _inner_product(r: RepFn, rho: RepFn) -> int:
    """The guarded int64 dot of additive_count.  The character route calls
    it directly: the two routes share this dot, not the exact route's count."""
    bound = entry_bound(r, rho)
    if bound >= INT64_LIMIT:
        raise IntegerOverflow(f"inner product bound {bound} exceeds the exact int64 range")
    return int(np.dot(r.counts, rho.counts))


def main_and_error(field: FieldSpec, s: RepFn, c: FqSubset, d: FqSubset,
                   n: int) -> tuple[float, float]:
    """(main, err) of the exact n = sum over y of s[y] * #{(x, z) in C x D : y = x*z}.

    The s[0] * C.zero_product_pairs(D) tuples with x*z = 0 are left out;
    of the rest, main = (sum(s) - s[0]) * #C* * #D* / (q - 1) is the trivial
    character's share and err the nontrivial characters' share.
    """
    s_zero = int(s.counts[0])
    main = (s.total() - s_zero) * c.star_size() * d.star_size() / (field.q - 1)
    return main, (n - s_zero * c.zero_product_pairs(d)) - main


def pair_kernel(field: FieldSpec, s_x: CharSumTable, s_y: CharSumTable) -> RepFn:
    """counts[y] = #{(x, z) in X x Y : x*z = y} for y != 0, and counts[0] = 0,
    from the character tables S_X and S_Y alone: the character route's r*_XY.

    Summing over the characters first, orthogonality gives at y = g^t

        K(t) = (1/(q-1)) * sum_j conj(S_X(j)) * conj(S_Y(j)) * e(2*pi*i*j*t/(q-1))

    one inverse real FFT of the tables' half spectrum, j <= (q-1)/2, which
    is all a table holds: conj(S_X(j)) is rfft of X's weights in dlog
    order.  Each entry is an integer of at most min(#X*, #Y*); the largest
    residual from one must stay below ROUND_TOL or RoundingDrift is raised.
    """
    m = field.q - 1
    k = np.fft.irfft(np.conj(s_x.values * s_y.values), n=m)
    rounded = np.rint(k)
    drift = np.abs(k - rounded)
    t = int(drift.argmax())
    if drift[t] > ROUND_TOL:
        raise RoundingDrift(f"pair kernel entry {k[t]!r} at t = {t} is {drift[t]:.3e} "
                            "from an integer")
    counts = np.zeros(field.q, dtype=np.int64)
    counts[field.exp] = rounded
    counts.flags.writeable = False
    return RepFn(counts=counts)


def _charform(field: FieldSpec, s: RepFn, c: FqSubset, d: FqSubset,
              k_cd: RepFn) -> tuple[int, float, float]:
    """Character route for n = sum over y of s[y] * #{(x, z) in C x D : y = x*z}:
    (n, *main_and_error(field, s, c, d, n)).

    Tuples with x*z = 0 are counted exactly; the rest are the exact dot of
    s with k_cd = pair_kernel(field, S_C, S_D), as in additive_count, and
    k_cd's gate certifies n; main and err come from it.
    """
    n = _inner_product(s, k_cd) + int(s.counts[0]) * c.zero_product_pairs(d)
    return (n, *main_and_error(field, s, c, d, n))


def count_bilinear_charform(field: FieldSpec, s_ab: RepFn, neg_c: FqSubset, d: FqSubset,
                            k_cd: RepFn) -> tuple[int, float, float]:
    """Character-route count of a*b + c*d = lam; returns (n, main, err).

    a*b + c*d = lam is the same event as a*b - lam = (-c)*d, so this is
    the character route on s_ab = r_AB shifted by lam against -C and D:
    k_cd = pair_kernel(field, S_{-C}, S_D).
    """
    return _charform(field, s_ab, neg_c, d, k_cd)


def count_additive_charform(field: FieldSpec, r_sum: RepFn, c: FqSubset, d: FqSubset,
                            k_cd: RepFn) -> tuple[int, float, float]:
    """Character-route count of a + b = c*d; returns (t, main, err).

    The character route on r_{A+B} against C and D:
    k_cd = pair_kernel(field, S_C, S_D).
    """
    return _charform(field, r_sum, c, d, k_cd)


def fold_products(field: FieldSpec, reps: list[RepFn]) -> RepFn:
    """counts[z] = #{((a_i, b_i)) : sum of a_i * b_i = z} from the product
    representation functions r_{A_i B_i}.

    Folds them together with additive convolution, so cost grows linearly
    in the number of pairs.
    """
    if not reps:
        raise BadParam("at least one (A, B) pair is required")
    acc = reps[0]
    for r in reps[1:]:
        acc = additive_convolve(field, acc, r)
    return acc


def exceptional_set(field: FieldSpec, f: FqSubset, r_gh: RepFn) -> FqSubset:
    """All lam in F_q with no solution of f + g*h = lam, as a subset, from F
    and r_GH = rep_product(field, g, h).

    lam is attainable exactly when it lies in F + G*H, so the set is where
    the additive convolution of F with the product set G*H (the support of
    r_GH) vanishes."""
    gh = FqSubset.from_mask(r_gh.counts > 0)
    return FqSubset.from_mask(rep_sum(field, f, gh).counts == 0)


def verify_sarkozy_identity(field: FieldSpec, f: FqSubset, e: FqSubset, r_gh: RepFn) -> bool:
    """Check that the no-solution set e = exceptional_set(field, f, r_gh) is
    invisible to the additive counter.

    For e with f + g*h = e unsolvable, the equation (-e) + f = (-g)*h has
    no solutions either, since it rearranges to f + g*h = e.  Negating the
    first product-set argument alongside the exceptional set is what makes
    the rearrangement an identity; without it the count can be positive
    for asymmetric product sets.  That count is taken on its negated form
    e + (-f) = g*h, whose tuples are the same: additive_count of r_{E+(-F)}
    against the r_GH that exceptional_set used.  Returns True when the count
    is zero.
    """
    return additive_count(rep_sum(field, e, negate_subset(field, f)), r_gh) == 0
