"""Solution counters for bilinear equations over F_q.

Each counter exists in two independent routes: an exact integer route
built on representation functions, and a character route that recovers
the same integer from character-sum tables.  The two must agree exactly.
main_and_error splits a count into the trivial character's main term and
the error term, which the bound checks consume; the character route
returns that split of its own certified integer.

Each identity is written once, on its pieces: representation functions
and pair kernels, which ffb.instance.Instance builds once per instance.
The target lam enters a bilinear count in one place, the shift
s[y] = r_AB[y + lam] (repfn.shift_repfn), which both routes take.  The
routes differ only in how the pair function r_{(-C)D}[y] =
#{(x, z) in (-C) x D : x*z = y} is formed: the exact route convolves the
sets (rep_product), the character route sums the tables S_{-C} and S_D
over every character (pair_kernel); both take its zero row from one
closed form (repfn._product_repfn).  Neither depends on lam, both end in
the same exact dot with s, and main_and_error reads only s and the pair
function.  Instance.bilinear builds r_AB and r_{(-C)D} together, from one
packed transform plan (repfn.rep_products); count_bilinear builds the
exact route's pieces afresh from the sets, one rep_product each.
"""

from __future__ import annotations

import numpy as np

from . import characters
from .errors import BadParam, IntegerOverflow, RoundingDrift
from .field import FieldSpec
from .repfn import (
    INT64_LIMIT,
    FqSubset,
    RepFn,
    _product_repfn,
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

    Raises BadParam for a negative count, and IntegerOverflow unless
    entry_bound(r, rho) < 2^63, so np.dot cannot wrap."""
    return _inner_product(r, rho)


def _inner_product(r: RepFn, rho: RepFn) -> int:
    """The guarded int64 dot of additive_count.  The character route calls
    it directly: the two routes share this dot, not the exact route's count."""
    bound = entry_bound(r, rho)
    if bound >= INT64_LIMIT:
        raise IntegerOverflow(f"inner product bound {bound} exceeds the exact int64 range")
    return int(np.dot(r.counts, rho.counts))


def main_and_error(field: FieldSpec, s: RepFn, pair: RepFn, n: int) -> tuple[float, float]:
    """(main, err) of n = sum over y of s[y] * pair[y], where pair is r_XY:
    pair[y] = #{(x, z) in X x Y : x*z = y}.

    The s[0] * pair[0] tuples with x*z = 0 are left out.  Of the rest,
    main = (sum(s) - s[0]) * (sum(pair) - pair[0]) / (q - 1) is the trivial
    character's share and err the nontrivial characters' share;
    sum(pair) - pair[0] is #X* * #Y*, since x*z != 0 exactly when x != 0
    and z != 0.
    """
    s_zero, pair_zero = int(s.counts[0]), int(pair.counts[0])
    main = (s.total() - s_zero) * (pair.total() - pair_zero) / (field.q - 1)
    return main, (n - s_zero * pair_zero) - main


def pair_kernel(field: FieldSpec, x: FqSubset, y: FqSubset) -> RepFn:
    """counts[z] = #{(u, v) in X x Y : u*v = z} from the character tables S_X
    and S_Y (characters.set_char_sums): the character route's r_XY.

    Summing over the characters first, orthogonality gives at z = g^t != 0

        K(t) = (1/(q-1)) * sum_j conj(S_X(j)) * conj(S_Y(j)) * e(2*pi*i*j*t/(q-1))

    one inverse real FFT of the tables' half spectrum, j <= (q-1)/2, which
    is all a table holds: conj(S_X(j)) is rfft of X's weights in dlog
    order.  Each entry is an integer of at most min(#X*, #Y*); the largest
    residual from one must stay below ROUND_TOL or RoundingDrift is raised.
    The zero row is rep_product's closed form, X.zero_product_pairs(Y).
    """
    k = np.fft.irfft(np.conj(characters.set_char_sums(field, x)
                            * characters.set_char_sums(field, y)), n=field.q - 1)
    rounded = np.rint(k)
    drift = np.abs(k - rounded)
    t = int(drift.argmax())
    if drift[t] > ROUND_TOL:
        raise RoundingDrift(f"pair kernel entry {k[t]!r} at t = {t} is {drift[t]:.3e} "
                            "from an integer")
    return _product_repfn(field, x, y, rounded)


def _charform(field: FieldSpec, s: RepFn, k: RepFn) -> tuple[int, float, float]:
    """Character route for n = sum over y of s[y] * k[y], k = pair_kernel(field,
    X, Y): (n, *main_and_error(field, s, k, n)).

    n is the exact dot of s with k, as in additive_count, and k's gate
    certifies it; main and err come from it.
    """
    n = _inner_product(s, k)
    return (n, *main_and_error(field, s, k, n))


def count_bilinear_charform(field: FieldSpec, s_ab: RepFn,
                            k_cd: RepFn) -> tuple[int, float, float]:
    """Character-route count of a*b + c*d = lam; returns (n, main, err).

    a*b + c*d = lam is the same event as a*b - lam = (-c)*d, so this is
    the character route on s_ab = r_AB shifted by lam against
    k_cd = pair_kernel(field, -C, D).
    """
    return _charform(field, s_ab, k_cd)


def count_additive_charform(field: FieldSpec, r_sum: RepFn,
                            k_cd: RepFn) -> tuple[int, float, float]:
    """Character-route count of a + b = c*d; returns (t, main, err).

    The character route on r_{A+B} against k_cd = pair_kernel(field, C, D).
    """
    return _charform(field, r_sum, k_cd)


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
