"""Solution counters for bilinear equations over F_q.

Each counter exists in two independent routes: an exact integer route
built on representation functions, and a character route that recovers
the same integer from a full character-sum table.  The two must agree
exactly; the character route additionally exposes its trivial-character
main term and the residual error term, which is what the bound checks
consume.

Character identities here use the all-zero convention (no character sees
the zero element), so tuples where a product vanishes are counted
separately by closed-form combinatorics and re-added at the end.

Each identity is written once, on its pieces: representation functions
and character tables, which ffb.instance.Instance builds once per
instance.  count_bilinear, count_additive and count_general apply the
exact identities to pieces built afresh from the sets.
"""

from __future__ import annotations

import numpy as np

from .characters import CharSumTable
from .errors import BadParam, RoundingDrift
from .field import FieldSpec, sub_perm
from .repfn import (
    FqSubset,
    RepFn,
    additive_convolve,
    negate_subset,
    rep_product,
    rep_sum,
)

ROUND_TOL = 1e-6


def count_bilinear(field: FieldSpec, a: FqSubset, b: FqSubset, c: FqSubset,
                   d: FqSubset, lam: int) -> int:
    """#{(a,b,c,d) in A x B x C x D : a*b + c*d = lam}, exact."""
    return bilinear_count(field, rep_product(field, a, b), rep_product(field, c, d), lam)


def bilinear_count(field: FieldSpec, r_ab: RepFn, r_cd: RepFn, lam: int) -> int:
    """The exact count of a*b + c*d = lam from r_AB and r_CD: the sum over x
    of r_AB[x] * r_CD[lam - x]."""
    return int(np.dot(r_ab.counts, r_cd.counts[sub_perm(field, lam)]))


def _charform(field: FieldSpec, r: RepFn, shift: int, t: CharSumTable, c: FqSubset,
              d: FqSubset, cd: np.ndarray) -> tuple[int, float, float]:
    """Character route for sum over x of r[x] * #{(y, z) in C x D : x - shift = y*z}.

    Returns (n, main, err).  Pairs with y*z = 0 force x = shift and are
    counted exactly.  For the rest both sides are nonzero, which character
    orthogonality detects:

        n_nonzero = (1/(q-1)) * sum_j T(j) * conj(S_C(j)) * conj(S_D(j))

    with T = repfn_char_sums(field, r, shift) the table of sums of
    r[x] * chi_j(x - shift), and cd = conj(S_C) * conj(S_D) the factor that
    does not depend on the shift.  main is the trivial character's share of
    n_nonzero and err = n_nonzero - main.  The pre-rounding residual must
    stay below ROUND_TOL or RoundingDrift is raised.
    """
    m = field.q - 1
    total = np.dot(t.values, cd) / m
    n_nonzero = float(total.real)

    residual = abs(n_nonzero - round(n_nonzero))
    if residual > ROUND_TOL:
        raise RoundingDrift(
            f"nonzero-branch count {n_nonzero!r} is {residual:.3e} from an integer"
        )

    r_shift = int(r.counts[shift])
    n = int(round(n_nonzero)) + r_shift * c.zero_product_pairs(d)
    main = (r.total() - r_shift) * c.star_size() * d.star_size() / m
    return n, main, n_nonzero - main


def count_bilinear_charform(field: FieldSpec, r_ab: RepFn, t_ab: CharSumTable,
                            neg_c: FqSubset, d: FqSubset, cd: np.ndarray,
                            lam: int) -> tuple[int, float, float]:
    """Character-route count of a*b + c*d = lam; returns (n, main, err).

    a*b + c*d = lam is the same event as a*b - lam = (-c)*d, so this is
    the character route on r_AB shifted by lam against -C and D:
    t_ab = repfn_char_sums(field, r_ab, lam) and cd = conj(S_{-C}) * conj(S_D).
    """
    return _charform(field, r_ab, lam, t_ab, neg_c, d, cd)


def count_additive(field: FieldSpec, a: FqSubset, b: FqSubset, c: FqSubset,
                   d: FqSubset) -> int:
    """#{(a,b,c,d) in A x B x C x D : a + b = c*d}, exact."""
    return additive_count(rep_sum(field, a, b), rep_product(field, c, d))


def additive_count(r_sum: RepFn, r_cd: RepFn) -> int:
    """The exact count of a + b = c*d from r_{A+B} and r_CD: their inner product."""
    return int(np.dot(r_sum.counts, r_cd.counts))


def count_additive_charform(field: FieldSpec, r_sum: RepFn, t_sum: CharSumTable,
                            c: FqSubset, d: FqSubset,
                            cd: np.ndarray) -> tuple[int, float, float]:
    """Character-route count of a + b = c*d; returns (t, main, err).

    The character route on r_{A+B}, unshifted, against C and D:
    t_sum = repfn_char_sums(field, r_sum) and cd = conj(S_C) * conj(S_D).
    """
    return _charform(field, r_sum, 0, t_sum, c, d, cd)


def count_general(field: FieldSpec, pairs: list[tuple[FqSubset, FqSubset]], lam: int) -> int:
    """#{((a_i, b_i)) : sum of a_i * b_i = lam} over pairs of factor sets."""
    return int(fold_products(field, [rep_product(field, a, b) for a, b in pairs]).counts[lam])


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


def exceptional_set(field: FieldSpec, f: FqSubset, g: FqSubset, h: FqSubset,
                    r_gh: RepFn | None = None) -> FqSubset:
    """All lam in F_q with no solution of f + g*h = lam, as a subset.

    lam is attainable exactly when it lies in F + G*H, so the set is where
    the additive convolution of F with the product set G*H (the support of
    r_GH) vanishes.  r_gh is rep_product(field, g, h), built here unless the
    caller holds it."""
    if r_gh is None:
        r_gh = rep_product(field, g, h)
    gh = FqSubset.from_mask(r_gh.counts > 0)
    return FqSubset.from_mask(rep_sum(field, f, gh).counts == 0)


def verify_sarkozy_identity(field: FieldSpec, f: FqSubset, g: FqSubset,
                            h: FqSubset, e: FqSubset, r_gh: RepFn | None = None) -> bool:
    """Check that the no-solution set e = exceptional_set(field, f, g, h) is
    invisible to the additive counter.

    For e with f + g*h = e unsolvable, the equation (-e) + f = (-g)*h has
    no solutions either, since it rearranges to f + g*h = e.  Negating the
    first product-set argument alongside the exceptional set is what makes
    the rearrangement an identity; without it the count can be positive
    for asymmetric product sets.  That count, count_additive(field, -e, f,
    -g, h), is taken on its negated form e + (-f) = g*h, whose tuples are
    the same: additive_count of r_{E+(-F)} against r_GH, so the r_gh that
    exceptional_set used serves here too (built here unless the caller
    holds it).  Returns True when the count is zero.
    """
    if r_gh is None:
        r_gh = rep_product(field, g, h)
    return additive_count(rep_sum(field, e, negate_subset(field, f)), r_gh) == 0
