"""Sum-product counts over the sumset X + Y and the productset X * Y.

garaev_solution_count counts solutions of v * x1^(-1) + x2 = u with x1
in X minus zero, x2 in X, u in the sumset U = X + Y and v in the
productset V = X * Y.  Fixing w = v * x1^(-1), the pairs (u, x2) with
u - x2 = w number r_{U+(-X)}(w), and the pairs (v, x1) giving w number
r_{V*X*^(-1)}(w), X*^(-1) being the inverses of the nonzero elements of
X.  So the count is the inner product of those two representation
functions: two convolutions and a dot product.  Every triple (x1, x2, y)
yields the solution (x1, x2, x2 + y, x1 * y) and distinct triples yield
distinct solutions, so the count is at least #(X minus 0) * #X * #Y;
restricting x1 away from zero is what keeps that lower bound exact in
the presence of zero.  garaev_solution_count and garaev_inequality_report
take U and V as arguments, so one instance builds each of them once.
"""

from __future__ import annotations

import math

from .counters import additive_count
from .errors import InvariantViolation, NotPrimeField
from .field import FieldSpec
from .repfn import FqSubset, inverse_subset, negate_subset, rep_product, rep_sum


def garaev_solution_count(field: FieldSpec, x: FqSubset, y: FqSubset, u: FqSubset,
                          v: FqSubset) -> tuple[int, int]:
    """(count, lower) for v * x1^(-1) + x2 = u over (X\\0) x X x U x V, where
    u = Instance.subset("x+y") and v = Instance.subset("x*y")."""
    shifts = rep_sum(field, u, negate_subset(field, x))
    scales = rep_product(field, v, inverse_subset(field, x))
    count = additive_count(shifts, scales)
    lower = x.star_size() * x.size * y.size
    if count < lower:
        # the witness family is injective, so this is a bug
        raise InvariantViolation(f"solution count {count} below its lower bound {lower}")
    return count, lower


def garaev_inequality_report(field: FieldSpec, x: FqSubset, y: FqSubset, u: FqSubset,
                             v: FqSubset) -> float:
    """Observed constant (#U * #V) / min(p * max(#X, #Y), (#X * #Y)^2 / p),
    with u = Instance.subset("x+y") and v = Instance.subset("x*y").

    Stated for prime fields only; raises NotPrimeField for k > 1.
    """
    if field.k != 1:
        raise NotPrimeField("the sum-product inequality is stated for prime fields")
    p = field.p
    denom = min(p * max(x.size, y.size), (x.size * y.size) ** 2 / p)
    num = u.size * v.size
    if denom == 0.0:
        return 0.0 if num == 0 else math.inf
    return num / denom
