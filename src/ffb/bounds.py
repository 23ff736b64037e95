"""Extremal character sums and the inequalities they are known to satisfy.

W is the largest modulus over nontrivial characters of the double sum of
chi(a*b - lam) over A x B; V is the analogue with chi(a + b).  Both obey
the square-root bound sqrt(q * #A * #B) with constant 1, which this
module treats as a hard invariant: a failed check is a build-rejecting
event, not a report line.  The Cauchy error check bounds the character
route's residual term by W * sqrt(#C* * #D*) the same way.  The higher
moment bound and the solvability threshold are report-style: they carry
observed ratios and never reject on their own.

Every check takes what it measures as pieces: W and V from their tables,
the Cauchy and solvability checks the split of an exact count
(counters.main_and_error), so one instance measures each once.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import InvariantViolation, LambdaZero, NoNontrivialCharacter
from .field import FieldSpec
from .repfn import FqSubset

# Absolute slack for comparisons between float maxima.
SLACK = 1e-9


@dataclass(frozen=True)
class BoundReport:
    """One measured quantity against one bound.

    w_or_v is the measured side, bound_value the bound side (None when the
    call only measures), ratio their quotient, holds the comparison
    outcome, strict whether it held strictly.  argmax_j names the extremal
    character where one was searched, r echoes the moment parameter, and
    empirical_delta is the observed main-to-error exponent gap.
    """

    w_or_v: float
    bound_value: float | None = None
    ratio: float | None = None
    holds: bool | None = None
    strict: bool | None = None
    argmax_j: int | None = None
    r: int | None = None
    empirical_delta: float | None = None


def _extremal(field: FieldSpec, t: np.ndarray) -> BoundReport:
    """The max modulus over nontrivial characters of t, and its first index:
    |S(q-1-j)| = |S(j)| exactly, so both lie in t's half, j <= (q-1)/2."""
    if field.q < 3:
        raise NoNontrivialCharacter(f"q = {field.q} has only the trivial character")
    mods = np.abs(t[1:])
    j = int(np.argmax(mods)) + 1
    return BoundReport(w_or_v=float(mods[j - 1]), argmax_j=j)


def _ratio(measured: float, bound: float) -> float:
    if bound > 0.0:
        return measured / bound
    return 0.0 if measured == 0.0 else math.inf


def compute_W(field: FieldSpec, t: np.ndarray) -> BoundReport:
    """W from t = repfn_char_sums of Instance.shifted(a, b, lam): the max
    modulus over nontrivial characters of sum of chi(a*b - lam)."""
    return _extremal(field, t)


def compute_V(field: FieldSpec, t: np.ndarray) -> BoundReport:
    """V from t = repfn_char_sums of Instance.sum(a, b): the max modulus
    over nontrivial characters of sum of chi(a + b)."""
    return _extremal(field, t)


def vinogradov_bound(field: FieldSpec, measured: BoundReport, na: int, nb: int) -> BoundReport:
    """Assertable square-root bound on a measured W or V for sets of sizes
    na and nb: measured max <= sqrt(q * na * nb)."""
    bound = math.sqrt(field.q * na * nb)
    return BoundReport(
        w_or_v=measured.w_or_v,
        bound_value=bound,
        ratio=_ratio(measured.w_or_v, bound),
        holds=measured.w_or_v <= bound + SLACK,
        strict=measured.w_or_v < bound,
        argmax_j=measured.argmax_j,
    )


def karatsuba_bound(field: FieldSpec, w: BoundReport, na: int, nb: int,
                    r: int = 1, use_p: bool = False) -> BoundReport:
    """Higher moment bound on a measured W for sets of sizes na and nb, report only.

    bound = na^(1 - 1/(2r)) * nb * base^(1/(4r))
          + na^(1 - 1/(2r)) * nb^(1/2) * base^(1/(2r))

    base is q by default; use_p substitutes the characteristic p, the
    variant meaningful for prime fields embedded in extensions.
    """
    if r < 1:
        raise ValueError(f"moment parameter r must be >= 1, got {r}")
    base = field.p if use_p else field.q
    e = 1.0 - 1.0 / (2 * r)
    bound = (na ** e) * nb * base ** (1.0 / (4 * r)) \
        + (na ** e) * math.sqrt(nb) * base ** (1.0 / (2 * r))
    return BoundReport(
        w_or_v=w.w_or_v,
        bound_value=bound,
        ratio=_ratio(w.w_or_v, bound),
        argmax_j=w.argmax_j,
        r=r,
    )


def cauchy_error_check(field: FieldSpec, w: BoundReport, err: float, c: FqSubset,
                       d: FqSubset) -> BoundReport:
    """Assertable bound |err| <= W * sqrt(#C* * #D*) on the error term err of
    the count at lam (counters.main_and_error), with w = compute_W at that lam."""
    bound = w.w_or_v * math.sqrt(c.star_size() * d.star_size())
    measured = abs(err)
    return BoundReport(
        w_or_v=measured,
        bound_value=bound,
        ratio=_ratio(measured, bound),
        holds=measured <= bound + SLACK,
        strict=measured < bound,
        argmax_j=w.argmax_j,
    )


def solvability_threshold_check(field: FieldSpec, main: float, err: float, n: int,
                                na: int, nb: int, nc: int, nd: int, lam: int) -> BoundReport:
    """Sufficient condition main > sqrt(q * #A * #B * #C* * #D*) for n > 0.

    Takes main and err (counters.main_and_error) of the exact count n of
    a*b + c*d = lam, na = #A, nb = #B, nc = #C* and nd = #D*.  When the
    condition fires the equation is guaranteed solvable, which n confirms.
    empirical_delta records log base q of main/|err| as the observed
    exponent gap.  lam = 0 is refused.
    """
    if lam == 0:
        raise LambdaZero("solvability threshold is stated for nonzero targets")
    threshold = math.sqrt(field.q * na * nb * nc * nd)
    fires = main > threshold
    if fires and n == 0:
        raise InvariantViolation(
            f"solvability threshold fired at lam = {lam} but the exact count is 0"
        )
    if main <= 0.0:
        delta = None
    elif err == 0.0:
        delta = math.inf
    else:
        delta = math.log(main / abs(err)) / math.log(field.q)
    return BoundReport(
        w_or_v=threshold,
        bound_value=main,
        ratio=_ratio(threshold, main),
        holds=fires,
        strict=fires,
        empirical_delta=delta,
    )
