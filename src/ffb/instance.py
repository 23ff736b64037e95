"""One instance: a field, one realisation of named sets, and every piece the
counters and bounds take, each computed at most once.

The counters, bounds and sum-product counts write each identity once, on
its pieces (representation functions, derived sets, pair kernels), which
an Instance builds lazily from the named sets.  The target lam
enters through one piece, r_XY shifted by lam, taken by the exact count,
the character route and W.  A count's other piece, its pair function, is
the exact route's product or the character route's pair kernel, built
once; no lam changes it, so a count at another lam takes no transform.
The bound checks read main and err off the exact count and its product
(main_and_error), never off the character route.  The exact count
builds r_AB and r_{(-C)D} together, two products from one packed transform
plan (repfn.rep_products), as fold does for its pairs.  A piece that
depends on lam is kept for one lam at a time: asking for it at another
lam replaces it, so a sweep holds one of each.
"""

from __future__ import annotations

from collections.abc import Callable, Sequence

from . import bounds, characters, counters, repfn
from .bounds import BoundReport
from .field import FieldSpec
from .repfn import FqSubset, RepFn


class Instance:
    """Named sets over one field, with their pieces memoised lazily.

    A set name is a key of sets, or a name derived from keys: "-x" is -X,
    and "x+y" and "x*y" are the sumset and the productset, the supports of
    sum(x, y) and product(x, y).  Methods that take set names accept
    derived names too.  "--x" is read as x, and so is "-x" in
    characteristic 2, where -X = X: such names share X and its pieces.
    """

    def __init__(self, field: FieldSpec, sets: dict[str, FqSubset]):
        self.field = field
        self.sets = sets
        self._memo: dict = {}
        self._at_lam: dict = {}

    def _once(self, key, build: Callable):
        if key not in self._memo:
            self._memo[key] = build()
        return self._memo[key]

    def _once_at(self, key, lam: int, build: Callable):
        """build() memoised for one lam per key; another lam replaces it."""
        held = self._at_lam.get(key)
        if held is None or held[0] != lam:
            held = self._at_lam[key] = (lam, build())
        return held[1]

    # ------------------------------------------------------------------
    # pieces
    # ------------------------------------------------------------------

    def _name(self, name: str) -> str:
        """name without a leading "--", or any leading "-" when p = 2."""
        while name.startswith("--"):
            name = name[2:]
        return name.lstrip("-") if self.field.p == 2 else name

    def subset(self, name: str) -> FqSubset:
        """The named set, built on first use when the name is derived."""
        name = self._name(name)
        if name in self.sets:
            return self.sets[name]
        field = self.field
        if name.startswith("-"):
            return self._once(name, lambda: repfn.negate_subset(field, self.subset(name[1:])))
        for op, rep in (("+", self.sum), ("*", self.product)):
            x, found, y = name.partition(op)
            if found:
                return self._once(name, lambda: FqSubset.from_mask(rep(x, y).counts > 0))
        raise KeyError(f"no set named {name!r}")

    def products(self, pairs: Sequence[tuple[str, str]]) -> list[RepFn]:
        """r_XY for each named pair (x, y), memoised; every product is built
        here.  The ones not yet held are built together by repfn.rep_products,
        once per memo key: "-x" is x when p = 2, so such pairs build one
        product."""
        keys = [("*", self._name(x), self._name(y)) for x, y in pairs]
        todo = [key for key in dict.fromkeys(keys) if key not in self._memo]
        if todo:
            self._memo.update(zip(todo, repfn.rep_products(
                self.field, [(self.subset(x), self.subset(y)) for _, x, y in todo])))
        return [self._memo[key] for key in keys]

    def product(self, x: str, y: str) -> RepFn:
        """r_XY = rep_product of the named sets: products([(x, y)])."""
        return self.products([(x, y)])[0]

    def sum(self, x: str, y: str) -> RepFn:
        """r_{X+Y} = rep_sum of the named sets."""
        x, y = self._name(x), self._name(y)
        return self._once(("+", x, y), lambda: repfn.rep_sum(
            self.field, self.subset(x), self.subset(y)))

    def fold(self, pairs: Sequence[tuple[str, str]]) -> RepFn:
        """counters.fold_products over product(x_i, y_i) for the named pairs."""
        pairs = tuple(pairs)
        return self._once(("fold", pairs), lambda: counters.fold_products(
            self.field, self.products(pairs)))

    def shifted(self, x: str, y: str, lam: int) -> RepFn:
        """r_XY shifted by lam, s[z] = r_XY[z + lam] (repfn.shift_repfn)."""
        return self._once_at(("s", x, y), lam, lambda: repfn.shift_repfn(
            self.field, self.product(x, y), lam))

    def pair_kernel(self, x: str, y: str) -> RepFn:
        """counters.pair_kernel of the named sets: the character route's
        r_XY, which no shift changes."""
        x, y = self._name(x), self._name(y)
        return self._once(("K", x, y), lambda: counters.pair_kernel(
            self.field, self.subset(x), self.subset(y)))

    # ------------------------------------------------------------------
    # identities on those pieces
    # ------------------------------------------------------------------

    def bilinear(self, a: str, b: str, c: str, d: str, lam: int) -> int:
        """#{a*b + c*d = lam} over the named sets, exact: additive_count of
        shifted(a, b, lam) against product("-" + c, d), on the s_lam, -C and
        D of the character route.  The two products are built together."""
        def count() -> int:
            _, r_cd = self.products([(a, b), ("-" + c, d)])
            return counters.additive_count(self.shifted(a, b, lam), r_cd)

        return self._once_at(("n", a, b, c, d), lam, count)

    def bilinear_charform(self, a: str, b: str, c: str, d: str,
                          lam: int) -> tuple[int, float, float]:
        """counters.count_bilinear_charform of a*b + c*d = lam: (n, main, err)."""
        return counters.count_bilinear_charform(
            self.field, self.shifted(a, b, lam), self.pair_kernel("-" + c, d))

    def main_and_error(self, a: str, b: str, c: str, d: str, lam: int) -> tuple[float, float]:
        """counters.main_and_error of the exact bilinear(a, b, c, d, lam) on
        product("-" + c, d): no table.  n comes first, so that its two
        products are built together."""
        n = self.bilinear(a, b, c, d, lam)
        return counters.main_and_error(
            self.field, self.shifted(a, b, lam), self.product("-" + c, d), n)

    def additive(self, a: str, b: str, c: str, d: str) -> int:
        """#{a + b = c*d} over the named sets, exact."""
        return counters.additive_count(self.sum(a, b), self.product(c, d))

    def additive_charform(self, a: str, b: str, c: str, d: str) -> tuple[int, float, float]:
        """counters.count_additive_charform of a + b = c*d: (t, main, err)."""
        return counters.count_additive_charform(
            self.field, self.sum(a, b), self.pair_kernel(c, d))

    def w(self, a: str, b: str, lam: int) -> BoundReport:
        """bounds.compute_W at lam, on the table of shifted(a, b, lam)."""
        return self._once_at(("W", a, b), lam, lambda: bounds.compute_W(
            self.field, characters.repfn_char_sums(self.field, self.shifted(a, b, lam))))

    def v(self, a: str, b: str) -> BoundReport:
        """bounds.compute_V, on the table of sum(a, b)."""
        return self._once(("V", a, b), lambda: bounds.compute_V(
            self.field, characters.repfn_char_sums(self.field, self.sum(a, b))))

    def cauchy(self, a: str, b: str, c: str, d: str, lam: int) -> BoundReport:
        """bounds.cauchy_error_check of the error term at lam against w(a, b, lam)."""
        _, err = self.main_and_error(a, b, c, d, lam)
        return bounds.cauchy_error_check(self.field, self.w(a, b, lam), err,
                                         self.subset(c), self.subset(d))

    def solvability(self, a: str, b: str, c: str, d: str, lam: int) -> BoundReport:
        """bounds.solvability_threshold_check of a*b + c*d = lam."""
        main, err = self.main_and_error(a, b, c, d, lam)
        return bounds.solvability_threshold_check(
            self.field, main, err, self.bilinear(a, b, c, d, lam), self.subset(a).size,
            self.subset(b).size, self.subset(c).star_size(), self.subset(d).star_size(), lam)
