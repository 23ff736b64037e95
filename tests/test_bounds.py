"""Extremal sums W and V against their oracles and proven inequalities."""

import math
from collections import Counter

import pytest

import ffb.characters
from ffb.bounds import karatsuba_bound, vinogradov_bound
from ffb.characters import char_eval
from ffb.counters import count_bilinear
from ffb.errors import LambdaZero, NoNontrivialCharacter
from ffb.field import field_add, field_mul, field_sub, make_field
from ffb.instance import Instance
from ffb.repfn import empty_subset, full_subset, subset_from_codes
from ffb.setsgen import SetSpec, derive_seed, realize, stream_value

TOL = 1e-9
ABCD = ("a", "b", "c", "d")


def w_of(field, a, b, lam):
    return Instance(field, {"a": a, "b": b}).w("a", "b", lam)


def v_of(field, a, b):
    return Instance(field, {"a": a, "b": b}).v("a", "b")


def cauchy(field, a, b, c, d, lam):
    return Instance(field, dict(zip(ABCD, (a, b, c, d)))).cauchy(*ABCD, lam)


def solvability(field, a, b, c, d, lam):
    return Instance(field, dict(zip(ABCD, (a, b, c, d)))).solvability(*ABCD, lam)


def seeded_pair(field, seed):
    out = []
    for slot in range(2):
        s = derive_seed(seed, slot)
        size = 1 + stream_value(s, 0) % field.q
        out.append(realize(field, SetSpec("random", (size,)), derive_seed(s, 1)))
    return out


def oracle_w(field, a, b, lam):
    best = 0.0
    for j in range(1, field.q - 1):
        total = sum(
            char_eval(field, j, field_sub(field, field_mul(field, int(x), int(y)), lam))
            for x in a.codes() for y in b.codes()
        )
        best = max(best, abs(total))
    return best


def oracle_v(field, a, b):
    best = 0.0
    for j in range(1, field.q - 1):
        total = sum(
            char_eval(field, j, field_add(field, int(x), int(y)))
            for x in a.codes() for y in b.codes()
        )
        best = max(best, abs(total))
    return best


def test_w_vanishes_on_full_multiplicative_group(f7):
    star = subset_from_codes(f7, range(1, 7))
    assert w_of(f7, star, star, 0).w_or_v < TOL


def test_w_singletons(f7):
    a, b = subset_from_codes(f7, [2]), subset_from_codes(f7, [3])
    rep = w_of(f7, a, b, 1)  # 2*3 - 1 is nonzero
    assert rep.w_or_v == pytest.approx(1.0, abs=TOL)
    assert 1 <= rep.argmax_j < 6


def test_w_matches_direct_oracle(f7):
    a = subset_from_codes(f7, [1, 2, 4])
    b = subset_from_codes(f7, [3, 5])
    assert w_of(f7, a, b, 1).w_or_v == pytest.approx(oracle_w(f7, a, b, 1), abs=TOL)


def test_v_known_cases(f5, f9):
    zero = subset_from_codes(f5, [0])
    assert v_of(f5, zero, zero).w_or_v < TOL
    full = full_subset(f9)
    assert v_of(f9, full, full).w_or_v < TOL


def test_w_v_match_oracles_seeded(f11):
    for idx in range(10):
        a, b = seeded_pair(f11, derive_seed(67, idx))
        assert v_of(f11, a, b).w_or_v == pytest.approx(oracle_v(f11, a, b), abs=TOL)
        for lam in (0, 3):
            assert (w_of(f11, a, b, lam).w_or_v
                    == pytest.approx(oracle_w(f11, a, b, lam), abs=TOL))


def test_w_v_symmetric_in_arguments(f13):
    a, b = seeded_pair(f13, 71)
    assert (w_of(f13, a, b, 2).w_or_v
            == pytest.approx(w_of(f13, b, a, 2).w_or_v, abs=TOL))
    assert (v_of(f13, a, b).w_or_v
            == pytest.approx(v_of(f13, b, a).w_or_v, abs=TOL))


def test_two_element_field_has_no_nontrivial_character(f2):
    s = subset_from_codes(f2, [1])
    with pytest.raises(NoNontrivialCharacter):
        w_of(f2, s, s, 1)
    with pytest.raises(NoNontrivialCharacter):
        v_of(f2, s, s)


def test_sqrt_bound_degenerate_cases(f7):
    star = subset_from_codes(f7, range(1, 7))
    rep = vinogradov_bound(f7, w_of(f7, star, star, 0), 6, 6)
    assert rep.holds and rep.ratio < TOL
    a, b = subset_from_codes(f7, [2]), subset_from_codes(f7, [3])
    rep = vinogradov_bound(f7, w_of(f7, a, b, 1), 1, 1)
    assert rep.holds
    assert rep.bound_value == pytest.approx(math.sqrt(7))


def test_sqrt_bound_holds_on_seeded_triples(f13):
    for idx in range(100):
        a, b = seeded_pair(f13, derive_seed(73, idx))
        lam = stream_value(73, idx) % 13
        for measured in (w_of(f13, a, b, lam), v_of(f13, a, b)):
            assert vinogradov_bound(f13, measured, a.size, b.size).holds


def test_moment_bound_formula_and_ratio(f7, f13):
    a, b = subset_from_codes(f7, [2]), subset_from_codes(f7, [3])
    rep = karatsuba_bound(f7, w_of(f7, a, b, 1), 1, 1, r=1)
    assert rep.bound_value == pytest.approx(7 ** 0.25 + 7 ** 0.5)
    assert rep.r == 1

    s6 = subset_from_codes(f13, range(1, 7))
    w = w_of(f13, s6, s6, 1)
    rep = karatsuba_bound(f13, w, 6, 6, r=2)
    assert rep.ratio == pytest.approx(w.w_or_v / rep.bound_value)
    assert rep.holds is None  # report only, nothing asserted

    with pytest.raises(ValueError):
        karatsuba_bound(f13, w, 6, 6, r=0)


def test_moment_bound_characteristic_variant(f9):
    a, b = seeded_pair(f9, 79)
    w = w_of(f9, a, b, 1)
    with_q = karatsuba_bound(f9, w, a.size, b.size, r=2).bound_value
    with_p = karatsuba_bound(f9, w, a.size, b.size, r=2, use_p=True).bound_value
    assert with_p < with_q  # base 3 against base 9


def test_cauchy_error_bound(f5, f9, f11):
    full = full_subset(f5)
    star = subset_from_codes(f5, range(1, 5))
    rep = cauchy(f5, full, full, empty_subset(f5), full, 1)
    assert rep.holds and rep.w_or_v == pytest.approx(0.0, abs=TOL)
    assert cauchy(f5, star, star, star, star, 1).holds
    for field in (f9, f11):
        for idx in range(50):
            a, b = seeded_pair(field, derive_seed(83, field.q, idx))
            c, d = seeded_pair(field, derive_seed(89, field.q, idx))
            lam = stream_value(83, idx) % field.q
            assert cauchy(field, a, b, c, d, lam).holds


def test_solvability_fires_on_full_sets(f7):
    star = subset_from_codes(f7, range(1, 7))
    rep = solvability(f7, star, star, star, star, 1)
    assert rep.holds
    assert count_bilinear(f7, star, star, star, star, 1) > 0


def test_solvability_vacuous_on_singletons(f7):
    s = subset_from_codes(f7, [2])
    rep = solvability(f7, s, s, s, s, 1)
    assert not rep.holds


def test_solvability_rejects_zero_target(f7):
    star = subset_from_codes(f7, range(1, 7))
    with pytest.raises(LambdaZero):
        solvability(f7, star, star, star, star, 0)


def test_solvability_implication_on_nested_intervals():
    f13 = make_field(13)
    for hi in range(1, 13):
        sets = [subset_from_codes(f13, range(1, hi + 1)) for _ in range(4)]
        for lam in range(1, 13):
            rep = solvability(f13, *sets, lam)
            if rep.holds:
                assert count_bilinear(f13, *sets, lam) > 0


def test_empirical_delta_reported(f7):
    star = subset_from_codes(f7, range(1, 7))
    rep = solvability(f7, star, star, star, star, 1)
    # full-set instance has zero error, so the gap is unbounded
    assert rep.empirical_delta == math.inf


def test_cauchy_and_solvability_build_no_set_table(monkeypatch):
    # main and err come from the exact count: solvability builds no character
    # table, and the Cauchy check only the table of its W
    calls = Counter()
    for name in ("set_char_sums", "repfn_char_sums"):
        def wrapper(*args, _name=name, _original=getattr(ffb.characters, name)):
            calls[_name] += 1
            return _original(*args)

        monkeypatch.setattr(ffb.characters, name, wrapper)
    field = make_field(13)
    sets = {name: realize(field, SetSpec("random", (6,)), derive_seed(5, slot))
            for slot, name in enumerate(ABCD)}
    Instance(field, sets).solvability(*ABCD, 4)
    assert calls == {}
    Instance(field, sets).cauchy(*ABCD, 4)
    assert calls == {"repfn_char_sums": 1}
    # the same split as the character route's
    inst = Instance(field, sets)
    n, main, err = inst.bilinear_charform(*ABCD, 4)
    assert n == inst.bilinear(*ABCD, 4)
    assert inst.main_and_error(*ABCD, 4) == pytest.approx((main, err), abs=TOL)
