"""Exact counters, their character-route twins, and the no-solution set."""

import itertools

import numpy as np
import pytest

import ffb.characters
from ffb.counters import (
    additive_count,
    count_bilinear,
    exceptional_set,
    fold_products,
    verify_sarkozy_identity,
)
from ffb.errors import BadParam, IntegerOverflow, RoundingDrift
from ffb.field import field_add, field_mul, make_field, mul_codes
from ffb.instance import Instance
from ffb.repfn import (
    RepFn,
    empty_subset,
    full_subset,
    negate_subset,
    rep_product,
    rep_sum,
    subset_from_codes,
)
from ffb.selfcheck import brute_histogram, grid_tuple, op_tables
from ffb.setsgen import SetSpec, derive_seed, realize, stream_value

ABCD = ("a", "b", "c", "d")


def abcd(field, *sets):
    """The instance with the given sets named a, b, c, d in order."""
    return Instance(field, dict(zip(ABCD, sets)))


def exceptional(field, f, g, h):
    return exceptional_set(field, f, rep_product(field, g, h))


def sarkozy(field, f, g, h, e):
    return verify_sarkozy_identity(field, f, e, rep_product(field, g, h))


def seeded_sets(field, seed, n):
    out = []
    for slot in range(n):
        slot_seed = derive_seed(seed, field.q, slot)
        size = 1 + stream_value(slot_seed, 0) % field.q
        out.append(realize(field, SetSpec("random", (size,)), derive_seed(slot_seed, 1)))
    return out


def test_count_bilinear_full_field(f5):
    full = full_subset(f5)
    assert count_bilinear(f5, full, full, full, full, 1) == 120
    assert count_bilinear(f5, full, full, full, full, 0) == 145


def test_count_bilinear_empty_input(f5):
    full, empty = full_subset(f5), empty_subset(f5)
    assert count_bilinear(f5, empty, full, full, full, 1) == 0
    assert count_bilinear(f5, full, full, full, empty, 2) == 0


def test_charform_full_field_and_empty(f5):
    full, empty = full_subset(f5), empty_subset(f5)
    n, main, err = abcd(f5, full, full, full, full).bilinear_charform(*ABCD, 1)
    assert n == 120
    assert (abcd(f5, empty, empty, empty, empty).bilinear_charform(*ABCD, 1)
            == (0, 0, 0))


def test_charform_matches_exact_count(f7):
    for idx in range(50):
        a, b, c, d = seeded_sets(f7, derive_seed(31, idx), 4)
        for lam in range(7):
            n = count_bilinear(f7, a, b, c, d, lam)
            n_char, main, err = abcd(f7, a, b, c, d).bilinear_charform(*ABCD, lam)
            assert n_char == n
            # the two output halves reassemble the nonzero branch
            assert abs((main + err) - round(main + err)) < 1e-6


def test_pair_kernel_is_the_product(f7, f9, f16):
    # the character route's pair counts are r_CD at every code, zero included
    for field in (f7, f9, f16):
        for idx in range(10):
            c, d = seeded_sets(field, derive_seed(43, idx), 2)
            inst = Instance(field, {"c": c, "d": d})
            kernel, product = inst.pair_kernel("c", "d").counts, inst.product("c", "d").counts
            assert (kernel == product).all()


def test_count_additive_known_values(f5):
    full = full_subset(f5)
    zero = subset_from_codes(f5, [0])
    assert abcd(f5, full, full, full, full).additive(*ABCD) == 125
    assert abcd(f5, zero, zero, full, full).additive(*ABCD) == 9
    assert abcd(f5, empty_subset(f5), full, full, full).additive(*ABCD) == 0


def test_additive_charform_matches_exact(f9):
    for idx in range(30):
        a, b, c, d = seeded_sets(f9, derive_seed(37, idx), 4)
        inst = abcd(f9, a, b, c, d)
        assert inst.additive_charform(*ABCD)[0] == inst.additive(*ABCD)


def test_count_general_single_pair(f7):
    a = subset_from_codes(f7, [2])
    b = subset_from_codes(f7, [3])
    counts = abcd(f7, a, b).fold([("a", "b")]).counts
    assert counts[6] == 1 and counts[1] == 0


def test_count_general_two_pairs_is_bilinear(f7):
    for idx in range(20):
        a, b, c, d = seeded_sets(f7, derive_seed(41, idx), 4)
        for lam in range(7):
            assert (abcd(f7, a, b, c, d).fold([("a", "b"), ("c", "d")]).counts[lam]
                    == count_bilinear(f7, a, b, c, d, lam))


def test_count_general_three_pairs_brute(f3):
    counts = abcd(f3, full_subset(f3)).fold([("a", "a")] * 3).counts
    codes = range(3)
    for lam in range(3):
        brute = sum(
            1
            for a1, b1, a2, b2, a3, b3 in itertools.product(codes, repeat=6)
            if field_add(f3, field_add(f3, field_mul(f3, a1, b1),
                                       field_mul(f3, a2, b2)),
                         field_mul(f3, a3, b3)) == lam
        )
        assert counts[lam] == brute


def test_count_general_needs_a_pair(f5):
    with pytest.raises(BadParam):
        fold_products(f5, [])


def test_fold_products_past_an_accumulated_mass_of_2_64(f5):
    # two pairs fold to a sum of exactly 2^64 with entries at most 2^62; a
    # third pair that is a point mass at 1 translates it by 1
    r = RepFn(counts=np.array([0] + [1 << 30] * 4, dtype=np.int64))
    acc = fold_products(f5, [r, r])
    assert acc.total() == 1 << 64 and int(acc.counts.max()) <= 1 << 62
    one = RepFn(counts=np.eye(1, 5, 1, dtype=np.int64)[0])
    assert fold_products(f5, [r, r, one]).counts.tolist() == np.roll(acc.counts, 1).tolist()


def test_additive_count_refuses_an_inner_product_past_2_63():
    # the true value 2^64 wraps to 0 in an int64 dot product
    r = RepFn(counts=np.array([1 << 62, 1 << 62, 0], dtype=np.int64))
    rho = RepFn(counts=np.array([2, 2, 0], dtype=np.int64))
    with pytest.raises(IntegerOverflow, match="bound 18446744073709551616"):
        additive_count(r, rho)
    # one below the bound, the count is exact
    r = RepFn(counts=np.array([1 << 62, (1 << 62) - 1, 0], dtype=np.int64))
    assert additive_count(r, RepFn(counts=np.array([1, 1, 0], dtype=np.int64))) == (1 << 63) - 1


def test_exceptional_set_known_cases(f5):
    full, zero = full_subset(f5), subset_from_codes(f5, [0])
    assert exceptional(f5, full, zero, zero).size == 0
    e = exceptional(f5, zero, zero, full)
    assert e.size == 4
    assert e.codes().tolist() == [1, 2, 3, 4]


def test_exceptional_set_matches_brute(f11):
    tables = op_tables(f11)
    for idx in range(30):
        f, g, h = seeded_sets(f11, derive_seed(43, idx), 3)
        e = exceptional(f11, f, g, h)
        unsolvable = brute_histogram(tables, [(f.codes(), [1]), (g.codes(), h.codes())]) == 0
        assert np.array_equal(e.membership, unsolvable)


def test_sarkozy_identity_known_and_seeded(f5, f7, f11):
    star7 = subset_from_codes(f7, range(1, 7))
    assert sarkozy(f7, star7, star7, star7, exceptional(f7, star7, star7, star7))
    zero5 = subset_from_codes(f5, [0])
    full5 = full_subset(f5)
    assert sarkozy(f5, zero5, zero5, full5, exceptional(f5, zero5, zero5, full5))
    for idx in range(20):
        f, g, h = seeded_sets(f11, derive_seed(47, idx), 3)
        assert sarkozy(f11, f, g, h, exceptional(f11, f, g, h))


def test_sarkozy_check_is_the_negated_additive_count(f9, f11, f16):
    # on a seeded e as well as on the exceptional set: the check is
    # #{(-e) + f = (-g)*h} == 0, counted from r_{(-E)+F} and r_{(-G)H}
    outcomes = set()
    for field in (f9, f11, f16):
        for idx in range(20):
            seeded, f, g, h = seeded_sets(field, derive_seed(48, field.q, idx), 4)
            r_gh = rep_product(field, g, h)
            for e in (seeded, exceptional_set(field, f, r_gh)):
                expect = additive_count(rep_sum(field, negate_subset(field, e), f),
                                        rep_product(field, negate_subset(field, g), h)) == 0
                assert verify_sarkozy_identity(field, f, e, r_gh) == expect
                outcomes.add(expect)
    assert outcomes == {True, False}


def test_counts_monotone_in_each_set(f9):
    for idx in range(10):
        a, b, c, d = grid_tuple(f9, idx, 4, base_seed=53)
        n0 = count_bilinear(f9, a, b, c, d, 1)
        t0 = abcd(f9, a, b, c, d).additive(*ABCD)
        grown = [a, b, c, d]
        for slot in range(4):
            missing = np.nonzero(~grown[slot].membership)[0]
            if len(missing) == 0:
                continue
            bigger = list(grown)
            bigger[slot] = subset_from_codes(
                f9, list(grown[slot].codes()) + [int(missing[0])])
            assert count_bilinear(f9, *bigger, 1) >= n0
            assert abcd(f9, *bigger).additive(*ABCD) >= t0


def test_lambda_sum_rule(f11, f16):
    for field in (f11, f16):
        a, b, c, d = seeded_sets(field, derive_seed(59, field.q), 4)
        total = sum(count_bilinear(field, a, b, c, d, lam) for lam in range(field.q))
        assert total == a.size * b.size * c.size * d.size


def test_rounding_drift_guard_fires_on_broken_transform(f7, monkeypatch):
    a, b, c, d = seeded_sets(f7, 61, 4)
    real = ffb.characters._transform
    monkeypatch.setattr(ffb.characters, "_transform", lambda v: real(v) + 0.25)
    with pytest.raises(RoundingDrift):
        abcd(f7, a, b, c, d).bilinear_charform(*ABCD, 1)
    with pytest.raises(RoundingDrift):
        abcd(f7, a, b, c, d).additive_charform(*ABCD)


@pytest.mark.parametrize("p, k", [(1048573, 1), (2, 20)])
def test_full_set_closed_forms_at_the_cap(p, k):
    # four full sets at the cap, where brute force cannot reach: count through
    # Instance.bilinear and its r_{(-C)D}, and det2 (a*b - c*d = lam, slots
    # renamed to share r_AB) through "--c", read as c
    field = make_field(p, k)
    q = field.q
    inst = abcd(field, *[full_subset(field)] * 4)
    for lam, want in ((0, (2 * q - 1) ** 2 + (q - 1) ** 3), (5, q ** 3 - q)):
        assert inst.bilinear("a", "b", "c", "d", lam) == want
        assert inst.bilinear("a", "b", "-c", "d", lam) == want


@pytest.mark.parametrize("p, k", [(1048573, 1), (2, 20)])
def test_scaling_identity_at_the_cap(p, k):
    # t*a*b + t*c*d = t*lam exactly when a*b + c*d = lam, so
    # N(tA, B, tC, D; t*lam) = N(A, B, C, D; lam) for t != 0, and the
    # character route's half-table pair kernel is r_{(-C)D} on both sides
    field = make_field(p, k)
    t, lam = 2, 5
    sets = [realize(field, SetSpec("random", (field.q // 4,)), derive_seed(67, field.q, slot))
            for slot in range(4)]
    scaled = [subset_from_codes(field, mul_codes(field, t, x.codes())) if slot % 2 == 0 else x
              for slot, x in enumerate(sets)]
    counts = []
    for xs, target in ((sets, lam), (scaled, field_mul(field, t, lam))):
        inst = abcd(field, *xs)
        n = inst.bilinear(*ABCD, target)
        assert inst.bilinear_charform(*ABCD, target)[0] == n
        assert (inst.pair_kernel("-c", "d").counts == inst.product("-c", "d").counts).all()
        counts.append(n)
    assert counts[0] == counts[1] > 0
