"""Exact counters, their character-route twins, and the no-solution set."""

import itertools

import numpy as np
import pytest

import ffb.characters
from ffb.counters import (
    count_additive,
    count_bilinear,
    count_general,
    exceptional_set,
    verify_sarkozy_identity,
)
from ffb.errors import BadParam, RoundingDrift
from ffb.field import field_add, field_mul
from ffb.instance import Instance
from ffb.repfn import empty_subset, full_subset, negate_subset, rep_product, subset_from_codes
from ffb.selfcheck import brute_exceptional_mask, grid_tuple, op_tables
from ffb.setsgen import SetSpec, derive_seed, realize, stream_value

ABCD = ("a", "b", "c", "d")


def bilinear_charform(field, a, b, c, d, lam):
    return Instance(field, dict(zip(ABCD, (a, b, c, d)))).bilinear_charform(*ABCD, lam)


def additive_charform(field, a, b, c, d):
    return Instance(field, dict(zip(ABCD, (a, b, c, d)))).additive_charform(*ABCD)


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
    n, main, err = bilinear_charform(f5, full, full, full, full, 1)
    assert n == 120
    assert (bilinear_charform(f5, empty, empty, empty, empty, 1)
            == (0, 0, 0))


def test_charform_matches_exact_count(f7):
    for idx in range(50):
        a, b, c, d = seeded_sets(f7, derive_seed(31, idx), 4)
        for lam in range(7):
            n = count_bilinear(f7, a, b, c, d, lam)
            n_char, main, err = bilinear_charform(f7, a, b, c, d, lam)
            assert n_char == n
            # the two output halves reassemble the nonzero branch
            assert abs((main + err) - round(main + err)) < 1e-6


def test_count_additive_known_values(f5):
    full = full_subset(f5)
    zero = subset_from_codes(f5, [0])
    assert count_additive(f5, full, full, full, full) == 125
    assert count_additive(f5, zero, zero, full, full) == 9
    assert count_additive(f5, empty_subset(f5), full, full, full) == 0


def test_additive_charform_matches_exact(f9):
    for idx in range(30):
        a, b, c, d = seeded_sets(f9, derive_seed(37, idx), 4)
        t = count_additive(f9, a, b, c, d)
        t_char, _, _ = additive_charform(f9, a, b, c, d)
        assert t_char == t


def test_count_general_single_pair(f7):
    a = subset_from_codes(f7, [2])
    b = subset_from_codes(f7, [3])
    assert count_general(f7, [(a, b)], 6) == 1
    assert count_general(f7, [(a, b)], 1) == 0


def test_count_general_two_pairs_is_bilinear(f7):
    for idx in range(20):
        a, b, c, d = seeded_sets(f7, derive_seed(41, idx), 4)
        for lam in range(7):
            assert (count_general(f7, [(a, b), (c, d)], lam)
                    == count_bilinear(f7, a, b, c, d, lam))


def test_count_general_three_pairs_brute(f3):
    full = full_subset(f3)
    pairs = [(full, full)] * 3
    codes = range(3)
    for lam in range(3):
        brute = sum(
            1
            for a1, b1, a2, b2, a3, b3 in itertools.product(codes, repeat=6)
            if field_add(f3, field_add(f3, field_mul(f3, a1, b1),
                                       field_mul(f3, a2, b2)),
                         field_mul(f3, a3, b3)) == lam
        )
        assert count_general(f3, pairs, lam) == brute


def test_count_general_needs_a_pair(f5):
    with pytest.raises(BadParam):
        count_general(f5, [], 0)


def test_exceptional_set_known_cases(f5):
    full, zero = full_subset(f5), subset_from_codes(f5, [0])
    assert exceptional_set(f5, full, zero, zero).size == 0
    e = exceptional_set(f5, zero, zero, full)
    assert e.size == 4
    assert e.codes().tolist() == [1, 2, 3, 4]


def test_exceptional_set_matches_brute(f11):
    tables = op_tables(f11)
    for idx in range(30):
        f, g, h = seeded_sets(f11, derive_seed(43, idx), 3)
        e = exceptional_set(f11, f, g, h)
        assert np.array_equal(e.membership, brute_exceptional_mask(tables, f, g, h))


def test_sarkozy_identity_known_and_seeded(f5, f7, f11):
    star7 = subset_from_codes(f7, range(1, 7))
    assert verify_sarkozy_identity(f7, star7, star7, star7,
                                   exceptional_set(f7, star7, star7, star7))
    zero5 = subset_from_codes(f5, [0])
    full5 = full_subset(f5)
    assert verify_sarkozy_identity(f5, zero5, zero5, full5,
                                   exceptional_set(f5, zero5, zero5, full5))
    for idx in range(20):
        f, g, h = seeded_sets(f11, derive_seed(47, idx), 3)
        assert verify_sarkozy_identity(f11, f, g, h, exceptional_set(f11, f, g, h))


def test_sarkozy_check_is_the_negated_additive_count(f9, f11, f16):
    # on a seeded e as well as on the exceptional set: the check is
    # count_additive(-e, f, -g, h) == 0, with or without a held r_GH
    outcomes = set()
    for field in (f9, f11, f16):
        for idx in range(20):
            seeded, f, g, h = seeded_sets(field, derive_seed(48, field.q, idx), 4)
            r_gh = rep_product(field, g, h)
            exceptional = exceptional_set(field, f, g, h, r_gh)
            assert np.array_equal(exceptional.membership,
                                  exceptional_set(field, f, g, h).membership)
            for e in (seeded, exceptional):
                expect = count_additive(field, negate_subset(field, e), f,
                                        negate_subset(field, g), h) == 0
                assert verify_sarkozy_identity(field, f, g, h, e) == expect
                assert verify_sarkozy_identity(field, f, g, h, e, r_gh) == expect
                outcomes.add(expect)
    assert outcomes == {True, False}


def test_counts_monotone_in_each_set(f9):
    for idx in range(10):
        a, b, c, d = grid_tuple(f9, idx, 4, base_seed=53)
        n0 = count_bilinear(f9, a, b, c, d, 1)
        t0 = count_additive(f9, a, b, c, d)
        grown = [a, b, c, d]
        for slot in range(4):
            missing = np.nonzero(~grown[slot].membership)[0]
            if len(missing) == 0:
                continue
            bigger = list(grown)
            bigger[slot] = subset_from_codes(
                f9, list(grown[slot].codes()) + [int(missing[0])])
            assert count_bilinear(f9, *bigger, 1) >= n0
            assert count_additive(f9, *bigger) >= t0


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
        bilinear_charform(f7, a, b, c, d, 1)
    with pytest.raises(RoundingDrift):
        additive_charform(f7, a, b, c, d)
