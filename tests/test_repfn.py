"""Subsets and exact representation functions."""

import numpy as np
import pytest

from ffb.errors import BadParam, IntegerOverflow
from ffb.field import field_add, field_inv, field_mul, make_field
from ffb.repfn import (
    RepFn,
    _add_convolve,
    additive_convolve,
    complement_subset,
    empty_subset,
    full_subset,
    inverse_subset,
    negate_subset,
    rep_product,
    rep_sum,
    subset_from_codes,
)
from ffb.setsgen import SetSpec, derive_seed, realize, stream_value


def seeded_subset(field, seed, lo=1):
    m = lo + stream_value(seed, 0) % (field.q - lo + 1)
    return realize(field, SetSpec("random", (m,)), derive_seed(seed, 1))


def brute_product(field, a, b):
    counts = np.zeros(field.q, dtype=np.int64)
    for x in a.codes():
        for y in b.codes():
            counts[field_mul(field, int(x), int(y))] += 1
    return counts


def brute_sum(field, a, b):
    counts = np.zeros(field.q, dtype=np.int64)
    for x in a.codes():
        for y in b.codes():
            counts[field_add(field, int(x), int(y))] += 1
    return counts


def test_subset_basics(f5):
    s = subset_from_codes(f5, [1, 2])
    assert s.size == 2
    assert s.codes().tolist() == [1, 2]
    assert 1 in s and 0 not in s
    assert full_subset(f5).size == 5
    assert empty_subset(f5).size == 0
    assert complement_subset(f5, s).codes().tolist() == [0, 3, 4]
    assert negate_subset(f5, s).codes().tolist() == [3, 4]
    with pytest.raises(BadParam):
        subset_from_codes(f5, [5])
    with pytest.raises(BadParam):
        subset_from_codes(f5, [-1])


def test_rep_product_known_values(f5):
    star = subset_from_codes(f5, [1, 2, 3, 4])
    assert rep_product(f5, star, star).counts.tolist() == [0, 4, 4, 4, 4]

    zero = subset_from_codes(f5, [0])
    anyb = subset_from_codes(f5, [1, 3])
    assert rep_product(f5, zero, anyb).counts.tolist() == [2, 0, 0, 0, 0]

    s = subset_from_codes(f5, [1, 2])
    # products 1, 2, 2, 4
    assert rep_product(f5, s, s).counts.tolist() == [0, 1, 2, 0, 1]


def test_rep_sum_known_values(f5):
    zero = subset_from_codes(f5, [0])
    assert rep_sum(f5, zero, zero).counts.tolist() == [1, 0, 0, 0, 0]

    full = full_subset(f5)
    assert rep_sum(f5, full, full).counts.tolist() == [5, 5, 5, 5, 5]

    assert rep_sum(f5, subset_from_codes(f5, [1, 2]),
                   subset_from_codes(f5, [3])).counts.tolist() == [1, 0, 0, 0, 1]


@pytest.mark.parametrize("shape", [(5, 1), (7, 1), (3, 2), (11, 1), (13, 1), (2, 4)])
def test_rep_product_matches_brute_loop(shape):
    field = make_field(*shape)
    for idx in range(50):
        a = seeded_subset(field, derive_seed(3, field.q, idx, 0))
        b = seeded_subset(field, derive_seed(3, field.q, idx, 1))
        assert rep_product(field, a, b).counts.tolist() == brute_product(field, a, b).tolist()


def test_rep_sum_matches_brute_loop(f9, f16):
    for field in (f9, f16):
        for idx in range(20):
            a = seeded_subset(field, derive_seed(4, field.q, idx, 0))
            b = seeded_subset(field, derive_seed(4, field.q, idx, 1))
            assert rep_sum(field, a, b).counts.tolist() == brute_sum(field, a, b).tolist()


def test_mass_and_symmetry(f7, f16):
    for field in (f7, f16):
        for idx in range(20):
            a = seeded_subset(field, derive_seed(5, field.q, idx, 0), lo=0)
            b = seeded_subset(field, derive_seed(5, field.q, idx, 1), lo=0)
            rp, rs = rep_product(field, a, b), rep_sum(field, a, b)
            assert rp.total() == a.size * b.size
            assert rs.total() == a.size * b.size
            assert np.array_equal(rp.counts, rep_product(field, b, a).counts)
            assert np.array_equal(rs.counts, rep_sum(field, b, a).counts)
            assert (rp.counts >= 0).all() and (rs.counts >= 0).all()


def test_additive_convolve_identity_and_constant(f5, f7, f16):
    for field in (f7, f16):
        r = rep_product(field, seeded_subset(field, 9), seeded_subset(field, 10))
        point = RepFn(counts=np.eye(field.q, dtype=np.int64)[0])
        assert additive_convolve(field, r, point).counts.tolist() == r.counts.tolist()

    for field in (f5, f16):
        ones = RepFn(counts=np.ones(field.q, dtype=np.int64))
        assert additive_convolve(field, ones, ones).counts.tolist() == [field.q] * field.q


def test_additive_convolve_matches_brute(f7, f9):
    for field in (f7, f9):  # prime and extension paths differ
        for idx in range(10):
            c1 = np.array([stream_value(derive_seed(6, field.q, idx), t) % 4
                           for t in range(field.q)], dtype=np.int64)
            c2 = np.array([stream_value(derive_seed(6, field.q, idx + 100), t) % 4
                           for t in range(field.q)], dtype=np.int64)
            out = additive_convolve(field, RepFn(counts=c1), RepFn(counts=c2))
            brute = np.zeros(field.q, dtype=np.int64)
            for x in range(field.q):
                for y in range(field.q):
                    brute[field_add(field, x, y)] += c1[x] * c2[y]
            assert out.counts.tolist() == brute.tolist()


def spread_mass(rng, q, total):
    """Nonnegative int64 vector of length q summing to total."""
    cuts = np.sort(rng.integers(0, total + 1, q - 1, dtype=np.int64))
    return np.diff(np.concatenate(([0], cuts, [total]))).astype(np.int64)


def test_walsh_hadamard_convolution_is_exact_near_the_mass_limit(f16):
    # mass products in [2^62, 2^63): transformed products need the limb split
    rng = np.random.default_rng(11)
    for field in (f16, make_field(2, 8)):
        q = field.q
        table = [[field_add(field, x, y) for y in range(q)] for x in range(q)]
        for total1, total2 in [(1 << 31, (1 << 31) * 3 // 2), (1 << 60, 6), (5, 3 << 59)]:
            c1, c2 = spread_mass(rng, q, total1), spread_mass(rng, q, total2)
            assert (1 << 62) <= total1 * total2 < (1 << 63)
            brute = [0] * q
            for x in range(q):
                for y in range(q):
                    brute[table[x][y]] += int(c1[x]) * int(c2[y])
            assert _add_convolve(field, c1, c2).tolist() == brute
            out = additive_convolve(field, RepFn(counts=c1), RepFn(counts=c2))
            assert out.counts.tolist() == brute


def test_inverse_subset(f7, f16):
    assert inverse_subset(f7, subset_from_codes(f7, [0, 2, 3, 6])).codes().tolist() == [4, 5, 6]
    for field in (f7, f16):
        s = seeded_subset(field, 12, lo=0)
        expect = sorted({field_inv(field, int(x)) for x in s.codes() if x})
        assert inverse_subset(field, s).codes().tolist() == expect


def test_additive_convolve_overflow_guard(f5):
    big = np.zeros(5, dtype=np.int64)
    big[1] = 1 << 32
    with pytest.raises(IntegerOverflow):
        additive_convolve(f5, RepFn(counts=big), RepFn(counts=big))
