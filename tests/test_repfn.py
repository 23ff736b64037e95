"""Subsets and exact representation functions."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import ffb.repfn

from ffb.counters import additive_count, count_bilinear
from ffb.errors import BadParam, IntegerOverflow
from ffb.field import (
    add_codes,
    field_add,
    field_inv,
    field_mul,
    field_neg,
    make_field,
    neg_codes,
)
from ffb.instance import Instance
from ffb.repfn import (
    ROUND_BUDGET,
    FqSubset,
    RepFn,
    _add_convolve,
    _cyclic_convolve,
    _limb_convolve,
    _packed_convolve,
    _rfft_error_bound,
    _walsh_hadamard,
    _xor_convolve,
    _xor_limb_width,
    additive_convolve,
    exact_sum,
    complement_subset,
    empty_subset,
    full_subset,
    inverse_subset,
    negate_subset,
    rep_product,
    rep_products,
    rep_sum,
    shift_repfn,
    subset_from_codes,
)
from ffb.selfcheck import GRID_SHAPES
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


def test_subset_from_codes_names_the_first_bad_code(f7):
    with pytest.raises(BadParam, match="element code 9 outside"):
        subset_from_codes(f7, [3, 9, -1])
    with pytest.raises(BadParam, match="element code -1 outside"):
        subset_from_codes(f7, (2, -1, 9))
    with pytest.raises(BadParam, match=f"element code {1 << 70} outside"):
        subset_from_codes(f7, [1, 1 << 70])
    assert subset_from_codes(f7, np.array([6, 6, 0])).codes().tolist() == [0, 6]
    assert subset_from_codes(f7, ()).size == 0


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


def test_walsh_hadamard_convolution_splits_a_mass_past_2_to_63():
    # r_AB of two full sets has total q^2, so the fold's mass is q^4 = 2^64;
    # every entry is below q^3 and the split keeps each product in int64
    field = make_field(2, 16)
    q = field.q
    inst = Instance(field, {name: full_subset(field) for name in ("a0", "b0", "a1", "b1")})
    fold = inst.fold([("a0", "b0"), ("a1", "b1")])
    assert fold.counts[5] == q ** 3 - q
    assert fold.counts[0] == (2 * q - 1) ** 2 + (q - 1) ** 3
    assert set(fold.counts[1:].tolist()) == {q ** 3 - q}
    assert fold.total() == q ** 4


def test_walsh_hadamard_split_takes_the_operand_that_certifies():
    # an indicator cannot be split into smaller limbs, so a mass of 2^64
    # against one splits the heavy point mass, in either argument order
    heavy = np.zeros(256, dtype=np.int64)
    heavy[3] = 1 << 56
    ones = np.ones(256, dtype=np.int64)
    assert _xor_convolve(heavy, ones).tolist() == [1 << 56] * 256
    assert _xor_convolve(ones, heavy).tolist() == [1 << 56] * 256
    assert _xor_limb_width(ones, 1 << 56) == 0
    # above q = 2^21 entries below 2^63 no longer promise a split: uniform
    # 2^19 over 2^22 entries has entries 2^60 but nnz * total = 2^63 both ways
    flat = np.broadcast_to(np.int64(1 << 19), 1 << 22)
    with pytest.raises(IntegerOverflow, match="no limb width"):
        _xor_convolve(flat, flat)


def test_inverse_subset(f7, f16):
    assert inverse_subset(f7, subset_from_codes(f7, [0, 2, 3, 6])).codes().tolist() == [4, 5, 6]
    for field in (f7, f16):
        s = seeded_subset(field, 12, lo=0)
        expect = sorted({field_inv(field, int(x)) for x in s.codes() if x})
        assert inverse_subset(field, s).codes().tolist() == expect


def test_inverse_subset_matches_the_dlog_oracle():
    # the reflection of S along exp against x = exp[t] -> exp[-t mod (q - 1)]
    for p, k in sorted(set(GRID_SHAPES) | {(3, 2), (2, 4), (5, 2)}):
        field = make_field(p, k)
        rng = np.random.default_rng(p * 100 + k)
        masks = [np.zeros(field.q, dtype=bool), np.ones(field.q, dtype=bool)]
        masks += [rng.random(field.q) < frac for frac in (0.2, 0.5, 0.8)]
        for mask in masks:
            s = FqSubset.from_mask(mask)
            t = field.dlog[s.codes()]
            expect = np.zeros(field.q, dtype=bool)
            expect[field.exp[-t[t >= 0] % (field.q - 1)]] = True
            assert inverse_subset(field, s).membership.tolist() == expect.tolist(), (p, k)


@pytest.mark.parametrize("q, lams", [(2, None), (3, None), (5, None), (13, None),
                                     (101, None), (1048573, (1, 2, 524287, 1048572))])
def test_prime_field_shift_and_negation_match_the_gathers(q, lams):
    # over Z_p the shift of r is a rotation and -S a reflection; each equals
    # the add_codes gather and the neg_codes scatter over every code
    field = make_field(q)
    rng = np.random.default_rng(q)
    counts = rng.integers(0, 9, q)
    counts.flags.writeable = False
    r = RepFn(counts=counts)
    codes = np.arange(q)
    for lam in range(q) if lams is None else lams:
        shifted = shift_repfn(field, r, lam).counts
        assert np.array_equal(shifted, counts[add_codes(field, lam, codes)]), lam
        assert not shifted.flags.writeable
    for mask in (rng.random(q) < 0.3, rng.random(q) < 0.7, np.eye(1, q, 0, dtype=bool)[0]):
        for zero in (False, True):
            mask[0] = zero
            s = FqSubset.from_mask(mask.copy())
            expect = np.zeros(q, dtype=bool)
            expect[neg_codes(field, s.codes())] = True
            assert np.array_equal(negate_subset(field, s).membership, expect)


def test_additive_convolve_overflow_guard(f5):
    big = np.zeros(5, dtype=np.int64)
    big[1] = 1 << 32
    with pytest.raises(IntegerOverflow):
        additive_convolve(f5, RepFn(counts=big), RepFn(counts=big))


def test_additive_convolve_guards_each_entry_not_the_mass():
    # mass 2^64, every entry q * 2^40 < 2^53: exact over Z_q, where the
    # limb recombination is exact below 2^63, and over F_{2^12}, where one
    # operand is split into limbs so that WHT(limb) * WHT(r) fits in int64
    for field in (make_field(4093), make_field(2, 12)):
        r = RepFn(counts=np.full(field.q, 1 << 20, dtype=np.int64))
        assert r.total() ** 2 >= 1 << 63
        assert additive_convolve(field, r, r).counts.tolist() == [field.q << 40] * field.q
    # entries near 2^62 whose int64 sum wraps to 0: against all-ones every
    # output entry is 2^64 and is refused; against a point mass at d the
    # output is the input translated by d, which the packed plan, misled by
    # a wrapped sum, would read as zeros
    field = make_field(5)
    heavy = RepFn(counts=np.array([1 << 62] * 4 + [0], dtype=np.int64))
    assert heavy.total() == 1 << 64
    with pytest.raises(IntegerOverflow, match="entry bound 18446744073709551616"):
        additive_convolve(field, heavy, RepFn(counts=np.ones(5, dtype=np.int64)))
    for d in (0, 1):
        delta = RepFn(counts=np.eye(1, 5, d, dtype=np.int64)[0])
        want = np.roll(heavy.counts, d).tolist()
        assert additive_convolve(field, heavy, delta).counts.tolist() == want
        assert additive_convolve(field, delta, heavy).counts.tolist() == want
    # one heavy entry against a spread: entries 2^61 and 2^62, mass 2^64
    field = make_field(7)
    heavy = np.zeros(7, dtype=np.int64)
    heavy[2] = 1 << 61
    spread = np.array([1, 2, 1, 1, 1, 1, 1], dtype=np.int64)
    out = additive_convolve(field, RepFn(counts=heavy), RepFn(counts=spread))
    assert out.counts.tolist() == [int(heavy[2]) * int(spread[(z - 2) % 7]) for z in range(7)]


def test_shift_and_negate_permute_the_counts(f7, f9, f16):
    for field in (f7, f9, f16):
        counts = np.array([stream_value(19, x) % 9 for x in range(field.q)], dtype=np.int64)
        r = RepFn(counts=counts)
        # negating a factor reads r_XY at -y: r_{(-X)Y}[y] = r_XY[-y]
        inst = Instance(field, {"x": seeded_subset(field, 19), "y": seeded_subset(field, 20)})
        r_xy = inst.product("x", "y").counts
        assert inst.product("-x", "y").counts.tolist() == [
            r_xy[field_neg(field, y)] for y in range(field.q)]
        for lam in range(field.q):
            assert shift_repfn(field, r, lam).counts.tolist() == [
                counts[field_add(field, y, lam)] for y in range(field.q)]


def cyclic_oracle(u, v, m):
    """The O(m^2) int64 cyclic convolution over Z_m."""
    lin = np.convolve(u, v)
    out = lin[:m].copy()
    out[: m - 1] += lin[m:]
    return out


@pytest.mark.parametrize("q", [5, 7, 4093, 16381])
def test_convolutions_match_np_convolve_oracle(q):
    field = make_field(q)
    rand = [seeded_subset(field, derive_seed(13, q, idx), lo=0) for idx in range(2)]
    pairs = [(full_subset(field), full_subset(field)), (rand[0], rand[1])]
    if q < 100:  # the oracle is quadratic; at 16381 each call takes ~0.3 s
        pairs += [(empty_subset(field), full_subset(field)), (rand[1], full_subset(field))]
        pairs += [(seeded_subset(field, derive_seed(14, q, idx, 0), lo=0),
                   seeded_subset(field, derive_seed(14, q, idx, 1), lo=0)) for idx in range(20)]
    for a, b in pairs:
        u, v = a.membership.astype(np.int64), b.membership.astype(np.int64)
        assert rep_sum(field, a, b).counts.tolist() == cyclic_oracle(u, v, q).tolist()
        prod = rep_product(field, a, b).counts[field.exp]
        assert prod.tolist() == cyclic_oracle(u[field.exp], v[field.exp], q - 1).tolist()


def test_prime_field_convolution_is_exact_near_the_mass_limit(f7):
    # mass products in [2^62, 2^63) with entries above 2^53: one float64
    # pass cannot hold them, so the limb split is what keeps this exact
    rng = np.random.default_rng(12)
    for field in (f7, make_field(101)):
        q = field.q
        for total1, total2 in [(1 << 31, (1 << 31) * 3 // 2), (1 << 60, 6), (5, 3 << 59)]:
            c1, c2 = spread_mass(rng, q, total1), spread_mass(rng, q, total2)
            assert (1 << 62) <= total1 * total2 < (1 << 63)
            brute = [0] * q
            for x in range(q):
                for y in range(q):
                    brute[(x + y) % q] += int(c1[x]) * int(c2[y])
            assert max(brute) > 1 << 53
            assert _cyclic_convolve(c1, c2, q).tolist() == brute
            out = additive_convolve(field, RepFn(counts=c1), RepFn(counts=c2))
            assert out.counts.tolist() == brute


def test_count_general_matches_count_bilinear_at_prime_q():
    # just above 2^14 the transform doubles to 2^16, and the near-full sets'
    # fold takes two limbs; the q/4 sets take one
    field = make_field(16411)
    for m in (field.q // 4, field.q - 1):
        a, b, c, d = (realize(field, SetSpec("random", (m,)), derive_seed(15, m, slot))
                      for slot in range(4))
        fold = Instance(field, dict(zip("abcd", (a, b, c, d)))).fold([("a", "b"), ("c", "d")])
        for lam in (0, 1, 7):
            assert int(fold.counts[lam]) == count_bilinear(field, a, b, c, d, lam)


def test_rfft_error_bound_covers_observed_error():
    rng = np.random.default_rng(16)
    for size in (64, 1024, 4096):
        for top in (2, 1 << 10, 1 << 20):
            pairs = [rng.integers(0, top, (2, size // 2), dtype=np.int64) for _ in range(2)]
            for terms in (1, 2):
                spectrum = sum(np.fft.rfft(x, size) * np.fft.rfft(y, size)
                               for x, y in pairs[:terms])
                exact = sum(np.convolve(x, y) for x, y in pairs[:terms])
                norms = sum(np.linalg.norm(x) * np.linalg.norm(y) for x, y in pairs[:terms])
                observed = np.abs(np.fft.irfft(spectrum, size)[: size - 1] - exact).max()
                assert observed <= _rfft_error_bound(float(norms), size, terms)


def test_indicator_convolutions_need_one_limb_at_the_cap():
    m = 1048573 - 1  # the largest prime q below 2^20, two full indicators
    size = 1 << (2 * m - 2).bit_length()
    assert size == 1 << 21
    assert _rfft_error_bound(float(m), size) < ROUND_BUDGET


def test_additive_convolve_refuses_negative_counts(f7, f16):
    for field in (f7, f16):
        ones = RepFn(counts=np.ones(field.q, dtype=np.int64))
        signed = np.ones(field.q, dtype=np.int64)
        signed[1] = -1
        with pytest.raises(BadParam):
            additive_convolve(field, RepFn(counts=signed), ones)


def test_additive_count_refuses_negative_counts():
    # entry_bound is no bound for signed counts: this dot is 3 * 2^62, which
    # int64 wraps to -2^62, yet its bound min(2^62 * 3, 0 * 2^62) is 0
    with pytest.raises(BadParam):
        additive_count(RepFn(counts=np.array([1 << 62, 0])), RepFn(counts=np.array([3, -3])))


def stack_walsh_hadamard(a):
    """The butterfly int64 Walsh-Hadamard transform, one np.stack per level."""
    h = 1
    while h < a.size:
        pairs = a.reshape(-1, 2, h)
        lo, hi = pairs[:, 0], pairs[:, 1]
        a = np.stack((lo + hi, lo - hi), axis=1).reshape(-1)
        h *= 2
    return a


def stack_xor_convolve(u, v):
    """XOR convolution on the butterfly transform, the inverse on two 32-bit
    limbs: q * out = 2^32 * H + L, where L is a multiple of q because 2^32 * H is."""
    prod = stack_walsh_hadamard(u) * stack_walsh_hadamard(v)
    high = stack_walsh_hadamard(prod >> 32)
    low = stack_walsh_hadamard(prod & 0xFFFFFFFF)
    k = u.size.bit_length() - 1
    return (high << (32 - k)) + (low >> k)


@pytest.mark.parametrize("k", range(1, 15))
def test_walsh_hadamard_matches_the_butterfly_oracle(k):
    # k = 7 and 13 take mixed Hadamard factor sizes; signed entries up to
    # 2^62 / q take several limbs, the top one negative
    rng = np.random.default_rng(17 + k)
    q = 1 << k
    x = rng.integers(-(1 << 62) // q, (1 << 62) // q, q, dtype=np.int64)
    assert np.array_equal(_walsh_hadamard(x), stack_walsh_hadamard(x))
    u = rng.integers(0, 1 << 20, q, dtype=np.int64)
    v = rng.integers(0, (1 << 62) // (q * int(u.sum())) + 2, q, dtype=np.int64)
    assert int(u.sum()) * int(v.sum()) < 1 << 63
    assert np.array_equal(_xor_convolve(u, v), stack_xor_convolve(u, v))


def test_xor_convolve_of_quarter_sets_at_k20():
    # transformed products reach 2^36 > 2^(53 - 20), so the inverse takes two limbs
    rng = np.random.default_rng(18)
    u, v = ((rng.random(1 << 20) < 0.25).astype(np.int64) for _ in range(2))
    assert (_walsh_hadamard(u) * _walsh_hadamard(v)).max() >= 1 << 33
    assert np.array_equal(_xor_convolve(u, v), stack_xor_convolve(u, v))


@settings(max_examples=60, deadline=None, derandomize=True)
@given(st.integers(1, 12), st.integers(0, 62), st.integers(0, 1 << 32))
def test_walsh_hadamard_twice_is_q_times_the_input(k, bits, seed):
    q = 1 << k
    bits = min(bits, 62 - k)  # keeps q * x and every l1 norm inside int64
    x = np.random.default_rng(seed).integers(-(1 << bits), 1 << bits, q, dtype=np.int64)
    assert np.array_equal(_walsh_hadamard(_walsh_hadamard(x)), x * q)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(st.integers(2, 8), st.integers(1, 256), st.floats(0, 1), st.booleans(),
       st.integers(0, 1 << 32))
def test_xor_convolve_splits_a_mass_past_2_to_63(k, nnz, load, flip, seed):
    # u has nnz heavy entries, v is dense with entries in [c/2, c]: the mass
    # su sv reaches 2^63, so one operand is split into limbs, while every
    # entry stays below su c < 2^63; the butterfly oracle runs on Python ints
    rng = np.random.default_rng(seed)
    q = 1 << k
    nnz = min(nnz, q)
    c = 2 + int(load * ((1 << 62) // (q * nnz) - 2))
    v = rng.integers(c // 2, c + 1, q, dtype=np.int64)
    sv = int(v.sum())
    lo, hi = max(nnz, -(-(1 << 63) // sv)), ((1 << 63) - 1) // int(v.max())
    su = lo + int(rng.integers(0, hi - lo + 1))
    u = np.zeros(q, dtype=np.int64)
    u[rng.choice(q, nnz, replace=False)] = spread_mass(rng, nnz, su - nnz) + 1
    assert exact_sum(u) * sv >= 1 << 63
    u, v = (v, u) if flip else (u, v)
    assert _xor_convolve(u, v).tolist() == \
        stack_xor_convolve(u.astype(object), v.astype(object)).tolist()


def test_xor_convolve_refuses_q_above_2_to_26():
    # broadcast views take no memory: the refusal must come before any allocation
    with pytest.raises(IntegerOverflow, match="2\\^26"):
        _xor_convolve(*(np.broadcast_to(np.int64(1), 1 << 27) for _ in range(2)))


def padded_size(m):
    return 1 << (2 * m - 2).bit_length()


def packed(u, v, m):
    """The packed plan's lone product u * v over Z_m, or None."""
    out = _packed_convolve([(u, v)], m, padded_size(m))
    return None if out is None else out[0]


def packed_two(u1, v1, u2, v2, m):
    """The packed plan's products [u1 * v1, u2 * v2] over Z_m, or None."""
    return _packed_convolve([(u1, v1), (u2, v2)], m, padded_size(m))


def both_plans(u, v, m):
    """(packed plan or None, limb plan) of the cyclic convolution over Z_m."""
    return packed(u, v, m), _limb_convolve(u, v, m, padded_size(m))


@settings(max_examples=80, deadline=None, derandomize=True)
@given(st.integers(1, 700), st.integers(1, 4), st.floats(0, 1), st.floats(0, 1),
       st.integers(0, 1 << 32))
def test_packed_plan_matches_limb_plan_and_oracle(m, top, du, dv, seed):
    # indicator vectors (top = 1) and small counts, at every density
    rng = np.random.default_rng(seed)
    u, v = ((rng.random(m) < d) * rng.integers(1, top + 1, m) for d in (du, dv))
    packed, limbs = both_plans(u, v, m)
    assert packed is not None
    assert packed.dtype == np.int64
    assert packed.tolist() == limbs.tolist() == cyclic_oracle(u, v, m).tolist()


@settings(max_examples=80, deadline=None, derandomize=True)
@given(st.integers(1, 500), st.integers(1, 4), st.lists(st.floats(0, 1), min_size=4, max_size=4),
       st.integers(0, 1 << 32))
def test_paired_plan_matches_limb_plan_and_oracle(m, top, densities, seed):
    # two pairs of indicator vectors (top = 1) or small counts, at every
    # density; up to m = 500 with entries up to 4 the plan certifies them
    rng = np.random.default_rng(seed)
    u1, v1, u2, v2 = ((rng.random(m) < d) * rng.integers(1, top + 1, m) for d in densities)
    pair = packed_two(u1, v1, u2, v2, m)
    assert pair is not None
    for out, (u, v) in zip(pair, ((u1, v1), (u2, v2))):
        assert out.dtype == np.int64
        assert out.tolist() == _limb_convolve(u, v, m, padded_size(m)).tolist() \
            == cyclic_oracle(u, v, m).tolist()


def test_packed_plan_at_full_digit_loads():
    # A = B a multiplicative subgroup: u * u reaches su at every multiple of
    # the index, the most the low digit is sized for; u is v itself
    for q, indices in ((257, (1, 2, 16, 128)), (8191, (1, 2, 63, 4095))):
        field = make_field(q)
        for index in indices:
            sub = subset_from_codes(field, field.exp[::index])
            u = sub.membership[field.exp]
            out = packed(u, u, q - 1)
            expect = cyclic_oracle(u.astype(np.int64), u.astype(np.int64), q - 1)
            assert expect.max() == sub.size
            assert out.tolist() == expect.tolist()
            assert rep_product(field, sub, sub).counts[field.exp].tolist() == expect.tolist()


@pytest.mark.parametrize("q", [2, 3, 5, 257, 1021])
def test_packed_plan_on_empty_full_and_single_sets(q):
    field = make_field(q)
    m = q - 1
    sets = [empty_subset(field), full_subset(field), subset_from_codes(field, [1]),
            subset_from_codes(field, [q - 1]), subset_from_codes(field, [0])]
    for a in sets:
        for b in sets:
            u, v = a.membership[field.exp], b.membership[field.exp]
            packed, limbs = both_plans(u, v, m)
            expect = cyclic_oracle(u.astype(np.int64), v.astype(np.int64), m)
            assert packed.tolist() == limbs.tolist() == expect.tolist()


def count_transforms(monkeypatch):
    """Wrap np.fft.rfft and np.fft.irfft with call counters."""
    calls = {"rfft": 0, "irfft": 0}
    for name in calls:
        original = getattr(np.fft, name)

        def wrapper(*args, _name=name, _original=original, **kwargs):
            calls[_name] += 1
            return _original(*args, **kwargs)

        monkeypatch.setattr(np.fft, name, wrapper)
    return calls


@pytest.mark.parametrize("dtype", [bool, np.uint8])
def test_narrow_dtypes_take_the_int64_plan_and_result(monkeypatch, dtype):
    # more than 255 ones: a sum or norm taken in uint8 would wrap
    rng = np.random.default_rng(19)
    m = 1500
    calls = count_transforms(monkeypatch)
    for du, dv in ((0.5, 0.5), (0.9, 0.2), (1.0, 1.0)):
        wide = [(rng.random(m) < d).astype(np.int64) for d in (du, dv)]
        assert min(int(x.sum()) for x in wide) > 255
        runs = []
        for arrays in (wide, [x.astype(dtype) for x in wide]):
            calls.update(rfft=0, irfft=0)
            runs.append((_cyclic_convolve(*arrays, m).tolist(), dict(calls)))
        assert runs[0] == runs[1]
        assert runs[0][1] == {"rfft": 1, "irfft": 1}
        assert runs[0][0] == cyclic_oracle(*wide, m).tolist()


def test_rep_product_takes_one_transform_pair_when_certified(monkeypatch):
    field = make_field(8191)
    a, b = (realize(field, SetSpec("random", (1024,)), derive_seed(20, slot))
            for slot in range(2))
    calls = count_transforms(monkeypatch)
    out = rep_product(field, a, b).counts
    assert calls == {"rfft": 1, "irfft": 1}
    u, v = (x.membership[field.exp].astype(np.int64) for x in (a, b))
    assert out[field.exp].tolist() == cyclic_oracle(u, v, field.q - 1).tolist()


def test_rep_product_falls_back_to_the_limb_plan(monkeypatch):
    # the packed bound is 1.10 here: two transforms of one limb, one inverse
    field = make_field(65521)
    m = field.q - 1
    a, b = (realize(field, SetSpec("random", (16000,)), derive_seed(21, slot))
            for slot in range(2))
    u, v = (x.membership[field.exp] for x in (a, b))
    assert packed(u, v, m) is None
    calls = count_transforms(monkeypatch)
    out = rep_product(field, a, b)
    assert calls == {"rfft": 2, "irfft": 1}
    assert out.total() == a.size * b.size
    # the quadratic oracle at 500 entries: out[z] = sum of u[x] v[z - x]
    u, v = u.astype(np.int64), v.astype(np.int64)
    x = np.arange(m)
    for z in np.random.default_rng(22).integers(0, m, 500):
        assert out.counts[field.exp[z]] == int(np.dot(u, v[(z - x) % m]))


def paired_cases(m, rng):
    """Four-vector cases (u1, v1, u2, v2) over Z_m: random indicators at
    random densities, near-full and full indicators (digits 0, 1 and 2 at
    their bounds m, 2m and m), and small counts: dense ones only at small m,
    where the plan certifies them."""
    full = np.ones(m, dtype=bool)
    near = full.copy()
    near[rng.integers(0, m, 3)] = False
    yield [rng.random(m) < rng.random() for _ in range(4)]
    yield [near, full, full, near]
    yield [full] * 4
    yield [rng.integers(0, 4, m) * (rng.random(m) < 0.05) for _ in range(4)]
    if m < 100:
        yield [rng.integers(0, 4, m) for _ in range(4)]


@pytest.mark.parametrize("m", [6, 12, 4092, 4095, 8190])
def test_paired_plan_equals_two_cyclic_convolutions(m):
    rng = np.random.default_rng(m)
    for u1, v1, u2, v2 in paired_cases(m, rng):
        pair = packed_two(u1, v1, u2, v2, m)
        assert pair is not None
        assert all(r.dtype == np.int64 for r in pair)
        assert pair[0].tolist() == _cyclic_convolve(u1, v1, m).tolist()
        assert pair[1].tolist() == _cyclic_convolve(u2, v2, m).tolist()
    # the full case: u1*v1 = m = su1 mv1, and u1*v2 + u2*v1 = 2m, its bound,
    # within 8 of 2^s at m = 4092, 4095 and 8190
    full = np.ones(m, dtype=bool)
    low, high = packed_two(full, full, full, full, m)
    assert low.min() == low.max() == high.max() == m


def test_paired_plan_takes_three_transforms_for_two_products(monkeypatch):
    field = make_field(8191)
    a, b, c, d = (realize(field, SetSpec("random", (1024,)), derive_seed(23, slot))
                  for slot in range(4))
    calls = count_transforms(monkeypatch)
    paired = rep_products(field, [(a, b), (c, d)])
    assert calls == {"rfft": 2, "irfft": 1}
    for (x, y), r in zip([(a, b), (c, d)], paired):
        assert r.counts.tolist() == rep_product(field, x, y).counts.tolist()
        assert not r.counts.flags.writeable


def test_paired_plan_falls_back_on_the_digit_test(monkeypatch):
    # s = 22 and u2*v2 reaches 2^40, so na nb reaches 2^168 > 2^104: refused
    # before Percival's bound is taken
    m = 6
    u1 = v1 = np.array([1, 0, 0, 0, 0, 0])
    u2 = v2 = np.array([1 << 20, 0, 0, 0, 0, 0])
    bounds = []
    monkeypatch.setattr(ffb.repfn, "_rfft_error_bound",
                        lambda *args: bounds.append(args) or _rfft_error_bound(*args))
    assert packed_two(u1, v1, u2, v2, m) is None
    assert bounds == []


def test_lone_plan_certifies_a_zero_partner_of_wide_entries():
    # v = 0 and u near 2^20: s = 43, so 2s exceeds 52, yet w = u is exact and
    # na nb = (su mu)^2 < 2^104; the lone plan must not take the two-pair digit test
    m = 6
    u = np.array([(1 << 20) - 3, 1 << 20, 0, (1 << 20) - 1, 5, 1 << 19])
    v = np.zeros(m, dtype=np.int64)
    assert 2 * (exact_sum(u) * int(u.max())).bit_length() > 52
    out = packed(u, v, m)
    assert out is not None
    assert out.tolist() == _limb_convolve(u, v, m, padded_size(m)).tolist() == [0] * m
    out = packed(v, u, m)
    assert out is not None and out.tolist() == [0] * m


def test_paired_plan_certifies_a_zero_second_pair():
    # entries near 2^20 in the first pair put s near 2^43; the zero second
    # pair adds nothing to na or nb, so the two certify together
    m = 6
    u1 = np.array([(1 << 20) - 1, 0, 1 << 20, 7, 0, (1 << 20) - 5])
    v1 = np.array([1 << 20, (1 << 20) - 2, 0, 0, 3, 1 << 18])
    zero = np.zeros(m, dtype=np.int64)
    pair = packed_two(u1, v1, zero, zero, m)
    assert pair is not None
    assert pair[0].tolist() == _cyclic_convolve(u1, v1, m).tolist() \
        == cyclic_oracle(u1, v1, m).tolist()
    assert pair[1].tolist() == [0] * m


def test_paired_plan_falls_back_on_percivals_bound(monkeypatch):
    # the square plan's bound is 1.10 here; each product takes the limb plan
    field = make_field(65521)
    a, b, c, d = (realize(field, SetSpec("random", (16000,)), derive_seed(24, slot))
                  for slot in range(4))
    vectors = [x.membership[field.exp] for x in (a, b, c, d)]
    assert packed_two(*vectors, field.q - 1) is None
    calls = count_transforms(monkeypatch)
    paired = rep_products(field, [(a, b), (c, d)])
    assert calls == {"rfft": 4, "irfft": 2}
    assert [r.total() for r in paired] == [a.size * b.size, c.size * d.size]


def test_rep_products_sends_a_lone_pair_to_rep_product(monkeypatch, f13):
    sets = [seeded_subset(f13, derive_seed(25, i), lo=0) for i in range(6)]
    pairs = [(sets[0], sets[1]), (sets[2], sets[3]), (sets[4], sets[5])]
    lone = []
    monkeypatch.setattr(ffb.repfn, "rep_product",
                        lambda field, x, y: lone.append(x) or rep_product(field, x, y))
    assert rep_products(f13, []) == []
    assert [r.counts.tolist() for r in rep_products(f13, pairs)] == \
        [brute_product(f13, x, y).tolist() for x, y in pairs]
    assert lone == [sets[4]]
