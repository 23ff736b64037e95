"""Character evaluation and sum tables against the char_eval double sum."""

import cmath

import numpy as np
import pytest

from ffb.bounds import compute_V, compute_W
from ffb.characters import char_eval, repfn_char_sums, set_char_sums
from ffb.errors import BadExponent
from ffb.field import field_mul, field_sub
from ffb.instance import Instance
from ffb.repfn import RepFn, full_subset, rep_sum, shift_repfn, subset_from_codes
from ffb.setsgen import SetSpec, derive_seed, realize, stream_value

TOL = 1e-9


def table_tol(field):
    return TOL * (field.q - 1)


def assert_half_table(field, values, direct):
    """values holds direct(j) for j <= M/2, M = q - 1, and direct(M - j) is
    conj(values[j]): the half that W, V and the pair kernel read."""
    m = field.q - 1
    assert len(values) == m // 2 + 1
    for j, value in enumerate(values):
        assert abs(value - direct(j)) < table_tol(field)
        if j > 0:
            assert abs(direct(m - j) - np.conj(value)) < table_tol(field)


def test_char_eval_at_zero(f5):
    # every character, the trivial one included, is 0 at zero, as in the tables
    assert char_eval(f5, 0, 0) == 0
    assert char_eval(f5, 3, 0) == 0


def test_char_eval_known_value(f5):
    # dlog(4) = 2 with generator 2, so index 2 gives e(2*pi*i * 4/4) = 1
    assert char_eval(f5, 2, 4) == pytest.approx(1)
    assert char_eval(f5, 1, 2) == pytest.approx(cmath.exp(2j * cmath.pi / 4))


def test_char_eval_rejects_bad_arguments(f5):
    with pytest.raises(BadExponent):
        char_eval(f5, 4, 1)
    with pytest.raises(BadExponent):
        char_eval(f5, -1, 1)


def test_char_eval_is_multiplicative(f13, f16):
    # 1000 seeded (j, x, y) triples on a prime field and an extension
    for field in (f13, f16):
        m = field.q - 1
        for i in range(1000):
            j = stream_value(11, 3 * i) % m
            x = 1 + stream_value(11, 3 * i + 1) % m
            y = 1 + stream_value(11, 3 * i + 2) % m
            lhs = char_eval(field, j, field_mul(field, x, y))
            rhs = char_eval(field, j, x) * char_eval(field, j, y)
            assert abs(lhs - rhs) < TOL


def test_orthogonality_relations(f9):
    m = f9.q - 1
    for x in range(1, f9.q):
        col = sum(char_eval(f9, j, x) for j in range(m))
        assert abs(col - (m if x == 1 else 0)) < table_tol(f9)
    for j in range(m):
        row = sum(char_eval(f9, j, x) for x in range(1, f9.q))
        assert abs(row - (m if j == 0 else 0)) < table_tol(f9)


def test_set_char_sums_full_group(f7):
    table = set_char_sums(f7, full_subset(f7))
    assert table[0] == pytest.approx(6)
    assert np.abs(table[1:]).max() < table_tol(f7)


def test_set_char_sums_singleton_one(f7):
    table = set_char_sums(f7, subset_from_codes(f7, [1]))
    assert np.allclose(table, 1.0, atol=TOL)


def test_set_char_sums_matches_char_eval_loop(f7):
    squares = subset_from_codes(f7, [1, 2, 4])
    table = set_char_sums(f7, squares)
    assert_half_table(f7, table, lambda j: sum(char_eval(f7, j, x) for x in (1, 2, 4)))


def test_set_char_sums_modulus_bound_and_conjugacy(f11):
    for idx in range(10):
        size = 1 + stream_value(13, idx) % f11.q
        a = realize(f11, SetSpec("random", (size,)), derive_seed(13, idx))
        table = set_char_sums(f11, a)
        nonzero = a.size - (0 in a)
        assert (np.abs(table) <= nonzero + TOL).all()
        # real weights make the sum at M - j the conjugate of entry j
        assert_half_table(f11, table, lambda j: sum(
            char_eval(f11, j, x) for x in a.codes()))


def test_repfn_char_sums_matches_loop(f7):
    counts = np.array([stream_value(17, t) % 5 for t in range(7)], dtype=np.int64)
    r = RepFn(counts=counts)
    for shift in (0, 3):
        table = repfn_char_sums(f7, shift_repfn(f7, r, shift))
        assert_half_table(f7, table, lambda j: sum(
            counts[x] * char_eval(f7, j, field_sub(f7, x, shift))
            for x in range(7)))


def test_shifted_product_full_group_vanishes(f7):
    table = repfn_char_sums(f7, Instance(f7, {"f": full_subset(f7)}).shifted("f", "f", 0))
    assert np.abs(table[1:]).max() < table_tol(f7)


def test_shifted_product_singletons_unimodular(f7):
    a = subset_from_codes(f7, [2])
    b = subset_from_codes(f7, [3])
    # 2*3 - 1 = 5 != 0
    table = repfn_char_sums(f7, Instance(f7, {"a": a, "b": b}).shifted("a", "b", 1))
    assert np.allclose(np.abs(table), 1.0, atol=TOL)


def test_shifted_product_matches_double_loop(f7, f9, f16):
    # every table builder against the char_eval double sum, shifts 0 and lam
    for field in (f7, f9, f16):
        q = field.q
        a = realize(field, SetSpec("random", (q // 2,)), derive_seed(29, q, 0))
        b = realize(field, SetSpec("random", (q // 3,)), derive_seed(29, q, 1))
        counts = np.array([stream_value(31, x) % 4 for x in range(q)], dtype=np.int64)
        lam = 1 + stream_value(37, q) % (q - 1)

        def chi(j, x):
            return char_eval(field, j, x)

        cases = [
            (set_char_sums(field, a), lambda j: sum(chi(j, x) for x in a.codes())),
            (repfn_char_sums(field, RepFn(counts=counts)),
             lambda j: sum(counts[x] * chi(j, x) for x in range(q))),
            (repfn_char_sums(field, shift_repfn(field, RepFn(counts=counts), lam)),
             lambda j: sum(counts[x] * chi(j, field_sub(field, x, lam)) for x in range(q))),
            (repfn_char_sums(field, Instance(field, {"a": a, "b": b}).shifted("a", "b", lam)),
             lambda j: sum(chi(j, field_sub(field, field_mul(field, x, y), lam))
                           for x in a.codes() for y in b.codes())),
        ]
        for table, direct in cases:
            assert_half_table(field, table, direct)


def test_tables_are_exactly_hermitian_and_extremes_sit_in_the_first_half(f7, f11, f16):
    # a table is one real FFT, j <= M/2: the sum at M - j is conj(entry j),
    # so |T(j)| = |T(M - j)| and the first maximum is at some j <= M/2;
    # the self-conjugate entries j = 0 and j = M/2 are exactly real
    for field in (f7, f11, f16):
        m = field.q - 1
        for idx in range(10):
            a, b = (realize(field, SetSpec("random", (1 + stream_value(41, 2 * idx + s) % field.q,)),
                            derive_seed(41, field.q, idx, s)) for s in range(2))
            lam = stream_value(43, idx) % field.q
            s_w = Instance(field, {"a": a, "b": b}).shifted("a", "b", lam)
            t_w = repfn_char_sums(field, s_w)
            r_v = rep_sum(field, a, b)
            t_v = repfn_char_sums(field, r_v)
            for table, weights in ((set_char_sums(field, a), a.membership),
                                   (t_w, s_w.counts), (t_v, r_v.counts)):
                assert table[0].imag == 0
                if m % 2 == 0:
                    assert table[m // 2].imag == 0
                assert_half_table(field, table, lambda j: sum(
                    weights[x] * char_eval(field, j, x) for x in range(field.q)))
            assert compute_W(field, t_w).argmax_j <= m / 2
            assert compute_V(field, t_v).argmax_j <= m / 2


@pytest.mark.parametrize("q", [2, 3, 7, 16])
def test_tables_hold_the_half_spectrum(q, request):
    # M = q - 1 is odd at q = 2 and 16, even at q = 3 and 7
    field = request.getfixturevalue(f"f{q}")
    want = (q - 1) // 2 + 1
    assert len(set_char_sums(field, full_subset(field))) == want
    assert len(repfn_char_sums(field, RepFn(counts=np.ones(q, dtype=np.int64)))) == want


def test_instance_keeps_no_character_table(f13):
    # a table, a complex array, is built where it is read: W, V and the
    # pair kernels are kept, the tables they were built on are not
    sets = {x: realize(f13, SetSpec("random", (6,)), derive_seed(47, slot))
            for slot, x in enumerate("abcd")}
    inst = Instance(f13, sets)
    inst.bilinear_charform(*"abcd", 3)
    inst.additive_charform(*"abcd")
    inst.w("a", "b", 3)
    inst.v("a", "b")
    inst.cauchy(*"abcd", 4)
    held = [*inst._memo.values(), *(value for _, value in inst._at_lam.values())]
    assert len(held) > 5
    assert not [value for value in held
                if isinstance(value, np.ndarray) and np.iscomplexobj(value)]
