"""Sumsets, productsets, the inverse-shift count, and the determinant count.

Sumsets and productsets are Instance.subset("x+y") and Instance.subset("x*y");
the determinant count is Instance.bilinear("a", "d", "-b", "c", lam).
"""

import numpy as np
import pytest

from ffb.errors import InvariantViolation, NotPrimeField
from ffb.field import add_codes, field_inv, make_field, mul_codes
from ffb.instance import Instance
from ffb.repfn import empty_subset, full_subset, subset_from_codes
from ffb.selfcheck import brute_histogram, grid_tuple, op_tables
from ffb.setsgen import SetSpec, derive_seed, realize, stream_value
from ffb.sumprod import garaev_inequality_report, garaev_solution_count


def xy(field, x, y):
    """The instance with sets x and y, for its subsets "x+y" and "x*y"."""
    return Instance(field, {"x": x, "y": y})


def garaev(field, x, y):
    inst = xy(field, x, y)
    return garaev_solution_count(field, x, y, inst.subset("x+y"), inst.subset("x*y"))


def inequality(field, x, y):
    inst = xy(field, x, y)
    return garaev_inequality_report(field, x, y, inst.subset("x+y"), inst.subset("x*y"))


def seeded_pair(field, seed):
    out = []
    for slot in range(2):
        s = derive_seed(seed, slot)
        size = 1 + stream_value(s, 0) % field.q
        out.append(realize(field, SetSpec("random", (size,)), derive_seed(s, 1)))
    return out


def test_sumset_productset_known_values(f5, f7):
    zero = subset_from_codes(f5, [0])
    assert xy(f5, zero, zero).subset("x+y").codes().tolist() == [0]
    assert xy(f5, zero, zero).subset("x*y").codes().tolist() == [0]

    x = subset_from_codes(f5, [1, 2])
    y = subset_from_codes(f5, [1])
    assert xy(f5, x, y).subset("x+y").codes().tolist() == [2, 3]
    assert xy(f5, x, y).subset("x*y").codes().tolist() == [1, 2]

    star = subset_from_codes(f7, range(1, 7))
    assert xy(f7, star, star).subset("x*y").codes().tolist() == list(range(1, 7))


def test_an_unknown_set_name_is_a_key_error(f5):
    one = subset_from_codes(f5, [1])
    for name in ("zz", "-zz", "x+zz"):
        with pytest.raises(KeyError, match="zz"):
            xy(f5, one, one).subset(name)


def test_set_sizes_bounded(f11):
    for idx in range(20):
        x, y = seeded_pair(f11, derive_seed(97, idx))
        cap = min(f11.q, x.size * y.size)
        assert xy(f11, x, y).subset("x+y").size <= cap
        assert xy(f11, x, y).subset("x*y").size <= cap


def test_solution_count_tiny_cases(f5):
    one = subset_from_codes(f5, [1])
    assert garaev(f5, one, one) == (1, 1)

    x = subset_from_codes(f5, [1, 2])
    y = subset_from_codes(f5, [1])
    count, lower = garaev(f5, x, y)
    assert (count, lower) == (5, 4)


def test_solution_count_meets_lower_bound_seeded(f11):
    for idx in range(20):
        x, y = seeded_pair(f11, derive_seed(101, idx))
        count, lower = garaev(f11, x, y)
        assert count >= lower
        assert lower == (x.size - (0 in x)) * x.size * y.size


def test_zero_in_x_only_shrinks_the_lower_bound(f7):
    with_zero = subset_from_codes(f7, [0, 1, 3])
    y = subset_from_codes(f7, [2, 5])
    count, lower = garaev(f7, with_zero, y)
    assert lower == 2 * 3 * 2
    assert count >= lower


def test_inequality_report_values(f5, f13):
    one = subset_from_codes(f5, [1])
    # numerator 1, denominator min(5, 1/5)
    assert inequality(f5, one, one) == pytest.approx(5.0)

    star = subset_from_codes(f13, range(1, 13))
    assert inequality(f13, star, star) == pytest.approx(1.0)


def test_inequality_report_interval_example():
    f101 = make_field(101)
    x = subset_from_codes(f101, range(1, 11))
    assert xy(f101, x, x).subset("x+y").size == 19
    assert xy(f101, x, x).subset("x*y").size == 42
    expected = 19 * 42 / min(101 * 10, (10 * 10) ** 2 / 101)
    assert inequality(f101, x, x) == pytest.approx(expected)


def test_inequality_report_rejects_extensions(f9):
    s = subset_from_codes(f9, [1, 2])
    with pytest.raises(NotPrimeField):
        inequality(f9, s, s)


def test_determinant_count_full_field(f5):
    inst = Instance(f5, {"f": full_subset(f5), "e": empty_subset(f5)})
    assert inst.bilinear("f", "f", "-f", "f", 1) == 120
    assert inst.bilinear("f", "f", "-f", "f", 0) == 145
    assert inst.bilinear("e", "f", "-f", "f", 1) == 0


@pytest.mark.parametrize("shape", [(3, 1), (5, 1), (7, 1)])
def test_determinant_count_matches_brute(shape):
    field = make_field(*shape)
    tables = op_tables(field)
    neg = tables[2]
    for idx in range(50):
        sets = grid_tuple(field, idx, 4, base_seed=103)
        a, b, c, d = (s.codes() for s in sets)
        brute = brute_histogram(tables, [(a, d), (neg[b], c)])
        inst = Instance(field, dict(zip("abcd", sets)))
        for lam in range(field.q):
            assert inst.bilinear("a", "d", "-b", "c", lam) == int(brute[lam])


def garaev_triple_loop(field, x, y):
    """The direct count, kept as the oracle: for each x1 != 0 and x2 in X,
    the v in V = X * Y with v * x1^(-1) + x2 in U = X + Y."""
    u_set = xy(field, x, y).subset("x+y")
    vs = xy(field, x, y).subset("x*y").codes()
    count = 0
    for x1 in x.codes():
        if x1 == 0:
            continue
        scaled = mul_codes(field, field_inv(field, int(x1)), vs)
        for x2 in x.codes():
            count += int(u_set.membership[add_codes(field, int(x2), scaled)].sum())
    return count


def test_solution_count_matches_triple_loop(f7, f9, f11, f16):
    for field in (f7, f9, f11, f16):
        for idx in range(10):
            x, y = seeded_pair(field, derive_seed(107, field.q, idx))
            mask = x.membership.copy()
            mask[0] = idx % 2 == 0  # X with 0 on even idx, without on odd
            if not mask.any():
                mask[1] = True
            x = subset_from_codes(field, np.nonzero(mask)[0])
            count, lower = garaev(field, x, y)
            assert count == garaev_triple_loop(field, x, y)
            assert lower == x.star_size() * x.size * y.size


def test_solution_count_below_lower_bound_raises(f5):
    # an empty U stands in for a broken sumset
    full = full_subset(f5)
    with pytest.raises(InvariantViolation):
        garaev_solution_count(f5, full, full, empty_subset(f5), xy(f5, full, full).subset("x*y"))
