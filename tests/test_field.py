"""Field construction, table integrity, and arithmetic consistency."""

import functools
import math
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import ffb.field
from ffb.errors import BadParam, DivideByZero, NotPrime, Overflow, Reducible
from ffb.field import (
    _decode,
    _encode,
    _is_prime,
    _mod_p,
    _mul_matrices,
    _poly_is_irreducible,
    _poly_mod,
    _prime_factors,
    _raw_pow,
    add_codes,
    field_add,
    field_inv,
    field_mul,
    field_neg,
    field_sub,
    make_field,
    mul_codes,
    neg_codes,
)
from ffb.setsgen import stream_value

# q <= 64, mixed primes and extensions, for the exhaustive homomorphism sweep
SMALL_SHAPES = [
    (2, 1), (3, 1), (5, 1), (7, 1), (11, 1), (13, 1), (31, 1), (61, 1),
    (2, 2), (2, 3), (2, 4), (2, 5), (2, 6), (3, 2), (3, 3), (5, 2), (7, 2),
]


def test_prime_field_tables():
    f = make_field(5)
    assert (f.p, f.k, f.q) == (5, 1, 5)
    assert f.generator == 2
    assert f.dlog.tolist() == [-1, 0, 1, 3, 2]
    assert f.exp.tolist() == [1, 2, 4, 3]


def test_extension_field_least_modulus():
    f = make_field(2, 4)
    assert f.q == 16
    # x^4 + x + 1, coefficients constant-first
    assert f.modulus == (1, 1, 0, 0, 1)
    # x * x^3 = x^4 = x + 1
    assert field_mul(f, 2, 8) == 3


def test_f9_modulus_and_generator():
    f = make_field(3, 2)
    assert f.modulus == (1, 0, 1)
    assert f.generator == 4


def test_composite_characteristic_rejected():
    with pytest.raises(NotPrime):
        make_field(4)
    with pytest.raises(NotPrime):
        make_field(1)


def test_reducible_modulus_rejected():
    # x^4 + 1 = (x + 1)^4 over F_2
    with pytest.raises(Reducible):
        make_field(2, 4, modulus=[1, 0, 0, 0, 1])


def test_modulus_validation():
    with pytest.raises(BadParam):
        make_field(2, 4, modulus=[1, 1, 0, 1])  # wrong length
    with pytest.raises(BadParam):
        make_field(2, 4, modulus=[1, 1, 0, 0, 0])  # not monic
    with pytest.raises(BadParam):
        make_field(3, 2, modulus=[3, 0, 1])  # coefficient out of range


def test_bad_shape_parameters():
    with pytest.raises(BadParam):
        make_field(5, 0)
    with pytest.raises(BadParam):
        make_field(5.0)  # type: ignore[arg-type]


def test_q_cap_default_and_overrides():
    with pytest.raises(Overflow):
        make_field(2, 21)  # 2^21 over the default cap
    with pytest.raises(Overflow):
        make_field(17, max_q=16)
    assert make_field(17, max_q=17).q == 17


def test_oversize_input_is_refused_before_it_is_formed():
    # from bit lengths, before p^k; primality by Miller-Rabin, not trial division
    start = time.perf_counter()
    with pytest.raises(Overflow, match=r"^q = 13\^5000 exceeds the cap 1048576$"):
        make_field(13, 5000)
    with pytest.raises(Overflow, match=r"^q = 2\^1000000000000 exceeds the cap 1048576$"):
        make_field(2, 10 ** 12)
    for p in (100000000000031, 99999999999999999989):
        with pytest.raises(Overflow, match=f"^q = {p} exceeds the cap 1048576$"):
            make_field(p)
    with pytest.raises(NotPrime, match="^p = 998244359987710471 is not prime$"):
        make_field(1000000007 * 998244353)
    assert time.perf_counter() - start < 1
    # a q Python can print is printed in full, as before
    with pytest.raises(Overflow, match=f"^q = {13 ** 3000} exceeds the cap 1048576$"):
        make_field(13, 3000)
    with pytest.raises(Overflow, match="^q = 137858491849 exceeds the cap 16$"):
        make_field(13, 10, max_q=16)


def test_miller_rabin_matches_trial_division():
    assert [n for n in range(-2, 20000) if _is_prime(n)] == [
        n for n in range(2, 20000) if _prime_factors(n) == [n]]
    # strong pseudoprimes to the primes up to 7, 23 and 37; Mersenne primes
    for n in (3215031751, 3825123056546413051, 318665857834031151167461):
        assert not _is_prime(n)
    for e in (31, 61, 89):
        assert _is_prime(2 ** e - 1)


@pytest.mark.parametrize("p, k", [(2, 1), (3, 1), (2, 2), (3, 2), (2, 4), (8191, 1)])
def test_dlog_is_built_from_exp_on_first_read(p, k):
    f = make_field(p, k)
    assert "dlog" not in vars(f)
    eager = np.full(f.q, -1, dtype=np.int64)
    eager[f.exp] = np.arange(f.q - 1)
    assert f.dlog.dtype == np.int64 and f.dlog.tobytes() == eager.tobytes()
    assert f.dlog is f.dlog and not f.dlog.flags.writeable


def test_q_cap_reads_no_environment(monkeypatch):
    # the cap is max_q (--max-q) or the default, never process state
    monkeypatch.setenv("FFB_MAX_Q", "16")
    assert make_field(17).q == 17


def test_dlog_exp_round_trip():
    for p, k in SMALL_SHAPES:
        f = make_field(p, k)
        assert f.dlog[0] == -1
        for t in range(f.q - 1):
            assert f.dlog[f.exp[t]] == t
        assert sorted(f.exp.tolist()) == list(range(1, f.q))


def test_dlog_is_homomorphism_exhaustive():
    # dlog(x*y) = dlog(x) + dlog(y) mod q-1, all nonzero pairs, q <= 64
    for p, k in SMALL_SHAPES:
        f = make_field(p, k)
        m = f.q - 1
        for x in range(1, f.q):
            for y in range(1, f.q):
                expect = f.exp[(f.dlog[x] + f.dlog[y]) % m]
                assert field_mul(f, x, y) == expect, (p, k, x, y)


@pytest.mark.parametrize("shape", [(1009, 1), (3, 6)])
def test_dlog_is_homomorphism_sampled(shape):
    # 1000 seeded nonzero pairs on fields too large to sweep
    f = make_field(*shape)
    m = f.q - 1
    for i in range(1000):
        x = 1 + stream_value(7, 2 * i) % m
        y = 1 + stream_value(7, 2 * i + 1) % m
        assert field_mul(f, x, y) == f.exp[(f.dlog[x] + f.dlog[y]) % m]


def power(f, x, e):
    """x^e by square-and-multiply on field_mul, independent of the tables."""
    out = 1
    while e:
        if e & 1:
            out = field_mul(f, out, x)
        x = field_mul(f, x, x)
        e >>= 1
    return out


def test_blocked_exp_table_matches_repeated_multiplication():
    for p, k in [(2, 4), (2, 8), (3, 2), (3, 5), (5, 3), (7, 2)]:
        f = make_field(p, k)
        x = 1
        for t in range(f.q - 1):
            assert f.exp[t] == x, (p, k, t)
            x = field_mul(f, x, f.generator)


def test_blocked_exp_table_at_the_cap():
    f = make_field(2, 20)
    m = f.q - 1
    assert np.array_equal(f.dlog[f.exp], np.arange(m))
    assert f.dlog[0] == -1
    for i in range(200):
        t = stream_value(8, i) % m
        assert f.exp[t] == power(f, f.generator, t)
        x = 1 + stream_value(9, 2 * i) % m
        y = 1 + stream_value(9, 2 * i + 1) % m
        assert field_mul(f, x, y) == f.exp[(f.dlog[x] + f.dlog[y]) % m]


def test_prime_exp_table_at_the_cap():
    # k = 1 tables come from int64 doubling, checked against builtin pow
    f = make_field(1048573)
    m = f.q - 1
    assert np.array_equal(f.dlog[f.exp], np.arange(m))
    assert f.dlog[0] == -1
    for i in range(200):
        t = stream_value(10, i) % m
        assert f.exp[t] == pow(f.generator, t, f.p)


def test_prime_exp_table_matches_iterated_product():
    f = make_field(65521)
    want = np.empty(f.q - 1, dtype=np.int64)
    x = 1
    for t in range(f.q - 1):
        want[t] = x
        x = x * f.generator % f.p
    assert f.exp.tobytes() == want.tobytes()


def test_exp_table_refuses_inexact_float_steps():
    # (p - 1)^2 >= 2^53: a block step could round in float64
    with pytest.raises(Overflow):
        make_field(94906297, max_q=1 << 30)


def test_construction_is_deterministic():
    for p, k in [(13, 1), (2, 4), (3, 2)]:
        a = make_field(p, k)
        b = make_field(p, k)
        assert a.modulus == b.modulus
        assert a.generator == b.generator
        assert a.dlog.tobytes() == b.dlog.tobytes()
        assert a.exp.tobytes() == b.exp.tobytes()


def test_tables_are_read_only(f7):
    with pytest.raises(ValueError):
        f7.dlog[1] = 0
    with pytest.raises(ValueError):
        f7.exp[0] = 2


def test_scalar_arithmetic(f16, f13):
    for f in (f16, f13):
        for x in range(f.q):
            assert field_add(f, x, field_neg(f, x)) == 0
            assert field_sub(f, x, x) == 0
            if x:
                assert field_mul(f, x, field_inv(f, x)) == 1
        with pytest.raises(DivideByZero):
            field_inv(f, 0)


def test_vectorized_helpers_match_scalar(f9, f7, f16):
    for f in (f9, f7, f16):
        codes = np.arange(f.q, dtype=np.int64)
        for x in range(f.q):
            assert add_codes(f, x, codes).tolist() == [field_add(f, x, c) for c in range(f.q)]
            assert mul_codes(f, x, codes).tolist() == [field_mul(f, x, c) for c in range(f.q)]
        assert neg_codes(f, codes).tolist() == [field_neg(f, c) for c in range(f.q)]


# ----------------------------------------------------------------------
# oracles: the construction by trial division and list arithmetic
# ----------------------------------------------------------------------

def oracle_is_irreducible(m, p):
    """Trial division by every monic polynomial of degree <= deg(m)/2."""
    k = len(m) - 1
    for d in range(1, k // 2 + 1):
        for lower in range(p ** d):
            if not any(_poly_mod(m, _decode(lower, p, d) + [1], p)):
                return False
    return True


def oracle_least_irreducible(p, k):
    for lower in range(p ** k):
        m = _decode(lower, p, k) + [1]
        if oracle_is_irreducible(m, p):
            return tuple(m)
    raise AssertionError("no irreducible polynomial found")


def oracle_generator(p, k, modulus):
    """Least code of order q - 1, by square-and-multiply on lists per candidate."""
    group = p ** k - 1
    primes = _prime_factors(group)
    for cand in range(1, group + 1):
        if all(_raw_pow(cand, group // ell, p, k, modulus) != 1 for ell in primes):
            return cand
    raise AssertionError("cyclic group without generator")


def oracle_tables(f, gen):
    """(exp, dlog) by stepping out the powers of gen with field_mul."""
    exp = np.empty(f.q - 1, dtype=np.int64)
    x = 1
    for t in range(f.q - 1):
        exp[t] = x
        x = field_mul(f, x, gen)
    dlog = np.full(f.q, -1, dtype=np.int64)
    dlog[exp] = np.arange(f.q - 1)
    return exp, dlog


def oracle_shapes():
    ext = [(p, k) for p in range(2, 65) if _is_prime(p)
           for k in range(2, 13) if p ** k <= 4096]
    return ext + [(p, 1) for p in range(2, 2001) if _is_prime(p)]


def test_construction_matches_trial_division_oracle():
    shapes = oracle_shapes()
    assert len(shapes) == 303 + 40
    for p, k in shapes:
        f = make_field(p, k)
        mod = oracle_least_irreducible(p, k) if k > 1 else (0, 1)
        assert f.modulus == mod, (p, k)
        gen = oracle_generator(p, k, mod)
        assert f.generator == gen, (p, k)
        exp, dlog = oracle_tables(f, gen)
        assert f.exp.tobytes() == exp.tobytes(), (p, k)
        assert f.dlog.tobytes() == dlog.tobytes(), (p, k)


@pytest.mark.parametrize("p,k", [(2, 2), (2, 3), (2, 4), (2, 5), (2, 6), (2, 7), (2, 8),
                                 (3, 2), (3, 3), (3, 4), (5, 2), (5, 3), (7, 2), (13, 2)])
def test_irreducibility_matches_trial_division_on_every_monic(p, k):
    for lower in range(p ** k):
        m = _decode(lower, p, k) + [1]
        assert _poly_is_irreducible(m, p) == oracle_is_irreducible(m, p), (p, k, m)


def test_supplied_moduli_match_the_oracle():
    # every irreducible supplied modulus builds the field the oracle describes
    for p, k in [(2, 4), (2, 6), (3, 3), (5, 2)]:
        for lower in range(p ** k):
            m = _decode(lower, p, k) + [1]
            if not oracle_is_irreducible(m, p):
                with pytest.raises(Reducible):
                    make_field(p, k, modulus=m)
                continue
            f = make_field(p, k, modulus=m)
            assert f.modulus == tuple(m)
            gen = oracle_generator(p, k, tuple(m))
            assert f.generator == gen
            assert f.exp.tobytes() == oracle_tables(f, gen)[0].tobytes()


@pytest.mark.parametrize("shape,modulus,generator", [
    ((2, 20), (1, 0, 0, 1) + (0,) * 16 + (1,), 2),
    ((3, 12), (2, 0, 1) + (0,) * 9 + (1,), 14),
    ((5, 8), (2,) + (0,) * 7 + (1,), 6),
    ((7, 7), (1, 6) + (0,) * 5 + (1,), 14),
    ((1021, 2), (2, 0, 1), 1035),
    ((1048573, 1), (0, 1), 2),
])
def test_modulus_and_generator_at_the_cap(shape, modulus, generator):
    f = make_field(*shape)
    assert (f.modulus, f.generator) == (modulus, generator)
    m = f.q - 1
    assert np.array_equal(f.dlog[f.exp], np.arange(m))
    for i in range(20):
        t = stream_value(10, i) % m
        assert f.exp[t] == power(f, f.generator, t)


def test_reducible_modulus_rejected_at_large_p():
    # x^2 over F_1021
    with pytest.raises(Reducible):
        make_field(1021, 2, modulus=[0, 0, 1])


@functools.cache
def _field(p, k):
    return make_field(p, k)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(st.sampled_from([(2, 1), (13, 1), (2, 4), (3, 3), (5, 2), (2, 12), (7, 3),
                        (1021, 2), (3, 7)]),
       st.integers(0, 1 << 40), st.integers(0, 1 << 40))
def test_mul_matrix_applies_field_mul(shape, h, a):
    f = _field(*shape)
    p, k = shape
    h, a = h % f.q, a % f.q
    matrix = _mul_matrices(np.array([h]), p, k, f.modulus)[0]
    digits = np.array(_decode(a, p, k), dtype=np.float64)
    product = _mod_p(digits @ matrix, p)
    assert _encode([int(d) for d in product], p) == field_mul(f, h, a)


@pytest.mark.parametrize("shape", [(2, 20), (3, 12), (1021, 2)])
def test_construction_does_bounded_scalar_work(shape, monkeypatch):
    # Ben-Or costs O(k log p) products and k/2 gcds per candidate modulus
    # (on packed ints when p = 2); trial division and per-candidate
    # generator loops cost thousands
    calls = {"_poly_mulmod": 0, "_poly_mod": 0, "_gf2_mod": 0}
    for name in calls:
        original = getattr(ffb.field, name)

        def counted(*args, _name=name, _original=original):
            calls[_name] += 1
            return _original(*args)

        monkeypatch.setattr(ffb.field, name, counted)
    p, k = shape
    make_field(p, k)
    assert sum(calls.values()) <= 4 * k * math.log2(p ** k), calls
