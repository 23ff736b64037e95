"""Finite field construction and arithmetic on integer-encoded elements.

Every element of F_q (q = p^k) is a plain int in [0, q).  For k = 1 the
code is the residue itself.  For k > 1 the element sum(c_i * x^i) in the
polynomial basis is packed as code = sum(c_i * p^i), so code digits in
base p are the polynomial coordinates (constant term first).

Moduli are coefficient tuples in ascending order, length k + 1, monic.
When no modulus is supplied, the constructor picks the monic irreducible
polynomial of degree k whose non-leading coefficients form the smallest
base-p integer (equivalently, smallest by lexicographic comparison of the
descending coefficient tuple).

Arithmetic here is honest polynomial arithmetic.  The discrete-log tables
built at construction time are validated against it by the test suite and
are the basis of the vectorized helpers at the bottom of the module.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass

import numpy as np

from .errors import BadParam, DivideByZero, NotPrime, Overflow, Reducible

# Default cap on q. Keeps every table and transform at desk scale.
DESK_CAP = 1 << 20
MAX_Q_ENV = "FFB_MAX_Q"


@dataclass(frozen=True, eq=False)
class FieldSpec:
    """Immutable description of F_q with its dlog/exp tables.

    dlog has length q with dlog[0] = -1 (zero has no discrete log) and
    dlog[generator^t mod modulus] = t.  exp has length q - 1 with
    exp[t] = generator^t, so exp is a permutation of the nonzero codes.
    """

    p: int
    k: int
    q: int
    modulus: tuple[int, ...]
    generator: int
    dlog: np.ndarray
    exp: np.ndarray


# ----------------------------------------------------------------------
# integer and polynomial helpers
# ----------------------------------------------------------------------

def _is_prime(n: int) -> bool:
    if n < 2:
        return False
    if n < 4:
        return True
    if n % 2 == 0:
        return False
    d = 3
    while d * d <= n:
        if n % d == 0:
            return False
        d += 2
    return True


def _prime_factors(n: int) -> list[int]:
    """Distinct prime factors of n, ascending, by trial division."""
    out = []
    d = 2
    while d * d <= n:
        if n % d == 0:
            out.append(d)
            while n % d == 0:
                n //= d
        d += 1 if d == 2 else 2
    if n > 1:
        out.append(n)
    return out


def _decode(code: int, p: int, k: int) -> list[int]:
    digits = []
    for _ in range(k):
        digits.append(code % p)
        code //= p
    return digits


def _encode(digits: list[int], p: int) -> int:
    code = 0
    for d in reversed(digits):
        code = code * p + d
    return code


def _poly_mod(c: list[int], m: list[int], p: int) -> list[int]:
    """Remainder of c modulo the monic polynomial m, coefficients mod p."""
    c = list(c)
    deg_m = len(m) - 1
    for i in range(len(c) - 1, deg_m - 1, -1):
        coef = c[i] % p
        if coef:
            for j in range(deg_m + 1):
                c[i - deg_m + j] = (c[i - deg_m + j] - coef * m[j]) % p
    return [x % p for x in c[:deg_m]]


def _poly_mulmod(a: list[int], b: list[int], m: list[int], p: int) -> list[int]:
    k = len(m) - 1
    prod = [0] * (2 * k - 1)
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b):
                prod[i + j] += ai * bj
    return _poly_mod(prod, m, p)


def _poly_is_irreducible(m: list[int], p: int) -> bool:
    """Trial division by every monic polynomial of degree <= deg(m)/2."""
    k = len(m) - 1
    for d in range(1, k // 2 + 1):
        for lower in range(p ** d):
            div = _decode(lower, p, d) + [1]
            rem = _poly_mod(m, div, p)
            if not any(rem):
                return False
    return True


def _least_irreducible(p: int, k: int) -> tuple[int, ...]:
    for lower in range(p ** k):
        m = _decode(lower, p, k) + [1]
        if _poly_is_irreducible(m, p):
            return tuple(m)
    raise AssertionError("no irreducible polynomial found")  # unreachable


# ----------------------------------------------------------------------
# construction
# ----------------------------------------------------------------------

def _q_cap(max_q: int | None) -> int:
    if max_q is not None:
        return max_q
    env = os.environ.get(MAX_Q_ENV)
    if env is not None:
        try:
            return int(env)
        except ValueError as exc:
            raise BadParam(f"{MAX_Q_ENV} must be an integer, got {env!r}") from exc
    return DESK_CAP


def _raw_pow(x: int, e: int, p: int, k: int, modulus: tuple[int, ...]) -> int:
    """x^e by square-and-multiply on honest arithmetic (no tables)."""
    if k == 1:
        return pow(x, e, p)
    result = [1] + [0] * (k - 1)
    base = _decode(x, p, k)
    m = list(modulus)
    while e:
        if e & 1:
            result = _poly_mulmod(result, base, m, p)
        base = _poly_mulmod(base, base, m, p)
        e >>= 1
    return _encode(result, p)


def _search_generator(p: int, k: int, q: int, modulus: tuple[int, ...]) -> int:
    group = q - 1
    primes = _prime_factors(group)
    for cand in range(1, q):
        if all(_raw_pow(cand, group // ell, p, k, modulus) != 1 for ell in primes):
            return cand
    raise AssertionError("cyclic group without generator")  # unreachable


def _exp_table(p: int, k: int, gen: int, modulus: tuple[int, ...]) -> np.ndarray:
    """exp[t] = code of gen^t for t < q - 1, built in blocks of B ~ sqrt(q - 1).

    The first block gen^0 .. gen^(B-1) is stepped out by honest polynomial
    multiplication.  Multiplication by h = gen^B is an F_p-linear map on
    digit vectors, so block s + 1 is block s times the k x k matrix of h,
    one matmul per block.  The matmul runs in float64, whose entries stay
    below k * p^2; Overflow refuses a field where that could exceed 2^53.
    """
    if k * (p - 1) ** 2 >= 1 << 53:
        raise Overflow(f"F_{p}^{k} is too large for exact float64 table steps")
    m = p ** k - 1
    block = math.isqrt(m - 1) + 1
    mod = list(modulus)
    gd = _decode(gen, p, k)
    xd = [1] + [0] * (k - 1)
    digits = np.empty((block, k), dtype=np.int64)
    for t in range(block):
        digits[t] = xd
        xd = _poly_mulmod(xd, gd, mod, p)
    # row i holds the digits of h * x^i, so digits @ step multiplies each row by h
    step = np.array([_poly_mulmod(xd, [0] * i + [1], mod, p) for i in range(k)],
                    dtype=np.float64)
    powers = p ** np.arange(k, dtype=np.int64)
    exp = np.empty(block * (m // block + 1), dtype=np.int64)
    for start in range(0, m, block):
        exp[start:start + block] = digits @ powers
        digits = (digits @ step).astype(np.int64) % p
    return exp[:m].copy()


def make_field(p: int, k: int = 1, modulus=None, max_q: int | None = None) -> FieldSpec:
    """Build F_{p^k} with dlog/exp tables.

    Raises NotPrime for composite p, Reducible for a modulus that factors,
    Overflow when p^k exceeds the cap (default 2^20, overridable via the
    max_q argument or the FFB_MAX_Q environment variable).
    """
    if not isinstance(p, int) or not isinstance(k, int):
        raise BadParam("p and k must be integers")
    if k < 1:
        raise BadParam(f"k must be >= 1, got {k}")
    if not _is_prime(p):
        raise NotPrime(f"p = {p} is not prime")
    q = p ** k
    cap = _q_cap(max_q)
    if q > cap:
        raise Overflow(f"q = {q} exceeds the cap {cap}")

    if modulus is not None:
        mod = tuple(int(c) for c in modulus)
        if len(mod) != k + 1:
            raise BadParam(f"modulus must have {k + 1} coefficients, got {len(mod)}")
        if any(c < 0 or c >= p for c in mod):
            raise BadParam("modulus coefficients must lie in [0, p)")
        if mod[k] != 1:
            raise BadParam("modulus must be monic")
        if k > 1 and not _poly_is_irreducible(list(mod), p):
            raise Reducible(f"modulus {mod} factors over F_{p}")
    elif k == 1:
        mod = (0, 1)
    else:
        mod = _least_irreducible(p, k)

    gen = _search_generator(p, k, q, mod)

    exp = _exp_table(p, k, gen, mod)
    dlog = np.full(q, -1, dtype=np.int64)
    dlog[exp] = np.arange(q - 1, dtype=np.int64)
    dlog.flags.writeable = False
    exp.flags.writeable = False
    return FieldSpec(p=p, k=k, q=q, modulus=mod, generator=gen, dlog=dlog, exp=exp)


def find_generator(field: FieldSpec) -> int:
    """Least code of multiplicative order q - 1, found from scratch.

    Runs the same order test as construction (g^((q-1)/ell) != 1 for each
    prime ell dividing q - 1) so it does not depend on the dlog table.
    """
    return _search_generator(field.p, field.k, field.q, field.modulus)


# ----------------------------------------------------------------------
# scalar arithmetic
# ----------------------------------------------------------------------

def field_add(field: FieldSpec, x: int, y: int) -> int:
    if field.k == 1:
        return (x + y) % field.p
    p, k = field.p, field.k
    xs, ys = _decode(x, p, k), _decode(y, p, k)
    return _encode([(a + b) % p for a, b in zip(xs, ys)], p)


def field_neg(field: FieldSpec, x: int) -> int:
    if field.k == 1:
        return (-x) % field.p
    p = field.p
    return _encode([(-d) % p for d in _decode(x, p, field.k)], p)


def field_sub(field: FieldSpec, x: int, y: int) -> int:
    return field_add(field, x, field_neg(field, y))


def field_mul(field: FieldSpec, x: int, y: int) -> int:
    if field.k == 1:
        return (x * y) % field.p
    p, k = field.p, field.k
    return _encode(
        _poly_mulmod(_decode(x, p, k), _decode(y, p, k), list(field.modulus), p), p
    )


def field_inv(field: FieldSpec, x: int) -> int:
    if x == 0:
        raise DivideByZero("0 has no multiplicative inverse")
    if field.k == 1:
        return pow(x, field.p - 2, field.p)
    return _raw_pow(x, field.q - 2, field.p, field.k, field.modulus)


# ----------------------------------------------------------------------
# vectorized helpers on code arrays
# ----------------------------------------------------------------------

def _digits_vec(codes: np.ndarray, p: int, k: int) -> np.ndarray:
    c = codes.astype(np.int64, copy=True)
    out = np.empty((c.shape[0], k), dtype=np.int64)
    for i in range(k):
        out[:, i] = c % p
        c //= p
    return out


def _encode_vec(digits: np.ndarray, p: int) -> np.ndarray:
    k = digits.shape[1]
    powers = p ** np.arange(k, dtype=np.int64)
    return digits @ powers


def add_codes(field: FieldSpec, x: int, codes: np.ndarray) -> np.ndarray:
    """Code of x + c for every c in codes (XOR when p = 2: digits are bits)."""
    codes = np.asarray(codes, dtype=np.int64)
    if field.p == 2:
        return codes ^ x
    if field.k == 1:
        return (x + codes) % field.p
    d = _digits_vec(codes, field.p, field.k)
    d += np.array(_decode(x, field.p, field.k), dtype=np.int64)
    d %= field.p
    return _encode_vec(d, field.p)


def neg_codes(field: FieldSpec, codes: np.ndarray) -> np.ndarray:
    codes = np.asarray(codes, dtype=np.int64)
    if field.p == 2:
        return codes.copy()
    if field.k == 1:
        return (-codes) % field.p
    d = (-_digits_vec(codes, field.p, field.k)) % field.p
    return _encode_vec(d, field.p)


def sub_perm(field: FieldSpec, lam: int) -> np.ndarray:
    """Array perm with perm[x] = code of (lam - x), over all codes x."""
    return add_codes(field, lam, neg_codes(field, np.arange(field.q)))


def mul_codes(field: FieldSpec, x: int, codes: np.ndarray) -> np.ndarray:
    """Code of x * c for every c in codes, via the dlog table."""
    codes = np.asarray(codes, dtype=np.int64)
    out = np.zeros_like(codes)
    if x == 0:
        return out
    t = int(field.dlog[x])
    nz = codes != 0
    out[nz] = field.exp[(t + field.dlog[codes[nz]]) % (field.q - 1)]
    return out
