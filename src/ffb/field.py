"""Finite field construction and arithmetic on integer-encoded elements.

Every element of F_q (q = p^k) is a plain int in [0, q).  For k = 1 the
code is the residue itself.  For k > 1 the element sum(c_i * x^i) in the
polynomial basis is packed as code = sum(c_i * p^i), so code digits in
base p are the polynomial coordinates (constant term first).

Moduli are coefficient tuples in ascending order, length k + 1, monic.
When no modulus is supplied, the constructor picks the monic irreducible
polynomial of degree k whose non-leading coefficients form the smallest
base-p integer (equivalently, smallest by lexicographic comparison of the
descending coefficient tuple).  Candidates go in that order, those with a
zero constant term skipped, through Ben-Or's irreducibility test (on
bit-packed ints when p = 2), which also refuses a reducible supplied
modulus.

The generator is the least code c with c^((q-1)/ell) != 1 for every prime
ell dividing q - 1: builtin pow for k = 1, and for k > 1 a batched
square-and-multiply on the float64 k x k matrices of "multiply by c".
The exp table is built by doubling: for k = 1 entries [n, 2n) are entries
[0, n) times g^n mod p in int64; for k > 1 rows [n, 2n) of its digits are
rows [0, n) times the matrix of g^n, and then in blocks.  Every float
product and reduction mod p in these steps is an exact integer operation.
The dlog table, its inverse, is built from exp the first time it is read;
the CLI commands never read it.

The scalar functions (field_add ... field_inv) are honest polynomial
arithmetic, independent of the tables; the test suite checks the tables
against them.  The vectorized helpers at the bottom of the module are
built on the tables.
"""

from __future__ import annotations

import functools
import sys
from dataclasses import dataclass

import numpy as np

from .errors import BadParam, DivideByZero, NotPrime, Overflow, Reducible

# Default cap on q. Keeps every table and transform at desk scale.
DESK_CAP = 1 << 20


@dataclass(frozen=True, eq=False)
class FieldSpec:
    """Immutable description of F_q with its exp table and, on demand, dlog.

    exp has length q - 1 with exp[t] = generator^t, so exp is a permutation
    of the nonzero codes.  dlog has length q with dlog[0] = -1 (zero has
    no discrete log) and dlog[generator^t mod modulus] = t; it is built
    from exp on first read and kept, read-only like exp.
    """

    p: int
    k: int
    q: int
    modulus: tuple[int, ...]
    generator: int
    exp: np.ndarray

    @functools.cached_property
    def dlog(self) -> np.ndarray:
        dlog = np.full(self.q, -1, dtype=np.int64)
        dlog[self.exp] = np.arange(self.q - 1, dtype=np.int64)
        dlog.flags.writeable = False
        return dlog


# ----------------------------------------------------------------------
# integer and polynomial helpers
# ----------------------------------------------------------------------

# Miller-Rabin with the primes up to 41 as bases is exact below
# 3,317,044,064,679,887,385,961,981 (Sorenson and Webster, Math. Comp. 86
# (2017)); without 41 only below 3.2e23.  Past that it is a strong
# probable-prime test, and the q cap refuses any such p anyway.
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)


def _is_prime(n: int) -> bool:
    """Miller-Rabin over _MR_BASES: 0.2 ms at 10^20, where trial division
    took a second at 10^14."""
    if n < 2:
        return False
    if n in _MR_BASES:
        return True
    if any(n % b == 0 for b in _MR_BASES):
        return False
    d, s = n - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    for b in _MR_BASES:
        x = pow(b, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
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


def _poly_powmod(a: list[int], e: int, m: list[int], p: int) -> list[int]:
    """a^e mod m for e >= 1, left-to-right square-and-multiply."""
    out = a
    for bit in bin(e)[3:]:
        out = _poly_mulmod(out, out, m, p)
        if bit == "1":
            out = _poly_mulmod(out, a, m, p)
    return out


def _poly_gcd_degree(a: list[int], m: list[int], p: int) -> int:
    """Degree of gcd(a, m) over F_p for monic m (k when a = 0), by Euclid."""
    a, b = m, [c % p for c in a]
    while True:
        while b and not b[-1]:
            b.pop()
        if not b:
            return len(a) - 1
        inv = pow(b[-1], p - 2, p)
        b = [c * inv % p for c in b]
        a, b = b, _poly_mod(a, b, p)


def _gf2_mod(a: int, m: int) -> int:
    """a mod m over F_2, polynomials packed as ints (bit i holds x^i)."""
    deg_m = m.bit_length() - 1
    while a.bit_length() > deg_m:
        a ^= m << (a.bit_length() - 1 - deg_m)
    return a


def _gf2_is_irreducible(m: int) -> bool:
    """_poly_is_irreducible over F_2 on packed ints: squaring h spreads its
    bits, and a remainder is a few shifts and XORs instead of list loops."""
    h = 2
    for _ in range((m.bit_length() - 1) // 2):
        h = _gf2_mod(sum(1 << 2 * i for i in range(h.bit_length()) if h >> i & 1), m)
        a, b = m, h ^ 2
        while b:
            a, b = b, _gf2_mod(a, b)
        if a > 1:
            return False
    return True


def _poly_is_irreducible(m: list[int], p: int) -> bool:
    """Ben-Or's test: monic m of degree k is irreducible over F_p iff
    gcd(x^(p^i) - x, m) = 1 for every i <= k/2.

    A reducible m has an irreducible factor of some degree d <= k/2, and
    that factor divides x^(p^d) - x; an irreducible m divides x^(p^i) - x
    only when k divides i, so every gcd is 1.  h = x^(p^i) mod m is carried
    from one i to the next by one p-th power, so the test costs
    O(k log p) products and k/2 gcds, and a reducible m usually stops at
    the degree of its least factor.
    """
    if p == 2:
        return _gf2_is_irreducible(_encode(m, 2))
    k = len(m) - 1
    h = [0, 1] + [0] * (k - 2)
    for _ in range(k // 2):
        h = _poly_powmod(h, p, m, p)
        if _poly_gcd_degree([h[0], h[1] - 1] + h[2:], m, p):
            return False
    return True


def _least_irreducible(p: int, k: int) -> tuple[int, ...]:
    """The monic irreducible of degree k >= 2 with the least base-p code of
    its lower coefficients; a zero constant term means x divides it."""
    for lower in range(p ** k):
        if lower % p:
            m = _decode(lower, p, k) + [1]
            if _poly_is_irreducible(m, p):
                return tuple(m)
    raise AssertionError("no irreducible polynomial found")  # unreachable


# ----------------------------------------------------------------------
# construction
# ----------------------------------------------------------------------

# The exp table stops doubling once its digit block holds this many
# entries, and later blocks are products of that size.  2^14 made
# make_field(2, 20) 68 ms instead of 86 ms, but at q = 4096 its 200 KB
# temporaries added 0.3 MB to peak RSS; past about 4096 x 20 digits
# OpenBLAS threads the product, which then took 4-8 ms instead of 0.06 ms
# on two vCPUs.
_EXP_BLOCK_DIGITS = 1 << 13
# Generator candidates per batch stop growing at this many matrix entries.
_GEN_BATCH_ENTRIES = 1 << 15


def _raw_pow(x: int, e: int, p: int, k: int, modulus: tuple[int, ...]) -> int:
    """x^e for e >= 1 by square-and-multiply on honest arithmetic (no tables)."""
    if k == 1:
        return pow(x, e, p)
    return _encode(_poly_powmod(_decode(x, p, k), e, list(modulus), p), p)


def _mod_p(x: np.ndarray, p: int) -> np.ndarray:
    """x mod p in place, for integer-valued float64 entries 0 <= x <= 2^53 - p.

    With t = floor(x / p): x / p >= t, so its rounded quotient is >= t, and
    t + 1 - x / p >= 1 / p >= (t + 1) / 2^53 because p (t + 1) <= x + p <=
    2^53, which exceeds half the float spacing below t + 1, so the rounded
    quotient stays below t + 1.  Its floor is t; t * p <= x and x - t * p
    are integers below 2^53, hence exact.
    """
    t = x / p
    np.floor(t, out=t)
    t *= p
    x -= t
    return x


def _mul_matrices(codes: np.ndarray, p: int, k: int,
                  modulus: tuple[int, ...]) -> np.ndarray:
    """Float64 k x k matrix of "multiply by c" for each code c: row i holds
    the digits of c * x^i, so digits(a) @ M(c) = digits(c * a) mod p.

    Row i of M(c) is sum_j c_j * digits(x^(i+j) mod m), one product of the
    digit rows with the table of those digits.  Every entry, here and in
    any product of two such matrices or of a digit vector and one, is a sum
    of k products of integers in [0, p), so it is an integer of at most
    k * (p - 1)^2 <= 2^53 - p (make_field refuses larger fields): float64
    holds it, and each partial sum, exactly in any summation order, and
    _mod_p reduces it exactly.
    """
    powers = np.zeros((2 * k - 1, k))
    powers[:k] = np.eye(k)
    top = [-c % p for c in modulus[:k]]
    row = powers[k - 1].tolist()
    for t in range(k, 2 * k - 1):
        lead = row[-1]
        row = [0] + row[:-1]
        if lead:
            row = [(a + lead * b) % p for a, b in zip(row, top)]
        powers[t] = row
    table = powers[np.add.outer(np.arange(k), np.arange(k))].reshape(k, k * k)
    digits = (codes[:, None] // p ** np.arange(k)) % p
    return _mod_p(digits.astype(np.float64) @ table, p).reshape(-1, k, k)


def _search_generator(p: int, k: int, q: int, modulus: tuple[int, ...]) -> int:
    """Least code c with c^((q-1)/ell) != 1 for every prime ell | q - 1.

    For k = 1 by builtin pow.  Otherwise candidates go in batches of
    growing size, and each batch runs one square-and-multiply for all of
    its exponents at once on the matrices of "multiply by c" (exact, see
    _mul_matrices): below the k rows of M(c)^(2^j) sit one digit row per
    exponent e, starting at the digits of 1, and every step multiplies all
    of them by M(c)^(2^j), keeping the product in the rows of the
    exponents with bit j set.  The rows end at the digits of c^e.
    """
    group = q - 1
    exps = [group // ell for ell in _prime_factors(group)]
    if k == 1:
        return next(c for c in range(1, q) if all(pow(c, e, p) != 1 for e in exps))
    keep = np.array([[not (e >> j) & 1 for e in exps] for j in range(group.bit_length())])
    ells = len(exps)
    start, size = 1, 8
    while start < q:
        cands = np.arange(start, min(start + size, q), dtype=np.int64)
        state = np.zeros((len(cands), ells + k, k))
        state[:, :ells, 0] = 1
        state[:, ells:] = _mul_matrices(cands, p, k, modulus)
        for bit_clear in keep:
            nxt = _mod_p(state @ state[:, ells:], p)
            np.copyto(nxt[:, :ells], state[:, :ells], where=bit_clear[:, None])
            state = nxt
        powers = state[:, :ells]
        is_one = (powers[:, :, 0] == 1) & ~powers[:, :, 1:].any(axis=2)
        is_gen = ~is_one.any(axis=1)
        if is_gen.any():
            return int(cands[is_gen.argmax()])
        start += len(cands)
        size = min(2 * size, max(8, _GEN_BATCH_ENTRIES // (k * k)))
    raise AssertionError("cyclic group without generator")  # unreachable


def _exp_table(p: int, k: int, gen: int, modulus: tuple[int, ...]) -> np.ndarray:
    """exp[t] = code of gen^t for t < q - 1, by doubling then in blocks.

    For k = 1 the doubling runs in place on int64 residues: with
    exp[:n] = gen^0 .. gen^(n-1) and step = gen^n, exp[n:2n] = exp[:n] * step
    mod p, and step becomes gen^2n.  Each product is at most (p - 1)^2 < 2^53
    (make_field refuses larger p), so int64 holds it.  The reduction is
    x - (x // p) * p: numpy divides by one scalar with a precomputed
    multiply and shift, faster than its x % p.

    For k > 1 the table holds the digits of gen^0 .. gen^(n-1) above the k
    rows of M(gen^n).  One product with M(gen^n) turns both into the next table:
    the powers into gen^n .. gen^(2n-1), and M(gen^n) into M(gen^2n).  Once
    the powers hold _EXP_BLOCK_DIGITS digits, each later block is the one
    before it times the last M(gen^n).  Every product and its reduction is
    exact (see _mul_matrices), and the codes digits @ p^i are integers
    below q.
    """
    m = p ** k - 1
    if k == 1:
        exp = np.empty(m, dtype=np.int64)
        exp[0] = 1
        n, step = 1, gen
        while n < m:
            block = exp[n:2 * n]
            np.multiply(exp[:len(block)], step, out=block)
            block -= block // p * p
            n, step = n + len(block), step * step % p
        return exp
    place = float(p) ** np.arange(k)
    table = np.zeros((1 + k, k))
    table[0, 0] = 1
    table[1:] = _mul_matrices(np.array([gen]), p, k, modulus)[0]
    n = 1
    while n < m and n * k < _EXP_BLOCK_DIGITS:
        table = np.concatenate((table[:n], _mod_p(table @ table[n:], p)))
        n *= 2
    digits, step = table[:min(n, m)], table[n:]
    exp = np.empty(m, dtype=np.int64)
    done = len(digits)
    exp[:done] = digits @ place
    while done < m:
        digits = _mod_p(digits[: m - done] @ step, p)
        exp[done:done + len(digits)] = digits @ place
        done += len(digits)
    return exp


def _power_text(p: int, k: int) -> str:
    """p^k in decimal when Python prints an int that long (at most
    sys.get_int_max_str_digits() digits, 4300 by default), else "p^k".
    Since 10^d < 2^(4d), a bit length of at least 4d rules it out before
    p^k is formed."""
    digits = sys.get_int_max_str_digits() or 4300
    if k * (p.bit_length() - 1) < 4 * digits:
        q = p ** k
        if q < 10 ** digits:
            return str(q)
    return f"{p}^{k}"


def make_field(p: int, k: int = 1, modulus=None, max_q: int | None = None) -> FieldSpec:
    """Build F_{p^k} with its exp table (dlog follows on first read).

    Raises NotPrime for composite p, Reducible for a modulus that factors,
    Overflow when p^k exceeds the cap (default 2^20, overridable via the
    max_q argument) or when
    k * (p - 1)^2 > 2^53 - p, past which the float64 matrix steps could round.
    p^k >= 2^(k (bitlen(p) - 1)), so a q far past the cap is refused from
    bit lengths before p^k is formed.
    """
    if not isinstance(p, int) or not isinstance(k, int):
        raise BadParam("p and k must be integers")
    if k < 1:
        raise BadParam(f"k must be >= 1, got {k}")
    if not _is_prime(p):
        raise NotPrime(f"p = {p} is not prime")
    cap = DESK_CAP if max_q is None else max_q
    q = p ** k if k * (p.bit_length() - 1) < cap.bit_length() else None
    if q is None or q > cap:
        raise Overflow(f"q = {_power_text(p, k)} exceeds the cap {cap}")

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

    if k * (p - 1) ** 2 + p > 1 << 53:
        raise Overflow(f"F_{p}^{k} is too large for exact float64 table steps")
    gen = _search_generator(p, k, q, mod)

    exp = _exp_table(p, k, gen, mod)
    exp.flags.writeable = False
    return FieldSpec(p=p, k=k, q=q, modulus=mod, generator=gen, exp=exp)


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
