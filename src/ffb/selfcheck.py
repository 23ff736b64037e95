"""Acceptance grid, brute-force oracles, and the named release criteria.

The oracles here count by enumerating tuples through plain operation
tables, never through representation functions or characters, so they are
independent of the paths they validate.  The criteria are shared between
the CLI selftest and the acceptance test module: each returns (ok,
detail) and asserts nothing itself.
"""

from __future__ import annotations

import numpy as np

from . import bounds, counters, setsgen, sumprod
from .characters import char_eval
from .field import FieldSpec, field_add, field_mul, field_neg, make_field
from .instance import Instance
from .repfn import FqSubset, full_subset
from .setsgen import SetSpec, derive_seed, stream_value

# (p, k) per grid order q = 3, 5, 7, 9, 11, 13, 16
GRID_SHAPES = [(3, 1), (5, 1), (7, 1), (3, 2), (11, 1), (13, 1), (2, 4)]
GRID_TUPLES = 50
ABCD = ("a", "b", "c", "d")
ORTHO_TOL = 1e-9


def grid_fields(q_max: int | None = None) -> list[FieldSpec]:
    fields = [make_field(p, k) for p, k in GRID_SHAPES]
    if q_max is not None:
        fields = [f for f in fields if f.q <= q_max]
    return fields


def draw_subset(field: FieldSpec, slot_seed: int) -> FqSubset:
    """Random subset with size uniform in [1, q], from the slot's stream."""
    m = 1 + stream_value(slot_seed, 0) % field.q
    return setsgen.realize(field, SetSpec("random", (m,)), derive_seed(slot_seed, 1))


def grid_tuple(field: FieldSpec, index: int, n_sets: int = 4,
               base_seed: int = 0) -> list[FqSubset]:
    """The index-th seeded set tuple for this field, n_sets slots."""
    return [
        draw_subset(field, derive_seed(base_seed, field.q, index, slot))
        for slot in range(n_sets)
    ]


# ----------------------------------------------------------------------
# brute-force oracles on operation tables
# ----------------------------------------------------------------------

OpTables = tuple[np.ndarray, np.ndarray, np.ndarray]


def op_tables(field: FieldSpec) -> OpTables:
    """(mul, add, neg) tables over all codes, built by scalar arithmetic.

    brute_histogram takes them as an argument; a caller builds them once
    per field."""
    q = field.q
    mul = np.empty((q, q), dtype=np.int64)
    add = np.empty((q, q), dtype=np.int64)
    neg = np.empty(q, dtype=np.int64)
    for x in range(q):
        neg[x] = field_neg(field, x)
        for y in range(q):
            mul[x, y] = field_mul(field, x, y)
            add[x, y] = field_add(field, x, y)
    return mul, add, neg


def brute_histogram(tables: OpTables, terms: list[tuple]) -> np.ndarray:
    """Histogram over lam of sum of x_i*y_i over the terms (x_i, y_i), pairs of
    code arrays, by full tuple enumeration: (x, [1]) is a plain summand x,
    and neg[x] of the tables stands for -x.  A few terms at q <= 13 keep it
    small."""
    mul, add, _ = tables
    sums = np.zeros(1, dtype=np.int64)
    for x, y in terms:
        sums = add[sums[:, None], mul[np.ix_(x, y)].ravel()[None, :]].ravel()
    return np.bincount(sums, minlength=len(mul)).astype(np.int64)


# ----------------------------------------------------------------------
# named criteria
# ----------------------------------------------------------------------

def criterion_oracle_equivalence(q_max: int = 13, tuples: int = GRID_TUPLES,
                                 base_seed: int = 0) -> tuple[bool, str]:
    """Counters equal brute enumeration: bilinear, additive, determinant and
    no-solution sets at q <= 11, the general n-term form at n <= 3, q <= 7."""
    checked = 0
    for field in grid_fields(min(q_max, 11)):
        tables = op_tables(field)
        neg = tables[2]
        for idx in range(tuples):
            sets = grid_tuple(field, idx, 4, base_seed)
            inst = Instance(field, dict(zip(ABCD, sets)))
            a, b, c, d = (s.codes() for s in sets)
            brute = brute_histogram(tables, [(a, b), (c, d)])
            det_brute = brute_histogram(tables, [(a, d), (neg[b], c)])
            for lam in range(field.q):
                if inst.bilinear(*ABCD, lam) != int(brute[lam]):
                    return False, f"bilinear mismatch q={field.q} tuple={idx} lam={lam}"
                if inst.bilinear("a", "d", "-b", "c", lam) != int(det_brute[lam]):
                    return False, f"determinant mismatch q={field.q} tuple={idx} lam={lam}"
                checked += 2
            # a + b = c*d is a + b + (-c)*d = 0, and a + b*c = lam unsolvable a zero
            brute_t = brute_histogram(tables, [(a, [1]), (b, [1]), (neg[c], d)])[0]
            if inst.additive(*ABCD) != brute_t:
                return False, f"additive mismatch q={field.q} tuple={idx}"
            e = counters.exceptional_set(field, sets[0], inst.product("b", "c"))
            if not np.array_equal(e.membership, brute_histogram(tables, [(a, [1]), (b, c)]) == 0):
                return False, f"exceptional_set mismatch q={field.q} tuple={idx}"
            checked += 2
            if field.q <= 7:
                brute3 = brute_histogram(tables, [(a, b), (c, d), (a, c)])
                fold = inst.fold([("a", "b"), ("c", "d"), ("a", "c")]).counts
                for lam in range(field.q):
                    if int(fold[lam]) != int(brute3[lam]):
                        return False, f"general mismatch q={field.q} tuple={idx} lam={lam}"
                    checked += 1
    return True, f"{checked} exact comparisons against brute enumeration"


def criterion_charform_agreement(q_max: int = 16, tuples: int = GRID_TUPLES,
                                 base_seed: int = 0) -> tuple[bool, str]:
    """Character-route counters reproduce the exact integer counters."""
    checked = 0
    for field in grid_fields(q_max):
        for idx in range(tuples):
            inst = Instance(field, dict(zip(ABCD, grid_tuple(field, idx, 4, base_seed))))
            t_char, _, _ = inst.additive_charform(*ABCD)
            if t_char != inst.additive(*ABCD):
                return False, f"additive charform mismatch q={field.q} tuple={idx}"
            checked += 1
            for lam in range(field.q):
                n_exact = inst.bilinear(*ABCD, lam)
                n_char, _, _ = inst.bilinear_charform(*ABCD, lam)
                if n_char != n_exact:
                    return False, f"bilinear charform mismatch q={field.q} tuple={idx} lam={lam}"
                checked += 1
    return True, f"{checked} instances, character route exact after rounding"


def criterion_closed_forms(q_max: int = 13, base_seed: int = 0) -> tuple[bool, str]:
    """Full-grid counts match their closed forms, brute-checked at q = 5."""
    checked = 0
    for field in grid_fields(q_max):
        if field.q < 5:
            continue
        full = full_subset(field)
        inst = Instance(field, dict.fromkeys(ABCD, full))
        q = field.q
        expected_nonzero = q ** 3 - q
        expected_zero = (2 * q - 1) ** 2 + (q - 1) ** 3
        for lam in range(q):
            n = inst.bilinear(*ABCD, lam)
            want = expected_zero if lam == 0 else expected_nonzero
            if n != want:
                return False, f"bilinear closed form fails q={q} lam={lam}: {n} != {want}"
            checked += 1
        t = inst.additive(*ABCD)
        if t != q ** 3:
            return False, f"additive closed form fails q={q}: {t} != {q ** 3}"
        checked += 1
        if q == 5:
            codes = full.codes()
            brute = brute_histogram(op_tables(field), [(codes, codes)] * 2)
            if int(brute[0]) != expected_zero or any(
                int(brute[lam]) != expected_nonzero for lam in range(1, q)
            ):
                return False, "brute cross-check of closed forms fails at q=5"
            checked += 1
    return True, f"{checked} closed-form values verified"


def criterion_proven_bounds(q_max: int = 13, tuples: int = GRID_TUPLES,
                            base_seed: int = 0) -> tuple[bool, str]:
    """Square-root bounds on W and V and the Cauchy error bound all hold."""
    checked = 0
    for field in grid_fields(q_max):
        for idx in range(tuples):
            a, b, c, d = grid_tuple(field, idx, 4, base_seed)
            inst = Instance(field, dict(zip(ABCD, (a, b, c, d))))
            rep = bounds.vinogradov_bound(field, inst.v("a", "b"), a.size, b.size)
            if not rep.holds:
                return False, f"V bound fails q={field.q} tuple={idx}: {rep}"
            checked += 1
            for lam in range(field.q):
                rep = bounds.vinogradov_bound(field, inst.w("a", "b", lam), a.size, b.size)
                if not rep.holds:
                    return False, f"W bound fails q={field.q} tuple={idx} lam={lam}: {rep}"
                rep = inst.cauchy(*ABCD, lam)
                if not rep.holds:
                    return False, f"Cauchy bound fails q={field.q} tuple={idx} lam={lam}: {rep}"
                checked += 2
    return True, f"{checked} bound instances, all hold"


def criterion_sarkozy_identity(q_max: int = 13, tuples: int = GRID_TUPLES,
                               base_seed: int = 0) -> tuple[bool, str]:
    """The no-solution set never meets the matching additive count."""
    checked = 0
    for field in grid_fields(q_max):
        for idx in range(tuples):
            f, g, h, _ = grid_tuple(field, idx, 4, base_seed)
            r_gh = Instance(field, {"g": g, "h": h}).product("g", "h")
            e = counters.exceptional_set(field, f, r_gh)
            if not counters.verify_sarkozy_identity(field, f, e, r_gh):
                return False, f"identity fails q={field.q} tuple={idx}"
            checked += 1
    return True, f"{checked} triples, identity holds on all"


def criterion_solvability(q_max: int = 13, tuples: int = GRID_TUPLES,
                          base_seed: int = 0) -> tuple[bool, str]:
    """Whenever the threshold condition fires, solutions exist."""
    fired = 0
    checked = 0
    for field in grid_fields(q_max):
        for idx in range(tuples):
            inst = Instance(field, dict(zip(ABCD, grid_tuple(field, idx, 4, base_seed))))
            for lam in range(1, field.q):
                rep = inst.solvability(*ABCD, lam)
                checked += 1
                if rep.holds:
                    fired += 1
                    if inst.bilinear(*ABCD, lam) <= 0:
                        return False, f"threshold violated q={field.q} tuple={idx} lam={lam}"
    return True, f"{checked} instances, condition fired {fired} times, zero violations"


def criterion_garaev_lower(q_max: int = 13, tuples: int = GRID_TUPLES,
                           base_seed: int = 0) -> tuple[bool, str]:
    """Solution count over sumset and productset meets its exact lower bound."""
    checked = 0
    for field in grid_fields(q_max):
        for idx in range(tuples):
            x, y, _, _ = grid_tuple(field, idx, 4, base_seed)
            inst = Instance(field, {"x": x, "y": y})
            count, lower = sumprod.garaev_solution_count(
                field, x, y, inst.subset("x+y"), inst.subset("x*y"))
            if count < lower:
                return False, f"lower bound fails q={field.q} tuple={idx}: {count} < {lower}"
            checked += 1
    return True, f"{checked} pairs, count >= lower on all"


def criterion_orthogonality(q_max: int = 16) -> tuple[bool, str]:
    """Both character orthogonality relations, within 1e-9 * (q - 1)."""
    worst = 0.0
    for field in grid_fields(q_max):
        m = field.q - 1
        tol = ORTHO_TOL * m
        for t in range(m):
            x = int(field.exp[t])
            col = sum(char_eval(field, j, x) for j in range(m))
            dev = abs(col - (m if x == 1 else 0))
            worst = max(worst, dev / m)
            if dev > tol:
                return False, f"column orthogonality fails q={field.q} x={x}: dev={dev:.3e}"
        for j in range(m):
            row = sum(char_eval(field, j, int(field.exp[t])) for t in range(m))
            dev = abs(row - (m if j == 0 else 0))
            worst = max(worst, dev / m)
            if dev > tol:
                return False, f"row orthogonality fails q={field.q} j={j}: dev={dev:.3e}"
    return True, f"worst relative deviation {worst:.3e} (tolerance {ORTHO_TOL:.0e})"


def exceptional_ratio_report(p: int = 101, triples: int = 20,
                             base_seed: int = 0) -> list[dict]:
    """Observed #E * #F * #G * #H / q^3 for seeded triples, report only.

    Set sizes are drawn in [1, 1 + floor(q^(1/3))]: much larger sets make
    the no-solution set empty and every ratio trivially zero.
    """
    field = make_field(p)
    cap = 1 + int(field.q ** (1 / 3))
    out = []
    for idx in range(triples):
        sets = []
        for slot in range(3):
            slot_seed = derive_seed(base_seed, field.q, idx, slot)
            m = 1 + stream_value(slot_seed, 0) % cap
            sets.append(setsgen.realize(field, SetSpec("random", (m,)),
                                        derive_seed(slot_seed, 1)))
        f, g, h = sets
        e = counters.exceptional_set(field, f, Instance(field, {"g": g, "h": h}).product("g", "h"))
        ratio = e.size * f.size * g.size * h.size / field.q ** 3
        out.append({
            "index": idx,
            "sizes": (f.size, g.size, h.size),
            "e_size": e.size,
            "ratio": ratio,
        })
    return out


SELFTEST_CRITERIA = [
    ("oracle-equivalence", criterion_oracle_equivalence),
    ("charform-agreement", criterion_charform_agreement),
    ("closed-forms", lambda q_max, tuples, base_seed: criterion_closed_forms(q_max, base_seed)),
    ("proven-bounds", criterion_proven_bounds),
    ("sarkozy-identity", criterion_sarkozy_identity),
    ("solvability-threshold", criterion_solvability),
    ("garaev-lower-bound", criterion_garaev_lower),
    ("orthogonality", lambda q_max, tuples, base_seed: criterion_orthogonality(q_max)),
]


def run_selftest(q_max: int = 13, tuples: int = GRID_TUPLES,
                 base_seed: int = 0) -> list[tuple[str, bool, str]]:
    """Run every criterion restricted to q <= q_max; no printing here."""
    results = []
    for name, fn in SELFTEST_CRITERIA:
        ok, detail = fn(q_max, tuples, base_seed)
        results.append((name, ok, detail))
    return results
