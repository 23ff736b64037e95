"""Set description parsing and deterministic realization."""

import pytest

from ffb.errors import BadParam
from ffb.field import make_field
from ffb.setsgen import (
    SetSpec,
    _draw_distinct,
    _stream_block,
    derive_seed,
    parse_setspec,
    realize,
    stream_value,
)


def codes(field, text, seed=0):
    return sorted(realize(field, parse_setspec(text), seed).codes().tolist())


def test_stream_is_splitmix64():
    # first output of the reference stream from state 0
    assert stream_value(0, 0) == 0xE220A8397B1DCDAF
    assert stream_value(0, 0) == stream_value(0, 0)
    assert stream_value(0, 1) != stream_value(0, 0)
    assert stream_value(1, 0) != stream_value(0, 0)


def test_derived_seeds_split_by_path():
    assert derive_seed(5, 1, 2) != derive_seed(5, 2, 1)
    assert derive_seed(5, 1) != derive_seed(5, 2)
    assert derive_seed(5, 1, 2) == derive_seed(5, 1, 2)


def test_parse_round_trips_through_text():
    for text in ("explicit:1,2,3", "interval:1..4", "random:5", "subgroup:3",
                 "progression:2,3,4", "-random:5", "~interval:0..2",
                 "-~explicit:1"):
        spec = parse_setspec(text)
        assert spec.text() == text
        assert parse_setspec(spec.text()) == spec


def test_parse_rejects_malformed_specs():
    for text in ("nocolon", "interval:3", "interval:a..b", "random:1,2",
                 "subgroup:", "progression:1,2", "galaxy:9"):
        with pytest.raises(BadParam):
            parse_setspec(text)


def test_interval(f5, f9):
    assert codes(f5, "interval:1..4") == [1, 2, 3, 4]
    assert codes(f5, "interval:2..2") == [2]
    with pytest.raises(BadParam):
        realize(f9, parse_setspec("interval:1..4"))  # extension field
    with pytest.raises(BadParam):
        realize(f5, parse_setspec("interval:3..1"))
    with pytest.raises(BadParam):
        realize(f5, parse_setspec("interval:1..5"))


def test_subgroup(f5, f7):
    assert codes(f5, "subgroup:2") == [1, 4]
    assert codes(f7, "subgroup:2") == [1, 2, 4]
    assert codes(f7, "subgroup:1") == [1, 2, 3, 4, 5, 6]
    assert codes(f7, "subgroup:6") == [1]
    with pytest.raises(BadParam):
        realize(f7, parse_setspec("subgroup:5"))  # 5 does not divide 6


def test_random_sets(f7):
    spec = parse_setspec("random:3")
    first = realize(f7, spec, 42)
    again = realize(f7, spec, 42)
    assert first.codes().tolist() == again.codes().tolist()
    assert first.size == 3
    others = {tuple(realize(f7, spec, s).codes().tolist()) for s in range(20)}
    assert len(others) > 1  # seeds actually vary the draw
    for m in range(8):
        assert realize(f7, SetSpec("random", (m,)), 1).size == m
    with pytest.raises(BadParam):
        realize(f7, parse_setspec("random:8"))
    with pytest.raises(BadParam):
        realize(f7, parse_setspec("random:-1"))


def test_progression(f7):
    assert codes(f7, "progression:2,3,4") == [1, 2, 4, 5]
    assert codes(f7, "progression:3,0,5") == [3]
    assert codes(f7, "progression:1,1,0") == []
    with pytest.raises(BadParam):
        realize(f7, parse_setspec("progression:7,1,2"))
    with pytest.raises(BadParam):
        realize(f7, parse_setspec("progression:1,1,-2"))


def test_progression_takes_at_most_p_terms(f13, f9):
    # a step of additive order p repeats after p terms: a length far past p
    # names the set of length p, and the spec keeps its text
    for field, text, full in ((f13, "progression:1,2,{}", 13), (f9, "progression:1,4,{}", 3)):
        huge = text.format(10 ** 20 - 1)
        assert parse_setspec(huge).text() == huge
        assert codes(field, huge) == codes(field, text.format(full))
        assert len(codes(field, huge)) == field.p
    assert codes(f13, "progression:5,0,99999999999999999999") == [5]


def test_prefixes(f5):
    assert codes(f5, "-explicit:1,2") == [3, 4]
    assert codes(f5, "~interval:0..2") == [3, 4]
    assert codes(f5, "-~explicit:0,1,2") == [1, 2]
    assert codes(f5, "explicit:") == []


def test_explicit_validates_codes(f5):
    with pytest.raises(BadParam):
        realize(f5, parse_setspec("explicit:5"))


def test_progression_wraps_in_extension(f9):
    # step 1 = the polynomial 1, so the walk stays inside the prime subfield
    assert codes(f9, "progression:0,1,3") == [0, 1, 2]


def scalar_draw(field, m, seed):
    """The per-value rejection loop over stream_value, the reference order."""
    limit = ((1 << 64) // field.q) * field.q
    seen, out, counter = set(), [], 0
    while len(out) < m:
        v = stream_value(seed, counter)
        counter += 1
        if v >= limit:
            continue
        if v % field.q not in seen:
            seen.add(v % field.q)
            out.append(v % field.q)
    return out


def drawn(field, m, seed):
    """The codes of _draw_distinct's mask, in increasing order."""
    mask = _draw_distinct(field, m, seed)
    assert mask.dtype == bool and mask.shape == (field.q,)
    return mask.nonzero()[0].tolist()


def test_vectorised_draw_matches_scalar_stream():
    for seed in (0, 1, derive_seed(7, 3)):
        expect = [stream_value(seed, c) for c in range(5, 305)]
        assert _stream_block(seed, 5, 300).tolist() == expect
    for shape in [(2, 1), (5, 1), (7, 1), (3, 2), (2, 4), (2, 12), (4093, 1)]:
        field = make_field(*shape)
        for m in sorted({0, 1, 2, field.q // 4, field.q // 2, field.q - 1, field.q}):
            for seed in (0, derive_seed(7, field.q, m)):
                assert drawn(field, m, seed) == sorted(scalar_draw(field, m, seed))
    # the benchmark's field: small, typical and near-full sets
    field = make_field(8191)
    for m in (1, 300, 1024, field.q - 3):
        for seed in (0, derive_seed(7, field.q, m)):
            assert drawn(field, m, seed) == sorted(scalar_draw(field, m, seed))


def test_subgroup_is_every_dth_power(f9, f16):
    for field in (f9, f16):
        for d in (1, 3, field.q - 1):
            if (field.q - 1) % d == 0:
                expect = sorted(int(field.exp[t]) for t in range(0, field.q - 1, d))
                assert codes(field, f"subgroup:{d}") == expect
