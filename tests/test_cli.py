"""Front-end behavior: records, formats, exit codes, scan and script modes."""

import concurrent.futures
import csv
import functools
import json
import math
import multiprocessing
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

import pytest

import ffb.bounds
import ffb.cli
import ffb.counters
import ffb.repfn
from ffb.bounds import compute_W, karatsuba_bound
from ffb.characters import repfn_char_sums
from ffb.cli import run
from ffb.errors import RoundingDrift
from ffb.field import make_field
from ffb.instance import Instance
from ffb.repfn import rep_product, shift_repfn
from ffb.setsgen import derive_seed, parse_setspec, realize


def run_lines(capsys, argv):
    code = run(argv)
    out = capsys.readouterr()
    lines = [ln for ln in out.out.splitlines() if ln]
    return code, lines, out.err


def run_json(capsys, argv):
    code, lines, err = run_lines(capsys, argv)
    return code, [json.loads(ln) for ln in lines], err


COUNT_ARGS = ["count", "--p", "5", "--a", "interval:1..4", "--b", "interval:1..4",
              "--c", "interval:1..4", "--d", "interval:1..4", "--lambda", "1"]


def test_count_example(capsys):
    code, recs, _ = run_json(capsys, COUNT_ARGS)
    assert code == 0
    (rec,) = recs
    assert rec["n"] == 48
    assert rec["n_charform"] == 48
    assert rec["field"] == {"p": 5, "k": 1, "q": 5, "modulus": [0, 1]}
    assert rec["sets"]["a"] == "interval:1..4"
    assert rec["lambda"] == 1
    assert "elapsed_us" in rec


def test_no_timing_strips_the_clock(capsys):
    code, recs, _ = run_json(capsys, COUNT_ARGS + ["--no-timing"])
    assert code == 0
    assert "elapsed_us" not in recs[0]


def test_output_is_deterministic(capsys):
    _, first, _ = run_lines(capsys, COUNT_ARGS + ["--no-timing"])
    _, second, _ = run_lines(capsys, COUNT_ARGS + ["--no-timing"])
    assert first == second


def test_lambda_sweeps(capsys):
    base = COUNT_ARGS[:-2] + ["--no-timing"]
    code, recs, _ = run_json(capsys, base + ["--lambda", "all"])
    assert code == 0
    assert [r["lambda"] for r in recs] == [1, 2, 3, 4]
    code, recs, _ = run_json(capsys, base + ["--lambda", "all0"])
    assert [r["lambda"] for r in recs] == [0, 1, 2, 3, 4]
    assert recs[0]["n"] == 64


def test_bounds_subcommand(capsys):
    code, recs, _ = run_json(capsys, [
        "bounds", "--p", "7", "--a", "random:3", "--b", "random:3",
        "--lambda", "2", "--seed", "1"])
    assert code == 0
    (rec,) = recs
    assert rec["vinogradov_w"]["holds"] is True
    assert rec["vinogradov_v"]["holds"] is True
    assert 0 <= rec["w"] <= rec["vinogradov_w"]["bound"]
    assert len(rec["karatsuba"]) == 8
    assert "cauchy" not in rec  # no --c/--d given


def test_bounds_with_error_term(capsys):
    code, recs, _ = run_json(capsys, [
        "bounds", "--p", "7", "--a", "random:3", "--b", "random:3",
        "--c", "random:4", "--d", "random:2", "--lambda", "2", "--seed", "3"])
    assert code == 0
    assert recs[0]["cauchy"]["holds"] is True


def test_count_additive_subcommand(capsys):
    code, recs, _ = run_json(capsys, [
        "countT", "--p", "5", "--a", "interval:0..4", "--b", "interval:0..4",
        "--c", "interval:0..4", "--d", "interval:0..4"])
    assert code == 0
    (rec,) = recs
    assert rec["t"] == 125
    assert rec["t_charform"] == 125
    assert "lambda" not in rec


def test_countn_pairs(capsys):
    code, recs, _ = run_json(capsys, [
        "countn", "--p", "7", "--a", "explicit:2", "--b", "explicit:3",
        "--lambda", "6"])
    assert code == 0
    assert recs[0]["n"] == 1 and recs[0]["n_pairs"] == 1

    code, recs, _ = run_json(capsys, [
        "countn", "--p", "5", "--a", "interval:1..4", "--b", "interval:1..4",
        "--a", "interval:1..4", "--b", "interval:1..4", "--lambda", "1"])
    assert code == 0
    assert recs[0]["n"] == 48 and recs[0]["n_pairs"] == 2

    assert run(["countn", "--p", "5", "--a", "explicit:1",
                "--lambda", "1"]) == 2  # unpaired --a
    capsys.readouterr()


def test_det2_subcommand(capsys):
    code, recs, _ = run_json(capsys, [
        "det2", "--p", "5", "--a", "interval:0..4", "--b", "interval:0..4",
        "--c", "interval:0..4", "--d", "interval:0..4", "--lambda", "1"])
    assert code == 0
    assert recs[0]["n"] == 120


def test_exceptional_subcommand(capsys):
    code, recs, _ = run_json(capsys, [
        "exceptional", "--p", "5", "--f", "explicit:0", "--g", "explicit:0",
        "--h", "interval:0..4"])
    assert code == 0
    (rec,) = recs
    assert rec["e_size"] == 4
    assert rec["sarkozy_ok"] is True
    assert rec["ratio"] == pytest.approx(4 * 1 * 1 * 5 / 125)


def test_sumprod_subcommand(capsys):
    code, recs, _ = run_json(capsys, [
        "sumprod", "--p", "5", "--x", "explicit:1,2", "--y", "explicit:1"])
    assert code == 0
    (rec,) = recs
    assert rec["count"] == 5 and rec["lower"] == 4 and rec["ok"] is True
    assert rec["u_size"] == 2 and rec["v_size"] == 2
    assert rec["c0_ratio"] == pytest.approx(2 * 2 / min(5 * 2, (2 * 1) ** 2 / 5))

    code, recs, _ = run_json(capsys, [
        "sumprod", "--p", "3", "--k", "2", "--x", "random:3", "--y", "random:2"])
    assert code == 0
    assert recs[0]["c0_ratio"] is None  # stated for prime fields only


def test_solvability_subcommand(capsys):
    code, recs, _ = run_json(capsys, [
        "solvability", "--p", "7", "--a", "interval:1..6", "--b", "interval:1..6",
        "--c", "interval:1..6", "--d", "interval:1..6", "--lambda", "1"])
    assert code == 0
    (rec,) = recs
    assert rec["fires"] is True and rec["n"] > 0
    assert rec["empirical_delta"] is None  # infinite gap serialised as null


def test_broken_invariant_is_a_hard_failure(capsys, monkeypatch):
    # a fired threshold with no solution is a bug: exit 1, never a usage error
    monkeypatch.setattr(ffb.counters, "additive_count", lambda *args: 0)
    code = run(["solvability", "--p", "7", "--a", "interval:1..6", "--b", "interval:1..6",
                "--c", "interval:1..6", "--d", "interval:1..6", "--lambda", "1"])
    assert code == 1
    assert "hard failure: InvariantViolation" in capsys.readouterr().err


def test_csv_format(capsys):
    code, lines, _ = run_lines(capsys, COUNT_ARGS + ["--format", "csv", "--no-timing"])
    assert code == 0
    header, row = (next(csv.reader([ln])) for ln in lines)
    assert "field.p" in header and "n" in header and "sets.a" in header
    assert len(row) == len(header)
    record = dict(zip(header, row))
    assert record["n"] == "48"
    assert record["field.modulus"] == "[0, 1]"
    _, again, _ = run_lines(capsys, COUNT_ARGS + ["--format", "csv", "--no-timing"])
    assert lines == again


def test_usage_errors_exit_2(capsys):
    cases = [
        ["count", "--p", "4"] + COUNT_ARGS[3:],                 # composite p
        COUNT_ARGS[:-2] + ["--lambda", "maybe"],                # bad lambda
        COUNT_ARGS[:-2] + ["--lambda", "9"],                    # out of range
        ["count", "--p", "5", "--a", "bogus", "--b", "explicit:1",
         "--c", "explicit:1", "--d", "explicit:1", "--lambda", "1"],
        ["bounds", "--p", "7", "--a", "subgroup:5", "--b", "explicit:1",
         "--lambda", "1"],                                      # 5 does not divide 6
        ["bounds", "--p", "7", "--a", "explicit:1", "--b", "explicit:1",
         "--c", "explicit:1", "--lambda", "1"],                 # --c without --d
        [],                                                     # no subcommand
        ["count", "--sideways", "5"],                           # unknown flag
        ["solvability", "--p", "7", "--a", "explicit:1", "--b", "explicit:1",
         "--c", "explicit:1", "--d", "explicit:1", "--lambda", "0"],
        COUNT_ARGS[:1] + ["--p", "2", "--k", "21"] + COUNT_ARGS[3:],      # Overflow
        COUNT_ARGS[:1] + ["--p", "2", "--k", "2", "--modulus", "1,0,1"]
        + COUNT_ARGS[3:],                                       # Reducible
        ["bounds", "--p", "2", "--a", "explicit:1", "--b", "explicit:1"],  # q = 2
        ["bounds", "--p", "7", "--a", "explicit:1", "--b", "explicit:1",
         "--c", "explicit:1", "--d", "explicit:1"],             # --c/--d without --lambda
        ["scan", "--op", "bounds", "--p", "7", "--a", "explicit:1", "--b", "explicit:1",
         "--c", "explicit:1", "--d", "explicit:1"],
    ]
    for argv in cases:
        assert run(argv) == 2, argv
        capsys.readouterr()


def test_unparsable_numbers_exit_2_naming_the_input(capsys):
    assert run(COUNT_ARGS[:1] + ["--p", "2", "--k", "2", "--modulus", "1,x,1"]
               + COUNT_ARGS[3:]) == 2
    assert capsys.readouterr().err == \
        "ffb: --modulus must be comma separated integers, got '1,x,1'\n"
    assert run(COUNT_ARGS[:3] + ["--a", "random:abc"] + COUNT_ARGS[5:]) == 2
    assert capsys.readouterr().err == \
        "ffb: BadParam: random: expected comma-separated integers, got 'abc'\n"


PARSE_PATHS = json.loads(
    (Path(__file__).resolve().parent / "golden" / "parse_paths.json").read_text())


@pytest.mark.parametrize("name", PARSE_PATHS)
def test_parse_paths_byte_for_byte(capsys, monkeypatch, name):
    # exit code, stdout and stderr of each argv as first recorded, help and
    # usage lines wrapped at 80 columns: no argv, help, missing and bad
    # flags, abbreviations, "--", --script after the op, unknown ops
    case = PARSE_PATHS[name]
    monkeypatch.setenv("COLUMNS", "80")
    assert run(list(case["argv"])) == case["code"]
    out = capsys.readouterr()
    assert (out.out, out.err) == (case["stdout"], case["stderr"])


def test_oversize_field_input_exits_2_at_once(capsys):
    for p, k, q in (("13", "5000", "13^5000"), ("99999999999999999989", "1",
                                                   "99999999999999999989")):
        start = time.perf_counter()
        assert run(COUNT_ARGS[:1] + ["--p", p, "--k", k] + COUNT_ARGS[3:]) == 2
        assert time.perf_counter() - start < 1
        assert capsys.readouterr().err == f"ffb: Overflow: q = {q} exceeds the cap 1048576\n"


def op_parsers():
    """(op, the parser of ffb op, the parser of ffb scan --op op) for every op."""
    ops = ffb.cli._parsers()[1]
    return [(op, ops[op], ffb.cli._scan_parser(op)) for op in ffb.cli.OPS]


def test_scan_takes_exactly_the_flags_of_its_op():
    for op, single, scan in op_parsers():
        flags = [set(p._option_string_actions) for p in (single, scan)]
        assert flags[1] - flags[0] == {"--seeds", "--jobs"}, op
        assert flags[0] <= flags[1], op


def test_scan_refuses_a_flag_its_op_does_not_take(capsys):
    sets = ["--a", "random:2", "--b", "random:2", "--c", "random:2", "--d", "random:2"]
    for cmd in (["countT"], ["scan", "--op", "countT"]):
        assert run(cmd + ["--p", "5"] + sets + ["--lambda", "3", "--no-timing"]) == 2
        assert "unrecognized arguments: --lambda 3" in capsys.readouterr().err
    assert run(["scan", "--op", "count", "--p", "5"] + sets[:-2] + ["--lambda", "3"]) == 2
    assert "required: --d" in capsys.readouterr().err


def test_scan_help_lists_the_flags_of_its_op(capsys):
    assert run(["scan", "--op", "count", "--help"]) == 0
    out = capsys.readouterr().out
    assert all(flag in out for flag in ("--seeds", "--jobs", "--lambda", "--d SPEC"))
    assert run(["scan", "--op", "exceptional", "--help"]) == 0
    out = capsys.readouterr().out
    assert "--h SPEC" in out and "--lambda" not in out


def test_scan_reads_set_h_and_keeps_the_last_repeated_set(capsys):
    code, recs, _ = run_json(capsys, ["scan", "--op", "exceptional", "--p", "7", "--f",
                                      "random:2", "--g", "random:2", "--h", "random:4"])
    assert code == 0 and recs[0]["sets"]["h"] == "random:4"
    code, recs, _ = run_json(capsys, ["scan", "--op", "bounds", "--p", "7", "--a", "random:2",
                                      "--a", "random:3", "--b", "random:2"])
    assert code == 0 and recs[0]["sets"]["a"] == "random:3"


@pytest.mark.parametrize("scan", [False, True])
def test_negated_spec_may_be_a_separate_argument(capsys, scan):
    head = ["scan", "--op", "count"] if scan else ["count"]
    tail = ["--b", "random:3", "--c", "explicit:1", "--lambda", "1", "--no-timing"]
    joined = run_lines(capsys, head + ["--p", "7", "--a=-random:3", "--d=-explicit:2"] + tail)
    separate = run_lines(capsys, head + ["--p", "7", "--a", "-random:3", "--d", "-explicit:2"]
                         + tail)
    assert joined == separate and joined[0] == 0
    assert json.loads(joined[1][0])["sets"]["a"] == "-random:3"


def test_not_prime_reported_on_stderr(capsys):
    code = run(["count", "--p", "4"] + COUNT_ARGS[3:])
    assert code == 2
    assert "NotPrime" in capsys.readouterr().err


def test_scan_orders_by_index(capsys):
    code, recs, _ = run_json(capsys, [
        "scan", "--p", "5", "--op", "count", "--a", "random:3", "--b", "random:3",
        "--c", "random:3", "--d", "random:3", "--lambda", "all", "--seeds", "3",
        "--no-timing"])
    assert code == 0
    assert [r["index"] for r in recs] == list(range(12))
    assert [r["lambda"] for r in recs[:4]] == [1, 2, 3, 4]
    assert len({r["seed"] for r in recs}) == 3
    assert all(r["n"] == r["n_charform"] for r in recs)


def test_scan_rejects_bad_worker_counts(capsys):
    assert run(["scan", "--p", "5", "--op", "sumprod", "--x", "random:2",
                "--y", "random:2", "--seeds", "0"]) == 2
    capsys.readouterr()
    for jobs in ("0", "-2"):
        assert run(["scan", "--p", "5", "--op", "sumprod", "--x", "random:2",
                    "--y", "random:2", "--jobs", jobs]) == 2
        assert "--jobs must be >= 1" in capsys.readouterr().err


@pytest.mark.parametrize("r_max", ["0", "-3"])
@pytest.mark.parametrize("command", [["bounds"], ["scan", "--op", "bounds"]],
                         ids=["bounds", "scan"])
def test_bounds_rejects_an_r_max_below_1(capsys, command, r_max):
    assert run([*command, "--p", "13", "--a", "random:5", "--b", "random:6",
                "--r-max", r_max]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"ffb: --r-max must be >= 1, got {r_max}\n"


# The log name of a _packed_convolve call that takes two pairs, the plan
# that builds two products together; its lone calls are not logged.
PAIRED = "_packed_convolve/2"


def _log_name(name, args):
    if name != "_packed_convolve":
        return name
    return PAIRED if len(args[0]) == 2 else None


def count_calls(monkeypatch, module, names, log):
    """Wrap module.<name> for each name so every call, in this process or a
    forked worker, appends the name to the file log (PAIRED for a two-pair
    _packed_convolve); returns a reader."""
    for name in names:
        original = getattr(module, name)

        def wrapper(*args, _name=name, _original=original, **kwargs):
            logged = _log_name(_name, args)
            if logged is not None:
                with open(log, "a", encoding="utf-8") as fh:
                    fh.write(logged + "\n")
            return _original(*args, **kwargs)

        monkeypatch.setattr(module, name, wrapper)

    def calls() -> Counter:
        counts = Counter(log.read_text().split()) if log.exists() else Counter()
        log.unlink(missing_ok=True)
        return counts

    return calls


def count_calls_everywhere(monkeypatch, names, log):
    """count_calls on the binding of each name in every loaded ffb module."""
    calls = None
    for _, module in sorted(sys.modules.items()):
        if module is not None and module.__name__.split(".")[0] == "ffb":
            present = [name for name in names if callable(vars(module).get(name))]
            calls = count_calls(monkeypatch, module, present, log)
    return calls


SCAN_ARGS = ["scan", "--p", "5", "--op", "count", "--a", "random:3", "--b", "random:3",
             "--c", "random:3", "--d", "random:3", "--no-timing"]


def test_field_built_once_and_sets_realised_once_per_seed(capsys, monkeypatch, tmp_path):
    calls = count_calls(monkeypatch, ffb.cli, ("make_field", "realize"), tmp_path / "log")
    code, recs, _ = run_json(capsys, COUNT_ARGS[:-2] + ["--lambda", "all", "--no-timing"])
    assert code == 0 and len(recs) == 4
    assert calls() == {"make_field": 1, "realize": 4}
    code, recs, _ = run_json(capsys, SCAN_ARGS + ["--lambda", "all", "--seeds", "3"])
    assert code == 0 and len(recs) == 12
    assert calls() == {"make_field": 1, "realize": 12}


def test_bounds_measures_w_once_for_the_sweep(capsys, monkeypatch, tmp_path):
    argv = ["bounds", "--p", "13", "--a", "random:5", "--b", "random:6", "--c", "random:4",
            "--d", "random:5", "--lambda", "3", "--seed", "2", "--no-timing"]
    calls = count_calls(monkeypatch, ffb.bounds, ("compute_W",), tmp_path / "log")
    code, recs, _ = run_json(capsys, argv)
    assert code == 0
    # one W for the square-root check, its sweep and the Cauchy check
    assert calls() == {"compute_W": 1}
    field = make_field(13)
    a, b = (realize(field, parse_setspec(spec), derive_seed(2, slot))
            for slot, spec in enumerate(("random:5", "random:6")))
    w = compute_W(field, repfn_char_sums(field, shift_repfn(field, rep_product(field, a, b), 3)))
    want = []
    for r in range(1, 9):
        kr = karatsuba_bound(field, w, a.size, b.size, r)
        want.append({"r": r, "bound": kr.bound_value, "ratio": kr.ratio})
    assert recs[0]["karatsuba"] == want


def test_count_builds_each_piece_once_for_every_lambda(capsys, monkeypatch, tmp_path):
    calls = count_calls_everywhere(
        monkeypatch, ("rep_product", "rep_products", "_packed_convolve", "set_char_sums"),
        tmp_path / "log")
    code, recs, _ = run_json(capsys, COUNT_ARGS[:-2] + ["--lambda", "all", "--no-timing"])
    assert code == 0 and len(recs) == 4
    # r_AB and r_{(-C)D} from one two-pair packed plan, S_{-C} and S_D once, for the 4 lambdas
    assert calls() == {"rep_products": 1, PAIRED: 1, "set_char_sums": 2}


AB_ARGS = ["--a", "random:5", "--b", "random:6"]
LAMBDA_ARGS = ["--lambda", "3", "--seed", "2", "--no-timing"]
PAIRED_ARGS = [*AB_ARGS, "--c", "random:4", "--d", "random:5", *LAMBDA_ARGS]


@pytest.mark.parametrize("argv, built", [
    (["count", "--p", "13", *PAIRED_ARGS], {PAIRED: 1}),
    (["det2", "--p", "13", *PAIRED_ARGS], {PAIRED: 1}),
    (["solvability", "--p", "13", *PAIRED_ARGS], {PAIRED: 1}),
    (["det2", "--p", "2", "--k", "4", *PAIRED_ARGS], {PAIRED: 1}),
    # W builds r_AB alone first, then the Cauchy check r_{(-C)D} alone
    (["bounds", "--p", "13", *PAIRED_ARGS], {"rep_product": 2}),
    # the fold's two pairs together, then the cross-check's r_{(-A1)B1} alone
    (["countn", "--p", "13", *AB_ARGS, "--a", "random:4", "--b", "random:5", *LAMBDA_ARGS],
     {PAIRED: 1, "rep_product": 1}),
    # at p = 2 the cross-check's products are the fold's
    (["countn", "--p", "2", "--k", "4", *AB_ARGS, "--a", "random:4", "--b", "random:5",
      *LAMBDA_ARGS], {PAIRED: 1}),
    # three pairs: two together, the third alone
    (["countn", "--p", "13", *AB_ARGS * 3, *LAMBDA_ARGS],
     {PAIRED: 1, "rep_product": 1}),
], ids=["count", "det2", "solvability", "det2-f16", "bounds", "countn", "countn-f16",
        "countn-3"])
def test_bilinear_counts_build_their_products_together(capsys, monkeypatch, tmp_path,
                                                      argv, built):
    calls = count_calls_everywhere(monkeypatch, ("rep_product", "_packed_convolve"),
                                   tmp_path / "log")
    code, recs, _ = run_json(capsys, argv)
    assert code == 0 and len(recs) == 1
    assert calls() == built


def test_a_pair_named_twice_builds_its_product_once(monkeypatch, tmp_path):
    # "-a" is a when p = 2, so a*b + (-a)*b = lam asks for r_AB twice
    field = make_field(2, 4)
    inst = Instance(field, {name: realize(field, parse_setspec("random:6"), derive_seed(4, i))
                            for i, name in enumerate("ab")})
    calls = count_calls_everywhere(monkeypatch, ("rep_product", "_packed_convolve"),
                                   tmp_path / "log")
    n = inst.bilinear("a", "b", "-a", "b", 5)
    assert calls() == {"rep_product": 1}
    a, b = inst.sets["a"], inst.sets["b"]
    assert n == ffb.counters.count_bilinear(field, a, b, a, b, 5)


@pytest.mark.parametrize("p, q", [("13", 13), ("3 --k 2", 9)])
def test_count_sweep_shifts_once_per_lambda(capsys, monkeypatch, tmp_path, p, q):
    # lam enters through one shift of r_AB per lam, shared by both routes:
    # over Z_13 a rotation, over F_9 its one length-q add_codes gather, and
    # no other length-q permutation; -C is built once per instance
    calls = count_calls_everywhere(monkeypatch, ("shift_repfn", "add_codes", "negate_subset"),
                                   tmp_path / "log")
    argv = ["count", "--p", *p.split(), "--a", "random:5", "--b", "random:4",
            "--c", "random:6", "--d", "random:3", "--no-timing"]
    code, recs, _ = run_json(capsys, argv + ["--lambda", "all"])
    assert code == 0 and all(rec["n"] == rec["n_charform"] for rec in recs)
    swept = calls()
    assert swept["shift_repfn"] == len(recs) == q - 1
    assert swept["add_codes"] == (0 if q == 13 else q - 1)
    code, _, _ = run_json(capsys, argv + ["--lambda", "1"])
    assert code == 0
    assert calls()["negate_subset"] == swept["negate_subset"] == 1


def test_characteristic_two_negates_nothing(capsys, monkeypatch, tmp_path):
    # -X = X over F_{2^k}: the sum-product and exceptional counts take X itself
    calls = count_calls_everywhere(monkeypatch, ("neg_codes",), tmp_path / "log")
    for argv in (["sumprod", "--x", "random:10", "--y", "random:12"],
                 ["exceptional", "--f", "random:4", "--g", "random:5", "--h", "random:4"]):
        code, recs, _ = run_json(capsys, [*argv, "--p", "2", "--k", "6", "--no-timing"])
        assert code == 0 and len(recs) == 1
        assert calls()["neg_codes"] == 0


def test_negation_is_a_set_name(capsys, monkeypatch, tmp_path):
    # count negates C as a set once, never r_CD as a length-q permutation
    # (over Z_13 by a reflection, no neg_codes at all); det2's --b and every
    # -x in characteristic 2 name the set itself
    sizes = []
    neg_codes = ffb.repfn.neg_codes
    monkeypatch.setattr(ffb.repfn, "neg_codes",
                        lambda field, codes: sizes.append(len(codes)) or neg_codes(field, codes))
    negations = count_calls(monkeypatch, ffb.repfn, ("negate_subset",), tmp_path / "log")
    sets = ["--a", "random:5", "--b", "random:4", "--c", "random:6", "--d", "random:3"]
    for p, q in (("13", 13), ("3 --k 2", 9)):
        code, recs, _ = run_json(capsys, ["count", "--p", *p.split(), *sets, "--lambda", "all"])
        assert code == 0 and all(rec["n"] == rec["n_charform"] for rec in recs)
        assert q not in sizes and bool(sizes) == (q == 9)
        assert negations() == {"negate_subset": 1}
        sizes.clear()
    for argv in (["det2", "--p", "13"], ["count", "--p", "2", "--k", "6"]):
        code, recs, _ = run_json(capsys, [*argv, *sets, "--lambda", "all"])
        assert code == 0 and recs
        assert negations() == {}


@pytest.mark.parametrize("field", ["--p 8191", "--p 2 --k 12"])
def test_no_command_builds_dlog(capsys, monkeypatch, field):
    fields = []
    make = ffb.cli.make_field
    monkeypatch.setattr(ffb.cli, "make_field", lambda **kw: fields.append(make(**kw)) or fields[-1])
    abcd = ["--a", "random:20", "--b", "random:20", "--c", "random:20", "--d", "random:20"]
    for argv in (["count", *abcd, "--lambda", "5"], ["bounds", *abcd, "--lambda", "5"],
                 ["solvability", *abcd, "--lambda", "5"],
                 ["sumprod", "--x", "random:20", "--y", "random:20"],
                 ["exceptional", "--f", "random:5", "--g", "random:20", "--h", "random:20"]):
        code, recs, _ = run_json(capsys, [*argv, *field.split(), "--no-timing"])
        assert code == 0 and len(recs) == 1
        assert "dlog" not in vars(fields.pop()), argv[0]


def test_countn_guards_each_entry_not_the_mass(capsys):
    # four copies of F_q^* at q = 65521: mass (q-1)^4 > 2^63, entries below (q-1)^3
    q = 65521
    argv = ["countn", "--p", str(q)] + ["--a", "subgroup:1", "--b", "subgroup:1"] * 2
    for lam, want in (("5", (q - 2) * (q - 1) ** 2), ("0", (q - 1) ** 3)):
        code, recs, _ = run_json(capsys, argv + ["--lambda", lam, "--no-timing"])
        assert code == 0
        assert recs[0]["n"] == want
    # a third pair {1} x {1} folds in after the sum has passed 2^63, so
    # N(lam + 1) with it is N(lam) without it
    third = ["--a", "explicit:1", "--b", "explicit:1"]
    for lam, want in (("6", (q - 2) * (q - 1) ** 2), ("1", (q - 1) ** 3)):
        code, recs, _ = run_json(capsys, argv + third + ["--lambda", lam, "--no-timing"])
        assert code == 0
        assert recs[0]["n"] == want
    # over F_{2^16} the Walsh-Hadamard convolution splits one operand into
    # limbs, so the same entry guard holds there
    q = 1 << 16
    for lam, want in (("5", (q - 2) * (q - 1) ** 2), ("0", (q - 1) ** 3)):
        code, recs, _ = run_json(capsys, ["countn", "--p", "2", "--k", "16"] + argv[3:]
                                 + ["--lambda", lam, "--no-timing"])
        assert code == 0
        assert recs[0]["n"] == want


@pytest.mark.parametrize("op, shape, size", [("bounds", (2, 20), 262144),
                                              ("solvability", (1048573, 1), 262143)],
                         ids=["bounds-2^20", "solvability-1048573"])
def test_error_term_is_exact_at_the_cap(capsys, op, shape, size):
    # err = (n - s0 * zpp) - main from the exact n; the float character route
    # printed a bounds cauchy.err off by tens and refused the solvability line
    # with RoundingDrift
    argv = [op, "--p", str(shape[0]), "--k", str(shape[1])]
    argv += [arg for x in "abcd" for arg in (f"--{x}", f"random:{size}")]
    code, (rec,), _ = run_json(capsys, argv + ["--lambda", "5", "--no-timing"])
    assert code == 0
    field = make_field(*shape)
    sets = {x: realize(field, parse_setspec(f"random:{size}"), derive_seed(0, slot))
            for slot, x in enumerate("abcd")}
    inst = Instance(field, sets)
    n, s0 = inst.bilinear(*"abcd", 5), int(inst.product("a", "b").counts[5])
    c, d = sets["c"], sets["d"]
    zc, zd = bool(c.membership[0]), bool(d.membership[0])
    zpp = zc * d.size + zd * c.size - (zc and zd)
    main = (sets["a"].size * sets["b"].size - s0) * (c.size - zc) * (d.size - zd) / (field.q - 1)
    err = (n - s0 * zpp) - main
    if op == "bounds":
        assert rec["cauchy"]["err"] == abs(err) == 29885583.5
    else:
        assert (rec["n"], rec["main"]) == (n, main)
        assert rec["empirical_delta"] == math.log(main / abs(err)) / math.log(field.q)


@pytest.mark.parametrize("op, shape, size, seed", [("count", (1048573, 1), 262000, 1),
                                                    ("countT", (1048573, 1), 262000, 0),
                                                    ("count", (2, 20), 16000, 0)],
                         ids=["count-1048573", "countT-1048573", "count-2^20"])
def test_charform_equals_the_exact_count_at_the_cap(capsys, op, shape, size, seed):
    # the character route's only float step is the pair kernel, whose
    # entries stay below 2^20, so its gate certifies counts near 2^52
    argv = [op, "--p", str(shape[0]), "--k", str(shape[1]), "--seed", str(seed)]
    argv += [arg for x in "abcd" for arg in (f"--{x}", f"random:{size}")]
    argv += ["--lambda", "5"] if op == "count" else []
    code, (rec,), err = run_json(capsys, argv + ["--no-timing"])
    key = "n" if op == "count" else "t"
    assert (code, err) == (0, "")
    assert rec[key] == rec[f"{key}_charform"]


def test_count_sweep_takes_no_transform_per_lambda(capsys, monkeypatch, tmp_path):
    # the character route's lambda-free piece is the pair kernel of S_{-C}
    # and S_D; no lambda builds a character table of s_lambda
    names = ("set_char_sums", "repfn_char_sums")
    calls = count_calls_everywhere(monkeypatch, names, tmp_path / "log")
    sets = [arg for x in "abcd" for arg in (f"--{x}", "random:20")]
    code, recs, _ = run_json(capsys, ["count", "--p", "101", *sets, "--lambda", "all",
                                      "--no-timing"])
    assert code == 0 and len(recs) == 100
    assert all(rec["n"] == rec["n_charform"] for rec in recs)
    assert calls() == {"set_char_sums": 2}
    code, recs, _ = run_json(capsys, ["scan", "--op", "count", "--p", "101", *sets,
                                      "--lambda", "all", "--seeds", "2", "--jobs", "1",
                                      "--no-timing"])
    assert code == 0 and len(recs) == 200
    assert calls() == {"set_char_sums": 4}


def test_bounds_builds_one_table_per_lambda_and_one_for_v(capsys, monkeypatch, tmp_path):
    # W's table once per lambda, though the Cauchy check reads W again, and
    # V's once; the error term comes from the exact count, which takes no table
    names = ("set_char_sums", "repfn_char_sums")
    calls = count_calls_everywhere(monkeypatch, names, tmp_path / "log")
    sets = [arg for x in "abcd" for arg in (f"--{x}", "random:20")]
    code, recs, _ = run_json(capsys, ["bounds", "--p", "101", *sets, "--lambda", "all",
                                      "--no-timing"])
    assert code == 0 and len(recs) == 100
    assert calls() == {"repfn_char_sums": 101}


def test_sumprod_builds_sumset_and_productset_once(capsys, monkeypatch, tmp_path):
    calls = count_calls_everywhere(monkeypatch, ("rep_sum", "rep_product"), tmp_path / "log")
    code, recs, _ = run_json(capsys, ["sumprod", "--p", "13", "--x", "random:5",
                                      "--y", "random:4", "--no-timing"])
    assert code == 0 and recs[0]["c0_ratio"] is not None
    # U = X + Y and V = X * Y, then r_{U+(-X)} and r_{V*X*^-1}
    assert calls() == {"rep_sum": 2, "rep_product": 2}


def test_count_additive_builds_the_sum_once(capsys, monkeypatch, tmp_path):
    calls = count_calls_everywhere(monkeypatch, ("rep_sum",), tmp_path / "log")
    code, recs, _ = run_json(capsys, ["countT", "--p", "13", "--a", "random:5", "--b",
                                      "random:4", "--c", "random:6", "--d", "random:3",
                                      "--no-timing"])
    assert code == 0 and recs[0]["t"] == recs[0]["t_charform"]
    assert calls() == {"rep_sum": 1}


@pytest.mark.parametrize("p", ["13", "2 --k 6"])
def test_exceptional_builds_the_product_once(capsys, monkeypatch, tmp_path, p):
    calls = count_calls_everywhere(monkeypatch, ("rep_product",), tmp_path / "log")
    code, recs, _ = run_json(capsys, ["exceptional", "--p", *p.split(), "--f", "random:3",
                                      "--g", "random:4", "--h", "random:2", "--seed", "5",
                                      "--no-timing"])
    assert code == 0 and recs[0]["sarkozy_ok"] is True
    # r_GH serves both the exceptional set and the Sarkozy check
    assert calls() == {"rep_product": 1}


@pytest.mark.parametrize("shape", [(7, 1), (3, 2), (2, 4)], ids=["f7", "f9", "f16"])
@pytest.mark.parametrize("op", ["count", "det2", "solvability", "bounds"])
def test_every_lambda_record_matches_its_single_lambda_command(capsys, op, shape):
    # pieces kept across a sweep must not carry state from another lambda
    argv = [op, "--p", str(shape[0]), "--k", str(shape[1]), "--a", "random:3",
            "--b", "random:4", "--c", "random:3", "--d", "random:2", "--seed", "5",
            "--no-timing"]
    code, swept, _ = run_json(capsys, argv + ["--lambda", "all"])
    assert code == 0
    q = shape[0] ** shape[1]
    assert [rec["lambda"] for rec in swept] == list(range(1, q))
    for rec in swept:
        code, single, _ = run_json(capsys, argv + ["--lambda", str(rec["lambda"])])
        assert code == 0
        assert single == [rec]


@pytest.mark.parametrize("lam", ["1", "all"], ids=["2-instances", "8-instances"])
def test_pooled_scan_matches_serial(capsys, monkeypatch, tmp_path, lam):
    # 2 instances in 2 runs, and 8 in 3 uneven runs (2, 3, 3)
    argv = SCAN_ARGS + ["--lambda", lam, "--seeds", "2"]
    calls = count_calls(monkeypatch, ffb.cli, ("make_field",), tmp_path / "log")
    code, serial, _ = run_lines(capsys, argv + ["--jobs", "1"])
    assert code == 0
    assert calls() == {"make_field": 1}
    code, pooled, _ = run_lines(capsys, argv + ["--jobs", "3"])
    assert code == 0
    assert pooled == serial
    if multiprocessing.get_start_method() == "fork":
        # forked workers keep the wrapper: one build here, one per run of instances
        assert calls() == {"make_field": 1 + min(3, len(serial))}


def test_pooled_scan_writes_the_records_before_a_failure(capsys, monkeypatch):
    # forked workers see the patched _compute, whatever the default start method
    compute = ffb.cli._compute

    def failing(op, inst, lam, extra):
        if lam == 3:
            raise RoundingDrift(f"injected at lambda {lam}")
        return compute(op, inst, lam, extra)

    monkeypatch.setattr(ffb.cli, "_compute", failing)
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", functools.partial(
        concurrent.futures.ProcessPoolExecutor, mp_context=multiprocessing.get_context("fork")))
    argv = SCAN_ARGS + ["--lambda", "all", "--seeds", "2"]
    code, serial, serial_err = run_lines(capsys, argv + ["--jobs", "1"])
    assert code == 1
    assert [json.loads(line)["lambda"] for line in serial] == [1, 2]
    assert "RoundingDrift: injected at lambda 3" in serial_err
    code, pooled, pooled_err = run_lines(capsys, argv + ["--jobs", "2"])
    assert code == 1
    assert (pooled, pooled_err) == (serial, serial_err)


def test_unhealthy_record_names_its_failed_check(capsys, monkeypatch):
    # stdout and the exit code as ever, and one stderr line per failing record
    additive_count = ffb.counters.additive_count
    monkeypatch.setattr(ffb.counters, "additive_count", lambda *args: additive_count(*args) + 1)
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", functools.partial(
        concurrent.futures.ProcessPoolExecutor, mp_context=multiprocessing.get_context("fork")))
    code, recs, err = run_json(capsys, COUNT_ARGS + ["--no-timing"])
    assert code == 1 and recs[0]["n"] == recs[0]["n_charform"] + 1
    assert err == "ffb: check failed: n != n_charform (lambda 1)\n"
    code, recs, err = run_json(capsys, SCAN_ARGS + ["--lambda", "all", "--seeds", "2",
                                                    "--jobs", "2"])
    assert code == 1 and len(recs) == 8
    assert err.splitlines() == [
        f"ffb: check failed: n != n_charform (index {rec['index']}, lambda {rec['lambda']})"
        for rec in recs]


def test_script_replay(tmp_path, capsys):
    script = tmp_path / "batch.txt"
    script.write_text(
        "# two instances and a blank line\n"
        "\n"
        "count --p 5 --a interval:1..4 --b interval:1..4 --c interval:1..4"
        " --d interval:1..4 --lambda 1 --no-timing\n"
        "sumprod --p 5 --x explicit:1,2 --y explicit:1 --no-timing\n"
    )
    code, recs, _ = run_json(capsys, ["--script", str(script)])
    assert code == 0
    assert recs[0]["n"] == 48
    assert recs[1]["count"] == 5

    bad = tmp_path / "bad.txt"
    bad.write_text("count --p 4 --a explicit:1 --b explicit:1 --c explicit:1"
                   " --d explicit:1 --lambda 1\n")
    assert run(["--script", str(bad)]) == 2
    capsys.readouterr()
    assert run(["--script", str(tmp_path / "missing.txt")]) == 2
    capsys.readouterr()


def test_selftest_small_grid(capsys):
    code, lines, _ = run_lines(capsys, ["selftest", "--q-max", "5", "--tuples", "2"])
    assert code == 0
    assert lines[-1] == "selftest: 8/8 criteria passed"
    assert all(ln.startswith("PASS ") for ln in lines[:-1])


@pytest.mark.parametrize("flag, value, least", [("--tuples", "-1", 1), ("--tuples", "0", 1),
                                                ("--q-max", "2", 3)])
def test_selftest_refuses_a_run_that_checks_nothing(capsys, flag, value, least):
    # no tuple, or no field of the grid (smallest q = 3), would pass all 8 criteria
    assert run(["selftest", flag, value]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"ffb: {flag} must be >= {least}, got {value}\n"


def test_broken_pipe_exits_without_traceback():
    # ffb scan ... | head must not dump a stack trace when head closes the pipe
    proc = subprocess.Popen(
        [sys.executable, "-m", "ffb", "scan", "--p", "101", "--op", "count",
         "--a", "random:8", "--b", "random:8", "--c", "random:8",
         "--d", "random:8", "--lambda", "all", "--seeds", "20", "--no-timing"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    first = proc.stdout.readline()
    proc.stdout.close()
    err = proc.stderr.read()
    code = proc.wait(timeout=120)
    assert first.startswith(b'{"op": "count"')
    assert code == 1
    assert b"Traceback" not in err
