"""Command line front end.

One line of output per computed instance, JSON by default and CSV with
--format csv.  Identical argv and seed give byte-identical output once
timing is excluded (--no-timing); scan results are emitted in instance
order no matter how many worker processes run.

Exit codes: 0 success, 1 hard failure (a proven bound or cross-check did
not hold, named on stderr), 2 usage error (bad flags, bad set spec, bad
field parameters).
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import os
import sys
import time
from typing import Iterator

from . import bounds, counters, sumprod
from .errors import FfbError, UsageError
from .field import FieldSpec, make_field
from .instance import Instance
from .setsgen import SetSpec, derive_seed, parse_setspec, realize

ABCD = ("a", "b", "c", "d")
# Each op's set slots and its --lambda: True required, False optional, None
# absent.  The slots name every set flag, bounds' optional --c/--d included.
OPS = {
    "count": (ABCD, True), "det2": (ABCD, True), "solvability": (ABCD, True),
    "countT": (ABCD, None), "countn": (("a", "b"), True),
    "exceptional": (("f", "g", "h"), None), "bounds": (("a", "b"), False),
    "sumprod": (("x", "y"), None),
}
SET_FLAGS = frozenset(f"--{slot}" for slots, _ in OPS.values() for slot in slots)


class _Usage(Exception):
    pass


def _declare(parser: argparse.ArgumentParser, op: str, scan: bool) -> argparse.ArgumentParser:
    """Declare op's flags on parser, from OPS: field, sets, --lambda, the
    extras of bounds and, for scan, --seeds and --jobs."""
    slots, lam = OPS[op]
    parser.add_argument("--p", type=int, required=True, help="field characteristic")
    parser.add_argument("--k", type=int, default=1, help="extension degree")
    parser.add_argument("--modulus", type=str, default=None,
                        help="comma separated modulus coefficients, constant first")
    parser.add_argument("--max-q", type=int, default=None, help="override the q cap")
    parser.add_argument("--seed", type=int, default=0, help="base seed for random sets")
    parser.add_argument("--format", choices=("json", "csv"), default="json")
    parser.add_argument("--no-timing", action="store_true",
                        help="omit elapsed_us from the output")
    repeatable = op == "countn"
    for slot in slots:
        parser.add_argument(f"--{slot}", action="append" if repeatable else "store",
                            required=True, metavar="SPEC",
                            help=f"set {slot}" + " (repeatable)" * repeatable)
    if lam is not None:
        parser.add_argument("--lambda", dest="lam", required=lam, help="target code, or all / all0")
    if op == "bounds":
        parser.add_argument("--c", default=None, metavar="SPEC")
        parser.add_argument("--d", default=None, metavar="SPEC")
        parser.add_argument("--r-max", type=int, default=8, help="sweep moment parameter 1..r_max")
        parser.add_argument("--use-p", action="store_true",
                            help="use the characteristic instead of q in the moment bound")
    if scan:
        parser.add_argument("--seeds", type=int, default=1, help="number of seeded instances")
        parser.add_argument("--jobs", type=int, default=1, help="worker processes")
    return parser


# Built once per process: parse_args does not change the parsers, and each
# build takes milliseconds and leaves cyclic garbage (argparse's
# per-argument HelpFormatter checks) until the next full collection.
@functools.cache
def _parsers() -> tuple[argparse.ArgumentParser, dict[str, argparse.ArgumentParser]]:
    """The top-level parser and, by op, the subparser it declares for that op."""
    top = argparse.ArgumentParser(prog="ffb", description=__doc__.splitlines()[0])
    top.add_argument("--script", type=str, default=None,
                     help="file of command lines to replay; other args ignored")
    sub = top.add_subparsers(dest="op")
    ops = {op: _declare(sub.add_parser(op), op, False) for op in OPS}
    # scan holds only --op; the rest, --help and set h's --h included, goes to _scan_parser
    sub.add_parser("scan", add_help=False, allow_abbrev=False).add_argument(
        "--op", dest="scan_op", required=True, choices=tuple(OPS))

    p = sub.add_parser("selftest")
    p.add_argument("--q-max", type=int, default=13)
    p.add_argument("--tuples", type=int, default=None)  # None: selfcheck.GRID_TUPLES
    p.add_argument("--seed", type=int, default=0)

    return top, ops


@functools.cache
def _scan_parser(op: str) -> argparse.ArgumentParser:
    """The flags of scan --op op: op's own, --seeds and --jobs."""
    return _declare(argparse.ArgumentParser(prog=f"ffb scan --op {op}"), op, True)


# ----------------------------------------------------------------------
# instance computation
# ----------------------------------------------------------------------

def _parse_lambda(field: FieldSpec, text: str | None) -> list[int | None]:
    if text is None:
        return [None]
    if text == "all":
        return list(range(1, field.q))
    if text == "all0":
        return list(range(field.q))
    try:
        lam = int(text)
    except ValueError:
        raise _Usage(f"--lambda must be an integer, all, or all0; got {text!r}")
    if not 0 <= lam < field.q:
        raise _Usage(f"--lambda {lam} outside [0, {field.q})")
    return [lam]


def _sanitize(value):
    if isinstance(value, float) and not math.isfinite(value):
        return None
    return value


def _failed(*checks: tuple[str, bool]) -> list[str]:
    """The names of the (name, holds) checks that do not hold."""
    return [name for name, holds in checks if not holds]


def _compute(op: str, inst: Instance, lam: int | None, extra: dict) -> tuple[dict, list[str]]:
    """Result fields for one instance at lam, and the failed checks, named
    by record keys; the record is healthy when none failed."""
    field, sets = inst.field, inst.sets
    if op == "count":
        n = inst.bilinear(*ABCD, lam)
        n_char, main, err = inst.bilinear_charform(*ABCD, lam)
        return ({"n": n, "n_charform": n_char, "main": main, "err": err},
                _failed(("n != n_charform", n == n_char)))
    if op == "countT":
        t = inst.additive(*ABCD)
        t_char, main, err = inst.additive_charform(*ABCD)
        return ({"t": t, "t_charform": t_char, "main": main, "err": err},
                _failed(("t != t_charform", t == t_char)))
    if op == "countn":
        pairs = extra["pairs"]
        n = int(inst.fold(pairs).counts[lam])
        ok = len(pairs) != 2 or n == inst.bilinear(*pairs[0], *pairs[1], lam)
        return {"n": n, "n_pairs": len(pairs)}, _failed(("n != the two-pair bilinear count", ok))
    if op == "det2":
        # a*d - b*c = lam is a*d + (-b)*c = lam
        return {"n": inst.bilinear("a", "d", "-b", "c", lam)}, []
    if op == "exceptional":
        r_gh = inst.product("g", "h")
        e = counters.exceptional_set(field, sets["f"], r_gh)
        ok = counters.verify_sarkozy_identity(field, sets["f"], e, r_gh)
        ratio = e.size * sets["f"].size * sets["g"].size * sets["h"].size / field.q ** 3
        return {"e_size": e.size, "sarkozy_ok": ok, "ratio": ratio}, _failed(("sarkozy_ok", ok))
    if op == "solvability":
        rep = inst.solvability(*ABCD, lam)
        n = inst.bilinear(*ABCD, lam)
        return ({"n": n, "main": rep.bound_value, "threshold": rep.w_or_v,
                 "fires": rep.holds, "empirical_delta": _sanitize(rep.empirical_delta)},
                _failed(("fires and n == 0", not rep.holds or n > 0)))
    if op == "sumprod":
        x, y, u, v = sets["x"], sets["y"], inst.subset("x+y"), inst.subset("x*y")
        count, lower = sumprod.garaev_solution_count(field, x, y, u, v)
        c0 = None
        if field.k == 1:
            c0 = _sanitize(sumprod.garaev_inequality_report(field, x, y, u, v))
        return ({"count": count, "lower": lower, "ok": count >= lower,
                 "u_size": u.size, "v_size": v.size, "c0_ratio": c0},
                _failed(("ok", count >= lower)))
    if op == "bounds":
        return _compute_bounds(inst, lam, extra)
    raise AssertionError(f"unknown op {op}")


def _compute_bounds(inst: Instance, lam: int | None, extra: dict) -> tuple[dict, list[str]]:
    field, a, b = inst.field, inst.sets["a"], inst.sets["b"]
    out: dict = {}
    rep_v = bounds.vinogradov_bound(field, inst.v("a", "b"), a.size, b.size)
    out["v"] = rep_v.w_or_v
    out["v_argmax"] = rep_v.argmax_j
    out["vinogradov_v"] = {"bound": rep_v.bound_value, "ratio": rep_v.ratio,
                           "holds": rep_v.holds}
    checks = [("vinogradov_v.holds", rep_v.holds)]
    if lam is not None:
        w = inst.w("a", "b", lam)
        rep_w = bounds.vinogradov_bound(field, w, a.size, b.size)
        out["w"] = rep_w.w_or_v
        out["w_argmax"] = rep_w.argmax_j
        out["vinogradov_w"] = {"bound": rep_w.bound_value, "ratio": rep_w.ratio,
                               "holds": rep_w.holds}
        checks.append(("vinogradov_w.holds", rep_w.holds))
        sweep = (bounds.karatsuba_bound(field, w, a.size, b.size, r, extra["use_p"])
                 for r in range(1, extra["r_max"] + 1))
        out["karatsuba"] = [{"r": kr.r, "bound": kr.bound_value, "ratio": kr.ratio}
                            for kr in sweep]
        if "c" in inst.sets:
            rep_c = inst.cauchy(*ABCD, lam)
            out["cauchy"] = {"err": rep_c.w_or_v, "bound": rep_c.bound_value,
                             "ratio": rep_c.ratio, "holds": rep_c.holds,
                             "strict": rep_c.strict}
            checks.append(("cauchy.holds", rep_c.holds))
    return out, _failed(*checks)


# ----------------------------------------------------------------------
# records and output
# ----------------------------------------------------------------------

def _walk(field: FieldSpec, instances: list[tuple[int, int | None, int | None]],
          op: str, specs: list[tuple[str, SetSpec]], extra: dict,
          with_timing: bool) -> Iterator[tuple[dict, list[str]]]:
    """(record, failed checks) for each (seed, index, lam) instance, in order.

    A run of instances with one seed shares one Instance: one realisation
    of its sets and every piece built from them, so across its lams only
    the work that depends on lam repeats.
    """
    inst_seed, inst = None, None
    for seed, index, lam in instances:
        if seed != inst_seed:
            inst_seed = seed
            inst = Instance(field, {name: realize(field, spec, derive_seed(seed, slot))
                                    for slot, (name, spec) in enumerate(specs)})
        start = time.perf_counter()
        results, failed = _compute(op, inst, lam, extra)
        elapsed = time.perf_counter() - start
        record: dict = {"op": op}
        if index is not None:
            record["index"] = index
        record["field"] = {"p": field.p, "k": field.k, "q": field.q,
                           "modulus": list(field.modulus)}
        record["sets"] = {name: spec.text() for name, spec in specs}
        record["seed"] = seed
        if OPS[op][1] is not None:
            record["lambda"] = lam
        record.update(results)
        if with_timing:
            record["elapsed_us"] = int(elapsed * 1e6)
        yield record, failed


def _run_chunk(task: tuple) -> tuple[list[tuple[dict, list[str]]], FfbError | None]:
    """One pool task: a contiguous run of instances on a field rebuilt from
    the validated parameters, so no table crosses a process boundary.

    Returns the outcomes computed before the first failure together with
    that failure (None when every instance ran).
    """
    field_params, instances, walk_args = task
    done: list[tuple[dict, list[str]]] = []
    try:
        for outcome in _walk(make_field(**field_params), instances, *walk_args):
            done.append(outcome)
    except FfbError as exc:
        return done, exc
    return done, None


def _until_failure(chunks) -> Iterator[tuple[dict, list[str]]]:
    """The outcomes of the pool tasks in order, raising the first failure
    once every outcome before it is out."""
    for done, error in chunks:
        yield from done
        if error is not None:
            raise error


def _flatten(record: dict, prefix: str = "") -> dict:
    flat: dict = {}
    for key, value in record.items():
        name = f"{prefix}{key}"
        if isinstance(value, dict):
            flat.update(_flatten(value, name + "."))
        elif isinstance(value, list):
            flat[name] = json.dumps(value)
        else:
            flat[name] = value
    return flat


def _emit(fmt: str, outcomes: Iterator[tuple[dict, list[str]]]) -> int:
    """Write each record as a JSON line or a CSV row under one header, as
    it comes, and for an unhealthy one a stderr line naming its failed
    checks; the exit code is 0 when every outcome was healthy, else 1."""
    writer, all_ok = None, True
    for record, failed in outcomes:
        if fmt == "json":
            sys.stdout.write(json.dumps(record) + "\n")
        else:
            flat = _flatten(record)
            if writer is None:
                import csv

                writer = csv.DictWriter(sys.stdout, fieldnames=list(flat))
                writer.writeheader()
            writer.writerow(flat)
        if failed:
            all_ok = False
            at = [f"{key} {record[key]}" for key in ("index", "lambda") if key in record]
            print(f"ffb: check failed: {', '.join(failed)}"
                  + (f" ({', '.join(at)})" if at else ""), file=sys.stderr)
    return 0 if all_ok else 1


# ----------------------------------------------------------------------
# subcommand drivers
# ----------------------------------------------------------------------

def _field_params(args) -> dict:
    modulus = None
    if args.modulus is not None:
        try:
            modulus = [int(tok) for tok in args.modulus.split(",")]
        except ValueError:
            raise _Usage(f"--modulus must be comma separated integers, got {args.modulus!r}")
    return {"p": args.p, "k": args.k, "modulus": modulus, "max_q": args.max_q}


def _slots_from_args(args, op: str) -> tuple[list[tuple[str, str]], dict]:
    if op == "countn":
        if len(args.a) != len(args.b):
            raise _Usage("countn needs equally many --a and --b, at least one each")
        pairs = [(f"a{i}", f"b{i}") for i in range(len(args.a))]
        slots = [slot for names, specs in zip(pairs, zip(args.a, args.b))
                 for slot in zip(names, specs)]
        return slots, {"pairs": pairs}
    slots = [(name, getattr(args, name)) for name in OPS[op][0]]
    if op != "bounds":
        return slots, {}
    if args.r_max < 1:
        raise _Usage(f"--r-max must be >= 1, got {args.r_max}")
    if (args.c is None) != (args.d is None):
        raise _Usage("bounds needs --c and --d together or neither")
    if args.c is not None:
        if args.lam is None:
            raise _Usage("bounds --c/--d measure the error term at a target: give --lambda")
        slots += [("c", args.c), ("d", args.d)]
    return slots, {"r_max": args.r_max, "use_p": args.use_p}


def _run_instances(args) -> int:
    """Every subcommand but selftest: one field build, the set specs parsed
    once, then (seed, index, lam) instances in order.

    A single command is the unindexed seed --seed; scan numbers the seeds
    derive_seed(--seed, s), s < --seeds.  Serially each record is written
    as it is computed; --jobs N > 1 walks at most N contiguous runs of
    instances in worker processes and writes their records in index order.
    Either way a failing instance ends the command after the records of
    every instance before it.
    """
    scan = args.op == "scan"
    op = args.scan_op if scan else args.op
    field_params = _field_params(args)
    slots, extra = _slots_from_args(args, op)
    field = make_field(**field_params)
    lams = _parse_lambda(field, getattr(args, "lam", None))
    if scan:
        if args.seeds < 1:
            raise _Usage(f"--seeds must be >= 1, got {args.seeds}")
        if args.jobs < 1:
            raise _Usage(f"--jobs must be >= 1, got {args.jobs}")
        instances = [(derive_seed(args.seed, s), s * len(lams) + i, lam)
                     for s in range(args.seeds) for i, lam in enumerate(lams)]
    else:
        instances = [(args.seed, None, lam) for lam in lams]
    specs = [(name, parse_setspec(text)) for name, text in slots]
    walk_args = (op, specs, extra, not args.no_timing)
    chunks = min(args.jobs if scan else 1, len(instances))
    if chunks == 1:
        outcomes = _walk(field, instances, *walk_args)
    else:
        import concurrent.futures  # only a pooled scan needs it

        cuts = [len(instances) * c // chunks for c in range(chunks + 1)]
        tasks = [(field_params, instances[lo:hi], walk_args) for lo, hi in zip(cuts, cuts[1:])]
        with concurrent.futures.ProcessPoolExecutor(max_workers=chunks) as pool:
            outcomes = _until_failure(list(pool.map(_run_chunk, tasks)))
    return _emit(args.format, outcomes)


def _run_selftest(args) -> int:
    from . import selfcheck  # only selftest compiles and runs it

    tuples = selfcheck.GRID_TUPLES if args.tuples is None else args.tuples
    if tuples < 1:
        raise _Usage(f"--tuples must be >= 1, got {tuples}")
    if args.q_max < 3:
        raise _Usage(f"--q-max must be >= 3, got {args.q_max}")
    results = selfcheck.run_selftest(q_max=args.q_max, tuples=tuples, base_seed=args.seed)
    failed = 0
    for name, ok, detail in results:
        print(f"{'PASS' if ok else 'FAIL'} {name}: {detail}")
        failed += 0 if ok else 1
    print(f"selftest: {len(results) - failed}/{len(results)} criteria passed")
    return 0 if failed == 0 else 1


def _run_script(path: str) -> int:
    import shlex

    worst = 0
    try:
        with open(path, "r", encoding="utf-8") as fh:
            lines = fh.readlines()
    except OSError as exc:
        print(f"ffb: cannot read script {path}: {exc}", file=sys.stderr)
        return 2
    for line in lines:
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        worst = max(worst, run(shlex.split(line)))
    return worst


def _join_negated(argv: list[str]) -> list[str]:
    """argv with --a -SPEC as --a=-SPEC for each set flag: argparse reads -SPEC as a flag."""
    out: list[str] = []
    for token in argv:
        if out and out[-1] in SET_FLAGS and token[:1] == "-" and token[:2] != "--":
            out[-1] += "=" + token
        else:
            out.append(token)
    return out


def run(argv: list[str] | None = None) -> int:
    """Parse argv and execute; returns the process exit code.

    An argv that starts with an op is parsed once, by that op's subparser,
    into the namespace the top-level parser would have made; no argv, -h,
    --script, scan, selftest and unknown ops go through the top-level
    parser.  Either way unrecognised arguments are reported by the
    top-level parser, so its usage line heads the message.
    """
    parser, op_parsers = _parsers()
    argv = _join_negated(sys.argv[1:] if argv is None else argv)
    try:
        if argv and argv[0] in op_parsers:
            args, rest = op_parsers[argv[0]].parse_known_args(
                argv[1:], argparse.Namespace(script=None, op=argv[0]))
        else:
            args, rest = parser.parse_known_args(argv)
        if args.op == "scan":
            _scan_parser(args.scan_op).parse_args(rest, namespace=args)
        elif rest:
            parser.error(f"unrecognized arguments: {' '.join(rest)}")
    except SystemExit as exc:
        return int(exc.code or 0)
    if args.script is not None:
        return _run_script(args.script)
    if args.op is None:
        parser.print_usage(sys.stderr)
        return 2
    try:
        if args.op == "selftest":
            return _run_selftest(args)
        return _run_instances(args)
    except _Usage as exc:
        print(f"ffb: {exc}", file=sys.stderr)
        return 2
    except UsageError as exc:
        print(f"ffb: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2
    except FfbError as exc:
        print(f"ffb: hard failure: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1


def main() -> None:
    try:
        code = run()
        sys.stdout.flush()
    except BrokenPipeError:
        # downstream reader closed the pipe (ffb scan ... | head); exit
        # quietly instead of dumping a traceback
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        sys.exit(1)
    sys.exit(code)


if __name__ == "__main__":
    main()
