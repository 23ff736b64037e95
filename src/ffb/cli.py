"""Command line front end.

One line of output per computed instance, JSON by default and CSV with
--format csv.  Identical argv and seed give byte-identical output once
timing is excluded (--no-timing); scan results are emitted in instance
order no matter how many worker processes run.

Exit codes: 0 success, 1 hard failure (a proven bound or cross-check did
not hold), 2 usage error (bad flags, bad set spec, bad field parameters).
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

from . import bounds, counters, selfcheck, sumprod
from .errors import FfbError, UsageError
from .field import FieldSpec, make_field
from .instance import Instance
from .setsgen import SetSpec, derive_seed, parse_setspec, realize

ABCD = ("a", "b", "c", "d")
SET_SLOTS = {
    "count": ABCD,
    "countT": ABCD,
    "det2": ABCD,
    "solvability": ABCD,
    "exceptional": ("f", "g", "h"),
    "sumprod": ("x", "y"),
    "bounds": ("a", "b"),
}

LAMBDA_OPS = {"count", "countn", "det2", "solvability", "bounds"}


class _Usage(Exception):
    pass


def _field_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--p", type=int, required=True, help="field characteristic")
    parser.add_argument("--k", type=int, default=1, help="extension degree")
    parser.add_argument("--modulus", type=str, default=None,
                        help="comma separated modulus coefficients, constant first")
    parser.add_argument("--max-q", type=int, default=None, help="override the q cap")
    parser.add_argument("--seed", type=int, default=0, help="base seed for random sets")
    parser.add_argument("--format", choices=("json", "csv"), default="json")
    parser.add_argument("--no-timing", action="store_true",
                        help="omit elapsed_us from the output")


def _set_args(parser: argparse.ArgumentParser, slots, repeatable=False) -> None:
    for slot in slots:
        if repeatable:
            parser.add_argument(f"--{slot}", action="append", required=True,
                                metavar="SPEC", help=f"set {slot} (repeatable)")
        else:
            parser.add_argument(f"--{slot}", required=True, metavar="SPEC",
                                help=f"set {slot}")


# Built once per process: parse_args does not change the parser, and each
# build takes milliseconds and leaves cyclic garbage (argparse's
# per-argument HelpFormatter checks) until the next full collection.
@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(prog="ffb", description=__doc__.splitlines()[0])
    top.add_argument("--script", type=str, default=None,
                     help="file of command lines to replay; other args ignored")
    sub = top.add_subparsers(dest="op")

    for op in ("count", "det2", "solvability"):
        p = sub.add_parser(op)
        _field_args(p)
        _set_args(p, SET_SLOTS[op])
        p.add_argument("--lambda", dest="lam", required=True,
                       help="target code, or all / all0")

    p = sub.add_parser("countT")
    _field_args(p)
    _set_args(p, SET_SLOTS["countT"])

    p = sub.add_parser("countn")
    _field_args(p)
    _set_args(p, ("a", "b"), repeatable=True)
    p.add_argument("--lambda", dest="lam", required=True)

    p = sub.add_parser("exceptional")
    _field_args(p)
    _set_args(p, SET_SLOTS["exceptional"])

    p = sub.add_parser("bounds")
    _field_args(p)
    _set_args(p, SET_SLOTS["bounds"])
    p.add_argument("--c", default=None, metavar="SPEC")
    p.add_argument("--d", default=None, metavar="SPEC")
    p.add_argument("--lambda", dest="lam", default=None)
    p.add_argument("--r-max", type=int, default=8, help="sweep moment parameter 1..r_max")
    p.add_argument("--use-p", action="store_true",
                   help="use the characteristic instead of q in the moment bound")

    p = sub.add_parser("sumprod")
    _field_args(p)
    _set_args(p, SET_SLOTS["sumprod"])

    p = sub.add_parser("scan")
    _field_args(p)
    p.add_argument("--op", dest="scan_op", required=True,
                   choices=("count", "countT", "countn", "det2", "solvability",
                            "exceptional", "bounds", "sumprod"))
    for slot in ("a", "b"):
        p.add_argument(f"--{slot}", action="append", default=None, metavar="SPEC")
    for slot in ("c", "d", "f", "g", "h", "x", "y"):
        p.add_argument(f"--{slot}", default=None, metavar="SPEC")
    p.add_argument("--lambda", dest="lam", default=None)
    p.add_argument("--r-max", type=int, default=8)
    p.add_argument("--use-p", action="store_true")
    p.add_argument("--seeds", type=int, default=1, help="number of seeded instances")
    p.add_argument("--jobs", type=int, default=1, help="worker processes")

    p = sub.add_parser("selftest")
    p.add_argument("--q-max", type=int, default=13)
    p.add_argument("--tuples", type=int, default=selfcheck.GRID_TUPLES)
    p.add_argument("--seed", type=int, default=0)

    return top


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


def _compute(op: str, inst: Instance, lam: int | None, extra: dict) -> tuple[dict, bool]:
    """Result fields for one instance at lam; second value is overall health."""
    field, sets = inst.field, inst.sets
    if op == "count":
        n = inst.bilinear(*ABCD, lam)
        n_char, main, err = inst.bilinear_charform(*ABCD, lam)
        return ({"n": n, "n_charform": n_char, "main": main, "err": err},
                n == n_char)
    if op == "countT":
        t = inst.additive(*ABCD)
        t_char, main, err = inst.additive_charform(*ABCD)
        return ({"t": t, "t_charform": t_char, "main": main, "err": err},
                t == t_char)
    if op == "countn":
        pairs = extra["pairs"]
        n = int(inst.fold(pairs).counts[lam])
        ok = len(pairs) != 2 or n == inst.bilinear(*pairs[0], *pairs[1], lam)
        return {"n": n, "n_pairs": len(pairs)}, ok
    if op == "det2":
        # a*d - b*c = lam is a*d + (-b)*c = lam
        return {"n": inst.bilinear("a", "d", "-b", "c", lam)}, True
    if op == "exceptional":
        r_gh = inst.product("g", "h")
        e = counters.exceptional_set(field, sets["f"], r_gh)
        ok = counters.verify_sarkozy_identity(field, sets["f"], e, r_gh)
        ratio = e.size * sets["f"].size * sets["g"].size * sets["h"].size / field.q ** 3
        return {"e_size": e.size, "sarkozy_ok": ok, "ratio": ratio}, ok
    if op == "solvability":
        rep = inst.solvability(*ABCD, lam)
        n = inst.bilinear(*ABCD, lam)
        ok = (not rep.holds) or n > 0
        return ({"n": n, "main": rep.bound_value, "threshold": rep.w_or_v,
                 "fires": rep.holds, "empirical_delta": _sanitize(rep.empirical_delta)},
                ok)
    if op == "sumprod":
        x, y, u, v = sets["x"], sets["y"], inst.subset("x+y"), inst.subset("x*y")
        count, lower = sumprod.garaev_solution_count(field, x, y, u, v)
        c0 = None
        if field.k == 1:
            c0 = _sanitize(sumprod.garaev_inequality_report(field, x, y, u, v))
        return ({"count": count, "lower": lower, "ok": count >= lower,
                 "u_size": u.size, "v_size": v.size, "c0_ratio": c0},
                count >= lower)
    if op == "bounds":
        return _compute_bounds(inst, lam, extra)
    raise AssertionError(f"unknown op {op}")


def _compute_bounds(inst: Instance, lam: int | None, extra: dict) -> tuple[dict, bool]:
    field, a, b = inst.field, inst.sets["a"], inst.sets["b"]
    out: dict = {}
    rep_v = bounds.vinogradov_bound(field, inst.v("a", "b"), a.size, b.size)
    out["v"] = rep_v.w_or_v
    out["v_argmax"] = rep_v.argmax_j
    out["vinogradov_v"] = {"bound": rep_v.bound_value, "ratio": rep_v.ratio,
                           "holds": rep_v.holds}
    ok = rep_v.holds
    if lam is not None:
        w = inst.w("a", "b", lam)
        rep_w = bounds.vinogradov_bound(field, w, a.size, b.size)
        out["w"] = rep_w.w_or_v
        out["w_argmax"] = rep_w.argmax_j
        out["vinogradov_w"] = {"bound": rep_w.bound_value, "ratio": rep_w.ratio,
                               "holds": rep_w.holds}
        ok = ok and rep_w.holds
        sweep = (bounds.karatsuba_bound(field, w, a.size, b.size, r, extra["use_p"])
                 for r in range(1, extra["r_max"] + 1))
        out["karatsuba"] = [{"r": kr.r, "bound": kr.bound_value, "ratio": kr.ratio}
                            for kr in sweep]
        if "c" in inst.sets:
            rep_c = inst.cauchy(*ABCD, lam)
            out["cauchy"] = {"err": rep_c.w_or_v, "bound": rep_c.bound_value,
                             "ratio": rep_c.ratio, "holds": rep_c.holds,
                             "strict": rep_c.strict}
            ok = ok and rep_c.holds
    return out, ok


# ----------------------------------------------------------------------
# records and output
# ----------------------------------------------------------------------

def _walk(field: FieldSpec, instances: list[tuple[int, int | None, int | None]],
          op: str, specs: list[tuple[str, SetSpec]], extra: dict,
          with_timing: bool) -> Iterator[tuple[dict, bool]]:
    """(record, ok) for each (seed, index, lam) instance, in order.

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
        results, ok = _compute(op, inst, lam, extra)
        elapsed = time.perf_counter() - start
        record: dict = {"op": op}
        if index is not None:
            record["index"] = index
        record["field"] = {"p": field.p, "k": field.k, "q": field.q,
                           "modulus": list(field.modulus)}
        record["sets"] = {name: spec.text() for name, spec in specs}
        record["seed"] = seed
        if lam is not None or op in LAMBDA_OPS:
            record["lambda"] = lam
        record.update(results)
        if with_timing:
            record["elapsed_us"] = int(elapsed * 1e6)
        yield record, ok


def _run_chunk(task: tuple) -> tuple[list[tuple[dict, bool]], FfbError | None]:
    """One pool task: a contiguous run of instances on a field rebuilt from
    the validated parameters, so no table crosses a process boundary.

    Returns the outcomes computed before the first failure together with
    that failure (None when every instance ran).
    """
    field_params, instances, walk_args = task
    done: list[tuple[dict, bool]] = []
    try:
        for outcome in _walk(make_field(**field_params), instances, *walk_args):
            done.append(outcome)
    except FfbError as exc:
        return done, exc
    return done, None


def _until_failure(chunks) -> Iterator[tuple[dict, bool]]:
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


class _Emitter:
    def __init__(self, fmt: str):
        self.fmt = fmt
        self.writer = None

    def emit(self, record: dict) -> None:
        if self.fmt == "json":
            sys.stdout.write(json.dumps(record) + "\n")
            return
        flat = _flatten(record)
        if self.writer is None:
            import csv

            self.writer = csv.DictWriter(sys.stdout, fieldnames=list(flat))
            self.writer.writeheader()
        self.writer.writerow(flat)


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


def _one(value, name: str) -> str:
    """Unwrap a possibly-appended flag value down to one spec string."""
    if isinstance(value, list):
        if len(value) != 1:
            raise _Usage(f"--{name} given {len(value)} times, expected once")
        value = value[0]
    if value is None:
        raise _Usage(f"--{name} is required")
    return value


def _slots_from_args(args, op: str) -> tuple[list[tuple[str, str]], dict]:
    extra: dict = {}
    if op == "countn":
        a_specs = args.a or []
        b_specs = args.b or []
        if len(a_specs) != len(b_specs) or not a_specs:
            raise _Usage("countn needs equally many --a and --b, at least one each")
        extra["pairs"] = [(f"a{i}", f"b{i}") for i in range(len(a_specs))]
        slots = [slot for names, specs in zip(extra["pairs"], zip(a_specs, b_specs))
                 for slot in zip(names, specs)]
        return slots, extra
    if op == "bounds":
        slots = [("a", _one(args.a, "a")), ("b", _one(args.b, "b"))]
        if (args.c is None) != (args.d is None):
            raise _Usage("bounds needs --c and --d together or neither")
        if args.c is not None:
            if args.lam is None:
                raise _Usage("bounds --c/--d measure the error term at a target: give --lambda")
            slots += [("c", args.c), ("d", args.d)]
        extra["r_max"] = args.r_max
        extra["use_p"] = args.use_p
        return slots, extra
    slots = [(name, _one(getattr(args, name), name)) for name in SET_SLOTS[op]]
    return slots, extra


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
    lams = _parse_lambda(field, getattr(args, "lam", None)) if op in LAMBDA_OPS else [None]
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
    emitter = _Emitter(args.format)
    all_ok = True
    for record, ok in outcomes:
        emitter.emit(record)
        all_ok = all_ok and ok
    return 0 if all_ok else 1


def _run_selftest(args) -> int:
    results = selfcheck.run_selftest(q_max=args.q_max, tuples=args.tuples,
                                     base_seed=args.seed)
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


def run(argv: list[str] | None = None) -> int:
    """Parse argv and execute; returns the process exit code."""
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
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
