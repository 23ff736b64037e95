"""The measured process: import ffb, run one workload's commands, report.

Started fresh by run.py for every run, with PYTHONPATH pointing at the
checkout's src and BLAS/OpenMP pools pinned to one thread.  Prints one
JSON object (raw timings, every command's output, and in traced runs the
per-layer metrics) as its last stdout line; run.py checks and reduces it.

    python3 perfbench/worker.py --import-only
    python3 perfbench/worker.py --workload W --seed N --seconds S --trace T [--spans FILE]
    python3 perfbench/worker.py --workload W --seed N --reference
"""

import time

_start = time.perf_counter()
import ffb.cli  # noqa: E402  (the import is what setup_s measures)

IMPORT_S = time.perf_counter() - _start

import argparse  # noqa: E402
import contextlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
from time import perf_counter  # noqa: E402

from layers import Tracer, layer_metrics  # noqa: E402
from workloads import WORKLOADS, argv  # noqa: E402


def run_pass(commands, seed: int) -> dict:
    """Run the command list once; per-command time, exit code and output."""
    results = []
    start = perf_counter()
    for command in commands:
        out, err = io.StringIO(), io.StringIO()
        t0 = perf_counter()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = ffb.cli.run(argv(command, seed))
        results.append({"s": perf_counter() - t0, "code": code,
                        "stdout": out.getvalue(), "stderr": err.getvalue()})
    return {"wall_s": perf_counter() - start, "commands": results}


def traced_pass(workload, seed: int) -> tuple[dict, Tracer]:
    tracer = Tracer()
    tracer.install()
    try:
        result = run_pass(workload.commands, seed)
    finally:
        tracer.uninstall()
    layers = layer_metrics(tracer.summary(), workload.fires)
    layers["cli.records"] = sum(len(c["stdout"].splitlines()) for c in result["commands"])
    result["layers"] = layers
    return result, tracer


def exact_probe(command, seed: int) -> dict:
    """The record a probe count must match: n from the exact route."""
    from ffb.counters import count_bilinear
    from ffb.field import make_field
    from ffb.setsgen import derive_seed, parse_setspec, realize

    tokens = command.text.split()
    flags = dict(zip(tokens[1::2], tokens[2::2]))
    field = make_field(int(flags["--p"]), int(flags.get("--k", 1)))
    # same slot seeds as the CLI: derive_seed(run seed, slot index)
    sets = [realize(field, parse_setspec(flags[f"--{slot}"]), derive_seed(seed, i))
            for i, slot in enumerate("abcd")]
    lam = int(flags["--lambda"])
    return {"op": "count", "seed": seed, "lambda": lam, "n": count_bilinear(field, *sets, lam)}


def reference(workload, seed: int) -> list[list[dict]]:
    """Every record of one pass, per command, for storing as reference output."""
    table = []
    for command, out in zip(workload.commands, run_pass(workload.commands, seed)["commands"]):
        if command.probe:
            table.append([exact_probe(command, seed)])
        elif out["code"] != 0:
            raise SystemExit(f"{command.text}: exit {out['code']}: {out['stderr']}")
        else:
            table.append([json.loads(line) for line in out["stdout"].splitlines()])
    return table


def measure(workload, seed: int, seconds: float, trace: int, spans: str | None) -> dict:
    """Passes (and traced passes) until the measuring window is used up."""
    passes, traced = [], []
    tracer = None
    start = perf_counter()
    # Closed loop, one client: the next pass starts when the last ends, and
    # no pass starts that would end after the measuring window.
    while True:
        passes.append(run_pass(workload.commands, seed))
        cycle = passes[-1]["wall_s"]
        if trace:
            result, tracer = traced_pass(workload, seed)
            traced.append(result)
            cycle += result["wall_s"]
        if perf_counter() - start + cycle > seconds:
            break
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    if tracer is not None and spans:
        with open(spans, "w", encoding="utf-8") as fh:
            json.dump({"fields": ["name", "parent", "start_s", "end_s"],
                       "spans": tracer.spans}, fh)
    return {"passes": passes, "traced": traced, "peak_rss_mb": peak_rss_mb}


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--import-only", action="store_true")
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--spans", default=None, help="write the last traced pass's spans here")
    parser.add_argument("--reference", action="store_true",
                        help="print reference records of one pass instead of measuring")
    args = parser.parse_args()
    import numpy

    report = {"import_s": IMPORT_S, "ffb_file": ffb.cli.__file__,
              "numpy": numpy.__version__, "python": sys.version.split()[0]}
    if not args.import_only and args.workload is None:
        parser.error("--workload is required")
    if args.reference:
        report["reference"] = reference(WORKLOADS[args.workload], args.seed)
    elif not args.import_only:
        report.update(measure(WORKLOADS[args.workload], args.seed, args.seconds,
                              args.trace, args.spans))
    sys.stdout.write(json.dumps(report) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
