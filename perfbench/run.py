"""ffb benchmark: fixed CLI workloads, checked output, end-to-end and per-layer metrics.

    python3 perfbench/run.py --workload prime-charsum --seed 0 --seconds 60 --trace 0

Run from anywhere inside a checkout that has src/ffb; ffb is imported from
that src, never from an installed copy.  Each run starts one worker
process that repeats the workload's command list until --seconds is used
up, and IMPORT_PROBES fresh processes around it that only import ffb.cli;
setup_s is the median of their import times and the worker's, with BLAS
and OpenMP pools pinned to one thread in every child.  Load is closed-loop
with one client: scan runs with --jobs 1 and no extra threads, because on
a two-core machine a worker pool would measure the scheduler.

--trace 0 reports the end-to-end metrics of BENCHMARK.json; --trace 1
alternates untraced and traced passes and reports the per-layer metrics,
with trace.overhead_s = median traced wall - median untraced wall.  Human
readable lines (environment, metrics with units, failures, the exactness
probe) come first; the last stdout line is the JSON result.  Every record
of every pass is checked (check.py); correct is false when any is wrong.

--write-reference regenerates reference.json at REFERENCE_SEED instead.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import subprocess
import sys
import time
from pathlib import Path
from statistics import median, median_low

from check import CommandCheck, check_command, corrupt
from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKER = HERE / "worker.py"
REFERENCE = HERE / "reference.json"
OUT_DIR = HERE / "out"
REFERENCE_SEED = 0
IMPORT_PROBES = 8
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
# Every run must end within 180 s; the worker gets what the probes leave.
DEADLINE_S = 170.0


class BenchError(RuntimeError):
    pass


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    env["PYTHONHASHSEED"] = "0"
    for var in THREAD_VARS:
        env[var] = "1"
    return env


def run_child(args: list[str], deadline: float) -> dict:
    """Start one worker process, wait for it, return its JSON report."""
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise BenchError("out of time before starting a worker")
    try:
        proc = subprocess.run([sys.executable, str(WORKER), *args], env=child_env(),
                              cwd=ROOT, capture_output=True, text=True, timeout=timeout)
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"worker {args} timed out after {exc.timeout:.0f} s") from exc
    if proc.returncode != 0:
        raise BenchError(f"worker {args} exited {proc.returncode}:\n{proc.stderr[-2000:]}")
    report = json.loads(proc.stdout.splitlines()[-1])
    if not Path(report["ffb_file"]).resolve().is_relative_to(ROOT / "src"):
        raise BenchError(f"ffb imported from {report['ffb_file']}, not from {ROOT / 'src'}")
    return report


def environment(report: dict) -> dict:
    commit = None
    if (ROOT / ".git").exists():
        try:
            git = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                 text=True, timeout=10)
            commit = git.stdout.strip() if git.returncode == 0 else None
        except (OSError, subprocess.TimeoutExpired):
            pass
    # a checkout without git history is still identified by its sources
    env = child_env()
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src" / "ffb").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return {"commit": commit, "src_sha256": digest.hexdigest()[:16], "nproc": os.cpu_count(),
            "python": report["python"], "numpy": report["numpy"],
            "threads": {var: env[var] for var in THREAD_VARS}}


def load_reference(seed: int) -> dict | None:
    if not REFERENCE.is_file():
        return None
    return json.loads(REFERENCE.read_text(encoding="utf-8")).get(str(seed))


def check_pass(workload, seed: int, result: dict, refs: dict | None) -> list[CommandCheck]:
    checks = []
    for i, (command, out) in enumerate(zip(workload.commands, result["commands"])):
        cmd_refs = refs[i] if refs is not None else None
        checks.append(check_command(command, seed, out["code"], out["stdout"],
                                    out["stderr"], cmd_refs))
    return checks


def assert_checker_catches(workload, seed: int, result: dict) -> bool:
    """A deliberately corrupted count record must be counted as failed.

    Returns False when the pass has no successful count record to corrupt.
    """
    for command, out in zip(workload.commands, result["commands"]):
        if out["code"] == 0 and not command.probe:
            bad = corrupt(out["stdout"])
            if bad is not None:
                if check_command(command, seed, 0, bad, "", None).failed == 0:
                    raise BenchError("checker accepted a corrupted record")
                return True
    return False


def end_to_end(report: dict, setup: list[float], checks: list[list[CommandCheck]]) -> dict:
    passes = report["passes"]
    walls = [p["wall_s"] for p in passes]
    return {
        "setup_s": median(setup),
        "wall_s": median(walls),
        "cmd_max_s": median(max(c["s"] for c in p["commands"]) for p in passes),
        "records_per_s": median(sum(c.passed for c in pc) / p["wall_s"]
                                for pc, p in zip(checks, passes)),
        "peak_rss_mb": report["peak_rss_mb"],
    }


def per_layer(report: dict, probe_residual: float) -> dict:
    traced = report["traced"]
    out = {}
    for name in traced[0]["layers"]:
        values = [t["layers"][name] for t in traced]
        # counts repeat exactly from pass to pass; keep them whole numbers
        out[name] = median_low(values) if isinstance(values[0], int) else median(values)
    out["counters.charform.probe_residual"] = probe_residual
    out["trace.overhead_s"] = (median(t["wall_s"] for t in traced)
                               - median(p["wall_s"] for p in report["passes"]))
    return out


def measure(args) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    workload = WORKLOADS[args.workload]
    deadline = time.monotonic() + DEADLINE_S
    # half the import probes before the worker and half after, so that one
    # slow stretch of the machine does not set every sample
    setup = [run_child(["--import-only"], deadline)["import_s"]
             for _ in range(IMPORT_PROBES // 2)]
    OUT_DIR.mkdir(exist_ok=True)
    stem = OUT_DIR / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    worker_args = ["--workload", args.workload, "--seed", str(args.seed),
                   "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.trace:
        worker_args += ["--spans", f"{stem}.spans.json"]
    report = run_child(worker_args, deadline)
    setup.append(report["import_s"])
    setup += [run_child(["--import-only"], deadline)["import_s"]
              for _ in range(IMPORT_PROBES - IMPORT_PROBES // 2)]

    refs = load_reference(args.seed)
    refs = refs.get(args.workload) if refs else None
    all_passes = report["passes"] + report["traced"]
    checks = [check_pass(workload, args.seed, p, refs) for p in all_passes]
    flat = [c for pc in checks for c in pc]
    attempted = sum(cmd.records for cmd in workload.commands) * len(all_passes)
    failed = sum(c.failed for c in flat)
    # a run whose count commands all failed has nothing to corrupt; its
    # failures are counted already
    if not assert_checker_catches(workload, args.seed, report["passes"][0]) and not failed:
        raise BenchError("no count record to corrupt in this workload")
    refused = [c for c in flat if c.refused]
    residual = max((c.residual for c in refused), default=0.0)

    if args.trace:
        metrics = per_layer(report, residual)
    else:
        metrics = end_to_end(report, setup, checks[:len(report["passes"])])
    missing = [m["name"] for m in wanted if m["name"] not in metrics]
    if missing:
        raise BenchError(f"metrics not measured: {', '.join(missing)}")

    env = environment(report)
    print(f"env {json.dumps(env)}")
    print(f"workload {args.workload} seed {args.seed} passes {len(report['passes'])} "
          f"traced {len(report['traced'])} reference {'yes' if refs else 'no'}")
    for m in wanted:
        print(f"{m['name']} {metrics[m['name']]!r} {m['unit']}")
    print(f"failed_frac {failed / attempted!r} ({failed}/{attempted} records missing or wrong)")
    for c in flat:
        for problem in c.problems[:5]:
            print(f"FAILED {problem}")
    if refused:
        print(f"refused_frac {len(refused) / attempted!r} ({len(refused)}/{attempted} records "
              f"refused with RoundingDrift by the exactness probe, max residual {residual!r})")
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed,
              "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]}
                          for m in wanted}}
    with open(f"{stem}.result.json", "w", encoding="utf-8") as fh:
        json.dump({"env": env, "result": result, "all_metrics": metrics,
                   "pass_walls_s": [p["wall_s"] for p in all_passes], "setup_samples_s": setup},
                  fh, indent=1)
    print(json.dumps(result))
    return 0


def write_reference() -> int:
    """Store every record of every workload at REFERENCE_SEED (one pass each)."""
    deadline = time.monotonic() + 600
    table = {}
    for name, workload in WORKLOADS.items():
        report = run_child(["--workload", name, "--seed", str(REFERENCE_SEED),
                            "--reference"], deadline)
        table[name] = report["reference"]
    REFERENCE.write_text(json.dumps({str(REFERENCE_SEED): table}) + "\n", encoding="utf-8")
    print(f"wrote {REFERENCE}")
    return 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=REFERENCE_SEED)
    parser.add_argument("--seconds", type=int, default=60)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--write-reference", action="store_true")
    args = parser.parse_args()
    if not (ROOT / "src" / "ffb" / "cli.py").is_file():
        print(f"perfbench: no ffb sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    try:
        if args.write_reference:
            return write_reference()
        if args.workload is None:
            parser.error("--workload is required")
        return measure(args)
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
