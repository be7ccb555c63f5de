#!/usr/bin/env python3
"""Closed-loop benchmark of recoupler's public API.

    python3 perfbench/run.py --workload gate-n10 --seed 1 --seconds 15 --trace 0
    python3 perfbench/run.py --all --seed 1 [--rows DIR]

One caller in one process; each op waits for the previous one. The seed picks
one variant of every slot of the workload's pool in `reference.json` and the
order of the slots; the run repeats that pass until `--seconds` have passed.
Every op's outcome is checked against the reference; a mismatch makes
`correct` false and the exit code 1.

With `--trace 0` the last stdout line holds the end-to-end metrics. With
`--trace 1` it holds the per-layer metrics of one traced pass, taken after one
untraced pass over the same ops (the difference is `trace.overhead_frac`).
Environment, input hash, p90 latency and failures go to stderr. See README.md.
"""

from __future__ import annotations

import os
import sys
import time

START = time.perf_counter()
NPROC = len(os.sched_getaffinity(0))
BLAS_THREADS = min(2, NPROC)
# must be set before numpy loads its BLAS
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

import argparse  # noqa: E402
import contextlib  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import random  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")

WORKLOADS = (
    "gate-n10",
    "circuit-n8",
    "sweep-n4",
    "simulate-n8",
)
SETUP_SAMPLES = 5  # this process plus four fresh ones


def parse_args(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=15.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--rows", help="write one JSON row per op to this file (a directory with --all)")
    ap.add_argument("--all", action="store_true", help="run every workload, untraced and traced")
    ap.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if not args.all and args.workload is None:
        ap.error("--workload is required unless --all is given")
    return args


def environment(np) -> dict:
    blas = "unknown"
    with contextlib.suppress(Exception):
        info = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{info['name']} {info['version']}"
    cpu = platform.processor() or platform.machine()
    with contextlib.suppress(OSError), open("/proc/cpuinfo") as f:
        cpu = next((line.split(":", 1)[1].strip() for line in f if line.startswith("model name")), cpu)
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "blas_threads": BLAS_THREADS,
        "nproc": NPROC,
        "cpu": cpu,
    }


def draw(reference: dict, workload: str, seed: int) -> list[dict]:
    """One variant per slot and a shuffled slot order, both from the seed."""
    rng = random.Random(f"{workload}/{seed}")
    cases = [rng.choice(variants) for variants in reference["workloads"][workload]]
    rng.shuffle(cases)
    return cases


def input_hash(cases) -> str:
    text = json.dumps([c["spec"] for c in cases], sort_keys=True)
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def warm_up(rc, np, ops):
    """First calls pay for BLAS thread start-up and lazy imports: a few small
    verdicts, every cheap op once, and one complex eigendecomposition and
    product at the workload's largest dimension."""
    model = rc.preset_model("electrons_on_helium", 6)
    for gate in (rc.LogicalGate("rx", (1,), (0.9,)), rc.LogicalGate("rz", (2,), (0.8,)),
                 rc.LogicalGate("cphase", (1, 2))):
        rc.verify_gate(gate, model)
        rc.verify_gate(gate, model, mode="realistic", ratio=100.0)
    for op in ops:
        if op.kind in ("suite", "cost", "cli"):
            op.run()
    dim = 2 ** max(op.spec.get("n", 4) for op in ops)
    rng = np.random.default_rng(0)
    h = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    _, v = np.linalg.eigh(h + h.conj().T)
    v @ v.conj().T


def execute(op, check, rows):
    """Run one op; return (seconds, problem or None)."""
    t = time.perf_counter()
    try:
        seconds, outcome = op.run()
    except Exception as exc:  # an unexpected exception is a failed op, not a crash
        seconds, outcome = time.perf_counter() - t, {}
        problem = f"{type(exc).__name__}: {exc}"
    else:
        problem = check(op.spec, outcome, op.case["expect"])
    if rows is not None:
        rows.append(dict(op.row(seconds, outcome), ok=problem is None))
    return seconds, problem


def one_pass(ops, check, rows, latencies, failures):
    for op in ops:
        seconds, problem = execute(op, check, rows)
        latencies.append(seconds)
        if problem is not None:
            failures.append(f"{op.case['id']}: {problem}")


def setup_samples(args) -> list[float]:
    """Set-up times of fresh processes: import, input generation, warm-up."""
    out = []
    for _ in range(SETUP_SAMPLES - 1):
        proc = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--workload", args.workload,
             "--seed", str(args.seed), "--setup-only"],
            capture_output=True, text=True, timeout=120, cwd=ROOT, check=True,
        )
        out.append(json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"])
    return out


def run_one(args) -> int:
    if not os.path.isfile(os.path.join(SRC, "recoupler", "__init__.py")):
        print(f"error: no recoupler sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    import numpy as np

    import recoupler as rc
    import recoupler.cli  # noqa: F401

    from cases import Op, check
    from tracer import Tracer

    with open(os.path.join(HERE, "reference.json")) as f:
        reference = json.load(f)
    cases = draw(reference, args.workload, args.seed)
    work = os.path.join(HERE, ".work", str(os.getpid()))
    os.makedirs(work, exist_ok=True)
    try:
        models: dict = {}
        ops = [Op(rc, case, work, models) for case in cases]
        warm_up(rc, np, ops)
        setup = time.perf_counter() - START
        if args.setup_only:
            print(json.dumps({"setup_s": setup}))
            return 0

        rows = [] if args.rows else None
        latencies: list[float] = []
        failures: list[str] = []
        if args.trace:
            t = time.perf_counter()
            one_pass(ops, check, None, [], failures)
            untraced = time.perf_counter() - t
            tracer = Tracer()
            tracer.install()
            try:
                t = time.perf_counter()
                one_pass(ops, check, rows, latencies, failures)
                traced = time.perf_counter() - t
            finally:
                tracer.remove()
            metrics, absent = tracer.metrics(traced, untraced)
            attempted = 2 * len(ops)
        else:
            setups = [setup] + setup_samples(args)
            passes = []
            start = time.perf_counter()
            while time.perf_counter() - start < args.seconds:
                t = time.perf_counter()
                one_pass(ops, check, rows, latencies, failures)
                passes.append(time.perf_counter() - t)
            attempted = len(latencies)
            metrics = {
                # the median pass is robust to a stall that hits one pass
                "ops_per_s": {"value": len(ops) / statistics.median(passes), "unit": "1/s"},
                "op_p50_s": {"value": statistics.median(latencies), "unit": "s"},
                "setup_s": {"value": statistics.median(setups), "unit": "s"},
                "peak_rss_mb": {
                    "value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
                    "unit": "MB",
                },
            }
            absent = []
    finally:
        shutil.rmtree(work, ignore_errors=True)

    env = environment(np)
    summary = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "input_hash": input_hash(cases), "ops_per_pass": len(ops), "attempted": attempted,
        "fail_frac": len(failures) / attempted, "env": env,
    }
    if len(latencies) >= 100:  # at least ten samples above the 90th percentile
        summary["op_p90_s"] = statistics.quantiles(latencies, n=10)[-1]
    if absent:
        summary["absent"] = absent
    print(json.dumps(summary), file=sys.stderr)
    for problem in failures[:20]:
        print(f"mismatch: {problem}", file=sys.stderr)
    if rows is not None:
        with open(args.rows, "w") as f:
            f.write(json.dumps({"run": summary}) + "\n")
            for row in rows:
                f.write(json.dumps(row) + "\n")
    print(json.dumps({
        "correct": not failures, "attempted": attempted, "failed": len(failures),
        "metrics": metrics,
    }))
    return 0 if not failures else 1


def run_all(args) -> int:
    """Every workload, untraced then traced, as a table of metrics with units."""
    status = 0
    print(f"{'workload':<12} {'metric':<28} {'value':>16}  unit")
    for workload in WORKLOADS:
        for trace in (0, 1):
            cmd = [sys.executable, os.path.abspath(__file__), "--workload", workload,
                   "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(trace)]
            if args.rows:
                os.makedirs(args.rows, exist_ok=True)
                cmd += ["--rows", os.path.join(args.rows, f"{workload}-trace{trace}.jsonl")]
            proc = subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT)
            sys.stderr.write(proc.stderr)
            summary = next((json.loads(line) for line in proc.stderr.splitlines()
                            if line.startswith('{"workload"')), {})
            lines = proc.stdout.strip().splitlines()
            if proc.returncode != 0 or not lines:
                status = 1
            if not lines:
                print(f"{workload:<12} {'(no result)':<28} {'':>16}  exit {proc.returncode}")
                continue
            result = json.loads(lines[-1])
            print(f"{workload:<12} {'correct':<28} {str(result['correct']):>16}  "
                  f"{result['failed']}/{result['attempted']} failed")
            metrics = dict(result["metrics"])
            if not trace:
                metrics["fail_frac"] = {"value": summary.get("fail_frac", 1.0), "unit": "frac"}
                if "op_p90_s" in summary:
                    metrics["op_p90_s"] = {"value": summary["op_p90_s"], "unit": "s"}
            for name, m in metrics.items():
                print(f"{workload:<12} {name:<28} {m['value']:>16.6g}  {m['unit']}")
    return status


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.all:
        return run_all(args)
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
