"""oscillwalk benchmark: one closed-loop client driving the CLI and the API.

    python3 perfbench/run.py --workload certify --seed 1 --seconds 12 --trace 0

Run from the root of a source checkout.  The launcher generates the
workload's inputs and reference answers from ``--seed``, starts the workload
in fresh interpreters (``worker.py``) with the BLAS thread count fixed, and
prints one JSON line last: ``correct``, ``attempted``, ``failed`` and
``metrics``.  ``--trace 0`` reports the end-to-end metrics, ``--trace 1``
the per-layer ones from a separate traced run.  A full record (environment,
resolved operations, state-file digests, output digests, tail percentile,
failures) is written to ``perfbench/out/``.  See ``perfbench/LAYERS.md``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")
# Fresh interpreters that time the set-up besides the measured one; the
# reported set-up time is the median of all of them.
EXTRA_SETUPS = 2
WORKER_TIMEOUT_S = 150
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
            "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
# Samples that must lie beyond the reported tail percentile.
TAIL_SAMPLES = 10


def nproc() -> int:
    return len(os.sched_getaffinity(0))


def blas_threads() -> int:
    # numpy and scipy each bundle an OpenBLAS with its own thread pool, so two
    # BLAS threads would give the process three OS threads on a 2-core host.
    # One thread keeps the workload at one OS thread and its timings steadier.
    return min(nproc(), 1)


def _die(message: str) -> None:
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def environment() -> dict:
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '')}".strip(),
        "blas_threads": blas_threads(),
        "nproc": nproc(),
        "cpu": cpu,
    }


def _worker(plan_path: str, result_path: str, seconds: int, trace: int, setup_only: bool) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC
    env["PYTHONHASHSEED"] = "0"
    for key in BLAS_ENV:
        env[key] = str(blas_threads())
    cmd = [sys.executable, os.path.join(HERE, "worker.py"), plan_path, result_path,
           str(seconds), str(trace)] + (["--setup-only"] if setup_only else [])
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=env, stdout=sys.stderr,
                              timeout=WORKER_TIMEOUT_S, check=False)
    except subprocess.TimeoutExpired:
        _die(f"workload process exceeded {WORKER_TIMEOUT_S} s")
    if proc.returncode != 0:
        _die(f"workload process exited with code {proc.returncode}")
    with open(result_path, encoding="utf-8") as fh:
        return json.load(fh)


def tail(times: list[float]) -> tuple[float, float]:
    """(value, percentile) of the highest percentile that still has
    TAIL_SAMPLES samples beyond it.  Below 2 * TAIL_SAMPLES + 1 samples no
    percentile at or above the median has that many beyond it, and the
    maximum is reported instead."""
    ordered = sorted(times)
    if len(ordered) <= 2 * TAIL_SAMPLES:
        return ordered[-1], 100.0
    index = len(ordered) - TAIL_SAMPLES - 1
    return ordered[index], 100.0 * (index + 1) / len(ordered)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=("certify", "evolve", "resist", "zoo"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seconds < 1:
        _die("--seconds must be at least 1")
    if not os.path.isfile(os.path.join(SRC, "oscillwalk", "__init__.py")):
        _die(f"no oscillwalk sources under {SRC}; run from a source checkout")
    sys.path[:0] = [SRC, HERE]
    os.chdir(ROOT)
    import inputs

    started = time.perf_counter()
    tag = f"{args.workload}-s{args.seed}-t{args.trace}"
    workdir = os.path.join(OUT, "work-" + tag)
    shutil.rmtree(workdir, ignore_errors=True)
    os.makedirs(workdir)
    try:
        rel = os.path.relpath(workdir, ROOT)
        plan = inputs.plan(args.workload, args.seed, rel)
        plan_path = os.path.join(workdir, "plan.json")
        with open(plan_path, "w", encoding="utf-8") as fh:
            json.dump(plan, fh)
        result_path = os.path.join(workdir, "result.json")
        setups = []
        if not args.trace:
            for _ in range(EXTRA_SETUPS):
                setups.append(_worker(plan_path, result_path, args.seconds, 0, True)["setup_s"])
        run = _worker(plan_path, result_path, args.seconds, args.trace, False)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    setups.append(run["setup_s"])

    times = run["times"]
    correct = (run["failed"] == 0 and run["self_test"]["corrupted_answer_failed"]
               and not run["truncated"])
    tail_s, tail_pct = tail(times)
    if args.trace:
        metrics = {name: {"value": value, "unit": unit} for name, (value, unit) in run["layers"].items()}
    else:
        metrics = {
            "op_p50_s": {"value": statistics.median(times), "unit": "s"},
            "op_tail_s": {"value": tail_s, "unit": "s"},
            "ops_per_s": {"value": len(times) / sum(times), "unit": "1/s"},
            "peak_rss_mb": {"value": run["peak_rss_mb"], "unit": "MB"},
            "setup_s": {"value": statistics.median(setups), "unit": "s"},
        }
    digests = run["output_digests"]
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "environment": environment(),
        "operations": [{k: v for k, v in op.items() if k != "expect"} for op in plan["ops"]],
        "passes": plan["passes"],
        "warmup": plan["ops"][plan["warmup"]]["id"],
        "state_files": plan["files"],
        # Over the first pass only, which every run completes whatever its speed.
        "output_sha256": hashlib.sha256("".join(
            digests[plan["ops"][i]["id"]] for i in plan["passes"][0]).encode()).hexdigest(),
        "output_sha256_per_op": digests,
        "samples": len(times),
        "op_times_s": run["op_times"],
        "passes_run": run["passes"],
        "loop_s": run["loop_s"],
        "op_tail_percentile": tail_pct,
        "setup_samples_s": setups,
        "workload_threads": run["threads"],
        "fail_ratio": run["failed"] / run["attempted"],
        "failures": run["failures"],
        "oracle_self_test": run["self_test"],
        "missing_spans": run.get("missing_spans", []),
        "unreadable_results": run.get("unreadable_results", 0),
        "wall_s": time.perf_counter() - started,
        "metrics": metrics,
    }
    with open(os.path.join(OUT, tag + ".json"), "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1)
    for line in run["failures"]:
        print(f"perfbench: FAILED {line}", file=sys.stderr)
    print(json.dumps({"correct": bool(correct), "attempted": run["attempted"],
                      "failed": run["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
