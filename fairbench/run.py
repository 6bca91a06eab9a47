"""fairldp benchmark: one workload, one seed, one run.

    python3 fairbench/run.py --workload release_stream --seed 1 --seconds 20 --trace 0

Runs in-process against the fairldp sources in src/ next to this directory.
With --trace 0 it prints the end-to-end metrics, with --trace 1 the
per-layer metrics of a traced run; the last line of standard output is one
JSON object {"correct", "attempted", "failed", "metrics"}.  Check failures
go to standard error.
"""

from __future__ import annotations

import time

STARTED = time.perf_counter()

import os  # noqa: E402

# one BLAS/OpenMP thread: the load comes from this one process, and a
# multi-threaded BLAS on a shared two-core machine makes timings wander
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
WORKLOAD_NAMES = ("release_stream", "design_grid", "fairness_sweep")


def run_workload(
    name: str,
    seed: int,
    seconds: float,
    trace: bool,
    started: float,
    sizes: dict | None = None,
) -> tuple[dict, list[str]]:
    """One run: set up, run whole rounds for `seconds`, check, measure.

    Returns the result object and the check failures.
    """
    from tracing import Tracer
    from workloads import WORKLOADS

    work_dir = OUT / f"{name}-{seed}-{os.getpid()}"
    work_dir.mkdir(parents=True, exist_ok=True)
    try:
        workload = WORKLOADS[name](seed, work_dir, sizes)
        tracer = Tracer() if trace else None
        if tracer is not None:
            tracer.install()
        try:
            workload.setup()
            setup_s = time.perf_counter() - started
            t0 = time.perf_counter()
            while True:
                workload.round()
                if time.perf_counter() - t0 >= seconds:
                    break
        finally:
            if tracer is not None:
                tracer.uninstall()
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        failures = workload.check()
        if tracer is None:
            # each request at its fastest over the run's rounds: the shared
            # machine runs code up to 1.7 times slower in spells of seconds
            # to a minute, and a median over rounds moves with how much of
            # the run such spells cover; the fastest repeat of identical
            # work moves only when a spell covers all of its repeats
            items_per_round = workload.items / workload.rounds
            metrics = {
                "setup_s": (setup_s, "s"),
                "peak_rss_mb": (peak_rss_mb, "MB"),
                "work_items_per_s": (items_per_round / sum(workload.best_s), "items/s"),
                "request_p50_ms": (statistics.median(workload.best_s) * 1e3, "ms"),
            }
        else:
            metrics = tracer.metrics()
            failures += trace_failures(tracer, metrics, workload.trace_counts())
            tracer.write(OUT / f"spans-{name}-{seed}.json")
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
    result = {
        "correct": not failures,
        "attempted": workload.attempted,
        "failed": workload.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    return result, failures


def trace_failures(tracer, metrics: dict, expected: dict[str, int]) -> list[str]:
    """Traced counts against totals the workload reached another way."""
    failures = [
        f"traced {key} = {metrics[key][0]}, the workload expects {value}"
        for key, value in expected.items()
        if metrics[key][0] != value
    ]
    for idx, solves in tracer.lp_solves_by_entry().items():
        if idx < 0:
            failures.append(f"{solves} LP solves ran outside any design entry point")
            continue
        name = tracer.names[idx]
        if name.endswith("min_achievable_error"):
            want = 1
        elif idx in tracer.failed:
            continue
        else:
            want = tracer.attrs[idx]["implied_lps"]
        if solves != want:
            failures.append(f"span {idx} ({name}) made {solves} LP solves, its result implies {want}")
    return failures


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    if not (SRC / "fairldp" / "__init__.py").is_file():
        print(f"fairldp sources not found under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(HERE))
    import fairldp

    if Path(fairldp.__file__).resolve().parent != SRC / "fairldp":
        print(f"imported fairldp from {fairldp.__file__}, not {SRC}", file=sys.stderr)
        return 2
    result, failures = run_workload(
        args.workload, args.seed, args.seconds, bool(args.trace), STARTED
    )
    for failure in failures:
        print(f"CHECK FAILED: {failure}", file=sys.stderr)
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
