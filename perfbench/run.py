"""Time mm-lab end to end, or module by module, on one workload.

    python3 perfbench/run.py --workload collapse --seed 7 --seconds 15 --trace 0

Run from the root of a source checkout: the library is imported from
``src/``.  The process runs rounds of the workload's operations until their
timed sections add up to ``--seconds``, checks that every round gave the
same outputs and the last round's against the benchmark's oracles, and prints
one JSON object as the last line of stdout.  ``--trace 0`` reports the
end-to-end metrics; ``--trace 1`` wraps mm_lab's public functions with
timers and counters and reports the per-layer metrics instead.  A full
record of the run goes to ``perfbench/out/``.
"""
from __future__ import annotations

import argparse
import dataclasses
import hashlib
import json
import os
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

WORKLOAD_NAMES = ("collapse", "sphere_od", "tiny_exact", "mpf_classify")
SETUP_REPEATS = 9
# one BLAS/OpenMP thread: the work is elementwise numpy, and a pinned count
# keeps the figures steady on a shared two-core machine
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    ap.add_argument("--seed", type=int, default=7)
    ap.add_argument("--seconds", type=float, default=15.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    return ap.parse_args(argv)


def prepare_process(root: Path) -> None:
    """Pin threads, drop the sphere cache, and put src/ on the import path."""
    for var in THREAD_VARS:
        os.environ[var] = "1"
    # every run samples its spheres instead of reading a cache
    os.environ.pop("MML_CACHE_DIR", None)
    src = root / "src"
    if not (src / "mm_lab" / "__init__.py").is_file():
        raise SystemExit(f"no mm_lab sources under {src}: run from the root of a checkout")
    sys.path.insert(0, str(src))


def measure_setup(args) -> list:
    """Wall time of fresh processes that do this run's set-up and exit.

    Each covers interpreter start, the numpy/scipy/mm_lab imports and the
    workload's input generation, exactly as this process does before its
    first round.
    """
    cmd = [sys.executable, os.path.abspath(__file__), "--workload", args.workload,
           "--seed", str(args.seed), "--setup-probe"]
    samples = []
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        subprocess.run(cmd, check=True, stdout=subprocess.DEVNULL)
        samples.append(time.perf_counter() - start)
    return samples


def digest(obj, h=None):
    """Hash of a result tree: arrays by bytes, numbers by repr."""
    import numpy as np
    h = h or hashlib.sha256()
    if isinstance(obj, np.ndarray):
        h.update(f"{obj.dtype}{obj.shape}".encode())
        h.update(np.ascontiguousarray(obj).data)
    elif dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        h.update(type(obj).__name__.encode())
        for f in dataclasses.fields(obj):
            digest(getattr(obj, f.name), h)
    elif isinstance(obj, dict):
        for k in sorted(obj, key=repr):
            h.update(repr(k).encode())
            digest(obj[k], h)
    elif isinstance(obj, (list, tuple)):
        h.update(f"{type(obj).__name__}{len(obj)}".encode())
        for v in obj:
            digest(v, h)
    else:
        h.update(repr(obj).encode())
    return h


def run_round(ops):
    """Run one round; returns (results by label, failed labels, seconds)."""
    results, failed = {}, []
    start = time.perf_counter()
    for label, op in ops:
        try:
            results[label] = op()
        except Exception:  # a failing operation is counted, and the round goes on
            failed.append(label)
            print(f"operation {label} failed:\n{traceback.format_exc()}", file=sys.stderr)
    return results, failed, time.perf_counter() - start


def main(argv=None) -> int:
    args = parse_args(argv)
    root = Path.cwd()
    prepare_process(root)
    setup = [] if args.trace or args.setup_probe else measure_setup(args)

    from workloads import WORKLOADS
    workload = WORKLOADS[args.workload]
    inp = workload.inputs(args.seed)
    if args.setup_probe:
        os._exit(0)  # the set-up is measured up to here; skip interpreter teardown

    from tracing import Tracer, metric_names
    tracer = Tracer()
    if args.trace:
        tracer.install()
    ops = workload.ops(inp)

    round_s, layers, digests = [], [], []
    attempted = failed = 0
    while True:
        tracer.reset()
        results, failed_labels, seconds = run_round(ops)
        round_s.append(seconds)
        layers.append(tracer.snapshot())
        attempted += len(ops)
        failed += len(failed_labels)
        digests.append(digest(results).hexdigest())
        if sum(round_s) >= args.seconds:
            break
        del results
    # the checks run after every timed round, so their allocations can
    # change neither the round times nor the peak
    peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    problems = workload.check(inp, results)
    if len(set(digests)) > 1:
        problems.append(f"outputs differ between rounds: {digests}")

    if args.trace:
        counts = [{k: v for k, v in snap.items() if k.endswith(".calls")} for snap in layers]
        if any(c != counts[0] for c in counts):
            problems.append("call counts differ between rounds")
        # counts repeat exactly every round; times are medians over rounds
        metrics = {name: {"value": layers[0][name] if unit in ("count", "flows/call")
                          else statistics.median(s[name] for s in layers), "unit": unit}
                   for name, unit in metric_names()}
    else:
        metrics = {
            "setup_s": {"value": statistics.median(setup), "unit": "s"},
            "run_s": {"value": statistics.median(round_s), "unit": "s"},
            "peak_rss_mb": {"value": peak_mb, "unit": "MB"},
        }

    for p in problems:
        print(f"CHECK FAILED: {p}", file=sys.stderr)
    result = {"correct": not problems, "attempted": attempted, "failed": failed,
              "metrics": metrics}
    record = dict(result, workload=args.workload, seed=args.seed, seconds=args.seconds,
                  trace=args.trace, rounds=len(round_s), round_s=round_s,
                  setup_samples_s=setup, problems=problems, ops_per_round=len(ops),
                  python=sys.version.split()[0], nproc=os.cpu_count(),
                  blas_threads=os.environ["OMP_NUM_THREADS"])
    out_dir = root / "perfbench" / "out"
    out_dir.mkdir(exist_ok=True)
    (out_dir / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1) + "\n")
    print(f"{args.workload}: {len(round_s)} rounds, run_s per round "
          f"{[round(s, 3) for s in round_s]}, {len(problems)} check problems", file=sys.stderr)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
