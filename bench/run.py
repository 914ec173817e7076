"""Benchmark of the landau instrument.

    python3 bench/run.py --workload NAME [--seed N] [--seconds S] [--trace 0|1]

The seed defaults to 0 and S to 30, the run length of BENCHMARK.json.  Runs
whole rounds of the workload's operations that fit in S seconds,
checks every round's outputs, and prints as its last line one JSON object
with `correct`, `attempted`, `failed` and `metrics`.  With --trace 0 the
metrics are the end-to-end ones of BENCHMARK.json; with --trace 1 the program
is wrapped by `tracing.Tracer`, the per-layer metrics are printed and the
spans are written to .bench_out/.  Run it from the root of a checkout: the
program is imported from ./src, and nothing else is.
"""

import os

# At most two threads: the interpreter and nothing else.  numpy's FFT is
# single-threaded; these keep BLAS from starting its own pool.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import json
import resource
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".bench_out")
SETUP_SAMPLES = 8  # half before the rounds, half after, so they span the run


def import_program():
    """Import landau from this checkout's src/, and from nowhere else."""
    sys.path.insert(0, SRC)
    sys.path.insert(0, HERE)
    import landau
    if os.path.dirname(os.path.abspath(landau.__file__)) != os.path.join(SRC, "landau"):
        raise ImportError(f"landau imported from {landau.__file__}, not from {SRC}")
    return landau


def setup_seconds(name, seed, workdir):
    """Fresh interpreter to ready, measured in a child that exits when ready."""
    start = time.monotonic()
    proc = subprocess.run([sys.executable, os.path.join(HERE, "setup_probe.py"),
                           name, str(seed), workdir],
                          capture_output=True, text=True, timeout=120, check=True)
    return float(proc.stdout.split()[-1]) - start


def measure(workload, seconds):
    """Whole rounds while the next one, at the median round time so far, ends
    within `seconds`; at least one.  The check of a round is untimed."""
    times, windows, failures = [], [], []
    attempted = failed = 0
    begin = time.perf_counter()
    while not times or time.perf_counter() - begin + statistics.median(times) <= seconds:
        t0 = time.perf_counter()
        result = workload.round()
        t1 = time.perf_counter()
        times.append(t1 - t0)
        windows.append((t0, t1))
        out = workload.collect(result)
        attempted += workload.ops_per_round
        failed += out["failed"]
        for error in out["errors"]:
            print(f"round {len(times)}: failed operation: {error}")
        for name, ok, detail in workload.check(out):
            print(f"round {len(times)}: {'ok  ' if ok else 'FAIL'} {name}: {detail}")
            if not ok:
                failures.append(name)
    return times, windows, attempted, failed, failures


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        landau = import_program()
    except ImportError as exc:
        print(f"bench: cannot import the program: {exc}", file=sys.stderr)
        return 2
    import tracing
    import workloads
    if args.workload not in workloads.WORKLOADS:
        print(f"bench: unknown workload {args.workload!r}; "
              f"choose from {sorted(workloads.WORKLOADS)}", file=sys.stderr)
        return 2

    workdir = os.path.join(OUT, f"{args.workload}-seed{args.seed}")
    os.makedirs(workdir, exist_ok=True)
    workload = workloads.WORKLOADS[args.workload](args.seed, workdir)
    workload.write_inputs()

    half = 0 if args.trace else SETUP_SAMPLES // 2
    setups = [setup_seconds(args.workload, args.seed, workdir) for _ in range(half)]
    tracer = None
    if args.trace:
        tracer = tracing.Tracer()
        tracer.install(landau, tracing.program_hooks())
    s0 = time.perf_counter()
    workload.setup()
    s1 = time.perf_counter()

    times, windows, attempted, failed, failures = measure(workload, args.seconds)
    setups += [setup_seconds(args.workload, args.seed, workdir) for _ in range(half)]
    wall = statistics.median(times)
    print(f"{args.workload} seed {args.seed}: {len(times)} rounds, "
          f"round wall s {[round(t, 4) for t in times]}, median {wall:.4f}")
    if workload.sim_time:
        print(f"sim_time_per_s {workload.sim_time / wall:.6f} t_sim/s")

    if tracer is None:
        metrics = {
            "setup_s": (statistics.median(setups), "s"),
            "wall_s": (wall, "s"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        }
        print(f"setup samples s {[round(s, 4) for s in setups]}")
    else:
        metrics, summary = tracing.layer_metrics(tracer.spans, (s0, s1), windows)
        path = os.path.join(OUT, f"spans-{args.workload}-seed{args.seed}.json")
        with open(path, "w") as fh:
            json.dump({"workload": args.workload, "seed": args.seed,
                       "setup_window": (s0, s1), "round_windows": windows,
                       "traced_wall_s": wall, **summary,
                       "metrics": {k: v for k, (v, _) in metrics.items()},
                       "spans": tracer.spans}, fh)
        print(f"traced wall_s {wall:.4f}; spans cover {summary['coverage']:.4f} "
              f"of the rounds; {len(tracer.spans)} spans in {path}")
        print("self time per round, s: " + ", ".join(
            f"{k} {v:.4f}" for k, v in summary["self_s"].items()))
    if failures:
        print(f"failed checks: {sorted(set(failures))}", file=sys.stderr)
    print(json.dumps({
        "correct": not failures,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
