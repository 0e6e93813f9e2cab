"""ekrlab benchmark: run one workload and print its metrics.

    python3 perfbench/run.py --workload sweep_serial --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py --workload all      # every workload, one process each

Run it from the root of a checkout: it imports ekrlab from ./src.  With
--trace 0 it prints the end-to-end metrics, with --trace 1 the per-layer
metrics of a separate traced run (spans go to .perfbench/).  The last line
of standard output is one JSON object: correct, attempted, failed, metrics.
The exit code is 0 only when every output check passed.
"""

from __future__ import annotations

import argparse
import multiprocessing
import os
import resource
import statistics
import subprocess
import sys
from concurrent.futures import ProcessPoolExecutor
from time import perf_counter

from measure import (END_TO_END, PER_LAYER, REFERENCE_S, HostSpeed, Tally, Tracer,
                     median_per_op, percentile, permille_label, result_line, tail_permille)

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORKLOADS = ("sweep_serial", "sweep_parallel", "frontier", "witness_scan")
MIN_ROUNDS = 2
SETUP_RUNS = 5


def import_program() -> None:
    """Import ekrlab from this checkout's src/, never from elsewhere."""
    init = os.path.join(SRC, "ekrlab", "__init__.py")
    if not os.path.isfile(init):
        raise SystemExit(f"perfbench: {init} not found; run from the root of a checkout")
    sys.path.insert(0, SRC)
    import ekrlab
    if os.path.abspath(ekrlab.__file__) != init:
        raise SystemExit(f"perfbench: imported ekrlab from {ekrlab.__file__}, not {SRC}")


def setup_seconds(workload: str, seed: int) -> float:
    """Median over fresh interpreters of importing ekrlab and building the
    inputs, each scaled by the reference speed that interpreter measured."""
    probe = os.path.join(HERE, "setup_probe.py")
    times = []
    for _ in range(SETUP_RUNS):
        done = subprocess.run([sys.executable, probe, workload, str(seed)], cwd=ROOT,
                              capture_output=True, text=True, timeout=120, check=True)
        times.append(float(done.stdout.split()[-1]))
    return statistics.median(times)


def measure_rounds(wl, inp, seconds: float, speed: HostSpeed) -> tuple[list, float]:
    """Rounds on the same inputs until the next one would overrun `seconds`."""
    rounds = []
    start = perf_counter()
    while True:
        rounds.append(wl.round(inp, speed))
        elapsed = perf_counter() - start
        if len(rounds) >= MIN_ROUNDS and elapsed * (len(rounds) + 1) / len(rounds) > seconds:
            return rounds, elapsed


def run_untraced(name: str, seed: int, seconds: float) -> tuple[Tally, dict]:
    from workloads import WORKLOADS as table
    wl = table[name]
    inp = wl.build(seed)
    workers = getattr(wl, "workers", 1)
    if workers > 1:
        # fork, as ekrlab's own pool: spawn would leave a resource-tracker
        # process running past the end of the benchmark
        ctx = multiprocessing.get_context("fork")
        with ProcessPoolExecutor(max_workers=workers, mp_context=ctx) as pool:
            speed = HostSpeed(pool, workers)
            speed.sample()          # start the workers before timing
            speed.samples.clear()
            rounds, elapsed = measure_rounds(wl, inp, seconds, speed)
            # the program's pool workers; the reference pool is not reaped yet
            workers_rss = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0
    else:
        speed = HostSpeed()
        rounds, elapsed = measure_rounds(wl, inp, seconds, speed)
    tally = Tally(wl.ops(inp))
    wl.check(inp, rounds, tally)
    ops = median_per_op([r.op_s for r in rounds])
    values = {
        "setup_s": setup_seconds(name, seed),
        "wall_s": statistics.median(r.wall_s for r in rounds),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    ref_ms = sorted(t * 1e3 for t in speed.samples)
    print(f"{name}: seed {seed}, {len(rounds)} rounds in {elapsed:.1f} s; times are "
          f"at reference-host speed (reference {REFERENCE_S * 1e3:g} ms, measured "
          f"{ref_ms[0]:.3g}-{ref_ms[-1]:.3g} ms); unscaled median wall_s "
          f"{statistics.median(r.raw_wall_s for r in rounds):.6g} s")
    for metric, unit in END_TO_END.items():
        print(f"  {metric} = {values[metric]:.6g} {unit}")
    if ops:     # the banks' per-instance times; a sweep is one opaque call
        for pm in sorted({500, tail_permille(len(ops)) or 500}):
            print(f"  op_ms_{permille_label(pm)} = {percentile(ops, pm) * 1e3:.6g} ms "
                  f"(n = {len(ops)} operations, each the median of {len(rounds)} rounds)")
    if workers > 1:
        print(f"  largest worker peak_rss_mb = {workers_rss:.6g} MB")
    print(f"  failed_frac = {tally.failed_frac:.6g} ({tally.failed}/{tally.attempted})")
    return tally, values


def run_traced(name: str, seed: int) -> tuple[Tally, dict]:
    from workloads import WORKLOADS as table
    wl = table[name]
    inp = wl.build(seed)
    tally = Tally(wl.ops(inp))
    tracer = Tracer()
    values = wl.trace(inp, tracer, tally)
    out = os.path.join(ROOT, ".perfbench")
    os.makedirs(out, exist_ok=True)
    path = os.path.join(out, f"trace-{name}-seed{seed}.jsonl")
    tracer.write_jsonl(path)
    print(f"{name}: seed {seed}, traced run; {len(tracer.spans)} spans in {path}")
    for metric, unit in PER_LAYER.items():
        print(f"  {metric} = {values[metric]:.6g} {unit}")
    print(f"  failed_frac = {tally.failed_frac:.6g} ({tally.failed}/{tally.attempted})")
    return tally, values


def run_all(args) -> int:
    """Each workload in its own process, so peak memory is per workload."""
    status = 0
    for name in WORKLOADS:
        cmd = [sys.executable, os.path.abspath(__file__), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        status |= subprocess.run(cmd, cwd=ROOT).returncode
    return 1 if status else 0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=25.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    import_program()
    if args.trace:
        tally, values = run_traced(args.workload, args.seed)
        line = result_line(tally, values, PER_LAYER)
    else:
        tally, values = run_untraced(args.workload, args.seed, args.seconds)
        line = result_line(tally, values, END_TO_END)
    for err in tally.errors[:20]:
        print(f"  CHECK FAILED: {err}")
    print(line, flush=True)
    return 0 if tally.correct else 1


if __name__ == "__main__":
    sys.exit(main())
