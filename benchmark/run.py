"""Benchmark for requland: four workloads, end-to-end and per-layer metrics.

Run from the root of a requland checkout:

    python3 benchmark/run.py --workload single-c01 --seed 0 --seconds 25 --trace 0

A run repeats whole rounds of the workload's operations while another round
fits in --seconds (at least three rounds), checks every output, and
prints one JSON object as its last line.  With --trace 0 it reports solve_s
(the sum over operations of each one's median repeat), setup_s (the median
of fresh-interpreter set-ups) and peak_rss_mb; both times are in
reference-host seconds (see hostspeed.py).  With --trace 1 it
runs untraced rounds for half the time, then one round with spans at the
layer boundaries, and reports the per-layer metrics in wall-clock seconds.
Details: benchmark/README.md.
"""

import os
import sys

# One BLAS thread per Python thread: the program's own thread pools (two
# workers on a 2-core host) then stay within the core count.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import json
import platform
import resource
import shutil
import statistics
import subprocess
import time
from functools import partial
from pathlib import Path

import checks
import hostspeed

ROOT = Path.cwd()
SRC = ROOT / "src"
RUNS = ROOT / ".bench_runs"
MIN_ROUNDS = 3
SETUP_SAMPLES = 7
MAX_SOLVE_SECONDS = 120.0  # no new round starts after this, to end within 180 s


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-only", metavar="DIR",
                   help="make the inputs in DIR, print 'ready' and exit (times setup_s)")
    return p.parse_args(argv)


def import_program():
    """Import requland from this checkout's src/, never from elsewhere."""
    if not (SRC / "requland" / "__init__.py").is_file():
        raise SystemExit(f"benchmark: no src/requland under {ROOT}; run from a requland checkout")
    sys.path.insert(0, str(SRC))
    import requland

    if Path(requland.__file__).resolve().parent != (SRC / "requland").resolve():
        raise SystemExit(f"benchmark: imported requland from {requland.__file__}, not {SRC}")
    import workloads

    return workloads


def time_setups(args, workdir: Path, gauge) -> list:
    """Samples of the time from spawning a fresh interpreter to its 'ready' line."""
    samples = []
    for k in range(SETUP_SAMPLES):
        target = workdir / f"setup-{k}"
        argv = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
                "--seed", str(args.seed), "--seconds", "0", "--setup-only", str(target)]
        with gauge.running():
            start = time.perf_counter()
            with subprocess.Popen(argv, stdout=subprocess.PIPE, text=True) as child:
                line = child.stdout.readline()
                ready = time.perf_counter()
                child.stdout.read()
        if child.returncode != 0 or line.strip() != "ready":
            raise SystemExit(f"benchmark: set-up child failed with code {child.returncode}")
        samples.append(gauge.sample(ready - start, same_thread=False))
        shutil.rmtree(target, ignore_errors=True)
    return samples


class Runner:
    """Runs whole rounds of a workload's operations, timing and checking each.

    An operation fails when the program raises, or when its check finds a
    problem ("bad": a wrong output); its outputs must also be identical in
    every round.  Times are kept, as hostspeed Samples, for operations that
    passed.  With gauge None (the traced round) no samples are taken, and
    both fields hold the wall time.
    """

    def __init__(self, ops, workdir: Path, gauge=None):
        self.ops, self.workdir, self.gauge = ops, workdir, gauge
        self.fingerprints, self.log = {}, []
        self.attempted = self.failed = self.bad = 0
        self.round_seconds = []

    def round(self, order, times, tag) -> int:
        """One pass in the given order; returns the bytes of artifacts written."""
        artifact_bytes, seconds = 0, 0.0
        for i in order:
            op = self.ops[i]
            out_dir = self.workdir / tag / op.name
            self.attempted += 1
            try:
                out, sample = self.measure(partial(op.run, out_dir))
            except Exception as exc:  # the operation failed; keep measuring the rest
                self.log.append(f"{op.name}: {type(exc).__name__}: {exc}")
                self.failed += 1
                continue
            try:
                problems = op.check(out)
            except Exception as exc:  # unreadable or malformed output
                problems = [f"check raised {type(exc).__name__}: {exc}"]
            digest = op.fingerprint(out)
            if self.fingerprints.setdefault(op.name, digest) != digest:
                problems.append("outputs differ from the first round's")
            if out_dir.exists():  # CLI artifacts
                artifact_bytes += checks.tree_bytes(out_dir)
                shutil.rmtree(out_dir, ignore_errors=True)
            if problems:
                self.log.append(f"{op.name}: " + "; ".join(problems))
                self.failed += 1
                self.bad += 1
                continue
            times[op.name].append(sample)
            seconds += sample.wall
        self.round_seconds.append(seconds)
        return artifact_bytes

    def measure(self, work):
        if self.gauge is None:
            start = time.perf_counter()
            out = work()
            wall = time.perf_counter() - start
            return out, hostspeed.Sample(wall, wall)
        with self.gauge.running():
            start = time.perf_counter()
            out = work()
            wall = time.perf_counter() - start
        return out, self.gauge.sample(wall)


def median_sum(times, field: str) -> float:
    """The in-run statistic: each operation's median repeat, summed."""
    return sum(statistics.median(getattr(x, field) for x in v) for v in times.values() if v)


def main(argv=None) -> int:
    args = parse_args(argv)
    workloads = import_program()
    if args.workload not in workloads.WORKLOADS:
        raise SystemExit(f"benchmark: unknown workload {args.workload!r}; "
                         f"expected one of {', '.join(workloads.WORKLOADS)}")
    if args.setup_only:
        workloads.build(args.workload, args.seed, Path(args.setup_only))
        print("ready", flush=True)
        return 0

    import numpy as np
    import scipy

    import tracing

    workdir = RUNS / f"{args.workload}-{os.getpid()}"
    try:
        gauge = hostspeed.Gauge()
        setup = [] if args.trace else time_setups(args, workdir, gauge)
        ops = workloads.build(args.workload, args.seed, workdir / "inputs")
        order = np.random.default_rng(args.seed)
        runner = Runner(ops, workdir, gauge)
        times = {op.name: [] for op in ops}
        budget = args.seconds / 2 if args.trace else args.seconds
        min_rounds = 1 if args.trace else MIN_ROUNDS
        begin = time.perf_counter()
        while True:
            runner.round(order.permutation(len(ops)), times, f"round-{len(runner.round_seconds)}")
            spent = time.perf_counter() - begin
            rounds = len(runner.round_seconds)
            # Start another round only if it should end within the budget.
            if spent >= MAX_SOLVE_SECONDS or (
                    rounds >= min_rounds and spent * (rounds + 1) / rounds > budget):
                break
        solve_s = median_sum(times, "ref")
        result = {
            "workload": args.workload, "seed": args.seed,
            "statistic": "sum over operations of each operation's median repeat",
            "reference_seconds": hostspeed.REFERENCE_SECONDS,
            "solve_wall_s": median_sum(times, "wall"),
            "op_samples": {k: [x._asdict() for x in v] for k, v in times.items()},
            "round_seconds": runner.round_seconds, "problems": runner.log,
            "host": {"nproc": len(os.sched_getaffinity(0)), "numpy": np.__version__,
                     "scipy": scipy.__version__, "python": platform.python_version()},
        }

        if args.trace:
            tracer = tracing.Tracer()
            traced = {op.name: [] for op in ops}
            runner.gauge = None  # the timer's samples would land inside spans
            tracer.install()
            try:
                artifact_bytes = runner.round(order.permutation(len(ops)), traced, "traced")
            finally:
                tracer.uninstall()
            # Spans are wall-clock times, so the traced run compares wall times.
            metrics = tracing.layer_metrics(tracer, median_sum(traced, "wall"),
                                            result["solve_wall_s"], artifact_bytes)
            units = {name: unit for name, unit, _ in tracing.METRICS}
            tracer.write_spans(ROOT / f"BENCH_{args.workload}_spans.csv")
            by_name = tracer.summary()[0]
            for row in by_name.values():
                row["notes"] = len(row["notes"])
            result.update(absent=tracer.absent, per_layer=metrics, spans_by_name=by_name)
            name = f"BENCH_{args.workload}_trace.json"
        else:
            metrics = {
                "solve_s": solve_s,
                "setup_s": statistics.median(x.ref for x in setup),
                "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            }
            units = {"solve_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}
            result.update(setup_samples=[x._asdict() for x in setup], end_to_end=metrics,
                          setup_wall_s=statistics.median(x.wall for x in setup))
            name = f"BENCH_{args.workload}.json"
        (ROOT / name).write_text(json.dumps(result, indent=1) + "\n")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    for line in runner.log:
        print(f"problem: {line}", file=sys.stderr)
    if result.get("absent"):
        print(f"absent, reported as 0: {', '.join(result['absent'])}", file=sys.stderr)
    print(f"{args.workload} seed {args.seed}: {len(runner.round_seconds)} rounds, "
          f"{runner.attempted} operations attempted, {runner.failed} failed")
    for key, value in metrics.items():
        print(f"  {key} = {value:.6g} {units[key]}")
    if not args.trace:
        print(f"  wall clock: solve {result['solve_wall_s']:.6g} s, "
              f"set-up {result['setup_wall_s']:.6g} s")
    print(json.dumps({
        "correct": runner.bad == 0,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
