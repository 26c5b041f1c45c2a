#!/usr/bin/env python3
"""riscap benchmark: runs one workload in this process and prints its metrics.

    python3 perfbench/run.py --workload panel_d_sweep --seed 1 --seconds 10 --trace 0

Run from the root of a checkout; the program is imported from its ``src``.
With ``--trace 0`` the run measures the end-to-end metrics with tracing
off; with ``--trace 1`` it replays each operation through the same public
calls with a span around each, and reports the per-layer metrics. Metric
names and units come from ``BENCHMARK.json``. Every operation's output is
checked; the last line of standard output is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``. The exit code is 0
when every check passed, 1 otherwise. ``--quick`` shrinks the workloads
to a smoke test that still prints every metric.

Run as a script it limits OpenBLAS to one thread: on a shared machine
with few cores a second BLAS thread measures the scheduler, not riscap.
"""

import argparse
import ctypes
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
import traceback
from collections import defaultdict
from pathlib import Path
from time import perf_counter

import numpy

import checks
from spans import Spans

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

WORKLOADS = ("panel_d_sweep", "wide_fine_sweep", "oracle_certify")
DEFAULT_SEED = 1
SETUP_REPEATS = 9
WARM_MIN = 3
LOAD_REPEATS = 50
WRITE_REPEATS = 20
WORKER_PAIRS = 2

SETUP_CODE = ("import sys; sys.path.insert(0, sys.argv[1]); import riscap; "
              "[riscap.parse_plan_text(text) for text in sys.argv[2:]]")

# Span name -> (per-layer metric, seconds-to-unit factor).
LAYER_SPANS = {
    "sim.sample_heights": ("sim.sample_heights_us", 1e6),
    "geometry.build_positions": ("geometry.build_positions_us", 1e6),
    "channel.build_cascade": ("channel.build_cascade_us", 1e6),
    "channel.assemble_h": ("channel.assemble_h_us", 1e6),
    "schemes.solve_ris_only": ("schemes.solve_ris_only_us", 1e6),
    "schemes.solve_joint": ("schemes.solve_joint_us", 1e6),
    "schemes.joint_gain": ("schemes.joint_gain_us", 1e6),
    "schemes.cophasing": ("schemes.cophasing_us", 1e6),
    "schemes.basic": ("schemes.basic_us", 1e6),
    "approx.approx_gain": ("approx.approx_gain_us", 1e6),
    "oracle.exhaustive_best": ("oracle.exhaustive_best_s", 1.0),
    "oracle.random_restart_best": ("oracle.random_restart_best_s", 1.0),
}


def load_program():
    "Import riscap from the checkout's ``src``, and from nowhere else."
    if not (SRC / "riscap" / "__init__.py").is_file():
        raise SystemExit(f"riscap source not found under {SRC}")
    sys.path.insert(0, str(SRC))
    import riscap
    if Path(riscap.__file__).resolve().parent != (SRC / "riscap").resolve():
        raise SystemExit(f"riscap was imported from {riscap.__file__}, not {SRC}")
    return riscap


class Tally:
    "Operations attempted and failed; a failure is an exception or a check problem."

    def __init__(self):
        self.attempted = 0
        self.failed = 0

    def record(self, problems: list) -> None:
        self.attempted += 1
        if problems:
            self.failed += 1
            for problem in problems[:5]:
                print(f"check failed: {problem}", file=sys.stderr)

    def op(self, check, fn, *args):
        """Run and time one operation, then check its output.

        Returns ``(seconds, output)``, or ``(None, None)`` if it raised.
        """
        start = perf_counter()
        try:
            output = fn(*args)
            elapsed = perf_counter() - start
            problems = check(output)
        except Exception:
            traceback.print_exc()
            self.record(["operation raised"])
            return None, None
        self.record(problems)
        return elapsed, output


def median(values) -> float:
    "Median, or 0.0 when every attempt failed (the run then reads incorrect)."
    return statistics.median(values) if values else 0.0


def warm_samples(tally, check, fn, deadline: float, minimum: int) -> list:
    "Seconds of each repeat of ``fn`` until ``deadline`` passes and ``minimum`` ran."
    samples = []
    attempts = 0
    while attempts < minimum or perf_counter() < deadline:
        attempts += 1
        elapsed, _ = tally.op(check, fn)
        if elapsed is not None:
            samples.append(elapsed)
    return samples


def measure_setup(texts, repeats: int, tally) -> list:
    "Wall seconds of fresh interpreters that import riscap and load the plans."
    def start():
        return subprocess.run([sys.executable, "-c", SETUP_CODE, str(SRC), *texts],
                              capture_output=True, text=True, check=False)

    def check(proc):
        return [f"set-up interpreter failed: {proc.stderr.strip()}"] if proc.returncode else []

    return [t for t, _ in (tally.op(check, start) for _ in range(repeats)) if t is not None]


def first_output_check(work, args):
    "Checks on the first output: the workload's own, plus the recorded digest."
    digests = json.loads((HERE / "digests.json").read_text())

    def check(output):
        problems = work.failures(output)
        if args.seed == DEFAULT_SEED and not args.quick:
            problems += checks.digest_failures(work.canonical(output), digests.get(args.workload))
        return problems

    return check


def same_as(work, reference, what):
    def check(output):
        if reference is None:
            return work.failures(output)
        return checks.same_output(work.canonical(output), reference, what)

    return check


def end_to_end(work, args, tally) -> dict:
    """Set-up and warm-run times, interleaved over ``--seconds``.

    The run is cut into one slice per set-up interpreter, so both medians
    span the whole run rather than one stretch of it.
    """
    _, first = tally.op(first_output_check(work, args), work.operation)
    reference = None if first is None else work.canonical(first)
    check = same_as(work, reference, "repeated output")
    slices = 1 if args.quick else SETUP_REPEATS
    start = perf_counter()
    setup, runs = [], []
    for i in range(1, slices + 1):
        setup += measure_setup(work.texts, 1, tally)
        runs += warm_samples(tally, check, work.operation,
                             start + args.seconds * i / slices, 1)
    if work.sweep:
        tally.op(same_as(work, reference, f"CSV with {work.parallel_workers} workers"),
                 work.operation, work.parallel_workers)
    print(f"run_s samples={len(runs)} (median reported; too few for a tail percentile)")
    return {
        "setup_s": median(setup),
        "run_s": median(runs),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def per_layer(work, args, tally, riscap) -> dict:
    loads = []
    for _ in range(LOAD_REPEATS):
        start = perf_counter()
        for text in work.texts:
            riscap.parse_plan_text(text)
        loads.append(perf_counter() - start)

    first_t, first = tally.op(first_output_check(work, args), work.operation)
    reference = None if first is None else work.canonical(first)
    check = same_as(work, reference, "repeated output")
    warm = warm_samples(tally, check, work.operation, 0.0, 1 if args.quick else WARM_MIN)

    totals, base, traced = replay(work, args.seconds, tally)
    units = list(base)
    children = defaultdict(float)
    for (unit, _), seconds in totals.items():
        children[unit] += seconds
    values = {"config.load_plan_ms": median(loads) * 1e3, **work.counts()}
    for span, (metric, scale) in LAYER_SPANS.items():
        values[metric] = median([totals.get((u, span), 0.0) for u in units]) * scale
    exhaustive = values["oracle.exhaustive_best_s"]
    values["oracle.candidates_per_s"] = (values["oracle.candidates"] / exhaustive
                                         if exhaustive else 0.0)
    values["sim.first_run_extra_s"] = first_t - median(warm) if first_t is not None else 0.0
    untraced = sum(base.values())
    values["trace.coverage"] = sum(children.values()) / untraced if units else 0.0
    values["trace.overhead"] = sum(traced.values()) / untraced if units else 0.0
    # Layers only a sweep runs read 0 on the oracle.
    values["sim.dispatch_us"] = values["sim.write_csv_ms"] = values["sim.workers_speedup"] = 0.0
    if work.sweep:
        values["sim.dispatch_us"] = median([base[u] - children[u] for u in units]) * 1e6
        if work.table is not None:
            values["sim.write_csv_ms"] = median(
                [_seconds(riscap.write_csv, work.table, work.csv_path)
                 for _ in range(WRITE_REPEATS)]) * 1e3
        values["sim.workers_speedup"] = workers_speedup(work, tally, reference)
    print(f"traced units={len(units)}")
    return values


def replay(work, seconds: float, tally):
    """Run each unit untraced, then traced, until ``seconds`` pass.

    Every unit runs at least once. Returns the span totals and the seconds
    of each untraced and traced unit, keyed by ``(pass, unit)``.
    """
    spans = Spans()
    base, traced = {}, {}
    deadline = perf_counter() + seconds
    passes = 0
    while passes == 0 or perf_counter() < deadline:
        for unit in work.units():
            spans.unit = key = (passes, unit)
            _, out = tally.op(lambda pair: work.parity_failures(unit, *pair[2:]),
                              _untraced_then_traced, work, spans, unit)
            if out is not None:
                base[key], traced[key] = out[:2]
        passes += 1
    return spans.totals(), base, traced


def _untraced_then_traced(work, spans, unit):
    start = perf_counter()
    want = work.untraced(unit)
    middle = perf_counter()
    got = work.traced(spans, unit)
    return middle - start, perf_counter() - middle, want, got


def workers_speedup(work, tally, reference) -> float:
    "run_plan(workers=1) over run_plan(workers=nproc), medians of alternating pairs."
    check = same_as(work, reference, f"CSV with {work.parallel_workers} workers")
    serial, parallel = [], []
    for pair in range(WORKER_PAIRS):
        order = (1, work.parallel_workers) if pair % 2 == 0 else (work.parallel_workers, 1)
        for workers in order:
            elapsed, _ = tally.op(check, work.operation, workers)
            if elapsed is not None:
                (serial if workers == 1 else parallel).append(elapsed)
    return median(serial) / median(parallel) if serial and parallel else 0.0


def _seconds(fn, *args) -> float:
    start = perf_counter()
    fn(*args)
    return perf_counter() - start


def manifest(args, riscap) -> dict:
    "What ran, and on what."
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "quick": args.quick,
        "nproc": os.cpu_count(),
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": _blas_threads(),
        "riscap": riscap.__version__,
        "git_revision": _git_revision(),
    }


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as handle:
            for line in handle:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _openblas(suffix: str):
    "The loaded OpenBLAS's ``openblas_<suffix>`` function, or None if not found."
    try:
        with open("/proc/self/maps") as handle:
            libs = {line.split()[-1] for line in handle if "openblas" in line.lower()}
    except OSError:
        return None
    for path in sorted(libs):
        lib = ctypes.CDLL(path)
        for prefix in ("scipy_openblas_", "openblas_"):
            for name in (f"{prefix}{suffix}64_", f"{prefix}{suffix}"):
                fn = getattr(lib, name, None)
                if fn is not None:
                    return fn
    return None


def _blas_threads():
    "Thread count of the loaded OpenBLAS, or None if it cannot be asked."
    fn = _openblas("get_num_threads")
    if fn is None:
        return None
    fn.restype = ctypes.c_int
    return fn()


def _limit_blas_threads(count: int) -> None:
    fn = _openblas("set_num_threads")
    if fn is not None:
        fn(ctypes.c_int(count))


def _git_revision() -> str:
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, check=False)
    except OSError:
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--quick", action="store_true",
                        help="tiny inputs and minimal repeats, for smoke tests")
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be nonnegative")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    riscap = load_program()
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    import workloads

    tally = Tally()
    with tempfile.TemporaryDirectory(dir=ROOT, prefix=".perfbench-") as out_dir:
        work = workloads.make(args.workload, args.seed, args.quick, Path(out_dir))
        if args.trace:
            values, listed = per_layer(work, args, tally, riscap), spec["per_layer"]
        else:
            values, listed = end_to_end(work, args, tally), spec["end_to_end"]
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in listed}
    for name, metric in metrics.items():
        print(f"{name} = {metric['value']!r} {metric['unit']}")
    print(f"error_rate = {tally.failed / max(tally.attempted, 1)!r} "
          f"({tally.failed} of {tally.attempted} operations failed)")
    print("manifest " + json.dumps(manifest(args, riscap), sort_keys=True))
    correct = tally.failed == 0
    print(json.dumps({"correct": correct, "attempted": tally.attempted,
                      "failed": tally.failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    _limit_blas_threads(1)
    sys.exit(main())
