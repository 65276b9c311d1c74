#!/usr/bin/env python3
"""Benchmark of the bundleqm package, run from the root of a source tree.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 bench/run.py --workload all --seed N --seconds S --trace 0|1

Workloads are defined in `workloads.py`; BENCHMARK.json lists the ones
whose timings stay steady on a shared two-core machine (verify-all and
io-roundtrip), while husimi-field and grid-operators, whose 1025^2 grids
make them sensitive to other tenants' memory traffic, run on request or
with `--workload all`.  Each workload runs as a closed loop in
one process with one client: the next operation starts when the previous
one has finished.  Operations repeat whole cycles of the seeded inputs
until at least S seconds have passed and enough operations were timed for
the workload's tail percentile to have ten samples beyond it.  BLAS
threads are pinned to BLAS_THREADS, `BUNDLEQM_OUT` points to a scratch
directory under `.bench_out/`, and each operation's stdout is captured.
Checks and output hashing run outside the timed interval; an operation
fails if it raises, if a check fails, or if an identical input produced
different output bytes earlier in the run.

With --trace 0 the end-to-end metrics are printed as a table: set-up
time, the median and tail of all operation times, throughput, the median
over inputs of each input's fastest time and the throughput at those
times, the error rate and peak memory.  Set-up time is the median of
SETUP_REPEATS fresh-interpreter imports spread over the run.  The result
line carries the GATED subset.

With --trace 1 the run times half of S untraced, then half with the tracer
of `tracing.py` installed, reports per-layer metrics (means per operation)
and writes the spans to `.bench_out/spans/`.  The last line of stdout is one JSON object
with the keys correct, attempted, failed and metrics; `correct` is false
only for failures that are not documented defects (see workloads.py).
"""

import os

BLAS_THREADS = 1
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

import argparse
import contextlib
import hashlib
import io
import json
import math
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT_ROOT = ROOT / ".bench_out"
WORKLOAD_NAMES = ("verify-all", "husimi-field", "io-roundtrip", "grid-operators")
SETUP_REPEATS = 7
END_TO_END_UNITS = {"setup_s": "s", "op_s_p50": "s", "op_s_tail": "s",
                    "ops_per_s": "1/s", "op_s_best_p50": "s", "ops_per_s_best": "1/s",
                    "peak_rss_mb": "MB"}
# End-to-end metrics in the result line.  The median and tail of all
# operation times move with the load other tenants put on a shared machine;
# each input's fastest time does not, so the gated timings use it.
GATED = ("setup_s", "op_s_best_p50", "ops_per_s_best", "peak_rss_mb")


def setup_time() -> float:
    """Wall time from spawning a fresh interpreter to `import bundleqm` having
    returned, with bytecode caches written and used as an installed package
    would have them."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    code = "import bundleqm, time; print(repr(time.perf_counter()))"
    start = time.perf_counter()      # CLOCK_MONOTONIC, shared with the child
    done = subprocess.run([sys.executable, "-c", code], env=env, cwd=ROOT,
                          capture_output=True, text=True, timeout=120, check=True)
    return float(done.stdout.strip()) - start


def commit_hash():
    if not (ROOT / ".git").exists():
        return None
    try:
        done = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return done.stdout.strip() if done.returncode == 0 else None


def min_ops_for_tail(pct: float) -> int:
    """Fewest samples with at least ten beyond the nearest-rank percentile."""
    n = 11
    while n - math.ceil(pct / 100.0 * n) < 10:
        n += 1
    return n


def tail(samples, pct: float):
    """(value, samples beyond it) at the nearest-rank percentile."""
    ordered = sorted(samples)
    rank = max(1, math.ceil(pct / 100.0 * len(ordered)))
    return ordered[rank - 1], len(ordered) - rank


class Run:
    """Timed operations of one workload, with their checks and hashes."""

    def __init__(self, workload, cycle):
        self.workload = workload
        self.cycle = cycle
        self.references = {}     # input index -> {output name: sha256}
        self.failed = 0
        self.known = Counter()
        self.unexpected = []

    def operation(self, index, tracer=None):
        """Run cycle[index] once; returns its wall time and its failures."""
        wl = self.workload
        prepared = wl.prepare(self.cycle[index])
        stdout = io.StringIO()
        if tracer is not None:
            tracer.active = True
        start = time.perf_counter()
        try:
            with contextlib.redirect_stdout(stdout):
                result = wl.run(prepared)
            error = None
        except Exception as exc:     # counted as a failed operation
            error = exc
        elapsed = time.perf_counter() - start
        if tracer is not None:
            tracer.active = False
        failures = []
        if error is not None:
            failures.append(workloads.Failure(
                f"raised {type(error).__name__}: {error}\n"
                + "".join(traceback.format_exception(error))))
        else:
            try:
                failures = wl.check(prepared, result, stdout.getvalue())
                outputs = wl.outputs(result)
                digests = {k: hashlib.sha256(v).hexdigest() for k, v in outputs.items()}
                if tracer is not None:
                    tracer.count("cli.bytes_written",
                                 sum(len(outputs[k]) for k in wl.cli_outputs))
            except Exception as exc:
                failures.append(workloads.Failure(
                    f"check raised {type(exc).__name__}: {exc}"))
                digests = {}
            reference = self.references.setdefault(index, digests)
            for name, digest in digests.items():
                if reference.get(name) != digest:
                    failures.append(workloads.Failure(
                        f"{name} differs from an identical earlier input"))
        return elapsed, failures

    def loop(self, seconds: float, min_ops: int, tracer=None, between_cycles=None):
        """Repeat whole cycles until `seconds` passed and `min_ops` were timed.

        `between_cycles(fraction of seconds elapsed)` runs after each cycle.
        Returns the operation times, each input's fastest time, and the wall
        time of the loop.
        """
        samples = []
        best = [math.inf] * len(self.cycle)
        start = time.perf_counter()
        while True:
            for index in range(len(self.cycle)):
                if tracer is not None:
                    tracer.request = len(samples)
                elapsed, failures = self.operation(index, tracer)
                samples.append(elapsed)
                best[index] = min(best[index], elapsed)
                self.record(failures)
            if between_cycles is not None:
                between_cycles((time.perf_counter() - start) / max(seconds, 1e-9))
            if time.perf_counter() - start >= seconds and len(samples) >= min_ops:
                return samples, best, time.perf_counter() - start

    def record(self, failures):
        if failures:
            self.failed += 1
        for failure in failures:
            if failure.known:
                self.known[failure.known] += 1
            else:
                self.unexpected.append(failure.message)


def run_workload(name: str, seed: int, seconds: float, trace: bool, tiny: bool) -> dict:
    run_dir = OUT_ROOT / f"{name}-seed{seed}-pid{os.getpid()}"
    os.environ["BUNDLEQM_OUT"] = str(run_dir)
    wl = workloads.WORKLOADS[name](run_dir, tiny=tiny)
    cycle = wl.inputs(seed)
    run = Run(wl, cycle)
    provenance = {
        "workload": name, "seed": seed, "seconds": seconds, "trace": trace,
        "tiny": tiny, "cycle_length": len(cycle), "python": platform.python_version(),
        "numpy": numpy.__version__, "scipy": scipy.__version__,
        "nproc": len(os.sched_getaffinity(0)), "blas_threads": BLAS_THREADS,
        "commit": commit_hash(),
    }
    try:
        # warm caches and lazy imports; the result is the first hash reference
        _, failures = run.operation(0)
        warm_unexpected = [f.message for f in failures if not f.known]
        min_ops = len(cycle) if tiny else min_ops_for_tail(wl.tail_pct)
        if not trace:
            # set-up samples spread over the run, after one import that
            # writes the bytecode caches
            setup_time()
            repeats = 1 if tiny else SETUP_REPEATS
            setups = []

            def sample_setup(fraction):
                while len(setups) < min(repeats, math.ceil(fraction * repeats)):
                    setups.append(setup_time())

            samples, best, wall = run.loop(seconds, min_ops, between_cycles=sample_setup)
            sample_setup(1.0)
            setup_s = statistics.median(setups)
            provenance["setup_samples"] = setups
            provenance["untraced"] = {"ops": len(samples), "seconds": wall}
            p_tail, beyond = tail(samples, wl.tail_pct)
            shown = {"setup_s": setup_s, "op_s_p50": statistics.median(samples),
                     "op_s_tail": p_tail, "ops_per_s": len(samples) / sum(samples),
                     "op_s_best_p50": statistics.median(best),
                     "ops_per_s_best": len(best) / sum(best),
                     "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024}
            metrics = {k: shown[k] for k in GATED}
            units = END_TO_END_UNITS
            notes = {"op_s_tail": f"p{wl.tail_pct:g}, {len(samples)} samples, {beyond} beyond",
                     "op_s_p50": f"{len(samples)} samples",
                     "op_s_best_p50": f"fastest of each input's {len(samples) // len(cycle)} runs",
                     "setup_s": f"median of {repeats} fresh imports"}
            attempted = len(samples)
        else:
            untraced, best_u, wall_u = run.loop(seconds / 2, len(cycle))
            tracer = tracing.Tracer()
            tracer.install()
            try:
                traced, best_t, wall_t = run.loop(seconds / 2, len(cycle), tracer)
            finally:
                tracer.uninstall()
            provenance["untraced"] = {"ops": len(untraced), "seconds": wall_u}
            provenance["traced"] = {"ops": len(traced), "seconds": wall_t}
            metrics = tracer.layer_metrics(len(traced))
            # compared on each input's fastest time, as the gated timings are
            metrics["trace.overhead_s"] = statistics.median(best_t) - statistics.median(best_u)
            units = dict(tracing.PER_LAYER_METRICS)
            shown, notes = metrics, {}
            attempted = len(untraced) + len(traced)
            spans_path = OUT_ROOT / "spans" / f"{name}-seed{seed}.jsonl"
            tracer.dump(spans_path, {"provenance": provenance, "metrics": metrics})
            provenance["spans"] = str(spans_path.relative_to(ROOT))
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)

    print(f"workload {name}  seed {seed}  trace {int(trace)}")
    print("provenance " + json.dumps(provenance, sort_keys=True))
    for key, value in shown.items():
        note = f"  ({notes[key]})" if key in notes else ""
        print(f"  {key:<38} {value:>14.6g} {units[key]}{note}")
    print(f"  {'error_rate':<38} {run.failed / attempted:>14.6g} failed/attempted"
          f"  ({run.failed}/{attempted}; known defects {dict(run.known)})")
    unexpected = warm_unexpected + run.unexpected
    for message in unexpected[:5]:
        print(f"  unexpected failure: {message}", file=sys.stderr)
    return {"correct": not unexpected, "attempted": attempted, "failed": run.failed,
            "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()}}


def run_all(args) -> int:
    """Each workload in its own process, so peak memory is per workload."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOAD_NAMES:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)] + (["--tiny"] if args.tiny else [])
        done = subprocess.run(cmd, capture_output=True, text=True,
                              timeout=args.seconds * 4 + 600)
        sys.stderr.write(done.stderr)
        lines = done.stdout.splitlines()
        if done.returncode != 0 or not lines:
            print(f"workload {name} exited with code {done.returncode}", file=sys.stderr)
            return 2
        print("\n".join(lines[:-1]))
        result = json.loads(lines[-1])
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for key, metric in result["metrics"].items():
            combined["metrics"][f"{name}.{key}"] = metric
    print(json.dumps(combined))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--tiny", action="store_true",
                        help="smoke-test sizes: one cycle of small inputs")
    args = parser.parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    if not (SRC / "bundleqm" / "__init__.py").is_file():
        print(f"error: no bundleqm sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    global numpy, scipy, workloads, tracing
    import numpy
    import scipy
    import bundleqm
    if Path(bundleqm.__file__).resolve().parent != SRC / "bundleqm":
        print(f"error: imported bundleqm from {bundleqm.__file__}", file=sys.stderr)
        return 2
    import tracing
    import workloads
    result = run_workload(args.workload, args.seed, args.seconds, bool(args.trace), args.tiny)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
