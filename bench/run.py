"""Benchmark of nonneg_dp: one closed-loop client, one workload per process.

    python3 bench/run.py --workload release|analysis|cli_cold --seed N \
        --seconds S --trace 0|1

Run from the root of a source checkout; the package is imported from its
``src/``.  Set-up (imports, input generation from the seed, reference values
and warm-up) happens once in this process and twice more in fresh child
processes; ``setup_s`` is the median of the three.  The timed phase then runs
whole cycles of the workload's operations until ``--seconds`` have passed,
checking every output against ``oracles.py`` between operations, outside
the timed spans.

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` runs the first
half of the time untraced and the second half under the tracer of
``tracing.py``, prints the per-layer metrics and the tracing overhead, and
writes the spans to ``bench/out/``.  The last line of standard output is
one JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import time

T0 = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from array import array  # noqa: E402
from pathlib import Path  # noqa: E402

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT_DIR = BENCH_DIR / "out"
WORKLOADS = ("release", "analysis", "cli_cold")
SETUP_PROBES = 2
# At most this many failed operations are described on stderr.
_REPORTED_FAILURES = 5


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true",
                        help="only set up, then print the set-up time (used for setup_s)")
    return parser.parse_args(argv)


def _load_workload(name: str):
    if not (SRC / "nonneg_dp" / "__init__.py").is_file():
        raise SystemExit(f"error: no nonneg_dp sources under {SRC}; run from a source checkout")
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(BENCH_DIR))
    import importlib
    return importlib.import_module(name)


class LatencyHistogram:
    """Operation latencies in log-spaced bins, 2**(1/128) (0.54 %) wide.

    Its memory does not grow with the number of operations, so a program
    that completes more operations in a run does not raise ``peak_rss_mb``.
    Percentiles interpolate within a bin, so they are within 0.3 % of the
    exact order statistic.
    """

    STEPS = 128
    BINS = 48 * STEPS   # up to 2**48 ns, about 78 hours

    def __init__(self):
        self.counts = array("q", bytes(8 * self.BINS))
        self.n = 0

    def add(self, ns: int) -> None:
        self.counts[min(int(math.log2(max(ns, 1)) * self.STEPS), self.BINS - 1)] += 1
        self.n += 1

    def percentile_ms(self, fraction: float) -> float:
        if not self.n:
            return float("nan")
        rank = fraction * self.n
        seen = 0
        for index, count in enumerate(self.counts):
            if count and seen + count >= rank:
                within = (rank - seen) / count
                return 2 ** ((index + within) / self.STEPS) / 1e6
            seen += count
        return float("nan")


class Phase:
    """Counts, latencies and failures of one timed phase."""

    def __init__(self):
        self.latency = LatencyHistogram()
        self.attempted = 0
        self.failed = 0
        self.busy_ns = 0

    @property
    def completed(self) -> int:
        return self.attempted - self.failed


def _run_phase(workload, state, seconds: float, first_cycle: int, tracer=None) -> tuple[Phase, int]:
    """Whole cycles until ``seconds`` have passed; returns the next cycle index."""
    from oracles import CheckFailed

    phase = Phase()
    deadline = time.perf_counter() + seconds
    k = first_cycle
    clock = time.perf_counter_ns
    while True:
        for kind, run, check in workload.cycle(state, k):
            phase.attempted += 1
            try:
                if tracer is None:
                    t0 = clock()
                    result = run()
                    t1 = clock()
                else:
                    with tracer.op(kind):
                        t0 = clock()
                        result = run()
                        t1 = clock()
                check(result)
            except CheckFailed:
                raise
            except Exception as exc:  # an operation that fails is counted, not fatal
                phase.failed += 1
                if state.failures < _REPORTED_FAILURES:
                    print(f"failed: {kind}: {type(exc).__name__}: {str(exc)[-300:]}", file=sys.stderr)
                state.failures += 1
                continue
            phase.latency.add(t1 - t0)
            phase.busy_ns += t1 - t0
        k += 1
        if time.perf_counter() >= deadline:
            return phase, k


def _ops_per_s(phase: Phase) -> float:
    return phase.completed / (phase.busy_ns / 1e9) if phase.busy_ns else 0.0


def _setup_probes(args) -> list[float]:
    times = []
    for _ in range(SETUP_PROBES):
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
               "--seed", str(args.seed), "--seconds", str(args.seconds), "--setup-probe"]
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=120)
        if proc.returncode != 0:
            raise SystemExit(f"error: set-up probe failed:\n{proc.stderr[-2000:]}")
        times.append(float(proc.stdout.strip().splitlines()[-1]))
    return times


def main(argv=None) -> int:
    args = _parse(argv)
    workload = _load_workload(args.workload)
    from oracles import CheckFailed

    OUT_DIR.mkdir(exist_ok=True)
    state = workload.setup(args.seed, OUT_DIR)
    state.failures = 0
    setup_s = time.perf_counter() - T0
    if args.setup_probe:
        workload.close(state)
        print(repr(setup_s))
        return 0
    try:
        correct = True
        if args.trace:
            import tracing

            untraced, k = _run_phase(workload, state, args.seconds / 2, 0)
            tracer = tracing.Tracer()
            state.tracer = tracer
            tracer.install()
            try:
                traced, _ = _run_phase(workload, state, args.seconds / 2, k, tracer)
            finally:
                tracer.uninstall()
                state.tracer = None
            workload.finish(state)
            metrics = tracer.layer_metrics()
            metrics["trace.overhead_ratio"] = _ops_per_s(untraced) / _ops_per_s(traced)
            units = tracing.PER_LAYER
            tracer.write(OUT_DIR / f"trace-{args.workload}-seed{args.seed}")
            attempted = untraced.attempted + traced.attempted
            failed = untraced.failed + traced.failed
        else:
            setup_times = [setup_s] + _setup_probes(args)
            phase, _ = _run_phase(workload, state, args.seconds, 0)
            workload.finish(state)
            rss_kb = workload.peak_rss_kb(state)
            metrics = {
                "ops_per_s": _ops_per_s(phase),
                "op_p50_ms": phase.latency.percentile_ms(0.5),
                "op_p90_ms": phase.latency.percentile_ms(0.9),
                "peak_rss_mb": rss_kb / 1024.0,
                "setup_s": statistics.median(setup_times),
            }
            units = {"ops_per_s": "1/s", "op_p50_ms": "ms", "op_p90_ms": "ms",
                     "peak_rss_mb": "MB", "setup_s": "s"}
            attempted, failed = phase.attempted, phase.failed
            print(f"{args.workload}: {attempted} ops ({failed} failed), "
                  f"setup samples {[round(t, 4) for t in setup_times]}", file=sys.stderr)
    except CheckFailed as exc:
        print(f"wrong output: {exc}", file=sys.stderr)
        correct = False
        metrics, units, attempted, failed = {}, {}, 1, 0
    finally:
        workload.close(state)
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
