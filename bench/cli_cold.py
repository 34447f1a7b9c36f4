"""Workload ``cli_cold``: one fresh ``python -m nonneg_dp.cli`` process per operation.

A cycle runs five cheap subcommands, with parameters drawn from the seed
and the cycle index:

  * optimal-alpha at b = sensitivity/epsilon, b log-uniform on [1e-2, 1e2];
  * compare over q in [0, 10b] at 200 points;
  * verify-dp --mechanism laplace;
  * query-info on a records file written in set-up (mean, sum or count);
  * compare --q-max 3000 at epsilon = sensitivity = 1.  Its correct output
    has exit 0, every ratio above 2, finite ratios equal to the mpmath
    value and ``inf`` where that value exceeds the double range.  While
    ``bias_ratio_restricted_vs_bit`` overflows for eps*q/Delta >~ 1418 it
    exits 1 with a traceback and is counted as failed in every cycle.

Set-up runs one untimed invocation so that every timed process finds a warm
``__pycache__``.  ``peak_rss_mb`` is the largest resident size of any timed
child, read from ``wait4``.  The traced run adds ``-X importtime`` to the
children and charges their import and wall times to ``cli.*``.
"""

from __future__ import annotations

import csv
import io
import json
import os
import random
import subprocess
import sys
import time
import types

import oracles as O

RECORDS = 2000
QUERY_KINDS = ("mean", "sum", "count")


def _env(root) -> dict:
    env = {k: v for k, v in os.environ.items()
           if k not in ("NONNEG_DP_SEED", "PYTHONPATH", "PYTHONDONTWRITEBYTECODE", "PYTHONSTARTUP")}
    env["PYTHONPATH"] = str(root / "src")
    return env


def _run_child(state, argv: list[str]):
    """One child run to its end; its output goes through files so that a
    long ``-X importtime`` log cannot fill a pipe, and ``wait4`` gives its
    own peak resident size."""
    cmd = [sys.executable] + (["-X", "importtime"] if state.tracer else []) + ["-m", "nonneg_dp.cli"] + argv
    with open(state.stdout_path, "w+b") as out_f, open(state.stderr_path, "w+b") as err_f:
        t0 = time.perf_counter_ns()
        proc = subprocess.Popen(cmd, cwd=state.root, env=state.env, stdout=out_f, stderr=err_f)
        _, status, usage = os.wait4(proc.pid, 0)
        wall = time.perf_counter_ns() - t0
        proc.returncode = os.waitstatus_to_exitcode(status)
        out_f.seek(0)
        err_f.seek(0)
        out, err = out_f.read().decode(), err_f.read().decode()
    state.max_rss_kb = max(state.max_rss_kb, usage.ru_maxrss)
    if state.tracer is not None:
        _charge(state.tracer.counts, err, wall, len(out))
    return proc.returncode, out, err


def _charge(counts, stderr: str, wall_ns: int, out_bytes: int) -> None:
    """Per-process import times from ``-X importtime``, and wall time.

    Self times are summed, so nothing is counted twice; scipy's lazy
    submodule loading leaves no ``scipy.integrate`` line of its own, so its
    cost is the self time of every ``scipy.*`` module.
    """
    total = scipy_us = 0
    for line in stderr.splitlines():
        fields = line.split("|")
        if len(fields) != 3 or not line.startswith("import time:"):
            continue
        self_us = fields[0].rsplit(":", 1)[1].strip()
        if not self_us.isdigit():
            continue   # the header line
        total += int(self_us)
        if fields[2].strip().split(".")[0] == "scipy":
            scipy_us += int(self_us)
    counts["cli.import_ms"] += total / 1000
    counts["cli.import_scipy_ms"] += scipy_us / 1000
    counts["cli.process_ms"] += wall_ns / 1e6
    counts["cli.main_calls"] += 1
    counts["cli.bytes_out"] += out_bytes


def _params(seed: int, k: int):
    rng = random.Random(f"cli_cold:{seed}:{k}")
    eps = rng.uniform(0.5, 2.0)
    sens = 10 ** rng.uniform(-2, 2) * eps
    return eps, sens


def _op(state, name: str, argv: list[str], check):
    def run():
        return _run_child(state, argv)

    def verify(result):
        code, out, err = result
        if code != 0 or "Traceback" in err:
            raise O.OpFailed(f"exit {code}: {err.strip().splitlines()[-1] if err.strip() else ''}")
        check(out)

    return name, run, verify


def _csv_rows(text: str):
    return list(csv.DictReader(io.StringIO(text)))


def _check_compare(text: str, eps: float, sens: float, points: int) -> None:
    rows = _csv_rows(text)
    if len(rows) != points:
        raise O.CheckFailed(f"compare: {len(rows)} rows, want {points}")
    O.check_compare_rows(rows, eps, sens)


def _check_query(text: str, state, kind: str) -> None:
    report = json.loads(text)
    value, sens, relative = state.query_refs[kind]
    O.check_query("query-info value", report["value"], value)
    O.check_query("query-info sensitivity", report["sensitivity"], sens)
    if relative is not None:
        O.check_query("query-info relative_bound", report["relative_bound"], relative)
    if report["n"] != RECORDS:
        raise O.CheckFailed(f"query-info n = {report['n']}")


def cycle(state, k: int):
    eps, sens = _params(state.seed, k)
    b = sens / eps
    kind = QUERY_KINDS[k % len(QUERY_KINDS)]
    lower, upper = state.bounds
    return [
        _op(state, "optimal-alpha", ["optimal-alpha", "--epsilon", repr(eps), "--sensitivity", repr(sens)],
            lambda out: O.check_alpha_report(json.loads(out), b)),
        _op(state, "compare", ["compare", "--epsilon", repr(eps), "--sensitivity", repr(sens),
                               "--q-max", repr(10 * b), "--q-points", "200"],
            lambda out: _check_compare(out, eps, sens, 200)),
        _op(state, "verify-dp", ["verify-dp", "--mechanism", "laplace", "--epsilon", repr(eps),
                                 "--sensitivity", repr(sens)],
            lambda out: O.check_certificate(json.loads(out), eps, sens / b, True)),
        _op(state, "query-info", ["query-info", "--data", str(state.records), "--lower", repr(lower),
                                  "--upper", repr(upper), "--query", kind, "--threshold", repr(state.threshold)],
            lambda out: _check_query(out, state, kind)),
        _op(state, "compare-q3000", ["compare", "--epsilon", "1", "--sensitivity", "1", "--q-max", "3000"],
            lambda out: _check_compare(out, 1.0, 1.0, 21)),
    ]


def setup(seed: int, out_dir):
    root = out_dir.parent.parent
    rng = random.Random(f"cli_cold:{seed}")
    upper = 10 ** rng.uniform(-1, 2)
    lower = upper * rng.uniform(0.05, 0.5)
    values = [min(upper, lower + (upper - lower) * rng.random()) for _ in range(RECORDS)]
    stem = out_dir / f"cli_cold-{seed}-{os.getpid()}"
    records = stem.with_suffix(".records")
    records.write_text("".join(f"{v!r}\n" for v in values), encoding="utf-8")
    threshold = lower + (upper - lower) * rng.random()
    state = types.SimpleNamespace(
        seed=seed, root=root, env=_env(root), records=records, bounds=(lower, upper),
        stdout_path=stem.with_suffix(".stdout"), stderr_path=stem.with_suffix(".stderr"),
        threshold=threshold, max_rss_kb=0, tracer=None,
        query_refs={kind: O.query_oracle(kind, values, lower, upper, threshold) for kind in QUERY_KINDS},
    )
    code, _, err = _run_child(state, ["optimal-alpha"])   # fills __pycache__
    if code != 0:
        raise RuntimeError(f"warm-up invocation exited {code}: {err[-500:]}")
    state.max_rss_kb = 0
    return state


def finish(state) -> None:
    pass


def peak_rss_kb(state) -> int:
    return state.max_rss_kb


def close(state) -> None:
    for path in (state.records, state.stdout_path, state.stderr_path):
        path.unlink(missing_ok=True)
