"""Workload ``analysis``: in-process analysis reports and library checks.

Each operation is one ``cli.main([...])`` report written to a temporary
``--out`` file, or one library check that the CLI does not expose.  A cycle
holds the same 19 operations in the same order, with parameters drawn from
the seed and the cycle index:

  * bias-curve for laplace, bit, ramp (at alpha*), restricted and
    multiplicative: 11 q points, 1e5 draws per row;
  * mc-validate for restricted and multiplicative at 1e5 draws per row
    (11 rows; 0.8 MB per row, inside a 2 MB L2) and 1e6 (3 rows; 8 MB);
  * compare (200 q points), optimal-alpha (--scale);
  * verify-dp for laplace, restricted (level 2*eps), restricted at
    --claimed eps (must fail: exit 1, passed false) and multiplicative;
  * PostProcessor.custom(softplus) with its quadrature bias at 2 q points,
    q/b in [0, 5];
  * coupling_bias_lower_bound on a 2e5-point grid;
  * check_divergence_log_laplace at b = 1 and at b in [0.3, 0.7].

Additive scales b = sensitivity/epsilon are log-uniform on about
[5e-3, 200] with q/b on [0, 10]; multiplicative scales K/eps are uniform on
[0.02, 0.2], where the log-Laplace law has four finite moments.
"""

from __future__ import annotations

import csv
import json
import os
import random
import resource
import shutil
import types

import oracles as O
from nonneg_dp import bias, cli, mechanisms, verify
from nonneg_dp.distributions import LaplaceDist

CURVE_POINTS = 11
CURVE_SAMPLES = 100_000
MC_SIZES = ((100_000, 11), (1_000_000, 3))   # (draws per row, rows)
COMPARE_POINTS = 200
SOFTPLUS_POINTS = 2
# At q/b near 9.5 the package's quadrature of a custom post-processor can
# miss by up to 8e-9 (q + b), 0.2 % of the bias, on a few inputs in a
# thousand (see CHANGES.md); below q/b = 5 it stays within 2e-11 (q + b).
SOFTPLUS_MAX_RATIO = 5.0
OMEGA_GRID = 200_000
BOUNDARY_RADII = (10.0, 20.0, 40.0, 80.0, 160.0)
INNER_RADII = (10.0, 20.0, 40.0, 80.0)
# Quadrature biases integrate E[output] ~ q + b and subtract q; the CLI's
# quad runs at its default 1.5e-8 tolerances, and the observed error is at
# most 4e-12 (q + b) on these inputs.
QUAD_RTOL = 1e-9


def _params(seed: int, k: int) -> types.SimpleNamespace:
    rng = random.Random(f"{seed}:{k}")
    eps = rng.uniform(0.5, 2.0)
    sens = 10 ** rng.uniform(-2, 2)
    b = sens / eps
    eps_m = rng.uniform(0.5, 2.0)
    return types.SimpleNamespace(
        eps=eps, sens=sens, b=b, q_max=rng.uniform(5.0, 10.0) * b,
        eps_m=eps_m, kbound=rng.uniform(0.02, 0.2) * eps_m,
        mq_min=10 ** rng.uniform(-2, 2),
        scale_alpha=10 ** rng.uniform(-3, 3),
        soft_b=10 ** rng.uniform(-2, 2), soft_r=[rng.uniform(0, SOFTPLUS_MAX_RATIO) for _ in range(SOFTPLUS_POINTS)],
        coup_b=10 ** rng.uniform(-2, 2), coup_r=rng.uniform(0, 10),
        div_b=rng.uniform(0.3, 0.7),
        seeds=[rng.randrange(2**32) for _ in range(16)],
    )


def _read_csv(path):
    with open(path, newline="", encoding="utf-8") as handle:
        lines = [line for line in handle.read().splitlines() if line]
    summary = [line[1:].strip() for line in lines if line.startswith("#")]
    rows = list(csv.DictReader(line for line in lines if not line.startswith("#")))
    return rows, summary


def _read_json(path):
    with open(path, encoding="utf-8") as handle:
        return json.load(handle)


class _Report:
    """One CLI report: argv, expected exit code and the check of its output."""

    def __init__(self, state, name: str, argv: list[str], check, code: int = 0):
        self.name = name
        self.path = str(state.tmp / f"{name}.out")
        self.argv = argv + ["--out", self.path]
        self.check_output, self.code = check, code

    def run(self):
        return cli.main(self.argv)

    def check(self, code):
        if code != self.code:
            raise O.OpFailed(f"exit {code}, want {self.code}: {' '.join(self.argv)}")
        self.check_output(self.path)


def _curve_oracle(mechanism: str, q: float, b: float, alpha: float = 0.0):
    if mechanism == "laplace":
        return 0
    if mechanism == "bit":
        return O.ramp_bias(q, b)
    if mechanism == "ramp":
        return O.translated_ramp_bias(q, alpha, b)
    if mechanism == "restricted":
        return O.restricted_bias(q, b)
    return O.multiplicative_bias(q, b)


def _check_closed_bias(mechanism: str, got: float, want, q: float) -> None:
    if mechanism == "laplace":
        if got != 0.0:
            raise O.CheckFailed(f"laplace closed-form bias {got!r} is not 0")
    elif mechanism == "multiplicative":
        # q(1/(1 - b^2) - 1) cancels against 1, so its error scales with q.
        O.check_closed_abs(f"{mechanism} closed form at q={q!r}", got, want, 8 * 2.0 ** -52 * q)
    else:
        O.check_closed(f"{mechanism} closed form at q={q!r}", got, want)


def _bias_curve(state, p, mechanism: str, seed: int):
    b = p.b
    argv = ["bias-curve", "--mechanism", mechanism, "--seed", str(seed),
            "--q-points", str(CURVE_POINTS), "--samples", str(CURVE_SAMPLES)]
    alpha = 0.0
    if mechanism == "multiplicative":
        b = p.kbound / p.eps_m
        argv += ["--epsilon", repr(p.eps_m), "--kbound", repr(p.kbound),
                 "--q-min", repr(p.mq_min), "--q-max", repr(10 * p.mq_min)]
    else:
        argv += ["--epsilon", repr(p.eps), "--sensitivity", repr(p.sens), "--q-max", repr(p.q_max)]
        if mechanism == "ramp":
            alpha = float(O.optimal_alpha(b))
            argv += ["--alpha", repr(alpha)]

    def check(path):
        rows, _ = _read_csv(path)
        if len(rows) != CURVE_POINTS:
            raise O.CheckFailed(f"bias-curve {mechanism}: {len(rows)} rows")
        for row in rows:
            q = float(row["q"])
            want = _curve_oracle(mechanism, q, b, alpha)
            _check_closed_bias(mechanism, float(row["bias_closed_form"]), want, q)
            O.check_quadrature(f"{mechanism} quadrature at q={q!r}", float(row["bias_quadrature"]),
                               want, q, b, QUAD_RTOL)
            O.check_z(f"{mechanism} Monte Carlo at q={q!r}", float(row["bias_mc"]),
                      float(row["mc_stderr"]), want)

    return _Report(state, f"curve-{mechanism}", argv, check)


def _mc_validate(state, p, mechanism: str, samples: int, rows_wanted: int, seed: int):
    argv = ["mc-validate", "--mechanism", mechanism, "--seed", str(seed),
            "--q-points", str(rows_wanted), "--samples", str(samples)]
    if mechanism == "multiplicative":
        b = p.kbound / p.eps_m
        argv += ["--epsilon", repr(p.eps_m), "--kbound", repr(p.kbound),
                 "--q-min", repr(p.mq_min), "--q-max", repr(10 * p.mq_min)]
    else:
        b = p.b
        argv += ["--epsilon", repr(p.eps), "--sensitivity", repr(p.sens), "--q-max", repr(p.q_max)]

    def check(path):
        rows, summary = _read_csv(path)
        if len(rows) != rows_wanted:
            raise O.CheckFailed(f"mc-validate {mechanism}: {len(rows)} rows")
        max_z = 0.0
        for row in rows:
            q = float(row["q"])
            want = _curve_oracle(mechanism, q, b)
            closed, mc, se, z = (float(row[c]) for c in ("bias_closed_form", "bias_mc", "mc_stderr", "z"))
            _check_closed_bias(mechanism, closed, want, q)
            O.check_z(f"{mechanism} mc-validate at q={q!r}", mc, se, want)
            O.check_closed(f"{mechanism} z column at q={q!r}", z, (mc - closed) / se)
            max_z = max(max_z, abs(z))
        O.check_closed("max_abs_z", float(summary[0].split("=")[1]), max_z)

    return _Report(state, f"mc-{mechanism}-{samples}", argv, check)


def _compare(state, p):
    argv = ["compare", "--epsilon", repr(p.eps), "--sensitivity", repr(p.sens),
            "--q-max", repr(p.q_max), "--q-points", str(COMPARE_POINTS)]

    def check(path):
        rows, _ = _read_csv(path)
        if len(rows) != COMPARE_POINTS:
            raise O.CheckFailed(f"compare: {len(rows)} rows")
        O.check_compare_rows(rows, p.eps, p.sens)

    return _Report(state, "compare", argv, check)


def _optimal_alpha(state, p):
    argv = ["optimal-alpha", "--scale", repr(p.scale_alpha)]
    return _Report(state, "alpha", argv, lambda path: O.check_alpha_report(_read_json(path), p.scale_alpha))


def _verify_dp(state, p, mechanism: str, claimed=None):
    if mechanism == "multiplicative":
        argv = ["verify-dp", "--mechanism", mechanism, "--epsilon", repr(p.eps_m),
                "--kbound", repr(p.kbound)]
        level, want = p.eps_m, p.eps_m
    else:
        argv = ["verify-dp", "--mechanism", mechanism, "--epsilon", repr(p.eps),
                "--sensitivity", repr(p.sens)]
        # The log ratio reaches Delta/b = eps exactly; the grid is built from
        # b = sens/eps in doubles, so compare against that b.
        level = 2 * p.eps if mechanism == "restricted" else p.eps
        want = (O.restricted_certificate_max(p.sens / (p.sens / p.eps))
                if mechanism == "restricted" else p.sens / (p.sens / p.eps))
    if claimed is not None:
        argv += ["--claimed", repr(claimed)]
        level = claimed
    passed = want <= level + 1e-9
    name = f"verify-{mechanism}" + ("-claimed" if claimed is not None else "")
    return _Report(state, name, argv,
                   lambda path: O.check_certificate(_read_json(path), level, want, passed),
                   code=0 if passed else 1)


def _softplus(state, p):
    points = [r * p.soft_b for r in p.soft_r]

    def run():
        pp = mechanisms.PostProcessor.custom(O.softplus, p.soft_b)
        return [bias.expectation_postprocessed_quadrature(pp, q, p.soft_b) - q for q in points]

    def check(biases):
        for q, got in zip(points, biases):
            O.check_quadrature(f"softplus quadrature bias at q={q!r}", got,
                               O.softplus_mean(q, p.soft_b) - O.mpmath.mpf(q), q, p.soft_b, QUAD_RTOL)
            if not got > 0:
                raise O.CheckFailed(f"softplus bias {got!r} is not positive")

    return "custom-softplus", run, check


def _coupling(state, p):
    b, q = p.coup_b, p.coup_r * p.coup_b

    def run():
        return verify.coupling_bias_lower_bound(LaplaceDist(q, b), OMEGA_GRID)

    def check(got):
        if not got > 0:
            raise O.CheckFailed(f"coupling gap {got!r} is not positive")
        O.check_closed_abs("coupling restriction bias", got, O.restricted_bias(q, b),
                           O.coupling_tolerance(b, OMEGA_GRID))

    return "coupling", run, check


def _divergence(state, b: float, radii):
    return (f"divergence-b{'1' if b == 1 else '<1'}",
            lambda: verify.check_divergence_log_laplace(b, radii),
            lambda report: O.check_divergence(report, b, radii))


def _ops(state, p):
    reports = [_bias_curve(state, p, m, p.seeds[i])
               for i, m in enumerate(("laplace", "bit", "ramp", "restricted", "multiplicative"))]
    i = 5
    for samples, rows in MC_SIZES:
        for m in ("restricted", "multiplicative"):
            reports.append(_mc_validate(state, p, m, samples, rows, p.seeds[i]))
            i += 1
    reports += [_compare(state, p), _optimal_alpha(state, p),
                _verify_dp(state, p, "laplace"), _verify_dp(state, p, "restricted"),
                _verify_dp(state, p, "restricted", claimed=p.eps),
                _verify_dp(state, p, "multiplicative")]
    ops = [(r.name, r.run, r.check) for r in reports]
    ops += [_softplus(state, p), _coupling(state, p),
            _divergence(state, 1.0, BOUNDARY_RADII), _divergence(state, p.div_b, INNER_RADII)]
    return ops


def setup(seed: int, out_dir):
    tmp = out_dir / f"analysis-{seed}-{os.getpid()}"
    tmp.mkdir(exist_ok=True)
    state = types.SimpleNamespace(seed=seed, tmp=tmp, tracer=None)
    # Warm-up: each subcommand and library check once, at small sizes.
    p = _params(seed, -1)
    small = ["--q-points", "2", "--samples", "100"]
    for argv in (["bias-curve", "--mechanism", "ramp", "--alpha", "0.35"] + small,
                 ["mc-validate", "--mechanism", "restricted"] + small,
                 ["compare", "--q-points", "2"], ["optimal-alpha"],
                 ["verify-dp", "--mechanism", "restricted"]):
        code = cli.main(argv + ["--out", str(tmp / "warmup.out")])
        if code != 0:
            raise RuntimeError(f"warm-up {argv[0]} exited {code}")
    _softplus(state, p)[1]()
    verify.coupling_bias_lower_bound(LaplaceDist(1.0, 1.0), 1000)
    verify.check_divergence_log_laplace(0.5, INNER_RADII)
    return state


def cycle(state, k: int):
    return _ops(state, _params(state.seed, k))


def finish(state) -> None:
    pass


def peak_rss_kb(state) -> int:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


def close(state) -> None:
    shutil.rmtree(state.tmp, ignore_errors=True)
