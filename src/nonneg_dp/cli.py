"""Command-line front end: bias curves, optimizer, comparisons, DP certificates.

Emits plot-ready CSV for curves and JSON for scalar reports, all floats fixed
to 17 significant digits so identical seeds give byte-identical files.
Parameters come from flags or a JSON config file (flags win).  Every
mechanism fact (scale, privacy level, warning, bias, density) comes from the
library.  Exit codes: 0 success, 1 verification failure, 2 usage or
configuration error, including a domain error raised by the library.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
import warnings
from dataclasses import dataclass, replace

import numpy as np

from . import bias as bias_mod
from .mechanisms import (
    MechanismSpec,
    PostProcessor,
    PrivacyParams,
    adjacent_densities,
    guaranteed_privacy_level,
    make_laplace_mechanism,
    make_multiplicative_mechanism,
    make_postprocessed_mechanism,
    make_restricted_mechanism,
)
from .queries import Dataset, QueryDescriptor, QueryKind, evaluate_query, load_records, relative_bound_K, sensitivity
from .verify import certify_dp_densities, mc_bias

__all__ = ["ExperimentConfig", "main", "read_csv_report"]

SEED_ENV_VAR = "NONNEG_DP_SEED"

# Mechanism name -> spec built from the config and its (epsilon, sensitivity).
_CONSTRUCTORS = {
    "laplace": lambda conf, privacy: make_laplace_mechanism(privacy),
    "bit": lambda conf, privacy: make_postprocessed_mechanism(privacy, PostProcessor.ramp()),
    "ramp": lambda conf, privacy: make_postprocessed_mechanism(
        privacy, PostProcessor.translated_ramp(conf.alpha)),
    "restricted": lambda conf, privacy: make_restricted_mechanism(privacy),
    "multiplicative": lambda conf, privacy: make_multiplicative_mechanism(conf.epsilon, conf.kbound),
}
_MECHANISMS = tuple(_CONSTRUCTORS)
_QUERY_NAMES = {"count": QueryKind.COUNT_ABOVE_THRESHOLD,
                "sum": QueryKind.BOUNDED_SUM,
                "mean": QueryKind.BOUNDED_MEAN}


def __getattr__(name: str):
    # Only the benchmark's tracer (bench/tracing.py, proxy_quad) reads
    # cli.integrate; this goes once it wraps bias.quadrature_bias instead.
    if name == "integrate":
        from scipy import integrate
        return integrate
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


class UsageError(Exception):
    """Bad flags or config; maps to exit code 2."""


@dataclass
class ExperimentConfig:
    command: str
    mechanism: str = "bit"
    epsilon: float = 1.0
    sensitivity: float = 1.0
    scale: float | None = None
    alpha: float = 0.0
    kbound: float | None = None
    claimed: float | None = None
    q_min: float = 0.0
    q_max: float = 10.0
    q_points: int = 21
    q_log: bool = False
    samples: int = 100_000
    seed: int = 0
    out: str | None = None
    format: str | None = None
    data: str | None = None
    lower: float = 0.0
    upper: float = 1.0
    lower_open: bool = False
    query: str = "mean"
    threshold: float = 0.0
    count_floor: int | None = None

    def validate(self) -> None:
        if self.mechanism not in _MECHANISMS:
            raise UsageError(f"unknown mechanism {self.mechanism!r}")
        if not (math.isfinite(self.epsilon) and self.epsilon > 0):
            raise UsageError(f"epsilon must be positive, got {self.epsilon}")
        if not (math.isfinite(self.sensitivity) and self.sensitivity >= 0):
            raise UsageError(f"sensitivity must be nonnegative, got {self.sensitivity}")
        if self.scale is not None and not (math.isfinite(self.scale) and self.scale > 0):
            raise UsageError(f"scale must be positive, got {self.scale}")
        if not (math.isfinite(self.alpha) and self.alpha >= 0):
            raise UsageError(f"alpha must be nonnegative, got {self.alpha}")
        if self.kbound is not None and not (math.isfinite(self.kbound) and self.kbound > 0):
            raise UsageError(f"kbound must be positive, got {self.kbound}")
        if self.mechanism == "multiplicative" and self.kbound is None:
            raise UsageError("multiplicative mechanism requires --kbound")
        if not (math.isfinite(self.q_min) and self.q_min >= 0):
            raise UsageError(f"q-min must be nonnegative, got {self.q_min}")
        if not (math.isfinite(self.q_max) and self.q_max >= self.q_min):
            raise UsageError("q-max must be at least q-min")
        if self.q_points < 1:
            raise UsageError("q-points must be at least 1")
        if self.q_log and self.q_min <= 0:
            raise UsageError("logarithmic q grid requires q-min > 0")
        if self.samples < 100:
            raise UsageError("samples must be at least 100")
        if self.format not in (None, "csv", "json"):
            raise UsageError(f"unknown format {self.format!r}")
        if self.query not in _QUERY_NAMES:
            raise UsageError(f"unknown query {self.query!r}")

    def q_grid(self) -> np.ndarray:
        if self.q_points == 1:
            return np.array([self.q_min])
        if self.q_log:
            return np.geomspace(self.q_min, self.q_max, self.q_points)
        return np.linspace(self.q_min, self.q_max, self.q_points)

    def row_seeds(self, count: int) -> list[int]:
        return [int(s) for s in np.random.SeedSequence(self.seed).generate_state(count, np.uint64)]


# --------------------------------------------------------------------------
# deterministic formatting

def _fmt(value) -> str:
    if isinstance(value, float):
        if math.isnan(value):
            return "nan"
        if math.isinf(value):
            return "inf" if value > 0 else "-inf"
        return format(value, ".17g")
    return str(value)


def _json_render(obj, indent: int = 0) -> str:
    pad = "  " * indent
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        items = ",\n".join(f"{pad}  {json.dumps(k)}: {_json_render(v, indent + 1)}"
                           for k, v in obj.items())
        return "{\n" + items + "\n" + pad + "}"
    if isinstance(obj, (list, tuple)):
        if not obj:
            return "[]"
        items = ",\n".join(f"{pad}  {_json_render(v, indent + 1)}" for v in obj)
        return "[\n" + items + "\n" + pad + "]"
    if isinstance(obj, bool):
        return "true" if obj else "false"
    if isinstance(obj, float):
        if math.isinf(obj) or math.isnan(obj):
            return json.dumps(_fmt(obj))
        return _fmt(obj)
    if isinstance(obj, int):
        return str(obj)
    if obj is None:
        return "null"
    return json.dumps(str(obj))


def _write_text(out: str | None, text: str) -> None:
    if out is None:
        sys.stdout.write(text)
        return
    with open(out, "w", encoding="utf-8", newline="") as handle:
        handle.write(text)


def _emit_csv(out: str | None, header: list[str], rows: list[list], summary: str | None = None) -> None:
    lines = [",".join(header)]
    lines.extend(",".join(_fmt(cell) for cell in row) for row in rows)
    if summary is not None:
        lines.append(f"# {summary}")
    _write_text(out, "\n".join(lines) + "\n")


def _emit_report(conf: ExperimentConfig, header: list[str], rows: list[list],
                 summary: str | None = None) -> None:
    fmt = conf.format or "csv"
    if fmt == "csv":
        _emit_csv(conf.out, header, rows, summary)
        return
    records = [dict(zip(header, row)) for row in rows]
    payload: dict = {"rows": records}
    if summary is not None:
        payload["summary"] = summary
    _write_text(conf.out, _json_render(payload) + "\n")


def _emit_scalar(conf: ExperimentConfig, record: dict) -> None:
    fmt = conf.format or "json"
    if fmt == "json":
        _write_text(conf.out, _json_render(record) + "\n")
        return
    _emit_csv(conf.out, ["key", "value"], [[k, v] for k, v in record.items()])


def read_csv_report(path: str) -> tuple[list[str], list[list], list[str]]:
    """Parse a CSV report back into header, typed rows, and summary lines."""
    header: list[str] = []
    rows: list[list] = []
    summaries: list[str] = []
    with open(path, "r", encoding="utf-8") as handle:
        for line in handle:
            line = line.rstrip("\n")
            if not line:
                continue
            if line.startswith("#"):
                summaries.append(line[1:].strip())
                continue
            if not header:
                header = line.split(",")
                continue
            row = []
            for cell in line.split(","):
                if cell == "":
                    row.append("")
                    continue
                try:
                    row.append(float(cell))
                except ValueError:
                    row.append(cell)
            rows.append(row)
    return header, rows, summaries


# --------------------------------------------------------------------------
# subcommands

def _build_spec(conf: ExperimentConfig) -> MechanismSpec:
    with warnings.catch_warnings():  # the replaced spec warns, at the scale in use
        warnings.simplefilter("ignore")
        spec = _CONSTRUCTORS[conf.mechanism](conf, PrivacyParams(conf.epsilon, conf.sensitivity))
    return replace(spec, scale=spec.scale if conf.scale is None else conf.scale)


def cmd_bias_curve(conf: ExperimentConfig) -> int:
    spec = _build_spec(conf)
    grid = conf.q_grid()
    rows = []
    for q, seed in zip(grid.tolist(), conf.row_seeds(len(grid))):
        estimate = mc_bias(spec, q, conf.samples, seed)
        rows.append([q, bias_mod.closed_form_bias(spec, q), bias_mod.quadrature_bias(spec, q),
                     estimate.mean, estimate.stderr])
    _emit_report(conf, ["q", "bias_closed_form", "bias_quadrature", "bias_mc", "mc_stderr"], rows)
    return 0


def cmd_optimal_alpha(conf: ExperimentConfig) -> int:
    b = _build_spec(conf).scale
    alpha_star = bias_mod.optimal_alpha(b)
    at_star = bias_mod.max_abs_bias_translated_ramp(alpha_star, b)
    at_zero = bias_mod.max_abs_bias_translated_ramp(0.0, b)
    _emit_scalar(conf, {
        "b": b,
        "alpha_star": alpha_star,
        "B_at_alpha_star": at_star,
        "B_at_zero": at_zero,
        "improvement_ratio": at_zero / at_star,
    })
    return 0


def cmd_compare(conf: ExperimentConfig) -> int:
    privacy = PrivacyParams(conf.epsilon, conf.sensitivity)
    clamped = make_postprocessed_mechanism(privacy, PostProcessor.ramp())
    restricted = make_restricted_mechanism(privacy, fair_comparison=True)
    rows = [[q, bias_mod.closed_form_bias(clamped, q), bias_mod.closed_form_bias(restricted, q),
             bias_mod.bias_ratio_restricted_vs_bit(q, conf.epsilon, conf.sensitivity)]
            for q in conf.q_grid().tolist()]
    _emit_report(conf, ["q", "bias_bit", "bias_restricted_same_eps", "ratio"], rows)
    return 0


def cmd_verify_dp(conf: ExperimentConfig) -> int:
    spec = _build_spec(conf)
    density_a, density_b, grid = adjacent_densities(spec)
    claimed = conf.claimed if conf.claimed is not None else guaranteed_privacy_level(spec)
    certificate = certify_dp_densities(density_a, density_b, claimed, grid)
    _emit_scalar(conf, {
        "mechanism": conf.mechanism,
        "epsilon_claimed": certificate.epsilon_claimed,
        "max_log_ratio_observed": certificate.max_log_ratio_observed,
        "grid_description": certificate.grid_description,
        "passed": certificate.passed,
    })
    return 0 if certificate.passed else 1


def cmd_mc_validate(conf: ExperimentConfig) -> int:
    spec = _build_spec(conf)
    grid = conf.q_grid()
    rows = []
    max_abs_z = 0.0
    for q, seed in zip(grid.tolist(), conf.row_seeds(len(grid))):
        closed = bias_mod.closed_form_bias(spec, q)
        estimate = mc_bias(spec, q, conf.samples, seed)
        if math.isfinite(closed) and estimate.stderr > 0:
            z = (estimate.mean - closed) / estimate.stderr
            max_abs_z = max(max_abs_z, abs(z))
        else:
            z = math.nan
        rows.append([q, closed, estimate.mean, estimate.stderr, z, estimate.warning or ""])
    _emit_report(conf, ["q", "bias_closed_form", "bias_mc", "mc_stderr", "z", "warning"],
                 rows, summary=f"max_abs_z={_fmt(max_abs_z)}")
    return 0


def cmd_query_info(conf: ExperimentConfig) -> int:
    if conf.data is None:
        raise UsageError("query-info requires --data")
    kind = _QUERY_NAMES[conf.query]
    qd = QueryDescriptor(kind, threshold=conf.threshold, count_floor=conf.count_floor)
    dataset = Dataset(load_records(conf.data), conf.lower, conf.upper, conf.lower_open)
    value = evaluate_query(qd, dataset)
    bounds = (conf.lower, conf.upper)
    delta = sensitivity(qd, bounds, len(dataset))
    _emit_scalar(conf, {
        "query": conf.query,
        "n": len(dataset),
        "value": value,
        "sensitivity": delta,
        "relative_bound": relative_bound_K(qd, bounds, len(dataset)),
        "epsilon": conf.epsilon,
        "scale": PrivacyParams(conf.epsilon, delta).scale,
    })
    return 0


_HANDLERS = {
    "bias-curve": cmd_bias_curve,
    "optimal-alpha": cmd_optimal_alpha,
    "compare": cmd_compare,
    "verify-dp": cmd_verify_dp,
    "mc-validate": cmd_mc_validate,
    "query-info": cmd_query_info,
}


# --------------------------------------------------------------------------
# argument parsing and config-file merging

def _build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", help="JSON file of parameters; flags override it")
    common.add_argument("--out", help="output path (default: stdout)")
    common.add_argument("--format", choices=("csv", "json"))
    common.add_argument("--seed", type=int, help=f"RNG seed (fallback: ${SEED_ENV_VAR}, then 0)")

    eps = argparse.ArgumentParser(add_help=False)
    eps.add_argument("--epsilon", type=float)

    privacy = argparse.ArgumentParser(add_help=False, parents=[eps])
    privacy.add_argument("--sensitivity", type=float)

    mech = argparse.ArgumentParser(add_help=False, parents=[privacy])
    mech.add_argument("--mechanism", choices=_MECHANISMS)
    mech.add_argument("--scale", type=float, help="override the Laplace scale b")
    mech.add_argument("--alpha", type=float, help="ramp translation")
    mech.add_argument("--kbound", type=float, help="relative bound for the multiplicative mechanism")

    grid = argparse.ArgumentParser(add_help=False)
    grid.add_argument("--q-min", type=float, dest="q_min")
    grid.add_argument("--q-max", type=float, dest="q_max")
    grid.add_argument("--q-points", type=int, dest="q_points")
    grid.add_argument("--q-log", action=argparse.BooleanOptionalAction, dest="q_log")

    samples = argparse.ArgumentParser(add_help=False)
    samples.add_argument("--samples", type=int)

    parser = argparse.ArgumentParser(prog="nonneg-dp", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)
    sub.add_parser("bias-curve", parents=[common, mech, grid, samples],
                   help="closed-form vs quadrature vs Monte Carlo bias over a q grid")
    sub.add_parser("optimal-alpha", parents=[common, mech],
                   help="worst-case-bias-minimizing ramp translation")
    sub.add_parser("compare", parents=[common, privacy, grid],
                   help="clamping vs restriction bias at equal privacy level")
    p = sub.add_parser("verify-dp", parents=[common, mech],
                       help="density-ratio privacy certificate")
    p.add_argument("--claimed", type=float, help="privacy level to certify (default: the guaranteed level)")
    sub.add_parser("mc-validate", parents=[common, mech, grid, samples],
                   help="Monte Carlo validation of closed-form bias with z-scores")
    p = sub.add_parser("query-info", parents=[common, eps],
                       help="evaluate a dataset query and its sensitivity bounds")
    p.add_argument("--data", help="newline-delimited decimal records")
    p.add_argument("--lower", type=float)
    p.add_argument("--upper", type=float)
    p.add_argument("--lower-open", action=argparse.BooleanOptionalAction, dest="lower_open")
    p.add_argument("--query", choices=sorted(_QUERY_NAMES))
    p.add_argument("--threshold", type=float)
    p.add_argument("--count-floor", type=int, dest="count_floor")
    return parser


def _resolve_config(args: argparse.Namespace) -> ExperimentConfig:
    merged = {key: value for key, value in vars(args).items() if key != "config"}
    if args.config is not None:
        try:
            with open(args.config, "r", encoding="utf-8") as handle:
                file_values = json.load(handle)
        except (OSError, json.JSONDecodeError) as exc:
            raise UsageError(f"cannot read config file: {exc}") from exc
        if not isinstance(file_values, dict):
            raise UsageError("config file must hold a JSON object")
        for key, value in file_values.items():
            key = key.replace("-", "_")
            if key in merged and merged[key] is None:
                merged[key] = value
    if merged.get("seed") is None:
        env_seed = os.environ.get(SEED_ENV_VAR)
        if env_seed is not None:
            try:
                merged["seed"] = int(env_seed)
            except ValueError as exc:
                raise UsageError(f"${SEED_ENV_VAR} must be an integer, got {env_seed!r}") from exc
    conf = ExperimentConfig(command=merged.pop("command"))
    for key, value in merged.items():
        if value is not None:
            setattr(conf, key, value)
    conf.validate()
    return conf


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        conf = _resolve_config(args)
        return _HANDLERS[conf.command](conf)
    except (UsageError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
