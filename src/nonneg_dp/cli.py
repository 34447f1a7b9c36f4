"""Command-line front end: bias curves, optimizer, comparisons, DP certificates.

Emits plot-ready CSV for curves and JSON for scalar reports, all floats fixed
to 17 significant digits so identical seeds give byte-identical files.
Each option is declared once, on its flag; a JSON ``--config`` file goes
through the same parse, and flags on the command line win.  Every
mechanism fact (scale, privacy level, warning, bias, density) comes from the
library.  Exit codes: 0 success, 1 verification failure, 2 usage or
configuration error, including a domain error raised by the library and
a sample count too large to allocate.  After the report or the ``error:``
line, stderr gets one ``warning:`` line per distinct warning of the run.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import os
import sys
import warnings

from . import bias as bias_mod
from .distributions import _even_grid, np
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

__all__ = ["main"]

# Mechanism name -> spec built from the flags and their (epsilon, sensitivity).
_CONSTRUCTORS = {
    "laplace": lambda args, privacy: make_laplace_mechanism(privacy),
    "bit": lambda args, privacy: make_postprocessed_mechanism(privacy, PostProcessor.ramp()),
    "ramp": lambda args, privacy: make_postprocessed_mechanism(
        privacy, PostProcessor.translated_ramp(args.alpha)),
    "restricted": lambda args, privacy: make_restricted_mechanism(privacy),
    "multiplicative": lambda args, privacy: make_multiplicative_mechanism(args.epsilon, args.kbound),
}


def __getattr__(name: str):
    # Only the benchmark's tracer (bench/tracing.py, proxy_quad) reads
    # cli.integrate, and the package no longer calls scipy, which only the
    # test extra installs; this goes once the tracer stops reading it.
    if name == "integrate":
        from scipy import integrate
        return integrate
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


class UsageError(Exception):
    """Bad flags or config; maps to exit code 2."""


# --------------------------------------------------------------------------
# deterministic formatting

def _fmt(value) -> str:
    return format(value, ".17g") if isinstance(value, float) else str(value)


def _json_render(obj, indent: int = 0) -> str:
    pad = "  " * indent
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        items = ",\n".join(f"{pad}  {json.dumps(k)}: {_json_render(v, indent + 1)}"
                           for k, v in obj.items())
        return "{\n" + items + "\n" + pad + "}"
    if isinstance(obj, list):
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


def _emit_report(args: argparse.Namespace, header: list[str], rows: list[list],
                 summary: str | None = None) -> None:
    if (args.format or "csv") == "csv":
        _emit_csv(args.out, header, rows, summary)
        return
    payload: dict = {"rows": [dict(zip(header, row)) for row in rows]}
    if summary is not None:
        payload["summary"] = summary
    _write_text(args.out, _json_render(payload) + "\n")


def _emit_scalar(args: argparse.Namespace, record: dict) -> None:
    if (args.format or "json") == "json":
        _write_text(args.out, _json_render(record) + "\n")
        return
    _emit_csv(args.out, ["key", "value"], [[k, v] for k, v in record.items()])


# --------------------------------------------------------------------------
# subcommands

def _build_spec(args: argparse.Namespace) -> MechanismSpec:
    if args.mechanism == "multiplicative" and args.kbound is None:
        raise UsageError("--mechanism multiplicative needs --kbound")
    with warnings.catch_warnings():  # the rebuilt spec warns, at the scale in use
        warnings.simplefilter("ignore")
        spec = _CONSTRUCTORS[args.mechanism](args, PrivacyParams(args.epsilon, args.sensitivity))
    scale = spec.scale if args.scale is None else args.scale
    return MechanismSpec(spec.variant, spec.privacy, scale, spec.postprocessor)


def _q_grid(args: argparse.Namespace) -> list[float]:
    if args.q_max < args.q_min:
        raise UsageError("--q-max must be at least --q-min")
    if args.q_log and args.q_min <= 0:
        raise UsageError("--q-log needs --q-min > 0")
    if args.q_points == 1:
        return [args.q_min]
    if args.q_log:
        return np.geomspace(args.q_min, args.q_max, args.q_points).tolist()
    return _even_grid(args.q_min, args.q_max, args.q_points)


def _row_seeds(seed: int, count: int) -> list[int]:
    return [int(s) for s in np.random.SeedSequence(seed).generate_state(count, np.uint64)]


def cmd_bias_curve(args: argparse.Namespace) -> int:
    spec = _build_spec(args)
    grid = _q_grid(args)
    rows = []
    for q, seed in zip(grid, _row_seeds(args.seed, len(grid))):
        estimate = mc_bias(spec, q, args.samples, seed)
        rows.append([q, bias_mod.closed_form_bias(spec, q), bias_mod.quadrature_bias(spec, q),
                     estimate.mean, estimate.stderr])
    _emit_report(args, ["q", "bias_closed_form", "bias_quadrature", "bias_mc", "mc_stderr"], rows)
    return 0


def cmd_optimal_alpha(args: argparse.Namespace) -> int:
    b = _build_spec(args).scale
    alpha_star = bias_mod.optimal_alpha(b)
    at_star = bias_mod.max_abs_bias_translated_ramp(alpha_star, b)
    at_zero = bias_mod.max_abs_bias_translated_ramp(0.0, b)
    _emit_scalar(args, {
        "b": b,
        "alpha_star": alpha_star,
        "B_at_alpha_star": at_star,
        "B_at_zero": at_zero,
        "improvement_ratio": at_zero / at_star,
    })
    return 0


def cmd_compare(args: argparse.Namespace) -> int:
    privacy = PrivacyParams(args.epsilon, args.sensitivity)
    clamped = make_postprocessed_mechanism(privacy, PostProcessor.ramp())
    restricted = make_restricted_mechanism(privacy, fair_comparison=True)
    rows = [[q, bias_mod.closed_form_bias(clamped, q), bias_mod.closed_form_bias(restricted, q),
             bias_mod.bias_ratio_restricted_vs_bit(q, args.epsilon, args.sensitivity)]
            for q in _q_grid(args)]
    _emit_report(args, ["q", "bias_bit", "bias_restricted_same_eps", "ratio"], rows)
    return 0


def cmd_verify_dp(args: argparse.Namespace) -> int:
    spec = _build_spec(args)
    log_density_a, log_density_b, points = adjacent_densities(spec)
    claimed = args.claimed if args.claimed is not None else guaranteed_privacy_level(spec)
    certificate = certify_dp_densities(log_density_a, log_density_b, claimed, points)
    _emit_scalar(args, {
        "mechanism": args.mechanism,
        "epsilon_claimed": certificate.epsilon_claimed,
        "max_log_ratio_observed": certificate.max_log_ratio_observed,
        "grid_description": certificate.grid_description,
        "passed": certificate.passed,
    })
    return 0 if certificate.passed else 1


def cmd_mc_validate(args: argparse.Namespace) -> int:
    spec = _build_spec(args)
    grid = _q_grid(args)
    rows = []
    max_abs_z = 0.0
    for q, seed in zip(grid, _row_seeds(args.seed, len(grid))):
        closed = bias_mod.closed_form_bias(spec, q)
        estimate = mc_bias(spec, q, args.samples, seed)
        if math.isfinite(closed) and estimate.stderr > 0:
            z = (estimate.mean - closed) / estimate.stderr
            max_abs_z = max(max_abs_z, abs(z))
        else:
            z = math.nan
        rows.append([q, closed, estimate.mean, estimate.stderr, z, estimate.warning or ""])
    _emit_report(args, ["q", "bias_closed_form", "bias_mc", "mc_stderr", "z", "warning"],
                 rows, summary=f"max_abs_z={_fmt(max_abs_z)}")
    return 0


def cmd_query_info(args: argparse.Namespace) -> int:
    qd = QueryDescriptor(QueryKind(args.query), threshold=args.threshold,
                         count_floor=args.count_floor)
    dataset = Dataset(load_records(args.data), args.lower, args.upper, args.lower_open)
    value = evaluate_query(qd, dataset)
    bounds = (args.lower, args.upper)
    delta = sensitivity(qd, bounds, len(dataset))
    _emit_scalar(args, {
        "query": args.query,
        "n": len(dataset),
        "value": value,
        "sensitivity": delta,
        "relative_bound": relative_bound_K(qd, bounds, len(dataset)),
        "epsilon": args.epsilon,
        "scale": PrivacyParams(args.epsilon, delta).scale,
    })
    return 0


# --------------------------------------------------------------------------
# flags and config files

class _Parser(argparse.ArgumentParser):
    """Raises each usage error, so that ``main`` reports it like any other."""

    def error(self, message):
        raise UsageError(message)


def _number(kind: type, low: float, strict: bool = False):
    """Flag type: a finite ``kind`` that is > ``low`` if ``strict``, else >= ``low``."""
    def convert(text: str):
        try:
            value = kind(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"invalid {kind.__name__} value: {text!r}") from None
        if math.isfinite(value) and (value > low if strict else value >= low):
            return value
        bound = f" and {'>' if strict else '>='} {low}" if math.isfinite(low) else ""
        raise argparse.ArgumentTypeError(f"must be finite{bound}, got {text}")
    return convert


_POSITIVE = _number(float, 0, strict=True)
_NONNEGATIVE = _number(float, 0)
_FINITE = _number(float, -math.inf)
_SEED = _number(int, 0)

_CONFIG = _Parser(add_help=False)
_CONFIG.add_argument("--config", help="JSON object of flag values keyed by flag name; "
                                      "flags on the command line override it")


@functools.cache
def _build_parser() -> tuple[argparse.ArgumentParser, dict[str, argparse.ArgumentParser]]:
    """The parser and its subcommand parsers by name, built once per process
    (parsing never changes them).  Each option's type, range, choices and
    default are declared here and nowhere else."""
    common = _Parser(add_help=False, parents=[_CONFIG])
    common.add_argument("--out", help="output path (default: stdout)")
    common.add_argument("--format", choices=("csv", "json"),
                        help="default: csv for curves, json for single reports")
    common.add_argument("--seed", type=_SEED, help="RNG seed (default: $NONNEG_DP_SEED, then 0)")

    eps = _Parser(add_help=False)
    eps.add_argument("--epsilon", type=_POSITIVE, default=1.0)

    privacy = _Parser(add_help=False, parents=[eps])
    privacy.add_argument("--sensitivity", type=_NONNEGATIVE, default=1.0)

    mech = _Parser(add_help=False, parents=[privacy])
    mech.add_argument("--mechanism", choices=tuple(_CONSTRUCTORS), default="bit")
    mech.add_argument("--scale", type=_POSITIVE, help="override the Laplace scale b")
    mech.add_argument("--alpha", type=_NONNEGATIVE, default=0.0, help="ramp translation")
    mech.add_argument("--kbound", type=_POSITIVE, help="relative bound for the multiplicative mechanism")

    grid = _Parser(add_help=False)
    grid.add_argument("--q-min", type=_NONNEGATIVE, default=0.0)
    grid.add_argument("--q-max", type=_NONNEGATIVE, default=10.0)
    grid.add_argument("--q-points", type=_number(int, 1), default=21)
    grid.add_argument("--q-log", action=argparse.BooleanOptionalAction, default=False)

    samples = _Parser(add_help=False)
    samples.add_argument("--samples", type=_number(int, 100), default=100_000)

    parser = _Parser(prog="nonneg-dp", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, handler, parents, help):
        command = sub.add_parser(name, parents=parents, help=help)
        command.set_defaults(handler=handler)
        return command

    add("bias-curve", cmd_bias_curve, [common, mech, grid, samples],
        "closed-form vs quadrature vs Monte Carlo bias over a q grid")
    add("optimal-alpha", cmd_optimal_alpha, [common, mech],
        "worst-case-bias-minimizing ramp translation")
    add("compare", cmd_compare, [common, privacy, grid],
        "clamping vs restriction bias at equal privacy level")
    p = add("verify-dp", cmd_verify_dp, [common, mech], "density-ratio privacy certificate")
    p.add_argument("--claimed", type=_NONNEGATIVE, help="privacy level to certify (default: the guaranteed level)")
    add("mc-validate", cmd_mc_validate, [common, mech, grid, samples],
        "Monte Carlo validation of closed-form bias with z-scores")
    p = add("query-info", cmd_query_info, [common, eps],
            "evaluate a dataset query and its sensitivity bounds")
    p.add_argument("--data", required=True, help="newline-delimited decimal records")
    p.add_argument("--lower", type=float, default=0.0)
    p.add_argument("--upper", type=float, default=1.0)
    p.add_argument("--lower-open", action=argparse.BooleanOptionalAction, default=False)
    p.add_argument("--query", choices=sorted(k.value for k in QueryKind), default="mean")
    p.add_argument("--threshold", type=_FINITE, default=0.0)
    p.add_argument("--count-floor", type=int)
    return parser, sub.choices


def _config_flags(path: str, command: argparse.ArgumentParser) -> list[str]:
    """The JSON object in ``path`` as flags of ``command``: a key is a flag name,
    ``true``/``false`` set a switch on/off, ``null`` keeps the default, and any
    other value must be a string for a text flag or a number for a numeric one."""
    try:
        with open(path, "r", encoding="utf-8") as handle:
            values = json.load(handle)
    except (OSError, json.JSONDecodeError) as exc:
        raise UsageError(f"cannot read config file: {exc}") from exc
    if not isinstance(values, dict):
        raise UsageError("config file must hold a JSON object")
    flags = []
    for key, value in values.items():
        flag = "--" + key.replace("_", "-")
        action = command._option_string_actions.get(flag)
        if action is None or action.dest in ("help", "config"):
            raise UsageError(f"config key {key!r}: {command.prog} has no flag {flag}")
        if value is None:
            continue
        want = bool if action.nargs == 0 else str if action.type is None else float
        if (float if type(value) is int else type(value)) is not want:
            name = {bool: "true or false", str: "a string", float: "a number"}[want]
            raise UsageError(f"config key {key!r} needs {name}, got {json.dumps(value)}")
        flags.append(f"{flag}={value}" if want is not bool else flag if value else "--no-" + flag[2:])
    return flags


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    parser, commands = _build_parser()
    with warnings.catch_warnings(record=True) as caught:
        try:
            if argv and argv[0] in commands:
                # File values go before the command-line flags, which win.
                path = _CONFIG.parse_known_args(argv[1:])[0].config
                if path is not None:
                    argv[1:1] = _config_flags(path, commands[argv[0]])
            args = parser.parse_args(argv)
            if args.seed is None:
                # Read per call, so the cached parser holds no environment value.
                try:
                    args.seed = _SEED(os.environ.get("NONNEG_DP_SEED", "0"))
                except argparse.ArgumentTypeError as exc:
                    raise UsageError(f"argument --seed: {exc}") from None
            code = args.handler(args)
        except (UsageError, OSError, ValueError, MemoryError) as exc:
            print(f"error: {exc or type(exc).__name__}", file=sys.stderr)
            code = 2
    for message in dict.fromkeys(str(w.message) for w in caught):
        print(f"warning: {message}", file=sys.stderr)
    return code


if __name__ == "__main__":
    sys.exit(main())
