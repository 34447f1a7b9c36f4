"""Spans and counters around the public functions of each nonneg_dp layer.

The tracer replaces functions at the names their callers look them up by
(``cli.mc_bias``, ``bias.apply_postprocessor``, ``RngState.uniform`` ...)
and restores them on ``uninstall``; nothing under ``src/`` is changed.  Each
call becomes a span with a name, start, end and parent, kept in flat arrays
in memory and written out once at the end.  A layer's self time is the
duration of its spans minus the part covered by their direct children.

Every per-layer value is reported per operation of the traced phase.
"""

from __future__ import annotations

import json
import os
import sys
import types
from array import array
from collections import defaultdict
from functools import wraps
from time import perf_counter_ns

# Metric that each span group's self time is charged to.
SELF_METRICS = {
    "distributions": "distributions.self_ms",
    "mechanisms.sample": "mechanisms.sample_self_ms",
    "mechanisms.postprocess": "mechanisms.postprocess_self_ms",
    "mechanisms.vplus": "mechanisms.vplus_self_ms",
    "mechanisms.spec": "mechanisms.spec_self_ms",
    "mechanisms.density": "mechanisms.density_self_ms",
    "queries": "queries.self_ms",
    "bias.closed_form": "bias.closed_form_self_ms",
    "bias.quadrature": "bias.quadrature_self_ms",
    "verify.mc": "verify.mc_self_ms",
    "verify.cert": "verify.cert_self_ms",
    "verify.coupling": "verify.coupling_self_ms",
    "verify.divergence": "verify.divergence_self_ms",
    "cli": "cli.self_ms",
    "cli.quad": "cli.self_ms",
}

# Per-layer metrics with their units; every traced run prints all of them.
PER_LAYER = {
    "distributions.uniform_calls": "count/op",
    "distributions.uniforms": "count/op",
    "distributions.self_ms": "ms/op",
    "mechanisms.sample_calls": "count/op",
    "mechanisms.draws_out": "count/op",
    "mechanisms.sample_self_ms": "ms/op",
    "mechanisms.rejection_attempts": "count/op",
    "mechanisms.rejection_yield": "ratio",
    "mechanisms.postprocess_self_ms": "ms/op",
    "mechanisms.vplus_calls": "count/op",
    "mechanisms.vplus_self_ms": "ms/op",
    "mechanisms.spec_self_ms": "ms/op",
    "mechanisms.density_self_ms": "ms/op",
    "queries.records_scanned": "count/op",
    "queries.self_ms": "ms/op",
    "bias.closed_form_calls": "count/op",
    "bias.closed_form_self_ms": "ms/op",
    "bias.quadrature_calls": "count/op",
    "bias.quadrature_self_ms": "ms/op",
    "verify.mc_calls": "count/op",
    "verify.mc_draws": "count/op",
    "verify.mc_self_ms": "ms/op",
    "verify.cert_points": "count/op",
    "verify.cert_self_ms": "ms/op",
    "verify.coupling_self_ms": "ms/op",
    "verify.divergence_self_ms": "ms/op",
    "cli.main_calls": "count/op",
    "cli.self_ms": "ms/op",
    "cli.quad_calls": "count/op",
    "cli.quad_ms": "ms/op",
    "cli.bytes_out": "B/op",
    "cli.import_ms": "ms/op",
    "cli.import_scipy_ms": "ms/op",
    "cli.process_ms": "ms/op",
    "trace.spans": "count/op",
    "trace.overhead_ratio": "ratio",
}


def _size(value) -> int:
    return 1 if value is None else int(value)


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self.groups: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_id = array("i")
        self.parent = array("i")
        self.start = array("q")
        self.end = array("q")
        self.stack: list[int] = []
        self.counts: dict[str, float] = defaultdict(float)
        self.ops = 0
        self._installed: list[tuple[object, str, object]] = []

    # -- spans -----------------------------------------------------------

    def _name(self, name: str, group: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
            self.groups.append(group)
        return self._ids[name]

    def _open(self, nid: int) -> int:
        idx = len(self.start)
        self.name_id.append(nid)
        self.parent.append(self.stack[-1] if self.stack else -1)
        self.end.append(0)
        self.stack.append(idx)
        self.start.append(perf_counter_ns())
        return idx

    def _close(self, idx: int) -> None:
        self.end[idx] = perf_counter_ns()
        self.stack.pop()

    def span(self, fn, name: str, group: str, count=None):
        """``fn`` wrapped in a span; ``count(counts, args, kwargs, result)``
        runs after the call, outside the span."""
        nid = self._name(name, group)
        tracer = self

        @wraps(fn)
        def traced(*args, **kwargs):
            idx = tracer._open(nid)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._close(idx)
            if count is not None:
                count(tracer.counts, args, kwargs, result)
            return result

        return traced

    def op(self, kind: str):
        """Root span of one benchmark operation."""
        return _OpSpan(self, self._name(f"op:{kind}", "op"))

    # -- installation ----------------------------------------------------

    def wrap(self, owner, attr: str, group: str, count=None) -> None:
        original = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        name = f"{getattr(owner, '__name__', owner)}.{attr}"
        if isinstance(original, classmethod):
            replacement = classmethod(self.span(original.__func__, name, group, count))
        else:
            replacement = self.span(original, name, group, count)
        self._installed.append((owner, attr, original))
        setattr(owner, attr, replacement)

    def proxy_quad(self, module) -> None:
        """Give ``module`` its own view of scipy.integrate whose ``quad`` is
        traced, so only that module's inline quadrature is charged."""
        integrate = module.integrate
        view = types.SimpleNamespace(**{k: getattr(integrate, k) for k in dir(integrate)
                                        if not k.startswith("__")})
        view.quad = self.span(integrate.quad, f"{module.__name__}.integrate.quad", "cli.quad",
                              _count("cli.quad_calls"))
        self._installed.append((module, "integrate", integrate))
        module.integrate = view

    def install(self) -> None:
        """Wrap the layers this process has imported (none for ``cli_cold``,
        whose program runs in child processes)."""
        mods = sys.modules
        if "nonneg_dp" not in mods:
            return
        dist = mods["nonneg_dp.distributions"]
        mech = mods["nonneg_dp.mechanisms"]
        qry = mods["nonneg_dp.queries"]
        bias = mods["nonneg_dp.bias"]
        ver = mods["nonneg_dp.verify"]
        cli = mods.get("nonneg_dp.cli")

        self.wrap(dist.RngState, "uniform", "distributions", _count_uniform)
        self.wrap(dist, "laplace_quantile", "distributions")
        for owner in (mech, ver) + ((cli,) if cli else ()):
            for attr in ("sample_laplace", "laplace_quantile", "laplace_cdf", "laplace_pdf",
                         "log_laplace_mgf"):
                if attr in owner.__dict__:
                    self.wrap(owner, attr, "distributions")

        self.wrap(mech, "sample_mechanism", "mechanisms.sample", _count_sample)
        self.wrap(ver, "sample_mechanism", "mechanisms.sample", _count_sample)
        self.wrap(mech, "sample_restricted_inverse", "mechanisms.sample")
        self.wrap(mech, "sample_restricted_rejection", "mechanisms.sample")
        # Ask the rejection sampler for its attempt count, then hand the
        # caller the shape it asked for.
        inner = mech.sample_restricted_rejection
        counts = self.counts

        @wraps(inner)
        def rejection(base, rng, max_attempts=64, return_attempts=False):
            value, attempts = inner(base, rng, max_attempts, return_attempts=True)
            counts["mechanisms.sample_calls"] += 1
            counts["mechanisms.draws_out"] += 1
            counts["mechanisms.rejection_attempts"] += attempts
            counts["mechanisms.rejection_accepted"] += 1
            return (value, attempts) if return_attempts else value

        mech.sample_restricted_rejection = rejection
        self.wrap(mech, "apply_postprocessor", "mechanisms.postprocess")
        self.wrap(bias, "apply_postprocessor", "mechanisms.postprocess")
        self.wrap(mech.PostProcessor, "custom", "mechanisms.vplus", _count("mechanisms.vplus_calls"))
        for attr in ("make_laplace_mechanism", "make_postprocessed_mechanism",
                     "make_restricted_mechanism", "make_multiplicative_mechanism"):
            self.wrap(mech, attr, "mechanisms.spec")
        for owner in (mech, ver) + ((cli,) if cli else ()):
            for attr in ("restricted_pdf", "restricted_cdf"):
                if attr in owner.__dict__:
                    self.wrap(owner, attr, "mechanisms.density")

        for owner in (qry,) + ((cli,) if cli else ()):
            self.wrap(owner, "evaluate_query", "queries", _count_scan)
            for attr in ("sensitivity", "relative_bound_K", "load_records"):
                self.wrap(owner, attr, "queries")

        for attr in ("bias_bit", "expectation_translated_ramp", "bias_translated_ramp",
                     "max_abs_bias_translated_ramp", "optimal_alpha", "bias_restricted",
                     "bias_ratio_restricted_vs_bit"):
            self.wrap(bias, attr, "bias.closed_form", _count("bias.closed_form_calls"))
        self.wrap(bias, "expectation_postprocessed_quadrature", "bias.quadrature",
                  _count("bias.quadrature_calls"))

        self.wrap(ver, "coupling_bias_lower_bound", "verify.coupling")
        self.wrap(ver, "check_divergence_log_laplace", "verify.divergence")
        if cli is not None:
            self.wrap(cli, "mc_bias", "verify.mc", _count_mc)
            self.wrap(cli, "certify_dp_densities", "verify.cert", _count_cert)
            self.wrap(cli, "main", "cli", _count_main)
            self.proxy_quad(cli)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._installed):
            setattr(owner, attr, original)
        self._installed.clear()

    # -- results ---------------------------------------------------------

    def layer_metrics(self) -> dict[str, float]:
        """Totals per operation, keyed like ``PER_LAYER``."""
        n = len(self.start)
        child = [0] * n
        parent, start, end = self.parent, self.start, self.end
        for i in range(n):
            p = parent[i]
            if p >= 0:
                child[p] += end[i] - start[i]
        self_ns: dict[str, int] = defaultdict(int)
        quad_ns = 0
        for i in range(n):
            group = self.groups[self.name_id[i]]
            dur = end[i] - start[i]
            metric = SELF_METRICS.get(group)
            if metric is not None:
                self_ns[metric] += dur - child[i]
            if group == "cli.quad":
                quad_ns += dur
        ops = max(self.ops, 1)
        out = {name: 0.0 for name in PER_LAYER}
        for key, value in self.counts.items():
            if key in out:
                out[key] = value / ops
        for metric, ns in self_ns.items():
            out[metric] = ns / 1e6 / ops
        out["cli.quad_ms"] = quad_ns / 1e6 / ops
        out["trace.spans"] = n / ops
        attempts = self.counts.get("mechanisms.rejection_attempts", 0.0)
        out["mechanisms.rejection_yield"] = (
            self.counts["mechanisms.rejection_accepted"] / attempts if attempts else 0.0)
        return out

    def write(self, stem) -> None:
        """Spans to ``<stem>.spans``: four arrays one after another, int32
        name index, int32 parent index (-1 for an operation's root), int64
        start and int64 end in ns, each ``n`` long, native byte order.
        ``<stem>.json`` holds ``n`` and the span names and groups."""
        with open(f"{stem}.spans", "wb") as handle:
            for column in (self.name_id, self.parent, self.start, self.end):
                column.tofile(handle)
        with open(f"{stem}.json", "w", encoding="utf-8") as handle:
            json.dump({"n": len(self.start), "names": self.names, "groups": self.groups}, handle)


class _OpSpan:
    def __init__(self, tracer: Tracer, nid: int):
        self.tracer, self.nid = tracer, nid

    def __enter__(self):
        self.idx = self.tracer._open(self.nid)

    def __exit__(self, *exc):
        self.tracer._close(self.idx)
        self.tracer.ops += 1
        return False


def _count(key: str):
    def count(counts, args, kwargs, result):
        counts[key] += 1
    return count


def _count_main(counts, args, kwargs, result):
    argv = args[0] if args else kwargs.get("argv") or []
    counts["cli.main_calls"] += 1
    if "--out" in argv:
        counts["cli.bytes_out"] += os.path.getsize(argv[argv.index("--out") + 1])


def _count_uniform(counts, args, kwargs, result):
    size = args[1] if len(args) > 1 else kwargs.get("size")
    counts["distributions.uniform_calls"] += 1
    counts["distributions.uniforms"] += _size(size)


def _count_sample(counts, args, kwargs, result):
    size = args[3] if len(args) > 3 else kwargs.get("size")
    counts["mechanisms.sample_calls"] += 1
    counts["mechanisms.draws_out"] += _size(size)


def _count_scan(counts, args, kwargs, result):
    counts["queries.records_scanned"] += len(args[1])


def _count_mc(counts, args, kwargs, result):
    counts["verify.mc_calls"] += 1
    counts["verify.mc_draws"] += result.n


def _count_cert(counts, args, kwargs, result):
    counts["verify.cert_points"] += len(args[3])
