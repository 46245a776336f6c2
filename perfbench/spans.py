"""Span tracing of blocksketch layers from outside the package.

`rebound` replaces each traced public function, in every blocksketch
module that holds it by name, with a wrapper that records a span (name,
start, end, parent and a few size attributes of the call). Calls made
inside the defining module go through the same rebinding, since Python
looks module globals up at call time. The originals are restored on exit,
so traced and untraced calls run the same code.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import statistics
import sys
import time
from collections import defaultdict
from contextlib import contextmanager


def _full_dim(args, result):
    return {"full_dim": result.ancilla_dim * result.system_dim}


def _prep_dim(args, result):
    return {"full_dim": result.unitary.shape[0]}


def _window_degree(args, result):
    return {"degree": result.degree}


def _poly_degree(args, result):
    return {"degree": args["p"].degree}


def _query_ledger(args, result):
    from blocksketch.estimation import query_budget

    amp_eps = min(args["eps"] / (2.0 * args["a"].scale), 0.5)
    return {"queries": result.grover_queries, "budget": query_budget(amp_eps, args["delta"])}


# (module, function, attributes recorded from the bound arguments and result)
TRACED = (
    ("cli", "main", None),
    ("pauli", "parse_pauli_file", None),
    ("block_encoding", "encode_pauli_sum", None),
    ("block_encoding", "product", _full_dim),
    ("block_encoding", "linear_combine", _full_dim),
    ("spectral", "chebyshev_encoding", _full_dim),
    ("spectral", "apply_polynomial", _poly_degree),
    ("state_prep", "prepare_maximally_mixed", _prep_dim),
    ("state_prep", "prepare_pure", None),
    ("chebyshev", "window_poly", _window_degree),
    ("chebyshev", "compose", None),
    ("chebyshev", "amplifying_poly", None),
    ("estimation", "estimate_observable", _query_ledger),
    ("estimation", "estimate_complex", None),
)
ROOT = "cli.main"


class Tracer:
    """Collects the spans of one traced job in memory."""

    def __init__(self):
        self.spans: list[dict] = []
        self._stack: list[int] = []

    def wrap(self, name: str, fn, attrs=None):
        signature = inspect.signature(fn)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = {
                "id": len(self.spans),
                "name": name,
                "parent": self._stack[-1] if self._stack else None,
                "start": time.perf_counter(),
            }
            self.spans.append(span)
            self._stack.append(span["id"])
            try:
                result = fn(*args, **kwargs)
            finally:
                span["end"] = time.perf_counter()
                self._stack.pop()
            if attrs is not None:
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
                span.update(attrs(bound.arguments, result))
            return result

        return traced


@contextmanager
def rebound(tracer: Tracer):
    """Route the traced blocksketch functions through `tracer` while open."""
    modules = [
        m for name, m in list(sys.modules.items())
        if name == "blocksketch" or name.startswith("blocksketch.")
    ]
    replaced = []
    for module_name, func_name, attrs in TRACED:
        original = getattr(importlib.import_module(f"blocksketch.{module_name}"), func_name)
        wrapper = tracer.wrap(f"{module_name}.{func_name}", original, attrs)
        for module in modules:
            for attr, value in list(vars(module).items()):
                if value is original:
                    replaced.append((module, attr, original))
                    setattr(module, attr, wrapper)
    try:
        yield
    finally:
        for module, attr, original in reversed(replaced):
            setattr(module, attr, original)


def self_times(spans) -> dict[int, float]:
    """Each span's duration minus the part of it its child spans cover."""
    children = defaultdict(list)
    for span in spans:
        if span["parent"] is not None:
            children[span["parent"]].append((span["start"], span["end"]))
    out = {}
    for span in spans:
        covered, reach = 0.0, span["start"]
        for start, end in sorted(children[span["id"]]):
            start, end = max(start, reach), min(end, span["end"])
            if end > start:
                covered += end - start
                reach = end
        out[span["id"]] = (span["end"] - span["start"]) - covered
    return out


def job_layers(spans) -> dict[str, dict]:
    """Per-function totals of one traced job: calls, self time, largest
    recorded sizes, and the Grover query ledger."""
    selfs = self_times(spans)
    layers: dict[str, dict] = {}
    for span in spans:
        layer = layers.setdefault(
            span["name"],
            {"calls": 0, "self_s": 0.0, "full_dim": 0, "degree": 0, "queries": 0, "budget": 0},
        )
        layer["calls"] += 1
        layer["self_s"] += selfs[span["id"]]
        for key in ("full_dim", "degree"):
            layer[key] = max(layer[key], span.get(key, 0))
        for key in ("queries", "budget"):
            layer[key] += span.get(key, 0)
    return layers


def layer_metrics(jobs: list[dict], traced_job_s: list[float], untraced_job_s: list[float]) -> dict:
    """Per-layer metrics of a traced run from the `job_layers` of each
    traced job: medians over jobs for calls and self times, maxima over
    jobs for sizes, and ratios of totals for the query ledger."""

    def median(name, key):
        return statistics.median(job.get(name, {}).get(key, 0) for job in jobs)

    def largest(name, key):
        return max(job.get(name, {}).get(key, 0) for job in jobs)

    metrics = {}
    for module_name, func_name, _ in TRACED:
        name = f"{module_name}.{func_name}"
        metrics[f"{name}.self_s"] = (float(median(name, "self_s")), "s")
    for name in (
        "spectral.chebyshev_encoding",
        "block_encoding.linear_combine",
        "block_encoding.product",
        "chebyshev.window_poly",
        "estimation.estimate_observable",
        "estimation.estimate_complex",
    ):
        metrics[f"{name}.calls"] = (median(name, "calls"), "count")
    for name in ("spectral.chebyshev_encoding", "block_encoding.linear_combine", "block_encoding.product"):
        metrics[f"{name}.full_dim_max"] = (largest(name, "full_dim"), "dim")
    metrics["state_prep.prepare_maximally_mixed.full_dim"] = (
        largest("state_prep.prepare_maximally_mixed", "full_dim"), "dim"
    )
    metrics["chebyshev.window_poly.degree"] = (largest("chebyshev.window_poly", "degree"), "degree")
    metrics["spectral.apply_polynomial.degree"] = (largest("spectral.apply_polynomial", "degree"), "degree")

    observe = [job.get("estimation.estimate_observable", {}) for job in jobs]
    budget = sum(layer.get("budget", 0) for layer in observe)
    queries = sum(layer.get("queries", 0) for layer in observe)
    metrics["estimation.queries_over_budget"] = (queries / budget, "ratio")

    traced = statistics.median(traced_job_s)
    layer_self = statistics.median(
        sum(layer["self_s"] for name, layer in job.items() if name != ROOT) for job in jobs
    )
    metrics["traced_job_s"] = (traced, "s")
    metrics["layer_self_frac"] = (layer_self / traced, "frac")
    metrics["trace_overhead_frac"] = (traced / statistics.median(untraced_job_s) - 1.0, "frac")
    return metrics
