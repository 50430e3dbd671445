"""Span tracing of ftfreq's layers from outside the library.

The tracer replaces each public function at the name its caller looks up
(for example ``ftfreq.pipeline.mix``, which ``Pipeline.step`` calls) with a
wrapper that records one span per call: (id, name, start, end, parent id,
op id). Spans stay in memory while the pass runs and are written once at the
end. A wrapped name that no longer exists is skipped, so a layer that the
library stops calling reports 0 calls instead of failing.
"""

from __future__ import annotations

import contextlib
import importlib
import json
import os
import time
from array import array

import numpy as np

# (module, attribute path, observer key). The span name is "module.attribute"
# without the "ftfreq." prefix.
WRAPS = (
    ("ftfreq.pipeline", "Pipeline.step", None),
    ("ftfreq.pipeline", "sample_regression", None),
    ("ftfreq.mixing", "RegressorExtender.push", None),
    ("ftfreq.pipeline", "mix", "mix"),
    ("ftfreq.mixing", "adjugate", None),
    ("ftfreq.mixing", "determinant", None),
    ("ftfreq.pipeline", "step_gradient", "step_gradient"),
    ("ftfreq.pipeline", "finite_time_estimate", "finite_time_estimate"),
    ("ftfreq.pipeline", "recover_frequencies", None),
    ("ftfreq.recovery", "find_roots", None),
    ("ftfreq.harness", "sample_signal", None),
    ("ftfreq.harness", "write_trace_csv", "write"),
    ("ftfreq.harness", "write_estimates_csv", "write"),
    ("ftfreq.harness", "write_metadata", "write"),
    ("ftfreq.harness", "_read_trace", None),
    ("ftfreq.cli", "load_config", None),
)

ORDERS = range(1, 9)

# Per-layer metrics: (name, unit, the end-to-end metric and workload it moves).
PER_LAYER = (
    ("signals.us_per_sample", "us", "us_per_sample on builtins; ~0 on stream (trace made in set-up)"),
    ("regression.us_per_call", "us", "us_per_sample on builtins, step_p50_us on stream"),
    ("extension.us_per_call", "us", "us_per_sample on builtins, step_p50_us on stream"),
    ("pipeline.self_us_per_sample", "us", "us_per_sample on builtins, step_p50_us on stream"),
    ("mixing.us_per_call", "us", "us_per_sample.n5-n8 on n-sweep, step_p50_us on stream"),
    ("mixing.calls", "count", "us_per_sample.n5-n8 on n-sweep, step_p50_us on stream"),
    ("mixing.adjugate_calls", "count", "us_per_sample.n5-n8 on n-sweep; 0 on builtins"),
    ("mixing.adjugate_us_per_call", "us", "us_per_sample.n5-n8 on n-sweep, step_p50_us on stream"),
    ("mixing.determinant_us_per_call", "us", "us_per_sample.n5-n8 on n-sweep, step_p50_us on stream"),
    ("mixing.cold_ratio", "ratio", "per-n us_per_sample on n-sweep, step_p99_us on stream"),
    ("estimator.us_per_call", "us", "step_p50_us on stream"),
    ("estimator.skipped_ratio", "ratio", "error_rate on n-sweep, step_p50_us on stream"),
    ("estimator.extract_attempts", "count", "error_rate on n-sweep"),
    ("estimator.extract_deferred", "count", "error_rate on n-sweep"),
    ("recovery.us_per_call", "us", "us_per_sample on builtins, step_p50_us on stream, n-sweep"),
    ("recovery.calls", "count", "us_per_sample on builtins, step_p50_us on stream, n-sweep"),
    ("recovery.find_roots_us_per_call", "us", "us_per_sample on builtins, step_p50_us on stream"),
    ("harness.write_us_per_sample", "us", "us_per_sample on builtins; 0 elsewhere"),
    ("harness.bytes_written", "B", "us_per_sample on builtins; 0 elsewhere"),
    ("harness.read_us_per_sample", "us", "us_per_sample on builtins (replay); 0 elsewhere"),
    ("config.load_ms", "ms", "us_per_sample on builtins; 0 elsewhere"),
    ("tracing.overhead", "x", "traced us_per_sample / untraced us_per_sample"),
    ("tracing.untraced_us_per_sample", "us", "base of tracing.overhead"),
    ("tracing.traced_us_per_sample", "us", "base of tracing.overhead"),
)

# Metrics also given per model order n, over the ops of that order (suffix .nK).
PER_ORDER = (
    "pipeline.self_us_per_sample", "mixing.us_per_call",
    "mixing.adjugate_us_per_call", "mixing.determinant_us_per_call",
    "mixing.cold_ratio", "estimator.extract_deferred", "recovery.us_per_call",
)

UNITS = {name: unit for name, unit, _ in PER_LAYER}


def per_layer_names():
    """Every per-layer metric name, with its unit, in report order."""
    out = [(name, unit) for name, unit, _ in PER_LAYER]
    out += [(f"{name}.n{k}", UNITS[name]) for name in PER_ORDER for k in ORDERS]
    return out


def _resolve(module_name, path):
    """(owner, attribute, function) for a dotted attribute, or None if gone."""
    try:
        owner = importlib.import_module(module_name)
    except ImportError:
        return None
    *parents, attr = path.split(".")
    for part in parents:
        owner = getattr(owner, part, None)
        if owner is None:
            return None
    fn = getattr(owner, attr, None)
    return None if fn is None else (owner, attr, fn)


class Tracer:
    """Records spans for the wrapped functions between install() and uninstall()."""

    def __init__(self):
        self.names = ["op"]
        self.spans = array("q")  # flat rows: id, name, start ns, end ns, parent, op
        self.ops = []  # op id -> (label, n)
        self.counters = {}  # (counter, op id) -> value
        self.bypassed = []
        self._next_id = 0
        self._current = -1
        self._op = -1
        self._saved = []

    # -- recording -------------------------------------------------------

    def _count(self, key, value=1):
        k = (key, self._op)
        self.counters[k] = self.counters.get(k, 0) + value

    def _observe(self, kind, args, result):
        if kind == "mix":
            self._count("mix.calls")
            if not getattr(result, "warm", True):
                self._count("mix.cold")
        elif kind == "step_gradient":
            self._count("step_gradient.calls")
            if len(args) > 1 and not getattr(args[1], "warm", True):
                self._count("step_gradient.skipped")
        elif kind == "finite_time_estimate":
            if result is None:
                self._count("extract.deferred")
        elif kind == "write":
            self._count("bytes_written", os.path.getsize(args[0]))

    def _wrap(self, fn, name_id, observe):
        tracer = self
        spans = self.spans
        clock = time.perf_counter_ns

        def traced(*args, **kwargs):
            sid = tracer._next_id
            tracer._next_id = sid + 1
            parent = tracer._current
            tracer._current = sid
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                tracer._current = parent
                spans.extend((sid, name_id, start, end, parent, tracer._op))
            if observe is not None:
                tracer._observe(observe, args, result)
            return result

        return traced

    @contextlib.contextmanager
    def op(self, label, n):
        """Scope one benchmark op; spans inside it carry its op id."""
        self.ops.append((label, n))
        outer = self._op
        self._op = len(self.ops) - 1
        sid = self._next_id
        self._next_id = sid + 1
        parent = self._current
        self._current = sid
        start = time.perf_counter_ns()
        try:
            yield
        finally:
            end = time.perf_counter_ns()
            self._current = parent
            self.spans.extend((sid, 0, start, end, parent, self._op))
            self._op = outer

    def install(self):
        for module_name, path, observe in WRAPS:
            found = _resolve(module_name, path)
            if found is None:
                self.bypassed.append(f"{module_name}.{path}")
                continue
            owner, attr, fn = found
            name = f"{module_name.removeprefix('ftfreq.')}.{path}"
            self.names.append(name)
            setattr(owner, attr, self._wrap(fn, len(self.names) - 1, observe))
            self._saved.append((owner, attr, fn))
        return self

    def uninstall(self):
        for owner, attr, fn in reversed(self._saved):
            setattr(owner, attr, fn)
        self._saved.clear()

    # -- analysis --------------------------------------------------------

    def table(self):
        """Span rows as an (N, 6) int64 array: id, name, start, end, parent, op."""
        return np.frombuffer(self.spans, dtype=np.int64).reshape(-1, 6)

    def aggregate(self):
        """{(span name, op order or None): [calls, total ns, self ns]}.

        Self time is a span's duration minus the time its direct child spans
        cover. Order None sums over every op.
        """
        rows = self.table()
        out = {}
        if not len(rows):
            return out
        ids, name_ids, start, end, parent, op_ids = rows.T
        dur = end - start
        position = np.empty(int(ids.max()) + 1, dtype=np.int64)
        position[ids] = np.arange(len(ids))
        child = np.zeros(len(ids), dtype=np.int64)
        nested = parent >= 0
        np.add.at(child, position[parent[nested]], dur[nested])
        self_time = dur - child
        orders = np.array([n for _, n in self.ops] + [0], dtype=np.int64)[op_ids]
        for name_id, name in enumerate(self.names):
            mask = name_ids == name_id
            for n in (None, *ORDERS):
                m = mask if n is None else mask & (orders == n)
                calls = int(m.sum())
                if calls:
                    out[(name, n)] = [calls, int(dur[m].sum()), int(self_time[m].sum())]
        return out

    def counter(self, key, n=None):
        return sum(v for (k, op), v in self.counters.items()
                   if k == key and (n is None or (op >= 0 and self.ops[op][1] == n)))

    def write(self, path):
        """Write every span, the name table and the op table in one file."""
        np.savez(path, spans=self.table(), names=np.array(self.names),
                 ops=np.array(json.dumps(self.ops)))


def layer_metrics(tracer, samples, untraced_us, traced_us):
    """Every per-layer metric of one traced pass.

    samples maps model order n (and None for the whole pass) to the samples
    the pass processed, the denominator of every *_per_sample metric.
    """
    agg = tracer.aggregate()

    def calls(span, n=None):
        return agg.get((span, n), [0, 0, 0])[0]

    def total_us(span, n=None, self_only=False):
        return agg.get((span, n), [0, 0, 0])[2 if self_only else 1] / 1e3

    def per(num, den):
        return num / den if den else 0.0

    def one(n):
        s = samples.get(n, 0)
        mix_calls = tracer.counter("mix.calls", n)
        writes = sum(total_us(f"harness.{w}", n) for w in
                     ("write_trace_csv", "write_estimates_csv", "write_metadata"))
        est_calls = calls("pipeline.step_gradient", n) + calls("pipeline.finite_time_estimate", n)
        est_us = total_us("pipeline.step_gradient", n) + total_us("pipeline.finite_time_estimate", n)
        return {
            "signals.us_per_sample": per(total_us("harness.sample_signal", n), s),
            "regression.us_per_call": per(total_us("pipeline.sample_regression", n),
                                          calls("pipeline.sample_regression", n)),
            "extension.us_per_call": per(total_us("mixing.RegressorExtender.push", n),
                                         calls("mixing.RegressorExtender.push", n)),
            "pipeline.self_us_per_sample": per(
                total_us("pipeline.Pipeline.step", n, self_only=True), s),
            "mixing.us_per_call": per(total_us("pipeline.mix", n), calls("pipeline.mix", n)),
            "mixing.calls": calls("pipeline.mix", n),
            "mixing.adjugate_calls": calls("mixing.adjugate", n),
            "mixing.adjugate_us_per_call": per(total_us("mixing.adjugate", n),
                                               calls("mixing.adjugate", n)),
            "mixing.determinant_us_per_call": per(total_us("mixing.determinant", n),
                                                  calls("mixing.determinant", n)),
            "mixing.cold_ratio": per(tracer.counter("mix.cold", n), mix_calls),
            "estimator.us_per_call": per(est_us, est_calls),
            "estimator.skipped_ratio": per(tracer.counter("step_gradient.skipped", n),
                                           tracer.counter("step_gradient.calls", n)),
            "estimator.extract_attempts": calls("pipeline.finite_time_estimate", n),
            "estimator.extract_deferred": tracer.counter("extract.deferred", n),
            "recovery.us_per_call": per(total_us("pipeline.recover_frequencies", n),
                                        calls("pipeline.recover_frequencies", n)),
            "recovery.calls": calls("pipeline.recover_frequencies", n),
            "recovery.find_roots_us_per_call": per(total_us("recovery.find_roots", n),
                                                   calls("recovery.find_roots", n)),
            "harness.write_us_per_sample": per(writes, s),
            "harness.bytes_written": tracer.counter("bytes_written", n),
            "harness.read_us_per_sample": per(total_us("harness._read_trace", n), s),
            "config.load_ms": per(total_us("cli.load_config", n), calls("cli.load_config", n)) / 1e3,
        }

    metrics = one(None)
    metrics["tracing.overhead"] = per(traced_us, untraced_us)
    metrics["tracing.untraced_us_per_sample"] = untraced_us
    metrics["tracing.traced_us_per_sample"] = traced_us
    for k in ORDERS:
        by_order = one(k)
        for name in PER_ORDER:
            metrics[f"{name}.n{k}"] = by_order[name]
    return metrics
