"""Span recorder and the per-layer metrics derived from its spans.

The traced run wraps sparsep's public functions at the names their
callers look up (``Patch``), records one span per wrapped call
(``Recorder``) and folds the spans into per-layer numbers
(``layer_metrics``).  Nothing here edits the library: every wrapped name
is put back when the ``Patch`` context exits, also when the run raises.

A span is ``(span_id, name, parent_id, op_id, start, end, attrs)``.  The
current span lives in a ``contextvars.ContextVar``, so spans started in
pool threads nest under the trial that started them once the pool copies
the submitting context (see ``ContextThreadPool``).  Calls made outside
any span opened by the benchmark are not recorded; that keeps the
benchmark's own correctness checks out of the trace.
"""

import concurrent.futures
import contextlib
import contextvars
import csv
import functools
import itertools
import json
import os
import statistics
from time import perf_counter

# (span_id, op_id) of the innermost open span in this context
_CURRENT = contextvars.ContextVar("perfbench_span", default=None)


class Recorder:
    """Thread-safe in-memory span store; spans are read or written after the run.

    No lock: drawing an id (``next`` on ``itertools.count``) and
    ``list.append`` are each one C call, atomic under the interpreter
    lock, and a lock pair would cost a sixth of a small operator call.
    """

    def __init__(self):
        self.spans = []
        self._ids = itertools.count(1)

    def open(self, name, op_id=None, parent=None):
        """Start a span under ``parent`` (default: the current span).

        Returns the handle for ``close``.  ``op_id`` names the trial or
        request; a span without one inherits its parent's.
        """
        if parent is None:
            parent = _CURRENT.get()
        sid = next(self._ids)
        if op_id is None and parent is not None:
            op_id = parent[1]
        token = _CURRENT.set((sid, op_id))
        return (sid, name, parent[0] if parent else None, op_id, token, perf_counter())

    def close(self, handle, attrs=None):
        end = perf_counter()
        sid, name, parent, op_id, token, start = handle
        _CURRENT.reset(token)
        self.spans.append((sid, name, parent, op_id, start, end, attrs))

    def write(self, path):
        """Write the spans as CSV, times in seconds from the first span's start."""
        t0 = min((s[4] for s in self.spans), default=0.0)
        with open(path, "w", newline="") as fh:
            out = csv.writer(fh)
            out.writerow(("span_id", "name", "parent_id", "op_id", "start_s", "end_s", "attrs"))
            for sid, name, parent, op_id, start, end, attrs in sorted(self.spans, key=lambda s: s[4]):
                out.writerow((sid, name, parent if parent is not None else "", op_id or "",
                              f"{start - t0:.9f}", f"{end - t0:.9f}",
                              json.dumps(attrs) if attrs else ""))

    @contextlib.contextmanager
    def span(self, name, op_id=None):
        """A span opened by the benchmark itself, around a block."""
        handle = self.open(name, op_id)
        try:
            yield
        finally:
            self.close(handle)


def _wrap(recorder, name, fn, attrs_of=None):
    """Wrap ``fn`` so that each call inside an open span records a span.

    ``attrs_of(args, result)`` may return extra attributes for the span.
    """

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        parent = _CURRENT.get()
        if parent is None:
            return fn(*args, **kwargs)
        handle = recorder.open(name, parent=parent)
        result = None
        try:
            result = fn(*args, **kwargs)
            return result
        finally:
            recorder.close(handle, attrs_of(args, result) if attrs_of else None)

    return wrapper


class ContextThreadPool(concurrent.futures.ThreadPoolExecutor):
    """ThreadPoolExecutor that runs each task in a copy of the submitter's context."""

    def submit(self, fn, /, *args, **kwargs):
        return super().submit(contextvars.copy_context().run, fn, *args, **kwargs)


class Patch:
    """Swap attributes for the duration of a ``with`` block, then restore them."""

    def __init__(self):
        self._saved = []

    def set(self, owner, attr, value):
        self._saved.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        for owner, attr, original in reversed(self._saved):
            setattr(owner, attr, original)
        return False

    def restored(self):
        """True when every swapped attribute holds its original again."""
        return all(owner.__dict__[attr] is original for owner, attr, original in self._saved)


def _solve_attrs(args, result):
    if result is None:  # the solve raised
        return {"iterations": 0, "converged": False}
    return {"iterations": result.iterations, "converged": bool(result.converged)}


def _file_bytes(args, result):
    """Size of the files named by the first two arguments (path, csv path)."""
    paths = [a for a in args[:2] if isinstance(a, (str, os.PathLike)) and os.path.isfile(a)]
    return {"bytes": sum(os.path.getsize(p) for p in paths)}


READERS = ("read_vector_file", "read_probes", "read_channels", "read_measurements",
           "read_trials_csv", "read_manifest")
WRITERS = ("write_vector_file", "write_probes", "write_channels", "write_measurements",
           "write_recovery", "write_record_json", "write_trials_csv", "write_manifest")


def instrument(patch, recorder):
    """Wrap every traced name of sparsep inside ``patch``."""
    from sparsep import cli, experiments, fileio, operators, snorm, solvers

    op_cls = operators.MeasurementOperator
    for attr in ("apply", "adjoint", "gram_apply"):
        fn = op_cls.__dict__[attr]
        patch.set(op_cls, attr, _method_wrapper(recorder, f"operators.{attr}", fn))
    targets = [
        (snorm, "build_dense_folded", "operators.build_dense.folded", None),
        (experiments, "generate_probes", "probes.generate_probes", None),
        (cli, "generate_probes", "probes.generate_probes", None),
        (experiments, "solve_bpdn", "solvers.solve_bpdn", _solve_attrs),
        (cli, "solve_bpdn", "solvers.solve_bpdn", _solve_attrs),
        (solvers, "operator_norm_sq", "solvers.operator_norm_sq", None),
        (experiments, "rip_delta", "snorm.rip_delta", None),
        (cli, "run_experiment", "experiments.run_experiment", None),
    ]
    targets += [(fileio, name, "fileio." + name, _file_bytes) for name in READERS + WRITERS]
    for owner, attr, name, attrs_of in targets:
        patch.set(owner, attr, _wrap(recorder, name, owner.__dict__[attr], attrs_of))

    # one span per Monte Carlo trial, carrying the trial id
    for attr in ("_recovery_trial", "_rip_trial"):
        fn = experiments.__dict__[attr]
        patch.set(experiments, attr, _trial_wrapper(recorder, fn))
    patch.set(experiments, "ThreadPoolExecutor", ContextThreadPool)


def _method_wrapper(recorder, name, fn):
    """Operator method wrapper; the span name ends in the operator's variant."""
    names = {}

    @functools.wraps(fn)
    def wrapper(self, *args, **kwargs):
        parent = _CURRENT.get()
        if parent is None:
            return fn(self, *args, **kwargs)
        variant = self.variant
        if variant not in names:
            names[variant] = f"{name}.{variant.value}"
        handle = recorder.open(names[variant], parent=parent)
        try:
            return fn(self, *args, **kwargs)
        finally:
            recorder.close(handle)

    return wrapper


def _trial_wrapper(recorder, fn):
    @functools.wraps(fn)
    def wrapper(cfg, gi, gp, trial, *args, **kwargs):
        parent = _CURRENT.get()
        if parent is None:
            return fn(cfg, gi, gp, trial, *args, **kwargs)
        handle = recorder.open("experiments.trial", f"{parent[1]}/g{gi}/t{trial}", parent)
        try:
            return fn(cfg, gi, gp, trial, *args, **kwargs)
        finally:
            recorder.close(handle)

    return wrapper


# ---------------------------------------------------------------------------
# folding spans into per-layer metrics


def _covered(intervals, lo, hi):
    """Length of the union of ``intervals`` clipped to [lo, hi]."""
    total = 0.0
    cur_lo = cur_hi = None
    for a, b in sorted(intervals):
        a, b = max(a, lo), min(b, hi)
        if b <= a:
            continue
        if cur_hi is None or a > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = a, b
        else:
            cur_hi = max(cur_hi, b)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def self_times(spans):
    """Map span id -> (self time, summed child durations - covered child time).

    Self time is the span's duration minus the union of its children's
    intervals.  The second value is the time children ran concurrently.
    """
    children = {}
    for sid, _name, parent, _op, start, end, _attrs in spans:
        if parent is not None:
            children.setdefault(parent, []).append((start, end))
    out = {}
    for sid, _name, _parent, _op, start, end, _attrs in spans:
        kids = children.get(sid, ())
        cover = _covered(kids, start, end)
        overlap = sum(min(b, end) - max(a, start) for a, b in kids) - cover
        out[sid] = (end - start - cover, overlap)
    return out


def _median(values):
    return statistics.median(values) if values else 0.0


def layer_metrics(spans, wall_s):
    """Per-layer metrics of one traced pass whose wall time is ``wall_s``.

    Layer of a span = the part of its name before the first dot.  Spans
    named ``bench.*`` are the benchmark's own roots.
    """
    by_id = {s[0]: s for s in spans}
    selfs = self_times(spans)

    def ancestors(span):
        parent = span[2]
        while parent is not None:
            p = by_id[parent]
            yield p
            parent = p[2]

    layer_self = {}
    overlap_total = 0.0
    for span in spans:
        own, overlap = selfs[span[0]]
        overlap_total += overlap
        layer = span[1].split(".", 1)[0]
        if layer == "operators":  # operator span names end in the variant
            layer = "operators." + span[1].rsplit(".", 1)[1]
        layer_self[layer] = layer_self.get(layer, 0.0) + own

    m = {}
    for op in ("apply", "adjoint"):
        for variant in ("folded", "linear"):
            durs = [s[5] - s[4] for s in spans if s[1] == f"operators.{op}.{variant}"]
            m[f"operators.{op}.calls.{variant}"] = (len(durs), "count")
            m[f"operators.{op}.us_per_call.{variant}"] = (
                1e6 * sum(durs) / len(durs) if durs else 0.0, "us")
    for variant in ("folded", "linear"):
        m[f"operators.self_s.{variant}"] = (layer_self.get(f"operators.{variant}", 0.0), "s")
    dense = [s[5] - s[4] for s in spans if s[1] == "operators.build_dense.folded"]
    m["operators.build_dense.ms"] = (1e3 * sum(dense) / len(dense) if dense else 0.0, "ms")

    solves = [s for s in spans if s[1] == "solvers.solve_bpdn"]
    solve_ids = {s[0] for s in solves}
    op_calls = apply_calls = power_apply = 0
    for s in spans:
        if not s[1].startswith("operators."):
            continue
        chain = list(ancestors(s))
        if not any(a[0] in solve_ids for a in chain):
            continue
        op_calls += 1
        if s[1].startswith("operators.apply."):
            apply_calls += 1
            if any(a[1] == "solvers.operator_norm_sq" for a in chain):
                power_apply += 1
    n_solves = len(solves)
    m["solvers.solve_bpdn.calls"] = (n_solves, "count")
    m["solvers.solve_bpdn.ms_p50"] = (1e3 * _median([s[5] - s[4] for s in solves]), "ms")
    m["solvers.iterations_per_solve"] = (
        sum(s[6]["iterations"] for s in solves) / n_solves if n_solves else 0.0, "count")
    m["solvers.op_calls_per_solve"] = (op_calls / n_solves if n_solves else 0.0, "count")
    m["solvers.power_iter.op_call_share"] = (
        power_apply / apply_calls if apply_calls else 0.0, "share")
    m["solvers.converged_frac"] = (
        sum(1 for s in solves if s[6]["converged"]) / n_solves if n_solves else 0.0, "share")
    m["solvers.self_s"] = (layer_self.get("solvers", 0.0), "s")

    rips = [s[5] - s[4] for s in spans if s[1] == "snorm.rip_delta"]
    m["snorm.rip_delta.calls"] = (len(rips), "count")
    m["snorm.rip_delta.ms_p50"] = (1e3 * _median(rips), "ms")
    m["snorm.self_s"] = (layer_self.get("snorm", 0.0), "s")

    gens = [s[5] - s[4] for s in spans if s[1] == "probes.generate_probes"]
    m["probes.generate_probes.calls"] = (len(gens), "count")
    m["probes.generate_probes.us_per_call"] = (
        1e6 * sum(gens) / len(gens) if gens else 0.0, "us")
    m["probes.self_s"] = (layer_self.get("probes", 0.0), "s")

    m["experiments.self_s"] = (layer_self.get("experiments", 0.0), "s")
    m["experiments.trials"] = (sum(1 for s in spans if s[1] == "experiments.trial"), "count")

    # file traffic is counted at the outermost fileio call only
    outer_io = [s for s in spans if s[1].startswith("fileio.")
                and not any(a[1].startswith("fileio.") for a in ancestors(s))]
    for kind, names in (("read", READERS), ("write", WRITERS)):
        mine = [s for s in outer_io if s[1].split(".", 1)[1] in names]
        m[f"fileio.{kind}.calls"] = (len(mine), "count")
        m[f"fileio.{kind}.ms"] = (1e3 * sum(s[5] - s[4] for s in mine), "ms")
        m[f"fileio.bytes_{'read' if kind == 'read' else 'written'}"] = (
            sum(s[6]["bytes"] for s in mine), "B")
    m["cli.self_s"] = (layer_self.get("cli", 0.0), "s")

    attributed = sum(v for k, v in layer_self.items() if k != "bench")
    m["trace.wall_s"] = (wall_s, "s")
    # equals wall_s when every span lies inside its parent
    m["trace.self_sum_s"] = (sum(layer_self.values()) - overlap_total, "s")
    m["trace.overlap_s"] = (overlap_total, "s")
    m["trace.bench_self_s"] = (layer_self.get("bench", 0.0), "s")
    m["trace.attributed_share"] = (
        (attributed - overlap_total) / wall_s if wall_s > 0 else 0.0, "share")
    return m
