"""Span recorder for the traced benchmark run.

The recorder wraps the public callables of each collapselab layer where their
consumers bind them (``collapselab.estimates.op_norm`` as well as
``collapselab.core.op_norm``), plus ``numpy.linalg`` eigvalsh/eigh/svd and
the ``linprog`` that qmetric binds.  Nothing under ``src/`` changes.

Spans (name, start, end, parent, job, thread) are kept in memory and written
out at the end.  A span opened on a thread with no open span (an audit pool
worker) takes as parent the innermost open span of the thread that runs the
job, which is waiting on the pool.  Self time is a span's length minus the
union of its children's intervals, so concurrent children are not counted
twice.
"""
from __future__ import annotations

import collections
import gzip
import json
import math
import sys
import threading
import time

import numpy as np

import collapselab.builders as builders
import collapselab.core as core

#: (module, attribute, span name) of every wrapped public callable
TRACED_FUNCTIONS = (
    ("collapselab.core", "op_norm", "core.op_norm"),
    ("collapselab.core", "commutator", "core.commutator"),
    ("collapselab.core", "hermitian_spectrum", "core.hermitian_spectrum"),
    ("collapselab.core", "hermitian_coefficient_basis", "core.hermitian_coefficient_basis"),
    ("collapselab.builders", "build_torus_triple", "builders.build"),
    ("collapselab.builders", "build_circle_bundle_blocks", "builders.build"),
    ("collapselab.builders", "build_product_triple", "builders.build"),
    ("collapselab.builders", "build_crossed_product_model", "builders.build"),
    ("collapselab.builders", "build_point_collapse", "builders.build"),
    ("collapselab.builders", "build_graph_model", "builders.build"),
    ("collapselab.builders", "build_two_point_model", "builders.build"),
    ("collapselab.builders", "build_path_graph_model", "builders.build"),
    ("collapselab.builders", "build_cycle_graph_model", "builders.build"),
    ("collapselab.builders", "build_cycle_adjacency_model", "builders.build"),
    ("collapselab.collapse", "sweep", "collapse.sweep"),
    ("collapselab.collapse", "compress_base", "collapse.compress_base"),
    ("collapselab.collapse", "unitary_restriction_check", "collapse.restriction"),
    ("collapselab.estimates", "hypothesis_audit", "estimates.audit"),
    ("collapselab.estimates", "sample_self_adjoint", "estimates.sample"),
    ("collapselab.estimates", "comparison_check", "estimates.comparison_check"),
    ("collapselab.qmetric", "connes_distance", "qmetric.distance"),
    ("collapselab.qmetric", "distance_bruteforce_oracle", "qmetric.oracle"),
    ("collapselab.qmetric", "quantum_diameter", "qmetric.diameter"),
    ("collapselab.qmetric", "linprog", "qmetric.linprog"),
    ("collapselab.cli_io", "main", "cli_io.main"),
    ("collapselab.cli_io", "load_model", "cli_io.load_model"),
)
#: (class, method, span name) of wrapped methods
TRACED_METHODS = (
    (core.SpectralTripleModel, "__post_init__", "core.validate"),
    (builders.DecomposedTripleModel, "self_check", "builders.self_check"),
    (builders.CircleBundleBlockModel, "as_decomposition", "builders.build"),
)
LINALG = ("eigvalsh", "eigh", "svd")
LAYERS = ("core", "builders", "collapse", "estimates", "qmetric", "cli_io")

NAME, START, END, PARENT, JOB, THREAD, INFO = range(7)


def _operand_shape(op):
    for attr in ("blocks", "matrix"):
        inner = getattr(op, attr, None)
        if inner is not None:
            return _operand_shape(inner) if attr == "matrix" else inner.shape
    return getattr(op, "shape", None)


def _info(name, args, result):
    """Per-span detail used by the layer metrics."""
    if name == "core.op_norm":
        shape = _operand_shape(args[0])
        return {"shape": shape, "block": shape is not None and len(shape) == 3}
    if name in ("core.commutator", "core.hermitian_spectrum"):
        return {"shape": _operand_shape(args[0])}
    if name == "collapse.sweep":
        return {"n_eps": len(result.eps_grid)}
    if name == "estimates.audit":
        return {"samples": result.samples}
    if name == "qmetric.distance":
        return {"method": result.method, "converged": bool(result.converged)}
    if name == "qmetric.oracle":
        return {"evaluations": result.evaluations}
    return None


def _flops(fn: str, shape: tuple, is_complex: bool, compute_uv: bool) -> float:
    """Textbook LAPACK operation counts (Golub and Van Loan), computed from
    the operand shape, times 4 for complex arithmetic."""
    *stack, m, n = shape
    count = math.prod(stack) if stack else 1
    if fn == "eigvalsh":
        per = 4.0 / 3.0 * n ** 3
    elif fn == "eigh":
        per = 9.0 * n ** 3
    else:
        big, small = max(m, n), min(m, n)
        per = (4.0 * big ** 2 * small + 8.0 * big * small ** 2 + 9.0 * small ** 3
               if compute_uv else 4.0 * big * small ** 2 - 4.0 / 3.0 * small ** 3)
    return count * per * (4.0 if is_complex else 1.0)


class Tracer:
    def __init__(self):
        self.active = False
        self.job = None
        self.spans = []
        self.kernels = []          # (fn, shape, complex, compute_uv, seconds, parent)
        self._lock = threading.Lock()
        self._local = threading.local()
        self._main_thread = threading.get_ident()
        self._main_stack = []
        self._patches = []

    # ---------------------------------------------------------- recording

    def _stack(self) -> list:
        if threading.get_ident() == self._main_thread:
            return self._main_stack
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _parent(self, stack):
        if stack:
            return stack[-1]
        try:
            return self._main_stack[-1]
        except IndexError:
            return None

    def _wrap(self, name, fn):
        tracer = self

        def traced(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            stack = tracer._stack()
            span = [name, 0.0, None, tracer._parent(stack), tracer.job,
                    threading.get_ident(), None]
            with tracer._lock:
                sid = len(tracer.spans)
                tracer.spans.append(span)
            stack.append(sid)
            span[START] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[END] = time.perf_counter()
                stack.pop()
            span[INFO] = _info(name, args, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def _wrap_kernel(self, fn_name, fn):
        tracer = self

        def traced(a, *args, **kwargs):
            if not tracer.active:
                return fn(a, *args, **kwargs)
            start = time.perf_counter()
            result = fn(a, *args, **kwargs)
            seconds = time.perf_counter() - start
            arr = np.asarray(a)
            compute_uv = kwargs.get("compute_uv", args[1] if len(args) > 1 else True)
            row = (fn_name, tuple(arr.shape), bool(np.iscomplexobj(arr)),
                   bool(compute_uv), seconds, tracer._parent(tracer._stack()))
            with tracer._lock:
                tracer.kernels.append(row)
            return result

        traced.__wrapped__ = fn
        return traced

    # ------------------------------------------------------------ patching

    def _set(self, owner, attr, value):
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def install(self):
        modules = [m for n, m in sorted(sys.modules.items())
                   if n == "collapselab" or n.startswith("collapselab.")]
        for mod_name, attr, name in TRACED_FUNCTIONS:
            original = getattr(sys.modules[mod_name], attr)
            wrapped = self._wrap(name, original)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._set(mod, key, wrapped)
        for cls, attr, name in TRACED_METHODS:
            self._set(cls, attr, self._wrap(name, cls.__dict__[attr]))
        linalg_mods = [np.linalg] + [sys.modules[n] for n in
                                     ("numpy.linalg._linalg", "numpy.linalg.linalg")
                                     if n in sys.modules]
        for fn_name in LINALG:
            original = getattr(np.linalg, fn_name)
            wrapped = self._wrap_kernel(fn_name, original)
            for mod in linalg_mods:
                if getattr(mod, fn_name, None) is original:
                    self._set(mod, fn_name, wrapped)

    def uninstall(self):
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # ------------------------------------------------------------- output

    def dump(self, path):
        doc = {
            "fields": ["name", "start", "end", "parent", "job", "thread", "info"],
            "spans": self.spans,
            "kernel_fields": ["fn", "shape", "complex", "compute_uv", "seconds", "parent"],
            "kernels": self.kernels,
        }
        with gzip.open(path, "wt") as handle:
            json.dump(doc, handle, default=str)


# ---------------------------------------------------------------- metrics

def _union_length(intervals) -> float:
    total, cur_start, cur_end = 0.0, None, None
    for start, end in sorted(intervals):
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        else:
            cur_end = max(cur_end, end)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def _audit_split(audit, children, spans):
    """Per-sample intervals of one audit: on each thread, a sample runs from
    its sample_self_adjoint span to the end of the last traced call before
    the next sample on that thread.  Returns (sample seconds, fixed seconds)."""
    by_thread = collections.defaultdict(list)
    for c in children:
        by_thread[spans[c][THREAD]].append(spans[c])
    intervals = []
    for rows in by_thread.values():
        rows.sort(key=lambda s: s[START])
        current = None
        for s in rows:
            if s[NAME] == "estimates.sample":
                if current is not None:
                    intervals.append(current)
                current = [s[START], s[END]]
            elif current is not None:
                current[1] = max(current[1], s[END])
        if current is not None:
            intervals.append(current)
    sample_time = sum(e - s for s, e in intervals)
    fixed = (audit[END] - audit[START]) - _union_length(intervals)
    return sample_time, fixed


def layer_metrics(tracer: Tracer) -> dict:
    """Per-layer numbers from the recorded spans.  ``*.ms`` is the mean
    inclusive wall time per call; ``<layer>.self_ms`` the layer's total self
    time over the traced set-up and jobs."""
    spans = tracer.spans
    children = collections.defaultdict(list)
    for i, s in enumerate(spans):
        if s[PARENT] is not None:
            children[s[PARENT]].append(i)
    by_name = collections.defaultdict(list)
    for i, s in enumerate(spans):
        by_name[s[NAME]].append(i)

    def dur(i):
        return spans[i][END] - spans[i][START]

    def info(i, key):
        return (spans[i][INFO] or {}).get(key, 0)

    self_ms = dict.fromkeys(LAYERS, 0.0)
    for i, s in enumerate(spans):
        covered = _union_length([(max(spans[c][START], s[START]), min(spans[c][END], s[END]))
                                 for c in children[i]])
        self_ms[s[NAME].split(".")[0]] += (dur(i) - covered) * 1e3

    def mean_ms(ids):
        return 1e3 * sum(dur(i) for i in ids) / len(ids) if ids else 0.0

    m = {f"{layer}.self_ms": (v, "ms") for layer, v in self_ms.items()}

    def timed(metric, span_name, ids=None):
        ids = by_name[span_name] if ids is None else ids
        m[f"{metric}.ms"] = (mean_ms(ids), "ms")
        m[f"{metric}.calls"] = (len(ids), "count")

    timed("cli_io.load_model", "cli_io.load_model")
    timed("cli_io.main", "cli_io.main")
    top_builds = [i for i in by_name["builders.build"]
                  if spans[i][PARENT] is None or spans[spans[i][PARENT]][NAME] != "builders.build"]
    timed("builders.build", "builders.build", top_builds)
    timed("builders.self_check", "builders.self_check")
    timed("core.validate", "core.validate")
    timed("core.hermitian_coefficient_basis", "core.hermitian_coefficient_basis")
    timed("core.op_norm", "core.op_norm")
    timed("core.commutator", "core.commutator")
    timed("core.hermitian_spectrum", "core.hermitian_spectrum")

    op_ids = set(by_name["core.op_norm"])
    svd_parents = {k[5] for k in tracer.kernels if k[0] == "svd" and k[5] in op_ids}
    n_op = max(1, len(op_ids))
    m["core.op_norm.svd_fallback_share"] = (len(svd_parents) / n_op, "ratio")
    m["core.op_norm.block_share"] = (
        sum(1 for i in op_ids if info(i, "block")) / n_op, "ratio")

    def matrices(k):
        return math.prod(k[1][:-2]) if len(k[1]) > 2 else 1

    eig = [k for k in tracer.kernels if k[0] in ("eigvalsh", "eigh")]
    svd = [k for k in tracer.kernels if k[0] == "svd"]
    m["core.eigensolves"] = (sum(matrices(k) for k in eig), "count")
    m["core.svds"] = (sum(matrices(k) for k in svd), "count")
    m["core.eig_flops_computed"] = (sum(_flops(*k[:4]) for k in eig), "flop")
    m["core.svd_flops_computed"] = (sum(_flops(*k[:4]) for k in svd), "flop")
    m["core.lapack_ms"] = (1e3 * sum(k[4] for k in tracer.kernels), "ms")

    sweeps = by_name["collapse.sweep"]
    timed("collapse.sweep", "collapse.sweep")
    # the per-eps solve: eigensolves the sweep makes itself, per eps value
    sweep_set = set(sweeps)
    solve_s = sum(k[4] for k in eig if k[5] in sweep_set)
    n_eps = sum(info(i, "n_eps") for i in sweeps)
    m["collapse.sweep.per_eps_ms"] = (1e3 * solve_s / n_eps if n_eps else 0.0, "ms")
    timed("collapse.compress_base", "collapse.compress_base")
    timed("collapse.restriction", "collapse.restriction")

    audits = by_name["estimates.audit"]
    timed("estimates.audit", "estimates.audit")
    sample_s = fixed_s = 0.0
    n_samples = 0
    for i in audits:
        s_time, f_time = _audit_split(spans[i], children[i], spans)
        sample_s += s_time
        fixed_s += f_time
        n_samples += info(i, "samples")
    m["estimates.audit.samples"] = (n_samples, "count")
    m["estimates.audit.per_sample_ms"] = (1e3 * sample_s / n_samples if n_samples else 0.0, "ms")
    m["estimates.audit.fixed_ms"] = (1e3 * fixed_s / len(audits) if audits else 0.0, "ms")
    timed("estimates.comparison_check", "estimates.comparison_check")

    dist = by_name["qmetric.distance"]
    exact = [i for i in dist if info(i, "method") == "exact-shortest-path"]
    ascent = [i for i in dist if info(i, "method") == "ascent-lower-bound"]
    m["qmetric.distance.exact_ms"] = (mean_ms(exact), "ms")
    m["qmetric.distance.exact_calls"] = (len(exact), "count")
    m["qmetric.distance.ascent_ms"] = (mean_ms(ascent), "ms")
    m["qmetric.distance.ascent_calls"] = (len(ascent), "count")
    ascent_set = set(ascent)
    iterations = sum(1 for k in tracer.kernels if k[0] == "eigh" and k[5] in ascent_set)
    m["qmetric.ascent.iterations"] = (iterations, "count")
    m["qmetric.ascent.per_iter_ms"] = (
        1e3 * sum(dur(i) for i in ascent) / iterations if iterations else 0.0, "ms")
    m["qmetric.ascent.converged_share"] = (
        sum(1 for i in ascent if info(i, "converged")) / len(ascent)
        if ascent else 0.0, "ratio")
    timed("qmetric.oracle", "qmetric.oracle")
    m["qmetric.oracle.evaluations"] = (
        sum(info(i, "evaluations") for i in by_name["qmetric.oracle"]), "count")
    timed("qmetric.linprog", "qmetric.linprog")
    timed("qmetric.diameter", "qmetric.diameter")
    m["trace.spans"] = (len(spans), "count")
    return m
