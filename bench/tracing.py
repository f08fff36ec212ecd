"""Spans around toepasym's layer functions, recorded from outside the library.

``Tracer.install`` replaces each function in ``LAYERS`` by a recording
wrapper in the module that defines it and in every ``toepasym`` module
that imported the name, and wraps two methods at class level.  A span is
(id, parent, name, start, end, ok, counts); spans stay in a list until
the run ends.  Counts are computed from the call's arguments or result,
never read from the program.

Self time splits wall time among the spans that are innermost at each
instant: a span's children (also those running on pool threads, whose
parent is the main thread's innermost span when they start) take the
time they cover, and concurrent innermost spans share an instant
equally.  The self times of all spans therefore add up to the duration
of the root span.
"""
from __future__ import annotations

import inspect
import itertools
import os
import sys
import threading
from time import perf_counter

# Golub-Van Loan operation counts for a dense complex matrix of order d,
# in real flops: LU 8/3 d^3; eigenvalues only (Hessenberg + QR) 40 d^3.
LU_FLOPS = 8.0 / 3.0
EIG_FLOPS = 40.0


def _bound(fn, args, kwargs):
    ba = inspect.signature(fn).bind(*args, **kwargs)
    ba.apply_defaults()
    return ba.arguments


def _pairs(fn, args, kwargs, out):
    return {"block_pairs": len(args[0].coeffs) * len(args[1].coeffs)}


def _points(fn, args, kwargs, out):
    return {"points": out.grid_size}


def _section_flops(per_d3):
    def count(fn, args, kwargs, out):
        arg = _bound(fn, args, kwargs)
        d = (arg["n"] + 1) * arg["a"].block_size
        return {"flops": per_d3 * d ** 3}
    return count


def _hankel_size(fn, args, kwargs, out):
    return {"m": _bound(fn, args, kwargs)["m"]}


def _nodes(fn, args, kwargs, out):
    return {"nodes": len(_bound(fn, args, kwargs)["contour"].nodes)}


def _shifts(fn, args, kwargs, out):
    return {"shifts": _bound(fn, args, kwargs)["sweep"]}


_OUTPUT_FLAGS = ("-o", "--output", "--fit-out")


def _cli_out(fn, args, kwargs, out):
    argv = list(args[0])
    written = 0
    for flag, value in zip(argv, argv[1:]):
        if flag in _OUTPUT_FLAGS and os.path.isfile(value):
            written += os.path.getsize(value)
    return {"bytes_out": written, "exit_nonzero": int(out != 0)}


#: module -> {function: count hook or None}; the span name is module.function
LAYERS = {
    "symbol": {"multiply": _pairs, "winding_number": None,
               "certified_inverse": None, "coefficients_from_samples": None},
    "toeplitz": {"correction_term": None,
                 "log_det_direct": _section_flops(LU_FLOPS),
                 "trace_f_direct": _section_flops(EIG_FLOPS),
                 "toeplitz_section": None, "hankel_section": _hankel_size},
    "factor": {"block_wiener_hopf": None, "factorization_sweep": _nodes,
               "scalar_wiener_hopf": None, "correction_symbols": None},
    "asymptotics": {"log_geometric_mean": None, "strong_szego_series": None,
                    "szego_constant": None, "logdet_expansion_scan": None},
    "traces": {"trace_constant": _nodes, "trace_mean": None,
               "build_contour": None, "estimate_spectrum": None},
    "approx": {"modulus_of_smoothness": _shifts, "zygmund_seminorm": None,
               "near_best_approximation": None, "best_error_on_grid": None},
    "fitting": {"fit_decay": None},
    "cli": {"main": _cli_out},
}

#: (module, class, method, span name, count hook)
METHODS = [
    ("symbol", "LaurentMatrixSeries", "sample", "symbol.sample", _points),
    ("functions", "AnalyticFunction", "__call__", "functions.eval", None),
]

#: span name -> (child span name counted, child calls per pass).  A pass is
#: one iteration of the function's adaptive loop, counted from outside.
PASSES = {
    "symbol.certified_inverse": ("symbol.sample", 1),
    "asymptotics.log_geometric_mean": ("symbol.sample", 1),
    "asymptotics.strong_szego_series": ("symbol.sample", 1),
    "asymptotics.szego_constant": ("toeplitz.hankel_section", 2),
    "traces.trace_constant": ("toeplitz.hankel_section", 1),
    "factor.block_wiener_hopf": ("toeplitz.toeplitz_section", 2),
}

#: loops whose passes each evaluate a Hankel corner: the useful share is
#: distinct corner sizes over passes (a repeated corner is wasted work)
USEFUL = ("asymptotics.szego_constant", "traces.trace_constant")

#: dense LU / eig ground truth; everything else below the root is prediction
ORACLES = ("toeplitz.log_det_direct", "toeplitz.trace_f_direct")

ROOT = "bench.pass"


class Tracer:
    """Records spans of the wrapped toepasym functions while installed."""

    def __init__(self):
        self.spans = []
        self._ids = itertools.count(1)
        self._main = threading.get_ident()
        self._main_stack = []
        self._local = threading.local()
        self._patches = []

    def _stack(self):
        if threading.get_ident() == self._main:
            return self._main_stack
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _wrap(self, name, fn, hook):
        tracer = self

        def traced(*args, **kwargs):
            stack = tracer._stack()
            if stack:
                parent = stack[-1]
            else:  # pool thread: caused by the main thread's current span
                parent = tracer._main_stack[-1] if tracer._main_stack else 0
            sid = next(tracer._ids)
            stack.append(sid)
            ok, counts = False, None
            start = perf_counter()
            try:
                out = fn(*args, **kwargs)
                ok = True
            finally:
                end = perf_counter()
                stack.pop()
                if ok and hook is not None:
                    counts = hook(fn, args, kwargs, out)
                tracer.spans.append((sid, parent, name, start, end, ok, counts))
            return out

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        traced.__doc__ = getattr(fn, "__doc__", None)
        return traced

    def install(self):
        """Wrap every listed function where it is defined and imported."""
        modules = [m for key, m in list(sys.modules.items())
                   if m is not None and (key == "toepasym" or key.startswith("toepasym."))]
        for module_name, funcs in LAYERS.items():
            home = sys.modules[f"toepasym.{module_name}"]
            for func_name, hook in funcs.items():
                original = getattr(home, func_name)
                wrapped = self._wrap(f"{module_name}.{func_name}", original, hook)
                for mod in modules:
                    for attr, value in list(vars(mod).items()):
                        if value is original:
                            self._patches.append((mod, attr, original))
                            setattr(mod, attr, wrapped)
        for module_name, cls_name, meth, span_name, hook in METHODS:
            cls = getattr(sys.modules[f"toepasym.{module_name}"], cls_name)
            original = cls.__dict__[meth]
            self._patches.append((cls, meth, original))
            setattr(cls, meth, self._wrap(span_name, original, hook))

    def uninstall(self):
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def root(self):
        """Context manager for the span that covers one traced pass."""
        return _Root(self)


class _Root:
    def __init__(self, tracer):
        self.tracer = tracer

    def __enter__(self):
        self.sid = next(self.tracer._ids)
        self.tracer._main_stack.append(self.sid)
        self.start = perf_counter()
        return self

    def __exit__(self, *exc):
        end = perf_counter()
        self.tracer._main_stack.pop()
        self.tracer.spans.append((self.sid, 0, ROOT, self.start, end,
                                  exc[0] is None, None))
        self.duration = end - self.start
        return False


def self_times(spans):
    """Self time per span index, splitting each instant among innermost spans."""
    index = {s[0]: i for i, s in enumerate(spans)}
    parent = [index.get(s[1]) for s in spans]
    events = sorted([(s[3], 1, i) for i, s in enumerate(spans)]
                    + [(s[4], 0, i) for i, s in enumerate(spans)])
    active_children = [0] * len(spans)
    active = [False] * len(spans)
    leaves = set()
    own = [0.0] * len(spans)
    last = events[0][0] if events else 0.0
    for t, is_start, i in events:
        if leaves and t > last:
            share = (t - last) / len(leaves)
            for leaf in leaves:
                own[leaf] += share
        last = t
        p = parent[i]
        if is_start:
            active[i] = True
            leaves.add(i)
            if p is not None and active[p]:
                active_children[p] += 1
                leaves.discard(p)
        else:
            active[i] = False
            leaves.discard(i)
            if p is not None and active[p]:
                active_children[p] -= 1
                if active_children[p] == 0:
                    leaves.add(p)
    return own


def misnested(spans):
    """Spans that do not lie within their parent's [start, end], or lack one.

    A pool-thread span that outlives the main-thread span it was charged
    to, or a wrapper that loses its place on the stack, shows up here.
    """
    by_id = {s[0]: s for s in spans}
    bad = 0
    for sid, parent, name, start, end, *_ in spans:
        if name == ROOT:
            continue
        up = by_id.get(parent)
        if up is None or start < up[3] or end > up[4]:
            bad += 1
    return bad


def layer_metrics(spans, untraced_wall):
    """Per-layer metrics of one traced pass (see BENCHMARK.json per_layer)."""
    own = self_times(spans)
    root = next(i for i, s in enumerate(spans) if s[2] == ROOT)
    names = [f"{m}.{f}" for m, funcs in LAYERS.items() for f in funcs]
    names += [m[3] for m in METHODS]
    calls = dict.fromkeys(names, 0)
    self_s = dict.fromkeys(names, 0.0)
    counts = {}
    failed = dict.fromkeys([*LAYERS, "functions"], 0)
    children = {}
    for i, s in enumerate(spans):
        children.setdefault(s[1], []).append(i)
    for i, (sid, _, name, _, _, ok, cnt) in enumerate(spans):
        if i == root:
            continue
        calls[name] += 1
        self_s[name] += own[i]
        for key, value in (cnt or {}).items():
            counts[f"{name}.{key}"] = counts.get(f"{name}.{key}", 0) + value
        if not ok or (cnt or {}).get("exit_nonzero"):
            failed[name.split(".")[0]] += 1
    out = {}
    for name in names:
        out[f"{name}.calls"] = calls[name]
        out[f"{name}.self_s"] = self_s[name]
    for key in ("symbol.multiply.block_pairs", "symbol.sample.points",
                "toeplitz.log_det_direct.flops", "toeplitz.trace_f_direct.flops",
                "factor.factorization_sweep.nodes",
                "approx.modulus_of_smoothness.shifts", "cli.main.bytes_out"):
        out[key] = counts.get(key, 0)
    passes = dict.fromkeys(PASSES, 0)
    distinct = dict.fromkeys(USEFUL, 0)
    node_solves = 0
    for i, s in enumerate(spans):
        if s[2] not in PASSES:
            continue
        child_name, per_pass = PASSES[s[2]]
        kids = [spans[j] for j in children.get(s[0], ()) if spans[j][2] == child_name]
        n_pass = len(kids) // per_pass
        passes[s[2]] += n_pass
        if s[2] in USEFUL:
            distinct[s[2]] += len({k[6]["m"] for k in kids if k[6]})
        if s[2] == "traces.trace_constant" and s[6]:
            node_solves += n_pass * s[6]["nodes"]
    for name, value in passes.items():
        out[f"{name}.passes"] = value
    for name in USEFUL:
        out[f"{name}.useful_ratio"] = distinct[name] / passes[name] if passes[name] else 0.0
    out["traces.trace_constant.node_solves"] = node_solves
    for module, value in failed.items():
        out[f"{module}.failed"] = value
    oracle_s = sum(own[j] for j in _subtrees(spans, children, ORACLES))
    traced_wall = spans[root][4] - spans[root][3]
    out["oracle_s"] = oracle_s
    out["predict_s"] = traced_wall - oracle_s - own[root]
    out["predict_over_oracle"] = out["predict_s"] / oracle_s if oracle_s else 0.0
    out["bench.self_s"] = own[root]
    out["trace_overhead_frac"] = traced_wall / untraced_wall - 1.0
    return out, {"traced_wall_s": traced_wall, "self_time_sum_s": sum(own),
                 "spans": len(spans)}


def _subtrees(spans, children, names):
    todo = [i for i, s in enumerate(spans) if s[2] in names]
    seen = set()
    while todo:
        i = todo.pop()
        if i not in seen:
            seen.add(i)
            todo.extend(children.get(spans[i][0], ()))
    return seen
