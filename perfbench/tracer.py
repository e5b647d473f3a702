"""Span tracing of fedspectra's public functions, installed from outside.

Each listed function is wrapped once. The wrapper is written into every
``fedspectra`` module namespace that holds the original function object
(matched by identity), because modules import each other's functions by name:
``federation`` calls its own binding of ``grads_deep_linear`` and ``cli`` its
own binding of ``run_fedavg``. Patching only the defining module would miss
those calls.

Spans are kept in memory as (name, start, end, parent, run_id) and written
out when the run ends. A listed function that the package no longer defines
is reported as absent instead of failing the run.
"""

import csv
import functools
import sys
import time

# The layers are the six modules of src/fedspectra; each entry names the
# public functions whose calls are timed.
TRACED = {
    "rng": ("stream",),
    "data": (
        "synth_linear_dataset",
        "load_idx",
        "preprocess_unit_norm",
        "partition_iid",
        "partition_noniid",
    ),
    "models": ("grads_deep_linear", "grad_two_layer", "predict", "loss_of"),
    "federation": (
        "run_fedavg",
        "local_trajectory",
        "aggregate",
        "global_loss",
        "sample_participants",
    ),
    "analysis": (
        "gram_P0",
        "gram_P_tkc",
        "gram_H_infinity",
        "spectrum",
        "rank_restricted_lambda_min",
        "effective_rank",
        "sigma_min_nonzero",
        "check_gram_floor",
        "check_ntk_trace",
        "check_init_spectra",
        "check_local_descent",
        "check_local_deviation",
        "check_drift",
        "check_local_drift",
        "predict_first_order",
        "first_order_scaling",
    ),
    "cli": ("parse_config", "build_experiment", "cmd_train", "cmd_verify"),
}

TRACED_NAMES = tuple(f"{mod}.{fn}" for mod, fns in TRACED.items() for fn in fns)


class Tracer:
    """Records one span per call of each wrapped function.

    Calls are assumed to come from one thread (the benchmark configs leave
    ``federation.workers`` at its default of 1), so a single stack gives each
    span its parent.
    """

    def __init__(self, run_id=0):
        self.run_id = run_id
        self.spans = []  # [name, start, end, parent index or -1]
        self._stack = []
        self.absent = []
        self._patched = []  # (namespace dict, attribute, original)

    def _wrap(self, name, fn):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(spans)
            spans.append([name, 0.0, 0.0, stack[-1] if stack else -1])
            stack.append(index)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                span = spans[index]
                span[1] = start
                span[2] = end

        return traced

    def install(self, package="fedspectra", traced=TRACED):
        """Wrap every listed function in every module of ``package`` that
        binds it. Originals are collected before any namespace is patched,
        so the identity match cannot see a wrapper."""
        originals = {}
        for mod, fns in traced.items():
            module = sys.modules.get(f"{package}.{mod}")
            for fn in fns:
                obj = getattr(module, fn, None) if module is not None else None
                if callable(obj):
                    originals[id(obj)] = (obj, self._wrap(f"{mod}.{fn}", obj))
                else:
                    self.absent.append(f"{mod}.{fn}")
        namespaces = [
            vars(m)
            for name, m in sorted(sys.modules.items())
            if m is not None and (name == package or name.startswith(package + "."))
        ]
        for ns in namespaces:
            for attr, value in list(ns.items()):
                hit = originals.get(id(value))
                if hit is not None and hit[0] is value:
                    ns[attr] = hit[1]
                    self._patched.append((ns, attr, value))

    def uninstall(self):
        for ns, attr, original in reversed(self._patched):
            ns[attr] = original
        self._patched.clear()

    def write_csv(self, path):
        with open(path, "w", newline="") as f:
            out = csv.writer(f)
            out.writerow(["run_id", "index", "name", "start_s", "end_s", "parent"])
            for i, (name, start, end, parent) in enumerate(self.spans):
                out.writerow([self.run_id, i, name, repr(start), repr(end), parent])


def _union_length(intervals):
    total = 0.0
    cur_start = cur_end = None
    for start, end in sorted(intervals):
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        elif end > cur_end:
            cur_end = end
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def summarize(spans):
    """Per-name calls, self time and total time from (name, start, end, parent) spans.

    Self time is a span's duration minus the part of it that its child spans
    cover. Total time counts only the outermost span of a name, so a function
    that reaches itself through another traced function is not counted twice.
    Also returns the length of the time covered by top-level spans, which
    equals the sum of all self times.
    """
    children = [[] for _ in spans]
    for i, (_, _, _, parent) in enumerate(spans):
        if parent >= 0:
            children[parent].append(i)
    stats = {}
    top = []
    for i, (name, start, end, parent) in enumerate(spans):
        entry = stats.setdefault(name, {"calls": 0, "self_s": 0.0, "total_s": 0.0})
        entry["calls"] += 1
        covered = _union_length([(spans[c][1], spans[c][2]) for c in children[i]])
        entry["self_s"] += (end - start) - covered
        ancestor = parent
        while ancestor >= 0 and spans[ancestor][0] != name:
            ancestor = spans[ancestor][3]
        if ancestor < 0:
            entry["total_s"] += end - start
        if parent < 0:
            top.append((start, end))
    return stats, _union_length(top)
