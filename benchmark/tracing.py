"""Spans around requland's layer boundaries, installed from outside.

`Tracer.install` replaces each target function in every requland module that
binds it (methods on their class), so calls through `from x import f`
bindings are caught too.  A target that no longer exists is recorded in
`absent` and skipped.  Spans stay in memory as tuples
(id, parent, thread, name, start, end, note) until `write_spans`; the parent
is the innermost open span of the same thread.  `layer_metrics` turns them
into the per-layer metrics listed in BENCHMARK.json.
"""

from __future__ import annotations

import csv
import functools
import inspect
import itertools
import sys
import threading
import time
from collections import defaultdict


def _n_iter(args, kwargs, result):
    return result[1].n_iter


def _snapped(args, kwargs, result):
    return bool(result[2])


def _moved(args, kwargs, result):
    return result[0] is not None


def _trials(fn):
    sig = inspect.signature(fn)

    def note(args, kwargs, result):
        bound = sig.bind(*args, **kwargs)
        bound.apply_defaults()
        return int(bound.arguments["trials"])

    return note


# (span name, module, attribute path, note maker).  A note maker takes the
# original function and returns note(args, kwargs, result), or is None.
TARGETS = (
    ("objective.value", "requland.objective", "FlatObjective.value", None),
    ("objective.value_and_grad", "requland.objective", "FlatObjective.value_and_grad", None),
    ("objective.empirical_loss", "requland.objective", "empirical_loss", None),
    ("objective.value_and_gradient", "requland.objective", "value_and_gradient", None),
    ("optimize.train", "requland.optimize", "train", lambda fn: _n_iter),
    ("optimize.snap", "requland.optimize", "_try_snaps", lambda fn: _snapped),
    ("optimize.escape", "requland.optimize", "_attempt_escape", lambda fn: _moved),
    ("optimize.stall", "requland.optimize", "_attempt_stall_escape", lambda fn: _moved),
    ("optimize.lambda0", "requland.optimize", "estimate_lambda0", None),
    ("landscape.certify", "requland.landscape", "certify", None),
    ("landscape.mc", "requland.landscape", "certificate_matrix_monte_carlo", _trials),
    ("landscape.perturbation", "requland.landscape", "perturbation_stability", None),
    ("landscape.balance", "requland.landscape", "deep_balance_check", None),
    ("landscape.injectivity", "requland.landscape", "hidden_injectivity_check", None),
    ("numkit.svd", "requland.numkit", "min_singular_value", None),
    ("numkit.conv_matrix", "requland.numkit", "conv_matrix", None),
    ("models.net_from_flat", "requland.models", "net_from_flat", None),
    ("models.hidden_states", "requland.models", "DeepConvNet.hidden_states", None),
    ("constructions.interpolator", "requland.constructions", "build_interpolating_requ", None),
    ("constructions.bad_min", "requland.constructions", "build_bad_local_min", None),
    ("cli.main", "requland.cli", "main", None),
)

REFERENCE_SPANS = ("objective.empirical_loss", "objective.value_and_gradient")

METRICS = (  # (name, unit, better), in BENCHMARK.json order
    ("objective.value.calls", "count", "lower"),
    ("objective.value.us", "us", "lower"),
    ("objective.value_and_grad.calls", "count", "lower"),
    ("objective.value_and_grad.us", "us", "lower"),
    ("objective.reference.calls", "count", "lower"),
    ("objective.reference.us", "us", "lower"),
    ("optimize.train.s", "s", "lower"),
    ("optimize.iters", "count", "lower"),
    ("optimize.backtracks", "count", "lower"),
    ("optimize.backtracks_per_iter", "ratio", "lower"),
    ("optimize.snap.calls", "count", "lower"),
    ("optimize.snap.s", "s", "lower"),
    ("optimize.snap.accept_ratio", "ratio", "higher"),
    ("optimize.escape.calls", "count", "lower"),
    ("optimize.escape.s", "s", "lower"),
    ("optimize.escape.accept_ratio", "ratio", "higher"),
    ("optimize.lambda0.s", "s", "lower"),
    ("optimize.stall.calls", "count", "lower"),
    ("optimize.stall.s", "s", "lower"),
    ("optimize.stall.evals", "count", "lower"),
    ("optimize.stall.accept_ratio", "ratio", "higher"),
    ("optimize.stall.share", "ratio", "lower"),
    ("landscape.certify.s", "s", "lower"),
    ("landscape.mc.s", "s", "lower"),
    ("landscape.mc.trials_per_s", "1/s", "higher"),
    ("landscape.perturbation.s", "s", "lower"),
    ("landscape.balance.s", "s", "lower"),
    ("landscape.injectivity.s", "s", "lower"),
    ("numkit.svd.calls", "count", "lower"),
    ("numkit.svd.us", "us", "lower"),
    ("numkit.conv_matrix.calls", "count", "lower"),
    ("numkit.conv_matrix.us", "us", "lower"),
    ("models.net_from_flat.calls", "count", "lower"),
    ("models.hidden_states.calls", "count", "lower"),
    ("models.hidden_states.us", "us", "lower"),
    ("constructions.interpolator.calls", "count", "lower"),
    ("constructions.interpolator.s", "s", "lower"),
    ("constructions.bad_min.s", "s", "lower"),
    ("cli.overhead.s", "s", "lower"),
    ("cli.artifact_bytes", "bytes", "lower"),
    ("trace.solve_s", "s", "lower"),
    ("trace.overhead_s", "s", "lower"),
)


def _requland_modules():
    return [m for name, m in list(sys.modules.items())
            if m is not None and (name == "requland" or name.startswith("requland."))]


class Tracer:
    def __init__(self):
        self.spans = []
        self.absent = []
        self._ids = itertools.count()
        self._local = threading.local()
        self._restore = []

    def _stack(self):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _wrap(self, name, fn, note):
        spans, ids, stack_of = self.spans, self._ids, self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = stack_of()
            span_id = next(ids)
            parent = stack[-1] if stack else -1
            stack.append(span_id)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
            spans.append((span_id, parent, threading.get_ident(), name, start, end,
                          None if note is None else note(args, kwargs, result)))
            return result

        return wrapper

    def install(self):
        modules = _requland_modules()
        targets = list(TARGETS)
        # Every other library function the CLI calls gets a span too, so
        # cli.main's self time is the CLI's own work.
        named = {(mod, path) for _, mod, path, _ in TARGETS}
        cli = sys.modules.get("requland.cli")
        for attr, fn in sorted(vars(cli).items()) if cli else ():
            home = getattr(fn, "__module__", "") or ""
            if (inspect.isfunction(fn) and home.startswith("requland.")
                    and home != "requland.cli" and (home, attr) not in named):
                targets.append((f"{home[len('requland.'):]}.{attr}", home, attr, None))
        for name, module_name, path, note_maker in targets:
            owner = sys.modules.get(module_name)
            *outer, attr = path.split(".")
            for part in outer:
                owner = getattr(owner, part, None)
            fn = getattr(owner, attr, None) if owner is not None else None
            if not callable(fn):
                self.absent.append(f"{module_name}.{path}")
                continue
            wrapper = self._wrap(name, fn, note_maker(fn) if note_maker else None)
            if outer:  # a method: patch the class once
                self._patch(owner, attr, wrapper)
                continue
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is fn:
                        self._patch(mod, key, wrapper)

    def _patch(self, owner, attr, value):
        self._restore.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def uninstall(self):
        for owner, attr, value in reversed(self._restore):
            setattr(owner, attr, value)
        self._restore.clear()

    def write_spans(self, path):
        threads = {}
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["id", "parent", "thread", "name", "start_s", "end_s", "note"])
            for span_id, parent, tid, name, start, end, note in sorted(self.spans):
                thread = threads.setdefault(tid, len(threads))
                writer.writerow([span_id, parent, thread, name, f"{start:.9f}", f"{end:.9f}",
                                 "" if note is None else note])

    def summary(self):
        """Per span name: calls, total seconds, self seconds (minus direct
        children in the same thread), and the notes."""
        child_time = defaultdict(float)
        by_id = {}
        for span_id, parent, tid, name, start, end, note in self.spans:
            by_id[span_id] = (name, tid)
            if parent >= 0:
                child_time[parent] += end - start
        out = defaultdict(lambda: {"calls": 0, "total_s": 0.0, "self_s": 0.0, "notes": []})
        parents = defaultdict(lambda: defaultdict(int))
        for span_id, parent, tid, name, start, end, note in self.spans:
            row = out[name]
            row["calls"] += 1
            row["total_s"] += end - start
            row["self_s"] += end - start - child_time[span_id]
            if note is not None:
                row["notes"].append(note)
            parents[name][by_id[parent][0] if parent >= 0 else None] += 1
        return out, parents


def layer_metrics(tracer: Tracer, solve_s: float, untraced_solve_s: float,
                  artifact_bytes: int) -> dict:
    """The per-layer metrics of one traced round, every one present."""
    spans, parents = tracer.summary()

    def calls(name):
        return spans[name]["calls"] if name in spans else 0

    def total(name):
        return spans[name]["total_s"] if name in spans else 0.0

    def mean_us(*names):
        n = sum(calls(x) for x in names)
        return 1e6 * sum(total(x) for x in names) / n if n else 0.0

    def ratio(num, den):
        return num / den if den else 0.0

    def accepted(name):
        return sum(1 for v in spans[name]["notes"] if v) if name in spans else 0

    iters = sum(spans["optimize.train"]["notes"]) if "optimize.train" in spans else 0
    line_search = parents["objective.value"].get("optimize.train", 0)
    backtracks = max(line_search - iters, 0)
    mc_trials = sum(spans["landscape.mc"]["notes"]) if "landscape.mc" in spans else 0
    m = {
        "objective.value.calls": calls("objective.value"),
        "objective.value.us": mean_us("objective.value"),
        "objective.value_and_grad.calls": calls("objective.value_and_grad"),
        "objective.value_and_grad.us": mean_us("objective.value_and_grad"),
        "objective.reference.calls": sum(calls(x) for x in REFERENCE_SPANS),
        "objective.reference.us": mean_us(*REFERENCE_SPANS),
        "optimize.train.s": total("optimize.train"),
        "optimize.iters": iters,
        "optimize.backtracks": backtracks,
        "optimize.backtracks_per_iter": ratio(backtracks, iters),
        "optimize.snap.calls": calls("optimize.snap"),
        "optimize.snap.s": total("optimize.snap"),
        "optimize.snap.accept_ratio": ratio(accepted("optimize.snap"), calls("optimize.snap")),
        "optimize.escape.calls": calls("optimize.escape"),
        "optimize.escape.s": total("optimize.escape"),
        "optimize.escape.accept_ratio": ratio(accepted("optimize.escape"),
                                              calls("optimize.escape")),
        "optimize.lambda0.s": total("optimize.lambda0"),
        "optimize.stall.calls": calls("optimize.stall"),
        "optimize.stall.s": total("optimize.stall"),
        "optimize.stall.evals": parents["objective.value"].get("optimize.stall", 0),
        "optimize.stall.accept_ratio": ratio(accepted("optimize.stall"), calls("optimize.stall")),
        "optimize.stall.share": ratio(total("optimize.stall"), solve_s),
        "landscape.certify.s": total("landscape.certify"),
        "landscape.mc.s": total("landscape.mc"),
        "landscape.mc.trials_per_s": ratio(mc_trials, total("landscape.mc")),
        "landscape.perturbation.s": total("landscape.perturbation"),
        "landscape.balance.s": total("landscape.balance"),
        "landscape.injectivity.s": total("landscape.injectivity"),
        "numkit.svd.calls": calls("numkit.svd"),
        "numkit.svd.us": mean_us("numkit.svd"),
        "numkit.conv_matrix.calls": calls("numkit.conv_matrix"),
        "numkit.conv_matrix.us": mean_us("numkit.conv_matrix"),
        "models.net_from_flat.calls": calls("models.net_from_flat"),
        "models.hidden_states.calls": calls("models.hidden_states"),
        "models.hidden_states.us": mean_us("models.hidden_states"),
        "constructions.interpolator.calls": calls("constructions.interpolator"),
        "constructions.interpolator.s": total("constructions.interpolator"),
        "constructions.bad_min.s": total("constructions.bad_min"),
        "cli.overhead.s": spans["cli.main"]["self_s"] if "cli.main" in spans else 0.0,
        "cli.artifact_bytes": artifact_bytes,
        "trace.solve_s": solve_s,
        "trace.overhead_s": solve_s - untraced_solve_s,
    }
    assert list(m) == [name for name, _, _ in METRICS]
    return m
