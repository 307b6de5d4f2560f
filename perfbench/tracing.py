"""Span recording around entanglia's public functions, from outside the library.

Every public function of a measured layer is replaced, at every module
attribute that binds it, by a wrapper that records one span: function,
start, end, parent span and op id.  Calls made through a private helper or
an unmeasured module (states, measures, witness, gadgets) stay inside the
calling span and count as its self time.  Spans stay in memory until the
run ends.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import time
from collections import Counter, defaultdict

LAYERS = ("majorization", "locc", "linalg", "bound_entangled", "hiding", "cli")
PACKAGE_MODULES = (
    "entanglia",
    "entanglia.majorization",
    "entanglia.locc",
    "entanglia.linalg",
    "entanglia.bound_entangled",
    "entanglia.hiding",
    "entanglia.cli",
    "entanglia.states",
    "entanglia.measures",
    "entanglia.witness",
    "entanglia.gadgets",
)

_FAMILY_BUILDERS = ("be_family", "be_family_direct")
_PLAN_SEARCHES = ("coop_construct", "find_catalyst_2x2", "split_two_copies")


class Recorder:
    """Spans and boundary counts of one traced phase."""

    def __init__(self):
        self.names = []  # span name table: index -> (layer, function)
        self.spans = []  # (name index, start, end, parent, op id)
        self.stack = []
        self.op_id = -1
        self.errors = Counter()  # (layer, exception type) -> count
        self.counts = Counter()
        self.state_bytes = 0
        self._last_error = None

    def reset(self):
        """Hand back this phase's spans and counts and start a fresh phase."""
        done = Recorder()
        done.names = self.names
        done.spans, self.spans = self.spans, []
        done.errors, self.errors = self.errors, Counter()
        done.counts, self.counts = self.counts, Counter()
        done.state_bytes, self.state_bytes = self.state_bytes, 0
        return done

    def observe(self, function, args, result):
        """Counts read off arguments and answers at the layer boundary."""
        if function == "eigvals_hermitian":
            d = len(args[0])
            self.counts["eigvalsh.dim3_sum"] += d**3
        elif function == "coop_validate":
            self.counts["coop.valid"] += bool(result.valid)
        elif function in _FAMILY_BUILDERS:
            nbytes = sum(rho.nbytes for rho in result.states.values())
            self.state_bytes = max(self.state_bytes, nbytes)
        elif function in _PLAN_SEARCHES and result is not None:
            self.counts["plans_found"] += 1


_OBSERVED = ("eigvals_hermitian", "coop_validate") + _FAMILY_BUILDERS + _PLAN_SEARCHES


def _wrap(rec, fn, layer):
    name_index = len(rec.names)
    rec.names.append((layer, fn.__name__))
    function = fn.__name__
    observed = function in _OBSERVED
    stack = rec.stack
    clock = time.perf_counter

    @functools.wraps(fn)
    def traced(*args, **kwargs):
        spans = rec.spans
        parent = stack[-1] if stack else -1
        index = len(spans)
        spans.append(None)
        stack.append(index)
        start = clock()
        try:
            result = fn(*args, **kwargs)
        except Exception as exc:
            if exc is not rec._last_error:  # count once, where it was raised
                rec._last_error = exc
                rec.errors[(layer, type(exc).__name__)] += 1
            raise
        finally:
            end = clock()
            stack.pop()
            spans[index] = (name_index, start, end, parent, rec.op_id)
        if observed:
            rec.observe(function, args, result)
        return result

    return traced


def install(rec):
    """Wrap the measured layers' public functions everywhere they are bound.

    Returns an undo list of (module, attribute, original)."""
    modules = [importlib.import_module(m) for m in PACKAGE_MODULES]
    wrappers = {}
    for layer in LAYERS:
        module = importlib.import_module(f"entanglia.{layer}")
        for name, obj in vars(module).items():
            if (
                inspect.isfunction(obj)
                and obj.__module__ == module.__name__
                and not name.startswith("_")
            ):
                wrappers[obj] = _wrap(rec, obj, layer)
    undo = []
    for module in modules:
        for name, obj in list(vars(module).items()):
            if inspect.isfunction(obj) and obj in wrappers:
                undo.append((module, name, obj))
                setattr(module, name, wrappers[obj])
    return undo


def uninstall(undo):
    for module, name, original in undo:
        setattr(module, name, original)


def layer_stats(rec):
    """Per-layer self time, calls entering each layer, and call counts per
    (layer, function) and per (parent, child) pair."""
    spans = rec.spans
    child_time = [0.0] * len(spans)
    for _, start, end, parent, _ in spans:
        if parent >= 0:
            child_time[parent] += end - start
    self_s = defaultdict(float)
    entry_calls = Counter()
    entry_s = defaultdict(float)
    calls = Counter()
    under = Counter()  # (parent function, child function) -> count
    names = rec.names
    for i, (name_index, start, end, parent, _) in enumerate(spans):
        name = names[name_index]
        layer = name[0]
        self_s[layer] += (end - start) - child_time[i]
        calls[name] += 1
        parent_name = names[spans[parent][0]] if parent >= 0 else None
        if parent_name is None or parent_name[0] != layer:
            entry_calls[layer] += 1
            entry_s[layer] += end - start
        if parent_name is not None:
            under[(parent_name, name)] += 1
    return {
        "self_s": self_s,
        "entry_calls": entry_calls,
        "entry_s": entry_s,
        "calls": calls,
        "under": under,
    }


def write_spans(rec, path):
    """One JSON array per line: function, start, end, parent, op id."""
    with open(path, "w") as fh:
        for name_index, start, end, parent, op_id in rec.spans:
            layer, function = rec.names[name_index]
            fh.write(json.dumps([f"{layer}.{function}", start, end, parent, op_id]))
            fh.write("\n")
