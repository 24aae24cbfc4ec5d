"""Span recording around the calls into icrtlab's modules.

A layer is one icrtlab module.  Tracing replaces each public function of a
layer, in every icrtlab namespace that binds it, with a wrapper that records
a span (name, start, end, parent) and the counters listed in COUNTERS.
StepPath construction is traced by wrapping StepPath.__init__.  Spans are
kept in memory in flat arrays and written out once, at the end of a run.

Wrappers only see calls made in this process, so layer spans are recorded
with workers=1; the pool workers of a workers=2 run are not traced.
"""
from __future__ import annotations

import importlib
from array import array
from collections import Counter
from time import perf_counter

import numpy as np

LAYERS = ("rng", "paths", "samplers", "trees", "linebreak", "ptree", "stats",
          "theta", "recovery", "experiments", "cli")

# functions whose own self time is a per-layer metric
FUNCTIONS = ("paths.StepPath", "trees.lifo_tree", "trees.extract_tree",
             "trees.build_labelled", "linebreak.sample_line_breaking",
             "linebreak.reduced_tree")


def _jumps(key):
    def count(counts, args, result):
        counts[key] += args[0].times.size
    return count


def _cemetery(counts, args, result):
    from icrtlab.trees import CEMETERY
    counts["trees.spanning"] += 1
    counts["trees.cemetery"] += result is CEMETERY


def _tally(key):
    def count(counts, args, result):
        counts[key] += 1
    return count


# counters taken at a traced boundary: f(counts, call args, result)
COUNTERS = {
    "paths.StepPath": _jumps("paths.jumps"),
    "trees.lifo_tree": _jumps("trees.lifo_tree.jumps"),
    # the two functions that can return CEMETERY; spanning_from_marks goes
    # through to_labelled, so each spanning tree is counted once
    "trees.to_labelled": _cemetery,
    "trees.spanning_from_projection": _cemetery,
    "samplers.sample_Y_n": _tally("samplers.bridges"),
    "samplers.sample_Y_theta": _tally("samplers.bridges"),
    "samplers.sample_X_n": _tally("samplers.excursions"),
    "samplers.sample_X_theta": _tally("samplers.excursions"),
}


def _modules():
    return {layer: importlib.import_module(f"icrtlab.{layer}") for layer in LAYERS}


def public_functions(layer, module):
    """(qualified name, function) for each public function defined in module."""
    for name, obj in vars(module).items():
        if (not name.startswith("_") and callable(obj) and not isinstance(obj, type)
                and getattr(obj, "__module__", None) == module.__name__):
            yield f"{layer}.{name}", obj


class Recorder:
    """In-memory spans: parallel arrays of name id, parent index, start, end."""

    def __init__(self):
        self.names = []
        self._ids = {}
        self.name_id = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.counts = Counter()
        self._stack = []
        self._patches = []

    def __len__(self):
        return len(self.start)

    def wrap(self, name, fn):
        nid = self._ids.setdefault(name, len(self.names))
        if nid == len(self.names):
            self.names.append(name)
        count = COUNTERS.get(name)
        stack, counts = self._stack, self.counts
        name_ids, parents, starts, ends = self.name_id, self.parent, self.start, self.end

        def traced(*args, **kwargs):
            i = len(starts)
            name_ids.append(nid)
            parents.append(stack[-1] if stack else -1)
            ends.append(0.0)
            stack.append(i)
            starts.append(perf_counter())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[i] = perf_counter()
                stack.pop()
            if count is not None:
                count(counts, args, result)
            return result

        return traced

    def install(self, layers=LAYERS):
        """Wrap the public functions of the given layers wherever any icrtlab
        module binds them, and StepPath.__init__ when paths is traced."""
        import icrtlab
        modules = _modules()
        namespaces = [icrtlab, *modules.values()]
        wrapped = {id(fn): self.wrap(name, fn)
                   for layer in layers for name, fn in public_functions(layer, modules[layer])}
        for ns in namespaces:
            for attr, obj in list(vars(ns).items()):
                if id(obj) in wrapped:
                    self._patch(ns, attr, wrapped[id(obj)])
        if "paths" in layers:
            step_path = modules["paths"].StepPath
            self._patch(step_path, "__init__", self.wrap("paths.StepPath", step_path.__init__))

    def _patch(self, obj, attr, value):
        self._patches.append((obj, attr, getattr(obj, attr)))
        setattr(obj, attr, value)

    def uninstall(self):
        while self._patches:
            obj, attr, original = self._patches.pop()
            setattr(obj, attr, original)

    def arrays(self):
        return (np.frombuffer(self.name_id, dtype=np.int32),
                np.frombuffer(self.parent, dtype=np.int32),
                np.frombuffer(self.start, dtype=np.float64),
                np.frombuffer(self.end, dtype=np.float64))

    def save(self, path):
        name_id, parent, start, end = self.arrays()
        np.savez(path, names=np.array(self.names), name_id=name_id,
                 parent=parent, start=start, end=end)


def self_times(parent, start, end):
    """Each span's duration minus the part of it that its children cover.

    Children of one span may overlap; the covered part is their union.
    """
    parent = np.asarray(parent)
    start = np.asarray(start, dtype=float)
    end = np.asarray(end, dtype=float)
    out = end - start
    kids = np.nonzero(parent >= 0)[0]
    kids = kids[np.lexsort((start[kids], parent[kids]))]
    group, reach = -1, 0.0
    for c in kids.tolist():
        p = int(parent[c])
        if p != group:
            group, reach = p, start[p]
        lo = max(start[c], reach)
        hi = min(end[c], end[p])
        if hi > lo:
            out[p] -= hi - lo
        reach = max(reach, hi)
    return out


def layer_metrics(rec, replicates, layers=LAYERS):
    """Calls and self seconds per replicate, for each layer and for FUNCTIONS."""
    name_id, parent, start, end = rec.arrays()
    n = len(rec.names)
    calls = np.bincount(name_id, minlength=n)
    busy = np.bincount(name_id, weights=self_times(parent, start, end), minlength=n)
    per = 1.0 / replicates
    out = {}
    for layer in layers:
        sel = [i for i, name in enumerate(rec.names) if name.split(".")[0] == layer]
        out[f"{layer}.calls"] = float(calls[sel].sum()) * per
        out[f"{layer}.self_s"] = float(busy[sel].sum()) * per
    for fn in FUNCTIONS:
        if fn.split(".")[0] in layers:
            i = rec._ids.get(fn)
            out[f"{fn}.self_s"] = 0.0 if i is None else float(busy[i]) * per
    return out


def ratio(num, den):
    """num / den, or 0 when the layer saw no attempts."""
    return num / den if den else 0.0


def counter_metrics(counts, replicates):
    c = counts
    return {
        "paths.jumps": c["paths.jumps"] / replicates,
        "trees.lifo_tree.jumps": c["trees.lifo_tree.jumps"] / replicates,
        "samplers.accept_ratio": ratio(c["samplers.excursions"], c["samplers.bridges"]),
        "trees.cemetery_ratio": ratio(c["trees.cemetery"], c["trees.spanning"]),
    }
