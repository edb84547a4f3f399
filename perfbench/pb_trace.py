"""Spans around calls into starfn's modules, recorded from outside the package.

``Tracer.install`` rebinds every public function in the namespaces of the
starfn package and its submodules to a wrapper that records a span: name,
layer (the module that defines the function), start, end, parent span and
the id of the benchmark op that was running.  Because the rebinding also
covers the names one module imported from another, nested calls between
modules (harmonicform -> starcore -> slicing, cli -> sphere) get parent
links.  Private helpers are never touched, so their time counts as the self
time of the public function that called them.

Spans stay in memory; ``write`` saves them when the run ends.
"""

from __future__ import annotations

import functools
import inspect
import json
import sys
import threading
import time
from collections import defaultdict
from pathlib import Path
from typing import Any, Callable

LAYERS = ("funcdef", "slicing", "starcore", "sphere", "harmonicform", "cli")

# Functions that build a slice ensemble from (F, sample), and those of them
# that also run the circle kernel.
ENSEMBLE_CALLS = (
    "sphere.star_several",
    "sphere.counting_several",
    "sphere.lelong_number",
    "sphere.star_grid",
    "sphere.subharmonicity_stats",
)
STAR_CALLS = ("sphere.star_several", "sphere.star_grid", "sphere.subharmonicity_stats")

# span fields
NAME, LAYER, START, END, PARENT, OP, NOTE = range(7)
FIELDS = ("name", "layer", "start", "end", "parent", "op", "note")


def sample_key(F, sample) -> tuple:
    """Identifies an ensemble by content, so the CLI's own objects match."""
    return (F, sample.n, sample.count, sample.seed)


def _sphere_note(args: dict, result) -> dict:
    sample = args["sample"]
    note = {"key": sample_key(args["F"], sample)}
    if "M" in args:
        note["M"] = args["M"]
    if "r_values" in args:
        nr = len(args["r_values"])
        if "circle_nodes" in args:
            # the mean-value stencil: circle_nodes radii around each interior
            # point plus the centre, per interior row
            note["radii"] = (nr - 2) * (args["circle_nodes"] + 1)
        else:
            note["radii"] = nr
    else:
        note["radii"] = 1
    return note


def _circle_note(args: dict, result) -> dict:
    note = {"M": args["M"]}
    if hasattr(result, "clipped"):
        note["clipped"] = int(result.clipped)
    return note


NOTES: dict[str, Callable[[dict, Any], dict]] = {
    **{name: _sphere_note for name in ENSEMBLE_CALLS},
    "starcore.circle_log_samples": _circle_note,
    "starcore.slice_star_total": _circle_note,
}


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.op: int = -1
        self._stack: list[int] = []
        self._saved: list[tuple[Any, str, Any]] = []
        self._thread = threading.get_ident()

    def _wrap(self, fn, name: str, layer: str):
        spans, stack, clock = self.spans, self._stack, time.perf_counter
        note = NOTES.get(name)
        signature = inspect.signature(fn) if note else None

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if threading.get_ident() != self._thread:
                return fn(*args, **kwargs)
            span = [name, layer, 0.0, 0.0, stack[-1] if stack else -1, self.op, None]
            stack.append(len(spans))
            spans.append(span)
            span[START] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[END] = clock()
                stack.pop()
            if note is not None:
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
                span[NOTE] = note(bound.arguments, result)
            return result

        return traced

    def install(self) -> None:
        modules = [m for name, m in sys.modules.items()
                   if m is not None and (name == "starfn" or name.startswith("starfn."))]
        wrappers: dict[Any, Any] = {}
        for module in modules:
            for attr, obj in list(vars(module).items()):
                if attr.startswith("_") or not inspect.isfunction(obj):
                    continue
                package, _, layer = obj.__module__.partition(".")
                if package != "starfn" or layer not in LAYERS:
                    continue
                if obj not in wrappers:
                    wrappers[obj] = self._wrap(obj, f"{layer}.{obj.__name__}", layer)
                self._saved.append((module, attr, obj))
                setattr(module, attr, wrappers[obj])

    def uninstall(self) -> None:
        while self._saved:
            module, attr, obj = self._saved.pop()
            setattr(module, attr, obj)

    def write(self, path: Path) -> None:
        rows = [s[:NOTE] + [_jsonable(s[NOTE])] for s in self.spans]
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"fields": FIELDS, "spans": rows}, fh)
            fh.write("\n")


def _jsonable(note):
    if note is None:
        return None
    return {k: (repr(v) if k == "key" else v) for k, v in note.items()}


def self_times(spans: list[list]) -> list[float]:
    """Duration of each span minus the time its child spans cover."""
    child = [0.0] * len(spans)
    for s in spans:
        if s[PARENT] >= 0:
            child[s[PARENT]] += s[END] - s[START]
    return [s[END] - s[START] - c for s, c in zip(spans, child)]


def layer_metrics(spans: list[list], ensembles: dict[tuple, tuple[float, int, int]]) -> dict:
    """Per-layer metrics from the spans of a traced run.

    ``ensembles`` maps an ensemble key to (build seconds, kept, drawn),
    measured by one counting_several probe per (F, sample).
    """
    own = self_times(spans)
    self_s: dict[str, float] = defaultdict(float)
    calls: dict[str, int] = defaultdict(int)
    count: dict[str, int] = defaultdict(int)
    m: dict[str, float] = {}
    kernel_s = ensemble_s = msamples = 0.0
    circle_samples = clipped = harmonic_roots = 0

    def under(i: int, name: str) -> bool:
        i = spans[i][PARENT]
        while i >= 0:
            if spans[i][NAME] == name:
                return True
            i = spans[i][PARENT]
        return False

    for i, s in enumerate(spans):
        name, layer, note = s[NAME], s[LAYER], s[NOTE]
        self_s[layer] += own[i]
        calls[layer] += 1
        count[name] += 1
        if note is None:  # not annotated, or the call raised
            pass
        elif name in ENSEMBLE_CALLS:
            build, kept, _ = ensembles.get(note["key"], (0.0, 0, 0))
            ensemble_s += build
            if name in STAR_CALLS:
                kernel_s += own[i] - build
                msamples += kept * note["M"] * note["radii"] / 1e6
        else:
            circle_samples += note["M"]
            clipped += note.get("clipped", 0)
        if name == "slicing.roots_in_disk" and under(i, "harmonicform.slice_harmonicity_test"):
            harmonic_roots += 1

    for layer in LAYERS:
        m[f"{layer}.self_s"] = self_s[layer]
    kept = sum(k for _, k, _ in ensembles.values())
    drawn = sum(d for _, _, d in ensembles.values())
    m.update({
        "sphere.calls": calls["sphere"],
        "sphere.kernel_s": kernel_s,
        "sphere.ensemble_s": ensemble_s,
        "sphere.kernel_msamples": msamples,
        "sphere.kernel_msamples_per_s": msamples / kernel_s if kernel_s > 0 else 0.0,
        "sphere.kept_ratio": kept / drawn if drawn else 0.0,
        "sphere.sample_s": sum(t for t, s in zip(own, spans)
                               if s[NAME] == "sphere.sample_directions"),
        "slicing.calls": calls["slicing"],
        "slicing.root_extractions": count["slicing.roots_in_disk"],
        "slicing.roots_per_slice": (count["slicing.roots_in_disk"] / count["slicing.make_slice"]
                                    if count["slicing.make_slice"] else 0.0),
        "starcore.circle_samples": circle_samples,
        "starcore.clipped_nodes": clipped,
        "harmonicform.roots_per_test": (
            harmonic_roots / count["harmonicform.slice_harmonicity_test"]
            if count["harmonicform.slice_harmonicity_test"] else 0.0),
        "cli.export_s": sum(t for t, s in zip(own, spans) if s[NAME] == "cli.export_grid"),
        "trace.spans": len(spans),
    })
    return m
