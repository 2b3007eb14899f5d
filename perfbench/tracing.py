"""Spans around the program's layers, recorded from outside the program.

``Tracer.install()`` replaces each traced function with a timing wrapper
in every ``sparsevib`` module that holds it: ``pipeline``, ``cli``,
``features`` and ``ingest`` bind names with ``from ... import``, so
patching only the defining module would miss their calls.
``uninstall()`` restores the originals.  Spans stay in memory until
``write()``; the program runs single-threaded, so a stack gives parents.
"""

import functools
import json
import os
import sys
import time
from dataclasses import dataclass, field


def _fit_attrs(args, result):
    return {"iterations": result.iterations, "converged": bool(result.converged)}


def _file_attrs(args, result):
    return {"bytes": os.path.getsize(args[0])}


# (layer, defining module, function, attributes taken from the call).
# Layer names are the metric prefixes in BENCHMARK.json.
TARGETS = (
    ("cli", "sparsevib.cli", "main", None),
    ("pipeline", "sparsevib.pipeline", "assess_sequence", None),
    ("pipeline", "sparsevib.pipeline", "classify_dataset", None),
    ("pipeline", "sparsevib.pipeline", "filter_signal", None),
    ("sparse_filter.fit", "sparsevib.sparse_filter", "fit_simplified_csf", _fit_attrs),
    ("sparse_filter.med", "sparsevib.sparse_filter", "fit_med", _fit_attrs),
    ("features.extract", "sparsevib.features", "extract_feature_vector", None),
    ("core_signal.envelope", "sparsevib.core_signal", "hilbert_envelope", None),
    ("core_signal.autocorrelation", "sparsevib.core_signal", "autocorrelation", None),
    ("health_models.som_train", "sparsevib.health_models", "som_train", None),
    ("health_models.som_mqe", "sparsevib.health_models", "som_mqe", None),
    ("health_models.pca", "sparsevib.health_models", "pca_fit_transform", None),
    ("health_models.kmeans", "sparsevib.health_models", "kmeans", None),
    ("health_models.vat", "sparsevib.health_models", "vat_order", None),
    ("ingest.read", "sparsevib.ingest", "iterate_run_to_failure", None),
    ("ingest.read", "sparsevib.ingest", "read_ims_file", _file_attrs),
    ("ingest.write", "sparsevib.ingest", "write_ims_file", _file_attrs),
    ("simulate", "sparsevib.simulate", "make_fault_taxonomy_dataset", None),
    ("simulate", "sparsevib.simulate", "make_degradation_sequence", None),
    ("simulate", "sparsevib.simulate", "gaussian_with_outlier", None),
)


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int  # index into Tracer.spans, -1 for a root
    run_id: object
    attrs: dict = field(default_factory=dict)

    @property
    def duration(self):
        return self.end - self.start


class Tracer:
    """Records one span per traced call, nested by call order."""

    def __init__(self):
        self.spans = []
        self._stack = []
        self._patches = []  # (module, attribute, original)
        self._run_id = None

    def open(self, name, run_id=None):
        if run_id is not None:
            self._run_id = run_id
        parent = self._stack[-1] if self._stack else -1
        self.spans.append(Span(name, time.perf_counter(), 0.0, parent, self._run_id))
        self._stack.append(len(self.spans) - 1)
        return self._stack[-1]

    def close(self, index):
        self.spans[index].end = time.perf_counter()
        popped = self._stack.pop()
        if popped != index:
            raise RuntimeError(f"span {self.spans[index].name} closed out of order")

    def _wrap(self, name, func, attrs):
        @functools.wraps(func)
        def traced(*args, **kwargs):
            index = self.open(name)
            try:
                result = func(*args, **kwargs)
            finally:
                self.close(index)
            if attrs:
                self.spans[index].attrs = attrs(args, result)
            return result

        return traced

    def install(self):
        modules = [m for n, m in list(sys.modules.items())
                   if m is not None and (n == "sparsevib" or n.startswith("sparsevib."))]
        for name, module_name, func_name, attrs in TARGETS:
            original = getattr(sys.modules[module_name], func_name)
            wrapper = self._wrap(name, original, attrs)
            for module in modules:
                for attribute, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, attribute, wrapper)
                        self._patches.append((module, attribute, original))

    def uninstall(self):
        for module, attribute, original in reversed(self._patches):
            setattr(module, attribute, original)
        self._patches.clear()

    def self_times(self):
        """Each span's duration minus the time its direct children cover."""
        child_time = [0.0] * len(self.spans)
        for span in self.spans:
            if span.parent >= 0:
                child_time[span.parent] += span.duration
        return [span.duration - child for span, child in zip(self.spans, child_time)]

    def write(self, path):
        with open(path, "w") as fh:
            for i, span in enumerate(self.spans):
                fh.write(json.dumps({"id": i, "name": span.name, "start": span.start,
                                     "end": span.end, "parent": span.parent,
                                     "run_id": span.run_id, **span.attrs}) + "\n")


def summarize(tracer, run_ids):
    """Per-layer totals over the spans of the given runs.

    ``busy_s`` counts a layer's outermost spans only (a layer calling
    itself, as ``iterate_run_to_failure`` calls ``read_ims_file``, is not
    counted twice); ``self_s`` subtracts every child span.
    """
    run_ids = set(run_ids)
    self_times = tracer.self_times()
    layers = {}
    for i, span in enumerate(tracer.spans):
        if span.run_id not in run_ids:
            continue
        layer = layers.setdefault(span.name, {"calls": 0, "busy_s": 0.0, "self_s": 0.0,
                                              "durations": [], "attrs": []})
        layer["calls"] += 1
        layer["self_s"] += self_times[i]
        layer["durations"].append(span.duration)
        if span.attrs:
            layer["attrs"].append(span.attrs)
        parent = tracer.spans[span.parent] if span.parent >= 0 else None
        if parent is None or parent.name != span.name:
            layer["busy_s"] += span.duration
    return layers


def fit_iterations(layers):
    """Total iterations of every sparse-filter and MED fit in a summary."""
    return sum(attrs["iterations"] for name in ("sparse_filter.fit", "sparse_filter.med")
               for attrs in layers.get(name, {}).get("attrs", []))
