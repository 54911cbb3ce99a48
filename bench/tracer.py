"""Span tracing of the ``subjcut`` modules from outside the program.

:meth:`Tracer.install` wraps every public function defined in a ``subjcut``
module and rebinds every name under ``subjcut.*`` that refers to one, so calls
made through ``from .x import f`` are traced too. Each call becomes a span
(function, start, end, parent span) kept in flat arrays in memory; work
counts are read from call results as the calls return.
:meth:`Tracer.summary` turns the spans into the per-layer metrics.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import pkgutil
import time
from array import array
from collections import defaultdict
from pathlib import Path

import numpy as np

PREDICT = (
    "classifiers.nb_predict_prob",
    "classifiers.svm_decision",
    "classifiers.svm_to_individual",
)

# per-layer time metric -> functions whose inclusive time it sums
INCLUSIVE = {
    "evaluation.train_detector_s": ("evaluation.make_detector",),
    "extraction.score_s": ("extraction.individual_scores",),
    "classifiers.predict_s": PREDICT,
    "extraction.assoc_s": ("extraction.assoc_scores",),
    "mincut.build_network_s": ("mincut.build_network",),
    "mincut.min_cut_s": ("mincut.min_cut",),
    "extraction.extract_build_s": ("extraction.build_extract",),
    "features.build_vocabulary_s": ("features.build_vocabulary",),
    "features.featurize_s": ("features.featurize",),
    "classifiers.svm_train_s": ("classifiers.svm_train",),
    "classifiers.nb_train_s": ("classifiers.nb_train",),
}
SELF_TIME = ("corpus", "mincut", "features", "classifiers", "evaluation")


def _one(result) -> int:
    return 1


# function -> (work counter, amount one call adds, read from its result)
COUNTERS = {
    "corpus.load_polarity_dataset": (
        ("corpus.documents", len),
        ("corpus.sentences", lambda docs: sum(len(d.sentences) for d in docs)),
    ),
    "corpus.load_subjectivity_dataset": (("corpus.sentences", len),),
    "extraction.individual_scores": (("extraction.sentences_scored", len),),
    "classifiers.nb_predict_prob": (("classifiers.predict_calls", _one),),
    "classifiers.svm_decision": (("classifiers.predict_calls", _one),),
    "extraction.assoc_scores": (("extraction.assoc_pairs", len),),
    "mincut.build_network": (("mincut.arcs", lambda net: net.arc_count),),
    "mincut.min_cut": (("mincut.cuts", _one),),
    "extraction.build_extract": (("extraction.extracts", _one),),
    "features.build_vocabulary": (
        ("features.build_vocabulary_calls", _one),
        ("features.vocab_types", lambda vocab: vocab.size),
    ),
    "features.featurize": (("features.featurize_calls", _one),),
    "classifiers.svm_train": (("classifiers.train_calls", _one),),
    "classifiers.nb_train": (("classifiers.train_calls", _one),),
    "evaluation.run_experiment": (("evaluation.cv_folds", lambda report: len(report.folds)),),
    "evaluation.grid_search": (("evaluation.grid_cells", lambda result: len(result.cells)),),
}
COUNT_METRICS = sorted({metric for pairs in COUNTERS.values() for metric, _ in pairs})


def subjcut_modules() -> list:
    import subjcut

    names = [f"subjcut.{m.name}" for m in pkgutil.iter_modules(subjcut.__path__)]
    return [subjcut] + [importlib.import_module(n) for n in sorted(names)]


class Tracer:
    def __init__(self) -> None:
        self.functions: list[str] = []  # span name table, "module.function"
        self.name = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.counts: dict[str, int] = defaultdict(int)
        self._stack = [-1]
        self._rebound: list[tuple[object, str, object]] = []

    def _wrap(self, fn, qualified: str):
        name_id = len(self.functions)
        self.functions.append(qualified)
        names, parents, starts, ends = self.name, self.parent, self.start, self.end
        stack, counts, clock = self._stack, self.counts, time.perf_counter
        counters = COUNTERS.get(qualified, ())

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = len(names)
            names.append(name_id)
            parents.append(stack[-1])
            starts.append(0.0)
            ends.append(0.0)
            stack.append(span)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[span] = clock()
                starts[span] = t0
                stack.pop()
            for metric, amount in counters:
                counts[metric] += amount(result)
            return result

        return traced

    def install(self) -> None:
        modules = subjcut_modules()
        wrappers = {}
        for module in modules[1:]:
            layer = module.__name__.split(".", 1)[1]
            for attr, obj in vars(module).items():
                public = not attr.startswith("_")
                if inspect.isfunction(obj) and public and obj.__module__ == module.__name__:
                    wrappers[obj] = self._wrap(obj, f"{layer}.{attr}")
        for module in modules:
            for attr, obj in list(vars(module).items()):
                if inspect.isfunction(obj) and obj in wrappers:
                    self._rebound.append((module, attr, obj))
                    setattr(module, attr, wrappers[obj])

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._rebound):
            setattr(module, attr, original)
        self._rebound.clear()

    def _arrays(self):
        return (
            np.frombuffer(self.name, dtype=np.int32),
            np.frombuffer(self.parent, dtype=np.int32),
            np.frombuffer(self.start, dtype=np.float64),
            np.frombuffer(self.end, dtype=np.float64),
        )

    def summary(self) -> dict[str, float]:
        """Per-layer metrics: inclusive times, module self times and counts."""
        names, parents, starts, ends = self._arrays()
        duration = ends - starts
        has_parent = parents >= 0
        child = np.bincount(parents[has_parent], weights=duration[has_parent], minlength=len(names))
        exclusive = duration - child
        k = len(self.functions)
        inclusive = np.bincount(names, weights=duration, minlength=k)
        self_by_fn = np.bincount(names, weights=exclusive, minlength=k)
        out: dict[str, float] = {}
        for metric, fns in INCLUSIVE.items():
            ids = [self.functions.index(f) for f in fns if f in self.functions]
            out[metric] = float(inclusive[ids].sum())
        for layer in SELF_TIME:
            ids = [i for i, f in enumerate(self.functions) if f.startswith(layer + ".")]
            out[f"{layer}.self_s"] = float(self_by_fn[ids].sum())
        for metric in COUNT_METRICS:
            out[metric] = self.counts.get(metric, 0)
        return out

    def write(self, path: Path) -> None:
        """Write every span: function table plus flat name/parent/start/end arrays."""
        names, parents, starts, ends = self._arrays()
        np.savez(
            path, functions=np.array(self.functions),
            name=names, parent=parents, start=starts, end=ends,
        )
