"""One benchmark workload in its own process: set-up, timed rounds, checks.

Started by ``run.py`` with BLAS/OpenMP pinned to one thread. The corpus is
already on disk; this process reads its files once, untimed, and then only
through the program's loaders. A traced run writes its spans next to the
corpus directory.

Each workload is a closed loop with one caller: it repeats one round (the
workflow call the CLI subcommand makes) ``--seconds / round_s`` times,
rounded and at least once. ``round_s`` is the workload's usual round time
on a 2-core machine, so that every run of a workload does the same number
of rounds whatever the machine's pace. Outputs are checked after the
timed part, so the checks cost neither time nor peak memory in the metrics.
Round outputs are fingerprinted; a round whose outputs match an already
checked round shares that round's verdict.

Prints a few ``#`` info lines and, last, one JSON line with the result.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import resource
import statistics
import sys
import time
from pathlib import Path

import numpy as np

import oracle
import synth
from subjcut import corpus, evaluation
from subjcut.classifiers import IndividualScores
from subjcut.corpus import ReviewDocument
from subjcut.extraction import DetectorConfig, ProximityParams

# Each set-up step repeats at least SETUP_REPS times and until its repetitions
# add up to SETUP_STEP_S; set-up time is the sum of the per-step medians.
SETUP_REPS = 3
SETUP_STEP_S = 2.0

EXTRACT_SETTINGS = (
    ProximityParams(threshold=3, decay="exponential", strength=0.0, cross_paragraph_weight=1.0),
    ProximityParams(threshold=3, decay="exponential", strength=0.5, cross_paragraph_weight=1.0),
    ProximityParams(threshold=2, decay="inverse_square", strength=0.4, cross_paragraph_weight=0.5),
)
# A fixed review whose first sentence wins class 1 by 8e-7. The rule
# {i : class1 > class2} keeps it; a strength-0 cut on scores rounded to 10^-6
# sees a tie and drops it. The same on every seed, so it fails every round.
TIE_PROBE_DOC = ReviewDocument(id="tie_probe", label="positive", sentences=("a b", "c d"))
TIE_PROBE_SCORES = IndividualScores(class1=[0.5000004, 0.9], class2=[0.4999996, 0.1])
GRID = evaluation.GridSpec(
    thresholds=(1, 3), decays=("exponential",), strengths=(0.0, 0.5), cross_paragraph_weights=(1.0,)
)
CUT_SAMPLE_DOCS = 100  # documents per extract call whose cut is checked for canonicity
SVM_ACCURACY_BAND = (0.70, 0.97)  # seeds 1-20 gave 0.8855-0.9130; chance is 0.5
NB_TIE_GAP = 1e-9


def log(message: str) -> None:
    print(f"# {message}", flush=True)


def cpu_seconds() -> float:
    total = 0.0
    for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN):
        usage = resource.getrusage(who)
        total += usage.ru_utime + usage.ru_stime
    return total


class Inputs:
    """What the program's own set-up produces: documents, sentences, detectors."""

    def __init__(self, root: Path, bases: tuple[str, ...], reps: bool) -> None:
        self.steps = {"ingest": self._repeat(self._ingest, root, reps)}
        self.detectors = {}
        for base in bases:
            self.steps[f"train_{base}"] = self._repeat(self._train, base, reps)
        self.setup_s = sum(statistics.median(t) for t in self.steps.values())

    @staticmethod
    def _repeat(step, arg, reps: bool) -> list[float]:
        times = []
        while not times or reps and (len(times) < SETUP_REPS or sum(times) < SETUP_STEP_S):
            gc.collect()
            t0 = time.perf_counter()
            step(arg)
            times.append(time.perf_counter() - t0)
        return times

    def _ingest(self, root: Path) -> None:
        self.documents = corpus.load_polarity_dataset(root)
        self.sentences = corpus.load_subjectivity_dataset(
            root / synth.QUOTE_FILE, root / synth.PLOT_FILE
        )

    def _train(self, base: str) -> None:
        self.detectors[base] = evaluation.make_detector(self.sentences, DetectorConfig(base=base))


# ---------------------------------------------------------------------------
# Workloads: bases needed, usual round time, one round, and the check of one
# round's outputs. A check returns the round's failed operations and how many
# of those fail on every seed by a known fault of the program.


class ExtractGraph:
    """Operation: one document's extract in one make_extracts call, plus the tie probe."""

    bases = ("nb", "svm")
    round_s = 10.0

    def ops(self, inp: Inputs) -> int:
        return len(self.bases) * len(EXTRACT_SETTINGS) * len(inp.documents) + 1

    def text(self, outputs) -> str:
        return repr(outputs[0])

    def run(self, inp: Inputs):
        """(selections of every call and then the probe, each base's scores)."""
        out, scores_by_base = [], {}
        for base in self.bases:
            det = inp.detectors[base]
            scores = scores_by_base[base] = evaluation.score_documents(
                det.model, det.vocab, inp.documents
            )
            for params in EXTRACT_SETTINGS:
                config = evaluation.ExperimentConfig(
                    extractor="graph", detector_base=base, proximity=params
                )
                extracts = evaluation.make_extracts(config, inp.documents, det, scores)
                out.append(tuple(e.selected for e in extracts))
        config = evaluation.ExperimentConfig(extractor="graph", proximity=EXTRACT_SETTINGS[0])
        probe = evaluation.make_extracts(
            config, [TIE_PROBE_DOC], inp.detectors["nb"], [TIE_PROBE_SCORES]
        )
        out.append(probe[0].selected)
        return out, scores_by_base

    def check(self, inp: Inputs, outputs, seed: int) -> tuple[int, int]:
        docs = inp.documents
        selections_by_call, scores = outputs
        failed = 0
        calls = [(b, p) for b in self.bases for p in EXTRACT_SETTINGS]
        rng = np.random.default_rng(seed)
        width = max(len(d.sentences) for d in docs)
        bands = {
            params: oracle.pad([
                oracle.scaled(oracle.proximity_band(
                    len(d.sentences), params.threshold, params.decay, params.strength,
                    params.cross_paragraph_weight, d.paragraph_starts,
                ))
                for d in docs
            ], width)
            for params in EXTRACT_SETTINGS
        }
        for (base, params), selections in zip(calls, selections_by_call):
            doc_scores = scores[base]
            sink = oracle.pad([oracle.scaled(s.class1) for s in doc_scores], width)
            source = oracle.pad([oracle.scaled(s.class2) for s in doc_scores], width)
            band = bands[params]
            chosen = np.zeros(sink.shape, dtype=bool)
            for b, sel in enumerate(selections):
                chosen[b, list(sel)] = True
            best = oracle.banded_min(sink, source, band)
            bad = oracle.labeling_cost(sink, source, band, chosen) != best
            # canonical cut: excluding any selected sentence must cost strictly more
            sample = rng.choice(len(docs), size=CUT_SAMPLE_DOCS, replace=False)
            items = [(int(b), j) for b in sample for j in selections[b]]
            if items:
                forced = oracle.banded_min(*oracle.forced_out_rows(sink, source, band, items))
                for (b, _), cost in zip(items, forced):
                    bad[b] |= cost <= best[b]
            if params.strength == 0.0:
                bad |= self._zero_strength_mismatch(base, docs, doc_scores, selections, sink, source)
            failed += int(bad.sum())
        probe = selections_by_call[-1]
        rule = tuple(np.flatnonzero(TIE_PROBE_SCORES.class1 > TIE_PROBE_SCORES.class2).tolist())
        log(f"extract_graph strength-0 tie probe: selection {probe}, class1 > class2 rule {rule}")
        known = int(probe != rule)
        return failed + known, known

    @staticmethod
    def _zero_strength_mismatch(base, docs, doc_scores, selections, sink, source) -> np.ndarray:
        """Per document: does a strength-0 selection differ from {i : class1 > class2}?

        A sentence that wins class 1 by less than the 10^-6 rounding of the cut
        is dropped by the program. That fault is counted once per round by the
        fixed tie probe; here its instances are only reported, because how many
        sentences fall in that gap depends on the seed.
        """
        bad = np.zeros(len(selections), dtype=bool)
        ties = []
        for b, (s, sel) in enumerate(zip(doc_scores, selections)):
            rule = set(np.flatnonzero(s.class1 > s.class2).tolist())
            missing = rule - set(sel)
            tied = {i for i in missing if sink[b, i] == source[b, i]}
            bad[b] = bool(set(sel) - rule or missing - tied)
            ties += [f"{docs[b].id}:{i}" for i in sorted(tied)]
        log(f"extract_graph {base} strength 0: {int(bad.sum())} documents differ from "
            f"class1 > class2; {len(ties)} sentences tied by rounding and dropped {ties}")
        return bad


class CvSvmFull:
    """Operation: one cross-validation fold."""

    bases = ()
    round_s = 10.0
    config = evaluation.ExperimentConfig(extractor="full_review", classifier="svm")

    def ops(self, inp: Inputs) -> int:
        return self.config.folds

    def text(self, report) -> str:
        return report.to_json()

    def run(self, inp: Inputs):
        return evaluation.run_experiment(self.config, inp.documents)

    def check(self, inp: Inputs, report, seed: int) -> tuple[int, int]:
        docs = inp.documents
        in_band = SVM_ACCURACY_BAND[0] < report.mean_accuracy < SVM_ACCURACY_BAND[1]
        log(f"cv_svm_full mean accuracy {report.mean_accuracy:.4f}")
        if [f.fold for f in report.folds] != list(range(10)) or not in_band:
            return len(report.folds), 0
        failed = 0
        for f in report.folds:
            test = [d for d in docs if d.fold == f.fold]
            train = [(d.id, "\n".join(d.sentences)) for d in docs if d.fold != f.fold]
            failed += (
                f.n_test != len(test)
                or f.train_digest != oracle.train_digest(train)
                or f.preservation != 1.0
            )
        return failed, 0


class GridNb:
    """Operation: one grid cell."""

    bases = ("nb",)
    round_s = 20.0
    base_config = evaluation.ExperimentConfig(
        extractor="graph", detector_base="nb", classifier="nb", proximity=ProximityParams()
    )

    def ops(self, inp: Inputs) -> int:
        return len(GRID.cells())

    def text(self, result) -> str:
        return "".join(r.to_json() for _, r in result.cells)

    def run(self, inp: Inputs):
        return evaluation.grid_search(
            self.base_config, inp.documents, inp.detectors["nb"], GRID, max_workers=1
        )

    def check(self, inp: Inputs, result, seed: int) -> tuple[int, int]:
        cells = GRID.cells()
        reports = [r for _, r in result.cells]
        if len(reports) != len(cells) or [p for p, _ in result.cells] != cells:
            return len(cells), 0
        means = [r.mean_accuracy for r in reports]
        if result.best is not reports[means.index(max(means))]:
            return len(cells), 0
        zero = [k for k, p in enumerate(cells) if p.strength == 0.0]
        if any(reports[k].folds != reports[zero[0]].folds for k in zero):
            return len(zero), 0
        signatures = [tuple(f.train_digest for f in r.folds) for r in reports]
        log(f"grid_nb duplicate cells {len(cells) - len(set(signatures))}/{len(cells)}; "
            f"mean accuracies {[round(m, 4) for m in means]}")
        return len(zero) * (not self._zero_cell_matches_reference(inp, reports[zero[0]])), 0

    def _zero_cell_matches_reference(self, inp: Inputs, report) -> bool:
        det = inp.detectors["nb"]
        docs = inp.documents
        token_sets = []
        for doc, s in zip(docs, evaluation.score_documents(det.model, det.vocab, docs)):
            keep = np.flatnonzero(s.class1 > s.class2)
            token_sets.append([t for i in keep for t in doc.sentences[i].lower().split()])
        presence = oracle.presence_matrix(token_sets)
        labels = np.array([d.label == "positive" for d in docs], dtype=int)
        fold_of = np.array([d.fold for d in docs])
        for f in report.folds:
            test = np.flatnonzero(fold_of == f.fold)
            train = np.flatnonzero(fold_of != f.fold)
            pred, gap = oracle.nb_fold_predictions(presence, labels, train, test)
            correct = int((pred == labels[test]).sum())
            ties = int((np.abs(gap) < NB_TIE_GAP).sum())
            if abs(round(f.accuracy * f.n_test) - correct) > ties:
                log(f"grid_nb fold {f.fold}: program {f.accuracy}, reference {correct / len(test)}")
                return False
        return True


WORKLOADS = {"extract_graph": ExtractGraph, "cv_svm_full": CvSvmFull, "grid_nb": GridNb}


def timed_rounds(workload, inp: Inputs, rounds: int):
    walls, cpus, prints, first = [], [], [], None
    for _ in range(rounds):
        gc.collect()  # garbage from the last round is not this round's cost
        c0, t0 = cpu_seconds(), time.perf_counter()
        outputs = workload.run(inp)
        walls.append(time.perf_counter() - t0)
        cpus.append(cpu_seconds() - c0)
        prints.append(hashlib.sha256(workload.text(outputs).encode("utf-8")).hexdigest())
        if first is None:
            first = outputs
    return walls, cpus, prints, first


def verdicts(workload, inp: Inputs, prints: list[str], first, seed: int) -> tuple[int, int, bool]:
    """(attempted, failed, correct) over all rounds.

    Round one is checked in full; a later round inherits its verdict when its
    outputs match and fails whole when they do not. ``correct`` leaves out the
    operations that fail on every seed and round by a known fault.
    """
    t0 = time.perf_counter()
    failed_first, known = workload.check(inp, first, seed)
    log(f"checks took {time.perf_counter() - t0:.1f} s")
    ops = workload.ops(inp)
    failed = sum(failed_first if p == prints[0] else ops for p in prints)
    return ops * len(prints), failed, failed == known * len(prints)


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--corpus", required=True, type=Path)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = ap.parse_args()
    workload = WORKLOADS[args.workload]()
    for path in sorted(args.corpus.rglob("*")):  # read once, untimed, before any timing
        if path.is_file():
            path.read_bytes()

    if not args.trace:
        inp = Inputs(args.corpus, workload.bases, reps=True)
        steps = (f"{k} {[round(t, 4) for t in v]}" for k, v in inp.steps.items())
        log("setup " + ", ".join(steps))
        rounds = max(1, int(args.seconds / workload.round_s + 0.5))
        walls, cpus, prints, first = timed_rounds(workload, inp, rounds)
        peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        log(f"rounds wall {[round(w, 3) for w in walls]} cpu {[round(c, 3) for c in cpus]}")
        attempted, failed, correct = verdicts(workload, inp, prints, first, args.seed)
        metrics = {
            "setup_s": (inp.setup_s, "s"),
            "wall_s": (statistics.median(walls), "s"),
            "cpu_s": (statistics.median(cpus), "s"),
            "peak_rss_mb": (peak_mb, "MB"),
        }
    else:
        from tracer import Tracer

        # untraced rounds right before and after the traced one bracket its drift
        inp = Inputs(args.corpus, workload.bases, reps=False)
        before, _, prints, first = timed_rounds(workload, inp, 1)
        tracer = Tracer()
        tracer.install()
        try:
            inp = Inputs(args.corpus, workload.bases, reps=False)
            traced, _, traced_prints, _ = timed_rounds(workload, inp, 1)
        finally:
            tracer.uninstall()
        after, _, after_prints, _ = timed_rounds(workload, inp, 1)
        plain = (before[0] + after[0]) / 2
        layers = tracer.summary()
        layers["trace.overhead_s"] = traced[0] - plain
        log(f"traced wall {traced[0]:.3f}s, untraced {before[0]:.3f}s and {after[0]:.3f}s, "
            f"{len(tracer.name)} spans")
        tracer.write(args.corpus.parent / f"spans-{args.workload}-{args.seed}.npz")
        all_prints = prints + traced_prints + after_prints
        attempted, failed, correct = verdicts(workload, inp, all_prints, first, args.seed)
        metrics = {k: (v, "s" if k.endswith("_s") else "count") for k, v in layers.items()}

    result = {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in sorted(metrics.items())},
    }
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
