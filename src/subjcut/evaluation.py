"""Experiment orchestration: cross-validated polarity runs, grids, sweeps, tests.

The detector is trained once on the full sentence corpus (it is disjoint from
the review corpus, and its sentences are never proximal, so per-fold
retraining would buy nothing). The polarity classifier, by contrast, is
retrained per fold on the extracts of the nine training folds only; each
fold's training inputs are digested into the report so leakage is auditable.
Reports carry no timestamps and serialize canonically: the same configuration
and seed reproduce the same bytes.

Every experiment runs through one runner, ``_cell_reports``; a single run is
its one-cell case. It tokenizes the review sentences once, into one sentence
presence matrix; detector scores and every extract's row come from it,
each in one call over the whole matrix, which batches itself. A
selection is one flag per sentence, in the matrix's row order; extract rows,
preservation and train digests are read from the flags, and
``make_extracts`` alone builds ``Extract`` objects. The runner plans every
cell before it cross-validates any: it makes every cell's selection, keys
each by its flags and classifier settings, and cross-validates each distinct
key once.

A cross-validation (of extracts, or of detector sentences) reads all its rows
once, into per-type class counts and first positions (``type_counts``). Each
fold subtracts its held-out rows' counts, an exact integer step, and selects
its vocabulary from what is left; NB trains from those counts and featurizes
only the fold's test rows, while the SVM featurizes its training rows too.
Folds and the detector are fit by one function, ``_fit``: detector training
is the case with nothing held out.

SVM folds train on a pool of ``max_workers`` forked processes, forked once a
cross-validation's rows, labels, fold ids and counts are built. The workers
inherit those, so only fold numbers and each fold's ``(test, predicted)`` are
pickled, and the parent takes the train digests and preservation while the
folds train. NB folds train from counts in milliseconds, in this process.
The runner makes its cells' selections on a pool too. A lone distinct
selection is then cross-validated in this process, its folds on a pool;
several are cross-validated on a second pool, each one's folds training in
its worker, so pools never nest. Results are assembled in fold and cell
order, so no byte depends on the worker count.
"""

from __future__ import annotations

import csv
import hashlib
import io
import itertools
import json
import logging
import math
import multiprocessing
import numbers
import os
from concurrent.futures import ProcessPoolExecutor
from contextlib import contextmanager
from dataclasses import asdict, dataclass, replace
from functools import partial
from typing import Callable, Iterable, Iterator, NamedTuple, Sequence

import numpy as np
from scipy.special import stdtr

from .classifiers import (
    IndividualScores,
    LinearMarginModel,
    NaiveBayesModel,
    nb_from_counts,
    nb_predict_prob,
    svm_margin,
    svm_train,
)
from .corpus import POSITIVE, SUBJECTIVE, LabeledSentence, ReviewDocument
from .extraction import (
    Detector,
    DetectorConfig,
    Extract,
    ProximityParams,
    detect_paragraph_unit,
    individual_scores,
    select_graph,
    sentence_matrix,
)
from .features import (
    EmptyVocabularyError,
    PresenceMatrix,
    TypeCounts,
    Vocabulary,
    class_counts,
    featurize_rows,
    join_rows,
    presence_matrix,
    type_counts,
)

N_EXTRACTORS = ("top_n", "first_n", "last_n", "least_n")
EXTRACTORS = ("full_review", "basic", "graph", "paragraph") + N_EXTRACTORS
SCORED_EXTRACTORS = ("basic", "graph", "top_n", "least_n")  # they rank or cut by score
DETECTOR_EXTRACTORS = SCORED_EXTRACTORS + ("paragraph",)

SWEEP_CSV_FIELDS = ("method", "N", "classifier", "fold", "accuracy", "preservation")

log = logging.getLogger(__name__)


@dataclass(frozen=True)
class ExperimentConfig:
    """One polarity experiment: how extracts are made and what classifies them."""

    extractor: str = "full_review"
    detector_base: str = "nb"
    classifier: str = "nb"
    n_sentences: int | None = None
    proximity: ProximityParams | None = None
    flipped: bool = False
    folds: int = 10
    seed: int = 0
    min_doc_freq: int = 1

    def __post_init__(self) -> None:
        for name in ("n_sentences", "folds", "seed", "min_doc_freq"):
            value = getattr(self, name)
            if value is not None or name != "n_sentences":  # None: no N-sentence extractor
                object.__setattr__(self, name, _integer(name, value))
        if not isinstance(self.flipped, bool):
            raise ValueError(f"flipped must be true or false, got {self.flipped!r}")
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed}")
        if self.extractor not in EXTRACTORS:
            raise ValueError(f"unknown extractor {self.extractor!r}")
        if self.detector_base not in ("nb", "svm"):
            raise ValueError(f"detector_base must be nb or svm, got {self.detector_base!r}")
        if self.classifier not in ("nb", "svm"):
            raise ValueError(f"classifier must be nb or svm, got {self.classifier!r}")
        if self.extractor in N_EXTRACTORS and (self.n_sentences is None or self.n_sentences < 1):
            raise ValueError(f"extractor {self.extractor} requires n_sentences >= 1")
        if self.extractor == "graph" and self.proximity is None:
            raise ValueError("graph extractor requires proximity parameters")
        if not isinstance(self.proximity, (ProximityParams, type(None))):
            raise ValueError(f"proximity must be ProximityParams, got {self.proximity!r}")
        if self.folds < 2:
            raise ValueError(f"folds must be >= 2, got {self.folds}")
        if self.min_doc_freq < 1:
            raise ValueError(f"min_doc_freq must be >= 1, got {self.min_doc_freq}")

    def to_dict(self) -> dict:
        return asdict(self)  # the proximity dataclass becomes a dict as well

    @classmethod
    def from_dict(cls, d: dict) -> "ExperimentConfig":
        d = dict(d)
        if d.get("proximity"):
            d["proximity"] = ProximityParams.from_dict(d["proximity"])
        return cls(**d)

    def digest(self) -> str:
        canonical = json.dumps(self.to_dict(), sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


@dataclass(frozen=True)
class FoldResult:
    fold: int
    accuracy: float
    n_test: int
    preservation: float
    train_digest: str


@dataclass(frozen=True)
class ExperimentReport:
    """Per-fold accuracies plus their mean, keyed by the config digest."""

    config: dict
    config_digest: str
    folds: tuple[FoldResult, ...]
    mean_accuracy: float
    mean_preservation: float
    comparisons: tuple[dict, ...] = ()

    def fold_accuracies(self) -> list[float]:
        return [f.accuracy for f in self.folds]

    def to_json(self) -> str:
        return json.dumps(asdict(self), indent=2, sort_keys=True) + "\n"

    @classmethod
    def from_json(cls, text: str) -> "ExperimentReport":
        d = json.loads(text)
        return cls(
            config=d["config"],
            config_digest=d["config_digest"],
            folds=tuple(FoldResult(**f) for f in d["folds"]),
            mean_accuracy=d["mean_accuracy"],
            mean_preservation=d["mean_preservation"],
            comparisons=tuple(d["comparisons"]),
        )

    def render_text(self) -> str:
        cfg = self.config
        lines = [f"experiment {self.config_digest[:12]}"]
        parts = [f"extractor={cfg['extractor']}", f"classifier={cfg['classifier']}"]
        if cfg["extractor"] not in ("full_review", "first_n", "last_n"):
            parts.append(f"detector={cfg['detector_base']}")
        if cfg.get("n_sentences"):
            parts.append(f"N={cfg['n_sentences']}")
        if cfg.get("proximity"):
            p = cfg["proximity"]
            parts.append(
                f"proximity(T={p['threshold']}, {p['decay']}, c={p['strength']:g},"
                f" w={p['cross_paragraph_weight']:g})"
            )
        if cfg.get("flipped"):
            parts.append("flipped")
        lines.append("  " + " ".join(parts))
        lines.append(f"  {'fold':>4}  {'accuracy':>8}  {'n_test':>6}  {'preservation':>12}")
        for f in self.folds:
            lines.append(
                f"  {f.fold:>4}  {f.accuracy:>8.4f}  {f.n_test:>6}  {f.preservation:>12.4f}"
            )
        lines.append(f"  mean accuracy     {self.mean_accuracy:.4f}")
        lines.append(f"  mean preservation {self.mean_preservation:.4f}")
        for comp in self.comparisons:
            lines.append(
                f"  vs {comp['other_digest'][:12]}: t={comp['t']:+.4f} p={comp['p']:.6f}"
                + (" (zero-variance differences)" if comp.get("degenerate") else "")
            )
        return "\n".join(lines) + "\n"


def _integer(name: str, value) -> int:
    """``value`` as an int, so a JSON spec's 2.0 is 2; a bool, fraction or non-number is refused."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real) or value % 1:
        raise ValueError(f"{name} must be an integer, got {value!r}")
    return int(value)


# ---------------------------------------------------------------------------
# Worker pools


def _worker_count(max_workers: int | None, jobs: int) -> int:
    """``max_workers``, or when it is None the core count capped at ``jobs``.

    A count that is not an integer, or below one, is refused with a ``ValueError``.
    """
    if max_workers is None:
        return max(1, min(os.cpu_count() or 1, jobs))
    if (workers := _integer("max_workers", max_workers)) < 1:
        raise ValueError(f"max_workers must be >= 1, got {max_workers}")
    return workers


_WORKER_FN: Callable | None = None  # set only in a pool's forked workers


def _init_worker(fn: Callable) -> None:
    global _WORKER_FN
    _WORKER_FN = fn


def _call_worker(item):
    return _WORKER_FN(item)


@contextmanager
def _forked_map(fn: Callable, items: Iterable, max_workers: int) -> Iterator[Iterator]:
    """Yields an iterator of ``fn(item)`` over ``items``, in their order.

    With one worker, or one item, ``fn`` runs in this process as the iterator
    is read. Otherwise every item is submitted on entry to a pool of forked
    processes, which inherit ``fn`` and all it binds, so only the items and
    the results are pickled, and the caller can work while they run. An
    exception raised by ``fn`` in a worker is raised by the iterator. The
    pool is shut down, and its processes joined, on exit.
    """
    items = list(items)
    workers = min(max_workers, len(items))
    if workers <= 1:
        yield map(fn, items)
        return
    with ProcessPoolExecutor(
        max_workers=workers,
        mp_context=multiprocessing.get_context("fork"),
        initializer=_init_worker,
        initargs=(fn,),
    ) as pool:
        yield pool.map(_call_worker, items)


# ---------------------------------------------------------------------------
# Detector training and scoring


def _sentence_rows(sentences: Sequence[LabeledSentence]) -> tuple[PresenceMatrix, np.ndarray]:
    """The presence matrix of ``sentences``, one group each, and their 0/1 labels."""
    matrix = presence_matrix([((s.text,), (len(s.text.split()),)) for s in sentences])
    return matrix, np.array([1 if s.label == SUBJECTIVE else 0 for s in sentences])


def make_detector(
    sentences: Sequence[LabeledSentence],
    config: DetectorConfig,
    alpha: float = 1.0,
    regularization: float = 1.0,
    seed: int = 0,
    min_doc_freq: int = 1,
) -> Detector:
    """A subjectivity detector of ``config.base`` trained on the full sentence corpus."""
    matrix, labels = _sentence_rows(sentences)
    columns, counts = type_counts(matrix, labels, np.zeros_like(labels)).columns(min_doc_freq)
    if not len(columns):
        raise EmptyVocabularyError("vocabulary is empty after frequency cutoff")
    model = _fit(
        matrix, labels, np.arange(len(sentences)), matrix.column_map(columns), len(columns), counts,
        config.base, alpha, regularization, seed, "detector",
    )
    vocab = matrix.vocabulary(columns)
    return Detector(replace(model, vocab_digest=vocab.digest()), vocab)


def score_documents(
    model: NaiveBayesModel | LinearMarginModel,
    vocab: Vocabulary,
    documents: Sequence[ReviewDocument],
) -> list[IndividualScores]:
    """Per-sentence scores for every document, computed once and reused: the
    ``individual_scores`` of their ``sentence_matrix``, split per document."""
    if not documents:
        return []
    scores = individual_scores(model, vocab, sentence_matrix(documents))
    return scores.split(_first_rows(documents)[1:-1])


def detector_cv_accuracies(
    sentences: Sequence[LabeledSentence],
    base: str = "nb",
    folds: int = 10,
    alpha: float = 1.0,
    regularization: float = 1.0,
    seed: int = 0,
    min_doc_freq: int = 1,
    max_workers: int | None = None,
) -> list[float]:
    """Cross-validated sentence-classification accuracy of a detector base.

    Sentences get folds round-robin by position, which keeps the two label
    blocks of the distributed corpus balanced across folds. Fewer than 2
    folds, more folds than sentences, an unknown base, fewer than one worker
    or a count that is not an integer is refused with a ``ValueError`` before
    anything is trained. SVM folds train on ``max_workers`` forked processes
    (by default the core count, capped at ``folds``); NB folds train here.
    """
    if (folds := _integer("folds", folds)) < 2:
        raise ValueError(f"folds must be >= 2, got {folds}")
    if len(sentences) < folds:
        raise ValueError(f"{folds} folds leave a fold without sentences: {len(sentences)} given")
    if base not in ("nb", "svm"):
        raise ValueError(f"base must be nb or svm, got {base!r}")
    workers = _worker_count(max_workers, folds)
    matrix, labels = _sentence_rows(sentences)
    fold_of = np.arange(len(sentences)) % folds
    fit = partial(
        _fit_predict, matrix, labels, fold_of, type_counts(matrix, labels, fold_of),
        base=base, min_doc_freq=min_doc_freq, alpha=alpha, regularization=regularization,
        seed=seed,
    )
    with _forked_map(fit, range(folds), workers if base == "svm" else 1) as fits:
        return [int((predicted == labels[test]).sum()) / len(test) for test, predicted in fits]


def _fit(
    matrix: PresenceMatrix,
    labels: np.ndarray,
    train: np.ndarray,
    column_of: np.ndarray,
    width: int,
    counts: np.ndarray | None,
    base: str,
    alpha: float,
    regularization: float,
    seed: int,
    name: str,
) -> NaiveBayesModel | LinearMarginModel:
    """The one fit of either classifier: a ``base`` model of the rows ``train``
    of ``matrix``, over a vocabulary of ``width`` columns into which
    ``column_of`` maps the matrix's type ids (-1 outside it).

    NB trains from ``counts``, the per-class counts of those rows at the
    vocabulary's columns, without reading a row. The SVM featurizes the rows,
    which are freed on return, and needs no counts. ``name`` leads the SVM's
    ``max_epochs`` warning.
    """
    if base == "nb":
        return nb_from_counts(counts, np.bincount(labels[train], minlength=2), alpha)
    rows = featurize_rows(matrix, column_of, width, train)
    return svm_train(rows, labels[train], regularization, seed, name=name)


def _fit_predict(
    matrix: PresenceMatrix,
    labels: np.ndarray,
    fold_of: np.ndarray,
    stats: TypeCounts,
    fold: int,
    base: str,
    min_doc_freq: int,
    alpha: float = 1.0,
    regularization: float = 1.0,
    seed: int = 0,
) -> tuple[np.ndarray, np.ndarray]:
    """The rows of ``fold`` and their 0/1 decisions by a model ``_fit`` on the other rows.

    ``stats`` is the ``type_counts`` of all rows. The vocabulary and NB's
    counts come from it minus the held-out rows' counts. An empty vocabulary
    leaves the classifier its class prior (NB) or bias sign (SVM), and is
    logged as a warning that names the fold and the classifier.
    """
    test = np.flatnonzero(fold_of == fold)
    columns, counts = stats.columns(min_doc_freq, fold, class_counts(matrix, test, labels[test]))
    if not len(columns):
        log.warning(
            "fold %d: vocabulary is empty at min_doc_freq %d, so the %s classifier "
            "gives every test row one class", fold, min_doc_freq, base,
        )
    column_of = matrix.column_map(columns)
    if base == "svm":
        # the SVM reads rows, not counts: the counts are freed before the
        # training rows are built, as those are before the test rows
        counts = None
    model = _fit(
        matrix, labels, np.flatnonzero(fold_of != fold), column_of, len(columns), counts, base,
        alpha, regularization, seed, f"fold {fold}",
    )
    test_rows = featurize_rows(matrix, column_of, len(columns), test)
    if base == "nb":
        return test, (nb_predict_prob(model, test_rows) > 0.5).astype(int)
    return test, (svm_margin(model, test_rows) > 0).astype(int)


# ---------------------------------------------------------------------------
# The main experiment


def make_extracts(
    config: ExperimentConfig,
    documents: Sequence[ReviewDocument],
    detector: Detector | None = None,
    scores: Sequence[IndividualScores] | None = None,
) -> list[Extract]:
    """Produce the per-document extracts an experiment will classify.

    ``scores``, when given, holds one entry per document, of one score per
    sentence, or is refused with a ``ValueError``. This is the one place
    extracts are built: experiments, grids and sweeps classify the
    selection's sentence rows without them.
    """
    if scores is not None:
        for d, doc in enumerate(documents):
            n, given = len(doc.sentences), len(scores[d]) if d < len(scores) else 0
            if given != n:
                raise ValueError(f"document {doc.id}: {given} scores for {n} sentences")
        if len(scores) != len(documents):
            raise ValueError(f"{len(scores)} score lists for {len(documents)} documents")
        scores = IndividualScores(
            np.concatenate([np.zeros(0)] + [part.class1 for part in scores]),
            np.concatenate([np.zeros(0)] + [part.class2 for part in scores]),
        )
    flags = _selections(config, documents, detector, scores).tolist()
    first = _first_rows(documents)
    return [Extract.from_flags(doc, flags[a:b]) for doc, a, b in zip(documents, first, first[1:])]


def _first_rows(documents: Sequence[ReviewDocument]) -> list[int]:
    """Each document's first row of their ``sentence_matrix``, then the row count."""
    return np.cumsum([0] + [len(doc.sentences) for doc in documents]).tolist()


def _selections(
    config: ExperimentConfig,
    documents: Sequence[ReviewDocument],
    detector: Detector | None,
    scores: IndividualScores | None,
    matrix: PresenceMatrix | None = None,
) -> np.ndarray:
    """One flag per sentence of ``documents``, in ``sentence_matrix`` row
    order: whether ``config``'s extract keeps it.

    ``scores``, when given, holds one score per sentence, in the same order.
    ``matrix``, the documents' ``sentence_matrix``, is built here only when
    the detector must score or cut paragraphs and it is not given. The
    count-limited extractors rank a document's sentences by position, or by
    class-1 score with ties to the earlier sentence.
    """
    if config.extractor in DETECTOR_EXTRACTORS:
        if detector is None:
            raise ValueError(f"extractor {config.extractor!r} requires a trained detector")
        if detector.base != config.detector_base:
            raise ValueError(
                f"detector base {detector.base!r} differs from the config's "
                f"detector_base {config.detector_base!r}"
            )
        if matrix is None and (scores is None or config.extractor == "paragraph"):
            matrix = sentence_matrix(documents)
        if scores is None and config.extractor != "paragraph":
            scores = individual_scores(detector.model, detector.vocab, matrix)
    first = _first_rows(documents)
    counts = np.diff(first)
    document = np.repeat(np.arange(len(documents)), counts)
    position = np.arange(first[-1]) - np.repeat(first[:-1], counts)
    n = config.n_sentences
    if config.extractor == "full_review":
        keep = np.ones(first[-1], dtype=bool)
    elif config.extractor == "first_n":
        keep = position < n
    elif config.extractor == "last_n":
        keep = position >= counts[document] - n
    elif config.extractor == "graph":
        starts = [doc.paragraph_starts for doc in documents]
        keep = select_graph(scores, counts, config.proximity, starts)
    elif config.extractor == "paragraph":
        keep = detect_paragraph_unit(detector.model, detector.vocab, documents, matrix)
    elif config.extractor == "basic":
        keep = scores.class1 > scores.class2
    else:
        # the order groups the documents as the rows do, so the sentence
        # at each place of it has the rank of that place's position
        rank = -scores.class1 if config.extractor == "top_n" else scores.class1
        order = np.lexsort((position, rank, document))
        keep = np.empty(first[-1], dtype=bool)
        keep[order] = position < n
    return ~keep if config.flipped else keep


def _train_digests(
    pairs: Sequence[tuple[str, str]], fold_of: np.ndarray, folds: int
) -> list[str]:
    """Per fold, the SHA-256 of the other folds' sorted (id, text) pairs.

    Each pair is framed as ``id \\x00 text \\x01`` and the pairs are sorted
    once; a fold hashes its training pairs' frames, in that order, at once.
    """
    order = sorted(range(len(pairs)), key=pairs.__getitem__)
    frames = [f"{pairs[i][0]}\x00{pairs[i][1]}\x01".encode("utf-8") for i in order]
    fold_of = fold_of[order]
    return [
        hashlib.sha256(b"".join(itertools.compress(frames, fold_of != fold))).hexdigest()
        for fold in range(folds)
    ]


def _extract_rows(
    matrix: PresenceMatrix, documents: Sequence[ReviewDocument], keep: np.ndarray
) -> PresenceMatrix:
    """Each document's extract row: the join of its kept rows of ``matrix``."""
    rows = np.flatnonzero(keep)
    return join_rows(matrix, rows, np.diff(np.searchsorted(rows, _first_rows(documents))))


def _check_folds(documents: Sequence[ReviewDocument], folds: int) -> None:
    """Refuses, with a ``ValueError``, a document whose fold is not below
    ``folds`` and a fold that holds no document, found from the documents'
    own fold values, so the cost does not grow with ``folds``."""
    bad = [doc.id for doc in documents if not (0 <= doc.fold < folds)]
    if bad:
        raise ValueError(f"documents without a valid fold: {bad[:3]}")
    present = {doc.fold for doc in documents}
    if len(present) < folds:
        raise ValueError(f"fold {min(set(range(len(present) + 1)) - present)} is empty")


def _cross_validate(
    config: ExperimentConfig,
    documents: Sequence[ReviewDocument],
    keep: np.ndarray,
    extract_rows: PresenceMatrix,
    max_workers: int,
) -> tuple[FoldResult, ...]:
    """The fold results of ``config``'s classifier over the extract rows of
    the sentences ``keep`` flags, for documents that passed ``_check_folds``.

    SVM folds train on ``max_workers`` forked processes while this one takes
    the train digests and preservation; NB folds train here.
    """
    labels = np.array([1 if doc.label == POSITIVE else 0 for doc in documents])
    fold_of = np.array([doc.fold for doc in documents], dtype=np.int64)
    fit = partial(
        _fit_predict, extract_rows, labels, fold_of, type_counts(extract_rows, labels, fold_of),
        base=config.classifier, min_doc_freq=config.min_doc_freq, seed=config.seed,
    )
    workers = max_workers if config.classifier == "svm" else 1
    with _forked_map(fit, range(config.folds), workers) as fits:
        first, flags = _first_rows(documents), keep.tolist()
        pairs = [
            (doc.id, "\n".join(itertools.compress(doc.sentences, flags[a:b])))
            for doc, a, b in zip(documents, first, first[1:])
        ]
        digests = _train_digests(pairs, fold_of, config.folds)
        words = np.fromiter(
            itertools.chain.from_iterable(doc.sentence_word_counts for doc in documents),
            dtype=float, count=len(keep),
        )
        document = np.repeat(np.arange(len(documents)), np.diff(first))
        kept = np.bincount(document, weights=words * keep, minlength=len(documents))
        rates = kept / [doc.word_count for doc in documents]
        return tuple(
            FoldResult(
                fold=fold,
                accuracy=int((predicted == labels[test]).sum()) / len(test),
                n_test=len(test),
                preservation=float(np.mean(rates[test])),
                train_digest=digests[fold],
            )
            for fold, (test, predicted) in enumerate(fits)
        )


def run_experiment(
    config: ExperimentConfig,
    documents: Sequence[ReviewDocument],
    detector: Detector | None = None,
    max_workers: int | None = None,
) -> ExperimentReport:
    """Cross-validated polarity accuracy of a classifier over extracts.

    Every review sentence is tokenized once, into the documents'
    ``sentence_matrix``; an extract's row is the join of its kept sentences'
    rows. For each fold, the vocabulary and the polarity classifier are built
    from the training folds' extracts only; the held-out fold supplies the
    test extracts. It is ``_cell_reports`` of one config. SVM folds train on
    ``max_workers`` forked processes, by default the core count capped at the
    number of folds; a count below one or not an integer is refused.
    """
    return _cell_reports([config], documents, detector, _worker_count(max_workers, config.folds))[0]


def _cell_reports(
    configs: Sequence[ExperimentConfig],
    documents: Sequence[ReviewDocument],
    detector: Detector | None,
    max_workers: int,
) -> list[ExperimentReport]:
    """The report of each of ``configs``, in their order: the one runner.

    The sentence matrix, and its scores if a config ranks or cuts by them, are
    computed once. Each cell's selection is made on ``max_workers`` forked
    processes; this one keys each cell by the SHA-256 of its flags (after
    ``flipped``) and its classifier, folds, seed and ``min_doc_freq``, and
    cross-validates each distinct key once for all its cells, the key's folds
    training in one of ``max_workers`` processes, or on all when it is alone.
    """
    documents = list(documents)
    for folds in {config.folds for config in configs}:
        _check_folds(documents, folds)
    matrix = sentence_matrix(documents)
    scored = detector is not None and any(c.extractor in SCORED_EXTRACTORS for c in configs)
    scores = individual_scores(detector.model, detector.vocab, matrix) if scored else None
    select = partial(
        _selections, documents=documents, detector=detector, scores=scores, matrix=matrix
    )
    keys, plan = [], {}
    with _forked_map(select, configs, max_workers) as selections:
        for config, keep in zip(configs, selections):
            digest = hashlib.sha256(keep.tobytes()).hexdigest()
            keys.append((digest, config.classifier, config.folds, config.seed, config.min_doc_freq))
            plan.setdefault(keys[-1], (config, keep))
    del select, selections  # both hold the matrix: the map holds the partial
    lone = len(plan) == 1

    def cross_validate(cell: tuple[ExperimentConfig, np.ndarray]) -> tuple[FoldResult, ...]:
        nonlocal matrix
        config, keep = cell
        rows = _extract_rows(matrix, documents, keep)
        if lone:
            # the matrix is freed before the folds train, and the rows copied
            # once it is: left above it, they kept its memory from the folds'
            # arrays, which raised a full-review SVM run's peak by about 2 MB
            matrix = None
            rows = PresenceMatrix(rows.types, rows.ids.copy(), rows.offsets)
        return _cross_validate(config, documents, keep, rows, max_workers if lone else 1)

    with _forked_map(cross_validate, plan.values(), max_workers) as results:
        done = dict(zip(plan, results))
    return [
        ExperimentReport(
            config=config.to_dict(), config_digest=config.digest(), folds=done[key],
            mean_accuracy=float(np.mean([f.accuracy for f in done[key]])),
            mean_preservation=float(np.mean([f.preservation for f in done[key]])),
        )
        for config, key in zip(configs, keys)
    ]


# ---------------------------------------------------------------------------
# Significance testing


class TTestResult(NamedTuple):
    t: float
    p: float
    degenerate: bool = False


def paired_t_test(acc_a: Sequence[float], acc_b: Sequence[float]) -> TTestResult:
    """Two-tailed paired t-test on fold-wise accuracy differences, df = n - 1.

    Identical inputs give (t=0, p=1). Nonzero but constant differences have
    zero variance; that degenerate case is reported as p=0 with a flag and an
    infinite statistic carrying the sign of the difference.
    """
    a = np.asarray(acc_a, dtype=float)
    b = np.asarray(acc_b, dtype=float)
    if a.shape != b.shape or a.ndim != 1:
        raise ValueError("paired test needs two equal-length vectors")
    if len(a) < 2:
        raise ValueError("paired test needs at least 2 pairs")
    d = a - b
    if np.all(d == 0.0):
        return TTestResult(t=0.0, p=1.0)
    sd = d.std(ddof=1)
    if sd == 0.0:
        return TTestResult(t=math.copysign(math.inf, d.mean()), p=0.0, degenerate=True)
    t = d.mean() / (sd / math.sqrt(len(d)))
    p = 2.0 * stdtr(len(d) - 1, -abs(t))  # the survival function scipy.stats.t.sf computes
    return TTestResult(t=float(t), p=float(p))


def add_comparison(report: ExperimentReport, other: ExperimentReport) -> ExperimentReport:
    """Attach a paired t-test against another report's fold accuracies."""
    result = paired_t_test(report.fold_accuracies(), other.fold_accuracies())
    entry = {
        "other_digest": other.config_digest,
        "t": result.t,
        "p": result.p,
        "degenerate": result.degenerate,
    }
    return replace(report, comparisons=report.comparisons + (entry,))


# ---------------------------------------------------------------------------
# Grid search over proximity parameters


def default_strength_grid() -> tuple[float, ...]:
    return tuple(round(i / 10, 1) for i in range(11))


@dataclass(frozen=True)
class GridSpec:
    thresholds: tuple[int, ...] = (1, 2, 3)
    decays: tuple[str, ...] = ("constant", "exponential", "inverse_square")
    strengths: tuple[float, ...] = ()
    cross_paragraph_weights: tuple[float, ...] = (1.0,)

    def __post_init__(self) -> None:
        if not self.strengths:
            object.__setattr__(self, "strengths", default_strength_grid())
        if not (self.thresholds and self.decays and self.cross_paragraph_weights):
            raise ValueError("grid axes must be nonempty")
        self.cells()  # every setting is a valid ProximityParams, or this raises

    def cells(self) -> list[ProximityParams]:
        axes = (self.thresholds, self.decays, self.strengths, self.cross_paragraph_weights)
        return [ProximityParams(*setting) for setting in itertools.product(*axes)]


@dataclass(frozen=True)
class GridSearchResult:
    best: ExperimentReport
    cells: tuple[tuple[ProximityParams, ExperimentReport], ...]

    def to_csv(self) -> str:
        rows = []
        for params, report in self.cells:
            method = (
                f"graph_T{params.threshold}_{params.decay}"
                f"_c{params.strength:g}_w{params.cross_paragraph_weight:g}"
            )
            for f in report.folds:
                rows.append(
                    (method, "", report.config["classifier"], f.fold, f.accuracy, f.preservation)
                )
        return rows_to_csv(rows)


def grid_search(
    base_config: ExperimentConfig,
    documents: Sequence[ReviewDocument],
    detector: Detector,
    grid: GridSpec | None = None,
    max_workers: int | None = None,
) -> GridSearchResult:
    """Evaluate every proximity setting; return all cells and the single best.

    Selection follows the protocol of reporting the best single setting by
    mean accuracy over all folds (an oracle-style choice, flagged as such in
    downstream reporting). Ties break toward the earlier cell in grid order.
    The cells run through ``_cell_reports``, on ``max_workers`` forked
    processes, by default the core count capped at the number of cells;
    fewer than 1 is refused with a ``ValueError``.
    """
    cells = (grid or GridSpec()).cells()
    configs = [replace(base_config, extractor="graph", proximity=params) for params in cells]
    workers = _worker_count(max_workers, len(cells))
    reports = _cell_reports(configs, documents, detector, workers)
    best = max(reports, key=lambda report: report.mean_accuracy)
    return GridSearchResult(best=best, cells=tuple(zip(cells, reports)))


# ---------------------------------------------------------------------------
# N-sentence sweep


def n_sentence_sweep(
    documents: Sequence[ReviewDocument],
    detector: Detector,
    methods: Sequence[str] = N_EXTRACTORS,
    n_values: Sequence[int] = tuple(range(1, 41)),
    classifiers: Sequence[str] = ("nb",),
    base_config: ExperimentConfig | None = None,
) -> dict[tuple[str, int, str], ExperimentReport]:
    """Accuracy of each length-limited extraction method at each N.

    The cells run through ``_cell_reports``, in this process; at large N
    every method keeps whole reviews, so most cells reuse fold results.
    """
    for m in methods:
        if m not in N_EXTRACTORS:
            raise ValueError(f"unknown sweep method {m!r}")
    if any(n < 1 for n in n_values):
        raise ValueError(f"sweep N values must be >= 1, got {tuple(n_values)}")
    base = replace(base_config or ExperimentConfig(), detector_base=detector.base)
    cells = list(itertools.product(methods, n_values, classifiers))
    configs = [
        replace(base, extractor=method, n_sentences=n, classifier=clf) for method, n, clf in cells
    ]
    return dict(zip(cells, _cell_reports(configs, documents, detector, 1)))


def sweep_to_csv(results: dict[tuple[str, int, str], ExperimentReport]) -> str:
    rows = []
    for (method, n, clf) in sorted(results):
        for f in results[(method, n, clf)].folds:
            rows.append((method, n, clf, f.fold, f.accuracy, f.preservation))
    return rows_to_csv(rows)


def rows_to_csv(rows: Sequence[tuple]) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(SWEEP_CSV_FIELDS)
    writer.writerows(rows)
    return buf.getvalue()
