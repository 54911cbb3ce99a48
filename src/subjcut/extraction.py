"""Turning per-sentence scores into extracts.

A detector scores each sentence of a review for subjectivity and selects a
subset: independently per sentence (basic), jointly via a minimum cut with
proximity edges (graph), or per paragraph. A batch of reviews gets its
proximity edges from one band over the distances 1..T that every review
shares, and its cut network straight from the band's arrays. Paragraph units
are joins of consecutive sentence rows. Each selection is one flag per
sentence of its documents, as are those ``evaluation`` makes for the
positional and score-ranked baselines (first/last/top/least N sentences) and
the complement (objective) extract.
An ``Extract`` is a document's kept text and word counts, built for output
from its flags (``Extract.from_flags``).
"""

from __future__ import annotations

import itertools
import json
import math
from collections import defaultdict
from dataclasses import dataclass
from typing import Iterable, Iterator, Sequence

import numpy as np

from .classifiers import (
    IndividualScores,
    LinearMarginModel,
    NaiveBayesModel,
    nb_predict_prob,
    svm_decision,
    svm_to_individual,
)
from .corpus import ReviewDocument, tokenize
from .features import (
    PresenceMatrix,
    Vocabulary,
    distinct_runs,
    featurize_rows,
    join_rows,
    presence_matrix,
)
from .mincut import build_network, pair_capacities, source_flags

DECAY_NAMES = ("constant", "exponential", "inverse_square")


def _decay(name: str, distance: int) -> float:
    if name == "constant":
        return 1.0
    if name == "exponential":
        return math.exp(1 - distance)
    if name == "inverse_square":
        return 1.0 / (distance * distance)
    raise ValueError(f"unknown decay {name!r}")


@dataclass(frozen=True)
class ProximityParams:
    """Association-edge controls.

    ``threshold`` is the maximum sentence distance still considered proximal,
    ``decay`` how influence falls off with distance, ``strength`` the overall
    weight of association relative to per-sentence scores, and
    ``cross_paragraph_weight`` an attenuation in [0, 1] applied to pairs that
    straddle a paragraph boundary (1 = no attenuation).
    """

    threshold: int = 1
    decay: str = "constant"
    strength: float = 0.0
    cross_paragraph_weight: float = 1.0

    def __post_init__(self) -> None:
        if self.threshold < 1 or self.threshold != int(self.threshold):
            raise ValueError(f"threshold must be a positive integer, got {self.threshold}")
        # an integral float, as a JSON spec may give, is stored as the int
        object.__setattr__(self, "threshold", int(self.threshold))
        if self.decay not in DECAY_NAMES:
            raise ValueError(f"decay must be one of {DECAY_NAMES}, got {self.decay!r}")
        if not (math.isfinite(self.strength) and self.strength >= 0):
            raise ValueError(f"strength must be finite and >= 0, got {self.strength}")
        # every decay is 1 at distance 1, so no pair outweighs the strength:
        # refuse here, before any work, a strength the cut could not take
        pair_capacities(np.array([self.strength]))
        if not (0.0 <= self.cross_paragraph_weight <= 1.0):
            raise ValueError(
                f"cross_paragraph_weight must be in [0, 1], got {self.cross_paragraph_weight}"
            )

    def to_dict(self) -> dict:
        return {
            "threshold": self.threshold,
            "decay": self.decay,
            "strength": self.strength,
            "cross_paragraph_weight": self.cross_paragraph_weight,
        }

    @classmethod
    def from_dict(cls, d: dict) -> "ProximityParams":
        return cls(**d)


def association_band(
    counts: Sequence[int],
    paragraph_starts: Sequence[Sequence[int] | None],
    params: ProximityParams,
) -> tuple[np.ndarray, np.ndarray]:
    """The (m, 2) association pairs of a batch of documents, in (i, distance)
    order, and their weights; zero-valued pairs are omitted.

    The documents' sentences are numbered across the batch, ``counts[d]`` of
    them for document d. Sentences of one document at most the threshold
    apart weigh the decay at their distance times the strength, and the
    cross-paragraph weight more if a start of ``paragraph_starts[d]`` (sorted)
    lies in (i, k]; a document with fewer than two starts is one paragraph.
    """
    counts = np.asarray(counts, dtype=np.int64)
    ends = np.cumsum(counts)
    reach = min(params.threshold, int(counts.max(initial=1)) - 1)
    by_distance = np.array(
        [_decay(params.decay, d) * params.strength for d in range(1, reach + 1)], dtype=float
    )
    first = np.arange(counts.sum(), dtype=np.int64)
    second = first[:, None] + np.arange(1, reach + 1)
    values = np.where(second < np.repeat(ends, counts)[:, None], by_distance, 0.0)
    breaks = [
        end - n + s
        for end, n, starts in zip(ends.tolist(), counts.tolist(), paragraph_starts)
        if starts and len(starts) > 1
        for s in starts
        if 0 < s < n
    ]
    if breaks:
        opened = np.cumsum(np.bincount(breaks, minlength=len(first)))
        crossed = opened[np.minimum(second, len(first) - 1)] > opened[:, None]
        values = np.where(crossed, values * params.cross_paragraph_weight, values)
    keep = values > 0.0
    pairs = np.stack([np.broadcast_to(first[:, None], keep.shape)[keep], second[keep]], axis=1)
    return pairs, values[keep]


def individual_scores(
    model: NaiveBayesModel | LinearMarginModel,
    vocab: Vocabulary,
    sentences: Iterable[str] | PresenceMatrix,
    column_of: np.ndarray | None = None,
) -> IndividualScores:
    """Per-sentence class preferences from a trained sentence classifier.

    NB yields (posterior, 1 - posterior); the margin classifier's signed
    distance is clamped into [0, 1] and complemented. The sentences are
    featurized together, as one presence matrix; a ``PresenceMatrix`` given
    in their place has every row scored, and ``column_of``, when given, is
    its ``vocab.column_map(matrix.types)``, so that scoring many row slices
    of one matrix maps its type table once.
    """
    if not isinstance(model, (NaiveBayesModel, LinearMarginModel)):
        raise TypeError(f"unsupported model type {type(model).__name__}")
    if isinstance(sentences, PresenceMatrix):
        matrix = sentences
    else:
        matrix = presence_matrix(tokenize(text) for text in sentences)
    if column_of is None:
        column_of = vocab.column_map(matrix.types)
    rows = featurize_rows(
        matrix, column_of, vocab.size, np.arange(len(matrix)),
        normalize=isinstance(model, LinearMarginModel),
    )
    if isinstance(model, NaiveBayesModel):
        c1 = nb_predict_prob(model, rows)
    else:
        c1, _ = svm_to_individual(svm_decision(model, rows))
    return IndividualScores(class1=c1, class2=1.0 - c1)


@dataclass(frozen=True)
class DetectorConfig:
    """Which detector to run: the classifier base."""

    base: str = "nb"  # nb | svm

    def __post_init__(self) -> None:
        if self.base not in ("nb", "svm"):
            raise ValueError(f"base must be nb or svm, got {self.base!r}")


@dataclass(frozen=True)
class Detector:
    """A trained sentence classifier plus the configuration it was trained with."""

    model: NaiveBayesModel | LinearMarginModel
    vocab: Vocabulary
    config: DetectorConfig


# Documents are tokenized, scored, joined and cut in batches of about this
# many sentences: one sort, featurization or max-flow solve per batch, with
# the transient arrays of one batch at a time.
CUT_BATCH_SENTENCES = 8192


def document_batches(sentence_counts: Sequence[int]) -> Iterator[range]:
    """Consecutive ranges of documents, each closed once it holds at least
    ``CUT_BATCH_SENTENCES`` sentences; the last takes what is left."""
    start, size = 0, 0
    for end, count in enumerate(sentence_counts, start=1):
        size += count
        if size >= CUT_BATCH_SENTENCES or end == len(sentence_counts):
            yield range(start, end)
            start, size = end, 0


def sentence_matrix(documents: Sequence[ReviewDocument]) -> PresenceMatrix:
    """The presence matrix of every sentence of ``documents``, in order.

    It equals ``presence_matrix(tokenize(s) for s in sentences)``, type ids
    included. Each document's sentences are tokenized as one text, since
    ``tokenize`` of the sentences joined by newlines is the concatenation of
    their tokens, and cut apart by ``sentence_word_counts``.
    """
    type_id: defaultdict[str, int] = defaultdict(itertools.count().__next__)
    runs = []
    for batch in document_batches([len(doc.sentences) for doc in documents]):
        tokens = itertools.chain.from_iterable(
            tokenize("\n".join(documents[i].sentences)) for i in batch
        )
        ids = np.fromiter(map(type_id.__getitem__, tokens), dtype=np.int32)
        lengths = np.fromiter(
            itertools.chain.from_iterable(documents[i].sentence_word_counts for i in batch),
            dtype=np.int64,
        )
        runs.append(distinct_runs(ids, lengths, len(type_id)))
    return PresenceMatrix.from_runs(type_id, runs)


def select_graph(
    scores: Sequence[IndividualScores],
    params: ProximityParams,
    paragraph_starts: Sequence[Sequence[int] | None] | None = None,
) -> np.ndarray:
    """One flag per sentence of the documents of ``scores``, in order: whether
    the minimum cut of its document's score graph keeps it (the source side).
    ``paragraph_starts`` is aligned with ``scores``."""
    if paragraph_starts is None:
        paragraph_starts = [None] * len(scores)
    if len(paragraph_starts) != len(scores):
        raise ValueError("scores and paragraph_starts differ in length")
    counts = [len(s) for s in scores]
    flags = [np.zeros(0, dtype=bool)]
    for batch in document_batches(counts):
        part = slice(batch.start, batch.stop)
        pairs, values = association_band(counts[part], paragraph_starts[part], params)
        flags.append(source_flags(build_network(scores[part], pairs, values)))
    return np.concatenate(flags)


def detect_paragraph_unit(
    model: NaiveBayesModel | LinearMarginModel,
    vocab: Vocabulary,
    documents: Sequence[ReviewDocument],
    matrix: PresenceMatrix | None = None,
) -> np.ndarray:
    """One flag per sentence of ``documents``, in order: its paragraph's label.

    A paragraph is scored as the join of its sentences' rows of ``matrix``,
    the documents' ``sentence_matrix`` (built here when not given): a batch's
    rows are contiguous, so its paragraphs are consecutive runs of them.
    Documents without boundary information are treated as one paragraph,
    which makes the decision all-or-nothing.
    """
    if matrix is None:
        matrix = sentence_matrix(documents)
    counts = [len(doc.sentences) for doc in documents]
    first = np.cumsum([0] + counts).tolist()
    keep = np.zeros(first[-1], dtype=bool)
    for batch in document_batches(counts):
        starts = [first[d] + s for d in batch for s in documents[d].paragraph_starts]
        lengths = np.diff([*starts, first[batch.stop]])
        rows = np.arange(first[batch.start], first[batch.stop])
        scores = individual_scores(model, vocab, join_rows(matrix, [(rows, lengths)]))
        keep[rows] = np.repeat(scores.class1 > scores.class2, lengths)
    return keep


# ---------------------------------------------------------------------------
# Extracts


@dataclass(frozen=True)
class Extract:
    """The selected sentences of one document, in original order."""

    doc_id: str
    selected: tuple[int, ...]
    text: str
    words_kept: int
    words_total: int

    def to_dict(self) -> dict:
        return {
            "doc_id": self.doc_id,
            "selected": list(self.selected),
            "words_kept": self.words_kept,
            "words_total": self.words_total,
        }

    @classmethod
    def from_flags(cls, doc: ReviewDocument, flags: Sequence[bool]) -> "Extract":
        """The extract of ``doc``'s sentences whose flag is true, one flag per sentence."""
        return cls(
            doc_id=doc.id,
            selected=tuple(itertools.compress(range(len(flags)), flags)),
            text="\n".join(itertools.compress(doc.sentences, flags)),
            words_kept=sum(itertools.compress(doc.sentence_word_counts, flags)),
            words_total=doc.word_count,
        )


def preservation_rate(extracts: Sequence[Extract]) -> float:
    """Mean fraction of source words kept, over documents."""
    if not extracts:
        raise ValueError("no extracts")
    return float(np.mean([e.words_kept / e.words_total for e in extracts]))


def extracts_to_jsonl(extracts: Iterable[Extract]) -> str:
    return "".join(json.dumps(e.to_dict(), sort_keys=True) + "\n" for e in extracts)
