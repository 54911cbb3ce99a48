"""Turning per-sentence scores into extracts.

A detector scores each sentence of a review for subjectivity and selects a
subset: independently per sentence (basic), jointly via a minimum cut with
proximity edges (graph), or per paragraph. The reviews of a call get their
proximity edges from one band over the distances 1..T that every review
shares, and are cut straight from the band (``mincut.cut_band``). Sentences
are scored as rows of their documents' ``sentence_matrix``, paragraph units as
joins of consecutive sentence rows. Each selection is one flag per
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
import numbers
from dataclasses import asdict, dataclass
from typing import Iterable, Sequence

import numpy as np

from .classifiers import (
    IndividualScores,
    LinearMarginModel,
    NaiveBayesModel,
    nb_predict_prob,
    svm_margin,
    svm_to_individual,
)
from .corpus import ReviewDocument
from . import features
from .features import (
    PresenceMatrix,
    Vocabulary,
    featurize_rows,
    join_rows,
    presence_matrix,
)
from .mincut import cut_band, instance_counts, integer_instance

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
        # a bool or a non-number is refused, as ExperimentConfig's counts are
        for name in ("threshold", "strength", "cross_paragraph_weight"):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, numbers.Real):
                raise ValueError(f"{name} must be a number, got {value!r}")
        if not (1 <= self.threshold < math.inf) or self.threshold % 1:
            raise ValueError(f"threshold must be a positive integer, got {self.threshold}")
        # an integral float, as a JSON spec may give, is stored as the int
        object.__setattr__(self, "threshold", int(self.threshold))
        if self.decay not in DECAY_NAMES:
            raise ValueError(f"decay must be one of {DECAY_NAMES}, got {self.decay!r}")
        if not (0 <= self.strength < math.inf):
            raise ValueError(f"strength must be finite and >= 0, got {self.strength}")
        if not (0 <= self.cross_paragraph_weight <= 1):
            raise ValueError(
                f"cross_paragraph_weight must be in [0, 1], got {self.cross_paragraph_weight}"
            )
        # a JSON spec's 1 is stored as 1.0; an int beyond the float range raises OverflowError
        object.__setattr__(self, "strength", float(self.strength))
        object.__setattr__(self, "cross_paragraph_weight", float(self.cross_paragraph_weight))
        # every decay is 1 at distance 1, so no pair outweighs the strength:
        # refuse here, before any work, a strength the cut could not take
        integer_instance(IndividualScores(class1=[], class2=[]), [self.strength])

    def to_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, d: dict) -> "ProximityParams":
        return cls(**d)


def association_band(
    counts: Sequence[int],
    paragraph_starts: Sequence[Sequence[int] | None] | None,
    params: ProximityParams,
) -> np.ndarray:
    """The association weights of documents as one (reach, sentences) band:
    entry [d - 1, i] weighs the pair (i, i + d), and reach is the threshold,
    or less when no document is that long.

    The documents' sentences are numbered in one sequence, ``counts[d]`` of
    them for document d. Sentences of one document at most the threshold
    apart weigh the decay at their distance times the strength, and the
    cross-paragraph weight more if a start of ``paragraph_starts[d]`` (sorted)
    lies in (i, k]; a document with fewer than two starts, or any when
    ``paragraph_starts`` is None, is one paragraph. A pair that would leave
    its document weighs 0. Counts are refused as ``cut_band`` refuses them,
    and so are starts not one per count, and starts that are not integers.
    """
    counts = instance_counts(counts)
    paragraph_starts = [None] * len(counts) if paragraph_starts is None else paragraph_starts
    if len(paragraph_starts) != len(counts):
        raise ValueError("counts and paragraph_starts differ in length")
    for d, starts in enumerate(paragraph_starts):
        if not all(type(s) is int or type(s) is not bool and isinstance(s, numbers.Integral)
                   for s in starts or ()):
            raise ValueError(f"document {d}: paragraph starts must be integers, got {starts}")
    ends = np.cumsum(counts)
    reach = min(params.threshold, int(counts.max(initial=1)) - 1)
    by_distance = np.array(
        [_decay(params.decay, d) * params.strength for d in range(1, reach + 1)], dtype=float
    )[:, None]
    first = np.arange(counts.sum(), dtype=np.int64)
    second = first + np.arange(1, reach + 1)[:, None]
    values = np.where(second < np.repeat(ends, counts), by_distance, 0.0)
    breaks = [
        end - n + s
        for end, n, starts in zip(ends.tolist(), counts.tolist(), paragraph_starts)
        if starts and len(starts) > 1
        for s in starts
        if 0 < s < n
    ]
    if breaks:
        opened = np.cumsum(np.bincount(breaks, minlength=len(first)))
        crossed = opened[np.minimum(second, len(first) - 1)] > opened
        values = np.where(crossed, values * params.cross_paragraph_weight, values)
    return values


def individual_scores(
    model: NaiveBayesModel | LinearMarginModel, vocab: Vocabulary, matrix: PresenceMatrix
) -> IndividualScores:
    """Per-row class preferences of ``matrix`` from a trained sentence classifier.

    NB yields (posterior, 1 - posterior); the SVM's signed margin
    ``w . x + b`` is clamped into [0, 1] and complemented. The matrix's type
    table is mapped into ``vocab`` once, and its rows are featurized and
    scored a batch at a time, by their tokens.
    """
    if not isinstance(model, (NaiveBayesModel, LinearMarginModel)):
        raise TypeError(f"unsupported model type {type(model).__name__}")
    column_of, svm = vocab.column_map(matrix.types), isinstance(model, LinearMarginModel)
    parts = [np.zeros(0)]
    for batch in features.batches(np.diff(matrix.offsets), features.BATCH_TOKENS):
        rows = featurize_rows(matrix, column_of, vocab.size, np.arange(batch.start, batch.stop))
        parts.append(svm_to_individual(svm_margin(model, rows))[0] if svm
                     else nb_predict_prob(model, rows))
    c1 = np.concatenate(parts)
    return IndividualScores(class1=c1, class2=1.0 - c1)


@dataclass(frozen=True)
class DetectorConfig:
    """The base ``make_detector`` trains; a trained ``Detector`` reads its base from its model."""

    base: str = "nb"  # nb | svm

    def __post_init__(self) -> None:
        if self.base not in ("nb", "svm"):
            raise ValueError(f"base must be nb or svm, got {self.base!r}")


@dataclass(frozen=True)
class Detector:
    """A trained sentence classifier and its vocabulary; ``base`` is the model's kind."""

    model: NaiveBayesModel | LinearMarginModel
    vocab: Vocabulary

    @property
    def base(self) -> str:
        return "svm" if isinstance(self.model, LinearMarginModel) else "nb"


def sentence_matrix(documents: Sequence[ReviewDocument]) -> PresenceMatrix:
    """The presence matrix of every sentence of ``documents``, in order: one
    group per document, cut apart by its ``sentence_word_counts``."""
    return presence_matrix([(doc.sentences, doc.sentence_word_counts) for doc in documents])


def select_graph(
    scores: IndividualScores,
    counts: Sequence[int],
    params: ProximityParams,
    paragraph_starts: Sequence[Sequence[int] | None] | None = None,
) -> np.ndarray:
    """One flag per item of ``scores``, the sentences of documents of
    ``counts[d]`` sentences each, in order: whether the canonical minimum cut
    of its document's score graph keeps it (the source side), by one
    ``cut_band`` call on the documents' one ``association_band``. Inputs are
    refused as ``association_band`` refuses them, counts before any band is built."""
    counts = instance_counts(counts)
    if counts.sum() != len(scores):
        raise ValueError(f"{len(scores)} scores for {counts.sum()} sentences")
    return cut_band(scores, counts, association_band(counts, paragraph_starts, params))


def detect_paragraph_unit(
    model: NaiveBayesModel | LinearMarginModel,
    vocab: Vocabulary,
    documents: Sequence[ReviewDocument],
    matrix: PresenceMatrix,
) -> np.ndarray:
    """One flag per sentence of ``documents``, in order: its paragraph's label.

    A paragraph is scored as the join of its sentences' rows of ``matrix``,
    the documents' ``sentence_matrix``, so the paragraphs are consecutive
    runs of its rows. Documents without boundary information are treated as
    one paragraph, which makes the decision all-or-nothing.
    """
    first = np.cumsum([0] + [len(doc.sentences) for doc in documents]).tolist()
    starts = [a + s for a, doc in zip(first, documents) for s in doc.paragraph_starts]
    lengths = np.diff([*starts, first[-1]])
    scores = individual_scores(model, vocab, join_rows(matrix, np.arange(first[-1]), lengths))
    return np.repeat(scores.class1 > scores.class2, lengths)


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
