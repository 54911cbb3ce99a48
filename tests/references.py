"""Plain reference rules the tests compare the program against.

None is called by the program: NB trains from counts (``nb_from_counts``),
selections are flags, texts are mapped into a presence matrix in groups
(``features.presence_matrix``), and the oracle prices all labelings at once
(``mincut.labeling_costs``). They state the rules row by row, sentence by
sentence, text by text and labeling by labeling, as the paper does.
``joined`` turns per-instance scores into the one array and counts that
``cut_band`` and ``select_graph`` take.
"""

from __future__ import annotations

from array import array
from typing import Iterable, Sequence

import numpy as np

from subjcut.classifiers import (
    IndividualScores,
    LinearMarginModel,
    NaiveBayesModel,
    TrainingError,
    nb_from_counts,
)
from subjcut.corpus import tokenize
from subjcut.extraction import individual_scores
from subjcut.features import FeatureRows, PresenceMatrix, Vocabulary


def presence_matrix(texts: Iterable[Iterable[str]]) -> PresenceMatrix:
    """Map tokenized texts into one presence matrix, reading one text at a time."""
    type_id: dict[str, int] = {}
    ids = array("i")
    offsets = array("q", [0])
    for tokens in texts:
        ids.extend([type_id.setdefault(t, len(type_id)) for t in dict.fromkeys(tokens)])
        offsets.append(len(ids))
    return PresenceMatrix(
        types=tuple(type_id),
        ids=np.frombuffer(ids, dtype=np.int32),
        offsets=np.frombuffer(offsets, dtype=np.int64),
    )


def score_texts(
    model: NaiveBayesModel | LinearMarginModel, vocab: Vocabulary, texts: Iterable[str]
) -> IndividualScores:
    """``individual_scores`` of the rows of ``texts``, mapped one text at a time."""
    matrix = presence_matrix(tokenize(text) for text in texts)
    return individual_scores(model, vocab, matrix, vocab.column_map(matrix.types))


def nb_train(rows: FeatureRows, labels: Sequence[int], alpha: float = 1.0) -> NaiveBayesModel:
    """Train NB from presence rows and 0/1 labels.

    The event model is multinomial over the presence features: each active
    index of a training row counts as one draw for its class, so the counts
    are the per-class column sums of the rows.
    """
    y = np.asarray(labels, dtype=int)
    if len(rows) != len(y):
        raise ValueError("rows and labels differ in length")
    if set(np.unique(y)) != {0, 1}:
        raise TrainingError("training data must contain both classes")
    v_size = rows.n_features
    draws = np.repeat(y, rows.lengths) * v_size + rows.indices
    counts = np.bincount(draws, minlength=2 * v_size).reshape(2, v_size)
    return nb_from_counts(counts, np.bincount(y, minlength=2), alpha)


def select_basic(scores: IndividualScores) -> tuple[int, ...]:
    """Independent per-sentence decisions: keep iff class-1 score strictly wins.

    A tie drops the sentence, as the canonical min cut does. Zero-association
    graph selection compares the scores rounded to 10^-6, so a sentence that
    wins by less than that rounding is kept here and dropped there.
    """
    return tuple(i for i in range(len(scores)) if scores.class1[i] > scores.class2[i])


def loop_cost(ind: IndividualScores, band: np.ndarray, side: Iterable[int]) -> float:
    """The cost of one labeling, ``side`` on the source side, added up one
    term at a time: each item's score for the class it is not in, in index
    order, then the weight ``band[d - 1, i]`` of each pair (i, i + d) the
    labeling splits, in (i, d) order."""
    side = set(side)
    cost = 0.0
    for i in range(len(ind)):
        cost += ind.class2[i] if i in side else ind.class1[i]
    for i in range(band.shape[1]):
        for d in range(1, len(band) + 1):
            if (i in side) != (i + d in side):
                cost += band[d - 1, i]
    return cost


def loop_labeling_costs(ind: IndividualScores, band: np.ndarray) -> np.ndarray:
    """Every labeling's ``loop_cost`` at the bit mask of its source side."""
    n = len(ind)
    return np.array(
        [loop_cost(ind, band, [i for i in range(n) if mask >> i & 1]) for mask in range(1 << n)],
        dtype=float,
    )


def joined(scores: Sequence[IndividualScores]) -> tuple[IndividualScores, list[int]]:
    """Per-instance scores as one array over all their items, and each
    instance's item count."""
    return IndividualScores(
        class1=np.concatenate([np.zeros(0)] + [s.class1 for s in scores]),
        class2=np.concatenate([np.zeros(0)] + [s.class2 for s in scores]),
    ), [len(s) for s in scores]
