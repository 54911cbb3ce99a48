"""Plain reference rules the tests compare the program against.

Neither is called by the program: NB trains from counts (``nb_from_counts``)
and selections are flags. They state the rules row by row and sentence by
sentence, as the paper does.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from subjcut.classifiers import IndividualScores, NaiveBayesModel, TrainingError, nb_from_counts
from subjcut.features import FeatureRows


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
