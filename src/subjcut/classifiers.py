"""The two sentence/document classifiers: Naive Bayes and a linear soft-margin SVM.

The SVM trains on unigram-presence rows (``FeatureRows``) and NB on their
per-class column counts. Both score such rows into one array per call, and
serve two roles: sentence-level subjectivity detection and document-level
polarity classification. Class 1 is the class of interest (subjective, or
positive). The SVM's signed margin ``w . x + b`` is clamped into [0, 1] to
produce per-item score pairs for the graph construction.

Scoring sums a table's entries at each row's active columns, for all rows
in one numpy call per table and in the order the row-at-a-time sums take.
SVM weights add pairwise: ``np.add.reduce(w[idx])`` is 0.0 plus numpy's
pairwise sum, and so is ``np.add.reduceat`` over rows led by a column of
0.0. NB log-likelihoods add left to right from 0.0, as the (2, L) gather's
``sum(axis=1)`` does, and so does a weighted ``np.bincount``.
"""

from __future__ import annotations

import json
import logging
from dataclasses import dataclass
from pathlib import Path
from typing import Sequence

import numpy as np

from .features import FeatureRows, Vocabulary

log = logging.getLogger(__name__)

FORMAT_TAG = "subjcut-model/1"


class TrainingError(Exception):
    """Training data cannot produce a usable model (e.g. one class only)."""


class VocabularyMismatchError(Exception):
    """A serialized model was paired with a vocabulary it was not trained on."""


@dataclass(frozen=True)
class IndividualScores:
    """Per-item nonnegative preferences for class 1 and class 2.

    When produced from a classifier the pair sums to 1 per item, but the graph
    construction only needs nonnegativity.
    """

    class1: np.ndarray
    class2: np.ndarray

    def __post_init__(self) -> None:
        c1 = np.asarray(self.class1, dtype=float)
        c2 = np.asarray(self.class2, dtype=float)
        object.__setattr__(self, "class1", c1)
        object.__setattr__(self, "class2", c2)
        if c1.shape != c2.shape or c1.ndim != 1:
            raise ValueError("score arrays must be 1-d and equal length")
        if not (np.isfinite(c1).all() and np.isfinite(c2).all()):
            raise ValueError("scores must be finite")
        if (c1 < 0).any() or (c2 < 0).any():
            raise ValueError("scores must be nonnegative")

    def __len__(self) -> int:
        return len(self.class1)

    def split(self, bounds: Sequence[int]) -> list["IndividualScores"]:
        """These scores cut before each of ``bounds``, as views.

        The parts are not checked again: every entry was checked here.
        """
        parts = []
        for c1, c2 in zip(np.split(self.class1, bounds), np.split(self.class2, bounds)):
            part = object.__new__(IndividualScores)
            object.__setattr__(part, "class1", c1)
            object.__setattr__(part, "class2", c2)
            parts.append(part)
        return parts


# ---------------------------------------------------------------------------
# Naive Bayes


@dataclass(frozen=True)
class NaiveBayesModel:
    """Multinomial NB over binary presence features, add-alpha smoothed, log space."""

    log_prior: np.ndarray  # shape (2,)
    log_likelihood: np.ndarray  # shape (2, V)
    alpha: float
    vocab_digest: str = ""


def nb_from_counts(
    counts: np.ndarray, class_counts: np.ndarray, alpha: float = 1.0
) -> NaiveBayesModel:
    """NB from its counts: ``counts[c, j]`` training rows of class c are active
    at column j, and ``class_counts[c]`` training rows are of class c.

    The event model is multinomial over the presence features: each active
    column of a training row counts as one draw for its class. The counts
    are integers, so they are the same however they were gathered.
    """
    if not 0 < alpha < np.inf:
        raise ValueError(f"alpha must be > 0 and finite, got {alpha}")
    if len(class_counts) != 2 or min(class_counts) < 1:
        raise TrainingError("training data must contain both classes")
    counts = np.asarray(counts).astype(float)
    class_counts = np.asarray(class_counts).astype(float)
    v_size = counts.shape[1]
    log_prior = np.log(class_counts / class_counts.sum())
    if v_size == 0:
        log_likelihood = np.zeros((2, 0))  # prior-only model
    else:
        totals = counts.sum(axis=1, keepdims=True)
        log_likelihood = np.log(counts + alpha) - np.log(totals + alpha * v_size)
    return NaiveBayesModel(log_prior=log_prior, log_likelihood=log_likelihood, alpha=alpha)


def nb_predict_prob(model: NaiveBayesModel, rows: FeatureRows) -> np.ndarray:
    """Posterior probability of class 1 for each row, normalized via log-sum-exp."""
    # an empty row sums to 0 and leaves the prior
    joint = model.log_prior[:, None] + _sequential_sums(model.log_likelihood, rows)
    return np.exp(joint[1] - np.logaddexp(joint[0], joint[1]))


# ---------------------------------------------------------------------------
# Linear soft-margin SVM


@dataclass(frozen=True)
class LinearMarginModel:
    """Linear SVM: dense weights over the vocabulary plus an explicit bias."""

    weights: np.ndarray
    bias: float
    regularization: float
    training_seed: int
    vocab_digest: str = ""


def svm_train(
    rows: FeatureRows,
    labels: Sequence[int],
    regularization: float = 1.0,
    seed: int = 0,
    max_epochs: int = 60,
    tol: float = 1e-3,
    name: str = "",
) -> LinearMarginModel:
    """Train a linear L1-loss SVM by dual coordinate descent.

    Solves min_w 0.5*(||w||^2 + b^2) + C * sum_i hinge(y_i, w.x_i + b), with
    the bias handled as an augmented unit feature. Coordinates are visited in
    seeded random permutations, so training is deterministic given
    (data, regularization, seed). Stops when the relative duality gap drops
    below ``tol`` or after ``max_epochs`` sweeps; stopping at ``max_epochs``
    logs a warning with the gap left, led by ``name`` when one is given (a
    fold, say), so that the line can be told from other models' lines.

    The input rows must be length-normalized (empty rows are allowed and
    interact with the bias only).
    """
    if not 0 < regularization < np.inf:
        raise ValueError(f"regularization must be > 0 and finite, got {regularization}")
    if max_epochs < 1:
        raise ValueError(f"max_epochs must be >= 1, got {max_epochs}")
    y = np.asarray(labels, dtype=int)
    if len(rows) != len(y):
        raise ValueError("rows and labels differ in length")
    if set(np.unique(y)) != {0, 1}:
        raise TrainingError("training data must contain both classes")
    if len(rows.indices) and not rows.normalized:
        raise ValueError("SVM training requires length-normalized vectors")

    n = len(rows)
    c_penalty = float(regularization)
    signs = np.where(y == 1, 1.0, -1.0)
    row_values = rows.values
    # Q_ii = ||x_i||^2 + 1 for the augmented bias coordinate.
    q_diag = rows.lengths * row_values**2 + 1.0
    gather, starts = _sentinel_gather(rows, rows.n_features)
    # The coordinate loop reads Python floats: the same IEEE doubles as the
    # arrays' entries, without a numpy scalar per access.
    visits = list(zip(rows.rows(), signs.tolist(), row_values.tolist(), q_diag.tolist()))

    w_ext = np.zeros(rows.n_features + 1)  # the weights, then the 0.0 each row sum starts from
    w = w_ext[:-1]  # not written to: a scatter into a view is slower than into w_ext
    b = 0.0
    alpha = [0.0] * n
    rng = np.random.default_rng(seed)

    # ``ndarray.sum`` reaches ``np.add.reduce`` through a Python wrapper; each comparison is
    # the one min/max/abs makes, NaN and -0.0 alike; after ``float`` the visit's arithmetic
    # rounds as on numpy scalars but runs on Python floats, faster (``.item()`` is slower).
    add_reduce = np.add.reduce
    for _ in range(max_epochs):
        for i in rng.permutation(n).tolist():
            idx, sign, value, q_ii = visits[i]
            w_idx = w_ext[idx]
            grad = sign * (value * float(add_reduce(w_idx)) + b) - 1.0
            a_old = alpha[i]
            if a_old == 0.0:
                projected = 0.0 if 0.0 < grad else grad  # min(grad, 0.0)
            elif a_old == c_penalty:
                projected = 0.0 if 0.0 > grad else grad  # max(grad, 0.0)
            else:
                projected = grad
            if -1e-12 < projected < 1e-12:
                continue
            a_new = a_old - grad / q_ii  # clamped: min(max(a_new, 0.0), c_penalty)
            a_new = 0.0 if 0.0 > a_new else c_penalty if c_penalty < a_new else a_new
            delta = a_new - a_old
            if delta != 0.0:
                w_idx += delta * sign * value
                w_ext[idx] = w_idx
                b += delta * sign
                alpha[i] = a_new
        reg_term = 0.5 * (w @ w + b * b)
        margins = signs * (b + row_values * _pairwise_sums(w_ext, gather, starts))
        primal = reg_term + c_penalty * np.maximum(0.0, 1.0 - margins).sum()
        dual = np.array(alpha).sum() - reg_term
        if primal - dual <= tol * max(primal, 1.0):
            break
    else:
        log.warning(
            "%ssvm_train stopped at max_epochs=%d before converging: relative duality gap "
            "%.4g > tol %g",
            f"{name}: " if name else "", max_epochs, (primal - dual) / max(primal, 1.0), tol,
        )

    return LinearMarginModel(
        weights=w.copy(), bias=float(b), regularization=c_penalty, training_seed=seed
    )


def _check_columns(rows: FeatureRows, width: int) -> None:
    """Refuse a row with an active column outside [0, width)."""
    bad = np.flatnonzero((rows.indices < 0) | (rows.indices >= width))
    if len(bad):
        row = np.searchsorted(rows.indptr, bad[0], side="right") - 1
        raise ValueError(f"row {row} has column {rows.indices[bad[0]]}, outside {width} columns")


def _sentinel_gather(rows: FeatureRows, width: int) -> tuple[np.ndarray, np.ndarray]:
    """The rows' columns, each row led by the column ``width``, and each lead's position."""
    _check_columns(rows, width)
    leads = rows.indptr[:-1]
    return np.insert(rows.indices, leads, width), leads + np.arange(len(rows))


def _pairwise_sums(w_ext: np.ndarray, gather: np.ndarray, starts: np.ndarray) -> np.ndarray:
    """Each row's ``np.add.reduce(w[idx])``, given w then 0.0 and the rows' ``_sentinel_gather``."""
    return np.add.reduceat(np.take(w_ext, gather), starts)  # take: faster than w_ext[gather]


def _sequential_sums(table: np.ndarray, rows: FeatureRows) -> np.ndarray:
    """Each row's ``table[:, idx].sum(axis=1)``, left to right from 0.0, in floats throughout."""
    _check_columns(rows, table.shape[1])
    row_of = np.repeat(np.arange(len(rows)), rows.lengths)
    return np.array([np.bincount(row_of, t[rows.indices], len(rows)) for t in table], dtype=float)


def svm_margin(model: LinearMarginModel, rows: FeatureRows) -> np.ndarray:
    """The raw margin ``bias + w . x`` of each row; positive means class 1."""
    w_ext = np.append(model.weights, 0.0)
    return model.bias + rows.values * _pairwise_sums(w_ext, *_sentinel_gather(rows, w_ext.size - 1))


def svm_to_individual(d: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Clamp signed margins into class-1 preferences in [0, 1].

    Piecewise linear: 1 above +2, 0 below -2, (2 + d) / 4 between; the
    complements are returned as the class-2 preferences. This is Pang & Lee's
    (ACL 2004) map of an SVM's output d, which SVMlight writes on the scale of
    the margin ``w . x + b`` (Joachims 1999), as ``svm_margin`` returns it.
    """
    d = np.asarray(d, dtype=float)
    bad = np.flatnonzero(~np.isfinite(d))
    if len(bad):
        raise ValueError(f"decision values must be finite, got {d.flat[bad[0]]}")
    ind1 = np.clip((2.0 + d) / 4.0, 0.0, 1.0)
    return ind1, 1.0 - ind1


# ---------------------------------------------------------------------------
# Serialization


# each kind's model class and, per attribute, where the file keeps it: its
# table, its key, and the shape of an array (V wide: the vocabulary's size)
# or None for a number
MODEL_FIELDS = {
    "nb": (NaiveBayesModel, {
        "log_prior": ("parameters", "log_prior", (2,)),
        "log_likelihood": ("parameters", "log_likelihood", (2, "V")),
        "alpha": ("hyperparameters", "alpha", None),
    }),
    "svm": (LinearMarginModel, {
        "bias": ("parameters", "bias", None),
        "regularization": ("hyperparameters", "regularization", None),
        "training_seed": ("hyperparameters", "seed", None),
        "weights": ("parameters", "weights", ("V",)),
    }),
}


def save_model(model: NaiveBayesModel | LinearMarginModel, path: str | Path) -> None:
    kinds = [kind for kind, (cls, _) in MODEL_FIELDS.items() if isinstance(model, cls)]
    if not kinds:
        raise TypeError(f"cannot serialize {type(model).__name__}")
    payload = {"format": FORMAT_TAG, "kind": kinds[0], "vocab_digest": model.vocab_digest,
               "hyperparameters": {}, "parameters": {}}
    for attribute, (table, key, shape) in MODEL_FIELDS[kinds[0]][1].items():
        value = getattr(model, attribute)
        payload[table][key] = value.tolist() if shape else value
    Path(path).write_text(json.dumps(payload, sort_keys=True), encoding="utf-8")


def load_model(
    path: str | Path, vocab: Vocabulary | None = None
) -> NaiveBayesModel | LinearMarginModel:
    """Load a serialized model, refusing one trained on a different vocabulary
    and a file that is not a model (``ValueError``, naming the path and the
    key): one whose arrays are not of its ``MODEL_FIELDS`` shapes or whose
    numbers are not numbers."""
    payload = json.loads(Path(path).read_text(encoding="utf-8"))
    if not isinstance(payload, dict):
        raise ValueError(f"{path}: a model is a JSON object, got {type(payload).__name__}")
    if payload.get("format") != FORMAT_TAG:
        raise ValueError(f"{path}: unknown model format {payload.get('format')!r}")
    missing = [
        key for key in ("kind", "vocab_digest", "hyperparameters", "parameters")
        if key not in payload
    ]
    if missing:
        raise ValueError(f"{path}: model lacks {', '.join(missing)}")
    if vocab is not None and payload["vocab_digest"] != vocab.digest():
        raise VocabularyMismatchError(
            f"{path}: model was trained on a different vocabulary"
        )
    if payload["kind"] not in tuple(MODEL_FIELDS):
        raise ValueError(f"{path}: unknown model kind {payload['kind']!r}")
    model_class, fields = MODEL_FIELDS[payload["kind"]]
    values = {}
    for attribute, (table, key, shape) in fields.items():
        if not isinstance(payload[table], dict):
            raise ValueError(f"{path}: model's {table} is not an object")
        if key not in payload[table]:
            raise ValueError(f"{path}: model lacks {key}")
        want = tuple(vocab.size if d == "V" and vocab is not None else d for d in shape or ())
        try:
            value = np.asarray(payload[table][key])
        except ValueError:  # a ragged list
            value = np.zeros(0, dtype=object)
        if value.dtype.kind not in "iuf" or value.ndim != len(want) or any(
            d not in ("V", got) for d, got in zip(want, value.shape)
        ):
            dims = ", ".join(map(str, want)) + "," * (len(want) == 1)
            what = f"a ({dims}) float array" if shape else "a number"
            raise ValueError(f"{path}: model's {key} is not {what}")
        values[attribute] = value.astype(float) if shape else payload[table][key]
    return model_class(vocab_digest=payload["vocab_digest"], **values)
