"""Vocabularies and unigram-presence feature vectors.

A feature vector records only which vocabulary tokens occur in a text; the
value of every active coordinate is 1, or 1/sqrt(#active) when the vector is
length-normalized for margin classifiers. There is no tf, idf, or n-gram
machinery here on purpose.

Single texts are featurized with ``featurize``. Many texts are mapped once
into a ``PresenceMatrix``; a vocabulary over any subset of its rows is then a
selection of its columns (``vocabulary_columns``), and the rows' presence
vectors over it one ``FeatureRows`` matrix (``featurize_rows``).
"""

from __future__ import annotations

import hashlib
import math
from array import array
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Mapping, Sequence

import numpy as np


class EmptyVocabularyError(Exception):
    """No tokens survived vocabulary construction."""


@dataclass(frozen=True)
class Vocabulary:
    """Token-to-dense-index mapping, ordered by first occurrence in training text."""

    token_to_index: Mapping[str, int]

    @property
    def size(self) -> int:
        return len(self.token_to_index)

    def __contains__(self, token: str) -> bool:
        return token in self.token_to_index

    def serialize(self) -> str:
        by_index = sorted(self.token_to_index.items(), key=lambda kv: kv[1])
        return "".join(f"{token}\t{index}\n" for token, index in by_index)

    def digest(self) -> str:
        return hashlib.sha256(self.serialize().encode("utf-8")).hexdigest()

    def save(self, path: str | Path) -> None:
        Path(path).write_text(self.serialize(), encoding="utf-8")

    @classmethod
    def load(cls, path: str | Path) -> "Vocabulary":
        mapping: dict[str, int] = {}
        for line in Path(path).read_text(encoding="utf-8").splitlines():
            token, _, index = line.rpartition("\t")
            mapping[token] = int(index)
        got = sorted(mapping.values())
        if got != list(range(len(mapping))):
            raise ValueError(f"{path}: vocabulary indices are not dense")
        return cls(token_to_index=mapping)


def build_vocabulary(texts: Sequence[Iterable[str]], min_doc_freq: int = 1) -> Vocabulary:
    """Build a vocabulary from tokenized texts.

    Keeps every token appearing in at least ``min_doc_freq`` texts; indices
    follow first occurrence across the corpus, so construction is
    deterministic for a fixed input order.
    """
    if min_doc_freq < 1:
        raise ValueError(f"min_doc_freq must be >= 1, got {min_doc_freq}")
    if not texts:
        raise EmptyVocabularyError("no texts supplied")
    doc_freq: dict[str, int] = {}
    first_seen: list[str] = []
    for text in texts:
        for token in dict.fromkeys(text):  # de-duplicate, keep order
            if token not in doc_freq:
                first_seen.append(token)
            doc_freq[token] = doc_freq.get(token, 0) + 1
    kept = [t for t in first_seen if doc_freq[t] >= min_doc_freq]
    if not kept:
        raise EmptyVocabularyError("vocabulary is empty after frequency cutoff")
    return Vocabulary(token_to_index={t: i for i, t in enumerate(kept)})


@dataclass(frozen=True)
class PresenceVector:
    """Sparse binary presence vector: sorted active indices, one shared value."""

    active_indices: tuple[int, ...]
    value_per_active: float
    normalized: bool

    def __len__(self) -> int:
        return len(self.active_indices)

    @property
    def norm(self) -> float:
        return self.value_per_active * math.sqrt(len(self.active_indices))


def featurize(tokens: Iterable[str], vocab: Vocabulary, normalize: bool = False) -> PresenceVector:
    """Map tokens to a presence vector over ``vocab``.

    Repeated tokens contribute once; out-of-vocabulary tokens are dropped.
    With ``normalize`` the vector has unit Euclidean norm (empty input stays
    the zero vector).
    """
    mapping = vocab.token_to_index
    active = sorted({mapping[t] for t in tokens if t in mapping})
    if normalize and active:
        value = 1.0 / math.sqrt(len(active))
    else:
        value = 1.0
    return PresenceVector(
        active_indices=tuple(active), value_per_active=value, normalized=normalize
    )


@dataclass(frozen=True)
class PresenceMatrix:
    """The distinct tokens of many texts, as ids into one type table.

    Row ``r`` holds the ids of text ``r``'s distinct tokens in order of first
    occurrence, ``ids[offsets[r]:offsets[r + 1]]``. Ids number the types in
    order of first occurrence over all rows; ``types[i]`` is the token of id i.
    """

    types: tuple[str, ...]
    ids: np.ndarray  # int32
    offsets: np.ndarray  # int64, one more entry than there are rows

    def vocabulary(self, columns: np.ndarray) -> Vocabulary:
        """The vocabulary whose index i is the type with id ``columns[i]``."""
        types = self.types
        return Vocabulary(token_to_index={types[c]: i for i, c in enumerate(columns.tolist())})


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


def _row_ids(matrix: PresenceMatrix, rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The ids of ``rows``, concatenated in the order given, and each row's length."""
    rows = np.asarray(rows, dtype=np.intp)
    starts = matrix.offsets[rows]
    lengths = matrix.offsets[rows + 1] - starts
    ends = np.cumsum(lengths)
    positions = np.arange(lengths.sum()) + np.repeat(starts - ends + lengths, lengths)
    return matrix.ids[positions], lengths


def vocabulary_columns(
    matrix: PresenceMatrix, rows: np.ndarray, min_doc_freq: int = 1
) -> np.ndarray:
    """The type ids of the vocabulary ``build_vocabulary`` makes from ``rows``.

    In vocabulary index order: first occurrence across the rows, in the order
    given, keeping the types found in at least ``min_doc_freq`` of them. An
    empty result is the empty vocabulary; no error is raised for it.
    """
    if min_doc_freq < 1:
        raise ValueError(f"min_doc_freq must be >= 1, got {min_doc_freq}")
    ids, _ = _row_ids(matrix, rows)
    first = np.full(len(matrix.types), len(ids))
    np.minimum.at(first, ids, np.arange(len(ids)))
    doc_freq = np.bincount(ids, minlength=len(matrix.types))  # ids are distinct within a row
    kept = np.flatnonzero(doc_freq >= min_doc_freq)
    return kept[np.argsort(first[kept])]


@dataclass(frozen=True)
class FeatureRows:
    """Presence vectors of many texts, in compressed sparse row form.

    Row ``i`` is active at the sorted columns ``indices[indptr[i]:indptr[i + 1]]``
    and has the value ``values[i]`` there: 1, or 1/sqrt(#active) when
    normalized, exactly as ``featurize`` gives it.
    """

    indptr: np.ndarray
    indices: np.ndarray  # np.intp, so indexing with a row needs no conversion
    n_features: int
    normalized: bool

    def __len__(self) -> int:
        return len(self.indptr) - 1

    @property
    def lengths(self) -> np.ndarray:
        return np.diff(self.indptr)

    @property
    def values(self) -> np.ndarray:
        if not self.normalized:
            return np.ones(len(self))
        return 1.0 / np.sqrt(np.maximum(self.lengths, 1))  # an empty row keeps 1

    def rows(self) -> list[np.ndarray]:
        """Each row's active columns, as views into ``indices``."""
        bounds = self.indptr.tolist()
        return [self.indices[a:b] for a, b in zip(bounds, bounds[1:])]

    def vectors(self) -> list[PresenceVector]:
        """Each row as the ``PresenceVector`` that ``featurize`` gives for it."""
        return [
            PresenceVector(tuple(idx.tolist()), value, self.normalized)
            for idx, value in zip(self.rows(), self.values.tolist())
        ]


def featurize_rows(
    matrix: PresenceMatrix,
    columns: np.ndarray,
    rows: np.ndarray,
    normalize: bool = False,
) -> FeatureRows:
    """Presence vectors of ``rows`` over the vocabulary whose type ids are ``columns``.

    Row by row the same vectors ``featurize`` gives over that vocabulary.
    """
    ids, lengths = _row_ids(matrix, rows)
    n_features = len(columns)
    column_of = np.full(len(matrix.types), -1, dtype=np.intp)
    column_of[columns] = np.arange(n_features)
    cols = column_of[ids]
    kept = cols >= 0
    row_of = np.repeat(np.arange(len(lengths)), lengths)[kept]
    keys = row_of * n_features + cols[kept]
    keys.sort()  # rows stay in order; within a row, columns ascend
    indptr = np.zeros(len(lengths) + 1, dtype=np.intp)
    np.cumsum(np.bincount(row_of, minlength=len(lengths)), out=indptr[1:])
    return FeatureRows(
        indptr=indptr,
        indices=keys - row_of * n_features,
        n_features=n_features,
        normalized=normalize,
    )
