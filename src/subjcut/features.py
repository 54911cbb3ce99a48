"""Vocabularies and unigram-presence feature vectors.

A feature vector records only which vocabulary tokens occur in a text: its
active coordinates, each present once. How much an active coordinate weighs
is the classifier's business (the SVM scales each row itself). There is no
tf, idf, or n-gram machinery here on purpose.

Texts are always featurized many at a time. They are mapped once into a
``PresenceMatrix`` by ``presence_matrix``, the one path from text to type
ids, in groups (a review's sentences, or one detector sentence) that are each
tokenized once; a vocabulary over its rows is then a selection of its
columns. One pass over the rows (``type_counts``) records each type's
per-class document counts and first positions; a cross-validation fold's
vocabulary subtracts the held-out rows' counts (``class_counts``) and selects
the columns (``TypeCounts.columns``) without reading a training row again,
and the per-class counts at those columns are what NB trains on. Either such
a selection or a saved ``Vocabulary`` gives a column map from the matrix's
type ids to vocabulary indices, and the rows' presence vectors over it are
one ``FeatureRows`` matrix (``featurize_rows``).

A text made of several texts of a matrix, such as an extract made of
sentences, needs no tokenizing of its own: ``join_rows`` concatenates their
rows and keeps each id's first occurrence, which is the row the joined text
would get, over the same type table.

Batching has one rule, ``batches``, and each step that holds token-length
temporaries applies it itself, so callers pass whole matrices: mapping
texts, joining and counting rows, and the detector's scoring take about
``BATCH_TOKENS`` tokens at a time. Only the cut batches by sentences.
"""

from __future__ import annotations

import hashlib
import itertools
from collections import defaultdict
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Mapping, Sequence

import numpy as np

from .corpus import tokenize


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

    def column_map(self, types: Sequence[str]) -> np.ndarray:
        """The index of each of ``types`` in this vocabulary, -1 for one outside it."""
        return np.array([self.token_to_index.get(t, -1) for t in types], dtype=np.intp)

    def save(self, path: str | Path) -> None:
        Path(path).write_text(self.serialize(), encoding="utf-8")

    @classmethod
    def load(cls, path: str | Path) -> "Vocabulary":
        """The vocabulary ``save`` wrote: one ``token<TAB>index`` line per
        token. A bad line is refused with the path and its line number."""
        mapping: dict[str, int] = {}
        for number, line in enumerate(Path(path).read_text(encoding="utf-8").splitlines(), 1):
            token, tab, index = line.rpartition("\t")
            for bad, problem in ((not tab, "no tab"), (not token, "an empty token"),
                                 (token in mapping, f"token {token!r} repeated"),
                                 (not (index.isascii() and index.isdigit()),
                                  f"index {index!r} is not an integer >= 0")):
                if bad:
                    raise ValueError(f"{path}: line {number}: {problem}")
            mapping[token] = int(index)
        got = sorted(mapping.values())
        if got != list(range(len(mapping))):
            raise ValueError(f"{path}: vocabulary indices are not dense")
        return cls(token_to_index=mapping)


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

    def __len__(self) -> int:
        return len(self.offsets) - 1

    def vocabulary(self, columns: np.ndarray) -> Vocabulary:
        """The vocabulary whose index i is the type with id ``columns[i]``."""
        types = self.types
        return Vocabulary(token_to_index={types[c]: i for i, c in enumerate(columns.tolist())})

    def column_map(self, columns: np.ndarray) -> np.ndarray:
        """Type id -> index in the vocabulary whose type ids are ``columns``; -1 outside it."""
        column_of = np.full(len(self.types), -1, dtype=np.intp)
        column_of[columns] = np.arange(len(columns))
        return column_of

    @classmethod
    def from_runs(
        cls, types: Iterable[str], runs: Iterable[tuple[np.ndarray, np.ndarray]]
    ) -> "PresenceMatrix":
        """The rows of ``runs``, one after another; each run is (ids, row lengths)."""
        ids, lengths = [np.zeros(0, dtype=np.int32)], [np.zeros(0, dtype=np.int64)]
        for run_ids, run_lengths in runs:
            ids.append(run_ids)
            lengths.append(run_lengths)
        lengths = np.concatenate(lengths)
        offsets = np.zeros(len(lengths) + 1, dtype=np.int64)
        np.cumsum(lengths, out=offsets[1:])
        return cls(types=tuple(types), ids=np.concatenate(ids), offsets=offsets)


# The one batching rule (``batches``), with two budgets. Token work (mapping
# texts, joining, counting and scoring rows) runs about ``BATCH_TOKENS`` tokens
# at a time; the cut, whose arrays grow with sentences times 2**reach, about
# ``CUT_BATCH_SENTENCES`` sentences. Each is read when its step runs.
BATCH_TOKENS = 1 << 16
CUT_BATCH_SENTENCES = 8192


def batches(sizes: Sequence[int], budget: int) -> list[range]:
    """Consecutive ranges of the items of ``sizes``, in order, none empty:
    each closes at the item that takes the running total of sizes to the
    next multiple of ``budget``, and the last takes what is left. No item is
    split, so one larger than the budget is a range of its own."""
    ends = np.cumsum(sizes, dtype=np.int64)
    if not len(ends):
        return []
    cuts = np.searchsorted(ends, np.arange(budget, ends[-1] + 1, budget)) + 1
    stops = np.union1d(cuts, [len(ends)]).tolist()
    return [range(a, b) for a, b in zip([0] + stops, stops)]


def presence_matrix(groups: Sequence[tuple[Sequence[str], Sequence[int]]]) -> PresenceMatrix:
    """One row per text of ``groups``, in order. A group is (texts, counts),
    ``counts[k]`` the whitespace-separated words of ``texts[k]``: its texts are
    tokenized as one, joined by newlines, and cut into rows by the counts.
    Each batch of groups, by their words, drops its rows' repeats at once."""
    type_id: defaultdict[str, int] = defaultdict(itertools.count().__next__)
    runs = []
    for batch in batches([sum(counts) for _, counts in groups], BATCH_TOKENS):
        tokens = itertools.chain.from_iterable(tokenize("\n".join(groups[g][0])) for g in batch)
        ids = np.fromiter(map(type_id.__getitem__, tokens), dtype=np.int32)
        lengths = np.fromiter(itertools.chain.from_iterable(groups[g][1] for g in batch), np.int64)
        runs.append(distinct_runs(ids, lengths, len(type_id)))
    return PresenceMatrix.from_runs(type_id, runs)


def distinct_runs(
    ids: np.ndarray, lengths: np.ndarray, n_types: int
) -> tuple[np.ndarray, np.ndarray]:
    """Drop the repeats within each run of ``ids``: the kept ids and each run's new length.

    Run r is the next ``lengths[r]`` entries of ``ids``, all below ``n_types``.
    A run keeps the first occurrence of each id, in its order. One sort of
    (run, id, position in run) keys puts each id's first occurrence in a run
    first among its copies.
    """
    lengths = np.asarray(lengths, dtype=np.int64)
    width = int(lengths.max(initial=0)) or 1
    stride = max(n_types, 1) * width  # the keys of one run
    if len(lengths) * stride >= 2**63:
        raise ValueError(f"{len(lengths)} runs of up to {width} ids overflow the sort keys")
    starts = np.cumsum(lengths) - lengths
    keys = np.repeat(np.arange(len(lengths)) * stride - starts, lengths)
    keys += np.arange(len(keys))
    keys += ids.astype(np.int64) * width
    keys.sort()
    pairs = keys // width
    first = np.ones(len(keys), dtype=bool)
    np.not_equal(pairs[1:], pairs[:-1], out=first[1:])
    kept = keys[first]
    run_of = kept // stride
    positions = np.sort(starts[run_of] + kept % width)
    return ids[positions], np.bincount(run_of, minlength=len(lengths))


def join_rows(
    matrix: PresenceMatrix, rows: np.ndarray, group_lengths: np.ndarray
) -> PresenceMatrix:
    """One row per group of ``matrix`` rows, over the same type table.

    ``rows`` lists the rows of the groups one group after another,
    ``group_lengths[g]`` of them for group g. A group's row holds the
    distinct ids of its rows in order of first occurrence, the row of its
    texts joined by whitespace. Groups are joined a batch at a time, by
    their tokens.
    """
    rows = np.asarray(rows, dtype=np.intp)
    first = np.concatenate(([0], np.cumsum(group_lengths, dtype=np.int64)))
    tokens = np.concatenate(([0], np.cumsum(matrix.offsets[rows + 1] - matrix.offsets[rows])))
    sizes = np.diff(tokens[first])
    runs = []
    for batch in batches(sizes, BATCH_TOKENS):
        ids, _ = _row_ids(matrix, rows[first[batch.start] : first[batch.stop]])
        runs.append(distinct_runs(ids, sizes[batch.start : batch.stop], len(matrix.types)))
    return PresenceMatrix.from_runs(matrix.types, runs)


def _row_ids(matrix: PresenceMatrix, rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The ids of ``rows``, concatenated in the order given, and each row's length."""
    rows = np.asarray(rows, dtype=np.intp)
    starts = matrix.offsets[rows]
    lengths = matrix.offsets[rows + 1] - starts
    ends = np.cumsum(lengths)
    positions = np.repeat(starts - ends + lengths, lengths)
    positions += np.arange(len(positions))
    return matrix.ids[positions], lengths


def class_counts(matrix: PresenceMatrix, rows: np.ndarray, labels: np.ndarray) -> np.ndarray:
    """The (2, types) array of how many ``rows`` of each class hold each type.

    ``labels[j]`` is the 0/1 class of ``rows[j]``. Ids are distinct within a
    row, so one count per token is one count per row.
    """
    ids, lengths = _row_ids(matrix, rows)
    return _class_counts(ids, np.repeat(labels, lengths), len(matrix.types))


def _class_counts(ids: np.ndarray, token_labels: np.ndarray, n_types: int) -> np.ndarray:
    draws = token_labels.astype(np.int64) * n_types + ids
    return np.bincount(draws, minlength=2 * n_types).reshape(2, n_types)


@dataclass(frozen=True)
class TypeCounts:
    """What a vocabulary over any fold's complement needs to know of each type.

    Positions number the tokens of all rows of a matrix, one row after
    another. ``counts[c, t]`` is the number of class-c rows holding type t;
    ``first[t]`` is t's first position and ``first_fold[t]`` the fold of its
    row; ``later[t]`` is t's first position in a row of any other fold. A
    position past the last token stands for none.
    """

    counts: np.ndarray  # (2, types) int64
    first: np.ndarray
    first_fold: np.ndarray
    later: np.ndarray

    def columns(
        self, min_doc_freq: int = 1, fold: int = -1, held: np.ndarray | None = None
    ) -> tuple[np.ndarray, np.ndarray]:
        """The vocabulary of the rows outside ``fold``: its type ids in index
        order, and their per-class counts over those rows.

        ``held`` is the held-out fold's ``class_counts`` (none by default, when
        every row is kept). The vocabulary keeps the types found in at least
        ``min_doc_freq`` of the kept rows, indexed by their first position in
        a kept row: ``first``, or ``later`` when ``first`` is in the held-out
        fold. An empty result is the empty vocabulary; no error is raised.
        """
        if min_doc_freq < 1:
            raise ValueError(f"min_doc_freq must be >= 1, got {min_doc_freq}")
        counts = self.counts if held is None else self.counts - held
        kept = np.flatnonzero(counts.sum(axis=0) >= min_doc_freq)
        first = self.first[kept]
        np.copyto(first, self.later[kept], where=self.first_fold[kept] == fold)
        columns = kept[np.argsort(first)]
        return columns, counts[:, columns]


def type_counts(matrix: PresenceMatrix, labels: np.ndarray, fold_of: np.ndarray) -> TypeCounts:
    """The ``TypeCounts`` of every row of ``matrix``, from one pass over its ids.

    Row r has the 0/1 class ``labels[r]`` and the fold ``fold_of[r]`` (>= 0).
    The pass reads a batch of rows at a time, by their tokens; within a
    batch, a token is its type's first occurrence when its position equals
    the type's least position so far.
    """
    n_types, offsets = len(matrix.types), matrix.offsets
    fold_of = np.asarray(fold_of, dtype=np.int64)
    counts = np.zeros((2, n_types), dtype=np.int64)
    first = np.full(n_types, offsets[-1])
    first_fold = np.full(n_types, -1)
    later = first.copy()
    for batch in batches(np.diff(offsets), BATCH_TOKENS):
        a, b = batch.start, batch.stop
        lengths = np.diff(offsets[a : b + 1])
        ids = matrix.ids[offsets[a] : offsets[b]]
        positions = np.arange(offsets[a], offsets[b])
        counts += _class_counts(ids, np.repeat(labels[a:b], lengths), n_types)
        np.minimum.at(first, ids, positions)
        token_fold = np.repeat(fold_of[a:b], lengths)
        new = first[ids] == positions
        first_fold[ids[new]] = token_fold[new]
        other = token_fold != first_fold[ids]
        np.minimum.at(later, ids[other], positions[other])
    return TypeCounts(counts=counts, first=first, first_fold=first_fold, later=later)


@dataclass(frozen=True)
class FeatureRows:
    """Presence vectors of many texts, in compressed sparse row form.

    Row ``i`` is active at the sorted columns ``indices[indptr[i]:indptr[i + 1]]``
    and holds nothing else: presence only, with no value per entry.
    """

    indptr: np.ndarray
    indices: np.ndarray  # np.intp, so indexing with a row needs no conversion
    n_features: int

    def __len__(self) -> int:
        return len(self.indptr) - 1

    @property
    def lengths(self) -> np.ndarray:
        return np.diff(self.indptr)

    def rows(self) -> list[np.ndarray]:
        """Each row's active columns, as views into ``indices``."""
        bounds = self.indptr.tolist()
        return [self.indices[a:b] for a, b in zip(bounds, bounds[1:])]


def featurize_rows(
    matrix: PresenceMatrix, column_of: np.ndarray, n_features: int, rows: np.ndarray
) -> FeatureRows:
    """Presence vectors of ``rows`` over a vocabulary of ``n_features`` tokens.

    ``column_of[i]`` is the vocabulary index of the type with id i, or -1 for
    a type outside the vocabulary (see the ``column_map`` methods). Repeated
    tokens count once and out-of-vocabulary tokens are dropped.
    """
    ids, lengths = _row_ids(matrix, rows)
    cols = column_of[ids]
    del ids
    kept = cols >= 0
    keys = cols[kept].astype(np.intp, copy=False)
    del cols  # each token-length temporary goes as soon as it is used
    row_of = np.repeat(np.arange(len(lengths)), lengths)[kept]
    del kept
    indptr = np.zeros(len(lengths) + 1, dtype=np.intp)
    np.cumsum(np.bincount(row_of, minlength=len(lengths)), out=indptr[1:])
    row_of *= n_features
    keys += row_of
    keys.sort()  # rows stay in order, with their sizes; within a row, columns ascend
    keys -= row_of
    return FeatureRows(indptr=indptr, indices=keys, n_features=n_features)
