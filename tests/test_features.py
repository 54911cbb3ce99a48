import math

import numpy as np
import pytest
from hypothesis import example, given, strategies as st

from subjcut.classifiers import TrainingError, nb_from_counts
from subjcut import features
from subjcut.corpus import OBJECTIVE, SUBJECTIVE, LabeledSentence
from subjcut.evaluation import train_detector_model
from subjcut.features import (
    EmptyVocabularyError,
    Vocabulary,
    class_counts,
    distinct_runs,
    featurize_rows,
    presence_matrix,
    type_counts,
)

from planted_corpus import rows_over, vocabulary_of
from references import nb_train

tokens_strategy = st.lists(
    st.sampled_from("good bad film plot great dull the a of scene".split()),
    max_size=12,
)


def featurize_one(tokens, vocab, normalize=False):
    """One text's presence vector over ``vocab``: (active columns, value per active)."""
    rows = rows_over([tokens], vocab, normalize)
    return rows.indices.tolist(), float(rows.values[0])


def kept_columns(matrix, kept, min_doc_freq=1):
    """The vocabulary columns over the rows where ``kept`` is true; the others
    are held out as fold 1."""
    fold_of = np.where(kept, 0, 1)
    zeros = np.zeros(len(matrix), dtype=np.int64)
    held = class_counts(matrix, np.flatnonzero(fold_of == 1), zeros[fold_of == 1])
    return type_counts(matrix, zeros, fold_of).columns(min_doc_freq, 1, held)[0]


def norm(vector):
    active, value = vector
    return value * math.sqrt(len(active))


class TestBuildVocabulary:
    """Vocabularies built by column selection over a presence matrix."""

    def test_counts_all_tokens(self):
        vocab = vocabulary_of([["good", "film"], ["good", "plot"]])
        assert vocab.size == 3

    def test_doc_frequency_cutoff(self):
        vocab = vocabulary_of([["good", "film"], ["good", "plot"]], min_doc_freq=2)
        assert vocab.size == 1
        assert "good" in vocab

    def test_repeats_within_text_count_once(self):
        # df(good)=2 despite the repeat, df(plot)=1
        vocab = vocabulary_of([["good", "good"], ["good", "plot"]], min_doc_freq=2)
        assert vocab.token_to_index == {"good": 0}

    def test_first_occurrence_order(self):
        vocab = vocabulary_of([["b", "a"], ["c", "a"]])
        assert vocab.token_to_index == {"b": 0, "a": 1, "c": 2}

    def test_deterministic_across_rebuilds(self):
        texts = [["good", "film"], ["bad", "plot", "film"], ["dull"]]
        assert vocabulary_of(texts).token_to_index == vocabulary_of(texts).token_to_index

    def test_empty_inputs_rejected(self):
        # no texts, or only empty ones, select no columns; detector training refuses that
        for texts in ([], [[], []]):
            matrix = presence_matrix(texts)
            assert len(kept_columns(matrix, np.ones(len(texts), dtype=bool))) == 0
        with pytest.raises(EmptyVocabularyError):
            train_detector_model([])
        sentences = [LabeledSentence("good film", SUBJECTIVE), LabeledSentence("a plot", OBJECTIVE)]
        with pytest.raises(EmptyVocabularyError):
            train_detector_model(sentences, min_doc_freq=2)
        with pytest.raises(ValueError):
            kept_columns(presence_matrix([["a"]]), np.ones(1, dtype=bool), min_doc_freq=0)


class TestFeaturize:
    """One text's presence row over a saved vocabulary."""

    def test_presence_not_counts(self):
        vocab = vocabulary_of([["good", "movie"]])
        assert featurize_one(["good", "good", "movie"], vocab) == ([0, 1], 1.0)

    def test_empty_input_is_zero_vector(self):
        vocab = vocabulary_of([["good"]])
        assert featurize_one([], vocab)[0] == []

    def test_unknown_tokens_dropped(self):
        vocab = vocabulary_of([["good"]])
        assert featurize_one(["good", "unseen"], vocab)[0] == [0]

    def test_normalization(self):
        vocab = vocabulary_of([["good", "movie"]])
        vec = featurize_one(["good", "movie"], vocab, normalize=True)
        assert vec[1] == pytest.approx(1 / math.sqrt(2))
        assert norm(vec) == pytest.approx(1.0, abs=1e-9)

    def test_empty_normalized_stays_zero(self):
        vocab = vocabulary_of([["good"]])
        assert norm(featurize_one([], vocab, normalize=True)) == 0.0

    @given(tokens_strategy)
    def test_idempotent_under_repetition(self, tokens):
        vocab = vocabulary_of([["good", "bad", "film", "plot", "great", "dull"]])
        assert featurize_one(tokens, vocab) == featurize_one(tokens + tokens, vocab)

    @given(tokens_strategy)
    def test_multiset_equals_set(self, tokens):
        vocab = vocabulary_of([["good", "bad", "film", "plot", "great", "dull"]])
        assert featurize_one(tokens, vocab) == featurize_one(sorted(set(tokens)), vocab)

    @given(tokens_strategy)
    def test_normalized_norm_is_unit_or_zero(self, tokens):
        vocab = vocabulary_of([["good", "bad", "film", "plot", "great", "dull"]])
        vec = featurize_one(tokens, vocab, normalize=True)
        if vec[0]:
            assert norm(vec) == pytest.approx(1.0, abs=1e-9)
        else:
            assert norm(vec) == 0.0


texts_strategy = st.lists(st.lists(st.sampled_from("a b c d e f".split()), max_size=8), max_size=10)


def reference_vocabulary(texts, min_doc_freq):
    """token -> index over the tokens in at least ``min_doc_freq`` texts, by first occurrence."""
    doc_freq = {}
    for text in texts:
        for token in set(text):
            doc_freq[token] = doc_freq.get(token, 0) + 1
    first_seen = dict.fromkeys(t for text in texts for t in text)
    return {t: i for i, t in enumerate(t for t in first_seen if doc_freq[t] >= min_doc_freq)}


def reference_rows(texts, vocab, normalize):
    """(indptr, indices, values) of the texts' presence vectors over ``vocab``."""
    indptr, indices, values = [0], [], []
    for text in texts:
        active = sorted({vocab[t] for t in text if t in vocab})
        indices += active
        indptr.append(len(indices))
        values.append(1.0 / math.sqrt(len(active)) if normalize and active else 1.0)
    return indptr, indices, values


class TestPresenceMatrix:
    """Column selection and row featurization against a plain-dict reference."""

    @given(texts_strategy, st.integers(1, 3), st.data())
    @example(texts=[[], []], min_doc_freq=1, data=None)  # an all-empty fold
    def test_columns_and_rows_match_the_per_text_path(self, texts, min_doc_freq, data):
        n = len(texts)
        if data is None:
            train, rows = list(range(n)), list(range(n))
        else:
            in_train = data.draw(st.lists(st.booleans(), min_size=n, max_size=n))
            train = [i for i in range(n) if in_train[i]]
            rows = data.draw(st.permutations(range(n)))
        matrix = presence_matrix(iter(texts))
        columns = kept_columns(matrix, np.isin(np.arange(n), train), min_doc_freq)
        vocab = reference_vocabulary([texts[i] for i in train], min_doc_freq)
        saved = matrix.vocabulary(columns)
        assert list(saved.token_to_index.items()) == list(vocab.items())
        # the rows in a matrix of their own, where some vocabulary tokens may be missing
        alone = presence_matrix(texts[i] for i in rows)
        for normalize in (False, True):
            want = reference_rows([texts[i] for i in rows], vocab, normalize)
            for features in (
                featurize_rows(
                    matrix, matrix.column_map(columns), len(columns),
                    np.array(rows, dtype=int), normalize,
                ),
                featurize_rows(
                    alone, saved.column_map(alone.types), saved.size, np.arange(n), normalize
                ),
            ):
                assert len(features) == n and features.n_features == len(vocab)
                assert features.indices.dtype == np.intp
                got = features.indptr, features.indices, features.values
                assert tuple(a.tolist() for a in got) == want

    def test_frequency_cutoff_can_empty_the_vocabulary(self):
        texts = [["a", "b"], ["c"], []]
        matrix = presence_matrix(texts)
        columns = kept_columns(matrix, np.ones(3, dtype=bool), min_doc_freq=2)
        assert len(columns) == 0
        features = featurize_rows(matrix, matrix.column_map(columns), 0, np.arange(3))
        assert features.n_features == 0
        assert [len(r) for r in features.rows()] == [0, 0, 0]

    def test_rows_hold_distinct_ids_in_first_occurrence_order(self):
        matrix = presence_matrix([["b", "a", "b"], [], ["c", "a"]])
        assert matrix.types == ("b", "a", "c")
        assert matrix.ids.tolist() == [0, 1, 2, 1]
        assert matrix.offsets.tolist() == [0, 2, 2, 4]
        assert len(matrix) == 3

    def test_min_doc_freq_must_be_positive(self):
        with pytest.raises(ValueError):
            kept_columns(presence_matrix([["a"]]), np.ones(1, dtype=bool), min_doc_freq=0)

    @given(st.lists(st.lists(st.integers(0, 6), max_size=8), max_size=6))
    def test_distinct_runs_keep_first_occurrences(self, runs):
        ids = np.array([i for run in runs for i in run], dtype=np.int32)
        got_ids, got_lengths = distinct_runs(ids, np.array([len(r) for r in runs]), 7)
        want = [list(dict.fromkeys(run)) for run in runs]
        assert got_ids.tolist() == [i for run in want for i in run]
        assert got_ids.dtype == np.int32
        assert got_lengths.tolist() == [len(run) for run in want]

    def test_distinct_runs_refuse_keys_beyond_int64(self):
        with pytest.raises(ValueError, match="overflow"):
            distinct_runs(np.zeros(2, dtype=np.int32), np.array([1, 1]), 2**62)


def reference_vocabulary_columns(matrix, rows, min_doc_freq):
    """A fold's vocabulary as a scan of its training ``rows`` selects it: the
    types in at least ``min_doc_freq`` of them, by first occurrence across them."""
    ids = np.concatenate(
        [np.zeros(0, dtype=np.int32)]
        + [matrix.ids[matrix.offsets[r] : matrix.offsets[r + 1]] for r in rows]
    )
    first = np.full(len(matrix.types), len(ids))
    np.minimum.at(first, ids, np.arange(len(ids)))
    doc_freq = np.bincount(ids, minlength=len(matrix.types))
    kept = np.flatnonzero(doc_freq >= min_doc_freq)
    return kept[np.argsort(first[kept])]


@st.composite
def folded_texts(draw):
    """Texts with interleaved fold ids and 0/1 labels, and the number of folds."""
    texts = draw(st.lists(tokens_strategy, max_size=14))
    folds = draw(st.integers(2, 4))
    n = len(texts)
    fold_of = draw(st.lists(st.integers(0, folds - 1), min_size=n, max_size=n))
    labels = draw(st.lists(st.integers(0, 1), min_size=n, max_size=n))
    return texts, fold_of, labels, folds


class TestFoldCounts:
    """One pass of per-class counts, minus each held-out fold, against a scan of
    each fold's training rows and NB trained on their presence vectors."""

    @given(folded_texts(), st.integers(1, 3))
    # "x" occurs only in the held-out fold 0
    @example(case=([["x"], ["a"], ["a"], ["b"]], [0, 1, 1, 0], [0, 1, 0, 1], 2), min_doc_freq=1)
    # "a" and "b" first occur in the held-out fold 0, then in training in the other order
    @example(
        case=([["a", "b"], ["c"], ["b", "a"], ["c", "a"]], [0, 1, 1, 0], [1, 0, 1, 0], 2),
        min_doc_freq=1,
    )
    # holding out fold 0 leaves two empty rows, so an empty vocabulary: the prior only
    @example(case=([["a"], [], ["a"], []], [0, 1, 0, 1], [0, 0, 1, 1], 2), min_doc_freq=1)
    @example(case=([[], [], [], []], [0, 1, 0, 1], [0, 1, 1, 0], 2), min_doc_freq=1)
    @example(case=([["a"], ["b"], ["a"], ["b"]], [0, 1, 0, 1], [0, 1, 1, 0], 2), min_doc_freq=3)
    def test_fold_columns_and_nb_equal_the_training_row_scan(self, case, min_doc_freq):
        texts, fold_of, labels, folds = case
        fold_of, labels = np.array(fold_of, dtype=int), np.array(labels, dtype=int)
        matrix = presence_matrix(texts)
        stats = type_counts(matrix, labels, fold_of)
        for fold in range(folds):
            test, train = np.flatnonzero(fold_of == fold), np.flatnonzero(fold_of != fold)
            held = class_counts(matrix, test, labels[test])
            columns, counts = stats.columns(min_doc_freq, fold, held)
            want = reference_vocabulary_columns(matrix, train, min_doc_freq)
            assert columns.tolist() == want.tolist()
            rows = featurize_rows(matrix, matrix.column_map(want), len(want), train)
            classes = np.bincount(labels[train], minlength=2)
            if classes.min() == 0:
                for train_model in (
                    lambda: nb_train(rows, labels[train]),
                    lambda: nb_from_counts(counts, classes),
                ):
                    with pytest.raises(TrainingError):
                        train_model()
                continue
            expected, got = nb_train(rows, labels[train]), nb_from_counts(counts, classes)
            assert got.log_prior.tobytes() == expected.log_prior.tobytes()
            assert got.log_likelihood.shape == expected.log_likelihood.shape == (2, len(want))
            assert got.log_likelihood.tobytes() == expected.log_likelihood.tobytes()

    def test_a_row_longer_than_a_batch(self, monkeypatch):
        # batches cut between rows, so a row of more tokens than a batch is read whole
        texts = [["a", "b", "c"], ["d"], ["b", "e", "f", "a"], [], ["g"]]
        matrix = presence_matrix(texts)
        labels, fold_of = np.array([0, 1, 1, 0, 1]), np.array([1, 0, 0, 0, 1])
        whole = type_counts(matrix, labels, fold_of)
        monkeypatch.setattr(features, "COUNT_BATCH_TOKENS", 2)
        batched = type_counts(matrix, labels, fold_of)
        for name in ("counts", "first", "first_fold", "later"):
            assert getattr(batched, name).tolist() == getattr(whole, name).tolist()
        # types a..g; positions 0-2 in row 0, 3 in row 1, 4-7 in row 2, 8 in row 4
        assert whole.counts.tolist() == [[1, 1, 1, 0, 0, 0, 0], [1, 1, 0, 1, 1, 1, 1]]
        assert whole.first.tolist() == [0, 1, 2, 3, 5, 6, 8]
        assert whole.first_fold.tolist() == [1, 1, 1, 0, 0, 0, 1]
        assert whole.later.tolist() == [7, 4, 9, 9, 9, 9, 9]  # 9: none


class TestSerialization:
    def test_save_load_round_trip(self, tmp_path):
        vocab = vocabulary_of([["good", "film"], ["bad"]])
        path = tmp_path / "vocab.tsv"
        vocab.save(path)
        assert Vocabulary.load(path).token_to_index == vocab.token_to_index
        assert path.read_text() == "good\t0\nfilm\t1\nbad\t2\n"

    def test_digest_tracks_content(self):
        v1 = vocabulary_of([["good", "film"]])
        v2 = vocabulary_of([["good", "film"]])
        v3 = vocabulary_of([["film", "good"]])
        assert v1.digest() == v2.digest()
        assert v1.digest() != v3.digest()

    def test_load_rejects_sparse_indices(self, tmp_path):
        path = tmp_path / "bad.tsv"
        path.write_text("good\t0\nfilm\t2\n")
        with pytest.raises(ValueError):
            Vocabulary.load(path)
