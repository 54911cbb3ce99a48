import math

import numpy as np
import pytest
from hypothesis import example, given, strategies as st

from subjcut.features import (
    EmptyVocabularyError,
    Vocabulary,
    build_vocabulary,
    featurize,
    featurize_rows,
    presence_matrix,
    vocabulary_columns,
)

tokens_strategy = st.lists(
    st.sampled_from("good bad film plot great dull the a of scene".split()),
    max_size=12,
)


class TestBuildVocabulary:
    def test_counts_all_tokens(self):
        vocab = build_vocabulary([["good", "film"], ["good", "plot"]])
        assert vocab.size == 3

    def test_doc_frequency_cutoff(self):
        vocab = build_vocabulary([["good", "film"], ["good", "plot"]], min_doc_freq=2)
        assert vocab.size == 1
        assert "good" in vocab

    def test_repeats_within_text_count_once(self):
        # df(good)=2 despite the repeat, df(plot)=1
        vocab = build_vocabulary([["good", "good"], ["good", "plot"]], min_doc_freq=2)
        assert vocab.token_to_index == {"good": 0}

    def test_first_occurrence_order(self):
        vocab = build_vocabulary([["b", "a"], ["c", "a"]])
        assert vocab.token_to_index == {"b": 0, "a": 1, "c": 2}

    def test_deterministic_across_rebuilds(self):
        texts = [["good", "film"], ["bad", "plot", "film"], ["dull"]]
        assert build_vocabulary(texts).token_to_index == build_vocabulary(texts).token_to_index

    def test_empty_inputs_rejected(self):
        with pytest.raises(EmptyVocabularyError):
            build_vocabulary([])
        with pytest.raises(EmptyVocabularyError):
            build_vocabulary([[], []])
        with pytest.raises(ValueError):
            build_vocabulary([["a"]], min_doc_freq=0)


class TestFeaturize:
    def test_presence_not_counts(self):
        vocab = build_vocabulary([["good", "movie"]])
        vec = featurize(["good", "good", "movie"], vocab)
        assert vec.active_indices == (0, 1)
        assert vec.value_per_active == 1.0

    def test_empty_input_is_zero_vector(self):
        vocab = build_vocabulary([["good"]])
        vec = featurize([], vocab)
        assert vec.active_indices == ()

    def test_unknown_tokens_dropped(self):
        vocab = build_vocabulary([["good"]])
        vec = featurize(["good", "unseen"], vocab)
        assert vec.active_indices == (0,)

    def test_normalization(self):
        vocab = build_vocabulary([["good", "movie"]])
        vec = featurize(["good", "movie"], vocab, normalize=True)
        assert vec.value_per_active == pytest.approx(1 / math.sqrt(2))
        assert vec.norm == pytest.approx(1.0, abs=1e-9)

    def test_empty_normalized_stays_zero(self):
        vocab = build_vocabulary([["good"]])
        vec = featurize([], vocab, normalize=True)
        assert vec.norm == 0.0

    @given(tokens_strategy)
    def test_idempotent_under_repetition(self, tokens):
        vocab = build_vocabulary([["good", "bad", "film", "plot", "great", "dull"]])
        assert featurize(tokens, vocab) == featurize(tokens + tokens, vocab)

    @given(tokens_strategy)
    def test_multiset_equals_set(self, tokens):
        vocab = build_vocabulary([["good", "bad", "film", "plot", "great", "dull"]])
        assert featurize(tokens, vocab) == featurize(sorted(set(tokens)), vocab)

    @given(tokens_strategy)
    def test_normalized_norm_is_unit_or_zero(self, tokens):
        vocab = build_vocabulary([["good", "bad", "film", "plot", "great", "dull"]])
        vec = featurize(tokens, vocab, normalize=True)
        if vec.active_indices:
            assert vec.norm == pytest.approx(1.0, abs=1e-9)
        else:
            assert vec.norm == 0.0


texts_strategy = st.lists(st.lists(st.sampled_from("a b c d e f".split()), max_size=8), max_size=10)


def reference_vocabulary(texts, min_doc_freq):
    try:
        return build_vocabulary(texts, min_doc_freq)
    except EmptyVocabularyError:
        return Vocabulary(token_to_index={})


class TestPresenceMatrix:
    """Column selection and row featurization against build_vocabulary and featurize."""

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
        columns = vocabulary_columns(matrix, np.array(train, dtype=int), min_doc_freq)
        vocab = reference_vocabulary([texts[i] for i in train], min_doc_freq)
        assert list(matrix.vocabulary(columns).token_to_index.items()) == list(
            vocab.token_to_index.items()
        )
        for normalize in (False, True):
            features = featurize_rows(matrix, columns, np.array(rows, dtype=int), normalize)
            assert len(features) == n and features.n_features == vocab.size
            assert features.indices.dtype == np.intp
            assert features.vectors() == [featurize(texts[i], vocab, normalize) for i in rows]

    def test_frequency_cutoff_can_empty_the_vocabulary(self):
        texts = [["a", "b"], ["c"], []]
        matrix = presence_matrix(texts)
        columns = vocabulary_columns(matrix, np.arange(3), min_doc_freq=2)
        assert len(columns) == 0
        features = featurize_rows(matrix, columns, np.arange(3))
        assert features.n_features == 0
        assert [len(r) for r in features.rows()] == [0, 0, 0]

    def test_rows_hold_distinct_ids_in_first_occurrence_order(self):
        matrix = presence_matrix([["b", "a", "b"], [], ["c", "a"]])
        assert matrix.types == ("b", "a", "c")
        assert matrix.ids.tolist() == [0, 1, 2, 1]
        assert matrix.offsets.tolist() == [0, 2, 2, 4]

    def test_min_doc_freq_must_be_positive(self):
        with pytest.raises(ValueError):
            vocabulary_columns(presence_matrix([["a"]]), np.arange(1), min_doc_freq=0)


class TestSerialization:
    def test_save_load_round_trip(self, tmp_path):
        vocab = build_vocabulary([["good", "film"], ["bad"]])
        path = tmp_path / "vocab.tsv"
        vocab.save(path)
        assert Vocabulary.load(path).token_to_index == vocab.token_to_index
        assert path.read_text() == "good\t0\nfilm\t1\nbad\t2\n"

    def test_digest_tracks_content(self):
        v1 = build_vocabulary([["good", "film"]])
        v2 = build_vocabulary([["good", "film"]])
        v3 = build_vocabulary([["film", "good"]])
        assert v1.digest() == v2.digest()
        assert v1.digest() != v3.digest()

    def test_load_rejects_sparse_indices(self, tmp_path):
        path = tmp_path / "bad.tsv"
        path.write_text("good\t0\nfilm\t2\n")
        with pytest.raises(ValueError):
            Vocabulary.load(path)
