import ast
import functools
import json
import logging
import math
import operator
import os
import re
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st

import subjcut
from subjcut.classifiers import (
    IndividualScores,
    LinearMarginModel,
    NaiveBayesModel,
    _pairwise_sums,
    _row_scales,
    _sentinel_gather,
    _sequential_sums,
    TrainingError,
    VocabularyMismatchError,
    load_model,
    nb_predict_prob,
    save_model,
    svm_margin,
    svm_to_individual,
    svm_train,
)
from subjcut.features import FeatureRows

from planted_corpus import (
    make_review_lines,
    make_sentence_corpus,
    rows_over,
    vocabulary_of,
)
from references import nb_train


def rows_and_vocab(texts):
    """Presence rows of ``texts`` over the vocabulary built from all of them."""
    vocab = vocabulary_of(texts)
    return rows_over(texts, vocab), vocab


@pytest.fixture
def tiny_nb():
    """Two training examples: {good}->class1, {bad}->class0, alpha=1."""
    rows, vocab = rows_and_vocab([["good"], ["bad"]])
    return replace(nb_train(rows, [1, 0], alpha=1.0), vocab_digest=vocab.digest()), vocab


class TestNaiveBayes:
    def test_smoothed_likelihoods_by_hand(self, tiny_nb):
        model, vocab = tiny_nb
        # class 1 saw one token total over V=2: P(good|1) = (1+1)/(1+2)
        good = vocab.token_to_index["good"]
        assert math.exp(model.log_likelihood[1, good]) == pytest.approx(2 / 3)
        assert math.exp(model.log_likelihood[0, good]) == pytest.approx(1 / 3)

    def test_balanced_priors(self, tiny_nb):
        model, _ = tiny_nb
        assert model.log_prior == pytest.approx([math.log(0.5), math.log(0.5)])
        assert np.exp(model.log_prior).sum() == pytest.approx(1.0, abs=1e-9)

    def test_posterior_by_hand(self, tiny_nb):
        # balanced priors, so posterior = (2/3) / (2/3 + 1/3)
        model, vocab = tiny_nb
        [p] = nb_predict_prob(model, rows_over([["good"]], vocab))
        assert p == pytest.approx(2 / 3)

    def test_empty_vector_gives_prior(self, tiny_nb):
        model, vocab = tiny_nb
        assert nb_predict_prob(model, rows_over([[]], vocab)) == pytest.approx([0.5])

    def test_adding_indicative_token_raises_posterior(self, tiny_nb):
        model, vocab = tiny_nb
        p_empty, p_good = nb_predict_prob(model, rows_over([[], ["good"]], vocab))
        assert p_good > p_empty

    def test_complement_symmetry(self, tiny_nb):
        model, vocab = tiny_nb
        rows = rows_over([[], ["good"], ["bad"], ["good", "bad"]], vocab)
        for idx, p1 in zip(rows.rows(), nb_predict_prob(model, rows)):
            joint = model.log_prior + model.log_likelihood[:, idx].sum(axis=1)
            p0 = float(np.exp(joint[0] - np.logaddexp(joint[0], joint[1])))
            assert p1 + p0 == pytest.approx(1.0, abs=1e-9)

    def test_label_swap_complements_posteriors(self):
        texts = [["good", "fine"], ["bad"], ["good"]]
        rows, vocab = rows_and_vocab(texts)
        labels = [1, 0, 1]
        model = nb_train(rows, labels)
        flipped = nb_train(rows, [1 - y for y in labels])
        assert nb_predict_prob(flipped, rows) == pytest.approx(
            1.0 - nb_predict_prob(model, rows), abs=1e-12
        )

    @given(
        st.lists(
            st.tuples(st.lists(st.sampled_from("abcde"), max_size=6), st.integers(0, 1)),
            min_size=2,
            max_size=12,
        )
    )
    def test_counts_are_the_per_vector_sums(self, examples):
        texts = [t for t, _ in examples]
        labels = [y for _, y in examples]
        assume(set(labels) == {0, 1})
        rows, vocab = rows_and_vocab(texts)
        counts = np.zeros((2, vocab.size))
        for tokens, y in zip(texts, labels):
            counts[y, sorted({vocab.token_to_index[t] for t in tokens})] += 1.0
        totals = counts.sum(axis=1, keepdims=True)
        expected = np.log(counts + 1.0) - np.log(totals + vocab.size) if vocab.size else counts
        assert np.array_equal(nb_train(rows, labels).log_likelihood, expected)

    def test_single_class_rejected(self):
        rows, _ = rows_and_vocab([["good"]] * 3)
        with pytest.raises(TrainingError):
            nb_train(rows, [1, 1, 1])

    def test_bad_alpha_rejected(self):
        rows, _ = rows_and_vocab([["good"], ["bad"]])
        with pytest.raises(ValueError):
            nb_train(rows, [1, 0], alpha=0.0)

    @pytest.mark.parametrize("alpha", [math.nan, math.inf])
    def test_nonfinite_alpha_rejected(self, alpha):
        rows, _ = rows_and_vocab([["good"], ["bad"]])
        with pytest.raises(ValueError, match="alpha must be > 0 and finite"):
            nb_train(rows, [1, 0], alpha=alpha)

    def test_training_is_deterministic(self, tmp_path):
        rows, _ = rows_and_vocab([["good"], ["bad"]])
        first, second = tmp_path / "m1.json", tmp_path / "m2.json"
        save_model(nb_train(rows, [1, 0]), first)
        save_model(nb_train(rows, [1, 0]), second)
        assert first.read_bytes() == second.read_bytes()

    def test_probability_bounds_on_random_inputs(self, tiny_nb):
        model, vocab = tiny_nb
        rng = np.random.default_rng(0)
        texts = [
            list(rng.choice(["good", "bad", "zzz"], size=rng.integers(0, 5))) for _ in range(50)
        ]
        p = nb_predict_prob(model, rows_over(texts, vocab))
        assert p.shape == (50,)
        assert ((0.0 <= p) & (p <= 1.0)).all()

    @given(st.lists(st.lists(st.sampled_from(["good", "bad", "zzz"]), max_size=5), max_size=8))
    def test_rows_match_the_per_row_formula(self, texts):
        rows, vocab = rows_and_vocab([["good"], ["bad", "good"]])
        model = nb_train(rows, [1, 0])

        def posterior(idx):  # one row at a time, exactly
            joint = model.log_prior.copy()
            if len(idx):
                joint = joint + model.log_likelihood[:, idx].sum(axis=1)
            return float(np.exp(joint[1] - np.logaddexp(joint[0], joint[1])))

        rows = rows_over(texts, vocab)
        assert nb_predict_prob(model, rows).tolist() == [posterior(idx) for idx in rows.rows()]


def scaled_one(tokens, vocab):
    """One text's presence vector over ``vocab`` as the SVM weighs it:
    (active columns, value per active)."""
    rows = rows_over([tokens], vocab)
    return rows.indices.tolist(), float(_row_scales(rows)[0])


def norm(vector):
    active, value = vector
    return value * math.sqrt(len(active))


class TestRowScales:
    """The SVM's rows have unit Euclidean norm; an empty row stays zero."""

    def test_normalization(self):
        vocab = vocabulary_of([["good", "movie"]])
        vec = scaled_one(["good", "movie"], vocab)
        assert vec[1] == pytest.approx(1 / math.sqrt(2))
        assert norm(vec) == pytest.approx(1.0, abs=1e-9)

    def test_empty_normalized_stays_zero(self):
        vocab = vocabulary_of([["good"]])
        assert norm(scaled_one([], vocab)) == 0.0

    @given(st.lists(
        st.sampled_from("good bad film plot great dull the a of scene".split()), max_size=12
    ))
    def test_normalized_norm_is_unit_or_zero(self, tokens):
        vocab = vocabulary_of([["good", "bad", "film", "plot", "great", "dull"]])
        vec = scaled_one(tokens, vocab)
        if vec[0]:
            assert norm(vec) == pytest.approx(1.0, abs=1e-9)
        else:
            assert norm(vec) == 0.0


SEPARABLE_TEXTS = [["a"], ["a", "b"], ["c"], ["c", "d"]]
SEPARABLE_LABELS = [1, 1, 0, 0]


@pytest.fixture
def separable_svm():
    rows, vocab = rows_and_vocab(SEPARABLE_TEXTS)
    model = replace(svm_train(rows, SEPARABLE_LABELS, seed=0), vocab_digest=vocab.digest())
    return model, vocab, rows, SEPARABLE_LABELS


class TestLinearMargin:
    def test_separable_training_accuracy(self, separable_svm):
        model, _, rows, labels = separable_svm
        assert ((svm_margin(model, rows) > 0) == (np.array(labels) == 1)).all()

    def test_deterministic_given_seed(self, separable_svm):
        model, _, _, labels = separable_svm
        rows, _ = rows_and_vocab(SEPARABLE_TEXTS)
        again = svm_train(rows, labels, seed=0)
        assert np.array_equal(model.weights, again.weights)
        assert model.bias == again.bias

    def test_seeds_converge_to_same_objective(self, separable_svm):
        _, _, rows, labels = separable_svm

        def objective(m):
            margins = []
            for idx, value, y in zip(rows.rows(), _row_scales(rows), labels):
                raw = m.bias + value * m.weights[idx].sum()
                margins.append((1 if y == 1 else -1) * raw)
            hinge = sum(max(0.0, 1.0 - m) for m in margins)
            return 0.5 * (m.weights @ m.weights + m.bias**2) + m.regularization * hinge

        runs = [svm_train(rows, labels, seed=s) for s in (0, 1, 2)]
        values = [objective(m) for m in runs]
        assert max(values) - min(values) <= 1e-2 * max(values)

    def test_single_class_rejected(self):
        rows, _ = rows_and_vocab(SEPARABLE_TEXTS)
        with pytest.raises(TrainingError):
            svm_train(rows, [1, 1, 1, 1])

    def test_stopping_at_max_epochs_is_logged(self, caplog):
        # overlapping classes: one sweep cannot close the duality gap
        texts = [["a"], ["a", "b"], ["b"], ["a", "c"], ["c"], ["b", "c"]]
        rows, _ = rows_and_vocab(texts)
        labels = [1, 0, 1, 0, 1, 0]
        with caplog.at_level(logging.WARNING, logger="subjcut.classifiers"):
            svm_train(rows, labels, max_epochs=1)
        [record] = caplog.records
        assert "max_epochs=1" in record.getMessage()
        assert "relative duality gap" in record.getMessage()
        caplog.clear()
        with caplog.at_level(logging.WARNING, logger="subjcut.classifiers"):
            svm_train(rows, labels)
        assert not caplog.records

    def test_max_epochs_must_be_positive(self):
        rows, _ = rows_and_vocab(SEPARABLE_TEXTS)
        with pytest.raises(ValueError):
            svm_train(rows, SEPARABLE_LABELS, max_epochs=0)

    @pytest.mark.parametrize("regularization", [math.nan, math.inf])
    def test_nonfinite_regularization_rejected(self, regularization):
        rows, _ = rows_and_vocab(SEPARABLE_TEXTS)
        with pytest.raises(ValueError, match="regularization must be > 0 and finite"):
            svm_train(rows, SEPARABLE_LABELS, regularization=regularization)

    def test_margin_is_bias_plus_weighted_sum(self, separable_svm):
        model, vocab, _, _ = separable_svm
        vec = rows_over([["a", "b"]], vocab)
        [idx] = vec.rows()
        raw = model.bias + 1 / math.sqrt(len(idx)) * model.weights[idx].sum()
        assert svm_margin(model, vec).tolist() == [raw]

    @given(st.lists(st.lists(st.sampled_from("abcdz"), max_size=5), max_size=8))
    def test_rows_match_the_per_row_formula(self, texts):
        rows, vocab = rows_and_vocab(SEPARABLE_TEXTS)
        model = svm_train(rows, SEPARABLE_LABELS, seed=0)
        rows = rows_over(texts, vocab)
        want = [  # one row at a time, exactly
            float(model.bias + (1 / math.sqrt(len(idx)) * model.weights[idx].sum()
                                if len(idx) else 0.0))
            for idx in rows.rows()
        ]
        assert svm_margin(model, rows).tolist() == want

    def test_point_on_hyperplane_scores_zero(self):
        model = LinearMarginModel(
            weights=np.array([1.0, -1.0]), bias=0.0, regularization=1.0, training_seed=0
        )
        vocab = vocabulary_of([["a", "b"]])
        vec = rows_over([["a", "b"]], vocab)  # w.x = 0
        assert svm_margin(model, vec) == pytest.approx([0.0])

    def test_zero_weights_score_every_row_as_the_bias(self):
        model = LinearMarginModel(
            weights=np.zeros(2), bias=0.25, regularization=1.0, training_seed=0
        )
        vocab = vocabulary_of([["a", "b"]])
        rows = rows_over([["a"], ["a", "b"], []], vocab)
        assert svm_margin(model, rows).tolist() == [0.25, 0.25, 0.25]


class TestMarginClamp:
    @pytest.mark.parametrize(
        "d,expected",
        [(3.0, 1.0), (0.0, 0.5), (-2.0, 0.0), (1.0, 0.75), (2.0, 1.0), (-3.0, 0.0)],
    )
    def test_table_values(self, d, expected):
        [ind1], [ind2] = svm_to_individual(np.array([d]))
        assert ind1 == pytest.approx(expected)
        assert ind1 + ind2 == 1.0

    @given(st.floats(-50, 50), st.floats(-50, 50))
    def test_monotone(self, d1, d2):
        lo, hi = svm_to_individual(np.array([min(d1, d2), max(d1, d2)]))[0]
        assert lo <= hi

    @given(st.floats(-10, 10))
    def test_continuous_and_bounded(self, d):
        # continuity: a small step moves the score by at most step/4 + eps
        ind1, ind2 = svm_to_individual(np.array([d, d + 1e-6]))
        assert ((0.0 <= ind1) & (ind1 <= 1.0)).all()
        assert (ind1 + ind2 == 1.0).all()
        assert abs(ind1[1] - ind1[0]) <= 1e-6 / 4 + 1e-12

    def test_nonfinite_rejected(self):
        with pytest.raises(ValueError):
            svm_to_individual(np.array([float("nan")]))

    @given(
        st.lists(st.floats(-10, 10), min_size=1, max_size=20),
        st.data(),
        st.sampled_from([float("nan"), float("inf"), float("-inf")]),
    )
    def test_a_nonfinite_value_anywhere_is_rejected(self, values, data, bad):
        position = data.draw(st.integers(0, len(values) - 1))
        values[position] = bad
        with pytest.raises(ValueError, match="finite"):
            svm_to_individual(np.array(values))


class TestIndividualScores:
    def test_rejects_negative_and_mismatched(self):
        with pytest.raises(ValueError):
            IndividualScores(class1=np.array([-0.1]), class2=np.array([0.5]))
        with pytest.raises(ValueError):
            IndividualScores(class1=np.array([0.1, 0.2]), class2=np.array([0.5]))
        with pytest.raises(ValueError):
            IndividualScores(class1=np.array([np.inf]), class2=np.array([0.5]))

    def test_rejects_arrays_that_are_not_1d(self):
        with pytest.raises(ValueError, match="1-d"):
            IndividualScores(class1=np.full((2, 2), 0.5), class2=np.full((2, 2), 0.5))
        with pytest.raises(ValueError, match="1-d"):
            IndividualScores(class1=np.float64(0.5), class2=np.float64(0.5))

    def test_rejects_nan(self):
        with pytest.raises(ValueError, match="finite"):
            IndividualScores(class1=np.array([0.2, np.nan]), class2=np.array([0.5, 0.5]))
        with pytest.raises(ValueError, match="finite"):
            IndividualScores(class1=np.array([0.5]), class2=np.array([np.nan]))

    @given(st.lists(st.floats(0, 1), max_size=30), st.data())
    def test_split_equals_checked_parts(self, values, data):
        c1 = np.array(values, dtype=float)
        scores = IndividualScores(class1=c1, class2=1.0 - c1)
        bounds = sorted(data.draw(st.lists(st.integers(0, len(values)), max_size=5)))
        parts = scores.split(bounds)
        want = [
            IndividualScores(a, b)
            for a, b in zip(np.split(scores.class1, bounds), np.split(scores.class2, bounds))
        ]
        assert len(parts) == len(want) == len(bounds) + 1
        for got, expected in zip(parts, want):
            assert type(got) is IndividualScores and len(got) == len(expected)
            assert got.class1.dtype == got.class2.dtype == np.float64
            assert got.class1.tobytes() == expected.class1.tobytes()
            assert got.class2.tobytes() == expected.class2.tobytes()
            assert np.shares_memory(got.class1, scores.class1) or not len(got)


class TestSerialization:
    def test_nb_round_trip(self, tiny_nb, tmp_path):
        model, vocab = tiny_nb
        path = tmp_path / "nb.json"
        save_model(model, path)
        again = load_model(path, vocab)
        vec = rows_over([["good"]], vocab)
        assert nb_predict_prob(again, vec) == pytest.approx(nb_predict_prob(model, vec))

    def test_svm_round_trip(self, separable_svm, tmp_path):
        model, vocab, rows, _ = separable_svm
        path = tmp_path / "svm.json"
        save_model(model, path)
        again = load_model(path, vocab)
        assert svm_margin(again, rows) == pytest.approx(svm_margin(model, rows))

    def test_vocabulary_mismatch_refused(self, tiny_nb, tmp_path):
        model, _ = tiny_nb
        path = tmp_path / "nb.json"
        save_model(model, path)
        other_vocab = vocabulary_of([["entirely"], ["different"]])
        with pytest.raises(VocabularyMismatchError):
            load_model(path, other_vocab)

    @pytest.mark.parametrize(
        "payload, problem",
        [([1, 2], "a model is a JSON object, got list"),
         ({"format": "subjcut-model/1"}, "model lacks kind, vocab_digest, hyperparameters"),
         ({"format": "subjcut-model/1", "kind": "nb", "vocab_digest": "x", "parameters": {}},
          "model lacks hyperparameters"),
         ({"format": "subjcut-model/1", "kind": "nb", "vocab_digest": "DIGEST",
           "hyperparameters": {"alpha": 1.0}, "parameters": {}},
          "model lacks log_prior"),
         ({"format": "subjcut-model/1", "kind": "svm", "vocab_digest": "DIGEST",
           "hyperparameters": {"regularization": 1.0}, "parameters": {"weights": [], "bias": 0}},
          "model lacks seed"),
         ({"format": "subjcut-model/1", "kind": "nb", "vocab_digest": "DIGEST",
           "hyperparameters": {"alpha": 1.0}, "parameters": []},
          "model's parameters is not an object"),
         ({"format": "subjcut-model/1", "kind": "nb", "vocab_digest": "DIGEST",
           "hyperparameters": {"alpha": 1.0},
           "parameters": {"log_prior": [-0.7, -0.7], "log_likelihood": "abc"}},
          "model's log_likelihood is not a (2, 2) float array")],
    )
    def test_malformed_file_refused(self, tiny_nb, tmp_path, payload, problem):
        # "DIGEST" stands for the vocabulary's digest, so the file gets past
        # the vocabulary check to its inner keys
        _, vocab = tiny_nb
        path = tmp_path / "nb.json"
        path.write_text(json.dumps(payload).replace("DIGEST", vocab.digest()), encoding="utf-8")
        with pytest.raises(ValueError, match=re.escape(f"{path}: {problem}")):
            load_model(path, vocab)

    @pytest.mark.parametrize(
        "kind, table, key, value, problem",
        [("nb", None, "parameters", [], "model's parameters is not an object"),
         ("svm", None, "hyperparameters", 5, "model's hyperparameters is not an object"),
         ("nb", "parameters", "log_prior", [0.0, 0.0, 0.0], "log_prior is not a (2,) float array"),
         ("nb", "parameters", "log_prior", ["0", "0"], "log_prior is not a (2,) float array"),
         ("nb", "parameters", "log_prior", [True, False], "log_prior is not a (2,) float array"),
         ("nb", "parameters", "log_likelihood", "abc",
          "log_likelihood is not a (2, V) float array"),
         ("nb", "parameters", "log_likelihood", [[0.5], [0.5, 0.5]],
          "log_likelihood is not a (2, V) float array"),
         ("nb", "parameters", "log_likelihood", [0.5, 0.5],
          "log_likelihood is not a (2, V) float array"),
         ("nb", "hyperparameters", "alpha", "1", "model's alpha is not a number"),
         ("svm", "parameters", "weights", [[0.5]], "model's weights is not a (V,) float array"),
         ("svm", "parameters", "bias", True, "model's bias is not a number"),
         ("svm", "hyperparameters", "regularization", None, "regularization is not a number"),
         ("svm", "hyperparameters", "seed", [1], "model's seed is not a number")],
    )
    @pytest.mark.parametrize("with_vocab", [True, False])
    def test_field_of_the_wrong_type_or_shape_refused(
        self, tiny_nb, separable_svm, tmp_path, kind, table, key, value, problem, with_vocab
    ):
        model, vocab = tiny_nb if kind == "nb" else separable_svm[:2]
        path = tmp_path / "model.json"
        save_model(model, path)
        payload = json.loads(path.read_text(encoding="utf-8"))
        (payload if table is None else payload[table])[key] = value
        path.write_text(json.dumps(payload), encoding="utf-8")
        if with_vocab:  # V is the vocabulary's size
            problem = problem.replace("V", str(vocab.size))
        with pytest.raises(ValueError, match=re.escape(f"{path}: ") + ".*" + re.escape(problem)):
            load_model(path, vocab if with_vocab else None)

    def test_arrays_must_be_as_wide_as_the_vocabulary(self, tiny_nb, separable_svm, tmp_path):
        for model, vocab, key in ((*tiny_nb, "log_likelihood"), (*separable_svm[:2], "weights")):
            path = tmp_path / f"{key}.json"
            save_model(replace(model, **{key: getattr(model, key)[..., :-1]}), path)
            assert load_model(path).vocab_digest == vocab.digest()  # any width without one
            with pytest.raises(ValueError, match=re.escape(f"{path}: model's {key} is not a (")):
                load_model(path, vocab)

    def test_loaded_arrays_are_float(self, tiny_nb, tmp_path):
        model, vocab = tiny_nb
        path = tmp_path / "nb.json"
        save_model(model, path)
        payload = json.loads(path.read_text(encoding="utf-8"))
        payload["parameters"]["log_prior"] = [0, -1]
        path.write_text(json.dumps(payload), encoding="utf-8")
        loaded = load_model(path, vocab)
        assert loaded.log_prior.dtype == np.float64 and loaded.log_prior.tolist() == [0.0, -1.0]
        assert loaded.log_likelihood.tobytes() == model.log_likelihood.tobytes()


def random_rows(rng, lengths, n_features):
    """Rows of the given lengths at random distinct columns, in ascending order."""
    indptr = np.zeros(len(lengths) + 1, dtype=np.intp)
    np.cumsum(lengths, out=indptr[1:])
    indices = [np.sort(rng.choice(n_features, n, replace=False)) for n in lengths]
    return FeatureRows(
        indptr=indptr,
        indices=np.concatenate([np.zeros(0, dtype=np.intp)] + indices).astype(np.intp),
        n_features=n_features,
    )


def random_table(rng, shape):
    """Signed floats spread over twelve orders of magnitude, so addition order shows."""
    return rng.normal(size=shape) * 10.0 ** rng.uniform(-6, 6, size=shape)


def pairwise_sums(weights, rows):
    """``_pairwise_sums`` of ``rows`` over ``weights``, as ``svm_margin`` calls it."""
    return _pairwise_sums(np.append(weights, 0.0), *_sentinel_gather(rows, len(weights)))


class TestBlockSums:
    """The one-call row sums give the bytes of the row-at-a-time sums.

    Rows reach 600 columns, past numpy's 8-lane unrolling and the 128-value
    leaves of its pairwise summation.
    """

    @settings(max_examples=60, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        lengths=st.lists(st.one_of(st.just(0), st.integers(1, 600)), max_size=12),
        repeats=st.integers(1, 25),
    )
    @example(seed=0, lengths=[], repeats=1)  # no rows
    @example(seed=1, lengths=[0, 0, 0], repeats=2)  # only empty rows
    @example(seed=2, lengths=[600], repeats=25)  # many rows of one length
    @example(seed=3, lengths=[127, 128, 129, 0, 8, 9, 7, 1], repeats=3)
    def test_block_sums_equal_per_row_sums(self, seed, lengths, repeats):
        rng = np.random.default_rng(seed)
        lengths = rng.permutation(np.repeat(np.array(lengths, dtype=np.intp), repeats))
        n_features = 700
        rows = random_rows(rng, lengths, n_features)
        weights = random_table(rng, n_features)
        log_likelihood = random_table(rng, (2, n_features))
        per_row = rows.rows()

        want_w = np.array([weights[idx].sum() for idx in per_row], dtype=float)
        got_w = pairwise_sums(weights, rows)
        assert got_w.tobytes() == want_w.tobytes()

        want_ll = np.zeros((2, len(rows)))
        for r, idx in enumerate(per_row):
            want_ll[:, r] = log_likelihood[:, idx].sum(axis=1)
        got_ll = _sequential_sums(log_likelihood, rows)
        assert got_ll.tobytes() == want_ll.tobytes()

        svm = LinearMarginModel(weights=weights, bias=0.25, regularization=1.0, training_seed=0)
        want_margin = [0.25 + value * weights[idx].sum() for idx, value in
                       zip(per_row, _row_scales(rows).tolist())]
        assert svm_margin(svm, rows).tolist() == want_margin

        nb = NaiveBayesModel(
            log_prior=np.log([0.4, 0.6]), log_likelihood=log_likelihood, alpha=1.0
        )
        joint = nb.log_prior[:, None] + want_ll
        want_p = np.exp(joint[1] - np.logaddexp(joint[0], joint[1]))
        assert nb_predict_prob(nb, rows).tobytes() == want_p.tobytes()


class TestRowSums:
    """The one-call row sums equal explicit per-row references in their own
    orders: pairwise for the SVM weights, left to right from 0.0 for each row
    of the NB table."""

    @settings(max_examples=60, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        lengths=st.lists(st.integers(0, 600), max_size=16),
        n_features=st.sampled_from([0, 601, 2000]),
    )
    @example(seed=0, lengths=[], n_features=601)  # no rows
    @example(seed=1, lengths=[0, 0, 0], n_features=0)  # no columns
    @example(seed=2, lengths=[7, 8, 9, 127, 128, 129, 0, 1, 600], n_features=601)
    def test_sums_equal_explicit_references(self, seed, lengths, n_features):
        if n_features == 0:
            lengths = [0] * len(lengths)
        rng = np.random.default_rng(seed)
        rows = random_rows(rng, lengths, n_features)
        weights = random_table(rng, n_features)
        table = random_table(rng, (2, n_features))
        per_row = rows.rows()

        want_w = np.array([np.add.reduce(weights[idx]) for idx in per_row], dtype=float)
        assert pairwise_sums(weights, rows).tobytes() == want_w.tobytes()

        want_t = np.zeros((2, len(rows)))
        for r, idx in enumerate(per_row):
            for c in range(2):
                want_t[c, r] = functools.reduce(operator.add, table[c, idx].tolist(), 0.0)
        assert _sequential_sums(table, rows).tobytes() == want_t.tobytes()


class TestOutOfRangeColumns:
    """A row column outside the table is refused, naming the row; a column
    equal to the width would otherwise read the 0.0 that each SVM row sum
    starts from."""

    @staticmethod
    def rows_with(column):
        indices = np.array([0, 1, column], dtype=np.intp)
        indptr = np.array([0, 1, 3], dtype=np.intp)
        return FeatureRows(indptr=indptr, indices=indices, n_features=3)

    @pytest.mark.parametrize("column", [3, -1])
    def test_svm_train_refuses(self, column):
        with pytest.raises(ValueError, match=f"row 1 has column {column}"):
            svm_train(self.rows_with(column), [0, 1])

    @pytest.mark.parametrize("column", [3, -1])
    def test_svm_margin_refuses(self, column):
        model = LinearMarginModel(
            weights=np.ones(3), bias=0.0, regularization=1.0, training_seed=0
        )
        with pytest.raises(ValueError, match=f"row 1 has column {column}"):
            svm_margin(model, self.rows_with(column))

    @pytest.mark.parametrize("column", [3, -1])
    def test_nb_predict_prob_refuses(self, column):
        model = NaiveBayesModel(
            log_prior=np.log([0.5, 0.5]), log_likelihood=np.zeros((2, 3)), alpha=1.0
        )
        with pytest.raises(ValueError, match=f"row 1 has column {column}"):
            nb_predict_prob(model, self.rows_with(column))


def reference_svm_train(rows, labels, regularization, seed, max_epochs=60, tol=1e-3):
    """The coordinate descent of ``svm_train`` written one numpy scalar at a time."""
    y = np.asarray(labels, dtype=int)
    n = len(rows)
    signs = np.where(y == 1, 1.0, -1.0)
    row_indices = rows.rows()
    row_values = _row_scales(rows)
    q_diag = rows.lengths * row_values**2 + 1.0
    w = np.zeros(rows.n_features)
    b = 0.0
    alpha = np.zeros(n)
    rng = np.random.default_rng(seed)
    for _ in range(max_epochs):
        for i in rng.permutation(n):
            idx = row_indices[i]
            value = row_values[i]
            grad = signs[i] * (value * w[idx].sum() + b) - 1.0
            a_old = alpha[i]
            if a_old == 0.0:
                projected = min(grad, 0.0)
            elif a_old == regularization:
                projected = max(grad, 0.0)
            else:
                projected = grad
            if abs(projected) < 1e-12:
                continue
            a_new = min(max(a_old - grad / q_diag[i], 0.0), regularization)
            delta = a_new - a_old
            if delta != 0.0:
                w[idx] += delta * signs[i] * value
                b += delta * signs[i]
                alpha[i] = a_new
        margins = signs * (
            b + row_values * np.array([w[idx].sum() for idx in row_indices], dtype=float)
        )
        reg_term = 0.5 * (float(np.add.reduce(w * w)) + b * b)
        primal = reg_term + regularization * np.maximum(0.0, 1.0 - margins).sum()
        dual = alpha.sum() - reg_term
        if primal - dual <= tol * max(primal, 1.0):
            break
    return w, float(b)


class TestSvmTrainExactness:
    @settings(max_examples=25, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        n_rows=st.integers(2, 40),
        regularization=st.sampled_from([0.05, 1.0, 10.0]),
        max_epochs=st.sampled_from([1, 5, 60]),
    )
    def test_weights_equal_the_reference_loop(self, seed, n_rows, regularization, max_epochs):
        rng = np.random.default_rng(seed)
        lengths = rng.integers(0, 301, size=n_rows)
        rows = random_rows(rng, lengths, 400)
        labels = rng.integers(0, 2, size=n_rows)
        labels[:2] = [0, 1]
        model = svm_train(rows, labels, regularization, seed=seed % 7, max_epochs=max_epochs)
        w, b = reference_svm_train(rows, labels, regularization, seed % 7, max_epochs)
        assert model.weights.tobytes() == w.tobytes()
        assert model.bias.hex() == b.hex()


def length_blocks(rows):
    """The nonempty rows grouped by length, shortest first, as (row numbers,
    (k, L) columns) per length: the grouping the SVM's gap check once summed by."""
    lengths = rows.lengths
    order = np.argsort(lengths, kind="stable")
    widths, starts = np.unique(lengths[order], return_index=True)
    out = []
    for width, numbers in zip(widths.tolist(), np.split(order, starts[1:])):
        if width:
            positions = rows.indptr[numbers, None] + np.arange(width)
            out.append((numbers, rows.indices[positions]))
    return out


def builtin_loop_svm_train(rows, labels, regularization, seed, max_epochs=60, tol=1e-3):
    """``svm_train``'s coordinate loop as it was with builtin ``min``/``max``/``abs``
    and ``ndarray.sum`` per visit; returns the weights, bias, duals and whether
    the gap closed."""
    n = len(rows)
    signs = np.where(np.asarray(labels) == 1, 1.0, -1.0)
    row_values = _row_scales(rows)
    q_diag = rows.lengths * row_values**2 + 1.0
    blocks = length_blocks(rows)
    visits = list(zip(rows.rows(), signs.tolist(), row_values.tolist(), q_diag.tolist()))
    w = np.zeros(rows.n_features)
    b = 0.0
    alpha = [0.0] * n
    rng = np.random.default_rng(seed)
    converged = False
    for _ in range(max_epochs):
        for i in rng.permutation(n).tolist():
            idx, sign, value, q_ii = visits[i]
            w_idx = w[idx]
            grad = sign * (value * w_idx.sum() + b) - 1.0
            a_old = alpha[i]
            if a_old == 0.0:
                projected = min(grad, 0.0)
            elif a_old == regularization:
                projected = max(grad, 0.0)
            else:
                projected = grad
            if abs(projected) < 1e-12:
                continue
            a_new = min(max(a_old - grad / q_ii, 0.0), regularization)
            delta = a_new - a_old
            if delta != 0.0:
                w[idx] = w_idx + delta * sign * value
                b += delta * sign
                alpha[i] = a_new
        reg_term = 0.5 * (float(np.add.reduce(w * w)) + b * b)
        sums = np.zeros(n)
        for numbers, columns in blocks:
            sums[numbers] = w[columns].sum(axis=-1)
        margins = signs * (b + row_values * sums)
        primal = reg_term + regularization * np.maximum(0.0, 1.0 - margins).sum()
        dual = np.array(alpha).sum() - reg_term
        if primal - dual <= tol * max(primal, 1.0):
            converged = True
            break
    return w, float(b), np.array(alpha), converged


def planted_svm_corpora():
    """Normalized rows and labels of the planted detector sentences and of whole reviews."""
    sentences = make_sentence_corpus()
    texts = [s.text for s in sentences]
    out = {"sentences": (texts, [int(s.label == "subjective") for s in sentences])}
    rng = np.random.default_rng(3)
    reviews, labels = [], []
    for polarity in ("positive", "negative") * 20:
        reviews.append(" ".join(make_review_lines(rng, polarity)))
        labels.append(int(polarity == "positive"))
    out["reviews"] = (reviews, labels)
    return {
        name: (rows_over(texts, vocabulary_of(texts)), labels)
        for name, (texts, labels) in out.items()
    }


class TestSvmCoordinateLoop:
    """``svm_train`` gives the bytes of the builtin-call loop it replaced."""

    @pytest.fixture(scope="class")
    def corpora(self):
        return planted_svm_corpora()

    @pytest.mark.parametrize("corpus_name", ["sentences", "reviews"])
    @pytest.mark.parametrize("regularization, seed", [(0.01, 0), (0.3, 5), (1.0, 1), (10.0, 2)])
    def test_weights_and_bias_bytes_equal(self, corpora, corpus_name, regularization, seed):
        rows, labels = corpora[corpus_name]
        model = svm_train(rows, labels, regularization, seed=seed)
        w, b, alpha, _ = builtin_loop_svm_train(rows, labels, regularization, seed)
        assert model.weights.tobytes() == w.tobytes()
        assert model.bias.hex() == b.hex()
        if regularization == 0.01:
            assert (alpha == regularization).any()  # the upper bound is reached

    @pytest.mark.parametrize("corpus_name", ["sentences", "reviews"])
    def test_one_epoch_stops_early_with_equal_bytes(self, corpora, corpus_name, caplog):
        rows, labels = corpora[corpus_name]
        with caplog.at_level(logging.WARNING, logger="subjcut.classifiers"):
            model = svm_train(rows, labels, 1.0, seed=4, max_epochs=1)
        w, b, _, converged = builtin_loop_svm_train(rows, labels, 1.0, 4, max_epochs=1)
        assert not converged
        [record] = caplog.records
        assert "max_epochs=1" in record.getMessage()
        assert model.weights.tobytes() == w.tobytes()
        assert model.bias.hex() == b.hex()


# numpy hands these to BLAS, whose sums run in an order that depends on the
# thread count; ``@`` and any ``linalg`` are refused as well
BLAS_NAMES = {"dot", "vdot", "inner", "matmul", "tensordot", "einsum"}

PRIMAL_DUAL_CODE = """
import sys
import numpy as np
from subjcut.classifiers import _primal_dual
with np.load(sys.argv[1]) as p:
    for w_ext in p["w_ext"]:
        primal, dual = _primal_dual(w_ext, float(p["b"]), p["alpha"].tolist(), p["signs"],
                                    p["row_values"], p["gather"], p["starts"], float(p["c"]))
        print(primal.hex(), dual.hex())
"""


def blas_uses(tree):
    """Where ``tree`` multiplies with ``@``, names one of ``BLAS_NAMES`` or names ``linalg``."""
    for node in ast.walk(tree):
        if isinstance(node, (ast.BinOp, ast.AugAssign)) and isinstance(node.op, ast.MatMult):
            yield node.lineno, "@"
        name = getattr(node, "attr", None) or getattr(node, "id", None)
        if name in BLAS_NAMES or name == "linalg":
            yield node.lineno, name
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for module in [getattr(node, "module", None)] + [a.name for a in node.names]:
                if module and ("linalg" in module or module in BLAS_NAMES):
                    yield node.lineno, module


class TestNoBlas:
    """The SVM's sums never reach BLAS, so no core count moves a bit of a model."""

    def test_the_package_has_no_blas_entry_point(self):
        found = [
            f"{path.name}:{line} {name}"
            for path in sorted(Path(subjcut.__file__).parent.glob("*.py"))
            for line, name in blas_uses(ast.parse(path.read_text(encoding="utf-8")))
        ]
        assert found == []

    @pytest.mark.parametrize("code", [
        "w @ w", "w @= v", "np.dot(w, w)", "w.dot(w)", "np.vdot(w, w)", "np.inner(w, w)",
        "np.matmul(w, w)", "np.tensordot(w, w, 1)", "np.einsum('i,i', w, w)",
        "from numpy import dot", "np.linalg.norm(w)", "from numpy.linalg import norm",
        "import scipy.linalg", "from scipy import linalg",
    ])
    def test_the_scan_finds_each_entry_point(self, code):
        assert list(blas_uses(ast.parse(code)))

    def test_primal_and_dual_bits_do_not_depend_on_blas_threads(self, tmp_path):
        """Four weight vectors of 40 000 features. On a 2-core AVX-512 machine
        with OpenBLAS 0.3.31, ``w @ w`` of three of them differed in the last
        bits between one and two threads."""
        rng = np.random.default_rng(0)
        n_features = 40_000
        rows = random_rows(rng, rng.integers(0, 300, size=50), n_features)
        gather, starts = _sentinel_gather(rows, n_features)
        weights = [np.random.default_rng(s).standard_normal(n_features) for s in range(4)]
        problem = tmp_path / "problem.npz"
        np.savez(
            problem, w_ext=np.column_stack([np.vstack(weights), np.zeros(4)]), b=0.25,
            alpha=rng.uniform(0, 1, size=50), signs=np.where(rng.random(50) < 0.5, 1.0, -1.0),
            row_values=_row_scales(rows), gather=gather, starts=starts, c=1.0,
        )
        src = str(Path(subjcut.__file__).resolve().parents[1])
        children = [
            subprocess.Popen(
                [sys.executable, "-c", PRIMAL_DUAL_CODE, str(problem)], stdout=subprocess.PIPE,
                env=dict(os.environ, PYTHONPATH=src, OPENBLAS_NUM_THREADS=threads), text=True,
            )
            for threads in ("1", "2")
        ]
        outputs = [child.communicate()[0] for child in children]
        assert [child.returncode for child in children] == [0, 0]
        assert len(outputs[0].split()) == 8
        assert outputs[0] == outputs[1]
