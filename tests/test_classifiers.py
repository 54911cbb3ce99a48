import logging
import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import assume, given, strategies as st

from subjcut.classifiers import (
    DegenerateModelError,
    IndividualScores,
    LinearMarginModel,
    TrainingError,
    VocabularyMismatchError,
    load_model,
    nb_predict_prob,
    nb_train,
    save_model,
    svm_decision,
    svm_to_individual,
    svm_train,
)
from subjcut.features import (
    build_vocabulary,
    featurize,
    featurize_rows,
    presence_matrix,
    vocabulary_columns,
)


def rows_and_vocab(texts, normalize=False):
    """Presence rows of ``texts`` over the vocabulary built from all of them."""
    matrix = presence_matrix(texts)
    every = np.arange(len(texts))
    columns = vocabulary_columns(matrix, every)
    return featurize_rows(matrix, columns, every, normalize), matrix.vocabulary(columns)


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
        assert nb_predict_prob(model, featurize(["good"], vocab)) == pytest.approx(2 / 3)

    def test_empty_vector_gives_prior(self, tiny_nb):
        model, vocab = tiny_nb
        assert nb_predict_prob(model, featurize([], vocab)) == pytest.approx(0.5)

    def test_adding_indicative_token_raises_posterior(self, tiny_nb):
        model, vocab = tiny_nb
        p_empty = nb_predict_prob(model, featurize([], vocab))
        p_good = nb_predict_prob(model, featurize(["good"], vocab))
        assert p_good > p_empty

    def test_complement_symmetry(self, tiny_nb):
        model, vocab = tiny_nb
        for tokens in ([], ["good"], ["bad"], ["good", "bad"]):
            vec = featurize(tokens, vocab)
            joint = model.log_prior + model.log_likelihood[:, list(vec.active_indices)].sum(axis=1)
            p0 = float(np.exp(joint[0] - np.logaddexp(joint[0], joint[1])))
            assert nb_predict_prob(model, vec) + p0 == pytest.approx(1.0, abs=1e-9)

    def test_label_swap_complements_posteriors(self):
        texts = [["good", "fine"], ["bad"], ["good"]]
        rows, vocab = rows_and_vocab(texts)
        vectors = [featurize(t, vocab) for t in texts]
        labels = [1, 0, 1]
        model = nb_train(rows, labels)
        flipped = nb_train(rows, [1 - y for y in labels])
        for vec in vectors:
            assert nb_predict_prob(flipped, vec) == pytest.approx(
                1.0 - nb_predict_prob(model, vec), abs=1e-12
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
            counts[y, list(featurize(tokens, vocab).active_indices)] += 1.0
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

    def test_training_is_deterministic(self, tmp_path):
        rows, _ = rows_and_vocab([["good"], ["bad"]])
        first, second = tmp_path / "m1.json", tmp_path / "m2.json"
        save_model(nb_train(rows, [1, 0]), first)
        save_model(nb_train(rows, [1, 0]), second)
        assert first.read_bytes() == second.read_bytes()

    def test_probability_bounds_on_random_inputs(self, tiny_nb):
        model, vocab = tiny_nb
        rng = np.random.default_rng(0)
        for _ in range(50):
            tokens = list(rng.choice(["good", "bad", "zzz"], size=rng.integers(0, 5)))
            p = nb_predict_prob(model, featurize(tokens, vocab))
            assert 0.0 <= p <= 1.0 and not math.isnan(p)


SEPARABLE_TEXTS = [["a"], ["a", "b"], ["c"], ["c", "d"]]
SEPARABLE_LABELS = [1, 1, 0, 0]


@pytest.fixture
def separable_svm():
    rows, vocab = rows_and_vocab(SEPARABLE_TEXTS, normalize=True)
    vectors = [featurize(t, vocab, normalize=True) for t in SEPARABLE_TEXTS]
    model = replace(svm_train(rows, SEPARABLE_LABELS, seed=0), vocab_digest=vocab.digest())
    return model, vocab, vectors, SEPARABLE_LABELS


class TestLinearMargin:
    def test_separable_training_accuracy(self, separable_svm):
        model, _, vectors, labels = separable_svm
        for vec, y in zip(vectors, labels):
            assert (svm_decision(model, vec) > 0) == (y == 1)

    def test_deterministic_given_seed(self, separable_svm):
        model, _, _, labels = separable_svm
        rows, _ = rows_and_vocab(SEPARABLE_TEXTS, normalize=True)
        again = svm_train(rows, labels, seed=0)
        assert np.array_equal(model.weights, again.weights)
        assert model.bias == again.bias

    def test_seeds_converge_to_same_objective(self, separable_svm):
        _, _, vectors, labels = separable_svm
        rows, _ = rows_and_vocab(SEPARABLE_TEXTS, normalize=True)

        def objective(m):
            margins = []
            for vec, y in zip(vectors, labels):
                raw = m.bias + vec.value_per_active * m.weights[list(vec.active_indices)].sum()
                margins.append((1 if y == 1 else -1) * raw)
            hinge = sum(max(0.0, 1.0 - m) for m in margins)
            return 0.5 * (m.weights @ m.weights + m.bias**2) + m.regularization * hinge

        runs = [svm_train(rows, labels, seed=s) for s in (0, 1, 2)]
        values = [objective(m) for m in runs]
        assert max(values) - min(values) <= 1e-2 * max(values)

    def test_single_class_rejected(self):
        rows, _ = rows_and_vocab(SEPARABLE_TEXTS, normalize=True)
        with pytest.raises(TrainingError):
            svm_train(rows, [1, 1, 1, 1])

    def test_unnormalized_vectors_rejected(self):
        rows, _ = rows_and_vocab([["a"], ["b"]])
        with pytest.raises(ValueError):
            svm_train(rows, [1, 0])

    def test_stopping_at_max_epochs_is_logged(self, caplog):
        # overlapping classes: one sweep cannot close the duality gap
        texts = [["a"], ["a", "b"], ["b"], ["a", "c"], ["c"], ["b", "c"]]
        rows, _ = rows_and_vocab(texts, normalize=True)
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
        rows, _ = rows_and_vocab(SEPARABLE_TEXTS, normalize=True)
        with pytest.raises(ValueError):
            svm_train(rows, SEPARABLE_LABELS, max_epochs=0)

    def test_decision_is_geometric_distance(self, separable_svm):
        model, vocab, _, _ = separable_svm
        vec = featurize(["a"], vocab, normalize=True)
        doubled = LinearMarginModel(
            weights=model.weights * 2,
            bias=model.bias * 2,
            regularization=model.regularization,
            training_seed=model.training_seed,
        )
        assert svm_decision(doubled, vec) == pytest.approx(svm_decision(model, vec))

    def test_weight_norm_is_the_euclidean_norm(self, separable_svm):
        model, vocab, _, _ = separable_svm
        assert model.weight_norm == float(np.linalg.norm(model.weights))
        vec = featurize(["a", "b"], vocab, normalize=True)
        raw = model.bias + vec.value_per_active * model.weights[list(vec.active_indices)].sum()
        assert svm_decision(model, vec) == float(raw / np.linalg.norm(model.weights))

    def test_point_on_hyperplane_scores_zero(self):
        model = LinearMarginModel(
            weights=np.array([1.0, -1.0]), bias=0.0, regularization=1.0, training_seed=0
        )
        vocab = build_vocabulary([["a", "b"]])
        vec = featurize(["a", "b"], vocab, normalize=True)  # w.x = 0
        assert svm_decision(model, vec) == pytest.approx(0.0)

    def test_zero_weights_degenerate(self):
        model = LinearMarginModel(
            weights=np.zeros(2), bias=1.0, regularization=1.0, training_seed=0
        )
        vocab = build_vocabulary([["a", "b"]])
        with pytest.raises(DegenerateModelError):
            svm_decision(model, featurize(["a"], vocab, normalize=True))


class TestDistanceClamp:
    @pytest.mark.parametrize(
        "d,expected",
        [(3.0, 1.0), (0.0, 0.5), (-2.0, 0.0), (1.0, 0.75), (2.0, 1.0), (-3.0, 0.0)],
    )
    def test_table_values(self, d, expected):
        ind1, ind2 = svm_to_individual(d)
        assert ind1 == pytest.approx(expected)
        assert ind1 + ind2 == 1.0

    @given(st.floats(-50, 50), st.floats(-50, 50))
    def test_monotone(self, d1, d2):
        lo, hi = min(d1, d2), max(d1, d2)
        assert svm_to_individual(lo)[0] <= svm_to_individual(hi)[0]

    @given(st.floats(-10, 10))
    def test_continuous_and_bounded(self, d):
        ind1, ind2 = svm_to_individual(d)
        assert 0.0 <= ind1 <= 1.0
        assert ind1 + ind2 == 1.0
        # continuity: a small step moves the score by at most step/4 + eps
        ind1_eps, _ = svm_to_individual(d + 1e-6)
        assert abs(ind1_eps - ind1) <= 1e-6 / 4 + 1e-12

    def test_nonfinite_rejected(self):
        with pytest.raises(ValueError):
            svm_to_individual(float("nan"))


class TestIndividualScores:
    def test_rejects_negative_and_mismatched(self):
        with pytest.raises(ValueError):
            IndividualScores(class1=np.array([-0.1]), class2=np.array([0.5]))
        with pytest.raises(ValueError):
            IndividualScores(class1=np.array([0.1, 0.2]), class2=np.array([0.5]))
        with pytest.raises(ValueError):
            IndividualScores(class1=np.array([np.inf]), class2=np.array([0.5]))


class TestSerialization:
    def test_nb_round_trip(self, tiny_nb, tmp_path):
        model, vocab = tiny_nb
        path = tmp_path / "nb.json"
        save_model(model, path)
        again = load_model(path, vocab)
        vec = featurize(["good"], vocab)
        assert nb_predict_prob(again, vec) == pytest.approx(nb_predict_prob(model, vec))

    def test_svm_round_trip(self, separable_svm, tmp_path):
        model, vocab, vectors, _ = separable_svm
        path = tmp_path / "svm.json"
        save_model(model, path)
        again = load_model(path, vocab)
        assert svm_decision(again, vectors[0]) == pytest.approx(svm_decision(model, vectors[0]))

    def test_vocabulary_mismatch_refused(self, tiny_nb, tmp_path):
        model, _ = tiny_nb
        path = tmp_path / "nb.json"
        save_model(model, path)
        other_vocab = build_vocabulary([["entirely"], ["different"]])
        with pytest.raises(VocabularyMismatchError):
            load_model(path, other_vocab)
