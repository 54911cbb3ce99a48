import json
import logging
import math
import multiprocessing
import warnings
from dataclasses import replace
from functools import partial

import numpy as np
import pytest

from subjcut.corpus import OBJECTIVE, SUBJECTIVE, LabeledSentence, ReviewDocument
from subjcut.evaluation import (
    ExperimentConfig,
    ExperimentReport,
    GridSpec,
    add_comparison,
    detector_cv_accuracies,
    grid_search,
    make_extracts,
    n_sentence_sweep,
    paired_t_test,
    rows_to_csv,
    run_experiment,
    score_documents,
    sweep_to_csv,
    train_detector_model,
)
from subjcut import evaluation, extraction, features
from subjcut.extraction import Detector, DetectorConfig, ProximityParams, individual_scores
from subjcut.classifiers import IndividualScores, TrainingError
from subjcut.features import EmptyVocabularyError, Vocabulary

from references import score_texts


class TestPairedTTest:
    def test_identical_vectors(self):
        r = paired_t_test([0.8] * 10, [0.8] * 10)
        assert (r.t, r.p, r.degenerate) == (0.0, 1.0, False)

    def test_constant_shift_is_degenerate(self):
        a = [0.8, 0.82, 0.9, 0.85, 0.87, 0.8, 0.82, 0.9, 0.85, 0.87]
        b = [x - 0.01 for x in a]
        r = paired_t_test(a, b)
        assert r.degenerate
        assert r.p == 0.0
        assert r.t == math.inf

    def test_against_frozen_reference(self):
        # expected values computed independently with scipy.stats.ttest_rel
        a = [0.86, 0.84, 0.88, 0.85, 0.87, 0.86, 0.83, 0.88, 0.85, 0.86]
        b = [0.82, 0.83, 0.85, 0.84, 0.84, 0.83, 0.82, 0.86, 0.83, 0.84]
        r = paired_t_test(a, b)
        assert r.t == pytest.approx(6.736096792653739, rel=1e-12)
        assert r.p == pytest.approx(8.497780806189284e-05, rel=1e-12)
        assert not r.degenerate

    def test_sign_follows_direction(self):
        a = [0.9, 0.8, 0.85, 0.9]
        b = [0.7, 0.75, 0.7, 0.8]
        assert paired_t_test(a, b).t > 0
        assert paired_t_test(b, a).t < 0

    def test_input_validation(self):
        with pytest.raises(ValueError):
            paired_t_test([0.5], [0.5])
        with pytest.raises(ValueError):
            paired_t_test([0.5, 0.6], [0.5])


class TestExperimentConfig:
    def test_digest_is_stable_and_sensitive(self):
        c1 = ExperimentConfig(extractor="basic", classifier="nb")
        c2 = ExperimentConfig(extractor="basic", classifier="nb")
        c3 = ExperimentConfig(extractor="basic", classifier="svm")
        assert c1.digest() == c2.digest()
        assert c1.digest() != c3.digest()

    def test_round_trips_through_dict(self):
        config = ExperimentConfig(
            extractor="graph",
            proximity=ProximityParams(threshold=2, decay="exponential", strength=0.3),
            flipped=True,
            seed=4,
        )
        assert ExperimentConfig.from_dict(config.to_dict()) == config

    def test_integral_float_threshold_from_json_spec(self, synthetic_documents, nb_detector):
        # JSON numbers written as 2.0 load as floats
        spec = json.loads('{"extractor": "graph", "proximity": {"threshold": 2.0}}')
        spec["proximity"]["strength"] = 0.3
        config = ExperimentConfig.from_dict(spec)
        assert config.proximity.threshold == 2 and type(config.proximity.threshold) is int
        assert config == ExperimentConfig.from_dict(
            {"extractor": "graph", "proximity": {"threshold": 2, "strength": 0.3}}
        )
        assert len(make_extracts(config, synthetic_documents[:3], nb_detector)) == 3
        with pytest.raises(ValueError):
            ExperimentConfig.from_dict({"extractor": "graph", "proximity": {"threshold": 2.5}})

    def test_integral_float_counts_from_json_spec(self):
        spec = {"extractor": "first_n", "n_sentences": 2.0, "folds": 5.0, "seed": 1.0,
                "min_doc_freq": 2.0}
        config = ExperimentConfig.from_dict(spec)
        for name in ("n_sentences", "folds", "seed", "min_doc_freq"):
            assert type(getattr(config, name)) is int and getattr(config, name) == spec[name]
        assert config.digest() == ExperimentConfig(
            extractor="first_n", n_sentences=2, folds=5, seed=1, min_doc_freq=2
        ).digest()

    def test_validation(self):
        with pytest.raises(ValueError):
            ExperimentConfig(extractor="nonsense")
        with pytest.raises(ValueError):
            ExperimentConfig(extractor="top_n")  # missing n_sentences
        with pytest.raises(ValueError):
            ExperimentConfig(extractor="graph")  # missing proximity
        with pytest.raises(ValueError):
            ExperimentConfig(folds=1)
        with pytest.raises(ValueError, match="min_doc_freq"):
            ExperimentConfig(min_doc_freq=0)


class TestRunExperiment:
    def test_full_review_report_shape(self, synthetic_documents):
        report = run_experiment(ExperimentConfig(), synthetic_documents)
        assert len(report.folds) == 10
        assert sum(f.n_test for f in report.folds) == len(synthetic_documents)
        # the stored mean must match a recomputation exactly, not approximately
        assert report.mean_accuracy == float(np.mean([f.accuracy for f in report.folds]))
        assert report.mean_preservation == 1.0
        for f in report.folds:
            assert f.accuracy == pytest.approx(
                round(f.accuracy * f.n_test) / f.n_test
            )

    def test_planted_signal_is_learnable(self, synthetic_documents, nb_detector):
        config = ExperimentConfig(extractor="basic")
        report = run_experiment(config, synthetic_documents, nb_detector)
        assert report.mean_accuracy >= 0.9
        assert 0.0 < report.mean_preservation < 1.0

    def test_flipped_extract_loses_signal(self, synthetic_documents, nb_detector):
        subjective = run_experiment(
            ExperimentConfig(extractor="basic"), synthetic_documents, nb_detector
        )
        flipped = run_experiment(
            ExperimentConfig(extractor="basic", flipped=True),
            synthetic_documents,
            nb_detector,
        )
        assert flipped.mean_accuracy < subjective.mean_accuracy

    def test_svm_classifier_also_learns(self, synthetic_documents, nb_detector):
        config = ExperimentConfig(extractor="basic", classifier="svm")
        report = run_experiment(config, synthetic_documents, nb_detector)
        assert report.mean_accuracy >= 0.9

    def test_reports_are_reproducible_bytes(self, synthetic_documents, nb_detector):
        config = ExperimentConfig(extractor="basic", classifier="svm", seed=3)
        r1 = run_experiment(config, synthetic_documents, nb_detector)
        r2 = run_experiment(config, synthetic_documents, nb_detector)
        assert r1.to_json() == r2.to_json()

    def test_train_digests_exclude_test_fold(self, synthetic_documents, nb_detector):
        config = ExperimentConfig(extractor="basic")
        report = run_experiment(config, synthetic_documents, nb_detector)
        digests = [f.train_digest for f in report.folds]
        assert len(set(digests)) == len(digests)

    def test_detector_required_when_extractor_needs_one(self, synthetic_documents):
        with pytest.raises(ValueError):
            run_experiment(ExperimentConfig(extractor="basic"), synthetic_documents)

    def test_unassigned_folds_rejected(self, synthetic_documents):
        docs = [replace(d, fold=-1) for d in synthetic_documents]
        with pytest.raises(ValueError):
            run_experiment(ExperimentConfig(), docs)

    def test_all_empty_extracts_degrade_to_prior(self, synthetic_documents, nb_detector):
        # documents fully out of the detector's vocabulary score 0.5 per
        # sentence, ties drop everything, and the polarity classifier falls
        # back to its prior over the balanced folds
        from dataclasses import replace as dc_replace

        oov_docs = [
            dc_replace(d, sentences=tuple(f"zq{i} xv{i}" for i in range(4)),
                       paragraph_starts=(0,))
            for d in synthetic_documents
        ]
        report = run_experiment(
            ExperimentConfig(extractor="basic"), oov_docs, nb_detector
        )
        assert report.mean_preservation == 0.0
        assert report.mean_accuracy == pytest.approx(0.5)

    def test_report_json_round_trip(self, synthetic_documents):
        report = run_experiment(ExperimentConfig(), synthetic_documents)
        again = ExperimentReport.from_json(report.to_json())
        assert again == report

    def test_render_text_mentions_key_numbers(self, synthetic_documents):
        report = run_experiment(ExperimentConfig(), synthetic_documents)
        text = report.render_text()
        assert f"{report.mean_accuracy:.4f}" in text
        assert report.config_digest[:12] in text


class TestComparisons:
    def test_add_comparison_attaches_test(self, synthetic_documents, nb_detector):
        basic = run_experiment(
            ExperimentConfig(extractor="basic"), synthetic_documents, nb_detector
        )
        full = run_experiment(ExperimentConfig(), synthetic_documents)
        combined = add_comparison(basic, full)
        (comp,) = combined.comparisons
        assert comp["other_digest"] == full.config_digest
        assert comp["p"] <= 1.0


class TestMakeExtracts:
    def test_top_n_extracts_respect_n(self, synthetic_documents, nb_detector):
        config = ExperimentConfig(extractor="top_n", n_sentences=2)
        extracts = make_extracts(config, synthetic_documents, nb_detector)
        assert all(len(e.selected) == 2 for e in extracts)

    def test_first_n_needs_no_detector(self, synthetic_documents):
        config = ExperimentConfig(extractor="first_n", n_sentences=3)
        extracts = make_extracts(config, synthetic_documents)
        assert all(e.selected == (0, 1, 2) for e in extracts)

    @pytest.mark.parametrize("base", ["nb", "svm"])
    def test_batched_scores_equal_per_document_scores(
        self, monkeypatch, synthetic_documents, detector_models, base
    ):
        model, vocab = detector_models[base]
        alone = [score_texts(model, vocab, doc.sentences) for doc in synthetic_documents]
        monkeypatch.setattr(features, "CUT_BATCH_SENTENCES", 20)  # 3 documents a batch
        batched = score_documents(model, vocab, synthetic_documents)
        assert len(batched) == len(alone)
        for got, want in zip(batched, alone):
            assert got.class1.tobytes() == want.class1.tobytes()
            assert got.class2.tobytes() == want.class2.tobytes()

    @pytest.mark.parametrize("base", ["nb", "svm"])
    def test_batches_map_the_vocabulary_once(
        self, monkeypatch, synthetic_documents, detector_models, base
    ):
        model, vocab = detector_models[base]
        monkeypatch.setattr(features, "CUT_BATCH_SENTENCES", 10**9)  # one batch
        whole = score_documents(model, vocab, synthetic_documents)
        calls = []
        column_map = Vocabulary.column_map

        def counted(self, types):
            calls.append(len(types))
            return column_map(self, types)

        monkeypatch.setattr(Vocabulary, "column_map", counted)
        monkeypatch.setattr(features, "CUT_BATCH_SENTENCES", 20)  # 3 documents a batch
        counts = [len(doc.sentences) for doc in synthetic_documents]
        assert len(list(features.document_batches(counts))) > 1
        batched = score_documents(model, vocab, synthetic_documents)
        assert len(calls) == 1
        for got, want in zip(batched, whole, strict=True):
            assert got.class1.tobytes() == want.class1.tobytes()
            assert got.class2.tobytes() == want.class2.tobytes()

    @pytest.mark.parametrize("base", ["nb", "svm"])
    def test_document_scores_are_checked_once_per_batch(
        self, monkeypatch, synthetic_documents, detector_models, base
    ):
        model, vocab = detector_models[base]
        monkeypatch.setattr(features, "CUT_BATCH_SENTENCES", 20)  # 3 documents a batch
        counts = [len(doc.sentences) for doc in synthetic_documents]
        batches = list(features.document_batches(counts))
        matrix = extraction.sentence_matrix(synthetic_documents)
        # each document's scores as they were made before: one checked
        # IndividualScores per document, split from its batch's scores
        first = np.cumsum([0] + counts).tolist()
        want = []
        for batch in batches:
            rows = matrix.row_slice(first[batch.start], first[batch.stop])
            scores = individual_scores(model, vocab, rows, vocab.column_map(rows.types))
            bounds = np.cumsum([counts[i] for i in batch])[:-1]
            want += map(
                IndividualScores, np.split(scores.class1, bounds), np.split(scores.class2, bounds)
            )
        checks = []
        post_init = IndividualScores.__post_init__

        def counted(self):
            checks.append(len(self))
            post_init(self)

        monkeypatch.setattr(IndividualScores, "__post_init__", counted)
        got = score_documents(model, vocab, synthetic_documents, matrix)
        assert len(checks) == len(batches) > 1
        for g, w in zip(got, want, strict=True):
            assert type(g) is IndividualScores
            assert g.class1.tobytes() == w.class1.tobytes()
            assert g.class2.tobytes() == w.class2.tobytes()

    def test_scores_shortcut_matches_fresh_scoring(self, synthetic_documents, nb_detector):
        config = ExperimentConfig(extractor="basic")
        scores = score_documents(nb_detector.model, nb_detector.vocab, synthetic_documents)
        with_scores = make_extracts(config, synthetic_documents, nb_detector, scores)
        without = make_extracts(config, synthetic_documents, nb_detector)
        assert with_scores == without


class TestGridSearch:
    def test_spec_refuses_an_invalid_setting(self):
        for axes in ({"thresholds": (1, 0)}, {"decays": ("cubic",)}, {"strengths": (-0.1,)},
                     {"cross_paragraph_weights": (1.5,)}):
            with pytest.raises(ValueError):
                GridSpec(**axes)

    def test_zero_strength_cells_equal_basic(self, synthetic_documents, nb_detector):
        basic = run_experiment(
            ExperimentConfig(extractor="basic"), synthetic_documents, nb_detector
        )
        grid = GridSpec(thresholds=(1, 2), decays=("constant", "exponential"),
                        strengths=(0.0,))
        base = ExperimentConfig(
            extractor="graph", proximity=ProximityParams(strength=0.0)
        )
        result = grid_search(base, synthetic_documents, nb_detector, grid)
        assert len(result.cells) == 4
        for _, report in result.cells:
            assert report.fold_accuracies() == basic.fold_accuracies()

    def test_singleton_grid_returns_that_setting(self, synthetic_documents, nb_detector):
        grid = GridSpec(thresholds=(2,), decays=("constant",), strengths=(0.3,))
        base = ExperimentConfig(extractor="graph", proximity=ProximityParams(strength=0.0))
        result = grid_search(base, synthetic_documents, nb_detector, grid)
        assert len(result.cells) == 1
        assert result.best is result.cells[0][1]
        assert result.best.config["proximity"]["strength"] == 0.3

    def test_best_is_max_mean_accuracy(self, synthetic_documents, nb_detector):
        grid = GridSpec(thresholds=(1,), decays=("constant",), strengths=(0.0, 0.2, 0.6))
        base = ExperimentConfig(extractor="graph", proximity=ProximityParams(strength=0.0))
        result = grid_search(base, synthetic_documents, nb_detector, grid)
        best_acc = max(r.mean_accuracy for _, r in result.cells)
        assert result.best.mean_accuracy == best_acc

    def test_csv_has_expected_header_and_rows(self, synthetic_documents, nb_detector):
        grid = GridSpec(thresholds=(1,), decays=("constant",), strengths=(0.0, 0.5))
        base = ExperimentConfig(extractor="graph", proximity=ProximityParams(strength=0.0))
        result = grid_search(base, synthetic_documents, nb_detector, grid)
        lines = result.to_csv().splitlines()
        assert lines[0] == "method,N,classifier,fold,accuracy,preservation"
        assert len(lines) == 1 + 2 * 10
        assert lines[1].startswith("graph_T1_constant_c0_w1,")

    def test_parallel_matches_serial(self, synthetic_documents, nb_detector):
        # the two strength-0 cells select alike, so a worker may reuse one for the other
        grid = GridSpec(thresholds=(1, 2), decays=("constant",), strengths=(0.0, 0.4))
        base = ExperimentConfig(extractor="graph", proximity=ProximityParams(strength=0.0))
        serial = grid_search(base, synthetic_documents, nb_detector, grid, max_workers=1)
        parallel = grid_search(base, synthetic_documents, nb_detector, grid, max_workers=2)
        assert [r.to_json() for _, r in serial.cells] == [
            r.to_json() for _, r in parallel.cells
        ]


def count_fits(monkeypatch) -> list:
    calls = []
    fit_predict = evaluation._fit_predict

    def counting(*args, **kwargs):
        calls.append(1)
        return fit_predict(*args, **kwargs)

    monkeypatch.setattr(evaluation, "_fit_predict", counting)
    return calls


def distinct_selections(configs, documents, detector) -> int:
    return len({
        (config.classifier, tuple(e.selected for e in make_extracts(config, documents, detector)))
        for config in configs
    })


def record_featurized_rows(monkeypatch) -> list:
    seen = []
    featurize_rows = evaluation.featurize_rows

    def recording(matrix, column_of, n_features, rows, normalize=False):
        seen.append(np.asarray(rows).tolist())
        return featurize_rows(matrix, column_of, n_features, rows, normalize)

    monkeypatch.setattr(evaluation, "featurize_rows", recording)
    return seen


class TestFoldFeaturization:
    """NB folds train from counts; only the SVM featurizes training rows."""

    def test_nb_folds_featurize_only_their_test_rows(self, monkeypatch, synthetic_documents):
        seen = record_featurized_rows(monkeypatch)
        run_experiment(ExperimentConfig(classifier="nb"), synthetic_documents)
        assert len(seen) == 10
        assert sorted(r for rows in seen for r in rows) == list(range(len(synthetic_documents)))
        for fold, rows in enumerate(seen):
            assert rows and all(synthetic_documents[r].fold == fold for r in rows)

    def test_svm_folds_featurize_every_row(self, monkeypatch, synthetic_documents):
        seen = record_featurized_rows(monkeypatch)
        # rows featurized in a forked worker would not be recorded here
        run_experiment(ExperimentConfig(classifier="svm"), synthetic_documents, max_workers=1)
        assert len(seen) == 2 * 10
        for fold in range(10):
            train, test = seen[2 * fold], seen[2 * fold + 1]
            assert all(synthetic_documents[r].fold == fold for r in test)
            assert sorted(train + test) == list(range(len(synthetic_documents)))


class TestCellReuse:
    """Cells whose selections are equal are cross-validated once."""

    def test_grid_cross_validates_each_distinct_selection_once(
        self, monkeypatch, synthetic_documents, nb_detector
    ):
        grid = GridSpec(thresholds=(1, 2), decays=("constant",), strengths=(0.0, 0.4))
        base = ExperimentConfig(extractor="graph", proximity=ProximityParams(strength=0.0))
        configs = [replace(base, proximity=p) for p in grid.cells()]
        distinct = distinct_selections(configs, synthetic_documents, nb_detector)
        assert distinct < len(configs)  # the two strength-0 cells select alike
        calls = count_fits(monkeypatch)
        result = grid_search(base, synthetic_documents, nb_detector, grid)
        assert len(calls) == distinct * base.folds
        for config, (params, report) in zip(configs, result.cells):
            assert report.config["proximity"] == params.to_dict()
            fresh = run_experiment(config, synthetic_documents, nb_detector)
            assert report.to_json() == fresh.to_json()

    def test_sweep_cross_validates_each_distinct_selection_once(
        self, monkeypatch, synthetic_documents, nb_detector
    ):
        # at N = 50 every method keeps whole reviews (they have 8 sentences)
        methods, n_values = ("top_n", "first_n", "last_n", "least_n"), (2, 50)
        classifiers = ("nb", "svm")
        configs = [
            ExperimentConfig(extractor=m, n_sentences=n, classifier=c)
            for m in methods for n in n_values for c in classifiers
        ]
        distinct = distinct_selections(configs, synthetic_documents, nb_detector)
        assert distinct <= len(configs) - 6
        calls = count_fits(monkeypatch)
        results = n_sentence_sweep(
            synthetic_documents, nb_detector, methods=methods, n_values=n_values,
            classifiers=classifiers,
        )
        assert len(calls) == distinct * 10
        for config in configs:
            report = results[(config.extractor, config.n_sentences, config.classifier)]
            fresh = run_experiment(config, synthetic_documents, nb_detector)
            assert report.to_json() == fresh.to_json()


class TestWorkerPool:
    """SVM folds train on forked workers; nothing observable depends on how many."""

    @pytest.fixture(autouse=True)
    def no_process_left(self):
        yield
        assert multiprocessing.active_children() == []

    def test_svm_reports_do_not_depend_on_the_worker_count(self, synthetic_documents):
        config = ExperimentConfig(classifier="svm")
        reports = [
            run_experiment(config, synthetic_documents, max_workers=workers).to_json()
            for workers in (1, 2, 3)
        ]
        assert reports[1] == reports[0] and reports[2] == reports[0]

    def test_svm_detector_cv_does_not_depend_on_the_worker_count(self, synthetic_sentences):
        runs = [
            detector_cv_accuracies(synthetic_sentences, base="svm", folds=5, max_workers=workers)
            for workers in (1, 2)
        ]
        assert runs[1] == runs[0]

    @staticmethod
    def one_class_folds() -> list[ReviewDocument]:
        # fold 0 holds only positive reviews and fold 1 only negative ones
        return [
            ReviewDocument(id=f"{label}{i}", label=label, sentences=(f"{label} words {i}",),
                           fold=int(label == "negative"))
            for label in ("positive", "negative") for i in range(3)
        ]

    @pytest.mark.parametrize("workers", [1, 2])
    def test_a_training_error_reaches_the_caller(self, workers):
        config = ExperimentConfig(classifier="svm", folds=2)
        with pytest.raises(TrainingError, match="both classes"):
            run_experiment(config, self.one_class_folds(), max_workers=workers)

    @pytest.mark.parametrize("workers", [1, 2])
    def test_a_detector_cv_training_error_reaches_the_caller(self, workers):
        # folds go round-robin, so fold 0 holds the subjective sentences
        sentences = [
            LabeledSentence(text=text, label=label)
            for text, label in [("a b", SUBJECTIVE), ("c", OBJECTIVE),
                                ("b d", SUBJECTIVE), ("e", OBJECTIVE)]
        ]
        with pytest.raises(TrainingError, match="both classes"):
            detector_cv_accuracies(sentences, base="svm", folds=2, max_workers=workers)

    @pytest.mark.parametrize("workers", [0, -5])
    def test_fewer_than_one_worker_is_refused(
        self, synthetic_documents, synthetic_sentences, nb_detector, workers
    ):
        grid = GridSpec(thresholds=(1,), decays=("constant",), strengths=(0.0,))
        base = ExperimentConfig(extractor="graph", proximity=ProximityParams(strength=0.0))
        calls = [
            lambda: grid_search(base, synthetic_documents, nb_detector, grid, max_workers=workers),
            lambda: run_experiment(ExperimentConfig(), synthetic_documents, max_workers=workers),
            lambda: detector_cv_accuracies(synthetic_sentences, max_workers=workers),
        ]
        for call in calls:
            with pytest.raises(ValueError, match="max_workers must be >= 1"):
                call()


class TestSweep:
    def test_rows_cover_grid(self, synthetic_documents, nb_detector):
        results = n_sentence_sweep(
            synthetic_documents,
            nb_detector,
            methods=("top_n", "first_n"),
            n_values=(1, 3),
            classifiers=("nb",),
        )
        assert set(results) == {
            ("top_n", 1, "nb"), ("top_n", 3, "nb"),
            ("first_n", 1, "nb"), ("first_n", 3, "nb"),
        }
        csv_text = sweep_to_csv(results)
        lines = csv_text.splitlines()
        assert lines[0] == "method,N,classifier,fold,accuracy,preservation"
        assert len(lines) == 1 + 4 * 10

    def test_top_beats_least_on_planted_signal(self, synthetic_documents, nb_detector):
        results = n_sentence_sweep(
            synthetic_documents,
            nb_detector,
            methods=("top_n", "least_n"),
            n_values=(2,),
            classifiers=("nb",),
        )
        assert (
            results[("top_n", 2, "nb")].mean_accuracy
            > results[("least_n", 2, "nb")].mean_accuracy
        )

    def test_unknown_method_rejected(self, synthetic_documents, nb_detector):
        with pytest.raises(ValueError):
            n_sentence_sweep(synthetic_documents, nb_detector, methods=("middle_n",))

    def test_nonpositive_n_rejected(self, synthetic_documents, nb_detector):
        with pytest.raises(ValueError):
            n_sentence_sweep(synthetic_documents, nb_detector, n_values=(3, 0))


class TestTrainDetectorModel:
    def test_cutoff_that_empties_the_vocabulary_is_refused_before_training(self):
        # one class only: training would raise TrainingError, so the vocabulary
        # check has to come first
        sentences = [
            LabeledSentence(text="a b", label=SUBJECTIVE),
            LabeledSentence(text="c", label=SUBJECTIVE),
        ]
        for base in ("nb", "svm"):
            with pytest.raises(EmptyVocabularyError):
                train_detector_model(sentences, base=base, min_doc_freq=2)


class TestOneFit:
    """The detector and every fold are fit by ``_fit``, and an SVM that stops
    at ``max_epochs`` names its model."""

    # one detector, then a 10-fold run_experiment, then a 3-fold detector_cv_accuracies
    NAMES = ["detector"] + [f"fold {k}" for k in range(10)] + [f"fold {k}" for k in range(3)]

    def test_models_are_trained_only_through_fit(
        self, monkeypatch, synthetic_sentences, synthetic_documents
    ):
        fitting, names = [], []
        fit = evaluation._fit

        def traced_fit(*args):
            names.append(args[-1])
            fitting.append(True)
            try:
                return fit(*args)
            finally:
                fitting.pop()

        def only_in_fit(train):
            def trainer(*args, **kwargs):
                assert fitting, f"{train.__name__} called outside _fit"
                return train(*args, **kwargs)
            return trainer

        monkeypatch.setattr(evaluation, "_fit", traced_fit)
        monkeypatch.setattr(evaluation, "nb_from_counts", only_in_fit(evaluation.nb_from_counts))
        monkeypatch.setattr(evaluation, "svm_train", only_in_fit(evaluation.svm_train))
        for base in ("nb", "svm"):
            train_detector_model(synthetic_sentences, base=base)
            run_experiment(ExperimentConfig(classifier=base), synthetic_documents, max_workers=1)
            detector_cv_accuracies(synthetic_sentences, base=base, folds=3, max_workers=1)
        assert names == self.NAMES * 2

    def test_max_epochs_warnings_name_the_detector_and_each_fold(
        self, monkeypatch, caplog, synthetic_sentences, synthetic_documents
    ):
        monkeypatch.setattr(evaluation, "svm_train", partial(evaluation.svm_train, max_epochs=1))
        with caplog.at_level(logging.WARNING, logger="subjcut.classifiers"):
            train_detector_model(synthetic_sentences, base="svm")
            run_experiment(ExperimentConfig(classifier="svm"), synthetic_documents, max_workers=1)
            detector_cv_accuracies(synthetic_sentences, base="svm", folds=3, max_workers=1)
        messages = [record.getMessage() for record in caplog.records]
        leads = [m.partition(": svm_train stopped at max_epochs=1 ")[0] for m in messages]
        assert leads == self.NAMES


class TestDetectorCV:
    def test_nb_detector_cv_on_planted_corpus(self, synthetic_sentences):
        accuracies = detector_cv_accuracies(synthetic_sentences, base="nb", folds=5)
        assert len(accuracies) == 5
        assert np.mean(accuracies) > 0.9

    def test_svm_detector_cv_on_planted_corpus(self, synthetic_sentences):
        accuracies = detector_cv_accuracies(synthetic_sentences, base="svm", folds=5)
        assert np.mean(accuracies) > 0.9

    @pytest.mark.parametrize(
        "folds, message",
        [(5, "without sentences"), (0, "folds must be >= 2"), (1, "folds must be >= 2")],
        ids=["fold_without_sentences", "zero_folds", "one_fold"],
    )
    @pytest.mark.parametrize("base", ["nb", "svm"])
    def test_bad_fold_count_refused_before_training(self, monkeypatch, folds, message, base):
        sentences = [
            LabeledSentence(text=text, label=label)
            for text, label in [("a b", SUBJECTIVE), ("c", OBJECTIVE),
                                ("b d", SUBJECTIVE), ("e", OBJECTIVE)]
        ]

        def no_training(*args, **kwargs):
            raise AssertionError("trained before the folds were checked")

        monkeypatch.setattr(evaluation, "nb_from_counts", no_training)
        monkeypatch.setattr(evaluation, "svm_train", no_training)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match=message):
                detector_cv_accuracies(sentences, base=base, folds=folds)

    def test_unknown_base_refused(self, synthetic_sentences):
        with pytest.raises(ValueError, match="base"):
            detector_cv_accuracies(synthetic_sentences, base="tree", folds=2)


class TestParagraphComparison:
    # the toy SVM detector's geometric margins are ~0.2 wide, so association
    # strengths in these tests stay below that scale to keep cuts non-trivial
    def test_weight_one_matches_plain_graph(self, paragraph_documents, svm_detector):
        params = ProximityParams(threshold=2, decay="constant", strength=0.05,
                                 cross_paragraph_weight=1.0)
        config = ExperimentConfig(
            extractor="graph", detector_base="svm", proximity=params
        )
        with_breaks = run_experiment(config, paragraph_documents, svm_detector)
        stripped = [replace(d, paragraph_starts=(0,)) for d in paragraph_documents]
        without = run_experiment(config, stripped, svm_detector)
        assert with_breaks.fold_accuracies() == without.fold_accuracies()

    def test_rows_to_csv_escapes_nothing_needed(self):
        text = rows_to_csv([("top_n", 5, "nb", 0, 0.9, 0.5)])
        assert text == (
            "method,N,classifier,fold,accuracy,preservation\n"
            "top_n,5,nb,0,0.9,0.5\n"
        )
