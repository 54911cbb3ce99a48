"""Acceptance criteria, one test per criterion.

Criteria that evaluate accuracy bands on the two distributed corpora run only
when SUBJCUT_DATA_ROOT points at them (the datasets are consumed as
distributed files and are not bundled or downloadable by this package); those
tests are skipped otherwise, with the reason shown. Everything else runs
self-contained. A summary line per criterion is printed at the end of the
pytest run.
"""

import json
import os
import time
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from click.testing import CliRunner

from subjcut.classifiers import IndividualScores
from subjcut.cli import main, resolve_polarity_root, resolve_subjectivity_files
from subjcut.corpus import load_polarity_dataset, load_subjectivity_dataset
from subjcut.evaluation import (
    ExperimentConfig,
    detector_cv_accuracies,
    make_detector,
    paired_t_test,
    run_experiment,
    score_documents,
)
from subjcut.extraction import (
    Detector,
    DetectorConfig,
    ProximityParams,
    select_graph,
)
from subjcut.mincut import SCALE, brute_force_min, cut_band, labeling_costs

from planted_corpus import per_document, write_polarity_tree, make_sentence_corpus
from references import select_basic

DATA_ROOT = os.environ.get("SUBJCUT_DATA_ROOT")
requires_data = pytest.mark.skipif(
    DATA_ROOT is None,
    reason="SUBJCUT_DATA_ROOT not set: the distributed review/sentence corpora "
    "are not available, and this criterion is defined on them",
)

WORKED_IND = IndividualScores(
    class1=np.array([0.8, 0.5, 0.1]), class2=np.array([0.2, 0.5, 0.9])
)
# the pairs (0, 1) and (1, 2) at distance 1, (0, 2) at distance 2
WORKED_BAND = np.array([[1.0, 0.2, 0.0], [0.1, 0.0, 0.0]])
WORKED_TABLE = {
    (0, 1): 1.1,
    (): 1.4,
    (0, 1, 2): 1.6,
    (0,): 1.9,
    (2,): 2.5,
    (1,): 2.6,
    (0, 2): 2.8,
    (1, 2): 3.3,
}


# -- self-contained criteria -------------------------------------------------


def test_criterion_01_worked_example_oracle():
    start = time.perf_counter()
    side = tuple(np.flatnonzero(cut_band(WORKED_IND, [len(WORKED_IND)], WORKED_BAND)).tolist())
    assert side == (0, 1)
    costs = labeling_costs(WORKED_IND, WORKED_BAND) / SCALE
    assert costs[0b011] == pytest.approx(1.1, abs=1e-12)
    for side, expected in WORKED_TABLE.items():
        assert costs[sum(1 << i for i in side)] == pytest.approx(expected, abs=1e-12)
    assert time.perf_counter() - start < 1.0


def test_criterion_02_mincut_exactness_200_random_instances():
    start = time.perf_counter()
    rng = np.random.default_rng(2024)
    for _ in range(200):
        n = int(rng.integers(1, 13))
        ind = IndividualScores(class1=rng.uniform(0, 1, n), class2=rng.uniform(0, 1, n))
        band = np.zeros((max(n - 1, 0), n))  # any instance is a band of reach n - 1
        for i in range(n):
            for k in range(i + 1, n):
                if rng.random() < 0.4:
                    band[k - i - 1, i] = float(rng.uniform(0, 1))
        side = tuple(np.flatnonzero(cut_band(ind, [len(ind)], band)).tolist())
        want = brute_force_min(ind, band)
        cost = labeling_costs(ind, band)[sum(1 << i for i in side)]
        assert cost == want.cost and side == want.source_side, (ind, band)
    assert time.perf_counter() - start < 30.0


def test_criterion_03_zero_association_reduction(synthetic_documents, detector_models):
    rng = np.random.default_rng(99)
    params = ProximityParams(threshold=3, decay="exponential", strength=0.0)
    checked = 0
    for base in ("nb", "svm"):
        model, vocab = detector_models[base]
        docs = list(synthetic_documents)
        # pad with random score vectors to cover odd distributions too
        for doc in docs:
            scores = score_documents(model, vocab, [doc])[0]
            got = select_graph(scores, [len(scores)], params, [doc.paragraph_starts])
            assert per_document(got, [len(doc.sentences)]) == [select_basic(scores)]
            checked += 1
    while checked < 120:
        n = int(rng.integers(1, 40))
        p = rng.uniform(0, 1, n)
        scores = IndividualScores(class1=p, class2=1.0 - p)
        assert per_document(select_graph(scores, [n], params), [n]) == [select_basic(scores)]
        checked += 1
    assert checked >= 100


def test_criterion_09_determinism_byte_identical_reports(tmp_path):
    root = tmp_path / "data"
    root.mkdir()
    write_polarity_tree(root, n_pos=10, n_neg=10, seed=5)
    sentences = make_sentence_corpus(n_each=40)
    subjective = [s.text for s in sentences if s.label == "subjective"]
    objective = [s.text for s in sentences if s.label == "objective"]
    (root / "quote.tok.gt9.5000").write_text("\n".join(subjective) + "\n")
    (root / "plot.tok.gt9.5000").write_text("\n".join(objective) + "\n")
    spec = tmp_path / "spec.json"
    spec.write_text(
        json.dumps({"extractor": "basic", "detector_base": "nb", "classifier": "svm", "seed": 11})
    )
    runner = CliRunner()
    payloads = []
    # two default runs, then the SVM folds trained in this process and on two workers
    for name, threads in (("a", []), ("b", []), ("t1", ["--threads", "1"]),
                          ("t2", ["--threads", "2"])):
        out = tmp_path / name
        result = runner.invoke(
            main,
            ["run", "--spec", str(spec), "--data-root", str(root), "--output-dir", str(out)]
            + threads,
        )
        assert result.exit_code == 0, result.output
        payloads.append(
            ((out / "report.json").read_bytes(), (out / "report.txt").read_bytes())
        )
    assert payloads[0] == payloads[1]
    assert payloads[2] == payloads[3] == payloads[0]
    # the grid's cells run in this process and on two workers
    grids = []
    for threads in ("1", "2"):
        out = tmp_path / f"grid{threads}"
        result = runner.invoke(
            main,
            ["grid", "--data-root", str(root), "--output-dir", str(out), "--thresholds", "1,2",
             "--decays", "constant", "--strengths", "0.0,0.5", "--threads", threads],
        )
        assert result.exit_code == 0, result.output
        grids.append(((out / "grid.csv").read_bytes(), (out / "best_report.json").read_bytes()))
    assert grids[0] == grids[1]
    # the sweep, twice
    sweeps = []
    for name in ("sweep_a", "sweep_b"):
        out = tmp_path / name
        result = runner.invoke(
            main,
            ["sweep", "--data-root", str(root), "--output-dir", str(out), "--methods",
             "top_n,first_n", "--n-values", "1,5"],
        )
        assert result.exit_code == 0, result.output
        sweeps.append((out / "sweep.csv").read_bytes())
    assert sweeps[0] == sweeps[1]


def test_criterion_10a_single_document_cut_under_10ms():
    rng = np.random.default_rng(42)
    n = 200
    p = rng.uniform(0, 1, n)
    scores = IndividualScores(class1=p, class2=1.0 - p)
    params = ProximityParams(threshold=3, decay="exponential", strength=0.5)
    select_graph(scores, [len(scores)], params)  # warm up
    best = min(
        _timed(lambda: select_graph(scores, [len(scores)], params)) for _ in range(5)
    )
    assert best < 0.010, f"cut of a 200-sentence document took {best * 1e3:.2f} ms"


def _timed(fn) -> float:
    start = time.perf_counter()
    fn()
    return time.perf_counter() - start


# -- criteria defined on the distributed corpora ------------------------------


@pytest.fixture(scope="session")
def real_data():
    if DATA_ROOT is None:
        pytest.skip("SUBJCUT_DATA_ROOT not set")
    root = Path(DATA_ROOT)
    documents = load_polarity_dataset(resolve_polarity_root(root))
    sentences = load_subjectivity_dataset(*resolve_subjectivity_files(root))
    assert len(documents) == 2000, "expected the 1000+1000 review corpus"
    assert len(sentences) == 10000, "expected the 5000+5000 sentence corpus"
    return documents, sentences


@pytest.fixture(scope="session")
def real_nb_detector(real_data):
    _, sentences = real_data
    return make_detector(sentences, DetectorConfig(base="nb"))


@pytest.fixture(scope="session")
def real_reports(real_data, real_nb_detector):
    """The handful of experiment reports shared by criteria 5-7."""
    documents, _ = real_data
    detector = real_nb_detector
    reports = {}
    t0 = time.perf_counter()
    reports["full_nb"] = run_experiment(ExperimentConfig(classifier="nb"), documents)
    reports["basic_nb_nb"] = run_experiment(
        ExperimentConfig(extractor="basic", classifier="nb"), documents, detector
    )
    reports["pipeline_seconds"] = time.perf_counter() - t0
    reports["full_svm"] = run_experiment(ExperimentConfig(classifier="svm"), documents)
    reports["basic_nb_svm"] = run_experiment(
        ExperimentConfig(extractor="basic", classifier="svm"), documents, detector
    )
    for clf in ("nb", "svm"):
        reports[f"flipped_nb_{clf}"] = run_experiment(
            ExperimentConfig(extractor="basic", classifier=clf, flipped=True),
            documents,
            detector,
        )
    reports["top5_nb"] = run_experiment(
        ExperimentConfig(extractor="top_n", n_sentences=5, classifier="nb"),
        documents,
        detector,
    )
    return reports


@requires_data
def test_criterion_04_detector_accuracy_bands(real_data):
    _, sentences = real_data
    nb_mean = float(np.mean(detector_cv_accuracies(sentences, base="nb")))
    print(f"\ndetector 10-fold CV: nb={nb_mean:.4f}")
    assert 0.90 <= nb_mean <= 0.94, f"NB detector CV accuracy {nb_mean:.4f} outside 92% +/- 2"
    svm_mean = float(np.mean(detector_cv_accuracies(sentences, base="svm")))
    print(f"detector 10-fold CV: svm={svm_mean:.4f}")
    assert 0.87 <= svm_mean <= 0.93, f"margin detector CV accuracy {svm_mean:.4f} outside 90% +/- 3"


@requires_data
def test_criterion_05_polarity_pipeline_bands(real_reports):
    full_nb = real_reports["full_nb"]
    basic_nb = real_reports["basic_nb_nb"]
    print(f"\nfull review + NB: {full_nb.mean_accuracy:.4f}")
    print(f"extract + NB:     {basic_nb.mean_accuracy:.4f}")
    assert 0.808 <= full_nb.mean_accuracy <= 0.848, "full-review NB outside 82.8% +/- 2"
    assert basic_nb.mean_accuracy >= full_nb.mean_accuracy
    test = paired_t_test(basic_nb.fold_accuracies(), full_nb.fold_accuracies())
    print(f"paired t: t={test.t:.3f}, p={test.p:.5f}")
    assert test.t > 0 and test.p < 0.05
    full_svm = real_reports["full_svm"]
    basic_svm = real_reports["basic_nb_svm"]
    print(f"full review + SVM: {full_svm.mean_accuracy:.4f}")
    print(f"extract + SVM:     {basic_svm.mean_accuracy:.4f}")
    assert basic_svm.mean_accuracy >= full_svm.mean_accuracy - 0.02


@requires_data
def test_criterion_06_flipping_experiment(real_reports):
    for clf in ("nb", "svm"):
        subjective = real_reports[f"basic_nb_{clf}"].mean_accuracy
        objective = real_reports[f"flipped_nb_{clf}"].mean_accuracy
        print(f"\n{clf}: subjective={subjective:.4f} objective={objective:.4f}")
        assert objective <= subjective - 0.10


@requires_data
def test_criterion_07_compression(real_reports):
    basic = real_reports["basic_nb_nb"].mean_preservation
    top5 = real_reports["top5_nb"].mean_preservation
    print(f"\nword preservation: basic={basic:.4f} top5={top5:.4f}")
    assert 0.50 <= basic <= 0.70
    assert 0.15 <= top5 <= 0.30


@requires_data
def test_criterion_08_sweep_shape(real_data, real_nb_detector):
    documents, _ = real_data
    accuracies = {}
    for method in ("top_n", "first_n", "least_n"):
        for n in (1, 5, 10, 15, 20, 30, 40):
            config = ExperimentConfig(extractor=method, n_sentences=n, classifier="nb")
            report = run_experiment(config, documents, real_nb_detector)
            accuracies[(method, n)] = report.mean_accuracy
    for n in (1, 5, 10, 15, 20, 30, 40):
        print(
            f"\nN={n:>2} top={accuracies[('top_n', n)]:.4f} "
            f"first={accuracies[('first_n', n)]:.4f} least={accuracies[('least_n', n)]:.4f}"
        )
    for n in (5, 10, 15):
        assert accuracies[("top_n", n)] >= accuracies[("first_n", n)]
        assert accuracies[("top_n", n)] >= accuracies[("least_n", n)]


@requires_data
def test_criterion_10b_full_pipeline_under_30_minutes(real_reports):
    seconds = real_reports["pipeline_seconds"]
    print(f"\nfull-review + basic-extract pipeline: {seconds:.1f}s")
    assert seconds < 1800
