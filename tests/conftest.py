"""Shared fixtures over the planted synthetic corpus of ``planted_corpus``."""

from __future__ import annotations

import pytest

from subjcut.corpus import LabeledSentence, load_polarity_dataset
from subjcut.evaluation import make_detector
from subjcut.extraction import Detector, DetectorConfig

from planted_corpus import make_sentence_corpus, write_polarity_tree


@pytest.fixture(scope="session")
def synthetic_sentences() -> list[LabeledSentence]:
    return make_sentence_corpus()


@pytest.fixture(scope="session")
def synthetic_corpus_root(tmp_path_factory):
    root = tmp_path_factory.mktemp("polarity")
    write_polarity_tree(root)
    return root


@pytest.fixture(scope="session")
def synthetic_documents(synthetic_corpus_root):
    return load_polarity_dataset(synthetic_corpus_root)


@pytest.fixture(scope="session")
def paragraph_documents(tmp_path_factory):
    root = tmp_path_factory.mktemp("polarity_para")
    write_polarity_tree(root, seed=7, paragraph_breaks=True)
    return load_polarity_dataset(root)


@pytest.fixture(scope="session")
def nb_detector(synthetic_sentences) -> Detector:
    return make_detector(synthetic_sentences, DetectorConfig(base="nb"))


@pytest.fixture(scope="session")
def svm_detector(synthetic_sentences) -> Detector:
    return make_detector(synthetic_sentences, DetectorConfig(base="svm"))


@pytest.fixture(scope="session")
def detector_models(nb_detector, svm_detector):
    return {d.base: (d.model, d.vocab) for d in (nb_detector, svm_detector)}


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    """One pass/fail line per acceptance criterion at the end of the run."""
    outcomes = {}
    for status in ("passed", "failed", "skipped"):
        for report in terminalreporter.stats.get(status, []):
            if "test_acceptance" in report.nodeid and report.when in ("call", "setup"):
                name = report.nodeid.split("::")[-1]
                outcomes[name] = status
    if not outcomes:
        return
    terminalreporter.write_sep("-", "acceptance criteria")
    labels = {"passed": "PASS", "failed": "FAIL", "skipped": "SKIP"}
    for name in sorted(outcomes):
        terminalreporter.write_line(f"{labels[outcomes[name]]}  {name}")
