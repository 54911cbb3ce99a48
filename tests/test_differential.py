"""The whole pipeline against ``bench/oracle.py`` on small random corpora.

Each example writes a random review tree of 20-60 reviews, some with
paragraph breaks, loads it, and runs graph extracts and their NB
cross-validation with both batch budgets shrunk, so that every corpus spans
several batches. What the program returns is compared with what the oracle
computes from the tree as written:

- each review's graph selection with ``oracle.canonical_side`` over
  ``oracle.proximity_band``, from the detector's scores;
- each fold's train digest with ``oracle.train_digest`` of the other folds'
  extracts;
- each fold's NB accuracy with ``oracle.nb_fold_predictions``, where a review
  whose log-odds gap is under ``NB_TIE_GAP`` may go either way, as in
  ``bench/workloads.py``.

The folds and paragraph starts the oracle uses are the ones the test wrote,
not the ones the program read back.
"""

from __future__ import annotations

import sys
import tempfile
from pathlib import Path
from typing import NamedTuple

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

BENCH = Path(__file__).resolve().parents[1] / "bench"
sys.path[:0] = [str(BENCH), str(BENCH.parent / "src")]

import oracle  # noqa: E402
from workloads import NB_TIE_GAP  # noqa: E402

from subjcut import features  # noqa: E402
from subjcut.corpus import load_polarity_dataset  # noqa: E402
from subjcut.evaluation import (  # noqa: E402
    ExperimentConfig,
    make_extracts,
    run_experiment,
    score_documents,
)
from subjcut.extraction import DECAY_NAMES, ProximityParams  # noqa: E402

from planted_corpus import make_objective_sentence, make_subjective_sentence  # noqa: E402

FOLDS = 10
BATCH_TOKENS = 64  # a review holds at most 8 sentences of at most 9 words
CUT_BATCH_SENTENCES = 16  # every corpus holds at least 20 sentences


class Review(NamedTuple):
    label: str
    sentences: tuple[str, ...]
    starts: tuple[int, ...]
    fold: int


def write_tree(root: Path, rng: np.random.Generator, n_reviews: int) -> dict[str, Review]:
    """A review tree of ``n_reviews`` under ``root``, and each review by id.

    Review i of a label is in fold i mod 10, through its ``cvNNN`` tag, so
    every fold holds reviews of both labels. A review has 1-8 sentences,
    subjective ones mostly of its label's words, and one or two blank lines
    before a sentence open a paragraph.
    """
    reviews = {}
    for sub, label, count in (("pos", "positive", n_reviews // 2),
                              ("neg", "negative", n_reviews - n_reviews // 2)):
        (root / sub).mkdir()
        other = "negative" if label == "positive" else "positive"
        for i in range(count):
            fold = i % FOLDS
            doc_id = f"cv{fold * 100 + i // FOLDS:03d}_{sub}{i}"
            lines, sentences, starts = [], [], [0]
            for k in range(int(rng.integers(1, 9))):
                if k and rng.random() < 0.3:
                    lines += [""] * int(rng.integers(1, 3))
                    starts.append(k)
                if rng.random() < 0.5:
                    sentence = make_objective_sentence(rng)
                else:
                    sentence = make_subjective_sentence(rng, label if rng.random() < 0.75 else other)
                lines.append(sentence)
                sentences.append(sentence)
            (root / sub / f"{doc_id}.txt").write_text("\n".join(lines) + "\n", encoding="utf-8")
            reviews[doc_id] = Review(label, tuple(sentences), tuple(starts), fold)
    return reviews


@settings(max_examples=40, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    n_reviews=st.integers(20, 60),
    base=st.sampled_from(["nb", "svm"]),
    threshold=st.integers(1, 3),
    decay=st.sampled_from(DECAY_NAMES),
    strength=st.sampled_from([0.2, 0.5, 1.0]),
    weight=st.sampled_from([0.0, 0.5]),
)
def test_the_pipeline_equals_the_oracle(
    nb_detector, svm_detector, seed, n_reviews, base, threshold, decay, strength, weight
):
    detector = {"nb": nb_detector, "svm": svm_detector}[base]
    params = ProximityParams(threshold, decay, strength, weight)
    config = ExperimentConfig(extractor="graph", detector_base=base, proximity=params)
    with tempfile.TemporaryDirectory() as tmp, pytest.MonkeyPatch.context() as mp:
        written = write_tree(Path(tmp), np.random.default_rng(seed), n_reviews)
        documents = load_polarity_dataset(tmp, FOLDS)
        mp.setattr(features, "BATCH_TOKENS", BATCH_TOKENS)
        mp.setattr(features, "CUT_BATCH_SENTENCES", CUT_BATCH_SENTENCES)
        scores = score_documents(detector.model, detector.vocab, documents)
        extracts = make_extracts(config, documents, detector, scores)
        report = run_experiment(config, documents, detector, max_workers=1)
    assert sorted(doc.id for doc in documents) == sorted(written)

    texts = {}
    for doc, doc_scores, extract in zip(documents, scores, extracts, strict=True):
        review = written[doc.id]
        band = oracle.scaled(oracle.proximity_band(
            len(review.sentences), threshold, decay, strength, weight, review.starts
        ))
        side, _ = oracle.canonical_side(
            oracle.scaled(doc_scores.class1), oracle.scaled(doc_scores.class2), band
        )
        assert extract.selected == side, doc.id
        texts[doc.id] = "\n".join(review.sentences[i] for i in side)

    ids = sorted(written)
    fold_of = np.array([written[i].fold for i in ids])
    labels = np.array([written[i].label == "positive" for i in ids], dtype=int)
    presence = oracle.presence_matrix([texts[i].lower().split() for i in ids])
    assert [f.fold for f in report.folds] == list(range(FOLDS))
    for f in report.folds:
        test, train = np.flatnonzero(fold_of == f.fold), np.flatnonzero(fold_of != f.fold)
        assert f.train_digest == oracle.train_digest([(ids[j], texts[ids[j]]) for j in train])
        predicted, gap = oracle.nb_fold_predictions(presence, labels, train, test)
        correct = int((predicted == labels[test]).sum())
        ties = int((np.abs(gap) < NB_TIE_GAP).sum())
        right = round(f.accuracy * len(test))
        assert f.n_test == len(test) and f.accuracy == right / len(test), f.fold
        assert abs(right - correct) <= ties, f.fold
