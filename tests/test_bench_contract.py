"""The benchmark's workloads still run against the program, pass their checks
and give the outputs pinned below.

``bench/`` is imported the way ``bench/tests/conftest.py`` does. Each
workload runs its set-up once, one round and its check on the seed-3 corpus;
every operation that fails must be one its check counts as a known fault of
the program. This catches a break in the interface the benchmark reads
(function names, options, result shapes) in about 12 s.

The seed-3 corpus has the published shape, so its rounds reach what the
small test corpora do not: multi-batch scoring and cuts, vocabularies of
about 40 000 types and converged detectors. The corpus's tree digest is
asserted first, so that a numpy release that changes ``synth``'s random
stream says so before any fingerprint does. Each round's fingerprint is the
SHA-256 that ``workloads.timed_rounds`` takes of the workload's outputs.
Paragraph detection, which no workload runs, is pinned by the SHA-256 of
each detector's flags on the same corpus.
"""

from __future__ import annotations

import hashlib
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1] / "bench"
sys.path[:0] = [str(BENCH), str(BENCH.parent / "src")]

import synth  # noqa: E402
import workloads  # noqa: E402

from subjcut.extraction import detect_paragraph_unit, sentence_matrix  # noqa: E402

SEED = 3
TREE_DIGEST = "5cf47d7403cce60c8a3457163440e08b537e577438ec24bc668b6c196c0233c3"
FINGERPRINTS = {
    "cv_svm_full": "a9652536705f0270703314cc943b7d74f0962fcf7b65aebc5183e69e416898dc",
    "extract_graph": "02652e931598a79c206f8dde649aa427ec404f8b2ce446055c542d941ea1804a",
    "grid_nb": "2395f66c6854526075cb2377149461c198ea3ac0e71555d77ad895472a32f9d3",
}
# SHA-256 of each detector's ``detect_paragraph_unit`` flags (bool bytes), a
# path no workload runs: paragraphs joined and scored at the published shape
PARAGRAPH_FLAGS = {
    "nb": "1edea725248288bec0bcd4733639bda6c9eb7b7790e699730d414ce2c77103a5",
    "svm": "c4855ac1d6a80b1adb9a4b8e9370527274a478fdfabb8bb35d8c072fb099c0e6",
}


@pytest.fixture(scope="module")
def bench_corpus(tmp_path_factory) -> Path:
    root = tmp_path_factory.mktemp("bench_corpus")
    digests = synth.generate(root, SEED)
    assert synth.tree_digest(digests) == TREE_DIGEST, "synth's seed-3 corpus changed"
    return root


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_one_round_fails_only_known_operations(bench_corpus, name):
    workload = workloads.WORKLOADS[name]()
    inp = workloads.Inputs(bench_corpus, workload.bases, reps=False)
    _, _, prints, outputs = workloads.timed_rounds(workload, inp, 1)
    failed, known = workload.check(inp, outputs, SEED)
    assert failed == known
    assert prints == [FINGERPRINTS[name]]


def test_paragraph_flags_are_pinned(bench_corpus):
    inp = workloads.Inputs(bench_corpus, tuple(PARAGRAPH_FLAGS), reps=False)
    matrix = sentence_matrix(inp.documents)
    for base, digest in PARAGRAPH_FLAGS.items():
        detector = inp.detectors[base]
        flags = detect_paragraph_unit(detector.model, detector.vocab, inp.documents, matrix)
        assert hashlib.sha256(flags.tobytes()).hexdigest() == digest, base
