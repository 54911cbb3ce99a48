"""Seeded synthetic corpus of the published shape, written as the loaders expect it.

Layout of the generated directory::

    pos/cvNNN_MMMMM.txt   1000 positive reviews, one sentence per line
    neg/cvNNN_MMMMM.txt   1000 negative reviews
    quote.tok.gt9.5000    5000 subjective detector sentences
    plot.tok.gt9.5000     5000 objective detector sentences

Every review has 20-45 sentences of 12-30 tokens, with blank lines between
paragraphs. Background tokens follow a Zipf-Mandelbrot law over 40 000 types.
Subjective sentences carry planted subjectivity words; objective ones carry
planted plot words. Polarity words are planted mostly in subjective sentences
and match the review's label 75 % of the time, so polarity accuracy stays
well inside (0.5, 1). Subjectivity runs in spells (a two-state Markov chain),
which is what gives proximity edges something to find.

All draws are vectorised over the whole corpus; only the final string joins
loop in Python. The same seed gives byte-identical files.
"""

from __future__ import annotations

import hashlib
from pathlib import Path

import numpy as np

VOCAB_SIZE = 40_000
ZIPF_EXPONENT = 1.05
ZIPF_SHIFT = 2.7
REVIEWS_PER_LABEL = 1000
DETECTOR_SENTENCES_PER_LABEL = 5000
SENTENCES_PER_REVIEW = (20, 45)
TOKENS_PER_SENTENCE = (12, 30)
PARAGRAPH_BREAK_RATE = 0.2
SUBJECTIVE_STAY = 0.8  # P(next sentence has the same subjectivity)

# planted word sets: disjoint, drawn once from mid-frequency ranks
N_SUBJECTIVE_WORDS = 400
N_PLOT_WORDS = N_SUBJECTIVE_WORDS
N_POLARITY_WORDS = 100  # per polarity
SUBJECTIVE_WORD_RATE = 0.12  # per token of a subjective sentence
PLOT_WORD_RATE = 0.12  # per token of an objective sentence
POLARITY_RATE_SUBJECTIVE = 0.04  # per token of a subjective sentence
POLARITY_RATE_OBJECTIVE = 0.015  # per token of an objective sentence
POLARITY_AGREEMENT = 0.75  # share of a review's polarity words that match its label

QUOTE_FILE = "quote.tok.gt9.5000"
PLOT_FILE = "plot.tok.gt9.5000"


def _word(k: int) -> str:
    letters = "etaoinshrdlucmfwypvbgkqjxz"
    out = []
    k += 1
    while k:
        k, r = divmod(k - 1, len(letters))
        out.append(letters[r])
    return "".join(out)


WORDS = np.array([_word(k) for k in range(VOCAB_SIZE)], dtype=object)
_ranks = np.arange(VOCAB_SIZE, dtype=float)
_weights = 1.0 / (_ranks + ZIPF_SHIFT) ** ZIPF_EXPONENT
ZIPF_CDF = np.cumsum(_weights / _weights.sum())
ZIPF_CDF[-1] = 1.0

_roles = np.random.default_rng(20040).permutation(np.arange(300, 6000))
SUBJECTIVE_WORDS = _roles[:N_SUBJECTIVE_WORDS]
PLOT_WORDS = _roles[N_SUBJECTIVE_WORDS : N_SUBJECTIVE_WORDS + N_PLOT_WORDS]
_p0 = N_SUBJECTIVE_WORDS + N_PLOT_WORDS
POSITIVE_WORDS = _roles[_p0 : _p0 + N_POLARITY_WORDS]
NEGATIVE_WORDS = _roles[_p0 + N_POLARITY_WORDS : _p0 + 2 * N_POLARITY_WORDS]


def _sentence_tokens(
    rng: np.random.Generator,
    subjective: np.ndarray,
    polarity_sign: np.ndarray,
) -> tuple[np.ndarray, np.ndarray]:
    """Token ids of many sentences at once, plus each sentence's offset.

    ``subjective`` marks subjective sentences; ``polarity_sign`` is +1 / -1
    for the preferred polarity of each sentence's planted polarity words, or 0
    for no preference.
    """
    n = len(subjective)
    lengths = rng.integers(TOKENS_PER_SENTENCE[0], TOKENS_PER_SENTENCE[1] + 1, n)
    offsets = np.concatenate(([0], np.cumsum(lengths)))
    owner = np.repeat(np.arange(n), lengths)
    total = int(offsets[-1])
    ids = np.searchsorted(ZIPF_CDF, rng.random(total), side="right")
    tok_subj = subjective[owner]

    u = rng.random(total)
    plant_role = np.where(tok_subj, u < SUBJECTIVE_WORD_RATE, u < PLOT_WORD_RATE)
    role_pick = rng.integers(0, N_SUBJECTIVE_WORDS, total)
    role_words = np.where(tok_subj, SUBJECTIVE_WORDS[role_pick], PLOT_WORDS[role_pick])
    ids = np.where(plant_role, role_words, ids)

    v = rng.random(total)
    pol_rate = np.where(tok_subj, POLARITY_RATE_SUBJECTIVE, POLARITY_RATE_OBJECTIVE)
    plant_pol = (v < pol_rate) & ~plant_role
    sign = polarity_sign[owner]
    agree = rng.random(total) < POLARITY_AGREEMENT
    positive = np.where(sign == 0, rng.random(total) < 0.5, (sign > 0) == agree)
    pol_pick = rng.integers(0, N_POLARITY_WORDS, total)
    pol_words = np.where(positive, POSITIVE_WORDS[pol_pick], NEGATIVE_WORDS[pol_pick])
    ids = np.where(plant_pol, pol_words, ids)
    return ids, offsets


def _join(ids: np.ndarray, offsets: np.ndarray) -> list[str]:
    words = WORDS[ids]
    return [" ".join(words[a:b]) for a, b in zip(offsets[:-1].tolist(), offsets[1:].tolist())]


def _subjectivity_spells(rng: np.random.Generator, n_docs: int, max_len: int) -> np.ndarray:
    labels = np.empty((n_docs, max_len), dtype=bool)
    labels[:, 0] = rng.random(n_docs) < 0.5
    flips = rng.random((n_docs, max_len)) >= SUBJECTIVE_STAY
    for j in range(1, max_len):
        labels[:, j] = labels[:, j - 1] ^ flips[:, j]
    return labels


def generate(root: str | Path, seed: int) -> dict[str, str]:
    """Write the corpus under ``root`` and return ``{relative path: sha256}``."""
    root = Path(root)
    rng = np.random.default_rng(seed)
    n_docs = 2 * REVIEWS_PER_LABEL
    doc_sign = np.repeat([1, -1], REVIEWS_PER_LABEL)
    n_sent = rng.integers(SENTENCES_PER_REVIEW[0], SENTENCES_PER_REVIEW[1] + 1, n_docs)
    spells = _subjectivity_spells(rng, n_docs, SENTENCES_PER_REVIEW[1])
    in_doc = np.arange(SENTENCES_PER_REVIEW[1])[None, :] < n_sent[:, None]
    subjective = spells[in_doc]  # row-major: document by document
    sent_sign = np.repeat(doc_sign, n_sent)
    ids, offsets = _sentence_tokens(rng, subjective, sent_sign)
    sentences = _join(ids, offsets)
    breaks = rng.random(len(sentences)) < PARAGRAPH_BREAK_RATE

    n_det = DETECTOR_SENTENCES_PER_LABEL
    det_subj = np.repeat([True, False], n_det)
    det_ids, det_offsets = _sentence_tokens(rng, det_subj, np.zeros(2 * n_det, dtype=int))
    det_sentences = _join(det_ids, det_offsets)

    files: dict[str, str] = {}
    doc_start = np.concatenate(([0], np.cumsum(n_sent))).tolist()
    for d in range(n_docs):
        label_dir = "pos" if d < REVIEWS_PER_LABEL else "neg"
        i = d % REVIEWS_PER_LABEL
        lines = []
        for s in range(doc_start[d], doc_start[d + 1]):
            if s > doc_start[d] and breaks[s]:
                lines.append("")
            lines.append(sentences[s])
        files[f"{label_dir}/cv{i:03d}_{10000 + i:05d}.txt"] = "\n".join(lines) + "\n"
    files[QUOTE_FILE] = "\n".join(det_sentences[:n_det]) + "\n"
    files[PLOT_FILE] = "\n".join(det_sentences[n_det:]) + "\n"

    (root / "pos").mkdir(parents=True, exist_ok=True)
    (root / "neg").mkdir(parents=True, exist_ok=True)
    digests = {}
    for rel, text in files.items():
        data = text.encode("utf-8")
        (root / rel).write_bytes(data)
        digests[rel] = hashlib.sha256(data).hexdigest()
    return digests


def tree_digest(digests: dict[str, str]) -> str:
    """One digest over every file's path and digest."""
    h = hashlib.sha256()
    for rel in sorted(digests):
        h.update(f"{rel}\t{digests[rel]}\n".encode("utf-8"))
    return h.hexdigest()
