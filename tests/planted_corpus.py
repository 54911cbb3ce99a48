"""A synthetic corpus with planted signal, shared by the test modules.

Synthetic reviews mix "opinion" sentences (sentiment-bearing words whose
polarity matches the document label) with "plot" sentences (neutral narrative
words). A detector trained on the synthetic sentence corpus can therefore
separate the two kinds, and a polarity classifier over the opinion sentences
can recover the document label, which makes directional pipeline behavior
testable at toy scale. ``conftest.py`` builds its fixtures from these
helpers; test modules import them from here, and ``per_document``, which
reads a selection's flags back as one tuple per document.
"""

from __future__ import annotations

import numpy as np

from subjcut.corpus import OBJECTIVE, SUBJECTIVE, LabeledSentence
from subjcut.features import FeatureRows, Vocabulary, featurize_rows, type_counts

from references import presence_matrix

OPINION_POSITIVE = [
    "excellent", "wonderful", "gripping", "superb", "delightful",
    "moving", "brilliant", "enjoyable", "stunning", "rewarding",
]
OPINION_NEGATIVE = [
    "awful", "dreadful", "boring", "clumsy", "tedious",
    "lifeless", "grating", "unwatchable", "hollow", "painful",
]
OPINION_NEUTRAL = ["truly", "simply", "utterly", "performance", "direction", "pacing"]
PLOT_WORDS = [
    "brother", "city", "detective", "returns", "discovers", "letter",
    "village", "journey", "meets", "factory", "morning", "train",
    "harbor", "widow", "garden", "inherits",
]
FILLER = ["the", "a", "and", "of", "to", "in", "his", "her"]


def make_subjective_sentence(rng: np.random.Generator, polarity: str) -> str:
    lexicon = OPINION_POSITIVE if polarity == "positive" else OPINION_NEGATIVE
    words = [str(rng.choice(FILLER)), "film", "is"]
    words += [str(rng.choice(lexicon)) for _ in range(int(rng.integers(2, 4)))]
    words += [str(rng.choice(OPINION_NEUTRAL)) for _ in range(int(rng.integers(1, 3)))]
    return " ".join(words)


def make_objective_sentence(rng: np.random.Generator) -> str:
    words = [str(rng.choice(FILLER))]
    words += [str(rng.choice(PLOT_WORDS)) for _ in range(int(rng.integers(4, 7)))]
    return " ".join(words)


def make_review_lines(
    rng: np.random.Generator,
    polarity: str,
    n_subjective: int = 4,
    n_objective: int = 4,
    paragraph_break_after: int | None = None,
) -> list[str]:
    """Sentence lines for one review; optionally with one blank-line break."""
    kinds = ["s"] * n_subjective + ["o"] * n_objective
    rng.shuffle(kinds)
    lines = []
    for i, kind in enumerate(kinds):
        if paragraph_break_after is not None and i == paragraph_break_after:
            lines.append("")
        if kind == "s":
            lines.append(make_subjective_sentence(rng, polarity))
        else:
            lines.append(make_objective_sentence(rng))
    return lines


def write_polarity_tree(
    root,
    n_pos: int = 20,
    n_neg: int = 20,
    seed: int = 0,
    paragraph_breaks: bool = False,
) -> None:
    rng = np.random.default_rng(seed)
    for label, count in (("pos", n_pos), ("neg", n_neg)):
        d = root / label
        d.mkdir(parents=True)
        polarity = "positive" if label == "pos" else "negative"
        for i in range(count):
            break_at = 4 if paragraph_breaks else None
            lines = make_review_lines(rng, polarity, paragraph_break_after=break_at)
            (d / f"{label}_{i:03d}.txt").write_text("\n".join(lines) + "\n", encoding="utf-8")


def make_sentence_corpus(n_each: int = 200, seed: int = 1) -> list[LabeledSentence]:
    rng = np.random.default_rng(seed)
    sentences = []
    for i in range(n_each):
        polarity = "positive" if i % 2 == 0 else "negative"
        sentences.append(
            LabeledSentence(text=make_subjective_sentence(rng, polarity), label=SUBJECTIVE)
        )
    for _ in range(n_each):
        sentences.append(LabeledSentence(text=make_objective_sentence(rng), label=OBJECTIVE))
    return sentences


def vocabulary_of(texts, min_doc_freq: int = 1) -> Vocabulary:
    """The vocabulary built from all of the tokenized ``texts``."""
    matrix = presence_matrix(texts)
    every = np.zeros(len(texts), dtype=np.int64)
    return matrix.vocabulary(type_counts(matrix, every, every).columns(min_doc_freq)[0])


def rows_over(texts, vocab: Vocabulary) -> FeatureRows:
    """Presence rows of the tokenized ``texts`` over a saved vocabulary."""
    matrix = presence_matrix(texts)
    column_of = vocab.column_map(matrix.types)
    return featurize_rows(matrix, column_of, vocab.size, np.arange(len(matrix)))


def per_document(flags: np.ndarray, lengths) -> list[tuple[int, ...]]:
    """One flag per sentence of documents of ``lengths`` sentences, one after
    another, read back as each document's tuple of kept sentence indices."""
    bounds = np.cumsum([0, *lengths]).tolist()
    assert flags.dtype == bool and flags.shape == (bounds[-1],)
    return [tuple(np.flatnonzero(flags[a:b]).tolist()) for a, b in zip(bounds, bounds[1:])]
