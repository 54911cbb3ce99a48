"""The synthetic corpus: deterministic per seed, loadable at the published counts."""

import synth
from subjcut.corpus import load_polarity_dataset, load_subjectivity_dataset


def test_same_seed_same_bytes_other_seed_other_bytes(tmp_path):
    first = synth.generate(tmp_path / "a", seed=3)
    again = synth.generate(tmp_path / "b", seed=3)
    other = synth.generate(tmp_path / "c", seed=4)
    assert synth.tree_digest(first) == synth.tree_digest(again)
    assert synth.tree_digest(first) != synth.tree_digest(other)


def test_loaders_see_the_published_shape(tmp_path):
    synth.generate(tmp_path, seed=11)
    docs = load_polarity_dataset(tmp_path)
    sentences = load_subjectivity_dataset(tmp_path / synth.QUOTE_FILE, tmp_path / synth.PLOT_FILE)
    assert sum(d.label == "positive" for d in docs) == 1000
    assert sum(d.label == "negative" for d in docs) == 1000
    assert sum(s.label == "subjective" for s in sentences) == 5000
    assert sum(s.label == "objective" for s in sentences) == 5000
    assert {d.fold for d in docs} == set(range(10))
    lengths = [len(d.sentences) for d in docs]
    assert min(lengths) >= 20 and max(lengths) <= 45
    tokens = [len(s.split()) for d in docs[:50] for s in d.sentences]
    assert min(tokens) >= 12 and max(tokens) <= 30
    assert sum(len(d.paragraph_starts) > 1 for d in docs) > 1900
