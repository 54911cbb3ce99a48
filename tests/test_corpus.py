import json

import pytest

from subjcut.corpus import (
    ConfigurationError,
    IngestionError,
    LabeledSentence,
    ReviewDocument,
    assign_folds,
    build_manifest,
    detect_paragraphs,
    load_polarity_dataset,
    load_sidecar,
    load_subjectivity_dataset,
    tokenize,
)


def _doc(**kw):
    base = dict(id="d", label="positive", sentences=("one two", "three"))
    base.update(kw)
    return ReviewDocument(**base)


class TestReviewDocument:
    def test_word_count_sums_tokens(self):
        doc = _doc(sentences=("a b c", "d e", "f"))
        assert doc.word_count == 6

    def test_sentence_word_counts_are_counted_once(self):
        doc = _doc(sentences=("a b c", "d  e", "f"))
        assert doc.sentence_word_counts == (3, 2, 1)
        assert doc.sentence_word_counts is doc.sentence_word_counts
        assert doc.word_count == 6

    def test_rejects_empty_sentences(self):
        with pytest.raises(ValueError):
            _doc(sentences=())
        with pytest.raises(ValueError):
            _doc(sentences=("ok", "   "))

    def test_rejects_bad_paragraph_starts(self):
        with pytest.raises(ValueError):
            _doc(paragraph_starts=(1,))
        with pytest.raises(ValueError):
            _doc(paragraph_starts=(0, 0))
        with pytest.raises(ValueError):
            _doc(paragraph_starts=(0, 5))

    def test_round_trips_through_dict(self):
        doc = _doc(sentences=("a b", "c"), paragraph_starts=(0, 1), fold=3)
        again = ReviewDocument.from_dict(json.loads(json.dumps(doc.to_dict())))
        assert again == doc

    def test_round_trip_rejects_corrupt_word_count(self):
        d = _doc().to_dict()
        d["word_count"] += 1
        with pytest.raises(ValueError):
            ReviewDocument.from_dict(d)


def test_labeled_sentence_needs_tokens():
    with pytest.raises(ValueError):
        LabeledSentence(text="   ", label="subjective")


def test_tokenize_lowercases_and_splits():
    assert tokenize("The  Film IS good") == ["the", "film", "is", "good"]


class TestLoadPolarity:
    def test_loads_synthetic_tree(self, synthetic_corpus_root, synthetic_documents):
        docs = synthetic_documents
        assert len(docs) == 40
        assert sum(d.label == "positive" for d in docs) == 20
        assert sum(d.label == "negative" for d in docs) == 20
        assert all(d.sentences for d in docs)

    def test_word_count_matches_hand_count(self, tmp_path):
        (tmp_path / "pos").mkdir()
        (tmp_path / "neg").mkdir()
        (tmp_path / "pos" / "a.txt").write_text("one two three\nfour five\nsix\n")
        (tmp_path / "neg" / "b.txt").write_text("just one line here\n")
        docs = load_polarity_dataset(tmp_path)
        by_id = {d.id: d for d in docs}
        assert len(by_id["a"].sentences) == 3
        assert by_id["a"].word_count == 6
        assert by_id["b"].word_count == 4

    def test_missing_subdirectory_is_fatal(self, tmp_path):
        (tmp_path / "pos").mkdir()
        with pytest.raises(IngestionError):
            load_polarity_dataset(tmp_path)

    def test_zero_files_is_fatal(self, tmp_path):
        (tmp_path / "pos").mkdir()
        (tmp_path / "neg").mkdir()
        with pytest.raises(IngestionError):
            load_polarity_dataset(tmp_path)

    def test_empty_file_skipped_with_warning(self, tmp_path, caplog):
        (tmp_path / "pos").mkdir()
        (tmp_path / "neg").mkdir()
        (tmp_path / "pos" / "a.txt").write_text("fine content\n")
        (tmp_path / "pos" / "empty.txt").write_text("\n\n")
        (tmp_path / "neg" / "b.txt").write_text("fine too\n")
        with caplog.at_level("WARNING"):
            docs = load_polarity_dataset(tmp_path)
        assert {d.id for d in docs} == {"a", "b"}
        assert any("empty" in r.message for r in caplog.records)

    def test_sidecar_boundaries_win(self, tmp_path):
        (tmp_path / "pos").mkdir()
        (tmp_path / "neg").mkdir()
        (tmp_path / "pos" / "a.txt").write_text("s0\ns1\ns2\ns3\n")
        (tmp_path / "neg" / "b.txt").write_text("s0\ns1\n")
        sidecar = tmp_path / "paragraphs.tsv"
        sidecar.write_text("a\t0,2\n")
        docs = load_polarity_dataset(tmp_path, sidecar_path=sidecar)
        by_id = {d.id: d for d in docs}
        assert by_id["a"].paragraph_starts == (0, 2)
        assert by_id["b"].paragraph_starts == (0,)


class TestLoadSubjectivity:
    def test_minimal_pair(self, tmp_path):
        quote = tmp_path / "quote.txt"
        plot = tmp_path / "plot.txt"
        quote.write_text("bold and impossible to resist\n")
        plot.write_text("a detective returns to the city\n")
        sentences = load_subjectivity_dataset(quote, plot)
        assert [s.label for s in sentences] == ["subjective", "objective"]

    def test_blank_lines_reduce_count(self, tmp_path):
        quote = tmp_path / "q.txt"
        plot = tmp_path / "p.txt"
        quote.write_text("one\n\ntwo\n\n\nthree\n")  # 3 sentences, 3 blanks
        plot.write_text("only\n")
        sentences = load_subjectivity_dataset(quote, plot)
        assert sum(s.label == "subjective" for s in sentences) == 3
        assert sum(s.label == "objective" for s in sentences) == 1

    def test_unreadable_file_is_fatal(self, tmp_path):
        plot = tmp_path / "p.txt"
        plot.write_text("x\n")
        with pytest.raises(IngestionError):
            load_subjectivity_dataset(tmp_path / "missing.txt", plot)


class TestAssignFolds:
    def test_cv_tag_rule(self):
        docs = [
            _doc(id="cv000_29590"),
            _doc(id="cv999_14111"),
            _doc(id="cv457_18046"),
        ]
        folds = [d.fold for d in assign_folds(docs, k=10)]
        assert folds == [0, 9, 4]

    def test_untagged_round_robin(self):
        docs = [_doc(id=str(i)) for i in range(20)]
        folds = [d.fold for d in assign_folds(docs, k=10)]
        assert folds == list(range(10)) + list(range(10))

    def test_k_below_two_rejected(self):
        with pytest.raises(ConfigurationError):
            assign_folds([_doc()], k=1)

    def test_folds_partition_documents(self, synthetic_documents):
        per_fold = {}
        for d in synthetic_documents:
            per_fold.setdefault(d.fold, []).append(d.id)
        assert sorted(per_fold) == list(range(10))
        all_ids = [i for ids in per_fold.values() for i in ids]
        assert sorted(all_ids) == sorted(d.id for d in synthetic_documents)


class TestDetectParagraphs:
    def test_blank_line_heuristic(self):
        raw = "s0\ns1\n\ns2\ns3\ns4\n"
        assert detect_paragraphs(raw) == (0, 2)

    def test_no_breaks_single_paragraph(self):
        assert detect_paragraphs("s0\ns1\ns2\n") == (0,)

    def test_sidecar_passthrough(self):
        raw = "\n".join(f"s{i}" for i in range(10))
        assert detect_paragraphs(raw, sidecar=[0, 3, 7]) == (0, 3, 7)

    def test_sidecar_out_of_range(self):
        with pytest.raises(ConfigurationError):
            detect_paragraphs("s0\ns1\n", sidecar=[0, 5])

    def test_sidecar_must_start_at_zero(self):
        with pytest.raises(ConfigurationError):
            detect_paragraphs("s0\ns1\n", sidecar=[1])

    def test_leading_blanks_ignored(self):
        assert detect_paragraphs("\n\ns0\ns1\n") == (0,)


def test_load_sidecar_parses_and_rejects(tmp_path):
    f = tmp_path / "sc.tsv"
    f.write_text("doc1\t0,3,7\ndoc2\t0\n")
    assert load_sidecar(f) == {"doc1": (0, 3, 7), "doc2": (0,)}
    f.write_text("doc-without-tab\n")
    with pytest.raises(ConfigurationError):
        load_sidecar(f)


class TestManifest:
    def test_deterministic_and_counts(self, synthetic_corpus_root, tmp_path):
        quote = tmp_path / "q.txt"
        plot = tmp_path / "p.txt"
        quote.write_text("a b c\nd e f\n")
        plot.write_text("g h i\n")
        m1 = build_manifest(synthetic_corpus_root, quote, plot)
        m2 = build_manifest(synthetic_corpus_root, quote, plot)
        assert m1.to_json() == m2.to_json()
        assert m1.positive_count == 20
        assert m1.negative_count == 20
        assert m1.subjective_count == 2
        assert m1.objective_count == 1
        assert len(m1.checksums) == 42

    def test_records_skipped_empty_files(self, tmp_path):
        (tmp_path / "pos").mkdir()
        (tmp_path / "neg").mkdir()
        (tmp_path / "pos" / "a.txt").write_text("ok\n")
        (tmp_path / "pos" / "empty.txt").write_text("")
        (tmp_path / "neg" / "b.txt").write_text("ok\n")
        m = build_manifest(tmp_path)
        assert m.skipped == ("pos/empty.txt",)
        assert m.positive_count == 1
