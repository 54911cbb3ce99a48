import hashlib
import re
import tempfile
from dataclasses import replace
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from subjcut.corpus import (
    IngestionError,
    LabeledSentence,
    ReviewDocument,
    _parse_lines,
    build_manifest,
    load_polarity_dataset,
    load_subjectivity_dataset,
    read_sentences,
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

    def test_a_stem_repeated_in_one_directory_is_refused(self, tmp_path):
        write_tree(tmp_path, {
            "pos/cv000_a.txt": b"s\n", "pos/cv000_a.md": b"t\n", "neg/b.txt": b"s\n",
        })
        with pytest.raises(IngestionError, match="same review id 'cv000_a'") as refused:
            load_polarity_dataset(tmp_path)
        for name in ("cv000_a.md", "cv000_a.txt"):
            assert str(tmp_path / "pos" / name) in str(refused.value)

    def test_a_stem_in_both_directories_loads(self, tmp_path):
        write_tree(tmp_path, {"pos/cv000_a.txt": b"s\n", "neg/cv000_a.txt": b"t\n"})
        docs = load_polarity_dataset(tmp_path)
        assert [(d.id, d.label) for d in docs] == [("cv000_a", "positive"), ("cv000_a", "negative")]


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


class TestFoldRule:
    def test_cv_tag_rule(self, tmp_path):
        write_tree(tmp_path, {
            "pos/cv000_29590.txt": b"s\n",
            "pos/cv999_14111.txt": b"s\n",
            "neg/cv457_18046.txt": b"s\n",
        })
        folds = [d.fold for d in load_polarity_dataset(tmp_path, k=10)]
        assert folds == [0, 9, 4]

    def test_untagged_round_robin(self, tmp_path):
        write_tree(tmp_path, {f"{'pos' if i < 10 else 'neg'}/{i}.txt": b"s\n" for i in range(20)})
        folds = [d.fold for d in load_polarity_dataset(tmp_path, k=10)]
        assert folds == list(range(10)) + list(range(10))

    def test_folds_partition_documents(self, synthetic_documents):
        per_fold = {}
        for d in synthetic_documents:
            per_fold.setdefault(d.fold, []).append(d.id)
        assert sorted(per_fold) == list(range(10))
        all_ids = [i for ids in per_fold.values() for i in ids]
        assert sorted(all_ids) == sorted(d.id for d in synthetic_documents)


def loaded_paragraph_starts(root, raw):
    """The paragraph starts the loader gives a review of text ``raw``."""
    write_tree(root, {"pos/d.txt": raw.encode(), "neg/e.txt": b"s\n"})
    return load_polarity_dataset(root)[0].paragraph_starts


class TestParagraphStarts:
    def test_blank_line_heuristic(self, tmp_path):
        raw = "s0\ns1\n\ns2\ns3\ns4\n"
        assert loaded_paragraph_starts(tmp_path, raw) == (0, 2)

    def test_no_breaks_single_paragraph(self, tmp_path):
        assert loaded_paragraph_starts(tmp_path, "s0\ns1\ns2\n") == (0,)

    def test_leading_blanks_ignored(self, tmp_path):
        assert loaded_paragraph_starts(tmp_path, "\n\ns0\ns1\n") == (0,)


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
        (tmp_path / "q.txt").write_text("a b c\n")
        (tmp_path / "p.txt").write_text("g h i\n")
        m = build_manifest(tmp_path, tmp_path / "q.txt", tmp_path / "p.txt")
        assert m.skipped == ("pos/empty.txt",)
        assert m.positive_count == 1

    def test_digests_are_of_the_bytes_and_counts_of_the_decoded_text(self, tmp_path):
        # CRLF, a lone CR, invalid and truncated UTF-8 and a BOM: one read gives both
        files = {
            "pos/cv001_a.txt": b"one two\r\n\r\nthree \xff\r\n",
            "pos/empty.txt": b"\n \r\n",
            "neg/cv002_b.txt": b"\xef\xbb\xbfx y\rz\n",
            "q.txt": b"a b c\n\nd e f\n",
            "p.txt": b"g h \xe2\x80\n",
        }
        write_tree(tmp_path, files)
        m = build_manifest(tmp_path, tmp_path / "q.txt", tmp_path / "p.txt")
        assert m.checksums == {
            rel: hashlib.sha256(data).hexdigest() for rel, data in files.items()
        }
        counts = (m.positive_count, m.negative_count, m.subjective_count, m.objective_count)
        assert counts == (1, 1, 2, 1)
        assert m.skipped == ("pos/empty.txt",)


# The loader as it was, kept as the reference for the one-pass loader: each
# file listed by ``Path.iterdir``, read in text mode, scanned by the
# three-pass parser below, and each document built twice (folds assigned by
# ``dataclasses.replace``).


def three_pass_read_sentences(raw_text):
    return [line.strip() for line in raw_text.splitlines() if line.strip()]


def three_pass_detect_paragraphs(raw_text):
    starts = [0]
    index = 0
    pending_break = False
    for line in raw_text.splitlines():
        if not line.strip():
            pending_break = True
            continue
        if pending_break and index > 0:
            starts.append(index)
        pending_break = False
        index += 1
    return tuple(starts)


def replace_assign_folds(docs, k):
    out = []
    for ordinal, doc in enumerate(docs):
        fold = None
        m = re.match(r"^cv(\d{3})", doc.id)
        if m and int(m.group(1)) // 100 < k:
            fold = int(m.group(1)) // 100
        out.append(replace(doc, fold=ordinal % k if fold is None else fold))
    return out


def reference_load(root, k=10):
    """The reference loader, which also refuses, in the loader's order, a stem
    repeated in one directory and a directory with no usable document."""
    docs = []
    for label, sub in (("positive", "pos"), ("negative", "neg")):
        files = sorted(p for p in (Path(root) / sub).iterdir() if p.is_file())
        stems = [f.stem for f in files]
        kept = len(docs)
        for i, f in enumerate(files):
            if f.stem in stems[:i]:
                raise IngestionError("same review id")
            raw = f.read_text(encoding="utf-8", errors="replace")
            sentences = three_pass_read_sentences(raw)
            if sentences:
                starts = three_pass_detect_paragraphs(raw)
                docs.append(ReviewDocument(f.stem, label, tuple(sentences), starts))
        if len(docs) == kept:
            raise IngestionError("no usable documents")
    return replace_assign_folds(docs, k)


def write_tree(root, files):
    for rel, data in files.items():
        path = root / rel
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_bytes(data)


# Line pieces that stress the parser: \n, \r\n and \r, the breaks NEL and
# U+2028 that splitlines also knows, whitespace-only runs, invalid and
# truncated UTF-8, and a BOM.
LINE_PIECES = [
    b"word", b"two words", b"cv123", b" ", b"\t", b"\x0c", b"\n", b"\r\n", b"\r",
    b"\xc2\x85", b"\xe2\x80\xa8", b"\xff", b"\xe2\x80", b"\xef\xbb\xbf", b"\xc3\xa9t\xc3\xa9",
]
FILE_NAMES = [
    "cv000_1.txt", "cv105_2.txt", "cv950_3.txt", "cv999_4", "B.txt", "a.txt", "a.md",
    "a.", ".hidden", "x.tar.gz", "z10.txt", "z9.txt", "cv12_5.txt",
]
file_bytes = st.lists(st.sampled_from(LINE_PIECES), max_size=25).map(b"".join)
label_dir = st.dictionaries(st.sampled_from(FILE_NAMES), file_bytes, min_size=1, max_size=6)


class TestOnePassIngestion:
    """The one-pass loader equals the three-pass, build-twice loader it replaced."""

    @settings(max_examples=40, deadline=None)
    @given(text=file_bytes)
    def test_parser_equals_the_three_pass_parser(self, text):
        raw = text.decode("utf-8", errors="replace")
        assert read_sentences(raw) == three_pass_read_sentences(raw)
        assert _parse_lines(raw)[1] == three_pass_detect_paragraphs(raw)

    @settings(max_examples=40, deadline=None)
    @given(pos=label_dir, neg=label_dir, k=st.sampled_from([2, 3, 10]))
    def test_random_trees_load_equal(self, pos, neg, k):
        with tempfile.TemporaryDirectory() as tmp:
            root = Path(tmp)
            write_tree(root, {f"pos/{n}": d for n, d in pos.items()})
            write_tree(root, {f"neg/{n}": d for n, d in neg.items()})
            (root / "pos" / "subdir").mkdir()
            try:
                expected = reference_load(root, k)
            except IngestionError as refusal:
                with pytest.raises(IngestionError, match=str(refusal)):
                    load_polarity_dataset(root, k)
                return
            assert load_polarity_dataset(root, k) == expected

    def test_crlf_whitespace_lines_and_blank_runs(self, tmp_path):
        write_tree(tmp_path, {
            "pos/a.txt": b"\r\n \t\r\n\r\none two\r\nthree\r\n\r\n\x0c\r\nfour\r\n\r\n\r\n",
            "pos/b.txt": b"one\rtwo\r\rthree  \r\n\n\n\n",
            "neg/c.txt": b"\n\n\nx y\n\n\n\nz\n   \n",
        })
        docs = load_polarity_dataset(tmp_path)
        assert docs == reference_load(tmp_path)
        by_id = {d.id: d for d in docs}
        assert by_id["a"].sentences == ("one two", "three", "four")
        assert by_id["a"].paragraph_starts == (0, 2)
        assert by_id["b"].paragraph_starts == (0, 2)
        assert by_id["c"].paragraph_starts == (0, 1)

    def test_empty_file_before_an_untagged_file(self, tmp_path, caplog):
        write_tree(tmp_path, {
            "pos/a.txt": b"\n \r\n",
            "pos/b.txt": b"kept\n",
            "pos/c.txt": b"kept too\n",
            "neg/d.txt": b"",
            "neg/e.txt": b"kept\n",
        })
        with caplog.at_level("WARNING", logger="subjcut.corpus"):
            docs = load_polarity_dataset(tmp_path, k=2)
        assert docs == reference_load(tmp_path, k=2)
        # the ordinal counts only the files kept
        assert [(d.id, d.fold) for d in docs] == [("b", 0), ("c", 1), ("e", 0)]
        assert sum("skipping empty file" in r.getMessage() for r in caplog.records) == 2

    def test_cv_tag_at_or_above_k(self, tmp_path):
        write_tree(tmp_path, {
            "pos/cv499_1.txt": b"s\n",
            "pos/cv500_2.txt": b"s\n",
            "neg/cv700_3.txt": b"s\n",
            "neg/cv100_4.txt": b"s\n",
        })
        docs = load_polarity_dataset(tmp_path, k=5)
        assert docs == reference_load(tmp_path, k=5)
        assert [d.fold for d in docs] == [4, 1, 1, 3]

    def test_symlinks_are_listed_as_path_is_file_lists_them(self, tmp_path):
        write_tree(tmp_path, {"pos/a.txt": b"s\n", "neg/b.txt": b"s\n", "elsewhere/c.txt": b"t\n"})
        (tmp_path / "pos" / "to_file.txt").symlink_to(tmp_path / "elsewhere" / "c.txt")
        (tmp_path / "pos" / "to_dir").symlink_to(tmp_path / "elsewhere")
        (tmp_path / "pos" / "dangling").symlink_to(tmp_path / "absent.txt")
        (tmp_path / "pos" / "loop").symlink_to(tmp_path / "pos" / "loop")
        docs = load_polarity_dataset(tmp_path)
        assert docs == reference_load(tmp_path)
        assert [d.id for d in docs] == ["a", "to_file", "b"]

    def test_k_below_two_refused_before_any_read(self, tmp_path):
        # the tree does not exist: reading it would fail otherwise
        with pytest.raises(ValueError, match="fold count"):
            load_polarity_dataset(tmp_path / "absent", k=1)
