import json
import re
import tempfile
from dataclasses import replace
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

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


# The loader as it was, kept as the reference for the one-pass loader: each
# file listed by ``Path.iterdir``, read in text mode, scanned by the
# three-pass parser below, and each document built twice (folds assigned by
# ``dataclasses.replace``).


def three_pass_read_sentences(raw_text):
    return [line.strip() for line in raw_text.splitlines() if line.strip()]


def three_pass_detect_paragraphs(raw_text, sidecar=None):
    n_sentences = len(three_pass_read_sentences(raw_text))
    if sidecar is not None:
        starts = tuple(int(i) for i in sidecar)
        if not starts or starts[0] != 0:
            raise ConfigurationError("sidecar paragraph starts must begin with 0")
        if any(b <= a for a, b in zip(starts, starts[1:])):
            raise ConfigurationError("sidecar paragraph starts must be strictly increasing")
        if starts[-1] >= max(n_sentences, 1):
            raise ConfigurationError("sidecar paragraph start out of range")
        return starts
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


def reference_load(root, k=10, sidecar_path=None):
    sidecars = load_sidecar(sidecar_path) if sidecar_path else {}
    docs = []
    for label, sub in (("positive", "pos"), ("negative", "neg")):
        for f in sorted(p for p in (Path(root) / sub).iterdir() if p.is_file()):
            raw = f.read_text(encoding="utf-8", errors="replace")
            sentences = three_pass_read_sentences(raw)
            if sentences:
                starts = three_pass_detect_paragraphs(raw, sidecars.get(f.stem))
                docs.append(ReviewDocument(f.stem, label, tuple(sentences), starts))
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
        assert detect_paragraphs(raw) == three_pass_detect_paragraphs(raw)

    @settings(max_examples=40, deadline=None)
    @given(pos=label_dir, neg=label_dir, k=st.sampled_from([2, 3, 10]))
    def test_random_trees_load_equal(self, pos, neg, k):
        with tempfile.TemporaryDirectory() as tmp:
            root = Path(tmp)
            write_tree(root, {f"pos/{n}": d for n, d in pos.items()})
            write_tree(root, {f"neg/{n}": d for n, d in neg.items()})
            (root / "pos" / "subdir").mkdir()
            expected = reference_load(root, k)
            if {d.label for d in expected} != {"positive", "negative"}:
                with pytest.raises(IngestionError, match="no usable documents"):
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

    def test_sidecar_for_some_documents(self, tmp_path):
        write_tree(tmp_path, {
            "pos/a.txt": b"s0\ns1\n\ns2\ns3\n",
            "pos/b.txt": b"s0\n\ns1\ns2\n",
            "neg/c.txt": b"s0\ns1\ns2\n",
            "side.tsv": b"a\t0,1,3\nc\t0,2\nmissing\t0,9\n",
        })
        side = tmp_path / "side.tsv"
        docs = load_polarity_dataset(tmp_path, sidecar_path=side)
        assert docs == reference_load(tmp_path, sidecar_path=side)
        assert [d.paragraph_starts for d in docs] == [(0, 1, 3), (0, 1), (0, 2)]
        (tmp_path / "side.tsv").write_bytes(b"b\t0,3\n")
        with pytest.raises(ConfigurationError, match="out of range"):
            load_polarity_dataset(tmp_path, sidecar_path=side)

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
        # neither the tree nor the sidecar exists: reading either would fail otherwise
        with pytest.raises(ConfigurationError, match="fold count"):
            load_polarity_dataset(tmp_path / "absent", k=1, sidecar_path=tmp_path / "absent.tsv")
