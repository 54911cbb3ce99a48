"""Dataset ingestion: review documents, labeled sentences, folds and manifests.

Both corpora are consumed in their distributed on-disk form: review files live
under ``pos/`` and ``neg/`` with one sentence per line, and the sentence corpus
is two flat files (subjective snippets, objective plot sentences). Files are
read as UTF-8 with invalid bytes replaced. Tokenization throughout the package
is lowercase whitespace splitting, since the distributed text is pre-tokenized.
"""

from __future__ import annotations

import hashlib
import json
import logging
import numbers
import os
import re
from dataclasses import asdict, dataclass, field
from functools import cached_property
from pathlib import Path, PurePath
from typing import Iterable

log = logging.getLogger(__name__)

POSITIVE = "positive"
NEGATIVE = "negative"
SUBJECTIVE = "subjective"
OBJECTIVE = "objective"

_CV_TAG = re.compile(r"^cv(\d{3})")


class IngestionError(Exception):
    """A dataset directory or file could not be ingested."""


def tokenize(text: str) -> list[str]:
    """Lowercase whitespace tokenization, the only tokenizer in the package."""
    return text.lower().split()


@dataclass(frozen=True)
class ReviewDocument:
    """One movie review: ordered sentences plus its polarity label.

    ``paragraph_starts`` holds the integer index of the sentence opening each
    paragraph and always begins with 0. ``fold`` is the cross-validation
    fold, or -1 before folds have been assigned.
    """

    id: str
    label: str
    sentences: tuple[str, ...]
    paragraph_starts: tuple[int, ...] = (0,)
    fold: int = -1

    def __post_init__(self) -> None:
        if self.label not in (POSITIVE, NEGATIVE):
            raise ValueError(f"bad label {self.label!r}")
        if not self.sentences:
            raise ValueError(f"document {self.id}: no sentences")
        if not all(map(str.strip, self.sentences)):
            raise ValueError(f"document {self.id}: blank sentence")
        starts = self.paragraph_starts
        if not all(type(s) is int or type(s) is not bool and isinstance(s, numbers.Integral)
                   for s in starts):  # a numpy integer is an integer, a bool is not
            raise ValueError(f"document {self.id}: paragraph starts must be integers, got {starts}")
        if not starts or starts[0] != 0:
            raise ValueError(f"document {self.id}: paragraph_starts must begin at 0")
        if any(b <= a for a, b in zip(starts, starts[1:])):
            raise ValueError(f"document {self.id}: paragraph_starts not increasing")
        if starts[-1] >= len(self.sentences):
            raise ValueError(f"document {self.id}: paragraph start out of range")

    @cached_property
    def sentence_word_counts(self) -> tuple[int, ...]:
        """Whitespace-separated words of each sentence, counted once per document."""
        return tuple(len(s.split()) for s in self.sentences)

    @cached_property
    def word_count(self) -> int:
        return sum(self.sentence_word_counts)


@dataclass(frozen=True)
class LabeledSentence:
    """One sentence of the detector training corpus."""

    text: str
    label: str

    def __post_init__(self) -> None:
        if self.label not in (SUBJECTIVE, OBJECTIVE):
            raise ValueError(f"bad label {self.label!r}")
        if not self.text.strip():
            raise ValueError("sentence has no tokens")


def _parse_lines(raw_text: str) -> tuple[list[str], tuple[int, ...]]:
    """The one parser of review files: the nonblank lines, stripped, and the index
    of each paragraph's first sentence (0, then each one after blank lines)."""
    sentences: list[str] = []
    starts = [0]
    pending_break = False
    for line in raw_text.splitlines():
        line = line.strip()
        if not line:
            pending_break = True
            continue
        if pending_break and sentences:
            starts.append(len(sentences))
        pending_break = False
        sentences.append(line)
    return sentences, tuple(starts)


def read_sentences(raw_text: str) -> list[str]:
    """Nonblank lines of a one-sentence-per-line file, stripped, in order."""
    return _parse_lines(raw_text)[0]


def _fold(doc_id: str, ordinal: int, k: int) -> int:
    """The fold of the ``ordinal``-th document: its ``cvNNN`` tag if below k, else ordinal mod k."""
    m = _CV_TAG.match(doc_id)
    tagged = int(m.group(1)) // 100 if m else k
    return tagged if tagged < k else ordinal % k


def _iter_label_dirs(root: Path) -> Iterable[tuple[str, Path, list[tuple[str, str]]]]:
    """Each label, its directory and the (name, path) of each file in it, sorted by
    name: within one directory, the order of sorted ``Path``s."""
    for label, sub in ((POSITIVE, "pos"), (NEGATIVE, "neg")):
        d = root / sub
        if not d.is_dir():
            raise IngestionError(f"missing dataset subdirectory: {d}")
        with os.scandir(d) as entries:  # a symlink is tested as Path.is_file tests it
            files = sorted(
                (e.name, e.path) for e in entries
                if e.is_file(follow_symlinks=False) or e.is_symlink() and Path(e.path).is_file()
            )
        yield label, d, files


def _decode(data: bytes) -> str:
    # no newline translation: splitlines breaks at \r\n, \r and \n alike
    return data.decode("utf-8", errors="replace")


def load_polarity_dataset(root: str | Path, k: int = 10) -> list[ReviewDocument]:
    """Load the review corpus from ``root/pos`` and ``root/neg``.

    One document per file, one sentence per nonblank line, label from the
    subdirectory, id from the filename stem; two files of one subdirectory
    with the same stem are refused. Empty files are skipped with a warning.
    Paragraphs start after blank lines.
    A filename stem carrying a ``cvNNN`` tag maps to fold ``NNN // 100`` (the
    standard balanced split of the review corpus) when that is below ``k``;
    any other document, synthetic fixtures included, gets its ordinal mod
    ``k``, the ordinal counting only the files kept.
    """
    if k < 2:
        raise ValueError(f"fold count must be >= 2, got {k}")
    docs: list[ReviewDocument] = []
    for label, d, files in _iter_label_dirs(Path(root)):
        n_before = len(docs)
        paths_by_stem: dict[str, str] = {}
        for name, path in files:
            stem = PurePath(name).stem
            if stem in paths_by_stem:
                raise IngestionError(
                    f"{paths_by_stem[stem]} and {path} have the same review id {stem!r}"
                )
            paths_by_stem[stem] = path
            with open(path, "rb") as fh:
                sentences, starts = _parse_lines(_decode(fh.read()))
            if not sentences:
                log.warning("skipping empty file %s", path)
                continue
            fold = _fold(stem, len(docs), k)
            docs.append(ReviewDocument(stem, label, tuple(sentences), starts, fold))
        if len(docs) == n_before:
            raise IngestionError(f"no usable documents under {d}")
    return docs


def load_subjectivity_dataset(
    quote_file: str | Path, plot_file: str | Path
) -> list[LabeledSentence]:
    """Load detector training sentences: quote lines are subjective, plot lines objective."""
    out: list[LabeledSentence] = []
    for path, label in ((Path(quote_file), SUBJECTIVE), (Path(plot_file), OBJECTIVE)):
        try:
            raw = _decode(path.read_bytes())
        except OSError as exc:
            raise IngestionError(f"cannot read {path}: {exc}") from exc
        out.extend(LabeledSentence(text=s, label=label) for s in read_sentences(raw))
    return out


@dataclass
class CorpusManifest:
    """Counts and per-file digests of everything loaded, for verification."""

    positive_count: int = 0
    negative_count: int = 0
    subjective_count: int = 0
    objective_count: int = 0
    checksums: dict[str, str] = field(default_factory=dict)
    skipped: tuple[str, ...] = ()

    def to_json(self) -> str:
        payload = {**asdict(self), "skipped": sorted(self.skipped)}
        return json.dumps(payload, indent=2, sort_keys=True) + "\n"


def _digest_and_sentences(path: str | Path) -> tuple[str, list[str]]:
    """A file's SHA-256 digest and its sentences, from one read."""
    data = Path(path).read_bytes()
    return hashlib.sha256(data).hexdigest(), read_sentences(_decode(data))


def build_manifest(
    polarity_root: str | Path, quote_file: str | Path, plot_file: str | Path
) -> CorpusManifest:
    """Scan dataset files and record counts, digests, and skipped empties.

    Deterministic for a fixed tree: rescanning yields byte-identical JSON.
    """
    manifest = CorpusManifest()
    for label, d, files in _iter_label_dirs(Path(polarity_root)):
        for name, path in files:
            rel = f"{d.name}/{name}"
            manifest.checksums[rel], sentences = _digest_and_sentences(path)
            if not sentences:
                manifest.skipped = manifest.skipped + (rel,)
            elif label == POSITIVE:
                manifest.positive_count += 1
            else:
                manifest.negative_count += 1
    for path, attr in ((quote_file, "subjective_count"), (plot_file, "objective_count")):
        p = Path(path)
        if not p.is_file():
            raise IngestionError(f"missing dataset file: {p}")
        manifest.checksums[p.name], sentences = _digest_and_sentences(p)
        setattr(manifest, attr, len(sentences))
    return manifest
