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
import os
import re
from dataclasses import dataclass, field
from functools import cached_property
from pathlib import Path, PurePath
from typing import Iterable, Sequence

log = logging.getLogger(__name__)

POSITIVE = "positive"
NEGATIVE = "negative"
SUBJECTIVE = "subjective"
OBJECTIVE = "objective"

_CV_TAG = re.compile(r"^cv(\d{3})")


class IngestionError(Exception):
    """A dataset directory or file could not be ingested."""


class ConfigurationError(Exception):
    """An invalid run configuration (bad fold count, bad sidecar, ...)."""


def tokenize(text: str) -> list[str]:
    """Lowercase whitespace tokenization, the only tokenizer in the package."""
    return text.lower().split()


@dataclass(frozen=True)
class ReviewDocument:
    """One movie review: ordered sentences plus its polarity label.

    ``paragraph_starts`` holds the sentence index opening each paragraph and
    always begins with 0. ``fold`` is the cross-validation fold, or -1 before
    folds have been assigned.
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

    def to_dict(self) -> dict:
        return {
            "id": self.id,
            "label": self.label,
            "sentences": list(self.sentences),
            "paragraph_starts": list(self.paragraph_starts),
            "fold": self.fold,
            "word_count": self.word_count,
        }

    @classmethod
    def from_dict(cls, d: dict) -> "ReviewDocument":
        doc = cls(
            id=d["id"],
            label=d["label"],
            sentences=tuple(d["sentences"]),
            paragraph_starts=tuple(d["paragraph_starts"]),
            fold=d["fold"],
        )
        if "word_count" in d and d["word_count"] != doc.word_count:
            raise ValueError(f"document {doc.id}: stored word_count mismatch")
        return doc


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


def _sidecar_starts(sidecar: Sequence[int], n_sentences: int) -> tuple[int, ...]:
    starts = tuple(int(i) for i in sidecar)
    if not starts or starts[0] != 0:
        raise ConfigurationError("sidecar paragraph starts must begin with 0")
    if any(b <= a for a, b in zip(starts, starts[1:])):
        raise ConfigurationError("sidecar paragraph starts must be strictly increasing")
    if starts[-1] >= max(n_sentences, 1):
        raise ConfigurationError(
            f"sidecar paragraph start {starts[-1]} out of range for {n_sentences} sentences"
        )
    return starts


def load_sidecar(path: str | Path) -> dict[str, tuple[int, ...]]:
    """Parse a paragraph sidecar file: ``docid<TAB>comma-separated indices``."""
    mapping: dict[str, tuple[int, ...]] = {}
    for line in Path(path).read_text(encoding="utf-8").splitlines():
        if not line.strip():
            continue
        doc_id, _, spec = line.partition("\t")
        if not spec:
            raise ConfigurationError(f"malformed sidecar line: {line!r}")
        mapping[doc_id.strip()] = tuple(int(x) for x in spec.split(","))
    return mapping


def _check_fold_count(k: int) -> None:
    if k < 2:
        raise ConfigurationError(f"fold count must be >= 2, got {k}")


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


def _read_text(path: str | Path) -> str:
    # no newline translation: splitlines breaks at \r\n, \r and \n alike
    with open(path, "rb") as fh:
        return fh.read().decode("utf-8", errors="replace")


def load_polarity_dataset(
    root: str | Path,
    k: int = 10,
    sidecar_path: str | Path | None = None,
) -> list[ReviewDocument]:
    """Load the review corpus from ``root/pos`` and ``root/neg``.

    One document per file, one sentence per nonblank line, label from the
    subdirectory. Empty files are skipped with a warning. Paragraphs start
    after blank lines, or where the sidecar says for a document it lists.
    A filename stem carrying a ``cvNNN`` tag maps to fold ``NNN // 100`` (the
    standard balanced split of the review corpus) when that is below ``k``;
    any other document, synthetic fixtures included, gets its ordinal mod
    ``k``, the ordinal counting only the files kept.
    """
    _check_fold_count(k)
    root = Path(root)
    sidecars = load_sidecar(sidecar_path) if sidecar_path else {}
    docs: list[ReviewDocument] = []
    for label, d, files in _iter_label_dirs(root):
        n_before = len(docs)
        for name, path in files:
            sentences, starts = _parse_lines(_read_text(path))
            if not sentences:
                log.warning("skipping empty file %s", path)
                continue
            stem = PurePath(name).stem
            if stem in sidecars:
                starts = _sidecar_starts(sidecars[stem], len(sentences))
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
            raw = _read_text(path)
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
        payload = {
            "positive_count": self.positive_count,
            "negative_count": self.negative_count,
            "subjective_count": self.subjective_count,
            "objective_count": self.objective_count,
            "checksums": dict(sorted(self.checksums.items())),
            "skipped": sorted(self.skipped),
        }
        return json.dumps(payload, indent=2, sort_keys=True) + "\n"


def _sha256(path: str | Path) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def build_manifest(
    polarity_root: str | Path | None = None,
    quote_file: str | Path | None = None,
    plot_file: str | Path | None = None,
) -> CorpusManifest:
    """Scan dataset files and record counts, digests, and skipped empties.

    Deterministic for a fixed tree: rescanning yields byte-identical JSON.
    """
    manifest = CorpusManifest()
    if polarity_root is not None:
        root = Path(polarity_root)
        for label, d, files in _iter_label_dirs(root):
            for name, path in files:
                rel = f"{d.name}/{name}"
                manifest.checksums[rel] = _sha256(path)
                if not read_sentences(_read_text(path)):
                    manifest.skipped = manifest.skipped + (rel,)
                elif label == POSITIVE:
                    manifest.positive_count += 1
                else:
                    manifest.negative_count += 1
    for path, attr in ((quote_file, "subjective_count"), (plot_file, "objective_count")):
        if path is None:
            continue
        p = Path(path)
        if not p.is_file():
            raise IngestionError(f"missing dataset file: {p}")
        manifest.checksums[p.name] = _sha256(p)
        setattr(manifest, attr, len(read_sentences(_read_text(p))))
    return manifest
