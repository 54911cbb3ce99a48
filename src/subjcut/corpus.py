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
import re
from dataclasses import dataclass, field, replace
from functools import cached_property
from pathlib import Path
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
        if any(not s.strip() for s in self.sentences):
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

    @property
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
        if not self.text.split():
            raise ValueError("sentence has no tokens")


def read_sentences(raw_text: str) -> list[str]:
    """Nonblank lines of a one-sentence-per-line file, stripped, in order."""
    return [line.strip() for line in raw_text.splitlines() if line.strip()]


def detect_paragraphs(raw_text: str, sidecar: Sequence[int] | None = None) -> tuple[int, ...]:
    """Paragraph start indices for a one-sentence-per-line document.

    A sidecar list of sentence indices wins when supplied; otherwise blank
    lines mark paragraph breaks; a document without either is one paragraph.
    Sidecar indices are validated against the number of sentences.
    """
    n_sentences = len(read_sentences(raw_text))
    if sidecar is not None:
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


def assign_folds(docs: Sequence[ReviewDocument], k: int = 10) -> list[ReviewDocument]:
    """Assign cross-validation folds.

    Filename stems carrying a ``cvNNN`` tag map to fold ``NNN // 100`` (the
    standard balanced split of the review corpus); anything else, including
    synthetic fixtures, falls back to document ordinal mod k.
    """
    if k < 2:
        raise ConfigurationError(f"fold count must be >= 2, got {k}")
    out = []
    for ordinal, doc in enumerate(docs):
        fold = None
        m = _CV_TAG.match(doc.id)
        if m:
            tagged = int(m.group(1)) // 100
            if tagged < k:
                fold = tagged
        if fold is None:
            fold = ordinal % k
        out.append(replace(doc, fold=fold))
    return out


def _iter_label_dirs(root: Path) -> Iterable[tuple[str, Path]]:
    for label, sub in ((POSITIVE, "pos"), (NEGATIVE, "neg")):
        d = root / sub
        if not d.is_dir():
            raise IngestionError(f"missing dataset subdirectory: {d}")
        yield label, d


def load_polarity_dataset(
    root: str | Path,
    k: int = 10,
    sidecar_path: str | Path | None = None,
) -> list[ReviewDocument]:
    """Load the review corpus from ``root/pos`` and ``root/neg``.

    One document per file, one sentence per nonblank line, label from the
    subdirectory. Empty files are skipped with a warning. Folds are assigned
    via :func:`assign_folds`.
    """
    root = Path(root)
    sidecars = load_sidecar(sidecar_path) if sidecar_path else {}
    docs: list[ReviewDocument] = []
    for label, d in _iter_label_dirs(root):
        files = sorted(p for p in d.iterdir() if p.is_file())
        n_before = len(docs)
        for f in files:
            raw = f.read_text(encoding="utf-8", errors="replace")
            sentences = read_sentences(raw)
            if not sentences:
                log.warning("skipping empty file %s", f)
                continue
            stem = f.stem
            docs.append(
                ReviewDocument(
                    id=stem,
                    label=label,
                    sentences=tuple(sentences),
                    paragraph_starts=detect_paragraphs(raw, sidecars.get(stem)),
                )
            )
        if len(docs) == n_before:
            raise IngestionError(f"no usable documents under {d}")
    return assign_folds(docs, k)


def load_subjectivity_dataset(
    quote_file: str | Path, plot_file: str | Path
) -> list[LabeledSentence]:
    """Load detector training sentences: quote lines are subjective, plot lines objective."""
    out: list[LabeledSentence] = []
    for path, label in ((Path(quote_file), SUBJECTIVE), (Path(plot_file), OBJECTIVE)):
        try:
            raw = path.read_text(encoding="utf-8", errors="replace")
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


def _sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


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
        for label, d in _iter_label_dirs(root):
            for f in sorted(p for p in d.iterdir() if p.is_file()):
                rel = f"{d.name}/{f.name}"
                manifest.checksums[rel] = _sha256(f)
                raw = f.read_text(encoding="utf-8", errors="replace")
                if not read_sentences(raw):
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
        count = len(read_sentences(p.read_text(encoding="utf-8", errors="replace")))
        setattr(manifest, attr, count)
    return manifest
