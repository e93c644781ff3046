"""Streaming pre-training corpus construction.

Reads progress notes from line-delimited JSON, segments and annotates
each note, applies the masking policy with a per-document RNG substream,
and writes masked examples back out as line-delimited records. Output is
byte-identical regardless of worker count because every document's
randomness derives only from (seed, doc_id).
"""

from __future__ import annotations

import logging
import multiprocessing
from dataclasses import dataclass, asdict
from pathlib import Path
from typing import Iterable, Iterator, Mapping, Optional, Union

from .annotation import (
    DEFAULT_MAX_WINDOW,
    DEFAULT_THRESHOLD,
    I2b2Source,
    TermDictionary,
    annotate_sentence,
)
from .errors import ConfigurationError, DataError, ParseError
from .jsonl import read_jsonl, write_jsonl
from .masking import SENTINEL_RE, MaskedExample, MaskPolicyConfig, apply_mask, choose_mask_source
from .seeding import substream
from .text import segment_sentences

log = logging.getLogger(__name__)

SECTION_FIELDS = ("assessment", "subjective", "objective", "summary")


@dataclass
class ProgressNote:
    """One progress note: a raw body plus optional named sections."""

    doc_id: str
    text: str = ""
    assessment: Optional[str] = None
    subjective: Optional[str] = None
    objective: Optional[str] = None
    summary: Optional[str] = None

    def __post_init__(self):
        if not self.doc_id:
            raise DataError("note is missing a doc_id")
        for name in ("text", "assessment", "subjective", "objective", "summary"):
            value = getattr(self, name)
            if value is not None and not isinstance(value, str):
                raise DataError(f"note {self.doc_id!r}: field {name} is not text")
        if not self.text:
            sections = [
                s for s in (self.assessment, self.subjective, self.objective) if s
            ]
            self.text = "\n".join(sections)
        if not self.text:
            raise DataError(f"note {self.doc_id!r} has no text and no sections")

    @classmethod
    def from_record(cls, record: Mapping) -> "ProgressNote":
        """A note from one JSON record. Its ``doc_id`` is a string or an
        integer, kept as its decimal digits; any other value (null, a
        bool, a list) is a DataError. An absent or null ``text`` is no
        body; any other non-string ``text`` is a DataError."""
        doc_id = record.get("doc_id", "")
        if isinstance(doc_id, bool) or not isinstance(doc_id, (str, int)):
            raise DataError(f"note doc_id must be a string or an integer, got {doc_id!r}")
        text = record.get("text")
        return cls(
            doc_id=str(doc_id),
            text="" if text is None else text,
            **{k: record.get(k) for k in SECTION_FIELDS},
        )


@dataclass
class CorpusStats:
    """Corpus-level counters mirroring the pre-training report shape."""

    total_rows: int = 0
    rows_no_umls: int = 0
    rows_no_i2b2: int = 0
    rows_no_entities: int = 0
    masks_total: int = 0
    sentences_total: int = 0
    skipped: int = 0

    def check(self) -> None:
        if self.rows_no_entities > min(self.rows_no_umls, self.rows_no_i2b2):
            raise DataError("stats violate rows_no_entities <= min(no_umls, no_i2b2)")
        if max(self.rows_no_umls, self.rows_no_i2b2) > self.total_rows:
            raise DataError("stats violate no-entity rows <= total_rows")

    def as_dict(self) -> dict:
        return asdict(self)

    def report(self) -> str:
        return (
            f"rows          {self.total_rows}\n"
            f"  no UMLS     {self.rows_no_umls}\n"
            f"  no i2b2     {self.rows_no_i2b2}\n"
            f"  no entities {self.rows_no_entities}\n"
            f"sentences     {self.sentences_total}\n"
            f"masks         {self.masks_total}\n"
            f"skipped       {self.skipped}"
        )


@dataclass(frozen=True)
class AnnotationConfig:
    """Matching settings shared by both dictionary channels."""

    threshold: float = DEFAULT_THRESHOLD
    max_window: int = DEFAULT_MAX_WINDOW

    def __post_init__(self):
        problems = []
        if not 0.0 < self.threshold <= 1.0:
            problems.append(f"threshold: must be in (0, 1], got {self.threshold}")
        if self.max_window < 1:
            problems.append(f"max_window: must be >= 1, got {self.max_window}")
        if problems:
            raise ConfigurationError(*problems)


def mask_note(
    note: ProgressNote,
    umls_dict: TermDictionary,
    i2b2_source: I2b2Source,
    mask_cfg: MaskPolicyConfig,
    annot_cfg: AnnotationConfig = AnnotationConfig(),
) -> tuple[MaskedExample, bool, bool, int]:
    """Annotate and mask one note.

    Returns (example, has_umls, has_i2b2, sentence_count). Randomness
    comes from the (seed, doc_id) substream only.
    """
    sentences = []
    for idx, (sent, start) in enumerate(segment_sentences(note.text)):
        sentences.append(
            annotate_sentence(
                sent,
                umls_dict,
                i2b2_source,
                threshold=annot_cfg.threshold,
                max_window=annot_cfg.max_window,
                doc_id=note.doc_id,
                sentence_index=idx,
                start=start,
            )
        )
    rng = substream(mask_cfg.seed, "masking", note.doc_id)
    decisions = [choose_mask_source(s, mask_cfg, rng) for s in sentences]
    example = apply_mask(note.text, sentences, decisions, doc_id=note.doc_id)
    has_umls = any(s.umls_spans for s in sentences)
    has_i2b2 = any(s.i2b2_spans for s in sentences)
    return example, has_umls, has_i2b2, len(sentences)


_WORKER_STATE: dict = {}


def _init_worker(umls_dict, i2b2_source, mask_cfg, annot_cfg):
    _WORKER_STATE["args"] = (umls_dict, i2b2_source, mask_cfg, annot_cfg)


def _mask_note_task(note: ProgressNote):
    umls_dict, i2b2_source, mask_cfg, annot_cfg = _WORKER_STATE["args"]
    return mask_note(note, umls_dict, i2b2_source, mask_cfg, annot_cfg)


def build_pretrain_corpus(
    notes: Iterable[ProgressNote],
    umls_dict: TermDictionary,
    i2b2_source: I2b2Source,
    mask_cfg: MaskPolicyConfig,
    annot_cfg: AnnotationConfig = AnnotationConfig(),
    stats: Optional[CorpusStats] = None,
    workers: int = 1,
) -> tuple[Iterator[MaskedExample], CorpusStats]:
    """Masked examples for a note stream, one per note, in input order.

    A note that already contains sentinel-format text is skipped with a
    warning and counted in ``stats.skipped``. Returns the example iterator
    and the stats object it updates; counters are final once the iterator
    is exhausted. ``workers > 1`` fans annotation/masking out to a process
    pool while preserving input order, so the output bytes never depend on
    the worker count.
    """
    if stats is None:
        stats = CorpusStats()

    def maskable(notes):
        for note in notes:
            if SENTINEL_RE.search(note.text):
                log.warning("note %r contains sentinel-format text; skipped", note.doc_id)
                stats.skipped += 1
                continue
            yield note

    def consume(results):
        for example, has_umls, has_i2b2, n_sentences in results:
            stats.total_rows += 1
            stats.sentences_total += n_sentences
            stats.masks_total += example.num_masks
            if not has_umls:
                stats.rows_no_umls += 1
            if not has_i2b2:
                stats.rows_no_i2b2 += 1
            if not (has_umls or has_i2b2):
                stats.rows_no_entities += 1
            yield example

    def serial():
        for note in maskable(notes):
            yield mask_note(note, umls_dict, i2b2_source, mask_cfg, annot_cfg)

    if workers <= 1:
        return consume(serial()), stats

    def parallel():
        with multiprocessing.Pool(
            workers,
            initializer=_init_worker,
            initargs=(umls_dict, i2b2_source, mask_cfg, annot_cfg),
        ) as pool:
            yield from pool.imap(_mask_note_task, maskable(notes), chunksize=64)

    return consume(parallel()), stats


def read_notes(path: Union[str, Path], stats: Optional[CorpusStats] = None) -> Iterator[ProgressNote]:
    """Stream notes from a line-delimited JSON file.

    Malformed records are skipped with a warning (and counted when a
    stats object is supplied) rather than aborting a long run.
    """

    def skip(error: ParseError) -> None:
        log.warning("skipping malformed note: %s", error)
        if stats is not None:
            stats.skipped += 1

    return read_jsonl(path, ProgressNote.from_record, on_error=skip)


def write_corpus(examples: Iterable[MaskedExample], path: Union[str, Path]) -> int:
    """Write masked examples as line-delimited JSON; returns the count."""
    return write_jsonl(
        ({"doc_id": ex.doc_id, "input": ex.input_text, "target": ex.target_text} for ex in examples),
        path,
    )


def read_corpus(path: Union[str, Path]) -> Iterator[MaskedExample]:
    """Read a corpus written by :func:`write_corpus`; lossless round trip.

    A corrupt line raises a ParseError naming the line number.
    """

    def parse(record: dict) -> MaskedExample:
        target = record["target"]
        num_masks = max(len(SENTINEL_RE.findall(target)) - 1, 0)
        return MaskedExample(record["doc_id"], record["input"], target, num_masks)

    return read_jsonl(path, parse)
