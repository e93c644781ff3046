"""Approximate dictionary matching over clinical sentences.

Two annotation channels feed the masking policy: a UMLS-style vocabulary
matched by character-trigram Jaccard over token windows, and a second
channel that is either another dictionary or a standoff file of
precomputed NER spans. Matching is indexed (feature -> entries, plus a
size filter) so a scan is sub-linear in dictionary size.
"""

from __future__ import annotations

import logging
from collections import defaultdict
from dataclasses import dataclass, field
from pathlib import Path
from typing import Mapping, Sequence, Union

from .errors import ConfigurationError, ParseError
from .text import Token, char_trigrams, normalize, tokenize

log = logging.getLogger(__name__)

UMLS_CHANNEL = "UMLS"
I2B2_CHANNEL = "I2B2"

DEFAULT_THRESHOLD = 0.7
DEFAULT_MAX_WINDOW = 6


@dataclass(frozen=True)
class EntitySpan:
    """A candidate concept span over sentence tokens.

    ``start``/``end`` are token indices (end exclusive); ``score`` is the
    similarity to the best-matching dictionary entry, in [0, 1].
    """

    start: int
    end: int
    surface: str
    channel: str
    score: float

    def overlaps(self, other: "EntitySpan") -> bool:
        return self.start < other.end and other.start < self.end


@dataclass
class AnnotatedSentence:
    """A sentence with its tokens and the spans found by each channel.

    Token offsets are relative to ``text``; ``start``/``end`` locate the
    sentence within its document. Within each channel the spans are
    non-overlapping and sorted by start.
    """

    text: str
    tokens: list[Token]
    umls_spans: list[EntitySpan] = field(default_factory=list)
    i2b2_spans: list[EntitySpan] = field(default_factory=list)
    start: int = 0
    end: int = 0
    index: int = 0

    def channel_spans(self, channel: str) -> list[EntitySpan]:
        return self.umls_spans if channel == UMLS_CHANNEL else self.i2b2_spans


class TermDictionary:
    """Normalized term vocabulary with a trigram inverted index.

    Entries are deduplicated normalized strings; normalization (lowercasing,
    whitespace collapse) happens exactly once, at load time. The index
    maps each trigram feature to the entries containing it, and entries
    carry their feature counts so a candidate outside the Jaccard size
    bounds for a window is rejected without any intersection work.
    """

    def __init__(self, terms: Sequence[str], name: str):
        entries = dict.fromkeys(norm for norm in map(normalize, terms) if norm)
        if not entries:
            raise ConfigurationError(f"dictionary {name!r} has no entries")
        self.name = name
        self.entry_texts: tuple[str, ...] = tuple(entries)
        self._features: list[dict[str, int]] = [
            char_trigrams(t) for t in self.entry_texts
        ]
        self._sizes: list[int] = [sum(f.values()) for f in self._features]
        self._exact: dict[str, int] = {t: i for i, t in enumerate(self.entry_texts)}
        index: dict[str, tuple[int, ...]] = {}
        scratch: dict[str, list[int]] = defaultdict(list)
        for i, feats in enumerate(self._features):
            for gram in feats:
                scratch[gram].append(i)
        for gram, ids in scratch.items():
            index[gram] = tuple(ids)
        self._index = index
        self.min_size = min(self._sizes)
        self.max_size = max(self._sizes)
        # Window junctions recur constantly in a large corpus; cache their
        # candidate sets, bounded so real-scale runs cannot grow unchecked.
        self._part_cache: dict[str, tuple[int, ...]] = {}

    _PART_CACHE_LIMIT = 1_000_000

    def __len__(self) -> int:
        return len(self.entry_texts)

    def candidates_for_part(self, part: str) -> tuple[int, ...]:
        """Entries sharing at least one trigram feature with ``part``."""
        cached = self._part_cache.get(part)
        if cached is None:
            index_get = self._index.get
            ids: set[int] = set()
            for gram in char_trigrams(part):
                hit = index_get(gram)
                if hit:
                    ids.update(hit)
            cached = tuple(ids)
            if len(self._part_cache) >= self._PART_CACHE_LIMIT:
                self._part_cache.clear()
            self._part_cache[part] = cached
        return cached

    def best_among(self, window: str, candidates: set[int], threshold: float) -> float:
        """Best Jaccard of ``window`` against the candidate entries, or 0.0
        when nothing reaches ``threshold``."""
        feats = char_trigrams(window)
        size = sum(feats.values())
        lo = threshold * size
        hi = size / threshold
        best = 0.0
        sizes = self._sizes
        features = self._features
        for i in candidates:
            other_size = sizes[i]
            if other_size < lo or other_size > hi:
                continue
            other = features[i]
            if len(other) < len(feats):
                small, big = other, feats
            else:
                small, big = feats, other
            inter = 0
            for gram, count in small.items():
                other_count = big.get(gram)
                if other_count:
                    inter += count if count < other_count else other_count
            union = size + other_size - inter
            sim = inter / union if union else 0.0
            if sim > best:
                best = sim
        return best if best >= threshold else 0.0


def load_dictionary(path: Union[str, Path], channel: str) -> TermDictionary:
    """Load a one-term-per-line UTF-8 dictionary file.

    Duplicate terms (after normalization) collapse to one entry; an empty
    file is a configuration error, an unreadable one an I/O error.
    """
    with open(path, encoding="utf-8") as fh:
        terms = [line.strip() for line in fh]
    terms = [t for t in terms if t]
    if not terms:
        raise ConfigurationError(f"dictionary file {path} is empty")
    return TermDictionary(terms, channel)


def resolve_overlaps(spans: Sequence[EntitySpan]) -> list[EntitySpan]:
    """Greedy non-overlapping subset: higher score first, then longer span,
    then smaller start. Result sorted by start."""
    chosen: list[EntitySpan] = []
    ranked = sorted(spans, key=lambda s: (-s.score, -(s.end - s.start), s.start))
    for span in ranked:
        if not any(span.overlaps(kept) for kept in chosen):
            chosen.append(span)
    chosen.sort(key=lambda s: s.start)
    return chosen


def annotate(
    tokens: Sequence[Token],
    dictionary: TermDictionary,
    threshold: float = DEFAULT_THRESHOLD,
    max_window: int = DEFAULT_MAX_WINDOW,
) -> list[EntitySpan]:
    """Scan every token window of length 1..max_window against the
    dictionary and keep windows scoring >= threshold, overlap-resolved.

    Windows grow incrementally per start position: each extension probes
    the inverted index only for the trigrams the junction adds, and the
    Jaccard computation runs only for windows that share at least one
    feature with some entry and sit inside the global size bounds.
    """
    if not 0.0 < threshold <= 1.0:
        raise ValueError(f"threshold must be in (0, 1], got {threshold}")
    if max_window < 1:
        raise ValueError(f"max_window must be >= 1, got {max_window}")
    if not tokens:
        return []
    words = [t.text.lower() for t in tokens]
    n = len(words)
    size_lo = threshold * dictionary.min_size
    size_hi = dictionary.max_size / threshold
    approximate = threshold < 1.0
    candidates_for_part = dictionary.candidates_for_part
    exact_entries = dictionary._exact
    spans: list[EntitySpan] = []
    for i in range(n):
        window = ""
        cand: set[int] = set()
        for j in range(i + 1, min(i + max_window, n) + 1):
            tok = words[j - 1]
            if not window:
                window = tok
                new_part = tok
            else:
                # Junction grams: every trigram the extension introduces
                # starts within the last two chars of the old window.
                new_part = window[-2:] + " " + tok
                window = window + " " + tok
            if approximate:
                part_cands = candidates_for_part(new_part)
                if part_cands:
                    cand.update(part_cands)
            score = 0.0
            if window in exact_entries:
                score = 1.0
            elif cand:
                feats = len(window) - 2 if len(window) >= 3 else 1
                if size_lo <= feats <= size_hi:
                    score = dictionary.best_among(window, cand, threshold)
            if score >= threshold:
                surface = " ".join(t.text for t in tokens[i:j])
                spans.append(EntitySpan(i, j, surface, dictionary.name, score))
    return resolve_overlaps(spans)


class StandoffIndex:
    """Precomputed NER spans keyed by (doc_id, sentence_index).

    Stands in for a trained NER model on the second channel. File format:
    one record per line, tab-separated fields
    ``doc_id<TAB>sentence_index<TAB>start_token<TAB>end_token<TAB>label``.
    """

    def __init__(self, records: Mapping[tuple[str, int], Sequence[tuple[int, int, str]]]):
        self._records = {k: list(v) for k, v in records.items()}

    @classmethod
    def load(cls, path: Union[str, Path]) -> "StandoffIndex":
        records: dict[tuple[str, int], list[tuple[int, int, str]]] = defaultdict(list)
        with open(path, encoding="utf-8") as fh:
            for lineno, line in enumerate(fh, start=1):
                line = line.rstrip("\n")
                if not line:
                    continue
                parts = line.split("\t")
                if len(parts) != 5:
                    raise ParseError(
                        f"expected 5 tab-separated fields, got {len(parts)}",
                        path=str(path),
                        line=lineno,
                    )
                doc_id, sent_idx, start, end, label = parts
                try:
                    key = (doc_id, int(sent_idx))
                    span = (int(start), int(end), label)
                except ValueError as exc:
                    raise ParseError(
                        f"non-integer field: {exc}", path=str(path), line=lineno
                    ) from None
                if span[0] < 0 or span[1] <= span[0]:
                    raise ParseError(
                        f"invalid token range {span[0]}..{span[1]}",
                        path=str(path),
                        line=lineno,
                    )
                records[key].append(span)
        return cls(records)

    def spans_for(self, doc_id: str, sentence_index: int, n_tokens: int) -> list[tuple[int, int, str]]:
        """Spans for one sentence; a lookup miss is an empty list. Spans
        extending past the sentence's tokens are dropped."""
        spans = self._records.get((doc_id, sentence_index), [])
        return [s for s in spans if s[1] <= n_tokens]


I2b2Source = Union[TermDictionary, StandoffIndex]


def annotate_sentence(
    sentence: str,
    umls_dict: TermDictionary,
    i2b2_source: I2b2Source,
    threshold: float = DEFAULT_THRESHOLD,
    max_window: int = DEFAULT_MAX_WINDOW,
    doc_id: str = "",
    sentence_index: int = 0,
    start: int = 0,
) -> AnnotatedSentence:
    """Populate both channels for one sentence.

    The channels are independent and may overlap each other; cross-channel
    overlap is resolved later when the masking policy picks one channel.
    """
    tokens = tokenize(sentence)
    umls_spans = annotate(tokens, umls_dict, threshold, max_window)
    if isinstance(i2b2_source, TermDictionary):
        i2b2_spans = annotate(tokens, i2b2_source, threshold, max_window)
    else:
        raw = i2b2_source.spans_for(doc_id, sentence_index, len(tokens))
        i2b2_spans = resolve_overlaps(
            [
                EntitySpan(
                    s,
                    e,
                    sentence[tokens[s].start : tokens[e - 1].end],
                    I2B2_CHANNEL,
                    1.0,
                )
                for s, e, _ in raw
            ]
        )
    return AnnotatedSentence(
        text=sentence,
        tokens=tokens,
        umls_spans=umls_spans,
        i2b2_spans=i2b2_spans,
        start=start,
        end=start + len(sentence),
        index=sentence_index,
    )
