"""Approximate dictionary matching over clinical sentences.

Two annotation channels feed the masking policy: a UMLS-style vocabulary
matched by character-trigram Jaccard over token windows, and a second
channel that is either another dictionary or a standoff file of
precomputed NER spans. Similarity is the Jaccard of character-trigram
multisets; an index from each (trigram, occurrence) key to its entries
gives a window's exact overlap with every entry, kept as one running
count per window start.
"""

from __future__ import annotations

import logging
from bisect import bisect_left, bisect_right
from collections import Counter, defaultdict
from dataclasses import dataclass, field
from itertools import accumulate
from pathlib import Path
from typing import Mapping, Optional, Sequence, Union

import numpy as np

from .errors import ConfigurationError, ParseError
from .jsonl import open_text
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

    Token offsets are relative to ``text``; ``start`` locates the sentence
    within its document. Within each channel the spans are non-overlapping
    and sorted by start.
    """

    text: str
    tokens: list[Token]
    umls_spans: list[EntitySpan] = field(default_factory=list)
    i2b2_spans: list[EntitySpan] = field(default_factory=list)
    start: int = 0

    def channel_spans(self, channel: str) -> list[EntitySpan]:
        return self.umls_spans if channel == UMLS_CHANNEL else self.i2b2_spans


class TermDictionary:
    """Normalized term vocabulary with an exact trigram-multiset index.

    Entries are deduplicated normalized strings; normalization (lowercasing,
    whitespace collapse) happens exactly once, at load time. Entries are
    numbered in order of gram count, so the entries of any size range hold
    one run of ids. The index maps each key ``(gram, k)``, the k-th
    occurrence of a trigram, to the entries holding at least k copies of
    that gram; ``(gram, 1)`` keys are stored by the gram alone. A window's
    multiset overlap with an entry is then the number of the window's keys
    whose posting list holds the entry. Posting lists become int arrays on
    their first lookup.
    """

    def __init__(self, terms: Sequence[str], name: str):
        entries = dict.fromkeys(norm for norm in map(normalize, terms) if norm)
        if not entries:
            raise ConfigurationError(f"dictionary {name!r} has no entries")
        self.name = name
        # the gram count never falls as the length grows
        self.entry_texts: tuple[str, ...] = tuple(sorted(entries, key=len))
        self._exact = frozenset(self.entry_texts)
        firsts: dict[str, list[int]] = defaultdict(list)
        repeats: dict[tuple[str, int], list[int]] = defaultdict(list)
        for i, text in enumerate(self.entry_texts):
            for gram, count in char_trigrams(text).items():
                firsts[gram].append(i)
                if count > 1:
                    for k in range(2, count + 1):
                        repeats[gram, k].append(i)
        self._firsts: dict[str, Union[list[int], np.ndarray]] = dict(firsts)
        self._repeats: dict[tuple[str, int], Union[list[int], np.ndarray]] = dict(repeats)
        self._size_list = list(map(_gram_count, self.entry_texts))
        self._sizes = np.array(self._size_list)

    def __len__(self) -> int:
        return len(self.entry_texts)

    def best_among(self, window: str, overlap: np.ndarray, threshold: float) -> float:
        """Best Jaccard of ``window`` against every entry, or 0.0 when nothing
        reaches ``threshold``. ``overlap[i]`` is the number of trigrams the
        window shares with entry ``i``, counted with multiplicity.

        Jaccard is at most ``min(n, s) / max(n, s)`` for gram counts ``n``
        and ``s``, and at most ``overlap / n``, so only entries with ``s`` in
        ``[t·n, n/t]`` and an overlap of at least ``t·n`` can reach ``t``.
        Each bound is widened by one gram, so a float rounding of ``t·n``
        or of the quotient can never drop a match, and only those entries
        are scored."""
        n = _gram_count(window)
        floor = threshold * n - 1
        lo = bisect_left(self._size_list, floor)
        hi = bisect_right(self._size_list, n / threshold + 1)
        feasible = overlap[lo:hi]
        if hi == lo or feasible.max() <= floor:
            return 0.0
        best = float((feasible / (n + self._sizes[lo:hi] - feasible)).max())
        return best if best >= threshold else 0.0


def _gram_count(text: str) -> int:
    """Size of the trigram multiset of ``text`` (see ``char_trigrams``)."""
    return len(text) - 2 if len(text) >= 3 else 1


def load_dictionary(path: Union[str, Path], channel: str) -> TermDictionary:
    """Load a one-term-per-line UTF-8 dictionary file.

    Duplicate terms (after normalization) collapse to one entry; an empty
    file is a configuration error, an unreadable one an I/O error.
    """
    with open_text(path) as fh:
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

    The lowercased words are joined once, so window ``[i, j)`` is the slice
    ``text[starts[i]:starts[j] - 1]`` and its grams are those at the
    positions from ``starts[i]`` on. A 1-2 character window's one gram is
    the whole string, so it matches only an equal entry. A window that is
    itself an entry scores 1.0 at once, and at threshold 1.0 that is the
    only way to match, so no gram is looked up.

    Below 1.0 each position's ``(gram, 1)`` posting is looked up once per
    sentence, and their prefix count ``indexed`` skips, before slicing it,
    any 3+ character window whose indexed positions are fewer than
    ``threshold`` times its gram count. It cannot pass the count bound
    below, which divides by the same count: its keys hit only indexed
    positions, since an entry with k copies of a gram also has one. Nor is
    it an entry, every gram of which is indexed. A large dictionary
    indexes nearly every gram, so there the skip prunes almost nothing.

    The rest waits for the first window that survives: per sentence, the
    postings become int arrays and the recurring grams are found; per
    start, a recurring gram is keyed ``(gram, k)`` by its k-th occurrence
    from the start, and an extension's new keys are then one slice. Each
    key adds at most 1 to the overlap with any entry, so a window with
    fewer keys found than ``threshold`` times its gram count is skipped.
    Otherwise the start's running overlap vector takes the new postings,
    and ``best_among`` scores the entries that can reach the threshold.
    """
    if not 0.0 < threshold <= 1.0:
        raise ValueError(f"threshold must be in (0, 1], got {threshold}")
    if max_window < 1:
        raise ValueError(f"max_window must be >= 1, got {max_window}")
    if not tokens:
        return []
    words = [t.text.lower() for t in tokens]
    n = len(words)
    text = " ".join(words)
    starts = [0, *accumulate(len(w) + 1 for w in words)]
    approximate = threshold < 1.0
    exact_entries = dictionary._exact
    if approximate:
        firsts, repeats = dictionary._firsts, dictionary._repeats
        grams = [text[p : p + 3] for p in range(len(text) - 2)]
        postings = [firsts.get(gram) for gram in grams]
        indexed = [0, *accumulate(posting is not None for posting in postings)]
        recurring: Optional[list[int]] = None
    spans: list[EntitySpan] = []
    for i in range(n):
        a = starts[i]
        last = min(i + max_window, n)
        keys: Optional[list] = None
        for j in range(i + 1, last + 1):
            size = starts[j] - a - 3  # the gram count, if the window has 3+ characters
            if approximate and size > 0 and (indexed[a + size] - indexed[a]) / size < threshold:
                continue
            window = text[a : starts[j] - 1]
            score = 1.0 if window in exact_entries else 0.0
            if approximate and size > 0 and score == 0.0:
                if recurring is None:
                    for p, posting in enumerate(postings):
                        if type(posting) is list:
                            postings[p] = firsts[grams[p]] = np.array(posting, dtype=np.intp)
                    occurrences = Counter(grams)
                    recurring = [p for p, gram in enumerate(grams) if occurrences[gram] > 1]
                if keys is None:
                    keys = postings[a : max(a, starts[last] - 3)]
                    seen: dict[str, int] = {}
                    for p in recurring[bisect_left(recurring, a) : bisect_left(recurring, a + len(keys))]:
                        gram = grams[p]
                        k = seen[gram] = seen.get(gram, 0) + 1
                        if k > 1:
                            posting = keys[p - a] = repeats.get((gram, k))
                            if type(posting) is list:
                                keys[p - a] = repeats[gram, k] = np.array(posting, dtype=np.intp)
                    hits: list[np.ndarray] = []
                    added = grown = 0
                hits += [posting for posting in keys[grown:size] if posting is not None]
                grown = size
                if len(hits) / size >= threshold:
                    if not added:
                        overlap = np.zeros(len(dictionary), dtype=np.intp)
                    if added < len(hits):
                        np.add.at(overlap, np.concatenate(hits[added:]), 1)
                        added = len(hits)
                    score = dictionary.best_among(window, overlap, threshold)
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
        with open_text(path) as fh:
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
    """Populate both channels for one sentence; ``sentence_index`` keys the standoff lookup.

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
    )
