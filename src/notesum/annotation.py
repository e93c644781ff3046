"""Approximate dictionary matching over clinical sentences.

Two annotation channels feed the masking policy: a UMLS-style vocabulary
matched by character-trigram Jaccard over token windows, and a second
channel that is either another dictionary or a standoff file of
precomputed NER spans. Similarity is the Jaccard of character-trigram
multisets; an index from each (trigram, occurrence) key to its entries
gives a window's exact overlap with every entry. A sentence with few
windows left to score counts them one start at a time; one with many
counts them all at once, over only the entries the whole sentence could
match.
"""

from __future__ import annotations

import logging
from array import array
from bisect import bisect_left, bisect_right
from collections import Counter, defaultdict
from dataclasses import dataclass, field
from itertools import accumulate, chain
from pathlib import Path
from typing import Mapping, Optional, Sequence, Union

import numpy as np

from .errors import ConfigurationError, ParseError
from .jsonl import open_text
from .text import Token, normalize, tokenize

log = logging.getLogger(__name__)

UMLS_CHANNEL = "UMLS"
I2B2_CHANNEL = "I2B2"

DEFAULT_THRESHOLD = 0.7
DEFAULT_MAX_WINDOW = 6

# A sentence with at least this many windows left to score is scored in
# one batch, and below it window by window (see ``annotate``).
BATCH_WINDOWS = 8
# A batch over more (position or window, entry) cells than this is split
# between its window starts, so its arrays stay small on long sentences.
CHUNK_CELLS = 1 << 15


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
    whose posting holds the entry.

    The index is three flat objects: ``_keys`` numbers the keys, and key
    ``k``'s posting, its entries in ascending order, is
    ``_ids[_offsets[k]:_offsets[k + 1]]`` in one int32 array. They pickle
    small and fast for worker processes, and matching only reads them.
    ``_offsets`` is a plain ``array('q')``: scoring window by window reads
    one offset at a time, which a NumPy array serves slowly, and the
    batch views it with ``np.frombuffer``.
    """

    def __init__(self, terms: Sequence[str], name: str):
        entries = dict.fromkeys(norm for norm in map(normalize, terms) if norm)
        if not entries:
            raise ConfigurationError(f"dictionary {name!r} has no entries")
        self.name = name
        # the gram count never falls as the length grows
        self.entry_texts: tuple[str, ...] = tuple(sorted(entries, key=len))
        self._exact = frozenset(self.entry_texts)
        lists: dict[Union[str, tuple[str, int]], list[int]] = defaultdict(list)
        for i, text in enumerate(self.entry_texts):
            # as annotate keys a window; a 1-2 character entry is its one gram
            seen: dict[str, int] = {}
            for p in range(max(len(text) - 2, 1)):
                gram = text[p : p + 3]
                k = seen[gram] = seen.get(gram, 0) + 1
                lists[gram if k == 1 else (gram, k)].append(i)
        self._keys = {key: k for k, key in enumerate(lists)}
        self._offsets = array("q", [0, *accumulate(map(len, lists.values()))])
        self._ids = np.fromiter(chain.from_iterable(lists.values()), dtype=np.int32, count=self._offsets[-1])
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


def _ranges(lo: np.ndarray, lengths: np.ndarray) -> np.ndarray:
    """The ranges ``[lo[i], lo[i] + lengths[i])``, concatenated."""
    ranges = np.repeat(lo - np.cumsum(lengths) + lengths, lengths)
    ranges += np.arange(len(ranges))
    return ranges


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

    Below 1.0 each position's ``(gram, 1)`` key is looked up once per
    sentence, and their prefix count ``indexed`` skips, before slicing it,
    any 3+ character window whose indexed positions are fewer than
    ``threshold`` times its gram count. Its overlap with any entry is at
    most that count, since an entry with k copies of a gram also has one,
    so it cannot reach the threshold; nor is it an entry, every gram of
    which is indexed. A large dictionary indexes nearly every gram, so
    there the skip prunes almost nothing.

    The windows left are scored one by one (``_score_each``) when fewer
    than ``BATCH_WINDOWS``, and together (``_score_batch``) otherwise,
    with the same scores to the bit. The batch's fixed cost is a few
    dozen array operations, which a handful of windows scored one by one
    undercut: on the benchmark's sentences (2-CPU x86-64 container) the
    batch was cheaper from 7 windows up with 40 entries and from 8 up
    with 2,000.
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
        index = dictionary._keys
        grams = list(map("".join, zip(text, text[1:], text[2:])))
        firsts = list(map(index.get, grams))
        indexed = [0, *accumulate(key is not None for key in firsts)]
    matches: list[tuple[int, int, float]] = []
    left: list[tuple[int, int, int]] = []  # (start, end, gram count) of each window to score
    for i in range(n):
        a = starts[i]
        for j in range(i + 1, min(i + max_window, n) + 1):
            size = starts[j] - a - 3  # the gram count, if the window has 3+ characters
            if approximate and size > 0 and (indexed[a + size] - indexed[a]) / size < threshold:
                continue
            if text[a : starts[j] - 1] in exact_entries:
                matches.append((i, j, 1.0))
            elif approximate and size > 0:
                left.append((i, j, size))
    if left:
        if len(left) >= BATCH_WINDOWS:
            scores = _score_batch(dictionary, left, threshold, grams, firsts, starts)
        else:
            scores = _score_each(dictionary, left, threshold, text, grams, firsts, starts)
        matches += [(i, j, best) for (i, j, _), best in zip(left, scores) if best >= threshold]
    return resolve_overlaps([
        EntitySpan(i, j, " ".join(t.text for t in tokens[i:j]), dictionary.name, score)
        for i, j, score in matches
    ])


def _score_each(
    dictionary: TermDictionary,
    left: list[tuple[int, int, int]],
    threshold: float,
    text: str,
    grams: list[str],
    firsts: list[Optional[int]],
    starts: list[int],
) -> list[float]:
    """Score the windows ``left``, each start's shortest first, one by one.

    Per start, a gram that recurs within the start's longest window is
    keyed ``(gram, k)`` by its k-th occurrence from the start, and an
    extension's new keys are then one slice. Each key adds at most 1 to
    the overlap with any entry, so a window with fewer keys found than
    ``threshold`` times its gram count scores 0. Otherwise the start's
    running overlap vector takes the postings not yet counted, and
    ``best_among`` scores the entries that can reach the threshold.
    """
    index, ids, offsets = dictionary._keys, dictionary._ids, dictionary._offsets
    extent = {i: size for i, _, size in left}  # each start's longest window comes last
    scores: list[float] = []
    current = -1
    for i, j, size in left:
        if i != current:
            current, a = i, starts[i]
            run = grams[a : a + extent[i]]
            keys = firsts[a : a + extent[i]]
            if len(set(run)) < len(run):
                seen: dict[str, int] = {}
                for p, gram in enumerate(run):
                    k = seen[gram] = seen.get(gram, 0) + 1
                    if k > 1:
                        keys[p] = index.get((gram, k))
            hits: list[int] = []
            added = grown = 0
        hits += [key for key in keys[grown:size] if key is not None]
        grown = size
        if len(hits) / size < threshold:
            scores.append(0.0)
            continue
        if not added:
            overlap = np.zeros(len(dictionary), dtype=np.intp)
        if added < len(hits):
            np.add.at(overlap, np.concatenate([ids[offsets[key] : offsets[key + 1]] for key in hits[added:]]), 1)
            added = len(hits)
        scores.append(dictionary.best_among(text[a : starts[j] - 1], overlap, threshold))
    return scores


def _score_batch(
    dictionary: TermDictionary,
    left: list[tuple[int, int, int]],
    threshold: float,
    grams: list[str],
    firsts: list[Optional[int]],
    starts: list[int],
) -> list[float]:
    """Score the windows ``left``, each start's shortest first, in one run
    of positions, or split between two starts when the run's arrays would
    hold more than ``CHUNK_CELLS`` cells."""
    scores = _score_run(dictionary, left, threshold, grams, firsts, starts)
    if scores is None:
        heads = [w for w in range(1, len(left)) if left[w][0] != left[w - 1][0]]
        half = heads[len(heads) // 2]
        return [
            *_score_batch(dictionary, left[:half], threshold, grams, firsts, starts),
            *_score_batch(dictionary, left[half:], threshold, grams, firsts, starts),
        ]
    return scores


def _score_run(
    dictionary: TermDictionary,
    left: list[tuple[int, int, int]],
    threshold: float,
    grams: list[str],
    firsts: list[Optional[int]],
    starts: list[int],
) -> Optional[list[float]]:
    """Best Jaccard of each window of ``left`` over the entries the run of
    positions the windows cover could match, or None when that takes more
    than ``CHUNK_CELLS`` cells and the windows have more than one start.
    The scores that reach ``threshold`` are ``best_among``'s, bit for bit.

    The run keys the k-th copy of a gram from its first position by
    ``(gram, k)``. A window's grams are a sub-multiset of the run's, so
    its overlap with an entry is at most the entry's count over the run's
    keys; and a match with an entry of ``s`` grams needs an overlap of at
    least ``t·s``, since Jaccard is at most ``overlap / s``. Only entries
    whose count exceeds ``t·s - 1`` and 0 are candidates, then.

    Counting, for each candidate, the run's keys that hold it at the
    windows' bounds gives a window's overlap under the run's keys as the
    difference of two rows. A window keys a copy by its count from the
    window's start, which is the run's count only when no copy of the
    gram precedes the start; otherwise the window's key is the run's key
    of an earlier copy, held by the same entries or more. So the run's
    keys undercount a window by at most its second and later copies, and
    a window that could reach ``t·n`` when they all count is made exact:
    each such copy's row gives way to the row of the key it reads.

    Each window then scores the highest ``o / (n + s - o)`` over the
    candidates, the integer-to-float division ``best_among`` does. An
    entry that is no candidate, or that ``best_among`` leaves out for its
    size or overlap, scores below ``threshold``.
    """
    first = starts[left[0][0]]
    end = max(starts[i] + size for i, _, size in left)
    index = dictionary._keys
    run = grams[first:end]
    occurrences = Counter(run)
    keys = [-1 if key is None else key for key in firsts[first:end]]
    repeats: list[int] = []  # the positions of second and later copies
    copies: list[tuple[list[int], int]] = []  # and their gram's positions, and their index there
    places: dict[str, list[int]] = {}
    for p, gram in enumerate(run):
        if occurrences[gram] > 1:
            place = places.setdefault(gram, [])
            place.append(p)
            if len(place) > 1:
                keys[p] = index.get((gram, len(place)), -1)
                repeats.append(p)
                copies.append((place, len(place) - 1))
    sizes, at, ranks = _candidates(dictionary, keys, threshold)
    width = len(sizes)
    if not width:
        return [0.0] * len(left)
    if (len(run) + len(left)) * width > CHUNK_CELLS and left[0][0] != left[-1][0]:
        return None
    # a cell counts toward every bound above its position
    begin = [starts[i] - first for i, _, _ in left]
    finish = [b + size for b, (*_, size) in zip(begin, left)]
    bounds = sorted({*begin, *finish})
    row = {bound: k for k, bound in enumerate(bounds)}
    prefix = np.bincount(np.searchsorted(bounds, at, "right") * width + ranks, minlength=len(bounds) * width)
    prefix = prefix.reshape(-1, width).cumsum(axis=0, dtype=np.int32)
    overlap = prefix[[row[f] for f in finish]] - prefix[[row[b] for b in begin]]
    counts = np.array([size for *_, size in left], dtype=float)
    shortfall = np.searchsorted(repeats, finish) - np.searchsorted(repeats, begin)
    unsure = np.flatnonzero(shortfall * (overlap.max(axis=1) + shortfall > threshold * counts - 1)).tolist()
    if unsure:
        # the copies whose key differs from the one they read: two keys of
        # one gram with as many candidates hold the same ones
        cells = np.bincount(at, minlength=len(run)).tolist()
        rows: list[int] = []
        read: list[int] = []
        moved: list[int] = []
        for u, w in enumerate(unsure):
            a = begin[w]
            for r in range(bisect_left(repeats, a), bisect_left(repeats, finish[w])):
                place, copy = copies[r]
                before = bisect_left(place, a)  # the copies that precede the start
                if before:
                    p, q = repeats[r], place[copy - before]
                    if cells[q] != cells[p]:
                        rows.append(u)
                        read.append(q)
                        moved.append(p)
        if rows:
            spots = np.array(read + moved)
            lo = np.searchsorted(at, spots)
            count = np.searchsorted(at, spots, "right") - lo
            # the read keys' cells count in rows 0..U-1 for the U windows
            # unsure, the copies' in rows U..2U-1
            change = np.repeat(np.array(rows + [u + len(unsure) for u in rows]), count) * width
            change += ranks[_ranges(lo, count)]
            change = np.bincount(change, minlength=2 * len(unsure) * width).reshape(2, -1, width)
            overlap[unsure] += change[0] - change[1]
    # counts as floats hold whole numbers: the quotient has best_among's bits
    score = counts[:, None] + sizes
    score -= overlap
    np.divide(overlap, score, out=score)
    return score.max(axis=1).tolist()


def _candidates(
    dictionary: TermDictionary, keys: list[int], threshold: float
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The entries whose count over the key ids ``keys`` (-1 for none)
    exceeds ``t·s - 1`` and 0, as their gram counts ``s``; and each
    (position, candidate) cell, a position whose key holds a candidate,
    as its position and the candidate's rank, ordered by position."""
    key = np.array(keys)
    held = np.flatnonzero(key >= 0)
    offsets = np.frombuffer(dictionary._offsets, dtype=np.int64)
    lo = offsets[key[held]]
    length = offsets[key[held] + 1] - lo
    # indexing with int32 ids is slow, so they are widened once
    entries = dictionary._ids[_ranges(lo, length)].astype(np.intp)
    candidate = np.bincount(entries, minlength=len(dictionary)) > np.maximum(threshold * dictionary._sizes - 1, 0)
    kept = np.flatnonzero(candidate[entries])
    at = held[np.searchsorted(np.cumsum(length), kept, "right")]
    ranks = (np.cumsum(candidate) - 1)[entries[kept]]
    return dictionary._sizes[candidate], at, ranks


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
                for number in (sent_idx, start, end):
                    # int() would also take "-1", "1_0" and non-ASCII digits
                    if not (number.isascii() and number.isdigit()):
                        raise ParseError(
                            f"field {number!r} is not a number in ASCII digits",
                            path=str(path),
                            line=lineno,
                        )
                key = (doc_id, int(sent_idx))
                span = (int(start), int(end), label)
                if span[1] <= span[0]:
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
