"""Low-level text utilities: normalization, character-trigram features,
offset-preserving tokenization and sentence segmentation.

Everything here is pure and offset-faithful: segmenting then re-joining
sentences with the skipped whitespace reproduces the input byte-exactly,
which the masking round-trip depends on.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

import numpy as np

_TOKEN_RE = re.compile(r"\S+")
_SENTENCE_CUT_RE = re.compile(r"[.!?]+(?=\s)|\n")
_WORD_RE = re.compile(r"[A-Za-z0-9]+(?:['\-][A-Za-z0-9]+)*")


@dataclass(frozen=True)
class Token:
    """A whitespace token with character offsets into its sentence."""

    text: str
    start: int
    end: int


def normalize(text: str) -> str:
    """Lowercase and collapse all whitespace runs to single spaces."""
    return " ".join(text.lower().split())


def char_trigrams(text: str) -> dict[str, int]:
    """Multiset of character trigrams as gram -> count; strings shorter
    than 3 chars contribute themselves as a single gram. A plain dict loop,
    which is faster than Counter on short text."""
    if len(text) < 3:
        return {text: 1}
    counts: dict[str, int] = {}
    for k in range(len(text) - 2):
        gram = text[k : k + 3]
        counts[gram] = counts.get(gram, 0) + 1
    return counts


def _trigram_codes(text: str) -> np.ndarray:
    """Sorted trigram codes of a string of 3+ chars: each trigram packed
    into one int64 as ``(c0 << 42) | (c1 << 21) | c2``. Code points are
    below 2**21, so equal codes are equal trigrams; lone surrogates are
    code points like any other."""
    chars = np.frombuffer(text.encode("utf-32-le", "surrogatepass"), dtype="<u4").astype(np.int64)
    codes = (chars[:-2] << 42) | (chars[1:-1] << 21) | chars[2:]
    codes.sort()
    return codes


def trigram_jaccard(a: str, b: str) -> float:
    """Jaccard similarity of the character-trigram multisets of two strings
    (as counted by ``char_trigrams``), built without trigram strings.

    Symmetric, 1.0 for equal strings, 0.0 for disjoint trigram sets. A
    string shorter than 3 chars is its own single gram, which no other
    string shares, so it scores 0.0 against anything but itself.
    """
    if not a or not b:
        raise ValueError("trigram_jaccard requires non-empty strings")
    if a == b:
        return 1.0
    if len(a) < 3 or len(b) < 3:
        return 0.0
    ca = _trigram_codes(a)
    cb = _trigram_codes(b)
    # A gram's k-th copy in ca (its rank within its run) is shared when
    # cb holds more than k copies of it: this counts sum(min(count_a, count_b)).
    rank = np.arange(len(ca)) - np.searchsorted(ca, ca)
    in_b = np.searchsorted(cb, ca, "right") - np.searchsorted(cb, ca)
    inter = int(np.count_nonzero(rank < in_b))
    return inter / (len(ca) + len(cb) - inter)


def tokenize(text: str) -> list[Token]:
    """Whitespace tokens with character offsets into ``text``."""
    return [Token(m.group(), m.start(), m.end()) for m in _TOKEN_RE.finditer(text)]


def word_tokens(text: str) -> list[str]:
    """Lowercased alphanumeric word tokens (punctuation stripped)."""
    return [m.group().lower() for m in _WORD_RE.finditer(text)]


def segment_sentences(text: str) -> list[tuple[str, int]]:
    """Split ``text`` into sentences, returning (sentence, start) pairs.

    A sentence ends after a run of terminal punctuation followed by
    whitespace, or at a newline (notes treat line breaks as record
    boundaries). ``start`` locates the trimmed sentence; everything between
    consecutive sentences is pure whitespace, so the concatenation of the
    sentences plus the inter-sentence gaps reproduces ``text`` exactly.
    """
    sentences: list[tuple[str, int]] = []
    prev = 0
    # match ends ascend; a chunk is stripped, so cutting after a newline
    # gives the sentences a cut on each side of it would
    for cut in [m.end() for m in _SENTENCE_CUT_RE.finditer(text)] + [len(text)]:
        chunk = text[prev:cut]
        stripped = chunk.strip()
        if stripped:
            sentences.append((stripped, prev + len(chunk) - len(chunk.lstrip())))
        prev = cut
    return sentences

