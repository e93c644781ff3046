import re

import pytest
from hypothesis import given, strategies as st

from notesum.text import (
    char_trigrams,
    normalize,
    segment_sentences,
    tokenize,
    trigram_jaccard,
)


def test_segments_on_terminal_punctuation_plus_space():
    assert [s for s, _ in segment_sentences("A b. C d.")] == ["A b.", "C d."]


def test_no_split_point_means_one_sentence():
    assert [s for s, _ in segment_sentences("no terminal punct")] == [
        "no terminal punct"
    ]


def test_empty_text_has_no_sentences():
    assert segment_sentences("") == []


def test_newlines_are_record_boundaries():
    got = [s for s, _ in segment_sentences("line one\nline two\n\nline three")]
    assert got == ["line one", "line two", "line three"]


# independent splitter oracle: cut after every terminal-punctuation run
# followed by a space, on single-line text
def _oracle_split(text):
    return [p for p in re.split(r"(?<=[.!?])\s+(?!$)", text) if p.strip()]


@given(
    st.lists(
        st.text(alphabet="abc XY", min_size=1).map(lambda s: s.strip() or "a"),
        min_size=1,
        max_size=6,
    ),
    st.sampled_from([". ", "! ", "? "]),
)
def test_matches_oracle_on_single_line_text(chunks, ending):
    text = ending.join(chunks) + ending.strip()
    got = [s for s, _ in segment_sentences(text)]
    assert got == _oracle_split(text)


def join_sentences(text, sentences):
    """Reassemble ``text`` from its segmentation: the gaps between
    sentences come from ``text`` itself, the sentences from the pairs."""
    parts = []
    prev = 0
    for sentence, start in sentences:
        parts.append(text[prev:start])
        parts.append(sentence)
        prev = start + len(sentence)
    parts.append(text[prev:])
    return "".join(parts)


@given(st.text(alphabet="aB .!?\n\t", max_size=120))
def test_segmentation_preserves_bytes_and_orders_offsets(text):
    segments = segment_sentences(text)
    assert join_sentences(text, segments) == text
    prev_end = 0
    for sentence, start in segments:
        assert text[start : start + len(sentence)] == sentence
        assert start >= prev_end
        assert not text[prev_end:start].strip()
        prev_end = start + len(sentence)
    assert not text[prev_end:].strip()


def test_tokenize_keeps_offsets():
    tokens = tokenize("pt  on CPAP")
    assert [(t.text, t.start, t.end) for t in tokens] == [
        ("pt", 0, 2),
        ("on", 4, 6),
        ("CPAP", 7, 11),
    ]


def test_normalize_lowers_and_collapses():
    assert normalize("Heart\t Failure ") == "heart failure"


def test_trigrams_of_short_strings_are_the_string():
    assert char_trigrams("mi") == {"mi": 1}


def test_trigram_jaccard_rejects_empty():
    with pytest.raises(ValueError):
        trigram_jaccard("", "x")
