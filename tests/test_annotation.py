import pickle
import random
from collections import Counter

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st

from notesum.annotation import (
    I2B2_CHANNEL,
    UMLS_CHANNEL,
    EntitySpan,
    StandoffIndex,
    TermDictionary,
    annotate,
    annotate_sentence,
    load_dictionary,
    resolve_overlaps,
)
from notesum.errors import ConfigurationError, ParseError
from notesum.text import tokenize, trigram_jaccard

# ---------------------------------------------------------------------------
# oracles (kept deliberately naive and separate from the implementation)


def oracle_trigrams(s):
    if len(s) >= 3:
        return Counter(s[i : i + 3] for i in range(len(s) - 2))
    return Counter({s: 1})


def oracle_similarity(a, b):
    if a == b:
        return 1.0
    ca, cb = oracle_trigrams(a), oracle_trigrams(b)
    inter = sum((ca & cb).values())
    union = sum(ca.values()) + sum(cb.values()) - inter
    return inter / union if union else 0.0


def oracle_annotate(words, entries, threshold, max_window):
    """Exhaustive window scan + plain restatement of the greedy overlap rule."""
    words = [w.lower() for w in words]
    candidates = []
    for i in range(len(words)):
        for j in range(i + 1, min(i + max_window, len(words)) + 1):
            window = " ".join(words[i:j])
            if threshold >= 1.0:
                best = 1.0 if window in entries else 0.0
            else:
                best = max((oracle_similarity(window, e) for e in entries), default=0.0)
            if best >= threshold:
                candidates.append((i, j, best))
    chosen = []
    for c in sorted(candidates, key=lambda c: (-c[2], -(c[1] - c[0]), c[0])):
        if not any(c[0] < k[1] and k[0] < c[1] for k in chosen):
            chosen.append(c)
    return sorted(chosen)


# ---------------------------------------------------------------------------
# dictionary loading


def test_load_collapses_duplicate_terms(tmp_path):
    path = tmp_path / "dict.txt"
    path.write_text("Heart Failure\nheart  failure\n", encoding="utf-8")
    d = load_dictionary(path, UMLS_CHANNEL)
    assert len(d) == 1
    assert d.entry_texts == ("heart failure",)


def test_load_single_token_term(tmp_path):
    path = tmp_path / "dict.txt"
    path.write_text("CPAP\n", encoding="utf-8")
    d = load_dictionary(path, UMLS_CHANNEL)
    assert len(d) == 1
    assert d.entry_texts == ("cpap",)


def test_load_skips_a_byte_order_mark(tmp_path):
    path = tmp_path / "dict.txt"
    path.write_text("\ufeffheart failure\ncpap\n", encoding="utf-8")
    d = load_dictionary(path, UMLS_CHANNEL)
    assert sorted(d.entry_texts) == ["cpap", "heart failure"]
    spans = annotate(tokenize("has heart failure today"), d, threshold=1.0)
    assert [(s.start, s.end) for s in spans] == [(1, 3)]


def test_load_empty_file_is_a_configuration_error(tmp_path):
    path = tmp_path / "dict.txt"
    path.write_text("", encoding="utf-8")
    with pytest.raises(ConfigurationError):
        load_dictionary(path, UMLS_CHANNEL)


def test_load_missing_file_is_an_io_error(tmp_path):
    with pytest.raises(OSError):
        load_dictionary(tmp_path / "nope.txt", UMLS_CHANNEL)


# ---------------------------------------------------------------------------
# trigram similarity (the matcher's scoring rule)


def test_similarity_identity():
    assert trigram_jaccard("cpap", "cpap") == 1.0


def test_similarity_disjoint():
    assert trigram_jaccard("cat", "dog") == 0.0


def test_similarity_matches_trigram_oracle_value():
    # frozen from the oracle above: 11 shared trigrams, union of 12
    got = trigram_jaccard("heart failure", "heart failures")
    assert got == 11 / 12
    assert got == oracle_similarity("heart failure", "heart failures")


def test_similarity_rejects_empty_sequences():
    with pytest.raises(ValueError):
        trigram_jaccard("", "x")
    with pytest.raises(ValueError):
        trigram_jaccard("x", "")


phrases = st.lists(
    st.text(alphabet="abcdef", min_size=1, max_size=6), min_size=1, max_size=4
).map(" ".join)


@given(phrases, phrases)
def test_similarity_is_symmetric(a, b):
    assert trigram_jaccard(a, b) == trigram_jaccard(b, a)


@given(phrases)
def test_similarity_of_self_is_one(a):
    assert trigram_jaccard(a, a) == 1.0


@given(phrases, phrases)
def test_similarity_agrees_with_oracle(a, b):
    assert trigram_jaccard(a, b) == oracle_similarity(a, b)


# any code point, lone surrogates included, and a small alphabet of
# wide and surrogate characters, so short strings and repeated grams recur
unicode_texts = st.text(st.characters(exclude_categories=()), min_size=1, max_size=12)
repeating_texts = st.text(alphabet="ab😀\ud800\U0010ffff", min_size=1, max_size=8)


@given(st.one_of(unicode_texts, repeating_texts), st.one_of(unicode_texts, repeating_texts))
@example("aaaa", "aaa")
@example("abab", "baba")
@example("ab", "abc")
@example("a", "ab")
@example("\ud800😀\ud800", "\ud800😀\ud800😀")
@example("x\x01\x00", "x\x00\U00010000")  # one gram if code points were packed in 16 bits
def test_similarity_agrees_with_oracle_on_any_unicode(a, b):
    assert trigram_jaccard(a, b) == oracle_similarity(a, b)


# ---------------------------------------------------------------------------
# window annotation


def test_annotate_finds_exact_phrase():
    d = TermDictionary(["heart failure"], UMLS_CHANNEL)
    spans = annotate(tokenize("has heart failure today"), d, threshold=1.0)
    assert [(s.start, s.end, s.surface, s.score) for s in spans] == [
        (1, 3, "heart failure", 1.0)
    ]


def test_annotate_no_match():
    d = TermDictionary(["cpap"], UMLS_CHANNEL)
    assert annotate(tokenize("no match here"), d, threshold=0.9) == []


def test_annotate_exact_single_token():
    d = TermDictionary(["cpap"], UMLS_CHANNEL)
    spans = annotate(tokenize("cpap"), d, threshold=0.7)
    assert [(s.start, s.end, s.score) for s in spans] == [(0, 1, 1.0)]


def test_annotate_near_match_scores_below_one():
    d = TermDictionary(["heart failure"], UMLS_CHANNEL)
    spans = annotate(tokenize("worsening heart failures overnight"), d, threshold=0.7)
    assert len(spans) == 1
    assert spans[0].score == pytest.approx(11 / 12, abs=1e-12)


def test_annotate_validates_arguments():
    d = TermDictionary(["cpap"], UMLS_CHANNEL)
    with pytest.raises(ValueError):
        annotate(tokenize("x"), d, threshold=0.0)
    with pytest.raises(ValueError):
        annotate(tokenize("x"), d, max_window=0)


# Repeated trigrams ("aaaa", "ababab", "abcabc") exercise the multiset
# keys; 1-2 character tokens ("a", "ab") are single whole-string grams.
VOCAB = ["pt", "on", "cpap", "heart", "failure", "renal", "noted", "sat",
         "drifts", "stable", "fail", "hearts", "a", "ab", "aaaa", "ababab",
         "abcabc", "aa", "abab"]


THRESHOLDS = (0.5, 0.6, 0.7, 0.75, 0.8, 0.9, 1.0)


def spans_of(tokens, d, threshold, max_window):
    return [(s.start, s.end, s.score) for s in annotate(tokens, d, threshold, max_window)]


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_annotate_agrees_with_bruteforce_oracle(data):
    rng = data.draw(st.randoms(use_true_random=False))
    max_window = data.draw(st.integers(1, 6))
    entries = {
        " ".join(rng.choice(VOCAB) for _ in range(rng.randint(1, 3)))
        for _ in range(rng.randint(1, 5))
    }
    d = TermDictionary(sorted(entries), UMLS_CHANNEL)
    words = [rng.choice(VOCAB) for _ in range(rng.randint(1, 10))]
    tokens = tokenize(" ".join(words))
    for threshold in THRESHOLDS:
        # exact equality: the benchmark's brute-force check compares scores exactly
        assert spans_of(tokens, d, threshold, max_window) == oracle_annotate(
            words, entries, threshold, max_window
        )


def test_annotate_agrees_with_bruteforce_oracle_on_a_large_dictionary():
    rng = random.Random(11)
    vocab = ["".join(rng.choice("abcde") for _ in range(rng.randint(1, 6))) for _ in range(60)]
    entries = set()
    while len(entries) < 300:
        entries.add(" ".join(rng.choice(vocab) for _ in range(rng.randint(1, 3))))
    d = TermDictionary(sorted(entries), UMLS_CHANNEL)
    for _ in range(4):
        words = [rng.choice(vocab) for _ in range(10)]
        tokens = tokenize(" ".join(words))
        for threshold in THRESHOLDS[:-1]:
            want = oracle_annotate(words, entries, threshold, 4)
            assert spans_of(tokens, d, threshold, 4) == want
            assert want or threshold > 0.7  # near matches are common in this vocabulary


# letters no VOCAB word uses, so filler grams are never indexed and most
# windows over filler are skipped by their count of indexed positions
FILLER = "gjkmqvwxyz"


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_annotate_agrees_with_oracle_when_filler_grams_are_not_indexed(data):
    rng = data.draw(st.randoms(use_true_random=False))
    entries = sorted({
        " ".join(rng.choice(VOCAB) for _ in range(rng.randint(1, 3)))
        for _ in range(rng.randint(1, 5))
    })
    words = []
    for _ in range(rng.randint(1, 12)):
        if rng.random() < 0.4:
            words.append("".join(rng.choice(FILLER) for _ in range(rng.randint(1, 7))))
            continue
        term = rng.choice(entries)
        if rng.random() < 0.5:  # a near miss: one letter replaced, dropped or added
            p = rng.randrange(len(term))
            term = rng.choice([
                term[:p] + rng.choice(FILLER) + term[p + 1 :],
                term[:p] + term[p + 1 :],
                term[:p] + rng.choice("abcehr") + term[p:],
            ])
        words += term.split()
    if not words:
        return
    d = TermDictionary(entries, UMLS_CHANNEL)
    tokens = tokenize(" ".join(words))
    for max_window in (1, 3, 6):
        for threshold in THRESHOLDS:
            assert spans_of(tokens, d, threshold, max_window) == oracle_annotate(
                words, set(entries), threshold, max_window
            )


def test_annotate_at_threshold_one_needs_the_entry_itself_not_an_equal_multiset():
    # "baba" and "abab" have the same trigram multiset {aba, bab}
    d = TermDictionary(["abab"], UMLS_CHANNEL)
    tokens = tokenize("x baba y")
    assert spans_of(tokens, d, 1.0, 6) == []
    assert spans_of(tokens, d, 0.99, 6) == [(1, 2, 1.0)]


def test_annotate_scores_no_window_whose_trigrams_are_all_unindexed(monkeypatch):
    def refuse(*args):
        raise AssertionError("best_among called")

    monkeypatch.setattr(TermDictionary, "best_among", refuse)
    d = TermDictionary(["mi", "heart failure"], UMLS_CHANNEL)
    for threshold in THRESHOLDS:
        # no trigram of the sentence is indexed, yet the 2-character entry matches
        assert spans_of(tokenize("pt mi ok"), d, threshold, 6) == [(1, 2, 1.0)]


def test_annotate_drops_a_short_windows_whole_string_gram_when_it_grows():
    # "a a" has the single trigram "a a" and shares nothing with "a"; a
    # stale key for the one-character window "a" would score it 1.0
    d = TermDictionary(["a"], UMLS_CHANNEL)
    assert spans_of(tokenize("a a"), d, 0.5, 2) == [(0, 1, 1.0), (1, 2, 1.0)]


# (threshold, sentence, entry): the entry's gram count is exactly t·n or
# n/t for the window's n grams, and the match's Jaccard is exactly t
EXACT_THRESHOLD_CASES = [
    (0.75, "abcde", "abcdef"),  # n 3, s 4 = n/t, overlap 3
    (0.75, "abcdef", "abcde"),  # n 4, s 3 = t·n, overlap 3 = t·n
    (0.6, "abcdefg", "abcde"),  # n 5, s 3 = t·n
    (0.8, "abcdef", "abcdefg"),  # n 4, s 5 = n/t
    (0.7, "abcdefghijkl", "abcdefghi"),  # n 10, s 7 = t·n
    (0.9, "abcdefghijkl", "abcdefghijk"),  # n 10, s 9 = t·n
    (0.5, "abab", "ababab"),  # n 2, s 4 = n/t; the entry holds each gram twice
    (0.5, "x ababab", "abab"),  # n 4 from the second start, s 2 = t·n
]


@pytest.mark.parametrize("threshold, sentence, entry", EXACT_THRESHOLD_CASES)
def test_annotate_keeps_a_match_whose_jaccard_is_exactly_the_threshold(threshold, sentence, entry):
    want = oracle_annotate(sentence.split(), {entry}, threshold, 6)
    assert spans_of(tokenize(sentence), TermDictionary([entry], UMLS_CHANNEL), threshold, 6) == want
    assert [score for *_, score in want] == [threshold]


@pytest.mark.parametrize("sentence, entries", [
    # the same gram recurs within and across words, so a window's k-th
    # copy of a gram depends on where the window starts
    ("abab abab ab", ["abab abab", "bab ab", "abab ab", "ab abab", "ababab"]),
    ("aaaa aaa aaaa a aaaa", ["aaaa aaaa", "aaa aaaa", "aaaaaa", "a aaaa"]),
    ("abc abc abc abc", ["abc abc", "abc abc abc", "bc abc ab"]),
    # 1-2 character tokens between longer ones
    ("heart a failure o2 sat ab drifts", ["heart failure", "heart a fail", "o2 sat", "a failure", "sat drifts"]),
    ("pt on a b cpap x y renal", ["a b cpap", "on a", "b cpap x", "cpap", "x y renal"]),
])
def test_annotate_agrees_with_oracle_on_repeated_grams_and_short_tokens(sentence, entries):
    words = sentence.split()
    d = TermDictionary(entries, UMLS_CHANNEL)
    found = False
    for threshold in THRESHOLDS:
        for max_window in (1, 3, 6):
            want = oracle_annotate(words, set(entries), threshold, max_window)
            assert spans_of(tokenize(sentence), d, threshold, max_window) == want
            found = found or bool(want)
    assert found


def test_annotate_spans_do_not_depend_on_the_input_order_of_terms():
    rng = random.Random(23)
    terms = [" ".join(rng.choice(VOCAB) for _ in range(rng.randint(1, 3))) for _ in range(60)]
    texts = [" ".join(rng.choice(VOCAB) for _ in range(10)) for _ in range(8)]
    d = TermDictionary(terms, UMLS_CHANNEL)
    want = [[spans_of(tokenize(t), d, threshold, 6) for t in texts] for threshold in THRESHOLDS]
    assert any(any(row) for row in want)
    for _ in range(3):
        rng.shuffle(terms)
        shuffled = TermDictionary(terms, UMLS_CHANNEL)
        assert sorted(shuffled.entry_texts) == sorted(d.entry_texts)
        assert [[spans_of(tokenize(t), shuffled, threshold, 6) for t in texts]
                for threshold in THRESHOLDS] == want


def test_annotate_is_repeatable_and_survives_pickling_a_used_dictionary():
    rng = random.Random(5)
    entries = [" ".join(rng.choice(VOCAB) for _ in range(rng.randint(1, 3))) for _ in range(40)]
    d = TermDictionary(entries, UMLS_CHANNEL)
    built = pickle.dumps(d)
    texts = [[rng.choice(VOCAB) for _ in range(12)] for _ in range(10)]
    sentences = [tokenize(" ".join(words)) for words in texts]
    first = [spans_of(t, d, 0.6, 6) for t in sentences]
    assert first == [oracle_annotate(words, set(entries), 0.6, 6) for words in texts]
    assert any(first)
    assert [spans_of(t, d, 0.6, 6) for t in sentences] == first
    # annotate only reads the index
    assert pickle.dumps(d) == built
    # worker processes receive dictionaries pickled after the parent used them
    copy = pickle.loads(pickle.dumps(d))
    assert [spans_of(t, copy, 0.6, 6) for t in sentences] == first


@settings(max_examples=150, deadline=None)
@given(st.lists(st.text(alphabet="ab c", min_size=1, max_size=14), min_size=1, max_size=8))
def test_index_maps_each_gram_occurrence_to_the_entries_holding_it(terms):
    assume(any(t.split() for t in terms))
    d = TermDictionary(terms, UMLS_CHANNEL)
    want: dict = {}
    for i, entry in enumerate(d.entry_texts):
        for gram, count in oracle_trigrams(entry).items():
            for k in range(1, count + 1):
                want.setdefault(gram if k == 1 else (gram, k), []).append(i)
    assert {key: posting.tolist() for key, posting in d._postings.items()} == want
    assert all(type(p) is np.ndarray and p.dtype == np.intp for p in d._postings.values())


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_annotate_spans_are_in_bounds_and_disjoint(data):
    rng = data.draw(st.randoms(use_true_random=False))
    entries = [" ".join(rng.choice(VOCAB) for _ in range(rng.randint(1, 2)))
               for _ in range(3)]
    d = TermDictionary(entries, UMLS_CHANNEL)
    tokens = tokenize(" ".join(rng.choice(VOCAB) for _ in range(rng.randint(1, 12))))
    spans = annotate(tokens, d, threshold=0.6)
    prev_end = 0
    for span in sorted(spans, key=lambda s: s.start):
        assert 0 <= span.start < span.end <= len(tokens)
        assert span.start >= prev_end
        prev_end = span.end
        assert span.score >= 0.6


# ---------------------------------------------------------------------------
# overlap resolution


def _span(start, end, score):
    return EntitySpan(start, end, "x", UMLS_CHANNEL, score)


def test_overlap_keeps_higher_score():
    kept = resolve_overlaps([_span(0, 2, 1.0), _span(1, 3, 0.8)])
    assert [(s.start, s.end) for s in kept] == [(0, 2)]


def test_overlap_keeps_disjoint_spans():
    kept = resolve_overlaps([_span(0, 1, 0.9), _span(2, 3, 0.8)])
    assert [(s.start, s.end) for s in kept] == [(0, 1), (2, 3)]


def test_overlap_empty():
    assert resolve_overlaps([]) == []


def test_overlap_prefers_longer_then_earlier_on_ties():
    kept = resolve_overlaps([_span(1, 2, 0.9), _span(1, 3, 0.9)])
    assert [(s.start, s.end) for s in kept] == [(1, 3)]
    kept = resolve_overlaps([_span(2, 3, 0.9), _span(1, 2, 0.9)])
    assert [(s.start, s.end) for s in kept] == [(1, 2), (2, 3)]


# ---------------------------------------------------------------------------
# two-channel sentence annotation


def test_both_channels_populate_independently(umls_dict, i2b2_dict):
    sent = "pt with heart failure started on lasix ."
    annotated = annotate_sentence(sent, umls_dict, i2b2_dict)
    assert annotated.umls_spans and annotated.i2b2_spans


def test_no_hits_leaves_both_channels_empty(umls_dict, i2b2_dict):
    annotated = annotate_sentence("nothing relevant here .", umls_dict, i2b2_dict)
    assert annotated.umls_spans == [] and annotated.i2b2_spans == []


def test_standoff_spans_pass_through(umls_dict, tmp_path):
    standoff = tmp_path / "spans.tsv"
    standoff.write_text("doc-1\t0\t2\t4\tproblem\n", encoding="utf-8")
    index = StandoffIndex.load(standoff)
    annotated = annotate_sentence(
        "pt on cpap sat drifts", umls_dict, index, doc_id="doc-1", sentence_index=0
    )
    assert [(s.start, s.end, s.score) for s in annotated.i2b2_spans] == [(2, 4, 1.0)]
    assert annotated.i2b2_spans[0].surface == "cpap sat"


def test_standoff_lookup_miss_is_empty_not_an_error(umls_dict, tmp_path):
    standoff = tmp_path / "spans.tsv"
    standoff.write_text("other-doc\t3\t0\t1\tproblem\n", encoding="utf-8")
    index = StandoffIndex.load(standoff)
    annotated = annotate_sentence(
        "pt on cpap", umls_dict, index, doc_id="doc-1", sentence_index=0
    )
    assert annotated.i2b2_spans == []


def test_standoff_span_past_sentence_end_is_dropped(umls_dict, tmp_path):
    standoff = tmp_path / "spans.tsv"
    standoff.write_text("doc-1\t0\t1\t99\tproblem\n", encoding="utf-8")
    index = StandoffIndex.load(standoff)
    annotated = annotate_sentence(
        "pt on cpap", umls_dict, index, doc_id="doc-1", sentence_index=0
    )
    assert annotated.i2b2_spans == []


def test_standoff_skips_a_byte_order_mark(tmp_path):
    standoff = tmp_path / "spans.tsv"
    standoff.write_text("\ufeffdoc-1\t0\t2\t4\tproblem\n", encoding="utf-8")
    assert StandoffIndex.load(standoff).spans_for("doc-1", 0, 5) == [(2, 4, "problem")]


def test_standoff_rejects_malformed_lines(tmp_path):
    bad = tmp_path / "bad.tsv"
    bad.write_text("doc-1\t0\t2\n", encoding="utf-8")
    with pytest.raises(ParseError) as exc:
        StandoffIndex.load(bad)
    assert "bad.tsv:1" in str(exc.value)
    bad.write_text("doc-1\t0\tx\t4\tproblem\n", encoding="utf-8")
    with pytest.raises(ParseError):
        StandoffIndex.load(bad)
    bad.write_text("doc-1\t0\t4\t2\tproblem\n", encoding="utf-8")
    with pytest.raises(ParseError):
        StandoffIndex.load(bad)
    # int() reads these as -1, 10 and 3; each must be plain ASCII digits
    for line in ("doc\t-1\t0\t1\tX", "doc\t0\t1_0\t12\tX", "doc\t0\t0\t ٣ \tX"):
        bad.write_text(f"doc\t0\t0\t1\tX\n{line}\n", encoding="utf-8")
        with pytest.raises(ParseError) as exc:
            StandoffIndex.load(bad)
        assert "bad.tsv:2" in str(exc.value), line
