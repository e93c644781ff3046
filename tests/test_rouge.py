import random
from collections import Counter

import pytest
from hypothesis import given, strategies as st

from notesum.rouge import (
    PRF,
    evaluate_corpus,
    format_table,
    lcs_length,
    rouge_l,
    rouge_n,
    score_summary,
)


# full-matrix DP oracle, the textbook formulation
def lcs_oracle(a, b):
    m, n = len(a), len(b)
    table = [[0] * (n + 1) for _ in range(m + 1)]
    for i in range(m):
        for j in range(n):
            if a[i] == b[j]:
                table[i + 1][j + 1] = table[i][j] + 1
            else:
                table[i + 1][j + 1] = max(table[i][j + 1], table[i + 1][j])
    return table[m][n]


def test_unigram_hand_value():
    got = rouge_n("the cat sat", "the cat ate", 1)
    assert got == pytest.approx((2 / 3, 2 / 3, 2 / 3), abs=1e-6)


def test_bigram_hand_value():
    got = rouge_n("the cat sat", "the cat ate", 2)
    assert got == pytest.approx((0.5, 0.5, 0.5), abs=1e-6)


def test_identical_texts_score_one():
    assert rouge_n("a b c", "a b c", 1) == PRF(1.0, 1.0, 1.0)
    assert rouge_n("a b c", "a b c", 2) == PRF(1.0, 1.0, 1.0)
    assert rouge_l("a b c", "a b c") == PRF(1.0, 1.0, 1.0)


def test_text_shorter_than_n_scores_zero():
    assert rouge_n("one", "one two", 2) == PRF(0.0, 0.0, 0.0)
    assert rouge_l("", "one") == PRF(0.0, 0.0, 0.0)


def test_clipping_counts_repeated_ngrams_once_each():
    # candidate repeats 'the' three times, reference has it once
    got = rouge_n("the the the", "the cat", 1)
    assert got.precision == pytest.approx(1 / 3)
    assert got.recall == pytest.approx(1 / 2)


def test_lcs_hand_values():
    assert rouge_l("the cat sat", "the cat ate") == pytest.approx((2 / 3, 2 / 3, 2 / 3))
    assert rouge_l("c b a", "a b c") == pytest.approx((1 / 3, 1 / 3, 1 / 3))


def test_lcs_matches_oracle_on_random_sequences():
    rng = random.Random(31)
    for _ in range(2000):
        a = [rng.choice("abcde") for _ in range(rng.randint(0, 12))]
        b = [rng.choice("abcde") for _ in range(rng.randint(0, 12))]
        assert lcs_length(a, b) == lcs_oracle(a, b)


long_sequences = st.lists(st.sampled_from("abc"), min_size=65, max_size=160)
any_sequences = st.lists(st.sampled_from("abcd"), max_size=160)


@given(long_sequences, any_sequences)
def test_bit_parallel_lcs_equals_the_full_table_past_one_machine_word(a, b):
    # heavy repeats over a 3-4 token alphabet, at least one side past 64
    want = lcs_oracle(a, b)
    assert lcs_length(a, b) == want
    assert lcs_length(b, a) == want


# The three-tokenization formulas ROUGE had before it shared one token list
# per side: each metric re-tokenizes, n-grams are tuple slices clipped with
# Counter &, and the LCS is the full table.
def oracle_tokens(text):
    return text.lower().split()


def oracle_rouge_n(candidate, reference, n):
    cand, ref = oracle_tokens(candidate), oracle_tokens(reference)
    if len(cand) < n or len(ref) < n:
        return PRF(0.0, 0.0, 0.0)
    cand_grams = Counter(tuple(cand[i : i + n]) for i in range(len(cand) - n + 1))
    ref_grams = Counter(tuple(ref[i : i + n]) for i in range(len(ref) - n + 1))
    overlap = sum((cand_grams & ref_grams).values())
    return PRF.from_counts(overlap, sum(cand_grams.values()), sum(ref_grams.values()))


def oracle_rouge_l(candidate, reference):
    cand, ref = oracle_tokens(candidate), oracle_tokens(reference)
    if not cand or not ref:
        return PRF(0.0, 0.0, 0.0)
    return PRF.from_counts(lcs_oracle(cand, ref), len(cand), len(ref))


def oracle_score(candidate, reference):
    return (
        oracle_rouge_n(candidate, reference, 1),
        oracle_rouge_n(candidate, reference, 2),
        oracle_rouge_l(candidate, reference),
    )


def oracle_corpus(predictions, references):
    totals = {(m, c): 0.0 for m in range(3) for c in range(3)}
    for pred, ref in zip(predictions, references):
        for m, prf in enumerate(oracle_score(pred, ref)):
            for c in range(3):
                totals[(m, c)] += prf[c]
    n = len(predictions)
    return tuple(PRF(*(totals[(m, c)] / n for c in range(3))) for m in range(3))


# inflected forms of one word stay distinct; case and spacing vary; short
# and empty texts are common
summary_words = st.sampled_from(
    ["copd", "COPD", "fails", "failed", "failing", "fail", "hr", "a", "the", "lasix", "s"]
)
summary_texts = st.lists(summary_words, max_size=30).flatmap(
    lambda words: st.sampled_from([" ", "  ", "\n", " \t"]).map(lambda sep: sep.join(words))
)
@given(summary_texts, summary_texts)
def test_one_tokenization_equals_the_three_tokenization_formulas(c, r):
    score = score_summary(c, r)
    assert (score.r1, score.r2, score.rl) == oracle_score(c, r)
    assert rouge_n(c, r, 1) == score.r1
    assert rouge_n(c, r, 2) == score.r2
    assert rouge_n(c, r, 3) == oracle_rouge_n(c, r, 3)
    assert rouge_l(c, r) == score.rl


@given(st.lists(st.tuples(summary_texts, summary_texts), min_size=1, max_size=8))
def test_corpus_means_equal_the_three_tokenization_formulas(pairs):
    predictions, references = [p for p, _ in pairs], [r for _, r in pairs]
    score = evaluate_corpus(predictions, references)
    assert (score.r1, score.r2, score.rl) == oracle_corpus(predictions, references)


def test_empty_and_short_sides_match_the_formulas():
    for c, r in (("", ""), ("", "a b"), ("a", "a"), ("a", "a b"), ("a b", "b")):
        score = score_summary(c, r)
        assert (score.r1, score.r2, score.rl) == oracle_score(c, r)
    assert score_summary("a", "a").r2 == PRF(0.0, 0.0, 0.0)
    assert score_summary("", "a").rl == PRF(0.0, 0.0, 0.0)


texts = st.lists(st.sampled_from("abcd"), min_size=1, max_size=10).map(" ".join)


@given(texts, texts)
def test_precision_and_recall_swap_under_argument_swap(c, r):
    for fn in (lambda x, y: rouge_n(x, y, 1), lambda x, y: rouge_n(x, y, 2), rouge_l):
        forward = fn(c, r)
        backward = fn(r, c)
        assert forward.precision == pytest.approx(backward.recall, abs=1e-12)
        assert forward.recall == pytest.approx(backward.precision, abs=1e-12)
        assert forward.f1 == pytest.approx(backward.f1, abs=1e-12)


@given(texts, texts)
def test_scores_stay_in_unit_interval(c, r):
    score = score_summary(c, r)
    for metric in (score.r1, score.r2, score.rl):
        assert 0.0 <= metric.precision <= 1.0
        assert 0.0 <= metric.recall <= 1.0
        assert 0.0 <= metric.f1 <= 1.0


def test_corpus_average_is_the_mean():
    score = evaluate_corpus(["a b", "x y"], ["a b", "a b"])
    # first pair scores 1.0 everywhere, second 0.0
    assert score.r1.f1 == pytest.approx(0.5)
    assert score.rl.f1 == pytest.approx(0.5)


def test_single_pair_average_is_itself():
    one = evaluate_corpus(["the cat sat"], ["the cat ate"])
    assert one.r1.f1 == pytest.approx(2 / 3)


def test_length_mismatch_is_an_error():
    with pytest.raises(ValueError):
        evaluate_corpus(["a"], ["a", "b"])


def test_rouge_is_case_insensitive():
    assert rouge_n("The CAT", "the cat", 1).f1 == pytest.approx(1.0)


def test_inflections_stay_distinct_without_stemming():
    assert rouge_n("failures", "failure", 1).f1 == 0.0
    assert score_summary("heart failures", "heart failure").r1.f1 == pytest.approx(0.5)


def test_table_layout_matches_the_reporting_convention():
    table = format_table(score_summary("the cat sat", "the cat ate"))
    lines = table.splitlines()
    assert lines[0].split() == ["R-1", "R-2", "R-L"]
    assert [line.split()[0] for line in lines[1:]] == ["R-F1", "R-P", "R-R"]
    assert lines[1].split()[1:] == ["66.67", "50.00", "66.67"]
