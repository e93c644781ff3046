import json
import math
import random
import tracemalloc
import warnings
from collections import Counter, defaultdict
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra.numpy import arrays

from notesum import augment
from notesum.augment import (
    BIGRAM_SMOOTHING,
    MAX_REQUIRED_TERMS,
    SOURCE,
    TERM_1,
    TERM_2,
    CueBigramLM,
    GenerationConfig,
    LabelId,
    TemplateSet,
    augment_notes,
    generate,
    generate_pair,
    instantiate_template,
    read_pairs,
    select_terms,
    self_debias_step,
    suppressed_scores,
    validate_terms,
    write_pairs,
)
from notesum.corpus import ProgressNote
from notesum.errors import ConfigurationError, DataError, ParseError


def test_exactly_three_labels_exist():
    assert {label.value for label in LabelId} == {1.0, 0.5, 0.0}
    assert LabelId.from_value(0.5) is LabelId.SOMEWHAT_SIMILAR
    assert LabelId.from_value(1) is LabelId.SAME_THING
    # a label is a JSON number: true and "0.5" are none
    for value in (True, "0.5", 2):
        with pytest.raises(DataError):
            LabelId.from_value(value)


def test_generation_config_reports_every_problem():
    for lam in (-1.0, float("nan"), float("inf")):
        with pytest.raises(ConfigurationError) as exc:
            GenerationConfig(max_output_tokens=0, lam=lam, top_k=0)
        assert [p.split(":")[0] for p in exc.value.problems] == [
            "max_output_tokens",
            "lam",
            "top_k",
        ]


def test_default_prompt_instantiation_is_byte_exact():
    templates = TemplateSet.defaults()
    prompt = instantiate_template(
        templates[LabelId.SAME_THING, 2],
        ["CPAP", "sat drifts"],
        "pt on CPAP overnight with sat drifts .",
    )
    assert prompt == (
        "Write two sentences that mean the same thing but keep these two "
        "healthcare terms CPAP,sat drifts. "
        "Sentence 1: pt on CPAP overnight with sat drifts . Sentence 2:"
    )


def test_placeholder_text_in_the_source_stays_literal():
    templates = TemplateSet.defaults()
    prompt = instantiate_template(
        templates[LabelId.SAME_THING, 1], ["cpap"], "note says [Term 1] here"
    )
    assert prompt == (
        "Write two sentences that mean the same thing but keep this healthcare "
        "term cpap. Sentence 1: note says [Term 1] here Sentence 2:"
    )


def test_different_topics_template_instantiates():
    templates = TemplateSet.defaults()
    prompt = instantiate_template(
        templates[LabelId.DIFFERENT_TOPICS, 0], [], "pt stable ."
    )
    assert "different topics" in prompt
    assert prompt.endswith("Sentence 2:")


def test_packaged_templates_fill_every_slot_and_follow_the_protocol():
    # one file per (label, term count) slot, and no other file
    folder = Path(augment.__file__).parent / "templates"
    assert sorted(p.name for p in folder.iterdir()) == sorted(
        f"label{tag}_terms{n}.txt" for tag in ("1", "0.5", "0") for n in range(MAX_REQUIRED_TERMS + 1)
    )
    templates = TemplateSet.defaults()
    for label in LabelId:
        for n in range(MAX_REQUIRED_TERMS + 1):
            text = templates[label, n]
            # the term placeholders match the slot's term count
            assert (TERM_1 in text, TERM_2 in text) == (n >= 1, n >= 2), (label, n)
            assert text.count(SOURCE) == 1, (label, n)


def test_templates_must_end_at_the_continuation_point():
    # decoding continues the prompt at its end
    templates = TemplateSet.defaults()
    for label in LabelId:
        for n in range(MAX_REQUIRED_TERMS + 1):
            assert templates[label, n].endswith("Sentence 2:"), (label, n)


def test_same_thing_template_must_keep_terms():
    # a SAME_THING rewrite with terms must be told to keep them
    templates = TemplateSet.defaults()
    for n in range(1, MAX_REQUIRED_TERMS + 1):
        assert "keep" in templates[LabelId.SAME_THING, n].lower(), n


# text with no "[", so no placeholder can come from a term or the source
unbracketed = st.text(st.characters(exclude_characters="["), max_size=20)


@given(st.sampled_from(list(LabelId)), st.integers(0, MAX_REQUIRED_TERMS), st.data())
def test_each_slot_filled_with_its_own_term_count_leaves_no_placeholder(label, n, data):
    terms = data.draw(st.lists(unbracketed, min_size=n, max_size=n))
    source = data.draw(unbracketed)
    text = TemplateSet.defaults()[label, n]
    prompt = instantiate_template(text, terms, source)
    assert "[" not in prompt
    expected = text.replace(SOURCE, source)
    for placeholder, term in zip((TERM_1, TERM_2), terms):
        expected = expected.replace(placeholder, term)
    assert prompt == expected


# ---------------------------------------------------------------------------
# term selection


def test_shared_phrase_is_selected():
    got = select_terms("worsening heart failure overnight", "heart failure; anemia")
    assert got == ["heart failure"]


def test_no_shared_terms():
    assert select_terms("resting comfortably", "heart failure") == []


def test_three_shared_terms_keep_two_longest():
    source = "atrial fibrillation with heart failure and anemia"
    problems = "anemia\natrial fibrillation\nheart failure"
    got = select_terms(source, problems)
    assert got == ["atrial fibrillation", "heart failure"]


def test_a_term_never_runs_across_two_problems():
    assert select_terms("chest pain fever noted .", "chest pain\nfever") == [
        "chest pain",
        "fever",
    ]


def test_term_surface_keeps_source_casing():
    got = select_terms("on CPAP overnight", "needs cpap")
    assert got == ["CPAP"]


# ---------------------------------------------------------------------------
# self-debiasing arithmetic


def test_hand_computed_debias_step():
    out = self_debias_step(np.array([0.6, 0.4]), [np.array([0.1, 0.9])], 1.0)
    assert out.tolist() == [1.0, 0.0]


def test_zero_strength_is_identity():
    p = np.array([0.3, 0.25, 0.45])
    out = self_debias_step(p, [np.array([0.9, 0.05, 0.05])], 0.0)
    assert np.array_equal(out, p)


def test_full_overlap_falls_back_to_target():
    p = np.array([0.5, 0.5])
    out = self_debias_step(p, [p.copy()], 1.0)
    assert np.array_equal(out, p)


def test_dimension_mismatch_rejected():
    with pytest.raises(ValueError):
        self_debias_step(np.array([0.5, 0.5]), [np.array([1.0, 0.0, 0.0])], 1.0)


distributions = arrays(
    np.float64,
    st.integers(min_value=2, max_value=6),
    elements=st.floats(min_value=0.001, max_value=1.0),
).map(lambda x: x / x.sum())


@given(st.data())
def test_output_is_always_a_distribution(data):
    p = data.draw(distributions)
    counters = [
        data.draw(arrays(np.float64, p.shape, elements=st.floats(0.001, 1.0)).map(lambda x: x / x.sum()))
        for _ in range(data.draw(st.integers(1, 3)))
    ]
    lam = data.draw(st.floats(min_value=0.0, max_value=5.0))
    out = self_debias_step(p, counters, lam)
    assert (out >= 0).all()
    assert abs(out.sum() - 1.0) < 1e-9
    # a (k, V) counter array is the same input as a list of k vectors
    stacked = np.stack(counters)
    assert self_debias_step(p, stacked, lam).tobytes() == out.tobytes()
    assert suppressed_scores(p, stacked, lam).tobytes() == suppressed_scores(p, counters, lam).tobytes()


@given(st.data())
def test_unnormalized_scores_never_grow_with_lambda(data):
    p = data.draw(distributions)
    counter = data.draw(
        arrays(np.float64, p.shape, elements=st.floats(0.001, 1.0)).map(lambda x: x / x.sum())
    )
    lams = sorted(data.draw(st.tuples(st.floats(0, 3), st.floats(0, 3))))
    low = suppressed_scores(p, [counter], lams[0])
    high = suppressed_scores(p, [counter], lams[1])
    countered = counter > 0
    assert (high[countered] <= low[countered] + 1e-12).all()


# ---------------------------------------------------------------------------
# toy language model + decoding


def make_lm(designated_weight=0.5):
    vocab = ["improving", "overnight", "stable", "weather", "done."]
    cues = {"same", "different"}
    table = {}
    contexts = vocab + [":"]
    for prev in contexts:
        table[("same", prev)] = {
            "improving": 1.0,
            "overnight": 0.8,
            "stable": 0.6,
            "weather": designated_weight,
            "done.": 0.2,
        }
        table[("different", prev)] = {"weather": 100.0, "stable": 0.5}
    return CueBigramLM(vocab, table, cues=cues)


def test_toy_lm_emits_valid_distributions():
    lm = make_lm()
    for prefix in (["same", ":"], ["different", ":"], ["unseen"]):
        dist = lm.next_token_distribution(prefix)
        assert (dist >= 0).all()
        assert abs(dist.sum() - 1.0) < 1e-9


def test_counter_top_token_is_suppressed_at_full_strength():
    lm = make_lm()
    cfg = GenerationConfig(max_output_tokens=6, lam=1.0)
    text = generate(lm, "paraphrase same :", ["contrast different :"], cfg)
    assert "weather" not in text.split()


def test_designated_token_wins_without_debiasing():
    # at lambda 0 the counter has no influence, so a target table that
    # ranks the designated token first emits it immediately
    lm = make_lm(designated_weight=5.0)
    cfg = GenerationConfig(max_output_tokens=6, lam=0.0)
    text = generate(lm, "paraphrase same :", ["contrast different :"], cfg)
    assert text.split()[0] == "weather"


def test_zero_lambda_greedy_equals_plain_greedy():
    lm = make_lm()
    cfg = GenerationConfig(max_output_tokens=8, lam=0.0)
    with_counters = generate(lm, "paraphrase same :", ["contrast different :"], cfg)
    without = generate(lm, "paraphrase same :", [], cfg)
    assert with_counters == without


def test_output_cap_of_one_token():
    lm = make_lm()
    cfg = GenerationConfig(max_output_tokens=1)
    text = generate(lm, "paraphrase same :", [], cfg)
    assert len(text.split()) == 1


def test_generation_stops_at_sentence_final_punctuation():
    vocab = ["ok", "done."]
    lm = CueBigramLM(vocab, {(None, "ok"): {"done.": 1.0}, (None, ":"): {"ok": 1.0}})
    cfg = GenerationConfig(max_output_tokens=40)
    assert generate(lm, "start :", [], cfg) == "ok done."


def test_sampling_is_deterministic_under_a_seed():
    lm = make_lm()
    cfg = GenerationConfig(max_output_tokens=10, greedy=False, top_k=3, seed=11)
    a = generate(lm, "paraphrase same :", ["contrast different :"], cfg)
    b = generate(lm, "paraphrase same :", ["contrast different :"], cfg)
    assert a == b


def backend_row(ids, probs, rest):
    return np.array(ids, dtype=np.intp), np.array(probs, dtype=float), rest


# rows over the vocabulary [a, b]
GOOD_ROW = backend_row([0], [0.9], 0.1)


class RowLM:
    """Gives ``target`` for the first prefix and ``counter`` for every other."""

    def __init__(self, counter, target=GOOD_ROW):
        self.counter, self.target = counter, target

    def vocabulary(self):
        return ["a", "b"]

    def next_token_rows(self, prefixes):
        return [self.target] + [self.counter] * (len(prefixes) - 1)


def test_unsigned_ids_decode_like_signed_ones():
    # uint64 target ids beside intp counter ids
    unsigned = (np.array([0], dtype=np.uint64), np.array([0.9]), 0.1)
    counter = backend_row([1], [0.6], 0.4)
    for greedy in (True, False):
        cfg = GenerationConfig(max_output_tokens=4, greedy=greedy, lam=0.5, seed=3)
        expected = generate(RowLM(counter), "x", ["y z"], cfg)
        assert generate(RowLM(counter, target=unsigned), "x", ["y z"], cfg) == expected


def dense_reference_row(vocab, table, cues, prefix):
    """The dense formula: smoothed row, += each weight, / row.sum()."""
    ids = {w: i for i, w in enumerate(vocab)}
    cue = next((t for t in reversed(prefix) if t in cues), None)
    prev = prefix[-1] if prefix else ""
    for key in ((cue, prev), (None, prev), (None, "")):
        if key in table:
            row = np.full(len(vocab), BIGRAM_SMOOTHING, dtype=float)
            for token, weight in table[key].items():
                row[ids[token]] += float(weight)
            return row / row.sum()
    return np.full(len(vocab), 1.0 / len(vocab))


@st.composite
def bigram_tables(draw, max_weight=100.0):
    vocab = [f"w{i}" for i in range(draw(st.integers(1, 12)))]
    cues = draw(st.sets(st.sampled_from(["c0", "c1", "w0"])))
    weights = st.dictionaries(
        st.sampled_from(vocab),
        st.one_of(st.integers(0, 50), st.floats(0.0, max_weight, allow_nan=False)),
    )
    keys = st.tuples(st.sampled_from([None, *sorted(cues)]), st.sampled_from(["", ":", *vocab]))
    table = draw(st.dictionaries(keys, weights, max_size=12))
    tokens = st.sampled_from([*vocab, "c0", "c1", ":", "unseen"])
    prefixes = draw(st.lists(st.lists(tokens, max_size=5), min_size=1, max_size=4))
    return vocab, table, cues, prefixes


@given(bigram_tables())
def test_sparse_rows_equal_the_dense_formula_byte_for_byte(case):
    vocab, table, cues, prefixes = case
    lm = CueBigramLM(vocab, table, cues=cues)
    rows = lm.next_token_rows(prefixes)
    assert len(rows) == len(prefixes)
    for prefix, (ids, probs, rest) in zip(prefixes, rows):
        dist = lm.next_token_distribution(prefix)
        assert dist.tobytes() == dense_reference_row(vocab, table, cues, prefix).tobytes()
        # a row's ids ascend, and it densifies to the same bytes
        assert ids.dtype == np.intp and (ids[1:] > ids[:-1]).all()
        dense = np.full(len(vocab), rest)
        dense[ids] = probs
        assert dense.tobytes() == dist.tobytes()


def test_last_cue_wins_and_contexts_fall_back_in_order():
    vocab = ["a", "b", "c", "d", "p", "q"]
    table = {
        ("c2", "p"): {"a": 100.0},
        ("c1", "p"): {"b": 100.0},
        (None, "p"): {"c": 100.0},
        (None, ""): {"d": 100.0},
    }
    cues = {"c1", "c2"}
    lm = CueBigramLM(vocab, table, cues=cues)
    cases = [
        (["c1", "x", "c2", "p"], "a"),  # (c2, p): the last cue wins
        (["c2", "c1", "p"], "b"),  # (c1, p)
        (["c1", "c2", "q", "p"], "a"),  # a cue need not be the previous token
        (["c1", "x", "q"], "d"),  # (c1, q) and (None, q) unseen: (None, "")
        (["p"], "c"),  # no cue: (None, p)
        ([], "d"),  # empty prefix: (None, "")
    ]
    for prefix, top in cases:
        dist = lm.next_token_distribution(prefix)
        assert vocab[int(dist.argmax())] == top, prefix
        assert dist.tobytes() == dense_reference_row(vocab, table, cues, prefix).tobytes()
    # an unseen (cue, prev) falls back to (None, prev); a model without
    # (None, "") ends at uniform
    lm = CueBigramLM(vocab, {(None, "p"): {"c": 1.0}}, cues={"c3"})
    assert vocab[int(lm.next_token_distribution(["c3", "p"]).argmax())] == "c"
    assert lm.next_token_distribution(["c3", "q"]).tolist() == [1 / len(vocab)] * len(vocab)
    # without cues, cue-keyed contexts are never reached
    lm = CueBigramLM(vocab, table)
    for prefix in (["c2", "p"], ["c1", "p"]):
        assert vocab[int(lm.next_token_distribution(prefix).argmax())] == "c"
        assert lm.next_token_distribution(prefix).tobytes() == (
            dense_reference_row(vocab, table, set(), prefix).tobytes()
        )


def test_table_token_outside_the_vocabulary_is_rejected():
    with pytest.raises(ConfigurationError, match="'b' not in vocabulary"):
        CueBigramLM(["a"], {(None, "a"): {"a": 1.0, "b": 1.0}})


@pytest.mark.parametrize("weight", [-1.0, -1e-300, float("nan"), float("inf"), float("-inf")])
def test_invalid_table_weight_is_rejected_naming_context_and_token(weight):
    table = {(None, ""): {"a": 1.0}, ("c", "a"): {"a": 2.0, "b": weight}}
    with pytest.raises(ConfigurationError, match=r"for token 'b' after context \('c', 'a'\)"):
        CueBigramLM(["a", "b"], table, cues={"c"})


def smoothed_row_sums(vocab, table):
    """Each context's dense smoothed row sum, inf where it overflows."""
    ids = {w: i for i, w in enumerate(vocab)}
    sums = []
    for weights in table.values():
        row = np.full(len(vocab), BIGRAM_SMOOTHING)
        row[[ids[t] for t in weights]] += [float(w) for w in weights.values()]
        with np.errstate(over="ignore"):
            sums.append(row.sum())
    return np.array(sums)


# weights up to 1e308, so that two of them overflow a row sum
@given(bigram_tables(max_weight=1e308))
def test_every_row_is_a_distribution_or_the_build_is_rejected(case):
    vocab, table, cues, prefixes = case
    if not np.isfinite(smoothed_row_sums(vocab, table)).all():
        with pytest.raises(ConfigurationError, match="sum past the largest float"):
            CueBigramLM(vocab, table, cues=cues)
        return
    lm = CueBigramLM(vocab, table, cues=cues)
    size = len(vocab)
    # the drawn prefixes, and one reaching each context of the table
    prefixes += [[token for token in key if token] for key in table]
    for ids, probs, rest in lm.next_token_rows(prefixes):
        assert ids.ndim == 1 and ids.dtype == np.intp
        assert (ids[1:] > ids[:-1]).all() and (ids >= 0).all() and (ids < size).all()
        assert probs.shape == ids.shape
        assert np.isfinite(probs).all() and (probs >= 0).all()
        assert math.isfinite(rest) and rest >= 0
        assert abs(probs.sum() + rest * (size - len(ids)) - 1.0) <= 1e-9


def test_a_row_sum_past_the_largest_float_is_rejected_at_build():
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # and no overflow warning on the way
        with pytest.raises(ConfigurationError, match=r"after context \(None, ''\) sum past"):
            CueBigramLM(["a", "b"], {(None, ""): {"a": 1e308, "b": 1e308}})


def per_context_rows(vocab, table):
    """The table built one context at a time: each context's dense
    smoothed row filled and summed on its own."""
    vocab = tuple(dict.fromkeys(vocab))
    ids = {w: i for i, w in enumerate(vocab)}
    rows = {}
    dense = np.empty(len(vocab))
    for key, weights in table.items():
        row_ids = np.array([ids[token] for token in weights], dtype=np.intp)
        dense.fill(BIGRAM_SMOOTHING)
        dense[row_ids] += np.array([float(w) for w in weights.values()])
        z = dense.sum()
        row_ids.sort()
        rows[key] = (row_ids, dense[row_ids] / z, BIGRAM_SMOOTHING / z)
    return rows


def counted_table(sentences):
    """from_corpus's vocabulary and table, counted with Counters."""
    counts, starts, vocab = defaultdict(Counter), Counter(), set()
    for sentence in sentences:
        tokens = sentence.split()
        vocab.update(tokens)
        if tokens:
            starts[tokens[0]] += 1
        for prev, nxt in zip(tokens, tokens[1:]):
            counts[prev][nxt] += 1
    table = {(None, prev): dict(nxts) for prev, nxts in counts.items()}
    table[(None, "")] = dict(starts)
    return sorted(vocab), table


def assert_rows_equal(lm, reference):
    """Each context's stored row has the bytes of the reference row. The
    prefix [cue, prev], [prev] or [] resolves to (cue, prev), (None, prev)
    or (None, "") when no vocabulary token is a cue."""
    prefixes = [[token for token in key if token] for key in reference]
    for prefix, got, want in zip(prefixes, lm.next_token_rows(prefixes), reference.values()):
        assert got[0].dtype == np.intp, prefix
        for got_part, want_part in zip(got, want):
            assert np.asarray(got_part).tobytes() == np.asarray(want_part).tobytes(), prefix


# Vocabularies above 128 tokens make NumPy's pairwise sum recurse, and more
# contexts than the 2**17 // V rows of one normalizing block leave the last
# block partial: row sums keep the bits of the one-vector sum through both.
@settings(max_examples=20, deadline=None)
@given(size=st.integers(450, 900), per_row=st.integers(1, 60), seed=st.integers(0, 2**32 - 1))
def test_table_build_equals_the_per_context_loop(size, per_row, seed):
    rng = np.random.default_rng(seed)
    vocab = [f"w{i}" for i in rng.permutation(size)]
    # half the draws uniform, half Zipfian, so that some bigrams recur
    zipf = 1.0 / np.arange(1, size + 1)
    p = 0.5 / size + 0.5 * zipf / zipf.sum()
    sentences = [" ".join(rng.choice(vocab, rng.integers(0, 21), p=p)) for _ in range(300)]
    corpus_vocab, table = counted_table(sentences)
    assert len(table) > 2**17 // len(corpus_vocab)
    lm = CueBigramLM.from_corpus(sentences)
    assert list(lm.vocabulary()) == corpus_vocab
    assert_rows_equal(lm, per_context_rows(corpus_vocab, table))

    keys = [(None, "")] + [(cue, w) for cue in (None, "c0", "c1") for w in vocab if rng.random() < 0.5]
    table = {}
    for k in rng.permutation(len(keys)).tolist():
        tokens = rng.choice(vocab, rng.integers(0, per_row + 1), replace=False).tolist()
        counts = rng.integers(0, 50, len(tokens)).tolist()
        scaled = (rng.random(len(tokens)) * 10.0 ** rng.integers(-3, 4, len(tokens))).tolist()
        table[keys[k]] = dict(zip(tokens, counts if rng.random() < 0.5 else scaled))
    assert len(table) > 2**17 // size
    lm = CueBigramLM(vocab + vocab[:3], table, cues={"c0", "c1"})
    assert_rows_equal(lm, per_context_rows(vocab, table))


def test_bigram_table_memory_grows_with_observed_bigrams():
    rng = random.Random(3)
    words = [f"w{i}" for i in range(3000)]
    sentences = [" ".join(rng.choice(words) for _ in range(12)) for _ in range(2000)]
    tracemalloc.start()
    try:
        lm = CueBigramLM.from_corpus(sentences)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(lm.vocabulary()) > 2500
    assert peak < 16 * 2**20


def reference_decode(lm, prompts, cfg):
    """Self-debiased decoding from one dense next_token_distribution call
    per prefix and step, sampling from the generator ``generate`` seeds."""
    vocab = lm.vocabulary()
    rng = np.random.default_rng(cfg.seed)
    prefixes = [p.split() for p in prompts]
    emitted = []
    for _ in range(cfg.max_output_tokens):
        p_t = lm.next_token_distribution(prefixes[0] + emitted)
        scores = p_t
        if len(prefixes) > 1:
            p_c = np.max([lm.next_token_distribution(p + emitted) for p in prefixes[1:]], axis=0)
            scores = np.maximum(0.0, p_t - cfg.lam * p_c)
        dist = p_t if scores.sum() <= 0.0 else scores / scores.sum()
        if cfg.greedy:
            choice = int(np.argmax(dist))
        else:
            if cfg.top_k is not None and cfg.top_k < len(vocab):
                keep = np.argsort(dist)[::-1][: cfg.top_k]
                top = np.zeros_like(dist)
                top[keep] = dist[keep]
                dist = top / top.sum()
            choice = int(rng.choice(len(vocab), p=dist))
        emitted.append(vocab[choice])
        if emitted[-1].endswith((".", "!", "?")):
            break
    return " ".join(emitted)


@pytest.mark.parametrize("lam", [0.0, 0.5, 1.0, 2.5])
@pytest.mark.parametrize("mode", ["greedy", "sampled", "top-k"])
@given(case=bigram_tables(), seed=st.integers(0, 2**16), top_k=st.integers(1, 4))
def test_generate_matches_the_reference_decoder_on_drawn_tables(lam, mode, case, seed, top_k):
    # the cues make target and counter rows that differ, overlap or are
    # disjoint; empty and uniform rows are among them
    vocab, table, cues, prefixes = case
    lm = CueBigramLM(vocab, table, cues=cues)
    prompts = [" ".join(prefix) for prefix in prefixes]
    cfg = GenerationConfig(
        max_output_tokens=6,
        lam=lam,
        greedy=mode == "greedy",
        top_k=top_k if mode == "top-k" else None,
        seed=seed,
    )
    assert generate(lm, prompts[0], prompts[1:], cfg) == reference_decode(lm, prompts, cfg)


@pytest.mark.parametrize("lam", [0.0, 0.5, 1.0])
@pytest.mark.parametrize(
    "lm, prompts",
    [
        # target and counters resolve to different contexts; the two
        # counters share one
        (make_lm(), ["paraphrase same :", "contrast different :", "other different :"]),
        # no cues: every prompt resolves to the one context of its last token
        (
            CueBigramLM.from_corpus(["pt stable overnight .", "pt improving on cpap .", "cpap stable ."]),
            ["same thing : pt", "similar : pt", "topics : pt"],
        ),
    ],
    ids=["distinct-keys", "shared-key"],
)
def test_generate_matches_a_per_prefix_reference_decoder(lm, prompts, lam):
    cfg = GenerationConfig(max_output_tokens=12, lam=lam)
    assert generate(lm, prompts[0], prompts[1:], cfg) == reference_decode(lm, prompts, cfg)


def test_full_support_rows_that_clamp_to_zero_fall_back_to_the_target():
    # two rows on one ids array that covers the vocabulary, in one ratio:
    # at lam 1 every score clamps to 0, while the rows' off-support values,
    # which no token takes, differ
    ids = np.array([0, 1], dtype=np.intp)
    lm = RowLM((ids, np.array([0.3, 0.7]), 0.1), target=(ids, np.array([0.3, 0.7]), 0.7))
    for greedy in (True, False):
        cfg = GenerationConfig(max_output_tokens=4, greedy=greedy, seed=3)
        assert generate(lm, "x", ["y z"], cfg) == generate(lm, "x", [], cfg)


def test_bigram_lm_trains_from_corpus():
    lm = CueBigramLM.from_corpus(["pt stable overnight .", "pt improving ."])
    dist = lm.next_token_distribution(["pt"])
    vocab = list(lm.vocabulary())
    assert vocab[int(np.argmax(dist))] in {"stable", "improving"}


# ---------------------------------------------------------------------------
# validation + end-to-end pair generation


def test_validate_terms_accepts_case_insensitively():
    assert validate_terms("pt remains on CPAP", ["cpap"])


def test_validate_terms_rejects_missing():
    assert not validate_terms("pt improving", ["CPAP"])


def test_validate_terms_vacuous_without_terms():
    assert validate_terms("anything", [])


class EchoLM:
    """Emits the tokens after 'Sentence 1:' in the prompt, then stops."""

    def __init__(self, vocab):
        self._vocab = list(dict.fromkeys(vocab + ["."]))

    def vocabulary(self):
        return self._vocab

    def _row(self, prefix):
        marker = [i for i, t in enumerate(prefix) if t == "1:"]
        emitted_after = prefix[prefix.index("2:") + 1 :] if "2:" in prefix else []
        if marker:
            source = prefix[marker[0] + 1 :]
            source = source[: source.index("Sentence")] if "Sentence" in source else source
            idx = len(emitted_after)
            token = source[idx] if idx < len(source) else "."
        else:
            token = "."
        return backend_row([self._vocab.index(token)], [1.0], 0.0)

    def next_token_rows(self, prefixes):
        return [self._row(p) for p in prefixes]


def test_generate_pair_keeps_required_terms():
    source = "pt stable on cpap overnight ."
    lm = EchoLM(source.split() + "Sentence 1: 2: same thing somewhat similar topics".split())
    pair = generate_pair(
        lm,
        source,
        "cpap\nanemia",
        TemplateSet.defaults(),
        GenerationConfig(max_output_tokens=10, lam=0.0),
        doc_id="d1",
    )
    assert pair is not None
    assert pair.required_terms == ["cpap"]
    assert "cpap" in pair.generated


def test_augment_notes_is_deterministic(tmp_path):
    notes = [
        ProgressNote(
            doc_id=f"d{i}",
            assessment="pt stable on cpap overnight . needs monitoring .",
            subjective="s",
            objective="o",
            summary="cpap dependence",
        )
        for i in range(3)
    ]
    lm = CueBigramLM.from_corpus([n.assessment for n in notes] + [n.summary for n in notes])
    cfg = GenerationConfig(max_output_tokens=8, seed=5)
    runs = []
    for _ in range(2):
        pairs = list(augment_notes(notes, lm, TemplateSet.defaults(), cfg))
        runs.append([(p.doc_id, p.source, p.generated) for p in pairs])
    assert runs[0] == runs[1]


def test_pairs_file_round_trip(tmp_path):
    pairs = [
        aug_pair("d1", "src one", "gen one", ["cpap"]),
        aug_pair("d2", "src two", "gen two", []),
    ]
    path = tmp_path / "pairs.jsonl"
    assert write_pairs(pairs, path) == 2
    loaded = list(read_pairs(path))
    assert [(p.doc_id, p.source, p.generated, p.required_terms) for p in loaded] == [
        ("d1", "src one", "gen one", ["cpap"]),
        ("d2", "src two", "gen two", []),
    ]
    assert loaded[0].label is LabelId.SAME_THING


@pytest.mark.parametrize("score", ["NaN", "Infinity", "-Infinity"])
def test_a_non_finite_pair_score_is_rejected_naming_its_line(tmp_path, score):
    record = {"source": "a", "generated": "b", "label": 1, "scores": {"combined": float(score)}}
    with pytest.raises(DataError, match="map of finite numbers"):
        augment.GeneratedPair.from_record(record)
    # Python's JSON reader reads NaN and Infinity as floats
    path = tmp_path / "pairs.jsonl"
    good = aug_pair("d1", "src", "gen", []).to_record()
    path.write_text(json.dumps(good) + "\n" + json.dumps(record) + "\n", encoding="utf-8")
    assert score in path.read_text(encoding="utf-8")
    with pytest.raises(ParseError, match=f"{path}:2: .*finite numbers"):
        list(read_pairs(path))


def aug_pair(doc_id, source, generated, terms):
    from notesum.augment import GeneratedPair

    return GeneratedPair(
        source=source,
        generated=generated,
        label=LabelId.SAME_THING,
        required_terms=terms,
        scores={"combined": 0.5},
        doc_id=doc_id,
    )
