"""Acceptance suite: one test per release criterion, each printing a
PASS/FAIL line (run with ``pytest tests/test_acceptance.py -v -s``).

Everything here runs from scratch on synthetic data with fixed seeds; no
external models or datasets are involved.
"""

import math
import random
import time
from contextlib import contextmanager

import numpy as np
import pytest

from notesum.annotation import (
    I2B2_CHANNEL,
    UMLS_CHANNEL,
    AnnotatedSentence,
    EntitySpan,
    TermDictionary,
)
from notesum.augment import (
    CueBigramLM,
    GenerationConfig,
    generate,
    self_debias_step,
    validate_terms,
)
from notesum.corpus import ProgressNote, build_pretrain_corpus, write_corpus
from notesum.filtering import filter_top_fraction
from notesum.masking import (
    MaskKind,
    MaskPolicyConfig,
    SENTINEL_FORMAT,
    SENTINEL_RE,
    choose_mask_source,
    reconstruct,
)
from notesum.rouge import lcs_length, rouge_l, rouge_n
from notesum.seeding import substream
from notesum.text import tokenize

from conftest import make_note_text


@contextmanager
def criterion(label):
    try:
        yield
    except Exception:
        print(f"\nFAIL {label}")
        raise
    print(f"\nPASS {label}")


def make_documents(count, seed, n_sentences=None):
    rng = random.Random(seed)
    return [
        ProgressNote(doc_id=f"doc-{i:05d}", text=make_note_text(rng, n_sentences))
        for i in range(count)
    ]


def build_examples(notes, umls, i2b2, seed, workers=1):
    examples, stats = build_pretrain_corpus(
        iter(notes), umls, i2b2, MaskPolicyConfig(seed=seed), workers=workers
    )
    return list(examples), stats


def test_criterion_1_masking_round_trip(umls_dict, i2b2_dict):
    with criterion("criterion 1: 1000-document masking round-trip, 0 failures, <10s"):
        notes = make_documents(1000, seed=101)
        cfg = MaskPolicyConfig(seed=7)
        start = time.perf_counter()
        examples, _ = build_pretrain_corpus(iter(notes), umls_dict, i2b2_dict, cfg)
        failures = sum(
            reconstruct(ex.input_text, ex.target_text) != note.text
            for note, ex in zip(notes, examples)
        )
        elapsed = time.perf_counter() - start
        assert failures == 0
        assert elapsed < 10.0, f"round-trip took {elapsed:.1f}s"


def test_criterion_2_policy_frequencies():
    with criterion("criterion 2: channel pick rate in [0.68,0.72], sentence mask rate in [0.13,0.17]"):
        cfg = MaskPolicyConfig()
        tokens = tokenize("alpha beta gamma delta")
        both = AnnotatedSentence(
            text="alpha beta gamma delta",
            tokens=tokens,
            umls_spans=[EntitySpan(0, 1, "alpha", UMLS_CHANNEL, 1.0)],
            i2b2_spans=[EntitySpan(2, 3, "gamma", I2B2_CHANNEL, 1.0)],
        )
        empty = AnnotatedSentence(text="alpha beta gamma delta", tokens=tokens)
        n = 10_000
        rng = substream(123, "acceptance-policy")
        umls_rate = (
            sum(
                choose_mask_source(both, cfg, rng).kind is MaskKind.MASK_UMLS_SPANS
                for _ in range(n)
            )
            / n
        )
        rng = substream(123, "acceptance-sentence")
        sentence_rate = (
            sum(
                choose_mask_source(empty, cfg, rng).kind is MaskKind.MASK_WHOLE_SENTENCE
                for _ in range(n)
            )
            / n
        )
        assert 0.68 <= umls_rate <= 0.72, f"channel rate {umls_rate}"
        assert 0.13 <= sentence_rate <= 0.17, f"sentence rate {sentence_rate}"


def test_criterion_3_sentinel_format(umls_dict, i2b2_dict):
    with criterion("criterion 3: sentinels strictly increasing from 0, terminator present (1000 examples)"):
        notes = make_documents(1000, seed=202)
        cfg = MaskPolicyConfig(seed=3)
        pattern = SENTINEL_RE
        examples, _ = build_pretrain_corpus(iter(notes), umls_dict, i2b2_dict, cfg)
        checked = 0
        for ex in examples:
            input_ids = [int(m.group(1)) for m in pattern.finditer(ex.input_text)]
            target_ids = [int(m.group(1)) for m in pattern.finditer(ex.target_text)]
            assert input_ids == list(range(ex.num_masks))
            assert target_ids == list(range(ex.num_masks + 1))
            assert ex.target_text.endswith(SENTINEL_FORMAT.format(i=ex.num_masks))
            checked += 1
        assert checked == 1000


def test_criterion_4_rouge_oracle():
    with criterion("criterion 4: ROUGE hand values within 1e-6; LCS == DP oracle on 10000 sequences"):
        assert rouge_n("the cat sat", "the cat ate", 1) == pytest.approx(
            (2 / 3, 2 / 3, 2 / 3), abs=1e-6
        )
        assert rouge_n("the cat sat", "the cat ate", 2) == pytest.approx(
            (0.5, 0.5, 0.5), abs=1e-6
        )
        assert rouge_l("the cat sat", "the cat ate") == pytest.approx(
            (2 / 3, 2 / 3, 2 / 3), abs=1e-6
        )

        def dp_oracle(a, b):
            table = [[0] * (len(b) + 1) for _ in range(len(a) + 1)]
            for i in range(len(a)):
                for j in range(len(b)):
                    table[i + 1][j + 1] = (
                        table[i][j] + 1 if a[i] == b[j] else max(table[i][j + 1], table[i + 1][j])
                    )
            return table[-1][-1]

        rng = random.Random(404)
        for _ in range(10_000):
            a = [rng.choice("abcde") for _ in range(rng.randint(0, 12))]
            b = [rng.choice("abcde") for _ in range(rng.randint(0, 12))]
            assert lcs_length(a, b) == dp_oracle(a, b)


def test_criterion_5_self_debias_arithmetic():
    with criterion("criterion 5: debias hand value exact; lambda=0 identity <1e-12; output always a distribution"):
        out = self_debias_step(np.array([0.6, 0.4]), [np.array([0.1, 0.9])], 1.0)
        assert out.tolist() == [1.0, 0.0]
        rng = np.random.default_rng(505)
        worst = 0.0
        for _ in range(1000):
            dim = int(rng.integers(2, 8))
            p = rng.random(dim) + 1e-6
            p /= p.sum()
            counter = rng.random(dim) + 1e-6
            counter /= counter.sum()
            out = self_debias_step(p, [counter], 0.0)
            worst = max(worst, float(np.abs(out - p).max()))
            adjusted = self_debias_step(p, [counter], float(rng.random() * 3))
            assert (adjusted >= 0).all()
            assert abs(adjusted.sum() - 1.0) < 1e-9
        assert worst < 1e-12, f"lambda=0 deviation {worst}"


def test_criterion_6_filter_cardinality():
    with criterion("criterion 6: filter keeps ceil(0.15*n) for n in 1..200, no kept < discarded"):
        rng = np.random.default_rng(606)
        for n in range(1, 201):
            scored = [(i, float(s)) for i, s in enumerate(rng.random(n))]
            kept = filter_top_fraction(scored, 0.15)
            assert len(kept) == math.ceil(0.15 * n)
            kept_scores = [scored[i][1] for i in kept]
            discarded = [s for i, s in scored if i not in set(kept)]
            if discarded:
                assert min(kept_scores) >= max(discarded)


def build_suppression_lm(seed, designated="weather"):
    """Random cue-switched bigram tables where the designated token is the
    counter instruction's top continuation in every context."""
    vocab = ["improving", "overnight", "stable", "monitoring", designated, "done."]
    rng = np.random.default_rng(seed)
    table = {}
    for prev in vocab + [":"]:
        target_row = {tok: 0.5 + float(rng.random()) for tok in vocab}
        target_row[designated] = 0.1 + float(rng.random()) * 0.7  # present but bounded
        counter_row = {tok: float(rng.random()) * 0.5 for tok in vocab}
        counter_row[designated] = 50.0  # unambiguous top continuation
        table[("same", prev)] = target_row
        table[("different", prev)] = counter_row
    return CueBigramLM(vocab, table, cues={"same", "different"})


def test_criterion_7_toy_lm_suppression():
    with criterion("criterion 7: counter-label top token absent from lambda=1 greedy decodes, 100 seeds"):
        cfg = GenerationConfig(max_output_tokens=10, lam=1.0)
        for seed in range(100):
            lm = build_suppression_lm(seed)
            text = generate(lm, "write the same thing :", ["write a different topic :"], cfg)
            assert "weather" not in text.split(), f"seed {seed}: {text}"
        # contrast: without debiasing a target table that favours the token emits it
        relaxed = CueBigramLM(
            ["improving", "weather"],
            {("same", ":"): {"weather": 5.0, "improving": 1.0}},
            cues={"same"},
        )
        text = generate(relaxed, "write the same thing :", [], GenerationConfig(max_output_tokens=1, lam=0.0))
        assert text == "weather"


def test_criterion_8_term_preservation():
    with criterion("criterion 8: all surviving label-1 pairs contain their required terms (500-pair fixture)"):
        rng = random.Random(808)
        terms_pool = ["cpap", "heart failure", "anemia", "sat drifts"]
        fixture = []
        for i in range(500):
            required = rng.sample(terms_pool, rng.randint(0, 2))
            keeps = rng.random() < 0.6
            generated = "pt stable overnight"
            if keeps:
                generated = " ".join([generated] + [t.upper() for t in required])
            elif required:
                generated = f"{generated} {required[0][:3]}"
            fixture.append((generated, required))
        survivors = [
            (generated, required)
            for generated, required in fixture
            if validate_terms(generated, required)
        ]
        assert survivors, "fixture produced no survivors"
        for generated, required in survivors:
            lowered = generated.lower()
            assert all(term.lower() in lowered for term in required)


def test_criterion_9_corpus_stats_integrity(umls_dict, i2b2_dict):
    with criterion("criterion 9: 3-note fixture stats equal hand counts"):
        notes = [
            ProgressNote(doc_id="n1", text="pt with heart failure on lasix ."),
            ProgressNote(doc_id="n2", text="history of anemia noted ."),
            ProgressNote(doc_id="n3", text="resting comfortably this morning ."),
        ]
        examples, stats = build_pretrain_corpus(
            iter(notes), umls_dict, i2b2_dict, MaskPolicyConfig(seed=5)
        )
        assert len(list(examples)) == 3
        assert (
            stats.total_rows,
            stats.rows_no_umls,
            stats.rows_no_i2b2,
            stats.rows_no_entities,
        ) == (3, 1, 2, 1)
        stats.check()


def test_criterion_10_throughput_and_worker_independence(tmp_path, umls_dict, i2b2_dict):
    with criterion("criterion 10: 10k notes (~100k sentences) in <60s; identical bytes at 1 and 8 workers"):
        notes = make_documents(10_000, seed=909, n_sentences=10)
        single = tmp_path / "single.jsonl"
        start = time.perf_counter()
        examples, stats = build_pretrain_corpus(
            iter(notes), umls_dict, i2b2_dict, MaskPolicyConfig(seed=1), workers=1
        )
        write_corpus(examples, single)
        elapsed = time.perf_counter() - start
        assert stats.sentences_total == 100_000
        assert elapsed < 60.0, f"single-threaded build took {elapsed:.1f}s"

        parallel = tmp_path / "parallel.jsonl"
        examples, _ = build_pretrain_corpus(
            iter(notes), umls_dict, i2b2_dict, MaskPolicyConfig(seed=1), workers=8
        )
        write_corpus(examples, parallel)
        assert single.read_bytes() == parallel.read_bytes()
