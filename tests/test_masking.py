import random
import re

import numpy as np
import pytest

from notesum.annotation import (
    I2B2_CHANNEL,
    UMLS_CHANNEL,
    AnnotatedSentence,
    EntitySpan,
    annotate_sentence,
)
from notesum.corpus import ProgressNote, mask_note
from notesum.errors import ConfigurationError, DataError, InternalError
from notesum.masking import (
    MaskDecision,
    MaskKind,
    MaskPolicyConfig,
    MaskedExample,
    SENTINEL_FORMAT,
    apply_mask,
    choose_mask_source,
    merge_close_spans,
    reconstruct,
)
from notesum.text import segment_sentences, tokenize

from conftest import make_note_text


class StubRng:
    """Feeds scripted draws and counts how many were consumed."""

    def __init__(self, values):
        self.values = list(values)
        self.calls = 0

    def random(self):
        self.calls += 1
        return self.values.pop(0)


def annotated(text, umls=(), i2b2=(), index=0, start=0):
    tokens = tokenize(text)

    def spans(ranges, channel):
        return [
            EntitySpan(a, b, " ".join(t.text for t in tokens[a:b]), channel, 1.0)
            for a, b in ranges
        ]

    return AnnotatedSentence(
        text=text,
        tokens=tokens,
        umls_spans=spans(umls, UMLS_CHANNEL),
        i2b2_spans=spans(i2b2, I2B2_CHANNEL),
        start=start,
        end=start + len(text),
        index=index,
    )


# ---------------------------------------------------------------------------
# config


def test_channel_probability_range_checked():
    for p_umls in (1.1, -0.1, float("nan")):
        with pytest.raises(ConfigurationError, match="p_umls: must be in"):
            MaskPolicyConfig(p_umls=p_umls)


def test_sentence_probability_range_checked():
    with pytest.raises(ConfigurationError):
        MaskPolicyConfig(p_sentence=1.5)


def test_default_sentinel_matches_the_published_form():
    assert SENTINEL_FORMAT.format(i=3) == "<extra_id_3>"


# ---------------------------------------------------------------------------
# policy


def test_both_channels_low_draw_takes_umls():
    sentence = annotated("a b c", umls=[(0, 1)], i2b2=[(2, 3)])
    rng = StubRng([0.69])
    decision = choose_mask_source(sentence, MaskPolicyConfig(), rng)
    assert decision.kind is MaskKind.MASK_UMLS_SPANS
    assert [(s.start, s.end) for s in decision.spans] == [(0, 1)]
    assert rng.calls == 1


def test_both_channels_high_draw_takes_i2b2():
    sentence = annotated("a b c", umls=[(0, 1)], i2b2=[(2, 3)])
    decision = choose_mask_source(sentence, MaskPolicyConfig(), StubRng([0.71]))
    assert decision.kind is MaskKind.MASK_I2B2_SPANS


def test_single_channel_is_deterministic_and_consumes_no_draw():
    sentence = annotated("a b c", i2b2=[(1, 2)])
    rng = StubRng([0.99])
    decision = choose_mask_source(sentence, MaskPolicyConfig(), rng)
    assert decision.kind is MaskKind.MASK_I2B2_SPANS
    assert rng.calls == 0


def test_no_entities_high_draw_leaves_sentence_alone():
    sentence = annotated("a b c")
    decision = choose_mask_source(sentence, MaskPolicyConfig(), StubRng([0.15]))
    assert decision.kind is MaskKind.NO_MASK
    assert decision.spans == ()


def test_no_entities_low_draw_masks_whole_sentence():
    sentence = annotated("a b c")
    decision = choose_mask_source(sentence, MaskPolicyConfig(), StubRng([0.1499]))
    assert decision.kind is MaskKind.MASK_WHOLE_SENTENCE


def test_decision_kind_must_match_spans():
    with pytest.raises(InternalError):
        MaskDecision(0, MaskKind.MASK_UMLS_SPANS, ())
    with pytest.raises(InternalError):
        MaskDecision(0, MaskKind.NO_MASK, (EntitySpan(0, 1, "x", UMLS_CHANNEL, 1.0),))


def test_spans_with_tiny_gaps_merge():
    sentence = annotated("a b c d e", umls=[(0, 1), (2, 3)])
    merged = merge_close_spans(sentence.umls_spans, sentence)
    assert [(s.start, s.end) for s in merged] == [(0, 3)]
    assert merged[0].surface == "a b c"


def test_spans_two_tokens_apart_stay_separate():
    sentence = annotated("a b c d e", umls=[(0, 1), (3, 4)])
    merged = merge_close_spans(sentence.umls_spans, sentence)
    assert [(s.start, s.end) for s in merged] == [(0, 1), (3, 4)]


# ---------------------------------------------------------------------------
# rewriting


FIG_DOC = "pt on CPAP overnight . noted sat drifts twice ."


def fig_sentences():
    segs = segment_sentences(FIG_DOC)
    s0 = annotated(segs[0][0], umls=[(2, 3)], index=0, start=segs[0][1])
    s1 = annotated(segs[1][0], i2b2=[(1, 3)], index=1, start=segs[1][1])
    return [s0, s1]


def fig_decisions(sentences):
    return [
        MaskDecision(0, MaskKind.MASK_UMLS_SPANS, tuple(sentences[0].umls_spans)),
        MaskDecision(1, MaskKind.MASK_I2B2_SPANS, tuple(sentences[1].i2b2_spans)),
    ]


def test_two_span_rewrite_matches_hand_application():
    sentences = fig_sentences()
    example = apply_mask(FIG_DOC, sentences, fig_decisions(sentences))
    assert example.input_text == "pt on <extra_id_0> overnight . noted <extra_id_1> twice ."
    assert example.target_text == "<extra_id_0> CPAP <extra_id_1> sat drifts <extra_id_2>"
    assert example.num_masks == 2


def test_zero_mask_document_keeps_terminator_only_target():
    sentence = annotated("a b .")
    example = apply_mask("a b .", [sentence], [MaskDecision(0, MaskKind.NO_MASK)])
    assert example.input_text == "a b ."
    assert example.target_text == "<extra_id_0>"
    assert example.num_masks == 0


def test_whole_sentence_mask_of_single_sentence_document():
    sentence = annotated("sat drifts noted")
    example = apply_mask(
        "sat drifts noted",
        [sentence],
        [MaskDecision(0, MaskKind.MASK_WHOLE_SENTENCE)],
    )
    assert example.input_text == "<extra_id_0>"
    assert example.target_text == "<extra_id_0> sat drifts noted <extra_id_1>"


def test_overlapping_spans_are_an_internal_error():
    sentence = annotated("a b c", umls=[(0, 2)])
    bad = MaskDecision(
        0,
        MaskKind.MASK_UMLS_SPANS,
        (
            EntitySpan(0, 2, "a b", UMLS_CHANNEL, 1.0),
            EntitySpan(1, 3, "b c", UMLS_CHANNEL, 1.0),
        ),
    )
    with pytest.raises(InternalError):
        apply_mask("a b c", [sentence], [bad])


def test_decisions_must_cover_every_sentence():
    sentence = annotated("a b c")
    with pytest.raises(InternalError):
        apply_mask("a b c", [sentence], [])


def test_document_with_sentinel_text_is_rejected():
    text = "already has <extra_id_0> inside"
    sentence = annotated(text)
    with pytest.raises(DataError):
        apply_mask(text, [sentence], [MaskDecision(0, MaskKind.NO_MASK)])


# ---------------------------------------------------------------------------
# reconstruction


def test_reconstruct_inverts_the_fig_example():
    sentences = fig_sentences()
    example = apply_mask(FIG_DOC, sentences, fig_decisions(sentences))
    assert reconstruct(example.input_text, example.target_text) == FIG_DOC


def test_reconstruct_single_splice():
    assert reconstruct("<extra_id_0>", "<extra_id_0> x <extra_id_1>") == "x"


def test_reconstruct_detects_count_mismatch():
    with pytest.raises(DataError):
        reconstruct("a <extra_id_0> b <extra_id_1> c", "<extra_id_0> x <extra_id_1>")


def test_reconstruct_detects_bad_numbering():
    with pytest.raises(DataError):
        reconstruct("a <extra_id_1> b", "<extra_id_0> x <extra_id_1>")


# ---------------------------------------------------------------------------
# whole-pipeline properties


def test_round_trip_on_random_documents(umls_dict, i2b2_dict):
    rng = random.Random(20240501)
    cfg = MaskPolicyConfig(seed=7)
    for i in range(200):
        text = make_note_text(rng)
        note = ProgressNote(doc_id=f"d{i}", text=text)
        example, _, _, _ = mask_note(note, umls_dict, i2b2_dict, cfg)
        assert reconstruct(example.input_text, example.target_text) == text


SENTINEL_RE = re.compile(r"<extra_id_(\d+)>")


def test_sentinel_indices_are_strictly_increasing(umls_dict, i2b2_dict):
    rng = random.Random(99)
    cfg = MaskPolicyConfig(seed=13)
    for i in range(100):
        note = ProgressNote(doc_id=f"d{i}", text=make_note_text(rng))
        example, _, _, _ = mask_note(note, umls_dict, i2b2_dict, cfg)
        in_ids = [int(m) for m in SENTINEL_RE.findall(example.input_text)]
        tgt_ids = [int(m) for m in SENTINEL_RE.findall(example.target_text)]
        assert in_ids == list(range(example.num_masks))
        assert tgt_ids == list(range(example.num_masks + 1))


def test_identical_inputs_produce_identical_examples(umls_dict, i2b2_dict):
    text = make_note_text(random.Random(1))
    cfg = MaskPolicyConfig(seed=21)
    one = mask_note(ProgressNote(doc_id="d", text=text), umls_dict, i2b2_dict, cfg)
    two = mask_note(ProgressNote(doc_id="d", text=text), umls_dict, i2b2_dict, cfg)
    assert one[0] == two[0]


def test_different_seeds_change_the_masking(umls_dict, i2b2_dict):
    texts = [make_note_text(random.Random(i), n_sentences=6) for i in range(20)]
    outs = []
    for seed in (1, 2):
        cfg = MaskPolicyConfig(seed=seed)
        outs.append(
            [
                mask_note(ProgressNote(doc_id=f"d{i}", text=t), umls_dict, i2b2_dict, cfg)[0]
                for i, t in enumerate(texts)
            ]
        )
    assert outs[0] != outs[1]


def test_channel_choice_rate_near_point_seven():
    sentence = annotated("a b c d", umls=[(0, 1)], i2b2=[(2, 3)])
    n = 2000
    for cfg in (MaskPolicyConfig(), MaskPolicyConfig(p_umls=0.6)):
        rng = np.random.default_rng(2024)
        umls_picks = sum(
            choose_mask_source(sentence, cfg, rng).kind is MaskKind.MASK_UMLS_SPANS
            for _ in range(n)
        )
        assert cfg.p_umls - 0.04 <= umls_picks / n <= cfg.p_umls + 0.04


def test_whole_sentence_rate_near_point_fifteen():
    cfg = MaskPolicyConfig()
    rng = np.random.default_rng(2025)
    sentence = annotated("a b c d")
    n = 2000
    masked = sum(
        choose_mask_source(sentence, cfg, rng).kind is MaskKind.MASK_WHOLE_SENTENCE
        for _ in range(n)
    )
    assert 0.11 <= masked / n <= 0.19
