"""Concept masking with numbered sentinel targets.

Per sentence, one of three policies applies: mask the first channel's
entity spans with probability ``p_umls`` when both channels found
entities, mask the only populated channel deterministically when one did,
or mask the whole sentence with probability ``p_sentence`` when neither
did. Masked regions are replaced left-to-right by numbered sentinel
tokens; the target interleaves the dropped text with the same sentinels
and closes with a terminator sentinel, so splicing the target back into
the input reproduces the document byte-exactly.
"""

from __future__ import annotations

import enum
import re
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .annotation import AnnotatedSentence, EntitySpan, UMLS_CHANNEL, I2B2_CHANNEL
from .errors import ConfigurationError, DataError, InternalError

# T5's span-corruption sentinels (Raffel et al. 2020), numbered from 0.
SENTINEL_FORMAT = "<extra_id_{i}>"
SENTINEL_RE = re.compile(r"<extra_id_(\d+)>")

# Spans on the same channel closer than this many gap tokens are merged,
# avoiding degenerate zero/one-token unmasked gaps.
MERGE_GAP_TOKENS = 2


class MaskKind(enum.Enum):
    MASK_UMLS_SPANS = "umls_spans"
    MASK_I2B2_SPANS = "i2b2_spans"
    MASK_WHOLE_SENTENCE = "whole_sentence"
    NO_MASK = "no_mask"


@dataclass(frozen=True)
class MaskPolicyConfig:
    """Masking probabilities and the corpus seed.

    ``p_umls`` is the probability of masking the UMLS channel when both
    channels found entities; I2B2 takes the other 1 - p_umls.
    ``p_sentence`` is the whole-sentence mask rate for entity-free
    sentences.
    """

    p_umls: float = 0.7
    p_sentence: float = 0.15
    seed: int = 0

    def __post_init__(self):
        problems = []
        for name in ("p_umls", "p_sentence"):
            value = getattr(self, name)
            if not 0.0 <= value <= 1.0:
                problems.append(f"{name}: must be in [0, 1], got {value}")
        if problems:
            raise ConfigurationError(*problems)


@dataclass(frozen=True)
class MaskDecision:
    """The policy's verdict for one sentence."""

    kind: MaskKind
    spans: tuple[EntitySpan, ...] = ()

    def __post_init__(self):
        span_kind = self.kind in (MaskKind.MASK_UMLS_SPANS, MaskKind.MASK_I2B2_SPANS)
        if span_kind and not self.spans:
            raise InternalError(f"{self.kind} decision with no spans")
        if not span_kind and self.spans:
            raise InternalError(f"{self.kind} decision must not carry spans")


@dataclass(frozen=True)
class MaskedExample:
    """One corrupted document and its pseudo-summary target.

    Sentinel indices in ``input_text`` run 0..num_masks-1 left to right;
    ``target_text`` starts with sentinel 0 and ends with the terminator
    sentinel ``num_masks``.
    """

    doc_id: str
    input_text: str
    target_text: str
    num_masks: int


def merge_close_spans(spans: Sequence[EntitySpan], sentence: AnnotatedSentence) -> list[EntitySpan]:
    """Merge same-channel spans separated by fewer than MERGE_GAP_TOKENS
    gap tokens into one span covering the whole stretch."""
    if not spans:
        return []
    ordered = sorted(spans, key=lambda s: s.start)
    merged = [ordered[0]]
    for span in ordered[1:]:
        last = merged[-1]
        if span.start - last.end < MERGE_GAP_TOKENS:
            start, end = last.start, max(last.end, span.end)
            surface = sentence.text[
                sentence.tokens[start].start : sentence.tokens[end - 1].end
            ]
            merged[-1] = EntitySpan(
                start, end, surface, last.channel, max(last.score, span.score)
            )
        else:
            merged.append(span)
    return merged


def choose_mask_source(
    sentence: AnnotatedSentence,
    cfg: MaskPolicyConfig,
    rng: np.random.Generator,
) -> MaskDecision:
    """Apply the three-way masking policy to one sentence.

    Both channels populated: a single Bernoulli(p_umls) draw picks the
    channel and all of its spans are masked. Exactly one populated: that
    channel is taken without consuming a draw. Neither: one
    Bernoulli(p_sentence) draw decides whole-sentence mask vs no mask.
    """
    has_umls = bool(sentence.umls_spans)
    has_i2b2 = bool(sentence.i2b2_spans)
    if has_umls and has_i2b2:
        channel = UMLS_CHANNEL if rng.random() < cfg.p_umls else I2B2_CHANNEL
    elif has_umls:
        channel = UMLS_CHANNEL
    elif has_i2b2:
        channel = I2B2_CHANNEL
    else:
        if rng.random() < cfg.p_sentence:
            return MaskDecision(MaskKind.MASK_WHOLE_SENTENCE)
        return MaskDecision(MaskKind.NO_MASK)
    spans = merge_close_spans(sentence.channel_spans(channel), sentence)
    kind = MaskKind.MASK_UMLS_SPANS if channel == UMLS_CHANNEL else MaskKind.MASK_I2B2_SPANS
    return MaskDecision(kind, tuple(spans))


def apply_mask(
    document: str,
    sentences: Sequence[AnnotatedSentence],
    decisions: Sequence[MaskDecision],
    doc_id: str = "",
) -> MaskedExample:
    """Rewrite ``document`` with sentinel tokens, ``decisions[i]`` for ``sentences[i]``.

    Masked character ranges are replaced in reading order by sentinels
    numbered from 0; whitespace outside the masked ranges is untouched.
    The target concatenates ``sentinel_i + dropped text`` for every mask
    and appends the terminator sentinel.
    """
    if SENTINEL_RE.search(document):
        raise DataError(
            f"document {doc_id!r} already contains sentinel-format text"
        )
    if len(decisions) != len(sentences):
        raise InternalError(f"{len(decisions)} decisions for {len(sentences)} sentences")

    # Collect masked character ranges in reading order.
    ranges: list[tuple[int, int]] = []
    for idx, (sentence, decision) in enumerate(zip(sentences, decisions)):
        if decision.kind is MaskKind.NO_MASK:
            continue
        if decision.kind is MaskKind.MASK_WHOLE_SENTENCE:
            ranges.append((sentence.start, sentence.start + len(sentence.text)))
            continue
        prev_end = -1
        for span in sorted(decision.spans, key=lambda s: s.start):
            if span.start < prev_end:
                raise InternalError(
                    f"overlapping spans in decision for sentence {idx}"
                )
            if span.end > len(sentence.tokens):
                raise InternalError(
                    f"span {span.start}..{span.end} exceeds sentence {idx} tokens"
                )
            prev_end = span.end
            ranges.append(
                (
                    sentence.start + sentence.tokens[span.start].start,
                    sentence.start + sentence.tokens[span.end - 1].end,
                )
            )

    input_parts: list[str] = []
    target_parts: list[str] = []
    cursor = 0
    for i, (start, end) in enumerate(ranges):
        if start < cursor:
            raise InternalError("masked ranges overlap across sentences")
        input_parts.append(document[cursor:start])
        sentinel = SENTINEL_FORMAT.format(i=i)
        input_parts.append(sentinel)
        target_parts.append(sentinel)
        target_parts.append(document[start:end])
        cursor = end
    input_parts.append(document[cursor:])
    target_parts.append(SENTINEL_FORMAT.format(i=len(ranges)))
    return MaskedExample(
        doc_id=doc_id,
        input_text="".join(input_parts),
        target_text=" ".join(target_parts),
        num_masks=len(ranges),
    )


def _sentinel_indices(text: str) -> list[tuple[int, int, int]]:
    """(index, match start, match end) for every sentinel in ``text``."""
    return [(int(m.group(1)), m.start(), m.end()) for m in SENTINEL_RE.finditer(text)]


def reconstruct(input_text: str, target_text: str) -> str:
    """Splice the target's spans back into the input's sentinels.

    Inverse of :func:`apply_mask`; raises DataError when the sentinel
    numbering of the two sides is inconsistent.
    """
    in_marks = _sentinel_indices(input_text)
    tgt_marks = _sentinel_indices(target_text)
    if [i for i, _, _ in in_marks] != list(range(len(in_marks))):
        raise DataError("input sentinels are not numbered 0..n-1 left to right")
    if [i for i, _, _ in tgt_marks] != list(range(len(tgt_marks))):
        raise DataError("target sentinels are not numbered 0..n left to right")
    if len(tgt_marks) != len(in_marks) + 1:
        raise DataError(
            f"sentinel count mismatch: input has {len(in_marks)} masks, "
            f"target has {len(tgt_marks) - 1}"
        )
    spans: list[str] = []
    for (_, _, end), (_, nxt_start, _) in zip(tgt_marks, tgt_marks[1:]):
        spans.append(target_text[end:nxt_start].strip())
    parts: list[str] = []
    cursor = 0
    for span, (_, start, end) in zip(spans, in_marks):
        parts.append(input_text[cursor:start])
        parts.append(span)
        cursor = end
    parts.append(input_text[cursor:])
    return "".join(parts)
