"""From-scratch ROUGE-1, ROUGE-2 and ROUGE-LCS.

Texts are lowercased and whitespace-tokenized, without stemming.
Multi-line summaries are scored as one token sequence, i.e. summary-level
LCS rather than sentence-split ROUGE-L.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from typing import NamedTuple, Sequence

PERCENT = 100.0


class PRF(NamedTuple):
    precision: float
    recall: float
    f1: float

    @classmethod
    def from_counts(cls, overlap: float, cand_total: float, ref_total: float) -> "PRF":
        p = overlap / cand_total if cand_total else 0.0
        r = overlap / ref_total if ref_total else 0.0
        f1 = 0.0 if p + r == 0 else 2 * p * r / (p + r)
        return cls(p, r, f1)


@dataclass(frozen=True)
class RougeScore:
    """Precision/recall/F1 triples for ROUGE-1, ROUGE-2 and ROUGE-LCS."""

    r1: PRF
    r2: PRF
    rl: PRF


def _tokens(text: str) -> list[str]:
    return text.lower().split()


def _ngram_prf(cand: Sequence[str], ref: Sequence[str], n: int) -> PRF:
    if len(cand) < n or len(ref) < n:
        return PRF(0.0, 0.0, 0.0)
    shorter, longer = (cand, ref) if len(cand) <= len(ref) else (ref, cand)
    grams = Counter(zip(*(shorter[i:] for i in range(n))))
    # the longer side's n-grams count only where the shorter side has them
    shared = Counter(filter(grams.__contains__, zip(*(longer[i:] for i in range(n)))))
    overlap = sum(min(count, grams[gram]) for gram, count in shared.items())
    return PRF.from_counts(overlap, len(cand) - n + 1, len(ref) - n + 1)


def rouge_n(candidate: str, reference: str, n: int) -> PRF:
    """Clipped n-gram overlap precision/recall/F1.

    Either side shorter than ``n`` tokens scores (0, 0, 0).
    """
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    return _ngram_prf(_tokens(candidate), _tokens(reference), n)


def lcs_length(a: Sequence[str], b: Sequence[str]) -> int:
    """Longest common subsequence length, bit-parallel (Allison & Dix 1986;
    Hyyrö 2004).

    Bit j of a match mask is set where the shorter sequence holds the
    token at position j. One add, subtract and or per token of the longer
    sequence updates the bit-vector of the DP row's steps; the LCS is the
    number of zero bits it ends with, the same integer as the full table.
    """
    if len(b) > len(a):
        a, b = b, a
    if not b:
        return 0
    masks: dict[str, int] = {}
    for j, y in enumerate(b):
        masks[y] = masks.get(y, 0) | 1 << j
    full = (1 << len(b)) - 1
    v = full
    # a token the shorter sequence lacks leaves v as it is
    for m in filter(None, map(masks.get, a)):
        u = v & m
        v = ((v + u) | (v - u)) & full
    return len(b) - v.bit_count()


def rouge_l(candidate: str, reference: str) -> PRF:
    """LCS-based precision/recall/F1 over whole token sequences."""
    cand = _tokens(candidate)
    ref = _tokens(reference)
    return PRF.from_counts(lcs_length(cand, ref), len(cand), len(ref))


def score_summary(candidate: str, reference: str) -> RougeScore:
    """ROUGE-1, ROUGE-2 and ROUGE-LCS of one candidate summary, over one
    tokenization of each side."""
    cand = _tokens(candidate)
    ref = _tokens(reference)
    return RougeScore(
        r1=_ngram_prf(cand, ref, 1),
        r2=_ngram_prf(cand, ref, 2),
        rl=PRF.from_counts(lcs_length(cand, ref), len(cand), len(ref)),
    )


def evaluate_corpus(predictions: Sequence[str], references: Sequence[str]) -> RougeScore:
    """Arithmetic mean of per-pair scores, component by component."""
    if len(predictions) != len(references):
        raise ValueError(
            f"got {len(predictions)} predictions but {len(references)} references"
        )
    if not predictions:
        raise ValueError("cannot evaluate an empty corpus")
    # nine running sums, each added to pair by pair in corpus order
    totals = [0.0] * 9
    for pred, ref in zip(predictions, references):
        score = score_summary(pred, ref)
        for k, value in enumerate((*score.r1, *score.r2, *score.rl)):
            totals[k] += value
    n = len(predictions)
    means = [t / n for t in totals]
    return RougeScore(r1=PRF(*means[0:3]), r2=PRF(*means[3:6]), rl=PRF(*means[6:9]))


def format_table(score: RougeScore) -> str:
    """Render the R-1/R-2/R-L x R-F1/R-P/R-R grid, in percent, as fixed-width text."""
    header = f"{'':6}{'R-1':>8}{'R-2':>8}{'R-L':>8}"
    rows = []
    for label, component in (("R-F1", "f1"), ("R-P", "precision"), ("R-R", "recall")):
        cells = [
            f"{getattr(getattr(score, metric), component) * PERCENT:8.2f}"
            for metric in ("r1", "r2", "rl")
        ]
        rows.append(f"{label:6}" + "".join(cells))
    return "\n".join([header] + rows)
