"""From-scratch ROUGE-1, ROUGE-2 and ROUGE-LCS.

Texts are lowercased and whitespace-tokenized (no stemming unless a
stemmer is passed). Multi-line summaries are scored as one token
sequence, i.e. summary-level LCS rather than sentence-split ROUGE-L.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from typing import Callable, NamedTuple, Optional, Sequence

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


def _tokens(text: str, stemmer: Optional[Callable[[str], str]]) -> list[str]:
    tokens = text.lower().split()
    if stemmer is not None:
        tokens = [stemmer(t) for t in tokens]
    return tokens


def _ngrams(tokens: Sequence[str], n: int) -> Counter:
    return Counter(tuple(tokens[i : i + n]) for i in range(len(tokens) - n + 1))


def rouge_n(
    candidate: str,
    reference: str,
    n: int,
    stemmer: Optional[Callable[[str], str]] = None,
) -> PRF:
    """Clipped n-gram overlap precision/recall/F1.

    Either side shorter than ``n`` tokens scores (0, 0, 0).
    """
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    cand = _tokens(candidate, stemmer)
    ref = _tokens(reference, stemmer)
    if len(cand) < n or len(ref) < n:
        return PRF(0.0, 0.0, 0.0)
    cand_grams = _ngrams(cand, n)
    ref_grams = _ngrams(ref, n)
    overlap = sum((cand_grams & ref_grams).values())
    return PRF.from_counts(overlap, sum(cand_grams.values()), sum(ref_grams.values()))


def lcs_length(a: Sequence[str], b: Sequence[str]) -> int:
    """Longest common subsequence length via a two-row DP table."""
    if not a or not b:
        return 0
    if len(b) > len(a):
        a, b = b, a
    prev = [0] * (len(b) + 1)
    for x in a:
        curr = [0]
        append = curr.append
        for j, y in enumerate(b):
            if x == y:
                append(prev[j] + 1)
            else:
                p = prev[j + 1]
                c = curr[j]
                append(p if p >= c else c)
        prev = curr
    return prev[-1]


def rouge_l(
    candidate: str,
    reference: str,
    stemmer: Optional[Callable[[str], str]] = None,
) -> PRF:
    """LCS-based precision/recall/F1 over whole token sequences."""
    cand = _tokens(candidate, stemmer)
    ref = _tokens(reference, stemmer)
    if not cand or not ref:
        return PRF(0.0, 0.0, 0.0)
    lcs = lcs_length(cand, ref)
    return PRF.from_counts(lcs, len(cand), len(ref))


def score_summary(
    candidate: str,
    reference: str,
    stemmer: Optional[Callable[[str], str]] = None,
) -> RougeScore:
    """ROUGE-1, ROUGE-2 and ROUGE-LCS of one candidate summary."""
    return RougeScore(
        r1=rouge_n(candidate, reference, 1, stemmer),
        r2=rouge_n(candidate, reference, 2, stemmer),
        rl=rouge_l(candidate, reference, stemmer),
    )


def evaluate_corpus(
    predictions: Sequence[str],
    references: Sequence[str],
    stemmer: Optional[Callable[[str], str]] = None,
) -> RougeScore:
    """Arithmetic mean of per-pair scores, component by component."""
    if len(predictions) != len(references):
        raise ValueError(
            f"got {len(predictions)} predictions but {len(references)} references"
        )
    if not predictions:
        raise ValueError("cannot evaluate an empty corpus")
    totals = {(m, c): 0.0 for m in ("r1", "r2", "rl") for c in ("precision", "recall", "f1")}
    for pred, ref in zip(predictions, references):
        score = score_summary(pred, ref, stemmer)
        for metric in ("r1", "r2", "rl"):
            prf = getattr(score, metric)
            for component in ("precision", "recall", "f1"):
                totals[(metric, component)] += getattr(prf, component)
    n = len(predictions)
    means = {k: v / n for k, v in totals.items()}

    def prf(metric: str) -> PRF:
        return PRF(
            means[(metric, "precision")],
            means[(metric, "recall")],
            means[(metric, "f1")],
        )

    return RougeScore(r1=prf("r1"), r2=prf("r2"), rl=prf("rl"))


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


def simple_stem(token: str) -> str:
    """Tiny suffix stripper for the optional stemming flag."""
    for suffix in ("ing", "ed", "s"):
        if token.endswith(suffix) and len(token) - len(suffix) >= 3:
            return token[: -len(suffix)]
    return token
