"""Similarity scoring and top-fraction filtering of generated pairs.

Each pair is scored against its source with greedy maximum-cosine token
matching (the BERTScore recipe, minus the frozen transformer) plus an
optional second scorer; the combined score keeps only the best
``keep_fraction`` of the candidates. Token vectors come from a word2vec
text file, or are one-hot: a token's cosine is 1 with itself and 0 with
any other, which is also the rule for a token the file lacks.
"""

from __future__ import annotations

import math
from array import array
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Mapping, Optional, Sequence, Union

import numpy as np

from .errors import ConfigurationError, ParseError
from .jsonl import is_number, open_text
from .text import trigram_jaccard

DEFAULT_KEEP_FRACTION = 0.15
LOAD_BLOCK = 256  # vector lines parsed per np.loadtxt call while a file loads
NORMALIZE_BLOCK = 512  # rows normalized per step while a vector file loads
# The scorers the filter combines, by the names their weights use.
SCORER_NAMES = ("embedding", "trigram")

Scorer = Callable[[str, str], float]


def _line_vector(token, rest, lineno, dim, header, path) -> list[float]:
    """One vector line's components, ``rest`` split on whitespace, by the
    rules every line must pass. A line that breaks one raises a ParseError
    naming it, or naming the header when the first vector's dimension is
    not the header's ``<dim>``."""
    try:
        vec = list(map(float, rest.split()))
    except ValueError:
        vec = None
    where, problem = lineno, None
    if vec is None:
        problem = "non-numeric vector component"
    elif not vec or not all(map(math.isfinite, vec)) or not any(vec):
        problem = f"vector for {token!r} is empty, non-finite or zero"
    elif dim is not None and len(vec) != dim:
        problem = f"vector for {token!r} has dimension {len(vec)}, expected {dim}"
    elif header is not None and len(vec) != header[2]:
        where = header[0]
        problem = f"header gives dimension {header[2]}, vectors have {len(vec)}"
    if problem is not None:
        raise ParseError(problem, path=str(path), line=where)
    return vec


def _parse_block(tokens, rests, linenos, dim, header, path) -> np.ndarray:
    """The vectors of a block of lines as one (lines, dim) matrix.

    NumPy's C reader parses the block at once. A block that it rejects, or
    whose shape or values break a rule, is re-read by :func:`_line_vector`
    line by line: its first bad line raises that line's ParseError, and a
    number only ``float`` reads (``1_0``, non-ASCII digits) loads as it
    would alone. Both parsers round correctly, so the bits are the same.
    """
    if "" not in rests:  # loadtxt skips a blank line, and warns if all are
        try:
            block = np.loadtxt(rests, dtype=np.float64, ndmin=2, comments=None)
        except ValueError:
            pass
        else:
            want = dim or (header[2] if header else block.shape[1])
            if (
                block.shape == (len(rests), want)
                and np.isfinite(block).all()
                and block.any(axis=1).all()
            ):
                return block
    vecs = []
    for token, rest, lineno in zip(tokens, rests, linenos):
        vecs.append(_line_vector(token, rest, lineno, dim, header, path))
        dim = len(vecs[-1])
    return np.array(vecs, dtype=np.float64)


class FileEmbedding:
    """Word vectors in word2vec text format: ``token v1 v2 ...`` per line,
    after an optional ``<count> <dim>`` header line, whose ``<count>``
    must equal the number of vector lines.

    A token listed on more than one line keeps its last vector. The
    vectors are normalized once, at load, into one matrix of unit rows
    whose last row is zero. A token with no vector maps to that row and
    follows the one-hot rule: its cosine is 1 with itself and 0 with
    every other token.
    """

    def __init__(self, path: Union[str, Path]):
        rows: dict[str, int] = {}
        # one flat buffer that the matrix then shares: no second copy of
        # the vectors is alive while the file loads
        values = array("d")
        linenos = array("l")  # the file line of each row, for norm errors
        dim: Optional[int] = None
        header: Optional[tuple[int, int, int]] = None  # line, <count>, <dim>
        tokens: list[str] = []  # the block of vector lines not yet parsed,
        rests: list[str] = []  # as each line's token and numeric rest

        def read_block():
            nonlocal dim
            block = _parse_block(tokens, rests, linenos[-len(rests) :], dim, header, path)
            dim = block.shape[1]
            values.frombytes(memoryview(block).cast("B"))
            tokens.clear()
            rests.clear()

        with open_text(path) as fh:
            for lineno, line in enumerate(fh, start=1):
                parts = line.split(None, 1)
                if not parts:
                    continue
                first = not linenos and header is None
                if first and len(parts) == 2 and all(p.strip().isdecimal() for p in parts):
                    header = (lineno, int(parts[0]), int(parts[1]))  # word2vec's <count> <dim>
                    continue
                rows[parts[0]] = len(linenos)
                linenos.append(lineno)
                tokens.append(parts[0])
                rests.append(parts[1] if len(parts) == 2 else "")
                if len(rests) == LOAD_BLOCK:
                    read_block()
        if rests:
            read_block()
        if not rows:
            raise ConfigurationError(f"embedding file {path} contains no vectors")
        if header is not None and header[1] != len(linenos):
            message = f"header gives count {header[1]}, file has {len(linenos)} vector lines"
            raise ParseError(message, path=str(path), line=header[0])
        values.fromlist([0.0] * dim)
        unit = np.frombuffer(values, dtype=np.float64).reshape(-1, dim)
        # row by row this is the arithmetic of a per-call normalization,
        # so the cosines keep their last bits; blocks bound the temporaries.
        # A norm that overflows or is below the floor gives no unit row.
        vectors = unit[:-1]  # the appended zero row stays zero
        for start in range(0, len(vectors), NORMALIZE_BLOCK):
            block = vectors[start : start + NORMALIZE_BLOCK]
            with np.errstate(over="ignore"):
                norms = np.linalg.norm(block, axis=1, keepdims=True)
            bad = np.flatnonzero((norms < 1e-12) | (norms == np.inf))
            if len(bad):
                message = f"vector norm {norms[bad[0], 0]:g} is infinite or below 1e-12"
                raise ParseError(message, path=str(path), line=linenos[start + bad[0]])
            block /= norms
        self._rows = rows
        self._unit = unit
        self._missing = len(unit) - 1

    def cosines(
        self, candidate_tokens: Sequence[str], reference_tokens: Sequence[str]
    ) -> np.ndarray:
        """Cosine of every candidate token with every reference token."""
        rows, missing = self._rows, self._missing
        cand = [rows.get(t, missing) for t in candidate_tokens]
        ref = [rows.get(t, missing) for t in reference_tokens]
        sims = self._unit[cand] @ self._unit[ref].T
        # a token with no vector has the zero row: 0 with everything, so
        # only its equal tokens need setting, compared as small int codes
        lacking = [i for i, row in enumerate(cand) if row == missing]
        if lacking:
            codes: dict[str, int] = {}
            lack = np.array([codes.setdefault(candidate_tokens[i], len(codes)) for i in lacking])
            other = np.array([codes.get(t, -1) for t in reference_tokens])
            sims[lacking] = lack[:, None] == other
        return sims


class OneHotEmbedding(FileEmbedding):
    """Exact-match embeddings: the vector table with no vectors, so every
    token follows the rule of a token a file lacks. Cosine is 1 for equal
    tokens and 0 otherwise, and greedy matching counts token overlap."""

    def __init__(self):
        self._rows, self._unit, self._missing = {}, np.zeros((1, 1)), 0


def embedder_file(spec: str) -> Optional[str]:
    """The vector file an embedder spec names, or None for ``onehot``;
    ConfigurationError for any spec but ``onehot`` and ``file:<path>``."""
    if spec == "onehot":
        return None
    if spec.startswith("file:") and spec != "file:":
        return spec[len("file:") :]
    raise ConfigurationError(f"embedder: must be onehot or file:<path>, got {spec!r}")


def make_embedder(spec: str) -> FileEmbedding:
    """Build the embedder an embedder spec names (see :func:`embedder_file`)."""
    path = embedder_file(spec)
    return OneHotEmbedding() if path is None else FileEmbedding(path)


def greedy_match_f1(
    candidate_tokens: Sequence[str],
    reference_tokens: Sequence[str],
    embedder: FileEmbedding,
) -> tuple[float, float, float]:
    """Greedy maximum-cosine matching of candidate against reference tokens.

    Precision averages each candidate token's best cosine similarity to
    the reference; recall is the mirror image; F1 is their harmonic mean.
    With one-hot embeddings a token's best cosine is 1 if it occurs on
    the other side and 0 otherwise, so the sums are exact overlap counts.
    """
    if not candidate_tokens or not reference_tokens:
        raise ValueError("greedy_match_f1 requires non-empty token lists")
    n_cand, n_ref = len(candidate_tokens), len(reference_tokens)
    sims = embedder.cosines(candidate_tokens, reference_tokens)
    # dot with ones rather than .mean(): the summation order fixes the
    # last bits of the scores written to the pair files
    precision = float(sims.max(axis=1) @ np.ones(n_cand) / n_cand)
    recall = float(sims.max(axis=0) @ np.ones(n_ref) / n_ref)
    f1 = 0.0 if precision + recall == 0 else 2 * precision * recall / (precision + recall)
    return precision, recall, f1


class EmbeddingScorer:
    """Scorer adapter: greedy-match F1 of candidate vs reference texts."""

    def __init__(self, embedder: FileEmbedding):
        self._embedder = embedder

    def __call__(self, candidate: str, reference: str) -> float:
        cand = candidate.lower().split()
        ref = reference.lower().split()
        if not cand or not ref:
            return 0.0
        return greedy_match_f1(cand, ref, self._embedder)[2]


def trigram_scorer(candidate: str, reference: str) -> float:
    """Character-trigram Jaccard of the two texts (the default second
    scorer standing in for a learned metric)."""
    if not candidate.strip() or not reference.strip():
        return 0.0
    return trigram_jaccard(candidate.lower(), reference.lower())


@dataclass(frozen=True)
class FilterConfig:
    """Keep fraction and how scorer outputs combine."""

    keep_fraction: float = DEFAULT_KEEP_FRACTION
    weights: Mapping[str, float] = field(
        default_factory=lambda: {"embedding": 0.5, "trigram": 0.5}
    )

    def __post_init__(self):
        problems = []
        if not 0.0 < self.keep_fraction <= 1.0:
            problems.append(
                f"keep_fraction: must be in (0, 1], got {self.keep_fraction}"
            )
        weights = self.weights
        if not (isinstance(weights, Mapping) and weights and all(map(is_number, weights.values()))):
            problems.append(
                f"weights: must be a non-empty scorer->weight map, got {self.weights!r}"
            )
        else:
            unknown = [name for name in weights if name not in SCORER_NAMES]
            if unknown:
                problems.append(
                    f"weights: unknown scorer {', '.join(map(repr, unknown))}; "
                    f"the scorers are {' and '.join(SCORER_NAMES)}"
                )
            total = sum(self.weights.values())
            if not math.isclose(total, 1.0, abs_tol=1e-9):
                problems.append(f"weights: must sum to 1.0, got {total}")
            if any(w < 0 for w in self.weights.values()):
                problems.append("weights: must be non-negative")
        if problems:
            raise ConfigurationError(*problems)


def combined_score(
    scores: Mapping[str, float], weights: Mapping[str, float]
) -> float:
    """Weighted mean of per-scorer values; zero-weight scorers are ignored."""
    total = 0.0
    for name, weight in weights.items():
        if weight == 0.0:
            continue
        if name not in scores:
            raise ConfigurationError(f"unknown scorer {name!r} in weights")
        total += weight * scores[name]
    return total


def score_pair(
    candidate: str,
    reference: str,
    scorers: Mapping[str, Scorer],
    weights: Mapping[str, float],
) -> dict[str, float]:
    """Per-scorer values plus their weighted combination under 'combined'."""
    values = {name: float(fn(candidate, reference)) for name, fn in scorers.items()}
    values["combined"] = combined_score(values, weights)
    return values


def filter_top_fraction(scored: Sequence[tuple[object, float]], keep_fraction: float):
    """Keep the ceil(keep_fraction * n) highest-scoring items.

    Ties break by input position (earlier wins); the survivors come back
    in their original relative order.
    """
    if not 0.0 < keep_fraction <= 1.0:
        raise ValueError(f"keep_fraction must be in (0, 1], got {keep_fraction}")
    n = len(scored)
    if n == 0:
        return []
    keep = math.ceil(keep_fraction * n)
    ranked = sorted(range(n), key=lambda i: (-scored[i][1], i))[:keep]
    return [scored[i][0] for i in sorted(ranked)]
