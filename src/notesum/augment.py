"""Paraphrase generation with instruction templates and self-debiased decoding.

A source sentence is wrapped in an instruction for the target label (SAME
THING) while the remaining labels act as counter instructions; at each
decoding step the counter distributions are subtracted from the target
distribution so the continuation fits only the intended instruction. The
backbone is :class:`CueBigramLM`, a small cue-conditioned bigram model;
decoding needs only its ``vocabulary`` and ``next_token_rows``, the sparse
``(ids, probs, rest)`` row of each prefix. Every row is checked once, when
the table is built, so decoding takes the rows as they come. A greedy step
takes the highest score, the lower id on a tie, and never densifies a
row, so its cost follows the rows, not the vocabulary. When the prompts
share one row and the strength is at least 1, every score clamps to 0
and the step takes that row's own argmax unscored; otherwise it scores
only the rows' ids, or their union, plus the one score every other token
shares. Sampling densifies the rows, since drawing from the distribution
reads it whole.
"""

from __future__ import annotations

import enum
import functools
import logging
import math
import re
from array import array
from collections import defaultdict
from dataclasses import dataclass, field
from importlib import resources
from pathlib import Path
from typing import Iterable, Iterator, Mapping, Optional, Sequence, Union

import numpy as np

from .errors import ConfigurationError, DataError
from .jsonl import is_number, read_jsonl, write_jsonl
from .seeding import substream
from .text import _WORD_RE, segment_sentences, word_tokens

log = logging.getLogger(__name__)

TERM_1 = "[Term 1]"
TERM_2 = "[Term 2]"
SOURCE = "[Source]"
_PLACEHOLDER_RE = re.compile("|".join(re.escape(p) for p in (TERM_1, TERM_2, SOURCE)))

STOP_PUNCTUATION = (".", "!", "?")
MAX_REQUIRED_TERMS = 2
BIGRAM_SMOOTHING = 0.01

# A next-token row: ascending token ids, their probabilities, and the one
# probability every other token shares.
Row = tuple[np.ndarray, np.ndarray, float]


def _dense(row: Row, vocab_size: int) -> np.ndarray:
    """The row as a vocabulary-wide vector."""
    ids, probs, rest = row
    out = np.full(vocab_size, rest)
    out[ids] = probs
    return out


class LabelId(enum.Enum):
    """The three instruction labels and their numeric values."""

    SAME_THING = 1.0
    SOMEWHAT_SIMILAR = 0.5
    DIFFERENT_TOPICS = 0.0

    @classmethod
    def from_value(cls, value: float) -> "LabelId":
        """The label whose value equals a JSON number; a bool, a string or
        any other number is a DataError."""
        if is_number(value):
            for label in cls:
                if label.value == value:
                    return label
        raise DataError(f"unknown label value {value!r}; expected the number 1, 0.5 or 0")


class TemplateSet(dict):
    """Instruction texts keyed by (label, number of required terms).

    The package ships the DINO-style instructions (Schick & Schütze 2021)
    as one ``templates/label<L>_terms<N>.txt`` file per slot, ``L`` the
    label value (1, 0.5, 0) and ``N`` the number of terms (0 to 2). The
    text for ``N`` terms holds ``N`` term placeholders and one [Source],
    and ends at the 'Sentence 2:' continuation point.
    """

    @classmethod
    def defaults(cls) -> "TemplateSet":
        """The nine packaged templates."""
        folder = resources.files(__package__) / "templates"
        return cls({
            (label, n): (folder / f"label{label.value:g}_terms{n}.txt").read_text(encoding="utf-8").strip()
            for label in LabelId
            for n in range(MAX_REQUIRED_TERMS + 1)
        })


@dataclass(frozen=True)
class GenerationConfig:
    """Decoding settings: output cap, self-debias strength, sampling."""

    max_output_tokens: int = 40
    lam: float = 1.0
    greedy: bool = True
    top_k: Optional[int] = None
    seed: int = 0

    def __post_init__(self):
        problems = []
        if self.max_output_tokens < 1:
            problems.append(
                f"max_output_tokens: must be >= 1, got {self.max_output_tokens}"
            )
        if not 0 <= self.lam < math.inf:  # written so that NaN fails
            problems.append(f"lam: must be a finite number >= 0, got {self.lam}")
        if self.top_k is not None and self.top_k < 1:
            problems.append(f"top_k: must be >= 1, got {self.top_k}")
        elif self.top_k is not None and self.greedy:
            problems.append("top_k: applies only when sampling (greedy is true)")
        if problems:
            raise ConfigurationError(*problems)


@dataclass
class GeneratedPair:
    """A source sentence with its generated paraphrase and bookkeeping."""

    source: str
    generated: str
    label: LabelId
    required_terms: list[str] = field(default_factory=list)
    scores: dict[str, float] = field(default_factory=dict)
    doc_id: str = ""

    def to_record(self) -> dict:
        return {
            "doc_id": self.doc_id,
            "source": self.source,
            "generated": self.generated,
            "label": self.label.value,
            "required_terms": self.required_terms,
            "scores": self.scores,
        }

    @classmethod
    def from_record(cls, record: Mapping) -> "GeneratedPair":
        pair = cls(
            source=record["source"],
            generated=record["generated"],
            label=LabelId.from_value(record["label"]),
            required_terms=record.get("required_terms", []),
            scores=record.get("scores", {}),
            doc_id=record.get("doc_id", ""),
        )
        for name in ("source", "generated", "doc_id"):
            if not isinstance(getattr(pair, name), str):
                raise DataError(f"pair field {name} is not text")
        terms, scores = pair.required_terms, pair.scores
        if not (isinstance(terms, list) and all(isinstance(t, str) for t in terms)):
            raise DataError("pair field required_terms is not a list of text")
        # JSON's NaN and Infinity would break the ranking by score
        if not (isinstance(scores, dict) and all(is_number(s) and math.isfinite(s) for s in scores.values())):
            raise DataError("pair field scores is not a map of finite numbers")
        return pair


class CueBigramLM:
    """Bigram toy model whose tables are switched by a cue word in the prefix.

    The transition table is keyed by (cue, previous token); the cue is the
    last prefix token found in ``cues`` (None when absent), which lets an
    instruction wording steer continuations the way a real LLM would.
    Unseen contexts fall back to the cue-free table, then to uniform.

    Table memory is O(observed bigrams): a context keeps the ids of the
    tokens it has seen, their probabilities, and the one probability every
    other token shares, as views into flat arrays sorted by (context, id).
    Every row is a distribution by construction: its ``intp`` ids ascend
    inside the vocabulary, its probabilities and ``rest`` are finite and
    >= 0, and its mass is 1 up to rounding. A table weight or a row sum
    that would break this is a ConfigurationError at build.
    A row's normalizer is the sum of its own entries: its smoothed seen
    weights added in ascending id order, then the smoothing of its unseen
    tokens added once, so building the table never touches a
    vocabulary-wide row.
    """

    def __init__(
        self,
        vocab: Sequence[str],
        table: Mapping[tuple[Optional[str], str], Mapping[str, float]],
        cues: Iterable[str] = (),
    ):
        vocab = tuple(dict.fromkeys(vocab))
        if not vocab:
            raise ConfigurationError("vocabulary must be non-empty")
        ids = {w: i for i, w in enumerate(vocab)}
        try:
            tokens = np.array([ids[t] for row in table.values() for t in row], dtype=np.intp)
        except KeyError as exc:
            raise ConfigurationError(f"table token {exc.args[0]!r} not in vocabulary") from None
        weights = np.array([float(w) for row in table.values() for w in row.values()])
        context = np.repeat(np.arange(len(table)), [len(row) for row in table.values()])
        order = np.lexsort((tokens, context))
        self._build(vocab, list(table), context[order], tokens[order], weights[order], cues)

    @classmethod
    def from_corpus(cls, sentences: Iterable[str]) -> "CueBigramLM":
        """Train a cue-free bigram table from whitespace-tokenized text.

        Contexts never seen in training (e.g. the instruction's final
        token) back off to the sentence-start distribution, so decoding a
        prompt continuation restarts a corpus-like sentence.
        """
        # provisional ids in first-seen order, streamed; no token lists kept
        first_seen: defaultdict[str, int] = defaultdict()
        first_seen.default_factory = first_seen.__len__  # an unseen token gets the next id
        stream, lengths = array("q"), array("q")
        for sentence in sentences:
            tokens = sentence.split()
            lengths.append(len(tokens))
            stream.extend(map(first_seen.__getitem__, tokens))
        if not first_seen:
            raise ConfigurationError("cannot train a bigram model on empty text")
        vocab = sorted(first_seen)
        rank = np.empty(len(vocab), dtype=np.intp)
        rank[[first_seen[w] for w in vocab]] = np.arange(len(vocab))
        tokens = rank[np.array(stream, dtype=np.intp)]
        lengths = np.array(lengths, dtype=np.intp)
        # context 0 is the sentence start, context i + 1 follows token i
        context = np.empty_like(tokens)
        context[1:] = tokens[:-1] + 1
        context[(np.cumsum(lengths) - lengths)[lengths > 0]] = 0
        pairs, counts = np.unique(context * len(vocab) + tokens, return_counts=True)
        context, tokens = np.divmod(pairs, len(vocab))
        first = np.diff(context, prepend=-1) != 0
        # "" cannot be a real token; it keys the start-of-sentence row
        keys = [(None, vocab[c - 1] if c else "") for c in context[first].tolist()]
        lm = cls.__new__(cls)
        lm._build(tuple(vocab), keys, np.cumsum(first) - 1, tokens, counts, ())
        return lm

    def _build(
        self,
        vocab: tuple[str, ...],
        keys: Sequence[tuple[Optional[str], str]],
        context: np.ndarray,
        tokens: np.ndarray,
        weights: np.ndarray,
        cues: Iterable[str],
    ) -> None:
        """Set the rows from flat arrays sorted by (context, token): entry j
        gives token ``tokens[j]`` the weight ``weights[j]`` after context
        ``keys[context[j]]``; every other token gets the smoothing value.
        A weight that is not finite and >= 0, or a context whose smoothed
        weights sum past the largest float, is a ConfigurationError."""
        valid = np.isfinite(weights) & (weights >= 0)
        if not valid.all():
            j = int(valid.argmin())
            raise ConfigurationError(
                f"table weight {float(weights[j])} for token {vocab[tokens[j]]!r} "
                f"after context {keys[context[j]]!r} must be finite and >= 0"
            )
        self._vocab, self._cues = vocab, frozenset(cues)
        size, count = len(vocab), len(keys)
        bounds = np.searchsorted(context, np.arange(count + 1))
        smoothed = BIGRAM_SMOOTHING + weights
        with np.errstate(over="ignore"):  # an overflowing sum is rejected below
            z = np.bincount(context, weights=smoothed, minlength=count) + BIGRAM_SMOOTHING * (
                size - np.diff(bounds)
            )
        finite = np.isfinite(z)
        if not finite.all():
            i = int(finite.argmin())
            raise ConfigurationError(
                f"table weights after context {keys[i]!r} sum past the largest float"
            )
        probs = smoothed / z[context]
        rest = BIGRAM_SMOOTHING / z
        bounds = bounds.tolist()
        self._table: dict[tuple[Optional[str], str], Row] = {
            key: (tokens[a:b], probs[a:b], rest[i])
            for i, (key, a, b) in enumerate(zip(keys, bounds, bounds[1:]))
        }
        self._uniform = (np.empty(0, dtype=np.intp), np.empty(0), 1.0 / size)

    def vocabulary(self) -> Sequence[str]:
        return self._vocab

    def _row(self, prefix: Sequence[str]) -> Row:
        cue = None
        if self._cues:  # a cue-free model, as the pipeline builds, skips the scan
            for token in reversed(prefix):
                if token in self._cues:
                    cue = token
                    break
        prev = prefix[-1] if prefix else ""
        for key in ((cue, prev), (None, prev), (None, "")):
            row = self._table.get(key)
            if row is not None:
                return row
        return self._uniform

    def next_token_rows(self, prefixes: Sequence[Sequence[str]]) -> list[Row]:
        """The stored row of each prefix's context, not to be written to;
        prefixes of one context share one row object."""
        return [self._row(prefix) for prefix in prefixes]

    def next_token_distribution(self, prefix: Sequence[str]) -> np.ndarray:
        """The dense next-token distribution of one prefix."""
        return _dense(self._row(prefix), len(self._vocab))


def select_terms(source: str, problem_list: str) -> list[str]:
    """Terms shared between a source sentence and its problem list.

    A term is a maximal contiguous word n-gram of the source that also
    occurs contiguously (case-insensitive, punctuation-insensitive) within
    one line of the problem list. Longest matches win, overlapping shorter
    ones are dropped, and at most ``MAX_REQUIRED_TERMS`` survive. Surfaces keep the
    source's original casing.
    """
    src_words = _WORD_RE.findall(source)
    src_norm = [w.lower() for w in src_words]
    ref_grams: set[tuple[str, ...]] = set()
    longest = 0  # no longer n-gram of the source can be in ref_grams
    for problem in problem_list.splitlines():
        ref_norm = word_tokens(problem)
        longest = max(longest, len(ref_norm))
        for n in range(1, min(len(src_norm), len(ref_norm)) + 1):
            for i in range(len(ref_norm) - n + 1):
                ref_grams.add(tuple(ref_norm[i : i + n]))
    taken: set[int] = set()
    terms: list[str] = []
    for n in range(min(len(src_norm), longest), 0, -1):
        for i in range(len(src_norm) - n + 1):
            positions = range(i, i + n)
            if any(p in taken for p in positions):
                continue
            if tuple(src_norm[i : i + n]) in ref_grams:
                terms.append(" ".join(src_words[i : i + n]))
                taken.update(positions)
                if len(terms) == MAX_REQUIRED_TERMS:
                    return terms
    return terms


def instantiate_template(text: str, terms: Sequence[str], source: str) -> str:
    """Byte-exact placeholder substitution in one pass, so placeholder
    text inside the source or a term stays literal. ``terms`` holds one
    term per term placeholder of ``text``."""
    values = {SOURCE: source, **dict(zip((TERM_1, TERM_2), terms))}
    return _PLACEHOLDER_RE.sub(lambda m: values[m.group()], text)


def suppressed_scores(
    p_target: np.ndarray, p_counters: Union[Sequence[np.ndarray], np.ndarray], lam: float
) -> np.ndarray:
    """Unnormalized self-debias scores: max(0, p_target - lam * max counter).

    ``p_counters`` is a sequence of vectors or one (k, V) array.
    """
    p_target = np.asarray(p_target, dtype=float)
    if len(p_counters) == 0:
        return p_target.copy()
    counters = [np.asarray(counter, dtype=float) for counter in p_counters]
    for counter in counters:
        if counter.shape != p_target.shape:
            raise ValueError(
                f"counter distributions have shape {counter.shape}, "
                f"target has {p_target.shape}"
            )
    # an elementwise maximum, exact like a stacked max, with no (k, V) copy
    strongest = functools.reduce(np.maximum, counters)
    return np.maximum(0.0, p_target - lam * strongest)


def self_debias_step(
    p_target: np.ndarray, p_counters: Union[Sequence[np.ndarray], np.ndarray], lam: float
) -> np.ndarray:
    """One decoding-time debias step.

    Subtracts ``lam`` times the strongest counter probability from each
    token, clamps at zero, and renormalizes; if everything clamps to zero
    the target distribution is returned unchanged.
    """
    scores = suppressed_scores(p_target, p_counters, lam)
    total = scores.sum()
    if total <= 0.0:
        return np.asarray(p_target, dtype=float).copy()
    return scores / total


def _debiased(rows: Sequence[Row], lam: float, vocab_size: int) -> np.ndarray:
    """``self_debias_step`` of the first row against the others, on the
    rows densified."""
    target, counters = rows[0], list({id(row): row for row in rows[1:]}.values())
    dense = [_dense(row, vocab_size) for row in (target, *counters)]
    return self_debias_step(dense[0], dense[1:], lam)


def _argmax(ids: np.ndarray, values: np.ndarray, other: float, vocab_size: int) -> tuple[int, float]:
    """The first index of the largest entry of the vocabulary-wide vector
    that holds ``values`` at ascending ``ids`` and ``other`` elsewhere, and
    that entry, as ``np.argmax`` picks it."""
    choice, best = vocab_size, -math.inf
    if len(ids):
        j = int(values.argmax())
        choice, best = int(ids[j]), float(values[j])
    if len(ids) < vocab_size and other >= best:
        # the lowest id off ``ids``: ids[i] >= i, with equality on a prefix
        absent = int(np.count_nonzero(ids == np.arange(len(ids)))) if len(ids) and not ids[0] else 0
        if other > best or absent < choice:
            choice, best = absent, other
    return choice, best


def _greedy_choice(rows: Sequence[Row], lam: float, vocab_size: int) -> int:
    """The token of highest score ``max(0, p_t - lam * max p_c)``, the
    lower id on a tie, of the first row against the others.

    Dividing by a positive total keeps the scores' order, so this is also
    the debiased distribution's argmax; when every score is 0, the target
    row's own argmax wins. When every counter is the target row and
    ``lam >= 1``, every score clamps to 0 (``lam * p >= p`` in floats too),
    so that argmax is taken unscored. Otherwise the scores are computed on
    the rows' ids, or on their union when the ids differ; every token off
    them shares one score, computed in Python floats with the same bits.
    A greedy step never densifies a row.
    """
    target, counters = rows[0], list({id(row): row for row in rows[1:]}.values())
    if lam >= 1.0 and all(row is target for row in counters):
        return _argmax(*target, vocab_size)[0]
    ids = target[0]
    if all(row[0] is ids for row in counters):
        values = [row[1] for row in (target, *counters)]
    else:
        ids = np.unique(np.concatenate([row[0] for row in (target, *counters)]))
        values = np.empty((1 + len(counters), len(ids)))
        for on_union, (row_ids, probs, rest) in zip(values, (target, *counters)):
            on_union.fill(rest)
            on_union[ids.searchsorted(row_ids)] = probs
    scores, other = suppressed_scores(values[0], values[1:], lam), float(target[2])
    if counters:
        other = max(0.0, other - lam * max(float(row[2]) for row in counters))
    choice, best = _argmax(ids, scores, other, vocab_size)
    return choice if best > 0.0 else _argmax(*target, vocab_size)[0]


def generate(
    lm: CueBigramLM,
    target_prompt: str,
    counter_prompts: Sequence[str],
    cfg: GenerationConfig,
    rng: Optional[np.random.Generator] = None,
) -> str:
    """Decode a continuation of ``target_prompt`` away from the counters.

    Every emitted token is appended to the target prefix and every counter
    prefix alike; each step asks the model for all prefixes' sparse rows
    in one ``next_token_rows`` call and debiases them, as they come:
    :class:`CueBigramLM` checked every row when it built its table.
    Decoding stops at sentence-final punctuation or at the output cap.
    Greedy by default: each step takes the token of highest score, the
    lower id on a tie, from the rows' ids (``_greedy_choice``) and never
    densifies a row, so it costs no vocabulary-wide work.
    Sampling, optionally from the top k tokens (higher probability first,
    the lower id on a tie), densifies the rows and draws from the supplied
    or seeded generator.
    """
    vocab = lm.vocabulary()
    prefixes = [prompt.split() for prompt in (target_prompt, *counter_prompts)]
    if rng is None and not cfg.greedy:
        rng = np.random.default_rng(cfg.seed)
    emitted: list[str] = []
    for _ in range(cfg.max_output_tokens):
        rows = lm.next_token_rows(prefixes)
        if cfg.greedy:
            choice = _greedy_choice(rows, cfg.lam, len(vocab))
        else:
            probs = _debiased(rows, cfg.lam, len(vocab))
            if cfg.top_k is not None and cfg.top_k < len(vocab):
                # a stable sort: ties keep id order on every CPU
                keep = np.argsort(-probs, kind="stable")[: cfg.top_k]
                mask = np.zeros_like(probs)
                mask[keep] = probs[keep]
                probs = mask / mask.sum()  # above 0: the argmax is kept
            choice = int(rng.choice(len(vocab), p=probs))
        token = vocab[choice]
        emitted.append(token)
        for prefix in prefixes:
            prefix.append(token)
        if token.endswith(STOP_PUNCTUATION):
            break
    return " ".join(emitted)


def validate_terms(generated: str, required_terms: Sequence[str]) -> bool:
    """Accept iff every required term occurs case-insensitively in the text."""
    haystack = generated.lower()
    return all(term.lower() in haystack for term in required_terms)


# The other two instructions steer the SAME_THING paraphrase by contrast.
COUNTER_LABELS = (LabelId.SOMEWHAT_SIMILAR, LabelId.DIFFERENT_TOPICS)


def generate_pair(
    lm: CueBigramLM,
    source: str,
    problem_list: str,
    templates: TemplateSet,
    cfg: GenerationConfig,
    doc_id: str = "",
    rng: Optional[np.random.Generator] = None,
) -> Optional[GeneratedPair]:
    """Generate one SAME_THING candidate pair for a source sentence.

    Returns None when the generation drops one of the selected terms.
    """
    terms = select_terms(source, problem_list)
    n = len(terms)
    target_prompt = instantiate_template(templates[LabelId.SAME_THING, n], terms, source)
    counter_prompts = [
        instantiate_template(templates[counter, n], terms, source) for counter in COUNTER_LABELS
    ]
    generated = generate(lm, target_prompt, counter_prompts, cfg, rng=rng)
    if not validate_terms(generated, terms):
        return None
    return GeneratedPair(
        source=source,
        generated=generated,
        label=LabelId.SAME_THING,
        required_terms=terms,
        scores={},
        doc_id=doc_id,
    )


def augment_notes(
    notes: Iterable,
    lm: CueBigramLM,
    templates: TemplateSet,
    cfg: GenerationConfig,
) -> Iterator[GeneratedPair]:
    """Candidate pairs for every assessment sentence of every note.

    Each (note, sentence) job gets its own RNG substream so output does
    not depend on processing order. Notes without an assessment or a
    problem-list summary are skipped with a warning; pairs failing term
    validation are dropped silently (they are rejected, not errors).
    """
    for note in notes:
        if not note.assessment or not note.summary:
            log.warning(
                "note %r lacks assessment or summary; skipped for augmentation",
                note.doc_id,
            )
            continue
        for idx, (sentence, _start) in enumerate(segment_sentences(note.assessment)):
            # greedy decoding draws nothing
            rng = None if cfg.greedy else substream(cfg.seed, "augment", f"{note.doc_id}:{idx}")
            pair = generate_pair(
                lm,
                sentence,
                note.summary,
                templates,
                cfg,
                doc_id=note.doc_id,
                rng=rng,
            )
            if pair is not None:
                yield pair


def write_pairs(pairs: Iterable[GeneratedPair], path: Union[str, Path]) -> int:
    return write_jsonl((pair.to_record() for pair in pairs), path)


def read_pairs(path: Union[str, Path]) -> Iterator[GeneratedPair]:
    return read_jsonl(path, GeneratedPair.from_record)
