"""Paraphrase generation with instruction templates and self-debiased decoding.

A source sentence is wrapped in an instruction for the target label (SAME
THING) while the remaining labels act as counter instructions; at each
decoding step the counter distributions are subtracted from the target
distribution so the continuation fits only the intended instruction. The
backbone is :class:`CueBigramLM`, a small cue-conditioned bigram model;
decoding needs only its ``vocabulary`` and ``next_token_distributions``.
"""

from __future__ import annotations

import enum
import logging
import re
from collections import Counter, defaultdict
from dataclasses import dataclass, field
from importlib import resources
from pathlib import Path
from typing import Iterable, Iterator, Mapping, Optional, Sequence, Union

import numpy as np

from .errors import BackendError, ConfigurationError, DataError
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
        if not self.lam >= 0:  # written so that NaN fails
            problems.append(f"lam: must be >= 0, got {self.lam}")
        if self.top_k is not None and self.top_k < 1:
            problems.append(f"top_k: must be >= 1, got {self.top_k}")
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
        if not (isinstance(scores, dict) and all(map(is_number, scores.values()))):
            raise DataError("pair field scores is not a map of numbers")
        return pair


class CueBigramLM:
    """Bigram toy model whose tables are switched by a cue word in the prefix.

    The transition table is keyed by (cue, previous token); the cue is the
    last prefix token found in ``cues`` (None when absent), which lets an
    instruction wording steer continuations the way a real LLM would.
    Unseen contexts fall back to the cue-free table, then to uniform.

    Table memory is O(observed bigrams): a context keeps the ids of the
    tokens it has seen, their probabilities, and the one probability every
    other token shares. Each call rebuilds the rows it returns, byte for
    byte equal to the dense smoothed row divided by its sum.
    """

    def __init__(
        self,
        vocab: Sequence[str],
        table: Mapping[tuple[Optional[str], str], Mapping[str, float]],
        cues: Iterable[str] = (),
    ):
        self._vocab = tuple(dict.fromkeys(vocab))
        if not self._vocab:
            raise ConfigurationError("vocabulary must be non-empty")
        self._ids = {w: i for i, w in enumerate(self._vocab)}
        self._cues = frozenset(cues)
        # (ids, probabilities, off-support probability) per context; the
        # normalizer is the sum of the dense smoothed row, built in one
        # reused buffer, so the rows densify to the same bytes.
        self._table: dict[tuple[Optional[str], str], tuple[np.ndarray, np.ndarray, float]] = {}
        dense = np.empty(len(self._vocab))
        for (cue, prev), weights in table.items():
            try:
                ids = np.array([self._ids[token] for token in weights], dtype=np.intp)
            except KeyError as exc:
                raise ConfigurationError(f"table token {exc.args[0]!r} not in vocabulary") from None
            dense.fill(BIGRAM_SMOOTHING)
            dense[ids] += np.array([float(w) for w in weights.values()])
            z = dense.sum()
            self._table[(cue, prev)] = (ids, dense[ids] / z, BIGRAM_SMOOTHING / z)
        self._uniform = (np.empty(0, dtype=np.intp), np.empty(0), 1.0 / len(self._vocab))

    @classmethod
    def from_corpus(cls, sentences: Iterable[str]) -> "CueBigramLM":
        """Train a cue-free bigram table from whitespace-tokenized text.

        Contexts never seen in training (e.g. the instruction's final
        token) back off to the sentence-start distribution, so decoding a
        prompt continuation restarts a corpus-like sentence.
        """
        counts: dict[str, Counter] = defaultdict(Counter)
        starts: Counter = Counter()
        vocab: dict[str, None] = {}
        for sentence in sentences:
            tokens = sentence.split()
            for token in tokens:
                vocab.setdefault(token, None)
            if tokens:
                starts[tokens[0]] += 1
            for prev, nxt in zip(tokens, tokens[1:]):
                counts[prev][nxt] += 1
        if not vocab:
            raise ConfigurationError("cannot train a bigram model on empty text")
        table = {(None, prev): dict(nxts) for prev, nxts in counts.items()}
        # "" cannot be a real token; it keys the start-of-sentence row
        table[(None, "")] = dict(starts)
        return cls(sorted(vocab), table)

    def vocabulary(self) -> Sequence[str]:
        return self._vocab

    def _row(self, prefix: Sequence[str]) -> tuple[np.ndarray, np.ndarray, float]:
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

    def next_token_distribution(self, prefix: Sequence[str]) -> np.ndarray:
        return self.next_token_distributions([prefix])[0]

    def next_token_distributions(self, prefixes: Sequence[Sequence[str]]) -> np.ndarray:
        """One (len(prefixes), len(vocabulary())) matrix, a row per prefix;
        prefixes that resolve to one context share one densified row."""
        out = np.empty((len(prefixes), len(self._vocab)))
        first: dict[int, int] = {}
        for i, prefix in enumerate(prefixes):
            ids, probs, rest = row = self._row(prefix)
            j = first.setdefault(id(row), i)
            if j == i:
                out[i].fill(rest)
                out[i, ids] = probs
            else:
                out[i] = out[j]
        return out


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
    for problem in problem_list.splitlines():
        ref_norm = word_tokens(problem)
        for n in range(1, len(src_norm) + 1):
            for i in range(len(ref_norm) - n + 1):
                ref_grams.add(tuple(ref_norm[i : i + n]))
    taken: set[int] = set()
    terms: list[str] = []
    for n in range(len(src_norm), 0, -1):
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
    stacked = np.asarray(p_counters, dtype=float)
    if stacked.shape[1:] != p_target.shape:
        raise ValueError(
            f"counter distributions have shape {stacked.shape[1:]}, "
            f"target has {p_target.shape}"
        )
    return np.maximum(0.0, p_target - lam * stacked.max(axis=0))


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


def _check_distributions(dists: np.ndarray, rows: int, vocab_size: int) -> np.ndarray:
    dists = np.asarray(dists, dtype=float)
    if dists.shape != (rows, vocab_size):
        raise BackendError(
            f"language model returned shape {dists.shape}, expected ({rows}, {vocab_size})"
        )
    # written so that NaN fails: every comparison with NaN is False
    if not (dists >= 0).all() or (np.abs(dists.sum(axis=1) - 1.0) > 1e-9).any():
        raise BackendError("language model returned an invalid distribution")
    return dists


def generate(
    lm: CueBigramLM,
    target_prompt: str,
    counter_prompts: Sequence[str],
    cfg: GenerationConfig,
    rng: Optional[np.random.Generator] = None,
) -> str:
    """Decode a continuation of ``target_prompt`` away from the counters.

    Every emitted token extends the target prefix and every counter prefix
    alike; each step asks the model for all prefixes' distributions in one
    ``next_token_distributions`` call. Decoding stops at sentence-final
    punctuation or at the output cap. Greedy by default; sampling
    (optionally top-k) uses the supplied or seeded generator.
    """
    vocab = lm.vocabulary()
    prefixes = [prompt.split() for prompt in (target_prompt, *counter_prompts)]
    if rng is None:
        rng = np.random.default_rng(cfg.seed)
    emitted: list[str] = []
    for _ in range(cfg.max_output_tokens):
        dists = _check_distributions(
            lm.next_token_distributions([prefix + emitted for prefix in prefixes]),
            len(prefixes),
            len(vocab),
        )
        adjusted = self_debias_step(dists[0], dists[1:], cfg.lam)
        if cfg.greedy:
            choice = int(np.argmax(adjusted))
        else:
            probs = adjusted
            if cfg.top_k is not None and cfg.top_k < len(vocab):
                keep = np.argsort(probs)[::-1][: cfg.top_k]
                mask = np.zeros_like(probs)
                mask[keep] = probs[keep]
                probs = mask / mask.sum()  # above 0: the argmax is kept
            choice = int(rng.choice(len(vocab), p=probs))
        token = vocab[choice]
        emitted.append(token)
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
            rng = substream(cfg.seed, "augment", f"{note.doc_id}:{idx}")
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
