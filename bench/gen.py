"""Seeded synthetic inputs for the four benchmark workloads.

Every generator takes the benchmark seed and a ``Sizes`` record and is a
pure function of them: the same seed gives the same bytes. Random streams
are ``random.Random`` objects seeded with strings, which Python hashes
with SHA-512, so they do not depend on ``PYTHONHASHSEED``.

Besides the files the program reads, the generators return what they
know about the text they wrote (sentence offsets, inserted terms,
standoff records), which the output checks use as ground truth.
"""

from __future__ import annotations

import bisect
import json
import math
import random
from dataclasses import dataclass, field
from itertools import accumulate

ZIPF_EXPONENT = 1.0


@dataclass(frozen=True)
class Sizes:
    """Input sizes of all workloads; ``FULL`` is what the benchmark runs."""

    # pretrain-bigdict
    big_vocab: int = 3000
    big_umls_terms: int = 2000
    big_i2b2_terms: int = 200
    big_batches: int = 12
    big_notes_per_batch: int = 1
    # pretrain-standoff
    so_batches: int = 50
    so_notes_per_batch: int = 120
    # augment
    aug_vocab: int = 8000
    aug_batches: int = 8
    aug_notes_per_batch: int = 50
    # filter-eval
    fe_vocab: int = 4000
    fe_notes: int = 300
    fe_variants: int = 2
    fe_dim: int = 100
    # output checks
    brute_force_sentences: int = 20
    decoder_jobs: int = 24


FULL = Sizes()
TINY = Sizes(
    big_vocab=300, big_umls_terms=200, big_i2b2_terms=20, big_batches=3,
    big_notes_per_batch=2, so_batches=3, so_notes_per_batch=8, aug_vocab=400,
    aug_batches=2, aug_notes_per_batch=6, fe_vocab=300, fe_notes=12,
    fe_variants=2, fe_dim=16, brute_force_sentences=3, decoder_jobs=4,
)

_ONSETS = "b c d f g h k l m n p r s t v z br cl dr gr pl st tr ch sh th".split()
_VOWELS = "a e i o u ai ea io ou".split()
_CODAS = ["", "", "", "n", "r", "s", "l", "m", "x", "t"]
_SEPARATORS = [" ", " ", "  ", "\n", " \n"]


def stream(*key) -> random.Random:
    return random.Random(":".join(str(k) for k in key))


def make_vocabulary(rng: random.Random, size: int) -> list[str]:
    """Distinct pronounceable lowercase words; list order is Zipf rank."""
    words: dict[str, None] = {}
    while len(words) < size:
        syllables = rng.choice((1, 2, 2, 3, 3, 4))
        word = "".join(rng.choice(_ONSETS) + rng.choice(_VOWELS) for _ in range(syllables))
        words.setdefault(word + rng.choice(_CODAS), None)
    return list(words)


class Zipf:
    """Draws words with probability proportional to 1 / rank**exponent."""

    def __init__(self, words: list[str], exponent: float = ZIPF_EXPONENT):
        self.words = words
        self._cum = list(accumulate(1.0 / (r + 1) ** exponent for r in range(len(words))))

    def draw(self, rng: random.Random, k: int) -> list[str]:
        return rng.choices(self.words, cum_weights=self._cum, k=k)

    def stratified(self, rng: random.Random, k: int) -> list[str]:
        """``k`` words, one from each of ``k`` equal slices of the
        distribution, in random order: every word's count is within one of
        its expected count, so samples differ in order and rare words only."""
        total, offset = self._cum[-1], rng.random()
        words = [self.words[bisect.bisect_left(self._cum, (i + offset) * total / k)] for i in range(k)]
        rng.shuffle(words)
        return words


def make_terms(rng: random.Random, zipf: Zipf, count: int, exclude=()) -> list[str]:
    """``count`` distinct 1-4 word terms, words drawn from ``zipf``."""
    terms: dict[str, None] = {}
    excluded = set(exclude)
    while len(terms) < count:
        n = rng.choices((1, 2, 3, 4), weights=(30, 40, 20, 10))[0]
        term = " ".join(zipf.draw(rng, n))
        if term not in excluded:
            terms.setdefault(term, None)
    return list(terms)


@dataclass
class Sentence:
    """One generated sentence: its text, offset in the note, and the token
    ranges of inserted dictionary terms (end exclusive)."""

    text: str
    start: int
    umls: list[tuple[int, int]] = field(default_factory=list)
    i2b2: list[tuple[int, int]] = field(default_factory=list)

    @property
    def token_offsets(self) -> list[tuple[int, int]]:
        offsets, pos = [], 0
        for word in self.text.split(" "):
            offsets.append((pos, pos + len(word)))
            pos += len(word) + 1
        return offsets


@dataclass
class Note:
    doc_id: str
    text: str
    sentences: list[Sentence]


def build_sentence(rng: random.Random, filler: list[str], units: list[tuple[str, list[str]]]) -> Sentence:
    """Insert each (channel, words) unit at a random unit boundary of the
    filler and end the sentence with a detached full stop."""
    items: list[tuple[str, list[str]]] = [("", [w]) for w in filler]
    for unit in units:
        items.insert(rng.randrange(len(items) + 1), unit)
    words: list[str] = []
    sent = Sentence(text="", start=0)
    for channel, unit_words in items:
        span = (len(words), len(words) + len(unit_words))
        if channel == "UMLS":
            sent.umls.append(span)
        elif channel == "I2B2":
            sent.i2b2.append(span)
        words.extend(unit_words)
    sent.text = " ".join(words + ["."])
    return sent


def join_note(rng: random.Random, doc_id: str, sentences: list[Sentence]) -> Note:
    parts: list[str] = []
    pos = 0
    for k, sent in enumerate(sentences):
        if k:
            sep = rng.choice(_SEPARATORS)
            parts.append(sep)
            pos += len(sep)
        sent.start = pos
        parts.append(sent.text)
        pos += len(sent.text)
    return Note(doc_id, "".join(parts), sentences)


def write_notes(path, notes: list[Note]) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for note in notes:
            fh.write(json.dumps({"doc_id": note.doc_id, "text": note.text}) + "\n")


def write_lines(path, lines) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.writelines(line + "\n" for line in lines)


# --------------------------------------------------------------------------
# pretrain-bigdict: both channels are large dictionaries over one Zipfian
# vocabulary, so common words recur across many entries and the matcher's
# candidate sets grow with the dictionary. The vocabulary and the
# dictionaries are the same for every seed, as UMLS is; the seed draws the
# notes. Every note has the same shape (10 sentences of 6 to 14 words, 100
# words in all, 5 UMLS and 3 I2B2 terms) and stratified word counts, so the
# matcher's work per note varies little from seed to seed.

BIGDICT_SENTENCE_WORDS = (6, 7, 8, 9, 10, 10, 11, 12, 13, 14)


@dataclass
class BigDictInput:
    umls_terms: list[str]
    i2b2_terms: list[str]
    batches: list[list[Note]]


def bigdict_input(seed: int, sizes: Sizes) -> BigDictInput:
    zipf = Zipf(make_vocabulary(stream("bigdict", "vocabulary"), sizes.big_vocab))
    rng = stream("bigdict", "dictionary")
    umls = make_terms(rng, zipf, sizes.big_umls_terms)
    i2b2 = make_terms(rng, zipf, sizes.big_i2b2_terms, exclude=umls)
    batches = []
    for b in range(sizes.big_batches):
        rng = stream(seed, "bigdict", "batch", b)
        notes = []
        for n in range(sizes.big_notes_per_batch):
            lengths = rng.sample(BIGDICT_SENTENCE_WORDS, len(BIGDICT_SENTENCE_WORDS))
            words = zipf.stratified(rng, sum(lengths))
            with_umls = set(rng.sample(range(len(lengths)), 5))
            with_i2b2 = set(rng.sample(range(len(lengths)), 3))
            sentences = []
            for k, length in enumerate(lengths):
                units = []
                if k in with_umls:
                    units.append(("", rng.choice(umls).split()))
                if k in with_i2b2:
                    units.append(("", rng.choice(i2b2).split()))
                filler, words = words[:length], words[length:]
                sentences.append(build_sentence(rng, filler, units))
            notes.append(join_note(rng, f"big-{b:03d}-{n:03d}", sentences))
        batches.append(notes)
    return BigDictInput(umls, i2b2, batches)


# --------------------------------------------------------------------------
# pretrain-standoff: a curated clinical dictionary plus NER standoff spans.
# No filler or I2B2 word shares a letter trigram with a curated term, so
# the UMLS spans are exactly the inserted terms; the standoff records are
# the inserted I2B2 terms.

CURATED_UMLS = [
    "heart failure", "atrial fibrillation", "renal failure", "anemia", "copd",
    "hypertension", "pneumonia", "sepsis", "diabetes mellitus", "pleural effusion",
    "acute kidney injury", "chest pain", "shortness of breath", "cellulitis",
    "cirrhosis", "delirium", "hyperkalemia", "hyponatremia", "pancreatitis",
    "pulmonary embolism", "deep vein thrombosis", "urinary tract infection",
    "gi bleed", "hypothyroidism", "asthma", "stroke", "syncope", "ascites",
    "aortic stenosis", "bacteremia", "thrombocytopenia", "leukocytosis",
    "encephalopathy", "cholecystitis", "hepatitis", "myocardial infarction",
    "respiratory failure", "hypotension", "dementia", "osteomyelitis",
]

STANDOFF_I2B2 = [
    "lasix", "iv lasix", "coumadin", "bumex", "dilaudid", "morphine", "po kcl",
    "mag", "nph", "duoneb", "zofran", "flagyl", "cefepime", "plavix",
    "amlodipine", "keppra", "senna", "colace", "oxycodone", "precedex",
    "propofol", "levophed", "solumedrol", "prednisone", "decadron", "zyvox",
    "cipro", "levaquin", "digoxin", "novolog",
]

STANDOFF_FILLER = (
    "pt stays ok on day two w no new bumps via rn team must f/u w/ fam "
    "today am pm plan to wk up by lab hx of dc home vs snf on calm now "
    "so sat too good and may go up or down q4h bid tid prn ok'd by md mild"
).split()


@dataclass
class StandoffInput:
    umls_terms: list[str]
    batches: list[list[Note]]
    records: list[str]


def standoff_input(seed: int, sizes: Sizes) -> StandoffInput:
    batches, records = [], []
    for b in range(sizes.so_batches):
        rng = stream(seed, "standoff", "batch", b)
        notes = []
        for n in range(sizes.so_notes_per_batch):
            sentences = []
            for _ in range(rng.randint(6, 10)):
                units = []
                if rng.random() < 0.5:
                    units.append(("UMLS", rng.choice(CURATED_UMLS).split()))
                if rng.random() < 0.6:
                    units.append(("I2B2", rng.choice(STANDOFF_I2B2).split()))
                filler = [rng.choice(STANDOFF_FILLER) for _ in range(rng.randint(5, 12))]
                sentences.append(build_sentence(rng, filler, units))
            note = join_note(rng, f"so-{b:03d}-{n:03d}", sentences)
            for idx, sent in enumerate(sentences):
                for start, end in sent.i2b2:
                    records.append(f"{note.doc_id}\t{idx}\t{start}\t{end}\tTREATMENT")
            notes.append(note)
        batches.append(notes)
    return StandoffInput(list(CURATED_UMLS), batches, records)


# --------------------------------------------------------------------------
# Section notes shared by augment and filter-eval: assessments of Zipfian
# sentences, and a problem list that reuses phrases of the assessment so
# that generation jobs carry required terms.

@dataclass
class SectionNote:
    doc_id: str
    assessment: str
    subjective: str
    objective: str
    summary: str
    sources: list[str]

    def record(self) -> dict:
        return {
            "doc_id": self.doc_id, "assessment": self.assessment,
            "subjective": self.subjective, "objective": self.objective,
            "summary": self.summary,
        }


def _plain_sentence(rng: random.Random, zipf: Zipf, lo: int, hi: int) -> str:
    return " ".join(zipf.draw(rng, rng.randint(lo, hi)) + ["."])


def section_note(rng: random.Random, zipf: Zipf, doc_id: str, words: tuple[int, int] = (6, 14)) -> SectionNote:
    sources: list[str] = []
    while len(sources) < rng.randint(3, 6):
        sent = _plain_sentence(rng, zipf, *words)
        if sent not in sources:
            sources.append(sent)
    problems = []
    for sent in rng.sample(sources, k=min(len(sources), rng.randint(1, 3))):
        words = sent.split()[:-1]
        start = rng.randrange(len(words))
        problems.append(" ".join(words[start : start + rng.randint(1, 3)]))
    problems.extend(" ".join(zipf.draw(rng, rng.randint(1, 3))) for _ in range(rng.randint(1, 2)))
    return SectionNote(
        doc_id=doc_id,
        assessment=" ".join(sources),
        subjective=" ".join(_plain_sentence(rng, zipf, 5, 12) for _ in range(rng.randint(1, 3))),
        objective=" ".join(_plain_sentence(rng, zipf, 5, 12) for _ in range(rng.randint(1, 3))),
        summary="\n".join(problems),
        sources=sources,
    )


def write_section_notes(path, notes: list[SectionNote]) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for note in notes:
            fh.write(json.dumps(note.record()) + "\n")


# With sentences this long, a word is followed by the most common word more
# often than by the full stop, so greedy decoding on the bigram table runs
# to the output cap on every seed instead of stopping after one word on
# some seeds and forty on others.
AUGMENT_SENTENCE_WORDS = (10, 20)


@dataclass
class AugmentInput:
    batches: list[list[SectionNote]]


def augment_input(seed: int, sizes: Sizes) -> AugmentInput:
    zipf = Zipf(make_vocabulary(stream("augment", "vocabulary"), sizes.aug_vocab))
    batches = []
    for b in range(sizes.aug_batches):
        rng = stream(seed, "augment", "batch", b)
        batches.append([
            section_note(rng, zipf, f"aug-{b:02d}-{n:03d}", AUGMENT_SENTENCE_WORDS)
            for n in range(sizes.aug_notes_per_batch)
        ])
    return AugmentInput(batches)


# --------------------------------------------------------------------------
# filter-eval: candidate pairs are paraphrase-like variants of assessment
# sentences (synonym swaps, dropped words, local reorders). Synonyms share
# a base vector in the vectors file. One pair in twenty names a note that
# does not exist and one in twenty has a source the note does not contain;
# assembly must skip both kinds.

@dataclass
class FilterInput:
    notes: list[SectionNote]
    pairs: list[dict]
    vectors: list[str]


def _variant(rng: random.Random, words: list[str], synonyms: dict[str, list[str]]) -> list[str]:
    out = []
    for word in words:
        roll = rng.random()
        if roll < 0.12 and len(words) > 3:
            continue
        if roll < 0.35 and synonyms.get(word):
            word = rng.choice(synonyms[word])
        out.append(word)
    if len(out) > 3 and rng.random() < 0.5:
        i = rng.randrange(len(out) - 1)
        out[i], out[i + 1] = out[i + 1], out[i]
    return out or list(words)


def filter_input(seed: int, sizes: Sizes) -> FilterInput:
    rng = stream("filter", "vocabulary")
    words = make_vocabulary(rng, sizes.fe_vocab)
    zipf = Zipf(words)
    # synonym groups of 1-3 words with nearby vectors
    synonyms: dict[str, list[str]] = {}
    vectors: list[str] = []
    i = 0
    while i < len(words):
        group = words[i : i + rng.randint(1, 3)]
        i += len(group)
        base = [rng.gauss(0.0, 1.0) for _ in range(sizes.fe_dim)]
        for word in group:
            synonyms[word] = [w for w in group if w != word]
            vec = [x + rng.gauss(0.0, 0.35) for x in base]
            vectors.append(word + " " + " ".join(f"{x:.6f}" for x in vec))
    vectors.append(". " + " ".join(f"{rng.gauss(0.0, 1.0):.6f}" for _ in range(sizes.fe_dim)))

    rng = stream(seed, "filter", "notes")
    notes = [section_note(rng, zipf, f"fe-{n:04d}") for n in range(sizes.fe_notes)]
    pairs = []
    rng = stream(seed, "filter", "pairs")
    for note in notes:
        for source in note.sources:
            for _ in range(sizes.fe_variants):
                generated = " ".join(_variant(rng, source.split()[:-1], synonyms) + ["."])
                doc_id, src = note.doc_id, source
                roll = rng.random()
                if roll < 0.05:
                    doc_id = note.doc_id.replace("fe-", "gone-")
                elif roll < 0.10:
                    src = zipf.draw(rng, 1)[0] + " " + source
                    while src in note.assessment:
                        src = zipf.draw(rng, 1)[0] + " " + src
                pairs.append({
                    "doc_id": doc_id, "source": src, "generated": generated,
                    "label": 1.0, "required_terms": [], "scores": {},
                })
    return FilterInput(notes, pairs, vectors)


def target_size(inp: FilterInput, keep_fraction: float = 0.15) -> int:
    """Room for every original plus every kept pair."""
    return len(inp.notes) + math.ceil(keep_fraction * len(inp.pairs))
