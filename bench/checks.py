"""Output checks, each computed apart from notesum.

Every check either recomputes a result with the benchmark's own code
(splicing, brute-force matching, a reference decoder, scoring, ROUGE) or
tests a property the method must have (sentinel numbering, the masking
policy's allowed outcomes and rates, top-k selection). A check raises
``CheckFailed`` with a message naming what differed.

The only notesum object used here is the language model, whose
``next_token_distribution`` the reference decoder queries; the term
selection for a generation job is passed in by the caller.
"""

from __future__ import annotations

import bisect
import math
import re
from collections import Counter

import numpy as np

THRESHOLD = 0.7
MAX_WINDOW = 6
MERGE_GAP = 2
P_UMLS = 0.7
P_SENTENCE = 0.15
KEEP_FRACTION = 0.15
SIGMAS = 5.0
TOLERANCE = 1e-9

SENTINEL = re.compile(r"<extra_id_(\d+)>")
PLACEHOLDER = re.compile(r"\[Source\]|\[Term 1\]|\[Term 2\]")
WORD = re.compile(r"[A-Za-z0-9]+(?:['\-][A-Za-z0-9]+)*")


class CheckFailed(Exception):
    pass


def require(condition: bool, message: str) -> None:
    if not condition:
        raise CheckFailed(message)


# --------------------------------------------------------------------------
# Masked corpus: splice targets back, map masks onto sentences and tokens.

def splice(input_text: str, target_text: str) -> tuple[str, list[tuple[int, int]]]:
    """Undo the sentinel rewrite: the document and its masked char ranges.

    The target must read ``<s0> t0 <s1> t1 ... <sn>``: sentinel 0 first,
    the terminator last, single spaces around each dropped text.
    """
    in_marks = list(SENTINEL.finditer(input_text))
    tgt_marks = list(SENTINEL.finditer(target_text))
    n = len(in_marks)
    require([int(m.group(1)) for m in in_marks] == list(range(n)), "input sentinels are not numbered 0..n-1")
    require([int(m.group(1)) for m in tgt_marks] == list(range(n + 1)), "target sentinels are not numbered 0..n")
    require(
        tgt_marks[0].start() == 0 and tgt_marks[-1].end() == len(target_text),
        "target does not start with sentinel 0 and end with the terminator",
    )
    parts, ranges = [], []
    cursor = pos = 0
    for k, mark in enumerate(in_marks):
        piece = target_text[tgt_marks[k].end() : tgt_marks[k + 1].start()]
        require(len(piece) >= 3 and piece[0] == " " and piece[-1] == " ", f"target piece {k} is not ' text '")
        piece = piece[1:-1]
        parts.append(input_text[cursor : mark.start()])
        pos += mark.start() - cursor
        parts.append(piece)
        ranges.append((pos, pos + len(piece)))
        pos += len(piece)
        cursor = mark.end()
    parts.append(input_text[cursor:])
    return "".join(parts), ranges


def check_masked_batch(notes, records: list[dict], masks: int, sentences: int) -> list[list[list[tuple[int, int]]]]:
    """Check one batch's corpus lines against the generated notes.

    Returns, per note and sentence, the masked token ranges.
    """
    require(len(records) == len(notes), f"{len(records)} corpus lines for {len(notes)} notes")
    seen_masks = 0
    masked = []
    for note, record in zip(notes, records):
        require(record["doc_id"] == note.doc_id, f"line for {record['doc_id']} where {note.doc_id} was due")
        text, ranges = splice(record["input"], record["target"])
        require(text == note.text, f"{note.doc_id}: spliced target does not reproduce the note")
        seen_masks += len(ranges)
        masked.append(ranges_to_tokens(note, ranges))
    require(seen_masks == masks, f"stats count {masks} masks, the corpus holds {seen_masks} sentinels")
    expected = sum(len(n.sentences) for n in notes)
    require(sentences == expected, f"stats count {sentences} sentences, the generator wrote {expected}")
    return masked


def ranges_to_tokens(note, ranges) -> list[list[tuple[int, int]]]:
    starts = [s.start for s in note.sentences]
    per_sentence: list[list[tuple[int, int]]] = [[] for _ in note.sentences]
    for lo, hi in ranges:
        k = bisect.bisect_right(starts, lo) - 1
        sent = note.sentences[k] if k >= 0 else None
        require(
            sent is not None and hi <= sent.start + len(sent.text),
            f"{note.doc_id}: masked range {lo}..{hi} crosses a sentence boundary",
        )
        offsets = sent.token_offsets
        tok_starts = [a + sent.start for a, _ in offsets]
        tok_ends = [b + sent.start for _, b in offsets]
        require(lo in tok_starts and hi in tok_ends, f"{note.doc_id}: masked range {lo}..{hi} is not on token boundaries")
        per_sentence[k].append((tok_starts.index(lo), tok_ends.index(hi) + 1))
    return per_sentence


def merge_spans(spans) -> list[tuple[int, int]]:
    """Same-channel spans with fewer than MERGE_GAP tokens between them
    are masked as one stretch."""
    merged: list[tuple[int, int]] = []
    for start, end in sorted(spans):
        if merged and start - merged[-1][1] < MERGE_GAP:
            merged[-1] = (merged[-1][0], max(merged[-1][1], end))
        else:
            merged.append((start, end))
    return merged


def binomial_ok(hits: int, n: int, p: float) -> bool:
    return n == 0 or abs(hits / n - p) <= SIGMAS * math.sqrt(p * (1 - p) / n)


def check_policy(sentences, masked) -> dict:
    """Every sentence's masks must be an outcome the policy allows, and the
    channel and whole-sentence choices must occur at their rates.

    ``sentences`` are generated sentences with known UMLS and I2B2 spans;
    ``masked`` the masked token ranges of each, in the same order.
    """
    both = umls_chosen = empty = whole = 0
    for sent, got in zip(sentences, masked):
        umls, i2b2 = merge_spans(sent.umls), merge_spans(sent.i2b2)
        if umls and i2b2:
            require(got in (umls, i2b2), f"masks {got} are neither channel's spans {umls} / {i2b2}")
            if umls != i2b2:
                both += 1
                umls_chosen += got == umls
        elif umls or i2b2:
            require(got == (umls or i2b2), f"masks {got} differ from the only channel's spans {umls or i2b2}")
        else:
            full = [(0, len(sent.token_offsets))]
            require(got in ([], full), f"masks {got} in an entity-free sentence")
            empty += 1
            whole += got == full
    require(binomial_ok(umls_chosen, both, P_UMLS), f"UMLS chosen in {umls_chosen} of {both} two-channel sentences")
    require(binomial_ok(whole, empty, P_SENTENCE), f"whole-sentence mask in {whole} of {empty} entity-free sentences")
    return {"two_channel": both, "umls_chosen": umls_chosen, "entity_free": empty, "whole_masked": whole}


# --------------------------------------------------------------------------
# Brute-force approximate dictionary matching.

def grams(text: str) -> list[str]:
    if len(text) < 3:
        return [text]
    return [text[i : i + 3] for i in range(len(text) - 2)]


class BruteForceMatcher:
    """Trigram-multiset Jaccard of a window against every entry at once.

    Entries are a dense (entry x trigram) count matrix; a window's
    intersection with all entries is one ``minimum(...).sum()``.
    """

    def __init__(self, terms, name: str):
        entries = list(dict.fromkeys(" ".join(t.lower().split()) for t in terms))
        self.name = name
        self.vocab: dict[str, int] = {}
        rows = [Counter(grams(e)) for e in entries]
        for row in rows:
            for g in row:
                self.vocab.setdefault(g, len(self.vocab))
        self.matrix = np.zeros((len(entries), len(self.vocab)), dtype=np.int32)
        for i, row in enumerate(rows):
            for g, c in row.items():
                self.matrix[i, self.vocab[g]] = c
        self.sizes = self.matrix.sum(axis=1)

    def best(self, window: str) -> float:
        counts = Counter(grams(window))
        size = sum(counts.values())
        known = [(self.vocab[g], c) for g, c in counts.items() if g in self.vocab]
        if not known:
            return 0.0
        ids = [i for i, _ in known]
        inter = np.minimum(self.matrix[:, ids], np.array([c for _, c in known])).sum(axis=1)
        return float((inter / (size + self.sizes - inter)).max())

    def annotate(self, words: list[str]) -> list[tuple[int, int, float]]:
        """Windows of 1..MAX_WINDOW words scoring >= THRESHOLD, then the
        documented overlap rule: higher score, then longer, then earlier
        start wins; result sorted by start."""
        found = []
        for i in range(len(words)):
            for j in range(i + 1, min(i + MAX_WINDOW, len(words)) + 1):
                score = self.best(" ".join(w.lower() for w in words[i:j]))
                if score >= THRESHOLD:
                    found.append((i, j, score))
        chosen: list[tuple[int, int, float]] = []
        for span in sorted(found, key=lambda s: (-s[2], -(s[1] - s[0]), s[0])):
            if all(span[1] <= c[0] or c[1] <= span[0] for c in chosen):
                chosen.append(span)
        return sorted(chosen)


def check_spans(matcher: BruteForceMatcher, words: list[str], spans) -> None:
    got = [(s.start, s.end, s.score) for s in spans]
    want = matcher.annotate(words)
    require(got == want, f"{matcher.name} spans of {' '.join(words)!r}: program {got}, brute force {want}")


# --------------------------------------------------------------------------
# Augment: term preservation and a reference self-debiased greedy decoder.

def words(text: str) -> list[str]:
    """Lowercased words, punctuation stripped (the term-selection rule)."""
    return [w.lower() for w in WORD.findall(text)]


def has_run(haystack: list[str], needle: list[str]) -> bool:
    n = len(needle)
    return n > 0 and any(haystack[i : i + n] == needle for i in range(len(haystack) - n + 1))


def check_pairs(notes, pairs: list[dict]) -> None:
    """Pairs come in job order, each for a known source, keeping its terms."""
    position = {}
    for n, note in enumerate(notes):
        for s, source in enumerate(note.sources):
            position.setdefault((note.doc_id, source), (n, s))
    last = (-1, -1)
    for pair in pairs:
        key = (pair["doc_id"], pair["source"])
        require(key in position, f"pair for unknown job {key}")
        require(position[key] > last, f"pair for {key} is out of job order")
        last = position[key]
        require(pair["label"] == 1.0, f"pair for {key} has label {pair['label']}")
        note = notes[position[key][0]]
        for term in pair["required_terms"]:
            shared = all(has_run(words(text), words(term)) for text in (pair["source"], note.summary))
            require(shared, f"required term {term!r} is not in both the source and the problem list")
            require(term.lower() in pair["generated"].lower(), f"generated text {pair['generated']!r} drops term {term!r}")


def fill_template(text: str, terms, source: str) -> str:
    values = {"[Source]": source, "[Term 1]": terms[0] if terms else "", "[Term 2]": terms[1] if len(terms) > 1 else ""}
    return PLACEHOLDER.sub(lambda m: values[m.group()], text)


def reference_decode(lm, target_prompt: str, counter_prompts, lam: float, max_tokens: int) -> str:
    """Greedy decoding with scores max(0, p_t - lam * max_c p_c),
    renormalized, falling back to p_t when every score is zero."""
    vocab = lm.vocabulary()
    target = target_prompt.split()
    counters = [p.split() for p in counter_prompts]
    emitted: list[str] = []
    for _ in range(max_tokens):
        p_t = np.array(lm.next_token_distribution(target + emitted), dtype=float)
        p_c = np.max([np.array(lm.next_token_distribution(c + emitted), dtype=float) for c in counters], axis=0)
        scores = np.maximum(0.0, p_t - lam * p_c)
        total = scores.sum()
        dist = p_t if total <= 0.0 else scores / total
        token = vocab[int(np.argmax(dist))]
        emitted.append(token)
        if token.endswith((".", "!", "?")):
            break
    return " ".join(emitted)


def check_decoder(lm, templates: dict, jobs, pairs: list[dict], lam: float, max_tokens: int) -> int:
    """``jobs``: (doc_id, source, terms) in order; ``templates`` maps
    (label tag, arity) to template text. Returns the jobs decoded."""
    want = []
    for doc_id, source, terms in jobs:
        arity = len(terms)
        target = fill_template(templates[("1", arity)], terms, source)
        counters = [fill_template(templates[(tag, arity)], terms, source) for tag in ("0.5", "0")]
        text = reference_decode(lm, target, counters, lam, max_tokens)
        if all(t.lower() in text.lower() for t in terms):
            want.append((doc_id, source, text, list(terms)))
    got = [(p["doc_id"], p["source"], p["generated"], p["required_terms"]) for p in pairs]
    require(got == want, f"decoded pairs differ from the reference decoder: {got[:2]} vs {want[:2]}")
    return len(jobs)


# --------------------------------------------------------------------------
# filter-eval: scores, selection, assembly, ROUGE.

def parse_vectors(lines) -> dict[str, np.ndarray]:
    vectors = {}
    for line in lines:
        parts = line.split()
        if parts:
            vectors[parts[0]] = np.array([float(x) for x in parts[1:]])
    return vectors


def greedy_f1(candidate: list[str], reference: list[str], vectors) -> float:
    def unit(tokens):
        m = np.array([vectors[t] for t in tokens])
        return m / np.linalg.norm(m, axis=1, keepdims=True)

    sims = unit(candidate) @ unit(reference).T
    p = float(sims.max(axis=1).mean())
    r = float(sims.max(axis=0).mean())
    return 0.0 if p + r == 0 else 2 * p * r / (p + r)


def trigram_jaccard(a: str, b: str) -> float:
    ca, cb = Counter(grams(a)), Counter(grams(b))
    inter = sum(min(c, cb[g]) for g, c in ca.items())
    return inter / (sum(ca.values()) + sum(cb.values()) - inter)


def check_scores(pairs: list[dict], scores: list[dict], vectors) -> None:
    require(len(scores) == len(pairs), f"{len(scores)} scores for {len(pairs)} pairs")
    for k, (pair, got) in enumerate(zip(pairs, scores)):
        gen, src = pair["generated"].lower(), pair["source"].lower()
        emb = greedy_f1(gen.split(), src.split(), vectors)
        tri = trigram_jaccard(gen, src)
        want = {"embedding": emb, "trigram": tri, "combined": 0.5 * emb + 0.5 * tri}
        for name, value in want.items():
            require(abs(got[name] - value) <= TOLERANCE, f"pair {k}: {name} {got[name]} != {value}")


def top_fraction(scores: list[float], fraction: float = KEEP_FRACTION) -> list[int]:
    """Indices of the ceil(fraction * n) best scores, earlier wins a tie,
    in input order."""
    keep = math.ceil(fraction * len(scores))
    return sorted(sorted(range(len(scores)), key=lambda i: (-scores[i], i))[:keep])


def check_kept(pairs: list[dict], scores: list[dict], kept: list[dict]) -> None:
    want = [dict(pairs[i], scores=scores[i]) for i in top_fraction([s["combined"] for s in scores])]
    require(len(kept) == len(want), f"kept {len(kept)} pairs, ceil(0.15 n) is {len(want)}")
    for k, (got, exp) in enumerate(zip(kept, want)):
        require(got == exp, f"kept pair {k} is {got['doc_id']}/{got['generated']!r}, expected {exp['doc_id']}/{exp['generated']!r}")


def compose_aso(assessment: str, subjective: str, objective: str) -> str:
    return f"{assessment}\nSubjective: {subjective}\nObjective: {objective}"


def check_assembly(notes, kept: list[dict], instances: list[dict], target_size: int) -> int:
    """Originals once each, in note order, then kept pairs by descending
    score (stable), each folded into its note; unusable pairs skipped.
    Returns the number of kept pairs assembly could not use."""
    want = [
        {"doc_id": n.doc_id, "input": compose_aso(n.assessment, n.subjective, n.objective),
         "target": n.summary, "provenance": "original"}
        for n in notes
    ]
    by_id = {n.doc_id: n for n in notes}
    seen = {(w["doc_id"], w["input"]) for w in want}
    budget = target_size - len(want)
    unusable = 0
    for pair in sorted(kept, key=lambda p: -p["scores"]["combined"]):
        note = by_id.get(pair["doc_id"])
        if note is None or pair["source"] not in note.assessment:
            unusable += 1
            continue
        if budget == 0:
            break
        text = compose_aso(note.assessment.replace(pair["source"], pair["generated"], 1), note.subjective, note.objective)
        if (note.doc_id, text) in seen:
            continue
        seen.add((note.doc_id, text))
        want.append({"doc_id": note.doc_id, "input": text, "target": note.summary, "provenance": "augmented"})
        budget -= 1
    require(len(instances) == len(want), f"{len(instances)} instances assembled, expected {len(want)}")
    for k, (got, exp) in enumerate(zip(instances, want)):
        require(got == exp, f"instance {k} ({got['doc_id']}, {got['provenance']}) differs from the expected one")
    return unusable


def lcs(a: list[str], b: list[str]) -> int:
    table = [[0] * (len(b) + 1) for _ in range(len(a) + 1)]
    for i in range(1, len(a) + 1):
        for j in range(1, len(b) + 1):
            if a[i - 1] == b[j - 1]:
                table[i][j] = table[i - 1][j - 1] + 1
            else:
                table[i][j] = max(table[i - 1][j], table[i][j - 1])
    return table[-1][-1]


def prf(overlap: int, cand_total: int, ref_total: int) -> tuple[float, float, float]:
    p = overlap / cand_total if cand_total else 0.0
    r = overlap / ref_total if ref_total else 0.0
    return p, r, (0.0 if p + r == 0 else 2 * p * r / (p + r))


def rouge_reference(candidate: str, reference: str) -> dict:
    """ROUGE-1/2/L of lowercased whitespace tokens, per rouge.py's rule."""
    cand, ref = candidate.lower().split(), reference.lower().split()
    out = {}
    for n, name in ((1, "r1"), (2, "r2")):
        if len(cand) < n or len(ref) < n:
            out[name] = (0.0, 0.0, 0.0)
            continue
        c_grams = [tuple(cand[i : i + n]) for i in range(len(cand) - n + 1)]
        r_grams = [tuple(ref[i : i + n]) for i in range(len(ref) - n + 1)]
        overlap = sum(min(c_grams.count(g), r_grams.count(g)) for g in set(c_grams))
        out[name] = prf(overlap, len(c_grams), len(r_grams))
    out["rl"] = prf(lcs(cand, ref), len(cand), len(ref)) if cand and ref else (0.0, 0.0, 0.0)
    return out


def check_rouge(instances: list[dict], score: dict) -> None:
    sums = {m: [0.0, 0.0, 0.0] for m in ("r1", "r2", "rl")}
    for inst in instances:
        for m, values in rouge_reference(inst["input"], inst["target"]).items():
            for c in range(3):
                sums[m][c] += values[c]
    for m, total in sums.items():
        for c, key in enumerate(("precision", "recall", "f1")):
            want = total[c] / len(instances)
            require(abs(score[m][key] - want) <= TOLERANCE, f"ROUGE {m} {key}: {score[m][key]} != {want}")
