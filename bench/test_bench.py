"""Tests of the benchmark itself: a smoke run of every workload at tiny
sizes, and for each output check a corrupted output it must reject."""

from __future__ import annotations

import copy
import json
import math

import pytest

import checks
import gen
import run

run.import_notesum()

from notesum import annotation, augment, dataset, filtering, rouge  # noqa: E402
from notesum.corpus import ProgressNote, build_pretrain_corpus  # noqa: E402
from notesum.masking import MaskPolicyConfig  # noqa: E402
from notesum.text import char_trigrams, tokenize  # noqa: E402


@pytest.mark.parametrize("workload", run.WORKLOADS)
@pytest.mark.parametrize("trace", [0, 1])
def test_smoke_run_at_tiny_sizes(workload, trace):
    out = run.run(workload, seed=5, seconds=0.2, trace=trace, sizes=gen.TINY)
    assert out["correct"] and out["failed"] == 0 and out["attempted"] > 0
    names = [m[0] for m in run.PER_LAYER] if trace else list(run.END_TO_END_UNITS)
    assert list(out["metrics"]) == names
    if not trace:
        assert all(m["value"] > 0 for m in out["metrics"].values())


def test_inputs_are_a_function_of_the_seed():
    for workload in run.WORKLOADS:
        a = run.input_digest(workload, 1, gen.TINY)
        assert a == run.input_digest(workload, 1, gen.TINY)
        assert a != run.input_digest(workload, 2, gen.TINY)


def test_curated_standoff_vocabulary_cannot_match_by_accident():
    # A window of filler and I2B2 words shares with a curated term at most
    # the term's space-containing trigrams, which stay below the threshold.
    term_grams = {g for t in gen.CURATED_UMLS for g in char_trigrams(t) if " " not in g}
    words = gen.STANDOFF_FILLER + [w for t in gen.STANDOFF_I2B2 for w in t.split()]
    assert not [w for w in words if len(w) >= 3 and set(char_trigrams(w)) & term_grams]
    for term in gen.CURATED_UMLS:
        grams = char_trigrams(term)
        spaced = sum(c for g, c in grams.items() if " " in g)
        assert spaced / sum(grams.values()) < checks.THRESHOLD


# --------------------------------------------------------------------------
# masked corpus

def standoff_batch():
    inp = gen.standoff_input(3, gen.TINY)
    notes = inp.batches[0]
    umls = annotation.TermDictionary(inp.umls_terms, annotation.UMLS_CHANNEL)
    records: dict = {}
    for line in inp.records:
        doc_id, sent, start, end, label = line.split("\t")
        records.setdefault((doc_id, int(sent)), []).append((int(start), int(end), label))
    index = annotation.StandoffIndex(records)
    examples, stats = build_pretrain_corpus(
        (ProgressNote(doc_id=n.doc_id, text=n.text) for n in notes), umls, index, MaskPolicyConfig(seed=3)
    )
    records = [{"doc_id": e.doc_id, "input": e.input_text, "target": e.target_text} for e in examples]
    return notes, records, stats


def test_masked_batch_check_accepts_program_output():
    notes, records, stats = standoff_batch()
    masked = checks.check_masked_batch(notes, records, stats.masks_total, stats.sentences_total)
    sentences = [s for n in notes for s in n.sentences]
    checks.check_policy(sentences, [m for per_note in masked for m in per_note])


def masked_record(records):
    return next(r for r in records if r["target"].count("<extra_id_") >= 3)


def test_masked_batch_check_rejects_a_dropped_mask_span():
    notes, records, stats = standoff_batch()
    bad = copy.deepcopy(records)
    rec = masked_record(bad)
    head, _, _ = rec["target"].rpartition(" <extra_id_")
    head, _, _ = head.rpartition(" <extra_id_")
    n = rec["input"].count("<extra_id_")
    rec["target"] = head + f" <extra_id_{n - 1}>"
    with pytest.raises(checks.CheckFailed):
        checks.check_masked_batch(notes, bad, stats.masks_total, stats.sentences_total)


def test_masked_batch_check_rejects_changed_text_and_counts():
    notes, records, stats = standoff_batch()
    bad = copy.deepcopy(records)
    rec = masked_record(bad)
    rec["target"] = rec["target"].replace("> ", "> x", 1)
    with pytest.raises(checks.CheckFailed):
        checks.check_masked_batch(notes, bad, stats.masks_total, stats.sentences_total)
    with pytest.raises(checks.CheckFailed):
        checks.check_masked_batch(notes, records, stats.masks_total + 1, stats.sentences_total)
    with pytest.raises(checks.CheckFailed):
        checks.check_masked_batch(notes, records, stats.masks_total, stats.sentences_total - 1)


def test_policy_check_rejects_a_disallowed_outcome_and_a_skewed_rate():
    sent = gen.Sentence(text="a b c d e f .", start=0, umls=[(0, 1)], i2b2=[(3, 4)])
    empty = gen.Sentence(text="a b c d e f .", start=0)
    with pytest.raises(checks.CheckFailed):
        checks.check_policy([sent], [[(0, 1), (3, 4)]])
    with pytest.raises(checks.CheckFailed):
        checks.check_policy([empty], [[(0, 2)]])
    # 400 two-channel sentences all masked on UMLS: rate 1.0, not 0.7
    with pytest.raises(checks.CheckFailed):
        checks.check_policy([sent] * 400, [[(0, 1)]] * 400)
    checks.check_policy([sent] * 10, [[(0, 1)]] * 7 + [[(3, 4)]] * 3)


def test_brute_force_matcher_agrees_and_rejects_a_dropped_span():
    inp = gen.bigdict_input(2, gen.TINY)
    umls = annotation.TermDictionary(inp.umls_terms, annotation.UMLS_CHANNEL)
    matcher = checks.BruteForceMatcher(inp.umls_terms, "UMLS")
    sentences = [s.text for n in inp.batches[0] for s in n.sentences]
    spans = None
    for text in sentences:
        spans = annotation.annotate(tokenize(text), umls)
        checks.check_spans(matcher, text.split(" "), spans)
        if spans:
            break
    assert spans
    with pytest.raises(checks.CheckFailed):
        checks.check_spans(matcher, text.split(" "), spans[1:])


# --------------------------------------------------------------------------
# augment

def cue_lm():
    """Counter instructions favour 'weather', so debiasing changes the
    greedy choice from 'weather' to 'stable'."""
    table = {
        ("thing.", "2:"): {"weather": 5, "stable": 4},
        ("similar.", "2:"): {"weather": 9},
        ("topics.", "2:"): {"weather": 9},
        ("thing.", "stable"): {"done.": 5},
        ("thing.", "weather"): {"done.": 5},
    }
    return augment.CueBigramLM(
        ["stable", "weather", "improving", "done."], table, cues=["thing.", "similar.", "topics."]
    )


def templates():
    folder = run.SRC / "notesum" / "templates"
    return {
        (tag, arity): (folder / f"label{tag}_terms{arity}.txt").read_text(encoding="utf-8").strip()
        for tag in ("1", "0.5", "0") for arity in (0, 1, 2)
    }


def decode_pairs(lam):
    lm, source = cue_lm(), "pt resting ."
    pair = augment.generate_pair(
        lm, source, "nothing shared", augment.TemplateSet.defaults(), augment.GenerationConfig(lam=lam), doc_id="d1"
    )
    return lm, [("d1", source, [])], [pair.to_record()]


def test_reference_decoder_agrees_with_the_program():
    lm, jobs, pairs = decode_pairs(1.0)
    assert pairs[0]["generated"] == "stable done."
    checks.check_decoder(lm, templates(), jobs, pairs, lam=1.0, max_tokens=40)


def test_reference_decoder_rejects_a_wrong_debias_step():
    lm, jobs, pairs = decode_pairs(0.0)
    assert pairs[0]["generated"] == "weather done."
    with pytest.raises(checks.CheckFailed):
        checks.check_decoder(lm, templates(), jobs, pairs, lam=1.0, max_tokens=40)


def test_pair_check_rejects_a_dropped_term_and_an_unknown_job():
    note = gen.SectionNote("d1", "heart failure worse .", "s .", "o .", "heart failure", ["heart failure worse ."])
    good = {"doc_id": "d1", "source": "heart failure worse .", "generated": "heart failure better .",
            "label": 1.0, "required_terms": ["heart failure"], "scores": {}}
    checks.check_pairs([note], [good])
    with pytest.raises(checks.CheckFailed):
        checks.check_pairs([note], [dict(good, generated="failure better .")])
    with pytest.raises(checks.CheckFailed):
        checks.check_pairs([note], [dict(good, doc_id="d2")])


# --------------------------------------------------------------------------
# filter-eval

@pytest.fixture(scope="module")
def filtered():
    inp = gen.filter_input(4, gen.TINY)
    path = run.WORK / "test-vectors.txt"
    path.parent.mkdir(exist_ok=True)
    gen.write_lines(path, inp.vectors)
    try:
        embedder = filtering.make_embedder(f"file:{path}")
    finally:
        path.unlink()
    scorers = {"embedding": filtering.EmbeddingScorer(embedder), "trigram": filtering.trigram_scorer}
    pairs = [augment.GeneratedPair.from_record(p) for p in inp.pairs]
    scored = []
    for pair in pairs:
        pair.scores = filtering.score_pair(pair.generated, pair.source, scorers, filtering.FilterConfig().weights)
        scored.append((pair, pair.scores["combined"]))
    kept = filtering.filter_top_fraction(scored, 0.15)
    notes = [ProgressNote(doc_id=n.doc_id, **{k: v for k, v in n.record().items() if k != "doc_id"}) for n in inp.notes]
    instances = dataset.assemble_training_set(notes, kept, target_size=gen.target_size(inp))
    instances = [
        {"doc_id": i.doc_id, "input": i.input_text, "target": i.target_text, "provenance": i.provenance.value}
        for i in instances
    ]
    score = rouge.evaluate_corpus([i["input"] for i in instances], [i["target"] for i in instances])
    score = {m: getattr(score, m)._asdict() for m in ("r1", "r2", "rl")}
    return {
        "inp": inp, "scores": [p.scores for p in pairs],
        "kept": [json.loads(json.dumps(p.to_record())) for p in kept],
        "instances": instances, "rouge": score,
    }


def test_filter_checks_accept_program_output(filtered):
    inp = filtered["inp"]
    checks.check_scores(inp.pairs, filtered["scores"], checks.parse_vectors(inp.vectors))
    checks.check_kept(inp.pairs, filtered["scores"], filtered["kept"])
    checks.check_assembly(inp.notes, filtered["kept"], filtered["instances"], gen.target_size(inp))
    checks.check_rouge(filtered["instances"], filtered["rouge"])


def test_score_check_rejects_a_perturbed_score(filtered):
    inp = filtered["inp"]
    scores = copy.deepcopy(filtered["scores"])
    scores[3]["trigram"] += 1e-6
    with pytest.raises(checks.CheckFailed):
        checks.check_scores(inp.pairs, scores, checks.parse_vectors(inp.vectors))


def test_kept_check_rejects_a_swapped_kept_pair(filtered):
    inp = filtered["inp"]
    kept = copy.deepcopy(filtered["kept"])
    chosen = {(k["doc_id"], k["generated"]) for k in kept}
    outsider = next(i for i, p in enumerate(inp.pairs) if (p["doc_id"], p["generated"]) not in chosen)
    kept[0] = dict(inp.pairs[outsider], scores=filtered["scores"][outsider])
    with pytest.raises(checks.CheckFailed):
        checks.check_kept(inp.pairs, filtered["scores"], kept)
    with pytest.raises(checks.CheckFailed):
        checks.check_kept(inp.pairs, filtered["scores"], filtered["kept"][:-1])


def test_assembly_check_rejects_a_lost_original_and_an_unfolded_pair(filtered):
    inp = filtered["inp"]
    size = gen.target_size(inp)
    with pytest.raises(checks.CheckFailed):
        checks.check_assembly(inp.notes, filtered["kept"], filtered["instances"][1:], size)
    bad = copy.deepcopy(filtered["instances"])
    augmented = next(i for i in bad if i["provenance"] == "augmented")
    augmented["input"] = augmented["input"].replace("\nSubjective:", " x\nSubjective:")
    with pytest.raises(checks.CheckFailed):
        checks.check_assembly(inp.notes, filtered["kept"], bad, size)


def test_rouge_check_rejects_an_lcs_off_by_one(filtered, monkeypatch):
    instances = filtered["instances"]
    true_lcs = rouge.lcs_length
    monkeypatch.setattr(rouge, "lcs_length", lambda a, b: true_lcs(a, b) + 1)
    score = rouge.evaluate_corpus([i["input"] for i in instances], [i["target"] for i in instances])
    score = {m: getattr(score, m)._asdict() for m in ("r1", "r2", "rl")}
    with pytest.raises(checks.CheckFailed):
        checks.check_rouge(instances, score)


def test_top_fraction_keeps_ceil_and_breaks_ties_by_position():
    assert checks.top_fraction([0.5, 0.9, 0.9, 0.1] * 5) == [1, 2, 5]
    assert len(checks.top_fraction([0.0] * 7)) == math.ceil(0.15 * 7)
