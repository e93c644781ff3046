"""Walkthrough of the concept-masking objective on a single note.

Shows the two annotation channels, the per-sentence masking policy, the
sentinel rewrite, and the round trip back to the original bytes.
"""

import numpy as np

from notesum.annotation import I2B2_CHANNEL, UMLS_CHANNEL, TermDictionary, annotate_sentence
from notesum.masking import MaskPolicyConfig, apply_mask, choose_mask_source, reconstruct
from notesum.text import segment_sentences

note = "pt on CPAP overnight . noted sat drifts twice .\nplan to continue monitoring ."

umls = TermDictionary(["CPAP", "heart failure", "anemia"], UMLS_CHANNEL)
i2b2 = TermDictionary(["sat drifts", "lasix"], I2B2_CHANNEL)

print("document:")
print(f"  {note!r}")

sentences = []
for idx, (text, start) in enumerate(segment_sentences(note)):
    annotated = annotate_sentence(text, umls, i2b2, sentence_index=idx, start=start)
    sentences.append(annotated)
    print(f"\nsentence {idx}: {text!r}")
    for span in annotated.umls_spans:
        print(f"  UMLS hit  {span.surface!r}  (tokens {span.start}..{span.end}, score {span.score:.3f})")
    for span in annotated.i2b2_spans:
        print(f"  i2b2 hit  {span.surface!r}  (tokens {span.start}..{span.end}, score {span.score:.3f})")

# one RNG stream per document keeps corpus output reproducible
cfg = MaskPolicyConfig(seed=13)
rng = np.random.default_rng(13)
decisions = [choose_mask_source(s, cfg, rng) for s in sentences]

print("\npolicy decisions:")
for idx, decision in enumerate(decisions):
    print(f"  sentence {idx}: {decision.kind.name}")

example = apply_mask(note, sentences, decisions, doc_id="demo-1")
print("\nmasked input:")
print(f"  {example.input_text!r}")
print("pseudo-summary target:")
print(f"  {example.target_text!r}")

restored = reconstruct(example.input_text, example.target_text)
print(f"\nround trip restores the original bytes: {restored == note}")
