"""Assemble a fine-tuning dataset from notes plus augmented pairs, then
score candidate summaries with the from-scratch ROUGE implementation.
"""

from notesum.augment import GeneratedPair, LabelId
from notesum.corpus import ProgressNote
from notesum.dataset import CompositionMode, assemble_training_set, compose_input
from notesum.rouge import evaluate_corpus, format_table

notes = [
    ProgressNote(
        doc_id=f"d{i}",
        assessment=f"pt with condition {i} improving . continue current plan .",
        subjective="no new complaints",
        objective="afebrile, vitals stable",
        summary=f"condition {i}",
    )
    for i in range(4)
]

print("input composition for one note:")
print(f"  A:   {compose_input(notes[0], CompositionMode.A)!r}")
print(f"  ASO: {compose_input(notes[0], CompositionMode.ASO)!r}")

pairs = [
    GeneratedPair(
        source="pt with condition 0 improving .",
        generated="patient shows improvement of condition 0 .",
        label=LabelId.SAME_THING,
        required_terms=["condition 0"],
        scores={"combined": 0.9},
        doc_id="d0",
    ),
    GeneratedPair(
        source="pt with condition 1 improving .",
        generated="condition 1 on the mend .",
        label=LabelId.SAME_THING,
        required_terms=["condition 1"],
        scores={"combined": 0.4},
        doc_id="d1",
    ),
]

instances = assemble_training_set(notes, pairs, target_size=5, mode=CompositionMode.ASO)
print(f"\nassembled {len(instances)} instances (4 originals + best augmented):")
for inst in instances:
    print(f"  [{inst.provenance.value:9}] {inst.doc_id}: {inst.input_text.splitlines()[0][:60]}")

predictions = ["the cat sat", "problem list unchanged"]
references = ["the cat ate", "problem list unchanged"]
score = evaluate_corpus(predictions, references)
print("\nROUGE over the toy corpus:")
print(format_table(score))
