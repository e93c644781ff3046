"""Instruction-driven paraphrase generation with self-debiased decoding,
then similarity filtering of the candidates.

A cue-conditioned bigram model stands in for a real LLM: under the
'same' cue it prefers clinical continuations, under the 'different' cue
it strongly prefers the word 'weather'. Self-debiasing subtracts the
counter instruction's probabilities, so 'weather' never surfaces.
"""

from notesum.augment import (
    CueBigramLM,
    GenerationConfig,
    LabelId,
    TemplateSet,
    generate,
    instantiate_template,
    select_terms,
    validate_terms,
)
from notesum.filtering import (
    EmbeddingScorer,
    OneHotEmbedding,
    filter_top_fraction,
    score_pair,
    trigram_scorer,
)

source = "pt stable on cpap overnight ."
problem_list = "cpap dependence\nanemia"

terms = select_terms(source, problem_list)
print(f"source:       {source!r}")
print(f"problem list: {problem_list!r}")
print(f"shared terms to preserve: {terms}")

templates = TemplateSet.defaults()
target_prompt = instantiate_template(templates[LabelId.SAME_THING, len(terms)], terms, source)
counter_prompt = instantiate_template(templates[LabelId.DIFFERENT_TOPICS, len(terms)], terms, source)
print(f"\ntarget prompt:\n  {target_prompt}")
print(f"counter prompt:\n  {counter_prompt}")

vocab = ["pt", "remains", "on", "cpap", "weather", "overnight", "."]
table = {
    ("same", "2:"): {"pt": 2.0},
    ("same", "pt"): {"remains": 2.0},
    ("same", "remains"): {"on": 2.0},
    # the trap: without debiasing, 'weather' narrowly beats 'cpap' here
    ("same", "on"): {"weather": 2.0, "cpap": 1.5},
    ("same", "weather"): {"overnight": 2.0},
    ("same", "cpap"): {"overnight": 2.0},
    ("same", "overnight"): {".": 2.0},
}
for prev in vocab + ["2:"]:
    table[("different", prev)] = {"weather": 20.0, ".": 0.5}
lm = CueBigramLM(vocab, table, cues={"same", "different"})

for lam in (0.0, 1.0):
    cfg = GenerationConfig(max_output_tokens=8, lam=lam)
    text = generate(lm, target_prompt, [counter_prompt], cfg)
    kept = validate_terms(text, terms)
    print(f"\nlambda={lam}: generated {text!r}  (terms preserved: {kept})")

# score a batch of candidates and keep the top fraction
candidates = [
    "pt stable on cpap overnight .",
    "patient remains comfortable on cpap .",
    "cpap continued, no events .",
    "totally unrelated sentence about weather .",
    "pt stable .",
]
scorers = {"embedding": EmbeddingScorer(OneHotEmbedding()), "trigram": trigram_scorer}
weights = {"embedding": 0.5, "trigram": 0.5}
scored = []
for text in candidates:
    combined = score_pair(text, source, scorers, weights)["combined"]
    scored.append((text, combined))
    print(f"score {combined:.3f}  {text!r}")

kept = filter_top_fraction(scored, keep_fraction=0.4)
print(f"\nkept after the 0.4 cut: {kept}")
