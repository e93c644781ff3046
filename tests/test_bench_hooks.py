"""The benchmark's tracer wraps notesum functions by name; a rename or a
deletion there must fail here, not only in a traced benchmark run."""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

# Runs in a fresh interpreter so a half-applied patch set cannot leak into
# the other tests.
SCRIPT = """
import sys
sys.path.insert(0, "bench")
import tracing
from notesum import augment, corpus

before = (augment.generate_pair, augment.segment_sentences, corpus.apply_mask,
          augment.CueBigramLM.next_token_distribution)
patches = tracing.install(tracing.Tracer())
assert augment.generate_pair is not before[0]
patches.restore()
after = (augment.generate_pair, augment.segment_sentences, corpus.apply_mask,
         augment.CueBigramLM.next_token_distribution)
assert after == before, "restore left a wrapper in place"
print("ok")
"""


# A wrapper on a name the pipeline no longer calls would read 0 without
# failing anything, so the matcher's counters are checked for life.
MATCHER_SCRIPT = """
import sys
sys.path.insert(0, "bench")
import tracing
from notesum import annotation
from notesum.text import tokenize

tracer = tracing.Tracer()
patches = tracing.install(tracer)
try:
    d = annotation.TermDictionary(
        ["heart failure", "renal failure", "atrial fibrillation"], annotation.UMLS_CHANNEL)
    spans = [annotation.annotate(tokenize(s), d) for s in
             ("worsening heart failures overnight", "renal failur noted", "new atrial fibrilation")]
finally:
    patches.restore()
assert all(spans), spans
assert tracer.calls["annotation.best_among"] > 0, tracer.calls
assert tracer.counts["annotation.windows_scored"] > 0, tracer.counts
print("ok")
"""


# The two augment layers whose time the sparse decode step moves.
AUGMENT_SCRIPT = """
import sys
sys.path.insert(0, "bench")
import tracing
from notesum import augment

tracer = tracing.Tracer()
patches = tracing.install(tracer)
try:
    lm = augment.CueBigramLM.from_corpus(["pt stable on cpap overnight .", "cpap stable ."])
    augment.generate_pair(lm, "pt stable on cpap overnight .", "cpap", augment.TemplateSet.defaults(),
                          augment.GenerationConfig(max_output_tokens=5))
finally:
    patches.restore()
assert tracer.calls["augment.generate"] > 0, tracer.calls
assert tracer.calls["augment.select_terms"] > 0, tracer.calls
print("ok")
"""


def run_script(script):
    result = subprocess.run(
        [sys.executable, "-c", script],
        cwd=ROOT,
        env=dict(os.environ, PYTHONPATH=str(ROOT / "src")),
        capture_output=True, text=True, timeout=120,
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout.strip() == "ok"


def test_tracer_installs_and_restores_every_hook():
    run_script(SCRIPT)


def test_traced_matcher_counts_the_windows_it_scores():
    run_script(MATCHER_SCRIPT)


def test_traced_augment_counts_decoding_and_term_selection():
    run_script(AUGMENT_SCRIPT)
