"""Spans and counters recorded around notesum's public functions.

Nothing under ``src/`` knows about tracing: ``install`` replaces the
module attributes through which the pipeline calls each layer with
wrappers, and ``restore`` puts the originals back. A wrapper opens a span
on entry and closes it on exit; a span's self time is its duration minus
the time of the spans opened inside it. Generators get one span per
``next()``, so lazy stages are charged to the layer that does the work.

Spans are aggregated in memory by (parent, name) as they close, which
keeps the cost per call constant whatever the run length.
"""

from __future__ import annotations

import functools
from collections import Counter, defaultdict
from time import perf_counter


class Tracer:
    def __init__(self):
        self.self_time: dict[str, float] = defaultdict(float)
        self.total_time: dict[str, float] = defaultdict(float)
        self.calls: Counter = Counter()
        self.edges: Counter = Counter()
        self.counts: Counter = Counter()
        self.distinct: dict[str, set] = defaultdict(set)
        self._stack: list[list] = []

    def enter(self, name: str) -> None:
        self._stack.append([name, 0.0, perf_counter()])

    def exit(self) -> None:
        name, child_time, start = self._stack.pop()
        duration = perf_counter() - start
        self.self_time[name] += duration - child_time
        self.total_time[name] += duration
        self.calls[name] += 1
        if self._stack:
            parent = self._stack[-1]
            parent[1] += duration
            self.edges[(parent[0], name)] += 1
        else:
            self.edges[("", name)] += 1

    def wrap(self, name, fn, on_result=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            self.enter(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.exit()
            if on_result is not None:
                on_result(result, *args, **kwargs)
            return result

        return traced

    def iterate(self, name, iterable):
        """Yield from ``iterable``, charging each ``next()`` to ``name``."""
        iterator = iter(iterable)
        while True:
            self.enter(name)
            try:
                item = next(iterator)
            except StopIteration:
                return
            finally:
                self.exit()
            yield item

    def report(self) -> dict:
        return {
            "spans": {
                name: {
                    "calls": self.calls[name],
                    "self_s": self.self_time[name],
                    "total_s": self.total_time[name],
                }
                for name in sorted(self.calls)
            },
            "edges": [[p, c, n] for (p, c), n in sorted(self.edges.items())],
            "counts": dict(sorted(self.counts.items())),
            "distinct": {k: len(v) for k, v in sorted(self.distinct.items())},
        }


class Patches:
    """Attribute replacements that can be undone in reverse order."""

    def __init__(self):
        self._saved: list[tuple[object, str, object]] = []

    def set(self, owner, attr: str, value) -> None:
        self._saved.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def restore(self) -> None:
        while self._saved:
            owner, attr, value = self._saved.pop()
            setattr(owner, attr, value)


def install(tracer: Tracer) -> Patches:
    """Wrap every layer boundary the pipeline calls through."""
    from notesum import annotation, augment, corpus, dataset, filtering, rouge

    patches = Patches()
    counts = tracer.counts

    annotate = annotation.annotate

    def annotate_by_channel(tokens, dictionary, *args, **kwargs):
        name = "annotation.umls" if dictionary.name == annotation.UMLS_CHANNEL else "annotation.i2b2"
        tracer.enter(name)
        try:
            spans = annotate(tokens, dictionary, *args, **kwargs)
        finally:
            tracer.exit()
        counts["annotation.spans"] += len(spans)
        return spans

    patches.set(annotation, "annotate", annotate_by_channel)

    def on_best_among(score, dictionary, window, candidates, threshold):
        counts["annotation.windows_scored"] += 1
        counts["annotation.candidates_scored"] += len(candidates)

    patches.set(
        annotation.TermDictionary, "best_among",
        tracer.wrap("annotation.best_among", annotation.TermDictionary.best_among, on_best_among),
    )
    patches.set(
        annotation.StandoffIndex, "spans_for",
        tracer.wrap("annotation.i2b2", annotation.StandoffIndex.spans_for),
    )
    patches.set(annotation, "tokenize", tracer.wrap("text.tokenize", annotation.tokenize))
    for module in (corpus, augment):
        patches.set(module, "segment_sentences", tracer.wrap("text.segment", module.segment_sentences))
    patches.set(corpus, "choose_mask_source", tracer.wrap("masking.policy", corpus.choose_mask_source))

    def on_mask(example, *args, **kwargs):
        counts["masking.masks"] += example.num_masks

    patches.set(corpus, "apply_mask", tracer.wrap("masking.rewrite", corpus.apply_mask, on_mask))

    def on_generate(text, *args, **kwargs):
        counts["augment.decode_steps"] += len(text.split())
        tracer.distinct["augment.distinct_generations"].add(text)

    patches.set(augment, "generate", tracer.wrap("augment.generate", augment.generate, on_generate))
    patches.set(augment, "self_debias_step", tracer.wrap("augment.debias", augment.self_debias_step))
    patches.set(augment, "select_terms", tracer.wrap("augment.select_terms", augment.select_terms))
    patches.set(augment, "instantiate_template", tracer.wrap("augment.prompt", augment.instantiate_template))

    def on_pair(pair, *args, **kwargs):
        counts["augment.pairs" if pair is not None else "augment.term_rejects"] += 1

    patches.set(augment, "generate_pair", tracer.wrap("augment.generate_pair", augment.generate_pair, on_pair))
    patches.set(
        augment.CueBigramLM, "next_token_distribution",
        tracer.wrap("augment.lm", augment.CueBigramLM.next_token_distribution),
    )
    patches.set(
        filtering.EmbeddingScorer, "__call__",
        tracer.wrap("filtering.embedding", filtering.EmbeddingScorer.__call__),
    )
    # The benchmark calls these directly, so it looks them up on the
    # module at call time; wrapping them here covers those calls.
    patches.set(filtering, "trigram_scorer", tracer.wrap("filtering.trigram", filtering.trigram_scorer))

    def on_select(kept, *args, **kwargs):
        counts["filtering.kept"] += len(kept)

    patches.set(
        filtering, "filter_top_fraction",
        tracer.wrap("filtering.select", filtering.filter_top_fraction, on_select),
    )

    def on_assemble(instances, notes, augmented, *args, **kwargs):
        added = sum(1 for i in instances if i.provenance is dataset.Provenance.AUGMENTED)
        counts["dataset.instances"] += len(instances)
        counts["dataset.skipped"] += len(augmented) - added

    patches.set(
        dataset, "assemble_training_set",
        tracer.wrap("dataset.assemble", dataset.assemble_training_set, on_assemble),
    )

    def on_evaluate(score, predictions, references, *args, **kwargs):
        counts["rouge.lcs_cells"] += sum(
            len(p.lower().split()) * len(r.lower().split()) for p, r in zip(predictions, references)
        )

    patches.set(rouge, "evaluate_corpus", tracer.wrap("rouge.evaluate", rouge.evaluate_corpus, on_evaluate))
    patches.set(corpus, "write_corpus", tracer.wrap("corpus.write", corpus.write_corpus))
    patches.set(augment, "write_pairs", tracer.wrap("augment.write", augment.write_pairs))
    return patches
