"""One workload's set-up and timed rounds, in a fresh process.

Usage: ``python3 bench/worker.py <run directory>``. The run directory
holds ``job.json`` and the generated inputs, written by ``run.py``; this
process writes its outputs and ``result.json`` there. It runs alone so
that its peak resident memory is the workload's own.

Set-up is repeated ``setup_reps`` times, each time from scratch. The
timed phase then runs whole rounds until their summed time reaches the
requested seconds; everything outside a round (digests, bookkeeping) is
untimed. The calibration loop is timed around every set-up and between
rounds, so ``run.py`` can express each time at the reference speed.
"""

from __future__ import annotations

import gc
import hashlib
import json
import logging
import resource
import sys
from pathlib import Path
from time import perf_counter

import tracing
from calibration import calibrate


def current_rss_mb() -> float:
    with open("/proc/self/statm") as fh:
        pages = int(fh.read().split()[1])
    return pages * resource.getpagesize() / 2**20


def file_digest(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


class Workload:
    def __init__(self, job: dict, rundir: Path, tracer):
        self.job = job
        self.rundir = rundir
        self.tracer = tracer

    def iterate(self, name, iterable):
        return self.tracer.iterate(name, iterable) if self.tracer else iterable

    def timed_call(self, times: dict, name: str, fn, *args):
        start = perf_counter()
        value = fn(*args)
        times[name] = times.get(name, 0.0) + perf_counter() - start
        return value

    def release(self) -> None:
        """Drop the objects a previous set-up made."""

    def finish(self) -> dict:
        return {}

    def digest(self, info: dict) -> str:
        return file_digest(Path(info["out"]))


class Pretrain(Workload):
    """build-pretrain over one batch of notes per round."""

    def release(self):
        self.umls = self.i2b2 = None

    def setup(self) -> dict:
        from notesum import annotation

        times: dict[str, float] = {}
        self.umls = self.timed_call(
            times, "index_build", annotation.load_dictionary, self.job["umls"], annotation.UMLS_CHANNEL
        )
        if "standoff" in self.job:
            self.i2b2 = self.timed_call(times, "standoff_load", annotation.StandoffIndex.load, self.job["standoff"])
        else:
            self.i2b2 = self.timed_call(
                times, "index_build", annotation.load_dictionary, self.job["i2b2"], annotation.I2B2_CHANNEL
            )
        return times

    def round(self, k: int) -> tuple[int, dict]:
        from notesum import corpus
        from notesum.masking import MaskPolicyConfig

        batch = k % len(self.job["batches"])
        out = self.rundir / f"out-{batch:03d}.jsonl"
        notes = self.iterate("corpus.read", corpus.read_notes(self.job["batches"][batch]))
        examples, stats = corpus.build_pretrain_corpus(
            notes, self.umls, self.i2b2, MaskPolicyConfig(seed=self.job["seed"]),
            workers=self.job.get("workers", 1),
        )
        corpus.write_corpus(self.iterate("corpus.build", examples), out)
        return stats.sentences_total, {
            "batch": batch, "masks": stats.masks_total, "sentences": stats.sentences_total,
            "rows": stats.total_rows, "skipped": stats.skipped, "out": str(out),
        }


class Augment(Workload):
    """augment_notes over one batch of section notes per round."""

    def __init__(self, job, rundir, tracer):
        from notesum import dataset

        super().__init__(job, rundir, tracer)
        self.batches = [list(dataset.read_section_notes(p)) for p in job["batches"]]
        self.lm_rss_mb = None

    def release(self):
        self.lm = self.templates = None

    def setup(self) -> dict:
        from notesum import augment

        notes = [n for batch in self.batches for n in batch]
        texts = [n.assessment or "" for n in notes] + [n.summary or "" for n in notes]
        texts = [t for t in texts if t]
        times: dict[str, float] = {}
        before = current_rss_mb()
        self.lm = self.timed_call(times, "lm_build", augment.CueBigramLM.from_corpus, texts)
        if self.lm_rss_mb is None:
            self.lm_rss_mb = current_rss_mb() - before
        self.templates = self.timed_call(times, "template_load", augment.TemplateSet.defaults)
        return times

    def round(self, k: int) -> tuple[int, dict]:
        from notesum import augment

        batch = k % len(self.batches)
        out = self.rundir / f"out-{batch:03d}.jsonl"
        cfg = augment.GenerationConfig(seed=self.job["seed"])
        pairs = augment.augment_notes(self.batches[batch], self.lm, self.templates, cfg)
        written = augment.write_pairs(self.iterate("augment.augment_notes", pairs), out)
        jobs = self.job["jobs"][batch]
        return jobs, {"batch": batch, "pairs": written, "out": str(out)}

    def finish(self) -> dict:
        return {"lm_rss_mb": self.lm_rss_mb, "lm_vocabulary": len(self.lm.vocabulary())}


class FilterEval(Workload):
    """filter, assemble (ASO) and ROUGE over the whole pair file per round."""

    def __init__(self, job, rundir, tracer):
        from notesum import dataset

        super().__init__(job, rundir, tracer)
        self.notes = list(dataset.read_section_notes(job["notes"]))

    def release(self):
        self.embedder = None

    def setup(self) -> dict:
        from notesum import filtering

        times: dict[str, float] = {}
        self.embedder = self.timed_call(times, "embedder_load", filtering.make_embedder, "file:" + self.job["vectors"])
        return times

    def round(self, k: int) -> tuple[int, dict]:
        from notesum import augment, dataset, filtering, rouge

        pairs = list(self.iterate("augment.read_pairs", augment.read_pairs(self.job["pairs"])))
        fcfg = filtering.FilterConfig()
        scorers = {
            "embedding": filtering.EmbeddingScorer(self.embedder),
            "trigram": filtering.trigram_scorer,
        }
        scored = []
        for pair in pairs:
            pair.scores = filtering.score_pair(pair.generated, pair.source, scorers, fcfg.weights)
            scored.append((pair, pair.scores["combined"]))
        kept = filtering.filter_top_fraction(scored, fcfg.keep_fraction)
        kept_path = self.rundir / "kept.jsonl"
        augment.write_pairs(kept, kept_path)
        instances = dataset.assemble_training_set(
            self.notes, kept, target_size=self.job["target_size"], mode=dataset.CompositionMode.ASO
        )
        score = rouge.evaluate_corpus([i.input_text for i in instances], [i.target_text for i in instances])
        self.last = (pairs, instances, score)
        return len(pairs), {"kept": len(kept), "instances": len(instances), "out": str(kept_path)}

    def finish(self) -> dict:
        pairs, instances, score = self.last
        path = self.rundir / "scored.json"
        path.write_text(json.dumps({
            "scores": [p.scores for p in pairs],
            "instances": [
                {"doc_id": i.doc_id, "input": i.input_text, "target": i.target_text,
                 "provenance": i.provenance.value}
                for i in instances
            ],
            "rouge": {m: getattr(score, m)._asdict() for m in ("r1", "r2", "rl")},
        }))
        return {"scored": str(path)}

    def digest(self, info: dict) -> str:
        pairs, instances, score = self.last
        h = hashlib.sha256(Path(info["out"]).read_bytes())
        for inst in instances:
            h.update(json.dumps([inst.doc_id, inst.input_text, inst.target_text, inst.provenance.value]).encode())
        h.update(repr(score).encode())
        return h.hexdigest()


WORKLOADS = {
    "pretrain-bigdict": Pretrain,
    "pretrain-standoff": Pretrain,
    "augment": Augment,
    "filter-eval": FilterEval,
}


def main(rundir: Path) -> None:
    job = json.loads((rundir / "job.json").read_text())
    # as the command line does, but into a file: assembly warns per skipped pair
    logging.basicConfig(filename=rundir / "notesum.log", level=logging.INFO)
    tracer = tracing.Tracer() if job["trace"] else None
    patches = tracing.install(tracer) if tracer else None
    work = WORKLOADS[job["workload"]](job, rundir, tracer)

    setups = []
    for _ in range(job["setup_reps"]):
        work.release()
        gc.collect()
        before = calibrate()
        parts = work.setup()
        setups.append({"parts": parts, "calibration": (before + calibrate()) / 2})

    rounds = []
    timed = 0.0
    k = 0
    cal = calibrate()
    while timed < job["seconds"]:
        start = perf_counter()
        items, info = work.round(k)
        seconds = perf_counter() - start
        timed += seconds
        after = calibrate()
        info.update(items=items, seconds=seconds, calibration=(cal + after) / 2)
        cal = after
        info["digest"] = work.digest(info)
        rounds.append(info)
        k += 1

    if patches:
        patches.restore()
    import notesum

    result = {
        "notesum": notesum.__file__,
        "setups": setups,
        "rounds": rounds,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "trace": tracer.report() if tracer else None,
    }
    result.update(work.finish())
    (rundir / "result.json").write_text(json.dumps(result))


if __name__ == "__main__":
    main(Path(sys.argv[1]))
