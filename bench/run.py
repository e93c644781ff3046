"""notesum pipeline benchmark.

    python3 bench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from anywhere; the program is imported from ``src/`` next to this
directory. The command generates the workload's inputs from the seed,
runs set-up and the timed rounds in a fresh worker process
(``worker.py``), checks every output with code of its own
(``checks.py``), checks determinism, and prints one JSON object as its
last line of output: the end-to-end metrics with ``--trace 0``, the
per-layer metrics with ``--trace 1``. Scratch files live under
``.bench_runs/`` at the repository root and are removed at the end,
except the span report of a traced run.

Exit codes: 0 checked and measured, 1 an output check failed, 2 the
program or the worker could not run.
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import json
import logging
import os
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

# One process, one thread: numerical libraries must not fan out.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import calibration as calibration_mod  # noqa: E402
import checks  # noqa: E402
import gen  # noqa: E402

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_runs"
SETUP_REPS = 7
WORKER_GRACE_S = 150

WORKLOADS = ("pretrain-bigdict", "pretrain-standoff", "augment", "filter-eval")

END_TO_END_UNITS = {"setup_s": "s", "items_per_s": "1/s", "peak_rss_mb": "MB"}

# Per-layer metrics: (name, unit, source). Sources: ("setup", key) is the
# median set-up time of that part; ("self", span) the span's self time
# and ("total", span) its inclusive time, per item; ("count", key) and
# ("calls", span) per item; ("distinct", key) a count over the run.
PER_LAYER = [
    ("annotation.index_build_s", "s", ("setup", "index_build")),
    ("annotation.standoff_load_s", "s", ("setup", "standoff_load")),
    ("annotation.umls_s", "s/item", ("total", "annotation.umls")),
    ("annotation.i2b2_s", "s/item", ("total", "annotation.i2b2")),
    ("annotation.windows_scored", "1/item", ("count", "annotation.windows_scored")),
    ("annotation.candidates_scored", "1/item", ("count", "annotation.candidates_scored")),
    ("annotation.spans", "1/item", ("count", "annotation.spans")),
    ("text.segment_s", "s/item", ("self", "text.segment")),
    ("text.tokenize_s", "s/item", ("self", "text.tokenize")),
    ("masking.policy_s", "s/item", ("self", "masking.policy")),
    ("masking.rewrite_s", "s/item", ("self", "masking.rewrite")),
    ("masking.masks", "1/item", ("count", "masking.masks")),
    ("corpus.read_s", "s/item", ("self", "corpus.read")),
    ("corpus.write_s", "s/item", ("self", "corpus.write")),
    ("augment.lm_build_s", "s", ("setup", "lm_build")),
    ("augment.lm_rss_mb", "MB", ("worker", "lm_rss_mb")),
    ("augment.lm_s", "s/item", ("self", "augment.lm")),
    ("augment.lm_calls", "1/item", ("calls", "augment.lm")),
    ("augment.debias_s", "s/item", ("self", "augment.debias")),
    ("augment.generate_s", "s/item", ("self", "augment.generate")),
    ("augment.decode_steps", "1/item", ("count", "augment.decode_steps")),
    ("augment.select_terms_s", "s/item", ("self", "augment.select_terms")),
    ("augment.prompt_s", "s/item", ("self", "augment.prompt")),
    ("augment.pairs", "1/item", ("count", "augment.pairs")),
    ("augment.term_rejects", "1/item", ("count", "augment.term_rejects")),
    ("augment.distinct_generations", "count", ("distinct", "augment.distinct_generations")),
    ("augment.write_s", "s/item", ("self", "augment.write")),
    ("augment.read_pairs_s", "s/item", ("self", "augment.read_pairs")),
    ("filtering.embedder_load_s", "s", ("setup", "embedder_load")),
    ("filtering.embedding_s", "s/item", ("self", "filtering.embedding")),
    ("filtering.trigram_s", "s/item", ("self", "filtering.trigram")),
    ("filtering.select_s", "s/item", ("self", "filtering.select")),
    ("filtering.kept", "1/item", ("count", "filtering.kept")),
    ("dataset.assemble_s", "s/item", ("self", "dataset.assemble")),
    ("dataset.instances", "1/item", ("count", "dataset.instances")),
    ("dataset.skipped", "1/item", ("count", "dataset.skipped")),
    ("rouge.evaluate_s", "s/item", ("self", "rouge.evaluate")),
    ("rouge.lcs_cells", "1/item", ("count", "rouge.lcs_cells")),
]


class RunError(Exception):
    """The program or the worker could not run (exit code 2)."""


def digest(value) -> str:
    return hashlib.sha256(json.dumps(value, sort_keys=True).encode()).hexdigest()


def read_jsonl(path) -> list[dict]:
    with open(path, encoding="utf-8") as fh:
        return [json.loads(line) for line in fh if line.strip()]


def import_notesum():
    if not (SRC / "notesum" / "__init__.py").is_file():
        raise RunError(f"no notesum package under {SRC}")
    sys.path.insert(0, str(SRC))
    import notesum

    if Path(notesum.__file__).resolve().parent != (SRC / "notesum").resolve():
        raise RunError(f"imported notesum from {notesum.__file__}, not from {SRC}")
    return notesum


# --------------------------------------------------------------------------
# Inputs per workload: write the files, return the job and what the checks
# need to know about the inputs.

def prepare(workload: str, seed: int, sizes: gen.Sizes, rundir: Path) -> tuple[dict, object]:
    job: dict = {"workload": workload, "seed": seed}
    if workload == "pretrain-bigdict":
        inp = gen.bigdict_input(seed, sizes)
        gen.write_lines(rundir / "umls.txt", inp.umls_terms)
        gen.write_lines(rundir / "i2b2.txt", inp.i2b2_terms)
        job.update(umls=str(rundir / "umls.txt"), i2b2=str(rundir / "i2b2.txt"))
    elif workload == "pretrain-standoff":
        inp = gen.standoff_input(seed, sizes)
        gen.write_lines(rundir / "umls.txt", inp.umls_terms)
        gen.write_lines(rundir / "standoff.tsv", inp.records)
        job.update(umls=str(rundir / "umls.txt"), standoff=str(rundir / "standoff.tsv"))
    elif workload == "augment":
        inp = gen.augment_input(seed, sizes)
        job["jobs"] = [sum(len(n.sources) for n in batch) for batch in inp.batches]
    else:
        inp = gen.filter_input(seed, sizes)
        gen.write_section_notes(rundir / "notes.jsonl", inp.notes)
        with open(rundir / "pairs.jsonl", "w", encoding="utf-8") as fh:
            fh.writelines(json.dumps(p) + "\n" for p in inp.pairs)
        gen.write_lines(rundir / "vectors.txt", inp.vectors)
        job.update(
            notes=str(rundir / "notes.jsonl"), pairs=str(rundir / "pairs.jsonl"),
            vectors=str(rundir / "vectors.txt"), target_size=gen.target_size(inp),
        )
    if hasattr(inp, "batches"):
        job["batches"] = []
        for b, batch in enumerate(inp.batches):
            path = rundir / f"batch-{b:03d}.jsonl"
            (gen.write_section_notes if workload == "augment" else gen.write_notes)(path, batch)
            job["batches"].append(str(path))
    return job, inp


def first_batch_sizes(sizes: gen.Sizes) -> gen.Sizes:
    return dataclasses.replace(sizes, big_batches=1, so_batches=1, aug_batches=1, fe_notes=4)


def input_digest(workload: str, seed: int, sizes: gen.Sizes) -> str:
    """Digest of the dictionaries and first batch a seed generates."""
    make = {
        "pretrain-bigdict": gen.bigdict_input, "pretrain-standoff": gen.standoff_input,
        "augment": gen.augment_input, "filter-eval": gen.filter_input,
    }[workload]
    inp = make(seed, first_batch_sizes(sizes))
    return digest(dataclasses.asdict(inp))


def run_worker(job: dict, rundir: Path, trace: int) -> dict:
    (rundir / "job.json").write_text(json.dumps(dict(job, trace=trace, setup_reps=SETUP_REPS)))
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    try:
        proc = subprocess.run(
            [sys.executable, str(BENCH_DIR / "worker.py"), str(rundir)],
            cwd=ROOT, env=env, timeout=job["seconds"] + WORKER_GRACE_S,
        )
    except subprocess.TimeoutExpired:
        raise RunError("worker did not finish in time") from None
    if proc.returncode != 0:
        raise RunError(f"worker exited with {proc.returncode}")
    result = json.loads((rundir / "result.json").read_text())
    if Path(result["notesum"]).resolve().parent != (SRC / "notesum").resolve():
        raise RunError(f"worker imported notesum from {result['notesum']}")
    return result


# --------------------------------------------------------------------------
# Checks per workload. Each returns a dict of facts for the log; a failed
# check raises checks.CheckFailed.

def rerun_first_round(job: dict, rundir: Path, **overrides) -> dict:
    """Round 0 again, in this process and untraced."""
    import worker

    rerun = rundir / "rerun"
    rerun.mkdir(exist_ok=True)
    work = worker.WORKLOADS[job["workload"]](dict(job, **overrides), rerun, None)
    work.setup()
    items, info = work.round(0)
    info["digest"] = work.digest(info)
    return info


def check_rounds(result: dict) -> None:
    first: dict[int, str] = {}
    for info in result["rounds"]:
        batch = info.get("batch", 0)
        checks.require(first.setdefault(batch, info["digest"]) == info["digest"], f"batch {batch} gave different bytes on a later round")


def verify_pretrain(job, inp, result, rundir, sizes) -> dict:
    from notesum import annotation
    from notesum.text import tokenize

    check_rounds(result)
    facts = {"sentences_checked": 0}
    masked_all, sentences_all = [], []
    for info in result["rounds"][: len(inp.batches)]:
        notes = inp.batches[info["batch"]]
        checks.require(info["rows"] == len(notes) and info["skipped"] == 0, f"batch {info['batch']}: notes lost or skipped")
        masked = checks.check_masked_batch(notes, read_jsonl(info["out"]), info["masks"], info["sentences"])
        for note, per_sentence in zip(notes, masked):
            masked_all.extend(per_sentence)
            sentences_all.extend(note.sentences)
    facts["sentences_checked"] = len(sentences_all)

    umls = annotation.load_dictionary(job["umls"], annotation.UMLS_CHANNEL)
    matchers = [(umls, checks.BruteForceMatcher(inp.umls_terms, "UMLS"))]
    if "i2b2" in job:
        i2b2 = annotation.load_dictionary(job["i2b2"], annotation.I2B2_CHANNEL)
        matchers.append((i2b2, checks.BruteForceMatcher(inp.i2b2_terms, "I2B2")))
    rng = gen.stream(job["seed"], "check", "brute-force")
    population = [s for n in inp.batches[0] for s in n.sentences]
    sample = rng.sample(population, min(sizes.brute_force_sentences, len(population)))
    for sent in sample:
        for dictionary, matcher in matchers:
            checks.check_spans(matcher, sent.text.split(" "), annotation.annotate(tokenize(sent.text), dictionary))
        if "standoff" in job:
            # the generator's spans are what annotation must find
            got = [(s.start, s.end) for s in annotation.annotate(tokenize(sent.text), umls)]
            checks.require(got == sent.umls, f"UMLS spans {got} differ from the inserted terms {sent.umls}")
    facts["brute_force_sentences"] = len(sample)

    if "standoff" in job:
        index = annotation.StandoffIndex.load(job["standoff"])
        for note in inp.batches[0]:
            for idx, sent in enumerate(note.sentences):
                got = annotation.annotate_sentence(sent.text, umls, index, doc_id=note.doc_id, sentence_index=idx)
                checks.require(
                    [(s.start, s.end) for s in got.i2b2_spans] == sent.i2b2,
                    f"{note.doc_id}/{idx}: I2B2 spans differ from the standoff records",
                )
        facts.update(checks.check_policy(sentences_all, masked_all))
        two = rerun_first_round(job, rundir, workers=2)
        checks.require(two["digest"] == result["rounds"][0]["digest"], "workers=2 gave different bytes than workers=1")
    return facts


def verify_augment(job, inp, result, rundir, sizes) -> dict:
    from notesum import augment

    check_rounds(result)
    produced = {}
    for info in result["rounds"][: len(inp.batches)]:
        pairs = read_jsonl(info["out"])
        checks.check_pairs(inp.batches[info["batch"]], pairs)
        produced[info["batch"]] = pairs

    notes = [n for batch in inp.batches for n in batch]
    texts = [n.assessment for n in notes] + [n.summary for n in notes]
    lm = augment.CueBigramLM.from_corpus(texts)
    cfg = augment.GenerationConfig(seed=job["seed"])
    folder = Path(augment.__file__).parent / "templates"
    templates = {
        (tag, arity): (folder / f"label{tag}_terms{arity}.txt").read_text(encoding="utf-8").strip()
        for tag in ("1", "0.5", "0") for arity in (0, 1, 2)
    }
    jobs, sample_ids = [], set()
    for note in inp.batches[0]:
        if len(jobs) >= sizes.decoder_jobs:
            break
        sample_ids.add(note.doc_id)
        jobs.extend((note.doc_id, s, augment.select_terms(s, note.summary)) for s in note.sources)
    pairs = [p for p in produced[0] if p["doc_id"] in sample_ids]
    decoded = checks.check_decoder(lm, templates, jobs, pairs, cfg.lam, cfg.max_output_tokens)
    return {"decoder_jobs": decoded, "lm_vocabulary": result["lm_vocabulary"]}


def verify_filter(job, inp, result, rundir, sizes) -> dict:
    check_rounds(result)
    scored = json.loads(Path(result["scored"]).read_text())
    vectors = checks.parse_vectors(inp.vectors)
    checks.check_scores(inp.pairs, scored["scores"], vectors)
    kept = read_jsonl(result["rounds"][-1]["out"])
    checks.check_kept(inp.pairs, scored["scores"], kept)
    unusable = checks.check_assembly(inp.notes, kept, scored["instances"], job["target_size"])
    checks.check_rouge(scored["instances"], scored["rouge"])
    return {"pairs": len(inp.pairs), "kept": len(kept), "kept_unusable": unusable, "instances": len(scored["instances"])}


VERIFY = {
    "pretrain-bigdict": verify_pretrain,
    "pretrain-standoff": verify_pretrain,
    "augment": verify_augment,
    "filter-eval": verify_filter,
}


# --------------------------------------------------------------------------
# Metrics.

def speed(calibration: float) -> float:
    """Machine speed relative to the reference: above 1 when faster."""
    return calibration_mod.REFERENCE_S / calibration


def end_to_end(result: dict, normalized: bool = True) -> dict:
    """Median set-up time and median round rate, expressed at the reference
    speed (``normalized``) or as measured."""
    def f(calibration):
        return speed(calibration) if normalized else 1.0

    rates = [r["items"] / (r["seconds"] * f(r["calibration"])) for r in result["rounds"]]
    setups = [sum(s["parts"].values()) * f(s["calibration"]) for s in result["setups"]]
    values = {
        "setup_s": statistics.median(setups),
        "items_per_s": statistics.median(rates),
        "peak_rss_mb": result["peak_rss_mb"],
    }
    return {k: {"value": v, "unit": END_TO_END_UNITS[k]} for k, v in values.items()}


def per_layer(result: dict) -> dict:
    """Per-layer metrics of a traced run; times at the reference speed."""
    items = sum(r["items"] for r in result["rounds"])
    run_speed = statistics.median(speed(r["calibration"]) for r in result["rounds"])
    spans = result["trace"]["spans"]
    metrics = {}
    for name, unit, (kind, key) in PER_LAYER:
        if kind == "setup":
            value = statistics.median(s["parts"].get(key, 0.0) * speed(s["calibration"]) for s in result["setups"])
        elif kind == "worker":
            value = result.get(key) or 0.0
        elif kind == "distinct":
            value = result["trace"]["distinct"].get(key, 0)
        elif kind == "count":
            value = result["trace"]["counts"].get(key, 0) / items
        elif kind == "calls":
            value = spans.get(key, {}).get("calls", 0) / items
        else:
            value = spans.get(key, {}).get(f"{kind}_s", 0.0) * run_speed / items
        metrics[name] = {"value": value, "unit": unit}
    return metrics


def run(workload: str, seed: int, seconds: float, trace: int, sizes: gen.Sizes = gen.FULL) -> dict:
    """Generate, measure, check; returns the result object to print."""
    import_notesum()
    rundir = WORK / f"{workload}-{seed}-{os.getpid()}"
    shutil.rmtree(rundir, ignore_errors=True)
    rundir.mkdir(parents=True)
    try:
        job, inp = prepare(workload, seed, sizes, rundir)
        job["seconds"] = seconds
        result = run_worker(job, rundir, trace)
        attempted = sum(r["items"] for r in result["rounds"])
        out = {"correct": True, "attempted": attempted, "failed": 0}
        try:
            facts = VERIFY[workload](job, inp, result, rundir, sizes)
            again = rerun_first_round(job, rundir)
            checks.require(
                again["digest"] == result["rounds"][0]["digest"],
                "the same seed gave different output bytes on a second run"
                + (" (traced against untraced)" if trace else ""),
            )
            checks.require(input_digest(workload, seed, sizes) != input_digest(workload, seed + 1, sizes), "another seed gave the same inputs")
            facts["output_sha256"] = result["rounds"][0]["digest"]
            facts["rounds"] = len(result["rounds"])
            print(json.dumps({"checks": "passed", **facts}))
        except checks.CheckFailed as exc:
            print(f"check failed: {exc}", file=sys.stderr)
            out["correct"] = False
        if trace:
            (WORK / f"trace-{workload}-{seed}.json").write_text(json.dumps(result["trace"], indent=1))
        print(json.dumps({
            "traced" if trace else "untraced": {k: v["value"] for k, v in end_to_end(result).items()},
            "as_measured": {k: v["value"] for k, v in end_to_end(result, normalized=False).items()},
            "calibration_s": statistics.median(r["calibration"] for r in result["rounds"]),
        }))
        out["metrics"] = per_layer(result) if trace else end_to_end(result)
        return out
    finally:
        shutil.rmtree(rundir, ignore_errors=True)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # the in-process re-runs would print assembly's per-pair warnings
    logging.basicConfig(level=logging.ERROR)
    try:
        out = run(args.workload, args.seed, args.seconds, args.trace)
    except RunError as exc:
        print(f"benchmark could not run: {exc}", file=sys.stderr)
        return 2
    print(json.dumps(out))
    return 0 if out["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
