"""Golden digests of the whole CLI chain on a fixed fixture.

The files under ``tests/golden/`` are fixed data: notes with exact and
near-miss mentions of the dictionary terms, a UMLS and an I2B2 term list,
a standoff file for the same notes, section notes for augmentation and
word vectors for the filter. Every output's SHA-256 is pinned, so a change
that alters any output byte fails here. A change that alters output on
purpose updates the digests it changes and says which, and why.
"""

import hashlib
from pathlib import Path

from notesum.cli import EXIT_OK, main

FIXTURE = Path(__file__).resolve().parent / "golden"

# Computed with the earlier matcher, which rebuilt each window's keys and
# counted its overlaps afresh; the one-pass matcher writes the same bytes.
# augment-half-lambda was computed with the dense decode step, which scored
# three vocabulary-wide rows; at lambda 0.5 the scores stay positive, so it
# pins the renormalized distribution that sampling reads, where the two
# other augment cases (lambda 1) fall back to the target's. filter-onehot
# pins the default embedder's scores, which the word-vector case does not.
# augment-sampled keeps the top k tokens by probability and then by lower
# id, so its ties among tokens of the shared probability, and the filter,
# filter-onehot and assemble outputs that read it, are the same on every
# CPU; they were computed with that rule.
GOLDEN = {
    "pretrain-dict": "4c43dfbd6b0e8c5bdeb47fae93f731609edcc0adc83cefeafe1265604f9025e1",
    "pretrain-dict-stats": "03d24059bef83862a30a47577aa3ebad51c0ca0d043e145a98853ccc2b506fbd",
    "pretrain-standoff": "d640441b192efbc359dd0aa870033a86341a2b56ac6040014cc5db0aa773b364",
    "pretrain-standoff-stats": "70d3a0bd8ce2ea256a12f2005233afb835602d01c0d5431327e05996d846b1ef",
    "augment-greedy": "7b2310c818877905c8e8235fc63c2db7fd1a9fe6c98b5d84de50a932ba4b4fc1",
    "augment-sampled": "8fdcad39aa676e3fee09b0356b0c33913c8f623f3791c5df30e8e9bf96ee6145",
    "augment-half-lambda": "edcad35a3de0f5ca20d5ea47755740449aa1dd275b46dfd9f6eb0f79b32e3286",
    "filter": "c80e0469a29ad5d95f6313dece6d9ee8203fbf2c7baedc889bbc1f320fa13d44",
    "filter-onehot": "dd1e7bdac9784f06b21cb7da910c9744b7d2d6c6c6cb21247573db50dea39e63",
    "assemble": "53018cd1d23e611eb98912b37e258e6f0e30ceecd2715127ab8b3819a997c464",
    "evaluate": "7a72332d429510321ae783e1d6b5f02a557e522621c630e4133b985f0baf66cc",
}


def run(*argv) -> None:
    assert main([str(a) for a in argv]) == EXIT_OK, argv


def chain_outputs(out: Path) -> dict[str, bytes]:
    """Run every CLI stage on the fixture. build-pretrain runs at one and
    at two workers, which must write the same bytes."""
    outputs: dict[str, bytes] = {}
    for name, source in (("pretrain-dict", "i2b2.txt"), ("pretrain-standoff", "standoff.tsv")):
        runs = []
        for workers in ("1", "2"):
            corpus, stats = out / f"{name}-{workers}.jsonl", out / f"{name}-{workers}.json"
            run("build-pretrain", "--input", FIXTURE / "notes.jsonl", "--umls-dict", FIXTURE / "umls.txt",
                "--i2b2-source", FIXTURE / source, "--seed", "5", "--workers", workers,
                "--out", corpus, "--stats", stats)
            runs.append((corpus.read_bytes(), stats.read_bytes()))
        assert runs[0] == runs[1], f"{name}: --workers 2 wrote other bytes than --workers 1"
        outputs[name], outputs[f"{name}-stats"] = runs[0]
    stages = {
        "augment-greedy": ["augment", "--train", FIXTURE / "sections.jsonl", "--seed", "5"],
        "augment-sampled": ["augment", "--train", FIXTURE / "sections.jsonl", "--seed", "5",
                            "--sampling", "--top-k", "3"],
        "augment-half-lambda": ["augment", "--train", FIXTURE / "sections.jsonl", "--seed", "5",
                                "--sampling", "--lambda", "0.5"],
        "filter": ["filter", "--in", out / "augment-sampled", "--keep", "0.5",
                   "--embedder", f"file:{FIXTURE / 'vectors.txt'}"],
        "filter-onehot": ["filter", "--in", out / "augment-sampled", "--keep", "0.5", "--embedder", "onehot"],
        "assemble": ["assemble", "--notes", FIXTURE / "sections.jsonl", "--augmented", out / "filter",
                     "--mode", "aso", "--target-size", "20"],
        "evaluate": ["evaluate", "--pred", out / "pretrain-dict-1.jsonl",
                     "--ref", out / "pretrain-standoff-1.jsonl"],
    }
    for name, argv in stages.items():
        run(*argv, "--out", out / name)
        outputs[name] = (out / name).read_bytes()
    return outputs


def test_cli_chain_writes_the_golden_bytes(tmp_path):
    outputs = chain_outputs(tmp_path)
    # an empty output would pin nothing
    assert all(outputs.values())
    assert {name: hashlib.sha256(data).hexdigest() for name, data in outputs.items()} == GOLDEN
