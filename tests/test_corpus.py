import json
import logging
import random
import re

import pytest
from hypothesis import given, settings, strategies as st

from notesum import corpus
from notesum.corpus import (
    AnnotationConfig,
    CorpusStats,
    ProgressNote,
    build_pretrain_corpus,
    read_corpus,
    read_notes,
    write_corpus,
)
from notesum.errors import ConfigurationError, DataError, ParseError
from notesum.masking import MaskPolicyConfig, MaskedExample, reconstruct

from conftest import make_note_text, write_note_file


def test_note_requires_doc_id_and_some_text():
    with pytest.raises(DataError):
        ProgressNote(doc_id="", text="x")
    with pytest.raises(DataError):
        ProgressNote(doc_id="d1")


def test_annotation_config_reports_every_problem():
    with pytest.raises(ConfigurationError) as exc:
        AnnotationConfig(threshold=0.0, max_window=0)
    assert [p.split(":")[0] for p in exc.value.problems] == ["threshold", "max_window"]


def test_note_text_falls_back_to_sections():
    note = ProgressNote(doc_id="d1", assessment="a", subjective="s", objective="o")
    assert note.text == "a\ns\no"


def test_stats_on_three_note_fixture_match_hand_counts(umls_dict, i2b2_dict):
    # constructed coverage: note 1 hits both channels, note 2 only UMLS,
    # note 3 neither
    notes = [
        ProgressNote(doc_id="n1", text="pt with heart failure on lasix ."),
        ProgressNote(doc_id="n2", text="history of anemia noted ."),
        ProgressNote(doc_id="n3", text="resting comfortably this morning ."),
    ]
    examples, stats = build_pretrain_corpus(
        iter(notes), umls_dict, i2b2_dict, MaskPolicyConfig(seed=5)
    )
    out = list(examples)
    assert len(out) == 3
    assert stats.total_rows == 3
    assert stats.rows_no_umls == 1
    assert stats.rows_no_i2b2 == 2
    assert stats.rows_no_entities == 1
    assert stats.sentences_total == 3
    stats.check()


def test_empty_stream_leaves_stats_zeroed(umls_dict, i2b2_dict):
    examples, stats = build_pretrain_corpus(
        iter([]), umls_dict, i2b2_dict, MaskPolicyConfig()
    )
    assert list(examples) == []
    assert stats == CorpusStats()


def test_every_example_round_trips(umls_dict, i2b2_dict):
    rng = random.Random(77)
    cfg = MaskPolicyConfig(seed=9)
    notes = [ProgressNote(doc_id=f"n{i}", text=make_note_text(rng)) for i in range(30)]
    examples, stats = build_pretrain_corpus(iter(notes), umls_dict, i2b2_dict, cfg)
    for note, example in zip(notes, examples):
        assert example.doc_id == note.doc_id
        assert reconstruct(example.input_text, example.target_text) == note.text
    assert stats.masks_total > 0


# Pieces of note text: dictionary terms, so that spans get masked, and
# sentinel and placeholder lookalikes, none of which is a sentinel; the
# separators may join pieces, and two pieces are real sentinels.
NOTE_PIECES = st.sampled_from([
    "pt", "on", "overnight", ".", "noted", "cpap", "heart failure", "sat drifts", "lasix",
    "<extra_id_", "<extra_id_x>", "<EXTRA_ID_0>", "extra_id_1>", "<extra_id_ 2>",
    "< extra_id_3>", "<extra_id_4 >", "<extra_id_\n5>", "<", ">", "6>", "[Term 1]", "[Source]",
    "<extra_id_0>", "<extra_id_17>",
])
NOTE_TEXTS = st.lists(
    st.tuples(NOTE_PIECES, st.sampled_from(["", " ", "  ", "\n", " . "])), min_size=1, max_size=14
).map(lambda parts: "".join(piece + sep for piece, sep in parts))
# written out, not imported, so the test does not trust the masker's pattern
SENTINEL = re.compile(r"<extra_id_\d+>")


@settings(max_examples=150, deadline=None)
@given(st.lists(NOTE_TEXTS, min_size=1, max_size=5), st.integers(0, 3))
def test_lookalike_text_round_trips_and_a_real_sentinel_is_skipped(umls_dict, i2b2_dict, texts, seed):
    notes = [ProgressNote(doc_id=f"n{i}", text=text) for i, text in enumerate(texts)]
    kept = [note for note in notes if not SENTINEL.search(note.text)]
    examples, stats = build_pretrain_corpus(iter(notes), umls_dict, i2b2_dict, MaskPolicyConfig(seed=seed))
    examples = list(examples)
    assert [ex.doc_id for ex in examples] == [note.doc_id for note in kept]
    assert stats.skipped == len(notes) - len(kept)
    for note, example in zip(kept, examples):
        assert reconstruct(example.input_text, example.target_text) == note.text


def test_same_seed_gives_byte_identical_files(tmp_path, umls_dict, i2b2_dict):
    rng = random.Random(3)
    notes = [ProgressNote(doc_id=f"n{i}", text=make_note_text(rng)) for i in range(20)]
    paths = []
    for run in range(2):
        examples, _ = build_pretrain_corpus(
            iter(notes), umls_dict, i2b2_dict, MaskPolicyConfig(seed=4)
        )
        path = tmp_path / f"run{run}.jsonl"
        write_corpus(examples, path)
        paths.append(path)
    assert paths[0].read_bytes() == paths[1].read_bytes()


def test_worker_count_does_not_change_output(tmp_path, umls_dict, i2b2_dict):
    rng = random.Random(8)
    notes = [ProgressNote(doc_id=f"n{i}", text=make_note_text(rng)) for i in range(40)]
    outputs = []
    for workers in (1, 2):
        examples, _ = build_pretrain_corpus(
            iter(notes), umls_dict, i2b2_dict, MaskPolicyConfig(seed=4), workers=workers
        )
        path = tmp_path / f"w{workers}.jsonl"
        write_corpus(examples, path)
        outputs.append(path.read_bytes())
    assert outputs[0] == outputs[1]


@pytest.mark.parametrize("workers, cpus, processes", [(10**6, 3, 3), (3, 8, 3), (2, 1, 1), (2, None, 1)])
def test_the_pool_is_capped_at_the_cpu_count(
    monkeypatch, caplog, umls_dict, i2b2_dict, workers, cpus, processes
):
    sizes = []

    class SerialPool:
        """Records the pool size asked for and maps in this process."""

        def __init__(self, processes, initializer, initargs):
            sizes.append(processes)
            initializer(*initargs)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def imap(self, func, iterable, chunksize=1):
            return map(func, iterable)

    rng = random.Random(8)
    notes = [ProgressNote(doc_id=f"n{i}", text=make_note_text(rng)) for i in range(10)]
    cfg = MaskPolicyConfig(seed=4)
    serial, _ = build_pretrain_corpus(iter(notes), umls_dict, i2b2_dict, cfg)
    monkeypatch.setattr(corpus.multiprocessing, "Pool", SerialPool)
    monkeypatch.setattr(corpus.os, "cpu_count", lambda: cpus)
    caplog.set_level(logging.INFO, logger="notesum.corpus")
    pooled, _ = build_pretrain_corpus(iter(notes), umls_dict, i2b2_dict, cfg, workers=workers)
    assert list(pooled) == list(serial)
    assert sizes == [processes]
    assert f"masking in {processes} processes: {workers} workers asked" in caplog.text


def test_corpus_write_read_round_trip(tmp_path):
    examples = [
        MaskedExample(f"d{i}", f"in <extra_id_0> {i}", f"<extra_id_0> x{i} <extra_id_1>", 1)
        for i in range(100)
    ]
    path = tmp_path / "corpus.jsonl"
    assert write_corpus(examples, path) == 100
    assert list(read_corpus(path)) == examples


def test_corrupt_corpus_line_names_the_line(tmp_path):
    path = tmp_path / "corpus.jsonl"
    for bad in ("not json", '{"doc_id": "b", "input": "x", "target": 5}'):
        path.write_text('{"doc_id": "a", "input": "x", "target": "<extra_id_0>"}\n' + bad + "\n")
        with pytest.raises(ParseError) as exc:
            list(read_corpus(path))
        assert ":2" in str(exc.value)


def test_empty_corpus_file_reads_as_empty(tmp_path):
    path = tmp_path / "corpus.jsonl"
    path.write_text("")
    assert list(read_corpus(path)) == []


def test_malformed_note_records_are_skipped_and_counted(tmp_path):
    path = write_note_file(
        tmp_path / "notes.jsonl",
        [
            {"doc_id": "ok-1", "text": "fine ."},
            {"text": "missing id ."},
            {"doc_id": "bad-2", "text": 42},
            # a falsy non-string text is bad too, not a fall-back to the sections
            {"doc_id": "bad-3", "text": False, "assessment": "pt ok ."},
            # an id is a string or an integer, not null, a bool or a list
            {"doc_id": None, "text": "null id ."},
            {"doc_id": False, "text": "false id ."},
            {"doc_id": ["a"], "text": "list id ."},
            {"doc_id": 7, "text": "integer id ."},
        ],
    )
    with open(path, "a", encoding="utf-8") as fh:
        fh.write("{broken\n")
    stats = CorpusStats()
    notes = list(read_notes(path, stats=stats))
    assert [n.doc_id for n in notes] == ["ok-1", "7"]
    assert stats.skipped == 7


@pytest.mark.parametrize("text", [0, False, [], 42, None])
def test_only_an_absent_or_null_text_falls_back_to_the_sections(text):
    record = {"doc_id": "d1", "text": text, "assessment": "pt ok .", "subjective": "s", "objective": "o"}
    if text is None:
        assert ProgressNote.from_record(record).text == "pt ok .\ns\no"
    else:
        with pytest.raises(DataError):
            ProgressNote.from_record(record)


def test_stats_invariant_violation_is_detected():
    stats = CorpusStats(total_rows=2, rows_no_umls=0, rows_no_i2b2=0, rows_no_entities=1)
    with pytest.raises(DataError):
        stats.check()
