import json

import pytest

from notesum.augment import GeneratedPair, LabelId
from notesum import dataset
from notesum.corpus import ProgressNote
from notesum.dataset import (
    CompositionMode,
    Provenance,
    TaskInstance,
    assemble_training_set,
    compose_input,
    read_section_notes,
    write_instances,
)
from notesum.errors import DataError, ParseError
from notesum.text import segment_sentences


def note(doc_id="d1", assessment="a text", subjective="s text", objective="o text",
         summary="problem one\nproblem two"):
    return ProgressNote(
        doc_id=doc_id,
        assessment=assessment,
        subjective=subjective,
        objective=objective,
        summary=summary,
    )


def pair(doc_id, source, generated, combined):
    return GeneratedPair(
        source=source,
        generated=generated,
        label=LabelId.SAME_THING,
        required_terms=[],
        scores={"combined": combined},
        doc_id=doc_id,
    )


# ---------------------------------------------------------------------------
# input composition


def test_mode_a_is_the_assessment_verbatim():
    assert compose_input(note(), CompositionMode.A) == "a text"


def test_mode_aso_default_headers_keep_sections_recoverable():
    got = compose_input(note(assessment="a", subjective="s", objective="o"), CompositionMode.ASO)
    assert got == "a\nSubjective: s\nObjective: o"


def test_missing_section_names_doc_and_section():
    bad = note(doc_id="d9", objective=None)
    with pytest.raises(DataError) as exc:
        compose_input(bad, CompositionMode.ASO)
    assert "d9" in str(exc.value) and "objective" in str(exc.value)


def test_aso_always_has_a_as_prefix():
    for assessment in ("a text", "a\nSubjective: x", "x."):
        n = note(assessment=assessment)
        a = compose_input(n, CompositionMode.A)
        assert compose_input(n, CompositionMode.ASO).startswith(a + "\nSubjective: ")


# ---------------------------------------------------------------------------
# assembly


def test_fixture_arithmetic_764_plus_236():
    notes = [note(doc_id=f"d{i}", assessment=f"assessment {i} .") for i in range(764)]
    pairs = [
        pair(f"d{i % 764}", f"assessment {i % 764} .", f"paraphrase {i} .", combined=i / 400)
        for i in range(400)
    ]
    instances = assemble_training_set(notes, pairs, target_size=1000)
    assert len(instances) == 1000
    originals = [i for i in instances if i.provenance is Provenance.ORIGINAL]
    augmented = [i for i in instances if i.provenance is Provenance.AUGMENTED]
    assert len(originals) == 764
    assert len(augmented) == 236
    # the kept augmented are the highest-scoring ones (scores rise with i)
    kept_ids = {inst.input_text for inst in augmented}
    assert all(f"paraphrase {i} ." in " ".join(kept_ids) or i < 164 for i in range(164, 400))


def test_zero_augmented_keeps_originals_only():
    notes = [note(doc_id=f"d{i}") for i in range(5)]
    instances = assemble_training_set(notes, [], target_size=1000)
    assert len(instances) == 5
    assert all(i.provenance is Provenance.ORIGINAL for i in instances)


def test_target_size_below_originals_is_a_data_error():
    notes = [note(doc_id=f"d{i}") for i in range(5)]
    with pytest.raises(DataError):
        assemble_training_set(notes, [], target_size=4)


def test_unknown_doc_id_pairs_are_skipped(caplog):
    notes = [note(doc_id="d0", assessment="stable .")]
    pairs = [pair("ghost", "stable .", "still stable .", 0.9)]
    instances = assemble_training_set(notes, pairs, target_size=10)
    assert len(instances) == 1
    assert "ghost" in caplog.text


def test_augmented_rewrites_the_source_sentence_in_place():
    notes = [note(doc_id="d0", assessment="pt on cpap . stable otherwise .")]
    pairs = [pair("d0", "pt on cpap .", "patient continues cpap .", 0.9)]
    instances = assemble_training_set(notes, pairs, target_size=10, mode=CompositionMode.A)
    assert instances[1].input_text == "patient continues cpap . stable otherwise ."
    assert instances[1].target_text == notes[0].summary


def test_a_paraphrase_replaces_the_first_sentence_equal_to_its_source():
    # the source is also a substring of the first sentence, which it does
    # not equal; of two equal sentences the first is rewritten
    for assessment, expected in (
        ("Acute pt stable. pt stable.", "Acute pt stable. GEN."),
        ("pt stable. Acute.\npt stable.", "GEN. Acute.\npt stable."),
    ):
        notes = [note(doc_id="d0", assessment=assessment)]
        pairs = [pair("d0", "pt stable.", "GEN.", 0.9)]
        instances = assemble_training_set(notes, pairs, target_size=10, mode=CompositionMode.A)
        assert [i.input_text for i in instances] == [assessment, expected]


def test_a_source_that_is_no_sentence_of_the_assessment_is_skipped(caplog):
    notes = [note(doc_id="d0", assessment="Acute pt stable. pt improving.")]
    for source in ("pt stable.", "stable. pt", "Acute pt stable. pt improving."):
        caplog.clear()
        instances = assemble_training_set(
            notes, [pair("d0", source, "GEN.", 0.9)], target_size=10, mode=CompositionMode.A
        )
        assert len(instances) == 1
        assert "not found in the note's assessment" in caplog.text


def test_each_note_is_segmented_once_per_assembly(monkeypatch):
    calls = []

    def counting(text):
        calls.append(text)
        return segment_sentences(text)

    monkeypatch.setattr(dataset, "segment_sentences", counting)
    notes = [note(doc_id="d0", assessment="a one. a two."), note(doc_id="d1", assessment="b.")]
    pairs = [pair("d0", "a one.", "x.", 0.9), pair("d0", "a two.", "y.", 0.8), pair("d1", "b.", "z.", 0.7)]
    instances = assemble_training_set(notes, pairs, target_size=10, mode=CompositionMode.A)
    assert len(instances) == 5
    assert sorted(calls) == ["a one. a two.", "b."]


def test_duplicate_instances_are_not_emitted():
    notes = [note(doc_id="d0", assessment="pt on cpap .")]
    # generated text identical to the source: the rewrite reproduces the
    # original input, which is already present
    pairs = [pair("d0", "pt on cpap .", "pt on cpap .", 0.9)]
    instances = assemble_training_set(notes, pairs, target_size=10, mode=CompositionMode.A)
    assert len(instances) == 1


def test_duplicate_note_ids_are_rejected():
    with pytest.raises(DataError):
        assemble_training_set([note(), note()], [], target_size=10)


# ---------------------------------------------------------------------------
# files


def test_instances_round_trip(tmp_path):
    instances = [
        TaskInstance("d1", "input one", "target one"),
        TaskInstance("d2", "input two", "target two", Provenance.AUGMENTED),
    ]
    path = tmp_path / "train.jsonl"
    assert write_instances(instances, path) == 2
    assert [json.loads(line) for line in path.read_text(encoding="utf-8").splitlines()] == [
        {"doc_id": "d1", "input": "input one", "target": "target one", "provenance": "original"},
        {"doc_id": "d2", "input": "input two", "target": "target two", "provenance": "augmented"},
    ]


def test_section_notes_reader_aborts_on_bad_records(tmp_path):
    path = tmp_path / "notes.jsonl"
    path.write_text('{"doc_id": "d1", "assessment": "a"}\n{oops\n', encoding="utf-8")
    with pytest.raises(ParseError) as exc:
        list(read_section_notes(path))
    assert ":2" in str(exc.value)
