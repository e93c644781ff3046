"""Fine-tuning dataset assembly.

Composes model inputs from note sections (assessment alone or assessment
+ subjective + objective), attaches problem-list targets, folds accepted
augmented paraphrases back into their source notes, and caps the set at
a target size without ever displacing an original instance. Inputs keep
their full length: cutting them to a model's context is left to the
model's tokenizer.
"""

from __future__ import annotations

import dataclasses
import enum
import logging
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Iterator, Union

from .augment import GeneratedPair
from .corpus import ProgressNote
from .errors import DataError
from .jsonl import read_jsonl, write_jsonl

log = logging.getLogger(__name__)

DEFAULT_TARGET_SIZE = 1000


class CompositionMode(enum.Enum):
    """Which note sections feed the model input."""

    A = "a"
    ASO = "aso"


class Provenance(enum.Enum):
    ORIGINAL = "original"
    AUGMENTED = "augmented"


@dataclass(frozen=True)
class TaskInstance:
    """One training/eval instance: composed input and problem-list target."""

    doc_id: str
    input_text: str
    target_text: str
    provenance: Provenance = Provenance.ORIGINAL

    def __post_init__(self):
        if not self.input_text:
            raise DataError(f"instance {self.doc_id!r} has empty input")
        if not self.target_text:
            raise DataError(f"instance {self.doc_id!r} has empty target")


def _require(note: ProgressNote, section: str) -> str:
    value = getattr(note, section)
    if not value:
        raise DataError(f"note {note.doc_id!r} is missing section {section!r}")
    return value


def compose_input(note: ProgressNote, mode: CompositionMode) -> str:
    """Model input for one note.

    Mode A is the assessment verbatim. Mode ASO appends subjective and
    objective in that fixed order, each on its own line behind a labelled
    header, so the sections stay recoverable.
    """
    assessment = _require(note, "assessment")
    if mode is CompositionMode.A:
        return assessment
    subjective = _require(note, "subjective")
    objective = _require(note, "objective")
    return f"{assessment}\nSubjective: {subjective}\nObjective: {objective}"


def _pair_rank_score(pair: GeneratedPair) -> float:
    if "combined" in pair.scores:
        return pair.scores["combined"]
    if pair.scores:
        return sum(pair.scores.values()) / len(pair.scores)
    return 0.0


def assemble_training_set(
    notes: Iterable[ProgressNote],
    augmented: Iterable[GeneratedPair],
    target_size: int = DEFAULT_TARGET_SIZE,
    mode: CompositionMode = CompositionMode.ASO,
) -> list[TaskInstance]:
    """Originals plus the best augmented instances, capped at target_size.

    Every original note becomes one instance. Each augmented pair rewrites
    its source sentence inside the source note's assessment and inherits
    the note's other sections and problem-list target. Originals are never
    dropped: if they already exceed ``target_size`` that is a data error,
    and remaining capacity goes to augmented pairs in descending combined
    score (stable by input order). Duplicate (doc_id, input) instances are
    skipped.
    """
    notes_by_id: dict[str, ProgressNote] = {}
    instances: list[TaskInstance] = []
    seen: set[tuple[str, str]] = set()
    for note in notes:
        if note.doc_id in notes_by_id:
            raise DataError(f"duplicate doc_id {note.doc_id!r} in notes")
        notes_by_id[note.doc_id] = note
        instance = TaskInstance(
            doc_id=note.doc_id,
            input_text=compose_input(note, mode),
            target_text=_require(note, "summary"),
            provenance=Provenance.ORIGINAL,
        )
        seen.add((instance.doc_id, instance.input_text))  # new: doc_ids are unique
        instances.append(instance)

    if target_size < len(instances):
        raise DataError(
            f"target_size {target_size} is below the {len(instances)} original "
            "instances; refusing to drop originals"
        )

    ordered = sorted(
        enumerate(augmented), key=lambda iv: (-_pair_rank_score(iv[1]), iv[0])
    )
    budget = target_size - len(instances)
    for _, pair in ordered:
        if budget == 0:
            break
        note = notes_by_id.get(pair.doc_id)
        if note is None:
            log.warning("augmented pair references unknown doc_id %r; skipped", pair.doc_id)
            continue
        assessment = _require(note, "assessment")
        if pair.source not in assessment:
            log.warning(
                "augmented pair for %r has a source sentence not found in the "
                "note's assessment; skipped",
                pair.doc_id,
            )
            continue
        new_assessment = assessment.replace(pair.source, pair.generated, 1)
        patched = dataclasses.replace(note, assessment=new_assessment)
        instance = TaskInstance(
            doc_id=note.doc_id,
            input_text=compose_input(patched, mode),
            target_text=_require(note, "summary"),
            provenance=Provenance.AUGMENTED,
        )
        key = (instance.doc_id, instance.input_text)
        if key in seen:
            continue
        seen.add(key)
        instances.append(instance)
        budget -= 1
    return instances


def read_section_notes(path: Union[str, Path]) -> Iterator[ProgressNote]:
    """Notes with section fields from line-delimited JSON; unlike the
    pre-training reader, malformed records here abort with context."""
    return read_jsonl(path, ProgressNote.from_record)


def write_instances(instances: Iterable[TaskInstance], path: Union[str, Path]) -> int:
    return write_jsonl(
        (
            {
                "doc_id": inst.doc_id,
                "input": inst.input_text,
                "target": inst.target_text,
                "provenance": inst.provenance.value,
            }
            for inst in instances
        ),
        path,
    )
