"""Line-delimited JSON record files, and the UTF-8 rule of every input.

Every file the pipeline passes from stage to stage (notes, the masked
corpus, paraphrase pairs, training instances) holds one JSON object per
line. Reading and writing them lives here, so every record file follows
one rule: blank lines are skipped, every other line must be a UTF-8 JSON
object, and a bad line is reported as a ParseError naming ``path:line``.
Every other input file is read through :func:`open_text`.
"""

from __future__ import annotations

import codecs
import json
import re
from contextlib import contextmanager
from pathlib import Path
from typing import Callable, Iterable, Iterator, Optional, TextIO, TypeVar, Union

from .errors import DataError, ParseError

T = TypeVar("T")

# A \u escape in the surrogate range D800-DFFF. A line without one cannot
# decode to a lone surrogate, so only lines with one pay for the check.
_SURROGATE_ESCAPE = re.compile(r"\\u[dD][89a-fA-F]")


def _check_no_lone_surrogate(record: dict) -> None:
    """Reject a record holding a lone surrogate (a ``\\u`` escape that is
    not half of a pair): no UTF-8 file can hold it, so writing it would fail."""
    try:
        json.dumps(record, ensure_ascii=False).encode("utf-8")
    except UnicodeEncodeError as exc:
        char = exc.object[exc.start]
        raise DataError(f"lone surrogate {char!r}: a \\u escape that is not half of a pair") from None


@contextmanager
def open_text(path: Union[str, Path]) -> Iterator[TextIO]:
    """Open a UTF-8 input file, skipping a byte-order mark at its start. A
    byte that is not UTF-8, met while the ``with`` body reads, is a
    ParseError naming the file."""
    try:
        with open(path, encoding="utf-8-sig") as fh:
            yield fh
    except UnicodeDecodeError as exc:
        raise ParseError(f"not UTF-8: byte {exc.object[exc.start]:#04x}: {exc.reason}", path=str(path)) from None


def read_jsonl(
    path: Union[str, Path],
    parse: Callable[[dict], T],
    on_error: Optional[Callable[[ParseError], None]] = None,
) -> Iterator[T]:
    """Lazily yield ``parse(record)`` for each JSON object line of ``path``.

    A line that is not UTF-8, that is not a JSON object, that holds a
    lone surrogate, or whose record ``parse`` rejects with ValueError,
    KeyError, TypeError or DataError, becomes one ParseError. It is
    raised, or, when ``on_error`` is given, passed to it and the line
    skipped. Only a newline byte ends a line; a byte-order mark at the
    start of the file is skipped.
    """
    with open(path, "rb") as fh:
        if fh.read(3) != codecs.BOM_UTF8:
            fh.seek(0)
        for lineno, raw in enumerate(fh, start=1):
            try:
                line = raw.decode("utf-8")  # a UnicodeDecodeError is a ValueError
                if not line.strip():
                    continue
                record = json.loads(line)
                if not isinstance(record, dict):
                    raise DataError(f"expected a JSON object, got {type(record).__name__}")
                if _SURROGATE_ESCAPE.search(line):
                    _check_no_lone_surrogate(record)
                item = parse(record)
            except (ValueError, KeyError, TypeError, DataError) as exc:
                reason = f"missing field {exc}" if isinstance(exc, KeyError) else str(exc)
                error = ParseError(f"bad record: {reason}", path=str(path), line=lineno)
                if on_error is None:
                    raise error from None
                on_error(error)
                continue
            yield item


def is_number(value) -> bool:
    """A JSON number: an int or a float, but not a bool."""
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def write_jsonl(records: Iterable[dict], path: Union[str, Path]) -> int:
    """Write one JSON object per line, non-ASCII kept as is; returns the count."""
    count = 0
    with open(path, "w", encoding="utf-8") as fh:
        for record in records:
            fh.write(json.dumps(record, ensure_ascii=False) + "\n")
            count += 1
    return count
