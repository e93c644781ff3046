"""Line-delimited JSON record files.

Every file the pipeline passes from stage to stage (notes, the masked
corpus, paraphrase pairs, training instances) holds one JSON object per
line. Reading and writing them lives here, so every record file follows
one rule: blank lines are skipped, every other line must be a JSON
object, and a bad line is reported as a ParseError naming ``path:line``.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Callable, Iterable, Iterator, Optional, TypeVar, Union

from .errors import DataError, ParseError

T = TypeVar("T")


def read_jsonl(
    path: Union[str, Path],
    parse: Callable[[dict], T],
    on_error: Optional[Callable[[ParseError], None]] = None,
) -> Iterator[T]:
    """Lazily yield ``parse(record)`` for each JSON object line of ``path``.

    A line that is not a JSON object, or whose record ``parse`` rejects
    with ValueError, KeyError, TypeError or DataError, becomes one
    ParseError. It is raised, or, when ``on_error`` is given, passed to
    it and the line skipped.
    """
    with open(path, encoding="utf-8-sig") as fh:
        for lineno, line in enumerate(fh, start=1):
            if not line.strip():
                continue
            try:
                record = json.loads(line)
                if not isinstance(record, dict):
                    raise DataError(f"expected a JSON object, got {type(record).__name__}")
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
