import json

from hypothesis import given, settings, strategies as st

from notesum.jsonl import read_jsonl, write_jsonl

# Text with non-ASCII characters, embedded newlines and quotes.
TEXT = st.text(alphabet=st.characters(blacklist_categories=("Cs",)), max_size=20) | st.sampled_from(
    ["line one\nline two", "naïve café — 5 µg", "quote \" and \\ slash", "  sep"]
)
VALUE = st.recursive(
    st.none() | st.booleans() | st.integers() | TEXT,
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(TEXT, inner, max_size=3),
    max_leaves=8,
)
RECORDS = st.lists(st.dictionaries(TEXT, VALUE, max_size=4), max_size=6)


@settings(max_examples=60, deadline=None)
@given(records=RECORDS)
def test_write_then_read_round_trips_byte_for_byte(tmp_path_factory, records):
    path = tmp_path_factory.mktemp("jsonl") / "records.jsonl"
    assert write_jsonl(iter(records), path) == len(records)
    assert path.read_bytes() == "".join(
        json.dumps(r, ensure_ascii=False) + "\n" for r in records
    ).encode("utf-8")
    assert list(read_jsonl(path, parse=dict)) == records


def test_a_byte_order_mark_keeps_the_first_record(tmp_path):
    path = tmp_path / "notes.jsonl"
    path.write_text('\ufeff{"doc_id": "a"}\n{"doc_id": "b"}\n', encoding="utf-8")
    assert list(read_jsonl(path, parse=dict)) == [{"doc_id": "a"}, {"doc_id": "b"}]
