import io
import tokenize
from pathlib import Path

import pytest
from hypothesis import given

from hostile import names
from wikiq import tsv

PAIRS = {"name": str, "count": int}


def named(text, name="pairs.tsv"):
    buf = io.StringIO(text)
    buf.name = name
    return buf


def read(text):
    return list(tsv.read_rows(named(text), PAIRS))


@given(names, names)
def test_rows_and_meta_roundtrip(name, note):
    buf = io.StringIO()
    tsv.write_meta(buf, note=note)
    tsv.write_rows(buf, PAIRS, [(name, 7), ("x", 8)])
    meta = []
    # read as `open` reads the artifacts: with universal newlines, so that a
    # raw CR would end a line
    text = io.StringIO(buf.getvalue(), newline=None)
    rows = list(tsv.read_rows(text, PAIRS, meta.append))
    assert rows == [(name, 7), ("x", 8)]
    assert meta == [f"note={note}"]


def test_plain_names_are_written_as_they_are():
    buf = io.StringIO()
    tsv.write_rows(buf, ("name", "n", "x"), [("Editor07", 3, 0.1), ("A b", -1, 1e-12)])
    assert buf.getvalue() == "name\tn\tx\nEditor07\t3\t0.1\nA b\t-1\t1e-12\n"


def test_no_rows():
    buf = io.StringIO()
    tsv.write_rows(buf, PAIRS, [])
    assert buf.getvalue() == "name\tcount\n"
    assert read(buf.getvalue()) == []


def test_wrong_field_count():
    with pytest.raises(tsv.TsvError,
                       match=r"^pairs\.tsv: line 3: expected 2 fields .*got 3$"):
        read("name\tcount\nAlice\t1\nBob\t2\t9\n")


def test_wrong_header():
    with pytest.raises(tsv.TsvError, match=r"^pairs\.tsv: line 1: expected the header"):
        read("name\tcount\tx\nAlice\t1\n")


def test_missing_header():
    with pytest.raises(tsv.TsvError, match=r"^pairs\.tsv: line 1: .*end of file"):
        read("")


@pytest.mark.parametrize("field, problem", [
    ("Bob\\", "trailing backslash"),
    ("Bob\\x", r"unknown escape '\\\\x'"),
])
def test_bad_escape(field, problem):
    with pytest.raises(tsv.TsvError, match=rf"^pairs\.tsv: line 3: {problem}"):
        read(f"name\tcount\nAlice\t1\n{field}\t2\n")


def test_bad_value():
    with pytest.raises(tsv.TsvError, match=r"^pairs\.tsv: line 2: .*'many'"):
        read("name\tcount\nAlice\tmany\n")


def test_meta_line_where_none_is_expected():
    with pytest.raises(tsv.TsvError, match=r"^pairs\.tsv: line 1: expected the header"):
        read("# note=x\nname\tcount\n")


def test_only_the_codec_holds_a_tab():
    """A string literal holding a tab, as in `split("\\t")` or a tab-joined
    f-string, would be a second copy of the row format."""
    src = Path(__file__).resolve().parent.parent / "src" / "wikiq"
    found = []
    for path in sorted(src.glob("*.py")):
        if path.name == "tsv.py":
            continue
        with open(path, "rb") as fp:
            for tok in tokenize.tokenize(fp.readline):
                if tok.type in (tokenize.STRING, getattr(tokenize, "FSTRING_MIDDLE", -1)) \
                        and ("\\t" in tok.string or "\t" in tok.string):
                    found.append(f"{path.name}:{tok.start[0]}")
    assert not found, f"tab literals outside tsv.py: {found}"
