"""The row format of every TSV artifact.

Fields are joined by tabs and rows end in LF. A field is written as `str`
gives it (for a float, its `repr`), with backslash, tab, CR and LF escaped
as `\\\\`, `\\t`, `\\r` and `\\n`, so any name round-trips. A `# ` meta line
holds no raw tab, while every data row does, so no name passes for one.
Rows are written and typed a column at a time, to run in C loops. A `str`
field is read as an interned string: the tables a process keeps parsed
(the pipeline's memo) then hold one object per name between them.
"""

from __future__ import annotations

import re
import sys
from itertools import repeat
from typing import IO, Callable, Iterable, Iterator, Sequence

# Column name -> the type its field is read as: `str` for escaped text,
# `verbatim` for text read as written, or a converter such as `int`.
Columns = dict[str, Callable[[str], object]]

_UNESCAPES = {"\\": "\\", "t": "\t", "r": "\r", "n": "\n"}


class TsvError(ValueError):
    """A malformed artifact; the CLI reports every ValueError with exit 2."""


def verbatim(field: str) -> str:
    return field


def source(lines: Iterable[str]) -> str:
    return getattr(lines, "name", "<input>")


def escape(text: str) -> str:
    return (text.replace("\\", "\\\\").replace("\t", "\\t")
            .replace("\r", "\\r").replace("\n", "\\n"))


def _unescape(text: str) -> str:
    def one(m: re.Match) -> str:
        if m.group(1) not in _UNESCAPES:
            raise ValueError(f"unknown escape {m.group()!r}" if m.group(1)
                             else "trailing backslash")
        return _UNESCAPES[m.group(1)]
    return sys.intern(re.sub(r"\\(.?)", one, text))


def _written(values: tuple) -> list[str]:
    fields = list(map(str, values))
    joined = "".join(fields)  # escaping is rare: look once per column
    if "\\" in joined or "\t" in joined or "\r" in joined or "\n" in joined:
        return list(map(escape, fields))
    return fields


def write_meta(fp: IO[str], **fields) -> None:
    fp.write("# " + " ".join(f"{k}={escape(str(v))}" for k, v in fields.items())
             + "\n")


def write_rows(fp: IO[str], names: Iterable[str], rows: Sequence[tuple]) -> None:
    """Write the column header, then the rows."""
    lines = map("\t".join, zip(*map(_written, zip(*rows))))
    fp.write("\n".join(["\t".join(names), *lines]) + "\n")


def read_rows(lines: Iterable[str], columns: Columns,
              meta: Callable[[str], None] | None = None) -> Iterator[tuple]:
    """The rows after the header of a file's lines (each ending in LF), as
    tuples of typed fields; blank lines are skipped, and meta lines go to
    `meta` if given. Any fault, a ValueError from a converter or from `meta`
    too, raises one TsvError naming the file and the line."""
    header, types, n = "\t".join(columns), tuple(columns.values()), len(columns)
    data, linenos, lineno, typed = [], [], 0, []
    try:
        for lineno, line in enumerate("".join(lines).split("\n"), start=1):
            if meta is not None and line.startswith("# ") and "\t" not in line:
                meta(_unescape(line[2:]))
            elif header and line:
                if line != header:
                    raise ValueError(f"expected the header {header!r}, got {line!r}")
                header = ""
            elif line:
                data.append(line)
                linenos.append(lineno)
        if header:
            raise ValueError(f"expected the header {header!r}, got end of file")
        # split all rows at once: a list per row would cost the GC
        tabs = list(map(str.count, data, repeat("\t")))
        if tabs.count(n - 1) != len(data):
            lineno, count = next(t for t in zip(linenos, tabs) if t[1] != n - 1)
            raise ValueError(f"expected {n} fields ({', '.join(columns)}), got {count + 1}")
        fields = "\t".join(data).split("\t") if data else []
        for k, convert in enumerate(types):
            values = fields[k::n]
            if convert is str:
                convert = _unescape if "\\" in "".join(values) else sys.intern
            try:
                typed.append(list(map(convert, values)))
            except ValueError:
                for lineno, value in zip(linenos, values):  # find the bad one
                    convert(value)
                raise
    except ValueError as exc:
        raise TsvError(f"{source(lines)}: line {lineno}: {exc}") from None
    return zip(*typed)
