"""A hypothesis strategy for author names and titles that every TSV artifact
must round-trip: the field and line separators, the escape character, the
meta-line prefixes, `=` and non-ASCII text, among arbitrary characters."""

from hypothesis import strategies as st

_PIECES = ("\t", "\n", "\r", "\r\n", "\\", "\\t", "\\n", "\\\\", "#", "# ",
           "# node=", "=", " ", "é", "名", "\x85", " ", "\U0001f600")

# any code point but a surrogate, drawn without hypothesis' Unicode tables
_chars = st.integers(0, 0x10FFFF).filter(
    lambda c: not 0xD800 <= c < 0xE000).map(chr)

names = st.lists(st.sampled_from(_PIECES) | _chars, max_size=8).map("".join)
