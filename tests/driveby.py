"""A drive-by edit: a fresh account inserts one word into a page just after
its first revision, and every later revision keeps it. The word survives
every judge, so the account earns a contribution of about 1, and wherever
the selection keeps every positive contributor it becomes one of the page's
principal authors, and a co-author node."""

import re

PASSERBY = "Passerby"  # no synth author has this name, nor a 'bot' suffix
WORD = "driveby"

_PAGE = re.compile(r"  <page>\n.*?\n  </page>\n", re.S)
_REVISION = re.compile(r"    <revision>\n.*?\n    </revision>\n", re.S)


def _with_word(revision: str) -> str:
    """The revision with WORD put before the first token of its text."""
    return revision.replace("<text>", f"<text>{WORD} ", 1)


def drive_by(dump: str, page_ids: set[int], account: str = PASSERBY) -> str:
    """`dump`, in the layout `serialize_dump` writes, with `account`'s edit
    on each page in `page_ids`: a revision, stamped as the page's first,
    that puts WORD before the first revision's text, and WORD put before
    the text of every later revision."""
    assert account not in dump and WORD not in dump

    def edit(page: re.Match) -> str:
        text = page.group(0)
        # the page's <id> precedes its revisions'
        if int(re.search(r"<id>(\d+)</id>", text).group(1)) not in page_ids:
            return text
        first, *later = _REVISION.findall(text)
        start = text.index(first)
        end = start + len(first) + sum(map(len, later))
        new = re.sub(r"<contributor>.*?</contributor>",
                     f"<contributor><username>{account}</username></contributor>",
                     _with_word(first))
        return text[:start] + first + new + "".join(map(_with_word, later)) + text[end:]

    return _PAGE.sub(edit, dump)
