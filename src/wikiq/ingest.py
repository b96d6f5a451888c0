"""Streaming MediaWiki XML dump ingestion.

Parses pages-meta-history style exports into normalized per-page revision
histories, resolving each contributor to a classified author identity
(registered / anonymous). The parser holds one page at a time: each
page is yielded as soon as its closing tag is seen.

A revision whose text an administrator hid (`<text deleted="deleted" />`)
is dropped from its page's history, and the revisions on either side of it
are diffed against each other. Reading it as an empty text would make it a
blanking, and the next editor would be credited with restoring the whole
page. Carrying its predecessor's text forward instead would invent an edit
its author never made: that author would be judged on it, and as a judge
would keep every word of the text before, whatever the hidden edit did.
"""

from __future__ import annotations

import ipaddress
import logging
import re
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from datetime import datetime, timezone
from enum import Enum
from itertools import chain
from typing import IO, Iterable, Iterator, Optional
from xml.etree import ElementTree as ET

from . import tsv
from .worddiff import _common_run, _common_tail

log = logging.getLogger(__name__)

# The editorial quality classes, best first, each with its level: the gain
# NDCG gives the class, and the amount of text synth writes for it.
QUALITY_CLASSES = {"FA": 6, "A": 5, "GA": 4, "B": 3, "C": 2, "Start": 1, "Stub": 0}

ANONYMOUS_SENTINEL = "0.0.0.0"


class AuthorKind(Enum):
    REGISTERED = "registered"
    ANONYMOUS = "anonymous"


class Namespace(Enum):
    ARTICLE = "article"
    USER_TALK = "user_talk"
    OTHER = "other"


# Each namespace's <ns> code; parse_dump reads any other code as OTHER.
NAMESPACE_CODES = {Namespace.ARTICLE: "0", Namespace.USER_TALK: "3", Namespace.OTHER: "2"}
_NAMESPACE_OF_CODE = {code: namespace for namespace, code in NAMESPACE_CODES.items()}
USER_TALK = "User talk:"  # the title prefix of a user talk page


@dataclass(frozen=True)
class AuthorId:
    name: str
    kind: AuthorKind


@dataclass
class RevisionRecord:
    rev_ordinal: int
    author: AuthorId
    timestamp: int
    tokens: list[str]


@dataclass
class PageHistory:
    page_id: int
    title: str
    namespace: Namespace
    revisions: list[RevisionRecord]


class DumpParseError(ValueError):
    """Malformed dump XML; the CLI reports every ValueError with exit code 2."""


# Words stay whole, punctuation splits off as single-char tokens, and the
# doubled wiki markup brackets/braces are kept as two-char tokens.
_TOKEN_RE = re.compile(r"\[\[|\]\]|\{\{|\}\}|\w+|[^\w\s]", re.UNICODE)


def tokenize(wikitext: str) -> list[str]:
    """Split wikitext into word tokens (deterministic, total)."""
    return _TOKEN_RE.findall(wikitext)


# A page's tokenizer keeps a split point about every this many characters.
_SPLIT_SPACING = 64


def _page_tokens(texts: Iterable[str]) -> Iterator[list[str]]:
    """`tokenize` of each of a page's texts, in order. Each text is
    re-tokenized only in a window around what changed from the previous one,
    and every token the change kept is the previous list's own `str` object,
    as in a decoded history.

    The window's ends are split points, offsets just after a space, so this
    is exact: no token spans whitespace and the pattern has no anchors or
    lookbehind, so tokenize(T) == tokenize(T[:p]) + tokenize(T[p:]) whenever
    T[p - 1] is whitespace. A text with no space is tokenized whole.
    """
    prev, tokens = "", []
    # Split points as (offset, tokens before it): 0 first, then offsets just
    # after a space, and last a sentinel one past the end of the text.
    offsets, counts = [0, 1], [0, 0]
    for text in texts:
        head = _common_run(prev, text, 0, 0)
        tail = _common_tail(prev, text, head)
        i = bisect_right(offsets, head) - 1
        # the tail's split point must have its space inside the common tail
        j = bisect_left(offsets, len(prev) - tail + 1)
        shift = len(text) - len(prev)
        pos, end = offsets[i], offsets[j] + shift
        offs, cnts, window = offsets[:i + 1], counts[:i + 1], []
        while (cut := text.find(" ", pos + _SPLIT_SPACING, end - 1) + 1):
            window += tokenize(text[pos:cut])
            offs.append(cut)
            cnts.append(counts[i] + len(window))
            pos = cut
        window += tokenize(text[pos:end])
        token_shift = counts[i] + len(window) - counts[j]
        offs += [offset + shift for offset in offsets[j:]]
        cnts += [count + token_shift for count in counts[j:]]
        # the window's tokens that its edit kept are shared too
        old = tokens[counts[i]:counts[j]]
        a = _common_run(old, window, 0, 0)
        b = _common_tail(old, window, a)
        tokens = tokens[:counts[i] + a] + window[a:len(window) - b] + tokens[counts[j] - b:]
        prev, offsets, counts = text, offs, cnts
        yield tokens


def canonical_name(raw: str) -> str:
    """Canonicalize a username per MediaWiki: underscores to spaces, first
    letter uppercased."""
    name = raw.replace("_", " ").strip()
    if not name:
        return name
    return name[0].upper() + name[1:]


def _is_ip(name: str) -> bool:
    if "." not in name and ":" not in name:  # no IPv4 or IPv6 text lacks both
        return False
    try:
        ipaddress.ip_address(name)
    except ValueError:
        return False
    return True


def make_author(raw_name: str) -> AuthorId:
    """The canonical username: anonymous if it is an IP, else registered.
    Whether a registered author is a bot is contrib's rule, not the dump's."""
    name = canonical_name(raw_name)
    return AuthorId(name, AuthorKind.ANONYMOUS if _is_ip(name) else AuthorKind.REGISTERED)


def _parse_timestamp(text: str) -> int:
    ts = datetime.fromisoformat(text.replace("Z", "+00:00"))
    if ts.tzinfo is None:
        ts = ts.replace(tzinfo=timezone.utc)
    return int(ts.timestamp())


def _namespace_of(ns_value: Optional[str], title: str) -> Namespace:
    if ns_value is not None:
        return _NAMESPACE_OF_CODE.get(ns_value.strip(), Namespace.OTHER)
    if title.startswith(USER_TALK):
        return Namespace.USER_TALK
    if ":" in title.split(" ", 1)[0]:
        return Namespace.OTHER
    return Namespace.ARTICLE


def _author(contributor: Optional[ET.Element], ns: str, title: str) -> AuthorId:
    if contributor is not None:
        ip = contributor.findtext(ns + "ip")
        if ip is not None:
            return AuthorId(ip.strip(), AuthorKind.ANONYMOUS)
        username = contributor.findtext(ns + "username")
        if username is not None:
            return make_author(username)
    log.warning("page %r: revision without contributor, treated as anonymous",
                title)
    return AuthorId(ANONYMOUS_SENTINEL, AuthorKind.ANONYMOUS)


def _parsed(parse, text: str, what: str, title: str):
    """`parse(text)`; a text it refuses is a DumpParseError naming the page."""
    try:
        return parse(text)
    except ValueError:
        raise DumpParseError(f"page {title!r}: {what} {text!r} does not parse") from None


def _page_id(text: str) -> int:
    """A page id: ASCII digits, with whitespace around them. `int` alone
    would also read `1_0` as 10, signs and other scripts' digits."""
    digits = text.strip()
    if not (digits.isascii() and digits.isdigit()):
        raise ValueError(f"page id {text!r} is not ASCII digits")
    return int(digits)


def _page_history(page: ET.Element, ns: str) -> PageHistory:
    """The history of one <page> element whose tags carry the prefix `ns`."""
    title = page.findtext(ns + "title", "")
    page_id = _parsed(_page_id, page.findtext(ns + "id", "0"), "page id", title)
    revs, hidden = [], 0
    for rev in page.iterfind(ns + "revision"):
        stamp = rev.findtext(ns + "timestamp")
        if stamp is not None:
            stamp = _parsed(_parse_timestamp, stamp, "timestamp", title)
        text = rev.find(ns + "text")
        if text is not None and "deleted" in text.attrib:
            hidden += 1
            continue
        revs.append((stamp or 0,
                     _author(rev.find(ns + "contributor"), ns, title),
                     "" if text is None else text.text or ""))
    if hidden:
        log.warning("page %r: %d revision(s) with hidden text dropped", title, hidden)
    if any(a[0] > b[0] for a, b in zip(revs, revs[1:])):
        log.warning("page %r: revisions out of chronological order, reordering",
                    title)
        # stable sort keeps dump order among identical timestamps
        revs.sort(key=lambda rev: rev[0])
    namespace = _namespace_of(page.findtext(ns + "ns"), title)
    # only an article's history is diffed
    older = 0 if namespace is Namespace.ARTICLE else max(len(revs) - 1, 0)
    token_lists = chain(([] for _ in range(older)),
                        _page_tokens(text for _, _, text in revs[older:]))
    return PageHistory(page_id, title, namespace, [
        RevisionRecord(ordinal, author, stamp, tokens)
        for ordinal, ((stamp, author, _), tokens)
        in enumerate(zip(revs, token_lists), start=1)])


def parse_dump(stream: IO[bytes]) -> Iterator[PageHistory]:
    """Stream a MediaWiki XML export, yielding one PageHistory per <page>.

    A yielded page is cleared from the tree. Tags match under the root's
    namespace; only the page-level <id> counts. A missing page id or
    timestamp reads as 0, a missing title as "", and without <ns> the title
    decides the namespace. An element the export schema allows once per
    parent is read from its first occurrence; a contributor with <ip> and
    <username> is the ip. Every revision of an article carries its tokens;
    of any other page only the current one does, and the others hold [].
    """
    root = None
    try:
        for event, elem in ET.iterparse(stream, ("start", "end")):
            if root is None:  # the first event starts the root element
                root, ns = elem, elem.tag[:elem.tag.find("}") + 1]
            elif event == "end" and elem.tag == ns + "page":
                yield _page_history(elem, ns)
                root.clear()
    except ET.ParseError as exc:
        raise DumpParseError(f"malformed XML: {exc}") from exc


def _xml_escape(s: str) -> str:
    return s.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")


def serialize_dump(histories: Iterable[PageHistory]) -> str:
    """Re-emit histories as a minimal MediaWiki export (fixture round-trips)."""
    out = ['<mediawiki xmlns="http://www.mediawiki.org/xml/export-0.10/">']
    for page in histories:
        out.append("  <page>")
        out.append(f"    <title>{_xml_escape(page.title)}</title>")
        out.append(f"    <ns>{NAMESPACE_CODES[page.namespace]}</ns>")
        out.append(f"    <id>{page.page_id}</id>")
        for rev in page.revisions:
            stamp = datetime.fromtimestamp(rev.timestamp, tz=timezone.utc)
            out.append("    <revision>")
            out.append(f"      <id>{rev.rev_ordinal}</id>")
            out.append(
                "      <timestamp>%s</timestamp>"
                % stamp.strftime("%Y-%m-%dT%H:%M:%SZ")
            )
            tag = "ip" if rev.author.kind is AuthorKind.ANONYMOUS else "username"
            out.append(
                "      <contributor><%s>%s</%s></contributor>"
                % (tag, _xml_escape(rev.author.name), tag)
            )
            out.append(
                "      <text>%s</text>" % _xml_escape(" ".join(rev.tokens))
            )
            out.append("    </revision>")
        out.append("  </page>")
    out.append("</mediawiki>")
    return "\n".join(out) + "\n"


def _quality_class(field: str) -> str:
    if field not in QUALITY_CLASSES:
        raise ValueError(f"unknown class {field!r}")
    return field


# The title is outside text that nothing reads, so it is taken as written.
RATINGS = {"page_id": _page_id, "title": tsv.verbatim, "class": _quality_class}


def load_ratings(lines: Iterable[str]) -> dict[int, str]:
    """Load the page_id / title / class TSV into a page -> class map."""
    ratings: dict[int, str] = {}
    for page_id, _title, cls in tsv.read_rows(lines, RATINGS):
        if page_id in ratings:
            raise tsv.TsvError(f"{tsv.source(lines)}: duplicate page_id {page_id}")
        ratings[page_id] = cls
    return ratings
