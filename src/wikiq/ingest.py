"""Streaming MediaWiki XML dump ingestion.

Parses pages-meta-history style exports into normalized per-page revision
histories, resolving each contributor to a classified author identity
(registered / anonymous / bot).  Memory stays bounded by a single page's
history: pages are yielded as soon as their closing tag is seen.
"""

from __future__ import annotations

import ipaddress
import logging
import re
from collections import deque
from dataclasses import dataclass, field
from datetime import datetime, timezone
from enum import Enum
from typing import IO, Iterable, Iterator, Optional
from xml.parsers import expat

from . import tsv

log = logging.getLogger(__name__)

QUALITY_CLASSES = ("FA", "A", "GA", "B", "C", "Start", "Stub")

ANONYMOUS_SENTINEL = "0.0.0.0"


class AuthorKind(Enum):
    REGISTERED = "registered"
    ANONYMOUS = "anonymous"
    BOT = "bot"


class Namespace(Enum):
    ARTICLE = "article"
    USER_TALK = "user_talk"
    OTHER = "other"


@dataclass(frozen=True)
class AuthorId:
    name: str
    kind: AuthorKind


@dataclass
class RevisionRecord:
    page_id: int
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


@dataclass
class BotConfig:
    """Bot detection: explicit name list plus optional 'bot' suffix heuristic."""

    names: frozenset[str] = frozenset()
    suffix_heuristic: bool = True


class DumpParseError(Exception):
    pass


RatingsError = tsv.TsvError  # a bad ratings file is a malformed TSV file


# Words stay whole, punctuation splits off as single-char tokens, and the
# doubled wiki markup brackets/braces are kept as two-char tokens.
_TOKEN_RE = re.compile(r"\[\[|\]\]|\{\{|\}\}|\w+|[^\w\s]", re.UNICODE)


def tokenize(wikitext: str) -> list[str]:
    """Split wikitext into word tokens (deterministic, total)."""
    return _TOKEN_RE.findall(wikitext)


def canonical_name(raw: str) -> str:
    """Canonicalize a username per MediaWiki: underscores to spaces, first
    letter uppercased."""
    name = raw.replace("_", " ").strip()
    if not name:
        return name
    return name[0].upper() + name[1:]


def _is_ip(name: str) -> bool:
    try:
        ipaddress.ip_address(name)
    except ValueError:
        return False
    return True


def classify_author(name: str, bot_config: BotConfig) -> AuthorKind:
    """Classify a canonical username. Pure function of (name, bot config)."""
    if _is_ip(name):
        return AuthorKind.ANONYMOUS
    if name in bot_config.names:
        return AuthorKind.BOT
    if bot_config.suffix_heuristic and name.lower().endswith("bot"):
        return AuthorKind.BOT
    return AuthorKind.REGISTERED


def make_author(raw_name: str, bot_config: BotConfig) -> AuthorId:
    name = canonical_name(raw_name)
    return AuthorId(name=name, kind=classify_author(name, bot_config))


def _parse_timestamp(text: str) -> int:
    ts = datetime.fromisoformat(text.replace("Z", "+00:00"))
    if ts.tzinfo is None:
        ts = ts.replace(tzinfo=timezone.utc)
    return int(ts.timestamp())


def _namespace_of(ns_value: Optional[str], title: str) -> Namespace:
    if ns_value is not None:
        ns_value = ns_value.strip()
        if ns_value == "0":
            return Namespace.ARTICLE
        if ns_value == "3":
            return Namespace.USER_TALK
        return Namespace.OTHER
    if title.startswith("User talk:"):
        return Namespace.USER_TALK
    if ":" in title.split(" ", 1)[0]:
        return Namespace.OTHER
    return Namespace.ARTICLE


class _PageAssembler:
    """Expat callback target that accumulates one page at a time."""

    _CAPTURE = {"title", "ns", "id", "timestamp", "username", "ip", "text"}

    def __init__(self, bot_config: BotConfig):
        self.bot_config = bot_config
        self.done: deque[PageHistory] = deque()
        self._stack: list[str] = []
        self._text: list[str] = []
        self._capturing = False
        self._page: Optional[dict] = None
        self._rev: Optional[dict] = None

    def start(self, name: str, attrs: dict) -> None:
        self._stack.append(name)
        if name == "page":
            self._page = {"title": "", "ns": None, "id": None, "revs": []}
        elif name == "revision" and self._page is not None:
            self._rev = {"timestamp": None, "author": None, "text": ""}
        elif name in self._CAPTURE:
            self._capturing = True
            self._text = []

    def chars(self, data: str) -> None:
        if self._capturing:
            self._text.append(data)

    def end(self, name: str) -> None:
        self._stack.pop()
        parent = self._stack[-1] if self._stack else ""
        text = "".join(self._text)
        self._capturing = False
        if self._page is None:
            return
        if name == "title" and parent == "page":
            self._page["title"] = text
        elif name == "ns" and parent == "page":
            self._page["ns"] = text
        elif name == "id" and parent == "page" and self._page["id"] is None:
            self._page["id"] = int(text)
        elif self._rev is not None:
            if name == "timestamp" and parent == "revision":
                self._rev["timestamp"] = _parse_timestamp(text)
            elif name == "username" and parent == "contributor":
                self._rev["author"] = make_author(text, self.bot_config)
            elif name == "ip" and parent == "contributor":
                self._rev["author"] = AuthorId(text.strip(), AuthorKind.ANONYMOUS)
            elif name == "text" and parent == "revision":
                self._rev["text"] = text
            elif name == "revision":
                self._finish_revision()
        if name == "page":
            self._finish_page()

    def _finish_revision(self) -> None:
        rev = self._rev
        self._rev = None
        if rev["author"] is None:
            log.warning(
                "page %r: revision without contributor, treated as anonymous",
                self._page["title"],
            )
            rev["author"] = AuthorId(ANONYMOUS_SENTINEL, AuthorKind.ANONYMOUS)
        if rev["timestamp"] is None:
            rev["timestamp"] = 0
        self._page["revs"].append(rev)

    def _finish_page(self) -> None:
        page = self._page
        self._page = None
        page_id = page["id"] if page["id"] is not None else 0
        revs = page["revs"]
        stamps = [r["timestamp"] for r in revs]
        if stamps != sorted(stamps):
            log.warning(
                "page %r: revisions out of chronological order, reordering",
                page["title"],
            )
            # stable sort keeps dump order among identical timestamps
            revs = sorted(revs, key=lambda r: r["timestamp"])
        records = [
            RevisionRecord(
                page_id=page_id,
                rev_ordinal=i + 1,
                author=rev["author"],
                timestamp=rev["timestamp"],
                tokens=tokenize(rev["text"]),
            )
            for i, rev in enumerate(revs)
        ]
        self.done.append(
            PageHistory(
                page_id=page_id,
                title=page["title"],
                namespace=_namespace_of(page["ns"], page["title"]),
                revisions=records,
            )
        )


def parse_dump(stream: IO[bytes], bot_config: Optional[BotConfig] = None,
               chunk_size: int = 1 << 16) -> Iterator[PageHistory]:
    """Stream a MediaWiki XML export, yielding one PageHistory per <page>.

    Peak memory is bounded by the largest single page history, not the dump.
    """
    assembler = _PageAssembler(bot_config or BotConfig())
    parser = expat.ParserCreate()
    parser.buffer_text = True
    parser.StartElementHandler = assembler.start
    parser.EndElementHandler = assembler.end
    parser.CharacterDataHandler = assembler.chars
    while True:
        chunk = stream.read(chunk_size)
        try:
            parser.Parse(chunk, not chunk)
        except expat.ExpatError as exc:
            raise DumpParseError(
                f"malformed XML at byte offset {parser.ErrorByteIndex}: {exc}"
            ) from exc
        while assembler.done:
            yield assembler.done.popleft()
        if not chunk:
            break


def _xml_escape(s: str) -> str:
    return s.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")


def serialize_dump(histories: Iterable[PageHistory]) -> str:
    """Re-emit histories as a minimal MediaWiki export (fixture round-trips)."""
    out = ['<mediawiki xmlns="http://www.mediawiki.org/xml/export-0.10/">']
    ns_code = {Namespace.ARTICLE: "0", Namespace.USER_TALK: "3", Namespace.OTHER: "2"}
    for page in histories:
        out.append("  <page>")
        out.append(f"    <title>{_xml_escape(page.title)}</title>")
        out.append(f"    <ns>{ns_code[page.namespace]}</ns>")
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
RATINGS = {"page_id": int, "title": tsv.verbatim, "class": _quality_class}


def load_ratings(lines: Iterable[str]) -> dict[int, str]:
    """Load the page_id / title / class TSV into a page -> class map."""
    ratings: dict[int, str] = {}
    for page_id, _title, cls in tsv.read_rows(lines, RATINGS):
        if page_id in ratings:
            raise RatingsError(f"{tsv.source(lines)}: duplicate page_id {page_id}")
        ratings[page_id] = cls
    return ratings
