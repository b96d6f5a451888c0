import io
import ipaddress
import json
import logging
import random
import re
import sys
from collections import deque
from operator import itemgetter
from typing import IO, Iterator, Optional
from unittest import mock
from xml.etree import ElementTree as ET
from xml.parsers import expat

import pytest
from hypothesis import given, settings, strategies as st

from hostile import names
from wikiq import ingest, tsv
from wikiq.cli import main
from wikiq.ingest import (ANONYMOUS_SENTINEL, RATINGS, AuthorId, AuthorKind,
                          DumpParseError, Namespace, PageHistory,
                          RevisionRecord, _is_ip, _namespace_of,
                          _page_tokens, _parse_timestamp, load_ratings, log,
                          make_author, parse_dump, serialize_dump, tokenize)
from wikiq.longevity import build_contributions
from wikiq.pipeline import RunConfig, _history_to_json, run_stage
from wikiq.synth import SynthSpec, generate

BOT_LIST = ["Tidy monkey"]
# contrib's bot rule over a canonical username, with the suffix heuristic
IS_BOT = RunConfig(bot_list=BOT_LIST).is_bot()


def simple_dump(pages):
    """pages: list of (title, ns, page_id, [(author_xml, timestamp, text)])"""
    out = ["<mediawiki>"]
    for title, ns, page_id, revs in pages:
        out.append(f"<page><title>{title}</title><ns>{ns}</ns><id>{page_id}</id>")
        for contributor, stamp, text in revs:
            out.append(
                f"<revision><id>1</id><timestamp>{stamp}</timestamp>"
                f"{contributor}<text>{text}</text></revision>"
            )
        out.append("</page>")
    out.append("</mediawiki>")
    return io.BytesIO("\n".join(out).encode())


USER = "<contributor><username>{}</username></contributor>"
IP = "<contributor><ip>{}</ip></contributor>"


class ShortReads(io.BytesIO):
    """A byte stream whose read(n) returns at most `limit` bytes, as a pipe
    or a socket may."""

    def __init__(self, raw: bytes, limit: int):
        super().__init__(raw)
        self.limit = limit

    def read(self, n=-1):
        return super().read(self.limit if n < 0 else min(n, self.limit))


class TestTokenize:
    def test_empty(self):
        assert tokenize("") == []

    def test_punctuation_splits_off(self):
        assert tokenize("Hello, world") == ["Hello", ",", "world"]

    def test_markup_brackets(self):
        assert tokenize("[[Stone Age]]") == ["[[", "Stone", "Age", "]]"]

    def test_against_independent_scanner(self):
        # character scanner built separately from the production regex
        def scan(text):
            toks, word = [], ""
            i = 0
            while i < len(text):
                ch = text[i]
                if ch.isalnum() or ch == "_":
                    word += ch
                    i += 1
                    continue
                if word:
                    toks.append(word)
                    word = ""
                if ch.isspace():
                    i += 1
                elif text[i:i + 2] in ("[[", "]]", "{{", "}}"):
                    toks.append(text[i:i + 2])
                    i += 2
                else:
                    toks.append(ch)
                    i += 1
            if word:
                toks.append(word)
            return toks

        fixtures = [
            "''italic'' [[link|text]] {{tmpl}} end.",
            "a,b;c [[X]] {{y}} ]]--",
            "multi  space\ttab\nnewline",
            "unicode: naïve café — ok",
        ]
        for text in fixtures:
            assert tokenize(text) == scan(text)


class TestAuthors:
    """Ingest labels an author registered or anonymous; whether a
    registered author is a bot is contrib's rule, `RunConfig.is_bot`."""

    def test_ipv4_is_anonymous(self):
        assert make_author("192.168.0.1").kind is AuthorKind.ANONYMOUS

    def test_ipv6_is_anonymous(self):
        assert make_author("fe80::1").kind is AuthorKind.ANONYMOUS

    def test_bot_suffix_heuristic(self):
        for raw in ("SmackBot", "smackbot"):
            author = make_author(raw)
            assert author.kind is AuthorKind.REGISTERED and IS_BOT(author.name)

    def test_bot_list(self):
        author = make_author("tidy_monkey")
        assert author.kind is AuthorKind.REGISTERED and IS_BOT(author.name)

    def test_heuristic_off(self):
        is_bot = RunConfig(bot_list=BOT_LIST, bot_suffix_heuristic=False).is_bot()
        assert not is_bot(make_author("SmackBot").name)
        assert is_bot(make_author("tidy_monkey").name)

    def test_canonicalization(self):
        assert make_author("stone_age fan").name == "Stone age fan"


def reference_is_ip(name):
    try:
        ipaddress.ip_address(name)
    except ValueError:
        return False
    return True


@settings(max_examples=2000, deadline=None)
@given(st.sampled_from(("192.168.0.1", "fe80::1", "::", "::ffff:1.2.3.4",
                        "fe80::1%eth0", "1.2.3.4%1", "1.2.3", "01.2.3.4"))
       | st.text(st.sampled_from("0123456789abcdefABCDEF.:%/_\u0663\u0967\uff11"),
                 max_size=40))
def test_is_ip_matches_ipaddress(name):
    # U+0663, U+0967 and U+FF11 are non-ASCII digits
    assert _is_ip(name) == reference_is_ip(name)


def reference_make_author(raw_name):
    name = ingest.canonical_name(raw_name)
    kind = AuthorKind.ANONYMOUS if reference_is_ip(name) else AuthorKind.REGISTERED
    return AuthorId(name=name, kind=kind)


def reference_dropped_as_bot(raw_name, bot_list, suffix_heuristic):
    """Whether contrib leaves a dump's username out as a bot's, as one
    classifier: an IP first (an anonymous edit, never a bot's), then a
    listed name, then a 'bot' suffix under the heuristic."""
    name = ingest.canonical_name(raw_name)
    if reference_is_ip(name):
        return False
    if name in {ingest.canonical_name(entry) for entry in bot_list}:
        return True
    return suffix_heuristic and name.lower().endswith("bot")


_IPV4 = st.tuples(*[st.integers(0, 255)] * 4).map(lambda t: ".".join(map(str, t)))
_IPV6 = st.ip_addresses(v=6).map(str).flatmap(
    lambda ip: st.sampled_from((ip, ip.upper(), f"{ip}%eth0", f"{ip}%1", f"{ip}%")))
_BOT_NAMES = ("tidy_monkey", "Tidy monkey", " Tidy monkey ", "Tidy  monkey", "tidy monkey")


@settings(max_examples=1000, deadline=None)
@given(st.builds(lambda a, b, c: a + b + c,
                 st.sampled_from(("", " ", "_", "Smack", "smack_", "1.2.3.4")),
                 _IPV4 | _IPV6 | st.sampled_from(_BOT_NAMES) | names,
                 st.sampled_from(("", " ", "_", "bot", "Bot", "BOT", "bot ", "_bot"))),
       st.booleans())
def test_make_author_matches_reference(raw_name, suffix_heuristic):
    """Ingest's label, then contrib's bot rule over a registered author,
    against one reference classifier."""
    author = make_author(raw_name)
    assert author == reference_make_author(raw_name)
    is_bot = RunConfig(bot_list=BOT_LIST, bot_suffix_heuristic=suffix_heuristic).is_bot()
    assert (author.kind is AuthorKind.REGISTERED and is_bot(author.name)) == (
        reference_dropped_as_bot(raw_name, BOT_LIST, suffix_heuristic))


def reference_namespace_of(ns_value, title):
    """A page's namespace, as an if-chain over the literal <ns> codes."""
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


_PADS = st.sampled_from(("", " ", "\n\t", "\u3000"))


@settings(max_examples=1000, deadline=None)
@given(st.none() | st.just("") | st.sampled_from(("+3", "3.0", "\u0663", "03", "User talk"))
       | st.builds(lambda a, code, b: f"{a}{code}{b}", _PADS, st.integers(0, 15), _PADS),
       st.builds(str.__add__, st.sampled_from(
           ("", "User talk:", "User talk: ", "user talk:", "User talk", "Talk:",
            "Wikipedia:A b", "A b:", " Plain", "Plain ")), names))
def test_namespace_of_matches_reference(ns_value, title):
    assert _namespace_of(ns_value, title) == reference_namespace_of(ns_value, title)


class TestParseDump:
    def test_single_page_ordinals(self):
        dump = simple_dump([
            ("Stone Age", 0, 42, [
                (USER.format("Alice"), "2011-01-01T00:00:00Z", "one"),
                (USER.format("Bob"), "2011-01-02T00:00:00Z", "one two"),
                (USER.format("Alice"), "2011-01-03T00:00:00Z", "one two three"),
            ]),
        ])
        pages = list(parse_dump(dump))
        assert len(pages) == 1
        page = pages[0]
        assert page.page_id == 42
        assert page.namespace is Namespace.ARTICLE
        assert [r.rev_ordinal for r in page.revisions] == [1, 2, 3]
        assert page.revisions[0].author.name == "Alice"

    def test_anonymous_contributor(self):
        dump = simple_dump([
            ("X", 0, 1, [(IP.format("192.168.0.1"), "2011-01-01T00:00:00Z", "t")]),
        ])
        (page,) = parse_dump(dump)
        assert page.revisions[0].author.kind is AuthorKind.ANONYMOUS

    def test_missing_contributor_warns(self, caplog):
        dump = simple_dump([
            ("X", 0, 1, [("", "2011-01-01T00:00:00Z", "t")]),
        ])
        with caplog.at_level("WARNING"):
            (page,) = parse_dump(dump)
        assert page.revisions[0].author.kind is AuthorKind.ANONYMOUS
        assert "without contributor" in caplog.text

    def test_out_of_order_revisions_reordered(self, caplog):
        dump = simple_dump([
            ("X", 0, 1, [
                (USER.format("B"), "2011-01-02T00:00:00Z", "later"),
                (USER.format("A"), "2011-01-01T00:00:00Z", "earlier"),
            ]),
        ])
        with caplog.at_level("WARNING"):
            (page,) = parse_dump(dump)
        assert [r.author.name for r in page.revisions] == ["A", "B"]
        assert "out of chronological order" in caplog.text

    def test_hidden_revisions_are_dropped_with_one_warning(self, caplog):
        dump = simple_dump([
            ("X", 0, 1, [
                (USER.format("A"), "2011-01-01T00:00:00Z", "a b c"),
                (USER.format("V"), "2011-01-02T00:00:00Z", "HIDDEN"),
                (USER.format("W"), "2011-01-03T00:00:00Z", "HIDDEN"),
                (USER.format("F"), "2011-01-04T00:00:00Z", "a b c d"),
            ]),
        ]).getvalue().replace(b"<text>HIDDEN</text>",
                              b'<text bytes="0" deleted="deleted" />')
        with caplog.at_level("WARNING"):
            (page,) = parse_dump(io.BytesIO(dump))
        assert [(r.rev_ordinal, r.author.name, r.tokens) for r in page.revisions] == [
            (1, "A", ["a", "b", "c"]), (2, "F", ["a", "b", "c", "d"])]
        assert [r.getMessage() for r in caplog.records] == [
            "page 'X': 2 revision(s) with hidden text dropped"]

    def test_hidden_revision_gives_the_next_editor_only_their_edit(self):
        """Author writes 400 words, Vandal's revision is hidden, Fixer adds
        one word and 10 judges add one each. Read as a blanking, the hidden
        revision handed Fixer the whole page (Author 320, Fixer 401)."""
        words = [f"w{i}" for i in range(400)]
        revs = [("Author", words), ("Vandal", None), ("Fixer", words + ["fix"])]
        revs += [(f"Judge{k}", words + ["fix"] + [f"j{t}" for t in range(k + 1)])
                 for k in range(10)]
        dump = simple_dump([("Page", 0, 1, [
            (USER.format(name), f"2011-01-{day:02d}T00:00:00Z",
             "HIDDEN" if toks is None else " ".join(toks))
            for day, (name, toks) in enumerate(revs, start=1)])])
        dump = dump.getvalue().replace(b"<text>HIDDEN</text>",
                                       b'<text deleted="deleted" />')
        (contribs,) = build_contributions(parse_dump(io.BytesIO(dump))).values()
        assert contribs["Author"] == pytest.approx(400, abs=1)
        assert contribs["Fixer"] == pytest.approx(1, abs=0.5)
        assert "Vandal" not in contribs

    def test_deleted_contributor_reads_as_the_anonymous_sentinel(self, caplog):
        dump = simple_dump([
            ("X", 0, 1, [('<contributor deleted="deleted" />',
                          "2011-01-01T00:00:00Z", "t")]),
        ])
        with caplog.at_level("WARNING"):
            (page,) = parse_dump(dump)
        assert page.revisions[0].author == AuthorId(ANONYMOUS_SENTINEL,
                                                    AuthorKind.ANONYMOUS)
        assert page.revisions[0].tokens == ["t"]
        assert "without contributor" in caplog.text

    def test_timestamp_without_zone_reads_as_utc(self):
        assert _parse_timestamp("2011-01-01T00:00:00") == 1293840000
        assert (_parse_timestamp("2011-03-03T12:01:00")
                == _parse_timestamp("2011-03-03T12:01:00Z"))

    def test_user_talk_namespace(self):
        dump = simple_dump([
            ("User talk:Alice", 3, 9, [
                (USER.format("Bob"), "2011-01-01T00:00:00Z", "hi"),
            ]),
        ])
        (page,) = parse_dump(dump)
        assert page.namespace is Namespace.USER_TALK

    def test_malformed_xml_reports_offset(self):
        stream = io.BytesIO(b"<mediawiki><page><title>X</title></mediawiki>")
        with pytest.raises(DumpParseError, match=r"line \d+, column \d+"):
            list(parse_dump(stream))

    @pytest.mark.parametrize("page_id, stamp, bad", [
        ("x12", "2011-03-13T07:41:16Z", "page id 'x12'"),
        ("1_0", "2011-03-13T07:41:16Z", "page id '1_0'"),
        (7, "bogus2011-03-13T07:41:16+00:00",
         "timestamp 'bogus2011-03-13T07:41:16+00:00'"),
    ])
    def test_unparseable_field_names_the_page(self, tmp_path, capsys,
                                              page_id, stamp, bad):
        """A page <id> that is not an integer, or a <timestamp> that does
        not parse, makes ingest exit 2 with one line that names the page's
        title and the bad text."""
        dump = simple_dump([("Stone Age", 0, page_id, [
            (USER.format("Alice"), stamp, "one")])])
        (tmp_path / "dump.xml").write_bytes(dump.getvalue())
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"dump": str(tmp_path / "dump.xml"),
                                      "workdir": str(tmp_path / "work")}))
        assert main(["ingest", "--config", str(config)]) == 2
        err = capsys.readouterr().err.strip().split("\n")
        assert err == [f"wikiq: error: page 'Stone Age': {bad} does not parse"]

    def test_streaming_yields_before_end_of_stream(self):
        big = simple_dump([
            ("Small", 0, 2, [
                (USER.format("B"), "2011-01-01T00:00:00Z", "y"),
            ]),
            ("Big", 0, 1, [
                (USER.format("A"), "2011-01-01T00:00:00Z", "x " * 200)
            ] * 200),
        ])
        raw = big.getvalue()
        stream = ShortReads(raw, 4096)
        it = parse_dump(stream)
        first = next(it)
        assert first.title == "Small"
        # the first page arrives long before the dump is fully consumed
        assert stream.tell() <= 4096 < len(raw)

    def test_memory_bounded_by_single_page(self, tmp_path):
        import tracemalloc

        # page 1 has 10_000 revisions; parsing must not hold more than about
        # one page history at a time
        path = tmp_path / "dump.xml"
        with open(path, "w") as fp:
            fp.write("<mediawiki>\n<page><title>Huge</title><ns>0</ns><id>1</id>\n")
            for i in range(10_000):
                fp.write(
                    "<revision><id>1</id>"
                    f"<timestamp>2011-01-01T00:{i // 600:02d}:{i // 10 % 60:02d}Z</timestamp>"
                    "<contributor><username>A</username></contributor>"
                    "<text>tok tok tok</text></revision>\n"
                )
            fp.write("</page>\n<page><title>Tiny</title><ns>0</ns><id>2</id>\n")
            fp.write(
                "<revision><id>1</id><timestamp>2011-01-01T00:00:00Z</timestamp>"
                "<contributor><username>B</username></contributor>"
                "<text>y</text></revision>\n</page>\n</mediawiki>\n"
            )
        tracemalloc.start()
        with open(path, "rb") as fp:
            titles = [page.title for page in parse_dump(fp)]
        _, peak = tracemalloc.get_traced_memory()
        tracemalloc.stop()
        assert titles == ["Huge", "Tiny"]
        # one 10k-revision history is ~10MB of small objects; well under the
        # dump-in-memory failure mode but generous enough to be stable
        assert peak < 80 * 1024 * 1024

    def test_memory_does_not_grow_with_page_count(self):
        import tracemalloc

        # 1,000 small pages: a parser that kept finished pages in its tree
        # would hold ~20MB of elements by the end
        revision = ("<revision><id>1</id><timestamp>2011-01-01T00:00:00Z</timestamp>"
                    "<contributor><username>A</username><id>3</id></contributor>"
                    "<comment>c</comment><model>wikitext</model>"
                    "<text>" + "tok " * 30 + "</text><sha1>x</sha1></revision>\n")
        raw = "".join(f"<page><title>P{i}</title><ns>0</ns><id>{i}</id>\n"
                      + revision * 10 + "</page>\n" for i in range(1000))
        stream = io.BytesIO(f"<mediawiki>\n{raw}</mediawiki>\n".encode())
        tracemalloc.start()
        count = sum(1 for _ in parse_dump(stream))
        _, peak = tracemalloc.get_traced_memory()
        tracemalloc.stop()
        assert count == 1000
        assert peak < 4 * 1024 * 1024

    def test_roundtrip_identity(self):
        dump = simple_dump([
            ("Stone Age", 0, 42, [
                (USER.format("Alice"), "2011-01-01T00:00:00Z", "[[Stone Age]] is old."),
                (IP.format("10.0.0.1"), "2011-01-02T01:00:00Z", "more, text!"),
            ]),
            ("User talk:Alice", 3, 43, [
                (USER.format("Bob"), "2011-01-03T00:00:00Z", "hello there"),
            ]),
        ])
        pages = list(parse_dump(dump))
        re_emitted = serialize_dump(pages)
        again = list(parse_dump(io.BytesIO(re_emitted.encode())))
        assert again == pages

    def test_deterministic(self):
        def parse():
            dump = simple_dump([
                ("A", 0, 1, [(USER.format("X"), "2011-01-01T00:00:00Z", "a b c")]),
            ])
            return list(parse_dump(dump))

        assert parse() == parse()


class _PageAssembler:
    """Expat callback target that accumulates one page at a time. A
    revision whose <text> carries `deleted` is dropped, with one warning
    per page."""

    _CAPTURE = {"title", "ns", "id", "timestamp", "username", "ip", "text"}

    def __init__(self):
        self.done: deque[PageHistory] = deque()
        self._stack: list[str] = []
        self._text: list[str] = []
        self._capturing = False
        self._page: Optional[dict] = None
        self._rev: Optional[dict] = None

    def start(self, name: str, attrs: dict) -> None:
        self._stack.append(name)
        if name == "page":
            self._page = {"title": "", "ns": None, "id": None, "revs": [],
                          "hidden": 0}
        elif name == "revision" and self._page is not None:
            self._rev = {"timestamp": None, "author": None, "text": "",
                         "hidden": False}
        elif name in self._CAPTURE:
            self._capturing = True
            self._text = []
        if name == "text" and self._rev is not None and "deleted" in attrs:
            self._rev["hidden"] = True

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
                self._rev["author"] = reference_make_author(text)
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
        if rev["hidden"]:
            self._page["hidden"] += 1
            return
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
        if page["hidden"]:
            log.warning("page %r: %d revision(s) with hidden text dropped",
                        page["title"], page["hidden"])
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
                rev_ordinal=i + 1,
                author=rev["author"],
                timestamp=rev["timestamp"],
                tokens=tokenize(rev["text"]),
            )
            for i, rev in enumerate(revs)
        ]
        namespace = reference_namespace_of(page["ns"], page["title"])
        # only an article's history is diffed: any other page keeps the
        # tokens of its current text alone
        if namespace is not Namespace.ARTICLE:
            for record in records[:-1]:
                record.tokens = []
        self.done.append(
            PageHistory(
                page_id=page_id,
                title=page["title"],
                namespace=namespace,
                revisions=records,
            )
        )


def reference_parse_dump(stream: IO[bytes],
                         chunk_size: int = 1 << 16) -> Iterator[PageHistory]:
    """The hand-written expat state machine that parse_dump replaced: a stack
    of open tags and per-page and per-revision dicts rebuild each <page>."""
    assembler = _PageAssembler()
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


# XML 1.0 allows no other code points in a document
_XML_ILLEGAL = re.compile("[^\t\n\r\x20-\ud7ff\ue000-\ufffd\U00010000-\U0010ffff]")
xml_names = names.map(lambda s: _XML_ILLEGAL.sub("", s))
STAMPS = ("2011-01-01T00:00:00Z", "2011-01-02T00:00:00Z", "2011-01-03T12:30:00Z")


def _escape(s):
    return s.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")


@st.composite
def xml_text(draw):
    """Character data written as escaped text, character references, CDATA
    sections and comments."""
    out = []
    for piece in draw(st.lists(xml_names | st.sampled_from(
            ("192.168.0.1", " fe80::1 ", "Tidy_monkey", "SmackBot", "user talk:X",
             "[[User:A|A]] 12:01, 3 March 2011 (UTC)")), max_size=3)):
        how = draw(st.sampled_from(("plain", "charref", "cdata", "comment")))
        if how == "charref":
            out.append("".join(f"&#{ord(c)};" if c != "\r" else "&#xD;" for c in piece))
        elif how == "cdata" and "]]>" not in piece:
            out.append(f"<![CDATA[{piece}]]>")
        else:
            out.append(_escape(piece) + ("<!-- a comment -->" if how == "comment" else ""))
    return "".join(out)


@st.composite
def revisions(draw):
    out = ["<revision>"]
    if draw(st.booleans()):
        out.append(f"<id>{draw(st.integers(1, 10**6))}</id><parentid>3</parentid>")
    stamp = draw(st.none() | st.sampled_from(STAMPS))
    if stamp is not None:
        out.append(f"<timestamp>{stamp}</timestamp>")
    contributor = draw(st.sampled_from(("user", "user+id", "ip", "deleted", "none")))
    if contributor == "deleted":
        out.append('<contributor deleted="deleted" />')
    elif contributor != "none":
        tag = "ip" if contributor == "ip" else "username"
        ident = "<id>17</id>" if contributor == "user+id" else ""
        out.append(f"<contributor><{tag}>{draw(xml_text())}</{tag}>{ident}</contributor>")
    if draw(st.booleans()):
        out.append(f"<minor/><comment>{draw(xml_text())}</comment>")
    out.append("<model>wikitext</model><format>text/x-wiki</format>")
    text = draw(st.sampled_from(("text", "deleted", "none")))
    if text == "text":
        out.append(f'<text bytes="9" xml:space="preserve">{draw(xml_text())}</text>')
    elif text == "deleted":
        out.append('<text bytes="0" deleted="deleted" />')
    if draw(st.booleans()):
        out.append("<sha1>phoiac9h4m842xq45sp7s6u21eteeq1</sha1>")
    out.append("</revision>")
    return "\n      ".join(out)


@st.composite
def pages(draw):
    prefix = draw(st.sampled_from(("", "User talk:", "Talk:", "Help talk:")))
    out = ["<page>", f"<title>{_escape(prefix)}{draw(xml_text())}</title>"]
    ns = draw(st.none() | st.sampled_from(("0", "1", "3", " 3 ", "")))
    if ns is not None:
        out.append(f"<ns>{ns}</ns>")
    page_id = draw(st.none() | st.integers(0, 10**6))
    if page_id is not None:
        out.append(f"<id> {page_id}</id>")
    if draw(st.booleans()):
        out.append('<redirect title="Elsewhere" />')
    out += draw(st.lists(revisions(), max_size=4))
    out.append("</page>")
    return "\n    ".join(out)


@st.composite
def dumps(draw):
    """A MediaWiki-shaped export, ending at its root's end tag."""
    xmlns = ' xmlns="http://www.mediawiki.org/xml/export-0.10/"'
    out = [f'<mediawiki{draw(st.sampled_from(("", xmlns)))} xml:lang="en">']
    if draw(st.booleans()):
        out.append('<siteinfo><sitename>Wiki</sitename><namespaces><namespace key="3">'
                   "User talk</namespace></namespaces></siteinfo>")
    out += draw(st.lists(pages(), max_size=3))
    out.append("</mediawiki>")
    return "\n  ".join(out).encode()


def parse_logged(parse, raw, read_size):
    """The pages' JSON lines and the warning messages of one parse of a
    stream that returns at most `read_size` bytes a read."""
    records = []
    handler = logging.Handler()
    handler.emit = records.append
    log.addHandler(handler)
    try:
        lines = [_history_to_json(page)
                 for page in parse(ShortReads(raw, read_size))]
    finally:
        log.removeHandler(handler)
    return lines, [record.getMessage() for record in records]


@settings(max_examples=300, deadline=None)
@given(dumps())
def test_parse_dump_matches_reference(raw):
    want = parse_logged(reference_parse_dump, raw, 1 << 16)
    assert len(want[0]) == raw.count(b"<page>")
    for read_size in (1, 7, 256, 1 << 16):
        assert parse_logged(parse_dump, raw, read_size) == want


@settings(max_examples=100, deadline=None)
@given(dumps(), st.data())
def test_truncated_dump_is_a_parse_error(raw, data):
    cut = raw[:data.draw(st.integers(0, len(raw) - 1))]
    for parse in (reference_parse_dump, parse_dump):
        with pytest.raises(DumpParseError):
            list(parse(ShortReads(cut, 5)))


# every character str.isspace() accepts
SPACES = "".join(c for c in map(chr, range(sys.maxunicode + 1)) if c.isspace())
# \w runs, the characters of the doubled markup tokens, and other punctuation
_WORDY = ("a", "word", "x_1", "caf\u00e9", "\u540d\u5b57", "1984", "[", "]", "{", "}",
          "[[", "]]", "{{", "}}", "|", ",", ".", "'")


@st.composite
def page_texts(draw):
    """A page's texts, each made from the one before by an edit: an insert,
    delete or replace at any offset, one at a whitespace character that
    joins the runs either side of it or grows one of them (a word, or a
    markup pair), a blanking, or a revert to any earlier text. One page in
    four never holds a space."""
    spaces = draw(st.sampled_from((SPACES,) * 3 + (SPACES.replace(" ", ""),)))
    pieces = st.sampled_from(_WORDY * 6 + tuple(spaces) + (" ",) * 24 * (" " in spaces))
    fragments = st.lists(pieces, max_size=40).map("".join)
    # long enough to hold split points a page's tokenizer keeps
    texts = [draw(st.lists(pieces, min_size=60, max_size=400).map("".join))]
    for _ in range(draw(st.integers(0, 12))):
        text = texts[-1]
        kind = draw(st.sampled_from(("insert", "delete", "replace", "at space",
                                     "at space", "blank", "revert")))
        if kind == "blank":
            text = ""
        elif kind == "revert":
            text = draw(st.sampled_from(texts))
        elif kind == "at space" and any(c.isspace() for c in text):
            # mostly at a " ", the commonest whitespace in real text
            at = [k for k, c in enumerate(text) if c == " "] if draw(st.integers(0, 3)) else []
            k = draw(st.sampled_from(at or [k for k, c in enumerate(text) if c.isspace()]))
            piece = draw(st.sampled_from(_WORDY))
            text = draw(st.sampled_from((text[:k] + text[k + 1:],
                                         text[:k] + piece + text[k:],
                                         text[:k + 1] + piece + text[k + 1:])))
        else:
            a = draw(st.integers(0, len(text)))
            b = a if kind == "insert" else draw(st.integers(a, len(text)))
            text = text[:a] + ("" if kind == "delete" else draw(fragments)) + text[b:]
        texts.append(text)
    return texts


@settings(max_examples=500, deadline=None)
@given(page_texts())
def test_page_tokens_match_tokenize(texts):
    assert list(_page_tokens(texts)) == [tokenize(text) for text in texts]


def test_page_tokens_edit_at_every_offset():
    base = ("[[Stone Age]] was a {{period}} of prehistory, c. 3.4M years\u3000long;\t"
            "its tools_were stone.\nMost of [[it]] falls in the Pleistocene, "
            "before metal\xa0working ''spread''.")
    for k in range(len(base) + 1):
        for text in (base[:k] + "x" + base[k:], base[:k] + "[" + base[k:],
                     base[:k] + base[k + 1:], base[:k] + " " + base[k:]):
            texts = [base, text, base]
            assert list(_page_tokens(texts)) == [tokenize(t) for t in texts]


def _stamp(k):
    return f"2011-01-01T{k // 3600:02d}:{k // 60 % 60:02d}:{k % 60:02d}Z"


@settings(max_examples=100, deadline=None)
@given(page_texts(), st.randoms(use_true_random=False))
def test_parse_dump_tokens_out_of_order_revisions(texts, rng):
    # XML 1.0 cannot carry U+000B, U+000C or U+001C-U+001F, and a raw CR
    # would read as LF
    texts = [re.sub("[\x0b\x0c\x1c-\x1f]", " ", text) for text in texts]
    order = list(range(len(texts)))
    rng.shuffle(order)
    dump = simple_dump([("P", 0, 1, [
        (USER.format("A"), _stamp(k), _escape(texts[k]).replace("\r", "&#13;"))
        for k in order])])
    (page,) = parse_dump(dump)
    assert [r.tokens for r in page.revisions] == [tokenize(text) for text in texts]


def test_parsed_page_shares_kept_tokens():
    import tracemalloc

    # 300 revisions that each insert one word into a text of ~400 words
    rng = random.Random(5)
    words, revs = [f"w{k}" for k in range(400)], []
    for k in range(300):
        words.insert(rng.randrange(len(words) + 1), f"new{k}")
        revs.append((USER.format("A"), _stamp(k), " ".join(words)))
    dump = simple_dump([("P", 0, 1, revs)])
    tracemalloc.start()
    (page,) = parse_dump(dump)
    _, peak = tracemalloc.get_traced_memory()
    tracemalloc.stop()
    for prev, rev in zip(page.revisions, page.revisions[1:]):
        kept = {id(token) for token in prev.tokens}  # prev holds them alive
        assert [token for token in rev.tokens if id(token) not in kept] == [
            f"new{rev.rev_ordinal - 1}"]
    # what one list of its own tokens per revision would cost
    unshared = sum(sys.getsizeof(r.tokens) + sum(map(sys.getsizeof, r.tokens))
                   for r in page.revisions)
    assert peak < unshared / 2


def _kept_texts(raw: bytes) -> list[list[str]]:
    """Each page's texts that ingest keeps, oldest first: the hidden ones
    dropped, and the rest in a stable sort by timestamp."""
    root = ET.fromstring(raw)
    ns = root.tag[:root.tag.find("}") + 1]
    pages = []
    for page in root.iter(ns + "page"):
        revs = [(_parse_timestamp(rev.findtext(ns + "timestamp")), rev.find(ns + "text"))
                for rev in page.iter(ns + "revision")]
        pages.append([text.text or "" for _, text in sorted(revs, key=itemgetter(0))
                      if "deleted" not in text.attrib])
    return pages


def _talk_dump_with_hidden_last_revision() -> bytes:
    """A user talk page whose revisions come in shuffled timestamp order
    and whose latest revision's text is hidden, beside an article and a
    user page."""
    rng = random.Random(3)
    order = list(range(6))
    rng.shuffle(order)
    talk = [(USER.format(f"U{k}"), _stamp(k), f"hi [[User:U{k}|U{k}]] {k} {'word ' * k}")
            for k in order]
    article = [(USER.format("A"), _stamp(k), f"Rock is {'hard ' * k}stone.")
               for k in (2, 0, 1)]
    other = [(USER.format("B"), _stamp(k), f"about me {k}") for k in range(3)]
    raw = simple_dump([("User talk:Ann", 3, 7, talk), ("Rock", 0, 8, article),
                       ("User:Ann", 2, 9, other)]).getvalue()
    hidden = (f"<revision><id>1</id><timestamp>{_stamp(99)}</timestamp>"
              f"{USER.format('Z')}<text deleted=\"deleted\" /></revision>")
    return raw.replace(b"</page>", hidden.encode() + b"</page>", 1)


@pytest.mark.parametrize("raw", [
    _talk_dump_with_hidden_last_revision(),
    generate(SynthSpec(seed=1))[0].encode(),
], ids=["hidden-last-talk-revision", "synth-seed-1"])
def test_only_article_pages_keep_every_revisions_tokens(raw):
    """A page outside the article namespace holds [] on every revision but
    its current one, the last kept after the sort and the hidden-text drop,
    whose tokens are `tokenize` of its text. An article page holds every
    revision's tokens."""
    pages = list(parse_dump(io.BytesIO(raw)))
    kept = _kept_texts(raw)
    assert len(pages) == len(kept)
    for page, texts in zip(pages, kept):
        want = [tokenize(text) for text in texts]
        if page.namespace is not Namespace.ARTICLE:
            want[:-1] = [[] for _ in texts[1:]]
        assert [rev.tokens for rev in page.revisions] == want
    assert any(page.namespace is Namespace.USER_TALK and len(page.revisions) > 1
               and page.revisions[-1].tokens for page in pages)


def test_ingest_tokenizes_only_the_kept_texts(tmp_path):
    """ingest hands `_page_tokens` each article revision's text, and of
    any other page only its current text."""
    dump, ratings = generate(SynthSpec(seed=1))
    (tmp_path / "dump.xml").write_text(dump, encoding="utf-8")
    (tmp_path / "ratings.tsv").write_text(ratings, encoding="utf-8")
    received = []

    def counting(texts):
        texts = list(texts)
        received.append(len(texts))
        return _page_tokens(texts)

    with mock.patch.object(ingest, "_page_tokens", counting):
        run_stage("ingest", RunConfig(dump=str(tmp_path / "dump.xml"),
                                      ratings=str(tmp_path / "ratings.tsv"),
                                      workdir=str(tmp_path / "work")))
    pages = list(parse_dump(io.BytesIO(dump.encode())))
    articles = sum(len(page.revisions) for page in pages
                   if page.namespace is Namespace.ARTICLE)
    others = sum(bool(page.revisions) for page in pages
                 if page.namespace is not Namespace.ARTICLE)
    assert sum(received) == articles + others
    assert articles + others < sum(len(page.revisions) for page in pages)


class TestRatings:
    @given(title=names)
    def test_basic_row(self, title):
        lines = ["page_id\ttitle\tclass\n", "42\tStone Age\tC\n"]
        assert load_ratings(lines) == {42: "C"}
        buf = io.StringIO()
        tsv.write_rows(buf, RATINGS, [(42, title, "C")])
        assert load_ratings(io.StringIO(buf.getvalue())) == {42: "C"}

    def test_unknown_class_rejected(self):
        lines = ["page_id\ttitle\tclass\n", "42\tX\tFL\n"]
        with pytest.raises(tsv.TsvError, match="line 2.*FL"):
            load_ratings(lines)

    @pytest.mark.parametrize("page_id", ["1_0", "١٠", "-1"])
    def test_page_id_is_ascii_digits(self, page_id):
        # `int` reads the first two as 10.
        lines = ["page_id\ttitle\tclass\n", f"{page_id}\tX\tC\n"]
        with pytest.raises(tsv.TsvError, match=f"line 2: page id '{page_id}'"):
            load_ratings(lines)

    def test_duplicate_page_rejected(self):
        lines = ["page_id\ttitle\tclass\n", "1\tX\tC\n", "1\tY\tB\n"]
        with pytest.raises(tsv.TsvError, match="duplicate"):
            load_ratings(lines)

    def test_histogram_matches_independent_recount(self):
        classes = ["FA", "A", "GA", "B", "C", "Start", "Stub"]
        lines = ["page_id\ttitle\tclass\n"]
        for i in range(400):
            lines.append(f"{i}\tPage {i}\t{classes[i % 7]}\n")
        ratings = load_ratings(lines)
        assert len(ratings) == 400
        # independent recount straight off the raw lines
        for cls in classes:
            raw = sum(1 for ln in lines[1:] if ln.rstrip().endswith("\t" + cls))
            assert sum(1 for c in ratings.values() if c == cls) == raw
