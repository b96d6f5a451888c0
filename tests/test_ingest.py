import io
import re

import pytest
from hypothesis import given

from hostile import names
from wikiq import tsv
from wikiq.ingest import (RATINGS, AuthorKind, BotConfig, DumpParseError,
                          Namespace, RatingsError, load_ratings, make_author,
                          parse_dump, serialize_dump, tokenize)

BOTS = BotConfig(names=frozenset({"Tidy monkey"}), suffix_heuristic=True)


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
    def test_ipv4_is_anonymous(self):
        assert make_author("192.168.0.1", BOTS).kind is AuthorKind.ANONYMOUS

    def test_ipv6_is_anonymous(self):
        assert make_author("fe80::1", BOTS).kind is AuthorKind.ANONYMOUS

    def test_bot_suffix_heuristic(self):
        assert make_author("SmackBot", BOTS).kind is AuthorKind.BOT
        assert make_author("smackbot", BOTS).kind is AuthorKind.BOT

    def test_bot_list(self):
        assert make_author("tidy_monkey", BOTS).kind is AuthorKind.BOT

    def test_heuristic_off(self):
        cfg = BotConfig(suffix_heuristic=False)
        assert make_author("SmackBot", cfg).kind is AuthorKind.REGISTERED

    def test_canonicalization(self):
        assert make_author("stone_age fan", BOTS).name == "Stone age fan"


class TestParseDump:
    def test_single_page_ordinals(self):
        dump = simple_dump([
            ("Stone Age", 0, 42, [
                (USER.format("Alice"), "2011-01-01T00:00:00Z", "one"),
                (USER.format("Bob"), "2011-01-02T00:00:00Z", "one two"),
                (USER.format("Alice"), "2011-01-03T00:00:00Z", "one two three"),
            ]),
        ])
        pages = list(parse_dump(dump, BOTS))
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
        (page,) = parse_dump(dump, BOTS)
        assert page.revisions[0].author.kind is AuthorKind.ANONYMOUS

    def test_missing_contributor_warns(self, caplog):
        dump = simple_dump([
            ("X", 0, 1, [("", "2011-01-01T00:00:00Z", "t")]),
        ])
        with caplog.at_level("WARNING"):
            (page,) = parse_dump(dump, BOTS)
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
            (page,) = parse_dump(dump, BOTS)
        assert [r.author.name for r in page.revisions] == ["A", "B"]
        assert "out of chronological order" in caplog.text

    def test_user_talk_namespace(self):
        dump = simple_dump([
            ("User talk:Alice", 3, 9, [
                (USER.format("Bob"), "2011-01-01T00:00:00Z", "hi"),
            ]),
        ])
        (page,) = parse_dump(dump, BOTS)
        assert page.namespace is Namespace.USER_TALK

    def test_malformed_xml_reports_offset(self):
        stream = io.BytesIO(b"<mediawiki><page><title>X</title></mediawiki>")
        with pytest.raises(DumpParseError, match=r"byte offset \d+"):
            list(parse_dump(stream, BOTS))

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
        stream = io.BytesIO(raw)
        it = parse_dump(stream, BOTS, chunk_size=4096)
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
            titles = [page.title for page in parse_dump(fp, BOTS)]
        _, peak = tracemalloc.get_traced_memory()
        tracemalloc.stop()
        assert titles == ["Huge", "Tiny"]
        # one 10k-revision history is ~10MB of small objects; well under the
        # dump-in-memory failure mode but generous enough to be stable
        assert peak < 80 * 1024 * 1024

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
        pages = list(parse_dump(dump, BOTS))
        re_emitted = serialize_dump(pages)
        again = list(parse_dump(io.BytesIO(re_emitted.encode()), BOTS))
        assert again == pages

    def test_deterministic(self):
        def parse():
            dump = simple_dump([
                ("A", 0, 1, [(USER.format("X"), "2011-01-01T00:00:00Z", "a b c")]),
            ])
            return list(parse_dump(dump, BOTS))

        assert parse() == parse()


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
        with pytest.raises(RatingsError, match="line 2.*FL"):
            load_ratings(lines)

    def test_duplicate_page_rejected(self):
        lines = ["page_id\ttitle\tclass\n", "1\tX\tC\n", "1\tY\tB\n"]
        with pytest.raises(RatingsError, match="duplicate"):
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
