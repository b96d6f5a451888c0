import io
import itertools

import pytest
from hypothesis import example, given, settings, strategies as st

from hostile import names
from wikiq.ingest import (AuthorId, AuthorKind, Namespace, PageHistory,
                          RevisionRecord, tokenize)
from wikiq.networks import (AuthorGraph, build_coauthor, build_talk_history,
                            build_talk_signature, iter_signatures,
                            read_edge_list, restrict_and_filter,
                            write_edge_list)
from wikiq.tsv import TsvError


def utp(owner, texts_by, page_id=1):
    """texts_by: list of (author_name, kind, text); cumulative revisions."""
    revs = []
    body = ""
    for i, (name, kind, text) in enumerate(texts_by):
        body += " " + text
        revs.append(RevisionRecord(
            i + 1, AuthorId(name, kind), 1000 + i, tokenize(body)
        ))
    return PageHistory(page_id, f"User talk:{owner}", Namespace.USER_TALK, revs)


LOOK_ALIKES = ["Jean-Luc", "Jean - Luc", "O'Brien", "Ann", "Owner"]
# user talk pages as (owner, [(editor, the names its revision signs)]);
# "10.0.0.1" edits anonymously
look_alike_pages = st.lists(st.tuples(
    st.sampled_from(["Owner", "Jean-Luc", "Ann"]),
    st.lists(st.tuples(st.sampled_from(LOOK_ALIKES + ["10.0.0.1"]),
                       st.lists(st.sampled_from(LOOK_ALIKES), max_size=3)),
             min_size=1, max_size=6)),
    min_size=1, max_size=3)


def signed(name):
    return f"message text [[User:{name}|{name}]] 12:01, 3 March 2011 (UTC)"


class TestCoauthor:
    def test_single_page_clique(self):
        g = build_coauthor([["x", "y", "z"]])
        assert g.edges == {("x", "y"): 1, ("x", "z"): 1, ("y", "z"): 1}
        assert not g.directed

    def test_weight_accumulates_over_pages(self):
        g = build_coauthor([["x", "y"], ["x", "y"]])
        assert g.edges == {("x", "y"): 2}  # one undirected edge, stored once

    def test_edge_count_matches_pair_enumeration(self):
        import random

        rng = random.Random(7)
        selections = [
            rng.sample("abcdefghij", rng.randint(1, 6))
            for _ in range(10)
        ]
        g = build_coauthor(selections)
        # brute-force oracle: count distinct unordered pairs and their multiplicity
        pairs = {}
        for s in selections:
            for a, b in itertools.combinations(sorted(set(s)), 2):
                pairs[(a, b)] = pairs.get((a, b), 0) + 1
        assert g.edges == pairs
        assert sum(pairs.values()) == sum(
            len(set(s)) * (len(set(s)) - 1) // 2
            for s in selections
        )

    def test_empty(self):
        g = build_coauthor([])
        assert not g.nodes and not g.edges

    def test_solo_author_adds_no_node(self):
        # a network's nodes are its edges' endpoints
        g = build_coauthor([["only"]])
        assert not g.nodes and not g.edges


class TestTalkSignature:
    def test_two_signed_messages(self):
        page = utp("Bob", [
            ("Alice", AuthorKind.REGISTERED, signed("Alice")),
            ("Alice", AuthorKind.REGISTERED, signed("Alice")),
        ])
        g = build_talk_signature([page])
        assert g.directed
        assert g.edges == {("Alice", "Bob"): 2}

    def test_owner_signature_ignored(self):
        page = utp("Bob", [("Bob", AuthorKind.REGISTERED, signed("Bob"))])
        g = build_talk_signature([page])
        assert not g.edges

    def test_stale_signature_points_to_old_name(self):
        # a renamed user's old signature still credits the stale name, as
        # often as the stale name edited the page; the new name's own edits
        # cannot sign for it
        page = utp("Bob", [("OldName", AuthorKind.REGISTERED, signed("OldName")),
                           ("NewName", AuthorKind.REGISTERED, signed("OldName"))])
        g = build_talk_signature([page])
        assert g.edges == {("OldName", "Bob"): 1}
        page = utp("Bob", [("NewName", AuthorKind.REGISTERED, signed("OldName"))])
        assert not build_talk_signature([page]).edges

    def test_signer_counts_at_most_as_often_as_it_edited(self):
        # Alice signs three times in one revision; an anonymous revision
        # signs as Carol, who never edited the page, and as Alice again
        page = utp("Bob", [
            ("Alice", AuthorKind.REGISTERED, " ".join([signed("Alice")] * 3)),
            ("10.0.0.1", AuthorKind.ANONYMOUS, signed("Carol") + " " + signed("Alice")),
        ])
        assert build_talk_signature([page]).edges == {("Alice", "Bob"): 1}

    def test_page_only_anonymous_editors_touched_adds_no_node(self):
        page = utp("Bob", [("10.0.0.1", AuthorKind.ANONYMOUS, signed("Alice"))])
        for build in (build_talk_signature, build_talk_history):
            assert not build([page]).nodes

    def test_unsigned_message_not_counted(self):
        page = utp("Bob", [("Alice", AuthorKind.REGISTERED, "drive-by note")])
        g = build_talk_signature([page])
        assert not g.edges

    def test_bad_title_skipped(self, caplog):
        page = PageHistory(1, "Not a talk page", Namespace.USER_TALK, [])
        with caplog.at_level("WARNING"):
            g = build_talk_signature([page])
        assert not g.nodes
        assert "skipped" in caplog.text

    def test_timestamp_outside_window_not_a_signature(self):
        filler = " ".join(f"f{i}" for i in range(60))
        text = f"[[User:Alice|Alice]] {filler} 12:01, 3 March 2011 (UTC)"
        assert list(iter_signatures(tokenize(text))) == []

    def test_user_talk_link_counts(self):
        text = "[[User talk:Alice|talk]] 12:01, 3 March 2011 (UTC)"
        assert list(iter_signatures(tokenize(text))) == ["Alice"]

    @pytest.mark.parametrize("link", ["[[User Alice|Alice]]", "[[User talk Alice]]",
                                      "[[User]]", "[[User"])
    def test_user_link_without_colon_has_no_signer(self, link):
        text = f"{link} 12:01, 3 March 2011 (UTC)"
        assert list(iter_signatures(tokenize(text))) == []

    @pytest.mark.parametrize("link", ["[[User:|Alice]]", "[[User:]]",
                                      "[[User talk:|talk]]"])
    def test_user_link_without_name_has_no_signer(self, link):
        text = f"{link} 12:01, 3 March 2011 (UTC) [[User:Bob|Bob]] (UTC)"
        assert list(iter_signatures(tokenize(text))) == ["Bob"]

    def test_punctuated_signer_resolves_to_its_one_author(self):
        """A link splits punctuation off a name, so "Jean-Luc" signs as
        "Jean - Luc"; the one editor of the page who spells that way is the
        signer. "C-D" and "C - D" spell alike, so their signatures credit
        neither."""
        signers = ["Jean-Luc", "O'Brien", "Foo (WMF)", "C-D", "C - D", "Own-er"]
        page = utp("Own-er", [(name, AuthorKind.REGISTERED, signed(name))
                              for name in signers])
        assert build_talk_signature([page]).edges == {
            ("Jean-Luc", "Own-er"): 1, ("O'Brien", "Own-er"): 1,
            ("Foo (WMF)", "Own-er"): 1}


class TestTalkHistory:
    def test_five_edits_weight_five(self):
        page = utp("Bob", [("Alice", AuthorKind.REGISTERED, f"m{i}") for i in range(5)])
        g = build_talk_history([page])
        assert g.edges == {("Alice", "Bob"): 5}

    def test_owner_edits_ignored(self):
        page = utp("Bob", [
            ("Bob", AuthorKind.REGISTERED, "my own archive shuffle"),
            ("Alice", AuthorKind.REGISTERED, "hi"),
        ])
        g = build_talk_history([page])
        assert g.edges == {("Alice", "Bob"): 1}  # no ("Bob", "Bob")

    def test_anonymous_edits_ignored(self):
        page = utp("Bob", [("10.0.0.1", AuthorKind.ANONYMOUS, "anon note")])
        g = build_talk_history([page])
        assert not g.edges

    @settings(derandomize=True, deadline=None)
    @example([("Owner", [("Jean-Luc", ["Jean-Luc"])])], set())
    @given(look_alike_pages, st.sets(st.sampled_from(LOOK_ALIKES)))
    def test_history_superset_of_signature(self, drawn, project_authors):
        """Every talk-sig edge is a talk-hist edge of at least its weight,
        whoever edits and signs among names that a signature spells alike,
        before and after the restriction to the project's authors."""
        pages = [utp(owner, [(name, AuthorKind.ANONYMOUS if name == "10.0.0.1"
                              else AuthorKind.REGISTERED,
                              " ".join(map(signed, signers)) or "unsigned note")
                             for name, signers in revisions], page_id=i)
                 for i, (owner, revisions) in enumerate(drawn, 1)]
        sig = build_talk_signature(pages)
        hist = build_talk_history(pages)
        for restrict in (lambda g: g, lambda g: restrict_and_filter(g, project_authors)):
            restricted = restrict(hist)
            assert all(restricted.edges.get(edge, 0) >= weight
                       for edge, weight in restrict(sig).edges.items())

    def test_weight_conservation(self):
        pages = [
            utp("Bob", [
                ("Alice", AuthorKind.REGISTERED, "a"),
                ("Carol", AuthorKind.REGISTERED, "b"),
                ("Bob", AuthorKind.REGISTERED, "self"),
                ("10.0.0.1", AuthorKind.ANONYMOUS, "anon"),
            ], page_id=1),
            utp("Carol", [("Alice", AuthorKind.REGISTERED, "c")], page_id=2),
        ]
        g = build_talk_history(pages)
        qualifying = 3  # registered, non-owner revisions
        assert sum(g.edges.values()) == qualifying


class TestRestrictAndFilter:
    def make_graph(self):
        g = AuthorGraph(kind="talk_history", directed=True)
        g.add_edge("Alice", "Bob", 2)
        g.add_edge("Outsider", "Bob", 1)
        g.add_edge("SmackBot", "Alice", 4)
        return g

    def test_restriction(self):
        # Lurker is a project author with no edge, so not a node
        g = restrict_and_filter(self.make_graph(), {"Alice", "Bob", "Lurker"})
        assert g.edges == {("Alice", "Bob"): 2}
        assert g.nodes == {"Alice", "Bob"}
        with pytest.raises(AttributeError):
            g.nodes.add("Lurker")  # nodes come only through edges

    def test_empty_restriction(self):
        g = restrict_and_filter(self.make_graph(), set())
        assert not g.nodes and not g.edges

    def test_node_count_bounded_by_author_count(self):
        authors = {"Alice", "Bob", "Lurker", "Ghost"}
        g = restrict_and_filter(self.make_graph(), authors)
        assert len(g.nodes) <= len(authors)


@example(["Alice", "Bob", "Carol"])
@given(st.lists(names, min_size=3, max_size=3, unique=True))
def test_edge_list_roundtrip(nodes):
    g = AuthorGraph(kind="talk_history", directed=True)
    g.add_edge(nodes[0], nodes[1], 3)
    g.add_edge(nodes[1], nodes[0], 1)
    g.add_edge(nodes[2], nodes[0], 2)
    buf = io.StringIO()
    write_edge_list(g, buf)
    again = read_edge_list(io.StringIO(buf.getvalue()))
    assert again.kind == g.kind and again.directed == g.directed
    assert again.edges == g.edges and again.nodes == g.nodes


def test_edge_list_without_its_kind_line_is_refused():
    for text in ("src\tdst\tweight\nAlice\tBob\t1\n# node=Carol\n",
                 # an older program wrote each isolated node as a '# node=' line
                 "# kind=talk_history directed=true\n"
                 "src\tdst\tweight\nAlice\tBob\t1\n# node=Carol\n"):
        with pytest.raises(TsvError, match="^<input>: expected one '# kind=' line; "
                                           "re-run 'wikiq net'$"):
            read_edge_list(io.StringIO(text))
