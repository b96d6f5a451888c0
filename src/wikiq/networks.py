"""Author network construction: co-author net from main contributors and
the two user-talk nets (signature-parsed current version vs. full history).
"""

from __future__ import annotations

import logging
import re
from collections import Counter
from dataclasses import dataclass, field
from itertools import chain, combinations
from typing import IO, Callable, Iterable, Optional, Sequence

from . import tsv
from .ingest import USER_TALK, AuthorKind, PageHistory, canonical_name, tokenize

log = logging.getLogger(__name__)

SIGNATURE_WINDOW = 40  # tokens between user link and timestamp marker
NAME_TOKENS = 8  # a signature's link names its user in at most this many tokens
EDGES = {"src": str, "dst": str, "weight": int}


@dataclass
class AuthorGraph:
    kind: str  # coauthor | talk_signature | talk_history
    directed: bool
    nodes: set[str] = field(default_factory=set)
    edges: dict[tuple[str, str], int] = field(default_factory=dict)

    def add_edge(self, src: str, dst: str, weight: int = 1) -> None:
        if src == dst:
            return
        if not self.directed and src > dst:
            src, dst = dst, src
        self.nodes.add(src)
        self.nodes.add(dst)
        self.edges[(src, dst)] = self.edges.get((src, dst), 0) + weight


def build_coauthor(selections: Iterable[Iterable[str]]) -> AuthorGraph:
    """Undirected net linking main contributors who share a page; weight =
    number of co-authored pages."""
    g = AuthorGraph(kind="coauthor", directed=False)
    for selected in selections:
        authors = sorted(set(selected))
        g.nodes.update(authors)
        for a, b in combinations(authors, 2):
            g.add_edge(a, b)
    return g


def utp_owner(title: str) -> Optional[str]:
    if not title.startswith(USER_TALK):
        return None
    owner = title[len(USER_TALK):].split("/", 1)[0]
    return canonical_name(owner) or None


_TIMESTAMP_TOKENS = ("(", "UTC", ")")


def signed_name(tokens: Sequence[str]) -> str:
    """The name a signature's link spells with these tokens of it."""
    return canonical_name(" ".join(tokens[:NAME_TOKENS]))


def iter_signatures(tokens: Sequence[str]) -> Iterable[str]:
    """Yield signer names: a [[User:...]] / [[User talk:...]] link followed
    by a (UTC) timestamp marker within the token window."""
    n = len(tokens)
    i = 0
    while i < n:
        if tokens[i] != "[[" or i + 2 >= n or tokens[i + 1].lower() != "user":
            i += 1
            continue
        k = i + 2
        if k < n and tokens[k].lower() == "talk":
            k += 1
        if k >= n or tokens[k] != ":":
            i += 1
            continue
        k += 1
        name_toks: list[str] = []
        while k < n and tokens[k] not in ("|", "]]") and len(name_toks) < NAME_TOKENS:
            name_toks.append(tokens[k])
            k += 1
        # skip the rest of the link
        while k < n and tokens[k] != "]]":
            k += 1
        if not name_toks:
            i += 1
            continue
        end = min(n - 2, k + SIGNATURE_WINDOW)
        for t in range(k, end):
            if (tokens[t], tokens[t + 1], tokens[t + 2]) == _TIMESTAMP_TOKENS:
                yield signed_name(name_toks)
                break
        i = k + 1


def _talk_graph(kind: str, utp_pages: Iterable[PageHistory],
                senders: Callable[[PageHistory, list[str]], Iterable[str]]) -> AuthorGraph:
    """Directed net with an edge from each sender on a user talk page to
    its owner, the owner excluded. `senders` gets the page and the author of
    each of its non-anonymous revisions: neither net counts an anonymous
    revision, so a page that only anonymous editors touched adds no node."""
    g = AuthorGraph(kind=kind, directed=True)
    for page in utp_pages:
        owner = utp_owner(page.title)
        if owner is None:
            log.warning("not a user-talk title, skipped: %r", page.title)
            continue
        editors = [rev.author.name for rev in page.revisions
                   if rev.author.kind is not AuthorKind.ANONYMOUS]
        if editors:
            g.nodes.add(owner)
        for sender in senders(page, editors):
            if sender != owner:
                g.add_edge(sender, owner)
    return g


def build_talk_signature(utp_pages: Iterable[PageHistory]) -> AuthorGraph:
    """Directed talk net parsed from signatures on the current UTP version.
    A signer counts at most as often as it edited the page, spelled as a
    signature spells it, so no one else's edit can sign for it."""
    return _talk_graph("talk_signature", utp_pages, lambda page, editors: (
        Counter(iter_signatures(page.revisions[-1].tokens))
        & Counter(signed_name(tokenize(name)) for name in editors)
    ).elements() if editors else ())


def build_talk_history(utp_histories: Iterable[PageHistory]) -> AuthorGraph:
    """Directed talk net counting every registered non-owner revision of a
    user talk page as one message to the owner."""
    return _talk_graph("talk_history", utp_histories, lambda page, editors: editors)


def resolve_signers(g: AuthorGraph, authors: set[str]) -> AuthorGraph:
    """`g` with each sender that is not one of `authors` renamed to the one
    author whose name reads as that sender once tokenized and joined as
    `iter_signatures` joins a link's tokens: a signature turns "Jean-Luc"
    into "Jean - Luc". A sender that no author, or more than one, reads as
    keeps its name."""
    spelled: dict[str, Optional[str]] = {}
    for author in authors:
        signed = signed_name(tokenize(author))
        spelled[signed] = None if signed in spelled else author  # None: two sign alike
    out = AuthorGraph(g.kind, g.directed, set(g.nodes))
    for (src, dst), weight in g.edges.items():
        out.add_edge(src if src in authors else spelled.get(src) or src, dst, weight)
    return out


def restrict_and_filter(g: AuthorGraph, project_authors: set[str]) -> AuthorGraph:
    """Induced subgraph on the project's authors. Isolated project authors
    already in the graph are retained."""
    return AuthorGraph(g.kind, g.directed, g.nodes & project_authors, {
        (s, d): w for (s, d), w in g.edges.items()
        if s in project_authors and d in project_authors})


def write_edge_list(g: AuthorGraph, fp: IO[str]) -> None:
    tsv.write_meta(fp, kind=g.kind, directed=str(g.directed).lower())
    tsv.write_rows(fp, EDGES, [(s, d, w) for (s, d), w in sorted(g.edges.items())])
    # isolated nodes survive the round-trip as meta lines
    for node in sorted(g.nodes.difference(chain.from_iterable(g.edges))):
        tsv.write_meta(fp, node=node)


def read_edge_list(lines: Iterable[str]) -> AuthorGraph:
    meta: list[str] = []
    edges = {(src, dst): weight
             for src, dst, weight in tsv.read_rows(lines, EDGES, meta.append)}
    m = re.fullmatch(r"kind=(\S+) directed=(true|false)", meta[0] if meta else "")
    isolated = [text[len("node="):] for text in meta[1:] if text.startswith("node=")]
    if not m or len(isolated) < len(meta) - 1:
        raise tsv.TsvError(f"{tsv.source(lines)}: expected '# kind=', then '# node=' lines")
    g = AuthorGraph(m.group(1), m.group(2) == "true", set(isolated), edges)
    g.nodes.update(chain.from_iterable(edges))
    return g
