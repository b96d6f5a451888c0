"""Author network construction: co-author net from main contributors and
the two user-talk nets (signature-parsed current version vs. full history).
"""

from __future__ import annotations

import logging
import re
from collections import Counter
from dataclasses import dataclass, field
from functools import cache
from itertools import chain, combinations, repeat
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
    edges: dict[tuple[str, str], int] = field(default_factory=dict)

    @property
    def nodes(self) -> frozenset[str]:
        """A network's nodes are its edges' endpoints: an author with no
        edge has no relation for a centrality to measure."""
        return frozenset(chain.from_iterable(self.edges))

    def add_edge(self, src: str, dst: str, weight: int = 1) -> None:
        if src == dst:
            return
        if not self.directed and src > dst:
            src, dst = dst, src
        self.edges[(src, dst)] = self.edges.get((src, dst), 0) + weight


def build_coauthor(selections: Iterable[Iterable[str]]) -> AuthorGraph:
    """Undirected net linking main contributors who share a page; weight =
    number of co-authored pages."""
    g = AuthorGraph(kind="coauthor", directed=False)
    for selected in selections:
        for a, b in combinations(sorted(set(selected)), 2):
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
    revision."""
    g = AuthorGraph(kind=kind, directed=True)
    for page in utp_pages:
        owner = utp_owner(page.title)
        if owner is None:
            log.warning("not a user-talk title, skipped: %r", page.title)
            continue
        editors = [rev.author.name for rev in page.revisions
                   if rev.author.kind is not AuthorKind.ANONYMOUS]
        for sender in senders(page, editors):
            if sender != owner:
                g.add_edge(sender, owner)
    return g


def build_talk_signature(utp_pages: Iterable[PageHistory]) -> AuthorGraph:
    """Directed talk net parsed from signatures on the current UTP version.
    Each editor of the page is credited with the signatures that spell its
    name as a signature's link does, at most as often as it edited the
    page, so no one else's edit can sign for it. A spelling that two of the
    page's editors share ("C-D" and "C - D") credits neither."""
    spell = cache(lambda name: signed_name(tokenize(name)))  # few names are distinct

    def signers(page: PageHistory, editors: list[str]) -> Iterable[str]:
        if not editors:
            return ()
        signed = Counter(iter_signatures(page.revisions[-1].tokens))
        edits = Counter(editors)
        shared = Counter(map(spell, edits))
        return chain.from_iterable(
            repeat(e, min(n, signed[spell(e)])) for e, n in edits.items()
            if shared[spell(e)] == 1)
    return _talk_graph("talk_signature", utp_pages, signers)


def build_talk_history(utp_histories: Iterable[PageHistory]) -> AuthorGraph:
    """Directed talk net counting every non-anonymous, non-owner revision of
    a user talk page as one message to the owner, a bot's too: bots leave
    the net through `restrict_and_filter` to the selected authors, since
    contrib drops them."""
    return _talk_graph("talk_history", utp_histories, lambda page, editors: editors)


def restrict_and_filter(g: AuthorGraph, project_authors: set[str]) -> AuthorGraph:
    """Induced subgraph on the project's authors."""
    return AuthorGraph(g.kind, g.directed, {
        (s, d): w for (s, d), w in g.edges.items()
        if s in project_authors and d in project_authors})


def write_edge_list(g: AuthorGraph, fp: IO[str]) -> None:
    tsv.write_meta(fp, kind=g.kind, directed=str(g.directed).lower())
    tsv.write_rows(fp, EDGES, [(s, d, w) for (s, d), w in sorted(g.edges.items())])


def read_edge_list(lines: Iterable[str]) -> AuthorGraph:
    meta: list[str] = []
    edges = {(src, dst): weight
             for src, dst, weight in tsv.read_rows(lines, EDGES, meta.append)}
    m = re.fullmatch(r"kind=(\S+) directed=(true|false)", meta[0] if len(meta) == 1 else "")
    if not m:
        raise tsv.TsvError(f"{tsv.source(lines)}: expected one '# kind=' line; "
                           "re-run 'wikiq net'")
    return AuthorGraph(m.group(1), m.group(2) == "true", edges)
