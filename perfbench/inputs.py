"""Seeded input generators for the three benchmark workloads.

Every generator is a pure function of its seed: the same seed gives
byte-identical dump and ratings files.

`long_history` is written here, with a ledger of every edit so the
correctness checks can compare the program's diffs and contributions with
what was really inserted and deleted. Its text follows a Zipf law, as real
prose does: "the", "," and "." recur every few words, which is what makes
the word diff expensive. Only the rare words depend on the seed; the edit
schedule (kinds, sizes, positions, authors) and the layout of the frequent
words are fixed. So two seeds give different text of the same diff cost,
and the run-to-run spread measures the machine, not the draw.

`wide_corpus` and `network_sweep` use the program's own `wikiq.synth`
corpus model, scaled up. synth draws the shape of the corpus and its words
from one seed, and the shape sets the work: over ten seeds the work
directory's size spread by 3%. So synth always runs with one fixed seed,
and the benchmark seed renames every word by a seeded bijection that
keeps its length: the text changes with the seed, its shape and size do
not.
"""

from __future__ import annotations

import itertools
import math
import random
import re
from dataclasses import dataclass, field
from datetime import datetime, timezone

# Frequent tokens in rank order; ranks past the list are rare words.
FUNCTION_WORDS = (
    "the", ",", ".", "of", "and", "to", "a", "in", "[[", "]]", "is", "was",
    "that", "for", "on", "as", "with", "by", "he", "it", "from", "at", "his",
    "an", "were", "are", "which", "be", "this", "or", "(", ")", "her",
    "their", "had", "not", "also", "has", "but", "its",
)
ZIPF_EXPONENT = 1.0
ZIPF_VOCABULARY = 20_000
HEAD_RANKS = len(FUNCTION_WORDS)  # ranks drawn by fixed layout, not by seed

# The featured page: 72 revisions; every fifth one deletes a span.
FA_REVISIONS = 72
FA_START_TOKENS = 300
FA_INSERT_TOKENS = 15
FA_DELETE_TOKENS = 20
FA_DELETE_EVERY = 5
# The insert-only page whose contributions have an exact expected value.
INSERT_ONLY_REVISIONS = 24
INSERT_ONLY_START_TOKENS = 60
INSERT_ONLY_TOKENS = 12
# Short pages of lower classes, so every eval filter has pages.
SHORT_PAGES = (("C", 2), ("Start", 2), ("Stub", 2))
SHORT_REVISIONS = 6
SHORT_TOKENS = 8

EDITORS = (
    "Alder", "Birch", "Cedar", "Dogwood", "Elm", "Fir",
    "Ginkgo", "Hazel", "Iroko", "Juniper", "Kapok", "Larch",
)
ANONYMOUS = ("198.51.100.7", "203.0.113.42", "192.0.2.199")
BOTS = ("TidyBot", "LinkFixBot")

# `wikiq.synth` scale-ups. Base counts are SynthSpec's defaults.
SYNTH_BASE_CLASSES = {"FA": 5, "GA": 10, "C": 15, "Start": 20, "Stub": 25}
WIDE_SCALE = 4
SWEEP_SCALE = 3
SWEEP_ELITE = 120
SWEEP_CASUAL = 1200
SWEEP_REVISIONS_PER_LEVEL = 1
SWEEP_INSERT_PER_LEVEL = 4

_STRUCTURE_SEED = 20120611  # fixes the long_history edit schedule
_SYNTH_SEED = 1  # fixes the shape of the synth corpora
SYNTH_WORD = re.compile(r"\bw([0-9]+)\b")
_EPOCH = 1_300_000_000


@dataclass
class Revision:
    author: str
    kind: str  # registered | anonymous | bot
    edit: str  # insert | delete
    size: int  # tokens inserted or deleted
    tokens: list[str]


@dataclass
class Page:
    page_id: int
    title: str
    namespace: int  # 0 article, 3 user talk
    cls: str | None = None
    revisions: list[Revision] = field(default_factory=list)


@dataclass
class Corpus:
    pages: list[Page]

    def dump_xml(self) -> str:
        return serialize(self.pages)

    def ratings_tsv(self) -> str:
        rows = ["page_id\ttitle\tclass"]
        rows += [f"{p.page_id}\t{p.title}\t{p.cls}"
                 for p in self.pages if p.cls is not None]
        return "\n".join(rows) + "\n"


class _Words:
    """Zipf word source. Frequent words get their expected counts at fixed
    slots chosen by `layout`; the seeded `rng` picks only the rare words."""

    def __init__(self, rng: random.Random, layout: random.Random):
        self.rng = rng
        self.layout = layout
        weights = [1.0 / r ** ZIPF_EXPONENT
                   for r in range(1, ZIPF_VOCABULARY + 1)]
        total = sum(weights)
        self.p = [w / total for w in weights]
        self.rare = [f"lex{r}" for r in range(HEAD_RANKS, ZIPF_VOCABULARY)]
        self.rare_cum = list(itertools.accumulate(self.p[HEAD_RANKS:]))
        self.drawn = 0

    def draw(self, k: int) -> list[str]:
        slots: list[str | None] = []
        for rank, word in enumerate(FUNCTION_WORDS):
            p = self.p[rank]
            slots += [word] * (int((self.drawn + k) * p) - int(self.drawn * p))
        self.drawn += k
        slots += [None] * (k - len(slots))
        self.layout.shuffle(slots)
        rare = iter(self.rng.choices(self.rare, cum_weights=self.rare_cum, k=k))
        return [w if w is not None else next(rare) for w in slots]


def _author(layout: random.Random) -> tuple[str, str]:
    roll = layout.random()
    if roll < 0.08:
        return layout.choice(ANONYMOUS), "anonymous"
    if roll < 0.12:
        return layout.choice(BOTS), "bot"
    return layout.choice(EDITORS), "registered"


def _article(page_id, title, cls, rng, layout, n_rev, start, ins,
             delete=0, delete_every=0) -> Page:
    words = _Words(rng, layout)
    page = Page(page_id, title, 0, cls)
    text: list[str] = []
    for r in range(n_rev):
        if r == 0:
            author, kind = layout.choice(EDITORS), "registered"
        else:
            author, kind = _author(layout)
        if delete_every and r % delete_every == 0 and r > 0:
            at = layout.randrange(len(text) - delete + 1)
            text = text[:at] + text[at + delete:]
            edit, size = "delete", delete
        else:
            size = start if r == 0 else ins
            at = layout.randrange(len(text) + 1)
            text = text[:at] + words.draw(size) + text[at:]
            edit = "insert"
        page.revisions.append(Revision(author, kind, edit, size, text))
    # A closing edit by a registered editor other than the last author, so
    # every earlier revision has at least one judge.
    last = page.revisions[-1].author
    closer = layout.choice([e for e in EDITORS if e != last])
    at = layout.randrange(len(text) + 1)
    text = text[:at] + words.draw(ins) + text[at:]
    page.revisions.append(Revision(closer, "registered", "insert", ins, text))
    return page


def _talk_page(page_id, owner_index, rng, layout) -> Page:
    owner = EDITORS[owner_index]
    page = Page(page_id, f"User talk:{owner}", 3)
    words = _Words(rng, layout)
    text: list[str] = []
    others = [e for e in EDITORS if e != owner]
    # 2 to 6 senders, so talk centrality differs between editors
    for sender in layout.sample(others, 2 + owner_index % 5):
        msg = words.draw(6) + ["[[", "User", ":", sender, "|", sender, "]]",
                               "12", ":", "01", ",", "3", "March", "2011",
                               "(", "UTC", ")"]
        text = text + msg
        page.revisions.append(Revision(sender, "registered", "insert",
                                       len(msg), text))
        if layout.random() < 0.3:
            reply = words.draw(5)
            text = text + reply
            page.revisions.append(Revision(owner, "registered", "insert",
                                           len(reply), text))
    return page


def long_history(seed: int) -> Corpus:
    """One long FA history, one insert-only GA page, a few short pages and
    the editors' talk pages."""
    rng = random.Random(seed)
    layout = random.Random(_STRUCTURE_SEED)
    pages = [
        _article(1001, "Featured history", "FA", rng, layout, FA_REVISIONS,
                 FA_START_TOKENS, FA_INSERT_TOKENS, FA_DELETE_TOKENS,
                 FA_DELETE_EVERY),
        _article(1002, "Growing article", "GA", rng, layout,
                 INSERT_ONLY_REVISIONS, INSERT_ONLY_START_TOKENS,
                 INSERT_ONLY_TOKENS),
    ]
    page_id = 1003
    for cls, count in SHORT_PAGES:
        for k in range(count):
            pages.append(_article(page_id, f"{cls} article {k}", cls, rng,
                                  layout, SHORT_REVISIONS, SHORT_TOKENS,
                                  SHORT_TOKENS, SHORT_TOKENS, 3))
            page_id += 1
    for i in range(len(EDITORS)):
        pages.append(_talk_page(2001 + i, i, rng, layout))
    return Corpus(pages)


def _xml_escape(s: str) -> str:
    return s.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")


def serialize(pages: list[Page]) -> str:
    """A MediaWiki export with one <revision> per ledger entry."""
    out = ['<mediawiki xmlns="http://www.mediawiki.org/xml/export-0.10/" '
           'xml:lang="en">']
    clock = _EPOCH
    for page in pages:
        out.append("  <page>")
        out.append(f"    <title>{_xml_escape(page.title)}</title>")
        out.append(f"    <ns>{page.namespace}</ns>")
        out.append(f"    <id>{page.page_id}</id>")
        for rev_id, rev in enumerate(page.revisions, start=1):
            clock += 600 + (rev_id * 7919) % 3000
            stamp = datetime.fromtimestamp(clock, tz=timezone.utc)
            who = ("ip" if rev.kind == "anonymous" else "username")
            out.append("    <revision>")
            out.append(f"      <id>{page.page_id * 1000 + rev_id}</id>")
            out.append(f"      <timestamp>{stamp:%Y-%m-%dT%H:%M:%SZ}</timestamp>")
            out.append(f"      <contributor><{who}>{_xml_escape(rev.author)}"
                       f"</{who}></contributor>")
            out.append('      <text xml:space="preserve">'
                       f"{_xml_escape(' '.join(rev.tokens))}</text>")
            out.append("    </revision>")
        out.append("  </page>")
    out.append("</mediawiki>")
    return "\n".join(out) + "\n"


def rename_words(dump: str, seed: int) -> str:
    """Map each synth word `w<id>` to `w<id'>`, where id -> id' is a seeded
    affine bijection on the ids of the same digit count."""
    rng = random.Random(seed)
    maps = {}
    for digits in range(1, 8):
        lo = 0 if digits == 1 else 10 ** (digits - 1)
        n = 10 ** digits - lo
        a = rng.randrange(1, n)
        while math.gcd(a, n) != 1:
            a = rng.randrange(1, n)
        maps[digits] = (lo, n, a, rng.randrange(n))

    def rename(match):
        word = match.group(1)
        lo, n, a, b = maps[len(word)]
        return f"w{lo + (a * (int(word) - lo) + b) % n}"

    return SYNTH_WORD.sub(rename, dump)


def _synth(seed: int, **spec) -> tuple[str, str]:
    from wikiq.synth import SynthSpec, generate
    dump, ratings = generate(SynthSpec(seed=_SYNTH_SEED, **spec))
    return rename_words(dump, seed), ratings


def _scaled(scale: int) -> dict[str, int]:
    return {c: n * scale for c, n in SYNTH_BASE_CLASSES.items()}


def generate(workload: str, seed: int) -> tuple[str, str, Corpus | None]:
    """(dump XML, ratings TSV, ledger) for a workload; the ledger exists
    only for long_history."""
    if workload == "long_history":
        corpus = long_history(seed)
        return corpus.dump_xml(), corpus.ratings_tsv(), corpus
    if workload == "wide_corpus":
        return (*_synth(seed, pages_per_class=_scaled(WIDE_SCALE)), None)
    if workload == "network_sweep":
        return (*_synth(seed, pages_per_class=_scaled(SWEEP_SCALE),
                        elite_authors=SWEEP_ELITE,
                        casual_authors=SWEEP_CASUAL,
                        revisions_per_level=SWEEP_REVISIONS_PER_LEVEL,
                        insert_per_level=SWEEP_INSERT_PER_LEVEL), None)
    raise ValueError(f"unknown workload {workload!r}")
