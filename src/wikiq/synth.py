"""Deterministic synthetic corpus generator.

Emits a MediaWiki-export shaped XML dump plus a ratings TSV.  A pool of
prolific authors writes class-scaled amounts of surviving text (higher
classes get more and larger edits from that pool) and exchanges talk-page
messages in a near-regular pattern, so their collaboration centrality is
high and nearly uniform.  A larger pool of occasional authors adds edits
whose size carries no class signal at all, which blurs pure longevity
rankings but washes out of centrality-weighted ones.  A few low-class
pages are inflated by occasional authors only, and one Start-class page
carries a planted oversized contribution from the busiest prolific author.
"""

from __future__ import annotations

import io
import random
from dataclasses import dataclass, field

from . import tsv
from .ingest import (QUALITY_CLASSES, RATINGS, USER_TALK, AuthorId, AuthorKind,
                     Namespace, PageHistory, RevisionRecord, serialize_dump,
                     tokenize)


def _default_pages_per_class() -> dict[str, int]:
    return {"FA": 5, "GA": 10, "C": 15, "Start": 20, "Stub": 25}


@dataclass
class SynthSpec:
    pages_per_class: dict[str, int] = field(default_factory=_default_pages_per_class)
    elite_authors: int = 16
    casual_authors: int = 60
    base_revisions: int = 2        # prolific edits on a Stub-class page
    revisions_per_level: int = 2   # extra prolific edits per class level
    insert_base: int = 6           # words per prolific edit on a Stub page
    insert_per_level: int = 7      # extra words per edit per class level
    revert_probability: float = 0.02
    talk_message_rate: float = 6.0  # elite peers messaging each talk page
    noisy_pages: int = 3  # low-class pages inflated by low-profile authors
    plant_anomaly: bool = True  # one Start page with top-tier contribution
    seed: int = 1

    def __post_init__(self):
        """Refuse a class outside the ladder; this runs under
        dataclasses.replace too."""
        for cls in self.pages_per_class:
            if cls not in QUALITY_CLASSES:
                raise ValueError(
                    f"config key 'pages_per_class': unknown class {cls!r} "
                    f"(one of {', '.join(QUALITY_CLASSES)})")


def _fresh_words(rng: random.Random, n: int) -> list[str]:
    return [f"w{rng.randrange(200_000)}" for _ in range(n)]


class _Corpus:
    def __init__(self, spec: SynthSpec):
        self.spec = spec
        self.rng = random.Random(spec.seed)
        self.elite = [f"Editor{i:02d}" for i in range(spec.elite_authors)]
        self.casual = [f"Writer{i:02d}" for i in range(spec.casual_authors)]
        self.bots = ["CleanupBot", "ArchiveBot"]
        self.pages: list[PageHistory] = []
        self.ratings: list[tuple[int, str, str]] = []
        self.activity: dict[str, int] = {}
        self.next_page_id = 100
        self.clock = 1_300_000_000

    def _tick(self) -> int:
        self.clock += self.rng.randint(60, 3600)
        return self.clock

    def _add_page(self, title: str, namespace: Namespace,
                  revisions: list[tuple[str, list[str]]]) -> int:
        """A page of (author, tokens) revisions; every author is registered."""
        page_id = self.next_page_id
        self.next_page_id += 1
        self.pages.append(PageHistory(page_id, title, namespace, [
            RevisionRecord(i + 1, AuthorId(author, AuthorKind.REGISTERED),
                           self._tick(), tokens)
            for i, (author, tokens) in enumerate(revisions)]))
        return page_id

    def _article(self, name: str, cls: str, level: int,
                 elite_team: list[str], casual_team: list[str],
                 big_edit_by: str | None = None,
                 big_edit_size: int = 0) -> None:
        rng = self.rng
        spec = self.spec
        insert = spec.insert_base + spec.insert_per_level * level
        n_elite = (spec.base_revisions + spec.revisions_per_level * level
                   + rng.randint(0, 1)) if elite_team else 0
        n_casual = 2 + rng.randint(0, 3)
        slots = ["e"] * n_elite + ["c"] * (n_casual - 1)
        rng.shuffle(slots)
        slots.append("c")  # a trailing edit so every earlier one gets judged
        text: list[str] = []
        versions: list[list[str]] = [[]]
        revisions: list[tuple[str, list[str]]] = []
        for i, slot in enumerate(slots):
            if slot == "e":
                author = rng.choice(elite_team)
                grow = max(1, insert + rng.randint(-2, 2))
            else:
                author = rng.choice(casual_team)
                # occasional-author edit sizes carry no class signal
                grow = rng.randint(3, 28)
            self.activity[author] = self.activity.get(author, 0) + 1
            if i >= 2 and rng.random() < spec.revert_probability:
                text = list(versions[-2])  # full revert of the previous edit
            else:
                pos = rng.randrange(len(text) + 1)
                text = text[:pos] + _fresh_words(rng, grow) + text[pos:]
            versions.append(list(text))
            revisions.append((author, list(text)))
        if big_edit_by is not None:
            self.activity[big_edit_by] = self.activity.get(big_edit_by, 0) + 1
            text = text + _fresh_words(rng, big_edit_size)
            revisions.append((big_edit_by, list(text)))
            # a couple of later tweaks by others so the big edit gets judged
            others = [a for a in casual_team if a != big_edit_by] or casual_team
            for _ in range(3):
                text = text + _fresh_words(rng, 3)
                revisions.append((rng.choice(others), list(text)))
        # occasional unjudged bot touch-up at the tail
        if rng.random() < 0.3:
            bot = rng.choice(self.bots)
            text = text + _fresh_words(rng, 2)
            revisions.append((bot, list(text)))
        page_id = self._add_page(name, Namespace.ARTICLE, revisions)
        self.ratings.append((page_id, name, cls))

    def build_articles(self) -> None:
        rng = self.rng
        spec = self.spec
        noisy_left = spec.noisy_pages
        anomaly_left = 1 if spec.plant_anomaly else 0
        for cls in sorted(spec.pages_per_class, key=lambda c: -QUALITY_CLASSES[c]):
            level = QUALITY_CLASSES[cls]
            for k in range(spec.pages_per_class[cls]):
                name = f"{cls} article {k}"
                elite_team = rng.sample(
                    self.elite, min(len(self.elite), 1 + level + rng.randint(0, 3))
                )
                casual_team = rng.sample(self.casual, 3 + rng.randint(0, 2))
                if cls == "Start" and anomaly_left and k == 0:
                    # planted anomaly: a large surviving edit by the busiest
                    # prolific author, sized to land just under the top class
                    anomaly_left = 0
                    busiest = max(
                        self.elite,
                        key=lambda a: (self.activity.get(a, 0), a),
                    )
                    self._article(
                        name, cls, level, elite_team, casual_team,
                        big_edit_by=busiest,
                        big_edit_size=75 * spec.insert_base,
                    )
                elif cls == "Stub" and noisy_left and k >= 1:
                    # inflated low-class page written by low-profile authors:
                    # longevity noise that centrality weighting discounts
                    noisy_left -= 1
                    quiet = rng.sample(self.casual, 3)
                    self._article(
                        name, cls, level, [], quiet,
                        big_edit_by=rng.choice(quiet),
                        big_edit_size=45 * spec.insert_base,
                    )
                else:
                    self._article(name, cls, level, elite_team, casual_team)

    def build_talk_pages(self) -> None:
        rng = self.rng
        n = len(self.elite)
        fan_in = max(2, min(n - 1, round(self.spec.talk_message_rate)))
        for idx, owner in enumerate(self.elite):
            # round-robin peers: every prolific author sends and receives the
            # same number of messages, so their centrality is nearly uniform
            senders = [self.elite[(idx + j) % n] for j in range(1, fan_in + 1)]
            for _ in range(rng.randint(1, 3)):
                senders.append(rng.choice(self.casual))
            rng.shuffle(senders)
            revisions: list[tuple[str, list[str]]] = []
            text: list[str] = []
            for sender in senders:
                msg = _fresh_words(rng, rng.randint(3, 12))
                if rng.random() < 0.8:
                    msg += tokenize(
                        f"[[User:{sender}|{sender}]] 12:01, 3 March 2011 (UTC)"
                    )
                text = text + msg
                revisions.append((sender, list(text)))
                if rng.random() < 0.25:
                    # owner reply on own page: history edge must not appear
                    text = text + _fresh_words(rng, 4)
                    revisions.append((owner, list(text)))
            if rng.random() < 0.3:
                bot = rng.choice(self.bots)
                text = text + _fresh_words(rng, 2)
                revisions.append((bot, list(text)))
            self._add_page(f"{USER_TALK}{owner}", Namespace.USER_TALK, revisions)


def generate(spec: SynthSpec | None = None) -> tuple[str, str]:
    """Return (dump_xml, ratings_tsv) for the spec; same spec + seed is
    byte-identical."""
    spec = spec or SynthSpec()
    corpus = _Corpus(spec)
    corpus.build_articles()
    corpus.build_talk_pages()
    ratings = io.StringIO()
    tsv.write_rows(ratings, RATINGS, sorted(corpus.ratings))
    return serialize_dump(corpus.pages), ratings.getvalue()
