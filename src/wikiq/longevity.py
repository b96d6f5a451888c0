"""Edit longevity: per-revision edit quality, per-author page contribution,
and main-author selection.

A revision's quality is judged against up to the first ten later revisions
by other authors; each judgment compares how much of the edit survived,
clamped to [-1, 1], and the average scales the edit size into a longevity.
Only positive longevities accumulate into an author's page contribution.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass
from typing import IO, Callable, Iterable, Sequence

from . import tsv
from .ingest import AuthorKind, PageHistory
from .worddiff import Version, edit_distance, triangle_guard

log = logging.getLogger(__name__)

MAX_JUDGES = 10
CONTRIBUTIONS = {"page_id": int, "author": str, "contrib": float}


@dataclass(frozen=True)
class RevisionJudgment:
    rev_ordinal: int
    d_r: float
    alpha_bar: float
    longevity: float
    judge_count: int


# Per (page, author) accumulated positive edit longevity: page -> author ->
# contribution. Pages with no positive contribution keep an (empty) entry.
# A selection is a sub-table: each page's main contributors, in selection
# order, with their contributions.
ContributionTable = dict[int, dict[str, float]]


@dataclass(frozen=True)
class SelectionParams:  # the select stage's `selection` config field
    min_contrib: float = 10.0  # an author needs more than this to be eligible
    min_authors: int = 20  # the floor: at least this many positive contributors
    theta: float = 0.9  # eligible authors are taken until they pass this share


def judge_page(history: PageHistory) -> list[RevisionJudgment]:
    """Judge every revision of a page with one distance cache.

    Version index i means v_i, with v_0 the implicit empty version. A
    version is wrapped as a `Version` the first time it is diffed, so its
    diff index is built at most once while the page holds it. Step i diffs
    v_(i-1), v_i and i's judges, all later than i, so no step after i needs
    v_(i-1), and it is released then. The versions held at once are so
    bounded by MAX_JUDGES, not by the page's length: past step s only
    judges of earlier steps are held, and such a judge of a step by
    author A is among the first MAX_JUDGES revisions after s not by A.
    Those are the next MAX_JUDGES revisions unless A wrote one of them, so
    at most MAX_JUDGES * (MAX_JUDGES + 1) versions past s are held, besides
    v_(s-1) and v_s.
    """
    tokens: list[Sequence[str]] = [(), *(rev.tokens for rev in history.revisions)]
    authors = [None, *(rev.author.name for rev in history.revisions)]
    versions: dict[int, Version] = {}
    cache: dict[tuple[int, int], float] = {}

    def d(i: int, j: int) -> float:
        """The distance of v_i and v_j, i < j, diffed once per page."""
        if (i, j) not in cache:
            for k in (i, j):
                if k not in versions:
                    versions[k] = Version(tokens[k])
            cache[i, j] = edit_distance(versions[i], versions[j]).distance
        return cache[i, j]

    n = len(history.revisions)
    judgments = []
    for i in range(1, n + 1):
        d_r = d(i - 1, i)
        judges = [j for j in range(i + 1, n + 1)
                  if authors[j] != authors[i]][:MAX_JUDGES]
        alpha_bar = 0.0
        if d_r != 0.0 and judges:
            alphas = []
            for j in judges:
                d_prev_j, d_i_j = d(i - 1, j), d(i, j)
                # force the triple through the triangle inequality before use
                d_prev_j_g = triangle_guard(d_r, d_i_j, d_prev_j)
                d_i_j_g = triangle_guard(d_r, d_prev_j, d_i_j)
                alpha = (d_prev_j_g - d_i_j_g) / d_r
                alphas.append(max(-1.0, min(1.0, alpha)))
            alpha_bar = sum(alphas) / len(alphas)
        judgments.append(
            RevisionJudgment(i, d_r, alpha_bar, alpha_bar * d_r, len(judges)))
        versions.pop(i - 1, None)
    return judgments


def build_contributions(histories: Iterable[PageHistory],
                        is_bot: Callable[[str], bool] = lambda name: False
                        ) -> ContributionTable:
    """Accumulate positive longevity per (page, registered author), leaving
    out each author whose name `is_bot` calls a bot's (by default, no one)."""
    table: ContributionTable = {}
    for history in histories:
        contribs: dict[str, float] = {}
        judgments = judge_page(history)
        for rev, judgment in zip(history.revisions, judgments):
            name = rev.author.name
            if (judgment.longevity > 0 and rev.author.kind is AuthorKind.REGISTERED
                    and not is_bot(name)):
                contribs[name] = contribs.get(name, 0.0) + judgment.longevity
        table[history.page_id] = contribs
    return table


def select_authors(contribs: dict[str, float],
                   params: SelectionParams = SelectionParams()) -> list[str]:
    """Pick a page's main contributors, by descending contribution with a
    username tie-break.

    Eligible authors (contribution above the minimum) are taken in descending
    order until they cover a theta fraction of the page total; a floor of
    min(min_authors, positive-contribution population) is applied regardless,
    so pages dominated by a few contributors still yield enough authors.
    Eligible authors lead the order, so the floor only extends their prefix:
    contributions are finite, so the key (-contribution, name) is a total
    order and the selection is a prefix of one sort.
    """
    total = sum(contribs.values())
    if total == 0:
        return []
    ordered = sorted(contribs, key=lambda a: (-contribs[a], a))
    n, cum = 0, 0.0
    for author in ordered:
        if contribs[author] <= params.min_contrib:
            break
        n += 1
        cum += contribs[author]
        if cum / total > params.theta:
            break
    return ordered[:max(n, min(params.min_authors, len(ordered)))]


def select_all(table: ContributionTable,
               params: SelectionParams = SelectionParams()
               ) -> ContributionTable:
    return {
        page_id: {a: contribs[a] for a in select_authors(contribs, params)}
        for page_id, contribs in sorted(table.items())
    }


def write_contributions(table: ContributionTable, fp: IO[str]) -> None:
    """Each page's rows by descending contribution, ties by name: the
    order of `select_authors`, so a selection round-trips in order."""
    tsv.write_rows(fp, CONTRIBUTIONS, [
        (page_id, author, contribs[author])
        for page_id, contribs in sorted(table.items())
        for author in sorted(contribs, key=lambda a: (-contribs[a], a))])


def read_contributions(lines: Iterable[str]) -> ContributionTable:
    table: ContributionTable = {}
    for page_id, author, contrib in tsv.read_rows(lines, CONTRIBUTIONS):
        table.setdefault(page_id, {})[author] = contrib
    return table
