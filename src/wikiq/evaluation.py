"""Ranking evaluation against editorial class labels: NDCG, class-filtered
NDCG, precision-recall curves, and percentile distribution tables.
"""

from __future__ import annotations

import math
from itertools import chain, repeat
from operator import truediv
from typing import Iterable, Mapping, NamedTuple, Optional, Sequence

from .ingest import QUALITY_CLASSES

DEFAULT_RELEVANT = frozenset({"FA", "A", "GA"})
# the DCG gain 2 ** level - 1 of each class level
GAIN = [2 ** level - 1 for level in range(max(QUALITY_CLASSES.values()) + 1)]


class RankedPage(NamedTuple):
    page_id: int
    score: float
    cls: str


def build_ranking(scores: Mapping[int, float],
                  labels: Mapping[int, str]) -> list[RankedPage]:
    """Total ranking over the labeled corpus: descending score, ties by
    page id.  Labeled pages without a score rank with score 0."""
    pages = [
        RankedPage(pid, scores.get(pid, 0.0), cls)
        for pid, cls in labels.items()
    ]
    pages.sort(key=lambda p: (-p.score, p.page_id))
    return pages


def _dcg(gains: Sequence[int], k: int) -> float:
    """The sum over ranks r = 1..k of (2 ** level - 1) / log2(r + 1)."""
    return sum(map(truediv, map(GAIN.__getitem__, gains[:k]),
                   map(math.log2, range(2, k + 2))))


def ndcg(ranking: Sequence[RankedPage], k: Optional[int] = None) -> float:
    """Normalized discounted cumulative gain at k (default: full corpus),
    with each class's level as its gain."""
    if k is None:
        k = len(ranking)
    if k > len(ranking):
        raise ValueError(f"k={k} exceeds corpus size {len(ranking)}")
    ranked_gains = [QUALITY_CLASSES[p.cls] for p in ranking]
    ideal = sorted(ranked_gains, reverse=True)
    z = _dcg(ideal, k)
    if z == 0.0:
        raise ValueError("all-zero-gain corpus: NDCG undefined")
    return _dcg(ranked_gains, k) / z


def filtered_eval(ranking: Sequence[RankedPage], keep: Iterable[str]) -> float:
    """NDCG after restricting the corpus to the kept classes.  The kept
    pages stay in ranking order, which is the order build_ranking gives
    the subset: scores are finite, so its key (-score, page_id) is a total
    order."""
    keep = set(keep)
    sub = [p for p in ranking if p.cls in keep]
    if not sub:
        raise ValueError("empty corpus after class filtering")
    return ndcg(sub)


def precision_recall(ranking: Sequence[RankedPage],
                     relevant: Iterable[str] = DEFAULT_RELEVANT
                     ) -> list[tuple[float, float]]:
    """Sweep the rank cutoff 1..N and emit (recall, precision) points."""
    relevant = set(relevant)
    total_rel = sum(1 for p in ranking if p.cls in relevant)
    if total_rel == 0 or total_rel == len(ranking):
        raise ValueError("need at least one relevant and one irrelevant page")
    curve = []
    hits = 0
    for cutoff, page in enumerate(ranking, start=1):
        if page.cls in relevant:
            hits += 1
        curve.append((hits / total_rel, hits / cutoff))
    return curve


def percentile_table(ranking: Sequence[RankedPage],
                     buckets: int = 10) -> dict[str, list[float]]:
    """Per class, the proportion of its pages in each equal-count score
    percentile bucket (bucket 0 = top scores).  Rows sum to 1."""
    if buckets < 2:
        raise ValueError("need at least 2 buckets")
    n = len(ranking)
    base, extra = divmod(n, buckets)
    labels = chain.from_iterable(repeat(b, base + (b < extra)) for b in range(buckets))
    counts: dict[str, list[int]] = {}
    for page, b in zip(ranking, labels):
        counts.setdefault(page.cls, [0] * buckets)[b] += 1
    return {cls: [c / sum(row) for c in row] for cls, row in sorted(counts.items())}


# Table-3 style class filter configurations, coarsest to cleanest separation.
FILTER_CONFIGS: list[tuple[str, tuple[str, ...]]] = [
    ("FA-C-Start-Stub", ("FA", "C", "Start", "Stub")),
    ("FA-C", ("FA", "C")),
    ("FA-Start-Stub", ("FA", "Start", "Stub")),
    ("FA-Start", ("FA", "Start")),
    ("FA-Stub", ("FA", "Stub")),
]
