"""Article quality scores: longevity-based, centrality-based, and the
combined model over globally min-max normalized contribution and centrality.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field
from typing import IO, Iterable

from . import tsv
from .centrality import CentralityTable
from .longevity import ContributionTable

log = logging.getLogger(__name__)

SCORES = {"page_id": int, "model": str, "score": float}


@dataclass
class QualityScoreTable:
    model: str  # longevity | cen_<metric> | com_<metric>
    scores: dict[int, float]
    provenance: dict = field(default_factory=dict)


def longevity_qscore(selections: ContributionTable) -> QualityScoreTable:
    """Sum of selected authors' contributions per page."""
    scores = {page_id: sum(selected.values())
              for page_id, selected in selections.items()}
    return QualityScoreTable("longevity", scores)


def centrality_qscore(selections: ContributionTable,
                      cent: CentralityTable) -> QualityScoreTable:
    """Sum of selected authors' centralities per page; authors absent from
    the network contribute zero."""
    scores: dict[int, float] = {}
    missing = 0
    for page_id, authors in selections.items():
        total = 0.0
        for a in authors:
            if a in cent.scores:
                total += cent.scores[a]
            else:
                missing += 1
        scores[page_id] = total
    if missing:
        log.debug("%d selected author slots missing from the %s network",
                  missing, cent.graph_kind)
    return QualityScoreTable(
        f"cen_{cent.metric}", scores, {"graph": cent.graph_kind}
    )


def _minmax_bounds(values: Iterable[float]) -> tuple[float, float]:
    values = list(values)
    return (min(values), max(values)) if values else (0.0, 0.0)


def _normalize(v: float, lo: float, hi: float) -> float:
    if hi == lo:
        return 0.5
    return (v - lo) / (hi - lo)


def combined_qscore(selections: ContributionTable,
                    cent: CentralityTable) -> QualityScoreTable:
    """Per-author product of normalized contribution and centrality, summed
    per page.  Both normalizations take their bounds over every selected
    (page, author) slot of the corpus being scored, an author absent from
    the network at centrality 0.0, so no factor is negative; the bounds are
    recorded in provenance."""
    c_lo, c_hi = _minmax_bounds(
        c for selected in selections.values() for c in selected.values())
    x_lo, x_hi = _minmax_bounds(
        cent.scores.get(a, 0.0) for selected in selections.values() for a in selected)
    if c_hi == c_lo:
        log.warning("degenerate contribution range, normalizing to 0.5")
    if x_hi == x_lo:
        log.warning("degenerate centrality range, normalizing to 0.5")
    scores: dict[int, float] = {}
    for page_id, selected in selections.items():
        total = 0.0
        for a, contrib in selected.items():
            total += (
                _normalize(contrib, c_lo, c_hi)
                * _normalize(cent.scores.get(a, 0.0), x_lo, x_hi)
            )
        scores[page_id] = total
    return QualityScoreTable(
        f"com_{cent.metric}",
        scores,
        {
            "graph": cent.graph_kind,
            "contrib_bounds": [c_lo, c_hi],
            "centrality_bounds": [x_lo, x_hi],
        },
    )


def write_scores(tables: Iterable[QualityScoreTable], fp: IO[str]) -> None:
    tsv.write_rows(fp, SCORES, [
        (page_id, table.model, table.scores[page_id])
        for table in tables for page_id in sorted(table.scores)])


def read_scores(lines: Iterable[str]) -> dict[str, dict[int, float]]:
    """Score TSV -> model name -> page -> score."""
    by_model: dict[str, dict[int, float]] = {}
    for page_id, model, score in tsv.read_rows(lines, SCORES):
        by_model.setdefault(model, {})[page_id] = score
    return by_model
