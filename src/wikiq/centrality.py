"""Centrality metrics over author graphs: degree, betweenness (Brandes),
eigenvector (power iteration), and PageRank.

All iteration orders are fixed by sorted node id, so results are
deterministic for a given graph.
"""

from __future__ import annotations

import logging
from collections import deque
from dataclasses import dataclass
from typing import IO, Iterable

from .networks import AuthorGraph

log = logging.getLogger(__name__)


@dataclass
class CentralityTable:
    metric: str  # degree | betweenness | eigenvector | pagerank
    graph_kind: str
    scores: dict[str, float]
    params: dict | None = None


class ConvergenceError(ValueError):
    """A data error: the CLI reports every ValueError with exit code 2."""
    def __init__(self, metric: str, iterations: int, residual: float):
        super().__init__(
            f"{metric} did not converge in {iterations} iterations "
            f"(residual {residual:.3e})"
        )
        self.residual = residual


def _adjacency(g: AuthorGraph, symmetrize: bool) -> dict[str, dict[str, float]]:
    """Weighted successor map; undirected edges count both ways."""
    adj: dict[str, dict[str, float]] = {n: {} for n in g.nodes}
    for (src, dst), w in g.edges.items():
        if symmetrize or not g.directed:
            adj[src][dst] = adj[src].get(dst, 0.0) + w
            adj[dst][src] = adj[dst].get(src, 0.0) + w
        else:
            adj[src][dst] = adj[src].get(dst, 0.0) + w
    return adj


def degree(g: AuthorGraph) -> CentralityTable:
    """Unweighted degree; directed graphs count in- plus out-neighbors."""
    scores = {n: 0.0 for n in g.nodes}
    if g.directed:
        for (src, dst) in g.edges:
            scores[src] += 1
            scores[dst] += 1
    else:
        neighbors: dict[str, set[str]] = {n: set() for n in g.nodes}
        for (src, dst) in g.edges:
            neighbors[src].add(dst)
            neighbors[dst].add(src)
        scores = {n: float(len(neighbors[n])) for n in g.nodes}
    return CentralityTable("degree", g.kind, scores)


def betweenness(g: AuthorGraph) -> CentralityTable:
    """Brandes accumulation over unweighted geodesics.

    Ordered-pair sums; undirected results are reported as half of that, per
    the usual convention.
    """
    succ = _adjacency(g, symmetrize=False)
    order = sorted(g.nodes)
    cb = {n: 0.0 for n in order}
    for source in order:
        stack: list[str] = []
        pred: dict[str, list[str]] = {n: [] for n in order}
        sigma = {n: 0.0 for n in order}
        dist = {n: -1 for n in order}
        sigma[source] = 1.0
        dist[source] = 0
        queue = deque([source])
        while queue:
            v = queue.popleft()
            stack.append(v)
            for w in sorted(succ[v]):
                if dist[w] < 0:
                    dist[w] = dist[v] + 1
                    queue.append(w)
                if dist[w] == dist[v] + 1:
                    sigma[w] += sigma[v]
                    pred[w].append(v)
        delta = {n: 0.0 for n in order}
        while stack:
            w = stack.pop()
            for v in pred[w]:
                delta[v] += (sigma[v] / sigma[w]) * (1.0 + delta[w])
            if w != source:
                cb[w] += delta[w]
    if not g.directed:
        cb = {n: v / 2.0 for n, v in cb.items()}
    return CentralityTable("betweenness", g.kind, cb)


def eigenvector(g: AuthorGraph, tol: float = 1e-10,
                max_iter: int = 10_000) -> CentralityTable:
    """Dominant adjacency eigenvector by power iteration, max-norm 1.

    Directed graphs are symmetrized (A + At).  The iteration multiplies by
    A + I, which has the same dominant eigenvector but no sign-flipping
    second eigenvalue on bipartite graphs.
    """
    if not g.nodes:
        raise ValueError("empty graph")
    adj = _adjacency(g, symmetrize=True)
    order = sorted(g.nodes)
    if not g.edges:
        log.warning("eigenvector centrality on an edgeless graph: all zeros")
        return CentralityTable("eigenvector", g.kind, {n: 0.0 for n in order},
                               {"tol": tol})
    x = {n: 1.0 for n in order}
    residual = float("inf")
    for _ in range(max_iter):
        nxt = {n: x[n] + sum(w * x[m] for m, w in adj[n].items()) for n in order}
        norm = max(abs(v) for v in nxt.values())
        nxt = {n: v / norm for n, v in nxt.items()}
        residual = max(abs(nxt[n] - x[n]) for n in order)
        x = nxt
        if residual < tol:
            return CentralityTable("eigenvector", g.kind, x, {"tol": tol})
    raise ConvergenceError("eigenvector", max_iter, residual)


def pagerank(g: AuthorGraph, damping: float = 0.85, tol: float = 1e-12,
             max_iter: int = 10_000) -> CentralityTable:
    """Damped random-walk stationary distribution; scores sum to 1.

    Directed weighted walk; undirected graphs walk edges both ways.
    Dangling mass and teleport are spread uniformly.
    """
    if not g.nodes:
        raise ValueError("empty graph")
    adj = _adjacency(g, symmetrize=False)
    order = sorted(g.nodes)
    n = len(order)
    out_weight = {v: sum(adj[v].values()) for v in order}
    rank = {v: 1.0 / n for v in order}
    residual = float("inf")
    for _ in range(max_iter):
        nxt = {v: 0.0 for v in order}
        dangling = sum(rank[v] for v in order if out_weight[v] == 0.0)
        for v in order:
            if out_weight[v] == 0.0:
                continue
            share = rank[v] / out_weight[v]
            for w, weight in adj[v].items():
                nxt[w] += share * weight
        base = (1.0 - damping) / n + damping * dangling / n
        nxt = {v: base + damping * nxt[v] for v in order}
        residual = sum(abs(nxt[v] - rank[v]) for v in order)
        rank = nxt
        if residual < tol:
            return CentralityTable(
                "pagerank", g.kind, rank, {"damping": damping, "tol": tol}
            )
    raise ConvergenceError("pagerank", max_iter, residual)


def compute(metric: str, g: AuthorGraph, **kwargs) -> CentralityTable:
    funcs = {
        "degree": degree,
        "betweenness": betweenness,
        "eigenvector": eigenvector,
        "pagerank": pagerank,
    }
    if metric not in funcs:
        raise ValueError(f"unknown centrality metric {metric!r}")
    return funcs[metric](g, **kwargs)


def write_centrality(table: CentralityTable, fp: IO[str]) -> None:
    params = table.params or {}
    param_str = " ".join(f"{k}={v}" for k, v in sorted(params.items()))
    fp.write(f"# metric={table.metric} graph={table.graph_kind} {param_str}".rstrip() + "\n")
    fp.write("author\tscore\n")
    for author in sorted(table.scores, key=lambda a: (-table.scores[a], a)):
        fp.write(f"{author}\t{table.scores[author]!r}\n")


def read_centrality(lines: Iterable[str]) -> CentralityTable:
    it = iter(lines)
    header = next(it).rstrip("\n")
    fields = dict(
        part.split("=", 1) for part in header.lstrip("# ").split() if "=" in part
    )
    next(it)  # column header
    scores: dict[str, float] = {}
    for line in it:
        line = line.rstrip("\n")
        if not line:
            continue
        author, score = line.split("\t")
        scores[author] = float(score)
    return CentralityTable(fields.get("metric", "?"), fields.get("graph", "?"), scores)
