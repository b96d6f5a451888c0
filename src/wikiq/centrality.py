"""Centrality metrics over author graphs: degree, betweenness (Brandes),
eigenvector (power iteration), and PageRank.

The kernels work on an indexed view of the graph (`_indexed`): node i is the
i-th name in sorted order, and each node's weighted successors are a list of
(index, weight) pairs in the order the edges first name them. Per-node state
is a plain list indexed the same way. Eigenvector also flattens the rows into
one index list and one weight list: each power step gathers x through those
indices with one `operator.itemgetter` call, multiplies by the weights only
when some weight is not 1.0 (`1.0 * v == v` exactly), and sums each row as a
precomputed slice of that tuple, all in C-level calls.

Every score is bit-for-bit what a name-keyed walk over the same sorted order
gives, because each float comes from the same operations in the same order:
BFS and stack order follow sorted node and successor order; each row sum adds
the same products in the same order; and a total that is written as `sum()`
here is one in the name-keyed form too, while an accumulation written as
`+=` stays `+=` (from Python 3.12 `sum()` of floats is compensated, so the
two differ). The tests keep the name-keyed kernels as a differential oracle.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass
from itertools import accumulate, repeat
from operator import add, itemgetter, mul, sub, truediv
from typing import IO, Iterable

from . import tsv
from .networks import AuthorGraph

log = logging.getLogger(__name__)

CENTRALITY = {"author": str, "score": float}


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


def _indexed(g: AuthorGraph, symmetrize: bool
             ) -> tuple[list[str], list[list[tuple[int, float]]]]:
    """The nodes in sorted order, and each node's weighted successors as
    (index, weight) pairs in first-edge order; undirected edges count both
    ways."""
    order = sorted(g.nodes)
    index = {n: i for i, n in enumerate(order)}
    adj: list[dict[int, float]] = [{} for _ in order]
    both = symmetrize or not g.directed
    for (src, dst), w in g.edges.items():
        s, d = index[src], index[dst]
        adj[s][d] = adj[s].get(d, 0.0) + w
        if both:
            adj[d][s] = adj[d].get(s, 0.0) + w
    return order, [list(row.items()) for row in adj]


def degree(g: AuthorGraph) -> CentralityTable:
    """Unweighted degree: in- plus out-edges. An undirected edge is stored
    once per pair and no edge is a self-loop, so that is the neighbour count."""
    scores = {n: 0.0 for n in g.nodes}
    for (src, dst) in g.edges:
        scores[src] += 1
        scores[dst] += 1
    return CentralityTable("degree", g.kind, scores)


def betweenness(g: AuthorGraph) -> CentralityTable:
    """Brandes accumulation over unweighted geodesics.

    Ordered-pair sums; undirected results are reported as half of that, per
    the usual convention.
    """
    order, nbrs = _indexed(g, symmetrize=False)
    n = len(order)
    succ = [sorted(w for w, _ in row) for row in nbrs]
    cb = [0.0] * n
    for source in range(n):
        sigma = [0.0] * n
        dist = [-1] * n
        pred: list[list[int]] = [[] for _ in order]
        sigma[source] = 1.0
        dist[source] = 0
        seen = [source]  # BFS order; read backwards it is the stack order
        for v in seen:
            dv = dist[v] + 1
            sv = sigma[v]
            for w in succ[v]:
                dw = dist[w]
                if dw < 0:
                    dist[w] = dv
                    seen.append(w)
                elif dw != dv:
                    continue
                sigma[w] += sv
                pred[w].append(v)
        delta = [0.0] * n
        for w in reversed(seen[1:]):  # the source has no predecessors
            sw = sigma[w]
            carried = 1.0 + delta[w]
            for v in pred[w]:
                delta[v] += (sigma[v] / sw) * carried
            cb[w] += delta[w]
    if not g.directed:
        cb = [v / 2.0 for v in cb]
    return CentralityTable("betweenness", g.kind, dict(zip(order, cb)))


def eigenvector(g: AuthorGraph, tol: float = 1e-10,
                max_iter: int = 10_000) -> CentralityTable:
    """Dominant adjacency eigenvector by power iteration, max-norm 1.

    Directed graphs are symmetrized (A + At).  The iteration multiplies by
    A + I, which has the same dominant eigenvector but no sign-flipping
    second eigenvalue on bipartite graphs.
    """
    if not g.nodes:
        raise ValueError("empty graph")
    order, nbrs = _indexed(g, symmetrize=True)
    if not g.edges:
        log.warning("eigenvector centrality on an edgeless graph: all zeros")
        return CentralityTable("eigenvector", g.kind, {n: 0.0 for n in order},
                               {"tol": tol})
    index = [m for row in nbrs for m, _ in row]
    weight = [w for row in nbrs for _, w in row]
    # itemgetter of one index returns the bare item, not a 1-tuple
    gather = itemgetter(*index) if len(index) > 1 else lambda x: (x[index[0]],)
    unit = all(w == 1.0 for w in weight)  # then w * v == v: skip the products
    ends = list(accumulate(map(len, nbrs), initial=0))
    rows = list(map(slice, ends, ends[1:]))
    x = [1.0] * len(order)
    residual = float("inf")
    for _ in range(max_iter):
        products = gather(x) if unit else tuple(map(mul, weight, gather(x)))
        nxt = list(map(add, x, map(sum, map(products.__getitem__, rows))))
        del products  # else the next step's products overlap these in memory
        norm = max(map(abs, nxt))
        nxt = list(map(truediv, nxt, repeat(norm)))
        residual = max(map(abs, map(sub, nxt, x)))
        x = nxt
        if residual < tol:
            return CentralityTable("eigenvector", g.kind, dict(zip(order, x)),
                                   {"tol": tol})
    raise ConvergenceError("eigenvector", max_iter, residual)


def pagerank(g: AuthorGraph, damping: float = 0.85, tol: float = 1e-12,
             max_iter: int = 10_000) -> CentralityTable:
    """Damped random-walk stationary distribution; scores sum to 1.

    Directed weighted walk; undirected graphs walk edges both ways.
    Dangling mass and teleport are spread uniformly.
    """
    if not g.nodes:
        raise ValueError("empty graph")
    order, nbrs = _indexed(g, symmetrize=False)
    n = len(order)
    out_weight = [sum(w for _, w in row) for row in nbrs]
    dangling = [v for v in range(n) if out_weight[v] == 0.0]
    live = [(v, out_weight[v], nbrs[v]) for v in range(n)
            if out_weight[v] != 0.0]
    rank = [1.0 / n] * n
    residual = float("inf")
    for _ in range(max_iter):
        nxt = [0.0] * n
        for v, out, row in live:
            share = rank[v] / out
            for w, weight in row:
                nxt[w] += share * weight
        base = ((1.0 - damping) / n
                + damping * sum(map(rank.__getitem__, dangling)) / n)
        nxt = list(map(add, repeat(base), map(mul, repeat(damping), nxt)))
        residual = sum(map(abs, map(sub, nxt, rank)))
        rank = nxt
        if residual < tol:
            return CentralityTable(
                "pagerank", g.kind, dict(zip(order, rank)),
                {"damping": damping, "tol": tol}
            )
    raise ConvergenceError("pagerank", max_iter, residual)


def write_centrality(table: CentralityTable, fp: IO[str]) -> None:
    tsv.write_meta(fp, metric=table.metric, graph=table.graph_kind,
                   **dict(sorted((table.params or {}).items())))
    tsv.write_rows(fp, CENTRALITY, [
        (author, table.scores[author])
        for author in sorted(table.scores, key=lambda a: (-table.scores[a], a))])


def read_centrality(lines: Iterable[str]) -> CentralityTable:
    names: dict[str, str] = {}
    params: dict[str, float] = {}

    def meta(text: str) -> None:
        for key, value in (part.split("=", 1) for part in text.split(" ") if "=" in part):
            if key in ("metric", "graph"):
                names[key] = value
            else:
                params[key] = float(value)

    scores = dict(tsv.read_rows(lines, CENTRALITY, meta))
    return CentralityTable(names.get("metric", "?"), names.get("graph", "?"),
                           scores, params or None)
