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

from array import array
from collections import Counter
from dataclasses import dataclass
from itertools import accumulate, chain, repeat
from operator import add, itemgetter, mul, sub, truediv
from typing import IO, Iterable

from . import tsv
from .networks import AuthorGraph

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
    ends = Counter(chain.from_iterable(g.edges))
    return CentralityTable("degree", g.kind, {n: float(k) for n, k in ends.items()})


def _closed_twins(succ: list[list[int]]) -> list[int]:
    """Each node's closed-twin class, named by its first member: nodes are
    closed twins when their closed out-neighbourhoods, each node with its
    successors taken as a set, are equal."""
    twins: dict[tuple[int, ...], int] = {}
    return [twins.setdefault(tuple(sorted({*row, v})), v) for v, row in enumerate(succ)]


def betweenness(g: AuthorGraph) -> CentralityTable:
    """Brandes accumulation over unweighted geodesics.

    Ordered-pair sums; undirected results are reported as half of that, per
    the usual convention.

    Closed twins share one BFS, the "identical vertices" reduction of
    Sariyüce et al. (SDM 2013). Let s and t be closed twins. Each is then a
    successor of the other, and every other successor of one is a successor
    of the other. So from either, level 1 holds the other twin and the
    shared successors C, visited in the same sorted order. A twin at level
    1 discovers nothing, and it precedes no node at level 2, since its
    successors are all at level 0 or 1. So levels 2 on, every sigma and
    every pred list, and the dependency of every node but s and t, are the
    same floats from the same operations from s as from t. The dependency
    of t is 0.0 from s, as s's is from t, and a source's own dependency is
    never summed. So the first member's dependency vector, with its own
    entry set to 0.0, is what each later member's BFS would add. Adding it
    whole also adds 0.0 where such a BFS adds nothing, at the source and at
    nodes it cannot reach. That changes nothing, because no cb entry is
    ever -0.0. Each cb[w] gets the same floats in the same source order.
    A vector is held as an `array('d')` only until its class's last member.
    """
    order, nbrs = _indexed(g, symmetrize=False)
    n = len(order)
    succ = [sorted(w for w, _ in row) for row in nbrs]
    first = _closed_twins(succ)
    last = dict(zip(first, range(n)))  # each class's last member, by its first
    held: dict[int, array] = {}  # first member -> its dependency vector
    cb = [0.0] * n
    for source in range(n):
        lead = first[source]
        if lead != source:
            delta = held[lead] if last[lead] != source else held.pop(lead)
            cb = list(map(add, cb, delta))
            continue
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
        if last[source] != source:
            delta[source] = 0.0
            held[source] = array("d", delta)
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
    index = [m for row in nbrs for m, _ in row]
    weight = [w for row in nbrs for _, w in row]
    # the extra index keeps the gather a tuple on a one-entry graph; no row reads it
    gather = itemgetter(*index, index[0])
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
