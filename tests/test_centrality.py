import io
import logging
import random
from collections import deque
from itertools import combinations

import networkx as nx
import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from hostile import names
from wikiq.centrality import (CentralityTable, ConvergenceError, _closed_twins,
                              _indexed, betweenness, degree, eigenvector,
                              pagerank, read_centrality, write_centrality)
from wikiq.networks import AuthorGraph

log = logging.getLogger(__name__)


def graph(edges, directed=False, extra_nodes=(), kind="test"):
    g = AuthorGraph(kind=kind, directed=directed)
    for e in edges:
        g.add_edge(*e)
    g.nodes.update(extra_nodes)
    return g


def brute_betweenness(g):
    """Pair-by-pair geodesic-fraction oracle, independent of Brandes."""
    succ = {n: set() for n in g.nodes}
    for (s, d) in g.edges:
        succ[s].add(d)
        if not g.directed:
            succ[d].add(s)

    def bfs(source):
        dist = {source: 0}
        sigma = {source: 1}
        q = deque([source])
        while q:
            v = q.popleft()
            for w in succ[v]:
                if w not in dist:
                    dist[w] = dist[v] + 1
                    sigma[w] = 0
                    q.append(w)
                if dist[w] == dist[v] + 1:
                    sigma[w] += sigma[v]
        return dist, sigma

    info = {s: bfs(s) for s in g.nodes}
    scores = {n: 0.0 for n in g.nodes}
    for s in g.nodes:
        dist_s, sigma_s = info[s]
        for t in g.nodes:
            if t == s or t not in dist_s:
                continue
            for v in g.nodes:
                if v in (s, t) or v not in dist_s:
                    continue
                dist_v, sigma_v = info[v]
                if t in dist_v and dist_s[v] + dist_v[t] == dist_s[t]:
                    scores[v] += sigma_s[v] * sigma_v[t] / sigma_s[t]
    if not g.directed:
        scores = {n: v / 2.0 for n, v in scores.items()}
    return scores


def random_graph(rng, n, directed, p=0.15):
    names = [f"n{i:02d}" for i in range(n)]
    g = AuthorGraph(kind="random", directed=directed)
    g.nodes.update(names)
    for i, a in enumerate(names):
        for j, b in enumerate(names):
            if i != j and (directed or i < j) and rng.random() < p:
                g.add_edge(a, b, rng.randint(1, 3))
    return g


class TestDegree:
    def test_star_center(self):
        g = graph([("c", f"l{i}") for i in range(4)])
        assert degree(g).scores["c"] == 4
        assert degree(g).scores["l0"] == 1

    def test_isolated_node(self):
        g = graph([("a", "b")], extra_nodes=["iso"])
        assert degree(g).scores["iso"] == 0

    def test_directed_in_plus_out(self):
        g = graph([("A", "B"), ("B", "A"), ("A", "C")], directed=True)
        assert degree(g).scores["A"] == 3
        assert degree(g).scores["B"] == 2
        assert degree(g).scores["C"] == 1


class TestBetweenness:
    def test_path_midpoint(self):
        g = graph([("a", "b"), ("b", "c")])
        scores = betweenness(g).scores
        assert scores == {"a": 0.0, "b": 1.0, "c": 0.0}

    def test_star_center(self):
        g = graph([("c", f"l{i}") for i in range(4)])
        assert betweenness(g).scores["c"] == 6.0  # C(4,2)

    def test_complete_graph_zero(self):
        nodes = "abcd"
        g = graph([(x, y) for i, x in enumerate(nodes) for y in nodes[i + 1:]])
        assert all(v == 0.0 for v in betweenness(g).scores.values())

    @pytest.mark.parametrize("directed", [False, True])
    def test_matches_brute_force(self, directed):
        rng = random.Random(11 + directed)
        for _ in range(25):
            g = random_graph(rng, rng.randint(4, 25), directed)
            fast = betweenness(g).scores
            slow = brute_betweenness(g)
            for n in g.nodes:
                assert fast[n] == pytest.approx(slow[n], abs=1e-9)

    def test_relabeling_invariance(self):
        rng = random.Random(3)
        g = random_graph(rng, 12, directed=False)
        mapping = {n: f"x{n}" for n in g.nodes}
        h = AuthorGraph(kind=g.kind, directed=False)
        h.nodes = {mapping[n] for n in g.nodes}
        h.edges = {}
        for (a, b), w in g.edges.items():
            h.add_edge(mapping[a], mapping[b], w)
        sg = betweenness(g).scores
        sh = betweenness(h).scores
        for n in g.nodes:
            assert sh[mapping[n]] == pytest.approx(sg[n], abs=1e-12)


def dense_eigen_oracle(g):
    """Dense dominant-eigenvector oracle via full eigendecomposition."""
    order = sorted(g.nodes)
    idx = {n: i for i, n in enumerate(order)}
    a = np.zeros((len(order), len(order)))
    for (s, d), w in g.edges.items():
        a[idx[s], idx[d]] += w
        a[idx[d], idx[s]] += w
    vals, vecs = np.linalg.eigh(a)
    vec = vecs[:, np.argmax(vals)]
    vec = np.abs(vec)
    vec = vec / vec.max()
    return {n: vec[idx[n]] for n in order}


class TestEigenvector:
    def test_star(self):
        g = graph([("c", f"l{i}") for i in range(4)])
        scores = eigenvector(g).scores
        assert scores["c"] == pytest.approx(1.0)
        leaves = [scores[f"l{i}"] for i in range(4)]
        assert max(leaves) - min(leaves) < 1e-9
        assert leaves[0] < 1.0

    def test_regular_ring(self):
        n = 6
        g = graph([(f"v{i}", f"v{(i + 1) % n}") for i in range(n)])
        scores = eigenvector(g).scores
        for v in scores.values():
            assert v == pytest.approx(1.0, abs=1e-8)

    def test_two_triangle_bridge(self):
        g = graph([
            ("a", "b"), ("b", "c"), ("a", "c"),
            ("c", "d"),
            ("d", "e"), ("e", "f"), ("d", "f"), ("f", "g"), ("e", "g"),
        ])
        scores = eigenvector(g, tol=1e-12).scores
        oracle = dense_eigen_oracle(g)
        for n in g.nodes:
            assert scores[n] == pytest.approx(oracle[n], abs=1e-8)

    def test_residual_bound(self):
        rng = random.Random(5)
        for _ in range(10):
            g = random_graph(rng, rng.randint(3, 30), directed=rng.random() < 0.5)
            if not g.edges:
                continue
            scores = eigenvector(g).scores
            order = sorted(g.nodes)
            x = np.array([scores[n] for n in order])
            idx = {n: i for i, n in enumerate(order)}
            a = np.zeros((len(order), len(order)))
            for (s, d), w in g.edges.items():
                a[idx[s], idx[d]] += w
                a[idx[d], idx[s]] += w
            lam = float(x @ a @ x) / float(x @ x)
            assert np.max(np.abs(a @ x - lam * x)) <= 1e-6

    def test_edgeless_graph_zero(self, caplog):
        g = graph([], extra_nodes=["a", "b"])
        with caplog.at_level("WARNING"):
            scores = eigenvector(g).scores
        assert scores == {"a": 0.0, "b": 0.0}

    def test_empty_graph_raises(self):
        with pytest.raises(ValueError):
            eigenvector(graph([]))

    def test_nonconvergence_error_carries_residual(self):
        g = graph([("a", "b")])
        with pytest.raises(ConvergenceError) as exc:
            eigenvector(g, tol=0.0, max_iter=5)
        assert exc.value.residual >= 0.0


def pagerank_linear_oracle(g, damping=0.85):
    """Solve (I - d Mt) x = (1-d)/n directly; dangling rows are uniform."""
    order = sorted(g.nodes)
    idx = {n: i for i, n in enumerate(order)}
    n = len(order)
    m = np.zeros((n, n))
    for (s, d), w in g.edges.items():
        m[idx[s], idx[d]] += w
        if not g.directed:
            m[idx[d], idx[s]] += w
    for i in range(n):
        row_sum = m[i].sum()
        if row_sum == 0:
            m[i, :] = 1.0 / n
        else:
            m[i, :] /= row_sum
    x = np.linalg.solve(np.eye(n) - damping * m.T,
                        np.full(n, (1 - damping) / n))
    return {node: x[idx[node]] for node in order}


class TestPageRank:
    def test_single_node(self):
        g = graph([], extra_nodes=["solo"])
        assert pagerank(g).scores == {"solo": 1.0}

    def test_symmetric_two_cycle(self):
        g = graph([("a", "b"), ("b", "a")], directed=True)
        scores = pagerank(g).scores
        assert scores["a"] == pytest.approx(0.5, abs=1e-12)
        assert scores["b"] == pytest.approx(0.5, abs=1e-12)

    def test_three_node_chain_matches_linear_solve(self):
        g = graph([("A", "B"), ("B", "C")], directed=True)
        scores = pagerank(g).scores
        oracle = pagerank_linear_oracle(g)
        for n in g.nodes:
            assert scores[n] == pytest.approx(oracle[n], abs=1e-10)

    def test_random_graphs_match_linear_solve(self):
        rng = random.Random(9)
        for _ in range(15):
            g = random_graph(rng, rng.randint(2, 40), directed=rng.random() < 0.5)
            scores = pagerank(g).scores
            oracle = pagerank_linear_oracle(g)
            for n in g.nodes:
                assert scores[n] == pytest.approx(oracle[n], abs=1e-10)

    def test_probability_conservation(self):
        rng = random.Random(13)
        for _ in range(10):
            g = random_graph(rng, rng.randint(2, 30), directed=True)
            assert sum(pagerank(g).scores.values()) == pytest.approx(1.0, abs=1e-9)


def test_centrality_roundtrip():
    g = graph([("a", "b"), ("b", "c")])
    table = pagerank(g)
    buf = io.StringIO()
    write_centrality(table, buf)
    again = read_centrality(io.StringIO(buf.getvalue()))
    assert again.metric == "pagerank"
    assert again.scores == table.scores


@pytest.mark.parametrize("kernel", [degree, betweenness, eigenvector, pagerank])
@given(labels=st.lists(names, min_size=12, max_size=12, unique=True))
@settings(max_examples=25, deadline=None)
def test_centrality_roundtrip_keeps_params(kernel, labels):
    g = random_graph(random.Random(17), 12, directed=True, p=0.3)
    label = dict(zip(sorted(g.nodes), labels))
    g = AuthorGraph(g.kind, g.directed, set(labels), {
        (label[s], label[d]): w for (s, d), w in g.edges.items()})
    table = kernel(g)
    buf = io.StringIO()
    write_centrality(table, buf)
    assert read_centrality(io.StringIO(buf.getvalue())) == table


def test_bad_parameter_names_file_and_line():
    buf = io.StringIO("# metric=pagerank graph=g damping=x\nauthor\tscore\na\t1.0\n")
    buf.name = "centrality.tsv"
    with pytest.raises(ValueError, match=r"^centrality\.tsv: line 1: could not convert"):
        read_centrality(buf)


# The name-keyed kernels the indexed ones replaced, kept unchanged as a
# differential oracle: the indexed kernels must give the same bits.

def reference_adjacency(g: AuthorGraph, symmetrize: bool) -> dict[str, dict[str, float]]:
    """Weighted successor map; undirected edges count both ways."""
    adj: dict[str, dict[str, float]] = {n: {} for n in g.nodes}
    for (src, dst), w in g.edges.items():
        if symmetrize or not g.directed:
            adj[src][dst] = adj[src].get(dst, 0.0) + w
            adj[dst][src] = adj[dst].get(src, 0.0) + w
        else:
            adj[src][dst] = adj[src].get(dst, 0.0) + w
    return adj


def reference_betweenness(g: AuthorGraph) -> CentralityTable:
    """Brandes accumulation over unweighted geodesics.

    Ordered-pair sums; undirected results are reported as half of that, per
    the usual convention.
    """
    succ = reference_adjacency(g, symmetrize=False)
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


def reference_eigenvector(g: AuthorGraph, tol: float = 1e-10,
                          max_iter: int = 10_000) -> CentralityTable:
    """Dominant adjacency eigenvector by power iteration, max-norm 1.

    Directed graphs are symmetrized (A + At).  The iteration multiplies by
    A + I, which has the same dominant eigenvector but no sign-flipping
    second eigenvalue on bipartite graphs.
    """
    if not g.nodes:
        raise ValueError("empty graph")
    adj = reference_adjacency(g, symmetrize=True)
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


def reference_pagerank(g: AuthorGraph, damping: float = 0.85, tol: float = 1e-12,
                       max_iter: int = 10_000) -> CentralityTable:
    """Damped random-walk stationary distribution; scores sum to 1.

    Directed weighted walk; undirected graphs walk edges both ways.
    Dangling mass and teleport are spread uniformly.
    """
    if not g.nodes:
        raise ValueError("empty graph")
    adj = reference_adjacency(g, symmetrize=False)
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


@st.composite
def weighted_graphs(draw):
    """Directed or undirected graphs of up to 30 nodes, weights 1-3, in a
    random edge order, with isolated nodes, reciprocal edges (an edge's
    optional reverse weight), and edgeless, one-node and empty graphs."""
    names = draw(st.lists(st.text("abcxyz", min_size=1, max_size=3),
                          unique=True, max_size=30))
    g = AuthorGraph(kind="drawn", directed=draw(st.booleans()))
    g.nodes.update(names)
    if len(names) < 2:
        return g
    node = st.sampled_from(names)
    weight = st.integers(1, 3)
    for src, dst, w, back in draw(st.lists(
            st.tuples(node, node, weight, st.none() | weight),
            max_size=4 * len(names))):
        g.add_edge(src, dst, w)
        if back is not None:
            g.add_edge(dst, src, back)
    return g


@st.composite
def clique_unions(draw):
    """Graphs shaped like co-author graphs: unions of up to 8 cliques of up
    to 8 nodes, weights 1-3, where the nodes of one clique and no other are
    closed twins. A directed graph holds each clique's arcs both ways, then
    up to one one-way arc per three nodes; a self-loop, which `add_edge`
    refuses, may sit on up to two nodes."""
    names = draw(st.lists(st.text("abcxyz", min_size=1, max_size=3),
                          unique=True, min_size=2, max_size=30))
    g = AuthorGraph(kind="cliques", directed=draw(st.booleans()))
    g.nodes.update(names)
    node = st.sampled_from(names)
    for clique, w in draw(st.lists(st.tuples(
            st.lists(node, min_size=2, max_size=8, unique=True),
            st.integers(1, 3)), max_size=8)):
        for a, b in combinations(clique, 2):
            g.add_edge(a, b, w)
            if g.directed:
                g.add_edge(b, a, w)
    for src, dst in draw(st.lists(st.tuples(node, node), max_size=len(names) // 3)):
        g.add_edge(src, dst)
    for a in draw(st.lists(node, max_size=2, unique=True)):
        g.edges[(a, a)] = 1
    return g


def interleaved_twins(directed):
    """Closed twins {a, c} and {b, d}, so a < b < c < d interleaves their
    classes, all pointing at the hub e; a carries a self-loop. Directed,
    each twin pair has arcs both ways, and e reaches a one way."""
    edges = [("a", "c"), ("b", "d")] + [(v, "e") for v in "abcd"]
    if directed:
        edges += [("c", "a"), ("d", "b"), ("e", "a")]
    g = graph(edges, directed)
    g.edges[("a", "a")] = 1
    return g


@pytest.mark.parametrize("directed", [False, True])
def test_closed_twins_group_by_closed_out_neighbourhood(directed):
    """Sources with equal closed out-neighbourhoods, as sets, share a class
    named by its first member; a self-loop changes no class."""
    order, nbrs = _indexed(interleaved_twins(directed), symmetrize=False)
    assert order == ["a", "b", "c", "d", "e"]
    assert _closed_twins([[w for w, _ in row] for row in nbrs]) == [0, 1, 0, 1, 4]


def outcome(kernel, g, **kwargs):
    """Everything a caller can see of one kernel call, floats as repr."""
    try:
        table = kernel(g, **kwargs)
    except Exception as exc:
        return (type(exc), str(exc),
                repr(exc.residual) if isinstance(exc, ConvergenceError) else None)
    return (table.metric, table.graph_kind,
            {n: repr(v) for n, v in table.scores.items()}, table.params)


@pytest.mark.parametrize("kernel, reference, kwargs", [
    (betweenness, reference_betweenness, [{}]),
    (eigenvector, reference_eigenvector, [{}, {"max_iter": 3},
                                          {"tol": 1e-6, "max_iter": 40}]),
    (pagerank, reference_pagerank, [{}, {"max_iter": 3},
                                    {"damping": 0.5, "tol": 1e-9}]),
], ids=["betweenness", "eigenvector", "pagerank"])
@settings(max_examples=150, deadline=None)
@given(g=weighted_graphs() | clique_unions(), choice=st.integers(0, 2))
# eigenvector's flattened rows: all weights 1 (no products), weights 1 and
# 2, empty rows beside edges, and one entry, a self-loop that add_edge
# refuses (itemgetter of one index returns no tuple)
@example(g=graph([("a", "b"), ("b", "c"), ("c", "a"), ("c", "d")]), choice=0)
@example(g=graph([("a", "b"), ("b", "c"), ("c", "b"), ("c", "d")],
                 directed=True), choice=0)
@example(g=graph([("a", "b", 2), ("b", "c"), ("c", "d", 2), ("d", "a")]),
         choice=0)
@example(g=graph([("b", "c"), ("c", "d")], extra_nodes=("a", "e", "z")),
         choice=0)
@example(g=AuthorGraph("loop", False, {"a"}, {("a", "a"): 1}), choice=0)
# betweenness' shared BFS: interleaved closed-twin classes, one-way and
# two-way arcs, and a twin with a self-loop
@example(g=interleaved_twins(False), choice=0)
@example(g=interleaved_twins(True), choice=0)
def test_kernels_match_reference_bits(kernel, reference, kwargs, g, choice):
    args = kwargs[choice % len(kwargs)]
    assert outcome(kernel, g, **args) == outcome(reference, g, **args)


@pytest.mark.parametrize("directed", [False, True])
def test_betweenness_matches_networkx(directed):
    rng = random.Random(23)
    g = random_graph(rng, 200, directed, p=0.02)
    h = nx.DiGraph() if directed else nx.Graph()
    h.add_nodes_from(g.nodes)
    h.add_edges_from(g.edges)
    want = nx.betweenness_centrality(h, normalized=False)
    got = betweenness(g).scores
    assert got.keys() == want.keys()
    for n in g.nodes:
        assert got[n] == pytest.approx(want[n], rel=1e-9, abs=1e-9)


@pytest.mark.parametrize("directed", [False, True])
def test_kernels_match_reference_bits_on_larger_graphs(directed):
    """Long geodesics with many paths, where a change in the order of the
    float operations shows in the last bits."""
    rng = random.Random(31 + directed)
    for n, p in ((60, 0.08), (150, 0.03)):
        g = random_graph(rng, n, directed, p=p)
        for kernel, reference in ((betweenness, reference_betweenness),
                                  (eigenvector, reference_eigenvector),
                                  (pagerank, reference_pagerank)):
            assert outcome(kernel, g) == outcome(reference, g)
