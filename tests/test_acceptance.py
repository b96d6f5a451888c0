"""Acceptance gate: one test per release criterion, each printing a single
PASS/FAIL line (run with `pytest tests/test_acceptance.py -s`).

Covers the word-level diff metric, longevity bounds, centrality oracle
equivalence, ranking-metric correctness, behavioral ordering claims on the
synthetic corpus, run determinism, and network construction conservation.
"""

import io
import random
import time
from collections import deque
from pathlib import Path

import numpy as np
import pytest

from wikiq.centrality import betweenness, eigenvector, pagerank
from wikiq.evaluation import (FILTER_CONFIGS, build_ranking, filtered_eval,
                              ndcg, percentile_table)
from wikiq.ingest import (AuthorId, AuthorKind, BotConfig, Namespace,
                          PageHistory, RevisionRecord, canonical_name,
                          load_ratings, parse_dump)
from wikiq.longevity import (SelectionParams, build_contributions, judge_page,
                             select_all)
from wikiq.networks import (build_coauthor, build_talk_history,
                            restrict_and_filter, utp_owner)
from wikiq.pipeline import RunConfig, run_all, run_stage
from wikiq.quality import (centrality_qscore, combined_qscore,
                           longevity_qscore)
from wikiq.synth import SynthSpec, generate
from wikiq.worddiff import edit_distance, triangle_guard


def report(criterion: str, ok: bool, detail: str) -> None:
    print(f"\n[{'PASS' if ok else 'FAIL'}] {criterion}: {detail}")
    assert ok, f"{criterion}: {detail}"


def random_tokens(rng: random.Random, max_len: int = 200) -> list[str]:
    return [f"t{rng.randrange(40)}" for _ in range(rng.randrange(max_len + 1))]


def test_criterion_1_diff_metric_properties():
    rng = random.Random(20260826)
    start = time.perf_counter()
    for _ in range(1000):
        a = random_tokens(rng)
        b = random_tokens(rng)
        d_ab = edit_distance(a, b).distance
        d_ba = edit_distance(b, a).distance
        assert d_ab == d_ba, "symmetry violated"
        assert d_ab >= 0.0, "negative distance"
        if a != b:
            assert d_ab > 0.0, "distinct sequences at distance zero"
        assert edit_distance(a, a).distance == 0.0, "identity violated"
    for _ in range(200):
        a, b, c = (random_tokens(rng, 60) for _ in range(3))
        d_ab = edit_distance(a, b).distance
        d_bc = edit_distance(b, c).distance
        d_ac = triangle_guard(d_ab, d_bc, edit_distance(a, c).distance)
        assert d_ac <= d_ab + d_bc + 1e-12, "triangle violated after guard"
    elapsed = time.perf_counter() - start
    report(
        "criterion 1 (diff metric)",
        elapsed < 30.0,
        f"1000 fuzzed pairs: symmetry/identity/positivity exact, "
        f"guarded triangle holds, {elapsed:.1f}s < 30s",
    )


def _history(token_lists, authors):
    revisions = [
        RevisionRecord(i + 1, AuthorId(a, AuthorKind.REGISTERED),
                       1_000_000 + i, list(tokens))
        for i, (tokens, a) in enumerate(zip(token_lists, authors))
    ]
    return PageHistory(1, "T", Namespace.ARTICLE, revisions)


def test_criterion_2_longevity_bounds():
    rng = random.Random(7)
    worst = 0.0
    for _ in range(40):
        n_rev = rng.randint(1, 50)
        text: list[str] = []
        versions = []
        for _ in range(n_rev):
            op = rng.random()
            if op < 0.3 and text:
                cut = rng.randrange(len(text))
                text = text[:cut] + text[cut + rng.randint(1, 5):]
            elif op < 0.5 and len(versions) >= 2:
                text = list(versions[-2])
            else:
                pos = rng.randrange(len(text) + 1)
                grown = [f"g{rng.randrange(500)}" for _ in range(rng.randint(1, 8))]
                text = text[:pos] + grown + text[pos:]
            versions.append(list(text))
        authors = [f"u{rng.randrange(6)}" for _ in versions]
        for j in judge_page(_history(versions, authors)):
            assert -1.0 <= j.alpha_bar <= 1.0
            worst = max(worst, abs(j.alpha_bar))
    base = ["a", "b", "c", "d"]
    edited = base + ["e", "f"]
    reverted = judge_page(_history([base, edited, base], ["x", "y", "z"]))
    preserved = judge_page(_history([base, edited, edited], ["x", "y", "z"]))
    assert reverted[1].alpha_bar == -1.0
    assert preserved[1].alpha_bar == 1.0
    report(
        "criterion 2 (longevity bounds)",
        True,
        f"fuzzed alpha_bar within [-1, 1] (max |alpha_bar| = {worst:.3f}); "
        f"full revert = -1 exactly, full preserve = +1 exactly",
    )


def _random_graph(rng, n, directed, p=0.15):
    from wikiq.networks import AuthorGraph
    names = [f"n{i:02d}" for i in range(n)]
    g = AuthorGraph(kind="random", directed=directed)
    g.nodes.update(names)
    for i, a in enumerate(names):
        for j, b in enumerate(names):
            if i != j and (directed or i < j) and rng.random() < p:
                g.add_edge(a, b, rng.randint(1, 3))
    return g


def _brute_betweenness(g):
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


def _pagerank_linear(g, damping=0.85):
    order = sorted(g.nodes)
    idx = {n: i for i, n in enumerate(order)}
    n = len(order)
    m = np.zeros((n, n))
    for (s, d), w in g.edges.items():
        m[idx[s], idx[d]] += w
        if not g.directed:
            m[idx[d], idx[s]] += w
    for i in range(n):
        row = m[i].sum()
        m[i, :] = 1.0 / n if row == 0 else m[i, :] / row
    x = np.linalg.solve(np.eye(n) - damping * m.T,
                        np.full(n, (1 - damping) / n))
    return {node: x[idx[node]] for node in order}


def test_criterion_3_centrality_oracles():
    rng = random.Random(99)
    start = time.perf_counter()
    worst_bt = worst_pr = worst_ev = 0.0
    for trial in range(200):
        g = _random_graph(rng, rng.randint(2, 60), directed=trial % 2 == 1)
        expected = _brute_betweenness(g)
        got = betweenness(g).scores
        worst_bt = max(worst_bt,
                       max(abs(got[n] - expected[n]) for n in g.nodes))
    assert worst_bt <= 1e-9, f"betweenness off by {worst_bt}"
    for trial in range(60):
        g = _random_graph(rng, rng.randint(2, 50), directed=trial % 2 == 1)
        expected = _pagerank_linear(g)
        got = pagerank(g).scores
        worst_pr = max(worst_pr,
                       max(abs(got[n] - expected[n]) for n in g.nodes))
    assert worst_pr <= 1e-10, f"pagerank off by {worst_pr}"
    for trial in range(60):
        g = _random_graph(rng, rng.randint(2, 40), directed=trial % 2 == 1, p=0.25)
        if not g.edges:
            continue
        scores = eigenvector(g).scores
        order = sorted(g.nodes)
        idx = {n: i for i, n in enumerate(order)}
        a = np.zeros((len(order), len(order)))
        for (s, d), w in g.edges.items():
            a[idx[s], idx[d]] += w
            a[idx[d], idx[s]] += w
        x = np.array([scores[n] for n in order])
        if not x.any():
            continue
        lam = (x @ a @ x) / (x @ x)
        worst_ev = max(worst_ev, np.abs(a @ x - lam * x).max())
    assert worst_ev <= 1e-6, f"eigenvector residual {worst_ev}"
    elapsed = time.perf_counter() - start
    report(
        "criterion 3 (centrality oracles)",
        elapsed < 60.0,
        f"betweenness vs brute force <= {worst_bt:.1e} (1e-9), pagerank vs "
        f"linear solve <= {worst_pr:.1e} (1e-10), eigenvector residual "
        f"<= {worst_ev:.1e} (1e-6), {elapsed:.1f}s < 60s",
    )


def test_criterion_4_ranking_metric():
    import math
    labels = {1: "FA", 2: "C", 3: "Stub"}
    scores = {1: 5.0, 2: 9.0, 3: 1.0}  # ranked [C, FA, Stub]
    hand = (3.0 + 63.0 / math.log2(3)) / (63.0 + 3.0 / math.log2(3))
    got = ndcg(build_ranking(scores, labels))
    assert got == pytest.approx(hand, abs=1e-9)
    ideal = ndcg(build_ranking({1: 9.0, 2: 5.0, 3: 1.0}, labels))
    assert ideal == pytest.approx(1.0, abs=1e-12)
    sep_labels = {i: "FA" for i in range(3)} | {i + 10: "Stub" for i in range(3)}
    sep_scores = {i: 50.0 - i for i in range(3)} | {i + 10: float(3 - i) for i in range(3)}
    sep = filtered_eval(build_ranking(sep_scores, sep_labels), {"FA", "Stub"})
    assert sep == pytest.approx(1.0, abs=1e-12)
    report(
        "criterion 4 (ranking metric)",
        True,
        f"hand fixture {got:.6f} == {hand:.6f} (1e-9); ideal = 1.0; "
        f"perfect FA/Stub separation = 1.0",
    )


def _score_models(seed: int):
    dump, ratings_tsv = generate(SynthSpec(seed=seed))
    labels = load_ratings(io.StringIO(ratings_tsv))
    pages = list(parse_dump(io.BytesIO(dump.encode()), BotConfig()))
    articles = [p for p in pages if p.namespace is Namespace.ARTICLE]
    utps = [p for p in pages if p.namespace is Namespace.USER_TALK]
    table = build_contributions(articles, drop_bots=True)
    selections = select_all(table, SelectionParams())
    project = {a for s in selections.values() for a in s}
    g = restrict_and_filter(build_talk_history(utps), project)
    pr = pagerank(g)
    return labels, {
        "longevity": longevity_qscore(selections).scores,
        "centrality": centrality_qscore(selections, pr).scores,
        "combined": combined_qscore(selections, pr).scores,
    }


def test_criterion_5_behavioral_ordering(tmp_path):
    start = time.perf_counter()
    ordered = 0
    for seed in range(1, 11):
        labels, models = _score_models(seed)
        n = {name: ndcg(build_ranking(scores, labels))
             for name, scores in models.items()}
        if n["combined"] >= n["longevity"] >= n["centrality"]:
            ordered += 1
    labels, models = _score_models(1)
    chain = [filtered_eval(build_ranking(models["combined"], labels), keep)
             for _, keep in FILTER_CONFIGS]
    monotone = all(chain[i] <= chain[i + 1] + 1e-12
                   for i in range(len(chain) - 1))
    deciles = percentile_table(build_ranking(models["combined"], labels), 10)
    anomaly_top = deciles["Start"][0] > 0.0

    dump, ratings_tsv = generate(SynthSpec(seed=1))
    (tmp_path / "dump.xml").write_text(dump, encoding="utf-8")
    (tmp_path / "ratings.tsv").write_text(ratings_tsv, encoding="utf-8")
    run_all(RunConfig(dump=str(tmp_path / "dump.xml"),
                      ratings=str(tmp_path / "ratings.tsv"),
                      workdir=str(tmp_path / "work")))
    elapsed = time.perf_counter() - start
    ok = ordered >= 8 and monotone and anomaly_top and elapsed < 300.0
    report(
        "criterion 5 (behavioral ordering)",
        ok,
        f"combined >= longevity >= centrality-only NDCG on {ordered}/10 seeds "
        f"(need 8); filtered chain {[round(v, 4) for v in chain]} "
        f"monotone={monotone}; planted Start anomaly in top decile="
        f"{anomaly_top}; full run incl. 10-seed sweep {elapsed:.1f}s < 300s",
    )


def test_criterion_6_determinism(tmp_path, monkeypatch):
    dump, ratings_tsv = generate(SynthSpec(seed=1))
    outputs = []
    for run in ("one", "two"):
        root = tmp_path / run
        root.mkdir()
        (root / "dump.xml").write_text(dump, encoding="utf-8")
        (root / "ratings.tsv").write_text(ratings_tsv, encoding="utf-8")
        monkeypatch.chdir(root)
        cfg = RunConfig()  # relative paths: identical resolved config
        run_all(cfg)
        outputs.append({
            p.name: p.read_bytes() for p in sorted((root / "work").iterdir())
        })
    identical = outputs[0] == outputs[1]
    monkeypatch.chdir(tmp_path / "one")
    for stage in ("select", "centrality", "eval"):
        run_stage(stage, RunConfig())
    rerun = {p.name: p.read_bytes()
             for p in sorted((tmp_path / "one" / "work").iterdir())}
    idempotent = rerun == outputs[0]
    report(
        "criterion 6 (determinism)",
        identical and idempotent,
        f"two end-to-end runs byte-identical={identical}; "
        f"stage re-runs idempotent={idempotent}",
    )


def test_criterion_7_network_conservation():
    dump, _ = generate(SynthSpec(seed=1))
    pages = list(parse_dump(io.BytesIO(dump.encode()), BotConfig()))
    utps = [p for p in pages if p.namespace is Namespace.USER_TALK]
    talk = build_talk_history(utps)
    qualifying = 0
    for page in utps:
        owner = utp_owner(page.title)
        for rev in page.revisions:
            if (rev.author.kind is not AuthorKind.ANONYMOUS
                    and canonical_name(rev.author.name) != owner):
                qualifying += 1
    weight_total = sum(talk.edges.values())
    conserved = weight_total == qualifying

    articles = [p for p in pages if p.namespace is Namespace.ARTICLE]
    table = build_contributions(articles, drop_bots=True)
    selections = select_all(table, SelectionParams())
    coauthor = build_coauthor(selections.values())
    expected_pairs = set()
    for selected in selections.values():
        authors = sorted(selected)
        for i, a in enumerate(authors):
            for b in authors[i + 1:]:
                expected_pairs.add((a, b))
    pairs_match = len(coauthor.edges) == len(expected_pairs)
    report(
        "criterion 7 (network conservation)",
        conserved and pairs_match,
        f"talk-history weight total {weight_total} == qualifying revisions "
        f"{qualifying}; co-author edges {len(coauthor.edges)} == brute-force "
        f"pairs {len(expected_pairs)}",
    )
