"""Correctness checks on a workload's outputs, run after the timed rounds.

Every expected value is computed here, apart from the program: from the
generator's ledger, from an `xml.etree` parse of the dump, from the
definitions of NDCG and degree, or from networkx. The rest are properties
the method must have. None is a copy of an earlier output. Each check
raises `CheckFailed` naming the first mismatch.
"""

from __future__ import annotations

import json
import math
import xml.etree.ElementTree as ET
from collections import Counter, defaultdict
from pathlib import Path

GAINS = {"FA": 6, "A": 5, "GA": 4, "B": 3, "C": 2, "Start": 1, "Stub": 0}
RELEVANT = {"FA", "A", "GA"}
FILTERS = {
    "FA-C-Start-Stub": {"FA", "C", "Start", "Stub"},
    "FA-C": {"FA", "C"},
    "FA-Start-Stub": {"FA", "Start", "Stub"},
    "FA-Start": {"FA", "Start"},
    "FA-Stub": {"FA", "Stub"},
}


class CheckFailed(Exception):
    pass


def _expect(ok: bool, message: str) -> None:
    if not ok:
        raise CheckFailed(message)


def read_tsv(path: Path) -> list[dict[str, str]]:
    """Rows of a TSV with a column header; '#' lines are skipped."""
    lines = [line for line in Path(path).read_text(encoding="utf-8").splitlines()
             if line and not line.startswith("#")]
    header = lines[0].split("\t")
    return [dict(zip(header, line.split("\t"))) for line in lines[1:]]


def read_edges(path: Path) -> tuple[bool, set[str], dict[tuple[str, str], int]]:
    """(directed, nodes, edge weights) of an edges.tsv."""
    text = Path(path).read_text(encoding="utf-8")
    directed = text.splitlines()[0].endswith("directed=true")
    nodes = {line[len("# node="):] for line in text.splitlines()
             if line.startswith("# node=")}
    edges = {}
    for row in read_tsv(path):
        edges[(row["src"], row["dst"])] = int(row["weight"])
        nodes.update((row["src"], row["dst"]))
    return directed, nodes, edges


def _scores(path: Path) -> dict[str, float]:
    return {row["author"]: float(row["score"]) for row in read_tsv(path)}


def _selections(path: Path) -> dict[int, list[str]]:
    out: dict[int, list[str]] = defaultdict(list)
    for row in read_tsv(path):
        out[int(row["page_id"])].append(row["author"])
    return out


def _contributions(path: Path) -> dict[int, dict[str, float]]:
    out: dict[int, dict[str, float]] = defaultdict(dict)
    for row in read_tsv(path):
        out[int(row["page_id"])][row["author"]] = float(row["contrib"])
    return out


def _model_scores(path: Path) -> dict[str, dict[int, float]]:
    out: dict[str, dict[int, float]] = defaultdict(dict)
    for row in read_tsv(path):
        out[row["model"]][int(row["page_id"])] = float(row["score"])
    return out


def _labels(path: Path) -> dict[int, str]:
    return {int(row["page_id"]): row["class"] for row in read_tsv(path)}


def dump_pages(path: Path) -> list[dict]:
    """Pages of a MediaWiki export: title, ns and (username, ip) per revision."""
    pages = []
    for _event, elem in ET.iterparse(path):
        if elem.tag.rsplit("}", 1)[-1] != "page":
            continue
        page = {"title": None, "ns": None, "revisions": []}
        for child in elem:
            tag = child.tag.rsplit("}", 1)[-1]
            if tag in ("title", "ns"):
                page[tag] = child.text
            elif tag == "revision":
                who = {c.tag.rsplit("}", 1)[-1]: c.text
                       for c in child.iter() if c.tag.endswith(("username", "ip"))}
                page["revisions"].append((who.get("username"), who.get("ip")))
        pages.append(page)
        elem.clear()
    return pages


# ---------------------------------------------------------------- long_history

def check_diff_sizes(corpus) -> None:
    """edit_distance of consecutive versions equals the ledger's edit size:
    an insertion of k tokens is I=k, D=0, distance k, and a deletion the
    mirror image."""
    from wikiq.worddiff import edit_distance
    for page in corpus.pages:
        if page.namespace != 0:
            continue
        prev: list[str] = []
        for n, rev in enumerate(page.revisions, start=1):
            d = edit_distance(prev, rev.tokens)
            want = (rev.size, 0) if rev.edit == "insert" else (0, rev.size)
            _expect((d.inserted, d.deleted) == want and d.distance == rev.size,
                    f"{page.title} revision {n}: {rev.edit} of {rev.size} "
                    f"tokens measured as {d}")
            prev = rev.tokens


def judged_sizes(page) -> dict[str, int]:
    """Per registered author, the summed size of their revisions that have
    a judge: a later revision by someone else."""
    sums: Counter = Counter()
    revs = page.revisions
    for i, rev in enumerate(revs):
        if rev.kind != "registered":
            continue
        if any(later.author != rev.author for later in revs[i + 1:]):
            sums[rev.author] += rev.size
    return sums


def check_contributions(corpus, contributions_path: Path) -> None:
    """Every value lies in [0, the author's judged edit sizes] and belongs
    to a registered author of the page; on the insert-only page, where
    every word survives, each value equals that sum within 1%."""
    table = _contributions(contributions_path)
    for page in corpus.pages:
        if page.namespace != 0:
            continue
        sums = judged_sizes(page)
        registered = {r.author for r in page.revisions if r.kind == "registered"}
        got = table.get(page.page_id, {})
        for author, value in got.items():
            _expect(author in registered,
                    f"{page.title}: contribution for {author!r}, who is not a "
                    f"registered author of the page")
            _expect(0.0 <= value <= sums[author] * (1 + 1e-12),
                    f"{page.title}: {author} has {value}, outside "
                    f"[0, {sums[author]}]")
        if all(r.edit == "insert" for r in page.revisions):
            for author, want in sums.items():
                value = got.get(author, 0.0)
                _expect(abs(value - want) <= 0.01 * want,
                        f"{page.title}: {author} has {value}, expected "
                        f"{want} within 1%")


def check_long_history(corpus, workdir: Path) -> None:
    check_diff_sizes(corpus)
    check_contributions(corpus, workdir / "contributions.tsv")


# ----------------------------------------------------------------- wide_corpus

def check_ingest_counts(dump: Path, workdir: Path) -> None:
    """Pages and revisions per namespace match the dump."""
    want: Counter = Counter()
    for page in dump_pages(dump):
        want[(page["ns"], "pages")] += 1
        want[(page["ns"], "revisions")] += len(page["revisions"])
    got: Counter = Counter()
    for ns, name in (("0", "articles.jsonl"), ("3", "utp.jsonl")):
        for line in (workdir / name).read_text(encoding="utf-8").splitlines():
            got[(ns, "pages")] += 1
            got[(ns, "revisions")] += len(json.loads(line)["revisions"])
    _expect(got == want, f"ingest counts {dict(got)} != dump {dict(want)}")


def ndcg(scores: dict[int, float], labels: dict[int, str], k: int) -> float:
    ranked = sorted(labels, key=lambda p: (-scores.get(p, 0.0), p))
    gains = [GAINS[labels[p]] for p in ranked]
    ideal = sorted(gains, reverse=True)

    def dcg(gs):
        return sum((2 ** g - 1) / math.log2(r + 2) for r, g in enumerate(gs[:k]))

    return dcg(gains) / dcg(ideal)


def check_ndcg(report: Path, scores: Path, ratings: Path) -> None:
    """Every NDCG row matches one recomputed from scores and ratings, and
    every model has its full-corpus row and one row per filter."""
    labels = _labels(ratings)
    by_model = _model_scores(scores)
    present = set(labels.values())
    want_rows = {(m, f"all@k={len(labels)}") for m in by_model}
    want_rows |= {(m, name) for m in by_model
                  for name, keep in FILTERS.items() if keep & present}
    rows = read_tsv(report)
    _expect({(r["model"], r["configuration"]) for r in rows} == want_rows,
            "report rows differ from one per model and configuration")
    for row in rows:
        model, config = row["model"], row["configuration"]
        if config.startswith("all@k="):
            want = ndcg(by_model[model], labels, int(config[len("all@k="):]))
        else:
            sub = {p: c for p, c in labels.items() if c in FILTERS[config]}
            want = ndcg(by_model[model], sub, len(sub))
        _expect(abs(float(row["ndcg"]) - want) <= 1e-9,
                f"NDCG {model} {config}: report {row['ndcg']}, recomputed {want}")


def check_longevity_scores(scores: Path, selection: Path,
                           contributions: Path) -> None:
    """Each longevity score is the sum of its page's selected contributions."""
    selected = _selections(selection)
    contrib = _contributions(contributions)
    longevity = _model_scores(scores)["longevity"]
    _expect(set(longevity) == set(selected), "longevity scores cover other pages")
    for page_id, score in longevity.items():
        want = sum(contrib[page_id].get(a, 0.0) for a in selected[page_id])
        _expect(math.isclose(score, want, rel_tol=1e-9, abs_tol=1e-9),
                f"page {page_id}: longevity score {score}, selected sum {want}")


def check_percentiles(percentiles: Path) -> None:
    """Each (model, class) row of bucket proportions sums to 1."""
    sums: dict[tuple[str, str], float] = defaultdict(float)
    for row in read_tsv(percentiles):
        sums[(row["model"], row["class"])] += float(row["proportion"])
    _expect(bool(sums), "no percentile rows")
    for key, total in sums.items():
        _expect(abs(total - 1.0) <= 1e-9, f"percentile row {key} sums to {total}")


def check_pr_curve(pr_curve: Path, ratings: Path) -> None:
    """Recall never falls; the curve ends at recall 1 and precision equal
    to the relevant share."""
    labels = _labels(ratings)
    share = sum(c in RELEVANT for c in labels.values()) / len(labels)
    curves: dict[str, list[tuple[int, float, float]]] = defaultdict(list)
    for row in read_tsv(pr_curve):
        curves[row["model"]].append(
            (int(row["cutoff"]), float(row["recall"]), float(row["precision"])))
    _expect(bool(curves), "no PR curve rows")
    for model, points in curves.items():
        points.sort()
        _expect([p[0] for p in points] == list(range(1, len(labels) + 1)),
                f"{model}: cutoffs are not 1..{len(labels)}")
        recalls = [p[1] for p in points]
        _expect(all(a <= b for a, b in zip(recalls, recalls[1:])),
                f"{model}: recall falls")
        _expect(abs(recalls[-1] - 1.0) <= 1e-12 and
                abs(points[-1][2] - share) <= 1e-12,
                f"{model}: curve ends at {points[-1][1:]}, expected (1, {share})")


def check_wide_corpus(dump: Path, ratings: Path, workdir: Path) -> None:
    check_ingest_counts(dump, workdir)
    check_ndcg(workdir / "report.tsv", workdir / "scores.tsv", ratings)
    check_longevity_scores(workdir / "scores.tsv", workdir / "selection.tsv",
                           workdir / "contributions.tsv")
    check_percentiles(workdir / "percentiles.tsv")
    check_pr_curve(workdir / "pr_curve.tsv", ratings)


# --------------------------------------------------------------- network_sweep

def _is_bot(name: str) -> bool:
    return name.lower().endswith("bot")


def check_talk_hist_edges(dump: Path, selection: Path, edges: Path) -> None:
    """The talk-hist weight total is the number of registered, non-bot,
    non-owner user-talk revisions between selected authors."""
    authors = {a for sel in _selections(selection).values() for a in sel}
    want = 0
    for page in dump_pages(dump):
        if page["ns"] != "3":
            continue
        owner = page["title"][len("User talk:"):]
        for username, _ip in page["revisions"]:
            want += (username is not None and username != owner
                     and username in authors and owner in authors
                     and not _is_bot(username) and not _is_bot(owner))
    _directed, _nodes, got = read_edges(edges)
    _expect(sum(got.values()) == want,
            f"talk-hist weight total {sum(got.values())}, dump has {want}")


def check_coauthor_edges(selection: Path, edges: Path) -> None:
    """One co-author edge per distinct pair of authors selected together."""
    pairs = set()
    for authors in _selections(selection).values():
        a = sorted(set(authors))
        pairs.update((x, y) for i, x in enumerate(a) for y in a[i + 1:])
    _directed, _nodes, got = read_edges(edges)
    _expect(set(got) == pairs,
            f"{len(got)} co-author edges, {len(pairs)} selected pairs")


def check_degree(edges: Path, centrality: Path) -> None:
    """Degree is the count of incident edges: distinct neighbours when
    undirected, in- plus out-edges when directed."""
    directed, nodes, got = read_edges(edges)
    want = dict.fromkeys(nodes, 0.0)
    for src, dst in got:
        want[src] += 1
        want[dst] += 1
    _expect(_scores(centrality) == want, f"degree differs from {edges}")


def check_pagerank(edges: Path, centrality: Path, damping: float = 0.85) -> None:
    """PageRank sums to 1 and matches networkx."""
    import networkx as nx
    directed, nodes, got = read_edges(edges)
    scores = _scores(centrality)
    _expect(abs(sum(scores.values()) - 1.0) <= 1e-9,
            f"PageRank sums to {sum(scores.values())}")
    g = nx.DiGraph() if directed else nx.Graph()
    g.add_nodes_from(nodes)
    g.add_weighted_edges_from((s, d, w) for (s, d), w in got.items())
    oracle = nx.pagerank(g, alpha=damping, tol=1e-14, max_iter=10_000)
    _expect(set(oracle) == set(scores), "PageRank covers other nodes")
    worst = max(abs(oracle[n] - scores[n]) for n in oracle)
    _expect(worst <= 1e-8, f"PageRank differs from networkx by {worst}")


def check_eigenvector(centrality: Path) -> None:
    """Eigenvector centrality is max-normalised to 1."""
    top = max(_scores(centrality).values())
    _expect(abs(top - 1.0) <= 1e-12, f"eigenvector maximum is {top}")


def check_centrality_scores(scores: Path, selection: Path, centrality: Path,
                            metric: str) -> None:
    """The centrality model is the sum of the selected authors' scores."""
    cent = _scores(centrality)
    model = _model_scores(scores)[f"cen_{metric}"]
    for page_id, authors in _selections(selection).items():
        want = sum(cent.get(a, 0.0) for a in authors)
        _expect(math.isclose(model[page_id], want, rel_tol=1e-9, abs_tol=1e-12),
                f"page {page_id}: cen_{metric} {model[page_id]}, "
                f"selected sum {want}")


def check_network_sweep(dump: Path, workdir: Path, grid: Path,
                        networks, metrics) -> None:
    selection = workdir / "selection.tsv"
    check_talk_hist_edges(dump, selection, grid / "talk-hist_degree" / "edges.tsv")
    check_coauthor_edges(selection, grid / "coauthor_degree" / "edges.tsv")
    for network in networks:
        for metric in metrics:
            out = grid / f"{network}_{metric}"
            if metric == "degree":
                check_degree(out / "edges.tsv", out / "centrality.tsv")
            elif metric == "pagerank":
                check_pagerank(out / "edges.tsv", out / "centrality.tsv")
            elif metric == "eigenvector":
                check_eigenvector(out / "centrality.tsv")
            check_centrality_scores(out / "scores.tsv", selection,
                                    out / "centrality.tsv", metric)
