"""The benchmark's own tests: generators are deterministic, a round runs,
and every correctness check rejects a deliberately corrupted output.

    python3 -m pytest perfbench/selftest.py -q
"""

import shutil
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import checks  # noqa: E402
import child  # noqa: E402
import inputs  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402

SEED = 3


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_generator_is_byte_identical_per_seed(workload):
    first = inputs.generate(workload, SEED)[:2]
    assert inputs.generate(workload, SEED)[:2] == first
    other = inputs.generate(workload, SEED + 1)[:2]
    assert other[0] != first[0]
    if workload != "long_history":
        # the seed renames synth words only: same shape, same size
        assert len(other[0]) == len(first[0]) and other[1] == first[1]
        assert inputs.SYNTH_WORD.sub("w", other[0]) == \
            inputs.SYNTH_WORD.sub("w", first[0])


def test_long_history_cost_does_not_depend_on_seed():
    a, b = inputs.long_history(1), inputs.long_history(2)
    for pa, pb in zip(a.pages, b.pages):
        assert [(r.author, r.edit, r.size, len(r.tokens)) for r in pa.revisions] \
            == [(r.author, r.edit, r.size, len(r.tokens)) for r in pb.revisions]
        assert [[t in inputs.FUNCTION_WORDS for t in r.tokens]
                for r in pa.revisions] == \
               [[t in inputs.FUNCTION_WORDS for t in r.tokens]
                for r in pb.revisions]


def _round(tmp_path_factory, workload, trace=False):
    rundir = tmp_path_factory.mktemp(workload)
    ledger = run.prepare(workload, SEED, rundir)
    result = run.run_round(workload, rundir, trace)
    assert result["failed"] == 0 and result["attempted"] > 0
    assert run.check(workload, rundir, ledger) is None
    return rundir, ledger, result


@pytest.fixture(scope="module")
def long_history(tmp_path_factory):
    return _round(tmp_path_factory, "long_history")


@pytest.fixture(scope="module")
def wide_corpus(tmp_path_factory):
    return _round(tmp_path_factory, "wide_corpus")


@pytest.fixture(scope="module")
def network_sweep(tmp_path_factory):
    return _round(tmp_path_factory, "network_sweep", trace=True)


def _copy(rundir, tmp_path):
    dst = tmp_path / "copy"
    shutil.copytree(rundir, dst)
    return dst


def _edit(path, fn):
    """Rewrite the data rows (after the column header) of a TSV with fn."""
    lines = path.read_text(encoding="utf-8").splitlines()
    head = next(i for i, line in enumerate(lines) if not line.startswith("#"))
    path.write_text("\n".join(lines[:head + 1] + fn(lines[head + 1:])) + "\n",
                    encoding="utf-8")


def _scale_field(line, column, factor):
    cells = line.split("\t")
    cells[column] = repr(float(cells[column]) * factor)
    return "\t".join(cells)


def test_round_reports_every_metric(long_history):
    _rundir, _ledger, result = long_history
    assert result["wall_s"] > 0 and result["setup_s"] > 0
    assert result["peak_rss_mb"] > 10 and result["work_mb"] > 0
    assert result["attempted"] == 7


def test_traced_round_reports_every_per_layer_metric(network_sweep):
    _rundir, _ledger, result = network_sweep
    layers = result["layers"]
    assert set(layers) == {name for name, _u, _b in spans.PER_LAYER}
    # the sweep exercises every layer, so nothing reads zero
    assert all(value > 0 for value in layers.values()), layers
    assert 0 < layers["longevity.cache_hit_ratio"] < 1
    for stage in spans.STAGES:
        assert layers[f"pipeline.{stage}.s"] >= layers[f"pipeline.{stage}.self_s"]
    assert result["attempted"] == 3 + 12 * len(child.GRID_STAGES)


def _clock(probes):
    """A ProbeClock with probes given as (start, end, CPU time)."""
    clock = child.ProbeClock()
    clock.probes = [(start, end) for start, end, _cpu in probes]
    clock.probe_cpu = [cpu for _start, _end, cpu in probes]
    return clock


def test_probe_clock_without_probes_is_wall_time():
    assert child.ProbeClock().elapsed(1.0, 3.5) == 2.5
    assert child.ProbeClock().mean_speed() == 1.0


def test_probe_clock_leaves_probes_out_and_scales_by_their_speed():
    ref = child.PROBE_REFERENCE_S
    # 1 s, a probe at reference speed, 1 s, a probe at half speed, 1 s
    clock = _clock([(1.0, 1.5, ref), (2.5, 3.0, 2 * ref)])
    assert clock.elapsed(0.0, 4.0, scaled=False) == pytest.approx(3.0)
    assert clock.elapsed(0.0, 4.0) == pytest.approx(1 + 1 / 1.5 + 0.5)
    # a slice inside one gap takes that gap's speed
    assert clock.elapsed(3.2, 3.6) == pytest.approx(0.2)
    assert clock.mean_speed() == pytest.approx(2 / 3)


def test_probe_clock_times_a_round(long_history):
    _rundir, _ledger, result = long_history
    # a round of a few seconds meets a probe every 20 ms
    assert result["probes"] > result["wall_raw_s"] / child.PROBE_PERIOD_S / 2
    assert 0.3 < result["wall_s"] / result["wall_raw_s"] < 3


# ---------------------------------------------------------------- long_history

def test_diff_size_check_rejects_a_wrong_ledger_size(long_history):
    _rundir, ledger, _result = long_history
    rev = ledger.pages[0].revisions[10]
    rev.size += 1
    try:
        with pytest.raises(checks.CheckFailed):
            checks.check_diff_sizes(ledger)
    finally:
        rev.size -= 1


def test_contribution_check_rejects_a_value_off_by_5_percent(long_history, tmp_path):
    rundir, ledger, _result = long_history
    work = _copy(rundir, tmp_path) / "work"
    page = next(p for p in ledger.pages if p.namespace == 0 and
                all(r.edit == "insert" for r in p.revisions))
    _edit(work / "contributions.tsv", lambda rows: [
        _scale_field(r, 2, 0.95) if r.startswith(f"{page.page_id}\t") else r
        for r in rows])
    with pytest.raises(checks.CheckFailed, match="within 1%"):
        checks.check_contributions(ledger, work / "contributions.tsv")


def test_contribution_check_rejects_an_anonymous_author(long_history, tmp_path):
    rundir, ledger, _result = long_history
    work = _copy(rundir, tmp_path) / "work"
    _edit(work / "contributions.tsv",
          lambda rows: rows + [f"1001\t{inputs.ANONYMOUS[0]}\t1.0"])
    with pytest.raises(checks.CheckFailed, match="not a registered"):
        checks.check_contributions(ledger, work / "contributions.tsv")


def test_contribution_check_rejects_a_value_above_the_edit_sizes(long_history, tmp_path):
    rundir, ledger, _result = long_history
    work = _copy(rundir, tmp_path) / "work"
    _edit(work / "contributions.tsv", lambda rows: [
        _scale_field(r, 2, 1e3) if r.startswith("1001\t") else r for r in rows])
    with pytest.raises(checks.CheckFailed, match="outside"):
        checks.check_contributions(ledger, work / "contributions.tsv")


# ----------------------------------------------------------------- wide_corpus

def test_ingest_count_check_rejects_a_dropped_page(wide_corpus, tmp_path):
    rundir = _copy(wide_corpus[0], tmp_path)
    articles = rundir / "work" / "articles.jsonl"
    lines = articles.read_text(encoding="utf-8").splitlines()
    articles.write_text("\n".join(lines[1:]) + "\n", encoding="utf-8")
    with pytest.raises(checks.CheckFailed, match="ingest counts"):
        checks.check_ingest_counts(rundir / "dump.xml", rundir / "work")


def test_ndcg_check_rejects_swapped_values(wide_corpus, tmp_path):
    rundir = _copy(wide_corpus[0], tmp_path)
    work = rundir / "work"

    def swap(rows):
        cells = [r.split("\t") for r in rows]
        i = next(i for i in range(1, len(cells))
                 if cells[i][2] != cells[0][2])
        cells[0][2], cells[i][2] = cells[i][2], cells[0][2]
        return ["\t".join(c) for c in cells]

    _edit(work / "report.tsv", swap)
    with pytest.raises(checks.CheckFailed, match="NDCG"):
        checks.check_ndcg(work / "report.tsv", work / "scores.tsv",
                          rundir / "ratings.tsv")


def test_longevity_score_check_rejects_a_changed_score(wide_corpus, tmp_path):
    work = _copy(wide_corpus[0], tmp_path) / "work"
    done = []

    def bump(rows):
        out = []
        for r in rows:
            if not done and "\tlongevity\t" in r and float(r.split("\t")[2]) > 0:
                r = _scale_field(r, 2, 1.05)
                done.append(r)
            out.append(r)
        return out

    _edit(work / "scores.tsv", bump)
    with pytest.raises(checks.CheckFailed, match="longevity score"):
        checks.check_longevity_scores(work / "scores.tsv",
                                      work / "selection.tsv",
                                      work / "contributions.tsv")


def test_percentile_check_rejects_a_row_not_summing_to_one(wide_corpus, tmp_path):
    work = _copy(wide_corpus[0], tmp_path) / "work"

    def shift(rows):
        cells = rows[0].split("\t")
        cells[3] = repr(float(cells[3]) + 0.25)
        return ["\t".join(cells)] + rows[1:]

    _edit(work / "percentiles.tsv", shift)
    with pytest.raises(checks.CheckFailed, match="sums to"):
        checks.check_percentiles(work / "percentiles.tsv")


def test_pr_curve_check_rejects_falling_recall(wide_corpus, tmp_path):
    rundir = _copy(wide_corpus[0], tmp_path)
    work = rundir / "work"

    def fall(rows):
        cells = [r.split("\t") for r in rows]
        i = next(i for i in range(1, len(cells))
                 if cells[i][2] != cells[i - 1][2])
        cells[i][2] = "0.0"
        return ["\t".join(c) for c in cells]

    _edit(work / "pr_curve.tsv", fall)
    with pytest.raises(checks.CheckFailed, match="recall falls"):
        checks.check_pr_curve(work / "pr_curve.tsv", rundir / "ratings.tsv")


# --------------------------------------------------------------- network_sweep

def test_talk_hist_edge_check_rejects_a_dropped_edge(network_sweep, tmp_path):
    rundir = _copy(network_sweep[0], tmp_path)
    edges = rundir / "grid" / "talk-hist_degree" / "edges.tsv"
    _edit(edges, lambda rows: rows[1:])
    with pytest.raises(checks.CheckFailed, match="weight total"):
        checks.check_talk_hist_edges(rundir / "dump.xml",
                                     rundir / "work" / "selection.tsv", edges)


def test_coauthor_edge_check_rejects_a_dropped_edge(network_sweep, tmp_path):
    rundir = _copy(network_sweep[0], tmp_path)
    edges = rundir / "grid" / "coauthor_degree" / "edges.tsv"
    _edit(edges, lambda rows: rows[1:])
    with pytest.raises(checks.CheckFailed, match="co-author edges"):
        checks.check_coauthor_edges(rundir / "work" / "selection.tsv", edges)


def test_degree_check_rejects_a_wrong_degree(network_sweep, tmp_path):
    out = _copy(network_sweep[0], tmp_path) / "grid" / "talk-sig_degree"
    _edit(out / "centrality.tsv",
          lambda rows: [_scale_field(rows[0], 1, 2.0)] + rows[1:])
    with pytest.raises(checks.CheckFailed, match="degree"):
        checks.check_degree(out / "edges.tsv", out / "centrality.tsv")


def test_pagerank_check_rejects_swapped_scores(network_sweep, tmp_path):
    out = _copy(network_sweep[0], tmp_path) / "grid" / "coauthor_pagerank"

    def swap(rows):
        cells = [r.split("\t") for r in rows]
        cells[0][1], cells[-1][1] = cells[-1][1], cells[0][1]
        return ["\t".join(c) for c in cells]

    _edit(out / "centrality.tsv", swap)
    with pytest.raises(checks.CheckFailed, match="networkx"):
        checks.check_pagerank(out / "edges.tsv", out / "centrality.tsv")


def test_pagerank_check_rejects_mass_not_summing_to_one(network_sweep, tmp_path):
    out = _copy(network_sweep[0], tmp_path) / "grid" / "talk-hist_pagerank"
    _edit(out / "centrality.tsv",
          lambda rows: [_scale_field(rows[0], 1, 1.01)] + rows[1:])
    with pytest.raises(checks.CheckFailed, match="sums to"):
        checks.check_pagerank(out / "edges.tsv", out / "centrality.tsv")


def test_eigenvector_check_rejects_a_maximum_below_one(network_sweep, tmp_path):
    out = _copy(network_sweep[0], tmp_path) / "grid" / "talk-sig_eigenvector"
    _edit(out / "centrality.tsv",
          lambda rows: [_scale_field(r, 1, 0.9) for r in rows])
    with pytest.raises(checks.CheckFailed, match="maximum"):
        checks.check_eigenvector(out / "centrality.tsv")


def test_centrality_score_check_rejects_a_changed_score(network_sweep, tmp_path):
    rundir = _copy(network_sweep[0], tmp_path)
    out = rundir / "grid" / "coauthor_betweenness"
    done = []

    def bump(rows):
        result = []
        for r in rows:
            if not done and "\tcen_betweenness\t" in r and float(r.split("\t")[2]):
                r = _scale_field(r, 2, 1.05)
                done.append(r)
            result.append(r)
        return result

    _edit(out / "scores.tsv", bump)
    with pytest.raises(checks.CheckFailed, match="cen_betweenness"):
        checks.check_centrality_scores(out / "scores.tsv",
                                       rundir / "work" / "selection.tsv",
                                       out / "centrality.tsv", "betweenness")
