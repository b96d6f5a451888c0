import io

import pytest
from hypothesis import assume, given

from hostile import names
from wikiq import centrality
from wikiq.centrality import CentralityTable
from wikiq.ingest import Namespace, parse_dump
from wikiq.longevity import build_contributions, select_all
from wikiq.networks import (build_talk_history, build_talk_signature,
                            restrict_and_filter)
from wikiq.quality import (QualityScoreTable, centrality_qscore,
                           combined_qscore, longevity_qscore, read_scores,
                           write_scores)
from wikiq.synth import SynthSpec, generate


def fixture(pages):
    """pages: page_id -> dict author -> contrib; the selection is every
    author, as a sub-table in selection order."""
    return {page_id: {a: contribs[a]
                      for a in sorted(contribs, key=lambda a: (-contribs[a], a))}
            for page_id, contribs in pages.items()}


def cent(scores, metric="pagerank"):
    return CentralityTable(metric, "talk_history", dict(scores))


class TestLongevityModel:
    def test_sum(self):
        selections = fixture({1: {"a": 100.0, "b": 50.0}})
        assert longevity_qscore(selections).scores == {1: 150.0}

    def test_empty_selection_scores_zero(self):
        selections = fixture({1: {}})
        assert longevity_qscore(selections).scores == {1: 0.0}

    def test_matches_tsv_recomputation(self):
        import random

        rng = random.Random(2)
        pages = {
            p: {f"a{i}": rng.uniform(1, 100) for i in range(rng.randint(1, 5))}
            for p in range(10)
        }
        selections = fixture(pages)
        scores = longevity_qscore(selections).scores
        # oracle: re-sum from the serialized contribution TSV
        from wikiq.longevity import write_contributions

        buf = io.StringIO()
        write_contributions(selections, buf)
        sums = {}
        for line in buf.getvalue().splitlines()[1:]:
            page_id, _author, contrib = line.split("\t")
            sums[int(page_id)] = sums.get(int(page_id), 0.0) + float(contrib)
        for p in pages:
            assert scores[p] == pytest.approx(sums[p], abs=1e-12)


class TestCentralityModel:
    def test_single_author(self):
        selections = fixture({1: {"a": 5.0}})
        assert centrality_qscore(selections, cent({"a": 0.3})).scores == {1: 0.3}

    def test_isolated_authors_zero(self):
        selections = fixture({1: {"a": 5.0, "b": 2.0}})
        table = centrality_qscore(selections, cent({"a": 0.0, "b": 0.0}, "degree"))
        assert table.scores == {1: 0.0}

    def test_missing_author_contributes_zero(self):
        selections = fixture({1: {"a": 5.0, "ghost": 2.0}})
        assert centrality_qscore(selections, cent({"a": 0.4})).scores == {1: 0.4}

    def test_hub_pages_outrank_leaf_pages(self):
        selections = fixture({1: {"hub": 5.0}, 2: {"leaf": 5.0}})
        table = centrality_qscore(selections, cent({"hub": 0.9, "leaf": 0.1}))
        assert table.scores[1] > table.scores[2]


class TestCombinedModel:
    def test_double_maximum_scores_one(self):
        selections = fixture({1: {"top": 100.0}, 2: {"low": 1.0}})
        scores = combined_qscore(
            selections, cent({"top": 0.8, "low": 0.1})
        ).scores
        assert scores[1] == pytest.approx(1.0)

    def test_min_centrality_author_contributes_nothing(self):
        selections = fixture({1: {"big": 100.0}, 2: {"alt": 60.0}})
        scores = combined_qscore(
            selections, cent({"big": 0.1, "alt": 0.5})
        ).scores
        assert scores[1] == 0.0  # big sits at the centrality minimum

    def test_matches_spreadsheet_recomputation(self):
        import random

        rng = random.Random(4)
        pages = {
            p: {f"a{i}": rng.uniform(1, 100) for i in range(rng.randint(1, 6))}
            for p in range(20)
        }
        authors = {a for c in pages.values() for a in c}
        centrality = {a: rng.uniform(0, 1) for a in sorted(authors)}
        selections = fixture(pages)
        result = combined_qscore(selections, cent(centrality))
        # independent recomputation from first principles
        all_contribs = [c for p in pages.values() for c in p.values()]
        c_lo, c_hi = min(all_contribs), max(all_contribs)
        x_lo, x_hi = min(centrality.values()), max(centrality.values())
        for p, contribs in pages.items():
            expected = sum(
                ((c - c_lo) / (c_hi - c_lo)) * ((centrality[a] - x_lo) / (x_hi - x_lo))
                for a, c in contribs.items()
            )
            assert result.scores[p] == pytest.approx(expected, abs=1e-12)
        assert result.provenance["contrib_bounds"] == [c_lo, c_hi]

    def test_score_bounded_by_author_count(self):
        selections = fixture({1: {"a": 100.0, "b": 90.0, "c": 1.0}})
        scores = combined_qscore(
            selections, cent({"a": 1.0, "b": 0.9, "c": 0.1})
        ).scores
        assert scores[1] <= 3.0

    def test_degenerate_bounds_warn(self, caplog):
        selections = fixture({1: {"a": 5.0}, 2: {"b": 5.0}})
        with caplog.at_level("WARNING"):
            scores = combined_qscore(
                selections, cent({"a": 0.5, "b": 0.5})
            ).scores
        assert scores[1] == pytest.approx(0.25)
        assert "degenerate" in caplog.text

    def test_rank_invariant_under_affine_centrality_rescale(self):
        import random

        rng = random.Random(6)
        pages = {
            p: {f"a{i}": rng.uniform(1, 100) for i in range(rng.randint(1, 4))}
            for p in range(12)
        }
        authors = sorted({a for c in pages.values() for a in c})
        centrality = {a: rng.uniform(0, 1) for a in authors}
        rescaled = {a: 7.0 * v + 3.0 for a, v in centrality.items()}
        selections = fixture(pages)
        s1 = combined_qscore(selections, cent(centrality)).scores
        s2 = combined_qscore(selections, cent(rescaled)).scores
        rank1 = sorted(pages, key=lambda p: (-s1[p], p))
        rank2 = sorted(pages, key=lambda p: (-s2[p], p))
        assert rank1 == rank2

    def test_monotone_in_contribution(self):
        selections = fixture({1: {"a": 50.0, "z": 100.0}, 2: {"b": 30.0, "z": 100.0}})
        centrality = cent({"a": 0.75, "b": 0.5, "z": 1.0})
        before = combined_qscore(selections, centrality).scores
        selections[1]["a"] = 80.0  # bounds unchanged (max is z's 100 partner contrib)
        after = combined_qscore(selections, centrality).scores
        assert after[1] > before[1]
        assert after[2] == before[2]

    def test_absent_author_normalizes_to_zero(self):
        # the centrality bounds are taken over the selected slots, an author
        # absent from the network at 0.0, so that author adds nothing
        selections = fixture({1: {"a": 10.0, "ghost": 5.0}, 2: {"b": 1.0}})
        result = combined_qscore(selections, cent({"a": 0.4, "b": 0.2}))
        assert result.provenance["centrality_bounds"] == [0.0, 0.4]
        assert result.scores == {1: 1.0, 2: 0.0}

    def test_global_beats_per_page_percentage_normalization(self):
        # one heavily edited near-FA page vs one tiny page: per-page
        # percentage normalization treats the tiny page's sole author as a
        # 100% contributor and ranks the pages equal; global min-max keeps
        # the heavy page on top.
        selections = fixture({1: {"major": 500.0}, 2: {"minor": 2.0}})
        centrality = cent({"major": 0.6, "minor": 0.6})
        global_scores = combined_qscore(selections, centrality).scores
        assert global_scores[1] > global_scores[2]

        def per_page_percentage(pages):
            out = {}
            for p, contribs in pages.items():
                total = sum(contribs.values())
                out[p] = sum((c / total) * centrality.scores[a]
                             for a, c in contribs.items())
            return out

        naive = per_page_percentage(selections)
        assert naive[1] == pytest.approx(naive[2])  # heavy page not ranked first


@given(model=names)
def test_scores_roundtrip(model):
    assume(model != "longevity")
    selections = fixture({1: {"a": 10.0}, 2: {"b": 4.0}})
    t = longevity_qscore(selections)
    buf = io.StringIO()
    write_scores([t, QualityScoreTable(model, {3: 0.5})], buf)
    again = read_scores(io.StringIO(buf.getvalue()))
    assert again == {"longevity": {1: 10.0, 2: 4.0}, model: {3: 0.5}}


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_no_combined_score_is_negative_on_talk_networks(seed):
    """On every talk network x metric cell of synth seeds 1-3, where some
    selected authors are absent from the network, no page's combined score
    is negative."""
    dump, _ = generate(SynthSpec(seed=seed))
    pages = list(parse_dump(io.BytesIO(dump.encode())))
    selections = select_all(build_contributions(
        p for p in pages if p.namespace is Namespace.ARTICLE))
    project = {a for selected in selections.values() for a in selected}
    talk = [p for p in pages if p.namespace is Namespace.USER_TALK]
    absent = 0
    for build in (build_talk_signature, build_talk_history):
        graph = restrict_and_filter(build(talk), project)
        absent += len(project - graph.nodes)
        for metric in ("degree", "betweenness", "eigenvector", "pagerank"):
            scores = combined_qscore(
                selections, getattr(centrality, metric)(graph)).scores
            low = min(scores, key=scores.get)
            assert scores[low] >= 0.0, (build.__name__, metric, low)
    assert absent > 0
