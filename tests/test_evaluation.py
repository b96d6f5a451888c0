import math

import pytest
from hypothesis import given, strategies as st

from wikiq.evaluation import (FILTER_CONFIGS, build_ranking, filtered_eval,
                              ndcg, percentile_table, precision_recall)
from wikiq.ingest import QUALITY_CLASSES


def ranking_of(order, labels, scores=None):
    """Build a ranking that places pages exactly in the given order."""
    scores = scores or {pid: float(len(order) - i) for i, pid in enumerate(order)}
    return build_ranking(scores, labels)


class TestNdcg:
    def test_ideal_ordering_is_one(self):
        labels = {1: "FA", 2: "GA", 3: "C", 4: "Stub"}
        r = ranking_of([1, 2, 3, 4], labels)
        for k in (1, 2, 4):
            assert ndcg(r, k=k) == pytest.approx(1.0)

    def test_zero_gain_topk(self):
        labels = {1: "FA", 2: "Stub", 3: "Stub"}
        r = ranking_of([2, 3, 1], labels)
        assert ndcg(r, k=2) == 0.0

    def test_hand_computed_three_page_fixture(self):
        # corpus {FA, C, Stub} ranked [C, FA, Stub]:
        # DCG = 3/log2(2) + 63/log2(3), Z = 63/log2(2) + 3/log2(3)
        labels = {1: "FA", 2: "C", 3: "Stub"}
        r = ranking_of([2, 1, 3], labels)
        expected = (3.0 + 63.0 / math.log2(3)) / (63.0 + 3.0 / math.log2(3))
        assert ndcg(r, k=3) == pytest.approx(expected, abs=1e-12)
        assert expected == pytest.approx(0.6588, abs=5e-4)

    def test_all_zero_gain_errors(self):
        labels = {1: "Stub", 2: "Stub"}
        with pytest.raises(ValueError, match="all-zero"):
            ndcg(ranking_of([1, 2], labels))

    def test_k_exceeds_corpus(self):
        labels = {1: "FA"}
        with pytest.raises(ValueError):
            ndcg(ranking_of([1], labels), k=2)

    def test_monotone_transform_invariance(self):
        labels = {i: cls for i, cls in enumerate(["FA", "B", "C", "Start", "Stub"])}
        scores = {0: 9.0, 1: 5.0, 2: 4.5, 3: 1.0, 4: 0.5}
        transformed = {p: math.exp(s) for p, s in scores.items()}
        assert ndcg(build_ranking(scores, labels)) == ndcg(
            build_ranking(transformed, labels)
        )

    def test_fixing_adjacent_inversion_increases_ndcg(self):
        labels = {1: "FA", 2: "C", 3: "B", 4: "Stub"}
        worse = ranking_of([1, 2, 3, 4], labels)   # C above B: inversion
        better = ranking_of([1, 3, 2, 4], labels)
        assert ndcg(better) > ndcg(worse)

    def test_tie_break_by_page_id(self):
        labels = {5: "FA", 2: "Stub"}
        r = build_ranking({5: 1.0, 2: 1.0}, labels)
        assert [p.page_id for p in r] == [2, 5]


class TestFilteredEval:
    def test_perfect_separation_is_one(self):
        labels = {i: "FA" for i in range(3)} | {i + 10: "Stub" for i in range(3)}
        scores = {i: 100.0 - i for i in range(3)} | {i + 10: 1.0 - i / 10 for i in range(3)}
        assert filtered_eval(build_ranking(scores, labels),
                             {"FA", "Stub"}) == pytest.approx(1.0)

    def test_keep_all_equals_plain_ndcg(self):
        labels = {1: "FA", 2: "C", 3: "Stub"}
        scores = {1: 5.0, 2: 9.0, 3: 1.0}
        assert filtered_eval(build_ranking(scores, labels),
                             set(QUALITY_CLASSES)) == ndcg(
            build_ranking(scores, labels)
        )

    def test_overlap_hurts_fa_c_but_not_fa_stub(self):
        # FA and C scores interleave; Stubs sit far below
        labels = ({i: "FA" for i in range(4)}
                  | {i + 10: "C" for i in range(4)}
                  | {i + 20: "Stub" for i in range(4)})
        scores = {0: 100, 1: 90, 2: 80, 3: 70,
                  10: 95, 11: 85, 12: 75, 13: 65,
                  20: 5, 21: 4, 22: 3, 23: 2}
        fa_c = filtered_eval(build_ranking(scores, labels), {"FA", "C"})
        fa_stub = filtered_eval(build_ranking(scores, labels), {"FA", "Stub"})
        assert fa_stub > fa_c

    def test_empty_filter_errors(self):
        with pytest.raises(ValueError):
            filtered_eval(build_ranking({1: 1.0}, {1: "FA"}), {"Stub"})

    # few distinct scores, so ties are common; 0.0 ties with unscored pages
    @given(st.dictionaries(st.integers(0, 30), st.sampled_from(list(QUALITY_CLASSES)),
                           min_size=1),
           st.dictionaries(st.integers(0, 30), st.one_of(
               st.sampled_from([-1.0, 0.0, 1.0, 2.5]), st.floats(-10.0, 10.0))),
           st.sets(st.sampled_from(list(QUALITY_CLASSES)), min_size=1))
    def test_filtered_ranking_is_ranking_of_kept_pages(self, labels, scores, keep):
        kept = {pid: cls for pid, cls in labels.items() if cls in keep}
        ranking = build_ranking(scores, labels)
        assert [p for p in ranking if p.cls in keep] == build_ranking(scores, kept)
        try:
            want = ndcg(build_ranking(scores, kept))
        except ValueError:
            with pytest.raises(ValueError):
                filtered_eval(ranking, keep)
        else:
            assert filtered_eval(ranking, keep) == want

    def test_filter_configs_shape(self):
        assert [name for name, _ in FILTER_CONFIGS] == [
            "FA-C-Start-Stub", "FA-C", "FA-Start-Stub", "FA-Start", "FA-Stub",
        ]


class TestPrecisionRecall:
    def test_perfect_separation(self):
        labels = {1: "FA", 2: "GA", 3: "Stub", 4: "Start"}
        scores = {1: 10.0, 2: 9.0, 3: 1.0, 4: 2.0}
        curve = precision_recall(build_ranking(scores, labels))
        # precision stays 1.0 until full recall
        for recall, precision in curve:
            if recall < 1.0:
                assert precision == 1.0
        assert curve[-1][0] == 1.0

    def test_reversed_ranking_prevalence_at_full_recall(self):
        labels = {1: "FA", 2: "Stub", 3: "Stub", 4: "Stub"}
        scores = {1: 0.0, 2: 3.0, 3: 2.0, 4: 1.0}
        curve = precision_recall(build_ranking(scores, labels))
        assert curve[-1] == (1.0, 0.25)

    def test_hand_computed_interleaved_curve(self):
        # 10 pages, 4 relevant, ranked R I R I I R I I R I
        classes = ["FA", "Stub", "GA", "Stub", "Stub", "A", "Stub", "Stub", "FA", "Stub"]
        labels = {i: c for i, c in enumerate(classes)}
        scores = {i: 10.0 - i for i in range(10)}
        curve = precision_recall(build_ranking(scores, labels))
        hits = [1, 1, 2, 2, 2, 3, 3, 3, 4, 4]
        expected = [(h / 4, h / (i + 1)) for i, h in enumerate(hits)]
        assert curve == pytest.approx(expected)

    def test_degenerate_corpus_errors(self):
        with pytest.raises(ValueError):
            precision_recall(build_ranking({1: 1.0}, {1: "FA"}))
        with pytest.raises(ValueError):
            precision_recall(build_ranking({1: 1.0, 2: 2.0},
                                           {1: "Stub", 2: "Stub"}))


class TestPercentileTable:
    def test_uniform_single_class(self):
        labels = {i: "C" for i in range(50)}
        scores = {i: float(i) for i in range(50)}
        table = percentile_table(build_ranking(scores, labels), buckets=10)
        assert table["C"] == pytest.approx([0.1] * 10)

    def test_class_at_top(self):
        labels = {i: "FA" for i in range(5)} | {i + 10: "Stub" for i in range(45)}
        scores = {i: 100.0 + i for i in range(5)} | {i + 10: float(i) for i in range(45)}
        table = percentile_table(build_ranking(scores, labels), buckets=10)
        assert table["FA"][0] == 1.0
        assert sum(table["FA"][1:]) == 0.0

    def test_planted_anomalous_start_page(self):
        labels = {i: "FA" for i in range(5)} | {i + 10: "Start" for i in range(45)}
        scores = {i: 100.0 + i for i in range(5)} | {i + 10: float(i) for i in range(45)}
        scores[10] = 999.0  # one Start page planted at the very top
        table = percentile_table(build_ranking(scores, labels), buckets=10)
        assert table["Start"][0] > 0.0

    def test_rows_sum_to_one_and_buckets_balanced(self):
        import random

        rng = random.Random(8)
        classes = ["FA", "GA", "C", "Start", "Stub"]
        labels = {i: rng.choice(classes) for i in range(97)}
        scores = {i: rng.random() for i in range(97)}
        table = percentile_table(build_ranking(scores, labels), buckets=10)
        for row in table.values():
            assert sum(row) == pytest.approx(1.0, abs=1e-12)
        # column counts (over all classes) differ by at most one page
        counts = [0] * 10
        for cls, row in table.items():
            n_cls = sum(1 for c in labels.values() if c == cls)
            for b, prop in enumerate(row):
                counts[b] += round(prop * n_cls)
        assert max(counts) - min(counts) <= 1

    def test_too_few_buckets(self):
        with pytest.raises(ValueError):
            percentile_table(build_ranking({1: 1.0}, {1: "FA"}), buckets=1)
