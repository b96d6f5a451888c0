import io
from collections import Counter
from unittest import mock

import pytest
from hypothesis import example, given, settings, strategies as st

from hostile import names
from wikiq import longevity, worddiff
from wikiq.ingest import (AuthorId, AuthorKind, Namespace, PageHistory,
                          RevisionRecord, parse_dump)
from wikiq.longevity import (MAX_JUDGES, SelectionParams,
                             build_contributions, judge_page,
                             read_contributions, select_all, select_authors,
                             write_contributions)
from wikiq.pipeline import RunConfig, read_selections, write_selections
from wikiq.synth import SynthSpec, generate
from wikiq.worddiff import edit_distance


def author(name, kind=AuthorKind.REGISTERED):
    return AuthorId(name, kind)


def page(versions, page_id=1, namespace=Namespace.ARTICLE):
    """versions: list of (author_name_or_AuthorId, tokens)."""
    revs = []
    for i, (who, tokens) in enumerate(versions):
        if isinstance(who, str):
            who = author(who)
        revs.append(RevisionRecord(i + 1, who, 1000 + i, list(tokens)))
    return PageHistory(page_id, f"Page {page_id}", namespace, revs)


def words(n, prefix="w"):
    return [f"{prefix}{i}" for i in range(n)]


class TestJudgeRevision:
    def test_fully_preserved_edit(self):
        content = words(20)
        history = page([
            ("Alice", content),
            ("Bob", content),     # null edit by a different author
            ("Carol", content),
        ])
        j = judge_page(history)[0]
        assert j.alpha_bar == 1.0
        assert j.longevity == j.d_r == 20.0
        assert j.judge_count == 2

    def test_full_revert(self):
        base = words(10)
        vandal = base + words(15, "junk")
        history = page([
            ("Alice", base),
            ("Mallory", vandal),
            ("Alice", base),      # restores v1 exactly, sole judge
        ])
        j = judge_page(history)[1]
        assert j.alpha_bar == -1.0
        assert j.longevity == -j.d_r

    def test_half_surviving_insertion(self):
        # Bob inserts 10 words; the judge keeps 5 of them.  Oracle: compute
        # the two distances by hand from the diff breakdowns.
        base = words(20)
        inserted = words(10, "new")
        after = base + inserted
        judged = base + inserted[:5]
        history = page([
            ("Alice", base),
            ("Bob", after),
            ("Carol", judged),
        ])
        d_r = edit_distance(base, after).distance          # 10
        d_prev_j = edit_distance(base, judged).distance    # 5
        d_i_j = edit_distance(after, judged).distance      # 5
        assert (d_r, d_prev_j, d_i_j) == (10.0, 5.0, 5.0)
        j = judge_page(history)[1]
        assert j.alpha_bar == pytest.approx((d_prev_j - d_i_j) / d_r)  # 0.0
        # and with a judge that keeps all ten, alpha is (10-0)/10 = 1
        history2 = page([("Alice", base), ("Bob", after), ("Carol", after)])
        assert judge_page(history2)[1].alpha_bar == 1.0

    def test_no_judges_means_zero(self):
        history = page([("Alice", words(5)), ("Alice", words(9))])
        j = judge_page(history)[1]
        assert j.judge_count == 0
        assert j.alpha_bar == 0.0 and j.longevity == 0.0

    def test_null_edit_zero_longevity(self):
        content = words(5)
        history = page([("Alice", content), ("Bob", content), ("Carol", content + ["x"])])
        j = judge_page(history)[1]
        assert j.d_r == 0.0 and j.longevity == 0.0

    def test_judges_limited_to_ten(self):
        versions = [("Alice", words(5))]
        for i in range(15):
            versions.append((f"Other{i}", words(5) + words(i + 1, "x")))
        history = page(versions)
        assert judge_page(history)[0].judge_count == 10

    def test_same_author_revisions_not_judges(self):
        content = words(8)
        history = page([("Alice", content), ("Alice", content + ["x"])])
        assert judge_page(history)[0].judge_count == 0


rev_tokens = st.lists(st.sampled_from("abcdef"), max_size=12)


@given(st.lists(st.tuples(st.sampled_from(["A", "B", "C"]), rev_tokens),
                min_size=1, max_size=12))
@settings(max_examples=100, deadline=None)
def test_alpha_bar_always_in_range(versions):
    history = page(versions)
    for j in judge_page(history):
        assert -1.0 <= j.alpha_bar <= 1.0
        assert j.longevity == j.alpha_bar * j.d_r


def test_scaling_tokens_scales_longevity():
    base = words(10)
    add = words(6, "n")
    history = page([("Alice", base), ("Bob", base + add), ("Carol", base + add)])
    doubled = page([
        ("Alice", [w for w in base for _ in (0, 1)]),
        ("Bob", [w for w in base + add for _ in (0, 1)]),
        ("Carol", [w for w in base + add for _ in (0, 1)]),
    ])
    j1 = judge_page(history)[1]
    j2 = judge_page(doubled)[1]
    assert j2.alpha_bar == j1.alpha_bar
    assert j2.longevity == pytest.approx(2 * j1.longevity)


class _Tracked(worddiff.Version):
    """A Version that counts how many of its kind are alive."""
    live = 0

    def __del__(self):
        _Tracked.live -= 1


def judge_tracked(history):
    """judge_page with every version wrapped as a _Tracked: the diff-index
    builds per version ordinal, and the most versions alive at once."""
    ordinals = {id(tokens): k for k, tokens in
                enumerate([(), *(rev.tokens for rev in history.revisions)])}
    builds = Counter()
    peak = 0
    real_build = worddiff._grams

    def wrap(tokens):
        nonlocal peak
        version = _Tracked(tokens)
        version.ordinal = ordinals[id(tokens)]
        _Tracked.live += 1
        peak = max(peak, _Tracked.live)
        return version

    def build(version):
        builds[version.ordinal] += 1
        return real_build(version)

    with mock.patch.object(longevity, "Version", wrap), \
            mock.patch.object(worddiff, "_grams", build):
        judge_page(history)
    return builds, peak


def test_judge_page_indexes_each_version_once_and_keeps_none():
    dump, _ = generate(SynthSpec(seed=1))
    pages = [page for page in parse_dump(io.BytesIO(dump.encode()))
             if page.namespace is Namespace.ARTICLE]
    total = 0
    for history in pages:
        builds, _ = judge_tracked(history)
        assert _Tracked.live == 0, f"page {history.page_id} still holds versions"
        assert max(builds.values(), default=1) == 1, history.page_id
        total += sum(builds.values())
    assert total > 0


def test_judge_page_holds_versions_bounded_by_max_judges():
    # Two authors take turns, so each revision's judges run MAX_JUDGES
    # other-author revisions (2 * MAX_JUDGES - 1 revisions) ahead.
    n = 150
    history = page([("AB"[k % 2], words(10) + [f"x{k}"]) for k in range(n)])
    _, peak = judge_tracked(history)
    assert _Tracked.live == 0
    assert peak <= MAX_JUDGES * (MAX_JUDGES + 1) + 2 < n


class TestContributions:
    def test_surviving_insertion_counted(self):
        base = words(100)
        history = page([("Alice", base), ("Bob", base + ["x"])])
        table = build_contributions([history])
        assert table[1]["Alice"] == pytest.approx(100.0)

    def test_fully_reverted_author_gets_zero(self):
        base = words(10)
        history = page([
            ("Alice", base),
            ("Mallory", base + words(20, "junk")),
            ("Alice", base),
            ("Bob", base + ["fine"]),
        ])
        table = build_contributions([history])
        assert "Mallory" not in table[1]

    def test_anonymous_dropped(self):
        base = words(50)
        history = page([
            (author("10.0.0.1", AuthorKind.ANONYMOUS), base),
            ("Bob", base + ["x"]),
        ])
        table = build_contributions([history])
        assert "10.0.0.1" not in table[1]

    def test_bots_dropped_when_configured(self):
        """Contrib's bot rule, not an ingest label, leaves a bot out."""
        base = words(30)
        history = page([("SmackBot", base), ("Bob", base + ["x"])])
        for exclude in (True, False):
            is_bot = RunConfig(exclude_bots=exclude).is_bot()
            assert ("SmackBot" in build_contributions([history], is_bot)[1]) is not exclude
        assert "SmackBot" in build_contributions([history])[1]

    def test_empty_page_still_present(self):
        history = page([("Alice", words(5))])  # no judges -> zero longevity
        table = build_contributions([history])
        assert table == {1: {}}

    def test_additive_over_revisions(self):
        base = words(10)
        v2 = base + words(5, "p")
        v3 = v2 + words(7, "q")
        history = page([
            ("Alice", base), ("Bob", v2), ("Alice", v3), ("Bob", v3 + ["t"]),
            ("Carol", v3 + ["t"]),
        ])
        table = build_contributions([history])
        judgments = judge_page(history)
        expected = sum(
            j.longevity
            for rev, j in zip(history.revisions, judgments)
            if rev.author.name == "Alice" and j.longevity > 0
        )
        assert table[1]["Alice"] == pytest.approx(expected)


def make_table(contribs, page_id=1):
    return {page_id: dict(contribs)}


def reference_select_authors(contribs, params=SelectionParams()):
    """The two-pass selection: the eligible authors up to theta, then a
    fill from the whole order up to the floor, then a re-sort."""
    ordered = sorted(contribs, key=lambda a: (-contribs[a], a))
    total = sum(contribs.values())
    if total == 0:
        return []
    selected = []
    cum = 0.0
    for author in ordered:
        if contribs[author] <= params.min_contrib:
            continue
        selected.append(author)
        cum += contribs[author]
        if cum / total > params.theta:
            break
    floor = min(params.min_authors, len(ordered))
    if len(selected) < floor:
        chosen = set(selected)
        for author in ordered:
            if len(selected) >= floor:
                break
            if author not in chosen:
                selected.append(author)
                chosen.add(author)
    selected.sort(key=lambda a: (-contribs[a], a))
    return selected


class TestSelectAuthors:
    def test_theta_cutoff(self):
        contribs = {"a": 50.0, "b": 30.0, "c": 10.0, "d": 5.0, "e": 5.0}
        sel = select_authors(contribs, SelectionParams(0.0, 2, 0.9))
        assert sel == ["a", "b", "c", "d"]

    def test_population_caps_floor(self):
        contribs = {"solo": 100.0}
        sel = select_authors(contribs, SelectionParams(10.0, 20, 0.9))
        assert sel == ["solo"]

    def test_theta_zero_still_fills_floor(self):
        contribs = {"a": 50.0, "b": 30.0, "c": 10.0}
        sel = select_authors(contribs, SelectionParams(0.0, 2, 0.0))
        assert sel == ["a", "b"]

    def test_min_contrib_bar_with_floor_override(self):
        contribs = {"a": 100.0, "b": 8.0, "c": 5.0}
        # only a is eligible; the floor of 2 still pulls b in
        sel = select_authors(contribs, SelectionParams(10.0, 2, 0.99))
        assert sel == ["a", "b"]

    def test_empty_total(self):
        assert select_authors({}) == []

    def test_username_tiebreak(self):
        contribs = {"zeta": 10.0, "alpha": 10.0, "mid": 10.0}
        sel = select_authors(contribs, SelectionParams(0.0, 3, 1.0))
        assert sel == ["alpha", "mid", "zeta"]

    @given(
        st.dictionaries(st.sampled_from("abcdefgh"),
                        st.floats(0.1, 100.0), min_size=1),
        st.floats(0.0, 0.95), st.floats(0.0, 0.95),
        st.integers(0, 8), st.integers(0, 8),
    )
    @settings(max_examples=150, deadline=None)
    def test_selection_monotone_in_theta_and_k(self, contribs, t1, t2, k1, k2):
        lo_t, hi_t = sorted((t1, t2))
        lo_k, hi_k = sorted((k1, k2))
        base = set(select_authors(contribs, SelectionParams(0.0, lo_k, lo_t)))
        more_theta = set(select_authors(contribs, SelectionParams(0.0, lo_k, hi_t)))
        more_k = set(select_authors(contribs, SelectionParams(0.0, hi_k, lo_t)))
        assert base <= more_theta
        assert base <= more_k

    # few distinct values, so ties, zeros and negatives are common
    @given(
        st.dictionaries(st.sampled_from("abcdefghijkl"), st.one_of(
            st.sampled_from([-10.0, -0.5, 0.0, 0.5, 10.0, 10.5, 40.0]),
            st.floats(-100.0, 100.0)), max_size=12),
        st.one_of(st.floats(-1.0, 2.0), st.sampled_from([-1.0, 0.0, 0.5, 1.0])),
        st.integers(-1, 25),
        st.one_of(st.floats(-50.0, 50.0), st.sampled_from([-1.0, 0.0, 10.0])),
    )
    @settings(max_examples=400, deadline=None)
    def test_matches_reference(self, contribs, theta, min_authors, min_contrib):
        params = SelectionParams(min_contrib, min_authors, theta)
        assert (select_authors(contribs, params)
                == reference_select_authors(contribs, params))


finite = st.floats(allow_nan=False, allow_infinity=False)


@given(st.dictionaries(st.integers(0, 10**9),
                       st.dictionaries(names, finite, min_size=1, max_size=4),
                       max_size=4))
def test_contribution_roundtrip(pages):
    table = make_table({"a": 5.5, "b": 1.25}, page_id=3)
    table[4] = {"c": 9.0}
    buf = io.StringIO()
    write_contributions(table, buf)
    again = read_contributions(io.StringIO(buf.getvalue()))
    assert again == {3: {"a": 5.5, "b": 1.25}, 4: {"c": 9.0}}
    buf = io.StringIO()
    write_contributions(pages, buf)
    assert read_contributions(io.StringIO(buf.getvalue())) == pages


@example(["a", "b"])
@given(st.lists(names, min_size=1, max_size=8, unique=True))
def test_selection_roundtrip(authors):
    """A selection is written and read by the contribution codec, and
    round-trips its authors, their contributions and their order."""
    assert (write_selections, read_selections) == (write_contributions,
                                                   read_contributions)
    table = make_table({a: 50.0 - i for i, a in enumerate(authors)})
    sel = select_all(table, SelectionParams(0.0, 2, 0.9))
    buf = io.StringIO()
    write_selections(sel, buf)
    again = read_selections(io.StringIO(buf.getvalue()))
    assert again == sel
    assert list(again[1]) == list(sel[1]) == select_authors(
        table[1], SelectionParams(0.0, 2, 0.9))


def test_selection_is_a_sub_table_of_contributions():
    """On every synth seed 1 page, the selection holds the selected
    authors' contributions, in select_authors order."""
    dump, _ = generate(SynthSpec(seed=1))
    table = build_contributions(
        page for page in parse_dump(io.BytesIO(dump.encode()))
        if page.namespace is Namespace.ARTICLE)
    for params in (SelectionParams(), SelectionParams(0.0, 2, 0.5)):
        selections = select_all(table, params)
        assert list(selections) == sorted(table)
        for page_id, selected in selections.items():
            authors = select_authors(table[page_id], params)
            assert list(selected) == authors
            assert selected == {a: table[page_id][a] for a in authors}
