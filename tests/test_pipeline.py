"""End-to-end checks for the staged pipeline, the CLI, and the corpus
generator: artifact determinism, stale/missing intermediate handling, and
exit codes."""

import dataclasses
import hashlib
import io
import json
import logging
import os
import random
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

import wikiq
from wikiq import networks, pipeline
from wikiq.centrality import ConvergenceError
from wikiq.cli import main
from wikiq.ingest import (AuthorId, AuthorKind, DumpParseError, Namespace,
                          PageHistory, RevisionRecord, parse_dump)
from wikiq.longevity import SelectionParams, build_contributions, select_all
from wikiq.pipeline import (ARTIFACTS, STAGE_TABLE, STAGES, PipelineError,
                            RunConfig, run_all, run_stage)
from wikiq.synth import SynthSpec, generate


def small_spec(seed=1):
    return SynthSpec(
        pages_per_class={"FA": 2, "GA": 3, "C": 4, "Start": 5, "Stub": 6},
        elite_authors=8,
        casual_authors=16,
        noisy_pages=1,
        seed=seed,
    )


@pytest.fixture
def corpus(tmp_path):
    dump, ratings = generate(small_spec())
    (tmp_path / "dump.xml").write_text(dump, encoding="utf-8")
    (tmp_path / "ratings.tsv").write_text(ratings, encoding="utf-8")
    return tmp_path


def make_config(root: Path, workdir="work") -> RunConfig:
    return RunConfig(
        dump=str(root / "dump.xml"),
        ratings=str(root / "ratings.tsv"),
        workdir=str(root / workdir),
    )


def tree_bytes(root: Path) -> dict:
    return {p.name: p.read_bytes() for p in sorted(root.iterdir())}


def artifact_bytes(workdir: Path) -> dict:
    """The bytes of every stage output."""
    return {name: (workdir / name).read_bytes()
            for names in ARTIFACTS.values() for name in names}


class TestSynth:
    def test_same_seed_is_byte_identical(self):
        assert generate(small_spec(7)) == generate(small_spec(7))

    def test_different_seeds_differ(self):
        assert generate(small_spec(1)) != generate(small_spec(2))

    def test_ratings_cover_configured_classes(self):
        _, ratings = generate(small_spec())
        rows = [line.split("\t") for line in ratings.strip().split("\n")[1:]]
        by_class = {}
        for _, _, cls in rows:
            by_class[cls] = by_class.get(cls, 0) + 1
        assert by_class == {"FA": 2, "GA": 3, "C": 4, "Start": 5, "Stub": 6}

    def test_dump_is_parseable_and_has_talk_pages(self, corpus):
        from wikiq.ingest import parse_dump, BotConfig, Namespace
        with open(corpus / "dump.xml", "rb") as fp:
            pages = list(parse_dump(fp, BotConfig()))
        ns = {p.namespace for p in pages}
        assert Namespace.ARTICLE in ns and Namespace.USER_TALK in ns


class TestStages:
    def test_run_all_produces_every_artifact(self, corpus):
        cfg = make_config(corpus)
        run_all(cfg)
        for names in ARTIFACTS.values():
            for name in names:
                assert (Path(cfg.workdir) / name).exists(), name

    def test_report_values_are_valid_ndcg(self, corpus):
        cfg = make_config(corpus)
        run_all(cfg)
        lines = (Path(cfg.workdir) / "report.tsv").read_text().strip().split("\n")
        rows = [line.split("\t") for line in lines[1:]]
        assert {r[0] for r in rows} == {"longevity", "cen_pagerank", "com_pagerank"}
        for _, _, value in rows:
            assert 0.0 <= float(value) <= 1.0

    def test_stage_out_of_order_names_missing_producer(self, corpus):
        cfg = make_config(corpus)
        with pytest.raises(PipelineError, match="run 'select' first"):
            run_stage("score", cfg)

    def test_unknown_stage_rejected(self, corpus):
        with pytest.raises(PipelineError, match="unknown stage"):
            run_stage("polish", make_config(corpus))

    def test_missing_dump_is_a_data_error(self, tmp_path):
        cfg = RunConfig(dump=str(tmp_path / "nope.xml"),
                        ratings=str(tmp_path / "nope.tsv"),
                        workdir=str(tmp_path / "work"))
        with pytest.raises(PipelineError, match="dump not found"):
            run_stage("ingest", cfg)

    def test_stale_intermediate_detected(self, corpus):
        cfg = make_config(corpus)
        run_all(cfg)
        contrib = Path(cfg.workdir) / "contributions.tsv"
        contrib.write_text(contrib.read_text() + "# tampered\n")
        with pytest.raises(PipelineError, match="stale"):
            run_stage("select", cfg)

    def test_unchanged_dump_not_rehashed(self, corpus, monkeypatch):
        cfg = make_config(corpus)
        st = os.stat(cfg.dump)
        os.utime(cfg.dump, ns=(st.st_atime_ns, st.st_mtime_ns - 10**10))
        run_all(cfg)
        manifest = json.loads((Path(cfg.workdir) / "manifest.json").read_text())
        assert manifest["ingest"]["sizes"] == {"dump.xml": st.st_size}
        hashed = []
        real_sha256 = pipeline._sha256
        monkeypatch.setattr(pipeline, "_sha256",
                            lambda path: hashed.append(Path(path).name)
                            or real_sha256(path))
        for stage in ("net", "centrality", "score"):
            run_stage(stage, cfg)
        assert "dump.xml" not in hashed

    def test_deterministic_across_workdirs(self, corpus):
        a = make_config(corpus, "work_a")
        b = make_config(corpus, "work_b")
        run_all(a)
        run_all(b)
        assert artifact_bytes(Path(a.workdir)) == artifact_bytes(Path(b.workdir))

    def test_rerun_is_idempotent(self, corpus):
        cfg = make_config(corpus)
        run_all(cfg)
        first = artifact_bytes(Path(cfg.workdir))
        run_all(cfg)
        assert artifact_bytes(Path(cfg.workdir)) == first

    def test_downstream_rebuild_matches_original(self, corpus):
        cfg = make_config(corpus)
        run_all(cfg)
        first = artifact_bytes(Path(cfg.workdir))
        for name in ARTIFACTS["centrality"] + ARTIFACTS["score"] + ARTIFACTS["eval"]:
            (Path(cfg.workdir) / name).unlink()
        for stage in ("centrality", "score", "eval"):
            run_stage(stage, cfg)
        assert artifact_bytes(Path(cfg.workdir)) == first

    def test_network_variants_run(self, corpus):
        kinds = {"coauthor": "coauthor", "talk-sig": "talk_signature",
                 "talk-hist": "talk_history"}
        for network, kind in kinds.items():
            cfg = dataclasses.replace(
                make_config(corpus, f"work_{network}"), network=network
            )
            run_all(cfg)
            edges = (Path(cfg.workdir) / "edges.tsv").read_text()
            assert f"kind={kind}" in edges.split("\n")[0]

    def test_config_roundtrip(self, corpus):
        cfg = make_config(corpus)
        assert RunConfig.from_json(cfg.to_json()) == cfg

    def test_manifest_records_all_stages(self, corpus):
        cfg = make_config(corpus)
        run_all(cfg)
        manifest = json.loads((Path(cfg.workdir) / "manifest.json").read_text())
        assert set(manifest) == set(STAGES)
        for entry in manifest.values():
            for digest in entry["outputs"].values():
                assert len(digest) == 64
        assert len(manifest["ingest"]["inputs"]["dump.xml"]) == 64
        assert len(manifest["eval"]["inputs"]["ratings.tsv"]) == 64
        assert manifest["select"]["config"]["selection.theta"] == cfg.selection.theta
        assert manifest["eval"]["config"]["network"] == cfg.network

    def test_stale_config_refused_without_writing(self, corpus):
        cfg = make_config(corpus)
        run_all(cfg)
        before = tree_bytes(Path(cfg.workdir))
        changed = dataclasses.replace(
            cfg, selection=SelectionParams(theta=0.5), network="coauthor")
        with pytest.raises(PipelineError, match="selection.theta.*re-run 'select'"):
            run_stage("score", changed)
        assert tree_bytes(Path(cfg.workdir)) == before

    def test_stale_config_names_first_stale_stage(self, corpus):
        cfg = make_config(corpus)
        run_all(cfg)
        changed = dataclasses.replace(cfg, selection=SelectionParams(theta=0.5))
        run_stage("select", changed)
        with pytest.raises(PipelineError, match="re-run 'net'"):
            run_stage("score", changed)
        for stage in ("net", "centrality", "score", "eval"):
            run_stage(stage, changed)

    def test_eval_ranks_each_model_once(self, corpus, monkeypatch):
        cfg = make_config(corpus)
        for stage in STAGES[:-1]:
            run_stage(stage, cfg)
        ranked = []
        real_build_ranking = pipeline.build_ranking
        monkeypatch.setattr(pipeline, "build_ranking",
                            lambda scores, labels: ranked.append(id(scores))
                            or real_build_ranking(scores, labels))
        run_stage("eval", cfg)
        assert len(ranked) == len(set(ranked)) == len(cfg.models)

    def test_undefined_ndcg_row_is_nan(self, tmp_path, caplog):
        dump, ratings = generate(SynthSpec(
            pages_per_class={"GA": 10, "C": 15, "Start": 20, "Stub": 25}))
        (tmp_path / "dump.xml").write_text(dump, encoding="utf-8")
        (tmp_path / "ratings.tsv").write_text(ratings, encoding="utf-8")
        cfg = make_config(tmp_path)
        config = tmp_path / "config.json"
        config.write_text(cfg.to_json())
        assert main(["all", "--config", str(config)]) == 0
        work = Path(cfg.workdir)
        lines = (work / "report.tsv").read_text().strip().split("\n")
        rows = [line.split("\t") for line in lines[1:]]
        models = {model for model, _, _ in rows}
        assert models == {"longevity", "cen_pagerank", "com_pagerank"}
        assert {(m, c) for m, c, v in rows if v == "nan"} == {
            (m, "FA-Stub") for m in models}
        assert (work / "percentiles.tsv").exists()
        assert (work / "pr_curve.tsv").exists()
        assert "FA-Stub" in caplog.text


@pytest.fixture
def stage_calls(monkeypatch):
    """The names of the stages whose code ran, in the order they ran."""
    calls = []
    for spec in STAGE_TABLE:
        def fn(cfg, root, spec=spec):
            calls.append(spec.name)
            spec.fn(cfg, root)
        monkeypatch.setitem(pipeline._BY_NAME, spec.name, spec._replace(fn=fn))
    return calls


def edit_ratings(cfg, work, monkeypatch):
    ratings = Path(cfg.ratings)
    ratings.write_text(ratings.read_text(encoding="utf-8").replace(
        "\tStub\n", "\tStart\n", 1), encoding="utf-8")
    return cfg


def rerun_centrality(cfg, work, monkeypatch):
    cfg = dataclasses.replace(cfg, metric="degree")
    run_stage("centrality", cfg)
    return cfg


def edit_report(cfg, work, monkeypatch):
    with open(work / "report.tsv", "a", encoding="utf-8") as fp:
        fp.write("longevity\tall@k=1\t1.0\n")
    return cfg


def new_program(cfg, work, monkeypatch):
    manifest = json.loads((work / "manifest.json").read_text())
    assert manifest["ingest"]["program"] == pipeline._program()
    assert len(pipeline._program()) == 64
    monkeypatch.setattr(pipeline, "_program", lambda: "0" * 64)
    return cfg


# kind: (the stage run again, an edit after `wikiq all`, the reason logged)
MISMATCHES = {
    "input": ("eval", edit_ratings, "input ratings.tsv changed"),
    "upstream_config": ("score", rerun_centrality, "config key metric changed"),
    "own_config": ("eval", lambda cfg, work, monkeypatch: dataclasses.replace(
        cfg, buckets=5), "config key buckets changed"),
    "edited_output": ("eval", edit_report, "output report.tsv changed"),
    "missing_output": ("eval", lambda cfg, work, monkeypatch: (
        work / "pr_curve.tsv").unlink() or cfg, "output pr_curve.tsv missing"),
    "program": ("ingest", new_program, "program changed"),
}


@pytest.mark.parametrize("kind", MISMATCHES)
def test_stage_runs_unless_its_entry_matches(corpus, monkeypatch, caplog,
                                             stage_calls, kind):
    """A stage is skipped only when its config values, input hashes and
    sizes and the program equal the recorded ones and every output still
    has its recorded hash; a run logs the first part that differed."""
    cfg = make_config(corpus)
    run_all(cfg)
    work = Path(cfg.workdir)
    first = artifact_bytes(work)
    stage, edit, reason = MISMATCHES[kind]
    cfg = edit(cfg, work, monkeypatch)
    stage_calls.clear()
    caplog.clear()
    caplog.set_level(logging.INFO, logger="wikiq.pipeline")
    run_stage(stage, cfg)
    assert stage_calls == [stage]
    assert caplog.messages == [f"stage {stage} ran in {work}: {reason}"]
    if kind in ("edited_output", "missing_output", "program"):
        assert artifact_bytes(work) == first
    caplog.clear()
    run_stage(stage, cfg)
    assert stage_calls == [stage]
    assert caplog.messages == [f"stage {stage} skipped in {work}: up to date"]


def test_second_run_writes_no_file(corpus, caplog, stage_calls):
    """A second `wikiq all` skips every stage: each workdir file keeps its
    bytes, inode and mtime, and the directory gains no temp file. Another
    metric re-runs only centrality, score and eval, and -v says why."""
    config = corpus / "config.json"
    config.write_text(make_config(corpus).to_json())
    assert main(["all", "--config", str(config)]) == 0
    assert stage_calls == list(STAGES)
    work = Path(make_config(corpus).workdir)

    def snapshot():
        files = {p.name: (p.read_bytes(), p.stat().st_mtime_ns, p.stat().st_ino)
                 for p in sorted(work.iterdir())}
        return files, work.stat().st_mtime_ns

    before = snapshot()
    stage_calls.clear()
    caplog.set_level(logging.INFO, logger="wikiq.pipeline")
    assert main(["-v", "all", "--config", str(config)]) == 0
    assert stage_calls == []
    assert snapshot() == before
    assert caplog.messages == [f"stage {stage} skipped in {work}: up to date"
                               for stage in STAGES]
    caplog.clear()
    assert main(["-v", "all", "--config", str(config), "--metric", "degree"]) == 0
    assert stage_calls == ["centrality", "score", "eval"]
    assert caplog.messages == [
        f"stage {stage} skipped in {work}: up to date" for stage in STAGES[:4]
    ] + [
        f"stage centrality ran in {work}: config key metric changed",
        f"stage score ran in {work}: config key metric changed",
        f"stage eval ran in {work}: config key metric changed"]


def test_grid_builds_each_network_once(tmp_path, monkeypatch, stage_calls):
    """The 3 networks x 4 metrics grid in one workdir, after one ingest,
    contrib and select, runs `net` once per network and gives every
    configuration the artifacts of a grid that runs every stage."""
    assert main(["synth", "--seed", "1", "--out", str(tmp_path)]) == 0
    cfg = make_config(tmp_path)
    for stage in ("ingest", "contrib", "select"):
        run_stage(stage, cfg)
    shutil.copytree(tmp_path / "work", tmp_path / "every")
    grids = {}
    for workdir in ("work", "every"):
        if workdir == "every":
            monkeypatch.setattr(pipeline, "_stale_part", lambda *args: "forced")
        stage_calls.clear()
        grids[workdir] = []
        for network in pipeline.NETWORKS:
            for metric in pipeline.METRICS:
                grid_cfg = dataclasses.replace(
                    cfg, workdir=str(tmp_path / workdir), network=network,
                    metric=metric)
                for stage in ("net", "centrality", "score", "eval"):
                    run_stage(stage, grid_cfg)
                grids[workdir].append(artifact_bytes(tmp_path / workdir))
        assert stage_calls.count("net") == (3 if workdir == "work" else 12)
        assert stage_calls.count("eval") == 12
    assert grids["work"] == grids["every"]


def test_moved_corpus_and_workdir_give_identical_bytes(tmp_path, monkeypatch):
    """The same corpus run through `all` with absolute paths from two
    directories of different path lengths leaves byte-identical work
    directories: the manifest records input files by base name, and no
    file records the config's paths."""
    trees = []
    for root in (tmp_path / "a", tmp_path / "a_longer_directory_name"):
        assert main(["synth", "--seed", "1", "--out", str(root)]) == 0
        config = root / "config.json"
        config.write_text(make_config(root).to_json())
        monkeypatch.chdir(root)
        assert main(["all", "--config", str(config)]) == 0
        trees.append(tree_bytes(root / "work"))
    assert {"manifest.json", "provenance.json"} <= trees[0].keys()
    assert trees[0] == trees[1]


def test_new_eval_k_is_recorded_once(corpus, stage_calls):
    """After `wikiq all`, `wikiq all` with other eval cutoffs runs eval
    only, and the work directory records the cutoffs in one place: the
    manifest's eval entry."""
    config = corpus / "config.json"
    config.write_text(make_config(corpus).to_json())
    assert main(["all", "--config", str(config)]) == 0
    config.write_text(dataclasses.replace(make_config(corpus), eval_k=[5]).to_json())
    stage_calls.clear()
    assert main(["all", "--config", str(config)]) == 0
    assert stage_calls == ["eval"]
    work = Path(make_config(corpus).workdir)
    assert [p.name for p in sorted(work.iterdir())
            if b"eval_k" in p.read_bytes()] == ["manifest.json"]
    manifest = json.loads((work / "manifest.json").read_text())
    assert [stage for stage, entry in manifest.items()
            if "eval_k" in entry["config"]] == ["eval"]
    assert manifest["eval"]["config"]["eval_k"] == [5]


def test_articles_only_dump_finishes(tmp_path, caplog):
    """Without user talk pages the talk network is empty: the run still
    writes every score, with a zero centrality model."""
    full, bare = tmp_path / "full", tmp_path / "bare"
    assert main(["synth", "--seed", "1", "--out", str(full)]) == 0
    bare.mkdir()
    dump = (full / "dump.xml").read_text(encoding="utf-8")
    stripped = re.sub(r"  <page>\n    <title>User talk:.*?</page>\n", "", dump,
                      flags=re.S)
    assert "User talk:" in dump and "User talk:" not in stripped
    (bare / "dump.xml").write_text(stripped, encoding="utf-8")
    (bare / "ratings.tsv").write_bytes((full / "ratings.tsv").read_bytes())
    scores = {}
    for root in (full, bare):
        config = root / "config.json"
        config.write_text(make_config(root).to_json())
        assert main(["all", "--config", str(config)]) == 0
        lines = (root / "work" / "scores.tsv").read_text().strip().split("\n")
        scores[root] = [line.split("\t") for line in lines[1:]]
    longevity = {r: [row for row in rows if row[1] == "longevity"]
                 for r, rows in scores.items()}
    assert longevity[bare] == longevity[full] != []
    centrality = [row for row in scores[bare] if row[1] == "cen_pagerank"]
    assert len(centrality) == len(longevity[bare])
    assert all(score == "0.0" for _, _, score in centrality)
    assert "network has no nodes" in caplog.text


def test_talk_artifact_keeps_only_current_tokens(tmp_path):
    """utp.jsonl drops the tokens of every user-talk revision but the last,
    and each network's edges equal those built from the full histories."""
    assert main(["synth", "--seed", "1", "--out", str(tmp_path)]) == 0
    cfg = make_config(tmp_path)
    for stage in ("ingest", "contrib", "select"):
        run_stage(stage, cfg)
    work = Path(cfg.workdir)
    utps = [json.loads(line) for line in
            (work / "utp.jsonl").read_text(encoding="utf-8").splitlines()]
    assert utps and all(rev[4] for page in utps for rev in page["revisions"][-1:])
    assert all(rev[4] == [] for page in utps for rev in page["revisions"][:-1])
    assert sum(len(page["revisions"]) for page in utps) > len(utps)

    with open(cfg.dump, "rb") as fp:
        pages = list(parse_dump(fp, cfg.bot_config()))
    full = [p for p in pages if p.namespace is Namespace.USER_TALK]
    articles = [p for p in pages if p.namespace is Namespace.ARTICLE]
    selections = select_all(build_contributions(articles), cfg.selection)
    authors = {a for selected in selections.values() for a in selected}
    built = {
        "coauthor": networks.build_coauthor(selections.values()),
        "talk-sig": networks.restrict_and_filter(
            networks.build_talk_signature(full), authors),
        "talk-hist": networks.restrict_and_filter(
            networks.build_talk_history(full), authors),
    }
    for network, graph in built.items():
        run_stage("net", dataclasses.replace(cfg, network=network))
        want = io.StringIO()
        networks.write_edge_list(graph, want)
        assert graph.edges
        assert (work / "edges.tsv").read_text(encoding="utf-8") == want.getvalue()


def reference_history_to_json(page: PageHistory) -> str:
    """The JSONL encoder before revisions were stored as edits: every row
    holds its revision's full tokens."""
    return json.dumps({
        "page_id": page.page_id,
        "title": page.title,
        "namespace": page.namespace.value,
        "revisions": [
            [r.rev_ordinal, r.author.name, r.author.kind.value, r.timestamp, r.tokens]
            for r in page.revisions
        ],
    }, sort_keys=True)


def reference_history_from_json(line: str) -> PageHistory:
    d = json.loads(line)
    return PageHistory(
        page_id=d["page_id"],
        title=d["title"],
        namespace=Namespace(d["namespace"]),
        revisions=[
            RevisionRecord(d["page_id"], ordinal, AuthorId(name, AuthorKind(kind)),
                           ts, tokens)
            for ordinal, name, kind, ts, tokens in d["revisions"]
        ],
    )


AUTHORS = (AuthorId("Ann", AuthorKind.REGISTERED),
           AuthorId("10.0.0.1", AuthorKind.ANONYMOUS),
           AuthorId("FixBot", AuthorKind.BOT))


def page_of(*versions: list[str], page_id: int = 7) -> PageHistory:
    """A page whose revisions have the given tokens, authors taking turns."""
    return PageHistory(page_id, "Page", Namespace.ARTICLE, [
        RevisionRecord(page_id, n, AUTHORS[n % len(AUTHORS)], 1000 + n, tokens)
        for n, tokens in enumerate(versions, start=1)])


def kept_runs(prev: list[str], tokens: list[str]) -> tuple[int, int]:
    """The longest head two versions share, then the longest tail they share
    in what the head leaves of the shorter one, token by token."""
    limit = min(len(prev), len(tokens))
    head = 0
    while head < limit and prev[head] == tokens[head]:
        head += 1
    tail = 0
    while tail < limit - head and prev[-1 - tail] == tokens[-1 - tail]:
        tail += 1
    return head, tail


@st.composite
def edit_histories(draw) -> PageHistory:
    """A page of 0-8 revisions, each made from the one before by one edit:
    an insert, a delete, a replacement, no change, or a blanking. A few
    words make edits beside repeated tokens common, and inserts into a
    blanked page regrow it."""
    words = st.lists(st.sampled_from(("a", "b", "[[", "é")), max_size=5)
    versions = [draw(words)] if draw(st.booleans()) else []
    for _ in range(draw(st.integers(0, 7)) if versions else 0):
        tokens = versions[-1]
        i = draw(st.integers(0, len(tokens)))
        j = draw(st.integers(i, len(tokens)))
        edit = draw(st.sampled_from(("insert", "delete", "replace", "same", "blank")))
        versions.append({
            "insert": lambda: tokens[:i] + draw(words) + tokens[i:],
            "delete": lambda: tokens[:i] + tokens[j:],
            "replace": lambda: tokens[:i] + draw(words) + tokens[j:],
            "same": lambda: list(tokens),
            "blank": lambda: [],
        }[edit]())
    return page_of(*versions)


@settings(max_examples=300, deadline=None)
@given(edit_histories())
@example(page_of(["a", "a"], ["a"], ["a", "a"]))
@example(page_of(["a", "b", "a"], ["a", "a"], [], ["a"], ["a"], ["b"]))
@example(page_of())
@example(page_of(["a"]))
def test_history_codec_matches_reference(page):
    """Each row keeps the longest head and tail it shares with the row
    before; a row that shares nothing has the reference's bytes, and every
    page decodes to the history it was made from."""
    line = pipeline._history_to_json(page)
    assert pipeline._history_from_json(line) == page
    reference = reference_history_to_json(page)
    rows = json.loads(line)["revisions"]
    prev = []
    for row, want, rev in zip(rows, json.loads(reference)["revisions"],
                              page.revisions, strict=True):
        head, tail = kept = kept_runs(prev, rev.tokens)
        assert tuple(row[5:]) == (kept if head or tail else ())
        assert row[4] == rev.tokens[head:len(rev.tokens) - tail]
        if not head and not tail:
            assert json.dumps(row) == json.dumps(want)
        prev = rev.tokens
    if all(len(row) == 5 for row in rows):
        assert line == reference


@settings(max_examples=100, deadline=None)
@given(edit_histories())
def test_reference_format_still_decodes(page):
    """A line of the full-token format decodes to the same history."""
    assert pipeline._history_from_json(reference_history_to_json(page)) == page


def test_synth_artifacts_match_reference_codec(tmp_path):
    """On synth seed 1, utp.jsonl has the reference encoder's bytes, and
    every articles.jsonl page decodes to the reference's history."""
    assert main(["synth", "--seed", "1", "--out", str(tmp_path)]) == 0
    cfg = make_config(tmp_path)
    run_stage("ingest", cfg)
    with open(cfg.dump, "rb") as fp:
        pages = list(parse_dump(fp, cfg.bot_config()))
    work = Path(cfg.workdir)
    utps = [p for p in pages if p.namespace is Namespace.USER_TALK]
    for page in utps:
        for rev in page.revisions[:-1]:
            rev.tokens = []
    lines = (work / "utp.jsonl").read_text(encoding="utf-8").splitlines()
    assert lines == [reference_history_to_json(page) for page in utps]
    articles = [p for p in pages if p.namespace is Namespace.ARTICLE]
    lines = (work / "articles.jsonl").read_text(encoding="utf-8").splitlines()
    assert [pipeline._history_from_json(line) for line in lines] == [
        reference_history_from_json(reference_history_to_json(page))
        for page in articles]
    assert sum(len(line) for line in lines) * 4 < sum(
        len(reference_history_to_json(page)) for page in articles)


def test_full_token_work_directory_feeds_contrib(corpus, monkeypatch):
    """A work directory ingested in the full-token format, whose manifest
    records that file's hash, runs contrib without a re-ingest, and gives
    the contributions of a fresh run."""
    fresh = make_config(corpus, "fresh")
    run_stage("ingest", fresh)
    run_stage("contrib", fresh)
    old = make_config(corpus, "old")
    with monkeypatch.context() as patch:
        patch.setattr(pipeline, "_history_to_json", reference_history_to_json)
        run_stage("ingest", old)
    fresh_dir, old_dir = Path(fresh.workdir), Path(old.workdir)
    assert ((old_dir / "articles.jsonl").read_bytes()
            != (fresh_dir / "articles.jsonl").read_bytes())
    run_stage("contrib", old)
    assert ((old_dir / "contributions.tsv").read_bytes()
            == (fresh_dir / "contributions.tsv").read_bytes())


@pytest.mark.parametrize("kept, match", [
    ((-1, 0), "head -1 and tail 0"),
    ((0, -1), "head 0 and tail -1"),
    ((2, 2), "head 2 and tail 2 of the previous revision's 3 tokens"),
    ((True, 0), "head True"),
    ((2,), "6 fields"),
    ((1, 1, 0), "8 fields"),
])
def test_impossible_row_is_refused(kept, match):
    line = json.dumps({"page_id": 42, "title": "T", "namespace": "article",
                       "revisions": [[1, "Ann", "registered", 1, ["a", "b", "c"]],
                                     [2, "Bob", "registered", 2, ["x"], *kept]]})
    with pytest.raises(ValueError, match=r"^page 42: .*" + re.escape(match)):
        pipeline._history_from_json(line)


def test_decoded_history_costs_memory_per_edit():
    """A page of 300 revisions of ~2,000 tokens, each gaining one word, is
    a 33 KB line, and decoding it peaks at 4.9 MB: each kept token is the
    previous revision's own object. Full tokens made it a 5.3 MB line
    whose decoding peaked at 36 MB."""
    import tracemalloc

    rng = random.Random(11)
    versions = [[f"w{rng.randrange(5000)}" for _ in range(1850)]]
    for _ in range(299):
        tokens = list(versions[-1])
        tokens.insert(rng.randrange(1, len(tokens) + 1), f"w{rng.randrange(5000)}")
        versions.append(tokens)
    page = page_of(*versions)
    line = pipeline._history_to_json(page)
    assert len(line.encode()) < 100_000
    tracemalloc.start()
    try:
        decoded = pipeline._history_from_json(line)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 10 * 1024 * 1024, peak
    assert decoded == page
    revisions = decoded.revisions
    assert all(after.tokens[0] is before.tokens[0]
               for before, after in zip(revisions, revisions[1:]))


def split_pages(dump: str) -> tuple[str, list[str], str]:
    """A synth dump's text before its first page, its <page> elements, each
    with its indent and newline, and the text after the last page."""
    pages = re.findall(r"  <page>\n.*?</page>\n", dump, flags=re.S)
    head = dump[:dump.index(pages[0])]
    tail = dump[dump.rindex("</page>\n") + len("</page>\n"):]
    assert head + "".join(pages) + tail == dump
    return head, pages, tail


def page_id(page: str) -> int:
    return int(re.search(r"<id>(\d+)</id>", page).group(1))


def test_out_of_order_dump_gives_sorted_artifacts(tmp_path):
    """Ingest writes the artifacts of a dump whose pages are out of page_id
    order as those of the same dump sorted by page id: pages that share an
    id keep their dump order."""
    dump, _ratings = generate(SynthSpec(seed=1))
    head, pages, tail = split_pages(dump)
    articles = [i for i, page in enumerate(pages) if "<ns>0</ns>" in page]
    shared, other = articles[3], articles[30]
    pages[other] = pages[other].replace(f"<id>{page_id(pages[other])}</id>",
                                        f"<id>{page_id(pages[shared])}</id>", 1)
    random.Random(7).shuffle(pages)
    files = {}
    for name, order in (("shuffled", pages), ("sorted", sorted(pages, key=page_id))):
        root = tmp_path / name
        root.mkdir()
        (root / "dump.xml").write_text(head + "".join(order) + tail,
                                       encoding="utf-8")
        run_stage("ingest", make_config(root))
        files[name] = tree_bytes(root / "work")
        assert sorted(files[name]) == ["articles.jsonl", "manifest.json",
                                       "utp.jsonl"]
    for name in ("articles.jsonl", "utp.jsonl"):
        assert files["shuffled"][name] == files["sorted"][name]
        in_dump = [page_id(page) for page in pages
                   if ("<ns>0</ns>" in page) == (name == "articles.jsonl")]
        assert in_dump != sorted(in_dump)
        lines = files["sorted"][name].decode().splitlines()
        assert [json.loads(line)["page_id"] for line in lines] == sorted(in_dump)


def test_pages_in_other_namespaces_change_no_artifact(tmp_path):
    """Talk: and Wikipedia: copies of an article and of a user talk page
    added to the dump move no artifact; the manifest differs only in the
    hash and size of the dump ingest read."""
    dump, ratings = generate(SynthSpec(seed=1))
    head, pages, tail = split_pages(dump)
    article = next(page for page in pages if "<ns>0</ns>" in page)
    user_talk = next(page for page in pages if "<ns>3</ns>" in page)
    next_id = max(map(page_id, pages)) + 1
    copies = []
    for page in (article, user_talk):
        for prefix, ns in (("Talk:", 1), ("Wikipedia:", 4)):
            copy = re.sub(r"<ns>\d+</ns>", f"<ns>{ns}</ns>", page, count=1)
            copy = copy.replace("<title>", f"<title>{prefix}", 1)
            copies.append(copy.replace(f"<id>{page_id(page)}</id>",
                                       f"<id>{next_id}</id>", 1))
            next_id += 1
    more = pages[:5] + copies[:2] + pages[5:] + copies[2:]
    (tmp_path / "ratings.tsv").write_text(ratings, encoding="utf-8")
    files = []
    for order in (pages, more):
        (tmp_path / "dump.xml").write_text(head + "".join(order) + tail,
                                           encoding="utf-8")
        shutil.rmtree(tmp_path / "work", ignore_errors=True)
        run_all(make_config(tmp_path))
        files.append(tree_bytes(tmp_path / "work"))
    base, other = files
    assert base.keys() == other.keys()
    for name in base.keys() - {"manifest.json"}:
        assert base[name] == other[name], name
    manifests = [json.loads(f["manifest.json"]) for f in files]
    for manifest in manifests:
        assert manifest["ingest"]["inputs"].pop("dump.xml")
        assert manifest["ingest"]["sizes"].pop("dump.xml")
    assert manifests[0] == manifests[1]
    assert base["manifest.json"] != other["manifest.json"]


def test_failed_ingest_writes_nothing(corpus, capsys):
    """A dump that turns malformed after some pages have been written fails
    ingest with one line, and leaves the work directory as it was."""
    dump_path = corpus / "dump.xml"
    dump = dump_path.read_text(encoding="utf-8")
    head, pages, tail = split_pages(dump)
    broken = head + "".join(pages[:20]) + "  <page>\n    <title>X</titel>\n" + tail
    parsed = parse_dump(io.BytesIO(broken.encode()))
    for _ in range(10):  # ingest writes these before the error
        next(parsed)
    with pytest.raises(DumpParseError):
        list(parsed)
    config = corpus / "config.json"
    config.write_text(make_config(corpus).to_json())
    work = Path(make_config(corpus).workdir)

    def failing_ingest():
        dump_path.write_text(broken, encoding="utf-8")
        capsys.readouterr()
        assert main(["ingest", "--config", str(config)]) == 2
        err = capsys.readouterr().err.strip().split("\n")
        assert len(err) == 1 and err[0].startswith("wikiq: error: malformed XML")

    failing_ingest()
    assert tree_bytes(work) == {}  # no artifact, temp file or manifest
    dump_path.write_text(dump, encoding="utf-8")
    assert main(["ingest", "--config", str(config)]) == 0
    before = tree_bytes(work)
    failing_ingest()
    assert tree_bytes(work) == before


def test_ingest_and_contrib_memory_does_not_grow_with_page_count(tmp_path):
    """Ingest and contrib hold one page at a time. Over 1,000 tiny pages
    the tracemalloc peak of each stage is 1.9 MB, about 1 MB of which is
    the hash's read buffer; holding every page, as both stages once did,
    peaks at 6.6 MB (ingest) and 7.1 MB (contrib)."""
    import tracemalloc

    revision = ("<revision><timestamp>2011-01-01T00:0{}:00Z</timestamp>"
                "<contributor><username>{}</username></contributor>"
                "<text>{}</text></revision>")
    (tmp_path / "dump.xml").write_text("<mediawiki>\n" + "".join(
        f"<page><title>P{i}</title><ns>0</ns><id>{i}</id>" + "".join(
            revision.format(m, author, f"p{i} some words here " * (8 * m + 8))
            for m, author in enumerate(("Ann", "Bob")))
        + "</page>\n" for i in range(1000)) + "</mediawiki>\n")
    cfg = make_config(tmp_path)
    peaks = []
    tracemalloc.start()
    try:
        for stage in ("ingest", "contrib"):
            tracemalloc.reset_peak()
            run_stage(stage, cfg)
            peaks.append(tracemalloc.get_traced_memory()[1])
    finally:
        tracemalloc.stop()
    lines = (tmp_path / "work" / "contributions.tsv").read_text().splitlines()
    assert len(lines) == 1 + 1000  # Bob's last revision has no judge
    assert max(peaks) < 4 * 1024 * 1024, peaks


def test_synth_bots_in_no_network(tmp_path):
    """The talk pages' bots leave the talk networks through the restriction
    to selected authors, who come from bot-free contributions."""
    dump, ratings = generate(SynthSpec(seed=1))
    (tmp_path / "dump.xml").write_text(dump, encoding="utf-8")
    (tmp_path / "ratings.tsv").write_text(ratings, encoding="utf-8")
    cfg = make_config(tmp_path)
    bots = {"CleanupBot", "ArchiveBot"}
    utps = [p for p in parse_dump(io.BytesIO(dump.encode()), cfg.bot_config())
            if p.namespace is Namespace.USER_TALK]
    assert bots <= networks.build_talk_history(utps).nodes
    run_all(cfg)
    for network in ("coauthor", "talk-sig", "talk-hist"):
        run_stage("net", dataclasses.replace(cfg, network=network))
        edges = (tmp_path / "work" / "edges.tsv").read_text(encoding="utf-8")
        assert not any(bot in edges for bot in bots), network


def test_label_set_without_relevant_pages_finishes(tmp_path, caplog):
    """With no FA/A/GA page the PR curve is undefined: eval warns per model,
    writes only the PR header, and still records itself in the manifest."""
    dump, ratings = generate(SynthSpec(
        seed=1, pages_per_class={"C": 10, "Start": 10, "Stub": 10}))
    (tmp_path / "dump.xml").write_text(dump, encoding="utf-8")
    (tmp_path / "ratings.tsv").write_text(ratings, encoding="utf-8")
    config = tmp_path / "config.json"
    config.write_text(make_config(tmp_path).to_json())
    assert main(["all", "--config", str(config)]) == 0
    work = tmp_path / "work"
    assert (work / "pr_curve.tsv").read_text() == "model\tcutoff\trecall\tprecision\n"
    assert "eval" in json.loads((work / "manifest.json").read_text())
    assert caplog.text.count("PR curve undefined for model") == 3


def test_stage_table_is_a_closed_graph():
    """Every input has one producer earlier in the table, and every config
    field but workdir is some stage's config key or names an outside file
    a stage reads, never both, so a field cannot escape the manifest's
    staleness check."""
    for i, stage in enumerate(STAGE_TABLE):
        for name in stage.inputs:
            producers = [j for j, s in enumerate(STAGE_TABLE) if name in s.outputs]
            assert len(producers) == 1 and producers[0] < i, (stage.name, name)
    keys = {k for s in STAGE_TABLE for k in s.config_keys}
    files = {k for s in STAGE_TABLE for k in s.files}
    fields = {f.name for f in dataclasses.fields(RunConfig)}
    assert keys | files == fields - {"workdir"}
    assert not keys & files


class TestCli:
    def write_config(self, corpus, name="config.json", **overrides):
        cfg = dataclasses.replace(make_config(corpus), **overrides)
        path = corpus / name
        path.write_text(cfg.to_json())
        return path

    def test_full_run_exits_zero(self, corpus):
        config = self.write_config(corpus)
        assert main(["all", "--config", str(config)]) == 0
        assert (Path(make_config(corpus).workdir) / "report.tsv").exists()

    def test_usage_error_exit_code(self, capsys):
        with pytest.raises(SystemExit) as info:
            main(["centrality", "--metric", "closeness", "--config", "x"])
        assert info.value.code == 1

    def test_missing_subcommand_exit_code(self):
        with pytest.raises(SystemExit) as info:
            main([])
        assert info.value.code == 1

    def test_data_error_exit_code(self, tmp_path, capsys):
        cfg = RunConfig(dump=str(tmp_path / "nope.xml"),
                        ratings=str(tmp_path / "nope.tsv"),
                        workdir=str(tmp_path / "work"))
        config = tmp_path / "config.json"
        config.write_text(cfg.to_json())
        assert main(["ingest", "--config", str(config)]) == 2
        assert "error" in capsys.readouterr().err

    def test_stale_config_exit_code(self, corpus, capsys):
        config = self.write_config(corpus)
        assert main(["all", "--config", str(config)]) == 0
        capsys.readouterr()
        changed = self.write_config(corpus, "changed.json", network="coauthor",
                                    selection=SelectionParams(theta=0.5))
        assert main(["score", "--config", str(changed)]) == 2
        err = capsys.readouterr().err.strip().split("\n")
        assert len(err) == 1 and err[0].startswith("wikiq: error: ")
        assert "'select'" in err[0]

    def test_convergence_error_exit_code(self, corpus, capsys, monkeypatch):
        config = self.write_config(corpus)
        for stage in ("ingest", "contrib", "select", "net"):
            assert main([stage, "--config", str(config)]) == 0

        def diverge(graph, **kwargs):
            raise ConvergenceError("pagerank", 100, 0.5)

        monkeypatch.setattr("wikiq.centrality.pagerank", diverge)
        capsys.readouterr()
        assert main(["centrality", "--config", str(config)]) == 2
        err = capsys.readouterr().err.strip().split("\n")
        assert err == ["wikiq: error: pagerank did not converge in 100 "
                       "iterations (residual 5.000e-01)"]

    def test_out_of_order_stage_exit_code(self, corpus, capsys):
        config = self.write_config(corpus)
        assert main(["eval", "--config", str(config)]) == 2
        assert "run" in capsys.readouterr().err

    def test_workdir_override(self, corpus):
        config = self.write_config(corpus)
        override = corpus / "elsewhere"
        assert main(["all", "--config", str(config),
                     "--workdir", str(override)]) == 0
        assert (override / "report.tsv").exists()

    def test_model_restriction(self, corpus):
        config = self.write_config(corpus)
        assert main(["all", "--config", str(config),
                     "--model", "longevity"]) == 0
        report = (Path(make_config(corpus).workdir) / "report.tsv").read_text()
        models = {line.split("\t")[0] for line in report.strip().split("\n")[1:]}
        assert models == {"longevity"}

    @pytest.mark.parametrize("edit, named", [
        ({"netwrok": "coauthor"}, "'netwrok'"),
        ({"selection": {"thetaa": 0.5}}, "'selection.thetaa'"),
        ({"selection": 0.5}, "selection"),
        ({"models": ["longevity", "combinde"]}, "'combinde'"),
        ({"models": []}, "'models'"),
        ({"metric": "pagernk"}, "'pagernk'"),
        ({"damping": "0.85"}, "'damping'"),
        ({"exclude_bots": 1}, "'exclude_bots'"),
        ({"eval_k": [10, True]}, "'eval_k'"),
        ({"eval_k": [-1, 0, 5]}, "'eval_k': -1"),
        ({"buckets": 1}, "'buckets': 1"),
    ])
    def test_bad_config_refused_before_any_stage(self, corpus, capsys, edit, named):
        data = json.loads(make_config(corpus).to_json())
        data.update(edit)
        config = corpus / "config.json"
        config.write_text(json.dumps(data))
        assert main(["all", "--config", str(config)]) == 2
        err = capsys.readouterr().err.strip().split("\n")
        assert len(err) == 1 and err[0].startswith("wikiq: error: config")
        assert named in err[0]
        assert not Path(make_config(corpus).workdir).exists()

    def test_override_checked_like_the_file(self):
        with pytest.raises(ValueError, match="'closeness'"):
            dataclasses.replace(RunConfig(), metric="closeness")

    def test_synth_subcommand_writes_corpus(self, tmp_path, capsys):
        out = tmp_path / "corpus"
        assert main(["synth", "--seed", "5", "--out", str(out)]) == 0
        assert (out / "dump.xml").exists() and (out / "ratings.tsv").exists()

    def test_synth_subcommand_is_deterministic(self, tmp_path, capsys):
        a, b = tmp_path / "a", tmp_path / "b"
        assert main(["synth", "--seed", "5", "--out", str(a)]) == 0
        assert main(["synth", "--seed", "5", "--out", str(b)]) == 0
        assert (a / "dump.xml").read_bytes() == (b / "dump.xml").read_bytes()
        assert (a / "ratings.tsv").read_bytes() == (b / "ratings.tsv").read_bytes()

    @pytest.mark.parametrize("spec, named", [
        ({"pages_per_clas": {"FA": 1}}, "'pages_per_clas'"),
        ([1], "not a JSON object"),
        ({"pages_per_class": {"FA": "1"}}, "'pages_per_class'"),
        ({"pages_per_class": {"Foo": 1}}, "'Foo'"),
    ])
    def test_bad_synth_spec_exit_code(self, tmp_path, capsys, spec, named):
        (tmp_path / "spec.json").write_text(json.dumps(spec))
        out = tmp_path / "corpus"
        assert main(["synth", "--spec", str(tmp_path / "spec.json"),
                     "--out", str(out)]) == 2
        err = capsys.readouterr().err.strip().split("\n")
        assert len(err) == 1 and err[0].startswith("wikiq: error: config")
        assert named in err[0]
        assert not out.exists()

    def test_synth_spec_seed_overridden(self, tmp_path, capsys):
        classes = {"FA": 1, "Stub": 2}
        (tmp_path / "spec.json").write_text(json.dumps(
            {"pages_per_class": classes, "seed": 9}))
        assert main(["synth", "--spec", str(tmp_path / "spec.json"),
                     "--seed", "3", "--out", str(tmp_path)]) == 0
        dump, ratings = generate(SynthSpec(pages_per_class=classes, seed=3))
        assert (tmp_path / "dump.xml").read_text(encoding="utf-8") == dump
        assert (tmp_path / "ratings.tsv").read_text(encoding="utf-8") == ratings

    def test_dump_edited_after_ingest_exit_code(self, corpus, capsys):
        config = self.write_config(corpus)
        assert main(["all", "--config", str(config)]) == 0
        dump = corpus / "dump.xml"
        dump.write_text(dump.read_text().replace("<text>", "<text>extra words ", 1))
        for stage in ("contrib", "eval"):
            capsys.readouterr()
            assert main([stage, "--config", str(config)]) == 2
            err = capsys.readouterr().err.strip().split("\n")
            assert len(err) == 1 and "changed since 'ingest'" in err[0]

    @pytest.mark.parametrize("char, escaped", [("&#9;", "\\t"), ("&#10;", "\\n")])
    def test_control_character_in_username(self, tmp_path, char, escaped):
        assert main(["synth", "--seed", "1", "--out", str(tmp_path)]) == 0
        dump = tmp_path / "dump.xml"
        text = dump.read_text(encoding="utf-8")
        assert "<username>Editor07</username>" in text
        dump.write_text(text.replace("<username>Editor07</username>",
                                     f"<username>Editor{char}07</username>"),
                        encoding="utf-8")
        config = self.write_config(tmp_path)
        assert main(["all", "--config", str(config)]) == 0
        work = Path(make_config(tmp_path).workdir)
        assert f"\tEditor{escaped}07\t" in (
            work / "contributions.tsv").read_text(encoding="utf-8")

    def test_malformed_artifact_row_exit_code(self, corpus, capsys):
        config = self.write_config(corpus)
        assert main(["all", "--config", str(config)]) == 0
        work = Path(make_config(corpus).workdir)
        selection = work / "selection.tsv"
        lines = selection.read_text(encoding="utf-8").split("\n")
        lines[2] += "\textra"
        selection.write_text("\n".join(lines), encoding="utf-8")
        # record the edit, so that the stale-artifact check passes it
        manifest = json.loads((work / "manifest.json").read_text())
        manifest["select"]["outputs"]["selection.tsv"] = hashlib.sha256(
            selection.read_bytes()).hexdigest()
        (work / "manifest.json").write_text(json.dumps(manifest))
        capsys.readouterr()
        assert main(["score", "--config", str(config)]) == 2
        err = capsys.readouterr().err.strip().split("\n")
        assert len(err) == 1 and err[0].startswith("wikiq: error: ")
        assert "selection.tsv: line 3: expected 3 fields" in err[0]

    def test_impossible_history_row_exit_code(self, corpus, capsys):
        config = self.write_config(corpus)
        assert main(["ingest", "--config", str(config)]) == 0
        work = Path(make_config(corpus).workdir)
        articles = work / "articles.jsonl"
        lines = articles.read_text(encoding="utf-8").splitlines()
        page = json.loads(lines[1])
        first, second = page["revisions"][:2]
        second[4:] = [[], len(first[4]), 1]
        lines[1] = json.dumps(page, sort_keys=True)
        articles.write_text("\n".join(lines) + "\n", encoding="utf-8")
        manifest = json.loads((work / "manifest.json").read_text())
        manifest["ingest"]["outputs"]["articles.jsonl"] = hashlib.sha256(
            articles.read_bytes()).hexdigest()
        (work / "manifest.json").write_text(json.dumps(manifest))
        capsys.readouterr()
        assert main(["contrib", "--config", str(config)]) == 2
        err = capsys.readouterr().err.strip().split("\n")
        assert len(err) == 1 and err[0].startswith(
            f"wikiq: error: articles.jsonl: line 2: page {page['page_id']}: "
            f"revision {second[0]} keeps head {len(first[4])} and tail 1")
        assert not (work / "contributions.tsv").exists()

    def test_ratings_title_with_backslash(self, corpus):
        ratings = corpus / "ratings.tsv"
        lines = ratings.read_text(encoding="utf-8").split("\n")
        page_id, _title, cls = lines[1].split("\t")
        lines[1] = "\t".join((page_id, "AC\\DC", cls))
        ratings.write_text("\n".join(lines), encoding="utf-8")
        config = self.write_config(corpus)
        assert main(["all", "--config", str(config)]) == 0

    def test_touched_dump_still_runs(self, corpus):
        config = self.write_config(corpus)
        assert main(["all", "--config", str(config)]) == 0
        os.utime(corpus / "dump.xml")
        assert main(["contrib", "--config", str(config)]) == 0

    def test_python_m_wikiq(self):
        env = dict(os.environ,
                   PYTHONPATH=str(Path(wikiq.__file__).resolve().parents[1]))
        result = subprocess.run([sys.executable, "-m", "wikiq", "--help"],
                                capture_output=True, text=True, env=env,
                                timeout=60)
        assert result.returncode == 0
        assert result.stdout.startswith("usage: wikiq")

    def test_diff_subcommand(self, tmp_path, capsys):
        (tmp_path / "a.txt").write_text("the quick brown fox")
        (tmp_path / "b.txt").write_text("the brown fox jumps")
        assert main(["diff", str(tmp_path / "a.txt"),
                     str(tmp_path / "b.txt"), "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["inserted"] == 1 and payload["deleted"] == 1
