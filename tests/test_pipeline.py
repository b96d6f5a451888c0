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
from driveby import PASSERBY, drive_by
from forgery import forge_talk_page
from wikiq import networks, pipeline
from wikiq.centrality import ConvergenceError
from wikiq.cli import main
from wikiq.evaluation import build_ranking
from wikiq.ingest import (AuthorId, AuthorKind, DumpParseError, Namespace,
                          PageHistory, RevisionRecord, load_ratings, parse_dump)
from wikiq.longevity import SelectionParams, build_contributions, select_all
from wikiq.pipeline import (ARTIFACTS, STAGE_TABLE, STAGES, PipelineError,
                            RunConfig, run_all, run_stage)
from wikiq.quality import read_scores
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


def _sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


@pytest.fixture(scope="module")
def seed_1_run(tmp_path_factory):
    """The root of `synth --seed 1`'s corpus, after `run_all` in its `work`."""
    root = tmp_path_factory.mktemp("seed_1")
    dump, ratings = generate(SynthSpec(seed=1))
    (root / "dump.xml").write_text(dump, encoding="utf-8", newline="\n")
    (root / "ratings.tsv").write_text(ratings, encoding="utf-8", newline="\n")
    run_all(make_config(root))
    return root


@pytest.fixture(scope="module")
def seed_1_min_authors_3_run(tmp_path_factory):
    """The root of `synth --seed 1`'s corpus, after `run_all` in its `work`
    with `selection.min_authors` = 3: the regime in which the floor, not
    the positive-contribution rule, decides a page's selected authors, and
    the talk nets' restriction drops authors (ROADMAP item 24)."""
    root = tmp_path_factory.mktemp("seed_1_min_authors_3")
    dump, ratings = generate(SynthSpec(seed=1))
    (root / "dump.xml").write_text(dump, encoding="utf-8", newline="\n")
    (root / "ratings.tsv").write_text(ratings, encoding="utf-8", newline="\n")
    run_all(min_authors_3_config(root))
    return root


def min_authors_3_config(root: Path) -> RunConfig:
    return dataclasses.replace(make_config(root), selection=SelectionParams(min_authors=3))


def test_interpreter_is_in_the_declared_range():
    """The pinned bytes hold only where `requires-python` says: from Python
    3.12 `sum()` of floats is compensated, which moves the bits of every
    score that a sum builds (ROADMAP item 17)."""
    text = (Path(__file__).parents[1] / "pyproject.toml").read_text()
    spec = re.search(r'^requires-python = "([^"]*)"$', text, re.M).group(1)
    bounds = [re.fullmatch(r"(>=|<)(\d+)\.(\d+)", clause.strip()).groups()
              for clause in spec.split(",")]
    running = sys.version_info[:2]
    assert all((running >= (int(major), int(minor))) == (op == ">=")
               for op, major, minor in bounds), (
        f"Python {running[0]}.{running[1]} is outside requires-python {spec!r}: "
        "its float sums give other artifact bytes (ROADMAP item 17)")


def artifact_bytes(workdir: Path) -> dict:
    """The bytes of every stage output."""
    return {name: (workdir / name).read_bytes()
            for names in ARTIFACTS.values() for name in names}


class TestSynth:
    def test_same_seed_is_byte_identical(self):
        assert generate(small_spec(7)) == generate(small_spec(7))

    @pytest.mark.parametrize("seed, dump_sha", [
        (1, "973fbaff702b2187ec5a016ed21498a736401c3ab1c1674109181a22cbf06b86"),
        (2, "8ebdd311b0429d37146875134a6c46a5b2479839ac5a5f76dd3a736cfc9c3acf"),
        (3, "c4ee97033277be37d4f6bbbd4aba0951a8132493fc9abf2d8f1f0982412f74e4"),
    ])
    def test_default_spec_bytes_are_pinned(self, seed, dump_sha):
        """Each side of a benchmark pair builds its corpora from `generate`,
        so a change to synth or to `serialize_dump` that moved these bytes
        would have the two sides measure different inputs."""
        dump, ratings = generate(SynthSpec(seed=seed))
        assert hashlib.sha256(dump.encode()).hexdigest() == dump_sha
        assert hashlib.sha256(ratings.encode()).hexdigest() == (
            "cb6db9932379846df83ff81a168dc901b77168b1e062a290ba042c79d0e7fbc7")

    def test_seed_1_contributions_are_pinned(self, seed_1_run):
        """Every artifact of `synth --seed 1`: the contribution table holds
        every word diff's distance and every judge's verdict, and the later
        artifacts every centrality, score and report value, so a faster
        kernel that moved one bit of any of them fails here."""
        work = Path(make_config(seed_1_run).workdir)
        contributions = "bfe7cdcaf5fdb1150a016db616be6e85f4469a5da88f0c4a4f2447c2d127bc18"
        assert {name: _sha256(work / name) for names in ARTIFACTS.values()
                for name in names} == {
            "articles.jsonl": "ada1bca551914cdb1290746977f036c203d93d5123260f395551225afc291a96",
            "utp.jsonl": "0fb1a41c77801a7d1ad15342a85f892075150657879049c82af7894055bb2b3b",
            "contributions.tsv": contributions,
            "selection.tsv": contributions,
            "edges.tsv": "e17ca9998230fd937168dc064829bc3251be5610e06773c2613f788f898c8315",
            "centrality.tsv": "3fdb73c539db14f5d90f4e219064146f3702391f74f31639bccbff8a099675b0",
            "scores.tsv": "cc77ec30864bc441f1f1eb5301c7a7d824569c3e1d8fca215d08be216863f4ff",
            "provenance.json": "9c23e8051b0e95e49206ceddfcb35359dab7750a796628b3f1163752efa47c09",
            "report.tsv": "2a72bb7f546440e8fbc3bdc13c787e8caa4cd2f7556be5a4f59eb0658be4a0a4",
            "percentiles.tsv": "860e096f55e9f6258875df5508e9a729664ebe4c2511f352b0d099b5d5054008",
            "pr_curve.tsv": "c67914e93e1e11dbfe55e889cb971f995eebebd5ee6af80cea254cdc399cb49c",
        }

    def test_seed_1_grid_is_pinned(self, seed_1_run, tmp_path):
        """The paper's grid on `synth --seed 1`: every network x metric cell's
        artifacts from `net` on, hashed one line a cell and artifact."""
        work = tmp_path / "work"
        shutil.copytree(make_config(seed_1_run).workdir, work)
        lines = []
        for network in pipeline.NETWORKS:
            for metric in pipeline.METRICS:
                cfg = dataclasses.replace(make_config(seed_1_run), workdir=str(work),
                                          network=network, metric=metric)
                for stage in ("net", "centrality", "score", "eval"):
                    run_stage(stage, cfg)
                lines += [f"{network}\t{metric}\t{name}\t{_sha256(work / name)}\n"
                          for name in ("edges.tsv", "centrality.tsv", "scores.tsv",
                                       "provenance.json", "report.tsv",
                                       "percentiles.tsv", "pr_curve.tsv")]
        assert hashlib.sha256("".join(lines).encode()).hexdigest() == (
            "42b88d894ce06b0c710cc1958128cab583e3af877d560e7c1906f56bec4ce52f")

    def test_seed_1_min_authors_3_contributions_are_pinned(self, seed_1_min_authors_3_run):
        """Every artifact of `synth --seed 1` under `selection.min_authors` =
        3. Ingest and contrib read as in the default regime; the selection
        is a strict sub-table of the contributions."""
        work = Path(min_authors_3_config(seed_1_min_authors_3_run).workdir)
        assert {name: _sha256(work / name) for names in ARTIFACTS.values()
                for name in names} == {
            "articles.jsonl": "ada1bca551914cdb1290746977f036c203d93d5123260f395551225afc291a96",
            "utp.jsonl": "0fb1a41c77801a7d1ad15342a85f892075150657879049c82af7894055bb2b3b",
            "contributions.tsv": "bfe7cdcaf5fdb1150a016db616be6e85f4469a5da88f0c4a4f2447c2d127bc18",
            "selection.tsv": "8b1e31232f0c1995a2b4e3e52dd1e8a0baa6fd1f6799479862687dd694e8c304",
            "edges.tsv": "c12da9babf805857f1df3d28eb8fcc54cba761d6a51356e74413ac0749ec50b8",
            "centrality.tsv": "7eaac85c151c3cbba9136aee473af48915cc1452c9afeefe50e60baca6f81875",
            "scores.tsv": "ba6866d920ad0662147fb9f366a3eb514d330ef74e21006635aa0cfe0ef9a66d",
            "provenance.json": "2b7d185409cb4d3f904c2b1005482b3237cd47f1631551312b1ea9a2f5ce654e",
            "report.tsv": "eb029730236fe5d03eda9a6f231224fe94dcf053412b8218483b60be38b7db4a",
            "percentiles.tsv": "c2d3ef916a195cbfa5d87415a9d753714b2e27364c00541fe6e7b510bdeb1bb3",
            "pr_curve.tsv": "0bc73a637a9f48508da8a7c189d7095d39ed84173443588e710a1748fef88737",
        }

    def test_seed_1_min_authors_3_grid_is_pinned(self, seed_1_min_authors_3_run, tmp_path):
        """The paper's grid on `synth --seed 1` under `selection.min_authors`
        = 3, hashed as `test_seed_1_grid_is_pinned` hashes the default's."""
        work = tmp_path / "work"
        shutil.copytree(min_authors_3_config(seed_1_min_authors_3_run).workdir, work)
        lines = []
        for network in pipeline.NETWORKS:
            for metric in pipeline.METRICS:
                cfg = dataclasses.replace(min_authors_3_config(seed_1_min_authors_3_run),
                                          workdir=str(work), network=network, metric=metric)
                for stage in ("net", "centrality", "score", "eval"):
                    run_stage(stage, cfg)
                lines += [f"{network}\t{metric}\t{name}\t{_sha256(work / name)}\n"
                          for name in ("edges.tsv", "centrality.tsv", "scores.tsv",
                                       "provenance.json", "report.tsv",
                                       "percentiles.tsv", "pr_curve.tsv")]
        assert hashlib.sha256("".join(lines).encode()).hexdigest() == (
            "067e2d4c16dd1e9d90723de6e117f74b2ffe62f30376c40bb67372b76d6682fd")

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
        from wikiq.ingest import parse_dump, Namespace
        with open(corpus / "dump.xml", "rb") as fp:
            pages = list(parse_dump(fp))
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
        def fn(cfg, spec=spec, **files):
            calls.append(spec.name)
            spec.fn(cfg, **files)
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
    the program equal the recorded ones and every output still has its
    recorded hash; a run logs the first part that differed."""
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


@pytest.mark.parametrize("key, value", [("bot_list", ["Editor01"]),
                                        ("bot_suffix_heuristic", False),
                                        ("exclude_bots", False)])
def test_bot_config_edit_reruns_contrib_onward_never_ingest(corpus, stage_calls,
                                                            key, value):
    """The bot rule is contrib's, so after `run_all` an edit to one of its
    three fields runs contrib and every stage after it, and skips ingest:
    both JSONL artifacts keep their bytes and mtimes. `run_stage("contrib")`
    under the edit runs; while ingest labelled bots, it was refused, naming
    ingest. Editor00 edits as CopyBot here, a bot under the suffix
    heuristic, so each edit changes the contributions."""
    dump = corpus / "dump.xml"
    text = dump.read_text(encoding="utf-8")
    assert "<username>Editor00</username>" in text and "<username>Editor01</username>" in text
    dump.write_text(text.replace("<username>Editor00</username>",
                                 "<username>CopyBot</username>"), encoding="utf-8")
    cfg = make_config(corpus)
    run_all(cfg)
    work = Path(cfg.workdir)

    def jsonl():
        return {name: ((work / name).read_bytes(), (work / name).stat().st_mtime_ns)
                for name in ARTIFACTS["ingest"]}

    parsed = jsonl()
    edited = with_config_value(cfg, key, value)
    stage_calls.clear()
    run_all(edited)
    assert stage_calls == list(STAGES[1:])
    run_all(cfg)
    stage_calls.clear()
    run_stage("contrib", edited)
    assert stage_calls == ["contrib"]
    assert jsonl() == parsed


def reference_refusal(stage: str, config: RunConfig) -> str | None:
    """The manifest check's refusal before skip and refuse shared one
    comparison, or None: the stage's own outside files and artifacts, then
    three loops over each upstream stage (its config values, its outside
    files, its artifacts), each with its own message."""
    spec = pipeline._BY_NAME[stage]
    root = Path(config.workdir)
    manifest = json.loads((root / "manifest.json").read_text())
    data = json.loads(config.to_json())
    for key in spec.files:
        if not Path(getattr(config, key)).exists():
            return f"{key} not found: {getattr(config, key)}"
    for name in spec.inputs:
        producer = pipeline.PRODUCER[name].name
        if not (root / name).exists():
            return f"stage {stage!r}: missing artifact {name} (run {producer!r} first)"
        if (manifest.get(producer, {}).get("outputs", {}).get(name)
                != pipeline._sha256(root / name)):
            return (f"stage {stage!r}: artifact {name} does not match the "
                    f"manifest (stale; re-run {producer!r})")
    for upstream in pipeline._lineage(spec)[:-1]:
        entry = manifest.get(upstream.name, {})
        recorded = entry.get("config", {})
        for key, value in sorted(pipeline._config_values(data, upstream).items()):
            if key not in recorded or recorded[key] != value:
                return (f"stage {stage!r}: {upstream.name!r} ran with {key}="
                        f"{recorded.get(key)!r}, the config has {value!r} "
                        f"(re-run {upstream.name!r})")
        for key in upstream.files:
            path = Path(getattr(config, key))
            if not path.exists():
                return f"{key} not found: {path}"
            if pipeline._sha256(path) != entry.get("inputs", {}).get(path.name):
                return (f"stage {stage!r}: {key} {path} changed since "
                        f"{upstream.name!r} read it (re-run {upstream.name!r})")
        for name in upstream.inputs:
            if (entry.get("inputs", {}).get(name) != manifest.get(
                    pipeline.PRODUCER[name].name, {}).get("outputs", {}).get(name)):
                return (f"stage {stage!r}: {name} changed since "
                        f"{upstream.name!r} read it (re-run {upstream.name!r})")
    return None


class WouldRun(Exception):
    """Raised by a stage function in place of running the stage."""


def refusal(stage: str, config: RunConfig, monkeypatch) -> str | None:
    """run_stage's refusal, or None when it would run or skip the stage;
    it runs no stage code and so writes nothing."""
    def would_run(cfg, **files):
        raise WouldRun

    with monkeypatch.context() as patch:
        for spec in STAGE_TABLE:
            patch.setitem(pipeline._BY_NAME, spec.name, spec._replace(fn=would_run))
        try:
            run_stage(stage, config)
        except PipelineError as exc:
            return str(exc)
        except WouldRun:
            pass
    return None


# each lineage config key, dotted as the manifest records it: another value
CONFIG_EDITS = {
    "bot_list": ["Editor00"], "bot_suffix_heuristic": False, "exclude_bots": False,
    "selection.min_contrib": 5.0, "selection.min_authors": 3,
    "selection.theta": 0.5, "network": "coauthor", "metric": "degree",
    "damping": 0.9, "models": ["longevity"], "eval_k": [5], "buckets": 5,
    "relevant_classes": ["FA"],
}
# each stage with config keys of its own: one of them, with another value
OWN_CONFIG_EDITS = {"contrib": "exclude_bots", "select": "selection.theta",
                    "net": "network", "centrality": "metric", "score": "models"}


def with_config_value(cfg: RunConfig, key: str, value) -> RunConfig:
    data = json.loads(cfg.to_json())
    field_name, _, sub = key.partition(".")
    if sub:
        data[field_name][sub] = value
    else:
        data[field_name] = value
    return RunConfig.from_json(json.dumps(data))


def test_refusal_matches_the_reference(corpus, monkeypatch):
    """After each edit to a finished run, every stage is refused exactly
    when the reference check refuses it, and both name the same stage to
    (re-)run."""
    cfg = make_config(corpus)
    run_all(cfg)
    work, dump = Path(cfg.workdir), Path(cfg.dump)
    shutil.copytree(work, corpus / "base")
    shutil.copy2(dump, corpus / "base.xml")
    keys = pipeline._config_values(json.loads(cfg.to_json()), STAGE_TABLE[-1])
    assert CONFIG_EDITS.keys() == keys.keys()

    def touch(seconds):
        written = max(p.stat().st_mtime_ns for p in work.iterdir())
        os.utime(dump, ns=(written + seconds * 10**9,) * 2)

    def same_size(seconds):
        text = dump.read_text(encoding="utf-8")
        at = text.index("<text>") + len("<text>")
        dump.write_text(text[:at] + ("b" if text[at] == "a" else "a")
                        + text[at + 1:], encoding="utf-8")
        touch(seconds)

    def reingest():
        dump.write_text(generate(small_spec(seed=2))[0], encoding="utf-8")
        run_stage("ingest", cfg)

    def rerun(stage):
        key = OWN_CONFIG_EDITS[stage]
        run_stage(stage, with_config_value(cfg, key, CONFIG_EDITS[key]))

    def drop_entry(stage):
        manifest = json.loads((work / "manifest.json").read_text())
        del manifest[stage]
        (work / "manifest.json").write_text(json.dumps(manifest))

    def append(path, text):
        with open(path, "a", encoding="utf-8") as fp:
            fp.write(text)

    edits = {f"config {key}": (lambda key=key, value=value: with_config_value(
        cfg, key, value)) for key, value in CONFIG_EDITS.items()}
    edits.update({
        "touch dump": lambda: touch(1),
        "append to dump": lambda: append(dump, "\n"),
        "same-size newer dump": lambda: same_size(1),
        "same-size older dump": lambda: same_size(-10),
        "re-ingest seed 2": reingest,
    })
    edits.update({f"re-run {stage}": (lambda stage=stage: rerun(stage))
                  for stage in OWN_CONFIG_EDITS})
    for names in ARTIFACTS.values():
        for name in names:
            edits[f"edit {name}"] = lambda name=name: append(work / name, "x\n")
            edits[f"delete {name}"] = lambda name=name: (work / name).unlink()
    edits.update({f"drop {stage} entry": (lambda stage=stage: drop_entry(stage))
                  for stage in STAGES})
    outcomes = []
    for what, edit in edits.items():
        shutil.rmtree(work)
        shutil.copytree(corpus / "base", work)
        shutil.copy2(corpus / "base.xml", dump)
        stage_cfg = edit() or cfg
        for stage in STAGES:
            want = reference_refusal(stage, stage_cfg)
            got = refusal(stage, stage_cfg, monkeypatch)
            assert (want is None) == (got is None), (what, stage, want, got)
            if want is not None:
                assert (re.findall(r"run '(\w+)'", want)
                        == re.findall(r"run '(\w+)'", got)), (what, stage, want, got)
            outcomes.append(want is None)
    assert len(outcomes) == 7 * len(edits) == 7 * 52
    assert 100 < outcomes.count(False) < 300


def test_touched_dump_hashed_once_per_process(corpus, monkeypatch):
    """After `touch dump.xml`, a `run_all` hashes the dump once, in ingest's
    check, and two more `run_all` calls in the same process not again."""
    cfg = make_config(corpus)
    run_all(cfg)
    os.utime(cfg.dump)
    hashed = []
    real_sha256 = pipeline._sha256
    monkeypatch.setattr(pipeline, "_sha256",
                        lambda path: hashed.append(Path(path).name)
                        or real_sha256(path))
    run_all(cfg)
    assert hashed.count("dump.xml") == 1
    run_all(cfg)
    run_all(cfg)
    assert hashed.count("dump.xml") == 1


def same_size_edit(text: str) -> str:
    """`text` with the first letter of its first <text> swapped for another."""
    at = text.index("<text>") + len("<text>")
    return text[:at] + ("b" if text[at] == "a" else "a") + text[at + 1:]


@pytest.mark.parametrize("how", ["touch -r", "cp -p"])
def test_same_size_edit_with_old_times_refused(corpus, capsys, how):
    """After `wikiq all`, a same-size edit of the dump that keeps the old
    mtime, given back as `touch -r` or copied from an edited backup as
    `cp -p` does, makes every stage after ingest exit 2 naming ingest, in
    this process and in a new one, and writes nothing."""
    config = corpus / "config.json"
    config.write_text(make_config(corpus).to_json())
    dump, backup = corpus / "dump.xml", corpus / "backup.xml"
    edited = same_size_edit(dump.read_text(encoding="utf-8"))
    backup.write_text(edited, encoding="utf-8")
    shutil.copystat(dump, backup)
    assert main(["all", "--config", str(config)]) == 0
    old = dump.stat()
    if how == "touch -r":
        dump.write_text(edited, encoding="utf-8")
        os.utime(dump, ns=(old.st_atime_ns, old.st_mtime_ns))
    else:
        shutil.copy2(backup, dump)
    new = dump.stat()
    assert (new.st_size, new.st_mtime_ns) == (old.st_size, old.st_mtime_ns)
    assert dump.read_bytes() == backup.read_bytes()
    work = Path(make_config(corpus).workdir)
    before = tree_bytes(work)
    later = STAGES[1:]
    want = [f"wikiq: error: stage {stage!r}: input dump.xml changed since "
            "'ingest' ran (re-run 'ingest')" for stage in later]
    got = []
    for stage in later:
        capsys.readouterr()
        assert main([stage, "--config", str(config)]) == 2
        got += capsys.readouterr().err.strip().split("\n")
    assert got == want
    # a new process starts with no content hash taken
    script = ("import sys\nfrom wikiq.cli import main\n"
              "codes = [main([stage, '--config', sys.argv[1]]) for stage in sys.argv[2:]]\n"
              "sys.exit(max(codes))\n")
    env = dict(os.environ, PYTHONPATH=str(Path(wikiq.__file__).resolve().parents[1]))
    result = subprocess.run([sys.executable, "-c", script, str(config), *later],
                            capture_output=True, text=True, env=env, timeout=60)
    assert result.returncode == 2
    assert result.stderr.strip().split("\n") == want
    assert tree_bytes(work) == before


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


def test_grid_parses_each_artifact_content_once(corpus, monkeypatch):
    """In one process the 3 x 4 grid parses the selection and the ratings
    once and each network's edge list once. A select re-run under another
    theta reuses the contributions' parse, and the stages after it parse
    the new selection and edge list."""
    monkeypatch.setattr(pipeline, "_PARSED", {})
    calls = []
    for module, name in ((pipeline, "read_contributions"), (pipeline, "read_selections"),
                         (networks, "read_edge_list"), (pipeline, "load_ratings")):
        def counted(fp, read=getattr(module, name), name=name):
            calls.append(name)
            return read(fp)
        monkeypatch.setattr(module, name, counted)
    cfg = make_config(corpus)
    for stage in ("ingest", "contrib", "select"):
        run_stage(stage, cfg)
    for network in pipeline.NETWORKS:
        for metric in pipeline.METRICS:
            grid_cfg = dataclasses.replace(cfg, network=network, metric=metric)
            for stage in ("net", "centrality", "score", "eval"):
                run_stage(stage, grid_cfg)
    assert calls == ["read_contributions", "read_selections", "read_edge_list",
                     "load_ratings", "read_edge_list", "read_edge_list"]
    calls.clear()
    cfg = dataclasses.replace(grid_cfg, selection=SelectionParams(theta=0.5, min_authors=2))
    for stage in ("select", "net", "centrality", "score", "eval"):
        run_stage(stage, cfg)
    assert calls == ["read_selections", "read_edge_list"]


def test_a_stage_that_runs_lets_go_of_its_outputs_parses(tmp_path, monkeypatch):
    """Every grid cell rewrites centrality.tsv and scores.tsv, so the memo
    drops a stage's outputs once the stage is to run: their old parses
    would never be read again."""
    monkeypatch.setattr(pipeline, "_PARSED", {})
    dump, ratings = generate(SynthSpec(seed=1))
    (tmp_path / "dump.xml").write_text(dump, encoding="utf-8")
    (tmp_path / "ratings.tsv").write_text(ratings, encoding="utf-8")
    cfg = make_config(tmp_path)
    run_all(cfg)
    assert {"centrality.tsv", "scores.tsv"} <= pipeline._PARSED.keys()
    cell = dataclasses.replace(cfg, metric="degree")
    for stage in ("net", "centrality"):
        run_stage(stage, cell)
    assert "centrality.tsv" not in pipeline._PARSED
    run_stage("score", cell)
    assert "scores.tsv" not in pipeline._PARSED


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


RENAME_PREFIX = "Zq"  # canonical_name leaves it alone; keeps name order


def rename_users(dump: str) -> str:
    """The dump with every username, user talk page owner and signature
    name prefixed by RENAME_PREFIX."""
    dump = re.sub(r"<username>(.*?)</username>",
                  rf"<username>{RENAME_PREFIX}\1</username>", dump)
    dump = dump.replace("<title>User talk:", f"<title>User talk:{RENAME_PREFIX}")
    return re.sub(r"\[\[ User : (\S+) \| (\S+) \]\]",
                  rf"[[ User : {RENAME_PREFIX}\1 | {RENAME_PREFIX}\2 ]]", dump)


@pytest.mark.parametrize("seed", [1, 2])
def test_order_preserving_rename_renames_every_artifact(tmp_path, seed):
    """Prefixing every registered author's name, an order-preserving
    rename, gives every artifact of `all` equal to the unrenamed run's with
    the rename applied. The manifest differs only in its hashes."""
    dump, ratings = generate(SynthSpec(seed=seed))
    users = set(re.findall(r"<username>(.*?)</username>", dump))
    rename = re.compile(r"(?<!\w)(%s)(?!\w)" % "|".join(map(re.escape, users)))
    files = []
    for name, text in (("plain", dump), ("renamed", rename_users(dump))):
        root = tmp_path / name
        root.mkdir()
        (root / "dump.xml").write_text(text, encoding="utf-8")
        (root / "ratings.tsv").write_text(ratings, encoding="utf-8")
        run_all(make_config(root))
        files.append(tree_bytes(root / "work"))
    plain, renamed = files
    assert plain.keys() == renamed.keys()
    assert b"ZqEditor00" in renamed["edges.tsv"]
    for name in plain.keys() - {"manifest.json"}:
        expected = rename.sub(rf"{RENAME_PREFIX}\1", plain[name].decode())
        assert renamed[name].decode() == expected, name
    manifests = [json.loads(f["manifest.json"]) for f in files]
    for manifest in manifests:
        for entry in manifest.values():
            for part in ("inputs", "outputs"):
                entry[part] = sorted(entry.get(part, ()))
    assert manifests[0] == manifests[1]


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
        pages = list(parse_dump(fp))
    full = [p for p in pages if p.namespace is Namespace.USER_TALK]
    articles = [p for p in pages if p.namespace is Namespace.ARTICLE]
    selections = select_all(build_contributions(articles, cfg.is_bot()), cfg.selection)
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
            RevisionRecord(ordinal, AuthorId(name, AuthorKind(kind)), ts, tokens)
            for ordinal, name, kind, ts, tokens in d["revisions"]
        ],
    )


AUTHORS = (AuthorId("Ann", AuthorKind.REGISTERED),
           AuthorId("10.0.0.1", AuthorKind.ANONYMOUS),
           AuthorId("FixBot", AuthorKind.REGISTERED))


def page_of(*versions: list[str], page_id: int = 7) -> PageHistory:
    """A page whose revisions have the given tokens, authors taking turns."""
    return PageHistory(page_id, "Page", Namespace.ARTICLE, [
        RevisionRecord(n, AUTHORS[n % len(AUTHORS)], 1000 + n, tokens)
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
        pages = list(parse_dump(fp))
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
    order as those of the same dump sorted by page id."""
    dump, _ratings = generate(SynthSpec(seed=1))
    head, pages, tail = split_pages(dump)
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


REPEATED_ID_DUMP = """<mediawiki xmlns="http://www.mediawiki.org/xml/export-0.10/">
{pages}</mediawiki>
"""
PAGE = """  <page><title>{title}</title><ns>0</ns><id>{page_id}</id>
    <revision><timestamp>2011-01-0{day}T00:00:00Z</timestamp>
      <contributor><username>{first}</username></contributor>
      <text>{title} is a page about {title}</text></revision>
    <revision><timestamp>2011-01-0{next_day}T00:00:00Z</timestamp>
      <contributor><username>{second}</username></contributor>
      <text>{title} is a long page about {title} and more</text></revision>
  </page>
"""


@pytest.mark.parametrize("order", ["in order", "shuffled"])
def test_repeated_page_id_exits_2_with_one_line(tmp_path, capsys, order):
    """Two article pages with id 7, Alpha by Ann and Bob and Beta by Cat and
    Dan, beside Gamma with id 3, in page id order and out of it: ingest
    refuses the dump and writes nothing. Read, Alpha's contributions would
    merge with Beta's under id 7, and Alpha's FA rating would score them."""
    pages = {"Alpha": (7, "Ann", "Bob"), "Beta": (7, "Cat", "Dan"),
             "Gamma": (3, "Eve", "Fay")}
    titles = (["Gamma", "Alpha", "Beta"] if order == "in order"
              else ["Alpha", "Gamma", "Beta"])
    dump = REPEATED_ID_DUMP.format(pages="".join(
        PAGE.format(title=title, page_id=pages[title][0], first=pages[title][1],
                    second=pages[title][2], day=1 + 2 * k, next_day=2 + 2 * k)
        for k, title in enumerate(titles)))
    (tmp_path / "dump.xml").write_text(dump, encoding="utf-8")
    (tmp_path / "ratings.tsv").write_text(
        "page_id\ttitle\tclass\n3\tGamma\tStub\n7\tAlpha\tFA\n", encoding="utf-8")
    config = tmp_path / "config.json"
    config.write_text(make_config(tmp_path).to_json(), encoding="utf-8")
    assert main(["all", "--config", str(config)]) == 2
    assert capsys.readouterr().err == "wikiq: error: two pages have page id 7\n"
    assert not (tmp_path / "work" / "articles.jsonl").exists()
    assert not (tmp_path / "work" / "manifest.json").exists()


def test_pages_in_other_namespaces_change_no_artifact(tmp_path):
    """Talk: and Wikipedia: copies of an article and of a user talk page
    added to the dump move no artifact; the manifest differs only in the
    hash of the dump ingest read."""
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


def test_failed_stage_writes_nothing(corpus, monkeypatch):
    """A stage that fails after writing one of its outputs, here eval after
    report.tsv, leaves every output, temp file and the manifest as they
    were."""
    cfg = make_config(corpus)
    run_all(cfg)
    work = Path(cfg.workdir)
    before = tree_bytes(work)

    def fail(ranking, buckets):
        raise OSError("no space left on device")

    monkeypatch.setattr(pipeline, "percentile_table", fail)
    with pytest.raises(OSError, match="no space left"):
        run_stage("eval", dataclasses.replace(cfg, eval_k=[5]))
    assert tree_bytes(work) == before
    assert not list(work.glob("*.tmp*"))


def test_each_artifact_name_is_declared_once():
    """A workdir artifact's name is a string constant of the package only
    inside `STAGE_TABLE`: the runner opens the files, and a stage gets each
    one by keyword."""
    import ast

    names = {name for s in STAGE_TABLE for name in s.inputs + s.outputs}
    src = Path(__file__).resolve().parent.parent / "src" / "wikiq"
    declared, found = set(), []
    for path in sorted(src.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        table = {id(node) for assign in ast.walk(tree)
                 if isinstance(assign, ast.Assign)
                 and any(getattr(t, "id", None) == "STAGE_TABLE" for t in assign.targets)
                 for node in ast.walk(assign)}
        for node in ast.walk(tree):
            if isinstance(node, ast.Constant) and node.value in names:
                if id(node) in table:
                    declared.add(node.value)
                else:
                    found.append(f"{path.name}:{node.lineno}: {node.value}")
    assert declared == names
    assert not found, f"artifact names outside STAGE_TABLE: {found}"


def test_package_imports_only_the_stdlib():
    """The runtime needs nothing outside the standard library: each module
    that `src/wikiq/*.py` imports is a stdlib module or the package."""
    import ast

    src = Path(__file__).resolve().parent.parent / "src" / "wikiq"
    allowed = sys.stdlib_module_names | {"wikiq"}
    imported, outside = set(), []
    for path in sorted(src.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                modules = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                modules = ["wikiq" if node.level else node.module]
            else:
                continue
            for module in modules:
                imported.add(module.split(".")[0])
                if module.split(".")[0] not in allowed:
                    outside.append(f"{path.name}:{node.lineno}: {module}")
    assert {"json", "xml", "wikiq"} <= imported
    assert not outside, f"imports outside the stdlib: {outside}"


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
    utps = [p for p in parse_dump(io.BytesIO(dump.encode()))
            if p.namespace is Namespace.USER_TALK]
    assert bots <= networks.build_talk_history(utps).nodes
    run_all(cfg)
    for network in ("coauthor", "talk-sig", "talk-hist"):
        run_stage("net", dataclasses.replace(cfg, network=network))
        edges = (tmp_path / "work" / "edges.tsv").read_text(encoding="utf-8")
        assert not any(bot in edges for bot in bots), network


def test_signers_with_punctuated_names_keep_their_edges(tmp_path):
    """A signature's link is tokenized, so "Jean-Luc" signs as "Jean - Luc";
    the talk-sig net still gives the selected author who signed."""
    authors = ["Jean-Luc", "O'Brien", "Owner"]
    revisions = "".join(
        f"<revision><timestamp>2011-01-0{n + 1}T00:00:00Z</timestamp>"
        f"<contributor><username>{name}</username></contributor>"
        f"<text>{' '.join(f'w{k}' for k in range(20 * (n + 1)))}</text></revision>"
        for n, name in enumerate(authors + ["Zed", "Zed"]))
    signatures = [f"hi [[User:{name}|{name}]] 12:01, 3 March 2011 (UTC)"
                  for name in authors[:2]]
    # each signer's own revision adds its signature
    talk = "".join(
        f"<revision><timestamp>2011-02-0{n + 1}T00:00:00Z</timestamp>"
        f"<contributor><username>{name}</username></contributor>"
        f"<text>{' '.join(signatures[:n + 1])}</text></revision>"
        for n, name in enumerate(authors[:2]))
    (tmp_path / "dump.xml").write_text(
        "<mediawiki><page><title>Stone Age</title><ns>0</ns><id>1</id>"
        f"{revisions}</page><page><title>User talk:Owner</title><ns>3</ns>"
        f"<id>2</id>{talk}</page></mediawiki>", encoding="utf-8")
    cfg = dataclasses.replace(make_config(tmp_path), network="talk-sig")
    for stage in ("ingest", "contrib", "select", "net"):
        run_stage(stage, cfg)
    selection = (tmp_path / "work" / "selection.tsv").read_text(encoding="utf-8")
    assert all(f"\t{name}\t" in selection for name in authors)
    edges = (tmp_path / "work" / "edges.tsv").read_text(encoding="utf-8")
    assert edges.splitlines()[1:] == ["src\tdst\tweight", "Jean-Luc\tOwner\t1",
                                      "O'Brien\tOwner\t1"]


def test_look_alike_cannot_sign_for_a_selected_author(tmp_path):
    """The selected Jean-Luc never edits User talk:Owner. The unselected
    account "Jean - Luc", which a signature spells as it spells Jean-Luc,
    signs there as [[User:Jean-Luc|Jean-Luc]]. The signature credits the
    page's editor who spells it, so no edge names Jean-Luc; before, the
    spelling went to the one selected author who spells alike."""
    revisions = "".join(
        f"<revision><timestamp>2011-01-0{n + 1}T00:00:00Z</timestamp>"
        f"<contributor><username>{name}</username></contributor>"
        f"<text>{' '.join(f'w{k}' for k in range(20 * (n + 1)))}</text></revision>"
        for n, name in enumerate(["Jean-Luc", "O'Brien", "Owner", "Zed", "Zed"]))
    text = ""
    talk = ""
    for n, (editor, signer) in enumerate([("Jean - Luc", "Jean-Luc"),
                                          ("O'Brien", "O'Brien")]):
        text += f" hi [[User:{signer}|{signer}]] 12:01, 3 March 2011 (UTC)"
        talk += (f"<revision><timestamp>2011-02-0{n + 1}T00:00:00Z</timestamp>"
                 f"<contributor><username>{editor}</username></contributor>"
                 f"<text>{text}</text></revision>")
    (tmp_path / "dump.xml").write_text(
        "<mediawiki><page><title>Stone Age</title><ns>0</ns><id>1</id>"
        f"{revisions}</page><page><title>User talk:Owner</title><ns>3</ns>"
        f"<id>2</id>{talk}</page></mediawiki>", encoding="utf-8")
    cfg = dataclasses.replace(make_config(tmp_path), network="talk-sig")
    for stage in ("ingest", "contrib", "select", "net"):
        run_stage(stage, cfg)
    selection = (tmp_path / "work" / "selection.tsv").read_text(encoding="utf-8")
    assert "\tJean-Luc\t" in selection and "Jean - Luc" not in selection
    edges = (tmp_path / "work" / "edges.tsv").read_text(encoding="utf-8")
    assert edges.splitlines()[1:] == ["src\tdst\tweight", "O'Brien\tOwner\t1"]


def _talk_pagerank_ranks(root: Path, dump: str, ratings: str, page_id: int) -> dict:
    """The page's rank under each talk network's two PageRank models, after
    running the corpus in `root`."""
    root.mkdir()
    (root / "dump.xml").write_text(dump, encoding="utf-8")
    (root / "ratings.tsv").write_text(ratings, encoding="utf-8")
    labels = load_ratings(io.StringIO(ratings))
    ranks = {}
    for network in ("talk-sig", "talk-hist"):
        cfg = dataclasses.replace(make_config(root), network=network)
        for stage in ("ingest", "contrib", "select", "net", "centrality", "score"):
            run_stage(stage, cfg)
        with open(root / "work" / "scores.tsv", encoding="utf-8") as fp:
            scores = read_scores(fp)
        for model in ("cen_pagerank", "com_pagerank"):
            ranking = [page.page_id for page in build_ranking(scores[model], labels)]
            ranks[network, model] = ranking.index(page_id) + 1
    return ranks


def test_forged_talk_page_moves_no_rank(tmp_path):
    """Writer49 is the first selected author of Stub page 153 of synth seed
    1, and has no talk page. One anonymous revision creates it with 60
    signatures of other selected authors. Talk-sig, counting every
    signature, then ranked the page 1st under com_pagerank and 2nd under
    cen_pagerank, up from 75th under both. A signer now counts at most as
    often as it edited the page, so no rank moves under either network."""
    dump, ratings = generate(SynthSpec(seed=1))
    clean = _talk_pagerank_ranks(tmp_path / "clean", dump, ratings, 153)
    assert clean == {("talk-sig", "cen_pagerank"): 75, ("talk-sig", "com_pagerank"): 75,
                     ("talk-hist", "cen_pagerank"): 73, ("talk-hist", "com_pagerank"): 60}
    with open(tmp_path / "clean" / "work" / "selection.tsv", encoding="utf-8") as fp:
        selection = pipeline.read_selections(fp)
    owner = next(iter(selection[153]))
    signers = sorted({a for authors in selection.values() for a in authors} - {owner})
    assert owner == "Writer49" and f"User talk:{owner}" not in dump
    forged = forge_talk_page(dump, owner, signers[:60])
    assert _talk_pagerank_ranks(tmp_path / "forged", forged, ratings, 153) == clean


def test_registered_creator_of_a_talk_page_moves_no_rank(tmp_path):
    """One revision by the unselected account Mallory creates the talk page
    of Writer49, Stub page 153's first selected author, with 0 or with 60
    signatures of other selected authors. The page gives Writer49 no edge.
    While such an owner was still a node, talk-sig ranked page 153 58th
    under com_pagerank and 73rd under cen_pagerank, up from 75th under
    both. A network's nodes are now its edges' endpoints, so no rank moves
    under either talk network."""
    dump, ratings = generate(SynthSpec(seed=1))
    clean = _talk_pagerank_ranks(tmp_path / "clean", dump, ratings, 153)
    with open(tmp_path / "clean" / "work" / "selection.tsv", encoding="utf-8") as fp:
        selection = pipeline.read_selections(fp)
    owner = next(iter(selection[153]))
    authors = {a for authors in selection.values() for a in authors}
    assert owner == "Writer49" and f"User talk:{owner}" not in dump
    assert "Mallory" not in authors and "Mallory" not in dump
    signers = sorted(authors - {owner})[:60]
    for count in (0, 60):
        forged = forge_talk_page(dump, owner, signers[:count], contributor="Mallory")
        root = tmp_path / f"mallory{count}"
        assert _talk_pagerank_ranks(root, forged, ratings, 153) == clean


def _coauthor_ranks(root: Path, dump: str, ratings: str, page_id: int) -> dict:
    """The page's rank under each model of the co-author network, longevity
    and the cen_ and com_ model of each metric, keyed by (regime, model):
    the default selection, and `selection.min_authors` = 3. The corpus runs
    in `root`."""
    root.mkdir()
    (root / "dump.xml").write_text(dump, encoding="utf-8")
    (root / "ratings.tsv").write_text(ratings, encoding="utf-8")
    labels = load_ratings(io.StringIO(ratings))
    ranks = {}
    for regime, selection in (("default", SelectionParams()),
                              ("min_authors=3", SelectionParams(min_authors=3))):
        for metric in pipeline.METRICS:
            cfg = dataclasses.replace(make_config(root), network="coauthor",
                                      metric=metric, selection=selection)
            for stage in ("ingest", "contrib", "select", "net", "centrality", "score"):
                run_stage(stage, cfg)
            with open(root / "work" / "scores.tsv", encoding="utf-8") as fp:
                scores = read_scores(fp)
            for model, scored in scores.items():
                ranking = [page.page_id for page in build_ranking(scored, labels)]
                ranks[regime, model] = ranking.index(page_id) + 1
    return ranks


def test_drive_by_edit_ranks_are_pinned(tmp_path):
    """Passerby, a fresh account, inserts one word just after the first
    revision of Stub page 153 of synth seed 1, alone or also on pages
    100-119, and every later revision keeps it (ROADMAP item 24). Its
    contribution of 1 makes it a principal author under the default
    selection, which keeps every positive contributor, and moves the page
    up to 61st under com_pagerank and 49th under com_betweenness (alone),
    or 59th under cen_pagerank (with 20 other pages), from 75th, 64th and
    75th. Under `selection.min_authors` = 3 the floor decides, a
    contribution of 1 is below `min_contrib`, and no rank moves. Each
    value is (clean, page 153 alone, page 153 and 20 others)."""
    dump, ratings = generate(SynthSpec(seed=1))
    dumps = {"clean": dump, "alone": drive_by(dump, {153}),
             "with 20": drive_by(dump, {153, *range(100, 120)})}
    ranks = {name: _coauthor_ranks(tmp_path / name.replace(" ", "_"), text, ratings, 153)
             for name, text in dumps.items()}
    with open(tmp_path / "alone" / "work" / "contributions.tsv", encoding="utf-8") as fp:
        assert pipeline.read_contributions(fp)[153][PASSERBY] == pytest.approx(1)
    assert {key: tuple(ranks[name][key] for name in dumps) for key in ranks["clean"]} == {
        ("default", "longevity"): (18, 18, 18),
        ("default", "cen_degree"): (75, 74, 65),
        ("default", "com_degree"): (75, 73, 73),
        ("default", "cen_betweenness"): (72, 66, 61),
        ("default", "com_betweenness"): (64, 49, 73),
        ("default", "cen_eigenvector"): (75, 75, 59),
        ("default", "com_eigenvector"): (75, 75, 74),
        ("default", "cen_pagerank"): (75, 73, 59),
        ("default", "com_pagerank"): (75, 61, 75),
        ("min_authors=3", "longevity"): (18, 18, 18),
        ("min_authors=3", "cen_degree"): (71, 71, 71),
        ("min_authors=3", "com_degree"): (68, 68, 68),
        ("min_authors=3", "cen_betweenness"): (68, 68, 68),
        ("min_authors=3", "com_betweenness"): (56, 56, 56),
        ("min_authors=3", "cen_eigenvector"): (70, 70, 70),
        ("min_authors=3", "com_eigenvector"): (70, 70, 70),
        ("min_authors=3", "cen_pagerank"): (70, 70, 70),
        ("min_authors=3", "com_pagerank"): (63, 63, 63),
    }


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


def _talk_only(root: Path) -> None:
    """A dump whose one page is a user talk page, so no page is scored."""
    (root / "dump.xml").write_text(
        "<mediawiki><page><title>User talk:Owner</title><ns>3</ns><id>2</id>"
        "<revision><timestamp>2011-02-01T00:00:00Z</timestamp><contributor>"
        "<username>Zed</username></contributor><text>hi</text></revision>"
        "</page></mediawiki>", encoding="utf-8")
    (root / "ratings.tsv").write_text("page_id\ttitle\tclass\n1\tStone Age\tFA\n",
                                      encoding="utf-8")


def _unmatched_ratings(root: Path) -> None:
    """The small corpus, rated under page ids that no page has."""
    dump, ratings = generate(small_spec())
    (root / "dump.xml").write_text(dump, encoding="utf-8")
    header, *lines = ratings.splitlines(keepends=True)
    rows = [line.split("\t", 1) for line in lines]
    (root / "ratings.tsv").write_text(header + "".join(
        f"{int(page_id) + 10_000}\t{rest}" for page_id, rest in rows), encoding="utf-8")


@pytest.mark.parametrize("make_corpus", [_talk_only, _unmatched_ratings])
def test_eval_refuses_when_no_rated_page_has_a_score(tmp_path, capsys, make_corpus):
    """Over a header-only scores file, or ratings whose ids match no scored
    page, eval exits 2 with one line and writes nothing: the report would
    hold no row, or rank every rated page at score 0."""
    make_corpus(tmp_path)
    config = tmp_path / "config.json"
    config.write_text(make_config(tmp_path).to_json())
    assert main(["all", "--config", str(config)]) == 2
    assert capsys.readouterr().err == (
        "wikiq: error: stage 'eval': no page that ratings.tsv rates has a score\n")
    work = tmp_path / "work"
    assert (work / "scores.tsv").exists() and not (work / "report.tsv").exists()
    assert "eval" not in json.loads((work / "manifest.json").read_text())
    if make_corpus is _talk_only:
        assert (work / "scores.tsv").read_text() == "page_id\tmodel\tscore\n"


def test_stub_export_exits_2_with_one_line(tmp_path, capsys):
    """Synth seed 1 with every text stripped, as in a stub export: ingest
    refuses it and writes nothing, where every later stage would run on
    empty pages and exit 0."""
    dump, ratings = generate(SynthSpec(seed=1))
    stub = re.sub(r"<text>[^<]*</text>", '<text bytes="0" id="1" />', dump)
    assert stub.count("<text ") == dump.count("<text>") > 0
    (tmp_path / "dump.xml").write_text(stub, encoding="utf-8")
    (tmp_path / "ratings.tsv").write_text(ratings, encoding="utf-8")
    config = tmp_path / "config.json"
    config.write_text(make_config(tmp_path).to_json())
    assert main(["all", "--config", str(config)]) == 2
    assert capsys.readouterr().err == (
        "wikiq: error: dump.xml: no revision has text; a stub export?\n")
    assert not (tmp_path / "work" / "articles.jsonl").exists()
    assert not (tmp_path / "work" / "manifest.json").exists()


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


def test_each_stage_reads_only_its_declared_config(tmp_path, monkeypatch):
    """A stage function reads no config field but its Stage's config_keys
    and files, and reads each of its config_keys: a field read undeclared
    would not enter the manifest, so the stage would be skipped while
    stale. Synth seed 1 runs under each network with a config that records
    every field read while a stage function runs."""
    fields = {f.name for f in dataclasses.fields(RunConfig)}
    running: list[str] = []
    reads = {spec.name: set() for spec in STAGE_TABLE}

    class Recording(RunConfig):
        def __getattribute__(self, name):
            if running and name in fields:
                reads[running[-1]].add(name)
            return super().__getattribute__(name)

    for spec in STAGE_TABLE:
        def fn(cfg, spec=spec, **files):
            running.append(spec.name)
            try:
                spec.fn(cfg, **files)
            finally:
                running.pop()
        monkeypatch.setitem(pipeline._BY_NAME, spec.name, spec._replace(fn=fn))
    dump, ratings = generate(SynthSpec(seed=1))
    (tmp_path / "dump.xml").write_text(dump, encoding="utf-8")
    (tmp_path / "ratings.tsv").write_text(ratings, encoding="utf-8")
    for network in pipeline.NETWORKS:
        run_all(Recording(dump=str(tmp_path / "dump.xml"),
                          ratings=str(tmp_path / "ratings.tsv"),
                          workdir=str(tmp_path / "work"), network=network))
    for spec in STAGE_TABLE:
        assert set(spec.config_keys) <= reads[spec.name] <= {
            *spec.config_keys, *spec.files}, spec.name


def test_benchmark_tracer_finds_every_name_it_wraps():
    """The benchmark's tracer wraps the program's functions by name, so a
    function renamed or deleted under it makes `Tracer().install()` fail."""
    root = Path(__file__).resolve().parents[1]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(root / "src"), str(root / "perfbench")]))
    result = subprocess.run(
        [sys.executable, "-c", "from spans import Tracer; Tracer().install()"],
        capture_output=True, text=True, env=env, timeout=60)
    assert result.returncode == 0, result.stderr


TRACED_RUN = """
import json, sys
from spans import Tracer
from wikiq.pipeline import RunConfig, run_all
tracer = Tracer()
tracer.install()
run_all(RunConfig(dump=sys.argv[1], ratings=sys.argv[2], workdir=sys.argv[3]))
print(json.dumps(tracer.metrics(wall_s=0.0)))
"""


def test_benchmark_tracer_measures_every_layer(tmp_path):
    """The benchmark's tracer, installed in a new process, sees a `run_all`
    on `wikiq synth --seed 1` through the names it wraps: every stage takes
    time, ingest yields its 91 pages, the word diff is called, and each
    layer's artifact reads and writes take time. A function renamed under a
    wrapped name would leave its metric at 0."""
    root = Path(__file__).resolve().parents[1]
    assert main(["synth", "--seed", "1", "--out", str(tmp_path)]) == 0
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(root / "src"), str(root / "perfbench")]))
    result = subprocess.run(
        [sys.executable, "-c", TRACED_RUN, str(tmp_path / "dump.xml"),
         str(tmp_path / "ratings.tsv"), str(tmp_path / "work")],
        capture_output=True, text=True, env=env, timeout=120)
    assert result.returncode == 0, result.stderr
    metrics = json.loads(result.stdout)
    for stage in STAGES:
        assert metrics[f"pipeline.{stage}.s"] > 0, stage
    assert metrics["ingest.pages"] == 91
    assert metrics["worddiff.edit_distance.calls"] > 0
    for layer in ("longevity", "networks", "centrality", "quality"):
        assert metrics[f"{layer}.io.s"] > 0, layer


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

    @pytest.mark.parametrize("flag, exclude", [("--with-bots", False),
                                               ("--without-bots", True)])
    def test_bot_flags_set_exclude_bots(self, corpus, flag, exclude):
        """`--with-bots` and `--without-bots` write the contributions of a
        config whose exclude_bots is false and true, over a config that says
        the opposite. Its bot list names an editor with lasting edits, so
        the two differ."""
        config = self.write_config(corpus, exclude_bots=not exclude,
                                   bot_list=["Editor00"])
        assert main(["ingest", "--config", str(config)]) == 0
        assert main(["contrib", flag, "--config", str(config)]) == 0
        got = (Path(make_config(corpus).workdir) / "contributions.tsv").read_bytes()
        want = {}
        for excluded in (False, True):
            cfg = dataclasses.replace(make_config(corpus, f"bots-{excluded}"),
                                      exclude_bots=excluded, bot_list=["Editor00"])
            run_stage("ingest", cfg)
            run_stage("contrib", cfg)
            want[excluded] = (Path(cfg.workdir) / "contributions.tsv").read_bytes()
        assert want[False] != want[True]
        assert got == want[exclude]

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
        ({"damping": 1.5}, "'damping': 1.5 is outside [0, 1]"),
        ({"damping": -0.5}, "'damping': -0.5 is outside [0, 1]"),
        ({"damping": float("nan")}, "'damping': nan is outside [0, 1]"),
        ({"relevant_classes": ["FA", "Fa"]}, "'relevant_classes': unknown value 'Fa'"),
        ({"selection": {"theta": 5.0}}, "'selection.theta': 5.0 is outside [0, 1]"),
        ({"selection": {"theta": -0.1}}, "'selection.theta': -0.1 is outside [0, 1]"),
        ({"selection": {"theta": float("nan")}}, "'selection.theta': nan is outside [0, 1]"),
        ({"selection": {"min_contrib": float("nan")}}, "'selection.min_contrib': nan"),
        ({"selection": {"min_contrib": 10 ** 400}}, "'selection.min_contrib': integer"),
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

    def test_integer_spelling_of_a_float_key_writes_the_same_bytes(self, seed_1_run,
                                                                    tmp_path):
        """`1` and `1.0` are one value to the freshness rule, so a run under
        either spelling must leave the bytes the other would."""
        data = json.loads(make_config(seed_1_run).to_json())
        for damping in (1, 1.0):
            config = tmp_path / f"{damping!r}.json"
            config.write_text(json.dumps(
                data | {"damping": damping, "workdir": str(tmp_path / repr(damping))}))
            assert main(["all", "--config", str(config)]) == 0
        assert tree_bytes(tmp_path / "1") == tree_bytes(tmp_path / "1.0")

    @pytest.mark.parametrize("spelling", ["Helper_script", "helper script"])
    def test_bot_list_entry_matches_its_canonical_name(self, corpus, spelling):
        """A bot_list entry names the user its canonical form names, as a
        dump's usernames do: contrib leaves that user's edits out."""
        dump = corpus / "dump.xml"
        text = dump.read_text(encoding="utf-8")
        assert "<username>Editor07</username>" in text
        dump.write_text(text.replace("<username>Editor07</username>",
                                     "<username>Helper script</username>"),
                        encoding="utf-8")
        cfg = dataclasses.replace(make_config(corpus), bot_list=[spelling])
        assert cfg.is_bot()("Helper script")
        contributors = {}
        for config in (make_config(corpus), cfg):
            run_stage("ingest", config)
            run_stage("contrib", config)
            with open(Path(config.workdir) / "contributions.tsv", encoding="utf-8") as fp:
                contributors[config is cfg] = {
                    a for authors in pipeline.read_contributions(fp).values() for a in authors}
        assert "Helper script" in contributors[False]
        assert contributors[True] == contributors[False] - {"Helper script"}

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

    def test_artifact_rewritten_after_a_stage_read_it_exit_code(self, corpus, capsys):
        """After `all`, re-ingesting another dump rewrites articles.jsonl
        under contrib's recorded run: select and net, which stand on that
        run, exit 2 with one line that names contrib and write nothing, and
        `all` then runs clean."""
        config = self.write_config(corpus)
        assert main(["all", "--config", str(config)]) == 0
        dump, ratings = generate(small_spec(seed=2))
        (corpus / "dump.xml").write_text(dump, encoding="utf-8")
        (corpus / "ratings.tsv").write_text(ratings, encoding="utf-8")
        assert main(["ingest", "--config", str(config)]) == 0
        work = Path(make_config(corpus).workdir)
        before = tree_bytes(work)
        for stage in ("select", "net"):
            capsys.readouterr()
            assert main([stage, "--config", str(config)]) == 2
            err = capsys.readouterr().err.strip().split("\n")
            assert err == [f"wikiq: error: stage {stage!r}: input articles.jsonl "
                           "changed since 'contrib' ran (re-run 'contrib')"]
        assert tree_bytes(work) == before
        assert main(["all", "--config", str(config)]) == 0

    @pytest.mark.parametrize("edit", [
        lambda m: "[]",
        lambda m: '{"ingest": 5}',
        lambda m: "{not json",
        lambda m: json.dumps({**m, "contrib": {**m["contrib"], "outputs": 5}}),
        lambda m: json.dumps({**m, "select": {**m["select"], "config": [1]}}),
        lambda m: json.dumps({**m, "ingest": {**m["ingest"], "program": 5}}),
    ], ids=["list", "entry-int", "not-json", "outputs-int", "config-list", "program-int"])
    def test_malformed_manifest_exit_code(self, corpus, capsys, edit):
        """A manifest.json that is not JSON, not an object of stage entries,
        or holds an entry field of the wrong type exits 2 with one line that
        names it, and the stage writes nothing."""
        config = self.write_config(corpus)
        assert main(["all", "--config", str(config)]) == 0
        work = Path(make_config(corpus).workdir)
        manifest = json.loads((work / "manifest.json").read_text())
        (work / "manifest.json").write_text(edit(manifest))
        before = tree_bytes(work)
        capsys.readouterr()
        assert main(["select", "--config", str(config)]) == 2
        err = capsys.readouterr().err.strip().split("\n")
        assert len(err) == 1 and err[0].startswith("wikiq: error: ")
        assert "manifest.json" in err[0]
        assert tree_bytes(work) == before

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
        lines = self.selection_lines(corpus)
        lines[2] += "\textra"
        self.record_selection(corpus, lines)
        capsys.readouterr()
        assert main(["score", "--config", str(config)]) == 2
        err = capsys.readouterr().err.strip().split("\n")
        assert len(err) == 1 and err[0].startswith("wikiq: error: ")
        assert "selection.tsv: line 3: expected 3 fields" in err[0]

    def selection_lines(self, corpus):
        work = Path(make_config(corpus).workdir)
        return (work / "selection.tsv").read_text(encoding="utf-8").split("\n")

    def record_selection(self, corpus, lines):
        """Write selection.tsv and record its hash in the manifest, as
        select's output and net's input, so that the stale-artifact checks
        pass it."""
        work = Path(make_config(corpus).workdir)
        selection = work / "selection.tsv"
        selection.write_text("\n".join(lines), encoding="utf-8")
        manifest = json.loads((work / "manifest.json").read_text())
        manifest["select"]["outputs"]["selection.tsv"] = hashlib.sha256(
            selection.read_bytes()).hexdigest()
        manifest["net"]["inputs"]["selection.tsv"] = (
            manifest["select"]["outputs"]["selection.tsv"])
        (work / "manifest.json").write_text(json.dumps(manifest))

    def test_selection_with_rank_column_exit_code(self, corpus, capsys):
        """A selection.tsv in the old `page_id, author, rank` format exits
        2 on score, with one line that names the file and the line."""
        config = self.write_config(corpus)
        assert main(["all", "--config", str(config)]) == 0
        lines = self.selection_lines(corpus)
        assert lines[0] == "page_id\tauthor\tcontrib"
        ranks = {}
        for k, line in enumerate(lines[1:], start=1):
            if line:
                page, author, _contrib = line.split("\t")
                ranks[page] = ranks.get(page, 0) + 1
                lines[k] = f"{page}\t{author}\t{ranks[page]}"
        self.record_selection(corpus, ["page_id\tauthor\trank"] + lines[1:])
        capsys.readouterr()
        assert main(["score", "--config", str(config)]) == 2
        err = capsys.readouterr().err.strip().split("\n")
        assert len(err) == 1 and err[0].startswith("wikiq: error: ")
        assert "selection.tsv: line 1: expected the header" in err[0]

    def test_score_reads_no_contributions(self, corpus):
        """After `all`, score and eval of the longevity and combined models
        run without contributions.tsv and give those models the same
        scores.tsv rows."""
        config = self.write_config(corpus)
        assert main(["all", "--config", str(config)]) == 0
        work = Path(make_config(corpus).workdir)

        def rows():
            lines = (work / "scores.tsv").read_text().split("\n")[1:]
            return [line for line in lines
                    if line and line.split("\t")[1] in ("longevity", "com_pagerank")]

        before = rows()
        assert len(before) > 0
        (work / "contributions.tsv").unlink()
        for stage in ("score", "eval"):
            assert main([stage, "--config", str(config), "--model", "longevity",
                         "--model", "combined"]) == 0
        assert rows() == before
        assert "cen_pagerank" not in (work / "scores.tsv").read_text()

    @pytest.mark.parametrize("edit, message", [
        (lambda page: page["revisions"][1].__setitem__(
            slice(4, None), [[], len(page["revisions"][0][4]), 1]),
         "page {page_id}: revision {ordinal} keeps head {head} and tail 1"),
        (lambda page: [1], "a page line is list, not an object"),
        *[(lambda page, key=key: page.__delitem__(key),
           f"a page line has no {key!r} key")
          for key in ("page_id", "title", "namespace", "revisions")],
        (lambda page: page.update(revisions=5),
         "page {page_id}: revisions are not a list"),
        (lambda page: page["revisions"].__setitem__(1, 5),
         "page {page_id}: a revision row is 5, not a list"),
        *[(lambda page, tokens=tokens: page["revisions"][1].__setitem__(4, tokens),
           "page {page_id}: revision {ordinal}'s tokens are not a list of strings")
          for tokens in ("abc", ["a", 1])],
        *[(lambda page, value=value: page.update(page_id=value(page["page_id"])),
           f"a page line's page_id is {shown}, not an int")
          for value, shown in ((str, "'{page_id}'"), (float, "{page_id}.0"),
                               (lambda _: True, "True"))],
        (lambda page: page.update(title=5), "page {page_id}: the title is 5, not a string"),
        *[(lambda page, field=field, value=value: page["revisions"][1].__setitem__(
            field, value(page["revisions"][1][field])),
           f"page {{page_id}}: a revision row's ordinal, author and timestamp are "
           f"{shown}, not an int, a string and an int")
          for field, value, shown in (
              (0, str, "'{ordinal}', {name!r}, {ts}"),
              (1, lambda _: 5, "{ordinal}, 5, {ts}"),
              (3, str, "{ordinal}, {name!r}, '{ts}'"))],
    ], ids=["keeps-too-much", "list", "no-page_id", "no-title", "no-namespace",
            "no-revisions", "revisions-int", "row-int", "tokens-str", "tokens-int",
            "page_id-str", "page_id-float", "page_id-bool", "title-int",
            "ordinal-str", "author-int", "timestamp-str"])
    def test_impossible_history_row_exit_code(self, corpus, capsys, edit, message):
        """Line 2 of articles.jsonl, replaced by `edit(page)` or edited in
        place, with its hash recorded so the stale-artifact check passes
        it, exits 2 on contrib with one line that names the file and the
        line, and contrib writes nothing."""
        config = self.write_config(corpus)
        assert main(["ingest", "--config", str(config)]) == 0
        work = Path(make_config(corpus).workdir)
        articles = work / "articles.jsonl"
        lines = articles.read_text(encoding="utf-8").splitlines()
        page = json.loads(lines[1])
        ordinal, name, _kind, ts = page["revisions"][1][:4]
        message = message.format(page_id=page["page_id"], ordinal=ordinal, name=name,
                                 ts=ts, head=len(page["revisions"][0][4]))
        lines[1] = json.dumps(edit(page) or page, sort_keys=True)
        articles.write_text("\n".join(lines) + "\n", encoding="utf-8")
        manifest = json.loads((work / "manifest.json").read_text())
        manifest["ingest"]["outputs"]["articles.jsonl"] = hashlib.sha256(
            articles.read_bytes()).hexdigest()
        (work / "manifest.json").write_text(json.dumps(manifest))
        capsys.readouterr()
        assert main(["contrib", "--config", str(config)]) == 2
        err = capsys.readouterr().err.strip().split("\n")
        assert len(err) == 1 and err[0].startswith(
            f"wikiq: error: articles.jsonl: line 2: {message}")
        assert not (work / "contributions.tsv").exists()

    def test_blank_history_line_does_not_decode(self, tmp_path):
        """No writer emits a blank JSONL line, so one fails like any other
        line that does not decode."""
        path = tmp_path / "utp.jsonl"
        path.write_text("\n", encoding="utf-8")
        with open(path, encoding="utf-8") as fp, pytest.raises(
                ValueError, match="^utp.jsonl: line 1: "):
            list(pipeline._read_histories(fp))

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

    def test_runs_read_and_write_files_as_utf8(self, tmp_path):
        """`synth`, with and without `--spec`, and `all` twice, each in a
        new process under the C locale, where opening a text file without
        an encoding is an error. The config names a bot `Bøt`, which the C
        locale's ASCII cannot decode."""
        env = dict(os.environ, LC_ALL="C",
                   PYTHONPATH=str(Path(wikiq.__file__).resolve().parents[1]))
        spec = tmp_path / "spec.json"
        spec.write_text(json.dumps(dataclasses.asdict(small_spec())), encoding="utf-8")
        config = tmp_path / "config.json"
        config.write_text(json.dumps({
            "dump": str(tmp_path / "small" / "dump.xml"),
            "ratings": str(tmp_path / "small" / "ratings.tsv"),
            "workdir": str(tmp_path / "work"), "bot_list": ["Bøt"]},
            ensure_ascii=False), encoding="utf-8")
        for args in (["synth", "--out", str(tmp_path / "default")],
                     ["synth", "--spec", str(spec), "--out", str(tmp_path / "small")],
                     ["all", "--config", str(config)],
                     ["all", "--config", str(config)]):
            result = subprocess.run(
                [sys.executable, "-X", "utf8=0", "-X", "warn_default_encoding",
                 "-W", "error::EncodingWarning", "-m", "wikiq", *args],
                capture_output=True, text=True, encoding="utf-8", env=env,
                timeout=120)
            assert result.returncode == 0, (args, result.stderr)
        assert (tmp_path / "work" / "report.tsv").exists()

    def test_diff_subcommand(self, tmp_path, capsys):
        (tmp_path / "a.txt").write_text("the quick brown fox")
        (tmp_path / "b.txt").write_text("the brown fox jumps")
        assert main(["diff", str(tmp_path / "a.txt"),
                     str(tmp_path / "b.txt"), "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["inserted"] == 1 and payload["deleted"] == 1
        # [a, b] moved to the end: the moved mass, exactly as printed.
        (tmp_path / "a.txt").write_text("a b c d e f g h i j")
        (tmp_path / "b.txt").write_text("c d e f g h i j a b")
        args = ["diff", str(tmp_path / "a.txt"), str(tmp_path / "b.txt")]
        assert main(args + ["--json"]) == 0
        assert capsys.readouterr().out == (
            '{"deleted": 0, "distance": 3.1999999999999997, "inserted": 0, '
            '"moved_mass": 3.1999999999999997}\n')
        assert main(args) == 0
        assert capsys.readouterr().out == "I=0 D=0 M=3.2 d=3.2\n"

    def test_user_files_may_start_with_a_bom(self, corpus, capsys):
        """A UTF-8 BOM, which some editors save, is not part of a diff
        input, a synth spec, a ratings file or a config."""
        bom = "\ufeff"
        (corpus / "a.txt").write_text("the quick brown fox", encoding="utf-8")
        (corpus / "b.txt").write_text(bom + "the quick brown fox", encoding="utf-8")
        assert main(["diff", str(corpus / "a.txt"), str(corpus / "b.txt")]) == 0
        assert capsys.readouterr().out == "I=0 D=0 M=0 d=0\n"
        spec = json.dumps(dataclasses.asdict(small_spec()))
        for name, text in (("plain", spec), ("bom", bom + spec)):
            (corpus / f"{name}.json").write_text(text, encoding="utf-8")
            assert main(["synth", "--spec", str(corpus / f"{name}.json"),
                         "--out", str(corpus / name)]) == 0
        assert ((corpus / "plain" / "dump.xml").read_bytes()
                == (corpus / "bom" / "dump.xml").read_bytes())
        ratings = corpus / "bom-ratings.tsv"
        ratings.write_text(bom + (corpus / "ratings.tsv").read_text(encoding="utf-8"),
                           encoding="utf-8")
        bom_config = corpus / "bom-config.json"
        bom_config.write_text(bom + dataclasses.replace(
            make_config(corpus), workdir=str(corpus / "bom-config")).to_json(),
            encoding="utf-8")
        for config in (self.write_config(corpus),
                       self.write_config(corpus, "bom-ratings.json", ratings=str(ratings),
                                         workdir=str(corpus / "bom-ratings")),
                       bom_config):
            assert main(["all", "--config", str(config)]) == 0
        report = (corpus / "work" / "report.tsv").read_bytes()
        for workdir in ("bom-ratings", "bom-config"):
            assert (corpus / workdir / "report.tsv").read_bytes() == report
