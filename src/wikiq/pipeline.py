"""Staged pipeline over persisted TSV/JSONL intermediates.

`STAGE_TABLE` declares each stage once: the workdir artifacts it reads and
writes, the config fields that name the outside files it reads, and the
config fields its outputs depend on. `run_stage` computes the manifest entry
a run would record: the lineage's config values, the hashes and sizes of its
inputs, outside files by base name only, and a fingerprint of the program's
sources. That entry is the only record of what a stage ran with, so a corpus
and work directory moved elsewhere give the same bytes. `run_stage` refuses
an input whose hash or config differs from the manifest entry of the stage
that made it, so stale or missing intermediates never corrupt a run. It
skips the stage, writing nothing, when that entry equals the recorded one
and every output still has its recorded hash. Otherwise it runs the stage,
which writes its artifacts atomically (temp file + rename), and records the
entry with the output hashes.
"""

from __future__ import annotations

import contextlib
import dataclasses
import functools
import hashlib
import io
import json
import logging
import math
import os
import tempfile
import typing
from dataclasses import dataclass, field
from pathlib import Path
from typing import BinaryIO, Callable, Iterator, NamedTuple

from . import centrality as centrality_mod
from . import networks, quality, tsv
from .evaluation import (DEFAULT_RELEVANT, FILTER_CONFIGS, build_ranking,
                         ndcg, filtered_eval, percentile_table,
                         precision_recall)
from .ingest import (AuthorId, AuthorKind, BotConfig, Namespace, PageHistory,
                     RevisionRecord, load_ratings, parse_dump)
from .longevity import (SelectionParams, build_contributions,
                        read_contributions, read_selections, select_all,
                        write_contributions, write_selections)
from .worddiff import _common_run

log = logging.getLogger(__name__)

# the values RunConfig accepts for its network, metric and models fields
NETWORKS = ("coauthor", "talk-sig", "talk-hist")
METRICS = ("degree", "betweenness", "eigenvector", "pagerank")
MODELS = ("longevity", "centrality", "combined")


class PipelineError(ValueError):
    """Data or sequencing error; maps to exit code 2 in the CLI."""


def _is_a(value, hint) -> bool:
    """Whether a JSON value has a config field's type; a bool is no number."""
    if typing.get_origin(hint) is list:
        return isinstance(value, list) and all(
            _is_a(v, typing.get_args(hint)[0]) for v in value)
    if typing.get_origin(hint) is dict:
        key, item = typing.get_args(hint)
        return isinstance(value, dict) and all(
            _is_a(k, key) and _is_a(v, item) for k, v in value.items())
    types = (int, float) if hint is float else hint
    return isinstance(value, types) and (hint is bool or not isinstance(value, bool))


def _from_dict(cls, data, prefix: str = ""):
    """Build a config dataclass from parsed JSON; a ValueError names any key
    the class lacks or whose value has the wrong type."""
    if not isinstance(data, dict):
        raise ValueError(f"config: {repr(prefix[:-1]) if prefix else 'the file'} "
                         "is not a JSON object")
    hints = typing.get_type_hints(cls)
    for key, value in data.items():
        hint = hints.get(key)
        if hint is None:
            raise ValueError(f"config: unknown key {prefix + key!r}")
        if dataclasses.is_dataclass(hint):
            data[key] = _from_dict(hint, value, f"{prefix}{key}.")
        elif not _is_a(value, hint):
            raise ValueError(f"config key {prefix + key!r}: {value!r} is not a "
                             f"{hint.__name__ if isinstance(hint, type) else hint}")
    return cls(**data)


@dataclass
class RunConfig:
    dump: str = "dump.xml"
    ratings: str = "ratings.tsv"
    workdir: str = "work"
    selection: SelectionParams = field(default_factory=SelectionParams)
    exclude_bots: bool = True
    bot_list: list[str] = field(default_factory=list)
    bot_suffix_heuristic: bool = True
    network: str = "talk-hist"  # one of NETWORKS
    metric: str = "pagerank"  # one of METRICS
    damping: float = 0.85
    models: list[str] = field(default_factory=lambda: list(MODELS))
    eval_k: list[int] = field(default_factory=list)  # empty -> full corpus
    buckets: int = 10
    relevant_classes: list[str] = field(default_factory=lambda: sorted(DEFAULT_RELEVANT))

    def __post_init__(self):
        """Refuse a network, metric or model name outside its tuple, an
        eval cutoff below 1 and fewer than 2 buckets; this runs under
        dataclasses.replace too, so it checks CLI overrides."""
        for key, names in (("network", NETWORKS), ("metric", METRICS),
                           ("models", MODELS)):
            value = getattr(self, key)
            for name in value if key == "models" else [value]:
                if name not in names:
                    raise ValueError(f"config key {key!r}: unknown value "
                                     f"{name!r} (one of {', '.join(names)})")
        if not self.models:
            raise ValueError("config key 'models': no model named")
        if self.eval_k and min(self.eval_k) < 1:
            raise ValueError(f"config key 'eval_k': {min(self.eval_k)!r} is below 1")
        if self.buckets < 2:
            raise ValueError(f"config key 'buckets': {self.buckets!r} is below 2")

    def to_json(self) -> str:
        d = dataclasses.asdict(self)
        return json.dumps(d, indent=2, sort_keys=True) + "\n"

    @classmethod
    def from_json(cls, text: str) -> "RunConfig":
        return _from_dict(cls, json.loads(text))

    def bot_config(self) -> BotConfig:
        return BotConfig(
            names=frozenset(self.bot_list),
            suffix_heuristic=self.bot_suffix_heuristic,
        )


@contextlib.contextmanager
def _temp_file(path: Path) -> Iterator[tuple[str, BinaryIO]]:
    """A binary temp file beside `path`, deleted on exit unless it was
    renamed meanwhile, so readers never see partial output."""
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=path.name + ".tmp")
    try:
        with os.fdopen(fd, "w+b") as fp:
            yield tmp, fp
    finally:
        if os.path.exists(tmp):
            os.unlink(tmp)


def atomic_write(path: Path, write: Callable) -> None:
    """Write via temp file + rename so readers never see partial output."""
    with _temp_file(path) as (tmp, raw):
        with io.TextIOWrapper(raw, encoding="utf-8", newline="\n") as fp:
            write(fp)
        os.replace(tmp, path)


def _write_json(path: Path, obj) -> None:
    atomic_write(path, lambda fp: fp.write(json.dumps(obj, indent=2, sort_keys=True) + "\n"))


def _sha256(path: Path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fp:
        for chunk in iter(lambda: fp.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()


def _history_to_json(page: PageHistory) -> str:
    """One page as a JSON line. Each revision is a row `[ordinal, author,
    kind, timestamp, tokens]`, where `tokens` holds only what changed from
    the previous revision. A row that keeps the previous revision's first
    `head` and last `tail` tokens appends `head, tail`; the two runs are
    taken longest first, the tail only from what the head leaves of the
    shorter side, so `head + tail <= min(len(prev), len(tokens))`. A row
    that keeps nothing holds its full tokens and no `head, tail`, so a
    line whose rows keep nothing, as `utp.jsonl`'s do, is a line of the
    full-token format, which the decoder also reads."""
    rows, prev = [], []
    for r in page.revisions:
        tokens = r.tokens
        head = _common_run(prev, tokens, 0, 0)
        tail = _common_run(prev[head:][::-1], tokens[head:][::-1], 0, 0)
        rows.append([r.rev_ordinal, r.author.name, r.author.kind.value,
                     r.timestamp, tokens[head:len(tokens) - tail]]
                    + ([head, tail] if head or tail else []))
        prev = tokens
    return json.dumps({
        "page_id": page.page_id,
        "title": page.title,
        "namespace": page.namespace.value,
        "revisions": rows,
    }, sort_keys=True)


def _history_from_json(line: str) -> PageHistory:
    """Decode a `_history_to_json` line. A revision's kept head and tail
    are the previous revision's own `str` objects, so a decoded history
    costs memory in proportion to its edits."""
    d = json.loads(line)
    page_id, revisions, prev = d["page_id"], [], []
    for row in d["revisions"]:
        if len(row) not in (5, 7):
            raise ValueError(f"page {page_id}: a revision row has {len(row)} "
                             "fields, not 5 or 7")
        ordinal, name, kind, ts, tokens, *kept = row
        head, tail = kept or (0, 0)
        if not (type(head) is int and type(tail) is int
                and 0 <= head and 0 <= tail and head + tail <= len(prev)):
            raise ValueError(f"page {page_id}: revision {ordinal} keeps head "
                             f"{head!r} and tail {tail!r} of the previous "
                             f"revision's {len(prev)} tokens")
        if head or tail:
            tokens = prev[:head] + tokens + prev[len(prev) - tail:]
        revisions.append(RevisionRecord(
            page_id, ordinal, AuthorId(name, AuthorKind(kind)), ts, tokens))
        prev = tokens
    return PageHistory(
        page_id=page_id,
        title=d["title"],
        namespace=Namespace(d["namespace"]),
        revisions=revisions,
    )


def _read(path: Path, reader: Callable):
    with open(path, encoding="utf-8") as fp:
        return reader(fp)


def _read_histories(path: Path) -> Iterator[PageHistory]:
    """Decode a JSONL artifact one page at a time; a line that does not
    decode is a ValueError naming the file and line."""
    with open(path, encoding="utf-8") as fp:
        for number, line in enumerate(fp, start=1):
            if line.strip():
                try:
                    page = _history_from_json(line)
                except ValueError as exc:
                    raise ValueError(f"{path.name}: line {number}: {exc}") from None
                yield page


def _copy_by_page_id(src: BinaryIO, dst: BinaryIO) -> None:
    """Copy the JSONL page lines of `src` to `dst` in page_id order; pages
    that share an id keep their order in `src`."""
    src.seek(0)
    index, offset = [], 0
    for line in src:
        index.append((json.loads(line)["page_id"], offset, len(line)))
        offset += len(line)
    index.sort(key=lambda entry: entry[0])
    for _page_id, offset, length in index:
        src.seek(offset)
        dst.write(src.read(length))


def stage_ingest(cfg: RunConfig, root: Path) -> None:
    """Write each page's line as parse_dump yields it, so the stage holds
    one page at a time. Each artifact's lines go to a temp file, which
    replaces the artifact only once the whole dump has parsed. An artifact
    whose pages came out of page_id order is copied in order first; only
    then does the stage index its lines, so a dump in page_id order, as
    MediaWiki exports are, costs no memory per page."""
    names = {Namespace.ARTICLE: "articles.jsonl", Namespace.USER_TALK: "utp.jsonl"}
    with contextlib.ExitStack() as stack:
        temps = {ns: stack.enter_context(_temp_file(root / name))
                 for ns, name in names.items()}
        last_id, unordered = {}, set()
        with open(cfg.dump, "rb") as fp:
            for page in parse_dump(fp, cfg.bot_config()):
                ns = page.namespace
                if ns not in temps:
                    continue
                if ns is Namespace.USER_TALK:
                    for rev in page.revisions[:-1]:
                        rev.tokens = []
                if page.page_id < last_id.get(ns, page.page_id):
                    unordered.add(ns)
                last_id[ns] = page.page_id
                temps[ns][1].write(_history_to_json(page).encode() + b"\n")
        for ns in unordered:
            src = temps[ns][1]
            temps[ns] = stack.enter_context(_temp_file(root / names[ns]))
            _copy_by_page_id(src, temps[ns][1])
        for ns, (tmp, fp) in temps.items():
            fp.close()
            os.replace(tmp, root / names[ns])


def stage_contrib(cfg: RunConfig, root: Path) -> None:
    histories = _read_histories(root / "articles.jsonl")
    table = build_contributions(histories, drop_bots=cfg.exclude_bots)
    atomic_write(root / "contributions.tsv",
                 lambda fp: write_contributions(table, fp))


def stage_select(cfg: RunConfig, root: Path) -> None:
    table = _read(root / "contributions.tsv", read_contributions)
    selections = select_all(table, cfg.selection)
    atomic_write(root / "selection.tsv",
                 lambda fp: write_selections(selections, fp))


def stage_net(cfg: RunConfig, root: Path) -> None:
    selections = _read(root / "selection.tsv", read_selections)
    if cfg.network == "coauthor":
        graph = networks.build_coauthor(selections.values())
    else:
        build = (networks.build_talk_signature if cfg.network == "talk-sig"
                 else networks.build_talk_history)
        graph = build(_read_histories(root / "utp.jsonl"))
        # selected authors come from contributions, which drop bots under
        # exclude_bots, so the restriction drops the talk pages' bots too
        project_authors = {a for authors in selections.values() for a in authors}
        graph = networks.restrict_and_filter(graph, project_authors)
    atomic_write(root / "edges.tsv",
                 lambda fp: networks.write_edge_list(graph, fp))


def stage_centrality(cfg: RunConfig, root: Path) -> None:
    graph = _read(root / "edges.tsv", networks.read_edge_list)
    if graph.nodes:
        kwargs = {"damping": cfg.damping} if cfg.metric == "pagerank" else {}
        table = getattr(centrality_mod, cfg.metric)(graph, **kwargs)
    else:  # e.g. a dump without user talk pages under a talk network
        log.warning("the %s network has no nodes; writing an empty %s table",
                    graph.kind, cfg.metric)
        table = centrality_mod.CentralityTable(cfg.metric, graph.kind, {})
    atomic_write(root / "centrality.tsv",
                 lambda fp: centrality_mod.write_centrality(table, fp))


def stage_score(cfg: RunConfig, root: Path) -> None:
    selections = _read(root / "selection.tsv", read_selections)
    contributions = _read(root / "contributions.tsv", read_contributions)
    cent = _read(root / "centrality.tsv", centrality_mod.read_centrality)
    tables = []
    if "longevity" in cfg.models:
        tables.append(quality.longevity_qscore(selections, contributions))
    if "centrality" in cfg.models:
        tables.append(quality.centrality_qscore(selections, cent))
    if "combined" in cfg.models:
        tables.append(quality.combined_qscore(selections, contributions, cent))
    atomic_write(root / "scores.tsv",
                 lambda fp: quality.write_scores(tables, fp))
    _write_json(root / "provenance.json",
                {"models": {t.model: t.provenance for t in tables}})


def stage_eval(cfg: RunConfig, root: Path) -> None:
    by_model = _read(root / "scores.tsv", quality.read_scores)
    labels = _read(Path(cfg.ratings), load_ratings)
    ks = cfg.eval_k or [len(labels)]
    rankings = {model: build_ranking(by_model[model], labels)
                for model in sorted(by_model)}

    def ndcg_row(model, configuration, compute):
        try:
            return model, configuration, compute()
        except ValueError as exc:  # a degenerate label subset
            log.warning("NDCG undefined for model %s, %s: %s; writing nan",
                        model, configuration, exc)
            return model, configuration, math.nan

    def write_report(fp):
        rows = []
        for model, ranking in rankings.items():
            for k in ks:
                rows.append(ndcg_row(model, f"all@k={k}", lambda: ndcg(
                    ranking, k=min(k, len(labels)))))
            for name, keep in FILTER_CONFIGS:
                rows.append(ndcg_row(model, name,
                                     lambda: filtered_eval(ranking, keep)))
        tsv.write_rows(fp, ("model", "configuration", "ndcg"), rows)

    def write_percentiles(fp):
        tables = {model: percentile_table(ranking, cfg.buckets)
                  for model, ranking in rankings.items()}
        tsv.write_rows(fp, ("model", "class", "bucket", "proportion"), [
            (model, cls, b, prop) for model, table in tables.items()
            for cls in sorted(table) for b, prop in enumerate(table[cls], start=1)])

    def write_pr(fp):
        rows = []
        for model, ranking in rankings.items():
            try:
                curve = precision_recall(ranking, cfg.relevant_classes)
            except ValueError as exc:  # no relevant or no irrelevant page
                log.warning("PR curve undefined for model %s: %s; writing "
                            "no rows", model, exc)
                continue
            rows += [(model, cutoff, recall, precision)
                     for cutoff, (recall, precision) in enumerate(curve, start=1)]
        tsv.write_rows(fp, ("model", "cutoff", "recall", "precision"), rows)

    atomic_write(root / "report.tsv", write_report)
    atomic_write(root / "percentiles.tsv", write_percentiles)
    atomic_write(root / "pr_curve.tsv", write_pr)


class Stage(NamedTuple):
    name: str
    inputs: tuple[str, ...]  # workdir artifacts, each made by an earlier stage
    outputs: tuple[str, ...]
    config_keys: tuple[str, ...]  # RunConfig fields the stage itself reads
    fn: Callable[[RunConfig, Path], None]  # writes the outputs under a root
    # RunConfig fields naming the outside files the stage reads, recorded
    # among its inputs by base name, hash and size, never by path
    files: tuple[str, ...] = ()


STAGE_TABLE = (
    # utp.jsonl keeps every user-talk revision's author and timestamp but the
    # tokens of the current one only: the talk networks read nothing else.
    Stage("ingest", (), ("articles.jsonl", "utp.jsonl"),
          ("bot_list", "bot_suffix_heuristic"), stage_ingest, ("dump",)),
    Stage("contrib", ("articles.jsonl",), ("contributions.tsv",),
          ("exclude_bots",), stage_contrib),
    Stage("select", ("contributions.tsv",), ("selection.tsv",),
          ("selection",), stage_select),
    Stage("net", ("utp.jsonl", "selection.tsv"), ("edges.tsv",),
          ("network",), stage_net),
    Stage("centrality", ("edges.tsv",), ("centrality.tsv",),
          ("metric", "damping"), stage_centrality),
    Stage("score", ("selection.tsv", "contributions.tsv", "centrality.tsv"),
          ("scores.tsv", "provenance.json"), ("models",), stage_score),
    Stage("eval", ("scores.tsv",), ("report.tsv", "percentiles.tsv", "pr_curve.tsv"),
          ("eval_k", "buckets", "relevant_classes"), stage_eval, ("ratings",)),
)
STAGES = tuple(s.name for s in STAGE_TABLE)
ARTIFACTS = {s.name: s.outputs for s in STAGE_TABLE}
PRODUCER = {name: s for s in STAGE_TABLE for name in s.outputs}
_BY_NAME = {s.name: s for s in STAGE_TABLE}


def _lineage(stage: Stage) -> list[Stage]:
    """The stage and every stage upstream of it, in table order."""
    names = {stage.name}
    for s in reversed(STAGE_TABLE):
        if s.name in names:
            names.update(PRODUCER[name].name for name in s.inputs)
    return [s for s in STAGE_TABLE if s.name in names]


def _config_values(data: dict, stage: Stage) -> dict:
    """The config values a stage's outputs depend on (its lineage's
    config_keys), from the config's JSON form `data`, nested fields as dotted
    keys."""
    values = {}
    for key in {k for s in _lineage(stage) for k in s.config_keys}:
        value = data[key]
        values.update({f"{key}.{k}": v for k, v in value.items()}
                      if isinstance(value, dict) else {key: value})
    return values


def _input_file(config: RunConfig, key: str) -> tuple[Path, os.stat_result]:
    """The input file a config field names, and its stat."""
    path = Path(getattr(config, key))
    try:
        return path, path.stat()
    except FileNotFoundError:
        raise PipelineError(f"{key} not found: {path}") from None


def _written_ns(root: Path, stage: Stage) -> int:
    """The mtime of a stage's oldest output, -1 if one is missing."""
    try:
        return min((root / name).stat().st_mtime_ns for name in stage.outputs)
    except FileNotFoundError:
        return -1


@functools.cache
def _program() -> str:
    """A sha256 over the sources of the wikiq package's modules, taken once
    per process, so a stage that ran under other code runs again."""
    h = hashlib.sha256()
    for path in sorted(Path(__file__).parent.glob("*.py")):
        source = path.read_bytes()
        h.update(b"%s\0%d\0" % (path.name.encode(), len(source)) + source)
    return h.hexdigest()


def _entry(stage: Stage, config: RunConfig, data: dict, manifest: dict) -> dict:
    """The manifest entry a run of `stage` would record, but its outputs:
    its lineage's config values, its input hashes, the sizes of the input
    files it reads (both keyed by base name), and the program. `data` is
    the config as JSON stores it.

    Hashes each input once and refuses a missing input, one whose hash is
    not the one its producer recorded, any upstream stage that ran under
    other config values, and an input file that changed since an upstream
    stage read it. Such a file is re-hashed only if its size differs from
    the recorded one or it is not older than that stage's outputs, so the
    record stays free of timestamps."""
    hashes, sizes = {}, {}
    for key in stage.files:
        path, st = _input_file(config, key)
        hashes[path.name], sizes[path.name] = _sha256(path), st.st_size
    for name in stage.inputs:
        producer = PRODUCER[name].name
        path = Path(config.workdir) / name
        if not path.exists():
            raise PipelineError(f"stage {stage.name!r}: missing artifact "
                                f"{name} (run {producer!r} first)")
        hashes[name] = _sha256(path)
        if manifest.get(producer, {}).get("outputs", {}).get(name) != hashes[name]:
            raise PipelineError(f"stage {stage.name!r}: artifact {name} does not "
                                f"match the manifest (stale; re-run {producer!r})")
    for upstream in _lineage(stage)[:-1]:
        entry = manifest.get(upstream.name, {})
        recorded = entry.get("config", {})
        for key, value in sorted(_config_values(data, upstream).items()):
            if key not in recorded or recorded[key] != value:
                raise PipelineError(
                    f"stage {stage.name!r}: {upstream.name!r} ran with {key}="
                    f"{recorded.get(key)!r}, the config has {value!r} "
                    f"(re-run {upstream.name!r})")
        for key in upstream.files:
            path, st = _input_file(config, key)
            if ((st.st_size != entry.get("sizes", {}).get(path.name)
                 or st.st_mtime_ns >= _written_ns(Path(config.workdir), upstream))
                    and _sha256(path) != entry.get("inputs", {}).get(path.name)):
                raise PipelineError(
                    f"stage {stage.name!r}: {key} {path} changed since "
                    f"{upstream.name!r} read it (re-run {upstream.name!r})")
    return {"config": _config_values(data, stage), "inputs": hashes,
            "program": _program(), "sizes": sizes}


def _stale_part(stage: Stage, entry: dict, recorded: dict | None,
                root: Path) -> str | None:
    """Why a run of `stage` may not be skipped: the first part in which
    `entry` differs from the recorded entry (a config key, an input, the
    program), else an output that is missing or lost its recorded hash.
    None means the stage is up to date."""
    if recorded is None:
        return "no recorded run"
    for part, what in (("config", "config key"), ("inputs", "input")):
        old = recorded.get(part, {})
        for key in sorted(entry[part].keys() | old.keys()):
            if entry[part].get(key) != old.get(key):
                return f"{what} {key} changed"
    if entry["program"] != recorded.get("program"):
        return "program changed"
    for name in stage.outputs:
        path = root / name
        if not path.exists():
            return f"output {name} missing"
        if _sha256(path) != recorded.get("outputs", {}).get(name):
            return f"output {name} changed"
    return None


def run_stage(stage: str, config: RunConfig) -> None:
    """Run one stage once its inputs pass the manifest checks, then record
    the stage in the manifest. A refused stage writes nothing, and so does
    one that is up to date. Logs at INFO whether the stage ran, and why, or
    was skipped."""
    if stage not in _BY_NAME:
        raise PipelineError(f"unknown stage {stage!r}")
    spec = _BY_NAME[stage]
    root = Path(config.workdir)
    manifest_path = root / "manifest.json"
    manifest = (json.loads(manifest_path.read_text())
                if manifest_path.exists() else {})
    data = json.loads(config.to_json())
    entry = _entry(spec, config, data, manifest)
    stale = _stale_part(spec, entry, manifest.get(stage), root)
    if stale is None:
        log.info("stage %s skipped in %s: up to date", stage, root)
        return
    root.mkdir(parents=True, exist_ok=True)
    spec.fn(config, root)
    entry["outputs"] = {name: _sha256(root / name) for name in spec.outputs}
    manifest[stage] = entry
    _write_json(manifest_path, manifest)
    log.info("stage %s ran in %s: %s", stage, root, stale)


def run_all(config: RunConfig) -> None:
    for stage in STAGES:
        run_stage(stage, config)
