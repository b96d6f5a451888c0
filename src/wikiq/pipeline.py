"""Staged pipeline over persisted TSV/JSONL intermediates.

`STAGE_TABLE` declares each stage once: the workdir artifacts it reads and
writes, the config fields that name the outside files it reads, the config
fields its outputs depend on, and the reader of each TSV artifact and of the
ratings. Each artifact name is written there and nowhere else: `run_stage`
opens the files, and a stage function gets each input by keyword, the name's
stem. A stage receives its inputs already parsed where a reader is declared:
every TSV input and the ratings. The JSONL inputs come as open files, to be
streamed. A parsed value is kept for the rest of the process, one per
artifact name, under the sha256 that `run_stage` has just checked, so a grid
of runs parses each artifact's content once.

`run_stage` computes the manifest entry a run would record: the lineage's
config values, the hashes of its inputs, outside files by base name only,
and a fingerprint of the program's sources. That entry is the only record
of what a stage ran with, so a corpus and work directory moved elsewhere
give the same bytes. One rule says whether a stage's recorded run is
current: the entry it would record now has the recorded config values and
input hashes (`_changed_part`).
`run_stage` refuses a missing artifact, one whose hash is not its
producer's record, and a stage with an upstream stage that is not current,
naming the first to re-run, so stale or missing intermediates never
corrupt a run. It skips the stage, writing nothing, when the stage itself
is current, ran under this program, and every output still has its
recorded hash. Otherwise it runs the stage with a temp file beside each
output, and only once the stage has returned renames them, then the
manifest with the entry and the output hashes over the old one, so a stage
that fails leaves the work directory as it was.
"""

from __future__ import annotations

import contextlib
import dataclasses
import functools
import hashlib
import json
import logging
import math
import os
import shutil
import tempfile
import typing
from dataclasses import dataclass, field
from itertools import pairwise
from pathlib import Path
from typing import IO, Callable, Iterator, NamedTuple

from . import centrality as centrality_mod
from . import networks, quality, tsv
from .evaluation import (DEFAULT_RELEVANT, FILTER_CONFIGS, build_ranking,
                         ndcg, filtered_eval, percentile_table,
                         precision_recall)
from .ingest import (QUALITY_CLASSES, AuthorId, AuthorKind, BotConfig, Namespace,
                     PageHistory, RevisionRecord, canonical_name, load_ratings,
                     parse_dump)
from .longevity import (ContributionTable, SelectionParams, build_contributions,
                        read_contributions, select_all, write_contributions)
from .worddiff import _common_run, _common_tail

log = logging.getLogger(__name__)

# a selection is a sub-table of the contribution table, in the same codec
read_selections, write_selections = read_contributions, write_contributions

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
    """Build a config dataclass from parsed JSON, with a float key's value as
    a float; a ValueError names any key the class lacks, whose value has the
    wrong type, or whose integer no float holds."""
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
        elif hint is float:  # 1 and 1.0 are one value, so they must write one text
            try:
                data[key] = float(value)
            except OverflowError:
                raise ValueError(f"config key {prefix + key!r}: integer too large "
                                 "for a float") from None
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
        """Refuse a network, metric, model or relevant class name that the
        pipeline does not know, a damping or selection.theta outside [0, 1],
        a NaN selection.min_contrib (it would equal no recorded value), an
        eval cutoff below 1 and fewer than 2 buckets; this runs under
        dataclasses.replace too, so it checks CLI overrides."""
        for key, names in (("network", NETWORKS), ("metric", METRICS),
                           ("models", MODELS), ("relevant_classes", QUALITY_CLASSES)):
            value = getattr(self, key)
            for name in value if isinstance(value, list) else [value]:
                if name not in names:
                    raise ValueError(f"config key {key!r}: unknown value "
                                     f"{name!r} (one of {', '.join(names)})")
        if not self.models:
            raise ValueError("config key 'models': no model named")
        for key, value in (("damping", self.damping),
                           ("selection.theta", self.selection.theta)):
            if not 0 <= value <= 1:  # NaN too
                raise ValueError(f"config key {key!r}: {value!r} is outside [0, 1]")
        if math.isnan(self.selection.min_contrib):
            raise ValueError("config key 'selection.min_contrib': nan is not a number")
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
            names=frozenset(map(canonical_name, self.bot_list)),
            suffix_heuristic=self.bot_suffix_heuristic,
        )


@contextlib.contextmanager
def _temp_file(path: Path) -> Iterator[IO[str]]:
    """A UTF-8 temp file beside `path`, named by its `name`, open for
    writing and reading back; deleted on exit unless it was renamed."""
    with tempfile.NamedTemporaryFile("w+", encoding="utf-8", newline="\n", dir=path.parent,
                                     prefix=path.name + ".tmp", delete=False) as fp:
        try:
            yield fp
        finally:
            if os.path.exists(fp.name):
                os.unlink(fp.name)


def _write_json(fp: IO[str], obj) -> None:
    fp.write(json.dumps(obj, indent=2, sort_keys=True) + "\n")


def _sha256(path: Path) -> str:
    # One reused buffer: a fresh chunk per read would keep the last one
    # alive while the next is read, and set the run's peak memory.
    h, buf = hashlib.sha256(), bytearray(1 << 16)
    view = memoryview(buf)
    with open(path, "rb", buffering=0) as fp:
        while n := fp.readinto(buf):
            h.update(view[:n])
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
        tail = _common_tail(prev, tokens, head)
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
    """Decode a `_history_to_json` line; a line of another shape is a
    ValueError. A revision's kept head and tail are the previous revision's
    own `str` objects, so a decoded history costs memory in proportion to
    its edits."""
    d = json.loads(line)
    if type(d) is not dict:
        raise ValueError(f"a page line is {type(d).__name__}, not an object")
    for key in ("page_id", "title", "namespace", "revisions"):
        if key not in d:
            raise ValueError(f"a page line has no {key!r} key")
    page_id, revisions, prev = d["page_id"], [], []
    if type(page_id) is not int:
        raise ValueError(f"a page line's page_id is {page_id!r}, not an int")
    if type(d["title"]) is not str:
        raise ValueError(f"page {page_id}: the title is {d['title']!r}, not a string")
    if type(d["revisions"]) is not list:
        raise ValueError(f"page {page_id}: revisions are not a list")
    for row in d["revisions"]:
        if type(row) is not list:
            raise ValueError(f"page {page_id}: a revision row is {row!r}, not a list")
        if len(row) not in (5, 7):
            raise ValueError(f"page {page_id}: a revision row has {len(row)} "
                             "fields, not 5 or 7")
        ordinal, name, kind, ts, tokens, *kept = row
        if not (type(ordinal) is type(ts) is int and type(name) is str):
            raise ValueError(f"page {page_id}: a revision row's ordinal, author and "
                             f"timestamp are {ordinal!r}, {name!r}, {ts!r}, not an "
                             "int, a string and an int")
        if type(tokens) is not list or not {*map(type, tokens)} <= {str}:
            raise ValueError(f"page {page_id}: revision {ordinal}'s tokens are "
                             "not a list of strings")
        head, tail = kept or (0, 0)
        if not (type(head) is int and type(tail) is int
                and 0 <= head and 0 <= tail and head + tail <= len(prev)):
            raise ValueError(f"page {page_id}: revision {ordinal} keeps head "
                             f"{head!r} and tail {tail!r} of the previous "
                             f"revision's {len(prev)} tokens")
        if head or tail:
            tokens = prev[:head] + tokens + prev[len(prev) - tail:]
        revisions.append(
            RevisionRecord(ordinal, AuthorId(name, AuthorKind(kind)), ts, tokens))
        prev = tokens
    return PageHistory(
        page_id=page_id,
        title=d["title"],
        namespace=Namespace(d["namespace"]),
        revisions=revisions,
    )


def _read_histories(fp: IO[str]) -> Iterator[PageHistory]:
    """Decode a JSONL artifact one page at a time; a line that does not
    decode is a ValueError naming the file and line."""
    for number, line in enumerate(fp, start=1):
        try:
            page = _history_from_json(line)
        except ValueError as exc:
            raise ValueError(f"{Path(fp.name).name}: line {number}: {exc}") from None
        yield page


def _sort_by_page_id(fp: IO[str]) -> None:
    """Rewrite the JSONL page lines of `fp` in page_id order, from a copy,
    over the same bytes; two pages that share an id are refused."""
    fp.flush()
    with tempfile.TemporaryFile(dir=Path(fp.name).parent) as src:
        fp.buffer.seek(0)
        shutil.copyfileobj(fp.buffer, src)
        src.seek(0)
        index, offset = [], 0
        for line in src:
            index.append((json.loads(line)["page_id"], offset, len(line)))
            offset += len(line)
        index.sort(key=lambda entry: entry[0])
        for (page_id, _, _), (next_id, _, _) in pairwise(index):
            if page_id == next_id:
                raise PipelineError(f"two pages have page id {page_id}")
        fp.buffer.seek(0)
        for _page_id, offset, length in index:
            src.seek(offset)
            fp.buffer.write(src.read(length))


def stage_ingest(cfg: RunConfig, articles: IO[str], utp: IO[str]) -> None:
    """Write each page's line as parse_dump yields it, so the stage holds
    one page at a time. An artifact whose pages came out of page_id order
    is sorted once the whole dump has parsed; only then does the stage
    index its lines, so a dump in page_id order, as MediaWiki exports are,
    costs no memory per page.

    A dump with article revisions none of which holds text is refused: a
    stub export, whose every page would be judged empty. So are two pages
    of one namespace with one id: their contributions would merge under
    it, and one page's rating would score the other's."""
    out = {Namespace.ARTICLE: articles, Namespace.USER_TALK: utp}
    last_id, unordered = {}, set()
    # whether some article revision was read, and whether one held text
    revisions = text = False
    with open(cfg.dump, "rb") as fp:
        for page in parse_dump(fp, cfg.bot_config()):
            ns = page.namespace
            if ns not in out:
                continue
            if ns is Namespace.ARTICLE and not text:
                revisions = revisions or bool(page.revisions)
                text = any(rev.tokens for rev in page.revisions)
            # page ids are not negative: -1 precedes every one
            last = last_id.get(ns, -1)
            if page.page_id == last:
                raise PipelineError(f"two pages have page id {last}")
            if page.page_id < last:
                unordered.add(ns)
            last_id[ns] = page.page_id
            out[ns].write(_history_to_json(page) + "\n")
    if revisions and not text:
        raise PipelineError(f"{Path(cfg.dump).name}: no revision has text; "
                            "a stub export?")
    for ns in unordered:
        _sort_by_page_id(out[ns])


def stage_contrib(cfg: RunConfig, articles: IO[str], contributions: IO[str]) -> None:
    table = build_contributions(_read_histories(articles), drop_bots=cfg.exclude_bots)
    write_contributions(table, contributions)


def stage_select(cfg: RunConfig, contributions: ContributionTable,
                 selection: IO[str]) -> None:
    write_selections(select_all(contributions, cfg.selection), selection)


def stage_net(cfg: RunConfig, utp: IO[str], selection: ContributionTable,
              edges: IO[str]) -> None:
    if cfg.network == "coauthor":
        graph = networks.build_coauthor(selection.values())
    else:
        build = (networks.build_talk_signature if cfg.network == "talk-sig"
                 else networks.build_talk_history)
        graph = build(_read_histories(utp))
        # selected authors come from contributions, which drop bots under
        # exclude_bots, so the restriction drops the talk pages' bots too
        project_authors = {a for authors in selection.values() for a in authors}
        if cfg.network == "talk-sig":
            graph = networks.resolve_signers(graph, project_authors)
        graph = networks.restrict_and_filter(graph, project_authors)
    networks.write_edge_list(graph, edges)


def stage_centrality(cfg: RunConfig, edges: networks.AuthorGraph,
                     centrality: IO[str]) -> None:
    if edges.nodes:
        kwargs = {"damping": cfg.damping} if cfg.metric == "pagerank" else {}
        table = getattr(centrality_mod, cfg.metric)(edges, **kwargs)
    else:  # e.g. a dump without user talk pages under a talk network
        log.warning("the %s network has no nodes; writing an empty %s table",
                    edges.kind, cfg.metric)
        table = centrality_mod.CentralityTable(cfg.metric, edges.kind, {})
    centrality_mod.write_centrality(table, centrality)


def stage_score(cfg: RunConfig, selection: ContributionTable,
                centrality: centrality_mod.CentralityTable,
                scores: IO[str], provenance: IO[str]) -> None:
    tables = []
    if "longevity" in cfg.models:
        tables.append(quality.longevity_qscore(selection))
    if "centrality" in cfg.models:
        tables.append(quality.centrality_qscore(selection, centrality))
    if "combined" in cfg.models:
        tables.append(quality.combined_qscore(selection, centrality))
    quality.write_scores(tables, scores)
    _write_json(provenance, {"models": {t.model: t.provenance for t in tables}})


def stage_eval(cfg: RunConfig, scores: dict[str, dict[int, float]],
               ratings: dict[int, str], report: IO[str],
               percentiles: IO[str], pr_curve: IO[str]) -> None:
    """Refuses a run in which no rated page has a score: its report would
    hold no row, or rank every rated page at score 0."""
    if not any(ratings.keys() & scored.keys() for scored in scores.values()):
        raise PipelineError(f"stage 'eval': no page that {Path(cfg.ratings).name} "
                            "rates has a score")
    ks = cfg.eval_k or [len(ratings)]
    rankings = {model: build_ranking(scores[model], ratings)
                for model in sorted(scores)}

    def ndcg_row(model, configuration, compute):
        try:
            return model, configuration, compute()
        except ValueError as exc:  # a degenerate label subset
            log.warning("NDCG undefined for model %s, %s: %s; writing nan",
                        model, configuration, exc)
            return model, configuration, math.nan

    rows = []
    for model, ranking in rankings.items():
        for k in ks:
            rows.append(ndcg_row(model, f"all@k={k}", lambda: ndcg(
                ranking, k=min(k, len(ratings)))))
        for name, keep in FILTER_CONFIGS:
            rows.append(ndcg_row(model, name, lambda: filtered_eval(ranking, keep)))
    tsv.write_rows(report, ("model", "configuration", "ndcg"), rows)

    tables = {model: percentile_table(ranking, cfg.buckets)
              for model, ranking in rankings.items()}
    tsv.write_rows(percentiles, ("model", "class", "bucket", "proportion"), [
        (model, cls, b, prop) for model, table in tables.items()
        for cls in sorted(table) for b, prop in enumerate(table[cls], start=1)])

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
    tsv.write_rows(pr_curve, ("model", "cutoff", "recall", "precision"), rows)


class Stage(NamedTuple):
    name: str
    inputs: tuple[str, ...]  # workdir artifacts, each made by an earlier stage
    outputs: tuple[str, ...]
    config_keys: tuple[str, ...]  # RunConfig fields the stage itself reads
    fn: Callable[..., None]  # fn(cfg, **files), each keyed by its name's stem
    # RunConfig fields naming the outside files the stage reads, recorded
    # among its inputs by base name and content hash, never by path
    files: tuple[str, ...] = ()
    # The reader that parses each output for the stages that read it, and
    # each of `files` for this stage. An input without one reaches `fn` as
    # an open text file, and an outside file without one is not passed. A
    # reader looks its function up when called, under the name a tracer
    # may have wrapped.
    readers: dict[str, Callable[[IO[str]], object]] = {}


STAGE_TABLE = (
    # utp.jsonl keeps every user-talk revision's author and timestamp but the
    # tokens of the current one only: the talk networks read nothing else.
    Stage("ingest", (), ("articles.jsonl", "utp.jsonl"),
          ("bot_list", "bot_suffix_heuristic"), stage_ingest, ("dump",)),
    Stage("contrib", ("articles.jsonl",), ("contributions.tsv",),
          ("exclude_bots",), stage_contrib,
          readers={"contributions.tsv": lambda fp: read_contributions(fp)}),
    Stage("select", ("contributions.tsv",), ("selection.tsv",),
          ("selection",), stage_select,
          readers={"selection.tsv": lambda fp: read_selections(fp)}),
    Stage("net", ("utp.jsonl", "selection.tsv"), ("edges.tsv",),
          ("network",), stage_net,
          readers={"edges.tsv": lambda fp: networks.read_edge_list(fp)}),
    Stage("centrality", ("edges.tsv",), ("centrality.tsv",),
          ("metric", "damping"), stage_centrality,
          readers={"centrality.tsv": lambda fp: centrality_mod.read_centrality(fp)}),
    Stage("score", ("selection.tsv", "centrality.tsv"),
          ("scores.tsv", "provenance.json"), ("models",), stage_score,
          readers={"scores.tsv": lambda fp: quality.read_scores(fp)}),
    Stage("eval", ("scores.tsv",), ("report.tsv", "percentiles.tsv", "pr_curve.tsv"),
          ("eval_k", "buckets", "relevant_classes"), stage_eval, ("ratings",),
          readers={"ratings": lambda fp: load_ratings(fp)}),
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


@functools.cache
def _program() -> str:
    """A sha256 over the sources of the wikiq package's modules, taken once
    per process, so a stage that ran under other code runs again."""
    h = hashlib.sha256()
    for path in sorted(Path(__file__).parent.glob("*.py")):
        source = path.read_bytes()
        h.update(b"%s\0%d\0" % (path.name.encode(), len(source)) + source)
    return h.hexdigest()


@functools.cache
def _content_hash(path: Path, identity: tuple) -> str:
    """`_sha256(path)`, taken once per process for each `identity`, the
    file's (device, inode, size, mtime, ctime). A rewrite changes the ctime,
    which no user-level tool can set back, so a file rewritten to its old
    size and mtime is hashed again."""
    return _sha256(path)


def _entry(stage: Stage, config: RunConfig, data: dict, manifest: dict) -> dict:
    """The manifest entry a run of `stage` would record now, but its
    outputs: its lineage's config values, its input hashes keyed by base
    name, and the program. `data` is the config as JSON stores it. An
    outside file is hashed by its content, and refused if missing; an
    artifact's hash is its producer's record."""
    hashes = {}
    for key in stage.files:
        path = Path(getattr(config, key))
        try:
            st = path.stat()
        except FileNotFoundError:
            raise PipelineError(f"{key} not found: {path}") from None
        hashes[path.name] = _content_hash(path, (
            st.st_dev, st.st_ino, st.st_size, st.st_mtime_ns, st.st_ctime_ns))
    for name in stage.inputs:
        hashes[name] = manifest.get(PRODUCER[name].name, {}).get("outputs", {}).get(name)
    return {"config": _config_values(data, stage), "inputs": hashes,
            "program": _program()}


def _changed_part(entry: dict, recorded: dict) -> str | None:
    """The first config key, then input, in which `entry` differs from the
    recorded entry, as "config key K changed" or "input I changed"."""
    for part, what in (("config", "config key"), ("inputs", "input")):
        old = recorded.get(part, {})
        for key in sorted(entry[part].keys() | old.keys()):
            if entry[part].get(key) != old.get(key):
                return f"{what} {key} changed"
    return None


def _stale_part(stage: Stage, entry: dict, recorded: dict | None,
                root: Path) -> str | None:
    """Why a run of `stage` may not be skipped: the first part in which
    `entry` differs from the recorded entry (a config key, an input, the
    program), else an output that is missing or lost its recorded hash.
    None means the stage is up to date."""
    if recorded is None:
        return "no recorded run"
    changed = _changed_part(entry, recorded)
    if changed:
        return changed
    if entry["program"] != recorded.get("program"):
        return "program changed"
    for name in stage.outputs:
        path = root / name
        if not path.exists():
            return f"output {name} missing"
        if _sha256(path) != recorded.get("outputs", {}).get(name):
            return f"output {name} changed"
    return None


# the JSON type of each field of a manifest entry
_ENTRY_FIELDS = {"config": dict, "inputs": dict, "outputs": dict, "program": str}

# artifact name (or outside file's config field) -> (sha256, parsed value)
# of its last parse in this process; no stage changes what it is handed
_PARSED: dict[str, tuple[str, object]] = {}


def _parsed(name: str, digest: str, path: Path | str,
            reader: Callable[[IO[str]], object]):
    """What `reader` makes of the file at `path`, whose sha256 `digest`
    run_stage has just checked: the memo's value if it parsed those bytes
    under that name, else a new parse, which replaces it. The file is
    UTF-8, with or without the BOM an editor may save a ratings file with."""
    if name in _PARSED and _PARSED[name][0] == digest:
        return _PARSED[name][1]
    _PARSED.pop(name, None)  # let the old value go before the new is made
    with open(path, encoding="utf-8-sig") as fp:
        value = reader(fp)
    _PARSED[name] = (digest, value)
    return value


def run_stage(stage: str, config: RunConfig) -> None:
    """Run one stage once its inputs pass the manifest checks, then commit
    its outputs and its manifest entry together. A refused stage writes
    nothing, and so does one that is up to date or fails. Logs at INFO
    whether the stage ran, and why, or was skipped."""
    if stage not in _BY_NAME:
        raise PipelineError(f"unknown stage {stage!r}")
    spec = _BY_NAME[stage]
    root = Path(config.workdir)
    manifest_path = root / "manifest.json"
    manifest = {}
    if manifest_path.exists():
        try:
            manifest = json.loads(manifest_path.read_text(encoding="utf-8"))
        except ValueError as exc:
            raise PipelineError(f"{manifest_path}: {exc}") from None
        if not (isinstance(manifest, dict) and all(
                isinstance(entry, dict) and all(
                    isinstance(value, _ENTRY_FIELDS.get(key, object))
                    for key, value in entry.items())
                for entry in manifest.values())):
            raise PipelineError(f"{manifest_path}: not a JSON object of stage entries")
    data = dataclasses.asdict(config)
    entry = _entry(spec, config, data, manifest)
    for name in spec.inputs:
        producer = PRODUCER[name].name
        if not (root / name).exists():
            raise PipelineError(f"stage {stage!r}: missing artifact "
                                f"{name} (run {producer!r} first)")
        if _sha256(root / name) != entry["inputs"][name]:
            raise PipelineError(f"stage {stage!r}: artifact {name} does not "
                                f"match the manifest (stale; re-run {producer!r})")
    for upstream in _lineage(spec)[:-1]:
        changed = _changed_part(_entry(upstream, config, data, manifest),
                                manifest.get(upstream.name, {}))
        if changed:
            raise PipelineError(f"stage {stage!r}: {changed} since {upstream.name!r} "
                                f"ran (re-run {upstream.name!r})")
    stale = _stale_part(spec, entry, manifest.get(stage), root)
    if stale is None:
        log.info("stage %s skipped in %s: up to date", stage, root)
        return
    for name in spec.outputs:  # about to be rewritten, so never read again
        _PARSED.pop(name, None)
    root.mkdir(parents=True, exist_ok=True)
    with contextlib.ExitStack() as stack:
        files = {}
        for name in spec.inputs + spec.files:  # artifact names, then config fields
            artifact = name in PRODUCER
            path = root / name if artifact else getattr(config, name)
            reader = (PRODUCER[name] if artifact else spec).readers.get(name)
            if reader is not None:
                files[Path(name).stem] = _parsed(
                    name, entry["inputs"][Path(path).name], path, reader)
            elif artifact:
                files[Path(name).stem] = stack.enter_context(
                    open(path, encoding="utf-8"))
        temps = {name: stack.enter_context(_temp_file(root / name))
                 for name in spec.outputs}
        spec.fn(config, **files, **{Path(name).stem: fp for name, fp in temps.items()})
        for fp in temps.values():
            fp.close()
        entry["outputs"] = {name: _sha256(fp.name) for name, fp in temps.items()}
        manifest[stage] = entry
        temps[manifest_path.name] = fp = stack.enter_context(_temp_file(manifest_path))
        _write_json(fp, manifest)
        fp.close()
        for name, fp in temps.items():  # the manifest last
            os.replace(fp.name, root / name)
    log.info("stage %s ran in %s: %s", stage, root, stale)


def run_all(config: RunConfig) -> None:
    for stage in STAGES:
        run_stage(stage, config)
