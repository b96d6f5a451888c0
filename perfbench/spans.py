"""Span tracing of the program's layers, from outside the program.

`Tracer.install()` replaces each public function by a wrapper at the name
its caller looks it up under: `wikiq.longevity.edit_distance`, not only
`wikiq.worddiff.edit_distance`, because `longevity` imported the name.
Each call records a span (name, start, end, parent) in memory; `metrics()`
turns the spans and counters into the per-layer metrics, and `write()`
saves the spans when the run ends.

A span's self time is its duration less the time its child spans cover.
"""

from __future__ import annotations

import functools
import json
import time
from collections import Counter

STAGES = ("ingest", "contrib", "select", "net", "centrality", "score", "eval")
NETWORK_KINDS = {"coauthor": "coauthor", "talk_signature": "talk_sig",
                 "talk_history": "talk_hist"}

# (metric name, unit, better) of every per-layer metric, in report order.
PER_LAYER = (
    [(f"pipeline.{s}.s", "s", "lower") for s in STAGES]
    + [(f"pipeline.{s}.self_s", "s", "lower") for s in STAGES]
    + [
        ("ingest.parse_dump.s", "s", "lower"),
        ("ingest.tokenize.s", "s", "lower"),
        ("ingest.pages", "count", "higher"),
        ("ingest.revisions", "count", "higher"),
        ("ingest.tokens", "count", "higher"),
        ("worddiff.edit_distance.calls", "count", "lower"),
        ("worddiff.edit_distance.s", "s", "lower"),
        ("worddiff.match_blocks.s", "s", "lower"),
        ("worddiff.tokens", "count", "lower"),
        ("worddiff.blocks", "count", "lower"),
        ("longevity.judge_page.s", "s", "lower"),
        ("longevity.judge_page.calls", "count", "lower"),
        ("longevity.distance_requests", "count", "lower"),
        ("longevity.cache_hit_ratio", "ratio", "higher"),
        ("longevity.build_contributions.s", "s", "lower"),
        ("longevity.select_all.s", "s", "lower"),
        ("longevity.io.s", "s", "lower"),
        ("networks.coauthor.s", "s", "lower"),
        ("networks.talk_sig.s", "s", "lower"),
        ("networks.talk_hist.s", "s", "lower"),
        ("networks.restrict.s", "s", "lower"),
        ("networks.io.s", "s", "lower"),
    ]
    + [(f"networks.{what}.{kind}", "count", "higher")
       for what in ("nodes", "edges") for kind in NETWORK_KINDS.values()]
    + [(f"centrality.{m}.s", "s", "lower")
       for m in ("degree", "betweenness", "eigenvector", "pagerank", "io")]
    + [(f"quality.{m}.s", "s", "lower")
       for m in ("longevity", "centrality", "combined", "io")]
    + [
        ("evaluation.s", "s", "lower"),
        ("evaluation.ndcg.calls", "count", "lower"),
        ("trace.wall_s", "s", "lower"),
    ]
)


class Tracer:
    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent index]
        self.counts: Counter = Counter()
        self._stack: list[int] = []

    def _open(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter(), None, parent])
        self._stack.append(len(self.spans) - 1)
        return self._stack[-1]

    def _close(self, index: int) -> None:
        self.spans[index][2] = time.perf_counter()
        self._stack.pop()

    def wrap(self, module, attr: str, name, on_result=None) -> None:
        """Trace `module.attr`. `name` is a span name or a function of the
        call's arguments; `on_result(args, result)` feeds the counters."""
        fn = getattr(module, attr)
        naming = name if callable(name) else (lambda *a, **k: name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = self._open(naming(*args, **kwargs))
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(index)
            if on_result is not None:
                on_result(args, result)
            return result

        setattr(module, attr, traced)

    def wrap_generator(self, module, attr: str, name: str, on_item) -> None:
        """Trace a generator: each step that produces an item is a span."""
        fn = getattr(module, attr)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            it = fn(*args, **kwargs)
            while True:
                index = self._open(name)
                try:
                    item = next(it)
                except StopIteration:
                    return
                finally:
                    self._close(index)
                on_item(item)
                yield item

        setattr(module, attr, traced)

    def install(self) -> None:
        """Wrap every traced function of the wikiq package."""
        from wikiq import (centrality, evaluation, ingest, longevity,
                           networks, pipeline, quality, worddiff)
        c = self.counts

        def count(key, measure=lambda args, result: 1):
            return lambda args, result: c.update({key: measure(args, result)})

        def ingested(page):
            c["ingest.pages"] += 1
            c["ingest.revisions"] += len(page.revisions)

        def judged(args, judgments):
            c["longevity.judge_page.calls"] += 1
            c["longevity.distance_requests"] += sum(
                1 + (2 * j.judge_count if j.d_r > 0 and j.judge_count else 0)
                for j in judgments)

        def graph_size(args, result):
            g = args[0]
            kind = NETWORK_KINDS[g.kind]
            c[f"networks.nodes.{kind}"] = len(g.nodes)
            c[f"networks.edges.{kind}"] = len(g.edges)

        self.wrap(pipeline, "run_stage", lambda stage, config: f"pipeline.{stage}")
        self.wrap_generator(pipeline, "parse_dump", "ingest.parse_dump", ingested)
        self.wrap(ingest, "tokenize", "ingest.tokenize",
                  count("ingest.tokens", lambda a, r: len(r)))
        self.wrap(longevity, "edit_distance", "worddiff.edit_distance",
                  count("worddiff.tokens", lambda a, r: len(a[0]) + len(a[1])))
        self.wrap(worddiff, "match_blocks", "worddiff.match_blocks",
                  count("worddiff.blocks", lambda a, r: len(r)))
        self.wrap(longevity, "judge_page", "longevity.judge_page", judged)
        for attr in ("build_contributions", "select_all"):
            self.wrap(pipeline, attr, f"longevity.{attr}")
        for attr in ("read_contributions", "write_contributions",
                     "read_selections", "write_selections"):
            self.wrap(pipeline, attr, "longevity.io")
        for attr, name in (("build_coauthor", "coauthor"),
                           ("build_talk_signature", "talk_sig"),
                           ("build_talk_history", "talk_hist"),
                           ("restrict_and_filter", "restrict"),
                           ("read_edge_list", "io")):
            self.wrap(networks, attr, f"networks.{name}")
        self.wrap(networks, "write_edge_list", "networks.io", graph_size)
        for attr in ("degree", "betweenness", "eigenvector", "pagerank"):
            self.wrap(centrality, attr, f"centrality.{attr}")
        for attr in ("read_centrality", "write_centrality"):
            self.wrap(centrality, attr, "centrality.io")
        for attr, name in (("longevity_qscore", "longevity"),
                           ("centrality_qscore", "centrality"),
                           ("combined_qscore", "combined"),
                           ("read_scores", "io"), ("write_scores", "io")):
            self.wrap(quality, attr, f"quality.{name}")
        for attr in ("build_ranking", "ndcg", "filtered_eval",
                     "percentile_table", "precision_recall"):
            self.wrap(pipeline, attr, f"evaluation.{attr}")
        # filtered_eval finds ndcg in its own module
        self.wrap(evaluation, "ndcg", "evaluation.ndcg")

    def metrics(self, wall_s: float) -> dict[str, float]:
        """Per-layer totals over every span recorded so far."""
        spans = self.spans
        child_time = [0.0] * len(spans)
        for name, start, end, parent in spans:
            if parent >= 0:
                child_time[parent] += end - start
        total: Counter = Counter()
        self_time: Counter = Counter()
        ndcg_calls = 0
        for i, (name, start, end, parent) in enumerate(spans):
            total[name] += end - start
            self_time[name] += end - start - child_time[i]
            if name.startswith("evaluation.") and not (
                    parent >= 0 and spans[parent][0].startswith("evaluation.")):
                total["evaluation"] += end - start
            ndcg_calls += name == "evaluation.ndcg"
        out = {}
        for metric, _unit, _better in PER_LAYER:
            if metric.endswith(".self_s"):
                out[metric] = self_time[metric[:-len(".self_s")]]
            elif metric == "longevity.judge_page.s":
                out[metric] = self_time["longevity.judge_page"]
            elif metric.endswith(".s"):
                out[metric] = total[metric[:-len(".s")]]
            elif metric == "worddiff.edit_distance.calls":
                out[metric] = sum(1 for s in spans
                                  if s[0] == "worddiff.edit_distance")
            elif metric == "longevity.cache_hit_ratio":
                requests = self.counts["longevity.distance_requests"]
                calls = out["worddiff.edit_distance.calls"]
                out[metric] = 1.0 - calls / requests if requests else 0.0
            elif metric == "evaluation.ndcg.calls":
                out[metric] = ndcg_calls
            elif metric == "trace.wall_s":
                out[metric] = wall_s
            else:
                out[metric] = self.counts[metric]
        return out

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fp:
            for name, start, end, parent in self.spans:
                fp.write(json.dumps({"name": name, "start": start, "end": end,
                                     "parent": parent}) + "\n")
