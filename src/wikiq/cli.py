"""Command line entry point.

    wikiq <stage> --config FILE [--workdir DIR] [--with-bots|--without-bots]
          [--network coauthor|talk-sig|talk-hist]
          [--metric degree|betweenness|eigenvector|pagerank]
          [--model longevity|centrality|combined]
    wikiq all --config FILE ...
    wikiq synth [--spec FILE] --seed N --out DIR
    wikiq diff A B [--json]

Exit codes: 0 success, 1 usage error, 2 data error.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import logging
import sys
from pathlib import Path

from .ingest import tokenize
from .pipeline import (METRICS, MODELS, NETWORKS, STAGE_TABLE, RunConfig,
                       _from_dict, run_all, run_stage)
from .synth import SynthSpec, generate
from .worddiff import edit_distance


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        sys.stderr.write(f"{self.prog}: error: {message}\n")
        sys.exit(1)


def _add_stage_options(p: argparse.ArgumentParser) -> None:
    p.add_argument("--config", required=True, help="run config JSON")
    p.add_argument("--workdir", help="override config workdir")
    bots = p.add_mutually_exclusive_group()
    bots.add_argument("--with-bots", action="store_true", dest="with_bots")
    bots.add_argument("--without-bots", action="store_true", dest="without_bots")
    p.add_argument("--network", choices=NETWORKS)
    p.add_argument("--metric", choices=METRICS)
    p.add_argument("--model", action="append", choices=MODELS,
                   help="restrict scored models (repeatable)")


def _resolve_config(args: argparse.Namespace) -> RunConfig:
    config = RunConfig.from_json(Path(args.config).read_text())
    overrides = {key: value for key, value in (
        ("workdir", args.workdir), ("network", args.network),
        ("metric", args.metric), ("models", args.model)) if value}
    if args.with_bots or args.without_bots:
        overrides["exclude_bots"] = args.without_bots
    return dataclasses.replace(config, **overrides)


def build_parser() -> _Parser:
    parser = _Parser(prog="wikiq", description=__doc__.split("\n")[0])
    parser.add_argument("-v", "--verbose", action="store_true")
    sub = parser.add_subparsers(dest="command", required=True)
    for stage in STAGE_TABLE:
        reads = stage.inputs + stage.files
        _add_stage_options(sub.add_parser(stage.name, help=(
            f"reads {', '.join(reads)}; writes {', '.join(stage.outputs)}")))
    _add_stage_options(sub.add_parser("all", help="run every stage in order"))
    p = sub.add_parser("synth", help="generate a deterministic synthetic corpus")
    p.add_argument("--spec", help="SynthSpec JSON (defaults built in)")
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--out", default=".", help="output directory")
    p = sub.add_parser("diff", help="dump the edit-distance breakdown of two text files")
    p.add_argument("a")
    p.add_argument("b")
    p.add_argument("--json", action="store_true", dest="as_json")
    return parser


def _cmd_synth(args: argparse.Namespace) -> int:
    spec = SynthSpec()
    if args.spec:  # checked like a run config; --seed overrides its seed
        spec = _from_dict(SynthSpec, json.loads(Path(args.spec).read_text()))
    spec = dataclasses.replace(spec, seed=args.seed)
    dump, ratings = generate(spec)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    (out / "dump.xml").write_text(dump, encoding="utf-8", newline="\n")
    (out / "ratings.tsv").write_text(ratings, encoding="utf-8", newline="\n")
    print(f"wrote {out / 'dump.xml'} and {out / 'ratings.tsv'}")
    return 0


def _cmd_diff(args: argparse.Namespace) -> int:
    a = tokenize(Path(args.a).read_text(encoding="utf-8"))
    b = tokenize(Path(args.b).read_text(encoding="utf-8"))
    breakdown = edit_distance(a, b)
    if args.as_json:
        print(json.dumps(dataclasses.asdict(breakdown), sort_keys=True))
    else:
        print(
            f"I={breakdown.inserted} D={breakdown.deleted} "
            f"M={breakdown.moved_mass:.6g} d={breakdown.distance:.6g}"
        )
    return 0


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    logging.basicConfig(
        level=logging.DEBUG if args.verbose else logging.WARNING,
        format="%(levelname)s %(name)s: %(message)s",
    )
    try:
        if args.command == "synth":
            return _cmd_synth(args)
        if args.command == "diff":
            return _cmd_diff(args)
        config = _resolve_config(args)
        if args.command == "all":
            run_all(config)
        else:
            run_stage(args.command, config)
        return 0
    except (ValueError, OSError) as exc:  # every data error is a ValueError
        print(f"wikiq: error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
