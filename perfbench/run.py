"""Benchmark of the wikiq pipeline: three workloads, measured from outside.

    python3 perfbench/run.py --workload long_history --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all          # every workload in turn

Each run generates its workload's inputs from the seed, then repeats whole
rounds until the next would end after `--seconds`. A round is one fresh
process (perfbench/child.py) that runs only the program. Per round:

  wall_s       time of the timed section: the seven stages of `wikiq all`,
               or the 12-configuration network x centrality grid
  setup_s      spawn to the start of the timed section: interpreter, imports,
               config, and on network_sweep ingest -> contrib -> select
  peak_rss_mb  peak resident memory of the round's process and its workers
               (10^6 bytes)
  work_mb      bytes left in the work directory (10^6 bytes)

The two times are read on child.ProbeClock: each slice of program time is
scaled by the speed a reference probe, run every 20 ms, saw around it, so
that bursts of host interference do not show. The unscaled time is printed
beside them.

The run reports the median of each over its rounds, checks the last
round's outputs (checks.py), and prints one JSON line last:
{"correct", "attempted", "failed", "metrics"}. With --trace 1 every round is
traced (spans.py), no probe runs, and the metrics are the per-layer ones
instead. Exit codes: 0 correct, 1 a check failed, 2 the benchmark could not
run.
"""

from __future__ import annotations

import argparse
import compileall
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("long_history", "wide_corpus", "network_sweep")
END_TO_END = (("wall_s", "s"), ("setup_s", "s"), ("peak_rss_mb", "MB"),
              ("work_mb", "MB"))
ROUND_TIMEOUT_S = 150


class BenchError(Exception):
    """The benchmark could not run; exit 2 without a result."""


def prepare(workload: str, seed: int, rundir: Path):
    """Write the workload's dump, ratings and run config; return the
    generator's ledger (long_history only)."""
    import inputs
    dump, ratings, ledger = inputs.generate(workload, seed)
    (rundir / "dump.xml").write_text(dump, encoding="utf-8")
    (rundir / "ratings.tsv").write_text(ratings, encoding="utf-8")
    config = {"dump": str(rundir / "dump.xml"),
              "ratings": str(rundir / "ratings.tsv"),
              "workdir": str(rundir / "work")}
    (rundir / "config.json").write_text(json.dumps(config), encoding="utf-8")
    return ledger


def _tree_bytes(path: Path) -> int:
    return sum(p.stat().st_size for p in path.rglob("*") if p.is_file())


def run_round(workload: str, rundir: Path, trace: bool) -> dict:
    for name in ("work", "grid"):
        shutil.rmtree(rundir / name, ignore_errors=True)
    out_path = rundir / "round.json"
    spawn = time.monotonic()
    with open(out_path, "w", encoding="utf-8") as out:
        proc = subprocess.Popen(
            [sys.executable, str(HERE / "child.py"), workload, str(rundir),
             "1" if trace else "0"],
            stdout=out, cwd=ROOT)
    try:
        returncode = proc.wait(timeout=ROUND_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        raise BenchError(f"{workload} round exceeded {ROUND_TIMEOUT_S} s")
    if returncode != 0:
        raise BenchError(f"{workload} round exited with {returncode}")
    result = json.loads(out_path.read_text(encoding="utf-8"))
    # No probe runs before child.main begins: the interpreter's start is
    # scaled by the round's mean probe speed.
    result["setup_s"] += (result.pop("started") - spawn) * result["speed"]
    result["peak_rss_mb"] = result.pop("peak_rss_kib") * 1024 / 1e6
    result["work_mb"] = _tree_bytes(rundir / "work") / 1e6
    result["round_s"] = time.monotonic() - spawn
    return result


def check(workload: str, rundir: Path, ledger) -> str | None:
    """Run the workload's correctness checks; return the failure, if any."""
    import checks
    import child
    work = rundir / "work"
    try:
        if workload == "long_history":
            checks.check_long_history(ledger, work)
        elif workload == "wide_corpus":
            checks.check_wide_corpus(rundir / "dump.xml",
                                     rundir / "ratings.tsv", work)
        else:
            checks.check_network_sweep(rundir / "dump.xml", work,
                                       rundir / "grid", child.NETWORKS,
                                       child.METRICS)
    except (checks.CheckFailed, OSError, LookupError, ValueError) as exc:
        return f"{type(exc).__name__}: {exc}"
    return None


def run_workload(workload: str, seed: int, seconds: float,
                 trace: bool) -> dict:
    rundir = ROOT / ".perfbench" / f"{workload}-seed{seed}-pid{os.getpid()}"
    shutil.rmtree(rundir, ignore_errors=True)
    rundir.mkdir(parents=True)
    ledger = prepare(workload, seed, rundir)
    rounds: list[dict] = []
    start = time.monotonic()
    while True:
        rounds.append(run_round(workload, rundir, trace))
        elapsed = time.monotonic() - start
        if elapsed + statistics.median(r["round_s"] for r in rounds) > seconds:
            break
    problem = check(workload, rundir, ledger)

    if trace:
        import spans
        units = [(name, unit) for name, unit, _better in spans.PER_LAYER]
        values = {name: statistics.median(r["layers"][name] for r in rounds)
                  for name, _unit in units}
        traces = ROOT / ".perfbench" / "traces"
        traces.mkdir(exist_ok=True)
        shutil.copyfile(rundir / "spans.jsonl",
                        traces / f"{workload}-seed{seed}.jsonl")
    else:
        units = list(END_TO_END)
        values = {name: statistics.median(r[name] for r in rounds)
                  for name, _unit in units}
    attempted = sum(r["attempted"] for r in rounds)
    failed = sum(r["failed"] for r in rounds)

    print(f"{workload} seed {seed}: {len(rounds)} rounds in "
          f"{time.monotonic() - start:.1f} s, trace {int(trace)}")
    for name, unit in units:
        print(f"  {name:34s} {values[name]:14.6f} {unit}")
    if not trace:
        raw = statistics.median(r["wall_raw_s"] for r in rounds)
        probe = statistics.median(r["probe_median_s"] for r in rounds)
        print(f"  (unscaled wall time {raw:.6f} s, median probe "
              f"{probe * 1e6:.1f} us)")
    print(f"  stage calls: {attempted} attempted, {failed} failed")
    if problem:
        print(f"  CHECK FAILED: {problem} (outputs kept in {rundir})")
    else:
        print("  checks passed")
        shutil.rmtree(rundir)
    return {
        "correct": problem is None,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": unit}
                    for name, unit in units},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS + ("all",),
                        default="all")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "wikiq" / "__init__.py").is_file():
        print(f"perfbench: no wikiq sources under {ROOT / 'src'}",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    # Rounds load the program from bytecode, as an installed wikiq would,
    # whether or not the caller's environment lets Python write it.
    compileall.compile_dir(ROOT / "src", quiet=1)
    workloads = WORKLOADS if args.workload == "all" else (args.workload,)
    correct = True
    for workload in workloads:
        try:
            result = run_workload(workload, args.seed, args.seconds,
                                  bool(args.trace))
        except BenchError as exc:
            print(f"perfbench: {exc}", file=sys.stderr)
            return 2
        print(json.dumps(result), flush=True)
        correct = correct and result["correct"]
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
